//! The bench lab of deterministic counts: the repo's fixed workloads — the
//! E9 batching cell, a parallel chaos campaign, a ddmin minimization, the
//! checkpoint, transfer, pipeline, recovery and shard labs — reported as
//! simulated quantities in a fixed-schema JSON that
//! `tests/snapshots/bench_baseline.json` pins byte for byte. `all_tables lab`
//! prints the same report as a table. Wall-clock cost is measured by
//! `benchmark/`, not here.

use crate::experiments::shards::measure_shards;
use crate::experiments::throughput::{measure_throughput, measure_throughput_with};
use crate::experiments::transfer::{measure_catch_up, CatchUp};
use base::{BaseService, ModifyLog, Wrapper};
use base_crypto::Digest;
use base_pbft::chaos::{CounterWorkload, ServiceCampaign, APP_BYZ};
use base_pbft::messages::{Message, MetaReplyMsg, ObjectReplyMsg};
use base_pbft::transfer::{
    checkpoint_digest, Fetcher, DEFAULT_FETCH_WINDOW, META_ROOT_LEVEL, REPLIES_INDEX,
};
use base_pbft::tree::{leaf_digest, PartitionTree};
use base_pbft::{ExecEnv, Service};
use base_simnet::chaos::{run_campaign, CampaignMode, ChaosHarness, FaultSchedule};
use base_simnet::ddmin::ddmin_from_failure;
use base_simnet::{NetFault, NodeId, SimDuration, SimTime, Simulation};
use rand::SeedableRng;
use std::fmt::Write as _;

/// E9 cell measured by the lab.
const E9_CLIENTS: usize = 8;
const E9_OPS_PER_CLIENT: usize = 150;
/// Written value size. The paper's file-system workloads move multi-KB
/// blocks; KiB-sized values are what exercise the wire-copy and digest
/// paths the fabric optimizes.
const E9_VALUE_BYTES: usize = 1024;
/// Pipeline cell pair: the E9 workload with agreement/execution decoupled.
/// The serial side pins `pipeline_depth = 1`; both sides share the raised
/// inflight window so the gate under test is the pipeline depth alone.
const PIPE_MAX_INFLIGHT: u64 = 4;
const PIPE_DEPTH: u64 = 4;
/// Cells of the shard-scaling sweep (E14).
const SHARD_CELLS: [u32; 3] = [1, 2, 4];
/// Recovery cell pair (E4b): replica 3 sleeps through a burst that edits
/// `RECOVERY_EDIT_BYTES` at the front of `RECOVERY_STALE` of
/// `RECOVERY_LIVE` 8 KiB files, then catches up with whole-object leaves
/// or with `RECOVERY_CHUNK`-byte chunked leaves.
const RECOVERY_SEED: u64 = 8200;
const RECOVERY_LIVE: u32 = 128;
const RECOVERY_STALE: u32 = 24;
const RECOVERY_EDIT_BYTES: usize = 256;
const RECOVERY_CHUNK: usize = 1024;
/// Campaign shape: seeds and worker count.
const CAMPAIGN_SEEDS: std::ops::Range<u64> = 6200..6212;
const CAMPAIGN_WORKERS: usize = 4;

/// Checkpoint-lab shape: a deep sparse tree so batching has headroom.
const CKPT_OBJECTS: u64 = 4096;
const CKPT_VALUE_BYTES: usize = 512;
const CKPT_EPOCHS: u64 = 32;
const CKPT_DIRTY_PER_EPOCH: u64 = 64;

/// Transfer-lab shape: remote checkpoint with this many live objects, of
/// which `TRANSFER_STALE` are stale at the fetching replica.
const TRANSFER_LIVE: u64 = 256;
const TRANSFER_STALE: u64 = 192;
const TRANSFER_VALUE_BYTES: usize = 1024;

/// Wraps the counter harness with a schedule-dependent audit: fail iff at
/// least `threshold` crash events were applied. Every probe still builds
/// and runs the full PBFT counter group, so ddmin's search cost is the
/// realistic one — but which subsets fail is exactly predictable, keeping
/// the measured search shape (and `ddmin.executions`) deterministic.
struct CrashCounting {
    inner: ServiceCampaign<CounterWorkload>,
    threshold: usize,
}

impl ChaosHarness for CrashCounting {
    fn build(&mut self, seed: u64) -> Simulation {
        self.inner.build(seed)
    }

    fn apply_app(
        &mut self,
        sim: &mut Simulation,
        node: NodeId,
        tag: u32,
        arg: u64,
        trace: &mut Vec<String>,
    ) {
        self.inner.apply_app(sim, node, tag, arg, trace);
    }

    fn settle(&self) -> SimDuration {
        SimDuration::from_secs(2)
    }

    fn audit(&mut self, _sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
        let crashes = trace.iter().filter(|l| l.contains("crash node")).count();
        if crashes >= self.threshold {
            Err(format!("saw {crashes} crashes (threshold {})", self.threshold))
        } else {
            Ok(())
        }
    }
}

fn ddmin_harness() -> CrashCounting {
    CrashCounting { inner: ServiceCampaign::new(4, CounterWorkload::default()), threshold: 2 }
}

/// A fixed 10-event schedule with decoys around the two crashes ddmin must
/// isolate; every probe replays the counter workload under it.
fn ddmin_schedule() -> FaultSchedule {
    let ms = SimTime::from_millis;
    let dms = SimDuration::from_millis;
    let mut s = FaultSchedule::new();
    s.net(ms(100), NetFault::Duplicate { prob: 0.2 }, dms(400))
        .crash(ms(200), NodeId(0), dms(300))
        .app(ms(350), NodeId(2), APP_BYZ, 0)
        .net(
            ms(500),
            NetFault::Slow { from: NodeId(1), to: NodeId(2), extra: dms(20) },
            dms(300),
        )
        .net(ms(700), NetFault::Partition { nodes: vec![NodeId(3)] }, dms(200))
        .crash(ms(900), NodeId(1), dms(350))
        .app(ms(1000), NodeId(3), APP_BYZ, 0)
        .net(ms(1100), NetFault::Duplicate { prob: 0.1 }, dms(250))
        .crash(ms(1300), NodeId(2), dms(200))
        .net(
            ms(1500),
            NetFault::Slow { from: NodeId(0), to: NodeId(3), extra: dms(15) },
            dms(200),
        );
    s
}

/// A plain array service for the checkpoint lab: abstract object `i` is
/// the raw value at index `i`, addressed directly by the operation so the
/// dirty-set shape is exactly the one scripted below.
struct ArrayWrapper {
    vals: Vec<Option<Vec<u8>>>,
}

impl Wrapper for ArrayWrapper {
    fn execute(
        &mut self,
        op: &[u8],
        _client: u32,
        _nondet: &[u8],
        _read_only: bool,
        mods: &mut ModifyLog,
        _env: &mut ExecEnv<'_>,
    ) -> Vec<u8> {
        // op = 8-byte BE index || value bytes.
        let idx = u64::from_be_bytes(op[..8].try_into().expect("short op")) as usize;
        mods.modify(idx as u64, || self.vals[idx].clone());
        self.vals[idx] = Some(op[8..].to_vec());
        Vec::new()
    }

    fn get_obj(&self, index: u64) -> Option<Vec<u8>> {
        self.vals[index as usize].clone()
    }

    fn put_objs(&mut self, objs: &[(u64, Option<Vec<u8>>)], _env: &mut ExecEnv<'_>) {
        for (i, v) in objs {
            self.vals[*i as usize] = v.clone();
        }
    }

    fn n_objects(&self) -> u64 {
        self.vals.len() as u64
    }

    fn propose_nondet(&mut self, _env: &mut ExecEnv<'_>) -> Vec<u8> {
        Vec::new()
    }

    fn check_nondet(&self, nondet: &[u8], _env: &mut ExecEnv<'_>) -> bool {
        nondet.is_empty()
    }

    fn reset(&mut self, _env: &mut ExecEnv<'_>) {
        self.vals = vec![None; self.vals.len()];
    }
}

struct CheckpointOut {
    checkpoints: u64,
    objects_digested: u64,
    node_hashes: u64,
    /// What the pre-batching per-leaf root-path rehash would have cost:
    /// every digested object re-hashed its full path of internal nodes.
    naive_node_hashes: u64,
}

/// Checkpoint lab: populate a 4096-object service, then run sparse
/// clustered dirty epochs with a checkpoint each. Every counter is
/// deterministic.
fn measure_checkpoint() -> CheckpointOut {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut svc = BaseService::new(ArrayWrapper {
        vals: vec![None; CKPT_OBJECTS as usize],
    });
    let depth = u64::from(svc.current_tree().depth());

    fn write(
        svc: &mut BaseService<ArrayWrapper>,
        rng: &mut rand::rngs::StdRng,
        idx: u64,
        fill: u8,
    ) {
        let mut op = idx.to_be_bytes().to_vec();
        op.extend(std::iter::repeat_n(fill, CKPT_VALUE_BYTES));
        let mut env = ExecEnv::new(1, rng);
        svc.execute(&op, 1, &[], false, &mut env);
    }

    // Epoch 0: full population (the worst-case dense flush).
    for i in 0..CKPT_OBJECTS {
        write(&mut svc, &mut rng, i, 0x11);
    }
    let mut env = ExecEnv::new(1, &mut rng);
    svc.take_checkpoint(0, &mut env);

    // Sparse epochs: one clustered run of dirty objects each, the shape
    // hierarchical checkpointing is supposed to exploit.
    for e in 1..=CKPT_EPOCHS {
        let start = (e * 613) % (CKPT_OBJECTS - CKPT_DIRTY_PER_EPOCH);
        for i in 0..CKPT_DIRTY_PER_EPOCH {
            write(&mut svc, &mut rng, start + i, e as u8);
        }
        let mut env = ExecEnv::new(1, &mut rng);
        svc.take_checkpoint(e * 128, &mut env);
        if e % 8 == 0 {
            svc.discard_checkpoints_below(e.saturating_sub(4) * 128);
        }
    }

    CheckpointOut {
        checkpoints: svc.stats.checkpoints,
        objects_digested: svc.stats.objects_digested,
        node_hashes: svc.stats.node_hashes,
        naive_node_hashes: svc.stats.objects_digested * depth,
    }
}

struct TransferOut {
    rounds_serial: u64,
    rounds_windowed: u64,
    meta_queries: u64,
    objects_fetched: u64,
    fetched_bytes: u64,
}

/// Serves one fetch query the way a correct replica would.
fn serve_fetch(
    tree: &PartitionTree,
    objects: &[Option<Vec<u8>>],
    replies_blob: &[u8],
    msg: &Message,
) -> Option<Message> {
    match msg {
        Message::FetchMeta(m) if m.level == META_ROOT_LEVEL => {
            Some(Message::MetaReply(MetaReplyMsg {
                seq: m.seq,
                level: m.level,
                index: m.index,
                digests: vec![tree.root_digest(), Digest::of(replies_blob)],
                replica: 0,
            }))
        }
        Message::FetchMeta(m) => Some(Message::MetaReply(MetaReplyMsg {
            seq: m.seq,
            level: m.level,
            index: m.index,
            digests: tree.children_digests(m.level, m.index)?,
            replica: 0,
        })),
        Message::FetchObject(m) if m.index == REPLIES_INDEX => {
            Some(Message::ObjectReply(ObjectReplyMsg {
                seq: m.seq,
                index: m.index,
                data: replies_blob.to_vec(),
                replica: 0,
            }))
        }
        Message::FetchObject(m) => Some(Message::ObjectReply(ObjectReplyMsg {
            seq: m.seq,
            index: m.index,
            data: objects[m.index as usize].clone()?,
            replica: 0,
        })),
        _ => None,
    }
}

/// Transfer lab: a lockstep round model of the hierarchical fetch. Each
/// round answers every query currently on the wire and collects the
/// follow-ups; the round count is the number of request/reply round trips
/// a transfer needs, which is exactly what pipelining cuts.
fn measure_transfer() -> TransferOut {
    let mut remote = PartitionTree::new(CKPT_OBJECTS, 16);
    let mut objects: Vec<Option<Vec<u8>>> = vec![None; CKPT_OBJECTS as usize];
    for i in 0..TRANSFER_LIVE {
        let v = vec![i as u8; TRANSFER_VALUE_BYTES];
        remote.set_leaf(i, leaf_digest(i, &v));
        objects[i as usize] = Some(v);
    }
    let replies_blob = b"bench-reply-cache".to_vec();
    let target = checkpoint_digest(&remote.root_digest(), &Digest::of(&replies_blob));

    // The fetching replica already has the newest TRANSFER_LIVE -
    // TRANSFER_STALE objects right.
    let mut local = PartitionTree::new(CKPT_OBJECTS, 16);
    for i in TRANSFER_STALE..TRANSFER_LIVE {
        let v = vec![i as u8; TRANSFER_VALUE_BYTES];
        local.set_leaf(i, leaf_digest(i, &v));
    }

    let run = |window: usize| -> (u64, base_pbft::transfer::FetchResult) {
        // Pinned (`window == window_max`), so each run measures one window.
        let mut f = Fetcher::new(3, 4, 128, target, window, window);
        let mut wire = f.begin();
        let mut rounds = 0u64;
        let mut result = None;
        while !wire.is_empty() {
            rounds += 1;
            assert!(rounds < 100_000, "transfer lab did not converge");
            let mut next = Vec::new();
            for (_, msg) in wire.drain(..) {
                let reply = serve_fetch(&remote, &objects, &replies_blob, &msg)
                    .expect("lab serves every query");
                let (more, done) = match reply {
                    Message::MetaReply(m) => f.on_meta_reply(&m, &local),
                    Message::ObjectReply(m) => f.on_object_reply(&m, &local),
                    _ => unreachable!(),
                };
                next.extend(more);
                if let Some(r) = done {
                    result = Some(r);
                }
            }
            wire = next;
        }
        (rounds, result.expect("transfer lab completes"))
    };

    let (rounds_serial, serial) = run(1);
    let (rounds_windowed, windowed) = run(DEFAULT_FETCH_WINDOW);

    // Pipelining must change scheduling only, never what gets fetched.
    assert_eq!(serial.objects.len(), windowed.objects.len());
    assert_eq!(serial.fetched_bytes, windowed.fetched_bytes);
    assert_eq!(serial.meta_queries, windowed.meta_queries);

    TransferOut {
        rounds_serial,
        rounds_windowed,
        meta_queries: windowed.meta_queries,
        objects_fetched: windowed.objects.len() as u64,
        fetched_bytes: windowed.fetched_bytes,
    }
}

struct PipelineOut {
    serial_sim_ops_per_sec: u64,
    piped_sim_ops_per_sec: u64,
}

/// Pipeline pair: the E9 cell with `pipeline_depth = 1` versus
/// [`PIPE_DEPTH`], both at the same raised inflight window. All sim
/// quantities are deterministic.
fn measure_pipeline() -> PipelineOut {
    let serial = measure_throughput_with(E9_CLIENTS, E9_OPS_PER_CLIENT, E9_VALUE_BYTES, |cfg| {
        cfg.max_inflight = PIPE_MAX_INFLIGHT;
        cfg.pipeline_depth = 1;
    });
    let piped = measure_throughput_with(E9_CLIENTS, E9_OPS_PER_CLIENT, E9_VALUE_BYTES, |cfg| {
        cfg.max_inflight = PIPE_MAX_INFLIGHT;
        cfg.pipeline_depth = PIPE_DEPTH;
    });
    let rate = |s: &crate::experiments::throughput::ThroughputSample| {
        (s.ops as f64 / (s.elapsed_ns as f64 / 1e9)).round() as u64
    };
    PipelineOut {
        serial_sim_ops_per_sec: rate(&serial),
        piped_sim_ops_per_sec: rate(&piped),
    }
}

struct RecoveryOut {
    whole: CatchUp,
    chunked: CatchUp,
}

/// Recovery pair: the same sleeper-catches-up run with whole-object leaves
/// and with chunked leaves, where a small edit to a big file moves only the
/// chunks it touched.
fn measure_recovery() -> RecoveryOut {
    let cell = |chunk_size| {
        let edit = |i: u32| vec![0xE0 | (i as u8 & 0x0F); RECOVERY_EDIT_BYTES];
        measure_catch_up(RECOVERY_SEED, RECOVERY_LIVE, RECOVERY_STALE, edit, chunk_size)
    };
    RecoveryOut { whole: cell(0), chunked: cell(RECOVERY_CHUNK) }
}

impl RecoveryOut {
    fn to_json(&self) -> String {
        let cell = |c: &CatchUp| {
            format!(
                "{{\"fetched_objects\":{},\"fetched_bytes\":{},\"meta_queries\":{},\
                 \"chunk_queries\":{},\"chunks_reused\":{},\"retransmissions\":{},\
                 \"corrupt_replies\":{},\"fetch_ms\":{},\"root\":\"{}\"}}",
                c.fetched_objects,
                c.fetched_bytes,
                c.meta_queries,
                c.chunk_queries,
                c.chunks_reused,
                c.retransmissions,
                c.corrupt_replies,
                c.fetch_ms,
                c.root,
            )
        };
        format!(
            "\"recovery\":{{\"live_files\":{RECOVERY_LIVE},\"stale_files\":{RECOVERY_STALE},\
             \"edit_bytes\":{RECOVERY_EDIT_BYTES},\"chunk_size\":{RECOVERY_CHUNK},\
             \"whole\":{},\"chunked\":{}}}",
            cell(&self.whole),
            cell(&self.chunked),
        )
    }
}

struct ShardsOut {
    /// `(shards, disjoint sim ops/s, mixed sim ops/s, mixed cross aborts)`
    /// per cell of [`SHARD_CELLS`].
    cells: Vec<(u32, u64, u64, u64)>,
}

/// Shard-scaling lab: the E14 cells.
fn measure_shards_section() -> ShardsOut {
    let cells = SHARD_CELLS
        .iter()
        .map(|&k| {
            let disjoint = measure_shards(k, false);
            let mixed = measure_shards(k, true);
            (k, disjoint.sim_ops_per_sec, mixed.sim_ops_per_sec, mixed.cross_aborts)
        })
        .collect();
    ShardsOut { cells }
}

impl ShardsOut {
    fn to_json(&self) -> String {
        let mut out = String::from("\"shards\":{");
        for (k, disjoint, mixed, aborts) in &self.cells {
            let _ = write!(
                out,
                "\"disjoint_{k}\":{disjoint},\"mixed_{k}\":{mixed},\"cross_aborts_{k}\":{aborts},"
            );
        }
        let speedups: Vec<String> = self.cells[1..]
            .iter()
            .map(|c| format!("\"speedup_milli_{}\":{}", c.0, self.speedup_milli(c)))
            .collect();
        let _ = write!(out, "{}}}", speedups.join(","));
        out
    }

    /// Disjoint-workload speedup of `cell` over one shard, in thousandths.
    fn speedup_milli(&self, cell: &(u32, u64, u64, u64)) -> u64 {
        (cell.1 as f64 / self.cells[0].1 as f64 * 1000.0).round() as u64
    }
}

/// Everything the lab measured; every field is a deterministic count.
pub struct BenchReport {
    e9_ops: u64,
    e9_sim_ops_per_sec: u64,
    e9_p50_latency_ns: u64,
    e9_p99_latency_ns: u64,
    campaign_runs: usize,
    campaign_failures: usize,
    ddmin_executions: u64,
    ddmin_subset_tests: u64,
    ddmin_minimal_len: usize,
    ckpt: CheckpointOut,
    transfer: TransferOut,
    pipeline: PipelineOut,
    recovery: RecoveryOut,
    shards: ShardsOut,
}

/// Runs every section of the lab.
pub fn measure() -> BenchReport {
    // E9 batching throughput.
    let e9 = measure_throughput(E9_CLIENTS, E9_OPS_PER_CLIENT, E9_VALUE_BYTES);
    let e9_sim_ops_per_sec = (e9.ops as f64 / (e9.elapsed_ns as f64 / 1e9)).round() as u64;

    // Chaos campaign at a fixed worker count.
    let counter = || ServiceCampaign::new(4, CounterWorkload::default());
    let cfg = counter().gen_config(5, SimDuration::from_secs(6));
    let report = run_campaign(
        counter,
        CampaignMode::Mixed,
        &cfg,
        CAMPAIGN_SEEDS,
        CAMPAIGN_WORKERS,
    );

    // ddmin over the fixed decoy schedule (known failing: three crashes
    // exceed the threshold of two).
    let schedule = ddmin_schedule();
    let mut h = ddmin_harness();
    let (outcome, verdict) = base_simnet::chaos::run_one(&mut h, 42, &schedule);
    assert!(verdict.is_err(), "ddmin bench schedule must fail its audit");
    let dd = ddmin_from_failure(&mut h, 42, &schedule, Some(&outcome));

    let ckpt = measure_checkpoint();
    let transfer = measure_transfer();
    let pipeline = measure_pipeline();
    let recovery = measure_recovery();
    let shards = measure_shards_section();

    BenchReport {
        e9_ops: e9.ops,
        e9_sim_ops_per_sec,
        e9_p50_latency_ns: e9.p50_latency_ns,
        e9_p99_latency_ns: e9.p99_latency_ns,
        campaign_runs: report.runs,
        campaign_failures: report.failures.len(),
        ddmin_executions: dd.metrics.counter("ddmin.executions"),
        ddmin_subset_tests: dd.metrics.counter("ddmin.subset_tests"),
        ddmin_minimal_len: dd.schedule.len(),
        ckpt,
        transfer,
        pipeline,
        recovery,
        shards,
    }
}

impl BenchReport {
    /// The report as one line of JSON, sections in a fixed order, stamped
    /// `baseline` like the snapshot that pins it.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"stamp\":\"baseline\",\
             \"e9\":{{\"clients\":{},\"ops\":{},\"sim_ops_per_sec\":{},\
             \"p50_latency_ns\":{},\"p99_latency_ns\":{}}},\
             \"campaign\":{{\"runs\":{},\"workers\":{},\"failures\":{}}},\
             \"ddmin\":{{\"executions\":{},\"subset_tests\":{},\"minimal_len\":{}}},\
             \"checkpoint\":{{\"checkpoints\":{},\
             \"objects_digested\":{},\"node_hashes\":{},\"naive_node_hashes\":{}}},\
             \"transfer\":{{\"window\":{},\"rounds_serial\":{},\"rounds_windowed\":{},\
             \"meta_queries\":{},\"objects_fetched\":{},\"fetched_bytes\":{}}},\
             \"pipeline\":{{\"depth\":{},\"serial_sim_ops_per_sec\":{},\
             \"piped_sim_ops_per_sec\":{}}},{},{}}}",
            E9_CLIENTS,
            self.e9_ops,
            self.e9_sim_ops_per_sec,
            self.e9_p50_latency_ns,
            self.e9_p99_latency_ns,
            self.campaign_runs,
            CAMPAIGN_WORKERS,
            self.campaign_failures,
            self.ddmin_executions,
            self.ddmin_subset_tests,
            self.ddmin_minimal_len,
            self.ckpt.checkpoints,
            self.ckpt.objects_digested,
            self.ckpt.node_hashes,
            self.ckpt.naive_node_hashes,
            DEFAULT_FETCH_WINDOW,
            self.transfer.rounds_serial,
            self.transfer.rounds_windowed,
            self.transfer.meta_queries,
            self.transfer.objects_fetched,
            self.transfer.fetched_bytes,
            PIPE_DEPTH,
            self.pipeline.serial_sim_ops_per_sec,
            self.pipeline.piped_sim_ops_per_sec,
            self.recovery.to_json(),
            self.shards.to_json(),
        );
        out
    }

    /// Prints the report as a table, one line per section.
    pub fn print_table(&self) {
        println!("== bench lab ==");
        println!(
            "e9:       clients={} ops={} sim_ops/s={} p50={}ms p99={}ms",
            E9_CLIENTS,
            self.e9_ops,
            self.e9_sim_ops_per_sec,
            self.e9_p50_latency_ns as f64 / 1e6,
            self.e9_p99_latency_ns as f64 / 1e6
        );
        println!(
            "campaign: runs={} workers={} failures={}",
            self.campaign_runs, CAMPAIGN_WORKERS, self.campaign_failures
        );
        println!(
            "ddmin:    executions={} subset_tests={} minimal_len={}",
            self.ddmin_executions, self.ddmin_subset_tests, self.ddmin_minimal_len
        );
        println!(
            "ckpt:     checkpoints={} digested={} node_hashes={} naive={}",
            self.ckpt.checkpoints,
            self.ckpt.objects_digested,
            self.ckpt.node_hashes,
            self.ckpt.naive_node_hashes
        );
        println!(
            "transfer: window={} rounds(serial)={} rounds(windowed)={} meta_queries={} \
             objects={} bytes={}",
            DEFAULT_FETCH_WINDOW,
            self.transfer.rounds_serial,
            self.transfer.rounds_windowed,
            self.transfer.meta_queries,
            self.transfer.objects_fetched,
            self.transfer.fetched_bytes
        );
        println!(
            "pipeline: depth={} serial_ops/s={} piped_ops/s={}",
            PIPE_DEPTH,
            self.pipeline.serial_sim_ops_per_sec,
            self.pipeline.piped_sim_ops_per_sec
        );
        for (name, c) in [("whole", &self.recovery.whole), ("chunked", &self.recovery.chunked)] {
            println!(
                "recovery: {name:<7} objects={} bytes={} meta_queries={} chunk_queries={} \
                 chunks_reused={} fetch={}ms root={:.8}",
                c.fetched_objects,
                c.fetched_bytes,
                c.meta_queries,
                c.chunk_queries,
                c.chunks_reused,
                c.fetch_ms,
                c.root
            );
        }
        let cells: Vec<String> = self
            .shards
            .cells
            .iter()
            .map(|(k, d, m, _)| format!("{k}:{d}/{m}"))
            .collect();
        let top = self.shards.cells.last().expect("SHARD_CELLS is not empty");
        println!(
            "shards:   ops/s(disjoint/mixed) [{}] speedup={:.2}x",
            cells.join(" "),
            self.shards.speedup_milli(top) as f64 / 1000.0
        );
    }
}
