//! The bench lab of deterministic counts: the repo's fixed workloads — the
//! E9 batching cell, a parallel chaos campaign, a ddmin minimization, the
//! checkpoint, transfer, pipeline, recovery and shard labs — reported as
//! simulated quantities in a fixed-schema JSON that
//! `tests/snapshots/bench_baseline.json` pins byte for byte. `all_tables lab`
//! prints the same report as one `section: key=value …` line per section.
//! Wall-clock cost is measured by `benchmark/`, not here.

use crate::experiments::shards::measure_shards;
use crate::experiments::throughput::{measure_throughput, measure_throughput_with, ThroughputSample};
use crate::experiments::transfer::measure_catch_up;
use base::{BaseService, ModifyLog, Wrapper};
use base_pbft::chaos::{CounterWorkload, ServiceCampaign, APP_BYZ};
use base_pbft::messages::Message;
use base_pbft::testing::RemoteCheckpoint;
use base_pbft::transfer::{Fetcher, FETCH_WINDOW};
use base_pbft::tree::{leaf_digest, PartitionTree};
use base_pbft::{ExecEnv, Service};
use base_simnet::chaos::{run_campaign, CampaignMode, FaultSchedule};
use base_simnet::ddmin::{ddmin_from_failure, CrashThreshold};
use base_simnet::{NetFault, NodeId, SimDuration, SimTime};
use rand::SeedableRng;

/// E9 cell measured by the lab.
const E9_CLIENTS: usize = 8;
const E9_OPS_PER_CLIENT: usize = 150;
/// Written value size. The paper's file-system workloads move multi-KB
/// blocks; KiB-sized values are what exercise the wire-copy and digest
/// paths the fabric optimizes.
const E9_VALUE_BYTES: usize = 1024;
/// Pipeline cell pair: the E9 workload with agreement/execution decoupled,
/// at `max_inflight = 1` (the serial oracle) versus `PIPE_DEPTH`.
const PIPE_DEPTH: u64 = 4;
/// Cells of the shard-scaling sweep (E14).
const SHARD_CELLS: [u32; 3] = [1, 2, 4];
/// Recovery cell (E4b): replica 3 sleeps through a burst that edits
/// `RECOVERY_EDIT_BYTES` at the front of `RECOVERY_STALE` of
/// `RECOVERY_LIVE` 8 KiB files, then catches up by fetching whole objects.
const RECOVERY_SEED: u64 = 8200;
const RECOVERY_LIVE: u32 = 128;
const RECOVERY_STALE: u32 = 24;
const RECOVERY_EDIT_BYTES: usize = 256;
/// Campaign shape: its seeds.
const CAMPAIGN_SEEDS: std::ops::Range<u64> = 6200..6212;

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

/// One section of the report: named values, in their JSON order.
type Rows = Vec<(String, Value)>;

/// One value of the report.
enum Value {
    /// A deterministic count.
    Count(u64),
    /// A digest, rendered as a JSON string.
    Text(String),
    /// A nested group, rendered as a JSON object.
    Group(Rows),
}

/// Count rows under the given keys, in order.
fn counts<K: Into<String>>(rows: impl IntoIterator<Item = (K, u64)>) -> Rows {
    rows.into_iter().map(|(key, n)| (key.into(), Value::Count(n))).collect()
}

/// `rows` as one JSON object.
fn json_object(rows: &Rows) -> String {
    let fields: Vec<String> = rows
        .iter()
        .map(|(key, value)| match value {
            Value::Count(n) => format!("\"{key}\":{n}"),
            Value::Text(s) => format!("\"{key}\":\"{s}\""),
            Value::Group(rows) => format!("\"{key}\":{}", json_object(rows)),
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// `rows` as `key=value` pairs, a nested group's keys dotted under its own.
fn pairs(prefix: &str, rows: &Rows, out: &mut Vec<String>) {
    for (key, value) in rows {
        match value {
            Value::Count(n) => out.push(format!("{prefix}{key}={n}")),
            Value::Text(s) => out.push(format!("{prefix}{key}={s}")),
            Value::Group(rows) => pairs(&format!("{prefix}{key}."), rows, out),
        }
    }
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

/// Checkpoint lab: populate a 4096-object service, then run sparse
/// clustered dirty epochs with a checkpoint each. Every counter is
/// deterministic.
fn measure_checkpoint() -> Rows {
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

    counts([
        ("checkpoints", svc.stats.checkpoints),
        ("objects_digested", svc.stats.objects_digested),
        ("node_hashes", svc.stats.node_hashes),
        // What the pre-batching per-leaf root-path rehash would have cost:
        // every digested object re-hashed its full path of internal nodes.
        ("naive_node_hashes", svc.stats.objects_digested * depth),
    ])
}

/// Transfer lab: a lockstep round model of the hierarchical fetch. Each
/// round answers every query currently on the wire and collects the
/// follow-ups; the round count is the number of request/reply round trips
/// a transfer needs, which is exactly what pipelining cuts.
fn measure_transfer() -> Rows {
    let values = (0..TRANSFER_LIVE).map(|i| (i, vec![i as u8; TRANSFER_VALUE_BYTES]));
    let remote = RemoteCheckpoint::new(CKPT_OBJECTS, 16, values, b"bench-reply-cache");

    // The fetching replica already has the newest TRANSFER_LIVE -
    // TRANSFER_STALE objects right.
    let mut local = PartitionTree::new(CKPT_OBJECTS, 16);
    for i in TRANSFER_STALE..TRANSFER_LIVE {
        let v = vec![i as u8; TRANSFER_VALUE_BYTES];
        local.set_leaf(i, leaf_digest(i, &v));
    }

    let run = |window: usize| -> (u64, base_pbft::transfer::FetchResult) {
        let mut f = Fetcher::new(3, 4, 128, remote.composite(), window);
        let mut wire = f.begin();
        let mut rounds = 0u64;
        let mut result = None;
        while !wire.is_empty() {
            rounds += 1;
            assert!(rounds < 100_000, "transfer lab did not converge");
            let mut next = Vec::new();
            for (_, msg) in wire.drain(..) {
                let reply = remote.serve(&msg).expect("lab serves every query");
                let (more, done) = match reply {
                    Message::MetaReply(m) => f.on_meta_reply(&m, &local),
                    Message::ObjectReply(m) => f.on_object_reply(&m),
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
    let (rounds_windowed, windowed) = run(FETCH_WINDOW);

    // Pipelining must change scheduling only, never what gets fetched.
    assert_eq!(serial.objects.len(), windowed.objects.len());
    assert_eq!(serial.fetched_bytes, windowed.fetched_bytes);
    assert_eq!(serial.meta_queries, windowed.meta_queries);

    counts([
        ("window", FETCH_WINDOW as u64),
        ("rounds_serial", rounds_serial),
        ("rounds_windowed", rounds_windowed),
        ("meta_queries", windowed.meta_queries),
        ("objects_fetched", windowed.objects.len() as u64),
        ("fetched_bytes", windowed.fetched_bytes),
    ])
}

/// Simulated throughput of one E9 cell, ops per virtual second.
fn sim_ops_per_sec(s: &ThroughputSample) -> u64 {
    (s.ops as f64 / (s.elapsed_ns as f64 / 1e9)).round() as u64
}

/// Pipeline pair: the E9 cell at `max_inflight = 1` versus [`PIPE_DEPTH`].
/// All sim quantities are deterministic.
fn measure_pipeline() -> Rows {
    let rate = |max_inflight| {
        sim_ops_per_sec(&measure_throughput_with(
            E9_CLIENTS,
            E9_OPS_PER_CLIENT,
            E9_VALUE_BYTES,
            |cfg| cfg.max_inflight = max_inflight,
        ))
    };
    counts([
        ("depth", PIPE_DEPTH),
        ("serial_sim_ops_per_sec", rate(1)),
        ("piped_sim_ops_per_sec", rate(PIPE_DEPTH)),
    ])
}

/// Recovery cell: a sleeper catches up after a small edit to each of a
/// few big files, fetching each stale object whole.
fn measure_recovery() -> Rows {
    let edit = |i: u32| vec![0xE0 | (i as u8 & 0x0F); RECOVERY_EDIT_BYTES];
    let c = measure_catch_up(RECOVERY_SEED, RECOVERY_LIVE, RECOVERY_STALE, edit);
    let mut whole = counts([
        ("fetched_objects", c.fetched_objects),
        ("fetched_bytes", c.fetched_bytes),
        ("meta_queries", c.meta_queries),
        ("retransmissions", c.retransmissions),
        ("corrupt_replies", c.corrupt_replies),
        ("fetch_ms", c.fetch_ms),
    ]);
    whole.push(("root".into(), Value::Text(c.root)));
    let mut rows = counts([
        ("live_files", u64::from(RECOVERY_LIVE)),
        ("stale_files", u64::from(RECOVERY_STALE)),
        ("edit_bytes", RECOVERY_EDIT_BYTES as u64),
    ]);
    rows.push(("whole".into(), Value::Group(whole)));
    rows
}

/// Shard-scaling lab: the E14 cells, then each cell's disjoint-workload
/// speedup over one shard, in thousandths.
fn measure_shards_section() -> Rows {
    let mut rows = Vec::new();
    let mut disjoint_rates = Vec::new();
    for k in SHARD_CELLS {
        let disjoint = measure_shards(k, false);
        let mixed = measure_shards(k, true);
        rows.push((format!("disjoint_{k}"), disjoint.sim_ops_per_sec));
        rows.push((format!("mixed_{k}"), mixed.sim_ops_per_sec));
        rows.push((format!("cross_aborts_{k}"), mixed.cross_aborts));
        disjoint_rates.push(disjoint.sim_ops_per_sec);
    }
    for (k, rate) in SHARD_CELLS.iter().zip(&disjoint_rates).skip(1) {
        let speedup = (*rate as f64 / disjoint_rates[0] as f64 * 1000.0).round() as u64;
        rows.push((format!("speedup_milli_{k}"), speedup));
    }
    counts(rows)
}

/// Everything the lab measured: named sections of deterministic counts, in
/// a fixed order.
pub struct BenchReport {
    sections: Vec<(&'static str, Rows)>,
}

/// Runs every section of the lab.
pub fn measure() -> BenchReport {
    // E9 batching throughput.
    let e9 = measure_throughput(E9_CLIENTS, E9_OPS_PER_CLIENT, E9_VALUE_BYTES);

    // Chaos campaign.
    let mut counter = ServiceCampaign::new(4, CounterWorkload::default());
    let cfg = counter.gen_config(5, SimDuration::from_secs(6));
    let report = run_campaign(&mut counter, CampaignMode::Mixed, &cfg, CAMPAIGN_SEEDS);

    // ddmin over the fixed decoy schedule (known failing: three crashes
    // exceed the threshold of two). Every probe builds and runs the full
    // PBFT counter group, so the search cost is the realistic one, while
    // the crash count keeps the search shape deterministic.
    let schedule = ddmin_schedule();
    let mut h =
        CrashThreshold { inner: ServiceCampaign::new(4, CounterWorkload::default()), threshold: 2 };
    let (outcome, verdict) = base_simnet::chaos::run_one(&mut h, 42, &schedule);
    assert!(verdict.is_err(), "ddmin bench schedule must fail its audit");
    let dd = ddmin_from_failure(&mut h, 42, &schedule, Some(&outcome));

    let sections = vec![
        (
            "e9",
            counts([
                ("clients", E9_CLIENTS as u64),
                ("ops", e9.ops),
                ("sim_ops_per_sec", sim_ops_per_sec(&e9)),
                ("p50_latency_ns", e9.p50_latency_ns),
                ("p99_latency_ns", e9.p99_latency_ns),
            ]),
        ),
        (
            "campaign",
            counts([
                ("runs", report.runs as u64),
                ("failures", report.failures.len() as u64),
            ]),
        ),
        (
            "ddmin",
            counts([
                ("executions", dd.metrics.counter("ddmin.executions")),
                ("subset_tests", dd.metrics.counter("ddmin.subset_tests")),
                ("minimal_len", dd.schedule.len() as u64),
            ]),
        ),
        ("checkpoint", measure_checkpoint()),
        ("transfer", measure_transfer()),
        ("pipeline", measure_pipeline()),
        ("recovery", measure_recovery()),
        ("shards", measure_shards_section()),
    ];
    BenchReport { sections }
}

impl BenchReport {
    /// The report as one line of JSON, sections in a fixed order, stamped
    /// `baseline` like the snapshot that pins it.
    pub fn to_json(&self) -> String {
        let sections: String = self
            .sections
            .iter()
            .map(|(name, rows)| format!(",\"{name}\":{}", json_object(rows)))
            .collect();
        format!("{{\"stamp\":\"baseline\"{sections}}}")
    }

    /// Prints the report as a table, one `section: key=value …` line per
    /// section, keyed as in the JSON.
    pub fn print_table(&self) {
        println!("== bench lab ==");
        for (name, rows) in &self.sections {
            let mut out = Vec::new();
            pairs("", rows, &mut out);
            println!("{name}: {}", out.join(" "));
        }
    }
}
