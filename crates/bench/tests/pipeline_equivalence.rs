//! Equivalence suite for the agreement/execution pipeline: every service
//! (counter, KV, NFS, OODB) runs the same seeded workload at pipeline
//! depth `max_inflight ∈ {1, 4}` and the results are compared against the
//! serial oracle (`max_inflight = 1`).
//!
//! What is asserted where:
//!
//! - **Cross-depth byte-identity holds for the counter.** Its workload is
//!   order-insensitive (per-client disjoint registers, no agreed
//!   nondeterminism folded into state), so deeper pipelining may reorder
//!   agreement across clients without changing any reply or root.
//! - **KV, NFS and OODB fold agreed timestamps into abstract state**
//!   (`mtime`, `mtime_ns`, `last_nondet`), and batching differs with
//!   depth, so cross-depth runs assert the semantic invariants instead:
//!   liveness (every op completes), cross-replica root agreement, and
//!   rerun determinism of each cell.
//! - **Chaos cells:** one generated fault schedule replayed twice at
//!   depth 4 must yield identical run traces and a passing audit.
//!
//! Deleted with the worker pool (`Config` no longer has a worker count,
//! the executor is one loop on the calling thread): every assertion of the
//! form "worker count ∈ {2, 8} produces the run that worker count 1
//! produces" — the `-w{2,8}-vs-oracle` and `-w{2,8}-timing` counter cells,
//! the `-w{2,8}` cells of KV, NFS and OODB at each depth, and the
//! `chaos-{counter,nfs}-w{2,8}` cells. Each compared two runs that are now
//! the same call with the same arguments, which the `-rerun` cells already
//! compare; no behaviour is left that they alone checked.
//!
//! On divergence both fingerprints are written under
//! `target/tmp/equivalence/` (CI uploads the directory as an artifact)
//! before the assertion fires.

use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, BaseReplica, BaseService, Config};
use base_bench::experiments::faultinj::NfsWorkload;
use base_bench::setup::{build_replicated_nfs, set_relay_pace, FsMix};
use base_nfs::ops::NfsOp;
use base_nfs::relay::{RelayActor, ScriptDriver};
use base_nfs::spec::Oid as NfsOid;
use base_oodb::{ObjStore, Oid, OodbOp, OodbReply, OodbWrapper};
use base_pbft::chaos::{CounterWorkload, ServiceCampaign};
use base_pbft::testing::{op_add, op_get, CounterService};
use base_pbft::{ClientActor, Deployment, Replica, Service as _};
use base_simnet::chaos::{generate_schedule, run_one};
use base_simnet::{SimDuration, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DEPTHS: [u64; 2] = [1, 4];

/// A run's observable outcome, split by what may legitimately vary.
struct Fingerprint {
    /// Timing-independent: client replies in completion order and
    /// per-replica abstract-state roots.
    core: Vec<String>,
    /// Timing-sensitive: latencies, execution/checkpoint progress.
    /// Batching-dependent across depths.
    timing: Vec<String>,
}

impl Fingerprint {
    fn full(&self) -> Vec<String> {
        let mut all = self.core.clone();
        all.extend(self.timing.iter().cloned());
        all
    }
}

/// Asserts two fingerprints are identical; on divergence writes both to
/// `target/tmp/equivalence/<cell>.{want,got}` so CI can upload the diff.
fn assert_fp_eq(cell: &str, want: &[String], got: &[String]) {
    if want == got {
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("equivalence");
    std::fs::create_dir_all(&dir).expect("create equivalence dir");
    std::fs::write(dir.join(format!("{cell}.want")), want.join("\n")).expect("write want");
    std::fs::write(dir.join(format!("{cell}.got")), got.join("\n")).expect("write got");
    let first = want
        .iter()
        .zip(got.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| want.len().min(got.len()));
    panic!(
        "equivalence cell `{cell}` diverged at line {first} \
         (want {} lines, got {}):\n  want: {}\n  got:  {}\n\
         full fingerprints written to {}",
        want.len(),
        got.len(),
        want.get(first).map(String::as_str).unwrap_or("<end>"),
        got.get(first).map(String::as_str).unwrap_or("<end>"),
        dir.display(),
    );
}

fn grid_config(n: usize, depth: u64) -> Config {
    let mut cfg = Config::new(n);
    cfg.checkpoint_interval = 4;
    cfg.log_window = 32;
    cfg.max_inflight = depth;
    cfg
}

// ---------------------------------------------------------------------------
// Counter: order-insensitive workload, full cross-depth identity.
// ---------------------------------------------------------------------------

fn run_counter(depth: u64) -> Fingerprint {
    const SEED: u64 = 4242;
    const OPS: usize = 12;
    let mut sim = Simulation::new(SEED);
    let cfg = grid_config(4, depth);
    let g = Deployment::build(&mut sim, cfg, 2, SEED, |_| CounterService::default());
    for (i, &c) in g.clients.iter().enumerate() {
        let client = sim.actor_as_mut::<ClientActor>(c).expect("client");
        // Client i owns registers 8i..8i+6: no register is shared, so the
        // final state and every reply are independent of how agreement
        // interleaves the two clients.
        let base = (i as u64) * 8;
        for j in 0..OPS as u64 {
            if j % 4 == 3 {
                // Read back a register this client already wrote; the
                // client serializes its ops, so the value is fixed.
                client.invoke(op_get(base + (j - 1) % 6), true);
            } else {
                client.invoke(op_add(base + j % 6, j + 1), false);
            }
        }
    }
    sim.run_for(SimDuration::from_secs(20));

    let mut fp = Fingerprint { core: Vec::new(), timing: Vec::new() };
    for (i, &c) in g.clients.iter().enumerate() {
        let client = sim.actor_as::<ClientActor>(c).expect("client");
        assert_eq!(
            client.completed.len(),
            OPS,
            "liveness: counter client {i} stalled at depth={depth}"
        );
        for (ts, result) in &client.completed {
            fp.core.push(format!("client {i} ts={ts} -> {}", String::from_utf8_lossy(result)));
        }
        fp.timing.push(format!("client {i} latencies={:?}", client.core().latencies_ns));
    }
    for (i, r) in g.replicas.iter().enumerate() {
        let rep = sim.actor_as::<Replica<CounterService>>(r.node).expect("replica");
        fp.core.push(format!("replica {i} root={}", rep.service().current_tree().root_digest()));
        fp.timing
            .push(format!("replica {i} last_exec={} stable={}", rep.last_exec(), rep.stable_seq()));
    }
    fp
}

#[test]
fn counter_grid_matches_serial_oracle() {
    let oracle = run_counter(1);
    let rerun = run_counter(1);
    assert_fp_eq("counter-rerun", &oracle.full(), &rerun.full());
    for depth in DEPTHS {
        // Cross-depth: replies and roots must match the serial oracle
        // byte for byte.
        let cell = run_counter(depth);
        assert_fp_eq(&format!("counter-d{depth}-vs-oracle"), &oracle.core, &cell.core);
    }
}

// ---------------------------------------------------------------------------
// KV: agreed timestamps land in `mtime`, so depth changes the abstract
// history.
// ---------------------------------------------------------------------------

type KvReplica = BaseReplica<KvWrapper>;

fn run_kv(depth: u64) -> Fingerprint {
    const SEED: u64 = 909;
    const OPS: usize = 10;
    let cfg = grid_config(4, depth);
    let mut sim = Simulation::new(SEED);
    let d = Deployment::build(&mut sim, cfg, 2, SEED, |_| {
        BaseService::new(KvWrapper::new(TinyKv::default()))
    });
    for (i, &c) in d.clients.iter().enumerate() {
        let client = sim.actor_as_mut::<BaseClient>(c).expect("client");
        // Disjoint key spaces; each key written once before it is read.
        for j in 0..OPS {
            match j % 5 {
                3 => client.invoke(format!("get c{i}k{}", j - 2).into_bytes(), true),
                4 => client.invoke(format!("mtime c{i}k{}", j - 3).into_bytes(), false),
                _ => client.invoke(format!("put c{i}k{j} v{i}-{j}").into_bytes(), false),
            }
        }
    }
    sim.run_for(SimDuration::from_secs(20));

    let mut fp = Fingerprint { core: Vec::new(), timing: Vec::new() };
    for (i, &c) in d.clients.iter().enumerate() {
        let client = sim.actor_as::<BaseClient>(c).expect("client");
        assert_eq!(
            client.completed.len(),
            OPS,
            "liveness: kv client {i} stalled at depth={depth}"
        );
        for (ts, result) in &client.completed {
            fp.core.push(format!("client {i} ts={ts} -> {}", String::from_utf8_lossy(result)));
        }
    }
    let roots: Vec<_> = d.replicas.iter().map(|r| r.get(&sim).state_root()).collect();
    assert!(
        roots.iter().all(|r| *r == roots[0]),
        "kv replicas disagree at depth={depth}: {roots:?}"
    );
    fp.core.push(format!("root={}", roots[0]));
    for (i, r) in d.replicas.iter().enumerate() {
        let rep = sim.actor_as::<KvReplica>(r.node).expect("replica");
        fp.timing
            .push(format!("replica {i} last_exec={} stable={}", rep.last_exec(), rep.stable_seq()));
    }
    fp
}

#[test]
fn kv_grid_replays_and_agrees() {
    for depth in DEPTHS {
        let base = run_kv(depth);
        let rerun = run_kv(depth);
        assert_fp_eq(&format!("kv-d{depth}-rerun"), &base.full(), &rerun.full());
    }
}

// ---------------------------------------------------------------------------
// NFS: heterogeneous group driven by a scripted relay over the bench
// testbed; abstract mtimes come from agreed nondeterminism.
// ---------------------------------------------------------------------------

const NFS_FILES: u32 = 6;

fn nfs_script() -> Vec<NfsOp> {
    let root = NfsOid::ROOT;
    let mut s = Vec::new();
    for i in 0..NFS_FILES {
        s.push(NfsOp::Create { dir: root, name: format!("f{i}"), mode: 0o644 });
        s.push(NfsOp::Write {
            fh: NfsOid { index: 1 + i, gen: 1 },
            offset: 0,
            data: format!("payload-{i}").into_bytes(),
        });
    }
    for i in 0..NFS_FILES {
        s.push(NfsOp::Read { fh: NfsOid { index: 1 + i, gen: 1 }, offset: 0, count: 64 });
    }
    s
}

fn run_nfs(depth: u64) -> Fingerprint {
    const SEED: u64 = 777;
    let mut sim = Simulation::new(SEED);
    let bed = build_replicated_nfs(
        &mut sim,
        SEED,
        4,
        FsMix::Heterogeneous,
        ScriptDriver::new(nfs_script()),
        |cfg| {
            cfg.checkpoint_interval = 4;
            cfg.log_window = 32;
            cfg.max_inflight = depth;
        },
    );
    set_relay_pace::<ScriptDriver>(&mut sim, bed.clients[0], SimDuration::from_millis(20));
    sim.run_for(SimDuration::from_secs(20));

    let relay = sim.actor_as::<RelayActor<ScriptDriver>>(bed.clients[0]).expect("relay");
    assert!(
        relay.done(),
        "liveness: nfs workload stalled after {} ops at depth={depth}",
        relay.stats.ops
    );
    let mut fp = Fingerprint { core: Vec::new(), timing: Vec::new() };
    for (i, r) in relay.driver().replies.iter().enumerate() {
        fp.core.push(format!("op {i} -> {r:?}"));
    }
    fp.core.push(format!("ops={} errors={}", relay.stats.ops, relay.stats.errors));
    let roots: Vec<_> = bed.replicas.iter().map(|r| r.get(&sim).state_root()).collect();
    assert!(
        roots.iter().all(|r| *r == roots[0]),
        "nfs replicas disagree at depth={depth}: {roots:?}"
    );
    fp.core.push(format!("root={}", roots[0]));
    fp.timing.push(format!("latencies={:?}", relay.stats.latencies_ns));
    fp
}

#[test]
fn nfs_grid_replays_and_agrees() {
    for depth in DEPTHS {
        let base = run_nfs(depth);
        let rerun = run_nfs(depth);
        assert_fp_eq(&format!("nfs-d{depth}-rerun"), &base.full(), &rerun.full());
    }
}

// ---------------------------------------------------------------------------
// OODB: concrete heaps differ per replica by construction; the abstract
// state (which folds the allocation clock and `last_nondet`) must agree.
// ---------------------------------------------------------------------------

type OodbReplica = BaseReplica<OodbWrapper>;

const OODB_OBJS: u32 = 6;

fn oodb_oid(index: u32) -> Oid {
    // Fresh allocations on an empty store take indices 0,1,2,... with
    // generation 1.
    Oid { index, gen: 1 }
}

fn run_oodb(depth: u64) -> Fingerprint {
    const SEED: u64 = 515;
    let cfg = grid_config(4, depth);
    let mut sim = Simulation::new(SEED);
    let d = Deployment::build(&mut sim, cfg, 1, SEED, |i| {
        // Per-replica store RNGs differ on purpose: concrete heaps diverge
        // while the abstract state stays identical.
        let mut rng = StdRng::seed_from_u64(SEED ^ (0xb0de ^ i as u64).rotate_left(17));
        BaseService::new(OodbWrapper::new(ObjStore::new(&mut rng)))
    });
    let client_node = d.clients[0];
    {
        // A single serialized mutator: allocate a chain, write each
        // object's first field, link them, then read everything back.
        let client = sim.actor_as_mut::<BaseClient>(client_node).expect("client");
        for _ in 0..OODB_OBJS {
            client.invoke(OodbOp::New.to_bytes(), false);
        }
        for j in 0..OODB_OBJS {
            let op = OodbOp::Put {
                oid: oodb_oid(j),
                field: 0,
                data: format!("field-{j}").into_bytes(),
            };
            client.invoke(op.to_bytes(), false);
        }
        for j in 0..OODB_OBJS - 1 {
            let op =
                OodbOp::SetRef { from: oodb_oid(j), slot: 0, to: Some(oodb_oid(j + 1)) };
            client.invoke(op.to_bytes(), false);
        }
        client.invoke(OodbOp::Traverse { root: oodb_oid(0), depth: 16 }.to_bytes(), true);
        for j in 0..OODB_OBJS {
            client.invoke(OodbOp::Get { oid: oodb_oid(j), field: 0 }.to_bytes(), true);
        }
    }
    let total = (3 * OODB_OBJS) as usize + OODB_OBJS as usize; // new+put+get, setref+traverse
    sim.run_for(SimDuration::from_secs(20));

    let mut fp = Fingerprint { core: Vec::new(), timing: Vec::new() };
    let client = sim.actor_as::<BaseClient>(client_node).expect("client");
    assert_eq!(
        client.completed.len(),
        total,
        "liveness: oodb mutator stalled at depth={depth}"
    );
    for (ts, result) in &client.completed {
        let reply = OodbReply::from_bytes(result);
        fp.core.push(format!("ts={ts} -> {reply:?}"));
    }
    let roots: Vec<_> = d.replicas.iter().map(|r| r.get(&sim).state_root()).collect();
    assert!(
        roots.iter().all(|r| *r == roots[0]),
        "oodb replicas disagree at depth={depth}: {roots:?}"
    );
    fp.core.push(format!("root={}", roots[0]));
    for (i, r) in d.replicas.iter().enumerate() {
        let rep = sim.actor_as::<OodbReplica>(r.node).expect("replica");
        fp.timing
            .push(format!("replica {i} last_exec={} stable={}", rep.last_exec(), rep.stable_seq()));
    }
    fp
}

#[test]
fn oodb_grid_replays_and_agrees() {
    for depth in DEPTHS {
        let base = run_oodb(depth);
        let rerun = run_oodb(depth);
        assert_fp_eq(&format!("oodb-d{depth}-rerun"), &base.full(), &rerun.full());
    }
}

// ---------------------------------------------------------------------------
// Chaos cells: one generated schedule replayed twice at depth 4.
// ---------------------------------------------------------------------------

/// The sanctioned replies/traces of one audited chaos run. Per-node stats
/// maps are rendered in sorted order (HashMap iteration order is not part
/// of the run's behavior).
fn chaos_fp(trace: &[String], stats: &base_simnet::NetStats) -> Vec<String> {
    let mut fp: Vec<String> = trace.to_vec();
    fp.push(format!(
        "net sent={} delivered={} dropped={} bytes_sent={} bytes_delivered={}",
        stats.messages_sent,
        stats.messages_delivered,
        stats.messages_dropped,
        stats.bytes_sent,
        stats.bytes_delivered
    ));
    let mut by: Vec<_> = stats.bytes_sent_by.iter().map(|(n, b)| (n.0, *b)).collect();
    by.sort_unstable();
    fp.push(format!("bytes_sent_by={by:?}"));
    let mut to: Vec<_> = stats.bytes_delivered_to.iter().map(|(n, b)| (n.0, *b)).collect();
    to.sort_unstable();
    fp.push(format!("bytes_delivered_to={to:?}"));
    let mut cpu: Vec<_> = stats.cpu_by.iter().map(|(n, c)| (n.0, format!("{c:?}"))).collect();
    cpu.sort_unstable();
    fp.push(format!("cpu_by={cpu:?}"));
    fp
}

/// Replays `schedule` twice on fresh depth-4 harnesses from `harness`:
/// both runs must pass their audit and leave identical fingerprints.
fn assert_chaos_cell_replays<H: base_simnet::chaos::ChaosHarness>(
    cell: &str,
    harness: impl Fn() -> H,
    seed: u64,
    schedule: &base_simnet::chaos::FaultSchedule,
) {
    let run = || {
        let (outcome, verdict) = run_one(&mut harness(), seed, schedule);
        if let Err(e) = verdict {
            panic!("chaos cell `{cell}` failed its audit:\n{e}");
        }
        chaos_fp(&outcome.trace, &outcome.stats)
    };
    assert_fp_eq(cell, &run(), &run());
}

#[test]
fn chaos_counter_run_at_depth_4_replays_and_audits() {
    let harness = || {
        let mut h = ServiceCampaign::new(4, CounterWorkload::default());
        h.cfg.max_inflight = 4;
        h
    };
    let schedule = generate_schedule(&harness().gen_config(6, SimDuration::from_secs(8)), 0xC0FFEE);
    assert_chaos_cell_replays("chaos-counter-rerun", harness, 4141, &schedule);
}

#[test]
fn chaos_nfs_run_at_depth_4_replays_and_audits() {
    let harness = || {
        let workload = NfsWorkload { mix: FsMix::Heterogeneous, with_latent_bug: false };
        let mut h = ServiceCampaign::new(4, workload);
        h.cfg.max_inflight = 4;
        h
    };
    let schedule = generate_schedule(&harness().gen_config(5, SimDuration::from_secs(6)), 0xBEEF);
    assert_chaos_cell_replays("chaos-nfs-rerun", harness, 9090, &schedule);
}
