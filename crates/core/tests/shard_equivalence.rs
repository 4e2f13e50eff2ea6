//! Tier-1 sharding equivalence gate.
//!
//! A `shards = 1` sharded deployment must be **byte-identical** to the
//! unsharded deployment it generalizes: same replies in the same order,
//! same client-observed latencies (virtual-time identity), same replica
//! state roots and protocol progress. Shard 0 keeps the untagged wire
//! encoding, the default node layout, the default key-directory seed and
//! the default retransmission-timer token, so the two simulations must
//! produce the same event schedule tick for tick — any divergence means
//! the sharding layer leaked into the unsharded fast path.
//!
//! On divergence both fingerprints are written under
//! `target/tmp/equivalence/` (CI uploads the directory as an artifact)
//! before the assertion fires.

use base::demo::{kv_footprint, KvWrapper, TinyKv};
use base::shard::{build_sharded_group, ShardLockService, ShardMap, ShardedClient, ShardedGroup};
use base::{BaseClient, BaseReplica, BaseService, Config};
use base_crypto::{Authenticator, Digest, NodeKeys};
use base_pbft::{Deployment, Replica, Service as _};
use base_simnet::{SimDuration, Simulation};

type KvReplica = BaseReplica<KvWrapper>;
type ShardedKvService = ShardLockService<BaseService<KvWrapper>>;
type ShardedKvReplica = Replica<ShardedKvService>;

const SEED: u64 = 20_260_809;
const N: usize = 4;
const CLIENTS: usize = 2;
const OPS: usize = 14;

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
        "sharding equivalence cell `{cell}` diverged at line {first} \
         (want {} lines, got {}):\n  want: {}\n  got:  {}\n\
         full fingerprints written to {}",
        want.len(),
        got.len(),
        want.get(first).map(String::as_str).unwrap_or("<end>"),
        got.get(first).map(String::as_str).unwrap_or("<end>"),
        dir.display(),
    );
}

fn gate_config() -> Config {
    let mut cfg = Config::new(N);
    // Small checkpoint interval so the gate also covers checkpoint and
    // garbage-collection traffic, not just the request/reply fast path.
    cfg.checkpoint_interval = 4;
    cfg.log_window = 32;
    cfg
}

/// The shared workload: per-client disjoint keys, writes before reads,
/// some read-only operations for the fast path.
fn workload(client: usize) -> Vec<(Vec<u8>, bool)> {
    (0..OPS)
        .map(|j| match j % 5 {
            3 => (format!("get c{client}k{}", j - 2).into_bytes(), true),
            4 => (format!("mtime c{client}k{}", j - 3).into_bytes(), false),
            _ => (format!("put c{client}k{j} v{client}-{j}").into_bytes(), false),
        })
        .collect()
}

fn run_unsharded() -> (Vec<String>, Deployment) {
    let cfg = gate_config();
    let mut sim = Simulation::new(SEED);
    let d = Deployment::build(&mut sim, cfg, CLIENTS, SEED, |_| {
        BaseService::new(KvWrapper::new(TinyKv::default()))
    });
    for (i, &c) in d.clients.iter().enumerate() {
        let client = sim.actor_as_mut::<BaseClient>(c).expect("client");
        for (op, ro) in workload(i) {
            client.invoke(op, ro);
        }
    }
    sim.run_for(SimDuration::from_secs(20));

    let mut fp = Vec::new();
    for (i, &c) in d.clients.iter().enumerate() {
        let client = sim.actor_as::<BaseClient>(c).expect("client");
        assert_eq!(client.completed.len(), OPS, "liveness: unsharded client {i}");
        for (ts, result) in &client.completed {
            fp.push(format!("client {i} ts={ts} -> {}", String::from_utf8_lossy(result)));
        }
        fp.push(format!("client {i} latencies={:?}", client.core().latencies_ns));
    }
    for (i, r) in d.replicas.iter().enumerate() {
        let rep = sim.actor_as::<KvReplica>(r.node).expect("replica");
        fp.push(format!("replica {i} root={}", rep.service().current_tree().root_digest()));
        fp.push(format!("replica {i} last_exec={} stable={}", rep.last_exec(), rep.stable_seq()));
    }
    (fp, d)
}

fn run_sharded_single() -> (Vec<String>, ShardedGroup) {
    let mut sim = Simulation::new(SEED);
    let map = ShardMap::new(base::demo::N_SLOTS, 1);
    let group = build_sharded_group(
        &mut sim,
        gate_config(),
        map,
        CLIENTS,
        SEED,
        kv_footprint,
        |_, _| ShardLockService::new(BaseService::new(KvWrapper::new(TinyKv::default())), kv_footprint),
    );
    for (i, &c) in group.clients.iter().enumerate() {
        let router = sim.actor_as_mut::<ShardedClient>(c).expect("router");
        for (op, ro) in workload(i) {
            router.invoke(op, ro);
        }
    }
    sim.run_for(SimDuration::from_secs(20));

    let mut fp = Vec::new();
    for (i, &c) in group.clients.iter().enumerate() {
        let router = sim.actor_as::<ShardedClient>(c).expect("router");
        assert_eq!(router.completed.len(), OPS, "liveness: sharded client {i}");
        for (job, result) in &router.completed {
            fp.push(format!("client {i} ts={job} -> {}", String::from_utf8_lossy(result)));
        }
        fp.push(format!("client {i} latencies={:?}", router.core(0).latencies_ns));
    }
    for (i, &r) in group.replicas[0].iter().enumerate() {
        let rep = sim.actor_as::<ShardedKvReplica>(r).expect("replica");
        fp.push(format!("replica {i} root={}", rep.service().current_tree().root_digest()));
        fp.push(format!("replica {i} last_exec={} stable={}", rep.last_exec(), rep.stable_seq()));
    }
    (fp, group)
}

/// The gate itself: `shards = 1` is the unsharded deployment, byte for
/// byte — replies, latencies, roots and protocol progress all identical.
/// The two also lay out the same nodes and mint the same keys: every key
/// id of the two directories gives the same authenticator over a fixed
/// digest.
#[test]
fn one_shard_is_byte_identical_to_unsharded() {
    let (oracle, d) = run_unsharded();
    let (sharded, group) = run_sharded_single();
    assert_fp_eq("shard1-vs-unsharded", &oracle, &sharded);

    let nodes: Vec<_> = d.replicas.iter().map(|r| r.node).collect();
    assert_eq!(group.replicas, [nodes]);
    assert_eq!(group.clients, d.clients);
    let digest = Digest::of(b"one layout rule");
    let ids = d.dir.node_count();
    assert_eq!(group.dirs[0].node_count(), ids);
    for id in 0..ids {
        let tags = |dir| Authenticator::generate(&NodeKeys::new(dir, id), ids, &digest);
        assert_eq!(tags(group.dirs[0].clone()), tags(d.dir.clone()), "key id {id}");
    }
}

/// Rerun determinism of the sharded deployment at `shards = 2`: the whole
/// multi-group simulation (both groups plus routers) is one deterministic
/// event schedule.
#[test]
fn two_shard_run_is_deterministic() {
    let run = |_: u32| -> Vec<String> {
        let mut sim = Simulation::new(SEED ^ 7);
        let map = ShardMap::new(base::demo::N_SLOTS, 2);
        let group = build_sharded_group(
            &mut sim,
            gate_config(),
            map,
            CLIENTS,
            SEED ^ 7,
            kv_footprint,
            |_, _| {
                ShardLockService::new(BaseService::new(KvWrapper::new(TinyKv::default())), kv_footprint)
            },
        );
        for (i, &c) in group.clients.iter().enumerate() {
            let router = sim.actor_as_mut::<ShardedClient>(c).expect("router");
            for (op, ro) in workload(i) {
                router.invoke(op, ro);
            }
        }
        sim.run_for(SimDuration::from_secs(20));
        let mut fp = Vec::new();
        for (i, &c) in group.clients.iter().enumerate() {
            let router = sim.actor_as::<ShardedClient>(c).expect("router");
            assert_eq!(router.completed.len(), OPS, "liveness: client {i}");
            for (job, result) in &router.completed {
                fp.push(format!("client {i} job={job} -> {}", String::from_utf8_lossy(result)));
            }
            for s in 0..2 {
                fp.push(format!("client {i} s{s} latencies={:?}", router.core(s).latencies_ns));
            }
        }
        for (s, nodes) in group.replicas.iter().enumerate() {
            for (i, &r) in nodes.iter().enumerate() {
                let rep = sim.actor_as::<ShardedKvReplica>(r).expect("replica");
                fp.push(format!(
                    "s{s} replica {i} root={} last_exec={} stable={}",
                    rep.service().current_tree().root_digest(),
                    rep.last_exec(),
                    rep.stable_seq()
                ));
            }
        }
        fp
    };
    let a = run(0);
    let b = run(1);
    assert_fp_eq("shard2-rerun", &a, &b);

    // Per-shard agreement: every group's replicas converge on one root.
    for s in 0..2 {
        let roots: Vec<&String> =
            a.iter().filter(|l| l.starts_with(&format!("s{s} replica"))).collect();
        assert_eq!(roots.len(), N);
        let first_root = roots[0].split("root=").nth(1).unwrap().split(' ').next().unwrap();
        for r in &roots {
            assert!(r.contains(first_root), "shard {s} replicas disagree: {roots:?}");
        }
    }
}
