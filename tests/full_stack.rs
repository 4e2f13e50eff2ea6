//! Cross-crate integration tests: the full stack (simnet → crypto → PBFT →
//! BASE → NFS wrappers over four different file systems) under adverse
//! conditions that no single crate's tests combine — view changes during a
//! file workload, lossy networks, partitions that heal, and proactive
//! recovery with heterogeneous implementations.

use base::{BaseReplica, BaseService};
use base_nfs::ops::NfsOp;
use base_nfs::relay::{run_to_completion, RelayActor, ScriptDriver};
use base_nfs::spec::Oid;
use base_nfs::{BtreeFs, FlatFs, InodeFs, LogFs, NfsServer, NfsWrapper};
use base_pbft::chaos::Group;
use base_pbft::{ByzMode, Config, Deployment, ReplicaRef, Service as _};
use base_simnet::{NetFault, NodeId, SimDuration, SimTime, Simulation};
use rand::SeedableRng;

const CAP: u64 = 1024;

type R1 = BaseReplica<NfsWrapper<FlatFs>>;
type R2 = BaseReplica<NfsWrapper<LogFs>>;
type R3 = BaseReplica<NfsWrapper<BtreeFs>>;

fn service<F: NfsServer>(fs: F) -> BaseService<NfsWrapper<F>> {
    BaseService::new(NfsWrapper::with_capacity(fs, CAP))
}

/// Four replicas, each behind the one interface that does not name its
/// file system, and the relay.
fn build(
    sim: &mut Simulation,
    script: Vec<NfsOp>,
    seed: u64,
    cfg: Config,
) -> (Vec<ReplicaRef>, NodeId) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut d = Deployment::new(cfg, 1, seed);
    d.replica(sim, service(InodeFs::new(1, &mut rng)));
    d.replica(sim, service(FlatFs::new(2, &mut rng)));
    d.replica(sim, service(LogFs::new(3, &mut rng)));
    d.replica(sim, service(BtreeFs::new(4, &mut rng)));
    for (i, r) in d.replicas.iter().enumerate() {
        sim.config_mut().set_clock_skew(r.node, SimDuration::from_millis(23 * i as u64));
    }
    let relay = d.client(sim, |cfg, keys| RelayActor::new(cfg, keys, ScriptDriver::new(script)));
    (d.replicas, relay)
}

fn small_cfg() -> Config {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 8;
    cfg.log_window = 64;
    cfg
}

fn workload(files: u32) -> Vec<NfsOp> {
    let root = Oid::ROOT;
    let mut script = vec![NfsOp::Mkdir { dir: root, name: "w".into(), mode: 0o755 }];
    let dir = Oid { index: 1, gen: 1 };
    for i in 0..files {
        script.push(NfsOp::Create { dir, name: format!("f{i}"), mode: 0o644 });
        script.push(NfsOp::Write {
            fh: Oid { index: 2 + i, gen: 1 },
            offset: 0,
            data: format!("content-{i}").into_bytes(),
        });
    }
    for i in 0..files {
        script.push(NfsOp::Read { fh: Oid { index: 2 + i, gen: 1 }, offset: 0, count: 64 });
    }
    script
}

fn roots(sim: &Simulation, replicas: &[ReplicaRef]) -> Vec<base_crypto::Digest> {
    replicas.iter().map(|r| r.get(sim).state_root()).collect()
}

#[test]
fn view_change_during_file_workload() {
    let mut sim = Simulation::new(81);
    let (replicas, relay) = build(&mut sim, workload(16), 81, small_cfg());

    // Kill the primary shortly after the workload starts: the view change
    // must happen mid-stream and the workload must still complete.
    sim.run_for(SimDuration::from_millis(5));
    sim.crash_forever(replicas[0].node);

    let ok = run_to_completion(
        &mut sim,
        |s| s.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap().done(),
        SimDuration::from_secs(60),
    );
    assert!(ok, "workload must survive the primary failure");
    let actor = sim.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap();
    assert_eq!(actor.stats.errors, 0);
    // The three survivors agree.
    let r = roots(&sim, &replicas);
    assert_eq!(r[1], r[2]);
    assert_eq!(r[1], r[3]);
    assert!(sim.actor_as::<R1>(replicas[1].node).unwrap().view() >= 1, "view must have changed");
}

#[test]
fn lossy_network_full_stack() {
    // 3% of all messages are lost for the first two minutes.
    let lossy_until = SimTime::from_secs(120);
    let mut sim = Simulation::new(82);
    sim.add_fault(NetFault::Drop { prob: 0.03 }, SimTime::ZERO, lossy_until);
    let (replicas, relay) = build(&mut sim, workload(12), 82, small_cfg());
    let ok = run_to_completion(
        &mut sim,
        |s| s.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap().done(),
        lossy_until - SimTime::ZERO,
    );
    assert!(ok, "workload must complete despite 3% message loss");
    sim.run_until(lossy_until + SimDuration::from_secs(30));
    let r = roots(&sim, &replicas);
    assert!(r.iter().all(|d| *d == r[0]), "replicas diverged: {r:?}");
}

#[test]
fn partition_heals_and_group_catches_up() {
    let mut sim = Simulation::new(83);
    let (replicas, relay) = build(&mut sim, workload(20), 83, small_cfg());

    // Partition one backup away mid-run for a minute; the other three
    // keep going.
    let (cut, healed) = (SimTime::from_millis(20), SimTime::from_secs(60));
    sim.add_fault(NetFault::Partition { nodes: vec![replicas[3].node] }, cut, healed);
    sim.run_until(cut);
    let ok = run_to_completion(
        &mut sim,
        |s| s.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap().done(),
        healed - cut,
    );
    assert!(ok, "three connected replicas suffice");

    // Heal: the isolated replica must catch up via state transfer.
    sim.run_until(healed + SimDuration::from_secs(30));
    let r = roots(&sim, &replicas);
    assert!(r.iter().all(|d| *d == r[0]), "healed replica diverged: {r:?}");
    assert!(
        sim.actor_as::<R3>(replicas[3].node).unwrap().stats.state_transfers >= 1,
        "the partitioned replica must have state-transferred"
    );
}

#[test]
fn proactive_recovery_with_heterogeneous_implementations() {
    let mut cfg = small_cfg();
    cfg.recovery_period = Some(SimDuration::from_secs(10));
    cfg.reboot_time = SimDuration::from_millis(200);
    let mut sim = Simulation::new(84);
    let (replicas, relay) = build(&mut sim, workload(16), 84, cfg);

    let ok = run_to_completion(
        &mut sim,
        |s| s.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap().done(),
        SimDuration::from_secs(60),
    );
    assert!(ok);
    // A full rotation: every implementation is rebuilt from the abstract
    // state through its own inverse abstraction function.
    sim.run_for(SimDuration::from_secs(15));
    let recoveries: u64 = replicas.iter().map(|r| r.get(&sim).stats().recoveries).sum();
    assert!(recoveries >= 4, "every replica should have recovered, saw {recoveries}");
    let r = roots(&sim, &replicas);
    assert!(r.iter().all(|d| *d == r[0]), "post-recovery divergence: {r:?}");
    // The rebuilt concrete states answer reads correctly.
    let w = sim.actor_as::<R2>(replicas[2].node).unwrap().service().wrapper();
    assert!(w.allocated() >= 17, "objects restored: {}", w.allocated());
}

#[test]
fn deterministic_end_to_end() {
    let run = |seed: u64| {
        let mut sim = Simulation::new(seed);
        let (replicas, relay) = build(&mut sim, workload(10), seed, small_cfg());
        run_to_completion(
            &mut sim,
            |s| s.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap().done(),
            SimDuration::from_secs(60),
        );
        (roots(&sim, &replicas), sim.stats().messages_delivered, sim.stats().bytes_delivered)
    };
    assert_eq!(run(4242), run(4242), "same seed must give identical histories");
}

/// Everything [`base_pbft::ReplicaControl`] reads, as owned values.
#[derive(Debug, PartialEq)]
struct Snapshot {
    view: u64,
    byzantine: ByzMode,
    stable_seq: u64,
    stable_digest: Option<base_crypto::Digest>,
    checkpoint_digests: Vec<(u64, base_crypto::Digest)>,
    /// The relay's cached reply at every timestamp it used.
    cached_replies: Vec<Option<Vec<u8>>>,
    state_root: base_crypto::Digest,
    stats: String,
    metrics: base_simnet::MetricsRegistry,
}

const RELAY_ID: u32 = 4;

fn typed_snapshot<F: NfsServer>(sim: &Simulation, node: NodeId, ops: u64) -> Snapshot {
    let r = sim.actor_as::<BaseReplica<NfsWrapper<F>>>(node).unwrap();
    Snapshot {
        view: r.view(),
        byzantine: r.byzantine(),
        stable_seq: r.stable_seq(),
        stable_digest: r.stable_digest(),
        checkpoint_digests: r.checkpoint_digests(),
        cached_replies: (1..=ops)
            .map(|ts| r.cached_reply(RELAY_ID, ts).map(<[u8]>::to_vec))
            .collect(),
        state_root: r.service().current_tree().root_digest(),
        stats: format!("{:?}", r.stats),
        metrics: r.metrics.clone(),
    }
}

/// A `Group` over four replicas of four different types answers every
/// accessor with what the typed downcast answers, and its switches reach
/// the replica they name.
#[test]
fn group_handles_agree_with_typed_downcasts() {
    let script = workload(16);
    let ops = script.len() as u64;
    let mut cfg = small_cfg();
    cfg.reboot_time = SimDuration::from_millis(200);
    let mut sim = Simulation::new(85);
    let (replicas, relay) = build(&mut sim, script, 85, cfg);
    let group = Group::new(&mut sim, replicas.clone());
    let ok = run_to_completion(
        &mut sim,
        |s| s.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap().done(),
        SimDuration::from_secs(60),
    );
    assert!(ok);

    let typed = [
        typed_snapshot::<InodeFs>(&sim, replicas[0].node, ops),
        typed_snapshot::<FlatFs>(&sim, replicas[1].node, ops),
        typed_snapshot::<LogFs>(&sim, replicas[2].node, ops),
        typed_snapshot::<BtreeFs>(&sim, replicas[3].node, ops),
    ];
    for ((node, r), typed) in group.members(&sim).into_iter().zip(&typed) {
        let through_handle = Snapshot {
            view: r.view(),
            byzantine: r.byzantine(),
            stable_seq: r.stable_seq(),
            stable_digest: r.stable_digest(),
            checkpoint_digests: r.checkpoint_digests(),
            cached_replies: (1..=ops)
                .map(|ts| r.cached_reply(RELAY_ID, ts).map(<[u8]>::to_vec))
                .collect(),
            state_root: r.state_root(),
            stats: format!("{:?}", r.stats()),
            metrics: r.metrics().clone(),
        };
        assert_eq!(&through_handle, typed, "replica {}", node.0);
        // The comparison is not between two empty snapshots.
        assert!(typed.stable_seq > 0 && typed.stable_digest.is_some());
        assert!(!typed.checkpoint_digests.is_empty());
        assert!(typed.cached_replies.iter().any(Option::is_some));
    }

    // The mutators, observed through the concrete types.
    group.replicas[1].get_mut(&mut sim).set_byzantine(ByzMode::Mute);
    assert_eq!(sim.actor_as::<R1>(replicas[1].node).unwrap().byzantine(), ByzMode::Mute);
    group.replicas[1].get_mut(&mut sim).set_byzantine(ByzMode::Honest);
    group.replicas[2].get_mut(&mut sim).corrupt_service_state(7);
    assert_eq!(sim.actor_as::<R2>(replicas[2].node).unwrap().byzantine(), ByzMode::CorruptState);
    group.replicas[2].get_mut(&mut sim).trigger_recovery();
    sim.run_for(SimDuration::from_secs(10));
    let repaired = sim.actor_as::<R2>(replicas[2].node).unwrap();
    assert_eq!(repaired.stats.recoveries, 1, "the triggered recovery ran");
    // The recovery's state transfer replaced the corrupted objects, which
    // clears the mark.
    assert_eq!(repaired.byzantine(), ByzMode::Honest);
    let r = roots(&sim, &replicas);
    assert!(r.iter().all(|d| *d == r[0]), "post-repair divergence: {r:?}");
}
