//! End-to-end tests of the BASE abstraction layer: non-deterministic
//! implementations replicated consistently, abstract state transfer,
//! software rejuvenation (clean reboots reclaiming leaks), and repair of
//! corrupt concrete state (abstraction hiding software errors).

use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, BaseReplica, BaseService, Config};
use base_pbft::{Deployment, Service as _};
use base_simnet::{SimDuration, Simulation};

type KvReplica = BaseReplica<KvWrapper>;

const CHECKPOINT_INTERVAL: u64 = 8;
const LOG_WINDOW: u64 = 32;

fn build(sim: &mut Simulation, mut cfg: Config, seed: u64, leaky: bool) -> Deployment {
    cfg.checkpoint_interval = CHECKPOINT_INTERVAL;
    cfg.log_window = LOG_WINDOW;
    let d = Deployment::build(sim, cfg, 1, seed, |_| {
        let mut kv = TinyKv::default();
        kv.leaky = leaky;
        BaseService::new(KvWrapper::new(kv))
    });
    // Give each replica a different local clock skew: their concrete
    // timestamps diverge, and the abstraction must mask it.
    for (i, r) in d.replicas.iter().enumerate() {
        sim.config_mut().set_clock_skew(r.node, SimDuration::from_millis(17 * i as u64));
    }
    d
}

fn invoke(sim: &mut Simulation, g: &Deployment, op: &[u8], ro: bool) {
    sim.actor_as_mut::<BaseClient>(g.clients[0]).unwrap().invoke(op.to_vec(), ro);
}

fn results(sim: &Simulation, g: &Deployment) -> Vec<Vec<u8>> {
    sim.actor_as::<BaseClient>(g.clients[0]).unwrap().completed.iter().map(|(_, r)| r.clone()).collect()
}

fn abstract_state_of(sim: &Simulation, g: &Deployment, i: usize) -> Vec<Option<Vec<u8>>> {
    // get_obj needs &mut; clone via actor_as_mut is not available on &sim,
    // so compare through a read-only reconstruction: encode via the
    // wrapper's kv directly is concrete. Instead use the digest tree.
    let r = sim.actor_as::<KvReplica>(g.replicas[i].node).unwrap();
    let tree = r.service().current_tree();
    (0..base::demo::N_SLOTS).map(|s| Some(tree.leaf_digest_at(s).0.to_vec())).collect()
}

#[test]
fn nondeterministic_replicas_stay_consistent() {
    let mut sim = Simulation::new(21);
    let g = build(&mut sim, Config::new(4), 21, false);
    for i in 0..20 {
        invoke(&mut sim, &g, format!("put key{i} value{i}").as_bytes(), false);
    }
    invoke(&mut sim, &g, b"get key7", true);
    sim.run_for(SimDuration::from_secs(3));

    let rs = results(&sim, &g);
    assert_eq!(rs.len(), 21);
    assert_eq!(rs[20], b"value7");

    // Internal ids diverge across replicas, but the abstract timestamps
    // (agreed through the protocol) are identical: querying mtime through
    // the replicated service returns a quorum-agreed answer.
    invoke(&mut sim, &g, b"mtime key7", true);
    sim.run_for(SimDuration::from_secs(1));
    let rs = results(&sim, &g);
    assert_eq!(rs.len(), 22);
    assert_ne!(rs[21], b"missing");
}

#[test]
fn abstract_trees_converge_after_checkpoint() {
    let mut sim = Simulation::new(22);
    let g = build(&mut sim, Config::new(4), 22, false);
    for i in 0..16 {
        invoke(&mut sim, &g, format!("put k{i} v{i}").as_bytes(), false);
    }
    sim.run_for(SimDuration::from_secs(3));
    // 16 requests with checkpoint interval 8: all replicas checkpointed
    // and their digest trees agree even though concrete states differ.
    let a = abstract_state_of(&sim, &g, 0);
    for i in 1..4 {
        assert_eq!(abstract_state_of(&sim, &g, i), a, "replica {i} diverged");
    }
    for i in 0..4 {
        let r = sim.actor_as::<KvReplica>(g.replicas[i].node).unwrap();
        assert!(r.service().stats.checkpoints >= 1);
    }
}

#[test]
fn lagging_replica_repairs_through_abstract_state() {
    let mut sim = Simulation::new(23);
    let g = build(&mut sim, Config::new(4), 23, false);

    sim.crash(g.replicas[3].node, SimDuration::from_secs(4));
    for i in 0..24 {
        invoke(&mut sim, &g, format!("put k{i} v{i}").as_bytes(), false);
    }
    sim.run_for(SimDuration::from_secs(4));
    for i in 24..30 {
        invoke(&mut sim, &g, format!("put k{i} v{i}").as_bytes(), false);
    }
    sim.run_for(SimDuration::from_secs(10));

    assert_eq!(results(&sim, &g).len(), 30);
    let r3 = sim.actor_as::<KvReplica>(g.replicas[3].node).unwrap();
    assert!(r3.stats.state_transfers >= 1);
    // Its concrete implementation now holds every key, installed through
    // put_objs (the inverse abstraction function).
    assert_eq!(r3.service().wrapper().kv().get("k0"), Some(&b"v0"[..]));
    assert_eq!(abstract_state_of(&sim, &g, 3), abstract_state_of(&sim, &g, 0));
}

/// A replica keeps at most `log_window / checkpoint_interval + 1`
/// checkpoints, crashed behind the group or not: the bound that keeps
/// `BaseService::checkpoint_object`'s scan over its reverse-delta records
/// short. Checked after every simulation event.
#[test]
fn retained_checkpoints_stay_within_the_log_window() {
    let bound = (LOG_WINDOW / CHECKPOINT_INTERVAL + 1) as usize;
    let mut sim = Simulation::new(24);
    let g = build(&mut sim, Config::new(4), 24, false);
    let mut peak = vec![0; g.replicas.len()];
    let mut run_checked = |sim: &mut Simulation, span: SimDuration| {
        let until = sim.now() + span;
        while sim.now() < until && sim.step() {
            for (i, r) in g.replicas.iter().enumerate() {
                let kept = sim.actor_as::<KvReplica>(r.node).unwrap().checkpoint_digests().len();
                assert!(kept <= bound, "replica {i} keeps {kept} checkpoints, bound {bound}");
                peak[i] = peak[i].max(kept);
            }
        }
    };

    // Five checkpoint intervals with replica 3 down, then five more once
    // it is back and has caught up by state transfer.
    sim.crash_forever(g.replicas[3].node);
    for i in 0..40 {
        invoke(&mut sim, &g, format!("put k{i} v{i}").as_bytes(), false);
        run_checked(&mut sim, SimDuration::from_millis(100));
    }
    sim.restore(g.replicas[3].node);
    for i in 40..80 {
        invoke(&mut sim, &g, format!("put k{i} v{i}").as_bytes(), false);
        run_checked(&mut sim, SimDuration::from_millis(100));
    }
    run_checked(&mut sim, SimDuration::from_secs(5));

    assert_eq!(results(&sim, &g).len(), 80);
    let r3 = sim.actor_as::<KvReplica>(g.replicas[3].node).unwrap();
    assert!(r3.stats.state_transfers >= 1, "replica 3 never fetched");
    assert_eq!(abstract_state_of(&sim, &g, 3), abstract_state_of(&sim, &g, 0));
    // Every replica, replica 3 after its fetch included, held a stable
    // checkpoint and a newer one at once, so the bound was checked on more
    // than the genesis checkpoint.
    assert!(peak.iter().all(|&p| p >= 2), "peak retained checkpoints {peak:?}");
}

#[test]
fn software_rejuvenation_reclaims_leaks() {
    let mut sim = Simulation::new(24);
    let mut cfg = Config::new(4);
    cfg.recovery_period = Some(SimDuration::from_secs(40));
    cfg.reboot_time = SimDuration::from_millis(200);
    let g = build(&mut sim, cfg, 24, true); // Leaky implementation.

    // Churn: put + del leaves leaked entries behind in every replica.
    for i in 0..12 {
        invoke(&mut sim, &g, format!("put tmp{i} x").as_bytes(), false);
        invoke(&mut sim, &g, format!("del tmp{i}").as_bytes(), false);
    }
    invoke(&mut sim, &g, b"put keeper gold", false);
    // Measure before the first staggered watchdog fires (at 10 s).
    sim.run_for(SimDuration::from_secs(5));

    // Before recovery: footprints exceed live entries (the leak).
    let leaked_before: usize = (0..4)
        .map(|i| sim.actor_as::<KvReplica>(g.replicas[i].node).unwrap().service().wrapper().kv().leaked())
        .sum();
    assert!(leaked_before >= 4 * 12, "expected leaks, found {leaked_before}");

    // A full proactive-recovery rotation rejuvenates every replica.
    sim.run_for(SimDuration::from_secs(45));
    for i in 0..4 {
        let r = sim.actor_as::<KvReplica>(g.replicas[i].node).unwrap();
        assert!(r.stats.recoveries >= 1, "replica {i} never recovered");
        assert_eq!(r.service().wrapper().kv().leaked(), 0, "replica {i} still leaks");
        // The live state survived rejuvenation via the abstract state.
        assert_eq!(r.service().wrapper().kv().get("keeper"), Some(&b"gold"[..]));
    }
    // And the service stayed available throughout.
    invoke(&mut sim, &g, b"get keeper", true);
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(results(&sim, &g).last().unwrap(), b"gold");
}

#[test]
fn corrupt_concrete_state_is_repaired_by_warm_recovery() {
    let mut sim = Simulation::new(25);
    let mut cfg = Config::new(4);
    cfg.recovery_period = Some(SimDuration::from_secs(30));
    cfg.reboot_time = SimDuration::from_millis(200);
    let g = build(&mut sim, cfg, 25, false);
    // Use warm reboots: concrete state survives, corruption must be found
    // by recomputing the abstraction function and repaired by fetching.
    for i in 0..4 {
        sim.actor_as_mut::<KvReplica>(g.replicas[i].node).unwrap().set_recovery_clean(false);
    }

    for i in 0..12 {
        invoke(&mut sim, &g, format!("put k{i} v{i}").as_bytes(), false);
    }
    sim.run_for(SimDuration::from_secs(3));

    // A software error corrupts k3's value inside replica 2's concrete
    // state. The replicated service keeps answering correctly (f=1 masks
    // it), and replica 2's next proactive recovery repairs it.
    assert!(sim
        .actor_as_mut::<KvReplica>(g.replicas[2].node)
        .unwrap()
        .service_mut()
        .wrapper_mut()
        .kv_mut()
        .corrupt("k3"));

    invoke(&mut sim, &g, b"get k3", true);
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(results(&sim, &g).last().unwrap(), b"v3", "corruption must be masked");

    // Run past replica 2's watchdog (staggered at 3/4 * 30s ≈ 22.5s).
    sim.run_for(SimDuration::from_secs(40));
    let r2 = sim.actor_as::<KvReplica>(g.replicas[2].node).unwrap();
    assert!(r2.stats.recoveries >= 1, "replica 2 never recovered");
    assert_eq!(
        r2.service().wrapper().kv().get("k3"),
        Some(&b"v3"[..]),
        "warm recovery must repair the corrupt object from the group's abstract state"
    );
}

#[test]
fn byzantine_replica_with_divergent_impl_is_masked() {
    let mut sim = Simulation::new(26);
    let g = build(&mut sim, Config::new(4), 26, false);
    sim.actor_as_mut::<KvReplica>(g.replicas[1].node).unwrap().set_byzantine(base::ByzMode::CorruptReplies);
    for i in 0..10 {
        invoke(&mut sim, &g, format!("put k{i} v{i}").as_bytes(), false);
    }
    invoke(&mut sim, &g, b"get k9", true);
    sim.run_for(SimDuration::from_secs(3));
    let rs = results(&sim, &g);
    assert_eq!(rs.len(), 11);
    assert_eq!(rs[10], b"v9");
}

#[test]
fn byzantine_timestamps_are_rejected_and_primary_deposed() {
    let mut sim = Simulation::new(28);
    let g = build(&mut sim, Config::new(4), 28, false);
    // The view-0 primary proposes timestamps a century off; honest backups
    // must refuse the pre-prepares, time out, and elect a new primary.
    sim.actor_as_mut::<KvReplica>(g.replicas[0].node).unwrap().set_byzantine(base::ByzMode::BadTimestamps);
    for i in 0..6 {
        invoke(&mut sim, &g, format!("put k{i} v{i}").as_bytes(), false);
    }
    sim.run_for(SimDuration::from_secs(20));
    let rs = results(&sim, &g);
    assert_eq!(rs.len(), 6, "service must make progress under a new primary");
    for i in 1..4 {
        let r = sim.actor_as::<KvReplica>(g.replicas[i].node).unwrap();
        assert!(r.view() >= 1, "replica {i} never left view 0");
        // No wild timestamp made it into the abstract state.
        assert_eq!(r.service().wrapper().kv().get("k0"), Some(&b"v0"[..]));
    }
    // The recorded mtimes are sane (close to the simulation clock, not a
    // century ahead).
    invoke(&mut sim, &g, b"mtime k0", true);
    sim.run_for(SimDuration::from_secs(1));
    let rs = results(&sim, &g);
    let mtime: u64 = String::from_utf8_lossy(rs.last().unwrap()).parse().expect("decimal mtime");
    assert!(mtime < 3_600_000_000_000, "mtime {mtime} is not within the first hour of sim time");
}

#[test]
fn seven_replica_group_masks_two_faults() {
    let mut sim = Simulation::new(27);
    let mut cfg = Config::new(7);
    cfg.checkpoint_interval = 8;
    let g = build(&mut sim, cfg, 27, false);
    sim.crash_forever(g.replicas[5].node);
    sim.actor_as_mut::<KvReplica>(g.replicas[6].node).unwrap().set_byzantine(base::ByzMode::CorruptReplies);
    for i in 0..10 {
        invoke(&mut sim, &g, format!("put k{i} v{i}").as_bytes(), false);
    }
    invoke(&mut sim, &g, b"get k0", true);
    sim.run_for(SimDuration::from_secs(5));
    let rs = results(&sim, &g);
    assert_eq!(rs.len(), 11);
    assert_eq!(rs[10], b"v0");
}
