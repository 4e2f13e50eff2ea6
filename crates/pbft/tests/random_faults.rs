//! Randomized fault-schedule stress tests: for a set of seeds, drive a
//! workload while crashing and restoring random replicas (never more than
//! f at once) at random instants, then assert liveness (every operation
//! completes) and safety (all correct replicas agree on the final state).
//!
//! These are deterministic per seed — a failure reproduces exactly.

use base_pbft::testing::{op_add, CounterService};
use base_pbft::{ByzMode, ClientActor, Config, Deployment, Replica};
use base_simnet::{NodeId, SimDuration, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: u64 = 40;

fn cfg() -> Config {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 8;
    cfg.log_window = 32;
    cfg
}

fn final_value(sim: &Simulation, g: &Deployment, i: usize) -> u64 {
    sim.actor_as::<Replica<CounterService>>(g.replicas[i].node).unwrap().service().value(0)
}

/// Runs one seeded schedule: random crash windows (one replica down at a
/// time, possibly the primary), workload injected up front.
fn run_crash_schedule(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = Simulation::new(seed);
    let g = Deployment::build(&mut sim, cfg(), 1, seed, |_| CounterService::default());
    let client = g.clients[0];
    {
        let c = sim.actor_as_mut::<ClientActor>(client).unwrap();
        for _ in 0..OPS {
            c.invoke(op_add(0, 1), false);
        }
    }

    // 3-6 crash windows spread over the run; each takes one random replica
    // down for 200-900 ms. Windows never overlap, so at most f = 1 replica
    // is faulty at any instant.
    let windows = rng.gen_range(3..=6);
    for _ in 0..windows {
        sim.run_for(SimDuration::from_millis(rng.gen_range(100..400)));
        let victim = NodeId(rng.gen_range(0..4));
        let down = SimDuration::from_millis(rng.gen_range(200..900));
        sim.crash(victim, down);
        sim.run_for(down + SimDuration::from_millis(50));
    }
    sim.run_for(SimDuration::from_secs(30));

    let done = sim.actor_as::<ClientActor>(client).unwrap().completed.len() as u64;
    assert_eq!(done, OPS, "liveness violated for seed {seed}");
    // Safety: all four replicas converge (crashed ones recover via the
    // protocol's retransmission and state transfer).
    sim.run_for(SimDuration::from_secs(10));
    for i in 0..4 {
        assert_eq!(final_value(&sim, &g, i), OPS, "replica {i} diverged for seed {seed}");
    }
}

/// Runs one seeded schedule with a random Byzantine replica active the
/// whole time. Safety and liveness must hold for any single-fault mode.
fn run_byzantine_schedule(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbad);
    let mut sim = Simulation::new(seed);
    let g = Deployment::build(&mut sim, cfg(), 1, seed, |_| CounterService::default());
    let client = g.clients[0];
    let villain = rng.gen_range(0..4usize);
    let mode = match rng.gen_range(0..5) {
        0 => ByzMode::Mute,
        1 => ByzMode::CorruptReplies,
        2 => ByzMode::WithholdCommits,
        3 => ByzMode::CorruptCheckpoints,
        _ => ByzMode::EquivocatePrimary,
    };
    sim.actor_as_mut::<Replica<CounterService>>(g.replicas[villain].node)
        .unwrap()
        .set_byzantine(mode);
    {
        let c = sim.actor_as_mut::<ClientActor>(client).unwrap();
        for _ in 0..OPS {
            c.invoke(op_add(0, 1), false);
        }
    }
    sim.run_for(SimDuration::from_secs(60));
    let done = sim.actor_as::<ClientActor>(client).unwrap().completed.len() as u64;
    assert_eq!(done, OPS, "liveness violated for seed {seed} mode {mode:?} villain {villain}");
    for i in 0..4 {
        if i == villain {
            continue;
        }
        assert_eq!(
            final_value(&sim, &g, i),
            OPS,
            "replica {i} diverged for seed {seed} mode {mode:?} villain {villain}"
        );
    }
}

#[test]
fn replacement_under_active_byzantine_fault() {
    // f = 1 is fully spent on a mute replica when a second machine is
    // reinstalled from scratch. The group has exactly 2f+1 = 3 non-mute
    // members, one of which starts from genesis: progress must stall no
    // longer than the newcomer's catch-up, and every operation completes.
    let mut sim = Simulation::new(77);
    let mut g = Deployment::build(&mut sim, cfg(), 1, 77, |_| CounterService::default());
    let client = g.clients[0];
    sim.actor_as_mut::<Replica<CounterService>>(g.replicas[1].node)
        .unwrap()
        .set_byzantine(ByzMode::Mute);
    {
        let c = sim.actor_as_mut::<ClientActor>(client).unwrap();
        for _ in 0..10 {
            c.invoke(op_add(0, 1), false);
        }
    }
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(
        sim.actor_as::<ClientActor>(client).unwrap().completed.len(),
        10,
        "three correct replicas must make progress past the mute one"
    );

    // Reinstall replica 3 (a quorum member) with a fresh instance.
    g.replace(&mut sim, 3, CounterService::default());
    {
        let c = sim.actor_as_mut::<ClientActor>(client).unwrap();
        for _ in 0..10 {
            c.invoke(op_add(0, 1), false);
        }
    }
    sim.run_for(SimDuration::from_secs(60));
    assert_eq!(
        sim.actor_as::<ClientActor>(client).unwrap().completed.len(),
        20,
        "the workload must finish once the replacement catches up"
    );
    for i in [0usize, 2, 3] {
        assert_eq!(final_value(&sim, &g, i), 20, "replica {i} diverged");
    }
}

#[test]
fn random_crash_schedules_preserve_safety_and_liveness() {
    for seed in [11, 23, 37, 59, 71, 97] {
        run_crash_schedule(seed);
    }
}

#[test]
fn random_byzantine_replica_is_always_masked() {
    for seed in [5, 13, 29, 43, 61, 83] {
        run_byzantine_schedule(seed);
    }
}
