//! Software rejuvenation (paper §2.2): staggered proactive recoveries keep
//! the service available while every replica is periodically rebooted from
//! a clean concrete state and brought back up to date from the group's
//! abstract state — reclaiming leaked storage along the way.
//!
//! Run with: `cargo run --example proactive_recovery`

use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, BaseReplica, BaseService, Config};
use base_pbft::{Deployment, ReplicaRef};
use base_simnet::{SimDuration, Simulation};

type KvReplica = BaseReplica<KvWrapper>;

fn footprints(sim: &Simulation, replicas: &[ReplicaRef]) -> Vec<(usize, usize)> {
    replicas
        .iter()
        .map(|r| {
            let kv = sim.actor_as::<KvReplica>(r.node).unwrap().service().wrapper().kv();
            (kv.len(), kv.leaked())
        })
        .collect()
}

fn main() {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 16;
    // Rejuvenate each replica every 10 seconds, staggered; reboots take
    // 300 ms of downtime each.
    cfg.recovery_period = Some(SimDuration::from_secs(10));
    cfg.reboot_time = SimDuration::from_millis(300);

    let mut sim = Simulation::new(99);
    let group = Deployment::build(&mut sim, cfg, 1, 99, |_| {
        let mut kv = TinyKv::default();
        kv.leaky = true; // Deletions leak storage — the "aging" bug.
        BaseService::new(KvWrapper::new(kv))
    });
    let client = group.clients[0];

    // Churn: create and delete temporary keys (leaking on every delete),
    // while keeping a couple of long-lived keys.
    {
        let c = sim.actor_as_mut::<BaseClient>(client).unwrap();
        c.invoke(b"put config production".to_vec(), false);
        for i in 0..60 {
            c.invoke(format!("put scratch{i} data").into_bytes(), false);
            c.invoke(format!("del scratch{i}").into_bytes(), false);
        }
        c.invoke(b"put state healthy".to_vec(), false);
    }
    sim.run_for(SimDuration::from_secs(3));
    println!("after the churn, before any recovery:");
    for (i, (live, leaked)) in footprints(&sim, &group.replicas).iter().enumerate() {
        println!("  replica {i}: {live} live entries, {leaked} leaked");
    }

    // One full rotation of staggered recoveries.
    sim.run_for(SimDuration::from_secs(12));
    println!("\nafter one proactive-recovery rotation (staggered clean reboots):");
    for (i, (live, leaked)) in footprints(&sim, &group.replicas).iter().enumerate() {
        let r = sim.actor_as::<KvReplica>(group.replicas[i].node).unwrap();
        println!(
            "  replica {i}: {live} live entries, {leaked} leaked, {} recoveries, last took {} ms",
            r.stats.recoveries,
            r.last_recovery_ns / 1_000_000
        );
    }

    // The service stayed available and kept its state throughout.
    {
        let c = sim.actor_as_mut::<BaseClient>(client).unwrap();
        c.invoke(b"get config".to_vec(), true);
        c.invoke(b"get state".to_vec(), true);
    }
    sim.run_for(SimDuration::from_secs(1));
    let c = sim.actor_as::<BaseClient>(client).unwrap();
    let n = c.completed.len();
    println!(
        "\nget config -> {:?}, get state -> {:?}",
        String::from_utf8_lossy(&c.completed[n - 2].1),
        String::from_utf8_lossy(&c.completed[n - 1].1)
    );
    assert_eq!(c.completed[n - 2].1, b"production");
    assert_eq!(c.completed[n - 1].1, b"healthy");
    println!("state survived rejuvenation via the abstract state ✓");
}
