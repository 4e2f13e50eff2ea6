//! Fault masking and repair: a Byzantine replica corrupts its replies, a
//! software error corrupts another replica's concrete state — the service
//! keeps answering correctly, and proactive recovery repairs the damaged
//! replica from the group's abstract state (paper §2.2: abstraction "may
//! improve availability by hiding corrupt concrete states").
//!
//! Run with: `cargo run --example fault_masking`

use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, BaseReplica, BaseService, ByzMode, Config};
use base_pbft::Deployment;
use base_simnet::{SimDuration, Simulation};

type KvReplica = BaseReplica<KvWrapper>;

fn main() {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 8;
    cfg.recovery_period = Some(SimDuration::from_secs(8));
    cfg.reboot_time = SimDuration::from_millis(200);

    let mut sim = Simulation::new(555);
    let group = Deployment::build(&mut sim, cfg, 1, 555, |_| {
        BaseService::new(KvWrapper::new(TinyKv::default()))
    });
    let client = group.clients[0];
    let node = |i: usize| group.replicas[i].node;

    // Store some data.
    {
        let c = sim.actor_as_mut::<BaseClient>(client).unwrap();
        for i in 0..10 {
            c.invoke(format!("put account{i} balance-{i}").into_bytes(), false);
        }
    }
    sim.run_for(SimDuration::from_secs(2));

    // Fault 1: replica 1 turns Byzantine and corrupts every reply.
    sim.actor_as_mut::<KvReplica>(node(1)).unwrap().set_byzantine(ByzMode::CorruptReplies);
    println!("replica 1 is now Byzantine (corrupts all replies)");

    // Fault 2: a software error silently corrupts account3's value inside
    // replica 2's concrete state.
    let corrupted = sim
        .actor_as_mut::<KvReplica>(node(2))
        .unwrap()
        .service_mut()
        .wrapper_mut()
        .kv_mut()
        .corrupt("account3");
    assert!(corrupted);
    println!("replica 2's concrete state is now corrupt (account3 damaged)");

    // The client still reads correct data: f+1 = 2 correct matching
    // replies out-vote the Byzantine one, and the quorum never needs the
    // corrupt value.
    {
        let c = sim.actor_as_mut::<BaseClient>(client).unwrap();
        c.invoke(b"get account3".to_vec(), false);
    }
    sim.run_for(SimDuration::from_secs(2));
    let c = sim.actor_as::<BaseClient>(client).unwrap();
    let answer = &c.completed.last().unwrap().1;
    println!("get account3 -> {:?} (both faults masked)", String::from_utf8_lossy(answer));
    assert_eq!(answer, b"balance-3");

    // Replica 2's next proactive recovery restarts its implementation from
    // a clean state and reinstalls the abstract state fetched from the
    // group — the corruption disappears without anyone diagnosing it.
    sim.run_for(SimDuration::from_secs(10));
    let healed = sim.actor_as::<KvReplica>(node(2)).unwrap();
    assert!(healed.stats.recoveries >= 1);
    assert_eq!(
        healed.service().wrapper().kv().get("account3"),
        Some(&b"balance-3"[..]),
        "recovery must repair the corruption"
    );
    println!(
        "after {} proactive recovery(ies), replica 2's concrete state is repaired ✓",
        healed.stats.recoveries
    );
}
