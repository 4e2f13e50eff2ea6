//! End-to-end protocol tests on the simulated network: normal case,
//! checkpointing, crash and Byzantine faults, view changes, state transfer,
//! lossy networks, and proactive recovery.

use base_pbft::testing::{build_counter_group, op_add, op_get, CounterService, TestGroup};
use base_pbft::{ByzMode, ClientActor, Config, Replica};
use base_simnet::{NetFault, NodeId, SimDuration, SimTime, Simulation};

fn small_config() -> Config {
    let mut cfg = Config::new(4);
    // Small checkpoint interval so tests cross checkpoints quickly.
    cfg.checkpoint_interval = 8;
    cfg.log_window = 32;
    cfg
}

fn enqueue(sim: &mut Simulation, client: NodeId, op: Vec<u8>, ro: bool) {
    sim.actor_as_mut::<ClientActor>(client).unwrap().invoke(op, ro);
}

fn completed(sim: &Simulation, client: NodeId) -> &[(u64, Vec<u8>)] {
    &sim.actor_as::<ClientActor>(client).unwrap().completed
}

fn replica<'a>(sim: &'a Simulation, g: &TestGroup, i: usize) -> &'a Replica<CounterService> {
    sim.actor_as::<Replica<CounterService>>(g.replicas[i]).unwrap()
}

#[test]
fn normal_case_sequence_of_writes() {
    let mut sim = Simulation::new(1);
    let g = build_counter_group(&mut sim, small_config(), 1, 1);
    let client = g.clients[0];
    for i in 1..=20u64 {
        enqueue(&mut sim, client, op_add(0, i), false);
    }
    sim.run_for(SimDuration::from_secs(2));

    let done = completed(&sim, client);
    assert_eq!(done.len(), 20);
    // Results are the running sums 1, 3, 6, ...
    let mut sum = 0;
    for (i, (_ts, result)) in done.iter().enumerate() {
        sum += (i as u64) + 1;
        assert_eq!(result, sum.to_string().as_bytes());
    }
    // All replicas converge to the same value.
    for i in 0..4 {
        assert_eq!(replica(&sim, &g, i).service().value(0), 210);
    }
}

#[test]
fn checkpoints_become_stable_and_log_is_gced() {
    let mut sim = Simulation::new(2);
    let g = build_counter_group(&mut sim, small_config(), 1, 2);
    let client = g.clients[0];
    for _ in 0..30 {
        enqueue(&mut sim, client, op_add(1, 1), false);
    }
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(completed(&sim, client).len(), 30);
    for i in 0..4 {
        let r = replica(&sim, &g, i);
        assert!(r.stable_seq() >= 16, "replica {i} stable at {}", r.stable_seq());
        assert!(r.stats.checkpoints_taken >= 2);
    }
}

#[test]
fn read_only_optimization() {
    let mut sim = Simulation::new(3);
    let g = build_counter_group(&mut sim, small_config(), 1, 3);
    let client = g.clients[0];
    enqueue(&mut sim, client, op_add(2, 42), false);
    enqueue(&mut sim, client, op_get(2), true);
    sim.run_for(SimDuration::from_secs(1));
    let done = completed(&sim, client);
    assert_eq!(done.len(), 2);
    assert_eq!(done[1].1, b"42");
    // The read-only op must not consume a sequence number at the replicas.
    assert_eq!(replica(&sim, &g, 0).last_exec(), 1);
}

#[test]
fn tolerates_one_crashed_backup() {
    let mut sim = Simulation::new(4);
    let g = build_counter_group(&mut sim, small_config(), 1, 4);
    let client = g.clients[0];
    sim.crash_forever(g.replicas[2]); // A backup.
    for _ in 0..10 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(completed(&sim, client).len(), 10);
}

#[test]
fn masks_one_byzantine_reply_corruptor() {
    let mut sim = Simulation::new(5);
    let g = build_counter_group(&mut sim, small_config(), 1, 5);
    let client = g.clients[0];
    sim.actor_as_mut::<Replica<CounterService>>(g.replicas[1])
        .unwrap()
        .set_byzantine(ByzMode::CorruptReplies);
    for i in 1..=10u64 {
        enqueue(&mut sim, client, op_add(0, i), false);
    }
    sim.run_for(SimDuration::from_secs(2));
    let done = completed(&sim, client);
    assert_eq!(done.len(), 10);
    assert_eq!(done[9].1, b"55", "corrupted replies must never win the quorum");
    // The liar corrupts a copy of each result it sends; its reply cache,
    // which the checkpoint digest covers, holds the true one.
    let liar = sim.actor_as::<Replica<CounterService>>(g.replicas[1]).unwrap();
    assert_eq!(liar.cached_reply(client.0 as u32, 10), Some(&b"55"[..]));
}

#[test]
fn masks_one_mute_replica() {
    let mut sim = Simulation::new(6);
    let g = build_counter_group(&mut sim, small_config(), 1, 6);
    let client = g.clients[0];
    sim.actor_as_mut::<Replica<CounterService>>(g.replicas[3])
        .unwrap()
        .set_byzantine(ByzMode::Mute);
    for _ in 0..10 {
        enqueue(&mut sim, client, op_add(0, 2), false);
    }
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(completed(&sim, client).len(), 10);
}

#[test]
fn masks_a_commit_withholder() {
    let mut sim = Simulation::new(15);
    let g = build_counter_group(&mut sim, small_config(), 1, 15);
    let client = g.clients[0];
    sim.actor_as_mut::<Replica<CounterService>>(g.replicas[2])
        .unwrap()
        .set_byzantine(ByzMode::WithholdCommits);
    for _ in 0..10 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(completed(&sim, client).len(), 10, "2f+1 commits still form without it");
}

#[test]
fn byzantine_designated_replier_cannot_block_completion() {
    // The reply optimization designates one replica to send the full
    // result. If that replica corrupts its replies, the client's digest
    // quorum never matches its body; retransmission rotates the designee
    // and the operation still completes with the correct result.
    let mut sim = Simulation::new(16);
    let g = build_counter_group(&mut sim, small_config(), 1, 16);
    let client = g.clients[0];
    sim.actor_as_mut::<Replica<CounterService>>(g.replicas[1])
        .unwrap()
        .set_byzantine(ByzMode::CorruptReplies);
    // Timestamps start at 1; ops whose (ts % 4) == 1 designate replica 1.
    for i in 1..=8u64 {
        enqueue(&mut sim, client, op_add(0, i), false);
    }
    sim.run_for(SimDuration::from_secs(20));
    let done = completed(&sim, client);
    assert_eq!(done.len(), 8);
    assert_eq!(done[7].1, b"36");
    let retrans = sim.actor_as::<ClientActor>(client).unwrap().core().retransmissions;
    assert!(retrans >= 1, "the faulty designee forces at least one rotation");
}

#[test]
fn view_change_on_crashed_primary() {
    let mut sim = Simulation::new(7);
    let g = build_counter_group(&mut sim, small_config(), 1, 7);
    let client = g.clients[0];
    sim.crash_forever(g.replicas[0]); // The view-0 primary.
    for _ in 0..5 {
        enqueue(&mut sim, client, op_add(0, 3), false);
    }
    sim.run_for(SimDuration::from_secs(10));
    let done = completed(&sim, client);
    assert_eq!(done.len(), 5, "operations must complete after the view change");
    for i in 1..4 {
        let r = replica(&sim, &g, i);
        assert!(r.view() >= 1, "replica {i} still in view {}", r.view());
        assert_eq!(r.service().value(0), 15);
    }
}

#[test]
fn view_change_on_mute_primary_mid_stream() {
    let mut sim = Simulation::new(8);
    let g = build_counter_group(&mut sim, small_config(), 1, 8);
    let client = g.clients[0];
    for _ in 0..6 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(completed(&sim, client).len(), 6);

    // Now the primary goes mute; remaining ops need a view change.
    sim.actor_as_mut::<Replica<CounterService>>(g.replicas[0])
        .unwrap()
        .set_byzantine(ByzMode::Mute);
    for _ in 0..6 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(completed(&sim, client).len(), 12);
    for i in 1..4 {
        assert_eq!(replica(&sim, &g, i).service().value(0), 12);
    }
}

#[test]
fn equivocating_primary_is_replaced_or_harmless() {
    let mut sim = Simulation::new(9);
    let g = build_counter_group(&mut sim, small_config(), 1, 9);
    let client = g.clients[0];
    sim.actor_as_mut::<Replica<CounterService>>(g.replicas[0])
        .unwrap()
        .set_byzantine(ByzMode::EquivocatePrimary);
    for _ in 0..8 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(15));
    let done = completed(&sim, client);
    assert_eq!(done.len(), 8);
    // Safety: all correct replicas agree.
    let vals: Vec<u64> = (1..4).map(|i| replica(&sim, &g, i).service().value(0)).collect();
    assert!(vals.iter().all(|v| *v == vals[0]), "divergent state: {vals:?}");
    assert_eq!(vals[0], 8);
}

#[test]
fn lagging_replica_catches_up_via_state_transfer() {
    let mut sim = Simulation::new(10);
    let g = build_counter_group(&mut sim, small_config(), 1, 10);
    let client = g.clients[0];

    // Take replica 3 down while the group executes past a checkpoint.
    sim.crash(g.replicas[3], SimDuration::from_secs(5));
    for _ in 0..30 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(completed(&sim, client).len(), 30);

    // Replica 3 comes back; keep traffic flowing so checkpoint messages
    // reach it and it state-transfers.
    for _ in 0..20 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(10));

    let r3 = replica(&sim, &g, 3);
    assert!(r3.stats.state_transfers >= 1, "replica 3 must have fetched state");
    assert_eq!(r3.service().value(0), 50, "replica 3 must converge");
}

#[test]
fn survives_lossy_network() {
    let mut sim = Simulation::new(11);
    let g = build_counter_group(&mut sim, small_config(), 1, 11);
    let client = g.clients[0];
    sim.add_fault(NetFault::Drop { prob: 0.05 }, SimTime::ZERO, SimTime(u64::MAX));
    for _ in 0..15 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(30));
    assert_eq!(completed(&sim, client).len(), 15);
}

#[test]
fn replaced_replica_rejoins_and_catches_up() {
    // On-line software replacement (the upgrade scenario the paper's
    // abstraction enables): replica 2's machine is reinstalled mid-run
    // with a brand-new service instance. The replacement starts from
    // genesis state, learns the group's stable checkpoint through its
    // probes, state-transfers, and converges.
    let mut sim = Simulation::new(19);
    let g = build_counter_group(&mut sim, small_config(), 1, 19);
    let client = g.clients[0];
    for i in 1..=20u64 {
        enqueue(&mut sim, client, op_add(0, i), false);
    }
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(completed(&sim, client).len(), 20);

    // Reinstall replica 2 with fresh software (same node identity/keys).
    let keys = base_crypto::NodeKeys::new(g.dir.clone(), 2);
    sim.replace_node(
        g.replicas[2],
        Box::new(Replica::new(g.cfg.clone(), keys, CounterService::default())),
    );
    assert_eq!(replica(&sim, &g, 2).service().value(0), 0, "fresh instance starts empty");

    // More traffic; the newcomer must catch up (state transfer + replay).
    for i in 0..10u64 {
        enqueue(&mut sim, client, op_add(1, i), false);
    }
    sim.run_for(SimDuration::from_secs(20));
    assert_eq!(completed(&sim, client).len(), 30);
    assert_eq!(replica(&sim, &g, 2).service().value(0), 210, "replacement caught up");
    assert_eq!(replica(&sim, &g, 2).service().value(1), 45);

    // And it is a full participant again: crash a different replica and
    // the group (now depending on the newcomer) still makes progress.
    sim.crash(g.replicas[3], SimDuration::from_secs(60));
    enqueue(&mut sim, client, op_add(0, 5), false);
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(completed(&sim, client).len(), 31);
    assert_eq!(replica(&sim, &g, 2).service().value(0), 215);
}

#[test]
fn late_replacement_accepts_agreed_but_stale_timestamps() {
    // The replacement happens long after the original agreements, so every
    // resent batch carries a non-deterministic timestamp far outside the
    // newcomer's freshness window. It must not endorse them (no prepares),
    // but it must accept the quorum's commits and converge — otherwise any
    // replica that is down longer than the skew tolerance could never
    // rejoin without a stable checkpoint to transfer.
    let mut sim = Simulation::new(21);
    let g = build_counter_group(&mut sim, small_config(), 1, 21);
    let client = g.clients[0];
    // Too few ops to ever reach a stable checkpoint (interval 8 needs 8).
    for i in 1..=5u64 {
        enqueue(&mut sim, client, op_add(0, i), false);
    }
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(completed(&sim, client).len(), 5);

    // Let far more than the 10 s non-determinism skew tolerance pass.
    sim.run_for(SimDuration::from_secs(60));
    let keys = base_crypto::NodeKeys::new(g.dir.clone(), 3);
    sim.replace_node(
        g.replicas[3],
        Box::new(Replica::new(g.cfg.clone(), keys, CounterService::default())),
    );
    sim.run_for(SimDuration::from_secs(20));
    assert_eq!(
        replica(&sim, &g, 3).service().value(0),
        15,
        "newcomer must converge on quorum-agreed batches despite stale timestamps"
    );
}

#[test]
fn survives_duplicated_messages() {
    // A third of all messages are delivered twice: every protocol step
    // must be idempotent.
    let mut sim = Simulation::new(17);
    let g = build_counter_group(&mut sim, small_config(), 1, 17);
    let client = g.clients[0];
    sim.add_fault(NetFault::Duplicate { prob: 0.33 }, SimTime::ZERO, SimTime(u64::MAX));
    for i in 1..=15u64 {
        enqueue(&mut sim, client, op_add(0, i), false);
    }
    sim.run_for(SimDuration::from_secs(5));
    let done = completed(&sim, client);
    assert_eq!(done.len(), 15);
    assert_eq!(done[14].1, b"120", "duplicates must not double-execute");
    for i in 0..4 {
        assert_eq!(replica(&sim, &g, i).service().value(0), 120);
    }
}

#[test]
fn survives_slow_asymmetric_link() {
    // One direction of one link is congested; the protocol masks it.
    let mut sim = Simulation::new(18);
    let g = build_counter_group(&mut sim, small_config(), 1, 18);
    let client = g.clients[0];
    let extra = SimDuration::from_millis(40);
    let slow = NetFault::Slow { from: g.replicas[0], to: g.replicas[2], extra };
    sim.add_fault(slow, SimTime::ZERO, SimTime(u64::MAX));
    for _ in 0..10 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(completed(&sim, client).len(), 10);
}

#[test]
fn multiple_clients_interleave() {
    let mut sim = Simulation::new(12);
    let g = build_counter_group(&mut sim, small_config(), 3, 12);
    for (i, &c) in g.clients.iter().enumerate() {
        for _ in 0..8 {
            enqueue(&mut sim, c, op_add(i as u64, 1), false);
        }
    }
    sim.run_for(SimDuration::from_secs(3));
    for &c in &g.clients {
        assert_eq!(completed(&sim, c).len(), 8);
    }
    for r in 0..4 {
        for reg in 0..3 {
            assert_eq!(replica(&sim, &g, r).service().value(reg), 8);
        }
    }
}

#[test]
fn proactive_recovery_keeps_service_available() {
    let mut sim = Simulation::new(13);
    let mut cfg = small_config();
    cfg.recovery_period = Some(SimDuration::from_secs(20));
    cfg.reboot_time = SimDuration::from_millis(500);
    let g = build_counter_group(&mut sim, cfg, 1, 13);
    let client = g.clients[0];

    // Feed a steady stream across a full recovery rotation.
    for _ in 0..100 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(60));

    assert_eq!(completed(&sim, client).len(), 100, "service must stay available");
    let mut recovered = 0;
    for i in 0..4 {
        recovered += replica(&sim, &g, i).stats.recoveries;
    }
    assert!(recovered >= 4, "every replica should have recovered at least once, got {recovered}");
    for i in 0..4 {
        assert_eq!(replica(&sim, &g, i).service().value(0), 100);
    }
}

#[test]
fn deterministic_runs_with_same_seed() {
    let run = |seed: u64| {
        let mut sim = Simulation::new(seed);
        let g = build_counter_group(&mut sim, small_config(), 1, seed);
        let client = g.clients[0];
        for i in 0..12u64 {
            enqueue(&mut sim, client, op_add(i % 4, i), false);
        }
        sim.run_for(SimDuration::from_secs(2));
        (
            completed(&sim, client).to_vec(),
            sim.stats().messages_delivered,
            sim.stats().bytes_delivered,
        )
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn byzantine_checkpoint_liar_cannot_poison_state_transfer() {
    let mut sim = Simulation::new(14);
    let g = build_counter_group(&mut sim, small_config(), 1, 14);
    let client = g.clients[0];
    sim.actor_as_mut::<Replica<CounterService>>(g.replicas[1])
        .unwrap()
        .set_byzantine(ByzMode::CorruptCheckpoints);

    sim.crash(g.replicas[3], SimDuration::from_secs(4));
    for _ in 0..30 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(4));
    for _ in 0..20 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(16));

    assert_eq!(completed(&sim, client).len(), 50);
    // The recovering replica must have converged to the *correct* state
    // despite the liar: fetched objects verify against the certified root.
    assert_eq!(replica(&sim, &g, 3).service().value(0), 50);
}

#[test]
fn view_change_storm_timeout_is_capped() {
    // Mute everyone except backup 1: its view-change chase can never
    // install a new view (no f+1 joins, no quorum), so the escalation
    // timer doubles on every expiry. The doubling must stop exactly at
    // the configured cap instead of growing without bound.
    let mut cfg = small_config();
    cfg.view_change_timeout = SimDuration::from_millis(200);
    cfg.view_change_timeout_cap = SimDuration::from_secs(1);
    let mut sim = Simulation::new(77);
    let g = build_counter_group(&mut sim, cfg.clone(), 1, 77);
    for &i in &[0usize, 2, 3] {
        sim.actor_as_mut::<Replica<CounterService>>(g.replicas[i])
            .unwrap()
            .set_byzantine(ByzMode::Mute);
    }
    enqueue(&mut sim, g.clients[0], op_add(0, 1), false);
    sim.run_for(SimDuration::from_secs(12));

    let chaser = replica(&sim, &g, 1);
    assert_eq!(
        chaser.vc_timeout(),
        cfg.view_change_timeout_cap,
        "escalating chase must pin the timeout at the cap"
    );
    // The chase actually escalated through several views.
    assert!(chaser.view() >= 4, "expected a long chase, got view {}", chaser.view());
}

#[test]
fn primary_elect_holds_requests_instead_of_self_forwarding() {
    // Same muted-group chase as above, but driven long enough that the
    // chaser passes through views where it is itself the primary-elect
    // (view 5, 9, ... for replica 1 of 4). A request arriving then used
    // to be "forwarded to the primary" — i.e. sent to itself, which
    // re-entered handle_request still mid view change and forwarded
    // again: an infinite self-send loop that melted the simulation at
    // ~300k messages per virtual second. Held requests keep the message
    // count sane; the bound here is ~100x headroom over the observed
    // fixed-behaviour count yet ~1000x below the runaway one.
    let mut cfg = small_config();
    cfg.view_change_timeout = SimDuration::from_millis(200);
    cfg.view_change_timeout_cap = SimDuration::from_millis(400);
    let mut sim = Simulation::new(78);
    let g = build_counter_group(&mut sim, cfg, 1, 78);
    for &i in &[0usize, 2, 3] {
        sim.actor_as_mut::<Replica<CounterService>>(g.replicas[i])
            .unwrap()
            .set_byzantine(ByzMode::Mute);
    }
    enqueue(&mut sim, g.clients[0], op_add(0, 1), false);
    sim.run_for(SimDuration::from_secs(20));

    let chaser = replica(&sim, &g, 1);
    assert!(chaser.view() >= 5, "chase never reached a self-primary view: {}", chaser.view());
    assert!(
        sim.stats().messages_sent < 100_000,
        "message count exploded ({}): request self-forward loop is back",
        sim.stats().messages_sent
    );
}
