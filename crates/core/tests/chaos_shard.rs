//! Chaos campaigns over the sharded multi-group deployment: seeded runs
//! composing crash windows, partitions, Byzantine flips, latent state
//! corruption and injected cross-shard lock refusals against two
//! independent replica groups driven by cross-shard routers — each run
//! audited for per-register linearizability, torn cross-shard commits,
//! per-shard view and stable-checkpoint agreement, and liveness.

use base::shard_chaos::{ShardedChaosHarness, APP_XBUSY};
use base::ShardLockService;
use base_pbft::chaos::APP_BYZ;
use base_pbft::testing::CounterService;
use base_pbft::{ByzMode, Replica};
use base_simnet::chaos::{
    generate_schedule, generate_storm_schedule, run_campaign, run_one, CampaignMode, ChaosEvent,
    ChaosHarness, DEFAULT_ARTIFACT_DIR,
};
use base_simnet::{NetFault, NodeId, SimDuration};
use std::collections::{BTreeMap, BTreeSet};

const SEEDS: std::ops::Range<u64> = 0..10;

/// The mixed campaign's harness.
fn mixed_harness() -> ShardedChaosHarness {
    let mut h = ShardedChaosHarness::new(4, 2);
    // Stretch the workload across the fault horizon: faults that land on
    // an idle deployment (no outstanding requests) can never force a view
    // change, and `write_coverage` requires the campaign to exercise one.
    h.singles_per_router = 18;
    h.cross_per_router = 6;
    h
}

#[test]
fn sharded_campaign_composes_faults_and_passes_auditor() {
    let mut h = mixed_harness();
    let cfg = h.gen_config(6, SimDuration::from_secs(8));

    // The generated schedules must collectively exercise the sharding
    // vocabulary: injected lock refusals alongside the generic faults,
    // spread over the replicas of *both* groups.
    let (mut xbusy, mut byz, mut shard0, mut shard1) = (0, 0, 0, 0);
    for seed in SEEDS {
        for ev in &generate_schedule(&cfg, seed).events {
            match &ev.event {
                ChaosEvent::App { tag, node, .. } => {
                    if *tag == APP_XBUSY {
                        xbusy += 1;
                    }
                    if *tag == APP_BYZ {
                        byz += 1;
                    }
                    if node.0 < 4 {
                        shard0 += 1;
                    } else {
                        shard1 += 1;
                    }
                }
                ChaosEvent::Crash { node, .. } => {
                    if node.0 < 4 {
                        shard0 += 1;
                    } else {
                        shard1 += 1;
                    }
                }
                _ => {}
            }
        }
    }
    assert!(
        xbusy > 0 && byz > 0 && shard0 > 0 && shard1 > 0,
        "campaign must compose sharded faults across both groups \
         (xbusy={xbusy} byz={byz} shard0={shard0} shard1={shard1})"
    );

    let report = run_campaign(&mut h, CampaignMode::Mixed, &cfg, SEEDS);
    println!("{}", report.summary());
    if let Err(e) = report.write_artifacts(DEFAULT_ARTIFACT_DIR, "shard_mixed") {
        panic!("{e}");
    }
    assert_eq!(report.runs, SEEDS.end as usize);
    assert!(report.events_executed > 0, "campaign generated no events");
    assert_eq!(report.seed_coverage.len(), report.runs);
    assert!(
        report.coverage.view_changes_started > 0,
        "mixed sharded campaign forced no view changes:\n{}",
        report.coverage
    );
    assert!(
        report.coverage.state_transfers_completed > 0,
        "mixed sharded campaign completed no state transfers:\n{}",
        report.coverage
    );
}

/// Seed 2 of the mixed campaign corrupts frames from node 4, shard 1's
/// replica 0, and the byte it flips is drawn over the whole frame. So its
/// coverage follows the frame's length, which shrank by eight bytes when
/// shard 1 stopped prefixing a shard envelope. Without that one event the
/// run reads the same as it did with the envelope.
#[test]
fn mixed_seed_two_without_its_corruption_of_shard_one_reads_as_before() {
    let mut h = mixed_harness();
    let schedule = generate_schedule(&h.gen_config(6, SimDuration::from_secs(8)), 2);
    let corrupt = schedule.events[3].to_string();
    assert!(corrupt.ends_with("corrupt from node 4 p=0.25 for 1711ms"), "{corrupt}");
    let (run, verdict) = run_one(&mut h, 2, &schedule.without(3));
    verdict.expect("seed 2 without event 3 passes");
    let c = run.coverage;
    let heal_ms = c.heal_to_progress_ns / 1_000_000;
    assert_eq!(
        (c.checkpoints_stable, c.client_ops_submitted, c.client_ops_completed, heal_ms),
        (154, 194, 194, 11_130),
        "{c}"
    );
}

/// A view-change storm confined to shard 0's replicas: the generator
/// chases that group's primary rotation while shard 1 never sees a fault.
/// Every router still finishes all of its work — shard 1 keeps serving
/// throughout, and the cross-shard transactions complete once shard 0
/// converges.
#[test]
fn storm_on_shard_zero_leaves_shard_one_serving() {
    let mut h = ShardedChaosHarness::new(4, 2);
    let mut cfg = h.gen_config(5, SimDuration::from_secs(8));
    cfg.nodes = (0..4).map(NodeId).collect();
    let report = run_campaign(&mut h, CampaignMode::Storm, &cfg, 0..6u64);
    println!("{}", report.summary());
    if let Err(e) = report.write_artifacts(DEFAULT_ARTIFACT_DIR, "shard_storm") {
        panic!("{e}");
    }
    assert!(
        report.coverage.view_changes_started > 0,
        "storm must force view changes in shard 0:\n{}",
        report.coverage
    );
}

/// Seed 1 of the storm above: partition {0}, crash 1, crash 2, partition
/// {3}, partition {0}, and no Byzantine or `xbusy` fault. Shard 0's four
/// replicas, all honest and never tainted, end up storing checkpoints
/// 24..56: node 1's digests differ from its peers' from 24 on, node 0's
/// from 28 on, so at 56 there are three (node 0, node 1, nodes 2 and 3).
/// Stable is stuck at 24 and the high watermark at 56, so the shard can
/// order nothing past 56. The campaign passes only because retained
/// digests are compared on fault-free runs alone. This replays the run as
/// `run_one` does and holds the shard to one retained digest per sequence
/// number.
#[test]
#[ignore = "ROADMAP item 13"]
fn storm_seed_one_leaves_shard_zero_one_digest_per_checkpoint() {
    let mut h = ShardedChaosHarness::new(4, 2);
    let mut cfg = h.gen_config(5, SimDuration::from_secs(8));
    cfg.nodes = (0..4).map(NodeId).collect();
    let schedule = generate_storm_schedule(&cfg, 1);
    let mut sim = h.build(1);
    for ev in &schedule.events {
        if let ChaosEvent::Net { fault, dur } = &ev.event {
            sim.add_fault(fault.clone(), ev.at, ev.at + *dur);
        }
    }
    let mut in_order = schedule.events.clone();
    in_order.sort_by_key(|ev| ev.at);
    for ev in in_order {
        sim.run_until(ev.at);
        match ev.event {
            ChaosEvent::Crash { node, down } => sim.crash(node, down),
            ChaosEvent::Net { .. } => {}
            ChaosEvent::App { .. } => unreachable!("a storm schedules no app fault"),
        }
    }
    sim.run_until(schedule.end() + h.settle());

    let mut digests: BTreeMap<u64, BTreeSet<_>> = BTreeMap::new();
    for i in 0..4 {
        let replica = sim.actor_as::<Replica<ShardLockService<CounterService>>>(NodeId(i));
        let replica = replica.expect("shard 0 replica");
        assert_eq!(replica.byzantine(), ByzMode::Honest);
        for (seq, digest) in replica.checkpoint_digests() {
            digests.entry(seq).or_default().insert(digest);
        }
    }
    for (seq, at_seq) in &digests {
        assert_eq!(at_seq.len(), 1, "shard 0 stores {} digests at seq {seq}", at_seq.len());
    }
}

#[test]
fn sharded_chaos_runs_are_deterministic() {
    let mut h = ShardedChaosHarness::new(4, 2);
    let cfg = h.gen_config(6, SimDuration::from_secs(8));
    let schedule = generate_schedule(&cfg, 42);
    // The generated schedule must be replayable byte-for-byte: trace,
    // network statistics and verdict — the property ddmin relies on.
    let (a, va) = run_one(&mut h, 42, &schedule);
    let (b, vb) = run_one(&mut h, 42, &schedule);
    assert_eq!(a.trace, b.trace, "same seed + schedule must replay the same trace");
    assert_eq!(a.stats, b.stats);
    assert_eq!(va, vb);
}

/// A partition isolating one replica of each shard in turn must heal into
/// full progress: every router's pending single- and cross-shard work
/// completes within the engine's heal-to-progress bound.
#[test]
fn partition_of_each_shard_heals_to_progress() {
    use base_simnet::chaos::FaultSchedule;
    use base_simnet::SimTime;

    let mut h = ShardedChaosHarness::new(4, 2);
    let mut schedule = FaultSchedule::new();
    schedule
        .net(
            SimTime::from_millis(500),
            NetFault::Partition { nodes: vec![NodeId(0)] },
            SimDuration::from_secs(2),
        )
        .net(
            SimTime::from_secs(3),
            NetFault::Partition { nodes: vec![NodeId(4)] },
            SimDuration::from_secs(2),
        );
    for seed in 0..3u64 {
        let (outcome, verdict) = run_one(&mut h, seed, &schedule);
        assert_eq!(
            verdict,
            Ok(()),
            "heal-to-progress failed (seed {seed}):\n{}",
            outcome.trace.join("\n")
        );
        assert_eq!(outcome.coverage.liveness_violations, 0);
    }
}
