//! Chaos campaigns over the sharded multi-group deployment: seeded runs
//! composing crash windows, partitions, Byzantine flips, latent state
//! corruption and injected cross-shard lock refusals against two
//! independent replica groups driven by cross-shard routers — each run
//! audited for per-register linearizability, torn cross-shard commits,
//! per-shard view and stable-checkpoint agreement, and liveness.

use base::shard_chaos::{ShardedChaosHarness, APP_XBUSY};
use base_pbft::chaos::APP_BYZ;
use base_simnet::chaos::{generate_schedule, run_campaign, run_one, CampaignMode, ChaosEvent};
use base_simnet::{NetFault, NodeId, SimDuration};

const SEEDS: std::ops::Range<u64> = 0..10;

#[test]
fn sharded_campaign_composes_faults_and_passes_auditor() {
    let harness = || {
        let mut h = ShardedChaosHarness::new(4, 2);
        // Stretch the workload across the fault horizon: faults that land
        // on an idle deployment (no outstanding requests) can never force a
        // view change, and `write_coverage` requires the campaign to
        // exercise one.
        h.singles_per_router = 18;
        h.cross_per_router = 6;
        h
    };
    let cfg = harness().gen_config(6, SimDuration::from_secs(8));

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

    let report = run_campaign(harness, CampaignMode::Mixed, &cfg, SEEDS, 1);
    assert_eq!(report.runs, SEEDS.end as usize);
    assert!(report.events_executed > 0, "campaign generated no events");
    if let Some(f) = report.failures.first() {
        panic!("sharded campaign failed:\n{f}");
    }
    println!("{}", report.summary());
    report.write_coverage("shard_mixed").unwrap();
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

/// A view-change storm confined to shard 0's replicas: the generator
/// chases that group's primary rotation while shard 1 never sees a fault.
/// Every router still finishes all of its work — shard 1 keeps serving
/// throughout, and the cross-shard transactions complete once shard 0
/// converges.
#[test]
fn storm_on_shard_zero_leaves_shard_one_serving() {
    let harness = || ShardedChaosHarness::new(4, 2);
    let mut cfg = harness().gen_config(5, SimDuration::from_secs(8));
    cfg.nodes = (0..4).map(NodeId).collect();
    let report = run_campaign(harness, CampaignMode::Storm, &cfg, 0..6u64, 1);
    if let Some(f) = report.failures.first() {
        panic!("shard-0 storm campaign failed:\n{f}");
    }
    println!("{}", report.summary());
    report.write_coverage("shard_storm").unwrap();
    assert!(
        report.coverage.view_changes_started > 0,
        "storm must force view changes in shard 0:\n{}",
        report.coverage
    );
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
