//! Chaos campaign over the BASE-replicated OODB: the same non-deterministic
//! implementation on every replica, divergent concrete heaps, and an
//! auditor holding the abstract state to byte-identical agreement while
//! crashes, partitions, Byzantine flips and latent corruption compose.

use base::BaseService;
use base_oodb::chaos::OodbChaosHarness;
use base_oodb::wrapper::OodbWrapper;
use base_pbft::chaos::{Group, APP_CORRUPT_STATE, APP_RECOVER, CAMPAIGN_BOUNDS};
use base_pbft::ReplicaRef;
use base_simnet::chaos::{
    run_campaign, run_one, CampaignMode, ChaosHarness, FaultSchedule, LivenessBounds,
};
use base_simnet::NetFault;
use base_simnet::tracediff::{divergence_report, first_divergence};
use base_simnet::{NodeId, SimDuration, SimTime, Simulation};

/// The trace-diff lab on the OODB testbed: a clean run and a same-seed run
/// with an injected corruption+recovery produce protocol traces whose
/// first divergence names the recovery's impact — deterministically.
#[test]
fn tracediff_localizes_fault_impact() {
    let mut h = OodbChaosHarness::new(4);
    let clean = run_one(&mut h, 23, &FaultSchedule::new()).0;
    let mut schedule = FaultSchedule::new();
    schedule
        .app(SimTime::from_millis(1500), NodeId(2), APP_CORRUPT_STATE, 5)
        .app(SimTime::from_millis(2500), NodeId(2), APP_RECOVER, 0);
    let faulted = run_one(&mut h, 23, &schedule).0;

    let d = first_divergence(&clean.events, &faulted.events).expect("fault must show in trace");
    let report = divergence_report(&clean.events, &faulted.events, 2, "clean", "faulted");
    assert!(
        report.contains(&format!("first divergence at event index {}", d.index)),
        "{report}"
    );
    // The injected fault targets node 2; its recovery must appear in the
    // windowed context.
    assert!(report.contains("recovery_started"), "{report}");

    // Same seeds replayed give the identical report, byte for byte.
    let clean2 = run_one(&mut h, 23, &FaultSchedule::new()).0;
    let faulted2 = run_one(&mut h, 23, &schedule).0;
    assert_eq!(report, divergence_report(&clean2.events, &faulted2.events, 2, "clean", "faulted"));
}

#[test]
fn fault_free_oodb_run_passes_audit() {
    let mut h = OodbChaosHarness::new(4);
    let (outcome, verdict) = run_one(&mut h, 17, &FaultSchedule::new());
    assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
}

#[test]
fn corrupted_heap_is_repaired_through_abstraction() {
    let mut h = OodbChaosHarness::new(4);
    let mut schedule = FaultSchedule::new();
    schedule
        .app(SimTime::from_millis(1500), NodeId(2), APP_CORRUPT_STATE, 5)
        .app(SimTime::from_millis(2500), NodeId(2), APP_RECOVER, 0);
    let (outcome, verdict) = run_one(&mut h, 23, &schedule);
    assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
    assert!(
        outcome.coverage.recoveries_completed > 0,
        "recovery must complete: {}",
        outcome.coverage
    );
}

#[test]
fn oodb_campaign_passes_audit_with_coverage() {
    let cfg = OodbChaosHarness::new(4).gen_config(6, SimDuration::from_secs(8));
    let report =
        run_campaign(|| OodbChaosHarness::new(4), CampaignMode::Mixed, &cfg, 200..214, 1);
    if let Some(f) = report.failures.first() {
        panic!("oodb campaign failed:\n{f}");
    }
    println!("{}", report.summary());

    // The campaign must actually exercise the paper's mechanisms on the
    // OODB — at least one forced view change and one completed state
    // transfer across the campaign, not merely scheduled faults.
    let cov = report.coverage;
    assert!(cov.view_changes_started > 0, "campaign forced no view changes:\n{cov}");
    assert!(
        cov.state_transfers_completed > 0,
        "campaign completed no state transfers:\n{cov}"
    );

    report.write_coverage("oodb_mixed").unwrap();
}

/// The OODB harness held to the two view checks every other harness runs
/// and it leaves out: the engine's view-convergence bound and the group's
/// view-agreement audit. Goes away, with the opt-out in
/// `OodbChaosHarness::liveness_bounds`, when the test below passes.
struct WithViewChecks(OodbChaosHarness);

impl ChaosHarness for WithViewChecks {
    fn build(&mut self, seed: u64) -> Simulation {
        self.0.build(seed)
    }

    fn apply_app(
        &mut self,
        sim: &mut Simulation,
        node: NodeId,
        tag: u32,
        arg: u64,
        trace: &mut Vec<String>,
    ) {
        self.0.apply_app(sim, node, tag, arg, trace);
    }

    fn settle(&self) -> SimDuration {
        self.0.settle()
    }

    fn liveness_bounds(&self) -> LivenessBounds {
        CAMPAIGN_BOUNDS
    }

    fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
        self.0.audit(sim, trace)?;
        let nodes: Vec<NodeId> = (0..self.0.cfg.n).map(NodeId).collect();
        let group = Group::of::<BaseService<OodbWrapper>>(sim, &nodes);
        group.audit_view_agreement(&group.members(sim))
    }

    fn describe(&self, sim: &Simulation) -> Vec<String> {
        let replica = |i| ReplicaRef::of::<BaseService<OodbWrapper>>(NodeId(i)).get(sim).status();
        (0..self.0.cfg.n).map(replica).collect()
    }
}

/// A replica that starts a view change alone must end up back in the view
/// its peers never left. Today it runs away: replica 2, back from a crash
/// with its outbound traffic still bit-flipped, starts a view change by
/// itself at 3.55 s; its peers stay in view 0, finish the workload and go
/// idle; replica 2 escalates on its own doubling timer — v2 at 4.05 s, v3
/// 5.05, v4 7.05, v5 11.05, v6 19.05, v7 27.05 (`vc=7/0`) — and the group
/// settles in two views (`view agreement: … replica 0 in view 0, replica 2
/// in view 7`). This is seed 201 of the blessed metrics campaign
/// (`gen_config(4, 6 s)`) under the full bounds, minimized by ddmin; the
/// parameters are `FailureReport::minimal`'s, to the nanosecond. On the
/// unminimized four-event schedule the lone changer is replica 1 and the
/// other check fires first: `view-convergence: node 1 started a view change
/// (v8) 28865ms after the last fault healed`.
#[test]
#[ignore = "ROADMAP item 1: a lone view changer escalates by itself and never rejoins"]
fn lone_view_changer_rejoins() {
    let mut schedule = FaultSchedule::new();
    schedule
        .net(
            SimTime::from_nanos(2_244_513_939),
            NetFault::Corrupt { from: NodeId(2), prob: 0.489205 },
            SimDuration::from_nanos(1_065_315_247),
        )
        .crash(SimTime::from_nanos(2_694_575_492), NodeId(2), SimDuration::from_nanos(155_818_132));
    let mut h = WithViewChecks(OodbChaosHarness::new(4));
    let (outcome, verdict) = run_one(&mut h, 201, &schedule);
    assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
}
