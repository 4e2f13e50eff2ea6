//! Chaos campaign over the BASE-replicated OODB: the same non-deterministic
//! implementation on every replica, divergent concrete heaps, and an
//! auditor holding the abstract state to byte-identical agreement while
//! crashes, partitions, Byzantine flips and latent corruption compose.

use base_oodb::chaos::OodbWorkload;
use base_pbft::chaos::{ServiceCampaign, APP_CORRUPT_STATE, APP_RECOVER};
use base_simnet::chaos::{
    run_campaign, run_one, CampaignMode, FaultSchedule, DEFAULT_ARTIFACT_DIR,
};
use base_simnet::NetFault;
use base_simnet::tracediff::{divergence_report, first_divergence};
use base_simnet::{NodeId, SimDuration, SimTime};

fn oodb() -> ServiceCampaign<OodbWorkload> {
    ServiceCampaign::new(4, OodbWorkload::default())
}

/// The trace-diff lab on the OODB testbed: a clean run and a same-seed run
/// with an injected corruption+recovery produce protocol traces whose
/// first divergence names the recovery's impact — deterministically.
#[test]
fn tracediff_localizes_fault_impact() {
    let mut h = oodb();
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
    let mut h = oodb();
    let (outcome, verdict) = run_one(&mut h, 17, &FaultSchedule::new());
    assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
}

#[test]
fn corrupted_heap_is_repaired_through_abstraction() {
    let mut h = oodb();
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
    let mut h = oodb();
    let cfg = h.gen_config(6, SimDuration::from_secs(8));
    let report = run_campaign(&mut h, CampaignMode::Mixed, &cfg, 200..214);
    println!("{}", report.summary());
    if let Err(e) = report.write_artifacts(DEFAULT_ARTIFACT_DIR, "oodb_mixed") {
        panic!("{e}");
    }

    // The campaign must actually exercise the paper's mechanisms on the
    // OODB — at least one forced view change and one completed state
    // transfer across the campaign, not merely scheduled faults.
    let cov = report.coverage;
    assert!(cov.view_changes_started > 0, "campaign forced no view changes:\n{cov}");
    assert!(
        cov.state_transfers_completed > 0,
        "campaign completed no state transfers:\n{cov}"
    );
}

/// A replica that suspects the primary alone must end up in the view its
/// peers never left. Replica 2, back from a crash with its outbound traffic
/// still bit-flipped, times out by itself at 3.55 s. A timeout is a
/// suspicion, and a replica leaves its view only once 2f+1 replicas have
/// voted for the next, so replica 2 stays in view 0; a replica that left
/// alone would escalate v2…v7 on its own timer and the group would settle
/// in two views. This is seed 201 of the blessed metrics campaign
/// (`gen_config(4, 6 s)`) under the full bounds, minimized by ddmin; the
/// parameters are `FailureReport::minimal`'s, to the nanosecond.
#[test]
fn lone_view_changer_rejoins() {
    let mut schedule = FaultSchedule::new();
    schedule
        .net(
            SimTime::from_nanos(2_244_513_939),
            NetFault::Corrupt { from: NodeId(2), prob: 0.489205 },
            SimDuration::from_nanos(1_065_315_247),
        )
        .crash(SimTime::from_nanos(2_694_575_492), NodeId(2), SimDuration::from_nanos(155_818_132));
    let mut h = oodb();
    let (outcome, verdict) = run_one(&mut h, 201, &schedule);
    assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
}
