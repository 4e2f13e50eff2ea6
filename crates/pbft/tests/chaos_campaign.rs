//! Chaos campaigns over a replicated `CounterService` group: many seeded
//! runs composing crash windows, healing partitions, Byzantine-mode flips
//! and latent state corruption, each audited for linearizability, absence
//! of checkpoint forks, reply-certificate consistency and liveness — plus
//! the demonstration that a deliberately injected client safety bug is
//! caught by the auditor and shrunk to a minimal replayable schedule.

use base_pbft::chaos::{CounterWorkload, ServiceCampaign, APP_BYZ, APP_CORRUPT_STATE, APP_RECOVER};
use base_pbft::ByzMode;
use base_simnet::chaos::{
    generate_schedule, minimize, run_campaign, run_one, CampaignMode, ChaosEvent, FaultSchedule,
    DEFAULT_ARTIFACT_DIR,
};
use base_simnet::ddmin::{ddmin_from_failure, CountingHarness};
use base_simnet::tracediff::divergence_report;
use base_simnet::{NetFault, NodeId, SimDuration, SimTime};

const SEEDS: std::ops::Range<u64> = 0..20;

fn counter() -> ServiceCampaign<CounterWorkload> {
    ServiceCampaign::new(4, CounterWorkload::default())
}

/// The counter campaign whose clients accept the first full reply without
/// a quorum.
fn buggy_counter() -> ServiceCampaign<CounterWorkload> {
    let mut workload = CounterWorkload::default();
    workload.inject_client_bug = true;
    ServiceCampaign::new(4, workload)
}

#[test]
fn campaign_composes_faults_and_passes_auditor() {
    let cfg = counter().gen_config(6, SimDuration::from_secs(8));

    // The generated schedules must collectively exercise every fault
    // category the campaign claims to compose.
    let (mut crashes, mut partitions, mut byz, mut corrupt) = (0, 0, 0, 0);
    for seed in SEEDS {
        for ev in &generate_schedule(&cfg, seed).events {
            match &ev.event {
                ChaosEvent::Crash { .. } => crashes += 1,
                ChaosEvent::Net { fault: NetFault::Partition { .. }, .. } => partitions += 1,
                ChaosEvent::App { tag, arg, .. } if *tag == APP_BYZ && *arg != 0 => byz += 1,
                ChaosEvent::App { tag, .. } if *tag == APP_CORRUPT_STATE => corrupt += 1,
                _ => {}
            }
        }
    }
    assert!(
        crashes > 0 && partitions > 0 && byz > 0 && corrupt > 0,
        "campaign must compose all fault categories \
         (crashes={crashes} partitions={partitions} byz={byz} corrupt={corrupt})"
    );

    let report = run_campaign(counter, CampaignMode::Mixed, &cfg, SEEDS, 1);
    println!("{}", report.summary());
    if let Err(e) = report.write_artifacts(DEFAULT_ARTIFACT_DIR, "counter_mixed") {
        panic!("{e}");
    }
    assert_eq!(report.runs, SEEDS.end as usize);
    assert!(report.events_executed > 0, "campaign generated no events");

    // Coverage is derived from the protocol event trace of every run; a
    // 20-run mixed campaign must actually force the paper's recovery
    // mechanisms, not merely schedule faults.
    let cov = report.coverage;
    assert!(cov.view_changes_started > 0, "campaign forced no view changes:\n{cov}");
    assert!(cov.state_transfers_completed > 0, "campaign completed no state transfers:\n{cov}");
    assert!(cov.recoveries_completed > 0, "campaign completed no recoveries:\n{cov}");
    assert!(cov.corrupt_state_repairs > 0, "campaign repaired no corrupt state:\n{cov}");
    assert_eq!(report.seed_coverage.len(), report.runs);
}

#[test]
fn storm_campaign_forces_view_changes_and_converges() {
    let cfg = counter().gen_config(5, SimDuration::from_secs(8));
    let storm = |workers| run_campaign(counter, CampaignMode::Storm, &cfg, 0..8u64, workers);
    let report = storm(4);
    println!("{}", report.summary());
    if let Err(e) = report.write_artifacts(DEFAULT_ARTIFACT_DIR, "counter_storm") {
        panic!("{e}");
    }
    assert!(
        report.coverage.view_changes_completed > 0,
        "primary-targeting storm must complete view changes:\n{}",
        report.coverage
    );
    let runs_with_view_change = report.runs_with(|c| c.view_changes_started > 0);
    assert!(
        runs_with_view_change >= report.runs / 2,
        "most storm runs should force a view change ({runs_with_view_change}/{})",
        report.runs
    );

    // The parallel runner is a determinism-preserving optimization: the
    // merged report must be byte-identical to the sequential one.
    let sequential = storm(1);
    assert_eq!(report.summary(), sequential.summary());
    assert_eq!(report.coverage_json(), sequential.coverage_json());
}

#[test]
fn injected_client_bug_is_caught_and_minimized() {
    let mut h = buggy_counter();

    // The trigger (a reply-corrupting replica) is buried among harmless
    // decoy events; the minimizer must dig it out.
    let mut schedule = FaultSchedule::new();
    schedule
        .net(
            SimTime::from_millis(100),
            NetFault::Duplicate { prob: 0.2 },
            SimDuration::from_secs(2),
        )
        .app(
            SimTime::from_millis(200),
            NodeId(1),
            APP_BYZ,
            ByzMode::CorruptReplies.code(),
        )
        .net(
            SimTime::from_secs(1),
            NetFault::Slow {
                from: NodeId(0),
                to: NodeId(2),
                extra: SimDuration::from_millis(20),
            },
            SimDuration::from_secs(2),
        );

    let seed = 5;
    let (outcome, verdict) = run_one(&mut h, seed, &schedule);
    assert!(
        verdict.is_err(),
        "quorum-skipping client must accept a fabricated reply; trace:\n{}",
        outcome.trace.join("\n")
    );

    let minimal = minimize(&mut h, seed, &schedule);
    assert_eq!(minimal.len(), 1, "expected single-event repro:\n{}", minimal.describe());
    assert!(
        matches!(minimal.events[0].event, ChaosEvent::App { tag: APP_BYZ, .. }),
        "minimal schedule must retain the Byzantine replier:\n{}",
        minimal.describe()
    );

    // Seed + minimal schedule replay the failure exactly.
    let (a, va) = run_one(&mut h, seed, &minimal);
    let (b, vb) = run_one(&mut h, seed, &minimal);
    assert!(va.is_err());
    assert_eq!(a, b);
    assert_eq!(va, vb);
}

/// ddmin on the counter testbed strips every decoy around the injected
/// client bug's trigger, the divergence report between the full and the
/// minimal run names the first protocol event that changed, and the search
/// itself is bounded by the subset cache.
#[test]
fn ddmin_strips_decoys_and_localizes_divergence() {
    let seed = 5;
    let schedule = {
        let mut s = FaultSchedule::new();
        s.net(
            SimTime::from_millis(100),
            NetFault::Duplicate { prob: 0.2 },
            SimDuration::from_secs(2),
        )
        .app(SimTime::from_millis(200), NodeId(1), APP_BYZ, ByzMode::CorruptReplies.code())
        .crash(SimTime::from_millis(700), NodeId(2), SimDuration::from_millis(400))
        .net(
            SimTime::from_secs(1),
            NetFault::Slow {
                from: NodeId(0),
                to: NodeId(2),
                extra: SimDuration::from_millis(20),
            },
            SimDuration::from_secs(2),
        );
        s
    };

    let mut h = CountingHarness::new(buggy_counter());
    let (full, verdict) = run_one(&mut h, seed, &schedule);
    assert!(verdict.is_err());
    let builds_before = h.builds;

    let dd = ddmin_from_failure(&mut h, seed, &schedule, Some(&full));
    assert_eq!(dd.schedule.len(), 1, "expected single-event repro:\n{}", dd.schedule.describe());
    assert!(
        matches!(dd.schedule.events[0].event, ChaosEvent::App { tag: APP_BYZ, .. }),
        "minimal schedule must retain the Byzantine replier:\n{}",
        dd.schedule.describe()
    );
    // Every harness build past the initial run was a ddmin execution —
    // the known-failing full run is never re-executed.
    assert_eq!(
        (h.builds - builds_before) as u64,
        dd.metrics.counter("ddmin.executions"),
        "{}",
        dd.metrics.to_json()
    );

    // Stripping the decoys changes observable protocol behaviour (no
    // duplicate storm, no crash), so the traces diverge and the report
    // pins the first differing event with replica context.
    let report = divergence_report(&full.events, &dd.outcome.events, 3, "full", "minimal");
    assert!(
        report.contains("first divergence at event index"),
        "expected a localized divergence:\n{report}"
    );
    assert!(report.contains("context (±3 events per replica):"), "{report}");

    // Deterministic: a fresh harness reproduces both byte-for-byte.
    let mut h2 = buggy_counter();
    let (full2, _) = run_one(&mut h2, seed, &schedule);
    let dd2 = ddmin_from_failure(&mut h2, seed, &schedule, Some(&full2));
    assert_eq!(dd.schedule.describe(), dd2.schedule.describe());
    assert_eq!(
        report,
        divergence_report(&full2.events, &dd2.outcome.events, 3, "full", "minimal")
    );
}

/// Drops and corruption of the transfer replies (ObjectReply is tag 11,
/// MetaReply tag 9) layered over a crash that forces state transfer:
/// every campaign invariant must still hold — a corrupt object or
/// partition reply is shed by its digest check and re-fetched from the
/// next source, and drops are absorbed by the fetch window's
/// retransmission.
#[test]
fn transfer_campaign_survives_transfer_reply_faults() {
    let mut h = counter();
    let mut schedule = FaultSchedule::new();
    schedule
        .crash(SimTime::from_millis(400), NodeId(3), SimDuration::from_secs(3))
        .net(
            SimTime::from_millis(300),
            NetFault::DropTagged { tag: 11, prob: 0.3 },
            SimDuration::from_secs(6),
        )
        .net(
            SimTime::from_secs(4),
            NetFault::CorruptTagged { tag: 11, prob: 0.4 },
            SimDuration::from_secs(4),
        )
        .net(
            SimTime::from_secs(5),
            NetFault::CorruptTagged { tag: 9, prob: 0.3 },
            SimDuration::from_secs(3),
        );

    let mut transfers = 0u64;
    for seed in 0..4u64 {
        let (outcome, verdict) = run_one(&mut h, seed, &schedule);
        assert_eq!(
            verdict,
            Ok(()),
            "run under transfer-reply faults failed (seed {seed}):\n{}",
            outcome.trace.join("\n")
        );
        transfers += outcome.coverage.state_transfers_completed;
    }
    assert!(transfers > 0, "the crash window must force at least one state transfer");
}

/// The injected client bug's trigger buried among tagged transfer-reply
/// faults: ddmin must treat them as first-class schedule events — digest
/// them, strip them as decoys and keep only the Byzantine replier.
#[test]
fn ddmin_strips_transfer_reply_fault_decoys() {
    let mut h = buggy_counter();
    let mut schedule = FaultSchedule::new();
    schedule
        .net(
            SimTime::from_millis(100),
            NetFault::DropTagged { tag: 11, prob: 0.4 },
            SimDuration::from_secs(2),
        )
        .app(SimTime::from_millis(200), NodeId(1), APP_BYZ, ByzMode::CorruptReplies.code())
        .net(
            SimTime::from_millis(600),
            NetFault::CorruptTagged { tag: 9, prob: 0.4 },
            SimDuration::from_secs(2),
        );

    let seed = 5;
    let (outcome, verdict) = run_one(&mut h, seed, &schedule);
    assert!(verdict.is_err(), "trigger must fire; trace:\n{}", outcome.trace.join("\n"));

    let minimal = minimize(&mut h, seed, &schedule);
    assert_eq!(minimal.len(), 1, "tagged-fault decoys must be stripped:\n{}", minimal.describe());
    assert!(
        matches!(minimal.events[0].event, ChaosEvent::App { tag: APP_BYZ, .. }),
        "minimal schedule must retain the Byzantine replier:\n{}",
        minimal.describe()
    );
}

#[test]
fn pbft_chaos_runs_are_deterministic() {
    let mut h = counter();
    let cfg = h.gen_config(6, SimDuration::from_secs(8));
    let schedule = generate_schedule(&cfg, 42);
    let (a, va) = run_one(&mut h, 42, &schedule);
    let (b, vb) = run_one(&mut h, 42, &schedule);
    assert_eq!(a.trace, b.trace, "same seed + schedule must replay the same trace");
    assert_eq!(a.stats, b.stats, "same seed + schedule must produce identical NetStats");
    assert_eq!(va, vb);
}

/// A partition that heals must be followed by every client's pending work
/// completing within the heal-to-progress bound — and the whole run
/// (coverage counters included) must be byte-identical when replayed.
#[test]
fn partition_heal_liveness_is_bounded_and_deterministic() {
    let mut schedule = FaultSchedule::new();
    schedule.net(
        SimTime::from_millis(500),
        NetFault::Partition { nodes: vec![NodeId(0)] },
        SimDuration::from_secs(2),
    );

    let run = |seed: u64| {
        let mut h = counter();
        run_one(&mut h, seed, &schedule)
    };
    for seed in 0..4u64 {
        let (outcome, verdict) = run(seed);
        assert!(
            verdict.is_ok(),
            "partition heal violated a liveness bound (seed {seed}):\n{}\n{}",
            verdict.unwrap_err(),
            outcome.trace.join("\n")
        );
        let cov = outcome.coverage;
        assert!(cov.client_ops_submitted > 0, "no submissions traced:\n{cov}");
        assert_eq!(
            cov.client_ops_submitted, cov.client_ops_completed,
            "every submitted op must complete:\n{cov}"
        );
        assert!(
            cov.heal_to_progress_ns > 0,
            "some op must have completed after the heal:\n{cov}"
        );
        assert_eq!(cov.liveness_violations, 0, "{cov}");

        // Byte-identical replay: trace, stats, coverage.
        let (again, verdict2) = run(seed);
        assert_eq!(outcome, again);
        assert_eq!(verdict.is_ok(), verdict2.is_ok());
    }
}

/// The seeded stall bug — a client that never retransmits — is caught by
/// the heal-to-progress auditor and shrinks to the single partition that
/// loses the request, with the decoys stripped.
#[test]
fn stall_bug_is_caught_by_heal_to_progress_and_minimized() {
    let mut workload = CounterWorkload::default();
    workload.inject_stall_bug = true;
    let mut h = ServiceCampaign::new(4, workload);

    // The trigger (a healing partition swallowing an in-flight request) is
    // buried among harmless decoys.
    let mut schedule = FaultSchedule::new();
    schedule
        .net(
            SimTime::from_millis(100),
            NetFault::Duplicate { prob: 0.2 },
            SimDuration::from_secs(2),
        )
        .net(
            SimTime::from_millis(500),
            NetFault::Partition { nodes: vec![NodeId(0)] },
            SimDuration::from_secs(2),
        )
        .net(
            SimTime::from_secs(1),
            NetFault::Slow {
                from: NodeId(1),
                to: NodeId(2),
                extra: SimDuration::from_millis(20),
            },
            SimDuration::from_secs(2),
        );

    let seed = 3;
    let (outcome, verdict) = run_one(&mut h, seed, &schedule);
    let reason = verdict.expect_err("a never-retransmitting client must stall");
    assert!(
        reason.contains("heal-to-progress"),
        "stall must be attributed to the heal-to-progress auditor, got: {reason}\n{}",
        outcome.trace.join("\n")
    );

    let minimal = minimize(&mut h, seed, &schedule);
    assert_eq!(minimal.len(), 1, "expected single-event repro:\n{}", minimal.describe());
    assert!(
        matches!(
            minimal.events[0].event,
            ChaosEvent::Net { fault: NetFault::Partition { .. }, .. }
        ),
        "minimal schedule must retain the request-losing partition:\n{}",
        minimal.describe()
    );

    // The minimized repro replays the same liveness failure exactly.
    let (a, va) = run_one(&mut h, seed, &minimal);
    let (b, vb) = run_one(&mut h, seed, &minimal);
    let ra = va.expect_err("minimal repro must still stall");
    assert!(ra.contains("heal-to-progress"), "{ra}");
    assert_eq!(a, b);
    assert_eq!(Err(ra), vb);
}

/// A proactive recovery that begins while its replica is still partitioned
/// must finish once the partition heals. Node 3 starts recovering 1.6 ms
/// before its partition ends and fetches checkpoint 20, which every peer
/// has already collected on adopting 24, so the fetch's queries go
/// unanswered. Only the idle STATUS and FETCH-CERT probes tell a fetching
/// replica that the group moved past its target; silenced during a fetch,
/// they left the recovery open 30 s later. With them, the CERT-REPLY for 24
/// replaces the stale fetch. This is seed 216 of `gen_config(4, 6 s)`,
/// minimized by ddmin; the parameters are `FailureReport::minimal`'s, to
/// the nanosecond.
#[test]
fn recovery_started_while_partitioned_completes() {
    let mut schedule = FaultSchedule::new();
    schedule
        .net(
            SimTime::from_nanos(2_417_062_323),
            NetFault::Partition { nodes: vec![NodeId(3)] },
            SimDuration::from_nanos(1_082_937_678),
        )
        .app(SimTime::from_nanos(3_498_380_757), NodeId(3), APP_RECOVER, 0);
    let (outcome, verdict) = run_one(&mut counter(), 216, &schedule);
    assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
    assert_eq!(outcome.coverage.recoveries_completed, 1, "{}", outcome.coverage);
}
