//! Chaos campaign acceptance tests for the replicated NFS service: 20
//! seeded runs with generated schedules (crashes, healing partitions,
//! Byzantine flips, latent state corruption + proactive recovery) must all
//! pass the client-view auditor on the heterogeneous testbed, and the
//! deterministic common-mode bug must be caught on the homogeneous testbed
//! and shrink to an *empty* schedule (no injected fault needed).

use base_bench::experiments::faultinj::NfsWorkload;
use base_bench::FsMix;
use base_pbft::chaos::{CounterWorkload, ServiceCampaign, APP_BYZ};
use base_pbft::ByzMode;
use base_simnet::chaos::{
    minimize, run_campaign, run_one, CampaignMode, FaultSchedule, DEFAULT_ARTIFACT_DIR,
};
use base_simnet::NetFault;
use base_simnet::ddmin::CountingHarness;
use base_simnet::{NodeId, SimDuration, SimTime};

fn nfs(mix: FsMix, with_latent_bug: bool) -> ServiceCampaign<NfsWorkload> {
    ServiceCampaign::new(4, NfsWorkload { mix, with_latent_bug })
}

#[test]
fn nfs_campaign_passes_auditor() {
    let mut h = nfs(FsMix::Heterogeneous, false);
    let cfg = h.gen_config(5, SimDuration::from_secs(6));
    let report = run_campaign(&mut h, CampaignMode::Mixed, &cfg, 6200..6220);
    // A failure leaves its minimized schedule, divergence report and traces
    // under target/repro/nfs_mixed/, where CI uploads them. Acceptance
    // campaigns must exercise the paper's mechanisms, not just schedule
    // faults: the writer also fails a campaign that forced no view change.
    println!("{}", report.summary());
    if let Err(e) = report.write_artifacts(DEFAULT_ARTIFACT_DIR, "nfs_mixed") {
        panic!("{e}");
    }
    assert_eq!(report.runs, 20);
    assert!(report.events_executed > 0);
}

#[test]
fn common_mode_bug_fails_homogeneous_and_minimizes_to_empty() {
    let mut h = nfs(FsMix::HomogeneousInode, true);
    let schedule = FaultSchedule::new();
    let (outcome, verdict) = run_one(&mut h, 1, &schedule);
    assert!(
        verdict.is_err(),
        "homogeneous group must serve the commonly corrupted data; trace:\n{}",
        outcome.trace.join("\n")
    );

    // With decoy faults scheduled, minimization strips them all: the
    // failure needs no injected fault — the bug is in the service.
    let cfg = h.gen_config(4, SimDuration::from_secs(6));
    let decoys = base_simnet::chaos::generate_schedule(&cfg, 77);
    let (_, v) = run_one(&mut h, 77, &decoys);
    assert!(v.is_err());
    let minimal = minimize(&mut h, 77, &decoys);
    assert!(
        minimal.is_empty(),
        "common-mode bug needs no injected fault; got:\n{}",
        minimal.describe()
    );
}

/// ISSUE 3 acceptance: on a seeded 20-run NFS campaign with an injected
/// auditor violation (the armed common-mode latent bug), ddmin produces a
/// schedule no larger than the greedy minimizer's with fewer or equal
/// harness executions, `tracediff` names the first diverging event, and
/// both outputs are byte-identical across two runs with the same seed.
#[test]
fn repro_lab_acceptance_buggy_campaign() {
    let buggy = || nfs(FsMix::HomogeneousInode, true);
    let cfg = buggy().gen_config(3, SimDuration::from_secs(4));
    let run = || run_campaign(&mut buggy(), CampaignMode::Mixed, &cfg, 7000..7020);
    let report = run();
    assert_eq!(report.runs, 20);
    assert!(!report.passed(), "latent bug must violate the auditor");

    // Every failure minimizes to the empty schedule (the bug is in the
    // service, not the injected faults), its divergence report names the
    // first diverging protocol event, and ddmin's bookkeeping shows it
    // reused the already-known failing run.
    for f in &report.failures {
        assert!(
            f.minimal.is_empty(),
            "seed {}: common-mode bug needs no injected fault; got:\n{}",
            f.seed,
            f.minimal.describe()
        );
        if f.schedule.is_empty() {
            continue;
        }
        assert!(
            f.divergence.contains("first divergence at event index")
                || f.divergence.contains("traces are identical"),
            "seed {}: divergence report must localize or clear:\n{}",
            f.seed,
            f.divergence
        );
        // ddmin on an already-known failure tries the empty schedule
        // first: exactly one execution, versus the greedy minimizer's one
        // execution per event — fewer or equal, as the ISSUE requires.
        let executions = f.ddmin_metrics.counter("ddmin.executions");
        assert_eq!(executions, 1, "seed {}: {}", f.seed, f.ddmin_metrics.to_json());

        let mut greedy_h = CountingHarness::new(buggy());
        let greedy = minimize(&mut greedy_h, f.seed, &f.schedule);
        assert!(f.minimal.len() <= greedy.len());
        assert!(
            executions <= greedy_h.builds as u64,
            "seed {}: ddmin used {executions} executions, greedy used {}",
            f.seed,
            greedy_h.builds
        );
    }

    // Same seeds ⇒ byte-identical minimized schedules and divergence
    // reports.
    let again = run();
    assert_eq!(report.failures.len(), again.failures.len());
    for (a, b) in report.failures.iter().zip(again.failures.iter()) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.minimal.describe(), b.minimal.describe());
        assert_eq!(a.divergence, b.divergence);
        assert_eq!(a.ddmin_metrics.to_json(), b.ddmin_metrics.to_json());
        assert_eq!(
            base_simnet::trace::export_jsonl(&a.minimal_events),
            base_simnet::trace::export_jsonl(&b.minimal_events)
        );
    }
}

#[test]
fn heterogeneous_masks_the_deterministic_bug() {
    let mut h = nfs(FsMix::Heterogeneous, true);
    let (outcome, verdict) = run_one(&mut h, 1, &FaultSchedule::new());
    assert_eq!(
        verdict,
        Ok(()),
        "one InodeFs replica cannot outvote three clean ones; trace:\n{}",
        outcome.trace.join("\n")
    );
}

/// A healing partition on the NFS testbed must be followed by bounded
/// progress: the relay's pending operations complete within the
/// heal-to-progress bound, and the whole outcome replays byte-identically.
#[test]
fn nfs_partition_heal_liveness_is_bounded_and_deterministic() {
    let mut schedule = FaultSchedule::new();
    schedule.net(
        SimTime::from_millis(600),
        NetFault::Partition { nodes: vec![NodeId(0)] },
        SimDuration::from_secs(2),
    );

    let run = |seed: u64| {
        run_one(&mut nfs(FsMix::Heterogeneous, false), seed, &schedule)
    };
    for seed in [11u64, 12] {
        let (outcome, verdict) = run(seed);
        assert!(
            verdict.is_ok(),
            "nfs partition heal violated a liveness bound (seed {seed}):\n{}\n{}",
            verdict.unwrap_err(),
            outcome.trace.join("\n")
        );
        let cov = outcome.coverage;
        assert!(cov.client_ops_submitted > 0, "no submissions traced:\n{cov}");
        assert_eq!(
            cov.client_ops_submitted, cov.client_ops_completed,
            "every submitted op must complete:\n{cov}"
        );
        assert!(cov.heal_to_progress_ns > 0, "no post-heal completion:\n{cov}");
        assert_eq!(cov.liveness_violations, 0, "{cov}");

        let (again, verdict2) = run(seed);
        assert_eq!(outcome, again);
        assert_eq!(verdict.is_ok(), verdict2.is_ok());
    }
}

/// A failed run ends its trace with every replica's status line, then the
/// coverage line: here a counter run whose quorum-skipping clients accept a
/// Byzantine replier's fabricated result, and the homogeneous NFS group
/// that serves the latent bug's corrupted data.
#[test]
fn failing_runs_end_with_every_replica_status() {
    let mut buggy_counter = CounterWorkload::default();
    buggy_counter.inject_client_bug = true;
    let mut byzantine_replier = FaultSchedule::new();
    let corrupt_replies = ByzMode::CorruptReplies.code();
    byzantine_replier.app(SimTime::from_millis(10), NodeId(1), APP_BYZ, corrupt_replies);
    let runs = [
        run_one(&mut ServiceCampaign::new(4, buggy_counter), 3, &byzantine_replier),
        run_one(&mut nfs(FsMix::HomogeneousInode, true), 1, &FaultSchedule::new()),
    ];
    for (outcome, verdict) in runs {
        let trace = outcome.trace.join("\n");
        assert!(verdict.is_err(), "the run must fail:\n{trace}");
        let (coverage, rest) = outcome.trace.split_last().expect("a run traces its coverage");
        assert!(coverage.starts_with("coverage: "), "{trace}");
        // Exactly one status line per replica, replica 0 first.
        let (before, statuses) = rest.split_at(rest.len() - 4);
        for (i, line) in statuses.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"replica\":{i},")), "{trace}");
        }
        assert!(before.last().is_none_or(|line| !line.starts_with('{')), "{trace}");
    }
}
