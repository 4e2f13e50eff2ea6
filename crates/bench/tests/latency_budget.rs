//! Latency-budget auditor acceptance: a per-op critical-path budget
//! violation is an ordinary campaign failure — it minimizes through ddmin
//! like a safety violation and ships the same repro artifacts, now
//! including the span graph as Perfetto-loadable Chrome trace JSON.

use base_pbft::chaos::{CounterWorkload, ServiceCampaign};
use base_simnet::chaos::{run_campaign, CampaignMode};
use base_simnet::SimDuration;

#[test]
fn budget_violation_minimizes_to_a_perfetto_repro_artifact() {
    // A budget no real three-phase commit can meet: every post-heal op
    // violates, so the campaign fails deterministically and the minimizer
    // strips the (irrelevant) injected faults.
    let mut h = ServiceCampaign::new(4, CounterWorkload::default());
    h.latency_budget = Some(SimDuration::from_micros(10));
    let cfg = h.gen_config(2, SimDuration::from_secs(2));
    let report = run_campaign(&mut h, CampaignMode::Mixed, &cfg, 9300..9301);

    assert_eq!(report.failures.len(), 1, "the budgeted run must fail");
    let f = &report.failures[0];
    assert!(f.reason.contains("latency-budget"), "unexpected reason: {}", f.reason);
    assert!(f.reason.contains("dominated by"), "no phase attribution: {}", f.reason);
    assert!(report.coverage.latency_budget_violations > 0);
    assert!(
        f.minimal.is_empty(),
        "a too-tight budget needs no injected fault; got:\n{}",
        f.minimal.describe()
    );

    // The failure writes the standard artifact set plus the span graph.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-artifacts/latency-budget");
    let _ = std::fs::remove_dir_all(&dir);
    let err = report.write_artifacts(&dir, "budget").expect_err("the campaign failed");
    assert!(err.starts_with("campaign budget: seed 9300 failed"), "{err}");
    let perfetto = dir.join("repro/budget/seed9300.minimal.perfetto.json");
    let body = std::fs::read_to_string(perfetto).expect("readable artifact");
    assert!(body.starts_with("{\"traceEvents\":["), "not Chrome trace format");
    assert!(body.contains("\"client_op_submitted\""), "span events missing");
    assert!(body.contains("\"cat\":\"phase\""), "phase sub-spans missing");
}
