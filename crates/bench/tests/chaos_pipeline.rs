//! Chaos regression for the agreement/execution pipeline: the counter and
//! NFS campaigns rerun with `pipeline_depth = 4`, so view-change storms,
//! healing partitions, Byzantine flips and latent corruption all land
//! while slots `n..n+depth` are in flight — committed-but-unexecuted
//! backlogs, re-proposal of pipelined slots across view changes, and state
//! transfer over a gapped slot table. The auditors must report zero safety
//! or liveness violations.

use base_bench::experiments::faultinj::NfsChaosHarness;
use base_bench::FsMix;
use base_pbft::chaos::CounterChaosHarness;
use base_simnet::chaos::{run_campaign, CampaignMode};
use base_simnet::SimDuration;

fn pipelined_counter() -> CounterChaosHarness {
    let mut h = CounterChaosHarness::new(4);
    h.cfg.pipeline_depth = 4;
    h
}

#[test]
fn counter_campaign_with_pipelining_passes_auditor() {
    let cfg = pipelined_counter().gen_config(6, SimDuration::from_secs(8));
    let report = run_campaign(pipelined_counter, CampaignMode::Mixed, &cfg, 7400..7412, 1);
    assert_eq!(report.runs, 12);
    assert!(report.events_executed > 0, "campaign generated no events");
    if let Some(f) = report.failures.first() {
        panic!("pipelined counter campaign failed:\n{f}");
    }
    // The faults must actually land mid-pipeline: the campaign has to
    // force view changes (re-proposal of in-flight slots) and state
    // transfers (catch-up over a gapped slot table), not merely schedule
    // faults that the group shrugs off.
    let cov = report.coverage;
    assert!(cov.view_changes_started > 0, "no view changes forced:\n{cov}");
    assert!(cov.state_transfers_completed > 0, "no state transfers completed:\n{cov}");
}

#[test]
fn nfs_campaign_with_pipelining_passes_auditor() {
    let pipelined_nfs = || {
        let mut h = NfsChaosHarness::new(FsMix::Heterogeneous);
        h.cfg.pipeline_depth = 4;
        h
    };
    let cfg = pipelined_nfs().gen_config(5, SimDuration::from_secs(6));
    let report = run_campaign(pipelined_nfs, CampaignMode::Mixed, &cfg, 8300..8310, 1);
    assert_eq!(report.runs, 10);
    assert!(report.events_executed > 0);
    if let Some(f) = report.failures.first() {
        panic!("pipelined nfs campaign failed:\n{f}");
    }
    assert!(
        report.coverage.view_changes_started > 0,
        "nfs campaign forced no view changes:\n{}",
        report.coverage
    );
}
