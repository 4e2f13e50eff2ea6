//! Repro lab CLI: run a seeded chaos campaign, ddmin-minimize every
//! failure, and write schedule + divergence + trace artifacts — or diff two
//! JSONL traces offline.
//!
//! ```text
//! # run a campaign and drop artifacts for every failure
//! cargo run -p base-bench --bin repro -- --campaign nfs-buggy --seed 6200 --runs 20
//!
//! # localize where two exported runs diverge
//! cargo run -p base-bench --bin repro -- --diff left.jsonl right.jsonl --window 5
//! ```
//!
//! Campaigns: `counter` (pbft counter testbed), `counter-buggy` (same, with
//! the deliberate client quorum bug), `nfs` (heterogeneous replicated NFS),
//! `nfs-buggy` (homogeneous inode-fs with the armed latent bug — the
//! paper's common-mode failure), `oodb` (replicated object database).

use base_bench::experiments::faultinj::NfsChaosHarness;
use base_bench::repro::{write_campaign_artifacts, DEFAULT_ARTIFACT_DIR};
use base_bench::FsMix;
use base_oodb::chaos::OodbChaosHarness;
use base_pbft::chaos::CounterChaosHarness;
use base_simnet::chaos::{run_campaign, CampaignMode};
use base_simnet::tracediff::{divergence_report, parse_jsonl};
use base_simnet::SimDuration;
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    campaign: String,
    seed: u64,
    runs: u64,
    events: usize,
    horizon_ms: u64,
    out: PathBuf,
    window: usize,
    diff: Option<(PathBuf, PathBuf)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: repro --campaign counter|counter-buggy|nfs|nfs-buggy|oodb \
         [--seed N] [--runs N] [--events N] [--horizon-ms N] [--out DIR]\n\
         \x20      repro --diff LEFT.jsonl RIGHT.jsonl [--window N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        campaign: String::new(),
        seed: 6200,
        runs: 6,
        events: 5,
        horizon_ms: 6000,
        out: PathBuf::from(DEFAULT_ARTIFACT_DIR),
        window: 3,
        diff: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let need = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--campaign" => opts.campaign = need(&mut i),
            "--seed" => opts.seed = need(&mut i).parse().unwrap_or_else(|_| usage()),
            "--runs" => opts.runs = need(&mut i).parse().unwrap_or_else(|_| usage()),
            "--events" => opts.events = need(&mut i).parse().unwrap_or_else(|_| usage()),
            "--horizon-ms" => opts.horizon_ms = need(&mut i).parse().unwrap_or_else(|_| usage()),
            "--out" => opts.out = PathBuf::from(need(&mut i)),
            "--window" => opts.window = need(&mut i).parse().unwrap_or_else(|_| usage()),
            "--diff" => {
                let left = PathBuf::from(need(&mut i));
                let right = PathBuf::from(need(&mut i));
                opts.diff = Some((left, right));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }
    opts
}

fn run_diff(left: &PathBuf, right: &PathBuf, window: usize) -> ExitCode {
    let read = |p: &PathBuf| -> Vec<base_simnet::TraceEvent> {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("error: cannot read {}: {e}", p.display());
            std::process::exit(2);
        });
        parse_jsonl(&text).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", p.display());
            std::process::exit(2);
        })
    };
    let l = read(left);
    let r = read(right);
    let report = divergence_report(
        &l,
        &r,
        window,
        &left.display().to_string(),
        &right.display().to_string(),
    );
    println!("{report}");
    // Diverging traces exit nonzero so scripts can gate on it.
    if base_simnet::tracediff::first_divergence(&l, &r).is_some() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn report_and_write(
    report: base_simnet::chaos::CampaignReport,
    opts: &Opts,
) -> ExitCode {
    println!(
        "campaign `{}`: {} runs, {} fault events, {} failure(s)",
        opts.campaign,
        report.runs,
        report.events_executed,
        report.failures.len()
    );
    println!("coverage: {}", report.coverage);
    if report.passed() {
        println!("verdict: PASSED (all audits clean)");
        return ExitCode::SUCCESS;
    }
    for f in &report.failures {
        println!("\n{f}");
    }
    match write_campaign_artifacts(&opts.out, &report) {
        Ok(paths) => {
            println!("\nartifacts ({}):", opts.out.display());
            for p in paths {
                println!("  {}", p.display());
            }
        }
        Err(e) => eprintln!("error writing artifacts to {}: {e}", opts.out.display()),
    }
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let opts = parse_args();
    if let Some((left, right)) = &opts.diff {
        return run_diff(left, right, opts.window);
    }
    if opts.campaign.is_empty() {
        usage();
    }
    let seeds = opts.seed..opts.seed + opts.runs;
    let horizon = SimDuration::from_millis(opts.horizon_ms);
    let mode = CampaignMode::Mixed;
    match opts.campaign.as_str() {
        "counter" | "counter-buggy" => {
            let harness = || {
                let mut h = CounterChaosHarness::new(4);
                h.inject_client_bug = opts.campaign == "counter-buggy";
                h
            };
            let cfg = harness().gen_config(opts.events, horizon);
            report_and_write(run_campaign(harness, mode, &cfg, seeds, 1), &opts)
        }
        "nfs" | "nfs-buggy" => {
            let buggy = opts.campaign == "nfs-buggy";
            let mix = if buggy { FsMix::HomogeneousInode } else { FsMix::Heterogeneous };
            let harness = || {
                let mut h = NfsChaosHarness::new(mix);
                h.with_latent_bug = buggy;
                h
            };
            let cfg = harness().gen_config(opts.events, horizon);
            report_and_write(run_campaign(harness, mode, &cfg, seeds, 1), &opts)
        }
        "oodb" => {
            let harness = || OodbChaosHarness::new(4);
            let cfg = harness().gen_config(opts.events, horizon);
            report_and_write(run_campaign(harness, mode, &cfg, seeds, 1), &opts)
        }
        other => {
            eprintln!("unknown campaign: {other}");
            usage();
        }
    }
}
