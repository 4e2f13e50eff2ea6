//! The experiment CLI. Without a subcommand it regenerates the experiment
//! tables (E1–E7, E9–E11, E14) and the bench lab's deterministic counts (`lab`):
//! name the experiments to run — `all_tables throughput roopt` — or none to
//! run them all in order. `--scale tiny|small|medium` and `--homogeneous`
//! configure `andrew`. Two subcommands are the repro lab:
//!
//! ```text
//! # run a seeded chaos campaign, ddmin-minimize every failure and write its
//! # coverage and, under --out's repro/<campaign>/, each failure's schedule,
//! # divergence and trace artifacts (exit 1 if a run failed)
//! cargo run -p base-bench --bin all_tables -- campaign nfs-buggy --seed 6200 --runs 20
//!
//! # localize where two exported runs diverge (exit 1 if they do)
//! cargo run -p base-bench --bin all_tables -- diff left.jsonl right.jsonl --window 5
//! ```
//!
//! Campaigns: `counter` (pbft counter testbed), `counter-buggy` (same, with
//! the deliberate client quorum bug), `nfs` (heterogeneous replicated NFS),
//! `nfs-buggy` (homogeneous inode-fs with the armed latent bug — the
//! paper's common-mode failure), `oodb` (replicated object database).

use base_bench::experiments::faultinj::NfsWorkload;
use base_bench::experiments::{
    run_andrew, run_checkpoint, run_codesize, run_degree, run_faultinj, run_oodb, run_recovery,
    run_roopt, run_shards, run_throughput, run_transfer,
};
use base_bench::{lab, AndrewScale, FsMix};
use base_oodb::chaos::OodbWorkload;
use base_pbft::chaos::{CounterWorkload, ServiceCampaign};
use base_simnet::chaos::{run_campaign, CampaignMode, DEFAULT_ARTIFACT_DIR};
use base_simnet::tracediff::{divergence_report, first_divergence, parse_jsonl};
use base_simnet::SimDuration;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

type Run = fn(AndrewScale, FsMix);

const EXPERIMENTS: &[(&str, &str, Run)] = &[
    ("andrew", "E1: Andrew benchmark", run_andrew),
    ("codesize", "E2: code size", |_, _| run_codesize()),
    ("recovery", "E3: proactive recovery", |_, _| run_recovery()),
    ("transfer", "E4: state transfer", |_, _| run_transfer()),
    ("checkpoint", "E5: checkpointing", |_, _| run_checkpoint()),
    ("faultinj", "E6: fault injection", |_, _| run_faultinj()),
    ("oodb", "E7: replicated OODB", |_, _| run_oodb()),
    ("throughput", "E9: throughput vs clients", |_, _| run_throughput()),
    ("degree", "E10: replication degree", |_, _| run_degree()),
    ("roopt", "E11: read-only optimization", |_, _| run_roopt()),
    ("shards", "E14: shard scaling", |_, _| run_shards()),
    ("lab", "bench lab: deterministic counts", |_, _| lab::measure().print_table()),
];

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    eprintln!(
        "usage: all_tables [--scale tiny|small|medium] [--homogeneous] [EXPERIMENT...]\n\
         \x20      all_tables campaign counter|counter-buggy|nfs|nfs-buggy|oodb \
         [--seed N] [--runs N] [--events N] [--horizon-ms N] [--out DIR]\n\
         \x20      all_tables diff LEFT.jsonl RIGHT.jsonl [--window N]\n\
         experiments: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

/// The value after the flag at `args[*i]`, parsed; usage if it is missing
/// or malformed.
fn value<T: FromStr>(args: &[String], i: &mut usize) -> T {
    *i += 1;
    args.get(*i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("campaign") => campaign(&args[1..]),
        Some("diff") => diff(&args[1..]),
        _ => tables(&args),
    }
}

fn tables(args: &[String]) -> ExitCode {
    let mut scale = AndrewScale::small();
    let mut mix = FsMix::Heterogeneous;
    let mut chosen = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = match value::<String>(args, &mut i).as_str() {
                    "tiny" => AndrewScale::tiny(),
                    "small" => AndrewScale::small(),
                    "medium" => AndrewScale::medium(),
                    _ => usage(),
                }
            }
            "--homogeneous" => mix = FsMix::HomogeneousInode,
            name => match EXPERIMENTS.iter().find(|e| e.0 == name) {
                Some(e) => chosen.push(e),
                None => usage(),
            },
        }
        i += 1;
    }
    if chosen.is_empty() {
        chosen.extend(EXPERIMENTS);
    }
    for (_, title, run) in chosen {
        println!("\n################ {title} ################");
        run(scale, mix);
    }
    ExitCode::SUCCESS
}

/// Runs a seeded chaos campaign and, if a run fails, writes its artifacts.
fn campaign(args: &[String]) -> ExitCode {
    let name = args.first().cloned().unwrap_or_else(|| usage());
    let (mut seed, mut runs, mut events, mut horizon_ms) = (6200u64, 6u64, 5usize, 6000u64);
    let mut out = PathBuf::from(DEFAULT_ARTIFACT_DIR);
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => seed = value(args, &mut i),
            "--runs" => runs = value(args, &mut i),
            "--events" => events = value(args, &mut i),
            "--horizon-ms" => horizon_ms = value(args, &mut i),
            "--out" => out = value(args, &mut i),
            _ => usage(),
        }
        i += 1;
    }
    let seeds = seed..seed + runs;
    let horizon = SimDuration::from_millis(horizon_ms);
    let mode = CampaignMode::Mixed;
    let report = match name.as_str() {
        "counter" | "counter-buggy" => {
            let mut workload = CounterWorkload::default();
            workload.inject_client_bug = name == "counter-buggy";
            let mut h = ServiceCampaign::new(4, workload);
            let cfg = h.gen_config(events, horizon);
            run_campaign(&mut h, mode, &cfg, seeds)
        }
        "nfs" | "nfs-buggy" => {
            let buggy = name == "nfs-buggy";
            let mix = if buggy { FsMix::HomogeneousInode } else { FsMix::Heterogeneous };
            let mut h = ServiceCampaign::new(4, NfsWorkload { mix, with_latent_bug: buggy });
            let cfg = h.gen_config(events, horizon);
            run_campaign(&mut h, mode, &cfg, seeds)
        }
        "oodb" => {
            let mut h = ServiceCampaign::new(4, OodbWorkload::default());
            let cfg = h.gen_config(events, horizon);
            run_campaign(&mut h, mode, &cfg, seeds)
        }
        _ => usage(),
    };
    println!(
        "campaign `{name}`: {} runs, {} fault events, {} failure(s)",
        report.runs,
        report.events_executed,
        report.failures.len()
    );
    println!("coverage: {}", report.coverage);
    if report.passed() {
        println!("verdict: PASSED (all audits clean)");
        return ExitCode::SUCCESS;
    }
    // The error names the first failing seed, carries its report and says
    // where its repro went.
    let first = report.write_artifacts(&out, &name).expect_err("a run failed");
    println!("\n{first}");
    for f in &report.failures[1..] {
        println!("\n{f}");
    }
    ExitCode::from(1)
}

/// Reports where two JSONL traces diverge; diverging traces exit nonzero so
/// scripts can gate on it.
fn diff(args: &[String]) -> ExitCode {
    let [left, right, rest @ ..] = args else { usage() };
    let mut window = 3;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--window" => window = value(rest, &mut i),
            _ => usage(),
        }
        i += 1;
    }
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        parse_jsonl(&text).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        })
    };
    let (l, r) = (read(left), read(right));
    println!("{}", divergence_report(&l, &r, window, left, right));
    if first_divergence(&l, &r).is_some() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
