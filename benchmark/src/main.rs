//! Command line of the benchmark.
//!
//! ```text
//! base-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! base-benchmark suite --out <file> [--seed 1] [--seconds 15]
//! base-benchmark compare <A.json> <B.json>
//! ```

use base_benchmark::compare::{compare, suite};
use base_benchmark::json::Json;
use base_benchmark::metrics::RUN_SECONDS;
use base_benchmark::workloads::{nfs, Scale, WORKLOADS};
use base_benchmark::{kernels, report, run};
use std::process::ExitCode;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} takes a whole number, got {v:?}")),
    }
}

fn measure(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = number(args, "--seed", 1)?;
    let seconds = number(args, "--seconds", RUN_SECONDS)? as f64;
    let report = match number(args, "--trace", 0)? {
        0 => {
            let repeats = run::repeats(workload, seed, seconds, false)?;
            report::end_to_end(workload, seed, &repeats)
        }
        1 => {
            let kernels = kernels::measure();
            let direct = (workload == "nfs_andrew").then(|| nfs::run_direct(Scale::Full, seed));
            let repeats = run::repeats(workload, seed, seconds, true)?;
            if let Some((r, t)) = repeats
                .iter()
                .rev()
                .find_map(|r| r.trace.as_ref().map(|t| (r, t)))
            {
                let path = report::write_trace(workload, seed, r, t)
                    .map_err(|e| format!("trace file: {e}"))?;
                println!("trace written to {}", path.display());
            }
            report::per_layer(workload, seed, &repeats, &kernels, direct)
        }
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    report.print();
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_suite(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_suite(args: &[String]) -> Result<ExitCode, String> {
    let out = flag(args, "--out").ok_or("suite needs --out <file>")?;
    let result = suite(
        number(args, "--seed", 1)?,
        number(args, "--seconds", RUN_SECONDS)?,
    )?;
    std::fs::write(out, format!("{result}\n")).map_err(|e| format!("{out}: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let [_, a, b] = args else {
        return Err("compare takes two suite files".to_owned());
    };
    let (regress, _unresolved) = compare(&read_suite(a)?, &read_suite(b)?);
    Ok(if regress == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => run_suite(&args),
        Some("compare") => run_compare(&args),
        _ => measure(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("base-benchmark: {e}");
        ExitCode::from(2)
    })
}
