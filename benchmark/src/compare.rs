//! `suite`: the driver's protocol run locally — every workload, several
//! seeds, one process per run — collected into one file. `compare`: two
//! such files side by side, one row per workload and end-to-end metric.

use crate::json::Json;
use crate::metrics::{median, quartiles, Better, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use std::process::Command;

/// Untraced runs per workload in a suite, as in the driver's protocol.
const RUNS: u64 = 10;

/// Runs [`RUNS`] untraced runs (seeds `seed0..`) and one traced run (seed
/// `seed0`) of every workload, each in a child process of this executable
/// with the driver's arguments, and returns the suite file's content.
pub fn suite(seed0: u64, seconds: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for w in WORKLOADS {
        for (seed, trace) in (0..RUNS).map(|i| (seed0 + i, 0)).chain([(seed0, 1)]) {
            let t0 = std::time::Instant::now();
            let child = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    &trace.to_string(),
                ])
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            eprintln!(
                "suite: {w} seed {seed} trace {trace}: {:.1} s",
                t0.elapsed().as_secs_f64()
            );
            let stdout = String::from_utf8_lossy(&child.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let result =
                Json::parse(last).map_err(|e| format!("{w} seed {seed}: no result line ({e})"))?;
            if !child.status.success() {
                return Err(format!("{w} seed {seed} trace {trace} failed:\n{stdout}"));
            }
            out.push(Json::object([
                ("workload", Json::Str(w.to_owned())),
                ("seed", Json::Num(seed as f64)),
                ("trace", Json::Num(f64::from(trace))),
                ("result", result),
            ]));
        }
    }
    Ok(Json::object([
        ("seconds", Json::Num(seconds as f64)),
        ("runs", Json::Arr(out)),
    ]))
}

/// Values of `metric` on `workload` in a suite file, in run order.
fn values(suite: &Json, workload: &str, trace: u32, metric: &str) -> Vec<f64> {
    suite
        .get("runs")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(f64::from(trace))
        })
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn workloads_of(suite: &Json) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for r in suite.get("runs").and_then(Json::as_array).unwrap_or(&[]) {
        if let Some(w) = r.get("workload").and_then(Json::as_str) {
            if !out.iter().any(|o| o == w) {
                out.push(w.to_owned());
            }
        }
    }
    out
}

/// Interquartile range over median: the spread the acceptance rule uses.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Prints the comparison of suite `b` against base `a`: one row per
/// workload and end-to-end metric. Returns how many rows regressed and how
/// many are unresolved.
///
/// Virtual-time metrics and counts are functions of the seed and the
/// program alone. Between two suites of one commit they must not differ at
/// all; between two commits they may, and are judged by their bound like
/// any other metric. Which of them differ is printed as information.
pub fn compare(a: &Json, b: &Json) -> (usize, usize) {
    let (mut regress, mut unresolved) = (0, 0);
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spread A", "spread B", "bound"
    );
    for w in workloads_of(a) {
        let mut differing: Vec<&str> = Vec::new();
        for def in END_TO_END {
            let (va, vb) = (values(a, &w, 0, def.name), values(b, &w, 0, def.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<12} {:<20} missing on one side", def.name);
                unresolved += 1;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = match def.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let (sa, sb) = (spread(&va), spread(&vb));
            let exact = def.name.starts_with("sim_");
            if exact && va != vb {
                differing.push(def.name);
            }
            // An exact metric's spread is that of the seeds, not of the
            // machine; `setup_s` is a sub-second interval on a shared
            // machine and is judged on its medians only.
            let wide = !exact && def.name != "setup_s" && sa.max(sb) > bound;
            let verdict = if wide {
                unresolved += 1;
                "unresolved"
            } else if worse > bound {
                regress += 1;
                "regress"
            } else {
                "ok"
            };
            println!(
                "{w:<12} {:<20} {ma:>14.4} {mb:>14.4} {:>8.4} {sa:>9.4} {sb:>9.4} {bound:>6.2}  {verdict}",
                def.name,
                mb / ma,
            );
        }
        // Allocation counts are measured, not derived, and differ by a few
        // in a million between runs.
        differing.extend(
            PER_LAYER
                .iter()
                .filter(|d| matches!(d.unit, "count" | "B") || d.name.starts_with("sim_"))
                .filter(|d| !d.name.starts_with("alloc."))
                .filter(|d| values(a, &w, 1, d.name) != values(b, &w, 1, d.name))
                .map(|d| d.name),
        );
        if differing.is_empty() {
            println!("{w:<12} virtual-time metrics and counts identical");
        } else {
            println!(
                "{w:<12} virtual-time metrics and counts that differ: {}",
                differing.join(", ")
            );
        }
    }
    println!("B/A is B's median over A's (the base). {regress} regress, {unresolved} unresolved.");
    (regress, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A suite with `wall_ops_per_s` and `sim_latency_p99_us` on one workload.
    fn suite_of(wall: &[f64], p99: &[f64]) -> Json {
        let runs = wall.iter().zip(p99).enumerate().map(|(i, (w, s))| {
            let metric = |v: f64, unit: &str| {
                Json::object([("value", Json::Num(v)), ("unit", Json::Str(unit.into()))])
            };
            let metrics = Json::object(END_TO_END.iter().map(|d| {
                let v = match d.name {
                    "wall_ops_per_s" => *w,
                    "sim_latency_p99_us" => *s,
                    _ => 1.0,
                };
                (d.name, metric(v, d.unit))
            }));
            Json::object([
                ("workload", Json::Str("kv_write".into())),
                ("seed", Json::Num(i as f64)),
                ("trace", Json::Num(0.0)),
                ("result", Json::object([("metrics", metrics)])),
            ])
        });
        Json::object([("runs", Json::Arr(runs.collect()))])
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [1000.0, 1005.0, 995.0, 1002.0, 998.0, 1001.0];
        let p99 = [3.0; 6];
        let base = suite_of(&steady, &p99);
        assert_eq!(compare(&base, &base), (0, 0));
        // 30 % slower: past the 25 % bound.
        let slower: Vec<f64> = steady.iter().map(|v| v * 0.7).collect();
        assert_eq!(compare(&base, &suite_of(&slower, &p99)), (1, 0));
        // Spread wider than the bound: no verdict either way.
        let noisy = [600.0, 1400.0, 700.0, 1350.0, 800.0, 1200.0];
        assert_eq!(compare(&base, &suite_of(&noisy, &p99)), (0, 1));
        // A virtual-time figure is held to its bound like any other: better
        // or a little worse passes, 10 % worse is past the 3 % bound, and its
        // spread over seeds never makes it unresolved.
        let p99_of = |f: f64| {
            suite_of(
                &steady,
                &[3.0 * f, 4.0 * f, 5.0 * f, 3.0 * f, 4.0 * f, 5.0 * f],
            )
        };
        assert_eq!(compare(&p99_of(1.0), &p99_of(0.8)), (0, 0));
        assert_eq!(compare(&p99_of(1.0), &p99_of(1.01)), (0, 0));
        assert_eq!(compare(&p99_of(1.0), &p99_of(1.1)), (1, 0));
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        // statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
