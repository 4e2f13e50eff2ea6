//! Repro-lab artifact writing: turns a failing chaos campaign into files a
//! human (or CI) can pick up — the minimized fault schedule, the ddmin
//! search counters, the divergence report between the full and minimal
//! runs, and the minimal run's protocol trace as JSONL for offline
//! `tracediff` (`all_tables diff`).
//!
//! Used by `all_tables campaign`, by the acceptance tests, and by CI (which
//! uploads `target/repro/` on chaos-campaign failure).

use base_simnet::chaos::{CampaignReport, FailureReport};
use base_simnet::span::{export_perfetto, Timeline};
use base_simnet::trace::export_jsonl;
use std::io;
use std::path::{Path, PathBuf};

/// Default artifact directory, relative to the workspace root; CI uploads
/// this directory when the chaos campaigns fail.
pub const DEFAULT_ARTIFACT_DIR: &str = "target/repro";

/// Writes one failing run's artifacts under `dir`, returning the paths.
///
/// Files are named by seed, so a campaign's failures never collide:
/// `seed<seed>.schedule.txt`, `seed<seed>.divergence.txt`,
/// `seed<seed>.minimal.jsonl`, `seed<seed>.minimal.perfetto.json`.
pub fn write_failure_artifacts(dir: &Path, f: &FailureReport) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();

    let schedule_path = dir.join(format!("seed{}.schedule.txt", f.seed));
    let mut schedule = String::new();
    schedule.push_str(&format!("seed: {}\nreason: {}\n", f.seed, f.reason));
    schedule.push_str(&format!(
        "full schedule ({} events):\n{}\n",
        f.schedule.len(),
        f.schedule.describe()
    ));
    schedule.push_str(&format!(
        "minimal schedule ({} events):\n{}\n",
        f.minimal.len(),
        f.minimal.describe()
    ));
    schedule.push_str(&format!("ddmin metrics:\n{}\n", f.ddmin_metrics.to_json()));
    std::fs::write(&schedule_path, schedule)?;
    written.push(schedule_path);

    let divergence_path = dir.join(format!("seed{}.divergence.txt", f.seed));
    std::fs::write(&divergence_path, format!("{}\n", f.divergence))?;
    written.push(divergence_path);

    let jsonl_path = dir.join(format!("seed{}.minimal.jsonl", f.seed));
    std::fs::write(&jsonl_path, export_jsonl(&f.minimal_events))?;
    written.push(jsonl_path);

    // The same minimal run as a span graph, ready for Perfetto: open the
    // file in ui.perfetto.dev and the failing op's critical path is laid
    // out per node, no replaying required.
    let perfetto_path = dir.join(format!("seed{}.minimal.perfetto.json", f.seed));
    let spans = Timeline::of(&f.minimal_events).ops;
    std::fs::write(&perfetto_path, export_perfetto(&f.minimal_events, &spans))?;
    written.push(perfetto_path);

    Ok(written)
}

/// Writes artifacts for every failure in a campaign report; returns all
/// written paths (empty when the campaign passed).
pub fn write_campaign_artifacts(dir: &Path, report: &CampaignReport) -> io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    for f in &report.failures {
        written.extend(write_failure_artifacts(dir, f)?);
    }
    Ok(written)
}
