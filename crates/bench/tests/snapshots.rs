//! The snapshot gates: every byte-identity artifact of the repo, rebuilt
//! from fixed seeds and compared with its blessed copy under
//! `tests/snapshots/`. The simulator is deterministic, so any drift means
//! protocol behaviour changed and has to be reviewed, not absorbed.
//!
//! - `e9_metrics.json`: merged metrics registries of a fixed batching run;
//! - `{nfs,oodb}_metrics.json`: coverage of a fixed NFS and OODB campaign;
//! - `traces/{counter,nfs,oodb}.jsonl`: protocol event traces of the three
//!   acceptance scenarios;
//! - `spans/counter.{spans.txt,perfetto.json}`: the counter scenario's span
//!   graph, as per-op lines with the phase table and as Chrome trace JSON
//!   (open it in ui.perfetto.dev);
//! - `bench_baseline.json`: the bench lab's deterministic counts
//!   ([`base_bench::lab`]).
//!
//! The metrics and campaign runs are also rebuilt twice and compared, so a
//! nondeterminism shows up as such rather than as snapshot drift.
//!
//! Every run writes its fresh artifacts under `target/snapshots/`, which CI
//! uploads on failure. To accept an intentional change:
//!
//! ```text
//! BLESS=1 cargo test -p base-bench --test snapshots
//! git diff crates/bench/tests/snapshots/
//! ```

use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, BaseService, Config};
use base_bench::experiments::faultinj::NfsWorkload;
use base_bench::FsMix;
use base_oodb::chaos::OodbWorkload;
use base_pbft::chaos::{CounterWorkload, ServiceCampaign};
use base_pbft::Deployment;
use base_simnet::chaos::{generate_schedule, run_campaign, run_one, CampaignMode, ChaosHarness};
use base_simnet::trace::export_jsonl;
use base_simnet::tracediff::{divergence_report, parse_jsonl};
use base_simnet::{
    export_perfetto, render_spans, MetricsRegistry, PhaseBreakdown, SimDuration, Simulation,
    Timeline, TraceEvent,
};
use std::path::Path;

/// Compares `actual` with the snapshot `name` (a path under
/// `tests/snapshots/`), after writing it to `target/snapshots/<name>`. With
/// `BLESS` set it overwrites the snapshot instead. A mismatch fails naming
/// both files and the first differing line; a trace also gets the
/// per-replica report of its first diverging event.
fn check(name: &str, actual: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let snapshot = root.join("tests/snapshots").join(name);
    let fresh = root.join("../../target/snapshots").join(name);
    let write = |path: &Path| {
        std::fs::create_dir_all(path.parent().expect("a file has a parent"))
            .and_then(|()| std::fs::write(path, actual))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    };
    write(&fresh);
    if std::env::var_os("BLESS").is_some() {
        write(&snapshot);
        return;
    }
    let expected = std::fs::read_to_string(&snapshot).unwrap_or_else(|e| {
        panic!("missing snapshot {} ({e}); run with BLESS=1", snapshot.display())
    });
    if actual == expected {
        return;
    }
    let (mut want_lines, mut got_lines) = (expected.split('\n'), actual.split('\n'));
    let (line, want, got) = (1..)
        .map(|i| (i, want_lines.next(), got_lines.next()))
        .find(|(_, want, got)| want != got)
        .expect("unequal texts differ on some line");
    let (want, got) = (want.unwrap_or("<end of file>"), got.unwrap_or("<end of file>"));
    // Most snapshots are one line of JSON: show where in the line it moved.
    let col = want.chars().zip(got.chars()).take_while(|(a, b)| a == b).count();
    let excerpt =
        |text: &str| -> String { text.chars().skip(col.saturating_sub(40)).take(80).collect() };
    let mut msg = format!(
        "{name} drifted from its snapshot {}\n\
         fresh artifact: {}\n\
         first difference at line {line}, column {}:\n  \
         snapshot: {}\n  \
         actual:   {}",
        snapshot.display(),
        fresh.display(),
        col + 1,
        excerpt(want),
        excerpt(got),
    );
    if name.ends_with(".jsonl") {
        let parse = |text: &str| parse_jsonl(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report =
            divergence_report(&parse(&expected), &parse(actual), 3, "snapshot", "actual");
        msg.push_str(&format!("\n{report}"));
    }
    panic!("{msg}\nIf the change is intentional: BLESS=1 cargo test -p base-bench --test snapshots");
}

/// One fixed batching run: the merged metrics of every replica and client.
fn e9_metrics() -> MetricsRegistry {
    const CLIENTS: usize = 2;
    const OPS_PER_CLIENT: usize = 25;
    const SEED: u64 = 8802;
    let mut cfg = Config::new(4);
    // Short checkpoint interval so the run exercises the checkpoint
    // counters as well as the latency/batching histograms.
    cfg.checkpoint_interval = 8;
    cfg.log_window = 256;
    cfg.max_inflight = 2;
    let mut sim = Simulation::new(SEED);
    let d = Deployment::build(&mut sim, cfg, CLIENTS, SEED, |_| {
        let mut w = KvWrapper::new(TinyKv::default());
        w.op_cost = SimDuration::from_micros(100);
        BaseService::new(w)
    });
    for (c, &node) in d.clients.iter().enumerate() {
        let cl = sim.actor_as_mut::<BaseClient>(node).unwrap();
        for i in 0..OPS_PER_CLIENT {
            cl.invoke(format!("put c{c}k{} v{i}", i % 16).into_bytes(), false);
        }
    }
    sim.run_for(SimDuration::from_secs(60));

    for &node in &d.clients {
        let done = sim.actor_as::<BaseClient>(node).unwrap().completed.len();
        assert_eq!(done, OPS_PER_CLIENT, "client on node {} must finish", node.0);
    }

    let mut merged = MetricsRegistry::new();
    for r in &d.replicas {
        merged.merge(r.get(&sim).metrics());
    }
    for &c in &d.clients {
        merged.merge(&sim.actor_as::<BaseClient>(c).unwrap().core().metrics);
    }
    merged
}

#[test]
fn e9_metrics_match_snapshot() {
    check("e9_metrics.json", &e9_metrics().to_json());
}

#[test]
fn e9_metrics_are_deterministic() {
    assert_eq!(e9_metrics().to_json(), e9_metrics().to_json());
}

/// A fixed six-seed campaign that must pass; returns its coverage JSON.
fn campaign_coverage(
    harness: &mut impl ChaosHarness,
    cfg: &base_simnet::chaos::ScheduleGenConfig,
    seeds: std::ops::Range<u64>,
) -> String {
    let report = run_campaign(harness, CampaignMode::Mixed, cfg, seeds);
    assert_eq!(report.runs, 6);
    assert!(report.passed(), "fixed campaign must pass: {:?}", report.failures.first());
    report.coverage_json()
}

fn nfs() -> ServiceCampaign<NfsWorkload> {
    ServiceCampaign::new(4, NfsWorkload { mix: FsMix::Heterogeneous, with_latent_bug: false })
}

fn oodb() -> ServiceCampaign<OodbWorkload> {
    ServiceCampaign::new(4, OodbWorkload::default())
}

/// The heterogeneous NFS testbed, 4 generated fault events over 4 s.
fn nfs_coverage() -> String {
    let mut h = nfs();
    let cfg = h.gen_config(4, SimDuration::from_secs(4));
    campaign_coverage(&mut h, &cfg, 6200..6206)
}

/// Four OODB replicas, 4 generated fault events over 6 s (the OODB
/// workload paces slower than NFS).
fn oodb_coverage() -> String {
    let mut h = oodb();
    let cfg = h.gen_config(4, SimDuration::from_secs(6));
    campaign_coverage(&mut h, &cfg, 200..206)
}

#[test]
fn nfs_campaign_metrics_match_snapshot() {
    check("nfs_metrics.json", &nfs_coverage());
}

#[test]
fn oodb_campaign_metrics_match_snapshot() {
    check("oodb_metrics.json", &oodb_coverage());
}

#[test]
fn campaign_metrics_are_deterministic() {
    assert_eq!(nfs_coverage(), nfs_coverage());
    assert_eq!(oodb_coverage(), oodb_coverage());
}

/// One acceptance scenario — a fixed seed, a fixed generated fault
/// schedule, a passing audit — and its protocol event trace.
fn scenario(name: &str) -> Vec<TraceEvent> {
    let (outcome, verdict) = match name {
        "counter" => {
            let mut h = ServiceCampaign::new(4, CounterWorkload::default());
            let cfg = h.gen_config(4, SimDuration::from_secs(4));
            run_one(&mut h, 4100, &generate_schedule(&cfg, 4100))
        }
        "nfs" => {
            let mut h = nfs();
            let cfg = h.gen_config(4, SimDuration::from_secs(4));
            run_one(&mut h, 6200, &generate_schedule(&cfg, 6200))
        }
        "oodb" => {
            let mut h = oodb();
            let cfg = h.gen_config(4, SimDuration::from_secs(6));
            run_one(&mut h, 200, &generate_schedule(&cfg, 200))
        }
        other => unreachable!("no scenario {other}"),
    };
    verdict.unwrap_or_else(|e| panic!("scenario {name} failed its audit: {e}"));
    outcome.events
}

// One test per artifact, so a drifted one still leaves every other fresh
// artifact under `target/snapshots/`.

#[test]
fn counter_trace_matches_snapshot() {
    check("traces/counter.jsonl", &export_jsonl(&scenario("counter")));
}

#[test]
fn nfs_trace_matches_snapshot() {
    check("traces/nfs.jsonl", &export_jsonl(&scenario("nfs")));
}

#[test]
fn oodb_trace_matches_snapshot() {
    check("traces/oodb.jsonl", &export_jsonl(&scenario("oodb")));
}

#[test]
fn span_lines_match_snapshot() {
    let spans = Timeline::of(&scenario("counter")).ops;
    let table = PhaseBreakdown::from_spans(&spans).table();
    check("spans/counter.spans.txt", &format!("{table}\n{}", render_spans(&spans)));
}

#[test]
fn perfetto_export_matches_snapshot() {
    let events = scenario("counter");
    check("spans/counter.perfetto.json", &export_perfetto(&events, &Timeline::of(&events).ops));
}

#[test]
fn bench_lab_matches_snapshot() {
    check("bench_baseline.json", &base_bench::lab::measure().to_json());
}
