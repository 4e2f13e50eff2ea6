//! Span-layer determinism acceptance: the causal span graph, the phase
//! breakdown table, and the Perfetto export are pure functions of the
//! trace, and traces are pure functions of the seed — so every rendering
//! must be byte-identical across repeated runs, and campaign-aggregated
//! coverage (which now carries the span-driven budget/drop counters) must
//! be byte-identical regardless of how many workers executed the runs.

use base_bench::experiments::throughput::measure_throughput;
use base_pbft::chaos::CounterChaosHarness;
use base_simnet::chaos::{run_campaign, CampaignMode};
use base_simnet::{build_spans, export_perfetto, render_spans, SimDuration};

/// A small E9 cell: 4 clients x 40 ops, 256-byte values.
fn e9_artifacts() -> (String, String, String) {
    let s = measure_throughput(4, 40, 256);
    let spans = build_spans(&s.trace);
    (render_spans(&spans), s.phases.table(), export_perfetto(&s.trace, &spans))
}

#[test]
fn span_artifacts_are_byte_identical_across_runs() {
    let (spans_a, table_a, perfetto_a) = e9_artifacts();
    let (spans_b, table_b, perfetto_b) = e9_artifacts();
    assert_eq!(spans_a, spans_b, "span lines drifted between identical runs");
    assert_eq!(table_a, table_b, "phase table drifted between identical runs");
    assert_eq!(perfetto_a, perfetto_b, "perfetto export drifted between identical runs");

    // Sanity on the artifact shapes themselves.
    assert!(spans_a.lines().count() >= 160, "expected one line per op:\n{table_a}");
    assert!(!spans_a.contains("INCOMPLETE"), "E9 ops all complete");
    assert!(perfetto_a.starts_with("{\"traceEvents\":["));
    assert!(perfetto_a.contains("\"cat\":\"phase\""));

    // Every rendered total equals the sum of its six segments: the table
    // head line and per-op lines come from the same clamped chain, so a
    // violation would already have tripped the library's unit invariant —
    // but check one op end-to-end here against the text itself.
    let first = spans_a.lines().next().unwrap();
    let field = |key: &str| -> u64 {
        first
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {key} in {first}"))
    };
    let total = field("total_us=");
    let sum = field("req=")
        + field("prep=")
        + field("com=")
        + field("exec=")
        + field("rep=")
        + field("deliv=");
    // Rendered at µs granularity; truncation loses at most 5 µs across six
    // segments relative to the (exact, ns-level) total.
    assert!(sum <= total && total - sum <= 6, "segments {sum}us vs total {total}us");
}

#[test]
fn campaign_coverage_is_worker_invariant() {
    let run = |workers: usize| {
        let cfg = CounterChaosHarness::new(4).gen_config(4, SimDuration::from_secs(4));
        run_campaign(|| CounterChaosHarness::new(4), CampaignMode::Mixed, &cfg, 4300..4306, workers)
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(one.coverage_json(), two.coverage_json());
    assert_eq!(one.coverage_json(), eight.coverage_json());
    // The new counters are present (and zero in a passing campaign).
    assert!(one.coverage_json().contains("\"trace_events_dropped\":0"));
    assert!(one.coverage_json().contains("\"latency_budget_violations\":0"));
}
