#!/usr/bin/env bash
# The snapshot gates, one entry point. The simulator is seeded, so every
# artifact below is deterministic and any drift is a behaviour change a
# reviewer should see. Each gate rebuilds its artifact, compares it with the
# blessed copy under crates/bench/tests/snapshots/, and on drift leaves the
# fresh artifact and its diff under target/<gate>/ (CI uploads them).
#
#   coverage  campaign coverage JSON under target/chaos-coverage/ (written by
#             the chaos suites of `cargo test`): each of the seven acceptance
#             campaigns left its artifact, forces view changes, completes all
#             its client ops, reports zero liveness violations and drops no
#             trace events. Nothing to bless.
#   metrics   merged metrics registries of the E9 run and the fixed NFS and
#             OODB campaigns ({e9,nfs,oodb}_metrics.json).
#   traces    protocol event traces of the counter, NFS and OODB acceptance
#             scenarios (traces/*.jsonl); `repro --diff` names the first
#             diverging event with per-replica context.
#   spans     the counter scenario's causal span graph: per-op span lines with
#             the phase breakdown, and the Chrome-trace export (spans/*).
#   bench     the bench lab's deterministic counts (bench_baseline.json),
#             compared exactly by `bench --check`: the E9 cell, campaign,
#             ddmin, checkpoint, transfer and pipeline (depth 1 vs 4)
#             sections, plus `recovery` (E4b: replica 3's catch-up with
#             whole-object and with 1 KiB chunked leaves — bytes, queries,
#             chunks reused, the root it certified) and `shards` (E14: sim
#             ops/s of the disjoint and mixed workloads at 1, 2 and 4 groups,
#             cross-shard aborts, disjoint speedups). No other file or script
#             pins these counts.
#
# Usage:
#   scripts/gate.sh                  # every gate
#   scripts/gate.sh traces spans     # the named gates
#   scripts/gate.sh --bless metrics  # regenerate the named gates' snapshots
set -euo pipefail
cd "$(dirname "$0")/.."

SNAP=crates/bench/tests/snapshots
BLESS=0
if [ "${1:-}" = "--bless" ]; then
  BLESS=1
  shift
fi
[ $# -gt 0 ] || set -- coverage metrics traces spans bench
status=0

# artifact <gate> <snapshot> <fresh> <differ...>: blesses the fresh artifact,
# or runs `<differ> <snapshot> <fresh>` and keeps its output as <fresh>.diff.
artifact() {
  local gate=$1 snap=$2 fresh=$3
  shift 3
  if [ "$BLESS" = 1 ]; then
    mkdir -p "$(dirname "$snap")"
    cp "$fresh" "$snap"
    echo "$gate gate: blessed $snap"
  elif "$@" "$snap" "$fresh" >"$fresh.diff" 2>&1; then
    echo "$gate gate: $(basename "$snap") OK"
  else
    echo "$gate gate: $(basename "$snap") DIVERGED" >&2
    head -n 40 "$fresh.diff" >&2
    status=1
  fi
}

# One JSON key per line, so a diff names the fields that moved.
diff_json() {
  diff <(tr ',' '\n' <"$1") <(tr ',' '\n' <"$2")
}

gate_coverage() {
  local dir=target/chaos-coverage name f
  # count <file> <field>: the campaign-level counter, first match.
  count() { grep -o "\"$2\":[0-9]*" "$1" | head -n1 | cut -d: -f2; }
  # One artifact per acceptance campaign, by the name it passes to
  # CampaignReport::write_coverage: a campaign that stops writing its own
  # fails here, whatever the others left in the directory.
  for name in counter_mixed counter_storm shard_mixed shard_storm kv_mixed nfs_mixed oodb_mixed; do
    f=$dir/$name.json
    if [ ! -s "$f" ]; then
      echo "error: coverage gate: no $f (did the campaign tests run?)" >&2
      status=1
      continue
    fi
    local vc submitted completed violations dropped
    vc=$(count "$f" view_changes_started)
    submitted=$(count "$f" client_ops_submitted)
    completed=$(count "$f" client_ops_completed)
    violations=$(count "$f" liveness_violations)
    dropped=$(count "$f" trace_events_dropped)
    echo "$(basename "$f"): runs=$(count "$f" runs) view_changes_started=${vc:-?}" \
      "client_ops=${completed:-?}/${submitted:-?} liveness_violations=${violations:-?}" \
      "trace_events_dropped=${dropped:-?}"
    # A campaign that never unseats a primary is not exercising the
    # paper's recovery machinery, whatever its pass rate says.
    [ "${vc:-0}" -gt 0 ] || { echo "error: $f forced no view change" >&2; status=1; }
    # A passing campaign with violations means auditor verdicts are dropped.
    [ "${violations:-1}" -eq 0 ] || { echo "error: $f has liveness violations (or no counter)" >&2; status=1; }
    # Evicted trace events undercount coverage and truncate span graphs.
    [ "${dropped:-1}" -eq 0 ] || { echo "error: $f dropped trace events (or no counter)" >&2; status=1; }
    [ "${completed:-0}" -gt 0 ] && [ "${completed:-0}" -eq "${submitted:-$completed}" ] ||
      { echo "error: $f completed ${completed:-0} of ${submitted:-?} client ops" >&2; status=1; }
  done
}

gate_metrics() {
  local suites=(-p base-bench --test metrics_snapshot --test campaign_metrics) name
  if [ "$BLESS" = 1 ]; then
    BLESS=1 cargo test -q "${suites[@]}"
    echo "metrics gate: blessed $SNAP/{e9,nfs,oodb}_metrics.json"
  elif cargo test -q "${suites[@]}"; then
    echo "metrics gate: OK"
  else
    # The suites leave what they measured under target/metrics/.
    for name in e9 nfs oodb; do
      if [ -f "target/metrics/${name}_metrics.actual.json" ]; then
        echo "--- $name diff (snapshot vs actual) ---" >&2
        diff_json "$SNAP/${name}_metrics.json" "target/metrics/${name}_metrics.actual.json" >&2 || true
      fi
    done
    echo "metrics gate: DIVERGED" >&2
    status=1
  fi
}

gate_traces() {
  local s
  cargo build --release -q -p base-bench --bin repro
  for s in counter nfs oodb; do
    ./target/release/repro --export "$s" --out target/traces >/dev/null
    artifact trace "$SNAP/traces/$s.jsonl" "target/traces/$s.jsonl" ./target/release/repro --diff
  done
}

gate_spans() {
  local f
  cargo build --release -q -p base-bench --bin repro
  ./target/release/repro --export counter --perfetto --out target/spans >/dev/null
  for f in counter.spans.txt counter.perfetto.json; do
    artifact span "$SNAP/spans/$f" "target/spans/$f" diff -u
  done
}

gate_bench() {
  cargo build --release -q -p base-bench --bin bench
  # `bench --check` measures for itself; the written report is only what a
  # re-bless would produce, for blessing or for a reviewer to judge drift.
  report() { ./target/release/bench --json --stamp baseline --out target/bench >/dev/null; }
  check() {
    ./target/release/bench --check "$1" && return
    report && diff_json "$1" "$2"
    return 1
  }
  mkdir -p target/bench
  if [ "$BLESS" = 1 ]; then
    report
  fi
  artifact bench "$SNAP/bench_baseline.json" target/bench/BENCH_baseline.json check
}

for name in "$@"; do
  case "$name" in
    coverage | metrics | traces | spans | bench) "gate_$name" ;;
    *)
      echo "unknown gate: $name (coverage metrics traces spans bench)" >&2
      exit 2
      ;;
  esac
done
if [ "$status" -ne 0 ]; then
  echo "intentional change? run: scripts/gate.sh --bless $*" >&2
fi
exit "$status"
