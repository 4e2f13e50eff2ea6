#!/usr/bin/env bash
# The benchmark's end-to-end metrics, a parent revision against the working
# tree, in alternating pairs of runs.
#
#   scripts/ab.sh <parent-rev> [workload...] [--pairs N]   e.g. scripts/ab.sh HEAD recovery --pairs 10
#
# Exports <parent-rev> with `git archive` into target/ab/parent-src and
# builds its benchmark into target/ab/parent, and the working tree's into
# target/ab/change, restoring benchmark/Cargo.lock after the build as
# scripts/profile.sh does. Then, for each workload (all five when none is
# named), runs N pairs (default 10): pair i is one run of each side, both
# `--seed i --seconds 15 --trace 0`, the parent first in odd pairs and the
# change first in even ones. Each run's last output line is kept as
# target/ab/<workload>.<parent|change>.<i>.json.
#
# Prints, per workload and end-to-end metric of BENCHMARK.json, the
# parent's and the change's medians, the parent's quartile spread (Q3 - Q1),
# the median of the per-pair ratios change/parent, the pairs the change won
# (better by the metric's direction), the pairs whose two values are equal,
# and the verdict of the claim rule:
#
#   gain        the change won at least nine tenths of the pairs (ties count
#               for neither side) and the medians differ, in its favour, by
#               more than the parent's spread;
#   worse       the change's median is worse than the parent's by more than
#               the metric's `bound`;
#   unresolved  anything else, equal values on every pair included.
#
# Then, per workload, each side's failed and attempted operations summed over
# its runs and the failed share.
#
# Exits 1 if any run reports `correct: false` or fails, or if the change's
# share of failed operations on a workload exceeds the parent's. Not run by
# tier-1 or CI. Needs python3.
set -euo pipefail
cd "$(dirname "$0")/.."
usage="usage: scripts/ab.sh <parent-rev> [workload...] [--pairs N]"
rev=${1:?$usage}
shift
pairs=10
workloads=()
while (($#)); do
  case "$1" in
    --pairs) pairs=${2:?$usage}; shift 2 ;;
    -*) echo "$usage" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
if ((${#workloads[@]} == 0)); then
  workloads=(kv_write kv_read nfs_andrew recovery shard_cross)
fi
out=target/ab
rm -rf "$out/parent-src" "$out"/*.json
mkdir -p "$out/parent-src"
git archive "$rev" | tar -x -C "$out/parent-src"

# Building the benchmark prunes benchmark/Cargo.lock; put it back after.
cp benchmark/Cargo.lock "$out/Cargo.lock.saved"
CARGO_TARGET_DIR="$out/parent" \
  cargo build --release --quiet --manifest-path "$out/parent-src/benchmark/Cargo.toml"
CARGO_TARGET_DIR="$out/change" cargo build --release --quiet --manifest-path benchmark/Cargo.toml
cp "$out/Cargo.lock.saved" benchmark/Cargo.lock

failed=0
for w in "${workloads[@]}"; do
  for i in $(seq 1 "$pairs"); do
    sides="parent change"
    if ((i % 2 == 0)); then sides="change parent"; fi
    for side in $sides; do
      if ! "$out/$side/release/base-benchmark" --workload "$w" --seed "$i" --seconds 15 --trace 0 \
        | tail -n 1 >"$out/$w.$side.$i.json"; then
        echo "ab: $w pair $i: the $side run failed" >&2
        failed=1
      fi
    done
  done
done

python3 - "$out" "$pairs" "${workloads[@]}" <<'EOF' || failed=1
import json, math, statistics, sys

out, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
ok = True


def verdict(parents, changes, won, lower, bound):
    """The claim rule: `gain`, `worse` or `unresolved`."""
    p, c = statistics.median(parents), statistics.median(changes)
    better_by = (p - c) if lower else (c - p)
    if won >= math.ceil(0.9 * len(parents)) and better_by > spread(parents):
        return "gain"
    if p and -better_by / abs(p) > bound:
        return "worse"
    return "unresolved"


def spread(values):
    """Q3 - Q1, quartiles interpolated between the sorted values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


print(f"{'workload':<12} {'metric':<20} {'parent':>14} {'change':>14} {'spread':>12} {'ratio':>7}"
      f"  won  same  verdict")
for w in workloads:
    runs = {side: [] for side in ("parent", "change")}
    for side, got in runs.items():
        for i in range(1, pairs + 1):
            try:
                got.append(json.loads(open(f"{out}/{w}.{side}.{i}.json").read()))
            except (OSError, ValueError):
                got.append({"correct": False, "metrics": {}})
    for side, got in runs.items():
        for i, r in enumerate(got, 1):
            if r.get("correct") is not True:
                print(f"ab: {w} pair {i}: the {side} run is not correct", file=sys.stderr)
                ok = False
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        value = lambda r: r["metrics"].get(name, {}).get("value")
        pairs_of = [(value(p), value(c)) for p, c in zip(runs["parent"], runs["change"])]
        pairs_of = [(p, c) for p, c in pairs_of if p is not None and c is not None]
        if not pairs_of:
            continue
        parents, changes = [p for p, _ in pairs_of], [c for _, c in pairs_of]
        ratio = statistics.median(c / p if p else float("nan") for p, c in pairs_of)
        won = sum((c < p) if lower else (c > p) for p, c in pairs_of)
        same = sum(c == p for p, c in pairs_of)
        said = verdict(parents, changes, won, lower, m["bound"])
        print(f"{w:<12} {name:<20} {statistics.median(parents):>14.9g} "
              f"{statistics.median(changes):>14.9g} {spread(parents):>12.6g} {ratio:>7.3f}"
              f"  {won:>3}  {same:>4}  {said} (of {len(pairs_of)})")
    share = {}
    for side, got in runs.items():
        failed = sum(r.get("failed", 0) for r in got)
        attempted = sum(r.get("attempted", 0) for r in got)
        share[side] = failed / attempted if attempted else 0.0
        print(f"{w:<12} failed ops {side:<6} {failed:>10} of {attempted:>12}"
              f"  ({100 * share[side]:.6f} %)")
    if share["change"] > share["parent"]:
        print(f"ab: {w}: the change fails a larger share of operations", file=sys.stderr)
        ok = False
sys.exit(0 if ok else 1)
EOF
exit "$failed"
