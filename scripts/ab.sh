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
# change first in even ones; then one traced pair, both `--seed 1 --seconds
# 15 --trace 1`, the parent first, and the parent's traced run once more
# (`trace2`). Each run's last output line is kept as
# target/ab/<workload>.<parent|change>.<i|trace|trace2>.json, and the CPU
# seconds (user and system, from getrusage) its process used as
# target/ab/<workload>.<parent|change>.<i|trace|trace2>.cpu.
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
# Then, per workload:
#
#   - each pair in run order: which side ran first, each side's
#     `wall_ops_per_s` and CPU seconds, and the pair's ratios change/parent
#     of both, so that a drift of the machine over the whole A/B shows beside
#     the change's effect (a run does a fixed amount of simulated work, so
#     its CPU time is what that work cost), then the CPU medians;
#   - the traced pair's per-op counts, which the code determines at a seed
#     (`alloc.count_per_op`, `alloc.bytes_per_op`, `simnet.events_per_op`,
#     `simnet.msgs_per_op`, `simnet.bytes_per_op`): `equal`, or the ratio
#     change/parent, or `nondeterministic` when the parent's two traced
#     runs read different values, so the count cannot compare the sides;
#   - each side's failed and attempted operations summed over its untraced
#     runs and the failed share.
#
# These lines are evidence beside the verdicts: no verdict reads them.
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
rm -rf "$out/parent-src" "$out"/*.json "$out"/*.cpu
mkdir -p "$out/parent-src"
git archive "$rev" | tar -x -C "$out/parent-src"

# Building the benchmark prunes benchmark/Cargo.lock; put it back after.
cp benchmark/Cargo.lock "$out/Cargo.lock.saved"
CARGO_TARGET_DIR="$out/parent" \
  cargo build --release --quiet --manifest-path "$out/parent-src/benchmark/Cargo.toml"
CARGO_TARGET_DIR="$out/change" cargo build --release --quiet --manifest-path benchmark/Cargo.toml
cp "$out/Cargo.lock.saved" benchmark/Cargo.lock

# One run of one side: `run <side> <workload> <seed> <trace> <name>` keeps
# the run's last output line as $out/<name>.json and the CPU seconds of its
# process as $out/<name>.cpu, and fails as the run fails.
run() {
  python3 - "$out/$1/release/base-benchmark" "$2" "$3" "$4" "$out/$5" <<'PY'
import resource, subprocess, sys

binary, workload, seed, trace, stem = sys.argv[1:]
args = ["--workload", workload, "--seed", seed, "--seconds", "15", "--trace", trace]
done = subprocess.run([binary, *args], stdout=subprocess.PIPE)
# The benchmark is this process's one child, so the children's usage is its.
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
lines = done.stdout.decode().splitlines()
open(f"{stem}.json", "w").write((lines[-1] if lines else "") + "\n")
open(f"{stem}.cpu", "w").write(f"{usage.ru_utime + usage.ru_stime:.3f}\n")
sys.exit(done.returncode)
PY
}

failed=0
for w in "${workloads[@]}"; do
  for i in $(seq 1 "$pairs"); do
    sides="parent change"
    if ((i % 2 == 0)); then sides="change parent"; fi
    for side in $sides; do
      if ! run "$side" "$w" "$i" 0 "$w.$side.$i"; then
        echo "ab: $w pair $i: the $side run failed" >&2
        failed=1
      fi
    done
  done
  for side in parent.trace change.trace parent.trace2; do
    if ! run "${side%.*}" "$w" 1 1 "$w.$side"; then
      echo "ab: $w traced run $side failed" >&2
      failed=1
    fi
  done
done

python3 - "$out" "$pairs" "${workloads[@]}" <<'EOF' || failed=1
import json, math, statistics, sys

out, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
EXACT = ["alloc.count_per_op", "alloc.bytes_per_op", "simnet.events_per_op",
         "simnet.msgs_per_op", "simnet.bytes_per_op"]
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


def load(name):
    """A run's result line, or an incorrect one if it left none."""
    try:
        return json.loads(open(f"{out}/{name}.json").read())
    except (OSError, ValueError):
        return {"correct": False, "metrics": {}}


def cpu(name):
    """A run's CPU seconds, or None if it left none."""
    try:
        return float(open(f"{out}/{name}.cpu").read())
    except (OSError, ValueError):
        return None


def value(r, name):
    return r["metrics"].get(name, {}).get("value")


def ratio(p, c):
    return f"{c / p:.3f}" if p and c is not None else "-"


def shown(v, width):
    return f"{v:>{width}.9g}" if v is not None else f"{'-':>{width}}"


print(f"{'workload':<12} {'metric':<20} {'parent':>14} {'change':>14} {'spread':>12} {'ratio':>7}"
      f"  won  same  verdict")
for w in workloads:
    runs = {side: [load(f"{w}.{side}.{i}") for i in range(1, pairs + 1)]
            for side in ("parent", "change")}
    for side, got in runs.items():
        for i, r in enumerate(got, 1):
            if r.get("correct") is not True:
                print(f"ab: {w} pair {i}: the {side} run is not correct", file=sys.stderr)
                ok = False
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs_of = [(value(p, name), value(c, name)) for p, c in zip(runs["parent"], runs["change"])]
        pairs_of = [(p, c) for p, c in pairs_of if p is not None and c is not None]
        if not pairs_of:
            continue
        parents, changes = [p for p, _ in pairs_of], [c for _, c in pairs_of]
        median_ratio = statistics.median(c / p if p else float("nan") for p, c in pairs_of)
        won = sum((c < p) if lower else (c > p) for p, c in pairs_of)
        same = sum(c == p for p, c in pairs_of)
        said = verdict(parents, changes, won, lower, m["bound"])
        print(f"{w:<12} {name:<20} {statistics.median(parents):>14.9g} "
              f"{statistics.median(changes):>14.9g} {spread(parents):>12.6g} {median_ratio:>7.3f}"
              f"  {won:>3}  {same:>4}  {said} (of {len(pairs_of)})")

    print(f"{w:<12} in run order: wall_ops_per_s and CPU s of each side, ratios change/parent")
    cpus = []
    for i in range(1, pairs + 1):
        p, c = (value(runs[side][i - 1], "wall_ops_per_s") for side in ("parent", "change"))
        pc, cc = cpu(f"{w}.parent.{i}"), cpu(f"{w}.change.{i}")
        if pc and cc is not None:
            cpus.append((pc, cc))
        first = "parent" if i % 2 else "change"
        print(f"{w:<12}   pair {i:>2}, {first} first: parent {shown(p, 10)} {shown(pc, 7)} s"
              f"  change {shown(c, 10)} {shown(cc, 7)} s  wall {ratio(p, c):>6}  cpu {ratio(pc, cc):>6}")
    if cpus:
        print(f"{w:<12} cpu_s median: parent {statistics.median(p for p, _ in cpus):.2f}"
              f"  change {statistics.median(c for _, c in cpus):.2f}"
              f"  parent spread {spread([p for p, _ in cpus]):.2f}"
              f"  median ratio {statistics.median(c / p for p, c in cpus):.3f}")

    traced = [load(f"{w}.{run}") for run in ("parent.trace", "change.trace", "parent.trace2")]
    print(f"{w:<12} exact counts per op (--trace 1, seed 1): parent, change")
    for name in EXACT:
        p, c, again = (value(r, name) for r in traced)
        if p != again:
            said = "nondeterministic"
        else:
            said = "equal" if p == c and p is not None else ratio(p, c)
        print(f"{w:<12}   {name:<22} {shown(p, 14)} {shown(c, 14)}  {said}")

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
