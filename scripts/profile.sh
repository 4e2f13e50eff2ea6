#!/usr/bin/env bash
# Where a benchmark workload spends its CPU time, or holds its heap at peak.
#
#   scripts/profile.sh <workload> [seed] [cpu|heap]   e.g. scripts/profile.sh kv_write 1 heap
#
# Builds the benchmark unmodified but with frame pointers into its own
# target directory (target/profile) and runs the workload `--trace 0`
# with a profiler preloaded:
#
#   cpu   scripts/sigprof.c, one sample per millisecond of CPU time over
#         five runs. Prints the hottest functions, flat (the sampled
#         instruction) and inclusive (anywhere on the stack), then the
#         samples in the allocator or outside the binary grouped by their
#         first caller in the binary.
#   heap  scripts/heapprof.c, one run. Prints the live bytes at the
#         process's peak by allocating site (the innermost frame in the
#         workspace's own crates and its caller), and inclusive by function.
#
# The default is cpu. Setup and the benchmark's crypto and codec kernels
# are in both profiles. Not run by tier-1 or CI. Needs cc, nm (binutils)
# and python3; x86-64 Linux with glibc only.
set -euo pipefail
cd "$(dirname "$0")/.."
usage="usage: scripts/profile.sh <workload> [seed] [cpu|heap]"
workload=${1:?$usage}
seed=${2:-1}
mode=${3:-cpu}
out=target/profile
mkdir -p "$out"

# Building the benchmark prunes benchmark/Cargo.lock; put it back after.
cp benchmark/Cargo.lock "$out/Cargo.lock.saved"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$out" \
  cargo build --release --quiet --manifest-path benchmark/Cargo.toml
cp "$out/Cargo.lock.saved" benchmark/Cargo.lock
bin="$(pwd)/$out/release/base-benchmark"
nm -C --defined-only -n "$bin" >"$out/symbols.txt"
rm -f "$out"/samples.*.txt

case "$mode" in
  cpu)
    cc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$out/sigprof.so" scripts/sigprof.c
    for run in 1 2 3 4 5; do
      SIGPROF_OUT="$out/samples.$run.txt" LD_PRELOAD="$(pwd)/$out/sigprof.so" \
        "$bin" --workload "$workload" --seed "$seed" --seconds 15 --trace 0 >/dev/null
    done
    ;;
  heap)
    cc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$out/heapprof.so" scripts/heapprof.c -lpthread
    # Every allocation walks its stack, so the run is several times slower:
    # `--seconds` only bounds how long a run may take before it is called hung.
    HEAPPROF_OUT="$out/samples.1.txt" LD_PRELOAD="$(pwd)/$out/heapprof.so" \
      "$bin" --workload "$workload" --seed "$seed" --seconds 300 --trace 0 >/dev/null
    ;;
  *)
    echo "$usage" >&2
    exit 2
    ;;
esac

python3 - "$mode" "$bin" "$out/symbols.txt" "$workload" "$seed" "$out"/samples.*.txt <<'EOF'
import bisect, collections, re, sys

mode, binary, symbols_path, workload, seed, *runs = sys.argv[1:]
ALLOC = ("__rustc::", "__rdl_", "alloc::alloc::", "alloc::raw_vec::")  # the allocator's shims
OURS = re.compile(r"\bbase(_[a-z]+)?::")  # a function of the workspace's own crates
# `nm -n` lists by address. The linker folds functions with identical
# bodies into one, so one address can carry several names: its row shows
# them all, joined by " | ", rather than whichever `nm` listed last.
addrs, names = [], []
for line in open(symbols_path):
    parts = line.rstrip("\n").split(" ", 2)
    if len(parts) == 3 and parts[1] in "tTwW":
        addr = int(parts[0], 16)
        if addrs and addrs[-1] == addr:
            if parts[2] not in names[-1]:
                names[-1].append(parts[2])
        else:
            addrs.append(addr)
            names.append([parts[2]])
folded = sum(len(n) > 1 for n in names)
names = [" | ".join(n) for n in names]

def outside(path):
    # The installed libc is stripped: its nearest export names the wrong
    # function, so all of it is one row.
    name = path.rsplit("/", 1)[-1]
    return "libc (memmove / malloc internals)" if name.startswith("libc.so") else f"[{name}]"

flat, inclusive, callers, sites = (collections.Counter() for _ in range(4))
total = peak = 0
for path in runs:  # each run has its own address-space layout
    with open(path) as f:
        head, body = f.read().split("--\n", 1)
    maps = []
    for line in head.splitlines():
        parts = line.split()
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        maps.append((lo, hi, int(parts[2], 16), parts[5] if len(parts) > 5 else "[anon]"))
    # The binary is position-independent: its lowest mapping is its load base.
    base = min(lo - off for lo, _, off, p in maps if p == binary)

    def symbol(addr):
        if not any(lo <= addr < hi and p == binary for lo, hi, _, p in maps):
            return None
        return names[max(bisect.bisect_right(addrs, addr - base) - 1, 0)]

    for line in body.splitlines():
        if line.startswith("peak "):
            peak += int(line.split()[1])
            continue
        words = [int(a, 16) for a in line.split()]
        if mode == "heap":
            # Bytes, then return addresses only: each points past its call.
            weight, syms, extra = int(line.split()[0]), [symbol(a - 1) for a in words[1:]], set()
            ours = [s for s in syms if s and OURS.search(s)]
            site = " <- ".join(ours[:2]) if ours else next((s for s in syms if s), "(no frame in the binary)")
            sites[site] += weight
        else:
            pc, rets = words[0], words[1:]
            weight, syms = 1, [symbol(pc)] + [symbol(a - 1) for a in rets]
            where = [p for lo, hi, _, p in maps if lo <= pc < hi]
            leaf = syms[0] or (outside(where[0]) if where else "[?]")
            if syms[0] is None or leaf.startswith(ALLOC):
                first = [s for s in syms[1:] if s and not s.startswith(ALLOC)]
                callers[(leaf, first[0] if first else "(no caller in the binary)")] += 1
            flat[leaf] += 1
            extra = {leaf}
        total += weight
        for s in {s for s in syms if s} | extra:
            inclusive[s] += weight

folded_note = (f"{folded} addresses carry more than one name (bodies the linker folded); "
               "a row for one lists every name, joined by ' | ', untruncated")

def table(title, rows, unit):
    print(f"\n{title}")
    for name, n in rows:
        print(f"{unit(n)}  {name if ' | ' in name else name[:140]}")

pct = lambda n: f"{100 * n / max(total, 1):7.1f}"
if mode == "heap":
    mb = lambda n: f"{n / 1e6:8.3f}"
    print(f"{workload} seed {seed}: {peak / 1e6:.3f} MB live at the process's peak, "
          f"{total / 1e6:.3f} MB of it attributed")
    print(folded_note)
    table("      MB  site: innermost workspace frame <- its caller (top 30)", sites.most_common(30), mb)
    table("      MB  function, anywhere on the stack (top 30)", inclusive.most_common(30), mb)
else:
    print(f"{workload} seed {seed}: {total} samples in {len(runs)} runs")
    print(folded_note)
    table(" flat %  incl %  function (flat top 25)",
          [(f"{100 * inclusive[k] / max(total, 1):6.1f}  {k}", n) for k, n in flat.most_common(25)], pct)
    table(" incl %  function (inclusive top 25)", inclusive.most_common(25), pct)
    table(" flat %  allocator and outside the binary, by first caller in it (top 20)",
          [(f"{where} <- {caller}", n) for (where, caller), n in callers.most_common(20)], pct)
EOF
