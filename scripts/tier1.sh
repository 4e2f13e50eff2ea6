#!/usr/bin/env bash
# Tier-1 verification: the gate every PR must keep green (see ROADMAP.md).
#
# Builds the whole workspace in release mode, then runs the full test
# suite. Offline by construction: .cargo/config.toml pins net.offline and
# every external dependency is a vendored path dependency, so this runs
# identically with or without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

# base-crypto's own suite, optimised: the bare `cargo test -q` above covers
# only the root package, and this is where the hardware SHA-256 compress
# function is held to the scalar one, block for block (see
# crates/crypto/src/sha256.rs). The second line says which of the two this
# machine's CPU selects, so a log shows what the run above exercised.
cargo test -q --release -p base-crypto
cargo test -q --release -p base-crypto --lib detected_compress_path -- --nocapture \
  | grep "sha256 compress path"

# Pipeline equivalence gate: pipelined agreement + conflict-grouped
# execution must be observationally equivalent to the serial schedule
# (see crates/bench/tests/pipeline_equivalence.rs). On divergence the
# suite writes both fingerprints under target/tmp/equivalence/.
cargo test -q -p base-bench --test pipeline_equivalence

# Coded-transfer equivalence gate: erasure-coded recovery must converge to
# the same installed state as the legacy whole-object path — byte-identical
# roots at chunk_size 0 — and survive fragment drops/corruption (see
# crates/pbft/tests/coded_transfer.rs).
cargo test -q -p base-pbft --test coded_transfer

# Sharding equivalence gate: a shards=1 deployment must be byte-identical
# to the unsharded one — replies, virtual-time latencies, state roots and
# protocol progress (see crates/core/tests/shard_equivalence.rs). On
# divergence the suite writes both fingerprints under
# target/tmp/equivalence/.
cargo test -q -p base --test shard_equivalence
