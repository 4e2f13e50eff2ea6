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
# `default-members` in the root Cargo.toml makes this the whole workspace:
# every crate's unit, integration, property and equivalence suite.
cargo test -q

# base-crypto's suite again, optimised: this is where the hardware SHA-256
# compress function is held to the scalar one, block for block (see
# crates/crypto/src/sha256.rs), and release mode is a different build of
# that unsafe code. The second line says which of the two this machine's
# CPU selects, so a log shows what the run above exercised.
cargo test -q --release -p base-crypto
cargo test -q --release -p base-crypto --lib detected_compress_path -- --nocapture \
  | grep "sha256 compress path"
