//! The conformance-wrapper interface and the `modify` upcall.

use base_pbft::ExecEnv;
use std::collections::{HashMap, HashSet};

/// How far (in ns) a proposed timestamp may differ from a backup's local
/// clock before the backup rejects the pre-prepare (paper §2.2: backups
/// validate the primary's non-deterministic choices).
pub const NONDET_SKEW_TOLERANCE_NS: u64 = 10_000_000_000;

/// Registry of abstract objects modified since the last checkpoint, with
/// their pre-images.
///
/// This realizes the paper's `modify` upcall: *"Each time the execute
/// upcall is about to modify an object in the abstract state it is required
/// to invoke a modify procedure"*. In the C library, `modify(i)` made the
/// library call `get_obj(i)` re-entrantly to snapshot the old value; in
/// Rust the wrapper passes a closure producing the old value instead, which
/// the log invokes only when a copy is actually needed (at most once per
/// object per checkpoint epoch).
#[derive(Debug, Default)]
pub struct ModifyLog {
    dirty: HashSet<u64>,
    /// Pre-images captured this epoch: the object's value as of the last
    /// checkpoint (`None` = the object was absent).
    copies: HashMap<u64, Option<Vec<u8>>>,
}

impl ModifyLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares that object `index` is about to be modified. `old` is
    /// invoked to capture the object's current (pre-modification) abstract
    /// value if this is the first modification since the last checkpoint.
    ///
    /// The wrapper **must** call this before mutating anything that affects
    /// object `index`'s abstract value.
    pub fn modify(&mut self, index: u64, old: impl FnOnce() -> Option<Vec<u8>>) {
        if self.dirty.insert(index) {
            self.copies.insert(index, old());
        }
    }

    /// True if `index` was modified since the last checkpoint.
    pub fn is_dirty(&self, index: u64) -> bool {
        self.dirty.contains(&index)
    }

    /// Number of distinct objects modified since the last checkpoint.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Iterates over the dirty object indices.
    pub fn dirty_indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.dirty.iter().copied()
    }

    /// Drains the log, returning the captured pre-images. Called by the
    /// checkpoint machinery at checkpoint time.
    pub(crate) fn drain(&mut self) -> HashMap<u64, Option<Vec<u8>>> {
        self.dirty.clear();
        std::mem::take(&mut self.copies)
    }

    /// The captured pre-image for `index`, if it was modified this epoch.
    pub fn copy_of(&self, index: u64) -> Option<&Option<Vec<u8>>> {
        self.copies.get(&index)
    }
}

/// The abstract-object read/write footprint of one operation, used by the
/// shard router to route it and by [`crate::ShardLockService`] to decide
/// whether it collides with a held cross-shard lock.
///
/// Two operations *conflict* when either writes an object the other reads
/// or writes. Non-conflicting operations commute on the abstract state and
/// produce order-independent replies (`proptest_conflicts.rs` holds the
/// KV footprint to that).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Abstract object indices the operation may read.
    pub reads: Vec<u64>,
    /// Abstract object indices the operation may create, modify or delete.
    pub writes: Vec<u64>,
}

impl Footprint {
    /// A read-only footprint over `indices`.
    pub fn reads(indices: impl Into<Vec<u64>>) -> Self {
        Self { reads: indices.into(), writes: Vec::new() }
    }

    /// A write footprint over `indices` (writes imply reads for conflict
    /// purposes, so no separate read set is needed).
    pub fn writes(indices: impl Into<Vec<u64>>) -> Self {
        Self { reads: Vec::new(), writes: indices.into() }
    }

    /// True if the two footprints conflict (either's writes intersect the
    /// other's reads or writes).
    pub fn conflicts_with(&self, other: &Footprint) -> bool {
        let hits = |xs: &[u64], ys: &[u64]| xs.iter().any(|x| ys.contains(x));
        hits(&self.writes, &other.writes)
            || hits(&self.writes, &other.reads)
            || hits(&other.writes, &self.reads)
    }
}

/// A conformance wrapper: makes one concrete service implementation behave
/// according to the common abstract specification.
///
/// The abstract state is an array of `n_objects` variable-sized objects;
/// an object may be *absent* (`None`), which encodes the paper's null
/// objects without reserving a concrete encoding for them.
///
/// Implementations may be non-deterministic internally (clocks, RNGs,
/// allocation order): determinism is only required of the *abstract*
/// behaviour given the same operations and `nondet` values.
pub trait Wrapper: 'static {
    /// Executes one operation against the wrapped implementation,
    /// translating between abstract identifiers in the request/reply and
    /// whatever the implementation uses internally.
    ///
    /// Must call [`ModifyLog::modify`] for every abstract object it is
    /// about to change, *before* changing it. Must not change any abstract
    /// object when `read_only` is true.
    fn execute(
        &mut self,
        op: &[u8],
        client: u32,
        nondet: &[u8],
        read_only: bool,
        mods: &mut ModifyLog,
        env: &mut ExecEnv<'_>,
    ) -> Vec<u8>;

    /// The abstraction function, restricted to object `index`: computes the
    /// object's abstract value from the concrete state. `None` = absent.
    ///
    /// Takes `&self`: the abstraction function is a pure *reading* of the
    /// concrete state (it must not perturb what it abstracts).
    /// Implementations needing bookkeeping (statistics) must use interior
    /// mutability.
    ///
    /// Cost contract: the library calls this once per dirty object per
    /// checkpoint, and wrappers call it once per object's first touch per
    /// checkpoint epoch (the [`ModifyLog::modify`] pre-image), always on
    /// the thread that called into the service. That is what makes a
    /// checkpoint cost what changed (paper §2.2) — but only if this is
    /// O(object), not O(state): keep the conformance rep indexed by
    /// abstract object so one object's value never requires a walk over
    /// the whole concrete state.
    fn get_obj(&self, index: u64) -> Option<Vec<u8>>;

    /// One inverse of the abstraction function: updates the concrete state
    /// so that the listed abstract objects take the given values
    /// (`None` = become absent). Called with a complete, consistent
    /// checkpoint delta (the paper's `put_objs` guarantee), so encodings
    /// may have inter-object dependencies.
    fn put_objs(&mut self, objs: &[(u64, Option<Vec<u8>>)], env: &mut ExecEnv<'_>);

    /// Size of the abstract object array.
    fn n_objects(&self) -> u64;

    /// Chooses non-deterministic values for a batch (primary only); the
    /// default proposes the local clock as an 8-byte timestamp, forced
    /// monotone past the last agreed value.
    fn propose_nondet(&mut self, env: &mut ExecEnv<'_>) -> Vec<u8> {
        env.local_clock_ns.max(self.last_nondet_ns() + 1).to_be_bytes().to_vec()
    }

    /// Validates the primary's proposal; the default accepts an 8-byte
    /// timestamp that is newer than the last executed one and within
    /// [`NONDET_SKEW_TOLERANCE_NS`] of this replica's local clock — a
    /// Byzantine primary cannot push wildly wrong times into the abstract
    /// state.
    fn check_nondet(&self, nondet: &[u8], env: &mut ExecEnv<'_>) -> bool {
        let Ok(bytes) = <[u8; 8]>::try_from(nondet) else { return false };
        let ts = u64::from_be_bytes(bytes);
        if ts <= self.last_nondet_ns() {
            return false;
        }
        let clock = env.local_clock_ns;
        ts.abs_diff(clock) <= NONDET_SKEW_TOLERANCE_NS
    }

    /// Does nothing and is called by nothing in `crates/`: footprints are
    /// plain functions (`demo::kv_footprint`, `shard::counter_footprint`)
    /// handed to the shard router and the lock service. It exists only
    /// because `benchmark/src/trace.rs:574` overrides it to forward to the
    /// wrapper it times, and goes when that override does (ROADMAP item 2).
    fn footprint(&self, op: &[u8]) -> Option<Footprint> {
        let _ = op;
        None
    }

    /// The newest agreed timestamp this wrapper has executed (0 if none).
    /// Implementations that use the default timestamp agreement should
    /// track it from `execute`'s `nondet` argument.
    fn last_nondet_ns(&self) -> u64 {
        0
    }

    /// Restarts the implementation from a clean initial concrete state
    /// (proactive recovery, paper §2.2/§3.4).
    fn reset(&mut self, env: &mut ExecEnv<'_>);

    /// Reconstructs the conformance rep after a warm reboot (the concrete
    /// state survived on disk; volatile bookkeeping like file-handle maps
    /// must be rebuilt, paper §3.4). The default does nothing.
    fn rebuild_rep(&mut self, env: &mut ExecEnv<'_>) {
        let _ = env;
    }

    /// Fault-injection hook: silently corrupts some concrete state derived
    /// from `seed`, *without* telling the abstraction layer (no `ModifyLog`
    /// entry). The damage stays latent until a warm reboot's abstraction
    /// rescan re-derives the abstract objects, at which point state
    /// transfer repairs them. The default is a no-op.
    fn corrupt_state(&mut self, seed: u64) {
        let _ = seed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modify_captures_preimage_once() {
        let mut log = ModifyLog::new();
        let mut calls = 0;
        log.modify(3, || {
            calls += 1;
            Some(b"old".to_vec())
        });
        log.modify(3, || {
            calls += 1;
            Some(b"newer".to_vec())
        });
        assert_eq!(calls, 1, "pre-image captured only on first modify");
        assert!(log.is_dirty(3));
        assert_eq!(log.dirty_count(), 1);
        assert_eq!(log.copy_of(3), Some(&Some(b"old".to_vec())));
    }

    #[test]
    fn drain_resets_epoch() {
        let mut log = ModifyLog::new();
        log.modify(1, || None);
        log.modify(2, || Some(vec![9]));
        let copies = log.drain();
        assert_eq!(copies.len(), 2);
        assert_eq!(copies[&1], None);
        assert_eq!(copies[&2], Some(vec![9]));
        assert_eq!(log.dirty_count(), 0);
        // A new epoch captures fresh pre-images.
        let mut called = false;
        log.modify(1, || {
            called = true;
            Some(vec![1])
        });
        assert!(called);
    }
}
