//! The conformance-wrapper interface and the `modify` upcall.

use base_pbft::ExecEnv;
use base_xdr::XdrEncoder;
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// How far (in ns) a proposed timestamp may differ from a backup's local
/// clock before the backup rejects the pre-prepare (paper §2.2: backups
/// validate the primary's non-deterministic choices).
pub const NONDET_SKEW_TOLERANCE_NS: u64 = 10_000_000_000;

/// The handle a [`PreImage`] keeps a shared run by: the run's offset and
/// the `Arc<[u8]>` that holds it. Only a run longer than this is worth
/// sharing; a shorter one costs less copied than referred to.
pub const SHARED_RUN_HANDLE: usize = std::mem::size_of::<(usize, Arc<[u8]>)>();

/// An object's abstract value as a copy-on-write pre-image keeps it: the
/// object's XDR encoding, except that a byte run longer than
/// [`SHARED_RUN_HANDLE`] may be left out and kept by reference to the
/// immutable buffer the live concrete state holds it in.
///
/// A put into a 16 KiB slot of 1 KiB values then costs the one value it
/// replaces, not a copy of the slot (DESIGN.md §12). The runs are spliced
/// back only when the whole encoding is read ([`PreImage::to_bytes`]),
/// which is when a fetch asks for the object at an old checkpoint. A
/// shared buffer is never mutated: whoever changes the value it holds
/// replaces the buffer, so the pre-image keeps the old bytes.
#[derive(Debug)]
pub struct PreImage(Repr);

#[derive(Debug)]
enum Repr {
    /// The whole encoding.
    Plain(Vec<u8>),
    /// The encoding less its shared runs, and each run with the offset in
    /// `bytes` it goes back in at, in offset order.
    Spliced(Box<Spliced>),
}

#[derive(Debug)]
struct Spliced {
    bytes: Vec<u8>,
    runs: Vec<(usize, Arc<[u8]>)>,
}

// What the modify log and the reverse-delta records hold per object costs
// no more than the plain `Option<Vec<u8>>` they held before.
const _: () =
    assert!(std::mem::size_of::<Option<PreImage>>() == std::mem::size_of::<Option<Vec<u8>>>());

impl PreImage {
    /// The whole encoding, spliced together when runs are shared.
    pub fn to_bytes(&self) -> Cow<'_, [u8]> {
        match &self.0 {
            Repr::Plain(bytes) => Cow::Borrowed(bytes),
            Repr::Spliced(s) => {
                let len = s.bytes.len() + s.runs.iter().map(|(_, run)| run.len()).sum::<usize>();
                let mut out = Vec::with_capacity(len);
                let mut at = 0;
                for (offset, run) in &s.runs {
                    out.extend_from_slice(&s.bytes[at..*offset]);
                    out.extend_from_slice(run);
                    at = *offset;
                }
                out.extend_from_slice(&s.bytes[at..]);
                Cow::Owned(out)
            }
        }
    }

    /// The whole encoding, by value: a plain pre-image hands its bytes
    /// over without a copy.
    pub fn into_bytes(self) -> Vec<u8> {
        match self.0 {
            Repr::Plain(bytes) => bytes,
            Repr::Spliced(_) => self.to_bytes().into_owned(),
        }
    }

    /// The buffers this pre-image shares, in encoding order (none for a
    /// plain one).
    #[cfg(test)]
    pub(crate) fn shared_runs(&self) -> impl Iterator<Item = &Arc<[u8]>> {
        let runs = match &self.0 {
            Repr::Plain(_) => &[][..],
            Repr::Spliced(s) => &s.runs[..],
        };
        runs.iter().map(|(_, run)| run)
    }
}

impl From<Vec<u8>> for PreImage {
    fn from(bytes: Vec<u8>) -> Self {
        Self(Repr::Plain(bytes))
    }
}

/// Two pre-images are equal when their whole encodings are, however much
/// of each is shared.
impl PartialEq for PreImage {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

/// Writes a [`PreImage`]: an [`XdrEncoder`] (every `put_*` of which it
/// lends) that can also leave an opaque value out and keep it by
/// reference, [`PreImageEncoder::put_opaque_shared`].
pub struct PreImageEncoder {
    enc: XdrEncoder,
    runs: Vec<(usize, Arc<[u8]>)>,
}

impl PreImageEncoder {
    /// An encoder with room for `bytes` encoded bytes and `runs` shared
    /// runs. With `runs == 0` nothing is allocated for them, and a
    /// pre-image that shares nothing is exactly the plain encoding.
    pub fn with_capacity(bytes: usize, runs: usize) -> Self {
        Self { enc: XdrEncoder::with_capacity(bytes), runs: Vec::with_capacity(runs) }
    }

    /// Whether an opaque value of `len` bytes is worth sharing: it is
    /// longer than the handle that would keep it.
    pub fn shares(len: usize) -> bool {
        len > SHARED_RUN_HANDLE
    }

    /// Appends `data` as variable-length opaque data, as
    /// [`XdrEncoder::put_opaque`] does, but keeps the bytes by reference
    /// when [`Self::shares`] says so: the length word and the padding are
    /// written, the bytes are spliced back in by [`PreImage::to_bytes`].
    pub fn put_opaque_shared(&mut self, data: &Arc<[u8]>) {
        if !Self::shares(data.len()) {
            self.enc.put_opaque(data);
            return;
        }
        let len = u32::try_from(data.len()).expect("opaque data longer than u32::MAX");
        self.enc.put_u32(len);
        self.runs.push((self.enc.len(), Arc::clone(data)));
        self.enc.put_padding(data.len());
    }

    /// The pre-image: plain when no run was shared.
    pub fn finish(self) -> PreImage {
        let bytes = self.enc.finish();
        if self.runs.is_empty() {
            PreImage(Repr::Plain(bytes))
        } else {
            PreImage(Repr::Spliced(Box::new(Spliced { bytes, runs: self.runs })))
        }
    }
}

impl Deref for PreImageEncoder {
    type Target = XdrEncoder;
    fn deref(&self) -> &XdrEncoder {
        &self.enc
    }
}

impl DerefMut for PreImageEncoder {
    fn deref_mut(&mut self) -> &mut XdrEncoder {
        &mut self.enc
    }
}

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
    /// Pre-images captured this epoch, keyed by the dirty objects: the
    /// object's value as of the last checkpoint (`None` = the object was
    /// absent).
    copies: HashMap<u64, Option<PreImage>>,
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
        self.modify_with(index, || old().map(PreImage::from))
    }

    /// [`Self::modify`] for a wrapper that builds the pre-image itself, so
    /// that it can share the runs of the live state that the modification
    /// leaves as they are ([`PreImageEncoder`]).
    pub fn modify_with(&mut self, index: u64, old: impl FnOnce() -> Option<PreImage>) {
        self.copies.entry(index).or_insert_with(old);
    }

    /// True if `index` was modified since the last checkpoint.
    pub fn is_dirty(&self, index: u64) -> bool {
        self.copies.contains_key(&index)
    }

    /// Number of distinct objects modified since the last checkpoint.
    pub fn dirty_count(&self) -> usize {
        self.copies.len()
    }

    /// Iterates over the dirty object indices.
    pub fn dirty_indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.copies.keys().copied()
    }

    /// Drains the log, returning the captured pre-images. Called by the
    /// checkpoint machinery at checkpoint time.
    pub(crate) fn drain(&mut self) -> HashMap<u64, Option<PreImage>> {
        std::mem::take(&mut self.copies)
    }

    /// The captured pre-image for `index`, if it was modified this epoch.
    pub fn copy_of(&self, index: u64) -> Option<&Option<PreImage>> {
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
    /// checkpoint, always on the thread that called into the service, and
    /// a wrapper whose pre-images are plain encodings (NFS, OODB) calls it
    /// once per object's first touch per checkpoint epoch, for the
    /// [`ModifyLog::modify`] pre-image. (`KvWrapper` builds a pre-image
    /// that shares its large values instead, [`ModifyLog::modify_with`].)
    /// That is what makes a checkpoint cost what changed (paper §2.2) —
    /// but only if this is O(object), not O(state): keep the conformance
    /// rep indexed by abstract object so one object's value never requires
    /// a walk over the whole concrete state.
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
        assert_eq!(log.copy_of(3), Some(&Some(PreImage::from(b"old".to_vec()))));
    }

    /// Opaque values on both sides of the handle rule, with every padding
    /// length after a shared run, encode to the same bytes shared or not.
    #[test]
    fn a_spliced_pre_image_is_the_plain_encoding() {
        let lens = (0..=SHARED_RUN_HANDLE + 5).chain(1025..=1028);
        let values: Vec<Arc<[u8]>> = lens.map(|n| (0..n).map(|b| b as u8).collect()).collect();
        let mut plain = XdrEncoder::new();
        let mut shared = PreImageEncoder::with_capacity(0, 0);
        for v in &values {
            plain.put_opaque(v);
            plain.put_u32(7);
            shared.put_opaque_shared(v);
            shared.put_u32(7);
        }
        let (plain, shared) = (plain.finish(), shared.finish());
        let big = values.iter().filter(|v| v.len() > SHARED_RUN_HANDLE).count();
        assert_eq!(shared.shared_runs().count(), big);
        assert_eq!(shared.to_bytes(), plain);
        assert_eq!(shared, PreImage::from(plain.clone()));
        assert_eq!(shared.into_bytes(), plain);
    }

    #[test]
    fn a_pre_image_of_small_values_is_plain() {
        let mut enc = PreImageEncoder::with_capacity(8, 0);
        enc.put_opaque_shared(&Arc::from(&[1u8; SHARED_RUN_HANDLE][..]));
        let pre = enc.finish();
        assert_eq!(pre.shared_runs().count(), 0);
        assert!(matches!(pre.to_bytes(), Cow::Borrowed(_)), "nothing to splice");
    }

    #[test]
    fn drain_resets_epoch() {
        let mut log = ModifyLog::new();
        log.modify(1, || None);
        log.modify(2, || Some(vec![9]));
        let copies = log.drain();
        assert_eq!(copies.len(), 2);
        assert_eq!(copies[&1], None);
        assert_eq!(copies[&2], Some(PreImage::from(vec![9])));
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
