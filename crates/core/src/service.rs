//! [`BaseService`]: the abstraction layer between the replication protocol
//! and a conformance wrapper.

use crate::wrapper::{ModifyLog, Wrapper};
use base_crypto::Digest;
use base_pbft::tree::{chunk_digest, chunked_leaf_from_digests, leaf_digest};
use base_pbft::{CostModel, ExecEnv, PartitionTree, Service};
use base_simnet::MetricsRegistry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Branching factor of the abstract-state partition tree.
const BRANCHING: u32 = 16;

/// Counters exposed for the checkpoint/state-transfer experiments.
#[derive(Debug, Default, Clone)]
pub struct BaseStats {
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// `get_obj` calls made to digest modified objects at checkpoints.
    pub objects_digested: u64,
    /// Internal partition-tree nodes rehashed by batched digest updates.
    /// Grows with *distinct touched nodes*, not dirty-leaves × depth.
    pub node_hashes: u64,
    /// Pre-image copies captured by the `modify` upcall.
    pub preimage_copies: u64,
    /// Objects written through `put_objs` during installs.
    pub objects_installed: u64,
    /// Full abstraction-function scans (warm reboots).
    pub rebuild_scans: u64,
    /// Chunk digests recomputed by chunked digest passes (chunked mode
    /// only; the chunk's bytes changed since the previous pass).
    pub chunks_rehashed: u64,
    /// Chunk digests reused from the snapshot cache (chunked mode only;
    /// the chunk's bytes were unchanged, so only a memcmp was paid).
    pub chunks_reused: u64,
}

/// Per-object snapshot kept by chunked digesting: the value bytes and
/// per-chunk digests as of the last digest pass over that object. A chunk
/// whose bytes are unchanged (a memcmp) reuses its cached digest instead of
/// re-hashing — the "re-hash only what changed" half of the chunked-Merkle
/// optimization. Bounded to multi-chunk objects, so the cache holds at most
/// one extra copy of each *large* object.
#[derive(Debug, Clone)]
struct ChunkSnapshot {
    value: Vec<u8>,
    digests: Vec<Digest>,
}

/// Result of digesting one `(index, value)` pair in a digest pass.
struct DigestOutcome {
    digest: Digest,
    /// Replacement snapshot for the chunk cache: `Some(Some(_))` = store,
    /// `Some(None)` = evict (value gone or no longer multi-chunk), `None` =
    /// leave the cache untouched (legacy mode).
    snapshot: Option<Option<ChunkSnapshot>>,
    /// Bytes actually pushed through SHA-256 (chunk data plus the leaf
    /// fold input), for CPU charges in chunked mode.
    hashed_bytes: u64,
    chunks_reused: u64,
    chunks_rehashed: u64,
}

/// Digests one value, reusing cached chunk digests where the bytes match.
fn digest_one_chunked(
    idx: u64,
    value: &Option<Vec<u8>>,
    chunk_size: usize,
    cache: &HashMap<u64, ChunkSnapshot>,
) -> DigestOutcome {
    if chunk_size == 0 {
        // Legacy whole-object digests: byte-identical to the pre-chunking
        // behaviour, cache untouched.
        let (digest, hashed) = match value {
            Some(v) => (leaf_digest(idx, v), v.len() as u64),
            None => (Digest::ZERO, 0),
        };
        return DigestOutcome {
            digest,
            snapshot: None,
            hashed_bytes: hashed,
            chunks_reused: 0,
            chunks_rehashed: 0,
        };
    }
    let Some(v) = value else {
        return DigestOutcome {
            digest: Digest::ZERO,
            snapshot: Some(None),
            hashed_bytes: 0,
            chunks_reused: 0,
            chunks_rehashed: 0,
        };
    };
    let prev = cache.get(&idx);
    let mut reused = 0u64;
    let mut rehashed = 0u64;
    let mut hashed_bytes = 0u64;
    let digests: Vec<Digest> = v
        .chunks(chunk_size)
        .enumerate()
        .map(|(c, data)| {
            if let Some(p) = prev {
                if let (Some(d), Some(old)) = (p.digests.get(c), p.value.chunks(chunk_size).nth(c))
                {
                    if old == data {
                        reused += 1;
                        return *d;
                    }
                }
            }
            rehashed += 1;
            hashed_bytes += data.len() as u64;
            chunk_digest(idx, c as u32, data)
        })
        .collect();
    let digest = chunked_leaf_from_digests(idx, v.len() as u64, &digests);
    hashed_bytes += digests.len() as u64 * 32 + 28; // the leaf fold input
    let snapshot = if digests.len() >= 2 {
        Some(Some(ChunkSnapshot { value: v.clone(), digests }))
    } else {
        Some(None)
    };
    DigestOutcome { digest, snapshot, hashed_bytes, chunks_reused: reused, chunks_rehashed: rehashed }
}

/// Implements the replication library's [`Service`] interface on top of a
/// conformance [`Wrapper`], adding copy-on-write incremental checkpoints of
/// the abstract state and abstraction-aware proactive recovery.
///
/// Checkpoint storage follows the paper (§2.2): the service keeps only the
/// *current* concrete state plus, per retained checkpoint, reverse-delta
/// copies of the abstract objects modified after it (captured lazily by the
/// [`ModifyLog`]), and a copy-on-write snapshot of the digest tree.
pub struct BaseService<W: Wrapper> {
    wrapper: W,
    /// Digests of the current abstract state. Leaves of dirty objects are
    /// refreshed at checkpoint time (and before state transfer).
    tree: PartitionTree,
    mods: ModifyLog,
    /// Finalized reverse-delta records: checkpoint seq → (object → value
    /// *at that checkpoint*, captured at its first later modification).
    records: BTreeMap<u64, HashMap<u64, Option<Vec<u8>>>>,
    /// Per-object index over `records`: object → sorted checkpoint seqs of
    /// the records containing a pre-image of it. Lets `checkpoint_object`
    /// resolve a fetch in O(log retained-ckpts) instead of scanning every
    /// retained record.
    record_seqs: HashMap<u64, BTreeSet<u64>>,
    /// Digest-tree snapshots per retained checkpoint (O(1) clones).
    ckpt_trees: BTreeMap<u64, PartitionTree>,
    last_ckpt: Option<u64>,
    /// Chunked-digest granularity: 0 = legacy whole-object leaf digests;
    /// otherwise leaves fold fixed-size chunk digests
    /// ([`base_pbft::tree::chunked_leaf_digest`]), so a small write to a
    /// big object re-hashes only the touched chunks.
    chunk_size: usize,
    /// Previous value + chunk digests per multi-chunk object, as of the
    /// last digest pass (the reuse cache chunked digesting diffs against).
    chunk_cache: HashMap<u64, ChunkSnapshot>,
    cost: CostModel,
    /// Experiment counters.
    pub stats: BaseStats,
    /// Abstraction-layer metrics (`base.*` names): checkpoint dirty-set
    /// sizes, pre-image copies, install/rebuild activity.
    pub metrics: MetricsRegistry,
}

impl<W: Wrapper> BaseService<W> {
    /// Wraps `wrapper` into a replicable service.
    pub fn new(wrapper: W) -> Self {
        let n = wrapper.n_objects();
        Self {
            wrapper,
            tree: PartitionTree::new(n, BRANCHING),
            mods: ModifyLog::new(),
            records: BTreeMap::new(),
            record_seqs: HashMap::new(),
            ckpt_trees: BTreeMap::new(),
            last_ckpt: None,
            chunk_size: 0,
            chunk_cache: HashMap::new(),
            cost: CostModel::default(),
            stats: BaseStats::default(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Read access to the wrapped implementation (test inspection).
    pub fn wrapper(&self) -> &W {
        &self.wrapper
    }

    /// Mutable access to the wrapped implementation (fault injection).
    pub fn wrapper_mut(&mut self) -> &mut W {
        &mut self.wrapper
    }

    /// Number of abstract objects modified since the last checkpoint.
    pub fn dirty_objects(&self) -> usize {
        self.mods.dirty_count()
    }

    /// Runs one digest pass over `values` on the calling thread, applying
    /// the chunk-cache updates and chunk-reuse stats in the order given.
    fn digest_pass(&mut self, values: &[(u64, Option<Vec<u8>>)]) -> Vec<DigestOutcome> {
        let outcomes: Vec<DigestOutcome> = values
            .iter()
            .map(|(idx, value)| digest_one_chunked(*idx, value, self.chunk_size, &self.chunk_cache))
            .collect();
        if self.chunk_size > 0 {
            let (mut reused, mut rehashed) = (0u64, 0u64);
            for ((idx, _), outcome) in values.iter().zip(&outcomes) {
                reused += outcome.chunks_reused;
                rehashed += outcome.chunks_rehashed;
                match &outcome.snapshot {
                    Some(Some(snap)) => {
                        self.chunk_cache.insert(*idx, snap.clone());
                    }
                    Some(None) => {
                        self.chunk_cache.remove(idx);
                    }
                    None => {}
                }
            }
            self.stats.chunks_reused += reused;
            self.stats.chunks_rehashed += rehashed;
            self.metrics.add("base.chunks_reused", reused);
            self.metrics.add("base.chunks_rehashed", rehashed);
        }
        outcomes
    }

    /// Reads the abstract value of every object in `indices` (one `get_obj`
    /// each, on the calling thread), digests them and applies them to the
    /// tree as one batch. `count_digested` selects whether the pass counts
    /// toward `stats.objects_digested` (checkpoint flushes do; warm-reboot
    /// rescans historically have not).
    fn digest_into_tree(
        &mut self,
        indices: impl Iterator<Item = u64>,
        count_digested: bool,
        env: &mut ExecEnv<'_>,
    ) {
        let values: Vec<(u64, Option<Vec<u8>>)> =
            indices.map(|idx| (idx, self.wrapper.get_obj(idx))).collect();
        let outcomes = self.digest_pass(&values);
        let mut updates = Vec::with_capacity(values.len());
        for ((idx, value), outcome) in values.iter().zip(&outcomes) {
            if count_digested {
                self.stats.objects_digested += 1;
            }
            if self.chunk_size == 0 {
                // Legacy charge: the whole object's bytes (byte-identical
                // to the pre-chunking behaviour).
                if let Some(v) = value {
                    env.charge(self.cost.digest(v.len()));
                }
            } else if value.is_some() {
                // Chunked charge: only the bytes actually hashed — reused
                // chunks cost a memcmp, which the digest cost model treats
                // as free next to SHA-256.
                env.charge(self.cost.digest(outcome.hashed_bytes as usize));
            }
            updates.push((*idx, outcome.digest));
        }
        let batch = self.tree.set_leaves(updates);
        self.stats.node_hashes += batch.internal_hashes;
        self.metrics.add("base.tree_node_hashes", batch.internal_hashes);
    }

    /// Refreshes the digest-tree leaves of all dirty objects so `tree`
    /// reflects the true current abstract state. One batched tree update:
    /// each internal node above the dirty set is rehashed exactly once.
    fn flush_tree(&mut self, env: &mut ExecEnv<'_>) {
        let mut dirty: Vec<u64> = self.mods.dirty_indices().collect();
        dirty.sort_unstable();
        self.digest_into_tree(dirty.into_iter(), true, env);
    }
}

impl<W: Wrapper> Service for BaseService<W> {
    fn execute(
        &mut self,
        op: &[u8],
        client: u32,
        nondet: &[u8],
        read_only: bool,
        env: &mut ExecEnv<'_>,
    ) -> Vec<u8> {
        let before = self.mods.dirty_count();
        let result = self.wrapper.execute(op, client, nondet, read_only, &mut self.mods, env);
        let copies = (self.mods.dirty_count() - before) as u64;
        self.stats.preimage_copies += copies;
        self.metrics.add("base.preimage_copies", copies);
        result
    }

    fn set_chunk_size(&mut self, chunk_size: usize) {
        if self.chunk_size != chunk_size {
            self.chunk_size = chunk_size;
            self.chunk_cache.clear();
        }
    }

    fn transfer_object(&mut self, index: u64) -> Option<Vec<u8>> {
        self.wrapper.get_obj(index)
    }

    fn propose_nondet(&mut self, env: &mut ExecEnv<'_>) -> Vec<u8> {
        self.wrapper.propose_nondet(env)
    }

    fn check_nondet(&self, nondet: &[u8], env: &mut ExecEnv<'_>) -> bool {
        self.wrapper.check_nondet(nondet, env)
    }

    fn take_checkpoint(&mut self, seq: u64, env: &mut ExecEnv<'_>) -> Digest {
        self.flush_tree(env);
        // Finalize the epoch's pre-images as the previous checkpoint's
        // reverse-delta record. Before the first checkpoint there is no
        // retained checkpoint to attach them to.
        let copies = self.mods.drain();
        self.metrics.observe("base.checkpoint_dirty_objects", copies.len() as u64);
        if let Some(prev) = self.last_ckpt {
            for &idx in copies.keys() {
                self.record_seqs.entry(idx).or_default().insert(prev);
            }
            self.records.insert(prev, copies);
        }
        self.ckpt_trees.insert(seq, self.tree.clone());
        self.last_ckpt = Some(seq);
        self.stats.checkpoints += 1;
        self.metrics.inc("base.checkpoints");
        self.tree.root_digest()
    }

    fn discard_checkpoints_below(&mut self, seq: u64) {
        self.ckpt_trees = self.ckpt_trees.split_off(&seq);
        // A record keyed `k` only answers queries for checkpoints `<= k`;
        // with every retained checkpoint now `>= seq`, records below `seq`
        // are unreachable.
        let kept = self.records.split_off(&seq);
        let dropped = std::mem::replace(&mut self.records, kept);
        for (s, record) in dropped {
            for idx in record.keys() {
                if let Some(seqs) = self.record_seqs.get_mut(idx) {
                    seqs.remove(&s);
                    if seqs.is_empty() {
                        self.record_seqs.remove(idx);
                    }
                }
            }
        }
    }

    fn checkpoint_meta(&self, seq: u64, level: u32, index: u64) -> Option<Vec<Digest>> {
        self.ckpt_trees.get(&seq)?.children_digests(level, index)
    }

    fn checkpoint_object(&mut self, seq: u64, index: u64) -> Option<Vec<u8>> {
        if !self.ckpt_trees.contains_key(&seq) {
            return None;
        }
        // Value at checkpoint `seq` = the pre-image in the first record at
        // or after `seq` that contains the object (the object was unchanged
        // between `seq` and that record's checkpoint). The per-object seq
        // index resolves that record in O(log retained-ckpts) instead of a
        // scan over every retained record.
        if let Some(seqs) = self.record_seqs.get(&index) {
            if let Some(s) = seqs.range(seq..).next() {
                let value = self
                    .records
                    .get(s)
                    .and_then(|record| record.get(&index))
                    .expect("record_seqs entries mirror records");
                return value.clone();
            }
        }
        // ... or the pre-image of the open epoch if it was modified since
        // the newest checkpoint ...
        if let Some(copy) = self.mods.copy_of(index) {
            return copy.clone();
        }
        // ... or the current value (unmodified since `seq`).
        self.wrapper.get_obj(index)
    }

    fn current_tree(&self) -> &PartitionTree {
        &self.tree
    }

    fn prepare_for_transfer(&mut self, env: &mut ExecEnv<'_>) {
        // The fetcher diffs against `tree`; make it reflect reality.
        self.flush_tree(env);
    }

    fn install_checkpoint(
        &mut self,
        seq: u64,
        root: Digest,
        objs: Vec<(u64, Option<Vec<u8>>)>,
        env: &mut ExecEnv<'_>,
    ) {
        self.stats.objects_installed += objs.len() as u64;
        self.metrics.add("base.objects_installed", objs.len() as u64);
        self.wrapper.put_objs(&objs, env);
        let outcomes = self.digest_pass(&objs);
        let batch = self
            .tree
            .set_leaves(objs.iter().map(|(idx, _)| *idx).zip(outcomes.iter().map(|o| o.digest)));
        self.stats.node_hashes += batch.internal_hashes;
        self.metrics.add("base.tree_node_hashes", batch.internal_hashes);
        debug_assert_eq!(
            self.tree.root_digest(),
            root,
            "verified fetch must reproduce the checkpoint root"
        );
        // The current state *is* the checkpoint now.
        let _ = self.mods.drain();
        self.records.clear();
        self.record_seqs.clear();
        self.ckpt_trees.insert(seq, self.tree.clone());
        self.last_ckpt = Some(seq);
    }

    fn reboot(&mut self, clean: bool, env: &mut ExecEnv<'_>) {
        if clean {
            // Paper §2.2: restart the implementation from a clean initial
            // concrete state; the abstract state is then brought up to date
            // from the group, which hides corrupt concrete state entirely.
            self.wrapper.reset(env);
            self.tree = PartitionTree::new(self.wrapper.n_objects(), BRANCHING);
            let _ = self.mods.drain();
            self.records.clear();
            self.record_seqs.clear();
            self.ckpt_trees.clear();
            self.last_ckpt = None;
            // The concrete state is gone, so cached chunk snapshots no
            // longer describe anything.
            self.chunk_cache.clear();
        } else {
            // Warm reboot (§3.4): the concrete state survived; rebuild the
            // conformance rep and recompute the abstraction function over
            // every object so corrupt or stale objects show up as digest
            // mismatches and get repaired by the fetch. The full rescan
            // lands as a single batched tree update.
            self.wrapper.rebuild_rep(env);
            self.stats.rebuild_scans += 1;
            self.metrics.inc("base.rebuild_scans");
            self.digest_into_tree(0..self.wrapper.n_objects(), false, env);
        }
    }

    fn corrupt_state(&mut self, seed: u64) {
        // Straight through to the implementation: the abstraction layer is
        // deliberately not told, so the digests in `tree` stay stale until
        // a warm reboot's rescan (above) re-derives them.
        self.wrapper.corrupt_state(seed);
    }
}
