//! Hierarchical state partition tree.
//!
//! The BFT/BASE libraries organize the (abstract) state as an array of
//! objects and maintain a tree of cryptographic digests over it. A replica
//! fetching state recurses down the hierarchy, comparing digests, and
//! fetches only the leaves (objects) that are out of date or corrupt
//! (paper §2.2).
//!
//! The tree here is *persistent* (purely functional with [`Arc`] structure
//! sharing): updating a leaf copies only the path to the root, and taking a
//! checkpoint is an O(1) clone of the root pointer. This realizes the
//! copy-on-write checkpointing the paper describes, for the digest
//! metadata; object *values* are copy-on-write separately (see the `base`
//! crate's checkpoint module).
//!
//! Digest conventions:
//! - leaf `i` with value `v`: `H("leaf" || i || v)` (computed by callers
//!   via [`leaf_digest`]); an absent leaf has digest [`Digest::ZERO`];
//! - internal node at `level` with children `c_0..c_b`:
//!   `H("node" || level || c_0 || ... || c_b)`, with a precomputed default
//!   for all-absent subtrees.

use base_crypto::{Digest, Sha256};
use base_xdr::padded_len;
use std::sync::Arc;

/// One SHA-256 state fed an XDR encoding piece by piece: the digest of the
/// bytes an `XdrEncoder` would build from the same calls, without building
/// them, so a value is hashed where it lies instead of being copied into an
/// encoder first.
struct XdrHasher(Sha256);

impl XdrHasher {
    /// Starts with a tag, an XDR string.
    fn tagged(tag: &str) -> Self {
        XdrHasher(Sha256::new()).opaque(tag.as_bytes())
    }

    fn u32(mut self, v: u32) -> Self {
        self.0.update(&v.to_be_bytes());
        self
    }

    fn u64(mut self, v: u64) -> Self {
        self.0.update(&v.to_be_bytes());
        self
    }

    /// Fixed-length opaque data: the bytes, zero-padded to four.
    fn fixed(mut self, data: &[u8]) -> Self {
        self.0.update(data);
        self.0.update(&[0; 3][..padded_len(data.len()) - data.len()]);
        self
    }

    /// Variable-length opaque data: its length word, then as `fixed`.
    fn opaque(self, data: &[u8]) -> Self {
        let len = u32::try_from(data.len()).expect("opaque data longer than u32::MAX");
        self.u32(len).fixed(data)
    }

    /// The fixed-length digests, one after the other. They are staged on
    /// the stack eight at a time, so that SHA-256 compresses runs of whole
    /// blocks instead of being fed 32 bytes a call.
    fn digests(mut self, digests: &[Digest]) -> Self {
        const RUN: usize = 8;
        let mut staged = [0u8; RUN * 32];
        for run in digests.chunks(RUN) {
            for (slot, d) in staged.chunks_exact_mut(32).zip(run) {
                slot.copy_from_slice(&d.0);
            }
            self.0.update(&staged[..run.len() * 32]);
        }
        self
    }

    fn finish(self) -> Digest {
        Digest(self.0.finalize())
    }
}

/// Digest of abstract object `index` with encoding `value`.
///
/// Binding the index prevents a Byzantine replica from serving object `j`'s
/// valid value in response to a fetch of object `i`.
pub fn leaf_digest(index: u64, value: &[u8]) -> Digest {
    XdrHasher::tagged("leaf").u64(index).opaque(value).finish()
}

fn node_digest(level: u32, children: &[Digest]) -> Digest {
    XdrHasher::tagged("node").u32(level).digests(children).finish()
}

#[derive(Debug)]
struct Node {
    digest: Digest,
    /// Child links; empty for leaves. `None` = all-default subtree.
    children: Vec<Option<Arc<Node>>>,
}

/// Hash-work accounting returned by [`PartitionTree::set_leaves`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TreeUpdateStats {
    /// Distinct leaves written (duplicates in the batch collapse).
    pub leaves_updated: u64,
    /// Internal nodes rehashed — each touched node exactly once.
    pub internal_hashes: u64,
}

/// A persistent digest tree over `capacity` leaves with a fixed branching
/// factor.
///
/// # Examples
///
/// ```
/// use base_pbft::tree::{leaf_digest, PartitionTree};
///
/// let mut t = PartitionTree::new(1024, 16);
/// t.set_leaf(5, leaf_digest(5, b"object five"));
/// let snap = t.clone(); // O(1) checkpoint
/// t.set_leaf(5, leaf_digest(5, b"changed"));
/// assert_ne!(t.root_digest(), snap.root_digest());
/// assert_eq!(snap.leaf_digest_at(5), leaf_digest(5, b"object five"));
/// ```
#[derive(Debug, Clone)]
pub struct PartitionTree {
    capacity: u64,
    branching: u32,
    depth: u32,
    /// Default digest for an all-absent subtree rooted at each level.
    defaults: Arc<Vec<Digest>>,
    root: Option<Arc<Node>>,
}

impl PartitionTree {
    /// Creates an empty tree over `capacity` leaves with the given
    /// branching factor.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `branching < 2`.
    pub fn new(capacity: u64, branching: u32) -> Self {
        assert!(capacity > 0, "tree needs at least one leaf");
        assert!(branching >= 2, "branching factor must be at least 2");
        let mut depth = 0u32;
        let mut span = 1u64;
        while span < capacity {
            span = span.saturating_mul(branching as u64);
            depth += 1;
        }
        // defaults[l] = digest of an all-absent subtree whose root is at
        // level l (leaves are level 0).
        let mut defaults = vec![Digest::ZERO];
        for level in 1..=depth {
            let child = defaults[(level - 1) as usize];
            let children = vec![child; branching as usize];
            defaults.push(node_digest(level, &children));
        }
        Self { capacity, branching, depth, defaults: Arc::new(defaults), root: None }
    }

    /// Number of leaves.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Branching factor.
    pub fn branching(&self) -> u32 {
        self.branching
    }

    /// Tree depth: the root sits at this level; leaves are level 0.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Digest of the whole tree.
    pub fn root_digest(&self) -> Digest {
        match &self.root {
            Some(n) => n.digest,
            None => self.defaults[self.depth as usize],
        }
    }

    /// Default digest of an all-absent subtree rooted at `level`.
    pub fn default_digest(&self, level: u32) -> Digest {
        self.defaults[level as usize]
    }

    /// Current digest of leaf `index` ([`Digest::ZERO`] if absent).
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn leaf_digest_at(&self, index: u64) -> Digest {
        assert!(index < self.capacity, "leaf index out of range");
        let mut node = match &self.root {
            Some(n) => n,
            None => return Digest::ZERO,
        };
        let mut level = self.depth;
        let mut idx = index;
        while level > 0 {
            let child_span = (self.branching as u64).pow(level - 1);
            let child = (idx / child_span) as usize;
            idx %= child_span;
            match &node.children[child] {
                Some(n) => node = n,
                None => return Digest::ZERO,
            }
            level -= 1;
        }
        node.digest
    }

    /// Sets the digest of leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn set_leaf(&mut self, index: u64, digest: Digest) {
        assert!(index < self.capacity, "leaf index out of range");
        let root = self.root.take();
        self.root = Some(self.set_rec(root, self.depth, index, digest));
    }

    /// Applies a batch of leaf updates, recomputing each touched internal
    /// node exactly once.
    ///
    /// Semantically equivalent to calling [`PartitionTree::set_leaf`] for
    /// every pair in order (later duplicates win), but the cost is
    /// O(distinct touched nodes) internal hashes instead of
    /// O(updates × depth): updates sharing a subtree are grouped and the
    /// path above them is rehashed once, bottom-up — the Merkle-tree
    /// discipline a checkpoint flush with a clustered dirty set wants.
    ///
    /// Returns how many leaves were written and how many internal nodes
    /// were rehashed, so callers can account hash work precisely.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= capacity`.
    pub fn set_leaves(
        &mut self,
        updates: impl IntoIterator<Item = (u64, Digest)>,
    ) -> TreeUpdateStats {
        let mut ups: Vec<(u64, Digest)> = updates.into_iter().collect();
        for &(i, _) in &ups {
            assert!(i < self.capacity, "leaf index out of range");
        }
        // Last write per index wins: stable-sort by index (preserving
        // arrival order within an index), then keep each run's final entry.
        ups.sort_by_key(|&(i, _)| i);
        ups.reverse(); // runs now end-first, still grouped by index
        ups.dedup_by_key(|&mut (i, _)| i); // keeps the first = latest write
        ups.reverse(); // back to ascending index order
        if ups.is_empty() {
            return TreeUpdateStats::default();
        }
        let mut stats = TreeUpdateStats { leaves_updated: ups.len() as u64, internal_hashes: 0 };
        let root = self.root.take();
        self.root = Some(self.set_many_rec(root, self.depth, 0, &ups, &mut stats));
        stats
    }

    /// Recursive worker for [`PartitionTree::set_leaves`]: `ups` is a
    /// non-empty, ascending, duplicate-free slice of leaf updates that all
    /// fall inside the subtree rooted at (`level`, base leaf `base`).
    fn set_many_rec(
        &self,
        node: Option<Arc<Node>>,
        level: u32,
        base: u64,
        ups: &[(u64, Digest)],
        stats: &mut TreeUpdateStats,
    ) -> Arc<Node> {
        if level == 0 {
            debug_assert_eq!(ups.len(), 1);
            return Arc::new(Node { digest: ups[0].1, children: Vec::new() });
        }
        let b = self.branching as usize;
        let child_span = (self.branching as u64).pow(level - 1);
        let mut children: Vec<Option<Arc<Node>>> = match node {
            Some(n) => n.children.clone(),
            None => vec![None; b],
        };
        // The slice is sorted, so updates for one child form a contiguous
        // run; each run recurses once and the node rehashes once at the end.
        let mut start = 0;
        while start < ups.len() {
            let child_idx = ((ups[start].0 - base) / child_span) as usize;
            let mut end = start + 1;
            while end < ups.len() && ((ups[end].0 - base) / child_span) as usize == child_idx {
                end += 1;
            }
            let child_base = base + child_idx as u64 * child_span;
            children[child_idx] = Some(self.set_many_rec(
                children[child_idx].take(),
                level - 1,
                child_base,
                &ups[start..end],
                stats,
            ));
            start = end;
        }
        let child_digests: Vec<Digest> = children
            .iter()
            .map(|c| match c {
                Some(n) => n.digest,
                None => self.defaults[(level - 1) as usize],
            })
            .collect();
        stats.internal_hashes += 1;
        let digest = node_digest(level, &child_digests);
        Arc::new(Node { digest, children })
    }

    fn set_rec(
        &self,
        node: Option<Arc<Node>>,
        level: u32,
        index: u64,
        digest: Digest,
    ) -> Arc<Node> {
        if level == 0 {
            return Arc::new(Node { digest, children: Vec::new() });
        }
        let b = self.branching as usize;
        let child_span = (self.branching as u64).pow(level - 1);
        let child_idx = (index / child_span) as usize;
        let sub_index = index % child_span;

        let mut children: Vec<Option<Arc<Node>>> = match node {
            Some(n) => n.children.clone(),
            None => vec![None; b],
        };
        let new_child = self.set_rec(children[child_idx].take(), level - 1, sub_index, digest);
        children[child_idx] = Some(new_child);

        let child_digests: Vec<Digest> = children
            .iter()
            .map(|c| match c {
                Some(n) => n.digest,
                None => self.defaults[(level - 1) as usize],
            })
            .collect();
        let digest = node_digest(level, &child_digests);
        Arc::new(Node { digest, children })
    }

    /// Digests of the children of the node at (`level`, `index`), where the
    /// root is (depth, 0) and a node's children sit one level below.
    ///
    /// Returns `None` if the coordinates are out of range or name a leaf.
    pub fn children_digests(&self, level: u32, index: u64) -> Option<Vec<Digest>> {
        if level == 0 || level > self.depth {
            return None;
        }
        let nodes_at_level = self.nodes_at_level(level)?;
        if index >= nodes_at_level {
            return None;
        }
        // Walk down from the root: the ancestor of node (level, index) at
        // level `l` has index `index / b^(l - level)`, so the child choice
        // taken when descending from `l` to `l - 1` is
        // `(index / b^(l - 1 - level)) % b`.
        let b = self.branching as u64;
        let mut cur: Option<&Arc<Node>> = self.root.as_ref();
        let mut l = self.depth;
        while l > level {
            let choice = ((index / b.pow(l - 1 - level)) % b) as usize;
            cur = match cur {
                Some(n) => n.children[choice].as_ref(),
                None => None,
            };
            l -= 1;
        }
        let child_default = self.defaults[(level - 1) as usize];
        Some(match cur {
            Some(n) => n
                .children
                .iter()
                .map(|c| c.as_ref().map(|n| n.digest).unwrap_or(child_default))
                .collect(),
            None => vec![child_default; self.branching as usize],
        })
    }

    /// Number of nodes at `level` (root level has 1).
    fn nodes_at_level(&self, level: u32) -> Option<u64> {
        if level > self.depth {
            return None;
        }
        Some((self.branching as u64).pow(self.depth - level))
    }

    /// Verifies that `children` hash to the expected digest of node
    /// (`level`, `index`).
    pub fn verify_children(&self, level: u32, children: &[Digest], expected: &Digest) -> bool {
        if level == 0 || children.len() != self.branching as usize {
            return false;
        }
        node_digest(level, children) == *expected
    }

    /// Leaf index range covered by node (`level`, `index`).
    pub fn leaf_range(&self, level: u32, index: u64) -> (u64, u64) {
        let span = (self.branching as u64).pow(level);
        let start = index * span;
        (start, (start + span).min(self.capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trees_with_same_shape_agree() {
        let a = PartitionTree::new(100, 4);
        let b = PartitionTree::new(100, 4);
        assert_eq!(a.root_digest(), b.root_digest());
    }

    #[test]
    fn set_and_get_leaves() {
        let mut t = PartitionTree::new(1000, 8);
        for i in [0u64, 1, 7, 8, 63, 999] {
            t.set_leaf(i, leaf_digest(i, b"v"));
        }
        assert_eq!(t.leaf_digest_at(7), leaf_digest(7, b"v"));
        assert_eq!(t.leaf_digest_at(2), Digest::ZERO);
        assert_eq!(t.leaf_digest_at(999), leaf_digest(999, b"v"));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let mut t = PartitionTree::new(64, 4);
        let r0 = t.root_digest();
        t.set_leaf(5, leaf_digest(5, b"a"));
        let r1 = t.root_digest();
        assert_ne!(r0, r1);
        t.set_leaf(63, leaf_digest(63, b"b"));
        assert_ne!(t.root_digest(), r1);
    }

    #[test]
    fn same_content_same_root_regardless_of_order() {
        let mut a = PartitionTree::new(64, 4);
        let mut b = PartitionTree::new(64, 4);
        a.set_leaf(3, leaf_digest(3, b"x"));
        a.set_leaf(40, leaf_digest(40, b"y"));
        b.set_leaf(40, leaf_digest(40, b"y"));
        b.set_leaf(3, leaf_digest(3, b"x"));
        assert_eq!(a.root_digest(), b.root_digest());
    }

    #[test]
    fn clone_is_a_cheap_snapshot() {
        let mut t = PartitionTree::new(256, 16);
        t.set_leaf(10, leaf_digest(10, b"old"));
        let snap = t.clone();
        t.set_leaf(10, leaf_digest(10, b"new"));
        assert_eq!(snap.leaf_digest_at(10), leaf_digest(10, b"old"));
        assert_eq!(t.leaf_digest_at(10), leaf_digest(10, b"new"));
        assert_ne!(snap.root_digest(), t.root_digest());
    }

    #[test]
    fn children_digests_chain_to_root() {
        let mut t = PartitionTree::new(256, 4);
        for i in 0..100 {
            t.set_leaf(i, leaf_digest(i, &[i as u8]));
        }
        // Walk from the root down to a leaf, verifying each meta reply.
        let mut expected = t.root_digest();
        let mut level = t.depth();
        let mut index = 0u64;
        let target_leaf = 37u64;
        while level > 0 {
            let children = t.children_digests(level, index).expect("in range");
            assert!(t.verify_children(level, &children, &expected), "level {level}");
            let span = (t.branching() as u64).pow(level - 1);
            let (start, _) = t.leaf_range(level, index);
            let child_idx = ((target_leaf - start) / span) as usize;
            expected = children[child_idx];
            index = index * t.branching() as u64 + child_idx as u64;
            level -= 1;
        }
        assert_eq!(expected, leaf_digest(target_leaf, &[37]));
    }

    #[test]
    fn children_of_untouched_subtree_are_defaults() {
        let t = PartitionTree::new(256, 4);
        let children = t.children_digests(t.depth(), 0).unwrap();
        assert!(children.iter().all(|d| *d == t.default_digest(t.depth() - 1)));
    }

    #[test]
    fn out_of_range_queries_return_none() {
        let t = PartitionTree::new(256, 4);
        assert!(t.children_digests(0, 0).is_none(), "leaves have no children");
        assert!(t.children_digests(t.depth() + 1, 0).is_none());
        assert!(t.children_digests(t.depth(), 1).is_none());
    }

    #[test]
    fn leaf_range_math() {
        let t = PartitionTree::new(100, 4);
        assert_eq!(t.leaf_range(0, 5), (5, 6));
        assert_eq!(t.leaf_range(1, 2), (8, 12));
        assert_eq!(t.leaf_range(t.depth(), 0), (0, 100));
    }

    #[test]
    fn single_leaf_tree() {
        let mut t = PartitionTree::new(1, 2);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.root_digest(), Digest::ZERO);
        t.set_leaf(0, leaf_digest(0, b"only"));
        assert_eq!(t.root_digest(), leaf_digest(0, b"only"));
    }

    proptest::proptest! {
        /// Hashing in place is hashing the encoder-built input: each digest
        /// is SHA-256 of the bytes an `XdrEncoder` builds for it.
        #[test]
        fn in_place_digests_hash_the_encoded_input(
            index: u64,
            level: u32,
            value in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
            seeds in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..20),
        ) {
            use base_xdr::XdrEncoder;
            let digests: Vec<Digest> = seeds.iter().map(|s| Digest::of(&[*s])).collect();
            let encoded = |build: &dyn Fn(&mut XdrEncoder)| {
                let mut enc = XdrEncoder::new();
                build(&mut enc);
                Digest::of(enc.as_bytes())
            };
            proptest::prop_assert_eq!(leaf_digest(index, &value), encoded(&|enc| {
                enc.put_string("leaf");
                enc.put_u64(index);
                enc.put_opaque(&value);
            }));
            proptest::prop_assert_eq!(node_digest(level, &digests), encoded(&|enc| {
                enc.put_string("node");
                enc.put_u32(level);
                digests.iter().for_each(|d| enc.put_opaque_fixed(&d.0));
            }));
        }
    }

    #[test]
    fn leaf_digest_binds_index() {
        assert_ne!(leaf_digest(1, b"v"), leaf_digest(2, b"v"));
    }

    #[test]
    fn batch_update_matches_sequential() {
        let updates: Vec<(u64, Digest)> =
            [7u64, 250, 3, 64, 65, 66, 999, 0].iter().map(|&i| (i, leaf_digest(i, &[i as u8]))).collect();
        let mut seq = PartitionTree::new(1000, 8);
        for &(i, d) in &updates {
            seq.set_leaf(i, d);
        }
        let mut batch = PartitionTree::new(1000, 8);
        let stats = batch.set_leaves(updates.iter().copied());
        assert_eq!(batch.root_digest(), seq.root_digest());
        assert_eq!(stats.leaves_updated, updates.len() as u64);
        for &(i, d) in &updates {
            assert_eq!(batch.leaf_digest_at(i), d);
        }
    }

    #[test]
    fn batch_duplicates_last_write_wins() {
        let mut seq = PartitionTree::new(64, 4);
        seq.set_leaf(5, leaf_digest(5, b"first"));
        seq.set_leaf(5, leaf_digest(5, b"second"));
        let mut batch = PartitionTree::new(64, 4);
        let stats = batch
            .set_leaves([(5, leaf_digest(5, b"first")), (5, leaf_digest(5, b"second"))]);
        assert_eq!(batch.root_digest(), seq.root_digest());
        assert_eq!(stats.leaves_updated, 1, "duplicates collapse");
        assert_eq!(batch.leaf_digest_at(5), leaf_digest(5, b"second"));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut t = PartitionTree::new(64, 4);
        t.set_leaf(3, leaf_digest(3, b"x"));
        let before = t.root_digest();
        let stats = t.set_leaves(std::iter::empty());
        assert_eq!(stats, TreeUpdateStats::default());
        assert_eq!(t.root_digest(), before);
    }

    #[test]
    fn clustered_batch_hashes_each_touched_node_once() {
        // 4096 leaves at branching 16: depth 3. 256 contiguous dirty leaves
        // touch 16 level-1 nodes, 1 level-2 node and the root = 18 internal
        // hashes, versus 256 x 3 = 768 for per-leaf root-path rehashing.
        let mut t = PartitionTree::new(4096, 16);
        let stats = t.set_leaves((0..256u64).map(|i| (i, leaf_digest(i, &[1]))));
        assert_eq!(t.depth(), 3);
        assert_eq!(stats.internal_hashes, 16 + 1 + 1);
        assert!(stats.internal_hashes < 256 * t.depth() as u64);
    }

    #[test]
    fn batch_on_single_leaf_tree() {
        let mut t = PartitionTree::new(1, 2);
        let stats = t.set_leaves([(0, leaf_digest(0, b"only"))]);
        assert_eq!(stats.internal_hashes, 0);
        assert_eq!(t.root_digest(), leaf_digest(0, b"only"));
    }
}
