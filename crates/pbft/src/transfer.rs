//! Hierarchical state transfer.
//!
//! A replica that is out of date (it missed garbage-collected messages, or
//! it just rebooted during proactive recovery) brings itself to the latest
//! stable checkpoint by walking the partition tree: it fetches the digests
//! of a node's children, compares them with its own, recurses only into
//! subtrees that differ, and finally fetches only the leaf objects that are
//! out of date or corrupt (paper §2.2).
//!
//! Every reply is verified by hashing against a digest that chains up to
//! the checkpoint digest in a checkpoint *certificate* (2f+1 signed
//! checkpoint messages), so Byzantine replicas cannot poison the state of a
//! correct but out-of-date replica — the property the paper highlights as
//! essential for state transfer.
//!
//! Queries are spread round-robin over the other replicas and pipelined:
//! up to [`FETCH_WINDOW`] meta/object queries are outstanding at a time,
//! with further discovered queries parked in FIFO order until a slot frees
//! up. A query whose reply fails digest verification is re-targeted to a
//! different source immediately; unanswered queries are retransmitted with
//! per-query exponential backoff in fetch ticks plus deterministic jitter,
//! so a slow or silent source delays only its own partitions and retries
//! do not synchronize into bursts.
//!
//! An out-of-date object is fetched whole, and its bytes must hash to the
//! leaf digest ([`crate::tree::leaf_digest`]) the verified walk gave for it.
//!
//! The checkpoint identity covers both the service state and the client
//! reply cache (which PBFT replicates as part of the state):
//! `D = H("ckpt" || service_root || H(replies_blob))`.

use crate::messages::{FetchMetaMsg, FetchObjectMsg, Message, MetaReplyMsg, ObjectReplyMsg};
use crate::tree::PartitionTree;
use base_crypto::Digest;
use std::collections::{HashMap, VecDeque};

/// Window of concurrently outstanding fetch queries a replica uses.
///
/// The fetcher pipelines its tree walk: up to this many meta/object
/// queries are in flight at once, and each reply both advances the walk
/// and releases a window slot for the next parked query. `window = 1`
/// degenerates to a strictly serial walk (one query, one reply, repeat);
/// larger windows overlap query round-trips and cut the number of
/// request/reply rounds a transfer needs, while still bounding how hard a
/// recovering replica hammers its sources.
pub const FETCH_WINDOW: usize = 16;

/// Pseudo-level used to fetch the checkpoint's top-level metadata
/// (`[service_root, replies_digest]`).
pub const META_ROOT_LEVEL: u32 = u32::MAX;

/// Pseudo-object index used to fetch the serialized reply cache.
pub const REPLIES_INDEX: u64 = u64::MAX;

/// Composite checkpoint digest over service state and reply cache.
pub fn checkpoint_digest(service_root: &Digest, replies_digest: &Digest) -> Digest {
    Digest::of_parts(&[b"ckpt", &service_root.0, &replies_digest.0])
}

/// Outcome of a completed fetch.
#[derive(Debug, Clone)]
pub struct FetchResult {
    /// The checkpoint sequence number reached.
    pub seq: u64,
    /// Root digest of the service partition tree at the checkpoint.
    pub service_root: Digest,
    /// Objects to install: `(index, Some(value))` for changed objects,
    /// `(index, None)` for objects absent in the checkpoint.
    pub objects: Vec<(u64, Option<Vec<u8>>)>,
    /// Serialized reply cache at the checkpoint.
    pub replies_blob: Vec<u8>,
    /// Total object bytes fetched over the network.
    pub fetched_bytes: u64,
    /// Number of meta (partition) queries issued.
    pub meta_queries: u64,
    /// Replies discarded because their digest did not verify.
    pub corrupt_replies: u64,
    /// Queries retransmitted (timeouts plus corrupt replies).
    pub retransmissions: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FetchKey {
    Root,
    Replies,
    Meta { level: u32, index: u64 },
    Object { index: u64 },
}

#[derive(Debug)]
struct Outstanding {
    expected: Digest,
    attempts: u32,
    /// Tick count at which this query becomes eligible for retransmission
    /// (exponential backoff with deterministic jitter).
    next_retry: u64,
    /// The source the query was last sent to.
    source: u32,
}

/// Retransmission backoff cap, in ticks.
const MAX_BACKOFF_TICKS: u64 = 32;

/// State machine driving one state transfer.
#[derive(Debug)]
pub struct Fetcher {
    me: u32,
    n: usize,
    seq: u64,
    target: Digest,
    service_root: Option<Digest>,
    replies_digest: Option<Digest>,
    replies_blob: Option<Vec<u8>>,
    outstanding: HashMap<FetchKey, Outstanding>,
    /// Discovered queries parked until a window slot frees up (FIFO, so
    /// the walk order matches discovery order at any window size).
    pending: VecDeque<(FetchKey, Digest)>,
    /// Maximum number of concurrently outstanding queries.
    window: usize,
    /// Objects collected so far.
    objects: Vec<(u64, Option<Vec<u8>>)>,
    /// Round-robin cursor over source replicas.
    cursor: usize,
    /// Ticks elapsed since the fetch began (drives retry backoff).
    ticks: u64,
    /// Replies dropped because their digest did not verify.
    corrupt_replies: u64,
    /// Queries retransmitted (timeout or corrupt reply).
    retransmissions: u64,
    fetched_bytes: u64,
    meta_queries: u64,
    done: bool,
}

impl Fetcher {
    /// Creates a fetcher targeting checkpoint (`seq`, `target`), where
    /// `target` is the composite digest proven by a checkpoint certificate.
    ///
    /// At most `window` queries are outstanding at once (clamped to a
    /// minimum of 1; `1` walks the tree strictly serially, a replica uses
    /// [`FETCH_WINDOW`]). Scheduling-only: absent loss, the set of fetched
    /// objects and issued queries is the same at any window.
    pub fn new(me: u32, n: usize, seq: u64, target: Digest, window: usize) -> Self {
        Self {
            me,
            n,
            seq,
            target,
            service_root: None,
            replies_digest: None,
            replies_blob: None,
            outstanding: HashMap::new(),
            pending: VecDeque::new(),
            window: window.max(1),
            objects: Vec::new(),
            cursor: (me as usize + 1) % n,
            ticks: 0,
            corrupt_replies: 0,
            retransmissions: 0,
            fetched_bytes: 0,
            meta_queries: 0,
            done: false,
        }
    }

    /// The checkpoint this fetch targets.
    pub fn target_seq(&self) -> u64 {
        self.seq
    }

    /// True once the fetch has completed (result already returned).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Replies dropped because their digest did not verify.
    pub fn corrupt_replies(&self) -> u64 {
        self.corrupt_replies
    }

    fn next_source(&mut self) -> u32 {
        loop {
            let r = self.cursor as u32;
            self.cursor = (self.cursor + 1) % self.n;
            if r != self.me {
                return r;
            }
        }
    }

    fn request_for(&self, key: FetchKey) -> Message {
        match key {
            FetchKey::Root => Message::FetchMeta(FetchMetaMsg {
                seq: self.seq,
                level: META_ROOT_LEVEL,
                index: 0,
                replica: self.me,
            }),
            FetchKey::Replies => Message::FetchObject(FetchObjectMsg {
                seq: self.seq,
                index: REPLIES_INDEX,
                replica: self.me,
            }),
            FetchKey::Meta { level, index } => Message::FetchMeta(FetchMetaMsg {
                seq: self.seq,
                level,
                index,
                replica: self.me,
            }),
            FetchKey::Object { index } => Message::FetchObject(FetchObjectMsg {
                seq: self.seq,
                index,
                replica: self.me,
            }),
        }
    }

    /// Deterministic per-(key, attempt) jitter in `0..=max`, so retries for
    /// different keys (and successive retries for one key) spread out
    /// instead of synchronizing.
    fn jitter(&self, key: FetchKey, attempts: u32, max: u64) -> u64 {
        let code = match key {
            FetchKey::Root => 1,
            FetchKey::Replies => 2,
            FetchKey::Meta { level, index } => 3 ^ ((level as u64) << 32) ^ index,
            FetchKey::Object { index } => 5 ^ index,
        };
        crate::config::jitter(self.seq, code ^ (u64::from(attempts) << 48), max)
    }

    /// Exponential backoff (in ticks) for the next retry of `key`:
    /// `min(2^attempts, MAX_BACKOFF_TICKS)`, plus jitter of up to half the
    /// backoff.
    fn backoff_ticks(&self, key: FetchKey, attempts: u32) -> u64 {
        let base = (1u64 << attempts.min(63)).min(MAX_BACKOFF_TICKS);
        base + self.jitter(key, attempts, base / 2)
    }

    /// Queues a newly discovered query. It is sent immediately if the
    /// window has room, otherwise parked until an outstanding query
    /// completes; queries go out in discovery order either way.
    fn issue(&mut self, key: FetchKey, expected: Digest, out: &mut Vec<(u32, Message)>) {
        self.pending.push_back((key, expected));
        self.pump(out);
    }

    /// Moves parked queries onto the wire while window slots are free.
    fn pump(&mut self, out: &mut Vec<(u32, Message)>) {
        while self.outstanding.len() < self.window {
            let Some((key, expected)) = self.pending.pop_front() else { break };
            if matches!(key, FetchKey::Meta { .. } | FetchKey::Root) {
                self.meta_queries += 1;
            }
            let msg = self.request_for(key);
            let next_retry = self.ticks + self.backoff_ticks(key, 0);
            let source = self.next_source();
            self.outstanding.insert(
                key,
                Outstanding { expected, attempts: 0, next_retry, source },
            );
            out.push((source, msg));
        }
    }

    /// Re-issues an already outstanding query to the next source in
    /// rotation (`change_source`: skipping the one it was last sent to),
    /// bumping its attempt count and pushing back its retry deadline.
    fn reissue(&mut self, key: FetchKey, change_source: bool) -> Option<(u32, Message)> {
        let (attempts, last) = {
            let o = self.outstanding.get_mut(&key)?;
            o.attempts += 1;
            (o.attempts, o.source)
        };
        let next_retry = self.ticks + self.backoff_ticks(key, attempts);
        let mut source = self.next_source();
        if change_source && source == last {
            source = self.next_source();
        }
        if let Some(o) = self.outstanding.get_mut(&key) {
            o.next_retry = next_retry;
            o.source = source;
        }
        self.retransmissions += 1;
        Some((source, self.request_for(key)))
    }

    /// A reply to `key` failed verification (corrupt, or stale): counts it
    /// and re-targets the query right away, instead of waiting out the
    /// backoff, to a source other than the one just asked. No-op if `key`
    /// is no longer outstanding.
    fn reject(&mut self, key: FetchKey) -> (Vec<(u32, Message)>, Option<FetchResult>) {
        self.corrupt_replies += 1;
        (self.reissue(key, true).into_iter().collect(), None)
    }

    /// Starts the fetch: issues the top-level metadata query.
    pub fn begin(&mut self) -> Vec<(u32, Message)> {
        let mut out = Vec::new();
        self.issue(FetchKey::Root, self.target, &mut out);
        out
    }

    /// Advances the retry clock and retransmits the outstanding queries
    /// whose backoff expired, each to the next source in rotation. Call on
    /// a periodic tick.
    pub fn tick(&mut self) -> Vec<(u32, Message)> {
        self.ticks += 1;
        let due: Vec<FetchKey> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.next_retry <= self.ticks)
            .map(|(k, _)| *k)
            .collect();
        // HashMap order is nondeterministic: sort so retransmission order
        // (and thus the simulation trace) is reproducible.
        let mut due = due;
        due.sort_unstable_by_key(|k| match *k {
            FetchKey::Root => (0, 0, 0),
            FetchKey::Replies => (1, 0, 0),
            FetchKey::Meta { level, index } => (2, level as u64, index),
            FetchKey::Object { index } => (3, 0, index),
        });
        due.into_iter().filter_map(|key| self.reissue(key, false)).collect()
    }

    /// Handles a metadata reply. Returns follow-up queries and, if the
    /// fetch completed, the result.
    pub fn on_meta_reply(
        &mut self,
        m: &MetaReplyMsg,
        local: &PartitionTree,
    ) -> (Vec<(u32, Message)>, Option<FetchResult>) {
        if self.done || m.seq != self.seq {
            return (Vec::new(), None);
        }
        let mut out = Vec::new();

        if m.level == META_ROOT_LEVEL {
            // Top-level: digests must be [service_root, replies_digest]
            // hashing to the certified checkpoint digest.
            if m.digests.len() != 2
                || checkpoint_digest(&m.digests[0], &m.digests[1]) != self.target
            {
                return self.reject(FetchKey::Root);
            }
            if self.outstanding.remove(&FetchKey::Root).is_none() {
                return (Vec::new(), None);
            }
            let service_root = m.digests[0];
            let replies_digest = m.digests[1];
            self.service_root = Some(service_root);
            self.replies_digest = Some(replies_digest);
            self.issue(FetchKey::Replies, replies_digest, &mut out);

            // Walk the service tree only where it differs locally.
            if service_root != local.root_digest() {
                if local.depth() == 0 {
                    // Degenerate single-object tree: the root is the leaf.
                    if service_root.is_zero() {
                        self.objects.push((0, None));
                    } else {
                        self.issue(FetchKey::Object { index: 0 }, service_root, &mut out);
                    }
                } else {
                    self.issue(
                        FetchKey::Meta { level: local.depth(), index: 0 },
                        service_root,
                        &mut out,
                    );
                }
            }
            return (out, self.maybe_complete());
        }

        // Regular partition node.
        let key = FetchKey::Meta { level: m.level, index: m.index };
        let expected = match self.outstanding.get(&key) {
            Some(o) => o.expected,
            None => return (Vec::new(), None),
        };
        if !local.verify_children(m.level, &m.digests, &expected) {
            return self.reject(key);
        }
        self.outstanding.remove(&key);

        let b = local.branching() as u64;
        let local_children = local
            .children_digests(m.level, m.index)
            .unwrap_or_else(|| vec![local.default_digest(m.level - 1); b as usize]);
        for (c, remote_digest) in m.digests.iter().enumerate() {
            if *remote_digest == local_children[c] {
                continue;
            }
            let child_index = m.index * b + c as u64;
            if m.level - 1 == 0 {
                // Child is a leaf (an abstract object). A zero digest means
                // the object is absent in the checkpoint — record the
                // deletion without a fetch.
                if child_index < local.capacity() {
                    if remote_digest.is_zero() {
                        self.objects.push((child_index, None));
                    } else {
                        self.issue(
                            FetchKey::Object { index: child_index },
                            *remote_digest,
                            &mut out,
                        );
                    }
                }
            } else {
                self.issue(
                    FetchKey::Meta { level: m.level - 1, index: child_index },
                    *remote_digest,
                    &mut out,
                );
            }
        }
        // The completed query freed a window slot even if this node
        // contributed no new queries: let a parked one through.
        self.pump(&mut out);
        (out, self.maybe_complete())
    }

    /// Handles an object reply.
    pub fn on_object_reply(
        &mut self,
        m: &ObjectReplyMsg,
    ) -> (Vec<(u32, Message)>, Option<FetchResult>) {
        if self.done || m.seq != self.seq {
            return (Vec::new(), None);
        }
        if m.index == REPLIES_INDEX {
            let expected = match self.replies_digest {
                Some(d) => d,
                None => return (Vec::new(), None),
            };
            if Digest::of(&m.data) != expected {
                return self.reject(FetchKey::Replies);
            }
            if self.outstanding.remove(&FetchKey::Replies).is_some() {
                self.fetched_bytes += m.data.len() as u64;
                self.replies_blob = Some(m.data.clone());
            }
            let mut out = Vec::new();
            self.pump(&mut out);
            return (out, self.maybe_complete());
        }

        let key = FetchKey::Object { index: m.index };
        let expected = match self.outstanding.get(&key) {
            Some(o) => o.expected,
            None => return (Vec::new(), None),
        };
        if crate::tree::leaf_digest(m.index, &m.data) != expected {
            return self.reject(key);
        }
        self.outstanding.remove(&key);
        self.fetched_bytes += m.data.len() as u64;
        self.objects.push((m.index, Some(m.data.clone())));
        let mut out = Vec::new();
        self.pump(&mut out);
        (out, self.maybe_complete())
    }

    fn maybe_complete(&mut self) -> Option<FetchResult> {
        if self.done
            || !self.outstanding.is_empty()
            || !self.pending.is_empty()
            || self.service_root.is_none()
            || self.replies_blob.is_none()
        {
            return None;
        }
        self.done = true;
        Some(FetchResult {
            seq: self.seq,
            service_root: self.service_root.expect("checked above"),
            objects: std::mem::take(&mut self.objects),
            replies_blob: self.replies_blob.clone().expect("checked above"),
            fetched_bytes: self.fetched_bytes,
            meta_queries: self.meta_queries,
            corrupt_replies: self.corrupt_replies,
            retransmissions: self.retransmissions,
        })
    }
}
