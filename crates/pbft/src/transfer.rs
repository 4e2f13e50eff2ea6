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
//! up to a window of meta/object queries is outstanding at a time — it
//! starts at [`DEFAULT_FETCH_WINDOW`], grows to [`FETCH_WINDOW_MAX`] on
//! timely verified replies and halves on retransmission — with further
//! discovered queries parked in FIFO order until a slot frees up. A query
//! whose reply fails digest verification is re-targeted to the next source
//! immediately; unanswered queries are retransmitted with per-query
//! exponential backoff from the observed reply latency plus deterministic
//! jitter, so a slow or silent source delays only its own partitions and
//! retries do not synchronize into bursts.
//!
//! The checkpoint identity covers both the service state and the client
//! reply cache (which PBFT replicates as part of the state):
//! `D = H("ckpt" || service_root || H(replies_blob))`.

use crate::messages::{
    ChunksReplyMsg, FetchChunksMsg, FetchFragMsg, FetchMetaMsg, FetchObjectMsg, FragReplyMsg,
    Message, MetaReplyMsg, ObjectReplyMsg,
};
use crate::tree::PartitionTree;
use base_crypto::{fec, Digest};
use base_simnet::RttEstimator;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Initial window of concurrently outstanding fetch queries.
///
/// The fetcher pipelines its tree walk: up to this many meta/object
/// queries are in flight at once, and each reply both advances the walk
/// and releases a window slot for the next parked query. `window = 1`
/// degenerates to a strictly serial walk (one query, one reply, repeat);
/// larger windows overlap query round-trips and cut the number of
/// request/reply rounds a transfer needs, while still bounding how hard a
/// recovering replica hammers its sources.
pub const DEFAULT_FETCH_WINDOW: usize = 4;

/// Upper bound a replica's fetch window grows to.
pub const FETCH_WINDOW_MAX: usize = 16;

/// Pseudo-level used to fetch the checkpoint's top-level metadata
/// (`[service_root, replies_digest]`).
pub const META_ROOT_LEVEL: u32 = u32::MAX;

/// Pseudo-object index used to fetch the serialized reply cache.
pub const REPLIES_INDEX: u64 = u64::MAX;

/// Chunk number in fragment messages meaning "the whole object" — coded
/// transfer without chunked leaf digests fragments entire objects.
pub const CHUNK_WHOLE: u32 = u32::MAX;

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
    /// Largest pipelining window the fetch reached.
    pub peak_window: usize,
    /// Coded transfer: chunk-digest-list queries issued.
    pub chunk_queries: u64,
    /// Coded transfer: fragment queries issued.
    pub frag_queries: u64,
    /// Coded transfer: chunks satisfied from the local value (matched the
    /// remote checkpoint's verified chunk digest, so no bytes moved).
    pub chunks_reused: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FetchKey {
    Root,
    Replies,
    Meta { level: u32, index: u64 },
    Object { index: u64 },
    /// Coded transfer: an object's chunk-digest list.
    Chunks { index: u64 },
    /// Coded transfer: one erasure-coded fragment of a chunk (or of the
    /// whole object when `chunk == CHUNK_WHOLE`).
    Frag { index: u64, chunk: u32, frag: u32 },
}

#[derive(Debug)]
struct Outstanding {
    expected: Digest,
    attempts: u32,
    /// Tick count at which this query becomes eligible for retransmission
    /// (exponential backoff with deterministic jitter).
    next_retry: u64,
    /// Tick count at which the query was last put on the wire; verified
    /// replies feed `ticks - sent_at` to the reply-latency estimator.
    sent_at: u64,
}

/// Retransmission backoff cap, in ticks.
const MAX_BACKOFF_TICKS: u64 = 32;

/// Erasure-coding parameters for a coded fetch.
#[derive(Debug, Clone, Copy)]
struct CodedCfg {
    /// Data fragments needed to reconstruct (`f + 1`).
    k: usize,
    /// Parity fragments available beyond the data ones (`f`).
    m: usize,
    /// Leaf-digest chunk size; `0` fragments whole objects.
    chunk_size: usize,
}

/// Reassembly state for one coded unit — a chunk, or a whole object when
/// `chunk == CHUNK_WHOLE`.
#[derive(Debug)]
struct CodedUnit {
    /// Digest the reassembled bytes must hash to (chunk digest, or leaf
    /// digest for whole-object units).
    expected: Digest,
    /// Unfragmented length when known a priori (chunked mode learns it
    /// from the verified chunk list); whole-object units learn candidate
    /// lengths from fragment replies.
    len: Option<u64>,
    /// Distinct candidate lengths claimed by fragment replies (whole-object
    /// units only; the digest check arbitrates).
    lens_seen: Vec<u64>,
    /// Verified-length fragments received so far, by fragment id.
    frags: BTreeMap<u32, Vec<u8>>,
    /// Fragment queries issued for this unit (k, then k+m once escalated).
    issued: u32,
    /// Parity fragments have been requested (a data fragment arrived
    /// corrupt, or lengths disagree).
    escalated: bool,
}

impl CodedUnit {
    fn new(expected: Digest, len: Option<u64>) -> Self {
        Self { expected, len, lens_seen: Vec::new(), frags: BTreeMap::new(), issued: 0, escalated: false }
    }
}

/// Per-object assembly state for chunked coded fetches: the verified chunk
/// list plus reused or reconstructed chunk bytes.
#[derive(Debug)]
struct ChunkedObject {
    /// Object length from the verified chunk list.
    len: u64,
    /// Chunks still missing.
    remaining: usize,
    /// Chunk bytes, filled in as they are reused or reconstructed.
    chunks: Vec<Option<Vec<u8>>>,
}

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
    /// Maximum number of concurrently outstanding queries. AIMD: grows on
    /// timely verified replies, halves on retransmission.
    window: usize,
    /// Upper bound for window growth.
    window_max: usize,
    /// Largest window reached over the fetch's lifetime.
    peak_window: usize,
    /// Reply latency in ticks; its RTO is the retry backoff base and the
    /// timeliness threshold for window growth.
    rtt: RttEstimator,
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
    /// Erasure-coded fetch mode; `None` = legacy whole-object fetches.
    coded: Option<CodedCfg>,
    /// In-flight coded units, keyed by `(object index, chunk)`.
    units: HashMap<(u64, u32), CodedUnit>,
    /// In-flight chunked objects, keyed by object index.
    chunked: HashMap<u64, ChunkedObject>,
    chunk_queries: u64,
    frag_queries: u64,
    chunks_reused: u64,
    done: bool,
}

impl Fetcher {
    /// Creates a fetcher targeting checkpoint (`seq`, `target`), where
    /// `target` is the composite digest proven by a checkpoint certificate.
    ///
    /// The pipelining window starts at `window` (clamped to a minimum of 1;
    /// `1` walks the tree strictly serially) and adapts up to `window_max`:
    /// additive increase on timely verified replies, halving on
    /// retransmission. `window == window_max` pins the ceiling, so the
    /// window never exceeds it. Per-query retry backoff derives from the
    /// observed reply latency. Scheduling-only: absent loss, the set of
    /// fetched objects and issued queries is the same at any window.
    pub fn new(
        me: u32,
        n: usize,
        seq: u64,
        target: Digest,
        window: usize,
        window_max: usize,
    ) -> Self {
        let window = window.max(1);
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
            window,
            window_max: window_max.max(window),
            peak_window: window,
            rtt: RttEstimator::new(seq ^ u64::from(me), 1, MAX_BACKOFF_TICKS, 1),
            objects: Vec::new(),
            cursor: (me as usize + 1) % n,
            ticks: 0,
            corrupt_replies: 0,
            retransmissions: 0,
            fetched_bytes: 0,
            meta_queries: 0,
            coded: None,
            units: HashMap::new(),
            chunked: HashMap::new(),
            chunk_queries: 0,
            frag_queries: 0,
            chunks_reused: 0,
            done: false,
        }
    }

    /// Switches the fetcher to erasure-coded object transfer: out-of-date
    /// objects are fetched as `(k, m)` Reed–Solomon fragments spread over
    /// the sources instead of whole values from one source. With
    /// `chunk_size > 0` the leaf digests must be chunked folds
    /// ([`crate::tree::chunked_leaf_digest`]); the fetcher first retrieves
    /// an object's chunk-digest list, reuses local chunks that already
    /// match, and fragments only the missing chunks. Parity fragments are
    /// requested only when a data fragment is lost to corruption.
    pub fn enable_coded(&mut self, k: usize, m: usize, chunk_size: usize) {
        assert!(k >= 1, "coded transfer needs k >= 1 data fragments");
        self.coded = Some(CodedCfg { k, m, chunk_size });
    }

    /// The current pipelining window.
    pub fn window(&self) -> usize {
        self.window
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

    /// Queries retransmitted so far (timeouts plus corrupt replies).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
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
            FetchKey::Chunks { index } => Message::FetchChunks(FetchChunksMsg {
                seq: self.seq,
                index,
                replica: self.me,
            }),
            FetchKey::Frag { index, chunk, frag } => Message::FetchFrag(FetchFragMsg {
                seq: self.seq,
                index,
                chunk,
                frag,
                replica: self.me,
            }),
        }
    }

    /// Deterministic per-(key, attempt) jitter in `0..=max`, so retries for
    /// different keys (and successive retries for one key) spread out
    /// instead of synchronizing, without consuming simulator randomness.
    fn jitter(&self, key: FetchKey, attempts: u32, max: u64) -> u64 {
        let code = match key {
            FetchKey::Root => 1,
            FetchKey::Replies => 2,
            FetchKey::Meta { level, index } => 3 ^ ((level as u64) << 32) ^ index,
            FetchKey::Object { index } => 5 ^ index,
            FetchKey::Chunks { index } => 7 ^ index,
            FetchKey::Frag { index, chunk, frag } => {
                11 ^ index ^ ((chunk as u64) << 20) ^ ((frag as u64) << 52)
            }
        };
        let mut x = self.seq ^ code ^ (u64::from(attempts) << 48) ^ 0x9e37_79b9_7f4a_7c15;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        if max == 0 { 0 } else { x % (max + 1) }
    }

    /// Exponential backoff (in ticks) for the next retry of `key`, scaled
    /// from the observed reply-latency RTO, plus jitter of up to half the
    /// backoff.
    fn backoff_ticks(&self, key: FetchKey, attempts: u32) -> u64 {
        let base = self.rtt.backoff(attempts);
        base + self.jitter(key, attempts, base / 2)
    }

    /// Removes a verified outstanding query, feeding its reply latency to
    /// the estimator and growing the window when the reply was timely.
    /// Returns false when the query was not outstanding (stale reply).
    fn consume(&mut self, key: FetchKey) -> bool {
        let Some(o) = self.outstanding.remove(&key) else { return false };
        let lat = self.ticks.saturating_sub(o.sent_at);
        self.rtt.observe(lat);
        if lat <= self.rtt.rto() && self.window < self.window_max {
            self.window += 1;
            self.peak_window = self.peak_window.max(self.window);
        }
        true
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
            match key {
                FetchKey::Meta { .. } | FetchKey::Root => self.meta_queries += 1,
                FetchKey::Chunks { .. } => self.chunk_queries += 1,
                FetchKey::Frag { .. } => self.frag_queries += 1,
                _ => {}
            }
            let msg = self.request_for(key);
            let next_retry = self.ticks + self.backoff_ticks(key, 0);
            self.outstanding
                .insert(key, Outstanding { expected, attempts: 0, next_retry, sent_at: self.ticks });
            let src = self.next_source();
            out.push((src, msg));
        }
    }

    /// Drops a query that is no longer needed (its coded unit completed
    /// from other fragments), whether parked or on the wire, and lets a
    /// parked query take the freed slot.
    fn cancel(&mut self, key: FetchKey, out: &mut Vec<(u32, Message)>) {
        self.outstanding.remove(&key);
        self.pending.retain(|(k, _)| *k != key);
        self.pump(out);
    }

    /// Issues the fetch for one out-of-date object, routed by mode: legacy
    /// whole-object query, chunk-digest list (chunked coded), or `k` data
    /// fragment queries (whole-object coded).
    fn issue_object(&mut self, index: u64, expected: Digest, out: &mut Vec<(u32, Message)>) {
        match self.coded {
            None => self.issue(FetchKey::Object { index }, expected, out),
            Some(c) if c.chunk_size > 0 => self.issue(FetchKey::Chunks { index }, expected, out),
            Some(c) => {
                let unit = self
                    .units
                    .entry((index, CHUNK_WHOLE))
                    .or_insert_with(|| CodedUnit::new(expected, None));
                unit.issued = c.k as u32;
                for frag in 0..c.k as u32 {
                    self.issue(FetchKey::Frag { index, chunk: CHUNK_WHOLE, frag }, expected, out);
                }
            }
        }
    }

    /// Re-issues an already outstanding query to the next source, bumping
    /// its attempt count and pushing back its retry deadline.
    fn reissue(&mut self, key: FetchKey) -> Option<(u32, Message)> {
        let attempts = {
            let o = self.outstanding.get_mut(&key)?;
            o.attempts += 1;
            o.attempts
        };
        let next_retry = self.ticks + self.backoff_ticks(key, attempts);
        if let Some(o) = self.outstanding.get_mut(&key) {
            o.next_retry = next_retry;
            o.sent_at = self.ticks;
        }
        self.retransmissions += 1;
        // Multiplicative decrease: a lost or corrupt reply means the
        // sources (or the path) are struggling — back the window off.
        self.window = (self.window / 2).max(1);
        Some((self.next_source(), self.request_for(key)))
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
            FetchKey::Chunks { index } => (4, 0, index),
            FetchKey::Frag { index, chunk, frag } => {
                (5, index, (u64::from(chunk) << 32) | u64::from(frag))
            }
        });
        due.into_iter().filter_map(|key| self.reissue(key)).collect()
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
                // Corrupt root metadata: re-target the query right away
                // (no-op if the root query is no longer outstanding).
                self.corrupt_replies += 1;
                let out = self.reissue(FetchKey::Root).into_iter().collect();
                return (out, None);
            }
            if !self.consume(FetchKey::Root) {
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
                        self.issue_object(0, service_root, &mut out);
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
            // Corrupt or stale reply: re-target the query to the next
            // source immediately instead of waiting out the backoff.
            self.corrupt_replies += 1;
            let out = self.reissue(key).into_iter().collect();
            return (out, None);
        }
        self.consume(key);

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
                        self.issue_object(child_index, *remote_digest, &mut out);
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
        _local: &PartitionTree,
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
                self.corrupt_replies += 1;
                let out = self.reissue(FetchKey::Replies).into_iter().collect();
                return (out, None);
            }
            if self.consume(FetchKey::Replies) {
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
            self.corrupt_replies += 1;
            let out = self.reissue(key).into_iter().collect();
            return (out, None);
        }
        self.consume(key);
        self.fetched_bytes += m.data.len() as u64;
        self.objects.push((m.index, Some(m.data.clone())));
        let mut out = Vec::new();
        self.pump(&mut out);
        (out, self.maybe_complete())
    }

    /// Handles a chunk-digest-list reply. `local_value` is this replica's
    /// *current* value of the object (from
    /// [`Service::transfer_object`](crate::Service::transfer_object)):
    /// chunks whose local bytes already hash to the verified remote chunk
    /// digest are reused without moving bytes.
    pub fn on_chunks_reply(
        &mut self,
        m: &ChunksReplyMsg,
        local_value: Option<&[u8]>,
    ) -> (Vec<(u32, Message)>, Option<FetchResult>) {
        if self.done || m.seq != self.seq {
            return (Vec::new(), None);
        }
        let Some(c) = self.coded else { return (Vec::new(), None) };
        let key = FetchKey::Chunks { index: m.index };
        let expected = match self.outstanding.get(&key) {
            Some(o) => o.expected,
            None => return (Vec::new(), None),
        };
        // The fold binds both the length and every chunk digest to the
        // (certified) leaf digest, so `len` is as trustworthy as the data.
        let len = m.len as usize;
        if c.chunk_size == 0
            || m.digests.len() != len.div_ceil(c.chunk_size)
            || crate::tree::chunked_leaf_from_digests(m.index, m.len, &m.digests) != expected
        {
            self.corrupt_replies += 1;
            let out = self.reissue(key).into_iter().collect();
            return (out, None);
        }
        self.consume(key);
        self.fetched_bytes += (m.digests.len() * 32) as u64;

        let mut out = Vec::new();
        let mut chunks: Vec<Option<Vec<u8>>> = vec![None; m.digests.len()];
        let mut remaining = 0usize;
        for (ci, d) in m.digests.iter().enumerate() {
            let start = ci * c.chunk_size;
            let end = ((ci + 1) * c.chunk_size).min(len);
            // Reuse the local bytes at this chunk's position when they hash
            // to the verified remote digest — correct whatever the local
            // object has drifted to, because equality is checked against
            // the remote checkpoint's digest, not local metadata.
            let reused = local_value
                .and_then(|v| v.get(start..end))
                .filter(|cand| crate::tree::chunk_digest(m.index, ci as u32, cand) == *d);
            if let Some(cand) = reused {
                chunks[ci] = Some(cand.to_vec());
                self.chunks_reused += 1;
                continue;
            }
            remaining += 1;
            let unit = self
                .units
                .entry((m.index, ci as u32))
                .or_insert_with(|| CodedUnit::new(*d, Some((end - start) as u64)));
            unit.issued = c.k as u32;
            for frag in 0..c.k as u32 {
                self.issue(FetchKey::Frag { index: m.index, chunk: ci as u32, frag }, *d, &mut out);
            }
        }
        if remaining == 0 {
            // Everything reused (or a zero-length object): assemble now.
            let mut value = Vec::with_capacity(len);
            for ch in chunks {
                value.extend_from_slice(&ch.expect("no chunk outstanding"));
            }
            self.objects.push((m.index, Some(value)));
        } else {
            self.chunked.insert(m.index, ChunkedObject { len: m.len, remaining, chunks });
        }
        self.pump(&mut out);
        (out, self.maybe_complete())
    }

    /// Handles a fragment reply: validates its geometry, banks it in the
    /// unit, and attempts reconstruction once `k` fragments are in.
    pub fn on_frag_reply(&mut self, m: &FragReplyMsg) -> (Vec<(u32, Message)>, Option<FetchResult>) {
        if self.done || m.seq != self.seq {
            return (Vec::new(), None);
        }
        let Some(c) = self.coded else { return (Vec::new(), None) };
        let key = FetchKey::Frag { index: m.index, chunk: m.chunk, frag: m.frag };
        if !self.outstanding.contains_key(&key) {
            return (Vec::new(), None);
        }
        let Some(unit) = self.units.get_mut(&(m.index, m.chunk)) else {
            return (Vec::new(), None);
        };
        // Geometry check. With a verified length (chunked mode) the reply
        // must match it exactly; whole-object units treat the claimed
        // length as a candidate to be arbitrated by the digest check.
        let geometry_ok = (m.frag as usize) < c.k + c.m
            && match unit.len {
                Some(l) => m.len == l && m.data.len() == fec::fragment_len(l as usize, c.k),
                None => m.data.len() == fec::fragment_len(m.len as usize, c.k),
            };
        if !geometry_ok {
            self.corrupt_replies += 1;
            let out = self.reissue(key).into_iter().collect();
            return (out, None);
        }
        if unit.len.is_none() && !unit.lens_seen.contains(&m.len) {
            unit.lens_seen.push(m.len);
            unit.lens_seen.sort_unstable();
        }
        unit.frags.entry(m.frag).or_insert_with(|| m.data.clone());
        self.consume(key);
        self.fetched_bytes += m.data.len() as u64;
        let mut out = Vec::new();
        self.try_unit(m.index, m.chunk, &mut out);
        self.pump(&mut out);
        (out, self.maybe_complete())
    }

    /// Attempts to reconstruct one coded unit from its banked fragments;
    /// on digest failure with every issued fragment in, escalates to
    /// parity fragments and then to a fresh fetch round (rotated sources).
    fn try_unit(&mut self, index: u64, chunk: u32, out: &mut Vec<(u32, Message)>) {
        let Some(c) = self.coded else { return };
        let Some(unit) = self.units.get(&(index, chunk)) else { return };
        if unit.frags.len() < c.k {
            return;
        }
        let expected = unit.expected;
        let check = |data: &[u8]| {
            if chunk == CHUNK_WHOLE {
                crate::tree::leaf_digest(index, data) == expected
            } else {
                crate::tree::chunk_digest(index, chunk, data) == expected
            }
        };
        let candidates: Vec<u64> = match unit.len {
            Some(l) => vec![l],
            None => unit.lens_seen.clone(),
        };
        let frag_vec: Vec<(usize, Vec<u8>)> =
            unit.frags.iter().map(|(id, d)| (*id as usize, d.clone())).collect();
        for &len in &candidates {
            let flen = fec::fragment_len(len as usize, c.k);
            let fit: Vec<(usize, Vec<u8>)> =
                frag_vec.iter().filter(|(_, d)| d.len() == flen).cloned().collect();
            if fit.len() < c.k {
                continue;
            }
            if let Some(data) = fec::reconstruct_verified(&fit, c.k, c.m, len as usize, check) {
                self.complete_unit(index, chunk, data, out);
                return;
            }
        }
        // >= k fragments and no verifiable reconstruction: wait for the
        // stragglers; once every issued fragment has answered, at least one
        // banked fragment is corrupt.
        let (received, issued, escalated) = {
            let u = &self.units[&(index, chunk)];
            (u.frags.len() as u32, u.issued, u.escalated)
        };
        if received < issued {
            return;
        }
        self.corrupt_replies += 1;
        if !escalated && c.m > 0 {
            // Escalate: pull parity fragments so `reconstruct_verified` can
            // vote the corrupt fragment out.
            let u = self.units.get_mut(&(index, chunk)).expect("unit exists");
            u.escalated = true;
            u.issued = (c.k + c.m) as u32;
            for frag in c.k as u32..(c.k + c.m) as u32 {
                self.issue(FetchKey::Frag { index, chunk, frag }, expected, out);
            }
        } else {
            // Even the full fragment set cannot be verified (more corrupt
            // fragments than parity). Start the unit over — the round-robin
            // cursor has moved on, so the retry lands on different sources.
            let u = self.units.get_mut(&(index, chunk)).expect("unit exists");
            u.frags.clear();
            u.lens_seen.clear();
            u.escalated = false;
            u.issued = c.k as u32;
            self.retransmissions += 1;
            for frag in 0..c.k as u32 {
                self.issue(FetchKey::Frag { index, chunk, frag }, expected, out);
            }
        }
    }

    /// Banks a verified reconstruction: cancels the unit's remaining
    /// fragment queries and, for chunked objects, assembles the value once
    /// the last chunk lands.
    fn complete_unit(&mut self, index: u64, chunk: u32, data: Vec<u8>, out: &mut Vec<(u32, Message)>) {
        let unit = self.units.remove(&(index, chunk)).expect("unit exists");
        for frag in 0..unit.issued {
            self.cancel(FetchKey::Frag { index, chunk, frag }, out);
        }
        if chunk == CHUNK_WHOLE {
            self.objects.push((index, Some(data)));
            return;
        }
        let obj = self.chunked.get_mut(&index).expect("chunked object exists");
        let ci = chunk as usize;
        if obj.chunks[ci].is_none() {
            obj.chunks[ci] = Some(data);
            obj.remaining -= 1;
        }
        if obj.remaining == 0 {
            let obj = self.chunked.remove(&index).expect("just seen");
            let mut value = Vec::with_capacity(obj.len as usize);
            for ch in obj.chunks {
                value.extend_from_slice(&ch.expect("remaining == 0"));
            }
            debug_assert_eq!(value.len() as u64, obj.len);
            self.objects.push((index, Some(value)));
        }
    }

    fn maybe_complete(&mut self) -> Option<FetchResult> {
        if self.done
            || !self.outstanding.is_empty()
            || !self.pending.is_empty()
            || !self.units.is_empty()
            || !self.chunked.is_empty()
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
            peak_window: self.peak_window,
            chunk_queries: self.chunk_queries,
            frag_queries: self.frag_queries,
            chunks_reused: self.chunks_reused,
        })
    }
}
