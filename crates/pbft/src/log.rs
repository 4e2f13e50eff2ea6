//! The replica message log: per-sequence certificates, checkpoint
//! certificates, and the client reply cache.

use crate::messages::{CheckpointMsg, CommitMsg, PrePrepareMsg, PrepareMsg};
use base_crypto::Digest;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Agreement stage of one in-flight slot, as its logged messages and the
/// execution point add it up ([`SeqEntry::stage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SlotStage {
    /// A pre-prepare is logged; prepares are being gathered.
    Proposed,
    /// The *prepared* predicate holds; commits are being gathered.
    Prepared,
    /// Committed-local: ready for the execution stage.
    Committed,
    /// Executed (and therefore no longer backlog).
    Executed,
}

/// Everything the replica keeps for one sequence number in one view.
#[derive(Debug, Default, Clone)]
pub struct SeqEntry {
    /// Accepted pre-prepare (at most one per view; conflicting ones are
    /// rejected on receipt).
    pub pre_prepare: Option<PrePrepareMsg>,
    /// Prepares received, one per sender (first one wins), ordered by
    /// sender id.
    prepares: Vec<PrepareMsg>,
    /// Commits received, likewise.
    commits: Vec<CommitMsg>,
    /// A `CommitQuorum` trace event has been emitted for this slot in the
    /// current agreement instance (dedup across redundant commits).
    traced: bool,
    /// When the pre-prepare was first accepted (ns); execution takes it to
    /// record the three-phase round time in the
    /// `replica.agreement_latency_ns` histogram.
    pub arrival: Option<u64>,
}

/// Inserts `msg` into `list`, ordered by `replica`, unless that replica
/// already has a message there.
fn insert_by_replica<M>(list: &mut Vec<M>, msg: M, replica: impl Fn(&M) -> u32) {
    let at = list.partition_point(|m| replica(m) < replica(&msg));
    if list.get(at).is_none_or(|m| replica(m) != replica(&msg)) {
        list.insert(at, msg);
    }
}

impl SeqEntry {
    /// Digest of the accepted pre-prepare's batch, if any.
    pub fn accepted_digest(&self) -> Option<Digest> {
        self.pre_prepare.as_ref().map(|p| p.batch_digest())
    }

    /// Logs a prepare unless its sender already has one here.
    pub fn add_prepare(&mut self, p: PrepareMsg) {
        insert_by_replica(&mut self.prepares, p, |p| p.replica);
    }

    /// Logs a commit unless its sender already has one here.
    pub fn add_commit(&mut self, c: CommitMsg) {
        insert_by_replica(&mut self.commits, c, |c| c.replica);
    }

    /// Logged prepares in sender order.
    pub fn prepares(&self) -> &[PrepareMsg] {
        &self.prepares
    }

    /// Logged commits in sender order.
    pub fn commits(&self) -> &[CommitMsg] {
        &self.commits
    }

    /// The slot is re-proposed in a new view: agreement on it starts over.
    pub fn restart_agreement(&mut self, pre_prepare: PrePrepareMsg) {
        self.pre_prepare = Some(pre_prepare);
        self.prepares.clear();
        self.commits.clear();
    }

    /// Number of logged prepares matching the accepted pre-prepare
    /// (view + digest), excluding the primary (whose pre-prepare already
    /// counts).
    fn matching_prepares(&self, view: u64) -> usize {
        let Some(digest) = self.accepted_digest() else { return 0 };
        self.prepares.iter().filter(|p| p.view == view && p.digest == digest).count()
    }

    /// The *prepared* predicate: pre-prepare plus `2f` matching prepares
    /// from distinct replicas.
    pub fn prepared(&self, view: u64, f: usize) -> bool {
        match &self.pre_prepare {
            Some(pp) if pp.view == view => self.matching_prepares(view) >= 2 * f,
            _ => false,
        }
    }

    /// Number of logged commits matching (view, digest).
    fn matching_commits(&self, view: u64) -> usize {
        let Some(digest) = self.accepted_digest() else { return 0 };
        self.commits.iter().filter(|c| c.view == view && c.digest == digest).count()
    }

    /// The *committed-local* predicate: prepared plus `2f + 1` matching
    /// commits.
    pub fn committed(&self, view: u64, f: usize) -> bool {
        self.prepared(view, f) && self.matching_commits(view) > 2 * f
    }

    /// True exactly once per agreement instance of a slot with a
    /// pre-prepare: marks the slot's commit quorum as traced and reports
    /// whether it was untraced before (the `CommitQuorum` trace event
    /// dedup; [`Log::restart_instances`] re-arms it when a view change
    /// restarts agreement).
    pub fn first_quorum_trace(&mut self) -> bool {
        let first = self.pre_prepare.is_some() && !self.traced;
        self.traced |= first;
        first
    }

    /// The stage the logged messages add up to in `view`, the view of the
    /// last installed NEW-VIEW (0 before any); `executed` when execution
    /// has passed the slot. `None` until a pre-prepare is logged.
    pub fn stage(&self, view: u64, f: usize, executed: bool) -> Option<SlotStage> {
        self.pre_prepare.as_ref()?;
        Some(if executed {
            SlotStage::Executed
        } else if self.committed(view, f) {
            SlotStage::Committed
        } else if self.prepared(view, f) {
            SlotStage::Prepared
        } else {
            SlotStage::Proposed
        })
    }
}

/// The sequence-number log: a ring over the watermark window.
///
/// Only sequence numbers in `(low, low + window]` are ever logged, so slot
/// `i` of the deque is sequence number `low + 1 + i`: a lookup is a
/// subtraction, garbage collection pops the front, and the deque reaches
/// the highest sequence number touched since the last stable checkpoint —
/// never past the window, whatever a peer sends. A slot is `None` until
/// something is logged for it.
#[derive(Debug)]
pub struct Log {
    slots: VecDeque<Option<SeqEntry>>,
    /// Low watermark: the last stable checkpoint.
    pub low: u64,
    window: u64,
}

impl Log {
    /// An empty log over `(0, window]`.
    pub fn new(window: u64) -> Self {
        Self { slots: VecDeque::new(), low: 0, window }
    }

    /// Ring index of `seq`, if it lies in `(low, low + window]`.
    fn index(&self, seq: u64) -> Option<usize> {
        let offset = seq.checked_sub(self.low)?.checked_sub(1)?;
        (offset < self.window).then_some(offset as usize)
    }

    /// Mutable access to the entry for `seq`, creating it if absent.
    /// `None` — and nothing allocated — for a sequence number outside
    /// `(low, low + window]`: callers drop whatever they were about to log.
    pub fn entry_mut(&mut self, seq: u64) -> Option<&mut SeqEntry> {
        let i = self.index(seq)?;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        Some(self.slots[i].get_or_insert_with(SeqEntry::default))
    }

    /// Read access to the entry for `seq`.
    pub fn entry(&self, seq: u64) -> Option<&SeqEntry> {
        self.slots.get(self.index(seq)?)?.as_ref()
    }

    /// Discards entries at or below the new stable checkpoint `h` and
    /// advances the low watermark.
    pub fn gc_up_to(&mut self, h: u64) {
        let Some(drop) = h.checked_sub(self.low).filter(|d| *d > 0) else { return };
        let drop = usize::try_from(drop).unwrap_or(usize::MAX).min(self.slots.len());
        self.slots.drain(..drop);
        self.low = h;
    }

    /// Iterates over logged entries above the low watermark, in sequence
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SeqEntry)> {
        let first = self.low + 1;
        self.slots.iter().enumerate().filter_map(move |(i, e)| Some((first + i as u64, e.as_ref()?)))
    }

    /// Number of logged entries.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// True if no entries are logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if any slot past `last_exec` is committed in `view` — the
    /// execution stage has backlog and the current service state is older
    /// than the committed prefix.
    pub fn has_backlog(&self, last_exec: u64, view: u64, f: usize) -> bool {
        let from = usize::try_from(last_exec.saturating_sub(self.low)).unwrap_or(usize::MAX);
        self.slots.iter().skip(from).flatten().any(|e| e.committed(view, f))
    }

    /// A new view: every slot is a fresh agreement instance, which traces
    /// its own `CommitQuorum` and whose carried-over arrival time would
    /// sample the view change, not an agreement round.
    pub fn restart_instances(&mut self) {
        for e in self.slots.iter_mut().flatten() {
            (e.traced, e.arrival) = (false, None);
        }
    }
}

/// Collects checkpoint messages into certificates.
#[derive(Debug, Default)]
pub struct CheckpointCollector {
    /// seq → digest → sender → message.
    by_seq: BTreeMap<u64, HashMap<Digest, HashMap<u32, CheckpointMsg>>>,
}

impl CheckpointCollector {
    /// Adds a (verified) checkpoint message. Returns the certificate if
    /// this message completed a quorum of `quorum` matching messages.
    pub fn add(&mut self, msg: CheckpointMsg, quorum: usize) -> Option<Vec<CheckpointMsg>> {
        let senders = self
            .by_seq
            .entry(msg.seq)
            .or_default()
            .entry(msg.digest)
            .or_default();
        senders.insert(msg.replica, msg.clone());
        if senders.len() >= quorum {
            Some(senders.values().cloned().collect())
        } else {
            None
        }
    }

    /// Discards state for checkpoints at or below `seq`.
    pub fn gc_up_to(&mut self, seq: u64) {
        self.by_seq = self.by_seq.split_off(&(seq + 1));
    }
}

/// Per-client cache of the last executed request and its result.
///
/// PBFT assumes each client has at most one outstanding request; the cache
/// answers retransmissions of the last request and filters stale ones.
///
/// The cache is part of the replicated state: its canonical serialization
/// ([`ReplyCache::to_blob`]) is covered by the checkpoint digest and
/// travels with state transfer. Only `(client, timestamp, result)` is
/// stored — never replica-specific fields like the view or MAC, which would
/// make the blob diverge across replicas.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplyCache {
    by_client: BTreeMap<u32, (u64, Vec<u8>)>,
}

impl ReplyCache {
    /// Last executed timestamp for `client`.
    fn last_timestamp(&self, client: u32) -> Option<u64> {
        self.by_client.get(&client).map(|(t, _)| *t)
    }

    /// Cached result if `timestamp` matches the last executed request.
    pub fn cached_result(&self, client: u32, timestamp: u64) -> Option<&[u8]> {
        match self.by_client.get(&client) {
            Some((t, result)) if *t == timestamp => Some(result),
            _ => None,
        }
    }

    /// Records the result of `client`'s request `timestamp`.
    pub fn record(&mut self, client: u32, timestamp: u64, result: Vec<u8>) {
        self.by_client.insert(client, (timestamp, result));
    }

    /// True if `timestamp` is newer than anything executed for `client`.
    pub fn is_new(&self, client: u32, timestamp: u64) -> bool {
        match self.last_timestamp(client) {
            Some(t) => timestamp > t,
            None => true,
        }
    }

    /// Canonical serialization (sorted by client id, so identical logical
    /// content produces identical bytes at every replica).
    pub fn to_blob(&self) -> Vec<u8> {
        let mut enc = base_xdr::XdrEncoder::new();
        enc.put_u32(self.by_client.len() as u32);
        for (client, (ts, result)) in &self.by_client {
            enc.put_u32(*client);
            enc.put_u64(*ts);
            enc.put_opaque(result);
        }
        enc.finish()
    }

    /// Rebuilds a cache from its canonical serialization.
    pub fn from_blob(blob: &[u8]) -> Option<Self> {
        let mut dec = base_xdr::XdrDecoder::new(blob);
        let n = dec.get_count(16).ok()?;
        let mut by_client = BTreeMap::new();
        for _ in 0..n {
            let client = dec.get_u32().ok()?;
            let ts = dec.get_u64().ok()?;
            let result = dec.get_opaque().ok()?;
            by_client.insert(client, (ts, result));
        }
        dec.finish().ok()?;
        Some(Self { by_client })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::RequestMsg;
    use base_crypto::{Authenticator, Signature};

    fn pp(view: u64, seq: u64) -> PrePrepareMsg {
        PrePrepareMsg::new(view, seq, vec![RequestMsg::new(9, 1, false, 0, b"x".to_vec())], Vec::new())
    }

    fn prep(view: u64, seq: u64, digest: Digest, replica: u32) -> PrepareMsg {
        PrepareMsg { view, seq, digest, replica, auth: Authenticator::default() }
    }

    fn com(view: u64, seq: u64, digest: Digest, replica: u32) -> CommitMsg {
        CommitMsg { view, seq, digest, replica, auth: Authenticator::default() }
    }

    #[test]
    fn prepared_needs_preprepare_and_2f_prepares() {
        let f = 1;
        let mut e = SeqEntry::default();
        let p = pp(0, 1);
        let d = p.batch_digest();
        assert!(!e.prepared(0, f));
        e.pre_prepare = Some(p);
        assert!(!e.prepared(0, f));
        e.add_prepare(prep(0, 1, d, 1));
        assert!(!e.prepared(0, f));
        e.add_prepare(prep(0, 1, d, 2));
        assert!(e.prepared(0, f));
    }

    #[test]
    fn mismatched_digest_prepares_do_not_count() {
        let f = 1;
        let mut e = SeqEntry { pre_prepare: Some(pp(0, 1)), ..Default::default() };
        e.add_prepare(prep(0, 1, Digest::of(b"other"), 1));
        e.add_prepare(prep(0, 1, Digest::of(b"other"), 2));
        assert!(!e.prepared(0, f));
    }

    #[test]
    fn wrong_view_prepares_do_not_count() {
        let f = 1;
        let mut e = SeqEntry::default();
        let p = pp(0, 1);
        let d = p.batch_digest();
        e.pre_prepare = Some(p);
        e.add_prepare(prep(1, 1, d, 1));
        e.add_prepare(prep(1, 1, d, 2));
        assert!(!e.prepared(0, f));
    }

    #[test]
    fn committed_needs_quorum_commits() {
        let f = 1;
        let mut e = SeqEntry::default();
        let p = pp(0, 1);
        let d = p.batch_digest();
        e.pre_prepare = Some(p);
        e.add_prepare(prep(0, 1, d, 1));
        e.add_prepare(prep(0, 1, d, 2));
        e.add_commit(com(0, 1, d, 0));
        e.add_commit(com(0, 1, d, 1));
        assert!(!e.committed(0, f));
        e.add_commit(com(0, 1, d, 2));
        assert!(e.committed(0, f));
    }

    #[test]
    fn log_gc_drops_old_entries() {
        let mut log = Log::new(16);
        for seq in 1..=10 {
            log.entry_mut(seq).unwrap();
        }
        log.gc_up_to(7);
        assert_eq!(log.low, 7);
        assert!(log.entry(7).is_none());
        assert!(log.entry(8).is_some());
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn log_holds_the_window_and_nothing_else() {
        let mut log = Log::new(16);
        log.gc_up_to(100);
        for seq in [0, 1, 100, 117, 1 << 40, u64::MAX] {
            assert!(log.entry_mut(seq).is_none(), "seq {seq} is outside (100, 116]");
            assert!(log.entry(seq).is_none());
        }
        assert_eq!((log.len(), log.slots.len(), log.slots.capacity()), (0, 0, 0));
        assert!(log.entry_mut(116).is_some());
        assert_eq!((log.len(), log.slots.len()), (1, 16));
        // A stale or repeated checkpoint moves nothing; one past everything
        // logged empties the ring without walking to it.
        log.gc_up_to(50);
        log.gc_up_to(100);
        assert_eq!((log.low, log.len()), (100, 1));
        log.gc_up_to(u64::MAX - 16);
        assert_eq!((log.low, log.len(), log.slots.len()), (u64::MAX - 16, 0, 0));
        assert!(log.entry_mut(u64::MAX).is_some());
        assert!(!log.has_backlog(u64::MAX, 0, 1));
    }

    #[test]
    fn checkpoint_collector_builds_certificate() {
        let mut c = CheckpointCollector::default();
        let d = Digest::of(b"state");
        let msg = |replica| CheckpointMsg { seq: 128, digest: d, replica, sig: Signature([0; 32]) };
        assert!(c.add(msg(0), 3).is_none());
        assert!(c.add(msg(1), 3).is_none());
        // A divergent digest does not help the quorum.
        assert!(c
            .add(CheckpointMsg { seq: 128, digest: Digest::of(b"bad"), replica: 3, sig: Signature([0; 32]) }, 3)
            .is_none());
        let cert = c.add(msg(2), 3).expect("quorum reached");
        assert_eq!(cert.len(), 3);
        assert!(cert.iter().all(|m| (m.seq, m.digest) == (128, d)));
    }

    #[test]
    fn checkpoint_collector_dedups_senders() {
        let mut c = CheckpointCollector::default();
        let d = Digest::of(b"state");
        let msg = CheckpointMsg { seq: 128, digest: d, replica: 0, sig: Signature([0; 32]) };
        assert!(c.add(msg.clone(), 2).is_none());
        assert!(c.add(msg, 2).is_none(), "duplicate sender must not complete a quorum");
    }

    #[test]
    fn reply_cache_semantics() {
        let mut cache = ReplyCache::default();
        assert!(cache.is_new(5, 1));
        cache.record(5, 1, b"r".to_vec());
        assert!(!cache.is_new(5, 1));
        assert!(cache.is_new(5, 2));
        assert_eq!(cache.cached_result(5, 1), Some(&b"r"[..]));
        assert!(cache.cached_result(5, 2).is_none());
        assert!(cache.is_new(6, 1), "other clients unaffected");
    }

    #[test]
    fn reply_cache_blob_round_trip() {
        let mut cache = ReplyCache::default();
        cache.record(5, 1, b"r1".to_vec());
        cache.record(3, 9, b"r2".to_vec());
        let blob = cache.to_blob();
        assert_eq!(ReplyCache::from_blob(&blob).unwrap(), cache);
        assert!(ReplyCache::from_blob(&[1, 2, 3]).is_none());
    }

    /// Logs `pp(view, seq)` at `seq` unless one is logged, then prepares
    /// from `prepares` and commits from `commits`, all matching it.
    fn agree(log: &mut Log, view: u64, seq: u64, prepares: &[u32], commits: &[u32]) {
        let e = log.entry_mut(seq).unwrap();
        let d = e.pre_prepare.get_or_insert_with(|| pp(view, seq)).batch_digest();
        prepares.iter().for_each(|&r| e.add_prepare(prep(view, seq, d, r)));
        commits.iter().for_each(|&r| e.add_commit(com(view, seq, d, r)));
    }

    /// The stage of `seq` in view 0 with `f = 1`, once execution reached
    /// `last_exec`.
    fn stage(log: &Log, seq: u64, last_exec: u64) -> Option<SlotStage> {
        log.entry(seq)?.stage(0, 1, seq <= last_exec)
    }

    #[test]
    fn slot_table_tracks_stages_and_floor() {
        let mut t = Log::new(16);
        assert_eq!(stage(&t, 1, 0), None);
        assert!(!t.has_backlog(0, 0, 1));

        for seq in 1..=3 {
            agree(&mut t, 0, seq, &[], &[]);
        }
        agree(&mut t, 0, 1, &[1, 2], &[]);
        assert_eq!(stage(&t, 1, 0), Some(SlotStage::Prepared));
        assert!(!t.has_backlog(0, 0, 1), "prepared is not committed");

        agree(&mut t, 0, 2, &[1, 2], &[0, 1, 2]);
        assert!(t.has_backlog(0, 0, 1), "slot 2 is committed but unexecuted");
        assert!(!t.has_backlog(0, 1, 1), "committed in view 0, not in view 1");

        agree(&mut t, 0, 1, &[], &[0, 1, 2]);
        assert_eq!(stage(&t, 1, 0), Some(SlotStage::Committed));

        assert_eq!(stage(&t, 2, 2), Some(SlotStage::Executed));
        assert!(!t.has_backlog(2, 0, 1));
        assert_eq!(stage(&t, 3, 2), Some(SlotStage::Proposed));
    }

    /// Within a view a slot's messages only accumulate, so its stage never
    /// falls, whatever order they arrive in; a re-proposal in a new view
    /// restarts agreement and reads `Proposed` again.
    #[test]
    fn slot_table_stage_never_downgrades() {
        let mut t = Log::new(16);
        agree(&mut t, 0, 5, &[], &[0, 1, 2]);
        assert_eq!(stage(&t, 5, 0), Some(SlotStage::Proposed), "commits before prepares");
        agree(&mut t, 0, 5, &[1, 2], &[]);
        assert_eq!(stage(&t, 5, 0), Some(SlotStage::Committed));
        agree(&mut t, 0, 5, &[1, 3], &[2, 3]);
        assert_eq!(stage(&t, 5, 0), Some(SlotStage::Committed), "duplicates and a fourth sender");

        t.entry_mut(5).unwrap().restart_agreement(pp(1, 5));
        assert_eq!(t.entry(5).unwrap().stage(1, 1, false), Some(SlotStage::Proposed));
        agree(&mut t, 1, 5, &[0, 2], &[]);
        assert_eq!(t.entry(5).unwrap().stage(1, 1, false), Some(SlotStage::Prepared));
    }

    #[test]
    fn slot_table_quorum_trace_dedup_and_rearm() {
        let mut t = Log::new(16);
        agree(&mut t, 0, 4, &[0, 1, 2], &[0, 1, 2]);
        let e = t.entry_mut(4).unwrap();
        assert!(e.first_quorum_trace());
        assert!(!e.first_quorum_trace(), "second quorum completion is deduped");
        // A view change re-arms it: re-agreement traces a fresh quorum.
        t.restart_instances();
        assert!(t.entry_mut(4).unwrap().first_quorum_trace());
        let bare = t.entry_mut(9).unwrap();
        assert!(!bare.first_quorum_trace(), "a slot without a pre-prepare never traces");
    }

    #[test]
    fn slot_table_gc_drops_stable_prefix() {
        let mut t = Log::new(16);
        for seq in 1..=8 {
            agree(&mut t, 0, seq, &[1, 2], &[0, 1, 2]);
        }
        t.gc_up_to(4);
        assert_eq!(stage(&t, 4, 0), None);
        assert_eq!(stage(&t, 5, 4), Some(SlotStage::Committed));
        assert!(t.has_backlog(4, 0, 1), "slots 5..=8 are committed but unexecuted");
    }

    #[test]
    fn reply_cache_blob_is_insertion_order_independent() {
        let mut a = ReplyCache::default();
        a.record(5, 1, b"x".to_vec());
        a.record(3, 2, b"y".to_vec());
        let mut b = ReplyCache::default();
        b.record(3, 2, b"y".to_vec());
        b.record(5, 1, b"x".to_vec());
        assert_eq!(a.to_blob(), b.to_blob());
    }

    /// What the ring replaces: the log as a `BTreeMap` over sequence
    /// numbers, and the guard the replica applied before touching it
    /// (`in_watermarks`).
    #[derive(Default)]
    struct TreeModel {
        /// seq → (has a pre-prepare, holds a commit quorum, arrival).
        entries: BTreeMap<u64, (bool, bool, Option<u64>)>,
        /// seq → the slot's `CommitQuorum` is traced, for slots with a
        /// pre-prepare.
        traced: BTreeMap<u64, bool>,
        low: u64,
    }

    const WINDOW: u64 = 12;

    impl TreeModel {
        fn in_window(&self, seq: u64) -> bool {
            seq > self.low && seq - self.low <= WINDOW
        }

        fn gc_up_to(&mut self, h: u64) {
            self.low = self.low.max(h);
            self.entries = self.entries.split_off(&(h + 1));
            self.traced = self.traced.split_off(&(h + 1));
        }

        fn stage(&self, seq: u64) -> Option<SlotStage> {
            match self.entries.get(&seq)? {
                (false, _, _) => None,
                (true, true, _) => Some(SlotStage::Committed),
                (true, false, _) => Some(SlotStage::Proposed),
            }
        }

        fn has_backlog(&self, last_exec: u64) -> bool {
            self.entries.range(last_exec + 1..).any(|(_, e)| e.0 && e.1)
        }
    }

    #[derive(Debug, Clone)]
    enum RingOp {
        /// `entry_mut` alone: the entry exists afterwards.
        Touch(u64),
        PrePrepare(u64, u64),
        /// Prepares and commits from a quorum, logged whether or not a
        /// pre-prepare is.
        Quorum(u64),
        Execute(u64),
        QuorumTrace(u64),
        GcUpTo(u64),
        NewView,
    }

    fn ring_op() -> impl proptest::strategy::Strategy<Value = RingOp> {
        use proptest::prelude::*;
        // Offsets are taken from the current low watermark and reach past
        // both ends of the window.
        prop_oneof![
            3 => (0u64..WINDOW + 4).prop_map(RingOp::Touch),
            4 => (0u64..WINDOW + 4, any::<u64>()).prop_map(|(s, at)| RingOp::PrePrepare(s, at)),
            4 => (0u64..WINDOW + 4).prop_map(RingOp::Quorum),
            2 => (0u64..WINDOW + 4).prop_map(RingOp::Execute),
            4 => (0u64..WINDOW + 4).prop_map(RingOp::QuorumTrace),
            2 => (0u64..WINDOW + 4).prop_map(RingOp::GcUpTo),
            1 => Just(RingOp::NewView),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The ring answers every question the tree answered, after any
        /// history, and never holds a slot outside the window.
        #[test]
        fn ring_agrees_with_the_trees_it_replaces(
            ops in proptest::collection::vec(ring_op(), 1..150),
        ) {
            use proptest::prelude::*;
            let mut ring = Log::new(WINDOW);
            let mut model = TreeModel::default();
            for op in ops {
                match op {
                    RingOp::Touch(off) => {
                        let seq = model.low + off;
                        prop_assert_eq!(ring.entry_mut(seq).is_some(), model.in_window(seq));
                        if model.in_window(seq) {
                            model.entries.entry(seq).or_default();
                        }
                    }
                    RingOp::PrePrepare(off, at) => {
                        let seq = model.low + off;
                        if let Some(e) = ring.entry_mut(seq) {
                            e.pre_prepare = Some(pp(0, seq));
                            e.arrival = Some(at);
                        }
                        if model.in_window(seq) {
                            let e = model.entries.entry(seq).or_default();
                            (e.0, e.2) = (true, Some(at));
                            model.traced.entry(seq).or_insert(false);
                        }
                    }
                    RingOp::Quorum(off) => {
                        let seq = model.low + off;
                        if let Some(e) = ring.entry_mut(seq) {
                            let d = pp(0, seq).batch_digest();
                            for r in 0..3 {
                                e.add_prepare(prep(0, seq, d, r + 1));
                                e.add_commit(com(0, seq, d, r));
                            }
                        }
                        if model.in_window(seq) {
                            model.entries.entry(seq).or_default().1 = true;
                        }
                    }
                    RingOp::Execute(off) => {
                        let seq = model.low + off;
                        if let Some(e) = model.entries.get_mut(&seq) {
                            let arrived = std::mem::take(&mut e.2);
                            prop_assert_eq!(ring.entry_mut(seq).unwrap().arrival.take(), arrived);
                        }
                    }
                    RingOp::QuorumTrace(off) => {
                        let seq = model.low + off;
                        let expected = match model.traced.get_mut(&seq) {
                            Some(traced) if !*traced => {
                                *traced = true;
                                true
                            }
                            _ => false,
                        };
                        let got = ring.index(seq).is_some()
                            && ring.entry(seq).is_some()
                            && ring.entry_mut(seq).unwrap().first_quorum_trace();
                        prop_assert_eq!(got, expected);
                    }
                    RingOp::GcUpTo(off) => {
                        let h = model.low + off;
                        ring.gc_up_to(h);
                        model.gc_up_to(h);
                    }
                    RingOp::NewView => {
                        ring.restart_instances();
                        model.traced.values_mut().for_each(|t| *t = false);
                        for e in model.entries.values_mut() {
                            e.2 = None;
                        }
                    }
                }
                prop_assert_eq!(ring.low, model.low);
                prop_assert_eq!(ring.len(), model.entries.len());
                prop_assert_eq!(ring.is_empty(), model.entries.is_empty());
                prop_assert!(ring.slots.len() as u64 <= WINDOW);
                let seen: Vec<_> = ring
                    .iter()
                    .map(|(s, e)| (s, (e.pre_prepare.is_some(), e.commits().len() == 3, e.arrival)))
                    .collect();
                let expected: Vec<_> = model.entries.iter().map(|(s, e)| (*s, *e)).collect();
                prop_assert_eq!(seen, expected);
                for seq in model.low.saturating_sub(2)..model.low + WINDOW + 3 {
                    prop_assert_eq!(ring.entry(seq).is_some(), model.entries.contains_key(&seq));
                    let stage = ring.entry(seq).and_then(|e| e.stage(0, 1, false));
                    prop_assert_eq!(stage, model.stage(seq));
                    prop_assert_eq!(ring.has_backlog(seq, 0, 1), model.has_backlog(seq));
                }
            }
        }
    }
}
