//! Protocol messages and their XDR wire format.
//!
//! Every message type carries its authentication inline: a MAC
//! [`Authenticator`] on the normal-case messages (request, pre-prepare,
//! prepare, commit), a point [`Mac`] on a reply, a [`Signature`] on the
//! three that must convince a third party (checkpoint, view change, new
//! view). Tags, digests and signatures are computed over the message's
//! *signed portion* — all fields except the authentication itself —
//! prefixed with a per-type domain-separation tag so the bytes of one
//! message type can never validate as another. A tag covers those bytes
//! themselves ([`with_signed_bytes`](PrepareMsg::with_signed_bytes)),
//! except a request's, which covers the request's digest: the digest the
//! batch digest is built from, so a request is hashed once. A batch
//! enters an agreement header only through the batch digest, so no header
//! is hashed before its MAC.
//!
//! The wire layout of a message is its declaration: every type here is an
//! [`xdr_struct!`] (fields in declaration order) and [`Message`] an
//! [`xdr_union!`] (explicit tag, then the variant). What stays written out
//! is each `encode_signed`: a signed portion is a cryptographic commitment
//! with its own tag, field subset and order, not the wire layout.
//!
//! A receiver decodes the frame it was handed ([`Message::from_payload`]):
//! the variable-length fields of the normal case — a request's operation,
//! a pre-prepare's non-deterministic choices and a reply's result — are
//! [`SharedBytes`], ranges of that frame rather than copies of it
//! (DESIGN.md §11.7).

use base_crypto::{Authenticator, Digest, Mac, Signature};
use base_simnet::Payload;
use base_xdr::{
    from_frame, xdr_struct, xdr_union, SharedBytes, XdrDecode, XdrDecoder, XdrEncode, XdrEncoder,
    XdrError,
};
use std::cell::{Cell, OnceCell};

thread_local! {
    /// Idle encode buffers of this thread, one per nesting depth it has
    /// reached (see [`with_scratch`]).
    static SCRATCH: Cell<Vec<Vec<u8>>> = const { Cell::new(Vec::new()) };
}

/// Lends `f` an empty encoder over a reused buffer, so that encoding a
/// message to send it, hash it or check its signature allocates nothing
/// once the buffer has grown to the largest message seen.
///
/// Re-entrant by construction: the buffer is *taken* out of the idle list
/// for as long as it is lent and put back afterwards, so a signed portion
/// that computes a not-yet-memoized digest while it is being encoded (a
/// view change hashing its prepared batches, a batch hashing its requests)
/// gets the next idle buffer, or a fresh one, never the bytes of its
/// caller. The list is per thread, so each test thread grows its own.
/// The thread-local is visited once to pop and once to push.
fn with_scratch<R>(f: impl FnOnce(&mut XdrEncoder) -> R) -> R {
    /// Runs `g` on the idle list, which no one else holds meanwhile.
    fn idle_list<T>(g: impl FnOnce(&mut Vec<Vec<u8>>) -> T) -> T {
        SCRATCH.with(|cell| {
            let mut idle = cell.take();
            let out = g(&mut idle);
            cell.set(idle);
            out
        })
    }
    let mut enc = XdrEncoder::reusing(idle_list(|idle| idle.pop().unwrap_or_default()));
    let out = f(&mut enc);
    idle_list(|idle| idle.push(enc.finish()));
    out
}

/// Gives each signed message type the two views of its *signed portion*:
/// the bytes its private `encode_signed` writes, which is the one place
/// the field order of that portion is spelled out.
macro_rules! signed_portion {
    ($($ty:ident),+ $(,)?) => {$(
        impl $ty {
            /// Lends `f` the bytes covered by authentication, encoded into
            /// the per-thread scratch buffer (no allocation). A caller
            /// that needs both a digest and a signature check over them
            /// does both inside one `f`.
            pub fn with_signed_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
                with_scratch(|enc| {
                    self.encode_signed(enc);
                    f(enc.as_bytes())
                })
            }

            /// Bytes covered by authentication, as an owned copy.
            pub fn signed_bytes(&self) -> Vec<u8> {
                self.with_signed_bytes(<[u8]>::to_vec)
            }
        }
    )+};
}

signed_portion!(
    RequestMsg,
    ReplyMsg,
    PrePrepareMsg,
    PrepareMsg,
    CommitMsg,
    CheckpointMsg,
    ViewChangeMsg,
    NewViewMsg,
);

/// Lazily computed digest, carried alongside the fields it covers.
///
/// The covered fields are construction-only immutable (private, set once
/// by the constructor or the XDR decoder), so a computed digest stays
/// valid for the message's lifetime. The cache is pure memoization: it is
/// never encoded on the wire, compares equal regardless of fill state,
/// and cloning carries the computed value along with the (immutable)
/// fields it was derived from. On the wire it has zero width (encodes
/// nothing, decodes empty), so a message declares it like any other field.
/// A plain cell: the library runs on one thread, so a message is not
/// `Sync` and filling the cell takes no lock.
#[derive(Default, Clone)]
struct DigestCache(OnceCell<Digest>);

impl XdrEncode for DigestCache {
    fn encode(&self, _enc: &mut XdrEncoder) {}
}

impl XdrDecode for DigestCache {
    fn decode(_dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(Self::default())
    }
}

impl DigestCache {
    fn get_or_init(&self, compute: impl FnOnce() -> Digest) -> Digest {
        *self.0.get_or_init(compute)
    }

    /// Takes over `other`'s digest, if it has computed one. The caller
    /// vouches that both cover the same fields.
    fn carry(&self, other: &DigestCache) {
        if let Some(d) = other.0.get() {
            let _ = self.0.set(*d);
        }
    }
}

impl std::fmt::Debug for DigestCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DigestCache(..)")
    }
}

impl PartialEq for DigestCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for DigestCache {}

xdr_struct! {
    /// A client request.
    ///
    /// The digest-covered fields (`client`, `timestamp`, `read_only`, `op`)
    /// are private and set only at construction, which makes the memoized
    /// [`RequestMsg::digest`] sound: nothing can change under the cache.
    /// `full_replier` and `auth` stay public — neither is digest-covered.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct RequestMsg {
        /// Client node id.
        client: u32,
        /// Per-client monotone request number.
        timestamp: u64,
        /// True for the read-only optimization path.
        read_only: bool,
        /// Replica designated to send the *full* result; the others reply
        /// with a digest (the BFT library's reply optimization).
        pub full_replier: u32,
        /// Opaque operation bytes, interpreted by the service.
        op: SharedBytes,
        /// MAC vector over the request digest, one entry per replica.
        pub auth: Authenticator,
        /// Memoized digest of the signed portion.
        digest_cache: DigestCache,
    }
}

impl RequestMsg {
    /// Builds a request with an empty authenticator (fill `auth` after).
    pub fn new(client: u32, timestamp: u64, read_only: bool, full_replier: u32, op: Vec<u8>) -> Self {
        Self {
            client,
            timestamp,
            read_only,
            full_replier,
            op: op.into(),
            auth: Authenticator::default(),
            digest_cache: DigestCache::default(),
        }
    }

    /// Client node id.
    pub fn client(&self) -> u32 {
        self.client
    }

    /// Per-client monotone request number.
    pub fn timestamp(&self) -> u64 {
        self.timestamp
    }

    /// True for the read-only optimization path.
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// Opaque operation bytes, interpreted by the service.
    pub fn op(&self) -> &[u8] {
        &self.op
    }

    fn encode_signed(&self, enc: &mut XdrEncoder) {
        enc.put_string("pbft:request");
        enc.put_u32(self.client);
        enc.put_u64(self.timestamp);
        enc.put_bool(self.read_only);
        enc.put_opaque(&self.op);
        // `full_replier` is deliberately NOT covered: it is a liveness
        // hint the client may rotate between retransmissions without
        // changing the request's identity.
    }

    /// Digest identifying this request (computed once, then memoized).
    pub fn digest(&self) -> Digest {
        self.digest_cache.get_or_init(|| self.with_signed_bytes(Digest::of))
    }
}

xdr_struct! {
    /// A reply from one replica to a client.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ReplyMsg {
        /// View in which the request executed (tells the client the primary).
        pub view: u64,
        /// Echo of the request timestamp.
        pub timestamp: u64,
        /// Client node id.
        pub client: u32,
        /// Replying replica.
        pub replica: u32,
        /// True if `result` holds only the 32-byte digest of the result (the
        /// reply optimization: one designated replica sends the full result).
        pub digest_only: bool,
        /// True for a read-only reply executed against the last *executed*
        /// state outside agreement; false for a reply to an operation ordered
        /// and committed by the protocol. With the execution stage decoupled
        /// from agreement, committed-but-unexecuted slots may be queued — a
        /// tentative reply tells the client (and the auditors) exactly which
        /// state it reflects.
        pub tentative: bool,
        /// Execution result, or its digest when `digest_only`.
        pub result: SharedBytes,
        /// Point MAC to the client over the signed portion.
        pub mac: Mac,
    }
}

impl ReplyMsg {
    fn encode_signed(&self, enc: &mut XdrEncoder) {
        enc.put_string("pbft:reply");
        enc.put_u64(self.view);
        enc.put_u64(self.timestamp);
        enc.put_u32(self.client);
        enc.put_u32(self.replica);
        enc.put_bool(self.digest_only);
        enc.put_bool(self.tentative);
        enc.put_opaque(&self.result);
    }
}

xdr_struct! {
    /// The primary's ordering proposal for one batch of requests.
    ///
    /// The batch-digest-covered fields (`requests`, `nondet`) are private and
    /// set only at construction, which makes the memoized
    /// [`PrePrepareMsg::batch_digest`] sound. `view`/`seq` stay public: the
    /// authenticator covers them in the header it tags (encoded on demand),
    /// but the batch digest deliberately does not.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct PrePrepareMsg {
        /// View this proposal belongs to.
        pub view: u64,
        /// Sequence number assigned to the batch.
        pub seq: u64,
        /// The batched requests (piggybacked on the pre-prepare).
        requests: Vec<RequestMsg>,
        /// Non-deterministic values chosen by the primary for this batch
        /// (e.g. the agreed timestamp for NFS mtimes).
        nondet: SharedBytes,
        /// MAC vector from the primary over the header: view, sequence
        /// number and batch digest.
        pub auth: Authenticator,
        /// Memoized batch digest.
        batch_cache: DigestCache,
    }
}

impl PrePrepareMsg {
    /// Builds a proposal with an empty authenticator (fill `auth` after).
    pub fn new(view: u64, seq: u64, requests: Vec<RequestMsg>, nondet: Vec<u8>) -> Self {
        Self {
            view,
            seq,
            requests,
            nondet: nondet.into(),
            auth: Authenticator::default(),
            batch_cache: DigestCache::default(),
        }
    }

    /// The batched requests (piggybacked on the pre-prepare).
    pub fn requests(&self) -> &[RequestMsg] {
        &self.requests
    }

    /// Non-deterministic values chosen by the primary for this batch.
    pub fn nondet(&self) -> &[u8] {
        &self.nondet
    }

    /// Digest of the request batch + non-deterministic values.
    ///
    /// Deliberately excludes view and sequence number: after a view change
    /// the new primary re-proposes the same batch digest under a new view.
    pub fn batch_digest_of(requests: &[RequestMsg], nondet: &[u8]) -> Digest {
        with_scratch(|enc| {
            enc.put_string("pbft:batch");
            enc.put_opaque(nondet);
            enc.put_u32(requests.len() as u32);
            for r in requests {
                r.digest().encode(enc);
            }
            Digest::of(enc.as_bytes())
        })
    }

    /// Takes over the memoized batch and request digests of `built`, the
    /// pre-prepare whose encoding this one was decoded from: the fields
    /// they cover are equal, so a decoded copy need not hash them again.
    pub(crate) fn carry_digests(&self, built: &PrePrepareMsg) {
        debug_assert_eq!(self, built, "decoded from another pre-prepare");
        self.batch_cache.carry(&built.batch_cache);
        for (r, b) in self.requests.iter().zip(&built.requests) {
            r.digest_cache.carry(&b.digest_cache);
        }
    }

    /// Digest of the carried batch (computed once, then memoized).
    pub fn batch_digest(&self) -> Digest {
        self.batch_cache
            .get_or_init(|| Self::batch_digest_of(&self.requests, &self.nondet))
    }

    /// The primary's authentication covers view, seq and batch digest.
    fn encode_signed(&self, enc: &mut XdrEncoder) {
        put_header(enc, "pbft:pre-prepare", self.view, self.seq, &self.batch_digest());
    }
}

/// Appends the canonical (tag, view, seq, digest) header the three
/// agreement messages authenticate.
fn put_header(enc: &mut XdrEncoder, tag: &str, view: u64, seq: u64, digest: &Digest) {
    enc.put_string(tag);
    enc.put_u64(view);
    enc.put_u64(seq);
    digest.encode(enc);
}

xdr_struct! {
    /// A backup's agreement to the primary's proposal.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct PrepareMsg {
        /// View of the proposal.
        pub view: u64,
        /// Sequence number of the proposal.
        pub seq: u64,
        /// Batch digest being prepared.
        pub digest: Digest,
        /// Sending replica.
        pub replica: u32,
        /// MAC vector over the signed portion.
        pub auth: Authenticator,
    }
}

impl PrepareMsg {
    fn encode_signed(&self, enc: &mut XdrEncoder) {
        put_header(enc, "pbft:prepare", self.view, self.seq, &self.digest);
        enc.put_u32(self.replica);
    }
}

xdr_struct! {
    /// A replica's commitment to a prepared proposal.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct CommitMsg {
        /// View of the proposal.
        pub view: u64,
        /// Sequence number of the proposal.
        pub seq: u64,
        /// Batch digest being committed.
        pub digest: Digest,
        /// Sending replica.
        pub replica: u32,
        /// MAC vector over the signed portion.
        pub auth: Authenticator,
    }
}

impl CommitMsg {
    fn encode_signed(&self, enc: &mut XdrEncoder) {
        put_header(enc, "pbft:commit", self.view, self.seq, &self.digest);
        enc.put_u32(self.replica);
    }
}

xdr_struct! {
    /// A replica's announcement that it took a checkpoint.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct CheckpointMsg {
        /// Sequence number of the checkpoint.
        pub seq: u64,
        /// Root digest of the (abstract) state at `seq`.
        pub digest: Digest,
        /// Sending replica.
        pub replica: u32,
        /// Signature (checkpoint certificates must be transferable).
        pub sig: Signature,
    }
}

impl CheckpointMsg {
    fn encode_signed(&self, enc: &mut XdrEncoder) {
        enc.put_string("pbft:checkpoint");
        enc.put_u64(self.seq);
        self.digest.encode(enc);
        enc.put_u32(self.replica);
    }
}

xdr_struct! {
    /// A P entry of a VIEW-CHANGE (TOCS 2002 §4.4): the batch that
    /// prepared at the sender at `seq`, in the latest view in which any
    /// batch prepared there. It carries the batch, not only its digest, so
    /// the new primary can re-propose it without fetching it.
    ///
    /// The batch fields are private and set only at construction, which
    /// makes the memoized [`PEntry::digest`] sound.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct PEntry {
        /// Sequence number.
        pub seq: u64,
        /// View in which the batch prepared.
        pub view: u64,
        /// The prepared batch's requests.
        requests: Vec<RequestMsg>,
        /// The prepared batch's non-deterministic values.
        nondet: Vec<u8>,
        /// Memoized batch digest.
        batch_cache: DigestCache,
    }
}

impl PEntry {
    /// The batch `requests` + `nondet` prepared at `seq` in `view`.
    pub fn new(seq: u64, view: u64, requests: Vec<RequestMsg>, nondet: Vec<u8>) -> Self {
        Self { seq, view, requests, nondet, batch_cache: DigestCache::default() }
    }

    /// The prepared batch's requests.
    pub fn requests(&self) -> &[RequestMsg] {
        &self.requests
    }

    /// The prepared batch's non-deterministic values.
    pub fn nondet(&self) -> &[u8] {
        &self.nondet
    }

    /// The batch digest (computed once, then memoized).
    pub fn digest(&self) -> Digest {
        let (requests, nondet) = (&self.requests, &self.nondet);
        self.batch_cache.get_or_init(|| PrePrepareMsg::batch_digest_of(requests, nondet))
    }
}

xdr_struct! {
    /// A Q entry of a VIEW-CHANGE (TOCS 2002 §4.4): a batch digest that
    /// pre-prepared at the sender at `seq`, with the latest view in which
    /// it did. One entry per (sequence number, digest).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct QEntry {
        /// Sequence number.
        pub seq: u64,
        /// Latest view in which the batch pre-prepared.
        pub view: u64,
        /// The batch digest.
        pub digest: Digest,
    }
}

xdr_struct! {
    /// A replica's vote to move to a new view.
    ///
    /// A *firm* vote says the sender has stopped taking part in every view
    /// before `new_view`, so its stable checkpoint and P and Q sets are its
    /// last word on them; a NEW-VIEW is built from firm votes only. A vote
    /// that is not firm is a *suspicion* of the current primary: it carries
    /// no state, and the sender keeps working in its view. Both kinds count
    /// toward the f+1 votes that make a replica join a view change and the
    /// 2f+1 that make it leave its view (BFT-SMaRt's STOP and STOPDATA, the
    /// split the febft README in SNIPPETS.md descends from).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ViewChangeMsg {
        /// The view being proposed.
        pub new_view: u64,
        /// A firm vote, not a suspicion.
        pub firm: bool,
        /// The sender's last stable checkpoint.
        pub stable_seq: u64,
        /// Digest of the stable checkpoint.
        pub stable_digest: Digest,
        /// 2f+1 signed checkpoint messages proving the stable checkpoint.
        /// Empty when `stable_seq` is 0 (the genesis state needs no proof).
        pub stable_proof: Vec<CheckpointMsg>,
        /// The P set: for each sequence number above `stable_seq` where a
        /// batch prepared at the sender, that batch, in increasing order.
        pub p: Vec<PEntry>,
        /// The Q set: for each sequence number above `stable_seq`, every
        /// batch digest that pre-prepared at the sender, ordered by number
        /// and then digest.
        pub q: Vec<QEntry>,
        /// Sending replica.
        pub replica: u32,
        /// Signature.
        pub sig: Signature,
    }
}

impl ViewChangeMsg {
    fn encode_signed(&self, enc: &mut XdrEncoder) {
        enc.put_string("pbft:view-change");
        enc.put_u64(self.new_view);
        enc.put_bool(self.firm);
        enc.put_u64(self.stable_seq);
        self.stable_digest.encode(enc);
        // Bind both sets by content: (seq, view, batch digest) triples.
        enc.put_u32(self.p.len() as u32);
        for p in &self.p {
            enc.put_u64(p.seq);
            enc.put_u64(p.view);
            p.digest().encode(enc);
        }
        self.q.encode(enc);
        enc.put_u32(self.replica);
    }

    /// Digest identifying this view-change message.
    pub fn digest(&self) -> Digest {
        self.with_signed_bytes(Digest::of)
    }
}

xdr_struct! {
    /// The new primary's announcement of a view, carrying the view-change
    /// messages (2f+1 or more) from which every replica deterministically
    /// recomputes the re-proposed pre-prepares.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct NewViewMsg {
        /// The view being started.
        pub view: u64,
        /// At least 2f+1 valid view-change messages from distinct senders.
        pub view_changes: Vec<ViewChangeMsg>,
        /// The re-proposed pre-prepares (the set `O`). Every replica recomputes
        /// `O` from `view_changes` and verifies this list matches; each
        /// carries the new primary's authenticator, so a replica can relay
        /// it like any other pre-prepare.
        pub pre_prepares: Vec<PrePrepareMsg>,
        /// Sending replica (the new primary).
        pub replica: u32,
        /// Signature.
        pub sig: Signature,
    }
}

impl NewViewMsg {
    fn encode_signed(&self, enc: &mut XdrEncoder) {
        enc.put_string("pbft:new-view");
        enc.put_u64(self.view);
        enc.put_u32(self.view_changes.len() as u32);
        for vc in &self.view_changes {
            vc.digest().encode(enc);
        }
        enc.put_u32(self.pre_prepares.len() as u32);
        for pp in &self.pre_prepares {
            enc.put_u64(pp.seq);
            pp.batch_digest().encode(enc);
        }
        enc.put_u32(self.replica);
    }
}

xdr_struct! {
    /// State-transfer request for the children digests of one partition-tree
    /// node of a checkpoint.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct FetchMetaMsg {
        /// Checkpoint sequence number.
        pub seq: u64,
        /// Tree level (root = tree depth, leaves = 0).
        pub level: u32,
        /// Node index within the level.
        pub index: u64,
        /// Requesting replica.
        pub replica: u32,
    }
}

xdr_struct! {
    /// Reply to [`FetchMetaMsg`]: digests of the node's children. Verified by
    /// hashing, so it needs no authentication.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct MetaReplyMsg {
        /// Checkpoint sequence number.
        pub seq: u64,
        /// Tree level of the parent node.
        pub level: u32,
        /// Parent node index.
        pub index: u64,
        /// Child digests, in child order.
        pub digests: Vec<Digest>,
        /// Replying replica.
        pub replica: u32,
    }
}

xdr_struct! {
    /// State-transfer request for the value of one abstract object.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct FetchObjectMsg {
        /// Checkpoint sequence number.
        pub seq: u64,
        /// Object (leaf) index.
        pub index: u64,
        /// Requesting replica.
        pub replica: u32,
    }
}

xdr_struct! {
    /// Reply to [`FetchObjectMsg`]: the object value, verified by hashing.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ObjectReplyMsg {
        /// Checkpoint sequence number.
        pub seq: u64,
        /// Object (leaf) index.
        pub index: u64,
        /// Object value.
        pub data: Vec<u8>,
        /// Replying replica.
        pub replica: u32,
    }
}

xdr_struct! {
    /// Periodic status report (PBFT's status messages, simplified): lets peers
    /// detect that this replica is missing messages and retransmit them.
    /// Unauthenticated by design — a forged status can only trigger bounded
    /// retransmission of messages that are themselves authenticated.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StatusMsg {
        /// Sender's current view.
        pub view: u64,
        /// Sender's last executed sequence number.
        pub last_exec: u64,
        /// Sender's last stable checkpoint.
        pub stable_seq: u64,
        /// Sending replica.
        pub replica: u32,
    }
}

xdr_struct! {
    /// Request for the latest stable checkpoint certificate (sent by lagging
    /// or recovering replicas).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct FetchCertMsg {
        /// Requesting replica.
        pub replica: u32,
    }
}

xdr_struct! {
    /// Reply to [`FetchCertMsg`]: 2f+1 signed checkpoint messages for the
    /// sender's latest stable checkpoint.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct CertReplyMsg {
        /// The checkpoint certificate.
        pub msgs: Vec<CheckpointMsg>,
        /// Replying replica.
        pub replica: u32,
    }
}

xdr_union! {
    /// Top-level message envelope.
    ///
    /// Tags 15–18 are retired (they carried chunked state transfer, DESIGN.md
    /// §16) and stay unassigned, as 19 does, until a benchmark release drops
    /// the `15..=18` transfer arm of `benchmark/src/trace.rs`: a frame that
    /// leads with one is refused.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Message {
        /// Client request.
        0 => Request(m: RequestMsg),
        /// Replica reply to a client.
        1 => Reply(m: ReplyMsg),
        /// Primary ordering proposal.
        2 => PrePrepare(m: PrePrepareMsg),
        /// Backup agreement.
        3 => Prepare(m: PrepareMsg),
        /// Commit vote.
        4 => Commit(m: CommitMsg),
        /// Checkpoint announcement.
        5 => Checkpoint(m: CheckpointMsg),
        /// View-change vote.
        6 => ViewChange(m: ViewChangeMsg),
        /// New-view announcement.
        7 => NewView(m: NewViewMsg),
        /// State transfer: fetch partition metadata.
        8 => FetchMeta(m: FetchMetaMsg),
        /// State transfer: partition metadata reply.
        9 => MetaReply(m: MetaReplyMsg),
        /// State transfer: fetch object value.
        10 => FetchObject(m: FetchObjectMsg),
        /// State transfer: object value reply.
        11 => ObjectReply(m: ObjectReplyMsg),
        /// Fetch latest stable checkpoint certificate.
        12 => FetchCert(m: FetchCertMsg),
        /// Checkpoint certificate reply.
        13 => CertReply(m: CertReplyMsg),
        /// Periodic status report.
        14 => Status(m: StatusMsg),
    }
}

/// No message carries this tag: every group sends the one encoding, and
/// groups are told apart by sender. Tag 19 stays unassigned until a
/// benchmark release drops the arm of `benchmark/src/trace.rs` naming it.
pub const SHARD_ENVELOPE_TAG: u32 = 19;

impl Message {
    /// Lends `f` the wire encoding of this message, built in the
    /// per-thread scratch buffer.
    fn with_wire<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        with_scratch(|enc| {
            self.encode(enc);
            f(enc.as_bytes())
        })
    }

    /// Encodes to the [`Payload`] the message travels in: one allocation,
    /// the `Arc<[u8]>` itself, shared by every recipient it is sent to.
    /// This is what the senders use; [`Message::to_wire`] is the same
    /// bytes by value.
    pub fn to_payload(&self) -> Payload {
        self.with_wire(|wire| Payload::from(wire))
    }

    /// Encodes to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        self.with_wire(<[u8]>::to_vec)
    }

    /// Decodes the frame a receiver was handed; `None` on any malformed
    /// input (Byzantine senders can produce arbitrary bytes). The
    /// [`SharedBytes`] fields are ranges of `payload`, so the message
    /// keeps the frame alive for as long as it or one of those fields
    /// lives (DESIGN.md §11.7).
    pub fn from_payload(payload: &Payload) -> Option<Message> {
        from_frame(payload.frame()).ok()
    }

    /// Decodes from wire bytes: copies them into one frame and decodes
    /// that, so there is one decode path and never a copy per field.
    pub fn from_wire(bytes: &[u8]) -> Option<Message> {
        Self::from_payload(&Payload::from(bytes))
    }

    /// Short name for tracing.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Request(_) => "request",
            Message::Reply(_) => "reply",
            Message::PrePrepare(_) => "pre-prepare",
            Message::Prepare(_) => "prepare",
            Message::Commit(_) => "commit",
            Message::Checkpoint(_) => "checkpoint",
            Message::ViewChange(_) => "view-change",
            Message::NewView(_) => "new-view",
            Message::FetchMeta(_) => "fetch-meta",
            Message::MetaReply(_) => "meta-reply",
            Message::FetchObject(_) => "fetch-object",
            Message::ObjectReply(_) => "object-reply",
            Message::FetchCert(_) => "fetch-cert",
            Message::CertReply(_) => "cert-reply",
            Message::Status(_) => "status",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use base_crypto::{KeyDirectory, NodeKeys};

    /// Replica 0's keys in a directory of four replicas and client 4.
    fn keys() -> NodeKeys {
        NodeKeys::new(KeyDirectory::generate(5, 1), 0)
    }

    /// A request from client 4, authenticated with its keys.
    fn sample_request(k: &NodeKeys) -> RequestMsg {
        let client = NodeKeys::new(KeyDirectory::generate(k.node_count(), 1), 4);
        let mut r = RequestMsg::new(4, 9, false, 0, b"op-bytes".to_vec());
        r.auth = Authenticator::generate(&client, 4, &r.digest());
        r
    }

    /// Decodes `bytes` as a receiver does, out of the frame they came in.
    fn decode(bytes: &[u8]) -> Option<Message> {
        Message::from_payload(&Payload::from(bytes))
    }

    /// A golden wire vector: fails naming the kind whose bytes moved, with
    /// the row to paste if the move was intended.
    fn assert_golden(kind: &str, wire: &[u8], len: usize, sha: &str) {
        let actual = (wire.len(), Digest::of(wire).to_string());
        assert_eq!(actual, (len, sha.to_owned()), "the wire bytes of `{kind}` moved");
    }

    #[test]
    fn request_round_trip() {
        let r = sample_request(&keys());
        let m = Message::Request(r.clone());
        let decoded = decode(&m.to_wire()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn digest_ignores_auth() {
        let k = keys();
        let mut r = sample_request(&k);
        let d1 = r.digest();
        r.auth.corrupt();
        assert_eq!(r.digest(), d1);
    }

    #[test]
    fn batch_digest_excludes_view_and_seq() {
        let k = keys();
        let r = sample_request(&k);
        let make = |view, seq| PrePrepareMsg::new(view, seq, vec![r.clone()], b"nd".to_vec());
        assert_eq!(make(0, 5).batch_digest(), make(3, 9).batch_digest());
    }

    #[test]
    fn batch_digest_depends_on_requests_and_nondet() {
        let k = keys();
        let r = sample_request(&k);
        let d1 = PrePrepareMsg::batch_digest_of(std::slice::from_ref(&r), b"a");
        let d2 = PrePrepareMsg::batch_digest_of(std::slice::from_ref(&r), b"b");
        let d3 = PrePrepareMsg::batch_digest_of(&[], b"a");
        assert_ne!(d1, d2);
        assert_ne!(d1, d3);
    }

    /// A prepare's tag is over its header, so it binds every field of it:
    /// the same authenticator on a prepare that differs in view, sequence
    /// number, batch digest or sender id is rejected. The check keeps the
    /// signer's key (replica 1) throughout, so only the header differs.
    #[test]
    fn a_prepare_tag_rejects_any_other_header() {
        let dir = KeyDirectory::generate(5, 1);
        let (sender, receiver) = (NodeKeys::new(dir.clone(), 1), NodeKeys::new(dir, 2));
        let (digest, auth) = (Digest::of(b"batch"), Authenticator::default());
        let mut p = PrepareMsg { view: 3, seq: 7, digest, replica: 1, auth };
        p.auth = p.with_signed_bytes(|header| Authenticator::generate(&sender, 4, header));
        let accepted = |m: &PrepareMsg| m.with_signed_bytes(|h| m.auth.check(&receiver, 1, h));
        assert!(accepted(&p));
        for other in [
            PrepareMsg { view: 4, ..p.clone() },
            PrepareMsg { seq: 8, ..p.clone() },
            PrepareMsg { digest: Digest::of(b"other"), ..p.clone() },
            PrepareMsg { replica: 3, ..p.clone() },
        ] {
            assert!(!accepted(&other), "{other:?}");
        }
    }

    #[test]
    fn all_message_kinds_round_trip() {
        let k = keys();
        let r = sample_request(&k);
        let pp = {
            let mut pp = PrePrepareMsg::new(1, 2, vec![r.clone()], vec![1, 2]);
            pp.auth = Authenticator::generate(&k, 4, &Digest::of(b"x"));
            pp
        };
        let prepare = PrepareMsg {
            view: 1,
            seq: 2,
            digest: pp.batch_digest(),
            replica: 1,
            auth: Authenticator::generate(&k, 4, &Digest::of(b"y")),
        };
        let commit = CommitMsg {
            view: 1,
            seq: 2,
            digest: pp.batch_digest(),
            replica: 1,
            auth: Authenticator::generate(&k, 4, &Digest::of(b"z")),
        };
        let ckpt = CheckpointMsg { seq: 128, digest: Digest::of(b"s"), replica: 2, sig: k.sign(b"c") };
        let vc = ViewChangeMsg {
            new_view: 2,
            firm: true,
            stable_seq: 128,
            stable_digest: Digest::of(b"s"),
            stable_proof: vec![ckpt.clone()],
            p: vec![PEntry::new(2, 1, pp.requests().to_vec(), pp.nondet().to_vec())],
            q: vec![
                QEntry { seq: 2, view: 0, digest: Digest::of(b"q") },
                QEntry { seq: 2, view: 1, digest: pp.batch_digest() },
            ],
            replica: 0,
            sig: k.sign(b"vc"),
        };
        let nv = NewViewMsg {
            view: 2,
            view_changes: vec![vc.clone()],
            pre_prepares: vec![pp.clone()],
            replica: 2,
            sig: k.sign(b"nv"),
        };

        // Each kind with the length and SHA-256 of its wire bytes: the one
        // check on the bytes of the rarely-sent kinds, which no trace gate
        // reaches.
        let msgs = vec![
            (
                Message::Request(r),
                72,
                "19d991d3ae6addbb9acc67652aa5ff6ce2c7b87ead3f36f03deae31e7863b30f",
            ),
            (
                Message::Reply(ReplyMsg {
                    view: 1,
                    timestamp: 9,
                    client: 4,
                    replica: 0,
                    digest_only: false,
                    tentative: true,
                    result: b"res".to_vec().into(),
                    mac: Authenticator::point(&k, 4, &Digest::of(b"r")),
                }),
                52,
                "925229c7f999e7658a2d82e9c044657fe72d37e7a676c7b682ab7d07e1298eff",
            ),
            (
                Message::PrePrepare(pp),
                128,
                "685184ddfce0e6bc64b30f87088da915b03f3d67eec3f54ee15db51ac96fbd28",
            ),
            (
                Message::Prepare(prepare),
                84,
                "e6ef01198b36f91c960859b4c8ad5b1a079a85cc76dafea7910ffce3c38b3bec",
            ),
            (
                Message::Commit(commit),
                84,
                "dae8ef6518aceec3e99a61becd2b72a3740ff1e19c3e7a9253803e5b71d8d068",
            ),
            (
                Message::Checkpoint(ckpt.clone()),
                80,
                "bc261f1b355d42c9fcabda4f7033b7d7642954972abe679477b7fe5e91db3f61",
            ),
            (
                Message::ViewChange(vc),
                372,
                "c6a809bacb082bd39887d08ce16b6eb06459c27d2081265c36406d52e3fc6cb3",
            ),
            (
                Message::NewView(nv),
                548,
                "9c11a927ca9085a905f792b0774d6ae6426e1f569543631b10d83f0d785e7cf3",
            ),
            (
                Message::FetchMeta(FetchMetaMsg { seq: 128, level: 2, index: 3, replica: 1 }),
                28,
                "d284f9c34108ba775dbaeb203002b8404e47986d18f2f9d08a0d275aa4d89247",
            ),
            (
                Message::MetaReply(MetaReplyMsg {
                    seq: 128,
                    level: 2,
                    index: 3,
                    digests: vec![Digest::of(b"a"), Digest::of(b"b")],
                    replica: 1,
                }),
                96,
                "d92788279528a5bf52670a1f06c5e2e1ca1a6ca863e6d6e3e7dd9529e4ca8f81",
            ),
            (
                Message::FetchObject(FetchObjectMsg { seq: 128, index: 7, replica: 1 }),
                24,
                "6b90ce604ba76f3c9dc3ad861dcf73006eda91a043d0b45c8cc0bdbe744b598f",
            ),
            (
                Message::ObjectReply(ObjectReplyMsg { seq: 128, index: 7, data: vec![9; 100], replica: 1 }),
                128,
                "7fd157e0e2cfa79073e909022a4abd7342197d327adc3e793f9a03a2b449decd",
            ),
            (
                Message::FetchCert(FetchCertMsg { replica: 3 }),
                8,
                "ff818b86ef0823bec7f8bda0b8be513ab3c464988825df54a5842c9ba77bbef9",
            ),
            (
                Message::CertReply(CertReplyMsg { msgs: vec![ckpt], replica: 3 }),
                88,
                "3df6b5eeae7111cecaae40d9d2ae80e8be6acd5f084de5f3e56ecd118ff1bc07",
            ),
            (
                Message::Status(StatusMsg { view: 2, last_exec: 130, stable_seq: 128, replica: 3 }),
                32,
                "45ffa5ade14cb9b191960448f3a2bfd7d5682f3ee6f47c78bc8100b102e0b0d7",
            ),
        ];
        for (m, len, sha) in msgs {
            let wire = m.to_wire();
            let decoded = decode(&wire).unwrap_or_else(|| panic!("{}", m.kind()));
            assert_eq!(decoded, m, "{}", m.kind());
            assert_golden(m.kind(), &wire, len, sha);
        }
    }

    #[test]
    fn malformed_wire_bytes_are_rejected() {
        assert!(decode(&[]).is_none());
        // Tags 15–18 are retired and 19 is unassigned: a frame that leads
        // with one is refused, also with a body another kind would accept.
        let body = Message::FetchObject(FetchObjectMsg { seq: 1, index: 7, replica: 1 }).to_wire();
        for tag in [15u32, 16, 17, 18, 19, 99] {
            assert!(decode(&tag.to_be_bytes()).is_none(), "tag {tag}");
            let frame = [&tag.to_be_bytes()[..], &body[4..]].concat();
            assert!(decode(&frame).is_none(), "tag {tag} with a body");
        }
        let mut good = Message::FetchCert(FetchCertMsg { replica: 1 }).to_wire();
        good.push(0);
        assert!(decode(&good).is_none(), "trailing bytes must be rejected");
    }

    #[test]
    fn view_change_digest_binds_pset() {
        let k = keys();
        let r = sample_request(&k);
        let mut vc = ViewChangeMsg {
            new_view: 1,
            firm: false,
            stable_seq: 0,
            stable_digest: Digest::ZERO,
            stable_proof: vec![],
            p: vec![],
            q: vec![],
            replica: 0,
            sig: Signature([0; 32]),
        };
        let suspicion = vc.digest();
        vc.firm = true;
        let d_empty = vc.digest();
        assert_ne!(d_empty, suspicion, "a suspicion cannot pass for a firm vote");
        vc.p.push(PEntry::new(2, 0, vec![r], vec![]));
        let d_p = vc.digest();
        assert_ne!(d_p, d_empty);
        // The Q set is bound too, and so is the view of an entry.
        vc.q.push(QEntry { seq: 2, view: 0, digest: vc.p[0].digest() });
        let d_q = vc.digest();
        assert_ne!(d_q, d_p);
        vc.q[0].view = 1;
        assert_ne!(vc.digest(), d_q);
    }
}
