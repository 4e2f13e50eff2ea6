//! Protocol messages and their XDR wire format.
//!
//! Every message type carries its authentication inline (a MAC
//! [`Authenticator`], a point [`Mac`], and/or a [`Signature`]). Digests and
//! signatures are computed over the message's *signed portion* — all fields
//! except the authentication itself — prefixed with a per-type domain-
//! separation tag so a digest of one message type can never validate as
//! another.
//!
//! The wire layout of a message is its declaration: every type here is an
//! [`xdr_struct!`] (fields in declaration order) and [`Message`] an
//! [`xdr_union!`] (explicit tag, then the variant). What stays written out
//! is each `encode_signed`: a signed portion is a cryptographic commitment
//! with its own tag, field subset and order, not the wire layout.

use base_crypto::{Authenticator, Digest, Mac, Signature};
use base_simnet::Payload;
use base_xdr::{
    from_bytes, xdr_struct, xdr_union, XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError,
};
use std::cell::Cell;
use std::sync::OnceLock;

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
/// caller. The list is per thread; a campaign worker thread grows its own.
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
#[derive(Default)]
struct DigestCache(OnceLock<Digest>);

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
}

impl Clone for DigestCache {
    fn clone(&self) -> Self {
        let c = DigestCache::default();
        if let Some(d) = self.0.get() {
            let _ = c.0.set(*d);
        }
        c
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

/// The digest of a *null request batch* (no requests, no non-deterministic
/// values), used by view changes to fill sequence-number gaps.
pub fn null_batch_digest() -> Digest {
    PrePrepareMsg::batch_digest_of(&[], &[])
}

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
        op: Vec<u8>,
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
            op,
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
        pub result: Vec<u8>,
        /// Point MAC to the client.
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

    /// Digest of the signed portion (what the point MAC covers).
    pub fn digest(&self) -> Digest {
        self.with_signed_bytes(Digest::of)
    }
}

xdr_struct! {
    /// The primary's ordering proposal for one batch of requests.
    ///
    /// The batch-digest-covered fields (`requests`, `nondet`) are private and
    /// set only at construction, which makes the memoized
    /// [`PrePrepareMsg::batch_digest`] sound. `view`/`seq` stay public: they
    /// are covered by [`PrePrepareMsg::signed_bytes`] (recomputed on demand)
    /// but deliberately not by the batch digest.
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
        nondet: Vec<u8>,
        /// MAC vector from the primary.
        pub auth: Authenticator,
        /// Primary signature over the header, kept for view-change proofs.
        pub sig: Signature,
        /// Memoized batch digest.
        batch_cache: DigestCache,
    }
}

impl PrePrepareMsg {
    /// Builds a proposal with empty authentication (fill `auth`/`sig`
    /// after).
    pub fn new(view: u64, seq: u64, requests: Vec<RequestMsg>, nondet: Vec<u8>) -> Self {
        Self {
            view,
            seq,
            requests,
            nondet,
            auth: Authenticator::default(),
            sig: Signature::default(),
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
/// agreement messages sign.
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
        /// MAC vector.
        pub auth: Authenticator,
        /// Signature, kept for view-change proofs.
        pub sig: Signature,
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
        /// MAC vector.
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
    /// Proof that a request prepared at the sender: the pre-prepare plus `2f`
    /// signed prepares from distinct backups.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct PreparedProof {
        /// The pre-prepare (carries the request bodies, so a new primary can
        /// re-propose them).
        pub pre_prepare: PrePrepareMsg,
        /// Matching prepares.
        pub prepares: Vec<PrepareMsg>,
    }
}

xdr_struct! {
    /// A replica's vote to move to a new view.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ViewChangeMsg {
        /// The view being proposed.
        pub new_view: u64,
        /// The sender's last stable checkpoint.
        pub stable_seq: u64,
        /// Digest of the stable checkpoint.
        pub stable_digest: Digest,
        /// 2f+1 signed checkpoint messages proving the stable checkpoint.
        /// Empty when `stable_seq` is 0 (the genesis state needs no proof).
        pub stable_proof: Vec<CheckpointMsg>,
        /// Prepared certificates for requests above `stable_seq`.
        pub prepared: Vec<PreparedProof>,
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
        enc.put_u64(self.stable_seq);
        self.stable_digest.encode(enc);
        // Bind the P-set by content: (seq, view, batch digest) triples.
        enc.put_u32(self.prepared.len() as u32);
        for p in &self.prepared {
            enc.put_u64(p.pre_prepare.seq);
            enc.put_u64(p.pre_prepare.view);
            p.pre_prepare.batch_digest().encode(enc);
        }
        enc.put_u32(self.replica);
    }

    /// Digest identifying this view-change message.
    pub fn digest(&self) -> Digest {
        self.with_signed_bytes(Digest::of)
    }
}

xdr_struct! {
    /// The new primary's announcement of a view, carrying the 2f+1 view-change
    /// messages from which every replica deterministically recomputes the
    /// re-proposed pre-prepares.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct NewViewMsg {
        /// The view being started.
        pub view: u64,
        /// 2f+1 valid view-change messages.
        pub view_changes: Vec<ViewChangeMsg>,
        /// The re-proposed pre-prepares (the set `O`). Every replica recomputes
        /// `O` from `view_changes` and verifies this list matches; carrying the
        /// signed pre-prepares lets them serve in later prepared-certificate
        /// proofs.
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
    /// Chunked state transfer: request for the chunk-digest list of one object
    /// in a checkpoint. The reply verifies against the object's (chunked) leaf
    /// digest, after which the chunks that differ locally are fetched and
    /// verified one by one.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct FetchChunksMsg {
        /// Checkpoint sequence number.
        pub seq: u64,
        /// Object (leaf) index.
        pub index: u64,
        /// Requesting replica.
        pub replica: u32,
    }
}

xdr_struct! {
    /// Reply to [`FetchChunksMsg`]: the object's length and per-chunk digests.
    /// Verified by folding into the chunked leaf digest, so it needs no
    /// authentication; `len` is thereby as trustworthy as the digests.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ChunksReplyMsg {
        /// Checkpoint sequence number.
        pub seq: u64,
        /// Object (leaf) index.
        pub index: u64,
        /// Object length in bytes.
        pub len: u64,
        /// Per-chunk digests, in chunk order.
        pub digests: Vec<Digest>,
        /// Replying replica.
        pub replica: u32,
    }
}

xdr_struct! {
    /// Chunked state transfer: request for the bytes of one chunk of an
    /// object in a checkpoint, sent after the object's chunk-digest list
    /// has been verified.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct FetchChunkDataMsg {
        /// Checkpoint sequence number.
        pub seq: u64,
        /// Object (leaf) index.
        pub index: u64,
        /// Chunk number within the object.
        pub chunk: u32,
        /// Requesting replica.
        pub replica: u32,
    }
}

xdr_struct! {
    /// Reply to [`FetchChunkDataMsg`]: the chunk's bytes. Verified by
    /// hashing against the chunk's digest from the verified chunk list, so
    /// it needs no authentication.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ChunkDataMsg {
        /// Checkpoint sequence number.
        pub seq: u64,
        /// Object (leaf) index.
        pub index: u64,
        /// Chunk number within the object.
        pub chunk: u32,
        /// Chunk bytes.
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
        /// Chunked state transfer: fetch an object's chunk-digest list.
        15 => FetchChunks(m: FetchChunksMsg),
        /// Chunked state transfer: chunk-digest list reply.
        16 => ChunksReply(m: ChunksReplyMsg),
        /// Chunked state transfer: fetch the bytes of one chunk.
        17 => FetchChunkData(m: FetchChunkDataMsg),
        /// Chunked state transfer: chunk bytes reply.
        18 => ChunkData(m: ChunkDataMsg),
    }
}

/// Envelope discriminant for shard-tagged messages. Chosen just past the
/// last [`Message`] variant tag, so a plain (shard-0) message can never be
/// mistaken for an envelope and vice versa.
pub const SHARD_ENVELOPE_TAG: u32 = 19;

impl Message {
    /// Lends `f` the wire encoding of this message as sent from `shard`,
    /// built in the per-thread scratch buffer. The one place the shard
    /// envelope is written: shard 0 emits the plain unsharded encoding, so
    /// single-group deployments never pay for (or reveal) the envelope;
    /// other shards prefix `[SHARD_ENVELOPE_TAG, shard]`.
    fn with_wire<R>(&self, shard: u32, f: impl FnOnce(&[u8]) -> R) -> R {
        with_scratch(|enc| {
            if shard != 0 {
                enc.put_u32(SHARD_ENVELOPE_TAG);
                enc.put_u32(shard);
            }
            self.encode(enc);
            f(enc.as_bytes())
        })
    }

    /// Encodes to the [`Payload`] the message travels in: one allocation,
    /// the `Arc<[u8]>` itself, shared by every recipient it is sent to.
    /// This is what the senders use; [`Message::to_wire_tagged`] is the
    /// same bytes by value.
    pub fn to_payload(&self, shard: u32) -> Payload {
        self.with_wire(shard, |wire| Payload::from(wire))
    }

    /// Encodes to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        self.to_wire_tagged(0)
    }

    /// Decodes from wire bytes; `None` on any malformed input (Byzantine
    /// senders can produce arbitrary bytes).
    pub fn from_wire(bytes: &[u8]) -> Option<Message> {
        from_bytes(bytes).ok()
    }

    /// Encodes to wire bytes carrying the sender's shard identity; at
    /// shard 0 byte-identical to [`Message::to_wire`].
    pub fn to_wire_tagged(&self, shard: u32) -> Vec<u8> {
        self.with_wire(shard, <[u8]>::to_vec)
    }

    /// Decodes wire bytes that may carry a shard envelope, returning the
    /// sender's shard alongside the message. Plain (unprefixed) messages
    /// decode as shard 0; the envelope's `shard` field is forbidden from
    /// claiming 0 (shard 0 always sends plain bytes), so every encoding
    /// has exactly one parse.
    pub fn from_wire_tagged(bytes: &[u8]) -> Option<(u32, Message)> {
        let mut dec = XdrDecoder::new(bytes);
        if dec.get_u32().ok()? == SHARD_ENVELOPE_TAG {
            let shard = dec.get_u32().ok()?;
            if shard == 0 {
                return None;
            }
            let msg = Message::decode(&mut dec).ok()?;
            dec.finish().ok()?;
            return Some((shard, msg));
        }
        Some((0, Message::from_wire(bytes)?))
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
            Message::FetchChunks(_) => "fetch-chunks",
            Message::ChunksReply(_) => "chunks-reply",
            Message::FetchChunkData(_) => "fetch-chunk-data",
            Message::ChunkData(_) => "chunk-data",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use base_crypto::{KeyDirectory, NodeKeys};

    fn keys() -> NodeKeys {
        NodeKeys::new(KeyDirectory::generate(5, 1), 0)
    }

    fn sample_request(k: &NodeKeys) -> RequestMsg {
        let mut r = RequestMsg::new(4, 9, false, 0, b"op-bytes".to_vec());
        r.auth = Authenticator::generate(k, 4, &r.digest());
        r
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
        let decoded = Message::from_wire(&m.to_wire()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn shard_zero_tagged_encoding_is_plain() {
        let m = Message::Request(sample_request(&keys()));
        assert_eq!(m.to_wire_tagged(0), m.to_wire());
        assert_eq!(Message::from_wire_tagged(&m.to_wire()), Some((0, m.clone())));
    }

    #[test]
    fn shard_envelope_round_trips_and_is_unambiguous() {
        let m = Message::Request(sample_request(&keys()));
        let tagged = m.to_wire_tagged(3);
        assert_ne!(tagged, m.to_wire());
        assert_eq!(Message::from_wire_tagged(&tagged), Some((3, m.clone())));
        // A tagged frame is not a valid plain message, and an envelope
        // claiming shard 0 (which always sends plain bytes) is rejected,
        // so every byte string has at most one parse.
        assert_eq!(Message::from_wire(&tagged), None);
        let mut forged = XdrEncoder::new();
        forged.put_u32(SHARD_ENVELOPE_TAG);
        forged.put_u32(0);
        m.encode(&mut forged);
        assert_eq!(Message::from_wire_tagged(&forged.finish()), None);
        // Trailing bytes after the enveloped message are rejected just
        // like the plain decoder rejects them.
        let mut trailing = m.to_wire_tagged(3);
        trailing.push(0);
        assert_eq!(Message::from_wire_tagged(&trailing), None);
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

    #[test]
    fn all_message_kinds_round_trip() {
        let k = keys();
        let r = sample_request(&k);
        let pp = {
            let mut pp = PrePrepareMsg::new(1, 2, vec![r.clone()], vec![1, 2]);
            pp.auth = Authenticator::generate(&k, 4, &Digest::of(b"x"));
            pp.sig = k.sign(b"pp");
            pp
        };
        let prepare = PrepareMsg {
            view: 1,
            seq: 2,
            digest: pp.batch_digest(),
            replica: 1,
            auth: Authenticator::generate(&k, 4, &Digest::of(b"y")),
            sig: k.sign(b"p"),
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
            stable_seq: 128,
            stable_digest: Digest::of(b"s"),
            stable_proof: vec![ckpt.clone()],
            prepared: vec![PreparedProof { pre_prepare: pp.clone(), prepares: vec![prepare.clone()] }],
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
                "a26d0985e0ead23c40ab20b17f063943031ab1e3c7c86555e7026cd3553979b5",
            ),
            (
                Message::Reply(ReplyMsg {
                    view: 1,
                    timestamp: 9,
                    client: 4,
                    replica: 0,
                    digest_only: false,
                    tentative: true,
                    result: b"res".to_vec(),
                    mac: Authenticator::point(&k, 4, &Digest::of(b"r")),
                }),
                52,
                "925229c7f999e7658a2d82e9c044657fe72d37e7a676c7b682ab7d07e1298eff",
            ),
            (
                Message::PrePrepare(pp),
                168,
                "fa760e8b9a9fb57ee74521344615090332416b8e170e33084aa1aed7af5adfc6",
            ),
            (
                Message::Prepare(prepare),
                124,
                "b274c69b0fb305af7306e5ebc6475a9ee79f35c6f971da3fd87b1446d29efe56",
            ),
            (
                Message::Commit(commit),
                92,
                "5e06ecb2021896185d8e3a8d997c1fb8806b0cd3900f83ecbc42092a00c1b826",
            ),
            (
                Message::Checkpoint(ckpt.clone()),
                80,
                "bc261f1b355d42c9fcabda4f7033b7d7642954972abe679477b7fe5e91db3f61",
            ),
            (
                Message::ViewChange(vc),
                460,
                "b664d2a252442b6ec155b61b8b9ee4814e4a11066e76963f6a0a87e5d0e57f99",
            ),
            (
                Message::NewView(nv),
                676,
                "07d4abfa85c329d7da6101ac3111b29eff4deeeb26117e9aafafd116d868ea4a",
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
            (
                Message::FetchChunks(FetchChunksMsg { seq: 128, index: 7, replica: 1 }),
                24,
                "8a0f00f3e6004a97116bac081e30ed452cdc29ae5a36b72dff6224a943dbe21a",
            ),
            (
                Message::ChunksReply(ChunksReplyMsg {
                    seq: 128,
                    index: 7,
                    len: 5000,
                    digests: vec![Digest::of(b"c0"), Digest::of(b"c1")],
                    replica: 1,
                }),
                100,
                "ff30079ef0057e7cbf7c505293d6369d8835eb82351809b7a349815962ffa756",
            ),
            (
                Message::FetchChunkData(FetchChunkDataMsg { seq: 128, index: 7, chunk: 1, replica: 1 }),
                28,
                "75cacec788741f3f7ec73fb79241f4210ee346ccd6560101d2b94b7cdeee27ae",
            ),
            (
                Message::ChunkData(ChunkDataMsg {
                    seq: 128,
                    index: 7,
                    chunk: 1,
                    data: vec![5; 100],
                    replica: 1,
                }),
                132,
                "9e9e27c17e0c9d3675159fb030530acbfa32ec1767527f7b3d49dd052908a51f",
            ),
        ];
        for (m, len, sha) in msgs {
            let wire = m.to_wire();
            let decoded = Message::from_wire(&wire).unwrap_or_else(|| panic!("{}", m.kind()));
            assert_eq!(decoded, m, "{}", m.kind());
            assert_golden(m.kind(), &wire, len, sha);
        }
    }

    #[test]
    fn malformed_wire_bytes_are_rejected() {
        assert!(Message::from_wire(&[]).is_none());
        assert!(Message::from_wire(&[0, 0, 0, 99]).is_none());
        let mut good = Message::FetchCert(FetchCertMsg { replica: 1 }).to_wire();
        good.push(0);
        assert!(Message::from_wire(&good).is_none(), "trailing bytes must be rejected");
    }

    #[test]
    fn view_change_digest_binds_pset() {
        let k = keys();
        let r = sample_request(&k);
        let pp = PrePrepareMsg::new(0, 2, vec![r], vec![]);
        let mut vc = ViewChangeMsg {
            new_view: 1,
            stable_seq: 0,
            stable_digest: Digest::ZERO,
            stable_proof: vec![],
            prepared: vec![],
            replica: 0,
            sig: Signature([0; 32]),
        };
        let d_empty = vc.digest();
        vc.prepared.push(PreparedProof { pre_prepare: pp, prepares: vec![] });
        assert_ne!(vc.digest(), d_empty);
    }
}
