//! Property tests for the protocol wire format: every message round-trips
//! exactly, and the decoder never panics on hostile input (random bytes,
//! bit-flipped wires, truncations) — a Byzantine sender controls every
//! byte a replica parses.

use base_crypto::{Authenticator, Digest, Mac, Signature};
use base_pbft::messages::{
    CertReplyMsg, CheckpointMsg, ChunkDataMsg, ChunksReplyMsg, CommitMsg, FetchCertMsg,
    FetchChunkDataMsg, FetchChunksMsg, FetchMetaMsg, FetchObjectMsg, MetaReplyMsg, NewViewMsg,
    ObjectReplyMsg, PrePrepareMsg, PrepareMsg, PreparedProof, ReplyMsg, RequestMsg, StatusMsg,
    ViewChangeMsg,
};
use base_pbft::Message;
use proptest::prelude::*;

const N: usize = 4;

fn arb_digest() -> impl Strategy<Value = Digest> {
    any::<[u8; 32]>().prop_map(Digest)
}

fn arb_mac() -> impl Strategy<Value = Mac> {
    any::<[u8; 8]>().prop_map(Mac)
}

fn arb_sig() -> impl Strategy<Value = Signature> {
    any::<[u8; 32]>().prop_map(Signature)
}

fn arb_auth() -> impl Strategy<Value = Authenticator> {
    // `Authenticator` deliberately hides its MAC vector; build real ones
    // from arbitrary key material and digests.
    (0u64..4096, arb_digest()).prop_map(|(seed, digest)| {
        let dir = base_crypto::KeyDirectory::generate(N + 1, seed);
        Authenticator::generate(&base_crypto::NodeKeys::new(dir, 0), N, &digest)
    })
}

fn arb_request() -> impl Strategy<Value = RequestMsg> {
    (
        4u32..64,
        any::<u64>(),
        any::<bool>(),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..128),
        arb_auth(),
    )
        .prop_map(|(client, timestamp, read_only, full_replier, op, auth)| {
            let mut r = RequestMsg::new(client, timestamp, read_only, full_replier, op);
            r.auth = auth;
            r
        })
}

fn arb_reply() -> impl Strategy<Value = ReplyMsg> {
    (
        any::<u64>(),
        any::<u64>(),
        4u32..64,
        0u32..N as u32,
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..96),
        arb_mac(),
    )
        .prop_map(
            |(view, timestamp, client, replica, digest_only, tentative, result, mac)| ReplyMsg {
                view,
                timestamp,
                client,
                replica,
                digest_only,
                tentative,
                result,
                mac,
            },
        )
}

fn arb_pre_prepare() -> impl Strategy<Value = PrePrepareMsg> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(arb_request(), 0..4),
        proptest::collection::vec(any::<u8>(), 0..16),
        arb_auth(),
        arb_sig(),
    )
        .prop_map(|(view, seq, requests, nondet, auth, sig)| {
            let mut pp = PrePrepareMsg::new(view, seq, requests, nondet);
            pp.auth = auth;
            pp.sig = sig;
            pp
        })
}

fn arb_prepare() -> impl Strategy<Value = PrepareMsg> {
    (any::<u64>(), any::<u64>(), arb_digest(), 0u32..N as u32, arb_auth(), arb_sig()).prop_map(
        |(view, seq, digest, replica, auth, sig)| PrepareMsg {
            view,
            seq,
            digest,
            replica,
            auth,
            sig,
        },
    )
}

fn arb_checkpoint() -> impl Strategy<Value = CheckpointMsg> {
    (any::<u64>(), arb_digest(), 0u32..N as u32, arb_sig())
        .prop_map(|(seq, digest, replica, sig)| CheckpointMsg { seq, digest, replica, sig })
}

fn arb_view_change() -> impl Strategy<Value = ViewChangeMsg> {
    (
        any::<u64>(),
        any::<u64>(),
        arb_digest(),
        proptest::collection::vec(arb_checkpoint(), 0..3),
        proptest::collection::vec(
            (arb_pre_prepare(), proptest::collection::vec(arb_prepare(), 0..3))
                .prop_map(|(pre_prepare, prepares)| PreparedProof { pre_prepare, prepares }),
            0..2,
        ),
        0u32..N as u32,
        arb_sig(),
    )
        .prop_map(
            |(new_view, stable_seq, stable_digest, stable_proof, prepared, replica, sig)| {
                ViewChangeMsg {
                    new_view,
                    stable_seq,
                    stable_digest,
                    stable_proof,
                    prepared,
                    replica,
                    sig,
                }
            },
        )
}

fn arb_new_view() -> impl Strategy<Value = NewViewMsg> {
    (
        any::<u64>(),
        proptest::collection::vec(arb_view_change(), 0..3),
        proptest::collection::vec(arb_pre_prepare(), 0..3),
        0u32..N as u32,
        arb_sig(),
    )
        .prop_map(|(view, view_changes, pre_prepares, replica, sig)| NewViewMsg {
            view,
            view_changes,
            pre_prepares,
            replica,
            sig,
        })
}

/// All 19 message kinds.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_request().prop_map(Message::Request),
        arb_reply().prop_map(Message::Reply),
        arb_pre_prepare().prop_map(Message::PrePrepare),
        arb_prepare().prop_map(Message::Prepare),
        (any::<u64>(), any::<u64>(), arb_digest(), 0u32..N as u32, arb_auth()).prop_map(
            |(view, seq, digest, replica, auth)| Message::Commit(CommitMsg {
                view,
                seq,
                digest,
                replica,
                auth,
            })
        ),
        arb_checkpoint().prop_map(Message::Checkpoint),
        arb_view_change().prop_map(Message::ViewChange),
        arb_new_view().prop_map(Message::NewView),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec(arb_digest(), 0..8),
            0u32..N as u32,
        )
            .prop_map(|(seq, level, index, digests, replica)| {
                Message::MetaReply(MetaReplyMsg { seq, level, index, digests, replica })
            }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..128),
            0u32..N as u32,
        )
            .prop_map(|(seq, index, data, replica)| {
                Message::ObjectReply(ObjectReplyMsg { seq, index, data, replica })
            }),
        (proptest::collection::vec(arb_checkpoint(), 0..4), 0u32..N as u32)
            .prop_map(|(msgs, replica)| Message::CertReply(CertReplyMsg { msgs, replica })),
        (any::<u64>(), any::<u64>(), any::<u64>(), 0u32..N as u32).prop_map(
            |(view, last_exec, stable_seq, replica)| Message::Status(StatusMsg {
                view,
                last_exec,
                stable_seq,
                replica,
            })
        ),
        (0u32..N as u32).prop_map(|replica| Message::FetchCert(FetchCertMsg { replica })),
        (any::<u64>(), any::<u32>(), any::<u64>(), 0u32..N as u32).prop_map(
            |(seq, level, index, replica)| Message::FetchMeta(FetchMetaMsg {
                seq,
                level,
                index,
                replica,
            })
        ),
        (any::<u64>(), any::<u64>(), 0u32..N as u32).prop_map(|(seq, index, replica)| {
            Message::FetchObject(FetchObjectMsg { seq, index, replica })
        }),
        (any::<u64>(), any::<u64>(), 0u32..N as u32).prop_map(|(seq, index, replica)| {
            Message::FetchChunks(FetchChunksMsg { seq, index, replica })
        }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(arb_digest(), 0..8),
            0u32..N as u32,
        )
            .prop_map(|(seq, index, len, digests, replica)| {
                Message::ChunksReply(ChunksReplyMsg { seq, index, len, digests, replica })
            }),
        (any::<u64>(), any::<u64>(), any::<u32>(), 0u32..N as u32).prop_map(
            |(seq, index, chunk, replica)| Message::FetchChunkData(FetchChunkDataMsg {
                seq,
                index,
                chunk,
                replica,
            })
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..128),
            0u32..N as u32,
        )
            .prop_map(|(seq, index, chunk, data, replica)| {
                Message::ChunkData(ChunkDataMsg { seq, index, chunk, data, replica })
            }),
    ]
}

/// Applies `$body` to the inner message of every kind that carries a signed
/// portion; `None` for the kinds that do not.
macro_rules! on_signed {
    ($msg:expr, |$m:ident| $body:expr) => {
        match $msg {
            Message::Request($m) => Some($body),
            Message::Reply($m) => Some($body),
            Message::PrePrepare($m) => Some($body),
            Message::Prepare($m) => Some($body),
            Message::Commit($m) => Some($body),
            Message::Checkpoint($m) => Some($body),
            Message::ViewChange($m) => Some($body),
            Message::NewView($m) => Some($body),
            _ => None,
        }
    };
}

/// Memoizes every digest a message's signed portion reads, innermost first,
/// so that encoding that portion afterwards finds nothing left to compute.
fn memoize_digests(msg: &Message) {
    let batch = |pp: &PrePrepareMsg| {
        for r in pp.requests() {
            r.digest();
        }
        pp.batch_digest();
    };
    let view_change = |vc: &ViewChangeMsg| vc.prepared.iter().for_each(|p| batch(&p.pre_prepare));
    match msg {
        Message::Request(r) => {
            r.digest();
        }
        Message::PrePrepare(pp) => batch(pp),
        Message::ViewChange(vc) => view_change(vc),
        Message::NewView(nv) => {
            nv.view_changes.iter().for_each(view_change);
            nv.pre_prepares.iter().for_each(batch);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The payload a sender puts on the wire is byte for byte the by-value
    /// encoding, with and without the shard envelope, and decodes back to
    /// the message and the shard it was sent from.
    #[test]
    fn payload_is_the_tagged_wire(msg in arb_message(), shard in 1u32..64) {
        for shard in [0, shard] {
            let payload = msg.to_payload(shard);
            prop_assert_eq!(&payload[..], &msg.to_wire_tagged(shard)[..]);
            prop_assert_eq!(Message::from_wire_tagged(&payload), Some((shard, msg.clone())));
        }
        prop_assert_eq!(&msg.to_payload(0)[..], &msg.to_wire()[..]);
    }

    /// The signed portion lent from the scratch buffer is the signed
    /// portion, also when digests have to be computed *while* it is lent.
    /// The sender's copy has every nested digest memoized beforehand, so
    /// its encoding never re-enters the scratch; the freshly decoded copy
    /// has none, so a view change hashes its prepared batches, and those
    /// their requests, in the middle of the outer encoding. Neither may
    /// panic, and the nested use must not clobber the outer bytes.
    #[test]
    fn lent_signed_bytes_survive_nested_digests(msg in arb_message()) {
        memoize_digests(&msg);
        let at_sender = on_signed!(&msg, |m| m.signed_bytes());
        let fresh = Message::from_wire(&msg.to_wire()).expect("round trip");
        let lent = on_signed!(&fresh, |m| m.with_signed_bytes(<[u8]>::to_vec));
        prop_assert_eq!(&lent, &at_sender);
        // A second, now memoized, pass over the decoded copy agrees, and
        // the bytes stay put while the borrower itself encodes something.
        let held = on_signed!(&fresh, |m| m.with_signed_bytes(|outer| {
            let before = outer.to_vec();
            let _ = msg.to_wire();
            let _ = on_signed!(&msg, |inner| inner.signed_bytes());
            (before, outer.to_vec())
        }));
        if let Some((before, after)) = held {
            prop_assert_eq!(&before, &after);
            prop_assert_eq!(Some(after), at_sender);
        }
    }

    /// Every message survives an encode/decode round trip bit-exactly.
    #[test]
    fn wire_roundtrip(msg in arb_message()) {
        let wire = msg.to_wire();
        let back = Message::from_wire(&wire);
        prop_assert_eq!(back.as_ref(), Some(&msg));
        // Re-encoding the decoded message yields the identical wire.
        prop_assert_eq!(back.unwrap().to_wire(), wire);
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::from_wire(&bytes);
    }

    /// Single-byte corruption of a valid wire never panics, and whatever
    /// still decodes can be re-encoded without panicking.
    #[test]
    fn bit_flips_never_panic(msg in arb_message(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut wire = msg.to_wire();
        prop_assume!(!wire.is_empty());
        let i = pos.index(wire.len());
        wire[i] ^= 1 << bit;
        if let Some(decoded) = Message::from_wire(&wire) {
            let _ = decoded.to_wire();
        }
    }

    /// Truncation at any point never panics and never decodes to the
    /// original message (no silent acceptance of short reads).
    #[test]
    fn truncation_never_panics(msg in arb_message(), cut in any::<prop::sample::Index>()) {
        let wire = msg.to_wire();
        prop_assume!(wire.len() > 1);
        let keep = 1 + cut.index(wire.len() - 1);
        let short = &wire[..keep];
        if keep < wire.len() {
            let decoded = Message::from_wire(short);
            prop_assert_ne!(decoded.as_ref(), Some(&msg));
        }
    }

    /// Trailing garbage after a valid message is rejected (the decoder
    /// demands the buffer be fully consumed).
    #[test]
    fn trailing_garbage_rejected(msg in arb_message(), extra in proptest::collection::vec(any::<u8>(), 1..16)) {
        let mut wire = msg.to_wire();
        wire.extend_from_slice(&extra);
        prop_assert_eq!(Message::from_wire(&wire), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The memoized request digest is always the digest of the signed
    /// bytes — caching must be invisible — and clones carry the cache
    /// without drifting from a fresh computation.
    #[test]
    fn memoized_request_digest_matches_fresh(req in arb_request()) {
        prop_assert_eq!(req.digest(), Digest::of(&req.signed_bytes()));
        prop_assert_eq!(req.clone().digest(), req.digest());
    }

    /// Same invariant for the pre-prepare batch digest: the memoized
    /// value equals the associated-function recomputation over the same
    /// requests and nondeterministic choices, before and after cloning.
    #[test]
    fn memoized_batch_digest_matches_fresh(pp in arb_pre_prepare()) {
        prop_assert_eq!(
            pp.batch_digest(),
            PrePrepareMsg::batch_digest_of(pp.requests(), pp.nondet())
        );
        prop_assert_eq!(pp.clone().batch_digest(), pp.batch_digest());
    }

    /// A request that went over the wire (fresh decode, empty cache)
    /// digests identically to the sender's memoized copy.
    #[test]
    fn decoded_request_digest_agrees_with_sender(req in arb_request()) {
        let digest_at_sender = req.digest();
        let wire = Message::Request(req).to_wire();
        match Message::from_wire(&wire) {
            Some(Message::Request(decoded)) => {
                prop_assert_eq!(decoded.digest(), digest_at_sender);
            }
            _ => prop_assert!(false, "request failed to round-trip"),
        }
    }
}
