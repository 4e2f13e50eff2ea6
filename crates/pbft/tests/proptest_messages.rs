//! Property tests for the protocol wire format: every message round-trips
//! exactly, and the decoder never panics on hostile input (random bytes,
//! bit-flipped wires, truncations) — a Byzantine sender controls every
//! byte a replica parses.

use base_crypto::{Authenticator, Digest, Mac, Signature};
use base_pbft::messages::{
    CertReplyMsg, CheckpointMsg, CommitMsg, FetchCertMsg, FetchMetaMsg, FetchObjectMsg,
    MetaReplyMsg, NewViewMsg, ObjectReplyMsg, PEntry, PrePrepareMsg, PrepareMsg, QEntry, ReplyMsg,
    RequestMsg, StatusMsg, ViewChangeMsg,
};
use base_pbft::Message;
use base_simnet::Payload;
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
                result: result.into(),
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
    )
        .prop_map(|(view, seq, requests, nondet, auth)| {
            let mut pp = PrePrepareMsg::new(view, seq, requests, nondet);
            pp.auth = auth;
            pp
        })
}

fn arb_prepare() -> impl Strategy<Value = PrepareMsg> {
    (any::<u64>(), any::<u64>(), arb_digest(), 0u32..N as u32, arb_auth()).prop_map(
        |(view, seq, digest, replica, auth)| PrepareMsg { view, seq, digest, replica, auth },
    )
}

fn arb_p_entry() -> impl Strategy<Value = PEntry> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(arb_request(), 0..3),
        proptest::collection::vec(any::<u8>(), 0..16),
    )
        .prop_map(|(seq, view, requests, nondet)| PEntry::new(seq, view, requests, nondet))
}

fn arb_q_entry() -> impl Strategy<Value = QEntry> {
    (any::<u64>(), any::<u64>(), arb_digest()).prop_map(|(seq, view, digest)| QEntry {
        seq,
        view,
        digest,
    })
}

fn arb_checkpoint() -> impl Strategy<Value = CheckpointMsg> {
    (any::<u64>(), arb_digest(), 0u32..N as u32, arb_sig())
        .prop_map(|(seq, digest, replica, sig)| CheckpointMsg { seq, digest, replica, sig })
}

fn arb_view_change() -> impl Strategy<Value = ViewChangeMsg> {
    (
        (any::<u64>(), any::<bool>()),
        any::<u64>(),
        arb_digest(),
        proptest::collection::vec(arb_checkpoint(), 0..3),
        proptest::collection::vec(arb_p_entry(), 0..2),
        proptest::collection::vec(arb_q_entry(), 0..3),
        0u32..N as u32,
        arb_sig(),
    )
        .prop_map(
            |((new_view, firm), stable_seq, stable_digest, stable_proof, p, q, replica, sig)| {
                ViewChangeMsg {
                    new_view,
                    firm,
                    stable_seq,
                    stable_digest,
                    stable_proof,
                    p,
                    q,
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
    let view_change = |vc: &ViewChangeMsg| {
        for p in &vc.p {
            p.requests().iter().for_each(|r| {
                r.digest();
            });
            p.digest();
        }
    };
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

/// Decodes `bytes` as a receiver does, out of the frame they arrived in,
/// and holds that to the verdict and the value of the slice decoder.
fn decode(bytes: &[u8]) -> Option<Message> {
    let received = Message::from_payload(&Payload::from(bytes));
    assert_eq!(received, base_xdr::from_bytes::<Message>(bytes).ok(), "the decoders disagree");
    received
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The payload a sender puts on the wire is byte for byte the by-value
    /// encoding, and decodes back to the message.
    #[test]
    fn payload_is_the_wire(msg in arb_message()) {
        let payload = msg.to_payload();
        prop_assert_eq!(&payload[..], &msg.to_wire()[..]);
        prop_assert_eq!(Message::from_payload(&payload), Some(msg));
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
        let fresh = decode(&msg.to_wire()).expect("round trip");
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
        let back = decode(&wire);
        prop_assert_eq!(back.as_ref(), Some(&msg));
        // Re-encoding the decoded message yields the identical wire.
        prop_assert_eq!(back.unwrap().to_wire(), wire);
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes);
    }

    /// Single-byte corruption of a valid wire never panics, and whatever
    /// still decodes can be re-encoded without panicking.
    #[test]
    fn bit_flips_never_panic(msg in arb_message(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut wire = msg.to_wire();
        prop_assume!(!wire.is_empty());
        let i = pos.index(wire.len());
        wire[i] ^= 1 << bit;
        if let Some(decoded) = decode(&wire) {
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
            let decoded = decode(short);
            prop_assert_ne!(decoded.as_ref(), Some(&msg));
        }
    }

    /// A frame cut inside a request's operation, or with a nonzero byte in
    /// the operation's padding, is refused by the frame decoder as by the
    /// slice decoder: the operation becomes a range of the frame only once
    /// the whole of it and its padding have been checked.
    #[test]
    fn a_cut_or_dirty_operation_is_refused(
        req in arb_request(),
        at in any::<prop::sample::Index>(),
        dirt in 1u8..=255,
    ) {
        // Tag, client, timestamp, read_only, full_replier, the length word.
        const OP_AT: usize = 4 + 4 + 8 + 4 + 4 + 4;
        let wire = Message::Request(req.clone()).to_wire();
        let len = req.op().len();
        if len > 0 {
            prop_assert_eq!(decode(&wire[..OP_AT + at.index(len)]), None);
        }
        let pad = base_xdr::padded_len(len) - len;
        if pad > 0 {
            let mut dirty = wire;
            dirty[OP_AT + len + at.index(pad)] = dirt;
            prop_assert_eq!(decode(&dirty), None);
            prop_assert_eq!(
                base_xdr::from_bytes::<Message>(&dirty),
                Err(base_xdr::XdrError::NonZeroPadding)
            );
        }
    }

    /// Trailing garbage after a valid message is rejected (the decoder
    /// demands the buffer be fully consumed).
    #[test]
    fn trailing_garbage_rejected(msg in arb_message(), extra in proptest::collection::vec(any::<u8>(), 1..16)) {
        let mut wire = msg.to_wire();
        wire.extend_from_slice(&extra);
        prop_assert_eq!(decode(&wire), None);
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
        match decode(&wire) {
            Some(Message::Request(decoded)) => {
                prop_assert_eq!(decoded.digest(), digest_at_sender);
            }
            _ => prop_assert!(false, "request failed to round-trip"),
        }
    }
}
