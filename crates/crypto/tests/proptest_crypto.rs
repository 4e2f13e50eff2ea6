//! Property tests for the crypto substrate.

use base_crypto::{hmac_sha256, Authenticator, Digest, KeyDirectory, Mac, NodeKeys, Sha256};
use base_xdr::XdrError;
use proptest::prelude::*;

/// An authenticator of four tags or fewer lives in place, a larger one in
/// one heap block; either is no bigger than this.
#[test]
fn an_authenticator_is_at_most_forty_bytes() {
    assert!(std::mem::size_of::<Authenticator>() <= 40);
}

/// A count of tags the frame cannot hold is refused before any storage is
/// made for it: `u32::MAX`, and one tag more than the bytes behind the
/// count. (`alloc_budget` pins that refusing allocates no more than the
/// frame.)
#[test]
fn hostile_tag_counts_are_rejected() {
    for (count, tags) in [(u32::MAX, 4usize), (5, 4), (1, 0), (1_000, 999)] {
        let mut frame = count.to_be_bytes().to_vec();
        frame.resize(4 + tags * base_crypto::MAC_LEN, 0xa5);
        let got = base_xdr::from_bytes::<Authenticator>(&frame);
        assert!(matches!(got, Err(XdrError::UnexpectedEof { .. })), "count {count}: {got:?}");
    }
}

proptest! {
    /// Incremental hashing with arbitrary chunk boundaries matches one-shot.
    #[test]
    fn sha256_incremental_matches_oneshot(data: Vec<u8>, splits in proptest::collection::vec(0usize..64, 0..8)) {
        let mut h = Sha256::new();
        let mut rest: &[u8] = &data;
        for s in splits {
            let take = s.min(rest.len());
            let (head, tail) = rest.split_at(take);
            h.update(head);
            rest = tail;
        }
        h.update(rest);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Different messages (virtually) never collide.
    #[test]
    fn sha256_distinguishes_inputs(a: Vec<u8>, b: Vec<u8>) {
        prop_assume!(a != b);
        prop_assert_ne!(Sha256::digest(&a), Sha256::digest(&b));
    }

    /// HMAC distinguishes keys and messages.
    #[test]
    fn hmac_binds_key_and_message(k1: Vec<u8>, k2: Vec<u8>, m1: Vec<u8>, m2: Vec<u8>) {
        if k1 != k2 {
            prop_assert_ne!(hmac_sha256(&k1, &m1), hmac_sha256(&k2, &m1));
        }
        if m1 != m2 {
            prop_assert_ne!(hmac_sha256(&k1, &m1), hmac_sha256(&k1, &m2));
        }
    }

    /// Authenticators verify for every honest receiver and reject digest or
    /// sender substitution, for any system size.
    #[test]
    fn authenticator_sound_and_complete(
        n in 2usize..9,
        sender_raw: usize,
        msg: Vec<u8>,
        other_msg: Vec<u8>,
        seed: u64,
    ) {
        let sender = sender_raw % n;
        let dir = KeyDirectory::generate(n, seed);
        let keys: Vec<NodeKeys> = (0..n).map(|i| NodeKeys::new(dir.clone(), i)).collect();
        let d = Digest::of(&msg);
        let auth = Authenticator::generate(&keys[sender], n, &d);

        for (i, k) in keys.iter().enumerate() {
            if i != sender {
                prop_assert!(auth.check(k, sender, &d));
                // A different claimed sender must fail.
                let imposter = (sender + 1) % n;
                if imposter != i {
                    prop_assert!(!auth.check(k, imposter, &d));
                }
                if other_msg != msg {
                    prop_assert!(!auth.check(k, sender, &Digest::of(&other_msg)));
                }
            }
        }
    }

    /// The authenticator's layout on both sides of the inline boundary
    /// (four tags): for every group size its wire bytes are the counted
    /// array of its tags, they decode back to it, and every receiver —
    /// the sender's own slot included — accepts its entry and rejects it
    /// with any one bit flipped.
    #[test]
    fn authenticator_layout_is_invisible(
        n in 1usize..=10,
        sender_raw: usize,
        raw: [u8; 32],
        bit in 0usize..64,
        seed: u64,
    ) {
        let sender = sender_raw % n;
        let dir = KeyDirectory::generate(n, seed);
        let keys: Vec<NodeKeys> = (0..n).map(|i| NodeKeys::new(dir.clone(), i)).collect();
        let d = Digest(raw);
        let auth = Authenticator::generate(&keys[sender], n, &d);
        prop_assert_eq!(auth.len(), n);

        let tags: Vec<Mac> = (0..n).map(|j| Authenticator::point(&keys[sender], j, &d)).collect();
        let wire = base_xdr::to_bytes(&auth);
        prop_assert_eq!(&wire, &base_xdr::to_bytes(&tags));
        prop_assert_eq!(&base_xdr::from_bytes::<Authenticator>(&wire).unwrap(), &auth);

        for (i, k) in keys.iter().enumerate() {
            prop_assert!(auth.check(k, sender, &d), "receiver {}", i);
            let mut flipped = wire.clone();
            flipped[4 + i * base_crypto::MAC_LEN + bit / 8] ^= 1 << (bit % 8);
            let forged = base_xdr::from_bytes::<Authenticator>(&flipped).unwrap();
            prop_assert!(!forged.check(k, sender, &d), "receiver {} bit {}", i, bit);
        }
    }

    /// A tag verifies under exactly one (digest, direction, pair, epoch):
    /// one flipped digest bit, the reverse direction's key, another pair's
    /// key and the key from before a refresh each reject.
    #[test]
    fn tag_binds_digest_direction_pair_and_epoch(raw: [u8; 32], bit in 0usize..256, seed: u64) {
        let dir = KeyDirectory::generate(4, seed);
        let [a, b, c] = [0, 1, 2].map(|i| NodeKeys::new(dir.clone(), i));
        let d = Digest(raw);
        let mac = Authenticator::point(&a, 1, &d);
        prop_assert!(Authenticator::check_point(&b, 0, &d, &mac));

        let mut flipped = d;
        flipped.0[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(!Authenticator::check_point(&b, 0, &flipped, &mac));
        // b → a is a different key from a → b, and so is a → c.
        prop_assert!(!Authenticator::check_point(&b, 0, &d, &Authenticator::point(&b, 0, &d)));
        prop_assert!(!Authenticator::check_point(&b, 0, &d, &Authenticator::point(&a, 2, &d)));
        prop_assert!(!Authenticator::check_point(&c, 0, &d, &mac));

        b.refresh();
        prop_assert!(!Authenticator::check_point(&b, 0, &d, &mac));
        prop_assert!(Authenticator::check_point(&b, 0, &d, &Authenticator::point(&a, 1, &d)));
    }

    /// Erasure-coded fragments rebuild the input from any k-subset: drop
    /// any m fragments (the adversary's choice) and reconstruction is
    /// still exact.
    #[test]
    fn fec_round_trips_under_any_m_losses(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        k in 1usize..5,
        m in 0usize..4,
        drop_seed: u64,
    ) {
        let frags = base_crypto::fec::encode(&data, k, m);
        prop_assert_eq!(frags.len(), k + m);
        // Deterministically pick m distinct fragments to drop.
        let mut ids: Vec<usize> = (0..k + m).collect();
        let mut s = drop_seed;
        for i in (1..ids.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ids.swap(i, (s >> 33) as usize % (i + 1));
        }
        let kept: Vec<(usize, &[u8])> =
            ids[..k].iter().map(|&i| (i, frags[i].as_slice())).collect();
        let got = base_crypto::fec::reconstruct(&kept, k, m, data.len());
        prop_assert_eq!(got.as_deref(), Some(&data[..]));
    }

    /// Signatures verify for all parties and bind signer + message.
    #[test]
    fn signature_sound_and_complete(n in 2usize..6, signer_raw: usize, msg: Vec<u8>, seed: u64) {
        let signer_id = signer_raw % n;
        let dir = KeyDirectory::generate(n, seed);
        let signer = NodeKeys::new(dir.clone(), signer_id);
        let sig = signer.sign(&msg);
        for i in 0..n {
            let v = NodeKeys::new(dir.clone(), i);
            prop_assert!(v.verify(signer_id, &msg, &sig));
            prop_assert!(!v.verify((signer_id + 1) % n, &msg, &sig));
        }
    }
}
