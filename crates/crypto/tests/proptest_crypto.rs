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

/// `std`'s keyed SipHash-2-4: the tag function under a key, computed
/// without the crate. Deprecated in favour of `DefaultHasher`, which takes
/// no key and fixes no algorithm.
#[allow(deprecated)]
fn std_siphash24(key: &[u8], input: &[u8]) -> u64 {
    use std::hash::{Hasher, SipHasher};
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
    let mut h = SipHasher::new_with_keys(word(&key[..8]), word(&key[8..16]));
    h.write(input);
    h.finish()
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

    /// Authenticators verify for every honest receiver and reject sender
    /// substitution, another message, the message with one byte flipped
    /// and the message with one byte appended, for any system size. The
    /// message is a byte string of any length up to 300, the size of an
    /// agreement header or a short reply, and also that string's digest,
    /// which is what a request is tagged over.
    #[test]
    fn authenticator_sound_and_complete(
        n in 2usize..9,
        sender_raw: usize,
        msg in proptest::collection::vec(any::<u8>(), 0..300),
        other_msg in proptest::collection::vec(any::<u8>(), 0..300),
        at: usize,
        seed: u64,
    ) {
        let sender = sender_raw % n;
        let dir = KeyDirectory::generate(n, seed);
        let keys: Vec<NodeKeys> = (0..n).map(|i| NodeKeys::new(dir.clone(), i)).collect();
        let digest = Digest::of(&msg);
        for m in [&msg[..], digest.as_ref()] {
            let auth = Authenticator::generate(&keys[sender], n, m);
            let mut appended = m.to_vec();
            appended.push(at as u8);
            let mut flipped = m.to_vec();
            if let Some(b) = flipped.get_mut(at % m.len().max(1)) {
                *b ^= 1 << (at % 8);
            }
            for (i, k) in keys.iter().enumerate() {
                if i != sender {
                    prop_assert!(auth.check(k, sender, m));
                    // A different claimed sender must fail.
                    let imposter = (sender + 1) % n;
                    if imposter != i {
                        prop_assert!(!auth.check(k, imposter, m));
                    }
                    if other_msg[..] != *m {
                        prop_assert!(!auth.check(k, sender, &other_msg));
                    }
                    prop_assert!(!auth.check(k, sender, &appended));
                    if !m.is_empty() {
                        prop_assert!(!auth.check(k, sender, &flipped));
                    }
                }
            }
        }
    }

    /// A point MAC over a byte string of any length up to 300 verifies at
    /// its receiver and rejects the string with one byte flipped, with one
    /// byte appended and with its last byte cut.
    #[test]
    fn point_tag_binds_every_byte(
        msg in proptest::collection::vec(any::<u8>(), 0..300),
        at: usize,
        seed: u64,
    ) {
        let dir = KeyDirectory::generate(4, seed);
        let [a, b] = [0, 1].map(|i| NodeKeys::new(dir.clone(), i));
        let mac = Authenticator::point(&a, 1, &msg[..]);
        prop_assert!(Authenticator::check_point(&b, 0, &msg[..], &mac));

        let mut appended = msg.clone();
        appended.push(at as u8);
        prop_assert!(!Authenticator::check_point(&b, 0, &appended, &mac));
        if let Some((_, cut)) = msg.split_last() {
            prop_assert!(!Authenticator::check_point(&b, 0, cut, &mac));
            let mut flipped = msg.clone();
            flipped[at % msg.len()] ^= 1 << (at % 8);
            prop_assert!(!Authenticator::check_point(&b, 0, &flipped, &mac));
        }
    }

    /// The authenticator's layout on both sides of the inline boundary
    /// (four tags), for every group size and a sender inside the group
    /// (which keeps no slot for itself) or outside it (a client, with a
    /// slot for every receiver): its wire bytes are the counted array of
    /// its tags for the other receivers in id order, they decode back to
    /// it, and every receiver accepts its entry and rejects it with any
    /// one bit flipped.
    #[test]
    fn authenticator_layout_is_invisible(
        n in 1usize..=10,
        sender_raw: usize,
        raw: [u8; 32],
        bit in 0usize..64,
        seed: u64,
    ) {
        // Node `n` is outside the group of receivers `0..n`.
        let sender = sender_raw % (n + 1);
        let dir = KeyDirectory::generate(n + 1, seed);
        let keys: Vec<NodeKeys> = (0..=n).map(|i| NodeKeys::new(dir.clone(), i)).collect();
        let d = Digest(raw);
        let auth = Authenticator::generate(&keys[sender], n, &d);
        let receivers: Vec<usize> = (0..n).filter(|j| *j != sender).collect();
        prop_assert_eq!(auth.len(), receivers.len());

        let tags: Vec<Mac> =
            receivers.iter().map(|&j| Authenticator::point(&keys[sender], j, &d)).collect();
        let wire = base_xdr::to_bytes(&auth);
        prop_assert_eq!(&wire, &base_xdr::to_bytes(&tags));
        prop_assert_eq!(&base_xdr::from_bytes::<Authenticator>(&wire).unwrap(), &auth);

        for (slot, &i) in receivers.iter().enumerate() {
            prop_assert!(auth.check(&keys[i], sender, &d), "receiver {}", i);
            let mut flipped = wire.clone();
            flipped[4 + slot * base_crypto::MAC_LEN + bit / 8] ^= 1 << (bit % 8);
            let forged = base_xdr::from_bytes::<Authenticator>(&flipped).unwrap();
            prop_assert!(!forged.check(&keys[i], sender, &d), "receiver {} bit {}", i, bit);
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

    /// Whatever sequence of key refreshes ran, every `(sender, receiver)`
    /// key of the directory is the definition, the first 16 bytes of
    /// `HMAC(secret_receiver, "sess" ‖ sender ‖ epoch_receiver)` (seen
    /// through the tag it makes), and the receiver's key from the sender is
    /// the sender's key to it.
    #[test]
    fn every_key_is_the_definition_after_any_refreshes(
        n in 1usize..7,
        refreshes in proptest::collection::vec(any::<usize>(), 0..10),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
        seed: u64,
    ) {
        let dir = KeyDirectory::generate(n, seed);
        let keys: Vec<NodeKeys> = (0..n).map(|i| NodeKeys::new(dir.clone(), i)).collect();
        let secrets: Vec<[u8; 32]> = (0..n)
            .map(|i| hmac_sha256(&seed.to_be_bytes(), format!("node-secret-{i}").as_bytes()))
            .collect();
        let mut epochs = vec![0u64; n];
        for step in std::iter::once(None).chain(refreshes.into_iter().map(Some)) {
            if let Some(r) = step {
                keys[r % n].refresh();
                epochs[r % n] += 1;
            }
            for (receiver, secret) in secrets.iter().enumerate() {
                for sender in 0..n {
                    let mut label = b"sess".to_vec();
                    label.extend_from_slice(&(sender as u64).to_be_bytes());
                    label.extend_from_slice(&epochs[receiver].to_be_bytes());
                    let key = hmac_sha256(secret, &label);
                    let mac = Authenticator::point(&keys[sender], receiver, &msg[..]);
                    prop_assert_eq!(mac.0, std_siphash24(&key[..16], &msg).to_le_bytes());
                    let checked = Authenticator::check_point(&keys[receiver], sender, &msg[..], &mac);
                    prop_assert!(checked);
                    prop_assert_eq!(keys[sender].key_to(receiver), keys[receiver].key_from(sender));
                }
            }
        }
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
