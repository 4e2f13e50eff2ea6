//! PBFT-style MAC authenticators.
//!
//! Normal-case protocol messages are multicast to all replicas. Instead of
//! a signature, the sender appends an *authenticator*: a vector with one
//! truncated MAC per replica, where entry `j` is computed under the session
//! key shared between the sender and replica `j`. Each receiver checks only
//! its own entry. This is PBFT's key performance optimization — MACs are
//! orders of magnitude cheaper than signatures.
//!
//! A tag is SipHash-2-4 of the message's SHA-256 digest under the 128-bit
//! session key: the role UMAC32 plays in the BFT library, a 64-bit tag
//! from a function built to produce one. The digest binds the tag to the
//! message; the forgery bound is the tag's, 2⁻⁶⁴ an attempt (`DESIGN.md`
//! §11.5).

use crate::digest::Digest;
use crate::keys::{NodeKeys, SessionKey};
use crate::siphash::siphash24;
use crate::verify_tag;
use base_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};

/// Length of a truncated MAC in bytes (PBFT used 8/10-byte UMAC tags).
pub const MAC_LEN: usize = 8;

/// A SipHash-2-4 tag over a message digest.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mac(pub [u8; MAC_LEN]);

impl Mac {
    /// Computes the MAC of `digest` under `key`.
    fn compute(key: &SessionKey, digest: &Digest) -> Mac {
        Mac(siphash24(&key.0, digest.as_bytes()).to_le_bytes())
    }

    /// Whether `received` is the MAC of `digest` under `key`, compared
    /// branch-free like every other tag ([`verify_tag`]).
    fn verify(key: &SessionKey, digest: &Digest, received: &Mac) -> bool {
        verify_tag(&Mac::compute(key, digest).0, &received.0)
    }
}

impl XdrEncode for Mac {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque_fixed(&self.0);
    }
}

impl XdrDecode for Mac {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let bytes = dec.get_opaque_fixed(MAC_LEN)?;
        let mut out = [0u8; MAC_LEN];
        out.copy_from_slice(bytes);
        Ok(Mac(out))
    }
}

/// Tags an authenticator keeps in place: one f = 1 group (n = 3f + 1).
const INLINE: usize = 4;

/// An authenticator's tags. Which variant holds them follows from their
/// count alone — [`INLINE`] or fewer in place, more in one heap block — so
/// a group of four allocates nothing to build, decode or log one.
#[derive(Clone, Debug)]
enum Tags {
    Inline { len: u8, macs: [Mac; INLINE] },
    Heap(Vec<Mac>),
}

/// An authenticator: one MAC per receiver, indexed by node id.
#[derive(Clone, Debug)]
pub struct Authenticator {
    tags: Tags,
}

impl Authenticator {
    /// `n` all-zero tags, in the storage `n` calls for.
    fn zeroed(n: usize) -> Self {
        let zero = Mac([0; MAC_LEN]);
        let tags = if n <= INLINE {
            Tags::Inline { len: n as u8, macs: [zero; INLINE] }
        } else {
            Tags::Heap(vec![zero; n])
        };
        Self { tags }
    }

    fn macs(&self) -> &[Mac] {
        match &self.tags {
            Tags::Inline { len, macs } => &macs[..usize::from(*len)],
            Tags::Heap(macs) => macs,
        }
    }

    fn macs_mut(&mut self) -> &mut [Mac] {
        match &mut self.tags {
            Tags::Inline { len, macs } => &mut macs[..usize::from(*len)],
            Tags::Heap(macs) => macs,
        }
    }

    /// Generates an authenticator over `digest` for receivers `0..n`.
    ///
    /// The sender's own slot is filled with a self-MAC so indices line up;
    /// it is never checked.
    pub fn generate(keys: &NodeKeys, n: usize, digest: &Digest) -> Self {
        let mut auth = Self::zeroed(n);
        let mut slots = auth.macs_mut().iter_mut();
        keys.for_each_key_to(n, |key| {
            *slots.next().expect("one slot per receiver") = Mac::compute(key, digest);
        });
        auth
    }

    /// Computes a single point-to-point MAC (used for replies to clients).
    /// A `to` that is not a node of the directory shares no key with
    /// anyone: it gets the all-zero tag, which verifies nowhere.
    pub fn point(keys: &NodeKeys, to: usize, digest: &Digest) -> Mac {
        keys.key_to(to).map_or(Mac([0; MAC_LEN]), |key| Mac::compute(&key, digest))
    }

    /// Checks a point-to-point MAC received from `from`. `from` is
    /// whatever the frame claims: an id outside the directory fails here.
    pub fn check_point(keys: &NodeKeys, from: usize, digest: &Digest, mac: &Mac) -> bool {
        keys.key_from(from).is_some_and(|key| Mac::verify(&key, digest, mac))
    }

    /// Checks this receiver's entry, for a message received from `from`
    /// (as claimed by the frame; an id outside the directory fails).
    pub fn check(&self, keys: &NodeKeys, from: usize, digest: &Digest) -> bool {
        match (self.macs().get(keys.id()), keys.key_from(from)) {
            (Some(mac), Some(key)) => Mac::verify(&key, digest, mac),
            _ => false,
        }
    }

    /// Number of MAC entries.
    pub fn len(&self) -> usize {
        self.macs().len()
    }

    /// Returns true if the authenticator carries no entries.
    pub fn is_empty(&self) -> bool {
        self.macs().is_empty()
    }

    /// Corrupts every entry (test/fault-injection helper).
    pub fn corrupt(&mut self) {
        for mac in self.macs_mut() {
            mac.0[0] ^= 0xff;
        }
    }
}

impl Default for Authenticator {
    fn default() -> Self {
        Self::zeroed(0)
    }
}

impl PartialEq for Authenticator {
    fn eq(&self, other: &Self) -> bool {
        self.macs() == other.macs()
    }
}

impl Eq for Authenticator {}

/// On the wire an authenticator is a counted array of tags, whichever
/// storage holds them.
impl XdrEncode for Authenticator {
    fn encode(&self, enc: &mut XdrEncoder) {
        base_xdr::encode_vec(self.macs(), enc);
    }
}

impl XdrDecode for Authenticator {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        // A count the rest of the frame cannot hold is refused before
        // anything is reserved, so the heap block is never larger than
        // the frame.
        let mut auth = Self::zeroed(dec.get_count(MAC_LEN)?);
        for mac in auth.macs_mut() {
            *mac = Mac::decode(dec)?;
        }
        Ok(auth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::KeyDirectory;

    fn setup() -> (NodeKeys, NodeKeys, NodeKeys) {
        let dir = KeyDirectory::generate(4, 3);
        (
            NodeKeys::new(dir.clone(), 0),
            NodeKeys::new(dir.clone(), 1),
            NodeKeys::new(dir, 2),
        )
    }

    #[test]
    fn every_receiver_accepts_its_entry() {
        let (a, b, c) = setup();
        let d = Digest::of(b"msg");
        let auth = Authenticator::generate(&a, 4, &d);
        assert!(auth.check(&b, 0, &d));
        assert!(auth.check(&c, 0, &d));
    }

    #[test]
    fn wrong_digest_rejected() {
        let (a, b, _) = setup();
        let auth = Authenticator::generate(&a, 4, &Digest::of(b"msg"));
        assert!(!auth.check(&b, 0, &Digest::of(b"other")));
    }

    #[test]
    fn wrong_claimed_sender_rejected() {
        let (a, b, _) = setup();
        let d = Digest::of(b"msg");
        let auth = Authenticator::generate(&a, 4, &d);
        // Claiming the message came from node 2 must fail.
        assert!(!auth.check(&b, 2, &d));
    }

    #[test]
    fn corrupted_authenticator_rejected() {
        let (a, b, _) = setup();
        let d = Digest::of(b"msg");
        let mut auth = Authenticator::generate(&a, 4, &d);
        auth.corrupt();
        assert!(!auth.check(&b, 0, &d));
    }

    #[test]
    fn short_authenticator_rejected() {
        let (a, _, c) = setup();
        let d = Digest::of(b"msg");
        // Authenticator only covers nodes 0 and 1; node 2 must reject.
        let auth = Authenticator::generate(&a, 2, &d);
        assert!(!auth.check(&c, 0, &d));
    }

    #[test]
    fn generate_matches_per_key_macs() {
        // generate() (every key in one visit to the directory) must
        // produce exactly the tags the key-by-key path produces.
        let (a, _, _) = setup();
        for payload in [&b"msg"[..], b"", b"another multicast payload"] {
            let d = Digest::of(payload);
            let auth = Authenticator::generate(&a, 4, &d);
            for j in 0..4 {
                assert_eq!(auth.macs()[j], Mac::compute(&a.key_to(j).unwrap(), &d), "entry {j}");
            }
        }
    }

    #[test]
    fn point_mac_round_trip() {
        let (a, b, _) = setup();
        let d = Digest::of(b"reply");
        let mac = Authenticator::point(&a, 1, &d);
        assert!(Authenticator::check_point(&b, 0, &d, &mac));
        assert!(!Authenticator::check_point(&b, 2, &d, &mac));
    }

    #[test]
    fn storage_follows_the_count() {
        let (a, _, _) = setup();
        let d = Digest::of(b"m");
        for n in [0, 1, INLINE] {
            let auth = Authenticator::generate(&a, n, &d);
            assert!(matches!(auth.tags, Tags::Inline { .. }), "n = {n}");
        }
        // Only nodes of the directory have keys, so the spill case needs
        // a larger one.
        let big = NodeKeys::new(KeyDirectory::generate(INLINE + 1, 3), 0);
        assert!(matches!(Authenticator::generate(&big, INLINE + 1, &d).tags, Tags::Heap(_)));
    }

    #[test]
    fn xdr_round_trip() {
        let (a, _, _) = setup();
        let auth = Authenticator::generate(&a, 4, &Digest::of(b"m"));
        let bytes = base_xdr::to_bytes(&auth);
        assert_eq!(base_xdr::from_bytes::<Authenticator>(&bytes).unwrap(), auth);
    }
}
