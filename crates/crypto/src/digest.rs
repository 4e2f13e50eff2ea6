//! The 32-byte digest type used throughout the system.

use crate::sha256::Sha256;
use base_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};
use std::fmt;

/// Length of a [`Digest`] in bytes.
pub const DIGEST_LEN: usize = 32;

/// A SHA-256 digest.
///
/// Used for message digests, abstract-object digests, partition-tree nodes
/// and checkpoint identities.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// The all-zero digest, used as the digest of absent/null data.
    pub const ZERO: Digest = Digest([0; DIGEST_LEN]);

    /// Hashes `data` into a digest.
    pub fn of(data: &[u8]) -> Self {
        Digest(Sha256::digest(data))
    }

    /// Hashes the concatenation of several byte slices.
    pub fn of_parts(parts: &[&[u8]]) -> Self {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        Digest(h.finalize())
    }

    /// Combines two digests into a parent digest (for Merkle-style trees).
    pub fn combine(left: &Digest, right: &Digest) -> Self {
        Digest::of_parts(&[&left.0, &right.0])
    }

    /// Returns true if this is the all-zero digest.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; DIGEST_LEN]
    }

    /// Renders the first four bytes as hex, for logs.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// Hashes `data` into a [`Digest`]. Convenience alias for [`Digest::of`].
pub fn digest_of(data: &[u8]) -> Digest {
    Digest::of(data)
}

/// A digest's bytes, so that anything taking a byte string (an
/// authenticator's message among them) takes a digest as it is.
impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl XdrEncode for Digest {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque_fixed(&self.0);
    }
}

impl XdrDecode for Digest {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let bytes = dec.get_opaque_fixed(DIGEST_LEN)?;
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(bytes);
        Ok(Digest(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use base_xdr::{from_bytes, to_bytes};

    #[test]
    fn of_parts_equals_concatenation() {
        assert_eq!(Digest::of_parts(&[b"ab", b"cd"]), Digest::of(b"abcd"));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = Digest::of(b"a");
        let b = Digest::of(b"b");
        assert_ne!(Digest::combine(&a, &b), Digest::combine(&b, &a));
    }

    #[test]
    fn xdr_round_trip() {
        let d = Digest::of(b"x");
        assert_eq!(from_bytes::<Digest>(&to_bytes(&d)).unwrap(), d);
    }

    #[test]
    fn zero_digest() {
        assert!(Digest::ZERO.is_zero());
        assert!(!Digest::of(b"").is_zero());
    }
}
