//! HMAC-SHA256 (RFC 2104), validated against the RFC 4231 test vectors.
//!
//! Used where a 32-byte output is wanted: deriving node secrets and
//! session keys, and the simulated signatures of [`crate::sig`]. The
//! 8-byte tags of an authenticator are not HMACs ([`crate::auth`]).

use crate::sha256::{Sha256, Sha256Midstate};

const BLOCK_LEN: usize = 64;

/// Precomputed HMAC key schedule: the SHA-256 compression states after
/// absorbing the key-derived ipad and opad blocks.
///
/// Deriving this once per key and instantiating MACs from it skips the two
/// key-block compression rounds that otherwise dominate short-message
/// MACs. The key directory keeps one per node for its signing key, so a
/// signature over a short message costs three compressions instead of five.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmacMidstate {
    inner: Sha256Midstate,
    outer: Sha256Midstate,
}

impl HmacMidstate {
    /// Computes the ipad/opad midstates for `key` (any length; long keys
    /// are hashed first per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }

        let mut ipad_key = [0u8; BLOCK_LEN];
        let mut opad_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad_key[i] = k[i] ^ 0x36;
            opad_key[i] = k[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad_key);
        let mut outer = Sha256::new();
        outer.update(&opad_key);
        Self { inner: inner.midstate(), outer: outer.midstate() }
    }
}

/// Incremental HMAC-SHA256.
///
/// # Examples
///
/// ```
/// use base_crypto::{hmac_sha256, HmacSha256};
///
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"message");
/// assert_eq!(mac.finalize(), hmac_sha256(b"key", b"message"));
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Opad compression state, resumed to run the outer hash at
    /// finalization.
    outer: Sha256Midstate,
}

impl HmacSha256 {
    /// Creates a MAC keyed with `key` (any length; long keys are hashed
    /// first per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        Self::from_midstate(&HmacMidstate::new(key))
    }

    /// Creates a MAC from a precomputed key schedule, skipping both
    /// key-block compressions.
    pub fn from_midstate(m: &HmacMidstate) -> Self {
        Self { inner: Sha256::from_midstate(m.inner), outer: m.outer }
    }

    /// Feeds message bytes into the MAC.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Consumes the MAC and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::from_midstate(self.outer);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Constant-time comparison of two MAC tags.
///
/// Timing attacks are not meaningful inside a deterministic simulation, but
/// the comparison is written branch-free anyway so the code is correct if
/// lifted out of it.
pub fn verify_tag(expected: &[u8], actual: &[u8]) -> bool {
    if expected.len() != actual.len() {
        return false;
    }
    let mut acc = 0u8;
    for (a, b) in expected.iter().zip(actual.iter()) {
        acc |= a ^ b;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::sha256::tests::{hash_with, hex, paths, Compress};

    /// RFC 2104 written out over `hash_with`, so that it runs on exactly
    /// one compress path.
    fn hmac_with(compress: Compress, key: &[u8], msg: &[u8]) -> [u8; 32] {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..32].copy_from_slice(&hash_with(compress, key, 1));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8, tail: &[u8]| {
            let mut m: Vec<u8> = k.iter().map(|b| b ^ pad).collect();
            m.extend_from_slice(tail);
            hash_with(compress, &m, 2)
        };
        keyed(0x5c, &keyed(0x36, msg))
    }

    #[test]
    fn rfc4231_vectors_on_every_path() {
        // RFC 4231 test cases 1, 2, 3 and 6 (key longer than a block).
        let vectors: [(&[u8], &[u8], &str); 4] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (key, data, want) in vectors {
            assert_eq!(hex(&hmac_sha256(key, data)), want, "dispatched");
            for (name, compress) in paths() {
                assert_eq!(hex(&hmac_with(compress, key, data)), want, "{name}");
            }
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"ab");
        mac.update(b"cd");
        assert_eq!(mac.finalize(), hmac_sha256(b"k", b"abcd"));
    }

    #[test]
    fn midstate_matches_fresh_key_schedule() {
        for key_len in [0usize, 1, 20, 32, 63, 64, 65, 131] {
            let key = vec![0xa7u8; key_len];
            let mid = HmacMidstate::new(&key);
            for msg_len in [0usize, 1, 32, 55, 56, 64, 200] {
                let msg = vec![0x42u8; msg_len];
                let mut mac = HmacSha256::from_midstate(&mid);
                mac.update(&msg);
                assert_eq!(
                    mac.finalize(),
                    hmac_sha256(&key, &msg),
                    "key_len {key_len} msg_len {msg_len}"
                );
            }
        }
    }

    #[test]
    fn midstate_is_reusable() {
        let mid = HmacMidstate::new(b"key");
        let one = {
            let mut m = HmacSha256::from_midstate(&mid);
            m.update(b"first");
            m.finalize()
        };
        let mut m = HmacSha256::from_midstate(&mid);
        m.update(b"first");
        assert_eq!(m.finalize(), one);
        assert_eq!(one, hmac_sha256(b"key", b"first"));
    }

    #[test]
    fn verify_tag_matches_and_rejects() {
        let t = hmac_sha256(b"k", b"m");
        assert!(verify_tag(&t, &t));
        let mut bad = t;
        bad[0] ^= 1;
        assert!(!verify_tag(&t, &bad));
        assert!(!verify_tag(&t, &t[..31]));
    }
}
