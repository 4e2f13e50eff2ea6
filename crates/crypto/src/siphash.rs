//! SipHash-2-4 (Aumasson and Bernstein, 2012) over one 32-byte input.
//!
//! SipHash is a pseudorandom function designed and analysed as a MAC for
//! short inputs: a 128-bit key, a 64-bit tag. Authenticators tag a
//! 32-byte message digest and nothing else, so this takes exactly that:
//! four little-endian words and the length block, no buffering and no
//! tail handling. [`siphash24`] equals the general function on 32-byte
//! inputs (the tests hold it to the paper's vector and to `std`'s).

/// One SipRound.
#[inline(always)]
fn round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13) ^ v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16) ^ v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21) ^ v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17) ^ v[2];
    v[2] = v[2].rotate_left(32);
}

/// Eight bytes as a little-endian word.
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// SipHash-2-4 of the 32-byte `input` under the 128-bit `key`.
pub(crate) fn siphash24(key: &[u8; 16], input: &[u8; 32]) -> u64 {
    let (k0, k1) = (word(&key[..8]), word(&key[8..]));
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    // Four message words, then the final block: no tail bytes (32 is a
    // multiple of 8), the length in the top byte.
    let last = (input.len() as u64) << 56;
    for m in input.chunks_exact(8).map(word).chain([last]) {
        v[3] ^= m;
        round(&mut v);
        round(&mut v);
        v[0] ^= m;
    }
    v[2] ^= 0xff;
    for _ in 0..4 {
        round(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `std`'s keyed SipHash-2-4, of any length: the oracle. Deprecated in
    /// favour of `DefaultHasher`, which takes no key and fixes no algorithm.
    #[allow(deprecated)]
    fn std_siphash24(key: &[u8; 16], input: &[u8]) -> u64 {
        use std::hash::{Hasher, SipHasher};
        let mut h = SipHasher::new_with_keys(word(&key[..8]), word(&key[8..]));
        h.write(input);
        h.finish()
    }

    fn counting<const N: usize>() -> [u8; N] {
        std::array::from_fn(|i| i as u8)
    }

    #[test]
    fn reference_vectors() {
        // Key 00..0f. Input 00..0e is the worked example of the SipHash
        // paper (appendix A): 15 bytes, so it anchors the oracle. Input
        // 00..1f is row 32 of the reference implementation's vectors.
        let key = counting::<16>();
        assert_eq!(std_siphash24(&key, &counting::<15>()), 0xa129_ca61_49be_45e5);
        assert_eq!(std_siphash24(&key, &counting::<32>()), 0x7127_512f_72f2_7cce);
        assert_eq!(siphash24(&key, &counting::<32>()), 0x7127_512f_72f2_7cce);
    }

    proptest::proptest! {
        /// The fixed-width kernel is `std`'s SipHash-2-4 on every key and
        /// every 32-byte input.
        #[test]
        fn agrees_with_std(key: [u8; 16], input: [u8; 32]) {
            proptest::prop_assert_eq!(siphash24(&key, &input), std_siphash24(&key, &input));
        }
    }
}
