//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Supports both one-shot and incremental hashing. Every hash goes through
//! one private `compress` function, which runs the x86-64 SHA extensions
//! where the CPU has them (`mod hw`, the crate's only `unsafe`) and the
//! portable rounds of `compress_scalar` everywhere else. The unit tests
//! below hold both to the NIST test vectors and, on random inputs, to each
//! other.

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use base_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha256::digest(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes.
    len: u64,
    /// Partially filled block.
    block: [u8; 64],
    /// Number of valid bytes in `block`.
    block_len: usize,
}

/// Compression state captured at a 64-byte block boundary.
///
/// Hashing a fixed prefix (e.g. an HMAC ipad/opad block) once, capturing
/// the midstate, and resuming from it for every message amortizes the
/// prefix's compression rounds across all uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sha256Midstate {
    state: [u32; 8],
    /// Bytes absorbed so far (a multiple of 64).
    len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: H0, len: 0, block: [0; 64], block_len: 0 }
    }

    /// One-shot convenience: hashes `data` and returns the 32-byte digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Captures the compression state for later resumption.
    ///
    /// # Panics
    ///
    /// Panics unless the hasher sits exactly at a block boundary (the
    /// total bytes fed so far are a multiple of 64), since a partial
    /// block cannot be resumed without its buffered bytes.
    pub fn midstate(&self) -> Sha256Midstate {
        assert!(self.block_len == 0, "midstate requires a 64-byte block boundary");
        Sha256Midstate { state: self.state, len: self.len }
    }

    /// Resumes hashing from a previously captured midstate.
    pub fn from_midstate(m: Sha256Midstate) -> Self {
        Self { state: m.state, len: m.len, block: [0; 64], block_len: 0 }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;

        // Fill a partial block first.
        if self.block_len > 0 {
            let take = rest.len().min(64 - self.block_len);
            self.block[self.block_len..self.block_len + take].copy_from_slice(&rest[..take]);
            self.block_len += take;
            rest = &rest[take..];
            if self.block_len < 64 {
                return;
            }
            compress(&mut self.state, &self.block);
            self.block_len = 0;
        }

        // The whole-block run is compressed in one call, borrowed straight
        // from the input, so the state stays in registers across it; the
        // staging copy is only for a short head or tail.
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.block[..tail.len()].copy_from_slice(tail);
        self.block_len = tail.len();
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Pad in the staging block: 0x80, zeros up to byte 56 of a block
        // (spilling into one more block if the length no longer fits),
        // then the 64-bit message length in bits.
        let used = self.block_len;
        self.block[used] = 0x80;
        self.block[used + 1..].fill(0);
        if used >= 56 {
            compress(&mut self.state, &self.block);
            self.block = [0; 64];
        }
        self.block[56..].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &self.block);
        state_bytes(&self.state)
    }
}

/// The digest a final compression state stands for: its words, big-endian.
fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The one seam every hash goes through: compresses `blocks` (a whole
/// number of 64-byte blocks) into `state`, with the CPU's SHA extensions
/// where it has them and the portable rounds everywhere else. Both give
/// the same state for the same input, so nothing above can tell which ran.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    if !hw::compress(state, blocks) {
        compress_scalar(state, blocks);
    }
}

/// Portable FIPS 180-4 compression: the path on every CPU without SHA
/// extensions, and the reference the hardware path is tested against.
pub(crate) fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Compression with the x86-64 SHA extensions: the crate's only `unsafe`.
pub(crate) mod hw {
    /// Compresses `blocks` into `state` with the SHA extensions and returns
    /// `true`, or touches nothing and returns `false` when this CPU (or
    /// architecture) has none. Safe to call anywhere: the feature check
    /// that makes the instructions legal sits in front of their only call.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    pub(crate) fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: every target feature `sha_ni` enables was detected on
            // the running CPU just above (sse2 is part of x86-64 itself).
            unsafe { sha_ni(state, blocks) };
            return true;
        }
        false
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
        use super::K;
        use std::arch::x86_64::*;

        // Four rounds on message words `$w` (group `$i` of 16): each
        // `sha256rnds2` does two, on the low two lanes of w + k.
        macro_rules! rounds4 {
            ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
                let [k0, k1, k2, k3] = [K[4 * $i], K[4 * $i + 1], K[4 * $i + 2], K[4 * $i + 3]];
                let k = _mm_set_epi32(k3 as i32, k2 as i32, k1 as i32, k0 as i32);
                let wk = _mm_add_epi32($w, k);
                $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
                $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }};
        }
        // The next four schedule words from the previous sixteen.
        macro_rules! schedule {
            ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
                _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                    $w3,
                )
            };
        }

        // SAFETY: `state` is 32 readable bytes and `loadu` takes any alignment.
        let (dcba, hgfe) = unsafe {
            (_mm_loadu_si128(state.as_ptr().cast()), _mm_loadu_si128(state.as_ptr().add(4).cast()))
        };
        // The round instruction wants the state as (ABEF, CDGH).
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        // Big-endian message words, four to a vector.
        let be = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);

        for block in blocks.chunks_exact(64) {
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: `chunks_exact(64)` yields 64 readable bytes, which the
            // four 16-byte loads cover exactly; `loadu` takes any alignment.
            let (mut w0, mut w1, mut w2, mut w3) = unsafe {
                (
                    _mm_shuffle_epi8(_mm_loadu_si128(p), be),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), be),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), be),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), be),
                )
            };
            let (abef0, cdgh0) = (abef, cdgh);
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            macro_rules! rounds16 {
                ($i:expr) => {
                    w0 = schedule!(w0, w1, w2, w3);
                    rounds4!(abef, cdgh, w0, $i);
                    w1 = schedule!(w1, w2, w3, w0);
                    rounds4!(abef, cdgh, w1, $i + 1);
                    w2 = schedule!(w2, w3, w0, w1);
                    rounds4!(abef, cdgh, w2, $i + 2);
                    w3 = schedule!(w3, w0, w1, w2);
                    rounds4!(abef, cdgh, w3, $i + 3);
                };
            }
            rounds16!(4);
            rounds16!(8);
            rounds16!(12);
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        // SAFETY: `state` is 32 writable bytes and `storeu` takes any alignment.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), _mm_alignr_epi8(dchg, feba, 8));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    pub(crate) type Compress = fn(&mut [u32; 8], &[u8]);

    /// The compress functions by name, called directly: always the scalar
    /// one, and the hardware one where this CPU has it.
    pub(crate) fn paths() -> Vec<(&'static str, Compress)> {
        let mut paths: Vec<(&'static str, Compress)> = vec![("scalar", compress_scalar)];
        if hw::compress(&mut [0; 8], &[]) {
            paths.push(("sha-ni", |s, b| assert!(hw::compress(s, b))));
        } else {
            eprintln!("note: no SHA extensions on this CPU, hardware compress path not tested");
        }
        paths
    }

    /// SHA-256 of `data` padded by hand and fed to `compress` directly,
    /// `run` blocks per call, with no `Sha256` in between.
    pub(crate) fn hash_with(compress: Compress, data: &[u8], run: usize) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        padded.resize(padded.len() + (119 - data.len() % 64) % 64, 0);
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for blocks in padded.chunks(64 * run) {
            compress(&mut state, blocks);
        }
        state_bytes(&state)
    }

    pub(crate) fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Which path `Sha256` takes on this machine (`scripts/tier1.sh` echoes it).
    #[test]
    fn detected_compress_path() {
        // `compress` takes the hardware path wherever `paths` offers it.
        let (path, _) = paths().pop().expect("the scalar path is always there");
        println!("sha256 compress path: {path}");
    }

    #[test]
    fn nist_vectors_on_every_path() {
        // NIST FIPS 180-4 test vectors.
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
        ];
        for (data, want) in vectors {
            assert_eq!(hex(&Sha256::digest(data)), want, "dispatched");
            for (name, compress) in paths() {
                assert_eq!(hex(&hash_with(compress, data, 1)), want, "{name}");
                assert_eq!(hex(&hash_with(compress, data, 128)), want, "{name}, 128-block runs");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Both compress functions, called directly in runs of any length,
        /// agree with each other and with the dispatching hasher fed the
        /// same bytes in arbitrary pieces and resumed from a midstate.
        #[test]
        fn compress_paths_agree(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
            splits in proptest::collection::vec(0usize..=300, 0..8),
            run in 1usize..=70,
        ) {
            let want = hash_with(compress_scalar, &data, 1);
            for (name, compress) in paths() {
                prop_assert_eq!(hash_with(compress, &data, run), want, "{}", name);
            }

            let mut h = Sha256::new();
            let mut rest: &[u8] = &data;
            for s in splits {
                let (head, tail) = rest.split_at(s.min(rest.len()));
                h.update(head);
                rest = tail;
                if h.block_len == 0 {
                    h = Sha256::from_midstate(h.midstate());
                }
            }
            h.update(rest);
            prop_assert_eq!(h.finalize(), want);
        }
    }

    #[test]
    fn exact_block_boundary_lengths() {
        // Lengths around the 55/56/64 padding boundaries must all agree
        // between incremental (1-byte feeds) and one-shot hashing.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 121, 128] {
            let data = vec![0x5au8; len];
            let mut inc = Sha256::new();
            for b in &data {
                inc.update(std::slice::from_ref(b));
            }
            assert_eq!(inc.finalize(), Sha256::digest(&data), "length {len}");
            assert_eq!(hash_with(compress_scalar, &data, 1), Sha256::digest(&data), "length {len}");
        }
    }

    #[test]
    fn midstate_resumption_matches_straight_hashing() {
        let prefix = [0x36u8; 64];
        let mut h = Sha256::new();
        h.update(&prefix);
        let mid = h.midstate();
        for tail_len in [0usize, 1, 55, 56, 64, 129] {
            let tail = vec![0x9cu8; tail_len];
            let mut resumed = Sha256::from_midstate(mid);
            resumed.update(&tail);
            let mut full: Vec<u8> = prefix.to_vec();
            full.extend_from_slice(&tail);
            assert_eq!(resumed.finalize(), Sha256::digest(&full), "tail {tail_len}");
        }
    }

    #[test]
    #[should_panic(expected = "block boundary")]
    fn midstate_mid_block_panics() {
        let mut h = Sha256::new();
        h.update(b"partial");
        let _ = h.midstate();
    }

    #[test]
    fn split_updates_match_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [1, 7, 63, 64, 65, 500] {
            let mut h = Sha256::new();
            for chunk in data.chunks(split) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "split {split}");
        }
    }
}
