//! Systematic Reed–Solomon erasure coding over GF(2⁸), from scratch.
//!
//! **Nothing in `crates/` calls this module.** State transfer fetches
//! whole objects from one source and checks each against a certified
//! digest (DESIGN.md §16 records why the `k`-of-`n` fragment path lost to
//! plain fetches).
//! [`encode`] and [`reconstruct`] stay only because `benchmark/src/kernels.rs`
//! times them; the module goes when those two kernel rows do (ROADMAP
//! item 2).
//!
//! An object is coded into `k` data fragments plus `m` parity fragments
//! and rebuilt from any `k` of them.
//!
//! The code is *systematic*: fragments `0..k` are contiguous stripes of
//! the input, so in the common all-sources-honest case reassembly is a
//! concatenation with zero field arithmetic. Parity fragments `k..k+m`
//! are rows of a Vandermonde-derived generator matrix whose every `k`-row
//! submatrix is invertible, the standard Reed–Solomon construction.
//!
//! Everything is pure and deterministic: the same `(data, k, m)` always
//! yields byte-identical fragments. The field tables are built at compile
//! time; no dependencies.

/// The field's maximum fragment count (GF(2⁸) has 255 nonzero points).
pub const MAX_FRAGMENTS: usize = 255;

/// GF(2⁸) exponential table over the AES-adjacent primitive polynomial
/// 0x11d, doubled so `EXP[log a + log b]` never needs a modular reduction.
const EXP: [u8; 512] = build_exp();
/// GF(2⁸) logarithm table (LOG[0] is unused).
const LOG: [u8; 256] = build_log();

const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    // Tail entries keep indexing total; they are never reached by valid
    // log sums (log a + log b <= 508).
    exp[510] = exp[0];
    exp[511] = exp[1];
    exp
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

#[inline]
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

#[inline]
fn gf_inv(a: u8) -> u8 {
    debug_assert!(a != 0, "zero has no inverse");
    EXP[255 - LOG[a as usize] as usize]
}

fn gf_pow(base: u8, exp: u32) -> u8 {
    if exp == 0 {
        return 1;
    }
    if base == 0 {
        return 0;
    }
    let l = LOG[base as usize] as u32;
    EXP[((l * exp) % 255) as usize]
}

/// Byte length of each fragment for a `len`-byte input striped `k` ways.
fn fragment_len(len: usize, k: usize) -> usize {
    len.div_ceil(k.max(1))
}

/// The systematic generator matrix: `k+m` rows × `k` columns, top `k×k`
/// block the identity, every `k`-row submatrix invertible.
///
/// Built by Gauss-Jordan-normalizing the Vandermonde matrix
/// `V[r][c] = r^c` (rows are evaluations at distinct field points, so any
/// `k` rows stay independent under the column operations that make the top
/// block the identity).
fn generator(k: usize, m: usize) -> Vec<Vec<u8>> {
    assert!(k >= 1, "need at least one data fragment");
    assert!(k + m <= MAX_FRAGMENTS, "GF(2^8) supports at most 255 fragments");
    let rows = k + m;
    let mut g: Vec<Vec<u8>> = (0..rows)
        .map(|r| (0..k).map(|c| gf_pow(r as u8, c as u32)).collect())
        .collect();

    // Column-reduce so the top k×k block becomes the identity. Row r of a
    // Vandermonde matrix is the point r evaluated at a polynomial basis;
    // column operations change the basis, preserving row independence.
    for col in 0..k {
        // The Vandermonde top block is invertible, so a pivot exists.
        if g[col][col] == 0 {
            let swap = (col + 1..k)
                .find(|&c| g[col][c] != 0)
                .expect("vandermonde block is invertible");
            for row in g.iter_mut() {
                row.swap(col, swap);
            }
        }
        let inv = gf_inv(g[col][col]);
        for row in g.iter_mut() {
            row[col] = gf_mul(row[col], inv);
        }
        for other in 0..k {
            if other == col || g[col][other] == 0 {
                continue;
            }
            let factor = g[col][other];
            for row in g.iter_mut() {
                let sub = gf_mul(row[col], factor);
                row[other] ^= sub;
            }
        }
    }
    g
}

/// Stripe `c` of `data` (contiguous split, zero-padded to `fragment_len`).
fn stripe(data: &[u8], c: usize, flen: usize) -> Vec<u8> {
    let start = (c * flen).min(data.len());
    let end = ((c + 1) * flen).min(data.len());
    let mut s = data[start..end].to_vec();
    s.resize(flen, 0);
    s
}

/// Encodes fragment `id` of `data` under a `(k, m)` code.
///
/// Fragments `0..k` are the data stripes themselves (systematic);
/// `k..k+m` are parity rows.
fn fragment(data: &[u8], k: usize, m: usize, id: usize) -> Vec<u8> {
    assert!(id < k + m, "fragment id {id} out of range for ({k},{m})");
    let flen = fragment_len(data.len(), k);
    if id < k {
        return stripe(data, id, flen);
    }
    let g = generator(k, m);
    let row = &g[id];
    let mut out = vec![0u8; flen];
    for (c, &coef) in row.iter().enumerate() {
        if coef == 0 {
            continue;
        }
        let s = stripe(data, c, flen);
        for (o, b) in out.iter_mut().zip(s.iter()) {
            *o ^= gf_mul(coef, *b);
        }
    }
    out
}

/// Encodes all `k+m` fragments of `data`.
pub fn encode(data: &[u8], k: usize, m: usize) -> Vec<Vec<u8>> {
    (0..k + m).map(|id| fragment(data, k, m, id)).collect()
}

/// Rebuilds the original `len` bytes from any `k` distinct fragments
/// (given as `(fragment_id, bytes)`). Returns `None` when fewer than `k`
/// distinct valid-length fragments are supplied or an id is out of range.
pub fn reconstruct(
    frags: &[(usize, &[u8])],
    k: usize,
    m: usize,
    len: usize,
) -> Option<Vec<u8>> {
    let flen = fragment_len(len, k);
    let mut picked: Vec<(usize, &[u8])> = Vec::with_capacity(k);
    for &(id, bytes) in frags {
        if id >= k + m || bytes.len() != flen || picked.iter().any(|(p, _)| *p == id) {
            continue;
        }
        picked.push((id, bytes));
        if picked.len() == k {
            break;
        }
    }
    if picked.len() < k {
        return None;
    }
    if flen == 0 {
        return Some(Vec::new());
    }

    // Fast path: all k data stripes present — plain concatenation.
    if picked.iter().all(|(id, _)| *id < k) {
        picked.sort_unstable_by_key(|(id, _)| *id);
        let mut out = Vec::with_capacity(flen * k);
        for (_, bytes) in &picked {
            out.extend_from_slice(bytes);
        }
        out.truncate(len);
        return Some(out);
    }

    // General path: invert the k×k submatrix of the generator picked out
    // by the supplied fragment ids, then stripes = inverse × fragments.
    let g = generator(k, m);
    let mut mat: Vec<Vec<u8>> = picked.iter().map(|(id, _)| g[*id].clone()).collect();
    let mut inv: Vec<Vec<u8>> = (0..k)
        .map(|r| (0..k).map(|c| u8::from(r == c)).collect())
        .collect();
    for col in 0..k {
        let pivot = (col..k).find(|&r| mat[r][col] != 0)?;
        mat.swap(col, pivot);
        inv.swap(col, pivot);
        let pinv = gf_inv(mat[col][col]);
        for c in 0..k {
            mat[col][c] = gf_mul(mat[col][c], pinv);
            inv[col][c] = gf_mul(inv[col][c], pinv);
        }
        for r in 0..k {
            if r == col || mat[r][col] == 0 {
                continue;
            }
            let factor = mat[r][col];
            for c in 0..k {
                let msub = gf_mul(mat[col][c], factor);
                mat[r][c] ^= msub;
                let isub = gf_mul(inv[col][c], factor);
                inv[r][c] ^= isub;
            }
        }
    }

    let mut out = vec![0u8; flen * k];
    for (c, stripe_out) in out.chunks_exact_mut(flen).enumerate() {
        for (i, (_, bytes)) in picked.iter().enumerate() {
            let coef = inv[c][i];
            if coef == 0 {
                continue;
            }
            for (o, b) in stripe_out.iter_mut().zip(bytes.iter()) {
                *o ^= gf_mul(coef, *b);
            }
        }
    }
    out.truncate(len);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(7)).collect()
    }

    #[test]
    fn field_tables_are_consistent() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // Distributivity spot check.
        for a in [3u8, 7, 0x53, 0xca] {
            for b in [5u8, 0x11, 0x80] {
                for c in [1u8, 0x0f, 0xfe] {
                    assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
                }
            }
        }
    }

    #[test]
    fn systematic_fragments_are_stripes() {
        let data = sample(100);
        let frags = encode(&data, 4, 2);
        assert_eq!(frags.len(), 6);
        let flen = fragment_len(100, 4);
        for (c, frag) in frags.iter().take(4).enumerate() {
            let mut want = data[(c * flen).min(100)..((c + 1) * flen).min(100)].to_vec();
            want.resize(flen, 0);
            assert_eq!(*frag, want, "stripe {c}");
        }
    }

    #[test]
    fn per_fragment_matches_encode() {
        let data = sample(333);
        let all = encode(&data, 3, 3);
        for (id, frag) in all.iter().enumerate() {
            assert_eq!(fragment(&data, 3, 3, id), *frag, "fragment {id}");
        }
    }

    #[test]
    fn reconstruct_from_any_k_subset() {
        // Every k-subset of fragments rebuilds the data exactly — the
        // MDS property the transfer protocol relies on.
        for (k, m) in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)] {
            for len in [0usize, 1, 7, 64, 100] {
                let data = sample(len);
                let frags = encode(&data, k, m);
                let ids: Vec<usize> = (0..k + m).collect();
                // All k-subsets via bitmask.
                for mask in 0u32..(1 << (k + m)) {
                    if mask.count_ones() as usize != k {
                        continue;
                    }
                    let subset: Vec<(usize, &[u8])> = ids
                        .iter()
                        .filter(|&&i| mask & (1 << i) != 0)
                        .map(|&i| (i, frags[i].as_slice()))
                        .collect();
                    let got = reconstruct(&subset, k, m, len);
                    assert_eq!(got.as_deref(), Some(&data[..]), "k={k} m={m} len={len} mask={mask:b}");
                }
            }
        }
    }

    #[test]
    fn too_few_fragments_fail() {
        let data = sample(50);
        let frags = encode(&data, 3, 2);
        let subset: Vec<(usize, &[u8])> =
            vec![(0, frags[0].as_slice()), (4, frags[4].as_slice())];
        assert_eq!(reconstruct(&subset, 3, 2, 50), None);
    }
}
