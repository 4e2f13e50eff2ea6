//! Kernels: the library's public primitives timed by direct calls, one
//! call per invocation, so the per-message and per-byte costs the layer
//! table cannot see from outside have a measured figure beside them.

use base_crypto::{fec, hmac_sha256, Authenticator, Digest, KeyDirectory, NodeKeys, Sha256};
use base_pbft::messages::{PrePrepareMsg, RequestMsg};
use base_pbft::tree::leaf_digest;
use base_pbft::{Message, PartitionTree};
use std::hint::black_box;
use std::time::Instant;

/// Batches per kernel; the reported figure is the median batch mean.
const BATCHES: usize = 9;

/// Nanoseconds per call of `f`: median over [`BATCHES`] batches of `iters`
/// calls each.
fn time_ns<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[BATCHES / 2]
}

/// Measured kernel figures, by per-layer metric name.
pub struct Kernels {
    /// `(metric name, nanoseconds)`.
    pub ns: Vec<(&'static str, f64)>,
    /// Wire bytes of the 1 KiB request the codec kernels use.
    pub request_wire_len: usize,
}

impl Kernels {
    /// The figure for `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.ns
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Times every kernel. Takes about a second.
pub fn measure() -> Kernels {
    let mut ns: Vec<(&'static str, f64)> = Vec::new();

    let b64 = vec![0xabu8; 64];
    let b4k = vec![0xcdu8; 4096];
    let b8k = vec![0xefu8; 8192];
    ns.push((
        "crypto.sha256_ns_64b",
        time_ns(20_000, || Sha256::digest(black_box(&b64))),
    ));
    ns.push((
        "crypto.sha256_ns_per_byte_8k",
        time_ns(400, || Sha256::digest(black_box(&b8k))) / 8192.0,
    ));
    let key = [7u8; 32];
    let msg = [1u8; 32];
    ns.push((
        "crypto.hmac_ns_32b",
        time_ns(10_000, || hmac_sha256(black_box(&key), black_box(&msg))),
    ));

    let dir = KeyDirectory::generate(5, 1);
    let sender = NodeKeys::new(dir.clone(), 4);
    let receiver = NodeKeys::new(dir, 2);
    let digest = Digest::of(b"a protocol message digest");
    ns.push((
        "crypto.auth_generate_ns_n4",
        time_ns(5_000, || {
            Authenticator::generate(&sender, 4, black_box(&digest))
        }),
    ));
    let auth = Authenticator::generate(&sender, 4, &digest);
    ns.push((
        "crypto.auth_verify_ns",
        time_ns(10_000, || auth.check(&receiver, 4, black_box(&digest))),
    ));

    // The (k, m) = (f + 1, f) code of a four-replica group, on a 16 KiB
    // object; reconstruction with one data fragment lost.
    let obj = vec![0x5au8; 16 * 1024];
    ns.push((
        "crypto.fec_fragment_ns_per_kib",
        time_ns(40, || fec::encode(black_box(&obj), 2, 1)) / 16.0,
    ));
    let frags = fec::encode(&obj, 2, 1);
    let have = [(1usize, frags[1].as_slice()), (2usize, frags[2].as_slice())];
    ns.push((
        "crypto.fec_reconstruct_ns_per_kib",
        time_ns(40, || fec::reconstruct(black_box(&have), 2, 1, obj.len())) / 16.0,
    ));

    let request = |op_len: usize, ts: u64| {
        let mut r = RequestMsg::new(4, ts, false, 0, vec![b'x'; op_len]);
        r.auth = Authenticator::generate(&sender, 4, &r.digest());
        r
    };
    let req = Message::Request(request(1024, 1));
    let req_wire = req.to_wire();
    ns.push((
        "xdr.encode_request_1k_ns",
        time_ns(5_000, || black_box(&req).to_wire()),
    ));
    ns.push((
        "xdr.decode_request_1k_ns",
        time_ns(5_000, || Message::from_wire(black_box(&req_wire))),
    ));
    // A pre-prepare carrying a batch of eight 64-byte requests.
    let batch: Vec<RequestMsg> = (0..8).map(|i| request(64, i)).collect();
    let pp = Message::PrePrepare(PrePrepareMsg::new(0, 1, batch, 7u64.to_be_bytes().to_vec()));
    let pp_wire = pp.to_wire();
    ns.push((
        "xdr.encode_preprepare_ns",
        time_ns(2_000, || black_box(&pp).to_wire()),
    ));
    ns.push((
        "xdr.decode_preprepare_ns",
        time_ns(2_000, || Message::from_wire(black_box(&pp_wire))),
    ));

    let mut tree = PartitionTree::new(4096, 16);
    let mut round = 0u8;
    ns.push((
        "pbft.tree.set_leaves_ns_64of4096",
        time_ns(200, || {
            round = round.wrapping_add(1);
            let d = Digest::of(&[round]);
            tree.set_leaves((0..64u64).map(|i| (i * 64, d)))
        }),
    ));
    ns.push((
        "pbft.tree.leaf_digest_ns_4k",
        time_ns(800, || leaf_digest(7, black_box(&b4k))),
    ));

    Kernels {
        ns,
        request_wire_len: req_wire.len(),
    }
}
