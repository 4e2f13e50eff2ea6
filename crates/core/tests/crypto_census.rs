//! Crypto census of one replicated write and one read-only get.
//!
//! The normal case is authenticated with MACs alone (DESIGN.md §3.1): a
//! pre-prepare, a prepare and a commit each carry an authenticator and no
//! signature, and a replica's authenticator holds a tag for each of the
//! other replicas, none for itself. A tag is SipHash-2-4 of the header it
//! authenticates, so no header is hashed before its MAC (§11.5). This test
//! holds that in place by counting: it drives a four-replica `KvWrapper`
//! group and one client through single writes and then single read-only
//! gets, one at a time, and reads `base_crypto::census` around each, all
//! four replicas, the client and every message in flight included. The
//! counters are per thread and the simulator is seeded and single-threaded,
//! so the counts are exact and equal for every operation of a kind.
//! `cargo test --release -p base --test crypto_census -- --nocapture`
//! prints them.

use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, BaseService, Config};
use base_crypto::{census, Census};
use base_pbft::Deployment;
use base_simnet::{NodeId, SimDuration, Simulation};

/// Signatures made and checked per write: 16 while pre-prepares and
/// prepares were signed for view-change proofs (1 + 3 on the pre-prepare,
/// 3 + 9 on the prepares).
const SIGNATURES_PER_WRITE: u64 = 0;
/// Authenticator tags the replicas make per write: a pre-prepare, three
/// prepares and four commits, three tags each (32 while each also carried
/// a tag for its sender).
const REPLICA_TAGS_PER_WRITE: u64 = 24;
/// SHA-256 blocks compressed per write, group and client together: the
/// request digest at the client and at each replica (2 blocks each), the
/// batch digest at the primary and at each backup (2 each), the result
/// digest at the three replicas that reply with one and at the client for
/// the full result (1 each). Each request and each batch is hashed once where it is built or
/// received: a primary that logs the pre-prepare decoded from the frame it
/// sent carries the memoized digests over rather than hashing them again
/// (106 before it did). 102 while every agreement and reply tag was
/// SipHash of the SHA-256 digest of its header rather than of the header.
const SHA256_BLOCKS_PER_WRITE: u64 = 22;
/// SHA-256 blocks per read-only get: the request digest at the client and
/// at each replica and the four result digests, one block each (25 while
/// each reply tag was over the reply's digest).
const SHA256_BLOCKS_PER_READ: u64 = 9;
const SEED: u64 = 18;

/// The census of one operation `op` by `client`, from its submission until
/// every message it caused has been delivered: well inside one 100 ms
/// tick, and between checkpoints (the 20 writes below stay under the
/// interval of 128, and a read-only get orders nothing), so nothing but
/// the operation is counted.
fn one_op(sim: &mut Simulation, client: NodeId, op: String, read_only: bool) -> Census {
    let before = census();
    let c = sim.actor_as_mut::<BaseClient>(client).expect("client");
    let done = c.completed.len();
    c.invoke(op.into_bytes(), read_only);
    sim.run_for(SimDuration::from_millis(50));
    let completed = sim.actor_as::<BaseClient>(client).expect("client").completed.len();
    assert_eq!(completed, done + 1, "operation did not complete");
    census() - before
}

fn one_write(sim: &mut Simulation, client: NodeId, i: usize) -> Census {
    one_op(sim, client, format!("put key{:02} value-{i}", i % 16), false)
}

/// The counters of `c`, each with the name of its table row.
fn rows(c: &Census) -> [(&'static str, u64); 7] {
    [
        ("signatures made", c.signs),
        ("signatures checked", c.sig_checks),
        ("authenticator tags made by the replicas", c.member_tags),
        ("authenticator tags made by the client", c.outside_tags),
        ("point MACs made (replies)", c.point_tags),
        ("tags checked", c.tag_checks),
        ("SHA-256 blocks compressed", c.sha256_blocks),
    ]
}

#[test]
fn a_write_makes_no_signature_and_24_replica_tags() {
    let mut sim = Simulation::new(SEED);
    let client = Deployment::build(&mut sim, Config::new(4), 1, SEED, |_| {
        BaseService::new(KvWrapper::new(TinyKv::default()))
    })
    .clients[0];
    // Warm-up: every session key is derived and memoized.
    for i in 0..10 {
        one_write(&mut sim, client, i);
    }
    let writes: Vec<Census> = (10..20).map(|i| one_write(&mut sim, client, i)).collect();
    let reads: Vec<Census> = (0..10)
        .map(|i| one_op(&mut sim, client, format!("get key{:02}", i % 16), true))
        .collect();

    println!("crypto operations per operation (seed {SEED}, each counted alone)");
    let (w, r) = (writes[0], reads[0]);
    println!("| operation | per write | per read-only get |");
    println!("|---|---|---|");
    for ((what, per_write), (_, per_read)) in rows(&w).into_iter().zip(rows(&r)) {
        println!("| {what} | {per_write} | {per_read} |");
    }

    assert!(writes.iter().all(|c| *c == w), "the writes' counts differ: {writes:?}");
    assert_eq!(w.signs + w.sig_checks, SIGNATURES_PER_WRITE, "a write made signature operations");
    assert_eq!(w.member_tags, REPLICA_TAGS_PER_WRITE, "replica authenticator tags per write");
    assert_eq!(w.sha256_blocks, SHA256_BLOCKS_PER_WRITE, "SHA-256 blocks per write");

    // A read-only get goes around agreement: the client's authenticator
    // (a tag per replica), a reply from each replica (a point MAC each),
    // and each replica's check of its tag and the client's of each reply.
    assert!(reads.iter().all(|c| *c == r), "the gets' counts differ: {reads:?}");
    let tags = (r.signs + r.sig_checks, r.member_tags, r.outside_tags, r.point_tags, r.tag_checks);
    assert_eq!(tags, (0, 0, 4, 4, 8), "(signature ops, replica, client, point tags, checks)");
    assert_eq!(r.sha256_blocks, SHA256_BLOCKS_PER_READ, "SHA-256 blocks per read-only get");
}
