//! Crypto census of one replicated write.
//!
//! The normal case is authenticated with MACs alone (DESIGN.md §3.1): a
//! pre-prepare, a prepare and a commit each carry an authenticator and no
//! signature, and a replica's authenticator holds a tag for each of the
//! other replicas, none for itself. This test holds that in place by
//! counting: it drives a four-replica `KvWrapper` group and one client
//! through single writes, one at a time, and reads `base_crypto::census`
//! around each, all four replicas, the client and every message in flight
//! included. The counters are per thread and the simulator is seeded and
//! single-threaded, so the counts are exact and equal for every write.
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
/// SHA-256 blocks compressed per write, group and client together. Each
/// request and each batch is hashed once where it is built or received:
/// a primary that logs the pre-prepare decoded from the frame it sent
/// carries the memoized digests over rather than hashing them again.
const SHA256_BLOCKS_PER_WRITE: u64 = 102;
const SEED: u64 = 18;

/// The census of one write by `client`, from its submission until every
/// message it caused has been delivered: well inside one 100 ms tick, and
/// between checkpoints (the 20 writes below stay under the interval of
/// 128), so nothing but the write is counted.
fn one_write(sim: &mut Simulation, client: NodeId, i: usize) -> Census {
    let before = census();
    let c = sim.actor_as_mut::<BaseClient>(client).expect("client");
    let done = c.completed.len();
    c.invoke(format!("put key{:02} value-{i}", i % 16).into_bytes(), false);
    sim.run_for(SimDuration::from_millis(50));
    let completed = sim.actor_as::<BaseClient>(client).expect("client").completed.len();
    assert_eq!(completed, done + 1, "write {i} did not complete");
    census() - before
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

    let count = writes.len();
    println!("crypto operations per write (seed {SEED}, {count} writes, each counted alone)");
    println!("| operation | per write |");
    println!("|---|---|");
    let w = writes[0];
    for (what, n) in [
        ("signatures made", w.signs),
        ("signatures checked", w.sig_checks),
        ("authenticator tags made by the replicas", w.member_tags),
        ("authenticator tags made by the client", w.outside_tags),
        ("point MACs made (replies)", w.point_tags),
        ("tags checked", w.tag_checks),
        ("SHA-256 blocks compressed", w.sha256_blocks),
    ] {
        println!("| {what} | {n} |");
    }

    assert!(writes.iter().all(|c| *c == w), "the writes' counts differ: {writes:?}");
    assert_eq!(w.signs + w.sig_checks, SIGNATURES_PER_WRITE, "a write made signature operations");
    assert_eq!(w.member_tags, REPLICA_TAGS_PER_WRITE, "replica authenticator tags per write");
    assert_eq!(w.sha256_blocks, SHA256_BLOCKS_PER_WRITE, "SHA-256 blocks per write");
}
