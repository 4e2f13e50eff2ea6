//! Experiment E4: hierarchical state transfer (paper §2.2 — a recovering
//! replica "recurses down a hierarchy of meta-data to determine which
//! partitions are out of date ... it fetches only the objects that are
//! corrupt or out of date").
//!
//! A file system with 256 live files is fully replicated; then one replica
//! sleeps through an update burst that rewrites only K of them. On return
//! it catches up. The hierarchical walk should fetch ≈ K objects and touch
//! a handful of partition nodes, independent of the 256 live files and the
//! 4096-object capacity; a flat transfer would move everything.

use crate::report::{pct, Table};
use base_nfs::ops::NfsOp;
use base_nfs::relay::{RelayActor, ScriptDriver};
use base_nfs::spec::Oid;
use base_simnet::{SimDuration, SimTime, Simulation};

use crate::setup::{build_replicated_nfs, run_relay_to_completion, FsMix};

const LIVE_FILES: u32 = 256;
const FILE_BYTES: usize = 8192;

/// What replica 3 did to catch up after sleeping through an update burst.
/// Every field is virtual-time deterministic.
pub struct CatchUp {
    /// Objects installed by the catch-up transfers.
    pub fetched_objects: u64,
    /// Object bytes the fetcher accepted.
    pub fetched_bytes: u64,
    /// Partition-tree queries issued.
    pub meta_queries: u64,
    /// Queries the fetcher had to reissue (`transfer.retransmissions`).
    pub retransmissions: u64,
    /// Replies the fetcher rejected (`transfer.corrupt_replies`).
    pub corrupt_replies: u64,
    /// Wall-clock of the catch-up fetch (`transfer.fetch_ns` max), the
    /// replica-side heal-to-progress latency.
    pub fetch_ms: u64,
    /// The abstract-state root the sleeper converged to (equal to replica
    /// 0's, asserted).
    pub root: String,
}

/// Fully replicates `live_files` files of [`FILE_BYTES`] over the
/// heterogeneous NFS group, then has replica 3 sleep through a burst that
/// writes `edit(i)` at offset 0 of files `0..stale_files` (plus pad writes
/// that push the group past a checkpoint), wake, and catch up by state
/// transfer.
pub fn measure_catch_up(
    seed: u64,
    live_files: u32,
    stale_files: u32,
    edit: impl Fn(u32) -> Vec<u8>,
) -> CatchUp {
    let root = Oid::ROOT;
    let dir = Oid { index: 1, gen: 1 };
    let file = |i: u32| Oid { index: 2 + i, gen: 1 };

    // Phase A: populate the live files (everyone up), crossing a checkpoint.
    let mut script = vec![NfsOp::Mkdir { dir: root, name: "d".into(), mode: 0o755 }];
    for i in 0..live_files {
        script.push(NfsOp::Create { dir, name: format!("f{i}"), mode: 0o644 });
        script.push(NfsOp::Write { fh: file(i), offset: 0, data: vec![i as u8; FILE_BYTES] });
    }
    let phase_a_ops = script.len();

    // Phase B (replica 3 asleep): edit only the stale files, then pad
    // writes so the burst crosses the next checkpoint boundary (k = 128).
    for i in 0..stale_files {
        script.push(NfsOp::Write { fh: file(i), offset: 0, data: edit(i) });
    }
    for _ in 0..140 {
        script.push(NfsOp::Write { fh: file(0), offset: 0, data: vec![0xEE; FILE_BYTES] });
    }

    let mut sim = Simulation::new(seed);
    let bed = build_replicated_nfs(
        &mut sim,
        seed,
        4,
        FsMix::Heterogeneous,
        ScriptDriver::new(script),
        |_| {},
    );
    let relay = bed.clients[0];

    // Run phase A with everyone up, and stop the moment it completes: the
    // sleeper then misses every write of phase B, whatever the pace.
    let done_a = |s: &Simulation| {
        s.actor_as::<RelayActor<ScriptDriver>>(relay)
            .map(|r| r.stats.ops >= phase_a_ops as u64)
            .unwrap_or(false)
    };
    while !done_a(&sim) {
        let live = sim.step() && sim.now() < SimTime::from_secs(400);
        assert!(live, "phase A did not finish");
    }

    // Replica 3 sleeps through phase B.
    let sleeper = bed.replicas[3];
    let stats_before = sleeper.get(&sim).stats().clone();
    let metrics_before = sleeper.get(&sim).metrics().clone();
    sim.crash(sleeper.node, SimDuration::from_secs(10));
    assert!(
        run_relay_to_completion::<ScriptDriver>(&mut sim, relay, SimDuration::from_secs(60)),
        "phase B did not finish"
    );
    sim.run_for(SimDuration::from_secs(40));

    let stats = sleeper.get(&sim).stats();
    assert!(
        stats.state_transfers > stats_before.state_transfers,
        "no catch-up transfer for {stale_files} stale files"
    );
    let root = sleeper.get(&sim).state_root();
    assert_eq!(root, bed.replicas[0].get(&sim).state_root(), "replica 3 did not converge");
    let metrics = sleeper.get(&sim).metrics();
    let counter = |k: &str| metrics.counter(k) - metrics_before.counter(k);
    CatchUp {
        fetched_objects: stats.state_transfer_objects - stats_before.state_transfer_objects,
        fetched_bytes: stats.state_transfer_bytes - stats_before.state_transfer_bytes,
        meta_queries: stats.state_transfer_meta_queries - stats_before.state_transfer_meta_queries,
        retransmissions: counter("transfer.retransmissions"),
        corrupt_replies: counter("transfer.corrupt_replies"),
        fetch_ms: metrics.histogram("transfer.fetch_ns").map(|h| h.max()).unwrap_or(0)
            / 1_000_000,
        root: root.to_string(),
    }
}

/// Runs E4 and prints the table.
pub fn run_transfer() {
    let mut t = Table::new(
        "E4: hierarchical state transfer — 256 live files, replica misses an update burst touching K",
        &[
            "K (stale files)",
            "objects fetched",
            "bytes fetched",
            "meta queries",
            "flat-transfer bytes (all 256)",
            "saved vs flat",
            "heal-to-progress (ms)",
            "fetch retransmissions",
        ],
    );
    // A flat transfer would move every live object.
    let full_bytes = u64::from(LIVE_FILES) * (FILE_BYTES as u64 + 96) + 2 * 96;
    for k in [2u32, 8, 32, 128] {
        let o = measure_catch_up(4100 + u64::from(k), LIVE_FILES, k, |_| vec![0xEE; FILE_BYTES]);
        t.row(&[
            k.to_string(),
            o.fetched_objects.to_string(),
            o.fetched_bytes.to_string(),
            o.meta_queries.to_string(),
            full_bytes.to_string(),
            pct(1.0 - o.fetched_bytes as f64 / full_bytes as f64),
            o.fetch_ms.to_string(),
            o.retransmissions.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nshape: the recovering replica fetches ≈ K stale objects (plus the directory and \
         the reply cache), not the 256 live files and not the 4096-entry capacity; the \
         digest walk issues a handful of partition queries. Exactly the paper's \"fetches \
         only the objects that are corrupt or out of date\"."
    );
}
