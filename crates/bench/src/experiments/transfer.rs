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
use base_simnet::{SimDuration, Simulation};

use crate::setup::{build_replicated_nfs, run_relay_to_completion, FsMix};

const LIVE_FILES: u32 = 256;
const FILE_BYTES: usize = 8192;

struct Out {
    fetched_objects: u64,
    fetched_bytes: u64,
    meta_queries: u64,
    full_bytes: u64,
    /// Wall-clock of the catch-up fetch (`transfer.fetch_ns` max), the
    /// replica-side heal-to-progress latency.
    fetch_ms: u64,
    /// Queries the fetcher had to reissue (`transfer.retransmissions`).
    fetch_retx: u64,
}

fn run_once(k: u32) -> Out {
    let root = Oid::ROOT;
    let dir = Oid { index: 1, gen: 1 };
    let file = |i: u32| Oid { index: 2 + i, gen: 1 };

    // Phase A: populate 256 files (everyone up), crossing a checkpoint.
    let mut script = vec![NfsOp::Mkdir { dir: root, name: "d".into(), mode: 0o755 }];
    for i in 0..LIVE_FILES {
        script.push(NfsOp::Create { dir, name: format!("f{i}"), mode: 0o644 });
        script.push(NfsOp::Write { fh: file(i), offset: 0, data: vec![i as u8; FILE_BYTES] });
    }
    let phase_a_ops = script.len();

    // Phase B (replica 3 asleep): rewrite only K files, then pad writes so
    // the burst crosses the next checkpoint boundary (k = 128).
    for i in 0..k {
        script.push(NfsOp::Write { fh: file(i), offset: 0, data: vec![0xEE; FILE_BYTES] });
    }
    for _ in 0..140 {
        script.push(NfsOp::Write { fh: file(0), offset: 0, data: vec![0xEE; FILE_BYTES] });
    }

    let mut sim = Simulation::new(4100 + u64::from(k));
    let bed = build_replicated_nfs(
        &mut sim,
        4100 + u64::from(k),
        FsMix::Heterogeneous,
        ScriptDriver::new(script),
    );

    // Run phase A with everyone up.
    let done_a = |s: &Simulation| {
        s.actor_as::<RelayActor<ScriptDriver>>(bed.client)
            .map(|r| r.stats.ops >= phase_a_ops as u64)
            .unwrap_or(false)
    };
    let mut guard = 0;
    while !done_a(&sim) && guard < 20_000 {
        sim.run_for(SimDuration::from_millis(20));
        guard += 1;
    }
    assert!(done_a(&sim), "phase A did not finish");

    // Replica 3 sleeps through phase B.
    let sleeper = bed.replicas[3];
    let stats_before = sleeper.get(&sim).stats().clone();
    let retx_before = sleeper.get(&sim).metrics().counter("transfer.retransmissions");
    sim.crash(sleeper.node, SimDuration::from_secs(10));
    assert!(
        run_relay_to_completion::<ScriptDriver>(&mut sim, bed.client, SimDuration::from_secs(60)),
        "phase B did not finish"
    );
    sim.run_for(SimDuration::from_secs(40));

    let stats = sleeper.get(&sim).stats();
    assert!(
        stats.state_transfers > stats_before.state_transfers,
        "no catch-up transfer for K={k}"
    );
    assert_eq!(
        sleeper.get(&sim).state_root(),
        bed.replicas[0].get(&sim).state_root(),
        "replica 3 did not converge"
    );
    // A flat transfer would move every live object.
    let full_bytes = u64::from(LIVE_FILES) * (FILE_BYTES as u64 + 96) + 2 * 96;
    let metrics = sleeper.get(&sim).metrics();
    Out {
        fetched_objects: stats.state_transfer_objects - stats_before.state_transfer_objects,
        fetched_bytes: stats.state_transfer_bytes - stats_before.state_transfer_bytes,
        meta_queries: stats.state_transfer_meta_queries - stats_before.state_transfer_meta_queries,
        full_bytes,
        fetch_ms: metrics.histogram("transfer.fetch_ns").map(|h| h.max()).unwrap_or(0)
            / 1_000_000,
        fetch_retx: metrics.counter("transfer.retransmissions") - retx_before,
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
    for k in [2u32, 8, 32, 128] {
        let o = run_once(k);
        t.row(&[
            k.to_string(),
            o.fetched_objects.to_string(),
            o.fetched_bytes.to_string(),
            o.meta_queries.to_string(),
            o.full_bytes.to_string(),
            pct(1.0 - o.fetched_bytes as f64 / o.full_bytes as f64),
            o.fetch_ms.to_string(),
            o.fetch_retx.to_string(),
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
