//! A/B comparison: erasure-coded state transfer + chunked Merkle leaves vs
//! the legacy whole-object fetch path, on the replicated-NFS recovery
//! workload.
//!
//! Scenario (shared by every cell): 128 live 8 KiB files are fully
//! replicated; replica 3 then sleeps through an update burst that touches
//! only 24 of them — each with a small 256-byte write — plus pad traffic
//! that pushes the group past a checkpoint, so the sleeper must recover by
//! state transfer when it wakes.
//!
//! Three cells:
//!
//! * `legacy` — whole objects fetched from single sources (the seed path).
//! * `coded` — `coded_transfer = true, chunk_size = 0`: each object is
//!   striped into `k = f+1` systematic fragments fetched from distinct
//!   sources in parallel, plus `m = f` parity on demand. The digest scheme
//!   is unchanged, so the installed state must be *byte-identical* to the
//!   legacy cell: same converged root.
//! * `coded_chunked` — `chunk_size = 1024`: leaf digests fold per-chunk
//!   hashes, the fetcher pulls the verified chunk-digest list and re-fetches
//!   only the chunks that differ from its stale local copy. A 256-byte edit
//!   to an 8 KiB file moves ~1 chunk instead of 8.
//!
//! Every reported field is deterministic (virtual time, seeded RNG); the
//! harness runs the legacy and chunked cells twice and asserts byte-identical
//! JSON before printing. Output is one JSON object, checked in as
//! `BENCH_<date>-recovery.json`.
//!
//! Usage: `cargo run --release -q -p base-bench --example ab_recovery`.

use base_bench::setup::{build_replicated_nfs_with, run_relay_to_completion, FsMix};
use base_nfs::ops::NfsOp;
use base_nfs::relay::{RelayActor, ScriptDriver};
use base_nfs::spec::Oid;
use base_simnet::{SimDuration, Simulation};

const LIVE_FILES: u32 = 128;
const FILE_BYTES: usize = 8192;
const STALE_FILES: u32 = 24;
const EDIT_BYTES: usize = 256;
const CHUNK: usize = 1024;

struct Cell {
    name: &'static str,
    fetched_objects: u64,
    fetched_bytes: u64,
    meta_queries: u64,
    chunk_queries: u64,
    frag_queries: u64,
    chunks_reused: u64,
    retransmissions: u64,
    corrupt_replies: u64,
    fetch_ms: u64,
    root: String,
}

impl Cell {
    fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"fetched_objects\":{},\"fetched_bytes\":{},\
             \"meta_queries\":{},\"chunk_queries\":{},\"frag_queries\":{},\
             \"chunks_reused\":{},\"retransmissions\":{},\"corrupt_replies\":{},\
             \"fetch_ms\":{},\"root\":\"{}\"}}",
            self.name,
            self.fetched_objects,
            self.fetched_bytes,
            self.meta_queries,
            self.chunk_queries,
            self.frag_queries,
            self.chunks_reused,
            self.retransmissions,
            self.corrupt_replies,
            self.fetch_ms,
            self.root,
        )
    }
}

fn run_cell(name: &'static str, coded: bool, chunk_size: usize) -> Cell {
    let root = Oid::ROOT;
    let dir = Oid { index: 1, gen: 1 };
    let file = |i: u32| Oid { index: 2 + i, gen: 1 };

    // Phase A: populate the live files (everyone up).
    let mut script = vec![NfsOp::Mkdir { dir: root, name: "d".into(), mode: 0o755 }];
    for i in 0..LIVE_FILES {
        script.push(NfsOp::Create { dir, name: format!("f{i}"), mode: 0o644 });
        script.push(NfsOp::Write { fh: file(i), offset: 0, data: vec![i as u8; FILE_BYTES] });
    }
    let phase_a_ops = script.len();

    // Phase B (replica 3 asleep): small edits to the stale files — 256
    // bytes at the front of each 8 KiB file — then pad writes so the burst
    // crosses the next checkpoint boundary.
    for i in 0..STALE_FILES {
        script.push(NfsOp::Write {
            fh: file(i),
            offset: 0,
            data: vec![0xE0 | (i as u8 & 0x0F); EDIT_BYTES],
        });
    }
    for _ in 0..140 {
        script.push(NfsOp::Write { fh: file(0), offset: 0, data: vec![0xEE; FILE_BYTES] });
    }

    let seed = 8200;
    let mut sim = Simulation::new(seed);
    let bed = build_replicated_nfs_with(
        &mut sim,
        seed,
        4,
        FsMix::Heterogeneous,
        ScriptDriver::new(script),
        |cfg| {
            cfg.coded_transfer = coded;
            cfg.chunk_size = chunk_size;
        },
    );

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
    assert!(done_a(&sim), "phase A did not finish ({name})");

    let sleeper = bed.replicas[3];
    let stats_before = sleeper.get(&sim).stats().clone();
    let metrics_before = sleeper.get(&sim).metrics().clone();
    sim.crash(sleeper.node, SimDuration::from_secs(10));
    assert!(
        run_relay_to_completion::<ScriptDriver>(&mut sim, bed.client, SimDuration::from_secs(60)),
        "phase B did not finish ({name})"
    );
    sim.run_for(SimDuration::from_secs(40));

    let stats = sleeper.get(&sim).stats();
    assert!(
        stats.state_transfers > stats_before.state_transfers,
        "no catch-up transfer in cell {name}"
    );
    let r3 = sleeper.get(&sim).state_root();
    assert_eq!(
        r3,
        bed.replicas[0].get(&sim).state_root(),
        "replica 3 did not converge in cell {name}"
    );
    let metrics = sleeper.get(&sim).metrics();
    let counter =
        |k: &str| metrics.counter(k).saturating_sub(metrics_before.counter(k));
    Cell {
        name,
        fetched_objects: stats.state_transfer_objects - stats_before.state_transfer_objects,
        fetched_bytes: stats.state_transfer_bytes - stats_before.state_transfer_bytes,
        meta_queries: stats.state_transfer_meta_queries
            - stats_before.state_transfer_meta_queries,
        chunk_queries: counter("transfer.chunk_queries"),
        frag_queries: counter("transfer.frag_queries"),
        chunks_reused: counter("transfer.chunks_reused"),
        retransmissions: counter("transfer.retransmissions"),
        corrupt_replies: counter("transfer.corrupt_replies"),
        fetch_ms: metrics.histogram("transfer.fetch_ns").map(|h| h.max()).unwrap_or(0)
            / 1_000_000,
        root: r3.to_string(),
    }
}

fn main() {
    let legacy = run_cell("legacy", false, 0);
    let coded = run_cell("coded", true, 0);
    let chunked = run_cell("coded_chunked", true, CHUNK);

    // Determinism: a second pass reproduces the exact JSON.
    assert_eq!(legacy.to_json(), run_cell("legacy", false, 0).to_json(), "legacy cell drifted");
    assert_eq!(
        chunked.to_json(),
        run_cell("coded_chunked", true, CHUNK).to_json(),
        "chunked cell drifted"
    );

    // Same digest scheme, so coded recovery must install byte-identical
    // state: the converged root equals the legacy cell's.
    assert_eq!(legacy.root, coded.root, "coded recovery altered the installed state");
    // The coded path really ran on fragments, not whole objects.
    assert!(coded.frag_queries >= 2 * coded.fetched_objects, "k = 2 queries per object");

    // The point of the tentpole: a small edit to a big object moves only
    // the touched chunks. The chunked cell must reuse local chunks and
    // move substantially fewer bytes than the whole-object path.
    assert!(chunked.chunks_reused > 0, "no chunk reuse despite stale local copies");
    assert!(
        chunked.fetched_bytes < legacy.fetched_bytes,
        "chunked transfer did not reduce bytes on the wire ({} >= {})",
        chunked.fetched_bytes,
        legacy.fetched_bytes
    );

    println!(
        "{{\"bench\":\"ab_recovery\",\"live_files\":{LIVE_FILES},\"file_bytes\":{FILE_BYTES},\
         \"stale_files\":{STALE_FILES},\"edit_bytes\":{EDIT_BYTES},\"chunk_size\":{CHUNK},\
         \"legacy\":{},\"coded\":{},\"coded_chunked\":{}}}",
        legacy.to_json(),
        coded.to_json(),
        chunked.to_json()
    );
}
