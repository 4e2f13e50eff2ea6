//! End-to-end tests for chunked state transfer: with chunked Merkle leaves
//! a recovering replica must install the same abstract values as with
//! whole-object leaves, reuse local chunks that already match, and converge
//! when chunk replies are dropped or corrupted in flight.

use base_pbft::testing::{op_add, CounterService};
use base_pbft::{ClientActor, Config, Deployment, Replica, Service};
use base_simnet::{NetFault, NodeId, SimDuration, SimTime, Simulation};

fn small_config() -> Config {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 8;
    cfg.log_window = 32;
    cfg
}

fn enqueue(sim: &mut Simulation, client: NodeId, op: Vec<u8>, ro: bool) {
    sim.actor_as_mut::<ClientActor>(client).unwrap().invoke(op, ro);
}

fn completed(sim: &Simulation, client: NodeId) -> usize {
    sim.actor_as::<ClientActor>(client).unwrap().completed.len()
}

fn replica<'a>(sim: &'a Simulation, g: &Deployment, i: usize) -> &'a Replica<CounterService> {
    sim.actor_as::<Replica<CounterService>>(g.replicas[i].node).unwrap()
}

/// Outcome of one cold-recovery run (replica 3 down from genesis).
struct RunOutcome {
    values: Vec<u64>,
    root: base_crypto::Digest,
    /// Replica 0's root at the end of the run: what the group agreed on.
    group_root: base_crypto::Digest,
    state_transfers: u64,
    fetched_bytes: u64,
    chunk_queries: u64,
}

/// Runs the lagging-replica scenario (replica 3 crashed from the start,
/// revived after the group executes past several checkpoints) under `cfg`
/// and returns replica 3's converged state and transfer counters.
fn run_cold_recovery(cfg: Config, seed: u64) -> RunOutcome {
    let mut sim = Simulation::new(seed);
    let g = Deployment::build(&mut sim, cfg, 1, seed, |_| CounterService::default());
    let client = g.clients[0];

    sim.crash(g.replicas[3].node, SimDuration::from_secs(5));
    for _ in 0..30 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(completed(&sim, client), 30);

    for _ in 0..20 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(completed(&sim, client), 50);

    let r3 = replica(&sim, &g, 3);
    let m = r3.metrics();
    RunOutcome {
        values: (0..base_pbft::testing::COUNTER_REGS as usize)
            .map(|r| r3.service().value(r))
            .collect(),
        root: r3.service().current_tree().root_digest(),
        group_root: replica(&sim, &g, 0).service().current_tree().root_digest(),
        state_transfers: r3.stats.state_transfers,
        fetched_bytes: m.histogram("transfer.bytes_fetched").map(|h| h.sum()).unwrap_or(0),
        chunk_queries: m.counter("transfer.chunk_queries"),
    }
}

#[test]
fn whole_and_chunked_recovery_install_identical_values() {
    // The same lagging-replica run under both leaf schemes. The digest
    // scheme differs, so the roots do; what must not differ is the abstract
    // values installed, and each run must land on the root its own group
    // certified.
    let whole = run_cold_recovery(small_config(), 10);
    assert!(whole.state_transfers >= 1, "whole-object run must state-transfer");
    assert_eq!(whole.values[0], 50);
    assert_eq!(whole.chunk_queries, 0, "chunk_size = 0 never asks for chunk lists");
    assert_eq!(whole.root, whole.group_root);

    let mut cfg = small_config();
    cfg.chunk_size = 4; // 8-byte registers span two chunks.
    let chunked = run_cold_recovery(cfg, 10);
    assert!(chunked.state_transfers >= 1, "chunked run must state-transfer");
    assert!(chunked.chunk_queries >= 1, "chunked leaves are fetched by chunk list");
    assert_eq!(chunked.root, chunked.group_root);

    assert_eq!(chunked.values, whole.values, "both schemes must install identical values");
    assert_ne!(chunked.root, whole.root, "chunked leaves fold a different digest");
}

#[test]
fn chunked_recovery_converges() {
    let mut cfg = small_config();
    cfg.chunk_size = 4;
    let chunked = run_cold_recovery(cfg, 10);
    assert!(chunked.state_transfers >= 1);
    assert_eq!(chunked.values[0], 50, "chunked recovery must converge");
    assert!(chunked.chunk_queries >= 1, "chunked mode must fetch chunk digests");
    assert!(chunked.fetched_bytes > 0);
}

#[test]
fn warm_lagging_replica_reuses_untouched_chunks() {
    // Replica 3 executes the first batch (register 0 = 30), crashes across
    // a checkpoint window, and revives with stale-but-mostly-right state:
    // the register's high 4 bytes (chunk 0) are zero both before and after,
    // so chunked transfer re-fetches only the low chunk and reuses the
    // local copy of the untouched one.
    let mut cfg = small_config();
    cfg.chunk_size = 4;
    let mut sim = Simulation::new(23);
    let g = Deployment::build(&mut sim, cfg, 1, 23, |_| CounterService::default());
    let client = g.clients[0];

    for _ in 0..30 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(completed(&sim, client), 30);
    assert_eq!(replica(&sim, &g, 3).service().value(0), 30);

    sim.crash(g.replicas[3].node, SimDuration::from_secs(5));
    for _ in 0..20 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(completed(&sim, client), 50);

    for _ in 0..20 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(completed(&sim, client), 70);

    let r3 = replica(&sim, &g, 3);
    assert_eq!(r3.service().value(0), 70, "replica 3 must converge");
    if r3.stats.state_transfers >= 1 {
        assert!(
            r3.metrics().counter("transfer.chunks_reused") >= 1,
            "the untouched high chunk must be reused from local state"
        );
    }
}

#[test]
fn chunked_recovery_survives_dropped_chunk_replies() {
    // A fault drops 30% of chunk-bytes replies (wire tag 18): the
    // fetch window retransmits and recovery still completes.
    let mut cfg = small_config();
    cfg.chunk_size = 4;
    let mut sim = Simulation::new(31);
    let g = Deployment::build(&mut sim, cfg, 1, 31, |_| CounterService::default());
    let client = g.clients[0];
    sim.add_fault(NetFault::DropTagged { tag: 18, prob: 0.3 }, SimTime::ZERO, SimTime(u64::MAX));

    sim.crash(g.replicas[3].node, SimDuration::from_secs(5));
    for _ in 0..30 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(5));
    for _ in 0..20 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(25));

    assert_eq!(completed(&sim, client), 50);
    let r3 = replica(&sim, &g, 3);
    assert!(r3.stats.state_transfers >= 1);
    assert_eq!(r3.service().value(0), 50, "recovery must survive dropped chunk replies");
}

#[test]
fn chunked_recovery_survives_corrupted_chunk_replies() {
    // Half of all chunk-bytes replies are bit-flipped in flight: a corrupt
    // chunk fails its digest check and the query is re-targeted to the next
    // source until an intact copy lands. State must still converge to the
    // correct values.
    let mut cfg = small_config();
    cfg.chunk_size = 4;
    let mut sim = Simulation::new(37);
    let g = Deployment::build(&mut sim, cfg, 1, 37, |_| CounterService::default());
    let client = g.clients[0];
    sim.add_fault(NetFault::CorruptTagged { tag: 18, prob: 0.5 }, SimTime::ZERO, SimTime(u64::MAX));

    sim.crash(g.replicas[3].node, SimDuration::from_secs(5));
    for _ in 0..30 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(5));
    for _ in 0..20 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(40));

    assert_eq!(completed(&sim, client), 50);
    let r3 = replica(&sim, &g, 3);
    assert!(r3.stats.state_transfers >= 1);
    assert_eq!(r3.service().value(0), 50, "corrupt chunks must never poison installed state");
    assert!(
        r3.metrics().counter("transfer.corrupt_replies") >= 1
            || r3.metrics().counter("transfer.retransmissions") >= 1,
        "the corruption must have forced at least one rejected reply or retry"
    );
}

#[test]
fn chunked_transfer_is_deterministic() {
    let run = |seed: u64| {
        let mut cfg = small_config();
        cfg.chunk_size = 4;
        let out = run_cold_recovery(cfg, seed);
        (out.values, out.root, out.fetched_bytes, out.chunk_queries)
    };
    assert_eq!(run(42), run(42));
}
