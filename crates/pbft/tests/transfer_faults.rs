//! End-to-end tests for state transfer under faults on its replies: a
//! recovering replica fetches partition metadata (MetaReply, wire tag 9)
//! and whole objects (ObjectReply, wire tag 11), and must converge to the
//! group's root when those replies are dropped or corrupted in flight.

use base_pbft::testing::{op_add, CounterService};
use base_pbft::{ClientActor, Config, Deployment, Replica, Service};
use base_simnet::{NetFault, NodeId, SimDuration, SimTime, Simulation};

/// Wire tag of a MetaReply.
const META_REPLY: u32 = 9;
/// Wire tag of an ObjectReply.
const OBJECT_REPLY: u32 = 11;

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
#[derive(Debug, PartialEq)]
struct RunOutcome {
    values: Vec<u64>,
    root: base_crypto::Digest,
    /// Replica 0's root at the end of the run: what the group agreed on.
    group_root: base_crypto::Digest,
    state_transfers: u64,
    fetched_bytes: u64,
    corrupt_replies: u64,
    retransmissions: u64,
}

/// Runs the lagging-replica scenario (replica 3 crashed from the start,
/// revived after the group executes past several checkpoints) with
/// `faults` in force for the whole run, settles for `settle`, and returns
/// replica 3's converged state and transfer counters.
fn run_cold_recovery(seed: u64, faults: &[NetFault], settle: SimDuration) -> RunOutcome {
    let mut sim = Simulation::new(seed);
    let g = Deployment::build(&mut sim, small_config(), 1, seed, |_| CounterService::default());
    let client = g.clients[0];
    for fault in faults {
        sim.add_fault(fault.clone(), SimTime::ZERO, SimTime(u64::MAX));
    }

    sim.crash(g.replicas[3].node, SimDuration::from_secs(5));
    for _ in 0..30 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(5));
    for _ in 0..20 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(settle);
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
        corrupt_replies: m.counter("transfer.corrupt_replies"),
        retransmissions: m.counter("transfer.retransmissions"),
    }
}

#[test]
fn recovery_converges_to_the_group_root() {
    let out = run_cold_recovery(10, &[], SimDuration::from_secs(10));
    assert!(out.state_transfers >= 1, "the lagging replica must state-transfer");
    assert_eq!(out.values[0], 50, "recovery must converge");
    assert_eq!(out.root, out.group_root, "the installed state must hash to the group's root");
    assert!(out.fetched_bytes > 0);
}

#[test]
fn recovery_survives_dropped_transfer_replies() {
    // A fault drops 30% of partition and object replies: the fetch window
    // retransmits and recovery still completes.
    let drop = |tag| NetFault::DropTagged { tag, prob: 0.3 };
    let faults = [drop(META_REPLY), drop(OBJECT_REPLY)];
    let out = run_cold_recovery(31, &faults, SimDuration::from_secs(25));
    assert!(out.state_transfers >= 1);
    assert_eq!(out.values[0], 50, "recovery must survive dropped transfer replies");
    assert_eq!(out.root, out.group_root);
    assert!(out.retransmissions >= 1, "the drops must have forced at least one retry");
}

#[test]
fn recovery_survives_corrupted_transfer_replies() {
    // Half of all partition and object replies are bit-flipped in flight:
    // a corrupt reply fails its digest check and the query is re-targeted
    // to the next source until an intact copy lands. State must still
    // converge to the correct values.
    let corrupt = |tag| NetFault::CorruptTagged { tag, prob: 0.5 };
    let faults = [corrupt(META_REPLY), corrupt(OBJECT_REPLY)];
    let out = run_cold_recovery(37, &faults, SimDuration::from_secs(40));
    assert!(out.state_transfers >= 1);
    assert_eq!(out.values[0], 50, "corrupt replies must never poison installed state");
    assert_eq!(out.root, out.group_root);
    assert!(
        out.corrupt_replies >= 1 || out.retransmissions >= 1,
        "the corruption must have forced at least one rejected reply or retry"
    );
}

#[test]
fn faulted_transfer_is_deterministic() {
    let run = || {
        let faults = [NetFault::CorruptTagged { tag: OBJECT_REPLY, prob: 0.5 }];
        run_cold_recovery(42, &faults, SimDuration::from_secs(40))
    };
    assert_eq!(run(), run());
}
