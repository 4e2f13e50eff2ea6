//! Groups that share one network are told apart by sender, not by wire
//! format: every group sends the one encoding, and only each group's
//! placement (`Config::node_base`, `Config::client_base`) decides whose
//! frames it reads. A replica drops a frame from another group's replica
//! before decoding it; the client side is `unit_client.rs`'s
//! `replies_from_outside_the_group_are_ignored_unread`.

use base::shard::counter_footprint;
use base::{build_sharded_group, CostModel, ShardLockService, ShardMap, ShardedClient, ShardedGroup};
use base_crypto::{Authenticator, NodeKeys};
use base_pbft::messages::RequestMsg;
use base_pbft::testing::{op_add, CounterService, COUNTER_REGS};
use base_pbft::{Config, Message, Replica};
use base_simnet::{NetFault, NodeId, SimDuration, SimTime, Simulation};

type LockedCounter = ShardLockService<CounterService>;

/// Two counter shards of four replicas each and one router: shard 0 on
/// nodes 0..4, shard 1 on nodes 4..8, the router on node 8.
fn two_shards(sim: &mut Simulation) -> ShardedGroup {
    let map = ShardMap::new(COUNTER_REGS, 2);
    build_sharded_group(sim, Config::new(4), map, 1, 7, counter_footprint, |_, _| {
        LockedCounter::new(CounterService::default(), counter_footprint)
    })
}

fn replica(sim: &Simulation, node: NodeId) -> &Replica<LockedCounter> {
    sim.actor_as(node).expect("replica")
}

/// A shard-0 replica drops a frame sent from a shard-1 replica's node
/// before decoding it: the drop counts as one rejected message, costs the
/// one `handle` charge, and changes nothing else. The same frame from the
/// router it names is a valid request and gets executed.
#[test]
fn another_groups_replica_is_refused_before_decoding() {
    let mut sim = Simulation::new(4242);
    let group = two_shards(&mut sim);
    sim.run_for(SimDuration::from_millis(10));
    let router = NodeKeys::new(group.dirs[0].clone(), 4);
    let mut req = RequestMsg::new(4, 1, false, 0, op_add(1, 10));
    req.auth = Authenticator::generate(&router, 4, &req.digest());
    let frame = Message::Request(req).to_wire();

    let primary = group.replicas[0][0];
    let seen = |sim: &Simulation| {
        let (r, net) = (replica(sim, primary), sim.stats());
        (r.status(), r.stats.clone(), net.cpu_by.get(&primary).copied(), net.messages_sent)
    };
    let (status, mut stats, cpu, sent) = seen(&sim);
    sim.inject(group.replicas[1][0], primary, frame.clone());
    sim.run_for(SimDuration::from_millis(1));
    stats.rejected_messages += 1;
    let after = seen(&sim);
    assert_eq!(after.0, status);
    assert_eq!(format!("{:?}", after.1), format!("{stats:?}"));
    assert_eq!(after.2, Some(cpu.unwrap_or_default() + CostModel::default().handle));
    assert_eq!(after.3, sent + 1, "the injected frame is the only send");

    sim.inject(group.clients[0], primary, frame);
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(replica(&sim, primary).last_exec(), 1);
    assert_eq!(replica(&sim, primary).stats.rejected_messages, 1);
}

/// A fault keyed on a message discriminant reaches every group alike:
/// dropping every COMMIT (tag 4) stops shard 1 from executing just as it
/// stops shard 0, because every group sends the one encoding.
#[test]
fn a_tag_keyed_fault_reaches_every_group() {
    let mut sim = Simulation::new(4242);
    let group = two_shards(&mut sim);
    sim.add_fault(NetFault::DropTagged { tag: 4, prob: 1.0 }, SimTime::ZERO, SimTime(u64::MAX));
    let router = sim.actor_as_mut::<ShardedClient>(group.clients[0]).expect("router");
    // Register 1 lives on shard 0, register 12 on shard 1.
    router.invoke(op_add(1, 10), false);
    router.invoke(op_add(12, 30), false);
    sim.run_for(SimDuration::from_secs(3));
    assert!(sim.actor_as::<ShardedClient>(group.clients[0]).expect("router").completed.is_empty());
    for (s, nodes) in group.replicas.iter().enumerate() {
        for &node in nodes {
            assert_eq!(replica(&sim, node).last_exec(), 0, "shard {s} executed without commits");
        }
    }
}
