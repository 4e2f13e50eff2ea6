//! Property tests for the simulator: determinism (identical histories for
//! identical seeds under arbitrary configurations) and basic delivery
//! invariants under random loss/partition settings.

use base_simnet::{Actor, Context, NetFault, NodeId, SimDuration, SimTime, Simulation};
use proptest::prelude::*;

/// An actor that gossips: on start and on every message it forwards a
/// decremented hop counter to a pseudo-random peer.
struct Gossip {
    peers: usize,
    sent: u64,
    received: u64,
}

impl Actor for Gossip {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let to = NodeId((ctx.id().0 + 1) % self.peers);
        ctx.send(to, vec![16]); // 16 hops.
        self.sent += 1;
        ctx.set_timer(SimDuration::from_millis(3), 1);
    }

    fn on_message(&mut self, _from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        self.received += 1;
        let hops = payload.first().copied().unwrap_or(0);
        if hops > 0 {
            use rand::Rng;
            let to = NodeId(ctx.rng().gen_range(0..self.peers));
            ctx.send(to, vec![hops - 1]);
            self.sent += 1;
            ctx.charge(SimDuration::from_micros(50));
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
        let to = NodeId((ctx.id().0 + 2) % self.peers);
        ctx.send(to, vec![4]);
        self.sent += 1;
        ctx.set_timer(SimDuration::from_millis(3), 1);
    }
}

fn run(seed: u64, nodes: usize, drop_milli: u16, cut: Option<(usize, usize)>, ms: u64) -> (u64, u64, u64, u64) {
    let mut sim = Simulation::new(seed);
    for _ in 0..nodes {
        sim.add_node(Box::new(Gossip { peers: nodes, sent: 0, received: 0 }));
    }
    let forever = SimTime(u64::MAX);
    if let Some((a, b)) = cut {
        let side = vec![NodeId(a % nodes), NodeId(b % nodes)];
        sim.add_fault(NetFault::Partition { nodes: side }, SimTime::ZERO, forever);
    }
    let prob = f64::from(drop_milli % 500) / 1000.0;
    sim.add_fault(NetFault::Drop { prob }, SimTime::ZERO, forever);
    sim.run_for(SimDuration::from_millis(ms));
    let mut sent = 0;
    let mut received = 0;
    for i in 0..nodes {
        let g = sim.actor_as::<Gossip>(NodeId(i)).unwrap();
        sent += g.sent;
        received += g.received;
    }
    (sent, received, sim.stats().messages_delivered, sim.stats().messages_dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same seed + same config ⇒ byte-identical history.
    #[test]
    fn determinism(seed: u64, nodes in 2usize..8, drop_milli: u16, ms in 5u64..60) {
        let a = run(seed, nodes, drop_milli, None, ms);
        let b = run(seed, nodes, drop_milli, None, ms);
        prop_assert_eq!(a, b);
    }

    /// Conservation: every sent message is delivered or dropped, and
    /// receivers never see more than was sent.
    #[test]
    fn delivery_conservation(seed: u64, nodes in 2usize..8, drop_milli: u16, cut: (usize, usize), ms in 5u64..60) {
        let (sent, received, delivered, dropped) = run(seed, nodes, drop_milli, Some(cut), ms);
        prop_assert!(received <= sent, "received {} > sent {}", received, sent);
        prop_assert!(delivered + dropped <= sent, "accounted {} > sent {}", delivered + dropped, sent);
        prop_assert_eq!(received, delivered);
    }

    /// With no loss and no cuts, everything in-flight eventually lands:
    /// after a long quiet tail, sent == delivered + still-queued; running
    /// to idle drains the queue completely.
    #[test]
    fn lossless_delivery(seed: u64, nodes in 2usize..6) {
        let mut sim = Simulation::new(seed);
        for _ in 0..nodes {
            sim.add_node(Box::new(OneShot { peers: nodes }));
        }
        sim.run_until_idle(base_simnet::SimTime(10_000_000_000));
        let delivered = sim.stats().messages_delivered;
        let sent = sim.stats().messages_sent;
        prop_assert_eq!(delivered, sent);
        prop_assert_eq!(sim.stats().messages_dropped, 0);
    }
}

/// Sends one message to every peer at start, then stays quiet.
struct OneShot {
    peers: usize,
}

impl Actor for OneShot {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.peers {
            if i != ctx.id().0 {
                ctx.send(NodeId(i), b"hello".to_vec());
            }
        }
    }

    fn on_message(&mut self, _f: NodeId, _p: &[u8], _ctx: &mut Context<'_>) {}
}
