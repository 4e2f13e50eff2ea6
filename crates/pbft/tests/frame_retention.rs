//! What may hold a received frame, and for how long (DESIGN.md §11.7).
//!
//! A receiver decodes the frame it was handed, and the variable-length
//! fields of a request, a pre-prepare and a reply are ranges of that frame.
//! So a logged pre-prepare holds its frame, and that is bounded by the log:
//! once the stable checkpoint passes a slot, nothing holds the slot's frame
//! any more. A client copies a completed result out of the reply frame, so
//! nothing holds a reply frame once its operation completes. The primary
//! logs the pre-prepare decoded from the frame it multicast, so a slot's
//! batch lives in that one frame at every replica, and a client's request
//! frame is let go once the request is proposed.

use base_crypto::NodeKeys;
use base_pbft::testing::{op_add, CounterService};
use base_pbft::{ClientActor, Config, Deployment, Message, Replica};
use base_simnet::{Actor, Context, NodeId, Payload, SimDuration, Simulation};

/// An actor that hands every frame to `inner` and keeps a handle on it.
struct Keeps<A> {
    inner: A,
    frames: Vec<Payload>,
}

impl<A> Keeps<A> {
    fn new(inner: A) -> Self {
        Self { inner, frames: Vec::new() }
    }
}

impl<A: Actor> Actor for Keeps<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        self.on_payload(from, &Payload::from(payload), ctx);
    }

    fn on_payload(&mut self, from: NodeId, payload: &Payload, ctx: &mut Context<'_>) {
        self.frames.push(payload.clone());
        self.inner.on_payload(from, payload, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        self.inner.on_timer(token, ctx);
    }
}

type Backup = Keeps<Replica<CounterService>>;

#[test]
fn a_frame_is_let_go_when_its_slot_is_collected_and_a_reply_frame_at_completion() {
    const OPS: usize = 140;
    let mut sim = Simulation::new(7);
    let cfg = Config::new(4);
    let mut d = Deployment::new(cfg.clone(), 1, 7);
    for _ in 0..cfg.n {
        d.replica(&mut sim, CounterService::default());
    }
    // Backup 1 keeps a handle on every frame it is handed.
    let backup = d.replicas[1].node;
    let keys = NodeKeys::new(d.dir.clone(), 1);
    sim.replace_node(backup, Box::new(Keeps::new(Replica::new(cfg, keys, CounterService::default()))));
    let client = d.client(&mut sim, |cfg, keys| Keeps::new(ClientActor::new(cfg, keys)));
    let actor = sim.actor_as_mut::<Keeps<ClientActor>>(client).unwrap();
    for _ in 0..OPS {
        actor.inner.invoke(op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(5));

    let client = sim.actor_as::<Keeps<ClientActor>>(client).unwrap();
    assert_eq!(client.inner.completed.len(), OPS);
    assert!(client.frames.len() >= OPS, "at least one reply frame an operation");
    for frame in &client.frames {
        assert_eq!(Payload::ref_count(frame), 1, "a completed result holds its reply frame");
    }

    let backup = sim.actor_as::<Backup>(backup).unwrap();
    let stable = backup.inner.stable_seq();
    assert_eq!((stable, backup.inner.last_exec()), (128, OPS as u64));
    let (mut collected, mut logged) = (0, 0);
    for frame in &backup.frames {
        let Some(Message::PrePrepare(pp)) = Message::from_payload(frame) else { continue };
        let seq = pp.seq;
        drop(pp);
        // What is left is this test's handle and whatever the replica holds.
        if seq <= stable {
            assert_eq!(Payload::ref_count(frame), 1, "slot {seq} is collected, its frame held");
            collected += 1;
        } else {
            assert!(Payload::ref_count(frame) > 1, "slot {seq} is logged, its frame let go");
            logged += 1;
        }
    }
    assert_eq!((collected, logged), (128, OPS - 128));
}

#[test]
fn the_primary_logs_the_frame_its_backups_hold_and_lets_the_request_frame_go() {
    let mut sim = Simulation::new(7);
    let cfg = Config::new(4);
    let mut d = Deployment::new(cfg.clone(), 1, 7);
    for _ in 0..cfg.n {
        d.replica(&mut sim, CounterService::default());
    }
    // The primary and backup 1 keep a handle on every frame they are handed.
    for i in [0, 1] {
        let keys = NodeKeys::new(d.dir.clone(), i);
        let replica = Replica::new(cfg.clone(), keys, CounterService::default());
        sim.replace_node(d.replicas[i].node, Box::new(Keeps::new(replica)));
    }
    let client = d.client(&mut sim, ClientActor::new);
    sim.actor_as_mut::<ClientActor>(client).unwrap().invoke(op_add(0, 1), false);
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.actor_as::<ClientActor>(client).unwrap().completed.len(), 1);
    for r in &d.replicas {
        let last_exec = match sim.actor_as::<Backup>(r.node) {
            Some(kept) => kept.inner.last_exec(),
            None => sim.actor_as::<Replica<CounterService>>(r.node).unwrap().last_exec(),
        };
        assert_eq!(last_exec, 1, "replica {} executed the write", r.node);
    }

    let primary = sim.actor_as::<Backup>(d.replicas[0].node).unwrap();
    let requests: Vec<&Payload> = primary
        .frames
        .iter()
        .filter(|f| matches!(Message::from_payload(f), Some(Message::Request(_))))
        .collect();
    assert_eq!(requests.len(), 1, "the primary was handed the request once");
    assert_eq!(Payload::ref_count(requests[0]), 1, "the proposed request's frame is let go");

    let backup = sim.actor_as::<Backup>(d.replicas[1].node).unwrap();
    let pre_prepares: Vec<&Payload> = backup
        .frames
        .iter()
        .filter(|f| matches!(Message::from_payload(f), Some(Message::PrePrepare(_))))
        .collect();
    assert_eq!(pre_prepares.len(), 1, "backup 1 was handed the pre-prepare once");
    let frame = pre_prepares[0];
    // How many handles one decoded pre-prepare holds on its frame.
    let held = {
        let before = Payload::ref_count(frame);
        let decoded = Message::from_payload(frame);
        let after = Payload::ref_count(frame);
        drop(decoded);
        after - before
    };
    assert!(held > 0, "a decoded pre-prepare borrows its frame");
    assert_eq!(
        Payload::ref_count(frame),
        1 + cfg.n * held,
        "the test's handle and the logged pre-prepare of all four replicas, the primary's included"
    );
}
