//! Unit tests for the client-side protocol ([`ClientCore`] via
//! [`ClientActor`]): reply-quorum counting, the digest-reply optimization,
//! MAC rejection, the read-only fallback, and full-replier rotation.
//!
//! A programmable `MockReplica` stands in for the whole replica group so
//! each test controls exactly which replies the client sees.

use base_crypto::{Authenticator, Digest, KeyDirectory, NodeKeys};
use base_pbft::messages::{ReplyMsg, RequestMsg};
use base_pbft::{ClientActor, Config, Message};
use base_simnet::{Actor, Context, NodeId, SimDuration, Simulation};

/// What a mock replica does with each request it receives.
#[derive(Clone, Copy, PartialEq)]
enum Policy {
    /// Reply with the correct result (full body or digest depending on the
    /// request's `full_replier` designation).
    Honest,
    /// Reply with a *different* result (still correctly MAC'd).
    WrongResult,
    /// Reply with a garbage MAC.
    BadMac,
    /// Never reply.
    Mute,
}

struct MockReplica {
    keys: NodeKeys,
    id: u32,
    n: usize,
    policy: Policy,
    /// Requests seen, as (timestamp, full_replier, read_only, sender).
    seen: Vec<(u64, u32, bool, usize)>,
}

impl MockReplica {
    fn new(dir: KeyDirectory, id: u32, n: usize, policy: Policy) -> Self {
        Self { keys: NodeKeys::new(dir, id as usize), id, n, policy, seen: Vec::new() }
    }

    fn reply_to(&self, req: &RequestMsg, ctx: &mut Context<'_>) {
        let body: Vec<u8> = match self.policy {
            Policy::WrongResult => b"WRONG".to_vec(),
            _ => {
                let mut b = b"ok:".to_vec();
                b.extend_from_slice(req.op());
                b
            }
        };
        let designated = req.full_replier % self.n as u32 == self.id;
        let (digest_only, result) = if designated {
            (false, body)
        } else {
            (true, Digest::of(&body).0.to_vec())
        };
        let mut reply = ReplyMsg {
            view: 0,
            timestamp: req.timestamp(),
            client: req.client(),
            replica: self.id,
            digest_only,
            tentative: req.read_only(),
            result,
            mac: base_crypto::Mac([0; 8]),
        };
        reply.mac = Authenticator::point(&self.keys, req.client() as usize, &reply.digest());
        if self.policy == Policy::BadMac {
            reply.mac.0[0] ^= 0xff;
        }
        ctx.send(NodeId(req.client() as usize), Message::Reply(reply).to_wire());
    }
}

impl Actor for MockReplica {
    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        let Some(Message::Request(req)) = Message::from_wire(payload) else { return };
        self.seen.push((req.timestamp(), req.full_replier, req.read_only(), from.0));
        if self.policy == Policy::Mute {
            return;
        }
        // The mock primary stands in for ordering: it relays the request to
        // the backups the way a pre-prepare would carry it.
        if self.id == 0 && from.0 >= self.n && !req.read_only() {
            for i in 1..self.n {
                ctx.send(NodeId(i), payload.to_vec());
            }
        }
        self.reply_to(&req, ctx);
    }
}

struct Rig {
    sim: Simulation,
    replicas: Vec<NodeId>,
    client: NodeId,
}

fn rig(policies: [Policy; 4]) -> Rig {
    let cfg = Config::new(4);
    let mut sim = Simulation::new(404);
    let dir = KeyDirectory::generate(5, 404);
    let replicas: Vec<NodeId> = policies
        .iter()
        .enumerate()
        .map(|(i, p)| sim.add_node(Box::new(MockReplica::new(dir.clone(), i as u32, 4, *p))))
        .collect();
    let client =
        sim.add_node(Box::new(ClientActor::new(cfg, NodeKeys::new(dir, 4))));
    Rig { sim, replicas, client }
}

fn completed(r: &Rig) -> Vec<(u64, Vec<u8>)> {
    r.sim.actor_as::<ClientActor>(r.client).unwrap().completed.clone()
}

fn seen(r: &Rig, i: usize) -> Vec<(u64, u32, bool, usize)> {
    r.sim.actor_as::<MockReplica>(r.replicas[i]).unwrap().seen.clone()
}

#[test]
fn completes_on_reply_quorum() {
    let mut r = rig([Policy::Honest; 4]);
    r.sim
        .actor_as_mut::<ClientActor>(r.client)
        .unwrap()
        .invoke(b"ping".to_vec(), false);
    r.sim.run_for(SimDuration::from_millis(50));
    let done = completed(&r);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].1, b"ok:ping");
    // A read-write request goes only to the primary initially; backups
    // hear about it through the (mock) ordering relay, not the client.
    assert_eq!(seen(&r, 0).len(), 1);
    assert!(
        seen(&r, 1).iter().all(|(_, _, _, from)| *from == 0),
        "rw request must not be broadcast to backups on first send"
    );
}

#[test]
fn read_only_broadcasts_and_needs_larger_quorum() {
    // f = 1 honest replies are NOT enough for a read-only op (needs 2f+1);
    // with two mutes, the client falls back to the read-write path after
    // two attempts, which the (mock) primary then answers.
    let mut r = rig([Policy::Honest, Policy::Honest, Policy::Mute, Policy::Mute]);
    r.sim
        .actor_as_mut::<ClientActor>(r.client)
        .unwrap()
        .invoke(b"get".to_vec(), true);
    r.sim.run_for(SimDuration::from_millis(20));
    // Broadcast: every replica saw the read-only request.
    for i in 0..4 {
        assert_eq!(seen(&r, i).len(), 1, "replica {i} missed the ro broadcast");
        assert!(seen(&r, i)[0].2, "first attempt is read-only");
        assert_eq!(seen(&r, i)[0].3, 4, "ro requests come straight from the client");
    }
    // Two honest replies < 2f+1 = 3: still pending.
    assert!(completed(&r).is_empty());
    // After the fallback the request is re-issued read-write; f+1 = 2
    // matching replies complete it.
    r.sim.run_for(SimDuration::from_secs(5));
    let done = completed(&r);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].1, b"ok:get");
    let attempts = seen(&r, 0);
    assert!(
        attempts.iter().any(|(_, _, ro, _)| !ro),
        "read-only fallback must re-issue read-write"
    );
}

#[test]
fn wrong_result_votes_do_not_merge() {
    // One liar: its vote lands on a different digest and must not count
    // toward the honest quorum. The client still completes with the honest
    // result (3 honest ≥ f+1 and ≥ 2f+1).
    // The liar is replica 2, not the designated full-replier (ts 1 → 1).
    let mut r = rig([Policy::Honest, Policy::Honest, Policy::WrongResult, Policy::Honest]);
    r.sim
        .actor_as_mut::<ClientActor>(r.client)
        .unwrap()
        .invoke(b"val".to_vec(), true);
    r.sim.run_for(SimDuration::from_millis(200));
    let done = completed(&r);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].1, b"ok:val", "honest result wins despite the liar");
}

#[test]
fn bad_macs_are_rejected() {
    // Three replicas with corrupt MACs: their replies are dropped, one
    // honest voice is below quorum, so nothing completes within the first
    // timeout window.
    let mut r = rig([Policy::Honest, Policy::BadMac, Policy::BadMac, Policy::BadMac]);
    r.sim
        .actor_as_mut::<ClientActor>(r.client)
        .unwrap()
        .invoke(b"x".to_vec(), true);
    r.sim.run_for(SimDuration::from_millis(100));
    assert!(completed(&r).is_empty(), "forged MACs must not form a quorum");
}

#[test]
fn full_replier_rotates_across_retransmissions() {
    // The designated full-replier is mute; digest votes reach quorum but
    // the body is missing, so the client retransmits and rotates the
    // designation until a live replica supplies the full result.
    let mut r = rig([Policy::Honest; 4]);
    // Timestamp will be 1, so the initial designee is 1 % 4 = 1.
    let mute = 1usize;
    r.sim.actor_as_mut::<MockReplica>(r.replicas[mute]).unwrap().policy = Policy::Mute;
    r.sim
        .actor_as_mut::<ClientActor>(r.client)
        .unwrap()
        .invoke(b"body".to_vec(), false);
    r.sim.run_for(SimDuration::from_secs(10));
    let done = completed(&r);
    assert_eq!(done.len(), 1, "rotation must eventually deliver the full body");
    assert_eq!(done[0].1, b"ok:body");
    // The honest replica 0 observed at least two distinct designations.
    let designees: std::collections::HashSet<u32> =
        seen(&r, 0).iter().map(|(_, d, _, _)| *d).collect();
    assert!(designees.len() >= 2, "designation must rotate, saw {designees:?}");
    let retrans = r
        .sim
        .actor_as::<ClientActor>(r.client)
        .unwrap()
        .core()
        .retransmissions;
    assert!(retrans >= 1, "completion required a retransmission");
}

#[test]
fn operations_are_serialized_one_at_a_time() {
    let mut r = rig([Policy::Honest; 4]);
    {
        let c = r.sim.actor_as_mut::<ClientActor>(r.client).unwrap();
        for i in 0..5 {
            c.invoke(format!("op{i}").into_bytes(), false);
        }
        assert_eq!(c.core().queued(), 5);
    }
    r.sim.run_for(SimDuration::from_millis(200));
    let done = completed(&r);
    assert_eq!(done.len(), 5);
    // Timestamps are strictly increasing and results ordered.
    for (i, (ts, body)) in done.iter().enumerate() {
        assert_eq!(*ts, i as u64 + 1);
        assert_eq!(body, format!("ok:op{i}").as_bytes());
    }
    // The mock primary never saw two requests with the same timestamp and
    // never saw op k+1 before op k completed.
    let seen0: Vec<u64> = seen(&r, 0).iter().map(|(ts, _, _, _)| *ts).collect();
    let mut sorted = seen0.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(seen0, sorted, "one outstanding operation at a time");
}

#[test]
fn stale_timestamp_replies_are_ignored() {
    // A replica that echoes an old timestamp must not complete the current
    // operation: drive op 1 to completion, then during op 2 inject a
    // hand-built reply for timestamp 1 from every replica. Op 2 completes
    // only with its own replies.
    let mut r = rig([Policy::Honest; 4]);
    r.sim
        .actor_as_mut::<ClientActor>(r.client)
        .unwrap()
        .invoke(b"first".to_vec(), false);
    r.sim.run_for(SimDuration::from_millis(50));
    assert_eq!(completed(&r).len(), 1);

    // Mute everyone, start op 2, then feed stale ts=1 replies.
    for i in 0..4 {
        r.sim.actor_as_mut::<MockReplica>(r.replicas[i]).unwrap().policy = Policy::Mute;
    }
    r.sim
        .actor_as_mut::<ClientActor>(r.client)
        .unwrap()
        .invoke(b"second".to_vec(), false);
    r.sim.run_for(SimDuration::from_millis(5));
    let dir = KeyDirectory::generate(5, 404);
    for i in 0..4u32 {
        let keys = NodeKeys::new(dir.clone(), i as usize);
        let mut reply = ReplyMsg {
            view: 0,
            timestamp: 1,
            client: 4,
            replica: i,
            digest_only: false,
            tentative: false,
            result: b"ok:first".to_vec(),
            mac: base_crypto::Mac([0; 8]),
        };
        reply.mac = Authenticator::point(&keys, 4, &reply.digest());
        r.sim.inject(r.replicas[i as usize], r.client, Message::Reply(reply).to_wire());
    }
    r.sim.run_for(SimDuration::from_millis(50));
    assert_eq!(completed(&r).len(), 1, "stale replies must not complete op 2");
}
