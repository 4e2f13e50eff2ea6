//! Unit tests for the agreement/execution pipeline: the read-only
//! staleness guard (replies must reflect the last *executed* state, never
//! a committed-but-unexecuted backlog) and the tentative/committed reply
//! distinction on the wire.
//!
//! A single real [`Replica`] (backup 3) is stepped by hand through
//! hand-crafted protocol messages, so the test controls exactly which slots
//! commit and in which order — including a gap (seq 2 committed before
//! seq 1 arrives) that a live group only produces under message loss. Its
//! replies are the `Send` effects addressed to the client.

use base_crypto::{Authenticator, Digest, KeyDirectory, NodeKeys};
use base_pbft::messages::{CommitMsg, PrePrepareMsg, PrepareMsg, ReplyMsg, RequestMsg};
use base_pbft::testing::{op_add, op_get, CounterService};
use base_pbft::{ClientActor, Config, Deployment, Message, Replica};
use base_simnet::{Actor, Context, Effect, NodeId, SimDuration, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 4;
/// The replica under test (a backup; primary of view 0 is replica 0).
const RID: u32 = 3;
/// The client's key index / node id.
const CLIENT: u32 = 4;

struct Rig {
    replica: Replica<CounterService>,
    dir: KeyDirectory,
    now: SimTime,
    rng: StdRng,
    next_timer_id: u64,
    effects: Vec<Effect>,
    replies: Vec<ReplyMsg>,
}

fn rig() -> Rig {
    let mut cfg = Config::new(N);
    // Let the backup hold several unexecuted slots without hitting limits.
    cfg.max_inflight = 16;
    let dir = KeyDirectory::generate(N + 1, 77);
    let keys = NodeKeys::new(dir.clone(), RID as usize);
    let replica = Replica::new(cfg, keys, CounterService::default());
    Rig {
        replica,
        dir,
        now: SimTime::ZERO,
        rng: StdRng::seed_from_u64(77),
        next_timer_id: 0,
        effects: Vec::new(),
        replies: Vec::new(),
    }
}

impl Rig {
    fn keys(&self, id: usize) -> NodeKeys {
        NodeKeys::new(self.dir.clone(), id)
    }

    fn request(&self, ts: u64, read_only: bool, op: Vec<u8>) -> RequestMsg {
        // Full replier 3 = the replica under test, so replies carry the
        // full result rather than its digest.
        let mut r = RequestMsg::new(CLIENT, ts, read_only, RID, op);
        r.auth = Authenticator::generate(&self.keys(CLIENT as usize), N, &r.digest());
        r
    }

    fn pre_prepare(&self, seq: u64, requests: Vec<RequestMsg>) -> PrePrepareMsg {
        let primary = self.keys(0);
        let mut pp = PrePrepareMsg::new(0, seq, requests, Vec::new());
        pp.auth = pp.with_signed_bytes(|header| Authenticator::generate(&primary, N, header));
        pp
    }

    fn prepare(&self, seq: u64, digest: Digest, from: u32) -> PrepareMsg {
        let keys = self.keys(from as usize);
        let mut p = PrepareMsg { view: 0, seq, digest, replica: from, auth: Authenticator::default() };
        p.auth = p.with_signed_bytes(|header| Authenticator::generate(&keys, N, header));
        p
    }

    fn commit(&self, seq: u64, digest: Digest, from: u32) -> CommitMsg {
        let keys = self.keys(from as usize);
        let mut c = CommitMsg { view: 0, seq, digest, replica: from, auth: Authenticator::default() };
        c.auth = c.with_signed_bytes(|header| Authenticator::generate(&keys, N, header));
        c
    }

    /// Delivers the full agreement round for one slot: pre-prepare from
    /// the primary, prepares from backups 1–2, commits from 1–2 (the
    /// replica's own prepare and commit complete both quorums).
    fn commit_slot(&mut self, pp: PrePrepareMsg) {
        let digest = pp.batch_digest();
        let seq = pp.seq;
        self.inject(0, Message::PrePrepare(pp));
        for from in [1u32, 2] {
            let p = self.prepare(seq, digest, from);
            self.inject(from as usize, Message::Prepare(p));
        }
        for from in [1u32, 2] {
            let c = self.commit(seq, digest, from);
            self.inject(from as usize, Message::Commit(c));
        }
    }

    /// Steps the replica through one delivery of `msg` from node `from`,
    /// keeping the replies it sends the client.
    fn inject(&mut self, from: usize, msg: Message) {
        let mut ctx = Context::new(
            self.now,
            NodeId(RID as usize),
            &mut self.rng,
            &mut self.next_timer_id,
            &mut self.effects,
            None,
        );
        self.replica.on_payload(NodeId(from), &msg.to_payload(), &mut ctx);
        self.now += ctx.charged();
        let client = NodeId(CLIENT as usize);
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send { to, payload } if to == client => {
                    if let Some(Message::Reply(r)) = Message::from_payload(&payload) {
                        self.replies.push(r);
                    }
                }
                _ => {}
            }
        }
    }

    fn run(&mut self, ms: u64) {
        self.now += SimDuration::from_millis(ms);
    }

    fn replies(&self) -> Vec<ReplyMsg> {
        self.replies.clone()
    }

    fn replica(&self) -> &Replica<CounterService> {
        &self.replica
    }
}

/// The satellite scenario: seq 2 commits while seq 1 is still missing, so
/// the replica has agreed state it has not executed. A read-only request
/// arriving in that window must NOT be answered from the stale executed
/// state; it is deferred and answered — marked tentative — once execution
/// catches up and reflects every committed write.
#[test]
fn read_only_deferred_across_commit_gap() {
    let mut r = rig();
    let pp1 = r.pre_prepare(1, vec![r.request(1, false, op_add(0, 10))]);
    let pp2 = r.pre_prepare(2, vec![r.request(2, false, op_add(0, 32))]);

    // Commit seq 2 first: committed backlog with a gap at seq 1.
    r.commit_slot(pp2);
    r.run(50);
    assert_eq!(r.replica().last_exec(), 0, "gap at seq 1 must block execution");

    // Read-only arrives during the window: no reply may be sent.
    let ro = r.request(3, true, op_get(0));
    r.inject(CLIENT as usize, Message::Request(ro));
    r.run(50);
    assert!(
        r.replies().is_empty(),
        "read-only reply during a committed-but-unexecuted backlog would be stale"
    );

    // Fill the gap: both slots execute, then the deferred read drains.
    r.commit_slot(pp1);
    r.run(50);
    assert_eq!(r.replica().last_exec(), 2);
    assert_eq!(r.replica().service().value(0), 42);

    let replies = r.replies();
    let ro_reply = replies
        .iter()
        .find(|m| m.timestamp == 3)
        .expect("deferred read-only must be answered after execution catches up");
    assert!(ro_reply.tentative, "read-only replies bypass agreement and are tentative");
    assert_eq!(&ro_reply.result[..], b"42", "read reflects every committed write, not stale state");

    // The agreed writes replied too, and those are NOT tentative.
    for ts in [1u64, 2] {
        let reply = replies.iter().find(|m| m.timestamp == ts).expect("write replied");
        assert!(!reply.tentative, "agreed writes are committed replies");
    }
}

/// A read-only request with no backlog is answered immediately (no
/// deferral in the common case), still marked tentative.
#[test]
fn read_only_immediate_when_no_backlog() {
    let mut r = rig();
    let pp1 = r.pre_prepare(1, vec![r.request(1, false, op_add(5, 7))]);
    r.commit_slot(pp1);
    r.run(50);
    assert_eq!(r.replica().last_exec(), 1);

    let ro = r.request(2, true, op_get(5));
    r.inject(CLIENT as usize, Message::Request(ro));
    r.run(50);
    let replies = r.replies();
    let reply = replies.iter().find(|m| m.timestamp == 2).expect("answered without deferral");
    assert!(reply.tentative);
    assert_eq!(&reply.result[..], b"7");
}

/// End-to-end sanity for the pipeline gate: a group running with a deep
/// pipeline (agreement ahead of execution) completes every request and
/// converges — and a `max_inflight = 1` group (the serial lockstep oracle)
/// produces the same final state.
#[test]
fn pipelined_group_matches_serial_oracle() {
    let run = |depth: u64| -> (Vec<Vec<u8>>, u64) {
        let mut cfg = Config::new(N);
        cfg.max_inflight = depth;
        let mut sim = Simulation::new(9);
        let g = Deployment::build(&mut sim, cfg, 1, 9, |_| CounterService::default());
        let client = g.clients[0];
        {
            let c = sim.actor_as_mut::<ClientActor>(client).unwrap();
            for i in 0..30u64 {
                c.invoke(op_add(i % 4, i + 1), false);
            }
        }
        sim.run_for(SimDuration::from_secs(5));
        let results: Vec<Vec<u8>> = sim
            .actor_as::<ClientActor>(client)
            .unwrap()
            .completed
            .iter()
            .map(|(_, body)| body.clone())
            .collect();
        let value = sim
            .actor_as::<Replica<CounterService>>(g.replicas[0].node)
            .unwrap()
            .service()
            .value(0);
        (results, value)
    };

    let (oracle_results, oracle_value) = run(1);
    assert_eq!(oracle_results.len(), 30, "serial oracle completes everything");
    for depth in [4, 16] {
        let (results, value) = run(depth);
        assert_eq!(results, oracle_results, "depth={depth} diverged from the serial oracle");
        assert_eq!(value, oracle_value);
    }
}
