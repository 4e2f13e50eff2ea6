//! Unit tests for the client-side protocol ([`ClientCore`] via
//! [`ClientActor`]): reply-quorum counting, the digest-reply optimization,
//! MAC rejection, the read-only fallback, full-replier rotation, and the
//! retransmission schedule.
//!
//! A programmable `MockReplica` stands in for the whole replica group so
//! each test controls exactly which replies the client sees.

use base_crypto::{Authenticator, Digest, KeyDirectory, NodeKeys};
use base_pbft::config::{RTO, RTO_CEILING};
use base_pbft::cost::COST;
use base_pbft::messages::{ReplyMsg, RequestMsg};
use base_pbft::{ClientActor, Config, Message};
use base_simnet::{Actor, Context, NodeId, ProtocolEvent, SimDuration, Simulation, TraceEvent};

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
            result: result.into(),
            mac: base_crypto::Mac([0; 8]),
        };
        let to = req.client() as usize;
        reply.mac = reply.with_signed_bytes(|signed| Authenticator::point(&self.keys, to, signed));
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

/// The wire bytes of replica `replica`'s full reply to client 4's request
/// `timestamp`, MAC'd under the rig's keys.
fn full_reply(replica: u32, timestamp: u64, result: &[u8]) -> Vec<u8> {
    let keys = NodeKeys::new(KeyDirectory::generate(5, 404), replica as usize);
    let mut reply = ReplyMsg {
        view: 0,
        timestamp,
        client: 4,
        replica,
        digest_only: false,
        tentative: false,
        result: result.to_vec().into(),
        mac: base_crypto::Mac([0; 8]),
    };
    reply.mac = reply.with_signed_bytes(|signed| Authenticator::point(&keys, 4, signed));
    Message::Reply(reply).to_wire()
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
    for i in 0..4 {
        r.sim.inject(r.replicas[i], r.client, full_reply(i as u32, 1, b"ok:first"));
    }
    r.sim.run_for(SimDuration::from_millis(50));
    assert_eq!(completed(&r).len(), 1, "stale replies must not complete op 2");
}

/// Replies count only from the nodes the group's replicas live at: the
/// same correctly MAC'd replies sent from nodes outside the group (another
/// group's replicas on a shared network) are dropped before decoding and
/// cost the client nothing; from the replicas' nodes they complete the op.
#[test]
fn replies_from_outside_the_group_are_ignored_unread() {
    let mut r = rig([Policy::Mute; 4]);
    r.sim
        .actor_as_mut::<ClientActor>(r.client)
        .unwrap()
        .invoke(b"ping".to_vec(), false);
    r.sim.run_for(SimDuration::from_millis(5));
    let cpu = |r: &Rig| r.sim.stats().cpu_by[&r.client];
    let before = cpu(&r);
    for i in 0..4 {
        r.sim.inject(NodeId(5 + i), r.client, full_reply(i as u32, 1, b"ok:ping"));
    }
    r.sim.run_for(SimDuration::from_millis(1));
    assert!(completed(&r).is_empty(), "a reply from outside the group completed the op");
    assert_eq!(cpu(&r), before, "a reply from outside the group was charged for");
    for i in 0..4 {
        r.sim.inject(r.replicas[i], r.client, full_reply(i as u32, 1, b"ok:ping"));
    }
    r.sim.run_for(SimDuration::from_millis(1));
    assert_eq!(completed(&r), [(1, b"ok:ping".to_vec())]);
}

/// The client's submissions, retransmissions and completions, oldest first.
fn client_events(r: &Rig) -> Vec<TraceEvent> {
    let trace = r.sim.trace().expect("the rig records a trace");
    trace.iter().filter(|e| e.node == r.client).copied().collect()
}

fn set_policy(r: &mut Rig, policy: Policy) {
    for i in 0..4 {
        r.sim.actor_as_mut::<MockReplica>(r.replicas[i]).unwrap().policy = policy;
    }
}

/// Submits `op` and runs for `span`.
fn invoke_and_run(r: &mut Rig, op: &[u8], span: SimDuration) {
    r.sim.actor_as_mut::<ClientActor>(r.client).unwrap().invoke(op.to_vec(), false);
    r.sim.run_for(span);
}

/// The times (ns) at which op `ts` was submitted and retransmitted.
fn sends_of(events: &[TraceEvent], ts: u64) -> (u64, Vec<u64>) {
    let at = |kind: ProtocolEvent| -> Vec<u64> {
        events.iter().filter(|e| e.seq == ts && e.event == kind).map(|e| e.at.as_nanos()).collect()
    };
    let submitted = at(ProtocolEvent::ClientOpSubmitted);
    assert_eq!(submitted.len(), 1, "op {ts} submitted once");
    (submitted[0], at(ProtocolEvent::ClientRetransmit))
}

/// How long op `ts`'s first timer ran: from its submission to its first
/// retransmission.
fn first_wait(events: &[TraceEvent], ts: u64) -> SimDuration {
    let (submitted, retries) = sends_of(events, ts);
    let first = retries.first().unwrap_or_else(|| panic!("op {ts} never retransmitted"));
    SimDuration::from_nanos(first - submitted)
}

/// Four ops against a group that goes silent and answers again, as the
/// client's submissions, retransmissions and completions. Op 1 retransmits
/// into silence until its backoff is pinned at the cap and completes on a
/// later retransmission; op 2 starts at the doubled wait op 1 left behind
/// and is answered there too; op 3 completes without retransmission; op 4
/// then waits into silence again.
fn backoff_run() -> Vec<TraceEvent> {
    let mut r = rig([Policy::Mute; 4]);
    r.sim.record_trace();
    invoke_and_run(&mut r, b"a", SimDuration::from_secs(40));
    set_policy(&mut r, Policy::Honest);
    r.sim.run_for(SimDuration::from_secs(6));
    set_policy(&mut r, Policy::Mute);
    invoke_and_run(&mut r, b"b", SimDuration::from_millis(4_500));
    set_policy(&mut r, Policy::Honest);
    r.sim.run_for(SimDuration::from_secs(6));
    invoke_and_run(&mut r, b"c", SimDuration::from_millis(50));
    set_policy(&mut r, Policy::Mute);
    invoke_and_run(&mut r, b"d", SimDuration::from_millis(400));
    assert_eq!(completed(&r).len(), 3, "ops 1 to 3 complete, op 4 still waits");
    client_events(&r)
}

/// The virtual CPU time of building one request. A timer starts when the
/// handler that sets it finishes, so every gap in the backoff run also
/// holds this.
fn build() -> SimDuration {
    COST.digest(1) + COST.authenticator(4)
}

/// The base wait after attempt `attempts`: `RTO << attempts`, capped at
/// `RTO_CEILING`.
fn retry_base(attempts: u32) -> u64 {
    RTO.saturating_mul(1 << attempts.min(6)).min(RTO_CEILING).as_nanos()
}

/// Against a group that cannot answer, an op's first retransmission comes
/// `RTO` after its request leaves. The doubling carries over to the next op
/// until one completes without retransmission, which puts the following
/// op's first wait back at `RTO`.
#[test]
fn retransmissions_back_off_from_the_rto_and_a_clean_completion_resets_it() {
    let events = backoff_run();
    assert_eq!(
        first_wait(&events, 1),
        RTO + build(),
        "op 1's first retransmission comes one RTO after its request leaves"
    );
    // Op 1 completed on a retransmission, so the doubling carried over.
    assert_eq!(first_wait(&events, 2), RTO_CEILING + build());
    let (_, retries) = sends_of(&events, 3);
    assert!(retries.is_empty(), "op 3 completed without retransmission");
    assert_eq!(
        first_wait(&events, 4),
        RTO + build(),
        "a clean completion puts the next op's first wait back at one RTO"
    );
}

/// Each later retry of op 1 waits `RTO << attempts`, capped at
/// `RTO_CEILING`, plus jitter of at most a quarter of that: the base
/// doubles from `RTO` until the cap and stays there.
#[test]
fn retry_waits_double_from_the_rto_and_stop_at_the_ceiling() {
    let events = backoff_run();
    let (_, retries) = sends_of(&events, 1);
    // From the fifth retry on, `RTO << attempts` is past the cap.
    assert!(retries.len() >= 8, "op 1 retransmitted {} times in 40 s", retries.len());
    for (i, gap) in retries.windows(2).map(|w| w[1] - w[0]).enumerate() {
        let attempts = i as u32 + 1;
        let base = retry_base(attempts);
        let jitter = gap.checked_sub(build().as_nanos() + base).unwrap_or_else(|| {
            panic!("retry {attempts} waited {gap} ns, less than its base {base} ns")
        });
        assert!(jitter <= base / 4, "retry {attempts}: jitter {jitter} ns over {base} / 4");
    }
    assert_eq!(retry_base(1), 2 * RTO.as_nanos(), "the first retry doubles the RTO");
    assert_eq!(retry_base(5), RTO_CEILING.as_nanos(), "the fifth retry reaches the cap");
}

/// Every wait of every op, first timers and retries alike, lies between
/// `RTO` and `RTO_CEILING` plus a quarter of it, and the jitter is drawn:
/// some retry waits past its base.
#[test]
fn every_wait_lies_between_the_rto_and_the_jittered_ceiling() {
    let events = backoff_run();
    let ceiling = RTO_CEILING.as_nanos();
    let (lo, hi) = (RTO + build(), SimDuration::from_nanos(ceiling + ceiling / 4) + build());
    let mut jittered = 0;
    for ts in 1..=4 {
        let (submitted, retries) = sends_of(&events, ts);
        let sends: Vec<u64> = std::iter::once(submitted).chain(retries).collect();
        for (i, gap) in sends.windows(2).map(|w| w[1] - w[0]).enumerate() {
            let gap = SimDuration::from_nanos(gap);
            assert!(lo <= gap && gap <= hi, "op {ts}, wait {i}: {gap:?} outside {lo:?}..={hi:?}");
            if i > 0 {
                jittered += usize::from(gap.as_nanos() > build().as_nanos() + retry_base(i as u32));
            }
        }
    }
    assert!(jittered > 0, "no retry drew any jitter");
}

/// Two runs of the same schedule retransmit at the same times: the retry
/// jitter is seeded, not drawn from the clock.
#[test]
fn identical_runs_retransmit_identically() {
    let events = backoff_run();
    assert!(
        events.iter().any(|e| e.event == ProtocolEvent::ClientRetransmit),
        "the run retransmits"
    );
    assert_eq!(events, backoff_run(), "two runs agree event for event");
}
