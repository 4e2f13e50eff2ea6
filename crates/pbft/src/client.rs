//! The PBFT client: `invoke` semantics, reply quorum matching,
//! retransmission, and the read-only optimization.

use crate::config::{Config, RTO_CEILING, RTO_FLOOR};
use crate::cost::CostModel;
use crate::messages::{Message, ReplyMsg, RequestMsg};
use base_crypto::{Authenticator, NodeKeys};
use base_simnet::{
    Actor, Context, MetricsRegistry, NodeId, ProtocolEvent, RttEstimator, SimDuration, TimerId,
};
use std::collections::VecDeque;

/// Timer token used by the embedded client core (high bit set so embedding
/// actors can use low token values freely).
pub const TOKEN_CLIENT_RETRANS: u64 = 1 << 63;
/// Timer token for the [`ClientActor`] pump.
const TOKEN_PUMP: u64 = (1 << 63) | 1;

/// A completed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// The operation with this timestamp completed with this result.
    Completed {
        /// Request timestamp (invocation id).
        timestamp: u64,
        /// Agreed result (matched by a quorum of replies).
        result: Vec<u8>,
    },
}

/// One result the replies for the pending operation vouch for.
#[derive(Debug)]
struct Vouched {
    /// The result's digest as replies carry it. A digest reply's is whatever
    /// bytes it holds: not 32 of them, it matches no body and only ever
    /// counts as a conflict.
    digest: Vec<u8>,
    /// Bit `r`: replica `r`'s latest reply carries `digest`.
    voters: u64,
    /// The result itself, once a full reply has supplied it.
    body: Option<Vec<u8>>,
}

/// Replies gathered for the pending operation (digest and full replies both
/// vote by result digest; a full reply also supplies the body).
///
/// A replica's vote is its latest reply: a new digest withdraws it from the
/// old one, and a result nobody vouches for any more is forgotten, body and
/// all. So there are at most `n` entries however many answers a faulty
/// replica sends, and a replica only ever moves its own bit. While no
/// replica changes its answer — correct ones do not, for anything that went
/// through agreement — this counts what a set of voters per digest counts.
#[derive(Debug, Default)]
struct ReplyTally {
    entries: Vec<Vouched>,
}

impl ReplyTally {
    /// Counts `replica`'s reply; returns the entry it now vouches for.
    fn record(&mut self, replica: u32, digest_only: bool, result: Vec<u8>) -> usize {
        let sha;
        let digest: &[u8] = if digest_only {
            &result
        } else {
            sha = base_crypto::Digest::of(&result);
            &sha.0
        };
        let bit = 1u64 << replica;
        self.entries.retain_mut(|e| {
            e.digest == digest || {
                e.voters &= !bit;
                e.voters != 0
            }
        });
        let at = self.entries.iter().position(|e| e.digest == digest).unwrap_or_else(|| {
            self.entries.push(Vouched { digest: digest.to_vec(), voters: 0, body: None });
            self.entries.len() - 1
        });
        let entry = &mut self.entries[at];
        entry.voters |= bit;
        if !digest_only && entry.body.is_none() {
            entry.body = Some(result);
        }
        at
    }
}

#[derive(Debug)]
struct Pending {
    ts: u64,
    op: Vec<u8>,
    read_only: bool,
    replies: ReplyTally,
    attempts: u32,
    timer: Option<TimerId>,
    submitted_at_ns: u64,
}

/// The client-side replication protocol, embeddable in any actor (the NFS
/// relay embeds one; [`ClientActor`] is a ready-made standalone driver).
///
/// This realizes the `invoke` entry point of the BASE interface (paper
/// Figure 1): one outstanding operation at a time, completion when `f+1`
/// matching replies arrive (`2f+1` for read-only operations).
pub struct ClientCore {
    cfg: Config,
    keys: NodeKeys,
    cost: CostModel,
    id: u32,
    next_ts: u64,
    view_guess: u64,
    pending: Option<Pending>,
    queue: VecDeque<(Vec<u8>, bool)>,
    /// Completed-operation latencies in nanoseconds (for experiments).
    pub latencies_ns: Vec<u64>,
    /// Number of retransmissions performed.
    pub retransmissions: u64,
    /// Read-only operations that fell back to the full quorum path.
    pub ro_degradations: u64,
    /// **Fault injection (tests only):** accept the first full reply
    /// without waiting for a quorum. This deliberately breaks the client's
    /// safety — a single Byzantine replica can then feed it a fabricated
    /// result — and exists so chaos-campaign auditors can demonstrate they
    /// catch reply-certificate violations. Never enable outside tests.
    pub bug_accept_first_reply: bool,
    /// **Fault injection (tests only):** swallow the retransmission timer.
    /// A request lost to a partition is then never retried — a liveness
    /// (not safety) bug, seeded so the chaos engine's heal-to-progress
    /// auditor can demonstrate it catches stalls. Never enable outside
    /// tests.
    pub bug_never_retransmit: bool,
    /// When false, a completed operation does not immediately pump the next
    /// queued one; the embedding actor paces submissions itself (see
    /// [`ClientActor::set_pace`]).
    pub auto_pump: bool,
    /// Client-side metrics (request latency, retransmissions, quorum
    /// degradations).
    pub metrics: MetricsRegistry,
    /// Adaptive retransmission timeout, fed by completed-operation
    /// latencies.
    rtt: RttEstimator,
    /// Persistent RTO backoff exponent (RFC 6298 §5.5-5.7): Karn's
    /// algorithm discards retransmitted samples, so when *every* exchange
    /// is retransmitted the estimator alone could never adapt upward.
    /// Each timeout doubles the effective RTO for subsequent sends; the
    /// next clean (unretransmitted) completion resets it.
    rto_shift: u32,
    /// Timer token used for this core's retransmission timer
    /// ([`TOKEN_CLIENT_RETRANS`] by default). Actors embedding several
    /// cores — the sharded router hosts one per replica group — give each
    /// a distinct token so timers route to the right core.
    retrans_token: u64,
}

impl ClientCore {
    /// Creates a client core. The node id is taken from `keys` and must be
    /// `>= n` (clients are not replicas).
    pub fn new(cfg: Config, keys: NodeKeys) -> Self {
        let id = keys.id() as u32;
        assert!(id as usize >= cfg.n, "client ids start after replica ids");
        // Seed the jitter stream per client so concurrent retries
        // de-synchronize without consuming simulator RNG.
        let rtt = RttEstimator::new(
            0x9e37_79b9_7f4a_7c15 ^ u64::from(id),
            RTO_FLOOR.as_nanos(),
            RTO_CEILING.as_nanos(),
            cfg.client_timeout.as_nanos(),
        );
        Self {
            cfg,
            keys,
            cost: CostModel::default(),
            id,
            next_ts: 0,
            view_guess: 0,
            pending: None,
            queue: VecDeque::new(),
            latencies_ns: Vec::new(),
            retransmissions: 0,
            ro_degradations: 0,
            bug_accept_first_reply: false,
            bug_never_retransmit: false,
            rto_shift: 0,
            auto_pump: true,
            metrics: MetricsRegistry::new(),
            rtt,
            retrans_token: TOKEN_CLIENT_RETRANS,
        }
    }

    /// Overrides the retransmission-timer token (embedders hosting several
    /// cores in one actor). Must keep the high bit set so it never collides
    /// with an embedding actor's own low-valued tokens.
    pub fn set_retrans_token(&mut self, token: u64) {
        assert!(token & (1 << 63) != 0, "client timer tokens keep the high bit");
        self.retrans_token = token;
    }

    /// Overrides the CPU cost model (ablations).
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
    }

    /// The current adaptive retransmission timeout (`client_timeout` until
    /// the first completion seeds the estimator).
    pub fn current_rto(&self) -> SimDuration {
        SimDuration::from_nanos(self.rtt.rto())
    }

    /// Queues an operation. Call [`ClientCore::pump`] afterwards (with a
    /// context) to actually send it.
    pub fn submit(&mut self, op: Vec<u8>, read_only: bool) {
        self.queue.push_back((op, read_only));
    }

    /// True if an operation is in flight.
    pub fn busy(&self) -> bool {
        self.pending.is_some()
    }

    /// Number of queued (unsent) operations.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Sends the next queued operation if none is in flight.
    pub fn pump(&mut self, ctx: &mut Context<'_>) {
        if self.pending.is_some() {
            return;
        }
        let Some((op, read_only)) = self.queue.pop_front() else { return };
        self.next_ts += 1;
        let ts = self.next_ts;
        let req = self.build_request(ts, op.clone(), read_only, 0, ctx);
        if read_only {
            // Read-only requests go straight to all replicas.
            self.broadcast(&req, ctx);
        } else {
            let primary = self.cfg.primary_of(self.view_guess);
            ctx.send(self.cfg.replica_node(primary), req.to_payload(self.cfg.shard));
        }
        ctx.emit(self.view_guess, ts, ProtocolEvent::ClientOpSubmitted);
        // Jacobson/Karels RTO (equal to `client_timeout` until the first
        // clean completion seeds the estimator), doubled once per
        // unresolved timeout so a chronically underestimated RTO still
        // adapts upward despite Karn discarding its samples.
        let timeout = SimDuration::from_nanos(self.rtt.backoff(self.rto_shift));
        let timer = ctx.set_timer(timeout, self.retrans_token);
        self.pending = Some(Pending {
            ts,
            op,
            read_only,
            replies: ReplyTally::default(),
            attempts: 0,
            timer: Some(timer),
            submitted_at_ns: ctx.now().as_nanos(),
        });
    }

    /// Builds the authenticated request, already wrapped in the envelope
    /// it is sent in: no caller keeps the bare request afterwards.
    fn build_request(
        &mut self,
        ts: u64,
        op: Vec<u8>,
        read_only: bool,
        attempts: u32,
        ctx: &mut Context<'_>,
    ) -> Message {
        // Rotate the designated full-replier across retransmissions so
        // a faulty designee cannot starve us of the full result.
        let full_replier = ((ts + u64::from(attempts)) % self.cfg.n as u64) as u32;
        let mut req = RequestMsg::new(self.id, ts, read_only, full_replier, op);
        ctx.charge(self.cost.digest(req.op().len()) + self.cost.authenticator(self.cfg.n));
        req.auth = Authenticator::generate(&self.keys, self.cfg.n, &req.digest());
        Message::Request(req)
    }

    fn broadcast(&self, req: &Message, ctx: &mut Context<'_>) {
        // Encode once; every replica shares the same allocation.
        let wire = req.to_payload(self.cfg.shard);
        for i in 0..self.cfg.n {
            ctx.send(self.cfg.replica_node(i), wire.clone());
        }
    }

    /// Processes an incoming message. Returns a completion event when the
    /// pending operation gathers its reply quorum.
    pub fn on_message(
        &mut self,
        _from: NodeId,
        payload: &[u8],
        ctx: &mut Context<'_>,
    ) -> Option<ClientEvent> {
        let Some((shard, Message::Reply(reply))) = Message::from_wire_tagged(payload) else {
            return None;
        };
        if shard != self.cfg.shard {
            return None;
        }
        self.on_reply(reply, ctx)
    }

    fn on_reply(&mut self, reply: ReplyMsg, ctx: &mut Context<'_>) -> Option<ClientEvent> {
        if reply.client != self.id || reply.replica as usize >= self.cfg.n {
            return None;
        }
        ctx.charge(self.cost.mac + self.cost.digest(reply.result.len()));
        if !Authenticator::check_point(
            &self.keys,
            reply.replica as usize,
            &reply.digest(),
            &reply.mac,
        ) {
            return None;
        }
        self.view_guess = self.view_guess.max(reply.view);

        let needed = {
            let pending = self.pending.as_ref()?;
            if reply.timestamp != pending.ts {
                return None;
            }
            if pending.read_only {
                self.cfg.quorum()
            } else {
                self.cfg.reply_quorum()
            }
        };
        let pending = self.pending.as_mut()?;
        let at = pending.replies.record(reply.replica, reply.digest_only, reply.result);
        let vouched = &pending.replies.entries[at];
        let enough_votes =
            vouched.voters.count_ones() as usize >= needed || self.bug_accept_first_reply;
        // Votes may be complete while the body is still to come from the
        // designated replica (retransmission rotates a faulty designee).
        if vouched.body.is_none() || !enough_votes {
            return None;
        }

        // Quorum reached with a matching full result: complete.
        let mut done = self.pending.take().expect("checked above");
        let result = done.replies.entries.swap_remove(at).body.expect("checked above");
        if let Some(t) = done.timer {
            ctx.cancel_timer(t);
        }
        let latency = ctx.now().as_nanos().saturating_sub(done.submitted_at_ns);
        self.latencies_ns.push(latency);
        self.metrics.observe("client.request_latency_ns", latency);
        if done.attempts == 0 {
            // Karn's algorithm: an operation that needed retransmission is
            // an ambiguous sample — its latency includes the backoff waits
            // and whatever fault it rode out, which would inflate the RTO
            // and suppress the very retransmissions that drive recovery.
            self.rtt.observe(latency);
            self.rto_shift = 0;
        }
        if done.attempts > 0 {
            // An op that needed retransmission was pending across some
            // disruption; its total latency is the client-visible
            // heal-to-progress cost.
            self.metrics.observe("client.heal_to_progress_ns", latency);
        }
        ctx.emit(self.view_guess, done.ts, ProtocolEvent::ClientOpCompleted);
        if self.auto_pump {
            self.pump(ctx);
        }
        Some(ClientEvent::Completed { timestamp: done.ts, result })
    }

    /// Handles the retransmission timer. Returns true if the token belonged
    /// to this core.
    pub fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) -> bool {
        if token != self.retrans_token {
            return false;
        }
        if self.bug_never_retransmit {
            // Seeded liveness bug: drop the timer on the floor. The op
            // stays pending forever if its request was lost.
            if let Some(p) = self.pending.as_mut() {
                p.timer = None;
            }
            return true;
        }
        let Some(pending) = self.pending.as_mut() else { return true };
        pending.attempts += 1;
        pending.timer = None;
        self.retransmissions += 1;
        self.metrics.inc("client.retransmissions");
        let pending_ts = pending.ts;
        ctx.emit(self.view_guess, pending_ts, ProtocolEvent::ClientRetransmit);
        let pending = self.pending.as_mut().expect("still pending");

        // Read-only fallback: reissue through the full quorum protocol
        // after two failed attempts, or immediately when the immediate
        // replies already conflict — under a partition (or with Byzantine
        // repliers) the 2f+1 matching immediate replies may never arrive,
        // and waiting out another fast-path round trip cannot help.
        let (ts, op, read_only, attempts) =
            (pending.ts, pending.op.clone(), pending.read_only, pending.attempts);
        let conflicted = pending.replies.entries.len() > 1;
        let effective_ro = read_only && attempts < 2 && !conflicted;
        if read_only && !effective_ro {
            pending.read_only = false;
            pending.replies.entries.clear();
            self.ro_degradations += 1;
            self.metrics.inc("client.ro_degradations");
            ctx.emit(self.view_guess, ts, ProtocolEvent::ReplyQuorumDegraded);
        }
        let req = self.build_request(ts, op, effective_ro, attempts, ctx);
        // Retransmissions are broadcast so backups can nudge the primary
        // (or trigger a view change if it is faulty).
        self.broadcast(&req, ctx);

        // Exponential backoff with jitter: up to a quarter of the base
        // backoff of extra delay, so the retry storms of many clients
        // recovering from one partition do not synchronize.
        let attempts = self.pending.as_ref().map(|p| p.attempts).unwrap_or(1);
        self.rto_shift = (self.rto_shift + 1).min(6);
        // RTO-based backoff with seeded jitter: deterministic, and no
        // simulator RNG is consumed on the retry path.
        let delay = SimDuration::from_nanos(self.rtt.jittered_backoff(attempts, ts));
        let timer = ctx.set_timer(delay, self.retrans_token);
        if let Some(p) = self.pending.as_mut() {
            p.timer = Some(timer);
        }
        true
    }
}

/// A standalone client actor: `invoke` operations, run the simulation, then
/// read `completed`. The core carries out the client side of the
/// replication protocol and the result is recorded once enough replicas
/// have responded (f+1 matching replies; 2f+1 for read-only operations).
/// For request/reply pipelines embedded in other actors (like the NFS
/// relay), use [`ClientCore`] directly.
pub struct ClientActor {
    core: ClientCore,
    pace: SimDuration,
    /// Completed operations as (timestamp, result) pairs, in order.
    pub completed: Vec<(u64, Vec<u8>)>,
}

impl ClientActor {
    /// Creates a client. Its node id (from `keys`) must be `>= n`.
    pub fn new(cfg: Config, keys: NodeKeys) -> Self {
        Self {
            core: ClientCore::new(cfg, keys),
            pace: SimDuration::from_millis(1),
            completed: Vec::new(),
        }
    }

    /// Spaces submissions at least `gap` apart instead of firing the next
    /// queued operation the moment one completes (chaos campaigns use this
    /// to spread the workload across the fault schedule).
    pub fn set_pace(&mut self, gap: SimDuration) {
        self.pace = gap;
        self.core.auto_pump = false;
    }

    /// Invokes an operation on the replicated service (paper Figure 1:
    /// `invoke(req, rep, read_only)`). Returns immediately; the result
    /// appears in [`ClientActor::completed`] once the reply quorum arrives.
    pub fn invoke(&mut self, op: Vec<u8>, read_only: bool) {
        self.core.submit(op, read_only);
    }

    /// Access to the embedded core (latency stats etc.).
    pub fn core(&self) -> &ClientCore {
        &self.core
    }

    /// Mutable access to the embedded core (cost-model overrides).
    pub fn core_mut(&mut self) -> &mut ClientCore {
        &mut self.core
    }

    /// True when nothing is queued or in flight.
    pub fn idle(&self) -> bool {
        !self.core.busy() && self.core.queued() == 0
    }
}

impl Actor for ClientActor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.core.pump(ctx);
        ctx.set_timer(self.pace, TOKEN_PUMP);
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        if let Some(ClientEvent::Completed { timestamp, result }) =
            self.core.on_message(from, payload, ctx)
        {
            self.completed.push((timestamp, result));
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if token == TOKEN_PUMP {
            self.core.pump(ctx);
            ctx.set_timer(self.pace, TOKEN_PUMP);
            return;
        }
        self.core.on_timer(token, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use base_crypto::Digest;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap};

    const N: u32 = 7;

    /// The tally as it was: a set of voters per digest, bodies in a
    /// second map keyed by the same digest, both growing with every new
    /// digest any replica sends.
    #[derive(Default)]
    struct MapModel {
        votes: HashMap<Vec<u8>, BTreeSet<u32>>,
        full: HashMap<Vec<u8>, Vec<u8>>,
    }

    /// What `on_reply` and `on_timer` read off the tally after a reply:
    /// votes for the reply's digest, the body if one is known, and how
    /// many distinct digests have votes (more than one is the conflict that
    /// degrades a read-only operation).
    type Reading = (usize, Option<Vec<u8>>, usize);

    impl MapModel {
        fn record(&mut self, replica: u32, digest_only: bool, result: Vec<u8>) -> Reading {
            let digest = if digest_only {
                result
            } else {
                let d = Digest::of(&result).0.to_vec();
                self.full.insert(d.clone(), result);
                d
            };
            self.votes.entry(digest.clone()).or_default().insert(replica);
            (self.votes[&digest].len(), self.full.get(&digest).cloned(), self.votes.len())
        }
    }

    fn read(tally: &mut ReplyTally, replica: u32, digest_only: bool, result: Vec<u8>) -> Reading {
        let at = tally.record(replica, digest_only, result);
        let e = &tally.entries[at];
        (e.voters.count_ones() as usize, e.body.clone(), tally.entries.len())
    }

    /// One of a few results a replica may answer with: a body, or digest
    /// bytes of a length no SHA-256 output has.
    #[derive(Debug, Clone)]
    enum Answer {
        Body(u8),
        Malformed(Vec<u8>),
    }

    impl Answer {
        /// The reply carrying this answer, as `(digest_only, result)`.
        fn reply(&self, full: bool) -> (bool, Vec<u8>) {
            match self {
                Answer::Body(k) => {
                    let body = vec![*k; 3 + usize::from(*k)];
                    if full {
                        (false, body)
                    } else {
                        (true, Digest::of(&body).0.to_vec())
                    }
                }
                Answer::Malformed(bytes) => (true, bytes.clone()),
            }
        }
    }

    fn answer() -> impl Strategy<Value = Answer> {
        prop_oneof![
            4 => (0u8..3).prop_map(Answer::Body),
            1 => proptest::collection::vec(any::<u8>(), 0..40)
                .prop_map(|mut b| {
                    if b.len() == 32 {
                        b.push(0);
                    }
                    Answer::Malformed(b)
                }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// While every replica stands by one answer — sent as a digest or
        /// in full, once or many times, bodies before votes or after — the
        /// tally reads exactly as the maps did, reply for reply.
        #[test]
        fn steady_replicas_tally_as_the_maps_did(
            answers in proptest::collection::vec(answer(), N as usize),
            replies in proptest::collection::vec((0..N, any::<bool>()), 1..60),
        ) {
            let (mut tally, mut model) = (ReplyTally::default(), MapModel::default());
            for (replica, full) in replies {
                let (digest_only, result) = answers[replica as usize].reply(full);
                let expected = model.record(replica, digest_only, result.clone());
                prop_assert_eq!(read(&mut tally, replica, digest_only, result), expected);
            }
        }

        /// Whatever the replicas send, changes of mind included: never
        /// more entries than replicas, each replica counted once, under its
        /// latest answer; and the tally never reads more votes, another
        /// body, or fewer conflicts' worth of agreement than the maps did,
        /// so it completes nothing the maps would not have completed.
        #[test]
        fn fickle_replicas_are_counted_once_and_never_overcounted(
            replies in proptest::collection::vec((0..N, any::<bool>(), answer()), 1..80),
        ) {
            let (mut tally, mut model) = (ReplyTally::default(), MapModel::default());
            let mut latest: HashMap<u32, Vec<u8>> = HashMap::new();
            for (replica, full, answer) in replies {
                let (digest_only, result) = answer.reply(full);
                let (was_votes, was_body, was_distinct) =
                    model.record(replica, digest_only, result.clone());
                let (votes, body, distinct) = read(&mut tally, replica, digest_only, result.clone());
                let digest = if digest_only { result } else { Digest::of(&result).0.to_vec() };
                latest.insert(replica, digest);
                prop_assert!(votes <= was_votes && distinct <= was_distinct);
                prop_assert!(body.is_none() || body == was_body);
                prop_assert!(tally.entries.len() <= N as usize);
                for r in 0..N {
                    let standing: Vec<&Vec<u8>> = tally
                        .entries
                        .iter()
                        .filter(|e| e.voters >> r & 1 == 1)
                        .map(|e| &e.digest)
                        .collect();
                    prop_assert_eq!(standing, latest.get(&r).into_iter().collect::<Vec<_>>());
                }
                prop_assert!(tally.entries.iter().all(|e| e.voters != 0));
            }
        }
    }

    #[test]
    fn a_malformed_digest_conflicts_but_never_completes() {
        let mut tally = ReplyTally::default();
        let body = b"value".to_vec();
        read(&mut tally, 0, false, body.clone());
        // Replica 1 answers with 31 bytes: not a digest of anything, yet a
        // second answer, which is what degrades a read-only operation.
        let (votes, found, distinct) = read(&mut tally, 1, true, vec![0xab; 31]);
        assert_eq!((votes, found, distinct), (1, None, 2));
        // It then sends the real digest: its vote moves, the junk is gone.
        let (votes, found, distinct) = read(&mut tally, 1, true, Digest::of(&body).0.to_vec());
        assert_eq!((votes, found, distinct), (2, Some(body), 1));
    }
}
