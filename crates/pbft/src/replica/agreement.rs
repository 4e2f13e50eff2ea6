//! Agreement: REQUEST intake at the primary and the three phases
//! (PRE-PREPARE, PREPARE, COMMIT) over the shared log. The router hands
//! these handlers only messages for the view agreement runs in, inside the
//! watermarks.

use super::io::Io;
use crate::config::{Config, BATCH_MAX};
use crate::cost::COST;
use crate::messages::{CommitMsg, Message, PrePrepareMsg, PrepareMsg, RequestMsg};
use base_crypto::{Authenticator, Digest};
use base_simnet::{NodeId, ProtocolEvent};
use std::collections::{HashSet, VecDeque};

/// The primary's proposal state.
pub(super) struct Agreement {
    /// Next sequence number this replica assigns when primary.
    seq_next: u64,
    /// Queued requests not yet assigned a sequence number.
    pending: VecDeque<RequestMsg>,
    pending_digests: HashSet<Digest>,
}

/// The quorum a logged message may have completed, for the caller to check.
pub(super) enum Next {
    Prepared(u64),
    Committed(u64),
}

impl Agreement {
    pub(super) fn new() -> Self {
        Self { seq_next: 1, pending: VecDeque::new(), pending_digests: HashSet::new() }
    }

    /// Queues `req` for a proposal, unless an identical request is queued.
    pub(super) fn enqueue(&mut self, req: RequestMsg) {
        if self.pending_digests.insert(req.digest()) {
            self.pending.push_back(req);
        }
    }

    /// The primary of a new view numbers its proposals from `seq`.
    pub(super) fn renumber(&mut self, seq: u64) {
        self.seq_next = seq;
    }

    /// The sequence number the next proposal takes: `seq_next`, but never
    /// at or below the low watermark `low`, which a primary reinstalled and
    /// caught up by state transfer has passed.
    fn next_seq(&self, low: u64) -> u64 {
        self.seq_next.max(low + 1)
    }

    /// Requests are queued, and the next sequence number fits under the
    /// high watermark of `low` and the in-flight bound.
    pub(super) fn can_propose(&self, cfg: &Config, last_exec: u64, low: u64) -> bool {
        let next = self.next_seq(low);
        !self.pending.is_empty()
            && next <= cfg.high_watermark(low)
            && next.saturating_sub(last_exec + 1) < cfg.max_inflight
    }

    /// Proposes the next batch in `view` above the low watermark `low`,
    /// multicasts its PRE-PREPARE and logs it. Returns its sequence number.
    pub(super) fn propose(&mut self, io: &mut Io<'_, '_>, view: u64, low: u64) -> u64 {
        let mut batch = Vec::new();
        while batch.len() < BATCH_MAX {
            let Some(r) = self.pending.pop_front() else { break };
            self.pending_digests.remove(&r.digest());
            batch.push(r);
        }
        let seq = self.next_seq(low);
        self.seq_next = seq + 1;

        let nondet = io.exec(|svc, env| svc.propose_nondet(env));
        let mut pp = PrePrepareMsg::new(view, seq, batch, nondet);
        pp.auth = pp.with_signed_bytes(|header| io.authenticator(header));

        if io.ctx.trace_enabled() {
            // Causal edge for the span layer: which client ops landed in
            // this agreement slot, and how long the triggering event sat
            // queued behind this (busy) primary.
            let queue_ns = io.ctx.sched_lag().as_nanos();
            for r in pp.requests() {
                let (client, ts) = (u64::from(r.client()), r.timestamp());
                io.ctx.emit(view, seq, ProtocolEvent::RequestProposed { client, ts, queue_ns });
            }
        }
        // Logged as decoded from the frame the backups were sent, so the
        // batch lives in that one frame group-wide and each client request
        // frame is let go here (DESIGN.md §11.7). A faulty primary sent no
        // shared frame and logs what it built.
        let msg = Message::PrePrepare(pp);
        let sent = io.multicast(&msg);
        let Message::PrePrepare(pp) = msg else { unreachable!("built above") };
        let pp = match sent.as_ref().and_then(Message::from_payload) {
            Some(Message::PrePrepare(decoded)) => {
                decoded.carry_digests(&pp);
                decoded
            }
            _ => pp,
        };
        // `next_seq` and `can_propose` keep `seq` inside the window.
        if let Some(entry) = io.log.entry_mut(seq) {
            entry.pre_prepare = Some(pp);
            entry.arrival = Some(io.ctx.now().as_nanos());
        }
        seq
    }

    pub(super) fn status(&self, out: &mut String) {
        out.push_str(&format!(",\"pending\":{}", self.pending.len()));
    }
}

/// Charges for and checks a request's authenticator: it must verify for
/// this replica under the claimed client's key. A request naming a replica
/// id is refused first: replicas hold keys too, and a replica's own would
/// pass the check.
pub(super) fn request_ok(io: &mut Io<'_, '_>, r: &RequestMsg) -> bool {
    if (r.client() as usize) < io.cfg.n {
        io.reject();
        return false;
    }
    io.ctx.charge(COST.mac + COST.digest(r.op().len()));
    let ok = r.auth.check(io.keys, r.client() as usize, &r.digest());
    if !ok {
        io.reject();
    }
    ok
}

/// A backup's PRE-PREPARE.
pub(super) fn on_pre_prepare(io: &mut Io<'_, '_>, pp: PrePrepareMsg) -> Option<Next> {
    let (view, primary) = (pp.view, io.cfg.primary_of(pp.view));
    if primary == io.id as usize {
        return None;
    }
    io.ctx.charge(COST.mac + COST.digest(64));
    if !pp.with_signed_bytes(|header| pp.auth.check(io.keys, primary, header)) {
        io.reject();
        return None;
    }
    // Authenticate every piggybacked request.
    if !pp.requests().iter().all(|r| request_ok(io, r)) {
        return None;
    }
    // Validate the primary's non-deterministic choices. Failing the check
    // means this replica refuses to ENDORSE the proposal — it sends no
    // prepare, so a faulty primary cannot gather a quorum and is deposed
    // by the progress timer. The pre-prepare is still logged: when the
    // batch is a *retransmission* of something 2f+1 replicas already
    // agreed on (catch-up after a reinstall or a long crash, where the
    // agreed timestamp is legitimately older than the freshness window),
    // their resent commits carry the quorum's endorsement and this replica
    // must accept the agreed value. `check_nondet` charges nothing in every
    // service, so going through `Io::exec` like every upcall adds a zero
    // charge.
    let endorse = io.exec(|svc, env| svc.check_nondet(pp.nondet(), env));
    if !endorse {
        io.reject();
    }

    let (seq, digest) = (pp.seq, pp.batch_digest());
    let entry = io.log.entry_mut(seq)?;
    if entry.pre_prepare.as_ref().is_some_and(|logged| logged.view == view) {
        // A duplicate, or a conflicting proposal from the primary —
        // evidence of a faulty primary; the progress timer will trigger a
        // view change.
        return None;
    }
    entry.pre_prepare = Some(pp);
    entry.arrival = Some(io.ctx.now().as_nanos());
    let queue_ns = io.ctx.sched_lag().as_nanos();
    io.ctx.emit(view, seq, ProtocolEvent::PrePrepareLogged { queue_ns });
    if !endorse {
        // Logged but not endorsed: wait for a quorum's commits.
        return Some(Next::Committed(seq));
    }
    send_prepare(io, view, seq, digest);
    Some(Next::Prepared(seq))
}

/// Multicasts this replica's PREPARE, then moves it into the log.
pub(super) fn send_prepare(io: &mut Io<'_, '_>, view: u64, seq: u64, digest: Digest) {
    let auth = Authenticator::default();
    let mut prepare = PrepareMsg { view, seq, digest, replica: io.id, auth };
    prepare.auth = prepare.with_signed_bytes(|header| io.authenticator(header));
    let msg = Message::Prepare(prepare);
    io.multicast(&msg);
    let Message::Prepare(prepare) = msg else { unreachable!("built above") };
    if let Some(entry) = io.log.entry_mut(seq) {
        entry.add_prepare(prepare);
    }
}

pub(super) fn on_prepare(io: &mut Io<'_, '_>, p: PrepareMsg) -> Option<Next> {
    let from = p.replica as usize;
    if from >= io.cfg.n || from == io.cfg.primary_of(p.view) || p.replica == io.id {
        return None;
    }
    io.ctx.charge(COST.mac);
    if !p.with_signed_bytes(|header| p.auth.check(io.keys, from, header)) {
        io.reject();
        return None;
    }
    let seq = p.seq;
    io.log.entry_mut(seq)?.add_prepare(p);
    Some(Next::Prepared(seq))
}

pub(super) fn on_commit(io: &mut Io<'_, '_>, c: CommitMsg) -> Option<Next> {
    if c.replica as usize >= io.cfg.n || c.replica == io.id {
        return None;
    }
    io.ctx.charge(COST.mac);
    if !c.with_signed_bytes(|header| c.auth.check(io.keys, c.replica as usize, header)) {
        io.reject();
        return None;
    }
    let seq = c.seq;
    io.log.entry_mut(seq)?.add_commit(c);
    Some(Next::Committed(seq))
}

/// Once `seq` is prepared, multicasts this replica's COMMIT, once: the
/// COMMIT is logged as it leaves, and `on_commit` logs no COMMIT that names
/// this replica, so an own COMMIT in the log is the one sent.
pub(super) fn commit_if_prepared(io: &mut Io<'_, '_>, view: u64, seq: u64) -> bool {
    let Some(entry) = io.log.entry(seq) else { return false };
    if !entry.prepared(view, io.cfg.f()) || entry.commits().iter().any(|c| c.replica == io.id) {
        return false;
    }
    let digest = entry.accepted_digest().expect("prepared implies pre-prepare");
    // The own COMMIT is logged below, so this traces once an agreement instance.
    io.ctx.emit(view, seq, ProtocolEvent::PrepareQuorum);
    let mut commit =
        CommitMsg { view, seq, digest, replica: io.id, auth: Authenticator::default() };
    commit.auth = commit.with_signed_bytes(|header| io.authenticator(header));
    // Sent by reference, then moved (not cloned) into the log.
    let msg = Message::Commit(commit);
    io.multicast(&msg);
    let Message::Commit(commit) = msg else { unreachable!("built above") };
    if let Some(entry) = io.log.entry_mut(seq) {
        entry.add_commit(commit);
    }
    true
}

/// Whether `seq` is committed in `view`: then the caller executes.
pub(super) fn committed(io: &mut Io<'_, '_>, view: u64, seq: u64) -> bool {
    let Some(entry) = io.log.entry_mut(seq) else { return false };
    if !entry.committed(view, io.cfg.f()) {
        return false;
    }
    if io.ctx.trace_enabled() && entry.first_quorum_trace() {
        io.ctx.emit(view, seq, ProtocolEvent::CommitQuorum);
    }
    true
}

/// Logs a NEW-VIEW's re-proposals above `low` and restarts agreement.
/// Returns the highest sequence number the NEW-VIEW names.
pub(super) fn reinstall(io: &mut Io<'_, '_>, pps: &[PrePrepareMsg], low: u64) -> u64 {
    // `O` comes off the wire; a slot past the window is not logged (and
    // so not prepared).
    for pp in pps.iter().filter(|pp| pp.seq > low) {
        if let Some(entry) = io.log.entry_mut(pp.seq) {
            entry.restart_agreement(pp.clone());
        }
    }
    // A slot re-agreed in the new view is a fresh agreement instance.
    io.log.restart_instances();
    pps.iter().map(|pp| pp.seq).fold(low, u64::max)
}

/// Re-multicasts what this replica sent for the first blocked slot.
pub(super) fn nudge(io: &mut Io<'_, '_>, view: u64, next: u64) {
    let Some(entry) = io.log.entry(next) else { return };
    let Some(pp) = &entry.pre_prepare else { return };
    let primary = (io.is_primary(view) && pp.view == view).then(|| Message::PrePrepare(pp.clone()));
    let own_prepare = entry.prepares().iter().find(|p| p.replica == io.id).cloned();
    let own_commit = entry.commits().iter().find(|c| c.replica == io.id).cloned();
    let own = own_prepare.map(Message::Prepare).into_iter().chain(own_commit.map(Message::Commit));
    for m in primary.into_iter().chain(own) {
        io.multicast(&m);
    }
}

/// Resends node `to` the logged messages for `from..=upto`.
pub(super) fn resend(io: &mut Io<'_, '_>, to: NodeId, from: u64, upto: u64) {
    for seq in from..=upto {
        let Some(e) = io.log.entry(seq) else { continue };
        // Relay every logged prepare/commit, not only our own: they carry
        // their senders' authenticators, which hold an entry for every
        // replica, so the peer can verify them, and the original senders
        // may be gone (reinstalled or crashed) — the log is the only place
        // their endorsements survive.
        let prepares = e.prepares().iter().cloned().map(Message::Prepare);
        let commits = e.commits().iter().cloned().map(Message::Commit);
        let pp = e.pre_prepare.clone().map(Message::PrePrepare);
        let msgs: Vec<Message> = pp.into_iter().chain(prepares).chain(commits).collect();
        for m in &msgs {
            io.send(to, m);
        }
    }
}
