//! How messages and timers move through the parts: the actor's dispatch and
//! the sequences that cross parts.

use super::agreement::{self, Next};
use super::io::io;
use super::recovery::{Recovery, TOKEN_WATCHDOG};
use super::view_change::TOKEN_VIEW_CHANGE;
use super::Replica;
use crate::config::TICK_INTERVAL;
use crate::log::SlotStage;
use crate::messages::{CertReplyMsg, FetchCertMsg, Message, NewViewMsg, RequestMsg, StatusMsg};
use crate::service::Service;
use crate::transfer::FetchResult;
use base_crypto::Digest;
use base_simnet::{Actor, Context, NodeId};

/// Timer token of the retransmission tick.
const TOKEN_TICK: u64 = 1;

impl<S: Service> Replica<S> {
    fn handle_request(&mut self, req: RequestMsg, ctx: &mut Context<'_>) {
        let (backlog, view) = (self.exec_backlog(), self.vc.view());
        let mut io = io!(self, ctx);
        if !agreement::request_ok(&mut io, &req) {
            return;
        }
        if req.read_only() {
            self.exec.read_only(&mut io, backlog, view, &req);
            return;
        }
        if !self.exec.admit(&mut io, view, &req) {
            return;
        }
        if self.vc.active().is_some() && io.is_primary(view) {
            self.agree.enqueue(req);
            self.try_propose(ctx);
            return;
        }
        // Forward to the primary and start the progress timer.
        let is_new = self.exec.await_reply(&req);
        let primary = io.cfg.primary_of(view);
        if primary == io.id as usize {
            // Primary-elect mid view change: forwarding would loop the
            // request back to ourselves forever. Hold it instead —
            // install_new_view runs try_propose, which drains it.
            self.agree.enqueue(req);
        } else {
            io.send_to_replica(primary, &Message::Request(req));
        }
        if is_new {
            self.vc.await_progress(&mut io);
        }
    }

    /// Whether `seq` lies between the watermarks.
    fn in_window(&self, seq: u64) -> bool {
        let low = self.ckpt.stable_seq();
        seq > low && seq <= self.cfg.high_watermark(low)
    }

    /// Primary: assign sequence numbers to pending requests.
    fn try_propose(&mut self, ctx: &mut Context<'_>) {
        while let Some(view) = self.vc.active() {
            let (last_exec, low) = (self.exec.last_exec(), self.ckpt.stable_seq());
            if !self.agree.can_propose(&self.cfg, &self.log, last_exec, low) {
                break;
            }
            let seq = self.agree.propose(&mut io!(self, ctx), view);
            self.maybe_prepared(seq, ctx);
        }
    }

    fn advance(&mut self, next: Option<Next>, ctx: &mut Context<'_>) {
        match next {
            Some(Next::Prepared(seq)) => self.maybe_prepared(seq, ctx),
            Some(Next::Committed(seq)) => self.maybe_committed(seq, ctx),
            None => {}
        }
    }

    fn maybe_prepared(&mut self, seq: u64, ctx: &mut Context<'_>) {
        let view = self.vc.view();
        if agreement::commit_if_prepared(&mut io!(self, ctx), view, seq) {
            self.maybe_committed(seq, ctx);
        }
    }

    fn maybe_committed(&mut self, seq: u64, ctx: &mut Context<'_>) {
        let view = self.vc.view();
        if agreement::committed(&mut io!(self, ctx), view, seq) {
            self.execute_ready(ctx);
        }
    }

    /// Whether committed-but-unexecuted work (or an active state transfer)
    /// makes the last executed state stale relative to what the group has
    /// already agreed on.
    fn exec_backlog(&self) -> bool {
        self.fetch.active() || self.log.has_backlog(self.exec.last_exec())
    }

    fn execute_ready(&mut self, ctx: &mut Context<'_>) {
        if self.fetch.active() {
            // Don't execute while state transfer is rebuilding the state.
            return;
        }
        let (view, f) = (self.vc.view(), self.cfg.f());
        loop {
            let next = self.exec.last_exec() + 1;
            if !self.log.entry(next).is_some_and(|e| e.committed(view, f) && !e.executed) {
                break;
            }
            // The batch is lent out of its log entry while it executes
            // (nothing on the execution path reads the log) and put back.
            let entry = self.log.entry_mut(next).expect("found ready above");
            let pp = entry.pre_prepare.take().expect("committed implies pre-prepare");
            let arrived = entry.arrival.take();
            let mut io = io!(self, ctx);
            self.exec.execute(&mut io, view, &pp);
            self.vc.observe_round(&mut io, arrived);
            let entry = io.log.entry_mut(next).expect("execution does not move the window");
            (entry.pre_prepare, entry.executed) = (Some(pp), true);
            entry.observe(SlotStage::Executed);
            if next.is_multiple_of(self.cfg.checkpoint_interval) {
                let replies = self.exec.replies_blob();
                self.ckpt.take(&mut io, view, next, replies);
            }
        }
        // Execution caught up with agreement: deferred read-only requests
        // can now be answered from fresh state.
        if !self.exec_backlog() {
            self.exec.drain_deferred(&mut io!(self, ctx), view);
        }
        // Window space may have opened: the primary drains its queue.
        if self.vc.active().is_some_and(|v| self.cfg.primary_of(v) == self.id() as usize) {
            self.try_propose(ctx);
        }
        // Progress: reset the liveness timer. The escalation (if any) is
        // over, so it restarts from the adaptive base.
        if self.vc.active().is_some() {
            let mut io = io!(self, ctx);
            self.vc.stop(&mut io);
            if self.exec.still_awaiting() {
                self.vc.restart(&mut io);
            }
        }
    }

    /// Fetches the stable checkpoint just proven, if execution is behind it.
    fn catch_up(&mut self, proven: Option<(u64, Digest)>, ctx: &mut Context<'_>) {
        if let Some((seq, digest)) = proven.filter(|(seq, _)| self.exec.last_exec() < *seq) {
            self.start_fetch(seq, digest, ctx);
        }
    }

    fn handle_cert_reply(&mut self, m: CertReplyMsg, ctx: &mut Context<'_>) {
        let mut io = io!(self, ctx);
        let Some((seq, digest)) = self.ckpt.on_cert_reply(&mut io, m) else { return };
        if seq > self.exec.last_exec() || (self.rec.recovering() && seq > 0) {
            // Recovering replicas fetch even when nominally up to date:
            // the fetch walks the partition tree comparing digests and
            // repairs exactly the objects whose concrete state is stale or
            // corrupt (paper §3.4).
            self.start_fetch(seq, digest, ctx);
        } else if let Some(took) = self.rec.complete(&mut io, self.vc.view(), seq, false) {
            // No checkpoint exists yet; recovery completes immediately.
            self.last_recovery_ns = took;
        }
    }

    fn start_fetch(&mut self, seq: u64, digest: Digest, ctx: &mut Context<'_>) {
        let view = self.vc.view();
        self.fetch.start(&mut io!(self, ctx), view, seq, digest);
    }

    fn finish_fetch(&mut self, result: FetchResult, ctx: &mut Context<'_>) {
        let view = self.vc.view();
        let mut io = io!(self, ctx);
        self.fetch.finish(&mut io, view, &result);
        let FetchResult { seq, service_root, objects, replies_blob, fetched_bytes, .. } = result;
        // Install the reply cache and the service objects, and record the
        // checkpoint locally so we can serve it to others.
        self.exec.restore(seq, &replies_blob);
        io.ctx.charge(io.cost.digest(fetched_bytes as usize));
        io.exec(|svc, env| svc.install_checkpoint(seq, service_root, objects, env));
        self.ckpt.record(seq, service_root, replies_blob);
        // Execution state now corresponds exactly to the fetched
        // checkpoint. If we had executed past it before a recovery reboot,
        // roll back and re-execute the committed suffix from the log on the
        // repaired state.
        io.log.rewind(seq, view, io.cfg.f());
        if let Some(took) = self.rec.complete(&mut io, view, seq, true) {
            self.last_recovery_ns = took;
        }
        self.execute_ready(ctx);
    }

    fn move_to_view(&mut self, target: u64, ctx: &mut Context<'_>) {
        if self.vc.begin(&self.cfg, target) {
            let (h, digest, proof) = self.ckpt.proof();
            self.vc.vote(&mut io!(self, ctx), h, digest, proof);
            self.maybe_new_view(ctx);
        }
    }

    fn maybe_new_view(&mut self, ctx: &mut Context<'_>) {
        if let Some((nv, min_s)) = self.vc.new_view(&mut io!(self, ctx)) {
            self.install_new_view(nv, min_s, ctx);
        }
    }

    pub(super) fn install_new_view(&mut self, nv: NewViewMsg, min_s: u64, ctx: &mut Context<'_>) {
        let mut io = io!(self, ctx);
        self.vc.install(&mut io, &nv, self.ckpt.stable_seq());
        // Adopt a higher stable checkpoint if the quorum proves one.
        let proven = self.ckpt.adopt_from_new_view(&mut io, &nv, min_s);
        self.catch_up(proven, ctx);

        // Install the re-proposed pre-prepares and prepare them.
        let (view, low) = (nv.view, self.ckpt.stable_seq());
        let max_seq = agreement::reinstall(&mut io!(self, ctx), &nv.pre_prepares, low, view);
        if self.cfg.primary_of(view) == self.id() as usize {
            self.agree.renumber(max_seq + 1);
            self.try_propose(ctx);
        } else {
            // Backups prepare everything in O.
            for pp in nv.pre_prepares.iter().filter(|pp| pp.seq > low) {
                let Some(digest) = self.log.entry(pp.seq).and_then(|e| e.accepted_digest()) else {
                    continue; // Past the window: not installed above.
                };
                agreement::send_prepare(&mut io!(self, ctx), view, pp.seq, digest);
            }
            let seqs: Vec<u64> = self.log.iter().map(|(s, _)| s).collect();
            for seq in seqs {
                self.maybe_prepared(seq, ctx);
            }
        }
        if self.exec.awaiting_any() {
            self.vc.restart(&mut io!(self, ctx));
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_>) {
        // An explicitly requested recovery runs now, out of rotation: it
        // does not re-arm the periodic timer.
        if self.rec.triggered() {
            self.on_watchdog(false, ctx);
        }
        // Retransmit only if no execution progress since the last tick.
        let last_exec = self.exec.last_exec();
        let progressed = self.rec.progressed(last_exec);
        let (view, active) = (self.vc.view(), self.vc.active().is_some());
        let mut io = io!(self, ctx);
        self.fetch.tick(&mut io);
        if !progressed && active {
            // Nudge the first blocked sequence number, and re-announce our
            // newest checkpoint if it is not stable yet.
            agreement::nudge(&mut io, view, last_exec + 1);
            self.ckpt.reannounce(&mut io);
        }
        if !progressed && !active {
            self.vc.resend_own(&mut io);
        }
        if !progressed && !self.fetch.active() {
            self.rec.probe(&mut io, view, last_exec, self.ckpt.stable_seq());
        }
        io.ctx.set_timer(TICK_INTERVAL, TOKEN_TICK);
    }

    /// Responds to a peer's status report by retransmitting whatever it is
    /// missing (PBFT's status/retransmission mechanism, simplified).
    fn handle_status(&mut self, st: StatusMsg, ctx: &mut Context<'_>) {
        if st.replica as usize >= self.cfg.n || st.replica == self.id() {
            return;
        }
        let (to, last_exec) = (self.cfg.replica_node(st.replica as usize), self.exec.last_exec());
        let mut io = io!(self, ctx);
        // A peer stuck in an older view gets the new-view message, and one
        // behind the stable checkpoint the certificate to state-transfer.
        self.vc.resend_new_view(&mut io, to, st.view);
        self.ckpt.resend_cert(&mut io, to, st.stable_seq);
        // Peer behind in execution: resend the logged messages for its next
        // few sequence numbers (bounded burst).
        if st.last_exec < last_exec {
            let upto = (st.last_exec + 8).min(last_exec);
            agreement::resend(&mut io, to, st.last_exec + 1, upto);
        }
    }

    /// Proactive recovery: the watchdog fired (or an explicit
    /// [`Replica::trigger_recovery`] request; only the periodic rotation
    /// re-arms its timer).
    fn on_watchdog(&mut self, rearm: bool, ctx: &mut Context<'_>) {
        let (view, h) = (self.vc.view(), self.ckpt.stable_seq());
        let mut io = io!(self, ctx);
        if self.rec.reboot(&mut io, view, h) {
            // The concrete state restarted from the initial state: every
            // executed request's effects must be refetched or re-executed.
            self.exec.reset();
            self.ckpt.forget_stored();
            io.log.rewind(0, view, io.cfg.f());
        }
        // Learn the group's latest stable checkpoint and repair against it
        // (even if nominally up to date — see handle_cert_reply).
        if let Some(digest) = self.ckpt.stable_digest().filter(|_| h > 0) {
            self.start_fetch(h, digest, ctx);
        }
        let mut io = io!(self, ctx);
        io.multicast(&Message::FetchCert(FetchCertMsg { replica: io.id }));
        if h == 0 && self.exec.last_exec() == 0 {
            // Nothing executed group-wide yet; recovery is trivially done
            // unless a cert reply teaches us otherwise. Unlike the other
            // two completions, this one leaves `last_recovery_ns` alone.
            self.rec.complete(&mut io, view, 0, false);
        }
        if rearm {
            Recovery::arm(&mut io, false);
        }
    }
}

impl<S: Service> Actor for Replica<S> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(TICK_INTERVAL, TOKEN_TICK);
        Recovery::arm(&mut io!(self, ctx), true);
    }

    fn on_message(&mut self, _from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        ctx.charge(self.cost.handle);
        let Some((shard, msg)) = Message::from_wire_tagged(payload) else {
            self.stats.rejected_messages += 1;
            return;
        };
        if shard != self.cfg.shard {
            // Another group's traffic on the shared network; its MACs would
            // not verify here anyway, but reject it before any crypto work.
            self.stats.rejected_messages += 1;
            return;
        }
        // Agreement sees only messages for the view it runs in, inside the
        // watermarks.
        let (view, active) = (self.vc.view(), self.vc.active());
        match msg {
            Message::Request(r) => self.handle_request(r, ctx),
            Message::PrePrepare(pp) if active == Some(pp.view) && self.in_window(pp.seq) => {
                let mut io = io!(self, ctx);
                let next = agreement::on_pre_prepare(&mut io, pp);
                self.advance(next, ctx);
            }
            Message::Prepare(p) if active == Some(p.view) && self.in_window(p.seq) => {
                let next = agreement::on_prepare(&mut io!(self, ctx), p);
                self.advance(next, ctx);
            }
            Message::Commit(c) if active == Some(c.view) && self.in_window(c.seq) => {
                let next = agreement::on_commit(&mut io!(self, ctx), c);
                self.advance(next, ctx);
            }
            Message::Checkpoint(c) => {
                let mut io = io!(self, ctx);
                let stable = self.ckpt.on_checkpoint(&mut io, view, c);
                self.catch_up(stable, ctx);
            }
            Message::ViewChange(vc) => {
                if self.vc.on_view_change(&mut io!(self, ctx), vc) {
                    if let Some(target) = self.vc.view_to_join(self.cfg.f()) {
                        self.move_to_view(target, ctx);
                    }
                    self.maybe_new_view(ctx);
                }
            }
            Message::NewView(nv) => {
                if let Some(min_s) = self.vc.on_new_view(&mut io!(self, ctx), &nv) {
                    self.install_new_view(nv, min_s, ctx);
                }
            }
            m @ (Message::FetchMeta(_)
            | Message::FetchObject(_)
            | Message::FetchChunks(_)
            | Message::FetchChunkData(_)) => {
                self.ckpt.serve(&mut io!(self, ctx), &m);
            }
            m @ (Message::MetaReply(_)
            | Message::ObjectReply(_)
            | Message::ChunksReply(_)
            | Message::ChunkData(_)) => {
                let mut io = io!(self, ctx);
                if let Some(result) = self.fetch.on_reply(&mut io, view, &m) {
                    self.finish_fetch(result, ctx);
                }
            }
            Message::FetchCert(m) => self.ckpt.on_fetch_cert(&mut io!(self, ctx), m),
            Message::CertReply(m) => self.handle_cert_reply(m, ctx),
            Message::Status(m) => self.handle_status(m, ctx),
            // Replicas do not process replies.
            Message::Reply(_)
            | Message::PrePrepare(_)
            | Message::Prepare(_)
            | Message::Commit(_) => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        match token {
            TOKEN_TICK => self.on_tick(ctx),
            TOKEN_VIEW_CHANGE => {
                let target = self.vc.expired();
                self.move_to_view(target, ctx);
            }
            TOKEN_WATCHDOG => self.on_watchdog(true, ctx),
            _ => {}
        }
    }
}
