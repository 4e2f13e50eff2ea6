//! Execution: running committed batches and read-only requests against the
//! service, and replying to clients.

use super::io::Io;
use crate::byzantine::ByzMode;
use crate::log::ReplyCache;
use crate::messages::{Message, PrePrepareMsg, ReplyMsg, RequestMsg};
use base_crypto::{Authenticator, Digest};
use base_simnet::ProtocolEvent;
use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};

/// What has been executed, and the replies it produced.
#[derive(Default)]
pub(super) struct Execution {
    last_exec: u64,
    reply_cache: ReplyCache,
    /// Backup: forwarded requests awaiting execution. The view-change
    /// timer runs while any do.
    awaiting: HashSet<(u32, u64)>,
    /// Read-only requests deferred while committed-but-unexecuted slots
    /// (or an active state transfer) would make a reply stale; drained
    /// after execution catches up.
    ro_deferred: VecDeque<RequestMsg>,
    /// Positions of the fresh requests in the batch being executed; kept
    /// across batches so it does not allocate per batch.
    fresh: Vec<usize>,
}

impl Execution {
    pub(super) fn last_exec(&self) -> u64 {
        self.last_exec
    }

    pub(super) fn cached_reply(&self, client: u32, timestamp: u64) -> Option<&[u8]> {
        self.reply_cache.cached_result(client, timestamp)
    }

    pub(super) fn replies_blob(&self) -> Vec<u8> {
        self.reply_cache.to_blob()
    }

    /// Whether a write goes on to agreement: the client's last executed
    /// request gets its reply again, and an older one is dropped.
    pub(super) fn admit(&self, io: &mut Io<'_, '_>, view: u64, req: &RequestMsg) -> bool {
        if let Some(result) = self.reply_cache.cached_result(req.client(), req.timestamp()) {
            send_reply(io, view, req, result, false);
            return false;
        }
        self.reply_cache.is_new(req.client(), req.timestamp())
    }

    /// A backup forwarded `req`; returns whether it was not awaited yet.
    pub(super) fn await_reply(&mut self, req: &RequestMsg) -> bool {
        self.awaiting.insert((req.client(), req.timestamp()))
    }

    /// Forgets executed awaited requests; returns whether any remain.
    pub(super) fn still_awaiting(&mut self) -> bool {
        self.awaiting.retain(|(c, ts)| self.reply_cache.is_new(*c, *ts));
        !self.awaiting.is_empty()
    }

    pub(super) fn awaiting_any(&self) -> bool {
        !self.awaiting.is_empty()
    }

    /// Executes a read-only request, or defers it while there is `backlog`:
    /// with agreement pipelined ahead of execution, a slot can be committed
    /// but not yet applied. Answering a read now would reflect the last
    /// *executed* state while peers that already applied the backlog answer
    /// from a newer one — the client's 2f+1 matching-reply quorum would mix
    /// states. It waits until execution catches up (or state transfer
    /// finishes rebuilding the state).
    pub(super) fn read_only(
        &mut self,
        io: &mut Io<'_, '_>,
        backlog: bool,
        view: u64,
        req: &RequestMsg,
    ) {
        if backlog {
            let deferred =
                |r: &RequestMsg| r.client() == req.client() && r.timestamp() == req.timestamp();
            if !self.ro_deferred.iter().any(deferred) {
                self.ro_deferred.push_back(req.clone());
            }
            return;
        }
        let result = io.exec(|svc, env| svc.execute(req.op(), req.client(), &[], true, env));
        // Read-only replies bypass agreement: mark them tentative so the
        // client knows this result reflects executed state only.
        send_reply(io, view, req, &result, true);
    }

    /// Answers the deferred read-only requests: execution caught up.
    pub(super) fn drain_deferred(&mut self, io: &mut Io<'_, '_>, view: u64) {
        if self.ro_deferred.is_empty() {
            return;
        }
        let drained: Vec<RequestMsg> = self.ro_deferred.drain(..).collect();
        for req in drained {
            self.read_only(io, false, view, &req);
        }
    }

    /// Executes `pp`, the committed batch after `last_exec`, and replies.
    pub(super) fn execute(&mut self, io: &mut Io<'_, '_>, view: u64, pp: &PrePrepareMsg) {
        let batch = pp.requests().len() as u64;
        io.ctx.emit(pp.view, pp.seq, ProtocolEvent::RequestExecuted { batch });
        io.metrics.observe("replica.batch_occupancy", batch);
        // Split cached resends from fresh work so the fresh operations go
        // through the service as one batch.
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        let mut ops: Vec<(&[u8], u32)> = Vec::with_capacity(pp.requests().len());
        for (i, req) in pp.requests().iter().enumerate() {
            if self.reply_cache.is_new(req.client(), req.timestamp()) {
                fresh.push(i);
                ops.push((req.op(), req.client()));
            } else if let Some(result) =
                self.reply_cache.cached_result(req.client(), req.timestamp())
            {
                // Already executed (e.g. re-proposed across a view change)
                // and it was the client's last request: resend the reply.
                send_reply(io, view, req, result, false);
            }
        }
        if !ops.is_empty() {
            let results = io.exec(|svc, env| svc.execute_batch(&ops, pp.nondet(), env));
            debug_assert_eq!(results.len(), fresh.len());
            for (&i, result) in fresh.iter().zip(results) {
                let req = &pp.requests()[i];
                io.stats.executed_requests += 1;
                send_reply(io, view, req, &result, false);
                self.reply_cache.record(req.client(), req.timestamp(), result);
                self.awaiting.remove(&(req.client(), req.timestamp()));
            }
        }
        self.fresh = fresh;
        self.last_exec = pp.seq;
        io.stats.executed_batches += 1;
    }

    /// State transfer installed checkpoint `seq` and its reply cache.
    pub(super) fn restore(&mut self, seq: u64, replies_blob: &[u8]) {
        if let Some(cache) = ReplyCache::from_blob(replies_blob) {
            self.reply_cache = cache;
        }
        self.last_exec = seq;
    }

    pub(super) fn reset(&mut self) {
        self.last_exec = 0;
        self.reply_cache = ReplyCache::default();
        self.ro_deferred.clear();
    }

    pub(super) fn status(&self, out: &mut String) {
        let (last_exec, deferred) = (self.last_exec, self.ro_deferred.len());
        out.push_str(&format!(",\"last_exec\":{last_exec},\"ro_deferred\":{deferred}"));
    }
}

/// Builds and sends the reply to `req`: the one site for every reply path,
/// so the span layer's last replica-side hop is total. Only the full
/// replier copies `result`; the caller's copy is the one that lives on.
fn send_reply(io: &mut Io<'_, '_>, view: u64, req: &RequestMsg, result: &[u8], tentative: bool) {
    let (client, timestamp) = (req.client(), req.timestamp());
    let result = if io.is(ByzMode::CorruptReplies) {
        // Consistently wrong: flip a copy of the result (never the cached
        // bytes), then MAC the corrupted bytes so the client sees a
        // well-formed but incorrect reply.
        let mut flipped: Vec<u8> = result.iter().map(|b| b ^ 0xa5).collect();
        if flipped.is_empty() {
            flipped.push(0xa5);
        }
        Cow::Owned(flipped)
    } else {
        Cow::Borrowed(result)
    };
    // The reply optimization: only the designated replica sends the full
    // result; the others send its digest.
    let (digest_only, payload) = if req.full_replier as usize % io.cfg.n == io.id as usize {
        (false, result.into_owned())
    } else {
        io.ctx.charge(io.cost.digest(result.len()));
        (true, Digest::of(&result).0.to_vec())
    };
    let (replica, mac) = (io.id, base_crypto::Mac([0; 8]));
    let mut reply =
        ReplyMsg { view, timestamp, client, replica, digest_only, tentative, result: payload, mac };
    io.ctx.charge(io.cost.mac + io.cost.digest(reply.result.len()));
    reply.mac = Authenticator::point(io.keys, client as usize, &reply.digest());
    io.ctx.emit(view, 0, ProtocolEvent::ReplySent { client: u64::from(client), ts: timestamp });
    io.send(io.cfg.client_node(client), &Message::Reply(reply));
}
