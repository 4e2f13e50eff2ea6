//! State transfer: fetching a stable checkpoint from the other replicas.

use super::io::Io;
use super::json_opt;
use crate::cost::COST;
use crate::messages::Message;
use crate::transfer::{FetchResult, Fetcher, FETCH_WINDOW};
use base_crypto::Digest;
use base_simnet::ProtocolEvent;

/// The state transfer in progress, if any.
#[derive(Default)]
pub(super) struct Fetch {
    fetcher: Option<Fetcher>,
    /// When the current fetch began (`transfer.fetch_ns`).
    started_at_ns: u64,
}

impl Fetch {
    pub(super) fn active(&self) -> bool {
        self.fetcher.is_some()
    }

    /// Starts fetching checkpoint `seq`, unless a fetch of it or a later
    /// one is under way.
    pub(super) fn start(&mut self, io: &mut Io<'_, '_>, view: u64, seq: u64, digest: Digest) {
        if self.fetcher.as_ref().is_some_and(|f| f.target_seq() >= seq) {
            return;
        }
        io.exec(|svc, env| svc.prepare_for_transfer(env));
        let mut fetcher = Fetcher::new(io.id, io.cfg.n, seq, digest, FETCH_WINDOW);
        for (to, msg) in fetcher.begin() {
            io.send_to_replica(to as usize, &msg);
        }
        self.fetcher = Some(fetcher);
        self.started_at_ns = io.ctx.now().as_nanos();
        io.ctx.emit(view, seq, ProtocolEvent::StateTransferFetchStarted);
        io.metrics.inc("transfer.fetches_started");
    }

    pub(super) fn tick(&mut self, io: &mut Io<'_, '_>) {
        for (to, msg) in self.fetcher.as_mut().map(Fetcher::tick).unwrap_or_default() {
            io.send_to_replica(to as usize, &msg);
        }
    }

    /// The one tail of every fetch reply: charge, fetcher, trace, send.
    /// Returns the fetched checkpoint once the transfer completes.
    pub(super) fn on_reply(
        &mut self,
        io: &mut Io<'_, '_>,
        view: u64,
        msg: &Message,
    ) -> Option<FetchResult> {
        let (seq, bytes) = match msg {
            Message::MetaReply(m) => (m.seq, m.digests.len() * 32),
            Message::ObjectReply(m) => (m.seq, m.data.len()),
            _ => return None,
        };
        io.ctx.charge(COST.digest(bytes));
        let fetcher = self.fetcher.as_mut()?;
        let (out, done) = match msg {
            Message::MetaReply(m) => fetcher.on_meta_reply(m, io.service.current_tree()),
            Message::ObjectReply(m) => fetcher.on_object_reply(m),
            _ => return None,
        };
        let bytes = bytes as u64;
        io.ctx.emit(view, seq, ProtocolEvent::StateTransferFetchChunk { bytes });
        for (to, msg) in out {
            io.send_to_replica(to as usize, &msg);
        }
        done
    }

    /// Reports a completed transfer and ends it; the caller installs it.
    pub(super) fn finish(&mut self, io: &mut Io<'_, '_>, view: u64, result: &FetchResult) {
        let objects = result.objects.len() as u64;
        io.stats.state_transfers += 1;
        io.stats.state_transfer_bytes += result.fetched_bytes;
        io.stats.state_transfer_objects += objects;
        io.stats.state_transfer_meta_queries += result.meta_queries;
        io.ctx.emit(view, result.seq, ProtocolEvent::StateTransferFetchCompleted { objects });
        let m = &mut *io.metrics;
        m.observe("transfer.bytes_fetched", result.fetched_bytes);
        m.observe("transfer.objects_fetched", objects);
        m.add("transfer.corrupt_replies", result.corrupt_replies);
        m.add("transfer.retransmissions", result.retransmissions);
        // Wall-clock from fetch start to installation: the transfer's
        // contribution to heal-to-progress latency.
        m.observe("transfer.fetch_ns", io.ctx.now().as_nanos().saturating_sub(self.started_at_ns));
        self.fetcher = None;
    }

    pub(super) fn status(&self, out: &mut String) {
        let target = self.fetcher.as_ref().map(|f| f.target_seq());
        out.push_str(&format!(",\"fetch\":{}", json_opt(target)));
    }
}
