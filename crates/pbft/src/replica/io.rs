//! The borrowed context through which the parts of a replica act.

use super::ReplicaStats;
use crate::byzantine::ByzMode;
use crate::config::Config;
use crate::cost::COST;
use crate::log::Log;
use crate::messages::{CheckpointMsg, Message, PrePrepareMsg, ReplyMsg};
use crate::service::{ExecEnv, Service};
use base_crypto::{Authenticator, Digest, NodeKeys};
use base_simnet::{Context, MetricsRegistry, NodeId, Payload};
use std::borrow::Cow;

/// The replica's shared context, borrowed for one step: the simulator
/// context, configuration, keys, id, Byzantine mode, counters,
/// message log and service. Parts send and call the service only through
/// it, so two rules live here once: a Byzantine mode shapes only the frames
/// that leave ([`Io::outbound`]), and every service upcall sees the local
/// clock and the node's RNG and is charged the CPU time it reports.
pub(super) struct Io<'a, 'c> {
    pub(super) ctx: &'a mut Context<'c>,
    pub(super) cfg: &'a Config,
    pub(super) keys: &'a NodeKeys,
    pub(super) id: u32,
    /// Mutable so that a recovery which repaired the state can clear
    /// `CorruptState`.
    pub(super) byz: &'a mut ByzMode,
    pub(super) stats: &'a mut ReplicaStats,
    pub(super) metrics: &'a mut MetricsRegistry,
    pub(super) log: &'a mut Log,
    pub(super) service: &'a mut dyn Service,
}

/// Borrows a replica's shared context as an [`Io`], leaving its parts free
/// to be borrowed beside it.
macro_rules! io {
    ($replica:ident, $ctx:ident) => {
        $crate::replica::io::Io {
            id: $replica.keys.id() as u32,
            ctx: &mut *$ctx,
            cfg: &$replica.cfg,
            keys: &$replica.keys,
            byz: &mut $replica.byz,
            stats: &mut $replica.stats,
            metrics: &mut $replica.metrics,
            log: &mut $replica.log,
            service: &mut $replica.service,
        }
    };
}
pub(super) use io;

impl Io<'_, '_> {
    pub(super) fn is_primary(&self, view: u64) -> bool {
        self.cfg.primary_of(view) == self.id as usize
    }

    /// Counts a message discarded as malformed or badly authenticated.
    pub(super) fn reject(&mut self) {
        self.stats.rejected_messages += 1;
    }

    /// What goes on the wire to `to` for `msg`, or `None` for nothing: the
    /// one place a Byzantine mode shapes a message. It changes only the
    /// frame; what the replica logs, stores and counts is what it built, as
    /// an honest replica would hold it. Forged messages are authenticated
    /// again under this replica's keys, uncharged.
    fn outbound<'m>(&self, to: NodeId, msg: &'m Message) -> Option<Cow<'m, Message>> {
        let me = self.id;
        let own_pp = |pp: &PrePrepareMsg| self.is_primary(pp.view);
        let shaped = match (*self.byz, msg) {
            (ByzMode::Mute, _) => return None,
            (ByzMode::WithholdCommits, Message::Commit(c)) if c.replica == me => return None,
            (ByzMode::CorruptReplies, Message::Reply(r)) => {
                let flipped = r.result.iter().map(|b| b ^ 0xa5);
                let result = if r.result.is_empty() { vec![0xa5] } else { flipped.collect() };
                let mut reply = ReplyMsg { result: result.into(), ..r.clone() };
                let client = r.client as usize;
                reply.mac = reply.with_signed_bytes(|r| Authenticator::point(self.keys, client, r));
                Message::Reply(reply)
            }
            (ByzMode::CorruptCheckpoints, Message::Checkpoint(c)) if c.replica == me => {
                let digest = Digest::of_parts(&[b"corrupt", &c.digest.0]);
                let mut forged = CheckpointMsg { digest, ..c.clone() };
                forged.sig = forged.with_signed_bytes(|signed| self.keys.sign(signed));
                Message::Checkpoint(forged)
            }
            (ByzMode::EquivocatePrimary, Message::PrePrepare(pp))
                if own_pp(pp) && self.cfg.replica_of(to).is_some_and(|i| i % 2 == 1) =>
            {
                let mut nondet = pp.nondet().to_vec();
                nondet.push(0xff);
                self.forge(pp, nondet)
            }
            (ByzMode::BadTimestamps, Message::PrePrepare(pp))
                if own_pp(pp) && pp.nondet().len() == 8 =>
            {
                // A century in the future: honest backups must reject it.
                let century = 100 * 365 * 24 * 3600 * 1_000_000_000;
                let forged = self.ctx.local_clock().as_nanos() + century;
                self.forge(pp, forged.to_be_bytes().to_vec())
            }
            _ => return Some(Cow::Borrowed(msg)),
        };
        Some(Cow::Owned(shaped))
    }

    /// `pp` with `nondet` in place of its own, authenticated afresh.
    fn forge(&self, pp: &PrePrepareMsg, nondet: Vec<u8>) -> Message {
        let mut forged = PrePrepareMsg::new(pp.view, pp.seq, pp.requests().to_vec(), nondet);
        let n = self.cfg.n;
        forged.auth = forged.with_signed_bytes(|h| Authenticator::generate(self.keys, n, h));
        Message::PrePrepare(forged)
    }

    pub(super) fn send(&mut self, to: NodeId, msg: &Message) {
        if let Some(msg) = self.outbound(to, msg) {
            self.ctx.send(to, msg.to_payload());
        }
    }

    pub(super) fn send_to_replica(&mut self, i: usize, msg: &Message) {
        self.send(self.cfg.replica_node(i), msg);
    }

    /// Sends `msg` to every other replica. An honest replica encodes it
    /// once, every recipient sharing the one allocation, and returns that
    /// frame; a faulty one sends each recipient what [`Io::outbound`] makes
    /// of it and returns `None`.
    pub(super) fn multicast(&mut self, msg: &Message) -> Option<Payload> {
        let me = self.id as usize;
        let peers = (0..self.cfg.n).filter(move |i| *i != me);
        if self.byz.is_faulty() {
            peers.for_each(|i| self.send_to_replica(i, msg));
            return None;
        }
        let wire = msg.to_payload();
        peers.for_each(|i| self.ctx.send(self.cfg.replica_node(i), wire.clone()));
        Some(wire)
    }

    /// Authenticates `header`, a message's signed bytes, to the other
    /// replicas, charging a MAC each.
    pub(super) fn authenticator(&mut self, header: &[u8]) -> Authenticator {
        self.ctx.charge(COST.authenticator(self.cfg.n - 1));
        Authenticator::generate(self.keys, self.cfg.n, header)
    }

    /// Runs a service upcall and charges the CPU time it reports.
    pub(super) fn exec<R>(
        &mut self,
        upcall: impl FnOnce(&mut dyn Service, &mut ExecEnv<'_>) -> R,
    ) -> R {
        let clock = self.ctx.local_clock().as_nanos();
        let mut env = ExecEnv::new(clock, self.ctx.rng());
        let out = upcall(&mut *self.service, &mut env);
        let charged = env.charged();
        self.ctx.charge(charged);
        out
    }
}
