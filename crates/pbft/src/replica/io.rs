//! The borrowed context through which the parts of a replica act.

use super::ReplicaStats;
use crate::byzantine::ByzMode;
use crate::config::Config;
use crate::cost::CostModel;
use crate::log::Log;
use crate::messages::Message;
use crate::service::{ExecEnv, Service};
use base_crypto::NodeKeys;
use base_simnet::{Context, MetricsRegistry, NodeId};

/// The replica's shared context, borrowed for one step: the simulator
/// context, configuration, keys, cost model, id, Byzantine mode, counters,
/// message log and service. Parts send and call the service only through
/// it, so two rules live here once: a `Mute` replica sends nothing and
/// every message carries the shard tag, and every service upcall sees the
/// local clock and the node's RNG and is charged the CPU time it reports.
pub(super) struct Io<'a, 'c> {
    pub(super) ctx: &'a mut Context<'c>,
    pub(super) cfg: &'a Config,
    pub(super) keys: &'a NodeKeys,
    pub(super) cost: &'a CostModel,
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
            cost: &$replica.cost,
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
    pub(super) fn is(&self, mode: ByzMode) -> bool {
        *self.byz == mode
    }

    pub(super) fn is_primary(&self, view: u64) -> bool {
        self.cfg.primary_of(view) == self.id as usize
    }

    /// Counts a message discarded as malformed or badly authenticated.
    pub(super) fn reject(&mut self) {
        self.stats.rejected_messages += 1;
    }

    pub(super) fn send(&mut self, to: NodeId, msg: &Message) {
        if !self.is(ByzMode::Mute) {
            self.ctx.send(to, msg.to_payload(self.cfg.shard));
        }
    }

    pub(super) fn send_to_replica(&mut self, i: usize, msg: &Message) {
        self.send(self.cfg.replica_node(i), msg);
    }

    /// Sends `msg` to every other replica, encoded once: every recipient
    /// shares the same allocation.
    pub(super) fn multicast(&mut self, msg: &Message) {
        if self.is(ByzMode::Mute) {
            return;
        }
        let wire = msg.to_payload(self.cfg.shard);
        for i in (0..self.cfg.n).filter(|i| *i != self.id as usize) {
            self.ctx.send(self.cfg.replica_node(i), wire.clone());
        }
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
