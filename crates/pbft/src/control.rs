//! The service-independent view of a replica.
//!
//! [`Replica<S>`] is generic in its service, so a group whose replicas run
//! *different* services — the paper's heterogeneous deployment — has no
//! common static type. [`ReplicaControl`] is the object-safe part of the
//! replica's interface that does not mention `S`, and [`ReplicaRef`] is a
//! `Copy` handle that remembers, from the moment the replica was installed,
//! how to downcast its simulator node to that interface. Harnesses,
//! auditors and experiments walk a mixed group through these two and never
//! name a concrete service type.

use crate::byzantine::ByzMode;
use crate::replica::{Replica, ReplicaStats};
use crate::service::Service;
use base_crypto::Digest;
use base_simnet::{MetricsRegistry, NodeId, Simulation};

/// What fault injection and auditing need of a replica, whatever service it
/// runs. Every method forwards to the [`Replica`] method or field of the
/// same name.
pub trait ReplicaControl {
    /// Current view.
    fn view(&self) -> u64;
    /// Currently configured Byzantine mode.
    fn byzantine(&self) -> ByzMode;
    /// Configures Byzantine behaviour.
    fn set_byzantine(&mut self, mode: ByzMode);
    /// Last stable checkpoint.
    fn stable_seq(&self) -> u64;
    /// Digest proven by the current stable-checkpoint certificate.
    fn stable_digest(&self) -> Option<Digest>;
    /// All locally retained checkpoint digests, oldest first.
    fn checkpoint_digests(&self) -> Vec<(u64, Digest)>;
    /// The cached reply for `client`'s request at `timestamp`, if any.
    fn cached_reply(&self, client: u32, timestamp: u64) -> Option<&[u8]>;
    /// Root digest of the service's current abstract state.
    fn state_root(&self) -> Digest;
    /// Protocol counters.
    fn stats(&self) -> &ReplicaStats;
    /// The replica's metrics registry.
    fn metrics(&self) -> &MetricsRegistry;
    /// Injects latent concrete-state corruption derived from `seed`.
    fn corrupt_service_state(&mut self, seed: u64);
    /// Requests an immediate proactive recovery.
    fn trigger_recovery(&mut self);
    /// Selects clean or warm proactive-recovery reboots.
    fn set_recovery_clean(&mut self, clean: bool);
    /// Where the replica stands, as one deterministic JSON line.
    fn status(&self) -> String;
}

impl<S: Service> ReplicaControl for Replica<S> {
    fn view(&self) -> u64 {
        Replica::view(self)
    }
    fn byzantine(&self) -> ByzMode {
        Replica::byzantine(self)
    }
    fn set_byzantine(&mut self, mode: ByzMode) {
        Replica::set_byzantine(self, mode);
    }
    fn stable_seq(&self) -> u64 {
        Replica::stable_seq(self)
    }
    fn stable_digest(&self) -> Option<Digest> {
        Replica::stable_digest(self)
    }
    fn checkpoint_digests(&self) -> Vec<(u64, Digest)> {
        Replica::checkpoint_digests(self)
    }
    fn cached_reply(&self, client: u32, timestamp: u64) -> Option<&[u8]> {
        Replica::cached_reply(self, client, timestamp)
    }
    fn state_root(&self) -> Digest {
        self.service().current_tree().root_digest()
    }
    fn stats(&self) -> &ReplicaStats {
        &self.stats
    }
    fn metrics(&self) -> &MetricsRegistry {
        Replica::metrics(self)
    }
    fn corrupt_service_state(&mut self, seed: u64) {
        Replica::corrupt_service_state(self, seed);
    }
    fn trigger_recovery(&mut self) {
        Replica::trigger_recovery(self);
    }
    fn set_recovery_clean(&mut self, clean: bool) {
        Replica::set_recovery_clean(self, clean);
    }
    fn status(&self) -> String {
        Replica::status(self)
    }
}

/// A handle to the replica installed at [`node`](Self::node), typed at
/// build time and untyped afterwards: [`ReplicaRef::of`] monomorphises the
/// two downcasts for the service the replica runs, so holders of the handle
/// reach the replica as `dyn ReplicaControl` without knowing `S`.
#[derive(Clone, Copy)]
pub struct ReplicaRef {
    /// The simulator node the replica runs on.
    pub node: NodeId,
    get: fn(&Simulation, NodeId) -> Option<&dyn ReplicaControl>,
    get_mut: fn(&mut Simulation, NodeId) -> Option<&mut dyn ReplicaControl>,
}

impl ReplicaRef {
    /// A handle to the `Replica<S>` installed at `node`.
    pub fn of<S: Service>(node: NodeId) -> Self {
        Self {
            node,
            get: |sim, node| sim.actor_as::<Replica<S>>(node).map(|r| r as _),
            get_mut: |sim, node| sim.actor_as_mut::<Replica<S>>(node).map(|r| r as _),
        }
    }

    /// The replica, read-only.
    ///
    /// # Panics
    ///
    /// If the node no longer hosts the replica type the handle was built
    /// for (e.g. after [`Simulation::replace_node`]).
    pub fn get<'a>(&self, sim: &'a Simulation) -> &'a dyn ReplicaControl {
        (self.get)(sim, self.node).expect("node hosts the replica type of its handle")
    }

    /// The replica, mutably. Panics like [`ReplicaRef::get`].
    pub fn get_mut<'a>(&self, sim: &'a mut Simulation) -> &'a mut dyn ReplicaControl {
        (self.get_mut)(sim, self.node).expect("node hosts the replica type of its handle")
    }
}
