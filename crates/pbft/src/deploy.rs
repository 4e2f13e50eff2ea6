//! One deployment: where each replica and client of a group runs, and which
//! keys it holds.
//!
//! The layout rule lives here and nowhere else. Replica `i` runs on
//! [`Config::replica_node`]`(i)` with key id `i`, and client `j` runs on
//! [`Config::client_node`]`(n + j)` with key id `n + j`. Every key comes from
//! one [`KeyDirectory`] of `n + clients` nodes, generated from the run's
//! seed. Each install asserts that the simulator's next node is the one the
//! rule names, so a layout that drifts fails while the group is built, not
//! as a reply that reaches the wrong node.
//!
//! A group is built in three steps: [`Deployment::new`] mints the keys,
//! [`Deployment::replica`] installs the next replica, and
//! [`Deployment::client`] installs the next client. The service type may
//! differ from one `replica` call to the next, which is how the paper's
//! heterogeneous group is built. [`Deployment::build`] does all three for
//! `n` replicas of one service and plain [`ClientActor`]s.

use crate::config::Config;
use crate::control::ReplicaRef;
use crate::replica::Replica;
use crate::service::Service;
use crate::ClientActor;
use base_crypto::{KeyDirectory, NodeKeys};
use base_simnet::{Actor, NodeId, Simulation};

/// A replica group laid out on a simulation: its configuration, its keys,
/// and the nodes installed so far.
pub struct Deployment {
    /// The configuration every replica and client is built with.
    pub cfg: Config,
    /// The keys of the group's `n + clients` nodes.
    pub dir: KeyDirectory,
    /// The replicas installed so far; replica `i` is at index `i`.
    pub replicas: Vec<ReplicaRef>,
    /// The clients installed so far; client `j` is at index `j`.
    pub clients: Vec<NodeId>,
}

impl Deployment {
    /// Mints the keys of a group of `cfg.n` replicas and `clients` clients
    /// from `seed`. Nothing is installed yet.
    pub fn new(cfg: Config, clients: usize, seed: u64) -> Self {
        let dir = KeyDirectory::generate(cfg.n + clients, seed);
        Self { cfg, dir, replicas: Vec::new(), clients: Vec::new() }
    }

    /// Installs `cfg.n` replicas, replica `i` running `service(i)`, then
    /// `clients` [`ClientActor`]s.
    pub fn build<S: Service>(
        sim: &mut Simulation,
        cfg: Config,
        clients: usize,
        seed: u64,
        mut service: impl FnMut(usize) -> S,
    ) -> Self {
        let mut d = Self::new(cfg, clients, seed);
        for i in 0..d.cfg.n {
            d.replica(sim, service(i));
        }
        for _ in 0..clients {
            d.client(sim, ClientActor::new);
        }
        d
    }

    /// Installs the next replica, running `service`.
    ///
    /// # Panics
    ///
    /// If all `n` replicas are installed, or if the simulator's next node is
    /// not where the layout rule puts this replica.
    pub fn replica<S: Service>(&mut self, sim: &mut Simulation, service: S) -> ReplicaRef {
        let i = self.replicas.len();
        assert!(i < self.cfg.n, "the group has {} replicas, all installed", self.cfg.n);
        expect_next(sim, self.cfg.replica_node(i));
        let replica = Replica::new(self.cfg.clone(), self.keys(i), service);
        let r = ReplicaRef::of::<S>(sim.add_node(Box::new(replica)));
        self.replicas.push(r);
        r
    }

    /// Reinstalls replica `i` with a fresh `service` on the same node and
    /// keys (see [`Simulation::replace_node`]): an on-line upgrade, or a
    /// machine rebuilt from scratch.
    pub fn replace<S: Service>(
        &mut self,
        sim: &mut Simulation,
        i: usize,
        service: S,
    ) -> ReplicaRef {
        let node = self.replicas[i].node;
        sim.replace_node(node, Box::new(Replica::new(self.cfg.clone(), self.keys(i), service)));
        self.replicas[i] = ReplicaRef::of::<S>(node);
        self.replicas[i]
    }

    /// Installs the next client, the actor `make` builds from the group's
    /// configuration and the client's keys.
    ///
    /// # Panics
    ///
    /// If the directory holds no keys for another client, or if the
    /// simulator's next node is not where the layout rule puts it.
    pub fn client<A: Actor>(
        &mut self,
        sim: &mut Simulation,
        make: impl FnOnce(Config, NodeKeys) -> A,
    ) -> NodeId {
        let keys = self.next_client_keys(sim);
        let node = sim.add_node(Box::new(make(self.cfg.clone(), keys)));
        self.clients.push(node);
        node
    }

    /// Installs one node that is the next client of every group in
    /// `groups` at once: a router of a sharded deployment, which needs the
    /// same layout slot in each group. `make` gets each group's
    /// configuration and keys, in the order of `groups`.
    pub fn shared_client<A: Actor>(
        sim: &mut Simulation,
        groups: &mut [Deployment],
        make: impl FnOnce(Vec<Config>, Vec<NodeKeys>) -> A,
    ) -> NodeId {
        let keys = groups.iter().map(|d| d.next_client_keys(sim)).collect();
        let cfgs = groups.iter().map(|d| d.cfg.clone()).collect();
        let node = sim.add_node(Box::new(make(cfgs, keys)));
        for d in groups {
            d.clients.push(node);
        }
        node
    }

    fn keys(&self, id: usize) -> NodeKeys {
        NodeKeys::new(self.dir.clone(), id)
    }

    fn next_client_keys(&self, sim: &Simulation) -> NodeKeys {
        let id = self.cfg.n + self.clients.len();
        assert!(id < self.dir.node_count(), "the group's keys are all handed out");
        expect_next(sim, self.cfg.client_node(id as u32).expect("a client id is at least n"));
        self.keys(id)
    }
}

/// Asserts that the simulator's next node is `node`.
fn expect_next(sim: &Simulation, node: NodeId) {
    let next = NodeId(sim.node_count());
    assert_eq!(next, node, "layout: the next node is {next:?}, the layout rule says {node:?}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{op_add, CounterService};
    use base_simnet::{Context, SimDuration};

    #[test]
    fn four_replicas_and_two_clients_follow_the_layout_rule() {
        let mut sim = Simulation::new(3);
        let mut d = Deployment::new(Config::new(4), 2, 3);
        assert_eq!(d.dir.node_count(), 6);
        for i in 0..4 {
            let r = d.replica(&mut sim, CounterService::default());
            assert_eq!(r.node, NodeId(i));
            assert!(r.get(&sim).status().starts_with(&format!("{{\"replica\":{i},")));
        }
        for j in 0..2 {
            let node = d.client(&mut sim, |cfg, keys| {
                assert_eq!(keys.id(), 4 + j, "client {j}'s key id");
                ClientActor::new(cfg, keys)
            });
            assert_eq!(node, NodeId(4 + j));
        }
        assert_eq!(d.clients, [NodeId(4), NodeId(5)]);
        // The keys fit the nodes: each client's write is ordered, executed
        // and answered at that client.
        for (j, &c) in d.clients.iter().enumerate() {
            sim.actor_as_mut::<ClientActor>(c).unwrap().invoke(op_add(j as u64, 1), false);
        }
        sim.run_for(SimDuration::from_secs(1));
        for &c in &d.clients {
            assert_eq!(sim.actor_as::<ClientActor>(c).unwrap().completed.len(), 1);
        }
    }

    struct Stray;

    impl Actor for Stray {
        fn on_message(&mut self, _: NodeId, _: &[u8], _: &mut Context<'_>) {}
    }

    #[test]
    #[should_panic(expected = "layout: the next node is NodeId(2), the layout rule says NodeId(1)")]
    fn a_node_added_between_two_replicas_fails_the_layout_assertion() {
        let mut sim = Simulation::new(3);
        let mut d = Deployment::new(Config::new(4), 1, 3);
        d.replica(&mut sim, CounterService::default());
        sim.add_node(Box::new(Stray));
        d.replica(&mut sim, CounterService::default());
    }
}
