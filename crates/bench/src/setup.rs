//! Simulation builders for the experiment testbeds.

use base::{BaseReplica, BaseService};
use base_crypto::NodeKeys;
use base_nfs::relay::{DirectActor, DirectServerActor, NfsDriver, RelayActor};
use base_nfs::{BtreeFs, FlatFs, InodeFs, LogFs, NfsServer, NfsWrapper};
use base_pbft::{Config, ReplicaRef};
use base_simnet::{LatencyModel, NodeId, SimDuration, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Abstract object array capacity used by the testbeds.
pub const CAPACITY: u64 = 4096;

/// Which implementations the replicas run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsMix {
    /// Replica 0: InodeFs, 1: FlatFs, 2: LogFs, 3: BtreeFs — a different
    /// implementation on every replica (opportunistic N-version).
    Heterogeneous,
    /// All replicas run InodeFs (the classic-BFT configuration).
    HomogeneousInode,
}

/// Calibrated per-op server costs approximating the paper's era
/// (Linux 2.2 NFS daemons on ~600 MHz machines, warm cache, async disk):
/// returns `(base, per_byte_ns)`.
pub fn era_costs() -> (SimDuration, u64) {
    (SimDuration::from_micros(350), 120)
}

/// Applies the switched-LAN profile the paper's testbed used.
pub fn lan_config(sim: &mut Simulation) {
    sim.config_mut().latency = LatencyModel::lan();
}

/// A built replicated-NFS testbed.
#[derive(Clone)]
pub struct NfsTestbed {
    /// Group configuration.
    pub cfg: Config,
    /// The replicas (nodes `0..n`), whichever file system each runs:
    /// `bed.replicas[i].get(sim)` is replica `i`'s stats, metrics, state
    /// root and fault-injection switches.
    pub replicas: Vec<ReplicaRef>,
    /// The relay/client node.
    pub client: NodeId,
}

/// The implementation family a replica runs (determined by mix + index).
fn impl_of(mix: FsMix, i: usize) -> usize {
    match mix {
        FsMix::HomogeneousInode => 0,
        FsMix::Heterogeneous => i % 4,
    }
}

/// Installs a replica serving `fs` behind the era-calibrated wrapper.
fn add_replica<F: NfsServer>(
    sim: &mut Simulation,
    cfg: &Config,
    keys: NodeKeys,
    fs: F,
) -> ReplicaRef {
    let mut w = NfsWrapper::with_capacity(fs, CAPACITY);
    (w.op_cost_base, w.op_cost_per_byte_ns) = era_costs();
    let replica = BaseReplica::new(cfg.clone(), keys, BaseService::new(w));
    ReplicaRef::of::<BaseService<NfsWrapper<F>>>(sim.add_node(Box::new(replica)))
}

/// Builds a 4-replica BASE NFS service plus a relay driving `driver`.
pub fn build_replicated_nfs<D: NfsDriver>(
    sim: &mut Simulation,
    seed: u64,
    mix: FsMix,
    driver: D,
) -> NfsTestbed {
    build_replicated_nfs_n(sim, seed, 4, mix, driver)
}

/// Builds an `n`-replica BASE NFS service (n ≥ 4); in the heterogeneous
/// mix the four implementation families rotate across the replicas.
pub fn build_replicated_nfs_n<D: NfsDriver>(
    sim: &mut Simulation,
    seed: u64,
    n: usize,
    mix: FsMix,
    driver: D,
) -> NfsTestbed {
    build_replicated_nfs_with(sim, seed, n, mix, driver, |_| {})
}

/// Like [`build_replicated_nfs_n`] but lets the caller adjust the group
/// configuration (chaos campaigns shorten the checkpoint interval and the
/// reboot time so recoveries complete within a run).
pub fn build_replicated_nfs_with<D: NfsDriver>(
    sim: &mut Simulation,
    seed: u64,
    n: usize,
    mix: FsMix,
    driver: D,
    tweak: impl FnOnce(&mut Config),
) -> NfsTestbed {
    lan_config(sim);
    let mut cfg = Config::new(n);
    cfg.checkpoint_interval = 128; // The paper's k.
    cfg.log_window = 256;
    tweak(&mut cfg);
    let dir = base_crypto::KeyDirectory::generate(n + 1, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut replicas = Vec::new();

    for i in 0..n {
        let keys = NodeKeys::new(dir.clone(), i);
        let id = i as u64;
        let replica = match impl_of(mix, i) {
            0 => add_replica(sim, &cfg, keys, InodeFs::new(0x10 + id, &mut rng)),
            1 => add_replica(sim, &cfg, keys, FlatFs::new(0x40 + id, &mut rng)),
            2 => add_replica(sim, &cfg, keys, LogFs::new(0x20 + id, &mut rng)),
            _ => add_replica(sim, &cfg, keys, BtreeFs::new(0x30 + id, &mut rng)),
        };
        sim.config_mut().set_clock_skew(replica.node, SimDuration::from_millis(13 * i as u64));
        replicas.push(replica);
    }
    let keys = NodeKeys::new(dir, n);
    let client = sim.add_node(Box::new(RelayActor::new(cfg.clone(), keys, driver)));
    NfsTestbed { cfg, replicas, client }
}

/// Builds the unreplicated baseline: one InodeFs server + a direct client.
/// Returns `(server, client)`.
pub fn build_direct_nfs<D: NfsDriver>(
    sim: &mut Simulation,
    seed: u64,
    driver: D,
) -> (NodeId, NodeId) {
    lan_config(sim);
    let mut rng = StdRng::seed_from_u64(seed);
    let (base_cost, per_byte) = era_costs();
    let mut server_actor = DirectServerActor::new(InodeFs::new(0x99, &mut rng));
    server_actor.wrapper_mut().op_cost_base = base_cost;
    server_actor.wrapper_mut().op_cost_per_byte_ns = per_byte;
    let server = sim.add_node(Box::new(server_actor));
    let client = sim.add_node(Box::new(DirectActor::new(server, driver)));
    (server, client)
}

/// Arms the seeded latent bug on every replica running InodeFs and returns
/// their nodes.
pub fn arm_inode_latent_bug(sim: &mut Simulation, bed: &NfsTestbed) -> Vec<NodeId> {
    let mut armed = Vec::new();
    for r in &bed.replicas {
        if let Some(replica) = sim.actor_as_mut::<BaseReplica<NfsWrapper<InodeFs>>>(r.node) {
            replica.service_mut().wrapper_mut().server_mut().latent_bug = true;
            armed.push(r.node);
        }
    }
    armed
}

/// Sets a paced submission gap on the relay at `client`.
pub fn set_relay_pace<D: NfsDriver>(
    sim: &mut Simulation,
    client: NodeId,
    gap: SimDuration,
) {
    sim.actor_as_mut::<RelayActor<D>>(client).expect("relay actor").set_pace(gap);
}

/// Runs the simulation until the relay's driver finishes (true) or the
/// limit passes (false).
pub fn run_relay_to_completion<D: NfsDriver>(
    sim: &mut Simulation,
    client: NodeId,
    limit: SimDuration,
) -> bool {
    base_nfs::relay::run_to_completion(
        sim,
        |s| s.actor_as::<RelayActor<D>>(client).map(|r| r.done()).unwrap_or(false),
        limit,
    )
}

/// Runs the simulation until the direct client finishes.
pub fn run_direct_to_completion<D: NfsDriver>(
    sim: &mut Simulation,
    client: NodeId,
    limit: SimDuration,
) -> bool {
    base_nfs::relay::run_to_completion(
        sim,
        |s| s.actor_as::<DirectActor<D>>(client).map(|r| r.done()).unwrap_or(false),
        limit,
    )
}
