//! Simulation builders for the experiment testbeds.

use base::{BaseReplica, BaseService};
use base_nfs::relay::{DirectActor, DirectServerActor, NfsDriver, RelayActor};
use base_nfs::{BtreeFs, FlatFs, InodeFs, LogFs, NfsServer, NfsWrapper};
use base_pbft::{Config, Deployment};
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

/// The implementation family a replica runs (determined by mix + index).
fn impl_of(mix: FsMix, i: usize) -> usize {
    match mix {
        FsMix::HomogeneousInode => 0,
        FsMix::Heterogeneous => i % 4,
    }
}

/// `fs` behind the era-calibrated wrapper.
fn era_service<F: NfsServer>(fs: F) -> BaseService<NfsWrapper<F>> {
    let mut w = NfsWrapper::with_capacity(fs, CAPACITY);
    (w.op_cost_base, w.op_cost_per_byte_ns) = era_costs();
    BaseService::new(w)
}

/// Builds an `n`-replica BASE NFS service (n ≥ 4) plus a relay driving
/// `driver`, which is `clients[0]` of the returned deployment. In the
/// heterogeneous mix the four implementation families rotate across the
/// replicas. `tweak` adjusts the group configuration (chaos campaigns
/// shorten the checkpoint interval and the reboot time so recoveries
/// complete within a run).
pub fn build_replicated_nfs<D: NfsDriver>(
    sim: &mut Simulation,
    seed: u64,
    n: usize,
    mix: FsMix,
    driver: D,
    tweak: impl FnOnce(&mut Config),
) -> Deployment {
    lan_config(sim);
    let mut cfg = Config::new(n);
    cfg.checkpoint_interval = 128; // The paper's k.
    cfg.log_window = 256;
    tweak(&mut cfg);
    let mut d = Deployment::new(cfg, 1, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let id = i as u64;
        let replica = match impl_of(mix, i) {
            0 => d.replica(sim, era_service(InodeFs::new(0x10 + id, &mut rng))),
            1 => d.replica(sim, era_service(FlatFs::new(0x40 + id, &mut rng))),
            2 => d.replica(sim, era_service(LogFs::new(0x20 + id, &mut rng))),
            _ => d.replica(sim, era_service(BtreeFs::new(0x30 + id, &mut rng))),
        };
        sim.config_mut().set_clock_skew(replica.node, SimDuration::from_millis(13 * id));
    }
    d.client(sim, |cfg, keys| RelayActor::new(cfg, keys, driver));
    d
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
pub fn arm_inode_latent_bug(sim: &mut Simulation, bed: &Deployment) -> Vec<NodeId> {
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
