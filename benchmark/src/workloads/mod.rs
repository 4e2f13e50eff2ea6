//! The five workloads, and what they share: node construction with or
//! without interposers, and the [`Bench`] interface the harness drives.

pub mod kv;
pub mod nfs;
pub mod shard;

use crate::trace::{actor, actor_mut, NodeKind, TimedActor, TimedService, TimedWrapper};
use base::service::BaseStats;
use base::{BaseService, ShardLockService, Wrapper};
use base_crypto::{Digest, NodeKeys};
use base_pbft::{Config, ExecEnv, Replica, ReplicaStats, Service};
use base_simnet::{Actor, NodeId, SimDuration, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "kv_write",
    "kv_read",
    "nfs_andrew",
    "recovery",
    "shard_cross",
];

/// Builds the named workload on a fresh simulation.
pub fn build(name: &str, seed: u64, traced: bool, scale: Scale) -> Option<Box<dyn Bench>> {
    Some(match name {
        "kv_write" => Box::new(kv::KvBench::new(kv::KvSpec::write(scale), seed, traced)),
        "kv_read" => Box::new(kv::KvBench::new(kv::KvSpec::read(scale), seed, traced)),
        "recovery" => Box::new(kv::KvBench::new(kv::KvSpec::recovery(scale), seed, traced)),
        "nfs_andrew" => Box::new(nfs::NfsBench::new(scale, seed, traced)),
        "shard_cross" => Box::new(shard::ShardBench::new(scale, seed, traced)),
        _ => return None,
    })
}

/// How long an op stream is. `Full` is what the benchmark measures; the
/// crate tests use `Tiny` to compare a traced with an untraced run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The measured stream.
    Full,
    /// A few hundred ops.
    Tiny,
}

/// Read access to the counters of the `BaseService` at the bottom of a
/// service stack, whatever interposers and lock services sit on it.
pub trait ServiceView {
    /// Counters of the `BaseService` at the bottom.
    fn base_stats(&self) -> BaseStats;
}

impl<W: Wrapper> ServiceView for BaseService<W> {
    fn base_stats(&self) -> BaseStats {
        self.stats.clone()
    }
}

impl<S: ServiceView> ServiceView for TimedService<S> {
    fn base_stats(&self) -> BaseStats {
        self.inner().base_stats()
    }
}

impl<S: Service + ServiceView> ServiceView for ShardLockService<S> {
    fn base_stats(&self) -> BaseStats {
        self.inner().base_stats()
    }
}

/// What the harness reads off one replica.
#[derive(Clone, Debug)]
pub struct ReplicaSnap {
    /// Protocol counters.
    pub stats: ReplicaStats,
    /// Highest executed sequence number.
    pub last_exec: u64,
    /// Last stable checkpoint.
    pub stable_seq: u64,
    /// True while recovering or fetching state.
    pub busy: bool,
    /// Virtual duration of the last completed recovery.
    pub last_recovery_ns: u64,
    /// Abstraction-layer counters.
    pub base: BaseStats,
}

/// A replica node together with the functions that know its concrete type.
#[derive(Clone, Copy)]
pub struct ReplicaHandle {
    /// Simulator node.
    pub id: NodeId,
    snap: fn(&Simulation, NodeId) -> ReplicaSnap,
    flush: fn(&mut Simulation, NodeId) -> Digest,
}

impl ReplicaHandle {
    /// For a node that holds a `Replica<S>`, timed or not.
    pub fn of<S: Service + ServiceView>(id: NodeId) -> Self {
        Self {
            id,
            snap: snap::<S>,
            flush: flush::<S>,
        }
    }

    /// Reads the replica's counters.
    pub fn snap(&self, sim: &Simulation) -> ReplicaSnap {
        (self.snap)(sim, self.id)
    }

    /// Brings the digest tree up to date with the current abstract state
    /// and returns its root. Changes service counters, so only called once
    /// every metric has been read.
    pub fn flushed_root(&self, sim: &mut Simulation) -> Digest {
        (self.flush)(sim, self.id)
    }
}

fn snap<S: Service + ServiceView>(sim: &Simulation, id: NodeId) -> ReplicaSnap {
    let r: &Replica<S> = actor(sim, id);
    ReplicaSnap {
        stats: r.stats.clone(),
        last_exec: r.last_exec(),
        stable_seq: r.stable_seq(),
        busy: r.recovering() || r.fetching(),
        last_recovery_ns: r.last_recovery_ns,
        base: r.service().base_stats(),
    }
}

fn flush<S: Service + ServiceView>(sim: &mut Simulation, id: NodeId) -> Digest {
    let r: &mut Replica<S> = actor_mut(sim, id);
    let mut rng = StdRng::seed_from_u64(0);
    r.service_mut()
        .prepare_for_transfer(&mut ExecEnv::new(0, &mut rng));
    r.service().current_tree().root_digest()
}

/// Adds a BASE replica over `wrapper`; in a traced run the actor, the
/// service and the wrapper each get their interposer.
pub fn add_base_replica<W: Wrapper>(
    sim: &mut Simulation,
    cfg: &Config,
    keys: NodeKeys,
    wrapper: W,
    traced: bool,
) -> ReplicaHandle {
    if traced {
        let svc = TimedService::new(BaseService::new(TimedWrapper(wrapper)));
        let id = sim.add_node(Box::new(TimedActor::new(
            Replica::new(cfg.clone(), keys, svc),
            NodeKind::Replica,
        )));
        ReplicaHandle::of::<TimedService<BaseService<TimedWrapper<W>>>>(id)
    } else {
        let id = sim.add_node(Box::new(Replica::new(
            cfg.clone(),
            keys,
            BaseService::new(wrapper),
        )));
        ReplicaHandle::of::<BaseService<W>>(id)
    }
}

/// Adds a client node, inside a [`TimedActor`] when traced.
pub fn add_client<A: Actor>(
    sim: &mut Simulation,
    client: A,
    kind: NodeKind,
    traced: bool,
) -> NodeId {
    if traced {
        sim.add_node(Box::new(TimedActor::new(client, kind)))
    } else {
        sim.add_node(Box::new(client))
    }
}

/// Outcome of checking a run's outputs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations whose reply was checked, plus one per state check.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per kind of failure, for the report.
    pub notes: Vec<String>,
    /// The state root each group's level replicas agreed on (the first
    /// replica's, where they did not).
    pub roots: Vec<Digest>,
}

impl Verdict {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}

/// Router-side counters of the sharded workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Cross-shard transactions completed.
    pub cross_txns: u64,
    /// Lock rounds rolled back after an `xbusy`.
    pub cross_aborts: u64,
}

/// One workload on one simulation, as the harness sees it.
pub trait Bench {
    /// The simulation.
    fn sim(&mut self) -> &mut Simulation;
    /// The simulation, read-only.
    fn sim_ref(&self) -> &Simulation;
    /// Virtual length of one slice.
    fn slice(&self) -> SimDuration;
    /// Replicas, one inner vector per group.
    fn groups(&self) -> &[Vec<ReplicaHandle>];
    /// Hands the clients more of the op stream; called between slices.
    fn feed(&mut self) {}
    /// True once the fixed warm-up is over: the timed window starts at the
    /// first slice boundary where this holds.
    fn warmed_up(&self) -> bool;
    /// True once the whole op stream has completed.
    fn finished(&self) -> bool;
    /// Client operations completed so far.
    fn completed(&self) -> u64;
    /// Latency samples taken so far, per protocol core.
    fn latency_counts(&self) -> Vec<usize>;
    /// Virtual request-to-accepted-reply latencies taken after `marks`.
    fn latencies_since(&self, marks: &[usize]) -> Vec<u64>;
    /// Client retransmissions so far.
    fn retransmissions(&self) -> u64;
    /// Router counters (zero unless sharded).
    fn router_stats(&self) -> RouterStats {
        RouterStats::default()
    }
    /// Recoveries the window must contain; when zero, the window must
    /// contain no state transfer and no view change at all.
    fn expected_recoveries(&self) -> u64 {
        0
    }
    /// Checks every reply against the model, reads the final state back
    /// through the clients, and compares the replicas' state roots.
    fn verify(&mut self) -> Verdict;
}

/// Steps the simulation until the replicas of each group are idle and level
/// with each other, then checks that their flushed state roots agree.
///
/// A fault-free workload must level all of its replicas. Under proactive
/// recovery the group never goes quiet — somebody is always about to
/// reboot, and a replica that missed the tail of the stream catches up only
/// at the next checkpoint, which an idle group never takes — so there the
/// check is the one the protocol itself promises: a quorum of `2f + 1`
/// replicas level at the newest sequence number, with equal roots.
pub fn check_roots(b: &mut dyn Bench, v: &mut Verdict) {
    let slice = b.slice();
    let quorum_only = b.expected_recoveries() > 0;
    let groups: Vec<Vec<ReplicaHandle>> = b.groups().to_vec();
    for (g, group) in groups.iter().enumerate() {
        let need = if quorum_only {
            2 * ((group.len() - 1) / 3) + 1
        } else {
            group.len()
        };
        let mut level: Vec<ReplicaHandle> = Vec::new();
        for _ in 0..4000 {
            let snaps: Vec<ReplicaSnap> = group.iter().map(|r| r.snap(b.sim_ref())).collect();
            let newest = snaps.iter().map(|s| s.last_exec).max().unwrap_or(0);
            level = group
                .iter()
                .zip(&snaps)
                .filter(|(_, s)| !s.busy && s.last_exec == newest)
                .map(|(r, _)| *r)
                .collect();
            if level.len() >= need {
                break;
            }
            b.sim().run_for(slice);
        }
        v.check(level.len() >= need, || {
            format!(
                "group {g}: only {} of {need} replicas levelled",
                level.len()
            )
        });
        let roots: Vec<Digest> = level.iter().map(|r| r.flushed_root(b.sim())).collect();
        v.check(roots.iter().all(|r| *r == roots[0]), || {
            format!(
                "group {g}: state roots differ: {:?}",
                roots.iter().map(Digest::short_hex).collect::<Vec<_>>()
            )
        });
        v.roots.extend(roots.first());
    }
}

/// Seeds one stream per (`seed`, `lane`) pair.
pub fn lane_rng(seed: u64, lane: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ lane.wrapping_mul(0xd1b5_4a32_d192_ed03),
    )
}

/// `len` printable bytes drawn from `rng`.
pub fn ascii(rng: &mut StdRng, len: usize) -> String {
    use rand::Rng;
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
        .collect()
}
