//! Experiment E14: shard scaling — sim throughput of the sharded
//! multi-group deployment at 1, 2 and 4 replica groups.
//!
//! Each cell builds `K` independent four-replica BASE groups over the
//! demo KV service (object space split contiguously by [`ShardMap`]) and
//! drives them with four closed-loop routers. Every router holds one
//! protocol core per shard, so a single router keeps all `K` groups busy
//! concurrently; the workload round-robins its keys across shards so each
//! group receives `1/K` of the operations. The wrapped implementation
//! charges a fixed per-operation execution cost, making each group
//! execution-bound — the regime where partitioning the object space pays.
//!
//! Two workloads:
//!
//! * **disjoint** — single-shard puts only; the ideal-scaling headline.
//! * **mixed** — every tenth slot is an atomic two-shard transaction
//!   through the ordered two-phase commit (prep in shard order, commit,
//!   abort/retry on conflict). At one shard the pair degrades to two
//!   single-shard puts, keeping the applied work identical across cells.
//!
//! All reported quantities are virtual-time deterministic.

use crate::report::Table;
use base::demo::{kv_footprint, KvWrapper, TinyKv, N_SLOTS};
use base::shard::{build_sharded_group, ShardLockService, ShardMap, ShardedClient};
use base::{BaseService, Config};
use base_simnet::{SimDuration, Simulation};

/// Closed-loop routers per cell; also the per-group batching headroom.
pub const SHARD_ROUTERS: usize = 4;
/// Workload slots per router. Divisible by every measured shard count so
/// the round-robin loads each group identically.
pub const SHARD_SLOTS_PER_ROUTER: usize = 48;
/// Simulated execution cost per KV operation, the knob that makes each
/// group execution-bound rather than network-bound.
pub const SHARD_OP_COST_US: u64 = 300;

/// One measured shard-scaling cell.
pub struct ShardSample {
    /// Replica groups in the deployment.
    pub shards: u32,
    /// Applied put sub-operations (a cross-shard transaction counts each
    /// of its sub-operations), identical across cells of one workload.
    pub ops: u64,
    /// Cross-shard transactions committed.
    pub cross_txns: u64,
    /// Cross-shard lock rounds that hit a conflict and rolled back.
    pub cross_aborts: u64,
    /// Virtual makespan: all routers idle, in nanoseconds.
    pub elapsed_ns: u64,
    /// `ops` per virtual second.
    pub sim_ops_per_sec: u64,
}

/// Distinct keys for router `r`, bucketed by owning shard: `keys[s]` holds
/// enough keys whose KV slot hashes into shard `s`.
fn keys_by_shard(map: &ShardMap, r: usize, per_shard: usize) -> Vec<Vec<String>> {
    let mut keys: Vec<Vec<String>> = vec![Vec::new(); map.shards() as usize];
    let mut i = 0u64;
    while keys.iter().any(|b| b.len() < per_shard) {
        let key = format!("r{r}k{i}");
        let fp = kv_footprint(format!("put {key} x").as_bytes()).expect("kv op parses");
        let s = map.shards_of(&fp)[0] as usize;
        if keys[s].len() < per_shard {
            keys[s].push(key);
        }
        i += 1;
    }
    keys
}

/// Measures one cell: `shards` groups under the disjoint or mixed
/// workload.
pub fn measure_shards(shards: u32, mixed: bool) -> ShardSample {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 64;
    cfg.log_window = 256;
    let map = ShardMap::new(N_SLOTS, shards);
    let mut sim = Simulation::new(9900);
    let group = build_sharded_group(
        &mut sim,
        cfg,
        map.clone(),
        SHARD_ROUTERS,
        9900,
        kv_footprint,
        |_, _| {
            let mut w = KvWrapper::new(TinyKv::default());
            w.op_cost = SimDuration::from_micros(SHARD_OP_COST_US);
            ShardLockService::new(BaseService::new(w), kv_footprint)
        },
    );

    // Submit the whole workload up front; each router core runs its own
    // closed loop, so the queues drain with one request in flight per
    // (router, shard) pair.
    let mut ops = 0u64;
    let mut cross_txns = 0u64;
    for (r, &cid) in group.clients.iter().enumerate() {
        let keys = keys_by_shard(&map, r, SHARD_SLOTS_PER_ROUTER);
        let mut next: Vec<usize> = vec![0; map.shards() as usize];
        let take = |next: &mut Vec<usize>, s: usize| {
            let k = keys[s][next[s] % keys[s].len()].clone();
            next[s] += 1;
            k
        };
        let router = sim.actor_as_mut::<ShardedClient>(cid).expect("router present");
        for j in 0..SHARD_SLOTS_PER_ROUTER {
            let s = j % shards as usize;
            if mixed && j % 10 == 9 {
                let t = (j + 1) % shards as usize;
                let a = format!("put {} a{r}.{j}", take(&mut next, s)).into_bytes();
                let b = format!("put {} b{r}.{j}", take(&mut next, t)).into_bytes();
                if shards > 1 {
                    router.invoke_cross(vec![a, b]);
                    cross_txns += 1;
                } else {
                    // One shard: the same two writes as singles, so the
                    // applied work matches the multi-shard cells.
                    router.invoke(a, false);
                    router.invoke(b, false);
                }
                ops += 2;
            } else {
                let op = format!("put {} v{r}.{j}", take(&mut next, s)).into_bytes();
                router.invoke(op, false);
                ops += 1;
            }
        }
    }

    // Step until every router drains; the step quantum bounds the makespan
    // quantization error at well under a percent of the smallest cell.
    let quantum = SimDuration::from_micros(500);
    let mut idle = false;
    for _ in 0..240_000 {
        sim.run_for(quantum);
        idle = group
            .clients
            .iter()
            .all(|&c| sim.actor_as::<ShardedClient>(c).expect("router present").idle());
        if idle {
            break;
        }
    }
    assert!(idle, "shard cell (shards={shards}, mixed={mixed}) did not drain");
    let elapsed_ns = sim.now().as_nanos();
    let mut cross_aborts = 0u64;
    for &c in &group.clients {
        let router = sim.actor_as::<ShardedClient>(c).expect("router present");
        assert_eq!(
            router.completed.len() as u64,
            if mixed {
                // Cross pairs complete as one merged reply per transaction
                // (two singles in the one-shard cell).
                if shards > 1 {
                    SHARD_SLOTS_PER_ROUTER as u64
                } else {
                    SHARD_SLOTS_PER_ROUTER as u64 + SHARD_SLOTS_PER_ROUTER as u64 / 10
                }
            } else {
                SHARD_SLOTS_PER_ROUTER as u64
            },
            "router lost work (shards={shards}, mixed={mixed})"
        );
        cross_aborts += router.cross_aborts;
    }
    let sim_ops_per_sec = (ops as f64 / (elapsed_ns as f64 / 1e9)).round() as u64;
    ShardSample { shards, ops, cross_txns, cross_aborts, elapsed_ns, sim_ops_per_sec }
}

/// Prints the E14 shard-scaling tables.
pub fn run_shards() {
    let mut t = Table::new(
        "E14: shard scaling (4 routers, 300us/op exec cost)",
        &["workload", "shards", "ops", "cross", "aborts", "makespan_ms", "sim_ops/s", "speedup"],
    );
    let mut base = [0u64; 2];
    for (w, mixed) in [("disjoint", false), ("mixed", true)] {
        for shards in [1u32, 2, 4] {
            let s = measure_shards(shards, mixed);
            if shards == 1 {
                base[usize::from(mixed)] = s.sim_ops_per_sec;
            }
            let speedup = s.sim_ops_per_sec as f64 / base[usize::from(mixed)] as f64;
            t.row(&[
                w.to_string(),
                s.shards.to_string(),
                s.ops.to_string(),
                s.cross_txns.to_string(),
                s.cross_aborts.to_string(),
                format!("{:.1}", s.elapsed_ns as f64 / 1e6),
                s.sim_ops_per_sec.to_string(),
                format!("{speedup:.2}x"),
            ]);
        }
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest interesting cell is deterministic and completes; the
    /// full scaling asserts live in `examples/ab_shards.rs` and CI.
    #[test]
    fn two_shard_cell_is_deterministic() {
        let a = measure_shards(2, true);
        let b = measure_shards(2, true);
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.cross_txns, b.cross_txns);
        assert_eq!(a.cross_aborts, b.cross_aborts);
        assert!(a.ops > 0 && a.elapsed_ns > 0);
    }
}
