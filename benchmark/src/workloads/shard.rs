//! `shard_cross`: `build_sharded_group` with four groups of four replicas
//! over the demo key-value store, eight routers, one operation in ten an
//! atomic two-shard transaction.
//!
//! A router keeps one request in flight per shard and runs its cross-shard
//! transactions one at a time, so handing it the whole stream at once
//! would run every transaction after every single-shard write. The
//! harness instead tops each router up between slices to a fixed number of
//! outstanding jobs, which keeps the mix mixed and is just as
//! deterministic.
//!
//! The model stays exact under the router's `xbusy` resubmissions because
//! no key can be written by two jobs outstanding at once: single-shard
//! writes walk each shard's keys round-robin with a cycle far longer than
//! the window, and transactions (serial per router) write key pairs no
//! single-shard write touches.

use super::{ascii, check_roots, lane_rng, Bench, ReplicaHandle, RouterStats, Scale, Verdict};
use crate::trace::{actor, actor_mut, NodeKind, TimedActor, TimedService, TimedWrapper};
use base::demo::{kv_footprint, KvWrapper, TinyKv, N_SLOTS};
use base::{build_sharded_group, BaseService, Config, ShardLockService, ShardMap, ShardedClient};
use base_crypto::NodeKeys;
use base_pbft::Replica;
use base_simnet::{NodeId, SimDuration, Simulation};
use rand::Rng;
use std::collections::{HashMap, VecDeque};

const SHARDS: u32 = 4;
const ROUTERS: usize = 8;
/// Keys per router and shard that single-shard writes cycle through.
const SINGLE_KEYS: usize = 48;
/// Key pairs per router that cross-shard transactions cycle through.
const PAIRS: usize = 24;
/// Jobs a router may have outstanding.
const WINDOW: usize = 16;

type Plain = ShardLockService<BaseService<KvWrapper>>;
type Timed = TimedService<ShardLockService<TimedService<BaseService<TimedWrapper<KvWrapper>>>>>;

fn plain_service() -> Plain {
    ShardLockService::new(
        BaseService::new(KvWrapper::new(TinyKv::default())),
        kv_footprint,
    )
}

fn timed_service() -> Timed {
    let base = TimedService::new(BaseService::new(TimedWrapper(KvWrapper::new(
        TinyKv::default(),
    ))));
    TimedService::lock(ShardLockService::new(base, kv_footprint))
}

enum Job {
    Single(Vec<u8>),
    Cross(Vec<Vec<u8>>),
}

/// The first `count` keys `"{prefix}{i}"` that `map` places on `shard`.
fn keys_on(map: &ShardMap, shard: u32, prefix: &str, count: usize) -> Vec<String> {
    (0u64..)
        .map(|i| format!("{prefix}{i}"))
        .filter(|key| {
            let fp = kv_footprint(format!("put {key} x").as_bytes()).expect("kv op parses");
            map.shards_of(&fp) == [shard]
        })
        .take(count)
        .collect()
}

/// The sharded deployment.
pub struct ShardBench {
    /// Checkpoint interval of every group.
    k: u64,
    sim: Simulation,
    groups: Vec<Vec<ReplicaHandle>>,
    routers: Vec<NodeId>,
    /// Per router: jobs not yet handed over.
    queued: Vec<VecDeque<Job>>,
    /// Per router: jobs handed over so far.
    submitted: Vec<usize>,
    /// Per router: reply each job must get, by invocation id.
    expected: Vec<HashMap<u64, Vec<u8>>>,
    /// Per router: value each key must hold at the end.
    finals: Vec<HashMap<String, Vec<u8>>>,
    /// Per router: key pairs written only by transactions.
    pairs: Vec<Vec<(String, String)>>,
    cross_planned: u64,
    warmup_jobs: usize,
}

impl ShardBench {
    /// Builds the four groups and eight routers.
    pub fn new(scale: Scale, seed: u64, traced: bool) -> Self {
        let cfg = Config::new(4);
        let map = ShardMap::new(N_SLOTS, SHARDS);
        let mut sim = Simulation::new(seed);
        let group = build_sharded_group(
            &mut sim,
            cfg,
            map.clone(),
            ROUTERS,
            seed,
            kv_footprint,
            |_, _| plain_service(),
        );
        let mut handles: fn(NodeId) -> ReplicaHandle = ReplicaHandle::of::<Plain>;
        if traced {
            // `build_sharded_group` adds bare actors and returns what it built
            // them from; rebuild each from the same parts inside a
            // `TimedActor` before the simulation starts.
            handles = ReplicaHandle::of::<Timed>;
            for (s, ids) in group.replicas.iter().enumerate() {
                for (i, id) in ids.iter().enumerate() {
                    let keys = NodeKeys::new(group.dirs[s].clone(), i);
                    let replica = Replica::new(group.cfgs[s].clone(), keys, timed_service());
                    sim.replace_node(*id, Box::new(TimedActor::new(replica, NodeKind::Replica)));
                }
            }
            for (j, id) in group.clients.iter().enumerate() {
                let keys = group
                    .dirs
                    .iter()
                    .map(|d| NodeKeys::new(d.clone(), group.cfgs[0].n + j))
                    .collect();
                let router =
                    ShardedClient::new(group.cfgs.clone(), keys, map.clone(), kv_footprint);
                sim.replace_node(*id, Box::new(TimedActor::new(router, NodeKind::Router)));
            }
        }
        let groups = group
            .replicas
            .iter()
            .map(|ids| ids.iter().map(|id| handles(*id)).collect())
            .collect();

        let jobs_per_router = if scale == Scale::Full { 600 } else { 60 };
        let warmup_jobs = if scale == Scale::Full { 80 } else { 60 };
        let mut bench = Self {
            k: group.cfgs[0].checkpoint_interval,
            sim,
            groups,
            routers: group.clients.clone(),
            queued: Vec::new(),
            submitted: vec![0; ROUTERS],
            expected: Vec::new(),
            finals: Vec::new(),
            pairs: Vec::new(),
            cross_planned: 0,
            warmup_jobs,
        };
        for r in 0..ROUTERS {
            bench.plan(&map, seed, r, warmup_jobs + jobs_per_router);
        }
        bench.feed();
        bench
    }

    fn plan(&mut self, map: &ShardMap, seed: u64, r: usize, jobs: usize) {
        let mut rng = lane_rng(seed, r as u64);
        let singles: Vec<Vec<String>> = (0..SHARDS)
            .map(|s| keys_on(map, s, &format!("r{r}s{s}k"), SINGLE_KEYS))
            .collect();
        let pairs: Vec<(String, String)> = (0..PAIRS)
            .map(|p| {
                let s = p as u32 % SHARDS;
                let t = (s + 1 + (p as u32 / SHARDS) % (SHARDS - 1)) % SHARDS;
                let a = keys_on(map, s, &format!("r{r}x{p}a"), 1).remove(0);
                let b = keys_on(map, t, &format!("r{r}x{p}b"), 1).remove(0);
                (a, b)
            })
            .collect();
        let mut next_single = [0usize; SHARDS as usize];
        let mut next_pair = 0usize;
        let mut queue = VecDeque::with_capacity(jobs);
        let mut expected = HashMap::with_capacity(jobs);
        let mut finals = HashMap::new();
        for job in 1..=jobs as u64 {
            if rng.gen_range(0..10u32) == 0 {
                let (a, b) = &pairs[next_pair % PAIRS];
                next_pair += 1;
                // Both halves carry the same value, so the read-back shows
                // whether a transaction became visible on one shard only.
                let value = ascii(&mut rng, 16);
                finals.insert(a.clone(), value.clone().into_bytes());
                finals.insert(b.clone(), value.clone().into_bytes());
                queue.push_back(Job::Cross(vec![
                    format!("put {a} {value}").into_bytes(),
                    format!("put {b} {value}").into_bytes(),
                ]));
                expected.insert(job, b"ok;ok".to_vec());
                self.cross_planned += 1;
            } else {
                let s = rng.gen_range(0..SHARDS as usize);
                let key = &singles[s][next_single[s] % SINGLE_KEYS];
                next_single[s] += 1;
                let value = ascii(&mut rng, 16);
                finals.insert(key.clone(), value.clone().into_bytes());
                queue.push_back(Job::Single(format!("put {key} {value}").into_bytes()));
                expected.insert(job, b"ok".to_vec());
            }
        }
        self.queued.push(queue);
        self.expected.push(expected);
        self.finals.push(finals);
        self.pairs.push(pairs);
    }

    fn router(&self, r: usize) -> &ShardedClient {
        actor(&self.sim, self.routers[r])
    }
}

impl Bench for ShardBench {
    fn sim(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    fn sim_ref(&self) -> &Simulation {
        &self.sim
    }

    fn slice(&self) -> SimDuration {
        SimDuration::from_micros(1500)
    }

    fn groups(&self) -> &[Vec<ReplicaHandle>] {
        &self.groups
    }

    fn feed(&mut self) {
        for r in 0..ROUTERS {
            let done = self.router(r).completed.len();
            let room = WINDOW
                .saturating_sub(self.submitted[r] - done)
                .min(self.queued[r].len());
            let jobs: Vec<Job> = self.queued[r].drain(..room).collect();
            self.submitted[r] += jobs.len();
            let router: &mut ShardedClient = actor_mut(&mut self.sim, self.routers[r]);
            for job in jobs {
                match job {
                    Job::Single(op) => router.invoke(op, false),
                    Job::Cross(ops) => router.invoke_cross(ops),
                }
            }
        }
    }

    fn warmed_up(&self) -> bool {
        self.groups
            .iter()
            .flatten()
            .all(|r| r.snap(&self.sim).stable_seq >= self.k)
            && (0..ROUTERS).all(|r| self.router(r).completed.len() >= self.warmup_jobs)
    }

    fn finished(&self) -> bool {
        (0..ROUTERS).all(|r| {
            self.queued[r].is_empty() && self.router(r).completed.len() == self.submitted[r]
        })
    }

    fn completed(&self) -> u64 {
        (0..ROUTERS)
            .map(|r| self.router(r).completed.len() as u64)
            .sum()
    }

    fn latency_counts(&self) -> Vec<usize> {
        (0..ROUTERS)
            .flat_map(|r| (0..SHARDS).map(move |s| (r, s)))
            .map(|(r, s)| self.router(r).core(s).latencies_ns.len())
            .collect()
    }

    fn latencies_since(&self, marks: &[usize]) -> Vec<u64> {
        (0..ROUTERS)
            .flat_map(|r| (0..SHARDS).map(move |s| (r, s)))
            .zip(marks)
            .flat_map(|((r, s), mark)| self.router(r).core(s).latencies_ns[*mark..].iter().copied())
            .collect()
    }

    fn retransmissions(&self) -> u64 {
        (0..ROUTERS)
            .flat_map(|r| (0..SHARDS).map(move |s| (r, s)))
            .map(|(r, s)| self.router(r).core(s).retransmissions)
            .sum()
    }

    fn router_stats(&self) -> RouterStats {
        let mut out = RouterStats::default();
        for r in 0..ROUTERS {
            let router = self.router(r);
            out.cross_aborts += router.cross_aborts;
            out.cross_txns += router
                .completed
                .iter()
                .filter(|(_, reply)| reply.contains(&b';'))
                .count() as u64;
        }
        out
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        for r in 0..ROUTERS {
            let done: HashMap<u64, &[u8]> = self
                .router(r)
                .completed
                .iter()
                .map(|(job, reply)| (*job, reply.as_slice()))
                .collect();
            for (job, expect) in &self.expected[r] {
                v.check(done.get(job) == Some(&expect.as_slice()), || {
                    format!("router {r} job {job}: reply differs from the model")
                });
            }
        }
        // Read every key back through the routers.
        let mut asked: Vec<Vec<(u64, String)>> = Vec::new();
        for r in 0..ROUTERS {
            let mut keys: Vec<String> = self.finals[r].keys().cloned().collect();
            keys.sort();
            let mut job = self.submitted[r] as u64;
            let router: &mut ShardedClient = actor_mut(&mut self.sim, self.routers[r]);
            let mut mine = Vec::new();
            for key in keys {
                job += 1;
                router.invoke(format!("get {key}").into_bytes(), true);
                mine.push((job, key));
            }
            asked.push(mine);
        }
        let slice = self.slice();
        for _ in 0..20_000 {
            if (0..ROUTERS).all(|r| self.router(r).idle()) {
                break;
            }
            self.sim.run_for(slice);
        }
        for (r, mine) in asked.iter().enumerate() {
            let done: HashMap<u64, &[u8]> = self
                .router(r)
                .completed
                .iter()
                .map(|(job, reply)| (*job, reply.as_slice()))
                .collect();
            for (job, key) in mine {
                v.check(
                    done.get(job).copied() == self.finals[r].get(key).map(Vec::as_slice),
                    || format!("router {r} key {key}: read-back differs from the model"),
                );
            }
            // Both halves of the last transaction on each pair are visible.
            let value_of = |key: &String| {
                mine.iter()
                    .find(|(_, k)| k == key)
                    .and_then(|(job, _)| done.get(job).copied())
            };
            for (a, b) in &self.pairs[r] {
                if self.finals[r].contains_key(a) {
                    v.check(value_of(a).is_some() && value_of(a) == value_of(b), || {
                        format!("router {r}: transaction halves {a} / {b} differ")
                    });
                }
            }
        }
        let cross_done = self.router_stats().cross_txns;
        v.check(cross_done == self.cross_planned, || {
            format!(
                "{cross_done} of {} cross-shard transactions completed",
                self.cross_planned
            )
        });
        check_roots(self, &mut v);
        v
    }
}
