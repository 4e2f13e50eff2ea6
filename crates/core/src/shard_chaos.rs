//! Chaos harness for the sharded multi-group deployment.
//!
//! Reuses the generic campaign engine of [`base_simnet::chaos`] against a
//! multi-shard counter deployment built with [`build_sharded_group`]: every
//! shard is a full PBFT replica group wrapped in a [`ShardLockService`],
//! and the clients are [`ShardedClient`] routers driving both single-shard
//! operations and cross-shard transactions.
//!
//! Each shard is one [`base_pbft::chaos::Group`], which owns the
//! replica-level fault vocabulary (Byzantine mode flips, latent state
//! corruption, proactive recovery) and the per-group auditors. The harness
//! keeps what is about sharding: the router workload, the torn-commit and
//! lock-leak audits, and a sharding-specific fault: [`APP_XBUSY`] arms
//! injected cross-shard lock refusals on the shard owning the targeted
//! node, forcing the routers down the abort/release/back-off/retry path of
//! the ordered commit protocol. The injection is carried by the agreed
//! `xchaos` operation, so it is deterministic, consistent across the
//! shard's replicas, and — like every other fault here — flows through
//! [`generate_schedule`] and shrinks through `minimize`/ddmin.
//!
//! ## What the audits can and cannot compare
//!
//! Client-observed results are always auditable: every accepted reply is
//! backed by a reply quorum, so the per-register subset-chain check and
//! the torn-commit check on merged cross-shard replies are sound under any
//! schedule. Certificate-backed state (stable checkpoint digests) is also
//! always comparable: a certificate needs `2f+1` matching digests, which a
//! minority divergence cannot forge.
//!
//! *Uncertified per-replica state is only compared on fault-free runs.*
//! Lock tables are conformance rep: a replica that installs a checkpoint
//! clears its locks, after which it may execute an operation its peers
//! refuse with `xbusy` (or vice versa). The divergence is bounded by `f`,
//! masked by reply quorums and repaired by the next state transfer — but
//! it means a mid-run snapshot of an individual replica's uncertified
//! digests or registers is not evidence of a protocol fork. On runs with
//! an empty fault schedule no such divergence can arise, and the audit
//! tightens to exact pairwise agreement: retained checkpoint digests,
//! final register values (the union of every delta ever added) and empty
//! lock tables on every replica of every shard.

use std::collections::{BTreeMap, HashMap};

use base_pbft::chaos::{
    audit_subset_chain, campaign_config, campaign_gen_config, fresh_delta, ChainOp, Group,
    CAMPAIGN_BOUNDS,
};
use base_pbft::testing::{op_add, op_get, CounterService, COUNTER_REGS};
use base_pbft::Replica;
use base_simnet::chaos::{AppFaultSpec, ChaosHarness, LivenessBounds, ScheduleGenConfig};
use base_simnet::{NodeId, SimDuration, Simulation};

use crate::shard::{
    build_sharded_group, counter_footprint, ShardLockService, ShardMap, ShardedClient,
    ShardedGroup,
};

/// App-fault tag: arm `1 + arg` injected cross-shard lock refusals on the
/// shard owning the targeted node. The harness submits the agreed
/// `xchaos` operation through a router (picked from the node id), so the
/// refusals land at one sequence number on every replica of the shard and
/// the subsequent abort/retry rounds are deterministic.
pub const APP_XBUSY: u32 = 10;

type LockedCounter = ShardLockService<CounterService>;
type ShardReplica = Replica<LockedCounter>;

/// What a completed router invocation is expected to be, for the audit.
enum XKind {
    /// Single-shard write of a distinct delta bit to `reg`.
    Add { reg: u64, delta: u64 },
    /// Single-shard read of `reg`.
    Get { reg: u64 },
    /// Cross-shard transaction: one `(reg, delta)` write per shard, in
    /// ascending shard order (the order of the merged reply).
    Cross { parts: Vec<(u64, u64)> },
    /// An injected `xchaos` arming operation (replies `xok`).
    Chaos,
}

/// Chaos harness for a `shards × n` sharded counter deployment driven by
/// [`ShardedClient`] routers.
pub struct ShardedChaosHarness {
    /// Replicas per shard.
    pub n: usize,
    /// Number of independent replica groups.
    pub shards: u32,
    /// Number of router clients (each talks to every shard).
    pub routers: usize,
    /// Single-shard operations per router, spread round-robin over the
    /// shards' designated registers (every third one a read).
    pub singles_per_router: usize,
    /// Cross-shard transactions per router (one write per shard each).
    pub cross_per_router: usize,
    /// Enables the deliberate client bug (accept the first full reply
    /// without a quorum) on every router core, so tests can demonstrate
    /// the auditor catching it through the sharded path.
    pub inject_router_bug: bool,
    /// Gap between a router's pump ticks, stretching the workload across
    /// the fault schedule.
    pub pace: SimDuration,
    /// Extra settle time after the last event.
    pub settle: SimDuration,
    // Per-run state, reset by `build`.
    deployment: Option<ShardedGroup>,
    /// One [`Group`] per shard, in shard order.
    groups: Vec<Group>,
    /// `(router index, job id)` → expected operation kind.
    expected: HashMap<(usize, u64), XKind>,
    /// Jobs issued per router (router `i`'s completions must reach this).
    jobs: Vec<u64>,
    /// Per-register union of every delta bit any write added.
    reg_deltas: HashMap<u64, u64>,
}

impl ShardedChaosHarness {
    /// Creates a harness with `shards` groups of `n` replicas and a
    /// default workload of two routers mixing single-shard operations
    /// with cross-shard transactions.
    pub fn new(n: usize, shards: u32) -> Self {
        Self {
            n,
            shards,
            routers: 2,
            singles_per_router: 6,
            cross_per_router: 2,
            inject_router_bug: false,
            pace: SimDuration::from_millis(250),
            settle: SimDuration::from_secs(30),
            deployment: None,
            groups: Vec::new(),
            expected: HashMap::new(),
            jobs: Vec::new(),
            reg_deltas: HashMap::new(),
        }
    }

    /// A schedule-generation config matching this harness: faults target
    /// every shard's replicas, at most `f` nodes are impaired at once
    /// (conservative — the budget is global, so no single shard ever
    /// exceeds its own `f`), and the app-fault vocabulary adds injected
    /// cross-shard lock refusals to the Byzantine/corruption faults.
    pub fn gen_config(&self, events: usize, horizon: SimDuration) -> ScheduleGenConfig {
        let nodes = self.shards as usize * self.n;
        let mut cfg = campaign_gen_config(nodes, campaign_config(self.n).f(), events, horizon);
        cfg.app_faults.push(AppFaultSpec {
            // Injected refusals only delay the routers' commit rounds; the
            // shard keeps serving, so the fault does not count against the
            // impairment budget.
            tag: APP_XBUSY,
            arg_max: 3,
            impairs: false,
            heal: None,
        });
        cfg
    }

    /// The designated register of each shard (the first index it owns);
    /// the workload concentrates on these so locks actually contend.
    fn designated_regs(map: &ShardMap) -> Vec<u64> {
        (0..map.shards()).map(|s| map.range_of(s).start).collect()
    }

    fn replica<'a>(&self, sim: &'a Simulation, node: NodeId) -> &'a ShardReplica {
        sim.actor_as::<ShardReplica>(node).expect("replica actor")
    }

    fn audit_liveness(&self, sim: &Simulation) -> Result<(), String> {
        let group = self.deployment.as_ref().expect("run built");
        for (i, &c) in group.clients.iter().enumerate() {
            let router = sim.actor_as::<ShardedClient>(c).expect("router actor");
            if router.completed.len() as u64 != self.jobs[i] {
                return Err(format!(
                    "liveness: router {i} completed {}/{} invocations",
                    router.completed.len(),
                    self.jobs[i]
                ));
            }
        }
        Ok(())
    }

    /// Per-register linearizability ([`audit_subset_chain`]) of everything
    /// the routers completed. Cross-shard replies are torn apart into their
    /// per-shard pieces first — a merged reply missing a piece is a torn
    /// commit, and so is a piece missing its own delta.
    fn audit_linearizability(&self, sim: &Simulation) -> Result<(), String> {
        let group = self.deployment.as_ref().expect("run built");
        let mut by_reg: BTreeMap<u64, Vec<ChainOp<'_>>> = BTreeMap::new();
        let mut push = |reg: u64, who: String, delta: Option<u64>, result| {
            by_reg.entry(reg).or_default().push(ChainOp { who, delta, result });
        };

        for (i, &c) in group.clients.iter().enumerate() {
            let router = sim.actor_as::<ShardedClient>(c).expect("router actor");
            for (job, result) in &router.completed {
                let who = format!("router {i} job {job}");
                let kind = self
                    .expected
                    .get(&(i, *job))
                    .ok_or_else(|| format!("{who} completed but was never issued"))?;
                match kind {
                    XKind::Chaos => {
                        if result.as_slice() != b"xok" {
                            return Err(format!(
                                "{who}: xchaos arming returned {:?}",
                                String::from_utf8_lossy(result)
                            ));
                        }
                    }
                    XKind::Add { reg, delta } => {
                        push(*reg, format!("{who} on reg {reg}"), Some(*delta), result);
                    }
                    XKind::Get { reg } => push(*reg, format!("{who} on reg {reg}"), None, result),
                    XKind::Cross { parts } => {
                        let pieces: Vec<&[u8]> = result.split(|&b| b == b';').collect();
                        if pieces.len() != parts.len() {
                            return Err(format!(
                                "torn commit: {who} merged reply has {} pieces, \
                                 transaction touched {} shards",
                                pieces.len(),
                                parts.len()
                            ));
                        }
                        for ((reg, delta), piece) in parts.iter().zip(pieces) {
                            let who = format!("{who} (cross-shard commit) on reg {reg}");
                            push(*reg, who, Some(*delta), piece);
                        }
                    }
                }
            }
        }
        for (reg, ops) in &by_reg {
            audit_subset_chain(self.reg_deltas.get(reg).copied().unwrap_or(0), ops)?;
        }
        Ok(())
    }

    /// Per-shard convergence: after the settle window each shard's honest
    /// replicas agree on one view and on certificate-backed stable digests.
    /// Retained (uncertified) digests are held to agreement on fault-free
    /// runs only — see the module docs.
    fn audit_per_shard_agreement(&self, sim: &Simulation, fault_free: bool) -> Result<(), String> {
        for (s, shard) in self.groups.iter().enumerate() {
            let all = shard.members(sim);
            let agreement = || {
                shard.audit_view_agreement(&all)?;
                shard.audit_stable_digests(&all)?;
                if fault_free {
                    shard.audit_retained_checkpoints(&all)?;
                }
                Ok(())
            };
            agreement().map_err(|e: String| format!("shard {s}: {e}"))?;
        }
        Ok(())
    }

    /// Fault-free runs only (see the module docs): all-deltas final
    /// register values and no leaked locks anywhere.
    fn audit_quiescent_exact(&self, sim: &Simulation) -> Result<(), String> {
        let group = self.deployment.as_ref().expect("run built");
        let regs = Self::designated_regs(&group.map);
        for (s, nodes) in group.replicas.iter().enumerate() {
            let reg = regs[s];
            let want = self.reg_deltas.get(&reg).copied().unwrap_or(0);
            for &r in nodes {
                let rep = self.replica(sim, r);
                let got = rep.service().inner().value(reg as usize);
                if got != want {
                    return Err(format!(
                        "state: shard {s} replica {} reg {reg} ended at {got:#x}, \
                         expected the union of all deltas {want:#x}",
                        r.0
                    ));
                }
                let held = rep.service().held_locks();
                if held != 0 {
                    return Err(format!(
                        "lock leak: shard {s} replica {} still holds {held} lock(s) \
                         after a fault-free run",
                        r.0
                    ));
                }
            }
        }
        Ok(())
    }
}

impl ChaosHarness for ShardedChaosHarness {
    fn build(&mut self, seed: u64) -> Simulation {
        self.expected.clear();
        self.jobs = vec![0; self.routers];
        self.reg_deltas.clear();

        let mut sim = Simulation::new(seed);
        let map = ShardMap::new(COUNTER_REGS, self.shards);
        let group = build_sharded_group(
            &mut sim,
            campaign_config(self.n),
            map,
            self.routers,
            seed,
            counter_footprint,
            |_, _| ShardLockService::new(CounterService::default(), counter_footprint),
        );
        self.groups = group
            .replicas
            .iter()
            .map(|nodes| Group::of::<LockedCounter>(&mut sim, nodes))
            .collect();

        let regs = Self::designated_regs(&group.map);
        for (i, &c) in group.clients.iter().enumerate() {
            let router = sim.actor_as_mut::<ShardedClient>(c).expect("router actor");
            for s in 0..self.shards {
                router.core_mut(s).bug_accept_first_reply = self.inject_router_bug;
            }
            router.set_pace(self.pace);
            let mut job = 0u64;
            let mut singles = 0usize;
            let mut crosses = 0usize;
            // Interleave: an early cross-shard transaction meets early
            // scheduled faults; the rest are spread through the singles.
            for slot in 0..self.singles_per_router + self.cross_per_router {
                job += 1;
                let cross_turn = crosses < self.cross_per_router
                    && (slot % 3 == 1 || singles >= self.singles_per_router);
                if cross_turn {
                    crosses += 1;
                    let mut ops = Vec::with_capacity(regs.len());
                    let mut parts = Vec::with_capacity(regs.len());
                    for &reg in &regs {
                        let delta = fresh_delta(self.reg_deltas.entry(reg).or_default());
                        parts.push((reg, delta));
                        ops.push(op_add(reg, delta));
                    }
                    router.invoke_cross(ops);
                    self.expected.insert((i, job), XKind::Cross { parts });
                } else {
                    singles += 1;
                    let reg = regs[singles % regs.len()];
                    if singles % 3 == 0 {
                        router.invoke(op_get(reg), true);
                        self.expected.insert((i, job), XKind::Get { reg });
                    } else {
                        let delta = fresh_delta(self.reg_deltas.entry(reg).or_default());
                        router.invoke(op_add(reg, delta), false);
                        self.expected.insert((i, job), XKind::Add { reg, delta });
                    }
                }
            }
            self.jobs[i] = job;
        }
        self.deployment = Some(group);
        sim
    }

    fn apply_app(
        &mut self,
        sim: &mut Simulation,
        node: NodeId,
        tag: u32,
        arg: u64,
        trace: &mut Vec<String>,
    ) {
        if tag == APP_XBUSY {
            let group = self.deployment.as_ref().expect("run built");
            let shard = node.0 / self.n;
            if shard >= group.replicas.len() {
                trace.push(format!("xbusy fault at node {} ignored (not a replica)", node.0));
                return;
            }
            let reg = group.map.range_of(shard as u32).start;
            let r = node.0 % self.routers;
            let count = 1 + arg;
            let router_node = group.clients[r];
            let router = sim.actor_as_mut::<ShardedClient>(router_node).expect("router actor");
            router.invoke(format!("xchaos {reg} {count}").into_bytes(), false);
            self.jobs[r] += 1;
            self.expected.insert((r, self.jobs[r]), XKind::Chaos);
            trace.push(format!(
                "shard {shard} arming {count} xbusy refusal(s) via router {r}"
            ));
            return;
        }
        if !self.groups.iter_mut().any(|g| g.apply_fault(sim, node, tag, arg, trace)) {
            trace.push(format!("app fault tag {tag} at node {} ignored", node.0));
        }
    }

    fn settle(&self) -> SimDuration {
        self.settle
    }

    fn liveness_bounds(&self) -> LivenessBounds {
        // The single-group bounds hold here too: cross-shard retries add
        // at most a bounded backoff.
        CAMPAIGN_BOUNDS
    }

    fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
        // `trace` holds one line per applied event at this point, so an
        // empty trace means the schedule was empty and the exact
        // (uncertified-state) audits are sound.
        let fault_free = trace.is_empty();
        self.audit_liveness(sim)?;
        self.audit_linearizability(sim)?;
        self.audit_per_shard_agreement(sim, fault_free)?;
        if fault_free {
            self.audit_quiescent_exact(sim)?;
        }
        let group = self.deployment.as_ref().expect("run built");
        let (mut aborts, mut busy_retries) = (0u64, 0u64);
        for &c in &group.clients {
            let router = sim.actor_as::<ShardedClient>(c).expect("router actor");
            aborts += router.cross_aborts;
            busy_retries += router.single_busy_retries;
        }
        let (mut commits, mut refused) = (0u64, 0u64);
        for nodes in &group.replicas {
            for &r in nodes {
                let svc = self.replica(sim, r).service();
                commits += svc.commits;
                refused += svc.prepares_refused;
            }
        }
        trace.push(format!(
            "sharded audit ok: cross_aborts={aborts} single_busy_retries={busy_retries} \
             replica_commits={commits} replica_refusals={refused}"
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use base_pbft::chaos::APP_BYZ;
    use base_pbft::ByzMode;
    use base_simnet::chaos::{generate_schedule, minimize, run_one, FaultSchedule};
    use base_simnet::{NetFault, SimTime};

    /// Pulls a `name=value` counter out of the audit summary line.
    fn summary_counter(trace: &[String], name: &str) -> u64 {
        let line = trace
            .iter()
            .find(|l| l.starts_with("sharded audit ok:"))
            .expect("audit summary line");
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.parse().ok())
            .expect("summary counter")
    }

    #[test]
    fn fault_free_sharded_run_passes_audit() {
        let mut h = ShardedChaosHarness::new(4, 2);
        let (outcome, verdict) = run_one(&mut h, 7, &FaultSchedule::new());
        assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
        // The workload really exercised the commit protocol: every router
        // ran cross-shard transactions, committed on every shard's quorum.
        assert!(summary_counter(&outcome.trace, "replica_commits") > 0);
    }

    #[test]
    fn injected_refusals_drive_abort_and_retry_to_completion() {
        let mut h = ShardedChaosHarness::new(4, 2);
        let mut schedule = FaultSchedule::new();
        // Arm refusals on both shards while the early transactions'
        // lock rounds are in flight; the routers must abort, release in
        // reverse order, back off and retry to completion.
        schedule
            .app(SimTime::from_millis(300), NodeId(0), APP_XBUSY, 2)
            .app(SimTime::from_millis(500), NodeId(4), APP_XBUSY, 2)
            .app(SimTime::from_millis(2_000), NodeId(1), APP_XBUSY, 1);
        let (outcome, verdict) = run_one(&mut h, 21, &schedule);
        assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
        assert!(
            outcome.trace.iter().any(|l| l.contains("arming")),
            "trace records the injection:\n{}",
            outcome.trace.join("\n")
        );
        assert!(
            summary_counter(&outcome.trace, "replica_refusals") > 0,
            "refusals reached a shard's replicas:\n{}",
            outcome.trace.join("\n")
        );
        assert!(
            summary_counter(&outcome.trace, "cross_aborts") > 0,
            "a router rolled back and retried:\n{}",
            outcome.trace.join("\n")
        );
    }

    #[test]
    fn storm_on_one_shard_leaves_both_shards_live() {
        let mut h = ShardedChaosHarness::new(4, 2);
        let mut schedule = FaultSchedule::new();
        // Shard 0 takes a partition, a crash and a Byzantine window in
        // sequence (each within its own f budget); shard 1 is untouched.
        // Every router must still finish all work on both shards —
        // including the cross-shard transactions that need shard 0 back.
        schedule
            .net(
                SimTime::from_millis(500),
                NetFault::Partition { nodes: vec![NodeId(0)] },
                SimDuration::from_millis(1_500),
            )
            .crash(SimTime::from_millis(2_500), NodeId(1), SimDuration::from_millis(1_200))
            .app(SimTime::from_millis(4_200), NodeId(2), APP_BYZ, ByzMode::CorruptReplies.code())
            .app(SimTime::from_millis(5_500), NodeId(2), APP_BYZ, 0);
        let (outcome, verdict) = run_one(&mut h, 5, &schedule);
        assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
    }

    #[test]
    fn generated_campaign_with_sharded_vocabulary_finds_no_violations() {
        let mut h = ShardedChaosHarness::new(4, 2);
        for seed in 0..3u64 {
            let schedule = generate_schedule(
                &h.gen_config(6, SimDuration::from_secs(8)),
                0xBA5E_0000 + seed,
            );
            let (outcome, verdict) = run_one(&mut h, seed, &schedule);
            assert_eq!(
                verdict,
                Ok(()),
                "seed {seed} schedule:\n{}\ntrace:\n{}",
                schedule.describe(),
                outcome.trace.join("\n")
            );
        }
    }

    #[test]
    fn ddmin_shrinks_sharded_failure_to_the_byzantine_trigger() {
        let mut h = ShardedChaosHarness::new(4, 2);
        h.inject_router_bug = true;
        let mut schedule = FaultSchedule::new();
        // Noise the minimizer should discard…
        schedule
            .app(SimTime::from_millis(300), NodeId(0), APP_XBUSY, 1)
            .app(SimTime::from_millis(700), NodeId(5), APP_XBUSY, 2)
            .crash(SimTime::from_millis(1_500), NodeId(3), SimDuration::from_millis(800));
        // …and the actual trigger: one corrupt replier feeds the
        // quorum-skipping router a fabricated reply.
        schedule.app(
            SimTime::from_millis(10),
            NodeId(1),
            APP_BYZ,
            ByzMode::CorruptReplies.code(),
        );
        let (outcome, verdict) = run_one(&mut h, 3, &schedule);
        assert!(verdict.is_err(), "expected failure; trace:\n{}", outcome.trace.join("\n"));

        let minimal = minimize(&mut h, 3, &schedule);
        assert!(
            minimal.len() < schedule.len(),
            "minimizer kept everything:\n{}",
            minimal.describe()
        );
        assert!(
            minimal
                .events
                .iter()
                .any(|e| matches!(
                    e.event,
                    base_simnet::chaos::ChaosEvent::App { tag: APP_BYZ, .. }
                )),
            "the Byzantine trigger must survive minimization:\n{}",
            minimal.describe()
        );
    }
}
