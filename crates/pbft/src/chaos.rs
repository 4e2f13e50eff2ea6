//! The service-independent half of every chaos campaign, and the counter
//! harness built on it.
//!
//! [`base_simnet::chaos`] is the protocol-agnostic campaign engine. What a
//! campaign over a *BFT replica group* needs on top of it does not depend
//! on the replicated service either, so it is written — and checked — once,
//! here, over [`ReplicaControl`]:
//!
//! - the application-fault vocabulary ([`campaign_gen_config`]:
//!   Byzantine-mode flips healed back to honest, latent state corruption
//!   healed by proactive recovery), the campaign group configuration
//!   ([`campaign_config`]) and liveness deadlines ([`CAMPAIGN_BOUNDS`]);
//! - [`Group`]: the replicas of one group as [`ReplicaRef`] handles, fault
//!   application with taint tracking, honest/clean selection, and the group
//!   auditors — **view agreement** (honest replicas settle in one view once
//!   the schedule drains), **no checkpoint fork** (certificate-backed stable
//!   digests agree among honest replicas, retained digests among clean
//!   ones) and **reply-certificate consistency** (a result a client
//!   accepted is one the clean replicas produced);
//! - [`audit_subset_chain`]: exact **linearizability** for workloads whose
//!   writes each add a distinct power-of-two delta to a register, so every
//!   correct result is a union of delta bits, completed writes must form a
//!   subset chain and reads must return a state on that chain.
//!
//! A harness composes these with its workload and its service-specific
//! audit. `Group` has no switch that turns an auditor off: a harness that
//! cannot use one does not call it, and says why. [`CounterChaosHarness`]
//! calls all of them; the KV, OODB, NFS and sharded harnesses live beside
//! their services.

use crate::byzantine::ByzMode;
use crate::config::Config;
use crate::control::{ReplicaControl, ReplicaRef};
use crate::service::Service;
use crate::testing::{build_counter_group, op_add, op_get, CounterService};
use crate::ClientActor;
use base_simnet::chaos::{AppFaultSpec, ChaosHarness, HealSpec, LivenessBounds, ScheduleGenConfig};
use base_simnet::{NodeId, SimDuration, Simulation};
use std::collections::{HashMap, HashSet};

/// App-fault tag: set the replica's [`ByzMode`] to `ByzMode::from_code(arg)`.
/// A healing event carries `arg = 0` (back to honest).
pub const APP_BYZ: u32 = 1;
/// App-fault tag: inject latent concrete-state corruption seeded by `arg`
/// (see [`crate::service::Service::corrupt_state`]).
pub const APP_CORRUPT_STATE: u32 = 2;
/// App-fault tag: trigger an immediate proactive recovery (the healing
/// companion of [`APP_CORRUPT_STATE`]).
pub const APP_RECOVER: u32 = 3;

/// The replica-level fault vocabulary every campaign shares. Order and
/// `arg_max` are part of every generated schedule: changing either changes
/// what each seed means.
fn fault_vocabulary() -> Vec<AppFaultSpec> {
    vec![
        AppFaultSpec {
            tag: APP_BYZ,
            // Codes 1..=6; CorruptState has its own tag, and arg 0
            // (honest) is reserved for the healing event.
            arg_max: 7,
            impairs: true,
            heal: Some(HealSpec { tag: APP_BYZ, after: SimDuration::from_secs(2) }),
        },
        AppFaultSpec {
            tag: APP_CORRUPT_STATE,
            arg_max: 1 << 32,
            // A corrupt replica serves wrong replies for the damaged
            // objects, so it counts against the budget.
            impairs: true,
            heal: Some(HealSpec { tag: APP_RECOVER, after: SimDuration::from_secs(2) }),
        },
    ]
}

/// A schedule-generation config over replica nodes `0..nodes` with the
/// shared fault vocabulary and network faults: at most `max_impaired` (a
/// group's `f`) nodes are impaired at once. A harness with faults of its own
/// pushes them onto `app_faults`.
pub fn campaign_gen_config(
    nodes: usize,
    max_impaired: usize,
    events: usize,
    horizon: SimDuration,
) -> ScheduleGenConfig {
    ScheduleGenConfig {
        nodes: (0..nodes).map(NodeId).collect(),
        max_impaired,
        horizon,
        events,
        app_faults: fault_vocabulary(),
    }
}

/// The group configuration campaigns run with: frequent checkpoints so
/// they exercise garbage collection and state transfer, and a short reboot
/// so triggered recoveries finish within the run.
pub fn campaign_config(n: usize) -> Config {
    let mut cfg = Config::new(n);
    cfg.checkpoint_interval = 4;
    cfg.log_window = 32;
    cfg.reboot_time = SimDuration::from_millis(100);
    cfg
}

/// Liveness deadlines for campaigns with a 30 s settle window: well inside
/// it, but generous enough for the worst capped view-change chase plus a
/// full state transfer.
pub const CAMPAIGN_BOUNDS: LivenessBounds = LivenessBounds {
    heal_to_progress: Some(SimDuration::from_secs(25)),
    view_convergence: Some(SimDuration::from_secs(25)),
    recovery_duration: Some(SimDuration::from_secs(25)),
};

/// One replica as the auditors see it: its node and its service-independent
/// interface.
pub type Member<'a> = (NodeId, &'a dyn ReplicaControl);

/// The replicas of one group under a campaign: who they are, which of them
/// a fault has ever touched, and what must hold among the rest.
///
/// Selection and auditors take the group's [`members`](Group::members) as a
/// slice rather than a simulation, so a test can drive them with a fake
/// [`ReplicaControl`].
#[derive(Default)]
pub struct Group {
    /// The group's replicas, whatever service each runs.
    pub replicas: Vec<ReplicaRef>,
    /// Replicas that were ever flipped faulty or corrupted during the run.
    tainted: HashSet<NodeId>,
}

impl Group {
    /// A campaign group over `replicas`, switched to warm reboots: recovery
    /// repairs state instead of rebuilding it from scratch, which is what
    /// surfaces latent corruption.
    pub fn new(sim: &mut Simulation, replicas: Vec<ReplicaRef>) -> Self {
        for r in &replicas {
            r.get_mut(sim).set_recovery_clean(false);
        }
        Self { replicas, tainted: HashSet::new() }
    }

    /// [`Group::new`] for replicas that all run service `S`.
    pub fn of<S: Service>(sim: &mut Simulation, nodes: &[NodeId]) -> Self {
        Self::new(sim, nodes.iter().map(|&n| ReplicaRef::of::<S>(n)).collect())
    }

    /// Marks `node` as no longer trusted to hold pristine local state.
    /// [`Group::apply_fault`] does this itself; harnesses call it for faults
    /// of their own (a replica built with an armed bug).
    pub fn taint(&mut self, node: NodeId) {
        self.tainted.insert(node);
    }

    /// Applies a fault of the shared vocabulary to `node`. Returns false,
    /// having done nothing, when `node` is not in this group or `tag` is not
    /// one of [`APP_BYZ`], [`APP_CORRUPT_STATE`], [`APP_RECOVER`].
    pub fn apply_fault(
        &mut self,
        sim: &mut Simulation,
        node: NodeId,
        tag: u32,
        arg: u64,
        trace: &mut Vec<String>,
    ) -> bool {
        let Some(handle) = self.replicas.iter().find(|r| r.node == node) else { return false };
        let replica = handle.get_mut(sim);
        match tag {
            APP_BYZ => {
                let mode = ByzMode::from_code(arg);
                replica.set_byzantine(mode);
                if mode.is_faulty() {
                    self.tainted.insert(node);
                }
                trace.push(format!("node {} byzantine mode -> {mode:?}", node.0));
            }
            APP_CORRUPT_STATE => {
                replica.corrupt_service_state(arg);
                self.tainted.insert(node);
                trace.push(format!("node {} concrete state corrupted (seed {arg})", node.0));
            }
            APP_RECOVER => {
                replica.trigger_recovery();
                trace.push(format!("node {} proactive recovery triggered", node.0));
            }
            _ => return false,
        }
        true
    }

    /// Every replica of the group, resolved against `sim`.
    pub fn members<'a>(&self, sim: &'a Simulation) -> Vec<Member<'a>> {
        self.replicas.iter().map(|r| (r.node, r.get(sim))).collect()
    }

    /// Replicas that are honest *now* (their Byzantine behaviour, if any,
    /// has healed).
    pub fn honest<'a>(&self, all: &[Member<'a>]) -> Vec<Member<'a>> {
        all.iter().copied().filter(|(_, r)| r.byzantine() == ByzMode::Honest).collect()
    }

    /// Replicas that are honest now *and* were never tainted. Only these
    /// are trusted to hold pristine local checkpoint metadata (a healed
    /// `CorruptCheckpoints` replica retains the corrupted digests it stored
    /// about itself).
    pub fn clean<'a>(&self, all: &[Member<'a>]) -> Vec<Member<'a>> {
        let mut clean = self.honest(all);
        clean.retain(|(node, _)| !self.tainted.contains(node));
        clean
    }

    /// The clean replicas that reached the highest stable checkpoint any
    /// clean replica reached — the ones whose service state a harness can
    /// hold to the expected final contents. An error if no replica is clean.
    pub fn converged_clean<'a>(&self, all: &[Member<'a>]) -> Result<Vec<Member<'a>>, String> {
        let mut clean = self.clean(all);
        let max_stable = clean
            .iter()
            .map(|(_, r)| r.stable_seq())
            .max()
            .ok_or("no clean replicas left to audit")?;
        clean.retain(|(_, r)| r.stable_seq() == max_stable);
        Ok(clean)
    }

    /// After the settle window every honest replica must have converged on
    /// one view: a replica stuck in a higher view than its peers either
    /// lost a new-view message it can no longer recover or is spinning
    /// through view changes — both liveness bugs a view-change storm is
    /// designed to expose.
    pub fn audit_view_agreement(&self, all: &[Member<'_>]) -> Result<(), String> {
        let honest = self.honest(all);
        let lo = honest.iter().min_by_key(|(_, r)| r.view());
        let hi = honest.iter().max_by_key(|(_, r)| r.view());
        if let (Some((lo_node, lo)), Some((hi_node, hi))) = (lo, hi) {
            if lo.view() != hi.view() {
                return Err(format!(
                    "view agreement: honest replicas settled in different views \
                     (replica {} in view {}, replica {} in view {})",
                    lo_node.0,
                    lo.view(),
                    hi_node.0,
                    hi.view()
                ));
            }
        }
        Ok(())
    }

    /// Certificate-backed stable digests must agree among all currently
    /// honest replicas at the same stable sequence number (a certificate
    /// cannot be assembled for a minority digest, healed or not).
    pub fn audit_stable_digests(&self, all: &[Member<'_>]) -> Result<(), String> {
        let honest = self.honest(all);
        for (i, (a, ra)) in honest.iter().enumerate() {
            for (b, rb) in &honest[i + 1..] {
                if ra.stable_seq() != rb.stable_seq() || ra.stable_seq() == 0 {
                    continue;
                }
                if let (Some(da), Some(db)) = (ra.stable_digest(), rb.stable_digest()) {
                    if da != db {
                        return Err(format!(
                            "checkpoint fork: stable digests diverge at seq {} between \
                             replicas {} and {}",
                            ra.stable_seq(),
                            a.0,
                            b.0
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Pairwise digest agreement at every retained sequence number, among
    /// replicas whose local metadata was never poisoned.
    pub fn audit_retained_checkpoints(&self, all: &[Member<'_>]) -> Result<(), String> {
        let clean = self.clean(all);
        for (i, (a, ra)) in clean.iter().enumerate() {
            let da: HashMap<u64, _> = ra.checkpoint_digests().into_iter().collect();
            for (b, rb) in &clean[i + 1..] {
                for (seq, db) in rb.checkpoint_digests() {
                    if da.get(&seq).is_some_and(|daq| *daq != db) {
                        return Err(format!(
                            "checkpoint fork: replicas {} and {} disagree at seq {seq}",
                            a.0, b.0
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The `result` that `who` accepted for `client`'s request `ts` must be
    /// the reply every clean replica that still remembers the request
    /// cached, and at least one must remember it. Only a client's latest
    /// executed *write* is checkable: the reply cache keeps one entry per
    /// client and read-only replies are not cached.
    pub fn audit_reply_certificate(
        &self,
        all: &[Member<'_>],
        who: &str,
        client: u32,
        ts: u64,
        result: &[u8],
    ) -> Result<(), String> {
        let mut vouchers = 0usize;
        for (node, r) in self.clean(all) {
            match r.cached_reply(client, ts) {
                Some(cached) if cached == result => vouchers += 1,
                Some(_) => {
                    return Err(format!(
                        "reply certificate: {who} accepted a result for ts={ts} that clean \
                         replica {} never produced",
                        node.0
                    ));
                }
                // A lagging replica may not have executed ts yet.
                None => {}
            }
        }
        if vouchers == 0 {
            return Err(format!(
                "reply certificate: no clean replica vouches for {who}'s accepted result \
                 at ts={ts}"
            ));
        }
        Ok(())
    }
}

/// Allocates the next distinct delta bit of a register whose writes so far
/// added the bits in `known`.
pub fn fresh_delta(known: &mut u64) -> u64 {
    let bit = known.trailing_ones();
    assert!(bit < 64, "workload too large for distinct delta bits");
    let delta = 1u64 << bit;
    *known |= delta;
    delta
}

/// One completed operation on a delta-bit register.
pub struct ChainOp<'a> {
    /// Who completed it, for the failure message.
    pub who: String,
    /// The distinct power-of-two delta a write added; `None` for a read.
    pub delta: Option<u64>,
    /// The decimal register value the client accepted.
    pub result: &'a [u8],
}

/// Linearizability of the completed operations on one register whose every
/// write added a distinct bit of `known` and returned the value after it.
pub fn audit_subset_chain(known: u64, ops: &[ChainOp<'_>]) -> Result<(), String> {
    let mut adds: Vec<u64> = Vec::new();
    let mut gets: Vec<(&str, u64)> = Vec::new();
    for op in ops {
        let who = &op.who;
        let text = std::str::from_utf8(op.result).ok();
        let value: u64 = text.and_then(|t| t.parse().ok()).ok_or_else(|| {
            format!(
                "linearizability: {who} accepted a corrupt reply {:?}",
                String::from_utf8_lossy(op.result)
            )
        })?;
        if value & !known != 0 {
            return Err(format!(
                "linearizability: {who} result {value:#x} contains bits no write ever added"
            ));
        }
        match op.delta {
            Some(delta) if value & delta == 0 => {
                return Err(format!(
                    "linearizability: {who} add result {value:#x} is missing its own delta \
                     {delta:#x}"
                ));
            }
            Some(_) => adds.push(value),
            None => gets.push((who, value)),
        }
    }

    // Every add returns the register value after it executed, and each add
    // contributes a distinct bit, so the results must form a strict subset
    // chain (one new bit per link) when sorted by population.
    adds.sort_by_key(|v| (v.count_ones(), *v));
    for pair in adds.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a & !b != 0 || a == b {
            return Err(format!(
                "linearizability: add results {a:#x} and {b:#x} are not a subset chain — \
                 no sequential execution produces both"
            ));
        }
    }

    // A read returns the register at its linearization point, which is the
    // initial state or the state some add produced.
    for (who, value) in gets {
        if value != 0 && !adds.contains(&value) {
            return Err(format!(
                "linearizability: {who} read {value:#x}, a state no sequential execution \
                 passes through"
            ));
        }
    }
    Ok(())
}

/// Liveness of one client: the [`ClientActor`] at `node` (client `i` of the
/// harness) finished all `want` operations. Returns what it completed, for
/// the harness's own result checks.
pub fn completed_ops(
    sim: &Simulation,
    i: usize,
    node: NodeId,
    want: usize,
) -> Result<&[(u64, Vec<u8>)], String> {
    let done = &sim.actor_as::<ClientActor>(node).expect("client actor").completed;
    if done.len() != want {
        return Err(format!("liveness: client {i} completed {}/{want} operations", done.len()));
    }
    Ok(done)
}

/// A campaign harness replicating [`CounterService`] with a workload of
/// distinct-bit adds and reads on one register, audited with everything
/// this module has.
pub struct CounterChaosHarness {
    /// The group configuration a run is built with, seeded by
    /// [`campaign_config`]; campaigns set a small `pipeline_depth` so
    /// view-change storms catch slots `n..n+depth` in flight.
    pub cfg: Config,
    /// Number of clients.
    pub clients: usize,
    /// Operations submitted per client. The total number of writes across
    /// all clients must stay below 64 (one delta bit each).
    pub ops_per_client: usize,
    /// Enables the deliberate client bug (accept the first full reply
    /// without a quorum) on every client, so tests can demonstrate the
    /// auditor catching a reply-certificate violation.
    pub inject_client_bug: bool,
    /// Enables the deliberate client liveness bug (never retransmit after
    /// a reply timeout) on every client, so tests can demonstrate the
    /// heal-to-progress auditor catching a stalled operation.
    pub inject_stall_bug: bool,
    /// Gap between a client's submissions, so the workload stretches
    /// across the fault schedule instead of finishing before the first
    /// event fires.
    pub pace: SimDuration,
    /// Extra settle time after the last event.
    pub settle: SimDuration,
    /// Optional per-op critical-path budget for post-heal operations (see
    /// [`base_simnet::chaos::audit_latency_budget`]); `None` disables the
    /// auditor.
    pub latency_budget: Option<SimDuration>,
    // Per-run state, reset by `build`.
    group: Group,
    client_nodes: Vec<NodeId>,
    /// `(client id, timestamp)` → the delta a write added, `None` for a read.
    expected: HashMap<(u32, u64), Option<u64>>,
    all_deltas: u64,
}

impl CounterChaosHarness {
    /// Creates a harness with `n` replicas and a default workload of three
    /// clients running thirteen operations each.
    pub fn new(n: usize) -> Self {
        Self {
            cfg: campaign_config(n),
            clients: 3,
            ops_per_client: 13,
            inject_client_bug: false,
            inject_stall_bug: false,
            pace: SimDuration::from_millis(250),
            settle: SimDuration::from_secs(30),
            latency_budget: None,
            group: Group::default(),
            client_nodes: Vec::new(),
            expected: HashMap::new(),
            all_deltas: 0,
        }
    }

    /// A schedule-generation config matching this harness: faults target
    /// the replica set and at most `f` nodes are impaired at once.
    pub fn gen_config(&self, events: usize, horizon: SimDuration) -> ScheduleGenConfig {
        campaign_gen_config(self.cfg.n, self.cfg.f(), events, horizon)
    }
}

impl ChaosHarness for CounterChaosHarness {
    fn build(&mut self, seed: u64) -> Simulation {
        self.expected.clear();
        self.all_deltas = 0;

        let mut sim = Simulation::new(seed);
        let group = build_counter_group(&mut sim, self.cfg.clone(), self.clients, seed);
        self.group = Group::of::<CounterService>(&mut sim, &group.replicas);

        for (i, &c) in group.clients.iter().enumerate() {
            let client_id = (self.cfg.n + i) as u32;
            let actor = sim.actor_as_mut::<ClientActor>(c).expect("client actor");
            actor.core_mut().bug_accept_first_reply = self.inject_client_bug;
            actor.core_mut().bug_never_retransmit = self.inject_stall_bug;
            actor.set_pace(self.pace);
            for j in 0..self.ops_per_client {
                // Timestamps are assigned in submission order, starting at 1.
                let ts = (j + 1) as u64;
                if j % 3 == 2 {
                    actor.invoke(op_get(0), true);
                    self.expected.insert((client_id, ts), None);
                } else {
                    let delta = fresh_delta(&mut self.all_deltas);
                    actor.invoke(op_add(0, delta), false);
                    self.expected.insert((client_id, ts), Some(delta));
                }
            }
        }
        self.client_nodes = group.clients;
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
        if !self.group.apply_fault(sim, node, tag, arg, trace) {
            trace.push(format!("app fault tag {tag} at node {} ignored", node.0));
        }
    }

    fn settle(&self) -> SimDuration {
        self.settle
    }

    fn liveness_bounds(&self) -> LivenessBounds {
        CAMPAIGN_BOUNDS
    }

    fn latency_budget(&self) -> Option<SimDuration> {
        self.latency_budget
    }

    fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
        let all = self.group.members(sim);
        let mut ops = Vec::new();
        let mut last_writes = Vec::new();
        for (i, &c) in self.client_nodes.iter().enumerate() {
            let client_id = (self.cfg.n + i) as u32;
            let done = completed_ops(sim, i, c, self.ops_per_client)?;
            for (ts, result) in done {
                let delta = *self
                    .expected
                    .get(&(client_id, *ts))
                    .ok_or_else(|| format!("client {i} completed unknown op ts={ts}"))?;
                ops.push(ChainOp { who: format!("client {i} ts={ts}"), delta, result });
            }
            if let Some((ts, result)) = done.last() {
                if self.expected[&(client_id, *ts)].is_some() {
                    last_writes.push((format!("client {i}"), client_id, *ts, result));
                }
            }
        }
        audit_subset_chain(self.all_deltas, &ops)?;
        self.group.audit_view_agreement(&all)?;
        self.group.audit_retained_checkpoints(&all)?;
        self.group.audit_stable_digests(&all)?;
        for (who, client_id, ts, result) in last_writes {
            self.group.audit_reply_certificate(&all, &who, client_id, ts, result)?;
        }
        trace.push(format!(
            "audit ok: {} clean / {} honest replicas",
            self.group.clean(&all).len(),
            self.group.honest(&all).len()
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::ReplicaStats;
    use base_crypto::Digest;
    use base_simnet::chaos::{run_one, FaultSchedule};
    use base_simnet::ddmin::CountingHarness;
    use base_simnet::{MetricsRegistry, SimTime};

    #[test]
    fn fault_free_run_passes_audit() {
        let mut h = CounterChaosHarness::new(4);
        let (outcome, verdict) = run_one(&mut h, 7, &FaultSchedule::new());
        assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
    }

    #[test]
    fn corrupt_state_then_recovery_passes_audit() {
        let mut h = CounterChaosHarness::new(4);
        let mut schedule = FaultSchedule::new();
        schedule
            .app(SimTime::from_millis(400), NodeId(2), APP_CORRUPT_STATE, 0)
            .app(SimTime::from_millis(900), NodeId(2), APP_RECOVER, 0);
        let (outcome, verdict) = run_one(&mut h, 11, &schedule);
        assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
        assert!(outcome.trace.iter().any(|l| l.contains("state corrupted")));
    }

    #[test]
    fn latency_budget_violations_become_failures() {
        // A budget far below any real three-phase latency: every post-heal
        // op violates, and the failure message attributes the dominant
        // critical-path phase.
        let mut h = CounterChaosHarness::new(4);
        h.latency_budget = Some(SimDuration::from_micros(10));
        let (outcome, verdict) = run_one(&mut h, 7, &FaultSchedule::new());
        let err = verdict.expect_err("every op must blow a 10us budget");
        assert!(err.contains("latency-budget"), "{err}");
        assert!(err.contains("dominated by"), "{err}");
        assert!(outcome.coverage.latency_budget_violations > 0);
        assert_eq!(outcome.coverage.trace_events_dropped, 0);

        // Same seed without a budget: clean — the violations above are
        // purely the auditor's doing, not a protocol fault.
        let mut h = CounterChaosHarness::new(4);
        let (outcome, verdict) = run_one(&mut h, 7, &FaultSchedule::new());
        assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
        assert_eq!(outcome.coverage.latency_budget_violations, 0);
    }

    /// ddmin probes through a counting wrapper; it must keep the budget
    /// auditor, or every probe of a budget failure would pass.
    #[test]
    fn counting_harness_keeps_the_latency_budget() {
        let mut inner = CounterChaosHarness::new(4);
        inner.latency_budget = Some(SimDuration::from_micros(10));
        let mut h = CountingHarness::new(inner);
        let (_, verdict) = run_one(&mut h, 7, &FaultSchedule::new());
        let err = verdict.expect_err("a counted harness must blow a 10us budget too");
        assert!(err.contains("latency-budget"), "{err}");
        assert_eq!(h.builds, 1);
    }

    #[test]
    fn buggy_client_is_caught_by_auditor() {
        let mut h = CounterChaosHarness::new(4);
        h.inject_client_bug = true;
        let mut schedule = FaultSchedule::new();
        // A single Byzantine replier feeds the quorum-skipping client a
        // fabricated result.
        schedule.app(
            SimTime::from_millis(10),
            NodeId(1),
            APP_BYZ,
            ByzMode::CorruptReplies.code(),
        );
        let (outcome, verdict) = run_one(&mut h, 3, &schedule);
        assert!(verdict.is_err(), "expected audit failure; trace:\n{}", outcome.trace.join("\n"));
    }

    /// A replica as a struct of fields: what [`ReplicaControl`] is for.
    #[derive(Clone)]
    struct Fake {
        view: u64,
        byz: ByzMode,
        stable: (u64, Option<Digest>),
        retained: Vec<(u64, Digest)>,
        /// The one `(client, ts, result)` the reply cache holds.
        cached: Option<(u32, u64, Vec<u8>)>,
        stats: ReplicaStats,
        metrics: MetricsRegistry,
    }

    impl ReplicaControl for Fake {
        fn view(&self) -> u64 {
            self.view
        }
        fn byzantine(&self) -> ByzMode {
            self.byz
        }
        fn set_byzantine(&mut self, mode: ByzMode) {
            self.byz = mode;
        }
        fn stable_seq(&self) -> u64 {
            self.stable.0
        }
        fn stable_digest(&self) -> Option<Digest> {
            self.stable.1
        }
        fn checkpoint_digests(&self) -> Vec<(u64, Digest)> {
            self.retained.clone()
        }
        fn cached_reply(&self, client: u32, ts: u64) -> Option<&[u8]> {
            self.cached.as_ref().filter(|c| (c.0, c.1) == (client, ts)).map(|c| c.2.as_slice())
        }
        fn state_root(&self) -> Digest {
            Digest::of(b"fake")
        }
        fn stats(&self) -> &ReplicaStats {
            &self.stats
        }
        fn metrics(&self) -> &MetricsRegistry {
            &self.metrics
        }
        fn corrupt_service_state(&mut self, _seed: u64) {
            self.byz = ByzMode::CorruptState;
        }
        fn trigger_recovery(&mut self) {}
        fn set_recovery_clean(&mut self, _clean: bool) {}
        fn status(&self) -> String {
            format!("{{\"view\":{}}}", self.view)
        }
    }

    fn d(tag: &[u8]) -> Digest {
        Digest::of(tag)
    }

    /// Four replicas that agree on everything: view 3, stable checkpoint 8,
    /// retained checkpoints 8 and 12, and client 4's write ts=7 → "42".
    fn agreeing() -> Vec<Fake> {
        let fake = Fake {
            view: 3,
            byz: ByzMode::Honest,
            stable: (8, Some(d(b"s8"))),
            retained: vec![(8, d(b"s8")), (12, d(b"s12"))],
            cached: Some((4, 7, b"42".to_vec())),
            stats: ReplicaStats::default(),
            metrics: MetricsRegistry::new(),
        };
        vec![fake; 4]
    }

    fn members(fakes: &[Fake]) -> Vec<Member<'_>> {
        fakes.iter().enumerate().map(|(i, f)| (NodeId(i), f as &dyn ReplicaControl)).collect()
    }

    /// `[view agreement, stable digests, retained checkpoints]` verdicts.
    fn agreement(group: &Group, fakes: &[Fake]) -> [bool; 3] {
        let all = members(fakes);
        [
            group.audit_view_agreement(&all).is_ok(),
            group.audit_stable_digests(&all).is_ok(),
            group.audit_retained_checkpoints(&all).is_ok(),
        ]
    }

    #[test]
    fn agreement_auditors_fire_on_the_one_field_that_disagrees() {
        type Mutation = fn(&mut Fake);
        let cases: [(&str, Mutation, [bool; 3]); 6] = [
            ("agreeing group", |_| {}, [true, true, true]),
            ("later view", |f| f.view = 4, [false, true, true]),
            ("other stable digest", |f| f.stable.1 = Some(d(b"x")), [true, false, true]),
            ("other retained digest", |f| f.retained[1].1 = d(b"x"), [true, true, false]),
            // Not disagreements: a different stable seq is a lagging
            // replica, and a checkpoint only one side retains has no peer.
            ("lags a checkpoint", |f| f.stable = (4, Some(d(b"s4"))), [true, true, true]),
            ("retains an extra seq", |f| f.retained.push((16, d(b"x"))), [true, true, true]),
        ];
        for (name, mutate, want) in cases {
            let mut fakes = agreeing();
            mutate(&mut fakes[2]);
            assert_eq!(agreement(&Group::default(), &fakes), want, "replica 2: {name}");
        }
    }

    #[test]
    fn selection_decides_which_replicas_each_auditor_holds_to_agreement() {
        let mut disagreeing = agreeing();
        disagreeing[2].view = 9;
        disagreeing[2].stable.1 = Some(d(b"x"));
        disagreeing[2].retained[1].1 = d(b"x");

        // Tainted but healed: its retained metadata is no longer evidence,
        // its view and its certificate-backed stable digest still are.
        let mut group = Group::default();
        group.taint(NodeId(2));
        assert_eq!(agreement(&group, &disagreeing), [false, false, true]);
        let all = members(&disagreeing);
        assert_eq!(group.honest(&all).len(), 4);
        assert_eq!(group.clean(&all).len(), 3);

        // Byzantine now: nothing it reports is held against the group.
        disagreeing[2].byz = ByzMode::CorruptReplies;
        for group in [Group::default(), group] {
            assert_eq!(agreement(&group, &disagreeing), [true, true, true]);
            let all = members(&disagreeing);
            assert_eq!(group.honest(&all).len(), 3);
            assert_eq!(group.clean(&all).len(), 3);
        }
    }

    #[test]
    fn converged_clean_is_the_clean_replicas_at_the_highest_stable_seq() {
        let mut fakes = agreeing();
        fakes[0].stable.0 = 12; // tainted below: must not set the bar
        fakes[1].stable.0 = 4; // clean but lagging
        let mut group = Group::default();
        group.taint(NodeId(0));
        let all = members(&fakes);
        let converged: Vec<usize> =
            group.converged_clean(&all).unwrap().iter().map(|(n, _)| n.0).collect();
        assert_eq!(converged, [2, 3]);

        for f in &mut fakes {
            f.byz = ByzMode::Mute;
        }
        assert!(group.converged_clean(&members(&fakes)).is_err(), "no clean replica left");
    }

    #[test]
    fn reply_certificate_needs_a_voucher_and_no_dissent() {
        let group = Group::default();
        let cert = |fakes: &[Fake], result: &[u8]| {
            group.audit_reply_certificate(&members(fakes), "client 0", 4, 7, result)
        };
        let fakes = agreeing();
        assert_eq!(cert(&fakes, b"42"), Ok(()));
        // The client accepted something no clean replica produced.
        assert!(cert(&fakes, b"43").unwrap_err().contains("never produced"));

        // Lagging replicas that have not executed ts=7 are tolerated…
        let mut lagging = agreeing();
        for f in &mut lagging[..3] {
            f.cached = None;
        }
        assert_eq!(cert(&lagging, b"42"), Ok(()));
        // …but someone has to vouch.
        lagging[3].cached = None;
        assert!(cert(&lagging, b"42").unwrap_err().contains("no clean replica vouches"));

        // A Byzantine replica's cache neither vouches nor dissents.
        let mut one_liar = agreeing();
        one_liar[1].cached = Some((4, 7, b"666".to_vec()));
        assert!(cert(&one_liar, b"42").is_err());
        one_liar[1].byz = ByzMode::CorruptReplies;
        assert_eq!(cert(&one_liar, b"42"), Ok(()));
    }

    #[test]
    fn subset_chain_accepts_sequential_histories_only() {
        let op = |who: &str, delta: Option<u64>, result: &'static str| ChainOp {
            who: who.into(),
            delta,
            result: result.as_bytes(),
        };
        // Writes of bits 1, 2, 4 in that order, reads of two states on the
        // chain and of the initial state.
        let good = [
            op("w1", Some(1), "1"),
            op("w2", Some(2), "3"),
            op("w4", Some(4), "7"),
            op("r", None, "3"),
            op("r", None, "0"),
        ];
        assert_eq!(audit_subset_chain(7, &good), Ok(()));

        let cases: [(&str, ChainOp<'_>, &str); 5] = [
            ("unparseable", op("w", Some(1), "1x"), "corrupt reply"),
            ("unknown bit", op("w", Some(1), "9"), "bits no write ever added"),
            ("own delta missing", op("w4", Some(4), "3"), "missing its own delta"),
            ("forked chain", op("w4", Some(4), "5"), "not a subset chain"),
            ("read off the chain", op("r", None, "6"), "passes through"),
        ];
        for (name, bad, want) in cases {
            let mut ops = vec![op("w1", Some(1), "1"), op("w2", Some(2), "3")];
            ops.push(bad);
            let err = audit_subset_chain(7, &ops).expect_err(name);
            assert!(err.contains(want), "{name}: {err}");
        }
    }

    #[test]
    fn fresh_delta_hands_out_each_bit_once() {
        let mut known = 0;
        assert_eq!([fresh_delta(&mut known), fresh_delta(&mut known)], [1, 2]);
        assert_eq!(known, 3);
    }
}
