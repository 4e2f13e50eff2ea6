//! PBFT-specific chaos-campaign harness and safety auditor.
//!
//! This module binds the protocol-agnostic campaign engine in
//! [`base_simnet::chaos`] to a replicated [`CounterService`] group. It
//! defines the application-fault vocabulary (Byzantine-mode flips, latent
//! state corruption, proactive-recovery triggers), builds a seeded workload
//! whose results admit an exact linearizability check, and audits every
//! finished run for the five campaign invariants:
//!
//! 1. **Linearizability** of completed client operations. Each write adds a
//!    distinct power-of-two delta to one register, so every correct result
//!    is a union of delta bits and the set of completed results must form a
//!    subset chain; reads must return a state on that chain.
//! 2. **No checkpoint fork**: replicas that were never faulty nor corrupted
//!    agree on the checkpoint digest at every sequence number both retain,
//!    and all currently-honest replicas with the same stable sequence agree
//!    on the certificate-backed stable digest.
//! 3. **Reply-certificate consistency**: the result the client accepted for
//!    its last write matches the reply cached by the clean replicas.
//! 4. **Liveness**: every client finishes its whole workload once all
//!    scheduled faults have healed.
//! 5. **View agreement**: honest replicas settle in the same view once the
//!    schedule drains (view-change storms must converge, not spin).

use crate::byzantine::ByzMode;
use crate::config::Config;
use crate::replica::Replica;
use crate::testing::{build_counter_group, op_add, op_get, CounterService, TestGroup};
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

/// What a completed client operation was, for the auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// `add 0 <delta>` with a distinct power-of-two delta.
    Add(u64),
    /// `get 0` (submitted read-only).
    Get,
}

/// A campaign harness replicating [`CounterService`] with a workload of
/// distinct-bit adds and reads, plus the full safety audit.
pub struct CounterChaosHarness {
    /// Number of replicas.
    pub n: usize,
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
    /// Consensus pipeline depth the group runs with
    /// ([`Config::pipeline_depth`]); campaigns set a small value so
    /// view-change storms catch slots `n..n+depth` in flight.
    pub pipeline_depth: u64,
    /// Execution worker count ([`Config::exec_workers`]).
    pub exec_workers: usize,
    /// Whether state transfer fetches erasure-coded fragments
    /// ([`Config::coded_transfer`]).
    pub coded_transfer: bool,
    /// Chunk size for chunked Merkle leaf digests ([`Config::chunk_size`]).
    pub chunk_size: usize,
    // Per-run state, reset by `build`.
    group: Option<TestGroup>,
    expected: HashMap<(u32, u64), OpKind>,
    all_deltas: u64,
    tainted: HashSet<NodeId>,
}

impl CounterChaosHarness {
    /// Creates a harness with `n` replicas and a default workload of three
    /// clients running thirteen operations each.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            clients: 3,
            ops_per_client: 13,
            inject_client_bug: false,
            inject_stall_bug: false,
            pace: SimDuration::from_millis(250),
            settle: SimDuration::from_secs(30),
            latency_budget: None,
            pipeline_depth: 16,
            exec_workers: 1,
            coded_transfer: false,
            chunk_size: 0,
            group: None,
            expected: HashMap::new(),
            all_deltas: 0,
            tainted: HashSet::new(),
        }
    }

    /// The group configuration a run is built with: frequent checkpoints so
    /// campaigns exercise garbage collection and state transfer, and a
    /// short reboot so triggered recoveries finish within the run.
    pub fn config(&self) -> Config {
        let mut cfg = Config::new(self.n);
        cfg.checkpoint_interval = 4;
        cfg.log_window = 32;
        cfg.reboot_time = SimDuration::from_millis(100);
        cfg.pipeline_depth = self.pipeline_depth;
        cfg.exec_workers = self.exec_workers;
        cfg.coded_transfer = self.coded_transfer;
        cfg.chunk_size = self.chunk_size;
        cfg
    }

    /// A schedule-generation config matching this harness: faults target
    /// the replica set, at most `f` nodes are impaired at once, and the
    /// app-fault vocabulary covers Byzantine flips (healed back to honest)
    /// and latent state corruption (healed by proactive recovery).
    pub fn gen_config(&self, events: usize, horizon: SimDuration) -> ScheduleGenConfig {
        let cfg = self.config();
        ScheduleGenConfig {
            nodes: (0..self.n).map(NodeId).collect(),
            max_impaired: cfg.f(),
            horizon,
            events,
            app_faults: vec![
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
                    // A corrupt replica serves wrong replies for the
                    // damaged register, so it counts against the budget.
                    impairs: true,
                    heal: Some(HealSpec { tag: APP_RECOVER, after: SimDuration::from_secs(2) }),
                },
            ],
            net_faults: true,
        }
    }

    fn replica<'a>(&self, sim: &'a Simulation, node: NodeId) -> &'a Replica<CounterService> {
        sim.actor_as::<Replica<CounterService>>(node).expect("replica actor")
    }

    /// Replicas that are honest *now* (their Byzantine behaviour, if any,
    /// has healed).
    fn honest_replicas(&self, sim: &Simulation) -> Vec<NodeId> {
        let group = self.group.as_ref().expect("run built");
        group
            .replicas
            .iter()
            .copied()
            .filter(|&r| self.replica(sim, r).byzantine() == ByzMode::Honest)
            .collect()
    }

    /// Replicas that are honest now *and* were never flipped faulty or
    /// corrupted during the run. Only these are trusted to hold pristine
    /// local checkpoint metadata (a healed `CorruptCheckpoints` replica
    /// retains the corrupted digests it stored about itself).
    fn clean_replicas(&self, sim: &Simulation) -> Vec<NodeId> {
        self.honest_replicas(sim)
            .into_iter()
            .filter(|r| !self.tainted.contains(r))
            .collect()
    }

    fn audit_liveness(&self, sim: &Simulation) -> Result<(), String> {
        let group = self.group.as_ref().expect("run built");
        for (i, &c) in group.clients.iter().enumerate() {
            let actor = sim.actor_as::<ClientActor>(c).expect("client actor");
            if actor.completed.len() != self.ops_per_client {
                return Err(format!(
                    "liveness: client {i} completed {}/{} operations",
                    actor.completed.len(),
                    self.ops_per_client
                ));
            }
        }
        Ok(())
    }

    fn audit_linearizability(&self, sim: &Simulation) -> Result<(), String> {
        let group = self.group.as_ref().expect("run built");
        let mut add_results: Vec<u64> = Vec::new();
        let mut get_results: Vec<(usize, u64, u64)> = Vec::new();

        for (i, &c) in group.clients.iter().enumerate() {
            let client_id = (self.n + i) as u32;
            let actor = sim.actor_as::<ClientActor>(c).expect("client actor");
            for (ts, result) in &actor.completed {
                let kind = self
                    .expected
                    .get(&(client_id, *ts))
                    .ok_or_else(|| format!("client {i} completed unknown op ts={ts}"))?;
                let value: u64 = String::from_utf8_lossy(result)
                    .parse()
                    .map_err(|_| {
                        format!(
                            "linearizability: client {i} ts={ts} accepted a corrupt \
                             reply {:?}",
                            String::from_utf8_lossy(result)
                        )
                    })?;
                if value & !self.all_deltas != 0 {
                    return Err(format!(
                        "linearizability: client {i} ts={ts} result {value:#x} contains \
                         bits no write ever added"
                    ));
                }
                match kind {
                    OpKind::Add(delta) => {
                        if value & delta == 0 {
                            return Err(format!(
                                "linearizability: client {i} ts={ts} add result \
                                 {value:#x} is missing its own delta {delta:#x}"
                            ));
                        }
                        add_results.push(value);
                    }
                    OpKind::Get => get_results.push((i, *ts, value)),
                }
            }
        }

        // Every add returns the register value after it executed, and each
        // add contributes a distinct bit, so the results must form a strict
        // subset chain (one new bit per link) when sorted by population.
        add_results.sort_by_key(|v| (v.count_ones(), *v));
        for pair in add_results.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if a & !b != 0 || a == b {
                return Err(format!(
                    "linearizability: add results {a:#x} and {b:#x} are not a subset \
                     chain — no sequential execution produces both"
                ));
            }
        }

        // A read returns the register at its linearization point, which is
        // the initial state or the state some add produced.
        for (i, ts, value) in get_results {
            if value != 0 && !add_results.contains(&value) {
                return Err(format!(
                    "linearizability: client {i} ts={ts} read {value:#x}, a state no \
                     sequential execution passes through"
                ));
            }
        }
        Ok(())
    }

    fn audit_view_agreement(&self, sim: &Simulation) -> Result<(), String> {
        // After the settle window every honest replica must have converged
        // on one view: a replica stuck in a higher view than its peers
        // either lost a new-view message it can no longer recover or is
        // spinning through view changes — both liveness bugs a view-change
        // storm is designed to expose.
        let honest = self.honest_replicas(sim);
        let mut views: Vec<(NodeId, u64)> =
            honest.iter().map(|&r| (r, self.replica(sim, r).view())).collect();
        views.sort_by_key(|&(_, v)| v);
        if let (Some(&(lo_node, lo)), Some(&(hi_node, hi))) = (views.first(), views.last()) {
            if lo != hi {
                return Err(format!(
                    "view agreement: honest replicas settled in different views \
                     (replica {} in view {lo}, replica {} in view {hi})",
                    lo_node.0, hi_node.0
                ));
            }
        }
        Ok(())
    }

    fn audit_checkpoints(&self, sim: &Simulation) -> Result<(), String> {
        // Pairwise digest agreement at every retained sequence number,
        // among replicas whose local metadata was never poisoned.
        let clean = self.clean_replicas(sim);
        for (i, &a) in clean.iter().enumerate() {
            let da: HashMap<u64, _> = self.replica(sim, a).checkpoint_digests().into_iter().collect();
            for &b in clean.iter().skip(i + 1) {
                for (seq, db) in self.replica(sim, b).checkpoint_digests() {
                    if let Some(daq) = da.get(&seq) {
                        if *daq != db {
                            return Err(format!(
                                "checkpoint fork: replicas {} and {} disagree at seq {seq}",
                                a.0, b.0
                            ));
                        }
                    }
                }
            }
        }

        // Certificate-backed stable digests must agree among all currently
        // honest replicas at the same stable sequence number (a certificate
        // cannot be assembled for a minority digest, healed or not).
        let honest = self.honest_replicas(sim);
        for (i, &a) in honest.iter().enumerate() {
            let ra = self.replica(sim, a);
            for &b in honest.iter().skip(i + 1) {
                let rb = self.replica(sim, b);
                if ra.stable_seq() == rb.stable_seq() && ra.stable_seq() > 0 {
                    if let (Some(da), Some(db)) = (ra.stable_digest(), rb.stable_digest()) {
                        if da != db {
                            return Err(format!(
                                "checkpoint fork: stable digests diverge at seq {} \
                                 between replicas {} and {}",
                                ra.stable_seq(),
                                a.0,
                                b.0
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn audit_reply_certificates(&self, sim: &Simulation) -> Result<(), String> {
        let group = self.group.as_ref().expect("run built");
        let clean = self.clean_replicas(sim);
        for (i, &c) in group.clients.iter().enumerate() {
            let client_id = (self.n + i) as u32;
            let actor = sim.actor_as::<ClientActor>(c).expect("client actor");
            // The reply cache holds each client's latest executed write, so
            // only the final operation is checkable — and only if it was a
            // write (read-only replies are not cached).
            let Some((ts, result)) = actor.completed.last() else { continue };
            if !matches!(self.expected.get(&(client_id, *ts)), Some(OpKind::Add(_))) {
                continue;
            }
            let mut vouchers = 0usize;
            for &r in &clean {
                match self.replica(sim, r).cached_reply(client_id, *ts) {
                    Some(cached) if cached == result.as_slice() => vouchers += 1,
                    Some(_) => {
                        return Err(format!(
                            "reply certificate: client {i} accepted a result for ts={ts} \
                             that clean replica {} never produced",
                            r.0
                        ));
                    }
                    // A lagging replica may not have executed ts yet.
                    None => {}
                }
            }
            if vouchers == 0 {
                return Err(format!(
                    "reply certificate: no clean replica vouches for client {i}'s \
                     accepted result at ts={ts}"
                ));
            }
        }
        Ok(())
    }
}

impl ChaosHarness for CounterChaosHarness {
    fn build(&mut self, seed: u64) -> Simulation {
        self.expected.clear();
        self.all_deltas = 0;
        self.tainted.clear();

        let mut sim = Simulation::new(seed);
        let group = build_counter_group(&mut sim, self.config(), self.clients, seed);
        for &r in &group.replicas {
            // Warm reboots: recovery repairs state instead of rebuilding it
            // from scratch, which is what surfaces latent corruption.
            sim.actor_as_mut::<Replica<CounterService>>(r)
                .expect("replica actor")
                .set_recovery_clean(false);
        }

        let mut next_bit = 0u32;
        for (i, &c) in group.clients.iter().enumerate() {
            let client_id = (self.n + i) as u32;
            let actor = sim.actor_as_mut::<ClientActor>(c).expect("client actor");
            actor.core_mut().bug_accept_first_reply = self.inject_client_bug;
            actor.core_mut().bug_never_retransmit = self.inject_stall_bug;
            actor.set_pace(self.pace);
            for j in 0..self.ops_per_client {
                // Timestamps are assigned in submission order, starting at 1.
                let ts = (j + 1) as u64;
                if j % 3 == 2 {
                    actor.enqueue(op_get(0), true);
                    self.expected.insert((client_id, ts), OpKind::Get);
                } else {
                    assert!(next_bit < 64, "workload too large for distinct delta bits");
                    let delta = 1u64 << next_bit;
                    next_bit += 1;
                    actor.enqueue(op_add(0, delta), false);
                    self.expected.insert((client_id, ts), OpKind::Add(delta));
                    self.all_deltas |= delta;
                }
            }
        }
        self.group = Some(group);
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
        let Some(replica) = sim.actor_as_mut::<Replica<CounterService>>(node) else {
            trace.push(format!("app fault at node {} ignored (not a replica)", node.0));
            return;
        };
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
            _ => trace.push(format!("unknown app fault tag {tag} at node {}", node.0)),
        }
    }

    fn settle(&self) -> SimDuration {
        self.settle
    }

    fn liveness_bounds(&self) -> LivenessBounds {
        // Well inside the settle window, but generous enough for the
        // worst capped view-change chase plus a full state transfer.
        LivenessBounds {
            heal_to_progress: Some(SimDuration::from_secs(25)),
            view_convergence: Some(SimDuration::from_secs(25)),
            recovery_duration: Some(SimDuration::from_secs(25)),
        }
    }

    fn latency_budget(&self) -> Option<SimDuration> {
        self.latency_budget
    }

    fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
        self.audit_liveness(sim)?;
        self.audit_linearizability(sim)?;
        self.audit_view_agreement(sim)?;
        self.audit_checkpoints(sim)?;
        self.audit_reply_certificates(sim)?;
        trace.push(format!(
            "audit ok: {} clean / {} honest replicas",
            self.clean_replicas(sim).len(),
            self.honest_replicas(sim).len()
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use base_simnet::chaos::{run_one, FaultSchedule};
    use base_simnet::SimTime;

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
}
