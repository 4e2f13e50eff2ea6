//! Chaos campaigns: declarative, seeded fault schedules executed over many
//! simulation runs, with greedy schedule minimization for failing runs.
//!
//! A [`FaultSchedule`] is a list of timed events — crash/restore windows,
//! healing network faults ([`NetFault`]s, each added to the simulation as a
//! window) and application-defined faults (Byzantine-mode flips, state
//! corruption, proactive-recovery triggers) dispatched through a
//! [`ChaosHarness`] hook
//! so this crate stays protocol-agnostic. [`run_one`] executes a schedule
//! against a freshly built simulation and returns the deterministic event
//! trace; [`run_campaign`] drives N seeded runs, generating a
//! budget-respecting random schedule per seed, auditing each run, and
//! shrinking any failing schedule with [`minimize`] so the report carries a
//! minimal replayable reproduction (seed + schedule).
//!
//! Everything is deterministic: the same seed and schedule produce the same
//! trace and the same [`NetStats`], which the determinism tests assert.

use crate::faults::NetFault;
use crate::trace::{ProtocolEvent, RingBufferSink, TraceEvent};
use crate::{NetStats, NodeId, SimDuration, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::sync::Mutex;

/// One scheduled fault event.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosEvent {
    /// Crash a node, restoring it after `down`.
    Crash {
        /// The node to crash.
        node: NodeId,
        /// Downtime before the node restarts.
        down: SimDuration,
    },
    /// A network fault active for `dur` starting at the event time.
    Net {
        /// The fault to install.
        fault: NetFault,
        /// How long it stays active.
        dur: SimDuration,
    },
    /// An application-defined fault, dispatched to
    /// [`ChaosHarness::apply_app`]. `tag` selects the fault kind (the
    /// harness defines the vocabulary), `arg` parameterizes it.
    App {
        /// Target node.
        node: NodeId,
        /// Harness-defined fault kind.
        tag: u32,
        /// Harness-defined parameter.
        arg: u64,
    },
}

/// An event plus its activation time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Activation instant.
    pub at: SimTime,
    /// The fault to apply.
    pub event: ChaosEvent,
}

impl ChaosEvent {
    /// The canonical encoding a schedule digest folds: a kind number, then
    /// every field ([`NetFault::words`] for a network fault).
    pub(crate) fn words(&self) -> Vec<u64> {
        match self {
            ChaosEvent::Crash { node, down } => vec![1, node.0 as u64, down.as_nanos()],
            ChaosEvent::Net { fault, dur } => {
                let mut w = vec![2, dur.as_nanos()];
                w.extend(fault.words());
                w
            }
            ChaosEvent::App { node, tag, arg } => vec![3, node.0 as u64, u64::from(*tag), *arg],
        }
    }

    /// The magnitudes the shrinker may lower, in the order it visits them:
    /// a crash's downtime; a network fault's window, then its own
    /// [`NetFault::knobs`]; an application fault's argument.
    pub(crate) fn knobs(&self) -> Vec<u64> {
        match self {
            ChaosEvent::Crash { down, .. } => vec![down.as_nanos()],
            ChaosEvent::Net { fault, dur } => {
                let mut k = vec![dur.as_nanos()];
                k.extend(fault.knobs());
                k
            }
            ChaosEvent::App { arg, .. } => vec![*arg],
        }
    }

    /// This event with knob `k` (an index into [`knobs`](Self::knobs)) set
    /// to `v`.
    ///
    /// # Panics
    ///
    /// Panics if the event has no knob `k`.
    pub(crate) fn with_knob(&self, k: usize, v: u64) -> ChaosEvent {
        let mut event = self.clone();
        match (&mut event, k) {
            (ChaosEvent::Crash { down, .. }, 0) => *down = SimDuration::from_nanos(v),
            (ChaosEvent::Net { dur, .. }, 0) => *dur = SimDuration::from_nanos(v),
            (ChaosEvent::Net { fault, .. }, k) => *fault = fault.with_knob(k - 1, v),
            (ChaosEvent::App { arg, .. }, 0) => *arg = v,
            _ => panic!("{self:?} has no knob {k}"),
        }
        event
    }
}

impl fmt::Display for TimedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ms ", self.at.as_nanos() / 1_000_000)?;
        match &self.event {
            ChaosEvent::Crash { node, down } => {
                write!(f, "crash node {} for {}ms", node.0, down.as_nanos() / 1_000_000)
            }
            ChaosEvent::Net { fault, dur } => {
                write!(f, "{fault} for {}ms", dur.as_nanos() / 1_000_000)
            }
            ChaosEvent::App { node, tag, arg } => {
                write!(f, "app fault tag={} arg={} at node {}", tag, arg, node.0)
            }
        }
    }
}

/// A declarative, replayable schedule of fault events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    /// The scheduled events, in insertion order.
    pub events: Vec<TimedEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a crash of `node` at `at`, restored after `down`.
    pub fn crash(&mut self, at: SimTime, node: NodeId, down: SimDuration) -> &mut Self {
        self.events.push(TimedEvent { at, event: ChaosEvent::Crash { node, down } });
        self
    }

    /// Schedules a network fault active for `dur` starting at `at`.
    pub fn net(&mut self, at: SimTime, fault: NetFault, dur: SimDuration) -> &mut Self {
        self.events.push(TimedEvent { at, event: ChaosEvent::Net { fault, dur } });
        self
    }

    /// Schedules an application fault (see [`ChaosEvent::App`]).
    pub fn app(&mut self, at: SimTime, node: NodeId, tag: u32, arg: u64) -> &mut Self {
        self.events.push(TimedEvent { at, event: ChaosEvent::App { node, tag, arg } });
        self
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A copy with the `idx`-th event removed (used by the minimizer).
    pub fn without(&self, idx: usize) -> Self {
        let mut events = self.events.clone();
        events.remove(idx);
        Self { events }
    }

    /// Events in activation order (stable for equal times).
    fn sorted(&self) -> Vec<TimedEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at);
        evs
    }

    /// Latest instant at which any event is still in force.
    pub fn end(&self) -> SimTime {
        self.events
            .iter()
            .map(|e| match &e.event {
                ChaosEvent::Crash { down, .. } => e.at + *down,
                ChaosEvent::Net { dur, .. } => e.at + *dur,
                ChaosEvent::App { .. } => e.at,
            })
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Multi-line human-readable rendering, for failure reports.
    pub fn describe(&self) -> String {
        if self.events.is_empty() {
            return "  (empty schedule)".to_string();
        }
        self.sorted()
            .iter()
            .map(|e| format!("  {e}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// System-under-test hooks a campaign needs: how to build a fresh run, how
/// to apply application faults, and how to audit the end state.
pub trait ChaosHarness {
    /// Builds a fresh simulation (replicas, clients, workload) for `seed`.
    fn build(&mut self, seed: u64) -> Simulation;

    /// Applies an application-defined fault to the running simulation.
    /// Pushes one line per applied effect onto `trace`.
    fn apply_app(
        &mut self,
        sim: &mut Simulation,
        node: NodeId,
        tag: u32,
        arg: u64,
        trace: &mut Vec<String>,
    );

    /// Extra sim-time to run past the last event so the system can settle
    /// (retransmissions drain, recoveries finish, clients complete).
    fn settle(&self) -> SimDuration {
        SimDuration::from_secs(20)
    }

    /// Audits the finished run; `Err` describes the violated invariant.
    fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String>;

    /// Liveness deadlines the engine enforces on every run, anchored at the
    /// instant the last scheduled fault heals ([`FaultSchedule::end`]).
    /// The default (all `None`) disables engine-level liveness auditing;
    /// harnesses opt in per bound. Bounds must not exceed
    /// [`settle`](Self::settle) or pending work cannot be distinguished
    /// from work the run simply did not wait for.
    fn liveness_bounds(&self) -> LivenessBounds {
        LivenessBounds::default()
    }

    /// Per-operation critical-path budget enforced on post-heal operations
    /// by [`audit_latency_budget`]. A completed op submitted after the last
    /// fault heals whose end-to-end latency exceeds the budget becomes an
    /// ordinary failure report — and therefore minimizes through ddmin like
    /// any safety or liveness violation. `None` (the default) disables the
    /// auditor.
    fn latency_budget(&self) -> Option<SimDuration> {
        None
    }

    /// Lines describing the end state of a run that failed, appended to its
    /// trace after the verdict. The default adds none.
    fn describe(&self, sim: &Simulation) -> Vec<String> {
        let _ = sim;
        Vec::new()
    }
}

/// Deadlines for the engine's liveness auditors, all measured from the
/// instant the last scheduled fault heals. `None` disables a bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LivenessBounds {
    /// Every client operation pending at heal time must complete within
    /// this bound (and no post-heal completion may take longer).
    pub heal_to_progress: Option<SimDuration>,
    /// No replica may start a view change later than this bound after heal:
    /// the group must converge on a view once the network is quiescent.
    pub view_convergence: Option<SimDuration>,
    /// Every recovery must finish within this bound of starting (evaluated
    /// only once the run has waited at least that long).
    pub recovery_duration: Option<SimDuration>,
}

/// Checks the recorded trace against `bounds`, returning one message per
/// violation in deterministic (event-order) sequence. Empty means live.
///
/// `run_end` is how far the run actually simulated; pending-work checks
/// only fire when the run waited out the relevant deadline, so a short
/// settle window can never manufacture a violation.
pub fn audit_liveness_bounds(
    events: &[TraceEvent],
    schedule: &FaultSchedule,
    bounds: &LivenessBounds,
    run_end: SimTime,
) -> Vec<String> {
    let heal_at = schedule.end();
    let mut violations = Vec::new();

    if let Some(bound) = bounds.heal_to_progress {
        // Per-node FIFO of unmatched submission times: each client core
        // runs one operation at a time, so the k-th completion on a node
        // answers its k-th submission.
        let mut open: BTreeMap<NodeId, VecDeque<SimTime>> = BTreeMap::new();
        for ev in events {
            match ev.event {
                ProtocolEvent::ClientOpSubmitted => {
                    open.entry(ev.node).or_default().push_back(ev.at);
                }
                ProtocolEvent::ClientOpCompleted => {
                    let submitted =
                        open.get_mut(&ev.node).and_then(VecDeque::pop_front).unwrap_or(ev.at);
                    let deadline = submitted.max(heal_at) + bound;
                    if ev.at > deadline {
                        violations.push(format!(
                            "heal-to-progress: node {} completed an op {}ms after the last \
                             fault healed (bound {}ms)",
                            ev.node.0,
                            (ev.at - heal_at).as_millis(),
                            bound.as_millis()
                        ));
                    }
                }
                _ => {}
            }
        }
        for (node, pending) in &open {
            if !pending.is_empty() && run_end >= heal_at + bound {
                violations.push(format!(
                    "heal-to-progress: node {} still has {} pending op(s) {}ms after the \
                     last fault healed (bound {}ms)",
                    node.0,
                    pending.len(),
                    (run_end - heal_at).as_millis(),
                    bound.as_millis()
                ));
            }
        }
    }

    if let Some(bound) = bounds.view_convergence {
        for ev in events {
            if ev.event == ProtocolEvent::ViewChangeStarted && ev.at > heal_at + bound {
                violations.push(format!(
                    "view-convergence: node {} started a view change (v{}) {}ms after the \
                     last fault healed (bound {}ms)",
                    ev.node.0,
                    ev.view,
                    (ev.at - heal_at).as_millis(),
                    bound.as_millis()
                ));
            }
        }
    }

    if let Some(bound) = bounds.recovery_duration {
        let mut open: BTreeMap<NodeId, VecDeque<SimTime>> = BTreeMap::new();
        for ev in events {
            match ev.event {
                ProtocolEvent::RecoveryStarted => {
                    open.entry(ev.node).or_default().push_back(ev.at);
                }
                ProtocolEvent::RecoveryCompleted { .. } => {
                    let started =
                        open.get_mut(&ev.node).and_then(VecDeque::pop_front).unwrap_or(ev.at);
                    if ev.at > started + bound {
                        violations.push(format!(
                            "recovery-duration: node {}'s recovery took {}ms (bound {}ms)",
                            ev.node.0,
                            (ev.at - started).as_millis(),
                            bound.as_millis()
                        ));
                    }
                }
                _ => {}
            }
        }
        for (node, pending) in &open {
            for started in pending {
                if run_end >= *started + bound {
                    violations.push(format!(
                        "recovery-duration: node {}'s recovery still incomplete {}ms after \
                         it began (bound {}ms)",
                        node.0,
                        (run_end - *started).as_millis(),
                        bound.as_millis()
                    ));
                }
            }
        }
    }

    violations
}

/// Checks every post-heal operation's critical path against a per-op
/// latency budget, returning one message per violation in submission order.
///
/// Spans are rebuilt from the trace with [`crate::span::build_spans`]; only
/// operations submitted at or after the heal instant are held to the budget
/// (ops straddling a fault window are expected to be slow — that is the
/// liveness auditors' turf). Each violation names the dominant critical-path
/// phase, so a minimized repro immediately says *where* the time went.
pub fn audit_latency_budget(
    events: &[TraceEvent],
    schedule: &FaultSchedule,
    budget: SimDuration,
) -> Vec<String> {
    let heal_at = schedule.end();
    let mut violations = Vec::new();
    for span in crate::span::build_spans(events) {
        if span.submitted < heal_at {
            continue;
        }
        let Some(latency_ns) = span.latency_ns() else { continue };
        if latency_ns <= budget.as_nanos() {
            continue;
        }
        let (phase, phase_ns) = [
            ("request", span.segments.request_ns),
            ("prepare", span.segments.prepare_ns),
            ("commit", span.segments.commit_ns),
            ("execute", span.segments.execute_ns),
            ("reply", span.segments.reply_ns),
            ("delivery", span.segments.delivery_ns),
        ]
        .into_iter()
        .max_by_key(|(_, ns)| *ns)
        .unwrap();
        violations.push(format!(
            "latency-budget: node {} op ts={} took {}ms (budget {}ms), dominated by \
             {phase} ({}ms, retx={}, vc={})",
            span.client.0,
            span.ts,
            latency_ns / 1_000_000,
            budget.as_millis(),
            phase_ns / 1_000_000,
            span.retransmits,
            span.view_changes
        ));
    }
    violations
}

/// What a run actually exercised, derived from the recorded protocol trace
/// (see [`crate::trace`]). Thin schedules — ones that never force a view
/// change or a state transfer — show up as zero rows in the campaign
/// summary instead of silently passing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// View changes started (replicas moving to a higher view).
    pub view_changes_started: u64,
    /// New-view certificates installed.
    pub view_changes_completed: u64,
    /// Checkpoints that gathered a stable certificate.
    pub checkpoints_stable: u64,
    /// State-transfer fetches started.
    pub state_transfers_started: u64,
    /// State transfers that brought a replica up to date.
    pub state_transfers_completed: u64,
    /// Proactive recoveries started.
    pub recoveries_started: u64,
    /// Proactive recoveries completed.
    pub recoveries_completed: u64,
    /// Completed recoveries whose window overlapped an active partition.
    pub recoveries_overlapping_partition: u64,
    /// Completed recoveries that repaired corrupt concrete state.
    pub corrupt_state_repairs: u64,
    /// Client retransmissions observed.
    pub client_retransmits: u64,
    /// Read-only requests degraded to the full protocol.
    pub quorum_degradations: u64,
    /// Client operations submitted (first transmissions).
    pub client_ops_submitted: u64,
    /// Client operations that completed with a reply certificate.
    pub client_ops_completed: u64,
    /// Worst post-heal completion latency: the latest client completion
    /// after the last fault healed, measured from the heal instant (zero
    /// when every op finished before heal). Merged with `max`, not `+`.
    pub heal_to_progress_ns: u64,
    /// Liveness-bound violations charged to this run by the engine's
    /// [`audit_liveness_bounds`] pass (zero when bounds are disabled).
    pub liveness_violations: u64,
    /// Latency-budget violations charged by [`audit_latency_budget`]
    /// (zero when the harness sets no budget).
    pub latency_budget_violations: u64,
    /// Events evicted from the run's trace ring buffer. Non-zero means
    /// coverage counters (and span reconstruction) undercount — campaigns
    /// gate on this staying zero.
    pub trace_events_dropped: u64,
}

impl Coverage {
    /// Derives coverage from a recorded trace. Partition windows from the
    /// schedule decide which recoveries count as overlapping a partition:
    /// a recovery overlaps when its `[started, completed]` span on one
    /// node intersects any scheduled partition window.
    pub fn from_trace(events: &[TraceEvent], schedule: &FaultSchedule) -> Coverage {
        let partitions: Vec<(SimTime, SimTime)> = schedule
            .events
            .iter()
            .filter_map(|e| match &e.event {
                ChaosEvent::Net { fault: NetFault::Partition { .. }, dur } => {
                    Some((e.at, e.at + *dur))
                }
                _ => None,
            })
            .collect();

        let heal_at = schedule.end();
        let mut cov = Coverage::default();
        // Earliest unmatched RecoveryStarted per node, for overlap spans.
        let mut open_recovery: Vec<(NodeId, SimTime)> = Vec::new();
        for ev in events {
            match ev.event {
                ProtocolEvent::ViewChangeStarted => cov.view_changes_started += 1,
                ProtocolEvent::ViewChangeCompleted => cov.view_changes_completed += 1,
                ProtocolEvent::CheckpointStable => cov.checkpoints_stable += 1,
                ProtocolEvent::StateTransferFetchStarted => cov.state_transfers_started += 1,
                ProtocolEvent::StateTransferFetchChunk { .. } => {}
                ProtocolEvent::StateTransferFetchCompleted { .. } => {
                    cov.state_transfers_completed += 1;
                }
                ProtocolEvent::RecoveryStarted => {
                    cov.recoveries_started += 1;
                    open_recovery.push((ev.node, ev.at));
                }
                ProtocolEvent::RecoveryCompleted { repaired_corruption } => {
                    cov.recoveries_completed += 1;
                    if repaired_corruption {
                        cov.corrupt_state_repairs += 1;
                    }
                    let started = open_recovery
                        .iter()
                        .position(|(n, _)| *n == ev.node)
                        .map(|i| open_recovery.remove(i).1)
                        .unwrap_or(ev.at);
                    if partitions.iter().any(|(from, until)| started < *until && *from < ev.at) {
                        cov.recoveries_overlapping_partition += 1;
                    }
                }
                ProtocolEvent::RequestExecuted { .. } => {}
                ProtocolEvent::ClientRetransmit => cov.client_retransmits += 1,
                ProtocolEvent::ReplyQuorumDegraded => cov.quorum_degradations += 1,
                ProtocolEvent::ClientOpSubmitted => cov.client_ops_submitted += 1,
                ProtocolEvent::ClientOpCompleted => {
                    cov.client_ops_completed += 1;
                    if ev.at > heal_at {
                        cov.heal_to_progress_ns =
                            cov.heal_to_progress_ns.max((ev.at - heal_at).as_nanos());
                    }
                }
                // Causal span events carry per-op identity, not coverage;
                // the span layer consumes them.
                ProtocolEvent::RequestProposed { .. }
                | ProtocolEvent::PrePrepareLogged { .. }
                | ProtocolEvent::PrepareQuorum
                | ProtocolEvent::CommitQuorum
                | ProtocolEvent::ReplySent { .. } => {}
            }
        }
        cov
    }

    /// Adds `other` into `self` (campaign aggregation).
    pub fn merge(&mut self, other: &Coverage) {
        self.view_changes_started += other.view_changes_started;
        self.view_changes_completed += other.view_changes_completed;
        self.checkpoints_stable += other.checkpoints_stable;
        self.state_transfers_started += other.state_transfers_started;
        self.state_transfers_completed += other.state_transfers_completed;
        self.recoveries_started += other.recoveries_started;
        self.recoveries_completed += other.recoveries_completed;
        self.recoveries_overlapping_partition += other.recoveries_overlapping_partition;
        self.corrupt_state_repairs += other.corrupt_state_repairs;
        self.client_retransmits += other.client_retransmits;
        self.quorum_degradations += other.quorum_degradations;
        self.client_ops_submitted += other.client_ops_submitted;
        self.client_ops_completed += other.client_ops_completed;
        // Worst-case latency, not a sum: campaign-level heal-to-progress is
        // the slowest post-heal completion seen across runs.
        self.heal_to_progress_ns = self.heal_to_progress_ns.max(other.heal_to_progress_ns);
        self.liveness_violations += other.liveness_violations;
        self.latency_budget_violations += other.latency_budget_violations;
        self.trace_events_dropped += other.trace_events_dropped;
    }

    /// Deterministic single-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"view_changes_started\":{},\"view_changes_completed\":{},\
             \"checkpoints_stable\":{},\"state_transfers_started\":{},\
             \"state_transfers_completed\":{},\"recoveries_started\":{},\
             \"recoveries_completed\":{},\"recoveries_overlapping_partition\":{},\
             \"corrupt_state_repairs\":{},\"client_retransmits\":{},\
             \"quorum_degradations\":{},\"client_ops_submitted\":{},\
             \"client_ops_completed\":{},\"heal_to_progress_ns\":{},\
             \"liveness_violations\":{},\"latency_budget_violations\":{},\
             \"trace_events_dropped\":{}}}",
            self.view_changes_started,
            self.view_changes_completed,
            self.checkpoints_stable,
            self.state_transfers_started,
            self.state_transfers_completed,
            self.recoveries_started,
            self.recoveries_completed,
            self.recoveries_overlapping_partition,
            self.corrupt_state_repairs,
            self.client_retransmits,
            self.quorum_degradations,
            self.client_ops_submitted,
            self.client_ops_completed,
            self.heal_to_progress_ns,
            self.liveness_violations,
            self.latency_budget_violations,
            self.trace_events_dropped
        )
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vc={}/{} ckpt={} st={}/{} rec={}/{} rec_part={} repairs={} retx={} degr={} \
             ops={}/{} heal_ms={} viol={} budget_viol={} dropped={}",
            self.view_changes_started,
            self.view_changes_completed,
            self.checkpoints_stable,
            self.state_transfers_started,
            self.state_transfers_completed,
            self.recoveries_started,
            self.recoveries_completed,
            self.recoveries_overlapping_partition,
            self.corrupt_state_repairs,
            self.client_retransmits,
            self.quorum_degradations,
            self.client_ops_submitted,
            self.client_ops_completed,
            self.heal_to_progress_ns / 1_000_000,
            self.liveness_violations,
            self.latency_budget_violations,
            self.trace_events_dropped
        )
    }
}

/// Outcome of a single run: the deterministic event trace plus final
/// network statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// One line per applied event plus harness-emitted lines.
    pub trace: Vec<String>,
    /// Final network statistics of the run.
    pub stats: NetStats,
    /// Protocol events recorded during the run (ring-buffered).
    pub events: Vec<TraceEvent>,
    /// Coverage counters derived from `events`.
    pub coverage: Coverage,
}

/// Capacity of the per-run trace ring buffer. Generous for campaign-sized
/// runs; long runs keep the most recent window, which is what failure
/// reports and coverage care about.
const RUN_TRACE_CAP: usize = 1 << 16;

/// Executes one schedule against a fresh simulation built by the harness,
/// recording protocol events into a [`RingBufferSink`] and deriving the
/// run's [`Coverage`] from them.
///
/// Network faults are added up front as [`Simulation::add_fault`] windows
/// (so they activate and heal purely by sim time); crash and app events are
/// applied at their scheduled instants. After the last event the run
/// continues for [`ChaosHarness::settle`] before the audit.
pub fn run_one<H: ChaosHarness>(
    harness: &mut H,
    seed: u64,
    schedule: &FaultSchedule,
) -> (RunOutcome, Result<(), String>) {
    let mut sim = harness.build(seed);
    sim.set_trace_sink(Box::new(RingBufferSink::new(RUN_TRACE_CAP)));
    let mut trace = Vec::new();

    for ev in &schedule.events {
        if let ChaosEvent::Net { fault, dur } = &ev.event {
            sim.add_fault(fault.clone(), ev.at, ev.at + *dur);
        }
    }

    for ev in schedule.sorted() {
        sim.run_until(ev.at);
        trace.push(ev.to_string());
        match &ev.event {
            ChaosEvent::Crash { node, down } => sim.crash(*node, *down),
            ChaosEvent::Net { .. } => {} // added above; activates by window
            ChaosEvent::App { node, tag, arg } => {
                harness.apply_app(&mut sim, *node, *tag, *arg, &mut trace);
            }
        }
    }

    let run_end = schedule.end() + harness.settle();
    sim.run_until(run_end);
    // Engine-level liveness bounds are audited first: a system that stalls
    // after its faults heal is reported as a liveness failure even when the
    // harness's own (safety-oriented) audit would also object.
    let events = sim.trace_snapshot();
    let trace_events_dropped = sim.trace_sink().dropped();
    let violations =
        audit_liveness_bounds(&events, schedule, &harness.liveness_bounds(), run_end);
    let budget_violations = match harness.latency_budget() {
        Some(budget) => audit_latency_budget(&events, schedule, budget),
        None => Vec::new(),
    };
    let verdict = match violations.first().or_else(|| budget_violations.first()) {
        Some(v) => {
            trace.push(format!("liveness: {v}"));
            Err(v.clone())
        }
        None => harness.audit(&mut sim, &mut trace),
    };
    if verdict.is_err() {
        trace.extend(harness.describe(&sim));
    }
    let mut coverage = Coverage::from_trace(&events, schedule);
    coverage.liveness_violations = violations.len() as u64;
    coverage.latency_budget_violations = budget_violations.len() as u64;
    coverage.trace_events_dropped = trace_events_dropped;
    trace.push(format!("coverage: {coverage}"));
    (RunOutcome { trace, stats: sim.stats().clone(), events, coverage }, verdict)
}

/// Greedy event-removal shrinking: repeatedly drops any event whose removal
/// keeps the audit failing, until no single removal does. The result is a
/// 1-minimal failing schedule for the given seed.
///
/// Candidate verdicts go through a [`crate::ddmin::TestCache`] pre-seeded
/// with the input schedule's known failure, so neither the already-failing
/// input nor any repeated candidate (duplicate events, later passes) is
/// ever executed twice. For subset-level ddmin minimization — usually far
/// fewer executions on large schedules — see [`crate::ddmin`].
pub fn minimize<H: ChaosHarness>(
    harness: &mut H,
    seed: u64,
    schedule: &FaultSchedule,
) -> FaultSchedule {
    let mut cache = crate::ddmin::TestCache::new();
    cache.insert_known_failure(schedule, None);
    let mut current = schedule.clone();
    loop {
        let mut shrunk = false;
        let mut idx = 0;
        while idx < current.len() {
            let candidate = current.without(idx);
            if cache.fails(harness, seed, &candidate) {
                current = candidate;
                shrunk = true;
                // Same index now names the next event; don't advance.
            } else {
                idx += 1;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

/// Kinds of application faults a generated schedule may include.
#[derive(Debug, Clone)]
pub struct AppFaultSpec {
    /// Tag passed to [`ChaosHarness::apply_app`].
    pub tag: u32,
    /// Args are drawn uniformly from `0..arg_max`.
    pub arg_max: u64,
    /// Whether a node under this fault counts as impaired (against the
    /// `max_impaired` budget).
    pub impairs: bool,
    /// If set, a healing event with this tag is scheduled `heal_after`
    /// later on the same node, ending the impairment.
    pub heal: Option<HealSpec>,
}

/// Healing companion for an [`AppFaultSpec`].
#[derive(Debug, Clone)]
pub struct HealSpec {
    /// Tag of the healing event.
    pub tag: u32,
    /// Delay between the fault and its healing event.
    pub after: SimDuration,
}

/// Parameters for random schedule generation.
#[derive(Debug, Clone)]
pub struct ScheduleGenConfig {
    /// Nodes eligible for faults (typically the replica set).
    pub nodes: Vec<NodeId>,
    /// Maximum number of *distinct* nodes simultaneously impaired (crash,
    /// partition, heavy corruption, or an impairing app fault). For BFT
    /// replica sets this is `f`.
    pub max_impaired: usize,
    /// Events are scheduled in `[0, horizon)`.
    pub horizon: SimDuration,
    /// Number of events to attempt (events that would exceed the
    /// impairment budget are skipped, so fewer may be produced).
    pub events: usize,
    /// Application fault vocabulary; may be empty.
    pub app_faults: Vec<AppFaultSpec>,
}

/// Inclusive-start/exclusive-end impairment interval on one node.
struct Impairment {
    node: NodeId,
    from: SimTime,
    until: SimTime,
}

fn budget_allows(
    existing: &[Impairment],
    candidate: &Impairment,
    max_impaired: usize,
) -> bool {
    // Count distinct impaired nodes at every boundary instant inside the
    // candidate's window; intervals are few, so brute force is fine.
    let mut instants: Vec<SimTime> = vec![candidate.from];
    for i in existing {
        if i.from > candidate.from && i.from < candidate.until {
            instants.push(i.from);
        }
    }
    for t in instants {
        let mut nodes: Vec<NodeId> = existing
            .iter()
            .filter(|i| i.from <= t && t < i.until)
            .map(|i| i.node)
            .collect();
        nodes.push(candidate.node);
        nodes.sort_unstable_by_key(|n| n.0);
        nodes.dedup();
        if nodes.len() > max_impaired {
            return false;
        }
    }
    true
}

/// Generates a random schedule under the impairment budget. Deterministic
/// in (`cfg`, `seed`).
pub fn generate_schedule(cfg: &ScheduleGenConfig, seed: u64) -> FaultSchedule {
    assert!(!cfg.nodes.is_empty(), "schedule generation needs candidate nodes");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0_5c4a_05c4_a05c);
    let mut schedule = FaultSchedule::new();
    let mut impairments: Vec<Impairment> = Vec::new();
    let horizon = cfg.horizon.as_nanos();

    for _ in 0..cfg.events {
        let at = SimTime::from_nanos(rng.gen_range(0..horizon));
        let node = cfg.nodes[rng.gen_range(0..cfg.nodes.len())];
        let dur = SimDuration::from_nanos(rng.gen_range(horizon / 20..horizon / 4));
        let kind = rng.gen_range(0..5usize);
        match kind {
            // Crash window.
            0 => {
                let candidate = Impairment { node, from: at, until: at + dur };
                if budget_allows(&impairments, &candidate, cfg.max_impaired) {
                    schedule.crash(at, node, dur);
                    impairments.push(candidate);
                }
            }
            // Application fault (if any are configured).
            1 if !cfg.app_faults.is_empty() => {
                let spec = &cfg.app_faults[rng.gen_range(0..cfg.app_faults.len())];
                let arg = if spec.arg_max > 0 { rng.gen_range(0..spec.arg_max) } else { 0 };
                let until = match &spec.heal {
                    Some(h) => at + h.after,
                    // Permanent faults impair through the horizon.
                    None => SimTime::from_nanos(horizon) + SimDuration::from_secs(3600),
                };
                let candidate = Impairment { node, from: at, until };
                if !spec.impairs || budget_allows(&impairments, &candidate, cfg.max_impaired) {
                    schedule.app(at, node, spec.tag, arg);
                    if let Some(h) = &spec.heal {
                        schedule.app(at + h.after, node, h.tag, 0);
                    }
                    if spec.impairs {
                        impairments.push(candidate);
                    }
                }
            }
            // Single-node partition (heals with its window).
            2 => {
                let candidate = Impairment { node, from: at, until: at + dur };
                if budget_allows(&impairments, &candidate, cfg.max_impaired) {
                    schedule.net(at, NetFault::Partition { nodes: vec![node] }, dur);
                    impairments.push(candidate);
                }
            }
            // Outbound corruption: impairing while active (an honest node
            // whose traffic is mangled is indistinguishable from faulty).
            3 => {
                let candidate = Impairment { node, from: at, until: at + dur };
                if budget_allows(&impairments, &candidate, cfg.max_impaired) {
                    let prob = 0.05 + rng.gen::<f64>() * 0.5;
                    schedule.net(at, NetFault::Corrupt { from: node, prob }, dur);
                    impairments.push(candidate);
                }
            }
            // Slow link or duplication: annoying but not impairing.
            _ => {
                if rng.gen_bool(0.5) {
                    let to = cfg.nodes[rng.gen_range(0..cfg.nodes.len())];
                    if to != node {
                        let extra = SimDuration::from_millis(rng.gen_range(5..60));
                        schedule.net(at, NetFault::Slow { from: node, to, extra }, dur);
                    }
                } else {
                    let prob = 0.05 + rng.gen::<f64>() * 0.3;
                    schedule.net(at, NetFault::Duplicate { prob }, dur);
                }
            }
        }
    }
    schedule
}

/// Generates a primary-targeting "view-change storm": waves of crash or
/// partition windows that chase the expected primary through the view
/// rotation (views advance by one per forced change, and the primary of
/// view `v` is `nodes[v % n]`), so every run forces repeated view changes.
///
/// Uses `cfg.events` as the wave count and spreads the waves across
/// `cfg.horizon`; each wave impairs exactly one node and heals before the
/// next starts, so the `max_impaired >= 1` budget always holds.
/// Deterministic in (`cfg`, `seed`).
pub fn generate_storm_schedule(cfg: &ScheduleGenConfig, seed: u64) -> FaultSchedule {
    assert!(!cfg.nodes.is_empty(), "storm generation needs candidate nodes");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5701_4c5a_57c4_a05c);
    let mut schedule = FaultSchedule::new();
    let n = cfg.nodes.len();
    let waves = cfg.events.max(1) as u64;
    let slot = (cfg.horizon.as_nanos() / waves).max(2);
    for wave in 0..waves {
        // Expected view at wave start: one completed change per past wave.
        let primary = cfg.nodes[(wave as usize) % n];
        let at = SimTime::from_nanos(wave * slot + rng.gen_range(0..slot / 4));
        // Heal strictly inside the slot so waves never overlap.
        let down = SimDuration::from_nanos(rng.gen_range(slot / 3..slot / 2));
        if rng.gen_bool(0.5) {
            schedule.crash(at, primary, down);
        } else {
            schedule.net(at, NetFault::Partition { nodes: vec![primary] }, down);
        }
    }
    schedule
}

/// One failing run: the seed, the full and minimized schedules, the audit
/// failure, the trace of the minimized replay, and the repro-lab outputs —
/// ddmin search counters plus the full-vs-minimal trace divergence.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Seed of the failing run (replays both schedules exactly).
    pub seed: u64,
    /// The audit failure message.
    pub reason: String,
    /// The full generated schedule that failed.
    pub schedule: FaultSchedule,
    /// The 1-minimal shrunk schedule that still fails.
    pub minimal: FaultSchedule,
    /// Event trace of the minimal schedule's replay.
    pub minimal_trace: Vec<String>,
    /// Protocol events recorded during the minimal schedule's replay
    /// (exportable with [`crate::trace::export_jsonl`]).
    pub minimal_events: Vec<TraceEvent>,
    /// Divergence report between the full run's protocol trace and the
    /// minimal run's (see [`crate::tracediff`]): where behaviour first
    /// changed once the decoy faults were stripped.
    pub divergence: String,
    /// ddmin search counters (`ddmin.executions`, `ddmin.cache_hits`,
    /// `ddmin.subset_tests`, `ddmin.shrink_tests`, `ddmin.sweep_tests`).
    pub ddmin_metrics: crate::metrics::MetricsRegistry,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "campaign failure: {}", self.reason)?;
        writeln!(f, "  seed: {}", self.seed)?;
        writeln!(f, "  schedule ({} events):", self.schedule.len())?;
        writeln!(f, "{}", self.schedule.describe())?;
        writeln!(f, "  minimal reproduction ({} events):", self.minimal.len())?;
        writeln!(f, "{}", self.minimal.describe())?;
        writeln!(
            f,
            "  ddmin: executions={} cache_hits={} subset_tests={} shrink_tests={} sweep_tests={}",
            self.ddmin_metrics.counter("ddmin.executions"),
            self.ddmin_metrics.counter("ddmin.cache_hits"),
            self.ddmin_metrics.counter("ddmin.subset_tests"),
            self.ddmin_metrics.counter("ddmin.shrink_tests"),
            self.ddmin_metrics.counter("ddmin.sweep_tests")
        )?;
        for line in self.divergence.lines() {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// Aggregate result of a campaign.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Seeded runs executed.
    pub runs: usize,
    /// Total fault events applied across all runs.
    pub events_executed: usize,
    /// One report per failing run, already minimized.
    pub failures: Vec<FailureReport>,
    /// Coverage aggregated over all runs.
    pub coverage: Coverage,
    /// Per-seed coverage, in seed order (the summary's seed table).
    pub seed_coverage: Vec<(u64, Coverage)>,
    /// Runs that forced at least one view change.
    pub runs_with_view_change: usize,
    /// Runs that completed at least one state transfer.
    pub runs_with_state_transfer: usize,
    /// Runs that completed at least one proactive recovery.
    pub runs_with_recovery: usize,
    /// Runs that completed at least one client op after the last fault
    /// healed (i.e. runs where the heal-to-progress bound was exercised).
    pub runs_with_post_heal_progress: usize,
}

impl CampaignReport {
    /// True when every run passed its audit.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    fn absorb(&mut self, seed: u64, schedule_len: usize, coverage: Coverage) {
        self.runs += 1;
        self.events_executed += schedule_len;
        self.coverage.merge(&coverage);
        self.seed_coverage.push((seed, coverage));
        if coverage.view_changes_started > 0 {
            self.runs_with_view_change += 1;
        }
        if coverage.state_transfers_completed > 0 {
            self.runs_with_state_transfer += 1;
        }
        if coverage.recoveries_completed > 0 {
            self.runs_with_recovery += 1;
        }
        if coverage.heal_to_progress_ns > 0 {
            self.runs_with_post_heal_progress += 1;
        }
    }

    /// The seed table plus the campaign-level coverage totals, as printed
    /// by the acceptance campaigns.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  seed  vc_start vc_done ckpt st_done rec_done rec_part repairs heal_ms viol"
        );
        for (seed, c) in &self.seed_coverage {
            let _ = writeln!(
                out,
                "  {seed:>4}  {:>8} {:>7} {:>4} {:>7} {:>8} {:>8} {:>7} {:>7} {:>4}",
                c.view_changes_started,
                c.view_changes_completed,
                c.checkpoints_stable,
                c.state_transfers_completed,
                c.recoveries_completed,
                c.recoveries_overlapping_partition,
                c.corrupt_state_repairs,
                c.heal_to_progress_ns / 1_000_000,
                c.liveness_violations
            );
        }
        let _ = writeln!(
            out,
            "  campaign: runs={} events={} failures={} with_vc={} with_st={} with_rec={} \
             with_heal={}",
            self.runs,
            self.events_executed,
            self.failures.len(),
            self.runs_with_view_change,
            self.runs_with_state_transfer,
            self.runs_with_recovery,
            self.runs_with_post_heal_progress
        );
        let _ = write!(out, "  coverage: {}", self.coverage);
        out
    }

    /// Deterministic JSON rendering of the coverage summary (written as a
    /// CI artifact by the acceptance campaigns).
    pub fn coverage_json(&self) -> String {
        let mut out = format!(
            "{{\"runs\":{},\"events_executed\":{},\"failures\":{},\
             \"runs_with_view_change\":{},\"runs_with_state_transfer\":{},\
             \"runs_with_recovery\":{},\"runs_with_post_heal_progress\":{},\
             \"coverage\":{},\"seeds\":[",
            self.runs,
            self.events_executed,
            self.failures.len(),
            self.runs_with_view_change,
            self.runs_with_state_transfer,
            self.runs_with_recovery,
            self.runs_with_post_heal_progress,
            self.coverage.to_json()
        );
        for (i, (seed, c)) in self.seed_coverage.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"seed\":{},\"coverage\":{}}}", seed, c.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Writes [`coverage_json`](Self::coverage_json) to
    /// `target/chaos-coverage/<name>.json` under the workspace root, where
    /// CI picks it up, then holds the acceptance campaign `name` to what its
    /// coverage must show. Each of these is an error naming the campaign and
    /// the field:
    /// - a write that fails;
    /// - no forced view change: a campaign that never unseats a primary is
    ///   not exercising the paper's recovery machinery, whatever its pass
    ///   rate says;
    /// - a liveness violation: a passing campaign with one means auditor
    ///   verdicts are dropped;
    /// - a dropped trace event: evictions undercount coverage and truncate
    ///   span graphs;
    /// - a submitted client op that never completed, or none completed.
    pub fn write_coverage(&self, name: &str) -> Result<(), String> {
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos-coverage");
        let path = dir.join(format!("{name}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, self.coverage_json()))
            .map_err(|e| format!("cannot write coverage artifact {}: {e}", path.display()))?;
        let c = &self.coverage;
        let fail = |field: &str, what: String| Err(format!("campaign {name}: {field} {what}"));
        if c.view_changes_started == 0 {
            return fail("view_changes_started", "is 0: it forced no view change".into());
        }
        if c.liveness_violations > 0 {
            return fail("liveness_violations", format!("is {}", c.liveness_violations));
        }
        if c.trace_events_dropped > 0 {
            return fail("trace_events_dropped", format!("is {}", c.trace_events_dropped));
        }
        if c.client_ops_completed == 0 || c.client_ops_completed != c.client_ops_submitted {
            return fail(
                "client_ops_completed",
                format!("is {} of {} submitted", c.client_ops_completed, c.client_ops_submitted),
            );
        }
        Ok(())
    }
}

/// How a campaign derives each seed's schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CampaignMode {
    /// Mixed random faults under the impairment budget
    /// ([`generate_schedule`]).
    #[default]
    Mixed,
    /// Primary-targeting view-change storms ([`generate_storm_schedule`]).
    Storm,
}

fn schedule_for(mode: CampaignMode, cfg: &ScheduleGenConfig, seed: u64) -> FaultSchedule {
    match mode {
        CampaignMode::Mixed => generate_schedule(cfg, seed),
        CampaignMode::Storm => generate_storm_schedule(cfg, seed),
    }
}

/// Events of context shown on each side of a campaign failure's trace
/// divergence, per replica.
pub const DIVERGENCE_WINDOW: usize = 3;

/// Runs one seed end to end: schedule generation, the audited run, and on
/// failure ddmin minimization plus full-vs-minimal trace divergence. The
/// known-failing run seeds the minimizer's cache, so neither the full nor
/// the final minimal schedule is ever executed redundantly.
fn run_seed<H: ChaosHarness>(
    harness: &mut H,
    mode: CampaignMode,
    cfg: &ScheduleGenConfig,
    seed: u64,
) -> (usize, Coverage, Option<FailureReport>) {
    let schedule = schedule_for(mode, cfg, seed);
    let (outcome, verdict) = run_one(harness, seed, &schedule);
    let failure = verdict.err().map(|reason| {
        let dd = crate::ddmin::ddmin_from_failure(harness, seed, &schedule, Some(&outcome));
        let divergence = crate::tracediff::divergence_report(
            &outcome.events,
            &dd.outcome.events,
            DIVERGENCE_WINDOW,
            "full",
            "minimal",
        );
        FailureReport {
            seed,
            reason,
            schedule: schedule.clone(),
            minimal: dd.schedule,
            minimal_trace: dd.outcome.trace,
            minimal_events: dd.outcome.events,
            divergence,
            ddmin_metrics: dd.metrics,
        }
    });
    (schedule.len(), outcome.coverage, failure)
}

/// Drives one audited, seeded run per seed in `seeds`, deriving each run's
/// schedule from the seed by `mode`, and minimizes every failing schedule.
///
/// Runs on a pool of `workers` std threads, each with its own harness (from
/// `factory`) and therefore its own `Simulation` per run. Seeds are claimed
/// from a shared queue; results land in per-seed slots and are folded **in
/// seed order**, so the report — coverage, seed table, failures — is
/// byte-identical no matter how many workers execute it.
pub fn run_campaign<H, F>(
    factory: F,
    mode: CampaignMode,
    cfg: &ScheduleGenConfig,
    seeds: impl IntoIterator<Item = u64>,
    workers: usize,
) -> CampaignReport
where
    H: ChaosHarness,
    F: Fn() -> H + Sync,
{
    let seeds: Vec<u64> = seeds.into_iter().collect();
    let workers = workers.max(1).min(seeds.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<(usize, Coverage, Option<FailureReport>)>>> =
        Mutex::new(vec![None; seeds.len()]);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut harness = factory();
                loop {
                    let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if idx >= seeds.len() {
                        break;
                    }
                    let result = run_seed(&mut harness, mode, cfg, seeds[idx]);
                    slots.lock().expect("campaign worker panicked")[idx] = Some(result);
                }
            });
        }
    });

    let mut report = CampaignReport::default();
    let results = slots.into_inner().expect("campaign worker panicked");
    for (idx, slot) in results.into_iter().enumerate() {
        let (len, coverage, failure) = slot.expect("every seed ran");
        report.absorb(seeds[idx], len, coverage);
        report.failures.extend(failure);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Actor, Context};

    /// Toy system: every node pings every other node each 10ms; pongs are
    /// counted. The audit requires each node to have seen pongs from every
    /// peer after the run settles (liveness through healed faults).
    struct Pinger {
        id: NodeId,
        peers: Vec<NodeId>,
        pongs: Vec<u64>,
    }

    impl Actor for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 1);
        }

        fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
            match payload {
                b"ping" => ctx.send(from, b"pong".to_vec()),
                b"pong" => self.pongs[from.0 as usize] += 1,
                _ => {}
            }
        }

        fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
            for &p in &self.peers {
                if p != self.id {
                    ctx.send(p, b"ping".to_vec());
                }
            }
            ctx.set_timer(SimDuration::from_millis(10), 1);
        }
    }

    struct PingHarness {
        n: usize,
    }

    impl ChaosHarness for PingHarness {
        fn build(&mut self, seed: u64) -> Simulation {
            let mut sim = Simulation::new(seed);
            let peers: Vec<NodeId> = (0..self.n).map(NodeId).collect();
            for id in &peers {
                sim.add_node(Box::new(Pinger {
                    id: *id,
                    peers: peers.clone(),
                    pongs: vec![0; self.n as usize],
                }));
            }
            sim
        }

        fn apply_app(
            &mut self,
            _sim: &mut Simulation,
            node: NodeId,
            tag: u32,
            arg: u64,
            trace: &mut Vec<String>,
        ) {
            trace.push(format!("applied tag={} arg={} at {}", tag, arg, node.0));
        }

        fn settle(&self) -> SimDuration {
            SimDuration::from_secs(2)
        }

        fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
            for id in 0..self.n {
                let p = sim.actor_as::<Pinger>(NodeId(id)).expect("pinger");
                for (peer, &count) in p.pongs.iter().enumerate() {
                    if peer != id && count == 0 {
                        return Err(format!("node {id} never heard from {peer}"));
                    }
                }
            }
            trace.push("audit ok".into());
            Ok(())
        }
    }

    fn gen_cfg() -> ScheduleGenConfig {
        ScheduleGenConfig {
            nodes: (0..4usize).map(NodeId).collect(),
            max_impaired: 1,
            horizon: SimDuration::from_secs(4),
            events: 6,
            app_faults: vec![AppFaultSpec { tag: 7, arg_max: 3, impairs: false, heal: None }],
        }
    }

    fn ping_campaign(seeds: std::ops::Range<u64>, workers: usize) -> CampaignReport {
        run_campaign(|| PingHarness { n: 4 }, CampaignMode::Mixed, &gen_cfg(), seeds, workers)
    }

    #[test]
    fn healed_faults_preserve_liveness() {
        let report = ping_campaign(0..10, 1);
        assert_eq!(report.runs, 10);
        assert!(report.events_executed > 0, "campaign generated no events");
        for f in &report.failures {
            panic!("unexpected failure:\n{f}");
        }
    }

    #[test]
    fn same_seed_same_trace_and_stats() {
        let mut h = PingHarness { n: 4 };
        let schedule = generate_schedule(&gen_cfg(), 42);
        let (a, va) = run_one(&mut h, 42, &schedule);
        let (b, vb) = run_one(&mut h, 42, &schedule);
        assert_eq!(a, b);
        assert_eq!(va, vb);
    }

    /// A partition of two nodes cuts them off from the rest, not from each
    /// other.
    #[test]
    fn a_group_partition_keeps_its_members_connected() {
        /// Pings among three nodes; the audit records who heard from whom.
        struct Reach(PingHarness);
        impl ChaosHarness for Reach {
            fn build(&mut self, seed: u64) -> Simulation {
                self.0.build(seed)
            }
            fn apply_app(
                &mut self,
                _: &mut Simulation,
                _: NodeId,
                _: u32,
                _: u64,
                _: &mut Vec<String>,
            ) {
            }
            // The run ends as the partition heals, so every pong counted
            // crossed the network while it was in force.
            fn settle(&self) -> SimDuration {
                SimDuration::ZERO
            }
            fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
                for id in 0..self.0.n {
                    let p = sim.actor_as::<Pinger>(NodeId(id)).expect("pinger");
                    let heard: Vec<usize> = (0..self.0.n).filter(|&i| p.pongs[i] > 0).collect();
                    trace.push(format!("node {id} heard from {heard:?}"));
                }
                Ok(())
            }
        }
        let mut schedule = FaultSchedule::new();
        schedule.net(
            SimTime::ZERO,
            NetFault::Partition { nodes: vec![NodeId(0), NodeId(1)] },
            SimDuration::from_millis(500),
        );
        let (outcome, _) = run_one(&mut Reach(PingHarness { n: 3 }), 1, &schedule);
        for line in ["node 0 heard from [1]", "node 1 heard from [0]", "node 2 heard from []"] {
            assert!(outcome.trace.iter().any(|l| l == line), "no {line:?} in {:#?}", outcome.trace);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = gen_cfg();
        assert_eq!(generate_schedule(&cfg, 5), generate_schedule(&cfg, 5));
        assert_ne!(generate_schedule(&cfg, 5), generate_schedule(&cfg, 6));
    }

    #[test]
    fn storm_schedules_chase_the_primary_rotation() {
        let cfg = gen_cfg();
        let storm = generate_storm_schedule(&cfg, 3);
        assert_eq!(storm, generate_storm_schedule(&cfg, 3));
        assert_eq!(storm.len(), cfg.events);
        for (wave, ev) in storm.events.iter().enumerate() {
            let expected = cfg.nodes[wave % cfg.nodes.len()];
            let target = match &ev.event {
                ChaosEvent::Crash { node, .. } => *node,
                ChaosEvent::Net { fault: NetFault::Partition { nodes }, .. } => nodes[0],
                other => panic!("storm produced non-primary fault {other:?}"),
            };
            assert_eq!(target, expected, "wave {wave} missed the expected primary");
        }
        // Waves never overlap: one impaired node at a time.
        let mut windows: Vec<(SimTime, SimTime)> = storm
            .events
            .iter()
            .map(|e| match &e.event {
                ChaosEvent::Crash { down, .. } => (e.at, e.at + *down),
                ChaosEvent::Net { dur, .. } => (e.at, e.at + *dur),
                _ => unreachable!(),
            })
            .collect();
        windows.sort();
        for pair in windows.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "storm waves overlap: {windows:?}");
        }
    }

    /// One worker runs the seeds in order on one harness, as a sequential
    /// loop would; any other worker count must report the same bytes.
    #[test]
    fn parallel_campaign_matches_sequential() {
        let seq = ping_campaign(0..8, 1);
        assert!(seq.passed());
        for workers in [3, 8] {
            let par = ping_campaign(0..8, workers);
            assert_eq!(par.runs, seq.runs);
            assert_eq!(par.events_executed, seq.events_executed);
            assert_eq!(par.seed_coverage, seq.seed_coverage);
            assert_eq!(par.coverage, seq.coverage);
            assert_eq!(par.coverage_json(), seq.coverage_json());
            assert_eq!(par.summary(), seq.summary());
            assert!(par.passed());
        }
    }

    #[test]
    fn write_coverage_holds_the_acceptance_conditions() {
        let name = "write_coverage_unit_test";
        let good = Coverage {
            view_changes_started: 2,
            client_ops_submitted: 5,
            client_ops_completed: 5,
            ..Coverage::default()
        };
        let report = |coverage| CampaignReport { runs: 1, coverage, ..CampaignReport::default() };
        assert_eq!(report(good).write_coverage(name), Ok(()));
        for (field, bad) in [
            ("view_changes_started", Coverage { view_changes_started: 0, ..good }),
            ("liveness_violations", Coverage { liveness_violations: 1, ..good }),
            ("trace_events_dropped", Coverage { trace_events_dropped: 1, ..good }),
            ("client_ops_completed", Coverage { client_ops_completed: 4, ..good }),
        ] {
            let err = report(bad).write_coverage(name).expect_err(field);
            assert!(err.contains(name) && err.contains(field), "{field}: {err}");
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../../target/chaos-coverage/{name}.json"));
        std::fs::remove_file(path).expect("write_coverage wrote its artifact");
    }

    #[test]
    fn budget_never_exceeded() {
        let cfg = ScheduleGenConfig { events: 40, ..gen_cfg() };
        for seed in 0..50 {
            let schedule = generate_schedule(&cfg, seed);
            // Rebuild the impairment set and re-check pairwise overlap.
            let mut intervals: Vec<(NodeId, SimTime, SimTime)> = Vec::new();
            for ev in &schedule.events {
                match &ev.event {
                    ChaosEvent::Crash { node, down } => {
                        intervals.push((*node, ev.at, ev.at + *down));
                    }
                    ChaosEvent::Net { fault: NetFault::Partition { nodes }, dur } => {
                        for n in nodes {
                            intervals.push((*n, ev.at, ev.at + *dur));
                        }
                    }
                    ChaosEvent::Net { fault: NetFault::Corrupt { from, .. }, dur } => {
                        intervals.push((*from, ev.at, ev.at + *dur));
                    }
                    _ => {}
                }
            }
            for (i, a) in intervals.iter().enumerate() {
                for b in intervals.iter().skip(i + 1) {
                    if a.0 != b.0 && a.1 < b.2 && b.1 < a.2 {
                        panic!("seed {seed}: two distinct nodes impaired at once");
                    }
                }
            }
        }
    }

    /// A deliberately broken harness (audit always fails when any crash
    /// event is present) shrinks to a single-event schedule.
    struct CrashSensitive {
        inner: PingHarness,
        saw_crash: bool,
    }

    impl ChaosHarness for CrashSensitive {
        fn build(&mut self, seed: u64) -> Simulation {
            self.saw_crash = false;
            self.inner.build(seed)
        }

        fn apply_app(
            &mut self,
            sim: &mut Simulation,
            node: NodeId,
            tag: u32,
            arg: u64,
            trace: &mut Vec<String>,
        ) {
            self.inner.apply_app(sim, node, tag, arg, trace);
        }

        fn settle(&self) -> SimDuration {
            SimDuration::from_millis(100)
        }

        fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
            // "Bug": any crash at all is reported as a violation.
            let crashed = trace.iter().any(|l| l.contains("crash node"));
            let _ = sim;
            if crashed {
                Err("crash intolerance bug".into())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn minimizer_reduces_to_single_trigger() {
        let mut h = CrashSensitive { inner: PingHarness { n: 4 }, saw_crash: false };
        let mut schedule = FaultSchedule::new();
        schedule
            .crash(SimTime::from_millis(50), NodeId(1), SimDuration::from_millis(100))
            .net(
                SimTime::from_millis(10),
                NetFault::Duplicate { prob: 0.2 },
                SimDuration::from_millis(500),
            )
            .net(
                SimTime::from_millis(200),
                NetFault::Partition { nodes: vec![NodeId(2)] },
                SimDuration::from_millis(100),
            )
            .app(SimTime::from_millis(400), NodeId(3), 7, 1);
        let (_, verdict) = run_one(&mut h, 9, &schedule);
        assert!(verdict.is_err());
        let minimal = minimize(&mut h, 9, &schedule);
        assert_eq!(minimal.len(), 1, "expected single-event reproduction:\n{}", minimal.describe());
        assert!(matches!(minimal.events[0].event, ChaosEvent::Crash { node: NodeId(1), .. }));
    }
}
