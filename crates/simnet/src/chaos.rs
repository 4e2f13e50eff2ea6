//! Chaos campaigns: declarative, seeded fault schedules executed over many
//! simulation runs, with delta-debugging schedule minimization for failing
//! runs.
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
//! shrinking any failing schedule with
//! [`ddmin_from_failure`](crate::ddmin::ddmin_from_failure) so the report
//! carries a minimal replayable reproduction (seed + schedule). The greedy
//! [`minimize`] stays as the reference that ddmin is tested against.
//!
//! Everything is deterministic: the same seed and schedule produce the same
//! trace and the same [`NetStats`], which the determinism tests assert.

use crate::faults::NetFault;
use crate::span::{export_perfetto, Timeline};
use crate::trace::{export_jsonl, EventKind, Trace, TraceEvent};
use crate::{NetStats, NodeId, SimDuration, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
// `u64::add` is the `add` merge rule of `coverage_counters!`.
use std::ops::Add;
use std::path::{Path, PathBuf};
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

    /// The liveness deadline the engine enforces on every run, measured
    /// from the instant the last scheduled fault heals
    /// ([`FaultSchedule::end`]); see [`audit_liveness`]. `None` (the
    /// default) disables it. It must not exceed [`settle`](Self::settle),
    /// or pending work cannot be told from work the run did not wait for.
    fn liveness_bound(&self) -> Option<SimDuration> {
        None
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

/// Checks a run's timeline against the liveness `bound`, returning one
/// message per violation. Three clauses share the bound:
/// - heal-to-progress: every client op completes within `bound` of the
///   later of its submission and the heal; late completions are reported
///   in completion order, then each client still holding pending ops, in
///   node order;
/// - view-convergence: no replica starts a view change more than `bound`
///   after the heal;
/// - recovery-duration: every recovery finishes within `bound` of its
///   start; completed recoveries in completion order, then open ones.
///
/// Empty means live. `run_end` is how far the run actually simulated:
/// pending-work checks only fire when the run waited out the relevant
/// deadline, so a short settle window can never manufacture a violation.
pub fn audit_liveness(
    timeline: &Timeline,
    schedule: &FaultSchedule,
    bound: SimDuration,
    run_end: SimTime,
) -> Vec<String> {
    let heal_at = schedule.end();
    let bound_ms = bound.as_millis();
    let mut violations = Vec::new();

    let mut late: Vec<(SimTime, NodeId)> = timeline
        .ops
        .iter()
        .filter_map(|op| {
            let completed = op.completed?;
            (completed > op.submitted.max(heal_at) + bound).then_some((completed, op.client))
        })
        .collect();
    late.sort_by_key(|(completed, _)| *completed);
    for (completed, node) in late {
        violations.push(format!(
            "heal-to-progress: node {} completed an op {}ms after the last fault healed \
             (bound {bound_ms}ms)",
            node.0,
            (completed - heal_at).as_millis(),
        ));
    }
    if run_end >= heal_at + bound {
        let mut pending: BTreeMap<NodeId, usize> = BTreeMap::new();
        for op in timeline.ops.iter().filter(|op| op.completed.is_none()) {
            *pending.entry(op.client).or_default() += 1;
        }
        for (node, count) in pending {
            violations.push(format!(
                "heal-to-progress: node {} still has {count} pending op(s) {}ms after the last \
                 fault healed (bound {bound_ms}ms)",
                node.0,
                (run_end - heal_at).as_millis(),
            ));
        }
    }

    for vc in timeline.view_changes.iter().filter(|vc| vc.at > heal_at + bound) {
        violations.push(format!(
            "view-convergence: node {} started a view change (v{}) {}ms after the last fault \
             healed (bound {bound_ms}ms)",
            vc.node.0,
            vc.view,
            (vc.at - heal_at).as_millis(),
        ));
    }

    for rec in &timeline.recoveries {
        match rec.completed {
            Some(completed) if completed > rec.started + bound => violations.push(format!(
                "recovery-duration: node {}'s recovery took {}ms (bound {bound_ms}ms)",
                rec.node.0,
                (completed - rec.started).as_millis(),
            )),
            None if run_end >= rec.started + bound => violations.push(format!(
                "recovery-duration: node {}'s recovery still incomplete {}ms after it began \
                 (bound {bound_ms}ms)",
                rec.node.0,
                (run_end - rec.started).as_millis(),
            )),
            _ => {}
        }
    }

    violations
}

/// Checks every post-heal operation's critical path against a per-op
/// latency budget, returning one message per violation in submission order.
///
/// Only operations submitted at or after the heal instant are held to the
/// budget (ops straddling a fault window are expected to be slow — that is
/// the liveness auditor's turf). Each violation names the dominant
/// critical-path phase, so a minimized repro immediately says *where* the
/// time went.
pub fn audit_latency_budget(
    timeline: &Timeline,
    schedule: &FaultSchedule,
    budget: SimDuration,
) -> Vec<String> {
    let heal_at = schedule.end();
    let mut violations = Vec::new();
    for span in &timeline.ops {
        if span.submitted < heal_at {
            continue;
        }
        let Some(latency_ns) = span.latency_ns() else { continue };
        if latency_ns <= budget.as_nanos() {
            continue;
        }
        let ((phase, _), phase_ns) = crate::span::PHASES
            .iter()
            .zip(span.segments)
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

/// Declares [`Coverage`] once: each counter with its doc and the rule
/// campaign aggregation merges it by (`add`, or `max` for a worst case).
/// The struct, [`Coverage::merge`] and [`Coverage::to_json`] derive from
/// the one list.
macro_rules! coverage_counters {
    (
        $(#[$meta:meta])*
        pub struct Coverage {
            $( $(#[doc = $doc:literal])* $field:ident: $rule:ident ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Coverage {
            $( $(#[doc = $doc])* pub $field: u64, )*
        }

        impl Coverage {
            /// Folds `other` into `self` (campaign aggregation), each
            /// counter by its rule.
            pub fn merge(&mut self, other: &Coverage) {
                $( self.$field = u64::$rule(self.$field, other.$field); )*
            }

            /// Deterministic single-line JSON rendering.
            pub fn to_json(&self) -> String {
                let fields = [$( format!("\"{}\":{}", stringify!($field), self.$field) ),*];
                format!("{{{}}}", fields.join(","))
            }
        }
    };
}

coverage_counters! {
    /// What a run actually exercised, derived from its [`Timeline`].
    /// Thin schedules — ones that never force
    /// a view change or a state transfer — show up as zero rows in the
    /// campaign summary instead of silently passing.
    pub struct Coverage {
        /// View changes started (replicas moving to a higher view).
        view_changes_started: add,
        /// New-view certificates installed.
        view_changes_completed: add,
        /// Checkpoints that gathered a stable certificate.
        checkpoints_stable: add,
        /// State-transfer fetches started.
        state_transfers_started: add,
        /// State transfers that brought a replica up to date.
        state_transfers_completed: add,
        /// Proactive recoveries started.
        recoveries_started: add,
        /// Proactive recoveries completed.
        recoveries_completed: add,
        /// Completed recoveries whose window overlapped an active partition.
        recoveries_overlapping_partition: add,
        /// Completed recoveries that repaired corrupt concrete state.
        corrupt_state_repairs: add,
        /// Client retransmissions observed.
        client_retransmits: add,
        /// Read-only requests degraded to the full protocol.
        quorum_degradations: add,
        /// Client operations submitted (first transmissions).
        client_ops_submitted: add,
        /// Client operations that completed with a reply certificate.
        client_ops_completed: add,
        /// Worst post-heal completion latency: the latest client completion
        /// after the last fault healed, measured from the heal instant (zero
        /// when every op finished before heal). Campaign-level, it is the
        /// slowest post-heal completion seen across runs.
        heal_to_progress_ns: max,
        /// Liveness-bound violations charged to this run by the engine's
        /// [`audit_liveness`] pass (zero when the bound is disabled).
        liveness_violations: add,
        /// Latency-budget violations charged by [`audit_latency_budget`]
        /// (zero when the harness sets no budget).
        latency_budget_violations: add,
        /// Events evicted from the run's trace ring buffer. Non-zero means
        /// coverage counters (and span reconstruction) undercount —
        /// campaigns gate on this staying zero.
        trace_events_dropped: add,
    }
}

impl Coverage {
    /// What `timeline` exercised. The plain counts are raw event counts.
    /// A completed recovery overlaps a partition when its
    /// `[started, completed]` span intersects a partition window of
    /// `schedule`. The auditor and trace-ring counters start at zero;
    /// [`run_one`] fills them in.
    pub fn of(timeline: &Timeline, schedule: &FaultSchedule) -> Coverage {
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
        let count = |kind| timeline.count(kind);
        let recoveries = &timeline.recoveries;
        Coverage {
            view_changes_started: count(EventKind::ViewChangeStarted),
            view_changes_completed: count(EventKind::ViewChangeCompleted),
            checkpoints_stable: count(EventKind::CheckpointStable),
            state_transfers_started: count(EventKind::StateTransferFetchStarted),
            state_transfers_completed: count(EventKind::StateTransferFetchCompleted),
            recoveries_started: count(EventKind::RecoveryStarted),
            recoveries_completed: count(EventKind::RecoveryCompleted),
            recoveries_overlapping_partition: recoveries
                .iter()
                .filter_map(|r| Some((r.started, r.completed?)))
                .filter(|&(started, done)| {
                    partitions.iter().any(|&(from, until)| started < until && from < done)
                })
                .count() as u64,
            corrupt_state_repairs: recoveries.iter().filter(|r| r.repaired).count() as u64,
            client_retransmits: count(EventKind::ClientRetransmit),
            quorum_degradations: count(EventKind::ReplyQuorumDegraded),
            client_ops_submitted: count(EventKind::ClientOpSubmitted),
            client_ops_completed: count(EventKind::ClientOpCompleted),
            heal_to_progress_ns: timeline
                .last_completion
                .filter(|at| *at > heal_at)
                .map_or(0, |at| (at - heal_at).as_nanos()),
            ..Coverage::default()
        }
    }
}

/// The [`to_json`](Coverage::to_json) line.
impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
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
    /// Coverage counters derived from `events` (see [`Coverage::of`]).
    pub coverage: Coverage,
}

/// Capacity of the per-run trace ring buffer. Generous for campaign-sized
/// runs; long runs keep the most recent window, which is what failure
/// reports and coverage care about.
const RUN_TRACE_CAP: usize = 1 << 16;

/// Executes one schedule against a fresh simulation built by the harness,
/// recording protocol events into a [`Trace::ring`], reading them once as a
/// [`Timeline`] and deriving the run's verdicts and [`Coverage`] from it.
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
    sim.record_trace(Trace::ring(RUN_TRACE_CAP));
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
    let recorded = sim.trace().expect("installed above");
    let (events, trace_events_dropped) = (recorded.events(), recorded.dropped());
    let timeline = Timeline::of(&events);
    let violations = match harness.liveness_bound() {
        Some(bound) => audit_liveness(&timeline, schedule, bound, run_end),
        None => Vec::new(),
    };
    let budget_violations = match harness.latency_budget() {
        Some(budget) => audit_latency_budget(&timeline, schedule, budget),
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
    let mut coverage = Coverage::of(&timeline, schedule);
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

impl FailureReport {
    /// The repro files of this failure, by file suffix: the full and
    /// minimal schedules with the ddmin counters, the full-vs-minimal
    /// divergence, and the minimal run as JSONL (for offline `tracediff`)
    /// and as a span graph (open it in ui.perfetto.dev to see the failing
    /// op's critical path per node, no replay needed).
    fn artifacts(&self) -> [(&'static str, String); 4] {
        let schedule = format!(
            "seed: {}\nreason: {}\nfull schedule ({} events):\n{}\n\
             minimal schedule ({} events):\n{}\nddmin metrics:\n{}\n",
            self.seed,
            self.reason,
            self.schedule.len(),
            self.schedule.describe(),
            self.minimal.len(),
            self.minimal.describe(),
            self.ddmin_metrics.to_json()
        );
        let spans = Timeline::of(&self.minimal_events).ops;
        [
            ("schedule.txt", schedule),
            ("divergence.txt", format!("{}\n", self.divergence)),
            ("minimal.jsonl", export_jsonl(&self.minimal_events)),
            ("minimal.perfetto.json", export_perfetto(&self.minimal_events, &spans)),
        ]
    }
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
    }

    /// Runs whose coverage satisfies `exercised`, e.g. the runs that
    /// forced a view change.
    pub fn runs_with(&self, exercised: impl Fn(&Coverage) -> bool) -> usize {
        self.seed_coverage.iter().filter(|(_, c)| exercised(c)).count()
    }

    /// The runs that forced a view change, completed a state transfer,
    /// completed a recovery, and completed a client op after the last fault
    /// healed (so exercised the heal-to-progress bound).
    fn runs_exercising(&self) -> [usize; 4] {
        [
            self.runs_with(|c| c.view_changes_started > 0),
            self.runs_with(|c| c.state_transfers_completed > 0),
            self.runs_with(|c| c.recoveries_completed > 0),
            self.runs_with(|c| c.heal_to_progress_ns > 0),
        ]
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
        let [vc, st, rec, heal] = self.runs_exercising();
        let _ = writeln!(
            out,
            "  campaign: runs={} events={} failures={} with_vc={vc} with_st={st} with_rec={rec} \
             with_heal={heal}",
            self.runs,
            self.events_executed,
            self.failures.len(),
        );
        let _ = write!(out, "  coverage: {}", self.coverage);
        out
    }

    /// Deterministic JSON rendering of the coverage summary (written as a
    /// CI artifact by the acceptance campaigns).
    pub fn coverage_json(&self) -> String {
        let [vc, st, rec, heal] = self.runs_exercising();
        let mut out = format!(
            "{{\"runs\":{},\"events_executed\":{},\"failures\":{},\
             \"runs_with_view_change\":{vc},\"runs_with_state_transfer\":{st},\
             \"runs_with_recovery\":{rec},\"runs_with_post_heal_progress\":{heal},\
             \"coverage\":{},\"seeds\":[",
            self.runs,
            self.events_executed,
            self.failures.len(),
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

    /// Writes campaign `name`'s artifacts under `dir` (usually
    /// [`DEFAULT_ARTIFACT_DIR`], where CI picks them up), then holds the
    /// campaign to what an acceptance campaign must show. It writes
    /// `chaos-coverage/<name>.json` ([`coverage_json`](Self::coverage_json))
    /// and, for each failure, its four repro files
    /// `repro/<name>/seed<seed>.{schedule.txt,divergence.txt,minimal.jsonl,minimal.perfetto.json}`.
    /// Each of these is an error naming the campaign:
    /// - a write that fails;
    /// - a failing run: the error names the first failing seed and carries
    ///   its report, and a failed write only replaces where its repro went;
    /// - no forced view change: a campaign that never unseats a primary is
    ///   not exercising the paper's recovery machinery, whatever its pass
    ///   rate says;
    /// - a liveness violation: a passing campaign with one means auditor
    ///   verdicts are dropped;
    /// - a dropped trace event: evictions undercount coverage and truncate
    ///   span graphs;
    /// - a submitted client op that never completed, or none completed.
    pub fn write_artifacts(&self, dir: impl AsRef<Path>, name: &str) -> Result<(), String> {
        let dir = dir.as_ref();
        let write = |path: PathBuf, body: String| {
            let parent = path.parent().expect("an artifact lies in a directory");
            std::fs::create_dir_all(parent)
                .and_then(|()| std::fs::write(&path, body))
                .map_err(|e| format!("cannot write campaign artifact {}: {e}", path.display()))
        };
        let repro = dir.join("repro").join(name);
        let written = write(dir.join(format!("chaos-coverage/{name}.json")), self.coverage_json())
            .and_then(|()| {
                let mut files =
                    self.failures.iter().flat_map(|f| f.artifacts().map(|a| (f.seed, a)));
                files.try_for_each(|(seed, (suffix, body))| {
                    write(repro.join(format!("seed{seed}.{suffix}")), body)
                })
            });
        // A failing seed's report is never hidden behind a write error.
        if let Some(f) = self.failures.first() {
            let repro = match written {
                Ok(()) => format!("repro in {}", repro.display()),
                Err(e) => e,
            };
            return Err(format!(
                "campaign {name}: seed {} failed ({} of {} runs fail), {repro}\n{f}",
                f.seed,
                self.failures.len(),
                self.runs,
            ));
        }
        written?;
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

/// Where campaigns write their artifacts by default: the workspace's
/// `target/`.
pub const DEFAULT_ARTIFACT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");

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
const DIVERGENCE_WINDOW: usize = 3;

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
    use crate::ddmin::CrashThreshold;
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

    /// A scratch artifact directory for one test, emptied first.
    fn artifact_dir(test: &str) -> PathBuf {
        let dir = Path::new(DEFAULT_ARTIFACT_DIR).join("test-artifacts").join(test);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_coverage_holds_the_acceptance_conditions() {
        let (dir, name) = (artifact_dir("write_coverage"), "unit");
        let good = Coverage {
            view_changes_started: 2,
            client_ops_submitted: 5,
            client_ops_completed: 5,
            ..Coverage::default()
        };
        let report = |coverage| CampaignReport { runs: 1, coverage, ..CampaignReport::default() };
        assert_eq!(report(good).write_artifacts(&dir, name), Ok(()));
        assert!(dir.join("chaos-coverage/unit.json").is_file());
        for (field, bad) in [
            ("view_changes_started", Coverage { view_changes_started: 0, ..good }),
            ("liveness_violations", Coverage { liveness_violations: 1, ..good }),
            ("trace_events_dropped", Coverage { trace_events_dropped: 1, ..good }),
            ("client_ops_completed", Coverage { client_ops_completed: 4, ..good }),
        ] {
            let err = report(bad).write_artifacts(&dir, name).expect_err(field);
            assert!(err.contains(name) && err.contains(field), "{field}: {err}");
        }
        std::fs::remove_dir_all(dir).expect("the writer made its directory");
    }

    /// Every campaign ships its repro through one call: a failing seed
    /// leaves its four files beside the coverage, and the error names it.
    #[test]
    fn write_artifacts_ships_each_failures_repro() {
        let dir = artifact_dir("write_artifacts");
        // Seed 0's schedule crashes a node; seeds 1 and 2 crash none.
        let crash_intolerant = || CrashThreshold { inner: PingHarness { n: 4 }, threshold: 1 };
        let report = run_campaign(crash_intolerant, CampaignMode::Mixed, &gen_cfg(), 0..3, 1);
        let seeds: Vec<u64> = report.failures.iter().map(|f| f.seed).collect();
        assert_eq!(seeds, [0], "the planted failure");

        let err = report.write_artifacts(&dir, "pinger").expect_err("a failing campaign");
        assert!(err.starts_with("campaign pinger: seed 0 failed"), "{err}");
        assert!(dir.join("chaos-coverage/pinger.json").is_file());
        let mut files: Vec<String> = std::fs::read_dir(dir.join("repro/pinger"))
            .expect("the repro directory")
            .map(|e| e.expect("an entry").file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        let want = ["divergence.txt", "minimal.jsonl", "minimal.perfetto.json", "schedule.txt"];
        assert_eq!(files, want.map(|suffix| format!("seed0.{suffix}")));

        let passing = ping_campaign(0..1, 1);
        // The pingers force no view change, so the conditions still fail.
        let err = passing.write_artifacts(&dir, "quiet").expect_err("no view change");
        assert!(err.contains("view_changes_started"), "{err}");
        assert!(!dir.join("repro/quiet").exists(), "a passing campaign writes no repro");

        // A directory that cannot be made still leaves the seed's report.
        let blocked = dir.join("blocked");
        std::fs::write(&blocked, "").expect("a plain file");
        let err = report.write_artifacts(&blocked, "pinger").expect_err("an unwritable dir");
        assert!(err.starts_with("campaign pinger: seed 0 failed"), "{err}");
        assert!(err.contains("cannot write campaign artifact"), "{err}");
        assert!(err.contains("campaign failure:"), "the seed's report: {err}");
        std::fs::remove_dir_all(dir).expect("the writer made its directory");
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

    #[test]
    fn minimizer_reduces_to_single_trigger() {
        // A deliberately broken audit: any crash at all is a violation.
        let mut h = CrashThreshold { inner: PingHarness { n: 4 }, threshold: 1 };
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
