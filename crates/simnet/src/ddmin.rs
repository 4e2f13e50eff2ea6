//! Zeller-style delta debugging (ddmin) for fault schedules.
//!
//! The greedy [`minimize`](crate::chaos::minimize) drops one event at a
//! time, which costs one harness execution per candidate and per pass. For
//! large schedules ddmin converges much faster: it tests event *subsets*
//! (halves, then quarters, …) and their *complements*, discarding many
//! events per failing test, and only degrades to single-event granularity
//! at the end — at which point the result is 1-minimal with respect to
//! single-event removal, exactly like the greedy minimizer's.
//!
//! On top of subset reduction this module runs a second, parameter-level
//! pass: one loop over each event's knobs (`ChaosEvent::knobs`: crash
//! downtime, fault windows, slow-link delay, fault probabilities,
//! application-fault arguments such as corrupt-object counts), each shrunk
//! toward the smallest still-failing value by deterministic binary search.
//!
//! Every candidate verdict is cached in a [`TestCache`] keyed by a stable
//! digest of the schedule ([`schedule_digest`]), so no schedule — including
//! the already-known-failing input — is ever executed twice. The cache
//! reports its work through [`crate::metrics`] counters
//! (`ddmin.executions`, `ddmin.cache_hits`, `ddmin.subset_tests`,
//! `ddmin.shrink_tests`, `ddmin.sweep_tests`), which campaign reports
//! surface so a failure record shows how much search produced it.
//!
//! Everything here is deterministic: given the same harness behaviour,
//! seed and schedule, the minimized schedule — and its rendering — is
//! byte-identical across runs.

use crate::chaos::{run_one, ChaosHarness, FaultSchedule, RunOutcome, TimedEvent};
use crate::metrics::MetricsRegistry;
use crate::{SimDuration, Simulation};
use std::collections::HashMap;

/// Stable 64-bit digest of a schedule (FNV-1a over each event's time and
/// its canonical words, `ChaosEvent::words`).
/// Identical schedules digest identically across processes and runs; the
/// test cache and artifact names key on it.
pub fn schedule_digest(schedule: &FaultSchedule) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for ev in &schedule.events {
        mix(ev.at.as_nanos());
        for w in ev.event.words() {
            mix(w);
        }
    }
    h
}

/// A verdict cache over tested schedules, keyed by [`schedule_digest`].
///
/// Both the greedy minimizer and ddmin route every candidate execution
/// through one of these, so duplicate candidates (including the known-
/// failing input schedule) cost a map lookup instead of a simulation run.
#[derive(Debug, Default)]
pub struct TestCache {
    verdicts: HashMap<u64, bool>,
    /// The most recently executed *failing* run, kept so the caller can
    /// reuse its trace without replaying the final minimal schedule.
    last_failing: Option<(u64, RunOutcome)>,
    metrics: MetricsRegistry,
}

impl TestCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds the cache with a schedule already known to fail, optionally
    /// with the recorded outcome of that failing run. The seeded schedule
    /// will never be re-executed by [`TestCache::fails`].
    pub fn insert_known_failure(&mut self, schedule: &FaultSchedule, outcome: Option<&RunOutcome>) {
        let digest = schedule_digest(schedule);
        self.verdicts.insert(digest, true);
        if let Some(o) = outcome {
            self.last_failing = Some((digest, o.clone()));
        }
    }

    /// Whether `schedule` fails the harness audit for `seed`, executing the
    /// run only if this exact schedule was never tested before.
    pub fn fails<H: ChaosHarness>(
        &mut self,
        harness: &mut H,
        seed: u64,
        schedule: &FaultSchedule,
    ) -> bool {
        let digest = schedule_digest(schedule);
        if let Some(&fails) = self.verdicts.get(&digest) {
            self.metrics.inc("ddmin.cache_hits");
            return fails;
        }
        self.metrics.inc("ddmin.executions");
        let (outcome, verdict) = run_one(harness, seed, schedule);
        let fails = verdict.is_err();
        if fails {
            self.last_failing = Some((digest, outcome));
        }
        self.verdicts.insert(digest, fails);
        fails
    }

    /// The cache's work counters (executions, cache hits, per-phase tests).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn take_outcome_for(&mut self, schedule: &FaultSchedule) -> Option<RunOutcome> {
        let digest = schedule_digest(schedule);
        match self.last_failing.take() {
            Some((d, o)) if d == digest => Some(o),
            other => {
                self.last_failing = other;
                None
            }
        }
    }
}

/// Result of a ddmin minimization.
#[derive(Debug, Clone)]
pub struct DdminOutcome {
    /// The minimized, still-failing schedule.
    pub schedule: FaultSchedule,
    /// The recorded outcome of replaying `schedule` (trace lines, protocol
    /// events, stats) — reused from the search, not re-executed.
    pub outcome: RunOutcome,
    /// Search-effort counters: `ddmin.executions`, `ddmin.cache_hits`,
    /// `ddmin.subset_tests`, `ddmin.shrink_tests`, `ddmin.sweep_tests`.
    pub metrics: MetricsRegistry,
}

/// Minimizes a schedule already known to fail for `seed` (the caller just
/// ran it, e.g. inside a campaign). The known verdict — and, when given,
/// the recorded outcome — pre-seed the test cache, so the input schedule is
/// never re-executed.
///
/// Three phases, all deterministic:
/// 1. **Subset reduction** (classic ddmin): test subsets and complements at
///    increasing granularity until the event set is 1-minimal.
/// 2. **Parameter shrinking**: binary-search each event's durations and
///    magnitudes down to the smallest still-failing values.
/// 3. **Removal sweep**: a final greedy pass, since shrinking a parameter
///    can render another event removable.
pub fn ddmin_from_failure<H: ChaosHarness>(
    harness: &mut H,
    seed: u64,
    schedule: &FaultSchedule,
    full_outcome: Option<&RunOutcome>,
) -> DdminOutcome {
    let mut cache = TestCache::new();
    cache.insert_known_failure(schedule, full_outcome);

    // Common-mode fast path: if the empty schedule already fails, the bug
    // needs no injected fault and the search is over in one execution.
    let mut current: Vec<TimedEvent> = if !schedule.is_empty()
        && cache.fails(harness, seed, &FaultSchedule::new())
    {
        Vec::new()
    } else {
        subset_reduce(harness, seed, schedule.events.clone(), &mut cache)
    };

    shrink_parameters(harness, seed, &mut current, &mut cache);
    removal_sweep(harness, seed, &mut current, &mut cache);

    let minimal = FaultSchedule { events: current };
    let outcome = match cache.take_outcome_for(&minimal) {
        Some(o) => o,
        // Only reachable when every reduction verdict came from the cache
        // (e.g. nothing was removable and no outcome was supplied).
        None => {
            cache.metrics.inc("ddmin.executions");
            run_one(harness, seed, &minimal).0
        }
    };
    DdminOutcome { schedule: minimal, outcome, metrics: cache.metrics }
}

/// Convenience entry: executes `schedule` once to confirm it fails, then
/// minimizes. Returns `None` when the schedule passes the audit.
pub fn ddmin<H: ChaosHarness>(
    harness: &mut H,
    seed: u64,
    schedule: &FaultSchedule,
) -> Option<DdminOutcome> {
    let (outcome, verdict) = run_one(harness, seed, schedule);
    verdict.is_err().then(|| ddmin_from_failure(harness, seed, schedule, Some(&outcome)))
}

/// Splits `events` into `n` contiguous chunks of near-equal size.
fn split(events: &[TimedEvent], n: usize) -> Vec<Vec<TimedEvent>> {
    let len = events.len();
    let mut chunks = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let end = len * (i + 1) / n;
        if end > start {
            chunks.push(events[start..end].to_vec());
        }
        start = end;
    }
    chunks
}

/// Classic ddmin over event subsets with complement splitting.
fn subset_reduce<H: ChaosHarness>(
    harness: &mut H,
    seed: u64,
    mut current: Vec<TimedEvent>,
    cache: &mut TestCache,
) -> Vec<TimedEvent> {
    let mut n = 2usize;
    while current.len() >= 2 {
        let chunks = split(&current, n);
        let mut reduced = false;

        // Try each subset: a failing chunk replaces the whole set.
        for chunk in &chunks {
            cache.metrics.inc("ddmin.subset_tests");
            let candidate = FaultSchedule { events: chunk.clone() };
            if cache.fails(harness, seed, &candidate) {
                current = chunk.clone();
                n = 2;
                reduced = true;
                break;
            }
        }

        // Try each complement (skip at n == 2, where complements equal the
        // subsets just tested).
        if !reduced && n > 2 {
            for i in 0..chunks.len() {
                let mut complement = Vec::with_capacity(current.len());
                for (j, chunk) in chunks.iter().enumerate() {
                    if j != i {
                        complement.extend(chunk.iter().cloned());
                    }
                }
                cache.metrics.inc("ddmin.subset_tests");
                let candidate = FaultSchedule { events: complement };
                if cache.fails(harness, seed, &candidate) {
                    current = candidate.events;
                    n = (n - 1).max(2);
                    reduced = true;
                    break;
                }
            }
        }

        if !reduced {
            if n >= current.len() {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    current
}

/// Binary-searches the smallest still-failing value of knob `k` of event
/// `idx` in `[0, hi]`, where `hi` (its current value) is known to fail.
/// Monotone failure is assumed along the probed path; the returned value
/// always failed a real test (or is the untouched original).
fn shrink_value<H: ChaosHarness>(
    harness: &mut H,
    seed: u64,
    events: &[TimedEvent],
    (idx, k): (usize, usize),
    cache: &mut TestCache,
) -> u64 {
    let mut lo = 0u64;
    let mut hi = events[idx].event.knobs()[k];
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        cache.metrics.inc("ddmin.shrink_tests");
        let mut candidate = events.to_vec();
        candidate[idx].event = candidate[idx].event.with_knob(k, mid);
        if cache.fails(harness, seed, &FaultSchedule { events: candidate }) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

/// Pass 2: shrink every event's knobs ([`crate::chaos::ChaosEvent::knobs`])
/// in order toward the smallest values that still fail. Each result is
/// written back even when unshrunk, so a probability lands on its grid.
fn shrink_parameters<H: ChaosHarness>(
    harness: &mut H,
    seed: u64,
    current: &mut [TimedEvent],
    cache: &mut TestCache,
) {
    for idx in 0..current.len() {
        for k in 0..current[idx].event.knobs().len() {
            let best = shrink_value(harness, seed, current, (idx, k), cache);
            current[idx].event = current[idx].event.with_knob(k, best);
        }
    }
}

/// Pass 3: greedy single-event removal, restoring 1-minimality in case the
/// parameter shrink made an event redundant.
fn removal_sweep<H: ChaosHarness>(
    harness: &mut H,
    seed: u64,
    current: &mut Vec<TimedEvent>,
    cache: &mut TestCache,
) {
    // The entry state is known-failing (last reduction or shrink test, or
    // the seeded input); record it so the sweep never re-executes it.
    cache.verdicts.insert(schedule_digest(&FaultSchedule { events: current.clone() }), true);
    let mut idx = 0;
    while idx < current.len() {
        let mut candidate = current.clone();
        candidate.remove(idx);
        cache.metrics.inc("ddmin.sweep_tests");
        if cache.fails(harness, seed, &FaultSchedule { events: candidate.clone() }) {
            *current = candidate;
            idx = 0;
        } else {
            idx += 1;
        }
    }
}

/// A [`ChaosHarness`] wrapper that counts how many runs were actually
/// built — the regression oracle for "no redundant executions".
#[derive(Debug)]
pub struct CountingHarness<H: ChaosHarness> {
    /// The wrapped harness.
    pub inner: H,
    /// Number of [`ChaosHarness::build`] calls, i.e. executed runs.
    pub builds: usize,
}

impl<H: ChaosHarness> CountingHarness<H> {
    /// Wraps `inner` with a zeroed counter.
    pub fn new(inner: H) -> Self {
        Self { inner, builds: 0 }
    }
}

impl<H: ChaosHarness> ChaosHarness for CountingHarness<H> {
    fn build(&mut self, seed: u64) -> Simulation {
        self.builds += 1;
        self.inner.build(seed)
    }

    fn apply_app(
        &mut self,
        sim: &mut Simulation,
        node: crate::NodeId,
        tag: u32,
        arg: u64,
        trace: &mut Vec<String>,
    ) {
        self.inner.apply_app(sim, node, tag, arg, trace);
    }

    fn settle(&self) -> SimDuration {
        self.inner.settle()
    }

    fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
        self.inner.audit(sim, trace)
    }

    fn liveness_bound(&self) -> Option<SimDuration> {
        self.inner.liveness_bound()
    }

    fn latency_budget(&self) -> Option<SimDuration> {
        self.inner.latency_budget()
    }

    fn describe(&self, sim: &Simulation) -> Vec<String> {
        self.inner.describe(sim)
    }
}

/// A [`ChaosHarness`] double whose audit fails iff at least `threshold`
/// crash events were applied (its "crash node" trace lines). The verdict is
/// pure in the schedule, so which subsets fail, and so the minimizers'
/// search, is exactly predictable. It forwards `build` and `apply_app` to
/// `inner` and settles 1 ms past the last event (the crash lines are all in
/// by then); it forwards neither the liveness bound nor the latency budget,
/// so no engine auditor can fail a run the crash count passes.
#[derive(Debug)]
pub struct CrashThreshold<H: ChaosHarness = IdleGroup> {
    /// The harness whose runs are counted: an idle group, or a real
    /// workload when the search cost should be a real one.
    pub inner: H,
    /// Crash events at which the audit starts failing.
    pub threshold: usize,
}

impl CrashThreshold {
    /// Over an [`IdleGroup`].
    pub fn new(threshold: usize) -> Self {
        Self { inner: IdleGroup, threshold }
    }
}

impl<H: ChaosHarness> ChaosHarness for CrashThreshold<H> {
    fn build(&mut self, seed: u64) -> Simulation {
        self.inner.build(seed)
    }

    fn apply_app(
        &mut self,
        sim: &mut Simulation,
        node: crate::NodeId,
        tag: u32,
        arg: u64,
        trace: &mut Vec<String>,
    ) {
        self.inner.apply_app(sim, node, tag, arg, trace);
    }

    fn settle(&self) -> SimDuration {
        SimDuration::from_millis(1)
    }

    fn audit(&mut self, _sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
        let crashes = trace.iter().filter(|l| l.contains("crash node")).count();
        if crashes >= self.threshold {
            Err(format!("saw {crashes} crashes (threshold {})", self.threshold))
        } else {
            Ok(())
        }
    }
}

/// Four inert nodes, so crash and network events have real nodes to act
/// on: the default inner harness of [`CrashThreshold`].
#[derive(Debug)]
pub struct IdleGroup;

/// A node that ignores everything it receives.
struct Idle;

impl crate::Actor for Idle {
    fn on_message(&mut self, _: crate::NodeId, _: &[u8], _: &mut crate::Context<'_>) {}
}

impl ChaosHarness for IdleGroup {
    fn build(&mut self, seed: u64) -> Simulation {
        let mut sim = Simulation::new(seed);
        for _ in 0..4 {
            sim.add_node(Box::new(Idle));
        }
        sim
    }

    fn apply_app(
        &mut self,
        _: &mut Simulation,
        _: crate::NodeId,
        _: u32,
        _: u64,
        _: &mut Vec<String>,
    ) {
    }

    fn audit(&mut self, _: &mut Simulation, _: &mut Vec<String>) -> Result<(), String> {
        Ok(())
    }
}

/// Every node of a [`PingHarness`] pings every other node each 10 ms and
/// counts the pongs it hears, per peer, with one
/// [`RequestExecuted`](crate::ProtocolEvent::RequestExecuted) event per
/// pong. A muted node ignores everything it receives.
#[derive(Debug)]
pub struct Pinger {
    id: crate::NodeId,
    muted: bool,
    /// Pongs heard, indexed by the peer that sent them.
    pub pongs: Vec<u64>,
}

impl crate::Actor for Pinger {
    fn on_start(&mut self, ctx: &mut crate::Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(10), 1);
    }

    fn on_message(&mut self, from: crate::NodeId, payload: &[u8], ctx: &mut crate::Context<'_>) {
        if self.muted {
            return;
        }
        match payload {
            b"ping" => ctx.send(from, b"pong".to_vec()),
            b"pong" => {
                self.pongs[from.0] += 1;
                let heard = self.pongs.iter().sum();
                ctx.emit(0, heard, crate::ProtocolEvent::RequestExecuted { batch: 1 });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut crate::Context<'_>) {
        for peer in (0..self.pongs.len()).map(crate::NodeId) {
            if peer != self.id {
                ctx.send(peer, b"ping".to_vec());
            }
        }
        ctx.set_timer(SimDuration::from_millis(10), 1);
    }
}

/// `n` [`Pinger`]s: the live toy system of the engine's own tests. App
/// tag 1 mutes a node and tag 2 unmutes it; the audit writes one
/// `node <i> pongs=<total>` line per node and fails unless every node
/// heard from every peer, one second after the last fault.
#[derive(Debug)]
pub struct PingHarness {
    /// Number of pingers.
    pub n: usize,
}

impl ChaosHarness for PingHarness {
    fn build(&mut self, seed: u64) -> Simulation {
        let mut sim = Simulation::new(seed);
        for i in 0..self.n {
            let pinger = Pinger { id: crate::NodeId(i), muted: false, pongs: vec![0; self.n] };
            sim.add_node(Box::new(pinger));
        }
        sim
    }

    fn apply_app(
        &mut self,
        sim: &mut Simulation,
        node: crate::NodeId,
        tag: u32,
        arg: u64,
        trace: &mut Vec<String>,
    ) {
        if let Some(p) = sim.actor_as_mut::<Pinger>(node) {
            p.muted = match tag {
                1 => true,
                2 => false,
                _ => p.muted,
            };
            trace.push(format!("node {} tag={tag} arg={arg} muted={}", node.0, p.muted));
        }
    }

    fn settle(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
        let mut deaf = None;
        for id in 0..self.n {
            let p = sim.actor_as::<Pinger>(crate::NodeId(id)).expect("a pinger");
            trace.push(format!("node {id} pongs={}", p.pongs.iter().sum::<u64>()));
            let unheard = (0..self.n).find(|&peer| peer != id && p.pongs[peer] == 0);
            deaf = deaf.or(unheard.map(|peer| (id, peer)));
        }
        match deaf {
            Some((id, peer)) => Err(format!("node {id} never heard from {peer}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{minimize, ChaosEvent};
    use crate::{NetFault, NodeId, SimTime};

    fn decoy_schedule() -> FaultSchedule {
        let mut s = FaultSchedule::new();
        s.crash(SimTime::from_millis(10), NodeId(0), SimDuration::from_millis(500))
            .net(
                SimTime::from_millis(20),
                NetFault::Duplicate { prob: 0.25 },
                SimDuration::from_millis(300),
            )
            .crash(SimTime::from_millis(40), NodeId(1), SimDuration::from_millis(700))
            .app(SimTime::from_millis(50), NodeId(2), 9, 100)
            .net(
                SimTime::from_millis(60),
                NetFault::Slow {
                    from: NodeId(0),
                    to: NodeId(1),
                    extra: SimDuration::from_millis(30),
                },
                SimDuration::from_millis(200),
            )
            .crash(SimTime::from_millis(80), NodeId(2), SimDuration::from_millis(900));
        s
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let s = decoy_schedule();
        assert_eq!(schedule_digest(&s), schedule_digest(&s.clone()));
        assert_ne!(schedule_digest(&s), schedule_digest(&s.without(0)));
        assert_ne!(schedule_digest(&FaultSchedule::new()), schedule_digest(&s));
    }

    #[test]
    fn ddmin_finds_exact_crash_pair() {
        let mut h = CrashThreshold::new(2);
        let schedule = decoy_schedule();
        let dd = ddmin(&mut h, 1, &schedule).expect("schedule must fail");
        // Any 1-minimal failing subset is exactly `threshold` crashes.
        assert_eq!(dd.schedule.len(), 2, "{}", dd.schedule.describe());
        for ev in &dd.schedule.events {
            assert!(matches!(ev.event, ChaosEvent::Crash { .. }), "{}", dd.schedule.describe());
            // The shrink pass drives the crash downtime to its minimum.
            if let ChaosEvent::Crash { down, .. } = ev.event {
                assert_eq!(down.as_nanos(), 0, "{}", dd.schedule.describe());
            }
        }
        let (_, verdict) = run_one(&mut h, 1, &dd.schedule);
        assert!(verdict.is_err(), "minimized schedule must still fail");
    }

    #[test]
    fn ddmin_matches_known_failure_outcome_without_rerun() {
        let mut h = CountingHarness::new(CrashThreshold::new(1));
        let schedule = decoy_schedule();
        let (outcome, verdict) = run_one(&mut h, 3, &schedule);
        assert!(verdict.is_err());
        assert_eq!(h.builds, 1);

        let dd = ddmin_from_failure(&mut h, 3, &schedule, Some(&outcome));
        // Every executed run is accounted: the full schedule was reused
        // from the known-failure seed, never re-built.
        assert_eq!(h.builds as u64, 1 + dd.metrics.counter("ddmin.executions"));
        assert!(dd.metrics.counter("ddmin.cache_hits") > 0, "{:?}", dd.metrics.to_json());
        assert_eq!(dd.schedule.len(), 1);
    }

    #[test]
    fn empty_failing_schedule_costs_one_execution() {
        // Common-mode bug: fails with no injected fault at all.
        let mut h = CountingHarness::new(CrashThreshold::new(0));
        let schedule = decoy_schedule();
        let (outcome, verdict) = run_one(&mut h, 5, &schedule);
        assert!(verdict.is_err());
        let builds_before = h.builds;
        let dd = ddmin_from_failure(&mut h, 5, &schedule, Some(&outcome));
        assert!(dd.schedule.is_empty());
        assert_eq!(h.builds - builds_before, 1, "empty-schedule probe is the only run");
    }

    #[test]
    fn cached_minimize_skips_duplicate_candidates() {
        // Two byte-identical crash events: dropping either produces the
        // same candidate schedule, and greedy passes revisit candidates —
        // the digest cache must serve all repeats without re-executing.
        let mut schedule = FaultSchedule::new();
        schedule
            .crash(SimTime::from_millis(10), NodeId(0), SimDuration::from_millis(500))
            .crash(SimTime::from_millis(40), NodeId(1), SimDuration::from_millis(700))
            .crash(SimTime::from_millis(40), NodeId(1), SimDuration::from_millis(700));
        let mut h = CountingHarness::new(CrashThreshold::new(2));
        let minimal = minimize(&mut h, 2, &schedule);
        assert_eq!(minimal.len(), 2);
        // Executed candidates: [c1,c1'] (fails, two crashes) and [c1]
        // (passes). The identical without(0)/without(1) candidates of the
        // two-event state — and the second greedy pass — are cache hits.
        assert_eq!(h.builds, 2, "duplicate candidates must come from the cache");
    }

    #[test]
    fn ddmin_never_exceeds_greedy_size() {
        for threshold in [1usize, 2, 3] {
            let schedule = decoy_schedule();
            let mut hg = CountingHarness::new(CrashThreshold::new(threshold));
            let greedy = minimize(&mut hg, 7, &schedule);
            let mut hd = CountingHarness::new(CrashThreshold::new(threshold));
            let dd = ddmin_from_failure(&mut hd, 7, &schedule, None);
            assert!(
                dd.schedule.len() <= greedy.len(),
                "threshold {threshold}: ddmin {} > greedy {}",
                dd.schedule.len(),
                greedy.len()
            );
            let (_, v) = run_one(&mut hd, 7, &dd.schedule);
            assert!(v.is_err());
        }
    }

    #[test]
    fn ddmin_is_deterministic() {
        let schedule = decoy_schedule();
        let mut h = CrashThreshold::new(2);
        let a = ddmin_from_failure(&mut h, 11, &schedule, None);
        let b = ddmin_from_failure(&mut h, 11, &schedule, None);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.schedule.describe(), b.schedule.describe());
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    }
}
