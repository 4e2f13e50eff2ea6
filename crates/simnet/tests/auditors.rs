//! The chaos engine's run auditors over hand-built event lists: each clause
//! of each auditor fires its own message exactly once on the one list that
//! breaks it, and a clean list fires none.

use base_simnet::chaos::{audit_latency_budget, audit_liveness, FaultSchedule};
use base_simnet::{NodeId, ProtocolEvent, SimDuration, SimTime, Timeline, TraceEvent};

/// The engine's auditors over a run whose one fault heals at 1 s and which
/// ends 20 s later: every liveness clause under a 10 s bound, then the
/// latency budget of 1 s.
fn audit(events: &[TraceEvent]) -> Vec<String> {
    let mut schedule = FaultSchedule::new();
    schedule.crash(SimTime::ZERO, NodeId(0), SimDuration::from_secs(1));
    let run_end = SimTime::from_secs(21);
    let bound = SimDuration::from_secs(10);
    let timeline = Timeline::of(events);
    let mut violations = audit_liveness(&timeline, &schedule, bound, run_end);
    violations.extend(audit_latency_budget(&timeline, &schedule, SimDuration::from_secs(1)));
    violations
}

fn at(ms: u64, node: usize, view: u64, seq: u64, event: ProtocolEvent) -> TraceEvent {
    TraceEvent { at: SimTime::from_millis(ms), node: NodeId(node), view, seq, event }
}

/// Client node 4 submits the op stamped `ts`.
fn submit(ms: u64, ts: u64) -> TraceEvent {
    at(ms, 4, 0, ts, ProtocolEvent::ClientOpSubmitted)
}

/// Client node 4 completes the op stamped `ts`.
fn complete(ms: u64, ts: u64) -> TraceEvent {
    at(ms, 4, 0, ts, ProtocolEvent::ClientOpCompleted)
}

/// Replica 1 starts a view change to view 2.
fn view_change(ms: u64) -> TraceEvent {
    at(ms, 1, 2, 0, ProtocolEvent::ViewChangeStarted)
}

/// Replica 2 starts a recovery.
fn recovery_start(ms: u64) -> TraceEvent {
    at(ms, 2, 0, 0, ProtocolEvent::RecoveryStarted)
}

/// Replica 2 completes a recovery.
fn recovery_done(ms: u64) -> TraceEvent {
    at(ms, 2, 0, 0, ProtocolEvent::RecoveryCompleted { repaired_corruption: false })
}

#[test]
fn a_clean_run_fires_no_auditor() {
    // An op across the heal, a quick post-heal op, a view change and a
    // recovery, each well inside its deadline.
    let clean = [
        submit(500, 1),
        view_change(1_500),
        complete(2_000, 1),
        recovery_start(2_000),
        submit(3_000, 2),
        recovery_done(3_000),
        complete(3_100, 2),
    ];
    assert_eq!(audit(&clean), Vec::<String>::new());
}

#[test]
fn each_auditor_clause_fires_once_on_its_own_violation() {
    let cases = [
        (
            "late completion",
            vec![submit(500, 1), complete(12_000, 1)],
            "heal-to-progress: node 4 completed an op 11000ms after the last fault healed \
             (bound 10000ms)",
        ),
        (
            "pending op",
            vec![submit(500, 1)],
            "heal-to-progress: node 4 still has 1 pending op(s) 20000ms after the last fault \
             healed (bound 10000ms)",
        ),
        (
            "late view change",
            vec![view_change(12_000)],
            "view-convergence: node 1 started a view change (v2) 11000ms after the last fault \
             healed (bound 10000ms)",
        ),
        (
            "long recovery",
            vec![recovery_start(2_000), recovery_done(13_000)],
            "recovery-duration: node 2's recovery took 11000ms (bound 10000ms)",
        ),
        (
            "open recovery",
            vec![recovery_start(2_000)],
            "recovery-duration: node 2's recovery still incomplete 19000ms after it began \
             (bound 10000ms)",
        ),
        (
            "over-budget op",
            vec![submit(3_000, 2), complete(5_000, 2)],
            "latency-budget: node 4 op ts=2 took 2000ms (budget 1000ms), dominated by delivery \
             (2000ms, retx=0, vc=0)",
        ),
    ];
    for (clause, events, message) in cases {
        assert_eq!(audit(&events), vec![message.to_string()], "{clause}");
    }
}
