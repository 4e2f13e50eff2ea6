//! Property tests for the chaos campaign engine: schedule generation is a
//! pure function of its inputs, generated schedules respect the impairment
//! budget, and replaying any schedule with the same seed reproduces the
//! identical trace and network statistics.

use base_simnet::chaos::{
    generate_schedule, generate_storm_schedule, minimize, run_one, AppFaultSpec, ChaosEvent,
    ChaosHarness, FaultSchedule, HealSpec, ScheduleGenConfig,
};
use base_simnet::ddmin::{ddmin, schedule_digest, CrashThreshold, PingHarness};
use base_simnet::trace::export_jsonl;
use base_simnet::{NetFault, NodeId, SimDuration, SimTime};
use proptest::prelude::*;

fn gen_cfg(n: usize, events: usize, horizon_ms: u64, max_impaired: usize) -> ScheduleGenConfig {
    ScheduleGenConfig {
        nodes: (0..n).map(NodeId).collect(),
        max_impaired,
        horizon: SimDuration::from_millis(horizon_ms),
        events,
        app_faults: vec![AppFaultSpec {
            tag: 1,
            arg_max: 4,
            impairs: true,
            heal: Some(HealSpec { tag: 2, after: SimDuration::from_millis(300) }),
        }],
    }
}

/// One schedule holding every network fault variant, each in force for
/// part of the first second. The tagged faults match the pingers' 4-byte
/// messages by their bytes.
fn all_variants_schedule() -> FaultSchedule {
    let ms = SimTime::from_millis;
    let dur = SimDuration::from_millis(300);
    let (ping, pong) = (u32::from_be_bytes(*b"ping"), u32::from_be_bytes(*b"pong"));
    let mut s = FaultSchedule::new();
    s.net(ms(0), NetFault::Partition { nodes: vec![NodeId(0), NodeId(1)] }, dur)
        .net(ms(100), NetFault::Corrupt { from: NodeId(2), prob: 0.3 }, dur)
        .net(
            ms(200),
            NetFault::Slow { from: NodeId(3), to: NodeId(0), extra: SimDuration::from_millis(25) },
            dur,
        )
        .net(ms(300), NetFault::Duplicate { prob: 0.2 }, dur)
        .net(ms(400), NetFault::DropTagged { tag: ping, prob: 0.4 }, dur)
        .net(ms(500), NetFault::CorruptTagged { tag: pong, prob: 0.4 }, dur)
        .net(ms(600), NetFault::Drop { prob: 0.1 }, dur);
    s
}

/// True for the variants only hand-written schedules use.
fn is_hand_written_only(event: &ChaosEvent) -> bool {
    use NetFault::{CorruptTagged, Drop, DropTagged};
    matches!(
        event,
        ChaosEvent::Net { fault: DropTagged { .. } | CorruptTagged { .. } | Drop { .. }, .. }
    )
}

/// Rebuilds the impairment intervals of a generated schedule and verifies
/// that no instant has more than `max_impaired` distinct impaired nodes.
fn assert_budget(schedule: &FaultSchedule, max_impaired: usize) {
    let mut intervals: Vec<(NodeId, SimTime, SimTime)> = Vec::new();
    let far = SimTime::from_nanos(u64::MAX);
    for ev in &schedule.events {
        match &ev.event {
            ChaosEvent::Crash { node, down } => intervals.push((*node, ev.at, ev.at + *down)),
            ChaosEvent::Net { fault: NetFault::Partition { nodes }, dur } => {
                for n in nodes {
                    intervals.push((*n, ev.at, ev.at + *dur));
                }
            }
            ChaosEvent::Net { fault: NetFault::Corrupt { from, .. }, dur } => {
                intervals.push((*from, ev.at, ev.at + *dur));
            }
            ChaosEvent::App { node, tag: 1, .. } => {
                // Muted until its heal event (same node, tag 2).
                let heal = schedule
                    .events
                    .iter()
                    .filter(|h| {
                        matches!(h.event, ChaosEvent::App { node: hn, tag: 2, .. } if hn == *node)
                            && h.at >= ev.at
                    })
                    .map(|h| h.at)
                    .min()
                    .unwrap_or(far);
                intervals.push((*node, ev.at, heal));
            }
            _ => {}
        }
    }
    for t in intervals.iter().map(|i| i.1).collect::<Vec<_>>() {
        let mut nodes: Vec<usize> = intervals
            .iter()
            .filter(|(_, from, until)| *from <= t && t < *until)
            .map(|(n, _, _)| n.0)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert!(
            nodes.len() <= max_impaired,
            "budget exceeded at t={}ns: impaired nodes {nodes:?}",
            t.as_nanos()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Schedule generation is a pure function of (config, seed), and
    /// another seed draws another schedule.
    #[test]
    fn generation_is_pure(
        seed: u64,
        events in 1usize..25,
        horizon_ms in 500u64..5000,
    ) {
        let cfg = gen_cfg(4, events, horizon_ms, 1);
        let schedule = generate_schedule(&cfg, seed);
        prop_assert_eq!(&schedule, &generate_schedule(&cfg, seed));
        // An empty schedule (every drawn event skipped) may recur under
        // another seed.
        if !schedule.is_empty() {
            prop_assert_ne!(&schedule, &generate_schedule(&cfg, seed.wrapping_add(1)));
        }
        prop_assert!(!schedule.events.iter().any(|e| is_hand_written_only(&e.event)));
    }

    /// Generated schedules never impair more distinct nodes at once than
    /// the budget allows.
    #[test]
    fn generated_schedules_respect_budget(
        seed: u64,
        events in 1usize..30,
        max_impaired in 1usize..3,
    ) {
        let cfg = gen_cfg(5, events, 2000, max_impaired);
        assert_budget(&generate_schedule(&cfg, seed), max_impaired);
    }

    /// Replaying any generated schedule, or the one holding every network
    /// fault variant, with the same seed reproduces the identical outcome:
    /// event trace, network statistics, protocol events and coverage.
    #[test]
    fn replay_is_deterministic(
        seed: u64,
        events in 0usize..12,
        horizon_ms in 500u64..3000,
    ) {
        let cfg = gen_cfg(4, events, horizon_ms, 1);
        for schedule in [generate_schedule(&cfg, seed), all_variants_schedule()] {
            let mut h = PingHarness { n: 4 };
            let (a, va) = run_one(&mut h, seed, &schedule);
            let (b, vb) = run_one(&mut h, seed, &schedule);
            prop_assert_eq!(a, b);
            prop_assert_eq!(va, vb);
        }
    }

    /// Two runs of the same seeded schedule export byte-identical JSONL
    /// protocol-event traces, and the trace is never empty (the pingers
    /// emit one event per pong).
    #[test]
    fn jsonl_export_is_byte_identical(
        seed: u64,
        events in 0usize..10,
        horizon_ms in 500u64..3000,
    ) {
        let cfg = gen_cfg(4, events, horizon_ms, 1);
        let schedule = generate_schedule(&cfg, seed);
        let mut h = PingHarness { n: 4 };
        let (a, _) = run_one(&mut h, seed, &schedule);
        let (b, _) = run_one(&mut h, seed, &schedule);
        let ja = export_jsonl(&a.events);
        prop_assert_eq!(&ja, &export_jsonl(&b.events));
        prop_assert!(!ja.is_empty(), "pingers must have produced events");
        prop_assert_eq!(a.coverage, b.coverage);
    }

    /// With no trace installed, `Context::emit` records nothing, however
    /// much the actors emit.
    #[test]
    fn null_sink_records_no_events(seed: u64, run_ms in 100u64..2000) {
        let mut h = PingHarness { n: 4 };
        let mut sim = h.build(seed);
        sim.run_for(SimDuration::from_millis(run_ms));
        prop_assert!(sim.trace().is_none());
    }

    /// Storm generation is a pure function of (config, seed) and respects
    /// the impairment budget like the mixed generator.
    #[test]
    fn storm_generation_is_pure_and_budgeted(
        seed: u64,
        events in 1usize..20,
        horizon_ms in 1000u64..5000,
    ) {
        let cfg = gen_cfg(4, events, horizon_ms, 1);
        let a = generate_storm_schedule(&cfg, seed);
        prop_assert_eq!(&a, &generate_storm_schedule(&cfg, seed));
        assert_budget(&a, 1);
    }
}

/// Interleaves `crashes` crash events with `decoys` irrelevant events at
/// deterministic times derived from the index.
fn crash_schedule(crashes: usize, decoys: usize) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    for i in 0..crashes {
        s.crash(
            SimTime::from_millis(10 + 20 * i as u64),
            NodeId(i % 4),
            SimDuration::from_millis(100 + 13 * i as u64),
        );
    }
    for i in 0..decoys {
        match i % 3 {
            0 => {
                s.net(
                    SimTime::from_millis(15 + 20 * i as u64),
                    NetFault::Duplicate { prob: 0.25 },
                    SimDuration::from_millis(200),
                );
            }
            1 => {
                s.app(SimTime::from_millis(17 + 20 * i as u64), NodeId(i % 4), 9, i as u64);
            }
            _ => {
                s.net(
                    SimTime::from_millis(19 + 20 * i as u64),
                    NetFault::Slow {
                        from: NodeId(i % 4),
                        to: NodeId((i + 1) % 4),
                        extra: SimDuration::from_millis(30),
                    },
                    SimDuration::from_millis(150),
                );
            }
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ddmin's result (a) still fails the harness, (b) is 1-minimal under
    /// single-event removal, and (c) never exceeds the size of the greedy
    /// `minimize` result.
    #[test]
    fn ddmin_invariants(
        seed: u64,
        threshold in 1usize..4,
        extra_crashes in 0usize..3,
        decoys in 0usize..5,
    ) {
        let schedule = crash_schedule(threshold + extra_crashes, decoys);
        let mut h = CrashThreshold::new(threshold);
        let dd = ddmin(&mut h, seed, &schedule).expect("schedule must fail");

        // (a) still failing.
        let (_, verdict) = run_one(&mut h, seed, &dd.schedule);
        prop_assert!(verdict.is_err(), "minimized schedule must still fail");

        // (b) 1-minimal: dropping any single event makes the run pass.
        for idx in 0..dd.schedule.len() {
            let (_, v) = run_one(&mut h, seed, &dd.schedule.without(idx));
            prop_assert!(
                v.is_ok(),
                "removing event {idx} still fails — not 1-minimal:\n{}",
                dd.schedule.describe()
            );
        }

        // (c) never larger than greedy minimize's result.
        let greedy = minimize(&mut h, seed, &schedule);
        prop_assert!(
            dd.schedule.len() <= greedy.len(),
            "ddmin {} events > greedy {} events",
            dd.schedule.len(),
            greedy.len()
        );
    }

    /// Same seed and schedule ⇒ byte-identical minimized schedule, digest
    /// and metrics.
    #[test]
    fn ddmin_same_seed_is_byte_identical(
        seed: u64,
        threshold in 1usize..3,
        extra_crashes in 0usize..3,
        decoys in 0usize..4,
    ) {
        let schedule = crash_schedule(threshold + extra_crashes, decoys);
        let a = ddmin(&mut CrashThreshold::new(threshold), seed, &schedule)
            .expect("schedule must fail");
        let b = ddmin(&mut CrashThreshold::new(threshold), seed, &schedule)
            .expect("schedule must fail");
        prop_assert_eq!(a.schedule.describe(), b.schedule.describe());
        prop_assert_eq!(schedule_digest(&a.schedule), schedule_digest(&b.schedule));
        prop_assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        prop_assert_eq!(
            export_jsonl(&a.outcome.events),
            export_jsonl(&b.outcome.events)
        );
    }
}
