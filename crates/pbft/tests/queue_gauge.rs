//! Gauge: the simulator's event queue holds what is live, not what was
//! ever scheduled.
//!
//! Every client operation sets a retransmission timer (150 ms or more out)
//! and cancels it a round trip later; every forwarded request arms and
//! disarms a backup's view-change timer the same way. While cancelled
//! timers stayed queued until their due time, this run's queue peaked at
//! 2 088 events, nearly all of them dead, and every push and pop paid for
//! that depth. The peak printed
//! here is the regression number: CI shows it beside the allocation census.

use base_pbft::testing::{build_counter_group, op_add};
use base_pbft::{ClientActor, Config};
use base_simnet::Simulation;

/// Live events at any instant are bounded by the deployment, not by the
/// run: per client one pump timer, one retransmission timer and the
/// messages of its one operation in flight (a request fans out to at most
/// `n` prepares and `n` commits per replica); per replica a tick and a
/// view-change timer. This run peaked at 123 when this was written.
const PEAK_CEILING: usize = 200;

#[test]
fn pending_events_track_live_work_not_dead_timers() {
    const CLIENTS: usize = 8;
    const OPS_PER_CLIENT: u64 = 250;
    let mut sim = Simulation::new(21);
    let g = build_counter_group(&mut sim, Config::new(4), CLIENTS, 21);
    for (c, &client) in g.clients.iter().enumerate() {
        let actor = sim.actor_as_mut::<ClientActor>(client).unwrap();
        for i in 0..OPS_PER_CLIENT {
            actor.invoke(op_add(c as u64, i + 1), false);
        }
    }
    let done = |sim: &Simulation| {
        g.clients.iter().all(|&c| sim.actor_as::<ClientActor>(c).unwrap().idle())
    };
    let (mut peak, mut steps) = (0, 0u64);
    while !done(&sim) {
        assert!(sim.step(), "the queue drained with operations outstanding");
        peak = peak.max(sim.pending_events());
        steps += 1;
        assert!(steps < 5_000_000, "2 000 writes did not finish");
    }
    let retransmissions: u64 = g
        .clients
        .iter()
        .map(|&c| sim.actor_as::<ClientActor>(c).unwrap().core().retransmissions)
        .sum();
    assert_eq!(retransmissions, 0, "a fault-free run cancels every retransmission timer");
    println!(
        "event queue gauge: peak {peak} pending events over {steps} steps, \
         {CLIENTS} closed-loop clients x {OPS_PER_CLIENT} writes (ceiling {PEAK_CEILING})"
    );
    assert!(peak <= PEAK_CEILING, "peak {peak} pending events: cancelled timers are queued again");
}
