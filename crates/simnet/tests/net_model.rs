//! Tests for the network model details: a message's size adds no delay,
//! a node's clock skew offsets only its local clock, and a reinstalled
//! node drops its old software's timers.

use base_simnet::{Actor, Context, NetConfig, NodeId, SimDuration, SimTime, Simulation};

/// Records the virtual arrival time of each message it receives.
#[derive(Default)]
struct Sink {
    arrivals: Vec<(usize, SimTime)>,
    clock_samples: Vec<(SimTime, SimTime)>,
}

impl Actor for Sink {
    fn on_message(&mut self, _from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        self.arrivals.push((payload.len(), ctx.now()));
        self.clock_samples.push((ctx.now(), ctx.local_clock()));
    }
}

/// Sends one small and one large message at the same instant.
struct TwoSizes {
    to: NodeId,
}

impl Actor for TwoSizes {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(self.to, vec![0u8; 100]);
        ctx.send(self.to, vec![0u8; 1_000_000]);
    }

    fn on_message(&mut self, _f: NodeId, _p: &[u8], _ctx: &mut Context<'_>) {}
}

fn quiet(cfg: &mut NetConfig) {
    cfg.latency.jitter = SimDuration::ZERO;
}

#[test]
fn message_size_adds_no_delay() {
    let mut sim = Simulation::new(2);
    quiet(sim.config_mut());
    let sink = sim.add_node(Box::new(Sink::default()));
    sim.add_node(Box::new(TwoSizes { to: sink }));
    sim.run_for(SimDuration::from_secs(1));
    let arrivals = &sim.actor_as::<Sink>(sink).unwrap().arrivals;
    assert_eq!(arrivals.len(), 2);
    assert_eq!(arrivals[0].1, arrivals[1].1, "same departure, same base latency");
}

#[test]
fn clock_skew_offsets_local_clock_only() {
    let mut sim = Simulation::new(3);
    quiet(sim.config_mut());
    let sink = sim.add_node(Box::new(Sink::default()));
    sim.config_mut().set_clock_skew(sink, SimDuration::from_millis(250));
    sim.add_node(Box::new(TwoSizes { to: sink }));
    sim.run_for(SimDuration::from_secs(1));
    let samples = &sim.actor_as::<Sink>(sink).unwrap().clock_samples;
    assert!(!samples.is_empty());
    for (now, local) in samples {
        // Virtual (global) time is unaffected; the node's own clock reads
        // a quarter second ahead.
        assert_eq!(
            local.as_nanos(),
            now.as_nanos() + 250_000_000,
            "local clock must be global time plus skew"
        );
    }
}

/// Ticks forever, counting into `ticks`; used to verify timer teardown.
struct Ticker {
    ticks: u64,
}

impl Actor for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(10), 7);
    }

    fn on_message(&mut self, _f: NodeId, _p: &[u8], _ctx: &mut Context<'_>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
        self.ticks += 1;
        ctx.set_timer(SimDuration::from_millis(10), 7);
    }
}

/// Counts received messages; never sets timers.
#[derive(Default)]
struct Counter {
    received: u64,
    started: bool,
}

impl Actor for Counter {
    fn on_start(&mut self, _ctx: &mut Context<'_>) {
        self.started = true;
    }

    fn on_message(&mut self, _f: NodeId, _p: &[u8], _ctx: &mut Context<'_>) {
        self.received += 1;
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_>) {
        panic!("the replacement must not inherit the old software's timers");
    }
}

#[test]
fn replace_node_swaps_software_and_drops_timers() {
    let mut sim = Simulation::new(4);
    quiet(sim.config_mut());
    let node = sim.add_node(Box::new(Ticker { ticks: 0 }));
    let other = sim.add_node(Box::new(Sink::default()));
    sim.run_for(SimDuration::from_millis(105));
    assert_eq!(sim.actor_as::<Ticker>(node).unwrap().ticks, 10);

    // Reinstall: the node keeps its id but runs different software. The
    // Ticker's pending timer must not fire into the Counter.
    sim.replace_node(node, Box::new(Counter::default()));
    assert!(sim.actor_as::<Ticker>(node).is_none(), "old software is gone");
    let c = sim.actor_as::<Counter>(node).unwrap();
    assert!(c.started, "replacement receives on_start immediately");

    // In-flight traffic reaches the new software at the same address.
    sim.inject(other, node, b"hello".to_vec());
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.actor_as::<Counter>(node).unwrap().received, 1);
}
