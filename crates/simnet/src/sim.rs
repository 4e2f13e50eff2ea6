//! The simulation driver.

use crate::actor::{Actor, Context, Effect, NodeId, Payload};
use crate::config::NetConfig;
use crate::event::{EventKind, EventQueue};
use crate::faults::{self, FilterAction, NetFault};
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;

struct NodeSlot {
    actor: Box<dyn Actor>,
    /// The node processes events serially; events arriving while the node
    /// is busy (because a handler charged CPU time) are deferred to this
    /// instant.
    busy_until: SimTime,
    /// If set, the node is down and loses all events until this instant.
    crashed_until: Option<SimTime>,
    /// Per-node deterministic RNG handed to the actor.
    rng: StdRng,
}

/// A deterministic discrete-event simulation of a message-passing system.
///
/// See the crate-level documentation for an overview and example.
pub struct Simulation {
    now: SimTime,
    queue: EventQueue,
    nodes: Vec<NodeSlot>,
    config: NetConfig,
    net_rng: StdRng,
    stats: NetStats,
    /// Network faults with the window `[from, until)` each is in force
    /// for, in the order they were added.
    faults: Vec<faults::Window>,
    trace: Option<Vec<TraceEvent>>,
    started: bool,
    next_timer_id: u64,
    seed: u64,
    /// The one effects buffer every handler invocation writes into: lent to
    /// the [`Context`], drained when the handler returns, so it is empty
    /// between invocations and only its capacity is carried over.
    effects: Vec<Effect>,
}

impl Simulation {
    /// Creates an empty simulation; all randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            nodes: Vec::new(),
            config: NetConfig::default(),
            net_rng: StdRng::seed_from_u64(seed ^ 0x006e_6574_5f72_6e67),
            stats: NetStats::default(),
            faults: Vec::new(),
            trace: None,
            started: false,
            next_timer_id: 0,
            seed,
            effects: Vec::new(),
        }
    }

    /// Adds a node and returns its id. Nodes must be added before the
    /// simulation first runs.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started.
    pub fn add_node(&mut self, actor: Box<dyn Actor>) -> NodeId {
        assert!(!self.started, "nodes must be added before the simulation starts");
        let id = NodeId(self.nodes.len());
        let rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x9e37_79b9).wrapping_mul(id.0 as u64 + 1));
        self.nodes.push(NodeSlot {
            actor,
            busy_until: SimTime::ZERO,
            crashed_until: None,
            rng,
        });
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated wire/CPU statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mutable access to the network configuration. Changes apply to
    /// messages sent after the change.
    pub fn config_mut(&mut self) -> &mut NetConfig {
        &mut self.config
    }

    /// Puts `fault` in force for messages routed in `[from, until)` of
    /// virtual time. Faults act in the order they were added: the first
    /// one in force that does not pass a message decides its fate.
    pub fn add_fault(&mut self, fault: NetFault, from: SimTime, until: SimTime) {
        self.faults.push((fault, from, until));
    }

    /// The faults in force at `t`, in the order they were added.
    pub fn faults_at(&self, t: SimTime) -> impl Iterator<Item = &NetFault> {
        faults::in_force(&self.faults, t)
    }

    /// Records every protocol event emitted through [`Context::emit`]
    /// from now on, into a new, empty trace. Until then every emission is
    /// a no-op branch.
    pub fn record_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The events recorded since [`record_trace`](Self::record_trace),
    /// oldest first, or `None` when nothing is being recorded.
    pub fn trace(&self) -> Option<&[TraceEvent]> {
        self.trace.as_deref()
    }

    /// Downcasts the actor at `id` to a concrete type.
    pub fn actor_as<T: Actor>(&self, id: NodeId) -> Option<&T> {
        let actor: &dyn Actor = self.nodes.get(id.0)?.actor.as_ref();
        (actor as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable variant of [`Simulation::actor_as`].
    pub fn actor_as_mut<T: Actor>(&mut self, id: NodeId) -> Option<&mut T> {
        let actor: &mut dyn Actor = self.nodes.get_mut(id.0)?.actor.as_mut();
        (actor as &mut dyn Any).downcast_mut::<T>()
    }

    /// Crashes `node` for `duration`: all events addressed to it in the
    /// window are lost (including its pending timers).
    pub fn crash(&mut self, node: NodeId, duration: SimDuration) {
        self.nodes[node.0].crashed_until = Some(self.now + duration);
    }

    /// Crashes `node` permanently.
    pub fn crash_forever(&mut self, node: NodeId) {
        self.nodes[node.0].crashed_until = Some(SimTime(u64::MAX));
    }

    /// Restores a crashed node immediately (it resumes receiving events;
    /// its actor state is whatever it was at crash time).
    pub fn restore(&mut self, node: NodeId) {
        self.nodes[node.0].crashed_until = None;
    }

    /// Replaces the software running at `node` with a new actor, keeping
    /// the node's identity (id, links, clock skew, RNG stream).
    ///
    /// This models re-installing a machine with a different implementation
    /// — an on-line upgrade or an opportunistic N-version deployment. The
    /// old actor is dropped with all its pending timers; the new actor
    /// receives `on_start` immediately (if the simulation is running).
    /// Messages already in flight toward the node are delivered to the new
    /// actor: the network does not know about the reinstall.
    pub fn replace_node(&mut self, node: NodeId, actor: Box<dyn Actor>) {
        self.queue.drop_timers_for(node);
        let slot = &mut self.nodes[node.0];
        slot.actor = actor;
        slot.busy_until = self.now;
        slot.crashed_until = None;
        if self.started {
            self.invoke(node, SimDuration::ZERO, |actor, ctx| actor.on_start(ctx));
        }
    }

    /// True if `node` is currently down. No caller in the tree yet: kept
    /// for explaining a stalled run, where "node crashed until t" is one of
    /// the answers.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        match self.nodes[node.0].crashed_until {
            Some(t) => self.now < t,
            None => false,
        }
    }

    /// Injects a message into the network as if `from` had sent it
    /// (useful for driving tests without a dedicated actor).
    pub fn inject(&mut self, from: NodeId, to: NodeId, payload: impl Into<Payload>) {
        self.route_message(from, to, payload.into(), self.now);
    }

    /// Runs the simulation until virtual time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.ensure_started();
        while let Some(et) = self.queue.peek_time() {
            if et > t {
                break;
            }
            self.step_one();
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Runs the simulation for `d` of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let target = self.now + d;
        self.run_until(target);
    }

    /// Runs until the event queue is empty (true; the clock then stands at
    /// the last live event handled) or `limit` is reached (false).
    pub fn run_until_idle(&mut self, limit: SimTime) -> bool {
        self.ensure_started();
        while let Some(et) = self.queue.peek_time() {
            if et > limit {
                self.now = limit;
                return false;
            }
            self.step_one();
        }
        true
    }

    /// Processes a single event. Returns false if the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        if self.queue.is_empty() {
            return false;
        }
        self.step_one();
        true
    }

    /// Number of pending events. A cancelled timer is not pending: it left
    /// the queue when it was cancelled.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.invoke(NodeId(i), SimDuration::ZERO, |actor, ctx| actor.on_start(ctx));
        }
    }

    fn step_one(&mut self) {
        let event = match self.queue.pop() {
            Some(e) => e,
            None => return,
        };
        debug_assert!(event.time >= self.now, "time went backwards");
        self.now = event.time;

        match event.kind {
            EventKind::Deliver { from, to, payload, arrived } => {
                let slot = &mut self.nodes[to.0];
                if let Some(t) = slot.crashed_until {
                    if self.now < t {
                        self.stats.record_drop();
                        return;
                    }
                    slot.crashed_until = None;
                }
                if slot.busy_until > self.now {
                    // Node is mid-computation; defer the delivery. The
                    // original arrival instant rides along so the lag the
                    // deferral causes stays observable.
                    let t = slot.busy_until;
                    self.queue.push(t, EventKind::Deliver { from, to, payload, arrived });
                    return;
                }
                let lag = self.now.since(arrived);
                self.stats.record_delivery(to, payload.len());
                self.invoke(to, lag, |actor, ctx| actor.on_payload(from, &payload, ctx));
            }
            EventKind::Timer { node, token, id, due } => {
                let slot = &mut self.nodes[node.0];
                if let Some(t) = slot.crashed_until {
                    if self.now < t {
                        // Timers are deferred while the node is down and
                        // fire when it comes back (messages, in contrast,
                        // are lost). This keeps periodic timer chains
                        // alive across crash windows.
                        if t != SimTime(u64::MAX) {
                            self.queue.push(t, EventKind::Timer { node, token, id, due });
                        }
                        return;
                    }
                    slot.crashed_until = None;
                }
                if slot.busy_until > self.now {
                    let t = slot.busy_until;
                    self.queue.push(t, EventKind::Timer { node, token, id, due });
                    return;
                }
                let lag = self.now.since(due);
                self.invoke(node, lag, |actor, ctx| actor.on_timer(token, ctx));
            }
        }
    }

    /// Runs one handler on `node` and applies its effects. `sched_lag` is
    /// the time the triggering event spent deferred behind a busy or
    /// rebooting node, surfaced to the handler via [`Context::sched_lag`].
    fn invoke<F>(&mut self, node: NodeId, sched_lag: SimDuration, f: F)
    where
        F: FnOnce(&mut dyn Actor, &mut Context<'_>),
    {
        let skew = self.config.skew(node);
        let slot = &mut self.nodes[node.0];
        // Taken, not borrowed: applying the effects below needs `self`.
        // Handlers never nest (effects are applied after the handler
        // returns, and applying one only queues events), so the buffer is
        // always at home, and empty, here.
        let mut effects = std::mem::take(&mut self.effects);
        debug_assert!(effects.is_empty(), "effects of an earlier invocation were not drained");
        let mut ctx = Context::new(
            self.now,
            node,
            &mut slot.rng,
            &mut self.next_timer_id,
            &mut effects,
            self.trace.as_mut(),
        )
        .with_clock_skew(skew)
        .with_sched_lag(sched_lag);
        f(slot.actor.as_mut(), &mut ctx);

        let charged = ctx.charged();
        let done_at = self.now + charged;
        slot.busy_until = done_at;
        if charged > SimDuration::ZERO {
            self.stats.record_cpu(node, charged);
        }

        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, payload } => {
                    self.route_message(node, to, payload, done_at);
                }
                Effect::SetTimer { delay, token, id } => {
                    let due = done_at + delay;
                    self.queue.push(due, EventKind::Timer { node, token, id, due });
                }
                Effect::CancelTimer(id) => self.queue.cancel(node, id),
            }
        }
        self.effects = effects;
    }

    /// Applies the network model and the faults in force to one message and
    /// schedules its delivery. The payload is shared, not copied: a
    /// duplicate (and every fan-out sibling queued by the sender) bumps a
    /// refcount on the same allocation; only a `Rewrite` allocates.
    fn route_message(&mut self, from: NodeId, to: NodeId, payload: Payload, departure: SimTime) {
        self.stats.record_send(from, payload.len());

        if to.0 >= self.nodes.len() {
            self.stats.record_drop();
            return;
        }

        // Latency: zero for loopback, otherwise base + uniform jitter; a
        // message's size adds no delay.
        let latency = if from == to {
            SimDuration::ZERO
        } else {
            let model = self.config.latency;
            let jitter = if model.jitter.as_nanos() == 0 {
                0
            } else {
                self.net_rng.gen_range(0..=model.jitter.as_nanos())
            };
            model.base + SimDuration::from_nanos(jitter)
        };
        let mut arrival = departure + latency;

        let mut deliver_payload = payload;
        match faults::route(&self.faults, from, to, &deliver_payload, self.now, &mut self.net_rng) {
            FilterAction::Pass => {}
            FilterAction::Drop => {
                self.stats.record_drop();
                return;
            }
            FilterAction::Delay(d) => arrival += d,
            FilterAction::Rewrite(p) => deliver_payload = p.into(),
            FilterAction::Duplicate(d) => {
                self.queue.push(
                    arrival + d,
                    EventKind::Deliver {
                        from,
                        to,
                        payload: deliver_payload.clone(),
                        arrived: arrival + d,
                    },
                );
            }
        }

        self.queue
            .push(arrival, EventKind::Deliver { from, to, payload: deliver_payload, arrived: arrival });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::TimerId;
    use crate::config::LatencyModel;

    /// Counts received messages; replies to "ping" with "pong".
    #[derive(Default)]
    struct Counter {
        received: Vec<(NodeId, Vec<u8>)>,
        timer_fired: Vec<u64>,
    }

    impl Actor for Counter {
        fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
            self.received.push((from, payload.to_vec()));
            if payload == b"ping" {
                ctx.send(from, b"pong".to_vec());
            }
        }

        fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_>) {
            self.timer_fired.push(token);
        }
    }

    /// Sends a ping at start and sets a few timers.
    struct Starter {
        target: NodeId,
        got_pong: bool,
        cancelled_fired: bool,
    }

    impl Actor for Starter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.target, b"ping".to_vec());
            let id = ctx.set_timer(SimDuration::from_millis(1), 1);
            ctx.cancel_timer(id);
            ctx.set_timer(SimDuration::from_millis(2), 2);
        }

        fn on_message(&mut self, _from: NodeId, payload: &[u8], _ctx: &mut Context<'_>) {
            if payload == b"pong" {
                self.got_pong = true;
            }
        }

        fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_>) {
            if token == 1 {
                self.cancelled_fired = true;
            }
        }
    }

    #[test]
    fn request_reply_and_timers() {
        let mut sim = Simulation::new(1);
        let a = sim.add_node(Box::<Counter>::default());
        let b = sim.add_node(Box::new(Starter { target: a, got_pong: false, cancelled_fired: false }));
        sim.run_for(SimDuration::from_millis(10));
        let starter = sim.actor_as::<Starter>(b).unwrap();
        assert!(starter.got_pong);
        assert!(!starter.cancelled_fired, "cancelled timer must not fire");
        assert_eq!(sim.actor_as::<Counter>(a).unwrap().received.len(), 1);
    }

    #[test]
    fn one_invocations_effects_never_reach_the_next() {
        // Every handler writes into the one buffer the simulation owns; it
        // must come back drained, or the next handler's (empty) effect
        // list would replay the previous one's sends and timers.
        struct Burst {
            peer: NodeId,
            cancelled_fired: bool,
        }
        impl Actor for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for i in 0..3u8 {
                    ctx.send(self.peer, vec![i]);
                }
                let id = ctx.set_timer(SimDuration::from_millis(1), 9);
                ctx.cancel_timer(id);
            }
            fn on_message(&mut self, _f: NodeId, _p: &[u8], _ctx: &mut Context<'_>) {}
            fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_>) {
                self.cancelled_fired = true;
            }
        }
        /// Handles every delivery by doing nothing.
        #[derive(Default)]
        struct Idle {
            handled: usize,
        }
        impl Actor for Idle {
            fn on_message(&mut self, _f: NodeId, _p: &[u8], _ctx: &mut Context<'_>) {
                self.handled += 1;
            }
        }
        let mut sim = Simulation::new(1);
        let idle = sim.add_node(Box::<Idle>::default());
        let burst = sim.add_node(Box::new(Burst { peer: idle, cancelled_fired: false }));
        // One step: `on_start` of both nodes (five effects applied), then
        // the first delivery, whose handler issues nothing and so must
        // apply nothing: of the three deliveries queued, one is consumed
        // and no event is added. The timer is not among them: it was
        // cancelled in the handler that set it and left the queue there.
        assert!(sim.step());
        assert_eq!(sim.actor_as::<Idle>(idle).unwrap().handled, 1);
        assert_eq!(sim.stats().messages_sent, 3);
        assert_eq!(sim.pending_events(), 2);
        assert!(sim.effects.is_empty());
        assert!(sim.effects.capacity() >= 5, "the allocation is what is carried over");
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.actor_as::<Idle>(idle).unwrap().handled, 3);
        assert_eq!(sim.stats().messages_sent, 3, "an idle handler re-applied stale sends");
        assert_eq!(sim.stats().messages_delivered, 3);
        assert!(!sim.actor_as::<Burst>(burst).unwrap().cancelled_fired);
        assert_eq!(sim.pending_events(), 0);
        assert!(sim.effects.is_empty());
    }

    /// Does one of everything a handler can do to the world, and notes what
    /// it read of its context: the clock, its id, its local clock, the lag,
    /// whether a trace is kept, and one draw from its RNG.
    #[derive(Default)]
    struct Everything {
        seen: Vec<(SimTime, NodeId, SimTime, SimDuration, bool, u64)>,
    }

    impl Actor for Everything {
        fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
            let draw = ctx.rng().gen::<u64>();
            self.seen.push((
                ctx.now(),
                ctx.id(),
                ctx.local_clock(),
                ctx.sched_lag(),
                ctx.trace_enabled(),
                draw,
            ));
            ctx.send(from, payload.to_vec());
            ctx.multicast([NodeId(0), NodeId(1)], b"all".to_vec());
            let gone = ctx.set_timer(SimDuration::ZERO, 1);
            ctx.set_timer(SimDuration::ZERO, 2);
            ctx.cancel_timer(gone);
            ctx.charge(SimDuration::from_micros(30));
            ctx.emit(0, draw, crate::trace::ProtocolEvent::CheckpointStable);
        }
    }

    /// A step the simulation runs and the same step on a context built by
    /// hand over the same parts (clock, id, skew, lag, the node's RNG, the
    /// timer-id counter, a trace) read the same, ask for the same effects
    /// with the same timer ids, charge the same and trace the same. The
    /// simulation applies effects as it takes them, so its sequence is
    /// read back off its queue, which a cancelled timer has left: every
    /// effect is due at the end of the charge, so the queue gives them back
    /// in the order they were asked for.
    #[test]
    fn a_step_by_hand_is_the_step_the_simulation_takes() {
        let (skew, lag) = (SimDuration::from_millis(5), SimDuration::from_micros(250));
        let mut sim = Simulation::new(5);
        sim.config_mut().latency = LatencyModel::instant();
        let a = sim.add_node(Box::<Counter>::default());
        let _b = sim.add_node(Box::<Counter>::default());
        let node = sim.add_node(Box::<Everything>::default());
        sim.config_mut().set_clock_skew(node, skew);
        sim.record_trace();
        sim.run_until(SimTime::from_millis(1));
        // One delivery that waited `lag` behind a busy node.
        let at = SimTime::from_millis(1) + lag;
        let payload = Payload::from(b"x");
        let arrived = SimTime::from_millis(1);
        sim.queue.push(at, EventKind::Deliver { from: a, to: node, payload, arrived });
        let (mut rng, mut next_timer_id) = (sim.nodes[node.0].rng.clone(), sim.next_timer_id);
        assert!(sim.step());
        let mut queued = Vec::new();
        while let Some(event) = sim.queue.pop() {
            queued.push(match event.kind {
                EventKind::Deliver { to, payload, .. } => Effect::Send { to, payload },
                EventKind::Timer { token, id, due, .. } => {
                    Effect::SetTimer { delay: due.since(event.time), token, id }
                }
            });
        }

        let mut twin = Everything::default();
        let (mut effects, mut trace) = (Vec::new(), Vec::new());
        let first_id = next_timer_id;
        let mut ctx =
            Context::new(at, node, &mut rng, &mut next_timer_id, &mut effects, Some(&mut trace))
                .with_clock_skew(skew)
                .with_sched_lag(lag);
        twin.on_message(a, b"x", &mut ctx);
        let charged = ctx.charged();

        assert_eq!(twin.seen, sim.actor_as::<Everything>(node).unwrap().seen);
        assert_eq!(twin.seen[0].2, at + skew);
        assert_eq!(twin.seen[0].3, lag);
        assert_eq!(charged, sim.stats().cpu_by[&node]);
        assert_eq!(trace, sim.trace().unwrap());
        let send = |to, payload: &[u8]| Effect::Send { to, payload: payload.into() };
        let timer = |token, id| Effect::SetTimer { delay: SimDuration::ZERO, token, id: TimerId(id) };
        assert_eq!(
            effects,
            [
                send(a, b"x"),
                send(NodeId(0), b"all"),
                send(NodeId(1), b"all"),
                timer(1, first_id),
                timer(2, first_id + 1),
                Effect::CancelTimer(TimerId(first_id)),
            ]
        );
        assert_eq!(next_timer_id, sim.next_timer_id);
        effects.retain(|e| !matches!(e, Effect::CancelTimer(_) | Effect::SetTimer { token: 1, .. }));
        assert_eq!(queued, effects);
    }

    #[test]
    fn same_seed_same_history() {
        let run = |seed| {
            let mut sim = Simulation::new(seed);
            let a = sim.add_node(Box::<Counter>::default());
            let _b = sim.add_node(Box::new(Starter { target: a, got_pong: false, cancelled_fired: false }));
            sim.run_for(SimDuration::from_millis(50));
            (sim.stats().messages_delivered, sim.stats().bytes_delivered)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn emit_without_a_trace_records_nothing() {
        /// Emits one event per millisecond tick, noting whether tracing
        /// was on.
        #[derive(Default)]
        struct Emitter {
            enabled: Vec<bool>,
        }
        impl Actor for Emitter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_message(&mut self, _f: NodeId, _p: &[u8], _ctx: &mut Context<'_>) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
                self.enabled.push(ctx.trace_enabled());
                ctx.emit(0, 1, crate::trace::ProtocolEvent::CheckpointStable);
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        let mut sim = Simulation::new(1);
        let node = sim.add_node(Box::<Emitter>::default());
        sim.run_until(SimTime::from_millis(3));
        assert!(sim.trace().is_none());
        // The same emissions are recorded once recording starts.
        sim.record_trace();
        sim.run_until(SimTime::from_millis(5));
        let events = sim.trace().expect("recording");
        assert_eq!(events.iter().map(|e| e.at.as_millis()).collect::<Vec<_>>(), [4, 5]);
        assert!(events.iter().all(|e| e.node == node));
        let enabled = &sim.actor_as::<Emitter>(node).unwrap().enabled;
        assert_eq!(enabled, &[false, false, false, true, true]);
    }

    #[test]
    fn crashed_node_loses_messages() {
        let mut sim = Simulation::new(1);
        let a = sim.add_node(Box::<Counter>::default());
        sim.crash(a, SimDuration::from_secs(1));
        sim.inject(NodeId(0), a, b"lost".to_vec());
        sim.run_for(SimDuration::from_millis(10));
        assert!(sim.actor_as::<Counter>(a).unwrap().received.is_empty());
        assert_eq!(sim.stats().messages_dropped, 1);
    }

    #[test]
    fn node_recovers_after_crash_window() {
        let mut sim = Simulation::new(1);
        let a = sim.add_node(Box::<Counter>::default());
        sim.crash(a, SimDuration::from_millis(5));
        sim.run_for(SimDuration::from_millis(6));
        sim.inject(NodeId(0), a, b"hello".to_vec());
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.actor_as::<Counter>(a).unwrap().received.len(), 1);
    }

    #[test]
    fn timers_defer_across_crash_windows() {
        struct Ticker {
            fired_at: Vec<SimTime>,
        }
        impl Actor for Ticker {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(2), 7);
            }
            fn on_message(&mut self, _f: NodeId, _p: &[u8], _ctx: &mut Context<'_>) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
                self.fired_at.push(ctx.now());
                ctx.set_timer(SimDuration::from_millis(2), 7);
            }
        }
        let mut sim = Simulation::new(1);
        let a = sim.add_node(Box::new(Ticker { fired_at: Vec::new() }));
        sim.run_for(SimDuration::from_millis(5)); // ~2 fires.
        sim.crash(a, SimDuration::from_millis(20));
        sim.run_for(SimDuration::from_millis(40));
        let fired = &sim.actor_as::<Ticker>(a).unwrap().fired_at;
        // The tick due during the crash fires at the crash end, and the
        // chain keeps running afterwards.
        assert!(fired.iter().any(|t| *t >= SimTime(25_000_000)), "chain died: {fired:?}");
        assert!(
            !fired.iter().any(|t| *t > SimTime(5_000_000) && *t < SimTime(25_000_000)),
            "timer fired during crash: {fired:?}"
        );
    }

    #[test]
    fn partition_blocks_traffic() {
        let mut sim = Simulation::new(1);
        let a = sim.add_node(Box::<Counter>::default());
        let b = sim.add_node(Box::<Counter>::default());
        let healed = SimTime::from_millis(5);
        sim.add_fault(NetFault::Partition { nodes: vec![a] }, SimTime::ZERO, healed);
        sim.inject(a, b, b"x".to_vec());
        assert_eq!(sim.faults_at(SimTime::ZERO).count(), 1);
        sim.run_for(SimDuration::from_millis(10));
        assert!(sim.actor_as::<Counter>(b).unwrap().received.is_empty());
        // The partition heals with its window.
        assert_eq!(sim.faults_at(sim.now()).count(), 0);
        sim.inject(a, b, b"y".to_vec());
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.actor_as::<Counter>(b).unwrap().received.len(), 1);
    }

    /// A handler that charges CPU time; used to check busy deferral.
    struct Busy {
        handled_at: Vec<SimTime>,
    }

    impl Actor for Busy {
        fn on_message(&mut self, _from: NodeId, _payload: &[u8], ctx: &mut Context<'_>) {
            self.handled_at.push(ctx.now());
            ctx.charge(SimDuration::from_millis(10));
        }
    }

    #[test]
    fn charged_cpu_defers_subsequent_events() {
        let mut sim = Simulation::new(1);
        sim.config_mut().latency = LatencyModel::instant();
        let a = sim.add_node(Box::new(Busy { handled_at: Vec::new() }));
        // Two back-to-back messages: the second must wait out the charge.
        sim.inject(NodeId(0), a, b"1".to_vec());
        sim.inject(NodeId(0), a, b"2".to_vec());
        sim.run_for(SimDuration::from_millis(100));
        let busy = sim.actor_as::<Busy>(a).unwrap();
        assert_eq!(busy.handled_at.len(), 2);
        let gap = busy.handled_at[1] - busy.handled_at[0];
        assert!(gap >= SimDuration::from_millis(10), "gap was {gap}");
        assert_eq!(sim.stats().cpu_by[&a], SimDuration::from_millis(20));
    }

    #[test]
    fn drop_probability_loses_messages() {
        let mut sim = Simulation::new(3);
        let a = sim.add_node(Box::<Counter>::default());
        let b = sim.add_node(Box::<Counter>::default());
        sim.add_fault(NetFault::Drop { prob: 0.5 }, SimTime::ZERO, SimTime(u64::MAX));
        for _ in 0..200 {
            sim.inject(a, b, b"x".to_vec());
        }
        sim.run_for(SimDuration::from_secs(1));
        let delivered = sim.actor_as::<Counter>(b).unwrap().received.len();
        assert!(delivered > 50 && delivered < 150, "delivered {delivered}");
    }

    /// Receives messages and keeps the delivered `Payload` handles so the
    /// test can check allocation sharing.
    #[derive(Default)]
    struct Keeper {
        received: Vec<Payload>,
    }

    impl Actor for Keeper {
        fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
            self.on_payload(from, &Payload::from(payload), ctx);
        }

        fn on_payload(&mut self, _from: NodeId, payload: &Payload, _ctx: &mut Context<'_>) {
            self.received.push(payload.clone());
        }
    }

    /// Broadcasts one payload to every peer via `Context::multicast`.
    struct Broadcaster {
        peers: Vec<NodeId>,
    }

    impl Actor for Broadcaster {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.multicast(self.peers.clone(), b"broadcast-me".to_vec());
        }
        fn on_message(&mut self, _f: NodeId, _p: &[u8], _ctx: &mut Context<'_>) {}
    }

    #[test]
    fn fan_out_shares_one_allocation_and_accounts_bytes() {
        // A multicast to k peers must still *account* k sends on the wire
        // (the network model charges per copy in flight) while sharing a
        // single refcounted allocation in memory.
        struct Probe {
            peers: Vec<NodeId>,
        }
        impl Actor for Probe {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let p = Payload::from(b"shared".as_slice());
                for &n in &self.peers {
                    ctx.send(n, p.clone());
                }
                // Sender still holds `p` plus one queued effect per peer.
                assert_eq!(Payload::ref_count(&p), 1 + self.peers.len());
            }
            fn on_message(&mut self, _f: NodeId, _p: &[u8], _ctx: &mut Context<'_>) {}
        }
        let mut sim = Simulation::new(1);
        let a = sim.add_node(Box::<Counter>::default());
        let b = sim.add_node(Box::<Counter>::default());
        let c = sim.add_node(Box::<Counter>::default());
        let src = sim.add_node(Box::new(Probe { peers: vec![a, b, c] }));
        sim.run_for(SimDuration::from_millis(10));
        // Wire accounting is per-copy even though memory is shared.
        assert_eq!(sim.stats().bytes_sent_by[&src], 3 * b"shared".len() as u64);
        assert_eq!(sim.stats().messages_delivered, 3);
        for n in [a, b, c] {
            assert_eq!(sim.actor_as::<Counter>(n).unwrap().received.len(), 1);
        }
    }

    #[test]
    fn multicast_converts_once() {
        let mut sim = Simulation::new(1);
        let a = sim.add_node(Box::<Keeper>::default());
        let b = sim.add_node(Box::<Keeper>::default());
        let src = sim.add_node(Box::new(Broadcaster { peers: vec![a, b] }));
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.stats().bytes_sent_by[&src], 2 * b"broadcast-me".len() as u64);
        for n in [a, b] {
            assert_eq!(sim.actor_as::<Keeper>(n).unwrap().received.len(), 1);
        }
        // Each recipient was handed the frame itself, not a copy of it.
        let kept = |n| &sim.actor_as::<Keeper>(n).unwrap().received[0];
        assert!(Payload::ptr_eq(kept(a), kept(b)));
        assert_eq!(Payload::ref_count(kept(a)), 2);
    }

    #[test]
    fn duplicate_shares_the_original_allocation() {
        // The Duplicate fault produces two deliveries, and the queued
        // duplicate is a refcount bump, observable on an injected Payload
        // handle we retain.
        let mut sim = Simulation::new(1);
        let a = sim.add_node(Box::<Counter>::default());
        let b = sim.add_node(Box::<Counter>::default());
        sim.add_fault(NetFault::Duplicate { prob: 1.0 }, SimTime::ZERO, SimTime(u64::MAX));
        let handle = Payload::from(b"dup".as_slice());
        sim.inject(a, b, handle.clone());
        // Original + duplicate sit in the queue sharing our allocation.
        assert_eq!(Payload::ref_count(&handle), 3);
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.actor_as::<Counter>(b).unwrap().received.len(), 2);
        assert_eq!(Payload::ref_count(&handle), 1);
    }

    #[test]
    fn local_clock_reflects_skew() {
        struct SkewProbe {
            local: Option<SimTime>,
        }
        impl Actor for SkewProbe {
            fn on_message(&mut self, _f: NodeId, _p: &[u8], ctx: &mut Context<'_>) {
                self.local = Some(ctx.local_clock());
            }
        }
        let mut sim = Simulation::new(1);
        sim.config_mut().latency = LatencyModel::instant();
        let a = sim.add_node(Box::new(SkewProbe { local: None }));
        sim.config_mut().set_clock_skew(a, SimDuration::from_secs(5));
        sim.inject(NodeId(0), a, b"x".to_vec());
        sim.run_for(SimDuration::from_millis(1));
        let probe = sim.actor_as::<SkewProbe>(a).unwrap();
        assert!(probe.local.unwrap() >= SimTime::ZERO + SimDuration::from_secs(5));
    }
}
