//! Actors and the per-event effect context.

use crate::time::{SimDuration, SimTime};
use crate::trace::{ProtocolEvent, TraceEvent};
use rand::rngs::StdRng;
use std::any::Any;
use std::ops::Deref;
use std::sync::Arc;

/// Identifies a node in the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Handle for cancelling a pending timer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(pub(crate) u64);

/// Refcounted, immutable message bytes.
///
/// A sender encodes a message once into a `Payload`; every queued
/// delivery, network duplicate and fan-out recipient then shares the same
/// allocation — cloning bumps a refcount instead of copying bytes. All
/// send-side APIs take `impl Into<Payload>`, so call sites can keep
/// passing `Vec<u8>` or pre-convert once and clone the handle per
/// recipient. Every conversion, from a `Vec<u8>` as much as from a slice,
/// allocates the `Arc<[u8]>` block and copies the bytes into it (the
/// refcounts sit in front of the bytes, so a `Vec`'s block cannot be
/// adopted): a sender that can lend its encoding as a slice converts from
/// the slice and skips the `Vec`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// True when `a` and `b` share the same underlying allocation, i.e.
    /// one is a refcount-bump clone of the other.
    pub fn ptr_eq(a: &Payload, b: &Payload) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Number of strong references to the underlying allocation.
    pub fn ref_count(p: &Payload) -> usize {
        Arc::strong_count(&p.0)
    }

    /// Lends out the shared frame itself, for a receiver that decodes
    /// fields as ranges of it instead of copies: each one it keeps holds
    /// the frame, and counts in [`Payload::ref_count`].
    pub fn frame(&self) -> &Arc<[u8]> {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload(v.into())
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload(v.into())
    }
}

impl From<&Vec<u8>> for Payload {
    fn from(v: &Vec<u8>) -> Self {
        Payload(v.as_slice().into())
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(v: &[u8; N]) -> Self {
        Payload(v.as_slice().into())
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A simulated node.
///
/// Handlers receive a [`Context`] through which all effects (sends, timers,
/// CPU charges) are issued; effects are applied by whoever built the
/// context (the simulator, or a caller stepping the actor by hand) after
/// the handler returns, which keeps handlers pure with respect to the event
/// queue and preserves determinism.
///
/// The `Any` supertrait enables test code to downcast actors via
/// [`crate::Simulation::actor_as`].
pub trait Actor: Any {
    /// Called once when the simulation starts (in node-id order).
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>);

    /// Called with the delivered frame itself, which the simulator hands
    /// every recipient as a shared [`Payload`]. An actor that keeps parts of
    /// a message overrides this to hold them as ranges of the frame (its
    /// `on_message` then wraps the bytes into a `Payload` once and calls
    /// it); the default lends the bytes to [`Actor::on_message`]. Never
    /// make `on_message` the default's caller too: an actor overriding
    /// neither would recurse forever.
    fn on_payload(&mut self, from: NodeId, payload: &Payload, ctx: &mut Context<'_>) {
        self.on_message(from, payload, ctx);
    }

    /// Called when a timer set with [`Context::set_timer`] fires.
    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let _ = (token, ctx);
    }
}

/// One thing a handler asked of the world through its [`Context`], queued
/// in the order it asked; whoever built the context applies them, or reads
/// them back, once the handler returns.
#[derive(Debug, PartialEq, Eq)]
pub enum Effect {
    /// Deliver `payload` to node `to`.
    Send {
        /// The recipient.
        to: NodeId,
        /// The frame, shared with every other recipient of a multicast.
        payload: Payload,
    },
    /// Fire [`Actor::on_timer`] with `token` once `delay` has passed after
    /// the handler's charged CPU time.
    SetTimer {
        /// How long after the handler finishes the timer fires.
        delay: SimDuration,
        /// Handed back to [`Actor::on_timer`].
        token: u64,
        /// The id [`Context::set_timer`] returned, for cancelling.
        id: TimerId,
    },
    /// Forget the pending timer with this id.
    CancelTimer(TimerId),
}

/// The effect context passed to actor handlers.
///
/// All interaction with the outside world goes through this context, as
/// [`Effect`]s queued for whoever built it ([`Context::new`]) to apply
/// after the handler returns.
pub struct Context<'a> {
    now: SimTime,
    self_id: NodeId,
    clock_skew: SimDuration,
    effects: &'a mut Vec<Effect>,
    charged: SimDuration,
    next_timer_id: &'a mut u64,
    rng: &'a mut StdRng,
    trace: Option<&'a mut Vec<TraceEvent>>,
    sched_lag: SimDuration,
}

impl<'a> Context<'a> {
    /// The context of one handler call on node `id` at `now`, over parts the
    /// caller owns and keeps from step to step: the node's RNG, the counter
    /// timer ids are drawn from, the buffer effects are appended to, and the
    /// trace (`None`: [`Context::emit`] records nothing). Clock skew and
    /// scheduling lag start at zero ([`Context::with_clock_skew`],
    /// [`Context::with_sched_lag`]). Once the handler returns, the caller
    /// reads [`Context::charged`] and applies, or reads, what it left in
    /// `effects`, as [`Simulation`](crate::Simulation) does.
    pub fn new(
        now: SimTime,
        id: NodeId,
        rng: &'a mut StdRng,
        next_timer_id: &'a mut u64,
        effects: &'a mut Vec<Effect>,
        trace: Option<&'a mut Vec<TraceEvent>>,
    ) -> Self {
        Context {
            now,
            self_id: id,
            clock_skew: SimDuration::ZERO,
            effects,
            charged: SimDuration::ZERO,
            next_timer_id,
            rng,
            trace,
            sched_lag: SimDuration::ZERO,
        }
    }

    /// This context with the node's local clock running `skew` ahead of
    /// true time (see [`Context::local_clock`]).
    pub fn with_clock_skew(mut self, skew: SimDuration) -> Self {
        self.clock_skew = skew;
        self
    }

    /// This context for an event that waited `lag` behind a busy node (see
    /// [`Context::sched_lag`]).
    pub fn with_sched_lag(mut self, lag: SimDuration) -> Self {
        self.sched_lag = lag;
        self
    }

    /// CPU time the handler has charged so far (see [`Context::charge`]).
    pub fn charged(&self) -> SimDuration {
        self.charged
    }

    /// Current virtual time (the global, true simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's *local* clock reading: true time plus the node's
    /// configured skew. Service implementations that timestamp data (e.g.
    /// file mtimes) must use this, which is exactly the non-determinism the
    /// BASE methodology has to mask.
    pub fn local_clock(&self) -> SimTime {
        self.now + self.clock_skew
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Queues `payload` for delivery to `to`.
    ///
    /// The message leaves this node once the handler returns (after any
    /// charged CPU time) and arrives after the configured link latency.
    /// Passing an already-converted [`Payload`] (or a clone of one) is
    /// free; passing a `Vec<u8>` or a slice allocates the shared block and
    /// copies the bytes into it once.
    pub fn send(&mut self, to: NodeId, payload: impl Into<Payload>) {
        self.effects.push(Effect::Send { to, payload: payload.into() });
    }

    /// Queues `payload` to every node in `nodes` (including `self` if
    /// listed; self-sends loop back through the queue with zero latency).
    ///
    /// The payload is converted once; every recipient shares the same
    /// allocation.
    pub fn multicast(&mut self, nodes: impl IntoIterator<Item = NodeId>, payload: impl Into<Payload>) {
        let payload = payload.into();
        for n in nodes {
            self.send(n, payload.clone());
        }
    }

    /// Schedules a timer to fire after `delay`, passing `token` back to
    /// [`Actor::on_timer`]. Returns an id usable with
    /// [`Context::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.effects.push(Effect::SetTimer { delay, token, id });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// Charges `d` of simulated CPU time to this node.
    ///
    /// The node is busy for the charged span: later events queued for it
    /// are deferred, and messages sent from this handler depart only after
    /// the charge. Protocol code uses this to model crypto and state
    /// conversion costs.
    pub fn charge(&mut self, d: SimDuration) {
        self.charged += d;
    }

    /// Deterministic per-node random number generator.
    ///
    /// Service implementations use this for their internal non-determinism
    /// (file-handle values, allocation order, ...). Seeded per node from
    /// the simulation seed, so runs are reproducible.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// True when the simulation records a trace (see
    /// [`Simulation::record_trace`](crate::Simulation::record_trace)). Lets
    /// callers skip building expensive event payloads when tracing is off.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Event-loop lag of the event that triggered this handler: how long
    /// the message or timer sat deferred behind a busy (or rebooting) node
    /// after its wire arrival / scheduled fire instant. Zero when the node
    /// was idle. Protocol code folds this into causal trace events so the
    /// span layer can attribute queueing delay exactly.
    pub fn sched_lag(&self) -> SimDuration {
        self.sched_lag
    }

    /// Emits a protocol event, stamped with the current virtual time and
    /// this node's id, into the simulation's trace. A no-op (one untaken
    /// branch) when no trace is being recorded.
    pub fn emit(&mut self, view: u64, seq: u64, event: ProtocolEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent { at: self.now, node: self.self_id, view, seq, event });
        }
    }
}
