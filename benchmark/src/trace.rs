//! Spans recorded from outside the library, on its three public seams.
//!
//! [`TimedActor`] wraps a `simnet::Actor`, [`TimedService`] a
//! `pbft::Service`, [`TimedWrapper`] a `core::Wrapper`. Each opens a span
//! around every call into the thing it wraps. Spans nest on one stack (the
//! simulator drives everything from one thread), so a layer's *self* time
//! is its span minus the spans opened inside it, and the self times of all
//! layers add up to the root spans — the timed slices — by construction.
//! What the slice root keeps for itself is the simulator: event queue,
//! routing, effect application.
//!
//! The interposers issue no effects, charge no simulated CPU and draw no
//! random numbers, so a traced run follows the same schedule as an
//! untraced one (`tests/interpose.rs` holds that to byte equality).

use base::{Footprint, ModifyLog, Wrapper};
use base_crypto::Digest;
use base_pbft::{ExecEnv, PartitionTree, Service};
use base_simnet::{Actor, Context, NodeId, Simulation};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// What a span is charged to. The order is the column order of every
/// report and the index into [`TraceData::self_ns`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// Root span of one timed slice; its self time is the simulator's.
    Simnet,
    /// Replica handling a client request.
    ReplicaRequest,
    /// Replica handling a pre-prepare.
    ReplicaPrePrepare,
    /// Replica handling a prepare.
    ReplicaPrepare,
    /// Replica handling a commit.
    ReplicaCommit,
    /// Replica handling a checkpoint message.
    ReplicaCheckpoint,
    /// Replica handling any state-transfer message (meta, object, chunk,
    /// fragment, certificate fetches and their replies).
    ReplicaTransfer,
    /// Replica handling a view-change or new-view message.
    ReplicaViewChange,
    /// Replica timer: tick, view-change timer, recovery watchdog.
    ReplicaTimer,
    /// Replica handling anything else (status, stray replies, garbage).
    ReplicaOther,
    /// A client node: `BaseClient` or the NFS relay.
    Client,
    /// The sharded router (`ShardedClient`), its embedded cores included.
    Router,
    /// `ShardLockService`, outside the service it wraps.
    Lock,
    /// `Service::execute` / `execute_batch`.
    SvcExecute,
    /// `Service::take_checkpoint`.
    SvcCheckpoint,
    /// `Service::checkpoint_meta` / `checkpoint_object`: serving a fetcher.
    SvcServe,
    /// `Service::install_checkpoint`.
    SvcInstall,
    /// Every other service upcall (nondet, discard, reboot, prepare).
    SvcOther,
    /// `Wrapper::execute`.
    WrapExecute,
    /// `Wrapper::put_objs`.
    WrapPutObjs,
    /// `Wrapper::reset` / `rebuild_rep` / `propose_nondet`.
    WrapOther,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 21] = [
    Layer::Simnet,
    Layer::ReplicaRequest,
    Layer::ReplicaPrePrepare,
    Layer::ReplicaPrepare,
    Layer::ReplicaCommit,
    Layer::ReplicaCheckpoint,
    Layer::ReplicaTransfer,
    Layer::ReplicaViewChange,
    Layer::ReplicaTimer,
    Layer::ReplicaOther,
    Layer::Client,
    Layer::Router,
    Layer::Lock,
    Layer::SvcExecute,
    Layer::SvcCheckpoint,
    Layer::SvcServe,
    Layer::SvcInstall,
    Layer::SvcOther,
    Layer::WrapExecute,
    Layer::WrapPutObjs,
    Layer::WrapOther,
];

impl Layer {
    /// Span name, as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Simnet => "simnet",
            Layer::ReplicaRequest => "pbft.replica.request",
            Layer::ReplicaPrePrepare => "pbft.replica.preprepare",
            Layer::ReplicaPrepare => "pbft.replica.prepare",
            Layer::ReplicaCommit => "pbft.replica.commit",
            Layer::ReplicaCheckpoint => "pbft.replica.checkpoint",
            Layer::ReplicaTransfer => "pbft.replica.transfer",
            Layer::ReplicaViewChange => "pbft.replica.viewchange",
            Layer::ReplicaTimer => "pbft.replica.timer",
            Layer::ReplicaOther => "pbft.replica.other",
            Layer::Client => "pbft.client",
            Layer::Router => "core.shard.router",
            Layer::Lock => "core.shard.lock",
            Layer::SvcExecute => "core.service.execute",
            Layer::SvcCheckpoint => "core.service.checkpoint",
            Layer::SvcServe => "core.service.serve",
            Layer::SvcInstall => "core.service.install",
            Layer::SvcOther => "core.service.other",
            Layer::WrapExecute => "wrapper.execute",
            Layer::WrapPutObjs => "wrapper.put_objs",
            Layer::WrapOther => "wrapper.other",
        }
    }
}

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was reset.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What the span is charged to.
    pub layer: Layer,
    /// Index of the enclosing span in [`TraceData::spans`], or
    /// [`NO_PARENT`].
    pub parent: u32,
    /// Which timed slice the span ran in.
    pub slice: u32,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    /// Index in `spans`, or `NO_PARENT` once the cap is reached.
    index: u32,
}

struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    self_ns: [u64; LAYERS.len()],
    calls: [u64; LAYERS.len()],
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    slice: u32,
}

impl Tracer {
    fn new(cap: usize) -> Self {
        Self {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            self_ns: [0; LAYERS.len()],
            calls: [0; LAYERS.len()],
            spans: Vec::new(),
            cap,
            dropped: 0,
            slice: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new(0));
}

/// `get_obj` runs on the library's digest worker threads, off the span
/// stack, so it is summed here instead: thread time, not wall time.
static GET_OBJ_NS: AtomicU64 = AtomicU64::new(0);
static GET_OBJ_CALLS: AtomicU64 = AtomicU64::new(0);

/// Everything one traced window recorded.
pub struct TraceData {
    /// Self time per layer, indexed like [`LAYERS`].
    pub self_ns: [u64; LAYERS.len()],
    /// Spans closed per layer, indexed like [`LAYERS`].
    pub calls: [u64; LAYERS.len()],
    /// The first `cap` spans opened, in opening order.
    pub spans: Vec<Span>,
    /// Spans opened after the cap and so not kept (still counted above).
    pub dropped: u64,
    /// Summed thread time inside `Wrapper::get_obj`.
    pub get_obj_ns: u64,
    /// `Wrapper::get_obj` calls.
    pub get_obj_calls: u64,
}

impl TraceData {
    /// Self time of `layer`.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Self time of every layer together: equals the summed duration of
    /// the root spans.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

/// Starts a fresh recording that keeps at most `cap` spans in full.
pub fn reset(cap: usize) {
    TRACER.with(|t| *t.borrow_mut() = Tracer::new(cap));
    GET_OBJ_NS.store(0, Relaxed);
    GET_OBJ_CALLS.store(0, Relaxed);
}

/// Ends the recording and returns it.
pub fn take() -> TraceData {
    let t = TRACER.with(|t| std::mem::replace(&mut *t.borrow_mut(), Tracer::new(0)));
    assert!(t.stack.is_empty(), "trace taken inside an open span");
    TraceData {
        self_ns: t.self_ns,
        calls: t.calls,
        spans: t.spans,
        dropped: t.dropped,
        get_obj_ns: GET_OBJ_NS.load(Relaxed),
        get_obj_calls: GET_OBJ_CALLS.load(Relaxed),
    }
}

/// Numbers the spans that follow as belonging to the next slice.
pub fn next_slice() {
    TRACER.with(|t| t.borrow_mut().slice += 1);
}

fn enter(layer: Layer) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let start_ns = t.now_ns();
        let index = if t.spans.len() < t.cap {
            let parent = t.stack.last().map_or(NO_PARENT, |o| o.index);
            let slice = t.slice;
            t.spans.push(Span {
                layer,
                parent,
                slice,
                start_ns,
                end_ns: start_ns,
            });
            (t.spans.len() - 1) as u32
        } else {
            t.dropped += 1;
            NO_PARENT
        };
        t.stack.push(Open {
            layer,
            start_ns,
            child_ns: 0,
            index,
        });
    });
}

fn exit() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end_ns = t.now_ns();
        let open = t.stack.pop().expect("span exit without enter");
        let dur = end_ns - open.start_ns;
        t.self_ns[open.layer as usize] += dur - open.child_ns.min(dur);
        t.calls[open.layer as usize] += 1;
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.index != NO_PARENT {
            t.spans[open.index as usize].end_ns = end_ns;
        }
    });
}

/// Closes its span when dropped.
pub struct Guard(());

impl Drop for Guard {
    fn drop(&mut self) {
        exit();
    }
}

/// Opens a span charged to `layer`; it closes when the guard drops.
pub fn span(layer: Layer) -> Guard {
    enter(layer);
    Guard(())
}

/// Which kind of node a [`TimedActor`] wraps; picks the span names.
#[derive(Clone, Copy, Debug)]
pub enum NodeKind {
    /// A `Replica`: spans are named after the message tag.
    Replica,
    /// A client node.
    Client,
    /// A sharded router.
    Router,
}

/// First XDR word of a protocol message picks the replica span. A sharded
/// group prefixes `[19, shard]`, so the tag is then the third word.
fn replica_layer(payload: &[u8]) -> Layer {
    let word = |i: usize| {
        payload
            .get(4 * i..4 * i + 4)
            .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    };
    let tag = match word(0) {
        Some(base_pbft::messages::SHARD_ENVELOPE_TAG) => word(2),
        other => other,
    };
    match tag {
        Some(0) => Layer::ReplicaRequest,
        Some(2) => Layer::ReplicaPrePrepare,
        Some(3) => Layer::ReplicaPrepare,
        Some(4) => Layer::ReplicaCommit,
        Some(5) => Layer::ReplicaCheckpoint,
        Some(6 | 7) => Layer::ReplicaViewChange,
        Some(8..=13 | 15..=18) => Layer::ReplicaTransfer,
        _ => Layer::ReplicaOther,
    }
}

/// An actor with a span around each of its handlers.
pub struct TimedActor<A> {
    /// The wrapped actor.
    pub inner: A,
    kind: NodeKind,
}

impl<A> TimedActor<A> {
    /// Wraps `inner`.
    pub fn new(inner: A, kind: NodeKind) -> Self {
        Self { inner, kind }
    }
}

impl<A: Actor> Actor for TimedActor<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Runs before the first slice, so outside any timed window.
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        let _g = span(match self.kind {
            NodeKind::Replica => replica_layer(payload),
            NodeKind::Client => Layer::Client,
            NodeKind::Router => Layer::Router,
        });
        self.inner.on_message(from, payload, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let _g = span(match self.kind {
            NodeKind::Replica => Layer::ReplicaTimer,
            NodeKind::Client => Layer::Client,
            NodeKind::Router => Layer::Router,
        });
        self.inner.on_timer(token, ctx);
    }
}

/// The actor at `id`, whether or not a [`TimedActor`] sits around it.
pub fn actor<A: Actor>(sim: &Simulation, id: NodeId) -> &A {
    if let Some(a) = sim.actor_as::<A>(id) {
        return a;
    }
    &sim.actor_as::<TimedActor<A>>(id)
        .expect("node holds the expected actor type")
        .inner
}

/// Mutable [`actor`].
pub fn actor_mut<A: Actor>(sim: &mut Simulation, id: NodeId) -> &mut A {
    if sim.actor_as::<A>(id).is_some() {
        return sim.actor_as_mut::<A>(id).expect("checked above");
    }
    &mut sim
        .actor_as_mut::<TimedActor<A>>(id)
        .expect("node holds the expected actor type")
        .inner
}

/// A service with a span around each upcall.
pub struct TimedService<S> {
    inner: S,
    /// True for the interposer outside a `ShardLockService`: every span is
    /// then charged to [`Layer::Lock`], whose self time is what the lock
    /// service adds on top of the (separately wrapped) service inside it.
    lock: bool,
}

impl<S> TimedService<S> {
    /// Wraps a service whose spans are the `core.service.*` ones.
    pub fn new(inner: S) -> Self {
        Self { inner, lock: false }
    }

    /// Wraps a `ShardLockService`.
    pub fn lock(inner: S) -> Self {
        Self { inner, lock: true }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn span(&self, layer: Layer) -> Guard {
        span(if self.lock { Layer::Lock } else { layer })
    }
}

impl<S: Service> Service for TimedService<S> {
    fn execute(
        &mut self,
        op: &[u8],
        client: u32,
        nondet: &[u8],
        read_only: bool,
        env: &mut ExecEnv<'_>,
    ) -> Vec<u8> {
        let _g = self.span(Layer::SvcExecute);
        self.inner.execute(op, client, nondet, read_only, env)
    }

    fn execute_batch(
        &mut self,
        ops: &[(&[u8], u32)],
        nondet: &[u8],
        env: &mut ExecEnv<'_>,
    ) -> Vec<Vec<u8>> {
        let _g = self.span(Layer::SvcExecute);
        self.inner.execute_batch(ops, nondet, env)
    }

    fn set_exec_workers(&mut self, workers: usize) {
        self.inner.set_exec_workers(workers);
    }

    fn set_chunk_size(&mut self, chunk_size: usize) {
        self.inner.set_chunk_size(chunk_size);
    }

    fn transfer_object(&mut self, index: u64) -> Option<Vec<u8>> {
        let _g = self.span(Layer::SvcOther);
        self.inner.transfer_object(index)
    }

    fn propose_nondet(&mut self, env: &mut ExecEnv<'_>) -> Vec<u8> {
        let _g = self.span(Layer::SvcOther);
        self.inner.propose_nondet(env)
    }

    fn check_nondet(&self, nondet: &[u8], env: &mut ExecEnv<'_>) -> bool {
        let _g = self.span(Layer::SvcOther);
        self.inner.check_nondet(nondet, env)
    }

    fn take_checkpoint(&mut self, seq: u64, env: &mut ExecEnv<'_>) -> Digest {
        let _g = self.span(Layer::SvcCheckpoint);
        self.inner.take_checkpoint(seq, env)
    }

    fn discard_checkpoints_below(&mut self, seq: u64) {
        let _g = self.span(Layer::SvcOther);
        self.inner.discard_checkpoints_below(seq);
    }

    fn checkpoint_meta(&self, seq: u64, level: u32, index: u64) -> Option<Vec<Digest>> {
        let _g = self.span(Layer::SvcServe);
        self.inner.checkpoint_meta(seq, level, index)
    }

    fn checkpoint_object(&mut self, seq: u64, index: u64) -> Option<Vec<u8>> {
        let _g = self.span(Layer::SvcServe);
        self.inner.checkpoint_object(seq, index)
    }

    fn current_tree(&self) -> &PartitionTree {
        self.inner.current_tree()
    }

    fn prepare_for_transfer(&mut self, env: &mut ExecEnv<'_>) {
        let _g = self.span(Layer::SvcOther);
        self.inner.prepare_for_transfer(env);
    }

    fn install_checkpoint(
        &mut self,
        seq: u64,
        root: Digest,
        objs: Vec<(u64, Option<Vec<u8>>)>,
        env: &mut ExecEnv<'_>,
    ) {
        let _g = self.span(Layer::SvcInstall);
        self.inner.install_checkpoint(seq, root, objs, env);
    }

    fn reboot(&mut self, clean: bool, env: &mut ExecEnv<'_>) {
        let _g = self.span(Layer::SvcOther);
        self.inner.reboot(clean, env);
    }

    fn corrupt_state(&mut self, seed: u64) {
        self.inner.corrupt_state(seed);
    }
}

/// A wrapper with a span around each mutating upcall. The `&self` upcalls
/// may run on worker threads: `get_obj` is summed in atomics, the rest
/// pass straight through.
pub struct TimedWrapper<W>(pub W);

impl<W: Wrapper> Wrapper for TimedWrapper<W> {
    fn execute(
        &mut self,
        op: &[u8],
        client: u32,
        nondet: &[u8],
        read_only: bool,
        mods: &mut ModifyLog,
        env: &mut ExecEnv<'_>,
    ) -> Vec<u8> {
        let _g = span(Layer::WrapExecute);
        self.0.execute(op, client, nondet, read_only, mods, env)
    }

    fn get_obj(&self, index: u64) -> Option<Vec<u8>> {
        let t0 = Instant::now();
        let v = self.0.get_obj(index);
        GET_OBJ_NS.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        GET_OBJ_CALLS.fetch_add(1, Relaxed);
        v
    }

    fn put_objs(&mut self, objs: &[(u64, Option<Vec<u8>>)], env: &mut ExecEnv<'_>) {
        let _g = span(Layer::WrapPutObjs);
        self.0.put_objs(objs, env);
    }

    fn n_objects(&self) -> u64 {
        self.0.n_objects()
    }

    fn propose_nondet(&mut self, env: &mut ExecEnv<'_>) -> Vec<u8> {
        let _g = span(Layer::WrapOther);
        self.0.propose_nondet(env)
    }

    fn check_nondet(&self, nondet: &[u8], env: &mut ExecEnv<'_>) -> bool {
        self.0.check_nondet(nondet, env)
    }

    fn footprint(&self, op: &[u8]) -> Option<Footprint> {
        self.0.footprint(op)
    }

    fn last_nondet_ns(&self) -> u64 {
        self.0.last_nondet_ns()
    }

    fn reset(&mut self, env: &mut ExecEnv<'_>) {
        let _g = span(Layer::WrapOther);
        self.0.reset(env);
    }

    fn rebuild_rep(&mut self, env: &mut ExecEnv<'_>) {
        let _g = span(Layer::WrapOther);
        self.0.rebuild_rep(env);
    }

    fn corrupt_state(&mut self, seed: u64) {
        self.0.corrupt_state(seed);
    }
}
