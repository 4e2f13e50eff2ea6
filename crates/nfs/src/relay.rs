//! The user-level relay (paper Figure 2) and the unreplicated baseline.
//!
//! In the paper, application processes talk to the kernel NFS client,
//! which sends NFS calls to a *relay* process; the relay invokes the
//! replication library and returns the result. Here the kernel client +
//! application is a [`NfsDriver`] workload generator, and [`RelayActor`]
//! plays the relay: it turns each NFS call into a replicated invocation
//! through an embedded [`ClientCore`].
//!
//! [`DirectActor`] + [`DirectServerActor`] form the comparison baseline:
//! the same workload sent straight to one unreplicated server over the
//! same simulated network (one round trip, no replication protocol, no
//! crypto, no abstraction machinery) — the "off-the-shelf implementation"
//! column of the Andrew-benchmark table.

use crate::ops::{NfsOp, NfsReply};
use crate::server::NfsServer;
use crate::wrapper::NfsWrapper;
use base::{ModifyLog, Wrapper};
use base_pbft::{ClientCore, ClientEvent, Config, ExecEnv};
use base_simnet::{Actor, Context, NodeId, Payload, SimDuration, SimTime};

/// A workload generator: a stream of NFS operations where each next
/// operation may depend on the previous reply (e.g. a `create` feeding the
/// handle into subsequent `write`s).
pub trait NfsDriver: 'static {
    /// Returns the next operation, given the previous one and its reply
    /// (`None` on the first call). Returning `None` ends the workload.
    fn next(&mut self, last: Option<(&NfsOp, &NfsReply)>) -> Option<NfsOp>;
}

/// Progress counters shared by both the replicated and direct actors.
#[derive(Debug, Default, Clone)]
pub struct RunStats {
    /// Operations completed.
    pub ops: u64,
    /// Operations that returned an NFS error.
    pub errors: u64,
    /// Virtual time when the workload finished.
    pub finished_at: Option<SimTime>,
    /// Per-operation latencies (ns).
    pub latencies_ns: Vec<u64>,
    /// Virtual completion timestamp of each operation (ns), for per-phase
    /// timing.
    pub completed_at_ns: Vec<u64>,
}

/// Timer token for the relay's paced-submission delay (the embedded
/// [`ClientCore`] owns `1 << 63`; `(1 << 63) | 1` is the client pump).
const TOKEN_RELAY_PACE: u64 = (1 << 63) | 2;

/// The relay: drives an [`NfsDriver`] through the replication protocol.
pub struct RelayActor<D: NfsDriver> {
    core: ClientCore,
    driver: D,
    inflight: Option<NfsOp>,
    sent_at_ns: u64,
    pace: Option<SimDuration>,
    paused: Option<(NfsOp, NfsReply)>,
    /// Progress counters.
    pub stats: RunStats,
}

impl<D: NfsDriver> RelayActor<D> {
    /// Creates a relay for one client node.
    pub fn new(cfg: Config, keys: base_crypto::NodeKeys, driver: D) -> Self {
        Self {
            core: ClientCore::new(cfg, keys),
            driver,
            inflight: None,
            sent_at_ns: 0,
            pace: None,
            paused: None,
            stats: RunStats::default(),
        }
    }

    /// Spaces submissions at least `gap` apart instead of firing the next
    /// operation the moment one completes (chaos campaigns use this to
    /// stretch the workload across a fault schedule).
    pub fn set_pace(&mut self, gap: SimDuration) {
        self.pace = Some(gap);
    }

    /// True once the driver is exhausted and nothing is in flight.
    pub fn done(&self) -> bool {
        self.stats.finished_at.is_some()
    }

    /// Access to the workload driver (e.g. to read collected replies).
    pub fn driver(&self) -> &D {
        &self.driver
    }

    fn advance(&mut self, last: Option<(&NfsOp, &NfsReply)>, ctx: &mut Context<'_>) {
        match self.driver.next(last) {
            Some(op) => {
                let ro = op.is_read_only();
                self.core.submit(op.to_bytes(), ro);
                self.inflight = Some(op);
                self.sent_at_ns = ctx.now().as_nanos();
                self.core.pump(ctx);
            }
            None => {
                self.inflight = None;
                if self.stats.finished_at.is_none() {
                    self.stats.finished_at = Some(ctx.now());
                }
            }
        }
    }
}

impl<D: NfsDriver> Actor for RelayActor<D> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.advance(None, ctx);
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        self.on_payload(from, &Payload::from(payload), ctx);
    }

    fn on_payload(&mut self, from: NodeId, payload: &Payload, ctx: &mut Context<'_>) {
        if let Some(ClientEvent::Completed { result, .. }) = self.core.on_payload(from, payload, ctx)
        {
            let op = self.inflight.take().expect("completion implies an inflight op");
            let reply = NfsReply::from_bytes(&result)
                .unwrap_or(NfsReply::Error(crate::spec::NfsStatus::Io));
            self.stats.ops += 1;
            self.stats.latencies_ns.push(ctx.now().as_nanos().saturating_sub(self.sent_at_ns));
            self.stats.completed_at_ns.push(ctx.now().as_nanos());
            if !reply.is_ok() {
                self.stats.errors += 1;
            }
            match self.pace {
                Some(gap) => {
                    self.paused = Some((op, reply));
                    ctx.set_timer(gap, TOKEN_RELAY_PACE);
                }
                None => self.advance(Some((&op, &reply)), ctx),
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if token == TOKEN_RELAY_PACE {
            if let Some((op, reply)) = self.paused.take() {
                self.advance(Some((&op, &reply)), ctx);
            }
            return;
        }
        self.core.on_timer(token, ctx);
    }
}

/// The unreplicated server end of the baseline: hosts one concrete file
/// system behind the same oid-based operation language (a thin shim, no
/// abstraction machinery costs are charged beyond the op execution itself).
pub struct DirectServerActor<S: NfsServer> {
    wrapper: NfsWrapper<S>,
    mods: ModifyLog,
    clock_base: u64,
}

impl<S: NfsServer> DirectServerActor<S> {
    /// Creates the server actor.
    pub fn new(server: S) -> Self {
        Self { wrapper: NfsWrapper::new(server), mods: ModifyLog::new(), clock_base: 0 }
    }

    /// Access to the wrapped server.
    pub fn wrapper(&self) -> &NfsWrapper<S> {
        &self.wrapper
    }

    /// Mutable access (cost calibration, fault injection).
    pub fn wrapper_mut(&mut self) -> &mut NfsWrapper<S> {
        &mut self.wrapper
    }
}

impl<S: NfsServer> Actor for DirectServerActor<S> {
    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        // The baseline timestamps with its own clock (no agreement).
        let clock = ctx.local_clock().as_nanos().max(self.clock_base + 1);
        self.clock_base = clock;
        let (reply, charged) = {
            let mut env = ExecEnv::new(clock, ctx.rng());
            let reply = self.wrapper.execute(
                payload,
                from.0 as u32,
                &clock.to_be_bytes(),
                false,
                &mut self.mods,
                &mut env,
            );
            (reply, env.charged())
        };
        ctx.charge(charged);
        ctx.send(from, reply);
    }
}

/// The client end of the baseline: one outstanding op, one round trip.
pub struct DirectActor<D: NfsDriver> {
    server: NodeId,
    driver: D,
    inflight: Option<NfsOp>,
    sent_at_ns: u64,
    /// Progress counters.
    pub stats: RunStats,
}

impl<D: NfsDriver> DirectActor<D> {
    /// Creates the client actor talking to `server`.
    pub fn new(server: NodeId, driver: D) -> Self {
        Self { server, driver, inflight: None, sent_at_ns: 0, stats: RunStats::default() }
    }

    /// True once the driver is exhausted.
    pub fn done(&self) -> bool {
        self.stats.finished_at.is_some()
    }

    /// Access to the workload driver.
    pub fn driver(&self) -> &D {
        &self.driver
    }

    fn advance(&mut self, last: Option<(&NfsOp, &NfsReply)>, ctx: &mut Context<'_>) {
        match self.driver.next(last) {
            Some(op) => {
                ctx.send(self.server, op.to_bytes());
                self.inflight = Some(op);
                self.sent_at_ns = ctx.now().as_nanos();
            }
            None => {
                self.inflight = None;
                if self.stats.finished_at.is_none() {
                    self.stats.finished_at = Some(ctx.now());
                }
            }
        }
    }
}

impl<D: NfsDriver> Actor for DirectActor<D> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.advance(None, ctx);
    }

    fn on_message(&mut self, _from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        let Some(op) = self.inflight.take() else { return };
        let reply =
            NfsReply::from_bytes(payload).unwrap_or(NfsReply::Error(crate::spec::NfsStatus::Io));
        self.stats.ops += 1;
        self.stats.latencies_ns.push(ctx.now().as_nanos().saturating_sub(self.sent_at_ns));
        self.stats.completed_at_ns.push(ctx.now().as_nanos());
        if !reply.is_ok() {
            self.stats.errors += 1;
        }
        self.advance(Some((&op, &reply)), ctx);
    }
}

/// A scripted driver: replays a fixed operation list (handles resolved by
/// earlier replies are *not* patched in — use this only for scripts built
/// from known oids, such as deterministic-allocation tests).
pub struct ScriptDriver {
    ops: std::collections::VecDeque<NfsOp>,
    /// Replies observed, in order.
    pub replies: Vec<NfsReply>,
}

impl ScriptDriver {
    /// Creates a driver that replays `ops`.
    pub fn new(ops: Vec<NfsOp>) -> Self {
        Self { ops: ops.into(), replies: Vec::new() }
    }
}

impl NfsDriver for ScriptDriver {
    fn next(&mut self, last: Option<(&NfsOp, &NfsReply)>) -> Option<NfsOp> {
        if let Some((_, reply)) = last {
            self.replies.push(reply.clone());
        }
        self.ops.pop_front()
    }
}

/// Waits until an actor reports done, up to `limit` of virtual time.
/// Returns true if it finished.
pub fn run_to_completion<F>(
    sim: &mut base_simnet::Simulation,
    mut is_done: F,
    limit: SimDuration,
) -> bool
where
    F: FnMut(&base_simnet::Simulation) -> bool,
{
    let deadline = sim.now() + limit;
    while sim.now() < deadline {
        if is_done(sim) {
            return true;
        }
        let step = SimDuration::from_millis(20);
        sim.run_for(step);
    }
    is_done(sim)
}
