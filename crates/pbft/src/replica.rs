//! The PBFT replica.
//!
//! One [`Replica`] runs on one simulator node and drives a [`Service`]
//! through the three-phase agreement protocol, checkpointing, view changes,
//! state transfer, and (optionally) proactive recovery. See the crate
//! documentation for the feature list and `DESIGN.md` §8 for the documented
//! simplifications.

use crate::byzantine::ByzMode;
use crate::config::{Config, RTO_CEILING, RTO_FLOOR};
use crate::cost::CostModel;
use crate::log::{CheckpointCollector, Log, ReplyCache, SlotStage};
use crate::messages::{
    CertReplyMsg, CheckpointMsg, ChunkDataMsg, ChunksReplyMsg, CommitMsg, FetchCertMsg,
    FetchChunkDataMsg, FetchChunksMsg, FetchMetaMsg, FetchObjectMsg, Message, MetaReplyMsg,
    NewViewMsg, ObjectReplyMsg, PrePrepareMsg, PreparedProof, PrepareMsg, ReplyMsg, RequestMsg,
    StatusMsg, ViewChangeMsg,
};
use crate::service::{ExecEnv, Service};
use crate::transfer::{
    checkpoint_digest, FetchResult, Fetcher, DEFAULT_FETCH_WINDOW, FETCH_WINDOW_MAX,
    META_ROOT_LEVEL, REPLIES_INDEX,
};
use base_crypto::{Authenticator, Digest, NodeKeys};
use base_simnet::{
    Actor, Context, MetricsRegistry, NodeId, ProtocolEvent, RttEstimator, SimDuration, TimerId,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Timer tokens.
const TOKEN_TICK: u64 = 1;
const TOKEN_VIEW_CHANGE: u64 = 2;
const TOKEN_WATCHDOG: u64 = 3;

/// Counters exposed for tests and experiment harnesses.
#[derive(Debug, Default, Clone)]
pub struct ReplicaStats {
    /// Requests executed (including re-executions after recovery).
    pub executed_requests: u64,
    /// Batches (sequence numbers) executed.
    pub executed_batches: u64,
    /// Checkpoints taken.
    pub checkpoints_taken: u64,
    /// Stable checkpoints observed.
    pub stable_checkpoints: u64,
    /// View changes this replica voted for.
    pub view_changes_started: u64,
    /// New views installed.
    pub new_views_installed: u64,
    /// State transfers completed.
    pub state_transfers: u64,
    /// Object bytes fetched by state transfer.
    pub state_transfer_bytes: u64,
    /// Objects fetched by state transfer.
    pub state_transfer_objects: u64,
    /// Partition (meta) queries issued by state transfer.
    pub state_transfer_meta_queries: u64,
    /// Proactive recoveries completed.
    pub recoveries: u64,
    /// Messages discarded as malformed or badly authenticated.
    pub rejected_messages: u64,
}

/// Checkpoint data retained at the replica layer (the service retains the
/// object-level data).
#[derive(Debug, Clone)]
struct CkptMeta {
    service_root: Digest,
    replies_blob: Vec<u8>,
    composite: Digest,
}

/// A PBFT replica actor.
pub struct Replica<S: Service> {
    cfg: Config,
    cost: CostModel,
    keys: NodeKeys,
    id: u32,
    service: S,
    byz: ByzMode,

    view: u64,
    in_view_change: bool,
    /// Next sequence number this replica assigns when primary.
    seq_next: u64,
    last_exec: u64,
    /// Messages, agreement stage and arrival time of every sequence number
    /// in the window. The stages let agreement run ahead of execution: the
    /// pipeline gate ([`Replica::try_propose`]) and the read-only staleness
    /// guard ([`Replica::exec_backlog`]) read them.
    log: Log,
    ckpt_collector: CheckpointCollector,
    reply_cache: ReplyCache,
    /// Locally stored checkpoints (replica layer).
    ckpt_meta: BTreeMap<u64, CkptMeta>,

    stable_seq: u64,
    stable_cert: Vec<CheckpointMsg>,

    /// Primary: queued requests not yet assigned a sequence number.
    pending: VecDeque<RequestMsg>,
    pending_digests: HashSet<Digest>,
    /// Backup: forwarded requests awaiting execution (liveness timer).
    awaiting: HashSet<(u32, u64)>,
    /// Read-only requests deferred while committed-but-unexecuted slots
    /// (or an active state transfer) would make a reply stale; drained
    /// after execution catches up.
    ro_deferred: VecDeque<RequestMsg>,
    /// Positions of the fresh requests in the batch being executed; kept
    /// across batches so it does not allocate per batch.
    fresh: Vec<usize>,

    vc_collect: BTreeMap<u64, HashMap<u32, ViewChangeMsg>>,
    vc_timer: Option<TimerId>,
    vc_timeout: SimDuration,
    /// Observed pre-prepare-to-execution latency (the three-phase
    /// agreement round); re-seeds the view-change base timeout, so a fast
    /// group chases a silent primary sooner and a slow one stops churning
    /// views it cannot finish.
    agree_rtt: RttEstimator,
    /// When the current state-transfer fetch began (`transfer.fetch_ns`).
    fetch_started_at_ns: u64,
    last_new_view: u64,
    /// Last own view-change message (retransmitted on ticks).
    own_vc: Option<ViewChangeMsg>,
    /// Last new-view message installed (resent to peers stuck in an older
    /// view).
    last_nv_msg: Option<NewViewMsg>,

    fetcher: Option<Fetcher>,
    recovering: bool,
    recovery_clean: bool,
    /// Set by [`Replica::trigger_recovery`]; the next tick runs the
    /// proactive-recovery watchdog immediately instead of waiting for the
    /// scheduled rotation.
    recover_asap: bool,
    recovery_started_at_ns: u64,
    /// Duration of the last completed recovery, for experiments.
    pub last_recovery_ns: u64,

    /// Progress marker for the retransmission tick.
    last_exec_at_tick: u64,
    /// Consecutive ticks without execution progress.
    idle_ticks: u64,

    /// Public counters.
    pub stats: ReplicaStats,
    /// Per-replica metrics: counters plus log-scale histograms (request
    /// batch occupancy, checkpoint duration, transfer sizes, recovery
    /// wall-time). Always recorded; aggregated by experiments.
    pub metrics: MetricsRegistry,
}

impl<S: Service> Replica<S> {
    /// Creates a replica. Its id is taken from `keys` and must match the
    /// simulator node it is installed on.
    pub fn new(cfg: Config, keys: NodeKeys, service: S) -> Self {
        let mut service = service;
        service.set_chunk_size(cfg.chunk_size);
        let id = keys.id() as u32;
        assert!((id as usize) < cfg.n, "replica id must be < n");
        let vc_timeout = cfg.view_change_timeout;
        let log = Log::new(cfg.log_window);
        let agree_rtt = RttEstimator::new(
            0x517c_a11e_0000_0000 ^ u64::from(id),
            RTO_FLOOR.as_nanos(),
            RTO_CEILING.as_nanos(),
            cfg.view_change_timeout.as_nanos(),
        );
        Self {
            cfg,
            cost: CostModel::default(),
            keys,
            id,
            service,
            byz: ByzMode::Honest,
            view: 0,
            in_view_change: false,
            seq_next: 1,
            last_exec: 0,
            log,
            ckpt_collector: CheckpointCollector::default(),
            reply_cache: ReplyCache::default(),
            ckpt_meta: BTreeMap::new(),
            stable_seq: 0,
            stable_cert: Vec::new(),
            pending: VecDeque::new(),
            pending_digests: HashSet::new(),
            awaiting: HashSet::new(),
            ro_deferred: VecDeque::new(),
            fresh: Vec::new(),
            vc_collect: BTreeMap::new(),
            vc_timer: None,
            vc_timeout,
            agree_rtt,
            fetch_started_at_ns: 0,
            last_new_view: 0,
            own_vc: None,
            last_nv_msg: None,
            fetcher: None,
            recovering: false,
            recovery_clean: true,
            recover_asap: false,
            recovery_started_at_ns: 0,
            last_recovery_ns: 0,
            last_exec_at_tick: 0,
            idle_ticks: 0,
            stats: ReplicaStats::default(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The replica's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The current view-change timeout (exposed so tests can assert the
    /// doubling is capped).
    pub fn vc_timeout(&self) -> SimDuration {
        self.vc_timeout
    }

    /// Base view-change timeout for a freshly installed view: the
    /// configured value until the first batch executes, then the RTO of the
    /// observed agreement latency, so a fast group chases a silent primary
    /// sooner and a slow one stops churning views it cannot finish.
    fn base_vc_timeout(&self) -> SimDuration {
        if self.agree_rtt.samples() > 0 {
            SimDuration::from_nanos(self.agree_rtt.rto())
        } else {
            self.cfg.view_change_timeout
        }
    }

    /// Configures Byzantine behaviour (fault injection).
    ///
    /// [`ByzMode::CorruptState`] takes effect immediately: the service's
    /// concrete state is flipped once (latent corruption) and the replica
    /// then continues to follow the protocol on the damaged state.
    pub fn set_byzantine(&mut self, mode: ByzMode) {
        self.byz = mode;
        if matches!(mode, ByzMode::CorruptState) {
            self.service.corrupt_state(0x5eed_0000 | self.id as u64);
        }
    }

    /// Currently configured Byzantine mode (audit harnesses use this to
    /// decide which replicas count as honest).
    pub fn byzantine(&self) -> ByzMode {
        self.byz
    }

    /// Injects a concrete-state corruption derived from `seed` (see
    /// [`Service::corrupt_state`]) and marks the replica
    /// [`ByzMode::CorruptState`].
    pub fn corrupt_service_state(&mut self, seed: u64) {
        self.byz = ByzMode::CorruptState;
        self.service.corrupt_state(seed);
    }

    /// Requests an immediate proactive recovery: the next tick runs the
    /// same reboot-refresh-repair path as the periodic watchdog. Chaos
    /// campaigns use this to demonstrate that recovery repairs injected
    /// state corruption without waiting for the rotation schedule.
    pub fn trigger_recovery(&mut self) {
        self.recover_asap = true;
    }

    /// Selects clean (paper §3.4) or warm proactive-recovery reboots.
    pub fn set_recovery_clean(&mut self, clean: bool) {
        self.recovery_clean = clean;
    }

    /// Overrides the CPU cost model.
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
    }

    /// Current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Highest executed sequence number.
    pub fn last_exec(&self) -> u64 {
        self.last_exec
    }

    /// Last stable checkpoint.
    pub fn stable_seq(&self) -> u64 {
        self.stable_seq
    }

    /// True while a state transfer is in progress.
    pub fn fetching(&self) -> bool {
        self.fetcher.is_some()
    }

    /// True while a proactive recovery is still repairing state.
    pub fn recovering(&self) -> bool {
        self.recovering
    }

    /// Composite digest of the locally retained checkpoint at `seq`, if
    /// still stored. Safety auditors compare these across honest replicas:
    /// two honest replicas disagreeing at the same stable sequence number
    /// is a checkpoint fork.
    pub fn checkpoint_digest(&self, seq: u64) -> Option<Digest> {
        self.ckpt_meta.get(&seq).map(|m| m.composite)
    }

    /// All locally retained checkpoint digests, oldest first.
    pub fn checkpoint_digests(&self) -> Vec<(u64, Digest)> {
        self.ckpt_meta.iter().map(|(s, m)| (*s, m.composite)).collect()
    }

    /// Digest proven by the current stable-checkpoint certificate.
    pub fn stable_digest(&self) -> Option<Digest> {
        self.stable_cert.first().map(|c| c.digest)
    }

    /// The cached reply for `client`'s request at `timestamp`, if this
    /// replica still remembers it. Auditors use this to cross-check reply
    /// certificates against replica execution.
    pub fn cached_reply(&self, client: u32, timestamp: u64) -> Option<&[u8]> {
        self.reply_cache.cached_result(client, timestamp)
    }

    /// Read access to the service, for test inspection.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Mutable access to the service, for fault injection in tests.
    pub fn service_mut(&mut self) -> &mut S {
        &mut self.service
    }

    fn is_primary(&self) -> bool {
        self.cfg.primary_of(self.view) == self.id as usize
    }

    fn f(&self) -> usize {
        self.cfg.f()
    }

    fn high_watermark(&self) -> u64 {
        self.cfg.high_watermark(self.stable_seq)
    }

    fn in_watermarks(&self, seq: u64) -> bool {
        seq > self.stable_seq && seq <= self.high_watermark()
    }

    fn send(&self, ctx: &mut Context<'_>, to: NodeId, msg: &Message) {
        if matches!(self.byz, ByzMode::Mute) {
            return;
        }
        ctx.send(to, msg.to_payload(self.cfg.shard));
    }

    fn multicast(&self, ctx: &mut Context<'_>, msg: &Message) {
        if matches!(self.byz, ByzMode::Mute) {
            return;
        }
        // Encode once; every recipient shares the same allocation.
        let wire = msg.to_payload(self.cfg.shard);
        for i in 0..self.cfg.n {
            if i != self.id as usize {
                ctx.send(self.cfg.replica_node(i), wire.clone());
            }
        }
    }

    // ------------------------------------------------------------------
    // Requests and proposals
    // ------------------------------------------------------------------

    fn handle_request(&mut self, req: RequestMsg, ctx: &mut Context<'_>) {
        // Authenticate: the authenticator must verify for this replica
        // under the claimed client's key.
        ctx.charge(self.cost.mac + self.cost.digest(req.op().len()));
        if !req.auth.check(&self.keys, req.client() as usize, &req.digest()) {
            self.stats.rejected_messages += 1;
            return;
        }

        if req.read_only() {
            self.execute_read_only(&req, ctx);
            return;
        }

        // Retransmission of the last executed request: resend the reply.
        if let Some(result) = self.reply_cache.cached_result(req.client(), req.timestamp()) {
            let full = self.is_full_replier(&req);
            let reply = self.make_reply(req.client(), req.timestamp(), result, full, false, ctx);
            self.send(ctx, self.cfg.client_node(req.client()), &Message::Reply(reply));
            return;
        }
        if !self.reply_cache.is_new(req.client(), req.timestamp()) {
            return; // Stale.
        }

        if self.is_primary() && !self.in_view_change {
            let d = req.digest();
            if self.pending_digests.insert(d) {
                self.pending.push_back(req);
            }
            self.try_propose(ctx);
        } else {
            // Forward to the primary and start the progress timer.
            let primary = self.cfg.primary_of(self.view);
            let key = (req.client(), req.timestamp());
            let is_new = self.awaiting.insert(key);
            if primary == self.id as usize {
                // Primary-elect mid view change: forwarding would loop the
                // request back to ourselves forever. Hold it instead —
                // install_new_view runs try_propose, which drains it.
                let d = req.digest();
                if self.pending_digests.insert(d) {
                    self.pending.push_back(req);
                }
            } else {
                self.send(ctx, self.cfg.replica_node(primary), &Message::Request(req));
            }
            if is_new && self.vc_timer.is_none() && !self.in_view_change {
                // Fresh arm (no escalation in progress): start from the
                // adaptive base so the timeout tracks observed agreement
                // speed rather than the static configured value.
                self.vc_timeout = self.base_vc_timeout();
                self.vc_timer = Some(ctx.set_timer(self.vc_timeout, TOKEN_VIEW_CHANGE));
            }
        }
    }

    fn execute_read_only(&mut self, req: &RequestMsg, ctx: &mut Context<'_>) {
        // Staleness guard: with agreement pipelined ahead of execution, a
        // slot can be committed but not yet applied. Answering a read now
        // would reflect the last *executed* state while peers that already
        // applied the backlog answer from a newer one — the client's 2f+1
        // matching-reply quorum would mix states. Defer until execution
        // catches up (or state transfer finishes rebuilding the state).
        if self.exec_backlog() {
            let dup = self
                .ro_deferred
                .iter()
                .any(|r| r.client() == req.client() && r.timestamp() == req.timestamp());
            if !dup {
                self.ro_deferred.push_back(req.clone());
            }
            return;
        }
        let clock = ctx.local_clock().as_nanos();
        let (result, charged) = {
            let mut env = ExecEnv::new(clock, ctx.rng());
            let result = self.service.execute(req.op(), req.client(), &[], true, &mut env);
            let charged = env.charged();
            (result, charged)
        };
        ctx.charge(charged);
        let full = self.is_full_replier(req);
        // Read-only replies bypass agreement: mark them tentative so the
        // client knows this result reflects executed state only.
        let reply = self.make_reply(req.client(), req.timestamp(), &result, full, true, ctx);
        self.send(ctx, self.cfg.client_node(req.client()), &Message::Reply(reply));
    }

    /// Whether committed-but-unexecuted work (or an active state transfer)
    /// makes the last executed state stale relative to what the group has
    /// already agreed on.
    fn exec_backlog(&self) -> bool {
        self.fetcher.is_some() || self.log.has_backlog(self.last_exec)
    }

    /// Builds the authenticated reply for `result`, which is only
    /// borrowed: the caller's copy (usually the reply cache's) is the one
    /// that lives on, and of the replicas only the full replier copies it.
    fn make_reply(
        &self,
        client: u32,
        timestamp: u64,
        result: &[u8],
        full: bool,
        tentative: bool,
        ctx: &mut Context<'_>,
    ) -> ReplyMsg {
        let result = if matches!(self.byz, ByzMode::CorruptReplies) {
            // Consistently wrong: flip a copy of the result (never the
            // cached bytes), then MAC the corrupted bytes so the client
            // sees a well-formed but incorrect reply.
            let mut flipped: Vec<u8> = result.iter().map(|b| b ^ 0xa5).collect();
            if flipped.is_empty() {
                flipped.push(0xa5);
            }
            Cow::Owned(flipped)
        } else {
            Cow::Borrowed(result)
        };
        // The reply optimization: only the designated replica sends the
        // full result; the others send its digest.
        let (digest_only, payload) = if full {
            (false, result.into_owned())
        } else {
            ctx.charge(self.cost.digest(result.len()));
            (true, Digest::of(&result).0.to_vec())
        };
        let mut reply = ReplyMsg {
            view: self.view,
            timestamp,
            client,
            replica: self.id,
            digest_only,
            tentative,
            result: payload,
            mac: base_crypto::Mac([0; 8]),
        };
        ctx.charge(self.cost.mac + self.cost.digest(reply.result.len()));
        reply.mac = Authenticator::point(&self.keys, client as usize, &reply.digest());
        // One site covers every reply path (execution, cached resend,
        // read-only), so the span layer's last replica-side hop is total.
        ctx.emit(
            self.view,
            0,
            ProtocolEvent::ReplySent { client: u64::from(client), ts: timestamp },
        );
        reply
    }

    /// Whether this replica sends the full result for `req`.
    fn is_full_replier(&self, req: &RequestMsg) -> bool {
        req.full_replier as usize % self.cfg.n == self.id as usize
    }

    /// Primary: assign sequence numbers to pending requests.
    fn try_propose(&mut self, ctx: &mut Context<'_>) {
        while !self.pending.is_empty()
            && self.seq_next <= self.high_watermark()
            && self.seq_next.saturating_sub(self.last_exec + 1) < self.cfg.max_inflight
            && self
                .seq_next
                .saturating_sub(self.log.committed_floor(self.last_exec) + 1)
                < self.cfg.pipeline_depth
            && !self.in_view_change
        {
            let mut batch = Vec::new();
            while batch.len() < self.cfg.batch_max {
                match self.pending.pop_front() {
                    Some(r) => {
                        self.pending_digests.remove(&r.digest());
                        batch.push(r);
                    }
                    None => break,
                }
            }
            let seq = self.seq_next;
            self.seq_next += 1;

            let clock = ctx.local_clock().as_nanos();
            let (mut nondet, charged) = {
                let mut env = ExecEnv::new(clock, ctx.rng());
                let nd = self.service.propose_nondet(&mut env);
                (nd, env.charged())
            };
            ctx.charge(charged);
            if matches!(self.byz, ByzMode::BadTimestamps) && nondet.len() == 8 {
                // A century in the future: honest backups must reject it.
                let forged = clock + 100 * 365 * 24 * 3600 * 1_000_000_000;
                nondet = forged.to_be_bytes().to_vec();
            }

            let mut pp = PrePrepareMsg::new(self.view, seq, batch, nondet);
            ctx.charge(self.cost.authenticator(self.cfg.n) + self.cost.signature);
            pp.sig = pp.with_signed_bytes(|signed| self.keys.sign(signed));
            pp.auth = Authenticator::generate(&self.keys, self.cfg.n, &pp.batch_digest());

            if ctx.trace_enabled() {
                // Causal edge for the span layer: which client ops landed in
                // this agreement slot, and how long the triggering event sat
                // queued behind this (busy) primary.
                let queue_ns = ctx.sched_lag().as_nanos();
                for r in pp.requests() {
                    ctx.emit(
                        self.view,
                        seq,
                        ProtocolEvent::RequestProposed {
                            client: u64::from(r.client()),
                            ts: r.timestamp(),
                            queue_ns,
                        },
                    );
                }
            }
            let pp = if matches!(self.byz, ByzMode::EquivocatePrimary) {
                self.equivocate(&pp, ctx);
                pp
            } else {
                // Sent by reference, then moved (not cloned) into the log.
                let msg = Message::PrePrepare(pp);
                self.multicast(ctx, &msg);
                let Message::PrePrepare(pp) = msg else { unreachable!("built above") };
                pp
            };
            // A primary that caught up by state transfer numbers from where
            // it stood: at or below the low watermark nobody logs `seq`.
            if let Some(entry) = self.log.entry_mut(seq) {
                entry.pre_prepare = Some(pp);
                entry.observe(SlotStage::Proposed);
                entry.arrival = Some(ctx.now().as_nanos());
            }
            self.maybe_prepared(seq, ctx);
        }
    }

    /// Byzantine primary: send conflicting proposals to the two halves of
    /// the backup set.
    fn equivocate(&mut self, pp: &PrePrepareMsg, ctx: &mut Context<'_>) {
        // The covered fields are construction-only, so the conflicting
        // proposal is rebuilt (its batch digest is memoized afresh).
        let mut nd = pp.nondet().to_vec();
        nd.push(0xff);
        let mut alt = PrePrepareMsg::new(pp.view, pp.seq, pp.requests().to_vec(), nd);
        alt.sig = alt.with_signed_bytes(|signed| self.keys.sign(signed));
        alt.auth = Authenticator::generate(&self.keys, self.cfg.n, &alt.batch_digest());
        for i in 0..self.cfg.n {
            if i == self.id as usize {
                continue;
            }
            let msg = if i % 2 == 0 {
                Message::PrePrepare(pp.clone())
            } else {
                Message::PrePrepare(alt.clone())
            };
            self.send(ctx, self.cfg.replica_node(i), &msg);
        }
    }

    fn handle_pre_prepare(&mut self, pp: PrePrepareMsg, ctx: &mut Context<'_>) {
        if self.in_view_change || pp.view != self.view || self.is_primary() {
            return;
        }
        if !self.in_watermarks(pp.seq) {
            return;
        }
        let primary = self.cfg.primary_of(self.view);
        ctx.charge(self.cost.mac + self.cost.digest(64) + self.cost.signature);
        if !pp.auth.check(&self.keys, primary, &pp.batch_digest()) {
            self.stats.rejected_messages += 1;
            return;
        }
        if !pp.with_signed_bytes(|signed| self.keys.verify(primary, signed, &pp.sig)) {
            self.stats.rejected_messages += 1;
            return;
        }
        // Authenticate every piggybacked request.
        for r in pp.requests() {
            ctx.charge(self.cost.mac + self.cost.digest(r.op().len()));
            if !r.auth.check(&self.keys, r.client() as usize, &r.digest()) {
                self.stats.rejected_messages += 1;
                return;
            }
        }
        // Validate the primary's non-deterministic choices. Failing the
        // check means this replica refuses to ENDORSE the proposal — it
        // sends no prepare, so a faulty primary cannot gather a quorum and
        // is deposed by the progress timer. The pre-prepare is still
        // logged: when the batch is a *retransmission* of something 2f+1
        // replicas already agreed on (catch-up after a reinstall or a long
        // crash, where the agreed timestamp is legitimately older than the
        // freshness window), their resent commits carry the quorum's
        // endorsement and this replica must accept the agreed value.
        let clock = ctx.local_clock().as_nanos();
        let endorse = {
            let mut env = ExecEnv::new(clock, ctx.rng());
            self.service.check_nondet(pp.nondet(), &mut env)
        };
        if !endorse {
            self.stats.rejected_messages += 1;
        }

        let digest = pp.batch_digest();
        let Some(entry) = self.log.entry_mut(pp.seq) else { return };
        if let Some(existing) = &entry.pre_prepare {
            if existing.view == pp.view && existing.batch_digest() != digest {
                // Conflicting proposal from the primary — evidence of a
                // faulty primary; the progress timer will trigger a view
                // change.
                return;
            }
            if existing.view == pp.view {
                return; // Duplicate.
            }
        }
        let (view, seq) = (pp.view, pp.seq);
        entry.pre_prepare = Some(pp);
        entry.observe(SlotStage::Proposed);
        entry.arrival = Some(ctx.now().as_nanos());
        ctx.emit(
            view,
            seq,
            ProtocolEvent::PrePrepareLogged { queue_ns: ctx.sched_lag().as_nanos() },
        );
        if !endorse {
            // Logged but not endorsed: wait for a quorum's commits.
            self.maybe_committed(seq, ctx);
            return;
        }

        // Multicast our prepare.
        let prepare = PrepareMsg {
            view: self.view,
            seq,
            digest,
            replica: self.id,
            auth: Authenticator::default(),
            sig: base_crypto::Signature([0; 32]),
        };
        ctx.charge(self.cost.authenticator(self.cfg.n) + self.cost.signature);
        self.send_own_prepare(prepare, ctx);
        self.maybe_prepared(seq, ctx);
    }

    /// Signs and authenticates this replica's own `prepare`, multicasts it
    /// and logs it: the message is sent by reference and then moved (not
    /// cloned) into the log. The caller charges the CPU cost.
    fn send_own_prepare(&mut self, mut prepare: PrepareMsg, ctx: &mut Context<'_>) {
        let (sig, digest) =
            prepare.with_signed_bytes(|signed| (self.keys.sign(signed), Digest::of(signed)));
        prepare.sig = sig;
        prepare.auth = Authenticator::generate(&self.keys, self.cfg.n, &digest);
        let seq = prepare.seq;
        let msg = Message::Prepare(prepare);
        self.multicast(ctx, &msg);
        let Message::Prepare(prepare) = msg else { unreachable!("built above") };
        let Some(entry) = self.log.entry_mut(seq) else { return };
        entry.add_prepare(prepare);
    }

    fn handle_prepare(&mut self, p: PrepareMsg, ctx: &mut Context<'_>) {
        if self.in_view_change || p.view != self.view {
            return;
        }
        if !self.in_watermarks(p.seq) {
            return;
        }
        if p.replica as usize >= self.cfg.n
            || p.replica as usize == self.cfg.primary_of(p.view)
            || p.replica == self.id
        {
            return;
        }
        ctx.charge(self.cost.mac + self.cost.signature);
        // One encoding serves both the authenticator digest and the
        // signature check.
        let from = p.replica as usize;
        let authentic = p.with_signed_bytes(|signed| {
            p.auth.check(&self.keys, from, &Digest::of(signed))
                && self.keys.verify(from, signed, &p.sig)
        });
        if !authentic {
            self.stats.rejected_messages += 1;
            return;
        }
        let seq = p.seq;
        let Some(entry) = self.log.entry_mut(seq) else { return };
        entry.add_prepare(p);
        self.maybe_prepared(seq, ctx);
    }

    fn maybe_prepared(&mut self, seq: u64, ctx: &mut Context<'_>) {
        let view = self.view;
        let f = self.f();
        let Some(entry) = self.log.entry_mut(seq) else { return };
        if !entry.prepared(view, f) || entry.commit_sent {
            return;
        }
        entry.commit_sent = true;
        entry.observe(SlotStage::Prepared);
        let digest = entry.accepted_digest().expect("prepared implies pre-prepare");
        // `commit_sent` is one-shot per slot, so this traces exactly once.
        ctx.emit(view, seq, ProtocolEvent::PrepareQuorum);
        if matches!(self.byz, ByzMode::WithholdCommits) {
            return;
        }
        let mut commit = CommitMsg {
            view,
            seq,
            digest,
            replica: self.id,
            auth: Authenticator::default(),
        };
        ctx.charge(self.cost.authenticator(self.cfg.n));
        commit.auth = Authenticator::generate(&self.keys, self.cfg.n, &commit_digest(&commit));
        // Sent by reference, then moved (not cloned) into the log.
        let msg = Message::Commit(commit);
        self.multicast(ctx, &msg);
        let Message::Commit(commit) = msg else { unreachable!("built above") };
        if let Some(entry) = self.log.entry_mut(seq) {
            entry.add_commit(commit);
        }
        self.maybe_committed(seq, ctx);
    }

    fn handle_commit(&mut self, c: CommitMsg, ctx: &mut Context<'_>) {
        if self.in_view_change || c.view != self.view {
            return;
        }
        if !self.in_watermarks(c.seq) {
            return;
        }
        if c.replica as usize >= self.cfg.n || c.replica == self.id {
            return;
        }
        ctx.charge(self.cost.mac);
        if !c.auth.check(&self.keys, c.replica as usize, &commit_digest(&c)) {
            self.stats.rejected_messages += 1;
            return;
        }
        let seq = c.seq;
        let Some(entry) = self.log.entry_mut(seq) else { return };
        entry.add_commit(c);
        self.maybe_committed(seq, ctx);
    }

    fn maybe_committed(&mut self, seq: u64, ctx: &mut Context<'_>) {
        let view = self.view;
        let f = self.f();
        let Some(entry) = self.log.entry_mut(seq) else { return };
        if !entry.committed(view, f) {
            return;
        }
        entry.observe(SlotStage::Committed);
        if ctx.trace_enabled() && entry.first_quorum_trace() {
            ctx.emit(view, seq, ProtocolEvent::CommitQuorum);
        }
        self.execute_ready(ctx);
    }

    // ------------------------------------------------------------------
    // Execution and checkpointing
    // ------------------------------------------------------------------

    fn execute_ready(&mut self, ctx: &mut Context<'_>) {
        if self.fetcher.is_some() {
            // Don't execute while state transfer is rebuilding the state.
            return;
        }
        loop {
            let next = self.last_exec + 1;
            let view = self.view;
            let f = self.f();
            let ready = match self.log.entry(next) {
                Some(e) => e.committed(view, f) && !e.executed,
                None => false,
            };
            if !ready {
                break;
            }
            // The batch is lent out of its log entry while it executes
            // (nothing on the execution path reads the log) and put back.
            let entry = self.log.entry_mut(next).expect("found ready above");
            let pp = entry.pre_prepare.take().expect("committed implies pre-prepare");
            let arrived = entry.arrival.take();
            self.execute_batch(&pp, arrived, ctx);
            let entry = self.log.entry_mut(next).expect("execution does not move the window");
            entry.pre_prepare = Some(pp);
            entry.executed = true;
            entry.observe(SlotStage::Executed);
            self.last_exec = next;
            self.stats.executed_batches += 1;

            if next.is_multiple_of(self.cfg.checkpoint_interval) {
                self.take_checkpoint(next, ctx);
            }
        }
        // Execution caught up with agreement: deferred read-only requests
        // can now be answered from fresh state.
        if !self.exec_backlog() && !self.ro_deferred.is_empty() {
            let drained: Vec<RequestMsg> = self.ro_deferred.drain(..).collect();
            for req in drained {
                self.execute_read_only(&req, ctx);
            }
        }
        // Window space may have opened: the primary drains its queue.
        if self.is_primary() && !self.in_view_change {
            self.try_propose(ctx);
        }
        // Progress: reset the liveness timer.
        if !self.in_view_change {
            if let Some(t) = self.vc_timer.take() {
                ctx.cancel_timer(t);
            }
            self.awaiting.retain(|(c, ts)| self.reply_cache.is_new(*c, *ts));
            if !self.awaiting.is_empty() {
                // Progress was made, so the escalation (if any) is over:
                // restart the timer from the adaptive base.
                self.vc_timeout = self.base_vc_timeout();
                self.vc_timer = Some(ctx.set_timer(self.vc_timeout, TOKEN_VIEW_CHANGE));
            }
        }
    }

    /// `arrived`: when this replica accepted `pp` (`None` for a slot
    /// carried across a view change or executed before).
    fn execute_batch(&mut self, pp: &PrePrepareMsg, arrived: Option<u64>, ctx: &mut Context<'_>) {
        ctx.emit(pp.view, pp.seq, ProtocolEvent::RequestExecuted { batch: pp.requests().len() as u64 });
        if let Some(arrived) = arrived {
            // Pre-prepare-to-execution: the three-phase agreement round as
            // this replica saw it. Slots re-proposed across a view change
            // lost their arrival time (Karn: ambiguous samples).
            let lat = ctx.now().as_nanos().saturating_sub(arrived);
            self.agree_rtt.observe(lat);
            self.metrics.observe("replica.agreement_latency_ns", lat);
        }
        self.metrics.observe("replica.batch_occupancy", pp.requests().len() as u64);
        // Split cached resends from fresh work so the fresh operations go
        // through the service as one batch.
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        let mut ops: Vec<(&[u8], u32)> = Vec::with_capacity(pp.requests().len());
        for (i, req) in pp.requests().iter().enumerate() {
            if !self.reply_cache.is_new(req.client(), req.timestamp()) {
                // Already executed (e.g. re-proposed across a view change);
                // resend the cached reply if this was the last request.
                if let Some(result) = self.reply_cache.cached_result(req.client(), req.timestamp()) {
                    let full = self.is_full_replier(req);
                    let reply =
                        self.make_reply(req.client(), req.timestamp(), result, full, false, ctx);
                    self.send(ctx, self.cfg.client_node(req.client()), &Message::Reply(reply));
                }
                continue;
            }
            fresh.push(i);
            ops.push((req.op(), req.client()));
        }
        if !ops.is_empty() {
            let clock = ctx.local_clock().as_nanos();
            let (results, charged) = {
                let mut env = ExecEnv::new(clock, ctx.rng());
                let results = self.service.execute_batch(&ops, pp.nondet(), &mut env);
                (results, env.charged())
            };
            ctx.charge(charged);
            debug_assert_eq!(results.len(), fresh.len());
            for (&i, result) in fresh.iter().zip(results) {
                let req = &pp.requests()[i];
                self.stats.executed_requests += 1;
                let full = self.is_full_replier(req);
                let reply =
                    self.make_reply(req.client(), req.timestamp(), &result, full, false, ctx);
                self.reply_cache.record(req.client(), req.timestamp(), result);
                self.send(ctx, self.cfg.client_node(req.client()), &Message::Reply(reply));
                self.awaiting.remove(&(req.client(), req.timestamp()));
            }
        }
        self.fresh = fresh;
    }

    fn take_checkpoint(&mut self, seq: u64, ctx: &mut Context<'_>) {
        let clock = ctx.local_clock().as_nanos();
        let (service_root, charged) = {
            let mut env = ExecEnv::new(clock, ctx.rng());
            let root = self.service.take_checkpoint(seq, &mut env);
            (root, env.charged())
        };
        ctx.charge(charged);
        let replies_blob = self.reply_cache.to_blob();
        ctx.charge(self.cost.digest(replies_blob.len()) + self.cost.signature);
        let replies_digest = Digest::of(&replies_blob);
        let mut composite = checkpoint_digest(&service_root, &replies_digest);
        if matches!(self.byz, ByzMode::CorruptCheckpoints) {
            composite = Digest::of_parts(&[b"corrupt", &composite.0]);
        }
        self.ckpt_meta.insert(seq, CkptMeta { service_root, replies_blob, composite });
        self.stats.checkpoints_taken += 1;
        self.metrics.inc("replica.checkpoints_taken");
        // Duration: the CPU charged for digesting the service state.
        self.metrics.observe_duration("replica.checkpoint_ns", charged);

        let mut msg = CheckpointMsg {
            seq,
            digest: composite,
            replica: self.id,
            sig: base_crypto::Signature([0; 32]),
        };
        msg.sig = msg.with_signed_bytes(|signed| self.keys.sign(signed));
        if let Some(cert) = self.ckpt_collector.add(msg.clone(), self.cfg.quorum()) {
            self.make_stable(seq, composite, cert, ctx);
        }
        self.multicast(ctx, &Message::Checkpoint(msg));
    }

    fn handle_checkpoint(&mut self, c: CheckpointMsg, ctx: &mut Context<'_>) {
        if c.replica as usize >= self.cfg.n || c.replica == self.id {
            return;
        }
        if c.seq <= self.stable_seq {
            return;
        }
        ctx.charge(self.cost.signature);
        if !c.with_signed_bytes(|signed| self.keys.verify(c.replica as usize, signed, &c.sig)) {
            self.stats.rejected_messages += 1;
            return;
        }
        let seq = c.seq;
        let digest = c.digest;
        if let Some(cert) = self.ckpt_collector.add(c, self.cfg.quorum()) {
            self.make_stable(seq, digest, cert, ctx);
        }
    }

    fn make_stable(
        &mut self,
        seq: u64,
        digest: Digest,
        cert: Vec<CheckpointMsg>,
        ctx: &mut Context<'_>,
    ) {
        if seq <= self.stable_seq {
            return;
        }
        self.stable_seq = seq;
        self.stable_cert = cert;
        self.stats.stable_checkpoints += 1;
        self.metrics.inc("replica.stable_checkpoints");
        ctx.emit(self.view, seq, ProtocolEvent::CheckpointStable);
        self.log.gc_up_to(seq);
        self.ckpt_collector.gc_up_to(seq);
        // Keep the stable checkpoint itself; discard older ones.
        self.ckpt_meta = self.ckpt_meta.split_off(&seq);
        self.service.discard_checkpoints_below(seq);

        if self.last_exec < seq {
            // The group moved past us; fetch the stable checkpoint.
            self.start_fetch(seq, digest, ctx);
        }
    }

    // ------------------------------------------------------------------
    // State transfer
    // ------------------------------------------------------------------

    fn start_fetch(&mut self, seq: u64, digest: Digest, ctx: &mut Context<'_>) {
        if let Some(f) = &self.fetcher {
            if f.target_seq() >= seq {
                return;
            }
        }
        let clock = ctx.local_clock().as_nanos();
        {
            let mut env = ExecEnv::new(clock, ctx.rng());
            self.service.prepare_for_transfer(&mut env);
            let charged = env.charged();
            ctx.charge(charged);
        }
        let mut fetcher = Fetcher::new(
            self.id,
            self.cfg.n,
            seq,
            digest,
            DEFAULT_FETCH_WINDOW,
            FETCH_WINDOW_MAX,
        )
        .with_chunk_size(self.cfg.chunk_size);
        for (to, msg) in fetcher.begin() {
            self.send(ctx, self.cfg.replica_node(to as usize), &msg);
        }
        self.fetcher = Some(fetcher);
        self.fetch_started_at_ns = ctx.now().as_nanos();
        ctx.emit(self.view, seq, ProtocolEvent::StateTransferFetchStarted);
        self.metrics.inc("transfer.fetches_started");
    }

    fn finish_fetch(&mut self, result: FetchResult, ctx: &mut Context<'_>) {
        self.stats.state_transfers += 1;
        self.stats.state_transfer_bytes += result.fetched_bytes;
        self.stats.state_transfer_objects += result.objects.len() as u64;
        self.stats.state_transfer_meta_queries += result.meta_queries;
        ctx.emit(
            self.view,
            result.seq,
            ProtocolEvent::StateTransferFetchCompleted { objects: result.objects.len() as u64 },
        );
        self.metrics.inc("transfer.completed");
        self.metrics.observe("transfer.bytes_fetched", result.fetched_bytes);
        self.metrics.observe("transfer.objects_fetched", result.objects.len() as u64);
        self.metrics.add("transfer.meta_queries", result.meta_queries);
        self.metrics.add("transfer.corrupt_replies", result.corrupt_replies);
        self.metrics.add("transfer.retransmissions", result.retransmissions);
        self.metrics.observe("transfer.peak_window", result.peak_window as u64);
        if self.cfg.chunk_size > 0 {
            self.metrics.add("transfer.chunk_queries", result.chunk_queries);
            self.metrics.add("transfer.chunks_reused", result.chunks_reused);
        }
        // Wall-clock from fetch start to installation: the transfer's
        // contribution to heal-to-progress latency.
        self.metrics.observe(
            "transfer.fetch_ns",
            ctx.now().as_nanos().saturating_sub(self.fetch_started_at_ns),
        );

        // Install the reply cache and the service objects.
        if let Some(cache) = ReplyCache::from_blob(&result.replies_blob) {
            self.reply_cache = cache;
        }
        ctx.charge(self.cost.digest(result.fetched_bytes as usize));
        let clock = ctx.local_clock().as_nanos();
        {
            let mut env = ExecEnv::new(clock, ctx.rng());
            self.service.install_checkpoint(
                result.seq,
                result.service_root,
                result.objects,
                &mut env,
            );
            let charged = env.charged();
            ctx.charge(charged);
        }

        // Record the checkpoint locally so we can serve it to others.
        let replies_digest = Digest::of(&result.replies_blob);
        let composite = checkpoint_digest(&result.service_root, &replies_digest);
        self.ckpt_meta.insert(
            result.seq,
            CkptMeta {
                service_root: result.service_root,
                replies_blob: result.replies_blob,
                composite,
            },
        );

        // Execution state now corresponds exactly to the fetched
        // checkpoint. If we had executed past it before a recovery reboot,
        // roll back and re-execute the committed suffix from the log on the
        // repaired state.
        self.last_exec = result.seq;
        self.log.iter_mut().filter(|(s, _)| *s > result.seq).for_each(|(_, e)| e.executed = false);
        self.fetcher = None;
        self.log.restage(self.view, self.f());

        if self.recovering {
            self.recovering = false;
            self.stats.recoveries += 1;
            self.last_recovery_ns =
                ctx.now().as_nanos().saturating_sub(self.recovery_started_at_ns);
            // State transfer has replaced any corrupted objects: a replica
            // whose only fault was damaged state is correct again.
            let repaired = matches!(self.byz, ByzMode::CorruptState);
            if repaired {
                self.byz = ByzMode::Honest;
            }
            ctx.emit(
                self.view,
                result.seq,
                ProtocolEvent::RecoveryCompleted { repaired_corruption: repaired },
            );
            self.metrics.observe("replica.recovery_ns", self.last_recovery_ns);
        }

        // Re-execute any committed batches beyond the checkpoint.
        self.execute_ready(ctx);
    }

    fn handle_fetch_meta(&mut self, m: FetchMetaMsg, ctx: &mut Context<'_>) {
        if m.replica as usize >= self.cfg.n {
            return;
        }
        let digests = if m.level == META_ROOT_LEVEL {
            match self.ckpt_meta.get(&m.seq) {
                Some(meta) => {
                    vec![meta.service_root, Digest::of(&meta.replies_blob)]
                }
                None => return,
            }
        } else {
            match self.service.checkpoint_meta(m.seq, m.level, m.index) {
                Some(d) => d,
                None => return,
            }
        };
        ctx.charge(self.cost.handle);
        let reply = MetaReplyMsg {
            seq: m.seq,
            level: m.level,
            index: m.index,
            digests,
            replica: self.id,
        };
        self.send(ctx, self.cfg.replica_node(m.replica as usize), &Message::MetaReply(reply));
    }

    fn handle_fetch_object(&mut self, m: FetchObjectMsg, ctx: &mut Context<'_>) {
        if m.replica as usize >= self.cfg.n {
            return;
        }
        let data = if m.index == REPLIES_INDEX {
            match self.ckpt_meta.get(&m.seq) {
                Some(meta) => meta.replies_blob.clone(),
                None => return,
            }
        } else {
            match self.service.checkpoint_object(m.seq, m.index) {
                Some(d) => d,
                None => return,
            }
        };
        ctx.charge(self.cost.digest(data.len()));
        let reply = ObjectReplyMsg { seq: m.seq, index: m.index, data, replica: self.id };
        self.send(ctx, self.cfg.replica_node(m.replica as usize), &Message::ObjectReply(reply));
    }

    fn handle_meta_reply(&mut self, m: MetaReplyMsg, ctx: &mut Context<'_>) {
        ctx.charge(self.cost.digest(m.digests.len() * 32));
        let (out, done) = match &mut self.fetcher {
            Some(f) => f.on_meta_reply(&m, self.service.current_tree()),
            None => return,
        };
        ctx.emit(
            self.view,
            m.seq,
            ProtocolEvent::StateTransferFetchChunk { bytes: (m.digests.len() * 32) as u64 },
        );
        for (to, msg) in out {
            self.send(ctx, self.cfg.replica_node(to as usize), &msg);
        }
        if let Some(result) = done {
            self.finish_fetch(result, ctx);
        }
    }

    fn handle_object_reply(&mut self, m: ObjectReplyMsg, ctx: &mut Context<'_>) {
        ctx.charge(self.cost.digest(m.data.len()));
        let (out, done) = match &mut self.fetcher {
            Some(f) => f.on_object_reply(&m, self.service.current_tree()),
            None => return,
        };
        ctx.emit(
            self.view,
            m.seq,
            ProtocolEvent::StateTransferFetchChunk { bytes: m.data.len() as u64 },
        );
        for (to, msg) in out {
            self.send(ctx, self.cfg.replica_node(to as usize), &msg);
        }
        if let Some(result) = done {
            self.finish_fetch(result, ctx);
        }
    }

    fn handle_fetch_chunks(&mut self, m: FetchChunksMsg, ctx: &mut Context<'_>) {
        if m.replica as usize >= self.cfg.n || self.cfg.chunk_size == 0 {
            return;
        }
        let Some(data) = self.service.checkpoint_object(m.seq, m.index) else { return };
        // Recomputing the chunk digests re-hashes the object once.
        ctx.charge(self.cost.digest(data.len()));
        let digests = crate::tree::chunk_digests(m.index, &data, self.cfg.chunk_size);
        let reply = ChunksReplyMsg {
            seq: m.seq,
            index: m.index,
            len: data.len() as u64,
            digests,
            replica: self.id,
        };
        self.send(ctx, self.cfg.replica_node(m.replica as usize), &Message::ChunksReply(reply));
    }

    fn handle_fetch_chunk_data(&mut self, m: FetchChunkDataMsg, ctx: &mut Context<'_>) {
        let cs = self.cfg.chunk_size;
        if m.replica as usize >= self.cfg.n || cs == 0 {
            return;
        }
        let Some(data) = self.service.checkpoint_object(m.seq, m.index) else { return };
        let Some(chunk) = data.chunks(cs).nth(m.chunk as usize) else { return };
        ctx.charge(self.cost.digest(chunk.len()));
        let reply = ChunkDataMsg {
            seq: m.seq,
            index: m.index,
            chunk: m.chunk,
            data: chunk.to_vec(),
            replica: self.id,
        };
        self.send(ctx, self.cfg.replica_node(m.replica as usize), &Message::ChunkData(reply));
    }

    fn handle_chunks_reply(&mut self, m: ChunksReplyMsg, ctx: &mut Context<'_>) {
        ctx.charge(self.cost.digest(m.digests.len() * 32));
        // Only a reply to an outstanding query is worth the abstraction
        // function: `transfer_object` is a full `get_obj`, and `m.index` is
        // chosen by whoever sent this.
        if !self.fetcher.as_ref().is_some_and(|f| f.awaits_chunks(m.index)) {
            return;
        }
        // Local chunk reuse diffs against the *current* value of the
        // object, whatever it has drifted to — the fetcher validates every
        // reused chunk against the verified remote chunk digest.
        let local = self.service.transfer_object(m.index);
        let (out, done) = match &mut self.fetcher {
            Some(f) => f.on_chunks_reply(&m, local.as_deref()),
            None => return,
        };
        ctx.emit(
            self.view,
            m.seq,
            ProtocolEvent::StateTransferFetchChunk { bytes: (m.digests.len() * 32) as u64 },
        );
        for (to, msg) in out {
            self.send(ctx, self.cfg.replica_node(to as usize), &msg);
        }
        if let Some(result) = done {
            self.finish_fetch(result, ctx);
        }
    }

    fn handle_chunk_data(&mut self, m: ChunkDataMsg, ctx: &mut Context<'_>) {
        ctx.charge(self.cost.digest(m.data.len()));
        let (out, done) = match &mut self.fetcher {
            Some(f) => f.on_chunk_data(&m),
            None => return,
        };
        ctx.emit(
            self.view,
            m.seq,
            ProtocolEvent::StateTransferFetchChunk { bytes: m.data.len() as u64 },
        );
        for (to, msg) in out {
            self.send(ctx, self.cfg.replica_node(to as usize), &msg);
        }
        if let Some(result) = done {
            self.finish_fetch(result, ctx);
        }
    }

    fn handle_fetch_cert(&mut self, m: FetchCertMsg, ctx: &mut Context<'_>) {
        if m.replica as usize >= self.cfg.n || self.stable_cert.is_empty() {
            return;
        }
        let reply = CertReplyMsg { msgs: self.stable_cert.clone(), replica: self.id };
        self.send(ctx, self.cfg.replica_node(m.replica as usize), &Message::CertReply(reply));
    }

    fn handle_cert_reply(&mut self, m: CertReplyMsg, ctx: &mut Context<'_>) {
        // Validate: 2f+1 checkpoint messages from distinct replicas with
        // the same seq and digest, each correctly signed.
        let Some((seq, digest)) = validate_cert(&self.cfg, &self.keys, &m.msgs) else {
            self.stats.rejected_messages += 1;
            return;
        };
        ctx.charge(self.cost.signature.saturating_mul(m.msgs.len() as u64));
        if seq < self.stable_seq {
            return; // Stale certificate from a lagging replier.
        }
        if seq > self.stable_seq {
            self.stable_seq = seq;
            self.stable_cert = m.msgs;
            self.log.gc_up_to(seq);
            self.service.discard_checkpoints_below(seq);
        }
        if seq > self.last_exec || (self.recovering && seq > 0) {
            // Recovering replicas fetch even when nominally up to date:
            // the fetch walks the partition tree comparing digests and
            // repairs exactly the objects whose concrete state is stale or
            // corrupt (paper §3.4).
            self.start_fetch(seq, digest, ctx);
        } else if self.recovering {
            // No checkpoint exists yet; recovery completes immediately.
            self.recovering = false;
            self.stats.recoveries += 1;
            self.last_recovery_ns =
                ctx.now().as_nanos().saturating_sub(self.recovery_started_at_ns);
            ctx.emit(self.view, seq, ProtocolEvent::RecoveryCompleted { repaired_corruption: false });
            self.metrics.observe("replica.recovery_ns", self.last_recovery_ns);
        }
    }

    // ------------------------------------------------------------------
    // View changes
    // ------------------------------------------------------------------

    fn move_to_view(&mut self, target: u64, ctx: &mut Context<'_>) {
        if target <= self.view {
            return;
        }
        self.view = target;
        self.in_view_change = true;
        self.stats.view_changes_started += 1;
        self.metrics.inc("replica.view_changes_started");
        ctx.emit(target, self.stable_seq, ProtocolEvent::ViewChangeStarted);

        // Build our view-change message from the log.
        let mut prepared = Vec::new();
        for (seq, entry) in self.log.iter() {
            if let Some(pp) = &entry.pre_prepare {
                if seq > self.stable_seq && entry.prepared(pp.view, self.f()) {
                    prepared.push(PreparedProof {
                        pre_prepare: pp.clone(),
                        prepares: entry.prepare_proof(pp.view),
                    });
                }
            }
        }
        let stable_digest = self
            .ckpt_meta
            .get(&self.stable_seq)
            .map(|m| m.composite)
            .or_else(|| self.stable_cert.first().map(|c| c.digest))
            .unwrap_or(Digest::ZERO);
        let mut vc = ViewChangeMsg {
            new_view: target,
            stable_seq: self.stable_seq,
            stable_digest,
            stable_proof: self.stable_cert.clone(),
            prepared,
            replica: self.id,
            sig: base_crypto::Signature([0; 32]),
        };
        ctx.charge(self.cost.signature);
        vc.sig = vc.with_signed_bytes(|signed| self.keys.sign(signed));
        self.own_vc = Some(vc.clone());
        self.vc_collect.entry(target).or_default().insert(self.id, vc.clone());
        self.multicast(ctx, &Message::ViewChange(vc));

        // Escalation timer: if the new view does not start in time, move on.
        if let Some(t) = self.vc_timer.take() {
            ctx.cancel_timer(t);
        }
        self.vc_timeout = self.cfg.escalated_vc_timeout(self.vc_timeout);
        self.vc_timer = Some(ctx.set_timer(self.vc_timeout, TOKEN_VIEW_CHANGE));

        self.maybe_new_view(ctx);
    }

    fn handle_view_change(&mut self, vc: ViewChangeMsg, ctx: &mut Context<'_>) {
        if vc.replica as usize >= self.cfg.n || vc.replica == self.id {
            return;
        }
        if vc.new_view <= self.last_new_view {
            return;
        }
        ctx.charge(self.cost.signature);
        if !self.verify_view_change(&vc) {
            self.stats.rejected_messages += 1;
            return;
        }
        self.vc_collect.entry(vc.new_view).or_default().insert(vc.replica, vc.clone());

        // Liveness rule: if f+1 distinct replicas vote for views greater
        // than ours, join the smallest such view even if our own timer has
        // not expired.
        let mut voters: HashSet<u32> = HashSet::new();
        let mut smallest: Option<u64> = None;
        for (v, senders) in self.vc_collect.range((self.view + 1)..) {
            if smallest.is_none() {
                smallest = Some(*v);
            }
            voters.extend(senders.keys().copied());
        }
        if voters.len() > self.f() {
            if let Some(target) = smallest {
                self.move_to_view(target, ctx);
            }
        }

        self.maybe_new_view(ctx);
    }

    fn verify_view_change(&self, vc: &ViewChangeMsg) -> bool {
        if !vc.with_signed_bytes(|signed| self.keys.verify(vc.replica as usize, signed, &vc.sig)) {
            return false;
        }
        // Stable checkpoint proof.
        if vc.stable_seq > 0 {
            let Some((seq, digest)) = validate_cert(&self.cfg, &self.keys, &vc.stable_proof)
            else {
                return false;
            };
            if seq != vc.stable_seq || digest != vc.stable_digest {
                return false;
            }
        }
        // Prepared certificates.
        for p in &vc.prepared {
            if !self.verify_prepared_proof(p, vc.stable_seq) {
                return false;
            }
        }
        true
    }

    fn verify_prepared_proof(&self, p: &PreparedProof, stable_seq: u64) -> bool {
        let pp = &p.pre_prepare;
        if pp.seq <= stable_seq {
            return false;
        }
        let primary = self.cfg.primary_of(pp.view);
        if !pp.with_signed_bytes(|signed| self.keys.verify(primary, signed, &pp.sig)) {
            return false;
        }
        let digest = pp.batch_digest();
        let mut senders = HashSet::new();
        for prep in &p.prepares {
            if prep.view != pp.view || prep.seq != pp.seq || prep.digest != digest {
                continue;
            }
            if prep.replica as usize == primary || prep.replica as usize >= self.cfg.n {
                continue;
            }
            let signer = prep.replica as usize;
            if !prep.with_signed_bytes(|signed| self.keys.verify(signer, signed, &prep.sig)) {
                continue;
            }
            senders.insert(prep.replica);
        }
        senders.len() >= 2 * self.f()
    }

    /// If we are the primary of a view with a quorum of view-change votes,
    /// build and send the new-view message.
    fn maybe_new_view(&mut self, ctx: &mut Context<'_>) {
        let target = self.view;
        if !self.in_view_change
            || self.cfg.primary_of(target) != self.id as usize
            || self.last_new_view >= target
        {
            return;
        }
        let Some(senders) = self.vc_collect.get(&target) else { return };
        if senders.len() < self.cfg.quorum() {
            return;
        }
        // Deterministic selection: the quorum with the lowest replica ids.
        let mut ids: Vec<u32> = senders.keys().copied().collect();
        ids.sort_unstable();
        ids.truncate(self.cfg.quorum());
        let vcs: Vec<ViewChangeMsg> = ids.iter().map(|i| senders[i].clone()).collect();

        let (min_s, pre_prepares) = compute_o(&self.cfg, target, &vcs);
        let mut signed = Vec::with_capacity(pre_prepares.len());
        for mut pp in pre_prepares {
            ctx.charge(self.cost.signature);
            pp.sig = pp.with_signed_bytes(|signed| self.keys.sign(signed));
            pp.auth = Authenticator::generate(&self.keys, self.cfg.n, &pp.batch_digest());
            signed.push(pp);
        }
        let mut nv = NewViewMsg {
            view: target,
            view_changes: vcs,
            pre_prepares: signed,
            replica: self.id,
            sig: base_crypto::Signature([0; 32]),
        };
        ctx.charge(self.cost.signature);
        nv.sig = nv.with_signed_bytes(|signed| self.keys.sign(signed));
        self.multicast(ctx, &Message::NewView(nv.clone()));
        self.install_new_view(nv, min_s, ctx);
    }

    fn handle_new_view(&mut self, nv: NewViewMsg, ctx: &mut Context<'_>) {
        if nv.view < self.view || nv.view <= self.last_new_view {
            return;
        }
        if nv.replica as usize != self.cfg.primary_of(nv.view) {
            return;
        }
        ctx.charge(self.cost.signature.saturating_mul((1 + nv.view_changes.len()) as u64));
        if !nv.with_signed_bytes(|signed| self.keys.verify(nv.replica as usize, signed, &nv.sig)) {
            self.stats.rejected_messages += 1;
            return;
        }
        // Validate the view changes: quorum from distinct senders.
        let mut senders = HashSet::new();
        for vc in &nv.view_changes {
            if vc.new_view != nv.view || !self.verify_view_change(vc) {
                self.stats.rejected_messages += 1;
                return;
            }
            senders.insert(vc.replica);
        }
        if senders.len() < self.cfg.quorum() {
            self.stats.rejected_messages += 1;
            return;
        }
        // Recompute O and check the primary's list matches.
        let (min_s, expected) = compute_o(&self.cfg, nv.view, &nv.view_changes);
        if expected.len() != nv.pre_prepares.len() {
            self.stats.rejected_messages += 1;
            return;
        }
        for (exp, got) in expected.iter().zip(nv.pre_prepares.iter()) {
            if got.view != nv.view
                || got.seq != exp.seq
                || got.batch_digest() != exp.batch_digest()
                || !got.with_signed_bytes(|signed| {
                    self.keys.verify(nv.replica as usize, signed, &got.sig)
                })
            {
                self.stats.rejected_messages += 1;
                return;
            }
        }
        self.install_new_view(nv, min_s, ctx);
    }

    fn install_new_view(&mut self, nv: NewViewMsg, min_s: u64, ctx: &mut Context<'_>) {
        self.view = nv.view;
        self.in_view_change = false;
        self.last_new_view = nv.view;
        self.stats.new_views_installed += 1;
        self.metrics.inc("replica.new_views_installed");
        ctx.emit(nv.view, self.stable_seq, ProtocolEvent::ViewChangeCompleted);
        self.own_vc = None;
        self.last_nv_msg = Some(nv.clone());
        self.vc_timeout = self.base_vc_timeout();
        if let Some(t) = self.vc_timer.take() {
            ctx.cancel_timer(t);
        }
        self.vc_collect = self.vc_collect.split_off(&(nv.view + 1));

        // Adopt a higher stable checkpoint if the quorum proves one.
        if min_s > self.stable_seq {
            if let Some(vc) = nv.view_changes.iter().find(|vc| vc.stable_seq == min_s) {
                if let Some((seq, digest)) = validate_cert(&self.cfg, &self.keys, &vc.stable_proof)
                {
                    self.stable_seq = seq;
                    self.stable_cert = vc.stable_proof.clone();
                    self.log.gc_up_to(seq);
                    self.service.discard_checkpoints_below(seq);
                    if self.last_exec < seq {
                        self.start_fetch(seq, digest, ctx);
                    }
                }
            }
        }

        // Install the re-proposed pre-prepares and prepare them.
        let mut max_seq = self.stable_seq;
        for pp in &nv.pre_prepares {
            max_seq = max_seq.max(pp.seq);
            if pp.seq <= self.stable_seq {
                continue;
            }
            // `O` comes off the wire; a slot past the window is not logged
            // (and, below, not prepared).
            if let Some(entry) = self.log.entry_mut(pp.seq) {
                entry.restart_agreement(pp.clone());
            }
        }
        // The log just changed shape: recompute every slot's stage from it.
        // A slot re-agreed in the new view is a fresh agreement instance.
        self.log.restage(self.view, self.f());
        self.log.restart_instances();
        if self.cfg.primary_of(nv.view) == self.id as usize {
            self.seq_next = max_seq + 1;
            self.try_propose(ctx);
        } else {
            // Backups prepare everything in O.
            let seqs: Vec<u64> =
                nv.pre_prepares.iter().map(|p| p.seq).filter(|s| *s > self.stable_seq).collect();
            for seq in seqs {
                let Some(digest) = self.log.entry(seq).and_then(|e| e.accepted_digest()) else {
                    continue; // Past the window: not installed above.
                };
                let prepare = PrepareMsg {
                    view: nv.view,
                    seq,
                    digest,
                    replica: self.id,
                    auth: Authenticator::default(),
                    sig: base_crypto::Signature([0; 32]),
                };
                ctx.charge(self.cost.authenticator(self.cfg.n) + self.cost.signature);
                self.send_own_prepare(prepare, ctx);
            }
            let seqs: Vec<u64> = self.log.iter().map(|(s, _)| s).collect();
            for seq in seqs {
                self.maybe_prepared(seq, ctx);
            }
        }
        if !self.awaiting.is_empty() {
            self.vc_timer = Some(ctx.set_timer(self.vc_timeout, TOKEN_VIEW_CHANGE));
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn on_tick(&mut self, ctx: &mut Context<'_>) {
        // An explicitly requested recovery runs now, out of rotation.
        if self.recover_asap {
            self.recover_asap = false;
            // Not a scheduled rotation: do not re-arm the periodic timer.
            self.on_watchdog(ctx, false);
        }

        // Retransmit only if no execution progress since the last tick.
        let progressed = self.last_exec != self.last_exec_at_tick;
        self.last_exec_at_tick = self.last_exec;

        if let Some(f) = &mut self.fetcher {
            let resend = f.tick();
            let msgs: Vec<(u32, Message)> = resend;
            for (to, msg) in msgs {
                self.send(ctx, self.cfg.replica_node(to as usize), &msg);
            }
        }

        if !progressed && !self.in_view_change {
            // Nudge the first blocked sequence number.
            let next = self.last_exec + 1;
            let view = self.view;
            let mut to_send: Vec<Message> = Vec::new();
            if let Some(entry) = self.log.entry(next) {
                if let Some(pp) = &entry.pre_prepare {
                    if self.is_primary() && pp.view == view {
                        to_send.push(Message::PrePrepare(pp.clone()));
                    }
                    if let Some(p) = entry.prepares().iter().find(|p| p.replica == self.id) {
                        to_send.push(Message::Prepare(p.clone()));
                    }
                    if let Some(c) = entry.commits().iter().find(|c| c.replica == self.id) {
                        to_send.push(Message::Commit(c.clone()));
                    }
                }
            }
            for m in to_send {
                self.multicast(ctx, &m);
            }
            // Re-announce our newest checkpoint if it is not stable yet.
            if let Some((seq, meta)) = self.ckpt_meta.iter().next_back() {
                if *seq > self.stable_seq {
                    let mut msg = CheckpointMsg {
                        seq: *seq,
                        digest: meta.composite,
                        replica: self.id,
                        sig: base_crypto::Signature([0; 32]),
                    };
                    msg.sig = msg.with_signed_bytes(|signed| self.keys.sign(signed));
                    self.multicast(ctx, &Message::Checkpoint(msg));
                }
            }
        }

        if self.in_view_change && !progressed {
            if let Some(vc) = &self.own_vc {
                self.multicast(ctx, &Message::ViewChange(vc.clone()));
            }
        }

        // Gap detection: the group has moved ahead of us (we see traffic
        // for later sequence numbers) but we are missing the next batch —
        // it was garbage-collected at the others. Ask for their stable
        // checkpoint certificate so we can state-transfer. The same probe
        // doubles as a periodic idle status exchange (PBFT's status
        // messages): a replica that slept through the entire workload
        // still discovers the group's stable checkpoint. These probes run
        // even mid-view-change: a replica that escalated into a lonely
        // high view (e.g. while partitioned away) must still be able to
        // learn state from the quorum it cannot vote with.
        if !progressed && self.fetcher.is_none() {
            let next = self.last_exec + 1;
            let missing_next =
                self.log.entry(next).map(|e| e.pre_prepare.is_none()).unwrap_or(true);
            let group_ahead = self
                .log
                .iter()
                .any(|(s, e)| s > next && (e.pre_prepare.is_some() || !e.commits().is_empty()));
            self.idle_ticks += 1;
            if (missing_next && group_ahead) || self.idle_ticks.is_multiple_of(10) {
                self.multicast(ctx, &Message::FetchCert(FetchCertMsg { replica: self.id }));
            }
            // Status report: peers retransmit whatever we are missing.
            let status = StatusMsg {
                view: self.view,
                last_exec: self.last_exec,
                stable_seq: self.stable_seq,
                replica: self.id,
            };
            self.multicast(ctx, &Message::Status(status));
        } else if progressed {
            self.idle_ticks = 0;
        }

        ctx.set_timer(self.cfg.tick_interval, TOKEN_TICK);
    }

    /// Responds to a peer's status report by retransmitting whatever it is
    /// missing (PBFT's status/retransmission mechanism, simplified).
    fn handle_status(&mut self, st: StatusMsg, ctx: &mut Context<'_>) {
        if st.replica as usize >= self.cfg.n || st.replica == self.id {
            return;
        }
        let to = self.cfg.replica_node(st.replica as usize);
        // Peer stuck in an older view: resend the new-view message.
        if st.view < self.view {
            if let Some(nv) = &self.last_nv_msg {
                self.send(ctx, to, &Message::NewView(nv.clone()));
            }
        }
        // Peer behind the stable checkpoint: hand it the certificate so it
        // can state-transfer.
        if st.stable_seq < self.stable_seq && !self.stable_cert.is_empty() {
            let reply = CertReplyMsg { msgs: self.stable_cert.clone(), replica: self.id };
            self.send(ctx, to, &Message::CertReply(reply));
        }
        // Peer behind in execution: resend the logged messages for its next
        // few sequence numbers (bounded burst).
        if st.last_exec < self.last_exec {
            let from = st.last_exec + 1;
            let upto = (st.last_exec + 8).min(self.last_exec);
            for seq in from..=upto {
                if let Some(e) = self.log.entry(seq) {
                    if let Some(pp) = &e.pre_prepare {
                        self.send(ctx, to, &Message::PrePrepare(pp.clone()));
                    }
                    // Relay every logged prepare/commit, not only our own:
                    // they carry full authenticator vectors and signatures,
                    // so the peer can verify them, and the original senders
                    // may be gone (reinstalled or crashed) — the log is the
                    // only place their endorsements survive.
                    for p in e.prepares() {
                        self.send(ctx, to, &Message::Prepare(p.clone()));
                    }
                    for c in e.commits() {
                        self.send(ctx, to, &Message::Commit(c.clone()));
                    }
                }
            }
        }
    }

    /// Proactive recovery: watchdog fired (or an explicit
    /// [`Replica::trigger_recovery`] request; only the periodic rotation
    /// re-arms its timer).
    fn on_watchdog(&mut self, ctx: &mut Context<'_>, rearm: bool) {
        // Reboot: the node is busy (down) for the reboot time.
        ctx.charge(self.cfg.reboot_time);
        self.keys.refresh();
        self.recovering = true;
        self.recovery_started_at_ns = ctx.now().as_nanos();
        ctx.emit(self.view, self.stable_seq, ProtocolEvent::RecoveryStarted);
        self.metrics.inc("replica.recoveries_started");
        let clock = ctx.local_clock().as_nanos();
        {
            let mut env = ExecEnv::new(clock, ctx.rng());
            self.service.reboot(self.recovery_clean, &mut env);
            let charged = env.charged();
            ctx.charge(charged);
        }
        if self.recovery_clean {
            // The concrete state restarted from the initial state: every
            // executed request's effects must be refetched or re-executed.
            self.last_exec = 0;
            self.reply_cache = ReplyCache::default();
            self.ckpt_meta.clear();
            self.log.iter_mut().for_each(|(_, e)| e.executed = false);
            self.log.restage(self.view, self.f());
            self.ro_deferred.clear();
        }
        // Learn the group's latest stable checkpoint and repair against it
        // (even if nominally up to date — see handle_cert_reply).
        if !self.stable_cert.is_empty() {
            let digest = self.stable_cert[0].digest;
            let seq = self.stable_seq;
            if seq > 0 {
                self.start_fetch(seq, digest, ctx);
            }
        }
        self.multicast(ctx, &Message::FetchCert(FetchCertMsg { replica: self.id }));
        if self.stable_seq == 0 && self.last_exec == 0 {
            // Nothing executed group-wide yet; recovery is trivially done
            // unless a cert reply teaches us otherwise.
            self.recovering = false;
            self.stats.recoveries += 1;
            ctx.emit(self.view, 0, ProtocolEvent::RecoveryCompleted { repaired_corruption: false });
            self.metrics.observe("replica.recovery_ns", 0);
        }

        // Re-arm for the next rotation.
        if rearm {
            if let Some(period) = self.cfg.recovery_period {
                ctx.set_timer(period, TOKEN_WATCHDOG);
            }
        }
    }
}

/// Digest used for commit authenticators.
fn commit_digest(c: &CommitMsg) -> Digest {
    c.with_signed_bytes(Digest::of)
}

/// Validates a checkpoint certificate: at least 2f+1 messages from distinct
/// replicas, all with the same sequence number and digest, all correctly
/// signed. Returns the proven (seq, digest).
pub fn validate_cert(
    cfg: &Config,
    keys: &NodeKeys,
    msgs: &[CheckpointMsg],
) -> Option<(u64, Digest)> {
    let first = msgs.first()?;
    let (seq, digest) = (first.seq, first.digest);
    let mut senders = HashSet::new();
    for m in msgs {
        if m.seq != seq || m.digest != digest || m.replica as usize >= cfg.n {
            continue;
        }
        if !m.with_signed_bytes(|signed| keys.verify(m.replica as usize, signed, &m.sig)) {
            continue;
        }
        senders.insert(m.replica);
    }
    if senders.len() >= cfg.quorum() {
        Some((seq, digest))
    } else {
        None
    }
}

/// Deterministically computes the new-view pre-prepare set `O` from a set
/// of view-change messages. Returns `(min_s, pre_prepares)` where the
/// pre-prepares carry empty authentication (the caller signs them).
pub fn compute_o(
    cfg: &Config,
    view: u64,
    vcs: &[ViewChangeMsg],
) -> (u64, Vec<PrePrepareMsg>) {
    let min_s = vcs.iter().map(|vc| vc.stable_seq).max().unwrap_or(0);
    let max_s = vcs
        .iter()
        .flat_map(|vc| vc.prepared.iter().map(|p| p.pre_prepare.seq))
        .max()
        .unwrap_or(min_s);

    let mut out = Vec::new();
    for seq in (min_s + 1)..=max_s {
        // Pick the prepared certificate with the highest view for `seq`.
        let best = vcs
            .iter()
            .flat_map(|vc| vc.prepared.iter())
            .filter(|p| p.pre_prepare.seq == seq)
            .max_by_key(|p| p.pre_prepare.view);
        let (requests, nondet) = match best {
            Some(p) => (p.pre_prepare.requests().to_vec(), p.pre_prepare.nondet().to_vec()),
            None => (Vec::new(), Vec::new()), // Null request.
        };
        out.push(PrePrepareMsg::new(view, seq, requests, nondet));
    }
    let _ = cfg;
    (min_s, out)
}

impl<S: Service> Actor for Replica<S> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.cfg.tick_interval, TOKEN_TICK);
        if let Some(period) = self.cfg.recovery_period {
            // Stagger: replica i first recovers at (i+1)/n of the period.
            let offset = SimDuration::from_nanos(
                period.as_nanos() / self.cfg.n as u64 * (self.id as u64 + 1),
            );
            ctx.set_timer(offset, TOKEN_WATCHDOG);
        }
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        ctx.charge(self.cost.handle);
        let Some((shard, msg)) = Message::from_wire_tagged(payload) else {
            self.stats.rejected_messages += 1;
            return;
        };
        if shard != self.cfg.shard {
            // Another group's traffic on the shared network; its MACs would
            // not verify here anyway, but reject it before any crypto work.
            self.stats.rejected_messages += 1;
            return;
        }
        let _ = from;
        match msg {
            Message::Request(r) => self.handle_request(r, ctx),
            Message::PrePrepare(pp) => self.handle_pre_prepare(pp, ctx),
            Message::Prepare(p) => self.handle_prepare(p, ctx),
            Message::Commit(c) => self.handle_commit(c, ctx),
            Message::Checkpoint(c) => self.handle_checkpoint(c, ctx),
            Message::ViewChange(vc) => self.handle_view_change(vc, ctx),
            Message::NewView(nv) => self.handle_new_view(nv, ctx),
            Message::FetchMeta(m) => self.handle_fetch_meta(m, ctx),
            Message::MetaReply(m) => self.handle_meta_reply(m, ctx),
            Message::FetchObject(m) => self.handle_fetch_object(m, ctx),
            Message::ObjectReply(m) => self.handle_object_reply(m, ctx),
            Message::FetchChunks(m) => self.handle_fetch_chunks(m, ctx),
            Message::ChunksReply(m) => self.handle_chunks_reply(m, ctx),
            Message::FetchChunkData(m) => self.handle_fetch_chunk_data(m, ctx),
            Message::ChunkData(m) => self.handle_chunk_data(m, ctx),
            Message::FetchCert(m) => self.handle_fetch_cert(m, ctx),
            Message::CertReply(m) => self.handle_cert_reply(m, ctx),
            Message::Status(m) => self.handle_status(m, ctx),
            Message::Reply(_) => {} // Replicas do not process replies.
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        match token {
            TOKEN_TICK => self.on_tick(ctx),
            TOKEN_VIEW_CHANGE => {
                self.vc_timer = None;
                let target = self.view + 1;
                self.move_to_view(target, ctx);
            }
            TOKEN_WATCHDOG => self.on_watchdog(ctx, true),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{build_counter_group, CounterService, TestGroup};
    use base_simnet::Simulation;

    type TestReplica = Replica<CounterService>;

    fn group(sim: &mut Simulation) -> TestGroup {
        build_counter_group(sim, Config::new(4), 1, 9)
    }

    fn replica<'a>(sim: &'a Simulation, g: &TestGroup, i: usize) -> &'a TestReplica {
        sim.actor_as::<TestReplica>(g.replicas[i]).unwrap()
    }

    fn deliver(sim: &mut Simulation, to: NodeId, msg: Message) {
        sim.inject(NodeId(4), to, msg.to_payload(0));
        sim.run_for(SimDuration::from_millis(1));
    }

    /// A request as the real client (node 4) would authenticate it, but
    /// naming `client` as its sender.
    fn request_from(g: &TestGroup, client: u32, read_only: bool) -> RequestMsg {
        let keys = NodeKeys::new(g.dir.clone(), 4);
        let mut req = RequestMsg::new(client, 1, read_only, 0, b"add 0 1".to_vec());
        req.auth = Authenticator::generate(&keys, 4, &req.digest());
        req
    }

    /// A pre-prepare for `seq` in view 0, signed and authenticated by that
    /// view's primary.
    fn pre_prepare(g: &TestGroup, seq: u64, batch: Vec<RequestMsg>) -> PrePrepareMsg {
        let primary = NodeKeys::new(g.dir.clone(), 0);
        let mut pp = PrePrepareMsg::new(0, seq, batch, Vec::new());
        pp.sig = pp.with_signed_bytes(|signed| primary.sign(signed));
        pp.auth = Authenticator::generate(&primary, 4, &pp.batch_digest());
        pp
    }

    #[test]
    fn a_client_id_off_the_frame_is_rejected_before_any_key_lookup() {
        let mut sim = Simulation::new(9);
        let g = group(&mut sim);
        // The id a 32-bit field saturates at, and the first id past the
        // directory (4 replicas + 1 client): read-write to the primary,
        // read-only (which would execute and reply at once), and
        // piggybacked in a pre-prepare the primary itself vouches for.
        for (k, client) in [0xFFFF_FFFF, 5].into_iter().enumerate() {
            let k = k as u64;
            deliver(&mut sim, g.replicas[0], Message::Request(request_from(&g, client, false)));
            deliver(&mut sim, g.replicas[0], Message::Request(request_from(&g, client, true)));
            let pp = pre_prepare(&g, 1, vec![request_from(&g, client, false)]);
            deliver(&mut sim, g.replicas[1], Message::PrePrepare(pp));
            let (primary, backup) = (replica(&sim, &g, 0), replica(&sim, &g, 1));
            assert_eq!(primary.stats.rejected_messages, 2 * (k + 1), "client {client:#x}");
            assert_eq!(backup.stats.rejected_messages, k + 1, "client {client:#x}");
            assert!(primary.pending.is_empty() && primary.log.is_empty() && backup.log.is_empty());
            assert_eq!(primary.stats.executed_requests, 0);
        }
        // Nothing was sent in response: no reply, no forward, no prepare.
        assert_eq!(sim.stats().messages_sent, 6);
        // The same frames naming the client that made them are accepted.
        deliver(&mut sim, g.replicas[0], Message::Request(request_from(&g, 4, false)));
        assert_eq!(replica(&sim, &g, 0).log.len(), 1);
        assert_eq!(replica(&sim, &g, 0).stats.rejected_messages, 4);
    }

    #[test]
    fn a_valid_pre_prepare_past_the_window_logs_nothing() {
        let mut sim = Simulation::new(9);
        let g = group(&mut sim);
        let window = g.cfg.log_window;
        for seq in [window + 1, u64::MAX] {
            deliver(&mut sim, g.replicas[1], Message::PrePrepare(pre_prepare(&g, seq, Vec::new())));
            let backup = replica(&sim, &g, 1);
            assert!(backup.log.is_empty() && backup.log.entry(seq).is_none(), "seq {seq}");
            assert_eq!(backup.stats.rejected_messages, 0, "dropped by the watermarks, not as a forgery");
        }
        assert_eq!(sim.stats().messages_sent, 2, "nothing was prepared");
        // The frames were good: the last in-window sequence number is
        // logged and prepared.
        deliver(&mut sim, g.replicas[1], Message::PrePrepare(pre_prepare(&g, window, Vec::new())));
        assert_eq!(replica(&sim, &g, 1).log.len(), 1);
        assert_eq!(sim.stats().messages_sent, 3 + 3, "one prepare to each peer");
    }

    /// Replica 2 behind a door: `b"install"` makes it install `nv` as
    /// [`Replica::handle_new_view`] does once a NEW-VIEW has passed every
    /// check — the step at which `O`'s sequence numbers, which came off the
    /// wire, reach the log.
    struct Installs {
        replica: TestReplica,
        nv: Option<NewViewMsg>,
    }

    impl Actor for Installs {
        fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
            if payload == b"install" {
                self.replica.install_new_view(self.nv.take().expect("installed once"), 0, ctx);
            } else {
                self.replica.on_message(from, payload, ctx);
            }
        }
    }

    #[test]
    fn a_new_view_entry_past_the_window_is_neither_logged_nor_prepared() {
        let cfg = Config::new(4);
        let window = cfg.log_window;
        let dir = base_crypto::KeyDirectory::generate(4, 9);
        let new_primary = NodeKeys::new(dir.clone(), 1);
        let pre_prepares = [3, window + 1, u64::MAX]
            .map(|seq| {
                let mut pp = PrePrepareMsg::new(1, seq, Vec::new(), Vec::new());
                pp.sig = pp.with_signed_bytes(|signed| new_primary.sign(signed));
                pp.auth = Authenticator::generate(&new_primary, 4, &pp.batch_digest());
                pp
            })
            .to_vec();
        let nv = NewViewMsg {
            view: 1,
            view_changes: Vec::new(),
            pre_prepares,
            replica: 1,
            sig: base_crypto::Signature([0; 32]),
        };
        let mut sim = Simulation::new(9);
        for i in 0..4 {
            let replica = Replica::new(cfg.clone(), NodeKeys::new(dir.clone(), i), CounterService::default());
            if i == 2 {
                sim.add_node(Box::new(Installs { replica, nv: Some(nv.clone()) }));
            } else {
                sim.add_node(Box::new(replica));
            }
        }
        sim.inject(NodeId(1), NodeId(2), b"install");
        sim.run_for(SimDuration::from_millis(1));
        let installed = &sim.actor_as::<Installs>(NodeId(2)).unwrap().replica;
        assert_eq!(installed.view(), 1);
        assert_eq!(installed.log.iter().map(|(seq, _)| seq).collect::<Vec<_>>(), vec![3]);
        assert!(installed.log.entry(window + 1).is_none() && installed.log.entry(u64::MAX).is_none());
        assert_eq!(installed.log.entry(3).unwrap().prepares()[0].replica, 2);
        // The door knock plus one prepare to each of three peers.
        assert_eq!(sim.stats().messages_sent, 1 + 3);
    }
}
