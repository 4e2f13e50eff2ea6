//! The PBFT replica.
//!
//! One [`Replica`] runs on one simulator node and drives a [`Service`]
//! through the three-phase agreement protocol, checkpointing, view changes,
//! state transfer, and (optionally) proactive recovery. See the crate
//! documentation for the feature list and `DESIGN.md` §8 for the documented
//! simplifications.
//!
//! `Replica` is a router over six parts, each a plain struct in its own
//! file whose fields no other file can read (DESIGN.md §3.1): `agreement`,
//! `execution`, `checkpoint`, `fetch`, `view_change` and `recovery`. The
//! replica owns the shared context — configuration, keys, service, message
//! log and counters — and the parts. `router` dispatches every message and
//! timer to the parts and runs the sequences that cross them. A part takes
//! what it reads of the others as arguments, and sends and calls the
//! service only through an `io::Io`.

mod agreement;
mod checkpoint;
mod execution;
mod fetch;
mod io;
mod pq;
mod recovery;
mod router;
mod view_change;

use self::agreement::Agreement;
use self::checkpoint::Checkpoints;
use self::execution::Execution;
use self::fetch::Fetch;
use self::recovery::Recovery;
use self::view_change::ViewChange;
use crate::byzantine::ByzMode;
use crate::config::Config;
use crate::log::Log;
use crate::service::Service;
use base_crypto::{Digest, NodeKeys};
use base_simnet::{MetricsRegistry, SimDuration};

pub use self::checkpoint::validate_cert;
pub use self::pq::compute_o;

/// Counters exposed for tests and experiment harnesses.
#[derive(Debug, Default, Clone)]
pub struct ReplicaStats {
    /// Requests executed (including re-executions after recovery).
    pub executed_requests: u64,
    /// Batches (sequence numbers) executed.
    pub executed_batches: u64,
    /// View changes this replica voted for.
    pub view_changes_started: u64,
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

/// A PBFT replica actor.
pub struct Replica<S: Service> {
    cfg: Config,
    keys: NodeKeys,
    byz: ByzMode,
    service: S,
    /// Messages and arrival time of every sequence number in the window,
    /// shared by the parts. A slot's stage is read off its messages, so
    /// agreement runs ahead of execution and the read-only staleness guard
    /// asks the log whether a committed slot waits to execute.
    log: Log,
    agree: Agreement,
    exec: Execution,
    ckpt: Checkpoints,
    fetch: Fetch,
    vc: ViewChange,
    rec: Recovery,
    /// Duration of the last completed recovery, for experiments.
    pub last_recovery_ns: u64,
    /// Public counters.
    pub stats: ReplicaStats,
    /// Per-replica metrics: counters plus log-scale histograms (request
    /// batch occupancy, checkpoint duration, transfer sizes, recovery
    /// wall-time). Always recorded; aggregated by experiments.
    pub metrics: MetricsRegistry,
}

/// `null` or the number, for a status line.
fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |v| v.to_string())
}

impl<S: Service> Replica<S> {
    /// Creates a replica. Its id is taken from `keys` and must match the
    /// simulator node it is installed on.
    pub fn new(cfg: Config, keys: NodeKeys, service: S) -> Self {
        let id = keys.id() as u32;
        assert!((id as usize) < cfg.n, "replica id must be < n");
        Self {
            log: Log::new(cfg.log_window),
            agree: Agreement::new(),
            exec: Execution::default(),
            ckpt: Checkpoints::default(),
            fetch: Fetch::default(),
            vc: ViewChange::new(&cfg, id),
            rec: Recovery::default(),
            cfg,
            keys,
            byz: ByzMode::Honest,
            service,
            last_recovery_ns: 0,
            stats: ReplicaStats::default(),
            metrics: MetricsRegistry::new(),
        }
    }

    fn id(&self) -> u32 {
        self.keys.id() as u32
    }

    /// The replica's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The current view-change timeout (exposed so tests can assert the
    /// doubling is capped).
    pub fn vc_timeout(&self) -> SimDuration {
        self.vc.timeout()
    }

    /// Configures Byzantine behaviour (fault injection).
    ///
    /// [`ByzMode::CorruptState`] takes effect immediately: the service's
    /// concrete state is flipped once (latent corruption) and the replica
    /// then continues to follow the protocol on the damaged state.
    pub fn set_byzantine(&mut self, mode: ByzMode) {
        self.byz = mode;
        if matches!(mode, ByzMode::CorruptState) {
            self.service.corrupt_state(0x5eed_0000 | u64::from(self.id()));
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
        self.rec.trigger();
    }

    /// Selects clean (paper §3.4) or warm proactive-recovery reboots.
    pub fn set_recovery_clean(&mut self, clean: bool) {
        self.rec.set_clean(clean);
    }

    /// Current view.
    pub fn view(&self) -> u64 {
        self.vc.view()
    }

    /// Highest executed sequence number.
    pub fn last_exec(&self) -> u64 {
        self.exec.last_exec()
    }

    /// Last stable checkpoint.
    pub fn stable_seq(&self) -> u64 {
        self.ckpt.stable_seq()
    }

    /// True while a state transfer is in progress.
    pub fn fetching(&self) -> bool {
        self.fetch.active()
    }

    /// True while a proactive recovery is still repairing state.
    pub fn recovering(&self) -> bool {
        self.rec.recovering()
    }

    /// Composite digest of the locally retained checkpoint at `seq`, if
    /// still stored. Safety auditors compare these across honest replicas:
    /// two honest replicas disagreeing at the same stable sequence number
    /// is a checkpoint fork.
    pub fn checkpoint_digest(&self, seq: u64) -> Option<Digest> {
        self.ckpt.digest(seq)
    }

    /// All locally retained checkpoint digests, oldest first.
    pub fn checkpoint_digests(&self) -> Vec<(u64, Digest)> {
        self.ckpt.digests()
    }

    /// Digest proven by the current stable-checkpoint certificate.
    pub fn stable_digest(&self) -> Option<Digest> {
        self.ckpt.stable_digest()
    }

    /// The cached reply for `client`'s request at `timestamp`, if this
    /// replica still remembers it. Auditors use this to cross-check reply
    /// certificates against replica execution.
    pub fn cached_reply(&self, client: u32, timestamp: u64) -> Option<&[u8]> {
        self.exec.cached_reply(client, timestamp)
    }

    /// Read access to the service, for test inspection.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Mutable access to the service, for fault injection in tests.
    pub fn service_mut(&mut self) -> &mut S {
        &mut self.service
    }

    /// Where the replica stands, as one deterministic JSON line: its view
    /// and view change, watermarks, execution and the stage of every slot
    /// in the window, the fetch, the recovery and the queues. Each part
    /// writes its own fields.
    pub fn status(&self) -> String {
        let mut out = format!("{{\"replica\":{}", self.id());
        self.vc.status(&mut out);
        self.ckpt.status(&mut out, &self.cfg);
        self.exec.status(&mut out);
        let (view, f, last_exec) = (self.vc.installed(), self.cfg.f(), self.exec.last_exec());
        let mut stages = [0usize; 4];
        for (seq, entry) in self.log.iter() {
            if let Some(stage) = entry.stage(view, f, seq <= last_exec) {
                stages[stage as usize] += 1;
            }
        }
        let [proposed, prepared, committed, executed] = stages;
        out.push_str(&format!(
            ",\"slots\":{{\"proposed\":{proposed},\"prepared\":{prepared},\
             \"committed\":{committed},\"executed\":{executed}}}"
        ));
        self.fetch.status(&mut out);
        self.rec.status(&mut out);
        self.agree.status(&mut out);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::view_change::TOKEN_VIEW_CHANGE;
    use super::*;
    use crate::deploy::Deployment;
    use crate::messages::{
        CommitMsg, Message, NewViewMsg, PrePrepareMsg, PrepareMsg, RequestMsg, StatusMsg,
        ViewChangeMsg,
    };
    use crate::service::ExecEnv;
    use crate::testing::{op_add, op_get, CounterService};
    use crate::tree::PartitionTree;
    use crate::ClientActor;
    use base_crypto::{Authenticator, KeyDirectory};
    use base_simnet::{Actor, Context, Effect, NodeId, SimTime, Simulation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type TestReplica = Replica<CounterService>;

    fn group(sim: &mut Simulation) -> Deployment {
        Deployment::build(sim, Config::new(4), 1, 9, |_| CounterService::default())
    }

    fn replica<'a>(sim: &'a Simulation, g: &Deployment, i: usize) -> &'a TestReplica {
        sim.actor_as::<TestReplica>(g.replicas[i].node).unwrap()
    }

    /// The keys of four replicas and one client (key id 4).
    fn keys() -> KeyDirectory {
        KeyDirectory::generate(5, 9)
    }

    /// Replica `i` of four, stepped by hand: the parts its contexts are
    /// built over, kept from step to step.
    struct Stepped<S: Service = CounterService> {
        replica: Replica<S>,
        rng: StdRng,
        next_timer_id: u64,
        effects: Vec<Effect>,
    }

    impl Stepped {
        fn new(dir: &KeyDirectory, i: usize) -> Self {
            Stepped::with(dir, i, Config::new(4), CounterService::default())
        }
    }

    impl<S: Service> Stepped<S> {
        fn with(dir: &KeyDirectory, i: usize, cfg: Config, service: S) -> Self {
            let keys = NodeKeys::new(dir.clone(), i);
            Stepped {
                replica: Replica::new(cfg, keys, service),
                rng: StdRng::seed_from_u64(9),
                next_timer_id: 0,
                effects: Vec::new(),
            }
        }

        /// Runs `f` as one step and returns the effects it asked for.
        fn step(&mut self, f: impl FnOnce(&mut Replica<S>, &mut Context<'_>)) -> Vec<Effect> {
            let id = NodeId(self.replica.id() as usize);
            let (rng, ids, effects) = (&mut self.rng, &mut self.next_timer_id, &mut self.effects);
            f(&mut self.replica, &mut Context::new(SimTime::ZERO, id, rng, ids, effects, None));
            std::mem::take(&mut self.effects)
        }

        /// Steps the replica through one delivery of `msg` from node `from`.
        fn deliver(&mut self, from: usize, msg: Message) -> Vec<Effect> {
            self.step(|r, ctx| r.on_payload(NodeId(from), &msg.to_payload(), ctx))
        }
    }

    /// The messages `effects` sends, each with its recipient.
    fn sent(effects: &[Effect]) -> Vec<(usize, Message)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, payload } => Some((to.0, Message::from_payload(payload)?)),
                _ => None,
            })
            .collect()
    }

    /// A request authenticated under key id `signer`'s keys, naming
    /// `client` as its sender.
    fn request_from(dir: &KeyDirectory, signer: usize, client: u32, read_only: bool) -> RequestMsg {
        let keys = NodeKeys::new(dir.clone(), signer);
        let mut req = RequestMsg::new(client, 1, read_only, 0, b"add 0 1".to_vec());
        req.auth = Authenticator::generate(&keys, 4, &req.digest());
        req
    }

    /// A pre-prepare for `seq` in view 0, authenticated by that view's
    /// primary.
    fn pre_prepare(dir: &KeyDirectory, seq: u64, batch: Vec<RequestMsg>) -> PrePrepareMsg {
        let primary = NodeKeys::new(dir.clone(), 0);
        let mut pp = PrePrepareMsg::new(0, seq, batch, Vec::new());
        pp.auth = pp.with_signed_bytes(|header| Authenticator::generate(&primary, 4, header));
        pp
    }

    /// Takes `backup` (replica 1) through the agreement round of `pp`:
    /// prepares from backups 2 and 3, then commits from both (its own
    /// prepare and commit complete the quorums).
    fn commit_slot(backup: &mut Stepped, dir: &KeyDirectory, pp: PrePrepareMsg) {
        let (view, seq, digest) = (pp.view, pp.seq, pp.batch_digest());
        backup.deliver(0, Message::PrePrepare(pp));
        endorse(backup, dir, [2, 3], (view, seq, digest));
    }

    /// Replica `from`'s PREPARE of `digest` at `(view, seq)`.
    fn prepare(dir: &KeyDirectory, from: u32, (view, seq, digest): (u64, u64, Digest)) -> Message {
        let keys = NodeKeys::new(dir.clone(), from as usize);
        let auth = Authenticator::default();
        let mut p = PrepareMsg { view, seq, digest, replica: from, auth };
        p.auth = p.with_signed_bytes(|header| Authenticator::generate(&keys, 4, header));
        Message::Prepare(p)
    }

    /// Delivers prepares from both of `peers`, then commits from both, for
    /// `digest` at `(view, seq)`, and returns the effects of the four steps.
    fn endorse<S: Service>(
        replica: &mut Stepped<S>,
        dir: &KeyDirectory,
        peers: [u32; 2],
        (view, seq, digest): (u64, u64, Digest),
    ) -> Vec<Effect> {
        let mut effects = Vec::new();
        for replica_id in peers {
            let p = prepare(dir, replica_id, (view, seq, digest));
            effects.extend(replica.deliver(replica_id as usize, p));
        }
        for replica_id in peers {
            let keys = NodeKeys::new(dir.clone(), replica_id as usize);
            let auth = Authenticator::default();
            let mut c = CommitMsg { view, seq, digest, replica: replica_id, auth };
            c.auth = c.with_signed_bytes(|header| Authenticator::generate(&keys, 4, header));
            effects.extend(replica.deliver(replica_id as usize, Message::Commit(c)));
        }
        effects
    }

    #[test]
    fn status_reports_every_part_in_one_line() {
        let mut sim = Simulation::new(9);
        let g = group(&mut sim);
        let client = sim.actor_as_mut::<ClientActor>(g.clients[0]).unwrap();
        for _ in 0..10 {
            client.invoke(op_add(0, 1), false);
        }
        sim.run_for(SimDuration::from_secs(2));
        // Ten executed slots in view 0, nothing pending, fetching or
        // recovering; every replica reads the same but for its id.
        let want = concat!(
            r#"{"replica":0,"view":0,"view_change":null,"vc_from":[],"vc_timer":false,"#,
            r#""vc_timeout_ns":500000000,"h":0,"H":256,"last_exec":10,"ro_deferred":0,"#,
            r#""slots":{"proposed":0,"prepared":0,"committed":0,"executed":10},"fetch":null,"#,
            r#""recovering_since_ns":null,"pending":0}"#
        );
        for i in 0..4 {
            let want = want.replace(r#""replica":0"#, &format!(r#""replica":{i}"#));
            assert_eq!(replica(&sim, &g, i).status(), want);
        }
    }

    /// A backup handed a client's request arms its view's progress timer at
    /// `RTO`, both before any batch has executed and after batches have.
    #[test]
    fn a_backup_arms_the_progress_timer_at_the_rto_before_and_after_rounds() {
        let dir = keys();
        let mut backup = Stepped::new(&dir, 1);
        let client = NodeKeys::new(dir.clone(), 4);
        for ts in 1..=2 {
            let mut req = RequestMsg::new(4, ts, false, 0, op_add(0, 1));
            req.auth = Authenticator::generate(&client, 4, &req.digest());
            let effects = backup.deliver(4, Message::Request(req.clone()));
            let armed: Vec<SimDuration> = effects
                .iter()
                .filter_map(|e| match e {
                    Effect::SetTimer { delay, token: TOKEN_VIEW_CHANGE, .. } => Some(*delay),
                    _ => None,
                })
                .collect();
            assert_eq!(armed, [crate::config::RTO], "request {ts}");
            let status = backup.replica.status();
            assert!(status.contains(r#""vc_timer":true"#), "request {ts} armed no timer");
            assert_eq!(backup.replica.vc_timeout(), crate::config::RTO, "request {ts}");
            let last_exec = backup.replica.last_exec();
            assert_eq!(last_exec, ts - 1, "request {ts} arrived after {} rounds", ts - 1);
            commit_slot(&mut backup, &dir, pre_prepare(&dir, ts, vec![req]));
        }
        assert_eq!(backup.replica.last_exec(), 2);
    }

    /// Steps `make(read_only)` through the primary read-write and
    /// read-only, and piggybacked in a pre-prepare through backup 1, and
    /// returns the effects of the three steps.
    fn send_three_ways(
        replicas: &mut [Stepped],
        dir: &KeyDirectory,
        make: impl Fn(bool) -> RequestMsg,
    ) -> Vec<Effect> {
        let mut effects = replicas[0].deliver(4, Message::Request(make(false)));
        effects.extend(replicas[0].deliver(4, Message::Request(make(true))));
        let pp = pre_prepare(dir, 1, vec![make(false)]);
        effects.extend(replicas[1].deliver(0, Message::PrePrepare(pp)));
        effects
    }

    #[test]
    fn a_client_id_off_the_frame_is_rejected_before_any_key_lookup() {
        let dir = keys();
        let mut replicas = [0, 1].map(|i| Stepped::new(&dir, i));
        // The id a 32-bit field saturates at, and the first id past the
        // directory (4 replicas + 1 client): read-write to the primary,
        // read-only (which would execute and reply at once), and
        // piggybacked in a pre-prepare the primary itself vouches for.
        for (k, client) in [0xFFFF_FFFF, 5].into_iter().enumerate() {
            let k = k as u64;
            let effects = send_three_ways(&mut replicas, &dir, |ro| request_from(&dir, 4, client, ro));
            // Nothing was sent in response: no reply, no forward, no prepare.
            assert_eq!(effects, [], "client {client:#x}");
            let [primary, backup] = [&replicas[0].replica, &replicas[1].replica];
            assert_eq!(primary.stats.rejected_messages, 2 * (k + 1), "client {client:#x}");
            assert_eq!(backup.stats.rejected_messages, k + 1, "client {client:#x}");
            assert!(primary.status().ends_with(",\"pending\":0}"), "{}", primary.status());
            assert!(primary.log.is_empty() && backup.log.is_empty());
            assert_eq!(primary.stats.executed_requests, 0);
        }
        // The same frames naming the client that made them are accepted.
        replicas[0].deliver(4, Message::Request(request_from(&dir, 4, 4, false)));
        assert_eq!(replicas[0].replica.log.len(), 1);
        assert_eq!(replicas[0].replica.stats.rejected_messages, 4);
    }

    /// A replica holds keys too: a request it authenticates with its own,
    /// naming its own id as the client, passes the MAC check. It is
    /// refused before that check, so nothing is logged, executed or
    /// answered.
    #[test]
    fn a_request_naming_a_replica_as_its_client_is_refused() {
        let dir = keys();
        let mut replicas = [0, 1, 2, 3].map(|i| Stepped::new(&dir, i));
        let effects = send_three_ways(&mut replicas, &dir, |ro| request_from(&dir, 2, 2, ro));
        let (primary, backup) = (&replicas[0].replica, &replicas[1].replica);
        assert_eq!(primary.stats.rejected_messages, 2);
        assert_eq!(backup.stats.rejected_messages, 1);
        for (i, r) in replicas.iter().enumerate() {
            let r = &r.replica;
            assert!(r.log.is_empty(), "replica {i} logged it");
            assert_eq!(r.stats.executed_requests, 0, "replica {i} executed it");
        }
        assert_eq!(effects, [], "nothing was proposed, prepared or answered");
    }

    #[test]
    fn a_valid_pre_prepare_past_the_window_logs_nothing() {
        let dir = keys();
        let mut backup = Stepped::new(&dir, 1);
        let window = backup.replica.cfg.log_window;
        for seq in [window + 1, u64::MAX] {
            let pp = pre_prepare(&dir, seq, Vec::new());
            let effects = backup.deliver(0, Message::PrePrepare(pp));
            let backup = &backup.replica;
            assert!(backup.log.is_empty() && backup.log.entry(seq).is_none(), "seq {seq}");
            assert_eq!(
                backup.stats.rejected_messages, 0,
                "dropped by the watermarks, not as a forgery"
            );
            assert_eq!(effects, [], "nothing was prepared");
        }
        // The frames were good: the last in-window sequence number is
        // logged and prepared.
        let pp = pre_prepare(&dir, window, Vec::new());
        let effects = backup.deliver(0, Message::PrePrepare(pp));
        assert_eq!(backup.replica.log.len(), 1);
        let prepares: Vec<_> = sent(&effects)
            .into_iter()
            .map(|(to, m)| (to, matches!(m, Message::Prepare(p) if p.seq == window)))
            .collect();
        assert_eq!(prepares, [(0, true), (2, true), (3, true)], "one prepare to each peer");
    }

    /// A primary reinstalled with a fresh state numbers its proposals from
    /// 1, but catches up by state transfer to the group's stable checkpoint.
    /// A proposal at or below that low watermark is logged by no replica,
    /// so its request would wait for a retransmission or a view change.
    /// Numbered above it, the request commits at once, in view 0.
    #[test]
    fn a_reinstalled_primary_proposes_above_what_it_caught_up_to() {
        let mut cfg = Config::new(4);
        cfg.checkpoint_interval = 4;
        let mut sim = Simulation::new(9);
        let mut g = Deployment::build(&mut sim, cfg, 1, 9, |_| CounterService::default());
        let client = g.clients[0];
        let write = |sim: &mut Simulation, count| {
            let client = sim.actor_as_mut::<ClientActor>(client).unwrap();
            (0..count).for_each(|_| client.invoke(op_add(0, 1), false));
        };
        write(&mut sim, 8);
        sim.run_for(SimDuration::from_secs(1));
        g.replace(&mut sim, 0, CounterService::default());
        sim.run_for(SimDuration::from_secs(1));
        let fresh = replica(&sim, &g, 0);
        assert_eq!((fresh.stable_seq(), fresh.last_exec()), (8, 8), "{}", fresh.status());

        write(&mut sim, 1);
        sim.run_for(SimDuration::from_millis(20));
        for i in 0..4 {
            let r = replica(&sim, &g, i);
            assert_eq!((r.view(), r.last_exec()), (0, 9), "replica {i}: {}", r.status());
        }
        assert_eq!(sim.actor_as::<ClientActor>(client).unwrap().completed.len(), 9);
    }

    /// Replica 2 installs a NEW-VIEW as [`Replica::handle_new_view`] does
    /// once one has passed every check: the step at which `O`'s sequence
    /// numbers, which came off the wire, reach the log.
    #[test]
    fn a_new_view_entry_past_the_window_is_neither_logged_nor_prepared() {
        let dir = keys();
        let mut installed = Stepped::new(&dir, 2);
        let window = installed.replica.cfg.log_window;
        let new_primary = NodeKeys::new(dir.clone(), 1);
        let pre_prepares = [3, window + 1, u64::MAX]
            .map(|seq| {
                let mut pp = PrePrepareMsg::new(1, seq, Vec::new(), Vec::new());
                pp.auth =
                    pp.with_signed_bytes(|header| Authenticator::generate(&new_primary, 4, header));
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
        let effects = installed.step(|r, ctx| r.install_new_view(nv, 0, ctx));
        let installed = &installed.replica;
        assert_eq!(installed.view(), 1);
        assert_eq!(installed.log.iter().map(|(seq, _)| seq).collect::<Vec<_>>(), vec![3]);
        assert!(
            installed.log.entry(window + 1).is_none() && installed.log.entry(u64::MAX).is_none()
        );
        assert_eq!(installed.log.entry(3).unwrap().prepares()[0].replica, 2);
        // One prepare, of sequence number 3 in view 1, to each of three peers.
        let prepares: Vec<_> = sent(&effects)
            .into_iter()
            .map(|(to, m)| (to, matches!(m, Message::Prepare(p) if (p.view, p.seq) == (1, 3))))
            .collect();
        assert_eq!(prepares, [(0, true), (1, true), (3, true)]);
    }

    /// The counter service with an 8-byte non-deterministic choice, the
    /// primary's clock reading, as the KV and NFS wrappers choose one; a
    /// backup endorses a reading within a second of its own clock.
    #[derive(Default)]
    struct Clocked(CounterService);

    const CLOCKED_SKEW_NS: u64 = 1_000_000_000;

    impl Service for Clocked {
        fn execute(
            &mut self,
            op: &[u8],
            client: u32,
            nondet: &[u8],
            read_only: bool,
            env: &mut ExecEnv<'_>,
        ) -> Vec<u8> {
            self.0.execute(op, client, nondet, read_only, env)
        }
        fn propose_nondet(&mut self, env: &mut ExecEnv<'_>) -> Vec<u8> {
            env.local_clock_ns.to_be_bytes().to_vec()
        }
        fn check_nondet(&self, nondet: &[u8], env: &mut ExecEnv<'_>) -> bool {
            let Ok(bytes) = <[u8; 8]>::try_from(nondet) else { return false };
            u64::from_be_bytes(bytes).abs_diff(env.local_clock_ns) <= CLOCKED_SKEW_NS
        }
        fn take_checkpoint(&mut self, seq: u64, env: &mut ExecEnv<'_>) -> Digest {
            self.0.take_checkpoint(seq, env)
        }
        fn discard_checkpoints_below(&mut self, seq: u64) {
            self.0.discard_checkpoints_below(seq)
        }
        fn checkpoint_meta(&self, seq: u64, level: u32, index: u64) -> Option<Vec<Digest>> {
            self.0.checkpoint_meta(seq, level, index)
        }
        fn checkpoint_object(&mut self, seq: u64, index: u64) -> Option<Vec<u8>> {
            self.0.checkpoint_object(seq, index)
        }
        fn current_tree(&self) -> &PartitionTree {
            self.0.current_tree()
        }
        fn install_checkpoint(
            &mut self,
            seq: u64,
            root: Digest,
            objs: Vec<(u64, Option<Vec<u8>>)>,
            env: &mut ExecEnv<'_>,
        ) {
            self.0.install_checkpoint(seq, root, objs, env)
        }
    }

    /// A backup that holds 2f prepares for a slot and then logs its
    /// pre-prepare without endorsing it (the primary's clock reading lies
    /// an hour outside the skew window) sends neither a PREPARE nor a
    /// COMMIT, and reports the slot as the messages it holds add up to:
    /// prepared.
    #[test]
    fn a_backup_that_does_not_endorse_a_prepared_slot_reports_it_prepared() {
        let dir = keys();
        let mut backup = Stepped::with(&dir, 3, Config::new(4), Clocked::default());
        let hour = 3600 * 1_000_000_000u64;
        let primary = NodeKeys::new(dir.clone(), 0);
        let batch = vec![request_from(&dir, 4, 4, false)];
        let mut pp = PrePrepareMsg::new(0, 1, batch, hour.to_be_bytes().to_vec());
        pp.auth = pp.with_signed_bytes(|header| Authenticator::generate(&primary, 4, header));
        let (mut effects, slot) = (Vec::new(), (0, 1, pp.batch_digest()));
        for from in [1, 2] {
            effects.extend(backup.deliver(from as usize, prepare(&dir, from, slot)));
        }
        effects.extend(backup.deliver(0, Message::PrePrepare(pp)));
        assert_eq!(sent(&effects), [], "no PREPARE, no COMMIT");
        let backup = &backup.replica;
        assert_eq!(backup.stats.rejected_messages, 1, "the proposal was not endorsed");
        let status = backup.status();
        let slots = r#""slots":{"proposed":0,"prepared":1,"committed":0,"executed":0}"#;
        assert!(status.contains(slots), "{status}");
    }

    /// A slot committed in view 0 above a gap is backlog also while a view
    /// change to view 1 is under way: the stage is read in the view of the
    /// last installed NEW-VIEW, not in the view being changed to, so a
    /// read-only request waits rather than reading the state the backlog
    /// will change.
    #[test]
    fn a_read_during_a_view_change_waits_for_the_installed_views_backlog() {
        let dir = keys();
        let mut backup = Stepped::new(&dir, 2);
        let pp = pre_prepare(&dir, 2, vec![request_from(&dir, 4, 4, false)]);
        let slot = (0, 2, pp.batch_digest());
        backup.deliver(0, Message::PrePrepare(pp));
        endorse(&mut backup, &dir, [1, 3], slot);
        for from in [0, 1, 3] {
            let keys = NodeKeys::new(dir.clone(), from);
            let mut vc = ViewChangeMsg {
                new_view: 1,
                firm: false,
                stable_seq: 0,
                stable_digest: Digest::ZERO,
                stable_proof: Vec::new(),
                p: Vec::new(),
                q: Vec::new(),
                replica: from as u32,
                sig: base_crypto::Signature([0; 32]),
            };
            vc.sig = vc.with_signed_bytes(|signed| keys.sign(signed));
            backup.deliver(from, Message::ViewChange(vc));
        }
        let status = backup.replica.status();
        assert!(status.contains(r#""view":1,"view_change":1"#), "{status}");
        assert!(status.contains(r#""committed":1"#), "{status}");
        let effects = backup.deliver(4, Message::Request(request_from(&dir, 4, 4, true)));
        assert_eq!(sent(&effects), [], "no reply from the state before slot 2");
        let status = backup.replica.status();
        assert!(status.contains(r#""last_exec":0,"ro_deferred":1"#), "{status}");
    }

    /// Replica 0, the primary of view 0, in `mode`, stepped through one
    /// write and one read: the client's write, prepares and commits from
    /// backups 1 and 2 (after which it executes the write, replies in full
    /// and takes checkpoint 1), a read-only get whose full result replica 1
    /// sends (so replica 0 sends its digest), and a STATUS from backup 3,
    /// which has executed nothing and so draws every message logged for
    /// slot 1. Returns the replica and what it sent, in order, with each
    /// recipient.
    fn shaped_run(dir: &KeyDirectory, mode: ByzMode) -> (Stepped<Clocked>, Vec<(usize, Message)>) {
        let mut cfg = Config::new(4);
        cfg.checkpoint_interval = 1;
        let mut primary = Stepped::with(dir, 0, cfg, Clocked::default());
        primary.replica.set_byzantine(mode);
        let client = NodeKeys::new(dir.clone(), 4);
        let request = |ts, read_only, full_replier, op| {
            let mut req = RequestMsg::new(4, ts, read_only, full_replier, op);
            req.auth = Authenticator::generate(&client, 4, &req.digest());
            Message::Request(req)
        };
        let mut effects = primary.deliver(4, request(1, false, 0, op_add(0, 1)));
        let entry = primary.replica.log.entry(1).expect("the write is proposed");
        let digest = entry.pre_prepare.as_ref().expect("and logged").batch_digest();
        effects.extend(endorse(&mut primary, dir, [1, 2], (0, 1, digest)));
        effects.extend(primary.deliver(4, request(2, true, 1, op_get(0))));
        let status = StatusMsg { view: 0, last_exec: 0, stable_seq: 0, replica: 3 };
        effects.extend(primary.deliver(3, Message::Status(status)));
        (primary, sent(&effects))
    }

    /// A message-shaping mode changes only the frames that leave the
    /// replica: stepped through the same inputs, an honest primary and its
    /// faulty twin log, store, execute and report the same, and their
    /// frames differ exactly as the mode says. Each forged frame verifies
    /// under the twin's keys where its recipient checks it.
    #[test]
    fn a_shaping_mode_changes_only_the_wire() {
        let dir = keys();
        let (honest, wire) = shaped_run(&dir, ByzMode::Honest);
        assert_eq!(honest.replica.last_exec(), 1, "{}", honest.replica.status());
        let stored = honest.replica.checkpoint_digests();
        assert_eq!(stored.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(), [1]);
        let (pp, prepare, commit, reply, ckpt) =
            ("pre-prepare", "prepare", "commit", "reply", "checkpoint");
        let kinds: Vec<_> = wire.iter().map(|(to, m)| (*to, m.kind())).collect();
        assert_eq!(
            kinds,
            [(1, pp), (2, pp), (3, pp), (1, commit), (2, commit), (3, commit), (4, reply)]
                .into_iter()
                .chain([(1, ckpt), (2, ckpt), (3, ckpt), (4, reply), (3, pp)])
                .chain([(3, prepare), (3, prepare), (3, commit), (3, commit), (3, commit)])
                .collect::<Vec<_>>()
        );
        let keys_of = |i: usize| NodeKeys::new(dir.clone(), i);
        for mode in [
            ByzMode::Mute,
            ByzMode::WithholdCommits,
            ByzMode::CorruptReplies,
            ByzMode::CorruptCheckpoints,
            ByzMode::EquivocatePrimary,
            ByzMode::BadTimestamps,
        ] {
            let (twin, shaped) = shaped_run(&dir, mode);
            let (h, t) = (&honest.replica, &twin.replica);
            assert_eq!(format!("{:?}", t.log), format!("{:?}", h.log), "{mode:?}: log");
            assert_eq!(t.checkpoint_digests(), stored, "{mode:?}: stored checkpoints");
            assert_eq!(t.last_exec(), h.last_exec(), "{mode:?}: last_exec");
            assert_eq!(t.status(), h.status(), "{mode:?}: status");
            if mode == ByzMode::Mute {
                assert_eq!(shaped, [], "a mute replica sends nothing");
                continue;
            }
            if mode == ByzMode::WithholdCommits {
                let own = |m: &Message| matches!(m, Message::Commit(c) if c.replica == 0);
                let kept: Vec<_> = wire.iter().filter(|(_, m)| !own(m)).cloned().collect();
                assert_eq!(shaped, kept, "its own commits are dropped, nothing else");
                let relayed: Vec<_> = shaped
                    .iter()
                    .filter_map(|(to, m)| match m {
                        Message::Commit(c) => Some((*to, c.replica)),
                        _ => None,
                    })
                    .collect();
                assert_eq!(relayed, [(3, 1), (3, 2)], "the STATUS resend relays its peers'");
                continue;
            }
            assert_eq!(shaped.len(), wire.len(), "{mode:?}");
            let mut forged = 0;
            for ((to, sent), (to_shaped, shaped)) in wire.iter().zip(&shaped) {
                assert_eq!(to, to_shaped, "{mode:?}");
                let at = keys_of(*to);
                match (mode, sent, shaped) {
                    (ByzMode::CorruptReplies, Message::Reply(r), Message::Reply(s)) => {
                        let flipped: Vec<u8> = r.result.iter().map(|b| b ^ 0xa5).collect();
                        assert_eq!(*s.result, *flipped, "digest only: {}", r.digest_only);
                        assert_eq!(s.digest_only, r.digest_only);
                        let signed = s.signed_bytes();
                        assert!(Authenticator::check_point(&at, 0, &signed, &s.mac));
                    }
                    (
                        ByzMode::CorruptCheckpoints,
                        Message::Checkpoint(c),
                        Message::Checkpoint(s),
                    ) => {
                        assert_eq!(s.digest, Digest::of_parts(&[b"corrupt", &c.digest.0]));
                        assert!(s.with_signed_bytes(|signed| at.verify(0, signed, &s.sig)));
                    }
                    (ByzMode::EquivocatePrimary, Message::PrePrepare(p), Message::PrePrepare(s))
                        if to % 2 == 1 =>
                    {
                        assert_eq!(s.nondet(), [p.nondet(), &[0xff]].concat(), "to {to}");
                        assert_ne!(s.batch_digest(), p.batch_digest());
                        assert!(s.auth.check(&at, 0, &s.signed_bytes()), "to {to}");
                    }
                    (ByzMode::BadTimestamps, Message::PrePrepare(p), Message::PrePrepare(s)) => {
                        let century = 100 * 365 * 24 * 3600 * 1_000_000_000u64;
                        assert_eq!(p.nondet(), 0u64.to_be_bytes(), "the honest clock at 0");
                        assert_eq!(s.nondet(), century.to_be_bytes(), "to {to}");
                        assert!(s.auth.check(&at, 0, &s.signed_bytes()), "to {to}");
                    }
                    _ => {
                        assert_eq!(sent, shaped, "{mode:?}: to {to}");
                        continue;
                    }
                }
                forged += 1;
            }
            // Two replies (full and digest-only); one CHECKPOINT to each
            // peer; the pre-prepare to backups 1 and 3, the resend to 3
            // included; the pre-prepare to all three backups and the resend.
            let want = match mode {
                ByzMode::CorruptReplies => 2,
                ByzMode::CorruptCheckpoints => 3,
                ByzMode::EquivocatePrimary => 3,
                _ => 4,
            };
            assert_eq!(forged, want, "{mode:?}");
        }
    }
}
