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
use crate::cost::CostModel;
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
    cost: CostModel,
    keys: NodeKeys,
    byz: ByzMode,
    service: S,
    /// Messages, agreement stage and arrival time of every sequence number
    /// in the window, shared by the parts. The stages let agreement run
    /// ahead of execution: the pipeline gate and the read-only staleness
    /// guard read them.
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
            cost: CostModel::default(),
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

    /// Overrides the CPU cost model.
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
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
        let mut stages = [0usize; 4];
        for (seq, _) in self.log.iter() {
            if let Some(stage) = self.log.stage(seq) {
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
    use super::*;
    use crate::deploy::Deployment;
    use crate::messages::{Message, NewViewMsg, PrePrepareMsg, RequestMsg};
    use crate::testing::{op_add, CounterService};
    use crate::ClientActor;
    use base_crypto::Authenticator;
    use base_simnet::{Actor, Context, NodeId, Simulation};

    type TestReplica = Replica<CounterService>;

    fn group(sim: &mut Simulation) -> Deployment {
        Deployment::build(sim, Config::new(4), 1, 9, |_| CounterService::default())
    }

    fn replica<'a>(sim: &'a Simulation, g: &Deployment, i: usize) -> &'a TestReplica {
        sim.actor_as::<TestReplica>(g.replicas[i].node).unwrap()
    }

    fn deliver(sim: &mut Simulation, to: NodeId, msg: Message) {
        sim.inject(NodeId(4), to, msg.to_payload());
        sim.run_for(SimDuration::from_millis(1));
    }

    /// A request authenticated under key id `signer`'s keys, naming
    /// `client` as its sender.
    fn request_from(g: &Deployment, signer: usize, client: u32, read_only: bool) -> RequestMsg {
        let keys = NodeKeys::new(g.dir.clone(), signer);
        let mut req = RequestMsg::new(client, 1, read_only, 0, b"add 0 1".to_vec());
        req.auth = Authenticator::generate(&keys, 4, &req.digest());
        req
    }

    /// A pre-prepare for `seq` in view 0, authenticated by that view's
    /// primary.
    fn pre_prepare(g: &Deployment, seq: u64, batch: Vec<RequestMsg>) -> PrePrepareMsg {
        let primary = NodeKeys::new(g.dir.clone(), 0);
        let mut pp = PrePrepareMsg::new(0, seq, batch, Vec::new());
        pp.auth = Authenticator::generate(&primary, 4, &pp.digest());
        pp
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

    /// Sends `make(read_only)` to the primary read-write and read-only,
    /// and piggybacked in a pre-prepare to backup 1.
    fn send_three_ways(sim: &mut Simulation, g: &Deployment, make: impl Fn(bool) -> RequestMsg) {
        let (primary, backup) = (g.replicas[0].node, g.replicas[1].node);
        deliver(sim, primary, Message::Request(make(false)));
        deliver(sim, primary, Message::Request(make(true)));
        deliver(sim, backup, Message::PrePrepare(pre_prepare(g, 1, vec![make(false)])));
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
            send_three_ways(&mut sim, &g, |ro| request_from(&g, 4, client, ro));
            let (primary, backup) = (replica(&sim, &g, 0), replica(&sim, &g, 1));
            assert_eq!(primary.stats.rejected_messages, 2 * (k + 1), "client {client:#x}");
            assert_eq!(backup.stats.rejected_messages, k + 1, "client {client:#x}");
            assert!(primary.status().ends_with(",\"pending\":0}"), "{}", primary.status());
            assert!(primary.log.is_empty() && backup.log.is_empty());
            assert_eq!(primary.stats.executed_requests, 0);
        }
        // Nothing was sent in response: no reply, no forward, no prepare.
        assert_eq!(sim.stats().messages_sent, 6);
        // The same frames naming the client that made them are accepted.
        deliver(&mut sim, g.replicas[0].node, Message::Request(request_from(&g, 4, 4, false)));
        assert_eq!(replica(&sim, &g, 0).log.len(), 1);
        assert_eq!(replica(&sim, &g, 0).stats.rejected_messages, 4);
    }

    /// A replica holds keys too: a request it authenticates with its own,
    /// naming its own id as the client, passes the MAC check. It is
    /// refused before that check, so nothing is logged, executed or
    /// answered.
    #[test]
    fn a_request_naming_a_replica_as_its_client_is_refused() {
        let mut sim = Simulation::new(9);
        let g = group(&mut sim);
        send_three_ways(&mut sim, &g, |ro| request_from(&g, 2, 2, ro));
        let (primary, backup) = (replica(&sim, &g, 0), replica(&sim, &g, 1));
        assert_eq!(primary.stats.rejected_messages, 2);
        assert_eq!(backup.stats.rejected_messages, 1);
        for i in 0..4 {
            let r = replica(&sim, &g, i);
            assert!(r.log.is_empty(), "replica {i} logged it");
            assert_eq!(r.stats.executed_requests, 0, "replica {i} executed it");
        }
        assert_eq!(sim.stats().messages_sent, 3, "nothing was proposed, prepared or answered");
    }

    #[test]
    fn a_valid_pre_prepare_past_the_window_logs_nothing() {
        let mut sim = Simulation::new(9);
        let g = group(&mut sim);
        let window = g.cfg.log_window;
        for seq in [window + 1, u64::MAX] {
            let pp = pre_prepare(&g, seq, Vec::new());
            deliver(&mut sim, g.replicas[1].node, Message::PrePrepare(pp));
            let backup = replica(&sim, &g, 1);
            assert!(backup.log.is_empty() && backup.log.entry(seq).is_none(), "seq {seq}");
            assert_eq!(
                backup.stats.rejected_messages, 0,
                "dropped by the watermarks, not as a forgery"
            );
        }
        assert_eq!(sim.stats().messages_sent, 2, "nothing was prepared");
        // The frames were good: the last in-window sequence number is
        // logged and prepared.
        let pp = pre_prepare(&g, window, Vec::new());
        deliver(&mut sim, g.replicas[1].node, Message::PrePrepare(pp));
        assert_eq!(replica(&sim, &g, 1).log.len(), 1);
        assert_eq!(sim.stats().messages_sent, 3 + 3, "one prepare to each peer");
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
                pp.auth = Authenticator::generate(&new_primary, 4, &pp.digest());
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
            let replica =
                Replica::new(cfg.clone(), NodeKeys::new(dir.clone(), i), CounterService::default());
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
        assert!(
            installed.log.entry(window + 1).is_none() && installed.log.entry(u64::MAX).is_none()
        );
        assert_eq!(installed.log.entry(3).unwrap().prepares()[0].replica, 2);
        // The door knock plus one prepare to each of three peers.
        assert_eq!(sim.stats().messages_sent, 1 + 3);
    }
}
