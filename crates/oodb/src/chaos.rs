//! Chaos-campaign harness and auditor for the replicated OODB.
//!
//! The OODB is the paper's sharpest demonstration of abstraction: every
//! replica runs the *same* non-deterministic implementation ([`ObjStore`]
//! randomizes addresses and garbage-collects at load-dependent moments), so
//! the concrete heaps diverge immediately while the abstract state must
//! stay identical. The auditor checks exactly that invariant under
//! composed crashes, partitions, Byzantine flips and latent corruption:
//!
//! 1. **Liveness** — every client finishes its workload once faults heal.
//! 2. **Exact results** for the mutator client: it is the only writer, so
//!    each of its replies (object handles, put/ref acknowledgements,
//!    traversal counts) is known in advance.
//! 3. **Plausible results** for the prober client: its read-only probes
//!    race the mutator, so each reply must be one of the states a
//!    sequential interleaving passes through.
//! 4. **No checkpoint fork** — the shared [`Group`] auditors: stable
//!    digests agree among honest replicas, retained digests among clean
//!    ones.
//! 5. **Abstract-state agreement** — clean replicas that reached the final
//!    stable checkpoint hold byte-identical abstract objects, despite
//!    their divergent concrete stores.

use crate::store::ObjStore;
use crate::wrapper::{err, Oid, OodbOp, OodbReply, OodbWrapper};
use base::{BaseClient, BaseReplica, BaseService, Config, Wrapper as _};
use base_pbft::chaos::{
    campaign_config, campaign_gen_config, completed_ops, Group, CAMPAIGN_BOUNDS,
};
use base_pbft::Deployment;
use base_simnet::chaos::{ChaosHarness, LivenessBounds, ScheduleGenConfig};
use base_simnet::{NodeId, SimDuration, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Replica = BaseReplica<OodbWrapper>;

/// Objects the mutator client allocates (and chains with references).
const OBJS: u32 = 6;
/// Traversal depth bound, comfortably above the chain length.
const DEPTH: u32 = 16;
/// Read-only probes issued by the prober client.
const PROBES: usize = 12;

fn oid(index: u32) -> Oid {
    // Fresh allocations on an empty store take indices 0,1,2,... with
    // generation 1 (abstract allocation is deterministic even though the
    // concrete addresses are random).
    Oid { index, gen: 1 }
}

fn field_data(index: u32) -> Vec<u8> {
    format!("obj{index}").into_bytes()
}

/// What the auditor expects of one completed operation.
enum Expect {
    /// Byte-exact reply (mutator client).
    Exact(OodbReply),
    /// `Get` probe on object `index`: stale, still-empty, or written.
    ProbeGet(u32),
    /// `Traverse` probe from the chain root: stale or a prefix count.
    ProbeTraverse,
}

/// A campaign harness replicating the OODB behind the BASE abstraction.
pub struct OodbChaosHarness {
    /// The group configuration a run is built with, seeded by
    /// [`campaign_config`].
    pub cfg: Config,
    /// Gap between a client's submissions (stretches the workload across
    /// the fault schedule).
    pub pace: SimDuration,
    /// Extra settle time after the last scheduled event.
    pub settle: SimDuration,
    // Per-run state, reset by `build`.
    client_nodes: Vec<NodeId>,
    group: Group,
    expected: Vec<Vec<(u64, Expect)>>,
}

impl OodbChaosHarness {
    /// Creates a harness with `n` replicas, a mutator client and a prober
    /// client.
    pub fn new(n: usize) -> Self {
        Self {
            cfg: campaign_config(n),
            pace: SimDuration::from_millis(250),
            settle: SimDuration::from_secs(30),
            client_nodes: Vec::new(),
            group: Group::default(),
            expected: Vec::new(),
        }
    }

    /// Schedule-generation config: replica-targeted faults, at most `f`
    /// impaired at once, Byzantine flips and latent corruption both healed.
    pub fn gen_config(&self, events: usize, horizon: SimDuration) -> ScheduleGenConfig {
        campaign_gen_config(self.cfg.n, self.cfg.f(), events, horizon)
    }

    fn check_reply(
        &self,
        client: usize,
        ts: u64,
        expect: &Expect,
        result: &[u8],
    ) -> Result<(), String> {
        let reply = OodbReply::from_bytes(result)
            .ok_or_else(|| format!("client {client} ts={ts} reply does not parse"))?;
        match expect {
            Expect::Exact(want) => {
                if &reply != want {
                    return Err(format!(
                        "client {client} ts={ts} got {reply:?}, want {want:?}"
                    ));
                }
            }
            Expect::ProbeGet(index) => {
                let ok = match &reply {
                    // The probe may run before the mutator allocated the
                    // object, after allocation but before the field write,
                    // or after the write — nothing else.
                    OodbReply::Err(code) => *code == err::STALE,
                    OodbReply::Data(d) => d.is_empty() || *d == field_data(*index),
                    _ => false,
                };
                if !ok {
                    return Err(format!(
                        "client {client} ts={ts} probe get({index}) returned {reply:?}, \
                         a state no sequential execution passes through"
                    ));
                }
            }
            Expect::ProbeTraverse => {
                let ok = match &reply {
                    OodbReply::Err(code) => *code == err::STALE,
                    // The chain grows one link at a time, so any prefix
                    // count is linearizable.
                    OodbReply::Count(c) => (1..=u64::from(OBJS)).contains(c),
                    _ => false,
                };
                if !ok {
                    return Err(format!(
                        "client {client} ts={ts} probe traverse returned {reply:?}, \
                         a state no sequential execution passes through"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl ChaosHarness for OodbChaosHarness {
    fn build(&mut self, seed: u64) -> Simulation {
        self.expected.clear();

        let mut sim = Simulation::new(seed);
        // Two clients: the mutator and the prober.
        let d = Deployment::build(&mut sim, self.cfg.clone(), 2, seed, |i| {
            // Per-replica store RNGs differ on purpose: the concrete heaps
            // (addresses, GC moments) must diverge while the abstract state
            // stays identical.
            let mut rng = StdRng::seed_from_u64(seed ^ (0xb0de ^ i as u64).rotate_left(17));
            BaseService::new(OodbWrapper::new(ObjStore::new(&mut rng)))
        });
        self.group = Group::new(&mut sim, d.replicas);
        self.client_nodes = d.clients;

        // Client 0, the mutator: allocate a chain of objects, write each
        // one's first field, link them, then read its own work back. It is
        // the only writer, so every reply is exact.
        let mut mutator = Vec::new();
        {
            let client = sim.actor_as_mut::<BaseClient>(self.client_nodes[0]).expect("client");
            client.set_pace(self.pace);
            let mut ts = 0u64;
            let mut push = |client: &mut BaseClient, op: OodbOp, want: OodbReply| {
                ts += 1;
                let ro = op.is_read_only();
                client.invoke(op.to_bytes(), ro);
                mutator.push((ts, Expect::Exact(want)));
            };
            for j in 0..OBJS {
                push(client, OodbOp::New, OodbReply::Handle(oid(j)));
            }
            for j in 0..OBJS {
                push(
                    client,
                    OodbOp::Put { oid: oid(j), field: 0, data: field_data(j) },
                    OodbReply::Ok,
                );
            }
            for j in 0..OBJS - 1 {
                push(
                    client,
                    OodbOp::SetRef { from: oid(j), slot: 0, to: Some(oid(j + 1)) },
                    OodbReply::Ok,
                );
            }
            push(
                client,
                OodbOp::Traverse { root: oid(0), depth: DEPTH },
                OodbReply::Count(u64::from(OBJS)),
            );
            push(
                client,
                OodbOp::Get { oid: oid(3), field: 0 },
                OodbReply::Data(field_data(3)),
            );
        }

        // Client 1, the prober: read-only gets and traversals racing the
        // mutator; every reply must be a state some interleaving visits.
        let mut prober = Vec::new();
        {
            let client = sim.actor_as_mut::<BaseClient>(self.client_nodes[1]).expect("client");
            client.set_pace(self.pace);
            for p in 0..PROBES {
                let ts = (p + 1) as u64;
                if p % 2 == 0 {
                    let index = (p as u32 / 2) % OBJS;
                    client.invoke(OodbOp::Get { oid: oid(index), field: 0 }.to_bytes(), true);
                    prober.push((ts, Expect::ProbeGet(index)));
                } else {
                    client
                        .invoke(OodbOp::Traverse { root: oid(0), depth: DEPTH }.to_bytes(), true);
                    prober.push((ts, Expect::ProbeTraverse));
                }
            }
        }
        self.expected = vec![mutator, prober];
        sim
    }

    fn apply_app(
        &mut self,
        sim: &mut Simulation,
        node: NodeId,
        tag: u32,
        arg: u64,
        trace: &mut Vec<String>,
    ) {
        if !self.group.apply_fault(sim, node, tag, arg, trace) {
            trace.push(format!("app fault tag {tag} at node {} ignored", node.0));
        }
    }

    fn settle(&self) -> SimDuration {
        self.settle
    }

    fn liveness_bounds(&self) -> LivenessBounds {
        CAMPAIGN_BOUNDS
    }

    fn describe(&self, sim: &Simulation) -> Vec<String> {
        self.group.members(sim).iter().map(|(_, r)| r.status()).collect()
    }

    fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
        // Liveness and reply correctness.
        for (i, &c) in self.client_nodes.iter().enumerate() {
            let want = &self.expected[i];
            let done = completed_ops(sim, i, c, want.len())?;
            for ((ts, result), (want_ts, expect)) in done.iter().zip(want) {
                if ts != want_ts {
                    return Err(format!(
                        "client {i} completed ts={ts} out of order (expected ts={want_ts})"
                    ));
                }
                self.check_reply(i, *ts, expect, result)?;
            }
        }

        let all = self.group.members(sim);
        self.group.audit_view_agreement(&all)?;
        self.group.audit_stable_digests(&all)?;
        self.group.audit_retained_checkpoints(&all)?;

        // Abstract-state agreement among clean replicas that reached the
        // final stable checkpoint: identical abstract objects, whatever
        // their concrete heaps look like.
        let converged: Vec<NodeId> =
            self.group.converged_clean(&all)?.iter().map(|(node, _)| *node).collect();
        let mut snapshots: Vec<(NodeId, u64, Vec<Option<Vec<u8>>>)> = Vec::new();
        for &r in &converged {
            let wrapper =
                sim.actor_as_mut::<Replica>(r).expect("replica").service_mut().wrapper_mut();
            let allocated = wrapper.allocated();
            let objs = (0..u64::from(OBJS)).map(|i| wrapper.get_obj(i)).collect();
            snapshots.push((r, allocated, objs));
        }
        let (first, allocated, reference) = &snapshots[0];
        if *allocated != u64::from(OBJS) {
            return Err(format!(
                "replica {} holds {allocated} abstract objects, want {OBJS}",
                first.0
            ));
        }
        for (r, alloc, objs) in &snapshots[1..] {
            if alloc != allocated || objs != reference {
                return Err(format!(
                    "abstract-state divergence between replicas {} and {} \
                     (concrete heaps may differ; abstract objects must not)",
                    first.0, r.0
                ));
            }
        }
        trace.push(format!(
            "audit ok: {} converged clean replicas, {allocated} abstract objects agree",
            snapshots.len()
        ));
        Ok(())
    }
}
