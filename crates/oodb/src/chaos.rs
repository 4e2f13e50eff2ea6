//! The chaos-campaign workload and checks of the replicated OODB.
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
//! 4. **No checkpoint fork** — the shared [`Group`] auditors that every
//!    [`ServiceCampaign`](base_pbft::chaos::ServiceCampaign) runs: stable
//!    digests agree among honest replicas, retained digests among clean
//!    ones.
//! 5. **Abstract-state agreement** — clean replicas that reached the final
//!    stable checkpoint hold byte-identical abstract objects, despite
//!    their divergent concrete stores.

use crate::store::ObjStore;
use crate::wrapper::{err, Oid, OodbOp, OodbReply, OodbWrapper};
use base::{BaseClient, BaseReplica, BaseService, Config, Wrapper as _};
use base_pbft::chaos::{completed_ops, Group, Workload, CAMPAIGN_PACE};
use base_pbft::Deployment;
use base_simnet::{NodeId, Simulation};
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

/// The OODB behind the BASE abstraction under two clients, a mutator and
/// a prober; run it as `ServiceCampaign::new(4, OodbWorkload::default())`.
#[derive(Default)]
pub struct OodbWorkload {
    // Per-run state, reset by `deploy`: each client's expected replies.
    expected: Vec<Vec<(u64, Expect)>>,
}

impl OodbWorkload {
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

impl Workload for OodbWorkload {
    fn deploy(&mut self, sim: &mut Simulation, cfg: Config, seed: u64) -> Deployment {
        // Two clients: the mutator and the prober.
        let d = Deployment::build(sim, cfg, 2, seed, |i| {
            // Per-replica store RNGs differ on purpose: the concrete heaps
            // (addresses, GC moments) must diverge while the abstract state
            // stays identical.
            let mut rng = StdRng::seed_from_u64(seed ^ (0xb0de ^ i as u64).rotate_left(17));
            BaseService::new(OodbWrapper::new(ObjStore::new(&mut rng)))
        });

        // Client 0, the mutator: allocate a chain of objects, write each
        // one's first field, link them, then read its own work back. It is
        // the only writer, so every reply is exact.
        let mut mutator = Vec::new();
        {
            let client = sim.actor_as_mut::<BaseClient>(d.clients[0]).expect("client");
            client.set_pace(CAMPAIGN_PACE);
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
            let client = sim.actor_as_mut::<BaseClient>(d.clients[1]).expect("client");
            client.set_pace(CAMPAIGN_PACE);
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
        d
    }

    /// Liveness and reply correctness.
    fn check_results(&self, sim: &Simulation, clients: &[NodeId]) -> Result<(), String> {
        for (i, &c) in clients.iter().enumerate() {
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
        Ok(())
    }

    /// Abstract-state agreement among clean replicas that reached the final
    /// stable checkpoint: identical abstract objects, whatever their
    /// concrete heaps look like.
    fn check_state(&self, sim: &mut Simulation, group: &Group, _: &[NodeId]) -> Result<(), String> {
        let converged: Vec<NodeId> =
            group.converged_clean(&group.members(sim))?.iter().map(|(node, _)| *node).collect();
        let mut snapshots = Vec::new();
        for &r in &converged {
            let wrapper =
                sim.actor_as_mut::<Replica>(r).expect("replica").service_mut().wrapper_mut();
            let allocated = wrapper.allocated();
            let objs: Vec<_> = (0..u64::from(OBJS)).map(|i| wrapper.get_obj(i)).collect();
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
        Ok(())
    }
}
