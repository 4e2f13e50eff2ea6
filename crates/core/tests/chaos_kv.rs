//! Chaos campaign over the BASE-replicated demo key-value store: seeded
//! runs composing crashes, healing partitions, Byzantine flips and latent
//! concrete-state corruption, audited for result correctness, replica
//! agreement and liveness. Also demonstrates end-to-end that proactive
//! recovery repairs corrupted concrete state through the abstraction.

use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, BaseReplica, BaseService, ByzMode};
use base_pbft::chaos::{
    campaign_config, campaign_gen_config, completed_ops, Group, APP_CORRUPT_STATE, APP_RECOVER,
    CAMPAIGN_BOUNDS,
};
use base_simnet::chaos::{
    run_campaign, run_one, ChaosHarness, FaultSchedule, LivenessBounds, ScheduleGenConfig,
};
use base_simnet::{NodeId, SimDuration, SimTime, Simulation};
use std::collections::HashMap;

type Replica = BaseReplica<KvWrapper>;

/// Campaign harness for the replicated KV service. Each client owns a
/// disjoint key space and writes each of its keys exactly once, then reads
/// some back, so the expected final store contents and every read result
/// are known exactly.
struct KvChaosHarness {
    n: usize,
    clients: usize,
    ops_per_client: usize,
    pace: SimDuration,
    client_nodes: Vec<NodeId>,
    group: Group,
    /// (client index, ts) → expected result bytes.
    expected: HashMap<(usize, u64), Vec<u8>>,
    /// key → final value the converged store must hold.
    final_kv: HashMap<String, Vec<u8>>,
}

impl KvChaosHarness {
    fn new(n: usize) -> Self {
        Self {
            n,
            clients: 2,
            ops_per_client: 12,
            pace: SimDuration::from_millis(250),
            client_nodes: Vec::new(),
            group: Group::default(),
            expected: HashMap::new(),
            final_kv: HashMap::new(),
        }
    }

    fn gen_config(&self, events: usize, horizon: SimDuration) -> ScheduleGenConfig {
        campaign_gen_config(self.n, campaign_config(self.n).f(), events, horizon)
    }
}

impl ChaosHarness for KvChaosHarness {
    fn build(&mut self, seed: u64) -> Simulation {
        self.expected.clear();
        self.final_kv.clear();

        let cfg = campaign_config(self.n);
        let mut sim = Simulation::new(seed);
        let dir = base_crypto::KeyDirectory::generate(self.n + self.clients, seed);
        let replicas: Vec<NodeId> = (0..self.n)
            .map(|i| {
                let keys = base_crypto::NodeKeys::new(dir.clone(), i);
                let service = BaseService::new(KvWrapper::new(TinyKv::default()));
                sim.add_node(Box::new(Replica::new(cfg.clone(), keys, service)))
            })
            .collect();
        self.group = Group::of::<BaseService<KvWrapper>>(&mut sim, &replicas);

        self.client_nodes = (0..self.clients)
            .map(|i| {
                let keys = base_crypto::NodeKeys::new(dir.clone(), self.n + i);
                sim.add_node(Box::new(BaseClient::new(cfg.clone(), keys)))
            })
            .collect();

        for (i, &c) in self.client_nodes.clone().iter().enumerate() {
            let client = sim.actor_as_mut::<BaseClient>(c).expect("client");
            client.set_pace(self.pace);
            for j in 0..self.ops_per_client {
                let ts = (j + 1) as u64;
                if j % 4 == 3 {
                    // Read back a key this client wrote two ops ago; the
                    // write completed before this was submitted, so the
                    // read must observe it.
                    let key = format!("c{i}k{}", j - 2);
                    let value = self.final_kv[&key].clone();
                    client.invoke(format!("get {key}").into_bytes(), true);
                    self.expected.insert((i, ts), value);
                } else {
                    let key = format!("c{i}k{j}");
                    let value = format!("v{i}-{j}");
                    client.invoke(format!("put {key} {value}").into_bytes(), false);
                    self.expected.insert((i, ts), b"ok".to_vec());
                    self.final_kv.insert(key, value.into_bytes());
                }
            }
        }
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
        SimDuration::from_secs(30)
    }

    fn liveness_bounds(&self) -> LivenessBounds {
        CAMPAIGN_BOUNDS
    }

    fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
        // Liveness + exact result check (single writer per key, reads
        // submitted after their write completed).
        for (i, &c) in self.client_nodes.iter().enumerate() {
            for (ts, result) in completed_ops(sim, i, c, self.ops_per_client)? {
                let want = &self.expected[&(i, *ts)];
                if result != want {
                    return Err(format!(
                        "wrong result: client {i} ts={ts} got {:?}, want {:?}",
                        String::from_utf8_lossy(result),
                        String::from_utf8_lossy(want)
                    ));
                }
            }
        }

        let all = self.group.members(sim);
        self.group.audit_view_agreement(&all)?;
        self.group.audit_stable_digests(&all)?;
        self.group.audit_retained_checkpoints(&all)?;

        // Replica agreement: every clean replica that reached the final
        // stable checkpoint must hold exactly the expected store contents
        // (the abstract state fully determines them).
        let converged = self.group.converged_clean(&all)?;
        for (node, _) in &converged {
            let kv = sim.actor_as::<Replica>(*node).expect("replica").service().wrapper();
            for (key, want) in &self.final_kv {
                match kv.kv().get(key) {
                    Some(v) if v == want.as_slice() => {}
                    other => {
                        return Err(format!(
                            "state divergence: clean replica {} holds {:?} for {key}, want {:?}",
                            node.0,
                            other.map(String::from_utf8_lossy),
                            String::from_utf8_lossy(want)
                        ));
                    }
                }
            }
        }
        trace.push(format!("audit ok: {} clean replicas converged", converged.len()));
        Ok(())
    }
}

#[test]
fn kv_campaign_passes_auditor() {
    let mut h = KvChaosHarness::new(4);
    let cfg = h.gen_config(5, SimDuration::from_secs(8));
    let report = run_campaign(&mut h, &cfg, 100..120);
    assert_eq!(report.runs, 20);
    assert!(report.events_executed > 0);
    if let Some(f) = report.failures.first() {
        panic!("kv campaign failed:\n{f}");
    }

    // Trace-derived coverage: the campaign must actually drive the
    // recovery machinery on the abstraction-wrapped service.
    println!("{}", report.summary());
    assert!(
        report.coverage.recoveries_completed > 0,
        "kv campaign completed no proactive recoveries:\n{}",
        report.coverage
    );
    report.write_coverage("kv_mixed").unwrap();
}

#[test]
fn recovery_repairs_corrupted_kv_through_abstraction() {
    let mut h = KvChaosHarness::new(4);
    let mut schedule = FaultSchedule::new();
    schedule
        .app(SimTime::from_millis(1500), NodeId(2), APP_CORRUPT_STATE, 3)
        .app(SimTime::from_millis(2500), NodeId(2), APP_RECOVER, 0);
    let (outcome, verdict) = run_one(&mut h, 9, &schedule);
    assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));

    // Replay and inspect the repaired replica directly: despite being
    // corrupted mid-run, after recovery its store must match the expected
    // final contents exactly (state transfer repaired the damaged slot).
    let mut sim = h.build(9);
    sim.run_until(SimTime::from_millis(1500));
    sim.actor_as_mut::<Replica>(NodeId(2)).unwrap().corrupt_service_state(3);
    sim.run_until(SimTime::from_millis(2500));
    sim.actor_as_mut::<Replica>(NodeId(2)).unwrap().trigger_recovery();
    sim.run_until(SimTime::from_secs(40));
    let replica = sim.actor_as::<Replica>(NodeId(2)).unwrap();
    assert_eq!(replica.byzantine(), ByzMode::Honest, "repair must clear CorruptState");
    let kv = replica.service().wrapper();
    for (key, want) in &h.final_kv {
        assert_eq!(
            kv.kv().get(key),
            Some(want.as_slice()),
            "recovered replica must hold the repaired value for {key}"
        );
    }
}
