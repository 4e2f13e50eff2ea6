//! Chaos campaign over the BASE-replicated demo key-value store: seeded
//! runs composing crashes, healing partitions, Byzantine flips and latent
//! concrete-state corruption, audited for result correctness, replica
//! agreement and liveness. Also demonstrates end-to-end that proactive
//! recovery repairs corrupted concrete state through the abstraction.

use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, BaseReplica, BaseService, ByzMode, Config};
use base_pbft::chaos::{
    completed_ops, Group, ServiceCampaign, Workload, APP_CORRUPT_STATE, APP_RECOVER,
    CAMPAIGN_PACE,
};
use base_pbft::Deployment;
use base_simnet::chaos::{
    run_campaign, run_one, CampaignMode, ChaosHarness, FaultSchedule, DEFAULT_ARTIFACT_DIR,
};
use base_simnet::{NodeId, SimDuration, SimTime, Simulation};
use std::collections::HashMap;

type Replica = BaseReplica<KvWrapper>;

const CLIENTS: usize = 2;
const OPS_PER_CLIENT: usize = 12;

/// The replicated KV service under two clients. Each client owns a disjoint
/// key space and writes each of its keys exactly once, then reads some
/// back, so the expected final store contents and every read result are
/// known exactly.
#[derive(Default)]
struct KvWorkload {
    /// (client index, ts) → expected result bytes.
    expected: HashMap<(usize, u64), Vec<u8>>,
    /// key → final value the converged store must hold.
    final_kv: HashMap<String, Vec<u8>>,
}

fn kv() -> ServiceCampaign<KvWorkload> {
    ServiceCampaign::new(4, KvWorkload::default())
}

impl Workload for KvWorkload {
    fn deploy(&mut self, sim: &mut Simulation, cfg: Config, seed: u64) -> Deployment {
        self.expected.clear();
        self.final_kv.clear();
        let d = Deployment::build(sim, cfg, CLIENTS, seed, |_| {
            BaseService::new(KvWrapper::new(TinyKv::default()))
        });
        for (i, &c) in d.clients.iter().enumerate() {
            let client = sim.actor_as_mut::<BaseClient>(c).expect("client");
            client.set_pace(CAMPAIGN_PACE);
            for j in 0..OPS_PER_CLIENT {
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
        d
    }

    /// Exact results: a single writer per key, and reads submitted after
    /// their write completed.
    fn check_results(&self, sim: &Simulation, clients: &[NodeId]) -> Result<(), String> {
        for (i, &c) in clients.iter().enumerate() {
            for (ts, result) in completed_ops(sim, i, c, OPS_PER_CLIENT)? {
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
        Ok(())
    }

    /// Every clean replica that reached the final stable checkpoint holds
    /// exactly the expected store contents (the abstract state fully
    /// determines them).
    fn check_state(&self, sim: &mut Simulation, group: &Group, _: &[NodeId]) -> Result<(), String> {
        for (node, _) in group.converged_clean(&group.members(sim))? {
            let kv = sim.actor_as::<Replica>(node).expect("replica").service().wrapper();
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
        Ok(())
    }
}

#[test]
fn kv_campaign_passes_auditor() {
    let cfg = kv().gen_config(5, SimDuration::from_secs(8));
    let report = run_campaign(kv, CampaignMode::Mixed, &cfg, 100..120, 1);
    println!("{}", report.summary());
    if let Err(e) = report.write_artifacts(DEFAULT_ARTIFACT_DIR, "kv_mixed") {
        panic!("{e}");
    }
    assert_eq!(report.runs, 20);
    assert!(report.events_executed > 0);

    // Trace-derived coverage: the campaign must actually drive the
    // recovery machinery on the abstraction-wrapped service.
    assert!(
        report.coverage.recoveries_completed > 0,
        "kv campaign completed no proactive recoveries:\n{}",
        report.coverage
    );
}

#[test]
fn recovery_repairs_corrupted_kv_through_abstraction() {
    let mut h = kv();
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
    for (key, want) in &h.workload().final_kv {
        assert_eq!(
            kv.kv().get(key),
            Some(want.as_slice()),
            "recovered replica must hold the repaired value for {key}"
        );
    }
}
