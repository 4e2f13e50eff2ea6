//! Experiment E7: the replicated object-oriented database (paper abstract:
//! "an object-oriented database where the replicas ran the same,
//! non-deterministic implementation").
//!
//! Runs the OO7-lite workload against four replicas of the *same*
//! implementation seeded differently — their collectors run at different
//! times and relocate objects to different addresses — and against an
//! unreplicated instance, reporting throughput and confirming abstract
//! agreement despite concrete divergence.

use crate::report::{pct, secs, Table};
use base::{BaseClient, BaseReplica, BaseService, Config};
use base_oodb::{ObjStore, Oo7Workload, OodbWrapper};
use base_pbft::Deployment;
use base_simnet::{LatencyModel, NodeId, SimDuration, Simulation};
use rand::SeedableRng;

type DbReplica = BaseReplica<OodbWrapper>;

/// The unreplicated baseline server: one wrapper behind one round trip.
struct DirectDb {
    wrapper: OodbWrapper,
    mods: base::ModifyLog,
    steps: u64,
}

impl base_simnet::Actor for DirectDb {
    fn on_message(
        &mut self,
        from: NodeId,
        payload: &[u8],
        ctx: &mut base_simnet::Context<'_>,
    ) {
        self.steps += 1;
        let clock = ctx.local_clock().as_nanos();
        let (reply, charged) = {
            let mut env = base_pbft::ExecEnv::new(clock, ctx.rng());
            let r = base::Wrapper::execute(
                &mut self.wrapper,
                payload,
                from.0 as u32,
                &self.steps.to_be_bytes(),
                false,
                &mut self.mods,
                &mut env,
            );
            (r, env.charged())
        };
        ctx.charge(charged);
        ctx.send(from, reply);
    }
}

/// Closed-loop driver for the direct baseline.
struct DirectClient {
    server: NodeId,
    ops: std::collections::VecDeque<Vec<u8>>,
    pub done_at: Option<base_simnet::SimTime>,
    started_ops: u64,
}

impl base_simnet::Actor for DirectClient {
    fn on_start(&mut self, ctx: &mut base_simnet::Context<'_>) {
        if let Some(op) = self.ops.pop_front() {
            self.started_ops += 1;
            ctx.send(self.server, op);
        }
    }

    fn on_message(&mut self, _f: NodeId, _p: &[u8], ctx: &mut base_simnet::Context<'_>) {
        match self.ops.pop_front() {
            Some(op) => {
                self.started_ops += 1;
                ctx.send(self.server, op);
            }
            None => {
                if self.done_at.is_none() {
                    self.done_at = Some(ctx.now());
                }
            }
        }
    }
}

/// Runs E7 and prints the table.
pub fn run_oodb() {
    let mut wl = Oo7Workload::small();
    wl.t1_traversals = 30;
    wl.t2_traversals = 10;
    let ops = wl.build_ops();
    let n_ops = ops.len();

    // Replicated run.
    let mut sim = Simulation::new(7700);
    sim.config_mut().latency = LatencyModel::lan();
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 64;
    let d = Deployment::build(&mut sim, cfg, 1, 7700, |i| {
        let mut seed_rng = rand::rngs::StdRng::seed_from_u64(900 + i as u64);
        let mut w = OodbWrapper::new(ObjStore::new(&mut seed_rng));
        w.op_cost_base = SimDuration::from_micros(120);
        w.visit_cost = SimDuration::from_micros(5);
        BaseService::new(w)
    });
    for (i, r) in d.replicas.iter().enumerate() {
        sim.config_mut().set_clock_skew(r.node, SimDuration::from_millis(7 * i as u64));
    }
    let client = d.clients[0];
    {
        let c = sim.actor_as_mut::<BaseClient>(client).unwrap();
        for (op, ro) in &ops {
            c.invoke(op.clone(), *ro);
        }
    }
    let rep_start = sim.now();
    sim.run_for(SimDuration::from_secs(120));
    let c = sim.actor_as::<BaseClient>(client).unwrap();
    assert_eq!(c.completed.len(), n_ops, "replicated OO7 incomplete");
    let rep_total = c
        .completed
        .len()
        .max(1);
    let _ = (rep_start, rep_total);
    let rep_ns: u64 = c.core().latencies_ns.iter().sum();

    // Cross-replica checks.
    let roots: Vec<_> = d.replicas.iter().map(|r| r.get(&sim).state_root()).collect();
    assert!(roots.iter().all(|root| *root == roots[0]), "replicas diverged");
    let collections: Vec<u64> = d
        .replicas
        .iter()
        .map(|r| sim.actor_as::<DbReplica>(r.node).unwrap().service().wrapper().store().collections)
        .collect();

    // Direct (unreplicated) run.
    let mut sim2 = Simulation::new(7701);
    sim2.config_mut().latency = LatencyModel::lan();
    let mut seed_rng = rand::rngs::StdRng::seed_from_u64(990);
    let mut dw = OodbWrapper::new(ObjStore::new(&mut seed_rng));
    dw.op_cost_base = SimDuration::from_micros(120);
    dw.visit_cost = SimDuration::from_micros(5);
    let server = sim2.add_node(Box::new(DirectDb {
        wrapper: dw,
        mods: base::ModifyLog::new(),
        steps: 0,
    }));
    let client2 = sim2.add_node(Box::new(DirectClient {
        server,
        ops: ops.iter().map(|(o, _)| o.clone()).collect(),
        done_at: None,
        started_ops: 0,
    }));
    sim2.run_for(SimDuration::from_secs(120));
    let done_at = sim2
        .actor_as::<DirectClient>(client2)
        .unwrap()
        .done_at
        .expect("direct OO7 incomplete");
    let dir_ns = done_at.as_nanos();

    let mut t = Table::new(
        "E7: OO7-lite on the replicated OODB (same non-deterministic impl on every replica)",
        &["configuration", "ops", "elapsed (s)", "overhead"],
    );
    t.row(&["unreplicated".into(), n_ops.to_string(), secs(dir_ns), "-".into()]);
    t.row(&[
        "BASE-replicated (4 replicas)".into(),
        n_ops.to_string(),
        secs(rep_ns),
        pct((rep_ns as f64 - dir_ns as f64) / dir_ns as f64),
    ]);
    t.print();
    println!(
        "\nper-replica GC collections: {:?} — the collectors ran independently (different \
         counts ⇒ divergent concrete heaps) yet all abstract state roots are identical.",
        collections
    );
}
