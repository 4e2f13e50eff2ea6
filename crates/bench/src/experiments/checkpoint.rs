//! Experiment E5: incremental copy-on-write checkpointing (paper §2.2 —
//! "Creating checkpoints by making full copies of the abstract state would
//! be too expensive. Instead, the library uses copy-on-write...").
//!
//! Sweeps the checkpoint interval `k` over a fixed write workload on the
//! replicated KV service and reports, per checkpoint: objects digested
//! (the COW cost) versus the full abstract array (what a full copy would
//! touch), plus the workload's completion time.

use crate::report::{secs, Table};
use base::demo::{KvWrapper, TinyKv, N_SLOTS};
use base::{BaseClient, BaseReplica, BaseService, Config};
use base_pbft::Deployment;
use base_simnet::{SimDuration, Simulation};

type KvReplica = BaseReplica<KvWrapper>;

struct RunOut {
    total_ns: u64,
    checkpoints: u64,
    digested: u64,
    copies: u64,
}

fn run_once(k: u64, ops: usize) -> RunOut {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = k;
    cfg.log_window = 2 * k.max(64);
    let mut sim = Simulation::new(7000 + k);
    let d = Deployment::build(&mut sim, cfg, 1, 7000 + k, |_| {
        BaseService::new(KvWrapper::new(TinyKv::default()))
    });
    let client = d.clients[0];
    for i in 0..ops {
        sim.actor_as_mut::<BaseClient>(client)
            .unwrap()
            .invoke(format!("put key{} value-{i}", i % 40).into_bytes(), false);
    }
    sim.run_for(SimDuration::from_secs(120));
    let done = sim.actor_as::<BaseClient>(client).unwrap().completed.len();
    assert_eq!(done, ops, "workload incomplete for k={k}");
    let svc = sim.actor_as::<KvReplica>(d.replicas[0].node).unwrap().service();
    RunOut {
        total_ns: sim
            .actor_as::<BaseClient>(client)
            .unwrap()
            .core()
            .latencies_ns
            .iter()
            .sum(),
        checkpoints: svc.stats.checkpoints,
        digested: svc.stats.objects_digested,
        copies: svc.stats.preimage_copies,
    }
}

/// Runs E5 and prints the table.
pub fn run_checkpoint() {
    let ops = 512;
    let mut t = Table::new(
        "E5: checkpoint interval sweep (512 writes over 40 keys, replica 0 counters)",
        &[
            "k",
            "checkpoints",
            "objs digested/ckpt (COW)",
            "objs a full copy would touch",
            "pre-image copies",
            "sum of op latencies (s)",
        ],
    );
    for k in [8u64, 32, 128, 512] {
        let out = run_once(k, ops);
        let per = out.digested.checked_div(out.checkpoints).unwrap_or(0);
        t.row(&[
            k.to_string(),
            out.checkpoints.to_string(),
            per.to_string(),
            N_SLOTS.to_string(),
            out.copies.to_string(),
            secs(out.total_ns),
        ]);
    }
    t.print();
    println!(
        "\nshape: COW digests only the objects modified since the last checkpoint \
         (bounded by the working set, here ≤ 40 keys ≈ {} slots), while a full copy \
         would touch all {} objects every time; larger k amortizes checkpoint work.",
        40.min(N_SLOTS),
        N_SLOTS
    );
}
