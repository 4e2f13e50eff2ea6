//! Experiment E12 (ablation): MAC authenticators versus public-key
//! signatures.
//!
//! The BFT library's key performance optimization — inherited wholesale by
//! BASE — is replacing per-message signatures with vectors of truncated
//! MACs (symmetric-key authenticators). This ablation runs the same write
//! workload under the default cost model (MAC ≈ 0.7 µs) and under
//! [`CostModel::signatures_only`] (every authentication a ~200 µs
//! public-key operation, approximating paper-era RSA/Rabin) and reports
//! the protocol-visible difference.

use crate::report::Table;
use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, BaseReplica, BaseService, Config};
use base_pbft::{CostModel, Deployment};
use base_simnet::{SimDuration, Simulation};

type KvReplica = BaseReplica<KvWrapper>;

const OPS: usize = 128;

struct Out {
    mean_us: f64,
    p99_us: f64,
    makespan_s: f64,
    cpu_s: f64,
}

fn run_once(signatures: bool) -> Out {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 64;
    cfg.log_window = 256;
    // Signatures inflate latency; give timers room so the run measures
    // crypto cost, not retransmission storms.
    cfg.client_timeout = SimDuration::from_millis(800);
    cfg.view_change_timeout = SimDuration::from_millis(1600);
    let seed = 12_000 + u64::from(signatures);
    let mut sim = Simulation::new(seed);
    let cost = if signatures { CostModel::signatures_only() } else { CostModel::default() };
    let mut d = Deployment::new(cfg, 1, seed);
    for _ in 0..4 {
        let r = d.replica(&mut sim, BaseService::new(KvWrapper::new(TinyKv::default())));
        sim.actor_as_mut::<KvReplica>(r.node).unwrap().set_cost_model(cost);
    }
    let client = d.client(&mut sim, |cfg, keys| {
        let mut client = BaseClient::new(cfg, keys);
        client.core_mut().set_cost_model(cost);
        client
    });
    {
        let cl = sim.actor_as_mut::<BaseClient>(client).unwrap();
        for i in 0..OPS {
            cl.invoke(format!("put key{} v{i}", i % 16).into_bytes(), false);
        }
    }
    sim.run_for(SimDuration::from_secs(120));
    let cl = sim.actor_as::<BaseClient>(client).unwrap();
    assert_eq!(cl.completed.len(), OPS, "workload incomplete (signatures={signatures})");
    let lat = &cl.core().latencies_ns;
    // Tail latency from the log2 histogram (bucket upper bound), matching
    // the metrics layer's reporting.
    let mut hist = base_simnet::Histogram::default();
    for &ns in lat.iter() {
        hist.observe(ns);
    }
    Out {
        mean_us: lat.iter().sum::<u64>() as f64 / lat.len() as f64 / 1e3,
        p99_us: hist.quantile(0.99) as f64 / 1e3,
        makespan_s: lat.iter().sum::<u64>() as f64 / 1e9,
        cpu_s: sim.stats().total_cpu().as_nanos() as f64 / 1e9,
    }
}

/// Runs E12 and prints the table.
pub fn run_sigmac() {
    let mut t = Table::new(
        "E12 (ablation): MAC authenticators vs public-key signatures (128 writes, n = 4)",
        &[
            "authentication",
            "mean op latency (µs)",
            "p99 op latency (µs)",
            "makespan (s)",
            "total CPU (s)",
        ],
    );
    let mac = run_once(false);
    let sig = run_once(true);
    for (label, o) in [("MAC authenticators", &mac), ("signatures (200 µs/op)", &sig)] {
        t.row(&[
            label.to_string(),
            format!("{:.0}", o.mean_us),
            format!("{:.0}", o.p99_us),
            format!("{:.3}", o.makespan_s),
            format!("{:.3}", o.cpu_s),
        ]);
    }
    t.print();
    println!(
        "\nshape: with per-message public-key operations, latency grows {:.1}x and \
         protocol CPU {:.1}x — the gap that motivated the BFT library's MAC \
         authenticators, which BASE inherits unchanged.",
        sig.mean_us / mac.mean_us,
        sig.cpu_s / mac.cpu_s,
    );
}
