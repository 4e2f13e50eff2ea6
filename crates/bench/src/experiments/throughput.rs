//! Experiment E9 (extension): throughput versus number of concurrent
//! clients — the classic BFT batching curve. With one closed-loop client
//! the protocol cost is serialized; with several, the primary batches
//! their requests into shared pre-prepares and the per-request overhead
//! amortizes (paper §2.2's batching, inherited from the BFT library).

use crate::report::{phase_row, phase_table, Table};
use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, BaseService, Config};
use base_pbft::Deployment;
use base_simnet::{PhaseBreakdown, SimDuration, Simulation, Timeline, Trace};

/// One measured E9 cell, exposed so the bench lab ([`crate::lab`]) can
/// sample the same workload the table prints.
pub struct ThroughputSample {
    /// Completed operations across all clients.
    pub ops: u64,
    /// Virtual makespan (last client finished) in nanoseconds.
    pub elapsed_ns: u64,
    /// Mean executed-batch occupancy from the primary's registry.
    pub mean_batch: f64,
    /// Median client latency (log₂-bucket upper bound), nanoseconds.
    pub p50_latency_ns: u64,
    /// p99 client latency (log₂-bucket upper bound), nanoseconds.
    pub p99_latency_ns: u64,
    /// p999 client latency (log₂-bucket upper bound), nanoseconds.
    pub p999_latency_ns: u64,
    /// Critical-path phase attribution over all completed ops, built from
    /// the run's causal trace (see `base_simnet::span`).
    pub phases: PhaseBreakdown,
    /// The raw causal trace the phases were derived from, for the span
    /// snapshot gate and the Perfetto exporter.
    pub trace: Vec<base_simnet::TraceEvent>,
}

/// Runs one E9 cell and returns its measurements.
///
/// `value_bytes` pads each written value up to the given size (0 keeps the
/// bare `v{i}` token). The perf lab measures with KiB-sized values — the
/// paper's file-system workloads write multi-KB blocks, and realistic
/// payloads are what exercise the wire-copy and digest paths.
pub fn measure_throughput(
    clients: usize,
    ops_per_client: usize,
    value_bytes: usize,
) -> ThroughputSample {
    measure_throughput_with(clients, ops_per_client, value_bytes, |_| {})
}

/// [`measure_throughput`] with a config hook, so the bench lab and the E9
/// pipeline rows can vary `max_inflight` while measuring the identical workload.
pub fn measure_throughput_with(
    clients: usize,
    ops_per_client: usize,
    value_bytes: usize,
    tweak: impl FnOnce(&mut Config),
) -> ThroughputSample {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 64;
    cfg.log_window = 256;
    // A short pipeline forces concurrent arrivals to share batches.
    cfg.max_inflight = 2;
    tweak(&mut cfg);
    let mut sim = Simulation::new(8800 + clients as u64);
    sim.record_trace(Trace::unbounded());
    let d = Deployment::build(&mut sim, cfg, clients, 8800 + clients as u64, |_| {
        let mut w = KvWrapper::new(TinyKv::default());
        w.op_cost = SimDuration::from_micros(100);
        BaseService::new(w)
    });
    let client_nodes = d.clients;
    for (c, &node) in client_nodes.iter().enumerate() {
        let cl = sim.actor_as_mut::<BaseClient>(node).unwrap();
        for i in 0..ops_per_client {
            let mut op = format!("put c{c}k{} v{i}", i % 16).into_bytes();
            let pad = value_bytes.saturating_sub(op.len());
            op.extend(std::iter::repeat(b'x').take(pad));
            cl.invoke(op, false);
        }
    }
    sim.run_for(SimDuration::from_secs(120));

    let mut done = 0u64;
    for &node in &client_nodes {
        done += sim.actor_as::<BaseClient>(node).unwrap().completed.len() as u64;
    }
    let total_ops = (clients * ops_per_client) as u64;
    assert_eq!(done, total_ops, "all clients must finish");
    // Batch statistics come from the replica's metrics registry: the
    // `replica.batch_occupancy` histogram records one sample per executed
    // pre-prepare, valued at the batch's request count.
    let occupancy = d.replicas[0]
        .get(&sim)
        .metrics()
        .histogram("replica.batch_occupancy")
        .cloned()
        .unwrap_or_default();
    // Merge the clients' latency histograms for the aggregate tail.
    let mut latency = base_simnet::Histogram::default();
    for &n in &client_nodes {
        if let Some(h) = sim
            .actor_as::<BaseClient>(n)
            .unwrap()
            .core()
            .metrics
            .histogram("client.request_latency_ns")
        {
            latency.merge(h);
        }
    }
    assert!(occupancy.count() > 0, "replica recorded no executed batches");
    let trace = sim.trace().expect("installed above").events();
    let phases = PhaseBreakdown::from_spans(&Timeline::of(&trace).ops);
    assert_eq!(phases.ops, total_ops, "every completed op must reconstruct a span");
    ThroughputSample {
        ops: total_ops,
        elapsed_ns: wallclock_of(&sim, &client_nodes),
        mean_batch: occupancy.mean(),
        p50_latency_ns: latency.quantile(0.5),
        p99_latency_ns: latency.quantile(0.99),
        p999_latency_ns: latency.quantile(0.999),
        phases,
        trace,
    }
}

/// The virtual instant at which the last client finished.
fn wallclock_of(sim: &Simulation, clients: &[base_simnet::NodeId]) -> u64 {
    // Closed-loop clients run back-to-back ops, so each client's span is
    // the sum of its latency histogram; the makespan is the maximum.
    clients
        .iter()
        .map(|&n| {
            sim.actor_as::<BaseClient>(n)
                .unwrap()
                .core()
                .metrics
                .histogram("client.request_latency_ns")
                .map_or(0, |h| h.sum())
        })
        .max()
        .unwrap_or(0)
}

/// Runs E9 and prints the table.
pub fn run_throughput() {
    let ops_per_client = 150;
    let mut t = Table::new(
        "E9 (extension): throughput vs concurrent clients (150 writes each, batching)",
        &[
            "clients",
            "total ops",
            "makespan (s)",
            "throughput (ops/s)",
            "ops per batch",
            "p99 latency (ms)",
            "p999 latency (ms)",
        ],
    );
    // Critical-path attribution per cell: where each configuration's median
    // op actually spends its time (segments sum to the end-to-end latency).
    let mut phases = phase_table(
        "E9 phase breakdown: critical-path p50 per phase (ms) and p99 total",
        "clients",
        "",
    );
    for clients in [1usize, 2, 4, 8] {
        let o = measure_throughput(clients, ops_per_client, 0);
        let secs = o.elapsed_ns as f64 / 1e9;
        t.row(&[
            clients.to_string(),
            o.ops.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}", o.ops as f64 / secs),
            format!("{:.2}", o.mean_batch),
            format!("{:.2}", o.p99_latency_ns as f64 / 1e6),
            format!("{:.2}", o.p999_latency_ns as f64 / 1e6),
        ]);
        phases.row(&phase_row(clients.to_string(), &o.phases));
    }
    t.print();
    println!();
    phases.print();
    println!();

    // Pipeline rows: the same 8-client cell with agreement decoupled from
    // execution: the in-flight window is what moves agreed throughput.
    let mut p = Table::new(
        "E9 pipeline: agreement/execution decoupling at 8 clients",
        &["depth", "makespan (s)", "throughput (ops/s)"],
    );
    for max_inflight in [1u64, 4] {
        let o =
            measure_throughput_with(8, ops_per_client, 0, |cfg| cfg.max_inflight = max_inflight);
        let secs = o.elapsed_ns as f64 / 1e9;
        p.row(&[
            max_inflight.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}", o.ops as f64 / secs),
        ]);
    }
    p.print();
    println!(
        "\nshape: throughput scales super-linearly at first because the primary batches \
         concurrent requests into shared pre-prepares (ops/batch grows with load), \
         amortizing the protocol's per-batch cost — the BFT library behaviour the paper \
         inherits. The pipeline rows decouple agreement from execution: depth > 1 lets \
         consecutive consensus instances overlap (higher agreed throughput)."
    );
}
