//! Experiment E11 (ablation): the read-only optimization.
//!
//! BASE inherits the BFT library's read-only fast path: a client multicasts
//! a read-only request directly to the replicas, which execute it against
//! their current state and reply immediately — no pre-prepare/prepare/
//! commit round, at the price of a larger reply quorum (2f+1). This
//! experiment runs the same read-heavy workload with the optimization on
//! (reads flagged read-only) and off (reads pushed through full agreement)
//! and reports read latency, makespan, and message counts.

use crate::report::Table;
use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, BaseService, Config};
use base_pbft::Deployment;
use base_simnet::{SimDuration, Simulation};

const WRITES: usize = 32;
const READS: usize = 256;

struct Out {
    mean_read_us: f64,
    p99_read_us: f64,
    p999_read_us: f64,
    makespan_s: f64,
    messages: u64,
    mib: f64,
}

fn run_once(ro_opt: bool) -> Out {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 64;
    cfg.log_window = 256;
    let seed = 9900 + u64::from(ro_opt);
    let mut sim = Simulation::new(seed);
    let client = Deployment::build(&mut sim, cfg, 1, seed, |_| {
        let mut w = KvWrapper::new(TinyKv::default());
        w.op_cost = SimDuration::from_micros(100);
        BaseService::new(w)
    })
    .clients[0];
    {
        let cl = sim.actor_as_mut::<BaseClient>(client).unwrap();
        for i in 0..WRITES {
            cl.invoke(format!("put key{i} value-{i}").into_bytes(), false);
        }
        for i in 0..READS {
            cl.invoke(format!("get key{}", i % WRITES).into_bytes(), ro_opt);
        }
    }
    sim.run_for(SimDuration::from_secs(120));
    let cl = sim.actor_as::<BaseClient>(client).unwrap();
    assert_eq!(cl.completed.len(), WRITES + READS, "workload incomplete");
    let lat = &cl.core().latencies_ns;
    let reads = &lat[WRITES..];
    // Tail latency comes from the log2 histogram, like the metrics layer
    // reports it: quantile() returns the bucket's upper bound.
    let mut hist = base_simnet::Histogram::default();
    for &ns in reads {
        hist.observe(ns);
    }
    Out {
        mean_read_us: reads.iter().sum::<u64>() as f64 / reads.len() as f64 / 1e3,
        p99_read_us: hist.quantile(0.99) as f64 / 1e3,
        p999_read_us: hist.quantile(0.999) as f64 / 1e3,
        makespan_s: lat.iter().sum::<u64>() as f64 / 1e9,
        messages: sim.stats().messages_delivered,
        mib: sim.stats().bytes_delivered as f64 / (1024.0 * 1024.0),
    }
}

/// Runs E11 and prints the table.
pub fn run_roopt() {
    let mut t = Table::new(
        "E11 (ablation): read-only optimization (32 writes + 256 reads, n = 4)",
        &[
            "reads via",
            "mean read latency (µs)",
            "p99 read latency (µs)",
            "p999 read latency (µs)",
            "makespan (s)",
            "messages",
            "MiB on the wire",
        ],
    );
    let on = run_once(true);
    let off = run_once(false);
    for (label, o) in [("read-only fast path", &on), ("full agreement", &off)] {
        t.row(&[
            label.to_string(),
            format!("{:.0}", o.mean_read_us),
            format!("{:.0}", o.p99_read_us),
            format!("{:.0}", o.p999_read_us),
            format!("{:.3}", o.makespan_s),
            o.messages.to_string(),
            format!("{:.2}", o.mib),
        ]);
    }
    t.print();
    println!(
        "\nshape: the fast path answers reads in one round trip (client → replicas → \
         client) instead of the three-phase agreement, cutting read latency by ~{:.1}x \
         and protocol messages by ~{:.1}x on this read-heavy mix.",
        off.mean_read_us / on.mean_read_us,
        off.messages as f64 / on.messages as f64,
    );
}
