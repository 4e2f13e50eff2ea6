//! The metric tables: every name `BENCHMARK.json` lists, with its unit,
//! its direction and — for end-to-end metrics — the bound by which it may
//! worsen before a change counts as a regression. `tests/manifest.rs`
//! holds `BENCHMARK.json` to these tables.

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`: about
/// how long one run measures on the box the op counts were sized on. The
/// amount of work is fixed (`run::REPEATS` repeats of a fixed op stream), so
/// the value only sets the time after which a run is called hung.
pub const RUN_SECONDS: u64 = 15;

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed relative worsening (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured by the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_ops_per_s", "1/s", Higher, 0.25),
    e2e("op_wall_us_p50", "us", Lower, 0.25),
    e2e("sim_latency_p50_us", "us", Lower, 0.02),
    e2e("sim_latency_p99_us", "us", Lower, 0.03),
    e2e("peak_heap_mb", "MB", Lower, 0.10),
];

/// What single layers do, measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("op_wall_us_p95", "us", Lower),
    layer("simnet.self_us_per_op", "us", Lower),
    layer("simnet.events_per_op", "count", Lower),
    layer("simnet.msgs_per_op", "count", Lower),
    layer("simnet.bytes_per_op", "B", Lower),
    layer("simnet.sim_ops_per_s", "1/s", Higher),
    layer("simnet.sim_cpu_share_primary", "%", Lower),
    layer("sim_stall_max_ms", "ms", Lower),
    layer("pbft.replica.self_us_per_op", "us", Lower),
    layer("pbft.replica.request_us_per_op", "us", Lower),
    layer("pbft.replica.preprepare_us_per_op", "us", Lower),
    layer("pbft.replica.prepare_us_per_op", "us", Lower),
    layer("pbft.replica.commit_us_per_op", "us", Lower),
    layer("pbft.replica.checkpoint_us_per_op", "us", Lower),
    layer("pbft.replica.transfer_us_per_op", "us", Lower),
    layer("pbft.replica.viewchange_us_per_op", "us", Lower),
    layer("pbft.replica.timer_us_per_op", "us", Lower),
    layer("pbft.replica.other_us_per_op", "us", Lower),
    layer("pbft.replica.batch_mean", "count", Higher),
    layer("pbft.replica.view_changes", "count", Lower),
    layer("pbft.replica.rejected_msgs", "count", Lower),
    layer("pbft.client.self_us_per_op", "us", Lower),
    layer("pbft.client.retransmits_per_kop", "count", Lower),
    layer("core.service.execute_self_us_per_op", "us", Lower),
    layer("core.service.checkpoint_us_per_op", "us", Lower),
    layer("core.service.objects_digested_per_ckpt", "count", Lower),
    layer("core.service.node_hashes_per_ckpt", "count", Lower),
    layer("core.service.serve_us_per_op", "us", Lower),
    layer("core.service.install_us_per_recovery", "us", Lower),
    layer("core.service.other_us_per_op", "us", Lower),
    layer("wrapper.execute_us_per_op", "us", Lower),
    layer("wrapper.get_obj_us_per_ckpt", "us", Lower),
    layer("wrapper.put_objs_us_per_recovery", "us", Lower),
    layer("wrapper.other_us_per_op", "us", Lower),
    layer("nfs.sim_overhead_pct", "%", Lower),
    layer("nfs.wall_overhead_x", "x", Lower),
    layer("pbft.transfer.bytes_per_recovery", "B", Lower),
    layer("pbft.transfer.objects_per_recovery", "count", Lower),
    layer("pbft.transfer.meta_queries_per_recovery", "count", Lower),
    layer("pbft.transfer.sim_recovery_ms_p50", "ms", Lower),
    layer("core.shard.router_self_us_per_op", "us", Lower),
    layer("core.shard.lock_self_us_per_op", "us", Lower),
    layer("core.shard.cross_aborts_per_ktxn", "count", Lower),
    layer("crypto.sha256_ns_64b", "ns", Lower),
    layer("crypto.sha256_ns_per_byte_8k", "ns", Lower),
    layer("crypto.hmac_ns_32b", "ns", Lower),
    layer("crypto.auth_generate_ns_n4", "ns", Lower),
    layer("crypto.auth_verify_ns", "ns", Lower),
    layer("crypto.fec_fragment_ns_per_kib", "ns", Lower),
    layer("crypto.fec_reconstruct_ns_per_kib", "ns", Lower),
    layer("xdr.encode_request_1k_ns", "ns", Lower),
    layer("xdr.decode_request_1k_ns", "ns", Lower),
    layer("xdr.encode_preprepare_ns", "ns", Lower),
    layer("xdr.decode_preprepare_ns", "ns", Lower),
    layer("pbft.tree.set_leaves_ns_64of4096", "ns", Lower),
    layer("pbft.tree.leaf_digest_ns_4k", "ns", Lower),
    layer("crypto.est_us_per_op", "us", Lower),
    layer("xdr.est_us_per_op", "us", Lower),
    layer("pbft.cost.mac_model_x", "x", Lower),
    layer("pbft.cost.digest_byte_model_x", "x", Lower),
    layer("pbft.cost.handle_model_x", "x", Lower),
    layer("alloc.count_per_op", "count", Lower),
    layer("alloc.bytes_per_op", "B", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.residual_pct", "%", Lower),
];

/// A measured value with the spread it was taken from.
#[derive(Clone, Debug)]
pub struct Measured {
    /// The definition.
    pub def: &'static MetricDef,
    /// Reported value.
    pub value: f64,
    /// Smallest value any repeat gave.
    pub min: f64,
    /// Largest value any repeat gave.
    pub max: f64,
    /// What the value was taken from, for the report.
    pub note: String,
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance check
/// of a benchmark run is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}
