//! The harness: one repeat of a workload on a fresh deployment, timed in
//! fixed virtual-time slices, and the fixed number of repeats that make a
//! run.

use crate::alloc;
use crate::metrics::percentile;
use crate::trace::{self, Layer, TraceData};
use crate::workloads::{self, Bench, Scale, Verdict};
use base_simnet::SimDuration;
use std::time::Instant;

/// Spans kept in full per traced window; the rest only count towards the
/// per-layer totals. Bounds the trace file to a few megabytes.
pub const SPAN_CAP: usize = 100_000;

/// Slices a warm-up or a window may take before the run is called hung.
const MAX_SLICES: usize = 50_000;

/// Repeats of an untraced run. The same on every commit, so that a faster
/// program is not measured over more samples than a slower one.
pub const REPEATS: usize = 7;

/// Untraced/traced pairs of a traced run.
pub const TRACED_PAIRS: usize = 3;

/// A run that has used this many times its `--seconds` is called hung.
const HANG_FACTOR: f64 = 6.0;

/// Declares [`Counters`] and its field-wise difference from one list.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Monotone counters of a deployment: read at both ends of a window
        /// and subtracted.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counters {
            fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }
        }
    };
}

counters! {
    /// Client operations completed.
    ops,
    /// Messages handed to the network.
    msgs_sent,
    /// Messages delivered.
    msgs_delivered,
    /// Bytes handed to the network.
    bytes_sent,
    /// Bytes delivered.
    bytes_delivered,
    /// Simulated CPU nanoseconds charged to replica 0 of group 0.
    cpu_primary_ns,
    /// Requests executed through agreement, summed over replicas.
    executed_requests,
    /// Batches executed, summed over replicas.
    executed_batches,
    /// View changes voted for, summed over replicas.
    view_changes,
    /// Messages rejected, summed over replicas.
    rejected_msgs,
    /// State transfers completed.
    state_transfers,
    /// Bytes fetched by state transfer.
    transfer_bytes,
    /// Objects fetched by state transfer.
    transfer_objects,
    /// Partition queries issued by state transfer.
    transfer_meta_queries,
    /// Checkpoints taken, summed over replicas.
    checkpoints,
    /// Objects digested at checkpoints.
    objects_digested,
    /// Partition-tree nodes rehashed.
    node_hashes,
    /// Client retransmissions.
    retransmissions,
    /// Cross-shard transactions completed.
    cross_txns,
    /// Cross-shard lock rounds rolled back after an `xbusy`.
    cross_aborts,
}

fn counters(b: &dyn Bench) -> Counters {
    let net = b.sim_ref().stats();
    let router = b.router_stats();
    let mut c = Counters {
        ops: b.completed(),
        msgs_sent: net.messages_sent,
        msgs_delivered: net.messages_delivered,
        bytes_sent: net.bytes_sent,
        bytes_delivered: net.bytes_delivered,
        cpu_primary_ns: net
            .cpu_by
            .get(&b.groups()[0][0].id)
            .map_or(0, |d| d.as_nanos()),
        retransmissions: b.retransmissions(),
        cross_txns: router.cross_txns,
        cross_aborts: router.cross_aborts,
        ..Counters::default()
    };
    for s in b.groups().iter().flatten().map(|r| r.snap(b.sim_ref())) {
        c.executed_requests += s.stats.executed_requests;
        c.executed_batches += s.stats.executed_batches;
        c.view_changes += s.stats.view_changes_started;
        c.rejected_msgs += s.stats.rejected_messages;
        c.state_transfers += s.stats.state_transfers;
        c.transfer_bytes += s.stats.state_transfer_bytes;
        c.transfer_objects += s.stats.state_transfer_objects;
        c.transfer_meta_queries += s.stats.state_transfer_meta_queries;
        c.checkpoints += s.base.checkpoints;
        c.objects_digested += s.base.objects_digested;
        c.node_hashes += s.base.node_hashes;
    }
    c
}

/// Everything about a window that virtual time and counters determine.
/// The same seed must give the same value on every repeat, traced or not.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimFigures {
    /// What the deployment's counters advanced by over the window.
    pub c: Counters,
    /// Operations completed in each slice of the window.
    pub ops_by_slice: Vec<u32>,
    /// Virtual length of the window.
    pub window_ns: u64,
    /// Latency samples in the window.
    pub latency_samples: u64,
    /// Median virtual request-to-reply latency.
    pub latency_p50_ns: u64,
    /// 99th percentile of the same.
    pub latency_p99_ns: u64,
    /// Longest run of consecutive slices in which no operation completed,
    /// as virtual time: time without service, to the slice.
    pub stall_max_ns: u64,
    /// Virtual duration of each recovery completed in the window, in
    /// completion order.
    pub recoveries_ns: Vec<u64>,
}

/// One repeat: a fresh deployment, its warm-up, one timed window, and the
/// check of its outputs.
pub struct Repeat {
    /// Wall seconds to build the deployment and run the warm-up.
    pub setup_s: f64,
    /// The same in parts: wall nanoseconds of the build, then of each
    /// warm-up slice.
    pub setup_ns: Vec<u64>,
    /// Wall seconds of the timed window.
    pub wall_s: f64,
    /// Wall nanoseconds each slice of the window took.
    pub slice_ns: Vec<u64>,
    /// The exact figures.
    pub sim: SimFigures,
    /// Peak live heap bytes from the start of the build to the end of the
    /// window, over what was live before the build.
    pub peak_heap: u64,
    /// Allocation calls in the window.
    pub allocs: u64,
    /// Bytes allocated in the window.
    pub alloc_bytes: u64,
    /// Spans of the window, if this repeat was traced.
    pub trace: Option<TraceData>,
    /// Output check.
    pub verdict: Verdict,
}

impl Repeat {
    /// Wall seconds inside slices: the window minus harness bookkeeping.
    pub fn in_slices_s(&self) -> f64 {
        self.slice_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Wall microseconds per completed operation, one sample per slice that
/// completed something, ascending. A slice in which nothing completed (a
/// stall) lends its time to the next one that did.
pub fn op_wall_us(slice_ns: &[u64], ops_by_slice: &[u32]) -> Vec<f64> {
    let mut carried = 0u64;
    let mut samples = Vec::with_capacity(slice_ns.len());
    for (ns, ops) in slice_ns.iter().zip(ops_by_slice) {
        carried += ns;
        if *ops > 0 {
            samples.push(carried as f64 / 1e3 / f64::from(*ops));
            carried = 0;
        }
    }
    samples.sort_by(f64::total_cmp);
    samples
}

/// Virtual length of the longest run of slices that completed nothing.
fn stall_max(ops_by_slice: &[u32], slice: SimDuration) -> u64 {
    let longest = ops_by_slice
        .split(|ops| *ops > 0)
        .map(<[u32]>::len)
        .max()
        .unwrap_or(0);
    longest as u64 * slice.as_nanos()
}

/// Runs one repeat of `workload`.
pub fn repeat(workload: &str, seed: u64, traced: bool, scale: Scale) -> Repeat {
    repeat_of(workload, traced, || {
        workloads::build(workload, seed, traced, scale).expect("known workload")
    })
}

/// Runs one repeat of the deployment `build` makes; `workload` names it in
/// messages. `build` must wire interposers in exactly when `traced`.
pub fn repeat_of(workload: &str, traced: bool, build: impl FnOnce() -> Box<dyn Bench>) -> Repeat {
    let live0 = alloc::snapshot().live;
    alloc::reset_peak();
    let t_setup = Instant::now();
    let mut b = build();
    let slice = b.slice();
    let mut setup_ns = vec![t_setup.elapsed().as_nanos() as u64];
    while !b.warmed_up() {
        assert!(
            setup_ns.len() < MAX_SLICES && !b.finished(),
            "{workload}: warm-up never reached its end"
        );
        let s0 = Instant::now();
        b.feed();
        b.sim().run_for(slice);
        setup_ns.push(s0.elapsed().as_nanos() as u64);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    // The timed window.
    let v0 = b.sim_ref().now();
    let marks = b.latency_counts();
    let before = counters(b.as_ref());
    let mut recoveries_seen: Vec<u64> = b
        .groups()
        .iter()
        .flatten()
        .map(|r| r.snap(b.sim_ref()).stats.recoveries)
        .collect();
    let mut recoveries_ns = Vec::new();
    let mut slice_ns: Vec<u64> = Vec::new();
    let mut ops_by_slice: Vec<u32> = Vec::new();
    let mut prev_ops = before.ops;
    let alloc0 = alloc::snapshot();
    if traced {
        trace::reset(SPAN_CAP);
    }
    let w0 = Instant::now();
    while !b.finished() {
        assert!(
            slice_ns.len() < MAX_SLICES,
            "{workload}: op stream never completed"
        );
        b.feed();
        let s0 = Instant::now();
        if traced {
            trace::next_slice();
            let _root = trace::span(Layer::Simnet);
            b.sim().run_for(slice);
        } else {
            b.sim().run_for(slice);
        }
        slice_ns.push(s0.elapsed().as_nanos() as u64);
        let ops = b.completed();
        ops_by_slice.push((ops - prev_ops) as u32);
        prev_ops = ops;
        for (i, r) in b.groups().iter().flatten().enumerate() {
            let s = r.snap(b.sim_ref());
            if s.stats.recoveries > recoveries_seen[i] {
                recoveries_seen[i] = s.stats.recoveries;
                recoveries_ns.push(s.last_recovery_ns);
            }
        }
    }
    let wall_s = w0.elapsed().as_secs_f64();
    let alloc1 = alloc::snapshot();
    let trace = traced.then(trace::take);

    let mut latencies = b.latencies_since(&marks);
    latencies.sort_unstable();
    let sim = SimFigures {
        c: counters(b.as_ref()).since(&before),
        stall_max_ns: stall_max(&ops_by_slice, slice),
        ops_by_slice,
        window_ns: b.sim_ref().now().since(v0).as_nanos(),
        latency_samples: latencies.len() as u64,
        latency_p50_ns: percentile(&latencies, 0.50),
        latency_p99_ns: percentile(&latencies, 0.99),
        recoveries_ns,
    };

    let mut verdict = b.verify();
    let want = b.expected_recoveries();
    if want == 0 {
        verdict.check(
            sim.c.state_transfers == 0 && sim.c.view_changes == 0,
            || {
                format!(
                    "fault-free window saw {} state transfers and {} view changes",
                    sim.c.state_transfers, sim.c.view_changes
                )
            },
        );
    } else {
        let got = sim.recoveries_ns.len() as u64;
        verdict.check(got >= want, || {
            format!("{got} recoveries in the window, {want} expected")
        });
    }

    Repeat {
        setup_s,
        setup_ns,
        wall_s,
        slice_ns,
        sim,
        peak_heap: alloc1.peak - live0,
        allocs: alloc1.allocs - alloc0.allocs,
        alloc_bytes: alloc1.bytes - alloc0.bytes,
        trace,
        verdict,
    }
}

/// Runs the repeats of one run: [`REPEATS`] untraced ones, or
/// [`TRACED_PAIRS`] pairs of an untraced and a traced one, alternating so
/// that both kinds see the same machine weather. `seconds` only guards
/// against a hang: the amount of work is fixed.
pub fn repeats(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Vec<Repeat>, String> {
    let t0 = Instant::now();
    let count = if traced { 2 * TRACED_PAIRS } else { REPEATS };
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        out.push(repeat(workload, seed, traced && i % 2 == 1, Scale::Full));
        let used = t0.elapsed().as_secs_f64();
        if used > HANG_FACTOR * seconds {
            return Err(format!(
                "{workload}: {} of {count} repeats took {used:.0} s, over {HANG_FACTOR} x --seconds",
                i + 1
            ));
        }
    }
    Ok(out)
}
