//! From repeats to named metrics, the printed report, the result line and
//! the trace file.

use crate::json::Json;
use crate::kernels::Kernels;
use crate::metrics::{median, percentile, Measured, MetricDef, END_TO_END, PER_LAYER};
use crate::run::{op_wall_us, Repeat};
use crate::trace::{Layer, TraceData, LAYERS};
use base_pbft::CostModel;
use std::io::Write;
use std::path::PathBuf;

/// One run of one workload, ready to print.
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Seed of the op stream.
    pub seed: u64,
    /// Operations and state checks verified, over all repeats.
    pub attempted: u64,
    /// Checks that failed, over all repeats.
    pub failed: u64,
    /// The metrics of the run's mode, in table order.
    pub metrics: Vec<Measured>,
    /// Failure notes and remarks, one line each.
    pub notes: Vec<String>,
}

impl RunReport {
    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: one JSON object.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let body = Json::object([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.def.unit.into())),
            ]);
            (m.def.name, body)
        });
        Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::object(metrics)),
        ])
        .to_string()
    }

    /// The table a person reads.
    pub fn print(&self) {
        println!("workload {}  seed {}", self.workload, self.seed);
        println!(
            "  {:<44} {:>16} {:<6} {:>33}  note",
            "metric", "value", "unit", "min .. max over repeats"
        );
        for m in &self.metrics {
            println!(
                "  {:<44} {:>16.4} {:<6} {:>16.4}..{:<16.4} {}",
                m.def.name, m.value, m.def.unit, m.min, m.max, m.note
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  failed_ops_share {share} ({} of {} checks failed)",
            self.failed, self.attempted
        );
        for n in &self.notes {
            println!("  note: {n}");
        }
    }
}

fn from_repeats(def: &'static MetricDef, values: &[f64], note: String) -> Measured {
    Measured {
        def,
        value: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        note,
    }
}

fn exact(def: &'static MetricDef, value: f64, note: &str) -> Measured {
    Measured {
        def,
        value,
        min: value,
        max: value,
        note: note.to_owned(),
    }
}

/// Adds up the verdicts of all repeats and checks that every repeat gave
/// the same exact figures.
fn verdicts(repeats: &[Repeat]) -> (u64, u64, Vec<String>) {
    let mut attempted = 0;
    let mut failed = 0;
    let mut notes = Vec::new();
    for r in repeats {
        attempted += r.verdict.attempted;
        failed += r.verdict.failed;
        for n in &r.verdict.notes {
            if !notes.contains(n) {
                notes.push(n.clone());
            }
        }
    }
    attempted += 1;
    if repeats.iter().any(|r| r.sim != repeats[0].sim) {
        failed += 1;
        notes.push("repeats of one seed disagree on virtual-time figures or counters".to_owned());
    }
    (attempted, failed, notes)
}

/// The time each slice takes when the machine leaves it alone: its minimum
/// over the repeats.
///
/// Every repeat of a run executes the same schedule, so slice `i` is the
/// same work in each of them, and whatever makes one sample longer than
/// another is the machine, not the program. On this shared box that noise
/// is one-sided and lasts seconds to minutes, which a median over repeats
/// does not remove (README, *Noise protocol*, has the measurements); the
/// per-slice minimum does, as long as the run sees each slice undisturbed
/// once. A minimum falls as samples are added, so the number of repeats is
/// a constant ([`crate::run::REPEATS`]), the same for every commit.
fn quiet_slices<'a>(
    repeats: impl Iterator<Item = &'a Repeat> + Clone,
    slices: fn(&Repeat) -> &[u64],
) -> Vec<u64> {
    let n = repeats.clone().map(|r| slices(r).len()).min().unwrap_or(0);
    (0..n)
        .map(|i| repeats.clone().map(|r| slices(r)[i]).min().unwrap_or(0))
        .collect()
}

fn window(r: &Repeat) -> &[u64] {
    &r.slice_ns
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(workload: &str, seed: u64, repeats: &[Repeat]) -> RunReport {
    let sim = &repeats[0].sim;
    let n = repeats.len();
    let quiet = quiet_slices(repeats.iter(), window);
    let quiet_us = op_wall_us(&quiet, &sim.ops_by_slice);
    // Reported value: from the per-slice minima. Beside it, what single repeats gave: their median and
    // their range, for the reader to see the machine's weather.
    let wall = |def: &'static MetricDef, value: f64, f: &dyn Fn(&Repeat) -> f64, what: &str| {
        let per: Vec<f64> = repeats.iter().map(f).collect();
        let m = from_repeats(def, &per, String::new());
        Measured {
            value,
            note: format!("{what}; median of single repeats {:.4}", m.value),
            ..m
        }
    };
    let op_us = |r: &Repeat, p: f64| percentile(&op_wall_us(&r.slice_ns, &r.sim.ops_by_slice), p);
    let slices_note = format!(
        "per-slice minimum over {n} repeats, {} slice samples",
        quiet_us.len()
    );
    let metrics = END_TO_END
        .iter()
        .map(|def| match def.name {
            "setup_s" => wall(
                def,
                quiet_slices(repeats.iter(), |r| &r.setup_ns)
                    .iter()
                    .sum::<u64>() as f64
                    / 1e9,
                &|r| r.setup_s,
                &format!(
                    "build and {} warm-up slices, each at its minimum over {n} set-ups",
                    repeats[0].setup_ns.len() - 1
                ),
            ),
            "wall_ops_per_s" => wall(
                def,
                sim.c.ops as f64 / (quiet.iter().sum::<u64>() as f64 / 1e9),
                &|r| r.sim.c.ops as f64 / r.in_slices_s(),
                &format!(
                    "{} ops over the summed per-slice minima of {n} repeats",
                    sim.c.ops
                ),
            ),
            "op_wall_us_p50" => wall(
                def,
                percentile(&quiet_us, 0.50),
                &|r| op_us(r, 0.50),
                &slices_note,
            ),
            "sim_latency_p50_us" => exact(
                def,
                sim.latency_p50_ns as f64 / 1e3,
                &format!("exact; {} samples", sim.latency_samples),
            ),
            "sim_latency_p99_us" => exact(
                def,
                sim.latency_p99_ns as f64 / 1e3,
                &format!("exact; {} samples", sim.latency_samples),
            ),
            "peak_heap_mb" => from_repeats(
                def,
                &repeats
                    .iter()
                    .map(|r| r.peak_heap as f64 / 1e6)
                    .collect::<Vec<f64>>(),
                format!("median of {n} repeats"),
            ),
            other => unreachable!("end-to-end metric {other} has no formula"),
        })
        .collect();
    let (attempted, failed, mut notes) = verdicts(repeats);
    let series: Vec<String> = repeats
        .iter()
        .map(|r| format!("{:.0}", r.sim.c.ops as f64 / r.in_slices_s()))
        .collect();
    notes.push(format!(
        "wall_ops_per_s by repeat, in order: {}",
        series.join(" ")
    ));
    notes.push(format!(
        "op_wall_us_p95 {:.4} us (a layer metric; this figure is from the per-slice minima above)",
        percentile(&quiet_us, 0.95)
    ));
    notes.push(format!(
        "window: {:.3} s virtual in {} slices, {} recoveries, {} view-change votes, {} state transfers, {} retransmissions",
        sim.window_ns as f64 / 1e9,
        sim.ops_by_slice.len(),
        sim.recoveries_ns.len(),
        sim.c.view_changes,
        sim.c.state_transfers,
        sim.c.retransmissions
    ));
    RunReport {
        workload: workload.to_owned(),
        seed,
        attempted,
        failed,
        metrics,
        notes,
    }
}

fn us_per(ns: u64, per: u64) -> f64 {
    if per == 0 {
        0.0
    } else {
        ns as f64 / 1e3 / per as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

const REPLICA_LAYERS: [Layer; 9] = [
    Layer::ReplicaRequest,
    Layer::ReplicaPrePrepare,
    Layer::ReplicaPrepare,
    Layer::ReplicaCommit,
    Layer::ReplicaCheckpoint,
    Layer::ReplicaTransfer,
    Layer::ReplicaViewChange,
    Layer::ReplicaTimer,
    Layer::ReplicaOther,
];

/// Layer metrics that are one layer's self time per operation (or, by
/// their name, per recovery).
const SELF_TIMES: [(&str, Layer); 21] = [
    ("simnet.self_us_per_op", Layer::Simnet),
    ("pbft.replica.request_us_per_op", Layer::ReplicaRequest),
    (
        "pbft.replica.preprepare_us_per_op",
        Layer::ReplicaPrePrepare,
    ),
    ("pbft.replica.prepare_us_per_op", Layer::ReplicaPrepare),
    ("pbft.replica.commit_us_per_op", Layer::ReplicaCommit),
    (
        "pbft.replica.checkpoint_us_per_op",
        Layer::ReplicaCheckpoint,
    ),
    ("pbft.replica.transfer_us_per_op", Layer::ReplicaTransfer),
    (
        "pbft.replica.viewchange_us_per_op",
        Layer::ReplicaViewChange,
    ),
    ("pbft.replica.timer_us_per_op", Layer::ReplicaTimer),
    ("pbft.replica.other_us_per_op", Layer::ReplicaOther),
    ("pbft.client.self_us_per_op", Layer::Client),
    ("core.service.execute_self_us_per_op", Layer::SvcExecute),
    ("core.service.checkpoint_us_per_op", Layer::SvcCheckpoint),
    ("core.service.serve_us_per_op", Layer::SvcServe),
    ("core.service.other_us_per_op", Layer::SvcOther),
    ("wrapper.execute_us_per_op", Layer::WrapExecute),
    ("wrapper.other_us_per_op", Layer::WrapOther),
    ("core.shard.router_self_us_per_op", Layer::Router),
    ("core.shard.lock_self_us_per_op", Layer::Lock),
    ("core.service.install_us_per_recovery", Layer::SvcInstall),
    ("wrapper.put_objs_us_per_recovery", Layer::WrapPutObjs),
];

/// The per-layer values one traced repeat gives, by metric name.
fn traced_values(r: &Repeat, t: &TraceData) -> Vec<(&'static str, f64)> {
    let s = &r.sim;
    let recoveries = s.recoveries_ns.len() as u64;
    let calls = |layers: &[Layer]| layers.iter().map(|l| t.calls[*l as usize]).sum::<u64>();
    let replica_ns: u64 = REPLICA_LAYERS.iter().map(|l| t.ns(*l)).sum();
    let replica_msg_calls = calls(&REPLICA_LAYERS) - calls(&[Layer::ReplicaTimer]);
    let handler_calls = calls(&REPLICA_LAYERS) + calls(&[Layer::Client, Layer::Router]);
    let handle_ns = CostModel::default().handle.as_nanos();
    let mut out: Vec<(&'static str, f64)> = SELF_TIMES
        .iter()
        .map(|(name, layer)| {
            let per = if name.ends_with("_per_recovery") {
                recoveries
            } else {
                s.c.ops
            };
            (*name, us_per(t.ns(*layer), per))
        })
        .collect();
    out.extend([
        ("simnet.events_per_op", ratio(handler_calls, s.c.ops)),
        ("pbft.replica.self_us_per_op", us_per(replica_ns, s.c.ops)),
        (
            "wrapper.get_obj_us_per_ckpt",
            us_per(t.get_obj_ns, s.c.checkpoints),
        ),
        (
            "pbft.cost.handle_model_x",
            ratio(replica_ns, replica_msg_calls) / handle_ns as f64,
        ),
        (
            "trace.residual_pct",
            (1.0 - t.total_ns() as f64 / (r.wall_s * 1e9)) * 100.0,
        ),
    ]);
    out
}

/// The unreplicated baseline of `nfs_andrew`: `(ops, virtual ns, wall ns)`.
pub type Direct = (u64, u64, u64);

/// The per-layer metrics of a traced run. `repeats` alternates untraced
/// and traced repeats, starting untraced.
pub fn per_layer(
    workload: &str,
    seed: u64,
    repeats: &[Repeat],
    kernels: &Kernels,
    direct: Option<Direct>,
) -> RunReport {
    let untraced: Vec<&Repeat> = repeats.iter().filter(|r| r.trace.is_none()).collect();
    let traced: Vec<(&Repeat, &TraceData)> = repeats
        .iter()
        .filter_map(|r| r.trace.as_ref().map(|t| (r, t)))
        .collect();
    let s = &repeats[0].sim;
    let recoveries = s.recoveries_ns.len() as u64;
    let per_traced: Vec<Vec<(&'static str, f64)>> =
        traced.iter().map(|(r, t)| traced_values(r, t)).collect();
    // Seconds in slices, each slice at its minimum over the repeats of its
    // kind: the same estimator as the end-to-end metrics use.
    let untraced_slices = quiet_slices(untraced.iter().copied(), window);
    let untraced_wall = untraced_slices.iter().sum::<u64>() as f64 / 1e9;
    let traced_wall = quiet_slices(traced.iter().map(|(r, _)| *r), window)
        .iter()
        .sum::<u64>() as f64
        / 1e9;
    let cost = CostModel::default();
    let mut recovery_ns = s.recoveries_ns.clone();
    recovery_ns.sort_unstable();

    // Modelled shares: kernel cost times what the network counted. One MAC
    // per message sent and one per message delivered, every delivered byte
    // hashed once; every sent byte encoded and every delivered byte decoded
    // at the 1 KiB request's rate. Estimates until spans exist inside the
    // program: a multicast is encoded and authenticated once, not per copy.
    let crypto_est_ns = s.c.msgs_sent as f64 * kernels.get("crypto.auth_generate_ns_n4") / 4.0
        + s.c.msgs_delivered as f64
            * (kernels.get("crypto.auth_verify_ns") + kernels.get("crypto.sha256_ns_64b"))
        + s.c.bytes_delivered as f64 * kernels.get("crypto.sha256_ns_per_byte_8k");
    let wire = kernels.request_wire_len as f64;
    let xdr_est_ns = s.c.bytes_sent as f64 * kernels.get("xdr.encode_request_1k_ns") / wire
        + s.c.bytes_delivered as f64 * kernels.get("xdr.decode_request_1k_ns") / wire;

    let exact_value = |name: &str| -> Option<f64> {
        Some(match name {
            "simnet.msgs_per_op" => ratio(s.c.msgs_sent, s.c.ops),
            "simnet.bytes_per_op" => ratio(s.c.bytes_sent, s.c.ops),
            "simnet.sim_ops_per_s" => s.c.ops as f64 / (s.window_ns as f64 / 1e9),
            "simnet.sim_cpu_share_primary" => ratio(s.c.cpu_primary_ns, s.window_ns) * 100.0,
            "sim_stall_max_ms" => s.stall_max_ns as f64 / 1e6,
            "pbft.replica.batch_mean" => ratio(s.c.executed_requests, s.c.executed_batches),
            "pbft.replica.view_changes" => s.c.view_changes as f64,
            "pbft.replica.rejected_msgs" => s.c.rejected_msgs as f64,
            "pbft.client.retransmits_per_kop" => ratio(s.c.retransmissions, s.c.ops) * 1e3,
            "core.service.objects_digested_per_ckpt" => {
                ratio(s.c.objects_digested, s.c.checkpoints)
            }
            "core.service.node_hashes_per_ckpt" => ratio(s.c.node_hashes, s.c.checkpoints),
            "pbft.transfer.bytes_per_recovery" => ratio(s.c.transfer_bytes, recoveries),
            "pbft.transfer.objects_per_recovery" => ratio(s.c.transfer_objects, recoveries),
            "pbft.transfer.meta_queries_per_recovery" => {
                ratio(s.c.transfer_meta_queries, recoveries)
            }
            "pbft.transfer.sim_recovery_ms_p50" => percentile(&recovery_ns, 0.50) as f64 / 1e6,
            "core.shard.cross_aborts_per_ktxn" => ratio(s.c.cross_aborts, s.c.cross_txns) * 1e3,
            "nfs.sim_overhead_pct" => match direct {
                Some((ops, virt, _)) => {
                    (ratio(s.window_ns, s.c.ops) / ratio(virt, ops) - 1.0) * 100.0
                }
                None => 0.0,
            },
            _ => return None,
        })
    };

    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            if let Some(v) = exact_value(def.name) {
                return exact(def, v, "exact");
            }
            if per_traced[0].iter().any(|(n, _)| *n == def.name) {
                let values: Vec<f64> = per_traced
                    .iter()
                    .map(|row| row.iter().find(|(n, _)| *n == def.name).expect("same rows").1)
                    .collect();
                return from_repeats(def, &values, format!("{} traced repeats", values.len()));
            }
            let per_untraced = |f: &dyn Fn(&Repeat) -> f64| untraced.iter().map(|r| f(r)).collect::<Vec<f64>>();
            match def.name {
                "op_wall_us_p95" => exact(
                    def,
                    percentile(&op_wall_us(&untraced_slices, &s.ops_by_slice), 0.95),
                    "95th percentile over slices, per-slice minima of the untraced repeats",
                ),
                "alloc.count_per_op" => {
                    from_repeats(def, &per_untraced(&|r| ratio(r.allocs, r.sim.c.ops)), "untraced repeats".into())
                }
                "alloc.bytes_per_op" => {
                    from_repeats(def, &per_untraced(&|r| ratio(r.alloc_bytes, r.sim.c.ops)), "untraced repeats".into())
                }
                "trace.overhead_pct" => exact(
                    def,
                    (traced_wall / untraced_wall - 1.0) * 100.0,
                    &format!("traced {traced_wall:.3} s over untraced {untraced_wall:.3} s in slices, per-slice minima"),
                ),
                "nfs.wall_overhead_x" => match direct {
                    Some((ops, _, wall_ns)) => exact(
                        def,
                        (untraced_wall * 1e9 / s.c.ops as f64) / ratio(wall_ns, ops),
                        "replicated over direct wall per op",
                    ),
                    None => exact(def, 0.0, "nfs_andrew only"),
                },
                "crypto.est_us_per_op" => exact(def, crypto_est_ns / 1e3 / s.c.ops as f64, "modelled estimate"),
                "xdr.est_us_per_op" => exact(def, xdr_est_ns / 1e3 / s.c.ops as f64, "modelled estimate"),
                "pbft.cost.mac_model_x" => exact(
                    def,
                    kernels.get("crypto.auth_verify_ns") / cost.mac.as_nanos() as f64,
                    &format!("measured MAC over the {} ns CostModel charges", cost.mac.as_nanos()),
                ),
                "pbft.cost.digest_byte_model_x" => exact(
                    def,
                    kernels.get("crypto.sha256_ns_per_byte_8k") / cost.digest_per_byte_ns as f64,
                    &format!("measured ns/byte over the {} ns CostModel charges", cost.digest_per_byte_ns),
                ),
                name => exact(def, kernels.get(name), "kernel, median of 9 batches"),
            }
        })
        .collect();
    let (attempted, failed, mut notes) = verdicts(repeats);
    if let Some((r, t)) = traced.last() {
        notes.push(layer_table(t, r));
    }
    RunReport {
        workload: workload.to_owned(),
        seed,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Self time per layer of one traced window, as a share of the window.
fn layer_table(t: &TraceData, r: &Repeat) -> String {
    let total = t.total_ns().max(1) as f64;
    let mut out = format!(
        "self time by layer, last traced repeat ({:.3} s in slices, {} spans kept, {} dropped):",
        total / 1e9,
        t.spans.len(),
        t.dropped
    );
    for layer in LAYERS {
        let ns = t.ns(layer);
        if ns > 0 {
            out.push_str(&format!(
                "\n      {:<26} {:>9.3} us/op {:>6.2} %  {:>8.2} spans/op",
                layer.name(),
                us_per(ns, r.sim.c.ops),
                ns as f64 / total * 100.0,
                ratio(t.calls[layer as usize], r.sim.c.ops)
            ));
        }
    }
    out
}

/// Writes the spans of one traced window to
/// `<crate dir>/out/<workload>.trace.json` and returns the path.
pub fn write_trace(
    workload: &str,
    seed: u64,
    r: &Repeat,
    t: &TraceData,
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let names: Vec<Json> = LAYERS.iter().map(|l| Json::Str(l.name().into())).collect();
    let nums = |v: &[u64]| Json::Arr(v.iter().map(|n| Json::Num(*n as f64)).collect());
    writeln!(w, "{{")?;
    writeln!(
        w,
        "  \"workload\": {}, \"seed\": {seed}, \"ops\": {},",
        Json::Str(workload.into()),
        r.sim.c.ops
    )?;
    writeln!(
        w,
        "  \"window_wall_ns\": {}, \"root_ns\": {},",
        (r.wall_s * 1e9) as u64,
        t.total_ns()
    )?;
    writeln!(w, "  \"layers\": {},", Json::Arr(names))?;
    writeln!(w, "  \"layer_self_ns\": {},", nums(&t.self_ns))?;
    writeln!(w, "  \"layer_spans\": {},", nums(&t.calls))?;
    writeln!(
        w,
        "  \"get_obj\": {{\"thread_ns\": {}, \"calls\": {}}},",
        t.get_obj_ns, t.get_obj_calls
    )?;
    writeln!(w, "  \"spans_dropped\": {},", t.dropped)?;
    writeln!(
        w,
        "  \"span_fields\": [\"layer\", \"parent\", \"slice\", \"start_ns\", \"end_ns\"],"
    )?;
    writeln!(w, "  \"spans\": [")?;
    for (i, s) in t.spans.iter().enumerate() {
        let parent = if s.parent == crate::trace::NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let comma = if i + 1 < t.spans.len() { "," } else { "" };
        writeln!(
            w,
            "    [{}, {parent}, {}, {}, {}]{comma}",
            s.layer as usize, s.slice, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "  ]")?;
    writeln!(w, "}}")?;
    w.flush()?;
    Ok(path)
}
