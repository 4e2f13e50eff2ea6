//! The interposers must not perturb what they observe, and the spans they
//! record must add up.

use base_benchmark::run::{repeat, Repeat};
use base_benchmark::trace::{TraceData, LAYERS, NO_PARENT};
use base_benchmark::workloads::{Scale, WORKLOADS};

fn pair(workload: &str) -> (Repeat, Repeat) {
    (
        repeat(workload, 7, false, Scale::Tiny),
        repeat(workload, 7, true, Scale::Tiny),
    )
}

/// Replies (checked against the model in both runs), state roots,
/// `NetStats` counters and every virtual-time figure are the same with and
/// without interposers, on every workload.
#[test]
fn traced_run_follows_the_untraced_schedule() {
    for workload in WORKLOADS {
        let (plain, traced) = pair(workload);
        assert_eq!(
            plain.verdict.failed, 0,
            "{workload}: {:?}",
            plain.verdict.notes
        );
        assert_eq!(
            plain.verdict, traced.verdict,
            "{workload}: checks or state roots differ"
        );
        assert!(
            !plain.verdict.roots.is_empty(),
            "{workload}: no state root compared"
        );
        assert_eq!(
            plain.sim, traced.sim,
            "{workload}: interposers moved the schedule"
        );
        assert!(
            plain.sim.c.ops > 0 && plain.sim.latency_samples > 0,
            "{workload}: empty window"
        );
        assert!(plain.trace.is_none() && traced.trace.is_some());
    }
}

/// Self time per layer, recomputed from the raw spans.
fn self_from_spans(t: &TraceData) -> [u64; LAYERS.len()] {
    let mut own = [0u64; LAYERS.len()];
    let mut children = vec![0u64; t.spans.len()];
    for s in &t.spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    for (s, inside) in t.spans.iter().zip(&children) {
        own[s.layer as usize] += s.end_ns - s.start_ns - inside;
    }
    own
}

/// Spans nest inside their parents, and the layers' self times add up to
/// the root spans, which in turn account for the time spent in slices.
#[test]
fn spans_nest_and_self_times_sum_to_the_root() {
    let traced = repeat("shard_cross", 11, true, Scale::Tiny);
    let t = traced.trace.as_ref().expect("traced repeat");
    assert_eq!(t.dropped, 0, "the tiny stream must fit under the span cap");
    let mut roots_ns = 0;
    for s in &t.spans {
        assert!(s.start_ns <= s.end_ns);
        if s.parent == NO_PARENT {
            assert_eq!(
                s.layer as usize,
                0,
                "only slices are roots, found {}",
                s.layer.name()
            );
            roots_ns += s.end_ns - s.start_ns;
        } else {
            let p = &t.spans[s.parent as usize];
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "span outside its parent"
            );
            assert_eq!(p.slice, s.slice);
        }
    }
    assert_eq!(
        self_from_spans(t),
        t.self_ns,
        "tracer totals differ from the spans"
    );
    assert_eq!(t.total_ns(), roots_ns, "self times must sum to the roots");
    let in_slices_ns = traced.in_slices_s() * 1e9;
    let residual = (in_slices_ns - roots_ns as f64).abs() / in_slices_ns;
    assert!(
        residual < 0.01,
        "roots cover {roots_ns} ns of {in_slices_ns} ns in slices"
    );
    // Every layer the sharded stack has shows up.
    for name in [
        "simnet",
        "pbft.replica.prepare",
        "core.shard.router",
        "core.shard.lock",
        "core.service.execute",
        "wrapper.execute",
    ] {
        let layer = LAYERS
            .iter()
            .find(|l| l.name() == name)
            .expect("known layer");
        assert!(t.ns(*layer) > 0, "{name} recorded no time");
    }
}
