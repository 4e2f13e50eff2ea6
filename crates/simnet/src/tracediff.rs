//! Trace-diff divergence localization.
//!
//! Protocol traces are deterministic: the same seed and schedule produce a
//! byte-identical event stream (see [`crate::trace`]). That makes a diff
//! between two runs a debugging instrument — run the *same* schedule under
//! two code versions, or the full and the ddmin-minimized fault subset
//! under the same code, and the first position where the streams disagree
//! localizes the behaviour change to one protocol event.
//!
//! [`first_divergence`] finds that position; [`divergence_report`] renders
//! a human-readable, windowed report: the diverging event on each side,
//! then ±N events of per-replica context with each event's view, sequence
//! number and payload (checkpoint stability, transfer sizes, recovery
//! repairs). [`parse_jsonl`] reads traces back from the
//! [`crate::trace::export_jsonl`] format, so two exported runs can be
//! diffed offline (`all_tables diff`, the bench CLI's trace-diff
//! subcommand).
//!
//! Everything is deterministic: identical inputs render identical reports,
//! which the golden-file tests pin byte for byte.

use crate::actor::NodeId;
use crate::time::SimTime;
use crate::trace::{ProtocolEvent, TraceEvent};
use std::fmt::Write as _;

/// The first position at which two traces disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the first differing event (= length of the common prefix).
    pub index: usize,
    /// The left trace's event at `index`, if the left trace is that long.
    pub left: Option<TraceEvent>,
    /// The right trace's event at `index`, if the right trace is that long.
    pub right: Option<TraceEvent>,
}

/// Finds the first diverging event between two traces, or `None` when they
/// are identical (same events, same order, same length).
pub fn first_divergence(left: &[TraceEvent], right: &[TraceEvent]) -> Option<Divergence> {
    let common = left.iter().zip(right.iter()).take_while(|(a, b)| a == b).count();
    if common == left.len() && common == right.len() {
        return None;
    }
    Some(Divergence {
        index: common,
        left: left.get(common).copied(),
        right: right.get(common).copied(),
    })
}

/// One-line human rendering of a trace event: time, node, protocol context
/// (view/seq) and the event with its payload.
pub fn format_event(ev: &TraceEvent) -> String {
    let mut s = format!(
        "t={}us node={} view={} seq={} {}",
        ev.at.as_micros(),
        ev.node.0,
        ev.view,
        ev.seq,
        ev.event.name()
    );
    for (field, value) in ev.event.fields() {
        let _ = write!(s, " {field}={value}");
    }
    s
}

/// Global indices of `node`'s events within ±`n` positions of the node's
/// own stream around the global pivot index.
fn node_window(events: &[TraceEvent], node: NodeId, pivot: usize, n: usize) -> Vec<usize> {
    let idxs: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.node == node)
        .map(|(i, _)| i)
        .collect();
    let pos = idxs.partition_point(|&i| i < pivot);
    let lo = pos.saturating_sub(n);
    let hi = (pos + n).min(idxs.len());
    idxs[lo..hi].to_vec()
}

fn side_label(ev: Option<&TraceEvent>) -> String {
    match ev {
        Some(e) => format_event(e),
        None => "<trace ends here>".to_string(),
    }
}

/// Renders a windowed, per-replica divergence report between two traces.
///
/// The report names the first diverging event on each side, then shows up
/// to ±`window` events *per replica* around the divergence from both
/// traces, so view changes, checkpoint stabilization and state-transfer
/// activity surrounding the divergence are visible at a glance. The output
/// is deterministic: identical inputs yield identical bytes.
pub fn divergence_report(
    left: &[TraceEvent],
    right: &[TraceEvent],
    window: usize,
    left_label: &str,
    right_label: &str,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace diff: {left_label} ({} events) vs {right_label} ({} events)",
        left.len(),
        right.len()
    );
    let Some(div) = first_divergence(left, right) else {
        let _ = write!(out, "traces are identical");
        return out;
    };
    let _ = writeln!(out, "first divergence at event index {}:", div.index);
    let width = left_label.len().max(right_label.len());
    let _ = writeln!(out, "  {left_label:<width$}: {}", side_label(div.left.as_ref()));
    let _ = writeln!(out, "  {right_label:<width$}: {}", side_label(div.right.as_ref()));

    // Window membership is per replica stream, so consider every node seen
    // anywhere in either trace; nodes with empty windows are skipped below.
    let mut nodes: Vec<usize> = left.iter().chain(right).map(|e| e.node.0).collect();
    nodes.sort_unstable();
    nodes.dedup();

    let _ = writeln!(out, "context (±{window} events per replica):");
    for node in nodes {
        let node = NodeId(node);
        let lw = node_window(left, node, div.index, window);
        let rw = node_window(right, node, div.index, window);
        if lw.is_empty() && rw.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  node {}:", node.0);
        for (label, events, idxs) in [(left_label, left, &lw), (right_label, right, &rw)] {
            for &i in idxs {
                let marker = if i == div.index { "  <-- divergence" } else { "" };
                let _ = writeln!(
                    out,
                    "    {label:<width$} [{i:>4}] {}{marker}",
                    format_event(&events[i])
                );
            }
        }
    }
    // Drop the trailing newline so the report embeds cleanly.
    if out.ends_with('\n') {
        out.pop();
    }
    out
}

/// The raw text of `key`'s value in one JSONL line: a number or boolean
/// literal, or a string without its quotes.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

/// Parses a trace back from the [`crate::trace::export_jsonl`] format.
/// Round-trips exactly: `parse_jsonl(export_jsonl(t)) == t`.
pub fn parse_jsonl(input: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parse = || -> Result<TraceEvent, String> {
            let num = |key| -> Result<u64, String> {
                let raw = raw_field(line, key).ok_or_else(|| format!("missing field \"{key}\""))?;
                raw.parse().map_err(|_| format!("bad field \"{key}\""))
            };
            let name = raw_field(line, "event").ok_or("missing field \"event\"")?;
            Ok(TraceEvent {
                at: SimTime::from_nanos(num("at_ns")?),
                node: NodeId(num("node")? as usize),
                view: num("view")?,
                seq: num("seq")?,
                event: ProtocolEvent::from_fields(name, |field| raw_field(line, field))?,
            })
        };
        events.push(parse().map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::export_jsonl;

    fn ev(at_us: u64, node: usize, view: u64, seq: u64, event: ProtocolEvent) -> TraceEvent {
        TraceEvent { at: SimTime::from_micros(at_us), node: NodeId(node), view, seq, event }
    }

    fn base_trace() -> Vec<TraceEvent> {
        vec![
            ev(100, 0, 0, 1, ProtocolEvent::RequestExecuted { batch: 1 }),
            ev(120, 1, 0, 1, ProtocolEvent::RequestExecuted { batch: 1 }),
            ev(200, 0, 0, 4, ProtocolEvent::CheckpointStable),
            ev(210, 1, 0, 4, ProtocolEvent::CheckpointStable),
            ev(300, 2, 1, 0, ProtocolEvent::ViewChangeStarted),
            ev(340, 2, 1, 0, ProtocolEvent::ViewChangeCompleted),
        ]
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let t = base_trace();
        assert_eq!(first_divergence(&t, &t), None);
        let report = divergence_report(&t, &t, 2, "a", "b");
        assert!(report.contains("traces are identical"), "{report}");
    }

    #[test]
    fn first_divergence_is_localized() {
        let left = base_trace();
        let mut right = base_trace();
        right[3] = ev(215, 3, 0, 4, ProtocolEvent::CheckpointStable);
        let d = first_divergence(&left, &right).expect("traces differ");
        assert_eq!(d.index, 3);
        assert_eq!(d.left.unwrap().node, NodeId(1));
        assert_eq!(d.right.unwrap().node, NodeId(3));
    }

    #[test]
    fn length_mismatch_diverges_at_the_shorter_end() {
        let left = base_trace();
        let right = base_trace()[..4].to_vec();
        let d = first_divergence(&left, &right).expect("traces differ");
        assert_eq!(d.index, 4);
        assert!(d.right.is_none());
        let report = divergence_report(&left, &right, 2, "full", "minimal");
        assert!(report.contains("<trace ends here>"), "{report}");
        assert!(report.contains("view_change_started"), "{report}");
    }

    #[test]
    fn report_is_deterministic_and_windowed() {
        let left = base_trace();
        let mut right = base_trace();
        right.truncate(5);
        let a = divergence_report(&left, &right, 1, "full", "minimal");
        let b = divergence_report(&left, &right, 1, "full", "minimal");
        assert_eq!(a, b);
        // Window of 1 around index 5 (node 2's stream): the t=100us event
        // of node 0 is outside every node-2 window.
        assert!(a.contains("node 2"), "{a}");
    }

    #[test]
    fn jsonl_round_trips() {
        let t = vec![
            ev(1, 0, 0, 0, ProtocolEvent::StateTransferFetchStarted),
            ev(2, 1, 3, 9, ProtocolEvent::StateTransferFetchChunk { bytes: 640 }),
            ev(3, 1, 3, 9, ProtocolEvent::StateTransferFetchCompleted { objects: 12 }),
            ev(4, 2, 0, 0, ProtocolEvent::RecoveryStarted),
            ev(5, 2, 0, 0, ProtocolEvent::RecoveryCompleted { repaired_corruption: true }),
            ev(6, 3, 1, 2, ProtocolEvent::ClientRetransmit),
            ev(7, 3, 1, 2, ProtocolEvent::ReplyQuorumDegraded),
        ];
        let parsed = parse_jsonl(&export_jsonl(&t)).expect("parse");
        assert_eq!(parsed, t);
    }

    /// One exemplar per `ProtocolEvent` variant, in declaration order
    /// (checked against [`ProtocolEvent::NAMES`], so a new variant fails the
    /// test until it has an exemplar): each renders its `fields()` in order
    /// into its JSON line, its `format_event` text and its Perfetto instant,
    /// and parses back unchanged.
    #[test]
    fn every_variant_round_trips_with_name_intact() {
        let exemplars = vec![
            ProtocolEvent::ViewChangeStarted,
            ProtocolEvent::ViewChangeCompleted,
            ProtocolEvent::CheckpointStable,
            ProtocolEvent::StateTransferFetchStarted,
            ProtocolEvent::StateTransferFetchChunk { bytes: 640 },
            ProtocolEvent::StateTransferFetchCompleted { objects: 12 },
            ProtocolEvent::RecoveryStarted,
            ProtocolEvent::RecoveryCompleted { repaired_corruption: true },
            ProtocolEvent::RequestExecuted { batch: 3 },
            ProtocolEvent::ClientRetransmit,
            ProtocolEvent::ReplyQuorumDegraded,
            ProtocolEvent::ClientOpSubmitted,
            ProtocolEvent::ClientOpCompleted,
            ProtocolEvent::RequestProposed { client: 4, ts: 7, queue_ns: 1500 },
            ProtocolEvent::PrePrepareLogged { queue_ns: 2500 },
            ProtocolEvent::PrepareQuorum,
            ProtocolEvent::CommitQuorum,
            ProtocolEvent::ReplySent { client: 4, ts: 7 },
        ];
        let names: Vec<&str> = exemplars.iter().map(ProtocolEvent::name).collect();
        assert_eq!(names, ProtocolEvent::NAMES, "one exemplar per variant, in order");

        let trace: Vec<TraceEvent> = exemplars
            .iter()
            .enumerate()
            .map(|(i, &event)| ev(100 + i as u64, i % 5, i as u64, 2 * i as u64, event))
            .collect();
        let parsed = parse_jsonl(&export_jsonl(&trace)).expect("parse");
        assert_eq!(parsed, trace);
        for (orig, round) in trace.iter().zip(&parsed) {
            assert_eq!(orig.event.name(), round.event.name());
        }

        for e in &trace {
            let (name, fields) = (e.event.name(), e.event.fields());
            let json: String = fields.iter().map(|(k, v)| format!(",\"{k}\":{v}")).collect();
            let text: String = fields.iter().map(|(k, v)| format!(" {k}={v}")).collect();
            assert!(e.to_json().ends_with(&format!("\"event\":\"{name}\"{json}}}")), "{name}");
            assert!(format_event(e).ends_with(&format!(" {name}{text}")), "{name}");
            let perfetto = crate::span::export_perfetto(std::slice::from_ref(e), &[]);
            let instant = perfetto.lines().find(|l| l.contains("\"ph\":\"i\"")).expect("instant");
            assert!(instant.contains(&format!("\"seq\":{}{json}}}", e.seq)), "{instant}");
            let value = |f| fields.iter().find(|(k, _)| *k == f).map(|(_, v)| v.as_str());
            assert_eq!(ProtocolEvent::from_fields(name, value), Ok(e.event));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_jsonl("{\"event\":\"no_such_event\"}").is_err());
        assert!(parse_jsonl("{\"at_ns\":1}").is_err());
    }
}
