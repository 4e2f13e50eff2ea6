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
    match ev.event {
        ProtocolEvent::StateTransferFetchChunk { bytes } => {
            let _ = write!(s, " bytes={bytes}");
        }
        ProtocolEvent::StateTransferFetchCompleted { objects } => {
            let _ = write!(s, " objects={objects}");
        }
        ProtocolEvent::RecoveryCompleted { repaired_corruption } => {
            let _ = write!(s, " repaired_corruption={repaired_corruption}");
        }
        ProtocolEvent::RequestExecuted { batch } => {
            let _ = write!(s, " batch={batch}");
        }
        ProtocolEvent::RequestProposed { client, ts, queue_ns } => {
            let _ = write!(s, " client={client} ts={ts} queue_ns={queue_ns}");
        }
        ProtocolEvent::PrePrepareLogged { queue_ns } => {
            let _ = write!(s, " queue_ns={queue_ns}");
        }
        ProtocolEvent::ReplySent { client, ts } => {
            let _ = write!(s, " client={client} ts={ts}");
        }
        _ => {}
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

fn field_u64(line: &str, key: &str, lineno: usize) -> Result<u64, String> {
    let pat = format!("\"{key}\":");
    let start = line
        .find(&pat)
        .ok_or_else(|| format!("line {lineno}: missing field \"{key}\""))?
        + pat.len();
    let digits: String = line[start..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().map_err(|_| format!("line {lineno}: bad numeric field \"{key}\""))
}

fn field_bool(line: &str, key: &str, lineno: usize) -> Result<bool, String> {
    let pat = format!("\"{key}\":");
    let start = line
        .find(&pat)
        .ok_or_else(|| format!("line {lineno}: missing field \"{key}\""))?
        + pat.len();
    if line[start..].starts_with("true") {
        Ok(true)
    } else if line[start..].starts_with("false") {
        Ok(false)
    } else {
        Err(format!("line {lineno}: bad boolean field \"{key}\""))
    }
}

fn field_str<'a>(line: &'a str, key: &str, lineno: usize) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":\"");
    let start = line
        .find(&pat)
        .ok_or_else(|| format!("line {lineno}: missing field \"{key}\""))?
        + pat.len();
    line[start..]
        .split('"')
        .next()
        .ok_or_else(|| format!("line {lineno}: unterminated string field \"{key}\""))
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
        let lineno = i + 1;
        let name = field_str(line, "event", lineno)?;
        let event = match name {
            "view_change_started" => ProtocolEvent::ViewChangeStarted,
            "view_change_completed" => ProtocolEvent::ViewChangeCompleted,
            "checkpoint_stable" => ProtocolEvent::CheckpointStable,
            "state_transfer_fetch_started" => ProtocolEvent::StateTransferFetchStarted,
            "state_transfer_fetch_chunk" => ProtocolEvent::StateTransferFetchChunk {
                bytes: field_u64(line, "bytes", lineno)?,
            },
            "state_transfer_fetch_completed" => ProtocolEvent::StateTransferFetchCompleted {
                objects: field_u64(line, "objects", lineno)?,
            },
            "recovery_started" => ProtocolEvent::RecoveryStarted,
            "recovery_completed" => ProtocolEvent::RecoveryCompleted {
                repaired_corruption: field_bool(line, "repaired_corruption", lineno)?,
            },
            "request_executed" => ProtocolEvent::RequestExecuted {
                batch: field_u64(line, "batch", lineno)?,
            },
            "client_retransmit" => ProtocolEvent::ClientRetransmit,
            "reply_quorum_degraded" => ProtocolEvent::ReplyQuorumDegraded,
            "client_op_submitted" => ProtocolEvent::ClientOpSubmitted,
            "client_op_completed" => ProtocolEvent::ClientOpCompleted,
            "request_proposed" => ProtocolEvent::RequestProposed {
                client: field_u64(line, "client", lineno)?,
                ts: field_u64(line, "ts", lineno)?,
                queue_ns: field_u64(line, "queue_ns", lineno)?,
            },
            "pre_prepare_logged" => ProtocolEvent::PrePrepareLogged {
                queue_ns: field_u64(line, "queue_ns", lineno)?,
            },
            "prepare_quorum" => ProtocolEvent::PrepareQuorum,
            "commit_quorum" => ProtocolEvent::CommitQuorum,
            "reply_sent" => ProtocolEvent::ReplySent {
                client: field_u64(line, "client", lineno)?,
                ts: field_u64(line, "ts", lineno)?,
            },
            other => return Err(format!("line {lineno}: unknown event \"{other}\"")),
        };
        events.push(TraceEvent {
            at: SimTime::from_nanos(field_u64(line, "at_ns", lineno)?),
            node: NodeId(field_u64(line, "node", lineno)? as usize),
            view: field_u64(line, "view", lineno)?,
            seq: field_u64(line, "seq", lineno)?,
            event,
        });
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

    /// Maps each variant to a dense index. The wildcard-free match makes
    /// adding a `ProtocolEvent` variant a compile error here until this
    /// function (and `VARIANT_COUNT`) grow with it, and the exhaustive
    /// round-trip test below then fails until the new variant is added to
    /// its exemplar list — so no variant can silently fall out of tracediff.
    fn variant_index(e: &ProtocolEvent) -> usize {
        match e {
            ProtocolEvent::ViewChangeStarted => 0,
            ProtocolEvent::ViewChangeCompleted => 1,
            ProtocolEvent::CheckpointStable => 2,
            ProtocolEvent::StateTransferFetchStarted => 3,
            ProtocolEvent::StateTransferFetchChunk { .. } => 4,
            ProtocolEvent::StateTransferFetchCompleted { .. } => 5,
            ProtocolEvent::RecoveryStarted => 6,
            ProtocolEvent::RecoveryCompleted { .. } => 7,
            ProtocolEvent::RequestExecuted { .. } => 8,
            ProtocolEvent::ClientRetransmit => 9,
            ProtocolEvent::ReplyQuorumDegraded => 10,
            ProtocolEvent::ClientOpSubmitted => 11,
            ProtocolEvent::ClientOpCompleted => 12,
            ProtocolEvent::RequestProposed { .. } => 13,
            ProtocolEvent::PrePrepareLogged { .. } => 14,
            ProtocolEvent::PrepareQuorum => 15,
            ProtocolEvent::CommitQuorum => 16,
            ProtocolEvent::ReplySent { .. } => 17,
        }
    }

    const VARIANT_COUNT: usize = 18;

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
        let mut seen = vec![false; VARIANT_COUNT];
        for e in &exemplars {
            seen[variant_index(e)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "exemplar list misses a ProtocolEvent variant: {seen:?}"
        );

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
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_jsonl("{\"event\":\"no_such_event\"}").is_err());
        assert!(parse_jsonl("{\"at_ns\":1}").is_err());
    }
}
