//! Structured protocol event tracing.
//!
//! Protocol layers (the PBFT replica, the state-transfer fetcher, clients)
//! emit [`ProtocolEvent`]s through [`Context::emit`](crate::Context::emit);
//! the simulation stamps each one with the virtual time and the emitting
//! node and, once [`Simulation::record_trace`](crate::Simulation::record_trace)
//! has been called, appends it to the run's trace: every event, oldest
//! first.
//!
//! By default nothing is recorded and every `emit` is one untaken branch
//! — protocol code pays nothing when tracing is off. Chaos campaigns
//! record every run and derive coverage counters from the recorded
//! stream, read once as a [`Timeline`](crate::span::Timeline); determinism
//! tests export the stream as JSON Lines with [`export_jsonl`] and compare
//! runs byte for byte (same seed, same schedule ⇒ identical trace).
//!
//! The event vocabulary is declared once, in the `protocol_events!` list
//! below: each entry's variant, payload fields and stable name. The JSONL
//! line, the `tracediff` rendering and parser and the Perfetto instant all
//! loop over [`ProtocolEvent::fields`] / [`ProtocolEvent::from_fields`].

use crate::actor::NodeId;
use crate::time::SimTime;
use std::fmt::Write as _;
use std::str::FromStr;

/// Declares [`ProtocolEvent`] and derives its payload-free [`EventKind`],
/// its name table, its payload rendering ([`ProtocolEvent::fields`]) and
/// its parser ([`ProtocolEvent::from_fields`]) from the same list.
macro_rules! protocol_events {
    (
        $(#[$enum_meta:meta])*
        pub enum ProtocolEvent {
            $(
                $(#[doc = $doc:literal])*
                $variant:ident $({ $( $(#[doc = $fdoc:literal])* $field:ident: $ty:ty ),* $(,)? })?
                    => $name:literal
            ),* $(,)?
        }
    ) => {
        $(#[$enum_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum ProtocolEvent {
            $( $(#[doc = $doc])* $variant $({ $( $(#[doc = $fdoc])* $field: $ty ),* })?, )*
        }

        /// A [`ProtocolEvent`]'s variant without its payload: how a
        /// [`Timeline`](crate::span::Timeline) count names the event.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum EventKind {
            $( $(#[doc = $doc])* $variant, )*
        }

        impl ProtocolEvent {
            /// Every event's [`name`](Self::name), in declaration order.
            pub const NAMES: &'static [&'static str] = &[$($name),*];

            /// The variant, without its payload.
            pub fn kind(&self) -> EventKind {
                match self {
                    $( Self::$variant { .. } => EventKind::$variant, )*
                }
            }

            /// Stable lowercase name used in JSONL exports and coverage tables.
            pub fn name(&self) -> &'static str {
                match self {
                    $( Self::$variant { .. } => $name, )*
                }
            }

            /// The payload as `(field, value)` pairs in declaration order,
            /// each value rendered as its JSON literal.
            pub fn fields(&self) -> Vec<(&'static str, String)> {
                match *self {
                    $( Self::$variant $({ $($field),* })? => vec![
                        $($( (stringify!($field), $field.to_string()) ),*)?
                    ], )*
                }
            }

            /// The inverse of [`name`](Self::name) and
            /// [`fields`](Self::fields): the event called `name` whose
            /// payload field `f` reads `get(f)`.
            pub fn from_fields<'a>(
                name: &str,
                mut get: impl FnMut(&'static str) -> Option<&'a str>,
            ) -> Result<Self, String> {
                match name {
                    $( $name => Ok(Self::$variant $({ $(
                        $field: payload(stringify!($field), get(stringify!($field)))?
                    ),* })?), )*
                    other => Err(format!("unknown event \"{other}\"")),
                }
            }
        }
    };
}

/// Parses one payload field's raw text.
fn payload<T: FromStr>(field: &str, raw: Option<&str>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("missing field \"{field}\""))?;
    raw.parse().map_err(|_| format!("bad field \"{field}\""))
}

protocol_events! {
    /// A protocol-level occurrence worth tracing.
    ///
    /// The vocabulary covers the mechanisms the BASE paper's evaluation
    /// cares about: view changes (liveness under primary failure),
    /// checkpoint stability and hierarchical state transfer (§4), proactive
    /// recovery (§5), plus the client-visible symptoms (retransmissions,
    /// read-only quorum degradation).
    pub enum ProtocolEvent {
        /// A replica moved to a new view and sent its view-change message.
        ViewChangeStarted => "view_change_started",
        /// A replica installed a new-view certificate (primary or backup).
        ViewChangeCompleted => "view_change_completed",
        /// A checkpoint gathered a stable certificate (2f+1 matching).
        CheckpointStable => "checkpoint_stable",
        /// A state-transfer fetch began (replica out of date or recovering).
        StateTransferFetchStarted => "state_transfer_fetch_started",
        /// A state-transfer reply was consumed.
        StateTransferFetchChunk {
            /// Payload bytes of the fetched partition/object reply.
            bytes: u64,
        } => "state_transfer_fetch_chunk",
        /// A state transfer brought the replica up to date.
        StateTransferFetchCompleted {
            /// Abstract objects installed by the transfer.
            objects: u64,
        } => "state_transfer_fetch_completed",
        /// A proactive recovery began (watchdog reboot).
        RecoveryStarted => "recovery_started",
        /// A proactive recovery finished and the replica rejoined.
        RecoveryCompleted {
            /// True when the recovery discarded corrupt concrete state (the
            /// paper's §5 repair-by-abstraction property).
            repaired_corruption: bool,
        } => "recovery_completed",
        /// A replica executed a batch of requests.
        RequestExecuted {
            /// Requests in the executed batch.
            batch: u64,
        } => "request_executed",
        /// A client retransmitted a request after a reply timeout.
        ClientRetransmit => "client_retransmit",
        /// A client's read-only optimization failed its 2f+1 quorum and the
        /// request degraded to the full protocol.
        ReplyQuorumDegraded => "reply_quorum_degraded",
        /// A client sent a fresh request (first transmission, not a retry).
        /// Paired with [`ClientOpCompleted`](Self::ClientOpCompleted), this
        /// lets the chaos engine's liveness auditor see which operations
        /// were still pending when the last fault healed.
        ClientOpSubmitted => "client_op_submitted",
        /// A client accepted a reply certificate and completed an operation.
        ClientOpCompleted => "client_op_completed",
        /// The primary assigned a client request to an agreement slot and
        /// multicast the pre-prepare. Emitted once per request in the batch
        /// at the slot's (view, seq); `client`/`ts` name the operation,
        /// which is the causal edge the span layer uses to connect
        /// [`ClientOpSubmitted`](Self::ClientOpSubmitted) to the agreement
        /// instance. `queue_ns` is the event-loop lag the triggering message
        /// experienced at the primary (time spent queued behind a busy
        /// actor).
        RequestProposed {
            /// Client node id of the proposed request.
            client: u64,
            /// Client-assigned request timestamp (the op key).
            ts: u64,
            /// Scheduling delay at the primary before the proposal ran, ns.
            queue_ns: u64,
        } => "request_proposed",
        /// A backup accepted and logged a pre-prepare for this (view, seq)
        /// and sent its prepare. `queue_ns` is the backup's event-loop lag
        /// when the pre-prepare was handled.
        PrePrepareLogged {
            /// Scheduling delay at the backup before the pre-prepare ran, ns.
            queue_ns: u64,
        } => "pre_prepare_logged",
        /// A replica collected a prepare certificate (pre-prepare + 2f
        /// matching prepares) for this (view, seq) and sent its commit.
        PrepareQuorum => "prepare_quorum",
        /// A replica collected a commit certificate (2f+1 matching commits)
        /// for this (view, seq); the batch is now committed locally.
        CommitQuorum => "commit_quorum",
        /// A replica sent (or re-sent) a reply to `client` for the operation
        /// stamped `ts` — the last replica-side hop of the span graph.
        ReplySent {
            /// Destination client node id.
            client: u64,
            /// Client-assigned request timestamp (the op key).
            ts: u64,
        } => "reply_sent",
    }
}

/// A [`ProtocolEvent`] stamped with when, where and which protocol instant
/// (view/sequence number) it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the emission.
    pub at: SimTime,
    /// Emitting node.
    pub node: NodeId,
    /// Protocol view at emission (0 where not meaningful).
    pub view: u64,
    /// Protocol sequence number at emission (0 where not meaningful).
    pub seq: u64,
    /// The event itself.
    pub event: ProtocolEvent,
}

impl TraceEvent {
    /// One deterministic JSON line (no trailing newline). Field order is
    /// fixed, so identical traces serialize to identical bytes.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"at_ns\":{},\"node\":{},\"view\":{},\"seq\":{},\"event\":\"{}\"",
            self.at.as_nanos(),
            self.node.0,
            self.view,
            self.seq,
            self.event.name(),
        );
        for (field, value) in self.event.fields() {
            let _ = write!(s, ",\"{field}\":{value}");
        }
        s.push('}');
        s
    }
}

/// Serializes a trace as JSON Lines: one event per line, trailing newline
/// after every line. Byte-identical for identical traces.
pub fn export_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ms: u64, node: usize, event: ProtocolEvent) -> TraceEvent {
        TraceEvent { at: SimTime::from_millis(at_ms), node: NodeId(node), view: 1, seq: 2, event }
    }

    #[test]
    fn jsonl_is_deterministic_and_carries_payloads() {
        let events = vec![
            ev(1, 3, ProtocolEvent::StateTransferFetchChunk { bytes: 640 }),
            ev(2, 3, ProtocolEvent::RecoveryCompleted { repaired_corruption: true }),
        ];
        let a = export_jsonl(&events);
        let b = export_jsonl(&events);
        assert_eq!(a, b);
        assert!(a.contains("\"bytes\":640"));
        assert!(a.contains("\"repaired_corruption\":true"));
        assert_eq!(a.lines().count(), 2);
    }
}
