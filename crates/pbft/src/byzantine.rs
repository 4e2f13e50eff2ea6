//! Canned Byzantine replica behaviours for fault-injection experiments.
//!
//! A replica configured with a non-honest mode misbehaves in a specific,
//! reproducible way. Every mode but `CorruptState` shapes only the frames
//! the replica sends (`replica::io::Io::outbound`); what it logs, stores
//! and counts is what an honest replica would hold. These behaviours drive
//! experiment E6 (the fault injection study the paper lists as future
//! work) and the integration tests that check the protocol masks up to `f`
//! faults.

/// How a replica misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ByzMode {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Sends nothing at all (fail-silent without crashing the process).
    Mute,
    /// Executes correctly but flips bits in the result (or the result
    /// digest) of every reply to clients.
    CorruptReplies,
    /// As primary, sends different batches to the odd- and even-numbered
    /// backups (equivocation), retransmissions included; as backup,
    /// behaves honestly.
    EquivocatePrimary,
    /// Lies in its CHECKPOINT messages (claims a bogus state digest); the
    /// checkpoints it stores and serves to fetchers are honest.
    CorruptCheckpoints,
    /// Executes requests but never sends its own commit messages (slows the
    /// group to the quorum without it); it still relays its peers'.
    WithholdCommits,
    /// As primary, proposes wildly wrong non-deterministic timestamps
    /// (backups must reject them and depose the primary).
    BadTimestamps,
    /// Concrete-state corruption (the BASE scenario): the replica's
    /// service state is silently flipped without updating abstraction
    /// digests, so the fault is latent until proactive recovery recomputes
    /// digests and state transfer repairs the damaged objects. The replica
    /// otherwise follows the protocol, but executes on wrong state.
    CorruptState,
}

impl ByzMode {
    /// True for any non-honest mode.
    pub fn is_faulty(&self) -> bool {
        !matches!(self, ByzMode::Honest)
    }

    /// Every mode, in declaration order: a mode's code is its index.
    const ALL: [ByzMode; 8] = [
        ByzMode::Honest, ByzMode::Mute, ByzMode::CorruptReplies, ByzMode::EquivocatePrimary,
        ByzMode::CorruptCheckpoints, ByzMode::WithholdCommits, ByzMode::BadTimestamps,
        ByzMode::CorruptState,
    ];

    /// Stable numeric code, used by chaos schedules to name a mode in a
    /// serialized fault event.
    pub fn code(&self) -> u64 {
        *self as u64
    }

    /// Inverse of [`ByzMode::code`]; unknown codes map to `Honest`.
    pub fn from_code(code: u64) -> ByzMode {
        usize::try_from(code).ok().and_then(|i| Self::ALL.get(i)).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honesty_check() {
        assert!(!ByzMode::Honest.is_faulty());
        assert!(ByzMode::Mute.is_faulty());
        assert!(ByzMode::CorruptReplies.is_faulty());
        assert!(ByzMode::CorruptState.is_faulty());
    }

    #[test]
    fn code_roundtrip() {
        for code in 0..8 {
            assert_eq!(ByzMode::from_code(code).code(), code);
        }
        assert_eq!(ByzMode::from_code(999), ByzMode::Honest);
    }
}
