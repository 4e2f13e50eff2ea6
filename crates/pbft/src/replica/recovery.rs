//! Proactive recovery — the watchdog's staggered reboots — and the idle
//! probes through which a replica that fell behind learns the group's
//! state.

use super::io::Io;
use super::json_opt;
use crate::byzantine::ByzMode;
use crate::messages::{FetchCertMsg, Message, StatusMsg};
use base_simnet::{ProtocolEvent, SimDuration};

/// Timer token of the recovery watchdog.
pub(super) const TOKEN_WATCHDOG: u64 = 3;

#[derive(Default)]
pub(super) struct Recovery {
    recovering: bool,
    /// Warm reboots keep the concrete state; clean ones (paper §3.4, the
    /// default) restart it.
    warm: bool,
    /// The next tick runs the watchdog at once, out of rotation.
    asap: bool,
    started_at_ns: u64,
    /// Progress marker for the retransmission tick.
    last_exec_at_tick: u64,
    /// Consecutive ticks without execution progress.
    idle_ticks: u64,
}

impl Recovery {
    pub(super) fn recovering(&self) -> bool {
        self.recovering
    }

    pub(super) fn set_clean(&mut self, clean: bool) {
        self.warm = !clean;
    }

    pub(super) fn trigger(&mut self) {
        self.asap = true;
    }

    pub(super) fn triggered(&mut self) -> bool {
        std::mem::take(&mut self.asap)
    }

    /// Arms the watchdog for the next rotation. The first is staggered:
    /// replica i first recovers at (i+1)/n of the period.
    pub(super) fn arm(io: &mut Io<'_, '_>, first: bool) {
        if let Some(period) = io.cfg.recovery_period {
            let stagger = period.as_nanos() / io.cfg.n as u64 * (u64::from(io.id) + 1);
            let delay = if first { SimDuration::from_nanos(stagger) } else { period };
            io.ctx.set_timer(delay, TOKEN_WATCHDOG);
        }
    }

    /// Reboots: down for the reboot time, new session keys, the service
    /// restarted. Returns whether the reboot was clean.
    pub(super) fn reboot(&mut self, io: &mut Io<'_, '_>, view: u64, h: u64) -> bool {
        io.ctx.charge(io.cfg.reboot_time);
        io.keys.refresh();
        self.recovering = true;
        self.started_at_ns = io.ctx.now().as_nanos();
        io.ctx.emit(view, h, ProtocolEvent::RecoveryStarted);
        io.metrics.inc("replica.recoveries_started");
        io.exec(|svc, env| svc.reboot(!self.warm, env));
        !self.warm
    }

    /// Ends the recovery in progress, if any, and returns how long it took.
    /// With `repair`, state transfer replaced any corrupted objects, so a
    /// replica whose only fault was damaged state is correct again.
    pub(super) fn complete(
        &mut self,
        io: &mut Io<'_, '_>,
        view: u64,
        seq: u64,
        repair: bool,
    ) -> Option<u64> {
        if !self.recovering {
            return None;
        }
        self.recovering = false;
        io.stats.recoveries += 1;
        let took = io.ctx.now().as_nanos().saturating_sub(self.started_at_ns);
        let repaired = repair && *io.byz == ByzMode::CorruptState;
        if repaired {
            *io.byz = ByzMode::Honest;
        }
        io.ctx.emit(view, seq, ProtocolEvent::RecoveryCompleted { repaired_corruption: repaired });
        io.metrics.observe("replica.recovery_ns", took);
        Some(took)
    }

    /// Whether execution progressed since the last tick.
    pub(super) fn progressed(&mut self, last_exec: u64) -> bool {
        let progressed = last_exec != self.last_exec_at_tick;
        self.last_exec_at_tick = last_exec;
        if progressed {
            self.idle_ticks = 0;
        }
        progressed
    }

    /// The probes of a tick without progress. Gap detection: the group has
    /// moved ahead of us (we see traffic for later sequence numbers) but we
    /// are missing the next batch — it was garbage-collected at the others.
    /// Ask for their stable checkpoint certificate so we can state-transfer.
    /// The same probe doubles as a periodic idle status exchange (PBFT's
    /// status messages): a replica that slept through the entire workload
    /// still discovers the group's stable checkpoint. These probes run even
    /// mid-view-change and mid-fetch: a replica in a lonely high view, or
    /// fetching a checkpoint its peers have since collected, learns state
    /// from the quorum only through them.
    pub(super) fn probe(&mut self, io: &mut Io<'_, '_>, view: u64, last_exec: u64, h: u64) {
        let next = last_exec + 1;
        let missing_next = io.log.entry(next).is_none_or(|e| e.pre_prepare.is_none());
        let group_ahead = io
            .log
            .iter()
            .any(|(s, e)| s > next && (e.pre_prepare.is_some() || !e.commits().is_empty()));
        self.idle_ticks += 1;
        if (missing_next && group_ahead) || self.idle_ticks.is_multiple_of(10) {
            io.multicast(&Message::FetchCert(FetchCertMsg { replica: io.id }));
        }
        // Status report: peers retransmit whatever we are missing.
        let status = StatusMsg { view, last_exec, stable_seq: h, replica: io.id };
        io.multicast(&Message::Status(status));
    }

    pub(super) fn status(&self, out: &mut String) {
        let since = self.recovering.then_some(self.started_at_ns);
        out.push_str(&format!(",\"recovering_since_ns\":{}", json_opt(since)));
    }
}
