//! Deterministic Jacobson/Karels round-trip-time estimation.
//!
//! The client's retransmission timer and the view change's base timeout
//! need the same primitive: an estimate of how long a request/response
//! exchange *should* take, turned into a retransmission timeout (RTO) that
//! adapts to what the network actually delivers. [`RttEstimator`] is the classic
//! TCP estimator — exponentially weighted mean plus mean deviation,
//! `RTO = srtt + 4·rttvar` — in pure integer arithmetic so two runs over
//! the same sample sequence produce byte-identical state.
//!
//! The estimator is unit-agnostic: callers feed samples in whatever unit
//! their clock ticks in (nanoseconds for the simulation clock) and read the
//! RTO back in the same unit.
//!
//! Jitter is deterministic too. Instead of consuming simulator RNG (which
//! would shift every downstream random draw and break trace stability for
//! unrelated components), [`RttEstimator::jitter`] runs a splitmix64 finalizer
//! over the estimator's seed and a caller-provided salt — the idiom the
//! state-transfer fetcher also uses, with no estimator, to spread its
//! retries without touching the run's RNG stream.

/// Jacobson/Karels RTT estimator with clamped RTO and deterministic jitter.
///
/// All quantities are plain `u64` in the caller's time unit. Until the
/// first sample arrives, [`rto`](Self::rto) returns the configured initial
/// value (clamped to the floor/ceiling window), so an unseeded estimator
/// behaves exactly like the static timeout it replaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RttEstimator {
    seed: u64,
    floor: u64,
    ceiling: u64,
    initial: u64,
    /// Smoothed RTT (EWMA mean, gain 1/8). Zero only before the first sample.
    srtt: u64,
    /// Smoothed mean deviation (EWMA, gain 1/4).
    rttvar: u64,
    samples: u64,
}

/// splitmix64 finalizer: a full-avalanche hash of `x`.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

impl RttEstimator {
    /// A fresh estimator.
    ///
    /// `seed` only feeds [`jitter`](Self::jitter); two estimators with
    /// different seeds but the same samples report the same RTO. `floor`
    /// and `ceiling` clamp the RTO window; `initial` is the pre-sample RTO
    /// (typically the static timeout being replaced).
    pub fn new(seed: u64, floor: u64, ceiling: u64, initial: u64) -> Self {
        let ceiling = ceiling.max(floor);
        Self { seed, floor, ceiling, initial, srtt: 0, rttvar: 0, samples: 0 }
    }

    /// Feeds one observed round-trip sample (in the caller's unit).
    pub fn observe(&mut self, sample: u64) {
        if self.samples == 0 {
            // First sample: srtt = R, rttvar = R/2 (RFC 6298 §2.2).
            self.srtt = sample;
            self.rttvar = sample / 2;
        } else {
            let err = self.srtt.abs_diff(sample);
            // rttvar = 3/4·rttvar + 1/4·|srtt - R|
            self.rttvar = self.rttvar - self.rttvar / 4 + err / 4;
            // srtt = 7/8·srtt + 1/8·R
            self.srtt = self.srtt - self.srtt / 8 + sample / 8;
        }
        self.samples = self.samples.saturating_add(1);
    }

    /// Number of samples observed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The smoothed RTT (zero before the first sample).
    pub fn srtt(&self) -> u64 {
        self.srtt
    }

    /// The current retransmission timeout: `srtt + 4·rttvar`, clamped to
    /// `[floor, ceiling]`. Before any sample: `initial`, same clamp.
    pub fn rto(&self) -> u64 {
        let raw = if self.samples == 0 {
            self.initial
        } else {
            self.srtt.saturating_add(self.rttvar.saturating_mul(4))
        };
        raw.clamp(self.floor, self.ceiling)
    }

    /// The RTO after `attempts` consecutive failures: capped exponential
    /// backoff `rto · 2^min(attempts, 6)`, clamped to the ceiling.
    pub fn backoff(&self, attempts: u32) -> u64 {
        self.rto().saturating_mul(1u64 << attempts.min(6)).min(self.ceiling)
    }

    /// A deterministic jitter draw in `[0, max]`, keyed by the estimator
    /// seed and a caller-provided salt (e.g. request timestamp ⊕ attempt
    /// count). Pure: no simulator RNG is consumed and repeated calls with
    /// the same salt return the same value.
    pub fn jitter(&self, salt: u64, max: u64) -> u64 {
        if max == 0 {
            return 0;
        }
        mix64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % (max + 1)
    }

    /// [`backoff`](Self::backoff) plus a jitter draw of up to a quarter of
    /// the backoff — the standard de-synchronization for retry storms.
    pub fn jittered_backoff(&self, attempts: u32, salt: u64) -> u64 {
        let base = self.backoff(attempts);
        base.saturating_add(self.jitter(salt ^ u64::from(attempts), base / 4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseeded_estimator_reports_initial() {
        let e = RttEstimator::new(1, 100, 4_000, 300);
        assert_eq!(e.rto(), 300);
        assert_eq!(e.samples(), 0);
    }

    #[test]
    fn initial_is_clamped() {
        assert_eq!(RttEstimator::new(1, 100, 4_000, 5).rto(), 100);
        assert_eq!(RttEstimator::new(1, 100, 4_000, 9_999).rto(), 4_000);
    }

    #[test]
    fn first_sample_seeds_srtt_and_var() {
        let mut e = RttEstimator::new(1, 0, u64::MAX, 300);
        e.observe(80);
        assert_eq!(e.srtt(), 80);
        // RTO = 80 + 4·40 = 240.
        assert_eq!(e.rto(), 240);
    }

    #[test]
    fn steady_samples_converge_and_spike_raises_rto() {
        let mut e = RttEstimator::new(1, 0, u64::MAX, 300);
        for _ in 0..64 {
            e.observe(100);
        }
        let calm = e.rto();
        assert!(calm <= 150, "variance should decay on steady input, rto={calm}");
        e.observe(2_000);
        assert!(e.rto() > calm, "a spike must raise the RTO");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = RttEstimator::new(1, 100, 1_600, 300);
        for _ in 0..32 {
            e.observe(100);
        }
        let rto = e.rto();
        assert_eq!(e.backoff(0), rto);
        assert_eq!(e.backoff(1), (rto * 2).min(1_600));
        assert_eq!(e.backoff(20), 1_600, "backoff is clamped to the ceiling");
    }

    #[test]
    fn jitter_is_pure_and_bounded() {
        let e = RttEstimator::new(42, 0, u64::MAX, 300);
        for salt in 0..256u64 {
            let j = e.jitter(salt, 75);
            assert!(j <= 75);
            assert_eq!(j, e.jitter(salt, 75), "same salt, same draw");
        }
        assert_eq!(e.jitter(7, 0), 0);
        // Different seeds de-synchronize.
        let other = RttEstimator::new(43, 0, u64::MAX, 300);
        assert!((0..64u64).any(|s| e.jitter(s, 1_000) != other.jitter(s, 1_000)));
    }
}
