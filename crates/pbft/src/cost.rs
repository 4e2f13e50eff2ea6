//! Simulated CPU cost model.
//!
//! Real crypto is computed on every message, but the simulator's virtual
//! clock needs explicit charges to reflect that work in measured latencies.
//! [`COST`] is the one price list every replica, client and service charges
//! by: it approximates a ~1 GHz-era server of the paper's vintage running
//! SHA-256-based MACs.

use base_simnet::SimDuration;

/// CPU cost constants used by replicas and clients.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Cost of one MAC computation or verification.
    pub mac: SimDuration,
    /// Cost of one (simulated) signature or verification.
    pub signature: SimDuration,
    /// Fixed cost of hashing a message.
    pub digest_base: SimDuration,
    /// Per-byte cost of hashing.
    pub digest_per_byte_ns: u64,
    /// Fixed protocol bookkeeping cost per handled message.
    pub handle: SimDuration,
}

/// The prices every charge reads. Every virtual-time snapshot and baseline
/// was taken at these values; changing one drifts them all.
pub const COST: CostModel = CostModel {
    mac: SimDuration::from_nanos(700),
    signature: SimDuration::from_micros(3),
    digest_base: SimDuration::from_nanos(400),
    digest_per_byte_ns: 3,
    handle: SimDuration::from_micros(2),
};

impl Default for CostModel {
    fn default() -> Self {
        COST
    }
}

impl CostModel {
    /// Cost of hashing `len` bytes.
    pub fn digest(&self, len: usize) -> SimDuration {
        self.digest_base + SimDuration::from_nanos(self.digest_per_byte_ns * len as u64)
    }

    /// Cost of generating an authenticator for `n` receivers.
    pub fn authenticator(&self, n: usize) -> SimDuration {
        self.mac.saturating_mul(n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_cost_scales_with_length() {
        assert!(COST.digest(10_000) > COST.digest(10));
        assert_eq!(COST.digest(1000), COST.digest_base + SimDuration::from_nanos(3000));
    }

    #[test]
    fn authenticator_scales_with_replicas() {
        assert_eq!(COST.authenticator(4), COST.mac.saturating_mul(4));
    }
}
