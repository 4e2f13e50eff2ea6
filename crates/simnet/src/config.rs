//! The network model: latency, bandwidth and clock skew. Faults (loss,
//! partitions, slow links, …) are [`crate::faults::NetFault`] windows.

use crate::actor::NodeId;
use crate::time::SimDuration;
use std::collections::HashMap;

/// Link latency model: a base delay plus uniform jitter.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Minimum one-way delay.
    pub base: SimDuration,
    /// Maximum additional uniform jitter.
    pub jitter: SimDuration,
}

impl LatencyModel {
    /// A switched-LAN-like profile (~100 µs ± 20 µs one way), matching the
    /// class of testbed the paper used.
    pub fn lan() -> Self {
        Self { base: SimDuration::from_micros(100), jitter: SimDuration::from_micros(20) }
    }

    /// A WAN-like profile (~20 ms ± 5 ms one way).
    pub fn wan() -> Self {
        Self { base: SimDuration::from_millis(20), jitter: SimDuration::from_millis(5) }
    }

    /// A zero-latency profile, useful for unit tests.
    pub fn instant() -> Self {
        Self { base: SimDuration::ZERO, jitter: SimDuration::ZERO }
    }
}

/// The network model.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Latency model of every link.
    pub latency: LatencyModel,
    /// Network bandwidth in bytes/second (0 = infinite). Adds a
    /// size-proportional serialization delay to each message.
    pub bandwidth_bytes_per_sec: u64,
    /// Per-node local clock skew.
    pub clock_skew: HashMap<NodeId, SimDuration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            latency: LatencyModel::lan(),
            bandwidth_bytes_per_sec: 0,
            clock_skew: HashMap::new(),
        }
    }
}

impl NetConfig {
    /// Sets the local clock skew of `node`.
    pub fn set_clock_skew(&mut self, node: NodeId, skew: SimDuration) {
        self.clock_skew.insert(node, skew);
    }

    /// The local clock skew of `node` (zero if unset).
    pub fn skew(&self, node: NodeId) -> SimDuration {
        self.clock_skew.get(&node).copied().unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, Context};
    use crate::faults::NetFault;
    use crate::time::SimTime;
    use crate::Simulation;

    /// Records when each message arrives.
    #[derive(Default)]
    struct Arrivals(Vec<SimTime>);

    impl Actor for Arrivals {
        fn on_message(&mut self, _from: NodeId, _payload: &[u8], ctx: &mut Context<'_>) {
            self.0.push(ctx.now());
        }
    }

    /// A one-direction slow link is a `NetFault::Slow` window: it delays
    /// its own link beyond the model's latency and leaves the reverse
    /// direction on the model.
    #[test]
    fn per_link_override_wins() {
        let mut sim = Simulation::new(1);
        sim.config_mut().latency = LatencyModel::instant();
        let a = sim.add_node(Box::<Arrivals>::default());
        let b = sim.add_node(Box::<Arrivals>::default());
        let extra = LatencyModel::wan().base;
        sim.add_fault(NetFault::Slow { from: a, to: b, extra }, SimTime::ZERO, SimTime(u64::MAX));
        sim.inject(a, b, b"x".to_vec());
        sim.inject(b, a, b"x".to_vec());
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(sim.actor_as::<Arrivals>(b).unwrap().0, vec![SimTime::ZERO + extra]);
        // The reverse direction still uses the model.
        assert_eq!(sim.actor_as::<Arrivals>(a).unwrap().0, vec![SimTime::ZERO]);
    }
}
