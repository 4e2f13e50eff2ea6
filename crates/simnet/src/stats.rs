//! Wire and CPU statistics.

use crate::actor::NodeId;
use crate::time::SimDuration;
use std::ops::Index;

/// One value per node, indexed by node id: every message updates three of
/// these. Reads keep the shape of the map this replaces, except that a node
/// below the highest one recorded reads as `T::default()`, not as absent.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PerNode<T>(Vec<T>);

impl<T: Default> PerNode<T> {
    fn slot(&mut self, node: NodeId) -> &mut T {
        if self.0.len() <= node.0 {
            self.0.resize_with(node.0 + 1, T::default);
        }
        &mut self.0[node.0]
    }

    /// The value recorded for `node`, if the table reaches it.
    pub fn get(&self, node: &NodeId) -> Option<&T> {
        self.0.get(node.0)
    }

    /// `(node, value)` pairs in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.0.iter().enumerate().map(|(i, v)| (NodeId(i), v))
    }
}

impl<T> Index<&NodeId> for PerNode<T> {
    type Output = T;

    /// Panics if the table does not reach `node`.
    fn index(&self, node: &NodeId) -> &T {
        &self.0[node.0]
    }
}

/// Counters accumulated over a simulation run.
///
/// These feed the benchmark tables: state-transfer experiments report bytes
/// on the wire, and overhead experiments report per-node CPU charges.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Total messages handed to the network.
    pub messages_sent: u64,
    /// Total messages delivered.
    pub messages_delivered: u64,
    /// Messages dropped (loss, partitions, filters, crashed targets).
    pub messages_dropped: u64,
    /// Total payload bytes handed to the network.
    pub bytes_sent: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Per-node sent byte counts.
    pub bytes_sent_by: PerNode<u64>,
    /// Per-node delivered byte counts.
    pub bytes_delivered_to: PerNode<u64>,
    /// Per-node accumulated CPU charges.
    pub cpu_by: PerNode<SimDuration>,
}

impl NetStats {
    pub(crate) fn record_send(&mut self, from: NodeId, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        *self.bytes_sent_by.slot(from) += bytes as u64;
    }

    pub(crate) fn record_delivery(&mut self, to: NodeId, bytes: usize) {
        self.messages_delivered += 1;
        self.bytes_delivered += bytes as u64;
        *self.bytes_delivered_to.slot(to) += bytes as u64;
    }

    pub(crate) fn record_drop(&mut self) {
        self.messages_dropped += 1;
    }

    pub(crate) fn record_cpu(&mut self, node: NodeId, d: SimDuration) {
        *self.cpu_by.slot(node) += d;
    }
}
