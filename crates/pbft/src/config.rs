//! Replication group configuration.

use base_simnet::{NodeId, SimDuration};

/// Lower clamp for retransmission timeouts (client retries and the
/// replicas' agreement-latency estimator).
pub const RTO_FLOOR: SimDuration = SimDuration::from_millis(150);

/// Upper clamp for retransmission timeouts and their exponential backoff.
pub const RTO_CEILING: SimDuration = SimDuration::from_secs(4);

/// Maximum requests batched into one pre-prepare.
pub const BATCH_MAX: usize = 16;

/// Period of the replicas' retransmission/housekeeping tick.
pub const TICK_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Static configuration shared by all replicas and clients of one group.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of replicas (`n >= 3f + 1`).
    pub n: usize,
    /// Checkpoint interval: a checkpoint is taken every `k`-th sequence
    /// number (the paper uses k = 128).
    pub checkpoint_interval: u64,
    /// Log window size: the primary may propose sequence numbers in
    /// `(h, h + log_window]` where `h` is the last stable checkpoint.
    pub log_window: u64,
    /// Maximum unexecuted proposals the primary keeps in flight; arrivals
    /// beyond it accumulate and get batched (the BFT library's behaviour:
    /// batch whatever arrives while earlier batches are in the pipeline).
    pub max_inflight: u64,
    /// Base view-change timeout; doubles for each consecutive failed view
    /// (clamped to [`view_change_timeout_cap`](Self::view_change_timeout_cap)).
    /// The base is re-seeded from observed agreement latency once samples
    /// exist.
    pub view_change_timeout: SimDuration,
    /// Ceiling for the doubling view-change timeout: however many
    /// consecutive views fail, the timer never exceeds this.
    pub view_change_timeout_cap: SimDuration,
    /// Client retransmission timeout: the pre-sample initial RTO. Once an
    /// operation completes, the Jacobson/Karels estimator
    /// (`base_simnet::RttEstimator`) drives the timer, clamped between
    /// [`RTO_FLOOR`] and [`RTO_CEILING`].
    pub client_timeout: SimDuration,
    /// Proactive recovery: full rotation period (every replica recovers
    /// once per period, staggered). `None` disables proactive recovery.
    pub recovery_period: Option<SimDuration>,
    /// Simulated reboot time during proactive recovery.
    pub reboot_time: SimDuration,
    /// Agreement pipelining: maximum consensus instances past the highest
    /// contiguously *committed* sequence number the primary keeps open
    /// (proposing seq `n+1` while `n` is still gathering prepares).
    /// `1` is strict lockstep — the serial oracle the differential
    /// equivalence suite compares every other configuration against.
    /// Distinct from [`max_inflight`](Self::max_inflight), which bounds
    /// unexecuted proposals: a slot can be committed but not yet executed
    /// while the execution stage drains its backlog.
    pub pipeline_depth: u64,
    /// Leaf-digest chunk size in bytes
    /// ([`Service::set_chunk_size`](crate::Service::set_chunk_size)).
    /// `0` (the default) keeps legacy whole-object leaf digests. Non-zero
    /// switches every leaf digest to the chunked fold, so small writes to
    /// big objects re-hash only touched chunks and state transfer fetches
    /// an out-of-date object chunk by chunk, skipping chunks the fetcher
    /// already holds. Consensus-critical: all replicas must configure the
    /// same value.
    pub chunk_size: usize,
    /// Shard (replica-group) identity. `0` — the default — is the classic
    /// single-group deployment and keeps every message byte-identical to
    /// the unsharded wire format; non-zero shards prefix their messages
    /// with a shard envelope so groups sharing one simulated network never
    /// accept each other's traffic (on top of per-shard key directories,
    /// whose MACs would not cross-verify anyway).
    pub shard: u32,
    /// First simulator node of this group's replica range: replica `i`
    /// lives at node `node_base + i`. Defaults to `0` (the unsharded
    /// layout). Sharded deployments place shard `s` at `s * n`.
    pub node_base: usize,
    /// First simulator node of this group's client range: the client with
    /// protocol id `c` (`c >= n` within the group's key directory) lives at
    /// node `client_base + (c - n)`. Defaults to `n`, which reproduces the
    /// unsharded layout where clients directly follow the replicas.
    pub client_base: usize,
}

impl Config {
    /// Creates a configuration for `n` replicas with defaults matching the
    /// paper's setup (k = 128, LAN-scale timeouts).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (at least one fault must be tolerable) or `n > 64`
    /// (quorums are tallied in one machine word, a bit per replica).
    pub fn new(n: usize) -> Self {
        assert!(n >= 4, "PBFT needs n >= 3f + 1 >= 4 replicas");
        assert!(n <= 64, "quorum tallies keep one bit per replica");
        Self {
            n,
            checkpoint_interval: 128,
            log_window: 256,
            max_inflight: 16,
            view_change_timeout: SimDuration::from_millis(500),
            view_change_timeout_cap: SimDuration::from_secs(8),
            client_timeout: SimDuration::from_millis(300),
            recovery_period: None,
            reboot_time: SimDuration::from_secs(30),
            pipeline_depth: 16,
            chunk_size: 0,
            shard: 0,
            node_base: 0,
            client_base: n,
        }
    }

    /// Re-bases the group at `shard` with its replicas starting at
    /// `node_base` and its clients at `client_base` (sharded deployments;
    /// see [`shard`](Self::shard)).
    pub fn with_shard(mut self, shard: u32, node_base: usize, client_base: usize) -> Self {
        self.shard = shard;
        self.node_base = node_base;
        self.client_base = client_base;
        self
    }

    /// Maximum number of Byzantine faults tolerated: `f = (n - 1) / 3`.
    pub fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    /// Quorum size for certificates: `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * self.f() + 1
    }

    /// Replies needed by a client for a read-write operation: `f + 1`.
    pub fn reply_quorum(&self) -> usize {
        self.f() + 1
    }

    /// The primary replica of `view`.
    pub fn primary_of(&self, view: u64) -> usize {
        (view % self.n as u64) as usize
    }

    /// Simulator node of replica `i` (replicas occupy nodes
    /// `node_base..node_base + n`).
    pub fn replica_node(&self, i: usize) -> NodeId {
        NodeId(self.node_base + i)
    }

    /// Iterator over all replica nodes.
    pub fn replica_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(|i| self.replica_node(i))
    }

    /// True if `node` hosts a replica of this group.
    pub fn is_replica(&self, node: NodeId) -> bool {
        node.0 >= self.node_base && node.0 < self.node_base + self.n
    }

    /// Simulator node of the client with protocol id `client` (client ids
    /// within a group's key directory start at `n`).
    pub fn client_node(&self, client: u32) -> NodeId {
        NodeId(self.client_base + (client as usize).saturating_sub(self.n))
    }

    /// Highest sequence number the group accepts given stable checkpoint
    /// `h`.
    pub fn high_watermark(&self, h: u64) -> u64 {
        h + self.log_window
    }

    /// Next view-change timeout during an escalating chase: double the
    /// current value with saturating arithmetic, clamp to
    /// [`view_change_timeout_cap`](Self::view_change_timeout_cap), and
    /// never fall below [`view_change_timeout`](Self::view_change_timeout).
    /// A long primary-chasing storm must neither overflow the timer nor
    /// push it so far out the group effectively stops trying new views.
    pub fn escalated_vc_timeout(&self, current: SimDuration) -> SimDuration {
        current
            .saturating_mul(2)
            .min(self.view_change_timeout_cap)
            .max(self.view_change_timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_math() {
        let c4 = Config::new(4);
        assert_eq!(c4.f(), 1);
        assert_eq!(c4.quorum(), 3);
        assert_eq!(c4.reply_quorum(), 2);

        let c7 = Config::new(7);
        assert_eq!(c7.f(), 2);
        assert_eq!(c7.quorum(), 5);

        let c10 = Config::new(10);
        assert_eq!(c10.f(), 3);
        assert_eq!(c10.quorum(), 7);
    }

    #[test]
    fn primary_rotates() {
        let c = Config::new(4);
        assert_eq!(c.primary_of(0), 0);
        assert_eq!(c.primary_of(1), 1);
        assert_eq!(c.primary_of(4), 0);
        assert_eq!(c.primary_of(7), 3);
    }

    #[test]
    #[should_panic(expected = "n >= 3f + 1")]
    fn too_few_replicas_panics() {
        Config::new(3);
    }

    #[test]
    #[should_panic(expected = "one bit per replica")]
    fn more_replicas_than_tally_bits_panics() {
        Config::new(65);
    }

    /// Every virtual-time snapshot and baseline was taken at these values;
    /// changing one drifts them all.
    #[test]
    fn timer_and_window_constants_keep_their_values() {
        assert_eq!(RTO_FLOOR, SimDuration::from_millis(150));
        assert_eq!(RTO_CEILING, SimDuration::from_secs(4));
        assert_eq!(BATCH_MAX, 16);
        assert_eq!(TICK_INTERVAL, SimDuration::from_millis(100));
        assert_eq!(crate::transfer::DEFAULT_FETCH_WINDOW, 4);
        assert_eq!(crate::transfer::FETCH_WINDOW_MAX, 16);
    }

    #[test]
    fn default_layout_is_the_unsharded_one() {
        let c = Config::new(4);
        assert_eq!(c.shard, 0);
        assert_eq!(c.replica_node(2), NodeId(2));
        assert_eq!(c.client_node(4), NodeId(4));
        assert_eq!(c.client_node(6), NodeId(6));
        assert!(c.is_replica(NodeId(3)));
        assert!(!c.is_replica(NodeId(4)));
    }

    #[test]
    fn sharded_layout_rebases_replicas_and_clients() {
        // Shard 1 of a 2-shard, n=4 deployment with 3 shared router
        // clients: replicas at 4..8, clients at 8..11.
        let c = Config::new(4).with_shard(1, 4, 8);
        assert_eq!(c.replica_node(0), NodeId(4));
        assert_eq!(c.replica_node(3), NodeId(7));
        assert_eq!(c.replica_nodes().collect::<Vec<_>>(), (4..8).map(NodeId).collect::<Vec<_>>());
        assert!(!c.is_replica(NodeId(3)));
        assert!(c.is_replica(NodeId(4)));
        assert!(!c.is_replica(NodeId(8)));
        // Client protocol id 4 (first client of the group's directory)
        // lives at the first router node; id 6 at the third.
        assert_eq!(c.client_node(4), NodeId(8));
        assert_eq!(c.client_node(6), NodeId(10));
    }

    #[test]
    fn vc_escalation_doubles_saturates_and_caps() {
        let mut cfg = Config::new(4);
        cfg.view_change_timeout = SimDuration::from_millis(500);
        cfg.view_change_timeout_cap = SimDuration::from_secs(8);

        // Normal doubling from the base.
        let mut t = cfg.view_change_timeout;
        for expect_ms in [1000, 2000, 4000, 8000] {
            t = cfg.escalated_vc_timeout(t);
            assert_eq!(t, SimDuration::from_millis(expect_ms));
        }
        // Pinned at the cap, however long the storm runs.
        for _ in 0..100 {
            t = cfg.escalated_vc_timeout(t);
            assert_eq!(t, cfg.view_change_timeout_cap);
        }

        // An adaptive base below the configured floor is pulled back up.
        let fast = cfg.escalated_vc_timeout(SimDuration::from_millis(100));
        assert_eq!(fast, cfg.view_change_timeout);

        // Saturating arithmetic: near-overflow current values clamp to the
        // cap instead of wrapping around to a tiny timeout.
        cfg.view_change_timeout_cap = SimDuration::from_nanos(u64::MAX);
        let huge = cfg.escalated_vc_timeout(SimDuration::from_nanos(u64::MAX - 1));
        assert_eq!(huge, SimDuration::from_nanos(u64::MAX));
    }
}
