//! Replication group configuration.

use base_simnet::{NodeId, SimDuration};

/// Retransmission timeout: a client's first wait for a reply quorum, and a
/// view's progress timer whenever it restarts. The agreement round it
/// guards takes milliseconds, so a fixed value serves every workload.
pub const RTO: SimDuration = SimDuration::from_millis(150);

/// Upper clamp for a client's exponential backoff from [`RTO`].
pub const RTO_CEILING: SimDuration = SimDuration::from_secs(4);

/// Floor of an escalating view change: the first failed view waits at
/// least this long, and the wait doubles for each consecutive failed view
/// (clamped to [`VIEW_CHANGE_TIMEOUT_CAP`], see [`escalated_vc_timeout`]).
pub const VIEW_CHANGE_TIMEOUT_BASE: SimDuration = SimDuration::from_millis(500);

/// Ceiling for the doubling view-change timeout: however many consecutive
/// views fail, the timer never exceeds this.
pub const VIEW_CHANGE_TIMEOUT_CAP: SimDuration = SimDuration::from_secs(8);

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
    /// This is also the agreement pipeline's depth: `1` is strict lockstep
    /// — the serial oracle the differential equivalence suite compares
    /// every other configuration against.
    pub max_inflight: u64,
    /// Proactive recovery: full rotation period (every replica recovers
    /// once per period, staggered). `None` disables proactive recovery.
    pub recovery_period: Option<SimDuration>,
    /// Simulated reboot time during proactive recovery.
    pub reboot_time: SimDuration,
    /// First simulator node of this group's replica range: replica `i`
    /// lives at node `node_base + i`. Defaults to `0` (the unsharded
    /// layout). Sharded deployments place shard `s` at `s * n`.
    pub node_base: usize,
    /// First simulator node of this group's client range: the client with
    /// protocol id `c` (`c >= n` within the group's key directory) lives at
    /// node `client_base + (c - n)`. Defaults to `n`, which reproduces the
    /// unsharded layout where clients directly follow the replicas. Groups
    /// sharing a network put every client past every group's replicas,
    /// and a replica drops a frame from a node below `client_base` that is
    /// not one of its own ([`replica_of`](Self::replica_of)): the sender's
    /// placement is what keeps the groups apart.
    pub client_base: usize,
}

impl Config {
    /// Creates a configuration for `n` replicas with defaults matching the
    /// paper's setup (k = 128).
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
            recovery_period: None,
            reboot_time: SimDuration::from_secs(30),
            node_base: 0,
            client_base: n,
        }
    }

    /// Places the group's replicas at `node_base` and its clients at
    /// `client_base` (groups sharing one network).
    pub fn with_placement(mut self, node_base: usize, client_base: usize) -> Self {
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

    /// The replica living at `node`; `None` for a node outside this
    /// group's replica range (a client, or another group's replica).
    pub fn replica_of(&self, node: NodeId) -> Option<usize> {
        let i = node.0.checked_sub(self.node_base)?;
        (i < self.n).then_some(i)
    }

    /// Simulator node of the client with protocol id `client` (client ids
    /// within a group's key directory start at `n`); `None` for a replica
    /// id, which names no client.
    pub fn client_node(&self, client: u32) -> Option<NodeId> {
        let j = (client as usize).checked_sub(self.n)?;
        Some(NodeId(self.client_base + j))
    }

    /// Highest sequence number the group accepts given stable checkpoint
    /// `h`.
    pub fn high_watermark(&self, h: u64) -> u64 {
        h + self.log_window
    }
}

/// Next view-change timeout during an escalating chase: double the current
/// value with saturating arithmetic, clamp to [`VIEW_CHANGE_TIMEOUT_CAP`],
/// and never fall below [`VIEW_CHANGE_TIMEOUT_BASE`]. A long
/// primary-chasing storm must neither overflow the timer nor push it so far
/// out the group effectively stops trying new views.
pub fn escalated_vc_timeout(current: SimDuration) -> SimDuration {
    current
        .saturating_mul(2)
        .min(VIEW_CHANGE_TIMEOUT_CAP)
        .max(VIEW_CHANGE_TIMEOUT_BASE)
}

/// A deterministic draw in `0..=max`, keyed by `seed` and `salt`: a
/// splitmix64 finalizer, so retries spread out without consuming the
/// simulator's RNG (which would shift every later draw of the run). Pure:
/// the same arguments always give the same value.
pub(crate) fn jitter(seed: u64, salt: u64, max: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x % (max + 1)
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
        assert_eq!(RTO, SimDuration::from_millis(150));
        assert_eq!(RTO_CEILING, SimDuration::from_secs(4));
        assert_eq!(VIEW_CHANGE_TIMEOUT_BASE, SimDuration::from_millis(500));
        assert_eq!(VIEW_CHANGE_TIMEOUT_CAP, SimDuration::from_secs(8));
        assert_eq!(BATCH_MAX, 16);
        assert_eq!(TICK_INTERVAL, SimDuration::from_millis(100));
        assert_eq!(crate::transfer::FETCH_WINDOW, 16);
    }

    #[test]
    fn default_layout_is_the_unsharded_one() {
        let c = Config::new(4);
        assert_eq!(c.replica_node(2), NodeId(2));
        assert_eq!(c.replica_of(NodeId(2)), Some(2));
        assert_eq!(c.replica_of(NodeId(4)), None);
        assert_eq!(c.client_node(4), Some(NodeId(4)));
        assert_eq!(c.client_node(6), Some(NodeId(6)));
        assert_eq!(c.client_node(2), None, "a replica id names no client");
    }

    #[test]
    fn sharded_layout_rebases_replicas_and_clients() {
        // Shard 1 of a 2-shard, n=4 deployment with 3 shared router
        // clients: replicas at 4..8, clients at 8..11.
        let c = Config::new(4).with_placement(4, 8);
        assert_eq!(c.replica_node(0), NodeId(4));
        assert_eq!(c.replica_node(3), NodeId(7));
        assert_eq!(c.replica_of(NodeId(7)), Some(3));
        assert_eq!(c.replica_of(NodeId(3)), None, "shard 0's replica");
        assert_eq!(c.replica_of(NodeId(8)), None, "a client");
        // Client protocol id 4 (first client of the group's directory)
        // lives at the first router node; id 6 at the third.
        assert_eq!(c.client_node(4), Some(NodeId(8)));
        assert_eq!(c.client_node(6), Some(NodeId(10)));
        assert_eq!(c.client_node(3), None);
    }

    #[test]
    fn vc_escalation_doubles_saturates_and_caps() {
        // Normal doubling from the base.
        let mut t = VIEW_CHANGE_TIMEOUT_BASE;
        for expect_ms in [1000, 2000, 4000, 8000] {
            t = escalated_vc_timeout(t);
            assert_eq!(t, SimDuration::from_millis(expect_ms));
        }
        // Pinned at the cap, however long the storm runs.
        for _ in 0..100 {
            t = escalated_vc_timeout(t);
            assert_eq!(t, VIEW_CHANGE_TIMEOUT_CAP);
        }

        // A timeout below the floor (a view's progress timer, `RTO`) is
        // pulled back up.
        let fast = escalated_vc_timeout(SimDuration::from_millis(100));
        assert_eq!(fast, VIEW_CHANGE_TIMEOUT_BASE);

        // Saturating arithmetic: a current value whose doubling overflows
        // clamps to the cap. Wrapping would give 0, which the floor would
        // pull up to the base.
        let huge = escalated_vc_timeout(SimDuration::from_nanos(u64::MAX / 2 + 1));
        assert_eq!(huge, VIEW_CHANGE_TIMEOUT_CAP);
        assert_ne!(huge, VIEW_CHANGE_TIMEOUT_BASE);
    }

    #[test]
    fn jitter_is_pure_and_bounded() {
        for salt in 0..256u64 {
            let j = jitter(42, salt, 75);
            assert!(j <= 75, "salt {salt} drew {j}");
            assert_eq!(j, jitter(42, salt, 75), "same arguments, same draw");
        }
        assert!((0..256u64).any(|salt| jitter(42, salt, 75) == 75), "the bound is reachable");
        assert_eq!(jitter(42, 7, 0), 0);
        assert_eq!(jitter(u64::MAX, u64::MAX, 0), 0);
        // Different seeds de-synchronize.
        assert!((0..64u64).any(|salt| jitter(42, salt, 1_000) != jitter(43, salt, 1_000)));
    }
}
