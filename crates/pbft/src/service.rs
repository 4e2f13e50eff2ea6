//! The service interface between the replication library and the
//! application (or the BASE abstraction layer).

use crate::tree::PartitionTree;
use base_crypto::Digest;
use base_simnet::SimDuration;
use rand::rngs::StdRng;

/// Execution environment handed to service upcalls.
///
/// Carries the replica's local clock and deterministic RNG (the sources of
/// implementation non-determinism the BASE methodology must mask) and
/// accumulates simulated CPU charges back into the simulator.
pub struct ExecEnv<'a> {
    /// The replica's *local* clock in nanoseconds (true time + skew).
    pub local_clock_ns: u64,
    /// Per-replica deterministic RNG.
    pub rng: &'a mut StdRng,
    charged: SimDuration,
}

impl<'a> ExecEnv<'a> {
    /// Creates an environment.
    pub fn new(local_clock_ns: u64, rng: &'a mut StdRng) -> Self {
        Self { local_clock_ns, rng, charged: SimDuration::ZERO }
    }

    /// Charges simulated CPU time for work done in the upcall.
    pub fn charge(&mut self, d: SimDuration) {
        self.charged += d;
    }

    /// Total charged so far.
    pub fn charged(&self) -> SimDuration {
        self.charged
    }
}

/// A replicated service, as seen by the replication protocol.
///
/// Implementations must be deterministic given the same operation sequence
/// and `nondet` values: any internal non-determinism (clocks, RNG,
/// allocation order) must either be hidden behind this interface (the BASE
/// approach — see the `base` crate) or absent (the classic BFT
/// requirement).
///
/// Checkpoint/state-transfer model: the service state is an array of
/// objects summarized by a [`PartitionTree`] of digests. The service stores
/// checkpoints keyed by sequence number until told to discard them, serves
/// partition metadata and object values for stored checkpoints, and can
/// install a set of objects to jump its current state to a checkpoint.
pub trait Service: 'static {
    /// Executes one operation and returns the reply bytes.
    fn execute(
        &mut self,
        op: &[u8],
        client: u32,
        nondet: &[u8],
        read_only: bool,
        env: &mut ExecEnv<'_>,
    ) -> Vec<u8>;

    /// Executes a committed batch and returns one reply per operation, in
    /// batch order. `ops` pairs each operation's bytes with its client id.
    ///
    /// Runs the batch in order through [`Service::execute`]. No service in
    /// `crates/` overrides it; `benchmark/src/trace.rs` does, to time the
    /// batch as one span. An override must give the replies and state of
    /// exactly this.
    fn execute_batch(
        &mut self,
        ops: &[(&[u8], u32)],
        nondet: &[u8],
        env: &mut ExecEnv<'_>,
    ) -> Vec<Vec<u8>> {
        ops.iter().map(|(op, client)| self.execute(op, *client, nondet, false, env)).collect()
    }

    /// Does nothing and is called by nothing in `crates/`: the execution
    /// stage has one executor. It exists only because
    /// `benchmark/src/trace.rs:456` overrides it to forward to the wrapped
    /// service, and goes when that override does (ROADMAP item 2).
    fn set_exec_workers(&mut self, workers: usize) {
        let _ = workers;
    }

    /// Does nothing and is called by nothing in `crates/`: every leaf
    /// digest is the whole-object `tree::leaf_digest` (DESIGN.md §16). It
    /// exists only because `benchmark/src/trace.rs:460` overrides it to
    /// forward to the wrapped service, and goes when that override does
    /// (ROADMAP item 2).
    fn set_chunk_size(&mut self, bytes: usize) {
        let _ = bytes;
    }

    /// Returns `None` and is called by nothing in `crates/`: an object is
    /// fetched whole from a stored checkpoint, never pieced together from
    /// the current value. It exists only because
    /// `benchmark/src/trace.rs:464` overrides it to forward to the wrapped
    /// service, and goes when that override does (ROADMAP item 2).
    fn transfer_object(&mut self, index: u64) -> Option<Vec<u8>> {
        let _ = index;
        None
    }

    /// Called at the primary to choose non-deterministic values for a
    /// batch (e.g. the operation timestamp).
    fn propose_nondet(&mut self, env: &mut ExecEnv<'_>) -> Vec<u8> {
        let _ = env;
        Vec::new()
    }

    /// Called at backups to validate the primary's proposal.
    fn check_nondet(&self, nondet: &[u8], env: &mut ExecEnv<'_>) -> bool {
        let _ = env;
        nondet.is_empty()
    }

    /// Records a checkpoint of the current state at `seq` and returns its
    /// root digest.
    fn take_checkpoint(&mut self, seq: u64, env: &mut ExecEnv<'_>) -> Digest;

    /// Discards stored checkpoints with sequence numbers below `seq`.
    fn discard_checkpoints_below(&mut self, seq: u64);

    /// Child digests of partition-tree node (`level`, `index`) in stored
    /// checkpoint `seq`, or `None` if that checkpoint is not stored.
    fn checkpoint_meta(&self, seq: u64, level: u32, index: u64) -> Option<Vec<Digest>>;

    /// Value of object `index` in stored checkpoint `seq`.
    fn checkpoint_object(&mut self, seq: u64, index: u64) -> Option<Vec<u8>>;

    /// Partition tree of the *current* state (used by a fetching replica to
    /// decide which partitions are out of date).
    fn current_tree(&self) -> &PartitionTree;

    /// Called once before a state transfer begins fetching: the service
    /// must make [`Service::current_tree`] reflect the true current state
    /// (services that maintain digests lazily refresh them here).
    fn prepare_for_transfer(&mut self, env: &mut ExecEnv<'_>) {
        let _ = env;
    }

    /// Installs `objs` so the current state becomes stored checkpoint
    /// (`seq`, `root`); the service should also record it as a stored
    /// checkpoint. Each entry is `(index, Some(value))` for a changed
    /// object or `(index, None)` for an object absent in the checkpoint.
    /// Called with the complete set of objects that differ, so the abstract
    /// state moves to a consistent checkpoint value in one call (the
    /// `put_objs` guarantee from the paper).
    fn install_checkpoint(
        &mut self,
        seq: u64,
        root: Digest,
        objs: Vec<(u64, Option<Vec<u8>>)>,
        env: &mut ExecEnv<'_>,
    );

    /// Proactive recovery reboot hook. `clean` selects the paper's
    /// restart-from-clean-concrete-state mode; otherwise the concrete state
    /// survives and only stale/corrupt objects will be repaired.
    fn reboot(&mut self, clean: bool, env: &mut ExecEnv<'_>) {
        let _ = (clean, env);
    }

    /// Fault-injection hook ([`ByzMode::CorruptState`]): silently flips
    /// some concrete state derived from `seed` *without* refreshing the
    /// digests in [`Service::current_tree`]. The corruption is latent — it
    /// must only surface when digests are recomputed (e.g. by
    /// [`Service::prepare_for_transfer`] during proactive recovery), at
    /// which point state transfer repairs the damaged objects. The default
    /// is a no-op for services with no corruptible representation.
    ///
    /// [`ByzMode::CorruptState`]: crate::byzantine::ByzMode::CorruptState
    fn corrupt_state(&mut self, seed: u64) {
        let _ = seed;
    }
}
