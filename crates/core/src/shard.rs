//! Sharded multi-group BASE: the abstract object space is partitioned
//! across several *independent* replica groups, each running the full
//! unmodified agreement/checkpoint/recovery stack, with a deterministic
//! client-side router splitting requests by abstract-object footprint.
//!
//! The pieces:
//!
//! - [`ShardMap`]: a total, stable mapping from abstract object index to
//!   shard id — contiguous balanced ranges aligned with partition-tree
//!   subtree boundaries, so per-shard checkpoints stay hierarchical.
//! - [`ShardLockService`]: a service veneer adding the deterministic
//!   cross-shard commit protocol (`xprep`/`xcommit`/`xabort`) on top of
//!   any [`Service`]. Locks are ordinary replicated operations, so every
//!   correct replica of a shard holds the same lock table at the same
//!   sequence number — no extra agreement machinery is needed.
//! - [`ShardedClient`]: the router. Single-shard operations go directly
//!   to their group; cross-shard operations run a two-phase ordered
//!   commit (lock shards in ascending shard-id order, then commit on all;
//!   on conflict, release in reverse order, back off, retry).
//! - [`build_sharded_group`]: lays out `K` groups plus router clients on
//!   one deterministic simulation so the existing chaos/trace/bench
//!   tooling works unmodified.
//!
//! With `shards = 1` every path below degenerates to the unsharded
//! deployment *byte for byte*: every shard uses the one wire encoding
//! (groups are told apart by sender), and shard 0 keeps the default node
//! layout, the default retransmission-timer token and the
//! same key-directory seed, so event-for-event the simulation is the one
//! an unsharded [`crate::BaseClient`]/[`base_pbft::ClientActor`] run
//! produces (`tests/shard_equivalence.rs` enforces this).
//!
//! Consistency notes (also in `docs/DESIGN.md` §17): lock tables are
//! *conformance rep*, not abstract state — they are deliberately excluded
//! from checkpoints and cleared on checkpoint install and clean reboot. A
//! replica that state-transfers while locks are held may therefore briefly
//! disagree with its group about `xbusy` answers; at most `f` replicas can
//! be in that state at once (more would mean the group lost its quorum
//! entirely), so reply quorums of `f+1` mask the divergence and the next
//! state transfer repairs the replica. No conflicting `2f+1` checkpoint
//! certificate can form because lock state is never digested.

use crate::wrapper::Footprint;
use base_crypto::{KeyDirectory, NodeKeys};
use base_pbft::client::TOKEN_CLIENT_RETRANS;
use base_pbft::testing::COUNTER_REGS;
use base_pbft::{ClientCore, ClientEvent, Config, Deployment, ExecEnv, PartitionTree, Service};
use base_simnet::{Actor, Context, NodeId, Payload, SimDuration, Simulation};
use std::collections::{BTreeMap, VecDeque};

/// Timer token for the [`ShardedClient`] pump (same value as the
/// standalone client actors so the `shards = 1` schedule is identical).
const TOKEN_PUMP: u64 = (1 << 63) | 1;
/// Timer token for cross-shard commit retry backoff. Distinct from every
/// per-core retransmission token (those keep bit 63 set).
const TOKEN_XRETRY: u64 = 1 << 62;

/// A total, deterministic, balanced mapping from abstract object indices
/// to shard ids.
///
/// Shard `s` owns the contiguous index range [`ShardMap::range_of`]; the
/// ranges partition `0..n_objects` and differ in size by at most one.
/// Contiguity keeps each shard's objects inside whole partition-tree
/// subtrees, so per-shard hierarchical state transfer never straddles a
/// shard boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    n_objects: u64,
    shards: u32,
}

impl ShardMap {
    /// A map of `n_objects` abstract objects onto `shards` groups.
    pub fn new(n_objects: u64, shards: u32) -> Self {
        assert!(shards >= 1, "at least one shard");
        assert!(
            n_objects >= u64::from(shards),
            "need at least one object per shard"
        );
        Self { n_objects, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of abstract objects.
    pub fn n_objects(&self) -> u64 {
        self.n_objects
    }

    /// The shard owning abstract object `index`.
    pub fn shard_of(&self, index: u64) -> u32 {
        assert!(index < self.n_objects, "object index out of range");
        ((u128::from(index) * u128::from(self.shards)) / u128::from(self.n_objects)) as u32
    }

    /// The contiguous object-index range owned by `shard`.
    pub fn range_of(&self, shard: u32) -> std::ops::Range<u64> {
        assert!(shard < self.shards, "shard id out of range");
        let k = u128::from(self.shards);
        let n = u128::from(self.n_objects);
        let ceil = |a: u128| -> u64 { ((a + k - 1) / k) as u64 };
        ceil(u128::from(shard) * n)..ceil(u128::from(shard + 1) * n)
    }

    /// The sorted, deduplicated set of shards a footprint touches.
    pub fn shards_of(&self, fp: &Footprint) -> Vec<u32> {
        let mut out: Vec<u32> = fp
            .reads
            .iter()
            .chain(fp.writes.iter())
            .map(|&i| self.shard_of(i))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Builds an `xprep` operation: lock `inner`'s footprint under `txid`.
fn op_xprep(txid: &str, inner: &[u8]) -> Vec<u8> {
    let mut op = format!("xprep {txid} ").into_bytes();
    op.extend_from_slice(inner);
    op
}

/// Builds an `xcommit` operation: execute `inner` and release `txid`.
fn op_xcommit(txid: &str, inner: &[u8]) -> Vec<u8> {
    let mut op = format!("xcommit {txid} ").into_bytes();
    op.extend_from_slice(inner);
    op
}

/// Builds an `xabort` operation: release `txid` without executing.
fn op_xabort(txid: &str) -> Vec<u8> {
    format!("xabort {txid}").into_bytes()
}

/// Splits `op` as `<verb> <txid>[ <inner>]`, returning the transaction id
/// and the (possibly empty) inner operation bytes. Byte-exact: the inner
/// operation is passed through untouched, so non-UTF-8 payloads survive.
fn split_tx<'a>(op: &'a [u8], verb: &[u8]) -> Option<(String, &'a [u8])> {
    let rest = op.strip_prefix(verb)?;
    match rest.iter().position(|&b| b == b' ') {
        Some(i) => Some((
            String::from_utf8_lossy(&rest[..i]).into_owned(),
            &rest[i + 1..],
        )),
        None if rest.is_empty() => None,
        None => Some((String::from_utf8_lossy(rest).into_owned(), &[][..])),
    }
}

/// A [`Service`] veneer adding the cross-shard commit protocol on top of
/// any inner service.
///
/// Protocol operations (UTF-8 prefix, inner operation bytes verbatim):
///
/// - `xprep <txid> <inner>` — acquire a lock on `inner`'s footprint for
///   `txid`. Replies `xok` (granted, or already held by `txid` — the
///   re-grant makes retried preparations idempotent) or `xbusy`.
/// - `xcommit <txid> <inner>` — execute `inner` through the inner service
///   and release `txid`'s lock. Executes *unconditionally*: the commit
///   decision was already made by the router once every touched shard
///   granted its lock, and a replica whose lock table was cleared by a
///   checkpoint install must still apply the committed operation.
/// - `xabort <txid>` — release `txid`'s lock; replies `xok`.
/// - `xchaos <reg> <count>` — chaos campaigns only: arm `count` injected
///   lock refusals, consistently on every replica (the operation is
///   agreed like any other, so the refusals hit the same preparations
///   group-wide).
///
/// Ordinary operations that conflict with any held lock answer `xbusy`
/// without executing, so no client observes a cross-shard transaction's
/// partial effects. An operation with an unknown footprint (`None`)
/// conflicts with everything while any lock is held.
pub struct ShardLockService<S: Service> {
    inner: S,
    footprint_of: fn(&[u8]) -> Option<Footprint>,
    /// txid → locked footprint (`None` = whole-state lock).
    locks: BTreeMap<String, Option<Footprint>>,
    /// **Fault injection (chaos only):** the next `inject_busy` lock
    /// acquisitions are refused with `xbusy`, driving the router's
    /// abort/retry path on demand. Inject on a reply quorum of a shard's
    /// replicas, or `f+1` matching `xok` replies mask the refusals.
    pub inject_busy: u32,
    /// Lock acquisitions refused with `xbusy`.
    pub prepares_refused: u64,
    /// Transactions committed here.
    pub commits: u64,
}

impl<S: Service> ShardLockService<S> {
    /// Wraps `inner`, classifying operations with `footprint_of` (a pure
    /// function so every replica classifies identically).
    pub fn new(inner: S, footprint_of: fn(&[u8]) -> Option<Footprint>) -> Self {
        Self {
            inner,
            footprint_of,
            locks: BTreeMap::new(),
            inject_busy: 0,
            prepares_refused: 0,
            commits: 0,
        }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Number of transactions currently holding locks.
    pub fn held_locks(&self) -> usize {
        self.locks.len()
    }

    fn conflicts_with_held(&self, fp: Option<&Footprint>) -> bool {
        self.locks.values().any(|held| match (held, fp) {
            (None, _) | (_, None) => true,
            (Some(h), Some(f)) => h.conflicts_with(f),
        })
    }
}

impl<S: Service> Service for ShardLockService<S> {
    fn execute(
        &mut self,
        op: &[u8],
        client: u32,
        nondet: &[u8],
        read_only: bool,
        env: &mut ExecEnv<'_>,
    ) -> Vec<u8> {
        if let Some((txid, inner_op)) = split_tx(op, b"xprep ") {
            if read_only {
                return b"err".to_vec();
            }
            if self.locks.contains_key(&txid) {
                // Idempotent re-grant: a retried preparation (client
                // retransmission racing its own abort) is not a conflict.
                return b"xok".to_vec();
            }
            if self.inject_busy > 0 {
                self.inject_busy -= 1;
                self.prepares_refused += 1;
                return b"xbusy".to_vec();
            }
            let fp = (self.footprint_of)(inner_op);
            if self.conflicts_with_held(fp.as_ref()) {
                self.prepares_refused += 1;
                return b"xbusy".to_vec();
            }
            self.locks.insert(txid, fp);
            return b"xok".to_vec();
        }
        if let Some((txid, inner_op)) = split_tx(op, b"xcommit ") {
            if read_only {
                return b"err".to_vec();
            }
            self.locks.remove(&txid);
            self.commits += 1;
            return self.inner.execute(inner_op, client, nondet, false, env);
        }
        if let Some((txid, _)) = split_tx(op, b"xabort ") {
            if read_only {
                return b"err".to_vec();
            }
            self.locks.remove(&txid);
            return b"xok".to_vec();
        }
        if let Some(rest) = op.strip_prefix(b"xchaos " as &[u8]) {
            // Agreed fault injection: `xchaos <reg> <count>` arms `count`
            // lock refusals. Riding the replicated operation stream means
            // every replica arms the same count at the same sequence
            // number, so the injected aborts are consistent across the
            // group — unlike poking `inject_busy` on live replicas at
            // wall-clock instants, which lands between different
            // operations on different replicas. The register argument only
            // routes the operation to the target shard.
            if read_only {
                return b"err".to_vec();
            }
            let mut parts = std::str::from_utf8(rest).unwrap_or("").split_whitespace();
            let _routing_reg = parts.next();
            if let Some(count) = parts.next().and_then(|t| t.parse::<u32>().ok()) {
                self.inject_busy += count;
                return b"xok".to_vec();
            }
            return b"err".to_vec();
        }
        if !self.locks.is_empty() {
            let fp = (self.footprint_of)(op);
            if self.conflicts_with_held(fp.as_ref()) {
                return b"xbusy".to_vec();
            }
        }
        self.inner.execute(op, client, nondet, read_only, env)
    }

    // `execute_batch` is the trait default, sequential through `execute`:
    // every operation must pass the lock check.

    fn propose_nondet(&mut self, env: &mut ExecEnv<'_>) -> Vec<u8> {
        self.inner.propose_nondet(env)
    }

    fn check_nondet(&self, nondet: &[u8], env: &mut ExecEnv<'_>) -> bool {
        self.inner.check_nondet(nondet, env)
    }

    fn take_checkpoint(&mut self, seq: u64, env: &mut ExecEnv<'_>) -> base_crypto::Digest {
        // Locks are conformance rep, not abstract state: they are not
        // digested, so shards with different in-flight transactions still
        // agree on checkpoint roots for the same abstract state.
        self.inner.take_checkpoint(seq, env)
    }

    fn discard_checkpoints_below(&mut self, seq: u64) {
        self.inner.discard_checkpoints_below(seq);
    }

    fn checkpoint_meta(&self, seq: u64, level: u32, index: u64) -> Option<Vec<base_crypto::Digest>> {
        self.inner.checkpoint_meta(seq, level, index)
    }

    fn checkpoint_object(&mut self, seq: u64, index: u64) -> Option<Vec<u8>> {
        self.inner.checkpoint_object(seq, index)
    }

    fn current_tree(&self) -> &PartitionTree {
        self.inner.current_tree()
    }

    fn prepare_for_transfer(&mut self, env: &mut ExecEnv<'_>) {
        self.inner.prepare_for_transfer(env);
    }

    fn install_checkpoint(
        &mut self,
        seq: u64,
        root: base_crypto::Digest,
        objs: Vec<(u64, Option<Vec<u8>>)>,
        env: &mut ExecEnv<'_>,
    ) {
        // Conservative release: a replica jumping to a checkpoint cannot
        // know which locks were live at that sequence number. Dropping
        // them can make this replica answer `xok`/execute where its peers
        // say `xbusy`, but at most f replicas recover at once, so reply
        // quorums mask the divergence and state transfer repairs it.
        self.locks.clear();
        self.inner.install_checkpoint(seq, root, objs, env);
    }

    fn reboot(&mut self, clean: bool, env: &mut ExecEnv<'_>) {
        if clean {
            self.locks.clear();
        }
        self.inner.reboot(clean, env);
    }

    fn corrupt_state(&mut self, seed: u64) {
        self.inner.corrupt_state(seed);
    }
}

/// The abstract-object footprint of a [`base_pbft::testing::CounterService`]
/// text operation, for routing counter workloads across shards.
pub fn counter_footprint(op: &[u8]) -> Option<Footprint> {
    let text = std::str::from_utf8(op).ok()?;
    let mut parts = text.split_whitespace();
    match parts.next()? {
        "add" => {
            let reg: u64 = parts.next()?.parse().ok()?;
            (reg < COUNTER_REGS).then(|| Footprint::writes(vec![reg]))
        }
        "get" => {
            let reg: u64 = parts.next()?.parse().ok()?;
            (reg < COUNTER_REGS).then(|| Footprint::reads(vec![reg]))
        }
        "noop" => Some(Footprint::default()),
        // Chaos-only agreed injection (see [`ShardLockService`]): classified
        // as a write on its register argument so the router sends it to the
        // shard under test.
        "xchaos" => {
            let reg: u64 = parts.next()?.parse().ok()?;
            (reg < COUNTER_REGS).then(|| Footprint::writes(vec![reg]))
        }
        _ => None,
    }
}

#[derive(Debug)]
enum SubKind {
    /// A directly routed single-shard operation.
    Single { job: u64, op: Vec<u8>, read_only: bool },
    /// An `xprep` of the active cross-shard transaction.
    Prep { job: u64 },
    /// An `xcommit`; `pos` indexes the transaction's sub-operation list.
    Commit { job: u64, pos: usize },
    /// An `xabort` (fire-and-forget; the reply only drains the queue).
    Abort,
}

#[derive(Debug)]
struct CrossJob {
    job: u64,
    txid: String,
    /// `(shard, inner op)` pairs in ascending shard order — the global
    /// lock order that makes concurrent cross-shard transactions
    /// deadlock-free.
    subs: Vec<(u32, Vec<u8>)>,
    /// How many locks (a prefix of `subs`) are currently held.
    acquired: usize,
    replies: Vec<Option<Vec<u8>>>,
    attempts: u32,
}

/// The client-side shard router.
///
/// Hosts one [`ClientCore`] per replica group in a single actor — each
/// core runs its own closed loop with a distinct retransmission-timer
/// token, so requests to different shards proceed concurrently while this
/// actor stays single-threaded and deterministic.
///
/// [`ShardedClient::invoke`] routes an operation to the shard owning its
/// footprint. [`ShardedClient::invoke_cross`] runs a deterministic
/// two-phase ordered commit: `xprep` each touched shard in ascending
/// shard-id order; once all grant, `xcommit` on every shard concurrently
/// and merge the replies (ascending shard order, `;`-separated); on any
/// `xbusy`, `xabort` the acquired prefix in reverse order, back off with
/// deterministic jitter, and retry under the same transaction id.
pub struct ShardedClient {
    map: ShardMap,
    footprint_of: fn(&[u8]) -> Option<Footprint>,
    id: u32,
    cores: Vec<ClientCore>,
    /// Per-shard FIFO of submitted sub-operations; each core completes
    /// strictly in submission order, so the front entry labels the next
    /// completion.
    inflight: Vec<VecDeque<SubKind>>,
    cross: Option<CrossJob>,
    cross_queue: VecDeque<(u64, Vec<Vec<u8>>)>,
    next_job: u64,
    pace: SimDuration,
    retry_base: SimDuration,
    /// Completed invocations as `(invocation id, result)` pairs, in
    /// completion order. With one shard this is byte-identical to
    /// [`base_pbft::ClientActor::completed`].
    pub completed: Vec<(u64, Vec<u8>)>,
    /// Cross-shard lock rounds that hit `xbusy` and were rolled back.
    pub cross_aborts: u64,
    /// Single-shard operations refused by a lock and resubmitted.
    pub single_busy_retries: u64,
}

impl ShardedClient {
    /// Creates a router over `cfgs.len()` shards. `cfgs[s]` must be shard
    /// `s`'s configuration and `keys[s]` this client's identity in shard
    /// `s`'s key directory (the same local id in each).
    pub fn new(
        cfgs: Vec<Config>,
        keys: Vec<NodeKeys>,
        map: ShardMap,
        footprint_of: fn(&[u8]) -> Option<Footprint>,
    ) -> Self {
        assert_eq!(cfgs.len(), keys.len(), "one key set per shard");
        assert_eq!(cfgs.len(), map.shards() as usize, "one config per shard");
        let id = keys[0].id() as u32;
        let mut cores = Vec::with_capacity(cfgs.len());
        for (s, (cfg, k)) in cfgs.into_iter().zip(keys).enumerate() {
            assert_eq!(cfg.node_base, s * cfg.n, "configs must be in shard order");
            assert_eq!(k.id() as u32, id, "same local client id in every shard");
            let mut core = ClientCore::new(cfg, k);
            // Shard 0 keeps the default token, so a one-shard router's
            // timer schedule is identical to the standalone client's.
            core.set_retrans_token(TOKEN_CLIENT_RETRANS | ((s as u64) << 8));
            cores.push(core);
        }
        let shards = cores.len();
        Self {
            map,
            footprint_of,
            id,
            cores,
            inflight: (0..shards).map(|_| VecDeque::new()).collect(),
            cross: None,
            cross_queue: VecDeque::new(),
            next_job: 0,
            pace: SimDuration::from_millis(1),
            retry_base: SimDuration::from_millis(2),
            completed: Vec::new(),
            cross_aborts: 0,
            single_busy_retries: 0,
        }
    }

    /// Spaces pump ticks `gap` apart and disables auto-pumping (chaos
    /// campaigns spread the workload across the fault schedule this way).
    pub fn set_pace(&mut self, gap: SimDuration) {
        self.pace = gap;
        for core in &mut self.cores {
            core.auto_pump = false;
        }
    }

    /// The shard map in use.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The protocol core talking to `shard`.
    pub fn core(&self, shard: u32) -> &ClientCore {
        &self.cores[shard as usize]
    }

    /// Mutable access to `shard`'s protocol core.
    pub fn core_mut(&mut self, shard: u32) -> &mut ClientCore {
        &mut self.cores[shard as usize]
    }

    /// True when nothing is queued or in flight anywhere.
    pub fn idle(&self) -> bool {
        self.cross.is_none()
            && self.cross_queue.is_empty()
            && self.cores.iter().all(|c| !c.busy() && c.queued() == 0)
    }

    /// Invokes a single-shard operation. The operation's footprint must
    /// resolve (`Some`) and fall entirely inside one shard; operations
    /// with an empty footprint go to shard 0.
    pub fn invoke(&mut self, op: Vec<u8>, read_only: bool) {
        self.next_job += 1;
        let job = self.next_job;
        let shard = self.route_single(&op);
        self.submit_single(shard, job, op, read_only);
    }

    /// Invokes an atomic cross-shard transaction of write sub-operations,
    /// at most one per shard. The merged reply (inner replies in ascending
    /// shard order, `;`-separated) lands in [`ShardedClient::completed`].
    pub fn invoke_cross(&mut self, ops: Vec<Vec<u8>>) {
        assert!(!ops.is_empty(), "empty transaction");
        self.next_job += 1;
        let job = self.next_job;
        if self.cross.is_none() {
            self.start_cross(job, ops);
        } else {
            self.cross_queue.push_back((job, ops));
        }
    }

    fn route_single(&self, op: &[u8]) -> u32 {
        if self.map.shards() == 1 {
            return 0;
        }
        let fp = (self.footprint_of)(op)
            .expect("single-shard invoke needs a resolvable footprint");
        let shards = self.map.shards_of(&fp);
        assert!(
            shards.len() <= 1,
            "operation touches several shards; use invoke_cross"
        );
        shards.first().copied().unwrap_or(0)
    }

    fn submit_single(&mut self, shard: u32, job: u64, op: Vec<u8>, read_only: bool) {
        self.inflight[shard as usize].push_back(SubKind::Single {
            job,
            op: op.clone(),
            read_only,
        });
        self.cores[shard as usize].submit(op, read_only);
    }

    fn start_cross(&mut self, job: u64, ops: Vec<Vec<u8>>) {
        let mut subs: Vec<(u32, Vec<u8>)> = ops
            .into_iter()
            .map(|op| {
                let fp = (self.footprint_of)(&op)
                    .expect("cross-shard sub-operations need resolvable footprints");
                let shards = self.map.shards_of(&fp);
                assert!(
                    shards.len() <= 1,
                    "each sub-operation must live on a single shard"
                );
                (shards.first().copied().unwrap_or(0), op)
            })
            .collect();
        subs.sort_by_key(|(s, _)| *s);
        for w in subs.windows(2) {
            assert_ne!(w[0].0, w[1].0, "at most one sub-operation per shard");
        }
        let txid = format!("c{}.{}", self.id, job);
        let n_subs = subs.len();
        let (shard, op) = (subs[0].0, subs[0].1.clone());
        self.cross = Some(CrossJob {
            job,
            txid: txid.clone(),
            subs,
            acquired: 0,
            replies: vec![None; n_subs],
            attempts: 0,
        });
        self.inflight[shard as usize].push_back(SubKind::Prep { job });
        self.cores[shard as usize].submit(op_xprep(&txid, &op), false);
    }

    fn on_completion(&mut self, shard: usize, result: Vec<u8>, ctx: &mut Context<'_>) {
        let kind = self.inflight[shard]
            .pop_front()
            .expect("completion matches a tracked submission");
        match kind {
            SubKind::Single { job, op, read_only } => {
                if result == b"xbusy" {
                    // Refused by a cross-shard lock; resubmit (with a
                    // fresh timestamp) behind whatever is queued — by
                    // then the transaction has usually released it.
                    self.single_busy_retries += 1;
                    self.submit_single(shard as u32, job, op, read_only);
                } else {
                    self.completed.push((job, result));
                }
            }
            SubKind::Prep { job } => self.on_prep_reply(job, result, ctx),
            SubKind::Commit { job, pos } => self.on_commit_reply(job, pos, result),
            SubKind::Abort => {}
        }
    }

    fn on_prep_reply(&mut self, job: u64, result: Vec<u8>, ctx: &mut Context<'_>) {
        let Some(cross) = self.cross.as_mut() else { return };
        if cross.job != job {
            return;
        }
        if result == b"xok" {
            cross.acquired += 1;
            if cross.acquired == cross.subs.len() {
                // Every touched shard holds our lock: commit everywhere,
                // concurrently — commits cannot be refused.
                let txid = cross.txid.clone();
                let subs = cross.subs.clone();
                for (pos, (shard, op)) in subs.iter().enumerate() {
                    self.inflight[*shard as usize].push_back(SubKind::Commit { job, pos });
                    self.cores[*shard as usize].submit(op_xcommit(&txid, op), false);
                }
            } else {
                let i = cross.acquired;
                let (shard, op) = (cross.subs[i].0, cross.subs[i].1.clone());
                let txid = cross.txid.clone();
                self.inflight[shard as usize].push_back(SubKind::Prep { job });
                self.cores[shard as usize].submit(op_xprep(&txid, &op), false);
            }
        } else {
            // `xbusy`: release the acquired prefix in reverse order, then
            // back off and retry the whole lock round.
            self.cross_aborts += 1;
            cross.attempts += 1;
            let txid = cross.txid.clone();
            let held: Vec<u32> = cross.subs[..cross.acquired]
                .iter()
                .map(|(s, _)| *s)
                .rev()
                .collect();
            let attempts = cross.attempts;
            cross.acquired = 0;
            for shard in held {
                self.inflight[shard as usize].push_back(SubKind::Abort);
                self.cores[shard as usize].submit(op_xabort(&txid), false);
            }
            // Deterministic backoff with seeded jitter: routers contending
            // for the same locks de-synchronize without consuming the
            // simulator RNG.
            let base = self.retry_base.as_nanos();
            let shift = u64::from(attempts.min(5));
            let mut h = (u64::from(self.id) << 32) ^ job ^ (u64::from(attempts) << 17);
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            let delay = (base << shift) + h % (base / 2 + 1);
            ctx.set_timer(SimDuration::from_nanos(delay), TOKEN_XRETRY);
        }
    }

    fn retry_cross(&mut self) {
        let Some(cross) = self.cross.as_ref() else { return };
        debug_assert_eq!(cross.acquired, 0, "retry starts from a clean slate");
        let job = cross.job;
        let txid = cross.txid.clone();
        let (shard, op) = (cross.subs[0].0, cross.subs[0].1.clone());
        // Same txid: if a queued abort has not executed yet, the re-prep
        // lands behind it in the shard's FIFO; if it somehow raced ahead,
        // the idempotent re-grant makes the retry safe.
        self.inflight[shard as usize].push_back(SubKind::Prep { job });
        self.cores[shard as usize].submit(op_xprep(&txid, &op), false);
    }

    fn on_commit_reply(&mut self, job: u64, pos: usize, result: Vec<u8>) {
        let Some(cross) = self.cross.as_mut() else { return };
        if cross.job != job {
            return;
        }
        cross.replies[pos] = Some(result);
        if cross.replies.iter().all(Option::is_some) {
            let mut merged = Vec::new();
            for (i, r) in cross.replies.iter().enumerate() {
                if i > 0 {
                    merged.push(b';');
                }
                merged.extend_from_slice(r.as_ref().expect("all replies present"));
            }
            self.completed.push((job, merged));
            self.cross = None;
            if let Some((job, ops)) = self.cross_queue.pop_front() {
                self.start_cross(job, ops);
            }
        }
    }
}

impl Actor for ShardedClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for core in &mut self.cores {
            core.pump(ctx);
        }
        ctx.set_timer(self.pace, TOKEN_PUMP);
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        self.on_payload(from, &Payload::from(payload), ctx);
    }

    fn on_payload(&mut self, from: NodeId, payload: &Payload, ctx: &mut Context<'_>) {
        // Each core ignores a frame from outside its group before decoding
        // it, so only the sender's shard decodes a reply.
        for s in 0..self.cores.len() {
            if let Some(ClientEvent::Completed { result, .. }) =
                self.cores[s].on_payload(from, payload, ctx)
            {
                self.on_completion(s, result, ctx);
                return;
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if token == TOKEN_PUMP {
            for core in &mut self.cores {
                core.pump(ctx);
            }
            ctx.set_timer(self.pace, TOKEN_PUMP);
            return;
        }
        if token == TOKEN_XRETRY {
            self.retry_cross();
            return;
        }
        for core in &mut self.cores {
            if core.on_timer(token, ctx) {
                return;
            }
        }
    }
}

/// A freshly built sharded deployment on a simulation.
pub struct ShardedGroup {
    /// Per-shard configurations (shard `s` at index `s`).
    pub cfgs: Vec<Config>,
    /// Per-shard key directories.
    pub dirs: Vec<KeyDirectory>,
    /// Replica node ids, `replicas[shard][replica]`.
    pub replicas: Vec<Vec<NodeId>>,
    /// Router client node ids.
    pub clients: Vec<NodeId>,
    /// The object→shard map shared by every router.
    pub map: ShardMap,
}

/// Builds `map.shards()` independent replica groups of `cfg.n` replicas
/// each, plus `c` router clients, on one deterministic simulation.
///
/// Each shard is a [`Deployment`] (the layout rule is in `deploy.rs`) whose
/// configuration places its replicas at `s*n .. s*n+n`, in shard order, and
/// its clients at `K*n ..`, after every shard's replicas. Router `j` is
/// client `j` of every shard at once: one node holding key id `n+j` of each
/// shard's directory. Shard `s`'s directory is seeded from
/// `seed + s·0x9e3779b97f4a7c15`, so a one-shard build is byte-identical to
/// [`Deployment::build`] with the same seed.
pub fn build_sharded_group<S: Service>(
    sim: &mut Simulation,
    cfg: Config,
    map: ShardMap,
    c: usize,
    seed: u64,
    footprint_of: fn(&[u8]) -> Option<Footprint>,
    mut service: impl FnMut(u32, usize) -> S,
) -> ShardedGroup {
    let (n, shards) = (cfg.n, map.shards());
    let mut groups: Vec<Deployment> = (0..shards)
        .map(|s| {
            let scfg = cfg.clone().with_placement(s as usize * n, shards as usize * n);
            let sseed = seed.wrapping_add(u64::from(s).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut d = Deployment::new(scfg, c, sseed);
            for i in 0..n {
                d.replica(sim, service(s, i));
            }
            d
        })
        .collect();
    let clients = (0..c)
        .map(|_| {
            Deployment::shared_client(sim, &mut groups, |cfgs, keys| {
                ShardedClient::new(cfgs, keys, map.clone(), footprint_of)
            })
        })
        .collect();
    ShardedGroup {
        cfgs: groups.iter().map(|d| d.cfg.clone()).collect(),
        dirs: groups.iter().map(|d| d.dir.clone()).collect(),
        replicas: groups.iter().map(|d| d.replicas.iter().map(|r| r.node).collect()).collect(),
        clients,
        map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use base_pbft::testing::{op_add, op_get, CounterService};
    use base_pbft::Replica;
    use rand::SeedableRng;

    type LockedCounter = ShardLockService<CounterService>;

    fn env_rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn shard_map_is_total_balanced_and_contiguous() {
        for shards in [1u32, 2, 3, 4, 7] {
            let map = ShardMap::new(64, shards);
            let mut sizes = vec![0u64; shards as usize];
            let mut last = 0;
            for idx in 0..64 {
                let s = map.shard_of(idx);
                assert!(s < shards);
                assert!(s >= last, "shard assignment must be monotone");
                assert!(map.range_of(s).contains(&idx));
                sizes[s as usize] += 1;
                last = s;
            }
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced within one: {sizes:?}");
            assert_eq!(sizes.iter().sum::<u64>(), 64);
        }
    }

    #[test]
    fn shard_map_footprint_routing() {
        let map = ShardMap::new(64, 4);
        let fp = Footprint { reads: vec![0], writes: vec![63] };
        assert_eq!(map.shards_of(&fp), vec![0, 3]);
        assert_eq!(map.shards_of(&Footprint::default()), Vec::<u32>::new());
    }

    #[test]
    fn lock_service_grants_conflicts_and_releases() {
        let mut s = LockedCounter::new(CounterService::default(), counter_footprint);
        let mut rng = env_rng();
        let mut env = ExecEnv::new(0, &mut rng);
        let prep = op_xprep("t1", &op_add(3, 5));
        assert_eq!(s.execute(&prep, 9, &[], false, &mut env), b"xok");
        // Idempotent re-grant for the same transaction.
        assert_eq!(s.execute(&prep, 9, &[], false, &mut env), b"xok");
        // A conflicting transaction is refused...
        let prep2 = op_xprep("t2", &op_add(3, 1));
        assert_eq!(s.execute(&prep2, 9, &[], false, &mut env), b"xbusy");
        // ...a disjoint one is granted.
        let prep3 = op_xprep("t3", &op_add(7, 1));
        assert_eq!(s.execute(&prep3, 9, &[], false, &mut env), b"xok");
        // Ordinary ops respect the locks: reg 3 blocked, reg 5 free.
        assert_eq!(s.execute(&op_add(3, 1), 9, &[], false, &mut env), b"xbusy");
        assert_eq!(s.execute(&op_get(3), 9, &[], true, &mut env), b"xbusy");
        assert_eq!(s.execute(&op_add(5, 2), 9, &[], false, &mut env), b"2");
        // Commit executes the inner op and releases.
        let commit = op_xcommit("t1", &op_add(3, 5));
        assert_eq!(s.execute(&commit, 9, &[], false, &mut env), b"5");
        assert_eq!(s.execute(&op_get(3), 9, &[], true, &mut env), b"5");
        // Abort releases without executing.
        assert_eq!(s.execute(&op_xabort("t3"), 9, &[], false, &mut env), b"xok");
        assert_eq!(s.held_locks(), 0);
        assert_eq!(s.execute(&op_get(7), 9, &[], true, &mut env), b"0");
    }

    #[test]
    fn unknown_footprint_conflicts_with_everything() {
        let mut s = LockedCounter::new(CounterService::default(), counter_footprint);
        let mut rng = env_rng();
        let mut env = ExecEnv::new(0, &mut rng);
        assert_eq!(
            s.execute(&op_xprep("t1", &op_add(0, 1)), 9, &[], false, &mut env),
            b"xok"
        );
        // "noop" parses to an empty footprint: no conflict.
        assert_eq!(s.execute(b"noop", 9, &[], false, &mut env), b"ok");
        // An unparseable op conflicts with any held lock.
        assert_eq!(s.execute(b"bogus", 9, &[], false, &mut env), b"xbusy");
        // Locking an unparseable op takes a whole-state lock.
        assert_eq!(
            s.execute(&op_xabort("t1"), 9, &[], false, &mut env),
            b"xok"
        );
        assert_eq!(
            s.execute(&op_xprep("t2", b"bogus"), 9, &[], false, &mut env),
            b"xok"
        );
        assert_eq!(s.execute(&op_add(9, 1), 9, &[], false, &mut env), b"xbusy");
    }

    #[test]
    fn inject_busy_forces_refusals() {
        let mut s = LockedCounter::new(CounterService::default(), counter_footprint);
        let mut rng = env_rng();
        let mut env = ExecEnv::new(0, &mut rng);
        s.inject_busy = 1;
        assert_eq!(
            s.execute(&op_xprep("t1", &op_add(0, 1)), 9, &[], false, &mut env),
            b"xbusy"
        );
        assert_eq!(
            s.execute(&op_xprep("t1", &op_add(0, 1)), 9, &[], false, &mut env),
            b"xok"
        );
    }

    #[test]
    fn checkpoint_install_clears_locks() {
        let mut s = LockedCounter::new(CounterService::default(), counter_footprint);
        let mut rng = env_rng();
        let mut env = ExecEnv::new(0, &mut rng);
        assert_eq!(
            s.execute(&op_xprep("t1", &op_add(0, 1)), 9, &[], false, &mut env),
            b"xok"
        );
        let root = s.take_checkpoint(8, &mut env);
        s.install_checkpoint(8, root, Vec::new(), &mut env);
        assert_eq!(s.held_locks(), 0);
        // Commit after install still executes (unconditional by design).
        assert_eq!(
            s.execute(&op_xcommit("t1", &op_add(0, 1)), 9, &[], false, &mut env),
            b"1"
        );
    }

    #[test]
    fn locks_do_not_change_checkpoint_roots() {
        let mut a = LockedCounter::new(CounterService::default(), counter_footprint);
        let mut b = LockedCounter::new(CounterService::default(), counter_footprint);
        let mut rng = env_rng();
        let mut env = ExecEnv::new(0, &mut rng);
        a.execute(&op_add(1, 4), 9, &[], false, &mut env);
        b.execute(&op_add(1, 4), 9, &[], false, &mut env);
        assert_eq!(
            a.execute(&op_xprep("t9", &op_add(2, 1)), 9, &[], false, &mut env),
            b"xok"
        );
        assert_eq!(
            a.take_checkpoint(4, &mut env),
            b.take_checkpoint(4, &mut env),
            "lock tables are conformance rep, never digested"
        );
    }

    #[test]
    fn two_shard_group_serves_disjoint_and_cross_shard_work() {
        let mut sim = Simulation::new(4242);
        let map = ShardMap::new(COUNTER_REGS, 2);
        let group = build_sharded_group(
            &mut sim,
            Config::new(4),
            map.clone(),
            1,
            7,
            counter_footprint,
            |_, _| LockedCounter::new(CounterService::default(), counter_footprint),
        );
        assert_eq!(group.replicas.len(), 2);
        assert_eq!(group.replicas[1][0], NodeId(4));
        assert_eq!(group.clients[0], NodeId(8));
        {
            let router = sim
                .actor_as_mut::<ShardedClient>(group.clients[0])
                .unwrap();
            // Reg 1 lives on shard 0, reg 12 on shard 1.
            assert_eq!(map.shard_of(1), 0);
            assert_eq!(map.shard_of(12), 1);
            router.invoke(op_add(1, 10), false);
            router.invoke(op_add(12, 30), false);
            // Atomic cross-shard transfer-like transaction.
            router.invoke_cross(vec![op_add(1, 5), op_add(12, 5)]);
            router.invoke(op_get(1), true);
            router.invoke(op_get(12), true);
        }
        sim.run_for(SimDuration::from_secs(3));
        let router = sim.actor_as::<ShardedClient>(group.clients[0]).unwrap();
        assert!(router.idle(), "all invocations must finish");
        let by_job: BTreeMap<u64, Vec<u8>> = router.completed.iter().cloned().collect();
        assert_eq!(by_job[&1], b"10");
        assert_eq!(by_job[&2], b"30");
        assert_eq!(by_job[&3], b"15;35", "merged commit replies, shard order");
        // The read-only gets are concurrent with the cross-shard
        // transaction; either serialization is linearizable, but a torn
        // read (one pre-, one post-commit per shard in the *wrong*
        // direction) can never happen because reads respect the locks.
        assert!(by_job[&4] == b"10" || by_job[&4] == b"15", "{:?}", by_job[&4]);
        assert!(by_job[&5] == b"30" || by_job[&5] == b"35", "{:?}", by_job[&5]);
        // Both shards executed agreement independently.
        for s in 0..2 {
            let rep = sim
                .actor_as::<Replica<LockedCounter>>(group.replicas[s][0])
                .unwrap();
            assert!(rep.service().inner().executed > 0, "shard {s} executed");
            assert_eq!(rep.service().held_locks(), 0, "no lock leaked");
        }
    }

    #[test]
    fn contending_cross_shard_transactions_retry_to_completion() {
        let mut sim = Simulation::new(991);
        let map = ShardMap::new(COUNTER_REGS, 2);
        let group = build_sharded_group(
            &mut sim,
            Config::new(4),
            map,
            2,
            11,
            counter_footprint,
            |_, _| LockedCounter::new(CounterService::default(), counter_footprint),
        );
        // Both routers hit the same two registers from opposite sides.
        for &cl in &group.clients {
            let router = sim.actor_as_mut::<ShardedClient>(cl).unwrap();
            for _ in 0..3 {
                router.invoke_cross(vec![op_add(0, 1), op_add(15, 1)]);
            }
        }
        sim.run_for(SimDuration::from_secs(10));
        let mut aborts = 0;
        for &cl in &group.clients {
            let router = sim.actor_as::<ShardedClient>(cl).unwrap();
            assert!(router.idle(), "contended transactions must all commit");
            assert_eq!(router.completed.len(), 3);
            aborts += router.cross_aborts;
        }
        let _ = aborts; // contention may or may not materialize; both fine
        // Every transaction committed exactly once on each shard: 6 adds.
        let rep = sim
            .actor_as::<Replica<LockedCounter>>(group.replicas[0][1])
            .unwrap();
        assert_eq!(rep.service().inner().value(0), 6);
        let rep = sim
            .actor_as::<Replica<LockedCounter>>(group.replicas[1][1])
            .unwrap();
        assert_eq!(rep.service().inner().value(15), 6);
    }
}
