//! The footprint contract: two KV operations whose `kv_footprint`s do not
//! conflict commute. The shard router routes by footprint and
//! `ShardLockService` answers `xbusy` only to an operation whose footprint
//! meets a held lock, so both rely on an operation never touching — in its
//! reply or in the abstract state — anything its footprint leaves out.
//!
//! Property: any order of a batch that keeps every conflicting pair in
//! batch order (an operation without a footprint conflicts with
//! everything) gives the per-operation replies and the checkpoint root of
//! batch order.

use base::demo::{kv_footprint, KvWrapper, TinyKv};
use base::BaseService;
use base_crypto::Digest;
use base_pbft::{ExecEnv, Service};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One generated KV operation, rendered to the wrapper's text format.
#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Get(u8),
    Del(u8),
    Mtime(u8),
    /// A verb the wrapper answers `err` to: no footprint.
    Junk(u8),
}

impl Op {
    fn render(&self) -> Vec<u8> {
        match self {
            Op::Put(k, v) => format!("put k{k} v{v}").into_bytes(),
            Op::Get(k) => format!("get k{k}").into_bytes(),
            Op::Del(k) => format!("del k{k}").into_bytes(),
            Op::Mtime(k) => format!("mtime k{k}").into_bytes(),
            Op::Junk(k) => format!("frob k{k}").into_bytes(),
        }
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..12, any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        3 => (0u8..12).prop_map(Op::Get),
        2 => (0u8..12).prop_map(Op::Del),
        2 => (0u8..12).prop_map(Op::Mtime),
        1 => (0u8..12).prop_map(Op::Junk),
    ]
}

/// Whether `a` and `b` may not be reordered.
fn conflict(a: &[u8], b: &[u8]) -> bool {
    match (kv_footprint(a), kv_footprint(b)) {
        (Some(fa), Some(fb)) => fa.conflicts_with(&fb),
        _ => true,
    }
}

/// A schedule of `ops` that keeps every conflicting pair in batch order:
/// at each step `picks` chooses among the operations whose conflicting
/// predecessors have all run.
fn conflict_respecting_order(ops: &[Vec<u8>], picks: &[usize]) -> Vec<usize> {
    let mut done = vec![false; ops.len()];
    let mut order = Vec::with_capacity(ops.len());
    for step in 0..ops.len() {
        let ready: Vec<usize> = (0..ops.len())
            .filter(|&i| !done[i] && (0..i).all(|j| done[j] || !conflict(&ops[j], &ops[i])))
            .collect();
        let next = ready[picks[step % picks.len()] % ready.len()];
        done[next] = true;
        order.push(next);
    }
    order
}

fn service() -> BaseService<KvWrapper> {
    BaseService::new(KvWrapper::new(TinyKv::default()))
}

const NONDET: [u8; 8] = 5_000u64.to_be_bytes();

/// Runs the batch through [`Service::execute_batch`]: (replies, root).
fn run_in_batch_order(ops: &[Vec<u8>]) -> (Vec<Vec<u8>>, Digest) {
    let mut svc = service();
    let batch: Vec<(&[u8], u32)> = ops.iter().map(|o| (o.as_slice(), 7u32)).collect();
    let mut rng = StdRng::seed_from_u64(42);
    let mut env = ExecEnv::new(1_000, &mut rng);
    let replies = svc.execute_batch(&batch, &NONDET, &mut env);
    let root = svc.take_checkpoint(8, &mut env);
    (replies, root)
}

/// Runs the operations one at a time in `order`: replies by batch
/// position, and the root.
fn run_in(ops: &[Vec<u8>], order: &[usize]) -> (Vec<Vec<u8>>, Digest) {
    let mut svc = service();
    let mut rng = StdRng::seed_from_u64(42);
    let mut env = ExecEnv::new(1_000, &mut rng);
    let mut replies = vec![Vec::new(); ops.len()];
    for &i in order {
        replies[i] = svc.execute(&ops[i], 7, &NONDET, false, &mut env);
    }
    let root = svc.take_checkpoint(8, &mut env);
    (replies, root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn conflict_respecting_orders_match_batch_order(
        ops in proptest::collection::vec(arb_op(), 1..24),
        picks in proptest::collection::vec(any::<usize>(), 1..24),
    ) {
        let ops: Vec<Vec<u8>> = ops.iter().map(Op::render).collect();
        let order = conflict_respecting_order(&ops, &picks);
        let (want_replies, want_root) = run_in_batch_order(&ops);
        let (replies, root) = run_in(&ops, &order);
        prop_assert_eq!(replies, want_replies, "order {:?}", order);
        prop_assert_eq!(root, want_root, "order {:?}", order);
    }
}
