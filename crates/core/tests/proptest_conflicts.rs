//! Property tests for the conflict-footprint partitioner of the execution
//! stage: grouped execution must be indistinguishable from sequential
//! execution (same replies, same abstract state), groups must never share
//! a declared object, and the grouping itself must be deterministic — the
//! scheduler can never become a nondeterminism source.

use base::demo::{KvWrapper, TinyKv};
use base::service::conflict_groups;
use base::{BaseService, Footprint, Wrapper};
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
}

impl Op {
    fn render(&self) -> Vec<u8> {
        match self {
            Op::Put(k, v) => format!("put k{k} v{v}").into_bytes(),
            Op::Get(k) => format!("get k{k}").into_bytes(),
            Op::Del(k) => format!("del k{k}").into_bytes(),
            Op::Mtime(k) => format!("mtime k{k}").into_bytes(),
        }
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12, any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        (0u8..12).prop_map(Op::Get),
        (0u8..12).prop_map(Op::Del),
        (0u8..12).prop_map(Op::Mtime),
    ]
}

fn arb_batch() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 1..24)
}

/// Runs `ops` as one batch through [`Service::execute_batch`]; returns
/// (replies, checkpoint root).
fn run_batched(ops: &[Op], nondet: &[u8]) -> (Vec<Vec<u8>>, base_crypto::Digest) {
    let mut svc = BaseService::new(KvWrapper::new(TinyKv::default()));
    let rendered: Vec<Vec<u8>> = ops.iter().map(Op::render).collect();
    let batch: Vec<(&[u8], u32)> = rendered.iter().map(|o| (o.as_slice(), 7u32)).collect();
    let mut rng = StdRng::seed_from_u64(42);
    let mut env = ExecEnv::new(1_000, &mut rng);
    let replies = svc.execute_batch(&batch, nondet, &mut env);
    let root = svc.take_checkpoint(8, &mut env);
    (replies, root)
}

/// Runs `ops` one at a time in order (the sequential baseline).
fn run_sequential(ops: &[Op], nondet: &[u8]) -> (Vec<Vec<u8>>, base_crypto::Digest) {
    let mut svc = BaseService::new(KvWrapper::new(TinyKv::default()));
    let mut rng = StdRng::seed_from_u64(42);
    let mut env = ExecEnv::new(1_000, &mut rng);
    let replies: Vec<Vec<u8>> =
        ops.iter().map(|op| svc.execute(&op.render(), 7, nondet, false, &mut env)).collect();
    let root = svc.take_checkpoint(8, &mut env);
    (replies, root)
}

fn footprints_of(ops: &[Op]) -> Vec<Option<Footprint>> {
    let w = KvWrapper::new(TinyKv::default());
    ops.iter().map(|op| w.footprint(&op.render())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Conflict-grouped batch execution produces exactly the replies and
    /// abstract state of sequential in-order execution.
    #[test]
    fn grouped_execution_matches_sequential(ops in arb_batch()) {
        let nondet = 5_000u64.to_be_bytes();
        let (seq_replies, seq_root) = run_sequential(&ops, &nondet);
        let (replies, root) = run_batched(&ops, &nondet);
        prop_assert_eq!(replies, seq_replies, "replies diverged");
        prop_assert_eq!(root, seq_root, "abstract state diverged");
    }

    /// Two operations placed in different groups never share a declared
    /// object with a write on either side — and an op with no declared
    /// footprint (the conservative default) is never separated from
    /// anything.
    #[test]
    fn groups_never_share_objects(ops in arb_batch()) {
        let fps = footprints_of(&ops);
        let groups = conflict_groups(&fps);
        // Every index appears exactly once.
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..ops.len()).collect::<Vec<_>>());
        for (gi, ga) in groups.iter().enumerate() {
            for gb in groups.iter().skip(gi + 1) {
                for &i in ga {
                    for &j in gb {
                        match (&fps[i], &fps[j]) {
                            (Some(a), Some(b)) => prop_assert!(
                                !a.conflicts_with(b),
                                "ops {} and {} conflict but were separated",
                                i,
                                j
                            ),
                            _ => prop_assert!(
                                false,
                                "op without a footprint must conflict with everything"
                            ),
                        }
                    }
                }
            }
        }
    }

    /// The grouping is a pure function of the footprints: recomputing it
    /// (and recomputing the footprints themselves) yields the identical
    /// partition, and members stay in batch order.
    #[test]
    fn grouping_is_deterministic(ops in arb_batch()) {
        let fps = footprints_of(&ops);
        let a = conflict_groups(&fps);
        let b = conflict_groups(&footprints_of(&ops));
        prop_assert_eq!(&a, &b);
        for group in &a {
            prop_assert!(group.windows(2).all(|w| w[0] < w[1]), "batch order inside a group");
        }
        // Groups are ordered by their smallest member.
        let heads: Vec<usize> = a.iter().map(|g| g[0]).collect();
        prop_assert!(heads.windows(2).all(|w| w[0] < w[1]), "groups ordered by first member");
    }
}
