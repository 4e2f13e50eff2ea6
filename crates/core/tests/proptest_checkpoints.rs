//! Property tests for the BASE checkpoint machinery: copy-on-write
//! reverse-delta records must reproduce exactly the abstract state that
//! existed at every retained checkpoint, for arbitrary operation schedules.
//! Values are drawn on both sides of the rule that lets a pre-image share a
//! value instead of copying it, so records hold plain and spliced
//! pre-images alike.

use base::demo::{KvWrapper, TinyKv, N_SLOTS};
use base::wrapper::SHARED_RUN_HANDLE;
use base::{BaseService, Wrapper as _};
use base_pbft::tree::leaf_digest;
use base_pbft::{ExecEnv, Service};
use base_crypto::Digest;
use proptest::prelude::*;
use rand::SeedableRng;

/// One scripted operation: a put of `len` copies of one letter, or a
/// delete.
#[derive(Debug, Clone)]
enum Op {
    Put { key: u8, len: usize, letter: u8 },
    Del(u8),
}

/// Value lengths up to the shared-run handle (copied into a pre-image),
/// past it (shared), and 1 KiB plus one to three bytes, so that each XDR
/// padding length follows a shared run.
fn value_len() -> impl Strategy<Value = usize> {
    prop_oneof![0..=SHARED_RUN_HANDLE, SHARED_RUN_HANDLE + 1..=64, 1025usize..=1027]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..20, value_len(), 0u8..26).prop_map(|(key, len, letter)| Op::Put { key, len, letter }),
        (0u8..20).prop_map(Op::Del),
    ]
}

fn apply(svc: &mut BaseService<KvWrapper>, op: &Op, rng: &mut rand::rngs::StdRng, i: u64) {
    let op_bytes = match op {
        Op::Put { key, len, letter } => {
            format!("put key{key} {}", char::from(b'a' + letter).to_string().repeat(*len))
        }
        Op::Del(k) => format!("del key{k}"),
    };
    let nondet = (1000 + i).to_be_bytes().to_vec();
    let mut env = ExecEnv::new(7777, rng);
    svc.execute(op_bytes.as_bytes(), 1, &nondet, false, &mut env);
}

/// Reads the full abstract state (slot values) a service would serve for
/// checkpoint `seq`.
fn checkpoint_state(svc: &mut BaseService<KvWrapper>, seq: u64) -> Vec<Option<Vec<u8>>> {
    (0..N_SLOTS)
        .map(|s| {
            // Serve the object the way state transfer would: via digests
            // first (absent objects are never requested), falling back to
            // checkpoint_object.
            svc.checkpoint_object(seq, s)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the operation schedule and checkpoint positions, the values
    /// served for an old checkpoint equal the state that existed when the
    /// checkpoint was taken.
    #[test]
    fn reverse_deltas_reproduce_history(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        ckpt_every in 3usize..10,
        seed: u64,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut svc = BaseService::new(KvWrapper::new(TinyKv::default()));

        // Expected snapshots: full abstract state captured eagerly at each
        // checkpoint (the expensive strategy the COW records replace).
        let mut expected: Vec<(u64, Vec<Option<Vec<u8>>>)> = Vec::new();
        let mut roots: Vec<(u64, Digest)> = Vec::new();

        for (i, op) in ops.iter().enumerate() {
            apply(&mut svc, op, &mut rng, i as u64);
            if (i + 1) % ckpt_every == 0 {
                let seq = (i + 1) as u64;
                // Capture ground truth BEFORE taking the checkpoint.
                let truth: Vec<Option<Vec<u8>>> = {
                    let w = svc.wrapper_mut();
                    (0..N_SLOTS).map(|s| w.get_obj(s)).collect()
                };
                let mut env = ExecEnv::new(0, &mut rng);
                let root = svc.take_checkpoint(seq, &mut env);
                expected.push((seq, truth));
                roots.push((seq, root));
            }
        }

        // Every retained checkpoint must be reproducible.
        for (seq, truth) in &expected {
            let served = checkpoint_state(&mut svc, *seq);
            prop_assert_eq!(&served, truth, "checkpoint {} diverged", seq);
        }

        // The tree snapshots must be consistent with the served objects.
        for (seq, root) in &roots {
            let mut leaves = base_pbft::PartitionTree::new(N_SLOTS, 16);
            for (s, value) in checkpoint_state(&mut svc, *seq).iter().enumerate() {
                if let Some(v) = value {
                    leaves.set_leaf(s as u64, leaf_digest(s as u64, v));
                }
            }
            prop_assert_eq!(leaves.root_digest(), *root, "tree for checkpoint {} diverged", seq);
        }
    }

    /// Discarding old checkpoints never affects newer ones.
    #[test]
    fn discard_preserves_newer_checkpoints(
        ops in proptest::collection::vec(op_strategy(), 20..50),
        seed: u64,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut svc = BaseService::new(KvWrapper::new(TinyKv::default()));
        let mut truths = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut svc, op, &mut rng, i as u64);
            if (i + 1) % 5 == 0 {
                let truth: Vec<Option<Vec<u8>>> = {
                    let w = svc.wrapper_mut();
                    (0..N_SLOTS).map(|s| w.get_obj(s)).collect()
                };
                let mut env = ExecEnv::new(0, &mut rng);
                svc.take_checkpoint((i + 1) as u64, &mut env);
                truths.push(((i + 1) as u64, truth));
            }
        }
        prop_assume!(truths.len() >= 2);
        let cut = truths[truths.len() / 2].0;
        svc.discard_checkpoints_below(cut);
        for (seq, truth) in truths.iter().filter(|(s, _)| *s >= cut) {
            prop_assert_eq!(&checkpoint_state(&mut svc, *seq), truth);
        }
        // Discarded checkpoints are gone.
        for (seq, _) in truths.iter().filter(|(s, _)| *s < cut) {
            prop_assert!(svc.checkpoint_meta(*seq, 1, 0).is_none());
        }
    }
}
