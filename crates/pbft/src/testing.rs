//! Test doubles shared by unit tests, integration tests and the bench lab:
//! the counter service and its operations (a group of them is built with
//! [`crate::deploy::Deployment::build`]), and a [`RemoteCheckpoint`] that
//! answers state-transfer fetches as a correct replica would.

use crate::messages::{Message, MetaReplyMsg, ObjectReplyMsg};
use crate::service::{ExecEnv, Service};
use crate::transfer::{checkpoint_digest, META_ROOT_LEVEL, REPLIES_INDEX};
use crate::tree::{leaf_digest, PartitionTree};
use base_crypto::Digest;
use std::collections::BTreeMap;

/// Number of registers in [`CounterService`].
pub const COUNTER_REGS: u64 = 16;

/// A deterministic register-bank service for protocol tests.
///
/// State: [`COUNTER_REGS`] `u64` registers, each one abstract object
/// (8-byte big-endian encoding; a zero register is an *absent* object).
///
/// Text operation format:
/// - `add <reg> <delta>` → adds, replies with the new value in decimal;
/// - `get <reg>` → replies with the value in decimal;
/// - `noop` → replies `ok`.
pub struct CounterService {
    values: Vec<u64>,
    tree: PartitionTree,
    checkpoints: BTreeMap<u64, (Vec<u64>, PartitionTree)>,
    /// Execution counter (visible to tests).
    pub executed: u64,
}

impl Default for CounterService {
    fn default() -> Self {
        Self {
            values: vec![0; COUNTER_REGS as usize],
            tree: PartitionTree::new(COUNTER_REGS, 4),
            checkpoints: BTreeMap::new(),
            executed: 0,
        }
    }
}

impl CounterService {
    /// Current value of register `reg`.
    pub fn value(&self, reg: usize) -> u64 {
        self.values[reg]
    }

    /// Directly corrupts a register without updating digests (models a
    /// software-error-corrupted concrete state for repair experiments).
    pub fn corrupt_register(&mut self, reg: usize, value: u64) {
        self.values[reg] = value;
    }

    fn set_reg(&mut self, reg: usize, value: u64) {
        self.values[reg] = value;
        let digest = if value == 0 {
            Digest::ZERO
        } else {
            leaf_digest(reg as u64, &value.to_be_bytes())
        };
        self.tree.set_leaf(reg as u64, digest);
    }

    /// Recomputes every leaf digest from the concrete register values.
    /// This is where latent corruption (from [`Service::corrupt_state`] or
    /// [`CounterService::corrupt_register`]) surfaces as a digest mismatch
    /// that state transfer can then repair.
    fn refresh_digests(&mut self) {
        for reg in 0..self.values.len() {
            self.set_reg(reg, self.values[reg]);
        }
    }
}

/// Builds an `add` operation.
pub fn op_add(reg: u64, delta: u64) -> Vec<u8> {
    format!("add {reg} {delta}").into_bytes()
}

/// Builds a `get` operation.
pub fn op_get(reg: u64) -> Vec<u8> {
    format!("get {reg}").into_bytes()
}

impl Service for CounterService {
    fn execute(
        &mut self,
        op: &[u8],
        _client: u32,
        _nondet: &[u8],
        read_only: bool,
        _env: &mut ExecEnv<'_>,
    ) -> Vec<u8> {
        self.executed += 1;
        let text = String::from_utf8_lossy(op);
        let mut parts = text.split_whitespace();
        match parts.next() {
            Some("add") if !read_only => {
                let reg: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                let delta: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                if reg < self.values.len() {
                    let v = self.values[reg].wrapping_add(delta);
                    self.set_reg(reg, v);
                    return v.to_string().into_bytes();
                }
                b"err".to_vec()
            }
            Some("get") => {
                let reg: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                match self.values.get(reg) {
                    Some(v) => v.to_string().into_bytes(),
                    None => b"err".to_vec(),
                }
            }
            Some("noop") => b"ok".to_vec(),
            _ => b"err".to_vec(),
        }
    }

    fn take_checkpoint(&mut self, seq: u64, _env: &mut ExecEnv<'_>) -> Digest {
        self.checkpoints.insert(seq, (self.values.clone(), self.tree.clone()));
        self.tree.root_digest()
    }

    fn discard_checkpoints_below(&mut self, seq: u64) {
        self.checkpoints = self.checkpoints.split_off(&seq);
    }

    fn checkpoint_meta(&self, seq: u64, level: u32, index: u64) -> Option<Vec<Digest>> {
        self.checkpoints.get(&seq).and_then(|(_, tree)| tree.children_digests(level, index))
    }

    fn checkpoint_object(&mut self, seq: u64, index: u64) -> Option<Vec<u8>> {
        let (values, _) = self.checkpoints.get(&seq)?;
        let v = *values.get(index as usize)?;
        if v == 0 {
            None
        } else {
            Some(v.to_be_bytes().to_vec())
        }
    }

    fn current_tree(&self) -> &PartitionTree {
        &self.tree
    }

    fn install_checkpoint(
        &mut self,
        seq: u64,
        root: Digest,
        objs: Vec<(u64, Option<Vec<u8>>)>,
        _env: &mut ExecEnv<'_>,
    ) {
        for (idx, value) in objs {
            let v = match value {
                Some(bytes) if bytes.len() == 8 => {
                    u64::from_be_bytes(bytes.as_slice().try_into().expect("checked length"))
                }
                Some(_) => 0,
                None => 0,
            };
            if (idx as usize) < self.values.len() {
                self.set_reg(idx as usize, v);
            }
        }
        debug_assert_eq!(self.tree.root_digest(), root, "installed state must match");
        self.checkpoints.insert(seq, (self.values.clone(), self.tree.clone()));
    }

    fn prepare_for_transfer(&mut self, _env: &mut ExecEnv<'_>) {
        self.refresh_digests();
    }

    fn reboot(&mut self, clean: bool, _env: &mut ExecEnv<'_>) {
        if clean {
            self.values = vec![0; COUNTER_REGS as usize];
            self.tree = PartitionTree::new(COUNTER_REGS, 4);
            self.checkpoints.clear();
        } else {
            // Warm reboot: the concrete state survives; re-derive the
            // abstract digests from it so any corruption becomes visible
            // to the state-transfer comparison.
            self.refresh_digests();
        }
    }

    fn corrupt_state(&mut self, seed: u64) {
        // Flip one register to a seed-derived garbage value. Digests are
        // deliberately left stale (latent fault).
        let reg = (seed % COUNTER_REGS) as usize;
        self.corrupt_register(reg, seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    }
}

/// A stable checkpoint held by a correct replica, for driving a
/// [`crate::transfer::Fetcher`] without a network: the partition tree over
/// the object values, the values, and the reply-cache blob.
pub struct RemoteCheckpoint {
    /// The partition tree over `objects`.
    pub tree: PartitionTree,
    /// Object values by index; `None` is an absent object.
    pub objects: Vec<Option<Vec<u8>>>,
    /// The reply cache, fetched as object [`REPLIES_INDEX`].
    pub replies_blob: Vec<u8>,
}

impl RemoteCheckpoint {
    /// `capacity` objects under a `branching`-ary tree, of which `values`
    /// (index, bytes) are live.
    pub fn new<V: AsRef<[u8]>>(
        capacity: u64,
        branching: u32,
        values: impl IntoIterator<Item = (u64, V)>,
        replies_blob: &[u8],
    ) -> Self {
        let mut tree = PartitionTree::new(capacity, branching);
        let mut objects = vec![None; capacity as usize];
        for (i, v) in values {
            tree.set_leaf(i, leaf_digest(i, v.as_ref()));
            objects[i as usize] = Some(v.as_ref().to_vec());
        }
        Self { tree, objects, replies_blob: replies_blob.to_vec() }
    }

    /// The checkpoint digest a fetch of this checkpoint verifies against.
    pub fn composite(&self) -> Digest {
        checkpoint_digest(&self.tree.root_digest(), &Digest::of(&self.replies_blob))
    }

    /// Answers one fetch query the way a correct replica would; `None` for
    /// a node or object it does not hold, or a message that is no query.
    pub fn serve(&self, msg: &Message) -> Option<Message> {
        match msg {
            Message::FetchMeta(m) => Some(Message::MetaReply(MetaReplyMsg {
                seq: m.seq,
                level: m.level,
                index: m.index,
                digests: if m.level == META_ROOT_LEVEL {
                    vec![self.tree.root_digest(), Digest::of(&self.replies_blob)]
                } else {
                    self.tree.children_digests(m.level, m.index)?
                },
                replica: 0,
            })),
            Message::FetchObject(m) => Some(Message::ObjectReply(ObjectReplyMsg {
                seq: m.seq,
                index: m.index,
                data: if m.index == REPLIES_INDEX {
                    self.replies_blob.clone()
                } else {
                    self.objects.get(m.index as usize)?.clone()?
                },
                replica: 0,
            })),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn env_rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn counter_ops() {
        let mut s = CounterService::default();
        let mut rng = env_rng();
        let mut env = ExecEnv::new(0, &mut rng);
        assert_eq!(s.execute(b"add 3 5", 9, &[], false, &mut env), b"5");
        assert_eq!(s.execute(b"add 3 2", 9, &[], false, &mut env), b"7");
        assert_eq!(s.execute(b"get 3", 9, &[], true, &mut env), b"7");
        assert_eq!(s.execute(b"noop", 9, &[], false, &mut env), b"ok");
        assert_eq!(s.execute(b"bogus", 9, &[], false, &mut env), b"err");
        // Mutations via `add` are refused on the read-only path.
        assert_eq!(s.execute(b"add 3 1", 9, &[], true, &mut env), b"err");
    }

    #[test]
    fn checkpoint_and_install_round_trip() {
        let mut a = CounterService::default();
        let mut b = CounterService::default();
        let mut rng = env_rng();
        let mut env = ExecEnv::new(0, &mut rng);
        a.execute(b"add 0 10", 1, &[], false, &mut env);
        a.execute(b"add 7 3", 1, &[], false, &mut env);
        let root = a.take_checkpoint(128, &mut env);

        // Transfer every differing object to b.
        let mut objs = Vec::new();
        for i in 0..COUNTER_REGS {
            if a.current_tree().leaf_digest_at(i) != b.current_tree().leaf_digest_at(i) {
                objs.push((i, a.checkpoint_object(128, i)));
            }
        }
        b.install_checkpoint(128, root, objs, &mut env);
        assert_eq!(b.value(0), 10);
        assert_eq!(b.value(7), 3);
        assert_eq!(b.current_tree().root_digest(), root);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = CounterService::default();
        let mut b = CounterService::default();
        let mut rng = env_rng();
        let mut env = ExecEnv::new(0, &mut rng);
        for op in [b"add 1 4".as_slice(), b"add 2 9", b"add 1 1"] {
            assert_eq!(
                a.execute(op, 1, &[], false, &mut env),
                b.execute(op, 1, &[], false, &mut env)
            );
        }
        assert_eq!(
            a.take_checkpoint(1, &mut env),
            b.take_checkpoint(1, &mut env),
            "same history must digest identically"
        );
    }

    #[test]
    fn corruption_is_latent_until_refresh() {
        let mut s = CounterService::default();
        let mut rng = env_rng();
        let mut env = ExecEnv::new(0, &mut rng);
        s.execute(b"add 2 7", 1, &[], false, &mut env);
        let clean_root = s.current_tree().root_digest();

        s.corrupt_state(2);
        assert_ne!(s.value(2), 7, "corruption must hit the concrete state");
        assert_eq!(
            s.current_tree().root_digest(),
            clean_root,
            "corruption is latent: digests must be stale"
        );

        // A warm reboot recomputes digests and surfaces the damage.
        s.reboot(false, &mut env);
        assert_ne!(s.current_tree().root_digest(), clean_root);
    }

    #[test]
    fn clean_reboot_resets_state() {
        let mut s = CounterService::default();
        let mut rng = env_rng();
        let mut env = ExecEnv::new(0, &mut rng);
        s.execute(b"add 0 10", 1, &[], false, &mut env);
        let fresh_root = CounterService::default().current_tree().root_digest();
        s.reboot(true, &mut env);
        assert_eq!(s.value(0), 0);
        assert_eq!(s.current_tree().root_digest(), fresh_root);
    }
}
