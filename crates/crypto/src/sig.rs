//! Simulated transferable signatures and the key directory.
//!
//! View-change and checkpoint certificates must be *transferable*: replica
//! `k` has to be able to verify a message that replica `i` authenticated
//! for replica `j`. MAC authenticators do not provide this, so PBFT uses
//! public-key signatures for these messages (in Castro's final library a
//! more intricate MAC-only protocol; see `DESIGN.md` §8).
//!
//! The allowed dependency set has no bignum/EC library, so signatures are
//! simulated: `sign(i, m) = HMAC(sig_secret_i, m)` and verification is
//! performed through the [`KeyDirectory`], which acts as a
//! simulation-trusted oracle. Unforgeability holds because actor code only
//! ever receives a [`crate::NodeKeys`] handle bound to its own id; nothing
//! in the protocol or fault-injection layers can produce a valid signature
//! for another node. Third-party verifiability holds because any handle can
//! verify any signer.
//!
//! The directory is also the table of pairwise session keys: all `n × n`
//! of them are derived when it is generated, and a node's key refresh
//! derives its column again under the new epoch, so a lookup is a bounds
//! check and a read.

use crate::census::count;
use crate::hmac::{hmac_sha256, verify_tag, HmacMidstate, HmacSha256};
use crate::keys::{SessionKey, SECRET_LEN};
use base_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};
use std::cell::Cell;
use std::rc::Rc;

/// Length of a signature in bytes.
pub const SIG_LEN: usize = 32;

/// A (simulated) signature.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; SIG_LEN]);

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({:02x}{:02x}…)", self.0[0], self.0[1])
    }
}

impl Default for Signature {
    /// The all-zero placeholder signature (never verifies).
    fn default() -> Self {
        Signature([0u8; SIG_LEN])
    }
}

impl XdrEncode for Signature {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque_fixed(&self.0);
    }
}

impl XdrDecode for Signature {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let bytes = dec.get_opaque_fixed(SIG_LEN)?;
        let mut out = [0u8; SIG_LEN];
        out.copy_from_slice(bytes);
        Ok(Signature(out))
    }
}

/// The key table of one simulated system, shared by `Rc`: the simulator
/// runs every node on one thread, so its mutable parts are `Cell`s.
struct Table {
    /// Per-node root secrets, generated deterministically from a seed.
    secrets: Vec<[u8; SECRET_LEN]>,
    /// Per-node HMAC key schedule of the signing key `secret ‖ "sig!"`,
    /// precomputed so a signature skips the two key-block compressions.
    /// It depends on the secret alone, so a key refresh leaves it as it is.
    sig_keys: Vec<HmacMidstate>,
    /// Per-node receive-key epochs, bumped by proactive recovery.
    epochs: Vec<Cell<u64>>,
    /// The `n × n` session keys, row = sender, column = receiver, each
    /// under its receiver's current epoch. Only ids below `n` index it: an
    /// id off a frame that names no node has no key.
    session: Vec<Cell<SessionKey>>,
}

impl Table {
    fn n(&self) -> usize {
        self.secrets.len()
    }
}

/// The key from `sender` to the receiver whose secret is `secret`, under
/// the receiver's `epoch`: the first 16 bytes of
/// `HMAC(secret_receiver, "sess" ‖ sender ‖ epoch)`.
fn derive(secret: &[u8; SECRET_LEN], sender: usize, epoch: u64) -> SessionKey {
    let mut msg = [0u8; 20];
    msg[..4].copy_from_slice(b"sess");
    msg[4..12].copy_from_slice(&(sender as u64).to_be_bytes());
    msg[12..].copy_from_slice(&epoch.to_be_bytes());
    let derived = hmac_sha256(secret, &msg);
    SessionKey(derived[..16].try_into().expect("sixteen of thirty-two bytes"))
}

/// The shared key infrastructure for one simulated system.
///
/// Cheaply clonable (an `Rc` internally); one directory is created per
/// simulation and a [`crate::NodeKeys`] handle is derived per node.
#[derive(Clone)]
pub struct KeyDirectory {
    table: Rc<Table>,
}

impl std::fmt::Debug for KeyDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeyDirectory(n={})", self.node_count())
    }
}

impl KeyDirectory {
    /// Generates a directory for `n` nodes from a deterministic seed.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut secrets = Vec::with_capacity(n);
        for i in 0..n {
            // Derive each node secret from the seed; the exact scheme only
            // needs to be deterministic and collision-free per node.
            let tag = hmac_sha256(&seed.to_be_bytes(), format!("node-secret-{i}").as_bytes());
            secrets.push(tag);
        }
        let sig_keys = secrets
            .iter()
            .map(|secret| HmacMidstate::new(&[&secret[..], b"sig!"].concat()))
            .collect();
        let session =
            (0..n * n).map(|slot| Cell::new(derive(&secrets[slot % n], slot / n, 0))).collect();
        let epochs = vec![Cell::new(0); n];
        Self { table: Rc::new(Table { secrets, sig_keys, epochs, session }) }
    }

    /// Number of nodes in the directory.
    pub fn node_count(&self) -> usize {
        self.table.n()
    }

    /// The session key authenticating traffic from `sender` to `receiver`
    /// (chosen by the receiver; depends on the receiver's epoch); `None`
    /// if either is not a node of this directory.
    pub(crate) fn session_key(&self, sender: usize, receiver: usize) -> Option<SessionKey> {
        let n = self.table.n();
        (sender < n && receiver < n).then(|| self.table.session[sender * n + receiver].get())
    }

    /// The session keys from `sender` to each receiver in `0..n` other
    /// than `sender` itself, in order: its row of the table.
    ///
    /// Panics if `sender` or a receiver is not a node of this directory
    /// (both come from the caller's configuration, not from a frame).
    pub(crate) fn keys_to(&self, sender: usize, n: usize) -> impl Iterator<Item = SessionKey> + '_ {
        let row = &self.table.session[sender * self.table.n()..][..n];
        let others = row.iter().enumerate().filter(move |(receiver, _)| *receiver != sender);
        others.map(|(_, key)| key.get())
    }

    /// Bumps `node`'s receive-key epoch (proactive-recovery key refresh)
    /// and derives every key for traffic to it under the new one.
    pub(crate) fn refresh(&self, node: usize) {
        let epoch = self.table.epochs[node].get() + 1;
        self.table.epochs[node].set(epoch);
        let n = self.table.n();
        for sender in 0..n {
            let key = derive(&self.table.secrets[node], sender, epoch);
            self.table.session[sender * n + node].set(key);
        }
    }

    /// `node`'s signature over `message`, or `None` for an unknown node.
    fn signature(&self, node: usize, message: &[u8]) -> Option<Signature> {
        let mut mac = HmacSha256::from_midstate(self.table.sig_keys.get(node)?);
        mac.update(message);
        Some(Signature(mac.finalize()))
    }

    /// Signs `message` as `node`.
    pub(crate) fn sign(&self, node: usize, message: &[u8]) -> Signature {
        count(|c| c.signs += 1);
        self.signature(node, message).expect("signer is a node of this directory")
    }

    /// Verifies that `sig` is `signer`'s signature over `message`.
    pub fn verify(&self, signer: usize, message: &[u8], sig: &Signature) -> bool {
        count(|c| c.sig_checks += 1);
        self.signature(signer, message)
            .is_some_and(|expected| verify_tag(&expected.0, &sig.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::NodeKeys;

    #[test]
    fn signatures_verify_for_any_party() {
        let dir = KeyDirectory::generate(4, 1);
        let signer = NodeKeys::new(dir.clone(), 2);
        let verifier = NodeKeys::new(dir, 0);
        let sig = signer.sign(b"view-change");
        assert!(verifier.verify(2, b"view-change", &sig));
    }

    #[test]
    fn signature_binds_signer() {
        let dir = KeyDirectory::generate(4, 1);
        let signer = NodeKeys::new(dir.clone(), 2);
        let verifier = NodeKeys::new(dir, 0);
        let sig = signer.sign(b"m");
        assert!(!verifier.verify(1, b"m", &sig));
    }

    #[test]
    fn signature_binds_message() {
        let dir = KeyDirectory::generate(4, 1);
        let signer = NodeKeys::new(dir.clone(), 2);
        let verifier = NodeKeys::new(dir, 0);
        let sig = signer.sign(b"m");
        assert!(!verifier.verify(2, b"m2", &sig));
    }

    proptest::proptest! {
        /// sign(i, m) is HMAC(secret_i ‖ "sig!", m), whatever is cached,
        /// and a key refresh does not change it.
        #[test]
        fn cached_sign_key_matches_the_definition(m: Vec<u8>, node in 0usize..3, seed: u64) {
            let dir = KeyDirectory::generate(3, seed);
            let keys = NodeKeys::new(dir.clone(), node);
            let mut key = dir.table.secrets[node].to_vec();
            key.extend_from_slice(b"sig!");
            let sig = keys.sign(&m);
            proptest::prop_assert_eq!(sig.0, hmac_sha256(&key, &m));
            keys.refresh();
            proptest::prop_assert_eq!(keys.sign(&m), sig);
            proptest::prop_assert!(NodeKeys::new(dir, (node + 1) % 3).verify(node, &m, &sig));
        }
    }

    #[test]
    fn out_of_range_signer_rejected() {
        let dir = KeyDirectory::generate(4, 1);
        let sig = Signature([0; SIG_LEN]);
        assert!(!dir.verify(99, b"m", &sig));
    }

    #[test]
    fn an_id_off_the_frame_has_no_key_and_grows_nothing() {
        use crate::{Authenticator, Digest};
        let dir = KeyDirectory::generate(4, 1);
        let (sender, receiver) = (NodeKeys::new(dir.clone(), 0), NodeKeys::new(dir.clone(), 1));
        let d = Digest::of(b"request");
        let auth = Authenticator::generate(&sender, 4, &d);
        assert!(auth.check(&receiver, 0, &d));
        // The table holds all n² keys from the start.
        let keys = |dir: &KeyDirectory| dir.table.session.iter().map(Cell::get).collect::<Vec<_>>();
        let before = keys(&dir);
        assert_eq!(before.len(), 16);
        // A frame may claim any sender: one past the directory, the id a
        // 32-bit field saturates at, or one whose row offset would wrap.
        for claimed in [4, 0xFFFF_FFFF, usize::MAX] {
            assert!(!auth.check(&receiver, claimed, &d), "sender {claimed}");
            let mac = Authenticator::point(&sender, 1, &d);
            assert!(!Authenticator::check_point(&receiver, claimed, &d, &mac), "sender {claimed}");
            assert!(receiver.key_from(claimed).is_none() && receiver.key_to(claimed).is_none());
            assert!(!receiver.verify(claimed, b"m", &Signature([0; SIG_LEN])));
        }
        assert_eq!(keys(&dir), before, "no key was derived or stored for a stranger");
    }

    #[test]
    fn distinct_seeds_give_distinct_keys() {
        let d1 = KeyDirectory::generate(2, 1);
        let d2 = KeyDirectory::generate(2, 2);
        let s1 = NodeKeys::new(d1, 0).sign(b"m");
        let s2 = NodeKeys::new(d2, 0).sign(b"m");
        assert_ne!(s1.0, s2.0);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let s1 = NodeKeys::new(KeyDirectory::generate(2, 7), 0).sign(b"m");
        let s2 = NodeKeys::new(KeyDirectory::generate(2, 7), 0).sign(b"m");
        assert_eq!(s1.0, s2.0);
    }
}
