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

use crate::census::count;
use crate::hmac::{hmac_sha256, verify_tag, HmacMidstate, HmacSha256};
use crate::keys::{SessionKey, SECRET_LEN};
use base_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};
use std::sync::{Arc, RwLock};

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

struct Inner {
    /// Per-node root secrets, generated deterministically from a seed.
    secrets: Vec<[u8; SECRET_LEN]>,
    /// Per-node HMAC key schedule of the signing key `secret ‖ "sig!"`,
    /// precomputed so a signature skips the two key-block compressions.
    /// It depends on the secret alone, so a key refresh leaves it as it is.
    sig_keys: Vec<HmacMidstate>,
    /// Per-node receive-key epochs, bumped by proactive recovery.
    epochs: Vec<u64>,
    /// Memoized session keys: an `n × n` table, row = sender, column =
    /// receiver, filled on first use. A refresh empties the receiver's
    /// column, so every entry is under its receiver's current epoch. Only
    /// ids below `n` index it: an id off a frame that names no node has no
    /// key, and asking allocates nothing.
    session: Vec<Option<SessionKey>>,
}

impl Inner {
    /// Index of the `sender → receiver` key, if both are nodes.
    fn slot(&self, sender: usize, receiver: usize) -> Option<usize> {
        let n = self.secrets.len();
        (sender < n && receiver < n).then(|| sender * n + receiver)
    }
}

/// The shared key infrastructure for one simulated system.
///
/// Cheaply clonable (an `Arc` internally); one directory is created per
/// simulation and a [`crate::NodeKeys`] handle is derived per node.
#[derive(Clone)]
pub struct KeyDirectory {
    inner: Arc<RwLock<Inner>>,
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
        Self {
            inner: Arc::new(RwLock::new(Inner {
                secrets,
                sig_keys,
                epochs: vec![0; n],
                session: vec![None; n * n],
            })),
        }
    }

    /// Number of nodes in the directory.
    pub fn node_count(&self) -> usize {
        self.inner.read().expect("key directory poisoned").secrets.len()
    }

    /// Current receive-key epoch of `node`.
    pub fn epoch(&self, node: usize) -> u64 {
        self.inner.read().expect("key directory poisoned").epochs[node]
    }

    /// Derives the session key authenticating traffic from `sender` to
    /// `receiver` (chosen by the receiver; depends on the receiver's epoch);
    /// `None` if either is not a node of this directory. Memoized, so under
    /// a stable epoch the HMAC derivation is paid once per pair.
    pub(crate) fn session_key(&self, sender: usize, receiver: usize) -> Option<SessionKey> {
        let slot = {
            let inner = self.inner.read().expect("key directory poisoned");
            let slot = inner.slot(sender, receiver)?;
            if let Some(key) = inner.session[slot] {
                return Some(key);
            }
            slot
        };
        let mut inner = self.inner.write().expect("key directory poisoned");
        let mut msg = [0u8; 20];
        msg[..4].copy_from_slice(b"sess");
        msg[4..12].copy_from_slice(&(sender as u64).to_be_bytes());
        msg[12..].copy_from_slice(&inner.epochs[receiver].to_be_bytes());
        let derived = hmac_sha256(&inner.secrets[receiver], &msg);
        let key = SessionKey(derived[..16].try_into().expect("sixteen of thirty-two bytes"));
        inner.session[slot] = Some(key);
        Some(key)
    }

    /// Calls `f` with the session key from `sender` to each receiver in
    /// `0..n` other than `sender` itself, in order, holding the read lock
    /// across all of them (a multicast authenticator needs every one of
    /// its sender's keys).
    ///
    /// Panics if `sender` or a receiver is not a node of this directory
    /// (both come from the caller's configuration, not from a frame).
    pub(crate) fn for_each_key_to(&self, sender: usize, n: usize, mut f: impl FnMut(&SessionKey)) {
        let mut inner = self.inner.read().expect("key directory poisoned");
        let mut receiver = 0;
        while receiver < n {
            if receiver == sender {
                receiver += 1;
                continue;
            }
            let slot = inner.slot(sender, receiver).expect("receivers are nodes");
            match &inner.session[slot] {
                Some(key) => {
                    f(key);
                    receiver += 1;
                }
                None => {
                    // First use under this epoch: derive and memoize it
                    // under the write lock, then carry on reading.
                    drop(inner);
                    self.session_key(sender, receiver);
                    inner = self.inner.read().expect("key directory poisoned");
                }
            }
        }
    }

    /// Bumps `node`'s receive-key epoch (proactive-recovery key refresh),
    /// dropping every cached session key for traffic to it.
    pub(crate) fn refresh(&self, node: usize) {
        let mut inner = self.inner.write().expect("key directory poisoned");
        inner.epochs[node] += 1;
        let n = inner.secrets.len();
        for sender in 0..n {
            inner.session[sender * n + node] = None;
        }
    }

    /// `node`'s signature over `message`, or `None` for an unknown node.
    fn signature(&self, node: usize, message: &[u8]) -> Option<Signature> {
        let inner = self.inner.read().expect("key directory poisoned");
        let mut mac = HmacSha256::from_midstate(inner.sig_keys.get(node)?);
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
            let mut key = dir.inner.read().unwrap().secrets[node].to_vec();
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
        let cached = |dir: &KeyDirectory| {
            let inner = dir.inner.read().unwrap();
            (inner.session.len(), inner.session.iter().flatten().count())
        };
        let before = cached(&dir);
        assert_eq!(before.0, 16);
        // A frame may claim any sender: one past the directory, the id a
        // 32-bit field saturates at, or one whose row offset would wrap.
        for claimed in [4, 0xFFFF_FFFF, usize::MAX] {
            assert!(!auth.check(&receiver, claimed, &d), "sender {claimed}");
            let mac = Authenticator::point(&sender, 1, &d);
            assert!(!Authenticator::check_point(&receiver, claimed, &d, &mac), "sender {claimed}");
            assert!(receiver.key_from(claimed).is_none() && receiver.key_to(claimed).is_none());
            assert!(!receiver.verify(claimed, b"m", &Signature([0; SIG_LEN])));
        }
        assert_eq!(cached(&dir), before, "no key was derived or cached for a stranger");
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
