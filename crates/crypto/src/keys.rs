//! Per-node key material and pairwise session keys.
//!
//! PBFT authenticates point-to-point traffic with symmetric session keys:
//! the key authenticating traffic *from* sender `i` *to* receiver `j` is
//! chosen by the receiver and refreshed periodically (and on proactive
//! recovery, so that MACs forged with old compromised keys stop verifying).
//!
//! In this reproduction the key-exchange handshake is replaced by
//! deterministic derivation through the [`crate::KeyDirectory`]: the session
//! key is the first 16 bytes of `HMAC(secret_j, "sess" || i || epoch_j)`.
//! Refreshing a node's epoch invalidates every key other nodes used to
//! authenticate traffic to it, exactly the property proactive recovery
//! needs. HMAC derives the key; the tags under it are SipHash-2-4
//! ([`crate::auth`]).

use crate::sig::KeyDirectory;

/// Length of a node's root secret in bytes.
pub const SECRET_LEN: usize = 32;

/// A node's root secret. Wrapped in a struct so it never appears in
/// `Debug` output of containing types.
#[derive(Clone, PartialEq, Eq)]
pub struct KeyPair {
    pub(crate) secret: [u8; SECRET_LEN],
}

impl std::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeyPair(…)")
    }
}

impl KeyPair {
    /// Creates a key pair from raw secret bytes.
    pub fn from_secret(secret: [u8; SECRET_LEN]) -> Self {
        Self { secret }
    }
}

/// A pairwise symmetric session key: the 128-bit key of the SipHash-2-4
/// tags in an authenticator. Sixteen bytes and `Copy`, so a lookup in the
/// directory hands one out by value.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SessionKey(pub(crate) [u8; 16]);

impl std::fmt::Debug for SessionKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SessionKey(…)")
    }
}

/// A node's handle onto the key infrastructure.
///
/// The handle is bound to one node id: it can only sign as that node and
/// only derive session keys that node is legitimately a party to. Handing
/// each simulated actor a `NodeKeys` (rather than the whole directory)
/// keeps even deliberately-Byzantine actor code from forging other nodes'
/// authentication.
#[derive(Debug, Clone)]
pub struct NodeKeys {
    dir: KeyDirectory,
    id: usize,
}

impl NodeKeys {
    /// Creates the handle for node `id`.
    pub fn new(dir: KeyDirectory, id: usize) -> Self {
        Self { dir, id }
    }

    /// The node id this handle is bound to.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Session key for authenticating messages this node *sends to* `to`;
    /// `None` if `to` is not a node of the directory.
    pub fn key_to(&self, to: usize) -> Option<SessionKey> {
        self.dir.session_key(self.id, to)
    }

    /// Calls `f` with `key_to(j)` for each `j` in `0..n`, in order, in one
    /// visit to the directory.
    pub(crate) fn for_each_key_to(&self, n: usize, f: impl FnMut(&SessionKey)) {
        self.dir.for_each_key_to(self.id, n, f);
    }

    /// Session key for verifying messages this node *receives from* `from`;
    /// `None` if `from` — typically an id read from the frame being
    /// verified — is not a node of the directory.
    pub fn key_from(&self, from: usize) -> Option<SessionKey> {
        self.dir.session_key(from, self.id)
    }

    /// Signs `message` as this node (simulated signature; see [`crate::sig`]).
    pub fn sign(&self, message: &[u8]) -> crate::sig::Signature {
        self.dir.sign(self.id, message)
    }

    /// Verifies a signature allegedly produced by `signer` over `message`.
    pub fn verify(&self, signer: usize, message: &[u8], sig: &crate::sig::Signature) -> bool {
        self.dir.verify(signer, message, sig)
    }

    /// Refreshes this node's receive-keys (proactive recovery key refresh).
    ///
    /// After this call, every session key previously derived by other nodes
    /// for traffic *to* this node stops verifying.
    pub fn refresh(&self) {
        self.dir.refresh(self.id);
    }

    /// Total number of nodes registered in the directory.
    pub fn node_count(&self) -> usize {
        self.dir.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> KeyDirectory {
        KeyDirectory::generate(4, 42)
    }

    #[test]
    fn a_session_key_is_sixteen_bytes() {
        // A SipHash key and nothing beside it: no cached key schedule.
        assert_eq!(std::mem::size_of::<SessionKey>(), 16);
    }

    #[test]
    fn sender_and_receiver_agree_on_session_key() {
        let d = dir();
        let a = NodeKeys::new(d.clone(), 0);
        let b = NodeKeys::new(d, 1);
        assert_eq!(a.key_to(1), b.key_from(0));
    }

    #[test]
    fn directions_use_distinct_keys() {
        let d = dir();
        let a = NodeKeys::new(d, 0);
        assert_ne!(a.key_to(1), a.key_from(1));
    }

    #[test]
    fn distinct_pairs_use_distinct_keys() {
        let d = dir();
        let a = NodeKeys::new(d, 0);
        assert_ne!(a.key_to(1), a.key_to(2));
    }

    #[test]
    fn refresh_invalidates_inbound_keys() {
        let d = dir();
        let a = NodeKeys::new(d.clone(), 0);
        let b = NodeKeys::new(d, 1);
        let before = a.key_to(1);
        b.refresh();
        assert_ne!(a.key_to(1), before);
        // Sender and receiver still agree after the refresh.
        assert_eq!(a.key_to(1), b.key_from(0));
    }

    #[test]
    fn refresh_does_not_affect_outbound_keys() {
        let d = dir();
        let b = NodeKeys::new(d, 1);
        let before = b.key_to(0);
        b.refresh();
        assert_eq!(b.key_to(0), before);
    }
}
