//! Cryptographic substrate for the BASE reproduction.
//!
//! The BFT/BASE libraries authenticate every protocol message and digest
//! every abstract-state object. The allowed dependency set contains no
//! crypto crates, so this crate implements the primitives from scratch:
//!
//! - [`sha256`]: FIPS 180-4 SHA-256 (one-shot and incremental), validated
//!   against the official test vectors. Compresses with the CPU's SHA
//!   extensions where it has them.
//! - [`hmac`]: HMAC-SHA256 (RFC 2104), validated against RFC 4231 vectors.
//!   Derives session keys and stands in for signatures; no authenticator
//!   tag is an HMAC.
//! - `siphash`: SipHash-2-4 over input of any length, the authenticator's
//!   tag, validated against the SipHash paper's vector and `std`'s
//!   SipHasher.
//! - [`digest`]: the 32-byte [`Digest`] type used throughout the system.
//! - [`auth`]: PBFT-style *authenticators* — vectors of pairwise 8-byte
//!   MACs, one per receiver — used for normal-case point-to-point and
//!   multicast authentication.
//! - [`census`]: per-thread counts of the signatures and tags made and
//!   checked, which tier-1 pins for one replicated write.
//! - [`keys`]: per-node key material, pairwise session-key derivation, and
//!   the key-refresh used by proactive recovery.
//! - [`fec`]: systematic Reed–Solomon erasure coding over GF(2⁸); called
//!   by nothing in `crates/`, kept for two `benchmark/` kernels.
//! - [`sig`]: transferable signatures for view-change and checkpoint
//!   certificates. These are *simulated*: signing is HMAC under the
//!   signer's private key, and verification goes through a
//!   simulation-trusted [`sig::KeyDirectory`] oracle. The substitution is
//!   documented in `DESIGN.md` §5 — it preserves unforgeability and
//!   third-party verifiability, the two properties the protocol relies on,
//!   without importing a bignum library.
//!
//! Nothing in this crate is intended for production use outside the
//! simulation; it exists so the reproduction exercises *real* hashing and
//! MAC computation on every message, making CPU-cost measurements
//! meaningful.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod auth;
pub mod census;
pub mod digest;
pub mod fec;
pub mod hmac;
pub mod keys;
pub mod sha256;
pub mod sig;
mod siphash;

pub use auth::{Authenticator, Mac, MAC_LEN};
pub use census::{census, Census};
pub use digest::{digest_of, Digest, DIGEST_LEN};
pub use hmac::{hmac_sha256, verify_tag, HmacMidstate, HmacSha256};
pub use keys::{NodeKeys, SessionKey, SECRET_LEN};
pub use sha256::{Sha256, Sha256Midstate};
pub use sig::{KeyDirectory, Signature, SIG_LEN};
