//! Workspace root: re-exports the BASE reproduction crates for the
//! integration tests under `tests/` and the runnable examples under
//! `examples/`.
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]

pub use base;
pub use base_crypto;
pub use base_nfs;
pub use base_oodb;
pub use base_pbft;
pub use base_simnet;
pub use base_xdr;
