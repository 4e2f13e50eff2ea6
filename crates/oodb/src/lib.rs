//! The replicated object-oriented database — the BASE paper's second
//! example (from the abstract: *"an object-oriented database where the
//! replicas ran the same, non-deterministic implementation"*).
//!
//! [`ObjStore`] is the "off-the-shelf" implementation: an in-memory object
//! heap whose object *addresses* are random, whose garbage collector runs
//! at load-dependent moments and **relocates objects** (changing all
//! addresses), and whose iteration order follows the volatile addresses.
//! Running the same implementation on every replica still yields divergent
//! concrete states — the scenario where classic BFT's identical-state
//! requirement breaks down and BASE's abstract state shines.
//!
//! [`OodbWrapper`] is the conformance wrapper: stable abstract oids are
//! array indices, references are stored abstractly as oids, and the
//! conformance rep tracks the volatile oid → address mapping across GC
//! relocations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod oo7;
pub mod store;
pub mod wrapper;

pub use oo7::Oo7Workload;
pub use store::{ObjStore, FIELDS, REF_SLOTS};
pub use wrapper::{err, Oid, OodbOp, OodbReply, OodbWrapper, N_OBJECTS};
