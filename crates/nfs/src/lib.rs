//! The replicated NFS file service — the BASE paper's worked example
//! (Section 3).
//!
//! The paper wraps *off-the-shelf NFS daemons running different operating
//! systems*; this reproduction builds four from-scratch file-system
//! implementations with deliberately different internals and
//! non-determinism, exactly the divergences the paper enumerates
//! (file-handle choice, timestamp sources and resolution, directory order,
//! allocation behaviour):
//!
//! | Implementation | Internals | File handles | Readdir order | Quirks |
//! |---|---|---|---|---|
//! | [`InodeFs`] | inode table + free list | `ino + generation + boot cookie` | insertion order | LIFO inode reuse |
//! | [`LogFs`]   | id-keyed node map, log-structured flavour | random 64-bit id + epoch | name-hash order | epoch bumps on reboot |
//! | [`BtreeFs`] | BTree maps | ino ⊕ per-boot mask | lexicographic | µs timestamps, optional deleted-node "trash" leak |
//! | [`FlatFs`]  | flat path table | salted path hash | salted-hash order | dir renames rewrite key ranges |
//!
//! On top of them:
//!
//! - [`spec`]: the common abstract specification (§3.1) — a fixed-size
//!   array of `<object, generation>` pairs holding files, directories
//!   (lexicographically sorted), symlinks, and null objects, XDR-encoded;
//! - [`ops`]: the NFS operation/reply language, with oids as file handles;
//! - [`server`]: the concrete NFS-protocol-style interface the wrappers
//!   program against (black-box, per the paper);
//! - [`wrapper`]: the conformance wrapper + abstraction function and its
//!   inverse (§3.2–3.3), including the `<fsid,fileid>`→oid map used by
//!   proactive recovery (§3.4);
//! - [`relay`]: the user-level relay of Figure 2, plus the unreplicated
//!   direct-mount baseline used by the Andrew-benchmark comparison. Its
//!   [`relay::NfsDriver`] workload generators stand in for the kernel NFS
//!   client and the applications above it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod btree_fs;
pub mod flat_fs;
pub mod inode_fs;
pub mod log_fs;
pub mod ops;
pub mod relay;
pub mod server;
pub mod spec;
pub mod wrapper;

pub use btree_fs::BtreeFs;
pub use flat_fs::FlatFs;
pub use inode_fs::{InodeFs, LATENT_BUG_TRIGGER};
pub use log_fs::LogFs;
pub use ops::{NfsOp, NfsReply};
pub use server::{NfsServer, ServerFh, SrvAttr, SrvError};
pub use spec::{AbstractObject, Fattr, NfsStatus, ObjKind, Oid};
pub use wrapper::NfsWrapper;
