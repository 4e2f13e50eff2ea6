//! The concrete NFS-protocol-style interface that conformance wrappers
//! program against.
//!
//! This plays the role of the wire NFS protocol between the wrapper and an
//! unmodified NFS daemon in the paper's Figure 2: the wrapper treats an
//! implementation of [`NfsServer`] as a *black box*. File handles are
//! opaque implementation-chosen byte strings; timestamps come from the
//! server's local clock; `readdir` order is implementation-defined — all
//! the non-determinism the abstraction must hide.

use rand::rngs::StdRng;

/// An opaque, implementation-chosen file handle.
pub type ServerFh = Vec<u8>;

/// Object kinds at the concrete level.
pub use crate::spec::ObjKind;

/// Concrete file attributes (the full NFS `fattr`, including the
/// implementation-specific `fsid`/`fileid` pair and concrete timestamps).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SrvAttr {
    /// Object kind.
    pub kind: ObjKind,
    /// Permission bits.
    pub mode: u32,
    /// Hard-link count.
    pub nlink: u32,
    /// Owner.
    pub uid: u32,
    /// Group.
    pub gid: u32,
    /// Size in bytes.
    pub size: u64,
    /// File-system id (identifies the implementation instance).
    pub fsid: u64,
    /// File id, unique within the file system. `<fsid, fileid>` uniquely
    /// and *persistently* identifies the object (paper §3.4).
    pub fileid: u64,
    /// Concrete access time (local clock — non-deterministic).
    pub atime_ns: u64,
    /// Concrete modification time.
    pub mtime_ns: u64,
    /// Concrete change time.
    pub ctime_ns: u64,
}

/// Attribute updates (unset = unchanged).
#[derive(Clone, Copy, Debug, Default)]
pub struct SrvSetAttr {
    /// New permission bits.
    pub mode: Option<u32>,
    /// New owner.
    pub uid: Option<u32>,
    /// New group.
    pub gid: Option<u32>,
    /// New size.
    pub size: Option<u64>,
}

/// Concrete server errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SrvError {
    /// No such file or directory.
    NoEnt,
    /// Name exists.
    Exist,
    /// Not a directory.
    NotDir,
    /// Is a directory.
    IsDir,
    /// Directory not empty.
    NotEmpty,
    /// Stale file handle.
    Stale,
    /// Invalid argument.
    Inval,
    /// Out of space.
    NoSpace,
}

/// Result alias for server calls.
pub type SrvResult<T> = Result<T, SrvError>;

/// A concrete ("off-the-shelf") file-system implementation.
///
/// The `clock_ns` arguments are the server's *local* clock readings and
/// the `rng` its private randomness — the two non-determinism sources the
/// paper calls out. Correct implementations must provide standard NFS
/// semantics for everything a client can observe *through this interface*,
/// but are free to choose handles, ids, internal layout and listing order.
pub trait NfsServer: 'static {
    /// Identifies the implementation (used in reports and code-size
    /// accounting).
    fn name(&self) -> &'static str;

    /// The root directory's handle.
    fn root(&self) -> ServerFh;

    /// Reads attributes. `&self`: attribute reads must not disturb the
    /// concrete state, so the abstraction function can run off a shared
    /// reference.
    fn getattr(&self, fh: &ServerFh) -> SrvResult<SrvAttr>;

    /// Reads up to `count` bytes at `offset` *without* updating atime — the
    /// observation path of the abstraction function, which must not perturb
    /// the concrete state it abstracts. (Concrete atime is invisible
    /// abstractly — abstract timestamps live in the wrapper's rep — so
    /// client-visible semantics are unchanged.)
    fn peek(&self, fh: &ServerFh, offset: u64, count: u32) -> SrvResult<Vec<u8>>;

    /// Updates attributes.
    fn setattr(&mut self, fh: &ServerFh, sa: SrvSetAttr, clock_ns: u64) -> SrvResult<SrvAttr>;

    /// Resolves `name` in directory `dir`.
    fn lookup(&mut self, dir: &ServerFh, name: &str) -> SrvResult<(ServerFh, SrvAttr)>;

    /// Reads up to `count` bytes at `offset`. Updates atime.
    fn read(&mut self, fh: &ServerFh, offset: u64, count: u32, clock_ns: u64)
        -> SrvResult<Vec<u8>>;

    /// Writes `data` at `offset`, extending the file as needed.
    fn write(&mut self, fh: &ServerFh, offset: u64, data: &[u8], clock_ns: u64)
        -> SrvResult<SrvAttr>;

    /// Creates a regular file.
    fn create(
        &mut self,
        dir: &ServerFh,
        name: &str,
        mode: u32,
        clock_ns: u64,
        rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)>;

    /// Removes a file or symlink name (the object dies at nlink 0).
    fn remove(&mut self, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()>;

    /// Renames/moves a file, symlink or directory.
    fn rename(
        &mut self,
        from_dir: &ServerFh,
        from_name: &str,
        to_dir: &ServerFh,
        to_name: &str,
        clock_ns: u64,
    ) -> SrvResult<()>;

    /// Creates a hard link to the file `fh`.
    fn link(&mut self, fh: &ServerFh, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()>;

    /// Creates a symbolic link.
    fn symlink(
        &mut self,
        dir: &ServerFh,
        name: &str,
        target: &str,
        clock_ns: u64,
        rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)>;

    /// Reads a symlink's target.
    fn readlink(&self, fh: &ServerFh) -> SrvResult<String>;

    /// Creates a directory.
    fn mkdir(
        &mut self,
        dir: &ServerFh,
        name: &str,
        mode: u32,
        clock_ns: u64,
        rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)>;

    /// Removes an empty directory.
    fn rmdir(&mut self, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()>;

    /// Lists a directory in *implementation-defined* order.
    fn readdir(&self, dir: &ServerFh) -> SrvResult<Vec<(String, ServerFh)>>;

    /// Restarts from an empty file system (clean reboot). Handles become
    /// stale; ids may be reassigned.
    fn reset(&mut self, rng: &mut StdRng);

    /// Simulates a reboot that *preserves* the file system but invalidates
    /// volatile handles (NFS handles are volatile, paper §3.4). Returns
    /// the new root handle.
    fn remount(&mut self, rng: &mut StdRng) -> ServerFh;

    /// Fault injection: silently corrupts the object's stored data
    /// (models a software error). Returns false if unsupported or the
    /// handle is invalid.
    fn inject_corruption(&mut self, fh: &ServerFh) -> bool {
        let _ = fh;
        false
    }

    /// Bytes of storage the implementation currently holds, including any
    /// space lost to leaks — used by the rejuvenation experiments.
    fn footprint_bytes(&self) -> u64;
}
