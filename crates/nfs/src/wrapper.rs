//! The conformance wrapper for the file service (paper §3.2–§3.4).
//!
//! The wrapper processes abstract NFS operations (oids as handles) by
//! invoking the wrapped [`NfsServer`] black box, and maintains the
//! *conformance rep*: per abstract array entry, the generation number, the
//! server file handle, and the abstract timestamps; plus a reverse map from
//! server handles to oids, a free-index allocator (deterministic, so all
//! replicas assign the same oids), parent hints for directories (used by
//! the inverse abstraction function to move directories with `rename`),
//! and the persistent `<fsid, fileid>` → oid map that proactive recovery
//! uses to rebuild handles after a reboot (§3.4).

use crate::ops::{NfsOp, NfsReply};
use crate::server::{NfsServer, ServerFh, SrvAttr, SrvError, SrvResult, SrvSetAttr};
use crate::spec::{AbstractObject, Fattr, NfsStatus, ObjKind, Oid, DEFAULT_CAPACITY};
use base::{ModifyLog, Wrapper};
use base_pbft::ExecEnv;
use std::collections::{BTreeSet, HashMap};

/// Where a directory currently lives (for `rename`-based moves during
/// `put_objs`).
#[derive(Debug, Clone, PartialEq, Eq)]
enum ParentHint {
    /// Child `name` of the directory at abstract index.
    Indexed(u32, String),
    /// Parked in the staging directory under this temporary name.
    Staging(String),
}

/// One conformance-rep entry.
#[derive(Debug, Clone, Default)]
struct RepEntry {
    gen: u32,
    fh: Option<ServerFh>,
    atime_ns: u64,
    mtime_ns: u64,
    ctime_ns: u64,
    /// Present for directories only.
    parent: Option<ParentHint>,
}

/// Counters for the experiments.
#[derive(Debug, Default)]
pub struct WrapperStats {
    /// Operations executed.
    pub ops: u64,
    /// Objects materialized by the abstraction function. Atomic because
    /// the abstraction function runs off `&self`.
    pub get_objs: std::sync::atomic::AtomicU64,
    /// Objects written back by the inverse abstraction function.
    pub put_objs: u64,
}

impl Clone for WrapperStats {
    fn clone(&self) -> Self {
        Self {
            ops: self.ops,
            get_objs: std::sync::atomic::AtomicU64::new(
                self.get_objs.load(std::sync::atomic::Ordering::Relaxed),
            ),
            put_objs: self.put_objs,
        }
    }
}

/// The conformance wrapper.
pub struct NfsWrapper<S: NfsServer> {
    server: S,
    capacity: u64,
    entries: Vec<RepEntry>,
    /// Lowest never-allocated index.
    next_fresh: u32,
    /// Freed indices, reallocated lowest-first (deterministic).
    freed: BTreeSet<u32>,
    fh_to_index: HashMap<ServerFh, u32>,
    /// Persistent `<fsid, fileid>` → index map (paper §3.4). Conceptually
    /// saved to disk at checkpoints; survives warm reboots.
    id_to_index: HashMap<(u64, u64), u32>,
    /// Newest agreed timestamp executed (for nondet validation).
    last_nondet: u64,
    /// Newest timestamp this wrapper proposed as primary (kept strictly
    /// monotone even when several batches are proposed before any
    /// executes).
    last_proposed: u64,
    /// Simulated base CPU cost per operation (server dispatch + cache
    /// work). Calibrated by the benchmark harness to the paper's era.
    pub op_cost_base: base_simnet::SimDuration,
    /// Simulated per-byte cost for read/write payloads.
    pub op_cost_per_byte_ns: u64,
    /// Experiment counters.
    pub stats: WrapperStats,
}

fn map_err(e: SrvError) -> NfsStatus {
    match e {
        SrvError::NoEnt => NfsStatus::NoEnt,
        SrvError::Exist => NfsStatus::Exist,
        SrvError::NotDir => NfsStatus::NotDir,
        SrvError::IsDir => NfsStatus::IsDir,
        SrvError::NotEmpty => NfsStatus::NotEmpty,
        SrvError::Stale => NfsStatus::Stale,
        SrvError::Inval => NfsStatus::Inval,
        SrvError::NoSpace => NfsStatus::NoSpace,
    }
}

impl<S: NfsServer> NfsWrapper<S> {
    /// Wraps `server` with the default abstract array capacity.
    pub fn new(server: S) -> Self {
        Self::with_capacity(server, DEFAULT_CAPACITY)
    }

    /// Wraps `server` with a custom abstract array capacity.
    pub fn with_capacity(server: S, capacity: u64) -> Self {
        assert!(capacity >= 2, "need room for the root and at least one object");
        let root_fh = server.root();
        let root_attr = server.getattr(&root_fh).expect("fresh root must resolve");
        let mut w = Self {
            server,
            capacity,
            entries: vec![RepEntry::default(); capacity as usize],
            next_fresh: 1,
            freed: BTreeSet::new(),
            fh_to_index: HashMap::new(),
            id_to_index: HashMap::new(),
            last_nondet: 0,
            last_proposed: 0,
            op_cost_base: base_simnet::SimDuration::from_micros(8),
            op_cost_per_byte_ns: 2,
            stats: WrapperStats::default(),
        };
        w.entries[0] = RepEntry {
            gen: 1,
            fh: Some(root_fh.clone()),
            atime_ns: 0,
            mtime_ns: 0,
            ctime_ns: 0,
            parent: None,
        };
        w.fh_to_index.insert(root_fh, 0);
        w.id_to_index.insert((root_attr.fsid, root_attr.fileid), 0);
        w
    }

    /// The wrapped implementation's name.
    pub fn impl_name(&self) -> &'static str {
        self.server.name()
    }

    /// Read access to the wrapped server (tests / fault injection).
    pub fn server(&self) -> &S {
        &self.server
    }

    /// Mutable access to the wrapped server.
    pub fn server_mut(&mut self) -> &mut S {
        &mut self.server
    }

    /// The root oid.
    pub fn root_oid(&self) -> Oid {
        Oid { index: 0, gen: self.entries[0].gen }
    }

    /// Number of allocated abstract objects.
    pub fn allocated(&self) -> u64 {
        self.entries.iter().filter(|e| e.fh.is_some()).count() as u64
    }

    /// The server handle of `oid.index`, for tests that inject
    /// concrete-state corruption.
    pub fn server_fh_of(&self, index: u32) -> Option<ServerFh> {
        self.entries.get(index as usize)?.fh.clone()
    }

    fn resolve(&self, oid: Oid) -> Result<ServerFh, NfsStatus> {
        let entry = self.entries.get(oid.index as usize).ok_or(NfsStatus::Stale)?;
        match &entry.fh {
            Some(fh) if entry.gen == oid.gen => Ok(fh.clone()),
            _ => Err(NfsStatus::Stale),
        }
    }

    fn index_of_fh(&self, fh: &ServerFh) -> Option<u32> {
        self.fh_to_index.get(fh).copied()
    }

    fn oid_of_index(&self, index: u32) -> Oid {
        Oid { index, gen: self.entries[index as usize].gen }
    }

    fn alloc_index(&mut self) -> Option<u32> {
        if let Some(&i) = self.freed.iter().next() {
            self.freed.remove(&i);
            return Some(i);
        }
        if u64::from(self.next_fresh) < self.capacity {
            let i = self.next_fresh;
            self.next_fresh += 1;
            Some(i)
        } else {
            None
        }
    }

    /// Binds `index` to a freshly created concrete object.
    fn assign(&mut self, index: u32, fh: ServerFh, attr: &SrvAttr, now_ns: u64) -> Oid {
        let e = &mut self.entries[index as usize];
        e.gen = e.gen.wrapping_add(1).max(1);
        e.fh = Some(fh.clone());
        e.atime_ns = now_ns;
        e.mtime_ns = now_ns;
        e.ctime_ns = now_ns;
        e.parent = None;
        let gen = e.gen;
        self.fh_to_index.insert(fh, index);
        self.id_to_index.insert((attr.fsid, attr.fileid), index);
        Oid { index, gen }
    }

    /// Releases `index` (the concrete object is already gone).
    fn release(&mut self, index: u32) {
        let e = &mut self.entries[index as usize];
        if let Some(fh) = e.fh.take() {
            self.fh_to_index.remove(&fh);
        }
        e.parent = None;
        self.id_to_index.retain(|_, i| *i != index);
        self.freed.insert(index);
    }

    /// Abstract attributes: server attributes with the rep's abstract
    /// timestamps substituted (paper §3.3: "replaces the concrete
    /// timestamp values by the abstract ones").
    fn abs_attr(&self, index: u32, srv: &SrvAttr) -> Fattr {
        let e = &self.entries[index as usize];
        Fattr {
            kind: srv.kind,
            mode: srv.mode,
            nlink: srv.nlink,
            uid: srv.uid,
            gid: srv.gid,
            size: srv.size,
            atime_ns: e.atime_ns,
            mtime_ns: e.mtime_ns,
            ctime_ns: e.ctime_ns,
        }
    }

    fn touch(&mut self, index: u32, atime: Option<u64>, mtime: Option<u64>, ctime: Option<u64>) {
        let e = &mut self.entries[index as usize];
        if let Some(t) = atime {
            e.atime_ns = t;
        }
        if let Some(t) = mtime {
            e.mtime_ns = t;
        }
        if let Some(t) = ctime {
            e.ctime_ns = t;
        }
    }

    /// Reads a whole file through the server's atime-free observation
    /// interface (the abstraction function must not perturb the concrete
    /// state it abstracts).
    fn read_all(&self, fh: &ServerFh, size: u64) -> SrvResult<Vec<u8>> {
        let mut out = Vec::with_capacity(size as usize);
        let mut off = 0u64;
        while off < size {
            let count = (size - off).min(1 << 20) as u32;
            let chunk = self.server.peek(fh, off, count)?;
            if chunk.is_empty() {
                break;
            }
            off += chunk.len() as u64;
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }

    /// The abstraction function for one object (paper §3.3).
    fn abstract_of(&self, index: u64) -> Option<Vec<u8>> {
        let e = self.entries.get(index as usize)?;
        let gen = e.gen;
        let fh = e.fh.clone()?;
        let srv = self.server.getattr(&fh).ok()?;
        let attr = self.abs_attr(index as u32, &srv);
        let obj = match srv.kind {
            ObjKind::File => {
                let data = self.read_all(&fh, srv.size).ok()?;
                AbstractObject::File { attr, data }
            }
            ObjKind::Dir => {
                let mut entries: Vec<(String, Oid)> = self
                    .server
                    .readdir(&fh)
                    .ok()?
                    .into_iter()
                    .filter_map(|(name, child_fh)| {
                        self.index_of_fh(&child_fh).map(|i| (name, self.oid_of_index(i)))
                    })
                    .collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                AbstractObject::Dir { attr, entries }
            }
            ObjKind::Symlink => {
                let target = self.server.readlink(&fh).ok()?;
                AbstractObject::Symlink { attr, target }
            }
        };
        self.stats.get_objs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(obj.encode_entry(gen))
    }

    /// Registers a modification of abstract object `index` with the
    /// library's copy-on-write machinery.
    fn note_modify(&mut self, index: u32, mods: &mut ModifyLog) {
        mods.modify(u64::from(index), || self.abstract_of(u64::from(index)));
    }

    fn run_op(
        &mut self,
        op: NfsOp,
        now_ns: u64,
        mods: &mut ModifyLog,
        env: &mut ExecEnv<'_>,
    ) -> NfsReply {
        let clock = env.local_clock_ns;
        match op {
            NfsOp::Getattr { fh } => match self.resolve(fh) {
                Ok(sfh) => match self.server.getattr(&sfh) {
                    Ok(srv) => NfsReply::Attr(self.abs_attr(fh.index, &srv)),
                    Err(e) => NfsReply::Error(map_err(e)),
                },
                Err(s) => NfsReply::Error(s),
            },
            NfsOp::Setattr { fh, attrs } => {
                let sfh = match self.resolve(fh) {
                    Ok(f) => f,
                    Err(s) => return NfsReply::Error(s),
                };
                self.note_modify(fh.index, mods);
                let sa = SrvSetAttr {
                    mode: attrs.mode,
                    uid: attrs.uid,
                    gid: attrs.gid,
                    size: attrs.size,
                };
                match self.server.setattr(&sfh, sa, clock) {
                    Ok(srv) => {
                        let mtime = attrs.size.map(|_| now_ns);
                        self.touch(fh.index, None, mtime, Some(now_ns));
                        NfsReply::Attr(self.abs_attr(fh.index, &srv))
                    }
                    Err(e) => NfsReply::Error(map_err(e)),
                }
            }
            NfsOp::Lookup { dir, name } => {
                let dfh = match self.resolve(dir) {
                    Ok(f) => f,
                    Err(s) => return NfsReply::Error(s),
                };
                match self.server.lookup(&dfh, &name) {
                    Ok((cfh, srv)) => match self.index_of_fh(&cfh) {
                        Some(i) => NfsReply::Handle {
                            fh: self.oid_of_index(i),
                            attr: self.abs_attr(i, &srv),
                        },
                        None => NfsReply::Error(NfsStatus::Io),
                    },
                    Err(e) => NfsReply::Error(map_err(e)),
                }
            }
            NfsOp::Read { fh, offset, count } => {
                let sfh = match self.resolve(fh) {
                    Ok(f) => f,
                    Err(s) => return NfsReply::Error(s),
                };
                // Reads update the abstract atime (paper §3.2), so the
                // object is modified.
                self.note_modify(fh.index, mods);
                match self.server.read(&sfh, offset, count, clock) {
                    Ok(data) => {
                        self.touch(fh.index, Some(now_ns), None, None);
                        NfsReply::Data(data)
                    }
                    Err(e) => NfsReply::Error(map_err(e)),
                }
            }
            NfsOp::Write { fh, offset, data } => {
                let sfh = match self.resolve(fh) {
                    Ok(f) => f,
                    Err(s) => return NfsReply::Error(s),
                };
                self.note_modify(fh.index, mods);
                match self.server.write(&sfh, offset, &data, clock) {
                    Ok(srv) => {
                        self.touch(fh.index, None, Some(now_ns), Some(now_ns));
                        NfsReply::Attr(self.abs_attr(fh.index, &srv))
                    }
                    Err(e) => NfsReply::Error(map_err(e)),
                }
            }
            NfsOp::Create { dir, name, mode } => {
                self.create_like(dir, now_ns, mods, |w, dfh, rng| {
                    w.server.create(dfh, &name, mode, clock, rng).map(|ok| (ok, name.clone()))
                }, env)
            }
            NfsOp::Mkdir { dir, name, mode } => {
                let reply = self.create_like(dir, now_ns, mods, |w, dfh, rng| {
                    w.server.mkdir(dfh, &name, mode, clock, rng).map(|ok| (ok, name.clone()))
                }, env);
                if let NfsReply::Handle { fh, .. } = &reply {
                    self.entries[fh.index as usize].parent =
                        Some(ParentHint::Indexed(dir.index, name));
                }
                reply
            }
            NfsOp::Symlink { dir, name, target } => {
                self.create_like(dir, now_ns, mods, |w, dfh, rng| {
                    w.server.symlink(dfh, &name, &target, clock, rng).map(|ok| (ok, name.clone()))
                }, env)
            }
            NfsOp::Remove { dir, name } => {
                let dfh = match self.resolve(dir) {
                    Ok(f) => f,
                    Err(s) => return NfsReply::Error(s),
                };
                let (cfh, srv) = match self.server.lookup(&dfh, &name) {
                    Ok(x) => x,
                    Err(e) => return NfsReply::Error(map_err(e)),
                };
                if srv.kind == ObjKind::Dir {
                    return NfsReply::Error(NfsStatus::IsDir);
                }
                let child = match self.index_of_fh(&cfh) {
                    Some(i) => i,
                    None => return NfsReply::Error(NfsStatus::Io),
                };
                self.note_modify(dir.index, mods);
                self.note_modify(child, mods);
                match self.server.remove(&dfh, &name, clock) {
                    Ok(()) => {
                        self.touch(dir.index, None, Some(now_ns), Some(now_ns));
                        if srv.nlink <= 1 {
                            self.release(child);
                        } else {
                            self.touch(child, None, None, Some(now_ns));
                        }
                        NfsReply::Ok
                    }
                    Err(e) => NfsReply::Error(map_err(e)),
                }
            }
            NfsOp::Rmdir { dir, name } => {
                let dfh = match self.resolve(dir) {
                    Ok(f) => f,
                    Err(s) => return NfsReply::Error(s),
                };
                let (cfh, srv) = match self.server.lookup(&dfh, &name) {
                    Ok(x) => x,
                    Err(e) => return NfsReply::Error(map_err(e)),
                };
                if srv.kind != ObjKind::Dir {
                    return NfsReply::Error(NfsStatus::NotDir);
                }
                let child = match self.index_of_fh(&cfh) {
                    Some(i) => i,
                    None => return NfsReply::Error(NfsStatus::Io),
                };
                self.note_modify(dir.index, mods);
                self.note_modify(child, mods);
                match self.server.rmdir(&dfh, &name, clock) {
                    Ok(()) => {
                        self.touch(dir.index, None, Some(now_ns), Some(now_ns));
                        self.release(child);
                        NfsReply::Ok
                    }
                    Err(e) => NfsReply::Error(map_err(e)),
                }
            }
            NfsOp::Rename { from_dir, from_name, to_dir, to_name } => {
                let ffh = match self.resolve(from_dir) {
                    Ok(f) => f,
                    Err(s) => return NfsReply::Error(s),
                };
                let tfh = match self.resolve(to_dir) {
                    Ok(f) => f,
                    Err(s) => return NfsReply::Error(s),
                };
                let (cfh, _) = match self.server.lookup(&ffh, &from_name) {
                    Ok(x) => x,
                    Err(e) => return NfsReply::Error(map_err(e)),
                };
                let child = match self.index_of_fh(&cfh) {
                    Some(i) => i,
                    None => return NfsReply::Error(NfsStatus::Io),
                };
                // A displaced target object (if any).
                let displaced = match self.server.lookup(&tfh, &to_name) {
                    Ok((dfh2, dsrv)) => {
                        self.index_of_fh(&dfh2).map(|i| (i, dsrv.nlink, dsrv.kind))
                    }
                    Err(_) => None,
                };
                self.note_modify(from_dir.index, mods);
                self.note_modify(to_dir.index, mods);
                self.note_modify(child, mods);
                if let Some((di, _, _)) = displaced {
                    if di != child {
                        self.note_modify(di, mods);
                    }
                }
                match self.server.rename(&ffh, &from_name, &tfh, &to_name, clock) {
                    Ok(()) => {
                        self.touch(from_dir.index, None, Some(now_ns), Some(now_ns));
                        self.touch(to_dir.index, None, Some(now_ns), Some(now_ns));
                        self.touch(child, None, None, Some(now_ns));
                        if let Some((di, nlink, kind)) = displaced {
                            if di != child && (kind == ObjKind::Dir || nlink <= 1) {
                                self.release(di);
                            } else if di != child {
                                self.touch(di, None, None, Some(now_ns));
                            }
                        }
                        if self.entries[child as usize].parent.is_some() {
                            self.entries[child as usize].parent =
                                Some(ParentHint::Indexed(to_dir.index, to_name));
                        }
                        NfsReply::Ok
                    }
                    Err(e) => NfsReply::Error(map_err(e)),
                }
            }
            NfsOp::Link { fh, dir, name } => {
                let sfh = match self.resolve(fh) {
                    Ok(f) => f,
                    Err(s) => return NfsReply::Error(s),
                };
                let dfh = match self.resolve(dir) {
                    Ok(f) => f,
                    Err(s) => return NfsReply::Error(s),
                };
                self.note_modify(dir.index, mods);
                self.note_modify(fh.index, mods);
                match self.server.link(&sfh, &dfh, &name, clock) {
                    Ok(()) => {
                        self.touch(dir.index, None, Some(now_ns), Some(now_ns));
                        self.touch(fh.index, None, None, Some(now_ns));
                        NfsReply::Ok
                    }
                    Err(e) => NfsReply::Error(map_err(e)),
                }
            }
            NfsOp::Readlink { fh } => match self.resolve(fh) {
                Ok(sfh) => match self.server.readlink(&sfh) {
                    Ok(t) => NfsReply::Target(t),
                    Err(e) => NfsReply::Error(map_err(e)),
                },
                Err(s) => NfsReply::Error(s),
            },
            NfsOp::Readdir { dir } => {
                let dfh = match self.resolve(dir) {
                    Ok(f) => f,
                    Err(s) => return NfsReply::Error(s),
                };
                match self.server.readdir(&dfh) {
                    Ok(list) => {
                        // Sort lexicographically so every replica returns
                        // the identical listing (paper §3.2).
                        let mut entries: Vec<(String, Oid)> = list
                            .into_iter()
                            .filter_map(|(n, cfh)| {
                                self.index_of_fh(&cfh).map(|i| (n, self.oid_of_index(i)))
                            })
                            .collect();
                        entries.sort_by(|a, b| a.0.cmp(&b.0));
                        NfsReply::Entries(entries)
                    }
                    Err(e) => NfsReply::Error(map_err(e)),
                }
            }
            NfsOp::Statfs => NfsReply::Stats(self.capacity, self.allocated()),
        }
    }

    /// Shared path for create/mkdir/symlink.
    fn create_like(
        &mut self,
        dir: Oid,
        now_ns: u64,
        mods: &mut ModifyLog,
        op: impl FnOnce(&mut Self, &ServerFh, &mut rand::rngs::StdRng) -> SrvResult<((ServerFh, SrvAttr), String)>,
        env: &mut ExecEnv<'_>,
    ) -> NfsReply {
        let dfh = match self.resolve(dir) {
            Ok(f) => f,
            Err(s) => return NfsReply::Error(s),
        };
        self.note_modify(dir.index, mods);
        let index = match self.alloc_index() {
            Some(i) => i,
            None => return NfsReply::Error(NfsStatus::NoSpace),
        };
        self.note_modify(index, mods);
        match op(self, &dfh, env.rng) {
            Ok(((cfh, srv), _name)) => {
                let oid = self.assign(index, cfh, &srv, now_ns);
                self.touch(dir.index, None, Some(now_ns), Some(now_ns));
                NfsReply::Handle { fh: oid, attr: self.abs_attr(index, &srv) }
            }
            Err(e) => {
                // The allocation never happened abstractly; return the
                // index so the next create at any replica picks the same
                // one.
                self.freed.insert(index);
                NfsReply::Error(map_err(e))
            }
        }
    }
}

impl<S: NfsServer> Wrapper for NfsWrapper<S> {
    fn execute(
        &mut self,
        op: &[u8],
        _client: u32,
        nondet: &[u8],
        read_only: bool,
        mods: &mut ModifyLog,
        env: &mut ExecEnv<'_>,
    ) -> Vec<u8> {
        self.stats.ops += 1;
        let Some(op) = NfsOp::from_bytes(op) else {
            return NfsReply::Error(NfsStatus::Inval).to_bytes();
        };
        if read_only && !op.is_read_only() {
            return NfsReply::Error(NfsStatus::Inval).to_bytes();
        }
        let now_ns = if nondet.len() == 8 {
            u64::from_be_bytes(nondet.try_into().expect("checked length"))
        } else {
            0
        };
        self.last_nondet = self.last_nondet.max(now_ns);
        // Charge a coarse execution cost: fixed dispatch plus a
        // size-proportional data-touching component.
        let bytes = match &op {
            NfsOp::Write { data, .. } => data.len(),
            NfsOp::Read { count, .. } => *count as usize,
            _ => 0,
        };
        env.charge(self.op_cost_base);
        env.charge(base_simnet::SimDuration::from_nanos(self.op_cost_per_byte_ns * bytes as u64));
        self.run_op(op, now_ns, mods, env).to_bytes()
    }

    fn get_obj(&self, index: u64) -> Option<Vec<u8>> {
        self.abstract_of(index)
    }

    fn put_objs(&mut self, objs: &[(u64, Option<Vec<u8>>)], env: &mut ExecEnv<'_>) {
        self.stats.put_objs += objs.len() as u64;
        crate::wrapper::putobjs::run(self, objs, env);
    }

    fn n_objects(&self) -> u64 {
        self.capacity
    }

    fn reset(&mut self, env: &mut ExecEnv<'_>) {
        self.server.reset(env.rng);
        let root_fh = self.server.root();
        let root_attr = self.server.getattr(&root_fh).expect("fresh root must resolve");
        self.entries = vec![RepEntry::default(); self.capacity as usize];
        self.next_fresh = 1;
        self.freed.clear();
        self.fh_to_index.clear();
        self.id_to_index.clear();
        self.entries[0] = RepEntry {
            gen: 1,
            fh: Some(root_fh.clone()),
            atime_ns: 0,
            mtime_ns: 0,
            ctime_ns: 0,
            parent: None,
        };
        self.fh_to_index.insert(root_fh, 0);
        self.id_to_index.insert((root_attr.fsid, root_attr.fileid), 0);
    }

    fn rebuild_rep(&mut self, env: &mut ExecEnv<'_>) {
        // Warm reboot (§3.4): handles are volatile; walk the concrete
        // directory tree depth-first from the new root, mapping each
        // object back to its oid through the persistent <fsid,fileid> map.
        let new_root = self.server.remount(env.rng);
        self.fh_to_index.clear();
        for e in &mut self.entries {
            e.fh = None;
        }
        self.entries[0].fh = Some(new_root.clone());
        self.fh_to_index.insert(new_root.clone(), 0);

        let mut stack = vec![(new_root, 0u32)];
        while let Some((dir_fh, dir_index)) = stack.pop() {
            let Ok(listing) = self.server.readdir(&dir_fh) else { continue };
            for (name, child_fh) in listing {
                let Ok(attr) = self.server.getattr(&child_fh) else { continue };
                let Some(&index) = self.id_to_index.get(&(attr.fsid, attr.fileid)) else {
                    continue;
                };
                if self.entries[index as usize].fh.is_none() {
                    self.entries[index as usize].fh = Some(child_fh.clone());
                    self.fh_to_index.insert(child_fh.clone(), index);
                    if attr.kind == ObjKind::Dir {
                        self.entries[index as usize].parent =
                            Some(ParentHint::Indexed(dir_index, name));
                        stack.push((child_fh, index));
                    }
                }
            }
        }
    }

    fn propose_nondet(&mut self, env: &mut ExecEnv<'_>) -> Vec<u8> {
        let ts = env.local_clock_ns.max(self.last_proposed + 1).max(self.last_nondet + 1);
        self.last_proposed = ts;
        ts.to_be_bytes().to_vec()
    }

    fn last_nondet_ns(&self) -> u64 {
        self.last_nondet
    }

    fn corrupt_state(&mut self, seed: u64) {
        // Corrupt one live object's concrete representation, chosen
        // deterministically from the seed. The rep and the abstract digests
        // are left untouched, so the damage stays latent until a warm
        // reboot's abstraction rescan.
        let candidates: Vec<u32> = (1..self.capacity as u32)
            .filter(|&i| self.entries[i as usize].fh.is_some())
            .collect();
        if candidates.is_empty() {
            return;
        }
        for off in 0..candidates.len() {
            let idx = candidates[(seed as usize + off) % candidates.len()];
            if let Some(fh) = self.server_fh_of(idx) {
                if self.server.inject_corruption(&fh) {
                    return;
                }
            }
        }
    }
}

/// The inverse abstraction function (paper §3.3), split into its own
/// module for readability.
mod putobjs {
    use super::*;

    /// The decoded install set.
    struct Plan {
        /// `(index, gen, object)` for present objects.
        present: Vec<(u32, u32, AbstractObject)>,
        /// Indices that become free.
        absent: Vec<u32>,
        /// Every index referenced by some desired directory.
        referenced: std::collections::HashSet<u32>,
    }

    fn decode(objs: &[(u64, Option<Vec<u8>>)]) -> Plan {
        let mut plan = Plan {
            present: Vec::new(),
            absent: Vec::new(),
            referenced: std::collections::HashSet::new(),
        };
        for (index, data) in objs {
            match data {
                Some(bytes) => match AbstractObject::decode_entry(bytes) {
                    Ok((gen, obj)) => {
                        if let AbstractObject::Dir { entries, .. } = &obj {
                            for (_, oid) in entries {
                                plan.referenced.insert(oid.index);
                            }
                        }
                        plan.present.push((*index as u32, gen, obj));
                    }
                    Err(_) => plan.absent.push(*index as u32),
                },
                None => plan.absent.push(*index as u32),
            }
        }
        plan
    }

    /// Staging directory name (transient; exists only inside `put_objs`).
    const STAGING: &str = ".base-unlinked";

    pub(super) fn run<S: NfsServer>(
        w: &mut NfsWrapper<S>,
        objs: &[(u64, Option<Vec<u8>>)],
        env: &mut ExecEnv<'_>,
    ) {
        let clock = env.local_clock_ns;
        let plan = decode(objs);
        if plan.present.is_empty() && plan.absent.is_empty() {
            return;
        }
        let root_fh = w.entries[0].fh.clone().expect("root always bound");

        // Create the staging directory.
        let staging_fh = match w.server.mkdir(&root_fh, STAGING, 0o700, clock, env.rng) {
            Ok((fh, _)) => fh,
            Err(SrvError::Exist) => {
                w.server.lookup(&root_fh, STAGING).expect("staging exists").0
            }
            Err(e) => panic!("cannot create staging directory: {e:?}"),
        };
        let mut staged = 0u64;

        // Phase 1 (cases 2 and 3 of §3.3): make every present object exist
        // concretely with the right content, creating new ones in staging.
        for (index, gen, obj) in &plan.present {
            let entry = &w.entries[*index as usize];
            let same_gen = entry.gen == *gen && entry.fh.is_some();
            let compatible = if let (true, Some(fh)) = (same_gen, entry.fh.clone()) {
                // Case 1 requires the concrete kind to match too.
                match w.server.getattr(&fh) {
                    Ok(srv) => {
                        srv.kind == obj.kind()
                            && (srv.kind != ObjKind::Symlink || symlink_matches(w, &fh, obj))
                    }
                    Err(_) => false,
                }
            } else {
                false
            };

            if compatible {
                // Case 1: update in place.
                update_in_place(w, *index, obj, clock);
            } else {
                // Case 2: detach any old incumbent (its links disappear
                // during directory reconciliation; drop our binding now).
                if let Some(old_fh) = w.entries[*index as usize].fh.take() {
                    w.fh_to_index.remove(&old_fh);
                    w.id_to_index.retain(|_, i| *i != *index);
                }
                // Case 3: create fresh in the staging directory.
                staged += 1;
                let tmp = format!("t{staged}");
                let (fh, attr) = match obj {
                    AbstractObject::File { data, .. } => {
                        let (fh, _) = w
                            .server
                            .create(&staging_fh, &tmp, obj.attr().mode, clock, env.rng)
                            .expect("staging create");
                        if !data.is_empty() {
                            w.server.write(&fh, 0, data, clock).expect("staging write");
                        }
                        let attr = w.server.getattr(&fh).expect("staged object");
                        (fh, attr)
                    }
                    AbstractObject::Dir { .. } => {
                        let (fh, attr) = w
                            .server
                            .mkdir(&staging_fh, &tmp, obj.attr().mode, clock, env.rng)
                            .expect("staging mkdir");
                        (fh, attr)
                    }
                    AbstractObject::Symlink { target, .. } => {
                        let (fh, attr) = w
                            .server
                            .symlink(&staging_fh, &tmp, target, clock, env.rng)
                            .expect("staging symlink");
                        (fh, attr)
                    }
                };
                let e = &mut w.entries[*index as usize];
                e.gen = *gen;
                e.fh = Some(fh.clone());
                e.parent = match obj {
                    AbstractObject::Dir { .. } => Some(ParentHint::Staging(tmp.clone())),
                    _ => None,
                };
                w.fh_to_index.insert(fh, *index);
                w.id_to_index.insert((attr.fsid, attr.fileid), *index);
                set_times_from(w, *index, obj);
                apply_attrs(w, *index, obj, clock);
            }
        }

        // Phase 2: directory reconciliation, adds first (so no object ever
        // reaches zero links before its new home exists).
        for (index, _, obj) in &plan.present {
            if let AbstractObject::Dir { entries, .. } = obj {
                reconcile_adds(w, *index, entries, &plan, &staging_fh, clock);
            }
        }
        for (index, _, obj) in &plan.present {
            if let AbstractObject::Dir { entries, .. } = obj {
                reconcile_removes(w, *index, entries, clock);
            }
        }

        // Phase 3: remove residual staging links for non-directories
        // (directories were renamed out), then the staging dir itself.
        if let Ok(listing) = w.server.readdir(&staging_fh) {
            for (name, _) in listing {
                let _ = w.server.remove(&staging_fh, &name, clock);
            }
        }
        let _ = w.server.rmdir(&root_fh, STAGING, clock);

        // Phase 4: release entries that are absent in the checkpoint.
        for index in &plan.absent {
            if w.entries[*index as usize].fh.is_some() {
                w.release(*index);
            } else {
                w.freed.insert(*index);
                w.entries[*index as usize].parent = None;
            }
        }
        // Recompute the deterministic allocator state: an installed
        // checkpoint dictates exactly which indices are live.
        rebuild_allocator(w);
    }

    fn symlink_matches<S: NfsServer>(
        w: &mut NfsWrapper<S>,
        fh: &ServerFh,
        obj: &AbstractObject,
    ) -> bool {
        match obj {
            AbstractObject::Symlink { target, .. } => {
                w.server.readlink(fh).map(|t| t == *target).unwrap_or(false)
            }
            _ => true,
        }
    }

    fn update_in_place<S: NfsServer>(
        w: &mut NfsWrapper<S>,
        index: u32,
        obj: &AbstractObject,
        clock: u64,
    ) {
        let fh = w.entries[index as usize].fh.clone().expect("case 1 has a handle");
        if let AbstractObject::File { data, .. } = obj {
            let _ = w.server.setattr(
                &fh,
                SrvSetAttr { size: Some(data.len() as u64), ..Default::default() },
                clock,
            );
            if !data.is_empty() {
                let _ = w.server.write(&fh, 0, data, clock);
            }
        }
        set_times_from(w, index, obj);
        apply_attrs(w, index, obj, clock);
    }

    /// Copies the abstract timestamps into the conformance rep.
    fn set_times_from<S: NfsServer>(w: &mut NfsWrapper<S>, index: u32, obj: &AbstractObject) {
        let a = obj.attr();
        let e = &mut w.entries[index as usize];
        e.atime_ns = a.atime_ns;
        e.mtime_ns = a.mtime_ns;
        e.ctime_ns = a.ctime_ns;
    }

    /// Pushes mode/uid/gid down into the concrete object.
    fn apply_attrs<S: NfsServer>(
        w: &mut NfsWrapper<S>,
        index: u32,
        obj: &AbstractObject,
        clock: u64,
    ) {
        let a = obj.attr();
        if a.kind == ObjKind::Symlink {
            return;
        }
        let fh = w.entries[index as usize].fh.clone().expect("bound");
        let _ = w.server.setattr(
            &fh,
            SrvSetAttr { mode: Some(a.mode), uid: Some(a.uid), gid: Some(a.gid), size: None },
            clock,
        );
    }

    fn reconcile_adds<S: NfsServer>(
        w: &mut NfsWrapper<S>,
        dir_index: u32,
        desired: &[(String, Oid)],
        plan: &Plan,
        staging_fh: &ServerFh,
        clock: u64,
    ) {
        let dir_fh = w.entries[dir_index as usize].fh.clone().expect("dir bound");
        let current: HashMap<String, ServerFh> = w
            .server
            .readdir(&dir_fh)
            .map(|l| l.into_iter().collect())
            .unwrap_or_default();

        for (name, oid) in desired {
            let want_fh = match &w.entries[oid.index as usize].fh {
                Some(fh) => fh.clone(),
                None => continue, // Inconsistent install; skip defensively.
            };
            if let Some(cur_fh) = current.get(name) {
                if *cur_fh == want_fh {
                    continue; // Already correct.
                }
                // Wrong incumbent: move it aside (to staging if it is still
                // wanted somewhere, otherwise delete it).
                displace(w, &dir_fh, name, cur_fh, plan, staging_fh, clock);
            }
            // Link or move the wanted object in.
            let is_dir = matches!(
                w.server.getattr(&want_fh).map(|a| a.kind),
                Ok(ObjKind::Dir)
            );
            if is_dir {
                let hint = w.entries[oid.index as usize].parent.clone();
                let moved = match hint {
                    Some(ParentHint::Staging(tmp)) => {
                        w.server.rename(staging_fh, &tmp, &dir_fh, name, clock).is_ok()
                    }
                    Some(ParentHint::Indexed(pidx, pname)) => {
                        match w.entries[pidx as usize].fh.clone() {
                            Some(pfh) => {
                                w.server.rename(&pfh, &pname, &dir_fh, name, clock).is_ok()
                            }
                            None => false,
                        }
                    }
                    None => false,
                };
                if moved {
                    // The rename may have changed the handle? No: handles
                    // are object-bound in all implementations.
                    w.entries[oid.index as usize].parent =
                        Some(ParentHint::Indexed(dir_index, name.clone()));
                }
            } else {
                let _ = w.server.link(&want_fh, &dir_fh, name, clock);
            }
        }
    }

    /// Moves a wrong incumbent out of the way.
    fn displace<S: NfsServer>(
        w: &mut NfsWrapper<S>,
        dir_fh: &ServerFh,
        name: &str,
        cur_fh: &ServerFh,
        plan: &Plan,
        staging_fh: &ServerFh,
        clock: u64,
    ) {
        let incumbent_index = w.fh_to_index.get(cur_fh).copied();
        let still_wanted = incumbent_index.map(|i| plan.referenced.contains(&i)).unwrap_or(false);
        let is_dir =
            matches!(w.server.getattr(cur_fh).map(|a| a.kind), Ok(ObjKind::Dir));
        if still_wanted {
            // Park it in staging under a unique name.
            let park = format!("p{}", name_nonce(cur_fh));
            if w.server.rename(dir_fh, name, staging_fh, &park, clock).is_ok() {
                if let Some(i) = incumbent_index {
                    if is_dir {
                        w.entries[i as usize].parent = Some(ParentHint::Staging(park));
                    }
                }
            }
        } else if is_dir {
            remove_tree(w, dir_fh, name, clock);
        } else {
            let _ = w.server.remove(dir_fh, name, clock);
        }
    }

    fn name_nonce(fh: &ServerFh) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in fh {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    fn reconcile_removes<S: NfsServer>(
        w: &mut NfsWrapper<S>,
        dir_index: u32,
        desired: &[(String, Oid)],
        clock: u64,
    ) {
        let dir_fh = w.entries[dir_index as usize].fh.clone().expect("dir bound");
        let current = match w.server.readdir(&dir_fh) {
            Ok(l) => l,
            Err(_) => return,
        };
        for (name, cfh) in current {
            if desired.iter().any(|(n, _)| *n == name) {
                // The adds pass already installed the right incumbent.
                continue;
            }
            let is_dir = matches!(w.server.getattr(&cfh).map(|a| a.kind), Ok(ObjKind::Dir));
            if is_dir {
                remove_tree(w, &dir_fh, &name, clock);
            } else {
                let _ = w.server.remove(&dir_fh, &name, clock);
            }
        }
    }

    /// Recursively removes `name` (a directory) from `dir`.
    fn remove_tree<S: NfsServer>(
        w: &mut NfsWrapper<S>,
        dir_fh: &ServerFh,
        name: &str,
        clock: u64,
    ) {
        let Ok((child_fh, _)) = w.server.lookup(dir_fh, name) else { return };
        if let Ok(listing) = w.server.readdir(&child_fh) {
            for (n, gfh) in listing {
                let is_dir =
                    matches!(w.server.getattr(&gfh).map(|a| a.kind), Ok(ObjKind::Dir));
                if is_dir {
                    remove_tree(w, &child_fh, &n, clock);
                } else {
                    let _ = w.server.remove(&child_fh, &n, clock);
                }
            }
        }
        let _ = w.server.rmdir(dir_fh, name, clock);
    }

    /// Makes the free-index allocator consistent with the rep after an
    /// install.
    fn rebuild_allocator<S: NfsServer>(w: &mut NfsWrapper<S>) {
        let mut max_live = 0u32;
        for (i, e) in w.entries.iter().enumerate() {
            if e.fh.is_some() {
                max_live = max_live.max(i as u32);
            }
        }
        w.next_fresh = w.next_fresh.max(max_live + 1);
        w.freed.clear();
        for i in 1..w.next_fresh {
            if w.entries[i as usize].fh.is_none() {
                w.freed.insert(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inode_fs::InodeFs;
    use rand::SeedableRng;

    fn wrapper() -> NfsWrapper<InodeFs> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        NfsWrapper::with_capacity(InodeFs::new(0x11, &mut rng), 256)
    }

    fn exec(
        w: &mut NfsWrapper<InodeFs>,
        mods: &mut ModifyLog,
        rng: &mut rand::rngs::StdRng,
        op: NfsOp,
        ts: u64,
    ) -> NfsReply {
        let mut env = ExecEnv::new(999_999, rng);
        let bytes = w.execute(&op.to_bytes(), 1, &ts.to_be_bytes(), false, mods, &mut env);
        NfsReply::from_bytes(&bytes).expect("well-formed reply")
    }

    #[test]
    fn create_assigns_deterministic_oids() {
        let mut w = wrapper();
        let mut mods = ModifyLog::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let root = w.root_oid();
        let r1 = exec(&mut w, &mut mods, &mut rng, NfsOp::Create { dir: root, name: "a".into(), mode: 0o644 }, 10);
        let r2 = exec(&mut w, &mut mods, &mut rng, NfsOp::Create { dir: root, name: "b".into(), mode: 0o644 }, 11);
        match (&r1, &r2) {
            (NfsReply::Handle { fh: f1, .. }, NfsReply::Handle { fh: f2, .. }) => {
                assert_eq!(f1.index, 1);
                assert_eq!(f2.index, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn freed_indices_are_reused_lowest_first() {
        let mut w = wrapper();
        let mut mods = ModifyLog::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let root = w.root_oid();
        for n in ["a", "b", "c"] {
            exec(&mut w, &mut mods, &mut rng, NfsOp::Create { dir: root, name: n.into(), mode: 0o644 }, 1);
        }
        exec(&mut w, &mut mods, &mut rng, NfsOp::Remove { dir: root, name: "a".into() }, 2);
        exec(&mut w, &mut mods, &mut rng, NfsOp::Remove { dir: root, name: "b".into() }, 3);
        let r = exec(&mut w, &mut mods, &mut rng, NfsOp::Create { dir: root, name: "d".into(), mode: 0o644 }, 4);
        match r {
            NfsReply::Handle { fh, .. } => {
                assert_eq!(fh.index, 1, "lowest freed index first");
                assert_eq!(fh.gen, 2, "generation bumped on reuse");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn readdir_is_sorted_despite_impl_order() {
        let mut w = wrapper();
        let mut mods = ModifyLog::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let root = w.root_oid();
        for n in ["zebra", "apple", "mango"] {
            exec(&mut w, &mut mods, &mut rng, NfsOp::Create { dir: root, name: n.into(), mode: 0o644 }, 1);
        }
        let r = exec(&mut w, &mut mods, &mut rng, NfsOp::Readdir { dir: root }, 2);
        match r {
            NfsReply::Entries(es) => {
                let names: Vec<&str> = es.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(names, vec!["apple", "mango", "zebra"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn abstract_timestamps_come_from_agreement() {
        let mut w = wrapper();
        let mut mods = ModifyLog::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let root = w.root_oid();
        let r = exec(&mut w, &mut mods, &mut rng, NfsOp::Create { dir: root, name: "f".into(), mode: 0o644 }, 4242);
        match r {
            NfsReply::Handle { attr, .. } => {
                assert_eq!(attr.mtime_ns, 4242, "agreed time, not the local clock");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_generation_rejected() {
        let mut w = wrapper();
        let mut mods = ModifyLog::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let root = w.root_oid();
        let fh = match exec(&mut w, &mut mods, &mut rng, NfsOp::Create { dir: root, name: "f".into(), mode: 0o644 }, 1) {
            NfsReply::Handle { fh, .. } => fh,
            other => panic!("unexpected {other:?}"),
        };
        exec(&mut w, &mut mods, &mut rng, NfsOp::Remove { dir: root, name: "f".into() }, 2);
        let r = exec(&mut w, &mut mods, &mut rng, NfsOp::Getattr { fh }, 3);
        assert_eq!(r, NfsReply::Error(NfsStatus::Stale));
    }

    #[test]
    fn get_obj_round_trips_through_decode() {
        let mut w = wrapper();
        let mut mods = ModifyLog::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let root = w.root_oid();
        let fh = match exec(&mut w, &mut mods, &mut rng, NfsOp::Create { dir: root, name: "f".into(), mode: 0o644 }, 5) {
            NfsReply::Handle { fh, .. } => fh,
            other => panic!("unexpected {other:?}"),
        };
        exec(&mut w, &mut mods, &mut rng, NfsOp::Write { fh, offset: 0, data: b"hello".to_vec() }, 6);
        let bytes = w.get_obj(u64::from(fh.index)).expect("present");
        let (gen, obj) = AbstractObject::decode_entry(&bytes).unwrap();
        assert_eq!(gen, fh.gen);
        match obj {
            AbstractObject::File { attr, data } => {
                assert_eq!(data, b"hello");
                assert_eq!(attr.mtime_ns, 6);
                assert_eq!(attr.size, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The root dir object lists the file.
        let root_bytes = w.get_obj(0).expect("root present");
        let (_, root_obj) = AbstractObject::decode_entry(&root_bytes).unwrap();
        match root_obj {
            AbstractObject::Dir { entries, .. } => {
                assert_eq!(entries, vec![("f".to_owned(), fh)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn modify_log_registers_touched_objects() {
        let mut w = wrapper();
        let mut mods = ModifyLog::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let root = w.root_oid();
        exec(&mut w, &mut mods, &mut rng, NfsOp::Create { dir: root, name: "f".into(), mode: 0o644 }, 1);
        assert!(mods.is_dirty(0), "parent dir modified");
        assert!(mods.is_dirty(1), "new object modified");
        assert_eq!(mods.copy_of(1), Some(&None), "pre-image of a fresh object is absent");
    }
}
