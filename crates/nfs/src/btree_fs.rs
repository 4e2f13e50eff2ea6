//! `BtreeFs`: a BTree-based file system — sequential inode numbers starting
//! at a random offset, XOR-masked handles, lexicographic directories,
//! microsecond timestamps, and an optional deleted-node "trash" that models
//! a memory leak.
//!
//! Non-determinism: the ino base and handle mask are random per instance,
//! `fileid`s are derived with a quirky formula, and timestamps lose
//! sub-microsecond precision (a *resolution* divergence the other two
//! implementations do not have).

use crate::server::{NfsServer, ObjKind, ServerFh, SrvAttr, SrvError, SrvResult, SrvSetAttr};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Truncates to microsecond resolution.
fn clock_us(clock_ns: u64) -> u64 {
    clock_ns / 1_000 * 1_000
}

#[derive(Debug, Clone)]
enum Content {
    File { data: Vec<u8> },
    Dir { entries: BTreeMap<String, u64> },
    Symlink { target: String },
}

#[derive(Debug, Clone)]
struct Node {
    kind: ObjKind,
    mode: u32,
    uid: u32,
    gid: u32,
    nlink: u32,
    atime_ns: u64,
    mtime_ns: u64,
    ctime_ns: u64,
    content: Content,
}

impl Node {
    fn new(kind: ObjKind, mode: u32, clock_ns: u64, content: Content) -> Self {
        let t = clock_us(clock_ns);
        Node {
            kind,
            mode,
            uid: 0,
            gid: 0,
            nlink: 1,
            atime_ns: t,
            mtime_ns: t,
            ctime_ns: t,
            content,
        }
    }

    fn size(&self) -> u64 {
        match &self.content {
            Content::File { data } => data.len() as u64,
            Content::Dir { entries } => entries.len() as u64,
            Content::Symlink { target } => target.len() as u64,
        }
    }
}

/// The BTree file system.
pub struct BtreeFs {
    fsid: u64,
    nodes: BTreeMap<u64, Node>,
    root_ino: u64,
    next_ino: u64,
    /// Per-boot handle mask (handles are `ino ^ mask`).
    mask: u64,
    /// When set, deleted nodes move to `trash` instead of being freed — a
    /// deliberate leak for the rejuvenation experiments.
    pub leaky: bool,
    trash: BTreeMap<u64, Node>,
}

impl BtreeFs {
    /// Creates an empty file system.
    pub fn new(fsid: u64, rng: &mut StdRng) -> Self {
        let base: u64 = u64::from(rng.gen::<u32>()) + 2;
        let mut nodes = BTreeMap::new();
        nodes.insert(
            base,
            Node::new(ObjKind::Dir, 0o755, 0, Content::Dir { entries: BTreeMap::new() }),
        );
        Self {
            fsid,
            nodes,
            root_ino: base,
            next_ino: base + 1,
            mask: rng.gen(),
            leaky: false,
            trash: BTreeMap::new(),
        }
    }

    fn fh_of(&self, ino: u64) -> ServerFh {
        (ino ^ self.mask).to_be_bytes().to_vec()
    }

    fn resolve(&self, fh: &ServerFh) -> SrvResult<u64> {
        if fh.len() != 8 {
            return Err(SrvError::Stale);
        }
        let ino = u64::from_be_bytes(fh.as_slice().try_into().expect("length checked")) ^ self.mask;
        if self.nodes.contains_key(&ino) {
            Ok(ino)
        } else {
            Err(SrvError::Stale)
        }
    }

    fn node(&self, ino: u64) -> &Node {
        &self.nodes[&ino]
    }

    fn node_mut(&mut self, ino: u64) -> &mut Node {
        self.nodes.get_mut(&ino).expect("resolved node")
    }

    fn alloc(&mut self, node: Node) -> u64 {
        let ino = self.next_ino;
        self.next_ino += 1;
        self.nodes.insert(ino, node);
        ino
    }

    fn attr_of(&self, ino: u64) -> SrvAttr {
        let n = self.node(ino);
        SrvAttr {
            kind: n.kind,
            mode: n.mode,
            nlink: match n.kind {
                ObjKind::Dir => 2,
                _ => n.nlink,
            },
            uid: n.uid,
            gid: n.gid,
            size: n.size(),
            fsid: self.fsid,
            // A quirky fileid derivation, stable for the instance.
            fileid: ino.wrapping_mul(2).wrapping_add(1),
            atime_ns: n.atime_ns,
            mtime_ns: n.mtime_ns,
            ctime_ns: n.ctime_ns,
        }
    }

    fn entries(&self, ino: u64) -> SrvResult<&BTreeMap<String, u64>> {
        match &self.node(ino).content {
            Content::Dir { entries } => Ok(entries),
            _ => Err(SrvError::NotDir),
        }
    }

    fn entries_mut(&mut self, ino: u64) -> SrvResult<&mut BTreeMap<String, u64>> {
        match &mut self.node_mut(ino).content {
            Content::Dir { entries } => Ok(entries),
            _ => Err(SrvError::NotDir),
        }
    }

    fn find(&self, dir: u64, name: &str) -> SrvResult<Option<u64>> {
        Ok(self.entries(dir)?.get(name).copied())
    }

    fn touch_dir(&mut self, dir: u64, clock_ns: u64) {
        let t = clock_us(clock_ns);
        let n = self.node_mut(dir);
        n.mtime_ns = t;
        n.ctime_ns = t;
    }

    /// True if `node` is `anc` or lies anywhere below it.
    fn is_within(&self, anc: u64, node: u64) -> bool {
        if anc == node {
            return true;
        }
        if let Content::Dir { entries } = &self.node(anc).content {
            let children: Vec<u64> = entries.values().copied().collect();
            return children.iter().any(|c| self.is_within(*c, node));
        }
        false
    }

    fn unlink_node(&mut self, ino: u64) {
        let n = self.node_mut(ino);
        if n.nlink > 1 {
            n.nlink -= 1;
            return;
        }
        if let Content::Dir { entries } = &n.content {
            let children: Vec<u64> = entries.values().copied().collect();
            for c in children {
                self.unlink_node(c);
            }
        }
        let node = self.nodes.remove(&ino).expect("present");
        if self.leaky {
            self.trash.insert(ino, node);
        }
    }

    fn file_data_mut(&mut self, ino: u64) -> SrvResult<&mut Vec<u8>> {
        match &mut self.node_mut(ino).content {
            Content::File { data } => Ok(data),
            Content::Dir { .. } => Err(SrvError::IsDir),
            Content::Symlink { .. } => Err(SrvError::Inval),
        }
    }

    /// Number of leaked (trashed) nodes.
    pub fn trash_len(&self) -> usize {
        self.trash.len()
    }
}

impl NfsServer for BtreeFs {
    fn root(&self) -> ServerFh {
        self.fh_of(self.root_ino)
    }

    fn getattr(&self, fh: &ServerFh) -> SrvResult<SrvAttr> {
        let ino = self.resolve(fh)?;
        Ok(self.attr_of(ino))
    }

    fn setattr(&mut self, fh: &ServerFh, sa: SrvSetAttr, clock_ns: u64) -> SrvResult<SrvAttr> {
        let ino = self.resolve(fh)?;
        if let Some(size) = sa.size {
            let data = self.file_data_mut(ino)?;
            data.resize(size as usize, 0);
            self.node_mut(ino).mtime_ns = clock_us(clock_ns);
        }
        let n = self.node_mut(ino);
        if let Some(mode) = sa.mode {
            n.mode = mode;
        }
        if let Some(uid) = sa.uid {
            n.uid = uid;
        }
        if let Some(gid) = sa.gid {
            n.gid = gid;
        }
        n.ctime_ns = clock_us(clock_ns);
        Ok(self.attr_of(ino))
    }

    fn lookup(&mut self, dir: &ServerFh, name: &str) -> SrvResult<(ServerFh, SrvAttr)> {
        let dir = self.resolve(dir)?;
        match self.find(dir, name)? {
            Some(ino) => Ok((self.fh_of(ino), self.attr_of(ino))),
            None => Err(SrvError::NoEnt),
        }
    }

    fn read(
        &mut self,
        fh: &ServerFh,
        offset: u64,
        count: u32,
        clock_ns: u64,
    ) -> SrvResult<Vec<u8>> {
        let ino = self.resolve(fh)?;
        let out = match &self.node(ino).content {
            Content::File { data } => {
                let start = (offset as usize).min(data.len());
                let end = (offset as usize).saturating_add(count as usize).min(data.len());
                data[start..end].to_vec()
            }
            Content::Dir { .. } => return Err(SrvError::IsDir),
            Content::Symlink { .. } => return Err(SrvError::Inval),
        };
        self.node_mut(ino).atime_ns = clock_us(clock_ns);
        Ok(out)
    }

    fn peek(&self, fh: &ServerFh, offset: u64, count: u32) -> SrvResult<Vec<u8>> {
        let ino = self.resolve(fh)?;
        match &self.node(ino).content {
            Content::File { data } => {
                let start = (offset as usize).min(data.len());
                let end = (offset as usize).saturating_add(count as usize).min(data.len());
                Ok(data[start..end].to_vec())
            }
            Content::Dir { .. } => Err(SrvError::IsDir),
            Content::Symlink { .. } => Err(SrvError::Inval),
        }
    }

    fn write(
        &mut self,
        fh: &ServerFh,
        offset: u64,
        data: &[u8],
        clock_ns: u64,
    ) -> SrvResult<SrvAttr> {
        let ino = self.resolve(fh)?;
        let file = self.file_data_mut(ino)?;
        let end = offset as usize + data.len();
        if file.len() < end {
            file.resize(end, 0);
        }
        file[offset as usize..end].copy_from_slice(data);
        let t = clock_us(clock_ns);
        let n = self.node_mut(ino);
        n.mtime_ns = t;
        n.ctime_ns = t;
        Ok(self.attr_of(ino))
    }

    fn create(
        &mut self,
        dir: &ServerFh,
        name: &str,
        mode: u32,
        clock_ns: u64,
        _rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)> {
        let dir = self.resolve(dir)?;
        if self.find(dir, name)?.is_some() {
            return Err(SrvError::Exist);
        }
        self.entries(dir)?;
        let ino =
            self.alloc(Node::new(ObjKind::File, mode, clock_ns, Content::File { data: vec![] }));
        self.entries_mut(dir)?.insert(name.to_owned(), ino);
        self.touch_dir(dir, clock_ns);
        Ok((self.fh_of(ino), self.attr_of(ino)))
    }

    fn remove(&mut self, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        let dir = self.resolve(dir)?;
        let ino = self.find(dir, name)?.ok_or(SrvError::NoEnt)?;
        if self.node(ino).kind == ObjKind::Dir {
            return Err(SrvError::IsDir);
        }
        self.entries_mut(dir)?.remove(name);
        self.unlink_node(ino);
        self.touch_dir(dir, clock_ns);
        Ok(())
    }

    fn rename(
        &mut self,
        from_dir: &ServerFh,
        from_name: &str,
        to_dir: &ServerFh,
        to_name: &str,
        clock_ns: u64,
    ) -> SrvResult<()> {
        let fdir = self.resolve(from_dir)?;
        let tdir = self.resolve(to_dir)?;
        let ino = self.find(fdir, from_name)?.ok_or(SrvError::NoEnt)?;
        // A directory cannot be moved into itself or its own subtree.
        if self.node(ino).kind == ObjKind::Dir && self.is_within(ino, tdir) {
            return Err(SrvError::Inval);
        }
        if let Some(existing) = self.find(tdir, to_name)? {
            if existing == ino {
                return Ok(());
            }
            let src_is_dir = self.node(ino).kind == ObjKind::Dir;
            let dst_is_dir = self.node(existing).kind == ObjKind::Dir;
            match (src_is_dir, dst_is_dir) {
                (true, false) => return Err(SrvError::NotDir),
                (false, true) => return Err(SrvError::IsDir),
                (true, true) => {
                    if !self.entries(existing)?.is_empty() {
                        return Err(SrvError::NotEmpty);
                    }
                }
                (false, false) => {}
            }
            self.entries_mut(tdir)?.remove(to_name);
            self.unlink_node(existing);
        }
        self.entries_mut(fdir)?.remove(from_name);
        self.entries_mut(tdir)?.insert(to_name.to_owned(), ino);
        self.touch_dir(fdir, clock_ns);
        if fdir != tdir {
            self.touch_dir(tdir, clock_ns);
        }
        self.node_mut(ino).ctime_ns = clock_us(clock_ns);
        Ok(())
    }

    fn link(&mut self, fh: &ServerFh, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        let ino = self.resolve(fh)?;
        if self.node(ino).kind == ObjKind::Dir {
            return Err(SrvError::IsDir);
        }
        let dir = self.resolve(dir)?;
        if self.find(dir, name)?.is_some() {
            return Err(SrvError::Exist);
        }
        self.entries_mut(dir)?.insert(name.to_owned(), ino);
        let t = clock_us(clock_ns);
        let n = self.node_mut(ino);
        n.nlink += 1;
        n.ctime_ns = t;
        self.touch_dir(dir, clock_ns);
        Ok(())
    }

    fn symlink(
        &mut self,
        dir: &ServerFh,
        name: &str,
        target: &str,
        clock_ns: u64,
        _rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)> {
        let dir = self.resolve(dir)?;
        if self.find(dir, name)?.is_some() {
            return Err(SrvError::Exist);
        }
        self.entries(dir)?;
        let ino = self.alloc(Node::new(
            ObjKind::Symlink,
            0o777,
            clock_ns,
            Content::Symlink { target: target.to_owned() },
        ));
        self.entries_mut(dir)?.insert(name.to_owned(), ino);
        self.touch_dir(dir, clock_ns);
        Ok((self.fh_of(ino), self.attr_of(ino)))
    }

    fn readlink(&self, fh: &ServerFh) -> SrvResult<String> {
        let ino = self.resolve(fh)?;
        match &self.node(ino).content {
            Content::Symlink { target } => Ok(target.clone()),
            _ => Err(SrvError::Inval),
        }
    }

    fn mkdir(
        &mut self,
        dir: &ServerFh,
        name: &str,
        mode: u32,
        clock_ns: u64,
        _rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)> {
        let dir = self.resolve(dir)?;
        if self.find(dir, name)?.is_some() {
            return Err(SrvError::Exist);
        }
        self.entries(dir)?;
        let ino = self.alloc(Node::new(
            ObjKind::Dir,
            mode,
            clock_ns,
            Content::Dir { entries: BTreeMap::new() },
        ));
        self.entries_mut(dir)?.insert(name.to_owned(), ino);
        self.touch_dir(dir, clock_ns);
        Ok((self.fh_of(ino), self.attr_of(ino)))
    }

    fn rmdir(&mut self, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        let dir = self.resolve(dir)?;
        let ino = self.find(dir, name)?.ok_or(SrvError::NoEnt)?;
        if self.node(ino).kind != ObjKind::Dir {
            return Err(SrvError::NotDir);
        }
        if !self.entries(ino)?.is_empty() {
            return Err(SrvError::NotEmpty);
        }
        self.entries_mut(dir)?.remove(name);
        let node = self.nodes.remove(&ino).expect("present");
        if self.leaky {
            self.trash.insert(ino, node);
        }
        self.touch_dir(dir, clock_ns);
        Ok(())
    }

    fn readdir(&self, dir: &ServerFh) -> SrvResult<Vec<(String, ServerFh)>> {
        let dir = self.resolve(dir)?;
        // Lexicographic order (BTreeMap iteration) — happens to match the
        // abstract spec, unlike the other implementations.
        let out: Vec<(String, u64)> =
            self.entries(dir)?.iter().map(|(n, id)| (n.clone(), *id)).collect();
        Ok(out.into_iter().map(|(n, id)| (n, self.fh_of(id))).collect())
    }

    fn reset(&mut self, rng: &mut StdRng) {
        let leaky = self.leaky;
        *self = BtreeFs::new(self.fsid, rng);
        self.leaky = leaky;
    }

    fn remount(&mut self, rng: &mut StdRng) -> ServerFh {
        self.mask = rng.gen();
        self.fh_of(self.root_ino)
    }

    fn inject_corruption(&mut self, fh: &ServerFh) -> bool {
        let Ok(ino) = self.resolve(fh) else { return false };
        match &mut self.node_mut(ino).content {
            Content::File { data } if !data.is_empty() => {
                data.reverse();
                data.push(0xee);
                true
            }
            _ => false,
        }
    }

    fn footprint_bytes(&self) -> u64 {
        let count = |nodes: &BTreeMap<u64, Node>| -> u64 {
            nodes
                .values()
                .map(|n| match &n.content {
                    Content::File { data } => data.len() as u64,
                    Content::Dir { entries } => entries.len() as u64 * 40,
                    Content::Symlink { target } => target.len() as u64,
                })
                .sum::<u64>()
                + nodes.len() as u64 * 112
        };
        count(&self.nodes) + count(&self.trash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn fs() -> (BtreeFs, StdRng) {
        let mut rng = StdRng::seed_from_u64(3);
        let fs = BtreeFs::new(0x33, &mut rng);
        (fs, rng)
    }

    #[test]
    fn timestamps_truncate_to_microseconds() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (_, attr) = fs.create(&root, "f", 0o644, 1_234_567_891, &mut rng).unwrap();
        assert_eq!(attr.mtime_ns, 1_234_567_000, "sub-µs precision must be dropped");
    }

    #[test]
    fn readdir_is_sorted_here() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        fs.create(&root, "zz", 0o644, 1, &mut rng).unwrap();
        fs.create(&root, "aa", 0o644, 2, &mut rng).unwrap();
        let names: Vec<String> = fs.readdir(&root).unwrap().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["aa", "zz"]);
    }

    #[test]
    fn leak_accumulates_in_trash() {
        let (mut fs, mut rng) = fs();
        fs.leaky = true;
        let root = fs.root();
        for i in 0..5 {
            let name = format!("f{i}");
            fs.create(&root, &name, 0o644, 1, &mut rng).unwrap();
            fs.remove(&root, &name, 2).unwrap();
        }
        assert_eq!(fs.trash_len(), 5);
        let before = fs.footprint_bytes();
        fs.reset(&mut rng);
        assert_eq!(fs.trash_len(), 0);
        assert!(fs.footprint_bytes() < before, "reset reclaims the trash");
    }

    #[test]
    fn handles_are_masked_inos() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (fh, attr) = fs.create(&root, "f", 0o644, 1, &mut rng).unwrap();
        // The handle is not the raw fileid bytes.
        assert_ne!(fh, attr.fileid.to_be_bytes().to_vec());
        assert_eq!(fs.getattr(&fh).unwrap().fileid, attr.fileid);
    }

    #[test]
    fn remount_keeps_fileids_stable() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (_, before) = fs.create(&root, "f", 0o644, 1, &mut rng).unwrap();
        let new_root = fs.remount(&mut rng);
        let (_, after) = fs.lookup(&new_root, "f").unwrap();
        assert_eq!(before.fileid, after.fileid, "<fsid,fileid> must be persistent (§3.4)");
        assert_eq!(before.fsid, after.fsid);
    }
}
