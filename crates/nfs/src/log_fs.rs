//! `LogFs`: a log-structured-flavoured file system — nodes keyed by random
//! 64-bit ids, directories ordered by name hash, an append-only journal
//! whose cleaner runs at non-deterministic thresholds.
//!
//! Non-determinism: file ids (and thus `fileid`s) are random, `readdir`
//! returns hash order, handles embed a mount epoch, timestamps come from
//! the local clock, and the journal cleaner makes the storage footprint
//! history-dependent.

use crate::server::{NfsServer, ObjKind, ServerFh, SrvAttr, SrvError, SrvResult, SrvSetAttr};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[derive(Debug, Clone)]
enum Content {
    File { data: Vec<u8> },
    /// Entries keyed by (name hash, name): iteration order is hash order.
    Dir { entries: BTreeMap<(u64, String), u64> },
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
        Node {
            kind,
            mode,
            uid: 0,
            gid: 0,
            nlink: 1,
            atime_ns: clock_ns,
            mtime_ns: clock_ns,
            ctime_ns: clock_ns,
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

/// The log-structured file system.
pub struct LogFs {
    fsid: u64,
    nodes: BTreeMap<u64, Node>,
    root_id: u64,
    /// Mount epoch baked into handles; bumped by remount.
    epoch: u64,
    /// Journal size in bytes (grows with every mutation, halved by the
    /// cleaner at a random threshold).
    journal_bytes: u64,
    clean_threshold: u64,
}

impl LogFs {
    /// Creates an empty file system.
    pub fn new(fsid: u64, rng: &mut StdRng) -> Self {
        let root_id: u64 = rng.gen();
        let mut nodes = BTreeMap::new();
        nodes.insert(
            root_id,
            Node::new(ObjKind::Dir, 0o755, 0, Content::Dir { entries: BTreeMap::new() }),
        );
        Self {
            fsid,
            nodes,
            root_id,
            epoch: rng.gen(),
            journal_bytes: 0,
            clean_threshold: 1 << (16 + (rng.gen::<u8>() % 6)),
        }
    }

    fn fh_of(&self, id: u64) -> ServerFh {
        let mut fh = Vec::with_capacity(16);
        fh.extend_from_slice(&id.to_be_bytes());
        fh.extend_from_slice(&self.epoch.to_be_bytes());
        fh
    }

    fn resolve(&self, fh: &ServerFh) -> SrvResult<u64> {
        if fh.len() != 16 {
            return Err(SrvError::Stale);
        }
        let id = u64::from_be_bytes(fh[0..8].try_into().expect("length checked"));
        let epoch = u64::from_be_bytes(fh[8..16].try_into().expect("length checked"));
        if epoch != self.epoch || !self.nodes.contains_key(&id) {
            return Err(SrvError::Stale);
        }
        Ok(id)
    }

    fn node(&self, id: u64) -> &Node {
        &self.nodes[&id]
    }

    fn node_mut(&mut self, id: u64) -> &mut Node {
        self.nodes.get_mut(&id).expect("resolved node")
    }

    fn journal(&mut self, bytes: u64) {
        self.journal_bytes += bytes + 64;
        if self.journal_bytes > self.clean_threshold {
            // The cleaner compacts the log.
            self.journal_bytes /= 2;
        }
    }

    fn fresh_id(&mut self, rng: &mut StdRng) -> u64 {
        loop {
            let id: u64 = rng.gen();
            if !self.nodes.contains_key(&id) {
                return id;
            }
        }
    }

    fn attr_of(&self, id: u64) -> SrvAttr {
        let n = self.node(id);
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
            fileid: id,
            atime_ns: n.atime_ns,
            mtime_ns: n.mtime_ns,
            ctime_ns: n.ctime_ns,
        }
    }

    fn entries(&self, id: u64) -> SrvResult<&BTreeMap<(u64, String), u64>> {
        match &self.node(id).content {
            Content::Dir { entries } => Ok(entries),
            _ => Err(SrvError::NotDir),
        }
    }

    fn entries_mut(&mut self, id: u64) -> SrvResult<&mut BTreeMap<(u64, String), u64>> {
        match &mut self.node_mut(id).content {
            Content::Dir { entries } => Ok(entries),
            _ => Err(SrvError::NotDir),
        }
    }

    fn find(&self, dir: u64, name: &str) -> SrvResult<Option<u64>> {
        Ok(self.entries(dir)?.get(&(name_hash(name), name.to_owned())).copied())
    }

    fn insert_entry(&mut self, dir: u64, name: &str, id: u64) -> SrvResult<()> {
        self.entries_mut(dir)?.insert((name_hash(name), name.to_owned()), id);
        Ok(())
    }

    fn remove_entry(&mut self, dir: u64, name: &str) -> SrvResult<()> {
        self.entries_mut(dir)?.remove(&(name_hash(name), name.to_owned()));
        Ok(())
    }

    fn touch_dir(&mut self, dir: u64, clock_ns: u64) {
        let n = self.node_mut(dir);
        n.mtime_ns = clock_ns;
        n.ctime_ns = clock_ns;
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

    fn unlink_node(&mut self, id: u64) {
        let n = self.node_mut(id);
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
        self.nodes.remove(&id);
    }

    fn file_data_mut(&mut self, id: u64) -> SrvResult<&mut Vec<u8>> {
        match &mut self.node_mut(id).content {
            Content::File { data } => Ok(data),
            Content::Dir { .. } => Err(SrvError::IsDir),
            Content::Symlink { .. } => Err(SrvError::Inval),
        }
    }
}

impl NfsServer for LogFs {
    fn root(&self) -> ServerFh {
        self.fh_of(self.root_id)
    }

    fn getattr(&self, fh: &ServerFh) -> SrvResult<SrvAttr> {
        let id = self.resolve(fh)?;
        Ok(self.attr_of(id))
    }

    fn setattr(&mut self, fh: &ServerFh, sa: SrvSetAttr, clock_ns: u64) -> SrvResult<SrvAttr> {
        let id = self.resolve(fh)?;
        if let Some(size) = sa.size {
            let data = self.file_data_mut(id)?;
            data.resize(size as usize, 0);
            self.node_mut(id).mtime_ns = clock_ns;
        }
        let n = self.node_mut(id);
        if let Some(mode) = sa.mode {
            n.mode = mode;
        }
        if let Some(uid) = sa.uid {
            n.uid = uid;
        }
        if let Some(gid) = sa.gid {
            n.gid = gid;
        }
        n.ctime_ns = clock_ns;
        self.journal(32);
        Ok(self.attr_of(id))
    }

    fn lookup(&mut self, dir: &ServerFh, name: &str) -> SrvResult<(ServerFh, SrvAttr)> {
        let dir = self.resolve(dir)?;
        match self.find(dir, name)? {
            Some(id) => Ok((self.fh_of(id), self.attr_of(id))),
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
        let id = self.resolve(fh)?;
        let out = match &self.node(id).content {
            Content::File { data } => {
                let start = (offset as usize).min(data.len());
                let end = (offset as usize).saturating_add(count as usize).min(data.len());
                data[start..end].to_vec()
            }
            Content::Dir { .. } => return Err(SrvError::IsDir),
            Content::Symlink { .. } => return Err(SrvError::Inval),
        };
        self.node_mut(id).atime_ns = clock_ns;
        Ok(out)
    }

    fn peek(&self, fh: &ServerFh, offset: u64, count: u32) -> SrvResult<Vec<u8>> {
        let id = self.resolve(fh)?;
        match &self.node(id).content {
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
        let id = self.resolve(fh)?;
        let file = self.file_data_mut(id)?;
        let end = offset as usize + data.len();
        if file.len() < end {
            file.resize(end, 0);
        }
        file[offset as usize..end].copy_from_slice(data);
        let n = self.node_mut(id);
        n.mtime_ns = clock_ns;
        n.ctime_ns = clock_ns;
        self.journal(data.len() as u64);
        Ok(self.attr_of(id))
    }

    fn create(
        &mut self,
        dir: &ServerFh,
        name: &str,
        mode: u32,
        clock_ns: u64,
        rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)> {
        let dir = self.resolve(dir)?;
        if self.find(dir, name)?.is_some() {
            return Err(SrvError::Exist);
        }
        // Ensure dir-ness before allocating.
        self.entries(dir)?;
        let id = self.fresh_id(rng);
        self.nodes
            .insert(id, Node::new(ObjKind::File, mode, clock_ns, Content::File { data: vec![] }));
        self.insert_entry(dir, name, id)?;
        self.touch_dir(dir, clock_ns);
        self.journal(96);
        Ok((self.fh_of(id), self.attr_of(id)))
    }

    fn remove(&mut self, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        let dir = self.resolve(dir)?;
        let id = self.find(dir, name)?.ok_or(SrvError::NoEnt)?;
        if self.node(id).kind == ObjKind::Dir {
            return Err(SrvError::IsDir);
        }
        self.remove_entry(dir, name)?;
        self.unlink_node(id);
        self.touch_dir(dir, clock_ns);
        self.journal(64);
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
        let id = self.find(fdir, from_name)?.ok_or(SrvError::NoEnt)?;
        // A directory cannot be moved into itself or its own subtree.
        if self.node(id).kind == ObjKind::Dir && self.is_within(id, tdir) {
            return Err(SrvError::Inval);
        }
        if let Some(existing) = self.find(tdir, to_name)? {
            if existing == id {
                return Ok(());
            }
            let src_is_dir = self.node(id).kind == ObjKind::Dir;
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
            self.remove_entry(tdir, to_name)?;
            self.unlink_node(existing);
        }
        self.remove_entry(fdir, from_name)?;
        self.insert_entry(tdir, to_name, id)?;
        self.touch_dir(fdir, clock_ns);
        if fdir != tdir {
            self.touch_dir(tdir, clock_ns);
        }
        self.node_mut(id).ctime_ns = clock_ns;
        self.journal(96);
        Ok(())
    }

    fn link(&mut self, fh: &ServerFh, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        let id = self.resolve(fh)?;
        if self.node(id).kind == ObjKind::Dir {
            return Err(SrvError::IsDir);
        }
        let dir = self.resolve(dir)?;
        if self.find(dir, name)?.is_some() {
            return Err(SrvError::Exist);
        }
        self.insert_entry(dir, name, id)?;
        let n = self.node_mut(id);
        n.nlink += 1;
        n.ctime_ns = clock_ns;
        self.touch_dir(dir, clock_ns);
        self.journal(64);
        Ok(())
    }

    fn symlink(
        &mut self,
        dir: &ServerFh,
        name: &str,
        target: &str,
        clock_ns: u64,
        rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)> {
        let dir = self.resolve(dir)?;
        if self.find(dir, name)?.is_some() {
            return Err(SrvError::Exist);
        }
        self.entries(dir)?;
        let id = self.fresh_id(rng);
        self.nodes.insert(
            id,
            Node::new(
                ObjKind::Symlink,
                0o777,
                clock_ns,
                Content::Symlink { target: target.to_owned() },
            ),
        );
        self.insert_entry(dir, name, id)?;
        self.touch_dir(dir, clock_ns);
        self.journal(96);
        Ok((self.fh_of(id), self.attr_of(id)))
    }

    fn readlink(&self, fh: &ServerFh) -> SrvResult<String> {
        let id = self.resolve(fh)?;
        match &self.node(id).content {
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
        rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)> {
        let dir = self.resolve(dir)?;
        if self.find(dir, name)?.is_some() {
            return Err(SrvError::Exist);
        }
        self.entries(dir)?;
        let id = self.fresh_id(rng);
        self.nodes.insert(
            id,
            Node::new(ObjKind::Dir, mode, clock_ns, Content::Dir { entries: BTreeMap::new() }),
        );
        self.insert_entry(dir, name, id)?;
        self.touch_dir(dir, clock_ns);
        self.journal(96);
        Ok((self.fh_of(id), self.attr_of(id)))
    }

    fn rmdir(&mut self, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        let dir = self.resolve(dir)?;
        let id = self.find(dir, name)?.ok_or(SrvError::NoEnt)?;
        if self.node(id).kind != ObjKind::Dir {
            return Err(SrvError::NotDir);
        }
        if !self.entries(id)?.is_empty() {
            return Err(SrvError::NotEmpty);
        }
        self.remove_entry(dir, name)?;
        self.nodes.remove(&id);
        self.touch_dir(dir, clock_ns);
        self.journal(64);
        Ok(())
    }

    fn readdir(&self, dir: &ServerFh) -> SrvResult<Vec<(String, ServerFh)>> {
        let dir = self.resolve(dir)?;
        // Hash order — implementation-defined, deliberately not sorted.
        let out: Vec<(String, u64)> =
            self.entries(dir)?.iter().map(|((_, n), id)| (n.clone(), *id)).collect();
        Ok(out.into_iter().map(|(n, id)| (n, self.fh_of(id))).collect())
    }

    fn reset(&mut self, rng: &mut StdRng) {
        *self = LogFs::new(self.fsid, rng);
    }

    fn remount(&mut self, rng: &mut StdRng) -> ServerFh {
        self.epoch = rng.gen();
        self.fh_of(self.root_id)
    }

    fn inject_corruption(&mut self, fh: &ServerFh) -> bool {
        let Ok(id) = self.resolve(fh) else { return false };
        match &mut self.node_mut(id).content {
            Content::File { data } if !data.is_empty() => {
                for b in data.iter_mut().take(64) {
                    *b ^= 0x5a;
                }
                true
            }
            _ => false,
        }
    }

    fn footprint_bytes(&self) -> u64 {
        let live: u64 = self
            .nodes
            .values()
            .map(|n| match &n.content {
                Content::File { data } => data.len() as u64,
                Content::Dir { entries } => entries.len() as u64 * 48,
                Content::Symlink { target } => target.len() as u64,
            })
            .sum();
        live + self.journal_bytes + self.nodes.len() as u64 * 96
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn fs() -> (LogFs, StdRng) {
        let mut rng = StdRng::seed_from_u64(2);
        let fs = LogFs::new(0x22, &mut rng);
        (fs, rng)
    }

    #[test]
    fn basic_file_lifecycle() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (fh, attr) = fs.create(&root, "f", 0o600, 10, &mut rng).unwrap();
        assert_eq!(attr.size, 0);
        fs.write(&fh, 0, b"payload", 20).unwrap();
        assert_eq!(fs.read(&fh, 1, 3, 30).unwrap(), b"ayl");
        fs.remove(&root, "f", 40).unwrap();
        assert_eq!(fs.getattr(&fh), Err(SrvError::Stale));
    }

    #[test]
    fn fileids_are_random_not_sequential() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (_, a) = fs.create(&root, "a", 0o644, 1, &mut rng).unwrap();
        let (_, b) = fs.create(&root, "b", 0o644, 1, &mut rng).unwrap();
        assert_ne!(a.fileid.wrapping_add(1), b.fileid, "ids must not look sequential");
    }

    #[test]
    fn readdir_is_hash_ordered() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        for n in ["aaa", "bbb", "ccc", "ddd"] {
            fs.create(&root, n, 0o644, 1, &mut rng).unwrap();
        }
        let names: Vec<String> = fs.readdir(&root).unwrap().into_iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        // With these four names, hash order differs from lexicographic
        // order (a deliberate property of the test data).
        assert_ne!(names, sorted, "expected hash order, got {names:?}");
    }

    #[test]
    fn journal_grows_and_cleans() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (fh, _) = fs.create(&root, "f", 0o644, 1, &mut rng).unwrap();
        let before = fs.footprint_bytes();
        for i in 0..100 {
            fs.write(&fh, 0, &vec![7u8; 1000], i).unwrap();
        }
        assert!(fs.footprint_bytes() > before, "journal must grow");
    }

    #[test]
    fn two_instances_diverge_concretely() {
        let mut rng1 = StdRng::seed_from_u64(100);
        let mut rng2 = StdRng::seed_from_u64(200);
        let mut a = LogFs::new(0x22, &mut rng1);
        let mut b = LogFs::new(0x22, &mut rng2);
        let (_, aa) = a.create(&a.root(), "same", 0o644, 1, &mut rng1).unwrap();
        let (_, ba) = b.create(&b.root(), "same", 0o644, 1, &mut rng2).unwrap();
        assert_ne!(aa.fileid, ba.fileid, "same logical op, different concrete ids");
    }
}
