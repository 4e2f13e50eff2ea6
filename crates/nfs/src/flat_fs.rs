//! `FlatFs`: a flat path-table file system — the directory structure is a
//! single `path → tag` map (directories are just prefixes plus a marker
//! node), and objects live in a separate `tag → node` store keyed by random
//! 64-bit tags.
//!
//! This is the fourth architecture family (after inode-table,
//! log-structured and BTree): directory renames rewrite whole key ranges of
//! the path table, `readdir` order follows a per-boot salted hash of the
//! name, handles are `tag ⊕ boot-salt` (volatile across reboots, stable
//! across renames like real NFS handles), and `fileid`s are the random
//! tags. With four distinct implementations, a four-replica group can run
//! a different one on every replica — the paper's ideal
//! opportunistic-N-version deployment.

use crate::server::{NfsServer, ObjKind, ServerFh, SrvAttr, SrvError, SrvResult, SrvSetAttr};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

fn hash64(salt: u64, s: &str) -> u64 {
    let mut h: u64 = salt ^ 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[derive(Debug, Clone)]
enum Payload {
    File(Vec<u8>),
    Dir,
    Symlink(String),
}

#[derive(Debug, Clone)]
struct Node {
    mode: u32,
    uid: u32,
    gid: u32,
    nlink: u32,
    atime_ns: u64,
    mtime_ns: u64,
    ctime_ns: u64,
    payload: Payload,
}

impl Node {
    fn new(kind: ObjKind, mode: u32, clock_ns: u64) -> Self {
        let payload = match kind {
            ObjKind::File => Payload::File(Vec::new()),
            ObjKind::Dir => Payload::Dir,
            ObjKind::Symlink => Payload::Symlink(String::new()),
        };
        Node {
            mode,
            uid: 0,
            gid: 0,
            nlink: 1,
            atime_ns: clock_ns,
            mtime_ns: clock_ns,
            ctime_ns: clock_ns,
            payload,
        }
    }

    fn kind(&self) -> ObjKind {
        match self.payload {
            Payload::File(_) => ObjKind::File,
            Payload::Dir => ObjKind::Dir,
            Payload::Symlink(_) => ObjKind::Symlink,
        }
    }
}

/// The flat path-table file system.
pub struct FlatFs {
    fsid: u64,
    /// Directory structure: full path → object tag. The root is "".
    paths: BTreeMap<String, u64>,
    /// Object store: tag → node.
    nodes: BTreeMap<u64, Node>,
    /// One representative (canonical) path per tag.
    tag_path: BTreeMap<u64, String>,
    /// Per-boot handle salt.
    salt: u64,
    root_tag: u64,
}

impl FlatFs {
    /// Creates an empty file system.
    pub fn new(fsid: u64, rng: &mut StdRng) -> Self {
        let root_tag: u64 = rng.gen();
        let mut fs = Self {
            fsid,
            paths: BTreeMap::new(),
            nodes: BTreeMap::new(),
            tag_path: BTreeMap::new(),
            salt: rng.gen(),
            root_tag,
        };
        fs.paths.insert(String::new(), root_tag);
        fs.tag_path.insert(root_tag, String::new());
        fs.nodes.insert(root_tag, Node::new(ObjKind::Dir, 0o755, 0));
        fs
    }

    fn fh_of(&self, tag: u64) -> ServerFh {
        (tag ^ self.salt).to_be_bytes().to_vec()
    }

    fn resolve(&self, fh: &ServerFh) -> SrvResult<u64> {
        if fh.len() != 8 {
            return Err(SrvError::Stale);
        }
        let tag = u64::from_be_bytes(fh.as_slice().try_into().expect("length checked")) ^ self.salt;
        if self.nodes.contains_key(&tag) {
            Ok(tag)
        } else {
            Err(SrvError::Stale)
        }
    }

    fn dir_path(&self, tag: u64) -> SrvResult<String> {
        match self.nodes.get(&tag).map(Node::kind) {
            Some(ObjKind::Dir) => Ok(self.tag_path[&tag].clone()),
            Some(_) => Err(SrvError::NotDir),
            None => Err(SrvError::Stale),
        }
    }

    fn child_path(dir: &str, name: &str) -> String {
        if dir.is_empty() {
            name.to_owned()
        } else {
            format!("{dir}/{name}")
        }
    }

    /// Direct children of `dir`, in salted-hash order.
    fn children(&self, dir: &str) -> Vec<(String, u64)> {
        let prefix = if dir.is_empty() { String::new() } else { format!("{dir}/") };
        let mut out = Vec::new();
        for (path, tag) in &self.paths {
            if path.is_empty() || !path.starts_with(&prefix) {
                continue;
            }
            let rest = &path[prefix.len()..];
            if !rest.is_empty() && !rest.contains('/') {
                out.push((rest.to_owned(), *tag));
            }
        }
        out.sort_by_key(|(name, _)| hash64(self.salt, name));
        out
    }

    fn attr_of(&self, tag: u64) -> SrvAttr {
        let n = &self.nodes[&tag];
        let size = match &n.payload {
            Payload::Dir => self.children(&self.tag_path[&tag]).len() as u64,
            Payload::File(d) => d.len() as u64,
            Payload::Symlink(t) => t.len() as u64,
        };
        SrvAttr {
            kind: n.kind(),
            mode: n.mode,
            nlink: match n.kind() {
                ObjKind::Dir => 2,
                _ => n.nlink,
            },
            uid: n.uid,
            gid: n.gid,
            size,
            fsid: self.fsid,
            fileid: tag,
            atime_ns: n.atime_ns,
            mtime_ns: n.mtime_ns,
            ctime_ns: n.ctime_ns,
        }
    }

    fn fresh_tag(&self, rng: &mut StdRng) -> u64 {
        loop {
            let t: u64 = rng.gen();
            if !self.nodes.contains_key(&t) {
                return t;
            }
        }
    }

    fn touch(&mut self, tag: u64, clock_ns: u64) {
        if let Some(n) = self.nodes.get_mut(&tag) {
            n.mtime_ns = clock_ns;
            n.ctime_ns = clock_ns;
        }
    }

    fn file_data_mut(&mut self, tag: u64) -> SrvResult<&mut Vec<u8>> {
        match self.nodes.get_mut(&tag).map(|n| &mut n.payload) {
            Some(Payload::File(d)) => Ok(d),
            Some(Payload::Dir) => Err(SrvError::IsDir),
            Some(Payload::Symlink(_)) => Err(SrvError::Inval),
            None => Err(SrvError::Stale),
        }
    }

    /// Removes the path binding and drops one link; reclaims the node
    /// (recursively for directories) at zero links.
    fn unlink_path(&mut self, path: &str) {
        let Some(tag) = self.paths.remove(path) else { return };
        if self.tag_path.get(&tag).map(String::as_str) == Some(path) {
            // Re-point the canonical path if another link remains.
            let other = self.paths.iter().find(|(_, t)| **t == tag).map(|(p, _)| p.clone());
            match other {
                Some(p) => {
                    self.tag_path.insert(tag, p);
                }
                None => {
                    self.tag_path.remove(&tag);
                }
            }
        }
        let n = self.nodes.get_mut(&tag).expect("path implies node");
        if n.nlink > 1 {
            n.nlink -= 1;
            return;
        }
        if n.kind() == ObjKind::Dir {
            let prefix = format!("{path}/");
            let mut children: Vec<String> =
                self.paths.keys().filter(|p| p.starts_with(&prefix)).cloned().collect();
            // Deepest first so directories empty out bottom-up.
            children.sort_by_key(|p| std::cmp::Reverse(p.len()));
            for c in children {
                self.unlink_path(&c);
            }
        }
        self.nodes.remove(&tag);
    }

    /// Moves the subtree rooted at `from` to `to` (path rewriting).
    fn move_subtree(&mut self, from: &str, to: &str) {
        let from_prefix = format!("{from}/");
        let affected: Vec<String> = self
            .paths
            .keys()
            .filter(|p| *p == from || p.starts_with(&from_prefix))
            .cloned()
            .collect();
        for old in affected {
            let new = format!("{to}{}", &old[from.len()..]);
            let tag = self.paths.remove(&old).expect("listed above");
            if self.tag_path.get(&tag).map(String::as_str) == Some(old.as_str()) {
                self.tag_path.insert(tag, new.clone());
            }
            self.paths.insert(new, tag);
        }
    }
}

impl NfsServer for FlatFs {
    fn root(&self) -> ServerFh {
        self.fh_of(self.root_tag)
    }

    fn getattr(&self, fh: &ServerFh) -> SrvResult<SrvAttr> {
        let tag = self.resolve(fh)?;
        Ok(self.attr_of(tag))
    }

    fn setattr(&mut self, fh: &ServerFh, sa: SrvSetAttr, clock_ns: u64) -> SrvResult<SrvAttr> {
        let tag = self.resolve(fh)?;
        if let Some(size) = sa.size {
            let d = self.file_data_mut(tag)?;
            d.resize(size as usize, 0);
            self.nodes.get_mut(&tag).expect("resolved").mtime_ns = clock_ns;
        }
        let n = self.nodes.get_mut(&tag).expect("resolved");
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
        Ok(self.attr_of(tag))
    }

    fn lookup(&mut self, dir: &ServerFh, name: &str) -> SrvResult<(ServerFh, SrvAttr)> {
        let d = self.dir_path(self.resolve(dir)?)?;
        match self.paths.get(&Self::child_path(&d, name)) {
            Some(&tag) => Ok((self.fh_of(tag), self.attr_of(tag))),
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
        let tag = self.resolve(fh)?;
        let out = match &self.nodes[&tag].payload {
            Payload::File(d) => {
                let start = (offset as usize).min(d.len());
                let end = (offset as usize).saturating_add(count as usize).min(d.len());
                d[start..end].to_vec()
            }
            Payload::Dir => return Err(SrvError::IsDir),
            Payload::Symlink(_) => return Err(SrvError::Inval),
        };
        self.nodes.get_mut(&tag).expect("resolved").atime_ns = clock_ns;
        Ok(out)
    }

    fn peek(&self, fh: &ServerFh, offset: u64, count: u32) -> SrvResult<Vec<u8>> {
        let tag = self.resolve(fh)?;
        match &self.nodes[&tag].payload {
            Payload::File(d) => {
                let start = (offset as usize).min(d.len());
                let end = (offset as usize).saturating_add(count as usize).min(d.len());
                Ok(d[start..end].to_vec())
            }
            Payload::Dir => Err(SrvError::IsDir),
            Payload::Symlink(_) => Err(SrvError::Inval),
        }
    }

    fn write(
        &mut self,
        fh: &ServerFh,
        offset: u64,
        data: &[u8],
        clock_ns: u64,
    ) -> SrvResult<SrvAttr> {
        let tag = self.resolve(fh)?;
        let file = self.file_data_mut(tag)?;
        let end = offset as usize + data.len();
        if file.len() < end {
            file.resize(end, 0);
        }
        file[offset as usize..end].copy_from_slice(data);
        let n = self.nodes.get_mut(&tag).expect("resolved");
        n.mtime_ns = clock_ns;
        n.ctime_ns = clock_ns;
        Ok(self.attr_of(tag))
    }

    fn create(
        &mut self,
        dir: &ServerFh,
        name: &str,
        mode: u32,
        clock_ns: u64,
        rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)> {
        let d = self.dir_path(self.resolve(dir)?)?;
        let child = Self::child_path(&d, name);
        if self.paths.contains_key(&child) {
            return Err(SrvError::Exist);
        }
        let tag = self.fresh_tag(rng);
        self.nodes.insert(tag, Node::new(ObjKind::File, mode, clock_ns));
        self.paths.insert(child.clone(), tag);
        self.tag_path.insert(tag, child);
        let dtag = self.paths[&d];
        self.touch(dtag, clock_ns);
        Ok((self.fh_of(tag), self.attr_of(tag)))
    }

    fn remove(&mut self, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        let d = self.dir_path(self.resolve(dir)?)?;
        let child = Self::child_path(&d, name);
        match self.paths.get(&child).map(|t| self.nodes[t].kind()) {
            Some(ObjKind::Dir) => return Err(SrvError::IsDir),
            None => return Err(SrvError::NoEnt),
            _ => {}
        }
        self.unlink_path(&child);
        let dtag = self.paths[&d];
        self.touch(dtag, clock_ns);
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
        let fd = self.dir_path(self.resolve(from_dir)?)?;
        let td = self.dir_path(self.resolve(to_dir)?)?;
        let from = Self::child_path(&fd, from_name);
        let to = Self::child_path(&td, to_name);
        let src_tag = *self.paths.get(&from).ok_or(SrvError::NoEnt)?;
        if from == to {
            return Ok(());
        }
        let src_is_dir = self.nodes[&src_tag].kind() == ObjKind::Dir;
        // A directory cannot be moved into itself or its own subtree.
        if src_is_dir && (td == from || td.starts_with(&format!("{from}/"))) {
            return Err(SrvError::Inval);
        }
        if let Some(&dst_tag) = self.paths.get(&to) {
            if dst_tag == src_tag {
                return Ok(());
            }
            let dst_is_dir = self.nodes[&dst_tag].kind() == ObjKind::Dir;
            match (src_is_dir, dst_is_dir) {
                (true, false) => return Err(SrvError::NotDir),
                (false, true) => return Err(SrvError::IsDir),
                (true, true) => {
                    if !self.children(&to).is_empty() {
                        return Err(SrvError::NotEmpty);
                    }
                }
                (false, false) => {}
            }
            self.unlink_path(&to);
        }
        if src_is_dir {
            self.move_subtree(&from, &to);
        } else {
            let tag = self.paths.remove(&from).expect("source exists");
            if self.tag_path.get(&tag).map(String::as_str) == Some(from.as_str()) {
                self.tag_path.insert(tag, to.clone());
            }
            self.paths.insert(to, tag);
        }
        let fdtag = self.paths[&fd];
        self.touch(fdtag, clock_ns);
        if fd != td {
            let tdtag = self.paths[&td];
            self.touch(tdtag, clock_ns);
        }
        self.nodes.get_mut(&src_tag).expect("moved").ctime_ns = clock_ns;
        Ok(())
    }

    fn link(&mut self, fh: &ServerFh, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        let tag = self.resolve(fh)?;
        if self.nodes[&tag].kind() == ObjKind::Dir {
            return Err(SrvError::IsDir);
        }
        let d = self.dir_path(self.resolve(dir)?)?;
        let child = Self::child_path(&d, name);
        if self.paths.contains_key(&child) {
            return Err(SrvError::Exist);
        }
        self.paths.insert(child, tag);
        let n = self.nodes.get_mut(&tag).expect("resolved");
        n.nlink += 1;
        n.ctime_ns = clock_ns;
        let dtag = self.paths[&d];
        self.touch(dtag, clock_ns);
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
        let d = self.dir_path(self.resolve(dir)?)?;
        let child = Self::child_path(&d, name);
        if self.paths.contains_key(&child) {
            return Err(SrvError::Exist);
        }
        let tag = self.fresh_tag(rng);
        let mut node = Node::new(ObjKind::Symlink, 0o777, clock_ns);
        node.payload = Payload::Symlink(target.to_owned());
        self.nodes.insert(tag, node);
        self.paths.insert(child.clone(), tag);
        self.tag_path.insert(tag, child);
        let dtag = self.paths[&d];
        self.touch(dtag, clock_ns);
        Ok((self.fh_of(tag), self.attr_of(tag)))
    }

    fn readlink(&self, fh: &ServerFh) -> SrvResult<String> {
        let tag = self.resolve(fh)?;
        match &self.nodes[&tag].payload {
            Payload::Symlink(t) => Ok(t.clone()),
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
        let d = self.dir_path(self.resolve(dir)?)?;
        let child = Self::child_path(&d, name);
        if self.paths.contains_key(&child) {
            return Err(SrvError::Exist);
        }
        let tag = self.fresh_tag(rng);
        self.nodes.insert(tag, Node::new(ObjKind::Dir, mode, clock_ns));
        self.paths.insert(child.clone(), tag);
        self.tag_path.insert(tag, child);
        let dtag = self.paths[&d];
        self.touch(dtag, clock_ns);
        Ok((self.fh_of(tag), self.attr_of(tag)))
    }

    fn rmdir(&mut self, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        let d = self.dir_path(self.resolve(dir)?)?;
        let child = Self::child_path(&d, name);
        match self.paths.get(&child).map(|t| self.nodes[t].kind()) {
            Some(ObjKind::Dir) => {}
            Some(_) => return Err(SrvError::NotDir),
            None => return Err(SrvError::NoEnt),
        }
        if !self.children(&child).is_empty() {
            return Err(SrvError::NotEmpty);
        }
        self.unlink_path(&child);
        let dtag = self.paths[&d];
        self.touch(dtag, clock_ns);
        Ok(())
    }

    fn readdir(&self, dir: &ServerFh) -> SrvResult<Vec<(String, ServerFh)>> {
        let d = self.dir_path(self.resolve(dir)?)?;
        Ok(self.children(&d).into_iter().map(|(name, tag)| (name, self.fh_of(tag))).collect())
    }

    fn reset(&mut self, rng: &mut StdRng) {
        *self = FlatFs::new(self.fsid, rng);
    }

    fn remount(&mut self, rng: &mut StdRng) -> ServerFh {
        self.salt = rng.gen();
        self.fh_of(self.root_tag)
    }

    fn inject_corruption(&mut self, fh: &ServerFh) -> bool {
        let Ok(tag) = self.resolve(fh) else { return false };
        match self.nodes.get_mut(&tag).map(|n| &mut n.payload) {
            Some(Payload::File(d)) if !d.is_empty() => {
                for b in d.iter_mut() {
                    *b = !*b;
                }
                true
            }
            _ => false,
        }
    }

    fn footprint_bytes(&self) -> u64 {
        let paths: u64 = self.paths.keys().map(|p| p.len() as u64 + 48).sum();
        let nodes: u64 = self
            .nodes
            .values()
            .map(|n| {
                96 + match &n.payload {
                    Payload::File(d) => d.len() as u64,
                    Payload::Dir => 0,
                    Payload::Symlink(t) => t.len() as u64,
                }
            })
            .sum();
        paths + nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn fs() -> (FlatFs, StdRng) {
        let mut rng = StdRng::seed_from_u64(4);
        let fs = FlatFs::new(0x44, &mut rng);
        (fs, rng)
    }

    #[test]
    fn basic_tree_operations() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (d, _) = fs.mkdir(&root, "d", 0o755, 1, &mut rng).unwrap();
        let (f, _) = fs.create(&d, "f", 0o644, 2, &mut rng).unwrap();
        fs.write(&f, 0, b"flat", 3).unwrap();
        assert_eq!(fs.read(&f, 0, 10, 4).unwrap(), b"flat");
        let (f2, a) = fs.lookup(&d, "f").unwrap();
        assert_eq!(f2, f);
        assert_eq!(a.size, 4);
    }

    #[test]
    fn handles_survive_renames() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (d, _) = fs.mkdir(&root, "old", 0o755, 1, &mut rng).unwrap();
        let (f, _) = fs.create(&d, "inner", 0o644, 2, &mut rng).unwrap();
        fs.write(&f, 0, b"deep", 3).unwrap();
        fs.rename(&root, "old", &root, "new", 4).unwrap();
        // Both the dir and the child handle remain valid (NFS semantics).
        assert!(fs.getattr(&d).is_ok());
        assert_eq!(fs.read(&f, 0, 10, 5).unwrap(), b"deep");
        assert_eq!(fs.lookup(&root, "old"), Err(SrvError::NoEnt));
        let (d2, _) = fs.lookup(&root, "new").unwrap();
        assert_eq!(d2, d);
    }

    #[test]
    fn fileid_survives_rename() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (_, before) = fs.create(&root, "a", 0o644, 1, &mut rng).unwrap();
        fs.rename(&root, "a", &root, "b", 2).unwrap();
        let (_, after) = fs.lookup(&root, "b").unwrap();
        assert_eq!(before.fileid, after.fileid, "<fsid,fileid> persistent");
    }

    #[test]
    fn hard_links_share_data_and_handle() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (f, _) = fs.create(&root, "x", 0o644, 1, &mut rng).unwrap();
        fs.write(&f, 0, b"shared", 2).unwrap();
        fs.link(&f, &root, "y", 3).unwrap();
        let (y, ya) = fs.lookup(&root, "y").unwrap();
        assert_eq!(y, f, "hard links resolve to the same handle");
        assert_eq!(ya.nlink, 2);
        fs.write(&y, 6, b"!", 4).unwrap();
        assert_eq!(fs.read(&f, 0, 10, 5).unwrap(), b"shared!");
        fs.remove(&root, "x", 6).unwrap();
        let (_, ya2) = fs.lookup(&root, "y").unwrap();
        assert_eq!(ya2.nlink, 1);
        assert_eq!(fs.read(&f, 0, 10, 7).unwrap(), b"shared!");
    }

    #[test]
    fn remount_invalidates_handles_keeps_paths() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (f, _) = fs.create(&root, "f", 0o644, 1, &mut rng).unwrap();
        fs.write(&f, 0, b"keep", 2).unwrap();
        let new_root = fs.remount(&mut rng);
        assert_eq!(fs.getattr(&f), Err(SrvError::Stale));
        let (f2, _) = fs.lookup(&new_root, "f").unwrap();
        assert_eq!(fs.read(&f2, 0, 10, 3).unwrap(), b"keep");
    }

    #[test]
    fn readdir_order_is_salted_hash() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        for n in ["a", "b", "c", "d", "e"] {
            fs.create(&root, n, 0o644, 1, &mut rng).unwrap();
        }
        let names: Vec<String> = fs.readdir(&root).unwrap().into_iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_ne!(names, sorted, "order must be hash-based, got {names:?}");
    }

    #[test]
    fn recursive_delete_reclaims_subtree() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (d, _) = fs.mkdir(&root, "d", 0o755, 1, &mut rng).unwrap();
        let (sub, _) = fs.mkdir(&d, "sub", 0o755, 2, &mut rng).unwrap();
        fs.create(&sub, "leaf", 0o644, 3, &mut rng).unwrap();
        assert_eq!(fs.rmdir(&root, "d", 4), Err(SrvError::NotEmpty));
        fs.remove(&sub, "leaf", 5).unwrap();
        fs.rmdir(&d, "sub", 6).unwrap();
        fs.rmdir(&root, "d", 7).unwrap();
        assert_eq!(fs.nodes.len(), 1, "only the root remains");
        assert_eq!(fs.paths.len(), 1);
    }
}
