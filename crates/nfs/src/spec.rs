//! The common abstract specification of the file service (paper §3.1).
//!
//! The abstract state is a fixed-size array of `<object, generation>`
//! pairs. Each object is identified by an *oid* — the concatenation of its
//! array index and generation number, used as the file handle visible to
//! clients. Objects are files (byte arrays), directories (name → oid
//! pairs, ordered lexicographically), symbolic links (a path string), or
//! null (the entry is free). Non-null objects carry the NFS `fattr`
//! metadata *minus* everything implementation-specific: `fsid`/`fileid`
//! are replaced by the oid, and all timestamps are the *abstract* (agreed)
//! ones. Every entry is XDR-encoded.

use base_xdr::{from_bytes, xdr_struct, xdr_union, XdrEncode, XdrEncoder, XdrError};

/// Default capacity of the abstract object array.
pub const DEFAULT_CAPACITY: u64 = 1 << 16;

xdr_struct! {
    /// An abstract object identifier: array index + generation number.
    ///
    /// Clients use oids as NFS file handles; the generation number makes
    /// handles of reallocated entries stale, exactly like NFS generation
    /// numbers — but chosen *deterministically* so all replicas agree.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
    pub struct Oid {
        /// Index into the abstract object array.
        pub index: u32,
        /// Generation number of the entry.
        pub gen: u32,
    }
}

impl Oid {
    /// The root directory's oid (entry 0, first generation).
    pub const ROOT: Oid = Oid { index: 0, gen: 1 };
}

impl std::fmt::Display for Oid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.index, self.gen)
    }
}

xdr_union! {
    /// Object kinds.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum ObjKind {
        /// Regular file.
        0 => File,
        /// Directory.
        1 => Dir,
        /// Symbolic link.
        2 => Symlink,
    }
}

xdr_struct! {
    /// Abstract file attributes (the NFS `fattr` with implementation-specific
    /// fields removed; timestamps are abstract nanoseconds).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct Fattr {
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
        /// Size in bytes (file data length / directory entry count).
        pub size: u64,
        /// Abstract access time (ns).
        pub atime_ns: u64,
        /// Abstract modification time (ns).
        pub mtime_ns: u64,
        /// Abstract attribute-change time (ns).
        pub ctime_ns: u64,
    }
}

impl Fattr {
    /// A fresh attribute record for a new object.
    pub fn new(kind: ObjKind, mode: u32, uid: u32, gid: u32, now_ns: u64) -> Self {
        Fattr {
            kind,
            mode,
            nlink: 1,
            uid,
            gid,
            size: 0,
            atime_ns: now_ns,
            mtime_ns: now_ns,
            ctime_ns: now_ns,
        }
    }
}

xdr_union! {
    /// A non-null abstract object.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum AbstractObject {
        /// A regular file: metadata + contents.
        0 => File {
            /// Attributes.
            attr: Fattr,
            /// File contents.
            data: Vec<u8>,
        },
        /// A directory: metadata + entries sorted lexicographically by name.
        1 => Dir {
            /// Attributes.
            attr: Fattr,
            /// `(name, oid)` pairs, strictly sorted by name.
            entries: Vec<(String, Oid)>,
        },
        /// A symbolic link: metadata + target path.
        2 => Symlink {
            /// Attributes.
            attr: Fattr,
            /// Link target.
            target: String,
        },
    }
}

impl AbstractObject {
    /// The object's attributes.
    pub fn attr(&self) -> &Fattr {
        match self {
            AbstractObject::File { attr, .. }
            | AbstractObject::Dir { attr, .. }
            | AbstractObject::Symlink { attr, .. } => attr,
        }
    }

    /// The object's kind.
    pub fn kind(&self) -> ObjKind {
        self.attr().kind
    }

    /// Encodes the abstract array entry: `(generation, object)` in XDR
    /// (paper: "Each entry in the array is encoded using XDR").
    pub fn encode_entry(&self, gen: u32) -> Vec<u8> {
        let mut enc = XdrEncoder::new();
        enc.put_u32(gen);
        self.encode(&mut enc);
        enc.finish()
    }

    /// Decodes an abstract array entry.
    pub fn decode_entry(bytes: &[u8]) -> Result<(u32, AbstractObject), XdrError> {
        from_bytes(bytes)
    }
}

xdr_union! {
    /// NFS-style status codes for the abstract operations, tagged with
    /// NFS's own `nfsstat` numbers (the Unix `errno`s).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum NfsStatus {
        /// No such file or directory.
        2 => NoEnt,
        /// Generic I/O error.
        5 => Io,
        /// Name already exists.
        17 => Exist,
        /// Not a directory.
        20 => NotDir,
        /// Is a directory.
        21 => IsDir,
        /// Invalid argument.
        22 => Inval,
        /// No space (abstract array exhausted).
        28 => NoSpace,
        /// Name too long.
        63 => NameTooLong,
        /// Directory not empty.
        66 => NotEmpty,
        /// Stale file handle (generation mismatch).
        70 => Stale,
    }
}

/// A golden wire vector: fails naming the sample whose bytes moved, with
/// the row to paste if the move was intended.
#[cfg(test)]
pub(crate) fn assert_golden(what: &dyn std::fmt::Debug, bytes: &[u8], len: usize, sha: &str) {
    let actual = (bytes.len(), base_crypto::Digest::of(bytes).to_string());
    assert_eq!(actual, (len, sha.to_owned()), "the wire bytes of {what:?} moved");
}

#[cfg(test)]
mod tests {
    use super::*;
    use base_xdr::to_bytes;

    fn attr() -> Fattr {
        Fattr::new(ObjKind::File, 0o644, 10, 20, 1_000)
    }

    #[test]
    fn oid_packs_and_unpacks() {
        let oid = Oid { index: 7, gen: 3 };
        assert_eq!(from_bytes::<Oid>(&to_bytes(&oid)).unwrap(), oid);
    }

    #[test]
    fn objects_round_trip() {
        // Each entry with the length and SHA-256 of its bytes.
        let objs = vec![
            (
                AbstractObject::File { attr: attr(), data: vec![1, 2, 3] },
                68,
                "aff28a95f01c0776074cc80da6ebb223b0b7275f83fbbe62cb65170a464e1cc6",
            ),
            (
                AbstractObject::Dir {
                    attr: Fattr::new(ObjKind::Dir, 0o755, 0, 0, 5),
                    entries: vec![
                        ("a".to_owned(), Oid { index: 1, gen: 1 }),
                        ("b".to_owned(), Oid { index: 2, gen: 4 }),
                    ],
                },
                96,
                "d21f4814603280a34a79b04569a22fa467cf70dce788e1a0ea895189d343e9ab",
            ),
            (
                AbstractObject::Symlink {
                    attr: Fattr::new(ObjKind::Symlink, 0o777, 0, 0, 5),
                    target: "/somewhere/else".to_owned(),
                },
                80,
                "8917b831c2e668d8b6284892d505ca9c9d204fed97eaddf7ee2e9a8c799cbd7c",
            ),
        ];
        for (obj, len, sha) in objs {
            let bytes = obj.encode_entry(9);
            let (gen, decoded) = AbstractObject::decode_entry(&bytes).unwrap();
            assert_eq!(gen, 9);
            assert_eq!(decoded, obj);
            assert_golden(&obj.kind(), &bytes, len, sha);
        }
    }

    #[test]
    fn entry_encoding_is_deterministic() {
        let d1 = AbstractObject::Dir {
            attr: Fattr::new(ObjKind::Dir, 0o755, 0, 0, 5),
            entries: vec![("x".to_owned(), Oid { index: 3, gen: 1 })],
        };
        assert_eq!(d1.encode_entry(1), d1.clone().encode_entry(1));
    }

    #[test]
    fn status_round_trip() {
        for s in [
            NfsStatus::NoEnt,
            NfsStatus::Exist,
            NfsStatus::NotDir,
            NfsStatus::IsDir,
            NfsStatus::NotEmpty,
            NfsStatus::Stale,
            NfsStatus::Inval,
            NfsStatus::NameTooLong,
            NfsStatus::NoSpace,
            NfsStatus::Io,
        ] {
            assert_eq!(from_bytes::<NfsStatus>(&to_bytes(&s)).unwrap(), s);
        }
    }

    #[test]
    fn malformed_object_rejected() {
        assert!(AbstractObject::decode_entry(&[0, 0, 0, 1, 0, 0, 0, 9]).is_err());
    }
}
