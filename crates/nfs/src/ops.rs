//! The NFS operation/reply language used between clients and the
//! replicated file service. File handles are abstract [`Oid`]s.

use crate::spec::{Fattr, NfsStatus, Oid};
use base_xdr::{from_bytes, to_bytes, xdr_struct, xdr_union};

xdr_struct! {
    /// Attribute updates for `setattr` (unset fields are unchanged).
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
    pub struct SetAttrs {
        /// New permission bits.
        pub mode: Option<u32>,
        /// New owner.
        pub uid: Option<u32>,
        /// New group.
        pub gid: Option<u32>,
        /// New size (truncate / extend with zeros).
        pub size: Option<u64>,
    }
}

xdr_union! {
    /// An NFS operation (the subset of RFC 1094 the example exercises).
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum NfsOp {
        /// Read attributes.
        0 => Getattr {
            /// Target object.
            fh: Oid,
        },
        /// Update attributes.
        1 => Setattr {
            /// Target object.
            fh: Oid,
            /// Fields to change.
            attrs: SetAttrs,
        },
        /// Look a name up in a directory.
        2 => Lookup {
            /// Directory to search.
            dir: Oid,
            /// Entry name.
            name: String,
        },
        /// Read file data. Updates the abstract atime, so it runs through the
        /// full protocol (not the read-only path).
        3 => Read {
            /// File to read.
            fh: Oid,
            /// Byte offset.
            offset: u64,
            /// Maximum bytes to return.
            count: u32,
        },
        /// Write file data.
        4 => Write {
            /// File to write.
            fh: Oid,
            /// Byte offset.
            offset: u64,
            /// Bytes to store.
            data: Vec<u8>,
        },
        /// Create a regular file.
        5 => Create {
            /// Parent directory.
            dir: Oid,
            /// New entry name.
            name: String,
            /// Permission bits.
            mode: u32,
        },
        /// Remove a file or symlink.
        6 => Remove {
            /// Parent directory.
            dir: Oid,
            /// Entry name to remove.
            name: String,
        },
        /// Rename (moves files, symlinks and directories).
        7 => Rename {
            /// Source directory.
            from_dir: Oid,
            /// Source entry name.
            from_name: String,
            /// Destination directory.
            to_dir: Oid,
            /// Destination entry name.
            to_name: String,
        },
        /// Create a hard link to a file.
        8 => Link {
            /// Existing file.
            fh: Oid,
            /// Directory receiving the new link.
            dir: Oid,
            /// New entry name.
            name: String,
        },
        /// Create a symbolic link.
        9 => Symlink {
            /// Parent directory.
            dir: Oid,
            /// New entry name.
            name: String,
            /// Link target path.
            target: String,
        },
        /// Read a symlink target.
        10 => Readlink {
            /// The symlink.
            fh: Oid,
        },
        /// Create a directory.
        11 => Mkdir {
            /// Parent directory.
            dir: Oid,
            /// New entry name.
            name: String,
            /// Permission bits.
            mode: u32,
        },
        /// Remove an empty directory.
        12 => Rmdir {
            /// Parent directory.
            dir: Oid,
            /// Entry name to remove.
            name: String,
        },
        /// List a directory (lexicographically sorted, per the common spec).
        13 => Readdir {
            /// Directory to list.
            dir: Oid,
        },
        /// File-system statistics (computed over the abstract state).
        14 => Statfs,
    }
}

impl NfsOp {
    /// True for operations that can take the read-only optimization path
    /// (they change no abstract object; note `Read` changes atime).
    pub fn is_read_only(&self) -> bool {
        matches!(
            self,
            NfsOp::Getattr { .. }
                | NfsOp::Lookup { .. }
                | NfsOp::Readlink { .. }
                | NfsOp::Readdir { .. }
                | NfsOp::Statfs
        )
    }

    /// Encodes to protocol op bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        to_bytes(self)
    }

    /// Decodes from protocol op bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<NfsOp> {
        from_bytes(bytes).ok()
    }
}

xdr_union! {
    /// A reply from the file service.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum NfsReply {
        /// The operation failed.
        0 => Error(status: NfsStatus),
        /// Attributes (getattr, setattr, write).
        1 => Attr(attr: Fattr),
        /// A handle plus attributes (lookup, create, mkdir, symlink).
        2 => Handle {
            /// The object's oid (its NFS file handle).
            fh: Oid,
            /// The object's abstract attributes.
            attr: Fattr,
        },
        /// File data (read).
        3 => Data(data: Vec<u8>),
        /// A symlink target (readlink).
        4 => Target(target: String),
        /// Directory entries, lexicographically sorted (readdir).
        5 => Entries(entries: Vec<(String, Oid)>),
        /// File-system statistics: (capacity, objects in use).
        6 => Stats(capacity: u64, in_use: u64),
        /// Success with no payload (remove, rename, link, rmdir).
        7 => Ok,
    }
}

impl NfsReply {
    /// Encodes to reply bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        to_bytes(self)
    }

    /// Decodes from reply bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<NfsReply> {
        from_bytes(bytes).ok()
    }

    /// True unless this is an [`NfsReply::Error`].
    pub fn is_ok(&self) -> bool {
        !matches!(self, NfsReply::Error(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{assert_golden, ObjKind};

    #[test]
    fn ops_round_trip() {
        let oid = Oid { index: 5, gen: 2 };
        let root = Oid::ROOT;
        // Each op with the length and SHA-256 of its bytes.
        let ops = vec![
            (
                NfsOp::Getattr { fh: oid },
                12,
                "95bed66c00d2a45e01953487846e86f80191310907d828074b51e62bbaf66d19",
            ),
            (
                NfsOp::Setattr { fh: oid, attrs: SetAttrs { size: Some(10), ..Default::default() } },
                36,
                "b08d072b84917fef651d0cca8a7ac5967ba366534050c49fed9b18a30b4e3c76",
            ),
            (
                NfsOp::Lookup { dir: root, name: "f".into() },
                20,
                "46c20d5f0b08e1048df87a6e872e40905e7e3c6cab7cae23d93f2ee07b38dc39",
            ),
            (
                NfsOp::Read { fh: oid, offset: 4, count: 8 },
                24,
                "2ca4aa7392f5b6dd7a11a96f678553ab863f84724ede2096cd0149eb16d33fd5",
            ),
            (
                NfsOp::Write { fh: oid, offset: 0, data: vec![1, 2] },
                28,
                "d82f58ef869f220f9829df81d669ca7ab0e3d6e4c0ed6d8dba7fd5f445df4153",
            ),
            (
                NfsOp::Create { dir: root, name: "f".into(), mode: 0o644 },
                24,
                "96a6303c7db0b1e4c613bca06f78949dad35d6f48bfeec2e8189d2c227d12e71",
            ),
            (
                NfsOp::Remove { dir: root, name: "f".into() },
                20,
                "e543cba84aebc2a19c3a1fb9f9955bc17f560b0cf88f6892389f12bf382294fe",
            ),
            (
                NfsOp::Rename { from_dir: root, from_name: "a".into(), to_dir: oid, to_name: "b".into() },
                36,
                "1ba4ff960cc973c3e5961e93c4dc2d72320186c1da42def5864b184712b1d692",
            ),
            (
                NfsOp::Link { fh: oid, dir: root, name: "l".into() },
                28,
                "3cddde29aa447c21f2f7fa12a0cb54ab27cdd72689177b3dc74eb877c11c4cb7",
            ),
            (
                NfsOp::Symlink { dir: root, name: "s".into(), target: "/t".into() },
                28,
                "64374e888ae6bfd7eab88b1cf5fa7a2a0eca5ab25be0ffc73fa5b3a34ad2d194",
            ),
            (
                NfsOp::Readlink { fh: oid },
                12,
                "001712470f432204a50bd5b9bcdd8e6d0baeb9c3acc2ee45f4ea6449902e384f",
            ),
            (
                NfsOp::Mkdir { dir: root, name: "d".into(), mode: 0o755 },
                24,
                "17ae182c7b7f45eb052453b80545494579245a1200abdf804d4d888390db5ad9",
            ),
            (
                NfsOp::Rmdir { dir: root, name: "d".into() },
                20,
                "55fd59ea88e7076ee9c540c5866410b22e29cdfa880a52a44f7defcc06e9d064",
            ),
            (
                NfsOp::Readdir { dir: root },
                12,
                "f38296449aeb2c9d0620df10ace0a7b7511fce5ba906a96565a414b250115141",
            ),
            (NfsOp::Statfs, 4, "7fde8eebf388fcff667a89be60430cc6e198b1a78cb603a39cdd09885a3336e3"),
        ];
        for (op, len, sha) in ops {
            let bytes = op.to_bytes();
            assert_eq!(NfsOp::from_bytes(&bytes).unwrap(), op);
            assert_golden(&op, &bytes, len, sha);
        }
    }

    #[test]
    fn replies_round_trip() {
        let attr = Fattr::new(ObjKind::File, 0o644, 1, 2, 77);
        let replies = vec![
            (
                NfsReply::Error(NfsStatus::NoEnt),
                8,
                "cd04a4754498e06db5a13c5f371f1f04ff6d2470f24aa9bd886540e5dce77f70",
            ),
            (
                NfsReply::Attr(attr),
                56,
                "2ae13e61c949d68ab1a009e4fcde7e58ae2bc63f4042448476f2dbca07d68009",
            ),
            (
                NfsReply::Handle { fh: Oid { index: 3, gen: 9 }, attr },
                64,
                "0bdddff4919d33b675732cbfa90d275276968d797630852278ba703446f59e1e",
            ),
            (
                NfsReply::Data(vec![0xde, 0xad]),
                12,
                "8054fb7a589f774ca7fb6fba9919b3a27f40901fef41580c9d559b55f8a861ef",
            ),
            (
                NfsReply::Target("/x".into()),
                12,
                "36d69b9aa40c66e5dffbf9e2c6340c6cfd55ae9c7e38651b112282be9a1d23b1",
            ),
            (
                NfsReply::Entries(vec![("a".into(), Oid::ROOT)]),
                24,
                "28f4d0913378b43cae2c1b29f43dea1780ecb29108531bf171bc726ae0b8d72c",
            ),
            (
                NfsReply::Stats(65536, 12),
                20,
                "204540faf2ddb1e711c6285f4f8c7d902b2591b9efd17eaa437d1b3e89564836",
            ),
            (NfsReply::Ok, 4, "1561ade0621c5acf44b780521f95a1e0b19b4e5032945b860c4032fc28a3a23b"),
        ];
        for (r, len, sha) in replies {
            let bytes = r.to_bytes();
            assert_eq!(NfsReply::from_bytes(&bytes).unwrap(), r);
            assert_golden(&r, &bytes, len, sha);
        }
    }

    #[test]
    fn read_only_classification() {
        assert!(NfsOp::Getattr { fh: Oid::ROOT }.is_read_only());
        assert!(NfsOp::Readdir { dir: Oid::ROOT }.is_read_only());
        assert!(NfsOp::Statfs.is_read_only());
        // Read updates the abstract atime: full protocol.
        assert!(!NfsOp::Read { fh: Oid::ROOT, offset: 0, count: 1 }.is_read_only());
        assert!(!NfsOp::Write { fh: Oid::ROOT, offset: 0, data: vec![] }.is_read_only());
    }

    #[test]
    fn malformed_ops_rejected() {
        assert!(NfsOp::from_bytes(&[0, 0, 0, 99]).is_none());
        assert!(NfsOp::from_bytes(&[]).is_none());
    }
}
