//! Property test: arbitrary operation schedules keep the three wrapped
//! implementations in perfect abstract agreement, and `put_objs` transfers
//! arbitrary reachable states between implementations. Also: the op bytes
//! a Byzantine client controls, the reply bytes a Byzantine replica does,
//! and abstract entries from a state transfer are decoded strictly.

#[path = "../../xdr/tests/support/hostile.rs"]
mod support;

use base::{ModifyLog, Wrapper};
use base_nfs::ops::{NfsOp, NfsReply, SetAttrs};
use base_nfs::spec::{AbstractObject, Fattr, NfsStatus, ObjKind, Oid};
use base_nfs::{BtreeFs, FlatFs, InodeFs, LogFs, NfsServer, NfsWrapper};
use base_pbft::ExecEnv;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CAP: u64 = 256;

/// A generated intent, resolved against live handles by the interpreter.
#[derive(Debug, Clone)]
enum Intent {
    CreateFile { dir: u8, name: u8 },
    Mkdir { dir: u8, name: u8 },
    Symlink { dir: u8, name: u8 },
    Write { file: u8, data: Vec<u8>, offset: u16 },
    Truncate { file: u8, size: u16 },
    Read { file: u8 },
    RemoveName { dir: u8, name: u8 },
    RmdirName { dir: u8, name: u8 },
    RenameFile { dir: u8, name: u8, to_dir: u8, to_name: u8 },
    Hardlink { file: u8, dir: u8, name: u8 },
    Readdir { dir: u8 },
    Getattr { any: u8 },
}

fn intent_strategy() -> impl Strategy<Value = Intent> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(dir, name)| Intent::CreateFile { dir, name }),
        (any::<u8>(), any::<u8>()).prop_map(|(dir, name)| Intent::Mkdir { dir, name }),
        (any::<u8>(), any::<u8>()).prop_map(|(dir, name)| Intent::Symlink { dir, name }),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..200), any::<u16>())
            .prop_map(|(file, data, offset)| Intent::Write { file, data, offset }),
        (any::<u8>(), any::<u16>()).prop_map(|(file, size)| Intent::Truncate { file, size }),
        any::<u8>().prop_map(|file| Intent::Read { file }),
        (any::<u8>(), any::<u8>()).prop_map(|(dir, name)| Intent::RemoveName { dir, name }),
        (any::<u8>(), any::<u8>()).prop_map(|(dir, name)| Intent::RmdirName { dir, name }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(dir, name, to_dir, to_name)| Intent::RenameFile { dir, name, to_dir, to_name }),
        (any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(file, dir, name)| Intent::Hardlink { file, dir, name }),
        any::<u8>().prop_map(|dir| Intent::Readdir { dir }),
        any::<u8>().prop_map(|any| Intent::Getattr { any }),
    ]
}

/// Tracks live handles so intents resolve to mostly-valid operations (error
/// paths still occur via name collisions and stale generations).
#[derive(Default)]
struct Model {
    dirs: Vec<Oid>,
    files: Vec<Oid>,
}

impl Model {
    fn dir(&self, sel: u8) -> Oid {
        if self.dirs.is_empty() {
            Oid::ROOT
        } else {
            self.dirs[sel as usize % self.dirs.len()]
        }
    }

    fn file(&self, sel: u8) -> Oid {
        if self.files.is_empty() {
            Oid { index: 7, gen: 1 } // Probably stale: exercises errors.
        } else {
            self.files[sel as usize % self.files.len()]
        }
    }

    fn name(sel: u8) -> String {
        format!("n{}", sel % 24)
    }

    /// Converts one intent into a concrete NfsOp.
    fn op_of(&self, intent: &Intent) -> NfsOp {
        match intent {
            Intent::CreateFile { dir, name } => {
                NfsOp::Create { dir: self.dir(*dir), name: Self::name(*name), mode: 0o644 }
            }
            Intent::Mkdir { dir, name } => {
                NfsOp::Mkdir { dir: self.dir(*dir), name: Self::name(*name), mode: 0o755 }
            }
            Intent::Symlink { dir, name } => NfsOp::Symlink {
                dir: self.dir(*dir),
                name: Self::name(*name),
                target: format!("/t/{}", name),
            },
            Intent::Write { file, data, offset } => NfsOp::Write {
                fh: self.file(*file),
                offset: u64::from(*offset % 4096),
                data: data.clone(),
            },
            Intent::Truncate { file, size } => NfsOp::Setattr {
                fh: self.file(*file),
                attrs: SetAttrs { size: Some(u64::from(*size % 8192)), ..Default::default() },
            },
            Intent::Read { file } => NfsOp::Read { fh: self.file(*file), offset: 0, count: 4096 },
            Intent::RemoveName { dir, name } => {
                NfsOp::Remove { dir: self.dir(*dir), name: Self::name(*name) }
            }
            Intent::RmdirName { dir, name } => {
                NfsOp::Rmdir { dir: self.dir(*dir), name: Self::name(*name) }
            }
            Intent::RenameFile { dir, name, to_dir, to_name } => NfsOp::Rename {
                from_dir: self.dir(*dir),
                from_name: Self::name(*name),
                to_dir: self.dir(*to_dir),
                to_name: Self::name(*to_name),
            },
            Intent::Hardlink { file, dir, name } => NfsOp::Link {
                fh: self.file(*file),
                dir: self.dir(*dir),
                name: Self::name(*name),
            },
            Intent::Readdir { dir } => NfsOp::Readdir { dir: self.dir(*dir) },
            Intent::Getattr { any } => NfsOp::Getattr {
                fh: if any % 2 == 0 { self.dir(*any) } else { self.file(*any) },
            },
        }
    }

    /// Folds a reply back into the model.
    fn observe(&mut self, op: &NfsOp, reply: &NfsReply) {
        match (op, reply) {
            (NfsOp::Create { .. }, NfsReply::Handle { fh, .. })
            | (NfsOp::Symlink { .. }, NfsReply::Handle { fh, .. }) => self.files.push(*fh),
            (NfsOp::Mkdir { .. }, NfsReply::Handle { fh, .. }) => self.dirs.push(*fh),
            (NfsOp::Remove { .. }, NfsReply::Ok)
            | (NfsOp::Rmdir { .. }, NfsReply::Ok)
            | (NfsOp::Rename { .. }, NfsReply::Ok) => {
                // Conservatively drop nothing: stale handles are legal and
                // must fail identically everywhere.
            }
            _ => {}
        }
    }
}

/// One wrapper with a private rng/clock world.
struct Impl<S: NfsServer> {
    w: NfsWrapper<S>,
    mods: ModifyLog,
    rng: StdRng,
    skew: u64,
    steps: u64,
}

impl<S: NfsServer> Impl<S> {
    fn exec(&mut self, op: &NfsOp, ts: u64) -> NfsReply {
        self.steps += 1;
        let clock = self.skew + self.steps * 997;
        let mut env = ExecEnv::new(clock, &mut self.rng);
        let bytes =
            self.w.execute(&op.to_bytes(), 1, &ts.to_be_bytes(), false, &mut self.mods, &mut env);
        NfsReply::from_bytes(&bytes).expect("well-formed reply")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_schedules_never_diverge(
        intents in proptest::collection::vec(intent_strategy(), 1..80),
        seeds: (u64, u64, u64),
    ) {
        let mut r1 = StdRng::seed_from_u64(seeds.0);
        let mut r2 = StdRng::seed_from_u64(seeds.1);
        let mut r3 = StdRng::seed_from_u64(seeds.2);
        let mut a = Impl {
            w: NfsWrapper::with_capacity(InodeFs::new(1, &mut r1), CAP),
            mods: ModifyLog::new(),
            rng: StdRng::seed_from_u64(seeds.0 ^ 1),
            skew: 0,
            steps: 0,
        };
        let mut b = Impl {
            w: NfsWrapper::with_capacity(LogFs::new(2, &mut r2), CAP),
            mods: ModifyLog::new(),
            rng: StdRng::seed_from_u64(seeds.1 ^ 2),
            skew: 1_000_000,
            steps: 0,
        };
        let mut c = Impl {
            w: NfsWrapper::with_capacity(BtreeFs::new(3, &mut r3), CAP),
            mods: ModifyLog::new(),
            rng: StdRng::seed_from_u64(seeds.2 ^ 3),
            skew: 777,
            steps: 0,
        };
        let mut r4 = StdRng::seed_from_u64(seeds.0 ^ seeds.1);
        let mut e = Impl {
            w: NfsWrapper::with_capacity(FlatFs::new(4, &mut r4), CAP),
            mods: ModifyLog::new(),
            rng: StdRng::seed_from_u64(seeds.1 ^ 77),
            skew: 31_337,
            steps: 0,
        };

        let mut model = Model::default();
        for (i, intent) in intents.iter().enumerate() {
            let op = model.op_of(intent);
            let ts = (i as u64 + 1) * 10;
            let ra = a.exec(&op, ts);
            let rb = b.exec(&op, ts);
            let rc = c.exec(&op, ts);
            let re = e.exec(&op, ts);
            prop_assert_eq!(&ra, &rb, "log-fs diverged on {:?}", &op);
            prop_assert_eq!(&ra, &rc, "btree-fs diverged on {:?}", &op);
            prop_assert_eq!(&ra, &re, "flat-fs diverged on {:?}", &op);
            model.observe(&op, &ra);
        }

        // Abstract states are identical.
        for i in 0..CAP {
            let oa = a.w.get_obj(i);
            prop_assert_eq!(b.w.get_obj(i), oa.clone(), "log-fs object {} diverged", i);
            prop_assert_eq!(c.w.get_obj(i), oa.clone(), "btree-fs object {} diverged", i);
            prop_assert_eq!(e.w.get_obj(i), oa, "flat-fs object {} diverged", i);
        }

        // And the full state transfers into a fresh implementation.
        let full: Vec<(u64, Option<Vec<u8>>)> = (0..CAP).map(|i| (i, a.w.get_obj(i))).collect();
        let mut rf = StdRng::seed_from_u64(99);
        let mut fresh = Impl {
            w: NfsWrapper::with_capacity(BtreeFs::new(9, &mut rf), CAP),
            mods: ModifyLog::new(),
            rng: StdRng::seed_from_u64(100),
            skew: 5,
            steps: 0,
        };
        {
            let mut env = ExecEnv::new(1, &mut fresh.rng);
            fresh.w.put_objs(&full, &mut env);
        }
        for (i, expected) in full {
            prop_assert_eq!(fresh.w.get_obj(i), expected, "transfer mismatch at {}", i);
        }
    }
}

fn arb_oid() -> impl Strategy<Value = Oid> {
    any::<(u32, u32)>().prop_map(|(index, gen)| Oid { index, gen })
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..40)
}

fn arb_op() -> impl Strategy<Value = NfsOp> {
    use proptest::option::of;
    let attrs = (of(any::<u32>()), of(any::<u32>()), of(any::<u32>()), of(any::<u64>()))
        .prop_map(|(mode, uid, gid, size)| SetAttrs { mode, uid, gid, size });
    (0u8..15, arb_oid(), arb_oid(), "\\PC{0,12}", "\\PC{0,12}", any::<(u64, u32)>(), arb_bytes(), attrs)
        .prop_map(|(kind, fh, dir, name, other, (offset, word), data, attrs)| match kind {
            0 => NfsOp::Getattr { fh },
            1 => NfsOp::Setattr { fh, attrs },
            2 => NfsOp::Lookup { dir, name },
            3 => NfsOp::Read { fh, offset, count: word },
            4 => NfsOp::Write { fh, offset, data },
            5 => NfsOp::Create { dir, name, mode: word },
            6 => NfsOp::Remove { dir, name },
            7 => NfsOp::Rename { from_dir: dir, from_name: name, to_dir: fh, to_name: other },
            8 => NfsOp::Link { fh, dir, name },
            9 => NfsOp::Symlink { dir, name, target: other },
            10 => NfsOp::Readlink { fh },
            11 => NfsOp::Mkdir { dir, name, mode: word },
            12 => NfsOp::Rmdir { dir, name },
            13 => NfsOp::Readdir { dir },
            _ => NfsOp::Statfs,
        })
}

fn arb_attr() -> impl Strategy<Value = Fattr> {
    (0u8..3, any::<(u32, u32, u32, u32)>(), any::<(u64, u64, u64, u64)>()).prop_map(
        |(kind, (mode, nlink, uid, gid), (size, atime_ns, mtime_ns, ctime_ns))| Fattr {
            kind: [ObjKind::File, ObjKind::Dir, ObjKind::Symlink][kind as usize],
            mode,
            nlink,
            uid,
            gid,
            size,
            atime_ns,
            mtime_ns,
            ctime_ns,
        },
    )
}

fn arb_entries() -> impl Strategy<Value = Vec<(String, Oid)>> {
    proptest::collection::vec(("\\PC{0,12}", arb_oid()), 0..6)
}

fn arb_reply() -> impl Strategy<Value = NfsReply> {
    use NfsStatus::*;
    const STATUSES: [NfsStatus; 10] =
        [NoEnt, Io, Exist, NotDir, IsDir, Inval, NoSpace, NameTooLong, NotEmpty, Stale];
    (0u8..8, 0usize..10, arb_attr(), arb_oid(), arb_bytes(), "\\PC{0,12}", arb_entries(), any::<(u64, u64)>())
        .prop_map(|(kind, status, attr, fh, data, target, entries, (capacity, in_use))| match kind {
            0 => NfsReply::Error(STATUSES[status]),
            1 => NfsReply::Attr(attr),
            2 => NfsReply::Handle { fh, attr },
            3 => NfsReply::Data(data),
            4 => NfsReply::Target(target),
            5 => NfsReply::Entries(entries),
            6 => NfsReply::Stats(capacity, in_use),
            _ => NfsReply::Ok,
        })
}

fn arb_entry() -> impl Strategy<Value = (u32, AbstractObject)> {
    (0u8..3, any::<u32>(), arb_attr(), arb_bytes(), arb_entries(), "\\PC{0,12}").prop_map(
        |(kind, gen, attr, data, entries, target)| {
            let obj = match kind {
                0 => AbstractObject::File { attr, data },
                1 => AbstractObject::Dir { attr, entries },
                _ => AbstractObject::Symlink { attr, target },
            };
            (gen, obj)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_op_bytes(op in arb_op(), noise in arb_bytes()) {
        support::hostile(&op, &noise, "NfsOp", 0);
        prop_assert_eq!(NfsOp::from_bytes(&op.to_bytes()), Some(op));
    }

    #[test]
    fn hostile_reply_bytes(reply in arb_reply(), noise in arb_bytes()) {
        support::hostile(&reply, &noise, "NfsReply", 0);
        prop_assert_eq!(NfsReply::from_bytes(&reply.to_bytes()), Some(reply));
    }

    /// An abstract array entry is `(generation, object)`: the tag of the
    /// object is the second word.
    #[test]
    fn hostile_entry_bytes(entry in arb_entry(), noise in arb_bytes()) {
        support::hostile(&entry, &noise, "AbstractObject", 4);
        let bytes = entry.1.encode_entry(entry.0);
        prop_assert_eq!(&bytes, &base_xdr::to_bytes(&entry));
        prop_assert_eq!(AbstractObject::decode_entry(&bytes), Ok(entry));
    }
}
