//! Edge-case unit tests for the OODB wrapper: error codes, cycles and
//! self-references, oid generation reuse, traversal bounds, GC survival
//! under live references, and wire-format robustness for ops and replies.

use base::{ModifyLog, Wrapper};
use base_oodb::{err, Oid, OodbOp, OodbReply, OodbWrapper};
use base_crypto::Digest;
use base_pbft::ExecEnv;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct W {
    w: OodbWrapper,
    rng: StdRng,
    mods: ModifyLog,
    ts: u64,
}

impl W {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = OodbWrapper::new(base_oodb::ObjStore::new(&mut rng));
        Self { w, rng, mods: ModifyLog::new(), ts: 0 }
    }

    fn exec(&mut self, op: OodbOp) -> OodbReply {
        self.ts += 1;
        let mut env = ExecEnv::new(self.ts * 7, &mut self.rng);
        let bytes = self.w.execute(
            &op.to_bytes(),
            1,
            &self.ts.to_be_bytes(),
            false,
            &mut self.mods,
            &mut env,
        );
        OodbReply::from_bytes(&bytes).expect("reply decodes")
    }

    fn alloc(&mut self) -> Oid {
        match self.exec(OodbOp::New) {
            OodbReply::Handle(o) => o,
            other => panic!("alloc failed: {other:?}"),
        }
    }
}

#[test]
fn field_and_slot_range_errors() {
    let mut w = W::new(1);
    let a = w.alloc();
    assert_eq!(
        w.exec(OodbOp::Put { oid: a, field: base_oodb::FIELDS as u32, data: vec![1] }),
        OodbReply::Err(err::RANGE)
    );
    assert_eq!(
        w.exec(OodbOp::Get { oid: a, field: 99 }),
        OodbReply::Err(err::RANGE)
    );
    assert_eq!(
        w.exec(OodbOp::SetRef { from: a, slot: base_oodb::REF_SLOTS as u32, to: None }),
        OodbReply::Err(err::RANGE)
    );
    assert_eq!(w.exec(OodbOp::GetRef { from: a, slot: 77 }), OodbReply::Err(err::RANGE));
}

#[test]
fn stale_generation_is_rejected_after_index_reuse() {
    let mut w = W::new(2);
    let a = w.alloc();
    assert_eq!(w.exec(OodbOp::Delete { oid: a }), OodbReply::Ok);
    // The lowest free index is reused with a bumped generation.
    let b = w.alloc();
    assert_eq!(b.index, a.index, "allocator reuses the lowest index");
    assert_ne!(b.gen, a.gen, "generation must be bumped on reuse");
    assert_eq!(
        w.exec(OodbOp::Get { oid: a, field: 0 }),
        OodbReply::Err(err::STALE),
        "the old oid must dangle"
    );
    assert_eq!(w.exec(OodbOp::Get { oid: b, field: 0 }), OodbReply::Data(Vec::new()));
}

#[test]
fn self_reference_pins_and_releases() {
    let mut w = W::new(3);
    let a = w.alloc();
    assert_eq!(w.exec(OodbOp::SetRef { from: a, slot: 0, to: Some(a) }), OodbReply::Ok);
    assert_eq!(
        w.exec(OodbOp::Delete { oid: a }),
        OodbReply::Err(err::IN_USE),
        "a self-referenced object is still referenced"
    );
    assert_eq!(w.exec(OodbOp::SetRef { from: a, slot: 0, to: None }), OodbReply::Ok);
    assert_eq!(w.exec(OodbOp::Delete { oid: a }), OodbReply::Ok);
}

#[test]
fn reference_cycles_traverse_without_looping() {
    let mut w = W::new(4);
    let a = w.alloc();
    let b = w.alloc();
    let c = w.alloc();
    w.exec(OodbOp::SetRef { from: a, slot: 0, to: Some(b) });
    w.exec(OodbOp::SetRef { from: b, slot: 0, to: Some(c) });
    w.exec(OodbOp::SetRef { from: c, slot: 0, to: Some(a) });
    // A cycle of three: traversal must count each distinct object once.
    assert_eq!(w.exec(OodbOp::Traverse { root: a, depth: 100 }), OodbReply::Count(3));
    // Depth counts levels: 0 visits nothing, 1 visits only the root.
    assert_eq!(w.exec(OodbOp::Traverse { root: a, depth: 0 }), OodbReply::Count(0));
    assert_eq!(w.exec(OodbOp::Traverse { root: a, depth: 1 }), OodbReply::Count(1));
    // Diamond: a second path to the same node is not double-counted.
    w.exec(OodbOp::SetRef { from: a, slot: 1, to: Some(c) });
    assert_eq!(w.exec(OodbOp::Traverse { root: a, depth: 100 }), OodbReply::Count(3));
}

#[test]
fn overwriting_a_ref_slot_moves_the_refcount() {
    let mut w = W::new(5);
    let a = w.alloc();
    let b = w.alloc();
    let c = w.alloc();
    w.exec(OodbOp::SetRef { from: a, slot: 0, to: Some(b) });
    // Redirect the same slot from b to c: b's refcount must drop to zero.
    w.exec(OodbOp::SetRef { from: a, slot: 0, to: Some(c) });
    assert_eq!(w.exec(OodbOp::Delete { oid: b }), OodbReply::Ok, "b is unreferenced again");
    assert_eq!(w.exec(OodbOp::Delete { oid: c }), OodbReply::Err(err::IN_USE));
}

#[test]
fn deleted_objects_release_their_outgoing_references() {
    let mut w = W::new(6);
    let a = w.alloc();
    let b = w.alloc();
    w.exec(OodbOp::SetRef { from: a, slot: 2, to: Some(b) });
    assert_eq!(w.exec(OodbOp::Delete { oid: b }), OodbReply::Err(err::IN_USE));
    // Deleting the referrer must release its outgoing edge.
    assert_eq!(w.exec(OodbOp::Delete { oid: a }), OodbReply::Ok);
    assert_eq!(w.exec(OodbOp::Delete { oid: b }), OodbReply::Ok);
}

#[test]
fn data_survives_garbage_collections() {
    // Enough churn to trigger several relocating collections; the live
    // object's contents and identity must survive every move.
    let mut w = W::new(7);
    let keeper = w.alloc();
    w.exec(OodbOp::Put { oid: keeper, field: 1, data: b"survivor".to_vec() });
    for _ in 0..400 {
        let t = w.alloc();
        w.exec(OodbOp::Put { oid: t, field: 0, data: vec![0xaa; 64] });
        w.exec(OodbOp::Delete { oid: t });
    }
    assert_eq!(
        w.exec(OodbOp::Get { oid: keeper, field: 1 }),
        OodbReply::Data(b"survivor".to_vec())
    );
    assert_eq!(w.w.allocated(), 1);
}

#[test]
fn abstract_objects_are_stable_across_gc() {
    // get_obj output must not depend on concrete addresses (which GC
    // changes): snapshot, churn through collections, snapshot again.
    let mut w = W::new(8);
    let a = w.alloc();
    let b = w.alloc();
    w.exec(OodbOp::Put { oid: a, field: 0, data: b"alpha".to_vec() });
    w.exec(OodbOp::SetRef { from: a, slot: 0, to: Some(b) });
    let before_a = w.w.get_obj(a.index as u64);
    let before_b = w.w.get_obj(b.index as u64);
    for _ in 0..300 {
        let t = w.alloc();
        w.exec(OodbOp::Delete { oid: t });
    }
    assert_eq!(w.w.get_obj(a.index as u64), before_a);
    assert_eq!(w.w.get_obj(b.index as u64), before_b);
}

#[test]
fn malformed_op_bytes_reply_inval() {
    let mut w = W::new(9);
    let mut env = ExecEnv::new(1, &mut w.rng);
    let bytes = w.w.execute(b"\xff\xff\xff\xff", 1, &1u64.to_be_bytes(), false, &mut w.mods, &mut env);
    assert_eq!(OodbReply::from_bytes(&bytes), Some(OodbReply::Err(err::INVAL)));
}

/// A golden wire vector: fails naming the sample whose bytes moved, with
/// the row to paste if the move was intended.
fn assert_golden(what: &dyn std::fmt::Debug, bytes: &[u8], len: usize, sha: &str) {
    let actual = (bytes.len(), Digest::of(bytes).to_string());
    assert_eq!(actual, (len, sha.to_owned()), "the wire bytes of {what:?} moved");
}

#[test]
fn op_and_reply_wire_roundtrip() {
    let oid = Oid { index: 7, gen: 3 };
    // Each sample with the length and SHA-256 of its bytes.
    let ops = [
        (OodbOp::New, 4, "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"),
        (
            OodbOp::Put { oid, field: 2, data: b"payload".to_vec() },
            28,
            "967c8fa0c43a23fb4ef55587692834c2b7dc2ba0b220cd770fc826ece3bf7cb1",
        ),
        (
            OodbOp::Get { oid, field: 0 },
            16,
            "95c5c955b6556c3542b163e67faff5d7370ac1272e0b0bcce27c057bff368c48",
        ),
        (
            OodbOp::SetRef { from: oid, slot: 1, to: Some(Oid { index: 9, gen: 1 }) },
            28,
            "cd6bd1ca0b0b6ca61ae0be61ce295721cbe2be87b0fac4eab253c31d09092d16",
        ),
        (
            OodbOp::SetRef { from: oid, slot: 1, to: None },
            20,
            "01b7ed0d1fb39cbcf2af0166ec60548fe82198d82ecd1bea09b18b27edf9dad8",
        ),
        (
            OodbOp::GetRef { from: oid, slot: 3 },
            16,
            "8feab16ca9b56f50bf8926db6ea0f35464f85cb0ebf7e2e7f15cbfb529ce63b6",
        ),
        (
            OodbOp::Delete { oid },
            12,
            "7a35e19f653152dcde6efcc985d83e013fdba63beebd7dba82ff8bad42ab7616",
        ),
        (
            OodbOp::Traverse { root: oid, depth: 5 },
            16,
            "22cb43386fd2051debcfec57a7b68afb3541a15fb054951df14af144dbc1b946",
        ),
    ];
    for (op, len, sha) in ops {
        let bytes = op.to_bytes();
        assert_eq!(OodbOp::from_bytes(&bytes), Some(op.clone()), "{op:?}");
        assert_golden(&op, &bytes, len, sha);
    }
    let replies = [
        (
            OodbReply::Handle(oid),
            12,
            "c24a18f790f4a62930aab8e587ca836659aa8b3cefe1d630dfcf9aaf9544ceea",
        ),
        (
            OodbReply::Data(b"abc".to_vec()),
            12,
            "c7d50610c3f971626a67441c68089c9a84a188c6ee196dc9021b7998bfac31e0",
        ),
        (
            OodbReply::Ref(Some(oid)),
            16,
            "ca7da146b56c3ae8a7e985dede76354386450d8250d9cfd7fbfe7c59a24b47a2",
        ),
        (
            OodbReply::Ref(None),
            8,
            "9ee50aea7e52f17dc807488bbd631e368da3a3ad3d5a31ad4b0f049581366c4d",
        ),
        (
            OodbReply::Count(42),
            12,
            "6960eb0eb8f802eeab28d351296275db295e49245bb4cc31883df52ea1cc7f49",
        ),
        (OodbReply::Ok, 4, "1bc5d0e3df0ea12c4d0078668d14924f95106bbe173e196de50fe13a900b0937"),
        (
            OodbReply::Err(err::STALE),
            8,
            "4a181c72fece92f9908a6b8ad31911578f3827302b963e8008955b097a51e884",
        ),
    ];
    for (r, len, sha) in replies {
        let bytes = r.to_bytes();
        assert_eq!(OodbReply::from_bytes(&bytes), Some(r.clone()), "{r:?}");
        assert_golden(&r, &bytes, len, sha);
    }
    // Garbage never decodes to Some.
    assert_eq!(OodbOp::from_bytes(b""), None);
    assert_eq!(OodbReply::from_bytes(b"\x01\x02"), None);
}
