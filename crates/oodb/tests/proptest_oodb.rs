//! Property tests: the OODB wrapper produces identical abstract behaviour
//! across differently-seeded (and therefore concretely divergent) stores,
//! for arbitrary operation schedules — including schedules that trigger
//! the relocating collector at different moments on each instance. Also:
//! the op bytes a Byzantine client controls and the reply bytes a Byzantine
//! replica does are decoded strictly.

#[path = "../../xdr/tests/support/hostile.rs"]
mod support;

use base::{ModifyLog, Wrapper};
use base_oodb::wrapper::{err, Oid, OodbOp, OodbReply};
use base_oodb::{ObjStore, OodbWrapper, N_OBJECTS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
enum Intent {
    New,
    Put { obj: u8, field: u8, data: Vec<u8> },
    Get { obj: u8, field: u8 },
    SetRef { from: u8, slot: u8, to: Option<u8> },
    GetRef { from: u8, slot: u8 },
    Delete { obj: u8 },
    Traverse { root: u8, depth: u8 },
}

fn intent_strategy() -> impl Strategy<Value = Intent> {
    prop_oneof![
        3 => Just(Intent::New),
        2 => (any::<u8>(), any::<u8>(), proptest::collection::vec(any::<u8>(), 0..40))
            .prop_map(|(obj, field, data)| Intent::Put { obj, field, data }),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(obj, field)| Intent::Get { obj, field }),
        2 => (any::<u8>(), any::<u8>(), proptest::option::of(any::<u8>()))
            .prop_map(|(from, slot, to)| Intent::SetRef { from, slot, to }),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(from, slot)| Intent::GetRef { from, slot }),
        1 => any::<u8>().prop_map(|obj| Intent::Delete { obj }),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(root, depth)| Intent::Traverse { root, depth }),
    ]
}

struct World {
    w: OodbWrapper,
    rng: StdRng,
    clock: u64,
}

impl World {
    fn new(seed: u64, skew: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = OodbWrapper::new(ObjStore::new(&mut rng));
        Self { w, rng, clock: skew }
    }

    fn exec(&mut self, op: &OodbOp, ts: u64) -> OodbReply {
        self.clock += 313;
        let mut mods = ModifyLog::new();
        let mut env = base_pbft::ExecEnv::new(self.clock, &mut self.rng);
        let bytes =
            self.w.execute(&op.to_bytes(), 1, &ts.to_be_bytes(), false, &mut mods, &mut env);
        OodbReply::from_bytes(&bytes).expect("well-formed reply")
    }
}

/// Resolves an intent against the live handle set.
fn op_of(intent: &Intent, handles: &[Oid]) -> OodbOp {
    let pick = |sel: u8| {
        if handles.is_empty() {
            Oid { index: 9, gen: 1 } // Probably stale.
        } else {
            handles[sel as usize % handles.len()]
        }
    };
    match intent {
        Intent::New => OodbOp::New,
        Intent::Put { obj, field, data } => {
            OodbOp::Put { oid: pick(*obj), field: u32::from(*field % 5), data: data.clone() }
        }
        Intent::Get { obj, field } => {
            OodbOp::Get { oid: pick(*obj), field: u32::from(*field % 5) }
        }
        Intent::SetRef { from, slot, to } => OodbOp::SetRef {
            from: pick(*from),
            slot: u32::from(*slot % 5),
            to: to.map(pick),
        },
        Intent::GetRef { from, slot } => {
            OodbOp::GetRef { from: pick(*from), slot: u32::from(*slot % 5) }
        }
        Intent::Delete { obj } => OodbOp::Delete { oid: pick(*obj) },
        Intent::Traverse { root, depth } => {
            OodbOp::Traverse { root: pick(*root), depth: u32::from(*depth % 16) }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn divergent_stores_agree_abstractly(
        intents in proptest::collection::vec(intent_strategy(), 1..120),
        seeds: (u64, u64),
    ) {
        let mut a = World::new(seeds.0, 0);
        let mut b = World::new(seeds.1, 5_000_000);
        let mut handles: Vec<Oid> = Vec::new();

        for (i, intent) in intents.iter().enumerate() {
            let op = op_of(intent, &handles);
            let ts = (i as u64 + 1) * 7;
            let ra = a.exec(&op, ts);
            let rb = b.exec(&op, ts);
            prop_assert_eq!(&ra, &rb, "diverged on {:?}", &op);
            match (&op, &ra) {
                (OodbOp::New, OodbReply::Handle(h)) => handles.push(*h),
                (OodbOp::Delete { oid }, OodbReply::Ok) => handles.retain(|h| h != oid),
                _ => {}
            }
        }

        // Abstract objects are identical everywhere, even though the
        // concrete addresses (and collection counts) differ.
        for i in 0..N_OBJECTS.min(300) {
            prop_assert_eq!(a.w.get_obj(i), b.w.get_obj(i), "object {} diverged", i);
        }

        // And the state transfers into a third fresh store.
        let full: Vec<(u64, Option<Vec<u8>>)> =
            (0..N_OBJECTS).map(|i| (i, a.w.get_obj(i))).collect();
        let mut c = World::new(seeds.0 ^ seeds.1, 777);
        {
            let mut env = base_pbft::ExecEnv::new(1, &mut c.rng);
            c.w.put_objs(&full, &mut env);
        }
        for (i, expected) in full.iter().take(300) {
            prop_assert_eq!(&c.w.get_obj(*i), expected, "transfer mismatch at {}", i);
        }
        // Refcount semantics survived the transfer: deleting a referenced
        // object is still refused.
        for h in &handles {
            let del_a = a.exec(&OodbOp::Delete { oid: *h }, 100_000);
            let del_c = c.exec(&OodbOp::Delete { oid: *h }, 100_000);
            prop_assert_eq!(&del_a, &del_c, "post-transfer delete of {:?} diverged", h);
            // Only check the first few to bound runtime.
            if h.index > 8 {
                break;
            }
        }
        let _ = err::STALE;
    }
}

fn arb_oid() -> impl Strategy<Value = Oid> {
    any::<(u32, u32)>().prop_map(|(index, gen)| Oid { index, gen })
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..40)
}

fn arb_op() -> impl Strategy<Value = OodbOp> {
    (0u8..7, arb_oid(), any::<u32>(), arb_bytes(), proptest::option::of(arb_oid())).prop_map(
        |(kind, oid, word, data, to)| match kind {
            0 => OodbOp::New,
            1 => OodbOp::Put { oid, field: word, data },
            2 => OodbOp::Get { oid, field: word },
            3 => OodbOp::SetRef { from: oid, slot: word, to },
            4 => OodbOp::GetRef { from: oid, slot: word },
            5 => OodbOp::Delete { oid },
            _ => OodbOp::Traverse { root: oid, depth: word },
        },
    )
}

fn arb_reply() -> impl Strategy<Value = OodbReply> {
    (0u8..6, proptest::option::of(arb_oid()), arb_oid(), arb_bytes(), any::<(u64, u32)>()).prop_map(
        |(kind, target, oid, data, (visited, code))| match kind {
            0 => OodbReply::Handle(oid),
            1 => OodbReply::Data(data),
            2 => OodbReply::Ref(target),
            3 => OodbReply::Count(visited),
            4 => OodbReply::Ok,
            _ => OodbReply::Err(code),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_op_bytes(op in arb_op(), noise in arb_bytes()) {
        support::hostile(&op, &noise, "OodbOp", 0);
        prop_assert_eq!(OodbOp::from_bytes(&op.to_bytes()), Some(op));
    }

    #[test]
    fn hostile_reply_bytes(reply in arb_reply(), noise in arb_bytes()) {
        support::hostile(&reply, &noise, "OodbReply", 0);
        prop_assert_eq!(OodbReply::from_bytes(&reply.to_bytes()), Some(reply));
    }
}
