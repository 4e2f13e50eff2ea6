//! Conformance wrapper for the object store.
//!
//! Abstract specification: a fixed array of [`N_OBJECTS`] entries; each
//! non-null entry is `(generation, fields[4], refs[4], mtime)` XDR-encoded,
//! where refs are *abstract oids* and `mtime` is the agreed timestamp. The
//! wrapper's conformance rep maps oids to the store's volatile addresses,
//! chasing the garbage collector's relocations, and maintains deterministic
//! reference counts so deletion semantics never depend on when the
//! collector happens to run.

use crate::store::{ObjStore, FIELDS, REF_SLOTS};
use base::{ModifyLog, Wrapper};
use base_pbft::ExecEnv;
use base_xdr::{from_bytes, to_bytes, xdr_struct, xdr_union, XdrDecoder, XdrEncoder};
use std::collections::{BTreeSet, HashMap};

/// Capacity of the abstract object array.
pub const N_OBJECTS: u64 = 4096;

xdr_struct! {
    /// An abstract oid: index + generation packed like the NFS example.
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
    pub struct Oid {
        /// Array index.
        pub index: u32,
        /// Generation.
        pub gen: u32,
    }
}

xdr_union! {
    /// Operations on the replicated OODB.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum OodbOp {
        /// Allocates a new object; replies `Handle`.
        0 => New,
        /// Writes a scalar field.
        1 => Put {
            /// Target object.
            oid: Oid,
            /// Field index (`< FIELDS`).
            field: u32,
            /// New contents.
            data: Vec<u8>,
        },
        /// Reads a scalar field; replies `Data`.
        2 => Get {
            /// Target object.
            oid: Oid,
            /// Field index.
            field: u32,
        },
        /// Sets a reference slot (increments/decrements abstract refcounts).
        3 => SetRef {
            /// Source object.
            from: Oid,
            /// Slot index (`< REF_SLOTS`).
            slot: u32,
            /// New target (`None` clears).
            to: Option<Oid>,
        },
        /// Reads a reference slot; replies `Ref`.
        4 => GetRef {
            /// Source object.
            from: Oid,
            /// Slot index.
            slot: u32,
        },
        /// Deletes an unreferenced object.
        5 => Delete {
            /// Target object.
            oid: Oid,
        },
        /// Depth-bounded traversal from `root`; replies `Count` with the
        /// number of distinct objects visited (read-only, deterministic).
        6 => Traverse {
            /// Start object.
            root: Oid,
            /// Maximum depth.
            depth: u32,
        },
    }
}

xdr_union! {
    /// Replies.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum OodbReply {
        /// A new object's oid.
        0 => Handle(oid: Oid),
        /// Field contents.
        1 => Data(data: Vec<u8>),
        /// A reference slot's target.
        2 => Ref(target: Option<Oid>),
        /// Traversal result.
        3 => Count(visited: u64),
        /// Success.
        4 => Ok,
        /// Failure: stale oid, bad index, still referenced, out of space.
        5 => Err(code: u32),
    }
}

/// Error codes for [`OodbReply::Err`].
pub mod err {
    /// Stale or unknown oid.
    pub const STALE: u32 = 1;
    /// Field/slot out of range.
    pub const RANGE: u32 = 2;
    /// Object still referenced.
    pub const IN_USE: u32 = 3;
    /// Abstract array exhausted.
    pub const NO_SPACE: u32 = 4;
    /// Malformed operation.
    pub const INVAL: u32 = 5;
}

impl OodbOp {
    /// Encodes to op bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        to_bytes(self)
    }

    /// Decodes from op bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<OodbOp> {
        from_bytes(bytes).ok()
    }

    /// True for operations eligible for the read-only optimization.
    pub fn is_read_only(&self) -> bool {
        matches!(self, OodbOp::Get { .. } | OodbOp::GetRef { .. } | OodbOp::Traverse { .. })
    }
}

impl OodbReply {
    /// Encodes to reply bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        to_bytes(self)
    }

    /// Decodes from reply bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<OodbReply> {
        from_bytes(bytes).ok()
    }
}

#[derive(Debug, Clone, Default)]
struct RepEntry {
    gen: u32,
    addr: Option<u64>,
    pin: u64,
    /// Abstract references pointing at this entry (deterministic).
    refcount: u32,
    abs_mtime: u64,
}

/// The conformance wrapper for [`ObjStore`].
pub struct OodbWrapper {
    store: ObjStore,
    entries: Vec<RepEntry>,
    addr_to_index: HashMap<u64, u32>,
    next_fresh: u32,
    freed: BTreeSet<u32>,
    /// Newest agreed timestamp executed (for nondet validation).
    last_nondet: u64,
    /// Simulated base CPU cost per operation.
    pub op_cost_base: base_simnet::SimDuration,
    /// Simulated cost per object visited by a traversal.
    pub visit_cost: base_simnet::SimDuration,
}

impl OodbWrapper {
    /// Wraps a store.
    pub fn new(store: ObjStore) -> Self {
        Self {
            store,
            entries: vec![RepEntry::default(); N_OBJECTS as usize],
            addr_to_index: HashMap::new(),
            next_fresh: 0,
            freed: BTreeSet::new(),
            last_nondet: 0,
            op_cost_base: base_simnet::SimDuration::from_micros(4),
            visit_cost: base_simnet::SimDuration::from_nanos(200),
        }
    }

    /// Access to the wrapped store.
    pub fn store(&self) -> &ObjStore {
        &self.store
    }

    /// Mutable access to the wrapped store (fault injection).
    pub fn store_mut(&mut self) -> &mut ObjStore {
        &mut self.store
    }

    /// Number of allocated abstract objects.
    pub fn allocated(&self) -> u64 {
        self.entries.iter().filter(|e| e.addr.is_some()).count() as u64
    }

    fn apply_moves(&mut self, moves: &HashMap<u64, u64>) {
        if moves.is_empty() {
            return;
        }
        for e in &mut self.entries {
            if let Some(a) = e.addr {
                if let Some(n) = moves.get(&a) {
                    e.addr = Some(*n);
                }
            }
        }
        self.addr_to_index.clear();
        for (i, e) in self.entries.iter().enumerate() {
            if let Some(a) = e.addr {
                self.addr_to_index.insert(a, i as u32);
            }
        }
    }

    fn resolve(&self, oid: Oid) -> Option<u64> {
        let e = self.entries.get(oid.index as usize)?;
        if e.gen == oid.gen {
            e.addr
        } else {
            None
        }
    }

    fn alloc_index(&mut self) -> Option<u32> {
        if let Some(&i) = self.freed.iter().next() {
            self.freed.remove(&i);
            return Some(i);
        }
        if u64::from(self.next_fresh) < N_OBJECTS {
            let i = self.next_fresh;
            self.next_fresh += 1;
            Some(i)
        } else {
            None
        }
    }

    fn note_modify(&mut self, index: u32, mods: &mut ModifyLog) {
        let mut capture = None;
        if !mods.is_dirty(u64::from(index)) {
            capture = Some(self.get_obj(u64::from(index)));
        }
        mods.modify(u64::from(index), || capture.expect("captured when needed"));
    }

    fn run(&mut self, op: OodbOp, now_ns: u64, mods: &mut ModifyLog, env: &mut ExecEnv<'_>) -> OodbReply {
        match op {
            OodbOp::New => {
                let Some(index) = self.alloc_index() else {
                    return OodbReply::Err(err::NO_SPACE);
                };
                self.note_modify(index, mods);
                let (addr, moves) = self.store.alloc(env.local_clock_ns, env.rng);
                if let Some(m) = moves {
                    self.apply_moves(&m);
                }
                let pin = self.store.pin(addr);
                let e = &mut self.entries[index as usize];
                e.gen = e.gen.wrapping_add(1).max(1);
                e.addr = Some(addr);
                e.pin = pin;
                e.refcount = 0;
                e.abs_mtime = now_ns;
                let gen = e.gen;
                self.addr_to_index.insert(addr, index);
                OodbReply::Handle(Oid { index, gen })
            }
            OodbOp::Put { oid, field, data } => {
                if field as usize >= FIELDS {
                    return OodbReply::Err(err::RANGE);
                }
                let Some(addr) = self.resolve(oid) else { return OodbReply::Err(err::STALE) };
                self.note_modify(oid.index, mods);
                self.store.set_field(addr, field as usize, data, env.local_clock_ns);
                self.entries[oid.index as usize].abs_mtime = now_ns;
                OodbReply::Ok
            }
            OodbOp::Get { oid, field } => {
                if field as usize >= FIELDS {
                    return OodbReply::Err(err::RANGE);
                }
                let Some(addr) = self.resolve(oid) else { return OodbReply::Err(err::STALE) };
                OodbReply::Data(
                    self.store.get(addr).expect("pinned").fields[field as usize].clone(),
                )
            }
            OodbOp::SetRef { from, slot, to } => {
                if slot as usize >= REF_SLOTS {
                    return OodbReply::Err(err::RANGE);
                }
                let Some(addr) = self.resolve(from) else { return OodbReply::Err(err::STALE) };
                let target_addr = match to {
                    Some(t) => match self.resolve(t) {
                        Some(a) => Some((t, a)),
                        None => return OodbReply::Err(err::STALE),
                    },
                    None => None,
                };
                self.note_modify(from.index, mods);
                // Adjust deterministic refcounts: old target down, new up.
                let old = self.store.get(addr).expect("pinned").refs[slot as usize];
                if let Some(old_addr) = old {
                    if let Some(&old_idx) = self.addr_to_index.get(&old_addr) {
                        self.entries[old_idx as usize].refcount =
                            self.entries[old_idx as usize].refcount.saturating_sub(1);
                    }
                }
                if let Some((_, ta)) = target_addr {
                    let ti = self.addr_to_index[&ta];
                    self.entries[ti as usize].refcount += 1;
                }
                self.store.set_ref(addr, slot as usize, target_addr.map(|(_, a)| a), env.local_clock_ns);
                self.entries[from.index as usize].abs_mtime = now_ns;
                OodbReply::Ok
            }
            OodbOp::GetRef { from, slot } => {
                if slot as usize >= REF_SLOTS {
                    return OodbReply::Err(err::RANGE);
                }
                let Some(addr) = self.resolve(from) else { return OodbReply::Err(err::STALE) };
                let target = self.store.get(addr).expect("pinned").refs[slot as usize];
                OodbReply::Ref(target.map(|a| {
                    let i = self.addr_to_index[&a];
                    Oid { index: i, gen: self.entries[i as usize].gen }
                }))
            }
            OodbOp::Delete { oid } => {
                let Some(addr) = self.resolve(oid) else { return OodbReply::Err(err::STALE) };
                if self.entries[oid.index as usize].refcount > 0 {
                    return OodbReply::Err(err::IN_USE);
                }
                self.note_modify(oid.index, mods);
                // Drop refcounts of everything this object pointed at.
                let refs = self.store.get(addr).expect("pinned").refs;
                for r in refs.iter().flatten() {
                    if let Some(&ti) = self.addr_to_index.get(r) {
                        self.entries[ti as usize].refcount =
                            self.entries[ti as usize].refcount.saturating_sub(1);
                    }
                }
                let pin = self.entries[oid.index as usize].pin;
                self.store.unpin(pin);
                self.addr_to_index.remove(&addr);
                let e = &mut self.entries[oid.index as usize];
                e.addr = None;
                e.refcount = 0;
                self.freed.insert(oid.index);
                OodbReply::Ok
            }
            OodbOp::Traverse { root, depth } => {
                let Some(addr) = self.resolve(root) else { return OodbReply::Err(err::STALE) };
                let mut seen = std::collections::HashSet::new();
                let mut frontier = vec![(addr, 0u32)];
                while let Some((a, d)) = frontier.pop() {
                    if d >= depth || !seen.insert(a) {
                        continue;
                    }
                    if let Some(o) = self.store.get(a) {
                        for r in o.refs.iter().flatten() {
                            frontier.push((*r, d + 1));
                        }
                    }
                }
                env.charge(self.visit_cost.saturating_mul(seen.len() as u64));
                OodbReply::Count(seen.len() as u64)
            }
        }
    }
}

impl Wrapper for OodbWrapper {
    fn execute(
        &mut self,
        op: &[u8],
        _client: u32,
        nondet: &[u8],
        read_only: bool,
        mods: &mut ModifyLog,
        env: &mut ExecEnv<'_>,
    ) -> Vec<u8> {
        let Some(op) = OodbOp::from_bytes(op) else {
            return OodbReply::Err(err::INVAL).to_bytes();
        };
        if read_only && !op.is_read_only() {
            return OodbReply::Err(err::INVAL).to_bytes();
        }
        let now_ns = if nondet.len() == 8 {
            u64::from_be_bytes(nondet.try_into().expect("checked length"))
        } else {
            0
        };
        self.last_nondet = self.last_nondet.max(now_ns);
        env.charge(self.op_cost_base);
        self.run(op, now_ns, mods, env).to_bytes()
    }

    fn get_obj(&self, index: u64) -> Option<Vec<u8>> {
        let e = self.entries.get(index as usize)?;
        let addr = e.addr?;
        let gen = e.gen;
        let mtime = e.abs_mtime;
        let obj = self.store.get(addr).expect("pinned").clone();
        let mut enc = XdrEncoder::new();
        enc.put_u32(gen);
        for f in &obj.fields {
            enc.put_opaque(f);
        }
        for r in &obj.refs {
            match r.and_then(|a| self.addr_to_index.get(&a).copied()) {
                Some(ti) => {
                    enc.put_bool(true);
                    enc.put_u32(ti);
                    enc.put_u32(self.entries[ti as usize].gen);
                }
                None => enc.put_bool(false),
            }
        }
        enc.put_u64(mtime);
        Some(enc.finish())
    }

    fn put_objs(&mut self, objs: &[(u64, Option<Vec<u8>>)], env: &mut ExecEnv<'_>) {
        // Phase 1: decode, and make every present object exist with the
        // right generation, fields and mtime (refs wired in phase 2).
        struct Decoded {
            index: u32,
            gen: u32,
            fields: Vec<Vec<u8>>,
            refs: Vec<Option<(u32, u32)>>,
            mtime: u64,
        }
        let mut present = Vec::new();
        let mut absent = Vec::new();
        for (index, data) in objs {
            let Some(bytes) = data else {
                absent.push(*index as u32);
                continue;
            };
            let mut dec = XdrDecoder::new(bytes);
            let parse = (|| -> Option<Decoded> {
                let gen = dec.get_u32().ok()?;
                let mut fields = Vec::with_capacity(FIELDS);
                for _ in 0..FIELDS {
                    fields.push(dec.get_opaque().ok()?);
                }
                let mut refs = Vec::with_capacity(REF_SLOTS);
                for _ in 0..REF_SLOTS {
                    if dec.get_bool().ok()? {
                        refs.push(Some((dec.get_u32().ok()?, dec.get_u32().ok()?)));
                    } else {
                        refs.push(None);
                    }
                }
                let mtime = dec.get_u64().ok()?;
                dec.finish().ok()?;
                Some(Decoded { index: *index as u32, gen, fields, refs, mtime })
            })();
            match parse {
                Some(d) => present.push(d),
                None => absent.push(*index as u32),
            }
        }

        for d in &present {
            let needs_alloc = {
                let e = &self.entries[d.index as usize];
                e.addr.is_none() || e.gen != d.gen
            };
            if needs_alloc {
                if let Some(old_addr) = self.entries[d.index as usize].addr.take() {
                    let pin = self.entries[d.index as usize].pin;
                    self.store.unpin(pin);
                    self.addr_to_index.remove(&old_addr);
                }
                let (addr, moves) = self.store.alloc(env.local_clock_ns, env.rng);
                if let Some(m) = moves {
                    self.apply_moves(&m);
                }
                let pin = self.store.pin(addr);
                let e = &mut self.entries[d.index as usize];
                e.addr = Some(addr);
                e.pin = pin;
                e.gen = d.gen;
                self.addr_to_index.insert(addr, d.index);
            }
            let addr = self.entries[d.index as usize].addr.expect("just ensured");
            for (i, f) in d.fields.iter().enumerate() {
                self.store.set_field(addr, i, f.clone(), env.local_clock_ns);
            }
            self.entries[d.index as usize].abs_mtime = d.mtime;
        }

        // Phase 2: wire references (every target now exists).
        for d in &present {
            let addr = self.entries[d.index as usize].addr.expect("phase 1");
            for (slot, r) in d.refs.iter().enumerate() {
                let target = r.and_then(|(ti, _)| self.entries[ti as usize].addr);
                self.store.set_ref(addr, slot, target, env.local_clock_ns);
            }
        }

        // Phase 3: release absent entries.
        for index in absent {
            if let Some(addr) = self.entries[index as usize].addr.take() {
                let pin = self.entries[index as usize].pin;
                self.store.unpin(pin);
                self.addr_to_index.remove(&addr);
            }
            self.entries[index as usize].refcount = 0;
        }

        // Phase 4: recompute the deterministic allocator and refcounts.
        self.freed.clear();
        let mut max_live = 0u32;
        for (i, e) in self.entries.iter().enumerate() {
            if e.addr.is_some() {
                max_live = max_live.max(i as u32);
            }
        }
        self.next_fresh = self.next_fresh.max(max_live + 1);
        for i in 0..self.next_fresh {
            if self.entries[i as usize].addr.is_none() {
                self.freed.insert(i);
            }
        }
        for e in &mut self.entries {
            e.refcount = 0;
        }
        let addrs: Vec<u64> = self.entries.iter().filter_map(|e| e.addr).collect();
        for a in addrs {
            let refs = self.store.get(a).expect("pinned").refs;
            for r in refs.iter().flatten() {
                if let Some(&ti) = self.addr_to_index.get(r) {
                    self.entries[ti as usize].refcount += 1;
                }
            }
        }
    }

    fn n_objects(&self) -> u64 {
        N_OBJECTS
    }

    fn last_nondet_ns(&self) -> u64 {
        self.last_nondet
    }

    fn reset(&mut self, env: &mut ExecEnv<'_>) {
        self.store.reset(env.rng);
        self.entries = vec![RepEntry::default(); N_OBJECTS as usize];
        self.addr_to_index.clear();
        self.next_fresh = 0;
        self.freed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn wrapper(seed: u64) -> (OodbWrapper, rand::rngs::StdRng) {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        (OodbWrapper::new(ObjStore::new(&mut r)), r)
    }

    fn exec(
        w: &mut OodbWrapper,
        mods: &mut ModifyLog,
        rng: &mut rand::rngs::StdRng,
        op: OodbOp,
        ts: u64,
        clock: u64,
    ) -> OodbReply {
        let mut env = ExecEnv::new(clock, rng);
        let bytes = w.execute(&op.to_bytes(), 1, &ts.to_be_bytes(), false, mods, &mut env);
        OodbReply::from_bytes(&bytes).expect("reply")
    }

    #[test]
    fn basic_lifecycle() {
        let (mut w, mut rng) = wrapper(1);
        let mut mods = ModifyLog::new();
        let h = exec(&mut w, &mut mods, &mut rng, OodbOp::New, 1, 10);
        let OodbReply::Handle(a) = h else { panic!("{h:?}") };
        assert_eq!(a, Oid { index: 0, gen: 1 });
        assert_eq!(
            exec(&mut w, &mut mods, &mut rng, OodbOp::Put { oid: a, field: 0, data: b"x".to_vec() }, 2, 11),
            OodbReply::Ok
        );
        assert_eq!(
            exec(&mut w, &mut mods, &mut rng, OodbOp::Get { oid: a, field: 0 }, 3, 12),
            OodbReply::Data(b"x".to_vec())
        );
        assert_eq!(
            exec(&mut w, &mut mods, &mut rng, OodbOp::Delete { oid: a }, 4, 13),
            OodbReply::Ok
        );
        assert_eq!(
            exec(&mut w, &mut mods, &mut rng, OodbOp::Get { oid: a, field: 0 }, 5, 14),
            OodbReply::Err(err::STALE)
        );
    }

    #[test]
    fn delete_refuses_referenced_objects() {
        let (mut w, mut rng) = wrapper(2);
        let mut mods = ModifyLog::new();
        let OodbReply::Handle(a) = exec(&mut w, &mut mods, &mut rng, OodbOp::New, 1, 1) else {
            panic!()
        };
        let OodbReply::Handle(b) = exec(&mut w, &mut mods, &mut rng, OodbOp::New, 2, 2) else {
            panic!()
        };
        exec(&mut w, &mut mods, &mut rng, OodbOp::SetRef { from: a, slot: 0, to: Some(b) }, 3, 3);
        assert_eq!(
            exec(&mut w, &mut mods, &mut rng, OodbOp::Delete { oid: b }, 4, 4),
            OodbReply::Err(err::IN_USE)
        );
        exec(&mut w, &mut mods, &mut rng, OodbOp::SetRef { from: a, slot: 0, to: None }, 5, 5);
        assert_eq!(
            exec(&mut w, &mut mods, &mut rng, OodbOp::Delete { oid: b }, 6, 6),
            OodbReply::Ok
        );
    }

    #[test]
    fn abstract_state_identical_across_divergent_stores() {
        // Same logical ops on two stores with different seeds; addresses
        // diverge and collections happen at different times, but every
        // abstract object matches.
        let (mut w1, mut rng1) = wrapper(10);
        let (mut w2, mut rng2) = wrapper(20);
        let mut m1 = ModifyLog::new();
        let mut m2 = ModifyLog::new();
        let mut handles = Vec::new();
        for i in 0..240u64 {
            let op = match i % 4 {
                0 | 3 => OodbOp::New,
                1 if !handles.is_empty() => OodbOp::Put {
                    oid: handles[(i as usize / 2) % handles.len()],
                    field: (i % 4) as u32,
                    data: vec![i as u8; 10],
                },
                2 if handles.len() >= 2 => OodbOp::SetRef {
                    from: handles[i as usize % handles.len()],
                    slot: (i % 4) as u32,
                    to: Some(handles[(i as usize + 1) % handles.len()]),
                },
                1 => OodbOp::Traverse {
                    root: handles.first().copied().unwrap_or(Oid { index: 0, gen: 1 }),
                    depth: 4,
                },
                _ => OodbOp::New,
            };
            let r1 = exec(&mut w1, &mut m1, &mut rng1, op.clone(), i, 1000 + i * 7);
            let r2 = exec(&mut w2, &mut m2, &mut rng2, op.clone(), i, 5000 + i * 13);
            assert_eq!(r1, r2, "divergent reply at step {i} for {op:?}");
            if let OodbReply::Handle(h) = r1 {
                handles.push(h);
            }
        }
        // The GC ran at least once somewhere (thresholds are < 64).
        assert!(w1.store().collections + w2.store().collections >= 1);
        for i in 0..N_OBJECTS {
            assert_eq!(w1.get_obj(i), w2.get_obj(i), "object {i}");
        }
    }

    #[test]
    fn put_objs_round_trips_state() {
        let (mut w1, mut rng1) = wrapper(30);
        let mut m1 = ModifyLog::new();
        let mut handles = Vec::new();
        for i in 0..40u64 {
            if let OodbReply::Handle(h) =
                exec(&mut w1, &mut m1, &mut rng1, OodbOp::New, i, i * 3)
            {
                exec(
                    &mut w1,
                    &mut m1,
                    &mut rng1,
                    OodbOp::Put { oid: h, field: 1, data: vec![i as u8; 32] },
                    100 + i,
                    i * 3 + 1,
                );
                handles.push(h);
            }
        }
        for pair in handles.windows(2) {
            exec(
                &mut w1,
                &mut m1,
                &mut rng1,
                OodbOp::SetRef { from: pair[0], slot: 0, to: Some(pair[1]) },
                200,
                999,
            );
        }
        let full: Vec<(u64, Option<Vec<u8>>)> =
            (0..N_OBJECTS).map(|i| (i, w1.get_obj(i))).collect();

        let (mut w2, mut rng2) = wrapper(40);
        {
            let mut env = ExecEnv::new(123, &mut rng2);
            w2.put_objs(&full, &mut env);
        }
        for (i, expected) in full {
            assert_eq!(w2.get_obj(i), expected, "object {i}");
        }
        // The installed wrapper keeps correct semantics (refcounts!).
        let mut m2 = ModifyLog::new();
        assert_eq!(
            exec(&mut w2, &mut m2, &mut rng2, OodbOp::Delete { oid: handles[1] }, 900, 1),
            OodbReply::Err(err::IN_USE),
            "refcounts must be rebuilt after install"
        );
    }

    #[test]
    fn traverse_counts_reachable_objects() {
        let (mut w, mut rng) = wrapper(50);
        let mut mods = ModifyLog::new();
        let mut hs = Vec::new();
        for i in 0..5u64 {
            if let OodbReply::Handle(h) = exec(&mut w, &mut mods, &mut rng, OodbOp::New, i, i) {
                hs.push(h);
            }
        }
        // Chain 0 -> 1 -> 2; 3 and 4 unreachable from 0.
        exec(&mut w, &mut mods, &mut rng, OodbOp::SetRef { from: hs[0], slot: 0, to: Some(hs[1]) }, 10, 10);
        exec(&mut w, &mut mods, &mut rng, OodbOp::SetRef { from: hs[1], slot: 0, to: Some(hs[2]) }, 11, 11);
        assert_eq!(
            exec(&mut w, &mut mods, &mut rng, OodbOp::Traverse { root: hs[0], depth: 10 }, 12, 12),
            OodbReply::Count(3)
        );
        assert_eq!(
            exec(&mut w, &mut mods, &mut rng, OodbOp::Traverse { root: hs[0], depth: 1 }, 13, 13),
            OodbReply::Count(1)
        );
    }
}
