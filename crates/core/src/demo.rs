//! A self-contained demonstration of the BASE methodology: a
//! non-deterministic "off-the-shelf" key-value store ([`TinyKv`]) and its
//! conformance wrapper ([`KvWrapper`]).
//!
//! `TinyKv` misbehaves in exactly the ways the paper says real
//! implementations do:
//!
//! - it assigns **random internal ids** to entries (like NFS servers
//!   choosing arbitrary file handles);
//! - it stamps entries with the **local clock** (which differs across
//!   replicas);
//! - its iteration order depends on the random ids.
//!
//! The wrapper hides all of this behind a common abstract specification:
//! the abstract state is an array of [`N_SLOTS`] objects, where object `s`
//! is the XDR encoding of the key-sorted list of `(key, value, mtime)`
//! triples whose key hashes to slot `s`, and `mtime` is the *agreed*
//! timestamp from the protocol's non-determinism agreement rather than the
//! local clock. Replicas running differently-seeded `TinyKv` instances
//! therefore produce identical abstract states.

use crate::wrapper::{Footprint, ModifyLog, Wrapper};
use base_pbft::ExecEnv;
use base_xdr::{XdrDecoder, XdrEncoder};
use rand::Rng;
use std::collections::{BTreeMap, HashMap};

/// Number of abstract objects (hash slots) in the KV specification.
pub const N_SLOTS: u64 = 64;

/// FNV-1a hash, used to map keys to abstract slots deterministically.
fn slot_of(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h % N_SLOTS
}

/// The abstract-object footprint of a KV text operation — a pure function
/// so shard routers and replica-side lock services classify identically.
///
/// Mirrors [`KvWrapper`]'s `execute` parse exactly: a `put`/`del` touches
/// only the key's slot, `get`/`mtime` only reads it. Anything `execute`
/// would answer with `err` (unknown verb, missing key) gets a conservative
/// `None` — whole-state conflict — rather than a guess.
pub fn kv_footprint(op: &[u8]) -> Option<Footprint> {
    let text = String::from_utf8_lossy(op);
    let mut parts = text.splitn(3, ' ');
    let verb = parts.next().unwrap_or("");
    let key = parts.next().unwrap_or("");
    if key.is_empty() {
        return None;
    }
    match verb {
        "put" | "del" => Some(Footprint::writes(vec![slot_of(key)])),
        "get" | "mtime" => Some(Footprint::reads(vec![slot_of(key)])),
        _ => None,
    }
}

#[derive(Debug, Clone)]
struct KvEntry {
    value: Vec<u8>,
    /// Concrete timestamp from the local clock — non-deterministic, never
    /// exposed through the abstract state.
    mtime_local_ns: u64,
}

/// The "off-the-shelf" implementation: a key-value store with random
/// internal ids and local-clock timestamps.
#[derive(Debug, Default)]
pub struct TinyKv {
    entries: HashMap<u64, KvEntry>,
    index: HashMap<String, u64>,
    /// Entries leaked by deletions when `leaky` is set (simulates a memory
    /// leak that clean-reboot recovery hides).
    pub leaky: bool,
    leaked: usize,
}

impl TinyKv {
    /// Inserts or updates `key`. Internal id and timestamp are
    /// non-deterministic.
    pub fn put(&mut self, key: &str, value: Vec<u8>, clock_ns: u64, rng: &mut rand::rngs::StdRng) {
        if let Some(id) = self.index.get(key) {
            let e = self.entries.get_mut(id).expect("index consistent");
            e.value = value;
            e.mtime_local_ns = clock_ns;
            return;
        }
        let mut id: u64 = rng.gen();
        while self.entries.contains_key(&id) {
            id = rng.gen();
        }
        self.entries.insert(
            id,
            KvEntry { value, mtime_local_ns: clock_ns },
        );
        self.index.insert(key.to_owned(), id);
    }

    /// Looks up `key`.
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        let id = self.index.get(key)?;
        Some(&self.entries[id].value)
    }

    /// Removes `key`; returns true if it existed.
    pub fn delete(&mut self, key: &str) -> bool {
        match self.index.remove(key) {
            Some(id) => {
                if self.leaky {
                    // The entry stays allocated — a classic leak.
                    self.leaked += 1;
                } else {
                    self.entries.remove(&id);
                }
                true
            }
            None => false,
        }
    }

    /// Keys currently reachable.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// Number of live (reachable) entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no entries are reachable.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Bytes of storage held, including leaked entries.
    pub fn footprint(&self) -> usize {
        self.entries.len()
    }

    /// Number of leaked (unreachable but allocated) entries.
    pub fn leaked(&self) -> usize {
        self.leaked
    }

    /// Restarts from the clean initial state (reclaims leaks).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.leaked = 0;
    }

    /// Test hook: silently corrupts the stored value of `key` (simulates a
    /// software error damaging the concrete state).
    pub fn corrupt(&mut self, key: &str) -> bool {
        match self.index.get(key) {
            Some(id) => {
                let e = self.entries.get_mut(id).expect("index consistent");
                for b in &mut e.value {
                    *b = !*b;
                }
                e.value.push(0xbd);
                true
            }
            None => false,
        }
    }
}

/// Conformance wrapper for [`TinyKv`].
///
/// Operations (UTF-8 text): `put <key> <value>`, `get <key>`,
/// `del <key>`. Replies: `ok`, the value bytes, or `missing`.
pub struct KvWrapper {
    kv: TinyKv,
    /// Conformance rep: the *abstract* (agreed) timestamp per key, ordered
    /// by `(slot_of(key), key)`. One slot's keys are a contiguous range
    /// already in the key order the abstract encoding needs, so the
    /// abstraction function costs O(slot), not O(store).
    abs_mtimes: BTreeMap<(u64, String), u64>,
    /// Simulated CPU cost charged per operation (0 by default; experiments
    /// calibrate it).
    pub op_cost: base_simnet::SimDuration,
    /// Newest agreed timestamp executed (for nondet validation).
    last_nondet: u64,
}

impl KvWrapper {
    /// Wraps a `TinyKv` instance. Keys it already holds enter the abstract
    /// state with mtime 0 (no agreed timestamp ever covered them).
    pub fn new(kv: TinyKv) -> Self {
        let abs_mtimes = kv.keys().map(|k| ((slot_of(k), k.to_owned()), 0)).collect();
        Self {
            kv,
            abs_mtimes,
            op_cost: base_simnet::SimDuration::ZERO,
            last_nondet: 0,
        }
    }

    /// Access to the wrapped implementation (test inspection / injection).
    pub fn kv(&self) -> &TinyKv {
        &self.kv
    }

    /// Mutable access to the wrapped implementation.
    pub fn kv_mut(&mut self) -> &mut TinyKv {
        &mut self.kv
    }

    /// The rep's `(key, agreed mtime)` entries of `slot`, in key order.
    fn slot_entries(&self, slot: u64) -> impl Iterator<Item = (&str, u64)> {
        self.abs_mtimes
            .range((slot, String::new())..)
            .take_while(move |((s, _), _)| *s == slot)
            .map(|((_, k), mt)| (k.as_str(), *mt))
    }

    fn encode_slot(&self, slot: u64) -> Option<Vec<u8>> {
        // A key the rep lists but the store no longer has is a fault in the
        // concrete state (injected through `kv_mut`): it is absent from the
        // abstract value, which is how the damage becomes a digest mismatch.
        let items =
            self.slot_entries(slot).filter_map(|(k, mt)| Some((k, self.kv.get(k)?, mt))).collect();
        Self::encode_items(items)
    }

    /// XDR-encodes one slot's key-sorted `(key, value, mtime)` triples;
    /// an empty slot is an absent object.
    fn encode_items(items: Vec<(&str, &[u8], u64)>) -> Option<Vec<u8>> {
        if items.is_empty() {
            return None;
        }
        // Count word, then per item two length words, the mtime and up to
        // three bytes of padding on each of key and value.
        let size = 4 + items.iter().map(|(k, v, _)| k.len() + v.len() + 22).sum::<usize>();
        let mut enc = XdrEncoder::with_capacity(size);
        enc.put_u32(items.len() as u32);
        for (k, v, mt) in items {
            enc.put_string(k);
            enc.put_opaque(v);
            enc.put_u64(mt);
        }
        Some(enc.finish())
    }

    /// The abstraction function as a scan over the whole store: the
    /// reference the slot-indexed [`Self::encode_slot`] is held to.
    #[cfg(test)]
    fn encode_slot_by_scan(&self, slot: u64) -> Option<Vec<u8>> {
        let mut items: Vec<(&str, &[u8], u64)> = self
            .kv
            .keys()
            .filter(|k| slot_of(k) == slot)
            .map(|k| {
                let mt = self.abs_mtimes.get(&(slot, k.to_owned())).copied().unwrap_or(0);
                (k, self.kv.get(k).expect("indexed key present"), mt)
            })
            .collect();
        items.sort_by(|a, b| a.0.cmp(b.0));
        Self::encode_items(items)
    }

    fn decode_slot(data: &[u8]) -> Option<Vec<(String, Vec<u8>, u64)>> {
        let mut dec = XdrDecoder::new(data);
        let n = dec.get_count(16).ok()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let k = dec.get_string().ok()?;
            let v = dec.get_opaque().ok()?;
            let mt = dec.get_u64().ok()?;
            out.push((k, v, mt));
        }
        dec.finish().ok()?;
        Some(out)
    }
}

impl Wrapper for KvWrapper {
    fn execute(
        &mut self,
        op: &[u8],
        _client: u32,
        nondet: &[u8],
        read_only: bool,
        mods: &mut ModifyLog,
        env: &mut ExecEnv<'_>,
    ) -> Vec<u8> {
        env.charge(self.op_cost);
        let text = String::from_utf8_lossy(op);
        let mut parts = text.splitn(3, ' ');
        let verb = parts.next().unwrap_or("");
        let key = parts.next().unwrap_or("");
        let agreed_ts = if nondet.len() == 8 {
            u64::from_be_bytes(nondet.try_into().expect("checked length"))
        } else {
            0
        };
        self.last_nondet = self.last_nondet.max(agreed_ts);
        match verb {
            "put" if !read_only && !key.is_empty() => {
                let value = parts.next().unwrap_or("").as_bytes().to_vec();
                let slot = slot_of(key);
                mods.modify(slot, || self.encode_slot(slot));
                self.kv.put(key, value, env.local_clock_ns, env.rng);
                self.abs_mtimes.insert((slot, key.to_owned()), agreed_ts);
                b"ok".to_vec()
            }
            "get" => match self.kv.get(key) {
                Some(v) => v.to_vec(),
                None => b"missing".to_vec(),
            },
            "mtime" => match self.abs_mtimes.get(&(slot_of(key), key.to_owned())) {
                Some(mt) => mt.to_string().into_bytes(),
                None => b"missing".to_vec(),
            },
            "del" if !read_only && !key.is_empty() => {
                let slot = slot_of(key);
                mods.modify(slot, || self.encode_slot(slot));
                let existed = self.kv.delete(key);
                self.abs_mtimes.remove(&(slot, key.to_owned()));
                if existed {
                    b"ok".to_vec()
                } else {
                    b"missing".to_vec()
                }
            }
            _ => b"err".to_vec(),
        }
    }

    fn get_obj(&self, index: u64) -> Option<Vec<u8>> {
        self.encode_slot(index)
    }

    fn put_objs(&mut self, objs: &[(u64, Option<Vec<u8>>)], env: &mut ExecEnv<'_>) {
        for (slot, data) in objs {
            let desired = match data {
                Some(bytes) => Self::decode_slot(bytes).unwrap_or_default(),
                None => Vec::new(),
            };
            // Remove keys in this slot that the checkpoint does not have.
            let stale: Vec<String> = self
                .slot_entries(*slot)
                .filter(|(k, _)| !desired.iter().any(|(dk, _, _)| dk == k))
                .map(|(k, _)| k.to_owned())
                .collect();
            for k in stale {
                self.kv.delete(&k);
                self.abs_mtimes.remove(&(*slot, k));
            }
            // Upsert the checkpoint's entries. Concrete timestamps and ids
            // remain non-deterministic; the abstract mtime goes in the rep.
            for (k, v, mt) in desired {
                self.kv.put(&k, v, env.local_clock_ns, env.rng);
                self.abs_mtimes.insert((slot_of(&k), k), mt);
            }
        }
    }

    fn n_objects(&self) -> u64 {
        N_SLOTS
    }

    fn last_nondet_ns(&self) -> u64 {
        self.last_nondet
    }

    fn reset(&mut self, _env: &mut ExecEnv<'_>) {
        self.kv.reset();
        self.abs_mtimes.clear();
    }

    fn corrupt_state(&mut self, seed: u64) {
        // Mangle one stored value, chosen deterministically from the seed.
        // The slot digest in the abstraction layer stays stale until the
        // next warm-reboot rescan.
        let mut keys: Vec<String> = self.kv.keys().map(str::to_owned).collect();
        keys.sort();
        if keys.is_empty() {
            return;
        }
        let victim = keys[(seed % keys.len() as u64) as usize].clone();
        self.kv.corrupt(&victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn env<'a>(rng: &'a mut rand::rngs::StdRng, clock: u64) -> ExecEnv<'a> {
        ExecEnv::new(clock, rng)
    }

    fn ts(v: u64) -> Vec<u8> {
        v.to_be_bytes().to_vec()
    }

    #[test]
    fn divergent_implementations_same_abstract_state() {
        // Two replicas with different RNG seeds and different clocks.
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(1);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(999);
        let mut a = KvWrapper::new(TinyKv::default());
        let mut b = KvWrapper::new(TinyKv::default());
        let mut mods_a = ModifyLog::new();
        let mut mods_b = ModifyLog::new();

        let script: Vec<&[u8]> = vec![b"put x 1", b"put y 2", b"del x", b"put z 33"];
        for (i, op) in script.iter().enumerate() {
            let nd = ts(1000 + i as u64);
            let ra = a.execute(op, 7, &nd, false, &mut mods_a, &mut env(&mut rng_a, 11111));
            let rb = b.execute(op, 7, &nd, false, &mut mods_b, &mut env(&mut rng_b, 99999));
            assert_eq!(ra, rb, "client-visible replies must match");
        }
        // Concrete states differ (ids/timestamps) but every abstract object
        // is identical.
        for slot in 0..N_SLOTS {
            assert_eq!(a.get_obj(slot), b.get_obj(slot), "slot {slot}");
        }
    }

    #[test]
    fn modify_is_called_before_mutation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut w = KvWrapper::new(TinyKv::default());
        let mut mods = ModifyLog::new();
        w.execute(b"put k v", 1, &ts(5), false, &mut mods, &mut env(&mut rng, 0));
        let slot = slot_of("k");
        assert!(mods.is_dirty(slot));
        // The captured pre-image is the pre-mutation value: absent.
        assert_eq!(mods.copy_of(slot), Some(&None));
    }

    #[test]
    fn put_objs_inverts_get_obj() {
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(1);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(2);
        let mut a = KvWrapper::new(TinyKv::default());
        let mut b = KvWrapper::new(TinyKv::default());
        let mut mods = ModifyLog::new();
        for op in [b"put k1 v1".as_slice(), b"put k2 v2", b"put longerkey somevalue"] {
            a.execute(op, 1, &ts(7), false, &mut mods, &mut env(&mut rng_a, 0));
        }
        // Transfer every non-empty slot into b.
        let objs: Vec<(u64, Option<Vec<u8>>)> =
            (0..N_SLOTS).map(|s| (s, a.get_obj(s))).collect();
        b.put_objs(&objs, &mut env(&mut rng_b, 0));
        for slot in 0..N_SLOTS {
            assert_eq!(a.get_obj(slot), b.get_obj(slot));
        }
        assert_eq!(b.kv().get("k1"), Some(&b"v1"[..]));
    }

    #[test]
    fn put_objs_removes_stale_keys() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut w = KvWrapper::new(TinyKv::default());
        let mut mods = ModifyLog::new();
        w.execute(b"put dead beef", 1, &ts(1), false, &mut mods, &mut env(&mut rng, 0));
        let slot = slot_of("dead");
        // The checkpoint says this slot is empty.
        w.put_objs(&[(slot, None)], &mut env(&mut rng, 0));
        assert_eq!(w.kv().get("dead"), None);
        assert_eq!(w.get_obj(slot), None);
    }

    #[test]
    fn read_only_put_is_refused() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut w = KvWrapper::new(TinyKv::default());
        let mut mods = ModifyLog::new();
        let r = w.execute(b"put k v", 1, &ts(1), true, &mut mods, &mut env(&mut rng, 0));
        assert_eq!(r, b"err");
        assert_eq!(mods.dirty_count(), 0);
    }

    #[test]
    fn corruption_changes_abstract_object() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut w = KvWrapper::new(TinyKv::default());
        let mut mods = ModifyLog::new();
        w.execute(b"put k v", 1, &ts(1), false, &mut mods, &mut env(&mut rng, 0));
        let slot = slot_of("k");
        let before = w.get_obj(slot);
        assert!(w.kv_mut().corrupt("k"));
        assert_ne!(w.get_obj(slot), before, "corruption must be visible to the abstraction fn");
    }

    #[test]
    fn leak_is_reclaimed_by_reset() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut w = KvWrapper::new(TinyKv::default());
        w.kv_mut().leaky = true;
        let mut mods = ModifyLog::new();
        w.execute(b"put k v", 1, &ts(1), false, &mut mods, &mut env(&mut rng, 0));
        w.execute(b"del k", 1, &ts(2), false, &mut mods, &mut env(&mut rng, 0));
        assert_eq!(w.kv().len(), 0);
        assert_eq!(w.kv().footprint(), 1, "deleted entry leaked");
        let mut e = env(&mut rng, 0);
        w.reset(&mut e);
        assert_eq!(w.kv().footprint(), 0, "clean restart reclaims the leak");
    }

    #[test]
    fn abstract_mtime_uses_agreed_value_not_local_clock() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut w = KvWrapper::new(TinyKv::default());
        let mut mods = ModifyLog::new();
        // Local clock says 123456789, agreed timestamp says 42.
        w.execute(b"put k v", 1, &ts(42), false, &mut mods, &mut env(&mut rng, 123_456_789));
        let r = w.execute(b"mtime k", 1, &[], true, &mut mods, &mut env(&mut rng, 0));
        assert_eq!(r, b"42");
    }

    #[test]
    fn key_lost_from_the_store_is_skipped_not_a_panic() {
        // Two keys in one slot; a fault behind the wrapper's back removes
        // one from the concrete store while the rep still lists it.
        let (a, b) = two_keys_in_one_slot();
        let slot = slot_of(&a);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut w = KvWrapper::new(TinyKv::default());
        let mut mods = ModifyLog::new();
        for k in [&a, &b] {
            let op = format!("put {k} v");
            w.execute(op.as_bytes(), 1, &ts(3), false, &mut mods, &mut env(&mut rng, 0));
        }
        let both = w.get_obj(slot);
        assert!(w.kv_mut().delete(&a));
        let one = w.get_obj(slot).expect("the surviving key still encodes");
        assert_ne!(Some(&one), both.as_ref(), "the loss must be visible to the abstraction fn");
        assert_eq!(Some(one), w.encode_slot_by_scan(slot));
        assert_eq!(KvWrapper::decode_slot(&w.get_obj(slot).unwrap()).unwrap().len(), 1);
        // Losing the last key too makes the object absent.
        assert!(w.kv_mut().delete(&b));
        assert_eq!(w.get_obj(slot), None);
        // put_objs repairs the slot from the agreed value, as recovery would.
        w.put_objs(&[(slot, both.clone())], &mut env(&mut rng, 0));
        assert_eq!(w.get_obj(slot), both);
    }

    #[test]
    fn new_seeds_the_rep_from_a_populated_store() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut kv = TinyKv::default();
        kv.put("old", b"data".to_vec(), 55, &mut rng);
        let mut w = KvWrapper::new(kv);
        let slot = slot_of("old");
        let items = KvWrapper::decode_slot(&w.get_obj(slot).expect("pre-existing key is abstract state"))
            .unwrap();
        assert_eq!(items, vec![("old".to_owned(), b"data".to_vec(), 0)]);
        assert_eq!(w.get_obj(slot), w.encode_slot_by_scan(slot));
        let mut mods = ModifyLog::new();
        let r = w.execute(b"mtime old", 1, &[], true, &mut mods, &mut env(&mut rng, 0));
        assert_eq!(r, b"0");
    }

    fn two_keys_in_one_slot() -> (String, String) {
        let first = "key0".to_owned();
        let second = (1..)
            .map(|i| format!("key{i}"))
            .find(|k| slot_of(k) == slot_of(&first))
            .expect("64 slots collide quickly");
        (first, second)
    }

    /// One step of the oracle proptest, applied to one of two wrappers.
    #[derive(Debug, Clone)]
    enum Step {
        Put(bool, u16, u8),
        Del(bool, u16),
        /// `put_objs` of the other wrapper's value for every slot in the mask.
        Transfer(bool, u64),
        Reset(bool),
        Corrupt(bool, u64),
    }

    fn step_strategy() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        prop_oneof![
            6 => (any::<bool>(), 0u16..300, any::<u8>()).prop_map(|(w, k, v)| Step::Put(w, k, v)),
            3 => (any::<bool>(), 0u16..300).prop_map(|(w, k)| Step::Del(w, k)),
            1 => (any::<bool>(), any::<u64>()).prop_map(|(w, m)| Step::Transfer(w, m)),
            1 => any::<bool>().prop_map(Step::Reset),
            1 => (any::<bool>(), any::<u64>()).prop_map(|(w, s)| Step::Corrupt(w, s)),
        ]
    }

    fn assert_matches_scan(w: &KvWrapper) {
        for slot in 0..N_SLOTS {
            assert_eq!(w.get_obj(slot), w.encode_slot_by_scan(slot), "slot {slot}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The slot-indexed abstraction function equals the whole-store
        /// scan after every step of an arbitrary history, and `put_objs`
        /// of its output reproduces it on a differently seeded instance.
        #[test]
        fn indexed_get_obj_equals_whole_store_scan(
            steps in proptest::collection::vec(step_strategy(), 1..80),
        ) {
            let mut rngs =
                [rand::rngs::StdRng::seed_from_u64(1), rand::rngs::StdRng::seed_from_u64(2)];
            let mut ws = [KvWrapper::new(TinyKv::default()), KvWrapper::new(TinyKv::default())];
            let mut mods = ModifyLog::new();
            for (i, step) in steps.iter().enumerate() {
                let nd = ts(100 + i as u64);
                match *step {
                    Step::Put(w, k, v) => {
                        let (w, op) = (usize::from(w), format!("put key{k} {}", "x".repeat(usize::from(v % 7))));
                        ws[w].execute(op.as_bytes(), 1, &nd, false, &mut mods, &mut env(&mut rngs[w], i as u64));
                    }
                    Step::Del(w, k) => {
                        let (w, op) = (usize::from(w), format!("del key{k}"));
                        ws[w].execute(op.as_bytes(), 1, &nd, false, &mut mods, &mut env(&mut rngs[w], i as u64));
                    }
                    Step::Transfer(w, mask) => {
                        let (to, from) = (usize::from(w), usize::from(!w));
                        let objs: Vec<(u64, Option<Vec<u8>>)> = (0..N_SLOTS)
                            .filter(|s| mask >> s & 1 == 1)
                            .map(|s| (s, ws[from].get_obj(s)))
                            .collect();
                        ws[to].put_objs(&objs, &mut env(&mut rngs[to], i as u64));
                        for (s, v) in &objs {
                            proptest::prop_assert_eq!(&ws[to].get_obj(*s), v);
                        }
                    }
                    Step::Reset(w) => {
                        let w = usize::from(w);
                        ws[w].reset(&mut env(&mut rngs[w], i as u64));
                    }
                    Step::Corrupt(w, seed) => ws[usize::from(w)].corrupt_state(seed),
                }
                assert_matches_scan(&ws[0]);
                assert_matches_scan(&ws[1]);
            }
            // Whole-state transfer onto an instance with its own ids,
            // clock and leftover content.
            let all: Vec<(u64, Option<Vec<u8>>)> =
                (0..N_SLOTS).map(|s| (s, ws[0].get_obj(s))).collect();
            ws[1].put_objs(&all, &mut env(&mut rngs[1], 999));
            assert_matches_scan(&ws[1]);
            for (s, v) in &all {
                proptest::prop_assert_eq!(&ws[1].get_obj(*s), v);
            }
        }
    }
}
