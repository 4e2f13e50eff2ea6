//! The non-deterministic object store ("off-the-shelf" OODB).

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

/// Number of reference slots per object.
pub const REF_SLOTS: usize = 4;
/// Number of scalar fields per object.
pub const FIELDS: usize = 4;

/// One heap object.
#[derive(Debug, Clone, Default)]
pub struct HeapObject {
    /// Scalar fields.
    pub fields: [Vec<u8>; FIELDS],
    /// References to other objects by *volatile address*.
    pub refs: [Option<u64>; REF_SLOTS],
    /// Concrete modification time (local clock — non-deterministic).
    pub mtime_local_ns: u64,
}

/// An in-memory object database with volatile random addresses and a
/// relocating garbage collector.
pub struct ObjStore {
    heap: HashMap<u64, HeapObject>,
    /// Pinned roots (the wrapper pins everything it names).
    pins: HashMap<u64, u64>, // pin token -> address
    next_pin: u64,
    /// Allocations since the last collection.
    allocs_since_gc: u32,
    /// Collection threshold, re-randomized after each collection.
    gc_threshold: u32,
    /// Total collections run (visible for tests).
    pub collections: u64,
}

impl ObjStore {
    /// Creates an empty store.
    pub fn new(rng: &mut StdRng) -> Self {
        Self {
            heap: HashMap::new(),
            pins: HashMap::new(),
            next_pin: 1,
            allocs_since_gc: 0,
            gc_threshold: 16 + (rng.gen::<u32>() % 48),
            collections: 0,
        }
    }

    /// Allocates an object; returns its (volatile) address. May trigger a
    /// relocating collection first — the returned map lists every object
    /// that moved (old address → new address).
    pub fn alloc(
        &mut self,
        clock_ns: u64,
        rng: &mut StdRng,
    ) -> (u64, Option<HashMap<u64, u64>>) {
        let relocations = if self.allocs_since_gc >= self.gc_threshold {
            Some(self.collect(rng))
        } else {
            None
        };
        self.allocs_since_gc += 1;
        let addr = self.fresh_addr(rng);
        self.heap.insert(addr, HeapObject { mtime_local_ns: clock_ns, ..Default::default() });
        (addr, relocations)
    }

    fn fresh_addr(&self, rng: &mut StdRng) -> u64 {
        loop {
            let a: u64 = rng.gen();
            if !self.heap.contains_key(&a) {
                return a;
            }
        }
    }

    /// Pins `addr` so collections keep it alive; returns a pin token.
    pub fn pin(&mut self, addr: u64) -> u64 {
        let token = self.next_pin;
        self.next_pin += 1;
        self.pins.insert(token, addr);
        token
    }

    /// Releases a pin; the object becomes garbage unless referenced.
    pub fn unpin(&mut self, token: u64) {
        self.pins.remove(&token);
    }

    /// Reads an object.
    pub fn get(&self, addr: u64) -> Option<&HeapObject> {
        self.heap.get(&addr)
    }

    /// Writes an object field.
    pub fn set_field(&mut self, addr: u64, idx: usize, data: Vec<u8>, clock_ns: u64) -> bool {
        match self.heap.get_mut(&addr) {
            Some(o) if idx < FIELDS => {
                o.fields[idx] = data;
                o.mtime_local_ns = clock_ns;
                true
            }
            _ => false,
        }
    }

    /// Sets a reference slot.
    pub fn set_ref(&mut self, addr: u64, slot: usize, target: Option<u64>, clock_ns: u64) -> bool {
        match self.heap.get_mut(&addr) {
            Some(o) if slot < REF_SLOTS => {
                o.refs[slot] = target;
                o.mtime_local_ns = clock_ns;
                true
            }
            _ => false,
        }
    }

    /// Mark-sweep-compact: relocates every live object to a fresh random
    /// address and drops unreachable ones. Returns old→new addresses.
    pub fn collect(&mut self, rng: &mut StdRng) -> HashMap<u64, u64> {
        self.collections += 1;
        self.allocs_since_gc = 0;
        self.gc_threshold = 16 + (rng.gen::<u32>() % 48);

        // Mark from pins.
        let mut live: Vec<u64> = Vec::new();
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut stack: Vec<u64> = self.pins.values().copied().collect();
        while let Some(a) = stack.pop() {
            if !seen.insert(a) {
                continue;
            }
            if let Some(o) = self.heap.get(&a) {
                live.push(a);
                stack.extend(o.refs.iter().flatten().copied());
            }
        }

        // Relocate: new random address per live object.
        let mut moves: HashMap<u64, u64> = HashMap::new();
        let mut new_heap: HashMap<u64, HeapObject> = HashMap::with_capacity(live.len());
        for old in live {
            let mut new_addr: u64 = rng.gen();
            while new_heap.contains_key(&new_addr) {
                new_addr = rng.gen();
            }
            let obj = self.heap.remove(&old).expect("marked live");
            new_heap.insert(new_addr, obj);
            moves.insert(old, new_addr);
        }
        // Rewrite references and pins.
        for o in new_heap.values_mut() {
            for r in o.refs.iter_mut() {
                if let Some(t) = r {
                    if let Some(n) = moves.get(t) {
                        *r = Some(*n);
                    } else {
                        *r = None; // Dangling into collected garbage.
                    }
                }
            }
        }
        for addr in self.pins.values_mut() {
            if let Some(n) = moves.get(addr) {
                *addr = *n;
            }
        }
        self.heap = new_heap;
        moves
    }

    /// Live object count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no objects are live.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Restarts from the clean initial state.
    pub fn reset(&mut self, rng: &mut StdRng) {
        *self = ObjStore::new(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    #[test]
    fn alloc_pin_get() {
        let mut r = rng();
        let mut s = ObjStore::new(&mut r);
        let (a, _) = s.alloc(100, &mut r);
        s.pin(a);
        assert!(s.set_field(a, 0, b"data".to_vec(), 200));
        assert_eq!(s.get(a).unwrap().fields[0], b"data");
        assert_eq!(s.get(a).unwrap().mtime_local_ns, 200);
    }

    #[test]
    fn gc_relocates_live_objects_and_drops_garbage() {
        let mut r = rng();
        let mut s = ObjStore::new(&mut r);
        let (a, _) = s.alloc(1, &mut r);
        let pin_a = s.pin(a);
        let (b, _) = s.alloc(1, &mut r);
        s.pin(b);
        s.set_ref(b, 0, Some(a), 2);
        let (dead, _) = s.alloc(1, &mut r);
        let pin_dead = s.pin(dead);
        s.unpin(pin_dead);
        let _ = pin_a;

        s.set_field(a, 1, b"keep".to_vec(), 3);
        let moves = s.collect(&mut r);
        assert_eq!(s.len(), 2, "dead object collected");
        let new_a = moves[&a];
        assert_ne!(new_a, a, "addresses are volatile across GC");
        assert_eq!(s.get(new_a).unwrap().fields[1], b"keep");
        // b's reference was rewritten to a's new address.
        let new_b = moves[&b];
        assert_eq!(s.get(new_b).unwrap().refs[0], Some(new_a));
    }

    #[test]
    fn gc_triggers_automatically() {
        let mut r = rng();
        let mut s = ObjStore::new(&mut r);
        let mut relocated = false;
        for i in 0..200 {
            let (a, moves) = s.alloc(i, &mut r);
            s.pin(a);
            relocated |= moves.is_some();
        }
        assert!(relocated, "automatic collections must have run");
        assert!(s.collections >= 1);
        assert_eq!(s.len(), 200, "pinned objects survive");
    }

    #[test]
    fn two_stores_same_ops_different_addresses() {
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let mut s1 = ObjStore::new(&mut r1);
        let mut s2 = ObjStore::new(&mut r2);
        let (a1, _) = s1.alloc(1, &mut r1);
        let (a2, _) = s2.alloc(1, &mut r2);
        assert_ne!(a1, a2, "same logical op, different concrete address");
    }
}
