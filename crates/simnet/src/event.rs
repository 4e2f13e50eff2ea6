//! The internal event queue.

use crate::actor::{NodeId, Payload, TimerId};
use crate::time::SimTime;

#[derive(Debug)]
pub(crate) enum EventKind {
    /// `arrived` is the wire arrival instant; it is preserved when a
    /// delivery is re-queued because the destination was busy, so the gap
    /// between `arrived` and the handling time is the event-loop lag the
    /// message experienced at the destination.
    Deliver { from: NodeId, to: NodeId, payload: Payload, arrived: SimTime },
    /// `due` is the originally scheduled fire instant, preserved across
    /// busy/crash deferrals for the same reason.
    Timer { node: NodeId, token: u64, id: TimerId, due: SimTime },
}

#[derive(Debug)]
pub(crate) struct Event {
    pub time: SimTime,
    pub kind: EventKind,
}

/// What the heap orders: `rank` is `time << 64 | seq` (`seq`, monotone,
/// makes equal-time events pop in insertion order, keeping runs
/// deterministic); `slot` is where the body waits while keys are sifted.
#[derive(Debug, Clone, Copy)]
struct Key {
    rank: u128,
    slot: u32,
}

impl Key {
    fn time(&self) -> SimTime {
        SimTime((self.rank >> 64) as u64)
    }
}

/// Min-heap of pending events on `(time, seq)` from which a timer can be
/// removed by id.
///
/// Nearly every timer a protocol sets is cancelled a round trip later,
/// long before it is due, so a cancelled timer leaves the queue at once:
/// the queue holds, and is sized by, live events only. Bodies sit in a
/// slab; `pos` says where each slot's key is in the heap (`O(log live)`).
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: Vec<Key>,
    /// Event bodies by slot; `None` marks a free slot.
    slots: Vec<Option<EventKind>>,
    /// Heap index of each occupied slot's key.
    pos: Vec<u32>,
    free: Vec<u32>,
    /// Per node, the `(id, slot)` of its queued timers: a handful, scanned.
    timers: Vec<Vec<(TimerId, u32)>>,
    next_seq: u64,
}

impl EventQueue {
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.pos.push(0);
            (self.slots.len() - 1) as u32
        });
        if let EventKind::Timer { node, id, .. } = kind {
            if self.timers.len() <= node.0 {
                self.timers.resize_with(node.0 + 1, Vec::new);
            }
            self.timers[node.0].push((id, slot));
        }
        self.slots[slot as usize] = Some(kind);
        self.heap.push(Key { rank: u128::from(time.0) << 64 | u128::from(seq), slot });
        self.sift_up(self.heap.len() - 1);
    }

    pub fn pop(&mut self) -> Option<Event> {
        if self.heap.is_empty() {
            return None;
        }
        let event = self.take_at(0);
        if let EventKind::Timer { node, id, .. } = event.kind {
            let timers = &mut self.timers[node.0];
            let i = timers.iter().position(|(t, _)| *t == id).expect("a queued timer is listed");
            timers.swap_remove(i);
        }
        Some(event)
    }

    /// Removes `node`'s timer `id` if it is queued (re-queued behind a busy
    /// or crashed node included). An id that fired already, or is another
    /// node's, is not: the call does nothing and remembers nothing.
    pub fn cancel(&mut self, node: NodeId, id: TimerId) {
        let Some(timers) = self.timers.get_mut(node.0) else { return };
        let Some(i) = timers.iter().position(|(t, _)| *t == id) else { return };
        let (_, slot) = timers.swap_remove(i);
        self.take_at(self.pos[slot as usize] as usize);
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(Key::time)
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Removes every pending timer addressed to `node` (message deliveries
    /// are kept — the network does not know the node was reinstalled).
    pub fn drop_timers_for(&mut self, node: NodeId) {
        let Some(timers) = self.timers.get_mut(node.0) else { return };
        for (_, slot) in std::mem::take(timers) {
            self.take_at(self.pos[slot as usize] as usize);
        }
    }

    /// Unlinks the key at heap index `i` and frees its slot.
    fn take_at(&mut self, i: usize) -> Event {
        let key = self.heap.swap_remove(i);
        if i < self.heap.len() {
            // The former last key sits at `i`; it may belong either side.
            if self.sift_up(i) == i {
                self.sift_down(i);
            }
        }
        let kind = self.slots[key.slot as usize].take().expect("a queued key has a body");
        self.free.push(key.slot);
        Event { time: key.time(), kind }
    }

    /// Returns where the key at `i` came to rest.
    fn sift_up(&mut self, mut i: usize) -> usize {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if key.rank > self.heap[parent].rank {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, key);
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        let key = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() {
                child += usize::from(self.heap[child + 1].rank < self.heap[child].rank);
            }
            if self.heap[child].rank > key.rank {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, key);
    }

    fn place(&mut self, i: usize, key: Key) {
        self.heap[i] = key;
        self.pos[key.slot as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap};

    fn timer(node: usize, token: u64, at: u64) -> EventKind {
        EventKind::Timer { node: NodeId(node), token, id: TimerId(token), due: SimTime(at) }
    }

    fn tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(SimTime(30), timer(0, 3, 30));
        q.push(SimTime(10), timer(0, 1, 10));
        q.push(SimTime(20), timer(0, 2, 20));
        assert_eq!(tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::default();
        for token in 0..10 {
            q.push(SimTime(5), timer(0, token, 5));
        }
        assert_eq!(tokens(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn a_cancel_leaves_nothing_behind() {
        let mut q = EventQueue::default();
        for round in 0..1000u64 {
            q.push(SimTime(round + 500), timer(1, round, round + 500));
            q.cancel(NodeId(1), TimerId(round));
            assert_eq!(q.len(), 0);
        }
        // A thousand set-and-cancel rounds reused one slot, and an id that
        // is not queued (fired, cancelled twice, another node's, a node the
        // queue never saw) is not remembered anywhere.
        q.push(SimTime(1), timer(1, 7, 1));
        assert!(q.pop().is_some());
        q.cancel(NodeId(1), TimerId(7));
        q.cancel(NodeId(1), TimerId(7));
        q.cancel(NodeId(0), TimerId(7));
        q.cancel(NodeId(99), TimerId(7));
        assert_eq!((q.slots.len(), q.pos.len(), q.free.len()), (1, 1, 1));
        assert!(q.timers.iter().all(Vec::is_empty) && q.timers.len() == 2);
    }

    /// What the queue was before cancellation removed anything: a heap
    /// that keeps every timer until its due time, and per node a set of
    /// cancelled ids consulted (and consumed) when one is popped.
    #[derive(Default)]
    struct Tombstones {
        heap: BinaryHeap<Reverse<(SimTime, u64, Summary)>>,
        cancelled: Vec<BTreeSet<u64>>,
        next_seq: u64,
    }

    /// An event's identity, comparable across the two queues.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Summary {
        Deliver { tag: usize },
        Timer { node: usize, id: u64, due: SimTime },
    }

    impl Summary {
        fn of(kind: &EventKind) -> Summary {
            match kind {
                EventKind::Deliver { from, .. } => Summary::Deliver { tag: from.0 },
                EventKind::Timer { node, id, due, .. } => {
                    Summary::Timer { node: node.0, id: id.0, due: *due }
                }
            }
        }

        fn kind(self) -> EventKind {
            match self {
                Summary::Deliver { tag } => EventKind::Deliver {
                    from: NodeId(tag),
                    to: NodeId(0),
                    payload: Payload::from(&[0u8; 0]),
                    arrived: SimTime(0),
                },
                Summary::Timer { node, id, due } => {
                    EventKind::Timer { node: NodeId(node), token: id, id: TimerId(id), due }
                }
            }
        }
    }

    impl Tombstones {
        fn push(&mut self, time: SimTime, what: Summary) {
            self.heap.push(Reverse((time, self.next_seq, what)));
            self.next_seq += 1;
        }

        fn cancel(&mut self, node: usize, id: u64) {
            self.cancelled[node].insert(id);
        }

        /// The next event a handler would run for: cancelled timers are
        /// popped, matched against their node's set and skipped.
        fn pop(&mut self) -> Option<(SimTime, Summary)> {
            while let Some(Reverse((time, _, what))) = self.heap.pop() {
                match what {
                    Summary::Timer { node, id, .. } if self.cancelled[node].remove(&id) => {}
                    _ => return Some((time, what)),
                }
            }
            None
        }

        fn drop_timers_for(&mut self, node: usize) {
            self.heap.retain(|Reverse((_, _, w))| !matches!(w, Summary::Timer { node: n, .. } if *n == node));
            self.cancelled[node].clear();
        }

        fn live(&self) -> usize {
            self.heap
                .iter()
                .filter(|Reverse((_, _, w))| match w {
                    Summary::Timer { node, id, .. } => !self.cancelled[*node].contains(id),
                    Summary::Deliver { .. } => true,
                })
                .count()
        }
    }

    const NODES: usize = 3;

    #[derive(Debug, Clone)]
    enum Op {
        Deliver { at: u64 },
        SetTimer { node: usize, at: u64 },
        /// Set a timer and cancel it again, as one handler's effects do.
        SetAndCancel { node: usize, at: u64 },
        /// Cancel the `pick`-th timer ever set (queued, deferred, fired or
        /// cancelled already), as its owner or, with `as_owner` false, as
        /// the next node, which does not own it.
        Cancel { pick: usize, as_owner: bool },
        Pop,
        /// Pop, then re-queue the event `by` later: what `step_one` does to
        /// an event whose node is busy or inside a crash window.
        Defer { by: u64 },
        DropTimersFor { node: usize },
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u64..40).prop_map(|at| Op::Deliver { at }),
            4 => (0..NODES, 0u64..40).prop_map(|(node, at)| Op::SetTimer { node, at }),
            2 => (0..NODES, 0u64..40).prop_map(|(node, at)| Op::SetAndCancel { node, at }),
            5 => (any::<usize>(), any::<bool>()).prop_map(|(pick, as_owner)| Op::Cancel { pick, as_owner }),
            4 => Just(Op::Pop),
            3 => (1u64..20).prop_map(|by| Op::Defer { by }),
            1 => (0..NODES).prop_map(|node| Op::DropTimersFor { node }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The queue hands out exactly the events, in exactly the order,
        /// that a heap with tombstones does, and counts only the live ones.
        #[test]
        fn pops_what_a_heap_with_tombstones_pops(ops in proptest::collection::vec(op(), 1..120)) {
            let mut q = EventQueue::default();
            let mut model = Tombstones { cancelled: vec![BTreeSet::new(); NODES], ..Default::default() };
            let mut set: Vec<(usize, u64)> = Vec::new();
            let mut tag = 0;
            for op in ops {
                match op {
                    Op::Deliver { at } => {
                        tag += 1;
                        let what = Summary::Deliver { tag };
                        q.push(SimTime(at), what.kind());
                        model.push(SimTime(at), what);
                    }
                    Op::SetTimer { node, at } | Op::SetAndCancel { node, at } => {
                        let id = set.len() as u64;
                        set.push((node, id));
                        let what = Summary::Timer { node, id, due: SimTime(at) };
                        q.push(SimTime(at), what.kind());
                        model.push(SimTime(at), what);
                        if matches!(op, Op::SetAndCancel { .. }) {
                            q.cancel(NodeId(node), TimerId(id));
                            model.cancel(node, id);
                        }
                    }
                    Op::Cancel { pick, as_owner } => {
                        if set.is_empty() {
                            continue;
                        }
                        let (owner, id) = set[pick % set.len()];
                        let node = if as_owner { owner } else { (owner + 1) % NODES };
                        q.cancel(NodeId(node), TimerId(id));
                        model.cancel(node, id);
                    }
                    Op::Pop => {
                        let got = q.pop().map(|e| (e.time, Summary::of(&e.kind)));
                        prop_assert_eq!(got, model.pop());
                    }
                    Op::Defer { by } => {
                        let got = q.pop().map(|e| (e.time, Summary::of(&e.kind)));
                        prop_assert_eq!(got, model.pop());
                        if let Some((time, what)) = got {
                            q.push(SimTime(time.0 + by), what.kind());
                            model.push(SimTime(time.0 + by), what);
                        }
                    }
                    Op::DropTimersFor { node } => {
                        q.drop_timers_for(NodeId(node));
                        model.drop_timers_for(node);
                    }
                }
                prop_assert_eq!(q.len(), model.live());
                prop_assert_eq!(q.peek_time().is_none(), q.is_empty());
                prop_assert!(q.slots.len() <= q.len() + q.free.len());
            }
            loop {
                let got = q.pop().map(|e| (e.time, Summary::of(&e.kind)));
                prop_assert_eq!(got, model.pop());
                if got.is_none() {
                    break;
                }
            }
            prop_assert!(q.timers.iter().all(Vec::is_empty));
        }
    }
}
