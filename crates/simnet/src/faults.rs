//! Network faults: one value per fault, and everything derived from it.
//!
//! A [`NetFault`] is the only description of a network fault. This file
//! holds, per variant, what the fault does to a message (`act`), how it
//! renders, the canonical words a schedule digest folds (`words`) and the
//! numeric knobs the schedule shrinker walks (`knobs`, `with_knob`). The simulator keeps an
//! ordered list of `(fault, from, until)` windows
//! ([`crate::Simulation::add_fault`]) and routes every message through the
//! ones in force. *Node* faults (crashed or Byzantine replicas) are
//! modelled by crash windows in the simulator and by adversarial
//! [`crate::Actor`] implementations.

use crate::actor::NodeId;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// A network-level fault, in force for a window of virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum NetFault {
    /// Cut `nodes` off from everyone else (heals when the window ends):
    /// a message is dropped iff exactly one of its endpoints is listed, so
    /// the listed nodes still reach each other.
    Partition {
        /// The isolated side of the partition.
        nodes: Vec<NodeId>,
    },
    /// Corrupt a fraction of `from`'s outbound messages.
    Corrupt {
        /// The node whose outbound traffic is mangled.
        from: NodeId,
        /// Per-message corruption probability.
        prob: f64,
    },
    /// Add `extra` one-way delay on one direction of one link.
    Slow {
        /// Link source.
        from: NodeId,
        /// Link destination.
        to: NodeId,
        /// Added one-way delay.
        extra: SimDuration,
    },
    /// Duplicate a fraction of all traffic; the copy arrives a fixed 2 ms
    /// after the original.
    Duplicate {
        /// Per-message duplication probability.
        prob: f64,
    },
    /// Drop a fraction of one protocol message kind, selected by its
    /// leading 4-byte big-endian wire discriminant (the protocol's XDR
    /// envelope puts the variant tag first, so no protocol dependency is
    /// needed): targeted starvation, e.g. of chunk replies.
    DropTagged {
        /// Wire discriminant of the targeted message kind.
        tag: u32,
        /// Per-message drop probability.
        prob: f64,
    },
    /// Corrupt the body (never the discriminant) of a fraction of one
    /// protocol message kind: the message still parses as its kind but
    /// fails content verification downstream.
    CorruptTagged {
        /// Wire discriminant of the targeted message kind.
        tag: u32,
        /// Per-message corruption probability.
        prob: f64,
    },
    /// Drop a fraction of all traffic (a lossy network).
    Drop {
        /// Per-message drop probability.
        prob: f64,
    },
}

/// What the network does with one intercepted message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FilterAction {
    /// Deliver unchanged.
    Pass,
    /// Silently drop.
    Drop,
    /// Deliver after an extra delay.
    Delay(SimDuration),
    /// Deliver a modified payload.
    Rewrite(Vec<u8>),
    /// Deliver the original and a duplicate (after the extra delay).
    Duplicate(SimDuration),
}

/// How long after the original a [`NetFault::Duplicate`] copy arrives.
pub(crate) const DUPLICATE_DELAY: SimDuration = SimDuration::from_millis(2);

/// Probabilities are shrunk on a fixed micro-unit grid so the search stays
/// integral and the result renders identically everywhere.
const PROB_UNITS: f64 = 1e6;

fn prob_to_units(p: f64) -> u64 {
    (p * PROB_UNITS).round() as u64
}

fn units_to_prob(u: u64) -> f64 {
    u as f64 / PROB_UNITS
}

/// True when `payload` starts with the 4-byte big-endian `tag`.
fn has_tag(payload: &[u8], tag: u32) -> bool {
    payload.len() >= 4 && payload[..4] == tag.to_be_bytes()
}

/// `payload` with the byte at a random index in `from..len` inverted.
fn flip_byte(payload: &[u8], from: usize, rng: &mut StdRng) -> FilterAction {
    let mut corrupted = payload.to_vec();
    let idx = rng.gen_range(from..corrupted.len());
    corrupted[idx] ^= 0xff;
    FilterAction::Rewrite(corrupted)
}

impl NetFault {
    /// What this fault does to one message `from → to`. A probabilistic
    /// fault draws from `rng` only for the messages it could touch.
    pub(crate) fn act(
        &self,
        from: NodeId,
        to: NodeId,
        payload: &[u8],
        rng: &mut StdRng,
    ) -> FilterAction {
        match *self {
            NetFault::Partition { ref nodes } => {
                if nodes.contains(&from) != nodes.contains(&to) {
                    return FilterAction::Drop;
                }
            }
            NetFault::Corrupt { from: src, prob } => {
                if from == src && !payload.is_empty() && rng.gen_bool(prob) {
                    return flip_byte(payload, 0, rng);
                }
            }
            NetFault::Slow { from: src, to: dst, extra } => {
                if from == src && to == dst {
                    return FilterAction::Delay(extra);
                }
            }
            NetFault::Duplicate { prob } => {
                if rng.gen_bool(prob) {
                    return FilterAction::Duplicate(DUPLICATE_DELAY);
                }
            }
            NetFault::DropTagged { tag, prob } => {
                if has_tag(payload, tag) && rng.gen_bool(prob) {
                    return FilterAction::Drop;
                }
            }
            NetFault::CorruptTagged { tag, prob } => {
                if has_tag(payload, tag) && payload.len() > 4 && rng.gen_bool(prob) {
                    return flip_byte(payload, 4, rng);
                }
            }
            NetFault::Drop { prob } => {
                if rng.gen_bool(prob) {
                    return FilterAction::Drop;
                }
            }
        }
        FilterAction::Pass
    }

    /// The canonical encoding a schedule digest folds: a variant number,
    /// then every field (probabilities by their bit pattern).
    pub(crate) fn words(&self) -> Vec<u64> {
        match self {
            NetFault::Partition { nodes } => {
                let mut w = vec![1, nodes.len() as u64];
                w.extend(nodes.iter().map(|n| n.0 as u64));
                w
            }
            NetFault::Corrupt { from, prob } => vec![2, from.0 as u64, prob.to_bits()],
            NetFault::Slow { from, to, extra } => {
                vec![3, from.0 as u64, to.0 as u64, extra.as_nanos()]
            }
            NetFault::Duplicate { prob } => vec![4, prob.to_bits()],
            NetFault::DropTagged { tag, prob } => vec![5, u64::from(*tag), prob.to_bits()],
            NetFault::CorruptTagged { tag, prob } => vec![6, u64::from(*tag), prob.to_bits()],
            NetFault::Drop { prob } => vec![7, prob.to_bits()],
        }
    }

    /// The magnitudes the shrinker may lower: `Slow`'s delay in
    /// nanoseconds, or a probability on the 10⁻⁶ grid. A partition has
    /// none.
    pub(crate) fn knobs(&self) -> Vec<u64> {
        match self {
            NetFault::Partition { .. } => Vec::new(),
            NetFault::Slow { extra, .. } => vec![extra.as_nanos()],
            NetFault::Corrupt { prob, .. }
            | NetFault::Duplicate { prob }
            | NetFault::DropTagged { prob, .. }
            | NetFault::CorruptTagged { prob, .. }
            | NetFault::Drop { prob } => vec![prob_to_units(*prob)],
        }
    }

    /// This fault with knob `k` (an index into [`knobs`](Self::knobs)) set
    /// to `v`.
    ///
    /// # Panics
    ///
    /// Panics if the fault has no knob `k`.
    pub(crate) fn with_knob(&self, k: usize, v: u64) -> NetFault {
        let mut fault = self.clone();
        match (&mut fault, k) {
            (NetFault::Slow { extra, .. }, 0) => *extra = SimDuration::from_nanos(v),
            (
                NetFault::Corrupt { prob, .. }
                | NetFault::Duplicate { prob }
                | NetFault::DropTagged { prob, .. }
                | NetFault::CorruptTagged { prob, .. }
                | NetFault::Drop { prob },
                0,
            ) => *prob = units_to_prob(v),
            _ => panic!("{self} has no knob {k}"),
        }
        fault
    }
}

impl fmt::Display for NetFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetFault::Partition { nodes } => {
                let ids: Vec<String> = nodes.iter().map(|n| n.0.to_string()).collect();
                write!(f, "partition {{{}}}", ids.join(","))
            }
            NetFault::Corrupt { from, prob } => {
                write!(f, "corrupt from node {} p={prob:.2}", from.0)
            }
            NetFault::Slow { from, to, extra } => {
                write!(f, "slow link {}->{} +{}ms", from.0, to.0, extra.as_nanos() / 1_000_000)
            }
            NetFault::Duplicate { prob } => write!(f, "duplicate p={prob:.2}"),
            NetFault::DropTagged { tag, prob } => write!(f, "drop tag {tag} p={prob:.2}"),
            NetFault::CorruptTagged { tag, prob } => write!(f, "corrupt tag {tag} p={prob:.2}"),
            NetFault::Drop { prob } => write!(f, "drop p={prob:.2}"),
        }
    }
}

/// A fault in force over `[from, until)` of virtual time.
pub(crate) type Window = (NetFault, SimTime, SimTime);

/// The faults of `windows` in force at `now`, in the order they were added.
pub(crate) fn in_force(windows: &[Window], now: SimTime) -> impl Iterator<Item = &NetFault> {
    windows.iter().filter(move |(_, from, until)| *from <= now && now < *until).map(|(f, ..)| f)
}

/// What the network does to a message `from → to` routed at `now`: the
/// first action of a fault in force that is not a pass, trying the windows
/// in insertion order. Loopback is never touched.
pub(crate) fn route(
    windows: &[Window],
    from: NodeId,
    to: NodeId,
    payload: &[u8],
    now: SimTime,
    rng: &mut StdRng,
) -> FilterAction {
    if from == to {
        return FilterAction::Pass;
    }
    in_force(windows, now)
        .map(|fault| fault.act(from, to, payload, rng))
        .find(|action| *action != FilterAction::Pass)
        .unwrap_or(FilterAction::Pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use FilterAction::{Delay, Drop, Duplicate, Pass};
    use NetFault as F;
    use Want::{Is, Rewrite};

    /// What must happen to a message. Rewrites are checked by shape,
    /// everything else by equality.
    #[derive(Debug)]
    enum Want {
        Is(FilterAction),
        /// A rewrite that keeps the first `keep` bytes and changes one.
        Rewrite { keep: usize },
    }

    /// One check: name, windows, from, to, payload, routing millisecond,
    /// outcome.
    type Row<'a> = (&'a str, Vec<Window>, usize, usize, &'a [u8], u64, Want);

    const X: &[u8] = b"x";
    /// A message of wire kind 18 and one of kind 11.
    const FRAG: &[u8] = &[0, 0, 0, 18, 1, 2, 3];
    const OTHER: &[u8] = &[0, 0, 0, 11, 1, 2, 3];

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    /// `fault` in force for all time.
    fn always(fault: NetFault) -> Vec<Window> {
        vec![(fault, SimTime::ZERO, SimTime(u64::MAX))]
    }

    /// Routes each row's message through its windows and checks the outcome.
    fn check(rows: Vec<Row>) {
        let mut rng = StdRng::seed_from_u64(0);
        for (name, windows, from, to, payload, now, want) in rows {
            let got = route(&windows, n(from), n(to), payload, ms(now), &mut rng);
            match (&want, &got) {
                (Is(w), g) => assert_eq!(g, w, "{name}"),
                (Rewrite { keep }, FilterAction::Rewrite(p)) => {
                    assert_eq!(p.len(), payload.len(), "{name}");
                    assert_eq!(p[..*keep], payload[..*keep], "{name}: kept bytes moved");
                    let changed = p.iter().zip(payload).filter(|(a, b)| a != b).count();
                    assert_eq!(changed, 1, "{name}: one byte is corrupted");
                }
                _ => panic!("{name}: want {want:?}, got {got:?}"),
            }
        }
    }

    /// A group partition cuts its members off from the rest only.
    #[test]
    fn isolate_drops_both_directions() {
        let pair = || always(F::Partition { nodes: vec![n(1), n(2)] });
        check(vec![
            ("member to outsider", pair(), 1, 3, X, 0, Is(Drop)),
            ("outsider to member", pair(), 3, 2, X, 0, Is(Drop)),
            ("member to member", pair(), 1, 2, X, 0, Is(Pass)),
            ("outsiders", pair(), 0, 3, X, 0, Is(Pass)),
        ]);
    }

    #[test]
    fn bit_flipper_changes_payload() {
        let corrupt = || always(F::Corrupt { from: n(0), prob: 1.0 });
        check(vec![
            ("its sender", corrupt(), 0, 1, b"abcd", 0, Rewrite { keep: 0 }),
            ("another sender", corrupt(), 2, 1, b"abcd", 0, Is(Pass)),
            ("empty payload", corrupt(), 0, 1, b"", 0, Is(Pass)),
        ]);
    }

    #[test]
    fn tagged_dropper_matches_discriminant_only() {
        let dtag = || always(F::DropTagged { tag: 18, prob: 1.0 });
        check(vec![
            ("its kind", dtag(), 0, 1, FRAG, 0, Is(Drop)),
            ("another kind", dtag(), 0, 1, OTHER, 0, Is(Pass)),
            ("no room for a tag", dtag(), 0, 1, &[0, 0], 0, Is(Pass)),
        ]);
    }

    #[test]
    fn tagged_flipper_preserves_discriminant() {
        let ctag = || always(F::CorruptTagged { tag: 18, prob: 1.0 });
        check(vec![
            ("its kind", ctag(), 0, 1, FRAG, 0, Rewrite { keep: 4 }),
            ("another kind", ctag(), 0, 1, OTHER, 0, Is(Pass)),
            ("no body", ctag(), 0, 1, &FRAG[..4], 0, Is(Pass)),
        ]);
    }

    #[test]
    fn slow_duplicate_and_drop_act_as_declared() {
        let d5 = SimDuration::from_millis(5);
        let slow = || always(F::Slow { from: n(0), to: n(1), extra: d5 });
        let dup = always(F::Duplicate { prob: 1.0 });
        check(vec![
            ("slow, its link", slow(), 0, 1, X, 0, Is(Delay(d5))),
            ("slow, reverse direction", slow(), 1, 0, X, 0, Is(Pass)),
            ("duplicate", dup, 0, 1, X, 0, Is(Duplicate(DUPLICATE_DELAY))),
            ("drop", always(F::Drop { prob: 1.0 }), 0, 1, X, 0, Is(Drop)),
        ]);
    }

    /// A window is in force over `[from, until)` of the routing instant.
    #[test]
    fn active_window_gates_inner_filter() {
        let win = || vec![(F::Partition { nodes: vec![n(1)] }, ms(10), ms(20))];
        check(vec![
            ("before the window", win(), 1, 0, X, 9, Is(Pass)),
            ("window start is inclusive", win(), 1, 0, X, 10, Is(Drop)),
            ("inside the window", win(), 0, 1, X, 19, Is(Drop)),
            ("window end is exclusive", win(), 1, 0, X, 20, Is(Pass)),
        ]);
    }

    #[test]
    fn until_window_is_active_from_start() {
        let win = || vec![(F::Partition { nodes: vec![n(2)] }, SimTime::ZERO, ms(5))];
        check(vec![
            ("at the start", win(), 2, 0, X, 0, Is(Drop)),
            ("at the end", win(), 2, 0, X, 5, Is(Pass)),
        ]);
    }

    /// Windows are tried in insertion order; the first non-pass wins.
    #[test]
    fn chain_applies_first_match() {
        let d5 = SimDuration::from_millis(5);
        let ordered = || -> Vec<Window> {
            [
                F::Partition { nodes: vec![n(9)] },
                F::Slow { from: n(0), to: n(1), extra: d5 },
                F::Drop { prob: 1.0 },
            ]
            .into_iter()
            .map(|fault| (fault, SimTime::ZERO, ms(100)))
            .collect()
        };
        check(vec![
            ("first non-pass wins", ordered(), 9, 1, X, 0, Is(Drop)),
            ("a pass falls through", ordered(), 0, 1, X, 0, Is(Delay(d5))),
            ("down to the last window", ordered(), 1, 0, X, 0, Is(Drop)),
        ]);
    }

    /// Loopback is never touched, whatever is in force.
    #[test]
    fn loopback_is_never_touched() {
        check(vec![
            ("partition", always(F::Partition { nodes: vec![n(1), n(2)] }), 1, 1, X, 0, Is(Pass)),
            ("corrupt", always(F::Corrupt { from: n(0), prob: 1.0 }), 0, 0, X, 0, Is(Pass)),
            ("duplicate", always(F::Duplicate { prob: 1.0 }), 0, 0, X, 0, Is(Pass)),
            ("drop", always(F::Drop { prob: 1.0 }), 0, 0, X, 0, Is(Pass)),
        ]);
    }

    #[test]
    fn knobs_write_back_onto_the_grid() {
        let extra = SimDuration::from_millis(5);
        let slow = NetFault::Slow { from: NodeId(0), to: NodeId(1), extra };
        assert_eq!(slow.knobs(), vec![5_000_000]);
        let shrunk = NetFault::Slow { from: NodeId(0), to: NodeId(1), extra: SimDuration(7) };
        assert_eq!(slow.with_knob(0, 7), shrunk);
        assert!(NetFault::Partition { nodes: vec![NodeId(1)] }.knobs().is_empty());
        // An unshrunk probability written back lands on the 10⁻⁶ grid.
        let dup = NetFault::Duplicate { prob: 0.123_456_78 };
        assert_eq!(dup.knobs(), vec![123_457]);
        assert_eq!(dup.with_knob(0, 123_457), NetFault::Duplicate { prob: 0.123_457 });
    }
}
