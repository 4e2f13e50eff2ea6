//! Property test of the new-view decision procedure (`compute_o`, TOCS
//! 2002 §4.4) against generated histories.
//!
//! A history runs a group of `n = 3f + 1` replicas, up to `f` of them
//! Byzantine, through a few views over two sequence numbers. In each view
//! the primary proposes: in view 0 and on numbers a NEW-VIEW leaves free,
//! an honest primary proposes a fresh batch and a Byzantine one sends each
//! honest replica a batch of its choosing or nothing. Each honest replica
//! may miss the proposal. A batch prepares at the honest replicas that
//! pre-prepared it once 2f backups endorse it (Byzantine backups always
//! do), and commits once 2f+1 replicas that prepared it send commits.
//! Every honest replica keeps its P and Q sets the way a replica folds
//! them out of its log. A new view collects a firm VIEW-CHANGE from each
//! honest replica that is not cut off and a made-up one from each
//! Byzantine replica: P claims and Q entries for batches it saw, for
//! batches no one proposed, at any earlier view.
//!
//! Every set of 2f+1 or more of those VIEW-CHANGEs the new primary could
//! pick, if it decides at all, must keep each committed batch at its
//! number and must never choose a batch that no honest replica
//! pre-prepared. The history then continues from one of those sets, chosen
//! at random, as a Byzantine new primary may.

use base_crypto::{Digest, Signature};
use base_pbft::messages::{PEntry, PrePrepareMsg, QEntry, RequestMsg, ViewChangeMsg};
use base_pbft::replica::compute_o;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// Sequence numbers in play.
const SEQS: [u64; 2] = [1, 2];

/// A batch, by id: one request whose operation is the id. Id 0 is the null
/// batch.
fn batch(id: u8) -> Vec<RequestMsg> {
    if id == 0 {
        Vec::new()
    } else {
        vec![RequestMsg::new(100, u64::from(id), false, 0, vec![id])]
    }
}

fn digest(id: u8) -> Digest {
    PrePrepareMsg::batch_digest_of(&batch(id), &[])
}

/// The batch a digest is of.
fn id_of(d: &Digest) -> Option<u8> {
    static IDS: OnceLock<BTreeMap<Digest, u8>> = OnceLock::new();
    IDS.get_or_init(|| (0..=u8::MAX).map(|id| (digest(id), id)).collect()).get(d).copied()
}

/// What an honest replica carries: its P set (per number, the latest view
/// a batch prepared in and that batch) and its Q set (per number and
/// batch, the latest view it pre-prepared in).
#[derive(Default)]
struct Carried {
    p: BTreeMap<u64, (u64, u8)>,
    q: BTreeMap<(u64, u8), u64>,
}

impl Carried {
    fn view_change(&self, new_view: u64, replica: u32) -> ViewChangeMsg {
        let p = self.p.iter();
        let p = p.map(|(&seq, &(view, id))| PEntry::new(seq, view, batch(id), Vec::new()));
        let q = self.q.iter().map(|(&(seq, id), &view)| QEntry { seq, view, digest: digest(id) });
        firm(new_view, p.collect(), q.collect(), replica)
    }
}

/// A firm VIEW-CHANGE, sorted as a replica sends one.
fn firm(new_view: u64, mut p: Vec<PEntry>, mut q: Vec<QEntry>, replica: u32) -> ViewChangeMsg {
    p.sort_by_key(|e| e.seq);
    q.sort_by_key(|e| (e.seq, e.digest));
    let (stable_digest, sig) = (Digest::ZERO, Signature::default());
    let (firm, stable_seq, stable_proof) = (true, 0, Vec::new());
    ViewChangeMsg { new_view, firm, stable_seq, stable_digest, stable_proof, p, q, replica, sig }
}

struct History {
    rng: StdRng,
    n: usize,
    f: usize,
    byz: BTreeSet<usize>,
    honest: BTreeMap<usize, Carried>,
    /// The batch committed at each number.
    committed: BTreeMap<u64, u8>,
    /// (number, batch) pre-prepared by some honest replica.
    pre_prepared: BTreeSet<(u64, u8)>,
    next_id: u8,
    /// How often an honest replica hears a message.
    reach: f64,
}

impl History {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = if rng.gen_bool(0.75) { 1 } else { 2 };
        let n = 3 * f + 1;
        let faulty = if rng.gen_bool(0.8) { f } else { rng.gen_range(0..f) };
        let mut byz = BTreeSet::new();
        while byz.len() < faulty {
            byz.insert(rng.gen_range(0..n));
        }
        let honest = (0..n).filter(|r| !byz.contains(r)).map(|r| (r, Carried::default())).collect();
        let reach = 0.4 + 0.6 * rng.gen::<f64>();
        let (committed, pre_prepared) = (BTreeMap::new(), BTreeSet::new());
        Self { rng, n, f, byz, honest, committed, pre_prepared, next_id: 1, reach }
    }

    fn fresh(&mut self) -> u8 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// A Byzantine replica's VIEW-CHANGE: claims about batches it saw and
    /// batches no one ever proposed, at views before `view`.
    fn made_up(&mut self, view: u64, replica: u32) -> ViewChangeMsg {
        let known: Vec<u8> = (1..self.next_id).collect();
        let (mut p, mut q) = (Vec::new(), BTreeMap::new());
        for seq in SEQS {
            let pick = |rng: &mut StdRng| {
                let fake = rng.gen_bool(0.3) || known.is_empty();
                let real = |rng: &mut StdRng| known[rng.gen_range(0..known.len())];
                let id = if fake { 200 + rng.gen_range(0u8..8) } else { real(rng) };
                (rng.gen_range(0..view), id)
            };
            if self.rng.gen_bool(0.6) {
                let (v, id) = pick(&mut self.rng);
                p.push(PEntry::new(seq, v, batch(id), Vec::new()));
                q.insert((seq, id), v);
            }
            for _ in 0..self.rng.gen_range(0..3) {
                let (v, id) = pick(&mut self.rng);
                q.insert((seq, id), v);
            }
        }
        let q = q.into_iter().map(|((seq, id), view)| QEntry { seq, view, digest: digest(id) });
        firm(view, p, q.collect(), replica)
    }

    /// The batch the primary of `view` sends honest replica `r` at `seq`,
    /// or none: `proposal` when the primary is honest or bound by a
    /// NEW-VIEW, else whatever a Byzantine primary likes.
    fn sent(&mut self, byz_primary: bool, proposal: u8, to_primary: bool) -> Option<u8> {
        if to_primary && !byz_primary {
            return Some(proposal);
        }
        if !self.rng.gen_bool(self.reach) {
            return None;
        }
        if byz_primary && self.rng.gen_bool(0.5) {
            return Some(if self.rng.gen_bool(0.5) { proposal } else { self.fresh() });
        }
        Some(proposal)
    }

    /// Runs view `view` with the proposals `o` (number → batch) a NEW-VIEW
    /// bound the primary to; other numbers are free.
    fn run_view(&mut self, view: u64, o: &BTreeMap<u64, u8>) -> Result<(), String> {
        let primary = (view % self.n as u64) as usize;
        let byz_primary = self.byz.contains(&primary);
        for seq in SEQS {
            let (proposal, bound) = match o.get(&seq) {
                Some(&id) => (id, true),
                None => (self.fresh(), false),
            };
            let mut got: BTreeMap<u8, Vec<usize>> = BTreeMap::new();
            let replicas: Vec<usize> = self.honest.keys().copied().collect();
            for r in replicas {
                if let Some(id) = self.sent(byz_primary && !bound, proposal, r == primary) {
                    got.entry(id).or_default().push(r);
                }
            }
            for (id, at) in got {
                self.pre_prepared.insert((seq, id));
                let byz_backups = self.byz.iter().filter(|&&b| b != primary).count();
                let endorse = at.iter().filter(|&&r| r != primary).count() + byz_backups;
                let mut prepared = Vec::new();
                for &r in &at {
                    let carried = self.honest.get_mut(&r).expect("honest");
                    let latest = carried.q.entry((seq, id)).or_insert(view);
                    *latest = (*latest).max(view);
                    if endorse >= 2 * self.f && self.rng.gen_bool(0.8) {
                        carried.p.insert(seq, (view, id));
                        prepared.push(r);
                    }
                }
                if !prepared.is_empty() && prepared.len() + self.byz.len() > 2 * self.f {
                    if let Some(&was) = self.committed.get(&seq) {
                        if was != id {
                            let what = format!("{id} committed at {seq} in view {view} over {was}");
                            return Err(what);
                        }
                    }
                    self.committed.insert(seq, id);
                }
            }
        }
        Ok(())
    }

    /// The new view `view`: the VIEW-CHANGEs that reach its primary, every
    /// decision it could make from them, checked, and the one it makes.
    fn new_view(&mut self, view: u64) -> Result<Option<BTreeMap<u64, u8>>, String> {
        let mut vcs = Vec::new();
        let replicas: Vec<usize> = self.honest.keys().copied().collect();
        for r in replicas {
            if self.rng.gen_bool(self.reach.max(0.7)) {
                vcs.push(self.honest[&r].view_change(view, r as u32));
            }
        }
        for b in self.byz.clone() {
            vcs.push(self.made_up(view, b as u32));
        }
        let mut decided = Vec::new();
        for mask in 1u32..(1 << vcs.len()) {
            if (mask.count_ones() as usize) <= 2 * self.f {
                continue;
            }
            let picked: Vec<ViewChangeMsg> =
                (0..vcs.len()).filter(|i| mask & (1 << i) != 0).map(|i| vcs[i].clone()).collect();
            let Some((_, o)) = compute_o(view, self.f, &picked) else { continue };
            let o: BTreeMap<u64, u8> = o
                .iter()
                .map(|pp| (pp.seq, id_of(&pp.batch_digest()).expect("a batch the history made")))
                .collect();
            for (&seq, &id) in &self.committed {
                if o.get(&seq) != Some(&id) {
                    return Err(format!(
                        "view {view}: batch {id} committed at {seq}, but VIEW-CHANGEs from {:?} \
                         (Byzantine: {:?}) choose {:?}",
                        picked.iter().map(|vc| vc.replica).collect::<Vec<_>>(),
                        self.byz,
                        o.get(&seq)
                    ));
                }
            }
            for (&seq, &id) in &o {
                if id != 0 && !self.pre_prepared.contains(&(seq, id)) {
                    let invented = "which no honest replica pre-prepared";
                    return Err(format!("view {view}: chose batch {id} at {seq}, {invented}"));
                }
            }
            decided.push(o);
        }
        Ok((!decided.is_empty()).then(|| {
            let i = self.rng.gen_range(0..decided.len());
            decided.swap_remove(i)
        }))
    }
}

/// Runs one generated history to its end; `Err` names the first violation.
fn run(seed: u64) -> Result<(), String> {
    let mut h = History::new(seed);
    let views = h.rng.gen_range(3..7);
    h.run_view(0, &BTreeMap::new())?;
    for view in 1..views {
        // No decision: the view change stalls, and the next one tries
        // again from the same sets.
        if let Some(o) = h.new_view(view)? {
            h.run_view(view, &o)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Every quorum a new primary can pick keeps each committed batch at
    /// its number and chooses no batch that no honest replica
    /// pre-prepared.
    #[test]
    fn decision_keeps_committed_batches_and_invents_none(seed: u64) {
        if let Err(violation) = run(seed) {
            panic!("seed {seed}: {violation}");
        }
    }
}
