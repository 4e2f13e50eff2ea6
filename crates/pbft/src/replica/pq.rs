//! The P and Q sets of TOCS 2002 §4.4: what a replica carries from one
//! view to the next, their shape on the wire, and the decision procedure a
//! new primary — and every replica checking its NEW-VIEW — runs over the
//! sets that 2f+1 or more firm VIEW-CHANGEs carry.

use crate::config::Config;
use crate::log::Log;
use crate::messages::{PEntry, PrePrepareMsg, QEntry, ViewChangeMsg};
use base_crypto::Digest;
use std::collections::BTreeMap;

/// TOCS's PSet and QSet over the sequence numbers above the stable
/// checkpoint. The log keeps a slot's messages for the view it is in only,
/// so these are folded out of it whenever the replica leaves a view: what
/// a slot did in one view outlives the re-proposal that restarts it in the
/// next.
#[derive(Default)]
pub(super) struct PqSets {
    /// PSet: per sequence number, the batch that last prepared here.
    prepared: BTreeMap<u64, PEntry>,
    /// QSet: per (sequence number, batch digest) that pre-prepared here,
    /// the latest view it did.
    pre_prepared: BTreeMap<(u64, Digest), u64>,
}

impl PqSets {
    /// Folds what the log holds into both sets, and drops their entries at
    /// or below the stable checkpoint `h`.
    pub(super) fn fold(&mut self, log: &Log, h: u64, f: usize) {
        self.prepared = self.prepared.split_off(&(h + 1));
        self.pre_prepared = self.pre_prepared.split_off(&(h + 1, Digest::ZERO));
        for (seq, entry) in log.iter() {
            let Some(pp) = &entry.pre_prepare else { continue };
            let view = self.pre_prepared.entry((seq, pp.batch_digest())).or_insert(pp.view);
            *view = (*view).max(pp.view);
            let later = self.prepared.get(&seq).is_none_or(|p| p.view < pp.view);
            if later && entry.prepared(pp.view, f) {
                let batch = (pp.requests().to_vec(), pp.nondet().to_vec());
                self.prepared.insert(seq, PEntry::new(seq, pp.view, batch.0, batch.1));
            }
        }
    }

    /// Both sets as a VIEW-CHANGE carries them, in order.
    pub(super) fn sets(&self) -> (Vec<PEntry>, Vec<QEntry>) {
        let p = self.prepared.values().cloned().collect();
        let q = self.pre_prepared.iter();
        (p, q.map(|(&(seq, digest), &view)| QEntry { seq, view, digest }).collect())
    }
}

/// The shape of a VIEW-CHANGE's P and Q sets: every entry inside the
/// sender's window and from a view before the one it votes for, P one
/// entry per sequence number and Q one per (sequence number, digest), each
/// in order.
pub(super) fn well_formed(cfg: &Config, vc: &ViewChangeMsg) -> bool {
    let (low, high) = (vc.stable_seq, cfg.high_watermark(vc.stable_seq));
    let fits = |seq: u64, view: u64| seq > low && seq <= high && view < vc.new_view;
    vc.p.iter().all(|p| fits(p.seq, p.view))
        && vc.p.windows(2).all(|w| w[0].seq < w[1].seq)
        && vc.q.iter().all(|q| fits(q.seq, q.view))
        && vc.q.windows(2).all(|w| (w[0].seq, w[0].digest) < (w[1].seq, w[1].digest))
}

/// The new-view set `O` that VIEW-CHANGEs `vcs`, from distinct senders,
/// decide by the procedure of TOCS 2002 §4.4, or `None` while a sequence
/// number is undecided and the new primary must wait for more of them.
/// Returns `(min_s, pre_prepares)`: `min_s` is the highest stable
/// checkpoint among them, and `O` runs from there to the highest sequence
/// number a P entry names. Number `n` gets
/// - a batch that a P entry claims prepared at `n` in view `v`, if 2f+1
///   messages do not contradict the claim (they have no P entry at `n`,
///   one from an earlier view, or the same batch in `v`) and f+1 messages
///   have a Q entry vouching that it pre-prepared at `n` in `v` or later;
///   of the claims that qualify, the latest view's (then the highest
///   digest's); or else
/// - the null batch, if 2f+1 messages have no P entry at `n`.
///
/// The pre-prepares carry empty authentication (the caller fills it).
pub fn compute_o(view: u64, f: usize, vcs: &[ViewChangeMsg]) -> Option<(u64, Vec<PrePrepareMsg>)> {
    let min_s = vcs.iter().map(|vc| vc.stable_seq).max().unwrap_or(0);
    let claims = || vcs.iter().flat_map(|vc| &vc.p).filter(move |p| p.seq > min_s);
    let max_s = claims().map(|p| p.seq).max().unwrap_or(min_s);
    let o = ((min_s + 1)..=max_s).map(|seq| {
        let qualifies = |claim: &PEntry| {
            let (view, digest) = (claim.view, claim.digest());
            let agree = vcs.iter().filter(|vc| {
                let p = p_entry(vc, seq);
                p.is_none_or(|p| p.view < view || (p.view == view && p.digest() == digest))
            });
            let vouch = vcs.iter().filter(|vc| {
                vc.q.iter().any(|q| q.seq == seq && q.view >= view && q.digest == digest)
            });
            agree.count() > 2 * f && vouch.count() > f
        };
        let chosen = claims()
            .filter(|claim| claim.seq == seq && qualifies(claim))
            .max_by_key(|claim| (claim.view, claim.digest()));
        match chosen {
            Some(c) => {
                Some(PrePrepareMsg::new(view, seq, c.requests().to_vec(), c.nondet().to_vec()))
            }
            None if vcs.iter().filter(|vc| p_entry(vc, seq).is_none()).count() > 2 * f => {
                Some(PrePrepareMsg::new(view, seq, Vec::new(), Vec::new()))
            }
            None => None,
        }
    });
    Some((min_s, o.collect::<Option<_>>()?))
}

/// `vc`'s P entry at `seq`, if it has one.
fn p_entry(vc: &ViewChangeMsg, seq: u64) -> Option<&PEntry> {
    vc.p.iter().find(|p| p.seq == seq)
}
