//! Views: VIEW-CHANGE and NEW-VIEW, and the view-change timer. The P and Q
//! sets a firm VIEW-CHANGE carries, and the decision procedure a new
//! primary runs over them, are `pq.rs`.
//!
//! A view change has two steps. A replica whose timer expires multicasts a
//! *suspicion* (a VIEW-CHANGE that is not firm) and keeps working in its
//! view. It leaves the view — suspends agreement and multicasts a *firm*
//! VIEW-CHANGE with its P and Q sets — once 2f+1 replicas have voted for
//! the next view, and only then starts the timer that moves it on if no
//! NEW-VIEW comes (TOCS 2002 §4.5.2). So a replica that times out alone
//! never leaves the group it is still part of.

use super::checkpoint::validate_cert;
use super::io::Io;
use super::json_opt;
use super::pq::{compute_o, well_formed, PqSets};
use crate::config::{escalated_vc_timeout, Config, RTO, VIEW_CHANGE_TIMEOUT_BASE};
use crate::cost::COST;
use crate::messages::{CheckpointMsg, Message, NewViewMsg, ViewChangeMsg};
use base_crypto::{Digest, NodeKeys};
use base_simnet::{NodeId, ProtocolEvent, SimDuration, TimerId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Timer token of the view-change timer. Only this file arms or cancels it.
pub(super) const TOKEN_VIEW_CHANGE: u64 = 2;

/// What the VIEW-CHANGE votes a replica holds call for.
pub(super) enum Move {
    /// Suspect the primary too, for this view.
    Suspect(u64),
    /// Leave the current view for this one with a firm vote.
    Enter(u64),
}

/// The replica's view, the VIEW-CHANGE votes it holds, what it carries from
/// one view to the next, and the timer that moves it on when the view
/// makes no progress.
pub(super) struct ViewChange {
    /// This replica's id.
    me: u32,
    view: u64,
    /// A view change to `view` is under way: agreement is suspended.
    changing: bool,
    /// Verified VIEW-CHANGE messages by target view and sender: a firm vote
    /// where the sender sent one, else its suspicion.
    votes: BTreeMap<u64, HashMap<u32, ViewChangeMsg>>,
    /// 2f+1: the votes for a view that make a replica enter it, and start
    /// the timer of a replica already in it.
    quorum: usize,
    timer: Option<TimerId>,
    timeout: SimDuration,
    /// Last own view-change message (retransmitted on ticks).
    own_vc: Option<ViewChangeMsg>,
    /// Last new-view message installed (resent to peers stuck in an older
    /// view); its view is the one agreement last ran in.
    last_nv: Option<NewViewMsg>,
    /// What prepared and pre-prepared here, folded out of the log whenever
    /// this replica leaves a view.
    carried: PqSets,
}

impl ViewChange {
    pub(super) fn new(cfg: &Config, id: u32) -> Self {
        Self {
            me: id,
            view: 0,
            changing: false,
            votes: BTreeMap::new(),
            quorum: cfg.quorum(),
            timer: None,
            timeout: VIEW_CHANGE_TIMEOUT_BASE,
            own_vc: None,
            last_nv: None,
            carried: PqSets::default(),
        }
    }

    pub(super) fn view(&self) -> u64 {
        self.view
    }

    /// The view of the last installed NEW-VIEW, 0 before any: the view
    /// agreement runs in, or last ran in before a view change got under way.
    pub(super) fn installed(&self) -> u64 {
        self.last_nv.as_ref().map_or(0, |nv| nv.view)
    }

    /// The view agreement runs in; `None` while a view change suspends it.
    pub(super) fn active(&self) -> Option<u64> {
        (!self.changing).then_some(self.view)
    }

    pub(super) fn timeout(&self) -> SimDuration {
        self.timeout
    }

    // The timer has one owner and four moves: restart at `RTO`, re-arm at
    // double the timeout after a suspicion, escalate
    // (`begin` doubles the timeout, a quorum of votes for the new view arms
    // it), stop.

    pub(super) fn restart(&mut self, io: &mut Io<'_, '_>) {
        self.timeout = RTO;
        self.arm(io);
    }

    fn arm(&mut self, io: &mut Io<'_, '_>) {
        self.stop(io);
        self.timer = Some(io.ctx.set_timer(self.timeout, TOKEN_VIEW_CHANGE));
    }

    pub(super) fn stop(&mut self, io: &mut Io<'_, '_>) {
        if let Some(t) = self.timer.take() {
            io.ctx.cancel_timer(t);
        }
    }

    /// A backup forwarded a new request: start the timer if it is idle.
    pub(super) fn await_progress(&mut self, io: &mut Io<'_, '_>) {
        if self.timer.is_none() && !self.changing {
            self.restart(io);
        }
    }

    /// Whether 2f+1 VIEW-CHANGEs for the view being changed to are held.
    fn quorum_for_target(&self) -> bool {
        self.changing && self.votes.get(&self.view).is_some_and(|s| s.len() >= self.quorum)
    }

    /// Starts the escalation timer once 2f+1 VIEW-CHANGEs for the target
    /// view are held (TOCS 2002 §4.5.2), so a replica whose timeout no one
    /// else shares waits in that view instead of moving on alone.
    fn arm_at_quorum(&mut self, io: &mut Io<'_, '_>) {
        if self.timer.is_none() && self.quorum_for_target() {
            self.arm(io);
        }
    }

    /// The timer fired: the view to suspect the primary for, or, in a view
    /// change, the view to escalate to — the one being changed to, still,
    /// while it lacks a quorum of VIEW-CHANGEs.
    pub(super) fn expired(&mut self) -> u64 {
        self.timer = None;
        if self.changing && !self.quorum_for_target() {
            self.view
        } else {
            self.view + 1
        }
    }

    /// Moves to a higher view `target`, suspending agreement, and doubles
    /// the timeout up to the cap. Returns whether it moved.
    pub(super) fn begin(&mut self, target: u64) -> bool {
        if target <= self.view {
            return false;
        }
        (self.view, self.changing) = (target, true);
        self.timeout = escalated_vc_timeout(self.timeout);
        true
    }

    /// Keeps `vc` as its sender's vote, unless that would replace a firm
    /// vote with a suspicion (a suspicion resent before the firm vote can
    /// arrive after it).
    fn record(&mut self, vc: ViewChangeMsg) {
        let held = self.votes.entry(vc.new_view).or_default();
        if vc.firm || !held.get(&vc.replica).is_some_and(|v| v.firm) {
            held.insert(vc.replica, vc);
        }
    }

    /// What the votes held call for: entering the smallest view above ours
    /// that 2f+1 replicas voted for; else, once f+1 replicas voted for
    /// views above ours, joining the smallest of those — with a suspicion
    /// while agreement runs, a firm vote once it is suspended.
    pub(super) fn next_move(&self, f: usize) -> Option<Move> {
        let mut above = self.votes.range((self.view + 1)..);
        if let Some((&view, _)) = above.find(|(_, held)| held.len() >= self.quorum) {
            return Some(Move::Enter(view));
        }
        let join = self.view_to_join(f)?;
        if self.changing {
            Some(Move::Enter(join))
        } else {
            let voted = self.votes.get(&join).is_some_and(|held| held.contains_key(&self.me));
            (!voted).then_some(Move::Suspect(join))
        }
    }

    /// Multicasts a suspicion of the primary for `target` and records it.
    /// Agreement carries on; the timer re-arms at double the timeout, so a
    /// replica that stays stuck repeats its suspicion ever more slowly.
    pub(super) fn suspect(&mut self, io: &mut Io<'_, '_>, target: u64) {
        io.metrics.inc("replica.suspicions");
        let mut vc = ViewChangeMsg {
            new_view: target,
            firm: false,
            stable_seq: 0,
            stable_digest: Digest::ZERO,
            stable_proof: Vec::new(),
            p: Vec::new(),
            q: Vec::new(),
            replica: io.id,
            sig: base_crypto::Signature([0; 32]),
        };
        io.ctx.charge(COST.signature);
        vc.sig = vc.with_signed_bytes(|signed| io.keys.sign(signed));
        self.record(vc.clone());
        io.multicast(&Message::ViewChange(vc));
        self.timeout = escalated_vc_timeout(self.timeout);
        self.arm(io);
    }

    /// Votes firmly for the view [`ViewChange::begin`] moved to with the P
    /// and Q sets above stable checkpoint `h`; the timer waits for a quorum.
    pub(super) fn vote(
        &mut self,
        io: &mut Io<'_, '_>,
        h: u64,
        digest: Digest,
        proof: Vec<CheckpointMsg>,
    ) {
        io.stats.view_changes_started += 1;
        io.ctx.emit(self.view, h, ProtocolEvent::ViewChangeStarted);
        self.carried.fold(io.log, h, io.cfg.f());
        let (p, q) = self.carried.sets();
        let mut vc = ViewChangeMsg {
            new_view: self.view,
            firm: true,
            stable_seq: h,
            stable_digest: digest,
            stable_proof: proof,
            p,
            q,
            replica: io.id,
            sig: base_crypto::Signature([0; 32]),
        };
        io.ctx.charge(COST.signature);
        vc.sig = vc.with_signed_bytes(|signed| io.keys.sign(signed));
        self.own_vc = Some(vc.clone());
        self.record(vc.clone());
        io.multicast(&Message::ViewChange(vc));
        self.stop(io);
        self.arm_at_quorum(io);
    }

    pub(super) fn resend_own(&self, io: &mut Io<'_, '_>) {
        if let Some(vc) = &self.own_vc {
            io.multicast(&Message::ViewChange(vc.clone()));
        }
    }

    /// Resends the last installed NEW-VIEW to a peer stuck in an older view.
    pub(super) fn resend_new_view(&self, io: &mut Io<'_, '_>, to: NodeId, peer_view: u64) {
        if let Some(nv) = self.last_nv.as_ref().filter(|_| peer_view < self.view) {
            io.send(to, &Message::NewView(nv.clone()));
        }
    }

    /// Records a peer's VIEW-CHANGE if it is valid; returns whether it did.
    pub(super) fn on_view_change(&mut self, io: &mut Io<'_, '_>, vc: ViewChangeMsg) -> bool {
        if vc.replica as usize >= io.cfg.n
            || vc.replica == io.id
            || vc.new_view <= self.installed()
        {
            return false;
        }
        io.ctx.charge(COST.signature);
        if !verify_view_change(io.cfg, io.keys, &vc) {
            io.reject();
            return false;
        }
        self.record(vc);
        self.arm_at_quorum(io);
        true
    }

    /// Liveness rule: once f+1 distinct replicas vote for views greater
    /// than ours, join the smallest such view, even if our own timer has
    /// not expired.
    fn view_to_join(&self, f: usize) -> Option<u64> {
        let mut voters: HashSet<u32> = HashSet::new();
        let mut smallest = None;
        for (v, senders) in self.votes.range((self.view + 1)..) {
            smallest = smallest.or(Some(*v));
            voters.extend(senders.keys().copied());
        }
        smallest.filter(|_| voters.len() > f)
    }

    /// The new primary, once 2f+1 firm VIEW-CHANGEs or more decide every
    /// sequence number, multicasts the NEW-VIEW and returns it with its
    /// `min_s`, to install. It uses every firm vote it holds, in replica
    /// order: a number that 2f+1 of them leave undecided, more may decide.
    pub(super) fn new_view(&mut self, io: &mut Io<'_, '_>) -> Option<(NewViewMsg, u64)> {
        let target = self.view;
        if !self.changing || !io.is_primary(target) || self.installed() >= target {
            return None;
        }
        let mut vcs: Vec<ViewChangeMsg> =
            self.votes.get(&target)?.values().filter(|vc| vc.firm).cloned().collect();
        if vcs.len() < io.cfg.quorum() {
            return None;
        }
        vcs.sort_unstable_by_key(|vc| vc.replica);
        let (min_s, pre_prepares) = compute_o(target, io.cfg.f(), &vcs)?;
        let pre_prepares = pre_prepares
            .into_iter()
            .map(|mut pp| {
                pp.auth = pp.with_signed_bytes(|header| io.authenticator(header));
                pp
            })
            .collect();
        let sig = base_crypto::Signature([0; 32]);
        let mut nv =
            NewViewMsg { view: target, view_changes: vcs, pre_prepares, replica: io.id, sig };
        io.ctx.charge(COST.signature);
        nv.sig = nv.with_signed_bytes(|signed| io.keys.sign(signed));
        io.multicast(&Message::NewView(nv.clone()));
        Some((nv, min_s))
    }

    /// Returns the `min_s` of a NEW-VIEW that passes every check.
    pub(super) fn on_new_view(&self, io: &mut Io<'_, '_>, nv: &NewViewMsg) -> Option<u64> {
        let from_primary = nv.replica as usize == io.cfg.primary_of(nv.view);
        if nv.view < self.view || nv.view <= self.installed() || !from_primary {
            return None;
        }
        io.ctx.charge(COST.signature.saturating_mul((1 + nv.view_changes.len()) as u64));
        let min_s = valid_new_view(io.cfg, io.keys, nv);
        if min_s.is_none() {
            io.reject();
        }
        min_s
    }

    /// Enters `nv`'s view, with the timeout back at [`RTO`].
    fn enter(&mut self, nv: &NewViewMsg) {
        (self.view, self.changing) = (nv.view, false);
        self.own_vc = None;
        self.last_nv = Some(nv.clone());
        self.timeout = RTO;
        self.votes = self.votes.split_off(&(nv.view + 1));
    }

    /// Installs `nv` (`h`: the stable checkpoint) and stops the timer. The
    /// log still holds the view being left, which is folded into the P and
    /// Q sets before `nv`'s re-proposals replace it.
    pub(super) fn install(&mut self, io: &mut Io<'_, '_>, nv: &NewViewMsg, h: u64) {
        self.carried.fold(io.log, h, io.cfg.f());
        self.enter(nv);
        io.metrics.inc("replica.new_views_installed");
        io.ctx.emit(nv.view, h, ProtocolEvent::ViewChangeCompleted);
        self.stop(io);
    }

    pub(super) fn status(&self, out: &mut String) {
        let target = self.changing.then_some(self.view);
        let votes = target.and_then(|v| self.votes.get(&v));
        let mut from: Vec<u32> = votes.into_iter().flat_map(|s| s.keys().copied()).collect();
        from.sort_unstable();
        let (armed, timeout) = (self.timer.is_some(), self.timeout.as_nanos());
        out.push_str(&format!(
            ",\"view\":{},\"view_change\":{},\"vc_from\":{from:?},\"vc_timer\":{armed},\
             \"vc_timeout_ns\":{timeout}",
            self.view,
            json_opt(target)
        ));
    }
}

/// A NEW-VIEW's signature, its 2f+1 or more valid firm VIEW-CHANGEs for its
/// view from distinct senders, and its re-proposals, which must be the `O`
/// those decide. Returns `min_s` if all hold.
fn valid_new_view(cfg: &Config, keys: &NodeKeys, nv: &NewViewMsg) -> Option<u64> {
    if !nv.with_signed_bytes(|signed| keys.verify(nv.replica as usize, signed, &nv.sig)) {
        return None;
    }
    let mut senders = HashSet::new();
    for vc in &nv.view_changes {
        // A sender counted twice would count twice in the decision.
        let counted = vc.firm && vc.new_view == nv.view && senders.insert(vc.replica);
        if !counted || !verify_view_change(cfg, keys, vc) {
            return None;
        }
    }
    if senders.len() < cfg.quorum() {
        return None;
    }
    let (min_s, expected) = compute_o(nv.view, cfg.f(), &nv.view_changes)?;
    let matches = expected.len() == nv.pre_prepares.len()
        && expected.iter().zip(&nv.pre_prepares).all(|(exp, got)| {
            got.view == nv.view && got.seq == exp.seq && got.batch_digest() == exp.batch_digest()
        });
    matches.then_some(min_s)
}

/// A VIEW-CHANGE's signature, stable-checkpoint proof and P and Q sets.
fn verify_view_change(cfg: &Config, keys: &NodeKeys, vc: &ViewChangeMsg) -> bool {
    if !vc.with_signed_bytes(|signed| keys.verify(vc.replica as usize, signed, &vc.sig)) {
        return false;
    }
    if vc.stable_seq > 0
        && validate_cert(cfg, keys, &vc.stable_proof) != Some((vc.stable_seq, vc.stable_digest))
    {
        return false;
    }
    well_formed(cfg, vc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VIEW_CHANGE_TIMEOUT_CAP;

    fn record_vote(vc: &mut ViewChange, view: u64, replica: u32) {
        let msg = ViewChangeMsg {
            new_view: view,
            firm: true,
            stable_seq: 0,
            stable_digest: Digest::ZERO,
            stable_proof: Vec::new(),
            p: Vec::new(),
            q: Vec::new(),
            replica,
            sig: base_crypto::Signature([0; 32]),
        };
        vc.votes.entry(view).or_default().insert(replica, msg);
    }

    fn new_view(view: u64) -> NewViewMsg {
        let sig = base_crypto::Signature([0; 32]);
        NewViewMsg { view, view_changes: Vec::new(), pre_prepares: Vec::new(), replica: 1, sig }
    }

    #[test]
    fn f_plus_one_voters_join_the_smallest_higher_view() {
        let cfg = Config::new(4);
        let mut vc = ViewChange::new(&cfg, 0);
        record_vote(&mut vc, 3, 1);
        assert_eq!(vc.view_to_join(cfg.f()), None, "one voter is not f+1");
        record_vote(&mut vc, 5, 1);
        assert_eq!(vc.view_to_join(cfg.f()), None, "a voter counts once, whatever it votes for");
        record_vote(&mut vc, 2, 2);
        assert_eq!(vc.view_to_join(cfg.f()), Some(2));
        // Votes for the current view or below do not count.
        assert!(vc.begin(2));
        assert_eq!(vc.view_to_join(cfg.f()), None);
    }

    #[test]
    fn escalation_doubles_the_timeout_up_to_the_cap() {
        let cfg = Config::new(4);
        let mut vc = ViewChange::new(&cfg, 0);
        let mut want = VIEW_CHANGE_TIMEOUT_BASE;
        for target in 1..=6 {
            assert!(vc.begin(target));
            want = want.saturating_mul(2).min(VIEW_CHANGE_TIMEOUT_CAP);
            assert_eq!(vc.timeout(), want, "view {target}");
        }
        assert_eq!(vc.timeout(), VIEW_CHANGE_TIMEOUT_CAP);
        assert!(!vc.begin(6), "not a higher view");
        assert_eq!((vc.view(), vc.active()), (6, None));
    }

    #[test]
    fn installing_a_new_view_resets_the_timeout_to_the_rto() {
        let cfg = Config::new(4);
        let mut vc = ViewChange::new(&cfg, 1);
        vc.begin(1);
        assert!(vc.timeout() > RTO, "a view change escalates");
        vc.enter(&new_view(1));
        assert_eq!((vc.timeout(), vc.active()), (RTO, Some(1)));
        // However far two more view changes escalate it, the next install
        // is back at the same constant (the progress timer's `restart`,
        // before and after rounds execute, is a replica test).
        vc.begin(2);
        vc.begin(3);
        vc.enter(&new_view(3));
        assert_eq!((vc.timeout(), vc.active()), (RTO, Some(3)));
    }

    /// DESIGN.md §8's unconfirmed cause of the lone view changer (ROADMAP
    /// item 1): TOCS §4.5.2 starts the timer for view v+1 only once 2f+1
    /// VIEW-CHANGEs for v+1 are in, so a replica holding just its own must
    /// wait in v+1 when its timer expires, not move on to v+2.
    #[test]
    fn a_lone_timeout_waits_in_v_plus_one() {
        let cfg = Config::new(4);
        let mut vc = ViewChange::new(&cfg, 2);
        assert!(vc.begin(1));
        record_vote(&mut vc, 1, 2);
        assert_eq!(vc.expired(), 1, "a lone replica escalated past v+1 without a quorum for it");
    }
}
