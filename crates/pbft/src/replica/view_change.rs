//! Views: VIEW-CHANGE and NEW-VIEW, the new-view set `O`, and the
//! view-change timer.

use super::checkpoint::validate_cert;
use super::io::Io;
use super::json_opt;
use crate::config::{Config, RTO_CEILING, RTO_FLOOR};
use crate::messages::{
    CheckpointMsg, Message, NewViewMsg, PrePrepareMsg, PreparedProof, ViewChangeMsg,
};
use base_crypto::{Authenticator, Digest, NodeKeys};
use base_simnet::{NodeId, ProtocolEvent, RttEstimator, SimDuration, TimerId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Timer token of the view-change timer. Only this file arms or cancels it.
pub(super) const TOKEN_VIEW_CHANGE: u64 = 2;

/// The replica's view, the VIEW-CHANGE votes it holds, and the timer that
/// moves it on when the view makes no progress.
pub(super) struct ViewChange {
    view: u64,
    /// A view change to `view` is under way: agreement is suspended.
    changing: bool,
    /// Verified VIEW-CHANGE messages by target view and sender.
    votes: BTreeMap<u64, HashMap<u32, ViewChangeMsg>>,
    timer: Option<TimerId>,
    timeout: SimDuration,
    /// Observed pre-prepare-to-execution latency (the three-phase agreement
    /// round); re-seeds the base timeout, so a fast group chases a silent
    /// primary sooner and a slow one stops churning views it cannot finish.
    agree_rtt: RttEstimator,
    last_new_view: u64,
    /// Last own view-change message (retransmitted on ticks).
    own_vc: Option<ViewChangeMsg>,
    /// Last new-view message installed (resent to peers stuck in an older
    /// view).
    last_nv: Option<NewViewMsg>,
}

impl ViewChange {
    pub(super) fn new(cfg: &Config, id: u32) -> Self {
        let (floor, ceiling) = (RTO_FLOOR.as_nanos(), RTO_CEILING.as_nanos());
        let seed = 0x517c_a11e_0000_0000 ^ u64::from(id);
        Self {
            view: 0,
            changing: false,
            votes: BTreeMap::new(),
            timer: None,
            timeout: cfg.view_change_timeout,
            agree_rtt: RttEstimator::new(seed, floor, ceiling, cfg.view_change_timeout.as_nanos()),
            last_new_view: 0,
            own_vc: None,
            last_nv: None,
        }
    }

    pub(super) fn view(&self) -> u64 {
        self.view
    }

    /// The view agreement runs in; `None` while a view change suspends it.
    pub(super) fn active(&self) -> Option<u64> {
        (!self.changing).then_some(self.view)
    }

    pub(super) fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// The timeout of a freshly installed view: the configured value until
    /// the first batch executes, then the RTO of the agreement latency.
    fn base(&self, cfg: &Config) -> SimDuration {
        if self.agree_rtt.samples() > 0 {
            SimDuration::from_nanos(self.agree_rtt.rto())
        } else {
            cfg.view_change_timeout
        }
    }

    /// A batch accepted at `arrived` executed (`None`: carried across a
    /// view change, so its round time is ambiguous).
    pub(super) fn observe_round(&mut self, io: &mut Io<'_, '_>, arrived: Option<u64>) {
        if let Some(arrived) = arrived {
            let lat = io.ctx.now().as_nanos().saturating_sub(arrived);
            self.agree_rtt.observe(lat);
            io.metrics.observe("replica.agreement_latency_ns", lat);
        }
    }

    // The timer has one owner and three moves: restart from the adaptive
    // base, escalate (`begin` doubles the timeout, `vote` re-arms), stop.

    pub(super) fn restart(&mut self, io: &mut Io<'_, '_>) {
        self.timeout = self.base(io.cfg);
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

    /// The timer fired: the view to move to.
    pub(super) fn expired(&mut self) -> u64 {
        self.timer = None;
        self.view + 1
    }

    /// Moves to a higher view `target`, suspending agreement, and doubles
    /// the timeout up to the cap. Returns whether it moved.
    pub(super) fn begin(&mut self, cfg: &Config, target: u64) -> bool {
        if target <= self.view {
            return false;
        }
        (self.view, self.changing) = (target, true);
        self.timeout = cfg.escalated_vc_timeout(self.timeout);
        true
    }

    /// Votes for the view [`ViewChange::begin`] moved to with the prepared
    /// certificates above stable checkpoint `h`, and escalates the timer.
    pub(super) fn vote(
        &mut self,
        io: &mut Io<'_, '_>,
        h: u64,
        digest: Digest,
        proof: Vec<CheckpointMsg>,
    ) {
        io.stats.view_changes_started += 1;
        io.metrics.inc("replica.view_changes_started");
        io.ctx.emit(self.view, h, ProtocolEvent::ViewChangeStarted);
        let f = io.cfg.f();
        let prepared = io
            .log
            .iter()
            .filter_map(|(seq, entry)| {
                let pp = entry.pre_prepare.as_ref()?;
                let prepares = || entry.prepare_proof(pp.view);
                (seq > h && entry.prepared(pp.view, f))
                    .then(|| PreparedProof { pre_prepare: pp.clone(), prepares: prepares() })
            })
            .collect();
        let mut vc = ViewChangeMsg {
            new_view: self.view,
            stable_seq: h,
            stable_digest: digest,
            stable_proof: proof,
            prepared,
            replica: io.id,
            sig: base_crypto::Signature([0; 32]),
        };
        io.ctx.charge(io.cost.signature);
        vc.sig = vc.with_signed_bytes(|signed| io.keys.sign(signed));
        self.own_vc = Some(vc.clone());
        self.votes.entry(self.view).or_default().insert(io.id, vc.clone());
        io.multicast(&Message::ViewChange(vc));
        self.arm(io);
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
            || vc.new_view <= self.last_new_view
        {
            return false;
        }
        io.ctx.charge(io.cost.signature);
        if !verify_view_change(io.cfg, io.keys, &vc) {
            io.reject();
            return false;
        }
        self.votes.entry(vc.new_view).or_default().insert(vc.replica, vc);
        true
    }

    /// Liveness rule: once f+1 distinct replicas vote for views greater
    /// than ours, join the smallest such view, even if our own timer has
    /// not expired.
    pub(super) fn view_to_join(&self, f: usize) -> Option<u64> {
        let mut voters: HashSet<u32> = HashSet::new();
        let mut smallest = None;
        for (v, senders) in self.votes.range((self.view + 1)..) {
            smallest = smallest.or(Some(*v));
            voters.extend(senders.keys().copied());
        }
        smallest.filter(|_| voters.len() > f)
    }

    /// The new primary, with a quorum of VIEW-CHANGEs, multicasts the
    /// NEW-VIEW and returns it with its `min_s`, to install.
    pub(super) fn new_view(&mut self, io: &mut Io<'_, '_>) -> Option<(NewViewMsg, u64)> {
        let target = self.view;
        if !self.changing || !io.is_primary(target) || self.last_new_view >= target {
            return None;
        }
        let senders = self.votes.get(&target).filter(|s| s.len() >= io.cfg.quorum())?;
        // Deterministic selection: the quorum with the lowest replica ids.
        let mut ids: Vec<u32> = senders.keys().copied().collect();
        ids.sort_unstable();
        ids.truncate(io.cfg.quorum());
        let vcs: Vec<ViewChangeMsg> = ids.iter().map(|i| senders[i].clone()).collect();
        let (min_s, pre_prepares) = compute_o(target, &vcs);
        let pre_prepares = pre_prepares
            .into_iter()
            .map(|mut pp| {
                io.ctx.charge(io.cost.signature);
                pp.sig = pp.with_signed_bytes(|signed| io.keys.sign(signed));
                pp.auth = Authenticator::generate(io.keys, io.cfg.n, &pp.batch_digest());
                pp
            })
            .collect();
        let sig = base_crypto::Signature([0; 32]);
        let mut nv =
            NewViewMsg { view: target, view_changes: vcs, pre_prepares, replica: io.id, sig };
        io.ctx.charge(io.cost.signature);
        nv.sig = nv.with_signed_bytes(|signed| io.keys.sign(signed));
        io.multicast(&Message::NewView(nv.clone()));
        Some((nv, min_s))
    }

    /// Returns the `min_s` of a NEW-VIEW that passes every check.
    pub(super) fn on_new_view(&self, io: &mut Io<'_, '_>, nv: &NewViewMsg) -> Option<u64> {
        let from_primary = nv.replica as usize == io.cfg.primary_of(nv.view);
        if nv.view < self.view || nv.view <= self.last_new_view || !from_primary {
            return None;
        }
        io.ctx.charge(io.cost.signature.saturating_mul((1 + nv.view_changes.len()) as u64));
        let min_s = valid_new_view(io.cfg, io.keys, nv);
        if min_s.is_none() {
            io.reject();
        }
        min_s
    }

    /// Enters `nv`'s view, with the timeout back at the adaptive base.
    fn enter(&mut self, cfg: &Config, nv: &NewViewMsg) {
        (self.view, self.changing, self.last_new_view) = (nv.view, false, nv.view);
        self.own_vc = None;
        self.last_nv = Some(nv.clone());
        self.timeout = self.base(cfg);
        self.votes = self.votes.split_off(&(nv.view + 1));
    }

    /// Installs `nv` (`h`: the stable checkpoint) and stops the timer.
    pub(super) fn install(&mut self, io: &mut Io<'_, '_>, nv: &NewViewMsg, h: u64) {
        self.enter(io.cfg, nv);
        io.stats.new_views_installed += 1;
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

/// A NEW-VIEW's signature, its quorum of valid VIEW-CHANGEs for its view
/// from distinct senders, and its re-proposals, which must be the `O` those
/// determine. Returns `min_s` if all hold.
fn valid_new_view(cfg: &Config, keys: &NodeKeys, nv: &NewViewMsg) -> Option<u64> {
    if !nv.with_signed_bytes(|signed| keys.verify(nv.replica as usize, signed, &nv.sig)) {
        return None;
    }
    let mut senders = HashSet::new();
    for vc in &nv.view_changes {
        if vc.new_view != nv.view || !verify_view_change(cfg, keys, vc) {
            return None;
        }
        senders.insert(vc.replica);
    }
    let (min_s, expected) = compute_o(nv.view, &nv.view_changes);
    let matches = senders.len() >= cfg.quorum()
        && expected.len() == nv.pre_prepares.len()
        && expected.iter().zip(&nv.pre_prepares).all(|(exp, got)| {
            got.view == nv.view
                && got.seq == exp.seq
                && got.batch_digest() == exp.batch_digest()
                && got
                    .with_signed_bytes(|signed| keys.verify(nv.replica as usize, signed, &got.sig))
        });
    matches.then_some(min_s)
}

fn verify_view_change(cfg: &Config, keys: &NodeKeys, vc: &ViewChangeMsg) -> bool {
    if !vc.with_signed_bytes(|signed| keys.verify(vc.replica as usize, signed, &vc.sig)) {
        return false;
    }
    // Stable checkpoint proof.
    if vc.stable_seq > 0
        && validate_cert(cfg, keys, &vc.stable_proof) != Some((vc.stable_seq, vc.stable_digest))
    {
        return false;
    }
    // Prepared certificates.
    vc.prepared.iter().all(|p| verify_prepared_proof(cfg, keys, p, vc.stable_seq))
}

fn verify_prepared_proof(
    cfg: &Config,
    keys: &NodeKeys,
    p: &PreparedProof,
    stable_seq: u64,
) -> bool {
    let pp = &p.pre_prepare;
    let primary = cfg.primary_of(pp.view);
    if pp.seq <= stable_seq || !pp.with_signed_bytes(|signed| keys.verify(primary, signed, &pp.sig))
    {
        return false;
    }
    let digest = pp.batch_digest();
    let senders: HashSet<u32> = p
        .prepares
        .iter()
        .filter(|prep| prep.view == pp.view && prep.seq == pp.seq && prep.digest == digest)
        .filter(|prep| prep.replica as usize != primary && (prep.replica as usize) < cfg.n)
        .filter(|prep| prep.with_signed_bytes(|s| keys.verify(prep.replica as usize, s, &prep.sig)))
        .map(|prep| prep.replica)
        .collect();
    senders.len() >= 2 * cfg.f()
}

/// Deterministically computes the new-view pre-prepare set `O` from a set
/// of view-change messages. Returns `(min_s, pre_prepares)` where the
/// pre-prepares carry empty authentication (the caller signs them).
pub fn compute_o(view: u64, vcs: &[ViewChangeMsg]) -> (u64, Vec<PrePrepareMsg>) {
    let min_s = vcs.iter().map(|vc| vc.stable_seq).max().unwrap_or(0);
    let proofs = || vcs.iter().flat_map(|vc| vc.prepared.iter());
    let max_s = proofs().map(|p| p.pre_prepare.seq).max().unwrap_or(min_s);
    let o = ((min_s + 1)..=max_s).map(|seq| {
        // The prepared certificate with the highest view for `seq`, or a
        // null request.
        let best = proofs().filter(|p| p.pre_prepare.seq == seq).max_by_key(|p| p.pre_prepare.view);
        let (requests, nondet) = match best {
            Some(p) => (p.pre_prepare.requests().to_vec(), p.pre_prepare.nondet().to_vec()),
            None => (Vec::new(), Vec::new()),
        };
        PrePrepareMsg::new(view, seq, requests, nondet)
    });
    (min_s, o.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VIEW_CHANGE_TIMEOUT_CAP;

    fn record_vote(vc: &mut ViewChange, view: u64, replica: u32) {
        let msg = ViewChangeMsg {
            new_view: view,
            stable_seq: 0,
            stable_digest: Digest::ZERO,
            stable_proof: Vec::new(),
            prepared: Vec::new(),
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
        assert!(vc.begin(&cfg, 2));
        assert_eq!(vc.view_to_join(cfg.f()), None);
    }

    #[test]
    fn escalation_doubles_the_timeout_up_to_the_cap() {
        let cfg = Config::new(4);
        let mut vc = ViewChange::new(&cfg, 0);
        let mut want = cfg.view_change_timeout;
        for target in 1..=6 {
            assert!(vc.begin(&cfg, target));
            want = want.saturating_mul(2).min(VIEW_CHANGE_TIMEOUT_CAP);
            assert_eq!(vc.timeout(), want, "view {target}");
        }
        assert_eq!(vc.timeout(), VIEW_CHANGE_TIMEOUT_CAP);
        assert!(!vc.begin(&cfg, 6), "not a higher view");
        assert_eq!((vc.view(), vc.active()), (6, None));
    }

    #[test]
    fn installing_a_new_view_resets_the_timeout_to_the_adaptive_base() {
        let cfg = Config::new(4);
        let mut vc = ViewChange::new(&cfg, 1);
        // Before any batch executes, the base is the configured timeout.
        vc.begin(&cfg, 1);
        vc.enter(&cfg, &new_view(1));
        assert_eq!((vc.timeout(), vc.active()), (cfg.view_change_timeout, Some(1)));
        // Once rounds are observed, it is their RTO.
        for lat in [200_000_000, 300_000_000, 250_000_000] {
            vc.agree_rtt.observe(lat);
        }
        vc.begin(&cfg, 2);
        vc.begin(&cfg, 3);
        vc.enter(&cfg, &new_view(3));
        let base = SimDuration::from_nanos(vc.agree_rtt.rto());
        assert_eq!((vc.timeout(), vc.active()), (base, Some(3)));
        assert_ne!(base, cfg.view_change_timeout);
    }

    /// DESIGN.md §8's unconfirmed cause of the lone view changer (ROADMAP
    /// item 1): TOCS §4.5.2 starts the timer for view v+1 only once 2f+1
    /// VIEW-CHANGEs for v+1 are in, so a replica holding just its own must
    /// wait in v+1 when its timer expires, not move on to v+2.
    #[test]
    #[ignore = "ROADMAP item 1"]
    fn a_lone_timeout_waits_in_v_plus_one() {
        let cfg = Config::new(4);
        let mut vc = ViewChange::new(&cfg, 2);
        assert!(vc.begin(&cfg, 1));
        record_vote(&mut vc, 1, 2);
        assert_eq!(vc.expired(), 1, "a lone replica escalated past v+1 without a quorum for it");
    }
}
