//! Checkpoints: taking them, certifying them, adopting a stable one, and
//! serving stored ones to replicas that fetch state.

use super::io::Io;
use crate::config::Config;
use crate::cost::COST;
use crate::log::{CheckpointCollector, Log};
use crate::messages::{
    CertReplyMsg, CheckpointMsg, FetchCertMsg, Message, MetaReplyMsg,
    NewViewMsg, ObjectReplyMsg,
};
use crate::service::Service;
use crate::transfer::{checkpoint_digest, META_ROOT_LEVEL, REPLIES_INDEX};
use base_crypto::{Digest, NodeKeys};
use base_simnet::{NodeId, ProtocolEvent};
use std::collections::{BTreeMap, HashSet};

/// The checkpoints this replica stores, and the stable one it has proven.
#[derive(Default)]
pub(super) struct Checkpoints {
    collector: CheckpointCollector,
    /// The replica layer's part of each stored checkpoint.
    stored: BTreeMap<u64, Stored>,
    /// The certificate of the stable checkpoint; empty before the first.
    stable_cert: Vec<CheckpointMsg>,
}

struct Stored {
    service_root: Digest,
    replies_blob: Vec<u8>,
    composite: Digest,
}

impl Stored {
    fn new(service_root: Digest, replies_blob: Vec<u8>) -> Self {
        let composite = checkpoint_digest(&service_root, &Digest::of(&replies_blob));
        Self { service_root, replies_blob, composite }
    }
}

impl Checkpoints {
    /// The stable checkpoint its certificate proves, 0 before the first.
    pub(super) fn stable_seq(&self) -> u64 {
        self.stable_cert.first().map_or(0, |c| c.seq)
    }

    pub(super) fn stable_digest(&self) -> Option<Digest> {
        self.stable_cert.first().map(|c| c.digest)
    }

    pub(super) fn digest(&self, seq: u64) -> Option<Digest> {
        self.stored.get(&seq).map(|s| s.composite)
    }

    pub(super) fn digests(&self) -> Vec<(u64, Digest)> {
        self.stored.iter().map(|(seq, s)| (*seq, s.composite)).collect()
    }

    /// The stable checkpoint as a VIEW-CHANGE states it: seq, the digest
    /// its certificate proves, and the certificate. A stored checkpoint
    /// whose digest differs (this replica's state diverged) does not make
    /// the vote one that every peer rejects.
    pub(super) fn proof(&self) -> (u64, Digest, Vec<CheckpointMsg>) {
        let digest = self.stable_digest().unwrap_or(Digest::ZERO);
        (self.stable_seq(), digest, self.stable_cert.clone())
    }

    fn signed(io: &Io<'_, '_>, seq: u64, digest: Digest) -> CheckpointMsg {
        let sig = base_crypto::Signature([0; 32]);
        let mut msg = CheckpointMsg { seq, digest, replica: io.id, sig };
        msg.sig = msg.with_signed_bytes(|signed| io.keys.sign(signed));
        msg
    }

    /// Takes the checkpoint of `seq`, just executed, and multicasts it.
    pub(super) fn take(&mut self, io: &mut Io<'_, '_>, view: u64, seq: u64, replies_blob: Vec<u8>) {
        let (service_root, charged) =
            io.exec(|svc, env| (svc.take_checkpoint(seq, env), env.charged()));
        io.ctx.charge(COST.digest(replies_blob.len()) + COST.signature);
        let stored = Stored::new(service_root, replies_blob);
        let msg = Self::signed(io, seq, stored.composite);
        self.stored.insert(seq, stored);
        io.metrics.inc("replica.checkpoints_taken");
        // Duration: the CPU charged for digesting the service state.
        io.metrics.observe_duration("replica.checkpoint_ns", charged);
        if let Some(cert) = self.collector.add(msg.clone(), io.cfg.quorum()) {
            // `seq` is executed, so there is nothing to fetch.
            self.adopt(io, view, seq, cert);
        }
        io.multicast(&Message::Checkpoint(msg));
    }

    /// Re-announces the newest stored checkpoint if it is not stable yet.
    pub(super) fn reannounce(&self, io: &mut Io<'_, '_>) {
        if let Some((&seq, stored)) =
            self.stored.last_key_value().filter(|(s, _)| **s > self.stable_seq())
        {
            io.multicast(&Message::Checkpoint(Self::signed(io, seq, stored.composite)));
        }
    }

    /// A peer's CHECKPOINT. Returns the checkpoint it made stable, if any.
    pub(super) fn on_checkpoint(
        &mut self,
        io: &mut Io<'_, '_>,
        view: u64,
        c: CheckpointMsg,
    ) -> Option<(u64, Digest)> {
        if c.replica as usize >= io.cfg.n || c.replica == io.id || c.seq <= self.stable_seq() {
            return None;
        }
        io.ctx.charge(COST.signature);
        if !c.with_signed_bytes(|signed| io.keys.verify(c.replica as usize, signed, &c.sig)) {
            io.reject();
            return None;
        }
        let (seq, digest) = (c.seq, c.digest);
        let cert = self.collector.add(c, io.cfg.quorum())?;
        self.adopt(io, view, seq, cert).then_some((seq, digest))
    }

    /// Makes `seq`, which `cert` proves, the stable checkpoint if it is
    /// newer, counts and traces it. Every proof goes through here: the
    /// replica's own CHECKPOINT quorum, a CERT-REPLY and a NEW-VIEW.
    fn adopt(
        &mut self,
        io: &mut Io<'_, '_>,
        view: u64,
        seq: u64,
        cert: Vec<CheckpointMsg>,
    ) -> bool {
        if !self.advance(io.log, io.service, seq, cert) {
            return false;
        }
        io.metrics.inc("replica.stable_checkpoints");
        io.ctx.emit(view, seq, ProtocolEvent::CheckpointStable);
        true
    }

    /// Moves the stable checkpoint to `seq` if it is newer, and discards
    /// the log, the collected CHECKPOINTs, the stored checkpoints and the
    /// service's checkpoints below it.
    fn advance(
        &mut self,
        log: &mut Log,
        service: &mut dyn Service,
        seq: u64,
        cert: Vec<CheckpointMsg>,
    ) -> bool {
        if seq <= self.stable_seq() {
            return false;
        }
        self.stable_cert = cert;
        log.gc_up_to(seq);
        self.collector.gc_up_to(seq);
        // Keep the stable checkpoint itself; discard older ones.
        self.stored = self.stored.split_off(&seq);
        service.discard_checkpoints_below(seq);
        true
    }

    /// Returns the checkpoint a CERT-REPLY proves, adopted if newer, unless stale.
    pub(super) fn on_cert_reply(
        &mut self,
        io: &mut Io<'_, '_>,
        view: u64,
        m: CertReplyMsg,
    ) -> Option<(u64, Digest)> {
        let Some((seq, digest)) = validate_cert(io.cfg, io.keys, &m.msgs) else {
            io.reject();
            return None;
        };
        io.ctx.charge(COST.signature.saturating_mul(m.msgs.len() as u64));
        if seq < self.stable_seq() {
            return None; // Stale certificate from a lagging replier.
        }
        self.adopt(io, view, seq, m.msgs);
        Some((seq, digest))
    }

    /// Adopts `min_s`, the stable checkpoint a NEW-VIEW proves, if newer.
    pub(super) fn adopt_from_new_view(
        &mut self,
        io: &mut Io<'_, '_>,
        nv: &NewViewMsg,
        min_s: u64,
    ) -> Option<(u64, Digest)> {
        let vc = nv.view_changes.iter().find(|vc| vc.stable_seq == min_s)?;
        let (seq, digest) = validate_cert(io.cfg, io.keys, &vc.stable_proof)?;
        self.adopt(io, nv.view, seq, vc.stable_proof.clone()).then_some((seq, digest))
    }

    fn cert_reply(&self, io: &Io<'_, '_>) -> Message {
        Message::CertReply(CertReplyMsg { msgs: self.stable_cert.clone(), replica: io.id })
    }

    pub(super) fn on_fetch_cert(&self, io: &mut Io<'_, '_>, m: FetchCertMsg) {
        if (m.replica as usize) < io.cfg.n && !self.stable_cert.is_empty() {
            io.send_to_replica(m.replica as usize, &self.cert_reply(io));
        }
    }

    pub(super) fn resend_cert(&self, io: &mut Io<'_, '_>, to: NodeId, peer_stable: u64) {
        if peer_stable < self.stable_seq() {
            io.send(to, &self.cert_reply(io));
        }
    }

    /// Stores checkpoint `seq`, installed by state transfer.
    pub(super) fn record(&mut self, seq: u64, service_root: Digest, replies_blob: Vec<u8>) {
        self.stored.insert(seq, Stored::new(service_root, replies_blob));
    }

    pub(super) fn forget_stored(&mut self) {
        self.stored.clear();
    }

    /// Answers a fetch query from the stored checkpoints, if it can.
    pub(super) fn serve(&self, io: &mut Io<'_, '_>, msg: &Message) {
        if let Some((to, reply)) = self.answer(io, msg) {
            io.send_to_replica(to as usize, &reply);
        }
    }

    fn answer(&self, io: &mut Io<'_, '_>, msg: &Message) -> Option<(u32, Message)> {
        let (n, replica) = (io.cfg.n, io.id);
        match msg {
            Message::FetchMeta(m) if (m.replica as usize) < n => {
                let digests = if m.level == META_ROOT_LEVEL {
                    let stored = self.stored.get(&m.seq)?;
                    vec![stored.service_root, Digest::of(&stored.replies_blob)]
                } else {
                    io.service.checkpoint_meta(m.seq, m.level, m.index)?
                };
                io.ctx.charge(COST.handle);
                let (seq, level, index) = (m.seq, m.level, m.index);
                Some((
                    m.replica,
                    Message::MetaReply(MetaReplyMsg { seq, level, index, digests, replica }),
                ))
            }
            Message::FetchObject(m) if (m.replica as usize) < n => {
                let data = if m.index == REPLIES_INDEX {
                    self.stored.get(&m.seq)?.replies_blob.clone()
                } else {
                    io.service.checkpoint_object(m.seq, m.index)?
                };
                io.ctx.charge(COST.digest(data.len()));
                let (seq, index) = (m.seq, m.index);
                Some((
                    m.replica,
                    Message::ObjectReply(ObjectReplyMsg { seq, index, data, replica }),
                ))
            }
            _ => None,
        }
    }

    pub(super) fn status(&self, out: &mut String, cfg: &Config) {
        let (h, hw) = (self.stable_seq(), cfg.high_watermark(self.stable_seq()));
        out.push_str(&format!(",\"h\":{h},\"H\":{hw}"));
    }
}

/// Validates a checkpoint certificate: at least 2f+1 messages from distinct
/// replicas, all with the same sequence number and digest, all correctly
/// signed. Returns the proven (seq, digest).
pub fn validate_cert(
    cfg: &Config,
    keys: &NodeKeys,
    msgs: &[CheckpointMsg],
) -> Option<(u64, Digest)> {
    let first = msgs.first()?;
    let (seq, digest) = (first.seq, first.digest);
    let senders: HashSet<u32> = msgs
        .iter()
        .filter(|m| m.seq == seq && m.digest == digest && (m.replica as usize) < cfg.n)
        .filter(|m| m.with_signed_bytes(|signed| keys.verify(m.replica as usize, signed, &m.sig)))
        .map(|m| m.replica)
        .collect();
    (senders.len() >= cfg.quorum()).then_some((seq, digest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::CounterService;

    fn checkpoint(seq: u64, replica: u32) -> CheckpointMsg {
        let (digest, sig) = (Digest::of(&seq.to_be_bytes()), base_crypto::Signature([0; 32]));
        CheckpointMsg { seq, digest, replica, sig }
    }

    /// Checkpoints 4 and 8 stored and one CHECKPOINT for each collected,
    /// then 8 adopted as stable.
    fn adopt_8() -> (Checkpoints, Log) {
        let (mut ckpts, mut log) = (Checkpoints::default(), Log::new(32));
        for seq in [4, 8] {
            ckpts.record(seq, Digest::of(b"root"), Vec::new());
            ckpts.collector.add(checkpoint(seq, 1), 3);
        }
        let cert: Vec<_> = (1..=3).map(|r| checkpoint(8, r)).collect();
        let mut service = CounterService::default();
        assert!(ckpts.advance(&mut log, &mut service, 8, cert.clone()));
        assert!(!ckpts.advance(&mut log, &mut service, 8, cert), "not newer");
        (ckpts, log)
    }

    /// A VIEW-CHANGE states the digest its certificate proves, also when
    /// the replica's own checkpoint at that number differs from it (its
    /// state diverged): with the stored digest, the vote would fail every
    /// peer's certificate check, and a new primary's NEW-VIEW carrying it
    /// every backup's.
    #[test]
    fn a_view_change_states_the_certified_digest() {
        let (mut ckpts, _) = adopt_8();
        ckpts.record(8, Digest::of(b"diverged"), Vec::new());
        assert_ne!(ckpts.digest(8), Some(checkpoint(8, 1).digest));
        assert_eq!(ckpts.proof().1, checkpoint(8, 1).digest);
    }

    /// Adopting a stable checkpoint, whichever proof it came with, moves
    /// the log's low watermark and garbage-collects the stored
    /// checkpoints and the collected CHECKPOINTs below it.
    #[test]
    fn adoption_collects_garbage() {
        let (mut ckpts, log) = adopt_8();
        assert_eq!((ckpts.stable_seq(), log.low), (8, 8));
        assert_eq!(ckpts.stable_digest(), Some(checkpoint(8, 1).digest));
        assert_eq!(ckpts.proof().0, 8);
        let stored: Vec<u64> = ckpts.digests().iter().map(|(seq, _)| *seq).collect();
        assert_eq!(stored, [8]);
        // The first CHECKPOINT for 4 is gone, so a second makes no pair.
        assert!(ckpts.collector.add(checkpoint(4, 2), 2).is_none());
    }
}
