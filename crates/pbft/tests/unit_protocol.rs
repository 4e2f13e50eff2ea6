//! Focused unit tests for protocol components that the end-to-end tests
//! exercise only implicitly: the state-transfer fetcher's verification
//! logic, new-view computation (`compute_o`), checkpoint-certificate
//! validation, and the client core's quorum matching.

use base_crypto::{Digest, KeyDirectory, NodeKeys, Signature};
use base_pbft::messages::{
    CheckpointMsg, Message, MetaReplyMsg, ObjectReplyMsg, PEntry, QEntry, RequestMsg,
    ViewChangeMsg,
};
use base_pbft::replica::{compute_o, validate_cert};
use base_pbft::testing::RemoteCheckpoint;
use base_pbft::transfer::{Fetcher, DEFAULT_FETCH_WINDOW, FETCH_WINDOW_MAX, META_ROOT_LEVEL};
use base_pbft::tree::{leaf_digest, PartitionTree};
use base_pbft::Config;

// ---------------------------------------------------------------------
// Fetcher
// ---------------------------------------------------------------------

/// A remote checkpoint of `n` objects (4-ary tree) holding `values`.
fn remote(n: u64, values: &[(u64, &[u8])]) -> RemoteCheckpoint {
    RemoteCheckpoint::new(n, 4, values.iter().copied(), b"reply-cache-blob")
}

/// 48 live objects in a 64-leaf tree: enough work to fill any window.
fn remote_with_48_values() -> RemoteCheckpoint {
    let values = (0..48u64).map(|i| (i, format!("value-{i}")));
    RemoteCheckpoint::new(64, 4, values, b"reply-cache-blob")
}

/// A fetcher for `remote`'s checkpoint, windowed the way a replica's is.
fn fetcher(remote: &RemoteCheckpoint) -> Fetcher {
    Fetcher::new(3, 4, 128, remote.composite(), DEFAULT_FETCH_WINDOW, FETCH_WINDOW_MAX)
}

/// Pumps a fetcher against a remote until quiescent; returns the result.
fn drive(
    fetcher: &mut Fetcher,
    remote: &RemoteCheckpoint,
    local: &PartitionTree,
) -> Option<base_pbft::transfer::FetchResult> {
    let mut queue: Vec<(u32, Message)> = fetcher.begin();
    let mut guard = 0;
    while let Some((_, msg)) = queue.pop() {
        guard += 1;
        assert!(guard < 10_000, "fetch did not converge");
        let Some(reply) = remote.serve(&msg) else { continue };
        let (more, done) = match reply {
            Message::MetaReply(m) => fetcher.on_meta_reply(&m, local),
            Message::ObjectReply(m) => fetcher.on_object_reply(&m, local),
            _ => unreachable!(),
        };
        queue.extend(more);
        if done.is_some() {
            return done;
        }
    }
    None
}

#[test]
fn fetcher_pulls_exactly_the_differing_objects() {
    let remote = remote(64, &[(1, b"one"), (5, b"five"), (40, b"forty")]);
    // Local state already has object 1 right and object 5 wrong.
    let mut local = PartitionTree::new(64, 4);
    local.set_leaf(1, leaf_digest(1, b"one"));
    local.set_leaf(5, leaf_digest(5, b"stale"));

    let mut f = fetcher(&remote);
    let result = drive(&mut f, &remote, &local).expect("fetch completes");
    assert_eq!(result.seq, 128);
    assert_eq!(result.replies_blob, remote.replies_blob);

    let mut got: Vec<(u64, Option<Vec<u8>>)> = result.objects.clone();
    got.sort_by_key(|(i, _)| *i);
    // Object 1 matches locally → not fetched. 5 and 40 fetched. The stale
    // local 5 is replaced; nothing else is touched.
    assert_eq!(
        got,
        vec![(5, Some(b"five".to_vec())), (40, Some(b"forty".to_vec()))]
    );
}

#[test]
fn fetcher_records_deletions_without_fetching() {
    let remote = remote(64, &[(2, b"keep")]);
    let mut local = PartitionTree::new(64, 4);
    local.set_leaf(2, leaf_digest(2, b"keep"));
    local.set_leaf(9, leaf_digest(9, b"doomed")); // Absent in the target.

    let mut f = fetcher(&remote);
    let result = drive(&mut f, &remote, &local).expect("fetch completes");
    assert_eq!(result.objects, vec![(9, None)]);
}

#[test]
fn fetcher_rejects_corrupt_meta_and_objects() {
    let remote = remote(16, &[(3, b"real")]);
    let local = PartitionTree::new(16, 4);
    let mut f = fetcher(&remote);
    let msgs = f.begin();

    // A Byzantine top-level reply with a forged root must not be accepted;
    // the fetcher re-targets the query to another source right away.
    let bogus = MetaReplyMsg {
        seq: 128,
        level: META_ROOT_LEVEL,
        index: 0,
        digests: vec![Digest::of(b"forged"), Digest::of(b"also forged")],
        replica: 2,
    };
    let (out, done) = f.on_meta_reply(&bogus, &local);
    assert_eq!(out.len(), 1, "corrupt root reply is re-targeted immediately");
    assert!(done.is_none());
    assert!(!f.is_done());
    assert_eq!(f.corrupt_replies(), 1);

    // The genuine reply still works afterwards.
    let (_, msg) = &msgs[0];
    let Some(Message::MetaReply(real)) = remote.serve(msg) else { panic!() };
    let (out, _) = f.on_meta_reply(&real, &local);
    assert!(!out.is_empty(), "fetch proceeds after the real reply");

    // A corrupt object payload is rejected (digest mismatch) and the query
    // stays outstanding.
    let forged_obj = ObjectReplyMsg { seq: 128, index: 3, data: b"fake".to_vec(), replica: 2 };
    let before = f.is_done();
    let (_, done) = f.on_object_reply(&forged_obj, &local);
    assert!(done.is_none());
    assert_eq!(f.is_done(), before);
}

#[test]
fn fetcher_ignores_replies_for_other_checkpoints() {
    let remote = remote(16, &[(3, b"x")]);
    let local = PartitionTree::new(16, 4);
    let mut f = fetcher(&remote);
    f.begin();
    let stale = MetaReplyMsg {
        seq: 64, // Wrong checkpoint.
        level: META_ROOT_LEVEL,
        index: 0,
        digests: vec![remote.tree.root_digest(), Digest::of(&remote.replies_blob)],
        replica: 0,
    };
    let (out, done) = f.on_meta_reply(&stale, &local);
    assert!(out.is_empty());
    assert!(done.is_none());
}

/// Drives like [`drive`] but counts the maximum number of requests ever
/// simultaneously unanswered, serving strictly FIFO.
fn drive_counting(
    fetcher: &mut Fetcher,
    remote: &RemoteCheckpoint,
    local: &PartitionTree,
) -> (Option<base_pbft::transfer::FetchResult>, usize) {
    let mut queue: std::collections::VecDeque<(u32, Message)> = fetcher.begin().into();
    let mut max_inflight = queue.len();
    let mut guard = 0;
    while let Some((_, msg)) = queue.pop_front() {
        guard += 1;
        assert!(guard < 10_000, "fetch did not converge");
        let Some(reply) = remote.serve(&msg) else { continue };
        let (more, done) = match reply {
            Message::MetaReply(m) => fetcher.on_meta_reply(&m, local),
            Message::ObjectReply(m) => fetcher.on_object_reply(&m, local),
            _ => unreachable!(),
        };
        queue.extend(more);
        max_inflight = max_inflight.max(queue.len());
        if done.is_some() {
            return (done, max_inflight);
        }
    }
    (None, max_inflight)
}

#[test]
fn fetch_window_bounds_outstanding_queries() {
    let remote = remote_with_48_values();
    let local = PartitionTree::new(64, 4);

    // Window 1: strictly serial — never more than one unanswered query.
    let mut serial = Fetcher::new(3, 4, 128, remote.composite(), 1, 1);
    let (result, max_inflight) = drive_counting(&mut serial, &remote, &local);
    let serial_result = result.expect("serial fetch completes");
    assert_eq!(max_inflight, 1, "window 1 keeps exactly one query in flight");

    // Window 4, pinned: pipelined, but never beyond the window.
    let mut windowed = Fetcher::new(3, 4, 128, remote.composite(), 4, 4);
    let (result, max_inflight) = drive_counting(&mut windowed, &remote, &local);
    let windowed_result = result.expect("windowed fetch completes");
    assert!(max_inflight > 1, "window 4 actually pipelines");
    assert!(max_inflight <= 4, "window caps concurrency, saw {max_inflight}");

    // Pipelining changes scheduling only: both windows fetch the same
    // objects, bytes and metadata.
    let sorted = |mut v: Vec<(u64, Option<Vec<u8>>)>| {
        v.sort_by_key(|(i, _)| *i);
        v
    };
    assert_eq!(sorted(serial_result.objects), sorted(windowed_result.objects));
    assert_eq!(serial_result.fetched_bytes, windowed_result.fetched_bytes);
    assert_eq!(serial_result.meta_queries, windowed_result.meta_queries);
    assert_eq!(serial_result.replies_blob, windowed_result.replies_blob);
}

#[test]
fn pinned_fetch_window_never_grows_but_still_halves() {
    let remote = remote_with_48_values();
    let local = PartitionTree::new(64, 4);

    let mut f = Fetcher::new(3, 4, 128, remote.composite(), 4, 4);
    let mut queue: std::collections::VecDeque<(u32, Message)> = f.begin().into();
    // Answers the oldest unanswered query.
    let serve_next = |f: &mut Fetcher, queue: &mut std::collections::VecDeque<(u32, Message)>| {
        let (_, msg) = queue.pop_front().expect("fetch still has work");
        let (more, done) = match remote.serve(&msg).expect("query is answerable") {
            Message::MetaReply(m) => f.on_meta_reply(&m, &local),
            Message::ObjectReply(m) => f.on_object_reply(&m, &local),
            _ => unreachable!(),
        };
        queue.extend(more);
        done
    };

    // `window == window_max`: every reply here is timely, and none may
    // push the window past its pin.
    for reply in 1..=8 {
        assert!(serve_next(&mut f, &mut queue).is_none());
        assert_eq!(f.window(), 4, "pinned window moved after reply {reply}");
        assert!(queue.len() <= 4, "{} queries in flight", queue.len());
    }

    // A retransmission still halves it, once per resent query...
    let resent = f.tick();
    assert!(!resent.is_empty(), "unanswered queries are retransmitted");
    assert_eq!(f.window(), (4usize >> resent.len()).max(1));
    queue.extend(resent);

    // ...and timely replies grow it back to the pin, never beyond.
    let result = loop {
        let done = serve_next(&mut f, &mut queue);
        assert!(f.window() <= 4);
        if let Some(result) = done {
            break result;
        }
    };
    assert_eq!(f.window(), 4, "window recovers to the pin");
    assert_eq!(result.objects.len(), 48);
}

#[test]
fn fetcher_tick_retransmits_outstanding_queries() {
    let remote = remote(16, &[(3, b"x")]);
    let mut f = fetcher(&remote);
    let first = f.begin();
    assert_eq!(first.len(), 1);
    let resent = f.tick();
    assert_eq!(resent.len(), 1, "outstanding root query resent");
    // Rotation: the resend goes to a different replica than the original.
    assert_ne!(first[0].0, resent[0].0);
}

// ---------------------------------------------------------------------
// compute_o and certificates
// ---------------------------------------------------------------------

fn keys(n: usize) -> Vec<NodeKeys> {
    let dir = KeyDirectory::generate(n, 9);
    (0..n).map(|i| NodeKeys::new(dir.clone(), i)).collect()
}

fn request(op: &[u8]) -> RequestMsg {
    RequestMsg::new(4, 1, false, 0, op.to_vec())
}

/// A P entry: `op`'s batch prepared at `seq` in `view`.
fn prepared(view: u64, seq: u64, op: &[u8]) -> PEntry {
    PEntry::new(seq, view, vec![request(op)], Vec::new())
}

/// The Q entry vouching that `p`'s batch pre-prepared in its view.
fn vouch(p: &PEntry) -> QEntry {
    QEntry { seq: p.seq, view: p.view, digest: p.digest() }
}

fn view_change(
    new_view: u64,
    stable_seq: u64,
    p: Vec<PEntry>,
    q: Vec<QEntry>,
    replica: u32,
) -> ViewChangeMsg {
    let (stable_digest, stable_proof, sig) = (Digest::ZERO, Vec::new(), Signature([0; 32]));
    let firm = true;
    ViewChangeMsg { new_view, firm, stable_seq, stable_digest, stable_proof, p, q, replica, sig }
}

/// f = 1: a group of four.
const F: usize = 1;

#[test]
fn compute_o_fills_gaps_with_null_requests() {
    // Replica 0 prepared seq 3 and 5, and replica 1 pre-prepared both;
    // nothing for 4.
    let (p3, p5) = (prepared(0, 3, b"op3"), prepared(0, 5, b"op5"));
    let q = vec![vouch(&p3), vouch(&p5)];
    let vcs = vec![
        view_change(1, 2, vec![p3, p5], q.clone(), 0),
        view_change(1, 2, vec![], q, 1),
        view_change(1, 2, vec![], vec![], 2),
    ];
    let (min_s, o) = compute_o(1, F, &vcs).expect("every number decided");
    assert_eq!(min_s, 2);
    let seqs: Vec<u64> = o.iter().map(|p| p.seq).collect();
    assert_eq!(seqs, vec![3, 4, 5]);
    assert_eq!(o[0].requests()[0].op(), b"op3");
    assert!(o[1].requests().is_empty(), "gap filled with a null request");
    assert_eq!(o[2].requests()[0].op(), b"op5");
    assert!(o.iter().all(|p| p.view == 1));
}

#[test]
fn compute_o_prefers_the_highest_view_certificate() {
    let (old, newer) = (prepared(0, 1, b"old"), prepared(1, 1, b"newer"));
    let vcs = vec![
        view_change(2, 0, vec![old.clone()], vec![vouch(&old)], 0),
        view_change(2, 0, vec![newer.clone()], vec![vouch(&old), vouch(&newer)], 1),
        view_change(2, 0, vec![], vec![vouch(&newer)], 2),
    ];
    let (_, o) = compute_o(2, F, &vcs).expect("decided");
    assert_eq!(o.len(), 1);
    assert_eq!(o[0].requests()[0].op(), b"newer", "view-1 certificate wins over view-0");
}

#[test]
fn compute_o_min_s_is_the_highest_stable_checkpoint() {
    let below = prepared(0, 5, b"below-min-s");
    let vcs = vec![
        view_change(1, 128, vec![], vec![], 0),
        view_change(1, 0, vec![below.clone()], vec![vouch(&below)], 1),
        view_change(1, 64, vec![], vec![], 2),
    ];
    let (min_s, o) = compute_o(1, F, &vcs).expect("decided");
    assert_eq!(min_s, 128);
    assert!(o.is_empty(), "prepared entries at or below min_s are not re-proposed");
}

/// A claim only its claimant vouches for is neither chosen nor ruled out
/// by three messages, two of which have no P entry: the new primary waits.
/// A fourth message decides the number either way — for the claim if it
/// vouches for it, for the null batch if it has nothing at that number.
#[test]
fn compute_o_waits_until_more_view_changes_decide() {
    let x = prepared(0, 1, b"x");
    let three = vec![
        view_change(1, 0, vec![x.clone()], vec![vouch(&x)], 0),
        view_change(1, 0, vec![], vec![], 2),
        view_change(1, 0, vec![], vec![], 3),
    ];
    assert!(compute_o(1, F, &three).is_none(), "one voucher is not f + 1, two blanks not 2f + 1");

    let mut vouched = three.clone();
    vouched.insert(1, view_change(1, 0, vec![], vec![vouch(&x)], 1));
    let (_, o) = compute_o(1, F, &vouched).expect("decided");
    assert_eq!(o[0].requests()[0].op(), b"x");

    let mut blank = three;
    blank.insert(1, view_change(1, 0, vec![], vec![], 1));
    let (_, o) = compute_o(1, F, &blank).expect("decided");
    assert!(o[0].requests().is_empty(), "three messages without a P entry choose null");
}

#[test]
fn validate_cert_requires_quorum_of_valid_signatures() {
    let cfg = Config::new(4);
    let ks = keys(4);
    let digest = Digest::of(b"state");
    let make = |i: usize| {
        let mut m = CheckpointMsg { seq: 128, digest, replica: i as u32, sig: Signature([0; 32]) };
        m.sig = ks[i].sign(&m.signed_bytes());
        m
    };

    // Two valid signatures: not enough.
    assert!(validate_cert(&cfg, &ks[0], &[make(1), make(2)]).is_none());
    // Three valid: certificate accepted.
    assert_eq!(validate_cert(&cfg, &ks[0], &[make(1), make(2), make(3)]), Some((128, digest)));
    // Duplicate senders must not count twice.
    assert!(validate_cert(&cfg, &ks[0], &[make(1), make(1), make(1)]).is_none());
    // A bad signature does not count.
    let mut forged = make(3);
    forged.sig = Signature([7; 32]);
    assert!(validate_cert(&cfg, &ks[0], &[make(1), make(2), forged]).is_none());
    // Mixed digests do not form a certificate.
    let mut other = CheckpointMsg {
        seq: 128,
        digest: Digest::of(b"different"),
        replica: 3,
        sig: Signature([0; 32]),
    };
    other.sig = ks[3].sign(&other.signed_bytes());
    assert!(validate_cert(&cfg, &ks[0], &[make(1), make(2), other]).is_none());
}
