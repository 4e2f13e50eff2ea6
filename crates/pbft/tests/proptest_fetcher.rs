//! Property test for the state-transfer [`Fetcher`] against a source that
//! lies: for random object values, a random stale local copy and a random
//! mix of correct, truncated, over-long, misaddressed, wrong-`seq`,
//! duplicated and bit-flipped replies,
//!
//! - nothing unverified is ever installed (the result holds exactly the
//!   remote values of the objects that differ);
//! - every rejected reply re-targets its query to a different source;
//! - the fetch completes on the very reply that gives the last open query
//!   its one honest answer.

use base_crypto::Digest;
use base_pbft::messages::Message;
use base_pbft::testing::RemoteCheckpoint;
use base_pbft::transfer::{FetchResult, Fetcher, FETCH_WINDOW, META_ROOT_LEVEL};
use base_pbft::tree::{leaf_digest, PartitionTree};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

const SEQ: u64 = 128;
const ME: u32 = 3;
const CAPACITY: usize = 16;
const REPLIES_BLOB: &[u8] = b"reply-cache-blob";

/// What identifies a query: message tag, then its coordinates.
type Key = (u8, u64, u64);

fn key_of(req: &Message) -> Key {
    match req {
        Message::FetchMeta(m) => (0, u64::from(m.level), m.index),
        Message::FetchObject(m) => (1, m.index, 0),
        other => panic!("the fetcher sent a {}", other.kind()),
    }
}

fn tree_of(values: &[Option<Vec<u8>>]) -> PartitionTree {
    let mut tree = PartitionTree::new(CAPACITY as u64, 4);
    for (i, v) in values.iter().enumerate() {
        if let Some(v) = v {
            tree.set_leaf(i as u64, leaf_digest(i as u64, v));
        }
    }
    tree
}

/// What the source does with one query before (if ever) answering it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fate {
    Honest,
    Duplicated,
    WrongSeq,
    Misaddressed,
    Truncated,
    OverLong,
    BitFlipped,
}

const FATES: [Fate; 7] = [
    Fate::Honest,
    Fate::Duplicated,
    Fate::WrongSeq,
    Fate::Misaddressed,
    Fate::Truncated,
    Fate::OverLong,
    Fate::BitFlipped,
];

/// A copy of `reply` for a different checkpoint.
fn with_wrong_seq(mut reply: Message) -> Message {
    match &mut reply {
        Message::MetaReply(m) => m.seq += 1,
        Message::ObjectReply(m) => m.seq += 1,
        _ => unreachable!(),
    }
    reply
}

/// The honest bytes of `reply` under the coordinates of its neighbour: the
/// next object (the reply cache's is object 0), the next tree node.
fn misaddressed(mut reply: Message) -> Message {
    match &mut reply {
        // (The root reply's index is not looked at; move its level.)
        Message::MetaReply(m) if m.level == META_ROOT_LEVEL => m.level = 1,
        Message::MetaReply(m) => m.index += 1,
        Message::ObjectReply(m) => m.index = m.index.wrapping_add(1),
        _ => unreachable!(),
    }
    reply
}

/// `reply` with its payload damaged so that it must fail verification
/// against the key it is addressed to.
fn damaged(mut reply: Message, fate: Fate) -> Message {
    fn bytes(data: &mut Vec<u8>, fate: Fate) {
        match fate {
            Fate::Truncated if !data.is_empty() => {
                data.pop();
            }
            Fate::BitFlipped if !data.is_empty() => data[0] ^= 1,
            _ => data.push(0x5a),
        }
    }
    fn digests(digests: &mut Vec<Digest>, fate: Fate) {
        match fate {
            Fate::Truncated if !digests.is_empty() => {
                digests.pop();
            }
            Fate::BitFlipped if !digests.is_empty() => digests[0].0[0] ^= 1,
            _ => digests.push(Digest::of(b"one too many")),
        }
    }
    match &mut reply {
        Message::MetaReply(m) => digests(&mut m.digests, fate),
        Message::ObjectReply(m) => bytes(&mut m.data, fate),
        _ => unreachable!(),
    }
    reply
}

/// Drives one fetch to completion against the lying source.
struct Run<'a> {
    remote: &'a RemoteCheckpoint,
    local: &'a PartitionTree,
    fetcher: Fetcher,
    /// Queries on the wire, in the order the fetcher sent them.
    wire: VecDeque<Message>,
    /// The source each query was last sent to.
    last_source: HashMap<Key, u32>,
    /// Queries that have had their one honest answer.
    answered: HashSet<Key>,
    result: Option<FetchResult>,
}

impl Run<'_> {
    /// Puts the fetcher's output on the wire, checking that nothing goes to
    /// the fetcher itself and that a re-sent query changes source.
    fn send(&mut self, out: Vec<(u32, Message)>) {
        for (to, req) in out {
            assert_ne!(to, ME, "a query addressed to the fetcher itself");
            if let Some(prev) = self.last_source.insert(key_of(&req), to) {
                assert_ne!(to, prev, "{} re-sent to the source that failed it", req.kind());
            }
            self.wire.push_back(req);
        }
    }

    /// Hands `reply` to the fetcher; returns the queries it sent in return.
    fn deliver(&mut self, reply: &Message) -> Vec<Message> {
        let (out, done) = match reply {
            Message::MetaReply(m) => self.fetcher.on_meta_reply(m, self.local),
            Message::ObjectReply(m) => self.fetcher.on_object_reply(m),
            _ => unreachable!(),
        };
        if let Some(result) = done {
            assert!(self.result.is_none(), "the fetch completed twice");
            self.result = Some(result);
        }
        let sent = out.iter().map(|(_, req)| req.clone()).collect();
        self.send(out);
        sent
    }

    /// Delivers a reply the fetcher must reject: exactly `rejects` is
    /// re-sent, and the rejection is counted.
    fn deliver_rejected(&mut self, reply: &Message, rejects: &Message) {
        let before = self.fetcher.corrupt_replies();
        let sent = self.deliver(reply);
        assert_eq!(sent, std::slice::from_ref(rejects), "a rejected {} re-sends its query", reply.kind());
        assert_eq!(self.fetcher.corrupt_replies(), before + 1);
    }

    /// Delivers a reply the fetcher must ignore.
    fn deliver_ignored(&mut self, reply: &Message) {
        let before = self.fetcher.corrupt_replies();
        assert_eq!(self.deliver(reply), [], "an ignored {} sent something", reply.kind());
        assert_eq!(self.fetcher.corrupt_replies(), before);
    }

    fn open(&self, key: &Key) -> bool {
        self.last_source.contains_key(key) && !self.answered.contains(key)
    }

    /// Serves the oldest query on the wire under `fate`.
    fn serve_next(&mut self, fate: Fate) {
        let req = self.wire.pop_front().expect("a query on the wire");
        let key = key_of(&req);
        let honest = self.remote.serve(&req).expect("the fetcher asks only for what is held");
        if !self.open(&key) {
            // A re-sent query whose first copy was answered in the meantime.
            return self.deliver_ignored(&honest);
        }
        match fate {
            Fate::Honest | Fate::Duplicated => {}
            Fate::WrongSeq => self.deliver_ignored(&with_wrong_seq(honest.clone())),
            Fate::Misaddressed => {
                // The neighbour's key is open: its digest rejects these
                // bytes. It is not: nobody asked.
                let bad = misaddressed(honest.clone());
                let neighbour = self
                    .last_source
                    .keys()
                    .copied()
                    .find(|k| self.open(k) && answers(&bad, k));
                match neighbour {
                    Some(k) => {
                        let rejects = self.request_for(&k);
                        self.deliver_rejected(&bad, &rejects);
                    }
                    None => self.deliver_ignored(&bad),
                }
            }
            Fate::Truncated | Fate::OverLong | Fate::BitFlipped => {
                // The re-sent query goes to the back of the wire and is
                // served (under a fate of its own) in its turn.
                return self.deliver_rejected(&damaged(honest, fate), &req);
            }
        }
        self.deliver(&honest);
        self.answered.insert(key);
        assert_eq!(
            self.result.is_some(),
            self.answered.len() == self.last_source.len(),
            "the fetch is complete exactly when no query is open"
        );
        if fate == Fate::Duplicated {
            self.deliver_ignored(&honest);
        }
    }

    /// The query (as last sent) that `key` names.
    fn request_for(&self, key: &Key) -> Message {
        self.wire
            .iter()
            .find(|r| key_of(r) == *key)
            .cloned()
            .expect("an open query is on the wire")
    }
}

/// Whether `reply` is addressed to the query `key` names.
fn answers(reply: &Message, key: &Key) -> bool {
    *key == match reply {
        Message::MetaReply(m) => (0, u64::from(m.level), m.index),
        Message::ObjectReply(m) => (1, m.index, 0),
        _ => unreachable!(),
    }
}

/// The fetching replica's stale copy of one remote object.
fn drifted(remote: &Option<Vec<u8>>, drift: u8, at: usize) -> Option<Vec<u8>> {
    let mut v = remote.clone()?;
    match drift % 5 {
        0 => {}
        1 => return None,
        2 if !v.is_empty() => {
            let at = at % v.len();
            v[at] ^= 0x80;
        }
        3 => v.truncate(at % (v.len() + 1)),
        _ => v.extend_from_slice(b"tail"),
    }
    Some(v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn hostile_replies_never_install_and_always_retarget(
        values in proptest::collection::vec(
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..40)),
            CAPACITY,
        ),
        drifts in proptest::collection::vec((any::<u8>(), 0usize..40), CAPACITY),
        fates in proptest::collection::vec(0usize..FATES.len(), 1..64),
    ) {
        let local_values: Vec<Option<Vec<u8>>> =
            values.iter().zip(&drifts).map(|(v, (drift, at))| drifted(v, *drift, *at)).collect();
        let live = values.iter().enumerate().filter_map(|(i, v)| Some((i as u64, v.as_ref()?)));
        let remote = RemoteCheckpoint::new(CAPACITY as u64, 4, live, REPLIES_BLOB);
        let local = tree_of(&local_values);

        let mut run = Run {
            remote: &remote,
            local: &local,
            fetcher: Fetcher::new(ME, 4, SEQ, remote.composite(), FETCH_WINDOW),
            wire: VecDeque::new(),
            last_source: HashMap::new(),
            answered: HashSet::new(),
            result: None,
        };
        let begin = run.fetcher.begin();
        run.send(begin);
        // Each query meets at most two hostile fates (one per other source
        // it can be re-targeted to), then the truth.
        let mut hostile: HashMap<Key, u8> = HashMap::new();
        let mut step = 0usize;
        while let Some(req) = run.wire.front() {
            prop_assert!(step < 10_000, "the fetch did not converge");
            let mut fate = FATES[fates[step % fates.len()]];
            step += 1;
            if !matches!(fate, Fate::Honest | Fate::Duplicated) {
                let spent = hostile.entry(key_of(req)).or_default();
                if *spent == 2 {
                    fate = Fate::Honest;
                } else {
                    *spent += 1;
                }
            }
            run.serve_next(fate);
        }

        let result = run.result.expect("every query had its honest answer");
        prop_assert_eq!(&result.replies_blob[..], REPLIES_BLOB);
        // Installed: exactly the objects whose leaf differs, at exactly the
        // remote's values.
        let mut installed = result.objects;
        installed.sort();
        let differing: Vec<(u64, Option<Vec<u8>>)> = (0..CAPACITY as u64)
            .filter(|&i| remote.tree.leaf_digest_at(i) != local.leaf_digest_at(i))
            .map(|i| (i, remote.objects[i as usize].clone()))
            .collect();
        prop_assert_eq!(&installed, &differing);
    }
}
