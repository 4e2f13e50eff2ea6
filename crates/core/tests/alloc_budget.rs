//! Allocation budget of one replicated operation.
//!
//! A message is encoded once and hashed where it lies (DESIGN.md §11): the
//! normal-case path allocates once per message sent and nothing per
//! digest, and an authenticator of a four-replica group lives
//! in place, so building one and decoding a prepare or commit allocate
//! nothing (§11.6). This test holds that in place with a counting
//! allocator: it drives a four-replica `KvWrapper` group and one client
//! through 256 writes and 256 read-only gets and asserts a ceiling on the
//! allocations each costs, end to end (the four replicas, the client and
//! the simulator together). The simulator is seeded and single-threaded,
//! so the counts repeat exactly; the ceilings are the measured values plus
//! ten per cent. `cargo test --release -p base --test alloc_budget --
//! --nocapture` prints the per-operation census.
//!
//! It also holds the decoder's reservation in place: a counted array
//! reserves no more memory than there are bytes left to decode, whatever
//! count a hostile frame claims (decode runs before any MAC is looked at),
//! and an authenticator whose tag count outruns its frame is refused
//! before any storage is made for it.
//!
//! The only test in its binary, because the counter is process-wide.

use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, BaseService, Config};
use base_crypto::{Authenticator, Digest, KeyDirectory, Mac, NodeKeys};
use base_pbft::messages::{CommitMsg, PrePrepareMsg, PrepareMsg, ReplyMsg, RequestMsg};
use base_pbft::{Deployment, Message};
use base_simnet::{NodeId, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Allocator calls so far, `realloc` included.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Largest single request since it was last reset to zero.
static LARGEST: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and touches no memory
// the allocator hands out. (`alloc_zeroed` defaults to `alloc`.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LARGEST.fetch_max(layout.size() as u64, Relaxed);
        // SAFETY: same contract as our caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LARGEST.fetch_max(new_size as u64, Relaxed);
        // SAFETY: same contract as our caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs.
fn allocs_in<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.load(Relaxed);
    let out = f();
    let after = ALLOCS.load(Relaxed);
    drop(out);
    after - before
}

/// Bytes of the largest single allocation made while `f` runs.
fn largest_alloc_in<R>(f: impl FnOnce() -> R) -> u64 {
    LARGEST.store(0, Relaxed);
    drop(f());
    LARGEST.load(Relaxed)
}

/// Ceilings per operation, end to end: measured 68.73 and 24.00 (141.73
/// and 33.00 before authenticators went inline and the conflict partition
/// left the execute path, DESIGN.md §11.6; 157.11 and 44.67 before the
/// per-message containers went dense, §11.4).
const WRITE_CEILING: f64 = 76.0;
const READ_CEILING: f64 = 27.0;
const OPS: usize = 256;
const SEED: u64 = 18;
/// Length of the hostile frame.
const FRAME_LEN: usize = 64 << 10;

struct Group {
    sim: Simulation,
    client: NodeId,
}

impl Group {
    fn new() -> Self {
        let mut sim = Simulation::new(SEED);
        let client = Deployment::build(&mut sim, Config::new(4), 1, SEED, |_| {
            BaseService::new(KvWrapper::new(TinyKv::default()))
        })
        .clients[0];
        Self { sim, client }
    }

    fn completed(&self) -> usize {
        self.sim.actor_as::<BaseClient>(self.client).expect("client").completed.len()
    }

    /// Submits `ops` and steps the simulation until the last one completes
    /// (and no further, so idle ticks are not counted). Returns the
    /// allocations per operation.
    fn run(&mut self, ops: Vec<Vec<u8>>, read_only: bool) -> f64 {
        let n = ops.len();
        let target = self.completed() + n;
        let allocs = allocs_in(|| {
            let client = self.sim.actor_as_mut::<BaseClient>(self.client).expect("client");
            for op in ops {
                client.invoke(op, read_only);
            }
            while self.completed() < target {
                assert!(self.sim.step(), "simulation went idle before the stream completed");
            }
        });
        allocs as f64 / n as f64
    }
}

fn puts(round: usize) -> Vec<Vec<u8>> {
    (0..OPS).map(|i| format!("put key{:02} value-{round}-{i:04}", i % 16).into_bytes()).collect()
}

fn gets() -> Vec<Vec<u8>> {
    (0..OPS).map(|i| format!("get key{:02}", i % 16).into_bytes()).collect()
}

/// One census row: what was counted, the allocations of each call, and
/// the exact count every call must show (`None`: printed, not pinned).
type Row = (&'static str, Vec<u64>, Option<u64>);

/// Per-message operations, counted one call at a time on messages shaped
/// like the ones a 16-byte `put` produces. Pinned is what this budget
/// exists to keep: one allocation per message sent (the `Arc<[u8]>` it
/// travels in), none per digest, and none to build an authenticator or to
/// decode the two messages that carry nothing else of variable size.
fn census() -> Vec<Row> {
    let dir = KeyDirectory::generate(5, SEED);
    let client = NodeKeys::new(dir.clone(), 4);
    let replica = NodeKeys::new(dir, 1);
    let mut request = RequestMsg::new(4, 1, false, 0, b"put key00 value-0-0000".to_vec());
    request.auth = Authenticator::generate(&client, 4, &request.digest());
    let reply = ReplyMsg {
        view: 0,
        timestamp: 1,
        client: 4,
        replica: 1,
        digest_only: true,
        tentative: false,
        result: Digest::of(b"ok").0.to_vec(),
        mac: Mac([0; 8]),
    };
    let mut pp = PrePrepareMsg::new(0, 1, vec![request.clone()], 7u64.to_be_bytes().to_vec());
    pp.auth = Authenticator::generate(&replica, 4, &pp.digest());
    let auth = pp.auth.clone();
    let (view, seq, digest) = (0, 1, pp.batch_digest());
    let prepare = PrepareMsg { view, seq, digest, replica: 1, auth: auth.clone() };
    let commit = CommitMsg { view, seq, digest, replica: 1, auth };
    let msgs = [
        Message::Request(request.clone()),
        Message::Reply(reply.clone()),
        Message::Prepare(prepare.clone()),
        Message::Commit(commit.clone()),
        Message::PrePrepare(pp.clone()),
    ];
    let wires: Vec<Vec<u8>> = msgs.iter().map(Message::to_wire).collect();
    // A fresh decode: nothing memoized, as at a receiver.
    let fresh = |i: usize| Message::from_wire(&wires[i]).expect("round trip");
    let Message::Request(fresh_request) = fresh(0) else { unreachable!() };
    let Message::PrePrepare(fresh_pp) = fresh(4) else { unreachable!() };
    let Message::PrePrepare(warm_pp) = fresh(4) else { unreachable!() };
    for r in warm_pp.requests() {
        r.digest();
    }

    vec![
        (
            "`to_payload`, per send: request / reply / prepare / commit / pre-prepare(1 request)",
            msgs.iter().map(|m| allocs_in(|| m.to_payload())).collect(),
            Some(1),
        ),
        ("`ReplyMsg::digest()`", vec![allocs_in(|| reply.digest())], Some(0)),
        ("`RequestMsg::digest()`, first call", vec![allocs_in(|| fresh_request.digest())], Some(0)),
        (
            "`PrePrepareMsg::batch_digest()`, request digests memoized / computed while the scratch is lent",
            vec![allocs_in(|| warm_pp.batch_digest()), allocs_in(|| fresh_pp.batch_digest())],
            Some(0),
        ),
        (
            "`PrePrepareMsg::digest()` / `PrepareMsg` / `CommitMsg::with_signed_bytes`: the digest an authenticator covers",
            vec![
                allocs_in(|| warm_pp.digest()),
                allocs_in(|| prepare.with_signed_bytes(Digest::of)),
                allocs_in(|| commit.with_signed_bytes(Digest::of)),
            ],
            Some(0),
        ),
        (
            "decode: request / reply / pre-prepare(1 request)",
            [0, 1, 4].into_iter().map(|i| allocs_in(|| fresh(i))).collect(),
            None,
        ),
        (
            "decode: prepare / commit",
            [2, 3].into_iter().map(|i| allocs_in(|| fresh(i))).collect(),
            Some(0),
        ),
        (
            "`Authenticator::generate`, n = 4",
            vec![allocs_in(|| Authenticator::generate(&replica, 4, &digest))],
            Some(0),
        ),
    ]
}

/// A 64 KiB frame of zeros that claims to be a `NewView` carrying 16 380
/// view changes — the most four wire bytes an element lets the rest of the
/// frame hold, and 2.2 MB of `ViewChangeMsg` in memory. `stable_proof` is
/// the count the first view change claims for its own first array (0 leaves
/// the frame all zeros).
fn hostile_new_view(stable_proof: u32) -> Vec<u8> {
    let mut frame = vec![0u8; FRAME_LEN];
    frame[..4].copy_from_slice(&7u32.to_be_bytes()); // the `NewView` tag; `view` follows
    frame[12..16].copy_from_slice(&16_380u32.to_be_bytes());
    // new_view, firm, stable_seq and stable_digest of the first element,
    // then:
    frame[68..72].copy_from_slice(&stable_proof.to_be_bytes());
    frame
}

#[test]
fn a_write_and_a_read_stay_within_their_allocation_budget() {
    let mut group = Group::new();
    // Warm-up: every key exists, the logs, maps and scratch buffers have
    // reached their working size, and a checkpoint has been taken.
    group.run(puts(0), false);
    group.run(gets(), true);

    let per_write = group.run(puts(1), false);
    let per_read = group.run(gets(), true);
    let rows = census();

    println!("allocations per call, `realloc` included (seed {SEED}, {OPS} operations each)");
    println!("| operation | allocations |");
    println!("|---|---|");
    for (what, counts, _) in &rows {
        let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
        println!("| {what} | {} |", counts.join(" / "));
    }
    // No element of the first frame decodes, so what it measures is the
    // reservation alone. The second is all zeros, which *is* 655 well-formed
    // empty view changes before the frame runs out: memory that arrives,
    // a constant factor of the frame (160 bytes an element in memory for
    // 100 on the wire, times `Vec`'s doubling), printed and not pinned.
    let largest_rejecting = |stable_proof| {
        let frame = hostile_new_view(stable_proof);
        largest_alloc_in(|| assert!(Message::from_wire(&frame).is_none()))
    };
    let (reserved, arrived) = (largest_rejecting(u32::MAX), largest_rejecting(0));
    // An authenticator frame claiming `u32::MAX` tags, and one claiming a
    // tag more than the bytes behind its count hold.
    let over = (FRAME_LEN as u32 - 4) / 8 + 1;
    let auth_reserved = [u32::MAX, over].map(|count| {
        let mut frame = vec![0u8; FRAME_LEN];
        frame[..4].copy_from_slice(&count.to_be_bytes());
        largest_alloc_in(|| assert!(base_xdr::from_bytes::<Authenticator>(&frame).is_err()))
    });
    println!(
        "| largest single allocation rejecting a {FRAME_LEN} B `NewView` frame that claims \
         16 380 view changes: none decodes / 655 empty ones do | {reserved} B / {arrived} B |"
    );
    println!(
        "| largest single allocation rejecting a {FRAME_LEN} B authenticator that claims \
         {} / {over} tags | {} B / {} B |",
        u32::MAX,
        auth_reserved[0],
        auth_reserved[1]
    );
    println!("| one write, end to end (4 replicas, client, simulator) | {per_write:.2} |");
    println!("| one read-only get, end to end | {per_read:.2} |");

    for (what, counts, pinned) in &rows {
        if let Some(want) = pinned {
            assert!(counts.iter().all(|c| c == want), "{what}: {counts:?}, pinned at {want}");
        }
    }
    assert!(
        reserved <= FRAME_LEN as u64,
        "decode reserved {reserved} bytes on the word of a {FRAME_LEN}-byte frame"
    );
    assert!(
        auth_reserved.iter().all(|&r| r <= FRAME_LEN as u64),
        "refusing a hostile authenticator reserved {auth_reserved:?} bytes"
    );
    assert!(per_write <= WRITE_CEILING, "a write made {per_write:.2} allocations");
    assert!(per_read <= READ_CEILING, "a read-only get made {per_read:.2} allocations");
}
