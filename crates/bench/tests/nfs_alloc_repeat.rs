//! A seeded replicated-NFS run allocates the same twice.
//!
//! The simulator is seeded and single-threaded, so one seed makes the same
//! calls into every server, wrapper and replica. Its allocation count is
//! an exact figure only if nothing on that path depends on per-process
//! state. A `std` `HashMap` does: its hasher is keyed at random, so
//! whether a removal leaves a tombstone, and so when the table grows,
//! changes from one map to the next. This test runs the same Andrew-shaped
//! churn (make directories, create and write files, list and read them,
//! remove everything, again) on the heterogeneous group twice in one
//! process, each run's maps keyed afresh, and asserts that both runs made
//! the same allocations of the same total size.
//!
//! The only test in its binary, because the counter is process-wide.

use base_bench::setup::{build_replicated_nfs, run_relay_to_completion};
use base_bench::FsMix;
use base_nfs::ops::NfsOp;
use base_nfs::relay::{NfsDriver, RelayActor};
use base_nfs::spec::Oid;
use base_nfs::NfsReply;
use base_simnet::{SimDuration, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Allocator calls so far, `realloc` included.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes asked for so far, a `realloc`'s whole new size included.
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and touch no memory
// the allocator hands out. (`alloc_zeroed` defaults to `alloc`.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: same contract as our caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: same contract as our caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SEED: u64 = 1;
const PASSES: u32 = 16;
const DIRS: usize = 4;
const FILES: usize = 8;

#[derive(Clone, Copy)]
enum Step {
    Mkdir(usize),
    Create(usize, usize),
    Write(usize, usize),
    Readdir(usize),
    Read(usize, usize),
    Remove(usize, usize),
    Rmdir(usize),
}

/// `PASSES` passes, each of which leaves the file system as it found it.
struct Churn {
    pass: u32,
    steps: VecDeque<Step>,
    /// This pass's handles in the order they were made: its directories,
    /// then its files directory by directory.
    handles: Vec<Oid>,
}

impl Churn {
    fn new() -> Self {
        Self {
            pass: 0,
            steps: VecDeque::new(),
            handles: Vec::new(),
        }
    }

    fn plan_pass(&mut self) {
        let files = || (0..DIRS).flat_map(|d| (0..FILES).map(move |f| (d, f)));
        self.steps.extend((0..DIRS).map(Step::Mkdir));
        for (d, f) in files() {
            self.steps.extend([Step::Create(d, f), Step::Write(d, f)]);
        }
        self.steps.extend((0..DIRS).map(Step::Readdir));
        self.steps.extend(files().map(|(d, f)| Step::Read(d, f)));
        self.steps.extend(files().map(|(d, f)| Step::Remove(d, f)));
        self.steps.extend((0..DIRS).map(Step::Rmdir));
        self.handles.clear();
        self.pass += 1;
    }

    fn dir_name(&self, d: usize) -> String {
        format!("p{}d{d}", self.pass)
    }

    fn op(&self, step: Step) -> NfsOp {
        let dir = |d: usize| self.handles[d];
        let file = |d: usize, f: usize| self.handles[DIRS + d * FILES + f];
        match step {
            Step::Mkdir(d) => NfsOp::Mkdir {
                dir: Oid::ROOT,
                name: self.dir_name(d),
                mode: 0o755,
            },
            Step::Create(d, f) => NfsOp::Create {
                dir: dir(d),
                name: format!("f{f}.c"),
                mode: 0o644,
            },
            Step::Write(d, f) => {
                let fill = (self.pass as usize + d + f) as u8;
                NfsOp::Write {
                    fh: file(d, f),
                    offset: 0,
                    data: vec![fill; 2048],
                }
            }
            Step::Readdir(d) => NfsOp::Readdir { dir: dir(d) },
            Step::Read(d, f) => NfsOp::Read {
                fh: file(d, f),
                offset: 0,
                count: 2048,
            },
            Step::Remove(d, f) => NfsOp::Remove {
                dir: dir(d),
                name: format!("f{f}.c"),
            },
            Step::Rmdir(d) => NfsOp::Rmdir {
                dir: Oid::ROOT,
                name: self.dir_name(d),
            },
        }
    }
}

impl NfsDriver for Churn {
    fn next(&mut self, last: Option<(&NfsOp, &NfsReply)>) -> Option<NfsOp> {
        match last {
            Some((NfsOp::Mkdir { .. } | NfsOp::Create { .. }, NfsReply::Handle { fh, .. })) => {
                self.handles.push(*fh);
            }
            Some((op, NfsReply::Error(status))) => panic!("{op:?} failed: {status:?}"),
            _ => {}
        }
        if self.steps.is_empty() {
            if self.pass == PASSES {
                return None;
            }
            self.plan_pass();
        }
        let step = self
            .steps
            .pop_front()
            .expect("a planned pass is never empty");
        Some(self.op(step))
    }
}

/// Allocations and bytes asked for by one build and run of the group.
fn one_run() -> (u64, u64) {
    let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    let mut sim = Simulation::new(SEED);
    let d = build_replicated_nfs(
        &mut sim,
        SEED,
        4,
        FsMix::Heterogeneous,
        Churn::new(),
        |_| {},
    );
    let relay = d.clients[0];
    assert!(run_relay_to_completion::<Churn>(
        &mut sim,
        relay,
        SimDuration::from_secs(600)
    ));
    let ops = sim
        .actor_as::<RelayActor<Churn>>(relay)
        .expect("relay")
        .stats
        .ops;
    assert_eq!(
        ops,
        u64::from(PASSES) * (3 * DIRS + 4 * DIRS * FILES) as u64
    );
    drop((sim, d));
    (ALLOCS.load(Relaxed) - allocs, BYTES.load(Relaxed) - bytes)
}

#[test]
fn a_seeded_nfs_run_allocates_the_same_twice() {
    // The first run in a process also pays for what is set up once per
    // process or thread, so it is left out.
    one_run();
    let first = one_run();
    let second = one_run();
    println!("allocations, bytes: {first:?} then {second:?}");
    assert_eq!(first, second, "the same seeded run allocated differently");
}
