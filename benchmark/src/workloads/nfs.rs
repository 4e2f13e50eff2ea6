//! `nfs_andrew`: one relay driving an Andrew-shaped loop against the
//! heterogeneous file-service group, and the same loop against one
//! unreplicated server for the overhead figures.
//!
//! One pass is MakeDir, Copy, ScanDir, ReadAll, Make, RemoveAll. The last
//! phase is not in the Andrew benchmark; it is here so the 4096-entry
//! abstract array never fills however long the loop runs. Handles come
//! from the replies, as they would through a kernel NFS client, because
//! generation numbers change once entries are reused.

use super::{
    add_base_replica, add_client, check_roots, lane_rng, Bench, ReplicaHandle, Scale, Verdict,
};
use crate::trace::{actor, NodeKind};
use base_crypto::{KeyDirectory, NodeKeys};
use base_nfs::relay::{DirectActor, DirectServerActor, NfsDriver, RelayActor, RunStats};
use base_nfs::{BtreeFs, FlatFs, InodeFs, LogFs, NfsOp, NfsReply, NfsServer, NfsWrapper, Oid};
use base_pbft::Config;
use base_simnet::{LatencyModel, NodeId, SimDuration, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// Directories per pass.
const DIRS: u32 = 3;
/// Source files per directory.
const FILES: u32 = 5;
/// 8 KiB transfers per source file.
const CHUNKS: u32 = 3;
/// 8 KiB transfers per `prog.o`.
const OUT_CHUNKS: u32 = 4;
/// NFS transfer size.
const CHUNK: u32 = 8 * 1024;
/// Operations in one pass of the loop.
pub const OPS_PER_PASS: u64 = (DIRS
    + DIRS * FILES * (1 + CHUNKS)
    + DIRS * (1 + FILES)
    + DIRS * FILES * CHUNKS
    + DIRS * (FILES + 1 + OUT_CHUNKS)
    + DIRS * (FILES + 1)
    + DIRS) as u64;

/// Abstract array capacity and per-op server costs of the repository's
/// Andrew testbed (`crates/bench/src/setup.rs`: `CAPACITY`, `era_costs`),
/// so `nfs.sim_overhead_pct` is comparable with its E1 table.
const CAPACITY: u64 = 4096;
const OP_COST_BASE: SimDuration = SimDuration::from_micros(350);
const OP_COST_PER_BYTE_NS: u64 = 120;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Ref {
    Root,
    Dir(u32),
    File(u32, u32),
    Out(u32),
}

/// What the reply to the operation in flight must look like.
enum Expect {
    /// A handle, to remember under this name.
    Handle(Ref),
    /// Attributes with this size.
    Size(u64),
    /// This many bytes, all equal to the fill byte.
    Data(u32, u8),
    /// Exactly these names, sorted.
    Names(Vec<String>),
    /// Plain success.
    Ok,
}

enum Step {
    Mkdir(u32),
    Create(u32, u32),
    CreateOut(u32),
    Write(Ref, u32, u8, u64),
    Read(Ref, u32, u8),
    Getattr(Ref, u64),
    Readdir(u32, Vec<String>),
    Remove(u32, String),
    Rmdir(u32),
}

/// The Andrew-shaped loop as an [`NfsDriver`] that checks every reply.
pub struct AndrewLoop {
    rng: StdRng,
    passes_left: u32,
    pass: u32,
    steps: VecDeque<Step>,
    handles: HashMap<Ref, Oid>,
    dir_names: Vec<String>,
    file_names: Vec<String>,
    expect: Option<Expect>,
    /// Replies checked.
    pub checked: u64,
    /// Replies that were not what the model predicts.
    pub mismatches: u64,
}

impl AndrewLoop {
    /// A loop of `passes` passes whose names, contents and visiting order
    /// derive from `seed`.
    pub fn new(seed: u64, passes: u32) -> Self {
        let mut handles = HashMap::new();
        handles.insert(Ref::Root, Oid::ROOT);
        Self {
            rng: lane_rng(seed, 0xa11d),
            passes_left: passes,
            pass: 0,
            steps: VecDeque::new(),
            handles,
            dir_names: Vec::new(),
            file_names: Vec::new(),
            expect: None,
            checked: 0,
            mismatches: 0,
        }
    }

    fn fill(&mut self) -> u8 {
        self.rng.gen_range(1..=255u8)
    }

    /// Files of every directory, in a seeded visiting order.
    fn visit_order(&mut self) -> Vec<(u32, u32)> {
        let mut all: Vec<(u32, u32)> = (0..DIRS)
            .flat_map(|d| (0..FILES).map(move |f| (d, f)))
            .collect();
        for i in (1..all.len()).rev() {
            all.swap(i, self.rng.gen_range(0..=i));
        }
        all
    }

    fn plan_pass(&mut self) {
        let tag: u32 = self.rng.gen_range(0..0x1_0000);
        let pass = self.pass;
        self.pass += 1;
        self.dir_names = (0..DIRS)
            .map(|d| format!("p{pass}d{d}_{tag:04x}"))
            .collect();
        self.file_names = (0..FILES).map(|f| format!("f{f}_{tag:04x}.c")).collect();
        let mut fills: HashMap<(u32, u32, u32), u8> = HashMap::new();
        let steps = &mut VecDeque::new();
        // MakeDir.
        for d in 0..DIRS {
            steps.push_back(Step::Mkdir(d));
        }
        // Copy.
        for d in 0..DIRS {
            for f in 0..FILES {
                steps.push_back(Step::Create(d, f));
                for c in 0..CHUNKS {
                    let fill = self.fill();
                    fills.insert((d, f, c), fill);
                    steps.push_back(Step::Write(
                        Ref::File(d, f),
                        c,
                        fill,
                        u64::from(c + 1) * u64::from(CHUNK),
                    ));
                }
            }
        }
        // ScanDir.
        for d in 0..DIRS {
            steps.push_back(Step::Readdir(d, self.file_names.clone()));
            for f in 0..FILES {
                steps.push_back(Step::Getattr(Ref::File(d, f), u64::from(CHUNKS * CHUNK)));
            }
        }
        // ReadAll.
        for (d, f) in self.visit_order() {
            for c in 0..CHUNKS {
                steps.push_back(Step::Read(Ref::File(d, f), c, fills[&(d, f, c)]));
            }
        }
        // Make.
        for d in 0..DIRS {
            for f in 0..FILES {
                steps.push_back(Step::Read(Ref::File(d, f), 0, fills[&(d, f, 0)]));
            }
            steps.push_back(Step::CreateOut(d));
            for c in 0..OUT_CHUNKS {
                let fill = self.fill();
                steps.push_back(Step::Write(
                    Ref::Out(d),
                    c,
                    fill,
                    u64::from(c + 1) * u64::from(CHUNK),
                ));
            }
        }
        // RemoveAll.
        for d in 0..DIRS {
            for f in 0..FILES {
                steps.push_back(Step::Remove(d, self.file_names[f as usize].clone()));
            }
            steps.push_back(Step::Remove(d, "prog.o".to_owned()));
        }
        for d in 0..DIRS {
            steps.push_back(Step::Rmdir(d));
        }
        debug_assert_eq!(steps.len() as u64, OPS_PER_PASS);
        self.steps = std::mem::take(steps);
    }

    fn handle(&self, r: Ref) -> Oid {
        // A missing handle means an earlier create failed; that was counted
        // as a mismatch, and a stale root handle makes this op fail too.
        self.handles.get(&r).copied().unwrap_or(Oid {
            index: u32::MAX,
            gen: 0,
        })
    }

    fn op_of(&mut self, step: Step) -> (NfsOp, Expect) {
        match step {
            Step::Mkdir(d) => (
                NfsOp::Mkdir {
                    dir: Oid::ROOT,
                    name: self.dir_names[d as usize].clone(),
                    mode: 0o755,
                },
                Expect::Handle(Ref::Dir(d)),
            ),
            Step::Create(d, f) => (
                NfsOp::Create {
                    dir: self.handle(Ref::Dir(d)),
                    name: self.file_names[f as usize].clone(),
                    mode: 0o644,
                },
                Expect::Handle(Ref::File(d, f)),
            ),
            Step::CreateOut(d) => (
                NfsOp::Create {
                    dir: self.handle(Ref::Dir(d)),
                    name: "prog.o".to_owned(),
                    mode: 0o755,
                },
                Expect::Handle(Ref::Out(d)),
            ),
            Step::Write(file, c, fill, size_after) => (
                NfsOp::Write {
                    fh: self.handle(file),
                    offset: u64::from(c) * u64::from(CHUNK),
                    data: vec![fill; CHUNK as usize],
                },
                Expect::Size(size_after),
            ),
            Step::Read(file, c, fill) => (
                NfsOp::Read {
                    fh: self.handle(file),
                    offset: u64::from(c) * u64::from(CHUNK),
                    count: CHUNK,
                },
                Expect::Data(CHUNK, fill),
            ),
            Step::Getattr(file, size) => (
                NfsOp::Getattr {
                    fh: self.handle(file),
                },
                Expect::Size(size),
            ),
            Step::Readdir(d, names) => (
                NfsOp::Readdir {
                    dir: self.handle(Ref::Dir(d)),
                },
                Expect::Names(names),
            ),
            Step::Remove(d, name) => (
                NfsOp::Remove {
                    dir: self.handle(Ref::Dir(d)),
                    name,
                },
                Expect::Ok,
            ),
            Step::Rmdir(d) => (
                NfsOp::Rmdir {
                    dir: Oid::ROOT,
                    name: self.dir_names[d as usize].clone(),
                },
                Expect::Ok,
            ),
        }
    }

    fn check(&mut self, expect: Expect, reply: &NfsReply) {
        let ok = match (expect, reply) {
            (Expect::Handle(r), NfsReply::Handle { fh, .. }) => {
                self.handles.insert(r, *fh);
                true
            }
            (Expect::Size(size), NfsReply::Attr(attr)) => attr.size == size,
            (Expect::Data(len, fill), NfsReply::Data(data)) => {
                data.len() == len as usize && data.iter().all(|b| *b == fill)
            }
            (Expect::Names(names), NfsReply::Entries(entries)) => entries
                .iter()
                .map(|(n, _)| n.as_str())
                .eq(names.iter().map(String::as_str)),
            (Expect::Ok, NfsReply::Ok) => true,
            _ => false,
        };
        self.checked += 1;
        self.mismatches += u64::from(!ok);
    }
}

impl NfsDriver for AndrewLoop {
    fn next(&mut self, last: Option<(&NfsOp, &NfsReply)>) -> Option<NfsOp> {
        if let (Some(expect), Some((_, reply))) = (self.expect.take(), last) {
            self.check(expect, reply);
        }
        if self.steps.is_empty() {
            if self.passes_left == 0 {
                return None;
            }
            self.passes_left -= 1;
            self.plan_pass();
        }
        let step = self
            .steps
            .pop_front()
            .expect("a planned pass is never empty");
        let (op, expect) = self.op_of(step);
        self.expect = Some(expect);
        Some(op)
    }
}

fn wrap<S: NfsServer>(server: S) -> NfsWrapper<S> {
    let mut w = NfsWrapper::with_capacity(server, CAPACITY);
    w.op_cost_base = OP_COST_BASE;
    w.op_cost_per_byte_ns = OP_COST_PER_BYTE_NS;
    w
}

fn passes(scale: Scale) -> u32 {
    if scale == Scale::Full {
        30
    } else {
        2
    }
}

/// The replicated file service under the Andrew-shaped loop.
pub struct NfsBench {
    k: u64,
    sim: Simulation,
    groups: Vec<Vec<ReplicaHandle>>,
    relay: NodeId,
}

impl NfsBench {
    /// Builds the heterogeneous group (InodeFs, FlatFs, LogFs, BtreeFs; the
    /// clock of replica `i` skewed by `13 i` ms) and its relay.
    pub fn new(scale: Scale, seed: u64, traced: bool) -> Self {
        let cfg = Config::new(4);
        let mut sim = Simulation::new(seed);
        let dir = KeyDirectory::generate(cfg.n + 1, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut group = Vec::new();
        for i in 0..cfg.n {
            let keys = NodeKeys::new(dir.clone(), i);
            let fsid = 0x10 * (i as u64 + 1);
            let r = match i {
                0 => add_base_replica(
                    &mut sim,
                    &cfg,
                    keys,
                    wrap(InodeFs::new(fsid, &mut rng)),
                    traced,
                ),
                1 => add_base_replica(
                    &mut sim,
                    &cfg,
                    keys,
                    wrap(FlatFs::new(fsid, &mut rng)),
                    traced,
                ),
                2 => add_base_replica(
                    &mut sim,
                    &cfg,
                    keys,
                    wrap(LogFs::new(fsid, &mut rng)),
                    traced,
                ),
                _ => add_base_replica(
                    &mut sim,
                    &cfg,
                    keys,
                    wrap(BtreeFs::new(fsid, &mut rng)),
                    traced,
                ),
            };
            sim.config_mut()
                .set_clock_skew(r.id, SimDuration::from_millis(13 * i as u64));
            group.push(r);
        }
        let relay_actor = RelayActor::new(
            cfg.clone(),
            NodeKeys::new(dir, cfg.n),
            AndrewLoop::new(seed, passes(scale)),
        );
        let relay = add_client(&mut sim, relay_actor, NodeKind::Client, traced);
        Self {
            k: cfg.checkpoint_interval,
            sim,
            groups: vec![group],
            relay,
        }
    }

    fn relay(&self) -> &RelayActor<AndrewLoop> {
        actor(&self.sim, self.relay)
    }

    fn stats(&self) -> &RunStats {
        &self.relay().stats
    }
}

impl Bench for NfsBench {
    fn sim(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    fn sim_ref(&self) -> &Simulation {
        &self.sim
    }

    fn slice(&self) -> SimDuration {
        SimDuration::from_millis(30)
    }

    fn groups(&self) -> &[Vec<ReplicaHandle>] {
        &self.groups
    }

    fn warmed_up(&self) -> bool {
        self.groups[0]
            .iter()
            .all(|r| r.snap(&self.sim).stable_seq >= self.k)
    }

    fn finished(&self) -> bool {
        self.relay().done()
    }

    fn completed(&self) -> u64 {
        self.stats().ops
    }

    fn latency_counts(&self) -> Vec<usize> {
        vec![self.stats().latencies_ns.len()]
    }

    fn latencies_since(&self, marks: &[usize]) -> Vec<u64> {
        self.stats().latencies_ns[marks[0]..].to_vec()
    }

    fn retransmissions(&self) -> u64 {
        // The relay's embedded core is private; its retransmissions show
        // as latency outliers only.
        0
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let (ops, errors) = (self.stats().ops, self.stats().errors);
        let (checked, mismatches) = (
            self.relay().driver().checked,
            self.relay().driver().mismatches,
        );
        v.attempted += checked;
        v.failed += mismatches;
        if mismatches > 0 {
            v.notes
                .push(format!("{mismatches} NFS replies differ from the model"));
        }
        v.check(errors == 0, || {
            format!("{errors} NFS operations returned an error")
        });
        let want = u64::from(self.relay().driver().pass) * OPS_PER_PASS;
        v.check(ops == want && checked == want, || {
            format!("{ops} of {want} operations completed")
        });
        check_roots(self, &mut v);
        v
    }
}

/// The same loop against one unreplicated `InodeFs` server over the same
/// network model. Returns `(ops, virtual ns, wall ns)` of the whole run.
pub fn run_direct(scale: Scale, seed: u64) -> (u64, u64, u64) {
    let mut sim = Simulation::new(seed);
    sim.config_mut().latency = LatencyModel::lan();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut server = DirectServerActor::new(InodeFs::new(0x99, &mut rng));
    server.wrapper_mut().op_cost_base = OP_COST_BASE;
    server.wrapper_mut().op_cost_per_byte_ns = OP_COST_PER_BYTE_NS;
    let server = sim.add_node(Box::new(server));
    let client = sim.add_node(Box::new(DirectActor::new(
        server,
        AndrewLoop::new(seed, passes(scale)),
    )));
    let t0 = std::time::Instant::now();
    let done = |s: &Simulation| {
        s.actor_as::<DirectActor<AndrewLoop>>(client)
            .expect("direct client")
            .done()
    };
    while !done(&sim) && sim.now().as_nanos() < 600_000_000_000 {
        sim.run_for(SimDuration::from_millis(30));
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let c = sim
        .actor_as::<DirectActor<AndrewLoop>>(client)
        .expect("direct client");
    assert!(
        c.done() && c.stats.errors == 0 && c.driver().mismatches == 0,
        "direct baseline failed"
    );
    let virt = c.stats.finished_at.expect("done").as_nanos();
    (c.stats.ops, virt, wall_ns)
}
