//! The paper's worked example (Section 3, Figure 2): a replicated NFS
//! service where every replica runs a *different* off-the-shelf file-system
//! implementation.
//!
//! The pipeline is exactly Figure 2: a workload (standing in for the
//! application + kernel NFS client) feeds the relay, the relay invokes the
//! replication library, each replica's conformance wrapper drives its
//! unmodified file-system implementation.
//!
//! Run with: `cargo run --example replicated_nfs`

use base::BaseService;
use base_nfs::ops::{NfsOp, NfsReply};
use base_nfs::relay::{run_to_completion, RelayActor, ScriptDriver};
use base_nfs::spec::Oid;
use base_nfs::{BtreeFs, FlatFs, InodeFs, LogFs, NfsServer, NfsWrapper};
use base_pbft::{Config, Deployment};
use base_simnet::{SimDuration, Simulation};
use rand::SeedableRng;

const CAP: u64 = 1024;

fn service<F: NfsServer>(fs: F) -> BaseService<NfsWrapper<F>> {
    BaseService::new(NfsWrapper::with_capacity(fs, CAP))
}

fn main() {
    println!("architecture (paper Figure 2):");
    println!("  workload -> kernel-NFS-client stand-in -> relay");
    println!("  relay -> [replication library] -> 4 replicas:");
    println!("    replica 0: conformance wrapper -> inode-fs (ext2-flavoured)");
    println!("    replica 1: conformance wrapper -> flat-fs  (path-table)");
    println!("    replica 2: conformance wrapper -> log-fs   (log-structured)");
    println!("    replica 3: conformance wrapper -> btree-fs (BTree)\n");

    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 32;
    let mut sim = Simulation::new(7);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // One deployment, four replica types: each call installs the next
    // replica with whatever file system it is given.
    let mut group = Deployment::new(cfg, 1, 7);
    group.replica(&mut sim, service(InodeFs::new(0x11, &mut rng)));
    group.replica(&mut sim, service(FlatFs::new(0x44, &mut rng)));
    group.replica(&mut sim, service(LogFs::new(0x22, &mut rng)));
    group.replica(&mut sim, service(BtreeFs::new(0x33, &mut rng)));
    // Divergent local clocks, like machines in a real machine room.
    for (i, r) in group.replicas.iter().enumerate() {
        sim.config_mut().set_clock_skew(r.node, SimDuration::from_millis(17 * i as u64));
    }

    // A small project tree: oids are assigned deterministically, so the
    // script can name handles before the replies arrive.
    let root = Oid::ROOT;
    let src = Oid { index: 1, gen: 1 };
    let main_rs = Oid { index: 2, gen: 1 };
    let lib_rs = Oid { index: 3, gen: 1 };
    let script = vec![
        NfsOp::Mkdir { dir: root, name: "src".into(), mode: 0o755 },
        NfsOp::Create { dir: src, name: "main.rs".into(), mode: 0o644 },
        NfsOp::Write { fh: main_rs, offset: 0, data: b"fn main() { lib::run() }\n".to_vec() },
        NfsOp::Create { dir: src, name: "lib.rs".into(), mode: 0o644 },
        NfsOp::Write { fh: lib_rs, offset: 0, data: b"pub fn run() {}\n".to_vec() },
        NfsOp::Symlink { dir: root, name: "entry".into(), target: "src/main.rs".into() },
        NfsOp::Readdir { dir: src },
        NfsOp::Read { fh: main_rs, offset: 0, count: 1024 },
        NfsOp::Getattr { fh: lib_rs },
        NfsOp::Rename {
            from_dir: src,
            from_name: "lib.rs".into(),
            to_dir: root,
            to_name: "lib.rs".into(),
        },
        NfsOp::Readdir { dir: root },
    ];
    let driver = ScriptDriver::new(script);
    let relay = group.client(&mut sim, |cfg, keys| RelayActor::new(cfg, keys, driver));

    let ok = run_to_completion(
        &mut sim,
        |s| s.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap().done(),
        SimDuration::from_secs(30),
    );
    assert!(ok, "workload did not finish");

    let actor = sim.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap();
    println!("ran {} NFS operations, {} errors", actor.stats.ops, actor.stats.errors);
    for (op_idx, label) in [(6usize, "readdir src"), (7, "read main.rs"), (10, "readdir /")] {
        match &actor.driver().replies[op_idx] {
            NfsReply::Entries(es) => {
                let names: Vec<&str> = es.iter().map(|(n, _)| n.as_str()).collect();
                println!("  {label:14} -> {names:?}");
            }
            NfsReply::Data(d) => {
                println!("  {label:14} -> {:?}", String::from_utf8_lossy(d).trim_end());
            }
            other => println!("  {label:14} -> {other:?}"),
        }
    }

    // Four different file systems, one abstract state.
    let [r0, r1, r2, r3] = [0, 1, 2, 3].map(|i| group.replicas[i].get(&sim).state_root());
    assert_eq!(r0, r1);
    assert_eq!(r0, r2);
    assert_eq!(r0, r3);
    println!("\nabstract state root at every replica: {}", r0.short_hex());
    println!("four distinct implementations, one replicated file system ✓");
}
