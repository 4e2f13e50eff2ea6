//! End-to-end replicated NFS: four replicas running *different* file-system
//! implementations behind conformance wrappers (opportunistic N-version
//! programming), driven through the relay over the simulated network.

use base::{BaseReplica, BaseService};
use base_nfs::ops::{NfsOp, NfsReply};
use base_nfs::relay::{run_to_completion, RelayActor, ScriptDriver};
use base_nfs::spec::Oid;
use base_nfs::{BtreeFs, InodeFs, LogFs, NfsWrapper};
use base_pbft::{Config, ReplicaRef};
use base_simnet::{NodeId, SimDuration, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CAP: u64 = 1024;

type InodeReplica = BaseReplica<NfsWrapper<InodeFs>>;
type LogReplica = BaseReplica<NfsWrapper<LogFs>>;
type BtreeReplica = BaseReplica<NfsWrapper<BtreeFs>>;

/// Builds a heterogeneous 4-replica NFS service plus one relay client.
/// Replicas 0–1 run InodeFs, replica 2 LogFs, replica 3 BtreeFs.
fn build(sim: &mut Simulation, script: Vec<NfsOp>, seed: u64) -> (Vec<NodeId>, NodeId) {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 8;
    cfg.log_window = 64;
    let dir = base_crypto::KeyDirectory::generate(5, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes = Vec::new();

    for i in 0..4usize {
        let keys = base_crypto::NodeKeys::new(dir.clone(), i);
        let node = match i {
            0 | 1 => sim.add_node(Box::new(InodeReplica::new(
                cfg.clone(),
                keys,
                BaseService::new(NfsWrapper::with_capacity(InodeFs::new(0x10 + i as u64, &mut rng), CAP)),
            ))),
            2 => sim.add_node(Box::new(LogReplica::new(
                cfg.clone(),
                keys,
                BaseService::new(NfsWrapper::with_capacity(LogFs::new(0x22, &mut rng), CAP)),
            ))),
            _ => sim.add_node(Box::new(BtreeReplica::new(
                cfg.clone(),
                keys,
                BaseService::new(NfsWrapper::with_capacity(BtreeFs::new(0x33, &mut rng), CAP)),
            ))),
        };
        // Divergent local clocks.
        sim.config_mut().set_clock_skew(node, SimDuration::from_millis(31 * i as u64));
        nodes.push(node);
    }
    let keys = base_crypto::NodeKeys::new(dir, 4);
    let relay = sim.add_node(Box::new(RelayActor::new(cfg, keys, ScriptDriver::new(script))));
    (nodes, relay)
}

fn roots_agree(sim: &Simulation, nodes: &[NodeId]) {
    let root = |r: ReplicaRef| r.get(sim).state_root();
    let r0 = root(ReplicaRef::of::<BaseService<NfsWrapper<InodeFs>>>(nodes[0]));
    let r1 = root(ReplicaRef::of::<BaseService<NfsWrapper<InodeFs>>>(nodes[1]));
    let r2 = root(ReplicaRef::of::<BaseService<NfsWrapper<LogFs>>>(nodes[2]));
    let r3 = root(ReplicaRef::of::<BaseService<NfsWrapper<BtreeFs>>>(nodes[3]));
    assert_eq!(r0, r1, "homogeneous pair diverged");
    assert_eq!(r0, r2, "log-fs replica diverged");
    assert_eq!(r0, r3, "btree-fs replica diverged");
}

#[test]
fn heterogeneous_replicas_serve_a_file_workload() {
    let root = Oid::ROOT;
    // Deterministic oid allocation lets the script name handles upfront:
    // mkdir → index 1, create → index 2.
    let dir = Oid { index: 1, gen: 1 };
    let file = Oid { index: 2, gen: 1 };
    let script = vec![
        NfsOp::Mkdir { dir: root, name: "work".into(), mode: 0o755 },
        NfsOp::Create { dir, name: "notes.txt".into(), mode: 0o644 },
        NfsOp::Write { fh: file, offset: 0, data: b"line one\n".to_vec() },
        NfsOp::Write { fh: file, offset: 9, data: b"line two\n".to_vec() },
        NfsOp::Read { fh: file, offset: 0, count: 64 },
        NfsOp::Readdir { dir: root },
        NfsOp::Readdir { dir },
        NfsOp::Getattr { fh: file },
        NfsOp::Lookup { dir, name: "notes.txt".into() },
        NfsOp::Statfs,
        // Cross a checkpoint boundary with more writes.
        NfsOp::Write { fh: file, offset: 18, data: vec![b'x'; 4000] },
        NfsOp::Setattr {
            fh: file,
            attrs: base_nfs::ops::SetAttrs { size: Some(18), ..Default::default() },
        },
        NfsOp::Read { fh: file, offset: 0, count: 64 },
    ];
    let n_ops = script.len() as u64;

    let mut sim = Simulation::new(31);
    let (nodes, relay) = build(&mut sim, script, 31);
    let finished = run_to_completion(
        &mut sim,
        |s| s.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap().done(),
        SimDuration::from_secs(30),
    );
    assert!(finished, "workload did not finish");

    let actor = sim.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap();
    assert_eq!(actor.stats.ops, n_ops);
    assert_eq!(actor.stats.errors, 0, "no NFS errors expected");

    // Spot-check replies.
    let replies = &actor.driver().replies;
    let read1 = &replies[4];
    assert_eq!(*read1, NfsReply::Data(b"line one\nline two\n".to_vec()));
    let final_read = replies.last().unwrap();
    assert_eq!(*final_read, NfsReply::Data(b"line one\nline two\n".to_vec()));
    match &replies[5] {
        NfsReply::Entries(es) => assert_eq!(es[0].0, "work"),
        other => panic!("unexpected {other:?}"),
    }

    roots_agree(&sim, &nodes);
}

#[test]
fn heterogeneous_replicas_mask_a_byzantine_member() {
    let root = Oid::ROOT;
    let file = Oid { index: 1, gen: 1 };
    let script = vec![
        NfsOp::Create { dir: root, name: "f".into(), mode: 0o644 },
        NfsOp::Write { fh: file, offset: 0, data: b"important".to_vec() },
        NfsOp::Read { fh: file, offset: 0, count: 32 },
        NfsOp::Getattr { fh: file },
    ];
    let mut sim = Simulation::new(32);
    let (nodes, relay) = build(&mut sim, script, 32);
    // The BtreeFs replica turns Byzantine.
    sim.actor_as_mut::<BtreeReplica>(nodes[3])
        .unwrap()
        .set_byzantine(base::ByzMode::CorruptReplies);

    let finished = run_to_completion(
        &mut sim,
        |s| s.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap().done(),
        SimDuration::from_secs(30),
    );
    assert!(finished);
    let actor = sim.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap();
    assert_eq!(actor.stats.errors, 0);
    assert_eq!(actor.driver().replies[2], NfsReply::Data(b"important".to_vec()));
}

#[test]
fn lagging_heterogeneous_replica_repairs_itself() {
    let root = Oid::ROOT;
    let mut script = vec![NfsOp::Mkdir { dir: root, name: "d".into(), mode: 0o755 }];
    let dir = Oid { index: 1, gen: 1 };
    for i in 0..24 {
        script.push(NfsOp::Create { dir, name: format!("f{i}"), mode: 0o644 });
        script.push(NfsOp::Write {
            fh: Oid { index: 2 + i, gen: 1 },
            offset: 0,
            data: format!("data-{i}").into_bytes(),
        });
    }
    let mut sim = Simulation::new(33);
    let (nodes, relay) = build(&mut sim, script, 33);

    // The LogFs replica misses the start of the workload.
    sim.crash(nodes[2], SimDuration::from_secs(3));
    let finished = run_to_completion(
        &mut sim,
        |s| s.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap().done(),
        SimDuration::from_secs(60),
    );
    assert!(finished);
    // Let the recovery traffic settle.
    sim.run_for(SimDuration::from_secs(20));

    let r2 = sim.actor_as::<LogReplica>(nodes[2]).unwrap();
    assert!(r2.stats.state_transfers >= 1, "log-fs replica must have state-transferred");
    roots_agree(&sim, &nodes);
    // The fetched abstract objects were installed through LogFs's own
    // inverse abstraction function: the concrete file exists and reads
    // back correctly.
    let w = sim.actor_as::<LogReplica>(nodes[2]).unwrap().service().wrapper();
    assert!(w.allocated() >= 25, "objects installed: {}", w.allocated());
}
