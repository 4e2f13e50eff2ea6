//! End-to-end replicated NFS: four replicas running *different* file-system
//! implementations behind conformance wrappers (opportunistic N-version
//! programming), driven through the relay over the simulated network.

use base::{BaseReplica, BaseService};
use base_nfs::ops::{NfsOp, NfsReply};
use base_nfs::relay::{
    run_to_completion, DirectActor, DirectServerActor, RelayActor, ScriptDriver,
};
use base_nfs::spec::{Fattr, NfsStatus, Oid};
use base_nfs::{BtreeFs, FlatFs, InodeFs, LogFs, NfsServer, NfsWrapper};
use base_pbft::{Config, Deployment, ReplicaRef};
use base_simnet::{NodeId, SimDuration, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CAP: u64 = 1024;

type LogReplica = BaseReplica<NfsWrapper<LogFs>>;
type BtreeReplica = BaseReplica<NfsWrapper<BtreeFs>>;

fn service<F: NfsServer>(fs: F) -> BaseService<NfsWrapper<F>> {
    BaseService::new(NfsWrapper::with_capacity(fs, CAP))
}

/// Builds a heterogeneous 4-replica NFS service plus one relay client.
/// Replicas 0–1 run InodeFs, replica 2 LogFs, replica 3 BtreeFs.
fn build(sim: &mut Simulation, script: Vec<NfsOp>, seed: u64) -> (Vec<ReplicaRef>, NodeId) {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 8;
    cfg.log_window = 64;
    let mut d = Deployment::new(cfg, 1, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..4u64 {
        let replica = match i {
            0 | 1 => d.replica(sim, service(InodeFs::new(0x10 + i, &mut rng))),
            2 => d.replica(sim, service(LogFs::new(0x22, &mut rng))),
            _ => d.replica(sim, service(BtreeFs::new(0x33, &mut rng))),
        };
        // Divergent local clocks.
        sim.config_mut().set_clock_skew(replica.node, SimDuration::from_millis(31 * i));
    }
    let relay = d.client(sim, |cfg, keys| RelayActor::new(cfg, keys, ScriptDriver::new(script)));
    (d.replicas, relay)
}

fn roots_agree(sim: &Simulation, replicas: &[ReplicaRef]) {
    let [r0, r1, r2, r3] = [0, 1, 2, 3].map(|i| replicas[i].get(sim).state_root());
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
    let (replicas, relay) = build(&mut sim, script, 31);
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

    roots_agree(&sim, &replicas);
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
    let (replicas, relay) = build(&mut sim, script, 32);
    // The BtreeFs replica turns Byzantine.
    sim.actor_as_mut::<BtreeReplica>(replicas[3].node)
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
    let (replicas, relay) = build(&mut sim, script, 33);

    // The LogFs replica misses the start of the workload.
    sim.crash(replicas[2].node, SimDuration::from_secs(3));
    let finished = run_to_completion(
        &mut sim,
        |s| s.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap().done(),
        SimDuration::from_secs(60),
    );
    assert!(finished);
    // Let the recovery traffic settle.
    sim.run_for(SimDuration::from_secs(20));

    let r2 = sim.actor_as::<LogReplica>(replicas[2].node).unwrap();
    assert!(r2.stats.state_transfers >= 1, "log-fs replica must have state-transferred");
    roots_agree(&sim, &replicas);
    // The fetched abstract objects were installed through LogFs's own
    // inverse abstraction function: the concrete file exists and reads
    // back correctly.
    let w = sim.actor_as::<LogReplica>(replicas[2].node).unwrap().service().wrapper();
    assert!(w.allocated() >= 25, "objects installed: {}", w.allocated());
}

/// A reply with its attribute timestamps blanked: the replicated service
/// stamps objects with agreed time, the direct server with its own clock.
fn untimed(reply: &NfsReply) -> NfsReply {
    let blank = |a: &Fattr| Fattr { atime_ns: 0, mtime_ns: 0, ctime_ns: 0, ..*a };
    match reply {
        NfsReply::Attr(a) => NfsReply::Attr(blank(a)),
        NfsReply::Handle { fh, attr } => NfsReply::Handle { fh: *fh, attr: blank(attr) },
        other => other.clone(),
    }
}

#[test]
fn heterogeneous_replicas_answer_like_the_direct_server() {
    let root = Oid::ROOT;
    // Deterministic oid allocation: a → 1, b → 2, big → 3, link → 4.
    let (a, b) = (Oid { index: 1, gen: 1 }, Oid { index: 2, gen: 1 });
    let (big, link) = (Oid { index: 3, gen: 1 }, Oid { index: 4, gen: 1 });
    let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    let mut script = vec![
        NfsOp::Mkdir { dir: root, name: "a".into(), mode: 0o755 },
        NfsOp::Mkdir { dir: root, name: "b".into(), mode: 0o755 },
        NfsOp::Create { dir: a, name: "big".into(), mode: 0o644 },
    ];
    for (i, chunk) in data.chunks(8192).enumerate() {
        script.push(NfsOp::Write { fh: big, offset: i as u64 * 8192, data: chunk.to_vec() });
    }
    script.extend([
        NfsOp::Symlink { dir: a, name: "link".into(), target: "big".into() },
        NfsOp::Readlink { fh: link },
        NfsOp::Readdir { dir: a },
        NfsOp::Rename { from_dir: a, from_name: "big".into(), to_dir: b, to_name: "moved".into() },
        NfsOp::Remove { dir: a, name: "link".into() },
        NfsOp::Lookup { dir: a, name: "link".into() },
        NfsOp::Readdir { dir: b },
        NfsOp::Read { fh: big, offset: 0, count: 20_000 },
        NfsOp::Getattr { fh: big },
    ]);
    let n_ops = script.len();

    // Replicated: one replica per file-system implementation, divergent
    // local clocks, one relay.
    let mut sim = Simulation::new(91);
    let mut rng = StdRng::seed_from_u64(91);
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 32;
    let mut d = Deployment::new(cfg, 1, 91);
    d.replica(&mut sim, service(InodeFs::new(1, &mut rng)));
    d.replica(&mut sim, service(FlatFs::new(2, &mut rng)));
    d.replica(&mut sim, service(LogFs::new(3, &mut rng)));
    d.replica(&mut sim, service(BtreeFs::new(4, &mut rng)));
    for (i, r) in d.replicas.iter().enumerate() {
        sim.config_mut().set_clock_skew(r.node, SimDuration::from_millis(9 * i as u64));
    }
    let driver = ScriptDriver::new(script.clone());
    let relay = d.client(&mut sim, |cfg, keys| RelayActor::new(cfg, keys, driver));
    let finished = run_to_completion(
        &mut sim,
        |s| s.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap().done(),
        SimDuration::from_secs(60),
    );
    assert!(finished, "replicated script did not finish");
    roots_agree(&sim, &d.replicas);
    let relay = sim.actor_as::<RelayActor<ScriptDriver>>(relay).unwrap();
    let replicated = relay.driver().replies.clone();

    // Direct: the same script against one unreplicated server.
    let mut sim = Simulation::new(92);
    let mut rng = StdRng::seed_from_u64(92);
    let server = sim.add_node(Box::new(DirectServerActor::new(InodeFs::new(9, &mut rng))));
    let client = sim.add_node(Box::new(DirectActor::new(server, ScriptDriver::new(script))));
    let finished = run_to_completion(
        &mut sim,
        |s| s.actor_as::<DirectActor<ScriptDriver>>(client).unwrap().done(),
        SimDuration::from_secs(60),
    );
    assert!(finished, "direct script did not finish");
    let direct = &sim.actor_as::<DirectActor<ScriptDriver>>(client).unwrap().driver().replies;

    assert_eq!((replicated.len(), direct.len()), (n_ops, n_ops));
    for (i, (rep, dir)) in replicated.iter().zip(direct).enumerate() {
        assert_eq!(untimed(rep), untimed(dir), "reply {i} diverged");
    }
    // Spot-check meaning.
    let at = |back: usize| &replicated[n_ops - back];
    assert_eq!(*at(4), NfsReply::Error(NfsStatus::NoEnt), "the removed link is gone");
    assert_eq!(*at(3), NfsReply::Entries(vec![("moved".into(), big)]));
    assert_eq!(*at(2), NfsReply::Data(data));
    assert!(matches!(at(1), NfsReply::Attr(a) if a.size == 20_000));
}
