//! On-line software replacement — the upgrade/diversification story the
//! paper's abstraction enables (§1: BASE "reduces the probability of common
//! mode failures" by letting replicas "run different implementations",
//! and replicas can be *repaired or replaced* without stopping the
//! service).
//!
//! A replicated NFS service starts homogeneous: all four replicas run the
//! same vendor file system, which ships a latent bug — a common-mode
//! failure waiting to happen. The operator then performs a rolling
//! diversification: one machine at a time is reinstalled with a different
//! implementation. Each replacement starts from an empty concrete state
//! and rebuilds itself from the group's *abstract* state through its own
//! inverse abstraction function, while the service keeps answering. At the
//! end, the bug is triggered — and the now-heterogeneous group masks it.
//!
//! Run with: `cargo run --example rolling_upgrade`

use base::{BaseClient, BaseReplica, BaseService};
use base_nfs::ops::{NfsOp, NfsReply};
use base_nfs::spec::Oid;
use base_nfs::{BtreeFs, FlatFs, InodeFs, LogFs, NfsServer, NfsWrapper};
use base_pbft::{Config, Deployment};
use base_simnet::{NodeId, SimDuration, Simulation};
use rand::SeedableRng;

const CAP: u64 = 1024;

type InodeReplica = BaseReplica<NfsWrapper<InodeFs>>;

fn service<F: NfsServer>(fs: F) -> BaseService<NfsWrapper<F>> {
    BaseService::new(NfsWrapper::with_capacity(fs, CAP))
}

fn invoke(sim: &mut Simulation, client: NodeId, op: NfsOp) {
    sim.actor_as_mut::<BaseClient>(client).unwrap().invoke(op.to_bytes(), false);
}

fn last_reply(sim: &Simulation, client: NodeId) -> NfsReply {
    let done = &sim.actor_as::<BaseClient>(client).unwrap().completed;
    NfsReply::from_bytes(&done.last().expect("an op completed").1).expect("reply decodes")
}

fn completed(sim: &Simulation, client: NodeId) -> usize {
    sim.actor_as::<BaseClient>(client).unwrap().completed.len()
}

fn main() {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 16;
    let mut sim = Simulation::new(2026);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);

    // Day 0: a homogeneous deployment — all four machines run the same
    // vendor release (with a latent bug nobody knows about yet).
    let mut group = Deployment::build(&mut sim, cfg, 1, 2026, |i| {
        service(InodeFs::new(0x50 + i as u64, &mut rng))
    });
    let client = group.clients[0];
    println!("day 0: homogeneous group — 4x inode-fs (same vendor, same latent bug)\n");

    // Build up some state.
    let root = Oid::ROOT;
    let reports = Oid { index: 1, gen: 1 };
    let q1 = Oid { index: 2, gen: 1 };
    invoke(&mut sim, client, NfsOp::Mkdir { dir: root, name: "reports".into(), mode: 0o755 });
    invoke(&mut sim, client, NfsOp::Create { dir: reports, name: "q1.txt".into(), mode: 0o644 });
    invoke(
        &mut sim,
        client,
        NfsOp::Write { fh: q1, offset: 0, data: b"Q1 revenue: up and to the right\n".to_vec() },
    );
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(completed(&sim, client), 3);
    println!("wrote /reports/q1.txt through the replicated service");

    // Rolling diversification: reinstall machines 1, 2, 3 one at a time,
    // each with a different implementation. The service never stops.
    let upgrades: [(usize, &str); 3] =
        [(1, "flat-fs (path-table)"), (2, "log-fs (log-structured)"), (3, "btree-fs (BTree)")];
    for (step, (node, label)) in upgrades.into_iter().enumerate() {
        println!("\nupgrade {}: reinstalling machine {node} with {label}", step + 1);
        let seed = 0x70 + node as u64;
        match node {
            1 => group.replace(&mut sim, node, service(FlatFs::new(seed, &mut rng))),
            2 => group.replace(&mut sim, node, service(LogFs::new(seed, &mut rng))),
            _ => group.replace(&mut sim, node, service(BtreeFs::new(seed, &mut rng))),
        };

        // Traffic continues while the newcomer state-transfers: the
        // abstract objects it fetches are installed through *its own*
        // put_objs into a completely different on-disk layout.
        let before = completed(&sim, client);
        invoke(
            &mut sim,
            client,
            NfsOp::Write {
                fh: q1,
                offset: 32 + 28 * step as u64,
                data: format!("audit line {} (during upgrade)\n", step + 1).into_bytes(),
            },
        );
        invoke(&mut sim, client, NfsOp::Read { fh: q1, offset: 0, count: 4096 });
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(completed(&sim, client), before + 2, "service stalled during upgrade");
        println!("  service stayed live ({} ops completed so far)", completed(&sim, client));
    }

    // All four replicas now expose identical abstract state from four
    // different concrete representations.
    let roots: Vec<_> = group.replicas.iter().map(|r| r.get(&sim).state_root()).collect();
    assert!(roots.iter().all(|r| *r == roots[0]), "abstract states diverged: {roots:?}");
    println!("\nall 4 implementations expose byte-identical abstract state");
    println!("  (inode table / path table / log / BTree underneath)");

    // The latent bug finally fires on the one remaining original machine —
    // but it is now a minority of one, and the group masks it.
    sim.actor_as_mut::<InodeReplica>(group.replicas[0].node)
        .unwrap()
        .service_mut()
        .wrapper_mut()
        .server_mut()
        .latent_bug = true;
    let mut payload = base_nfs::LATENT_BUG_TRIGGER.to_vec();
    payload.extend_from_slice(b" quarterly numbers");
    invoke(&mut sim, client, NfsOp::Create { dir: reports, name: "q2.txt".into(), mode: 0o644 });
    sim.run_for(SimDuration::from_secs(2));
    let q2 = Oid { index: 3, gen: 1 };
    invoke(&mut sim, client, NfsOp::Write { fh: q2, offset: 0, data: payload.clone() });
    invoke(&mut sim, client, NfsOp::Read { fh: q2, offset: 0, count: 4096 });
    sim.run_for(SimDuration::from_secs(5));
    match last_reply(&sim, client) {
        NfsReply::Data(data) => {
            assert_eq!(data, payload, "the replicated service returned corrupt data!");
            println!("\nlatent bug triggered on machine 0 — and MASKED:");
            println!("  the trigger input corrupts inode-fs, but the three upgraded");
            println!("  replicas out-vote it; the client reads correct data.");
        }
        other => panic!("unexpected reply {other:?}"),
    }
    println!(
        "\nbefore the upgrade this input was a common-mode failure: four identical\n\
         implementations would all have corrupted the file and agreed on the\n\
         corruption. Abstraction made the diversity — and the live upgrade — possible."
    );
}
