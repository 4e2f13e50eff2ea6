//! The POSIX shim over the full replicated stack: the same path-level
//! program runs against the heterogeneous BASE-NFS service and against the
//! unreplicated baseline, and must produce identical path-level results.

use base::BaseService;
use base_nfs::posix::{FsCall, FsOut, PosixDriver};
use base_nfs::relay::{run_to_completion, DirectActor, DirectServerActor, RelayActor};
use base_nfs::{BtreeFs, FlatFs, InodeFs, LogFs, NfsServer, NfsWrapper};
use base_pbft::{Config, Deployment};
use base_simnet::{SimDuration, Simulation};
use rand::SeedableRng;

const CAP: u64 = 1024;

fn program() -> Vec<FsCall> {
    vec![
        FsCall::MkdirP("/home/alice/projects".into()),
        FsCall::WriteFile("/home/alice/projects/notes.md".into(), b"# plan\n- ship it\n".to_vec()),
        FsCall::WriteFile("/home/alice/todo".into(), vec![0x42; 20_000]),
        FsCall::Symlink("/home/alice/link".into(), "projects/notes.md".into()),
        FsCall::List("/home/alice".into()),
        FsCall::ReadFile("/home/alice/projects/notes.md".into()),
        FsCall::Stat("/home/alice/todo".into()),
        FsCall::Rename("/home/alice/todo".into(), "/home/alice/projects/todo".into()),
        FsCall::List("/home/alice/projects".into()),
        FsCall::ReadFile("/home/alice/projects/todo".into()),
        FsCall::Remove("/home/alice/link".into()),
        FsCall::List("/home/alice".into()),
        FsCall::ReadFile("/does/not/exist".into()),
    ]
}

fn service<F: NfsServer>(fs: F) -> BaseService<NfsWrapper<F>> {
    BaseService::new(NfsWrapper::with_capacity(fs, CAP))
}

fn run_replicated() -> Vec<(FsCall, FsOut)> {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 32;
    let mut sim = Simulation::new(91);
    let mut rng = rand::rngs::StdRng::seed_from_u64(91);
    let mut d = Deployment::new(cfg, 1, 91);
    d.replica(&mut sim, service(InodeFs::new(1, &mut rng)));
    d.replica(&mut sim, service(FlatFs::new(2, &mut rng)));
    d.replica(&mut sim, service(LogFs::new(3, &mut rng)));
    d.replica(&mut sim, service(BtreeFs::new(4, &mut rng)));
    for (i, r) in d.replicas.iter().enumerate() {
        sim.config_mut().set_clock_skew(r.node, SimDuration::from_millis(9 * i as u64));
    }
    let driver = PosixDriver::new(program());
    let relay = d.client(&mut sim, |cfg, keys| RelayActor::new(cfg, keys, driver));
    let ok = run_to_completion(
        &mut sim,
        |s| s.actor_as::<RelayActor<PosixDriver>>(relay).unwrap().done(),
        SimDuration::from_secs(60),
    );
    assert!(ok, "replicated posix program did not finish");
    sim.actor_as::<RelayActor<PosixDriver>>(relay).unwrap().driver().results.clone()
}

fn run_direct() -> Vec<(FsCall, FsOut)> {
    let mut sim = Simulation::new(92);
    let mut rng = rand::rngs::StdRng::seed_from_u64(92);
    let server = sim.add_node(Box::new(DirectServerActor::new(InodeFs::new(9, &mut rng))));
    let client = sim.add_node(Box::new(DirectActor::new(server, PosixDriver::new(program()))));
    let ok = run_to_completion(
        &mut sim,
        |s| s.actor_as::<DirectActor<PosixDriver>>(client).unwrap().done(),
        SimDuration::from_secs(60),
    );
    assert!(ok, "direct posix program did not finish");
    sim.actor_as::<DirectActor<PosixDriver>>(client).unwrap().driver().results.clone()
}

#[test]
fn posix_program_replicated_equals_direct() {
    let rep = run_replicated();
    let dir = run_direct();
    assert_eq!(rep.len(), dir.len());
    for ((rc, rout), (_, dout)) in rep.iter().zip(dir.iter()) {
        // Stat attrs include abstract timestamps, which come from agreed
        // protocol values in one run and local clocks in the other —
        // compare only the size there.
        match (rout, dout) {
            (FsOut::Attr(a), FsOut::Attr(b)) => {
                assert_eq!(a.size, b.size, "stat size diverged for {rc:?}")
            }
            _ => assert_eq!(rout, dout, "result diverged for {rc:?}"),
        }
    }
    // Spot-check meaning.
    assert_eq!(rep[5].1, FsOut::Data(b"# plan\n- ship it\n".to_vec()));
    assert_eq!(rep[9].1, FsOut::Data(vec![0x42; 20_000]));
    assert_eq!(
        rep[11].1,
        FsOut::Names(vec!["projects".into()]),
        "link removed, todo moved away"
    );
    assert!(matches!(rep[12].1, FsOut::Err(_)));
}
