//! The abstract's second example: an object-oriented database where every
//! replica runs the *same, non-deterministic* implementation — random heap
//! addresses and a relocating garbage collector that runs at different
//! moments on each replica.
//!
//! Run with: `cargo run --example oodb_nondet`

use base::{BaseClient, BaseReplica, BaseService, Config};
use base_oodb::{ObjStore, Oo7Workload, OodbWrapper};
use base_oodb::wrapper::OodbReply;
use base_pbft::Deployment;
use base_simnet::{SimDuration, Simulation};
use rand::SeedableRng;

type DbReplica = BaseReplica<OodbWrapper>;

fn main() {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 32;
    let mut sim = Simulation::new(1234);
    let group = Deployment::build(&mut sim, cfg, 1, 1234, |i| {
        // Same implementation, different seed: different addresses,
        // different GC schedule.
        let mut seed_rng = rand::rngs::StdRng::seed_from_u64(500 + i as u64);
        BaseService::new(OodbWrapper::new(ObjStore::new(&mut seed_rng)))
    });
    let client = group.clients[0];

    // Build an OO7-style module hierarchy and traverse it.
    let wl = Oo7Workload::small();
    let ops = wl.build_ops();
    println!(
        "OO7-lite: {} composites x {} atomic parts = {} objects, {} operations",
        wl.composites,
        wl.atomics_per_composite,
        wl.total_objects(),
        ops.len()
    );
    {
        let c = sim.actor_as_mut::<BaseClient>(client).unwrap();
        for (op, ro) in &ops {
            c.invoke(op.clone(), *ro);
        }
    }
    sim.run_for(SimDuration::from_secs(30));

    let c = sim.actor_as::<BaseClient>(client).unwrap();
    assert_eq!(c.completed.len(), ops.len(), "workload incomplete");
    let last_traversal = c
        .completed
        .iter()
        .rev()
        .find_map(|(_, r)| match OodbReply::from_bytes(r) {
            Some(OodbReply::Count(n)) => Some(n),
            _ => None,
        })
        .expect("at least one traversal");
    println!("final T1 traversal visited {last_traversal} objects");
    assert_eq!(last_traversal, u64::from(wl.total_objects()));

    // The replicas' collectors ran on their own schedules...
    let collections: Vec<u64> = group
        .replicas
        .iter()
        .map(|r| sim.actor_as::<DbReplica>(r.node).unwrap().service().wrapper().store().collections)
        .collect();
    println!("per-replica GC collections: {collections:?} (independent schedules)");

    // ...so their concrete heaps diverge, yet the abstract states agree.
    let roots: Vec<String> =
        group.replicas.iter().map(|r| r.get(&sim).state_root().short_hex()).collect();
    println!("abstract state roots: {roots:?}");
    assert!(roots.iter().all(|r| *r == roots[0]));
    println!("same non-deterministic implementation, consistent replication ✓");
}
