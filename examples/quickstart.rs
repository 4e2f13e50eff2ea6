//! Quickstart: replicate a non-deterministic key-value store with BASE.
//!
//! This walks the whole Figure-1 interface on the demo service:
//! `invoke` on the client side; `execute`, `modify`, `get_obj` and
//! `put_objs` (exercised through checkpointing) on the replica side.
//!
//! Run with: `cargo run --example quickstart`

use base::demo::{KvWrapper, TinyKv};
use base::{BaseClient, BaseService, Config};
use base_pbft::Deployment;
use base_simnet::{SimDuration, Simulation};

fn main() {
    // A 4-replica group tolerates f = 1 Byzantine fault.
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 8;

    let mut sim = Simulation::new(2026);

    // Each replica wraps its own TinyKv instance. TinyKv is deliberately
    // non-deterministic (random internal ids, local-clock timestamps), so
    // classic BFT could not replicate it — the conformance wrapper hides
    // the divergence behind the common abstract specification.
    let group = Deployment::build(&mut sim, cfg, 1, 2026, |_| {
        BaseService::new(KvWrapper::new(TinyKv::default()))
    });
    // Give every replica a different local clock.
    for (i, r) in group.replicas.iter().enumerate() {
        sim.config_mut().set_clock_skew(r.node, SimDuration::from_millis(11 * i as u64));
    }
    let client = group.clients[0];

    // invoke() — Figure 1's client entry point. Writes run through the
    // full three-phase protocol; the final read takes the read-only path
    // (2f+1 matching replies).
    {
        let c = sim.actor_as_mut::<BaseClient>(client).unwrap();
        for i in 0..12 {
            c.invoke(format!("put language{i} rust").into_bytes(), false);
        }
        c.invoke(b"del language3".to_vec(), false);
        c.invoke(b"get language7".to_vec(), true);
        c.invoke(b"mtime language7".to_vec(), true);
    }
    sim.run_for(SimDuration::from_secs(2));

    let c = sim.actor_as::<BaseClient>(client).unwrap();
    println!("completed {} operations", c.completed.len());
    let get = &c.completed[13].1;
    let mtime = &c.completed[14].1;
    println!("get language7  -> {}", String::from_utf8_lossy(get));
    println!("mtime language7-> {} (agreed timestamp, identical at every replica)",
        String::from_utf8_lossy(mtime));

    // Every replica's *concrete* state diverged (different ids/clocks),
    // but the *abstract* states are identical — compare the digest trees.
    let roots: Vec<String> =
        group.replicas.iter().map(|r| r.get(&sim).state_root().short_hex()).collect();
    println!("abstract state roots: {roots:?}");
    assert!(roots.iter().all(|r| *r == roots[0]));
    println!("all replicas agree on the abstract state ✓");
}
