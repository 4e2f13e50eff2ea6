//! Experiment E10 (extension): overhead versus replication degree — the
//! Andrew Copy+ReadAll mix at n = 4 (f = 1) and n = 7 (f = 2). More
//! replicas mean bigger authenticators, more protocol messages, and a
//! larger reply quorum; the BFT literature shows a moderate growth, not a
//! blow-up.

use crate::andrew::{AndrewDriver, AndrewScale};
use crate::report::{pct, secs, Table};
use crate::setup::{
    build_direct_nfs, build_replicated_nfs, run_direct_to_completion, run_relay_to_completion,
    FsMix,
};
use base_nfs::relay::{DirectActor, RelayActor};
use base_simnet::{SimDuration, Simulation};

/// Runs E10 and prints the table.
pub fn run_degree() {
    let scale = AndrewScale::tiny();
    let limit = SimDuration::from_secs(600);

    // Direct baseline once.
    let mut sim0 = Simulation::new(9100);
    let (_s, c0) = build_direct_nfs(&mut sim0, 9100, AndrewDriver::new(scale));
    assert!(run_direct_to_completion::<AndrewDriver>(&mut sim0, c0, limit));
    let direct_ns: u64 = sim0
        .actor_as::<DirectActor<AndrewDriver>>(c0)
        .unwrap()
        .stats
        .completed_at_ns
        .last()
        .copied()
        .unwrap_or(0);

    let mut t = Table::new(
        "E10 (extension): Andrew (tiny) overhead vs replication degree",
        &["n", "f", "elapsed (s)", "overhead vs direct", "messages", "MiB on the wire"],
    );
    t.row(&[
        "1 (direct)".into(),
        "0".into(),
        secs(direct_ns),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    for n in [4usize, 7] {
        let mut sim = Simulation::new(9100 + n as u64);
        let bed = build_replicated_nfs(
            &mut sim,
            9100 + n as u64,
            n,
            FsMix::Heterogeneous,
            AndrewDriver::new(scale),
            |_| {},
        );
        assert!(run_relay_to_completion::<AndrewDriver>(&mut sim, bed.clients[0], limit));
        let stats = &sim.actor_as::<RelayActor<AndrewDriver>>(bed.clients[0]).unwrap().stats;
        assert_eq!(stats.errors, 0);
        let ns = stats.completed_at_ns.last().copied().unwrap_or(0);
        t.row(&[
            n.to_string(),
            bed.cfg.f().to_string(),
            secs(ns),
            pct((ns as f64 - direct_ns as f64) / direct_ns as f64),
            sim.stats().messages_delivered.to_string(),
            format!("{:.2}", sim.stats().bytes_delivered as f64 / (1024.0 * 1024.0)),
        ]);
    }
    t.print();
    println!(
        "\nshape: going from f = 1 to f = 2 grows the quadratic agreement traffic \
         (messages ≈ n²) but the client-visible overhead grows moderately — the protocol \
         stays off the data path's critical cost."
    );
}
