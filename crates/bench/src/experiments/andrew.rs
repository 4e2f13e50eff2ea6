//! Experiment E1: the scaled Andrew benchmark — BASE-replicated NFS versus
//! the off-the-shelf implementation it wraps (paper §4: overhead ≈ 30%).

use crate::andrew::{AndrewDriver, AndrewScale, PHASES};
use crate::report::{pct, secs, Table};
use crate::setup::{
    build_direct_nfs, build_replicated_nfs, run_direct_to_completion, run_relay_to_completion,
    FsMix,
};
use base_nfs::relay::{DirectActor, RelayActor, RunStats};
use base_simnet::{SimDuration, Simulation};

/// Summary returned for the experiment record.
#[derive(Debug, Clone, Copy)]
pub struct AndrewResult {
    /// Total virtual time, unreplicated (ns).
    pub direct_ns: u64,
    /// Total virtual time, replicated (ns).
    pub replicated_ns: u64,
    /// Total overhead ratio.
    pub overhead: f64,
}

/// Runs E1 and prints the table.
pub fn run_andrew(scale: AndrewScale, mix: FsMix) -> AndrewResult {
    println!(
        "Andrew benchmark: {} dirs x {} files x {} KiB = {:.1} MiB, mix {:?}",
        scale.dirs,
        scale.files_per_dir,
        scale.file_kib,
        scale.total_bytes() as f64 / (1024.0 * 1024.0),
        mix,
    );
    let limit = SimDuration::from_secs(3600);

    // Replicated run (BASE, 4 replicas).
    let mut sim = Simulation::new(1001);
    let driver = AndrewDriver::new(scale);
    let probe = AndrewDriver::new(scale);
    let bed = build_replicated_nfs(&mut sim, 1001, mix, driver);
    assert!(
        run_relay_to_completion::<AndrewDriver>(&mut sim, bed.client, limit),
        "replicated run did not finish"
    );
    let rep_stats: RunStats =
        sim.actor_as::<RelayActor<AndrewDriver>>(bed.client).unwrap().stats.clone();
    assert_eq!(rep_stats.errors, 0, "replicated run had NFS errors");
    let rep_phases = probe.phase_times(&rep_stats.completed_at_ns);
    let r0 = bed.replicas[0].get(&sim).state_root();
    for (i, r) in bed.replicas.iter().enumerate() {
        assert_eq!(r.get(&sim).state_root(), r0, "replica {i} diverged");
    }
    let rep_msgs = sim.stats().messages_delivered;
    let rep_bytes = sim.stats().bytes_delivered;

    // Direct (unreplicated) run.
    let mut sim2 = Simulation::new(1001);
    let driver = AndrewDriver::new(scale);
    let (_server, client2) = build_direct_nfs(&mut sim2, 1001, driver);
    assert!(
        run_direct_to_completion::<AndrewDriver>(&mut sim2, client2, limit),
        "direct run did not finish"
    );
    let dir_stats: RunStats =
        sim2.actor_as::<DirectActor<AndrewDriver>>(client2).unwrap().stats.clone();
    assert_eq!(dir_stats.errors, 0, "direct run had NFS errors");
    let dir_phases = probe.phase_times(&dir_stats.completed_at_ns);

    let mut t = Table::new(
        "E1: Andrew benchmark, elapsed virtual time per phase (seconds)",
        &["phase", "NFS (direct)", "BASE-NFS (replicated)", "overhead"],
    );
    for (i, name) in PHASES.iter().enumerate() {
        let d = dir_phases[i];
        let r = rep_phases[i];
        let ovh = if d > 0 { (r as f64 - d as f64) / d as f64 } else { 0.0 };
        t.row(&[name.to_string(), secs(d), secs(r), pct(ovh)]);
    }
    let d_total: u64 = dir_phases.iter().sum();
    let r_total: u64 = rep_phases.iter().sum();
    let overhead = (r_total as f64 - d_total as f64) / d_total as f64;
    t.row(&["TOTAL".into(), secs(d_total), secs(r_total), pct(overhead)]);
    t.print();

    println!(
        "\nreplicated wire traffic: {} messages, {:.2} MiB; ops: {}",
        rep_msgs,
        rep_bytes as f64 / (1024.0 * 1024.0),
        rep_stats.ops,
    );
    println!("paper claim: ~30% total overhead for the scaled Andrew benchmark.");
    AndrewResult { direct_ns: d_total, replicated_ns: r_total, overhead }
}
