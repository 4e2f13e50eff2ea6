//! Experiment E6: fault injection — the study the paper lists as future
//! work ("it would also be important to run fault injection experiments to
//! evaluate the availability improvements afforded by our technique").
//!
//! Rebuilt on the chaos-campaign engine: each table cell runs a campaign of
//! seeded runs whose generated schedules compose crash windows, healing
//! partitions, Byzantine-mode flips and latent state corruption (healed by
//! proactive recovery), and every run is audited from the client's view —
//! the workload must finish and every read must return exactly what was
//! written. Failing schedules are shrunk to a minimal reproduction.
//!
//! The deciding scenario remains the *deterministic software bug*: an
//! input-triggered error that corrupts the concrete state of every replica
//! running the affected implementation. With a homogeneous group the bug is
//! common-mode (the campaign fails and the minimal schedule is *empty* —
//! no injected fault is needed); with one implementation per replica it
//! hits a single replica and is masked.

use crate::report::Table;
use crate::setup::{arm_inode_latent_bug, build_replicated_nfs_with, set_relay_pace, FsMix};
use base_nfs::ops::NfsOp;
use base_nfs::relay::{RelayActor, ScriptDriver};
use base_nfs::spec::Oid;
use base_pbft::chaos::{campaign_config, campaign_gen_config, Group, CAMPAIGN_BOUNDS};
use base_pbft::Config;
use base_simnet::chaos::{
    run_campaign, CampaignMode, ChaosHarness, LivenessBounds, ScheduleGenConfig,
};
use base_simnet::{NodeId, SimDuration, Simulation};

const FILES: u32 = 8;

fn payload(i: u32, with_trigger: bool) -> Vec<u8> {
    if i == 0 && with_trigger {
        let mut p = base_nfs::inode_fs::LATENT_BUG_TRIGGER.to_vec();
        p.extend_from_slice(b" payload-0");
        p
    } else {
        format!("payload-{i}").into_bytes()
    }
}

fn script(with_trigger: bool) -> Vec<NfsOp> {
    let root = Oid::ROOT;
    let mut s = Vec::new();
    for i in 0..FILES {
        s.push(NfsOp::Create { dir: root, name: format!("f{i}"), mode: 0o644 });
        s.push(NfsOp::Write {
            fh: Oid { index: 1 + i, gen: 1 },
            offset: 0,
            data: payload(i, with_trigger),
        });
    }
    for i in 0..FILES {
        s.push(NfsOp::Read { fh: Oid { index: 1 + i, gen: 1 }, offset: 0, count: 64 });
    }
    s
}

/// Campaign harness for the replicated NFS testbed: a paced create/write/
/// read-back workload audited from the client's view, over a [`Group`] whose
/// replicas may each run a different file system.
pub struct NfsChaosHarness {
    /// Which implementations the replicas run.
    pub mix: FsMix,
    /// Arms the input-triggered latent bug in every `InodeFs` replica and
    /// includes the triggering payload in the workload.
    pub with_latent_bug: bool,
    /// Gap between relay submissions.
    pub pace: SimDuration,
    /// The group configuration a run is built with, seeded by
    /// [`campaign_config`] for four replicas.
    pub cfg: Config,
    // Per-run state, reset by `build`.
    client: NodeId,
    group: Group,
}

impl NfsChaosHarness {
    /// Creates a harness for `mix`.
    pub fn new(mix: FsMix) -> Self {
        Self {
            mix,
            with_latent_bug: false,
            pace: SimDuration::from_millis(300),
            cfg: campaign_config(4),
            client: NodeId(0),
            group: Group::default(),
        }
    }

    /// The schedule-generation config matching this harness.
    pub fn gen_config(&self, events: usize, horizon: SimDuration) -> ScheduleGenConfig {
        campaign_gen_config(self.cfg.n, self.cfg.f(), events, horizon)
    }
}

impl ChaosHarness for NfsChaosHarness {
    fn build(&mut self, seed: u64) -> Simulation {
        let mut sim = Simulation::new(seed);
        let bed = build_replicated_nfs_with(
            &mut sim,
            seed,
            self.cfg.n,
            self.mix,
            ScriptDriver::new(script(self.with_latent_bug)),
            |cfg| *cfg = self.cfg.clone(),
        );
        set_relay_pace::<ScriptDriver>(&mut sim, bed.client, self.pace);
        self.group = Group::new(&mut sim, bed.replicas.clone());
        if self.with_latent_bug {
            // An armed replica corrupts the triggering write by itself: it
            // is faulty from the start, whatever the schedule does.
            for node in arm_inode_latent_bug(&mut sim, &bed) {
                self.group.taint(node);
            }
        }
        self.client = bed.client;
        sim
    }

    fn apply_app(
        &mut self,
        sim: &mut Simulation,
        node: NodeId,
        tag: u32,
        arg: u64,
        trace: &mut Vec<String>,
    ) {
        if !self.group.apply_fault(sim, node, tag, arg, trace) {
            trace.push(format!("app fault tag {tag} at node {} ignored", node.0));
        }
    }

    fn settle(&self) -> SimDuration {
        SimDuration::from_secs(30)
    }

    fn liveness_bounds(&self) -> LivenessBounds {
        CAMPAIGN_BOUNDS
    }

    fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
        let relay = sim
            .actor_as::<RelayActor<ScriptDriver>>(self.client)
            .ok_or_else(|| "relay actor missing".to_string())?;
        if !relay.done() {
            return Err(format!(
                "liveness: workload stalled after {} of {} ops",
                relay.stats.ops,
                script(self.with_latent_bug).len()
            ));
        }
        let replies = &relay.driver().replies;
        let writes = 2 * FILES as usize;
        for (i, r) in replies.iter().take(writes).enumerate() {
            if !r.is_ok() {
                return Err(format!("write phase: op {i} failed with {r:?}"));
            }
        }
        for (i, r) in replies.iter().skip(writes).enumerate() {
            let expected = payload(i as u32, self.with_latent_bug);
            match r {
                base_nfs::NfsReply::Data(d) if *d == expected => {}
                other => {
                    return Err(format!(
                        "read-back: file f{i} returned {other:?}, expected the written \
                         payload — the client accepted corrupt data"
                    ));
                }
            }
        }
        let all = self.group.members(sim);
        self.group.audit_view_agreement(&all)?;
        self.group.audit_stable_digests(&all)?;
        self.group.audit_retained_checkpoints(&all)?;
        trace.push("audit ok: workload finished, all reads match writes, replicas agree".into());
        Ok(())
    }
}

/// Runs E6 and prints the table.
pub fn run_faultinj() {
    let mut t = Table::new(
        "E6: fault injection — chaos campaigns over the replicated NFS service",
        &["mix", "latent bug", "runs", "events", "vc", "st", "rec", "failed runs", "verdict"],
    );
    let cells = [
        (FsMix::Heterogeneous, false, "4 distinct impls"),
        (FsMix::HomogeneousInode, false, "4 x inode-fs"),
        (FsMix::Heterogeneous, true, "4 distinct impls"),
        (FsMix::HomogeneousInode, true, "4 x inode-fs"),
    ];
    let mut bug_failure = None;
    let mut total_coverage = base_simnet::chaos::Coverage::default();
    for (mix, bug, mixname) in cells {
        let harness = || {
            let mut h = NfsChaosHarness::new(mix);
            h.with_latent_bug = bug;
            h
        };
        let cfg = harness().gen_config(5, SimDuration::from_secs(6));
        let report = run_campaign(harness, CampaignMode::Mixed, &cfg, 6200..6206, 1);
        total_coverage.merge(&report.coverage);
        let verdict = if report.passed() {
            "masked".to_string()
        } else {
            let min = report.failures.iter().map(|f| f.minimal.len()).min().unwrap_or(0);
            format!("FAILS (min repro: {min} events)")
        };
        t.row(&[
            mixname.to_string(),
            if bug { "armed".into() } else { "-".into() },
            report.runs.to_string(),
            report.events_executed.to_string(),
            format!("{}/{}", report.coverage.view_changes_started, report.coverage.view_changes_completed),
            report.coverage.state_transfers_completed.to_string(),
            report.coverage.recoveries_completed.to_string(),
            report.failures.len().to_string(),
            verdict,
        ]);
        if !report.passed() {
            if bug {
                if bug_failure.is_none() {
                    bug_failure = report.failures.into_iter().next();
                }
            } else {
                // A fault-free-service campaign must be masked; surface the
                // reproduction rather than hiding it in a table cell.
                println!("unexpected campaign failure:\n{}", report.failures[0]);
            }
        }
    }
    t.print();
    println!("\ncoverage (all cells): {total_coverage}");
    if let Some(f) = bug_failure {
        println!("\ndeterministic-bug reproduction (homogeneous mix):\n{f}");
    }
    println!(
        "\nshape: injected crash/partition/Byzantine/corruption faults within the f = 1 \
         budget are masked in both mixes. The deterministic implementation bug is the \
         discriminator: homogeneous replicas all corrupt the triggering write — the \
         campaign fails and minimization strips every injected fault (the minimal \
         schedule is empty: the bug is common-mode) — while the heterogeneous group \
         masks it (opportunistic N-version programming, paper §1)."
    );
}
