//! Experiment harness: workload generators, simulation builders, and table
//! formatting for every experiment in `DESIGN.md` §4 / `EXPERIMENTS.md`.
//!
//! The `all_tables` binary regenerates the tables, all or by name, and
//! prints the lab of deterministic counts ([`lab`]); its `campaign` and
//! `diff` subcommands run the repro lab, whose artifacts
//! `base_simnet::chaos::CampaignReport::write_artifacts` writes. Real
//! (wall-clock) cost is measured by the separate `benchmark/` workspace.

#![forbid(unsafe_code)]

pub mod andrew;
pub mod experiments;
pub mod lab;
pub mod report;
pub mod setup;

pub use andrew::AndrewScale;
pub use setup::FsMix;
