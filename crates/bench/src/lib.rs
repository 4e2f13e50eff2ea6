//! Experiment harness: workload generators, simulation builders, and table
//! formatting for every experiment in `DESIGN.md` §4 / `EXPERIMENTS.md`.
//!
//! The `all_tables` binary regenerates the tables, all or by name, and
//! prints the lab of deterministic counts ([`lab`]). Real (wall-clock) cost
//! is measured by the separate `benchmark/` workspace.

#![forbid(unsafe_code)]

pub mod andrew;
pub mod experiments;
pub mod lab;
pub mod report;
pub mod repro;
pub mod setup;

pub use andrew::{AndrewDriver, AndrewScale, PHASES};
pub use report::Table;
pub use setup::{
    build_direct_nfs, build_replicated_nfs, era_costs, lan_config, FsMix, NfsTestbed,
};
