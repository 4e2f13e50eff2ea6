//! Experiment harness: workload generators, simulation builders, and table
//! formatting for every experiment in `DESIGN.md` §4 / `EXPERIMENTS.md`.
//!
//! Each `src/bin/*_table.rs` binary regenerates one table; `all_tables`
//! runs everything. Criterion benches under `benches/` measure the real
//! (wall-clock) cost of the underlying primitives and of whole simulated
//! runs.

#![forbid(unsafe_code)]

pub mod andrew;
pub mod experiments;
pub mod report;
pub mod repro;
pub mod setup;

pub use andrew::{AndrewDriver, AndrewScale, PHASES};
pub use report::Table;
pub use setup::{
    build_direct_nfs, build_replicated_nfs, era_costs, lan_config, FsMix, NfsTestbed,
};
