//! One module per experiment; each `run_*` prints its table, whose numbers
//! `EXPERIMENTS.md` records. The `all_tables` binary dispatches to them by
//! name.

pub mod andrew;
pub mod checkpoint;
pub mod codesize;
pub mod degree;
pub mod faultinj;
pub mod oodb;
pub mod recovery;
pub mod roopt;
pub mod shards;
pub mod throughput;
pub mod transfer;

pub use andrew::run_andrew;
pub use checkpoint::run_checkpoint;
pub use codesize::run_codesize;
pub use degree::run_degree;
pub use faultinj::run_faultinj;
pub use oodb::run_oodb;
pub use recovery::run_recovery;
pub use roopt::run_roopt;
pub use shards::run_shards;
pub use throughput::run_throughput;
pub use transfer::run_transfer;
