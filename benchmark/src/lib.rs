//! The repo benchmark: wall-clock cost per client operation through the
//! BASE stack, end to end and layer by layer. See `README.md`.
//!
//! The library is driven unchanged. Load comes from one process and one
//! driving thread; the only other threads are the library's own digest
//! workers.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
