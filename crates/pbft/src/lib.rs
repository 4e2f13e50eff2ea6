//! Practical Byzantine Fault Tolerance (Castro & Liskov, OSDI '99).
//!
//! This crate is the replication substrate that the BASE library (crate
//! `base`) extends, and simultaneously the *baseline* the paper compares
//! against: classic BFT state machine replication that requires all
//! replicas to run the same deterministic implementation.
//!
//! Implemented protocol features:
//!
//! - three-phase normal case (pre-prepare / prepare / commit) with request
//!   batching and watermark windows;
//! - MAC [`base_crypto::Authenticator`]s alone on normal-case messages,
//!   signatures on the view-change, new-view and checkpoint messages whose
//!   certificates must be transferable;
//! - periodic checkpoints every `k`-th sequence number, checkpoint
//!   certificates (2f+1 signed checkpoint messages), and log garbage
//!   collection at the stable checkpoint;
//! - two-step view changes (a suspicion, then a firm vote at 2f+1 votes)
//!   whose VIEW-CHANGEs carry TOCS 2002's P and Q sets, and deterministic
//!   recomputation of the new-view pre-prepare set by its decision
//!   procedure;
//! - hierarchical (Merkle partition tree) state transfer that fetches only
//!   out-of-date partitions and objects, verified against a checkpoint
//!   certificate;
//! - agreement on non-deterministic values chosen by the primary and
//!   validated by the backups (used for NFS timestamps);
//! - the read-only optimization (2f+1 matching immediate replies);
//! - proactive recovery scaffolding: watchdog-triggered staggered reboots
//!   with session-key refresh and state repair (the BASE crate supplies the
//!   abstraction-aware recovery on top);
//! - canned Byzantine replica behaviours for fault-injection experiments.
//!
//! A [`Replica`] is a router over six parts — agreement, execution,
//! checkpoints, state transfer, view change and recovery — each a plain
//! struct whose state no other part can read (`replica/`, DESIGN.md §3.1).
//! [`ReplicaControl::status`] prints where a replica stands, part by part,
//! as one deterministic JSON line.
//!
//! A [`Deployment`] lays a group out on the simulator and mints its keys:
//! replicas occupy nodes `0..n`, clients nodes `>= n` (the layout rule is
//! in `deploy.rs`). All messages are XDR-encoded [`messages::Message`]
//! values.
//!
//! # Examples
//!
//! ```
//! use base_pbft::testing::CounterService;
//! use base_pbft::{ClientActor, Config, Deployment};
//! use base_simnet::{SimDuration, Simulation};
//!
//! let mut sim = Simulation::new(1);
//! let group = Deployment::build(&mut sim, Config::new(4), 1, 1, |_| CounterService::default());
//! let client = group.clients[0];
//!
//! sim.actor_as_mut::<ClientActor>(client).unwrap().invoke(b"add 0 5".to_vec(), false);
//! sim.run_for(SimDuration::from_millis(200));
//! let done = &sim.actor_as::<ClientActor>(client).unwrap().completed;
//! assert_eq!(done[0].1, b"5".to_vec());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod byzantine;
pub mod chaos;
pub mod client;
pub mod config;
pub mod control;
pub mod cost;
pub mod deploy;
pub mod log;
pub mod messages;
pub mod replica;
pub mod service;
pub mod testing;
pub mod transfer;
pub mod tree;

pub use byzantine::ByzMode;
pub use client::{ClientActor, ClientCore, ClientEvent};
pub use config::Config;
pub use control::{ReplicaControl, ReplicaRef};
pub use cost::CostModel;
pub use deploy::Deployment;
pub use messages::Message;
pub use replica::{Replica, ReplicaStats};
pub use service::{ExecEnv, Service};
pub use tree::{PartitionTree, TreeUpdateStats};
