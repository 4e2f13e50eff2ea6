//! BASE — BFT state machine replication with Abstraction.
//!
//! Reproduction of *Castro, Rodrigues, Liskov: "Using Abstraction To
//! Improve Fault Tolerance"* (HotOS VIII, 2001; the library is called BFTA
//! in the HotOS text and BASE in the follow-up work).
//!
//! The BFT library (crate `base-pbft`) requires every replica to run the
//! same deterministic implementation. BASE removes that restriction with
//! three ideas from data abstraction:
//!
//! 1. A **common abstract specification**: the service state is an array
//!    of variable-sized abstract objects, and every operation is specified
//!    against that abstract state.
//! 2. A **conformance wrapper** per implementation (the [`Wrapper`] trait):
//!    a veneer that makes an off-the-shelf, possibly non-deterministic
//!    implementation behave per the common specification, keeping whatever
//!    *conformance rep* bookkeeping the translation needs.
//! 3. An **abstraction function** ([`Wrapper::get_obj`]) and one of its
//!    inverses ([`Wrapper::put_objs`]) that convert between concrete and
//!    abstract state, used for checkpointing, state transfer and repair.
//!
//! The [`BaseService`] in this crate implements the `base-pbft`
//! [`base_pbft::Service`] interface on top of any [`Wrapper`], providing:
//!
//! - copy-on-write **incremental checkpoints** of the abstract state
//!   (the [`ModifyLog`] realizes the paper's `modify` upcall);
//! - the hierarchical **partition tree** over abstract objects for
//!   efficient state transfer;
//! - **proactive recovery** where the concrete implementation is restarted
//!   from a clean initial state and brought up to date from the abstract
//!   state of the replica group — which can *hide corrupt concrete state*
//!   (memory leaks, broken internal structures);
//! - agreement on **non-deterministic values** (timestamps) proposed by
//!   the primary and validated by backups.
//!
//! Correspondence to the BFTA interface of the paper's Figure 1:
//!
//! | Paper                   | This crate                                 |
//! |-------------------------|--------------------------------------------|
//! | `invoke(req, rep, ro)`  | [`BaseClient::invoke`] / `ClientCore`      |
//! | `execute(...)` upcall   | [`Wrapper::execute`]                       |
//! | `modify(nobjs, objs)`   | [`ModifyLog::modify`]                      |
//! | `get_obj(i, obj)`       | [`Wrapper::get_obj`]                       |
//! | `put_objs(...)`         | [`Wrapper::put_objs`]                      |
//!
//! # Examples
//!
//! Replicating the demo key-value store, where every replica runs a
//! *non-deterministic* off-the-shelf implementation:
//!
//! ```
//! use base::demo::{KvWrapper, TinyKv};
//! use base::{BaseClient, BaseReplica, Config};
//! use base_simnet::{SimDuration, Simulation};
//!
//! let cfg = Config::new(4);
//! let mut sim = Simulation::new(1);
//! let dir = base_crypto::KeyDirectory::generate(5, 1);
//! for i in 0..4 {
//!     let keys = base_crypto::NodeKeys::new(dir.clone(), i);
//!     let service = base::BaseService::new(KvWrapper::new(TinyKv::default()));
//!     sim.add_node(Box::new(BaseReplica::new(cfg.clone(), keys, service)));
//! }
//! let keys = base_crypto::NodeKeys::new(dir, 4);
//! let client = sim.add_node(Box::new(BaseClient::new(cfg, keys)));
//!
//! sim.actor_as_mut::<BaseClient>(client).unwrap().invoke(b"put lang rust".to_vec(), false);
//! sim.actor_as_mut::<BaseClient>(client).unwrap().invoke(b"get lang".to_vec(), true);
//! sim.run_for(SimDuration::from_millis(300));
//! let done = &sim.actor_as::<BaseClient>(client).unwrap().completed;
//! assert_eq!(done[1].1, b"rust".to_vec());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod demo;
pub mod service;
pub mod shard;
pub mod shard_chaos;
pub mod wrapper;

pub use base_pbft::{ByzMode, Config, CostModel, PartitionTree};
pub use service::BaseService;
pub use shard::{build_sharded_group, ShardLockService, ShardMap, ShardedClient, ShardedGroup};
pub use shard_chaos::{ShardedChaosHarness, APP_XBUSY};
pub use wrapper::{Footprint, ModifyLog, Wrapper};

/// A BASE replica: the PBFT replica driving a [`BaseService`].
pub type BaseReplica<W> = base_pbft::Replica<BaseService<W>>;

/// A client of a BASE-replicated service: the `invoke` entry point of the
/// paper's Figure 1. The client side of the protocol does not depend on the
/// abstraction layer, so this is the PBFT client actor itself.
pub type BaseClient = base_pbft::ClientActor;
