//! Deterministic discrete-event network simulator.
//!
//! This crate is the substrate that replaces the BASE authors' LAN testbed
//! (see `DESIGN.md` §5). A [`Simulation`] owns a set of [`Actor`] nodes and
//! an event queue ordered by virtual time. Actors exchange opaque byte
//! messages; the simulator applies a configurable latency model and
//! per-node clock skew, per-node crash windows, and routes every message
//! through the network faults in force ([`NetFault`] windows: partitions,
//! loss, corruption, slow links, duplication).
//!
//! Three properties matter for the reproduction:
//!
//! 1. **Determinism** — all randomness (latency jitter, drops, actor RNGs)
//!    derives from a single seed, and ties in the event queue break on a
//!    monotone sequence number, so every run with the same seed produces an
//!    identical history. Experiments are reproducible and property tests
//!    can shrink.
//! 2. **Cost accounting** — actors charge simulated CPU time for expensive
//!    operations (crypto, state conversion); a node processes events
//!    serially, so charged time delays its subsequent work exactly like a
//!    busy server. Wire and CPU statistics feed the benchmark tables.
//! 3. **Fault injection** — crash windows, [`NetFault`] windows and
//!    per-actor Byzantine behaviour make the paper's "future work"
//!    fault-injection study (experiment E6) runnable.
//!
//! # Examples
//!
//! ```
//! use base_simnet::{Actor, Context, NodeId, SimDuration, Simulation};
//!
//! /// Echoes every message back to its sender.
//! struct Echo;
//! impl Actor for Echo {
//!     fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
//!         let reply: Vec<u8> = payload.iter().rev().copied().collect();
//!         ctx.send(from, reply);
//!     }
//! }
//!
//! /// Sends one request and remembers the reply.
//! #[derive(Default)]
//! struct Client { reply: Option<Vec<u8>> }
//! impl Actor for Client {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.send(NodeId(0), b"ping".to_vec());
//!     }
//!     fn on_message(&mut self, _from: NodeId, payload: &[u8], _ctx: &mut Context<'_>) {
//!         self.reply = Some(payload.to_vec());
//!     }
//! }
//!
//! let mut sim = Simulation::new(7);
//! let _echo = sim.add_node(Box::new(Echo));
//! let client = sim.add_node(Box::new(Client::default()));
//! sim.run_for(SimDuration::from_millis(10));
//! assert_eq!(sim.actor_as::<Client>(client).unwrap().reply.as_deref(), Some(&b"gnip"[..]));
//! ```
//!
//! A handler is a step function: [`Simulation`] is one driver of it, and a
//! caller can take one step itself, over a [`Context`] built from parts it
//! owns, and read back the [`Effect`]s the step asked for.
//!
//! ```
//! use base_simnet::{Actor, Context, Effect, NodeId, SimTime};
//! use rand::SeedableRng;
//! # struct Echo;
//! # impl Actor for Echo {
//! #     fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
//! #         let reply: Vec<u8> = payload.iter().rev().copied().collect();
//! #         ctx.send(from, reply);
//! #     }
//! # }
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let (mut next_timer_id, mut effects) = (0, Vec::new());
//! let mut ctx = Context::new(SimTime::ZERO, NodeId(0), &mut rng, &mut next_timer_id, &mut effects, None);
//! Echo.on_message(NodeId(1), b"ping", &mut ctx);
//! assert_eq!(effects, [Effect::Send { to: NodeId(1), payload: b"gnip".into() }]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod actor;
mod config;
mod event;
pub mod chaos;
pub mod ddmin;
pub mod faults;
pub mod metrics;
mod sim;
pub mod span;
mod stats;
mod time;
pub mod trace;
pub mod tracediff;

pub use actor::{Actor, Context, Effect, NodeId, Payload, TimerId};
pub use config::{LatencyModel, NetConfig};
pub use faults::NetFault;
pub use metrics::{Histogram, MetricsRegistry};
pub use sim::Simulation;
pub use span::{export_perfetto, render_spans, PhaseBreakdown, Timeline, PHASES};
pub use stats::{NetStats, PerNode};
pub use time::{SimDuration, SimTime};
pub use trace::{ProtocolEvent, TraceEvent};
