//! # hix-sim — simulation substrate for the HIX reproduction
//!
//! This crate provides the *time plane* of the simulator: a shared virtual
//! [`Clock`], the calibrated [`cost::CostModel`] that converts
//! operations (PCIe transfers, enclave crypto, GPU kernel launches, …) into
//! virtual nanoseconds, an event [`trace::Trace`] for debugging and
//! accounting, and the [`payload::Payload`] abstraction that lets
//! the *data plane* run either functionally (real bytes) or synthetically
//! (size-only, for paper-scale benchmarks).
//!
//! Every component of the HIX platform (PCIe fabric, SGX model, GPU device,
//! enclave runtimes) holds a cheaply-clonable [`Clock`] handle and charges
//! time to it through the cost model. Figures in the paper are regenerated
//! by reading the virtual clock, never the wall clock.
//!
//! ```
//! use hix_sim::{Clock, cost::CostModel};
//!
//! let clock = Clock::new();
//! let model = CostModel::paper();
//! clock.advance(model.pcie_transfer(32 << 20)); // 32 MiB over PCIe
//! assert!(clock.now().as_nanos() > 0);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod fault;
pub mod payload;
pub mod pipeline;
pub mod stats;
pub mod time;
pub mod trace;

pub use cost::CostModel;
pub use pipeline::CryptoDmaPipeline;
pub use hix_obs::{Counter, Stage, COUNT_BOUNDS, LATENCY_BOUNDS_NS};
pub use fault::{Backoff, Dir, FaultConfig, FaultPlan, ReplayWindow, Resequencer, SeqCheck};
/// SplitMix64, the seed mixer behind the fault plans' generator, for
/// crates above the simulator that draw a seeded population from a raw
/// `u64` state (the multi-user model's fault burdens).
pub use hix_testkit::rng::splitmix64;
pub use payload::Payload;
pub use time::{Clock, Nanos};
pub use trace::{EventKind, Trace};
