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
//! enclave runtimes) holds cheaply-clonable [`Clock`] and [`Trace`]
//! handles and spends the cost model's durations through
//! [`Trace::charge`], which advances the clock and records a charged span
//! in one call; a closed-form completion time (a pipelined transfer's
//! floor) is charged as its remainder through [`Trace::charge_until`].
//! Nothing else moves the clock, so the charged spans tile it: every
//! virtual nanosecond lies in exactly one of them. Figures in the paper
//! are regenerated by reading the virtual clock, never the wall clock.
//!
//! ```
//! use hix_sim::{cost::CostModel, Clock, EventKind, Trace};
//!
//! let (clock, trace) = (Clock::new(), Trace::new());
//! let dt = CostModel::paper().pcie_transfer(32 << 20); // 32 MiB over PCIe
//! trace.charge(&clock, dt, EventKind::Dma, "HtoD");
//! assert_eq!(trace.total(EventKind::Dma), clock.now());
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod fault;
pub mod payload;
pub mod stats;
pub mod time;
pub mod trace;

pub use cost::CostModel;
pub use fault::{Dir, FaultConfig, FaultPlan, Resequencer};
pub use hix_obs::{Counter, COUNT_BOUNDS, LATENCY_BOUNDS_NS};
/// SplitMix64, the seed mixer behind the fault plans' generator, for
/// crates above the simulator that draw a seeded population from a raw
/// `u64` state (the multi-user model's fault burdens).
pub use hix_testkit::rng::splitmix64;
pub use payload::Payload;
pub use time::{Clock, Nanos};
pub use trace::{EventKind, Trace};
