//! # hix-testkit — in-tree deterministic test & bench harness
//!
//! The reproduction's verify path must run hermetically: no network, no
//! crates.io registry, and bit-for-bit reproducible test inputs (the
//! paper's §4 security argument and §5 evaluation both rest on
//! deterministic enclave/PCIe/GPU interleavings). This crate replaces
//! the three external dev-dependencies the workspace used to carry:
//!
//! * [`rng`] — a seedable SplitMix64 / xoshiro256** PRNG (replaces
//!   `rand`) for workload input generation and test data,
//! * [`prop`] — a property-testing harness with tape-based generation,
//!   automatic shrinking, and a persistent seed corpus (replaces
//!   `proptest`),
//! * [`bench`](mod@bench) — a calibrating micro-benchmark runner with median/p95
//!   reporting (replaces `criterion`).
//!
//! Everything here is plain `std`; the workspace builds and tests with
//! `cargo --offline` on a machine that has never seen a registry.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod prop;
pub mod rng;

pub use rng::Rng;
