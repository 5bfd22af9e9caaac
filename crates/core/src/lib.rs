//! # hix-core — Heterogeneous Isolated eXecution
//!
//! The paper's primary contribution, built on the simulated platform:
//!
//! * [`gpu_enclave`] — the **GPU enclave**: the Gdev driver relocated into
//!   an SGX enclave that exclusively owns the GPU (`EGCREATE`/`EGADD`),
//!   measures the GPU BIOS and the PCIe routing path, resets the device,
//!   and serves user enclaves (§4.2).
//! * [`channel`] — the untrusted inter-enclave transport: shared memory
//!   for encrypted payloads plus sequence-number doorbells, secured with
//!   OCB-AES and counter nonces (§4.4.1).
//! * [`attest`] — SGX local attestation between user and GPU enclaves and
//!   the three-party Diffie–Hellman that includes the GPU itself.
//! * [`protocol`] — the request/response vocabulary (the CUDA-driver-API
//!   shaped commands users send).
//! * [`runtime`] — the **trusted user runtime library**
//!   ([`HixSession`]): `hixMemAlloc`, `hixMemcpyHtoD/DtoH` (single-copy,
//!   pipelined, §4.4.2), `hixLaunchKernel`, `hixSync` — same shape as the
//!   CUDA driver API, as the paper promises.
//! * [`recovery`] — the trusted recovery primitives: the channel's
//!   anti-replay window, the runtime's retransmit backoff and the TDR
//!   watchdog's escalation ladder.
//! * [`multiuser`] — the multi-context scheduler model behind Figures 8
//!   and 9, scaled to 10,000 tenants by the weighted-fair queue in
//!   [`sched`] plus admission control and sealed-state parking.
//! * [`fabric`] — the N-GPU enclave fabric: one [`GpuEnclave`] shard per
//!   GPU over switched PCIe topologies (§5.6/§7: no sharing, no
//!   peer-to-peer), with load-aware placement, cross-shard migration of
//!   parked sessions, and shard-local TDR containment.
//!
//! ```no_run
//! use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
//! use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};
//! use hix_sim::Payload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = standard_rig(RigOptions::default());
//! let mut enclave = GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default())?;
//! let mut session = HixSession::connect(&mut machine, &mut enclave)?;
//! let buf = session.malloc(&mut machine, &mut enclave, 4096)?;
//! session.memcpy_htod(&mut machine, &mut enclave, buf, &Payload::zeroed(4096))?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod attest;
pub mod channel;
pub mod fabric;
pub mod gpu_enclave;
pub mod multiuser;
pub mod protocol;
pub mod recovery;
pub mod runtime;
pub mod sched;

pub use fabric::{Fabric, FabricOptions, FabricSessionId};
pub use gpu_enclave::{GpuEnclave, GpuEnclaveOptions, HixCoreError};
pub use runtime::{CmdId, CmdStatus, HixSession};
