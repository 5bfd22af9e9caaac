//! # hix-platform — CPU platform model: memory, MMU, SGX, and the HIX ISA
//!
//! This crate models the host platform the paper modifies:
//!
//! * [`mem`] — the physical address map (sparse DRAM, the EPC carve-out,
//!   the MMIO hole) and a frame allocator.
//! * [`mmu`] — per-process page tables (OS-controlled, hence attacker-
//!   controlled), a TLB, and the hardware page-table walker that performs
//!   SGX EPCM checks *and* the HIX GECS/TGMR checks on every TLB fill
//!   (§4.3.1's four comparisons).
//! * [`sgx`] — the SGX architectural model: EPC pages, EPCM, SECS,
//!   `ECREATE`/`EADD`/`EINIT` measurement, `EREPORT`/local attestation.
//! * [`hix`] — the paper's hardware extensions: the GECS and TGMR hidden
//!   structures and the `EGCREATE`/`EGADD` instructions (§4.2.1).
//! * [`iommu`] — DMA remapping table (OS-controlled) implementing
//!   [`hix_pcie::DmaBus`] with the SGX rule that devices can never DMA
//!   into the EPC.
//! * [`machine`] — the [`machine::Machine`] tying everything to
//!   the PCIe fabric, plus the privileged-software (adversary) surface.
//!
//! The trust boundary is expressed in code placement: anything a
//! privileged adversary can do is a public method (page-table writes,
//! IOMMU remaps, config-space writes, killing enclaves); everything HIX
//! guarantees is enforced inside the access paths, never by convention.

#![warn(missing_docs)]

pub mod hix;
pub mod iommu;
pub mod machine;
pub mod mem;
pub mod mmu;
pub mod sgx;

pub use machine::{Machine, MachineConfig, ProcessId};
pub use mem::{VirtAddr, PAGE_SIZE};
pub use mmu::AccessFault;
pub use sgx::{EnclaveId, Measurement, Report};
