//! # hix-gpu — a functional model of a commodity discrete GPU
//!
//! Models the control surface the paper's GPU (an NVIDIA GTX 580 driven by
//! Gdev) exposes to software, at the level HIX's security argument needs:
//!
//! * **VRAM** ([`vram`]) — 1.5 GiB of device memory, sparsely stored.
//! * **Per-context GPU page tables** ([`ctx`]) — kernels address memory
//!   through device-virtual addresses; contexts are isolated address
//!   spaces (§4.5).
//! * **A command processor** ([`device`]) fed through an MMIO submission
//!   window in BAR0 ([`regs`]), with commands for DMA transfers, page
//!   mapping, memsets, kernel launches, context management, and the
//!   GPU-side Diffie–Hellman participation (§4.4.1) — [`cmd`].
//! * **A compute engine** ([`kernel`]) running registered [`GpuKernel`]s
//!   functionally, charging modeled GPU time; the built-in OCB-AES
//!   encrypt/decrypt kernels of §4.4.2 live in [`crypto_kernels`].
//! * **BAR1 aperture** — a movable MMIO window into VRAM for non-DMA data
//!   copies.
//! * **A GPU BIOS** exposed through the PCIe expansion ROM, measured by
//!   the GPU enclave at attestation time (§4.2.2).
//!
//! The device implements [`hix_pcie::PcieDevice`]; all software reaches it
//! through routed MMIO, which is exactly the chokepoint HIX protects.

#![warn(missing_docs)]

pub mod cmd;
pub mod crypto_kernels;
pub mod ctx;
pub mod device;
pub mod kernel;
pub mod regs;
pub mod vram;

pub use cmd::GpuCommand;
pub use device::{GpuConfig, GpuDevice};
pub use kernel::{GpuKernel, KernelError, KernelExec};
pub use vram::DevAddr;
