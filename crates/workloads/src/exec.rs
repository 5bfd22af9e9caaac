//! The executor abstraction: one workload implementation runs unchanged
//! over the insecure Gdev baseline or a HIX session.
//!
//! This mirrors the paper's claim that the HIX trusted library exposes an
//! API "almost identical to the corresponding CUDA driver API" (§5.2) —
//! the workloads cannot tell which stack they are on.

use hix_core::{GpuEnclave, HixCoreError, HixSession};
use hix_driver::driver::DriverError;
use hix_driver::Gdev;
use hix_gpu::vram::DevAddr;
use hix_gpu::{GpuKernel, KernelError, KernelExec};
use hix_platform::Machine;
use hix_sim::{CostModel, Nanos, Payload};

use crate::Profile;

/// Executor-level failures.
#[derive(Debug)]
pub enum ExecError {
    /// Baseline driver failure.
    Gdev(DriverError),
    /// HIX stack failure.
    Hix(HixCoreError),
    /// GPU results did not match the CPU reference.
    Verify(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Gdev(e) => write!(f, "gdev: {e}"),
            ExecError::Hix(e) => write!(f, "hix: {e}"),
            ExecError::Verify(msg) => write!(f, "verification failed: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<DriverError> for ExecError {
    fn from(e: DriverError) -> Self {
        ExecError::Gdev(e)
    }
}

impl From<HixCoreError> for ExecError {
    fn from(e: HixCoreError) -> Self {
        ExecError::Hix(e)
    }
}

/// Counters a workload run reports (used by harness sanity checks and
/// the Table 4/5 reproductions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Bytes moved host→device.
    pub htod_bytes: u64,
    /// Bytes moved device→host.
    pub dtoh_bytes: u64,
    /// Kernel launches issued.
    pub launches: u64,
}

/// A uniform GPU execution interface (CUDA-driver-API shaped).
pub trait GpuExecutor {
    /// Loads a kernel module by name.
    ///
    /// # Errors
    ///
    /// Propagates stack failures.
    fn load_module(&mut self, machine: &mut Machine, name: &str) -> Result<(), ExecError>;

    /// Allocates device memory.
    ///
    /// # Errors
    ///
    /// Propagates stack failures.
    fn malloc(&mut self, machine: &mut Machine, len: u64) -> Result<DevAddr, ExecError>;

    /// Copies a payload host→device.
    ///
    /// # Errors
    ///
    /// Propagates stack failures.
    fn htod(
        &mut self,
        machine: &mut Machine,
        dst: DevAddr,
        payload: &Payload,
    ) -> Result<(), ExecError>;

    /// Copies `len` bytes device→host.
    ///
    /// # Errors
    ///
    /// Propagates stack failures.
    fn dtoh(&mut self, machine: &mut Machine, src: DevAddr, len: u64)
        -> Result<Payload, ExecError>;

    /// Launches a kernel and waits for completion.
    ///
    /// # Errors
    ///
    /// Propagates stack failures.
    fn launch(&mut self, machine: &mut Machine, name: &str, args: &[u64]) -> Result<(), ExecError>;

    /// Whether payloads flow as real bytes (verification possible).
    fn is_functional(&self) -> bool;
}

/// The insecure baseline executor.
#[derive(Debug)]
pub struct GdevExec<'a> {
    gdev: &'a mut Gdev,
}

impl<'a> GdevExec<'a> {
    /// Wraps an open Gdev runtime.
    pub fn new(gdev: &'a mut Gdev) -> Self {
        GdevExec { gdev }
    }
}

impl GpuExecutor for GdevExec<'_> {
    fn load_module(&mut self, machine: &mut Machine, name: &str) -> Result<(), ExecError> {
        Ok(self.gdev.load_module(machine, name)?)
    }

    fn malloc(&mut self, machine: &mut Machine, len: u64) -> Result<DevAddr, ExecError> {
        Ok(self.gdev.malloc(machine, len)?)
    }

    fn htod(
        &mut self,
        machine: &mut Machine,
        dst: DevAddr,
        payload: &Payload,
    ) -> Result<(), ExecError> {
        Ok(self.gdev.memcpy_htod(machine, dst, payload)?)
    }

    fn dtoh(
        &mut self,
        machine: &mut Machine,
        src: DevAddr,
        len: u64,
    ) -> Result<Payload, ExecError> {
        Ok(self.gdev.memcpy_dtoh(machine, src, len)?)
    }

    fn launch(&mut self, machine: &mut Machine, name: &str, args: &[u64]) -> Result<(), ExecError> {
        Ok(self.gdev.launch(machine, name, args)?)
    }

    fn is_functional(&self) -> bool {
        true // payload mode decides; Gdev passes bytes through
    }
}

/// The HIX executor: a user session plus the GPU enclave it talks to.
pub struct HixExec<'a> {
    session: &'a mut HixSession,
    enclave: &'a mut GpuEnclave,
}

impl std::fmt::Debug for HixExec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HixExec")
            .field("session", &self.session)
            .finish()
    }
}

impl<'a> HixExec<'a> {
    /// Wraps a connected session.
    pub fn new(session: &'a mut HixSession, enclave: &'a mut GpuEnclave) -> Self {
        HixExec { session, enclave }
    }
}

impl GpuExecutor for HixExec<'_> {
    fn load_module(&mut self, machine: &mut Machine, name: &str) -> Result<(), ExecError> {
        Ok(self.session.load_module(machine, self.enclave, name)?)
    }

    fn malloc(&mut self, machine: &mut Machine, len: u64) -> Result<DevAddr, ExecError> {
        Ok(self.session.malloc(machine, self.enclave, len)?)
    }

    fn htod(
        &mut self,
        machine: &mut Machine,
        dst: DevAddr,
        payload: &Payload,
    ) -> Result<(), ExecError> {
        Ok(self
            .session
            .memcpy_htod(machine, self.enclave, dst, payload)?)
    }

    fn dtoh(
        &mut self,
        machine: &mut Machine,
        src: DevAddr,
        len: u64,
    ) -> Result<Payload, ExecError> {
        Ok(self.session.memcpy_dtoh(machine, self.enclave, src, len)?)
    }

    fn launch(&mut self, machine: &mut Machine, name: &str, args: &[u64]) -> Result<(), ExecError> {
        Ok(self.session.launch(machine, self.enclave, name, args)?)
    }

    fn is_functional(&self) -> bool {
        true
    }
}

/// The synthetic "profile" kernel: charges an arbitrary modeled duration
/// and does no functional work. The figure harnesses use it to replay a
/// workload's compute profile at paper scale.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProfileKernel;

/// Name of [`ProfileKernel`].
pub const PROFILE_KERNEL: &str = "profile.cost";

impl GpuKernel for ProfileKernel {
    fn name(&self) -> &str {
        PROFILE_KERNEL
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        Nanos::from_nanos(args.first().copied().unwrap_or(0))
    }

    fn run(&self, _exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        Ok(())
    }
}

/// Replays a [`Profile`] over an executor with synthetic payloads: the
/// transfers move the exact Table 4/5 byte counts and the compute is
/// charged as `launches` kernels summing to `kernel_time`.
///
/// # Errors
///
/// Propagates executor failures.
pub fn run_profile(
    machine: &mut Machine,
    exec: &mut dyn GpuExecutor,
    profile: &Profile,
) -> Result<RunStats, ExecError> {
    exec.load_module(machine, PROFILE_KERNEL)?;
    let dev_in = exec.malloc(machine, profile.htod.max(1))?;
    let dev_out = exec.malloc(machine, profile.dtoh.max(1))?;
    exec.htod(machine, dev_in, &Payload::synthetic(profile.htod))?;
    let launches = profile.launches.max(1);
    let per_launch = profile.kernel_time / launches;
    let remainder = profile.kernel_time - per_launch * launches;
    for i in 0..launches {
        let mut ns = per_launch.as_nanos();
        if i == 0 {
            ns += remainder.as_nanos();
        }
        exec.launch(machine, PROFILE_KERNEL, &[ns])?;
    }
    let _ = exec.dtoh(machine, dev_out, profile.dtoh)?;
    Ok(RunStats {
        htod_bytes: profile.htod,
        dtoh_bytes: profile.dtoh,
        launches,
    })
}

// The workloads' device words are 4-byte little-endian, the layout
// `KernelExec`'s `read_*s`/`write_*s` use on the GPU side.

/// Encodes `f32`s as a payload of device words.
pub(crate) fn f32s_payload(v: &[f32]) -> Payload {
    let mut bytes = Vec::with_capacity(v.len() * 4);
    for x in v {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    Payload::from_bytes(bytes)
}

/// Encodes `i32`s as a payload of device words.
pub(crate) fn i32s_payload(v: &[i32]) -> Payload {
    let mut bytes = Vec::with_capacity(v.len() * 4);
    for x in v {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    Payload::from_bytes(bytes)
}

/// Decodes a payload of device words as `f32`s.
pub(crate) fn payload_f32s(p: &Payload) -> Vec<f32> {
    p.bytes()
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunks_exact(4) yields 4 bytes")))
        .collect()
}

/// Decodes a payload of device words as `i32`s.
pub(crate) fn payload_i32s(p: &Payload) -> Vec<i32> {
    p.bytes()
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().expect("chunks_exact(4) yields 4 bytes")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hix_core::GpuEnclaveOptions;
    use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};

    fn profile() -> Profile {
        Profile {
            abbrev: "X",
            htod: 1 << 20,
            dtoh: 1 << 19,
            launches: 7,
            kernel_time: Nanos::from_millis(3),
        }
    }

    fn rig() -> Machine {
        standard_rig(RigOptions {
            kernels: vec![Box::new(ProfileKernel)],
            gpu: hix_gpu::device::GpuConfig {
                synthetic: true,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    #[test]
    fn profile_replay_on_gdev() {
        let mut m = rig();
        let pid = m.create_process();
        let mut gdev = Gdev::open(&mut m, pid, GPU_BDF).unwrap();
        let t0 = m.clock().now();
        let stats = run_profile(&mut m, &mut GdevExec::new(&mut gdev), &profile()).unwrap();
        assert_eq!(stats.launches, 7);
        let elapsed = m.clock().now() - t0;
        // At least the compute + both transfers.
        let model = m.model();
        let floor = profile().kernel_time
            + model.pcie_transfer(profile().htod)
            + model.pcie_transfer(profile().dtoh);
        assert!(elapsed >= floor, "elapsed {elapsed} < floor {floor}");
    }

    #[test]
    fn profile_replay_on_hix_costs_more() {
        let mut m1 = rig();
        let pid = m1.create_process();
        let mut gdev = Gdev::open(&mut m1, pid, GPU_BDF).unwrap();
        let t0 = m1.clock().now();
        run_profile(&mut m1, &mut GdevExec::new(&mut gdev), &profile()).unwrap();
        let gdev_time = m1.clock().now() - t0;

        let mut m2 = rig();
        let mut enclave = GpuEnclave::launch(&mut m2, GpuEnclaveOptions::default()).unwrap();
        let mut session = HixSession::connect(&mut m2, &mut enclave).unwrap();
        let t0 = m2.clock().now();
        run_profile(
            &mut m2,
            &mut HixExec::new(&mut session, &mut enclave),
            &profile(),
        )
        .unwrap();
        let hix_time = m2.clock().now() - t0;
        assert!(
            hix_time > gdev_time,
            "hix {hix_time} must exceed gdev {gdev_time} for transfer-heavy profiles"
        );
    }
}
