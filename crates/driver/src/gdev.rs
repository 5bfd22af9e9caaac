//! The unprotected Gdev baseline runtime (the paper's comparison point).
//!
//! A user process links this runtime, which maps the GPU MMIO through
//! ordinary OS page tables and drives the device directly — fast, but
//! with zero protection from privileged software. Every figure in §5
//! compares HIX against this path.

use hix_gpu::ctx::CtxId;
use hix_gpu::device::GpuDevice;
use hix_gpu::vram::DevAddr;
use hix_pcie::addr::Bdf;
use hix_platform::{Machine, ProcessId};
use hix_sim::cost::ExecMode;
use hix_sim::{EventKind, Nanos, Payload};

use crate::buffer::DmaBuffer;
use crate::driver::{os_map_bar0, os_map_bar1, DriverError, GpuDriver};

/// The insecure baseline runtime ("Gdev" in the figures).
#[derive(Debug)]
pub struct Gdev {
    driver: GpuDriver,
    ctx: CtxId,
    staging: Option<DmaBuffer>,
    synthetic: bool,
    pageable: bool,
}

impl Gdev {
    /// Opens the GPU for `pid`: charges the baseline per-task
    /// initialization (device/context setup through the OS driver path),
    /// maps the MMIO, attaches, and creates a context.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError`].
    pub fn open(machine: &mut Machine, pid: ProcessId, bdf: Bdf) -> Result<Self, DriverError> {
        let init = machine.model().task_init(ExecMode::Gdev);
        machine.charge(EventKind::Init, init, "gdev task init");
        let bar0_va = os_map_bar0(machine, pid, bdf, 16);
        let bar1_va = os_map_bar1(machine, pid, bdf, 16);
        let mut driver = GpuDriver::attach(machine, pid, bdf, bar0_va, Some(bar1_va))?;
        let synthetic = machine
            .device_mut(bdf)
            .and_then(|d| d.as_any_mut().downcast_mut::<GpuDevice>())
            .is_some_and(|gpu| gpu.is_synthetic());
        let ctx = driver.create_ctx(machine)?;
        Ok(Gdev {
            driver,
            ctx,
            staging: None,
            synthetic,
            pageable: false,
        })
    }

    /// Switches transfers to the pageable-copy path (the classic
    /// `cudaMemcpy` behavior of naive applications; Rodinia on Gdev uses
    /// the faster direct I/O, which is the default here).
    pub fn set_pageable(&mut self, pageable: bool) {
        self.pageable = pageable;
    }

    /// The GPU context id.
    pub fn ctx(&self) -> CtxId {
        self.ctx
    }

    /// Access to the underlying driver (diagnostics).
    pub fn driver(&self) -> &GpuDriver {
        &self.driver
    }

    /// Loads a kernel module by name.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError`].
    pub fn load_module(&mut self, machine: &mut Machine, name: &str) -> Result<(), DriverError> {
        self.driver.load_module(machine, name)
    }

    /// Allocates device memory.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError`].
    pub fn malloc(&mut self, machine: &mut Machine, len: u64) -> Result<DevAddr, DriverError> {
        self.driver.malloc(machine, self.ctx, len)
    }

    /// Frees device memory (no scrubbing — the insecure baseline).
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError`].
    pub fn free(&mut self, machine: &mut Machine, va: DevAddr) -> Result<(), DriverError> {
        self.driver.free(machine, self.ctx, va, false)
    }

    /// The pageable path's staged copies: what the DMA since `start`
    /// left of the `len`-byte pageable transfer's pipelined time.
    fn charge_pageable_staging(&self, machine: &Machine, start: Nanos, len: u64) {
        if self.pageable {
            let until = start + machine.model().pageable_transfer(len);
            machine.trace().charge_until(
                machine.clock(),
                until,
                EventKind::Dma,
                "pageable staging",
            );
        }
    }

    fn staging(&mut self, machine: &mut Machine, len: u64) -> &DmaBuffer {
        let need_new = self.staging.as_ref().is_none_or(|b| b.len() < len);
        if need_new {
            if let Some(old) = self.staging.take() {
                old.release(machine);
            }
            self.staging = Some(DmaBuffer::alloc(machine, self.driver.pid(), len));
        }
        self.staging.as_ref().expect("just ensured")
    }

    /// `cuMemcpyHtoD`: plaintext copy through a pinned staging buffer and
    /// the DMA engine.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError`].
    pub fn memcpy_htod(
        &mut self,
        machine: &mut Machine,
        dst: DevAddr,
        payload: &Payload,
    ) -> Result<(), DriverError> {
        let len = payload.len();
        if len == 0 {
            return Ok(());
        }
        // Gdev's direct-I/O design DMAs straight from the (pinned,
        // reused) staging buffer; no extra host copy is charged. The
        // pageable path instead pays the staged-copy pipeline.
        machine.in_span("session", "memcpy_htod", &[("bytes", len)], |machine| {
            let start = machine.clock().now();
            let pid = self.driver.pid();
            let staging = self.staging(machine, len).clone();
            staging.write(machine, pid, 0, payload)?;
            self.driver
                .dma_htod(machine, self.ctx, dst, &staging, 0, len)?;
            self.driver.sync(machine)?;
            self.charge_pageable_staging(machine, start, len);
            Ok(())
        })
    }

    /// `cuMemcpyDtoH`: plaintext copy back to the host.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError`].
    pub fn memcpy_dtoh(
        &mut self,
        machine: &mut Machine,
        src: DevAddr,
        len: u64,
    ) -> Result<Payload, DriverError> {
        if len == 0 {
            return Ok(Payload::from_bytes(Vec::new()));
        }
        let staging = machine.in_span("session", "memcpy_dtoh", &[("bytes", len)], |machine| {
            let start = machine.clock().now();
            let staging = self.staging(machine, len).clone();
            self.driver
                .dma_dtoh(machine, self.ctx, src, &staging, 0, len)?;
            self.driver.sync(machine)?;
            self.charge_pageable_staging(machine, start, len);
            Ok::<_, DriverError>(staging)
        })?;
        if self.synthetic {
            return Ok(Payload::synthetic(len));
        }
        Ok(Payload::from_bytes(staging.read(
            machine,
            self.driver.pid(),
            0,
            len,
        )?))
    }

    /// `cuMemsetD8`: fills device memory.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError`].
    pub fn memset(
        &mut self,
        machine: &mut Machine,
        va: DevAddr,
        len: u64,
        value: u8,
    ) -> Result<(), DriverError> {
        self.driver.memset(machine, self.ctx, va, len, value)?;
        self.driver.sync(machine)
    }

    /// `cuMemcpyDtoD`: device-to-device copy.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError`].
    pub fn memcpy_dtod(
        &mut self,
        machine: &mut Machine,
        src: DevAddr,
        dst: DevAddr,
        len: u64,
    ) -> Result<(), DriverError> {
        self.driver.copy_dtod(machine, self.ctx, src, dst, len)?;
        self.driver.sync(machine)
    }

    /// Launches a kernel and synchronizes.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError`].
    pub fn launch(
        &mut self,
        machine: &mut Machine,
        name: &str,
        args: &[u64],
    ) -> Result<(), DriverError> {
        self.driver.launch(machine, self.ctx, name, args)?;
        self.driver.sync(machine)
    }

    /// Waits for all queued work.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError`].
    pub fn sync(&mut self, machine: &mut Machine) -> Result<(), DriverError> {
        self.driver.sync(machine)
    }

    /// Tears down the context and releases host buffers.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError`].
    pub fn close(mut self, machine: &mut Machine) -> Result<(), DriverError> {
        if let Some(staging) = self.staging.take() {
            staging.release(machine);
        }
        self.driver.destroy_ctx(machine, self.ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{standard_rig, RigOptions, GPU_BDF};
    use hix_gpu::kernel::{GpuKernel, KernelError, KernelExec};
    use hix_sim::{CostModel, Nanos};

    /// A toy kernel: adds 1 to `n` i32s at `ptr`.
    struct Inc;

    impl GpuKernel for Inc {
        fn name(&self) -> &str {
            "test.inc"
        }
        fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
            Nanos::from_nanos(args.get(1).copied().unwrap_or(0))
        }
        fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
            let ptr = DevAddr(exec.arg(0)?);
            let n = exec.arg(1)? as usize;
            let mut v = exec.read_i32s(ptr, n)?;
            for x in &mut v {
                *x += 1;
            }
            exec.write_i32s(ptr, &v)
        }
    }

    #[test]
    fn end_to_end_compute() {
        let mut m = standard_rig(RigOptions {
            kernels: vec![Box::new(Inc)],
            ..Default::default()
        });
        let pid = m.create_process();
        let mut gdev = Gdev::open(&mut m, pid, GPU_BDF).unwrap();
        gdev.load_module(&mut m, "test.inc").unwrap();
        let dev = gdev.malloc(&mut m, 4 * 100).unwrap();
        let input: Vec<u8> = (0..100i32).flat_map(|i| i.to_le_bytes()).collect();
        gdev.memcpy_htod(&mut m, dev, &Payload::from_bytes(input))
            .unwrap();
        gdev.launch(&mut m, "test.inc", &[dev.value(), 100])
            .unwrap();
        let out = gdev.memcpy_dtoh(&mut m, dev, 400).unwrap();
        let vals: Vec<i32> = out
            .bytes()
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, (1..=100).collect::<Vec<i32>>());
        gdev.close(&mut m).unwrap();
    }

    #[test]
    fn open_charges_task_init() {
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let before = m.clock().now();
        let _gdev = Gdev::open(&mut m, pid, GPU_BDF).unwrap();
        assert!(m.clock().now() - before >= m.model().task_init_gdev);
    }

    #[test]
    fn staging_buffer_reused_and_released() {
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let mut gdev = Gdev::open(&mut m, pid, GPU_BDF).unwrap();
        let dev = gdev.malloc(&mut m, 8192).unwrap();
        for _ in 0..3 {
            gdev.memcpy_htod(&mut m, dev, &Payload::from_bytes(vec![1u8; 8192]))
                .unwrap();
        }
        gdev.close(&mut m).unwrap();
    }

    #[test]
    fn pageable_mode_charges_the_staged_copy_pipeline() {
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let mut fast = Gdev::open(&mut m, pid, GPU_BDF).unwrap();
        let dev = fast.malloc(&mut m, 8 << 20).unwrap();
        let t0 = m.clock().now();
        fast.memcpy_htod(&mut m, dev, &Payload::from_bytes(vec![1; 8 << 20]))
            .unwrap();
        let direct = m.clock().now() - t0;
        fast.set_pageable(true);
        let t0 = m.clock().now();
        fast.memcpy_htod(&mut m, dev, &Payload::from_bytes(vec![1; 8 << 20]))
            .unwrap();
        let pageable = m.clock().now() - t0;
        assert!(
            pageable > direct,
            "pageable ({pageable}) must cost more than direct I/O ({direct})"
        );
        assert_eq!(pageable, m.model().pageable_transfer(8 << 20));
    }

    #[test]
    fn memset_and_dtod_on_the_baseline() {
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let mut gdev = Gdev::open(&mut m, pid, GPU_BDF).unwrap();
        let a = gdev.malloc(&mut m, 4096).unwrap();
        let b = gdev.malloc(&mut m, 4096).unwrap();
        gdev.memset(&mut m, a, 4096, 0x31).unwrap();
        gdev.memcpy_dtod(&mut m, a, b, 4096).unwrap();
        let out = gdev.memcpy_dtoh(&mut m, b, 4096).unwrap();
        assert!(out.bytes().iter().all(|&x| x == 0x31));
    }

    #[test]
    fn synthetic_payloads_flow_through() {
        let mut m = standard_rig(RigOptions {
            gpu: hix_gpu::device::GpuConfig {
                synthetic: true,
                ..Default::default()
            },
            ..Default::default()
        });
        let pid = m.create_process();
        let mut gdev = Gdev::open(&mut m, pid, GPU_BDF).unwrap();
        let dev = gdev.malloc(&mut m, 32 << 20).unwrap();
        gdev.memcpy_htod(&mut m, dev, &Payload::synthetic(32 << 20))
            .unwrap();
        let out = gdev.memcpy_dtoh(&mut m, dev, 16 << 20).unwrap();
        assert!(out.is_synthetic());
        assert_eq!(out.len(), 16 << 20);
    }
}
