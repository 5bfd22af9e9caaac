//! The calibrated cost model.
//!
//! All virtual-time charges in the simulator flow through a [`CostModel`].
//! [`CostModel::paper`] is calibrated to the evaluation platform of the HIX
//! paper (Table 3: Intel Core i7-6700 + NVIDIA GTX 580 on PCIe gen2 x16,
//! SGX SDK 2.0 with SGX-SSL OCB-AES-128, Gdev as the GPU driver).
//!
//! ## Calibration notes
//!
//! The paper reports *relative* numbers (HIX vs. unprotected Gdev). Those
//! ratios are fixed by a small set of platform rates, which we fit so the
//! published shapes hold (see `EXPERIMENTS.md` for the derivation):
//!
//! * `pcie_bw` = 6 GB/s — practical PCIe gen2 x16 DMA bandwidth.
//! * `enclave_crypto_bw` = 1.9 GB/s — OCB-AES-128 inside an SGX enclave on a
//!   Skylake i7 (AES-NI, minus EPC and SSL overheads). This is the dominant
//!   HIX cost: with `enclave_crypto_bw < pcie_bw`, the pipelined
//!   encrypt+DMA path is crypto-bound, matching §5.3.1's analysis.
//! * `gpu_crypto_bw` = 11 GB/s — table-based OCB-AES as a GTX 580 kernel.
//! * `task_init_gdev` (24 ms) vs `task_init_hix` (5 ms) — Gdev initializes
//!   the device context through the OS driver path per task, while the HIX
//!   GPU enclave keeps the GPU initialized and only sets up a session; the
//!   paper observes HIX is *faster* for short apps (HS, LUD, NN) for this
//!   reason.

use crate::time::Nanos;

/// Whether an operation runs on the unprotected Gdev baseline or under HIX.
///
/// Several costs differ between the two software paths (task init, per
/// request IPC); the hardware costs (PCIe, GPU) are identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Unprotected baseline: OS-resident driver, plaintext transfers.
    Gdev,
    /// HIX: GPU enclave, encrypted transfers, inter-enclave IPC.
    Hix,
}

/// Calibrated platform rates and latencies.
///
/// Construct with [`CostModel::paper`] for the paper's platform, or build a
/// custom model for ablations with [`CostModel::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// PCIe DMA bandwidth, bytes/second (host <-> GPU bulk path).
    pub pcie_bw: u64,
    /// Fixed DMA setup latency per transfer (descriptor write + doorbell).
    pub dma_setup: Nanos,
    /// OCB-AES-128 throughput inside an SGX enclave, bytes/second.
    pub enclave_crypto_bw: u64,
    /// OCB-AES-128 throughput of the in-GPU crypto kernel, bytes/second.
    pub gpu_crypto_bw: u64,
    /// Host memcpy bandwidth (user enclave <-> shared memory), bytes/second.
    pub host_memcpy_bw: u64,
    /// End-to-end throughput of a *pageable* host<->device copy (staging
    /// copies interleaved with DMA — the classic `cudaMemcpy` path naive
    /// applications use; Gdev's direct I/O avoids it).
    pub pageable_bw: u64,
    /// Latency of one MMIO register write reaching the device.
    pub mmio_write: Nanos,
    /// Latency of one MMIO register read (posted round trip).
    pub mmio_read: Nanos,
    /// Hardware-side cost of launching one GPU kernel (command submit,
    /// dispatch, completion fence).
    pub kernel_launch: Nanos,
    /// One inter-enclave request/reply on the shared-memory message queue
    /// (polling mode, no syscall).
    pub ipc_roundtrip: Nanos,
    /// Per-task initialization on the Gdev baseline (device open, context
    /// and channel setup through the OS driver).
    pub task_init_gdev: Nanos,
    /// Per-task initialization under HIX (session setup with the resident
    /// GPU enclave: attestation + DH key agreement + context create).
    pub task_init_hix: Nanos,
    /// GPU context switch (register save/restore + page directory swap).
    pub ctx_switch: Nanos,
    /// Chunk size for the pipelined encrypt/DMA single-copy path.
    pub pipeline_chunk: u64,
    /// Minimum GPU-side duration of any kernel, modeling dispatch overhead
    /// and resource underutilization for tiny workloads (§5.4 notes small
    /// data cryptography underutilizes the GPU).
    pub kernel_floor: Nanos,
    /// Engine time-slice of the multi-tenant scheduler: concurrent
    /// clients interleave at this quantum, which is what turns per-user
    /// contexts into context-switch traffic (Figures 8/9 use 5 ms).
    pub sched_quantum: Nanos,
    /// Bytes of per-session state the GPU enclave seals when parking an
    /// idle session out of the bounded resident set (session record,
    /// channel counters, staging metadata — not the VRAM image, which is
    /// reproduced by journal replay on resume).
    pub park_state_bytes: u64,
}

impl CostModel {
    /// The model calibrated to the paper's platform (Table 3).
    pub fn paper() -> Self {
        CostModel {
            pcie_bw: 6_000_000_000,
            dma_setup: Nanos::from_micros(10),
            enclave_crypto_bw: 1_900_000_000,
            gpu_crypto_bw: 11_000_000_000,
            host_memcpy_bw: 12_000_000_000,
            pageable_bw: 4_000_000_000,
            mmio_write: Nanos::from_nanos(250),
            mmio_read: Nanos::from_nanos(600),
            kernel_launch: Nanos::from_micros(20),
            ipc_roundtrip: Nanos::from_micros(5),
            task_init_gdev: Nanos::from_millis(24),
            task_init_hix: Nanos::from_millis(5),
            ctx_switch: Nanos::from_micros(150),
            pipeline_chunk: 4 << 20,
            kernel_floor: Nanos::from_micros(8),
            sched_quantum: Nanos::from_millis(5),
            park_state_bytes: 16 << 10,
        }
    }

    /// Starts building a custom model from the paper defaults.
    pub fn builder() -> CostModelBuilder {
        CostModelBuilder {
            model: CostModel::paper(),
        }
    }

    /// Time for a bulk PCIe DMA transfer of `bytes` (setup + wire time).
    pub fn pcie_transfer(&self, bytes: u64) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        self.dma_setup + Nanos::for_throughput(bytes, self.pcie_bw)
    }

    /// Time for the SGX enclave to OCB-encrypt or decrypt `bytes`.
    pub fn enclave_crypt(&self, bytes: u64) -> Nanos {
        Nanos::for_throughput(bytes, self.enclave_crypto_bw)
    }

    /// GPU-side time for the in-GPU OCB crypto kernel over `bytes`
    /// (includes the kernel floor for tiny buffers).
    pub fn gpu_crypt(&self, bytes: u64) -> Nanos {
        Nanos::for_throughput(bytes, self.gpu_crypto_bw).max(self.kernel_floor)
    }

    /// Host-side memcpy of `bytes` (e.g. user enclave to shared memory).
    pub fn host_memcpy(&self, bytes: u64) -> Nanos {
        Nanos::for_throughput(bytes, self.host_memcpy_bw)
    }

    /// End-to-end time of a pageable host<->device copy of `bytes`.
    pub fn pageable_transfer(&self, bytes: u64) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        self.dma_setup + Nanos::for_throughput(bytes, self.pageable_bw)
    }

    /// Per-task initialization cost for `mode` (see field docs).
    pub fn task_init(&self, mode: ExecMode) -> Nanos {
        match mode {
            ExecMode::Gdev => self.task_init_gdev,
            ExecMode::Hix => self.task_init_hix,
        }
    }

    /// Duration of a two-stage pipeline over `bytes` split into
    /// [`pipeline_chunk`](Self::pipeline_chunk)-sized chunks, where stage A
    /// processes each chunk in `a_per_byte` time and stage B in
    /// `b_per_byte` time and chunk *n+1* of A overlaps chunk *n* of B
    /// (§5.2: "encrypts the n+1-th chunk during the transfer of the
    /// encrypted n-th chunk").
    ///
    /// The closed form is `first_chunk(A) + rest(bottleneck) + last_chunk(B)`
    /// generalized to unequal chunk sizes; we compute it exactly by walking
    /// the chunks, which also charges the DMA setup per transfer.
    pub fn pipelined_transfer(&self, bytes: u64, a_bw: u64, b_bw: u64, b_setup: Nanos) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        let chunk = self.pipeline_chunk.max(1);
        let mut a_done = Nanos::ZERO; // time stage A finishes current chunk
        let mut b_done = Nanos::ZERO; // time stage B finishes current chunk
        let mut off = 0u64;
        while off < bytes {
            let n = chunk.min(bytes - off);
            a_done += Nanos::for_throughput(n, a_bw);
            let b_start = a_done.max(b_done);
            b_done = b_start + b_setup + Nanos::for_throughput(n, b_bw);
            off += n;
        }
        b_done
    }

    /// End-to-end time of a secure host-to-device transfer under HIX:
    /// enclave encryption pipelined with the DMA into GPU memory, followed
    /// by the in-GPU decryption kernel (single-copy path, §4.4.2).
    pub fn hix_htod(&self, bytes: u64) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        self.pipelined_transfer(bytes, self.enclave_crypto_bw, self.pcie_bw, self.dma_setup)
            + self.gpu_crypt(bytes)
            + self.kernel_launch
    }

    /// End-to-end time of a secure device-to-host transfer under HIX:
    /// in-GPU encryption kernel, then DMA to shared memory pipelined with
    /// enclave decryption.
    pub fn hix_dtoh(&self, bytes: u64) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        self.gpu_crypt(bytes)
            + self.kernel_launch
            + self.pipelined_transfer(bytes, self.pcie_bw, self.enclave_crypto_bw, Nanos::ZERO)
            + self.dma_setup
    }

    /// The "naive design" of §4.4.2 used as an ablation baseline: user
    /// enclave encrypts, GPU enclave decrypts and re-encrypts with its own
    /// key, copies again, then the GPU decrypts — two crypto round trips
    /// and an extra copy, with no pipelining.
    pub fn naive_htod(&self, bytes: u64) -> Nanos {
        self.enclave_crypt(bytes) // user encrypt
            + self.host_memcpy(bytes) // into shared memory
            + self.enclave_crypt(bytes) // GPU enclave decrypt
            + self.enclave_crypt(bytes) // GPU enclave re-encrypt
            + self.pcie_transfer(bytes)
            + self.gpu_crypt(bytes)
            + self.kernel_launch
    }

    /// TDR patience: how long the watchdog tolerates a busy engine after a
    /// clean sync before escalating to a per-context kill. Derived from the
    /// cost model (not a free constant) so the deadline scales with the
    /// simulated platform: generously longer than any single legitimate
    /// command the synchronous engine can retire.
    pub fn tdr_patience(&self) -> Nanos {
        (self.kernel_launch + self.ipc_roundtrip) * 8
    }

    /// TDR kill grace: how long the watchdog waits after ringing the KILL
    /// doorbell for the context teardown (queue drop + scrub) to take
    /// effect before concluding the context is wedged and escalating to a
    /// full secure reset.
    pub fn tdr_kill_grace(&self) -> Nanos {
        self.ctx_switch * 2
    }

    /// Engine-wide cost of a full secure TDR reset: the device reset and
    /// VRAM scrub, re-reading and re-hashing the 64 KiB expansion ROM
    /// (BIOS re-measurement), re-verifying the routing path and MMIO
    /// lockdown (priced like HIX task init), and rebuilding driver state.
    /// While this runs the engine serves nobody, so in the multi-user
    /// model it is the bounded price every peer pays per offense.
    pub fn tdr_reset_penalty(&self) -> Nanos {
        self.task_init_hix + self.pcie_transfer(64 << 10) + self.ctx_switch * 4
    }

    /// Cost of sealing one idle session's state when the scheduler parks
    /// it out of the bounded resident set: OCB-seal of
    /// [`park_state_bytes`](Self::park_state_bytes) inside the GPU
    /// enclave plus one IPC hop to hand the blob to untrusted storage.
    pub fn park_seal(&self) -> Nanos {
        self.enclave_crypt(self.park_state_bytes) + self.ipc_roundtrip
    }

    /// Cost of unsealing a parked session's state on resume (the mirror
    /// of [`park_seal`](Self::park_seal); authentication is part of the
    /// OCB pass).
    pub fn park_unseal(&self) -> Nanos {
        self.enclave_crypt(self.park_state_bytes) + self.ipc_roundtrip
    }
}

/// Builder for custom [`CostModel`]s (ablation studies).
///
/// ```
/// use hix_sim::cost::CostModel;
/// let slow_crypto = CostModel::builder().enclave_crypto_bw(500_000_000).build();
/// assert!(slow_crypto.enclave_crypt(1 << 20) > CostModel::paper().enclave_crypt(1 << 20));
/// ```
#[derive(Debug, Clone)]
pub struct CostModelBuilder {
    model: CostModel,
}

macro_rules! builder_setter {
    ($(#[$doc:meta] $name:ident: $ty:ty),* $(,)?) => {
        $(
            #[$doc]
            pub fn $name(mut self, v: $ty) -> Self {
                self.model.$name = v;
                self
            }
        )*
    };
}

impl CostModelBuilder {
    builder_setter! {
        /// Sets PCIe DMA bandwidth in bytes/second.
        pcie_bw: u64,
        /// Sets enclave crypto throughput in bytes/second.
        enclave_crypto_bw: u64,
        /// Sets in-GPU crypto throughput in bytes/second.
        gpu_crypto_bw: u64,
        /// Sets host memcpy bandwidth in bytes/second.
        host_memcpy_bw: u64,
        /// Sets pageable-copy throughput in bytes/second.
        pageable_bw: u64,
        /// Sets per-transfer DMA setup latency.
        dma_setup: Nanos,
        /// Sets hardware kernel-launch cost.
        kernel_launch: Nanos,
        /// Sets inter-enclave IPC round-trip cost.
        ipc_roundtrip: Nanos,
        /// Sets Gdev per-task init cost.
        task_init_gdev: Nanos,
        /// Sets HIX per-task init cost.
        task_init_hix: Nanos,
        /// Sets GPU context-switch cost.
        ctx_switch: Nanos,
        /// Sets the pipeline chunk size in bytes.
        pipeline_chunk: u64,
        /// Sets the minimum duration of any GPU kernel.
        kernel_floor: Nanos,
        /// Sets the multi-tenant scheduler's engine time-slice.
        sched_quantum: Nanos,
        /// Sets the sealed per-session parking-state size in bytes.
        park_state_bytes: u64,
    }

    /// Finalizes the model.
    pub fn build(self) -> CostModel {
        assert!(self.model.pcie_bw > 0, "pcie_bw must be positive");
        assert!(
            self.model.enclave_crypto_bw > 0,
            "enclave_crypto_bw must be positive"
        );
        assert!(
            self.model.gpu_crypto_bw > 0,
            "gpu_crypto_bw must be positive"
        );
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn pcie_transfer_includes_setup() {
        let m = CostModel::paper();
        assert_eq!(m.pcie_transfer(0), Nanos::ZERO);
        let t = m.pcie_transfer(6_000_000_000);
        assert_eq!(t, m.dma_setup + Nanos::from_secs(1));
    }

    #[test]
    fn crypto_rates() {
        let m = CostModel::paper();
        // One bandwidth-worth of bytes takes one second.
        assert_eq!(m.enclave_crypt(m.enclave_crypto_bw), Nanos::from_secs(1));
        // GPU crypto floor applies to tiny buffers.
        assert_eq!(m.gpu_crypt(16), m.kernel_floor);
    }

    #[test]
    fn hix_htod_is_crypto_bound() {
        // With enclave crypto slower than PCIe, the pipelined path must be
        // close to pure crypto time, not crypto + transfer serialized.
        let m = CostModel::paper();
        let bytes = 128 * MB;
        let crypto = m.enclave_crypt(bytes);
        let serial = crypto + m.pcie_transfer(bytes);
        let pipelined = m.pipelined_transfer(bytes, m.enclave_crypto_bw, m.pcie_bw, m.dma_setup);
        assert!(pipelined > crypto, "pipeline still pays last-chunk drain");
        assert!(pipelined < serial, "pipeline must beat the serial path");
        // The drain is one chunk of PCIe plus per-chunk setup.
        let slack = pipelined - crypto;
        let chunks = bytes / m.pipeline_chunk;
        let bound = Nanos::for_throughput(m.pipeline_chunk, m.pcie_bw) + m.dma_setup * (chunks + 1);
        assert!(slack <= bound, "slack {slack} > bound {bound}");
    }

    #[test]
    fn pipeline_with_fast_first_stage_is_transfer_bound() {
        let m = CostModel::paper();
        let bytes = 64 * MB;
        // DtoH: PCIe (fast-ish) feeding enclave decrypt (slow): bottleneck
        // is the decrypt stage.
        let t = m.pipelined_transfer(bytes, m.pcie_bw, m.enclave_crypto_bw, Nanos::ZERO);
        let decrypt = m.enclave_crypt(bytes);
        assert!(t >= decrypt);
        assert!(t < decrypt + m.pcie_transfer(bytes));
    }

    #[test]
    fn pipeline_handles_non_multiple_sizes() {
        let m = CostModel::paper();
        let t1 = m.pipelined_transfer(m.pipeline_chunk + 1, 1 << 30, 1 << 30, Nanos::ZERO);
        let t2 = m.pipelined_transfer(m.pipeline_chunk, 1 << 30, 1 << 30, Nanos::ZERO);
        assert!(t1 > t2);
    }

    #[test]
    fn naive_is_slower_than_single_copy() {
        let m = CostModel::paper();
        for mb in [1, 16, 128] {
            let b = mb * MB;
            assert!(
                m.naive_htod(b) > m.hix_htod(b),
                "naive must lose at {mb} MiB"
            );
        }
    }

    #[test]
    fn hix_task_init_cheaper_than_gdev() {
        let m = CostModel::paper();
        assert!(m.task_init(ExecMode::Hix) < m.task_init(ExecMode::Gdev));
    }

    #[test]
    fn builder_overrides() {
        let m = CostModel::builder()
            .pcie_bw(1_000_000_000)
            .kernel_launch(Nanos::from_micros(1))
            .build();
        assert_eq!(m.pcie_bw, 1_000_000_000);
        assert_eq!(m.kernel_launch, Nanos::from_micros(1));
        // untouched fields keep paper defaults
        assert_eq!(m.enclave_crypto_bw, CostModel::paper().enclave_crypto_bw);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn builder_rejects_zero_bandwidth() {
        let _ = CostModel::builder().pcie_bw(0).build();
    }

    #[test]
    fn park_costs_scale_with_state_size() {
        let m = CostModel::paper();
        assert!(m.park_seal() > Nanos::ZERO);
        let fat = CostModel::builder().park_state_bytes(16 << 20).build();
        assert!(fat.park_seal() > m.park_seal());
        // Parking must stay far cheaper than a full session re-init, or
        // the scheduler would never prefer it over teardown.
        assert!(m.park_seal() + m.park_unseal() < m.task_init(ExecMode::Hix));
    }

    #[test]
    fn sched_quantum_defaults_to_figure_8_slice() {
        assert_eq!(CostModel::paper().sched_quantum, Nanos::from_millis(5));
        let fast = CostModel::builder()
            .sched_quantum(Nanos::from_millis(1))
            .build();
        assert_eq!(fast.sched_quantum, Nanos::from_millis(1));
    }
}
