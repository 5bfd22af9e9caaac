//! The compute engine's kernel interface.
//!
//! GPU "binaries" in the simulator are Rust implementations of
//! [`GpuKernel`] registered with the device under a name; a launch command
//! carries the name hash (standing in for a module/function handle). Each
//! kernel reports a modeled execution [`cost`](GpuKernel::cost) — charged
//! always — and a functional [`run`](GpuKernel::run) — executed only when
//! the device is in functional (non-synthetic) mode.

use hix_sim::{CostModel, Nanos};

use crate::ctx::{GpuContext, GpuFault};
use crate::vram::{span_fits, DevAddr, Vram, GPU_PAGE_SIZE};

/// Errors a kernel can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Device page fault.
    Fault(GpuFault),
    /// Malformed launch arguments.
    BadArgs(&'static str),
    /// An authenticated-decryption kernel failed its integrity check —
    /// the §5.5 DMA-tamper detection path.
    IntegrityFailure,
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Fault(e) => write!(f, "{e}"),
            KernelError::BadArgs(msg) => write!(f, "bad kernel arguments: {msg}"),
            KernelError::IntegrityFailure => f.write_str("in-GPU integrity check failed"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<GpuFault> for KernelError {
    fn from(f: GpuFault) -> Self {
        KernelError::Fault(f)
    }
}

/// Execution environment handed to a running kernel: translated access to
/// the launching context's address space, the launch arguments, the
/// context's session key (for the built-in crypto kernels), and the
/// device's kernel scratch memory.
pub struct KernelExec<'a> {
    ctx: &'a GpuContext,
    vram: &'a mut Vram,
    args: &'a [u64],
    scratch: Option<&'a mut Vec<u8>>,
}

impl<'a> KernelExec<'a> {
    pub(crate) fn new(
        ctx: &'a GpuContext,
        vram: &'a mut Vram,
        args: &'a [u64],
        scratch: &'a mut Vec<u8>,
    ) -> Self {
        KernelExec { ctx, vram, args, scratch: Some(scratch) }
    }

    /// The launch arguments.
    pub fn args(&self) -> &[u64] {
        self.args
    }

    /// Launch argument `i`, or a `BadArgs` error.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::BadArgs`] when out of range.
    pub fn arg(&self, i: usize) -> Result<u64, KernelError> {
        self.args.get(i).copied().ok_or(KernelError::BadArgs("missing argument"))
    }

    /// The context's session key, if one was agreed.
    pub fn session_key(&self) -> Option<[u8; 16]> {
        self.ctx.session_key()
    }

    /// The context's cached keyed OCB context (built once per session-key
    /// install; see [`GpuContext::session_ocb`]). The crypto kernels use
    /// this instead of re-expanding the key per launch. The borrow is tied
    /// to the context, not to `self`, so kernels can keep it across
    /// mutable VRAM accesses.
    pub fn session_ocb(&self) -> Option<&'a hix_crypto::ocb::Ocb> {
        self.ctx.session_ocb()
    }

    /// Lends two disjoint spans, of `first` and `second` bytes, of the
    /// device's kernel scratch memory. The buffer outlives the launch
    /// and only grows, so a launch no larger than an earlier one
    /// allocates nothing. Its contents are whatever an earlier launch,
    /// possibly another context's, left there; that is why only this
    /// crate's built-in kernels may borrow it, and each of them writes
    /// every byte before reading it. The borrows are tied to the launch,
    /// not to `self`, so kernels can keep them across VRAM accesses; a
    /// launch can take the scratch once. The sizes come from launch
    /// arguments, so they are bounded before anything is allocated: no
    /// launch gets more scratch than the device has VRAM.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::BadArgs`] if the total size exceeds the
    /// VRAM capacity or this launch already took the scratch.
    pub(crate) fn scratch_pair(
        &mut self,
        first: usize,
        second: usize,
    ) -> Result<(&'a mut [u8], &'a mut [u8]), KernelError> {
        let len = first
            .checked_add(second)
            .filter(|&len| len as u64 <= self.vram.size())
            .ok_or(KernelError::BadArgs("scratch larger than device memory"))?;
        let buf = self.scratch.take().ok_or(KernelError::BadArgs("scratch already taken"))?;
        if buf.len() < len {
            buf.resize(len, 0);
        }
        Ok(buf[..len].split_at_mut(first))
    }

    /// Reads `buf.len()` bytes at device-virtual `va` (page-crossing).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Fault`] on unmapped pages and
    /// [`KernelError::BadArgs`] for a range that wraps the device
    /// address space.
    pub fn read(&self, va: DevAddr, buf: &mut [u8]) -> Result<(), KernelError> {
        if !span_fits(va.value(), buf.len() as u64) {
            return Err(KernelError::BadArgs("range wraps the device address space"));
        }
        let mut off = 0usize;
        while off < buf.len() {
            let cur = va.offset(off as u64);
            let take = ((GPU_PAGE_SIZE - cur.page_offset()) as usize).min(buf.len() - off);
            let pa = self.ctx.translate(cur)?;
            self.vram.read(pa, &mut buf[off..off + take]);
            off += take;
        }
        Ok(())
    }

    /// Writes `data` at device-virtual `va` (page-crossing).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Fault`] on unmapped pages and
    /// [`KernelError::BadArgs`] for a range that wraps the device
    /// address space.
    pub fn write(&mut self, va: DevAddr, data: &[u8]) -> Result<(), KernelError> {
        if !span_fits(va.value(), data.len() as u64) {
            return Err(KernelError::BadArgs("range wraps the device address space"));
        }
        let mut off = 0usize;
        while off < data.len() {
            let cur = va.offset(off as u64);
            let take = ((GPU_PAGE_SIZE - cur.page_offset()) as usize).min(data.len() - off);
            let pa = self.ctx.translate(cur)?;
            self.vram.write(pa, &data[off..off + take]);
            off += take;
        }
        Ok(())
    }

    /// Convenience: reads a `Vec<u8>` of `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Fault`] on unmapped pages.
    pub fn read_vec(&self, va: DevAddr, len: usize) -> Result<Vec<u8>, KernelError> {
        let mut buf = vec![0u8; len];
        self.read(va, &mut buf)?;
        Ok(buf)
    }

    /// Reads a little-endian `i32` array of `n` elements.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Fault`] on unmapped pages.
    pub fn read_i32s(&self, va: DevAddr, n: usize) -> Result<Vec<i32>, KernelError> {
        let bytes = self.read_vec(va, n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Writes a little-endian `i32` array.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Fault`] on unmapped pages.
    pub fn write_i32s(&mut self, va: DevAddr, values: &[i32]) -> Result<(), KernelError> {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write(va, &bytes)
    }

    /// Reads a little-endian `f32` array of `n` elements.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Fault`] on unmapped pages.
    pub fn read_f32s(&self, va: DevAddr, n: usize) -> Result<Vec<f32>, KernelError> {
        let bytes = self.read_vec(va, n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Writes a little-endian `f32` array.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Fault`] on unmapped pages.
    pub fn write_f32s(&mut self, va: DevAddr, values: &[f32]) -> Result<(), KernelError> {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write(va, &bytes)
    }
}

/// A GPU kernel implementation ("the binary").
pub trait GpuKernel {
    /// The kernel's name (launches reference its hash).
    fn name(&self) -> &str;

    /// Modeled GPU execution time for the given launch arguments.
    fn cost(&self, model: &CostModel, args: &[u64]) -> Nanos;

    /// Functional execution. Skipped in synthetic mode.
    ///
    /// # Errors
    ///
    /// Kernels report faults, bad arguments, or integrity failures.
    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError>;
}

/// The stable 64-bit hash used as a kernel/function handle.
pub fn kernel_hash(name: &str) -> u64 {
    let d = hix_crypto::sha256::digest(name.as_bytes());
    u64::from_le_bytes(d[..8].try_into().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::CtxId;

    #[test]
    fn exec_rw_through_page_table() {
        let mut ctx = GpuContext::new(CtxId(1));
        ctx.map_page(DevAddr(0x1000), 0x4000);
        ctx.map_page(DevAddr(0x2000), 0x9000);
        let mut vram = Vram::new(1 << 20);
        let mut scratch = Vec::new();
        let mut exec = KernelExec::new(&ctx, &mut vram, &[], &mut scratch);
        // Crosses the 0x1000/0x2000 boundary -> two discontiguous frames.
        let data: Vec<u8> = (0..100).collect();
        exec.write(DevAddr(0x1fd0), &data).unwrap();
        let mut back = vec![0u8; 100];
        exec.read(DevAddr(0x1fd0), &mut back).unwrap();
        assert_eq!(back, data);
        // The bytes live where the page table says.
        let mut raw = [0u8; 4];
        vram.read(0x4fd0, &mut raw);
        assert_eq!(raw, [0, 1, 2, 3]);
    }

    #[test]
    fn unmapped_access_faults() {
        let ctx = GpuContext::new(CtxId(1));
        let mut vram = Vram::new(1 << 20);
        let mut scratch = Vec::new();
        let mut exec = KernelExec::new(&ctx, &mut vram, &[], &mut scratch);
        assert!(matches!(
            exec.read(DevAddr(0x5000), &mut [0u8; 1]),
            Err(KernelError::Fault(_))
        ));
        assert!(matches!(
            exec.write(DevAddr(0x5000), &[1]),
            Err(KernelError::Fault(_))
        ));
    }

    #[test]
    fn typed_accessors() {
        let mut ctx = GpuContext::new(CtxId(1));
        ctx.map_page(DevAddr(0), 0);
        let mut vram = Vram::new(1 << 20);
        let mut scratch = Vec::new();
        let mut exec = KernelExec::new(&ctx, &mut vram, &[3, 9], &mut scratch);
        exec.write_i32s(DevAddr(0), &[-1, 2, 3]).unwrap();
        assert_eq!(exec.read_i32s(DevAddr(0), 3).unwrap(), vec![-1, 2, 3]);
        exec.write_f32s(DevAddr(0x100), &[1.5, -2.25]).unwrap();
        assert_eq!(exec.read_f32s(DevAddr(0x100), 2).unwrap(), vec![1.5, -2.25]);
        assert_eq!(exec.arg(1).unwrap(), 9);
        assert!(exec.arg(2).is_err());
    }

    #[test]
    fn scratch_is_reused_and_lent_once_per_launch() {
        let ctx = GpuContext::new(CtxId(1));
        let mut vram = Vram::new(1 << 20);
        let mut scratch = Vec::new();
        let mut exec = KernelExec::new(&ctx, &mut vram, &[], &mut scratch);
        let (a, b) = exec.scratch_pair(40, 24).unwrap();
        a.fill(5);
        b.fill(6);
        assert!(matches!(exec.scratch_pair(1, 1), Err(KernelError::BadArgs(_))));
        let mut exec = KernelExec::new(&ctx, &mut vram, &[], &mut scratch);
        let (a, b) = exec.scratch_pair(8, 8).unwrap();
        assert_eq!((&a[..], &b[..]), (&[5; 8][..], &[5; 8][..]), "a smaller launch reuses it");
        assert_eq!(scratch.len(), 64);
        let mut exec = KernelExec::new(&ctx, &mut vram, &[], &mut scratch);
        assert!(matches!(exec.scratch_pair(usize::MAX, 1), Err(KernelError::BadArgs(_))));
        let mut exec = KernelExec::new(&ctx, &mut vram, &[], &mut scratch);
        assert!(
            matches!(exec.scratch_pair(1 << 20, 1), Err(KernelError::BadArgs(_))),
            "no launch borrows more than the device's memory"
        );
        assert_eq!(scratch.len(), 64, "a refused request allocates nothing");
    }

    #[test]
    fn wrapping_ranges_are_bad_args_not_panics() {
        let mut ctx = GpuContext::new(CtxId(1));
        ctx.map_page(DevAddr(u64::MAX - 0xfff), 0);
        let mut vram = Vram::new(1 << 20);
        let mut scratch = Vec::new();
        let mut exec = KernelExec::new(&ctx, &mut vram, &[], &mut scratch);
        exec.write(DevAddr(u64::MAX - 0xfff), &[1; 0x1000]).unwrap();
        assert!(matches!(
            exec.read(DevAddr(u64::MAX - 0xfff), &mut [0; 0x1001]),
            Err(KernelError::BadArgs(_))
        ));
        assert!(matches!(exec.write(DevAddr(u64::MAX), &[1, 2]), Err(KernelError::BadArgs(_))));
    }

    #[test]
    fn hash_is_stable_and_distinct() {
        assert_eq!(kernel_hash("a"), kernel_hash("a"));
        assert_ne!(kernel_hash("a"), kernel_hash("b"));
    }
}
