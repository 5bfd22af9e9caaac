//! The built-in in-GPU OCB-AES kernels (§4.4.2).
//!
//! Under HIX's single-copy design, encrypted user data crosses PCIe once
//! and is decrypted *inside* the GPU by an ordinary kernel running in the
//! user's context (whose session key was agreed during the three-party
//! handshake). Both directions work one pipeline chunk at a time through
//! the session's staging buffer in VRAM: HtoD DMAs each sealed chunk into
//! it and `hix.ocb_decrypt` opens the chunk into the destination; DtoH
//! seals each chunk into it with `hix.ocb_encrypt` before the DMA out.
//! Nonces are per-direction counters supplied by the GPU enclave, one per
//! chunk.
//!
//! The kernels run against the context's **cached** keyed OCB context
//! ([`KernelExec::session_ocb`]): the key schedule and 64-entry L-table
//! are expanded once per session-key install (and re-expanded on every
//! rekey/epoch bump), not per launch, and the bulk bytes go through the
//! zero-allocation `seal_into`/`open_into` wide paths.
//!
//! Their working buffers (one sealed and one plaintext span) come from
//! the device's kernel scratch (`KernelExec::scratch_pair`), which lives
//! across launches. Each launch sizes its spans by its length argument.
//! The GPU enclave never launches one on more than a pipeline chunk, so
//! the scratch stays within 2 x (`pipeline_chunk` + [`TAG_LEN`]) and a
//! steady-state launch allocates nothing. A 1 KiB transfer touches
//! 2 KiB + 16 of scratch.

use hix_crypto::ocb::{Nonce, TAG_LEN};
use hix_sim::{CostModel, Nanos};

use crate::kernel::{GpuKernel, KernelError, KernelExec};
use crate::vram::DevAddr;

/// Associated data binding ciphertexts to the HIX data channel.
pub const DATA_AAD: &[u8] = b"hix-gpu-data";

/// Kernel-name prefix reserved to the GPU enclave's crypto kernels: they
/// trust their launch arguments, so only the enclave may launch them.
pub const RESERVED_PREFIX: &str = "hix.";

/// Kernel name of the in-GPU decryptor.
pub const DECRYPT_KERNEL: &str = "hix.ocb_decrypt";

/// Kernel name of the in-GPU encryptor.
pub const ENCRYPT_KERNEL: &str = "hix.ocb_encrypt";

/// `hix.ocb_decrypt(src, sealed_len, dst, nonce_counter)` — opens the
/// sealed buffer at `src` with the context session key and writes the
/// `sealed_len - 16` plaintext bytes at `dst`. Charged by the plaintext
/// it opens, as the encryptor is by the plaintext it seals.
#[derive(Debug, Default, Clone, Copy)]
pub struct OcbDecryptKernel;

impl GpuKernel for OcbDecryptKernel {
    fn name(&self) -> &str {
        DECRYPT_KERNEL
    }

    fn cost(&self, model: &CostModel, args: &[u64]) -> Nanos {
        model.gpu_crypt(args.get(1).copied().unwrap_or(0).saturating_sub(TAG_LEN as u64))
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let src = DevAddr(exec.arg(0)?);
        let sealed_len = exec.arg(1)? as usize;
        let dst = DevAddr(exec.arg(2)?);
        let counter = exec.arg(3)?;
        if sealed_len < TAG_LEN {
            return Err(KernelError::BadArgs("sealed buffer shorter than a tag"));
        }
        let ocb = exec.session_ocb().ok_or(KernelError::BadArgs("no session key"))?;
        let (sealed, plain) = exec.scratch_pair(sealed_len, sealed_len - TAG_LEN)?;
        exec.read(src, sealed)?;
        ocb.open_into(&Nonce::from_counter(counter), DATA_AAD, sealed, plain)
            .map_err(|_| KernelError::IntegrityFailure)?;
        exec.write(dst, plain)
    }
}

/// `hix.ocb_encrypt(src, len, dst, nonce_counter)` — seals `len` bytes at
/// `src`, writing `len + 16` sealed bytes at `dst`.
#[derive(Debug, Default, Clone, Copy)]
pub struct OcbEncryptKernel;

impl GpuKernel for OcbEncryptKernel {
    fn name(&self) -> &str {
        ENCRYPT_KERNEL
    }

    fn cost(&self, model: &CostModel, args: &[u64]) -> Nanos {
        model.gpu_crypt(args.get(1).copied().unwrap_or(0))
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let src = DevAddr(exec.arg(0)?);
        let len = exec.arg(1)? as usize;
        let dst = DevAddr(exec.arg(2)?);
        let counter = exec.arg(3)?;
        let ocb = exec.session_ocb().ok_or(KernelError::BadArgs("no session key"))?;
        let (plain, sealed) = exec.scratch_pair(len, len.saturating_add(TAG_LEN))?;
        exec.read(src, plain)?;
        ocb.seal_into(&Nonce::from_counter(counter), DATA_AAD, plain, sealed);
        exec.write(dst, sealed)
    }
}

/// Installs the crypto kernels on a device.
pub fn install(device: &mut crate::device::GpuDevice) {
    device.install_kernel(Box::new(OcbDecryptKernel));
    device.install_kernel(Box::new(OcbEncryptKernel));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{CtxId, GpuContext};
    use crate::vram::Vram;
    use hix_crypto::ocb;

    fn ctx_with_key(key: [u8; 16]) -> GpuContext {
        let mut ctx = GpuContext::new(CtxId(1));
        for page in 0..16u64 {
            ctx.map_page(DevAddr(page * 4096), page * 4096);
        }
        ctx.set_session_key(key);
        ctx
    }

    #[test]
    fn decrypt_kernel_opens_sealed_data() {
        let key = [9u8; 16];
        let ctx = ctx_with_key(key);
        let mut vram = Vram::new(1 << 20);
        let plain = b"plaintext destined for the gpu".to_vec();
        let sealed = ocb::seal(
            &ocb::Key::from_bytes(key),
            &ocb::Nonce::from_counter(7),
            DATA_AAD,
            &plain,
        );
        vram.write(0x1000, &sealed);
        let args = [0x1000u64, sealed.len() as u64, 0x8000, 7];
        let mut scratch = Vec::new();
        let mut exec = KernelExec::new(&ctx, &mut vram, &args, &mut scratch);
        OcbDecryptKernel.run(&mut exec).unwrap();
        let mut out = vec![0u8; plain.len()];
        vram.read(0x8000, &mut out);
        assert_eq!(out, plain);
    }

    #[test]
    fn decrypt_kernel_detects_tampering() {
        let key = [9u8; 16];
        let ctx = ctx_with_key(key);
        let mut vram = Vram::new(1 << 20);
        let sealed = ocb::seal(
            &ocb::Key::from_bytes(key),
            &ocb::Nonce::from_counter(7),
            DATA_AAD,
            b"data",
        );
        let mut tampered = sealed.clone();
        tampered[1] ^= 0x80;
        vram.write(0x1000, &tampered);
        let args = [0x1000u64, tampered.len() as u64, 0x8000, 7];
        let mut scratch = Vec::new();
        let mut exec = KernelExec::new(&ctx, &mut vram, &args, &mut scratch);
        assert_eq!(
            OcbDecryptKernel.run(&mut exec),
            Err(KernelError::IntegrityFailure)
        );
    }

    #[test]
    fn decrypt_kernel_refuses_wrapping_ranges_and_short_buffers() {
        let key = [9u8; 16];
        let mut ctx = ctx_with_key(key);
        // The top page is mapped, so only the wrap is left to refuse.
        let top = u64::MAX - 4095;
        ctx.map_page(DevAddr(top), 16 * 4096);
        let mut vram = Vram::new(1 << 20);
        let sealed = ocb::seal(
            &ocb::Key::from_bytes(key),
            &ocb::Nonce::from_counter(7),
            DATA_AAD,
            &[5; 100],
        );
        vram.write(0x1000, &sealed);
        let n = sealed.len() as u64;
        // (src, sealed_len, dst): a source that wraps, a destination
        // that wraps, and a buffer shorter than a tag.
        for args in [[top + 4000, n, 0x8000, 7], [0x1000, n, top + 4000, 7], [0x1000, 15, 0x8000, 7]] {
            let mut scratch = Vec::new();
            let mut exec = KernelExec::new(&ctx, &mut vram, &args, &mut scratch);
            let result = OcbDecryptKernel.run(&mut exec);
            assert!(matches!(result, Err(KernelError::BadArgs(_))), "{args:x?}: {result:?}");
        }
    }

    #[test]
    fn encrypt_then_user_side_decrypt() {
        let key = [3u8; 16];
        let ctx = ctx_with_key(key);
        let mut vram = Vram::new(1 << 20);
        vram.write(0x2000, b"gpu result data");
        let args = [0x2000u64, 15, 0x9000, 42];
        let mut scratch = Vec::new();
        let mut exec = KernelExec::new(&ctx, &mut vram, &args, &mut scratch);
        OcbEncryptKernel.run(&mut exec).unwrap();
        let mut sealed = vec![0u8; 15 + TAG_LEN];
        vram.read(0x9000, &mut sealed);
        let out = ocb::open(
            &ocb::Key::from_bytes(key),
            &ocb::Nonce::from_counter(42),
            DATA_AAD,
            &sealed,
        )
        .unwrap();
        assert_eq!(out, b"gpu result data");
    }

    #[test]
    fn kernels_require_session_key() {
        let mut ctx = GpuContext::new(CtxId(1));
        ctx.map_page(DevAddr(0), 0);
        let mut vram = Vram::new(1 << 20);
        let args = [0u64, 16, 0x100, 0];
        let mut scratch = Vec::new();
        let mut exec = KernelExec::new(&ctx, &mut vram, &args, &mut scratch);
        assert!(matches!(
            OcbDecryptKernel.run(&mut exec),
            Err(KernelError::BadArgs(_))
        ));
        let mut scratch = Vec::new();
        let mut exec = KernelExec::new(&ctx, &mut vram, &args, &mut scratch);
        assert!(matches!(
            OcbEncryptKernel.run(&mut exec),
            Err(KernelError::BadArgs(_))
        ));
    }

    #[test]
    fn cost_scales_with_length() {
        let model = CostModel::paper();
        let small = OcbDecryptKernel.cost(&model, &[0, 1 << 10, 0, 0]);
        let large = OcbDecryptKernel.cost(&model, &[0, 1 << 24, 0, 0]);
        assert!(large > small * 100);
    }
}
