//! The built-in in-GPU OCB-AES kernels (§4.4.2).
//!
//! Under HIX's single-copy design, encrypted user data is DMAed straight
//! into GPU memory and decrypted *inside* the GPU by an ordinary kernel
//! running in the user's context (whose session key was agreed during the
//! three-party handshake); DtoH runs the mirror-image encryption kernel
//! before the DMA out. Nonces are per-direction counters supplied by the
//! GPU enclave.
//!
//! The kernels run against the context's **cached** keyed OCB context
//! ([`KernelExec::session_ocb`]): the key schedule and 64-entry L-table
//! are expanded once per session-key install (and re-expanded on every
//! rekey/epoch bump), not per launch, and the bulk bytes go through the
//! zero-allocation `seal_into`/`open_into` wide paths.
//!
//! Their working buffers (one sealed and one plaintext span) come from
//! the device's kernel scratch (`KernelExec::scratch_pair`), which lives
//! across launches. Each launch sizes its spans by what it moves: the
//! single-shot kernels by their length argument, the stream kernel by
//! `min(chunk, plain_len)`. The GPU enclave never launches one on more
//! than a pipeline chunk, so the scratch stays within
//! 2 x (`pipeline_chunk` + [`TAG_LEN`]) and a steady-state launch
//! allocates nothing. A 1 KiB transfer touches 2 KiB + 16 of scratch.

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
/// plaintext at `dst`.
#[derive(Debug, Default, Clone, Copy)]
pub struct OcbDecryptKernel;

impl GpuKernel for OcbDecryptKernel {
    fn name(&self) -> &str {
        DECRYPT_KERNEL
    }

    fn cost(&self, model: &CostModel, args: &[u64]) -> Nanos {
        model.gpu_crypt(args.get(1).copied().unwrap_or(0))
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

/// Kernel name of the in-place streaming decryptor.
pub const DECRYPT_STREAM_KERNEL: &str = "hix.ocb_decrypt_stream";

/// `hix.ocb_decrypt_stream(buf, plain_len, chunk, nonce_start)` — the
/// single decryption launch of §4.4.3: the buffer holds the chunked
/// sealed layout produced by the pipelined HtoD path (chunk *i*'s sealed
/// bytes at offset `i * (chunk + 16)`); the kernel decrypts every chunk
/// in place, leaving `plain_len` plaintext bytes at the buffer start.
/// One nonce is consumed per chunk, starting at `nonce_start`.
#[derive(Debug, Default, Clone, Copy)]
pub struct OcbDecryptStreamKernel;

impl GpuKernel for OcbDecryptStreamKernel {
    fn name(&self) -> &str {
        DECRYPT_STREAM_KERNEL
    }

    fn cost(&self, model: &CostModel, args: &[u64]) -> Nanos {
        model.gpu_crypt(args.get(1).copied().unwrap_or(0))
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let buf = DevAddr(exec.arg(0)?);
        let plain_len = exec.arg(1)?;
        let chunk = exec.arg(2)?;
        let nonce_start = exec.arg(3)?;
        if chunk == 0 {
            return Err(KernelError::BadArgs("zero chunk size"));
        }
        let ocb = exec.session_ocb().ok_or(KernelError::BadArgs("no session key"))?;
        // One sealed and one plaintext span for the whole stream, sized by
        // the largest chunk this transfer actually has.
        let span = chunk.min(plain_len) as usize;
        let (sealed, plain) = exec.scratch_pair(span.saturating_add(TAG_LEN), span)?;
        let mut done = 0u64;
        let mut index = 0u64;
        while done < plain_len {
            let this = chunk.min(plain_len - done) as usize;
            // Off-device arguments: the chunk's sealed address and nonce
            // may not wrap (its plaintext lands below its sealed bytes).
            let sealed_at = chunk
                .checked_add(TAG_LEN as u64)
                .and_then(|stride| stride.checked_mul(index))
                .and_then(|off| buf.value().checked_add(off));
            let (Some(sealed_at), Some(nonce)) = (sealed_at, nonce_start.checked_add(index)) else {
                return Err(KernelError::BadArgs("sealed stream overflows"));
            };
            exec.read(DevAddr(sealed_at), &mut sealed[..this + TAG_LEN])?;
            ocb.open_into(
                &Nonce::from_counter(nonce),
                DATA_AAD,
                &sealed[..this + TAG_LEN],
                &mut plain[..this],
            )
            .map_err(|_| KernelError::IntegrityFailure)?;
            exec.write(buf.offset(done), &plain[..this])?;
            done += this as u64;
            index += 1;
        }
        Ok(())
    }
}

/// Installs the crypto kernels on a device.
pub fn install(device: &mut crate::device::GpuDevice) {
    device.install_kernel(Box::new(OcbDecryptKernel));
    device.install_kernel(Box::new(OcbEncryptKernel));
    device.install_kernel(Box::new(OcbDecryptStreamKernel));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{CtxId, GpuContext};
    use crate::vram::Vram;
    use hix_crypto::ocb;
    use hix_crypto::ocb::Ocb;

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
    fn decrypt_stream_in_place() {
        let key = [5u8; 16];
        let mut ctx = GpuContext::new(CtxId(1));
        for page in 0..64u64 {
            ctx.map_page(DevAddr(page * 4096), page * 4096);
        }
        ctx.set_session_key(key);
        let mut vram = Vram::new(1 << 20);
        // Build the chunked sealed layout the HtoD pipeline produces.
        let chunk = 1000u64;
        let plain: Vec<u8> = (0..2500u32).map(|i| (i * 13) as u8).collect();
        let ocb = Ocb::new(&ocb::Key::from_bytes(key));
        let nonce_start = 77u64;
        for (i, part) in plain.chunks(chunk as usize).enumerate() {
            let sealed = ocb.seal(
                &ocb::Nonce::from_counter(nonce_start + i as u64),
                DATA_AAD,
                part,
            );
            vram.write(i as u64 * (chunk + TAG_LEN as u64), &sealed);
        }
        let args = [0u64, plain.len() as u64, chunk, nonce_start];
        let mut scratch = Vec::new();
        let mut exec = KernelExec::new(&ctx, &mut vram, &args, &mut scratch);
        OcbDecryptStreamKernel.run(&mut exec).unwrap();
        let mut out = vec![0u8; plain.len()];
        vram.read(0, &mut out);
        assert_eq!(out, plain);
    }

    #[test]
    fn decrypt_stream_detects_tampered_chunk() {
        let key = [5u8; 16];
        let mut ctx = GpuContext::new(CtxId(1));
        for page in 0..4u64 {
            ctx.map_page(DevAddr(page * 4096), page * 4096);
        }
        ctx.set_session_key(key);
        let mut vram = Vram::new(1 << 20);
        let ocb = Ocb::new(&ocb::Key::from_bytes(key));
        let sealed = ocb.seal(&ocb::Nonce::from_counter(0), DATA_AAD, &[7u8; 100]);
        vram.write(0, &sealed);
        // Corrupt one byte of the second half.
        let mut byte = [0u8; 1];
        vram.read(60, &mut byte);
        vram.write(60, &[byte[0] ^ 1]);
        let args = [0u64, 100, 4096, 0];
        let mut scratch = Vec::new();
        let mut exec = KernelExec::new(&ctx, &mut vram, &args, &mut scratch);
        assert_eq!(
            OcbDecryptStreamKernel.run(&mut exec),
            Err(KernelError::IntegrityFailure)
        );
    }

    #[test]
    fn decrypt_stream_refuses_arguments_that_overflow() {
        let key = [5u8; 16];
        let ocb = Ocb::new(&ocb::Key::from_bytes(key));
        let chunk = 4080u64;
        let top = u64::MAX - 4095;
        // (buffer, chunk, nonce_start): a chunk whose sealed stride
        // overflows, a nonce counter that passes 2^64 on the second
        // chunk, and a buffer whose second chunk starts at 2^64.
        for (buf, stride, nonce_start) in [(0, u64::MAX, 0), (0, chunk, u64::MAX), (top, chunk, 0)] {
            let mut ctx = GpuContext::new(CtxId(1));
            ctx.map_page(DevAddr(buf), 0);
            if let Some(next) = buf.checked_add(4096) {
                ctx.map_page(DevAddr(next), 4096);
            }
            ctx.set_session_key(key);
            let mut vram = Vram::new(1 << 20);
            // A genuine first chunk, so only the second chunk's
            // arithmetic is left to fail.
            vram.write(0, &ocb.seal(&ocb::Nonce::from_counter(nonce_start), DATA_AAD, &[7; 4080]));
            let args = [buf, 2 * chunk, stride, nonce_start];
            let mut scratch = Vec::new();
            let mut exec = KernelExec::new(&ctx, &mut vram, &args, &mut scratch);
            let result = OcbDecryptStreamKernel.run(&mut exec);
            assert!(matches!(result, Err(KernelError::BadArgs(_))), "{args:x?}: {result:?}");
        }
    }

    #[test]
    fn cost_scales_with_length() {
        let model = CostModel::paper();
        let small = OcbDecryptKernel.cost(&model, &[0, 1 << 10, 0, 0]);
        let large = OcbDecryptKernel.cost(&model, &[0, 1 << 24, 0, 0]);
        assert!(large > small * 100);
    }
}
