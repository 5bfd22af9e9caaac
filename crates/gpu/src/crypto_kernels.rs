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
//! rekey/epoch bump), not per launch.
//!
//! Neither kernel copies the sealed side of a transfer: both stream OCB
//! over the staging buffer's VRAM pages in place ([`KernelExec::page`],
//! [`KernelExec::page_mut`]), whole blocks one page at a time, with the
//! tail and tag through a 32-byte stack buffer. Their argument contract:
//!
//! - the sealed-side address is 16-byte aligned (the enclave always
//!   passes its page-aligned staging buffer), so every page boundary of
//!   the sealed span falls on a block boundary; anything else is
//!   `BadArgs`;
//! - `hix.ocb_decrypt` opens into one span of the device's kernel scratch
//!   (`KernelExec::scratch`) and writes `dst` only after the tag
//!   verifies; on a mismatch it zeroes the span and fails with
//!   `IntegrityFailure`;
//! - `hix.ocb_encrypt` reads its source a page at a time into a stack
//!   page and seals it straight into the staging pages, borrowing no
//!   scratch. It no longer snapshots its source, so a source that
//!   overlaps the sealed range is `BadArgs`.
//!
//! The GPU enclave never launches one on more than a pipeline chunk, so
//! the scratch stays within one `pipeline_chunk` and a steady-state
//! launch allocates nothing. A 1 KiB transfer touches 1 KiB of scratch.

use hix_crypto::aes::BLOCK;
use hix_crypto::ocb::{Nonce, TAG_LEN};
use hix_sim::{CostModel, Nanos};

use crate::kernel::{GpuKernel, KernelError, KernelExec};
use crate::vram::{span_fits, DevAddr, GPU_PAGE_SIZE};

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
        model.gpu_crypt(
            args.get(1)
                .copied()
                .unwrap_or(0)
                .saturating_sub(TAG_LEN as u64),
        )
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let src = DevAddr(exec.arg(0)?);
        let sealed_len = exec.arg(1)? as usize;
        let dst = DevAddr(exec.arg(2)?);
        let counter = exec.arg(3)?;
        if sealed_len < TAG_LEN {
            return Err(KernelError::BadArgs("sealed buffer shorter than a tag"));
        }
        check_sealed_span(src, sealed_len)?;
        let ocb = exec
            .session_ocb()
            .ok_or(KernelError::BadArgs("no session key"))?;
        let plain = exec.scratch(sealed_len - TAG_LEN)?;
        let whole = plain.len() / BLOCK * BLOCK;
        let mut stream = ocb.stream(&Nonce::from_counter(counter));
        // The tail and tag, gathered: stage[..staged].
        let mut stage = [0u8; 2 * BLOCK];
        let mut staged = 0;
        let mut pos = 0;
        while pos < sealed_len {
            let va = src.offset(pos as u64);
            let page = exec.page(va, page_take(va, sealed_len - pos))?;
            let at = pos.min(whole);
            let run = (whole - at).min(page.len());
            stream.open_run(&page[..run], &mut plain[at..at + run]);
            let rest = &page[run..];
            stage[staged..staged + rest.len()].copy_from_slice(rest);
            staged += rest.len();
            pos += page.len();
        }
        let (tail, tag) = stage[..staged].split_at(plain.len() - whole);
        if stream
            .open_finish(DATA_AAD, tail, tag, &mut plain[whole..])
            .is_err()
        {
            plain.fill(0);
            return Err(KernelError::IntegrityFailure);
        }
        exec.write(dst, plain)
    }
}

/// Refuses a sealed-side span that is not block-aligned or that wraps
/// the device address space.
fn check_sealed_span(va: DevAddr, len: usize) -> Result<(), KernelError> {
    if !va.value().is_multiple_of(BLOCK as u64) {
        return Err(KernelError::BadArgs("sealed buffer not block-aligned"));
    }
    if !span_fits(va.value(), len as u64) {
        return Err(KernelError::BadArgs("range wraps the device address space"));
    }
    Ok(())
}

/// Bytes from `va` to the end of its page, capped at `left`.
fn page_take(va: DevAddr, left: usize) -> usize {
    ((GPU_PAGE_SIZE - va.page_offset()) as usize).min(left)
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
        let sealed_len = len
            .checked_add(TAG_LEN)
            .ok_or(KernelError::BadArgs("sealed length overflows"))?;
        check_sealed_span(dst, sealed_len)?;
        if !span_fits(src.value(), len as u64) {
            return Err(KernelError::BadArgs("range wraps the device address space"));
        }
        // Inclusive ends: neither span wraps, so neither end overflows.
        let src_last = src.value() + (len as u64).saturating_sub(1);
        let dst_last = dst.value() + sealed_len as u64 - 1;
        if len > 0 && src.value() <= dst_last && dst.value() <= src_last {
            return Err(KernelError::BadArgs("source overlaps the sealed buffer"));
        }
        let ocb = exec
            .session_ocb()
            .ok_or(KernelError::BadArgs("no session key"))?;
        let whole = len / BLOCK * BLOCK;
        let mut stream = Some(ocb.stream(&Nonce::from_counter(counter)));
        // One page of plaintext on its way into the sealed pages.
        let mut plain = [0u8; GPU_PAGE_SIZE as usize];
        // The sealed tail and tag, placed from stage[next..].
        let mut stage = [0u8; 2 * BLOCK];
        let mut next = 0;
        let mut pos = 0;
        while pos < sealed_len {
            let va = dst.offset(pos as u64);
            let take = page_take(va, sealed_len - pos);
            let run = whole.saturating_sub(pos).min(take);
            // The first page past the whole blocks carries the tail too,
            // which follows the run in the source.
            let finish = run < take && stream.is_some();
            let tail = if finish { len - whole } else { 0 };
            if run + tail > 0 {
                exec.read(src.offset(pos as u64), &mut plain[..run + tail])?;
            }
            let (body, rest) = exec.page_mut(va, take)?.split_at_mut(run);
            if run > 0 {
                stream
                    .as_mut()
                    .expect("sealing until the finish")
                    .seal_run(&plain[..run], body);
            }
            if let Some(stream) = stream.take_if(|_| finish) {
                let (tail_out, tag) = stage.split_at_mut(tail);
                let sealed_tag = stream.seal_finish(DATA_AAD, &plain[run..run + tail], tail_out);
                tag[..TAG_LEN].copy_from_slice(&sealed_tag);
            }
            rest.copy_from_slice(&stage[next..next + rest.len()]);
            next += rest.len();
            pos += take;
        }
        Ok(())
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
        for args in [
            [top + 4000, n, 0x8000, 7],
            [0x1000, n, top + 4000, 7],
            [0x1000, 15, 0x8000, 7],
        ] {
            let mut scratch = Vec::new();
            let mut exec = KernelExec::new(&ctx, &mut vram, &args, &mut scratch);
            let result = OcbDecryptKernel.run(&mut exec);
            assert!(
                matches!(result, Err(KernelError::BadArgs(_))),
                "{args:x?}: {result:?}"
            );
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

    fn seal_on_host(key: [u8; 16], counter: u64, plain: &[u8]) -> Vec<u8> {
        ocb::seal(
            &ocb::Key::from_bytes(key),
            &ocb::Nonce::from_counter(counter),
            DATA_AAD,
            plain,
        )
    }

    /// Runs one kernel launch on a fresh scratch, returning its result.
    fn launch(
        kernel: &dyn GpuKernel,
        ctx: &GpuContext,
        vram: &mut Vram,
        args: [u64; 4],
    ) -> Result<(), KernelError> {
        let mut scratch = Vec::new();
        kernel.run(&mut KernelExec::new(ctx, vram, &args, &mut scratch))
    }

    #[test]
    fn misaligned_sealed_side_is_refused() {
        let key = [4u8; 16];
        let ctx = ctx_with_key(key);
        let mut vram = Vram::new(1 << 20);
        let sealed = seal_on_host(key, 1, &[1; 64]);
        vram.write(0x1008, &sealed);
        let n = sealed.len() as u64;
        let open = launch(&OcbDecryptKernel, &ctx, &mut vram, [0x1008, n, 0x8000, 1]);
        assert!(matches!(open, Err(KernelError::BadArgs(_))), "{open:?}");
        let seal = launch(&OcbEncryptKernel, &ctx, &mut vram, [0x2000, 64, 0x9008, 1]);
        assert!(matches!(seal, Err(KernelError::BadArgs(_))), "{seal:?}");
    }

    #[test]
    fn overlapping_encrypt_ranges_are_refused() {
        let ctx = ctx_with_key([4u8; 16]);
        let mut vram = Vram::new(1 << 20);
        vram.write(0x2000, &[9; 256]);
        // (src, len, dst): the sealed range starts inside the source, the
        // source starts inside the sealed range, and the tag alone
        // touches the source.
        for (src, len, dst) in [
            (0x2000, 256, 0x2080),
            (0x2040, 64, 0x2000),
            (0x2010, 16, 0x2000),
        ] {
            let result = launch(&OcbEncryptKernel, &ctx, &mut vram, [src, len, dst, 1]);
            assert!(
                matches!(result, Err(KernelError::BadArgs(_))),
                "{src:x} {len} {dst:x}"
            );
        }
        // Adjacent ranges do not overlap.
        launch(&OcbEncryptKernel, &ctx, &mut vram, [0x2000, 64, 0x2040, 1]).unwrap();
    }

    #[test]
    fn tag_straddling_a_page_boundary_seals_and_opens() {
        let key = [6u8; 16];
        let ctx = ctx_with_key(key);
        let mut vram = Vram::new(1 << 20);
        // 11 whole blocks from 0x1f40 end at 0x1ff0; the 4-byte tail and
        // the tag run from there across the page boundary at 0x2000.
        let plain: Vec<u8> = (0..180u32).map(|i| (i * 3) as u8).collect();
        let sealed = seal_on_host(key, 5, &plain);
        vram.write(0x1f40, &sealed);
        let n = sealed.len() as u64;
        launch(&OcbDecryptKernel, &ctx, &mut vram, [0x1f40, n, 0x5000, 5]).unwrap();
        let mut out = vec![0u8; plain.len()];
        vram.read(0x5000, &mut out);
        assert_eq!(out, plain);
        // The encryptor seals the same bytes across the same boundary.
        vram.write(0x1f40, &[0; 196]);
        launch(&OcbEncryptKernel, &ctx, &mut vram, [0x5000, 180, 0x1f40, 5]).unwrap();
        let mut back = vec![0u8; sealed.len()];
        vram.read(0x1f40, &mut back);
        assert_eq!(back, sealed);
    }

    #[test]
    fn empty_plaintext_seals_and_opens() {
        let key = [8u8; 16];
        let ctx = ctx_with_key(key);
        let mut vram = Vram::new(1 << 20);
        vram.write(0x3000, &[0xcc; 16]);
        launch(&OcbEncryptKernel, &ctx, &mut vram, [0x2000, 0, 0x3000, 9]).unwrap();
        let mut tag = vec![0u8; TAG_LEN];
        vram.read(0x3000, &mut tag);
        assert_eq!(
            tag,
            seal_on_host(key, 9, b""),
            "the sealed stream is the tag alone"
        );
        launch(&OcbDecryptKernel, &ctx, &mut vram, [0x3000, 16, 0x4000, 9]).unwrap();
        vram.write(0x3000, &[0; 1]);
        let bad = launch(&OcbDecryptKernel, &ctx, &mut vram, [0x3000, 16, 0x4000, 9]);
        assert_eq!(bad, Err(KernelError::IntegrityFailure));
    }

    #[test]
    fn unaligned_source_across_three_pages_seals() {
        let key = [2u8; 16];
        let ctx = ctx_with_key(key);
        let mut vram = Vram::new(1 << 20);
        // 0x1ffb .. 0x3063: the tail of one page, a whole page and the
        // head of a third.
        let plain: Vec<u8> = (0..4200u32).map(|i| (i * 7 + 1) as u8).collect();
        vram.write(0x1ffb, &plain);
        launch(
            &OcbEncryptKernel,
            &ctx,
            &mut vram,
            [0x1ffb, 4200, 0x8000, 3],
        )
        .unwrap();
        let mut sealed = vec![0u8; 4200 + TAG_LEN];
        vram.read(0x8000, &mut sealed);
        assert_eq!(sealed, seal_on_host(key, 3, &plain));
    }

    #[test]
    fn failed_decrypt_leaves_dst_untouched_and_zeroes_the_scratch() {
        let key = [1u8; 16];
        let ctx = ctx_with_key(key);
        let mut vram = Vram::new(1 << 20);
        let plain = vec![0x42u8; 5000];
        let mut sealed = seal_on_host(key, 11, &plain);
        sealed[4999] ^= 1;
        vram.write(0x1000, &sealed);
        vram.write(0x9000, &[0xaa; 5000]);
        let args = [0x1000u64, sealed.len() as u64, 0x9000, 11];
        let mut scratch = Vec::new();
        let result =
            OcbDecryptKernel.run(&mut KernelExec::new(&ctx, &mut vram, &args, &mut scratch));
        assert_eq!(result, Err(KernelError::IntegrityFailure));
        let mut dst = vec![0u8; 5000];
        vram.read(0x9000, &mut dst);
        assert!(
            dst.iter().all(|&b| b == 0xaa),
            "dst was written before the tag verified"
        );
        assert_eq!(
            scratch.len(),
            5000,
            "the plaintext span is the only scratch"
        );
        assert!(
            scratch.iter().all(|&b| b == 0),
            "the opened span was not zeroed"
        );
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
