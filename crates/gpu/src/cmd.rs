//! Command encoding for the GPU's submission FIFO.
//!
//! The driver serializes commands into the BAR0 submission window and
//! rings the doorbell; the command processor decodes and queues them.
//! Having a real byte encoding matters: it means *whoever can write the
//! MMIO window controls the GPU*, which is the exact capability HIX
//! guards (§2.3).

use hix_pcie::addr::PhysAddr;

use crate::ctx::CtxId;
use crate::vram::DevAddr;

/// Maximum number of launch arguments.
pub const MAX_ARGS: usize = 16;

/// A GPU command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuCommand {
    /// Creates context `ctx`.
    CreateCtx {
        /// The context to create.
        ctx: CtxId,
    },
    /// Destroys context `ctx`, scrubbing and releasing its memory.
    DestroyCtx {
        /// The context to destroy.
        ctx: CtxId,
    },
    /// Maps `pages` consecutive device-virtual pages to consecutive VRAM
    /// frames starting at `pa` (bulk allocation fast path).
    MapRange {
        /// Target context.
        ctx: CtxId,
        /// First device-virtual page base.
        va: DevAddr,
        /// First VRAM frame base (page-aligned).
        pa: u64,
        /// Number of pages in the range.
        pages: u64,
    },
    /// Unmaps `pages` consecutive device-virtual pages.
    UnmapRange {
        /// Target context.
        ctx: CtxId,
        /// First device-virtual page base.
        va: DevAddr,
        /// Number of pages to unmap.
        pages: u64,
    },
    /// DMA host→device: read `len` bytes at host bus address `bus` into
    /// `ctx`'s address space at `va`.
    DmaHtoD {
        /// Target context.
        ctx: CtxId,
        /// Host bus address (translated by the IOMMU).
        bus: PhysAddr,
        /// Destination device-virtual address.
        va: DevAddr,
        /// Bytes to transfer.
        len: u64,
    },
    /// DMA device→host.
    DmaDtoH {
        /// Source context.
        ctx: CtxId,
        /// Source device-virtual address.
        va: DevAddr,
        /// Host bus address (translated by the IOMMU).
        bus: PhysAddr,
        /// Bytes to transfer.
        len: u64,
    },
    /// Copies `len` bytes device-to-device within `ctx`'s address space
    /// (`cuMemcpyDtoD`; never leaves the GPU, so no crypto is needed).
    CopyDtoD {
        /// Owning context.
        ctx: CtxId,
        /// Source device-virtual address.
        src: DevAddr,
        /// Destination device-virtual address.
        dst: DevAddr,
        /// Bytes to copy.
        len: u64,
    },
    /// Fills `len` bytes at `va` with `value` (memory scrubbing).
    Memset {
        /// Target context.
        ctx: CtxId,
        /// Destination device-virtual address.
        va: DevAddr,
        /// Bytes to fill.
        len: u64,
        /// Fill byte.
        value: u8,
    },
    /// Launches the kernel with handle `kernel` in `ctx`.
    Launch {
        /// Launching context.
        ctx: CtxId,
        /// Kernel handle ([`crate::kernel::kernel_hash`] of the name).
        kernel: u64,
        /// Launch arguments (at most [`MAX_ARGS`]).
        args: Vec<u64>,
    },
    /// GPU-side Diffie–Hellman step: raises the supplied public value to
    /// the context's device secret. Non-final steps place the result in
    /// the response buffer; the final step installs the session key.
    DhExp {
        /// Target context (its device secret is used).
        ctx: CtxId,
        /// Whether this value finalizes the exchange.
        finalize: bool,
        /// The peer public value (big-endian).
        public: Vec<u8>,
    },
}

/// Decoding failures (malformed submissions set the device error
/// register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than the encoded fields require.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// A length/count field exceeds its limit.
    BadLength,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("truncated command"),
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#x}"),
            DecodeError::BadLength => f.write_str("length field out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

mod op {
    pub const CREATE_CTX: u8 = 0x01;
    pub const DESTROY_CTX: u8 = 0x02;
    pub const MAP_RANGE: u8 = 0x0a;
    pub const UNMAP_RANGE: u8 = 0x0b;
    pub const COPY_DTOD: u8 = 0x0c;
    pub const DMA_HTOD: u8 = 0x05;
    pub const DMA_DTOH: u8 = 0x06;
    pub const MEMSET: u8 = 0x07;
    pub const LAUNCH: u8 = 0x08;
    pub const DH_EXP: u8 = 0x09;
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

impl GpuCommand {
    /// The context the command targets.
    pub fn ctx(&self) -> CtxId {
        match self {
            GpuCommand::CreateCtx { ctx }
            | GpuCommand::DestroyCtx { ctx }
            | GpuCommand::MapRange { ctx, .. }
            | GpuCommand::UnmapRange { ctx, .. }
            | GpuCommand::DmaHtoD { ctx, .. }
            | GpuCommand::DmaDtoH { ctx, .. }
            | GpuCommand::CopyDtoD { ctx, .. }
            | GpuCommand::Memset { ctx, .. }
            | GpuCommand::Launch { ctx, .. }
            | GpuCommand::DhExp { ctx, .. } => *ctx,
        }
    }

    /// Whether the command occupies the execution engines (these incur a
    /// context switch when the active context changes, §4.5).
    pub fn uses_engines(&self) -> bool {
        matches!(
            self,
            GpuCommand::DmaHtoD { .. }
                | GpuCommand::DmaDtoH { .. }
                | GpuCommand::CopyDtoD { .. }
                | GpuCommand::Memset { .. }
                | GpuCommand::Launch { .. }
        )
    }

    /// Whether a seeded device fault may target this command. Narrower
    /// than [`uses_engines`](Self::uses_engines): `Memset` is exempt so
    /// scrub-on-free/reset can never itself hang, and the control-plane
    /// commands (context/mapping/DH) are exempt so session establishment
    /// stays reliable — hangs strike the data plane, where real TDRs do.
    pub fn fault_eligible(&self) -> bool {
        matches!(
            self,
            GpuCommand::DmaHtoD { .. }
                | GpuCommand::DmaDtoH { .. }
                | GpuCommand::CopyDtoD { .. }
                | GpuCommand::Launch { .. }
        )
    }

    /// Serializes the command for the submission window.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            GpuCommand::CreateCtx { ctx } => {
                out.push(op::CREATE_CTX);
                out.extend_from_slice(&ctx.0.to_le_bytes());
            }
            GpuCommand::DestroyCtx { ctx } => {
                out.push(op::DESTROY_CTX);
                out.extend_from_slice(&ctx.0.to_le_bytes());
            }
            GpuCommand::MapRange { ctx, va, pa, pages } => {
                out.push(op::MAP_RANGE);
                out.extend_from_slice(&ctx.0.to_le_bytes());
                out.extend_from_slice(&va.value().to_le_bytes());
                out.extend_from_slice(&pa.to_le_bytes());
                out.extend_from_slice(&pages.to_le_bytes());
            }
            GpuCommand::UnmapRange { ctx, va, pages } => {
                out.push(op::UNMAP_RANGE);
                out.extend_from_slice(&ctx.0.to_le_bytes());
                out.extend_from_slice(&va.value().to_le_bytes());
                out.extend_from_slice(&pages.to_le_bytes());
            }
            GpuCommand::DmaHtoD { ctx, bus, va, len } => {
                out.push(op::DMA_HTOD);
                out.extend_from_slice(&ctx.0.to_le_bytes());
                out.extend_from_slice(&bus.value().to_le_bytes());
                out.extend_from_slice(&va.value().to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            GpuCommand::DmaDtoH { ctx, va, bus, len } => {
                out.push(op::DMA_DTOH);
                out.extend_from_slice(&ctx.0.to_le_bytes());
                out.extend_from_slice(&va.value().to_le_bytes());
                out.extend_from_slice(&bus.value().to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            GpuCommand::CopyDtoD { ctx, src, dst, len } => {
                out.push(op::COPY_DTOD);
                out.extend_from_slice(&ctx.0.to_le_bytes());
                out.extend_from_slice(&src.value().to_le_bytes());
                out.extend_from_slice(&dst.value().to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            GpuCommand::Memset {
                ctx,
                va,
                len,
                value,
            } => {
                out.push(op::MEMSET);
                out.extend_from_slice(&ctx.0.to_le_bytes());
                out.extend_from_slice(&va.value().to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.push(*value);
            }
            GpuCommand::Launch { ctx, kernel, args } => {
                assert!(args.len() <= MAX_ARGS, "too many kernel arguments");
                out.push(op::LAUNCH);
                out.extend_from_slice(&ctx.0.to_le_bytes());
                out.extend_from_slice(&kernel.to_le_bytes());
                out.push(args.len() as u8);
                for a in args {
                    out.extend_from_slice(&a.to_le_bytes());
                }
            }
            GpuCommand::DhExp {
                ctx,
                finalize,
                public,
            } => {
                assert!(public.len() <= u16::MAX as usize, "DH value too large");
                out.push(op::DH_EXP);
                out.extend_from_slice(&ctx.0.to_le_bytes());
                out.push(*finalize as u8);
                out.extend_from_slice(&(public.len() as u16).to_le_bytes());
                out.extend_from_slice(public);
            }
        }
        out
    }

    /// Decodes one command from the submission window bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for malformed input.
    pub fn decode(buf: &[u8]) -> Result<GpuCommand, DecodeError> {
        let mut r = Reader::new(buf);
        let opcode = r.u8()?;
        let cmd = match opcode {
            op::CREATE_CTX => GpuCommand::CreateCtx {
                ctx: CtxId(r.u32()?),
            },
            op::DESTROY_CTX => GpuCommand::DestroyCtx {
                ctx: CtxId(r.u32()?),
            },
            op::MAP_RANGE => GpuCommand::MapRange {
                ctx: CtxId(r.u32()?),
                va: DevAddr(r.u64()?),
                pa: r.u64()?,
                pages: r.u64()?,
            },
            op::UNMAP_RANGE => GpuCommand::UnmapRange {
                ctx: CtxId(r.u32()?),
                va: DevAddr(r.u64()?),
                pages: r.u64()?,
            },
            op::DMA_HTOD => GpuCommand::DmaHtoD {
                ctx: CtxId(r.u32()?),
                bus: PhysAddr::new(r.u64()?),
                va: DevAddr(r.u64()?),
                len: r.u64()?,
            },
            op::DMA_DTOH => GpuCommand::DmaDtoH {
                ctx: CtxId(r.u32()?),
                va: DevAddr(r.u64()?),
                bus: PhysAddr::new(r.u64()?),
                len: r.u64()?,
            },
            op::COPY_DTOD => GpuCommand::CopyDtoD {
                ctx: CtxId(r.u32()?),
                src: DevAddr(r.u64()?),
                dst: DevAddr(r.u64()?),
                len: r.u64()?,
            },
            op::MEMSET => GpuCommand::Memset {
                ctx: CtxId(r.u32()?),
                va: DevAddr(r.u64()?),
                len: r.u64()?,
                value: r.u8()?,
            },
            op::LAUNCH => {
                let ctx = CtxId(r.u32()?);
                let kernel = r.u64()?;
                let n = r.u8()? as usize;
                if n > MAX_ARGS {
                    return Err(DecodeError::BadLength);
                }
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(r.u64()?);
                }
                GpuCommand::Launch { ctx, kernel, args }
            }
            op::DH_EXP => {
                let ctx = CtxId(r.u32()?);
                let finalize = r.u8()? != 0;
                let len = r.u16()? as usize;
                GpuCommand::DhExp {
                    ctx,
                    finalize,
                    public: r.take(len)?.to_vec(),
                }
            }
            other => return Err(DecodeError::BadOpcode(other)),
        };
        Ok(cmd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(cmd: GpuCommand) {
        let bytes = cmd.encode();
        assert_eq!(GpuCommand::decode(&bytes).unwrap(), cmd);
    }

    #[test]
    fn decode_never_panics_on_arbitrary_bytes() {
        hix_testkit::prop::prop("gpu_cmd_decode_total").run(|s| {
            let bytes = s.vec_u8(0..128);
            let _ = GpuCommand::decode(&bytes);
        });
    }

    #[test]
    fn all_commands_roundtrip() {
        roundtrip(GpuCommand::CreateCtx { ctx: CtxId(3) });
        roundtrip(GpuCommand::DestroyCtx { ctx: CtxId(3) });
        roundtrip(GpuCommand::UnmapRange {
            ctx: CtxId(1),
            va: DevAddr(0x1000),
            pages: 3,
        });
        roundtrip(GpuCommand::MapRange {
            ctx: CtxId(1),
            va: DevAddr(0x1000),
            pa: 0x8000,
            pages: 512,
        });
        roundtrip(GpuCommand::DmaHtoD {
            ctx: CtxId(2),
            bus: PhysAddr::new(0xdead000),
            va: DevAddr(0x2000),
            len: 12345,
        });
        roundtrip(GpuCommand::DmaDtoH {
            ctx: CtxId(2),
            va: DevAddr(0x2000),
            bus: PhysAddr::new(0xdead000),
            len: 1,
        });
        roundtrip(GpuCommand::CopyDtoD {
            ctx: CtxId(2),
            src: DevAddr(0x1000),
            dst: DevAddr(0x3000),
            len: 512,
        });
        roundtrip(GpuCommand::Memset {
            ctx: CtxId(2),
            va: DevAddr(0),
            len: 4096,
            value: 0,
        });
        roundtrip(GpuCommand::Launch {
            ctx: CtxId(9),
            kernel: 0x1234_5678_9abc_def0,
            args: vec![1, 2, 3],
        });
        roundtrip(GpuCommand::DhExp {
            ctx: CtxId(9),
            finalize: true,
            public: vec![5; 32],
        });
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = GpuCommand::Launch {
            ctx: CtxId(1),
            kernel: 7,
            args: vec![1, 2],
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(
                GpuCommand::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_opcode_rejected() {
        assert_eq!(
            GpuCommand::decode(&[0xee]),
            Err(DecodeError::BadOpcode(0xee))
        );
    }

    #[test]
    fn oversized_arg_count_rejected() {
        let mut bytes = GpuCommand::Launch {
            ctx: CtxId(1),
            kernel: 7,
            args: vec![],
        }
        .encode();
        // Patch the arg count beyond MAX_ARGS.
        let n_pos = 1 + 4 + 8;
        bytes[n_pos] = (MAX_ARGS + 1) as u8;
        bytes.extend(std::iter::repeat_n(0u8, 8 * (MAX_ARGS + 1)));
        assert_eq!(GpuCommand::decode(&bytes), Err(DecodeError::BadLength));
    }

    #[test]
    fn ctx_and_engine_classification() {
        let c = GpuCommand::Memset {
            ctx: CtxId(4),
            va: DevAddr(0),
            len: 1,
            value: 0,
        };
        assert_eq!(c.ctx(), CtxId(4));
        assert!(c.uses_engines());
        assert!(!GpuCommand::CreateCtx { ctx: CtxId(4) }.uses_engines());
        assert!(!GpuCommand::DhExp {
            ctx: CtxId(4),
            finalize: false,
            public: vec![]
        }
        .uses_engines());
    }
}
