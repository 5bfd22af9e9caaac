//! The request/response vocabulary between user enclaves and the GPU
//! enclave.
//!
//! Requests are serialized, sealed with the per-session channel key, and
//! placed in the untrusted shared memory; only their ciphertext ever
//! exists outside the two enclaves.

use hix_gpu::vram::DevAddr;

/// A GPU service request (the HIX library API surface, mirroring the
/// CUDA driver API as §4.4 describes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `cuModuleLoad`.
    LoadModule {
        /// Kernel/module name.
        name: String,
    },
    /// `cuMemAlloc`.
    Malloc {
        /// Allocation size in bytes.
        len: u64,
    },
    /// `cuMemFree` (the trusted runtime always scrubs).
    Free {
        /// The allocation's device address.
        va: DevAddr,
    },
    /// `cuMemcpyHtoD` announcement: the sealed chunks follow in the bulk
    /// area of the shared memory.
    MemcpyHtoD {
        /// Destination device address.
        dst: DevAddr,
        /// Plaintext length.
        len: u64,
        /// Chunk size of the sealed stream.
        chunk: u64,
        /// First nonce counter of the stream.
        nonce_start: u64,
    },
    /// `cuMemcpyDtoH` request: the GPU enclave fills the bulk area with
    /// sealed chunks.
    MemcpyDtoH {
        /// Source device address.
        src: DevAddr,
        /// Plaintext length.
        len: u64,
        /// Chunk size for the sealed stream.
        chunk: u64,
        /// First nonce counter of the stream.
        nonce_start: u64,
    },
    /// `cuMemsetD8`.
    Memset {
        /// Destination device address.
        va: DevAddr,
        /// Bytes to fill.
        len: u64,
        /// Fill byte.
        value: u8,
    },
    /// `cuMemcpyDtoD` — stays inside the GPU, no crypto involved.
    CopyDtoD {
        /// Source device address.
        src: DevAddr,
        /// Destination device address.
        dst: DevAddr,
        /// Bytes to copy.
        len: u64,
    },
    /// `cuLaunchKernel`.
    Launch {
        /// Kernel name (resolved to a handle by the GPU enclave).
        name: String,
        /// Launch arguments.
        args: Vec<u64>,
    },
    /// `cuCtxSynchronize`.
    Sync,
    /// Ends the session: context destroyed, memory scrubbed.
    Close,
    /// A batched submission frame: the commands of one ring drain,
    /// executed in order under a single channel wake. Sub-requests may
    /// not themselves be `Submit` (no nesting) and the enclave rejects
    /// non-batchable commands (`Malloc`/`MemcpyDtoH`/`Close`) inside a
    /// frame with a per-command error.
    Submit {
        /// The batch, in submission order.
        cmds: Vec<BatchCmd>,
    },
}

/// One command inside a [`Request::Submit`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchCmd {
    /// Caller-assigned command id, echoed in the completion entry.
    pub id: u64,
    /// Virtual time at which the caller enqueued the command (used for
    /// the queue-delay ledger; execution order is the frame order).
    pub submit_ns: u64,
    /// The command itself (never `Submit`).
    pub req: Request,
}

/// A GPU enclave response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success with no payload.
    Ok,
    /// Success returning a device address.
    Addr(DevAddr),
    /// Failure, with a short reason.
    Err(String),
    /// The session's GPU context was lost to a watchdog kill or a
    /// secure device reset. The runtime must re-establish the session
    /// (fresh context, keys, and nonce epoch) and replay its journal
    /// before retrying the request.
    CtxReset,
    /// Completion entries for a [`Request::Submit`] frame, one per
    /// executed command in frame order. A trailing `CtxReset` entry
    /// aborts the rest of the batch: later commands were not executed
    /// and carry no entry. Entries are never themselves `Completions`.
    Completions(Vec<(u64, Response)>),
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Option<String> {
    let len = u32::from_le_bytes(buf.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
    *pos += 4;
    let s = std::str::from_utf8(buf.get(*pos..*pos + len)?).ok()?;
    *pos += len;
    Some(s.to_string())
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let v = u64::from_le_bytes(buf.get(*pos..*pos + 8)?.try_into().ok()?);
    *pos += 8;
    Some(v)
}

impl Request {
    /// Serializes the request.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Request::LoadModule { name } => {
                out.push(1);
                put_str(&mut out, name);
            }
            Request::Malloc { len } => {
                out.push(2);
                out.extend_from_slice(&len.to_le_bytes());
            }
            Request::Free { va } => {
                out.push(3);
                out.extend_from_slice(&va.value().to_le_bytes());
            }
            Request::MemcpyHtoD {
                dst,
                len,
                chunk,
                nonce_start,
            } => {
                out.push(4);
                for v in [dst.value(), *len, *chunk, *nonce_start] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Request::MemcpyDtoH {
                src,
                len,
                chunk,
                nonce_start,
            } => {
                out.push(5);
                for v in [src.value(), *len, *chunk, *nonce_start] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Request::Launch { name, args } => {
                out.push(6);
                put_str(&mut out, name);
                out.push(args.len() as u8);
                for a in args {
                    out.extend_from_slice(&a.to_le_bytes());
                }
            }
            Request::Sync => out.push(7),
            Request::Close => out.push(8),
            Request::Memset { va, len, value } => {
                out.push(9);
                out.extend_from_slice(&va.value().to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.push(*value);
            }
            Request::CopyDtoD { src, dst, len } => {
                out.push(10);
                out.extend_from_slice(&src.value().to_le_bytes());
                out.extend_from_slice(&dst.value().to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            Request::Submit { cmds } => {
                out.push(11);
                out.push(cmds.len() as u8);
                for c in cmds {
                    out.extend_from_slice(&c.id.to_le_bytes());
                    out.extend_from_slice(&c.submit_ns.to_le_bytes());
                    let enc = c.req.encode();
                    out.extend_from_slice(&(enc.len() as u32).to_le_bytes());
                    out.extend_from_slice(&enc);
                }
            }
        }
        out
    }

    /// Deserializes a request.
    pub fn decode(buf: &[u8]) -> Option<Request> {
        let mut pos = 1usize;
        match *buf.first()? {
            1 => Some(Request::LoadModule {
                name: get_str(buf, &mut pos)?,
            }),
            2 => Some(Request::Malloc {
                len: get_u64(buf, &mut pos)?,
            }),
            3 => Some(Request::Free {
                va: DevAddr(get_u64(buf, &mut pos)?),
            }),
            4 => Some(Request::MemcpyHtoD {
                dst: DevAddr(get_u64(buf, &mut pos)?),
                len: get_u64(buf, &mut pos)?,
                chunk: get_u64(buf, &mut pos)?,
                nonce_start: get_u64(buf, &mut pos)?,
            }),
            5 => Some(Request::MemcpyDtoH {
                src: DevAddr(get_u64(buf, &mut pos)?),
                len: get_u64(buf, &mut pos)?,
                chunk: get_u64(buf, &mut pos)?,
                nonce_start: get_u64(buf, &mut pos)?,
            }),
            6 => {
                let name = get_str(buf, &mut pos)?;
                let n = *buf.get(pos)? as usize;
                pos += 1;
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(get_u64(buf, &mut pos)?);
                }
                Some(Request::Launch { name, args })
            }
            7 => Some(Request::Sync),
            8 => Some(Request::Close),
            9 => Some(Request::Memset {
                va: DevAddr(get_u64(buf, &mut pos)?),
                len: get_u64(buf, &mut pos)?,
                value: *buf.get(pos)?,
            }),
            10 => Some(Request::CopyDtoD {
                src: DevAddr(get_u64(buf, &mut pos)?),
                dst: DevAddr(get_u64(buf, &mut pos)?),
                len: get_u64(buf, &mut pos)?,
            }),
            11 => {
                let n = *buf.get(pos)? as usize;
                pos += 1;
                let mut cmds = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = get_u64(buf, &mut pos)?;
                    let submit_ns = get_u64(buf, &mut pos)?;
                    let len = u32::from_le_bytes(buf.get(pos..pos + 4)?.try_into().ok()?) as usize;
                    pos += 4;
                    let req = Request::decode(buf.get(pos..pos + len)?)?;
                    pos += len;
                    // Frames never nest: a Submit inside a Submit is
                    // malformed, not a recursive decode.
                    if matches!(req, Request::Submit { .. }) {
                        return None;
                    }
                    cmds.push(BatchCmd { id, submit_ns, req });
                }
                Some(Request::Submit { cmds })
            }
            _ => None,
        }
    }
}

impl Response {
    /// Serializes the response.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Response::Ok => out.push(1),
            Response::Addr(va) => {
                out.push(2);
                out.extend_from_slice(&va.value().to_le_bytes());
            }
            Response::CtxReset => out.push(4),
            Response::Err(msg) => {
                out.push(3);
                put_str(&mut out, msg);
            }
            Response::Completions(entries) => {
                out.push(5);
                out.push(entries.len() as u8);
                for (id, resp) in entries {
                    out.extend_from_slice(&id.to_le_bytes());
                    let enc = resp.encode();
                    out.extend_from_slice(&(enc.len() as u32).to_le_bytes());
                    out.extend_from_slice(&enc);
                }
            }
        }
        out
    }

    /// Deserializes a response.
    pub fn decode(buf: &[u8]) -> Option<Response> {
        let mut pos = 1usize;
        match *buf.first()? {
            1 => Some(Response::Ok),
            2 => Some(Response::Addr(DevAddr(get_u64(buf, &mut pos)?))),
            3 => Some(Response::Err(get_str(buf, &mut pos)?)),
            4 => Some(Response::CtxReset),
            5 => {
                let n = *buf.get(pos)? as usize;
                pos += 1;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = get_u64(buf, &mut pos)?;
                    let len = u32::from_le_bytes(buf.get(pos..pos + 4)?.try_into().ok()?) as usize;
                    pos += 4;
                    let resp = Response::decode(buf.get(pos..pos + len)?)?;
                    pos += len;
                    // Completion entries never nest.
                    if matches!(resp, Response::Completions(_)) {
                        return None;
                    }
                    entries.push((id, resp));
                }
                Some(Response::Completions(entries))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        assert_eq!(Request::decode(&r.encode()), Some(r));
    }

    #[test]
    fn decoders_are_total_on_arbitrary_bytes() {
        hix_testkit::prop::prop("protocol_decode_total").run(|s| {
            let bytes = s.vec_u8(0..128);
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        });
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::LoadModule {
            name: "matrix_add".into(),
        });
        roundtrip_req(Request::Malloc { len: 1 << 30 });
        roundtrip_req(Request::Free {
            va: DevAddr(0x1234),
        });
        roundtrip_req(Request::MemcpyHtoD {
            dst: DevAddr(0x1000),
            len: 999,
            chunk: 4096,
            nonce_start: 17,
        });
        roundtrip_req(Request::MemcpyDtoH {
            src: DevAddr(0x1000),
            len: 999,
            chunk: 4096,
            nonce_start: 17,
        });
        roundtrip_req(Request::Launch {
            name: "k".into(),
            args: vec![1, 2, 3],
        });
        roundtrip_req(Request::Sync);
        roundtrip_req(Request::Close);
        roundtrip_req(Request::Memset {
            va: DevAddr(16),
            len: 4096,
            value: 0xaa,
        });
        roundtrip_req(Request::CopyDtoD {
            src: DevAddr(0x1000),
            dst: DevAddr(0x2000),
            len: 512,
        });
        roundtrip_req(Request::Submit {
            cmds: vec![
                BatchCmd {
                    id: 0,
                    submit_ns: 10,
                    req: Request::Sync,
                },
                BatchCmd {
                    id: 1,
                    submit_ns: 10,
                    req: Request::Launch {
                        name: "k".into(),
                        args: vec![9],
                    },
                },
                BatchCmd {
                    id: 2,
                    submit_ns: 25,
                    req: Request::MemcpyHtoD {
                        dst: DevAddr(0x1000),
                        len: 64,
                        chunk: 64,
                        nonce_start: 3,
                    },
                },
            ],
        });
        roundtrip_req(Request::Submit { cmds: vec![] });
    }

    #[test]
    fn nested_frames_rejected() {
        // A Submit inside a Submit must not decode (no recursion on the
        // wire), and likewise Completions inside Completions.
        let inner = Request::Submit { cmds: vec![] }.encode();
        let mut frame = vec![11u8, 1];
        frame.extend_from_slice(&7u64.to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        frame.extend_from_slice(&inner);
        assert_eq!(Request::decode(&frame), None);

        let inner = Response::Completions(vec![]).encode();
        let mut resp = vec![5u8, 1];
        resp.extend_from_slice(&7u64.to_le_bytes());
        resp.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        resp.extend_from_slice(&inner);
        assert_eq!(Response::decode(&resp), None);
    }

    #[test]
    fn responses_roundtrip() {
        for r in [
            Response::Ok,
            Response::Addr(DevAddr(42)),
            Response::Err("boom".into()),
            Response::CtxReset,
            Response::Completions(vec![]),
            Response::Completions(vec![
                (0, Response::Ok),
                (1, Response::Err("bad".into())),
                (2, Response::CtxReset),
            ]),
        ] {
            assert_eq!(Response::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(Request::decode(&[]), None);
        assert_eq!(Request::decode(&[99]), None);
        assert_eq!(Request::decode(&[2, 1, 2]), None); // truncated u64
        assert_eq!(Response::decode(&[0]), None);
        // Non-UTF8 string payload.
        let mut bad = vec![1u8];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Request::decode(&bad), None);
    }
}
