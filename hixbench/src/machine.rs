//! The three workloads that drive the full machine stack through the
//! public `HixSession` API: `bulk-transfer`, `small-ops` and
//! `session-churn`. Each request is one closed-loop round; every DtoH
//! is checked against the plaintext mirror.

use hix_core::runtime::shared_window_for;
use hix_core::{CmdStatus, GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_gpu::vram::DevAddr;
use hix_platform::Machine;
use hix_sim::{Clock, EventKind, Payload};
use hix_workloads::matrix::MatrixMulKernel;

use crate::gen::{self, Filler, Mat};
use crate::harness::{PassVirt, Workload};
use crate::meter::{Meter, Op};
use crate::oracle::Mirror;

/// Program counters read after every pass (deltas are reported).
pub const CHANNEL_COUNTERS: [&str; 6] = [
    "ipc.msgs",
    "cmdq.wakes",
    "cmdq.frames",
    "cmdq.frame_cmds",
    "cmdq.backpressure_flushes",
    "recovery.retransmits",
];
pub const DEVICE_COUNTERS: [&str; 9] = [
    "dma.bytes_htod",
    "dma.bytes_dtoh",
    "dma.bytes_encrypted",
    "dma.bytes_decrypted",
    "gpu.ctx_switches",
    "pcie.mmio_reads",
    "pcie.mmio_writes",
    "driver.page_faults",
    "attest.handshakes",
];
pub const TLB_COUNTERS: [&str; 2] = ["mmu.tlb_hits", "mmu.tlb_fills_checked"];

/// A machine with a launched GPU enclave, and one mirror per session:
/// each session has its own GPU context, so device addresses of
/// different sessions may coincide.
struct Stack {
    machine: Machine,
    enclave: GpuEnclave,
    clock: Clock,
    mirrors: Vec<Mirror>,
}

impl Stack {
    fn launch(options: RigOptions, sessions: usize) -> Result<Stack, String> {
        let mut machine = standard_rig(options);
        let enclave = GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default())
            .map_err(|e| format!("enclave launch: {e}"))?;
        let clock = machine.clock().clone();
        Ok(Stack {
            machine,
            enclave,
            clock,
            mirrors: (0..sessions).map(|_| Mirror::new()).collect(),
        })
    }

    fn now(&self) -> u64 {
        self.clock.now().as_nanos()
    }

    fn connect(&mut self, largest: u64, identity: &[u8]) -> Result<HixSession, String> {
        let window = shared_window_for(self.machine.model(), largest);
        HixSession::connect_with(&mut self.machine, &mut self.enclave, window, identity)
            .map_err(|e| format!("connect: {e}"))
    }

    /// Uploads the seeded initial contents of a buffer (all but its
    /// last [`gen::TAG_SLACK`] bytes) at set-up.
    fn upload(
        &mut self,
        space: usize,
        s: &mut HixSession,
        va: DevAddr,
        len: u64,
        data_seed: u64,
    ) -> Result<(), String> {
        let data = gen::payload(data_seed, len - gen::TAG_SLACK);
        self.mirrors[space].htod(va.0, &data);
        s.memcpy_htod(
            &mut self.machine,
            &mut self.enclave,
            va,
            &Payload::from_bytes(data),
        )
        .map_err(|e| format!("initial upload: {e}"))
    }

    /// Allocates in session `space`'s context and mirrors it.
    fn malloc(&mut self, space: usize, s: &mut HixSession, len: u64) -> Result<DevAddr, String> {
        let va = s
            .malloc(&mut self.machine, &mut self.enclave, len)
            .map_err(|e| format!("malloc: {e}"))?;
        self.mirrors[space].alloc(va.0, len);
        Ok(va)
    }

    /// Cumulative program counters: registry counters, then virtual
    /// busy time and span count per event category, then the number
    /// of charged spans (`sim.events`).
    fn counters(&self) -> Vec<(String, u64)> {
        let metrics = self.machine.trace().metrics();
        let obs = self.machine.trace().obs();
        let mut out: Vec<(String, u64)> = CHANNEL_COUNTERS
            .iter()
            .chain(&DEVICE_COUNTERS)
            .chain(&TLB_COUNTERS)
            .map(|c| (c.to_string(), metrics.counter(c)))
            .collect();
        let mut events = 0;
        for kind in EventKind::ALL {
            let c = kind.as_str();
            out.push((format!("virt.{c}.ns"), obs.category_ns(c)));
            out.push((format!("virt.{c}.count"), obs.category_count(c)));
            events += obs.category_count(c);
        }
        out.push(("sim.events".into(), events));
        out
    }

    fn snapshot(&self) -> String {
        self.machine.trace().obs().snapshot()
    }
}

/// Max/min of per-tenant virtual service in a pass.
fn fairness(per_tenant: &[u64]) -> f64 {
    let max = per_tenant.iter().copied().max().unwrap_or(1) as f64;
    let min = per_tenant.iter().copied().min().unwrap_or(1).max(1) as f64;
    max / min
}

/// `bulk-transfer`: two sessions, HtoD → DtoD → DtoH rounds of seeded
/// sizes between 64 KiB and 6 MiB through the synchronous wrappers.
pub struct Bulk {
    seed: u64,
    stack: Stack,
    sessions: Vec<HixSession>,
    /// Per session: (source, destination) buffers of the session's cap.
    bufs: Vec<(DevAddr, DevAddr)>,
}

impl Workload for Bulk {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut stack = Stack::launch(RigOptions::default(), gen::BULK_SESSIONS)?;
        let mut sessions = Vec::new();
        let mut bufs = Vec::new();
        for (i, cap) in gen::bulk_caps(seed).into_iter().enumerate() {
            let mut s = stack.connect(cap, format!("bulk-{i}").as_bytes())?;
            let src = stack.malloc(i, &mut s, cap)?;
            let dst = stack.malloc(i, &mut s, cap)?;
            stack.upload(i, &mut s, src, cap, seed ^ i as u64)?;
            sessions.push(s);
            bufs.push((src, dst));
        }
        Ok(Bulk {
            seed,
            stack,
            sessions,
            bufs,
        })
    }

    fn virt_now(&self) -> u64 {
        self.stack.now()
    }

    fn run_pass(&mut self, pass: u64, meter: &mut Meter) -> Result<PassVirt, String> {
        let Bulk {
            seed,
            stack,
            sessions,
            bufs,
            ..
        } = self;
        let clock = stack.clock.clone();
        let start = stack.now();
        let mut per_session = vec![0u64; sessions.len()];
        for (i, req) in gen::bulk_pass(*seed, pass).into_iter().enumerate() {
            let root = meter
                .tracer
                .begin_request(req.session as u64, pass * gen::BULK_PASS as u64 + i as u64);
            let (src, dst) = bufs[req.session];
            let s = &mut sessions[req.session];
            let len = req.len;
            let data = meter.span("gen", || {
                Payload::from_bytes(gen::payload(req.data_seed, len))
            });
            let v0 = stack.now();
            let (m, e) = (&mut stack.machine, &mut stack.enclave);
            meter.op(&clock, Op::Htod, len, || s.memcpy_htod(m, e, src, &data))?;
            meter.op(&clock, Op::Dtod, 0, || s.memcpy_dtod(m, e, src, dst, len))?;
            let out = meter.op(&clock, Op::Dtoh, len, || s.memcpy_dtoh(m, e, dst, len))?;
            let virt = stack.now() - v0;
            meter.pass.req_virt.push(virt);
            meter.pass.bytes += 2 * len;
            per_session[req.session] += virt;
            let mirror = &mut stack.mirrors[req.session];
            meter
                .span("oracle", || {
                    mirror.htod(src.0, data.bytes());
                    mirror.dtod(src.0, dst.0, len);
                    mirror.check(dst.0, out.bytes())
                })
                .map_err(|e| format!("bulk request {i}: {e}"))?;
            meter.end_request(root);
        }
        Ok(PassVirt {
            makespan_ns: stack.now() - start,
            setup_ns: 0,
            fairness: fairness(&per_session),
        })
    }

    fn counters(&self) -> Vec<(String, u64)> {
        self.stack.counters()
    }

    fn snapshot(&self) -> String {
        self.stack.snapshot()
    }
}

/// Per-session device buffers of `small-ops`.
#[derive(Clone, Copy)]
struct SmallBufs {
    staging: DevAddr,
    a: DevAddr,
    b: DevAddr,
    c: DevAddr,
}

/// `small-ops`: four sessions with batch-8 submission rings; each round
/// queues a small HtoD, six memset/DtoD fillers, a `matrix.mul` launch
/// and a sync, flushes, and reads the product back.
pub struct Small {
    seed: u64,
    stack: Stack,
    sessions: Vec<HixSession>,
    bufs: Vec<SmallBufs>,
}

impl Workload for Small {
    fn setup(seed: u64) -> Result<Self, String> {
        let options = RigOptions {
            kernels: vec![Box::new(MatrixMulKernel)],
            ..RigOptions::default()
        };
        let mut stack = Stack::launch(options, gen::SMALL_SESSIONS)?;
        let mut sessions = Vec::new();
        let mut bufs = Vec::new();
        for (i, staging) in gen::small_staging(seed).into_iter().enumerate() {
            let mut s = stack.connect(staging, format!("small-{i}").as_bytes())?;
            s.set_batch_max(HixSession::DEFAULT_BATCH);
            s.load_module(&mut stack.machine, &mut stack.enclave, "matrix.mul")
                .map_err(|e| format!("load_module: {e}"))?;
            let b = SmallBufs {
                staging: stack.malloc(i, &mut s, staging)?,
                a: stack.malloc(i, &mut s, gen::MATRIX_BYTES)?,
                b: stack.malloc(i, &mut s, gen::MATRIX_BYTES)?,
                c: stack.malloc(i, &mut s, gen::MATRIX_BYTES)?,
            };
            stack.upload(i, &mut s, b.staging, staging, seed ^ i as u64)?;
            bufs.push(b);
            sessions.push(s);
        }
        Ok(Small {
            seed,
            stack,
            sessions,
            bufs,
        })
    }

    fn virt_now(&self) -> u64 {
        self.stack.now()
    }

    fn run_pass(&mut self, pass: u64, meter: &mut Meter) -> Result<PassVirt, String> {
        let Small {
            seed,
            stack,
            sessions,
            bufs,
            ..
        } = self;
        let clock = stack.clock.clone();
        let start = stack.now();
        let mut per_session = vec![0u64; sessions.len()];
        for (i, req) in gen::small_pass(*seed, pass).into_iter().enumerate() {
            let round = pass * gen::SMALL_PASS as u64 + i as u64;
            let root = meter.tracer.begin_request(req.session as u64, round);
            let b = bufs[req.session];
            let s = &mut sessions[req.session];
            let mat = |m: Mat| if m == Mat::A { b.a } else { b.b };
            let data = meter.span("gen", || {
                Payload::from_bytes(gen::payload(req.data_seed, req.htod_len))
            });
            let v0 = stack.now();
            let (m, e) = (&mut stack.machine, &mut stack.enclave);
            let dst = b.staging.offset(req.htod_off);
            let mut ids = vec![meter.op(&clock, Op::Submit, req.htod_len, || {
                s.submit_htod(m, e, dst, &data)
            })?];
            for f in req.fillers {
                ids.push(match f {
                    Filler::Memset {
                        dst,
                        off,
                        len,
                        value,
                    } => meter.op(&clock, Op::Submit, 0, || {
                        s.submit_memset(m, e, mat(dst).offset(off), len, value)
                    })?,
                    Filler::Dtod {
                        src_off,
                        dst,
                        off,
                        len,
                    } => meter.op(&clock, Op::Submit, 0, || {
                        s.submit_dtod(m, e, b.staging.offset(src_off), mat(dst).offset(off), len)
                    })?,
                });
            }
            let args = [b.a.0, b.b.0, b.c.0, gen::SMALL_N];
            ids.push(meter.op(&clock, Op::Submit, 0, || {
                s.submit_launch(m, e, "matrix.mul", &args)
            })?);
            ids.push(meter.op(&clock, Op::Submit, 0, || s.submit_sync(m, e))?);
            meter.op(&clock, Op::Flush, 0, || s.flush(m, e))?;
            let done = s.take_completions();
            if done.iter().map(|(id, _)| *id).ne(ids.iter().copied()) {
                return Err(format!("small round {round}: completions out of order"));
            }
            if let Some((id, status)) = done.iter().find(|(_, st)| *st != CmdStatus::Ok) {
                return Err(format!(
                    "small round {round}: command {id} failed: {status:?}"
                ));
            }
            let out = meter.op(&clock, Op::Dtoh, gen::MATRIX_BYTES, || {
                s.memcpy_dtoh(m, e, b.c, gen::MATRIX_BYTES)
            })?;
            let virt = stack.now() - v0;
            meter.pass.req_virt.push(virt);
            meter.pass.bytes += req.htod_len + gen::MATRIX_BYTES;
            per_session[req.session] += virt;
            let mirror = &mut stack.mirrors[req.session];
            meter
                .span("oracle", || {
                    mirror.htod(dst.0, data.bytes());
                    for f in req.fillers {
                        match f {
                            Filler::Memset {
                                dst,
                                off,
                                len,
                                value,
                            } => mirror.memset(mat(dst).offset(off).0, len, value),
                            Filler::Dtod {
                                src_off,
                                dst,
                                off,
                                len,
                            } => mirror.dtod(
                                b.staging.offset(src_off).0,
                                mat(dst).offset(off).0,
                                len,
                            ),
                        }
                    }
                    mirror.matmul(b.a.0, b.b.0, b.c.0, gen::SMALL_N);
                    mirror.check(b.c.0, out.bytes())
                })
                .map_err(|e| format!("small round {round}: {e}"))?;
            meter.end_request(root);
        }
        Ok(PassVirt {
            makespan_ns: stack.now() - start,
            setup_ns: 0,
            fairness: fairness(&per_session),
        })
    }

    fn counters(&self) -> Vec<(String, u64)> {
        self.stack.counters()
    }

    fn snapshot(&self) -> String {
        self.stack.snapshot()
    }
}

/// `session-churn`: back-to-back session lifecycles — connect with a
/// fresh identity, malloc, HtoD, DtoH, free (scrub), close.
pub struct Churn {
    seed: u64,
    stack: Stack,
}

impl Workload for Churn {
    fn setup(seed: u64) -> Result<Self, String> {
        let stack = Stack::launch(RigOptions::default(), 1)?;
        Ok(Churn { seed, stack })
    }

    fn virt_now(&self) -> u64 {
        self.stack.now()
    }

    fn run_pass(&mut self, pass: u64, meter: &mut Meter) -> Result<PassVirt, String> {
        let Churn { seed, stack, .. } = self;
        let clock = stack.clock.clone();
        let start = stack.now();
        // One window size for every session: the frames a closed
        // session releases are then reused at the same size (windows of
        // mixed sizes churned on one enclave leave the channel
        // unresponsive after about ten sessions).
        let window = shared_window_for(stack.machine.model(), gen::CHURN_MAX);
        let mut setup_virt = 0;
        let mut lifetimes = Vec::new();
        for (i, req) in gen::churn_pass(*seed, pass).into_iter().enumerate() {
            let round = pass * gen::CHURN_PASS as u64 + i as u64;
            let root = meter.tracer.begin_request(req.identity, round);
            let len = req.len;
            let data = meter.span("gen", || {
                Payload::from_bytes(gen::payload(req.data_seed, len))
            });
            let identity = format!("churn-{:016x}", req.identity);
            let v0 = stack.now();
            let (m, e) = (&mut stack.machine, &mut stack.enclave);
            let mut s = meter.op(&clock, Op::Connect, 0, || {
                HixSession::connect_with(m, e, window, identity.as_bytes())
            })?;
            let buf = meter.op(&clock, Op::Malloc, 0, || {
                s.malloc(m, e, len + gen::TAG_SLACK)
            })?;
            setup_virt += clock.now().as_nanos() - v0;
            meter.op(&clock, Op::Htod, len, || s.memcpy_htod(m, e, buf, &data))?;
            let out = meter.op(&clock, Op::Dtoh, len, || s.memcpy_dtoh(m, e, buf, len))?;
            meter.op(&clock, Op::Free, 0, || s.free(m, e, buf))?;
            meter.op(&clock, Op::Close, 0, || s.close(m, e))?;
            let virt = stack.now() - v0;
            meter.pass.req_virt.push(virt);
            meter.pass.bytes += 2 * len;
            lifetimes.push(virt);
            let mirror = &mut stack.mirrors[0];
            meter
                .span("oracle", || {
                    mirror.alloc(buf.0, len + gen::TAG_SLACK);
                    mirror.htod(buf.0, data.bytes());
                    let verdict = mirror.check(buf.0, out.bytes());
                    mirror.free(buf.0);
                    verdict
                })
                .map_err(|e| format!("churn session {round}: {e}"))?;
            meter.end_request(root);
        }
        Ok(PassVirt {
            makespan_ns: stack.now() - start,
            setup_ns: setup_virt,
            fairness: fairness(&lifetimes),
        })
    }

    fn counters(&self) -> Vec<(String, u64)> {
        self.stack.counters()
    }

    fn snapshot(&self) -> String {
        self.stack.snapshot()
    }
}
