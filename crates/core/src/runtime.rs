//! The trusted user runtime library (§4.4): the CUDA-driver-API-shaped
//! interface a user enclave links against.
//!
//! A [`HixSession`] owns the user's side of the secure channel, the data
//! key from the three-party exchange, and the nonce counters. Transfers
//! use the single-copy pipelined scheme: plaintext only ever exists
//! inside the user enclave and inside GPU memory; the shared memory and
//! the DMA path carry OCB-sealed chunks.
//!
//! ## Time accounting
//!
//! Functional byte work (sealing, unsealing) is not charged per byte.
//! The runtime charges its two channel half-hops; everything else a
//! transfer costs is charged by the GPU enclave: the device's DMA wire
//! time and in-GPU crypto as they run, and then, as enclave crypto, the
//! remainder up to the pipelined completion from the cost model
//! ([`CostModel::hix_htod`]/[`hix_dtoh`](CostModel::hix_dtoh)) that the
//! device work left uncovered. The sealing hidden behind the wire is
//! charged nowhere, so a transfer's charges sum to exactly its time.

use std::collections::VecDeque;

use hix_crypto::aes::BLOCK;
use hix_crypto::drbg::HmacDrbg;
use hix_crypto::ocb::{Key, Nonce, Ocb, TAG_LEN};
use hix_driver::DmaBuffer;
use hix_gpu::crypto_kernels::DATA_AAD;
use hix_gpu::vram::DevAddr;
use hix_platform::mem::PAGE_SIZE;
use hix_platform::{Machine, ProcessId, VirtAddr};
use hix_sim::{CostModel, Counter, EventKind, Nanos, Payload, COUNT_BOUNDS, LATENCY_BOUNDS_NS};

use crate::channel::{sealed_chunk_offset, sealed_stream_len, ChannelError, Endpoint, BULK_OFFSET};
use crate::gpu_enclave::{GpuEnclave, HixCoreError, SessionId};
use crate::protocol::{BatchCmd, Request, Response};
use crate::recovery::Backoff;

/// Nonce-space split: HtoD counters grow from 0, DtoH from 2^63 (same
/// data key, disjoint nonces).
const DTOH_NONCE_BASE: u64 = 1 << 63;

/// One state-bearing operation in the session's journal. After a TDR
/// reset destroys the GPU context, replaying the journal in order against
/// a fresh context reconstructs every module, allocation, and buffer
/// byte-for-byte (the allocator is deterministic, so even device
/// addresses reproduce). Reads (`DtoH`, `Sync`) carry no state and are
/// not journaled.
#[derive(Debug, Clone)]
enum JournalOp {
    LoadModule {
        name: String,
    },
    Malloc {
        len: u64,
        va: DevAddr,
    },
    Free {
        va: DevAddr,
    },
    HtoD {
        dst: DevAddr,
        payload: Payload,
    },
    Memset {
        va: DevAddr,
        len: u64,
        value: u8,
    },
    DtoD {
        src: DevAddr,
        dst: DevAddr,
        len: u64,
    },
    Launch {
        name: String,
        args: Vec<u64>,
    },
}

/// The wire request for a journaled op that needs no staging. `HtoD`
/// (sealed at frame-build time) and `Malloc` (a barrier op returning an
/// address) have no mapping here and are handled by their callers.
fn op_request(op: &JournalOp) -> Request {
    match op {
        JournalOp::LoadModule { name } => Request::LoadModule { name: name.clone() },
        JournalOp::Free { va } => Request::Free { va: *va },
        JournalOp::Memset { va, len, value } => Request::Memset {
            va: *va,
            len: *len,
            value: *value,
        },
        JournalOp::DtoD { src, dst, len } => Request::CopyDtoD {
            src: *src,
            dst: *dst,
            len: *len,
        },
        JournalOp::Launch { name, args } => Request::Launch {
            name: name.clone(),
            args: args.clone(),
        },
        JournalOp::HtoD { .. } | JournalOp::Malloc { .. } => {
            unreachable!("staged or barrier ops have no direct request form")
        }
    }
}

/// Caller-visible identifier of one queued command: session-local,
/// monotonically increasing in submission order.
pub type CmdId = u64;

/// Completion status of one batched command, posted on the completion
/// ring after the enclave executed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmdStatus {
    /// The command executed successfully (state-bearing commands are
    /// journaled at this point).
    Ok,
    /// The command failed at the GPU enclave with the given reason.
    Err(String),
}

/// One command parked in the submission ring. The operation is stored
/// in journal form, not as an encoded request: a TDR recovery mid-drain
/// re-keys the session, and the frame must be rebuilt (HtoD payloads
/// re-sealed) under the fresh epoch's keys and nonces.
#[derive(Debug, Clone)]
enum CmdOp {
    /// A state-bearing operation (journaled once its completion lands).
    State(JournalOp),
    /// `cuCtxSynchronize` — carries no state, never journaled.
    Sync,
}

#[derive(Debug, Clone)]
struct PendingCmd {
    id: CmdId,
    submit_ns: u64,
    op: CmdOp,
}

/// A user enclave's session with the GPU enclave — the handle every
/// "HIX CUDA" call goes through.
pub struct HixSession {
    pid: ProcessId,
    id: SessionId,
    endpoint: Endpoint,
    data_ocb: Ocb,
    rng: HmacDrbg,
    htod_nonce: u64,
    dtoh_nonce: u64,
    synthetic: bool,
    journal: Vec<JournalOp>,
    epoch: u32,
    /// Submission ring: commands enqueued but not yet drained.
    pending: VecDeque<PendingCmd>,
    /// Completion ring: `(id, status)` entries not yet taken by the
    /// caller, in completion (= submission) order.
    completed: VecDeque<(CmdId, CmdStatus)>,
    next_cmd: CmdId,
    batch_max: usize,
}

impl std::fmt::Debug for HixSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HixSession")
            .field("pid", &self.pid)
            .field("id", &self.id)
            .field("htod_nonce", &self.htod_nonce)
            .finish()
    }
}

/// Runs one public session op inside a request-attribution scope: the
/// obs layer charges every span completing before `op` returns to this
/// request (per category), and the scope
/// closes on success and error paths alike. When attribution is
/// disabled or an outer op already holds the request (e.g. `resume` →
/// `sync`) no scope opens, so nested ops roll up into their caller.
fn in_request<R>(
    machine: &mut Machine,
    tenant: u64,
    name: &str,
    op: impl FnOnce(&mut Machine) -> R,
) -> R {
    let now = machine.clock().now().as_nanos();
    let req = machine.trace().obs().begin_request(now, tenant, name);
    let out = op(machine);
    if let Some(id) = req {
        let now = machine.clock().now().as_nanos();
        machine.trace().obs().end_request(id, now);
    }
    out
}

/// §5.5: remote-attests the GPU enclave before any key from it is
/// trusted — its quote must carry the pinned GPU-enclave measurement.
fn attest_enclave(machine: &mut Machine, enclave: &GpuEnclave) -> Result<(), HixCoreError> {
    let quote = enclave.quote(machine)?;
    if !quote.verify(
        &machine.provisioning_key(),
        &crate::gpu_enclave::expected_measurement(),
    ) {
        return Err(HixCoreError::Attest(crate::attest::AttestError::BadReport));
    }
    Ok(())
}

fn build_user_enclave(machine: &mut Machine, tag: &[u8]) -> Result<ProcessId, HixCoreError> {
    let pid = machine.create_process();
    machine.ecreate(pid);
    machine.eadd(pid, VirtAddr::new(0x10_0000), tag, true)?;
    machine.einit(pid)?;
    machine.eenter(pid)?;
    Ok(pid)
}

impl HixSession {
    /// Connects a fresh user enclave to the GPU enclave with a default
    /// 64 MiB shared-memory window.
    ///
    /// # Errors
    ///
    /// Propagates attestation, channel, and driver failures.
    pub fn connect(
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
    ) -> Result<HixSession, HixCoreError> {
        HixSession::connect_with(machine, enclave, 64 << 20, b"hix-user")
    }

    /// Connects with an explicit shared-memory size (must cover the
    /// largest sealed transfer) and user identity seed.
    ///
    /// # Errors
    ///
    /// Propagates attestation, channel, and driver failures.
    pub fn connect_with(
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        shared_len: u64,
        seed: &[u8],
    ) -> Result<HixSession, HixCoreError> {
        // The session id does not exist yet; connects attribute to the
        // control-plane tenant 0.
        in_request(machine, 0, "connect", |machine| {
            machine.in_span(
                "session",
                "connect",
                &[("shared_len", shared_len)],
                |machine| {
                    let pid = build_user_enclave(machine, seed)?;
                    let mut rng = HmacDrbg::new(seed);
                    attest_enclave(machine, enclave)?;
                    let shared = DmaBuffer::alloc(machine, pid, shared_len);
                    let (id, channel_key, data_key) =
                        enclave.accept_session(machine, pid, &mut rng, shared.clone())?;
                    let synthetic = machine
                        .device_mut(enclave.bdf())
                        .and_then(|d| d.as_any_mut().downcast_mut::<hix_gpu::device::GpuDevice>())
                        .is_some_and(|gpu| gpu.is_synthetic());
                    Ok(HixSession {
                        pid,
                        id,
                        endpoint: Endpoint::new(pid, shared, channel_key),
                        data_ocb: Ocb::new(&Key::from_bytes(data_key)),
                        rng,
                        htod_nonce: 0,
                        dtoh_nonce: DTOH_NONCE_BASE,
                        synthetic,
                        journal: Vec::new(),
                        epoch: 0,
                        pending: VecDeque::new(),
                        completed: VecDeque::new(),
                        next_cmd: 0,
                        batch_max: Self::DEFAULT_BATCH,
                    })
                },
            )
        })
    }

    /// The session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Points this session at the id the adopting shard assigned it
    /// after a cross-shard migration
    /// (`GpuEnclave::adopt_session`). Ids are per-shard, so the fabric
    /// scheduler relays the new one to the runtime out of band; the
    /// next request then runs the ordinary parked → stale →
    /// re-establishment path against the new shard (fresh keys, journal
    /// replay) — nothing else in the session changes here.
    pub fn rebind(&mut self, id: SessionId) {
        self.id = id;
    }

    /// The session's key/nonce epoch: 0 at connect, +1 per TDR
    /// re-establishment. Every epoch has its own channel key, data key,
    /// replay windows, and nonce counters — nothing is resumed.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Number of journaled state-bearing operations (diagnostics).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Current HtoD nonce counter (diagnostics — lets tests assert the
    /// nonce space restarted after a re-key rather than resuming).
    pub fn htod_nonce(&self) -> u64 {
        self.htod_nonce
    }

    /// The user enclave's process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The session's DRBG (for workload data generation in examples).
    pub fn rng(&mut self) -> &mut HmacDrbg {
        &mut self.rng
    }

    /// Whether the GPU enclave posted its termination notice (§4.2.3).
    /// After a graceful shutdown the GPU is back in OS hands and no
    /// longer trusted; callers should stop using the session.
    ///
    /// # Errors
    ///
    /// Propagates channel access faults.
    pub fn enclave_terminated(&self, machine: &mut Machine) -> Result<bool, HixCoreError> {
        Ok(self.endpoint.termination_noticed(machine)?)
    }

    /// Bus address of the shared-memory window. Not secret — the OS
    /// allocated it — and used by attack scenarios to aim their DMA/IOMMU
    /// manipulations.
    pub fn shared_bus(&self) -> hix_pcie::addr::PhysAddr {
        self.endpoint.buffer().bus()
    }

    /// Sends a raw pre-encoded request on the channel without the usual
    /// bookkeeping. For attack scenarios and protocol tests that need to
    /// drive the channel below the API (e.g. staging data the adversary
    /// then corrupts).
    ///
    /// # Errors
    ///
    /// Propagates channel failures.
    pub fn send_raw_request_for_test(
        &mut self,
        machine: &mut Machine,
        body: &[u8],
    ) -> Result<(), HixCoreError> {
        Ok(self.endpoint.send_request(machine, body)?)
    }

    /// One request/response exchange with ARQ recovery: on a lossy or
    /// tampered wire the runtime retransmits under capped exponential
    /// backoff, and escalates to a session re-key (with re-attestation)
    /// when the wire state desynchronizes or retransmission stops
    /// helping. On a clean wire this is a single send/poll/recv with no
    /// extra time charged and no recovery metrics touched.
    fn roundtrip(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        request: &Request,
    ) -> Result<Response, HixCoreError> {
        const MAX_ATTEMPTS: u32 = 24;
        const REKEY_AFTER: u32 = 12;
        const MAX_REKEYS: u32 = 2;
        self.endpoint.send_request(machine, &request.encode())?;
        let mut attempts: u32 = 0;
        let mut backoff: Option<Backoff> = None;
        let mut rekeys: u32 = 0;
        loop {
            // The OS may storm the GPU's config space mid-operation; the
            // PCIe lockdown must reject every write.
            machine.os_config_storm(enclave.bdf());
            let mut desync = false;
            match enclave.poll(machine, self.id) {
                Ok(_) => {}
                Err(HixCoreError::Channel(ChannelError::Desync)) => desync = true,
                Err(e) => return Err(e),
            }
            if !desync {
                match self.endpoint.recv_response(machine) {
                    Ok(body) => {
                        if attempts > 0 {
                            machine.trace().metrics().observe_with(
                                "recovery.retries_per_op",
                                &COUNT_BOUNDS,
                                attempts as u64,
                            );
                        }
                        return Response::decode(&body)
                            .ok_or_else(|| HixCoreError::Protocol("undecodable response".into()));
                    }
                    Err(
                        ChannelError::Empty
                        | ChannelError::Duplicate
                        | ChannelError::Tampered
                        | ChannelError::Malformed,
                    ) => {}
                    Err(ChannelError::Desync) => desync = true,
                    Err(e @ ChannelError::Access(_)) => return Err(e.into()),
                }
            }
            attempts += 1;
            if attempts >= MAX_ATTEMPTS {
                return Err(HixCoreError::Protocol(format!(
                    "channel unrecoverable after {MAX_ATTEMPTS} attempts"
                )));
            }
            if desync || attempts.is_multiple_of(REKEY_AFTER) {
                rekeys += 1;
                if rekeys > MAX_REKEYS {
                    return Err(HixCoreError::Protocol(
                        "channel unrecoverable: re-key budget exhausted".into(),
                    ));
                }
                let attrs = [("attempt", attempts as u64)];
                machine.in_span("recovery", "rekey", &attrs, |m| self.rekey(m, enclave))?;
                // A fresh epoch: the request goes out under a new id. If
                // the enclave already served it, it answers from its
                // cached response.
                self.endpoint.send_request(machine, &request.encode())?;
                backoff = None;
            } else {
                let base = machine.model().ipc_roundtrip;
                let b = backoff.get_or_insert_with(|| Backoff::new(base, base * 64));
                let delay = b.next_delay();
                let attrs = [("attempt", attempts as u64)];
                machine.in_span("recovery", "retransmit", &attrs, |machine| {
                    machine.charge(EventKind::Ipc, delay, "retransmit backoff");
                    machine.trace().metrics().inc(Counter::RecoveryRetries);
                    machine.trace().metrics().observe_with(
                        "recovery.backoff_ns",
                        &LATENCY_BOUNDS_NS,
                        delay.as_nanos(),
                    );
                    self.endpoint.resend_request(machine)
                })?;
            }
        }
    }

    /// Re-attests the GPU enclave and re-keys the control channel: the
    /// unrecoverable-wire escalation. The bulk data key and nonce
    /// counters are untouched.
    fn rekey(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
    ) -> Result<(), HixCoreError> {
        // Never trust a fresh key from an enclave we haven't just
        // re-verified (§5.5) — the desync may be the OS swapping GPUs.
        attest_enclave(machine, enclave)?;
        let in_flight = self.endpoint.request_id();
        let key = enclave.rekey_session(machine, self.id, &mut self.rng, in_flight)?;
        self.endpoint.rekey(key);
        self.endpoint.reset_wire(machine)?;
        Ok(())
    }

    fn expect_ok(&mut self, response: Response) -> Result<(), HixCoreError> {
        match response {
            Response::Ok => Ok(()),
            Response::Addr(_) => Err(HixCoreError::Protocol("unexpected address".into())),
            Response::Err(msg) => Err(HixCoreError::Remote(msg)),
            Response::Completions(_) => Err(HixCoreError::Protocol(
                "unexpected completions frame".into(),
            )),
            // `exec` intercepts resets before they get here.
            Response::CtxReset => Err(HixCoreError::Protocol("unhandled context reset".into())),
        }
    }

    /// Per-operation budget of transparent TDR recoveries before the
    /// runtime gives up (each retry can independently draw a new fault).
    const MAX_TDR_RETRIES: u32 = 8;

    /// One operation with transparent TDR recovery on top of the ARQ
    /// channel recovery of [`roundtrip`](Self::roundtrip): a `CtxReset`
    /// response means the session's GPU context died to a watchdog
    /// action — re-establish the session (fresh keys, fresh windows,
    /// fresh nonces), replay the journal, and retry the operation. The
    /// request is rebuilt for every attempt, so it reads the current
    /// epoch's nonce counters.
    fn exec(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        request: impl Fn(&Self) -> Request,
    ) -> Result<Response, HixCoreError> {
        let mut resets = 0u32;
        loop {
            let resp = self.roundtrip(machine, enclave, &request(self))?;
            if !matches!(resp, Response::CtxReset) {
                return Ok(resp);
            }
            self.recover(machine, enclave, &mut resets)?;
        }
    }

    /// Re-establishes the session after a TDR action and replays the
    /// journal, bounding the number of rebuild rounds (a replayed
    /// operation can itself draw a fresh fault and lose the new context
    /// too). Records the wall recovery latency. `resets` counts the
    /// context resets the current operation has met: past
    /// [`MAX_TDR_RETRIES`](Self::MAX_TDR_RETRIES) of them the operation
    /// gives up instead.
    fn recover(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        resets: &mut u32,
    ) -> Result<(), HixCoreError> {
        // Replay restarts from op 0 whenever a *new* fault lands mid-replay (the
        // rebuilt context is fresh, so partial replay state is unusable). Under a
        // heavy fault plan each round is a geometric trial, so the budget here is
        // deliberately generous; the *per-incident* latency bound lives in the
        // escalation ladder, not in this retry count.
        const MAX_RECOVERY_ROUNDS: u32 = 64;
        *resets += 1;
        if *resets > Self::MAX_TDR_RETRIES {
            return Err(HixCoreError::Protocol(
                "TDR recovery budget exhausted".into(),
            ));
        }
        machine.in_span(
            "watchdog",
            "recover",
            &[("session", u64::from(self.id))],
            |machine| {
                let start = machine.clock().now();
                let mut result = Err(HixCoreError::Protocol(
                    "TDR recovery rounds exhausted".into(),
                ));
                for _ in 0..MAX_RECOVERY_ROUNDS {
                    match self.try_recover_once(machine, enclave) {
                        Ok(true) => {
                            result = Ok(());
                            break;
                        }
                        Ok(false) => {} // another TDR mid-replay: rebuild again
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                machine.trace().metrics().observe_with(
                    "watchdog.recovery_latency_ns",
                    &LATENCY_BOUNDS_NS,
                    (machine.clock().now() - start).as_nanos(),
                );
                result
            },
        )
    }

    /// One rebuild + full journal replay. `Ok(false)` means a replayed
    /// operation hit another context reset (retry from the rebuild).
    fn try_recover_once(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
    ) -> Result<bool, HixCoreError> {
        machine.trace().metrics().inc(Counter::WatchdogRecoveries);
        // §5.5 holds here too: never accept fresh keys from an enclave
        // that has not just re-proven its identity — the "reset" could
        // be the OS swapping the device or the service.
        attest_enclave(machine, enclave)?;
        let (channel_key, data_key) = enclave.rebuild_session(machine, self.id, &mut self.rng)?;
        // A completely fresh epoch: cipher, wire sequences, replay
        // windows, data key, and nonce counters all restart. Resuming
        // any of them across a reset would reuse nonces under a key the
        // device may have leaked while outside our control.
        self.endpoint.rekey(channel_key);
        self.endpoint.reset_wire(machine)?;
        self.data_ocb = Ocb::new(&Key::from_bytes(data_key));
        self.htod_nonce = 0;
        self.dtoh_nonce = DTOH_NONCE_BASE;
        self.epoch += 1;
        for i in 0..self.journal.len() {
            let op = self.journal[i].clone();
            if !self.replay_op(machine, enclave, &op)? {
                return Ok(false);
            }
        }
        machine
            .trace()
            .metrics()
            .inc(Counter::WatchdogReplaysCompleted);
        machine.charge(
            EventKind::Security,
            Nanos::ZERO,
            "session recovered after TDR: journal replayed onto fresh context",
        );
        Ok(true)
    }

    /// Replays one journaled operation. `Ok(false)` on a nested context
    /// reset; errors are genuine (a replay must reproduce, not fail).
    fn replay_op(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        op: &JournalOp,
    ) -> Result<bool, HixCoreError> {
        let resp = match op {
            JournalOp::Malloc { len, va } => {
                match self.roundtrip(machine, enclave, &Request::Malloc { len: *len })? {
                    Response::Addr(got) => {
                        if got != *va {
                            return Err(HixCoreError::Protocol(format!(
                                "journal replay allocated {got:?}, expected {va:?}"
                            )));
                        }
                        Response::Ok
                    }
                    other => other,
                }
            }
            JournalOp::HtoD { dst, payload } => {
                let request = self.stage_htod(machine, *dst, payload)?;
                let resp = self.roundtrip(machine, enclave, &request)?;
                if matches!(resp, Response::Ok) {
                    let chunk = machine.model().pipeline_chunk;
                    self.htod_nonce += payload.len().div_ceil(chunk);
                }
                resp
            }
            _ => self.roundtrip(machine, enclave, &op_request(op))?,
        };
        match resp {
            Response::Ok => Ok(true),
            Response::CtxReset => Ok(false),
            Response::Addr(_) => Err(HixCoreError::Protocol(
                "unexpected address in replay".into(),
            )),
            Response::Completions(_) => Err(HixCoreError::Protocol(
                "unexpected completions in replay".into(),
            )),
            Response::Err(msg) => Err(HixCoreError::Remote(msg)),
        }
    }

    /// The session's shared window, keyed for the bulk data plane.
    fn window(&self) -> Window<'_> {
        Window {
            buffer: self.endpoint.buffer(),
            pid: self.pid,
            ocb: &self.data_ocb,
        }
    }

    /// Seals `payload` into the bulk area under the current epoch's data
    /// key and nonce counter and builds the matching request. The sealing
    /// charges nothing here: the GPU enclave charges the part of it the
    /// pipelined transfer exposes.
    fn stage_htod(
        &mut self,
        machine: &mut Machine,
        dst: DevAddr,
        payload: &Payload,
    ) -> Result<Request, HixCoreError> {
        let chunk = machine.model().pipeline_chunk;
        let len = payload.len();
        let nonce_start = self.htod_nonce;
        if !payload.is_synthetic() {
            // Each chunk is sealed straight into the window's pages.
            for (i, part) in payload.bytes().chunks(chunk as usize).enumerate() {
                let nonce = Nonce::from_counter(nonce_start + i as u64);
                let at = sealed_chunk_offset(i as u64, chunk);
                self.window().seal(machine, &nonce, at, part)?;
            }
        }
        machine
            .trace()
            .metrics()
            .add(Counter::DmaBytesEncrypted, len);
        Ok(Request::MemcpyHtoD {
            dst,
            len,
            chunk,
            nonce_start,
        })
    }

    /// Submission-ring capacity: enqueueing into a full ring first
    /// drains it (a backpressure flush), so occupancy never exceeds
    /// this (mirroring the device model's bounded command queue).
    pub const RING_CAPACITY: usize = 64;

    /// Default maximum number of commands drained per channel wake.
    pub const DEFAULT_BATCH: usize = 8;

    /// Number of commands waiting in the submission ring.
    pub fn pending_cmds(&self) -> usize {
        self.pending.len()
    }

    /// Drains the completion ring: every `(id, status)` entry posted
    /// since the last call, in completion (= submission) order.
    pub fn take_completions(&mut self) -> Vec<(CmdId, CmdStatus)> {
        self.completed.drain(..).collect()
    }

    /// Sets the maximum number of commands per submission frame
    /// (clamped to `1..=`[`RING_CAPACITY`](Self::RING_CAPACITY)).
    pub fn set_batch_max(&mut self, n: usize) {
        self.batch_max = n.clamp(1, Self::RING_CAPACITY);
    }

    /// Parks one command in the submission ring, draining first if the
    /// ring is full (the bounded-ring backpressure rule).
    fn enqueue(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        op: CmdOp,
    ) -> Result<CmdId, HixCoreError> {
        if self.pending.len() >= Self::RING_CAPACITY {
            machine
                .trace()
                .metrics()
                .inc(Counter::CmdqBackpressureFlushes);
            self.flush(machine, enclave)?;
        }
        let id = self.next_cmd;
        self.next_cmd += 1;
        self.pending.push_back(PendingCmd {
            id,
            submit_ns: machine.clock().now().as_nanos(),
            op,
        });
        Ok(id)
    }

    /// Enqueues a `cuModuleLoad` without waiting for it; the result
    /// arrives on the completion ring after a [`flush`](Self::flush).
    ///
    /// # Errors
    ///
    /// Propagates channel failures from a backpressure flush.
    pub fn submit_load_module(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        name: &str,
    ) -> Result<CmdId, HixCoreError> {
        self.enqueue(
            machine,
            enclave,
            CmdOp::State(JournalOp::LoadModule { name: name.into() }),
        )
    }

    /// Enqueues a `cuMemFree`.
    ///
    /// # Errors
    ///
    /// Propagates channel failures from a backpressure flush.
    pub fn submit_free(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        va: DevAddr,
    ) -> Result<CmdId, HixCoreError> {
        self.enqueue(machine, enclave, CmdOp::State(JournalOp::Free { va }))
    }

    /// Enqueues a secure host-to-device transfer. The payload is sealed
    /// at frame-build time (during the drain) under whatever epoch is
    /// current then, so a TDR recovery mid-queue transparently re-seals.
    ///
    /// # Errors
    ///
    /// Propagates channel failures from a backpressure flush. Panics
    /// (programming error) if the transfer exceeds the shared window.
    pub fn submit_htod(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        dst: DevAddr,
        payload: &Payload,
    ) -> Result<CmdId, HixCoreError> {
        let len = payload.len();
        if len == 0 {
            // Nothing to move: complete immediately, no wire traffic
            // (the synchronous wrapper's empty-transfer shortcut).
            let id = self.next_cmd;
            self.next_cmd += 1;
            self.completed.push_back((id, CmdStatus::Ok));
            return Ok(id);
        }
        assert!(
            sealed_stream_len(len, machine.model().pipeline_chunk)
                .is_some_and(|n| n <= self.endpoint.bulk_capacity()),
            "transfer exceeds the shared-memory window; reconnect with a larger one"
        );
        self.enqueue(
            machine,
            enclave,
            CmdOp::State(JournalOp::HtoD {
                dst,
                payload: payload.clone(),
            }),
        )
    }

    /// Enqueues a `cuMemsetD8`.
    ///
    /// # Errors
    ///
    /// Propagates channel failures from a backpressure flush.
    pub fn submit_memset(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        va: DevAddr,
        len: u64,
        value: u8,
    ) -> Result<CmdId, HixCoreError> {
        self.enqueue(
            machine,
            enclave,
            CmdOp::State(JournalOp::Memset { va, len, value }),
        )
    }

    /// Enqueues a device-to-device copy.
    ///
    /// # Errors
    ///
    /// Propagates channel failures from a backpressure flush.
    pub fn submit_dtod(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        src: DevAddr,
        dst: DevAddr,
        len: u64,
    ) -> Result<CmdId, HixCoreError> {
        self.enqueue(
            machine,
            enclave,
            CmdOp::State(JournalOp::DtoD { src, dst, len }),
        )
    }

    /// Enqueues a kernel launch.
    ///
    /// # Errors
    ///
    /// Propagates channel failures from a backpressure flush.
    pub fn submit_launch(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        name: &str,
        args: &[u64],
    ) -> Result<CmdId, HixCoreError> {
        self.enqueue(
            machine,
            enclave,
            CmdOp::State(JournalOp::Launch {
                name: name.into(),
                args: args.to_vec(),
            }),
        )
    }

    /// Enqueues a `cuCtxSynchronize`.
    ///
    /// # Errors
    ///
    /// Propagates channel failures from a backpressure flush.
    pub fn submit_sync(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
    ) -> Result<CmdId, HixCoreError> {
        self.enqueue(machine, enclave, CmdOp::Sync)
    }

    /// Drains the submission ring: batches of up to `batch_max`
    /// commands ride one channel wake each, and their completions land
    /// on the completion ring ([`take_completions`](Self::take_completions)).
    /// A `CtxReset` completion triggers the ordinary journal-replay
    /// recovery; the interrupted batch's tail is rebuilt (HtoD payloads
    /// re-sealed) under the fresh epoch and resubmitted.
    ///
    /// # Errors
    ///
    /// Propagates channel and recovery failures; per-command failures
    /// are *not* errors — they complete with [`CmdStatus::Err`].
    pub fn flush(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
    ) -> Result<(), HixCoreError> {
        while !self.pending.is_empty() {
            self.flush_frame(machine, enclave)?;
        }
        Ok(())
    }

    /// Builds, submits, and retires one frame off the ring's head,
    /// recovering transparently from context resets.
    fn flush_frame(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
    ) -> Result<(), HixCoreError> {
        let mut resets = 0u32;
        loop {
            let cmds = self.build_frame(machine)?;
            let sent = cmds.len();
            let resp = self.roundtrip(machine, enclave, &Request::Submit { cmds })?;
            let (entries, mut reset) = match resp {
                // Whole-frame reset: the session itself is stale (TDR
                // while parked/idle) — nothing in the frame executed.
                Response::CtxReset => (Vec::new(), true),
                Response::Completions(entries) => (entries, false),
                _ => {
                    return Err(HixCoreError::Protocol(
                        "expected a completions frame".into(),
                    ))
                }
            };
            let mut progressed = false;
            for (id, r) in entries {
                let Some(front) = self.pending.front() else {
                    return Err(HixCoreError::Protocol("completion for empty ring".into()));
                };
                if front.id != id {
                    // Per-session FIFO is a protocol invariant: the
                    // enclave completes commands in frame order and the
                    // channel is exactly-once, so any skew is hostile.
                    return Err(HixCoreError::Protocol(format!(
                        "completion {id} out of order (ring head {})",
                        front.id
                    )));
                }
                match r {
                    Response::Ok => {
                        let cmd = self.pending.pop_front().expect("checked front");
                        self.retire_ok(machine, cmd);
                        progressed = true;
                    }
                    Response::Err(msg) => {
                        let cmd = self.pending.pop_front().expect("checked front");
                        self.completed.push_back((cmd.id, CmdStatus::Err(msg)));
                        progressed = true;
                    }
                    Response::CtxReset => {
                        reset = true;
                        break;
                    }
                    Response::Addr(_) | Response::Completions(_) => {
                        return Err(HixCoreError::Protocol(
                            "unexpected completion payload".into(),
                        ))
                    }
                }
            }
            if reset {
                if progressed {
                    // The batch made progress before the reset: the
                    // retry budget is per command, not per frame.
                    resets = 0;
                }
                self.recover(machine, enclave, &mut resets)?;
                continue;
            }
            if sent > 0 && !progressed {
                return Err(HixCoreError::Protocol("empty completions frame".into()));
            }
            return Ok(());
        }
    }

    /// Cuts one frame off the ring's head under the batching
    /// invariants: at most `batch_max` commands, at most one
    /// bulk-bearing (HtoD) command per frame (the sealed stream owns
    /// the bulk area), and the encoded frame stays within the
    /// channel's body bound. HtoD payloads are sealed here, at
    /// frame-build time, under the *current* epoch.
    fn build_frame(&mut self, machine: &mut Machine) -> Result<Vec<BatchCmd>, HixCoreError> {
        // Sealed channel bodies are bounded (`MAX_BODY` = 4 KiB); leave
        // room for the message envelope and the auth tag.
        const FRAME_BYTES: usize = 0xF00;
        let mut take = 0usize;
        let mut bulk = false;
        let mut bytes = 2usize; // frame tag + count
        for cmd in &self.pending {
            if take >= self.batch_max {
                break;
            }
            let is_bulk = matches!(cmd.op, CmdOp::State(JournalOp::HtoD { .. }));
            if is_bulk && bulk {
                break;
            }
            let enc_len = match &cmd.op {
                // tag + dst + len + chunk + nonce_start.
                CmdOp::State(JournalOp::HtoD { .. }) => 33,
                CmdOp::State(op) => op_request(op).encode().len(),
                CmdOp::Sync => 1,
            };
            let entry = 8 + 8 + 4 + enc_len;
            if take > 0 && bytes + entry > FRAME_BYTES {
                break;
            }
            bytes += entry;
            bulk |= is_bulk;
            take += 1;
        }
        // A single command always goes out, whatever its size: the
        // sync path must never wedge on a frame the size check refuses.
        let take = take.max(1).min(self.pending.len());
        // Stage straight from the ring: it is moved out for the walk (so
        // `stage_htod` can borrow the session) and put back before any
        // error propagates. Nothing in it is cloned.
        let ring = std::mem::take(&mut self.pending);
        let cmds = ring
            .iter()
            .take(take)
            .map(|cmd| {
                let req = match &cmd.op {
                    CmdOp::State(JournalOp::HtoD { dst, payload }) => {
                        self.stage_htod(machine, *dst, payload)?
                    }
                    CmdOp::State(JournalOp::Malloc { .. }) => {
                        unreachable!("malloc is a barrier op, never queued")
                    }
                    CmdOp::State(op) => op_request(op),
                    CmdOp::Sync => Request::Sync,
                };
                Ok(BatchCmd {
                    id: cmd.id,
                    submit_ns: cmd.submit_ns,
                    req,
                })
            })
            .collect();
        self.pending = ring;
        cmds
    }

    /// Retires one successfully completed command: journals state-
    /// bearing ops (so recovery replays them), bumps the HtoD nonce
    /// exactly as the synchronous path did, and posts the completion.
    fn retire_ok(&mut self, machine: &mut Machine, cmd: PendingCmd) {
        match cmd.op {
            CmdOp::State(op) => {
                if let JournalOp::HtoD { payload, .. } = &op {
                    let chunk = machine.model().pipeline_chunk;
                    self.htod_nonce += payload.len().div_ceil(chunk);
                }
                self.journal.push(op);
            }
            CmdOp::Sync => {}
        }
        self.completed.push_back((cmd.id, CmdStatus::Ok));
    }

    /// Synchronous-wrapper tail: drain the ring, then pluck command
    /// `id`'s completion (other completions stay on the ring for their
    /// own callers). If the drain fails, command `id` comes back off the
    /// submission ring: a synchronous op that failed must never run later.
    fn drain_for(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        id: CmdId,
    ) -> Result<(), HixCoreError> {
        if let Err(e) = self.flush(machine, enclave) {
            self.pending.retain(|cmd| cmd.id != id);
            return Err(e);
        }
        let mut status = None;
        self.completed.retain(|(cid, s)| {
            if *cid == id {
                status = Some(s.clone());
                false
            } else {
                true
            }
        });
        match status {
            Some(CmdStatus::Ok) => Ok(()),
            Some(CmdStatus::Err(msg)) => Err(HixCoreError::Remote(msg)),
            None => Err(HixCoreError::Protocol("completion lost".into())),
        }
    }

    /// A synchronous wrapper, as one request named `name`: `submit`
    /// enqueues the command, then [`drain_for`](Self::drain_for) waits
    /// for its completion.
    fn call(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        name: &str,
        submit: impl FnOnce(&mut Self, &mut Machine, &mut GpuEnclave) -> Result<CmdId, HixCoreError>,
    ) -> Result<(), HixCoreError> {
        in_request(machine, u64::from(self.id), name, |machine| {
            let id = submit(self, machine, enclave)?;
            self.drain_for(machine, enclave, id)
        })
    }

    /// `hixModuleLoad`.
    ///
    /// # Errors
    ///
    /// Propagates channel and remote errors.
    pub fn load_module(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        name: &str,
    ) -> Result<(), HixCoreError> {
        self.call(machine, enclave, "load_module", |s, m, e| {
            s.submit_load_module(m, e, name)
        })
    }

    /// `hixMemAlloc`.
    ///
    /// # Errors
    ///
    /// Propagates channel and remote errors.
    pub fn malloc(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        len: u64,
    ) -> Result<DevAddr, HixCoreError> {
        in_request(machine, u64::from(self.id), "malloc", |machine| {
            // A barrier op: the returned address must order after every
            // queued command, so the ring drains first.
            self.flush(machine, enclave)?;
            match self.exec(machine, enclave, |_| Request::Malloc { len })? {
                Response::Addr(va) => {
                    self.journal.push(JournalOp::Malloc { len, va });
                    Ok(va)
                }
                Response::Err(msg) => Err(HixCoreError::Remote(msg)),
                Response::Ok | Response::Completions(_) => {
                    Err(HixCoreError::Protocol("expected address".into()))
                }
                Response::CtxReset => Err(HixCoreError::Protocol("unhandled context reset".into())),
            }
        })
    }

    /// `hixMemFree` (always scrubbed on the GPU).
    ///
    /// # Errors
    ///
    /// Propagates channel and remote errors.
    pub fn free(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        va: DevAddr,
    ) -> Result<(), HixCoreError> {
        self.call(machine, enclave, "free", |s, m, e| s.submit_free(m, e, va))
    }

    /// `hixMemcpyHtoD` — the single-copy pipelined secure transfer
    /// (§4.4.2/§4.4.3): seal chunks into shared memory, announce, GPU
    /// enclave DMAs the sealed stream into the destination and launches
    /// one in-GPU decryption kernel.
    ///
    /// # Errors
    ///
    /// [`HixCoreError::IntegrityFailure`] if the in-GPU check fails;
    /// channel/remote errors otherwise.
    pub fn memcpy_htod(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        dst: DevAddr,
        payload: &Payload,
    ) -> Result<(), HixCoreError> {
        let len = payload.len();
        if len == 0 {
            return Ok(());
        }
        let chunk = machine.model().pipeline_chunk;
        assert!(
            sealed_stream_len(len, chunk).is_some_and(|n| n <= self.endpoint.bulk_capacity()),
            "transfer exceeds the shared-memory window; reconnect with a larger one"
        );
        in_request(machine, u64::from(self.id), "memcpy_htod", |machine| {
            machine.in_span("session", "memcpy_htod", &[("bytes", len)], |machine| {
                // Functional plane: the transfer rides the submission ring —
                // sealing happens at frame-build time, a `CtxReset` completion
                // triggers recovery and a re-seal under the new epoch's key and
                // nonces (the old sealed stream is worthless — and must be, or
                // the reset leaked something). Journal + nonce bump happen at
                // retirement in `retire_ok`, exactly once. Time plane: the
                // enclave charges the pipelined transfer at retirement.
                let id = self.submit_htod(machine, enclave, dst, payload)?;
                self.drain_for(machine, enclave, id)
            })
        })
    }

    /// `hixMemcpyDtoH` — in-GPU encryption, DMA of sealed chunks to
    /// shared memory, pipelined user-enclave decryption.
    ///
    /// # Errors
    ///
    /// [`HixCoreError::IntegrityFailure`] if a chunk fails its tag check
    /// on the user side; channel/remote errors otherwise.
    pub fn memcpy_dtoh(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        src: DevAddr,
        len: u64,
    ) -> Result<Payload, HixCoreError> {
        if len == 0 {
            return Ok(Payload::from_bytes(Vec::new()));
        }
        let chunk = machine.model().pipeline_chunk;
        assert!(
            sealed_stream_len(len, chunk).is_some_and(|n| n <= self.endpoint.bulk_capacity()),
            "transfer exceeds the shared-memory window; reconnect with a larger one"
        );
        in_request(machine, u64::from(self.id), "memcpy_dtoh", |machine| {
            machine.in_span("session", "memcpy_dtoh", &[("bytes", len)], |machine| {
                // A barrier op: the read must observe every queued command,
                // and its sealed reply owns the bulk area — drain first.
                self.flush(machine, enclave)?;
                // Reads are not journaled (they carry no state) but still ride
                // the TDR-recovery loop: after a recovery the replayed journal
                // has reconstructed the source buffer, so the retried read
                // returns exactly the bytes the fault-free run would have.
                let resp = self.exec(machine, enclave, |s| Request::MemcpyDtoH {
                    src,
                    len,
                    chunk,
                    nonce_start: s.dtoh_nonce,
                })?;
                self.expect_ok(resp)?;
                let nonce_start = self.dtoh_nonce;
                self.dtoh_nonce += len.div_ceil(chunk);
                let payload = if self.synthetic {
                    Payload::synthetic(len)
                } else {
                    // Each sealed chunk opens straight out of the window's
                    // pages into place.
                    let mut out = vec![0u8; len as usize];
                    for (i, part) in out.chunks_mut(chunk as usize).enumerate() {
                        let nonce = Nonce::from_counter(nonce_start + i as u64);
                        let at = sealed_chunk_offset(i as u64, chunk);
                        self.window().open(machine, &nonce, at, part)?;
                    }
                    Payload::from_bytes(out)
                };
                // The unsealing is part of the pipelined transfer the enclave
                // charged before replying.
                machine
                    .trace()
                    .metrics()
                    .add(Counter::DmaBytesDecrypted, len);
                Ok(payload)
            })
        })
    }

    /// `hixMemsetD8`.
    ///
    /// # Errors
    ///
    /// Propagates channel and remote errors.
    pub fn memset(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        va: DevAddr,
        len: u64,
        value: u8,
    ) -> Result<(), HixCoreError> {
        self.call(machine, enclave, "memset", |s, m, e| {
            s.submit_memset(m, e, va, len, value)
        })
    }

    /// `hixMemcpyDtoD` — device-to-device, never leaves the GPU, so no
    /// crypto round trip is needed (and none is charged).
    ///
    /// # Errors
    ///
    /// Propagates channel and remote errors.
    pub fn memcpy_dtod(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        src: DevAddr,
        dst: DevAddr,
        len: u64,
    ) -> Result<(), HixCoreError> {
        self.call(machine, enclave, "memcpy_dtod", |s, m, e| {
            s.submit_dtod(m, e, src, dst, len)
        })
    }

    /// `hixLaunchKernel` (synchronous — the GPU enclave syncs before
    /// replying, surfacing any kernel error).
    ///
    /// # Errors
    ///
    /// Propagates channel and remote errors.
    pub fn launch(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
        name: &str,
        args: &[u64],
    ) -> Result<(), HixCoreError> {
        self.call(machine, enclave, "launch", |s, m, e| {
            s.submit_launch(m, e, name, args)
        })
    }

    /// `hixCtxSynchronize`.
    ///
    /// # Errors
    ///
    /// Propagates channel and remote errors.
    pub fn sync(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
    ) -> Result<(), HixCoreError> {
        self.call(machine, enclave, "sync", |s, m, e| s.submit_sync(m, e))
    }

    /// Resumes a session that may have been parked (sealed out of the
    /// enclave's resident set) or staled by a TDR action while the user
    /// was idle: one sync round-trip wakes the enclave side, and the
    /// ordinary recovery path transparently unseals, re-keys, and
    /// replays the journal if needed. Returns `true` when the session
    /// was re-established (the epoch advanced — fresh keys, fresh
    /// nonces), `false` when it was still live and nothing changed.
    ///
    /// # Errors
    ///
    /// Propagates channel and remote errors, including
    /// [`HixCoreError::Evicted`] for users the repeat-offender policy
    /// banned while they were parked.
    pub fn resume(
        &mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
    ) -> Result<bool, HixCoreError> {
        // The nested `sync` opens no request of its own while this one
        // is open, so a resume attributes as one request.
        let before = self.epoch;
        in_request(machine, u64::from(self.id), "resume", |m| {
            self.sync(m, enclave)
        })?;
        Ok(self.epoch > before)
    }

    /// Ends the session: the GPU context is destroyed and its memory
    /// scrubbed.
    ///
    /// # Errors
    ///
    /// Propagates channel and remote errors.
    pub fn close(
        mut self,
        machine: &mut Machine,
        enclave: &mut GpuEnclave,
    ) -> Result<(), HixCoreError> {
        in_request(machine, u64::from(self.id), "close", |machine| {
            // Drain any still-queued commands before tearing down.
            self.flush(machine, enclave)?;
            let resp = match self.roundtrip(machine, enclave, &Request::Close) {
                Ok(resp) => resp,
                // The Close was served but its ack lost: the retransmitted
                // Close finds the session already gone. That is a close.
                Err(HixCoreError::Protocol(msg)) if msg.starts_with("unknown session") => {
                    Response::Ok
                }
                Err(e) => return Err(e),
            };
            self.expect_ok(resp)?;
            // Release the shared window's frames.
            let buffer = self.endpoint.buffer().clone();
            buffer.release(machine);
            Ok(())
        })
    }
}

/// The session's view of its shared window for the bulk data plane: the
/// user side seals HtoD chunks straight into the window's pages and opens
/// DtoH chunks straight out of them, so no sealed chunk is ever staged in
/// enclave memory. Each chunk's sealed span is walked a page at a time,
/// every page once and in order, as one `write_bytes`/`read_into` of the
/// span would: the TLB sees the same translations. The window is
/// page-aligned, [`BULK_OFFSET`] is too and the chunk stride is
/// `chunk + TAG_LEN`, so with a chunk of whole blocks every page boundary
/// falls on a block boundary. The tail and tag, and a block that
/// straddles a page boundary when the chunk is not a whole number of
/// blocks, pass through a 32-byte stack buffer.
struct Window<'a> {
    buffer: &'a DmaBuffer,
    pid: ProcessId,
    ocb: &'a Ocb,
}

/// Bytes from window offset `at` to the end of its page, capped at `left`.
fn page_take(at: u64, left: usize) -> usize {
    ((PAGE_SIZE - at % PAGE_SIZE) as usize).min(left)
}

impl Window<'_> {
    /// Seals `plain` under `nonce` into the `plain.len() + TAG_LEN`-byte
    /// span at window offset `at`.
    fn seal(
        &self,
        machine: &mut Machine,
        nonce: &Nonce,
        at: u64,
        plain: &[u8],
    ) -> Result<(), HixCoreError> {
        let whole = plain.len() / BLOCK * BLOCK;
        let total = plain.len() + TAG_LEN;
        let mut stream = Some(self.ocb.stream(nonce));
        // Sealed bytes not yet placed in the window: stage[next..end].
        let mut stage = [0u8; 2 * BLOCK];
        let (mut next, mut end) = (0, 0);
        let mut sealed = 0;
        let mut pos = 0;
        while pos < total {
            let take = page_take(at + pos as u64, total - pos);
            self.buffer
                .with_page_mut(machine, self.pid, at + pos as u64, take, |page| {
                    let mut i = 0;
                    while i < take {
                        if next < end {
                            let n = (end - next).min(take - i);
                            page[i..i + n].copy_from_slice(&stage[next..next + n]);
                            (next, i) = (next + n, i + n);
                        } else if sealed < whole {
                            let stream = stream.as_mut().expect("sealing until the finish");
                            let run = ((take - i) / BLOCK * BLOCK).min(whole - sealed);
                            if run > 0 {
                                stream
                                    .seal_run(&plain[sealed..sealed + run], &mut page[i..i + run]);
                                (sealed, i) = (sealed + run, i + run);
                            } else {
                                let block = &plain[sealed..sealed + BLOCK];
                                stream.seal_run(block, &mut stage[..BLOCK]);
                                (sealed, next, end) = (sealed + BLOCK, 0, BLOCK);
                            }
                        } else {
                            let stream = stream.take().expect("one finish per chunk");
                            let tail = &plain[whole..];
                            let (tail_out, tag) = stage.split_at_mut(tail.len());
                            tag[..TAG_LEN]
                                .copy_from_slice(&stream.seal_finish(DATA_AAD, tail, tail_out));
                            (next, end) = (0, tail.len() + TAG_LEN);
                        }
                    }
                })?;
            pos += take;
        }
        Ok(())
    }

    /// Opens the `out.len() + TAG_LEN`-byte sealed span at window offset
    /// `at` under `nonce` into `out`. The caller releases `out` only on
    /// success.
    ///
    /// # Errors
    ///
    /// [`HixCoreError::IntegrityFailure`] if the tag fails to verify.
    fn open(
        &self,
        machine: &mut Machine,
        nonce: &Nonce,
        at: u64,
        out: &mut [u8],
    ) -> Result<(), HixCoreError> {
        let whole = out.len() / BLOCK * BLOCK;
        let total = out.len() + TAG_LEN;
        let mut stream = self.ocb.stream(nonce);
        // A block that straddles a page boundary, or (past the whole
        // blocks) the tail and tag, gathered so far: stage[..staged].
        let mut stage = [0u8; 2 * BLOCK];
        let mut staged = 0;
        let mut opened = 0;
        let mut pos = 0;
        while pos < total {
            let take = page_take(at + pos as u64, total - pos);
            self.buffer
                .with_page(machine, self.pid, at + pos as u64, take, |page| {
                    let mut i = 0;
                    while i < take {
                        let run = ((take - i) / BLOCK * BLOCK).min(whole - opened);
                        if staged == 0 && run > 0 {
                            stream.open_run(&page[i..i + run], &mut out[opened..opened + run]);
                            (opened, i) = (opened + run, i + run);
                            continue;
                        }
                        let want = if opened < whole { BLOCK } else { total - whole };
                        let n = (want - staged).min(take - i);
                        stage[staged..staged + n].copy_from_slice(&page[i..i + n]);
                        (staged, i) = (staged + n, i + n);
                        if opened < whole && staged == BLOCK {
                            stream.open_run(&stage[..BLOCK], &mut out[opened..opened + BLOCK]);
                            (opened, staged) = (opened + BLOCK, 0);
                        }
                    }
                })?;
            pos += take;
        }
        let (tail, tag) = stage[..total - whole].split_at(out.len() - whole);
        stream
            .open_finish(DATA_AAD, tail, tag, &mut out[whole..])
            .map_err(|_| HixCoreError::IntegrityFailure)
    }
}

/// Convenience used by tests/benchmarks: required shared-window size for
/// a given largest transfer.
pub fn shared_window_for(model: &CostModel, largest_transfer: u64) -> u64 {
    let sealed =
        sealed_stream_len(largest_transfer, model.pipeline_chunk).expect("sealed length fits u64");
    (BULK_OFFSET + sealed).div_ceil(PAGE_SIZE) * PAGE_SIZE + PAGE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu_enclave::GpuEnclaveOptions;
    use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};

    fn setup() -> (Machine, GpuEnclave) {
        let mut m = standard_rig(RigOptions::default());
        let enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
        (m, enclave)
    }

    /// A tenant kernel: squares `n` i32s in place.
    struct Square;

    impl hix_gpu::GpuKernel for Square {
        fn name(&self) -> &str {
            "test.square"
        }
        fn cost(&self, _m: &CostModel, _a: &[u64]) -> Nanos {
            Nanos::from_micros(10)
        }
        fn run(&self, exec: &mut hix_gpu::KernelExec<'_>) -> Result<(), hix_gpu::KernelError> {
            let ptr = DevAddr(exec.arg(0)?);
            let mut v = exec.read_i32s(ptr, exec.arg(1)? as usize)?;
            v.iter_mut().for_each(|x| *x *= *x);
            exec.write_i32s(ptr, &v)
        }
    }

    fn setup_with_square() -> (Machine, GpuEnclave) {
        let mut m = standard_rig(RigOptions {
            kernels: vec![Box::new(Square)],
            ..Default::default()
        });
        let enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
        (m, enclave)
    }

    fn setup_with_evict_after(evict_after: u32) -> (Machine, GpuEnclave) {
        let mut m = standard_rig(RigOptions::default());
        let enclave = GpuEnclave::launch(
            &mut m,
            GpuEnclaveOptions {
                evict_after,
                ..Default::default()
            },
        )
        .unwrap();
        (m, enclave)
    }

    #[test]
    fn session_survives_gpu_hangs_with_transparent_recovery() {
        use hix_sim::fault::{FaultConfig, FaultPlan};
        let (mut m, mut enclave) = setup_with_evict_after(1000);
        m.set_fault_plan(FaultPlan::new(
            11,
            FaultConfig {
                gpu_hang_pm: 100,
                gpu_lost_pm: 60,
                gpu_spurious_pm: 60,
                ..FaultConfig::none()
            },
        ));
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 65536).unwrap();
        let data: Vec<u8> = (0..65536u32).map(|i| (i * 13 + 7) as u8).collect();
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(data.clone()),
        )
        .unwrap();
        let dev2 = s.malloc(&mut m, &mut enclave, 65536).unwrap();
        for _ in 0..6 {
            s.memcpy_dtod(&mut m, &mut enclave, dev, dev2, 65536)
                .unwrap();
        }
        let back = s.memcpy_dtoh(&mut m, &mut enclave, dev2, 65536).unwrap();
        assert_eq!(back.bytes(), &data[..], "recovery must be byte-identical");
        let hangs = m.trace().metrics().counter("watchdog.hangs_detected");
        assert!(hangs > 0, "the plan must actually hang at these rates");
        assert!(m.trace().metrics().counter("watchdog.kills") > 0);
        assert_eq!(
            m.trace().metrics().counter("watchdog.resets"),
            0,
            "un-wedged hangs recover at the kill rung, never a full reset"
        );
        assert!(s.epoch() > 0, "recovery must have re-keyed the session");
        assert_eq!(
            m.trace().count(EventKind::Fault),
            m.trace().metrics().counter("fault.injected"),
            "every injection emits exactly one Fault event"
        );
    }

    #[test]
    fn wedged_context_forces_secure_reset_and_fresh_epoch() {
        use hix_sim::fault::{FaultConfig, FaultPlan};
        let (mut m, mut enclave) = setup_with_evict_after(1000);
        m.set_fault_plan(FaultPlan::new(
            3,
            FaultConfig {
                gpu_hang_pm: 100,
                gpu_wedge_pm: 1000,
                ..FaultConfig::none()
            },
        ));
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 32768).unwrap();
        let data: Vec<u8> = (0..32768u32).map(|i| (i ^ 0x5a) as u8).collect();
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(data.clone()),
        )
        .unwrap();
        let dev2 = s.malloc(&mut m, &mut enclave, 32768).unwrap();
        for _ in 0..8 {
            s.memcpy_dtod(&mut m, &mut enclave, dev, dev2, 32768)
                .unwrap();
        }
        let back = s.memcpy_dtoh(&mut m, &mut enclave, dev2, 32768).unwrap();
        assert_eq!(back.bytes(), &data[..]);
        assert!(
            m.trace().metrics().counter("watchdog.resets") > 0,
            "wedged contexts must escalate to the reset rung"
        );
        assert!(
            m.trace().metrics().counter("gpu.kill_ignored") > 0,
            "the kill rung must have been tried and ignored first"
        );
        assert!(s.epoch() > 0);
        // Re-keyed, not resumed: the HtoD nonce counter ends at exactly
        // the fault-free value (the one journaled transfer's chunks) —
        // a counter resumed across re-keys would exceed it after the
        // replays.
        let chunks = 32768u64.div_ceil(m.model().pipeline_chunk);
        assert_eq!(s.htod_nonce(), chunks);
    }

    #[test]
    fn vram_corruption_is_detected_and_recovered() {
        use hix_sim::fault::{FaultConfig, FaultPlan};
        let (mut m, mut enclave) = setup_with_evict_after(1000);
        m.set_fault_plan(FaultPlan::new(
            9,
            FaultConfig {
                gpu_vram_flip_pm: 250,
                ..FaultConfig::none()
            },
        ));
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 16384).unwrap();
        let data: Vec<u8> = (0..16384u32).map(|i| (i * 7 + 3) as u8).collect();
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(data.clone()),
        )
        .unwrap();
        let dev2 = s.malloc(&mut m, &mut enclave, 16384).unwrap();
        for _ in 0..6 {
            s.memcpy_dtod(&mut m, &mut enclave, dev, dev2, 16384)
                .unwrap();
        }
        let back = s.memcpy_dtoh(&mut m, &mut enclave, dev2, 16384).unwrap();
        assert_eq!(
            back.bytes(),
            &data[..],
            "corrupted buffers must be reconstructed from the journal, never read back"
        );
        assert!(
            m.trace().metrics().counter("watchdog.ecc_kills") > 0,
            "the plan must actually flip bits at these rates"
        );
    }

    #[test]
    fn repeat_offender_is_permanently_evicted() {
        use hix_sim::fault::{FaultConfig, FaultPlan};
        let (mut m, mut enclave) = setup_with_evict_after(2);
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        let a = s.malloc(&mut m, &mut enclave, 4096).unwrap();
        let b = s.malloc(&mut m, &mut enclave, 4096).unwrap();
        // Every eligible command hangs wedged: kill is ignored, every
        // hang costs a full reset.
        m.set_fault_plan(FaultPlan::new(
            1,
            FaultConfig {
                gpu_hang_pm: 1000,
                gpu_wedge_pm: 1000,
                ..FaultConfig::none()
            },
        ));
        let err = s.memcpy_dtod(&mut m, &mut enclave, a, b, 4096);
        assert!(matches!(err, Err(HixCoreError::Evicted)), "{err:?}");
        assert!(enclave.is_evicted(s.pid()));
        assert_eq!(enclave.offenses(s.pid()), 2);
        assert_eq!(m.trace().metrics().counter("watchdog.resets"), 2);
        assert_eq!(m.trace().metrics().counter("watchdog.evictions"), 1);
        // Eviction is permanent: even on a healthy GPU the user cannot
        // re-establish.
        m.clear_fault_plan();
        let again = s.sync(&mut m, &mut enclave);
        assert!(matches!(again, Err(HixCoreError::Evicted)), "{again:?}");
    }

    #[test]
    fn every_operation_gives_up_after_its_tdr_budget() {
        use hix_sim::fault::{FaultConfig, FaultPlan};
        let (mut m, mut enclave) = setup_with_square();
        let mut s = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"budget").unwrap();
        s.load_module(&mut m, &mut enclave, "test.square").unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 4096).unwrap();
        // Every data-plane command hangs and every kill lands. Rebuilds
        // and the journal (the module load and one malloc) are
        // control-plane work the plan never touches, so each recovery
        // succeeds and each retry hangs.
        m.set_fault_plan(FaultPlan::new(
            5,
            FaultConfig {
                gpu_hang_pm: 1000,
                gpu_wedge_pm: 0,
                ..FaultConfig::none()
            },
        ));
        let recoveries = |m: &Machine| m.trace().metrics().counter("watchdog.recoveries");
        let budget = u64::from(HixSession::MAX_TDR_RETRIES);
        // A read retries through `exec`...
        let exhausted = "protocol violation: TDR recovery budget exhausted";
        let before = recoveries(&m);
        let err = s.memcpy_dtoh(&mut m, &mut enclave, dev, 4096).unwrap_err();
        assert_eq!(err.to_string(), exhausted);
        assert_eq!(recoveries(&m) - before, budget);
        // ...and a synchronous launch through `flush_frame`.
        let before = recoveries(&m);
        let err = s
            .launch(&mut m, &mut enclave, "test.square", &[dev.value(), 4])
            .unwrap_err();
        assert_eq!(err.to_string(), exhausted);
        assert_eq!(recoveries(&m) - before, budget);
    }

    #[test]
    fn a_failed_synchronous_op_never_runs_later() {
        use hix_sim::fault::{FaultConfig, FaultPlan};
        let (mut m, mut enclave) = setup();
        let mut s = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"undone").unwrap();
        let a = s.malloc(&mut m, &mut enclave, 4096).unwrap();
        let b = s.malloc(&mut m, &mut enclave, 4096).unwrap();
        // Memsets are never fault-eligible, so the journal replays cleanly.
        s.memset(&mut m, &mut enclave, a, 4096, 0xa5).unwrap();
        s.memset(&mut m, &mut enclave, b, 4096, 0x3c).unwrap();
        let journal = s.journal_len();
        m.set_fault_plan(FaultPlan::new(
            5,
            FaultConfig {
                gpu_hang_pm: 1000,
                gpu_wedge_pm: 0,
                ..FaultConfig::none()
            },
        ));
        let failed = s.next_cmd;
        assert!(s.memcpy_dtod(&mut m, &mut enclave, a, b, 4096).is_err());
        assert_eq!(s.pending_cmds(), 0, "the failed copy stays queued");
        m.clear_fault_plan();
        s.sync(&mut m, &mut enclave).unwrap();
        assert_eq!(s.journal_len(), journal, "the failed copy was journaled");
        assert!(s.take_completions().iter().all(|(id, _)| *id != failed));
        let back = s.memcpy_dtoh(&mut m, &mut enclave, b, 4096).unwrap();
        assert!(
            back.bytes().iter().all(|&x| x == 0x3c),
            "the failed copy ran later"
        );
    }

    /// A session with a 1 MiB window and one 4 KiB buffer, to send
    /// hostile requests around the runtime.
    fn hostile() -> (Machine, GpuEnclave, HixSession, DevAddr) {
        let (mut m, mut enclave) = setup();
        let mut s = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"hostile").unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 4096).unwrap();
        (m, enclave, s, dev)
    }

    /// Sends `request` raw; the enclave must serve it with a refusal.
    fn refused(m: &mut Machine, enclave: &mut GpuEnclave, s: &mut HixSession, request: Request) {
        s.send_raw_request_for_test(m, &request.encode()).unwrap();
        assert!(enclave.poll(m, s.id()).unwrap());
        let response = Response::decode(&s.endpoint.recv_response(m).unwrap());
        assert!(matches!(response, Some(Response::Err(_))), "{response:?}");
    }

    #[test]
    fn a_rekey_never_re_executes_a_served_request() {
        let (mut m, mut enclave) = setup();
        let mut s = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"rekey").unwrap();
        let malloc = Request::Malloc { len: 4096 }.encode();
        let dup_served = |m: &Machine| m.trace().metrics().counter("recovery.dup_served");

        // The enclave serves a malloc whose response the user takes as
        // lost: it re-keys and re-sends the request under a fresh id, as
        // `roundtrip` does. The enclave answers from its cache.
        s.send_raw_request_for_test(&mut m, &malloc).unwrap();
        assert!(enclave.poll(&mut m, s.id()).unwrap());
        let served = Response::decode(&s.endpoint.recv_response(&mut m).unwrap());
        assert!(matches!(served, Some(Response::Addr(_))), "{served:?}");
        s.rekey(&mut m, &mut enclave).unwrap();
        let before = dup_served(&m);
        s.endpoint.send_request(&mut m, &malloc).unwrap();
        assert!(enclave.poll(&mut m, s.id()).unwrap());
        let answered = Response::decode(&s.endpoint.recv_response(&mut m).unwrap());
        assert_eq!(answered, served, "the re-sent malloc ran again");
        assert_eq!(dup_served(&m), before + 1);

        // A request the enclave never saw runs once in the new epoch.
        s.send_raw_request_for_test(&mut m, &malloc).unwrap();
        s.rekey(&mut m, &mut enclave).unwrap();
        s.endpoint.send_request(&mut m, &malloc).unwrap();
        assert!(enclave.poll(&mut m, s.id()).unwrap());
        let fresh = Response::decode(&s.endpoint.recv_response(&mut m).unwrap());
        assert!(matches!(fresh, Some(Response::Addr(_))), "{fresh:?}");
        assert_ne!(fresh, served);
        assert_eq!(dup_served(&m), before + 1);
    }

    #[test]
    fn a_malloc_whose_padding_overflows_is_refused() {
        let (mut m, mut enclave, mut s, _) = hostile();
        refused(
            &mut m,
            &mut enclave,
            &mut s,
            Request::Malloc { len: u64::MAX },
        );
    }

    #[test]
    fn an_htod_whose_sealed_length_overflows_is_refused() {
        let (mut m, mut enclave, mut s, dst) = hostile();
        let chunk = m.model().pipeline_chunk;
        let req = Request::MemcpyHtoD {
            dst,
            len: u64::MAX,
            chunk,
            nonce_start: 0,
        };
        refused(&mut m, &mut enclave, &mut s, req);
    }

    #[test]
    fn an_htod_with_a_zero_chunk_is_refused() {
        let (mut m, mut enclave, mut s, dst) = hostile();
        let req = Request::MemcpyHtoD {
            dst,
            len: 4096,
            chunk: 0,
            nonce_start: 0,
        };
        refused(&mut m, &mut enclave, &mut s, req);
    }

    #[test]
    fn a_dtoh_with_a_foreign_chunk_is_refused() {
        let (mut m, mut enclave, mut s, src) = hostile();
        let req = Request::MemcpyDtoH {
            src,
            len: 4096,
            chunk: u64::MAX - 3,
            nonce_start: 0,
        };
        refused(&mut m, &mut enclave, &mut s, req);
    }

    #[test]
    fn a_dtoh_whose_nonces_overflow_is_refused() {
        let (mut m, mut enclave) = setup();
        let len = 2 * m.model().pipeline_chunk;
        let window = shared_window_for(m.model(), len);
        let mut s = HixSession::connect_with(&mut m, &mut enclave, window, b"hostile").unwrap();
        let src = s.malloc(&mut m, &mut enclave, len).unwrap();
        let chunk = m.model().pipeline_chunk;
        let req = Request::MemcpyDtoH {
            src,
            len,
            chunk,
            nonce_start: u64::MAX,
        };
        refused(&mut m, &mut enclave, &mut s, req);
    }

    #[test]
    fn a_dtoh_past_its_window_leaves_the_neighbour_untouched() {
        let (mut m, mut enclave, mut s, _) = hostile();
        let n = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"neighbour").unwrap();
        let window = |m: &mut Machine| n.endpoint.buffer().read(m, n.pid, 0, 1 << 20).unwrap();
        let before = window(&mut m);
        let len = 3 << 20;
        let src = s.malloc(&mut m, &mut enclave, len).unwrap();
        let chunk = m.model().pipeline_chunk;
        refused(
            &mut m,
            &mut enclave,
            &mut s,
            Request::MemcpyDtoH {
                src,
                len,
                chunk,
                nonce_start: 0,
            },
        );
        assert!(window(&mut m) == before, "the neighbour's window changed");
    }

    #[test]
    fn a_sealed_stream_that_fills_a_small_window_round_trips() {
        let (mut m, mut enclave) = setup();
        let window = shared_window_for(m.model(), 96 << 10);
        let mut s = HixSession::connect_with(&mut m, &mut enclave, window, b"small").unwrap();
        let chunk = m.model().pipeline_chunk;
        let capacity = s.endpoint.bulk_capacity();
        assert!(
            capacity < chunk + TAG_LEN as u64,
            "the staging is smaller than a chunk"
        );
        // One chunk whose sealed stream is exactly the window's bulk
        // capacity, and so exactly the session's staging buffer.
        let len = capacity - TAG_LEN as u64;
        assert_eq!(sealed_stream_len(len, chunk), Some(capacity));
        let dev = s.malloc(&mut m, &mut enclave, len + 1).unwrap();
        let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(data.clone()),
        )
        .unwrap();
        // Read twice: the allocation sits right after the staging in the
        // session's device address space, so a chunk staged past the
        // staging's end would land in it.
        for _ in 0..2 {
            let back = s.memcpy_dtoh(&mut m, &mut enclave, dev, len).unwrap();
            assert!(
                back.bytes() == data.as_slice(),
                "the round trip changed the data"
            );
        }
        // One byte more is refused before any DMA.
        let dma = |m: &Machine| {
            let metrics = m.trace().metrics();
            (
                metrics.counter("dma.bytes_htod"),
                metrics.counter("dma.bytes_dtoh"),
            )
        };
        let before = dma(&m);
        let len = len + 1;
        for request in [
            Request::MemcpyHtoD {
                dst: dev,
                len,
                chunk,
                nonce_start: 0,
            },
            Request::MemcpyDtoH {
                src: dev,
                len,
                chunk,
                nonce_start: 0,
            },
        ] {
            s.send_raw_request_for_test(&mut m, &request.encode())
                .unwrap();
            assert!(enclave.poll(&mut m, s.id()).unwrap());
            let response = Response::decode(&s.endpoint.recv_response(&mut m).unwrap());
            assert_eq!(
                response,
                Some(Response::Err("transfer geometry out of bounds".into()))
            );
        }
        assert_eq!(dma(&m), before, "a refused transfer moved bytes");
    }

    #[test]
    fn a_transfer_whose_device_range_wraps_is_refused() {
        let (mut m, mut enclave, mut s, _) = hostile();
        let chunk = m.model().pipeline_chunk;
        let top = DevAddr(u64::MAX - 4095);
        let htod = Request::MemcpyHtoD {
            dst: top,
            len: 8192,
            chunk,
            nonce_start: 0,
        };
        refused(&mut m, &mut enclave, &mut s, htod);
        let dtoh = Request::MemcpyDtoH {
            src: top,
            len: 8192,
            chunk,
            nonce_start: 0,
        };
        refused(&mut m, &mut enclave, &mut s, dtoh);
    }

    #[test]
    fn a_failed_malloc_leaves_vram_for_every_session() {
        let (mut m, mut enclave) = setup();
        let mut a = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"alice").unwrap();
        let mut b = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"bob").unwrap();
        // More than the GPU's 1.5 GiB of VRAM.
        assert!(a.malloc(&mut m, &mut enclave, 2 << 30).is_err());
        for s in [&mut a, &mut b] {
            s.malloc(&mut m, &mut enclave, 4096).unwrap();
        }
    }

    #[test]
    fn a_tenant_can_neither_load_nor_launch_the_enclaves_crypto_kernels() {
        use hix_gpu::crypto_kernels::{DECRYPT_KERNEL, ENCRYPT_KERNEL};
        let (mut m, mut enclave, mut s, dev) = hostile();
        let data = Payload::from_bytes(vec![0x5a; 4096]);
        s.memcpy_htod(&mut m, &mut enclave, dev, &data).unwrap();
        let args = [dev.value(), 4096, u64::MAX, 0];
        let launch = s.launch(&mut m, &mut enclave, DECRYPT_KERNEL, &args);
        assert!(
            launch.is_err(),
            "a tenant launched the enclave's decryption"
        );
        let load = s.load_module(&mut m, &mut enclave, ENCRYPT_KERNEL);
        assert!(
            load.is_err(),
            "a tenant loaded the enclave's encryption kernel"
        );
        s.sync(&mut m, &mut enclave).unwrap();
        let back = s.memcpy_dtoh(&mut m, &mut enclave, dev, 4096).unwrap();
        assert_eq!(back.bytes(), data.bytes());
    }

    #[test]
    fn clean_runs_take_zero_watchdog_actions() {
        let (mut m, mut enclave) = setup();
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 65536).unwrap();
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(vec![0x42; 65536]),
        )
        .unwrap();
        let _ = s.memcpy_dtoh(&mut m, &mut enclave, dev, 65536).unwrap();
        s.close(&mut m, &mut enclave).unwrap();
        for metric in [
            "watchdog.hangs_detected",
            "watchdog.kills",
            "watchdog.resets",
            "watchdog.recoveries",
            "watchdog.offenses",
            "watchdog.evictions",
        ] {
            assert_eq!(
                m.trace().metrics().counter(metric),
                0,
                "{metric} on a clean run"
            );
        }
    }

    #[test]
    fn session_survives_a_hostile_wire() {
        use hix_sim::fault::{FaultConfig, FaultPlan};
        let (mut m, mut enclave) = setup();
        m.set_fault_plan(FaultPlan::new(
            7,
            FaultConfig {
                drop_pm: 60,
                dup_pm: 40,
                reorder_pm: 40,
                delay_pm: 40,
                corrupt_pm: 60,
                dma_flip_pm: 40,
                cfg_storm_pm: 30,
                ..FaultConfig::none()
            },
        ));
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 100_000).unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 31) as u8).collect();
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(data.clone()),
        )
        .unwrap();
        let back = s.memcpy_dtoh(&mut m, &mut enclave, dev, 100_000).unwrap();
        assert_eq!(back.bytes(), &data[..], "faults must never corrupt results");
        s.close(&mut m, &mut enclave).unwrap();
        let injected = m.trace().metrics().counter("fault.injected");
        assert!(injected > 0, "the plan must actually fire at these rates");
        assert_eq!(
            m.trace().count(EventKind::Fault),
            injected,
            "every injection emits exactly one Fault event"
        );
        let recovered = m.trace().metrics().counter("recovery.retries")
            + m.trace().metrics().counter("recovery.redma")
            + m.trace().metrics().counter("recovery.dup_served")
            + m.trace().metrics().counter("recovery.rekeys");
        assert!(recovered > 0, "recovery machinery must have engaged");
    }

    #[test]
    fn session_malloc_and_transfer_roundtrip() {
        let (mut m, mut enclave) = setup();
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 100_000).unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 31) as u8).collect();
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(data.clone()),
        )
        .unwrap();
        let back = s.memcpy_dtoh(&mut m, &mut enclave, dev, 100_000).unwrap();
        assert_eq!(back.bytes(), &data[..]);
        s.close(&mut m, &mut enclave).unwrap();
        assert_eq!(enclave.session_count(), 0);
    }

    #[test]
    fn plaintext_never_in_shared_memory_or_dma_path() {
        let (mut m, mut enclave) = setup();
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 4096).unwrap();
        let secret = b"TOP-SECRET-TENSOR-DATA-0123456789".repeat(100);
        let bus = s.endpoint.buffer().bus();
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(secret.clone()),
        )
        .unwrap();
        // Adversary dumps the whole shared window.
        let window = s.endpoint.buffer().len();
        let mut dump = vec![0u8; window as usize];
        for off in (0..window).step_by(PAGE_SIZE as usize) {
            if let Some(pa) = m.iommu_mut().translate(bus.offset(off)) {
                let take = (window - off).min(PAGE_SIZE) as usize;
                let mut page = vec![0u8; take];
                m.os_read_phys(pa, &mut page);
                dump[off as usize..off as usize + take].copy_from_slice(&page);
            }
        }
        let needle = &secret[..24];
        assert!(
            !dump.windows(needle.len()).any(|w| w == needle),
            "plaintext visible in the shared memory window"
        );
        // But it *is* in GPU memory (decrypted in-GPU), proving the
        // transfer really happened.
        let back = s
            .memcpy_dtoh(&mut m, &mut enclave, dev, secret.len() as u64)
            .unwrap();
        assert_eq!(back.bytes(), &secret[..]);
    }

    #[test]
    fn multi_chunk_transfers() {
        let (mut m, mut enclave) = setup();
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        // 3.5 pipeline chunks.
        let len = (m.model().pipeline_chunk * 7 / 2) as usize;
        let dev = s.malloc(&mut m, &mut enclave, len as u64).unwrap();
        let data: Vec<u8> = (0..len as u32).map(|i| (i ^ (i >> 11)) as u8).collect();
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(data.clone()),
        )
        .unwrap();
        let back = s
            .memcpy_dtoh(&mut m, &mut enclave, dev, len as u64)
            .unwrap();
        assert_eq!(back.bytes(), &data[..]);
    }

    #[test]
    fn a_flipped_chunk_is_re_dmaed_alone() {
        use hix_sim::fault::{FaultConfig, FaultPlan};
        let (mut m, mut enclave) = setup();
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        // 2.5 pipeline chunks; the OS flips a bit in every first pass.
        let len = (m.model().pipeline_chunk * 5 / 2) as usize;
        let dev = s.malloc(&mut m, &mut enclave, len as u64).unwrap();
        let data: Vec<u8> = (0..len as u32).map(|i| (i ^ (i >> 9)) as u8).collect();
        m.set_fault_plan(FaultPlan::new(
            3,
            FaultConfig {
                dma_flip_pm: 1000,
                ..FaultConfig::none()
            },
        ));
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(data.clone()),
        )
        .unwrap();
        m.clear_fault_plan();
        assert_eq!(
            m.trace().metrics().counter("recovery.redma"),
            3,
            "one re-DMA per chunk"
        );
        let back = s
            .memcpy_dtoh(&mut m, &mut enclave, dev, len as u64)
            .unwrap();
        assert_eq!(back.bytes(), &data[..]);
    }

    #[test]
    #[should_panic(expected = "shared-memory window")]
    fn transfer_larger_than_window_is_a_programming_error() {
        let (mut m, mut enclave) = setup();
        let mut s = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"tiny").unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 8 << 20).unwrap();
        let _ = s.memcpy_htod(&mut m, &mut enclave, dev, &Payload::synthetic(8 << 20));
    }

    #[test]
    fn transfer_time_matches_cost_model() {
        let (mut m, mut enclave) = setup();
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        let len = 8u64 << 20;
        let dev = s.malloc(&mut m, &mut enclave, len).unwrap();
        let t0 = m.clock().now();
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(vec![7; len as usize]),
        )
        .unwrap();
        let elapsed = m.clock().now() - t0;
        let expect = m.model().ipc_roundtrip + m.model().hix_htod(len);
        assert_eq!(
            elapsed, expect,
            "the IPC round trip and the enclave's charges sum to the closed form"
        );
    }

    #[test]
    fn memset_and_dtod_through_the_secure_path() {
        let (mut m, mut enclave) = setup();
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        let a = s.malloc(&mut m, &mut enclave, 4096).unwrap();
        let b = s.malloc(&mut m, &mut enclave, 4096).unwrap();
        s.memset(&mut m, &mut enclave, a, 4096, 0x7e).unwrap();
        s.memcpy_dtod(&mut m, &mut enclave, a, b, 4096).unwrap();
        let back = s.memcpy_dtoh(&mut m, &mut enclave, b, 4096).unwrap();
        assert!(back.bytes().iter().all(|&x| x == 0x7e));
    }

    #[test]
    fn sessions_are_isolated_on_the_gpu() {
        let (mut m, mut enclave) = setup();
        let mut a = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"alice").unwrap();
        let mut b = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"bob").unwrap();
        let dev_a = a.malloc(&mut m, &mut enclave, 4096).unwrap();
        let dev_b = b.malloc(&mut m, &mut enclave, 4096).unwrap();
        a.memcpy_htod(
            &mut m,
            &mut enclave,
            dev_a,
            &Payload::from_bytes(vec![0xAA; 4096]),
        )
        .unwrap();
        b.memcpy_htod(
            &mut m,
            &mut enclave,
            dev_b,
            &Payload::from_bytes(vec![0xBB; 4096]),
        )
        .unwrap();
        // Different GPU contexts entirely.
        assert_ne!(enclave.session_ctx(a.id()), enclave.session_ctx(b.id()));
        let back_a = a.memcpy_dtoh(&mut m, &mut enclave, dev_a, 4096).unwrap();
        let back_b = b.memcpy_dtoh(&mut m, &mut enclave, dev_b, 4096).unwrap();
        assert!(back_a.bytes().iter().all(|&x| x == 0xAA));
        assert!(back_b.bytes().iter().all(|&x| x == 0xBB));
    }

    #[test]
    fn dma_tamper_detected_and_session_aborted() {
        let (mut m, mut enclave) = setup();
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 4096).unwrap();
        // Stage the sealed chunk, then corrupt it in the shared memory
        // before the GPU enclave picks it up. We do this by sending the
        // request manually around the runtime.
        let data = Payload::from_bytes(vec![0x5A; 4096]);
        let sealed = s
            .data_ocb
            .seal(&Nonce::from_counter(0), DATA_AAD, data.bytes());
        s.endpoint
            .buffer()
            .write(&mut m, s.pid, BULK_OFFSET, &sealed.into())
            .unwrap();
        // Adversary flips a byte of the sealed payload via physical access.
        let pa = m
            .iommu_mut()
            .translate(s.endpoint.buffer().bus().offset(BULK_OFFSET))
            .unwrap();
        let mut byte = [0u8; 1];
        m.os_read_phys(pa, &mut byte);
        m.os_write_phys(pa, &[byte[0] ^ 4]);
        s.htod_nonce = 1;
        let req = Request::MemcpyHtoD {
            dst: dev,
            len: 4096,
            chunk: m.model().pipeline_chunk,
            nonce_start: 0,
        };
        s.endpoint.send_request(&mut m, &req.encode()).unwrap();
        let err = enclave.poll(&mut m, s.id());
        assert!(matches!(err, Err(HixCoreError::IntegrityFailure)));
        // The session is dead from now on.
        assert!(matches!(
            enclave.poll(&mut m, s.id()),
            Err(HixCoreError::IntegrityFailure)
        ));
    }

    #[test]
    fn gpu_kernel_computes_on_secure_data() {
        let (mut m, mut enclave) = setup_with_square();
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        s.load_module(&mut m, &mut enclave, "test.square").unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 400).unwrap();
        let input: Vec<u8> = (1..=100i32).flat_map(|i| i.to_le_bytes()).collect();
        s.memcpy_htod(&mut m, &mut enclave, dev, &Payload::from_bytes(input))
            .unwrap();
        s.launch(&mut m, &mut enclave, "test.square", &[dev.value(), 100])
            .unwrap();
        let out = s.memcpy_dtoh(&mut m, &mut enclave, dev, 400).unwrap();
        let vals: Vec<i32> = out
            .bytes()
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, (1..=100i32).map(|i| i * i).collect::<Vec<_>>());
        let _ = GPU_BDF;
    }

    /// The enclave allocates a session's staging buffer first in the
    /// session's context, so on a fresh rig it sits at this address.
    const STAGING: DevAddr = DevAddr(0x100_0000);

    #[test]
    fn a_tenant_cannot_free_its_sessions_staging_buffer() {
        let (mut m, mut enclave, mut s, dev) = hostile();
        let err = s.free(&mut m, &mut enclave, STAGING).unwrap_err();
        assert!(matches!(err, HixCoreError::Remote(_)), "{err:?}");
        // The session still moves data both ways.
        let payload = Payload::from_bytes((0..4096u32).map(|i| (i * 5) as u8).collect());
        s.memcpy_htod(&mut m, &mut enclave, dev, &payload).unwrap();
        let back = s.memcpy_dtoh(&mut m, &mut enclave, dev, 4096).unwrap();
        assert_eq!(back.bytes(), payload.bytes());
    }

    #[test]
    fn a_dtoh_from_the_staging_buffer_is_refused() {
        let (mut m, mut enclave, mut s, dev) = hostile();
        // The encrypt kernel would seal the staging buffer into itself:
        // its source overlaps its sealed range.
        let err = s
            .memcpy_dtoh(&mut m, &mut enclave, STAGING, 64)
            .unwrap_err();
        let bad_args = format!("GPU error code {}", hix_gpu::regs::errcode::BAD_ARGS);
        assert!(
            matches!(&err, HixCoreError::Remote(msg) if msg.contains(&bad_args)),
            "{err:?}"
        );
        let payload = Payload::from_bytes(vec![0x5a; 64]);
        s.memcpy_htod(&mut m, &mut enclave, dev, &payload).unwrap();
        assert_eq!(
            s.memcpy_dtoh(&mut m, &mut enclave, dev, 64)
                .unwrap()
                .bytes(),
            payload.bytes()
        );
    }

    /// Chunks that are not a whole number of blocks put some sealed
    /// chunks off the block grid of the window's pages, so blocks (and
    /// tails and tags) straddle page boundaries on the user side.
    #[test]
    fn chunks_of_partial_blocks_straddle_window_pages() {
        for chunk in [1000u64, 1032, 4100] {
            let model = CostModel::builder().pipeline_chunk(chunk).build();
            let machine = hix_platform::MachineConfig {
                model,
                ..Default::default()
            };
            let mut m = standard_rig(RigOptions {
                machine,
                ..Default::default()
            });
            let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
            let mut s = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"odd").unwrap();
            let dev = s.malloc(&mut m, &mut enclave, 12_000).unwrap();
            let data: Vec<u8> = (0..12_000u32).map(|i| (i * 31 + 7) as u8).collect();
            s.memcpy_htod(
                &mut m,
                &mut enclave,
                dev,
                &Payload::from_bytes(data.clone()),
            )
            .unwrap();
            let back = s.memcpy_dtoh(&mut m, &mut enclave, dev, 12_000).unwrap();
            assert!(back.bytes() == &data[..], "chunk {chunk}");
        }
    }
}
