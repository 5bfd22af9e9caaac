//! The GPU enclave: the relocated driver and the service loop (§4.2).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use hix_crypto::drbg::HmacDrbg;
use hix_crypto::ocb::TAG_LEN;
use hix_crypto::sha256;
use hix_driver::driver::{DriverError, GpuDriver};
use hix_driver::DmaBuffer;
use hix_gpu::crypto_kernels::{DECRYPT_KERNEL, ENCRYPT_KERNEL, RESERVED_PREFIX};
use hix_gpu::ctx::CtxId;
use hix_gpu::regs::{bar0, errcode};
use hix_gpu::vram::{span_fits, DevAddr};
use hix_pcie::addr::Bdf;
use hix_platform::hix::HixError;
use hix_platform::mem::PAGE_SIZE;
use hix_platform::mmu::AccessFault;
use hix_platform::sgx::SgxError;
use hix_platform::{Machine, ProcessId, VirtAddr};
use hix_sim::cost::ExecMode;
use hix_sim::{Counter, CryptoDmaPipeline, EventKind, Nanos, COUNT_BOUNDS};

use crate::attest::{self, AttestError};
use crate::channel::{sealed_chunk_offset, sealed_stream_len, ChannelError, Endpoint, BULK_OFFSET};
use crate::protocol::{BatchCmd, Request, Response};
use crate::recovery::{EscalationLadder, WatchdogAction};

/// Virtual base where the GPU enclave maps BAR0 through `EGADD`.
const TRUSTED_BAR0_VA: VirtAddr = VirtAddr::new(0x7000_0000_0000);
/// Virtual base for the BAR1 aperture window.
const TRUSTED_BAR1_VA: VirtAddr = VirtAddr::new(0x7000_1000_0000);
/// Pages of each BAR the enclave registers.
const MMIO_PAGES: u64 = 16;
/// ELRANGE base of the enclave's measured pages.
const CODE_VA: VirtAddr = VirtAddr::new(0x10_0000);

/// Errors from the HIX core layer.
#[derive(Debug)]
pub enum HixCoreError {
    /// SGX failure while building or entering the enclave.
    Sgx(SgxError),
    /// HIX instruction failure (`EGCREATE`/`EGADD`).
    Hix(HixError),
    /// Driver/GPU failure.
    Driver(DriverError),
    /// Inter-enclave channel failure.
    Channel(ChannelError),
    /// Attestation / key agreement failure.
    Attest(AttestError),
    /// The GPU BIOS measurement did not match the expected digest
    /// (§4.2.2 — a compromised GPU BIOS is refused).
    BiosMismatch,
    /// The peer violated the request protocol.
    Protocol(String),
    /// An in-GPU integrity check failed — the session is aborted
    /// (Fig. 10 ⑤: DMA tampering detected).
    IntegrityFailure,
    /// Direct memory access fault.
    Access(AccessFault),
    /// The GPU service returned an application-level error.
    Remote(String),
    /// The user was permanently evicted by the repeat-offender policy:
    /// its sessions caused [`GpuEnclaveOptions::evict_after`] secure
    /// device resets and it may no longer hold GPU sessions.
    Evicted,
}

impl std::fmt::Display for HixCoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HixCoreError::Sgx(e) => write!(f, "SGX: {e}"),
            HixCoreError::Hix(e) => write!(f, "HIX: {e}"),
            HixCoreError::Driver(e) => write!(f, "driver: {e}"),
            HixCoreError::Channel(e) => write!(f, "channel: {e}"),
            HixCoreError::Attest(e) => write!(f, "attestation: {e}"),
            HixCoreError::BiosMismatch => f.write_str("GPU BIOS measurement mismatch"),
            HixCoreError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            HixCoreError::IntegrityFailure => {
                f.write_str("in-GPU integrity check failed; session aborted")
            }
            HixCoreError::Access(e) => write!(f, "access fault: {e}"),
            HixCoreError::Remote(msg) => write!(f, "GPU service error: {msg}"),
            HixCoreError::Evicted => {
                f.write_str("user evicted: repeated TDR offenses exhausted the reset budget")
            }
        }
    }
}

impl std::error::Error for HixCoreError {}

impl From<SgxError> for HixCoreError {
    fn from(e: SgxError) -> Self {
        HixCoreError::Sgx(e)
    }
}

impl From<HixError> for HixCoreError {
    fn from(e: HixError) -> Self {
        HixCoreError::Hix(e)
    }
}

impl From<DriverError> for HixCoreError {
    fn from(e: DriverError) -> Self {
        HixCoreError::Driver(e)
    }
}

impl From<ChannelError> for HixCoreError {
    fn from(e: ChannelError) -> Self {
        HixCoreError::Channel(e)
    }
}

impl From<AttestError> for HixCoreError {
    fn from(e: AttestError) -> Self {
        HixCoreError::Attest(e)
    }
}

impl From<AccessFault> for HixCoreError {
    fn from(e: AccessFault) -> Self {
        HixCoreError::Access(e)
    }
}

/// Options for [`GpuEnclave::launch`].
#[derive(Debug, Clone)]
pub struct GpuEnclaveOptions {
    /// The GPU to own.
    pub bdf: Bdf,
    /// Expected SHA-256 of the GPU BIOS. `None` derives the digest of the
    /// default simulated BIOS.
    pub expected_bios: Option<[u8; 32]>,
    /// Sealed trust state from a previous instance
    /// ([`GpuEnclave::seal_trust_state`]); when present it supplies the
    /// BIOS pin (and is integrity-checked), overriding `expected_bios`.
    pub sealed_trust: Option<Vec<u8>>,
    /// DRBG seed for the enclave's ephemeral secrets.
    pub seed: Vec<u8>,
    /// Repeat-offender budget: a user whose sessions cause this many
    /// full secure device resets is permanently evicted (further
    /// rebuilds and new sessions are refused with
    /// [`HixCoreError::Evicted`]).
    pub evict_after: u32,
    /// Admission bound: at most this many sessions hold live enclave
    /// state (GPU context + staging VRAM) at once. When a newcomer needs
    /// a slot, the least-recently-served resident is parked into sealed
    /// state ([`GpuEnclave::park_session`]) and transparently unsealed
    /// on its next request. Clamped to at least 1.
    pub max_resident: usize,
}

impl Default for GpuEnclaveOptions {
    fn default() -> Self {
        GpuEnclaveOptions {
            bdf: hix_driver::rig::GPU_BDF,
            expected_bios: None,
            sealed_trust: None,
            seed: b"hix-gpu-enclave".to_vec(),
            evict_after: 3,
            max_resident: usize::MAX,
        }
    }
}

#[derive(Debug)]
struct Session {
    ctx: CtxId,
    endpoint: Endpoint,
    staging: DevAddr,
    user_pid: ProcessId,
    aborted: bool,
    /// The session's GPU context was lost to a watchdog action (per-
    /// context kill or full secure reset). Requests are answered with
    /// [`Response::CtxReset`] until the user re-establishes via
    /// [`GpuEnclave::rebuild_session`].
    stale: bool,
    /// LRU key (monotone use sequence) while resident.
    last_use: u64,
}

/// What one session establishment produced: a fresh context and staging
/// buffer, and the keys of the new epoch.
struct Epoch {
    ctx: CtxId,
    staging: DevAddr,
    channel_key: [u8; 16],
    user_data_key: [u8; 16],
}

/// A session sealed out of the resident set by the admission bound. The
/// session *record* (its user id: everything needed to re-admit it,
/// nothing device-side) is sealed to the enclave's identity; the channel
/// endpoint stays mapped (the shared ring is OS memory the enclave never
/// trusted anyway) so the user's next doorbell can wake the session.
struct ParkedSession {
    /// OCB-sealed session record (tamper-evident; opened on resume).
    blob: Vec<u8>,
    /// Park sequence bound into the seal's key derivation, so every
    /// park uses a fresh key and a stale or replayed blob cannot be
    /// swapped in.
    seq: u64,
    endpoint: Endpoint,
    /// Plaintext copy for admission policy; the sealed record is the
    /// authoritative value and is cross-checked at unpark.
    user_pid: ProcessId,
}

/// A parked session in transit between two GPU-enclave shards of one
/// fabric ([`GpuEnclave::export_parked`] →
/// [`GpuEnclave::adopt_session`]). Carries the channel endpoint plus
/// the authenticated user id in plaintext — the simulated stand-
/// in for an attested shard-to-shard transfer channel. Deliberately
/// opaque: it can only be produced by an export and consumed by an
/// adoption.
pub struct MigratedSession {
    endpoint: Endpoint,
    user_pid: ProcessId,
}

impl std::fmt::Debug for MigratedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigratedSession")
            .field("user_pid", &self.user_pid)
            .finish()
    }
}

/// How an engine operation (submit + watched sync) ended, before it is
/// folded into a wire [`Response`].
enum EngineError {
    /// Ordinary driver/application error — surfaced as `Response::Err`.
    Driver(DriverError),
    /// The session's context was torn down by a TDR action; the user
    /// must rebuild the session and replay its journal.
    Tdr,
    /// A hard error, propagated: the secure reset's trust re-checks
    /// failed (the enclave itself can no longer vouch for the device),
    /// or a sealed chunk failed its MAC on every attempt (hostile data).
    Fatal(HixCoreError),
}

/// One per-session id.
pub type SessionId = u32;

/// The GPU enclave.
pub struct GpuEnclave {
    pid: ProcessId,
    bdf: Bdf,
    driver: GpuDriver,
    rng: HmacDrbg,
    sessions: BTreeMap<SessionId, Session>,
    next_session: SessionId,
    bios_digest: [u8; 32],
    path_digest: [u8; 32],
    /// Per-user count of full secure resets their sessions caused.
    reset_offenses: BTreeMap<ProcessId, u32>,
    /// Users permanently evicted by the repeat-offender policy.
    evicted: BTreeSet<ProcessId>,
    evict_after: u32,
    /// Sessions sealed out of the resident set, by id.
    parked: BTreeMap<SessionId, ParkedSession>,
    /// Resident sessions ordered by last service (LRU eviction order):
    /// use-sequence → session id.
    lru: BTreeMap<u64, SessionId>,
    use_seq: u64,
    park_seq: u64,
    max_resident: usize,
    /// The machine's shared secure-transfer engines (enclave crypto +
    /// DMA). One instance for *all* sessions: back-to-back transfers —
    /// same frame or different sessions — overlap chunkwise, and a busy
    /// engine honestly delays whoever arrives next.
    xfer_pipe: CryptoDmaPipeline,
}

impl std::fmt::Debug for GpuEnclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuEnclave")
            .field("pid", &self.pid)
            .field("bdf", &self.bdf)
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

impl GpuEnclave {
    /// Launches the GPU enclave: builds and enters the SGX enclave, takes
    /// exclusive GPU ownership (`EGCREATE`, engaging the PCIe lockdown),
    /// verifies the GPU BIOS, snapshots the routing path, resets the GPU,
    /// registers the trusted MMIO (`EGADD`), and attaches the driver over
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates SGX/HIX/driver failures; [`HixCoreError::BiosMismatch`]
    /// if the BIOS digest is wrong (the GPU is released again in that
    /// case).
    pub fn launch(
        machine: &mut Machine,
        options: GpuEnclaveOptions,
    ) -> Result<GpuEnclave, HixCoreError> {
        let pid = machine.create_process();
        machine.ecreate(pid);
        // Measured "driver code" pages — deterministic so MRENCLAVE is
        // reproducible across runs (what remote attestation would pin).
        for (i, chunk) in GPU_ENCLAVE_CODE_IDENTITY.chunks(64).enumerate() {
            machine.eadd(pid, CODE_VA.offset(i as u64 * PAGE_SIZE), chunk, true)?;
        }
        machine.einit(pid)?;
        machine.eenter(pid)?;

        // Exclusive ownership + MMIO lockdown.
        machine.egcreate(pid, options.bdf)?;

        // §4.2.2: measure the GPU BIOS before trusting the device.
        let rom = machine
            .fabric()
            .read_expansion_rom(options.bdf, 0, 64 << 10)
            .map_err(|_| HixCoreError::BiosMismatch)?;
        let bios_digest = sha256::digest(&rom);
        let expected: [u8; 32] = if let Some(blob) = &options.sealed_trust {
            // Unseal a previous instance's pin — only a same-identity
            // enclave on this machine holds the seal key, so a tampered
            // or foreign blob fails authentication. On failure the GPU is
            // released again (no trust was extended).
            let unsealed = (|| {
                let key = machine.eseal_key(pid)?;
                let ocb = hix_crypto::ocb::Ocb::new(&hix_crypto::ocb::Key::from_bytes(
                    hix_crypto::kdf::derive_aes128(b"hix-seal", &key, b"trust-state"),
                ));
                let state = ocb
                    .open(&hix_crypto::ocb::Nonce::from_counter(0), b"hix-trust", blob)
                    .map_err(|_| {
                        HixCoreError::Protocol("sealed trust state failed authentication".into())
                    })?;
                if state.len() != 64 {
                    return Err(HixCoreError::Protocol(
                        "malformed sealed trust state".into(),
                    ));
                }
                Ok(state[..32].try_into().expect("32 bytes"))
            })();
            match unsealed {
                Ok(pin) => pin,
                Err(e) => {
                    machine.hix_release(pid)?;
                    return Err(e);
                }
            }
        } else {
            options.expected_bios.unwrap_or_else(|| {
                sha256::digest(&hix_gpu::device::build_bios(
                    hix_gpu::device::GpuConfig::default().seed,
                ))
            })
        };
        if bios_digest != expected {
            // Refuse the device and hand it back.
            machine.hix_release(pid)?;
            return Err(HixCoreError::BiosMismatch);
        }

        // §4.3.2: the routing-path configuration becomes part of the
        // enclave's measured state.
        let snapshot = machine
            .fabric()
            .path_routing_snapshot(options.bdf)
            .expect("owned device");
        let path_digest = sha256::digest(&snapshot);

        // §4.2.2: reset to purge any pre-existing GPU state.
        machine.fabric_mut().reset_device(options.bdf);
        machine.charge(
            EventKind::Security,
            Nanos::ZERO,
            "GPU enclave initialized: BIOS verified, device reset",
        );

        // §4.2.1: register the trusted MMIO pages. BAR1 (the VRAM
        // aperture for MMIO-path copies) is optional: secondary GPUs in a
        // multi-GPU rig may expose registers only.
        let bars = machine.device_bar_ranges(options.bdf);
        let bar0 = bars[0].base;
        for i in 0..MMIO_PAGES {
            machine.egadd(
                pid,
                TRUSTED_BAR0_VA.offset(i * PAGE_SIZE),
                bar0.offset(i * PAGE_SIZE),
            )?;
        }
        let bar1_va = if let Some(bar1) = bars.get(1).map(|r| r.base) {
            for i in 0..MMIO_PAGES {
                machine.egadd(
                    pid,
                    TRUSTED_BAR1_VA.offset(i * PAGE_SIZE),
                    bar1.offset(i * PAGE_SIZE),
                )?;
            }
            Some(TRUSTED_BAR1_VA)
        } else {
            None
        };

        let mut driver = GpuDriver::attach(machine, pid, options.bdf, TRUSTED_BAR0_VA, bar1_va)?;
        for name in [DECRYPT_KERNEL, ENCRYPT_KERNEL] {
            driver.load_module(machine, name)?;
        }

        Ok(GpuEnclave {
            pid,
            bdf: options.bdf,
            driver,
            rng: HmacDrbg::new(&options.seed),
            sessions: BTreeMap::new(),
            next_session: 1,
            bios_digest,
            path_digest,
            reset_offenses: BTreeMap::new(),
            evicted: BTreeSet::new(),
            evict_after: options.evict_after.max(1),
            parked: BTreeMap::new(),
            lru: BTreeMap::new(),
            use_seq: 0,
            park_seq: 0,
            max_resident: options.max_resident.max(1),
            xfer_pipe: CryptoDmaPipeline::new(),
        })
    }

    /// The enclave's process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The shared secure-transfer pipeline engines. Exposed read-only for
    /// tests and reports; all bookings go through the service loop.
    pub fn xfer_pipeline(&self) -> &CryptoDmaPipeline {
        &self.xfer_pipe
    }

    /// The owned GPU.
    pub fn bdf(&self) -> Bdf {
        self.bdf
    }

    /// The measured GPU BIOS digest.
    pub fn bios_digest(&self) -> [u8; 32] {
        self.bios_digest
    }

    /// The measured PCIe routing-path digest.
    pub fn path_digest(&self) -> [u8; 32] {
        self.path_digest
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Re-checks that the locked routing path still measures the same
    /// (run anytime; a change means hardware misbehavior since lockdown
    /// makes it impossible for software).
    pub fn verify_path(&self, machine: &Machine) -> bool {
        machine
            .fabric()
            .path_routing_snapshot(self.bdf)
            .map(|snap| sha256::digest(&snap) == self.path_digest)
            .unwrap_or(false)
    }

    /// Accepts a new user session (called by
    /// [`HixSession::connect`](crate::runtime::HixSession::connect)):
    /// runs local attestation + pairwise DH for the channel key, creates
    /// the GPU context, and runs the three-party DH installing the data
    /// key in the device.
    ///
    /// Returns the session id, the channel key (the user derives the same
    /// value on its side of the DH — returned here since both ends of the
    /// simulated exchange run in this function), and the user-side data
    /// key.
    ///
    /// # Errors
    ///
    /// Propagates attestation and driver failures.
    pub fn accept_session(
        &mut self,
        machine: &mut Machine,
        user_pid: ProcessId,
        user_rng: &mut HmacDrbg,
        shared: DmaBuffer,
    ) -> Result<(SessionId, [u8; 16], [u8; 16]), HixCoreError> {
        if self.evicted.contains(&user_pid) {
            return Err(HixCoreError::Evicted);
        }
        // Aborted sessions hold a GPU context and staging VRAM until
        // someone notices; admission is the natural point to reclaim.
        self.reap_aborted(machine);
        // Admission control: make room inside the resident bound by
        // parking the coldest session before spending any setup work.
        self.ensure_resident_slot(machine)?;
        machine
            .trace()
            .metrics()
            .inc(Counter::EnclaveSessionsAccepted);
        let window = shared.len().saturating_sub(BULK_OFFSET);
        let epoch = self.establish(machine, user_pid, user_rng, window, "hix session init")?;

        let id = self.next_session;
        self.next_session += 1;
        shared.share_with(machine, self.pid);
        let endpoint = Endpoint::new(self.pid, shared, epoch.channel_key);
        self.sessions.insert(
            id,
            Session {
                ctx: epoch.ctx,
                endpoint,
                staging: epoch.staging,
                user_pid,
                aborted: false,
                stale: false,
                last_use: 0,
            },
        );
        self.touch(id);
        Ok((id, epoch.channel_key, epoch.user_data_key))
    }

    /// The one session-establishment step behind
    /// [`accept_session`](Self::accept_session) and
    /// [`rebuild_session`](Self::rebuild_session): charges the secure
    /// task init (emitted as `label`), runs local attestation + pairwise
    /// DH for the channel key, creates a fresh GPU context, runs the
    /// three-party DH installing the data key in the device, and
    /// allocates the session staging buffer in VRAM that every sealed
    /// chunk of either direction passes through, sized to what the
    /// session's bulk `window` can carry.
    fn establish(
        &mut self,
        machine: &mut Machine,
        user_pid: ProcessId,
        user_rng: &mut HmacDrbg,
        window: u64,
        label: &'static str,
    ) -> Result<Epoch, HixCoreError> {
        let init = machine.model().task_init(ExecMode::Hix);
        machine.charge(EventKind::Init, init, label);

        let channel_key =
            attest::pairwise_channel_key(machine, user_pid, self.pid, user_rng, &mut self.rng)?;
        let ctx = self.driver.create_ctx(machine)?;
        let keys =
            attest::three_party_data_key(machine, &self.driver, ctx, user_rng, &mut self.rng)?;
        // One sealed chunk, or the whole window if that is smaller:
        // `handle` refuses a transfer whose sealed stream overflows the
        // window before any DMA, so every chunk staged or sealed here
        // holds at most `min(chunk, len) + TAG_LEN` bytes and fits.
        let staging_len = (machine.model().pipeline_chunk + TAG_LEN as u64).min(window);
        let staging = self.driver.malloc(machine, ctx, staging_len)?;
        Ok(Epoch {
            ctx,
            staging,
            channel_key,
            user_data_key: keys.user,
        })
    }

    /// Re-establishes a session whose GPU context was lost to a TDR
    /// action: fresh pairwise channel key (the endpoint re-keys onto it
    /// — new cipher, sequences, and replay windows, never resumed
    /// state), fresh GPU context, fresh three-party data key, fresh
    /// staging buffer. Returns the new channel key and user data key;
    /// the caller re-seals everything it resubmits under the new epoch.
    ///
    /// # Errors
    ///
    /// [`HixCoreError::Evicted`] if the user exhausted the reset
    /// budget; protocol errors for unknown or non-stale sessions.
    pub fn rebuild_session(
        &mut self,
        machine: &mut Machine,
        session: SessionId,
        user_rng: &mut HmacDrbg,
    ) -> Result<([u8; 16], [u8; 16]), HixCoreError> {
        let state = self.live_session(session)?;
        if !state.stale {
            return Err(HixCoreError::Protocol(format!(
                "session {session} does not need rebuilding"
            )));
        }
        let (user_pid, window) = (state.user_pid, state.endpoint.bulk_capacity());
        if self.evicted.contains(&user_pid) {
            machine
                .trace()
                .metrics()
                .inc(Counter::WatchdogRebuildsRefused);
            return Err(HixCoreError::Evicted);
        }
        let epoch = self.establish(machine, user_pid, user_rng, window, "hix session rebuild")?;

        let state = self.sessions.get_mut(&session).expect("checked above");
        state.ctx = epoch.ctx;
        state.staging = epoch.staging;
        state.stale = false;
        state.endpoint.rekey(epoch.channel_key);
        self.touch(session);
        machine
            .trace()
            .metrics()
            .inc(Counter::WatchdogSessionsRebuilt);
        machine.charge(
            EventKind::Security,
            Nanos::ZERO,
            "session re-established after TDR: fresh context, keys, and channel epoch",
        );
        Ok((epoch.channel_key, epoch.user_data_key))
    }

    /// Re-runs the key agreement for an existing session and swings its
    /// endpoint onto the fresh key — the recovery escalation when the
    /// channel's wire state desynchronized beyond the replay window.
    /// Returns the new channel key (the user derives the same value on
    /// its side of the simulated exchange). The bulk data key is
    /// untouched: only the control channel re-keys. `in_flight` is the
    /// old-epoch id of the user's outstanding request, which it re-sends
    /// under the new key: if this enclave already served it, the re-sent
    /// copy is answered from the cached response and not executed again
    /// ([`Endpoint::rekey_serving`]).
    ///
    /// # Errors
    ///
    /// Unknown sessions are a protocol error; aborted sessions stay
    /// aborted.
    pub fn rekey_session(
        &mut self,
        machine: &mut Machine,
        session: SessionId,
        user_rng: &mut HmacDrbg,
        in_flight: u64,
    ) -> Result<[u8; 16], HixCoreError> {
        let user_pid = self.live_session(session)?.user_pid;
        let key =
            attest::pairwise_channel_key(machine, user_pid, self.pid, user_rng, &mut self.rng)?;
        let state = self.sessions.get_mut(&session).expect("checked above");
        state.endpoint.rekey_serving(key, in_flight);
        machine.trace().metrics().inc(Counter::RecoveryRekeys);
        machine.charge(
            EventKind::Security,
            Nanos::ZERO,
            "session re-key after channel desync",
        );
        Ok(key)
    }

    /// A resident session that may still be served: unknown ids are a
    /// protocol error, and aborted sessions stay aborted.
    fn live_session(&mut self, session: SessionId) -> Result<&mut Session, HixCoreError> {
        let state = self
            .sessions
            .get_mut(&session)
            .ok_or_else(|| HixCoreError::Protocol(format!("unknown session {session}")))?;
        if state.aborted {
            return Err(HixCoreError::IntegrityFailure);
        }
        Ok(state)
    }

    /// Frees the GPU context and staging VRAM of sessions that aborted
    /// on an integrity failure. Without this, every aborted session
    /// leaks its resources for the life of the enclave.
    fn reap_aborted(&mut self, machine: &mut Machine) {
        let dead: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.aborted)
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            let s = self.remove_session(id).expect("listed above");
            // Scrub on free: the staging buffer saw sealed chunks only,
            // but the context's other allocations may hold plaintext.
            // A stale session's context already died (and was scrubbed)
            // with the TDR action — nothing to release device-side.
            if !s.stale {
                let _ = self.driver.free(machine, s.ctx, s.staging, true);
                let _ = self.driver.destroy_ctx(machine, s.ctx);
            }
            machine
                .trace()
                .metrics()
                .inc(Counter::EnclaveSessionsReaped);
        }
    }

    /// Refreshes a session's position in the LRU order (no-op for
    /// unknown ids).
    fn touch(&mut self, session: SessionId) {
        let Some(old) = self.sessions.get(&session).map(|s| s.last_use) else {
            return;
        };
        self.use_seq += 1;
        let seq = self.use_seq;
        self.lru.remove(&old);
        self.lru.insert(seq, session);
        self.sessions
            .get_mut(&session)
            .expect("checked above")
            .last_use = seq;
    }

    /// Removes a session and its LRU entry together (the only sanctioned
    /// way to drop a resident session).
    fn remove_session(&mut self, session: SessionId) -> Option<Session> {
        let s = self.sessions.remove(&session)?;
        self.lru.remove(&s.last_use);
        Some(s)
    }

    /// Parks least-recently-served residents until a new session fits
    /// inside the admission bound.
    fn ensure_resident_slot(&mut self, machine: &mut Machine) -> Result<(), HixCoreError> {
        self.reap_aborted(machine);
        while self.sessions.len() >= self.max_resident {
            let Some(victim) = self.lru.values().next().copied() else {
                return Err(HixCoreError::Protocol(
                    "resident bound hit with no parkable session".into(),
                ));
            };
            self.park_session(machine, victim)?;
        }
        Ok(())
    }

    /// The per-park seal cipher: a fresh key per (session, park
    /// sequence), derived from the enclave's SGX seal key, so an old
    /// blob can never be replayed into a later park slot.
    fn park_cipher(
        &self,
        machine: &mut Machine,
        session: SessionId,
        seq: u64,
    ) -> Result<hix_crypto::ocb::Ocb, HixCoreError> {
        let key = machine.eseal_key(self.pid)?;
        let mut context = b"parked-session".to_vec();
        context.extend_from_slice(&session.to_le_bytes());
        context.extend_from_slice(&seq.to_le_bytes());
        Ok(hix_crypto::ocb::Ocb::new(
            &hix_crypto::ocb::Key::from_bytes(hix_crypto::kdf::derive_aes128(
                b"hix-seal",
                &key,
                &context,
            )),
        ))
    }

    /// Seals the record of `session`, owned by `user_pid`, under a fresh
    /// park sequence: the one place the record (the 4-byte user id) is
    /// built. Returns the blob and the sequence its key derives from.
    fn seal_record(
        &mut self,
        machine: &mut Machine,
        session: SessionId,
        user_pid: ProcessId,
    ) -> Result<(Vec<u8>, u64), HixCoreError> {
        self.park_seq += 1;
        let blob = self.park_cipher(machine, session, self.park_seq)?.seal(
            &hix_crypto::ocb::Nonce::from_counter(0),
            b"hix-park",
            &user_pid.0.to_le_bytes(),
        );
        Ok((blob, self.park_seq))
    }

    /// Takes a parked `session` out of the parked set and opens its
    /// record under the key its park derived: the one place a record is
    /// authenticated and parsed. A tampered blob, a malformed record and
    /// a record naming another user than the parked copy are refused;
    /// the session is discarded either way. Returns the record's user id.
    fn open_record(
        &mut self,
        machine: &mut Machine,
        session: SessionId,
    ) -> Result<(ProcessId, Endpoint), HixCoreError> {
        let p = self
            .parked
            .remove(&session)
            .expect("caller checked it is parked");
        let plain = self
            .park_cipher(machine, session, p.seq)?
            .open(
                &hix_crypto::ocb::Nonce::from_counter(0),
                b"hix-park",
                &p.blob,
            )
            .map_err(|_| {
                HixCoreError::Protocol("parked session record failed authentication".into())
            })?;
        let Ok(user) = <[u8; 4]>::try_from(plain.as_slice()) else {
            return Err(HixCoreError::Protocol(
                "malformed parked session record".into(),
            ));
        };
        if ProcessId(u32::from_le_bytes(user)) != p.user_pid {
            return Err(HixCoreError::Protocol(
                "parked session record names a different user".into(),
            ));
        }
        Ok((p.user_pid, p.endpoint))
    }

    /// Seals an idle session out of the resident set (the scale-out half
    /// of §4.5): its GPU context and staging VRAM are destroyed
    /// (scrub-on-free — nothing secret survives on the device) and its
    /// session record is sealed to the enclave's identity, charged at
    /// [`CostModel::park_seal`](hix_sim::CostModel::park_seal). The
    /// channel endpoint stays mapped, so the user's next doorbell
    /// transparently resumes via [`GpuEnclave::unpark_session`] and the
    /// ordinary CtxReset path: journal replay under fresh keys, never
    /// resumed device state.
    ///
    /// # Errors
    ///
    /// Unknown sessions are a protocol error; aborted sessions cannot be
    /// parked (they are reaped instead).
    pub fn park_session(
        &mut self,
        machine: &mut Machine,
        session: SessionId,
    ) -> Result<(), HixCoreError> {
        let user_pid = self.live_session(session)?.user_pid;
        machine.charge(
            EventKind::EnclaveCrypto,
            machine.model().park_seal(),
            format!("session {session} parked: state sealed, context scrubbed"),
        );
        let (blob, seq) = self.seal_record(machine, session, user_pid)?;

        let state = self.remove_session(session).expect("checked above");
        if !state.stale {
            let _ = self.driver.free(machine, state.ctx, state.staging, true);
            let _ = self.driver.destroy_ctx(machine, state.ctx);
        }
        let endpoint = state.endpoint;
        self.parked.insert(
            session,
            ParkedSession {
                blob,
                seq,
                endpoint,
                user_pid,
            },
        );
        machine
            .trace()
            .metrics()
            .inc(Counter::EnclaveSessionsParked);
        Ok(())
    }

    /// Unseals a parked session back into the resident set, charged at
    /// [`CostModel::park_unseal`](hix_sim::CostModel::park_unseal). The
    /// record must authenticate under the key its park derived; the
    /// session re-enters stale (its context died at park), so the next
    /// request is answered with `CtxReset` and recovery rebuilds it with
    /// fresh keys and a journal replay.
    ///
    /// # Errors
    ///
    /// [`HixCoreError::Evicted`] for users evicted while parked (a
    /// parked session is no escape hatch from the repeat-offender
    /// policy); authentication failures on a tampered blob discard the
    /// session.
    pub fn unpark_session(
        &mut self,
        machine: &mut Machine,
        session: SessionId,
    ) -> Result<(), HixCoreError> {
        let Some(p) = self.parked.get(&session) else {
            return Err(HixCoreError::Protocol(format!(
                "session {session} is not parked"
            )));
        };
        if self.evicted.contains(&p.user_pid) {
            machine
                .trace()
                .metrics()
                .inc(Counter::WatchdogRebuildsRefused);
            return Err(HixCoreError::Evicted);
        }
        // Unparking may itself need a slot: the coldest resident yields.
        self.ensure_resident_slot(machine)?;
        machine.charge(
            EventKind::EnclaveCrypto,
            machine.model().park_unseal(),
            format!("session {session} unparked: record verified, awaiting re-establishment"),
        );
        let (user_pid, endpoint) = self.open_record(machine, session)?;
        self.sessions.insert(
            session,
            Session {
                // The context died at park; the tombstone is never
                // dereferenced because the session is stale until
                // rebuilt.
                ctx: CtxId(u32::MAX),
                endpoint,
                staging: DevAddr(0),
                user_pid,
                aborted: false,
                stale: true,
                last_use: 0,
            },
        );
        self.touch(session);
        machine
            .trace()
            .metrics()
            .inc(Counter::EnclaveSessionsUnparked);
        Ok(())
    }

    /// Exports a *parked* session for migration to another GPU-enclave
    /// shard: the sealed record is opened and authenticated under this
    /// enclave's park key (charged at `park_unseal`), removed from the
    /// parked set, and handed over in plaintext form — modeling the
    /// attested enclave-to-enclave transfer channel two shards of one
    /// fabric share. Nothing device-side survives the hand-off: the
    /// session's context and staging were already destroyed (and
    /// scrubbed) when it parked, so the only state in transit is the
    /// channel endpoint and the session record.
    ///
    /// # Errors
    ///
    /// A protocol error for sessions that are not parked here; an
    /// authentication failure on a tampered record discards the session.
    pub fn export_parked(
        &mut self,
        machine: &mut Machine,
        session: SessionId,
    ) -> Result<MigratedSession, HixCoreError> {
        if !self.parked.contains_key(&session) {
            return Err(HixCoreError::Protocol(format!(
                "session {session} is not parked"
            )));
        }
        machine.charge(
            EventKind::EnclaveCrypto,
            machine.model().park_unseal(),
            format!("session {session} exported for cross-shard migration"),
        );
        let (user_pid, endpoint) = self.open_record(machine, session)?;
        machine
            .trace()
            .metrics()
            .inc(Counter::EnclaveSessionsExported);
        Ok(MigratedSession { endpoint, user_pid })
    }

    /// Adopts a session exported from a peer shard
    /// ([`GpuEnclave::export_parked`]): the channel endpoint is rehomed
    /// onto this enclave's process, the record is re-sealed under *this*
    /// enclave's park key (charged at `park_seal`), and the session
    /// enters the parked set under a **fresh id** from this shard's id
    /// space. The user's next doorbell transparently unparks it into a
    /// stale tombstone, so resumption runs the full re-establishment —
    /// fresh channel and data keys negotiated with this shard, a fresh
    /// context here, and a journal replay. Nothing keyed to the old
    /// shard survives.
    ///
    /// # Errors
    ///
    /// [`HixCoreError::Evicted`] if this shard's repeat-offender policy
    /// already banned the user (migration is no escape hatch either).
    pub fn adopt_session(
        &mut self,
        machine: &mut Machine,
        migrated: MigratedSession,
    ) -> Result<SessionId, HixCoreError> {
        let user_pid = migrated.user_pid;
        if self.evicted.contains(&user_pid) {
            machine
                .trace()
                .metrics()
                .inc(Counter::WatchdogRebuildsRefused);
            return Err(HixCoreError::Evicted);
        }
        let id = self.next_session;
        self.next_session += 1;
        machine.charge(
            EventKind::EnclaveCrypto,
            machine.model().park_seal(),
            format!("migrated session adopted as {id}: record re-sealed to this shard"),
        );
        let mut endpoint = migrated.endpoint;
        endpoint.rehome(machine, self.pid);
        let (blob, seq) = self.seal_record(machine, id, user_pid)?;
        self.parked.insert(
            id,
            ParkedSession {
                blob,
                seq,
                endpoint,
                user_pid,
            },
        );
        machine
            .trace()
            .metrics()
            .inc(Counter::EnclaveSessionsAdopted);
        Ok(id)
    }

    /// Serves one pending request on `session` (the message-queue wakeup
    /// of §4.4.1). Returns `Ok(true)` if a request was served.
    ///
    /// # Errors
    ///
    /// Channel tampering aborts with an error; GPU integrity failures
    /// abort the session.
    pub fn poll(
        &mut self,
        machine: &mut Machine,
        session: SessionId,
    ) -> Result<bool, HixCoreError> {
        if !self.sessions.contains_key(&session) && self.parked.contains_key(&session) {
            // Transparent resume: the first doorbell at a parked session
            // unseals its record back into the resident set; it then
            // answers [`Response::CtxReset`] until the user
            // re-establishes (journal replay under fresh keys — parking
            // never resumes device state).
            self.unpark_session(machine, session)?;
        }
        self.touch(session);
        let state = self.live_session(session)?;
        let body = match state.endpoint.recv_request(machine) {
            Ok(body) => body,
            Err(ChannelError::Empty) => return Ok(false),
            Err(ChannelError::Duplicate) => {
                // The user retransmitted an already-served request (its
                // response was lost): re-send the cached response, never
                // re-execute.
                machine.trace().metrics().inc(Counter::RecoveryDupServed);
                let resent = state.endpoint.resend_response(machine)?;
                return Ok(resent);
            }
            Err(ChannelError::Tampered | ChannelError::Malformed) => {
                // An unauthenticated or unparsable frame is the OS's
                // problem, not ours: log it and wait for the sender's
                // retransmission to overwrite the slot.
                machine
                    .trace()
                    .metrics()
                    .inc(Counter::RecoveryMsgsDiscarded);
                machine.charge(
                    EventKind::Security,
                    Nanos::ZERO,
                    "discard unauthenticated channel frame",
                );
                return Ok(false);
            }
            Err(e) => return Err(e.into()),
        };
        let request = Request::decode(&body)
            .ok_or_else(|| HixCoreError::Protocol("undecodable request".into()))?;
        let closing = matches!(request, Request::Close);
        if self.sessions.get(&session).expect("session exists").stale {
            // The session's context died with a TDR action: nothing is
            // executed until the user re-establishes. Closing a stale
            // session is trivially fine — the device side is already
            // gone.
            let response = if closing {
                Response::Ok
            } else {
                Response::CtxReset
            };
            if !closing {
                machine.trace().metrics().inc(Counter::WatchdogStaleServed);
            }
            let state = self.sessions.get_mut(&session).expect("session exists");
            state.endpoint.send_response(machine, &response.encode())?;
            if closing {
                self.remove_session(session);
            }
            return Ok(true);
        }
        let response = match request {
            // A submission frame drains a whole ring batch under this
            // single wake; everything else is the classic one-command
            // call/response path (also used by journal replay).
            Request::Submit { cmds } => self.handle_submit(machine, session, cmds)?,
            request => self.handle(machine, session, request)?,
        };
        let ok = matches!(response, Response::Ok);
        let state = self.sessions.get_mut(&session).expect("session exists");
        state.endpoint.send_response(machine, &response.encode())?;
        if closing && ok {
            self.remove_session(session);
        }
        Ok(true)
    }

    /// Executes one submission frame: each command runs in frame order
    /// through the ordinary [`handle`](Self::handle) path (so per-op
    /// served counters and enclave spans are identical to the
    /// synchronous path), posting one `(id, response)` completion entry
    /// per executed command. A `CtxReset` outcome aborts the remainder
    /// of the batch — later commands are not executed and carry no
    /// entry, so the client replays its journal and resubmits the tail
    /// under the fresh epoch.
    fn handle_submit(
        &mut self,
        machine: &mut Machine,
        session: SessionId,
        cmds: Vec<BatchCmd>,
    ) -> Result<Response, HixCoreError> {
        let n = cmds.len() as u64;
        machine.trace().metrics().inc(Counter::CmdqFrames);
        machine.trace().metrics().add(Counter::CmdqFrameCmds, n);
        machine
            .trace()
            .metrics()
            .observe_with("cmdq.batch_len", &COUNT_BOUNDS, n);
        let attrs = [("session", session as u64), ("cmds", n)];
        machine.in_span("enclave", "cmdq.submit", &attrs, |machine| {
            let model = machine.model().clone();
            // A frame's sealed HtoD chunks were all staged when the frame was
            // built, so every transfer in it is ready the moment the frame is
            // served: transfers book the shared engines from here, letting a
            // later command's crypto fill hide under an earlier command's DMA
            // and kernel tail (and under other sessions' still-draining work).
            let frame_ready = machine.clock().now();
            let mut entries = Vec::with_capacity(cmds.len());
            for cmd in cmds {
                let name: &'static str = match &cmd.req {
                    Request::LoadModule { .. } => "load_module",
                    Request::Free { .. } => "free",
                    Request::MemcpyHtoD { .. } => "memcpy_htod",
                    Request::Memset { .. } => "memset",
                    Request::CopyDtoD { .. } => "memcpy_dtod",
                    Request::Launch { .. } => "launch",
                    Request::Sync => "sync",
                    // Barrier ops never ride a frame: `Malloc` returns an
                    // address, `MemcpyDtoH` owns the bulk area for its
                    // reply, `Close` tears the session down mid-frame, and
                    // nesting is rejected by the decoder already.
                    Request::Malloc { .. }
                    | Request::MemcpyDtoH { .. }
                    | Request::Close
                    | Request::Submit { .. } => {
                        entries.push((cmd.id, Response::Err("not batchable".into())));
                        continue;
                    }
                };
                let start = machine.clock().now();
                machine.trace().metrics().observe(
                    "cmdq.queue_delay_ns",
                    start.as_nanos().saturating_sub(cmd.submit_ns),
                );
                let htod_len = match &cmd.req {
                    Request::MemcpyHtoD { len, .. } => Some(*len),
                    _ => None,
                };
                // Per-command attribution window, dispatch → retire (the
                // CUDA-event convention: execution, not host enqueue — the
                // enqueue-to-dispatch wait lands in `cmdq.queue_delay_ns`).
                // Under the synchronous wrapper the caller's request is
                // already open, this returns `None`, and the command's
                // charges roll up into the caller exactly as before.
                let attr =
                    machine
                        .trace()
                        .obs()
                        .begin_request(start.as_nanos(), session as u64, name);
                let result = self.handle(machine, session, cmd.req);
                if let (Ok(Response::Ok), Some(len)) = (&result, htod_len) {
                    // Time plane at retirement: book the transfer's chunk walk
                    // on the shared engines and charge what the device's own
                    // charges left of it as the exposed sealing. With idle
                    // engines (every synchronous single-command frame) this
                    // ends at exactly the closed form `start + hix_htod(len)`
                    // the synchronous client pins; inside a batched frame the
                    // booking chains through the engine cursors instead, so
                    // consecutive transfers overlap rather than serialize.
                    let done = self.xfer_pipe.htod(&model, frame_ready, len);
                    machine.trace().charge_until(
                        machine.clock(),
                        done,
                        EventKind::EnclaveCrypto,
                        "seal (pipelined)",
                    );
                }
                if let Some(id) = attr {
                    machine
                        .trace()
                        .obs()
                        .end_request(id, machine.clock().now().as_nanos());
                }
                // Session aborts (hostile DMA) poison the whole frame.
                let resp = result?;
                let reset = matches!(resp, Response::CtxReset);
                entries.push((cmd.id, resp));
                if reset {
                    machine.trace().metrics().inc(Counter::CmdqBatchAborts);
                    break;
                }
            }
            Ok(Response::Completions(entries))
        })
    }

    fn handle(
        &mut self,
        machine: &mut Machine,
        session: SessionId,
        request: Request,
    ) -> Result<Response, HixCoreError> {
        // One structural span per served request: the charged work it
        // causes (DMA, kernels, MMIO…) nests under it in the exported
        // timeline without double-counting any category time.
        let op = match &request {
            Request::LoadModule { .. } => Counter::ReqLoadModule,
            Request::Malloc { .. } => Counter::ReqMalloc,
            Request::Free { .. } => Counter::ReqFree,
            Request::MemcpyHtoD { .. } => Counter::ReqMemcpyHtod,
            Request::MemcpyDtoH { .. } => Counter::ReqMemcpyDtoh,
            Request::Memset { .. } => Counter::ReqMemset,
            Request::CopyDtoD { .. } => Counter::ReqCopyDtod,
            Request::Launch { .. } => Counter::ReqLaunch,
            Request::Sync => Counter::ReqSync,
            Request::Close => Counter::ReqClose,
            // `poll` routes frames to `handle_submit`; one reaching this
            // path is a protocol violation, answered below.
            Request::Submit { .. } => Counter::ReqSubmit,
        };
        // Server-side request ledger: one counter per op type, so the
        // enclave's view of served requests can be reconciled against
        // the runtime's request attribution. The span carries the same
        // `req.*` name.
        machine.trace().metrics().inc(op);
        machine.in_span(
            "enclave",
            op.name(),
            &[("session", session as u64)],
            |machine| {
                let state = self.sessions.get_mut(&session).expect("checked by poll");
                let ctx = state.ctx;
                let chunk_cfg = machine.model().pipeline_chunk;
                // Transfer geometry comes off the wire: before any arithmetic
                // or DMA, refuse a chunk other than the machine's, a sealed
                // stream the session's own window cannot hold, a nonce range
                // that overflows and a device range that wraps. (The driver
                // refuses an allocation larger than the free VRAM itself.)
                let window = state.endpoint.bulk_capacity();
                let bad_geometry = match request {
                    Request::MemcpyHtoD {
                        dst: addr,
                        len,
                        chunk,
                        nonce_start,
                    }
                    | Request::MemcpyDtoH {
                        src: addr,
                        len,
                        chunk,
                        nonce_start,
                    } => {
                        chunk != chunk_cfg
                            || sealed_stream_len(len, chunk).is_none_or(|n| n > window)
                            || nonce_start.checked_add(len.div_ceil(chunk)).is_none()
                            || !span_fits(addr.value(), len)
                    }
                    _ => false,
                };
                if bad_geometry {
                    return Ok(Response::Err("transfer geometry out of bounds".into()));
                }
                // The enclave's own crypto kernels trust their arguments.
                if let Request::LoadModule { name } | Request::Launch { name, .. } = &request {
                    if name.starts_with(RESERVED_PREFIX) {
                        return Ok(Response::Err(format!(
                            "{name} is reserved to the GPU enclave"
                        )));
                    }
                }
                let resp = match request {
                    Request::LoadModule { name } => match self.driver.load_module(machine, &name) {
                        Ok(()) => Response::Ok,
                        Err(e) => Response::Err(e.to_string()),
                    },
                    Request::Malloc { len } => match self.driver.malloc(machine, ctx, len) {
                        Ok(va) => Response::Addr(va),
                        Err(e) => Response::Err(e.to_string()),
                    },
                    // The staging buffer is the enclave's, not the tenant's:
                    // freeing it would break every later transfer.
                    Request::Free { va } if va == state.staging => Response::Err(
                        "the session's staging buffer is not the tenant's to free".into(),
                    ),
                    Request::Free { va } => match self.driver.free(machine, ctx, va, true) {
                        Ok(()) => Response::Ok,
                        Err(e) => Response::Err(e.to_string()),
                    },
                    Request::MemcpyHtoD {
                        dst,
                        len,
                        chunk,
                        nonce_start,
                    } => {
                        let staging = state.staging;
                        // The in-GPU decrypt kernel opens `len` bytes chunkwise.
                        machine
                            .trace()
                            .metrics()
                            .add(Counter::DmaBytesDecrypted, len);
                        let buffer = state.endpoint.buffer().clone();
                        // Single copy, the mirror of DtoH: each sealed chunk is
                        // DMAed from the window into the session's staging
                        // buffer and opened straight into place in-GPU. A MAC
                        // failure may be a transient DMA corruption (the OS owns
                        // the fabric): re-DMA that chunk up to the retry budget
                        // before declaring the data hostile and aborting the
                        // session.
                        const MAX_DMA_ATTEMPTS: u32 = 3;
                        let walk = (0..len.div_ceil(chunk)).try_for_each(|index| {
                            let off = index * chunk;
                            let sealed = chunk.min(len - off) + TAG_LEN as u64;
                            let at = sealed_chunk_offset(index, chunk);
                            let args = [
                                staging.value(),
                                sealed,
                                dst.value() + off,
                                nonce_start + index,
                            ];
                            for attempt in 0..MAX_DMA_ATTEMPTS {
                                if attempt > 0 {
                                    machine.trace().metrics().inc(Counter::RecoveryRedma);
                                    machine.charge(
                                        EventKind::Security,
                                        Nanos::ZERO,
                                        "chunk MAC failure; re-DMA",
                                    );
                                }
                                // The OS may corrupt each chunk's first pass in
                                // flight.
                                let flip = (attempt == 0)
                                    .then(|| machine.os_dma_flip(buffer.bus().offset(at), sealed))
                                    .flatten();
                                let copy = self
                                    .driver
                                    .dma_htod(machine, ctx, staging, &buffer, at, sealed)
                                    .map_err(EngineError::Driver)
                                    .and_then(|()| self.watched_sync(machine, session))
                                    .and_then(|()| {
                                        self.driver
                                            .launch(machine, ctx, DECRYPT_KERNEL, &args)
                                            .map_err(EngineError::Driver)
                                    })
                                    .and_then(|()| self.watched_sync(machine, session));
                                // The in-flight flip hit only this DMA pass; the
                                // staged sealed bytes themselves are intact again
                                // for the retry.
                                if let Some(flip) = flip {
                                    machine.os_undo_dma_flip(flip);
                                }
                                match copy {
                                    Err(EngineError::Driver(DriverError::Gpu(
                                        errcode::INTEGRITY,
                                    ))) => {}
                                    other => return other,
                                }
                            }
                            // Persistent corruption: hostile data, not a
                            // transient fault.
                            self.sessions.get_mut(&session).expect("session").aborted = true;
                            Err(EngineError::Fatal(HixCoreError::IntegrityFailure))
                        });
                        self.engine_outcome(walk)?
                    }
                    Request::MemcpyDtoH {
                        src,
                        len,
                        chunk,
                        nonce_start,
                    } => {
                        let staging = state.staging;
                        // The in-GPU encrypt kernel seals `len` bytes chunkwise.
                        machine
                            .trace()
                            .metrics()
                            .add(Counter::DmaBytesEncrypted, len);
                        let buffer = state.endpoint.buffer().clone();
                        // Book the readback on the shared transfer engines. The
                        // chunk walk below charges device time functionally; the
                        // booking records engine occupancy (so later transfers of
                        // any session see it), and what the walk leaves of its
                        // pipelined completion is charged as the exposed
                        // unsealing.
                        let dtoh_done = {
                            let model = machine.model().clone();
                            let now = machine.clock().now();
                            self.xfer_pipe.dtoh(&model, now, len)
                        };
                        let walk = (0..len.div_ceil(chunk)).try_for_each(|index| {
                            let off = index * chunk;
                            let this = chunk.min(len - off);
                            let args = [
                                src.value() + off,
                                this,
                                staging.value(),
                                nonce_start + index,
                            ];
                            let at = sealed_chunk_offset(index, chunk);
                            self.driver
                                .launch(machine, ctx, ENCRYPT_KERNEL, &args)
                                .and_then(|()| {
                                    self.driver.dma_dtoh(
                                        machine,
                                        ctx,
                                        staging,
                                        &buffer,
                                        at,
                                        this + TAG_LEN as u64,
                                    )
                                })
                                .map_err(EngineError::Driver)
                                .and_then(|()| self.watched_sync(machine, session))
                        });
                        if walk.is_ok() {
                            machine.trace().charge_until(
                                machine.clock(),
                                dtoh_done,
                                EventKind::EnclaveCrypto,
                                "open (pipelined)",
                            );
                        }
                        self.engine_outcome(walk)?
                    }
                    Request::Memset { va, len, value } => {
                        let queued = self.driver.memset(machine, ctx, va, len, value);
                        self.run_watched(machine, session, queued)?
                    }
                    Request::CopyDtoD { src, dst, len } => {
                        let queued = self.driver.copy_dtod(machine, ctx, src, dst, len);
                        self.run_watched(machine, session, queued)?
                    }
                    Request::Launch { name, args } => {
                        let queued = self.driver.launch(machine, ctx, &name, &args);
                        self.run_watched(machine, session, queued)?
                    }
                    Request::Sync => self.run_watched(machine, session, Ok(()))?,
                    Request::Close => {
                        let staging = state.staging;
                        let _ = self.driver.free(machine, ctx, staging, true);
                        match self.driver.destroy_ctx(machine, ctx) {
                            // The session entry itself is removed by `poll` after
                            // the response has been sent.
                            Ok(()) => Response::Ok,
                            Err(e) => Response::Err(e.to_string()),
                        }
                    }
                    // Frames are drained by `handle_submit` and never nest.
                    Request::Submit { .. } => Response::Err("nested submit".into()),
                };
                Ok(resp)
            },
        )
    }

    /// Synchronizes with the engine under the TDR watchdog (the
    /// robustness half of the §4.4.1 service loop): a clean sync that
    /// leaves the engine busy means no forward progress — the hang
    /// signal in the synchronous device model, where `sync` drains every
    /// retirable command. Escalation is staged and bounded by the
    /// [`EscalationLadder`]: capped-backoff re-polls until the cost-
    /// model-derived patience deadline, then a per-context kill, then a
    /// bounded grace, then a full secure reset. Never waits more than
    /// [`EscalationLadder::max_recovery_wait`] of virtual time.
    fn watched_sync(
        &mut self,
        machine: &mut Machine,
        session: SessionId,
    ) -> Result<(), EngineError> {
        let ctx = self.sessions.get(&session).expect("checked by poll").ctx;
        // `Some(drained)` after an ECC kill: whether the sync's drain had
        // retired every command the driver submitted.
        let ecc_kill = match self.driver.sync(machine) {
            Ok(()) => None,
            Err(DriverError::Gpu(code)) if code == errcode::SPURIOUS => {
                // The engine latched an error although the command
                // completed; `sync` already cleared the latch. The work
                // is good — fall through to the progress check.
                machine
                    .trace()
                    .metrics()
                    .inc(Counter::WatchdogSpuriousCleared);
                None
            }
            Err(DriverError::Gpu(code)) if code == errcode::ECC => {
                // A bit flipped in a live VRAM buffer: the context's
                // data can no longer be trusted. Kill it (which scrubs
                // its frames) and make the user rebuild and replay —
                // byte-identical recovery comes from the journal, never
                // from corrupted device state.
                machine.trace().metrics().inc(Counter::WatchdogEccKills);
                machine.charge(
                    EventKind::Security,
                    Nanos::ZERO,
                    "watchdog: ECC corruption in live buffer; kill context",
                );
                let drained = self.driver.drained();
                self.driver
                    .kill_ctx(machine, ctx)
                    .map_err(EngineError::Driver)?;
                Some(drained)
            }
            Err(e) => return Err(EngineError::Driver(e)),
        };
        // A fully drained ECC kill leaves nothing running. Otherwise a
        // command queued behind the corrupted one may have hung a
        // context deaf to the kill: the progress check sees it.
        let busy = ecc_kill != Some(true)
            && self
                .driver
                .status_busy(machine)
                .map_err(EngineError::Driver)?;
        if !busy {
            return match ecc_kill {
                Some(_) => self
                    .finish_kill(machine, session)
                    .and(Err(EngineError::Tdr)),
                None => Ok(()),
            };
        }

        // Hang detected: clean sync, busy engine.
        machine
            .trace()
            .metrics()
            .inc(Counter::WatchdogHangsDetected);
        machine.charge(
            EventKind::Security,
            Nanos::ZERO,
            "watchdog: engine hang detected (no forward progress)",
        );
        let model = machine.model();
        let base = model.ipc_roundtrip;
        let mut ladder = EscalationLadder::new(
            model.tdr_patience(),
            base,
            base * 64,
            model.tdr_kill_grace(),
            3,
        );
        loop {
            match ladder.next_action() {
                WatchdogAction::Wait(d) => {
                    machine.charge(EventKind::Security, d, "watchdog: wait for progress");
                    machine.run_device(self.bdf);
                    if !self
                        .driver
                        .status_busy(machine)
                        .map_err(EngineError::Driver)?
                    {
                        if ladder.kill_sent() {
                            // The kill landed within the grace period.
                            return self
                                .finish_kill(machine, session)
                                .and(Err(EngineError::Tdr));
                        }
                        // The engine recovered on its own: no action
                        // beyond the waits was taken.
                        machine
                            .trace()
                            .metrics()
                            .inc(Counter::WatchdogTransientRecovered);
                        return Ok(());
                    }
                }
                WatchdogAction::Kill => {
                    machine.trace().metrics().inc(Counter::WatchdogKills);
                    machine.charge(
                        EventKind::Security,
                        Nanos::ZERO,
                        format!("watchdog: kill context {}", ctx.0),
                    );
                    self.driver
                        .kill_ctx(machine, ctx)
                        .map_err(EngineError::Driver)?;
                    machine.run_device(self.bdf);
                    if !self
                        .driver
                        .status_busy(machine)
                        .map_err(EngineError::Driver)?
                    {
                        return self
                            .finish_kill(machine, session)
                            .and(Err(EngineError::Tdr));
                    }
                    // A wedged context ignored the doorbell; the grace
                    // re-polls confirm before the reset rung.
                }
                WatchdogAction::Reset => {
                    // The kill was ignored: only a full secure reset
                    // recovers the device. This is the offense that
                    // counts toward eviction — it costs every session.
                    let offender = self
                        .sessions
                        .get(&session)
                        .expect("checked by poll")
                        .user_pid;
                    self.note_offense(machine, offender);
                    self.secure_reset(machine).map_err(EngineError::Fatal)?;
                    return Err(EngineError::Tdr);
                }
            }
        }
    }

    /// Completes a successful per-context kill: clears the `KILLED`
    /// error latch (so the next sync starts clean) and marks the
    /// session stale for re-establishment.
    fn finish_kill(
        &mut self,
        machine: &mut Machine,
        session: SessionId,
    ) -> Result<(), EngineError> {
        self.driver
            .reg_write(machine, bar0::ERROR, 0)
            .map_err(EngineError::Driver)?;
        self.sessions
            .get_mut(&session)
            .expect("checked by poll")
            .stale = true;
        Ok(())
    }

    /// Records a full-reset offense against `user`; at
    /// [`GpuEnclaveOptions::evict_after`] offenses the user is
    /// permanently evicted.
    fn note_offense(&mut self, machine: &mut Machine, user: ProcessId) {
        let count = self.reset_offenses.entry(user).or_insert(0);
        *count += 1;
        machine.trace().metrics().inc(Counter::WatchdogOffenses);
        if *count >= self.evict_after && self.evicted.insert(user) {
            machine.trace().metrics().inc(Counter::WatchdogEvictions);
            machine.charge(
                EventKind::Security,
                Nanos::ZERO,
                format!(
                    "watchdog: user {} evicted after {count} device resets",
                    user.0
                ),
            );
        }
    }

    /// Full secure TDR reset (the top escalation rung): function-level
    /// reset (destroying all contexts and keys and scrubbing all VRAM),
    /// then the complete §4.2.2 trust re-establishment — BIOS
    /// re-measured against the pinned digest, routing path re-checked,
    /// ownership/lockdown re-asserted — before the driver re-arms and
    /// the crypto kernels reload. Every session's context died with the
    /// reset, so all sessions go stale. No secret survives: keys lived
    /// in device state the reset destroys, VRAM is scrubbed wholesale.
    fn secure_reset(&mut self, machine: &mut Machine) -> Result<(), HixCoreError> {
        machine.in_span("watchdog", "secure_reset", &[], |machine| {
            machine.trace().metrics().inc(Counter::WatchdogResets);
            machine.fabric_mut().reset_device(self.bdf);
            // Re-initialization is not free: charge the secure bring-up.
            let init = machine.model().task_init(ExecMode::Hix);
            machine.charge(EventKind::Init, init, "secure reset: task init");

            // The device was wedged and outside our control for a while —
            // re-establish every trust premise rather than assuming it.
            let rom = machine
                .fabric()
                .read_expansion_rom(self.bdf, 0, 64 << 10)
                .map_err(|_| HixCoreError::BiosMismatch)?;
            if sha256::digest(&rom) != self.bios_digest {
                return Err(HixCoreError::BiosMismatch);
            }
            if !self.verify_path(machine) {
                return Err(HixCoreError::Protocol("routing path changed across TDR reset".into()));
            }
            let owned = machine.hix_state().gecs(self.bdf).is_some_and(|g| !g.owner_dead);
            if !owned {
                return Err(HixCoreError::Protocol("GPU ownership lost across TDR reset".into()));
            }

            self.driver.reinit_after_reset(machine)?;
            for name in [DECRYPT_KERNEL, ENCRYPT_KERNEL] {
                self.driver.load_module(machine, name)?;
            }
            for state in self.sessions.values_mut() {
                state.stale = true;
            }
            // The reset killed all in-flight transfers; the transfer plane
            // comes back with idle engines.
            self.xfer_pipe.reset();
            machine.charge(
                EventKind::Security,
                Nanos::ZERO,
                "watchdog: secure TDR reset — VRAM scrubbed, BIOS re-verified, path re-checked, lockdown held",
            );
            Ok(())
        })
    }

    /// Runs the command just queued (`queued` is its submission) to
    /// completion under the TDR watchdog and folds the outcome into a
    /// wire response.
    fn run_watched(
        &mut self,
        machine: &mut Machine,
        session: SessionId,
        queued: Result<(), DriverError>,
    ) -> Result<Response, HixCoreError> {
        let run = queued
            .map_err(EngineError::Driver)
            .and_then(|()| self.watched_sync(machine, session));
        self.engine_outcome(run)
    }

    /// Folds an engine outcome into a wire response.
    fn engine_outcome(&self, run: Result<(), EngineError>) -> Result<Response, HixCoreError> {
        match run {
            Ok(()) => Ok(Response::Ok),
            Err(EngineError::Driver(e)) => Ok(Response::Err(e.to_string())),
            Err(EngineError::Tdr) => Ok(Response::CtxReset),
            Err(EngineError::Fatal(e)) => Err(e),
        }
    }

    /// Graceful termination (§4.2.3): aborts all sessions, scrubs the GPU
    /// by resetting it, clears ownership, and returns the GPU to the OS.
    ///
    /// # Errors
    ///
    /// Propagates release failures.
    pub fn shutdown(mut self, machine: &mut Machine) -> Result<(), HixCoreError> {
        let sessions: Vec<SessionId> = self.sessions.keys().copied().collect();
        for id in sessions {
            let state = self.sessions.remove(&id).expect("listed");
            // §4.2.3: "user enclaves are notified that the GPU enclave is
            // terminated and the GPU is no longer trusted".
            let _ = state.endpoint.post_termination_notice(machine);
            let _ = self.driver.destroy_ctx(machine, state.ctx);
        }
        // Parked users hold no device state, but they still deserve the
        // §4.2.3 notice: the GPU they would resume onto is gone.
        let parked: Vec<SessionId> = self.parked.keys().copied().collect();
        for id in parked {
            let p = self.parked.remove(&id).expect("listed");
            let _ = p.endpoint.post_termination_notice(machine);
        }
        machine.fabric_mut().reset_device(self.bdf);
        machine.hix_release(self.pid)?;
        machine.eexit(self.pid);
        machine.trace().metrics().inc(Counter::EnclaveShutdowns);
        machine.charge(
            EventKind::Security,
            Nanos::ZERO,
            "GPU enclave graceful termination",
        );
        Ok(())
    }

    /// Seals the enclave's trust state (GPU BIOS pin ‖ routing-path
    /// digest) to its own identity on this platform, so a restarted
    /// instance can re-pin the same GPU without re-deriving trust
    /// (`SGX EGETKEY(SealKey)` semantics). The blob lives in untrusted
    /// storage; tampering is detected at unseal.
    ///
    /// # Errors
    ///
    /// Propagates SGX failures.
    pub fn seal_trust_state(&self, machine: &mut Machine) -> Result<Vec<u8>, HixCoreError> {
        let key = machine.eseal_key(self.pid)?;
        let ocb = hix_crypto::ocb::Ocb::new(&hix_crypto::ocb::Key::from_bytes(
            hix_crypto::kdf::derive_aes128(b"hix-seal", &key, b"trust-state"),
        ));
        let mut state = Vec::with_capacity(64);
        state.extend_from_slice(&self.bios_digest);
        state.extend_from_slice(&self.path_digest);
        Ok(ocb.seal(
            &hix_crypto::ocb::Nonce::from_counter(0),
            b"hix-trust",
            &state,
        ))
    }

    /// Produces a remote-attestation quote over the enclave's identity
    /// and what it measured (GPU BIOS digest ‖ PCIe path digest) —
    /// §5.5's "the GPU enclave code cryptographically confirms its
    /// provenance".
    ///
    /// # Errors
    ///
    /// Propagates SGX failures.
    pub fn quote(&self, machine: &mut Machine) -> Result<hix_platform::sgx::Quote, HixCoreError> {
        let mut data = Vec::with_capacity(64);
        data.extend_from_slice(&self.bios_digest);
        data.extend_from_slice(&self.path_digest);
        Ok(machine.equote(self.pid, &data)?)
    }

    /// Direct driver access for privileged tests/benchmarks.
    pub fn driver(&self) -> &GpuDriver {
        &self.driver
    }

    /// The GPU context id of a session (diagnostics).
    pub fn session_ctx(&self, session: SessionId) -> Option<CtxId> {
        self.sessions.get(&session).map(|s| s.ctx)
    }

    /// Whether a session lost its context to a TDR action and awaits
    /// re-establishment (diagnostics).
    pub fn session_stale(&self, session: SessionId) -> Option<bool> {
        self.sessions.get(&session).map(|s| s.stale)
    }

    /// Full secure resets attributed to `user` so far.
    pub fn offenses(&self, user: ProcessId) -> u32 {
        self.reset_offenses.get(&user).copied().unwrap_or(0)
    }

    /// Whether `user` was permanently evicted by the repeat-offender
    /// policy.
    pub fn is_evicted(&self, user: ProcessId) -> bool {
        self.evicted.contains(&user)
    }

    /// Number of sessions currently sealed in parking.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Whether a session is currently sealed in parking.
    pub fn is_parked(&self, session: SessionId) -> bool {
        self.parked.contains_key(&session)
    }

    /// The admission bound on simultaneously resident sessions.
    pub fn max_resident(&self) -> usize {
        self.max_resident
    }
}

/// The MRENCLAVE a genuine GPU enclave build produces — what a remote
/// verifier pins (replays the exact `ECREATE`/`EADD`/`EINIT` sequence of
/// [`GpuEnclave::launch`] against a scratch SGX state; the measurement
/// depends only on the code identity and layout, not on the machine).
/// The replay runs once per process; every caller still checks its quote
/// against the value.
pub fn expected_measurement() -> hix_platform::sgx::Measurement {
    static PINNED: OnceLock<hix_platform::sgx::Measurement> = OnceLock::new();
    *PINNED.get_or_init(|| {
        let mut sgx = hix_platform::sgx::SgxState::new(b"measurement-replay");
        let mut ram = hix_platform::mem::Ram::new();
        let id = sgx.ecreate();
        for (i, chunk) in GPU_ENCLAVE_CODE_IDENTITY.chunks(64).enumerate() {
            sgx.eadd(
                &mut ram,
                id,
                CODE_VA.offset(i as u64 * PAGE_SIZE),
                chunk,
                true,
            )
            .expect("replay eadd");
        }
        sgx.einit(id).expect("replay einit")
    })
}

/// The deterministic "code identity" measured into the GPU enclave. In a
/// real deployment these bytes are the driver binary; remote attestation
/// pins their hash (§5.5, code integrity).
pub const GPU_ENCLAVE_CODE_IDENTITY: &[u8] =
    b"HIX GPU enclave driver v1.0 | gdev-core | ocb-aes-128 | single-copy pipeline | \
      multi-context isolation | scrub-on-free | bios-measurement | lockdown";

#[cfg(test)]
mod tests {
    use super::*;
    use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF, PORT_BDF};
    use hix_pcie::config::offsets;
    use hix_pcie::fabric::PcieError;

    #[test]
    fn launch_locks_down_and_owns_gpu() {
        let mut m = standard_rig(RigOptions::default());
        let enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
        // Lockdown engaged: BAR rewrites are discarded.
        assert_eq!(
            m.config_write(GPU_BDF, offsets::BAR0, 0xdead_0000),
            Err(PcieError::LockedDown(GPU_BDF))
        );
        assert_eq!(
            m.config_write(PORT_BDF, offsets::MEMORY_WINDOW, 0),
            Err(PcieError::LockedDown(PORT_BDF))
        );
        // GECS records ownership.
        let gecs = m.hix_state().gecs(GPU_BDF).unwrap();
        assert!(!gecs.owner_dead);
        assert!(enclave.verify_path(&m));
    }

    #[test]
    fn second_gpu_enclave_refused() {
        let mut m = standard_rig(RigOptions::default());
        let _first = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
        let second = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default());
        assert!(matches!(
            second,
            Err(HixCoreError::Hix(HixError::AlreadyOwned(_)))
        ));
    }

    #[test]
    fn bios_mismatch_refused_and_gpu_returned() {
        let mut m = standard_rig(RigOptions::default());
        let options = GpuEnclaveOptions {
            expected_bios: Some([0u8; 32]),
            ..Default::default()
        };
        assert!(matches!(
            GpuEnclave::launch(&mut m, options),
            Err(HixCoreError::BiosMismatch)
        ));
        // The GPU was released: a correct enclave can own it afterwards.
        let ok = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default());
        assert!(ok.is_ok());
    }

    #[test]
    fn graceful_shutdown_returns_gpu() {
        let mut m = standard_rig(RigOptions::default());
        let enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
        enclave.shutdown(&mut m).unwrap();
        assert!(m.hix_state().gecs(GPU_BDF).is_none());
        // The OS can reprogram BARs again.
        m.config_write(GPU_BDF, offsets::BAR0, 0xc000_0000).unwrap();
        // And a new enclave can be launched.
        GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    }

    #[test]
    fn sealed_trust_state_roundtrips_and_rejects_tampering() {
        let mut m = standard_rig(RigOptions::default());
        let enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
        let blob = enclave.seal_trust_state(&mut m).unwrap();
        enclave.shutdown(&mut m).unwrap();
        // Relaunch with the sealed pin: succeeds (same GPU, same BIOS).
        let again = GpuEnclave::launch(
            &mut m,
            GpuEnclaveOptions {
                sealed_trust: Some(blob.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        again.shutdown(&mut m).unwrap();
        // Tampered blob: refused before any trust is extended.
        let mut bad = blob;
        bad[3] ^= 1;
        let err = GpuEnclave::launch(
            &mut m,
            GpuEnclaveOptions {
                sealed_trust: Some(bad),
                ..Default::default()
            },
        );
        assert!(matches!(err, Err(HixCoreError::Protocol(_))), "{err:?}");
        // The failed launch must not leave the GPU locked.
        GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    }

    #[test]
    fn remote_attestation_pins_the_gpu_enclave() {
        let mut m = standard_rig(RigOptions::default());
        let enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
        let quote = enclave.quote(&mut m).unwrap();
        let pk = m.provisioning_key();
        assert!(quote.verify(&pk, &expected_measurement()));
        // The quote binds the measured BIOS and routing path.
        assert_eq!(&quote.report_data[..32], &enclave.bios_digest());
        assert_eq!(&quote.report_data[32..], &enclave.path_digest());
        // A different enclave (user-built) does not verify as the GPU
        // enclave.
        let user = m.create_process();
        m.ecreate(user);
        m.eadd(user, VirtAddr::new(0x10_0000), b"impostor", true)
            .unwrap();
        m.einit(user).unwrap();
        let fake = m.equote(user, &quote.report_data).unwrap();
        assert!(!fake.verify(&pk, &expected_measurement()));
    }

    /// Parks a fresh session, lets `tamper` rewrite its parked entry,
    /// then brings it back through `unpark_session` or, with `export`,
    /// `export_parked` (the two callers of `open_record`) and returns
    /// the refusal. The session must be gone afterwards.
    fn reopen_tampered(
        export: bool,
        tamper: impl FnOnce(&mut Machine, &mut GpuEnclave, SessionId),
    ) -> String {
        let mut m = standard_rig(RigOptions::default());
        let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
        let s = crate::runtime::HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"parked")
            .unwrap();
        enclave.park_session(&mut m, s.id()).unwrap();
        tamper(&mut m, &mut enclave, s.id());
        let err = if export {
            enclave.export_parked(&mut m, s.id()).map(drop)
        } else {
            enclave.unpark_session(&mut m, s.id())
        };
        assert!(
            !enclave.is_parked(s.id()),
            "a refused record must not stay parked"
        );
        assert_eq!(
            enclave.session_stale(s.id()),
            None,
            "a refused session must not come back"
        );
        match err {
            Err(HixCoreError::Protocol(msg)) => msg,
            other => panic!("expected a protocol refusal, got {other:?}"),
        }
    }

    #[test]
    fn a_tampered_park_record_fails_authentication() {
        for export in [false, true] {
            let msg = reopen_tampered(export, |_, enclave, id| {
                enclave.parked.get_mut(&id).unwrap().blob[3] ^= 1;
            });
            assert_eq!(msg, "parked session record failed authentication");
        }
    }

    #[test]
    fn a_park_record_naming_another_user_is_refused() {
        for export in [false, true] {
            let msg = reopen_tampered(export, |m, enclave, id| {
                // Authentic under this park's key, but naming another
                // user than the parked copy.
                let user_pid = ProcessId(enclave.parked[&id].user_pid.0 + 1);
                let (blob, seq) = enclave.seal_record(m, id, user_pid).unwrap();
                let p = enclave.parked.get_mut(&id).unwrap();
                (p.blob, p.seq) = (blob, seq);
            });
            assert_eq!(msg, "parked session record names a different user");
        }
    }

    /// Pages mapped in `session`'s current GPU context. A session that
    /// has allocated nothing maps its staging buffer only.
    fn staging_pages(m: &mut Machine, enclave: &GpuEnclave, session: SessionId) -> u64 {
        let ctx = enclave.session_ctx(session).unwrap();
        let gpu = m
            .device_mut(GPU_BDF)
            .and_then(|d| d.as_any_mut().downcast_mut::<hix_gpu::device::GpuDevice>())
            .unwrap();
        gpu.context(ctx).unwrap().mapped_pages() as u64
    }

    #[test]
    fn staging_is_sized_to_the_window_at_accept_and_every_rebuild() {
        use crate::runtime::{shared_window_for, HixSession};
        use hix_gpu::vram::GPU_PAGE_SIZE;
        let mut m = standard_rig(RigOptions::default());
        let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
        let window = shared_window_for(m.model(), 96 << 10);
        let mut small = HixSession::connect_with(&mut m, &mut enclave, window, b"small").unwrap();
        let mut large = HixSession::connect(&mut m, &mut enclave).unwrap();
        // The small window's bulk area is 26 pages, less than a chunk
        // and its tag; the 64 MiB window holds a whole sealed chunk.
        let small_pages = (window - BULK_OFFSET) / GPU_PAGE_SIZE;
        assert_eq!(small_pages, 26);
        let chunk_pages = (m.model().pipeline_chunk + TAG_LEN as u64).div_ceil(GPU_PAGE_SIZE);
        let expect = |m: &mut Machine, enclave: &GpuEnclave, small: SessionId, large: SessionId| {
            assert_eq!(staging_pages(m, enclave, small), small_pages);
            assert_eq!(staging_pages(m, enclave, large), chunk_pages);
        };
        expect(&mut m, &enclave, small.id(), large.id());
        // A secure reset kills both contexts; each session's next
        // request rebuilds it with fresh staging of the same size.
        enclave.secure_reset(&mut m).unwrap();
        small.sync(&mut m, &mut enclave).unwrap();
        large.sync(&mut m, &mut enclave).unwrap();
        assert_eq!(m.trace().metrics().counter("watchdog.sessions_rebuilt"), 2);
        expect(&mut m, &enclave, small.id(), large.id());
        // Park → unpark: the unparked tombstone is rebuilt the same way.
        for s in [small.id(), large.id()] {
            enclave.park_session(&mut m, s).unwrap();
        }
        small.sync(&mut m, &mut enclave).unwrap();
        large.sync(&mut m, &mut enclave).unwrap();
        assert_eq!(m.trace().metrics().counter("enclave.sessions_unparked"), 2);
        assert_eq!(m.trace().metrics().counter("watchdog.sessions_rebuilt"), 4);
        expect(&mut m, &enclave, small.id(), large.id());
    }

    #[test]
    fn os_cannot_touch_trusted_mmio_after_launch() {
        use hix_platform::mmu::AccessFault;
        let mut m = standard_rig(RigOptions::default());
        let _enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
        // The OS maps the GPU registers into a process of its own...
        let attacker = m.create_process();
        let va = hix_driver::driver::os_map_bar0(&mut m, attacker, GPU_BDF, 1);
        // ...and is denied at the TLB fill.
        let err = m.read(attacker, va, &mut [0u8; 8]);
        assert!(matches!(err, Err(AccessFault::TgmrDenied(_))));
    }
}
