//! The inter-enclave communication channel (§4.4.1).
//!
//! Two untrusted media: a *message queue* (modeled as sequence-number
//! doorbells in the shared page — the paper uses a POSIX message queue
//! purely for synchronization) and *shared memory* for the encrypted
//! payloads. Everything crossing the channel is OCB-AES sealed with the
//! pairwise session key; nonces are derived from wire sequence numbers,
//! which gives replay protection (§5.5: "an incrementing nonce is also
//! used to ensure freshness ... and to prevent replay attacks").
//!
//! ## Reliability layer
//!
//! The transport is OS-controlled and may drop, duplicate, reorder,
//! delay, or corrupt traffic: the [`hix_sim::fault`] plan decides how
//! each sealed frame and its doorbell reach the wire. Two counters make
//! the channel recoverable without weakening the crypto:
//!
//! * **Wire sequence** — bumps on *every* transmission, including
//!   retransmissions, so every frame seals under a fresh nonce. The
//!   receiver keeps a [`ReplayWindow`]: at/behind the high-water mark is
//!   stale (replay or idle), within the forward window is fresh (gaps
//!   are dropped transmissions), beyond it the wire state is
//!   unrecoverable ([`ChannelError::Desync`] → re-key).
//! * **Message id** — an 8-byte envelope inside the sealed frame,
//!   stable across retransmissions. The receiver serves id `served+1`,
//!   answers id `≤ served` with [`ChannelError::Duplicate`] (the cached
//!   response is re-sent instead of re-executing), and treats anything
//!   else as desync. A re-key restarts ids at 1; the GPU enclave carries
//!   an already-served in-flight request's response into the new epoch
//!   ([`Endpoint::rekey_serving`]).
//!
//! Layout of the shared buffer:
//!
//! ```text
//! 0x0000  req_seq   (u64)   user increments after staging a request
//! 0x0008  resp_seq  (u64)   GPU enclave increments after responding
//! 0x0010  req_len   (u64)
//! 0x0018  resp_len  (u64)
//! 0x0100  request ciphertext
//! 0x1100  response ciphertext
//! 0x4000  bulk data area (sealed payload chunks)
//! ```

use hix_crypto::ocb::{Key, Nonce, Ocb, TAG_LEN};
use hix_driver::DmaBuffer;
use hix_platform::mmu::AccessFault;
use hix_platform::{Machine, ProcessId};
use hix_sim::fault::Dir;
use hix_sim::{Counter, EventKind};

use crate::recovery::{ReplayWindow, SeqCheck};

/// Offsets in the shared channel buffer that both directions use.
mod layout {
    pub const NOTICE: u64 = 0x0020;
    pub const BULK: u64 = 0x4000;
    pub const MAX_BODY: u64 = 0x1000;
}

/// What tells the two directions apart: where the doorbell, length and
/// sealed body live in the shared buffer, the nonce parity (requests
/// seal under even counters, responses under odd ones, so the two
/// senders never share a nonce; bulk data uses the three-party key),
/// the AAD and the IPC span label.
struct Lane {
    seq: u64,
    len: u64,
    body: u64,
    parity: u64,
    aad: &'static [u8],
    label: &'static str,
}

/// The lanes, indexed by `Dir as usize`.
const LANES: [Lane; 2] = [
    Lane {
        seq: 0x0000,
        len: 0x0010,
        body: 0x0100,
        parity: 0,
        aad: b"hix-req",
        label: "send request",
    },
    Lane {
        seq: 0x0008,
        len: 0x0018,
        body: 0x1100,
        parity: 1,
        aad: b"hix-resp",
        label: "send response",
    },
];

/// Value of the termination notice (§4.2.3: "user enclaves are notified
/// that the GPU enclave is terminated and the GPU is no longer
/// trusted"). The notice is an *availability* signal in untrusted
/// memory: suppressing it only delays the user noticing; forging it is a
/// denial of service, both outside the threat model.
pub const NOTICE_TERMINATED: u64 = 0x5445_524d; // "TERM"

/// Offset of the bulk data area (sealed payload chunks live here).
pub const BULK_OFFSET: u64 = layout::BULK;

/// Bytes of message-id envelope prepended to every sealed body.
const ENVELOPE: usize = 8;

/// Channel failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// Underlying memory access failed.
    Access(AccessFault),
    /// Decryption/authentication failed — tampering or replay.
    Tampered,
    /// No message was pending.
    Empty,
    /// The message could not be parsed after decryption.
    Malformed,
    /// An already-served message was delivered again (queue duplicate or
    /// peer retransmission): re-send the cached response, don't
    /// re-execute.
    Duplicate,
    /// The wire sequence ran past the replay window — unrecoverable
    /// without a session re-key.
    Desync,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::Access(e) => write!(f, "channel access failed: {e}"),
            ChannelError::Tampered => f.write_str("channel message failed authentication"),
            ChannelError::Empty => f.write_str("no pending message"),
            ChannelError::Malformed => f.write_str("malformed channel message"),
            ChannelError::Duplicate => f.write_str("duplicate delivery of a served message"),
            ChannelError::Desync => {
                f.write_str("channel sequence desynchronized beyond the replay window")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

impl From<AccessFault> for ChannelError {
    fn from(e: AccessFault) -> Self {
        ChannelError::Access(e)
    }
}

/// One direction's wire state at one endpoint.
#[derive(Debug, Default)]
struct Wire {
    /// Wire sequence of the last transmission this side sent (bumps per
    /// transmission, retransmissions included).
    seq: u64,
    /// Anti-replay window over the wire sequences this side received.
    win: ReplayWindow,
    /// Requests: the outstanding request's id (user side) or the last
    /// one served (GPU-enclave side); a response carries the id of the
    /// request it answers. Responses: the last one accepted (user side),
    /// which dedups re-delivered responses.
    id: u64,
    /// Last body sent: the user's request, for retransmission, or the
    /// GPU enclave's response, re-sent verbatim when a duplicate request
    /// arrives.
    last: Option<Vec<u8>>,
}

/// One endpoint's view of the channel. Both the user enclave and the GPU
/// enclave hold an `Endpoint` over the same [`DmaBuffer`], each acting as
/// its own process.
pub struct Endpoint {
    pid: ProcessId,
    buffer: DmaBuffer,
    ocb: Ocb,
    /// Wire state per direction, indexed by `Dir as usize`.
    wires: [Wire; 2],
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [req, resp] = &self.wires;
        f.debug_struct("Endpoint")
            .field("pid", &self.pid)
            .field("req_seq", &req.seq)
            .field("resp_seq", &resp.seq)
            .field("req_id", &req.id)
            .finish()
    }
}

impl Endpoint {
    /// Creates an endpoint for `pid` over `buffer`, keyed with the
    /// pairwise session key from attestation.
    pub fn new(pid: ProcessId, buffer: DmaBuffer, key: [u8; 16]) -> Self {
        Endpoint {
            pid,
            buffer,
            ocb: Ocb::new(&Key::from_bytes(key)),
            wires: Default::default(),
        }
    }

    /// The shared buffer (for bulk-area access).
    pub fn buffer(&self) -> &DmaBuffer {
        &self.buffer
    }

    /// The endpoint's process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Rehomes this endpoint onto another process: the shared ring is
    /// mapped into `pid`'s address space and all further channel I/O
    /// acts as that process. This is the enclave half of a cross-shard
    /// session migration — the adopting GPU enclave takes over the
    /// user's existing ring, wire state intact (sequences, replay
    /// windows, response cache travel with the endpoint), while the keys
    /// are replaced by the re-establishment that follows.
    pub fn rehome(&mut self, machine: &mut Machine, pid: ProcessId) {
        self.buffer.share_with(machine, pid);
        self.pid = pid;
    }

    fn read_u64(&self, machine: &mut Machine, off: u64) -> Result<u64, ChannelError> {
        let mut bytes = [0u8; 8];
        self.buffer.read_into(machine, self.pid, off, &mut bytes)?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn write_u64(&self, machine: &mut Machine, off: u64, v: u64) -> Result<(), ChannelError> {
        self.buffer
            .write_bytes(machine, self.pid, off, &v.to_le_bytes())?;
        Ok(())
    }

    /// Seals `[msg_id ‖ body]` under the next wire sequence of `dir` and
    /// stages it, or, under a fault plan, stages what the plan delivers.
    /// Charges one IPC hop.
    fn transmit(
        &mut self,
        machine: &mut Machine,
        dir: Dir,
        body: &[u8],
    ) -> Result<(), ChannelError> {
        let lane = &LANES[dir as usize];
        let id = self.wires[Dir::Request as usize].id;
        let wire = &mut self.wires[dir as usize];
        wire.seq += 1;
        let seq = wire.seq;
        let mut framed = Vec::with_capacity(ENVELOPE + body.len());
        framed.extend_from_slice(&id.to_le_bytes());
        framed.extend_from_slice(body);
        let sealed = self.ocb.seal(
            &Nonce::from_counter(seq * 2 + lane.parity),
            lane.aad,
            &framed,
        );
        assert!(
            sealed.len() as u64 <= layout::MAX_BODY,
            "{} too large",
            dir.as_str()
        );
        let hop = machine.model().ipc_roundtrip / 2;
        let attrs = [("bytes", sealed.len() as u64), ("seq", seq)];
        machine
            .trace()
            .charge_with(machine.clock(), hop, EventKind::Ipc, lane.label, &attrs);
        machine.trace().metrics().inc(Counter::IpcMsgs);
        if dir == Dir::Request {
            // Every request frame rings the doorbell once: this is the
            // enclave-wake ledger the batched submission path amortizes.
            machine.trace().metrics().inc(Counter::CmdqWakes);
        }
        let Some(plan) = machine.fault_plan() else {
            return self.stage(machine, lane, &sealed, Some(seq));
        };
        let (trace, clock) = (machine.trace().clone(), machine.clock().clone());
        let wire = (self.buffer.bus().value(), dir);
        plan.deliver(&trace, &clock, wire, seq, sealed, |frame, bell| {
            self.stage(machine, lane, frame, bell)
        })
    }

    /// Writes `frame` and its length to `lane`, then rings `bell` on the
    /// doorbell, if any.
    fn stage(
        &self,
        machine: &mut Machine,
        lane: &Lane,
        frame: &[u8],
        bell: Option<u64>,
    ) -> Result<(), ChannelError> {
        self.buffer
            .write_bytes(machine, self.pid, lane.body, frame)?;
        self.write_u64(machine, lane.len, frame.len() as u64)?;
        bell.map_or(Ok(()), |bell| self.write_u64(machine, lane.seq, bell))
    }

    /// Receives whatever is announced on `dir`, classifying it against
    /// the replay window and the message-id envelope.
    fn receive(&mut self, machine: &mut Machine, dir: Dir) -> Result<Vec<u8>, ChannelError> {
        let lane = &LANES[dir as usize];
        let chan = self.buffer.bus().value();
        let plan = machine.fault_plan();
        if let Some(p) = &plan {
            // A delayed doorbell whose virtual due time has passed is
            // delivered now (in sequence order).
            if let Some(seq) = p.release_doorbell(chan, dir, machine.clock().now()) {
                self.write_u64(machine, lane.seq, seq)?;
            }
        }
        let seq = self.read_u64(machine, lane.seq)?;
        match self.wires[dir as usize].win.check(seq) {
            SeqCheck::Stale => {
                // An armed duplicate presents the consumed slot again.
                if plan.is_some_and(|p| p.take_duplicate(chan, dir)) {
                    return Err(ChannelError::Duplicate);
                }
                return Err(ChannelError::Empty);
            }
            SeqCheck::TooFar => return Err(ChannelError::Desync),
            SeqCheck::Fresh => {}
        }
        let len = self.read_u64(machine, lane.len)?;
        if len > layout::MAX_BODY {
            return Err(ChannelError::Malformed);
        }
        let sealed = self.buffer.read(machine, self.pid, lane.body, len)?;
        let framed = self
            .ocb
            .open(
                &Nonce::from_counter(seq * 2 + lane.parity),
                lane.aad,
                &sealed,
            )
            .map_err(|_| ChannelError::Tampered)?;
        if framed.len() < ENVELOPE {
            return Err(ChannelError::Malformed);
        }
        // Only now — after authentication — does the window advance.
        self.wires[dir as usize].win.accept(seq);
        let id = u64::from_le_bytes(framed[..ENVELOPE].try_into().expect("8 bytes"));
        let body = framed[ENVELOPE..].to_vec();
        let [req, resp] = &mut self.wires;
        match dir {
            // GPU-enclave side: the request id is the last one served.
            Dir::Request if id == req.id + 1 => {
                req.id = id;
                Ok(body)
            }
            Dir::Request if id <= req.id => Err(ChannelError::Duplicate),
            // User side: the outstanding request's response carries its
            // id; anything at or below the last accepted response, or
            // below the outstanding request, is a re-delivery.
            Dir::Response if id <= resp.id || id < req.id => Err(ChannelError::Duplicate),
            Dir::Response if id == req.id => {
                resp.id = id;
                Ok(body)
            }
            _ => Err(ChannelError::Desync),
        }
    }

    /// Retransmits the last body sent on `dir`: same message id, fresh
    /// wire sequence (and therefore a fresh nonce). Returns whether there
    /// was one to send.
    fn resend(&mut self, machine: &mut Machine, dir: Dir) -> Result<bool, ChannelError> {
        let Some(body) = self.wires[dir as usize].last.take() else {
            return Ok(false);
        };
        machine.trace().metrics().inc(Counter::RecoveryRetransmits);
        let sent = self.transmit(machine, dir, &body);
        self.wires[dir as usize].last = Some(body);
        sent.map(|()| true)
    }

    /// Sends a new request (user side): assigns the next message id,
    /// seals, stages, bumps the doorbell. Charges one IPC hop.
    ///
    /// # Errors
    ///
    /// Propagates access faults; panics if the message exceeds the body
    /// area.
    pub fn send_request(&mut self, machine: &mut Machine, body: &[u8]) -> Result<(), ChannelError> {
        let wire = &mut self.wires[Dir::Request as usize];
        wire.id += 1;
        wire.last = Some(body.to_vec());
        self.transmit(machine, Dir::Request, body)
    }

    /// Retransmits the outstanding request. No-op before the first send.
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn resend_request(&mut self, machine: &mut Machine) -> Result<(), ChannelError> {
        self.resend(machine, Dir::Request).map(drop)
    }

    /// Receives a pending request (GPU-enclave side).
    ///
    /// # Errors
    ///
    /// [`ChannelError::Empty`] when no new request is staged;
    /// [`ChannelError::Tampered`] when authentication fails;
    /// [`ChannelError::Duplicate`] when the peer retransmitted an
    /// already-served request; [`ChannelError::Desync`] when the wire
    /// state is unrecoverable.
    pub fn recv_request(&mut self, machine: &mut Machine) -> Result<Vec<u8>, ChannelError> {
        self.receive(machine, Dir::Request)
    }

    /// Sends a response to the last served request (GPU-enclave side).
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn send_response(
        &mut self,
        machine: &mut Machine,
        body: &[u8],
    ) -> Result<(), ChannelError> {
        self.wires[Dir::Response as usize].last = Some(body.to_vec());
        self.transmit(machine, Dir::Response, body)
    }

    /// Re-sends the cached response for the last served request (ARQ
    /// dedup path — the request was re-executed nowhere). Returns
    /// whether a cached response existed.
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn resend_response(&mut self, machine: &mut Machine) -> Result<bool, ChannelError> {
        self.resend(machine, Dir::Response)
    }

    /// Receives the pending response (user side).
    ///
    /// # Errors
    ///
    /// [`ChannelError::Empty`] / [`ChannelError::Tampered`] /
    /// [`ChannelError::Duplicate`] / [`ChannelError::Desync`] as for
    /// requests.
    pub fn recv_response(&mut self, machine: &mut Machine) -> Result<Vec<u8>, ChannelError> {
        self.receive(machine, Dir::Response)
    }

    /// Re-keys the endpoint after re-attestation: fresh cipher, wire
    /// sequences, windows, and message ids — a new channel epoch. Cached
    /// frames from the old epoch are discarded.
    pub fn rekey(&mut self, key: [u8; 16]) {
        self.ocb = Ocb::new(&Key::from_bytes(key));
        self.wires = Default::default();
    }

    /// [`Self::rekey`] on the GPU-enclave side, given `in_flight`, the
    /// old-epoch id of the peer's outstanding request. The peer re-sends
    /// that request first in the new epoch, under id 1. When it was
    /// already served here, the new epoch starts with id 1 served and the
    /// old response cached, so the re-sent copy arrives as a
    /// [`ChannelError::Duplicate`] and is answered from the cache,
    /// re-sealed under the new key, instead of being executed again.
    pub fn rekey_serving(&mut self, key: [u8; 16], in_flight: u64) {
        let served = self.wires[Dir::Request as usize].id == in_flight;
        let cached = self.wires[Dir::Response as usize].last.take();
        self.rekey(key);
        if served && cached.is_some() {
            self.wires[Dir::Request as usize].id = 1;
            self.wires[Dir::Response as usize].last = cached;
        }
    }

    /// The outstanding request's id (user side) or the last one served
    /// (GPU-enclave side), in the current epoch.
    pub fn request_id(&self) -> u64 {
        self.wires[Dir::Request as usize].id
    }

    /// Zeroes the shared doorbell/length words so a new epoch does not
    /// trip over stale announcements (run by the user side right after
    /// both endpoints re-key).
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn reset_wire(&self, machine: &mut Machine) -> Result<(), ChannelError> {
        for lane in &LANES {
            self.write_u64(machine, lane.seq, 0)?;
            self.write_u64(machine, lane.len, 0)?;
        }
        Ok(())
    }

    /// Capacity of the bulk data area.
    pub fn bulk_capacity(&self) -> u64 {
        self.buffer.len().saturating_sub(layout::BULK)
    }

    /// Posts the termination notice (GPU-enclave side, §4.2.3).
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn post_termination_notice(&self, machine: &mut Machine) -> Result<(), ChannelError> {
        self.write_u64(machine, layout::NOTICE, NOTICE_TERMINATED)
    }

    /// Whether the peer posted the termination notice.
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn termination_noticed(&self, machine: &mut Machine) -> Result<bool, ChannelError> {
        Ok(self.read_u64(machine, layout::NOTICE)? == NOTICE_TERMINATED)
    }
}

/// Sealed-chunk geometry of the bulk stream: returns the total sealed
/// length of `plain_len` bytes chunked at `chunk`, or `None` for a zero
/// chunk or a length that overflows (both can arrive off the wire).
pub fn sealed_stream_len(plain_len: u64, chunk: u64) -> Option<u64> {
    let chunks = (chunk != 0).then(|| plain_len.div_ceil(chunk))?;
    chunks.checked_mul(TAG_LEN as u64)?.checked_add(plain_len)
}

/// Window offset of sealed chunk `index` of a bulk stream chunked at
/// `chunk`: each chunk before it holds `chunk` bytes and one tag. Callers
/// check the whole stream against the window first
/// ([`sealed_stream_len`]), so the offset cannot overflow.
pub fn sealed_chunk_offset(index: u64, chunk: u64) -> u64 {
    BULK_OFFSET + index * (chunk + TAG_LEN as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hix_driver::rig::{standard_rig, RigOptions};
    use hix_sim::fault::{FaultConfig, FaultPlan};
    use hix_sim::Nanos;

    fn pair() -> (Machine, Endpoint, Endpoint) {
        let mut m = standard_rig(RigOptions::default());
        let user = m.create_process();
        let encl = m.create_process();
        let buffer = DmaBuffer::alloc(&mut m, user, 1 << 20);
        buffer.share_with(&mut m, encl);
        let key = [0x42u8; 16];
        let a = Endpoint::new(user, buffer.clone(), key);
        let b = Endpoint::new(encl, buffer, key);
        (m, a, b)
    }

    #[test]
    fn request_response_roundtrip() {
        let (mut m, mut user, mut encl) = pair();
        assert_eq!(encl.recv_request(&mut m), Err(ChannelError::Empty));
        user.send_request(&mut m, b"hello enclave").unwrap();
        assert_eq!(encl.recv_request(&mut m).unwrap(), b"hello enclave");
        // Re-reading the same message is Empty (seq consumed).
        assert_eq!(encl.recv_request(&mut m), Err(ChannelError::Empty));
        encl.send_response(&mut m, b"hi user").unwrap();
        assert_eq!(user.recv_response(&mut m).unwrap(), b"hi user");
        // Multiple rounds keep working.
        user.send_request(&mut m, b"second").unwrap();
        assert_eq!(encl.recv_request(&mut m).unwrap(), b"second");
    }

    #[test]
    fn os_sees_only_ciphertext() {
        let (mut m, mut user, _encl) = pair();
        user.send_request(&mut m, b"SECRET-REQUEST").unwrap();
        // The adversary dumps the whole shared buffer physically.
        let bus = user.buffer().bus();
        let mut dump = vec![0u8; 0x2000];
        let pa = m.iommu_mut().translate(bus).unwrap();
        m.os_read_phys(pa, &mut dump);
        let needle = b"SECRET-REQUEST";
        assert!(
            !dump.windows(needle.len()).any(|w| w == needle),
            "plaintext leaked into shared memory"
        );
    }

    #[test]
    fn tampering_detected() {
        let (mut m, mut user, mut encl) = pair();
        user.send_request(&mut m, b"payload").unwrap();
        // Adversary flips a ciphertext byte via physical access.
        let pa = m.iommu_mut().translate(user.buffer().bus()).unwrap();
        let mut byte = [0u8; 1];
        m.os_read_phys(pa.offset(LANES[0].body), &mut byte);
        m.os_write_phys(pa.offset(LANES[0].body), &[byte[0] ^ 1]);
        assert_eq!(encl.recv_request(&mut m), Err(ChannelError::Tampered));
    }

    #[test]
    fn replay_detected() {
        let (mut m, mut user, mut encl) = pair();
        user.send_request(&mut m, b"one").unwrap();
        // Adversary snapshots the staged message.
        let pa = m.iommu_mut().translate(user.buffer().bus()).unwrap();
        let mut snapshot = vec![0u8; 0x200];
        m.os_read_phys(pa, &mut snapshot);
        assert_eq!(encl.recv_request(&mut m).unwrap(), b"one");
        user.send_request(&mut m, b"two").unwrap();
        // Adversary replays the old message over the new one.
        m.os_write_phys(pa, &snapshot);
        let err = encl.recv_request(&mut m);
        assert!(
            matches!(err, Err(ChannelError::Tampered) | Err(ChannelError::Empty)),
            "replay must not be accepted: {err:?}"
        );
    }

    #[test]
    fn forged_forward_doorbell_not_accepted() {
        let (mut m, mut user, mut encl) = pair();
        user.send_request(&mut m, b"real").unwrap();
        // Adversary bumps the doorbell past the real frame: the nonce no
        // longer matches the sealed bytes, so authentication fails.
        let pa = m.iommu_mut().translate(user.buffer().bus()).unwrap();
        m.os_write_phys(pa.offset(LANES[0].seq), &7u64.to_le_bytes());
        assert_eq!(encl.recv_request(&mut m), Err(ChannelError::Tampered));
        // Way past the window: the receiver reports desync instead of
        // scanning forever.
        m.os_write_phys(pa.offset(LANES[0].seq), &10_000u64.to_le_bytes());
        assert_eq!(encl.recv_request(&mut m), Err(ChannelError::Desync));
    }

    #[test]
    fn retransmission_is_served_as_duplicate_not_replay() {
        let (mut m, mut user, mut encl) = pair();
        user.send_request(&mut m, b"op").unwrap();
        assert_eq!(encl.recv_request(&mut m).unwrap(), b"op");
        // The response is lost; the user retransmits the same message id
        // under a fresh wire sequence.
        user.resend_request(&mut m).unwrap();
        assert_eq!(encl.recv_request(&mut m), Err(ChannelError::Duplicate));
        // The cached response answers it without re-execution.
        encl.send_response(&mut m, b"done").unwrap();
        assert_eq!(user.recv_response(&mut m).unwrap(), b"done");
        assert!(encl.resend_response(&mut m).unwrap());
        assert_eq!(user.recv_response(&mut m), Err(ChannelError::Duplicate));
        assert_eq!(m.trace().metrics().counter("recovery.retransmits"), 2);
    }

    #[test]
    fn rekey_opens_a_fresh_epoch() {
        let (mut m, mut user, mut encl) = pair();
        user.send_request(&mut m, b"before").unwrap();
        assert_eq!(encl.recv_request(&mut m).unwrap(), b"before");
        user.rekey([0x77; 16]);
        encl.rekey([0x77; 16]);
        user.reset_wire(&mut m).unwrap();
        user.send_request(&mut m, b"after").unwrap();
        assert_eq!(encl.recv_request(&mut m).unwrap(), b"after");
        // Old-key traffic no longer authenticates. (The first stale send
        // lands on a wire seq the window already consumed; the second
        // reaches a fresh seq and fails authentication.)
        let mut stale = Endpoint::new(user.pid, user.buffer.clone(), [0x42; 16]);
        stale.send_request(&mut m, b"stale").unwrap();
        stale.send_request(&mut m, b"stale").unwrap();
        assert_eq!(encl.recv_request(&mut m), Err(ChannelError::Tampered));
    }

    #[test]
    fn faulty_wire_recovers_with_retransmissions() {
        // Drive the raw ARQ machinery (no runtime loop) over a lossy
        // plan: every op must still complete exactly once, in order.
        let (mut m, mut user, mut encl) = pair();
        m.set_fault_plan(FaultPlan::new(
            0xC0FFEE,
            FaultConfig {
                drop_pm: 150,
                dup_pm: 100,
                reorder_pm: 100,
                delay_pm: 100,
                corrupt_pm: 150,
                ..FaultConfig::none()
            },
        ));
        let mut served = Vec::new();
        let mut epoch_key = [0x42u8; 16];
        for op in 0u64..40 {
            let body = op.to_le_bytes();
            user.send_request(&mut m, &body).unwrap();
            let mut done = false;
            for _attempt in 0..96 {
                let mut desync = false;
                // Enclave side: serve whatever arrives.
                match encl.recv_request(&mut m) {
                    Ok(req) => {
                        served.push(u64::from_le_bytes(req.try_into().unwrap()));
                        encl.send_response(&mut m, &op.to_le_bytes()).unwrap();
                    }
                    Err(ChannelError::Duplicate) => {
                        let _ = encl.resend_response(&mut m).unwrap();
                    }
                    Err(ChannelError::Desync) => desync = true,
                    Err(ChannelError::Empty | ChannelError::Tampered | ChannelError::Malformed) => {
                    }
                    Err(e) => panic!("unexpected access fault on lossy wire: {e}"),
                }
                if !desync {
                    // User side: accept the matching response.
                    match user.recv_response(&mut m) {
                        Ok(resp) => {
                            assert_eq!(resp, op.to_le_bytes());
                            done = true;
                            break;
                        }
                        Err(ChannelError::Desync) => desync = true,
                        Err(
                            ChannelError::Empty
                            | ChannelError::Duplicate
                            | ChannelError::Tampered
                            | ChannelError::Malformed,
                        ) => {}
                        Err(e) => panic!("unexpected access fault on lossy wire: {e}"),
                    }
                }
                if desync {
                    // Header corruption ran the wire past the replay
                    // window: re-key both ends and restart the op in a
                    // fresh epoch (what the runtime does via
                    // re-attestation).
                    epoch_key[0] = epoch_key[0].wrapping_add(1);
                    user.rekey(epoch_key);
                    encl.rekey(epoch_key);
                    user.reset_wire(&mut m).unwrap();
                    user.send_request(&mut m, &body).unwrap();
                    continue;
                }
                m.charge(EventKind::Ipc, Nanos::from_micros(10), "retransmit timer");
                user.resend_request(&mut m).unwrap();
            }
            assert!(done, "op {op} never completed under the fault plan");
        }
        // A re-key mid-op may legitimately re-execute the in-flight op
        // (the runtime tolerates that); dedup adjacent repeats before
        // checking exactly-once-in-order delivery.
        served.dedup();
        assert_eq!(
            served,
            (0..40).collect::<Vec<_>>(),
            "each op served in order"
        );
        let injected = m.trace().metrics().counter("fault.injected");
        assert!(injected > 0, "the plan must actually fire at these rates");
        assert_eq!(m.trace().count(EventKind::Fault), injected);
    }

    #[test]
    fn a_frame_that_cannot_be_staged_injects_nothing() {
        let (mut m, mut user, _encl) = pair();
        m.set_fault_plan(FaultPlan::new(
            1,
            FaultConfig {
                dup_pm: 1000,
                ..FaultConfig::none()
            },
        ));
        // The OS tears the doorbell page down under the sender.
        m.os_unmap_shared(user.buffer().va(), 1);
        let sent = user.send_request(&mut m, b"lost");
        assert!(matches!(sent, Err(ChannelError::Access(_))), "{sent:?}");
        assert_eq!(m.trace().metrics().counter("fault.injected"), 0);
        assert_eq!(m.trace().count(EventKind::Fault), 0);
        let chan = user.buffer().bus().value();
        assert!(!m
            .fault_plan()
            .expect("installed")
            .take_duplicate(chan, Dir::Request));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut m = standard_rig(RigOptions::default());
        let user = m.create_process();
        let encl = m.create_process();
        let buffer = DmaBuffer::alloc(&mut m, user, 1 << 20);
        buffer.share_with(&mut m, encl);
        let mut a = Endpoint::new(user, buffer.clone(), [1u8; 16]);
        let mut b = Endpoint::new(encl, buffer, [2u8; 16]);
        a.send_request(&mut m, b"x").unwrap();
        assert_eq!(b.recv_request(&mut m), Err(ChannelError::Tampered));
    }

    #[test]
    #[should_panic(expected = "request too large")]
    fn oversized_request_is_a_programming_error() {
        let (mut m, mut user, _encl) = pair();
        let huge = vec![0u8; 0x2000];
        let _ = user.send_request(&mut m, &huge);
    }

    #[test]
    fn termination_notice_roundtrip() {
        let (mut m, user, encl) = pair();
        assert!(!user.termination_noticed(&mut m).unwrap());
        encl.post_termination_notice(&mut m).unwrap();
        assert!(user.termination_noticed(&mut m).unwrap());
    }

    #[test]
    fn bulk_capacity_accounts_for_header() {
        let (_m, user, _encl) = pair();
        assert_eq!(user.bulk_capacity(), (1 << 20) - BULK_OFFSET);
    }

    #[test]
    fn sealed_stream_geometry() {
        assert_eq!(sealed_stream_len(0, 4096), Some(0));
        assert_eq!(sealed_stream_len(1, 4096), Some(1 + 16));
        assert_eq!(sealed_stream_len(4096, 4096), Some(4096 + 16));
        assert_eq!(sealed_stream_len(4097, 4096), Some(4097 + 32));
        assert_eq!(sealed_stream_len(4096, 0), None);
        assert_eq!(sealed_stream_len(u64::MAX, 4096), None);
        assert_eq!(sealed_chunk_offset(0, 4096), BULK_OFFSET);
        assert_eq!(sealed_chunk_offset(2, 4096), BULK_OFFSET + 2 * (4096 + 16));
    }
}
