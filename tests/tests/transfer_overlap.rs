//! Timing tests for secure transfers. The GPU enclave tops each
//! successful transfer up to its closed-form floor, `hix_htod` or
//! `hix_dtoh`, counted from when its sealed chunks were ready: a
//! frame's HtoD from the frame's arrival, so GPU work riding the same
//! frame runs under it, and a direct request (a journal replay) from its
//! own arrival. Service is serial on one clock, so no transfer waits for
//! an earlier one.

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_platform::Machine;
use hix_sim::{EventKind, Nanos, Payload};
use hix_workloads::all_kernels;

fn rig() -> Machine {
    standard_rig(RigOptions {
        kernels: all_kernels(),
        ..RigOptions::default()
    })
}

/// Two pipeline-chunk-sized transfers per direction: big enough that the
/// hidden crypto fill / DMA tail dwarfs IPC and MMIO overheads.
fn transfer_len(m: &Machine) -> u64 {
    2 * m.model().pipeline_chunk
}

#[test]
fn batched_frames_hide_gpu_work_under_the_transfer_pipeline() {
    // A frame's sealed HtoD chunks are staged at frame-build time, so
    // the transfer's crypto fill starts counting from frame arrival —
    // GPU-side commands riding the same frame execute *under* it
    // instead of pushing the closed form back. Self-calibrating: time a
    // big DtoD frame and an HtoD frame separately, then a combined
    // frame, and require the combined frame to hide at least half the
    // DtoD (the old serialized pin paid for both in full).
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("launch");
    let mut s = HixSession::connect(&mut m, &mut enclave).expect("connect");
    let len = transfer_len(&m);
    let copy_len = 64 << 20; // ~0.9 ms of VRAM traffic, >> IPC noise
    let a = s.malloc(&mut m, &mut enclave, len).expect("malloc a");
    let b = s.malloc(&mut m, &mut enclave, len).expect("malloc b");
    let big_src = s
        .malloc(&mut m, &mut enclave, copy_len)
        .expect("malloc src");
    let big_dst = s
        .malloc(&mut m, &mut enclave, copy_len)
        .expect("malloc dst");
    let av = vec![0xA5u8; len as usize];
    let bv = vec![0x5Au8; len as usize];

    // Calibration frame 1: the DtoD alone.
    s.submit_dtod(&mut m, &mut enclave, big_src, big_dst, copy_len)
        .unwrap();
    let before = m.clock().now();
    s.flush(&mut m, &mut enclave).expect("flush dtod");
    let t_dtod = m.clock().now() - before;

    // Calibration frame 2: the transfer alone.
    s.submit_htod(&mut m, &mut enclave, a, &Payload::from_bytes(av.clone()))
        .unwrap();
    let before = m.clock().now();
    s.flush(&mut m, &mut enclave).expect("flush htod");
    let t_htod = m.clock().now() - before;

    // Combined frame: DtoD first, then the transfer.
    s.submit_dtod(&mut m, &mut enclave, big_src, big_dst, copy_len)
        .unwrap();
    s.submit_htod(&mut m, &mut enclave, b, &Payload::from_bytes(bv.clone()))
        .unwrap();
    let before = m.clock().now();
    s.flush(&mut m, &mut enclave).expect("flush combined");
    let t_both = m.clock().now() - before;

    assert!(
        t_both >= t_htod,
        "the transfer itself cannot get shorter: {t_both} < {t_htod}"
    );
    assert!(
        t_both + t_dtod / 2 < t_dtod + t_htod,
        "the frame must hide the DtoD under the transfer pipeline: \
         combined {t_both}, serialized {t_dtod} + {t_htod}"
    );

    // The functional plane is unaffected: the bytes landed.
    let back_a = s.memcpy_dtoh(&mut m, &mut enclave, a, len).expect("dtoh a");
    let back_b = s.memcpy_dtoh(&mut m, &mut enclave, b, len).expect("dtoh b");
    assert_eq!(back_a.bytes(), &av[..]);
    assert_eq!(back_b.bytes(), &bv[..]);
    s.close(&mut m, &mut enclave).expect("close");
}

#[test]
fn single_transfer_frames_keep_the_closed_form() {
    // A lone transfer (the synchronous path wraps one command per frame)
    // is timed at exactly the `hix_htod` closed form.
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("launch");
    let mut s = HixSession::connect(&mut m, &mut enclave).expect("connect");
    let len = transfer_len(&m);
    let a = s.malloc(&mut m, &mut enclave, len).expect("malloc");
    let before = m.clock().now();
    s.memcpy_htod(
        &mut m,
        &mut enclave,
        a,
        &Payload::from_bytes(vec![7u8; len as usize]),
    )
    .expect("htod");
    let elapsed = m.clock().now() - before;
    assert_eq!(
        elapsed,
        m.model().ipc_roundtrip + m.model().hix_htod(len),
        "sync single-copy timing must stay pinned to the closed form"
    );
    s.close(&mut m, &mut enclave).expect("close");
}

/// Virtual time `op` takes on `m`'s clock.
fn elapsed(m: &mut Machine, op: impl FnOnce(&mut Machine)) -> Nanos {
    let before = m.clock().now();
    op(m);
    m.clock().now() - before
}

#[test]
fn a_transfer_is_never_delayed_by_an_earlier_one() {
    // Two sessions' transfers back to back, then their readbacks: each
    // takes exactly its closed form, whoever was served before it.
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("launch");
    let mut s1 = HixSession::connect(&mut m, &mut enclave).expect("connect s1");
    let mut s2 = HixSession::connect(&mut m, &mut enclave).expect("connect s2");
    let len = transfer_len(&m);
    let a1 = s1.malloc(&mut m, &mut enclave, len).expect("malloc s1");
    let a2 = s2.malloc(&mut m, &mut enclave, len).expect("malloc s2");
    let htod = m.model().ipc_roundtrip + m.model().hix_htod(len);
    let dtoh = m.model().ipc_roundtrip + m.model().hix_dtoh(len);

    for (s, a, byte) in [(&mut s1, a1, 1u8), (&mut s2, a2, 2)] {
        let payload = Payload::from_bytes(vec![byte; len as usize]);
        let t = elapsed(&mut m, |m| {
            s.memcpy_htod(m, &mut enclave, a, &payload).expect("htod");
        });
        assert_eq!(t, htod, "HtoD of session {}", s.id());
    }
    for (s, a, byte) in [(&mut s1, a1, 1u8), (&mut s2, a2, 2)] {
        let mut back = None;
        let t = elapsed(&mut m, |m| {
            back = Some(s.memcpy_dtoh(m, &mut enclave, a, len).expect("dtoh"));
        });
        assert_eq!(t, dtoh, "DtoH of session {}", s.id());
        assert!(back.expect("read").bytes().iter().all(|&b| b == byte));
    }
    s1.close(&mut m, &mut enclave).expect("close s1");
    s2.close(&mut m, &mut enclave).expect("close s2");
}

#[test]
fn a_replayed_transfer_is_charged_its_floor() {
    // Resuming a parked session replays its journal: each HtoD is sealed
    // again and sent as a direct request, outside any frame. The replay
    // charges the same exposed sealing as the original, on top of the
    // record's unsealing.
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("launch");
    let mut s = HixSession::connect(&mut m, &mut enclave).expect("connect");
    let len = 64 << 10;
    let a = s.malloc(&mut m, &mut enclave, len).expect("malloc");
    let crypto = |m: &Machine| m.trace().total(EventKind::EnclaveCrypto);

    let before = crypto(&m);
    s.memcpy_htod(
        &mut m,
        &mut enclave,
        a,
        &Payload::from_bytes(vec![3u8; len as usize]),
    )
    .expect("htod");
    let sealing = crypto(&m) - before;
    assert!(sealing > Nanos::ZERO, "a 64 KiB HtoD binds its floor");

    enclave.park_session(&mut m, s.id()).expect("park");
    let before = crypto(&m);
    assert!(s.resume(&mut m, &mut enclave).expect("resume"));
    assert_eq!(
        crypto(&m) - before,
        m.model().park_unseal() + sealing,
        "the replayed HtoD must charge its floor like the original"
    );

    let back = s.memcpy_dtoh(&mut m, &mut enclave, a, len).expect("dtoh");
    assert!(back.bytes().iter().all(|&b| b == 3));
    s.close(&mut m, &mut enclave).expect("close");
}
