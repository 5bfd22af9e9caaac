//! Timing tests for the shared crypto/DMA transfer pipeline
//! (`hix_sim::CryptoDmaPipeline` wired into the GPU enclave): inside a
//! batched frame, consecutive secure transfers overlap chunkwise on the
//! shared enclave-crypto and DMA engines instead of serializing their
//! closed forms, and the engine cursors are one machine-wide resource —
//! every session of an enclave books the same pair.

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_platform::Machine;
use hix_sim::{Nanos, Payload};
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
    // With idle engines the pipeline booking degenerates to exactly the
    // `hix_htod` closed form, so a lone transfer (the synchronous path
    // wraps one command per frame) is timed as before.
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

#[test]
fn engines_are_shared_across_sessions() {
    // One enclave, two sessions: both sessions' transfers book the same
    // pipeline instance, so the engine cursors advance monotonically
    // across sessions — the transfer plane is a machine resource, not a
    // per-session one.
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("launch");
    let mut s1 = HixSession::connect(&mut m, &mut enclave).expect("connect s1");
    let mut s2 = HixSession::connect(&mut m, &mut enclave).expect("connect s2");
    let len = transfer_len(&m);
    let a1 = s1.malloc(&mut m, &mut enclave, len).expect("malloc s1");
    let a2 = s2.malloc(&mut m, &mut enclave, len).expect("malloc s2");

    assert_eq!(
        enclave.xfer_pipeline().dma_free(),
        Nanos::ZERO,
        "no booking yet"
    );

    s1.memcpy_htod(
        &mut m,
        &mut enclave,
        a1,
        &Payload::from_bytes(vec![1u8; len as usize]),
    )
    .expect("htod s1");
    let after_s1 = (
        enclave.xfer_pipeline().crypt_free(),
        enclave.xfer_pipeline().dma_free(),
    );
    assert!(after_s1.0 > Nanos::ZERO && after_s1.1 > after_s1.0);

    s2.memcpy_htod(
        &mut m,
        &mut enclave,
        a2,
        &Payload::from_bytes(vec![2u8; len as usize]),
    )
    .expect("htod s2");
    let after_s2 = (
        enclave.xfer_pipeline().crypt_free(),
        enclave.xfer_pipeline().dma_free(),
    );
    assert!(
        after_s2.0 > after_s1.0 && after_s2.1 > after_s1.1,
        "session 2's transfer must book the same engines session 1 used"
    );

    // Readbacks book the same engines in the other direction.
    let before_dtoh = enclave.xfer_pipeline().crypt_free();
    s1.memcpy_dtoh(&mut m, &mut enclave, a1, len)
        .expect("dtoh s1");
    assert!(
        enclave.xfer_pipeline().crypt_free() > before_dtoh,
        "DtoH must book the shared crypto engine too"
    );

    s1.close(&mut m, &mut enclave).expect("close s1");
    s2.close(&mut m, &mut enclave).expect("close s2");
}
