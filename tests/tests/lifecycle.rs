//! Lifecycle integration: session churn, enclave restarts, cold boots,
//! and resource reclamation across the whole stack.

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};
use hix_platform::Machine;
use hix_sim::Payload;
use hix_testkit::Rng;

fn rig() -> Machine {
    standard_rig(RigOptions::default())
}

#[test]
fn many_sessions_sequentially() {
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    // Seeded 32–96 KiB shared windows: each session's window is built on
    // frames its predecessors returned, at a different size.
    let mut rng = Rng::new(0xC4_0B17);
    for i in 0..40u32 {
        let window = rng.gen_range(8..25) * 4096;
        let mut s = HixSession::connect_with(
            &mut m,
            &mut enclave,
            window,
            format!("churn-{i}").as_bytes(),
        )
        .unwrap_or_else(|e| panic!("session {i} ({window} B window): {e}"));
        let dev = s.malloc(&mut m, &mut enclave, 8192).unwrap();
        let data = vec![i as u8; 8192];
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(data.clone()),
        )
        .unwrap();
        let back = s.memcpy_dtoh(&mut m, &mut enclave, dev, 8192).unwrap();
        assert_eq!(back.bytes(), &data[..]);
        s.close(&mut m, &mut enclave).unwrap();
        assert_eq!(enclave.session_count(), 0, "iteration {i}");
    }
}

#[test]
fn closed_window_does_not_alias_a_live_one() {
    // a's frames go back to the OS when it closes, and c's larger window
    // is built on them. b's window, still live, must keep its own bus
    // pages and virtual range.
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let a = HixSession::connect_with(&mut m, &mut enclave, 32 << 10, b"alias-a").unwrap();
    let mut b = HixSession::connect_with(&mut m, &mut enclave, 32 << 10, b"alias-b").unwrap();
    a.close(&mut m, &mut enclave).unwrap();
    let mut c = HixSession::connect_with(&mut m, &mut enclave, 256 << 10, b"alias-c").unwrap();
    for (tag, s) in [("b", &mut b), ("c", &mut c)] {
        let dev = s
            .malloc(&mut m, &mut enclave, 8192)
            .unwrap_or_else(|e| panic!("session {tag}: malloc: {e}"));
        let data = vec![tag.as_bytes()[0]; 8192];
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(data.clone()),
        )
        .unwrap_or_else(|e| panic!("session {tag}: htod: {e}"));
        let back = s.memcpy_dtoh(&mut m, &mut enclave, dev, 8192).unwrap();
        assert_eq!(
            back.bytes(),
            &data[..],
            "session {tag} read back foreign bytes"
        );
    }
    b.close(&mut m, &mut enclave).unwrap();
    c.close(&mut m, &mut enclave).unwrap();
}

#[test]
fn interleaved_concurrent_sessions() {
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let mut sessions: Vec<HixSession> = (0..4u32)
        .map(|i| {
            HixSession::connect_with(&mut m, &mut enclave, 1 << 20, format!("u{i}").as_bytes())
                .unwrap()
        })
        .collect();
    let devs: Vec<_> = sessions
        .iter_mut()
        .enumerate()
        .map(|(i, s)| {
            let dev = s.malloc(&mut m, &mut enclave, 4096).unwrap();
            s.memcpy_htod(
                &mut m,
                &mut enclave,
                dev,
                &Payload::from_bytes(vec![i as u8 + 1; 4096]),
            )
            .unwrap();
            dev
        })
        .collect();
    // Interleave readbacks in reverse order.
    for (i, s) in sessions.iter_mut().enumerate().rev() {
        let back = s.memcpy_dtoh(&mut m, &mut enclave, devs[i], 4096).unwrap();
        assert!(back.bytes().iter().all(|&b| b == i as u8 + 1));
    }
    for s in sessions {
        s.close(&mut m, &mut enclave).unwrap();
    }
}

#[test]
fn enclave_shutdown_and_relaunch_cycles() {
    let mut m = rig();
    for cycle in 0..3 {
        let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default())
            .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        let mut s = HixSession::connect_with(
            &mut m,
            &mut enclave,
            1 << 20,
            format!("cycle-{cycle}").as_bytes(),
        )
        .unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 4096).unwrap();
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(vec![7; 4096]),
        )
        .unwrap();
        s.close(&mut m, &mut enclave).unwrap();
        enclave.shutdown(&mut m).unwrap();
    }
}

#[test]
fn cold_boot_recovers_from_forced_kill() {
    let mut m = rig();
    for boot in 0..2 {
        let enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default())
            .unwrap_or_else(|e| panic!("boot {boot}: {e}"));
        m.kill_process(enclave.pid());
        // GPU is now locked until reboot.
        assert!(GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).is_err());
        m.cold_boot();
    }
    // After the final boot a healthy enclave works again.
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
    let dev = s.malloc(&mut m, &mut enclave, 4096).unwrap();
    s.memcpy_htod(
        &mut m,
        &mut enclave,
        dev,
        &Payload::from_bytes(vec![1; 4096]),
    )
    .unwrap();
}

#[test]
fn vram_is_reclaimed_across_sessions() {
    // Alloc/free a large buffer repeatedly: without frame reclamation the
    // 1.5 GiB device would run out after a few iterations.
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    for i in 0..8u32 {
        let mut s =
            HixSession::connect_with(&mut m, &mut enclave, 1 << 20, format!("big-{i}").as_bytes())
                .unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 400 << 20).unwrap();
        let _ = dev;
        s.close(&mut m, &mut enclave).unwrap();
    }
}

#[test]
fn gdev_and_hix_can_alternate_with_graceful_handoff() {
    use hix_driver::Gdev;
    let mut m = rig();
    // Gdev first (OS-owned GPU).
    let pid = m.create_process();
    let mut gdev = Gdev::open(&mut m, pid, GPU_BDF).unwrap();
    let dev = gdev.malloc(&mut m, 4096).unwrap();
    gdev.memcpy_htod(&mut m, dev, &Payload::from_bytes(vec![1; 4096]))
        .unwrap();
    gdev.close(&mut m).unwrap();
    // HIX takes over; the enclave resets the device at init.
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
    let dev = s.malloc(&mut m, &mut enclave, 4096).unwrap();
    let back = s.memcpy_dtoh(&mut m, &mut enclave, dev, 4096).unwrap();
    assert!(
        back.bytes().iter().all(|&b| b == 0),
        "fresh HIX allocation must not see Gdev-era residue (device was reset)"
    );
    s.close(&mut m, &mut enclave).unwrap();
    enclave.shutdown(&mut m).unwrap();
    // And back to Gdev after graceful release.
    let pid2 = m.create_process();
    let gdev2 = Gdev::open(&mut m, pid2, GPU_BDF);
    assert!(
        gdev2.is_ok(),
        "GPU returned to the OS after graceful termination"
    );
}
