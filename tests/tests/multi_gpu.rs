//! Multi-GPU (no peer-to-peer, §5.6/§7): each GPU is owned by its own
//! GPU enclave; ownership, lockdown, and sessions are independent.

use hix_core::HixCoreError;
use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_crypto::sha256;
use hix_driver::rig::{fabric_rig, RigOptions};
use hix_gpu::device::{build_bios, GpuConfig};
use hix_pcie::addr::Bdf;
use hix_platform::hix::HixError;
use hix_sim::Payload;

/// Two GPUs, each behind its own switch: the two paths share only the
/// root port. Returns the machine and the GPUs' BDFs.
fn two_gpu_rig() -> (hix_platform::Machine, [Bdf; 2]) {
    let (m, topo) = fabric_rig(RigOptions::default(), 2, 1);
    (m, [topo.gpus[0].bdf, topo.gpus[1].bdf])
}

/// GPU1 carries the default BIOS, so the default pin fits it.
fn gpu1_options(gpu1: Bdf) -> GpuEnclaveOptions {
    GpuEnclaveOptions {
        bdf: gpu1,
        ..Default::default()
    }
}

fn gpu2_options(gpu2: Bdf) -> GpuEnclaveOptions {
    GpuEnclaveOptions {
        bdf: gpu2,
        // The second GPU carries a different (but genuine) BIOS.
        expected_bios: Some(sha256::digest(&build_bios(
            GpuConfig::default().seed.wrapping_add(1),
        ))),
        seed: b"gpu-enclave-2".to_vec(),
        ..Default::default()
    }
}

#[test]
fn each_gpu_gets_its_own_enclave() {
    let (mut m, [gpu1, gpu2]) = two_gpu_rig();
    let enclave1 = GpuEnclave::launch(&mut m, gpu1_options(gpu1)).unwrap();
    let enclave2 = GpuEnclave::launch(&mut m, gpu2_options(gpu2)).unwrap();
    assert_eq!(enclave1.bdf(), gpu1);
    assert_eq!(enclave2.bdf(), gpu2);
    assert!(m.hix_state().gecs(gpu1).is_some());
    assert!(m.hix_state().gecs(gpu2).is_some());
}

#[test]
fn one_enclave_cannot_own_two_gpus() {
    // §4.2.1: "no GPU is registered to two GPU enclaves at the same
    // time" — and the reproduction also enforces one GPU per enclave.
    let (mut m, [gpu1, gpu2]) = two_gpu_rig();
    let enclave1 = GpuEnclave::launch(&mut m, gpu1_options(gpu1)).unwrap();
    let err = m.egcreate(enclave1.pid(), gpu2);
    assert!(matches!(err, Err(HixError::OwnerBusy(_))));
}

#[test]
fn wrong_bios_pin_rejects_second_gpu() {
    let (mut m, [_, gpu2]) = two_gpu_rig();
    // Pin GPU1's BIOS while binding GPU2: must be refused.
    let err = GpuEnclave::launch(
        &mut m,
        GpuEnclaveOptions {
            bdf: gpu2,
            expected_bios: None, // default = GPU1's digest
            seed: b"x".to_vec(),
            ..Default::default()
        },
    );
    assert!(matches!(err, Err(HixCoreError::BiosMismatch)));
    // With the right pin it works.
    GpuEnclave::launch(&mut m, gpu2_options(gpu2)).unwrap();
}

#[test]
fn sessions_on_both_gpus_roundtrip_independently() {
    let (mut m, [gpu1, gpu2]) = two_gpu_rig();
    let mut enclave1 = GpuEnclave::launch(&mut m, gpu1_options(gpu1)).unwrap();
    let mut enclave2 = GpuEnclave::launch(&mut m, gpu2_options(gpu2)).unwrap();
    let mut s1 = HixSession::connect_with(&mut m, &mut enclave1, 1 << 20, b"u1").unwrap();
    let mut s2 = HixSession::connect_with(&mut m, &mut enclave2, 1 << 20, b"u2").unwrap();
    let d1 = s1.malloc(&mut m, &mut enclave1, 4096).unwrap();
    let d2 = s2.malloc(&mut m, &mut enclave2, 4096).unwrap();
    s1.memcpy_htod(
        &mut m,
        &mut enclave1,
        d1,
        &Payload::from_bytes(vec![0xA1; 4096]),
    )
    .unwrap();
    s2.memcpy_htod(
        &mut m,
        &mut enclave2,
        d2,
        &Payload::from_bytes(vec![0xB2; 4096]),
    )
    .unwrap();
    assert!(s1
        .memcpy_dtoh(&mut m, &mut enclave1, d1, 4096)
        .unwrap()
        .bytes()
        .iter()
        .all(|&b| b == 0xA1));
    assert!(s2
        .memcpy_dtoh(&mut m, &mut enclave2, d2, 4096)
        .unwrap()
        .bytes()
        .iter()
        .all(|&b| b == 0xB2));
}

#[test]
fn shared_root_port_stays_locked_until_both_release() {
    use hix_driver::rig::PORT_BDF;
    use hix_pcie::config::offsets;
    let (mut m, [gpu1, gpu2]) = two_gpu_rig();
    let enclave1 = GpuEnclave::launch(&mut m, gpu1_options(gpu1)).unwrap();
    let enclave2 = GpuEnclave::launch(&mut m, gpu2_options(gpu2)).unwrap();
    // One enclave releases; the port must stay locked for the other.
    enclave1.shutdown(&mut m).unwrap();
    assert!(
        m.config_write(PORT_BDF, offsets::MEMORY_WINDOW, 0).is_err(),
        "port still on a locked path (GPU2)"
    );
    // GPU1's own registers are writable again though.
    m.config_write(gpu1, offsets::BAR0, 0xc000_0000).unwrap();
    // After the second release everything unlocks.
    enclave2.shutdown(&mut m).unwrap();
    m.config_write(PORT_BDF, offsets::MEMORY_WINDOW, 0xfff0_0000)
        .unwrap();
}

#[test]
fn switched_shared_bridges_stay_locked_until_the_last_shard_releases() {
    use hix_pcie::config::offsets;
    // Two GPUs behind ONE switch: the root port AND the switch upstream
    // port sit on both routing paths; each GPU's downstream port sits
    // on exactly one. Release must be per-path.
    let (mut m, topo) = fabric_rig(RigOptions::default(), 2, 2);
    assert_eq!(topo.switches.len(), 1, "one switch carries both GPUs");
    let upstream = topo.switches[0];
    let root_port = Bdf::new(0, 1, 0);
    // Downstream ports live on the switch's internal bus, one function
    // slot per fanout position.
    let down = |i: u8| Bdf::new(upstream.bus + 1, i, 0);
    let mk = |i: usize| GpuEnclaveOptions {
        bdf: topo.gpus[i].bdf,
        expected_bios: Some(sha256::digest(&build_bios(topo.gpus[i].bios_seed))),
        seed: format!("switched-{i}").into_bytes(),
        ..Default::default()
    };
    let enclave1 = GpuEnclave::launch(&mut m, mk(0)).unwrap();
    let enclave2 = GpuEnclave::launch(&mut m, mk(1)).unwrap();
    for bdf in [root_port, upstream, down(0), down(1)] {
        assert!(
            m.config_write(bdf, offsets::MEMORY_WINDOW, 0).is_err(),
            "{bdf:?} must be locked while both shards hold the path"
        );
    }
    // Shard 0 releases: its OWN downstream port unlocks, but every
    // bridge still on shard 1's path stays locked.
    enclave1.shutdown(&mut m).unwrap();
    m.config_write(down(0), offsets::MEMORY_WINDOW, 0xfff0_0000)
        .unwrap();
    for bdf in [root_port, upstream, down(1)] {
        assert!(
            m.config_write(bdf, offsets::MEMORY_WINDOW, 0).is_err(),
            "{bdf:?} is on the surviving shard's path and must stay locked"
        );
    }
    // The surviving shard's MMIO path still verifies end to end.
    assert!(enclave2.verify_path(&m));
    // Last shard out unlocks the shared prefix.
    enclave2.shutdown(&mut m).unwrap();
    for bdf in [root_port, upstream, down(1)] {
        m.config_write(bdf, offsets::MEMORY_WINDOW, 0xfff0_0000)
            .unwrap();
    }
}

#[test]
fn termination_notice_reaches_user_sessions() {
    // Both GPUs, one enclave each, one session each: a termination
    // notice is scoped to the terminating enclave's own sessions.
    let (mut m, [gpu1, gpu2]) = two_gpu_rig();
    let mut enclave1 = GpuEnclave::launch(&mut m, gpu1_options(gpu1)).unwrap();
    let mut enclave2 = GpuEnclave::launch(&mut m, gpu2_options(gpu2)).unwrap();
    let s1 = HixSession::connect(&mut m, &mut enclave1).unwrap();
    let s2 = HixSession::connect_with(&mut m, &mut enclave2, 1 << 20, b"u2").unwrap();
    assert!(!s1.enclave_terminated(&mut m).unwrap());
    assert!(!s2.enclave_terminated(&mut m).unwrap());
    // GPU2's enclave goes down first: only ITS session is notified.
    enclave2.shutdown(&mut m).unwrap();
    assert!(
        s2.enclave_terminated(&mut m).unwrap(),
        "§4.2.3: user enclaves are notified of graceful termination"
    );
    assert!(
        !s1.enclave_terminated(&mut m).unwrap(),
        "a peer GPU enclave's termination must not leak into GPU1's sessions"
    );
    enclave1.shutdown(&mut m).unwrap();
    assert!(s1.enclave_terminated(&mut m).unwrap());
}
