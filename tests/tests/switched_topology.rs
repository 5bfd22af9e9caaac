//! Full HIX stack with the GPU behind a PCIe switch: the lockdown must
//! freeze the root port *and both switch ports* (§4.3.2), and the whole
//! secure data path must work unchanged.

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{fabric_rig, RigOptions, PORT_BDF};
use hix_pcie::addr::Bdf;
use hix_pcie::config::offsets;
use hix_pcie::fabric::PcieError;
use hix_sim::Payload;

/// A one-GPU, one-switch fabric: root port (00:01.0) → switch upstream
/// (01:00.0) → switch downstream (02:00.0) → GPU (03:00.0).
const GPU: Bdf = Bdf {
    bus: 3,
    device: 0,
    function: 0,
};

fn launch() -> (hix_platform::Machine, GpuEnclave) {
    let (mut m, topo) = fabric_rig(RigOptions::default(), 1, 1);
    assert_eq!(topo.gpus[0].bdf, GPU);
    let enclave = GpuEnclave::launch(
        &mut m,
        GpuEnclaveOptions {
            bdf: GPU,
            ..Default::default()
        },
    )
    .expect("enclave over switch");
    (m, enclave)
}

#[test]
fn secure_path_works_through_a_switch() {
    let (mut m, mut enclave) = launch();
    let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
    let dev = s.malloc(&mut m, &mut enclave, 8192).unwrap();
    let data = vec![0x3c; 8192];
    s.memcpy_htod(
        &mut m,
        &mut enclave,
        dev,
        &Payload::from_bytes(data.clone()),
    )
    .unwrap();
    let back = s.memcpy_dtoh(&mut m, &mut enclave, dev, 8192).unwrap();
    assert_eq!(back.bytes(), &data[..]);
}

#[test]
fn lockdown_freezes_root_port_and_both_switch_ports() {
    let (mut m, enclave) = launch();
    for bridge in [PORT_BDF, Bdf::new(1, 0, 0), Bdf::new(2, 0, 0), GPU] {
        assert_eq!(
            m.config_write(bridge, offsets::MEMORY_WINDOW, 0),
            Err(PcieError::LockedDown(bridge)),
            "{bridge} must be frozen on the locked path"
        );
    }
    assert!(enclave.verify_path(&m));
}

#[test]
fn graceful_release_unfreezes_the_whole_chain() {
    let (mut m, enclave) = launch();
    enclave.shutdown(&mut m).unwrap();
    for bridge in [PORT_BDF, Bdf::new(1, 0, 0), Bdf::new(2, 0, 0)] {
        m.config_write(bridge, offsets::BUS_NUMBERS + 0x1c, 0)
            .unwrap_or_else(|e| panic!("{bridge}: {e}"));
    }
    // Re-launch works.
    GpuEnclave::launch(
        &mut m,
        GpuEnclaveOptions {
            bdf: GPU,
            ..Default::default()
        },
    )
    .unwrap();
}

#[test]
fn switch_window_attack_blocked_after_lockdown() {
    // Narrowing the downstream port's window would make the GPU
    // unreachable / redirectable mid-path; the lockdown discards it.
    let (mut m, enclave) = launch();
    let err = m.config_write(Bdf::new(2, 0, 0), offsets::MEMORY_WINDOW, 0x0000_fff0);
    assert!(matches!(err, Err(PcieError::LockedDown(_))));
    // The trusted path keeps working.
    assert!(enclave.verify_path(&m));
}
