//! Micro-benches (hix-testkit): wall-clock cost of the simulator's hot
//! paths — the routed MMIO access (page walk + EPCM/TGMR checks +
//! fabric routing), the secure channel round trip, and a full secure
//! transfer in each direction. These bound how large a functional
//! experiment the simulator can carry.

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::driver::os_map_bar0;
use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};
use hix_gpu::regs::bar0;
use hix_platform::Machine;
use hix_sim::Payload;
use hix_testkit::bench::Bench;

fn bench_mmio_access() {
    let mut machine = standard_rig(RigOptions::default());
    let pid = machine.create_process();
    let va = os_map_bar0(&mut machine, pid, GPU_BDF, 4);
    let mut buf = [0u8; 8];
    Bench::new("machine/mmio_read_8B").run(|| {
        machine
            .read(pid, va.offset(bar0::ID), &mut buf)
            .expect("mapped");
        buf
    });
}

fn bench_dram_access() {
    let mut machine = standard_rig(RigOptions::default());
    let pid = machine.create_process();
    let frame = machine.alloc_frames(1)[0];
    let va = hix_platform::VirtAddr::new(0x10_0000);
    machine.os_map(pid, va, frame, true);
    let data = vec![7u8; 4096];
    Bench::new("machine/dram_write_4KiB")
        .throughput_bytes(4096)
        .run(|| machine.write(pid, va, &data).expect("mapped"));
}

fn secure_stack() -> (Machine, GpuEnclave, HixSession) {
    let mut machine = standard_rig(RigOptions::default());
    let mut enclave = GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default()).unwrap();
    let session = HixSession::connect(&mut machine, &mut enclave).unwrap();
    (machine, enclave, session)
}

fn bench_secure_transfer() {
    let (mut machine, mut enclave, mut session) = secure_stack();
    let dev = session.malloc(&mut machine, &mut enclave, 64 << 10).unwrap();
    let payload = Payload::from_bytes(vec![0x42u8; 64 << 10]);
    Bench::new("hix/secure_htod_64KiB_functional")
        .throughput_bytes(64 << 10)
        .run(|| {
            session
                .memcpy_htod(&mut machine, &mut enclave, dev, &payload)
                .expect("transfer")
        });
    Bench::new("hix/secure_dtoh_64KiB_functional")
        .throughput_bytes(64 << 10)
        .run(|| {
            session
                .memcpy_dtoh(&mut machine, &mut enclave, dev, 64 << 10)
                .expect("transfer")
        });
}

fn bench_session_setup() {
    let mut machine = standard_rig(RigOptions::default());
    let mut enclave = GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default()).unwrap();
    let mut i = 0u64;
    Bench::new("hix/session_connect_full_handshake").run(|| {
        i += 1;
        let session = HixSession::connect_with(
            &mut machine,
            &mut enclave,
            1 << 20,
            format!("user-{i}").as_bytes(),
        )
        .unwrap();
        session.close(&mut machine, &mut enclave).unwrap();
    });
}

fn main() {
    bench_mmio_access();
    bench_dram_access();
    bench_secure_transfer();
    bench_session_setup();
}
