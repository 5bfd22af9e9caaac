//! Micro-benches (hix-testkit): wall-clock cost of the simulator's hot
//! paths — the routed MMIO access (page walk + EPCM/TGMR checks +
//! fabric routing), the secure channel round trip (one `sync`: a sealed
//! request and its response), full secure transfers of 64 KiB and of
//! one 4 MiB pipeline chunk in each direction, a full handshake, and one whole session on a small
//! window. These bound how large a functional experiment the simulator
//! can carry.

use hix_core::runtime::shared_window_for;
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

fn bench_channel_roundtrip() {
    let (mut machine, mut enclave, mut session) = secure_stack();
    Bench::new("hix/channel_sync_roundtrip")
        .run(|| session.sync(&mut machine, &mut enclave).expect("sync"));
}

/// A secure HtoD and DtoH of `kib` KiB each way. The 64 KiB rows are
/// dominated by per-transfer work; the 4 MiB rows move one whole
/// pipeline chunk, where the per-byte copies and OCB passes show.
fn bench_secure_transfer(kib: u64) {
    let (mut machine, mut enclave, mut session) = secure_stack();
    let len = kib << 10;
    let size = if kib >= 1024 {
        format!("{}MiB", kib >> 10)
    } else {
        format!("{kib}KiB")
    };
    let dev = session.malloc(&mut machine, &mut enclave, len).unwrap();
    let payload = Payload::from_bytes(vec![0x42u8; len as usize]);
    Bench::new(format!("hix/secure_htod_{size}_functional"))
        .throughput_bytes(len)
        .run(|| {
            session
                .memcpy_htod(&mut machine, &mut enclave, dev, &payload)
                .expect("transfer")
        });
    Bench::new(format!("hix/secure_dtoh_{size}_functional"))
        .throughput_bytes(len)
        .run(|| {
            session
                .memcpy_dtoh(&mut machine, &mut enclave, dev, len)
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

/// One whole session on the window a 96 KiB transfer needs (30 pages,
/// 26 of them bulk): connect, malloc, 64 KiB HtoD, DtoH, free, close.
/// The staging buffer the enclave maps at connect and scrubs at close
/// is sized to the window.
fn bench_session_lifecycle() {
    let mut machine = standard_rig(RigOptions::default());
    let mut enclave = GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default()).unwrap();
    let window = shared_window_for(machine.model(), 96 << 10);
    let payload = Payload::from_bytes(vec![0x42u8; 64 << 10]);
    let mut i = 0u64;
    Bench::new("hix/session_lifecycle_small_window").run(|| {
        i += 1;
        let mut session = HixSession::connect_with(
            &mut machine,
            &mut enclave,
            window,
            format!("user-{i}").as_bytes(),
        )
        .unwrap();
        let dev = session
            .malloc(&mut machine, &mut enclave, 64 << 10)
            .unwrap();
        session
            .memcpy_htod(&mut machine, &mut enclave, dev, &payload)
            .unwrap();
        let back = session
            .memcpy_dtoh(&mut machine, &mut enclave, dev, 64 << 10)
            .unwrap();
        session.free(&mut machine, &mut enclave, dev).unwrap();
        session.close(&mut machine, &mut enclave).unwrap();
        back
    });
}

fn main() {
    bench_mmio_access();
    bench_dram_access();
    bench_channel_roundtrip();
    bench_secure_transfer(64);
    bench_secure_transfer(4 << 10);
    bench_session_setup();
    bench_session_lifecycle();
}
