//! Layer probes: the benchmark calls single layers' public functions
//! directly, at the workload's own sizes, and times them on the host.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hix_crypto::dh::DhGroup;
use hix_crypto::drbg::HmacDrbg;
use hix_crypto::ocb::{Key, Nonce, Ocb, TAG_LEN};
use hix_crypto::sha256;
use hix_driver::driver::os_map_bar0;
use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};
use hix_gpu::regs::bar0;
use hix_platform::VirtAddr;

/// Median host nanoseconds per call of `f`: batches of at least 1 ms,
/// nine of them.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= Duration::from_millis(1) {
            break;
        }
        iters *= 2;
    }
    let mut per: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[per.len() / 2]
}

/// Probe rows as `(name, unit)`, in report order.
pub const ROWS: [(&str, &str); 6] = [
    ("crypto.ocb_seal.ns_per_kib", "ns/KiB"),
    ("crypto.ocb_open.ns_per_kib", "ns/KiB"),
    ("crypto.dh_agree.ns", "ns"),
    ("crypto.sha256.ns_per_kib", "ns/KiB"),
    ("platform.dram_write.ns_per_kib", "ns/KiB"),
    ("platform.mmio_read.ns", "ns"),
];

/// `(name, value, unit)` rows. `len` is the workload's typical sealed
/// unit in bytes (a transfer, capped at one pipeline chunk).
pub fn run(len: usize) -> Vec<(String, f64, &'static str)> {
    let kib = len as f64 / 1024.0;
    let ocb = Ocb::new(&Key::from_bytes([0x5a; 16]));
    let nonce = Nonce::from_counter(1);
    let plain: Vec<u8> = (0..len).map(|i| i as u8).collect();
    let mut sealed = vec![0u8; len + TAG_LEN];
    let seal = ns_per_call(|| ocb.seal_into(&nonce, b"probe", black_box(&plain), &mut sealed));
    let mut opened = vec![0u8; len];
    let open = ns_per_call(|| {
        ocb.open_into(&nonce, b"probe", black_box(&sealed), &mut opened)
            .expect("probe tag verifies")
    });

    let group = DhGroup::sim();
    let mut rng = HmacDrbg::new(b"hixbench-probe");
    let ours = group.generate(&mut rng);
    let theirs = group.generate(&mut rng);
    let dh = ns_per_call(|| {
        black_box(group.agree(&ours, &theirs.public).expect("valid peer"));
    });
    let block = vec![0x33u8; 4096];
    let sha = ns_per_call(|| {
        black_box(sha256::digest(black_box(&block)));
    });

    let mut machine = standard_rig(RigOptions::default());
    let pid = machine.create_process();
    let frame = machine.alloc_frames(1)[0];
    let va = VirtAddr::new(0x10_0000);
    machine.os_map(pid, va, frame, true);
    let page = vec![7u8; 4096];
    let dram = ns_per_call(|| machine.write(pid, va, black_box(&page)).expect("mapped"));
    let bar = os_map_bar0(&mut machine, pid, GPU_BDF, 4);
    let mut reg = [0u8; 8];
    let mmio = ns_per_call(|| {
        machine
            .read(pid, bar.offset(bar0::ID), &mut reg)
            .expect("mapped")
    });

    let values = [seal / kib, open / kib, dh, sha / 4.0, dram / 4.0, mmio];
    ROWS.iter()
        .zip(values)
        .map(|((name, unit), v)| (name.to_string(), v, *unit))
        .collect()
}
