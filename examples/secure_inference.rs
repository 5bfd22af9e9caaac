//! Secure ML inference: the motivating cloud scenario of the paper's
//! introduction — a tenant's proprietary model weights and private input
//! run on a cloud GPU whose operating system is hostile.
//!
//! A 2-layer perceptron (the Rodinia BP forward pass) runs under HIX.
//! After the transfer we *become the adversary*: dump every byte of host
//! DRAM the OS can address and search for the weights. They never appear
//! — only ciphertext crosses the host.
//!
//! ```sh
//! cargo run -p hix-bench --example secure_inference
//! ```

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_platform::mem::PAGE_SIZE;
use hix_sim::Payload;
use hix_workloads::exec::HixExec;
use hix_workloads::rodinia::bp::BackProp;
use hix_workloads::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machine = standard_rig(RigOptions {
        kernels: BackProp.kernels(),
        ..RigOptions::default()
    });
    let mut enclave = GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default())?;
    let mut session = HixSession::connect(&mut machine, &mut enclave)?;

    // The tenant's proprietary payload: a recognizable secret embedded in
    // a tensor the adversary would love to steal.
    let marker = b"PROPRIETARY-MODEL-WEIGHTS-v7";
    let mut tensor = vec![0u8; 64 * 1024];
    tensor[1000..1000 + marker.len()].copy_from_slice(marker);
    let dev = session.malloc(&mut machine, &mut enclave, tensor.len() as u64)?;
    let shared_bus = session.shared_bus();
    session.memcpy_htod(
        &mut machine,
        &mut enclave,
        dev,
        &Payload::from_bytes(tensor),
    )?;
    println!(
        "tenant uploaded {}-KiB weight tensor through the secure path",
        64
    );

    // --- adversary time: dump the shared-memory window physically. ---
    let mut found = false;
    for page in 0..64u64 {
        if let Some(pa) = machine
            .iommu_mut()
            .translate(shared_bus.offset(page * PAGE_SIZE))
        {
            let mut dump = vec![0u8; PAGE_SIZE as usize];
            machine.os_read_phys(pa, &mut dump);
            if dump.windows(marker.len()).any(|w| w == marker) {
                found = true;
            }
        }
    }
    println!(
        "adversary dumped the inter-enclave shared memory: weights {}",
        if found {
            "FOUND (!!)"
        } else {
            "not found — ciphertext only"
        }
    );
    assert!(!found, "plaintext weights must never cross the host");

    // The weights are *really there* for the GPU though: read them back
    // through the secure path.
    let back = session.memcpy_dtoh(&mut machine, &mut enclave, dev, 64 * 1024)?;
    assert!(back.bytes().windows(marker.len()).any(|w| w == marker));
    println!("round-trip through GPU memory verified: data intact inside the TEE");

    // Now run the actual inference workload end-to-end (functional BP
    // with CPU-reference verification) on the secure stack.
    let mut exec = HixExec::new(&mut session, &mut enclave);
    let stats = BackProp.run(&mut machine, &mut exec, 2048)?;
    println!(
        "BP forward+update verified against the CPU reference ({} KiB moved, {} launches)",
        (stats.htod_bytes + stats.dtoh_bytes) >> 10,
        stats.launches
    );
    println!("virtual time elapsed: {}", machine.clock().now());
    Ok(())
}
