//! Table 3: the prototype system configuration — what the paper ran on
//! and what this reproduction models it as (the calibrated cost-model
//! constants).

use hix_sim::CostModel;

fn main() {
    let m = CostModel::paper();
    println!("== Table 3: system configuration (paper) and model constants (reproduction) ==\n");
    println!("paper platform:");
    println!("  OS      Ubuntu 16.04 LTS (host + guest), kernels 4.14.28 / 4.13.0");
    println!("  CPU     Intel Core i7-6700 3.40GHz 4C/8T (SGX via KVM-SGX/QEMU-SGX)");
    println!("  GPU     NVIDIA GeForce GTX 580 (1.5 GiB VRAM, PCIe gen2 x16)");
    println!("  SGX     SDK 2.0, SGX-SSL for in-enclave crypto");
    println!("  driver  Gdev (open-source CUDA stack), MMIO polling");
    println!();
    println!("reproduction cost-model constants (hix-sim::cost, see EXPERIMENTS.md):");
    println!("  pcie_bw            {:>14} B/s", m.pcie_bw);
    println!("  dma_setup          {:>14}", m.dma_setup.to_string());
    println!("  enclave_crypto_bw  {:>14} B/s", m.enclave_crypto_bw);
    println!("  gpu_crypto_bw      {:>14} B/s", m.gpu_crypto_bw);
    println!("  host_memcpy_bw     {:>14} B/s", m.host_memcpy_bw);
    println!(
        "  mmio_write/read    {:>8} / {}",
        m.mmio_write.to_string(),
        m.mmio_read
    );
    println!("  kernel_launch      {:>14}", m.kernel_launch.to_string());
    println!("  ipc_roundtrip      {:>14}", m.ipc_roundtrip.to_string());
    println!("  task_init_gdev     {:>14}", m.task_init_gdev.to_string());
    println!("  task_init_hix      {:>14}", m.task_init_hix.to_string());
    println!("  ctx_switch         {:>14}", m.ctx_switch.to_string());
    println!("  pipeline_chunk     {:>14} B", m.pipeline_chunk);
}
