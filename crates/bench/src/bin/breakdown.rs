//! §5.3.1 analysis: where HIX's overhead goes. The paper concludes "the
//! majority of performance overheads in HIX are from the authenticated
//! encryption overheads between the user enclave and GPU" — this harness
//! decomposes the modeled HIX−Gdev delta per workload and checks that
//! conclusion quantitatively.

use hix_sim::cost::ExecMode;
use hix_sim::{CostModel, Nanos};
use hix_workloads::rodinia_suite;

struct Decomposition {
    enclave_crypto: Nanos,
    gpu_crypto: Nanos,
    ipc: Nanos,
    init_delta_ms: f64, // signed: negative = HIX saves
}

fn decompose(model: &CostModel, htod: u64, dtoh: u64, launches: u64) -> Decomposition {
    let wire = |b: u64| {
        if b == 0 {
            Nanos::ZERO
        } else {
            model.pcie_transfer(b)
        }
    };
    // Extra time on the transfer path attributable to user-enclave
    // authenticated encryption (the pipelined path minus the raw wire).
    let enclave_crypto = (model.pipelined_transfer(
        htod,
        model.enclave_crypto_bw,
        model.pcie_bw,
        model.dma_setup,
    ) - wire(htod))
        + (model.pipelined_transfer(dtoh, model.pcie_bw, model.enclave_crypto_bw, Nanos::ZERO)
            + model.dma_setup
            - wire(dtoh));
    let chunks_dtoh = dtoh.div_ceil(model.pipeline_chunk).max(1);
    let gpu_crypto =
        model.gpu_crypt(htod) + model.gpu_crypt(dtoh) + model.kernel_launch * (1 + chunks_dtoh);
    let ipc = model.ipc_roundtrip * (launches + 6);
    let init_delta_ms = model.task_init(ExecMode::Hix).as_millis_f64()
        - model.task_init(ExecMode::Gdev).as_millis_f64();
    Decomposition {
        enclave_crypto,
        gpu_crypto,
        ipc,
        init_delta_ms,
    }
}

fn main() {
    let model = CostModel::paper();
    println!("== Section 5.3.1: decomposition of the HIX-Gdev delta (modeled) ==\n");
    println!(
        "{:<6} {:>14} {:>12} {:>8} {:>10} {:>12}",
        "bench", "enclave-AE", "in-GPU-AE", "IPC", "init", "AE share"
    );
    let mut ae_dominant = 0;
    let mut total = 0;
    for w in rodinia_suite() {
        let p = w.profile(&model);
        let d = decompose(&model, p.htod, p.dtoh, p.launches);
        let crypto_total = d.enclave_crypto + d.gpu_crypto;
        let gross = crypto_total.as_millis_f64() + d.ipc.as_millis_f64() + d.init_delta_ms.abs();
        let share = crypto_total.as_millis_f64() / gross * 100.0;
        if share > 50.0 {
            ae_dominant += 1;
        }
        total += 1;
        println!(
            "{:<6} {:>14} {:>12} {:>8} {:>+8.1}ms {:>11.1}%",
            p.abbrev,
            d.enclave_crypto.to_string(),
            d.gpu_crypto.to_string(),
            d.ipc.to_string(),
            d.init_delta_ms,
            share
        );
    }
    println!(
        "\nauthenticated encryption dominates the overhead for {ae_dominant}/{total} apps \
         (paper: \"the majority of performance overheads in HIX are from the \
         authenticated encryption\")"
    );
    assert!(
        ae_dominant * 2 > total,
        "AE must dominate for the majority of workloads"
    );
}
