//! Calibration sweep: prints the key paper targets for a range of
//! enclave-crypto bandwidths (the dominant free parameter). Used while
//! fitting the cost model; kept for reproducibility of the calibration.

use hix_bench::{measure_both_with, MatrixAt};
use hix_sim::CostModel;
use hix_workloads::matrix::MatrixOp;
use hix_workloads::rodinia_suite;

fn main() {
    println!(
        "{:>6} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "E GB/s", "mul11264", "add11264", "PF", "BP", "NW", "GS", "HS", "avg9"
    );
    for e in [1600u64, 1700, 1800, 1900, 2000, 2200] {
        let model = CostModel::builder()
            .enclave_crypto_bw(e * 1_000_000)
            .build();
        let mul = measure_both_with(
            &MatrixAt {
                op: MatrixOp::Mul,
                n: 11264,
            },
            "mul",
            model.clone(),
        );
        let add = measure_both_with(
            &MatrixAt {
                op: MatrixOp::Add,
                n: 11264,
            },
            "add",
            model.clone(),
        );
        let mut per = std::collections::BTreeMap::new();
        let mut sum = 0.0;
        for w in rodinia_suite() {
            let row = measure_both_with(w.as_ref(), w.profile(&model).abbrev, model.clone());
            sum += row.overhead_pct();
            per.insert(row.label.clone(), row.overhead_pct());
        }
        println!(
            "{:>6.2} {:>8.1}% {:>8.2}x {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            e as f64 / 1000.0,
            mul.overhead_pct(),
            add.slowdown(),
            per["PF"],
            per["BP"],
            per["NW"],
            per["GS"],
            per["HS"],
            sum / 9.0
        );
    }
}
