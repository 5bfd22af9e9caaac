//! Figure 6: execution time of matrix addition and multiplication on
//! Gdev and HIX across the four Table 4 sizes.
//!
//! Paper shape to reproduce: addition is crypto-bound and lands around
//! 2.5× slower under HIX; multiplication's O(n³) compute hides the
//! crypto, down to +6.34% at 11264².

use hix_bench::{measure_both, print_rows, MatrixAt};
use hix_workloads::matrix::{MatrixOp, PAPER_SIZES};

fn main() {
    let mut add_rows = Vec::new();
    let mut mul_rows = Vec::new();
    for &n in &PAPER_SIZES {
        add_rows.push(measure_both(
            &MatrixAt {
                op: MatrixOp::Add,
                n,
            },
            format!("add-{n}"),
        ));
        mul_rows.push(measure_both(
            &MatrixAt {
                op: MatrixOp::Mul,
                n,
            },
            format!("mul-{n}"),
        ));
    }
    print_rows(
        "Figure 6a: matrix addition",
        &add_rows,
        "paper: crypto dominates; ~2.5x slower than Gdev",
    );
    print_rows(
        "Figure 6b: matrix multiplication",
        &mul_rows,
        "paper: overhead shrinks with size; +6.34% at 11264^2",
    );
}
