//! Table 4: matrix sizes and the corresponding transfer/memory sizes.
//!
//! Regenerated from the workload definitions and asserted against the
//! paper's exact values.

use hix_workloads::matrix::{table4_row, PAPER_SIZES};

fn mb(bytes: u64) -> String {
    format!("{}MB", bytes >> 20)
}

fn main() {
    println!("== Table 4: matrix size vs data size ==\n");
    println!(
        "{:<14} {:>10} {:>10} {:>12}",
        "Matrix size", "HtoD", "DtoH", "Total mem"
    );
    let paper = [
        (2048, 32u64, 16u64, 48u64),
        (4096, 128, 64, 192),
        (8192, 512, 256, 768),
        (11264, 968, 484, 1452),
    ];
    for (&n, &(pn, ph, pd, pt)) in PAPER_SIZES.iter().zip(paper.iter()) {
        assert_eq!(n, pn);
        let (h, d, t) = table4_row(n);
        assert_eq!(h, ph << 20, "HtoD at {n}");
        assert_eq!(d, pd << 20, "DtoH at {n}");
        assert_eq!(t, pt << 20, "total at {n}");
        println!(
            "{:<14} {:>10} {:>10} {:>12}",
            format!("{n}x{n}"),
            mb(h),
            mb(d),
            mb(t)
        );
    }
    println!("\nall rows match the paper exactly");
}
