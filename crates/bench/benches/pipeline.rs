//! Micro-benches (hix-testkit): the §4.4.2 design-choice ablations,
//! evaluated on the cost model — single-copy pipelined transfers vs.
//! the "naive design" (double copy + re-encryption), and the pipeline
//! chunk-size sweep.
//!
//! Each iteration evaluates the closed-form modeled duration; the bench
//! reports the (wall-clock) evaluation cost, while the *modeled* results
//! are printed once at startup — the ablation data DESIGN.md calls out.

use hix_sim::{CostModel, Nanos};
use hix_testkit::bench::{black_box, Bench};

fn print_ablation() {
    let base = CostModel::paper();
    println!("\n== ablation: single-copy pipelined vs naive (modeled) ==");
    println!(
        "{:>8} {:>14} {:>14} {:>8}",
        "size", "single-copy", "naive", "saving"
    );
    for mb in [4u64, 32, 128, 512] {
        let bytes = mb << 20;
        let fast = base.hix_htod(bytes);
        let naive = base.naive_htod(bytes);
        println!(
            "{:>6}MB {:>14} {:>14} {:>7.1}%",
            mb,
            fast.to_string(),
            naive.to_string(),
            (1.0 - fast.as_nanos() as f64 / naive.as_nanos() as f64) * 100.0
        );
    }
    println!("\n== ablation: pipeline chunk size (128 MiB HtoD, modeled) ==");
    println!("{:>10} {:>14}", "chunk", "HtoD time");
    for chunk_kib in [64u64, 256, 1024, 4096, 16384, 65536] {
        let model = CostModel::builder().pipeline_chunk(chunk_kib << 10).build();
        println!(
            "{:>7}KiB {:>14}",
            chunk_kib,
            model.hix_htod(128 << 20).to_string()
        );
    }
    println!();
}

fn bench_pipeline_eval() {
    let model = CostModel::paper();
    for mb in [4u64, 128] {
        let bytes = mb << 20;
        Bench::new(format!("cost-model/hix_htod/{mb}MiB")).run(|| model.hix_htod(black_box(bytes)));
    }
    Bench::new("cost-model/naive_htod/128MiB").run(|| model.naive_htod(128 << 20));
}

fn bench_multiuser_schedule() {
    use hix_core::multiuser::{run_scaled, Mode, SchedulerConfig, SessionSpec, TaskSpec};
    let model = CostModel::paper();
    let config = SchedulerConfig::new(&model);
    let spec = TaskSpec {
        name: "bench".into(),
        htod: 64 << 20,
        dtoh: 16 << 20,
        kernel_time: Nanos::from_millis(30),
        launches: 64,
    };
    let sessions = vec![SessionSpec::new(spec); 4];
    Bench::new("multiuser/schedule-4-users")
        .run(|| run_scaled(&model, &sessions, Mode::Hix, &config, None));
}

fn main() {
    print_ablation();
    bench_pipeline_eval();
    bench_multiuser_schedule();
}
