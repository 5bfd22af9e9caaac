//! The repository benchmark for the HIX simulator.
//!
//! ```sh
//! cargo run --release --manifest-path hixbench/Cargo.toml -- \
//!     --workload bulk-transfer --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `bulk-transfer`, `small-ops`, `session-churn`,
//! `multiuser-model`. Each runs a closed loop of seeded requests from
//! one thread against the public `hix-core` API. With `--trace 0` the
//! last stdout line carries the end-to-end metrics, with `--trace 1`
//! the per-layer metrics, and the run's spans are written to
//! `.bench_out/spans-<workload>-<seed>.jsonl`.
//!
//! Host rates count only host time spent inside the program's calls,
//! scaled to nominal host speed (see `calib`), and are medians over
//! passes. Virtual figures come from pass 0 (the virtual window), which
//! is a pure function of the seed and is replayed on a second set-up to
//! check that it repeats exactly.

mod calib;
mod gen;
mod harness;
mod machine;
mod meter;
mod model;
mod oracle;
mod probes;
mod report;
mod spans;

use std::process::ExitCode;
use std::time::Instant;

use harness::run;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hixbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "bulk-transfer" => run::<machine::Bulk>(start, args.seed, args.seconds, args.trace),
        "small-ops" => run::<machine::Small>(start, args.seed, args.seconds, args.trace),
        "session-churn" => run::<machine::Churn>(start, args.seed, args.seconds, args.trace),
        "multiuser-model" => run::<model::Model>(start, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("hixbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if let Some(e) = &run.error {
        eprintln!("hixbench: {}: {e}", args.workload);
    }
    let Some(win) = &run.window else {
        println!("{}", report::json(false, run.meter.attempted, 1, &[]));
        return ExitCode::SUCCESS;
    };
    println!("virt_digest={:016x}", win.digest);
    println!("virt_req_samples={}", win.req_virt.len());
    println!("passes={}", run.passes.len());
    let ticks: Vec<f64> = run.passes.iter().map(|p| p.acc.tick_ns()).collect();
    println!("reference_tick_ns={:.0}", harness::median(&ticks));
    let metrics = if args.trace {
        let htod = run.meter.ops[meter::Op::Htod as usize];
        let chunk = hix_sim::CostModel::paper().pipeline_chunk;
        let len = htod
            .bytes
            .checked_div(htod.calls)
            .map_or(chunk, |mean| mean.min(chunk));
        let path = format!(".bench_out/spans-{}-{}.jsonl", args.workload, args.seed);
        if let Err(e) = run.meter.tracer.write(std::path::Path::new(&path)) {
            eprintln!("hixbench: writing {path}: {e}");
        }
        report::per_layer(&run, win, &probes::run(len as usize))
    } else {
        report::end_to_end(&run, win)
    };
    for (name, value, unit) in &metrics {
        eprintln!("{name:>40} {value:>16.4} {unit}");
    }
    let failed = u64::from(run.error.is_some());
    println!(
        "{}",
        report::json(failed == 0, run.meter.attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
