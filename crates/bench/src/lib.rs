//! # hix-bench — figure and table harnesses
//!
//! One binary per table/figure of the paper's evaluation (§5). All
//! measurements come from the simulator's virtual clock with the
//! calibrated cost model and *synthetic* payloads (paper-scale sizes
//! without paper-scale byte work); see DESIGN.md for the two-plane
//! design. Each binary prints the paper's reported numbers next to the
//! reproduction's.

#![warn(missing_docs)]

pub mod json;
pub mod soak;

use std::fmt::Write as _;

use hix_core::multiuser::TaskSpec;
use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};
use hix_driver::Gdev;
use hix_gpu::device::GpuConfig;
use hix_platform::Machine;
use hix_sim::stats::Samples;
use hix_sim::{CostModel, Nanos};
use hix_workloads::exec::{GdevExec, HixExec};
use hix_workloads::{all_kernels, Profile, Workload};

/// Number of repetitions per measurement (the paper averages five runs).
pub const RUNS: usize = 5;

/// Reports a failed self-check as `<bin>: FAILED: <msg>` on stderr and
/// exits 1 — the one failure path of the report binaries.
pub fn fail(msg: &str) -> ! {
    let arg0 = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&arg0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("report");
    eprintln!("{bin}: FAILED: {msg}");
    std::process::exit(1);
}

/// Writes a report's output (a `BENCH_*.json` ledger, a trace, a folded
/// stack) to `path`, creating its directory; exits through [`fail`] if
/// either step fails.
pub fn write_ledger(path: &str, text: &str) {
    let written = std::path::Path::new(path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        fail(&format!("cannot write {path}: {e}"));
    }
}

/// The most moved lines [`diff_lines`] lists; every committed ledger
/// is shorter than this.
const DIFF_LINES: usize = 100;

/// Compares `got` with `want` line by line: a same-seed rerun's
/// transcript with the first run's, or a fresh ledger with the
/// committed one. `Ok` when they are identical. Otherwise the error
/// lists each moved line (up to 100, `DIFF_LINES`) as a `-want`/`+got`
/// pair under its line number and the nearest line above it that
/// contains `"profile"` and leaves its object open: the head of the
/// perf profile a kind or SLO row belongs to. One-line rows (the
/// scale, fabric and fault cells) name their own cell. Lines are
/// paired by position, so an inserted or deleted line moves every line
/// after it.
pub fn diff_lines(want: &str, got: &str) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let opens = |w: &&str| w.contains("\"profile\"") && !w.trim_end_matches(',').ends_with('}');
    let (mut moved, mut listed, mut anchor) = (0, String::new(), None);
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i).copied(), got.get(i).copied());
        if w != g {
            moved += 1;
            if moved <= DIFF_LINES {
                let under = anchor.map_or(String::new(), |a| format!(" (under {a})"));
                let (w, g) = (w.unwrap_or("<eof>"), g.unwrap_or("<eof>"));
                let _ = write!(listed, "\nline {}{under}:\n- {w}\n+ {g}", i + 1);
            }
        }
        if let Some(w) = w.filter(opens) {
            anchor = Some(w.trim().trim_end_matches(','));
        }
    }
    if moved > DIFF_LINES {
        let _ = write!(listed, "\n... and {} more", moved - DIFF_LINES);
    }
    Err(match moved {
        0 => "the texts differ only in their line endings".into(),
        _ => format!("{moved} moved line(s):{listed}"),
    })
}

/// The Figure 8/9 "bp-like" tenant the scale and fabric reports run.
pub fn bp_like() -> TaskSpec {
    TaskSpec {
        name: "bp-like".into(),
        htod: 117 << 20,
        dtoh: 42 << 20,
        kernel_time: Nanos::from_millis(22),
        launches: 2,
    }
}

/// Builds the synthetic-mode benchmark machine.
pub fn bench_rig() -> Machine {
    bench_rig_with(CostModel::paper())
}

/// Builds the synthetic-mode benchmark machine with a custom cost model
/// (ablations and calibration sweeps).
pub fn bench_rig_with(model: CostModel) -> Machine {
    standard_rig(RigOptions {
        kernels: all_kernels(),
        gpu: GpuConfig {
            synthetic: true,
            ..GpuConfig::default()
        },
        machine: hix_platform::MachineConfig {
            model,
            ..hix_platform::MachineConfig::default()
        },
    })
}

/// Measures one full Gdev task (open → transfers/kernels → close) under
/// `model`, averaged over [`RUNS`] repetitions.
pub fn measure_gdev_with(workload: &dyn Workload, model: CostModel) -> Nanos {
    let mut machine = bench_rig_with(model);
    let model = machine.model().clone();
    let mut samples = Samples::new();
    for _ in 0..RUNS {
        let pid = machine.create_process();
        let start = machine.clock().now();
        let mut gdev = Gdev::open(&mut machine, pid, GPU_BDF).expect("gdev open");
        gdev.set_pageable(workload.gdev_pageable());
        workload
            .run_synthetic(&mut machine, &mut GdevExec::new(&mut gdev), &model)
            .expect("gdev run");
        gdev.close(&mut machine).expect("gdev close");
        samples.push(machine.clock().now() - start);
    }
    samples.mean()
}

/// Measures one full HIX task (session connect → transfers/kernels →
/// close) against a resident GPU enclave under `model`, averaged over
/// [`RUNS`].
pub fn measure_hix_with(workload: &dyn Workload, model: CostModel) -> Nanos {
    let mut machine = bench_rig_with(model);
    let model = machine.model().clone();
    let mut enclave =
        GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default()).expect("enclave");
    let mut samples = Samples::new();
    for run in 0..RUNS {
        let profile = workload.profile(&model);
        let window = hix_core::runtime::shared_window_for(&model, profile.htod.max(profile.dtoh));
        let start = machine.clock().now();
        let mut session = HixSession::connect_with(
            &mut machine,
            &mut enclave,
            window,
            format!("bench-user-{run}").as_bytes(),
        )
        .expect("session");
        workload
            .run_synthetic(
                &mut machine,
                &mut HixExec::new(&mut session, &mut enclave),
                &model,
            )
            .expect("hix run");
        session.close(&mut machine, &mut enclave).expect("close");
        samples.push(machine.clock().now() - start);
    }
    samples.mean()
}

/// A single figure row: workload, Gdev time, HIX time.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Short label.
    pub label: String,
    /// Baseline time.
    pub gdev: Nanos,
    /// HIX time.
    pub hix: Nanos,
}

impl FigureRow {
    /// HIX overhead in percent.
    pub fn overhead_pct(&self) -> f64 {
        hix_sim::stats::overhead_pct(self.hix, self.gdev)
    }

    /// HIX slowdown factor.
    pub fn slowdown(&self) -> f64 {
        hix_sim::stats::slowdown(self.hix, self.gdev)
    }
}

/// Measures a workload on both stacks.
pub fn measure_both(workload: &dyn Workload, label: impl Into<String>) -> FigureRow {
    measure_both_with(workload, label, CostModel::paper())
}

/// [`measure_both`] under a custom cost model.
pub fn measure_both_with(
    workload: &dyn Workload,
    label: impl Into<String>,
    model: CostModel,
) -> FigureRow {
    FigureRow {
        label: label.into(),
        gdev: measure_gdev_with(workload, model.clone()),
        hix: measure_hix_with(workload, model),
    }
}

/// Runs and prints one multi-user figure (Figures 8 and 9).
pub fn print_multiuser(users: u32, paper_ratio: f64) {
    use hix_core::multiuser::{run_scaled, Mode, SchedulerConfig, SessionSpec};
    let model = CostModel::paper();
    let config = SchedulerConfig::new(&model);
    println!("== Rodinia with {users} concurrent users ==");
    println!(
        "(normalized to 1-user Gdev; paper: HIX ~{:.1}% worse than Gdev at {users} users)\n",
        (paper_ratio - 1.0) * 100.0
    );
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "bench", "Gdev-1u", "Gdev", "HIX", "HIX/Gdev", "switches"
    );
    let mut ratio_sum = 0.0;
    let mut count = 0u32;
    for w in hix_workloads::rodinia_suite() {
        let spec = SessionSpec::new(w.profile(&model).task_spec());
        let sessions = vec![spec.clone(); users as usize];
        let base = run_scaled(
            &model,
            std::slice::from_ref(&spec),
            Mode::Gdev,
            &config,
            None,
        );
        let base = base.makespan;
        let g = run_scaled(&model, &sessions, Mode::Gdev, &config, None);
        let h = run_scaled(&model, &sessions, Mode::Hix, &config, None);
        let ratio = h.makespan.as_nanos() as f64 / g.makespan.as_nanos() as f64;
        ratio_sum += ratio;
        count += 1;
        println!(
            "{:<6} {:>12} {:>11.2}x {:>11.2}x {:>11.2}x {:>10}",
            spec.task.name,
            base.to_string(),
            g.makespan.as_nanos() as f64 / base.as_nanos() as f64,
            h.makespan.as_nanos() as f64 / base.as_nanos() as f64,
            ratio,
            h.ctx_switches
        );
    }
    println!(
        "\naverage HIX/Gdev at {users} users: {:.3}x (paper: {:.3}x)\n",
        ratio_sum / count as f64,
        paper_ratio
    );
}

/// Prints a standard figure table with paper-reference annotations.
pub fn print_rows(title: &str, rows: &[FigureRow], paper_note: &str) {
    println!("== {title} ==");
    println!("{paper_note}\n");
    println!(
        "{:<8} {:>14} {:>14} {:>10} {:>10}",
        "bench", "Gdev", "HIX", "slowdown", "overhead"
    );
    for row in rows {
        println!(
            "{:<8} {:>14} {:>14} {:>9.2}x {:>+9.1}%",
            row.label,
            row.gdev.to_string(),
            row.hix.to_string(),
            row.slowdown(),
            row.overhead_pct()
        );
    }
    let avg: f64 = rows.iter().map(FigureRow::overhead_pct).sum::<f64>() / rows.len().max(1) as f64;
    println!(
        "{:<8} {:>14} {:>14} {:>10} {:>+9.1}%",
        "average", "", "", "", avg
    );
    println!();
}

/// The workload wrapper used by Fig. 6: a matrix op at a specific size.
#[derive(Debug, Clone, Copy)]
pub struct MatrixAt {
    /// Which operation.
    pub op: hix_workloads::matrix::MatrixOp,
    /// Matrix dimension.
    pub n: usize,
}

impl Workload for MatrixAt {
    fn name(&self) -> &'static str {
        "matrix microbenchmark"
    }

    fn kernels(&self) -> Vec<Box<dyn hix_gpu::GpuKernel>> {
        vec![
            Box::new(hix_workloads::matrix::MatrixAddKernel),
            Box::new(hix_workloads::matrix::MatrixMulKernel),
        ]
    }

    fn profile(&self, model: &CostModel) -> Profile {
        hix_workloads::matrix::matrix_profile(self.op, self.n, model)
    }

    fn run(
        &self,
        machine: &mut Machine,
        exec: &mut dyn hix_workloads::GpuExecutor,
        n: usize,
    ) -> Result<hix_workloads::RunStats, hix_workloads::ExecError> {
        match self.op {
            hix_workloads::matrix::MatrixOp::Add => {
                hix_workloads::matrix::MatrixAdd.run(machine, exec, n)
            }
            hix_workloads::matrix::MatrixOp::Mul => {
                hix_workloads::matrix::MatrixMul.run(machine, exec, n)
            }
        }
    }

    fn test_size(&self) -> usize {
        32
    }

    fn paper_size(&self) -> usize {
        self.n
    }

    fn gdev_pageable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::diff_lines;

    /// Two perf profiles in `BENCH_perf.json`'s layout.
    const PERF: &str = r#"{
  "profiles": [
    {"profile": "none",
     "kinds": [
       {"kind": "mmio", "ns": 10, "spans": 1},
       {"kind": "dma", "ns": 20, "spans": 2}
     ]},
    {"profile": "light",
     "kinds": [
       {"kind": "mmio", "ns": 10, "spans": 1},
       {"kind": "dma", "ns": 20, "spans": 2}
     ]}
  ]
}
"#;

    #[test]
    fn a_moved_kind_row_is_listed_under_its_profile() {
        // Move the light profile's dma row (the last `"ns": 20`).
        let at = PERF.rfind(r#""ns": 20"#).unwrap();
        let got = format!("{}{}", &PERF[..at], PERF[at..].replacen("20", "21", 1));
        let err = diff_lines(PERF, &got).unwrap_err();
        assert!(
            err.starts_with("1 moved line(s):\nline 11 (under {\"profile\": \"light\"):\n"),
            "{err}"
        );
        assert!(
            err.ends_with(r#"+        {"kind": "dma", "ns": 21, "spans": 2}"#),
            "{err}"
        );
        assert_eq!(diff_lines(PERF, PERF), Ok(()));
    }

    #[test]
    fn one_line_cells_never_become_anchors() {
        let cell = |retries: u32| {
            format!(
                "{{\n  \"cells\": [\n    {{\"seed\": 1, \"profile\": \"none\", \"retries\": 0}},\n    \
                 {{\"seed\": 1, \"profile\": \"heavy\", \"retries\": {retries}}}\n  ]\n}}\n"
            )
        };
        let err = diff_lines(&cell(3), &cell(4)).unwrap_err();
        assert!(err.starts_with("1 moved line(s):\nline 4:\n"), "{err}");
        assert!(!err.contains("under"), "{err}");
    }

    #[test]
    fn more_than_a_hundred_moved_lines_are_counted_not_listed() {
        let want: String = (0..130).map(|i| format!("{i}\n")).collect();
        let got: String = (0..130).map(|i| format!("{}\n", i + 1000)).collect();
        let err = diff_lines(&want, &got).unwrap_err();
        assert!(err.starts_with("130 moved line(s):"), "{err}");
        assert_eq!(err.matches("\nline ").count(), 100, "{err}");
        assert!(err.ends_with("\n... and 30 more"), "{err}");
    }

    #[test]
    fn line_ending_only_differences_say_so() {
        let crlf = PERF.replace('\n', "\r\n");
        assert_eq!(
            diff_lines(PERF, &crlf),
            Err("the texts differ only in their line endings".into())
        );
    }
}
