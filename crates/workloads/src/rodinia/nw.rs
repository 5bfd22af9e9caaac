//! Needleman–Wunsch (NW): global sequence alignment by dynamic
//! programming, processed one anti-diagonal block strip per launch as in
//! Rodinia.
//!
//! Table 5: 128.1 MB HtoD / 64.03 MB DtoH, 4096×4096 points — the
//! reference matrix and initialized score matrix go in; the filled score
//! matrix comes back.

use hix_gpu::vram::DevAddr;
use hix_gpu::{GpuKernel, KernelError, KernelExec};
use hix_platform::Machine;
use hix_sim::{CostModel, Nanos};
use hix_testkit::Rng;

use crate::exec::{i32s_payload, payload_i32s, ExecError, GpuExecutor, RunStats};
use crate::rodinia::mb;
use crate::{Profile, Workload};

/// Gap penalty (Rodinia default).
const PENALTY: i32 = 10;

/// Rodinia's block width for the strip decomposition.
const BLOCK: u64 = 16;

/// Cell fill rate. Anti-diagonal dependencies serialize the wavefront
/// and limit parallelism badly — calibrated to ~110 ms for the 4096²
/// alignment (NW shows a large HIX overhead in Fig. 7 because transfers
/// dominate anyway).
const CELLS_PER_SEC: u64 = 605_000_000;

/// `nw.strip(score, reference, n, strip, dir)` — fills one strip of
/// anti-diagonal blocks; `dir` 0 is the upper-left triangle pass, 1 the
/// lower-right.
#[derive(Debug, Default, Clone, Copy)]
pub struct NwStripKernel;

impl GpuKernel for NwStripKernel {
    fn name(&self) -> &str {
        "nw.strip"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        let n = args.get(2).copied().unwrap_or(0);
        // One strip covers ~n·BLOCK cells.
        Nanos::for_throughput(n * BLOCK, CELLS_PER_SEC)
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let score = DevAddr(exec.arg(0)?);
        let reference = DevAddr(exec.arg(1)?);
        let n = exec.arg(2)? as usize;
        let strip = exec.arg(3)? as usize;
        let dir = exec.arg(4)?;
        let mut s = exec.read_i32s(score, (n + 1) * (n + 1))?;
        let r = exec.read_i32s(reference, n * n)?;
        // Fill the cells of anti-diagonal `strip` (cell units to keep the
        // functional model simple; the cost model accounts blocks).
        let w = n + 1;
        let diag = if dir == 0 { strip + 2 } else { n + 1 + strip };
        let (lo, hi) = if dir == 0 {
            (1usize, diag.min(n))
        } else {
            (diag - n, n)
        };
        for i in lo..=hi {
            let j = diag - i;
            if j == 0 || j > n {
                continue;
            }
            let m = s[(i - 1) * w + (j - 1)] + r[(i - 1) * n + (j - 1)];
            let del = s[(i - 1) * w + j] - PENALTY;
            let ins = s[i * w + (j - 1)] - PENALTY;
            s[i * w + j] = m.max(del).max(ins);
        }
        exec.write_i32s(score, &s)
    }
}

fn cpu_nw(reference: &[i32], n: usize) -> Vec<i32> {
    let w = n + 1;
    let mut s = init_score(n);
    for i in 1..=n {
        for j in 1..=n {
            let m = s[(i - 1) * w + (j - 1)] + reference[(i - 1) * n + (j - 1)];
            let del = s[(i - 1) * w + j] - PENALTY;
            let ins = s[i * w + (j - 1)] - PENALTY;
            s[i * w + j] = m.max(del).max(ins);
        }
    }
    s
}

fn init_score(n: usize) -> Vec<i32> {
    let w = n + 1;
    let mut s = vec![0i32; w * w];
    for i in 0..=n {
        s[i * w] = -(i as i32) * PENALTY;
        s[i] = -(i as i32) * PENALTY;
    }
    s
}

/// The NW workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct NeedlemanWunsch;

impl Workload for NeedlemanWunsch {
    fn name(&self) -> &'static str {
        "Needleman-Wunsch"
    }

    fn kernels(&self) -> Vec<Box<dyn GpuKernel>> {
        vec![Box::new(NwStripKernel)]
    }

    fn profile(&self, model: &CostModel) -> Profile {
        let n = self.paper_size() as u64;
        let launches = 2 * (n / BLOCK); // Rodinia: two triangle passes
        let kernel_time = NwStripKernel.cost(model, &[0, 0, n, 0, 0]) * launches;
        Profile {
            abbrev: "NW",
            htod: mb(128.1),
            dtoh: mb(64.03),
            launches,
            kernel_time,
        }
    }

    fn run(
        &self,
        machine: &mut Machine,
        exec: &mut dyn GpuExecutor,
        n: usize,
    ) -> Result<RunStats, ExecError> {
        exec.load_module(machine, "nw.strip")?;
        let mut rng = Rng::from_seed_bytes(format!("nw-{n}").as_bytes());
        let reference: Vec<i32> = (0..n * n).map(|_| (rng.u64() % 21) as i32 - 10).collect();
        let score = init_score(n);
        let w = n + 1;
        let d_score = exec.malloc(machine, (w * w * 4) as u64)?;
        let d_ref = exec.malloc(machine, (n * n * 4) as u64)?;
        exec.htod(machine, d_score, &i32s_payload(&score))?;
        exec.htod(machine, d_ref, &i32s_payload(&reference))?;
        // Upper-left triangle then lower-right, one anti-diagonal each.
        let mut launches = 0u64;
        for strip in 0..n - 1 {
            exec.launch(
                machine,
                "nw.strip",
                &[d_score.value(), d_ref.value(), n as u64, strip as u64, 0],
            )?;
            launches += 1;
        }
        for strip in 0..n {
            exec.launch(
                machine,
                "nw.strip",
                &[d_score.value(), d_ref.value(), n as u64, strip as u64, 1],
            )?;
            launches += 1;
        }
        let out = exec.dtoh(machine, d_score, (w * w * 4) as u64)?;
        if !out.is_synthetic() {
            let got = payload_i32s(&out);
            let want = cpu_nw(&reference, n);
            if got != want {
                return Err(ExecError::Verify("nw score matrix mismatch".into()));
            }
        }
        Ok(RunStats {
            htod_bytes: ((w * w + n * n) * 4) as u64,
            dtoh_bytes: (w * w * 4) as u64,
            launches,
        })
    }

    fn test_size(&self) -> usize {
        48
    }

    fn paper_size(&self) -> usize {
        4096
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rodinia::testutil;

    #[test]
    fn nw_on_gdev_matches_cpu() {
        testutil::run_on_gdev(&NeedlemanWunsch);
    }

    #[test]
    fn nw_on_hix_matches_cpu() {
        testutil::run_on_hix(&NeedlemanWunsch);
    }

    #[test]
    fn cpu_nw_identity_sequences_score_high() {
        // All-match reference (+5 everywhere): diagonal path, no gaps.
        let n = 8;
        let reference = vec![5i32; n * n];
        let s = cpu_nw(&reference, n);
        assert_eq!(s[(n + 1) * (n + 1) - 1], 5 * n as i32);
    }

    #[test]
    fn profile_matches_table5() {
        let p = NeedlemanWunsch.profile(&CostModel::paper());
        assert_eq!(p.htod, mb(128.1));
        assert_eq!(p.dtoh, mb(64.03));
        assert_eq!(p.launches, 512);
        assert!(p.kernel_time > Nanos::from_millis(50));
        assert!(p.kernel_time < Nanos::from_millis(400));
    }
}
