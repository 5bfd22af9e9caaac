//! Pathfinder (PF): bottom-up dynamic programming over a grid — each row
//! adds the cheapest of the three lower neighbors. Rodinia launches one
//! kernel per pyramid of ~20 rows.
//!
//! Table 5: 256.0 MB HtoD / 32.00 KB DtoH, 8192×8192 points. PF is the
//! paper's worst case for HIX (+154%): enormous input, tiny output,
//! almost no compute — the crypto cost has nothing to hide behind.

use hix_gpu::vram::DevAddr;
use hix_gpu::{GpuKernel, KernelError, KernelExec};
use hix_platform::Machine;
use hix_sim::{CostModel, Nanos};
use hix_testkit::Rng;

use crate::exec::{i32s_payload, payload_i32s, ExecError, GpuExecutor, RunStats};
use crate::rodinia::kb;
use crate::{Profile, Workload};

/// Rows folded per kernel launch (Rodinia's pyramid height).
const PYRAMID: u64 = 20;

/// Cell throughput. PF streams each cell exactly once with trivial
/// arithmetic — effectively memory-bound near peak.
const CELLS_PER_SEC: u64 = 25_000_000_000;

/// `pf.rows(wall, result, n, row_start, rows)` — folds `rows` rows of
/// the cost grid into the running `result` vector.
#[derive(Debug, Default, Clone, Copy)]
pub struct PathfinderRowsKernel;

impl GpuKernel for PathfinderRowsKernel {
    fn name(&self) -> &str {
        "pf.rows"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        let n = args.get(2).copied().unwrap_or(0);
        let rows = args.get(4).copied().unwrap_or(1);
        Nanos::for_throughput(n * rows, CELLS_PER_SEC)
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let wall = DevAddr(exec.arg(0)?);
        let result = DevAddr(exec.arg(1)?);
        let n = exec.arg(2)? as usize;
        let row_start = exec.arg(3)? as usize;
        let rows = exec.arg(4)? as usize;
        let mut cur = exec.read_i32s(result, n)?;
        for r in row_start..row_start + rows {
            let row = exec.read_i32s(wall.offset((r * n * 4) as u64), n)?;
            let mut next = vec![0i32; n];
            for j in 0..n {
                let mut best = cur[j];
                if j > 0 {
                    best = best.min(cur[j - 1]);
                }
                if j + 1 < n {
                    best = best.min(cur[j + 1]);
                }
                next[j] = best + row[j];
            }
            cur = next;
        }
        exec.write_i32s(result, &cur)
    }
}

fn cpu_pathfinder(wall: &[i32], n: usize, rows: usize) -> Vec<i32> {
    let mut cur: Vec<i32> = wall[..n].to_vec();
    for r in 1..rows {
        let mut next = vec![0i32; n];
        for j in 0..n {
            let mut best = cur[j];
            if j > 0 {
                best = best.min(cur[j - 1]);
            }
            if j + 1 < n {
                best = best.min(cur[j + 1]);
            }
            next[j] = best + wall[r * n + j];
        }
        cur = next;
    }
    cur
}

/// The Pathfinder workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pathfinder;

impl Workload for Pathfinder {
    fn name(&self) -> &'static str {
        "Pathfinder"
    }

    fn kernels(&self) -> Vec<Box<dyn GpuKernel>> {
        vec![Box::new(PathfinderRowsKernel)]
    }

    fn profile(&self, model: &CostModel) -> Profile {
        let n = self.paper_size() as u64;
        let launches = (n - 1).div_ceil(PYRAMID);
        let kernel_time = PathfinderRowsKernel.cost(model, &[0, 0, n, 0, n - 1]);
        let _ = launches;
        Profile {
            abbrev: "PF",
            htod: 256 << 20,
            dtoh: kb(32.0),
            launches: (n - 1).div_ceil(PYRAMID),
            kernel_time,
        }
    }

    fn run(
        &self,
        machine: &mut Machine,
        exec: &mut dyn GpuExecutor,
        n: usize,
    ) -> Result<RunStats, ExecError> {
        exec.load_module(machine, "pf.rows")?;
        let mut rng = Rng::from_seed_bytes(format!("pf-{n}").as_bytes());
        let wall: Vec<i32> = (0..n * n).map(|_| (rng.u64() % 10) as i32).collect();
        let d_wall = exec.malloc(machine, (n * n * 4) as u64)?;
        let d_result = exec.malloc(machine, (n * 4) as u64)?;
        exec.htod(machine, d_wall, &i32s_payload(&wall))?;
        exec.htod(machine, d_result, &i32s_payload(&wall[..n]))?;
        let mut row = 1u64;
        let mut launches = 0u64;
        while row < n as u64 {
            let rows = PYRAMID.min(n as u64 - row);
            exec.launch(
                machine,
                "pf.rows",
                &[d_wall.value(), d_result.value(), n as u64, row, rows],
            )?;
            row += rows;
            launches += 1;
        }
        let out = exec.dtoh(machine, d_result, (n * 4) as u64)?;
        if !out.is_synthetic() {
            let got = payload_i32s(&out);
            let want = cpu_pathfinder(&wall, n, n);
            if got != want {
                return Err(ExecError::Verify("pf result row mismatch".into()));
            }
        }
        Ok(RunStats {
            htod_bytes: ((n * n + n) * 4) as u64,
            dtoh_bytes: (n * 4) as u64,
            launches,
        })
    }

    fn test_size(&self) -> usize {
        64
    }

    fn paper_size(&self) -> usize {
        8192
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rodinia::testutil;

    #[test]
    fn pf_on_gdev_matches_cpu() {
        testutil::run_on_gdev(&Pathfinder);
    }

    #[test]
    fn pf_on_hix_matches_cpu() {
        testutil::run_on_hix(&Pathfinder);
    }

    #[test]
    fn cpu_pathfinder_prefers_cheap_column() {
        // Column 2 is free; everything else costs 9.
        let n = 5;
        let mut wall = vec![9i32; n * n];
        for r in 0..n {
            wall[r * n + 2] = 0;
        }
        let out = cpu_pathfinder(&wall, n, n);
        assert_eq!(out[2], 0);
        assert!(out.iter().all(|&c| c >= 0));
    }

    #[test]
    fn profile_matches_table5() {
        let p = Pathfinder.profile(&CostModel::paper());
        assert_eq!(p.htod, 256 << 20);
        assert_eq!(p.dtoh, 32 << 10);
        assert_eq!(p.launches, 410);
        // PF compute is tiny relative to its input size.
        assert!(p.kernel_time < Nanos::from_millis(10), "{}", p.kernel_time);
    }
}
