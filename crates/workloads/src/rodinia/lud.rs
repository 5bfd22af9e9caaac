//! LU Decomposition (LUD): in-place Doolittle factorization, launched
//! per elimination step (Rodinia's blocked version issues ~3 launches
//! per 16-wide block; the profile models that launch count).
//!
//! Table 5: 16.00 MB / 16.00 MB, 2048×2048 points.

use hix_gpu::vram::DevAddr;
use hix_gpu::{GpuKernel, KernelError, KernelExec};
use hix_platform::Machine;
use hix_sim::{CostModel, Nanos};
use hix_testkit::Rng;

use crate::exec::{f32s_payload, payload_f32s, ExecError, GpuExecutor, RunStats};
use crate::{Profile, Workload};

/// Rodinia's block width.
const BLOCK: u64 = 16;

/// Multiply-accumulate throughput of the update kernels — the blocked
/// kernels tile well; calibrated for ~50 ms on the 2048² factorization
/// (LUD sits at rough parity between HIX and Gdev in Fig. 7).
const MACS_PER_SEC: u64 = 60_000_000_000;

/// `lud.step(a, n, k)` — one elimination column/row update:
/// `a[i][k] /= a[k][k]`, then `a[i][j] -= a[i][k]·a[k][j]` for `i,j > k`.
#[derive(Debug, Default, Clone, Copy)]
pub struct LudStepKernel;

impl GpuKernel for LudStepKernel {
    fn name(&self) -> &str {
        "lud.step"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        let n = args.get(1).copied().unwrap_or(0);
        let k = args.get(2).copied().unwrap_or(0);
        let extent = n.saturating_sub(k).max(1);
        Nanos::for_throughput(extent * extent, MACS_PER_SEC)
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let a = DevAddr(exec.arg(0)?);
        let n = exec.arg(1)? as usize;
        let k = exec.arg(2)? as usize;
        let mut av = exec.read_f32s(a, n * n)?;
        let pivot = av[k * n + k];
        for i in k + 1..n {
            av[i * n + k] /= pivot;
            let lik = av[i * n + k];
            for j in k + 1..n {
                av[i * n + j] -= lik * av[k * n + j];
            }
        }
        exec.write_f32s(a, &av)
    }
}

fn cpu_lud(a: &mut [f32], n: usize) {
    for k in 0..n {
        let pivot = a[k * n + k];
        for i in k + 1..n {
            a[i * n + k] /= pivot;
            let lik = a[i * n + k];
            for j in k + 1..n {
                a[i * n + j] -= lik * a[k * n + j];
            }
        }
    }
}

fn gen_matrix(n: usize, seed: &str) -> Vec<f32> {
    let mut rng = Rng::from_seed_bytes(seed.as_bytes());
    let mut a: Vec<f32> = (0..n * n)
        .map(|_| (rng.u64() % 100) as f32 / 100.0)
        .collect();
    for i in 0..n {
        a[i * n + i] += n as f32; // diagonally dominant, no pivoting needed
    }
    a
}

/// The LUD workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lud;

impl Workload for Lud {
    fn name(&self) -> &'static str {
        "LU Decomposition"
    }

    fn kernels(&self) -> Vec<Box<dyn GpuKernel>> {
        vec![Box::new(LudStepKernel)]
    }

    fn profile(&self, model: &CostModel) -> Profile {
        let n = self.paper_size() as u64;
        // Compute: sum over steps, as the functional kernel charges.
        let mut kernel_time = Nanos::ZERO;
        for k in 0..n {
            kernel_time += LudStepKernel.cost(model, &[0, n, k]);
        }
        Profile {
            abbrev: "LUD",
            htod: 16 << 20,
            dtoh: 16 << 20,
            // Blocked Rodinia LUD: diagonal + perimeter + internal per
            // block step.
            launches: 3 * (n / BLOCK),
            kernel_time,
        }
    }

    fn run(
        &self,
        machine: &mut Machine,
        exec: &mut dyn GpuExecutor,
        n: usize,
    ) -> Result<RunStats, ExecError> {
        exec.load_module(machine, "lud.step")?;
        let a = gen_matrix(n, &format!("lud-{n}"));
        let bytes = (n * n * 4) as u64;
        let d_a = exec.malloc(machine, bytes)?;
        exec.htod(machine, d_a, &f32s_payload(&a))?;
        for k in 0..n as u64 {
            exec.launch(machine, "lud.step", &[d_a.value(), n as u64, k])?;
        }
        let out = exec.dtoh(machine, d_a, bytes)?;
        if !out.is_synthetic() {
            let mut want = a.clone();
            cpu_lud(&mut want, n);
            let got = payload_f32s(&out);
            for (g, w) in got.iter().zip(&want) {
                if (g - w).abs() > 1e-2 * w.abs().max(1.0) {
                    return Err(ExecError::Verify(format!("lud mismatch {g} vs {w}")));
                }
            }
        }
        Ok(RunStats {
            htod_bytes: bytes,
            dtoh_bytes: bytes,
            launches: n as u64,
        })
    }

    fn test_size(&self) -> usize {
        32
    }

    fn paper_size(&self) -> usize {
        2048
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rodinia::testutil;

    #[test]
    fn lud_on_gdev_matches_cpu() {
        testutil::run_on_gdev(&Lud);
    }

    #[test]
    fn lud_on_hix_matches_cpu() {
        testutil::run_on_hix(&Lud);
    }

    #[test]
    fn lu_reconstructs_original() {
        // L·U must equal A (no pivoting needed on a dominant matrix).
        let n = 6;
        let a = gen_matrix(n, "rebuild");
        let mut lu = a.clone();
        cpu_lud(&mut lu, n);
        let l = |i: usize, k: usize| -> f32 {
            if k > i {
                0.0
            } else if k == i {
                1.0
            } else {
                lu[i * n + k]
            }
        };
        let u = |k: usize, j: usize| -> f32 {
            if k > j {
                0.0
            } else {
                lu[k * n + j]
            }
        };
        for i in 0..n {
            for j in 0..n {
                let sum: f32 = (0..n).map(|k| l(i, k) * u(k, j)).sum();
                assert!(
                    (sum - a[i * n + j]).abs() < 1e-2 * a[i * n + j].abs().max(1.0),
                    "LU[{i}][{j}] {sum} vs {}",
                    a[i * n + j]
                );
            }
        }
    }

    #[test]
    fn profile_matches_table5() {
        let p = Lud.profile(&CostModel::paper());
        assert_eq!(p.htod, 16 << 20);
        assert_eq!(p.dtoh, 16 << 20);
        assert_eq!(p.launches, 3 * 128);
        assert!(p.kernel_time > Nanos::from_millis(20));
        assert!(p.kernel_time < Nanos::from_millis(120));
    }
}
