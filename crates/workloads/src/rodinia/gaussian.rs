//! Gaussian Elimination (GS): forward elimination with Rodinia's two
//! kernels, `Fan1` (multiplier column) and `Fan2` (submatrix update),
//! launched once per pivot — `2·(n−1)` launches, the paper's example of
//! a high compute-to-communication app.
//!
//! Table 5: 32.00 MB / 32.00 MB, 2048×2048 points (matrix in, reduced
//! matrix + multipliers out).

use hix_gpu::vram::DevAddr;
use hix_gpu::{GpuKernel, KernelError, KernelExec};
use hix_platform::Machine;
use hix_sim::{CostModel, Nanos};
use hix_testkit::Rng;

use crate::exec::{f32s_payload, payload_f32s, ExecError, GpuExecutor, RunStats};
use crate::{Profile, Workload};

/// Element-update throughput of `Fan2`. The kernel is launched per pivot
/// with shrinking extent, so occupancy is poor on the tail — calibrated
/// to put the 2048² elimination near a second of GPU time, matching the
/// paper's "comparable performance" observation for GS.
const UPDATES_PER_SEC: u64 = 3_000_000_000;

/// `gs.fan1(m, a, n, t)` — multipliers `m[i] = a[i][t] / a[t][t]` for
/// `i > t`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fan1Kernel;

impl GpuKernel for Fan1Kernel {
    fn name(&self) -> &str {
        "gs.fan1"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        let n = args.get(2).copied().unwrap_or(0);
        let t = args.get(3).copied().unwrap_or(0);
        Nanos::for_throughput(n.saturating_sub(t).max(1), UPDATES_PER_SEC)
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let m = DevAddr(exec.arg(0)?);
        let a = DevAddr(exec.arg(1)?);
        let n = exec.arg(2)? as usize;
        let t = exec.arg(3)? as usize;
        let av = exec.read_f32s(a, n * n)?;
        let mut mv = exec.read_f32s(m, n * n)?;
        for i in t + 1..n {
            mv[i * n + t] = av[i * n + t] / av[t * n + t];
        }
        exec.write_f32s(m, &mv)
    }
}

/// `gs.fan2(m, a, b, n, t)` — subtracts `m[i]·row(t)` from row `i` (and
/// the RHS vector `b`).
#[derive(Debug, Default, Clone, Copy)]
pub struct Fan2Kernel;

impl GpuKernel for Fan2Kernel {
    fn name(&self) -> &str {
        "gs.fan2"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        let n = args.get(3).copied().unwrap_or(0);
        let t = args.get(4).copied().unwrap_or(0);
        let extent = n.saturating_sub(t).max(1);
        Nanos::for_throughput(extent * extent, UPDATES_PER_SEC)
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let m = DevAddr(exec.arg(0)?);
        let a = DevAddr(exec.arg(1)?);
        let b = DevAddr(exec.arg(2)?);
        let n = exec.arg(3)? as usize;
        let t = exec.arg(4)? as usize;
        let mv = exec.read_f32s(m, n * n)?;
        let mut av = exec.read_f32s(a, n * n)?;
        let mut bv = exec.read_f32s(b, n)?;
        for i in t + 1..n {
            let mult = mv[i * n + t];
            for j in t..n {
                av[i * n + j] -= mult * av[t * n + j];
            }
            bv[i] -= mult * bv[t];
        }
        exec.write_f32s(a, &av)?;
        exec.write_f32s(b, &bv)
    }
}

fn cpu_eliminate(a: &mut [f32], b: &mut [f32], n: usize) {
    for t in 0..n - 1 {
        for i in t + 1..n {
            let mult = a[i * n + t] / a[t * n + t];
            for j in t..n {
                a[i * n + j] -= mult * a[t * n + j];
            }
            b[i] -= mult * b[t];
        }
    }
}

/// Diagonally dominant random matrix (stable elimination).
fn gen_system(n: usize, seed: &str) -> (Vec<f32>, Vec<f32>) {
    let mut rng = Rng::from_seed_bytes(seed.as_bytes());
    let mut a: Vec<f32> = (0..n * n)
        .map(|_| (rng.u64() % 100) as f32 / 100.0)
        .collect();
    for i in 0..n {
        a[i * n + i] += n as f32;
    }
    let b: Vec<f32> = (0..n).map(|_| (rng.u64() % 100) as f32).collect();
    (a, b)
}

/// The Gaussian elimination workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gaussian;

impl Workload for Gaussian {
    fn name(&self) -> &'static str {
        "Gaussian Elimination"
    }

    fn kernels(&self) -> Vec<Box<dyn GpuKernel>> {
        vec![Box::new(Fan1Kernel), Box::new(Fan2Kernel)]
    }

    fn profile(&self, model: &CostModel) -> Profile {
        let n = self.paper_size() as u64;
        let mut kernel_time = Nanos::ZERO;
        for t in 0..n - 1 {
            kernel_time += Fan1Kernel.cost(model, &[0, 0, n, t]);
            kernel_time += Fan2Kernel.cost(model, &[0, 0, 0, n, t]);
        }
        Profile {
            abbrev: "GS",
            htod: 32 << 20,
            dtoh: 32 << 20,
            launches: 2 * (n - 1),
            kernel_time,
        }
    }

    fn run(
        &self,
        machine: &mut Machine,
        exec: &mut dyn GpuExecutor,
        n: usize,
    ) -> Result<RunStats, ExecError> {
        exec.load_module(machine, "gs.fan1")?;
        exec.load_module(machine, "gs.fan2")?;
        let (a, b) = gen_system(n, &format!("gs-{n}"));
        let bytes = (n * n * 4) as u64;
        let d_m = exec.malloc(machine, bytes)?;
        let d_a = exec.malloc(machine, bytes)?;
        let d_b = exec.malloc(machine, (n * 4) as u64)?;
        exec.htod(machine, d_m, &f32s_payload(&vec![0f32; n * n]))?;
        exec.htod(machine, d_a, &f32s_payload(&a))?;
        exec.htod(machine, d_b, &f32s_payload(&b))?;
        for t in 0..(n - 1) as u64 {
            exec.launch(machine, "gs.fan1", &[d_m.value(), d_a.value(), n as u64, t])?;
            exec.launch(
                machine,
                "gs.fan2",
                &[d_m.value(), d_a.value(), d_b.value(), n as u64, t],
            )?;
        }
        let out_a = exec.dtoh(machine, d_a, bytes)?;
        let out_b = exec.dtoh(machine, d_b, (n * 4) as u64)?;
        if !out_a.is_synthetic() {
            let (mut ra, mut rb) = (a.clone(), b.clone());
            cpu_eliminate(&mut ra, &mut rb, n);
            let ga = payload_f32s(&out_a);
            let gb = payload_f32s(&out_b);
            for (g, w) in ga.iter().zip(&ra).chain(gb.iter().zip(&rb)) {
                if (g - w).abs() > 1e-2 * w.abs().max(1.0) {
                    return Err(ExecError::Verify(format!("gs mismatch {g} vs {w}")));
                }
            }
        }
        Ok(RunStats {
            htod_bytes: 2 * bytes + (n * 4) as u64,
            dtoh_bytes: bytes + (n * 4) as u64,
            launches: 2 * (n as u64 - 1),
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
    fn gs_on_gdev_matches_cpu() {
        testutil::run_on_gdev(&Gaussian);
    }

    #[test]
    fn gs_on_hix_matches_cpu() {
        testutil::run_on_hix(&Gaussian);
    }

    #[test]
    fn profile_matches_table5() {
        let p = Gaussian.profile(&CostModel::paper());
        assert_eq!(p.htod, 32 << 20);
        assert_eq!(p.dtoh, 32 << 20);
        assert_eq!(p.launches, 2 * 2047);
        // GS is the compute-heavy app: several hundred ms of GPU time.
        assert!(p.kernel_time > Nanos::from_millis(500), "{}", p.kernel_time);
        assert!(p.kernel_time < Nanos::from_secs(3));
    }

    #[test]
    fn cpu_elimination_zeroes_lower_triangle() {
        let n = 8;
        let (mut a, mut b) = gen_system(n, "tri");
        cpu_eliminate(&mut a, &mut b, n);
        for i in 1..n {
            for t in 0..i {
                assert!(a[i * n + t].abs() < 1e-3, "a[{i}][{t}] = {}", a[i * n + t]);
            }
        }
    }
}
