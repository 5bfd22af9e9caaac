//! Hotspot (HS): thermal stencil iteration over a chip grid.
//!
//! Table 5: 8.00 MB HtoD / 4.00 MB DtoH, 1024×1024 points — temperature
//! and power grids in, final temperatures out. One of the short apps the
//! paper observes running *faster* under HIX (cheap task init).

use hix_gpu::vram::DevAddr;
use hix_gpu::{GpuKernel, KernelError, KernelExec};
use hix_platform::Machine;
use hix_sim::{CostModel, Nanos};
use hix_testkit::Rng;

use crate::exec::{f32s_payload, payload_f32s, ExecError, GpuExecutor, RunStats};
use crate::{Profile, Workload};

/// Simulation time steps (Rodinia's default-ish pyramid run).
const STEPS: usize = 30;

/// Cell-update throughput of the stencil kernel (5-point stencil, well
/// coalesced) — calibrated for ~10 ms of GPU time on the 1024² grid.
const CELLS_PER_SEC: u64 = 3_200_000_000;

const RX: f32 = 0.1;
const RY: f32 = 0.1;
const RZ: f32 = 0.8;
const CAP: f32 = 0.5;
const AMB: f32 = 80.0;

/// `hs.step(temp_in, power, temp_out, n)` — one explicit stencil step.
#[derive(Debug, Default, Clone, Copy)]
pub struct HotspotStepKernel;

impl GpuKernel for HotspotStepKernel {
    fn name(&self) -> &str {
        "hs.step"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        let n = args.get(3).copied().unwrap_or(0);
        Nanos::for_throughput(n * n, CELLS_PER_SEC)
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let t_in = DevAddr(exec.arg(0)?);
        let power = DevAddr(exec.arg(1)?);
        let t_out = DevAddr(exec.arg(2)?);
        let n = exec.arg(3)? as usize;
        let t = exec.read_f32s(t_in, n * n)?;
        let p = exec.read_f32s(power, n * n)?;
        let mut out = vec![0f32; n * n];
        for y in 0..n {
            for x in 0..n {
                let c = t[y * n + x];
                let north = if y > 0 { t[(y - 1) * n + x] } else { c };
                let south = if y + 1 < n { t[(y + 1) * n + x] } else { c };
                let west = if x > 0 { t[y * n + x - 1] } else { c };
                let east = if x + 1 < n { t[y * n + x + 1] } else { c };
                let delta = (CAP)
                    * (p[y * n + x]
                        + (north + south - 2.0 * c) * RY
                        + (east + west - 2.0 * c) * RX
                        + (AMB - c) * RZ);
                out[y * n + x] = c + delta;
            }
        }
        exec.write_f32s(t_out, &out)
    }
}

fn cpu_step(t: &[f32], p: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0f32; n * n];
    for y in 0..n {
        for x in 0..n {
            let c = t[y * n + x];
            let north = if y > 0 { t[(y - 1) * n + x] } else { c };
            let south = if y + 1 < n { t[(y + 1) * n + x] } else { c };
            let west = if x > 0 { t[y * n + x - 1] } else { c };
            let east = if x + 1 < n { t[y * n + x + 1] } else { c };
            let delta = CAP
                * (p[y * n + x]
                    + (north + south - 2.0 * c) * RY
                    + (east + west - 2.0 * c) * RX
                    + (AMB - c) * RZ);
            out[y * n + x] = c + delta;
        }
    }
    out
}

/// The Hotspot workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Hotspot;

impl Workload for Hotspot {
    fn name(&self) -> &'static str {
        "Hotspot"
    }

    fn kernels(&self) -> Vec<Box<dyn GpuKernel>> {
        vec![Box::new(HotspotStepKernel)]
    }

    fn profile(&self, model: &CostModel) -> Profile {
        let n = self.paper_size() as u64;
        let kernel_time = HotspotStepKernel.cost(model, &[0, 0, 0, n]) * STEPS as u64;
        Profile {
            abbrev: "HS",
            htod: 8 << 20,
            dtoh: 4 << 20,
            launches: STEPS as u64,
            kernel_time,
        }
    }

    fn run(
        &self,
        machine: &mut Machine,
        exec: &mut dyn GpuExecutor,
        n: usize,
    ) -> Result<RunStats, ExecError> {
        exec.load_module(machine, "hs.step")?;
        let mut rng = Rng::from_seed_bytes(format!("hs-{n}").as_bytes());
        let temp: Vec<f32> = (0..n * n)
            .map(|_| 320.0 + (rng.u64() % 20) as f32)
            .collect();
        let power: Vec<f32> = (0..n * n)
            .map(|_| (rng.u64() % 10) as f32 / 100.0)
            .collect();
        let bytes = (n * n * 4) as u64;
        let d_a = exec.malloc(machine, bytes)?;
        let d_p = exec.malloc(machine, bytes)?;
        let d_b = exec.malloc(machine, bytes)?;
        exec.htod(machine, d_a, &f32s_payload(&temp))?;
        exec.htod(machine, d_p, &f32s_payload(&power))?;
        let steps = STEPS.min(6); // functional test iterations
        let (mut src, mut dst) = (d_a, d_b);
        for _ in 0..steps {
            exec.launch(
                machine,
                "hs.step",
                &[src.value(), d_p.value(), dst.value(), n as u64],
            )?;
            std::mem::swap(&mut src, &mut dst);
        }
        let out = exec.dtoh(machine, src, bytes)?;
        if !out.is_synthetic() {
            let mut want = temp.clone();
            for _ in 0..steps {
                want = cpu_step(&want, &power, n);
            }
            let got = payload_f32s(&out);
            for (g, w) in got.iter().zip(&want) {
                if (g - w).abs() > 1e-2 {
                    return Err(ExecError::Verify(format!("hs mismatch {g} vs {w}")));
                }
            }
        }
        Ok(RunStats {
            htod_bytes: 2 * bytes,
            dtoh_bytes: bytes,
            launches: steps as u64,
        })
    }

    fn test_size(&self) -> usize {
        64
    }

    fn paper_size(&self) -> usize {
        1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rodinia::testutil;

    #[test]
    fn hs_on_gdev_matches_cpu() {
        testutil::run_on_gdev(&Hotspot);
    }

    #[test]
    fn hs_on_hix_matches_cpu() {
        testutil::run_on_hix(&Hotspot);
    }

    #[test]
    fn profile_matches_table5() {
        let p = Hotspot.profile(&CostModel::paper());
        assert_eq!(p.htod, 8 << 20);
        assert_eq!(p.dtoh, 4 << 20);
        assert!(p.kernel_time > Nanos::from_millis(5));
        assert!(p.kernel_time < Nanos::from_millis(30));
    }

    #[test]
    fn stencil_drifts_toward_ambient_without_power() {
        let n = 8;
        let temp = vec![400.0f32; n * n];
        let power = vec![0f32; n * n];
        let out = cpu_step(&temp, &power, n);
        assert!(out.iter().all(|&t| t < 400.0), "cooling toward AMB");
    }
}
