//! SRAD: Speckle Reducing Anisotropic Diffusion over an ultrasound
//! image, two kernels per iteration (diffusion coefficients, then the
//! update), as in Rodinia's srad_v2.
//!
//! Table 5: 24.23 MB HtoD / 24.19 MB DtoH, 3096×2048 points (the image
//! in and the despeckled image back).

use hix_gpu::vram::DevAddr;
use hix_gpu::{GpuKernel, KernelError, KernelExec};
use hix_platform::Machine;
use hix_sim::{CostModel, Nanos};
use hix_testkit::Rng;

use crate::exec::{f32s_payload, payload_f32s, ExecError, GpuExecutor, RunStats};
use crate::rodinia::mb;
use crate::{Profile, Workload};

/// Diffusion iterations at paper scale.
const ITERATIONS: u64 = 20;

/// Diffusion coefficient (lambda).
const LAMBDA: f32 = 0.5;

/// Cell throughput of the two stencil kernels combined — calibrated for
/// ~50 ms over 20 iterations of the 3096×2048 image.
const CELLS_PER_SEC: u64 = 5_000_000_000;

fn srad_coeff(img: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    // q0 from the whole-image statistics, then per-pixel coefficient.
    let n = (rows * cols) as f32;
    let sum: f32 = img.iter().sum();
    let sum2: f32 = img.iter().map(|x| x * x).sum();
    let mean = sum / n;
    let var = sum2 / n - mean * mean;
    let q0 = var / (mean * mean);
    let mut c = vec![0f32; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            let idx = i * cols + j;
            let p = img[idx];
            let north = img[if i > 0 { (i - 1) * cols + j } else { idx }];
            let south = img[if i + 1 < rows {
                (i + 1) * cols + j
            } else {
                idx
            }];
            let west = img[if j > 0 { i * cols + j - 1 } else { idx }];
            let east = img[if j + 1 < cols { i * cols + j + 1 } else { idx }];
            let dn = north - p;
            let ds = south - p;
            let dw = west - p;
            let de = east - p;
            let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (p * p).max(1e-6);
            let l = (dn + ds + dw + de) / p.max(1e-3);
            let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
            let den = 1.0 + 0.25 * l;
            let q = num / (den * den).max(1e-6);
            let coeff = 1.0 / (1.0 + (q - q0) / (q0 * (1.0 + q0)).max(1e-6));
            c[idx] = coeff.clamp(0.0, 1.0);
        }
    }
    c
}

fn srad_update(img: &mut [f32], c: &[f32], rows: usize, cols: usize) {
    let orig = img.to_vec();
    for i in 0..rows {
        for j in 0..cols {
            let idx = i * cols + j;
            let p = orig[idx];
            let cn = c[idx];
            let cs = c[if i + 1 < rows {
                (i + 1) * cols + j
            } else {
                idx
            }];
            let cw = c[idx];
            let ce = c[if j + 1 < cols { i * cols + j + 1 } else { idx }];
            let north = orig[if i > 0 { (i - 1) * cols + j } else { idx }];
            let south = orig[if i + 1 < rows {
                (i + 1) * cols + j
            } else {
                idx
            }];
            let west = orig[if j > 0 { i * cols + j - 1 } else { idx }];
            let east = orig[if j + 1 < cols { i * cols + j + 1 } else { idx }];
            let d = cn * (north - p) + cs * (south - p) + cw * (west - p) + ce * (east - p);
            img[idx] = p + (LAMBDA / 4.0) * d;
        }
    }
}

/// `srad.coeff(img, coeff, rows, cols)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SradCoeffKernel;

impl GpuKernel for SradCoeffKernel {
    fn name(&self) -> &str {
        "srad.coeff"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        let rows = args.get(2).copied().unwrap_or(0);
        let cols = args.get(3).copied().unwrap_or(0);
        Nanos::for_throughput(rows * cols, CELLS_PER_SEC)
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let img = DevAddr(exec.arg(0)?);
        let coeff = DevAddr(exec.arg(1)?);
        let rows = exec.arg(2)? as usize;
        let cols = exec.arg(3)? as usize;
        let iv = exec.read_f32s(img, rows * cols)?;
        let c = srad_coeff(&iv, rows, cols);
        exec.write_f32s(coeff, &c)
    }
}

/// `srad.update(img, coeff, rows, cols)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SradUpdateKernel;

impl GpuKernel for SradUpdateKernel {
    fn name(&self) -> &str {
        "srad.update"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        let rows = args.get(2).copied().unwrap_or(0);
        let cols = args.get(3).copied().unwrap_or(0);
        Nanos::for_throughput(rows * cols, CELLS_PER_SEC)
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let img = DevAddr(exec.arg(0)?);
        let coeff = DevAddr(exec.arg(1)?);
        let rows = exec.arg(2)? as usize;
        let cols = exec.arg(3)? as usize;
        let mut iv = exec.read_f32s(img, rows * cols)?;
        let c = exec.read_f32s(coeff, rows * cols)?;
        srad_update(&mut iv, &c, rows, cols);
        exec.write_f32s(img, &iv)
    }
}

/// The SRAD workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Srad;

impl Srad {
    fn dims(n: usize) -> (usize, usize) {
        // Paper: 3096 × 2048; scale the aspect ratio down for tests.
        (n * 3096 / 2048, n)
    }
}

impl Workload for Srad {
    fn name(&self) -> &'static str {
        "SRAD"
    }

    fn kernels(&self) -> Vec<Box<dyn GpuKernel>> {
        vec![Box::new(SradCoeffKernel), Box::new(SradUpdateKernel)]
    }

    fn profile(&self, model: &CostModel) -> Profile {
        let (rows, cols) = Srad::dims(self.paper_size());
        let args = [0u64, 0, rows as u64, cols as u64];
        let kernel_time =
            (SradCoeffKernel.cost(model, &args) + SradUpdateKernel.cost(model, &args)) * ITERATIONS;
        Profile {
            abbrev: "SRAD",
            htod: mb(24.23),
            dtoh: mb(24.19),
            launches: 2 * ITERATIONS,
            kernel_time,
        }
    }

    fn run(
        &self,
        machine: &mut Machine,
        exec: &mut dyn GpuExecutor,
        n: usize,
    ) -> Result<RunStats, ExecError> {
        exec.load_module(machine, "srad.coeff")?;
        exec.load_module(machine, "srad.update")?;
        let (rows, cols) = Srad::dims(n);
        let mut rng = Rng::from_seed_bytes(format!("srad-{n}").as_bytes());
        let img: Vec<f32> = (0..rows * cols)
            .map(|_| 1.0 + (rng.u64() % 100) as f32 / 50.0)
            .collect();
        let bytes = (rows * cols * 4) as u64;
        let d_img = exec.malloc(machine, bytes)?;
        let d_coeff = exec.malloc(machine, bytes)?;
        exec.htod(machine, d_img, &f32s_payload(&img))?;
        let iters = 3usize; // functional test iterations
        let args = [d_img.value(), d_coeff.value(), rows as u64, cols as u64];
        for _ in 0..iters {
            exec.launch(machine, "srad.coeff", &args)?;
            exec.launch(machine, "srad.update", &args)?;
        }
        let out = exec.dtoh(machine, d_img, bytes)?;
        if !out.is_synthetic() {
            let mut want = img.clone();
            for _ in 0..iters {
                let c = srad_coeff(&want, rows, cols);
                srad_update(&mut want, &c, rows, cols);
            }
            let got = payload_f32s(&out);
            for (g, w) in got.iter().zip(&want) {
                if (g - w).abs() > 1e-3 * w.abs().max(1.0) {
                    return Err(ExecError::Verify(format!("srad mismatch {g} vs {w}")));
                }
            }
        }
        Ok(RunStats {
            htod_bytes: bytes,
            dtoh_bytes: bytes,
            launches: 2 * iters as u64,
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
    fn srad_on_gdev_matches_cpu() {
        testutil::run_on_gdev(&Srad);
    }

    #[test]
    fn srad_on_hix_matches_cpu() {
        testutil::run_on_hix(&Srad);
    }

    #[test]
    fn diffusion_reduces_variance() {
        let (rows, cols) = (16, 16);
        let mut rng = Rng::from_seed_bytes(b"var");
        let mut img: Vec<f32> = (0..rows * cols)
            .map(|_| 1.0 + (rng.u64() % 100) as f32 / 25.0)
            .collect();
        let var = |v: &[f32]| {
            let m: f32 = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / v.len() as f32
        };
        let before = var(&img);
        for _ in 0..5 {
            let c = srad_coeff(&img, rows, cols);
            srad_update(&mut img, &c, rows, cols);
        }
        assert!(var(&img) < before, "speckle reduction smooths the image");
    }

    #[test]
    fn profile_matches_table5() {
        let p = Srad.profile(&CostModel::paper());
        assert_eq!(p.htod, mb(24.23));
        assert_eq!(p.dtoh, mb(24.19));
        assert_eq!(p.launches, 40);
        assert!(p.kernel_time > Nanos::from_millis(20));
        assert!(p.kernel_time < Nanos::from_millis(120));
    }
}
