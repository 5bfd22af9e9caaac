//! Integer matrix add / multiply microbenchmarks (Fig. 6, Table 4).
//!
//! `A + B = C` and `A × B = C` over `n × n` `i32` matrices (wrapping
//! arithmetic). Host-to-device traffic is the two inputs (`2·n²·4`
//! bytes), device-to-host the result (`n²·4`) — exactly Table 4's rows.

use hix_gpu::vram::DevAddr;
use hix_gpu::{GpuKernel, KernelError, KernelExec};
use hix_platform::Machine;
use hix_sim::{CostModel, Nanos};
use hix_testkit::Rng;

use crate::exec::{i32s_payload, payload_i32s, ExecError, GpuExecutor, RunStats};
use crate::{Profile, Workload};

/// Effective device memory bandwidth for element-wise kernels
/// (GTX 580 peak is 192 GB/s; streaming kernels reach ~120 GB/s).
const ELEMENTWISE_BW: u64 = 120_000_000_000;

/// Effective integer multiply-accumulate rate of the straightforward
/// (non-tiled) matmul kernel the microbenchmark uses — calibrated so the
/// 11264² multiply lands in the several-second range of Fig. 6.
const MATMUL_MACS_PER_SEC: u64 = 153_000_000_000;

/// The paper's four matrix sizes (Table 4).
pub const PAPER_SIZES: [usize; 4] = [2048, 4096, 8192, 11264];

/// Table 4 row for size `n`: `(HtoD bytes, DtoH bytes, total)`.
pub fn table4_row(n: usize) -> (u64, u64, u64) {
    let cell = (n * n * 4) as u64;
    (2 * cell, cell, 3 * cell)
}

/// `matrix.add(a, b, c, n)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct MatrixAddKernel;

impl GpuKernel for MatrixAddKernel {
    fn name(&self) -> &str {
        "matrix.add"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        let n = args.get(3).copied().unwrap_or(0);
        Nanos::for_throughput(3 * n * n * 4, ELEMENTWISE_BW)
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let (a, b, c, n) = (
            DevAddr(exec.arg(0)?),
            DevAddr(exec.arg(1)?),
            DevAddr(exec.arg(2)?),
            exec.arg(3)? as usize,
        );
        let av = exec.read_i32s(a, n * n)?;
        let bv = exec.read_i32s(b, n * n)?;
        let cv: Vec<i32> = av
            .iter()
            .zip(&bv)
            .map(|(x, y)| x.wrapping_add(*y))
            .collect();
        exec.write_i32s(c, &cv)
    }
}

/// `matrix.mul(a, b, c, n)` — straightforward row-by-column product.
#[derive(Debug, Default, Clone, Copy)]
pub struct MatrixMulKernel;

impl GpuKernel for MatrixMulKernel {
    fn name(&self) -> &str {
        "matrix.mul"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        let n = args.get(3).copied().unwrap_or(0) as u128;
        let macs = n * n * n;
        Nanos::from_nanos(
            u64::try_from(macs * 1_000_000_000 / MATMUL_MACS_PER_SEC as u128)
                .expect("cost fits u64"),
        )
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let (a, b, c, n) = (
            DevAddr(exec.arg(0)?),
            DevAddr(exec.arg(1)?),
            DevAddr(exec.arg(2)?),
            exec.arg(3)? as usize,
        );
        let av = exec.read_i32s(a, n * n)?;
        let bv = exec.read_i32s(b, n * n)?;
        let mut cv = vec![0i32; n * n];
        for i in 0..n {
            for k in 0..n {
                let aik = av[i * n + k];
                if aik == 0 {
                    continue;
                }
                for j in 0..n {
                    cv[i * n + j] = cv[i * n + j].wrapping_add(aik.wrapping_mul(bv[k * n + j]));
                }
            }
        }
        exec.write_i32s(c, &cv)
    }
}

fn cpu_add(a: &[i32], b: &[i32]) -> Vec<i32> {
    a.iter().zip(b).map(|(x, y)| x.wrapping_add(*y)).collect()
}

fn cpu_mul(a: &[i32], b: &[i32], n: usize) -> Vec<i32> {
    let mut c = vec![0i32; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] = c[i * n + j].wrapping_add(aik.wrapping_mul(b[k * n + j]));
            }
        }
    }
    c
}

fn gen_matrix(rng: &mut Rng, n: usize) -> Vec<i32> {
    rng.bytes(n * n * 4)
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()) % 1000)
        .collect()
}

/// Which operation a matrix run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixOp {
    /// `A + B`.
    Add,
    /// `A × B`.
    Mul,
}

/// Profile for operation `op` at size `n` (Fig. 6 sweeps these).
pub fn matrix_profile(op: MatrixOp, n: usize, model: &CostModel) -> Profile {
    let (htod, dtoh, _) = table4_row(n);
    let args = [0u64, 0, 0, n as u64];
    let (abbrev, kernel_time) = match op {
        MatrixOp::Add => ("ADD", MatrixAddKernel.cost(model, &args)),
        MatrixOp::Mul => ("MUL", MatrixMulKernel.cost(model, &args)),
    };
    Profile {
        abbrev,
        htod,
        dtoh,
        launches: 1,
        kernel_time,
    }
}

fn run_matrix(
    op: MatrixOp,
    machine: &mut Machine,
    exec: &mut dyn GpuExecutor,
    n: usize,
) -> Result<RunStats, ExecError> {
    let kernel = match op {
        MatrixOp::Add => "matrix.add",
        MatrixOp::Mul => "matrix.mul",
    };
    exec.load_module(machine, kernel)?;
    let bytes = (n * n * 4) as u64;
    let (da, db, dc) = (
        exec.malloc(machine, bytes)?,
        exec.malloc(machine, bytes)?,
        exec.malloc(machine, bytes)?,
    );
    let mut rng = Rng::from_seed_bytes(format!("matrix-{n}").as_bytes());
    let a = gen_matrix(&mut rng, n);
    let b = gen_matrix(&mut rng, n);
    exec.htod(machine, da, &i32s_payload(&a))?;
    exec.htod(machine, db, &i32s_payload(&b))?;
    exec.launch(
        machine,
        kernel,
        &[da.value(), db.value(), dc.value(), n as u64],
    )?;
    let out = exec.dtoh(machine, dc, bytes)?;
    if !out.is_synthetic() {
        let got = payload_i32s(&out);
        let want = match op {
            MatrixOp::Add => cpu_add(&a, &b),
            MatrixOp::Mul => cpu_mul(&a, &b, n),
        };
        if got != want {
            return Err(ExecError::Verify(format!("{kernel} mismatch at n={n}")));
        }
    }
    Ok(RunStats {
        htod_bytes: 2 * bytes,
        dtoh_bytes: bytes,
        launches: 1,
    })
}

/// The matrix-addition microbenchmark.
#[derive(Debug, Default, Clone, Copy)]
pub struct MatrixAdd;

impl Workload for MatrixAdd {
    fn name(&self) -> &'static str {
        "matrix addition"
    }

    fn kernels(&self) -> Vec<Box<dyn GpuKernel>> {
        vec![Box::new(MatrixAddKernel)]
    }

    fn profile(&self, model: &CostModel) -> Profile {
        matrix_profile(MatrixOp::Add, self.paper_size(), model)
    }

    fn run(
        &self,
        machine: &mut Machine,
        exec: &mut dyn GpuExecutor,
        n: usize,
    ) -> Result<RunStats, ExecError> {
        run_matrix(MatrixOp::Add, machine, exec, n)
    }

    fn test_size(&self) -> usize {
        64
    }

    fn paper_size(&self) -> usize {
        11264
    }

    fn gdev_pageable(&self) -> bool {
        true
    }
}

/// The matrix-multiplication microbenchmark.
#[derive(Debug, Default, Clone, Copy)]
pub struct MatrixMul;

impl Workload for MatrixMul {
    fn name(&self) -> &'static str {
        "matrix multiplication"
    }

    fn kernels(&self) -> Vec<Box<dyn GpuKernel>> {
        vec![Box::new(MatrixMulKernel)]
    }

    fn profile(&self, model: &CostModel) -> Profile {
        matrix_profile(MatrixOp::Mul, self.paper_size(), model)
    }

    fn run(
        &self,
        machine: &mut Machine,
        exec: &mut dyn GpuExecutor,
        n: usize,
    ) -> Result<RunStats, ExecError> {
        run_matrix(MatrixOp::Mul, machine, exec, n)
    }

    fn test_size(&self) -> usize {
        48
    }

    fn paper_size(&self) -> usize {
        11264
    }

    fn gdev_pageable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_rows_match_paper() {
        // Table 4: 2048² -> 32 MB / 16 MB / 48 MB, up to 11264².
        assert_eq!(table4_row(2048), (32 << 20, 16 << 20, 48 << 20));
        assert_eq!(table4_row(4096), (128 << 20, 64 << 20, 192 << 20));
        assert_eq!(table4_row(8192), (512 << 20, 256 << 20, 768 << 20));
        let (h, d, t) = table4_row(11264);
        assert_eq!(h, 968 << 20);
        assert_eq!(d, 484 << 20);
        assert_eq!(t, 1452 << 20);
    }

    #[test]
    fn cpu_references_agree_on_identity() {
        // A×I = A.
        let n = 8;
        let mut rng = Rng::from_seed_bytes(b"id");
        let a = gen_matrix(&mut rng, n);
        let mut ident = vec![0i32; n * n];
        for i in 0..n {
            ident[i * n + i] = 1;
        }
        assert_eq!(cpu_mul(&a, &ident, n), a);
        let zero = vec![0i32; n * n];
        assert_eq!(cpu_add(&a, &zero), a);
    }

    #[test]
    fn mul_cost_grows_cubically() {
        let model = CostModel::paper();
        let k = MatrixMulKernel;
        let c1 = k.cost(&model, &[0, 0, 0, 1024]);
        let c2 = k.cost(&model, &[0, 0, 0, 2048]);
        let ratio = c2.as_nanos() as f64 / c1.as_nanos() as f64;
        assert!((ratio - 8.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn paper_scale_mul_cost_band() {
        // 11264³ MACs at the calibrated rate: several seconds.
        let model = CostModel::paper();
        let t = MatrixMulKernel.cost(&model, &[0, 0, 0, 11264]);
        assert!(t > Nanos::from_secs(5) && t < Nanos::from_secs(20), "{t}");
    }
}
