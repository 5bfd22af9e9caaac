//! Back Propagation (BP): one training step of a 2-layer perceptron,
//! Rodinia-style (input layer → 16 hidden units → 1 output).
//!
//! Table 5: 117.0 MB HtoD / 42.75 MB DtoH, 589,824 input nodes. The
//! transfers are dominated by the input-to-hidden weight matrix
//! (`(n+1) × 17` floats), copied in for the forward pass and back out
//! after the weight adjustment.

use hix_gpu::vram::DevAddr;
use hix_gpu::{GpuKernel, KernelError, KernelExec};
use hix_platform::Machine;
use hix_sim::{CostModel, Nanos};
use hix_testkit::Rng;

use crate::exec::{f32s_payload, payload_f32s, ExecError, GpuExecutor, RunStats};
use crate::rodinia::mb;
use crate::{Profile, Workload};

/// Hidden-layer width (Rodinia's default).
const HIDDEN: usize = 16;

/// Effective bandwidth of the weight-matrix traversals. BP is purely
/// memory bound and its accesses are column-strided, so the effective
/// rate is far below peak — calibrated to put the 589k-node step near
/// 60 ms of GPU time.
const BP_EFF_BW: u64 = 7_600_000_000;

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// `bp.layerforward(units, weights, hidden_out, n)` — hidden unit `j`
/// sums `units[i] * w[i][j]` over all inputs (plus bias row 0).
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerForwardKernel;

impl GpuKernel for LayerForwardKernel {
    fn name(&self) -> &str {
        "bp.layerforward"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        let n = args.get(3).copied().unwrap_or(0);
        // Reads units (n) + weights ((n+1)*(HIDDEN+1)) floats.
        Nanos::for_throughput((n + (n + 1) * (HIDDEN as u64 + 1)) * 4, BP_EFF_BW)
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let units = DevAddr(exec.arg(0)?);
        let weights = DevAddr(exec.arg(1)?);
        let hidden_out = DevAddr(exec.arg(2)?);
        let n = exec.arg(3)? as usize;
        let u = exec.read_f32s(units, n + 1)?;
        let w = exec.read_f32s(weights, (n + 1) * (HIDDEN + 1))?;
        let mut h = vec![0f32; HIDDEN + 1];
        h[0] = 1.0;
        for j in 1..=HIDDEN {
            let mut sum = w[j]; // bias row (i = 0, u[0] = 1)
            for i in 1..=n {
                sum += u[i] * w[i * (HIDDEN + 1) + j];
            }
            h[j] = sigmoid(sum);
        }
        exec.write_f32s(hidden_out, &h)
    }
}

/// `bp.adjust(units, weights, delta_ptr, n)` — applies the weight update
/// `w[i][j] += eta * delta[j] * units[i] + momentum * old`, Rodinia's
/// `bpnn_layerforward` partner kernel.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdjustWeightsKernel;

impl GpuKernel for AdjustWeightsKernel {
    fn name(&self) -> &str {
        "bp.adjust"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        let n = args.get(3).copied().unwrap_or(0);
        // Read + write of the full weight matrix.
        Nanos::for_throughput(2 * (n + 1) * (HIDDEN as u64 + 1) * 4, BP_EFF_BW)
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let units = DevAddr(exec.arg(0)?);
        let weights = DevAddr(exec.arg(1)?);
        let delta = DevAddr(exec.arg(2)?);
        let n = exec.arg(3)? as usize;
        let u = exec.read_f32s(units, n + 1)?;
        let d = exec.read_f32s(delta, HIDDEN + 1)?;
        let mut w = exec.read_f32s(weights, (n + 1) * (HIDDEN + 1))?;
        const ETA: f32 = 0.3;
        for i in 0..=n {
            for j in 1..=HIDDEN {
                w[i * (HIDDEN + 1) + j] += ETA * d[j] * u[i];
            }
        }
        exec.write_f32s(weights, &w)
    }
}

fn cpu_forward(u: &[f32], w: &[f32], n: usize) -> Vec<f32> {
    let mut h = vec![0f32; HIDDEN + 1];
    h[0] = 1.0;
    for j in 1..=HIDDEN {
        let mut sum = w[j];
        for i in 1..=n {
            sum += u[i] * w[i * (HIDDEN + 1) + j];
        }
        h[j] = sigmoid(sum);
    }
    h
}

/// The BP workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct BackProp;

impl Workload for BackProp {
    fn name(&self) -> &'static str {
        "Back Propagation"
    }

    fn kernels(&self) -> Vec<Box<dyn GpuKernel>> {
        vec![Box::new(LayerForwardKernel), Box::new(AdjustWeightsKernel)]
    }

    fn profile(&self, model: &CostModel) -> Profile {
        let n = self.paper_size() as u64;
        let args = [0u64, 0, 0, n];
        let kernel_time =
            LayerForwardKernel.cost(model, &args) * 2 + AdjustWeightsKernel.cost(model, &args) * 2;
        Profile {
            abbrev: "BP",
            htod: mb(117.0),
            dtoh: mb(42.75),
            launches: 4,
            kernel_time,
        }
    }

    fn run(
        &self,
        machine: &mut Machine,
        exec: &mut dyn GpuExecutor,
        n: usize,
    ) -> Result<RunStats, ExecError> {
        exec.load_module(machine, "bp.layerforward")?;
        exec.load_module(machine, "bp.adjust")?;
        let mut rng = Rng::from_seed_bytes(format!("bp-{n}").as_bytes());
        let mut units = vec![1.0f32];
        units.extend((0..n).map(|_| (rng.u64() % 1000) as f32 / 1000.0));
        let weights: Vec<f32> = (0..(n + 1) * (HIDDEN + 1))
            .map(|_| (rng.u64() % 2000) as f32 / 1000.0 - 1.0)
            .collect();
        let delta: Vec<f32> = (0..HIDDEN + 1)
            .map(|_| (rng.u64() % 100) as f32 / 1000.0)
            .collect();

        let d_units = exec.malloc(machine, (units.len() * 4) as u64)?;
        let d_weights = exec.malloc(machine, (weights.len() * 4) as u64)?;
        let d_hidden = exec.malloc(machine, ((HIDDEN + 1) * 4) as u64)?;
        let d_delta = exec.malloc(machine, (delta.len() * 4) as u64)?;
        exec.htod(machine, d_units, &f32s_payload(&units))?;
        exec.htod(machine, d_weights, &f32s_payload(&weights))?;
        exec.htod(machine, d_delta, &f32s_payload(&delta))?;

        let args = [
            d_units.value(),
            d_weights.value(),
            d_hidden.value(),
            n as u64,
        ];
        exec.launch(machine, "bp.layerforward", &args)?;
        let adj = [
            d_units.value(),
            d_weights.value(),
            d_delta.value(),
            n as u64,
        ];
        exec.launch(machine, "bp.adjust", &adj)?;

        let hidden = exec.dtoh(machine, d_hidden, ((HIDDEN + 1) * 4) as u64)?;
        let new_weights = exec.dtoh(machine, d_weights, (weights.len() * 4) as u64)?;

        if !hidden.is_synthetic() {
            let got = payload_f32s(&hidden);
            let want = cpu_forward(&units, &weights, n);
            for (g, w) in got.iter().zip(&want) {
                if (g - w).abs() > 1e-4 {
                    return Err(ExecError::Verify(format!("bp hidden {g} != {w}")));
                }
            }
            // Spot-check the weight update.
            let w2 = payload_f32s(&new_weights);
            let idx = (HIDDEN + 1) + 1; // i = 1, j = 1
            let expect = weights[idx] + 0.3 * delta[1] * units[1];
            if (w2[idx] - expect).abs() > 1e-4 {
                return Err(ExecError::Verify("bp weight update mismatch".into()));
            }
        }
        Ok(RunStats {
            htod_bytes: ((units.len() + weights.len() + delta.len()) * 4) as u64,
            dtoh_bytes: ((HIDDEN + 1 + weights.len()) * 4) as u64,
            launches: 2,
        })
    }

    fn test_size(&self) -> usize {
        1024
    }

    fn paper_size(&self) -> usize {
        589_824
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rodinia::testutil;

    #[test]
    fn bp_on_gdev_matches_cpu() {
        testutil::run_on_gdev(&BackProp);
    }

    #[test]
    fn bp_on_hix_matches_cpu() {
        testutil::run_on_hix(&BackProp);
    }

    #[test]
    fn profile_matches_table5() {
        let p = BackProp.profile(&CostModel::paper());
        assert_eq!(p.htod, 117 << 20);
        assert_eq!(p.dtoh, mb(42.75));
        // Calibration band: tens of milliseconds of GPU time.
        assert!(p.kernel_time > Nanos::from_millis(20));
        assert!(p.kernel_time < Nanos::from_millis(200));
    }
}
