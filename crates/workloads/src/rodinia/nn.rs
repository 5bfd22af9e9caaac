//! k-Nearest Neighbors (NN): distance of every record to a query point;
//! the host selects the k best, as Rodinia does.
//!
//! Table 5: 334.1 KB HtoD / 167.05 KB DtoH with the default hurricane
//! record inputs — the smallest app in the suite, and one the paper
//! observes running *faster* under HIX thanks to the cheaper task init.

use hix_gpu::vram::DevAddr;
use hix_gpu::{GpuKernel, KernelError, KernelExec};
use hix_platform::Machine;
use hix_sim::{CostModel, Nanos};
use hix_testkit::Rng;

use crate::exec::{f32s_payload, payload_f32s, ExecError, GpuExecutor, RunStats};
use crate::rodinia::kb;
use crate::{Profile, Workload};

/// Distance-computation throughput (simple coalesced 2-float records).
const RECORDS_PER_SEC: u64 = 2_000_000_000;

/// Neighbors selected.
const K: usize = 5;

/// `nn.dist(records, distances, n, lat_bits, lng_bits)` — Euclidean
/// distance of each `(lat, lng)` record to the query point.
#[derive(Debug, Default, Clone, Copy)]
pub struct NnDistKernel;

impl GpuKernel for NnDistKernel {
    fn name(&self) -> &str {
        "nn.dist"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        let n = args.get(2).copied().unwrap_or(0);
        Nanos::for_throughput(n.max(1), RECORDS_PER_SEC)
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let records = DevAddr(exec.arg(0)?);
        let distances = DevAddr(exec.arg(1)?);
        let n = exec.arg(2)? as usize;
        let lat = f32::from_bits(exec.arg(3)? as u32);
        let lng = f32::from_bits(exec.arg(4)? as u32);
        let r = exec.read_f32s(records, 2 * n)?;
        let d: Vec<f32> = (0..n)
            .map(|i| {
                let dl = r[2 * i] - lat;
                let dg = r[2 * i + 1] - lng;
                (dl * dl + dg * dg).sqrt()
            })
            .collect();
        exec.write_f32s(distances, &d)
    }
}

fn cpu_knn(records: &[f32], n: usize, lat: f32, lng: f32) -> Vec<usize> {
    let mut d: Vec<(usize, f32)> = (0..n)
        .map(|i| {
            let dl = records[2 * i] - lat;
            let dg = records[2 * i + 1] - lng;
            (i, (dl * dl + dg * dg).sqrt())
        })
        .collect();
    d.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    d.iter().take(K).map(|(i, _)| *i).collect()
}

/// The NN workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct NearestNeighbor;

impl Workload for NearestNeighbor {
    fn name(&self) -> &'static str {
        "K-nearest Neighbors"
    }

    fn kernels(&self) -> Vec<Box<dyn GpuKernel>> {
        vec![Box::new(NnDistKernel)]
    }

    fn profile(&self, model: &CostModel) -> Profile {
        let n = self.paper_size() as u64;
        Profile {
            abbrev: "NN",
            htod: kb(334.1),
            dtoh: kb(167.05),
            launches: 1,
            kernel_time: NnDistKernel.cost(model, &[0, 0, n]),
        }
    }

    fn run(
        &self,
        machine: &mut Machine,
        exec: &mut dyn GpuExecutor,
        n: usize,
    ) -> Result<RunStats, ExecError> {
        exec.load_module(machine, "nn.dist")?;
        let mut rng = Rng::from_seed_bytes(format!("nn-{n}").as_bytes());
        let records: Vec<f32> = (0..2 * n)
            .map(|_| (rng.u64() % 18000) as f32 / 100.0 - 90.0)
            .collect();
        let (lat, lng) = (30.0f32, -60.0f32);
        let d_rec = exec.malloc(machine, (2 * n * 4) as u64)?;
        let d_dist = exec.malloc(machine, (n * 4) as u64)?;
        exec.htod(machine, d_rec, &f32s_payload(&records))?;
        exec.launch(
            machine,
            "nn.dist",
            &[
                d_rec.value(),
                d_dist.value(),
                n as u64,
                lat.to_bits() as u64,
                lng.to_bits() as u64,
            ],
        )?;
        let out = exec.dtoh(machine, d_dist, (n * 4) as u64)?;
        if !out.is_synthetic() {
            let got = payload_f32s(&out);
            // Host-side top-k over the GPU distances must equal the CPU
            // reference selection.
            let mut idx: Vec<(usize, f32)> = got.iter().copied().enumerate().collect();
            idx.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let gpu_k: Vec<usize> = idx.iter().take(K).map(|(i, _)| *i).collect();
            let want = cpu_knn(&records, n, lat, lng);
            if gpu_k != want {
                return Err(ExecError::Verify("nn top-k mismatch".into()));
            }
        }
        Ok(RunStats {
            htod_bytes: (2 * n * 4) as u64,
            dtoh_bytes: (n * 4) as u64,
            launches: 1,
        })
    }

    fn test_size(&self) -> usize {
        4000
    }

    fn paper_size(&self) -> usize {
        42_764 // Rodinia's default hurricane dataset size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rodinia::testutil;

    #[test]
    fn nn_on_gdev_matches_cpu() {
        testutil::run_on_gdev(&NearestNeighbor);
    }

    #[test]
    fn nn_on_hix_matches_cpu() {
        testutil::run_on_hix(&NearestNeighbor);
    }

    #[test]
    fn cpu_knn_finds_planted_neighbor() {
        // Plant an exact-match record; it must rank first.
        let mut records = vec![0f32; 2 * 100];
        for (i, r) in records.iter_mut().enumerate() {
            *r = (i as f32) + 50.0;
        }
        records[42 * 2] = 30.0;
        records[42 * 2 + 1] = -60.0;
        let knn = cpu_knn(&records, 100, 30.0, -60.0);
        assert_eq!(knn[0], 42);
    }

    #[test]
    fn profile_matches_table5() {
        let p = NearestNeighbor.profile(&CostModel::paper());
        assert_eq!(p.htod, kb(334.1));
        assert_eq!(p.dtoh, kb(167.05));
        assert_eq!(p.launches, 1);
        assert!(p.kernel_time < Nanos::from_millis(1));
    }
}
