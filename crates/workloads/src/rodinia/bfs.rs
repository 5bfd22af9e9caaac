//! Breadth-First Search (BFS): level-synchronous frontier expansion over
//! a CSR graph, as in Rodinia.
//!
//! Table 5: 45.78 MB HtoD / 3.81 MB DtoH, 1,000,000 nodes. The graph
//! (row offsets + edge list + masks) goes in; the per-node cost array
//! comes back.

use hix_gpu::vram::DevAddr;
use hix_gpu::{GpuKernel, KernelError, KernelExec};
use hix_platform::Machine;
use hix_sim::{CostModel, Nanos};
use hix_testkit::Rng;

use crate::exec::{i32s_payload, payload_i32s, ExecError, GpuExecutor, RunStats};
use crate::rodinia::mb;
use crate::{Profile, Workload};

/// Average out-degree of the generated graphs (Rodinia's generator uses
/// a similar density).
const DEGREE: usize = 6;

/// Edge-traversal throughput of the frontier kernel. Scattered neighbor
/// reads keep it well under memory bandwidth; calibrated so the 1M-node
/// search costs ~18 ms of GPU time across its levels.
const EDGES_PER_SEC: u64 = 350_000_000;

/// `bfs.level(rows, edges, frontier, visited, cost, n, level)` — expands
/// every frontier node, writing `level + 1` into unvisited neighbors and
/// building the next frontier. Returns progress through the `frontier`
/// array itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct BfsLevelKernel;

impl GpuKernel for BfsLevelKernel {
    fn name(&self) -> &str {
        "bfs.level"
    }

    fn cost(&self, _model: &CostModel, args: &[u64]) -> Nanos {
        // Each launch sweeps the frontier's outgoing edges; arg 7 carries
        // the caller's estimate of edges touched this level.
        let edges_touched = args.get(7).copied().unwrap_or(0);
        Nanos::for_throughput(edges_touched.max(1), EDGES_PER_SEC)
    }

    fn run(&self, exec: &mut KernelExec<'_>) -> Result<(), KernelError> {
        let rows = DevAddr(exec.arg(0)?);
        let edges = DevAddr(exec.arg(1)?);
        let frontier = DevAddr(exec.arg(2)?);
        let visited = DevAddr(exec.arg(3)?);
        let cost = DevAddr(exec.arg(4)?);
        let n = exec.arg(5)? as usize;
        let level = exec.arg(6)? as i32;
        let row_v = exec.read_i32s(rows, n + 1)?;
        let edge_count = row_v[n] as usize;
        let edge_v = exec.read_i32s(edges, edge_count)?;
        let mut frontier_v = exec.read_i32s(frontier, n)?;
        let mut visited_v = exec.read_i32s(visited, n)?;
        let mut cost_v = exec.read_i32s(cost, n)?;
        let mut next = vec![0i32; n];
        for u in 0..n {
            if frontier_v[u] == 0 {
                continue;
            }
            for &edge in &edge_v[row_v[u] as usize..row_v[u + 1] as usize] {
                let v = edge as usize;
                if visited_v[v] == 0 {
                    visited_v[v] = 1;
                    cost_v[v] = level + 1;
                    next[v] = 1;
                }
            }
        }
        frontier_v.copy_from_slice(&next);
        exec.write_i32s(frontier, &frontier_v)?;
        exec.write_i32s(visited, &visited_v)?;
        exec.write_i32s(cost, &cost_v)
    }
}

/// Deterministic CSR graph: ring edges for connectivity + random extras.
fn gen_graph(n: usize, seed: &str) -> (Vec<i32>, Vec<i32>) {
    let mut rng = Rng::from_seed_bytes(seed.as_bytes());
    let mut rows = Vec::with_capacity(n + 1);
    let mut edges = Vec::new();
    rows.push(0i32);
    for u in 0..n {
        edges.push(((u + 1) % n) as i32); // ring edge
        for _ in 0..DEGREE - 1 {
            edges.push((rng.u64() % n as u64) as i32);
        }
        rows.push(edges.len() as i32);
    }
    (rows, edges)
}

fn cpu_bfs(rows: &[i32], edges: &[i32], n: usize) -> Vec<i32> {
    let mut cost = vec![-1i32; n];
    cost[0] = 0;
    let mut frontier = vec![0usize];
    let mut level = 0;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for &edge in &edges[rows[u] as usize..rows[u + 1] as usize] {
                let v = edge as usize;
                if cost[v] == -1 {
                    cost[v] = level + 1;
                    next.push(v);
                }
            }
        }
        frontier = next;
        level += 1;
    }
    cost
}

/// The BFS workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Bfs;

impl Workload for Bfs {
    fn name(&self) -> &'static str {
        "Breadth-First Search"
    }

    fn kernels(&self) -> Vec<Box<dyn GpuKernel>> {
        vec![Box::new(BfsLevelKernel)]
    }

    fn profile(&self, model: &CostModel) -> Profile {
        let n = self.paper_size() as u64;
        let total_edges = n * DEGREE as u64;
        let levels = 24u64; // random graphs of this density finish fast
        let per_level = total_edges / levels;
        let kernel_time = BfsLevelKernel.cost(model, &[0, 0, 0, 0, 0, n, 0, per_level]) * levels;
        Profile {
            abbrev: "BFS",
            htod: mb(45.78),
            dtoh: mb(3.81),
            launches: levels,
            kernel_time,
        }
    }

    fn run(
        &self,
        machine: &mut Machine,
        exec: &mut dyn GpuExecutor,
        n: usize,
    ) -> Result<RunStats, ExecError> {
        exec.load_module(machine, "bfs.level")?;
        let (rows, edges) = gen_graph(n, &format!("bfs-{n}"));
        let mut frontier = vec![0i32; n];
        frontier[0] = 1;
        let mut visited = vec![0i32; n];
        visited[0] = 1;
        let mut cost = vec![-1i32; n];
        cost[0] = 0;

        let d_rows = exec.malloc(machine, (rows.len() * 4) as u64)?;
        let d_edges = exec.malloc(machine, (edges.len() * 4) as u64)?;
        let d_frontier = exec.malloc(machine, (n * 4) as u64)?;
        let d_visited = exec.malloc(machine, (n * 4) as u64)?;
        let d_cost = exec.malloc(machine, (n * 4) as u64)?;
        exec.htod(machine, d_rows, &i32s_payload(&rows))?;
        exec.htod(machine, d_edges, &i32s_payload(&edges))?;
        exec.htod(machine, d_frontier, &i32s_payload(&frontier))?;
        exec.htod(machine, d_visited, &i32s_payload(&visited))?;
        exec.htod(machine, d_cost, &i32s_payload(&cost))?;

        // Level-synchronous loop: launch, read back the frontier, repeat
        // until empty (the readback stands in for Rodinia's `over` flag).
        let mut launches = 0u64;
        let mut dtoh_extra = 0u64;
        for level in 0..n as u64 {
            exec.launch(
                machine,
                "bfs.level",
                &[
                    d_rows.value(),
                    d_edges.value(),
                    d_frontier.value(),
                    d_visited.value(),
                    d_cost.value(),
                    n as u64,
                    level,
                    (n * DEGREE) as u64 / 8,
                ],
            )?;
            launches += 1;
            let f = exec.dtoh(machine, d_frontier, (n * 4) as u64)?;
            dtoh_extra += (n * 4) as u64;
            if f.is_synthetic() {
                break; // timing replay handled by run_synthetic instead
            }
            if payload_i32s(&f).iter().all(|&x| x == 0) {
                break;
            }
        }

        let out = exec.dtoh(machine, d_cost, (n * 4) as u64)?;
        if !out.is_synthetic() {
            let got = payload_i32s(&out);
            let want = cpu_bfs(&rows, &edges, n);
            if got != want {
                return Err(ExecError::Verify("bfs cost array mismatch".into()));
            }
        }
        Ok(RunStats {
            htod_bytes: ((rows.len() + edges.len() + 3 * n) * 4) as u64,
            dtoh_bytes: (n * 4) as u64 + dtoh_extra,
            launches,
        })
    }

    fn test_size(&self) -> usize {
        500
    }

    fn paper_size(&self) -> usize {
        1_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rodinia::testutil;

    #[test]
    fn bfs_on_gdev_matches_cpu() {
        testutil::run_on_gdev(&Bfs);
    }

    #[test]
    fn bfs_on_hix_matches_cpu() {
        testutil::run_on_hix(&Bfs);
    }

    #[test]
    fn cpu_bfs_ring_distances() {
        // Pure ring (DEGREE-1 random edges removed by using the generator
        // seed only for extras): all nodes reachable.
        let (rows, edges) = gen_graph(50, "ring");
        let cost = cpu_bfs(&rows, &edges, 50);
        assert!(
            cost.iter().all(|&c| c >= 0),
            "ring keeps the graph connected"
        );
        assert_eq!(cost[0], 0);
    }

    #[test]
    fn profile_matches_table5() {
        let p = Bfs.profile(&CostModel::paper());
        assert_eq!(p.htod, mb(45.78));
        assert_eq!(p.dtoh, mb(3.81));
        assert!(p.kernel_time > Nanos::from_millis(5));
        assert!(p.kernel_time < Nanos::from_millis(100));
    }
}
