//! `multiuser-model`: the summary engine behind Figures 8/9 and the
//! 10k-tenant scale sweep. Its numbers come from `multiuser::run_scaled`
//! (closed-form `TaskSpec` segments on a fair queue), not from the
//! machine stack.

use std::time::Instant;

use hix_core::multiuser::{
    run_scaled, seeded_session_faults, FaultProfile, Mode, ScaleOutcome, SchedulerConfig,
    SessionFaults, SessionSpec, TaskSpec,
};
use hix_obs::Metrics;
use hix_sim::cost::ExecMode;
use hix_sim::{CostModel, Nanos};

use crate::gen;
use crate::harness::{PassVirt, Workload};
use crate::meter::Meter;

/// Tenants per pass.
pub const TENANTS: usize = 10_000;
/// Admission bound, low enough that the population parks.
pub const MAX_RESIDENT: usize = 256;
/// Healthy tenants must finish within this completion-time ratio (the
/// scale sweep's bound).
const FAIR_BOUND: f64 = 2.0;

/// Reference-kernel samples per pass.
const MODEL_TICKS: usize = 16;

pub const COUNTERS: [&str; 4] = [
    "sched.slices",
    "sched.parks",
    "sched.unparks",
    "sched.ctx_switches",
];

/// The Figure 8/9 bp-like profile every tenant runs.
fn task() -> TaskSpec {
    TaskSpec {
        name: "bp-like".into(),
        htod: 117 << 20,
        dtoh: 42 << 20,
        kernel_time: Nanos::from_millis(22),
        launches: 2,
    }
}

fn population(seed: u64) -> (Vec<SessionFaults>, Vec<SessionSpec>) {
    let faults = seeded_session_faults(
        gen::model_population_seed(seed),
        TENANTS,
        FaultProfile::Heavy,
    );
    let t = task();
    let sessions = faults
        .iter()
        .map(|f| SessionSpec {
            task: t.clone(),
            weight: 1,
            faults: *f,
        })
        .collect();
    (faults, sessions)
}

/// Set-up builds the seeded tenant population; every pass runs it
/// through the engine once.
pub struct Model {
    model: CostModel,
    config: SchedulerConfig,
    faults: Vec<SessionFaults>,
    sessions: Vec<SessionSpec>,
    metrics: Metrics,
    last: Option<ScaleOutcome>,
}

impl Workload for Model {
    fn setup(seed: u64) -> Result<Self, String> {
        let model = CostModel::paper();
        let mut config = SchedulerConfig::new(&model);
        config.max_resident = MAX_RESIDENT;
        let (faults, sessions) = population(seed);
        Ok(Model {
            model,
            config,
            faults,
            sessions,
            metrics: Metrics::new(),
            last: None,
        })
    }

    fn virt_now(&self) -> u64 {
        0
    }

    fn run_pass(&mut self, pass: u64, meter: &mut Meter) -> Result<PassVirt, String> {
        let root = meter.tracer.begin_request(0, pass);
        let slices0 = self.metrics.counter("sched.slices");
        let span = meter.tracer.enter("model.run_scaled");
        let t0 = Instant::now();
        let out = run_scaled(
            &self.model,
            &self.sessions,
            Mode::Hix,
            &self.config,
            Some(&self.metrics),
        );
        meter.pass.sys_ns += t0.elapsed().as_nanos() as u64;
        meter.tracer.exit(span);
        meter.attempted += TENANTS as u64;
        meter.pass.calls += self.metrics.counter("sched.slices") - slices0;
        let t = task();
        meter.pass.bytes += TENANTS as u64 * (t.htod + t.dtoh);
        for (c, evicted) in out.completions.iter().zip(&out.evicted) {
            if !evicted {
                meter.pass.req_virt.push(c.as_nanos());
            }
        }
        // One request per pass: take a fuller host-speed sample.
        meter.end_request(root);
        for _ in 1..MODEL_TICKS {
            meter.tick();
        }

        // Outcome checks: one completion per tenant, the makespan is the
        // last completion, and healthy tenants share the GPU fairly.
        if out.completions.len() != TENANTS {
            return Err(format!(
                "model pass {pass}: {} completions",
                out.completions.len()
            ));
        }
        if out.completions.iter().max() != Some(&out.makespan) {
            return Err(format!(
                "model pass {pass}: makespan is not the last completion"
            ));
        }
        let healthy: Vec<u64> = out
            .completions
            .iter()
            .zip(&self.faults)
            .filter(|(_, f)| **f == SessionFaults::default())
            .map(|(c, _)| c.as_nanos())
            .collect();
        let fair = healthy.iter().max().copied().unwrap_or(1) as f64
            / healthy.iter().min().copied().unwrap_or(1).max(1) as f64;
        if fair > FAIR_BOUND {
            return Err(format!(
                "model pass {pass}: healthy fairness {fair} > {FAIR_BOUND}"
            ));
        }
        // Virtual set-up: every tenant's session init plus the sealed
        // parking and unsealing the admission bound forced.
        let init = self.model.task_init(ExecMode::Hix) + self.model.ipc_roundtrip * 4;
        let setup_ns = init.as_nanos() * TENANTS as u64
            + self.model.park_seal().as_nanos() * out.parks
            + self.model.park_unseal().as_nanos() * out.unparks;
        let virt = PassVirt {
            makespan_ns: out.makespan.as_nanos(),
            setup_ns,
            fairness: fair,
        };
        self.last = Some(out);
        Ok(virt)
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = COUNTERS
            .iter()
            .map(|c| (c.to_string(), self.metrics.counter(c)))
            .collect();
        out.push(("sim.events".into(), self.metrics.counter("sched.slices")));
        out
    }

    fn snapshot(&self) -> String {
        format!("{:?}\n{}", self.last, self.metrics.snapshot())
    }
}
