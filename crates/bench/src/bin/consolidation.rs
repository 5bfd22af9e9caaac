//! Cloud-consolidation scenario (extension of Figures 8/9): all nine
//! Rodinia tenants share one GPU *simultaneously*, each with a different
//! workload — the mixed-tenancy case a cloud deployment actually sees.

use hix_core::multiuser::{run_scaled, Mode, SchedulerConfig, SessionSpec};
use hix_sim::CostModel;
use hix_workloads::rodinia_suite;

fn main() {
    let model = CostModel::paper();
    let config = SchedulerConfig::new(&model);
    let specs: Vec<SessionSpec> = rodinia_suite()
        .iter()
        .map(|w| SessionSpec::new(w.profile(&model).task_spec()))
        .collect();
    println!("== consolidation: all 9 Rodinia tenants concurrently ==\n");
    let g = run_scaled(&model, &specs, Mode::Gdev, &config, None);
    let h = run_scaled(&model, &specs, Mode::Hix, &config, None);
    println!(
        "{:<6} {:>14} {:>14} {:>10}",
        "tenant", "Gdev finish", "HIX finish", "ratio"
    );
    for (i, spec) in specs.iter().enumerate() {
        println!(
            "{:<6} {:>14} {:>14} {:>9.2}x",
            spec.task.name,
            g.completions[i].to_string(),
            h.completions[i].to_string(),
            h.completions[i].as_nanos() as f64 / g.completions[i].as_nanos() as f64
        );
    }
    println!(
        "\nmakespan: Gdev {} | HIX {} ({:.2}x, {} ctx switches vs {})",
        g.makespan,
        h.makespan,
        h.makespan.as_nanos() as f64 / g.makespan.as_nanos() as f64,
        h.ctx_switches,
        g.ctx_switches
    );
    // Sequential-HIX reference: the paper notes parallel HIX still beats
    // serializing users.
    let serial: hix_sim::Nanos = specs
        .iter()
        .map(|s| run_scaled(&model, std::slice::from_ref(s), Mode::Hix, &config, None).makespan)
        .sum();
    println!(
        "serialized HIX would take {serial} — parallel sharing wins {:.2}x",
        serial.as_nanos() as f64 / h.makespan.as_nanos() as f64
    );
}
