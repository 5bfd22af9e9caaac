//! Scale report: the weighted-fair scheduler's trajectory from 4 to
//! 10,000 tenants under seeded fault profiles. Sweeps users ∈ {4, 100,
//! 1k, 10k} × profiles {none, light, heavy} through `run_scaled` with a
//! bounded resident set (sealed-state parking), prints the markdown
//! table behind the EXPERIMENTS.md scale section, and emits
//! `BENCH_scale.json` — the repo's perf-trajectory file. Every cell is
//! self-checked: same-seed reruns must be bit-identical (outcome and
//! metrics snapshot); at least half the tenants are healthy, and every
//! healthy tenant finishes unevicted within the fairness bound with
//! exactly the GPU service it gets alone, so neither faulty peers nor
//! parking take any of its share; degraded profiles must never starve
//! a healthy tenant; every park is undone; and the makespan must stay
//! sublinear in the tenant count.
//!
//! Usage: `scale_report [OUT.json]` (default `BENCH_scale.json`).
//! The tier-1 test `crates/bench/tests/ledgers.rs` reruns this bin
//! and fails on any byte difference from the committed ledger.

use std::fmt::Write as _;

use hix_bench::{bp_like, diff_lines, fail, write_ledger};
use hix_core::multiuser::{
    run_scaled, seeded_session_faults, FaultProfile, Mode, ScaleOutcome, SchedulerConfig,
    SessionFaults, SessionSpec,
};
use hix_obs::{fmt_ns, percentile_sorted_pm, Metrics};
use hix_sim::CostModel;

/// One seed drives the whole sweep (per-cell populations are derived
/// from it and the cell coordinates, so cells stay independent).
const SEED: u64 = 7;
/// Admission bound for the sweep: 1k and 10k columns must park.
const MAX_RESIDENT: usize = 256;
/// Healthy tenants must all finish within this completion-time ratio.
const FAIR_BOUND: f64 = 1.1;
/// Degraded-profile slack: a healthy tenant under heavy faults may pay
/// at most this factor over the fault-free makespan of the same column.
const DEGRADED_SLACK: f64 = 1.5;

struct Cell {
    users: usize,
    profile: FaultProfile,
    outcome: ScaleOutcome,
    faults: Vec<SessionFaults>,
    /// Fairness over strictly healthy tenants (no fault burden at all):
    /// max/min completion-time ratio.
    fairness: f64,
    healthy_wait_p99: u64,
    healthy_wait_p999: u64,
}

fn healthy_indices(faults: &[SessionFaults]) -> Vec<usize> {
    faults
        .iter()
        .enumerate()
        .filter(|(_, f)| **f == SessionFaults::default())
        .map(|(i, _)| i)
        .collect()
}

fn run_cell(model: &CostModel, users: usize, profile: FaultProfile) -> Cell {
    let faults = seeded_session_faults(SEED ^ (users as u64).rotate_left(17), users, profile);
    let t = bp_like();
    let sessions: Vec<SessionSpec> = faults
        .iter()
        .map(|f| SessionSpec {
            task: t.clone(),
            weight: 1,
            faults: *f,
        })
        .collect();
    let mut cfg = SchedulerConfig::new(model);
    cfg.max_resident = MAX_RESIDENT;

    // Same-seed determinism: two fresh runs must agree bit-for-bit in
    // outcome and in every recorded metric.
    let run = || {
        let metrics = Metrics::new();
        let outcome = run_scaled(model, &sessions, Mode::Hix, &cfg, Some(&metrics));
        let transcript = format!("{outcome:#?}\n{}", metrics.snapshot());
        (outcome, transcript)
    };
    let (outcome, transcript) = run();
    if let Err(d) = diff_lines(&transcript, &run().1) {
        fail(&format!(
            "{users}/{}: same-seed rerun diverged: {d}",
            profile.name()
        ));
    }

    let healthy = healthy_indices(&faults);
    let fairness = {
        let comps: Vec<u64> = healthy
            .iter()
            .map(|&i| outcome.completions[i].as_nanos())
            .collect();
        match (comps.iter().max(), comps.iter().min()) {
            (Some(&max), Some(&min)) if min > 0 => max as f64 / min as f64,
            _ => 1.0,
        }
    };
    let mut waits: Vec<u64> = healthy
        .iter()
        .map(|&i| outcome.gpu_wait[i].as_nanos())
        .collect();
    waits.sort_unstable();
    let healthy_wait_p99 = percentile_sorted_pm(&waits, 990).unwrap_or(0);
    // The p99.9 tail only separates from p99 past a thousand healthy
    // tenants — exactly the 10k column this sweep exists for.
    let healthy_wait_p999 = percentile_sorted_pm(&waits, 999).unwrap_or(0);
    Cell {
        users,
        profile,
        outcome,
        faults,
        fairness,
        healthy_wait_p99,
        healthy_wait_p999,
    }
}

fn check_cells(model: &CostModel, cells: &[Cell]) {
    let alone = run_scaled(
        model,
        &[SessionSpec::new(bp_like())],
        Mode::Hix,
        &SchedulerConfig::new(model),
        None,
    );
    for c in cells {
        let tag = format!("{}/{}", c.users, c.profile.name());
        // Fairness: every healthy tenant finishes within one round.
        if c.fairness > FAIR_BOUND {
            fail(&format!(
                "{tag}: fairness ratio {:.3} > {FAIR_BOUND}",
                c.fairness
            ));
        }
        // Healthy tenants: at least half the population, none evicted,
        // each finished, and each delivered exactly the GPU service it
        // gets alone. Faulty peers may delay it and parking may seal
        // it, but neither may take any of its share.
        let healthy = healthy_indices(&c.faults);
        if healthy.len() * 2 < c.users {
            fail(&format!(
                "{tag}: only {}/{} tenants healthy",
                healthy.len(),
                c.users
            ));
        }
        for &i in &healthy {
            if c.outcome.evicted[i] || c.outcome.completions[i].as_nanos() == 0 {
                fail(&format!(
                    "{tag}: healthy tenant {i} evicted or never finished"
                ));
            }
            if c.outcome.service[i] != alone.service[0] {
                fail(&format!(
                    "{tag}: healthy tenant {i} got {} of GPU service, {} alone",
                    c.outcome.service[i], alone.service[0]
                ));
            }
        }
        // Sublinear trajectory: the per-user makespan must shrink as the
        // population grows (host work overlaps; only the serialized GPU
        // time scales), even with the parking churn of the bounded
        // resident set. The smallest column anchors each profile.
        let base = cells
            .iter()
            .filter(|b| b.profile == c.profile)
            .min_by_key(|b| b.users)
            .expect("cells nonempty");
        if c.users > base.users
            && c.outcome.makespan.as_nanos() * base.users as u64
                >= base.outcome.makespan.as_nanos() * c.users as u64
        {
            fail(&format!(
                "{tag}: per-user makespan {} not below the {}-user anchor {}",
                fmt_ns(c.outcome.makespan.as_nanos() / c.users as u64),
                base.users,
                fmt_ns(base.outcome.makespan.as_nanos() / base.users as u64),
            ));
        }
        // Absolute bound at scale: n tenants through one GPU must beat n
        // serial single-tenant runs outright.
        if c.users > MAX_RESIDENT
            && c.outcome.makespan.as_nanos() >= alone.makespan.as_nanos() * c.users as u64
        {
            fail(&format!(
                "{tag}: makespan {} not sublinear vs {} x single {}",
                c.outcome.makespan, c.users, alone.makespan
            ));
        }
        // Residency never exceeds the admission bound; oversubscribed
        // columns must actually exercise parking.
        if c.outcome.peak_resident > MAX_RESIDENT {
            fail(&format!("{tag}: peak resident {}", c.outcome.peak_resident));
        }
        if c.users > MAX_RESIDENT && c.outcome.parks == 0 {
            fail(&format!("{tag}: oversubscribed column never parked"));
        }
        // Parking is transparent: every parked session is unsealed again.
        if c.outcome.parks != c.outcome.unparks {
            fail(&format!(
                "{tag}: {} parks but {} unparks",
                c.outcome.parks, c.outcome.unparks
            ));
        }
        // Evictions appear exactly where the population has repeat
        // offenders.
        let expected_evicted = c
            .faults
            .iter()
            .filter(|f| f.tdr_resets >= hix_core::multiuser::EVICT_AFTER)
            .count();
        let got_evicted = c.outcome.evicted.iter().filter(|e| **e).count();
        if expected_evicted != got_evicted {
            fail(&format!(
                "{tag}: {got_evicted} evicted, population has {expected_evicted} repeat offenders"
            ));
        }
    }
    // Degraded profiles never starve a healthy tenant: the slowest
    // healthy completion under faults stays within slack of the
    // fault-free makespan at the same scale.
    for c in cells {
        if c.profile == FaultProfile::None {
            continue;
        }
        let baseline = cells
            .iter()
            .find(|b| b.users == c.users && b.profile == FaultProfile::None)
            .expect("none column exists");
        let worst_healthy = healthy_indices(&c.faults)
            .iter()
            .map(|&i| c.outcome.completions[i].as_nanos())
            .max()
            .unwrap_or(0) as f64;
        let bound = baseline.outcome.makespan.as_nanos() as f64 * DEGRADED_SLACK;
        if worst_healthy > bound {
            fail(&format!(
                "{}/{}: healthy tenant starved ({} > {:.0})",
                c.users,
                c.profile.name(),
                worst_healthy,
                bound
            ));
        }
    }
}

// ---- JSON emit (stable key order) ----

fn emit_json(model: &CostModel, cells: &[Cell]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"scale_report\",");
    let _ = writeln!(s, "  \"seed\": {SEED},");
    let _ = writeln!(s, "  \"quantum_ns\": {},", model.sched_quantum.as_nanos());
    let _ = writeln!(s, "  \"max_resident\": {MAX_RESIDENT},");
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let o = &c.outcome;
        let _ = write!(
            s,
            "    {{\"users\": {}, \"profile\": \"{}\", \"makespan_ns\": {}, \"per_user_ns\": {}, \"fairness\": {:.4}, \"ctx_switches\": {}, \"parks\": {}, \"unparks\": {}, \"peak_resident\": {}, \"evicted\": {}, \"healthy_wait_p99_ns\": {}, \"healthy_wait_p999_ns\": {}}}",
            c.users,
            c.profile.name(),
            o.makespan.as_nanos(),
            o.makespan.as_nanos() / c.users as u64,
            c.fairness,
            o.ctx_switches,
            o.parks,
            o.unparks,
            o.peak_resident,
            o.evicted.iter().filter(|e| **e).count(),
            c.healthy_wait_p99,
            c.healthy_wait_p999,
        );
        s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scale.json".into());

    let model = CostModel::paper();
    let profiles = [FaultProfile::None, FaultProfile::Light, FaultProfile::Heavy];

    let mut cells = Vec::new();
    for users in [4, 100, 1_000, 10_000] {
        for profile in profiles {
            cells.push(run_cell(&model, users, profile));
        }
    }
    check_cells(&model, &cells);

    println!("# Scale sweep (bp-like tenants, max_resident = {MAX_RESIDENT}, seed {SEED})\n");
    println!("| users | profile | makespan | per-user | fairness | ctx switches | parks | evicted | healthy wait p99 | p99.9 |");
    println!("|------:|---------|---------:|---------:|---------:|-------------:|------:|--------:|-----------------:|------:|");
    for c in &cells {
        let o = &c.outcome;
        println!(
            "| {} | {} | {} | {} | {:.3} | {} | {} | {} | {} | {} |",
            c.users,
            c.profile.name(),
            fmt_ns(o.makespan.as_nanos()),
            fmt_ns(o.makespan.as_nanos() / c.users as u64),
            c.fairness,
            o.ctx_switches,
            o.parks,
            o.evicted.iter().filter(|e| **e).count(),
            fmt_ns(c.healthy_wait_p99),
            fmt_ns(c.healthy_wait_p999),
        );
    }

    write_ledger(&out_path, &emit_json(&model, &cells));
    println!("\nscale_report: all self-checks passed; wrote {out_path}");
}
