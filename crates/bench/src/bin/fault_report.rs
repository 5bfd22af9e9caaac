//! Fault-matrix report: the availability ledger behind the
//! EXPERIMENTS.md fault and watchdog sections. It sweeps the
//! [`hix_bench::soak`] scenario over 3 seeds × the five machine fault
//! profiles × {sync, batched}, runs every cell twice, and fails unless
//! each cell meets the soak contract ([`soak::check`],
//! [`soak::check_rerun`]) and the sweep meets [`soak::check_sweep`].
//! It then prices a misbehaving tenant for its three peers in the
//! multi-user model: each row must stay inside the closed-form
//! quarantine bound, and a repeat offender's eviction must cap what its
//! later wedges cost the peers.
//!
//! Usage: `fault_report [OUT.json]` (default `BENCH_fault.json`): one
//! line per cell and one per peer row. The tier-1 test
//! `crates/bench/tests/ledgers.rs` reruns this bin and fails on any
//! byte difference from the committed ledger.

use std::fmt::Write as _;

use hix_bench::soak::{self, SoakRun};
use hix_bench::{fail, write_ledger};
use hix_core::multiuser::{
    run_scaled, Mode, SchedulerConfig, SessionFaults, SessionSpec, TaskSpec, EVICT_AFTER,
};
use hix_obs::{fmt_ns, percentile_sorted_pm};
use hix_sim::{CostModel, Nanos};

const SEEDS: [u64; 3] = [0xFA01, 0xFA02, 0xFA03];

/// One offender profile among 4 HIX users in the multi-user model.
struct PeerRow {
    offender: &'static str,
    kills: u32,
    resets: u32,
    offender_ns: u64,
    worst_peer_delta_ns: u64,
    bound_ns: u64,
    evicted: bool,
}

/// A cell's ledger columns after seed, profile and engine.
fn columns(c: &SoakRun) -> [(&'static str, Option<u64>); 14] {
    let n = |name| Some(c.counter(name));
    [
        ("injected", n("fault.injected")),
        ("detected", n("fault.detected")),
        ("restarts", n("fault.injected.restart")),
        ("retries", n("recovery.retries")),
        ("retransmits", n("recovery.retransmits")),
        ("rekeys", n("recovery.rekeys")),
        ("redma", n("recovery.redma")),
        ("hangs", n("watchdog.hangs_detected")),
        ("kills", n("watchdog.kills")),
        ("resets", n("watchdog.resets")),
        ("recovery_p50_ns", percentile_sorted_pm(&c.recovery_ns, 500)),
        ("recovery_max_ns", c.recovery_ns.last().copied()),
        ("wakes", n("cmdq.wakes")),
        ("makespan_ns", Some(c.makespan.as_nanos())),
    ]
}

fn clean_of<'a>(cells: &'a [SoakRun], c: &SoakRun) -> &'a SoakRun {
    cells
        .iter()
        .find(|k| k.profile == "none" && k.seed == c.seed && k.batched == c.batched)
        .expect("every seed and engine has a clean cell")
}

fn sweep() -> Vec<SoakRun> {
    let mut cells: Vec<SoakRun> = Vec::new();
    for seed in SEEDS {
        for batched in [false, true] {
            for (profile, _) in soak::profiles() {
                let cell = soak::run(seed, profile, batched);
                let clean = if profile == "none" {
                    &cell
                } else {
                    clean_of(&cells, &cell)
                };
                if let Err(e) = soak::check(&cell, clean)
                    .and_then(|()| soak::check_rerun(&cell, &soak::run(seed, profile, batched)))
                {
                    fail(&e);
                }
                cells.push(cell);
            }
        }
    }
    if let Err(e) = soak::check_sweep(&cells) {
        fail(&e);
    }
    cells
}

fn peer_rows() -> Vec<PeerRow> {
    let model = CostModel::paper();
    let config = SchedulerConfig::new(&model);
    let task = TaskSpec {
        name: "tdr-peer".into(),
        htod: 8 << 20,
        dtoh: 4 << 20,
        kernel_time: Nanos::from_millis(12),
        launches: 2,
    };
    let run = |kills: u32, resets: u32| {
        let mut sessions = vec![SessionSpec::new(task.clone()); 4];
        sessions[0].faults = SessionFaults {
            tdr_kills: kills,
            tdr_resets: resets,
            ..SessionFaults::default()
        };
        run_scaled(&model, &sessions, Mode::Hix, &config, None)
    };
    let plain = run(0, 0);
    let per_offense = model.tdr_patience()
        + model.tdr_kill_grace() * 3
        + model.tdr_reset_penalty()
        + model.ctx_switch * 2;
    let bound = per_offense * u64::from(EVICT_AFTER);
    let mut rows = Vec::new();
    let mut capped_peers = Vec::new();
    for (offender, kills, resets) in [
        ("clean", 0, 0),
        ("2 kills", 2, 0),
        ("1 reset", 0, 1),
        ("evicted at cap", 0, EVICT_AFTER),
        ("wedged forever", 0, u32::MAX),
    ] {
        let out = run(kills, resets);
        let worst = (1..4)
            .map(|u| out.completions[u].saturating_sub(plain.completions[u]))
            .max()
            .unwrap();
        if worst > bound {
            fail(&format!(
                "{offender}: peer stalled {worst:?}, past the bound {bound:?}"
            ));
        }
        let expect_evict = resets >= EVICT_AFTER;
        if out.evicted[0] != expect_evict || out.evicted[1..].iter().any(|e| *e) {
            fail(&format!(
                "{offender}: eviction flags wrong: {:?}",
                out.evicted
            ));
        }
        // Eviction caps the damage: past the cap, more wedges cost the
        // peers exactly nothing more.
        if expect_evict {
            capped_peers.push(out.completions[1..].to_vec());
        }
        rows.push(PeerRow {
            offender,
            kills,
            resets,
            offender_ns: out.completions[0].as_nanos(),
            worst_peer_delta_ns: worst.as_nanos(),
            bound_ns: bound.as_nanos(),
            evicted: out.evicted[0],
        });
    }
    if capped_peers.windows(2).any(|w| w[0] != w[1]) {
        fail("eviction failed to cap peer cost: more resets kept costing peers");
    }
    rows
}

fn emit_json(cells: &[SoakRun], peers: &[PeerRow]) -> String {
    let mut s = String::from("{\n  \"bench\": \"fault_report\",\n");
    let _ = writeln!(s, "  \"rounds\": {},", soak::ROUNDS);
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"seed\": {}, \"profile\": \"{}\", \"engine\": \"{}\"",
            c.seed,
            c.profile,
            c.engine()
        );
        for (key, v) in columns(c) {
            let _ = write!(
                s,
                ", \"{key}\": {}",
                v.map_or("null".into(), |v| v.to_string())
            );
        }
        s.push_str(if i + 1 < cells.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ],\n  \"peers\": [\n");
    for (i, p) in peers.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"offender\": \"{}\", \"kills\": {}, \"resets\": {}, \"offender_ns\": {}, \"worst_peer_delta_ns\": {}, \"bound_ns\": {}, \"evicted\": {}}}",
            p.offender, p.kills, p.resets, p.offender_ns, p.worst_peer_delta_ns, p.bound_ns, p.evicted,
        );
        s.push_str(if i + 1 < peers.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn print_tables(cells: &[SoakRun], peers: &[PeerRow]) {
    println!("## Fault matrix ({} rounds per run)\n", soak::ROUNDS);
    let keys = columns(&cells[0]).map(|(key, _)| key);
    println!(
        "| seed | profile | engine | {} | overhead |",
        keys.join(" | ")
    );
    println!(
        "|------|---------|--------|{}---------:|",
        "---:|".repeat(keys.len())
    );
    for c in cells {
        let mut row = format!("| {:#06x} | {} | {} |", c.seed, c.profile, c.engine());
        for (key, v) in columns(c) {
            let v = match v {
                None => "—".into(),
                Some(ns) if key.ends_with("_ns") => fmt_ns(ns),
                Some(n) => n.to_string(),
            };
            let _ = write!(row, " {v} |");
        }
        let clean = clean_of(cells, c).makespan.as_nanos() as f64;
        let overhead = (c.makespan.as_nanos() as f64 - clean) / clean * 100.0;
        if c.profile == "none" {
            println!("{row} — |");
        } else {
            println!("{row} {overhead:+.1}% |");
        }
    }
    println!("\n## Peer interference from a misbehaving tenant (4 users, HIX)\n");
    println!(
        "| offender profile | offender (ms) | worst peer delta | quarantine bound | evicted |"
    );
    println!(
        "|------------------|--------------:|-----------------:|-----------------:|---------|"
    );
    for p in peers {
        println!(
            "| {} | {:.2} | {} | {} | {} |",
            p.offender,
            p.offender_ns as f64 / 1e6,
            fmt_ns(p.worst_peer_delta_ns),
            fmt_ns(p.bound_ns),
            if p.evicted { "yes" } else { "no" },
        );
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fault.json".into());
    let cells = sweep();
    let peers = peer_rows();
    print_tables(&cells, &peers);
    write_ledger(&out_path, &emit_json(&cells, &peers));
    println!("\nfault_report: all self-checks passed; wrote {out_path}");
}
