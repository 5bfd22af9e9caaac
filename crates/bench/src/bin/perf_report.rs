//! Perf-trajectory report for the serving path: request-level latency
//! attribution and per-tenant SLO tables, swept across fault profiles
//! — each profile in *both* submission engines. Four tenants serve a
//! seeded round-robin op mix (one transfer, six compute-plane
//! fillers, a kernel, a sync per round) through the full HIX stack
//! with span recording and request attribution on, once via the
//! synchronous wrappers (one channel wake per op) and once via
//! explicit batch-8 submission rings; the report
//! prints the per-kind attribution, SLO, and doorbell-amortization
//! tables behind EXPERIMENTS.md, emits `BENCH_perf.json` (the
//! serving-path perf-trajectory file: one row per `EventKind` and a
//! `batched` column per profile) plus a folded-stacks flamegraph
//! export, and self-checks every cell:
//!
//! * **reconciliation (±0)** — per kind, attributed + unattributed
//!   charged time and spans equal the collector's totals exactly;
//! * **charges tile requests** — every request's charged total equals
//!   its end-to-end window, in both engines;
//! * **requests tile the run** — Σ e2e + unattributed equals the
//!   makespan, in both engines (a request left open fails it);
//! * **determinism** — same-seed reruns are byte-identical in requests,
//!   snapshot, and emitted JSON;
//! * **engine equivalence** — batched and sync runs of a profile
//!   return byte-identical GPU results;
//! * **amortization** — on every profile batching cuts channel wakes,
//!   serves at least one frame, and takes at least one wake per frame;
//!   on the clean profile it cuts wakes per queued op by ≥ 4× at batch
//!   size 8, with a p99 end-to-end command latency no worse than sync.
//!
//! Usage: `perf_report [OUT.json [FOLDED.txt]]` (default
//! `BENCH_perf.json`, no folded file). The tier-1 test
//! `crates/bench/tests/ledgers.rs` reruns this bin and fails on any
//! byte difference from the committed ledger.
//!
//! The folded-stacks file loads directly into `flamegraph.pl` or
//! speedscope; the Perfetto timeline of the same spans comes from
//! `trace_report`.

use std::fmt::Write as _;

use hix_bench::{diff_lines, fail, soak, write_ledger};
use hix_core::{CmdStatus, GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_obs::{
    fmt_ns, folded_stacks, percentile_sorted_pm, EventKind, Ledger, RequestRecord, SloRow,
};
use hix_sim::fault::{FaultConfig, FaultPlan};
use hix_sim::Payload;
use hix_testkit::rng::splitmix64;
use hix_workloads::all_kernels;

/// One seed drives the whole sweep.
const SEED: u64 = 11;
/// Concurrently-served tenants (sessions on one enclave).
const TENANTS: u64 = 4;
/// Matrix dimension of the kernel work (24×24 i32, multi-message).
const N: u64 = 24;
/// Compute-plane fillers per round; with the transfer, launch, and
/// sync the queueable stretch is 9 ops — two batch-8 frames, versus 9
/// doorbell rings for one-wake-per-op sync.
const FILLERS: usize = 6;
/// Queueable ops per tenant round (htod + fillers + launch + sync).
const MIX_OPS: u64 = FILLERS as u64 + 3;
/// Rounds every tenant serves per cell.
const ROUNDS: u32 = 8;

/// One (profile, engine) cell's worth of serving-path evidence.
struct Cell {
    profile: &'static str,
    requests: Vec<RequestRecord>,
    /// Everything the run charged, per kind: the collector's totals.
    kinds: Ledger,
    /// Σ e2e over the requests.
    e2e_ns: u64,
    unattributed_ns: u64,
    slo: Vec<SloRow>,
    makespan_ns: u64,
    /// The single longest request of the run (its charged total, which
    /// is its end-to-end window) and what it was.
    longest_ns: u64,
    longest_op: String,
    folded: String,
    /// What a same-seed rerun must reproduce: every request, the
    /// snapshot and the folded stacks.
    transcript: String,
    /// Every round's DtoH result bytes — the engine-equivalence oracle.
    results: Vec<Vec<u8>>,
    /// Channel wakes accumulated inside the queueable stretches only
    /// (barrier ops ring the doorbell identically in both engines).
    mix_wakes: u64,
    /// Queueable ops across the run (`MIX_OPS` × tenants × rounds).
    mix_ops: u64,
    /// Submission frames served inside the queueable stretches (the
    /// synchronous wrappers ride single-command frames).
    frames: u64,
    /// p99 end-to-end request latency across the whole cell.
    p99_ns: u64,
}

fn run_cell(profile: &'static str, cfg: Option<FaultConfig>, batched: bool) -> Cell {
    let mut m = standard_rig(RigOptions {
        kernels: all_kernels(),
        ..RigOptions::default()
    });
    if let Some(cfg) = cfg {
        m.set_fault_plan(FaultPlan::new(SEED ^ 0x9E4F, cfg));
    }
    m.trace().obs().set_recording(true);
    m.trace().obs().set_attributing(true);

    let mut enclave =
        GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("enclave launch");
    let mut sessions: Vec<HixSession> = (0..TENANTS)
        .map(|_| HixSession::connect(&mut m, &mut enclave).expect("connect"))
        .collect();
    for s in &mut sessions {
        s.load_module(&mut m, &mut enclave, "matrix.mul")
            .expect("module");
    }
    let bytes = N * N * 4;
    let bufs: Vec<[hix_gpu::vram::DevAddr; 3]> = sessions
        .iter_mut()
        .map(|s| {
            [
                s.malloc(&mut m, &mut enclave, bytes).expect("malloc"),
                s.malloc(&mut m, &mut enclave, bytes).expect("malloc"),
                s.malloc(&mut m, &mut enclave, bytes).expect("malloc"),
            ]
        })
        .collect();

    // Seeded round-robin op mix: every tenant serves `ROUNDS` requests
    // of htod → 6 compute fillers (memset | dtod) → launch → sync →
    // dtoh, with fillers drawn from a splitmix stream so profiles and
    // engines share the exact op tape (the fault plan has its own
    // stream). The queueable stretch is metered for channel wakes; the
    // dtoh barrier sits outside it (it costs one wake in both engines).
    let mut rng = SEED ^ 0x5EC5_E55A;
    let mut results = Vec::new();
    let mut mix_wakes = 0u64;
    let mut mix_frames = 0u64;
    let mut mix_ops = 0u64;
    for round in 0..ROUNDS {
        for (t, s) in sessions.iter_mut().enumerate() {
            let [a, b, c] = bufs[t];
            let input: Vec<u8> = (0..bytes)
                .map(|i| (splitmix64(&mut rng) ^ i ^ round as u64) as u8)
                .collect();
            let fillers: Vec<bool> = (0..FILLERS)
                .map(|_| splitmix64(&mut rng).is_multiple_of(2))
                .collect();
            let wakes0 = m.trace().metrics().counter("cmdq.wakes");
            let frames0 = m.trace().metrics().counter("cmdq.frames");
            if batched {
                let mut ids = Vec::new();
                ids.push(
                    s.submit_htod(&mut m, &mut enclave, a, &Payload::from_bytes(input))
                        .expect("htod"),
                );
                for &memset in &fillers {
                    ids.push(if memset {
                        s.submit_memset(&mut m, &mut enclave, b, bytes, 0x2A)
                            .expect("memset")
                    } else {
                        s.submit_dtod(&mut m, &mut enclave, a, b, bytes)
                            .expect("dtod")
                    });
                }
                ids.push(
                    s.submit_launch(
                        &mut m,
                        &mut enclave,
                        "matrix.mul",
                        &[a.value(), b.value(), c.value(), N],
                    )
                    .expect("launch"),
                );
                ids.push(s.submit_sync(&mut m, &mut enclave).expect("sync"));
                s.flush(&mut m, &mut enclave).expect("flush");
                let comps = s.take_completions();
                if comps.iter().map(|(id, _)| *id).collect::<Vec<_>>() != ids {
                    fail(&format!(
                        "{profile}: tenant {t} round {round}: non-FIFO completions"
                    ));
                }
                if comps.iter().any(|(_, st)| *st != CmdStatus::Ok) {
                    fail(&format!(
                        "{profile}: tenant {t} round {round}: command failed"
                    ));
                }
            } else {
                s.memcpy_htod(&mut m, &mut enclave, a, &Payload::from_bytes(input))
                    .expect("htod");
                for &memset in &fillers {
                    if memset {
                        s.memset(&mut m, &mut enclave, b, bytes, 0x2A)
                            .expect("memset");
                    } else {
                        s.memcpy_dtod(&mut m, &mut enclave, a, b, bytes)
                            .expect("dtod");
                    }
                }
                s.launch(
                    &mut m,
                    &mut enclave,
                    "matrix.mul",
                    &[a.value(), b.value(), c.value(), N],
                )
                .expect("launch");
                s.sync(&mut m, &mut enclave).expect("sync");
            }
            mix_wakes += m.trace().metrics().counter("cmdq.wakes") - wakes0;
            mix_frames += m.trace().metrics().counter("cmdq.frames") - frames0;
            mix_ops += MIX_OPS;
            let out = s.memcpy_dtoh(&mut m, &mut enclave, c, bytes).expect("dtoh");
            if out.bytes().len() as u64 != bytes {
                fail(&format!("{profile}: tenant {t} round {round}: short dtoh"));
            }
            results.push(out.bytes().to_vec());
        }
    }
    for s in sessions.drain(..) {
        s.close(&mut m, &mut enclave).expect("close");
    }

    let obs = m.trace().obs();
    // Reconciliation invariant, checked on every cell: attributed +
    // unattributed charge equals the per-category accumulator ±0.
    if let Err(e) = obs.check_attribution() {
        fail(&format!("{profile}: {e}"));
    }
    let requests = obs.requests();
    if requests.is_empty() {
        fail(&format!("{profile}: no requests recorded"));
    }

    // Charges tile every request window; track the run's longest.
    let mut longest_ns = 0u64;
    let mut longest_op = String::new();
    for rec in &requests {
        if rec.charged_ns() != rec.e2e_ns() {
            fail(&format!(
                "{profile} (batched={batched}): request {} ({}): charged {} ns for e2e {} ns",
                rec.id,
                rec.name,
                rec.charged_ns(),
                rec.e2e_ns()
            ));
        }
        if rec.e2e_ns() > longest_ns {
            longest_ns = rec.e2e_ns();
            longest_op = format!("{} (t{})", rec.name, rec.tenant);
        }
    }
    let mut e2e: Vec<u64> = requests.iter().map(RequestRecord::e2e_ns).collect();
    e2e.sort_unstable();
    // Requests and the time between them tile the run: a request left
    // open holds charges that neither side counts.
    let e2e_ns: u64 = e2e.iter().sum();
    let unattributed_ns = obs.unattributed_totals().total();
    let makespan_ns = m.clock().now().as_nanos();
    if e2e_ns + unattributed_ns != makespan_ns {
        fail(&format!(
            "{profile} (batched={batched}): e2e {e2e_ns} ns + unattributed \
             {unattributed_ns} ns != makespan {makespan_ns} ns"
        ));
    }

    let folded = folded_stacks(&obs.spans(), "hix");
    let mut transcript: String = requests.iter().map(|r| format!("{r:?}\n")).collect();
    transcript.push_str(&obs.snapshot());
    transcript.push_str(&folded);
    Cell {
        profile,
        slo: hix_obs::slo_table(&requests),
        kinds: obs.totals(),
        e2e_ns,
        unattributed_ns,
        makespan_ns,
        longest_ns,
        longest_op,
        folded,
        transcript,
        results,
        mix_wakes,
        mix_ops,
        frames: mix_frames,
        p99_ns: percentile_sorted_pm(&e2e, 990).expect("requests recorded"),
        requests,
    }
}

// ---- JSON emit (stable key order) ----

fn emit_json(cells: &[(Cell, Cell)]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"perf_report\",");
    let _ = writeln!(s, "  \"seed\": {SEED},");
    let _ = writeln!(s, "  \"tenants\": {TENANTS},");
    let _ = writeln!(s, "  \"rounds\": {ROUNDS},");
    s.push_str("  \"profiles\": [\n");
    for (i, (c, batched)) in cells.iter().enumerate() {
        let _ = writeln!(s, "    {{\"profile\": \"{}\",", c.profile);
        let _ = writeln!(s, "     \"requests\": {},", c.requests.len());
        let _ = writeln!(s, "     \"makespan_ns\": {},", c.makespan_ns);
        let _ = writeln!(s, "     \"e2e_ns\": {},", c.e2e_ns);
        let _ = writeln!(s, "     \"p99_ns\": {},", c.p99_ns);
        let _ = writeln!(s, "     \"mix_ops\": {},", c.mix_ops);
        let _ = writeln!(s, "     \"wakes\": {},", c.mix_wakes);
        let _ = writeln!(
            s,
            "     \"batched\": {{\"wakes\": {}, \"frames\": {}, \"p99_ns\": {}, \"requests\": {}}},",
            batched.mix_wakes,
            batched.frames,
            batched.p99_ns,
            batched.requests.len(),
        );
        let _ = writeln!(s, "     \"unattributed_ns\": {},", c.unattributed_ns);
        s.push_str("     \"kinds\": [\n");
        for (j, kind) in EventKind::ALL.into_iter().enumerate() {
            let (ns, count) = c.kinds.get(kind);
            let _ = write!(
                s,
                "       {{\"kind\": \"{kind}\", \"ns\": {ns}, \"spans\": {count}}}"
            );
            s.push_str(if j + 1 < EventKind::ALL.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("     ],\n");
        s.push_str("     \"slo\": [\n");
        for (j, r) in c.slo.iter().enumerate() {
            let _ = write!(
                s,
                "       {{\"tenant\": \"{}\", \"requests\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
                r.tenant, r.requests, r.p50_ns, r.p95_ns, r.p99_ns, r.p999_ns, r.max_ns,
            );
            s.push_str(if j + 1 < c.slo.len() { ",\n" } else { "\n" });
        }
        s.push_str("     ]}");
        s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

// ---- tables ----

fn print_cells(cells: &[(Cell, Cell)]) {
    println!("# Serving-path attribution ({TENANTS} tenants, seed {SEED})\n");
    println!("| profile | requests | e2e | longest request | unattributed |");
    println!("|---------|---------:|----:|-----------------|-------------:|");
    for (c, _) in cells {
        println!(
            "| {} | {} | {} | {} in {} | {} |",
            c.profile,
            c.requests.len(),
            fmt_ns(c.e2e_ns),
            fmt_ns(c.longest_ns),
            c.longest_op,
            fmt_ns(c.unattributed_ns),
        );
    }
    println!("\n## Doorbell amortization — sync vs batch-8 submission\n");
    println!(
        "| profile | ops | sync wakes | batched wakes | wakes/op sync | wakes/op batched | reduction | p99 sync | p99 batched |"
    );
    println!(
        "|---------|----:|-----------:|--------------:|--------------:|-----------------:|----------:|---------:|------------:|"
    );
    for (c, b) in cells {
        println!(
            "| {} | {} | {} | {} | {:.2} | {:.2} | {:.1}x | {} | {} |",
            c.profile,
            c.mix_ops,
            c.mix_wakes,
            b.mix_wakes,
            c.mix_wakes as f64 / c.mix_ops as f64,
            b.mix_wakes as f64 / b.mix_ops as f64,
            c.mix_wakes as f64 / b.mix_wakes as f64,
            fmt_ns(c.p99_ns),
            fmt_ns(b.p99_ns),
        );
    }
    for (c, _) in cells {
        println!("\n## {} — per-kind attribution\n", c.profile);
        println!("| kind | charged | spans |");
        println!("|------|--------:|------:|");
        for (kind, ns, count) in c.kinds.rows() {
            println!("| {kind} | {} | {count} |", fmt_ns(ns));
        }
        println!("\n## {} — per-tenant SLO\n", c.profile);
        println!("| tenant | requests | p50 | p95 | p99 | p99.9 | max |");
        println!("|--------|---------:|----:|----:|----:|------:|----:|");
        for r in &c.slo {
            println!(
                "| {} | {} | {} | {} | {} | {} | {} |",
                r.tenant,
                r.requests,
                fmt_ns(r.p50_ns),
                fmt_ns(r.p95_ns),
                fmt_ns(r.p99_ns),
                fmt_ns(r.p999_ns),
                fmt_ns(r.max_ns),
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args.first().map_or("BENCH_perf.json", String::as_str);
    let folded_path = args.get(1);

    let mut cells = Vec::new();
    // The clean and channel-fault profiles; device faults are
    // fault_report's subject.
    for (tag, cfg) in soak::profiles().into_iter().take(3) {
        let mut engines = Vec::new();
        for batched in [false, true] {
            let cell = run_cell(tag, cfg, batched);
            // Same-seed determinism: requests, snapshot, and folded
            // stacks must replay byte-identically — in both engines.
            let again = run_cell(tag, cfg, batched);
            if let Err(d) = diff_lines(&cell.transcript, &again.transcript) {
                fail(&format!(
                    "{tag} (batched={batched}): same-seed rerun diverged: {d}"
                ));
            }
            engines.push(cell);
        }
        let batched = engines.pop().unwrap();
        let cell = engines.pop().unwrap();
        // Engine equivalence: the batched rings must not change a
        // single result byte, on any fault profile.
        if cell.results != batched.results {
            fail(&format!("{tag}: batched engine changed GPU results"));
        }
        if batched.mix_wakes >= cell.mix_wakes {
            fail(&format!(
                "{tag}: batching did not reduce wakes ({} vs {})",
                batched.mix_wakes, cell.mix_wakes
            ));
        }
        // The batched frame ledger: frames were served, and every frame
        // took at least one channel wake to deliver.
        if batched.frames == 0 || batched.mix_wakes < batched.frames {
            fail(&format!(
                "{tag}: batched frame ledger inconsistent ({} wakes, {} frames)",
                batched.mix_wakes, batched.frames
            ));
        }
        if tag == "none" {
            // The acceptance gates, checked live before emission: ≥4×
            // fewer doorbell rings per queued op at batch size 8, and
            // a p99 end-to-end latency no worse than sync.
            if batched.mix_wakes * 4 > cell.mix_wakes {
                fail(&format!(
                    "{tag}: amortization below 4x ({} vs {} wakes over {} ops)",
                    batched.mix_wakes, cell.mix_wakes, cell.mix_ops
                ));
            }
            if batched.p99_ns > cell.p99_ns {
                fail(&format!(
                    "{tag}: batched p99 {} ns regressed past sync {} ns",
                    batched.p99_ns, cell.p99_ns
                ));
            }
        }
        cells.push((cell, batched));
    }

    print_cells(&cells);

    write_ledger(out_path, &emit_json(&cells));
    if let Some(folded_path) = folded_path {
        // The heavy profile has the richest stacks (recovery frames).
        write_ledger(folded_path, &cells.last().unwrap().0.folded);
        println!("\nperf_report: wrote folded stacks to {folded_path}");
    }
    println!("\nperf_report: all self-checks passed; wrote {out_path}");
}
