//! Fabric report: degraded-mode serving on the multi-GPU enclave
//! fabric. Sweeps {1, 2, 4} GPUs × fault profiles {none, shard-storm,
//! switch-correlated} × 3 seeds. Each machine cell launches one
//! `GpuEnclave` shard per GPU over a switched rig, plants per-tenant
//! patterns, storms exactly one shard until its watchdog escalates to a
//! shard-local secure reset, then proves containment: the reset's blast
//! radius outside the storming shard is zero, every tenant's readback
//! is byte-identical to its plant (and identical across all three fault
//! seeds), and at least one session cross-shard-migrates off the
//! resetting shard (fresh keys, replayed journal). The model half runs
//! the same placement over `run_fabric_scaled` and requires peer shards
//! to be bit-identical with and without a reset — zero peer-shard
//! stalls. Emits `BENCH_fabric.json` with a stable schema.
//!
//! Usage: `fabric_report [OUT.json]` (default `BENCH_fabric.json`).
//! `scripts/ci.sh` regenerates the ledger into `target/` and fails on
//! any byte difference from the committed file.

use std::fmt::Write as _;

use hix_bench::{fail, write_ledger};
use hix_core::fabric::{run_fabric_scaled, Fabric, FabricOptions};
use hix_core::multiuser::{SchedulerConfig, SessionSpec, TaskSpec};
use hix_driver::rig::{fabric_rig, RigOptions};
use hix_obs::fmt_ns;
use hix_sim::fault::{fabric_fault_plans, FabricProfile};
use hix_sim::{CostModel, Nanos, Payload};

/// Fault-tape seeds: outcomes must be byte-identical across all three.
const SEEDS: [u64; 3] = [7, 101, 4099];
/// GPUs per PCIe switch in every swept topology.
const FANOUT: usize = 2;
/// Tenants per shard (mixed traffic: each plants and reads back).
const TENANTS_PER_SHARD: usize = 2;
/// Storm ops before we declare the watchdog never escalated.
const STORM_CAP: usize = 400;
/// Payload planted (and later read back) by every tenant.
const PLANT_LEN: u64 = 4096;

/// Per-tenant plant, a function of the tenant index only — NOT the
/// fault seed — so served bytes must match across all swept seeds.
fn plant(tenant: usize) -> Vec<u8> {
    (0..PLANT_LEN as u32)
        .map(|i| (i.wrapping_mul(41).wrapping_add(tenant as u32 * 97) >> 3) as u8)
        .collect()
}

struct Cell {
    gpus: usize,
    profile: FabricProfile,
    seed: u64,
    sessions: usize,
    served_ok: usize,
    resets: u64,
    blast_radius: u64,
    migrations: u64,
    ops_to_reset: u64,
    /// Concatenated readbacks, compared across seeds for byte identity.
    served: Vec<u8>,
    snapshot: String,
}

fn run_scenario(gpus: usize, profile: FabricProfile, seed: u64) -> Cell {
    let (mut m, topo) = fabric_rig(RigOptions::default(), gpus, FANOUT);
    // Storm tenants are victims of injected faults, not abusers: keep
    // the eviction ladder out of the way so they recover repeatedly.
    let mut fabric = match Fabric::launch(
        &mut m,
        &topo,
        FabricOptions {
            evict_after: u32::MAX,
            ..FabricOptions::default()
        },
    ) {
        Ok(f) => f,
        Err(e) => fail(&format!("{gpus} GPUs: fabric launch: {e:?}")),
    };
    if !fabric.verify_all_paths(&m) {
        fail(&format!("{gpus} GPUs: a routing path failed verification"));
    }

    // Mixed traffic: TENANTS_PER_SHARD tenants per GPU, each planting
    // its own pattern. Placement spreads them evenly.
    let n_tenants = gpus * TENANTS_PER_SHARD;
    let mut tenants = Vec::new();
    for t in 0..n_tenants {
        let tag = [b't', t as u8, seed as u8, (seed >> 8) as u8];
        let (sid, mut session) = match fabric.connect(&mut m, 1 << 20, &tag) {
            Ok(x) => x,
            Err(e) => fail(&format!("tenant {t}: connect: {e:?}")),
        };
        let shard = fabric.shard_of(sid).expect("placed");
        let buf = session
            .malloc(&mut m, fabric.shard_mut(shard), PLANT_LEN)
            .unwrap_or_else(|e| fail(&format!("tenant {t}: malloc: {e:?}")));
        session
            .memcpy_htod(
                &mut m,
                fabric.shard_mut(shard),
                buf,
                &Payload::from_bytes(plant(t)),
            )
            .unwrap_or_else(|e| fail(&format!("tenant {t}: htod: {e:?}")));
        tenants.push((sid, session, buf));
    }
    if fabric.session_count() != n_tenants {
        fail(&format!(
            "{} sessions placed, expected {n_tenants}",
            fabric.session_count()
        ));
    }

    // Storm exactly one shard (the profile's designated shard) until
    // its watchdog escalates to a shard-local secure reset.
    let mut ops_to_reset = 0u64;
    let storm_shard = profile.storm_shard(gpus);
    if let Some(storm) = storm_shard {
        let switch_of: Vec<usize> = topo.gpus.iter().map(|g| g.switch).collect();
        let plans = fabric_fault_plans(seed, &switch_of, profile);
        for (i, plan) in plans.into_iter().enumerate() {
            m.set_device_fault_plan(topo.gpus[i].bdf, plan);
        }
        let driver = tenants
            .iter()
            .position(|(sid, _, _)| fabric.shard_of(*sid) == Some(storm))
            .expect("a tenant lives on the storm shard");
        let (_, ref mut session, buf) = tenants[driver];
        // Storm with *reads*: a dtoh rides the TDR-recovery loop but is
        // never journaled, so the replay the watchdog runs after every
        // kill stays short no matter how long the storm lasts.
        while m.trace().metrics().counter("watchdog.resets") == 0 {
            let back = session
                .memcpy_dtoh(&mut m, fabric.shard_mut(storm), buf, PLANT_LEN)
                .unwrap_or_else(|e| fail(&format!("storm dtoh: {e:?}")));
            if back.bytes() != &plant(driver)[..] {
                fail("storm readback diverged from the plant mid-storm");
            }
            ops_to_reset += 1;
            if ops_to_reset as usize >= STORM_CAP {
                fail(&format!(
                    "{gpus}/{}/{seed}: no secure reset after {STORM_CAP} storm ops",
                    profile.name()
                ));
            }
        }
        for g in &topo.gpus {
            m.set_device_fault_plan(g.bdf, None);
        }

        // Degraded-mode migration: while the storm shard digs out, move
        // a non-driving tenant off it to the least-loaded peer.
        if gpus >= 2 {
            let mover = tenants
                .iter()
                .position(|(sid, _, _)| {
                    fabric.shard_of(*sid) == Some(storm) && *sid != tenants[driver].0
                })
                .expect("a second tenant lives on the storm shard");
            let to = (0..gpus)
                .filter(|&s| s != storm)
                .min_by_key(|&s| (fabric.load(s), s))
                .expect("a peer shard exists");
            let (sid, ref mut session, _) = tenants[mover];
            fabric
                .migrate_session(&mut m, sid, session, to)
                .unwrap_or_else(|e| fail(&format!("cross-shard migration: {e:?}")));
            let resumed = session
                .resume(&mut m, fabric.shard_mut(to))
                .unwrap_or_else(|e| fail(&format!("resume after migration: {e:?}")));
            if !resumed {
                fail("migrated session did not re-establish");
            }
            if session.epoch() == 0 {
                fail("migrated session kept its pre-migration keys");
            }
        }
    }

    let resets = m.trace().metrics().counter("watchdog.resets");
    let blast_radius = storm_shard
        .map(|s| fabric.reset_blast_radius(&m, s))
        .unwrap_or(0);

    // Every tenant — peers, the storm driver, the migrant — reads its
    // plant back byte-identically.
    let mut served_ok = 0usize;
    let mut served = Vec::new();
    for (t, (sid, session, buf)) in tenants.iter_mut().enumerate() {
        let shard = fabric.shard_of(*sid).expect("still placed");
        let back = session
            .memcpy_dtoh(&mut m, fabric.shard_mut(shard), *buf, PLANT_LEN)
            .unwrap_or_else(|e| fail(&format!("tenant {t}: dtoh: {e:?}")));
        if back.bytes() == &plant(t)[..] {
            served_ok += 1;
        }
        served.extend_from_slice(back.bytes());
    }
    if fabric.session_count() != n_tenants {
        fail(&format!(
            "migration lost sessions: {} left of {n_tenants}",
            fabric.session_count()
        ));
    }
    if !fabric.verify_all_paths(&m) {
        fail(&format!("{gpus} GPUs: lockdown chain broken after the storm"));
    }

    Cell {
        gpus,
        profile,
        seed,
        sessions: n_tenants,
        served_ok,
        resets,
        blast_radius,
        migrations: m.trace().metrics().counter("fabric.migrations"),
        ops_to_reset,
        served,
        snapshot: m.trace().metrics().snapshot(),
    }
}

fn run_cell(gpus: usize, profile: FabricProfile, seed: u64) -> Cell {
    // Same-seed determinism: the whole scenario — storm, reset,
    // migration, readback — twice, bit-for-bit.
    let cell = run_scenario(gpus, profile, seed);
    let again = run_scenario(gpus, profile, seed);
    if cell.served != again.served
        || cell.resets != again.resets
        || cell.migrations != again.migrations
        || cell.ops_to_reset != again.ops_to_reset
    {
        fail(&format!(
            "{gpus}/{}/{seed}: rerun diverged",
            profile.name()
        ));
    }
    if cell.snapshot != again.snapshot {
        fail(&format!(
            "{gpus}/{}/{seed}: metrics snapshot not deterministic",
            profile.name()
        ));
    }
    cell
}

fn check_cells(cells: &[Cell]) {
    for c in cells {
        let tag = format!("{}/{}/{}", c.gpus, c.profile.name(), c.seed);
        // Containment: a shard-local secure reset never touches a peer.
        if c.blast_radius != 0 {
            fail(&format!("{tag}: reset blast radius {}", c.blast_radius));
        }
        // Byte-identical serving for every tenant.
        if c.served_ok != c.sessions {
            fail(&format!(
                "{tag}: only {}/{} tenants served byte-identical data",
                c.served_ok, c.sessions
            ));
        }
        if c.profile != FabricProfile::None {
            if c.resets == 0 {
                fail(&format!("{tag}: fault profile never caused a reset"));
            }
            // Every faulted multi-GPU run migrates at least one session
            // off the resetting shard.
            if c.gpus >= 2 && c.migrations == 0 {
                fail(&format!("{tag}: no cross-shard migration"));
            }
        }
    }
    // Byte identity ACROSS seeds: the fault tape may differ, the bytes
    // served to tenants may not.
    for c in cells {
        let anchor = cells
            .iter()
            .find(|b| b.gpus == c.gpus && b.profile == c.profile)
            .expect("cells nonempty");
        if c.served != anchor.served {
            fail(&format!(
                "{}/{}: seed {} served different bytes than seed {}",
                c.gpus,
                c.profile.name(),
                c.seed,
                anchor.seed
            ));
        }
    }
}

// ---- model half: zero peer-shard stalls, degraded-mode throughput ----

struct ModelCell {
    gpus: usize,
    clean_ns: u64,
    reset_ns: u64,
    peer_identical: bool,
}

/// The Figure 8/9 "bp-like" profile every modeled tenant runs.
fn task() -> TaskSpec {
    TaskSpec {
        name: "bp-like".into(),
        htod: 117 << 20,
        dtoh: 42 << 20,
        kernel_time: Nanos::from_millis(22),
        launches: 2,
    }
}

/// Modeled tenant pool, fixed across fabric sizes so the degraded-mode
/// table shows throughput scaling with shards added.
const MODEL_TENANTS: usize = 16;

fn run_model_cell(model: &CostModel, gpus: usize) -> ModelCell {
    let specs: Vec<SessionSpec> = (0..MODEL_TENANTS).map(|_| SessionSpec::new(task())).collect();
    let switch_of: Vec<usize> = (0..gpus).map(|i| i / FANOUT).collect();
    let cfg = SchedulerConfig::new(model);
    let clean = run_fabric_scaled(model, &specs, &switch_of, None, &cfg, None);
    let resetting = gpus - 1;
    let reset = run_fabric_scaled(model, &specs, &switch_of, Some(resetting), &cfg, None);
    // Zero peer-shard stalls: every non-resetting shard's outcome is
    // bit-identical whether or not a peer is mid-secure-reset.
    let peer_identical = clean.assignment == reset.assignment
        && (0..gpus)
            .filter(|&s| s != resetting)
            .all(|s| clean.per_shard[s] == reset.per_shard[s]);
    ModelCell {
        gpus,
        clean_ns: clean.makespan.as_nanos(),
        reset_ns: reset.makespan.as_nanos(),
        peer_identical,
    }
}

fn check_model(cells: &[ModelCell]) {
    for c in cells {
        if !c.peer_identical {
            fail(&format!(
                "model {} GPUs: a peer shard stalled during the reset",
                c.gpus
            ));
        }
        if c.reset_ns <= c.clean_ns {
            fail(&format!("model {} GPUs: the reset cost nothing", c.gpus));
        }
        let anchor = cells.iter().min_by_key(|b| b.gpus).expect("cells nonempty");
        if c.gpus > anchor.gpus {
            // Fixed tenant pool: adding shards must raise clean
            // throughput outright...
            if c.clean_ns >= anchor.clean_ns {
                fail(&format!(
                    "model {} GPUs: clean makespan {} not below the {}-GPU anchor {}",
                    c.gpus,
                    fmt_ns(c.clean_ns),
                    anchor.gpus,
                    fmt_ns(anchor.clean_ns)
                ));
            }
            // ...while the reset's absolute cost stays shard-local and
            // bounded: contained faults don't get more expensive as the
            // fabric grows.
            let delta = |m: &ModelCell| m.reset_ns - m.clean_ns;
            if delta(c) > 2 * delta(anchor) {
                fail(&format!(
                    "model {} GPUs: reset penalty {} outgrew the {}-GPU anchor {}",
                    c.gpus,
                    fmt_ns(delta(c)),
                    anchor.gpus,
                    fmt_ns(delta(anchor))
                ));
            }
        }
    }
}

// ---- JSON emit (stable key order) ----

fn emit_json(cells: &[Cell], model_cells: &[ModelCell]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"fabric_report\",");
    let _ = writeln!(
        s,
        "  \"seeds\": [{}],",
        SEEDS.map(|x| x.to_string()).join(", ")
    );
    let _ = writeln!(s, "  \"switch_fanout\": {FANOUT},");
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"gpus\": {}, \"profile\": \"{}\", \"seed\": {}, \"sessions\": {}, \"served_ok\": {}, \"resets\": {}, \"blast_radius\": {}, \"migrations\": {}, \"ops_to_reset\": {}}}",
            c.gpus,
            c.profile.name(),
            c.seed,
            c.sessions,
            c.served_ok,
            c.resets,
            c.blast_radius,
            c.migrations,
            c.ops_to_reset,
        );
        s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"model\": [\n");
    for (i, c) in model_cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"gpus\": {}, \"clean_makespan_ns\": {}, \"reset_makespan_ns\": {}, \"degraded_ratio\": {:.4}, \"peer_identical\": {}}}",
            c.gpus,
            c.clean_ns,
            c.reset_ns,
            c.reset_ns as f64 / c.clean_ns as f64,
            u8::from(c.peer_identical),
        );
        s.push_str(if i + 1 < model_cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_fabric.json".into());

    let sizes = [1, 2, 4];
    let profiles = [
        FabricProfile::None,
        FabricProfile::ShardStorm,
        FabricProfile::SwitchCorrelated,
    ];

    let mut cells = Vec::new();
    for gpus in sizes {
        for profile in profiles {
            for seed in SEEDS {
                cells.push(run_cell(gpus, profile, seed));
            }
        }
    }
    check_cells(&cells);

    let model = CostModel::paper();
    let model_cells = sizes.map(|g| run_model_cell(&model, g));
    check_model(&model_cells);

    println!("# Fabric sweep ({TENANTS_PER_SHARD} tenants/shard, fanout {FANOUT}, seeds {SEEDS:?})\n");
    println!("| gpus | profile | seed | resets | blast radius | migrations | served | ops to reset |");
    println!("|-----:|---------|-----:|-------:|-------------:|-----------:|-------:|-------------:|");
    for c in &cells {
        println!(
            "| {} | {} | {} | {} | {} | {} | {}/{} | {} |",
            c.gpus,
            c.profile.name(),
            c.seed,
            c.resets,
            c.blast_radius,
            c.migrations,
            c.served_ok,
            c.sessions,
            c.ops_to_reset,
        );
    }
    println!("\n# Degraded-mode model ({MODEL_TENANTS} bp-like tenants, one shard mid-secure-reset)\n");
    println!("| gpus | clean makespan | one shard resetting | throughput clean | degraded | peers bit-identical |");
    println!("|-----:|---------------:|--------------------:|-----------------:|---------:|--------------------:|");
    for c in &model_cells {
        let thru = |ns: u64| MODEL_TENANTS as f64 / (ns as f64 / 1e9);
        println!(
            "| {} | {} | {} | {:.2}/s | {:.2}/s | {} |",
            c.gpus,
            fmt_ns(c.clean_ns),
            fmt_ns(c.reset_ns),
            thru(c.clean_ns),
            thru(c.reset_ns),
            c.peer_identical,
        );
    }

    write_ledger(&out_path, &emit_json(&cells, &model_cells));
    println!("\nfabric_report: all self-checks passed; wrote {out_path}");
}
