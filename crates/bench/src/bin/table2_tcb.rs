//! Table 2: the HIX TCB breakdown — component × attack surface ×
//! protection mechanism. Each row is backed by an executable enforcement
//! check (the `hix-attacks` scenarios and the platform tests); this
//! binary prints the matrix and re-runs the quick checks.

use hix_attacks::run_all;
use std::path::Path;

struct Row {
    component: &'static str,
    surface: &'static str,
    access_restriction: &'static str,
    encryption: &'static str,
    enforced_by: &'static str,
}

fn main() {
    let rows = [
        Row {
            component: "GPU Enclave",
            surface: "MemAcc.",
            access_restriction: "SGX EPC protection",
            encryption: "(MEE)",
            enforced_by: "machine::tests::enclave_build_and_epc_protection",
        },
        Row {
            component: "GECS & TGMR",
            surface: "MemAcc. & HIX instrs",
            access_restriction: "SGX EPC protection",
            encryption: "(MEE)",
            enforced_by: "hix state is processor-internal; only EGCREATE/EGADD mutate it",
        },
        Row {
            component: "GPU BIOS",
            surface: "MMIO",
            access_restriction: "MMU (TGMR) + measurement",
            encryption: "-",
            enforced_by: "gpu_enclave::tests::bios_mismatch_refused_and_gpu_returned",
        },
        Row {
            component: "GPU Registers",
            surface: "MMIO",
            access_restriction: "MMU (TGMR)",
            encryption: "-",
            enforced_by: "attacks::mmio_translation_attacks",
        },
        Row {
            component: "GPU Memory",
            surface: "MMIO & DMA",
            access_restriction: "MMU (TGMR)",
            encryption: "OCB-AES",
            enforced_by: "attacks::dma_redirection_attack",
        },
        Row {
            component: "PCIe Infrastructure",
            surface: "MMIO (config)",
            access_restriction: "PCIe root complex lockdown",
            encryption: "-",
            enforced_by: "attacks::pcie_routing_attacks",
        },
        Row {
            component: "User Enclave & HIX Library",
            surface: "MemAcc.",
            access_restriction: "SGX EPC protection",
            encryption: "(MEE)",
            enforced_by: "machine::tests::os_phys_reads_of_epc_see_no_plaintext",
        },
        Row {
            component: "Inter-Enclave Shared Memory",
            surface: "MemAcc. & DMA",
            access_restriction: "-",
            encryption: "OCB-AES",
            enforced_by: "attacks::shared_memory_snoop_and_tamper",
        },
    ];
    println!("== Table 2: HIX Trusted Computing Base breakdown ==\n");
    println!(
        "{:<28} {:<22} {:<28} {:<9} Enforced by",
        "Component", "Attack surface", "Access restriction", "Crypto"
    );
    for r in &rows {
        println!(
            "{:<28} {:<22} {:<28} {:<9} {}",
            r.component, r.surface, r.access_restriction, r.encryption, r.enforced_by
        );
    }
    print_loc_breakdown();

    println!("\nre-running the scenario suite to confirm every row is enforced…");
    let reports = run_all();
    for report in &reports {
        assert!(report.verdict.held(), "{} breached", report.name);
    }
    println!("{} scenarios: all defenses held", reports.len());
}

/// Role of each workspace crate in the TCB accounting, by directory
/// under `crates/`, plus the cross-crate test host (`tests/`), so that
/// moving code between a crate and the tests neither grows nor shrinks
/// the total. Everything is in-tree — since the `hix-testkit` migration
/// the verify path has zero external dependencies, so these counts
/// cover the entire code base.
const CRATE_ROLES: &[(&str, &str)] = &[
    ("core", "TCB: GPU-enclave + trusted user runtime"),
    ("crypto", "TCB: enclave/in-GPU crypto"),
    ("driver", "TCB: Gdev-like driver (runs in GPU enclave)"),
    ("platform", "hardware model: SGX/MMU/walker/GECS/TGMR"),
    ("pcie", "hardware model: config space, routing, lockdown"),
    ("gpu", "hardware model: device, VRAM, engines"),
    ("sim", "harness: virtual clock + cost model"),
    ("obs", "harness: spans, metrics, attribution, trace export"),
    ("workloads", "evaluation: Rodinia + matrix workloads"),
    ("attacks", "evaluation: privileged-adversary scenarios"),
    ("bench", "evaluation: figure/table harnesses"),
    ("testkit", "test harness: PRNG/property/bench (zero-dep)"),
    ("xtests", "test harness: cross-crate integration tests"),
];

/// Files inside the TCB crates that are not trusted code. Each prints
/// as its own row under its crate and counts outside the TCB.
const NON_TCB_FILES: &[(&str, &str)] = &[
    ("core/src/multiuser.rs", "summary model (multi-user engine)"),
    ("core/src/sched.rs", "summary model (fair-queue scheduler)"),
    (
        "core/src/fabric.rs",
        "multi-GPU fabric control plane (untrusted)",
    ),
    ("driver/src/gdev.rs", "insecure Gdev baseline"),
    ("driver/src/rig.rs", "testbed BIOS (rig builders)"),
];

/// Non-empty lines of one file.
fn file_lines(path: &Path) -> u64 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    text.lines().filter(|l| !l.trim().is_empty()).count() as u64
}

/// Recursively counts non-empty lines across the `.rs` files under
/// `dir`.
fn count_rs_lines(dir: &Path) -> (u64, u64) {
    let (mut files, mut lines) = (0u64, 0u64);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (f, l) = count_rs_lines(&path);
            files += f;
            lines += l;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files += 1;
            lines += file_lines(&path);
        }
    }
    (files, lines)
}

/// Prints the per-crate LoC breakdown backing the TCB discussion. The
/// table must cover *every* workspace crate — a crate missing from
/// [`CRATE_ROLES`] (e.g. a future addition) fails loudly rather than
/// silently under-reporting the TCB — and every file in
/// [`NON_TCB_FILES`] must exist.
fn print_loc_breakdown() {
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    println!("\n== per-crate size (non-empty Rust lines; whole crate incl. tests) ==\n");
    println!("{:<14} {:>6} {:>8}  role", "crate", "files", "lines");
    let (mut total_files, mut total_lines, mut tcb_crates, mut non_tcb) = (0u64, 0u64, 0u64, 0u64);
    let mut listed = Vec::new();
    for (name, role) in CRATE_ROLES {
        let dir = match *name {
            "xtests" => crates_dir.join("../tests"),
            crate_dir => crates_dir.join(crate_dir),
        };
        let (files, lines) = count_rs_lines(&dir);
        assert!(lines > 0, "crate {name} missing or empty at {dir:?}");
        println!("{name:<14} {files:>6} {lines:>8}  {role}");
        total_files += files;
        total_lines += lines;
        if role.starts_with("TCB") {
            tcb_crates += lines;
        }
        for (file, what) in NON_TCB_FILES
            .iter()
            .filter(|(f, _)| f.split('/').next() == Some(*name))
        {
            let lines = file_lines(&crates_dir.join(file));
            let file = file.rsplit('/').next().expect("file name");
            println!("  {file:<19} {lines:>8}  non-TCB: {what}");
            non_tcb += lines;
        }
        listed.push(*name);
    }
    for entry in std::fs::read_dir(&crates_dir)
        .expect("crates dir")
        .flatten()
    {
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.path().is_dir() && !listed.contains(&name.as_str()) {
            panic!("crate `{name}` is not in the TCB breakdown — add it to CRATE_ROLES");
        }
    }
    println!("{:<14} {total_files:>6} {total_lines:>8}", "total");
    println!(
        "\nTCB (core+crypto+driver less the non-TCB files): {} lines \
         ({tcb_crates} counting the whole crates); external dependencies \
         in the verify path: none",
        tcb_crates - non_tcb
    );
}
