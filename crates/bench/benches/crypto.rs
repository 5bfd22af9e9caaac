//! Micro-benches (hix-testkit): real throughput of the from-scratch
//! crypto primitives (these numbers are wall-clock, not simulated —
//! they justify the "functional plane" being usable in tests). Emits
//! `BENCH_crypto.json` alongside the printed report so the crypto
//! plane's perf trajectory rides in the same ledger as the simulated
//! reports (wall-clock numbers vary by host, so unlike `BENCH_perf` and
//! `BENCH_scale` this file is informational, never byte-compared).
//!
//! The seal/open rows run the zero-allocation `seal_into`/`open_into`
//! multi-block paths into preallocated buffers — the same hot path the
//! DMA pipeline uses — so the open/seal ratio reflects cipher asymmetry,
//! not allocator noise.
//!
//! Usage:
//!   cargo bench --bench crypto [-- OUT.json]     run and emit
//!   cargo bench --bench crypto -- --check FILE   parse + validate only

use std::fmt::Write as _;

use hix_bench::json::{parse_json, Json};
use hix_crypto::drbg::HmacDrbg;
use hix_crypto::ocb::{Key, Nonce, Ocb, TAG_LEN};
use hix_crypto::{
    aes::{Aes128, WIDE_BATCH},
    sha256::{self, Sha256},
};
use hix_testkit::bench::{black_box, Bench, Measurement};

/// Row names the ledger must always carry (the ablation gates and the
/// CI smoke key on these).
const REQUIRED_ROWS: &[&str] = &[
    "aes128/encrypt_block",
    "aes128/decrypt_block",
    "aes128/encrypt_blocks/8wide",
    "aes128/decrypt_blocks/8wide",
    "ocb/seal/4KiB",
    "ocb/seal/64KiB",
    "ocb/seal/1024KiB",
    "ocb/seal/64KiB/portable",
    "ocb/seal/64KiB/aesni",
    "ocb/open/4KiB",
    "ocb/open/64KiB",
    "ocb/open/1024KiB",
    "sha256/64KiB",
    "sha256/64KiB/portable",
    "dh/sim-group-agreement",
    "dh/sim-modexp",
    "dh/sim-generate",
];

fn bench_aes_block(rows: &mut Vec<Measurement>) {
    let aes = Aes128::new(&[7u8; 16]);
    let mut block = [0x5au8; 16];
    rows.push(Bench::new("aes128/encrypt_block").run(|| {
        block = aes.encrypt_block(black_box(block));
        block
    }));
    let mut block = [0xa5u8; 16];
    rows.push(Bench::new("aes128/decrypt_block").run(|| {
        block = aes.decrypt_block(black_box(block));
        block
    }));
}

fn bench_aes_wide(rows: &mut Vec<Measurement>) {
    let aes = Aes128::new(&[7u8; 16]);
    let mut blocks = [[0x5au8; 16]; WIDE_BATCH];
    let bytes = (WIDE_BATCH * 16) as u64;
    rows.push(
        Bench::new("aes128/encrypt_blocks/8wide")
            .throughput_bytes(bytes)
            .run(|| aes.encrypt_blocks(black_box(&mut blocks))),
    );
    rows.push(
        Bench::new("aes128/decrypt_blocks/8wide")
            .throughput_bytes(bytes)
            .run(|| aes.decrypt_blocks(black_box(&mut blocks))),
    );
}

fn bench_ocb_seal(rows: &mut Vec<Measurement>) {
    let ocb = Ocb::new(&Key::from_bytes([3u8; 16]));
    for kib in [4u64, 64, 1024] {
        let data = vec![0xabu8; (kib * 1024) as usize];
        let mut out = vec![0u8; data.len() + TAG_LEN];
        let mut counter = 0u64;
        rows.push(
            Bench::new(format!("ocb/seal/{kib}KiB"))
                .throughput_bytes(kib * 1024)
                .run(|| {
                    counter += 1;
                    ocb.seal_into(&Nonce::from_counter(counter), b"aad", &data, &mut out);
                    out[0]
                }),
        );
    }
}

/// The 64 KiB seal pinned to one backend, beside the row above that
/// runs whichever backend detection picks: `portable` is the oracle
/// path (the portable loop and T-table AES), `aesni` the 128-bit fused
/// kernel (`Ocb::aesni`, the VAES tier switched off).
fn bench_ocb_seal_pinned(backend: &str) -> Measurement {
    let ocb = Ocb::new(&Key::from_bytes([3u8; 16]));
    let ocb = if backend == "portable" {
        ocb.portable()
    } else {
        ocb.aesni()
    };
    let data = vec![0xabu8; 64 * 1024];
    let mut out = vec![0u8; data.len() + TAG_LEN];
    let mut counter = 0u64;
    Bench::new(format!("ocb/seal/64KiB/{backend}"))
        .throughput_bytes(data.len() as u64)
        .run(|| {
            counter += 1;
            ocb.seal_into(&Nonce::from_counter(counter), b"aad", &data, &mut out);
            out[0]
        })
}

fn bench_ocb_open(rows: &mut Vec<Measurement>) {
    let ocb = Ocb::new(&Key::from_bytes([3u8; 16]));
    for kib in [4u64, 64, 1024] {
        let data = vec![0xabu8; (kib * 1024) as usize];
        let sealed = ocb.seal(&Nonce::from_counter(1), b"aad", &data);
        let mut out = vec![0u8; data.len()];
        rows.push(
            Bench::new(format!("ocb/open/{kib}KiB"))
                .throughput_bytes(kib * 1024)
                .run(|| {
                    ocb.open_into(&Nonce::from_counter(1), b"aad", &sealed, &mut out)
                        .unwrap();
                    out[0]
                }),
        );
    }
}

fn bench_sha256(rows: &mut Vec<Measurement>) {
    let data = vec![0x11u8; 64 * 1024];
    rows.push(
        Bench::new("sha256/64KiB")
            .throughput_bytes(data.len() as u64)
            .run(|| sha256::digest(&data)),
    );
    // The portable compression function, the oracle for SHA-NI.
    rows.push(
        Bench::new("sha256/64KiB/portable")
            .throughput_bytes(data.len() as u64)
            .run(|| {
                let mut h = Sha256::new().portable();
                h.update(&data);
                h.finish()
            }),
    );
}

fn bench_dh_handshake() -> Measurement {
    use hix_crypto::dh::DhGroup;
    let group = DhGroup::sim();
    let mut rng_a = HmacDrbg::new(b"a");
    let mut rng_b = HmacDrbg::new(b"b");
    Bench::new("dh/sim-group-agreement").run(|| {
        let a = group.generate(&mut rng_a);
        let bk = group.generate(&mut rng_b);
        group.agree(&a, &bk.public).unwrap()
    })
}

/// One exponentiation in the simulator's group: an agreement with fixed
/// keys, what each of a connect's twelve exponentiations costs.
fn bench_dh_modexp() -> Measurement {
    use hix_crypto::dh::DhGroup;
    let group = DhGroup::sim();
    let a = group.generate(&mut HmacDrbg::new(b"a"));
    let b = group.generate(&mut HmacDrbg::new(b"b"));
    Bench::new("dh/sim-modexp").run(|| group.agree(&a, black_box(&b.public)).unwrap())
}

/// One fixed-base exponentiation in the simulator's group: the public
/// value of a fixed private key, what each of a connect's four key
/// generations costs past its DRBG draw.
fn bench_dh_generate() -> Measurement {
    use hix_crypto::dh::DhGroup;
    let group = DhGroup::sim();
    let x = group.generate_private(&mut HmacDrbg::new(b"a"));
    Bench::new("dh/sim-generate").run(|| group.public_value(black_box(&x)))
}

/// Renders the measurements as the stable-key-order JSON the other
/// `BENCH_*.json` files use (same reader: `hix_bench::json`).
fn emit_json(rows: &[Measurement]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"crypto\",");
    s.push_str("  \"rows\": [\n");
    for (i, m) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"median_ns\": {}, \"p95_ns\": {}, \"min_ns\": {}, \"iters\": {}, \"throughput_bytes\": {}, \"mib_per_sec\": {:.1}}}",
            m.name,
            m.median_ns,
            m.p95_ns,
            m.min_ns,
            m.iters,
            m.throughput_bytes.unwrap_or(0),
            m.mib_per_sec(),
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Schema-validates a crypto ledger: parses, checks the bench tag, row
/// fields, and that every required row is present with sane values.
fn validate(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    if doc.get("bench").and_then(Json::as_str) != Some("crypto") {
        return Err("bench tag is not \"crypto\"".into());
    }
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing rows array")?;
    let mut names = Vec::new();
    for row in rows {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or("row without a name")?;
        for field in [
            "median_ns",
            "p95_ns",
            "min_ns",
            "iters",
            "throughput_bytes",
            "mib_per_sec",
        ] {
            let v = row
                .get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("row {name}: missing {field}"))?;
            if v < 0.0 {
                return Err(format!("row {name}: negative {field}"));
            }
        }
        if row.get("median_ns").and_then(Json::as_num) == Some(0.0) {
            return Err(format!("row {name}: zero median"));
        }
        names.push(name.to_string());
    }
    for required in REQUIRED_ROWS {
        if !names.iter().any(|n| n == required) {
            return Err(format!("required row missing: {required}"));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a == "--check" || !a.starts_with('-'))
        .collect();
    if args.first().map(String::as_str) == Some("--check") {
        let Some(path) = args.get(1) else {
            eprintln!("crypto bench: --check needs a file path");
            std::process::exit(1);
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("crypto bench: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = validate(&text) {
            eprintln!("crypto bench: {path} FAILED validation: {e}");
            std::process::exit(1);
        }
        println!("crypto bench: {path} validates");
        return;
    }

    let mut rows = Vec::new();
    bench_aes_block(&mut rows);
    bench_aes_wide(&mut rows);
    bench_ocb_seal(&mut rows);
    rows.push(bench_ocb_seal_pinned("portable"));
    rows.push(bench_ocb_seal_pinned("aesni"));
    bench_ocb_open(&mut rows);
    bench_sha256(&mut rows);
    rows.push(bench_dh_handshake());
    rows.push(bench_dh_modexp());
    rows.push(bench_dh_generate());

    // cargo passes harness flags like `--bench` and runs the bench with
    // the package as CWD; the output path is the first non-flag
    // argument, defaulting to the workspace-root ledger name.
    let out_path = args
        .into_iter()
        .next()
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_crypto.json").into());
    let json = emit_json(&rows);
    // Self-check: what we emit must round-trip through the shared
    // reader and satisfy the same schema `--check` enforces.
    if let Err(e) = validate(&json) {
        eprintln!("crypto bench: emitted JSON fails its own schema: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("crypto bench: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("\ncrypto bench: wrote {} rows to {out_path}", rows.len());
}
