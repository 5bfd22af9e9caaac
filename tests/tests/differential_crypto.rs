//! Pinned-tape differential suite for the fast crypto plane: the wide
//! (8-blocks-per-pass) AES core, the zero-allocation OCB
//! `seal_into`/`open_into` paths (on AES-NI, the fused offset-ladder
//! kernel, and on VAES its 512-bit tier), OCB streamed in runs of whole
//! blocks, and the SHA-256 compression function are checked
//! byte-for-byte against the scalar oracle, the allocating reference
//! paths and the portable backends. Every OCB property runs on all three
//! backends: the context as detected (VAES where the CPU has it), the
//! same context pinned to the 128-bit AES-NI kernel (`Ocb::aesni`) and
//! the portable loop (`Ocb::portable`). `differential_crypto.seeds` is
//! replayed before any new cases are generated.

use hix_crypto::aes::Aes128;
use hix_crypto::ocb::{Key, Nonce, Ocb, TagMismatch, NONCE_LEN, TAG_LEN};
use hix_crypto::sha256::{self, Sha256};
use hix_testkit::prop::prop;
use hix_testkit::rng::Rng;

const SEEDS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/differential_crypto.seeds"
);

/// Message lengths the DMA plane cares about: empty, sub-block, exact
/// block, block+1, just under/at/over the 8-block wide-pass boundary,
/// a multi-pass tail, and two multi-KiB streams whose offset ladders
/// reach `ntz(i) = 8` (257 blocks) and `ntz(i) = 12` (4,096 blocks).
const PINNED_LENGTHS: &[usize] = &[
    0, 15, 16, 17, 112, 127, 128, 129, 144, 256, 1000, 4113, 65541,
];

/// The three OCB backends of one keyed context: as detected, pinned to
/// the 128-bit AES-NI kernel, and portable. On a host without VAES the
/// first two are the same kernel; without AES-NI all three are portable.
fn backends(ocb: &Ocb) -> [Ocb; 3] {
    [ocb.clone(), ocb.aesni(), ocb.portable()]
}

/// SHA-256 message lengths either side of the padding boundaries (55/56:
/// the 0x80 byte and the length fit the last block or spill into one
/// more; 63/64; 119/120), one page and one 64 KiB chunk.
const SHA_PINNED_LENGTHS: &[usize] = &[55, 56, 63, 64, 119, 120, 4096, 65536];

#[test]
fn sha256_hardware_matches_portable() {
    prop("sha256_hardware_matches_portable")
        .corpus(SEEDS)
        .run(|s| {
            let len = if s.bool() {
                SHA_PINNED_LENGTHS[s.index(SHA_PINNED_LENGTHS.len())]
            } else {
                s.usize_in(0..301)
            };
            let data = Rng::new(s.u64()).bytes(len);
            // Three `update` calls split at two drawn points.
            let mut cuts = [s.usize_in(0..len + 1), s.usize_in(0..len + 1)];
            cuts.sort();
            let parts = [&data[..cuts[0]], &data[cuts[0]..cuts[1]], &data[cuts[1]..]];
            let mut oracle = Sha256::new().portable();
            oracle.update(&data);
            let want = oracle.finish();
            let hw = Sha256::new();
            for mut h in [hw.clone(), hw.portable()] {
                let backend = h.backend();
                for part in parts {
                    h.update(part);
                }
                assert_eq!(h.finish(), want, "{backend} split at {cuts:?}, len {len}");
            }
            assert_eq!(sha256::digest(&data), want, "one-shot digest, len {len}");
        });
}

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn wide_aes_matches_scalar_oracle_on_both_backends() {
    prop("wide_aes_matches_scalar_oracle")
        .corpus(SEEDS)
        .run(|s| {
            let key = s.array_u8::<16>();
            let n = (s.u64() % 25) as usize; // crosses 0, one pass, tail
            let blocks: Vec<[u8; 16]> = (0..n).map(|_| s.array_u8::<16>()).collect();
            let aes = Aes128::new(&key);
            for cipher in [Aes128::new(&key), aes.portable()] {
                // Scalar oracle, block by block.
                let expect_enc: Vec<[u8; 16]> =
                    blocks.iter().map(|b| aes.encrypt_block(*b)).collect();
                let expect_dec: Vec<[u8; 16]> =
                    blocks.iter().map(|b| aes.decrypt_block(*b)).collect();
                let mut wide = blocks.clone();
                cipher.encrypt_blocks(&mut wide);
                assert_eq!(
                    wide,
                    expect_enc,
                    "wide encrypt diverged ({:?})",
                    cipher.backend()
                );
                let mut wide = blocks.clone();
                cipher.decrypt_blocks(&mut wide);
                assert_eq!(
                    wide,
                    expect_dec,
                    "wide decrypt diverged ({:?})",
                    cipher.backend()
                );
                // Inverse property through the wide paths.
                let mut round = blocks.clone();
                cipher.encrypt_blocks(&mut round);
                cipher.decrypt_blocks(&mut round);
                assert_eq!(round, blocks, "wide decrypt(encrypt) != id");
            }
        });
}

#[test]
fn into_paths_match_allocating_paths() {
    prop("into_paths_match_allocating_paths")
        .corpus(SEEDS)
        .run(|s| {
            let key = s.array_u8::<16>();
            let counter = s.u64();
            let aad = s.vec_u8(0..48);
            // Half the cases draw a pinned boundary length, half free-range.
            let len = if s.bool() {
                PINNED_LENGTHS[s.index(PINNED_LENGTHS.len())]
            } else {
                s.vec_u8(0..300).len()
            };
            let plaintext = s.vec_u8(len..len + 1);
            let nonce = Nonce::from_counter(counter);
            let hw = Ocb::new(&Key::from_bytes(key));
            let expect = hw.portable().seal(&nonce, &aad, &plaintext);
            for ocb in backends(&hw) {
                let sealed = ocb.seal(&nonce, &aad, &plaintext);
                assert_eq!(
                    sealed,
                    expect,
                    "{} seal diverged from portable",
                    ocb.backend()
                );
                let mut sealed_into = vec![0u8; plaintext.len() + TAG_LEN];
                ocb.seal_into(&nonce, &aad, &plaintext, &mut sealed_into);
                assert_eq!(sealed_into, sealed, "seal_into diverged from seal");
                let mut opened_into = vec![0u8; plaintext.len()];
                ocb.open_into(&nonce, &aad, &sealed, &mut opened_into)
                    .unwrap();
                assert_eq!(opened_into, plaintext, "open_into diverged from plaintext");
                assert_eq!(ocb.open(&nonce, &aad, &sealed).unwrap(), plaintext);
            }
        });
}

/// RFC 7253 Appendix A sample vectors, driven through the *multi-block*
/// `seal_into`/`open_into` paths on both backends (the unit tests in
/// `hix-crypto` pin the same vectors through the allocating paths).
#[test]
fn rfc7253_vectors_through_multi_block_paths() {
    let key = Key::from_bytes(hex("000102030405060708090A0B0C0D0E0F").try_into().unwrap());
    let nonce = |last: &str| {
        Nonce::from_bytes(
            hex(&format!("BBAA9988776655443322110{last}"))
                .try_into()
                .unwrap(),
        )
    };
    // (nonce suffix, aad, plaintext, expected sealed stream)
    let vectors: &[(&str, &str, &str, &str)] = &[
        ("0", "", "", "785407BFFFC8AD9EDCC5520AC9111EE6"),
        (
            "1",
            "0001020304050607",
            "0001020304050607",
            "6820B3657B6F615A5725BDA0D3B4EB3A257C9AF1F8F03009",
        ),
        ("2", "0001020304050607", "", "81017F8203F081277152FADE694A0A00"),
        (
            "3",
            "",
            "0001020304050607",
            "45DD69F8F5AAE72414054CD1F35D82760B2CD00D2F99BFA9",
        ),
        (
            "4",
            "000102030405060708090A0B0C0D0E0F",
            "000102030405060708090A0B0C0D0E0F",
            "571D535B60B277188BE5147170A9A22C3AD7A4FF3835B8C5701C1CCEC8FC3358",
        ),
        (
            "6",
            "000102030405060708090A0B0C0D0E0F1011121314151617",
            "000102030405060708090A0B0C0D0E0F1011121314151617",
            "5CE88EC2E0692706A915C00AEB8B23968467B2CFBB580496923A4C5285B1F9AE693442EC9CDFB030",
        ),
        (
            "F",
            "000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F2021222324252627",
            "000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F2021222324252627",
            "4412923493C57D5DE0D700F753CCE0D1D2D95060122E9F15A5DDBFC5787E50B5CC55EE507BCB084E240A353649432AC6C1BDA9ACBA93F56D",
        ),
    ];
    for ocb in backends(&Ocb::new(&key)) {
        for (last, aad_hex, pt_hex, sealed_hex) in vectors {
            let aad = hex(aad_hex);
            let pt = hex(pt_hex);
            let expect = hex(sealed_hex);
            let mut sealed = vec![0u8; pt.len() + TAG_LEN];
            ocb.seal_into(&nonce(last), &aad, &pt, &mut sealed);
            assert_eq!(
                sealed,
                expect,
                "seal_into vs RFC 7253 N=..{last} ({:?})",
                ocb.backend()
            );
            let mut opened = vec![0u8; pt.len()];
            ocb.open_into(&nonce(last), &aad, &sealed, &mut opened)
                .unwrap();
            assert_eq!(opened, pt, "open_into vs RFC 7253 N=..{last}");
        }
    }
}

#[test]
fn roundtrip_pinned_lengths_both_backends() {
    let ocb_hw = Ocb::new(&Key::from_bytes([0x42; 16]));
    let ocb_pt = ocb_hw.portable();
    for (i, &len) in PINNED_LENGTHS.iter().enumerate() {
        let plaintext: Vec<u8> = (0..len).map(|j| (j * 31 + i) as u8).collect();
        let nonce = Nonce::from_counter(i as u64 + 1);
        let mut sealed = vec![0u8; len + TAG_LEN];
        ocb_hw.seal_into(&nonce, b"len-sweep", &plaintext, &mut sealed);
        // Both backends produce the same stream and open each other's.
        let mut sealed_pt = vec![0u8; len + TAG_LEN];
        ocb_pt.seal_into(&nonce, b"len-sweep", &plaintext, &mut sealed_pt);
        assert_eq!(sealed_pt, sealed, "backends diverged at len {len}");
        let mut opened = vec![0u8; len];
        ocb_pt
            .open_into(&nonce, b"len-sweep", &sealed, &mut opened)
            .unwrap();
        assert_eq!(opened, plaintext, "roundtrip failed at len {len}");
        // A truncated or grown stream must never authenticate.
        if len > 0 {
            let mut short = vec![0u8; len - 1];
            assert!(ocb_hw
                .open_into(
                    &nonce,
                    b"len-sweep",
                    &sealed[..len - 1 + TAG_LEN],
                    &mut short
                )
                .is_err());
        }
    }
}

/// The three backends seal every pinned length to the same stream, and
/// each opens the others' streams.
#[test]
fn vaes_aesni_and_portable_agree_over_pinned_lengths() {
    let hw = Ocb::new(&Key::from_bytes([0x5c; 16]));
    let [detected, aesni, portable] = backends(&hw);
    for (i, &len) in PINNED_LENGTHS.iter().enumerate() {
        let plaintext: Vec<u8> = (0..len).map(|j| (j * 13 + i) as u8).collect();
        let nonce = Nonce::from_counter(i as u64 + 100);
        let seal = |ocb: &Ocb| {
            let mut sealed = vec![0u8; len + TAG_LEN];
            ocb.seal_into(&nonce, b"three", &plaintext, &mut sealed);
            sealed
        };
        let want = seal(&portable);
        for ocb in [&detected, &aesni] {
            assert_eq!(
                seal(ocb),
                want,
                "{} diverged from portable at len {len}",
                ocb.backend()
            );
        }
        for ocb in [&detected, &aesni, &portable] {
            let mut opened = vec![0u8; len];
            ocb.open_into(&nonce, b"three", &want, &mut opened).unwrap();
            assert_eq!(
                opened,
                plaintext,
                "{} failed to open at len {len}",
                ocb.backend()
            );
        }
    }
}

/// Cuts `blocks` whole blocks into runs: about half of them 1–7 blocks
/// (a run that starts and ends between pass boundaries), the rest up to
/// 700 blocks (whole passes, and across the `ntz ≥ 8` rungs at every
/// 256th block).
fn draw_runs(s: &mut hix_testkit::prop::Source, blocks: usize) -> Vec<usize> {
    let mut runs = Vec::new();
    let mut left = blocks;
    while left > 0 {
        let run = if s.bool() {
            s.usize_in(1..8)
        } else {
            s.usize_in(8..700)
        };
        runs.push(run.min(left));
        left -= run.min(left);
    }
    runs
}

/// Seals `plaintext` as `runs` of whole blocks plus a finish, on one
/// backend; returns `ciphertext || tag`.
fn seal_streamed(
    ocb: &Ocb,
    nonce: &Nonce,
    aad: &[u8],
    plaintext: &[u8],
    runs: &[usize],
) -> Vec<u8> {
    let mut out = vec![0u8; plaintext.len() + TAG_LEN];
    let mut stream = ocb.stream(nonce);
    let mut at = 0;
    for run in runs {
        let end = at + run * 16;
        stream.seal_run(&plaintext[at..end], &mut out[at..end]);
        at = end;
    }
    let (tail_out, tag) = out[at..].split_at_mut(plaintext.len() - at);
    tag.copy_from_slice(&stream.seal_finish(aad, &plaintext[at..], tail_out));
    out
}

/// Opens `sealed` as `runs` of whole blocks plus a finish, on one
/// backend. Returns the opened runs, the tail output (pre-filled with
/// 0xee, so a finish that leaves it alone shows) and the finish result.
fn open_streamed(
    ocb: &Ocb,
    nonce: &Nonce,
    aad: &[u8],
    sealed: &[u8],
    runs: &[usize],
) -> (Vec<u8>, Vec<u8>, Result<(), TagMismatch>) {
    let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
    let mut body = vec![0u8; ciphertext.len() / 16 * 16];
    let mut stream = ocb.stream(nonce);
    let mut at = 0;
    for run in runs {
        let end = at + run * 16;
        stream.open_run(&ciphertext[at..end], &mut body[at..end]);
        at = end;
    }
    let mut tail = vec![0xeeu8; ciphertext.len() - at];
    let result = stream.open_finish(aad, &ciphertext[at..], tag, &mut tail);
    (body, tail, result)
}

/// OCB streamed in random runs of whole blocks, from any block index,
/// is bit-identical to one `seal_into` on every backend, opens back run
/// by run, and rejects a stream with any one byte flipped, zeroing the
/// tail output.
#[test]
fn streamed_runs_match_seal_into() {
    prop("streamed_runs_match_seal_into")
        .corpus(SEEDS)
        .run(|s| {
            let key = s.array_u8::<16>();
            let nonce = Nonce::from_counter(s.u64());
            let aad = s.vec_u8(0..48);
            let len = s.usize_in(0..70_001);
            let plaintext = Rng::new(s.u64()).bytes(len);
            let runs = draw_runs(s, len / 16);
            let flip_at = s.usize_in(0..len + TAG_LEN);
            let flip_bit = 1u8 << s.usize_in(0..8);
            let hw = Ocb::new(&Key::from_bytes(key));
            let mut want = vec![0u8; len + TAG_LEN];
            hw.portable().seal_into(&nonce, &aad, &plaintext, &mut want);
            for ocb in backends(&hw) {
                let backend = ocb.backend();
                let sealed = seal_streamed(&ocb, &nonce, &aad, &plaintext, &runs);
                assert!(
                    sealed == want,
                    "{backend} streamed seal diverged, len {len}, runs {runs:?}"
                );
                let (body, tail, result) = open_streamed(&ocb, &nonce, &aad, &sealed, &runs);
                assert_eq!(result, Ok(()), "{backend} streamed open failed, len {len}");
                assert!(
                    body == plaintext[..body.len()] && tail == plaintext[body.len()..],
                    "{backend} streamed open diverged, len {len}, runs {runs:?}"
                );
                let mut tampered = sealed;
                tampered[flip_at] ^= flip_bit;
                let (_, tail, result) = open_streamed(&ocb, &nonce, &aad, &tampered, &runs);
                assert_eq!(
                    result,
                    Err(TagMismatch),
                    "{backend} accepted a flip at {flip_at}"
                );
                assert!(
                    tail.iter().all(|&b| b == 0),
                    "{backend} released the tail on a mismatch"
                );
            }
        });
}

/// A flipped bit in the last whole ciphertext block of a multi-KiB stream
/// (the final pass of the fused kernel) fails the open on both backends,
/// and `out` comes back zeroed.
#[test]
fn corrupt_last_whole_block_fails_open_and_zeroes_output() {
    let hw = Ocb::new(&Key::from_bytes([0x24; 16]));
    for len in [4113usize, 65541] {
        let plaintext: Vec<u8> = (0..len).map(|j| (j * 7) as u8).collect();
        let nonce = Nonce::from_counter(len as u64);
        for ocb in backends(&hw) {
            let mut sealed = vec![0u8; len + TAG_LEN];
            ocb.seal_into(&nonce, b"tail", &plaintext, &mut sealed);
            let last_whole = (len / 16 - 1) * 16;
            sealed[last_whole + 7] ^= 0x10;
            let mut out = vec![0xeeu8; len];
            assert_eq!(
                ocb.open_into(&nonce, b"tail", &sealed, &mut out),
                Err(TagMismatch),
                "{} len {len}",
                ocb.backend()
            );
            assert!(
                out.iter().all(|&b| b == 0),
                "{} leaked plaintext",
                ocb.backend()
            );
        }
    }
}

/// The iterated RFC 7253 check value computed entirely through
/// `seal_into` (every length 0..=127 rides the multi-block path).
#[test]
fn rfc7253_iterated_check_value_through_seal_into() {
    let key = Key::from_bytes({
        let mut k = [0u8; 16];
        k[15] = 128; // num2str(TAGLEN, 8)
        k
    });
    let nonce_of = |n: u32| {
        let mut b = [0u8; NONCE_LEN];
        b[8..].copy_from_slice(&n.to_be_bytes());
        Nonce::from_bytes(b)
    };
    for ocb in backends(&Ocb::new(&key)) {
        let mut c = Vec::new();
        let seal_into = |nonce: Nonce, aad: &[u8], pt: &[u8]| {
            let mut out = vec![0u8; pt.len() + TAG_LEN];
            ocb.seal_into(&nonce, aad, pt, &mut out);
            out
        };
        for i in 0u32..128 {
            let s = vec![0u8; i as usize];
            c.extend(seal_into(nonce_of(3 * i + 1), &s, &s));
            c.extend(seal_into(nonce_of(3 * i + 2), b"", &s));
            c.extend(seal_into(nonce_of(3 * i + 3), &s, b""));
        }
        let out = seal_into(nonce_of(385), &c, b"");
        assert_eq!(out, hex("67E944D23256C5E0B6C61FA22FDF1EA2"));
    }
}
