//! Minimal property-based testing with automatic input shrinking and a
//! persistent seed corpus — the in-tree replacement for `proptest`.
//!
//! # Model
//!
//! A property is a closure over a [`Source`] of pseudorandom draws. The
//! harness runs it for [`Config::cases`] freshly seeded sources; a panic
//! (any failed `assert!`) is a counterexample. Every draw a source hands
//! out is recorded on a byte *tape*, so the failing input is fully
//! described by the consumed tape. Shrinking then edits the tape —
//! deleting chunks, zeroing spans, decrementing bytes — and replays the
//! property; edits that keep the property failing are kept. Because
//! draws replayed past the end of a tape return zeros, shorter/smaller
//! tapes decode to structurally smaller values, and the loop converges
//! on a minimal counterexample without any per-type shrinker.
//!
//! # Corpus
//!
//! Minimal tapes are printable hex. A seeds file pins them forever:
//!
//! ```text
//! # one entry per line: <property-name> <hex-tape>  [# comment]
//! device_survives_arbitrary_mmio 000233…  # doorbell length confusion
//! ```
//!
//! [`Prop::corpus`] replays every matching entry before generating new
//! cases, so regressions found once are re-checked on every run.

use crate::rng::{splitmix64, Rng};
use std::panic::{self, AssertUnwindSafe};

/// A source of pseudorandom draws, recorded on (or replayed from) a
/// byte tape.
pub struct Source {
    tape: Vec<u8>,
    pos: usize,
    rng: Option<Rng>,
}

impl Source {
    /// A fresh generating source: draws come from `rng` and are
    /// recorded.
    fn generating(rng: Rng) -> Self {
        Source {
            tape: Vec::new(),
            pos: 0,
            rng: Some(rng),
        }
    }

    /// A replaying source: draws come from `tape`; past its end every
    /// byte is zero (decoding to minimal values).
    fn replaying(tape: Vec<u8>) -> Self {
        Source {
            tape,
            pos: 0,
            rng: None,
        }
    }

    fn byte(&mut self) -> u8 {
        let b = if self.pos < self.tape.len() {
            self.tape[self.pos]
        } else if let Some(rng) = &mut self.rng {
            let b = rng.u8();
            self.tape.push(b);
            b
        } else {
            0
        };
        self.pos += 1;
        b
    }

    /// An arbitrary byte.
    pub fn u8(&mut self) -> u8 {
        self.byte()
    }

    /// An arbitrary `u16` (little-endian draw).
    pub fn u16(&mut self) -> u16 {
        u16::from_le_bytes([self.byte(), self.byte()])
    }

    /// An arbitrary `u32`.
    pub fn u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.iter_mut().for_each(|x| *x = self.byte());
        u32::from_le_bytes(b)
    }

    /// An arbitrary `u64`.
    pub fn u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.iter_mut().for_each(|x| *x = self.byte());
        u64::from_le_bytes(b)
    }

    /// An arbitrary `u128`.
    pub fn u128(&mut self) -> u128 {
        let mut b = [0u8; 16];
        b.iter_mut().for_each(|x| *x = self.byte());
        u128::from_le_bytes(b)
    }

    /// An arbitrary boolean.
    pub fn bool(&mut self) -> bool {
        self.byte() & 1 == 1
    }

    /// Uniform value in `[lo, hi)`, encoded compactly: ranges no wider
    /// than 2⁸/2¹⁶/2³² consume 1/2/4 tape bytes. A zero tape decodes to
    /// `lo`, so shrinking drives draws toward the range start.
    pub fn in_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        let width = range.end - range.start;
        let raw = if width <= 1 << 8 {
            self.u8() as u64
        } else if width <= 1 << 16 {
            self.u16() as u64
        } else if width <= 1 << 32 {
            self.u32() as u64
        } else {
            self.u64()
        };
        range.start + raw % width
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        self.in_range(range.start as u64..range.end as u64) as usize
    }

    /// A choice among `n` alternatives (for generating enum variants).
    pub fn choice(&mut self, n: usize) -> usize {
        self.usize_in(0..n)
    }

    /// An index into a collection of length `len` (the `Index`
    /// equivalent). Panics when `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        self.usize_in(0..len)
    }

    /// A byte vector with length drawn from `len_range`.
    pub fn vec_u8(&mut self, len_range: std::ops::Range<usize>) -> Vec<u8> {
        let len = self.usize_in(len_range);
        (0..len).map(|_| self.byte()).collect()
    }

    /// A fixed-size array of arbitrary bytes.
    pub fn array_u8<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        out.iter_mut().for_each(|x| *x = self.byte());
        out
    }

    /// A vector of values built by `f`, with length drawn from
    /// `len_range`.
    pub fn collect<T>(
        &mut self,
        len_range: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Source) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(len_range);
        (0..len).map(|_| f(self)).collect()
    }

    fn consumed(&self) -> Vec<u8> {
        let end = self.pos.min(self.tape.len());
        self.tape[..end].to_vec()
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to generate (corpus replays are extra).
    pub cases: u32,
    /// Base seed; each case derives its own stream from it.
    pub seed: u64,
    /// Cap on property re-executions while shrinking.
    pub max_shrink_iters: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            seed: 0x4849_5821,
            max_shrink_iters: 4096,
        }
    }
}

/// A failing case: the minimal tape found and the panic it causes.
#[derive(Debug)]
pub struct Failure {
    /// Property name.
    pub name: String,
    /// Minimal failing tape (hex-encode to pin in a seeds file).
    pub tape: Vec<u8>,
    /// Panic message of the minimal case.
    pub message: String,
    /// Where the case came from.
    pub origin: Origin,
}

/// Provenance of a counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Origin {
    /// Generated fresh from `seed` at this case index.
    Generated {
        /// Base seed the case stream derived from.
        seed: u64,
        /// Index of the failing case.
        case: u32,
    },
    /// Replayed from a seeds-file entry (1-based line number).
    Corpus {
        /// Path of the seeds file.
        path: String,
        /// 1-based line number of the entry.
        line: usize,
    },
}

/// Builder for one property check.
pub struct Prop {
    name: String,
    config: Config,
    corpus: Vec<(String, usize, Vec<u8>)>,
}

/// Starts a property check named `name` (the name keys corpus entries
/// and appears in failure reports).
pub fn prop(name: &str) -> Prop {
    Prop {
        name: name.to_string(),
        config: Config::default(),
        corpus: Vec::new(),
    }
}

impl Prop {
    /// Overrides the number of generated cases.
    pub fn cases(mut self, cases: u32) -> Self {
        self.config.cases = cases;
        self
    }

    /// Overrides the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Replays every entry for this property from a seeds file before
    /// generating new cases. A missing file is not an error (no
    /// regressions recorded yet); a malformed line is.
    pub fn corpus(mut self, path: &str) -> Self {
        let Ok(text) = std::fs::read_to_string(path) else {
            return self;
        };
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(name), Some(hex)) = (parts.next(), parts.next()) else {
                panic!("{path}:{}: malformed seeds entry {line:?}", i + 1);
            };
            if name != self.name {
                continue;
            }
            let tape = decode_hex(hex).unwrap_or_else(|| panic!("{path}:{}: bad hex tape", i + 1));
            self.corpus.push((path.to_string(), i + 1, tape));
        }
        self
    }

    /// Runs the check, panicking with a reproducible report on failure.
    pub fn run(self, property: impl Fn(&mut Source)) {
        if let Err(f) = self.run_raw(property) {
            let hex = encode_hex(&f.tape);
            panic!(
                "property `{}` failed ({:?}).\n\
                 minimal input tape: {hex}\n\
                 pin it by adding this line to the seeds file:\n\
                 {} {hex}\n\
                 case panic: {}",
                f.name, f.origin, f.name, f.message,
            );
        }
    }

    /// Like [`Prop::run`], but returns the failure instead of
    /// panicking (used by the harness's own tests).
    pub fn run_raw(self, property: impl Fn(&mut Source)) -> Result<(), Failure> {
        // Corpus entries first: known regressions re-checked every run.
        for (path, line, tape) in &self.corpus {
            if let Err(message) = run_once(&property, Source::replaying(tape.clone())) {
                return Err(Failure {
                    name: self.name,
                    tape: tape.clone(),
                    message,
                    origin: Origin::Corpus {
                        path: path.clone(),
                        line: *line,
                    },
                });
            }
        }
        // Fresh cases: each derives an independent stream from the base
        // seed, the property name, and the case index.
        let mut name_hash = 0xcbf2_9ce4_8422_2325u64;
        for b in self.name.bytes() {
            name_hash = (name_hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for case in 0..self.config.cases {
            let mut sm = self.config.seed ^ name_hash ^ (case as u64) << 32;
            let rng = Rng::new(splitmix64(&mut sm));
            let mut src = Source::generating(rng);
            if let Err(message) = run_once(&property, &mut src) {
                let tape = src.consumed();
                let (tape, message) =
                    shrink(&property, tape, message, self.config.max_shrink_iters);
                return Err(Failure {
                    name: self.name,
                    tape,
                    message,
                    origin: Origin::Generated {
                        seed: self.config.seed,
                        case,
                    },
                });
            }
        }
        Ok(())
    }
}

/// Runs the property once over a source, converting a panic into
/// `Err(message)`.
fn run_once(
    property: &impl Fn(&mut Source),
    mut src: impl std::borrow::BorrowMut<Source>,
) -> Result<(), String> {
    let result =
        with_quiet_panics(|| panic::catch_unwind(AssertUnwindSafe(|| property(src.borrow_mut()))));
    result.map_err(|e| {
        if let Some(s) = e.downcast_ref::<&str>() {
            s.to_string()
        } else if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        }
    })
}

/// Suppresses the default panic hook (backtrace spam) while probing
/// cases; a process-wide mutex keeps concurrent property tests from
/// clobbering each other's hook swap.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    use std::sync::Mutex;
    static HOOK_LOCK: Mutex<()> = Mutex::new(());
    let guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let out = f();
    panic::set_hook(prev);
    drop(guard);
    out
}

/// Tape shrinking: chunk deletion, span zeroing, and binary-search
/// minimization of little-endian words. Each accepted edit restarts
/// the pass list, so the result is a local fixpoint (no single edit of
/// these kinds can shrink it further) unless the iteration cap is hit.
fn shrink(
    property: &impl Fn(&mut Source),
    mut tape: Vec<u8>,
    mut message: String,
    max_iters: u32,
) -> (Vec<u8>, String) {
    let iters = std::cell::Cell::new(0u32);
    // Probes a candidate; on a still-failing property returns the
    // consumed prefix (the adoptable shrunk tape) and the new message.
    let probe = |cand: &[u8]| -> Option<(Vec<u8>, String)> {
        if iters.get() >= max_iters {
            return None;
        }
        iters.set(iters.get() + 1);
        let mut src = Source::replaying(cand.to_vec());
        match run_once(property, &mut src) {
            Err(m) => Some((src.consumed(), m)),
            Ok(()) => None,
        }
    };
    'outer: loop {
        if iters.get() >= max_iters {
            break;
        }
        // Pass 1: delete chunks, large to small, back to front. Every
        // adopted result is strictly shorter.
        for size in [64usize, 16, 4, 1] {
            for i in (0..tape.len().saturating_sub(size - 1)).rev() {
                let mut cand = tape.clone();
                cand.drain(i..i + size);
                if let Some((t, m)) = probe(&cand) {
                    (tape, message) = (t, m);
                    continue 'outer;
                }
            }
        }
        // Pass 2: zero non-zero spans (strictly reduces the byte sum).
        for size in [16usize, 4] {
            for i in (0..tape.len()).step_by(size) {
                let end = (i + size).min(tape.len());
                if tape[i..end].iter().all(|&b| b == 0) {
                    continue;
                }
                let mut cand = tape.clone();
                cand[i..end].fill(0);
                if let Some((t, m)) = probe(&cand) {
                    (tape, message) = (t, m);
                    continue 'outer;
                }
            }
        }
        // Pass 3: treat each aligned window as a little-endian word and
        // binary-search the smallest failing value. Converges in
        // O(log v) probes per word — a plain decrement loop would blow
        // the iteration cap on wide scalar draws.
        for width in [8usize, 4, 2, 1] {
            for i in 0..tape.len().saturating_sub(width - 1) {
                let read = |t: &[u8]| -> u64 {
                    t[i..i + width]
                        .iter()
                        .rev()
                        .fold(0u64, |acc, &b| (acc << 8) | b as u64)
                };
                let v = read(&tape);
                if v == 0 {
                    continue;
                }
                let write = |t: &mut [u8], mut val: u64| {
                    for b in &mut t[i..i + width] {
                        *b = val as u8;
                        val >>= 8;
                    }
                };
                let (mut lo, mut hi) = (0u64, v);
                let mut best: Option<(Vec<u8>, String)> = None;
                while lo < hi && iters.get() < max_iters {
                    let mid = lo + (hi - lo) / 2;
                    let mut cand = tape.clone();
                    write(&mut cand, mid);
                    match probe(&cand) {
                        Some(found) => {
                            hi = mid;
                            best = Some(found);
                        }
                        None => lo = mid + 1,
                    }
                }
                if let Some((t, m)) = best {
                    if hi < v {
                        (tape, message) = (t, m);
                        continue 'outer;
                    }
                }
            }
        }
        break;
    }
    (tape, message)
}

/// Hex-encodes a tape for seeds files and failure reports.
pub fn encode_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Decodes a hex tape; `None` on malformed input.
pub fn decode_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// Replays a tape through a decoder — used by tests that want to see
/// the value a (possibly shrunk or hand-written) tape decodes to.
pub fn decode_tape<T>(tape: &[u8], f: impl FnOnce(&mut Source) -> T) -> T {
    f(&mut Source::replaying(tape.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0u32);
        prop("trivially_true")
            .cases(300)
            .run_raw(|s| {
                count.set(count.get() + 1);
                let v = s.vec_u8(0..32);
                assert!(v.len() < 32);
            })
            .unwrap();
        assert_eq!(count.get(), 300);
    }

    #[test]
    fn shrinking_converges_to_minimal_counterexample() {
        // Planted failure: any byte vector of length >= 10. The minimal
        // tape must decode to exactly 10 zero bytes.
        let failure = prop("planted_len_10")
            .cases(512)
            .run_raw(|s| {
                let v = s.vec_u8(0..64);
                assert!(v.len() < 10, "vector too long: {}", v.len());
            })
            .unwrap_err();
        let v = decode_tape(&failure.tape, |s| s.vec_u8(0..64));
        assert_eq!(v, vec![0u8; 10], "not minimal: {v:?}");
        assert!(failure.message.contains("too long"));
    }

    #[test]
    fn shrinking_minimizes_scalar_draws() {
        // Planted failure: value >= 1000 in [0, 1<<20). Minimal is 1000.
        let failure = prop("planted_ge_1000")
            .cases(512)
            .run_raw(|s| {
                let v = s.in_range(0..1 << 20);
                assert!(v < 1000);
            })
            .unwrap_err();
        let v = decode_tape(&failure.tape, |s| s.in_range(0..1 << 20));
        assert_eq!(v, 1000, "not minimal");
    }

    #[test]
    fn replay_beyond_tape_yields_minimal_values() {
        let (a, b, v) = decode_tape(&[], |s| (s.u64(), s.in_range(5..100), s.vec_u8(1..8)));
        assert_eq!(a, 0);
        assert_eq!(b, 5);
        assert_eq!(v, vec![0u8]);
    }

    #[test]
    fn corpus_entries_are_replayed_and_reported() {
        let dir = std::env::temp_dir().join("hix-testkit-corpus-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seeds");
        // 0x2a = 42 decodes (via u8) to the planted failing value.
        std::fs::write(&path, "# pinned\nother_prop ff\nbad_byte 2a # planted\n").unwrap();
        let failure = prop("bad_byte")
            .cases(0)
            .corpus(path.to_str().unwrap())
            .run_raw(|s| assert_ne!(s.u8(), 42))
            .unwrap_err();
        assert!(matches!(failure.origin, Origin::Corpus { line: 3, .. }));
        assert_eq!(failure.tape, vec![42]);
        // The entry for the other property must not leak in.
        prop("bad_byte_unrelated")
            .cases(0)
            .corpus(path.to_str().unwrap())
            .run_raw(|s| assert_ne!(s.u8(), 42))
            .unwrap();
    }

    #[test]
    fn hex_roundtrip() {
        let tape = vec![0x00, 0x0f, 0xf0, 0xff, 0x33];
        assert_eq!(decode_hex(&encode_hex(&tape)).unwrap(), tape);
        assert_eq!(decode_hex("0"), None);
        assert_eq!(decode_hex("zz"), None);
    }

    #[test]
    fn failures_are_deterministic_for_a_seed() {
        let run = || {
            prop("det")
                .cases(64)
                .seed(99)
                .run_raw(|s| {
                    let v = s.u32();
                    assert!(v % 3 != 0);
                })
                .unwrap_err()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.tape, b.tape);
        assert_eq!(a.origin, b.origin);
    }
}
