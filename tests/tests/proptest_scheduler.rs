//! Pinned-tape property suite for the weighted-fair scheduler
//! ([`hix_core::sched::FairQueue`]) and the sealed-state parking path.
//!
//! Five properties, matching the invariants the scheduler's module docs
//! promise:
//!
//! 1. a session's deficit (virtual lead over the floor) is never
//!    negative and the floor is monotone, under arbitrary op tapes;
//! 2. the `O(log n)` heap-based queue serves sessions in exactly the
//!    order of a naive linear-scan reference model;
//! 3. backlogged sessions' normalized service stays within one quantum
//!    of each other — weights are respected at slice granularity;
//! 4. parking a live session (seal out of the resident set) and
//!    resuming it round-trips device state byte-identically, through
//!    fresh keys and a journal replay;
//! 5. the per-session metrics cardinality gate never loses counts:
//!    for arbitrary populations straddling the gate, named counters
//!    plus the overflow bucket tile the aggregate totals exactly.
//!
//! Runs on the in-tree `hix-testkit` harness.

use hix_core::multiuser::{
    run_scaled, seeded_session_faults, FaultProfile, Mode, SchedulerConfig, SessionSpec, TaskSpec,
    PER_SESSION_METRICS_MAX,
};
use hix_core::sched::{FairQueue, SlotId, VT_SCALE};
use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_obs::Metrics;
use hix_sim::{CostModel, Nanos, Payload};
use hix_testkit::prop::{prop, Source};

const SEEDS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/proptest_scheduler.seeds"
);

/// A random population: 1..12 sessions with weights in [1, 64].
fn population(s: &mut Source, q: &mut FairQueue) -> Vec<SlotId> {
    let n = s.usize_in(1..12);
    (0..n).map(|_| q.insert(s.in_range(1..65) as u32)).collect()
}

#[test]
fn deficit_is_never_negative_and_floor_is_monotone() {
    prop("deficit_is_never_negative_and_floor_is_monotone")
        .corpus(SEEDS)
        .run(|s| {
            let mut q = FairQueue::new();
            let ids = population(s, &mut q);
            let mut floor = 0u128;
            for _ in 0..s.usize_in(1..128) {
                match s.choice(3) {
                    0 => q.activate(ids[s.index(ids.len())]),
                    1 => {
                        if let Some(id) = q.pick() {
                            q.charge(id, Nanos::from_nanos(s.in_range(0..10_000_000)));
                            if s.bool() {
                                q.activate(id);
                            }
                        }
                    }
                    // A session that went idle without being charged
                    // (parked mid-queue) and comes back later.
                    _ => {
                        if let Some(id) = q.pick() {
                            q.activate(id);
                        }
                    }
                }
                assert!(q.vfloor() >= floor, "virtual floor regressed");
                floor = q.vfloor();
                for &id in &ids {
                    // `deficit` subtracts with `checked_sub` for active
                    // sessions: a negative deficit panics right here.
                    let _ = q.deficit(id);
                    if q.is_active(id) {
                        assert!(q.vtime(id) >= q.vfloor());
                    }
                }
            }
        });
}

/// The obviously-correct reference: a linear scan picking the active
/// session with the smallest `(vtime, index)`, with the same activation
/// clamp and floor rule the heap implementation promises.
struct RefQueue {
    slots: Vec<(u128, u32, bool)>, // (vtime, weight, active)
    floor: u128,
}

impl RefQueue {
    fn new() -> Self {
        RefQueue {
            slots: Vec::new(),
            floor: 0,
        }
    }
    fn insert(&mut self, weight: u32) -> usize {
        self.slots.push((self.floor, weight, false));
        self.slots.len() - 1
    }
    fn activate(&mut self, id: usize) {
        let s = &mut self.slots[id];
        if !s.2 {
            s.0 = s.0.max(self.floor);
            s.2 = true;
        }
    }
    fn pick(&mut self) -> Option<usize> {
        let id = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.2)
            .min_by_key(|(i, s)| (s.0, *i))
            .map(|(i, _)| i)?;
        self.slots[id].2 = false;
        self.floor = self.floor.max(self.slots[id].0);
        Some(id)
    }
    fn charge(&mut self, id: usize, service: Nanos) {
        let s = &mut self.slots[id];
        s.0 += service.as_nanos() as u128 * VT_SCALE / s.1 as u128;
    }
}

#[test]
fn service_order_matches_the_reference_model() {
    prop("service_order_matches_the_reference_model")
        .corpus(SEEDS)
        .run(|s| {
            let mut q = FairQueue::new();
            let mut r = RefQueue::new();
            let n = s.usize_in(1..12);
            let ids: Vec<SlotId> = (0..n)
                .map(|_| {
                    let w = s.in_range(1..65) as u32;
                    let id = q.insert(w);
                    assert_eq!(r.insert(w), id);
                    id
                })
                .collect();
            for _ in 0..s.usize_in(1..128) {
                match s.choice(2) {
                    0 => {
                        let id = ids[s.index(n)];
                        q.activate(id);
                        r.activate(id);
                    }
                    _ => {
                        let got = q.pick();
                        let want = r.pick();
                        assert_eq!(got, want, "heap and reference disagree on the pick");
                        if let Some(id) = got {
                            let slice = Nanos::from_nanos(s.in_range(0..10_000_000));
                            q.charge(id, slice);
                            r.charge(id, slice);
                            q.activate(id);
                            r.activate(id);
                        }
                    }
                }
                assert_eq!(q.vfloor(), r.floor, "virtual floors diverged");
                for &id in &ids {
                    assert_eq!(q.vtime(id), r.slots[id].0, "vtime diverged for slot {id}");
                }
            }
        });
}

#[test]
fn backlogged_weights_are_respected_within_one_quantum() {
    prop("backlogged_weights_are_respected_within_one_quantum")
        .corpus(SEEDS)
        .run(|s| {
            let mut q = FairQueue::new();
            let n = s.usize_in(2..10);
            let ids: Vec<SlotId> = (0..n).map(|_| q.insert(s.in_range(1..65) as u32)).collect();
            let quantum = Nanos::from_nanos(s.in_range(1..5_000_001));
            for &id in &ids {
                q.activate(id);
            }
            for _ in 0..s.usize_in(n..512) {
                let id = q.pick().expect("everyone is backlogged");
                q.charge(id, quantum);
                q.activate(id);
            }
            // Every charge advances a vtime by at most
            // quantum * VT_SCALE / min_weight, and SFQ always serves the
            // minimum — so the backlogged set's normalized service
            // (vtime) never spreads wider than one such slice. In
            // service terms: no session is more than one quantum of the
            // lightest peer ahead of any other, scaled by weight.
            let min_w = ids.iter().map(|&id| q.weight(id)).min().unwrap() as u128;
            let bound = quantum.as_nanos() as u128 * VT_SCALE / min_w;
            let vts: Vec<u128> = ids.iter().map(|&id| q.vtime(id)).collect();
            let spread = vts.iter().max().unwrap() - vts.iter().min().unwrap();
            assert!(
                spread <= bound,
                "normalized service spread {spread} exceeds one quantum bound {bound} \
                 (weights {:?})",
                ids.iter().map(|&id| q.weight(id)).collect::<Vec<_>>()
            );
        });
}

#[test]
fn metrics_cardinality_gate_loses_no_counts() {
    prop("metrics_cardinality_gate_loses_no_counts")
        .cases(32)
        .corpus(SEEDS)
        .run(|s| {
            // Populations on both sides of the gate, biased to straddle
            // it: the overflow bucket must tile totals exactly whenever
            // it exists and never be minted when it doesn't.
            let users = if s.bool() {
                PER_SESSION_METRICS_MAX + s.usize_in(1..48)
            } else {
                s.usize_in(1..PER_SESSION_METRICS_MAX + 1)
            };
            let model = CostModel::paper();
            let profile = match s.choice(3) {
                0 => FaultProfile::None,
                1 => FaultProfile::Light,
                _ => FaultProfile::Heavy,
            };
            let faults = seeded_session_faults(s.u64(), users, profile);
            let sessions: Vec<SessionSpec> = faults
                .into_iter()
                .map(|f| {
                    let mut spec = SessionSpec::new(TaskSpec {
                        name: "prop".into(),
                        htod: s.in_range(1..(8 << 20)),
                        dtoh: s.in_range(1..(4 << 20)),
                        kernel_time: Nanos::from_micros(s.in_range(10..5_000)),
                        launches: s.in_range(1..4),
                    });
                    spec.weight = s.in_range(1..65) as u32;
                    spec.faults = f;
                    spec
                })
                .collect();
            let mut cfg = SchedulerConfig::new(&model);
            if s.bool() {
                cfg.max_resident = s.usize_in(1..users + 1);
            }
            let m = Metrics::new();
            let out = run_scaled(&model, &sessions, Mode::Hix, &cfg, Some(&m));

            let gated = users.min(PER_SESSION_METRICS_MAX);
            let named_service: u64 = (0..gated)
                .map(|i| m.counter(&format!("sched.s{i}.service_ns")))
                .sum();
            let named_wait: u64 = (0..gated)
                .map(|i| m.counter(&format!("sched.s{i}.wait_ns")))
                .sum();
            assert_eq!(
                named_service + m.counter("sched.overflow.service_ns"),
                m.counter("sched.service_ns"),
                "named + overflow service must tile the aggregate"
            );
            assert_eq!(
                named_wait + m.counter("sched.overflow.wait_ns"),
                out.gpu_wait.iter().map(|w| w.as_nanos()).sum::<u64>(),
                "named + overflow wait must tile the per-tenant outcome"
            );
            assert_eq!(
                m.counter("sched.overflow.sessions"),
                users.saturating_sub(PER_SESSION_METRICS_MAX) as u64,
                "overflow population is exactly the tail past the gate"
            );
            assert_eq!(
                m.counter(&format!("sched.s{}.service_ns", PER_SESSION_METRICS_MAX)),
                0,
                "no per-session counter is minted past the gate"
            );
        });
}

#[test]
fn park_then_unseal_round_trips_byte_identical() {
    prop("park_then_unseal_round_trips_byte_identical")
        .cases(12)
        .corpus(SEEDS)
        .run(|s| {
            let mut m = standard_rig(RigOptions::default());
            let mut enclave =
                GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("enclave launches");
            let mut sess = HixSession::connect(&mut m, &mut enclave).expect("session");
            let a = sess.malloc(&mut m, &mut enclave, 8192).expect("malloc");
            let data = s.vec_u8(1..4096);
            sess.memcpy_htod(&mut m, &mut enclave, a, &Payload::from_bytes(data.clone()))
                .expect("htod");
            let before = sess
                .memcpy_dtoh(&mut m, &mut enclave, a, data.len() as u64)
                .expect("dtoh before parking");
            assert_eq!(before.bytes(), &data[..]);

            let id = sess.id();
            enclave.park_session(&mut m, id).expect("parks");
            assert!(enclave.is_parked(id), "session must be in the parked set");
            assert_eq!(enclave.parked_count(), 1);

            // Waking the user transparently unseals the parked record,
            // re-keys, and replays the journal (parking never resumes
            // device state — it rebuilds it).
            let reestablished = sess.resume(&mut m, &mut enclave).expect("resume");
            assert!(
                reestablished,
                "a parked session resumes via re-establishment"
            );
            assert!(!enclave.is_parked(id));
            assert!(sess.epoch() > 0, "re-establishment mints fresh keys");

            let after = sess
                .memcpy_dtoh(&mut m, &mut enclave, a, data.len() as u64)
                .expect("dtoh after unseal");
            assert_eq!(
                before.bytes(),
                after.bytes(),
                "park/unseal round-trip must be byte-identical"
            );
        });
}
