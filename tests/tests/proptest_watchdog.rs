//! Pinned-tape property suite for the TDR watchdog's escalation ladder
//! (deadline → kill → reset ordering, closed-form bounded recovery) and
//! for the zero-fault baseline: a machine with no fault plan must never
//! see a single watchdog action.
//!
//! Runs on the in-tree `hix-testkit` harness.

use hix_core::recovery::{EscalationLadder, WatchdogAction};
use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_sim::{Nanos, Payload};
use hix_testkit::prop::{prop, Source};

/// Random-but-sane ladder parameters. `base` stays nonzero: a zero
/// backoff base never accumulates toward the patience deadline (the
/// real watchdog derives it from `ipc_roundtrip`, which is positive).
fn ladder(s: &mut Source) -> (EscalationLadder, Nanos, Nanos, Nanos, u32) {
    let patience = Nanos::from_nanos(s.in_range(0..2_000_000));
    let base = Nanos::from_nanos(s.in_range(1..50_000));
    let cap = Nanos::from_nanos(s.in_range(base.as_nanos()..1_000_000));
    let kill_grace = Nanos::from_nanos(s.in_range(0..1_000_000));
    let checks = s.in_range(0..6) as u32;
    (
        EscalationLadder::new(patience, base, cap, kill_grace, checks),
        patience,
        kill_grace,
        cap.max(base),
        checks,
    )
}

/// Drives a ladder to exhaustion (the engine never recovers) and
/// returns the full action tape.
fn drain(ladder: &mut EscalationLadder) -> Vec<WatchdogAction> {
    let mut actions = Vec::new();
    loop {
        let a = ladder.next_action();
        actions.push(a);
        if a == WatchdogAction::Reset {
            return actions;
        }
    }
}

#[test]
fn ladder_orders_deadline_then_kill_then_reset() {
    prop("ladder_orders_deadline_then_kill_then_reset").run(|s| {
        let (mut l, patience, kill_grace, cap, checks) = ladder(s);
        let actions = drain(&mut l);

        let kill_at = actions
            .iter()
            .position(|a| *a == WatchdogAction::Kill)
            .expect("exactly one kill rung");
        assert_eq!(
            actions
                .iter()
                .filter(|a| **a == WatchdogAction::Kill)
                .count(),
            1
        );
        assert_eq!(*actions.last().unwrap(), WatchdogAction::Reset);
        assert_eq!(
            actions
                .iter()
                .filter(|a| **a == WatchdogAction::Reset)
                .count(),
            1
        );

        // Pre-kill: capped exponential waits whose sum first crosses the
        // patience deadline exactly at the kill rung.
        let mut waited = Nanos::ZERO;
        let mut prev: Option<Nanos> = None;
        for a in &actions[..kill_at] {
            let WatchdogAction::Wait(d) = *a else {
                panic!("only waits may precede the kill, got {a:?}");
            };
            assert!(d <= cap, "backoff wait {d:?} exceeds the cap {cap:?}");
            if let Some(p) = prev {
                assert!(d >= p, "backoff must be non-decreasing");
            }
            prev = Some(d);
            assert!(
                waited < patience,
                "the ladder kept waiting after the deadline passed"
            );
            waited += d;
        }
        assert!(
            waited >= patience,
            "the kill fired before the patience deadline ({waited:?} < {patience:?})"
        );

        // Post-kill: exactly `checks` grace re-polls of `kill_grace`
        // each, then the reset.
        let grace = &actions[kill_at + 1..actions.len() - 1];
        assert_eq!(grace.len(), checks as usize);
        for a in grace {
            assert_eq!(*a, WatchdogAction::Wait(kill_grace));
        }
    });
}

#[test]
fn ladder_total_wait_bounded_by_closed_form() {
    prop("ladder_total_wait_bounded_by_closed_form").run(|s| {
        let (mut l, _, _, _, _) = ladder(s);
        let bound = l.max_recovery_wait();
        let actions = drain(&mut l);
        let total: u64 = actions
            .iter()
            .filter_map(|a| match a {
                WatchdogAction::Wait(d) => Some(d.as_nanos()),
                _ => None,
            })
            .sum();
        assert!(
            Nanos::from_nanos(total) <= bound,
            "waited {total}ns, closed-form bound {bound:?}"
        );
        assert_eq!(l.waited(), Nanos::from_nanos(total));
    });
}

#[test]
fn zero_faults_mean_zero_watchdog_actions() {
    prop("zero_faults_mean_zero_watchdog_actions")
        .cases(24)
        .run(|s| {
            let mut m = standard_rig(RigOptions::default());
            let mut enclave =
                GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("enclave launches");
            let mut sess = HixSession::connect(&mut m, &mut enclave).expect("session");
            let a = sess.malloc(&mut m, &mut enclave, 8192).expect("malloc");
            let b = sess.malloc(&mut m, &mut enclave, 8192).expect("malloc");
            let n_ops = s.usize_in(1..12);
            for _ in 0..n_ops {
                match s.choice(5) {
                    0 => {
                        let data = s.vec_u8(1..4096);
                        sess.memcpy_htod(&mut m, &mut enclave, a, &Payload::from_bytes(data))
                            .expect("htod");
                    }
                    1 => {
                        sess.memcpy_dtod(&mut m, &mut enclave, a, b, 4096)
                            .expect("dtod");
                    }
                    2 => {
                        sess.memcpy_dtoh(&mut m, &mut enclave, b, 4096)
                            .expect("dtoh");
                    }
                    3 => {
                        sess.memset(&mut m, &mut enclave, a, 4096, s.u8())
                            .expect("memset");
                    }
                    _ => {
                        sess.sync(&mut m, &mut enclave).expect("sync");
                    }
                }
            }
            let metrics = m.trace().metrics();
            for counter in [
                "watchdog.hangs_detected",
                "watchdog.kills",
                "watchdog.resets",
                "watchdog.ecc_kills",
                "watchdog.spurious_cleared",
                "watchdog.transient_recovered",
                "watchdog.recoveries",
                "watchdog.offenses",
                "watchdog.evictions",
                "fault.injected",
            ] {
                assert_eq!(
                    metrics.counter(counter),
                    0,
                    "{counter} fired on a fault-free run"
                );
            }
            assert_eq!(sess.epoch(), 0, "no re-key without a fault");
        });
}
