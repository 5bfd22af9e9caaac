//! The trusted side's recovery primitives, each a pure state machine
//! the property suites exercise in isolation: the channel's
//! [`ReplayWindow`] (anti-replay with forward tolerance for
//! retransmission gaps), the user runtime's [`Backoff`] (capped
//! exponential retransmit schedule) and the TDR watchdog's
//! [`EscalationLadder`]. They sit inside the TCB; the adversary they
//! recover from is `hix_sim::fault`.

use hix_sim::Nanos;

/// Verdict of a [`ReplayWindow`] check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqCheck {
    /// New, within the forward window — safe to authenticate.
    Fresh,
    /// At or behind the last accepted sequence — a replay or idle slot.
    Stale,
    /// Beyond the forward window — the wire state is unrecoverable
    /// without a re-key.
    TooFar,
}

/// Anti-replay window over wire sequence numbers. Every transmission
/// (including retransmissions) burns a fresh sequence, so the receiver
/// must tolerate forward *gaps* (dropped transmissions) up to `window`,
/// while anything at or behind the high-water mark is a replay.
#[derive(Debug, Clone)]
pub struct ReplayWindow {
    last: u64,
    window: u64,
}

/// Default forward tolerance: comfortably above the retry cap so a
/// burst of dropped retransmissions never strands the channel.
pub const REPLAY_WINDOW: u64 = 64;

impl Default for ReplayWindow {
    fn default() -> Self {
        ReplayWindow::new(REPLAY_WINDOW)
    }
}

impl ReplayWindow {
    /// A window accepting `last+1 ..= last+window`.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        ReplayWindow { last: 0, window }
    }

    /// Classifies `seq` without advancing.
    pub fn check(&self, seq: u64) -> SeqCheck {
        if seq <= self.last {
            SeqCheck::Stale
        } else if seq > self.last.saturating_add(self.window) {
            SeqCheck::TooFar
        } else {
            SeqCheck::Fresh
        }
    }

    /// Classifies `seq` and advances the high-water mark when fresh.
    pub fn accept(&mut self, seq: u64) -> SeqCheck {
        let verdict = self.check(seq);
        if verdict == SeqCheck::Fresh {
            self.last = seq;
        }
        verdict
    }

    /// The last accepted sequence number.
    pub fn last(&self) -> u64 {
        self.last
    }

    /// Resets to the initial state (after a re-key epoch change).
    pub fn reset(&mut self) {
        self.last = 0;
    }
}

/// Capped exponential backoff over virtual time: `base, 2·base, 4·base,
/// …` saturating at `cap`.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Nanos,
    cap: Nanos,
    next: Nanos,
}

impl Backoff {
    /// A schedule starting at `base` and never exceeding
    /// `max(base, cap)`.
    pub fn new(base: Nanos, cap: Nanos) -> Self {
        let cap = cap.max(base);
        Backoff {
            base,
            cap,
            next: base,
        }
    }

    /// The next delay; doubles the following one up to the cap.
    pub fn next_delay(&mut self) -> Nanos {
        let d = self.next;
        self.next = Nanos::from_nanos(d.as_nanos().saturating_mul(2)).min(self.cap);
        d
    }

    /// Restarts the schedule at `base` (after a successful exchange).
    pub fn reset(&mut self) {
        self.next = self.base;
    }
}

/// One step of the TDR escalation ladder, as directed by
/// [`EscalationLadder::next_action`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogAction {
    /// Advance virtual time by this much and re-poll the engine.
    Wait(Nanos),
    /// Ring the per-context kill doorbell, then keep polling through
    /// the grace period.
    Kill,
    /// The context ignored the kill: perform a full secure device
    /// reset.
    Reset,
}

/// The watchdog's staged escalation policy as a pure state machine,
/// property-testable in isolation: capped-exponential re-polls until
/// the patience deadline, then a per-context kill, then a bounded
/// grace period of re-polls, then a full device reset. Total virtual
/// time spent waiting is bounded by the closed form
/// [`max_recovery_wait`](EscalationLadder::max_recovery_wait).
#[derive(Debug, Clone)]
pub struct EscalationLadder {
    backoff: Backoff,
    cap: Nanos,
    patience: Nanos,
    waited: Nanos,
    kill_grace: Nanos,
    grace_left: u32,
    grace_total: u32,
    kill_sent: bool,
    reset_sent: bool,
}

impl EscalationLadder {
    /// A ladder that re-polls (backoff `base`→`cap`) until cumulative
    /// waits reach `patience`, kills, grants `kill_checks` re-polls of
    /// `kill_grace` each, then resets.
    pub fn new(
        patience: Nanos,
        base: Nanos,
        cap: Nanos,
        kill_grace: Nanos,
        kill_checks: u32,
    ) -> Self {
        let cap = cap.max(base);
        EscalationLadder {
            backoff: Backoff::new(base, cap),
            cap,
            patience,
            waited: Nanos::ZERO,
            kill_grace,
            grace_left: kill_checks,
            grace_total: kill_checks,
            kill_sent: false,
            reset_sent: false,
        }
    }

    /// The next action while the engine still reports busy.
    ///
    /// # Panics
    ///
    /// If called again after directing a [`WatchdogAction::Reset`] —
    /// a reset leaves the device provably idle, so a still-busy engine
    /// after one is a simulator bug, never a recoverable state.
    pub fn next_action(&mut self) -> WatchdogAction {
        assert!(
            !self.reset_sent,
            "escalation ladder exhausted: reset already directed"
        );
        if !self.kill_sent {
            if self.waited < self.patience {
                let d = self.backoff.next_delay();
                self.waited += d;
                return WatchdogAction::Wait(d);
            }
            self.kill_sent = true;
            return WatchdogAction::Kill;
        }
        if self.grace_left > 0 {
            self.grace_left -= 1;
            self.waited += self.kill_grace;
            return WatchdogAction::Wait(self.kill_grace);
        }
        self.reset_sent = true;
        WatchdogAction::Reset
    }

    /// Whether the kill rung has been directed.
    pub fn kill_sent(&self) -> bool {
        self.kill_sent
    }

    /// Whether the reset rung has been directed.
    pub fn reset_sent(&self) -> bool {
        self.reset_sent
    }

    /// Cumulative virtual time the ladder has directed waiting so far.
    pub fn waited(&self) -> Nanos {
        self.waited
    }

    /// Closed-form upper bound on the total virtual time this ladder
    /// can ever direct waiting: the pre-kill phase stops at the first
    /// delay that carries `waited` past `patience` (that delay is at
    /// most `cap`), and the post-kill grace is exactly
    /// `kill_checks · kill_grace`.
    pub fn max_recovery_wait(&self) -> Nanos {
        self.patience
            + self.cap
            + Nanos::from_nanos(self.kill_grace.as_nanos() * u64::from(self.grace_total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_ladder_orders_and_bounds_recovery() {
        let us = Nanos::from_micros;
        let mut ladder = EscalationLadder::new(us(100), us(5), us(40), us(20), 3);
        let bound = ladder.max_recovery_wait();
        assert_eq!(bound, us(100) + us(40) + us(60));
        let mut actions = Vec::new();
        loop {
            let a = ladder.next_action();
            actions.push(a);
            if a == WatchdogAction::Reset {
                break;
            }
        }
        // Strict phase ordering: Wait* , Kill , Wait*, Reset.
        let kill_at = actions
            .iter()
            .position(|a| *a == WatchdogAction::Kill)
            .unwrap();
        assert!(actions[..kill_at]
            .iter()
            .all(|a| matches!(a, WatchdogAction::Wait(_))));
        assert_eq!(actions.last(), Some(&WatchdogAction::Reset));
        assert!(actions[kill_at + 1..actions.len() - 1]
            .iter()
            .all(|a| *a == WatchdogAction::Wait(us(20))));
        assert_eq!(
            actions.len() - kill_at - 2,
            3,
            "exactly kill_checks grace polls"
        );
        // 5+10+20+40+40 = 115 ≥ patience, then 3×20 grace.
        assert_eq!(ladder.waited(), us(115) + us(60));
        assert!(
            ladder.waited() <= bound,
            "closed form must bound the actual tape"
        );
        assert!(ladder.kill_sent() && ladder.reset_sent());
    }

    #[test]
    #[should_panic(expected = "escalation ladder exhausted")]
    fn escalation_ladder_refuses_post_reset_polls() {
        let us = Nanos::from_micros;
        let mut ladder = EscalationLadder::new(us(0), us(1), us(1), us(1), 0);
        assert_eq!(ladder.next_action(), WatchdogAction::Kill);
        assert_eq!(ladder.next_action(), WatchdogAction::Reset);
        let _ = ladder.next_action();
    }

    #[test]
    fn replay_window_classification() {
        let mut w = ReplayWindow::new(8);
        assert_eq!(w.accept(0), SeqCheck::Stale);
        assert_eq!(w.accept(1), SeqCheck::Fresh);
        assert_eq!(w.accept(1), SeqCheck::Stale);
        // Forward gap within the window (dropped transmissions).
        assert_eq!(w.accept(5), SeqCheck::Fresh);
        assert_eq!(w.accept(3), SeqCheck::Stale);
        assert_eq!(w.accept(5 + 8), SeqCheck::Fresh);
        assert_eq!(w.accept(13 + 9), SeqCheck::TooFar);
        assert_eq!(w.last(), 13);
        w.reset();
        assert_eq!(w.accept(1), SeqCheck::Fresh);
    }

    #[test]
    fn backoff_doubles_to_cap() {
        let us = Nanos::from_micros;
        let mut b = Backoff::new(us(5), us(40));
        assert_eq!(b.next_delay(), us(5));
        assert_eq!(b.next_delay(), us(10));
        assert_eq!(b.next_delay(), us(20));
        assert_eq!(b.next_delay(), us(40));
        assert_eq!(b.next_delay(), us(40), "capped");
        b.reset();
        assert_eq!(b.next_delay(), us(5));
        // cap below base is clamped up to base.
        let mut tiny = Backoff::new(us(8), us(1));
        assert_eq!(tiny.next_delay(), us(8));
        assert_eq!(tiny.next_delay(), us(8));
    }
}
