//! The weighted-fair scheduling core behind the multi-tenant model.
//!
//! [`FairQueue`] is a start-time fair queue over arena-backed session
//! slots: every session carries a *virtual time* — its cumulative GPU
//! service normalized by its weight — and the scheduler always serves
//! the active session with the smallest virtual time, in `O(log n)` per
//! decision (binary heap with lazy deletion, no per-session `Vec`
//! scans). Sessions are addressed by dense slot indices handed out by
//! [`FairQueue::insert`], never by searching.
//!
//! Two rules make the queue fair *and* safe for sparse, event-driven
//! workloads:
//!
//! * **Activation clamp** — a session (re)entering the active set has
//!   its virtual time clamped up to the queue's virtual floor, so an
//!   idle session can never hoard credit and then monopolize the engine
//!   (the classic start-time fair queuing rule).
//! * **Floor monotonicity** — the virtual floor only advances to the
//!   virtual time of the session just picked, which is the *minimum*
//!   over the active set; hence every active session's deficit
//!   ([`FairQueue::deficit`], its virtual lead over the floor) is
//!   provably non-negative — a property the pinned-tape suite
//!   (`proptest_scheduler.rs`) checks against a reference model.
//!
//! The queue is a pure object (no clock, no machine) so it can be
//! property-tested exhaustively, exactly like the watchdog's
//! `EscalationLadder`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hix_sim::Nanos;

/// Virtual-time units per (nanosecond of service / unit of weight).
/// The scale keeps integer division losses far below one nanosecond of
/// service even at the maximum weight.
pub const VT_SCALE: u128 = 1 << 16;

/// A session's slot index in the queue's arena.
pub type SlotId = usize;

#[derive(Debug, Clone)]
struct Entry {
    weight: u32,
    /// Cumulative normalized service, in [`VT_SCALE`] units.
    vtime: u128,
    active: bool,
    /// Bumped on every activation; heap entries carry the stamp they
    /// were pushed with, so stale entries are skipped on pop (lazy
    /// deletion keeps every operation `O(log n)`).
    stamp: u64,
}

/// An `O(log n)` weighted start-time fair queue (see module docs).
#[derive(Debug, Default)]
pub struct FairQueue {
    entries: Vec<Entry>,
    /// Min-heap of `(vtime, slot, stamp)`; ties resolve by slot index,
    /// which keeps the service order deterministic and independent of
    /// unrelated sessions.
    heap: BinaryHeap<Reverse<(u128, SlotId, u64)>>,
    /// The virtual floor: the virtual time of the most recently picked
    /// session. Never decreases.
    vfloor: u128,
    active: usize,
}

impl FairQueue {
    /// An empty queue.
    pub fn new() -> Self {
        FairQueue::default()
    }

    /// Adds a session with the given `weight` (service share relative to
    /// its peers) and returns its slot. The session starts inactive with
    /// zero deficit.
    ///
    /// # Panics
    ///
    /// Weights must be nonzero.
    pub fn insert(&mut self, weight: u32) -> SlotId {
        assert!(weight > 0, "a zero-weight session would never be served");
        let id = self.entries.len();
        self.entries.push(Entry {
            weight,
            vtime: self.vfloor,
            active: false,
            stamp: 0,
        });
        id
    }

    /// Marks a session ready for service. Idempotent for already-active
    /// sessions. The activation clamp raises its virtual time to the
    /// current floor so time spent idle earns no credit.
    pub fn activate(&mut self, id: SlotId) {
        let e = &mut self.entries[id];
        if e.active {
            return;
        }
        e.active = true;
        e.vtime = e.vtime.max(self.vfloor);
        e.stamp += 1;
        self.active += 1;
        self.heap.push(Reverse((e.vtime, id, e.stamp)));
    }

    /// Picks the active session with the smallest virtual time (ties by
    /// slot index), removes it from the active set, and advances the
    /// virtual floor to its virtual time. Returns `None` when nothing is
    /// active.
    pub fn pick(&mut self) -> Option<SlotId> {
        while let Some(Reverse((vtime, id, stamp))) = self.heap.pop() {
            let e = &mut self.entries[id];
            if !e.active || e.stamp != stamp {
                continue; // lazily deleted
            }
            e.active = false;
            self.active -= 1;
            debug_assert!(
                vtime >= self.vfloor,
                "floor must never overtake the minimum"
            );
            self.vfloor = self.vfloor.max(vtime);
            return Some(id);
        }
        None
    }

    /// Charges `service` worth of engine time to a session: its virtual
    /// time advances by `service / weight`. Typically called between
    /// [`pick`](Self::pick) and the re-[`activate`](Self::activate) for
    /// the session's next segment.
    pub fn charge(&mut self, id: SlotId, service: Nanos) {
        let e = &mut self.entries[id];
        debug_assert!(!e.active, "charge the picked (inactive) session");
        e.vtime += service.as_nanos() as u128 * VT_SCALE / e.weight as u128;
    }

    /// The session's *deficit*: its normalized-service lead over the
    /// virtual floor, in [`VT_SCALE`] units. By the floor-monotonicity
    /// invariant this can never go negative — the subtraction is checked
    /// (it would panic, and the property suite hunts for exactly that).
    pub fn deficit(&self, id: SlotId) -> u128 {
        let e = &self.entries[id];
        if e.active {
            e.vtime
                .checked_sub(self.vfloor)
                .expect("active session fell behind the virtual floor")
        } else {
            // An inactive session may sit arbitrarily far behind the
            // floor (it was idle); its deficit is clamped at activation.
            e.vtime.saturating_sub(self.vfloor)
        }
    }

    /// The session's cumulative normalized service, in [`VT_SCALE`]
    /// units.
    pub fn vtime(&self, id: SlotId) -> u128 {
        self.entries[id].vtime
    }

    /// The session's weight.
    pub fn weight(&self, id: SlotId) -> u32 {
        self.entries[id].weight
    }

    /// The current virtual floor.
    pub fn vfloor(&self) -> u128 {
        self.vfloor
    }

    /// Whether the session is currently active (awaiting service).
    pub fn is_active(&self, id: SlotId) -> bool {
        self.entries[id].active
    }

    /// Number of sessions awaiting service.
    pub fn active_len(&self) -> usize {
        self.active
    }

    /// Number of slots ever inserted.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no slots were ever inserted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_in_vtime_order_with_index_ties() {
        let mut q = FairQueue::new();
        let a = q.insert(1);
        let b = q.insert(1);
        let c = q.insert(1);
        for id in [a, b, c] {
            q.activate(id);
        }
        // All equal vtime: ties resolve by slot index.
        assert_eq!(q.pick(), Some(a));
        q.charge(a, Nanos::from_millis(5));
        q.activate(a);
        assert_eq!(q.pick(), Some(b));
        q.charge(b, Nanos::from_millis(1));
        q.activate(b);
        // b (1 ms) is now behind a (5 ms) and ahead of c (0).
        assert_eq!(q.pick(), Some(c));
        q.charge(c, Nanos::from_millis(2));
        q.activate(c);
        assert_eq!(q.pick(), Some(b));
    }

    #[test]
    fn weights_bias_service_share() {
        let mut q = FairQueue::new();
        let heavy = q.insert(4);
        let light = q.insert(1);
        let mut served = [0u64; 2];
        q.activate(heavy);
        q.activate(light);
        for _ in 0..50 {
            let id = q.pick().unwrap();
            served[id] += 1;
            q.charge(id, Nanos::from_millis(5));
            q.activate(id);
        }
        // A weight-4 session must get ~4x the slices of a weight-1 peer.
        assert!(served[heavy] >= served[light] * 3, "{served:?}");
    }

    #[test]
    fn idle_session_earns_no_credit() {
        let mut q = FairQueue::new();
        let worker = q.insert(1);
        let sleeper = q.insert(1);
        q.activate(worker);
        for _ in 0..10 {
            let id = q.pick().unwrap();
            assert_eq!(id, worker);
            q.charge(id, Nanos::from_millis(5));
            q.activate(id);
        }
        // The sleeper wakes: its vtime is clamped to the floor, so it
        // gets at most alternating service, not a 50 ms catch-up burst.
        q.activate(sleeper);
        let first = q.pick().unwrap();
        assert_eq!(first, sleeper, "the newcomer starts at the floor");
        q.charge(first, Nanos::from_millis(5));
        q.activate(first);
        assert_eq!(q.pick(), Some(worker), "then service alternates");
        assert_eq!(q.deficit(sleeper), 0);
    }

    #[test]
    fn deficit_is_never_negative_and_floor_monotone() {
        let mut q = FairQueue::new();
        let ids: Vec<_> = (0..8).map(|i| q.insert(1 + (i % 3))).collect();
        for &id in &ids {
            q.activate(id);
        }
        let mut floor = 0u128;
        for step in 0..200 {
            let id = q.pick().unwrap();
            assert!(q.vfloor() >= floor, "floor regressed at step {step}");
            floor = q.vfloor();
            q.charge(id, Nanos::from_micros(1 + step * 7 % 9000));
            q.activate(id);
            for &other in &ids {
                let _ = q.deficit(other); // checked subtraction inside
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero-weight")]
    fn zero_weight_rejected() {
        let _ = FairQueue::new().insert(0);
    }
}
