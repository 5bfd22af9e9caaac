//! Allocation budget of the secure transfer path. A counting global
//! allocator records the allocations of 64 KiB or more that the test's
//! own thread makes while it is armed (other test threads in this
//! binary are never counted). After one warm-up round on a connected
//! session, a 1 KiB HtoD + DtoH round must make none: the in-GPU crypto
//! kernels run in the device's reused scratch, sized by the transfer
//! and not by the pipeline chunk; the DMA walks copy page to page; and
//! the runtime seals and opens through one session-owned chunk buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_sim::Payload;

/// The smallest allocation the budget counts.
const LARGE: usize = 64 << 10;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Counts a request for `size` bytes if it is large and this thread is
/// armed. Never allocates; a thread being torn down is not counted.
fn note(size: usize) {
    if size < LARGE || !ARMED.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    let _ = LARGE_ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

struct Counting;

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping only touches const-initialized thread-locals.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` armed; returns its result, the number of large allocations
/// this thread made meanwhile, and the largest of them.
fn large_allocs_during<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    LARGE_ALLOCS.with(|n| n.set(0));
    LARGEST.with(|m| m.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LARGE_ALLOCS.with(Cell::get), LARGEST.with(Cell::get))
}

#[test]
fn counter_sees_large_allocations_on_this_thread_only() {
    let ((), n, largest) = large_allocs_during(|| {
        drop(std::hint::black_box(vec![0u8; LARGE]));
        drop(std::hint::black_box(vec![0u8; LARGE - 1]));
        std::thread::spawn(|| drop(std::hint::black_box(vec![0u8; 4 * LARGE])))
            .join()
            .unwrap();
    });
    assert_eq!((n, largest), (1, LARGE));
}

#[test]
fn small_round_trip_makes_no_large_allocation_after_warm_up() {
    let mut machine = standard_rig(RigOptions::default());
    let mut enclave = GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default()).unwrap();
    let mut session = HixSession::connect(&mut machine, &mut enclave).unwrap();
    let dev = session.malloc(&mut machine, &mut enclave, 1 << 10).unwrap();
    let payload = Payload::from_bytes((0..1024u32).map(|i| (i * 7) as u8).collect());
    let mut round = || {
        session.memcpy_htod(&mut machine, &mut enclave, dev, &payload).unwrap();
        session.memcpy_dtoh(&mut machine, &mut enclave, dev, 1 << 10).unwrap()
    };
    assert_eq!(round().bytes(), payload.bytes(), "warm-up round");
    let (back, n, largest) = large_allocs_during(&mut round);
    assert_eq!(back.bytes(), payload.bytes());
    assert_eq!(n, 0, "{n} allocations of 64 KiB or more (largest {largest} bytes) in a 1 KiB round");
}
