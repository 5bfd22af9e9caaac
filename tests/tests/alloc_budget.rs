//! Allocation budget of the secure transfer path. A counting global
//! allocator records the allocations of 64 KiB or more that the test's
//! own thread makes while it is armed (other test threads in this
//! binary are never counted). The runtime seals each HtoD chunk straight
//! into the shared window's pages and opens each DtoH chunk straight out
//! of them; the DMA walks copy page to page; `hix.ocb_encrypt` seals into
//! the VRAM staging pages through a stack page; and `hix.ocb_decrypt`
//! opens into one span of the device's reused kernel scratch, sized by
//! the transfer. So on a fresh rig the first 4 MiB + 1 KiB round makes
//! two large allocations, the scratch's growth to one pipeline chunk and
//! the DtoH output, and after a warm-up round a 1 KiB HtoD + DtoH round
//! makes none.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_sim::Payload;

/// The smallest allocation the budget counts.
const LARGE: usize = 64 << 10;

/// How many large allocation sizes a run records, in order.
const KEPT: usize = 4;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
    static SIZES: Cell<[usize; KEPT]> = const { Cell::new([0; KEPT]) };
}

/// Counts a request for `size` bytes if it is large and this thread is
/// armed, keeping the first [`KEPT`] sizes. Never allocates; a thread
/// being torn down is not counted.
fn note(size: usize) {
    if size < LARGE || !ARMED.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    let _ = LARGE_ALLOCS.try_with(|n| {
        let _ = SIZES.try_with(|s| {
            let mut sizes = s.get();
            if let Some(slot) = sizes.get_mut(n.get()) {
                *slot = size;
            }
            s.set(sizes);
        });
        n.set(n.get() + 1);
    });
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
/// this thread made meanwhile, and the first [`KEPT`] of their sizes in
/// order (zero past the count).
fn large_allocs_during<T>(f: impl FnOnce() -> T) -> (T, usize, [usize; KEPT]) {
    LARGE_ALLOCS.with(|n| n.set(0));
    SIZES.with(|s| s.set([0; KEPT]));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LARGE_ALLOCS.with(Cell::get), SIZES.with(Cell::get))
}

#[test]
fn counter_sees_large_allocations_on_this_thread_only() {
    let ((), n, sizes) = large_allocs_during(|| {
        drop(std::hint::black_box(vec![0u8; LARGE]));
        drop(std::hint::black_box(vec![0u8; LARGE - 1]));
        std::thread::spawn(|| drop(std::hint::black_box(vec![0u8; 4 * LARGE])))
            .join()
            .unwrap();
        drop(std::hint::black_box(vec![0u8; 2 * LARGE]));
    });
    assert_eq!((n, sizes), (2, [LARGE, 2 * LARGE, 0, 0]));
}

#[test]
fn first_multi_chunk_round_allocates_the_scratch_and_the_output_only() {
    let mut machine = standard_rig(RigOptions::default());
    let chunk = machine.model().pipeline_chunk as usize;
    let mut enclave = GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default()).unwrap();
    let mut session = HixSession::connect(&mut machine, &mut enclave).unwrap();
    let len = chunk + 1024;
    let dev = session
        .malloc(&mut machine, &mut enclave, len as u64)
        .unwrap();
    let payload = Payload::from_bytes((0..len as u32).map(|i| (i * 11) as u8).collect());
    let (back, n, sizes) = large_allocs_during(|| {
        session
            .memcpy_htod(&mut machine, &mut enclave, dev, &payload)
            .unwrap();
        session
            .memcpy_dtoh(&mut machine, &mut enclave, dev, len as u64)
            .unwrap()
    });
    assert!(back.bytes() == payload.bytes(), "the round trip lost data");
    assert_eq!(
        (n, sizes),
        (2, [chunk, len, 0, 0]),
        "want the decrypt scratch's growth to one chunk and the DtoH output"
    );
}

#[test]
fn small_round_trip_makes_no_large_allocation_after_warm_up() {
    let mut machine = standard_rig(RigOptions::default());
    let mut enclave = GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default()).unwrap();
    let mut session = HixSession::connect(&mut machine, &mut enclave).unwrap();
    let dev = session.malloc(&mut machine, &mut enclave, 1 << 10).unwrap();
    let payload = Payload::from_bytes((0..1024u32).map(|i| (i * 7) as u8).collect());
    let mut round = || {
        session
            .memcpy_htod(&mut machine, &mut enclave, dev, &payload)
            .unwrap();
        session
            .memcpy_dtoh(&mut machine, &mut enclave, dev, 1 << 10)
            .unwrap()
    };
    assert_eq!(round().bytes(), payload.bytes(), "warm-up round");
    let (back, n, sizes) = large_allocs_during(&mut round);
    assert_eq!(back.bytes(), payload.bytes());
    assert_eq!(
        n, 0,
        "{n} allocations of 64 KiB or more (first sizes {sizes:?}) in a 1 KiB round"
    );
}
