//! Re-registering a metric handle is free: once a name is in an enabled
//! recorder, asking for its counter, work counter, histogram or duration
//! again makes no heap allocation. With stats on, every root's pass
//! registers its handles anew.
//!
//! The binary holds this one test so no other test thread allocates while
//! the counter runs.

use spo_obs::Recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation, then defers to [`System`].
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One pass's worth of handle registrations, each used once.
fn register(rec: &Recorder) {
    rec.counter("ispa.frames").incr();
    rec.work_counter("ispa.speculative.frames").incr();
    rec.histogram("fixpoint.transfers").record(3);
    rec.duration("ispa.root").record(1_000);
}

#[test]
fn re_registering_a_known_name_allocates_nothing() {
    let rec = Recorder::new();
    // The first registration inserts the names; that is the only cost.
    register(&rec);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        register(&rec);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocations, 0, "re-registration allocated");

    let snap = rec.snapshot();
    assert_eq!(snap.counters["ispa.frames"], 1_001);
    assert_eq!(snap.work["ispa.speculative.frames"], 1_001);
}
