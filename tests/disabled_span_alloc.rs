//! A span guard with nowhere to record is free: with a disabled recorder
//! and no trace lane bound, opening and dropping one — a phase span, a
//! lane-only span with a `format_args!` name, or the engine's per-run lane
//! binding on a disabled tracer — makes no heap allocation. Untraced runs
//! open such guards per batch, per frame and per CFG build.
//!
//! The binary holds this one test so no other test thread allocates while
//! the counter runs.

use spo_obs::trace::{self, Tracer};
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

/// One untraced engine batch's worth of guards.
fn guards(rec: &Recorder, tracer: &Tracer, batch: usize) {
    let _bound = trace::bind(&tracer.lane(format_args!("lib/worker{batch:02}")));
    let _batch = trace::span_now(format_args!("batch ({batch} roots)"), "batch");
    let _cfg = rec.span("jir.cfg");
}

#[test]
fn a_span_guard_with_no_sink_allocates_nothing() {
    let rec = Recorder::disabled();
    let tracer = Tracer::disabled();
    // The first touch of the thread-local lane slot may register its
    // destructor; that one-time set-up is not a per-guard cost.
    guards(&rec, &tracer, 0);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for batch in 1..=1_000 {
        guards(&rec, &tracer, batch);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocations, 0, "disabled span guards allocated");
}
