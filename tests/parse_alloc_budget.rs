//! Allocation budget of the `.jir` front end: parsing a generated scale-1
//! jdk text may make at most [`BUDGET_PER_STMT`] heap allocations per
//! parsed statement. Tokens borrow the source text, so what remains is the
//! `Program` itself (bodies, statement vectors, interned strings) plus a few
//! per-method scratch tables; an owned string per token would blow the
//! budget several times over.
//!
//! The binary holds this one test so no other test thread allocates while
//! the counter runs.

use spo_corpus::{CorpusConfig, Lib};
use spo_jir::{parse_into_recovering, print_program, Program};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The most allocations one parsed statement may cost on average.
const BUDGET_PER_STMT: f64 = 8.0;

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

#[test]
fn parsing_stays_within_the_per_statement_allocation_budget() {
    let corpus = spo_corpus::generate(&CorpusConfig {
        seed: 1,
        scale: 1.0,
    });
    let text = print_program(corpus.program(Lib::Jdk));
    drop(corpus);

    let mut program = Program::new();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let recovery = parse_into_recovering(&text, &mut program);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(recovery.is_clean(), "{:?}", recovery.diagnostics);
    let stmts = program.stmt_count();
    assert!(stmts > 10_000, "only {stmts} statements parsed");
    let per_stmt = allocations as f64 / stmts as f64;
    assert!(
        per_stmt <= BUDGET_PER_STMT,
        "{allocations} allocations for {stmts} statements: {per_stmt:.2} per statement, \
         budget {BUDGET_PER_STMT}"
    );
}
