//! Allocation budgets of the policy back end, measured on the generated
//! scale-1 jdk implementation:
//!
//! - decoding its exported index with `PolicyIndex::to_libraries` may make
//!   at most [`BUDGET_PER_ENTRY`] allocations per map entry (each record
//!   is one entry of the full map and one of the intra map). Names are
//!   shared per index, the per-event and per-check maps are sorted
//!   vectors, a one-path disjunction is held inline, and an intra policy
//!   equal to its full one is the same `Arc`, decoded once, so an entry
//!   costs its map key and, when not shared, its signature, its `Arc` and
//!   about one allocation per map;
//! - one full analysis may make at most [`BUDGET_PER_ROOT`] allocations per
//!   analysed entry point.
//!
//! The binary holds this one test so no other test thread allocates while
//! the counter runs.

use spo_core::{AnalysisOptions, Analyzer};
use spo_corpus::{CorpusConfig, Lib};
use spo_index::{IndexBuilder, PolicyIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The most allocations one decoded map entry may cost on average
/// (measured: 4.49; 5.95 with the intra policy decoded separately even
/// when equal, 9.45 with a `String` per name and a B-tree per map).
const BUDGET_PER_ENTRY: f64 = 4.9;

/// The most allocations one analysed entry point may cost on average
/// (measured: 42.3 with each finished entry wrapped in an `Arc`; 55.0 with
/// a `String` per name and a B-tree per map).
const BUDGET_PER_ROOT: f64 = 44.0;

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

/// Allocations made while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn decode_and_analysis_stay_within_their_allocation_budgets() {
    let corpus = spo_corpus::generate(&CorpusConfig {
        seed: 1,
        scale: 1.0,
    });
    let program = corpus.program(Lib::Jdk);
    let options = AnalysisOptions::default();
    let intra_options = AnalysisOptions {
        interprocedural: false,
        ..options
    };

    let analyzer = Analyzer::new(program, options);
    let (allocations, full) = counted(|| analyzer.analyze_library("jdk"));
    let roots = full.stats.entry_points;
    assert!(roots > 5_000, "only {roots} entry points analysed");
    let per_root = allocations as f64 / roots as f64;
    eprintln!("analysis: {allocations} allocations for {roots} roots, {per_root:.2} per root");
    assert!(
        per_root <= BUDGET_PER_ROOT,
        "{allocations} allocations for {roots} roots: {per_root:.2} per root, \
         budget {BUDGET_PER_ROOT}"
    );

    let intra = Analyzer::new(program, intra_options).analyze_library("jdk");
    let bytes = IndexBuilder::new("jdk", &options, &full, &intra)
        .build()
        .expect("a clean analysis compiles");
    drop((full, intra));
    let index = PolicyIndex::parse(&bytes).expect("the built index parses");
    let (allocations, (full, intra)) = counted(|| index.to_libraries().expect("the index decodes"));
    let entries = 2 * index.len();
    assert_eq!(full.entries.len() + intra.entries.len(), entries);
    let per_entry = allocations as f64 / entries as f64;
    eprintln!(
        "decode: {allocations} allocations for {entries} map entries, {per_entry:.2} per entry"
    );
    assert!(
        per_entry <= BUDGET_PER_ENTRY,
        "{allocations} allocations for {entries} decoded map entries: {per_entry:.2} per \
         entry, budget {BUDGET_PER_ENTRY}"
    );
    // Every intra entry equal to its full entry is that entry, not a copy.
    let mut shared = 0;
    for (sig, f) in &full.entries {
        let i = &intra.entries[sig];
        if f == i {
            assert!(std::sync::Arc::ptr_eq(f, i), "{sig}: equal but not shared");
            shared += 1;
        }
    }
    assert!(shared * 2 > index.len(), "only {shared} shared entries");
}
