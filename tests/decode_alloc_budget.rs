//! Allocation budgets of the policy back end, measured on the generated
//! scale-1 jdk implementation:
//!
//! - decoding its exported index with `PolicyIndex::to_libraries` may make
//!   at most [`BUDGET_PER_POLICY`] allocations per decoded `EntryPolicy`
//!   (each record decodes into a full and an intra policy). Names are
//!   shared per index, the per-event and per-check maps are sorted
//!   vectors, and a one-path disjunction is held inline, so a policy costs
//!   its signature, its map key and about one allocation per map;
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

/// The most allocations one decoded `EntryPolicy` may cost on average
/// (measured: 5.95; 9.45 with a `String` per name and a B-tree per map).
const BUDGET_PER_POLICY: f64 = 6.5;

/// The most allocations one analysed entry point may cost on average
/// (measured: 41.3; 55.0 with a `String` per name and a B-tree per map).
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
    let (allocations, decoded) = counted(|| index.to_libraries().expect("the index decodes"));
    let policies = 2 * index.len();
    assert_eq!(decoded.0.entries.len() + decoded.1.entries.len(), policies);
    let per_policy = allocations as f64 / policies as f64;
    eprintln!(
        "decode: {allocations} allocations for {policies} policies, {per_policy:.2} per policy"
    );
    assert!(
        per_policy <= BUDGET_PER_POLICY,
        "{allocations} allocations for {policies} decoded policies: {per_policy:.2} per \
         policy, budget {BUDGET_PER_POLICY}"
    );
}
