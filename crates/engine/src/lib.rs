//! # spo-engine — the parallel analysis driver
//!
//! The policy analysis is embarrassingly parallel across API entry points:
//! each root's pass only reads the program and the shared memo table. This
//! crate drives one library's entry points across N work-stealing workers
//! backed by a sharded concurrent
//! [`SharedStore`], then merges the per-root policies **in root order** so
//! the result is byte-identical to the serial analyzer no matter the
//! thread count.
//!
//! ## Why parallel results equal serial results
//!
//! * Only *clean* summaries — whose subtree was not cut by recursion — are
//!   memoized, and a clean summary is a pure function of its memo key
//!   `(method, in-policy, const-params, privileged)`. A memo hit therefore
//!   returns exactly what recomputation would have produced, regardless of
//!   which worker inserted it.
//! * Per-root analysis state (the call stack, the recursion taint floor)
//!   lives in the worker, never in the shared store.
//! * The serial analyzer resolves signature collisions between roots
//!   first-root-wins in program order; the engine merges per-root results
//!   by ascending root index, reproducing that exactly.
//!
//! ```
//! use spo_engine::AnalysisEngine;
//! use spo_core::{AnalysisOptions, Analyzer};
//!
//! let program = spo_jir::parse_program(r#"
//! class t.A {
//!   method public void m() {
//!     staticinvoke t.A.op0();
//!     return;
//!   }
//!   method private static native void op0();
//! }
//! "#).unwrap();
//! let options = AnalysisOptions::default();
//! let serial = Analyzer::new(&program, options).analyze_library("t");
//! let (parallel, stats) = AnalysisEngine::new(4).analyze_library(&program, "t", options);
//! assert_eq!(serial.entries, parallel.entries);
//! assert_eq!(stats.entry_points, 1);
//! ```
#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod schedule;

use spo_cache::{CacheKeyer, ContentTable, PolicyCache};
use spo_chaos::{sites, FaultPlan};
use spo_core::{
    ablation_demand, diff_libraries, group_by_ablation, AnalysisOptions, AnalysisStats, Analyzer,
    DiffResult, EntryPolicy, LibraryPolicies, LocalStore, MemoScope, ReportGroup, ShardStats,
    SharedStore, SummaryStore, WriteBehind,
};
use spo_guard::{quarantine, Diagnostic, Fault, GuardConfig};
use spo_jir::{MethodId, Program};
use spo_obs::trace::{self, TraceLane, Tracer};
use spo_obs::{HistSnapshot, Recorder};
use spo_resolve::entry_points;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-run statistics of one engine invocation.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Worker threads used.
    pub workers: usize,
    /// Entry points analyzed.
    pub entry_points: usize,
    /// Analysis counters summed over all workers (frames, memo hits and
    /// misses, unresolved calls, per-pass CPU time).
    pub analysis: AnalysisStats,
    /// Roots taken from another worker's deque (every root of a stolen
    /// batch counts).
    pub steals: u64,
    /// Whole batches taken from another worker's deque — the steal
    /// granularity, alongside the per-root `steals`.
    pub batches_stolen: u64,
    /// Root-order batches formed by the scheduler for this run.
    pub batches_formed: u64,
    /// Shard-grouped write-behind publications performed across all
    /// workers (0 under non-global memo scopes).
    pub writeback_flushes: u64,
    /// Lookups served from a worker-local write-behind buffer without
    /// touching a shard lock.
    pub writeback_deferred_hits: u64,
    /// Per-shard counters of the summary store (empty unless the memo
    /// scope was [`MemoScope::Global`]).
    pub shards: Vec<ShardStats>,
    /// Wall-clock time of the whole run, in nanoseconds.
    pub wall_nanos: u128,
    /// Roots quarantined by the guard layer (panic, budget exhaustion, or
    /// cancellation) instead of producing a policy.
    pub roots_degraded: u64,
    /// Roots warm-started from the persistent summary cache (0 unless a
    /// cache is attached).
    pub cache_hits: u64,
    /// Roots analyzed cold because the cache had no usable entry (miss or
    /// invalidated). 0 unless a cache is attached.
    pub cache_misses: u64,
}

impl EngineStats {
    /// Total contended lock acquisitions across the store's shards.
    pub fn contended(&self) -> u64 {
        self.shards.iter().map(|s| s.contended).sum()
    }

    /// All shard lock-wait observations merged into one histogram
    /// (nanoseconds blocked per contended acquisition) — the bench tables'
    /// contention-summary source.
    pub fn lock_wait(&self) -> HistSnapshot {
        let mut merged = HistSnapshot::default();
        for s in &self.shards {
            merged.merge(&s.lock_wait);
        }
        merged
    }

    /// Accumulates another run's counters (used when one logical operation
    /// spans several engine invocations).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.workers = self.workers.max(other.workers);
        self.entry_points += other.entry_points;
        self.analysis.absorb(&other.analysis);
        self.steals += other.steals;
        self.batches_stolen += other.batches_stolen;
        self.batches_formed += other.batches_formed;
        self.writeback_flushes += other.writeback_flushes;
        self.writeback_deferred_hits += other.writeback_deferred_hits;
        self.wall_nanos += other.wall_nanos;
        self.roots_degraded += other.roots_degraded;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        absorb_shards(&mut self.shards, &other.shards);
    }
}

fn absorb_shards(into: &mut Vec<ShardStats>, from: &[ShardStats]) {
    if into.len() < from.len() {
        into.resize(from.len(), ShardStats::default());
    }
    for (a, b) in into.iter_mut().zip(from) {
        a.hits += b.hits;
        a.misses += b.misses;
        a.contended += b.contended;
        a.entries += b.entries;
        a.lock_wait.merge(&b.lock_wait);
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} workers, {} entry points, {} frames, {} memo hits, {} steals, \
             {} contended, wall {:.1}ms",
            self.workers,
            self.entry_points,
            self.analysis.frames_analyzed,
            self.analysis.memo_hits,
            self.steals,
            self.contended(),
            self.wall_nanos as f64 / 1e6,
        )
    }
}

/// One pairwise comparison produced by [`AnalysisEngine::compare_all`].
#[derive(Debug)]
pub struct Comparison {
    /// Indices of the two compared implementations in the input slice.
    pub pair: (usize, usize),
    /// Raw differencing output.
    pub diff: DiffResult,
    /// Differences grouped by root cause.
    pub groups: Vec<ReportGroup>,
}

/// The output of [`AnalysisEngine::compare_all`]: every implementation
/// analyzed once, compared pairwise.
#[derive(Debug)]
pub struct ComparisonSet {
    /// Full analyses, in input order.
    pub libraries: Vec<LibraryPolicies>,
    /// Intraprocedural-ablation analyses (for root-cause classification),
    /// in input order. Each holds only the roots the ablation was demanded
    /// for ([`spo_core::ablation_demand`] over the pairings that include
    /// the library), or every root when a full difference had no origins;
    /// its `stats.entry_points` counts the roots analysed.
    pub intra: Vec<LibraryPolicies>,
    /// All unordered pairings `(i, j)` with `i < j`, in lexicographic
    /// order.
    pub comparisons: Vec<Comparison>,
    /// Statistics accumulated over all the analyses.
    pub stats: EngineStats,
}

/// Everything a run carries that is not analysis input: the stats
/// recorder, the flight-recorder tracer, the fault plan and the guard.
/// The CLI, the engine, the serve registry and the daemon pass this one
/// value instead of threading each handle separately. None of it can
/// change a surviving root's report bytes.
#[derive(Clone, Debug)]
pub struct Instruments {
    /// Stats recorder. Each engine worker records into a private child;
    /// the engine absorbs them in worker-id order after the pool joins,
    /// so the merged deterministic sections do not depend on thread
    /// interleaving.
    pub recorder: Recorder,
    /// Flight-recorder tracer. Each run opens a main lane plus one lane
    /// per worker ("`<name>/worker00`" …) with per-root spans, fixpoint
    /// spans, cache hit/miss instants and shard `lock_wait` events.
    /// Wall-clock telemetry only: results and the deterministic stats
    /// sections are identical with tracing on or off.
    pub tracer: Tracer,
    /// Fault plan. The worker-loop sites (`engine.root.*`,
    /// `engine.commit.panic`) are keyed by root signature, so which roots
    /// fail does not depend on work-stealing order.
    pub faults: FaultPlan,
    /// Per-root budgets and the shared cancel token. A root that exhausts
    /// the budget, observes cancellation, or panics is quarantined into
    /// [`LibraryPolicies::degraded`]; the surviving entries are
    /// byte-identical to a clean run restricted to them.
    pub guard: GuardConfig,
}

impl Default for Instruments {
    /// A disabled recorder and tracer, the default guard, and the
    /// process-wide `spo-chaos` plan — captured once, so every worker
    /// probe draws from the same plan even if the global is swapped
    /// mid-run.
    fn default() -> Instruments {
        Instruments {
            recorder: Recorder::disabled(),
            tracer: Tracer::disabled(),
            faults: spo_chaos::current(),
            guard: GuardConfig::default(),
        }
    }
}

/// Reads the `.jir` files at `paths` and layers them into one program,
/// with parse recovery: a malformed member or class is dropped and pushed
/// onto `diags` as a [`Diagnostic::parse_dropped`] warning instead of
/// failing the load. Only I/O errors are fatal.
///
/// Each file is recorded into `rec`: a `jir.parse` span, the
/// `jir.parse.bytes`/`.classes`/`.methods`/`.stmts` counters covering
/// what it added, a `jir.parse.recovered` counter and one `diagnostics`
/// record per dropped unit. Parsing is deterministic and serial, so the
/// counters land in the deterministic section.
///
/// # Errors
///
/// `"{path}: {io error}"` for the first file that cannot be read.
pub fn load_program(
    paths: &[String],
    rec: &Recorder,
    diags: &mut Vec<Diagnostic>,
) -> Result<Program, String> {
    let size = |p: &Program| (p.class_count(), p.all_methods().count(), p.stmt_count());
    let mut program = Program::new();
    for path in paths {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let span = rec.span("jir.parse");
        let (classes0, methods0, stmts0) = size(&program);
        let recovery = spo_jir::parse_into_recovering(&src, &mut program);
        let (classes1, methods1, stmts1) = size(&program);
        rec.counter("jir.parse.bytes").add(src.len() as u64);
        rec.counter("jir.parse.classes")
            .add((classes1 - classes0) as u64);
        rec.counter("jir.parse.methods")
            .add((methods1 - methods0) as u64);
        rec.counter("jir.parse.stmts").add((stmts1 - stmts0) as u64);
        rec.counter("jir.parse.recovered")
            .add(recovery.diagnostics.len() as u64);
        for d in &recovery.diagnostics {
            let diag = Diagnostic::parse_dropped(path, d.line, d.col, &d.message, &d.dropped);
            record_diagnostic(rec, &diag);
            diags.push(diag);
        }
        drop(span);
    }
    Ok(program)
}

/// Records `diag` as one `diagnostics` entry of `rec`'s snapshot.
pub fn record_diagnostic(rec: &Recorder, diag: &Diagnostic) {
    if rec.is_enabled() {
        rec.diagnostic(
            &diag.severity.to_string(),
            &diag.phase.to_string(),
            &diag.root,
            diag.cause.label(),
            &diag.message,
        );
    }
}

/// The parallel per-entry-point analysis driver.
///
/// See the crate-level documentation for the determinism argument; the
/// engine's contract is that its output equals
/// [`Analyzer::analyze_library`]'s for any worker count.
#[derive(Clone, Debug)]
pub struct AnalysisEngine {
    jobs: usize,
    instruments: Instruments,
    cache: Option<Arc<PolicyCache>>,
}

impl Default for AnalysisEngine {
    /// One worker per available CPU.
    fn default() -> Self {
        AnalysisEngine::new(0)
    }
}

impl AnalysisEngine {
    /// Creates an engine with `jobs` workers; `0` means one per available
    /// CPU.
    pub fn new(jobs: usize) -> Self {
        AnalysisEngine {
            jobs,
            instruments: Instruments::default(),
            cache: None,
        }
    }

    /// Replaces the run's [`Instruments`] (recorder, tracer, fault plan
    /// and guard) captured at construction.
    pub fn with_instruments(mut self, instruments: Instruments) -> Self {
        self.instruments = instruments;
        self
    }

    /// Attaches a persistent summary cache: roots whose cone key has a
    /// usable on-disk entry skip analysis and warm-start from it; every
    /// cleanly analyzed root is written back. Results stay byte-identical
    /// to a cold run — an unusable cache entry only means a cold root plus
    /// a warning [`Diagnostic`] (drain via
    /// [`PolicyCache::take_diagnostics`]).
    pub fn with_cache(mut self, cache: Arc<PolicyCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached persistent cache, if any.
    pub fn cache(&self) -> Option<&Arc<PolicyCache>> {
        self.cache.as_ref()
    }

    /// Replaces only the [`Instruments::recorder`].
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.instruments.recorder = recorder;
        self
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Analyzes every API entry point of `program` across the worker pool.
    pub fn analyze_library(
        &self,
        program: &Program,
        name: &str,
        options: AnalysisOptions,
    ) -> (LibraryPolicies, EngineStats) {
        let roots = entry_points(program);
        self.analyze_entries(program, name, &roots, options)
    }

    /// Analyzes a chosen set of entry points across the worker pool.
    pub fn analyze_entries(
        &self,
        program: &Program,
        name: &str,
        roots: &[MethodId],
        options: AnalysisOptions,
    ) -> (LibraryPolicies, EngineStats) {
        let table = self.content_table(program, &options);
        self.run(program, name, roots, options, table.as_ref())
    }

    /// The content table a cache-attached run validates stored cones
    /// against (`None` without a cache): one hashing pass over `program`,
    /// in a `cache.table` span and counted by the `cache.tables` work
    /// counter.
    fn content_table(&self, program: &Program, options: &AnalysisOptions) -> Option<ContentTable> {
        self.cache.as_ref()?;
        let rec = &self.instruments.recorder;
        let _span = rec.span("cache.table");
        rec.work_counter("cache.tables").incr();
        Some(ContentTable::new(program, options))
    }

    /// One engine run over `roots`. With a cache attached, `table` is
    /// `program`'s content table (under any options: the run re-keys it
    /// for its own).
    fn run(
        &self,
        program: &Program,
        name: &str,
        roots: &[MethodId],
        options: AnalysisOptions,
        table: Option<&ContentTable>,
    ) -> (LibraryPolicies, EngineStats) {
        let t0 = Instant::now();
        // One timeline row for this run's serial phases (cache validation,
        // write-back, merge) plus one per worker below. Binding the lane
        // makes it visible to the cache and store layers through the
        // thread-local trace context, with no signature changes there.
        let Instruments {
            recorder,
            tracer,
            faults: chaos,
            guard,
        } = &self.instruments;
        let _main_bound = trace::bind(&tracer.lane(format_args!("{name}/main")));
        let _run_span = trace::span_now(format_args!("analyze {name}"), "engine");
        let analyzer = Analyzer::new(program, options);

        // Warm start: with a cache attached, split the roots into cache
        // hits (merged below without analysis) and the cold work list. A
        // hit needs no call graph: each stored entry carries its cone as
        // identity hashes and is validated by re-keying it against the
        // program's content table; only missed roots pay for cone
        // construction, in the write-back below. One bulk lookup runs
        // serially on this thread, so hit/miss accounting and diagnostics
        // are deterministic.
        let cache_state = self
            .cache
            .as_ref()
            .zip(table)
            .map(|(cache, table)| (cache, table.with_options(&options), cache.stats()));
        let mut cached: Vec<(usize, String, EntryPolicy)> = Vec::new();
        let work: Vec<usize> = match &cache_state {
            None => (0..roots.len()).collect(),
            Some((cache, table, _)) => {
                let _span = recorder.span("cache.lookup");
                let sigs: Vec<String> =
                    roots.iter().map(|&r| program.method_signature(r)).collect();
                let found = cache.lookup_all(name, table, &sigs);
                let mut work = Vec::new();
                for (idx, (sig, entry)) in sigs.into_iter().zip(found).enumerate() {
                    match entry {
                        Some(entry) => cached.push((idx, sig, entry)),
                        None => work.push(idx),
                    }
                }
                work
            }
        };
        let workers = self.jobs().min(work.len()).max(1);

        // Global scope shares one sharded store across all workers; other
        // scopes get per-root local stores inside the worker, which
        // reproduces PerEntry's clear-between-roots semantics. The store
        // lives for this run only, so its shard counters are the run's own.
        let store = (options.memo == MemoScope::Global).then(SharedStore::default);
        let shared = store.as_ref();

        // Root-order chunking: the work list is cut into contiguous
        // batches dealt round-robin to the workers. A batch is also the
        // write-behind flush unit. Stealing moves whole batches from the
        // victim's back.
        let plan = schedule::plan(&work, workers);
        let batches_formed = plan.formed;
        let deques: Vec<Mutex<VecDeque<Vec<usize>>>> =
            plan.deques.into_iter().map(Mutex::new).collect();
        let steals = AtomicU64::new(0);
        let batches_stolen = AtomicU64::new(0);
        let wb_flushes = AtomicU64::new(0);
        let wb_deferred_hits = AtomicU64::new(0);
        let results: Mutex<Vec<(usize, String, EntryPolicy, AnalysisStats)>> =
            Mutex::new(Vec::with_capacity(roots.len()));
        let faults: Mutex<Vec<(usize, String, Fault)>> = Mutex::new(Vec::new());

        // Each worker records into a private child recorder; absorbing them
        // in worker-id order below keeps the merged output independent of
        // thread interleaving.
        let worker_recs: Vec<Recorder> = (0..workers).map(|_| recorder.child()).collect();
        // One timeline lane per worker, in worker-id order so the trace's
        // `tid`s are stable for a given worker count.
        let worker_lanes: Vec<TraceLane> = (0..workers)
            .map(|w| tracer.lane(format_args!("{name}/worker{w:02}")))
            .collect();

        std::thread::scope(|s| {
            for (w, (rec, lane)) in worker_recs.iter().zip(&worker_lanes).enumerate() {
                let analyzer = &analyzer;
                let deques = &deques;
                let steals = &steals;
                let results = &results;
                let faults = &faults;
                let batches_stolen = &batches_stolen;
                let wb_flushes = &wb_flushes;
                let wb_deferred_hits = &wb_deferred_hits;
                s.spawn(move || {
                    let _lane_bound = trace::bind(lane);
                    let worker_roots = rec.work_counter(&format!("engine.worker{w:02}.roots"));
                    let mut local: Vec<(usize, String, EntryPolicy, AnalysisStats)> = Vec::new();
                    let mut local_faults: Vec<(usize, String, Fault)> = Vec::new();
                    // Write-behind façade over the shared store: reads go
                    // through this worker's buffer first, writes publish
                    // in shard-grouped flushes at batch boundaries.
                    let wb = shared.map(|store| WriteBehind::new(store, rec));
                    let run_root =
                        |idx: usize,
                         local: &mut Vec<(usize, String, EntryPolicy, AnalysisStats)>,
                         local_faults: &mut Vec<(usize, String, Fault)>| {
                            worker_roots.incr();
                            let sig = program.method_signature(roots[idx]);
                            // One complete event per root, named by its
                            // signature — the per-root cost timeline.
                            let _root_span = trace::span_now(&sig, "root");
                            let mut stats = AnalysisStats::default();
                            // Fault-isolation boundary: a panic, budget trip, or
                            // observed cancellation inside this root degrades
                            // this root alone. Once a run is cancelled, roots
                            // not yet started drain through the governor's
                            // first check point, so the pool joins promptly.
                            let governor = guard.governor();
                            let outcome = quarantine(|| {
                                // Chaos fault sites, keyed by root signature so
                                // the set of perturbed roots is a pure function
                                // of the plan under any work-stealing
                                // interleaving. The panic is quarantined like
                                // any real one: this root degrades, the rest
                                // are byte-identical to a clean run.
                                if chaos.should_fire_keyed(sites::ENGINE_ROOT_DELAY, &sig) {
                                    let ms = chaos.delay_ms().unwrap_or_else(|| {
                                        1 + chaos.amount(sites::ENGINE_ROOT_DELAY, 20)
                                    });
                                    std::thread::sleep(std::time::Duration::from_millis(ms));
                                }
                                if chaos.should_fire_keyed(sites::ENGINE_ROOT_PANIC, &sig) {
                                    panic!("chaos: injected fault at engine.root.panic for {sig}");
                                }
                                governor.check_point();
                                let fresh;
                                let store: &dyn SummaryStore = match &wb {
                                    Some(wb) => wb,
                                    None => {
                                        fresh = LocalStore::new(rec);
                                        &fresh
                                    }
                                };
                                analyzer.analyze_root(
                                    roots[idx], &sig, store, &mut stats, rec, &governor,
                                )
                            });
                            match outcome {
                                // The quarantined root's partial stats are
                                // dropped so the surviving roots' totals match
                                // a clean run restricted to them. Clean
                                // summaries its subtree completed stay
                                // buffered: they are pure functions of their
                                // keys, so publishing them is still sound.
                                Ok(entry) => local.push((idx, sig, entry, stats)),
                                Err(fault) => local_faults.push((idx, sig, fault)),
                            }
                        };
                    while let Some(batch) = next_batch(w, deques, steals, batches_stolen) {
                        let _batch_span =
                            trace::span_now(format_args!("batch ({} roots)", batch.len()), "batch");
                        for idx in batch {
                            run_root(idx, &mut local, &mut local_faults);
                        }
                        // Batch boundary: publish everything the batch
                        // buffered so other workers' cones can hit it.
                        if let Some(wb) = &wb {
                            wb.flush();
                        }
                    }
                    if let Some(wb) = &wb {
                        wb.flush();
                        let stats = wb.stats();
                        wb_flushes.fetch_add(stats.flushes, Ordering::Relaxed);
                        wb_deferred_hits.fetch_add(stats.deferred_hits, Ordering::Relaxed);
                    }
                    // Batch commit, itself quarantined, with poisoned-lock
                    // recovery: a panic that unwinds while a sibling held a
                    // shared mutex must not cascade into a whole-run abort
                    // — the data under the lock is a plain Vec whose
                    // invariants hold at every await-free push, so the
                    // poison flag carries no information here.
                    let commit = quarantine(|| {
                        let mut shared_results = results.lock().unwrap_or_else(|e| e.into_inner());
                        // Fires while the lock is held, so the panic poisons
                        // it: the lock-poison recovery's regression site.
                        for (_, sig, ..) in &local {
                            if chaos.should_fire_keyed(sites::ENGINE_COMMIT_PANIC, sig) {
                                panic!(
                                    "chaos: injected append fault at engine.commit.panic \
                                     for batch containing {sig}"
                                );
                            }
                        }
                        shared_results.append(&mut local);
                        drop(shared_results);
                        faults
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .append(&mut local_faults);
                    });
                    if let Err(fault) = commit {
                        // The batch never landed; account for every root in
                        // it as degraded so none silently disappears.
                        let mut lost: Vec<(usize, String, Fault)> = local
                            .drain(..)
                            .map(|(idx, sig, ..)| (idx, sig, fault.clone()))
                            .collect();
                        lost.append(&mut local_faults);
                        faults
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .append(&mut lost);
                    }
                });
            }
        });

        for wrec in &worker_recs {
            recorder.absorb(wrec);
        }

        let mut results = results.into_inner().unwrap_or_else(|e| e.into_inner());
        // Write back every cleanly analyzed root before merging (merge
        // consumes the entries). The keyer — and with it the call graph —
        // is built over the missed roots only, so a fully warm run never
        // constructs one. Degraded roots never reach `results`, so a
        // top-element placeholder can never be cached as a real policy.
        if let Some((cache, _, _)) = &cache_state {
            if !results.is_empty() {
                let miss_roots: Vec<MethodId> = work.iter().map(|&idx| roots[idx]).collect();
                let keyer = CacheKeyer::new(program, &miss_roots, &options);
                for (idx, sig, entry, _) in &results {
                    if let (Some(key), Some(cone)) =
                        (keyer.key(roots[*idx]), keyer.cone(roots[*idx]))
                    {
                        cache.store(name, &options, sig, key, cone, entry);
                    }
                }
            }
            // One durable file write per run (no-op when every root hit).
            cache.flush();
        }
        // Warm-started roots join the merge stream crediting exactly the
        // one entry point the serial analyzer would have counted, so a warm
        // run's report (and its footer) is byte-identical to a cold run's.
        for (idx, sig, entry) in cached {
            let stats = AnalysisStats {
                entry_points: 1,
                ..Default::default()
            };
            results.push((idx, sig, entry, stats));
        }
        // Deterministic merge: ascending root index, first root wins on
        // signature collisions — exactly the serial analyzer's fold. Each
        // winning root is wrapped for sharing once, here.
        results.sort_by_key(|(idx, ..)| *idx);
        let mut analysis = AnalysisStats::default();
        let mut entries = std::collections::BTreeMap::new();
        for (_, sig, entry, stats) in results {
            analysis.absorb(&stats);
            entries.entry(sig).or_insert_with(|| Arc::new(entry));
        }

        // Degraded roots merge in the same deterministic order; a root
        // never appears both as an entry and as a diagnostic (a signature
        // collision between a clean root and a degraded one keeps both
        // records, each under its own surface).
        let mut fault_list = faults.into_inner().unwrap_or_else(|e| e.into_inner());
        fault_list.sort_by_key(|(idx, ..)| *idx);
        let mut degraded = std::collections::BTreeMap::new();
        for (_, sig, fault) in fault_list {
            degraded
                .entry(sig.clone())
                .or_insert_with(|| Diagnostic::degraded_root(sig, &fault));
        }

        let stats = EngineStats {
            workers,
            entry_points: roots.len(),
            analysis,
            cache_hits: (roots.len() - work.len()) as u64,
            cache_misses: if cache_state.is_some() {
                work.len() as u64
            } else {
                0
            },
            steals: steals.into_inner(),
            batches_stolen: batches_stolen.into_inner(),
            batches_formed,
            writeback_flushes: wb_flushes.into_inner(),
            writeback_deferred_hits: wb_deferred_hits.into_inner(),
            shards: shared.map(SharedStore::shard_stats).unwrap_or_default(),
            wall_nanos: t0.elapsed().as_nanos(),
            roots_degraded: degraded.len() as u64,
        };
        self.record_stats(&stats);
        if let Some((cache, _, before)) = &cache_state {
            if recorder.is_enabled() {
                // Filesystem-dependent, so `work` counters (the
                // deterministic `counters` section must not vary with the
                // cache's disk state).
                let after = cache.stats();
                let rec = recorder;
                rec.work_counter("cache.hits").add(after.hits - before.hits);
                rec.work_counter("cache.misses")
                    .add(after.misses - before.misses);
                rec.work_counter("cache.invalidated")
                    .add(after.invalidated - before.invalidated);
                rec.work_counter("cache.bytes")
                    .add(after.bytes - before.bytes);
            }
        }
        for diag in degraded.values() {
            record_diagnostic(recorder, diag);
        }
        let lib = LibraryPolicies {
            name: name.to_owned(),
            entries,
            stats: analysis,
            degraded,
        };
        (lib, stats)
    }

    /// Records one run's engine-level statistics into the attached
    /// recorder: pool shape, store shard totals, and the run's wall clock.
    /// All of it is scheduling-dependent, so everything lands in `work`
    /// counters (or `durations`).
    fn record_stats(&self, stats: &EngineStats) {
        let rec = &self.instruments.recorder;
        if !rec.is_enabled() {
            return;
        }
        stats.analysis.record_into(rec);
        rec.work_counter("engine.workers").add(stats.workers as u64);
        rec.work_counter("engine.roots")
            .add(stats.entry_points as u64);
        rec.work_counter("engine.steals").add(stats.steals);
        rec.work_counter("engine.batches_stolen")
            .add(stats.batches_stolen);
        rec.work_counter("batch.formed").add(stats.batches_formed);
        rec.work_counter("guard.roots_degraded")
            .add(stats.roots_degraded);
        let shards = &stats.shards;
        if !shards.is_empty() {
            rec.work_counter("store.hits")
                .add(shards.iter().map(|s| s.hits).sum());
            rec.work_counter("store.misses")
                .add(shards.iter().map(|s| s.misses).sum());
            rec.work_counter("store.contended")
                .add(shards.iter().map(|s| s.contended).sum());
            rec.work_counter("store.entries")
                .add(shards.iter().map(|s| s.entries as u64).sum());
            rec.work_counter("writeback.flushes")
                .add(stats.writeback_flushes);
            rec.work_counter("writeback.deferred_hits")
                .add(stats.writeback_deferred_hits);
            // Per-shard lock-wait histograms (nanoseconds blocked per
            // contended acquisition) — the contention heatmap behind the
            // parallel-speedup diagnosis. Only shards that actually
            // blocked emit a key, so an uncontended run adds nothing.
            for (i, s) in shards.iter().enumerate() {
                if s.lock_wait.count > 0 {
                    rec.record_duration_snapshot(
                        &format!("store.shard{i:02}.lock_wait"),
                        &s.lock_wait,
                    );
                }
            }
        }
        rec.duration("engine.analyze")
            .record(stats.wall_nanos as u64);
    }

    /// Analyzes every implementation and differences every unordered pair
    /// — the paper's "compare each implementation to the other two",
    /// driven by the worker pool. The intraprocedural ablation that labels
    /// each group's root cause runs after the full diffs, only on the roots
    /// [`ablation_demand`] names for each library, so the groups equal
    /// [`diff_pair`]'s over whole-library ablations. The deterministic
    /// counters `engine.ablation.roots` (roots the ablation analysed) and
    /// `engine.ablation.fallback` (libraries it analysed whole) show the
    /// saving.
    ///
    /// [`diff_pair`]: spo_core::diff_pair
    pub fn compare_all(
        &self,
        implementations: &[(&str, &Program)],
        options: AnalysisOptions,
    ) -> ComparisonSet {
        // With a cache attached, one content table per implementation
        // serves both its full run and its ablation.
        let tables: Vec<Option<ContentTable>> = implementations
            .iter()
            .map(|&(_, program)| self.content_table(program, &options))
            .collect();
        let mut stats = EngineStats::default();
        let mut libraries = Vec::with_capacity(implementations.len());
        for (&(name, program), table) in implementations.iter().zip(&tables) {
            let roots = entry_points(program);
            let (lib, s) = self.run(program, name, &roots, options, table.as_ref());
            stats.absorb(&s);
            libraries.push(lib);
        }
        let n = implementations.len();
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        let diffs: Vec<DiffResult> = pairs
            .iter()
            .map(|&(i, j)| diff_libraries(&libraries[i], &libraries[j]))
            .collect();

        let intra_options = AnalysisOptions {
            interprocedural: false,
            ..options
        };
        let rec = &self.instruments.recorder;
        let (ablated, fallbacks) = (
            rec.counter("engine.ablation.roots"),
            rec.counter("engine.ablation.fallback"),
        );
        let mut intra = Vec::with_capacity(n);
        for (k, (&(name, program), table)) in implementations.iter().zip(&tables).enumerate() {
            let demand = ablation_demand(
                pairs
                    .iter()
                    .zip(&diffs)
                    .filter(|((i, j), _)| *i == k || *j == k)
                    .map(|(_, diff)| diff),
            );
            let mut roots = entry_points(program);
            match demand {
                Some(names) => roots.retain(|&r| names.contains(program.method_name(r).as_str())),
                None => fallbacks.incr(),
            }
            ablated.add(roots.len() as u64);
            let (lib, s) = self.run(program, name, &roots, intra_options, table.as_ref());
            stats.absorb(&s);
            intra.push(lib);
        }

        let comparisons = pairs
            .into_iter()
            .zip(diffs)
            .map(|((i, j), diff)| Comparison {
                pair: (i, j),
                groups: group_by_ablation(&diff, &intra[i], &intra[j]),
                diff,
            })
            .collect();
        ComparisonSet {
            libraries,
            intra,
            comparisons,
            stats,
        }
    }
}

/// Pops the next batch for worker `w`: front of its own deque, else a
/// whole batch stolen from the back of the first non-empty victim (the
/// work its owner would reach last).
///
/// Poisoned deques are recovered, not propagated: a panic that unwinds
/// while a sibling held the lock (possible only between two complete
/// pop/push operations on the plain `VecDeque`) leaves the queue in a
/// valid state, and every worker unwrapping the poison would cascade one
/// quarantined fault into a whole-run abort.
fn next_batch(
    w: usize,
    deques: &[Mutex<VecDeque<Vec<usize>>>],
    steals: &AtomicU64,
    batches_stolen: &AtomicU64,
) -> Option<Vec<usize>> {
    if let Some(batch) = deques[w]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .pop_front()
    {
        return Some(batch);
    }
    for off in 1..deques.len() {
        let victim = (w + off) % deques.len();
        if let Some(batch) = deques[victim]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_back()
        {
            steals.fetch_add(batch.len() as u64, Ordering::Relaxed);
            batches_stolen.fetch_add(1, Ordering::Relaxed);
            trace::instant_now("steal", "engine");
            return Some(batch);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> Program {
        spo_jir::parse_program(
            r#"
class java.lang.SecurityManager {
  method public native void checkRead(java.lang.String file);
  method public native void checkWrite(java.lang.String file);
}
class java.lang.System {
  field static java.lang.SecurityManager security;
  method public static java.lang.SecurityManager getSecurityManager() {
    local java.lang.SecurityManager sm;
    sm = java.lang.System.security;
    return sm;
  }
}
class t.A {
  method public void read() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead("f");
    staticinvoke t.A.shared();
    return;
  }
  method public void write() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkWrite("f");
    staticinvoke t.A.shared();
    return;
  }
  method private static void shared() {
    staticinvoke t.A.op0();
    return;
  }
  method private static native void op0();
}
"#,
        )
        .unwrap()
    }

    #[test]
    fn matches_serial_for_every_memo_scope_and_worker_count() {
        let program = sample_program();
        for memo in [MemoScope::None, MemoScope::PerEntry, MemoScope::Global] {
            let options = AnalysisOptions {
                memo,
                ..Default::default()
            };
            let serial = Analyzer::new(&program, options).analyze_library("t");
            for jobs in [1, 2, 8] {
                let (par, stats) =
                    AnalysisEngine::new(jobs).analyze_library(&program, "t", options);
                assert_eq!(par.entries, serial.entries, "memo {memo:?} jobs {jobs}");
                assert_eq!(stats.entry_points, serial.stats.entry_points);
            }
        }

        // On the generated corpora the serial analyzer must also agree
        // with a one-worker engine on every analysis counter and on the
        // deterministic stats sections, not just on the entries.
        use spo_corpus::{generate, CorpusConfig, Lib};
        let counters = |s: &AnalysisStats| {
            (
                s.entry_points,
                s.frames_analyzed,
                s.memo_hits,
                s.memo_misses,
                s.unresolved_calls,
            )
        };
        let corpus = generate(&CorpusConfig::test_sized());
        for lib in [Lib::Jdk, Lib::Harmony, Lib::Classpath] {
            let program = corpus.program(lib);
            for memo in [MemoScope::None, MemoScope::PerEntry, MemoScope::Global] {
                let options = AnalysisOptions {
                    memo,
                    ..Default::default()
                };
                let serial_rec = Recorder::new();
                let serial = Analyzer::new(program, options)
                    .with_recorder(serial_rec.clone())
                    .analyze_library("lib");
                let engine_rec = Recorder::new();
                let (par, stats) = AnalysisEngine::new(1)
                    .with_recorder(engine_rec.clone())
                    .analyze_library(program, "lib", options);
                let what = format!("{lib:?} memo {memo:?}");
                assert_eq!(par.entries, serial.entries, "{what}");
                assert_eq!(counters(&stats.analysis), counters(&serial.stats), "{what}");
                assert_eq!(
                    engine_rec.snapshot().deterministic_json(),
                    serial_rec.snapshot().deterministic_json(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn batching_keeps_shared_reuse_worker_local() {
        let program = sample_program();
        let (_, stats) =
            AnalysisEngine::new(2).analyze_library(&program, "t", AnalysisOptions::default());
        // `t.A.shared` is reached from both entry points with the same
        // context. Root-order chunking places both roots in one batch, so the
        // second analysis hits the first's write-behind buffer instead of
        // paying a shared-store lock.
        assert!(stats.analysis.memo_hits > 0, "{stats}");
        assert!(stats.batches_formed > 0, "{stats}");
        assert!(stats.writeback_deferred_hits > 0, "{stats}");
        assert!(stats.writeback_flushes > 0, "{stats}");
        // The buffered summaries still reach the shared store at flush.
        let entries: usize = stats.shards.iter().map(|s| s.entries).sum();
        assert!(entries > 0, "{stats}");
    }

    #[test]
    fn workers_capped_by_root_count() {
        let program = sample_program();
        let (_, stats) =
            AnalysisEngine::new(64).analyze_library(&program, "t", AnalysisOptions::default());
        assert!(
            stats.workers <= stats.entry_points,
            "{} workers for {} roots",
            stats.workers,
            stats.entry_points
        );
    }

    #[test]
    fn deterministic_metrics_identical_across_worker_counts() {
        let program = sample_program();
        let run = |jobs: usize| {
            let rec = Recorder::new();
            let engine = AnalysisEngine::new(jobs).with_recorder(rec.clone());
            let (lib, _) = engine.analyze_library(&program, "t", AnalysisOptions::default());
            (lib, rec.snapshot())
        };
        let (lib1, snap1) = run(1);
        let baseline = snap1.deterministic_json();
        assert!(snap1.counters["ispa.frames"] > 0);
        assert!(snap1.work["store.entries"] > 0);
        assert_eq!(snap1.work["engine.workers"], 1);
        assert_eq!(
            snap1.work["ispa.frames_analyzed"],
            lib1.stats.frames_analyzed as u64
        );
        assert_eq!(snap1.durations["engine.analyze"].count, 1);
        for jobs in [2, 8] {
            let (_, snap) = run(jobs);
            assert_eq!(
                snap.deterministic_json(),
                baseline,
                "deterministic sections diverged at jobs={jobs}"
            );
        }
    }

    #[test]
    fn tracing_emits_lanes_without_perturbing_results() {
        let program = sample_program();
        let options = AnalysisOptions::default();
        let run = |tracer: Tracer, jobs: usize| {
            let rec = Recorder::new();
            let engine = AnalysisEngine::new(jobs).with_instruments(Instruments {
                recorder: rec.clone(),
                tracer,
                ..Instruments::default()
            });
            let (lib, _) = engine.analyze_library(&program, "t", options);
            (lib, rec.snapshot().deterministic_json())
        };
        let (lib_off, det_off) = run(Tracer::disabled(), 2);
        let tracer = Tracer::new();
        let (lib_on, det_on) = run(tracer.clone(), 2);
        // Tracing must stay outside the deterministic surface.
        assert_eq!(lib_on.entries, lib_off.entries);
        assert_eq!(det_on, det_off);
        let doc = tracer.to_chrome_json();
        spo_obs::json::validate_trace(&doc).unwrap();
        // One main lane plus one lane per worker, and per-root spans
        // named by entry-point signature.
        assert!(doc.contains("t/main"), "{doc}");
        assert!(doc.contains("t/worker00"), "{doc}");
        assert!(doc.contains("t/worker01"), "{doc}");
        assert!(doc.contains("t.A.read()"), "{doc}");
        assert!(doc.contains("\"fixpoint\""), "{doc}");
        assert!(tracer.event_count() > 0);
    }

    #[test]
    fn injected_panic_degrades_only_that_root() {
        use spo_guard::Cause;
        let program = sample_program();
        let options = AnalysisOptions::default();
        let clean = Analyzer::new(&program, options).analyze_library("t");
        for jobs in [1, 2, 8] {
            let faults = FaultPlan::seeded(1).site_matching(sites::ENGINE_ROOT_PANIC, "t.A.read");
            let (lib, stats) = AnalysisEngine::new(jobs)
                .with_instruments(Instruments {
                    faults,
                    ..Instruments::default()
                })
                .analyze_library(&program, "t", options);
            assert_eq!(stats.roots_degraded, 1, "jobs {jobs}");
            assert_eq!(lib.degraded.len(), 1);
            let (sig, diag) = lib.degraded.iter().next().unwrap();
            assert_eq!(sig, "t.A.read()");
            assert_eq!(diag.cause, Cause::Panic);
            assert!(diag.message.contains("injected fault"), "{}", diag.message);
            // Every surviving root's policy is identical to the clean run's.
            assert!(!lib.entries.contains_key("t.A.read()"));
            for (sig, entry) in &lib.entries {
                assert_eq!(Some(entry), clean.entries.get(sig), "{sig} jobs {jobs}");
            }
            assert_eq!(lib.entries.len(), clean.entries.len() - 1);
        }
    }

    #[test]
    fn chaos_root_panics_are_keyed_quarantined_and_replayable() {
        use spo_guard::Cause;
        let program = sample_program();
        let options = AnalysisOptions::default();
        let clean = Analyzer::new(&program, options).analyze_library("t");
        // Find a seed whose keyed draw fails at least one root (rate 0.5
        // over a handful of roots: seed 0 or 1 virtually always works,
        // but scan a few to keep the test seed-stream agnostic).
        let seed = (0..32)
            .find(|&s| {
                let probe = FaultPlan::seeded(s).site(sites::ENGINE_ROOT_PANIC, 0.5);
                clean
                    .entries
                    .keys()
                    .any(|sig| probe.should_fire_keyed(sites::ENGINE_ROOT_PANIC, sig))
            })
            .expect("some seed fires on some root");
        let mut failed_sets: Vec<Vec<String>> = Vec::new();
        for jobs in [1, 2, 8] {
            let plan = FaultPlan::seeded(seed).site(sites::ENGINE_ROOT_PANIC, 0.5);
            let (lib, stats) = AnalysisEngine::new(jobs)
                .with_instruments(Instruments {
                    faults: plan,
                    ..Instruments::default()
                })
                .analyze_library(&program, "t", options);
            assert!(stats.roots_degraded > 0, "jobs {jobs}");
            for (sig, diag) in &lib.degraded {
                assert_eq!(diag.cause, Cause::Panic, "{sig}");
                assert!(diag.message.contains("chaos: injected fault"), "{sig}");
            }
            // Surviving roots are byte-identical to the clean run.
            for (sig, entry) in &lib.entries {
                assert_eq!(Some(entry), clean.entries.get(sig), "{sig} jobs {jobs}");
            }
            failed_sets.push(lib.degraded.keys().cloned().collect());
        }
        // Signature keying makes the failed set a pure function of the
        // seed — identical across worker counts and steal orders.
        assert_eq!(failed_sets[0], failed_sets[1]);
        assert_eq!(failed_sets[0], failed_sets[2]);
    }

    /// Entry points whose CFGs branch, so a fixpoint solve takes more than
    /// one worklist step and a tiny step budget reliably trips.
    fn branching_program() -> Program {
        spo_jir::parse_program(
            r#"
class t.B {
  method public void spin() {
    local int i;
    i = 0;
  loop:
    i = i + 1;
    if i < 10 goto loop;
    return;
  }
  method public void wobble() {
    local int j;
    j = 100;
  again:
    j = j - 1;
    if j > 0 goto again;
    return;
  }
}
"#,
        )
        .unwrap()
    }

    #[test]
    fn step_budget_trips_every_root_identically() {
        use spo_guard::{Budget, Cause};
        let program = branching_program();
        let options = AnalysisOptions::default();
        let run = |jobs: usize| {
            let guard = GuardConfig {
                budget: Budget::default().steps(1),
                ..Default::default()
            };
            AnalysisEngine::new(jobs)
                .with_instruments(Instruments {
                    guard,
                    ..Instruments::default()
                })
                .analyze_library(&program, "t", options)
        };
        let (lib1, stats1) = run(1);
        assert!(lib1.entries.is_empty(), "a 1-step budget degrades all");
        assert_eq!(stats1.roots_degraded, lib1.degraded.len() as u64);
        for diag in lib1.degraded.values() {
            assert_eq!(diag.cause, Cause::StepBudget);
        }
        for jobs in [2, 8] {
            let (lib, _) = run(jobs);
            assert_eq!(lib.degraded, lib1.degraded, "jobs {jobs}");
            assert_eq!(lib.entries, lib1.entries);
        }
    }

    #[test]
    fn cancelled_token_degrades_all_roots_with_partial_output() {
        use spo_guard::{CancelToken, Cause};
        let program = sample_program();
        let cancel = CancelToken::new();
        cancel.cancel();
        let guard = GuardConfig {
            cancel,
            ..Default::default()
        };
        let (lib, stats) = AnalysisEngine::new(2)
            .with_instruments(Instruments {
                guard,
                ..Instruments::default()
            })
            .analyze_library(&program, "t", AnalysisOptions::default());
        assert!(lib.entries.is_empty());
        assert!(stats.roots_degraded > 0);
        for diag in lib.degraded.values() {
            assert_eq!(diag.cause, Cause::Cancelled);
        }
    }

    #[test]
    fn degraded_roots_reported_in_stats_snapshot() {
        let program = sample_program();
        let rec = Recorder::new();
        let engine = AnalysisEngine::new(2).with_instruments(Instruments {
            recorder: rec.clone(),
            faults: FaultPlan::seeded(1).site_matching(sites::ENGINE_ROOT_PANIC, "t.A.write"),
            ..Instruments::default()
        });
        let (_, stats) = engine.analyze_library(&program, "t", AnalysisOptions::default());
        assert_eq!(stats.roots_degraded, 1);
        let snap = rec.snapshot();
        assert_eq!(snap.work["guard.roots_degraded"], 1);
        assert_eq!(snap.diagnostics.len(), 1);
        assert_eq!(snap.diagnostics[0].root, "t.A.write()");
        assert_eq!(snap.diagnostics[0].cause, "panic");
        let json = snap.to_json();
        assert!(json.contains("\"diagnostics\""), "{json}");
        assert!(spo_obs::json::validate_stats(&json).is_ok());
    }

    #[test]
    fn append_panic_poisons_mutex_without_aborting_run() {
        use spo_guard::Cause;
        let program = sample_program();
        let options = AnalysisOptions::default();
        let clean = Analyzer::new(&program, options).analyze_library("t");
        for jobs in [1, 2, 8] {
            // The injected panic fires *after* the worker acquires the
            // shared results lock, poisoning it. Before poison recovery
            // this turned one quarantined fault into a whole-run abort:
            // every sibling's `lock().unwrap()` re-panicked inside
            // `thread::scope`, which re-raises at join.
            let faults = FaultPlan::seeded(1).site_matching(sites::ENGINE_COMMIT_PANIC, "t.A.read");
            let (lib, stats) = AnalysisEngine::new(jobs)
                .with_instruments(Instruments {
                    faults,
                    ..Instruments::default()
                })
                .analyze_library(&program, "t", options);
            // The run completes and the lost batch resurfaces as
            // per-root faults, so no root silently disappears.
            assert_eq!(
                lib.entries.len() + lib.degraded.len(),
                clean.entries.len(),
                "jobs {jobs}: entries {:?} degraded {:?}",
                lib.entries.keys().collect::<Vec<_>>(),
                lib.degraded.keys().collect::<Vec<_>>()
            );
            let diag = lib
                .degraded
                .values()
                .find(|d| d.message.contains("injected append fault"))
                .unwrap_or_else(|| panic!("no append-fault diagnostic at jobs {jobs}"));
            assert_eq!(diag.cause, Cause::Panic);
            assert!(stats.roots_degraded >= 1, "jobs {jobs}");
            // Roots that committed in other batches are byte-identical
            // to the clean run.
            for (sig, entry) in &lib.entries {
                assert_eq!(Some(entry), clean.entries.get(sig), "{sig} jobs {jobs}");
            }
        }
    }

    /// A fresh cache directory, removed with everything in it on drop.
    fn cache_dir(tag: &str) -> spo_guard::TempDir {
        spo_guard::TempDir::new(&format!("spo-engine-cache-test-{tag}")).unwrap()
    }

    #[test]
    fn warm_cache_run_is_identical_to_cold_run() {
        let program = sample_program();
        let options = AnalysisOptions::default();
        let dir = cache_dir("warm");
        let cache = Arc::new(PolicyCache::open(dir.to_path_buf()).unwrap());
        let cold_engine = AnalysisEngine::new(2).with_cache(Arc::clone(&cache));
        let (cold, cold_stats) = cold_engine.analyze_library(&program, "t", options);
        assert_eq!(cold_stats.cache_hits, 0);
        assert_eq!(cold_stats.cache_misses, cold_stats.entry_points as u64);
        for jobs in [1, 2, 8] {
            let warm_engine = AnalysisEngine::new(jobs).with_cache(Arc::clone(&cache));
            let (warm, warm_stats) = warm_engine.analyze_library(&program, "t", options);
            assert_eq!(warm.entries, cold.entries, "jobs {jobs}");
            assert_eq!(warm.degraded, cold.degraded);
            assert_eq!(warm.stats.entry_points, cold.stats.entry_points);
            assert_eq!(
                warm_stats.cache_hits, cold_stats.entry_points as u64,
                "jobs {jobs}"
            );
            assert_eq!(warm_stats.cache_misses, 0);
        }
    }

    #[test]
    fn full_and_intra_analyses_do_not_evict_each_other() {
        use spo_corpus::{generate, CorpusConfig, Lib};
        let corpus = generate(&CorpusConfig::test_sized());
        let implementations = [
            ("jdk", corpus.program(Lib::Jdk)),
            ("harmony", corpus.program(Lib::Harmony)),
        ];
        let dir = cache_dir("thrash");
        let cache = Arc::new(PolicyCache::open(dir.to_path_buf()).unwrap());
        let engine = AnalysisEngine::new(2).with_cache(Arc::clone(&cache));
        let render = |set: &ComparisonSet| {
            set.comparisons
                .iter()
                .map(|c| spo_core::render_reports(&c.diff, &c.groups))
                .collect::<String>()
        };
        let cold = engine.compare_all(&implementations, AnalysisOptions::default());
        let warm = engine.compare_all(&implementations, AnalysisOptions::default());
        let analyzed: usize = cold
            .libraries
            .iter()
            .chain(&cold.intra)
            .map(|l| l.stats.entry_points)
            .sum();
        assert_eq!(warm.stats.cache_misses, 0, "{}", warm.stats);
        assert_eq!(warm.stats.cache_hits, analyzed as u64);
        assert_eq!(render(&warm), render(&cold));
        assert!(cache.take_diagnostics().is_empty());
    }

    #[test]
    fn warm_compare_all_after_an_edit_equals_a_cacheless_run() {
        use spo_corpus::{generate, CorpusConfig, Lib};
        let corpus = generate(&CorpusConfig::test_sized());
        let options = AnalysisOptions::default();
        let dir = cache_dir("edit-compare");
        let cache = Arc::new(PolicyCache::open(dir.to_path_buf()).unwrap());
        let libs = [Lib::Jdk, Lib::Harmony, Lib::Classpath];
        let names = ["jdk", "harmony", "classpath"];
        let fill: Vec<(&str, &Program)> = names
            .iter()
            .zip(libs)
            .map(|(&name, lib)| (name, corpus.program(lib)))
            .collect();
        AnalysisEngine::new(2)
            .with_cache(Arc::clone(&cache))
            .compare_all(&fill, options);

        // Drop one security check from one jdk method body.
        let text = spo_jir::print_program(corpus.program(Lib::Jdk));
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with("virtualinvoke sm.check"))
            .unwrap();
        let edited = spo_jir::parse_program(&text.replacen(&format!("{line}\n"), "", 1)).unwrap();
        let mut implementations = fill;
        implementations[0].1 = &edited;

        let summary = |set: &ComparisonSet| {
            let reports: Vec<String> = set
                .comparisons
                .iter()
                .map(|c| spo_core::render_reports(&c.diff, &c.groups))
                .collect();
            let maps: Vec<_> = set
                .libraries
                .iter()
                .chain(&set.intra)
                .map(|l| (l.entries.clone(), l.degraded.clone(), l.stats.entry_points))
                .collect();
            (reports, maps)
        };
        for jobs in [1, 4] {
            let cold = AnalysisEngine::new(jobs).compare_all(&implementations, options);
            let warm = AnalysisEngine::new(jobs)
                .with_cache(Arc::clone(&cache))
                .compare_all(&implementations, options);
            assert!(warm.stats.cache_hits > 0, "jobs {jobs}: {}", warm.stats);
            // The first warm run re-analyzes the edited roots; it stores
            // them, so the second hits everywhere.
            assert_eq!(warm.stats.cache_misses > 0, jobs == 1, "{}", warm.stats);
            assert_eq!(summary(&warm), summary(&cold), "jobs {jobs}");
        }
        assert!(cache.take_diagnostics().is_empty());
    }

    #[test]
    fn single_method_edit_invalidates_only_affected_cones() {
        let program = sample_program();
        let options = AnalysisOptions::default();
        let dir = cache_dir("edit");
        let cache = Arc::new(PolicyCache::open(dir.to_path_buf()).unwrap());
        let engine = AnalysisEngine::new(2).with_cache(Arc::clone(&cache));
        let (_, cold) = engine.analyze_library(&program, "t", options);
        let roots = cold.entry_points as u64;
        assert_eq!(cold.cache_misses, roots);

        // Body-only edit to t.A.write: only its own cone contains the
        // edited method, so a warm run re-analyzes exactly one root.
        let text = spo_jir::print_program(&program).replacen(
            "virtualinvoke sm.checkWrite(\"f\");",
            "virtualinvoke sm.checkWrite(\"f\");\n    virtualinvoke sm.checkRead(\"f\");",
            1,
        );
        let edited = spo_jir::parse_program(&text).unwrap();
        let (lib, warm) = engine.analyze_library(&edited, "t", options);
        assert_eq!(warm.cache_hits, roots - 1, "{warm}");
        assert_eq!(warm.cache_misses, 1, "{warm}");
        // The edited root's fresh result reflects the new body.
        let serial = Analyzer::new(&edited, options).analyze_library("t");
        assert_eq!(lib.entries, serial.entries);
    }

    #[test]
    fn cache_counters_surface_in_work_section_only() {
        let program = sample_program();
        let options = AnalysisOptions::default();
        let dir = cache_dir("counters");
        let cache = Arc::new(PolicyCache::open(dir.to_path_buf()).unwrap());
        let rec = Recorder::new();
        let engine = AnalysisEngine::new(2)
            .with_cache(Arc::clone(&cache))
            .with_recorder(rec.clone());
        let (_, s1) = engine.analyze_library(&program, "t", options);
        engine.analyze_library(&program, "t", options);
        let roots = s1.entry_points as u64;
        let snap = rec.snapshot();
        assert_eq!(snap.work["cache.misses"], roots);
        assert_eq!(snap.work["cache.hits"], roots);
        assert!(snap.work["cache.bytes"] > 0);
        // Deterministic counters must not depend on the cache's disk
        // state, so cache metrics live exclusively in `work`.
        assert!(!snap.counters.contains_key("cache.hits"));
        assert!(!snap.counters.contains_key("cache.misses"));
    }

    #[test]
    fn compare_all_self_comparison_is_clean() {
        let program = sample_program();
        let set = AnalysisEngine::new(4).compare_all(
            &[("x", &program), ("y", &program)],
            AnalysisOptions::default(),
        );
        assert_eq!(set.libraries.len(), 2);
        assert_eq!(set.comparisons.len(), 1);
        assert!(set.comparisons[0].groups.is_empty());
        assert!(set.stats.entry_points > 0);
    }

    #[test]
    fn compare_all_pairs_every_implementation() {
        // The paper's "compare each implementation to the other two", on
        // Figure 1: Harmony's missing checkAccept shows against both
        // correct sides, and JDK vs Classpath is clean.
        use spo_corpus::{figures::FIGURE1, Lib};
        let programs = [Lib::Jdk, Lib::Harmony, Lib::Classpath].map(|lib| FIGURE1.program(lib));
        let set = AnalysisEngine::new(2).compare_all(
            &[
                ("jdk", &programs[0]),
                ("harmony", &programs[1]),
                ("classpath", &programs[2]),
            ],
            AnalysisOptions::default(),
        );
        let pairs: Vec<((usize, usize), bool)> = set
            .comparisons
            .iter()
            .map(|c| (c.pair, c.groups.is_empty()))
            .collect();
        assert_eq!(pairs, [((0, 1), false), ((0, 2), true), ((1, 2), false)]);
    }
}
