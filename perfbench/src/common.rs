//! Inputs and compositions shared by the workloads.

use crate::probe::Spans;
use spo_core::{
    diff_libraries, group_differences, render_reports, root_keys, AnalysisOptions, LibraryPolicies,
};
use spo_corpus::{Corpus, CorpusConfig, Lib};
use spo_engine::{AnalysisEngine, EngineStats};
use spo_jir::Program;
use spo_obs::Recorder;

/// The generated corpus for the run's seed at `scale`.
pub fn corpus(seed: u64, scale: f64) -> Corpus {
    spo_corpus::generate(&CorpusConfig { seed, scale })
}

/// The `.jir` text of one implementation, as `gencorpus` writes it.
pub fn jir_text(corpus: &Corpus, lib: Lib) -> String {
    spo_jir::print_program(corpus.program(lib))
}

/// Parses `.jir` text the way the CLI loads a file: with recovery, where
/// any dropped member is a degradation and fails the op.
pub fn parse(src: &str) -> Result<Program, String> {
    let mut program = Program::new();
    let recovery = spo_jir::parse_into_recovering(src, &mut program);
    match recovery.diagnostics.first() {
        None => Ok(program),
        Some(d) => Err(format!(
            "parse degraded at {}:{}: {}",
            d.line, d.col, d.message
        )),
    }
}

/// The CLI's analysis options (`spo diff` with no flags).
pub fn options() -> AnalysisOptions {
    AnalysisOptions::default()
}

/// The intraprocedural ablation the engine pairs with every full run.
pub fn intra_options() -> AnalysisOptions {
    AnalysisOptions {
        interprocedural: false,
        ..options()
    }
}

/// The analysis-path report of one pairing: the engine's `compare_all`
/// composition over already-analyzed libraries, rendered.
pub fn pairing_report(
    left: (&LibraryPolicies, &LibraryPolicies),
    right: (&LibraryPolicies, &LibraryPolicies),
) -> String {
    let diff = diff_libraries(left.0, right.0);
    let intra_keys = root_keys(&diff_libraries(left.1, right.1));
    render_reports(&diff, &group_differences(&diff, &intra_keys))
}

/// Each pairing's `(i, j, groups, report)`.
pub type Verdicts = Vec<(usize, usize, Vec<spo_core::ReportGroup>, String)>;

/// The traced form of [`pairing_report`] (and of `spo_index::diff_rendered`,
/// which composes the same calls): one span per core step. Returns the
/// groups and the rendered report.
pub fn traced_pairing(
    left: (&LibraryPolicies, &LibraryPolicies),
    right: (&LibraryPolicies, &LibraryPolicies),
    spans: &mut Spans,
) -> (Vec<spo_core::ReportGroup>, String) {
    let (diff, intra_keys) = spans.time("core.diff", || {
        let diff = diff_libraries(left.0, right.0);
        (diff, root_keys(&diff_libraries(left.1, right.1)))
    });
    let groups = spans.time("core.group", || group_differences(&diff, &intra_keys));
    let report = spans.time("core.render", || render_reports(&diff, &groups));
    (groups, report)
}

/// The traced form of `AnalysisEngine::compare_all` plus rendering: the
/// same calls in the same order, each wrapped in its layer's span, with
/// the engine's own per-run statistics folded into per-op values. The
/// engine runs without a recorder: its histograms allocate by value, which
/// would make the per-span allocation counts depend on timing (see
/// [`work_counts`]). Returns each pairing's `(i, j, groups, report)`.
pub fn traced_compare(
    engine: &AnalysisEngine,
    programs: &[(&str, &Program)],
    spans: &mut Spans,
) -> Result<Verdicts, String> {
    let mut full = Vec::new();
    let mut intra = Vec::new();
    let mut stats = EngineStats::default();
    for &(name, program) in programs {
        for (span, options, out) in [
            ("engine.analyze_full", options(), &mut full),
            ("engine.analyze_intra", intra_options(), &mut intra),
        ] {
            let (lib, s) = spans.time(span, || engine.analyze_library(program, name, options));
            if !lib.degraded.is_empty() {
                return Err(format!("{name}: {} degraded roots", lib.degraded.len()));
            }
            stats.absorb(&s);
            out.push(lib);
        }
    }
    let mut out = Vec::new();
    for i in 0..programs.len() {
        for j in i + 1..programs.len() {
            let (groups, report) =
                traced_pairing((&full[i], &intra[i]), (&full[j], &intra[j]), spans);
            out.push((i, j, groups, report));
        }
    }
    spans.time("engine.free", || drop((full, intra)));
    let a = &stats.analysis;
    let may_ms = a.may_nanos as f64 / 1e6;
    let must_ms = a.must_nanos as f64 / 1e6;
    let analyze_ms: f64 = ["engine.analyze_full", "engine.analyze_intra"]
        .iter()
        .filter_map(|s| spans.spans.get(s))
        .map(|s| s.0)
        .sum();
    spans.add("core.ispa_may_ms", may_ms);
    spans.add("core.ispa_must_ms", must_ms);
    // The CFG builds run inside the MAY and MUST passes, so the engine's
    // own work is the analyze wall minus the two passes.
    spans.add("engine.overhead_ms", analyze_ms - may_ms - must_ms);
    spans.add("core.frames", a.frames_analyzed as f64);
    spans.add(
        "core.memo_hit_ratio",
        ratio(a.memo_hits as f64, (a.memo_hits + a.memo_misses) as f64),
    );
    if engine.cache().is_some() {
        let lookups = stats.cache_hits + stats.cache_misses;
        spans.add(
            "cache.hit_ratio",
            ratio(stats.cache_hits as f64, lookups as f64),
        );
    }
    Ok(out)
}

/// The recorder's work counters for one cache-less `compare_all` over
/// `programs`: `(jir.cfg_built, dataflow.transfers)`. Run once per traced
/// run, outside the ops, because a recorder-attached engine allocates
/// differently from run to run.
pub fn work_counts(programs: &[(&str, &Program)]) -> (f64, f64) {
    let rec = Recorder::new();
    let engine = AnalysisEngine::new(1).with_recorder(rec.clone());
    std::hint::black_box(engine.compare_all(programs, options()));
    let snap = rec.snapshot();
    let count = |section: &std::collections::BTreeMap<String, u64>, k: &str| {
        section.get(k).copied().unwrap_or(0) as f64
    };
    (
        count(&snap.work, "jir.cfg.built"),
        count(&snap.counters, "dataflow.transfers"),
    )
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Times `Hierarchy::new` + `CallGraph::from_entry_points` on `program`,
/// standalone (outside any op), in ms.
pub fn callgraph_ms(program: &Program) -> f64 {
    let t0 = std::time::Instant::now();
    let hierarchy = spo_resolve::Hierarchy::new(program);
    let cg = spo_resolve::CallGraph::from_entry_points(&hierarchy);
    std::hint::black_box(cg.reachable_count());
    crate::probe::ms_since(t0)
}

/// Parses every text in a `jir.parse` span and adds its throughput.
pub fn traced_parse(texts: &[&str], spans: &mut Spans) -> Result<Vec<Program>, String> {
    let t0 = std::time::Instant::now();
    let programs = spans.time("jir.parse", || texts.iter().map(|t| parse(t)).collect());
    let ms = crate::probe::ms_since(t0);
    let bytes: usize = texts.iter().map(|t| t.len()).sum();
    spans.add("jir.parse_mb_s", bytes as f64 / 1e6 / (ms / 1e3));
    programs
}
