//! Property: root-order batch scheduling and write-behind publication
//! (the engine defaults) keep the analysis schedule-independent at scale.
//!
//! Report bytes and the deterministic `spo-stats/1` sections must be
//! identical across `--jobs 1/2/8`, with a cold cache and with a warm
//! one, on the scale-10 corpus (depth-21 utility chains, ~59k jdk entry
//! points). Tier-1 runs a strided sample of the roots — enough batches
//! to exercise dealing, stealing, and batched flushes, small enough for
//! the debug-build test budget; `tests/full_scale.rs` covers the full
//! corpus at scale 1.

use spo_cache::PolicyCache;
use spo_core::{render_analysis, AnalysisOptions};
use spo_corpus::{generate, CorpusConfig, Lib};
use spo_engine::AnalysisEngine;
use spo_obs::Recorder;
use std::sync::Arc;

const JOBS: [usize; 3] = [1, 2, 8];

/// Every Nth scale-10 entry point (~235 roots at stride 250).
const SAMPLE_STRIDE: usize = 250;

struct Run {
    report: String,
    deterministic: String,
    batches_formed: u64,
    writeback_flushes: u64,
}

fn run_sampled(
    program: &spo_jir::Program,
    roots: &[spo_jir::MethodId],
    jobs: usize,
    cache: Option<&std::path::Path>,
) -> Run {
    let rec = Recorder::new();
    let mut engine = AnalysisEngine::new(jobs).with_recorder(rec.clone());
    if let Some(dir) = cache {
        engine = engine.with_cache(Arc::new(PolicyCache::open(dir).expect("cache directory")));
    }
    let (policies, stats) =
        engine.analyze_entries(program, "jdk", roots, AnalysisOptions::default());
    Run {
        report: render_analysis(&policies),
        deterministic: rec.snapshot().deterministic_json(),
        batches_formed: stats.batches_formed,
        writeback_flushes: stats.writeback_flushes,
    }
}

#[test]
fn scale10_sample_identical_across_jobs_cold_and_warm() {
    let corpus = generate(&CorpusConfig {
        scale: 10.0,
        ..Default::default()
    });
    let program = corpus.program(Lib::Jdk);
    let all = spo_resolve::entry_points(program);
    assert!(
        all.len() > 10_000,
        "scale-10 corpus must reach tens of thousands of entry points, got {}",
        all.len()
    );
    let roots: Vec<spo_jir::MethodId> = all.iter().copied().step_by(SAMPLE_STRIDE).collect();

    // Cold cache: jobs=1 is the baseline; every other worker count must
    // produce the same report bytes and deterministic counter sections.
    let cold = run_sampled(program, &roots, 1, None);
    assert!(!cold.report.is_empty());
    for jobs in &JOBS[1..] {
        let run = run_sampled(program, &roots, *jobs, None);
        assert_eq!(
            run.report, cold.report,
            "cold report diverged at jobs={jobs}"
        );
        assert_eq!(
            run.deterministic, cold.deterministic,
            "cold counters diverged at jobs={jobs}"
        );
        // The configuration under test is actually on.
        assert!(run.batches_formed > 0, "jobs={jobs}: no batches formed");
        assert!(run.writeback_flushes > 0, "jobs={jobs}: no batched flushes");
    }

    // Warm cache: populate once serially, then replay every worker count
    // against the same populated cache.
    let dir = std::env::temp_dir().join(format!("spo-sched-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let _ = run_sampled(program, &roots, 1, Some(&dir));
    let warm = run_sampled(program, &roots, 1, Some(&dir));
    assert_eq!(
        warm.report, cold.report,
        "warm report must match the cold analysis"
    );
    for jobs in &JOBS[1..] {
        let run = run_sampled(program, &roots, *jobs, Some(&dir));
        assert_eq!(
            run.report, cold.report,
            "warm report diverged at jobs={jobs}"
        );
        assert_eq!(
            run.deterministic, warm.deterministic,
            "warm counters diverged at jobs={jobs}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
