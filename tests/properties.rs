//! Property tests over the whole pipeline, on randomly seeded corpora.
//!
//! Each property runs over a fixed spread of corpus seeds so the suite is
//! deterministic while still exercising structurally different corpora.

use security_policy_oracle::compare_implementations;
use spo_core::{
    diff_libraries, export_policies, group_differences, import_policies, render_reports, root_keys,
    AnalysisOptions, Analyzer, MemoScope,
};
use spo_corpus::{generate, CorpusConfig, Lib};
use spo_engine::AnalysisEngine;

/// Corpus seeds used by every property: spread across the [0, 1000) range
/// the original fuzzing drew from.
const SEEDS: [u64; 6] = [0, 131, 262, 417, 598, 923];

fn small_corpus(seed: u64) -> spo_corpus::Corpus {
    generate(&CorpusConfig { seed, scale: 0.004 })
}

/// `must ⊆ may` for every event policy of every entry point — the
/// fundamental relation between the MAY and MUST sides.
#[test]
fn must_is_subset_of_may() {
    for seed in SEEDS {
        let corpus = small_corpus(seed);
        for lib in Lib::ALL {
            let analyzer = Analyzer::new(corpus.program(lib), AnalysisOptions::default());
            let policies = analyzer.analyze_library(lib.name());
            for (sig, entry) in &policies.entries {
                for (event, p) in &entry.events {
                    assert!(
                        p.must.is_subset(p.may),
                        "{lib} {sig} {event}: must {} ⊄ may {}",
                        p.must,
                        p.may
                    );
                    // The flat may set is exactly the union of the
                    // disjunctive paths.
                    assert_eq!(p.may.bits(), p.may_paths.flat_union());
                }
            }
        }
    }
}

/// Memoization must not change analysis results, only speed — the
/// soundness requirement behind Table 2.
#[test]
fn memo_scopes_agree_on_random_corpora() {
    for seed in SEEDS {
        let corpus = small_corpus(seed);
        let program = corpus.program(Lib::Harmony);
        let base = Analyzer::new(
            program,
            AnalysisOptions {
                memo: MemoScope::None,
                ..Default::default()
            },
        )
        .analyze_library("h");
        for memo in [MemoScope::PerEntry, MemoScope::Global] {
            let lib = Analyzer::new(
                program,
                AnalysisOptions {
                    memo,
                    ..Default::default()
                },
            )
            .analyze_library("h");
            for (sig, entry) in &base.entries {
                assert_eq!(
                    &lib.entries[sig].events, &entry.events,
                    "memo {memo:?} diverges at {sig} (seed {seed})"
                );
            }
        }
    }
}

/// The parallel engine is byte-identical to the serial analyzer for any
/// worker count: same policies, same diff, same rendered report — the
/// engine's determinism contract, checked over random corpora.
#[test]
fn engine_matches_serial_for_any_worker_count() {
    let options = AnalysisOptions {
        memo: MemoScope::Global,
        ..Default::default()
    };
    for seed in SEEDS {
        let corpus = small_corpus(seed);
        let serial: Vec<_> = [Lib::Jdk, Lib::Harmony]
            .iter()
            .map(|&lib| Analyzer::new(corpus.program(lib), options).analyze_library(lib.name()))
            .collect();
        let serial_diff = diff_libraries(&serial[0], &serial[1]);
        let serial_groups = group_differences(&serial_diff, &root_keys(&serial_diff));
        let serial_report = render_reports(&serial_diff, &serial_groups);
        for jobs in [1, 2, 8] {
            let engine = AnalysisEngine::new(jobs);
            let par: Vec<_> = [Lib::Jdk, Lib::Harmony]
                .iter()
                .map(|&lib| {
                    engine
                        .analyze_library(corpus.program(lib), lib.name(), options)
                        .0
                })
                .collect();
            for (s, p) in serial.iter().zip(&par) {
                assert_eq!(
                    s.entries, p.entries,
                    "policies diverge (seed {seed}, jobs {jobs})"
                );
            }
            let par_diff = diff_libraries(&par[0], &par[1]);
            let par_groups = group_differences(&par_diff, &root_keys(&par_diff));
            assert_eq!(
                serial_report,
                render_reports(&par_diff, &par_groups),
                "rendered report diverges (seed {seed}, jobs {jobs})"
            );
        }
    }
}

/// Comparing an implementation against itself reports nothing: the
/// no-intrinsic-false-positives property on arbitrary corpora.
#[test]
fn self_comparison_is_empty() {
    for seed in SEEDS {
        let corpus = small_corpus(seed);
        let program = corpus.program(Lib::Classpath);
        let report =
            compare_implementations(program, "x", program, "y", AnalysisOptions::default());
        assert!(report.groups.is_empty(), "seed {seed}");
    }
}

/// Differencing is symmetric in what it finds: swapping the sides
/// yields the same number of differences per entry point with mirrored
/// deltas.
#[test]
fn differencing_is_symmetric() {
    for seed in SEEDS {
        let corpus = small_corpus(seed);
        let jdk = Analyzer::new(corpus.program(Lib::Jdk), AnalysisOptions::default())
            .analyze_library("jdk");
        let harmony = Analyzer::new(corpus.program(Lib::Harmony), AnalysisOptions::default())
            .analyze_library("harmony");
        let ab = diff_libraries(&jdk, &harmony);
        let ba = diff_libraries(&harmony, &jdk);
        assert_eq!(ab.matching_apis, ba.matching_apis);
        assert_eq!(ab.differences.len(), ba.differences.len());
        let mut deltas_ab: Vec<String> = ab
            .differences
            .iter()
            .map(|d| format!("{}:{}", d.signature, d.delta))
            .collect();
        let mut deltas_ba: Vec<String> = ba
            .differences
            .iter()
            .map(|d| format!("{}:{}", d.signature, d.delta))
            .collect();
        deltas_ab.sort();
        deltas_ba.sort();
        assert_eq!(deltas_ab, deltas_ba);
    }
}

/// The exchange format is lossless for analysis results: export →
/// import → diff behaves identically to diffing the originals.
#[test]
fn exchange_roundtrip_preserves_diffs() {
    for seed in SEEDS {
        let corpus = small_corpus(seed);
        let jdk = Analyzer::new(corpus.program(Lib::Jdk), AnalysisOptions::default())
            .analyze_library("jdk");
        let classpath = Analyzer::new(corpus.program(Lib::Classpath), AnalysisOptions::default())
            .analyze_library("classpath");
        let imported = import_policies(&export_policies(&classpath)).unwrap();
        assert_eq!(&imported.entries, &classpath.entries);
        let direct = diff_libraries(&jdk, &classpath);
        let via = diff_libraries(&jdk, &imported);
        assert_eq!(direct.differences, via.differences);
    }
}

/// The generated corpus sources keep the printer/parser honest at
/// scale: parse(print(parse(src))) equals parse(src) structurally.
#[test]
fn corpus_print_parse_fixpoint() {
    for seed in SEEDS {
        let corpus = small_corpus(seed);
        let program = corpus.program(Lib::Jdk);
        let printed = spo_jir::print_program(program);
        let reparsed = spo_jir::parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed (seed {seed}): {e}"));
        assert_eq!(program.class_count(), reparsed.class_count());
        let reprinted = spo_jir::print_program(&reparsed);
        assert_eq!(printed, reprinted);
    }
}
