//! Property tests over the whole pipeline, on randomly seeded corpora.
//!
//! Each property runs over a fixed spread of corpus seeds so the suite is
//! deterministic while still exercising structurally different corpora.

use security_policy_oracle::compare_implementations;
use spo_core::{
    diff_libraries, diff_pair, group_differences, render_reports, root_keys, AnalysisOptions,
    Analyzer, DiffResult, EventDef, MemoScope, ReportGroup, RootCause,
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

/// The `.spi` index is lossless for analysis results: building an index
/// from the full and intraprocedural analyses and reading both back
/// yields the same entries, and `diff_pair` over the read-back pair
/// equals `diff_pair` over the originals.
#[test]
fn exchange_roundtrip_preserves_diffs() {
    let options = AnalysisOptions::default();
    let intra_options = AnalysisOptions {
        interprocedural: false,
        ..options
    };
    let analyze = |corpus: &spo_corpus::Corpus, lib: Lib| {
        let program = corpus.program(lib);
        (
            Analyzer::new(program, options).analyze_library(lib.name()),
            Analyzer::new(program, intra_options).analyze_library(lib.name()),
        )
    };
    for seed in SEEDS {
        let corpus = small_corpus(seed);
        let jdk = analyze(&corpus, Lib::Jdk);
        let classpath = analyze(&corpus, Lib::Classpath);
        let bytes = spo_index::IndexBuilder::new("classpath", &options, &classpath.0, &classpath.1)
            .build()
            .unwrap();
        let (full, intra) = spo_index::PolicyIndex::parse(&bytes)
            .unwrap()
            .to_libraries()
            .unwrap();
        assert_eq!(full.entries, classpath.0.entries, "seed {seed}");
        assert_eq!(intra.entries, classpath.1.entries, "seed {seed}");
        let (direct, direct_groups) = diff_pair((&jdk.0, &jdk.1), (&classpath.0, &classpath.1));
        let (via, via_groups) = diff_pair((&jdk.0, &jdk.1), (&full, &intra));
        assert_eq!(direct.differences, via.differences, "seed {seed}");
        assert_eq!(direct.matching_apis, via.matching_apis, "seed {seed}");
        assert_eq!(
            render_reports(&direct, &direct_groups),
            render_reports(&via, &via_groups),
            "seed {seed}"
        );
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

/// The demand-driven ablation is exact: `compare_all`, which analyses
/// intraprocedurally only the roots `ablation_demand` names, and
/// `diff_pair`, which diffs only those roots' ablation entries, group
/// every pairing exactly as the whole-library ablation diff does — same
/// groups, same report bytes — with ICP on and off, narrow and broad
/// events, at one and two workers.
#[test]
fn demanded_ablation_groups_like_the_whole_library_one() {
    let verdict = |diff: &DiffResult, groups: &[ReportGroup]| {
        (format!("{groups:?}"), render_reports(diff, groups))
    };
    let (mut intra_groups, mut demanded, mut whole) = (0, 0, 0);
    for seed in [0, 417, 923] {
        let corpus = generate(&CorpusConfig { seed, scale: 0.02 });
        let implementations: Vec<(&str, &spo_jir::Program)> = Lib::ALL
            .iter()
            .map(|&lib| (lib.name(), corpus.program(lib)))
            .collect();
        for (icp, events) in [true, false]
            .into_iter()
            .flat_map(|icp| [EventDef::Narrow, EventDef::Broad].map(|e| (icp, e)))
        {
            let options = AnalysisOptions {
                icp,
                events,
                ..Default::default()
            };
            let intra_options = AnalysisOptions {
                interprocedural: false,
                ..options
            };
            let engine = AnalysisEngine::new(1);
            let analyses: Vec<_> = implementations
                .iter()
                .map(|&(name, program)| {
                    let full = engine.analyze_library(program, name, options).0;
                    let intra = engine.analyze_library(program, name, intra_options).0;
                    whole += intra.stats.entry_points;
                    (full, intra)
                })
                .collect();
            let expected: Vec<_> = [(0, 1), (0, 2), (1, 2)]
                .map(|(i, j)| {
                    let (l, r): (&(_, _), &(_, _)) = (&analyses[i], &analyses[j]);
                    let diff = diff_libraries(&l.0, &r.0);
                    let whole = root_keys(&diff_libraries(&l.1, &r.1));
                    let want = verdict(&diff, &group_differences(&diff, &whole));
                    // `diff_pair` diffs only the demanded ablation entries.
                    let (diff, groups) = diff_pair((&l.0, &l.1), (&r.0, &r.1));
                    assert_eq!(
                        verdict(&diff, &groups),
                        want,
                        "diff_pair: seed {seed}, icp {icp}, {events:?}, pairing {i}-{j}"
                    );
                    want
                })
                .to_vec();
            for jobs in [1, 2] {
                let set = AnalysisEngine::new(jobs).compare_all(&implementations, options);
                let got: Vec<_> = set
                    .comparisons
                    .iter()
                    .map(|c| verdict(&c.diff, &c.groups))
                    .collect();
                assert_eq!(
                    got, expected,
                    "seed {seed}, icp {icp}, {events:?}, jobs {jobs}"
                );
                if jobs == 1 {
                    demanded += set
                        .intra
                        .iter()
                        .map(|l| l.stats.entry_points)
                        .sum::<usize>();
                    intra_groups += set
                        .comparisons
                        .iter()
                        .flat_map(|c| &c.groups)
                        .filter(|g| g.cause == RootCause::Intraprocedural)
                        .count();
                }
            }
        }
    }
    // The comparison is not vacuous: some groups are intraprocedural, and
    // the ablation ran on a strict subset of the roots.
    assert!(intra_groups > 0, "no intraprocedural group to compare");
    assert!(demanded < whole, "demanded {demanded} of {whole} roots");
}
