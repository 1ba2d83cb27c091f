//! Integration tests for the extension features layered on the paper's
//! core: the disjunctive diff mode, resolution-rate
//! statistics, and exception differencing over the corpus.

use spo_core::{
    diff_libraries, diff_libraries_with, diff_throws, AnalysisOptions, Analyzer, DiffMode,
    PolicyDifference, ThrowsAnalyzer,
};
use spo_corpus::{generate, CorpusConfig, Lib};
use spo_resolve::{CallGraph, Hierarchy};
use std::collections::BTreeSet;

fn corpus() -> spo_corpus::Corpus {
    generate(&CorpusConfig::test_sized())
}

#[test]
fn disjunctive_mode_is_a_superset_of_paper_mode() {
    let c = corpus();
    let jdk = Analyzer::new(c.program(Lib::Jdk), AnalysisOptions::default()).analyze_library("jdk");
    let harmony = Analyzer::new(c.program(Lib::Harmony), AnalysisOptions::default())
        .analyze_library("harmony");
    let paper = diff_libraries(&jdk, &harmony);
    let strict = diff_libraries_with(&jdk, &harmony, DiffMode::Disjunctive);
    let keys = |d: &[PolicyDifference]| -> BTreeSet<String> {
        d.iter()
            .map(|x| format!("{}#{:?}", x.signature, x.kind))
            .collect()
    };
    let pk = keys(&paper.differences);
    let sk = keys(&strict.differences);
    assert!(pk.is_subset(&sk), "strict mode must not lose reports");
    // The implementations differ only at injected bug sites, all of which
    // the paper-mode comparison already catches: no structure-only extras.
    assert_eq!(
        pk,
        sk,
        "unexpected structure-only differences: {:?}",
        sk.difference(&pk)
    );
}

#[test]
fn corpus_resolution_rate_matches_papers_97_percent_regime() {
    // "Soot's method resolution analysis ... resolves 97% of method calls
    // in the Java libraries."
    let c = corpus();
    for lib in Lib::ALL {
        let p = c.program(lib);
        let h = Hierarchy::new(p);
        let cg = CallGraph::from_entry_points(&h);
        let stats = cg.stats();
        assert!(
            stats.resolved_fraction() > 0.95,
            "{lib}: only {:.1}% of call sites resolved uniquely",
            stats.resolved_fraction() * 100.0
        );
    }
}

#[test]
fn exception_differencing_over_the_corpus_finds_figure_8() {
    let c = corpus();
    let tj = ThrowsAnalyzer::new(c.program(Lib::Jdk)).analyze_library("jdk");
    let th = ThrowsAnalyzer::new(c.program(Lib::Harmony)).analyze_library("harmony");
    let diffs = diff_throws(&tj, &th);
    let getbytes = diffs.iter().find(|d| d.signature.contains("getBytes"));
    let d = getbytes.expect("Figure 8's exception asymmetry must surface");
    assert!(d
        .only_right
        .contains("java.lang.UnsupportedOperationException"));
    // And everything reported is a genuine behavioural difference: the
    // background mass throws identically (not at all).
    for d in &diffs {
        assert!(
            !d.signature.starts_with("gen.all."),
            "background entry {} must not differ in throws",
            d.signature
        );
    }
}

#[test]
fn dominators_agree_with_must_policies_on_straight_line_checks() {
    // A check that dominates the event statement is exactly a must check
    // when no constants/privilege are involved: cross-validate the
    // dominator module against the policy analysis on a figure body.
    use spo_corpus::figures::FIGURE7;
    let p = FIGURE7.program(Lib::Jdk);
    let socket = p.class_by_str("java.net.Socket").unwrap();
    let body = p.class(socket).methods[0].body.as_ref().unwrap();
    let cfg = body.cfg();
    let dom = spo_jir::Dominators::new(&cfg);
    // Find the checkConnect call and the impl.connect call.
    let mut check_idx = None;
    let mut call_idx = None;
    for (i, s) in body.stmts.iter().enumerate() {
        if let Some(call) = s.as_call() {
            match p.str(call.callee.name) {
                "checkConnect" => check_idx = Some(i),
                "connect" => call_idx = Some(i),
                _ => {}
            }
        }
    }
    let (check_idx, call_idx) = (check_idx.unwrap(), call_idx.unwrap());
    // The check does NOT dominate the connect (the null-SecurityManager
    // path skips it) — matching the empty must policy the analysis
    // computes for this entry.
    assert!(!dom.dominates(check_idx, call_idx));
    let lib = Analyzer::new(&p, AnalysisOptions::default()).analyze_library("jdk");
    let entry = &lib.entries["java.net.Socket.connect(java.net.SocketAddress,int)"];
    let ev = entry
        .events
        .iter()
        .find(|(k, _)| matches!(k, spo_core::EventKey::Native(n) if &**n == "connect0"))
        .map(|(_, p)| p)
        .unwrap();
    assert!(ev.must.is_empty());
    assert!(!ev.may.is_empty());
}

#[test]
fn generated_corpus_is_lint_clean() {
    // Every reference in the generated implementations resolves: the
    // corpus has no accidental external references that the analysis
    // would silently skip.
    let c = corpus();
    for lib in Lib::ALL {
        let lints = spo_resolve::lint_program(c.program(lib));
        assert!(
            lints.is_empty(),
            "{lib}: {} lint findings, e.g. {} / {}",
            lints.len(),
            lints[0].location,
            lints[0].kind
        );
    }
}
