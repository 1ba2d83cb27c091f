//! `audit_cold`: the paper's headline job. Each op parses all three
//! implementations from `.jir` text, runs `AnalysisEngine::compare_all`
//! (full + intraprocedural ablation) and renders all three pairings.
//! The verdict is checked against the generator's ground-truth catalog.

use crate::common::{self, callgraph_ms, Verdicts};
use crate::probe::{ms_since, quantile, Spans};
use crate::{Ctx, Op, Workload};
use spo_core::ReportGroup;
use spo_corpus::{BugCategory, Corpus, Lib};
use spo_engine::AnalysisEngine;
use spo_jir::Program;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Default)]
pub struct AuditCold {
    corpus: Option<Corpus>,
    texts: Vec<String>,
}

impl Workload for AuditCold {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        self.corpus = None;
        let corpus = common::corpus(ctx.seed, 1.0);
        self.texts = Lib::ALL
            .iter()
            .map(|&l| common::jir_text(&corpus, l))
            .collect();
        self.corpus = Some(corpus);
        Ok(())
    }

    fn op(&mut self, _k: u64, spans: Option<&mut Spans>) -> Result<Op, String> {
        let corpus = self.corpus.as_ref().ok_or("audit_cold: no set-up")?;
        let texts: Vec<&str> = self.texts.iter().map(String::as_str).collect();
        let t0 = Instant::now();
        let verdicts = match spans {
            None => audit(&texts),
            Some(spans) => traced_audit(&texts, spans),
        };
        let ms = ms_since(t0);
        let ok = match verdicts {
            Ok(v) => {
                v.len() == 3
                    && v.iter().all(|(i, j, groups, report)| {
                        !report.is_empty()
                            && matches_catalog(corpus, Lib::ALL[*i], Lib::ALL[*j], groups)
                    })
            }
            Err(e) => {
                eprintln!("audit_cold: {e}");
                false
            }
        };
        Ok(Op { ms, ok, key: 0 })
    }

    fn run_values(&mut self, out: &mut BTreeMap<String, f64>) -> Result<(), String> {
        let programs = self
            .texts
            .iter()
            .map(|t| common::parse(t))
            .collect::<Result<Vec<_>, _>>()?;
        let impls: Vec<(&str, &Program)> = names().into_iter().zip(&programs).collect();
        let (cfgs, transfers) = common::work_counts(&impls);
        out.insert("jir.cfg_built".to_owned(), cfgs);
        out.insert("dataflow.transfers".to_owned(), transfers);
        let cg: Vec<f64> = (0..5)
            .map(|_| programs.iter().map(callgraph_ms).sum())
            .collect();
        out.insert("resolve.callgraph_ms".to_owned(), quantile(&cg, 0.5));
        Ok(())
    }
}

fn names() -> Vec<&'static str> {
    Lib::ALL.iter().map(|l| l.name()).collect()
}

/// The op: parse all three, `compare_all`, render every pairing.
fn audit(texts: &[&str]) -> Result<Verdicts, String> {
    let programs = texts
        .iter()
        .map(|t| common::parse(t))
        .collect::<Result<Vec<_>, _>>()?;
    let impls: Vec<(&str, &Program)> = names().into_iter().zip(&programs).collect();
    let set = AnalysisEngine::new(1).compare_all(&impls, common::options());
    degraded(&set.libraries)?;
    Ok(set
        .comparisons
        .into_iter()
        .map(|c| {
            let report = spo_core::render_reports(&c.diff, &c.groups);
            (c.pair.0, c.pair.1, c.groups, report)
        })
        .collect())
}

/// [`audit`] with a span around each layer's calls.
fn traced_audit(texts: &[&str], spans: &mut Spans) -> Result<Verdicts, String> {
    let programs = common::traced_parse(texts, spans)?;
    let impls: Vec<(&str, &Program)> = names().into_iter().zip(&programs).collect();
    let out = common::traced_compare(&AnalysisEngine::new(1), &impls, spans)?;
    spans.time("jir.free", || drop(programs));
    Ok(out)
}

fn degraded(libs: &[spo_core::LibraryPolicies]) -> Result<(), String> {
    match libs.iter().find(|l| !l.degraded.is_empty()) {
        Some(l) => Err(format!("{}: {} degraded roots", l.name, l.degraded.len())),
        None => Ok(()),
    }
}

/// Whether one pairing's groups are exactly the catalog's Table-3 counts:
/// every group classifies to an injected bug, and the distinct and
/// manifestation counts per category equal `catalog.expected(a, b)`.
fn matches_catalog(corpus: &Corpus, a: Lib, b: Lib, groups: &[ReportGroup]) -> bool {
    let mut counts: BTreeMap<(BugCategory, Option<Lib>), (usize, usize)> = BTreeMap::new();
    for g in groups {
        let Some(bug) = corpus.catalog.classify(g) else {
            eprintln!("audit_cold: {a} vs {b}: unmatched group {}", g.root_key);
            return false;
        };
        // Vulnerabilities are tallied per buggy library, the rest pooled.
        let lib = (bug.category == BugCategory::Vulnerability).then_some(bug.buggy_lib);
        let slot = counts.entry((bug.category, lib)).or_default();
        slot.0 += 1;
        slot.1 += g.manifestation_count();
    }
    let exp = corpus.catalog.expected(a, b);
    let mut want: BTreeMap<(BugCategory, Option<Lib>), (usize, usize)> = BTreeMap::new();
    for (lib, v) in &exp.vulns {
        want.insert((BugCategory::Vulnerability, Some(*lib)), *v);
    }
    want.insert((BugCategory::Interop, None), exp.interop);
    want.insert((BugCategory::FalsePositive, None), exp.false_positives);
    want.retain(|_, v| v.0 > 0);
    if counts != want {
        eprintln!("audit_cold: {a} vs {b}: got {counts:?}, catalog expects {want:?}");
        return false;
    }
    true
}
