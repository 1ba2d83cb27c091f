//! `index_diff`: policy exchange without source. Set-up compiles jdk and
//! harmony at scale 4 into `.spi` indexes (`spo cache export-index`).
//! Each op is `spo index diff jdk.spi harmony.spi` (read, parse, decode
//! with `to_libraries`, `diff_rendered`) plus 16 seeded
//! `PolicyIndex::query` calls. No parsing of `.jir` and no ISPA.

use crate::common;
use crate::probe::{ms_since, Spans};
use crate::{Ctx, Op, Workload};
use spo_corpus::Lib;
use spo_engine::AnalysisEngine;
use spo_index::{IndexBuilder, PolicyIndex};
use spo_rng::SmallRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SCALE: f64 = 4.0;
/// Queries per op.
const QUERIES: usize = 16;
/// Distinct query sets an op cycles through.
const QUERY_SETS: usize = 4;
const LIBS: [Lib; 2] = [Lib::Jdk, Lib::Harmony];

#[derive(Default)]
pub struct IndexDiff {
    paths: Vec<PathBuf>,
    /// Analysis-path diff report of the same sources.
    reference: String,
    /// Per query set: (signature, analysis-path rendering) against jdk.
    queries: Vec<Vec<(String, String)>>,
    build_ms: f64,
}

impl Workload for IndexDiff {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        let corpus = common::corpus(ctx.seed, SCALE);
        let engine = AnalysisEngine::new(1);
        let mut analyses = Vec::new();
        self.paths.clear();
        let mut build_ms = 0.0;
        for lib in LIBS {
            let name = lib.name();
            let program = corpus.program(lib);
            let options = common::options();
            let (full, _) = engine.analyze_library(program, name, options);
            let (intra, _) = engine.analyze_library(program, name, common::intra_options());
            let t0 = Instant::now();
            let roots = spo_resolve::entry_points(program);
            let keyer = spo_cache::CacheKeyer::new(program, &roots, &options);
            let fingerprints: BTreeMap<String, u64> = roots
                .iter()
                .filter_map(|&r| Some((program.method_signature(r), keyer.key(r)?)))
                .collect();
            let bytes = IndexBuilder::new(name, &options, &full, &intra)
                .fingerprints(&fingerprints)
                .build()
                .map_err(|e| format!("index build {name}: {e}"))?;
            let path = ctx.work.join(format!("index_diff-{name}.spi"));
            std::fs::write(&path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
            build_ms += ms_since(t0);
            self.paths.push(path);
            analyses.push((full, intra));
        }
        self.build_ms = build_ms;
        let (l, r) = (&analyses[0], &analyses[1]);
        self.reference = common::pairing_report((&l.0, &l.1), (&r.0, &r.1));
        let sigs: Vec<&String> = l.0.entries.keys().collect();
        let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x1dec5);
        self.queries = (0..QUERY_SETS)
            .map(|_| {
                (0..QUERIES)
                    .map(|_| {
                        let sig = sigs[rng.gen_range(0..sigs.len())];
                        (sig.clone(), spo_core::render_entry(sig, &l.0.entries[sig]))
                    })
                    .collect()
            })
            .collect();
        Ok(())
    }

    fn op(&mut self, k: u64, spans: Option<&mut Spans>) -> Result<Op, String> {
        let set = (k % QUERY_SETS as u64) as usize;
        let queries = &self.queries[set];
        let t0 = Instant::now();
        let res = match spans {
            None => index_diff(&self.paths, queries),
            Some(spans) => traced_index_diff(&self.paths, queries, spans),
        };
        let ms = ms_since(t0);
        let ok = match res {
            Ok((report, answers)) => {
                report == self.reference
                    && answers.len() == queries.len()
                    && answers.iter().zip(queries).all(|(a, q)| *a == q.1)
            }
            Err(e) => {
                eprintln!("index_diff: {e}");
                false
            }
        };
        Ok(Op {
            ms,
            ok,
            key: set as u64,
        })
    }

    fn run_values(&mut self, out: &mut BTreeMap<String, f64>) -> Result<(), String> {
        let bytes: u64 = self
            .paths
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()))
            .sum::<std::io::Result<u64>>()
            .map_err(|e| format!("index_diff: {e}"))?;
        out.insert("index.mb".to_owned(), bytes as f64 / 1e6);
        out.insert("index.build_ms".to_owned(), self.build_ms);
        Ok(())
    }
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    spo_index::read_index_file(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse<'a>(path: &Path, bytes: &'a [u8]) -> Result<PolicyIndex<'a>, String> {
    PolicyIndex::parse(bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn answer(index: &PolicyIndex, queries: &[(String, String)]) -> Result<Vec<String>, String> {
    queries
        .iter()
        .map(|(sig, _)| {
            index
                .query(sig)?
                .ok_or_else(|| format!("no entry point {sig}"))
        })
        .collect()
}

/// `spo index diff` plus queries against the left index.
fn index_diff(
    paths: &[PathBuf],
    queries: &[(String, String)],
) -> Result<(String, Vec<String>), String> {
    let (lb, rb) = (read(&paths[0])?, read(&paths[1])?);
    let (left, right) = (parse(&paths[0], &lb)?, parse(&paths[1], &rb)?);
    if left.options_token() != right.options_token() {
        return Err("analysis options mismatch".to_owned());
    }
    let (lf, li) = left.to_libraries()?;
    let (rf, ri) = right.to_libraries()?;
    let (report, _) = spo_index::diff_rendered(&lf, &li, &rf, &ri);
    Ok((report, answer(&left, queries)?))
}

/// [`index_diff`] with a span around each layer's calls;
/// `diff_rendered`'s composition is split into its core steps.
fn traced_index_diff(
    paths: &[PathBuf],
    queries: &[(String, String)],
    spans: &mut Spans,
) -> Result<(String, Vec<String>), String> {
    let (lb, rb) = spans.time("index.read", || {
        Ok::<_, String>((read(&paths[0])?, read(&paths[1])?))
    })?;
    let (left, right) = spans.time("index.parse", || {
        Ok::<_, String>((parse(&paths[0], &lb)?, parse(&paths[1], &rb)?))
    })?;
    if left.options_token() != right.options_token() {
        return Err("analysis options mismatch".to_owned());
    }
    let ((lf, li), (rf, ri)) = spans.time("index.decode", || {
        Ok::<_, String>((left.to_libraries()?, right.to_libraries()?))
    })?;
    let core0 = core_ms(spans);
    let (_, report) = common::traced_pairing((&lf, &li), (&rf, &ri), spans);
    spans.add("index.diff_ms", core_ms(spans) - core0);
    let answers = spans.time("index.query", || answer(&left, queries))?;
    let query_ms = spans.spans.get("index.query").map_or(0.0, |s| s.0);
    spans.add("index.query_us", query_ms * 1e3 / queries.len() as f64);
    spans.time("index.free", || drop((lf, li, rf, ri, left, right)));
    Ok((report, answers))
}

fn core_ms(spans: &Spans) -> f64 {
    ["core.diff", "core.group", "core.render"]
        .iter()
        .filter_map(|s| spans.spans.get(s))
        .map(|s| s.0)
        .sum()
}
