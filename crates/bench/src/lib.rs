//! Shared harness utilities for the table-regeneration binaries.
//!
//! Each binary regenerates one table of the paper's evaluation (§6) over
//! the synthetic corpus and prints measured-vs-paper rows. Scale is
//! controlled by the `SPO_SCALE` environment variable (default `1.0`,
//! approximating the paper's library sizes).

use spo_core::{AnalysisOptions, LibraryPolicies};
use spo_corpus::{generate, Corpus, CorpusConfig, Lib};
use spo_engine::AnalysisEngine;
use spo_obs::{Recorder, Snapshot};

/// Reads the corpus scale from `SPO_SCALE` (default 1.0).
pub fn scale_from_env() -> f64 {
    std::env::var("SPO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Generates the corpus at the environment-selected scale, printing a
/// header.
pub fn corpus_from_env() -> Corpus {
    let scale = scale_from_env();
    let config = CorpusConfig {
        scale,
        ..Default::default()
    };
    eprintln!(
        "generating corpus (scale {scale}, seed {:#x}) ...",
        config.seed
    );
    let t = std::time::Instant::now();
    let corpus = generate(&config);
    eprintln!("generated in {:?}", t.elapsed());
    corpus
}

/// Analyzes all three implementations through the parallel engine (each
/// library's entry points fan out across the worker pool; results are
/// identical to a serial run).
pub fn analyze_all(corpus: &Corpus, options: AnalysisOptions) -> Vec<(Lib, LibraryPolicies)> {
    let engine = AnalysisEngine::default();
    Lib::ALL
        .iter()
        .map(|&lib| {
            let (policies, stats) =
                engine.analyze_library(corpus.program(lib), lib.name(), options);
            eprintln!("  {lib}: {stats}");
            (lib, policies)
        })
        .collect()
}

/// Analyzes one library with an enabled [`Recorder`] and returns the
/// `spo-stats/1` snapshot.
///
/// The table binaries keep their *timed* runs recorder-disabled (the
/// disabled recorder is a no-op, but a belt-and-braces guarantee that
/// instrumentation can't perturb the published timings) and derive
/// cache-efficiency and fixpoint-cost columns from a separate
/// instrumented run through this helper.
pub fn instrumented_stats(
    corpus: &Corpus,
    lib: Lib,
    options: AnalysisOptions,
    jobs: usize,
) -> Snapshot {
    let rec = Recorder::new();
    let engine = AnalysisEngine::new(jobs).with_recorder(rec.clone());
    let _ = engine.analyze_library(corpus.program(lib), lib.name(), options);
    rec.snapshot()
}

/// Cache-efficiency and fixpoint-cost columns derived from a
/// `spo-stats/1` snapshot, shared by the `BENCH_*.json` emitters.
#[derive(Debug, Default)]
pub struct DerivedCosts {
    /// Summary-memo hits (`ispa.memo.hits`).
    pub memo_hits: u64,
    /// Summary-memo misses (`ispa.memo.misses`).
    pub memo_misses: u64,
    /// Shared-store lookup hits (`store.hits`).
    pub store_hits: u64,
    /// Shared-store lookup misses (`store.misses`).
    pub store_misses: u64,
    /// Shared-store contended shard acquisitions (`store.contended`).
    pub store_contended: u64,
    /// Committed frames (`fixpoint.transfers` observation count).
    pub frames: u64,
    /// Total committed statement transfers (`fixpoint.transfers` sum).
    pub fixpoint_transfers: u64,
    /// Total committed re-pass transfers (`fixpoint.repasses` sum).
    pub fixpoint_repasses: u64,
}

impl DerivedCosts {
    /// Extracts the derived columns from a snapshot.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let work = |k: &str| snap.work.get(k).copied().unwrap_or(0);
        let hist = |k: &str| snap.histograms.get(k).cloned().unwrap_or_default();
        let transfers = hist("fixpoint.transfers");
        DerivedCosts {
            memo_hits: work("ispa.memo.hits"),
            memo_misses: work("ispa.memo.misses"),
            store_hits: work("store.hits"),
            store_misses: work("store.misses"),
            store_contended: work("store.contended"),
            frames: transfers.count,
            fixpoint_transfers: transfers.sum,
            fixpoint_repasses: hist("fixpoint.repasses").sum,
        }
    }

    /// Memo hit rate in `[0, 1]` (0.0 when no lookups happened).
    pub fn memo_hit_rate(&self) -> f64 {
        rate(self.memo_hits, self.memo_misses)
    }

    /// Shared-store hit rate in `[0, 1]`.
    pub fn store_hit_rate(&self) -> f64 {
        rate(self.store_hits, self.store_misses)
    }

    /// Mean statement transfers per committed fixpoint solve.
    pub fn transfers_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.fixpoint_transfers as f64 / self.frames as f64
        }
    }

    /// Fraction of transfers spent re-visiting already-seen statements.
    pub fn repass_fraction(&self) -> f64 {
        if self.fixpoint_transfers == 0 {
            0.0
        } else {
            self.fixpoint_repasses as f64 / self.fixpoint_transfers as f64
        }
    }

    /// Renders the columns as the body of a JSON object (no braces).
    pub fn json_fields(&self, indent: &str) -> String {
        format!(
            "{indent}\"memo_hits\": {}, \"memo_misses\": {}, \"memo_hit_rate\": {:.4},\n\
             {indent}\"store_hits\": {}, \"store_misses\": {}, \"store_contended\": {}, \
             \"store_hit_rate\": {:.4},\n\
             {indent}\"frames\": {}, \"fixpoint_transfers\": {}, \"fixpoint_repasses\": {}, \
             \"transfers_per_frame\": {:.2}, \"repass_fraction\": {:.4}",
            self.memo_hits,
            self.memo_misses,
            self.memo_hit_rate(),
            self.store_hits,
            self.store_misses,
            self.store_contended,
            self.store_hit_rate(),
            self.frames,
            self.fixpoint_transfers,
            self.fixpoint_repasses,
            self.transfers_per_frame(),
            self.repass_fraction(),
        )
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Re-indents a rendered JSON document so it can be embedded as a value
/// inside a larger hand-rolled document: every line after the first is
/// prefixed with `indent` spaces, and the trailing newline is dropped.
pub fn embed_json(json: &str, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let mut out = String::new();
    for (i, line) in json.trim_end().lines().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str(&pad);
        }
        out.push_str(line);
    }
    out
}

/// A fixed-width table printer for paper-style tables.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths = vec![0usize; ncols];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |row: &[String]| {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats the paper's `distinct (manifestations)` cell.
pub fn dm(distinct: usize, manifestations: usize) -> String {
    format!("{distinct} ({manifestations})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "long-header", "c"]);
        t.row(vec!["1", "2", "3"]);
        t.row(vec!["wide-cell", "x", "y"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[2].starts_with("1"));
    }

    #[test]
    fn dm_format() {
        assert_eq!(dm(6, 23), "6 (23)");
    }

    #[test]
    fn embed_json_indents_continuation_lines() {
        let doc = "{\n  \"a\": 1\n}\n";
        assert_eq!(embed_json(doc, 4), "{\n      \"a\": 1\n    }");
        assert_eq!(embed_json("{}", 2), "{}");
    }

    #[test]
    fn derived_costs_from_instrumented_run() {
        let corpus = generate(&CorpusConfig::test_sized());
        let snap = instrumented_stats(&corpus, Lib::Jdk, AnalysisOptions::default(), 1);
        let costs = DerivedCosts::from_snapshot(&snap);
        assert!(costs.frames > 0);
        assert!(costs.fixpoint_transfers >= costs.frames);
        assert!(costs.transfers_per_frame() >= 1.0);
        assert!((0.0..=1.0).contains(&costs.memo_hit_rate()));
        assert!((0.0..=1.0).contains(&costs.repass_fraction()));
        let fields = costs.json_fields("  ");
        assert!(fields.contains("\"transfers_per_frame\""));
        assert!(fields.contains("\"store_contended\""));
    }

    #[test]
    fn parallel_analysis_matches_serial() {
        use spo_core::Analyzer;
        let corpus = generate(&CorpusConfig::test_sized());
        let par = analyze_all(&corpus, AnalysisOptions::default());
        for (lib, policies) in &par {
            let serial = Analyzer::new(corpus.program(*lib), AnalysisOptions::default())
                .analyze_library(lib.name());
            assert_eq!(policies.entries.len(), serial.entries.len());
            for (sig, e) in &serial.entries {
                assert_eq!(&policies.entries[sig].events, &e.events, "{lib} {sig}");
            }
        }
    }
}
