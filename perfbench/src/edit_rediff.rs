//! `edit_rediff`: the CI re-check loop, `spo diff jdk.jir --vs
//! harmony.jir --cache-dir DIR` after a one-method edit. Each op applies
//! one seeded edit to the original jdk text (it drops one security check
//! from one method body), opens the cache, parses both programs, runs
//! `compare_all` on a cache-attached engine, renders, and flushes. The
//! only workload that reads and writes the summary cache.

use crate::common;
use crate::probe::{ms_since, Spans};
use crate::{Ctx, Op, Workload};
use security_policy_oracle::compare_implementations_with;
use spo_cache::{ContentTable, PolicyCache};
use spo_corpus::Lib;
use spo_engine::AnalysisEngine;
use spo_rng::SmallRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Distinct edits an op cycles through.
const EDITS: usize = 6;

#[derive(Default)]
pub struct EditRediff {
    cache_dir: PathBuf,
    /// The jdk text with each edit applied.
    edited: Vec<String>,
    harmony: String,
    /// Cold, cache-less report of each edit.
    reference: Vec<String>,
}

impl EditRediff {
    fn pack_bytes(&self) -> u64 {
        std::fs::read_dir(&self.cache_dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "spc"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }
}

/// `EDITS` seeded edits of the jdk text, each with one
/// `virtualinvoke sm.check...` line removed from one method body.
fn edits(jdk: &str, seed: u64) -> Vec<String> {
    let lines: Vec<&str> = jdk.lines().collect();
    let checks: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            let l = l.trim_start();
            l.starts_with("virtualinvoke sm.check") && l.ends_with(");")
        })
        .map(|(i, _)| i)
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xed17);
    let mut chosen: Vec<usize> = Vec::new();
    while chosen.len() < EDITS.min(checks.len()) {
        let i = checks[rng.gen_range(0..checks.len())];
        if !chosen.contains(&i) {
            chosen.push(i);
        }
    }
    chosen
        .into_iter()
        .map(|drop| {
            let mut out = String::with_capacity(jdk.len());
            for (i, l) in lines.iter().enumerate() {
                if i != drop {
                    out.push_str(l);
                    out.push('\n');
                }
            }
            out
        })
        .collect()
}

impl Workload for EditRediff {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        self.cache_dir = ctx.work.join("edit_rediff-cache");
        match std::fs::remove_dir_all(&self.cache_dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("{}: {e}", self.cache_dir.display()))
            }
            _ => {}
        }
        let corpus = common::corpus(ctx.seed, 1.0);
        let jdk = common::jir_text(&corpus, Lib::Jdk);
        self.harmony = common::jir_text(&corpus, Lib::Harmony);
        self.edited = edits(&jdk, ctx.seed);
        if self.edited.len() < EDITS {
            return Err(format!(
                "edit_rediff: only {} editable checks",
                self.edited.len()
            ));
        }
        // Cache fill: one diff of the unedited sources.
        self.diff(&jdk, None)?;
        Ok(())
    }

    fn references(&mut self) -> Result<(), String> {
        self.reference = self
            .edited
            .iter()
            .map(|jdk| {
                let left = common::parse(jdk)?;
                let right = common::parse(&self.harmony)?;
                let engine = AnalysisEngine::new(1);
                Ok(compare_implementations_with(
                    &left,
                    "left",
                    &right,
                    "right",
                    common::options(),
                    &engine,
                )
                .render())
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }

    fn op(&mut self, k: u64, spans: Option<&mut Spans>) -> Result<Op, String> {
        let e = (k % EDITS as u64) as usize;
        let t0 = Instant::now();
        let res = self.diff(&self.edited[e], spans);
        let ms = ms_since(t0);
        let ok = match res {
            Ok(report) => report == self.reference[e],
            Err(err) => {
                eprintln!("edit_rediff: {err}");
                false
            }
        };
        // The first pass over the edits starts from the set-up's cache
        // state, later passes from the previous edit's.
        let key = e as u64 + if k < EDITS as u64 { EDITS as u64 } else { 0 };
        Ok(Op { ms, ok, key })
    }

    fn run_values(&mut self, out: &mut BTreeMap<String, f64>) -> Result<(), String> {
        out.insert("cache.pack_mb".to_owned(), self.pack_bytes() as f64 / 1e6);
        let programs = [
            common::parse(&self.edited[0])?,
            common::parse(&self.harmony)?,
        ];
        let (cfgs, transfers) =
            common::work_counts(&[("left", &programs[0]), ("right", &programs[1])]);
        out.insert("jir.cfg_built".to_owned(), cfgs);
        out.insert("dataflow.transfers".to_owned(), transfers);
        // The engine builds one content table per analysis; timed
        // standalone for both option sets over both programs.
        let t0 = Instant::now();
        for p in &programs {
            for options in [common::options(), common::intra_options()] {
                std::hint::black_box(ContentTable::new(p, &options));
            }
        }
        out.insert("cache.content_table_ms".to_owned(), ms_since(t0));
        Ok(())
    }
}

impl EditRediff {
    /// `spo diff jdk --vs harmony --cache-dir DIR`, in process. With
    /// `spans`, the same calls each wrapped in its layer's span.
    fn diff(&self, jdk: &str, spans: Option<&mut Spans>) -> Result<String, String> {
        let open = || {
            PolicyCache::open(&self.cache_dir)
                .map(Arc::new)
                .map_err(|e| format!("{}: {e}", self.cache_dir.display()))
        };
        match spans {
            None => {
                let cache = open()?;
                let left = common::parse(jdk)?;
                let right = common::parse(&self.harmony)?;
                let engine = AnalysisEngine::new(1).with_cache(Arc::clone(&cache));
                let report = compare_implementations_with(
                    &left,
                    "left",
                    &right,
                    "right",
                    common::options(),
                    &engine,
                );
                if let Some(lib) = [&report.left, &report.right]
                    .into_iter()
                    .find(|l| !l.degraded.is_empty())
                {
                    return Err(format!(
                        "{}: {} degraded roots",
                        lib.name,
                        lib.degraded.len()
                    ));
                }
                let out = report.render();
                cache.flush();
                healthy(&cache)?;
                Ok(out)
            }
            Some(spans) => {
                let cache = spans.time("cache.open", open)?;
                let programs = common::traced_parse(&[jdk, &self.harmony], spans)?;
                let engine = AnalysisEngine::new(1).with_cache(Arc::clone(&cache));
                let mut out = common::traced_compare(
                    &engine,
                    &[("left", &programs[0]), ("right", &programs[1])],
                    spans,
                )?;
                spans.time("cache.flush", || cache.flush());
                healthy(&cache)?;
                spans.time("jir.free", || drop(programs));
                spans.time("cache.free", || drop((engine, cache)));
                Ok(out.pop().ok_or("edit_rediff: no pairing")?.3)
            }
        }
    }
}

/// A cache diagnostic (an unreadable pack, a failed flush) fails the op:
/// the benchmark expects a healthy cache directory.
fn healthy(cache: &PolicyCache) -> Result<(), String> {
    match cache.take_diagnostics().first() {
        Some(d) => Err(format!("cache: {d}")),
        None => Ok(()),
    }
}
