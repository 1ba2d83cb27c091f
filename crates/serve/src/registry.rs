//! The daemon's warm state: loaded programs and their finished analyses.
//!
//! A [`Registry`] maps program names to immutable [`ProgramEntry`]
//! snapshots. Each entry keeps, per [`OptionsSpec`], the finished
//! [`Analysis`] (report bytes, diagnostics, exit code). Repeat requests
//! are answered from that map without touching the engine; a cold request
//! runs the engine with a summary store of its own, dropped with the run.
//! `reload` swaps in a fresh snapshot and re-analyzes previously-warm
//! option sets through the persistent [`PolicyCache`], so only roots whose
//! dependence cone changed are recomputed.
//!
//! A compiled policy index (`.spi`) is one more way to fill the warm map:
//! [`Registry::seed_index`] inserts the index's full analysis under the
//! option set it was exported with, and its intraprocedural ablation under
//! that set's `intra()`, into the named entry. A name with a loaded
//! program takes only an index exported from that program (same entry
//! points, same cone keys); any other is refused, and the name keeps
//! answering from analysis. A name that has no loaded program gets an
//! *index-only* entry: it answers the seeded option sets
//! and returns the typed `not-found` for everything else, `reload`
//! included — it never analyzes an empty program.
//!
//! Analyses are keyed per *(program entry, options)* and a `load` or
//! `reload` always builds a fresh entry with an empty map — a result,
//! seeded or computed, never survives a program swap, and never leaks
//! across option sets.
//!
//! Degraded analyses (budget/deadline/cancel-tripped) are returned to the
//! requesting session but **not** inserted into the warm map: a partial
//! result must not become the resident answer for later, unconstrained
//! requests.

use crate::proto::{ErrorKind, OptionsSpec, RequestError};
use spo_cache::{entry_fingerprints, PolicyCache};
use spo_core::{diff_pair, render_analysis, render_reports, AnalysisOptions, LibraryPolicies};
use spo_engine::{load_program, record_diagnostic, AnalysisEngine, Instruments};
use spo_guard::Diagnostic;
use spo_index::PolicyIndex;
use spo_jir::Program;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, RwLock};

/// One finished analysis of a program under one option set. The `report`
/// field holds exactly the bytes `spo analyze` would print for the same
/// inputs ([`spo_core::render_analysis`] is the single renderer both go
/// through), which is what makes daemon responses byte-identical to the
/// one-shot CLI.
#[derive(Debug)]
pub struct Analysis {
    /// The computed policies.
    pub lib: LibraryPolicies,
    /// `spo analyze`-identical report bytes.
    pub report: String,
    /// Sorted parse warnings plus degraded-root records.
    pub diagnostics: Vec<Diagnostic>,
    /// The exit code the one-shot CLI would return (0 or 2).
    pub exit_code: u8,
    /// Persistent-cache hits for the run that produced this analysis.
    pub cache_hits: u64,
    /// Persistent-cache misses (cold roots) for that run.
    pub cache_misses: u64,
}

impl Analysis {
    /// Finishes `lib` for `entry`: renders the report and folds the
    /// entry's parse warnings and the run's degraded roots into the
    /// sorted diagnostics and the exit code.
    fn new(
        lib: LibraryPolicies,
        entry: &ProgramEntry,
        cache_hits: u64,
        cache_misses: u64,
    ) -> Analysis {
        let mut diagnostics = entry.parse_warnings.clone();
        diagnostics.extend(lib.degraded.values().cloned());
        diagnostics.sort();
        Analysis {
            report: render_analysis(&lib),
            exit_code: if diagnostics.is_empty() { 0 } else { 2 },
            lib,
            diagnostics,
            cache_hits,
            cache_misses,
        }
    }
}

/// An immutable snapshot of one loaded program plus its warm state.
#[derive(Debug)]
pub struct ProgramEntry {
    /// The handle requests use.
    pub name: String,
    /// Source files, kept for `reload`; empty for an index-only entry.
    pub paths: Vec<String>,
    /// The parsed program; `None` for an entry seeded from an index alone.
    pub program: Option<Program>,
    /// Sorted parse-recovery warnings from loading.
    pub parse_warnings: Vec<Diagnostic>,
    /// Number of classes parsed.
    pub classes: usize,
    /// Number of API entry points.
    pub entry_points: usize,
    analyses: Mutex<BTreeMap<OptionsSpec, Arc<Analysis>>>,
}

/// What `load` reports back.
#[derive(Debug)]
pub struct LoadSummary {
    /// Classes parsed.
    pub classes: usize,
    /// API entry points found.
    pub entry_points: usize,
    /// Parse-recovery warnings.
    pub warnings: Vec<Diagnostic>,
    /// Whether an earlier program under the same name was replaced.
    pub replaced: bool,
}

/// What `reload` reports back: the fresh load summary plus, per
/// re-analyzed option set, the warm-start hit/miss split showing how much
/// of the cone survived the edit.
#[derive(Debug)]
pub struct ReloadSummary {
    /// The fresh load.
    pub load: LoadSummary,
    /// `(options key, cache hits, cache misses)` per re-analyzed set.
    pub reanalyzed: Vec<(String, u64, u64)>,
}

/// The outcome of differencing two loaded programs. Computed fresh from
/// the (warm) per-program analyses on every request — the composition is
/// deterministic, so repeats are byte-identical without a diff cache that
/// would need its own invalidation story.
#[derive(Debug)]
pub struct DiffOutcome {
    /// `spo diff`-identical report bytes.
    pub report: String,
    /// Sorted parse warnings plus degraded roots of both full runs.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether any difference groups were reported.
    pub findings: bool,
    /// The exit code the one-shot CLI would return (0, 1, or 2).
    pub exit_code: u8,
}

/// The daemon's program table and analysis executor.
#[derive(Debug)]
pub struct Registry {
    programs: RwLock<BTreeMap<String, Arc<ProgramEntry>>>,
    jobs: usize,
    cache: Option<Arc<PolicyCache>>,
}

impl Registry {
    /// Creates an empty registry. `jobs` is the engine worker count per
    /// analysis (0 = all CPUs); `cache` is the shared persistent summary
    /// cache warm-starting analyses and reloads. Every operation takes the
    /// request's [`Instruments`]: its recorder sees parse and analysis
    /// metrics, its tracer gets the engine's lanes, its fault plan and
    /// guard govern the run.
    pub fn new(jobs: usize, cache: Option<Arc<PolicyCache>>) -> Registry {
        Registry {
            programs: RwLock::new(BTreeMap::new()),
            jobs,
            cache,
        }
    }

    /// The shared persistent cache, if one is attached.
    pub fn cache(&self) -> Option<&Arc<PolicyCache>> {
        self.cache.as_ref()
    }

    /// Currently loaded program names.
    pub fn names(&self) -> Vec<String> {
        self.programs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// Looks up a loaded (or index-seeded) program.
    pub fn get(&self, name: &str) -> Result<Arc<ProgramEntry>, RequestError> {
        self.programs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
            .ok_or_else(|| not_loaded(name))
    }

    /// Parses `paths` into a fresh entry through [`load_program`], the
    /// loader the CLI uses too: malformed members are dropped and reported
    /// as warnings, only I/O errors are fatal.
    fn build_entry(
        &self,
        name: &str,
        paths: &[String],
        instruments: &Instruments,
    ) -> Result<Arc<ProgramEntry>, RequestError> {
        let mut warnings = Vec::new();
        let program = load_program(paths, &instruments.recorder, &mut warnings)
            .map_err(|e| RequestError::new(ErrorKind::Io, e))?;
        warnings.sort();
        let classes = program.class_count();
        let entry_points = spo_resolve::entry_points(&program).len();
        Ok(Arc::new(ProgramEntry {
            name: name.to_owned(),
            paths: paths.to_vec(),
            program: Some(program),
            parse_warnings: warnings,
            classes,
            entry_points,
            analyses: Mutex::new(BTreeMap::new()),
        }))
    }

    /// Loads (or replaces) a program under `name`.
    pub fn load(
        &self,
        name: &str,
        paths: &[String],
        instruments: &Instruments,
    ) -> Result<LoadSummary, RequestError> {
        let entry = self.build_entry(name, paths, instruments)?;
        let summary = LoadSummary {
            classes: entry.classes,
            entry_points: entry.entry_points,
            warnings: entry.parse_warnings.clone(),
            replaced: false,
        };
        let replaced = self
            .programs
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_owned(), entry)
            .is_some();
        Ok(LoadSummary {
            replaced,
            ..summary
        })
    }

    /// Seeds `name`'s warm map from a compiled policy index: the full
    /// analysis under the option set whose token the index carries, the
    /// intraprocedural ablation under that set's `intra()`, both renamed
    /// to `name`. When `name` has a loaded program, the index must have
    /// been exported from that program: the same entry points, each with
    /// the cone key the program gives it; seeded answers then stand in for
    /// the program's under those option sets until the next
    /// `load`/`reload`. Without a loaded program the entry is index-only.
    /// Returns the number of seeded entry points.
    ///
    /// # Errors
    ///
    /// Fails if the index does not decode, was exported under options no
    /// request can name, or does not match the loaded program (naming the
    /// first entry point that differs).
    pub fn seed_index(&self, name: &str, index: &PolicyIndex<'_>) -> Result<usize, String> {
        let token = index.options_token();
        let spec = [false, true]
            .into_iter()
            .flat_map(|broad| {
                [false, true].map(|no_icp| OptionsSpec {
                    broad,
                    no_icp,
                    intra_only: false,
                })
            })
            .find(|s| spo_index::options_token(&s.to_options()) == token)
            .ok_or_else(|| format!("index options \"{token}\" match no request option set"))?;
        let mut programs = self.programs.write().unwrap_or_else(|e| e.into_inner());
        if let Some(program) = programs.get(name).and_then(|e| e.program.as_ref()) {
            check_exported_from(program, index, &spec.to_options())?;
        }
        let (mut full, mut intra) = index.to_libraries()?;
        // Whatever name the exporter used, report headers must match what
        // an analysis of the program loaded under `name` would print.
        full.name = name.to_owned();
        intra.name = name.to_owned();
        let seeded = full.entries.len();
        let entry = programs.entry(name.to_owned()).or_insert_with(|| {
            Arc::new(ProgramEntry {
                name: name.to_owned(),
                paths: Vec::new(),
                program: None,
                parse_warnings: Vec::new(),
                classes: 0,
                entry_points: seeded,
                analyses: Mutex::new(BTreeMap::new()),
            })
        });
        let full = Analysis::new(full, entry, 0, 0);
        let intra = Analysis::new(intra, entry, 0, 0);
        let mut analyses = entry.analyses.lock().unwrap_or_else(|e| e.into_inner());
        analyses.insert(spec, Arc::new(full));
        analyses.insert(spec.intra(), Arc::new(intra));
        Ok(seeded)
    }

    /// Returns the analysis of `entry` under `spec`, computing it if no
    /// warm copy exists. The boolean is `true` on a warm (resident) hit.
    /// An index-only entry answers only its seeded option sets; any other
    /// is the typed `not-found` a name with no program gets.
    ///
    /// Concurrent cold requests for the same key may race the
    /// computation; both produce identical bytes (the engine's root-order
    /// merge is deterministic) and the first insert wins, so every caller
    /// hands back the same resident `Arc` afterwards. Warm hits never
    /// touch the engine, so a warm request's trace shows only its
    /// request-level span — which is itself the telemetry (the request
    /// cost nothing).
    pub fn analysis(
        &self,
        entry: &ProgramEntry,
        spec: OptionsSpec,
        instruments: &Instruments,
    ) -> Result<(Arc<Analysis>, bool), RequestError> {
        if let Some(a) = entry
            .analyses
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&spec)
        {
            return Ok((Arc::clone(a), true));
        }
        let program = entry
            .program
            .as_ref()
            .ok_or_else(|| not_loaded(&entry.name))?;
        let mut engine = AnalysisEngine::new(self.jobs).with_instruments(instruments.clone());
        if let Some(cache) = &self.cache {
            engine = engine.with_cache(Arc::clone(cache));
        }
        let (lib, stats) = engine.analyze_library(program, &entry.name, spec.to_options());
        // Cache fallback warnings go to the daemon's stats stream — like
        // the CLI they never taint the response's degraded state, because
        // an unusable cache entry only means the root ran cold.
        if let Some(cache) = &self.cache {
            let mut ds = cache.take_diagnostics();
            ds.sort();
            for d in &ds {
                record_diagnostic(&instruments.recorder, d);
            }
        }
        let analysis = Arc::new(Analysis::new(
            lib,
            entry,
            stats.cache_hits,
            stats.cache_misses,
        ));
        if !analysis.lib.degraded.is_empty() {
            // A budget-clipped result answers only the session that asked
            // for it; the warm map keeps waiting for a clean run.
            return Ok((analysis, false));
        }
        let winner = Arc::clone(
            entry
                .analyses
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entry(spec)
                .or_insert(analysis),
        );
        Ok((winner, false))
    }

    /// Differences two loaded programs under `spec` through [`diff_pair`]
    /// over whole-library ablations, which stay warm across requests; the
    /// groups equal the engine's demand-driven `compare_all`. The boolean
    /// is `true` when all four constituent analyses were warm; they all
    /// share the request's instruments.
    ///
    /// # Errors
    ///
    /// The typed `not-found` of [`Registry::analysis`] for a side that is
    /// index-only and was not seeded under `spec`.
    pub fn diff(
        &self,
        left: &ProgramEntry,
        right: &ProgramEntry,
        spec: OptionsSpec,
        instruments: &Instruments,
    ) -> Result<(DiffOutcome, bool), RequestError> {
        let (left_full, w1) = self.analysis(left, spec, instruments)?;
        let (right_full, w2) = self.analysis(right, spec, instruments)?;
        let (left_intra, w3) = self.analysis(left, spec.intra(), instruments)?;
        let (right_intra, w4) = self.analysis(right, spec.intra(), instruments)?;
        let (diff, groups) = diff_pair(
            (&left_full.lib, &left_intra.lib),
            (&right_full.lib, &right_intra.lib),
        );
        let report = render_reports(&diff, &groups);
        let mut diagnostics: Vec<Diagnostic> = left
            .parse_warnings
            .iter()
            .chain(&right.parse_warnings)
            .cloned()
            .collect();
        diagnostics.extend(left_full.lib.degraded.values().cloned());
        diagnostics.extend(right_full.lib.degraded.values().cloned());
        diagnostics.sort();
        let findings = !groups.is_empty();
        let exit_code = if !diagnostics.is_empty() {
            2
        } else {
            u8::from(findings)
        };
        let outcome = DiffOutcome {
            report,
            diagnostics,
            findings,
            exit_code,
        };
        Ok((outcome, w1 && w2 && w3 && w4))
    }

    /// Re-reads a program's sources, swaps in a fresh snapshot, and
    /// re-analyzes every previously-warm option set, index-seeded ones
    /// included. With the persistent cache attached, only roots whose
    /// dependence cone was invalidated by the edit recompute — the
    /// per-set hit/miss split in the summary shows exactly how much. An
    /// index-only name has no sources and gets the typed `not-found`.
    pub fn reload(
        &self,
        name: &str,
        instruments: &Instruments,
    ) -> Result<ReloadSummary, RequestError> {
        let old = self.get(name)?;
        if old.program.is_none() {
            return Err(not_loaded(name));
        }
        let fresh = self.build_entry(name, &old.paths, instruments)?;
        let warm_specs: Vec<OptionsSpec> = old
            .analyses
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .copied()
            .collect();
        let load = LoadSummary {
            classes: fresh.classes,
            entry_points: fresh.entry_points,
            warnings: fresh.parse_warnings.clone(),
            replaced: true,
        };
        self.programs
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_owned(), Arc::clone(&fresh));
        let mut reanalyzed = Vec::new();
        for spec in warm_specs {
            let (a, _) = self.analysis(&fresh, spec, instruments)?;
            reanalyzed.push((spec.key(), a.cache_hits, a.cache_misses));
        }
        Ok(ReloadSummary { load, reanalyzed })
    }
}

/// Checks that `index` was exported from `program` under `options`, as
/// `spo export` writes it: one record per entry-point signature, each
/// carrying that signature's [`entry_fingerprints`] cone key. A zero cone
/// key (an index exported without fingerprints) cannot be checked, so it
/// counts as a mismatch.
///
/// # Errors
///
/// Names the first entry point, in signature order, that is missing from
/// either side or whose cone key differs.
fn check_exported_from(
    program: &Program,
    index: &PolicyIndex<'_>,
    options: &AnalysisOptions,
) -> Result<(), String> {
    let mut expected = entry_fingerprints(program, options);
    let mut mismatched = BTreeSet::new();
    for rec in index.records() {
        let sig = index.signature_of(rec)?;
        match expected.remove(sig) {
            Some(key) if key != 0 && key == rec.cone_key => {}
            _ => {
                mismatched.insert(sig.to_owned());
            }
        }
    }
    mismatched.extend(expected.into_keys());
    match mismatched.first() {
        None => Ok(()),
        Some(sig) => Err(format!(
            "index was not exported from the loaded program (first mismatch at entry point {sig})"
        )),
    }
}

/// The typed error for a name with no loaded program.
fn not_loaded(name: &str) -> RequestError {
    RequestError::new(
        ErrorKind::NotFound,
        format!("no program loaded under \"{name}\""),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEFT: &str = r#"
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
    return;
  }
}
"#;

    const RIGHT: &str = r#"
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
    return;
  }
}
"#;

    fn write_temp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!(
            "spo-serve-registry-{}-{name}.jir",
            std::process::id()
        ));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn warm_analysis_is_shared_and_byte_stable() {
        let registry = Registry::new(2, None);
        let path = write_temp("warm", LEFT);
        let inst = Instruments::default();
        let summary = registry.load("lib", &[path], &inst).unwrap();
        assert!(summary.entry_points >= 1);
        assert!(!summary.replaced);
        let entry = registry.get("lib").unwrap();
        let (cold, warm_hit) = registry
            .analysis(&entry, OptionsSpec::default(), &inst)
            .unwrap();
        assert!(!warm_hit);
        let (warm, warm_hit) = registry
            .analysis(&entry, OptionsSpec::default(), &inst)
            .unwrap();
        assert!(warm_hit);
        assert!(
            Arc::ptr_eq(&cold, &warm),
            "repeat queries share the resident analysis"
        );
        assert!(cold.report.contains("entry "));
        assert_eq!(cold.exit_code, 0);
    }

    #[test]
    fn diff_reports_missing_check_and_unknown_names_fail_typed() {
        let registry = Registry::new(2, None);
        let inst = Instruments::default();
        registry
            .load("left", &[write_temp("dl", LEFT)], &inst)
            .unwrap();
        registry
            .load("right", &[write_temp("dr", RIGHT)], &inst)
            .unwrap();
        let left = registry.get("left").unwrap();
        let right = registry.get("right").unwrap();
        let (diff, warm) = registry
            .diff(&left, &right, OptionsSpec::default(), &inst)
            .unwrap();
        assert!(!warm);
        assert!(diff.findings);
        assert_eq!(diff.exit_code, 1);
        assert!(diff.report.contains("checkRead"), "{}", diff.report);
        let (again, warm) = registry
            .diff(&left, &right, OptionsSpec::default(), &inst)
            .unwrap();
        assert!(warm, "all four constituent analyses are resident now");
        assert_eq!(again.report, diff.report, "diff bytes are reproducible");
        let err = registry.get("middle").unwrap_err();
        assert_eq!(err.kind, ErrorKind::NotFound);
    }

    #[test]
    fn reload_reanalyzes_warm_specs_from_fresh_sources() {
        let registry = Registry::new(2, None);
        let path = write_temp("reload", LEFT);
        let inst = Instruments::default();
        registry
            .load("lib", std::slice::from_ref(&path), &inst)
            .unwrap();
        let entry = registry.get("lib").unwrap();
        let (before, _) = registry
            .analysis(&entry, OptionsSpec::default(), &inst)
            .unwrap();
        assert!(before.report.contains("checkRead"));
        std::fs::write(&path, RIGHT).unwrap();
        let summary = registry.reload("lib", &inst).unwrap();
        assert!(summary.load.replaced);
        assert_eq!(summary.reanalyzed.len(), 1, "one warm option set re-ran");
        let entry = registry.get("lib").unwrap();
        let (after, warm) = registry
            .analysis(&entry, OptionsSpec::default(), &inst)
            .unwrap();
        assert!(warm, "reload left the fresh analysis resident");
        assert!(!after.report.contains("checkRead"), "{}", after.report);
    }

    /// Analyzes `src` under `name` in a scratch registry and exports it
    /// the way `spo export` does; returns the index bytes plus the full
    /// and intra analyses it was compiled from.
    fn export(name: &str, src: &str) -> (Vec<u8>, Arc<Analysis>, Arc<Analysis>) {
        let registry = Registry::new(1, None);
        let inst = Instruments::default();
        registry
            .load(name, &[write_temp(&format!("ix-{name}"), src)], &inst)
            .unwrap();
        let entry = registry.get(name).unwrap();
        let spec = OptionsSpec::default();
        let (full, _) = registry.analysis(&entry, spec, &inst).unwrap();
        let (intra, _) = registry.analysis(&entry, spec.intra(), &inst).unwrap();
        let bytes = spo_index::IndexBuilder::new(name, &spec.to_options(), &full.lib, &intra.lib)
            .build()
            .unwrap();
        (bytes, full, intra)
    }

    #[test]
    fn index_only_entry_answers_seeded_specs_warm_and_nothing_else() {
        let (bytes, full, intra) = export("lib", LEFT);
        let registry = Registry::new(1, None);
        let inst = Instruments::default();
        let seeded = registry
            .seed_index("lib", &PolicyIndex::parse(&bytes).unwrap())
            .unwrap();
        assert_eq!(seeded, full.lib.entries.len());
        assert_eq!(registry.names(), ["lib"], "an index-only name is listed");
        let entry = registry.get("lib").unwrap();
        assert!(entry.program.is_none());
        let spec = OptionsSpec::default();
        let (a, warm) = registry.analysis(&entry, spec, &inst).unwrap();
        assert!(warm, "a seeded spec is warm on its first request");
        assert_eq!(a.report, full.report);
        assert_eq!(a.exit_code, 0);
        let (a, warm) = registry.analysis(&entry, spec.intra(), &inst).unwrap();
        assert!(warm, "the ablation is seeded too");
        assert_eq!(a.report, intra.report);
        let unseeded = OptionsSpec {
            broad: true,
            ..spec
        };
        let err = registry.analysis(&entry, unseeded, &inst).unwrap_err();
        assert_eq!(err.kind, ErrorKind::NotFound);
        assert_eq!(err.message, "no program loaded under \"lib\"");
        let err = registry.reload("lib", &inst).unwrap_err();
        assert_eq!(err.kind, ErrorKind::NotFound);
        assert_eq!(err.message, "no program loaded under \"lib\"");
        // A load replaces the index-only entry and drops its answers.
        let summary = registry
            .load("lib", &[write_temp("ix-replace", RIGHT)], &inst)
            .unwrap();
        assert!(summary.replaced);
        let entry = registry.get("lib").unwrap();
        let (a, warm) = registry.analysis(&entry, spec, &inst).unwrap();
        assert!(!warm, "the loaded program is analyzed afresh");
        assert!(!a.report.contains("checkRead"), "{}", a.report);
    }

    #[test]
    fn diff_of_seeded_entries_is_warm_and_matches_diff_pair() {
        let (left_bytes, left_full, left_intra) = export("left", LEFT);
        let (right_bytes, right_full, right_intra) = export("right", RIGHT);
        let registry = Registry::new(1, None);
        let inst = Instruments::default();
        for (name, bytes) in [("left", &left_bytes), ("right", &right_bytes)] {
            registry
                .seed_index(name, &PolicyIndex::parse(bytes).unwrap())
                .unwrap();
        }
        let left = registry.get("left").unwrap();
        let right = registry.get("right").unwrap();
        let (diff, warm) = registry
            .diff(&left, &right, OptionsSpec::default(), &inst)
            .unwrap();
        assert!(warm, "all four constituent analyses were seeded");
        let (expected, groups) = diff_pair(
            (&left_full.lib, &left_intra.lib),
            (&right_full.lib, &right_intra.lib),
        );
        assert_eq!(diff.report, render_reports(&expected, &groups));
        assert!(diff.findings);
        assert_eq!(diff.exit_code, 1);
        let broad = OptionsSpec {
            broad: true,
            ..OptionsSpec::default()
        };
        let err = registry.diff(&left, &right, broad, &inst).unwrap_err();
        assert_eq!(err.kind, ErrorKind::NotFound);
    }
}
