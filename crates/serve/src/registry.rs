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
//! Analyses are keyed per *(program entry, options)* and a reload always
//! builds a fresh entry with an empty map — a result never survives a
//! program swap, and never leaks across option sets.
//!
//! Degraded analyses (budget/deadline/cancel-tripped) are returned to the
//! requesting session but **not** inserted into the warm map: a partial
//! result must not become the resident answer for later, unconstrained
//! requests.

use crate::proto::{ErrorKind, OptionsSpec, RequestError};
use spo_cache::PolicyCache;
use spo_core::{diff_pair, render_analysis, render_reports, LibraryPolicies};
use spo_engine::{AnalysisEngine, Instruments};
use spo_guard::Diagnostic;
use spo_jir::Program;
use std::collections::BTreeMap;
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

/// An immutable snapshot of one loaded program plus its warm state.
#[derive(Debug)]
pub struct ProgramEntry {
    /// The handle requests use.
    pub name: String,
    /// Source files, kept for `reload`.
    pub paths: Vec<String>,
    /// The parsed program.
    pub program: Program,
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

    /// Looks up a loaded program.
    pub fn get(&self, name: &str) -> Result<Arc<ProgramEntry>, RequestError> {
        self.programs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
            .ok_or_else(|| {
                RequestError::new(
                    ErrorKind::NotFound,
                    format!("no program loaded under \"{name}\""),
                )
            })
    }

    /// Parses `paths` into a fresh entry (mirroring the CLI's recovering
    /// loader: malformed members are dropped and reported as warnings,
    /// only I/O errors are fatal).
    fn build_entry(
        &self,
        name: &str,
        paths: &[String],
        instruments: &Instruments,
    ) -> Result<Arc<ProgramEntry>, RequestError> {
        let mut program = Program::new();
        let mut warnings: Vec<Diagnostic> = Vec::new();
        for path in paths {
            let src = std::fs::read_to_string(path)
                .map_err(|e| RequestError::new(ErrorKind::Io, format!("{path}: {e}")))?;
            let recovery =
                spo_jir::parse_into_recovering_traced(&src, &mut program, &instruments.recorder);
            warnings.extend(
                recovery.diagnostics.iter().map(|d| {
                    Diagnostic::parse_dropped(path, d.line, d.col, &d.message, &d.dropped)
                }),
            );
        }
        warnings.sort();
        let classes = program.class_count();
        let entry_points = spo_resolve::entry_points(&program).len();
        Ok(Arc::new(ProgramEntry {
            name: name.to_owned(),
            paths: paths.to_vec(),
            program,
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

    /// Returns the analysis of `entry` under `spec`, computing it if no
    /// warm copy exists. The boolean is `true` on a warm (resident) hit.
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
    ) -> (Arc<Analysis>, bool) {
        if let Some(a) = entry
            .analyses
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&spec)
        {
            return (Arc::clone(a), true);
        }
        let mut engine = AnalysisEngine::new(self.jobs).with_instruments(instruments.clone());
        if let Some(cache) = &self.cache {
            engine = engine.with_cache(Arc::clone(cache));
        }
        let (lib, stats) = engine.analyze_library(&entry.program, &entry.name, spec.to_options());
        // Cache fallback warnings go to the daemon's stats stream — like
        // the CLI they never taint the response's degraded state, because
        // an unusable cache entry only means the root ran cold.
        if let Some(cache) = &self.cache {
            let mut ds = cache.take_diagnostics();
            ds.sort();
            for d in &ds {
                instruments.recorder.diagnostic(
                    &d.severity.to_string(),
                    &d.phase.to_string(),
                    &d.root,
                    d.cause.label(),
                    &d.message,
                );
            }
        }
        let mut diagnostics = entry.parse_warnings.clone();
        diagnostics.extend(lib.degraded.values().cloned());
        diagnostics.sort();
        let degraded_run = !lib.degraded.is_empty();
        let analysis = Arc::new(Analysis {
            report: render_analysis(&lib),
            exit_code: if diagnostics.is_empty() { 0 } else { 2 },
            lib,
            diagnostics,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
        });
        if degraded_run {
            // A budget-clipped result answers only the session that asked
            // for it; the warm map keeps waiting for a clean run.
            return (analysis, false);
        }
        let winner = Arc::clone(
            entry
                .analyses
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entry(spec)
                .or_insert(analysis),
        );
        (winner, false)
    }

    /// Differences two loaded programs under `spec` through [`diff_pair`]
    /// over whole-library ablations, which stay warm across requests; the
    /// groups equal the engine's demand-driven `compare_all`. The boolean
    /// is `true` when all four constituent analyses were warm; they all
    /// share the request's instruments.
    pub fn diff(
        &self,
        left: &ProgramEntry,
        right: &ProgramEntry,
        spec: OptionsSpec,
        instruments: &Instruments,
    ) -> (DiffOutcome, bool) {
        let (left_full, w1) = self.analysis(left, spec, instruments);
        let (right_full, w2) = self.analysis(right, spec, instruments);
        let (left_intra, w3) = self.analysis(left, spec.intra(), instruments);
        let (right_intra, w4) = self.analysis(right, spec.intra(), instruments);
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
        (outcome, w1 && w2 && w3 && w4)
    }

    /// Re-reads a program's sources, swaps in a fresh snapshot, and
    /// re-analyzes every previously-warm option set. With the persistent
    /// cache attached, only roots whose dependence cone was invalidated
    /// by the edit recompute — the per-set hit/miss split in the summary
    /// shows exactly how much.
    pub fn reload(
        &self,
        name: &str,
        instruments: &Instruments,
    ) -> Result<ReloadSummary, RequestError> {
        let old = self.get(name)?;
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
            let (a, _) = self.analysis(&fresh, spec, instruments);
            reanalyzed.push((spec.key(), a.cache_hits, a.cache_misses));
        }
        Ok(ReloadSummary { load, reanalyzed })
    }
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
        let (cold, warm_hit) = registry.analysis(&entry, OptionsSpec::default(), &inst);
        assert!(!warm_hit);
        let (warm, warm_hit) = registry.analysis(&entry, OptionsSpec::default(), &inst);
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
        let (diff, warm) = registry.diff(&left, &right, OptionsSpec::default(), &inst);
        assert!(!warm);
        assert!(diff.findings);
        assert_eq!(diff.exit_code, 1);
        assert!(diff.report.contains("checkRead"), "{}", diff.report);
        let (again, warm) = registry.diff(&left, &right, OptionsSpec::default(), &inst);
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
        let (before, _) = registry.analysis(&entry, OptionsSpec::default(), &inst);
        assert!(before.report.contains("checkRead"));
        std::fs::write(&path, RIGHT).unwrap();
        let summary = registry.reload("lib", &inst).unwrap();
        assert!(summary.load.replaced);
        assert_eq!(summary.reanalyzed.len(), 1, "one warm option set re-ran");
        let entry = registry.get("lib").unwrap();
        let (after, warm) = registry.analysis(&entry, OptionsSpec::default(), &inst);
        assert!(warm, "reload left the fresh analysis resident");
        assert!(!after.report.contains("checkRead"), "{}", after.report);
    }
}
