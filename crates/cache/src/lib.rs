//! # spo-cache — persistent incremental summary cache
//!
//! The paper's Phase 2 (§5) makes whole-library policy extraction
//! tractable with *in-memory* method-summary memoization; this crate
//! extends the idea across process boundaries. Every API entry point's
//! finished [`EntryPolicy`] is stored on disk together with its
//! *dependency cone* and a key derived from the content of everything its
//! analysis could observe, so a later run — after an edit — re-analyzes
//! only the roots whose observable content changed and warm-starts the
//! rest, byte-identical to a cold run.
//!
//! ## Key derivation
//!
//! A root's cached policy is a pure function of:
//!
//! 1. the **format version** ([`spo_index::FORMAT_VERSION`]) — bumped
//!    whenever the serialization or the analysis semantics change;
//! 2. the **analysis options** that affect results (`icp`, the event
//!    definition, interprocedurality — the memo scope is deliberately
//!    excluded because results are memo-invariant);
//! 3. the program's **structure salt** ([`spo_jir::structure_hash`]): every
//!    class declaration without bodies. Hierarchy-based resolution,
//!    devirtualization, and private-field classification read exactly this
//!    surface, so a structural edit conservatively invalidates *every*
//!    root, while a body edit invalidates none of it;
//! 4. the root's **dependency cone**: the sorted content hashes of every
//!    method reachable from the root in the call graph
//!    ([`spo_resolve::CallGraph`]) — an edit to a method body invalidates
//!    exactly the roots whose cones contain it.
//!
//! ## Warm-path validation without a call graph
//!
//! Re-deriving every cone on every warm run would cost a full call-graph
//! construction — a large fraction of a whole cold analysis. Instead, each
//! stored entry carries its cone as a list of [*method identity
//! hashes*](spo_jir::method_identity_hash), and a warm run validates it
//! against a [`ContentTable`]: one pass over the program computing each
//! method's identity and content hash. Re-keying the *stored* cone with
//! *current* content hashes is sound because the cone itself is a pure
//! function of the structure salt and the member bodies: if every stored
//! member's body and the class structure are unchanged, resolution
//! reproduces exactly the same cone, and if any of them changed, the
//! recomputed key differs and the root misses (the follow-up cold
//! analysis stores the new cone). Only missed roots ever need the call
//! graph — [`CacheKeyer`] is built over just those.
//!
//! All key hashing is [`spo_jir::Fnv64`]: seedless, platform-independent,
//! and stable across parses (it hashes resolved strings and structural
//! tags, never interned ids). The whole-file checksum that guards each
//! `spo-index/3` file is [`spo_index::checksum`], the word-wise FNV-1a
//! form: it detects damage to the bytes and never keys an entry.
//!
//! ## Storage layout
//!
//! One `spo-index` file per library and options token,
//! `<fnv64(library, options token):016x>.spc`: the format `spo export`
//! writes, without intra policies, each entry carrying its
//! cone identity list and cone key. One file per library, because entries
//! are addressed by signature and implementations share signatures; one
//! per options token, so a run's full and intraprocedural analyses never
//! evict each other. A file is read and validated (checksum, header
//! library and token) once, on its first lookup; lookups and stores then
//! touch memory, and [`PolicyCache::flush`] writes only changed files
//! through [`spo_index::write_index_file`], appending: loaded tables seed
//! the interners, untouched entries are copied verbatim, and only
//! re-stored entries are encoded.
//!
//! ## Corruption safety
//!
//! A truncated, corrupted, or version-bumped file never panics or changes
//! results: an unreadable file is an empty store and an undecodable entry
//! is dropped, each with a [`Diagnostic`] on the `cache` phase (a warning,
//! never an exit-code change). The affected roots run cold, and the next
//! flush rewrites the file from the healthy in-memory state.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use spo_chaos::FaultPlan;
use spo_core::{AnalysisOptions, EntryPolicy, MemoScope};
use spo_guard::{Cause, Diagnostic, Phase, Severity};
use spo_index::{IndexWriter, PolicyIndex};
use spo_jir::{
    method_content_hash, method_identity_hash, structure_hash, Fnv64, MethodId, Program,
};
use spo_obs::trace;
use spo_resolve::{CallGraph, Hierarchy};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, RwLock};

/// The hash state every cache key of one program and options set starts
/// from: format version, options token, structure salt.
fn key_prefix(program: &Program, options: &AnalysisOptions) -> Fnv64 {
    let mut h = Fnv64::new();
    h.write_u64(spo_index::FORMAT_VERSION as u64);
    h.write_str(&spo_index::options_token(options));
    h.write_u64(structure_hash(program));
    h
}

/// Folds one cone's sorted member content hashes into a cache key.
fn fold_key(mut prefix: Fnv64, sorted_contents: &[u64]) -> u64 {
    for &content in sorted_contents {
        prefix.write_u64(content);
    }
    prefix.finish()
}

/// Current identity → content hashes of every method in one program, plus
/// the key prefix (structure salt and options token) — everything needed
/// to re-key a *stored* cone without building a call graph.
pub struct ContentTable {
    prefix: Fnv64,
    content_by_identity: HashMap<u64, u64>,
}

impl ContentTable {
    /// Hashes every method of `program` once (identity and content).
    pub fn new(program: &Program, options: &AnalysisOptions) -> ContentTable {
        ContentTable {
            prefix: key_prefix(program, options),
            content_by_identity: program
                .all_methods()
                .map(|(id, _)| {
                    (
                        method_identity_hash(program, id),
                        method_content_hash(program, id),
                    )
                })
                .collect(),
        }
    }

    /// Re-keys a stored cone against the current program: `None` if any
    /// member no longer exists (the key then cannot match and the root
    /// must re-analyze).
    pub fn key_of_cone(&self, cone: &[u64]) -> Option<u64> {
        let mut contents: Vec<u64> = cone
            .iter()
            .map(|identity| self.content_by_identity.get(identity).copied())
            .collect::<Option<_>>()?;
        contents.sort_unstable();
        Some(fold_key(self.prefix, &contents))
    }
}

/// Derives the cache key and cone of each given root from the call graph —
/// the *store-path* keyer, built over just the roots that missed (the
/// warm path validates stored cones with a [`ContentTable`] instead).
pub struct CacheKeyer {
    roots: BTreeMap<MethodId, (u64, Vec<u64>)>,
}

impl CacheKeyer {
    /// Computes the key and sorted cone identity list for every root in
    /// `roots` over `program`.
    pub fn new(program: &Program, roots: &[MethodId], options: &AnalysisOptions) -> CacheKeyer {
        let hierarchy = Hierarchy::new(program);
        let cg = CallGraph::build(&hierarchy, roots.to_vec());
        let prefix = key_prefix(program, options);
        // Dense re-indexing of the reachable set, then one hash pair per
        // reachable method and an epoch-stamped DFS per root with no
        // allocation inside the loop (cones overlap heavily, so per-root
        // ordered sets would allocate far more than the graph itself).
        let reachable: Vec<MethodId> = cg.reachable().collect();
        let index: HashMap<MethodId, u32> = reachable
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, i as u32))
            .collect();
        let adj: Vec<Vec<u32>> = reachable
            .iter()
            .map(|&m| cg.callees(m).iter().map(|c| index[c]).collect())
            .collect();
        let contents: Vec<u64> = reachable
            .iter()
            .map(|&m| method_content_hash(program, m))
            .collect();
        let identities: Vec<u64> = reachable
            .iter()
            .map(|&m| method_identity_hash(program, m))
            .collect();
        let mut keys = BTreeMap::new();
        let mut mark: Vec<u32> = vec![u32::MAX; reachable.len()];
        let mut stack: Vec<u32> = Vec::new();
        for (epoch, &root) in roots.iter().enumerate() {
            let epoch = epoch as u32;
            let mut cone_contents: Vec<u64> = Vec::new();
            let mut cone_identities: Vec<u64> = Vec::new();
            stack.clear();
            let r = index[&root];
            mark[r as usize] = epoch;
            stack.push(r);
            while let Some(m) = stack.pop() {
                cone_contents.push(contents[m as usize]);
                cone_identities.push(identities[m as usize]);
                for &callee in &adj[m as usize] {
                    if mark[callee as usize] != epoch {
                        mark[callee as usize] = epoch;
                        stack.push(callee);
                    }
                }
            }
            cone_contents.sort_unstable();
            cone_identities.sort_unstable();
            let key = fold_key(prefix, &cone_contents);
            keys.insert(root, (key, cone_identities));
        }
        CacheKeyer { roots: keys }
    }

    /// The cache key of `root` (`None` if it was not in the constructed
    /// root set).
    pub fn key(&self, root: MethodId) -> Option<u64> {
        self.roots.get(&root).map(|(key, _)| *key)
    }

    /// The sorted cone identity list of `root` (`None` if it was not in
    /// the constructed root set).
    pub fn cone(&self, root: MethodId) -> Option<&[u64]> {
        self.roots.get(&root).map(|(_, cone)| cone.as_slice())
    }
}

/// The cone key of every API entry point of `program` under `options`, by
/// method signature (the last root of a signature keys it): the
/// fingerprints `spo export` stores in an index, and the ones a daemon
/// checks an index against before trusting it for a loaded program.
pub fn entry_fingerprints(program: &Program, options: &AnalysisOptions) -> BTreeMap<String, u64> {
    let roots = spo_resolve::entry_points(program);
    let keyer = CacheKeyer::new(program, &roots, options);
    roots
        .iter()
        .filter_map(|&root| Some((program.method_signature(root), keyer.key(root)?)))
        .collect()
}

/// Running counters of one cache's activity in this process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups the cache could not answer — no entry for the root, or the
    /// stored cone re-keyed differently (an edit) — so the root analyzed
    /// cold.
    pub misses: u64,
    /// Unusable cache state rejected (unreadable, corrupt, or
    /// version-bumped file, undecodable entry) — the affected roots fell
    /// back to cold analysis.
    pub invalidated: u64,
    /// Total cache-file bytes read and written.
    pub bytes: u64,
    /// Write attempts repeated after a transient error (interrupted
    /// syscall or injected chaos fault) before a file landed or the flush
    /// gave up.
    pub flush_retries: u64,
}

/// An entry stored since its file was loaded or last flushed.
#[derive(Debug)]
struct Fresh {
    key: u64,
    cone: Vec<u64>,
    entry: EntryPolicy,
}

/// One cache file's in-memory state: the file as loaded or last flushed,
/// plus what changed since.
#[derive(Debug)]
struct File {
    library: String,
    // Memo scope normalized away: equal options here ⇔ equal tokens.
    options: AnalysisOptions,
    path: PathBuf,
    index: Option<PolicyIndex<'static>>,
    // The bytes last flushed, parsed into `index` on the next access (a
    // one-shot run never pays for it).
    flushed: Option<Vec<u8>>,
    fresh: BTreeMap<u64, Fresh>,
    // Loaded records found undecodable: misses now, dropped at flush.
    dropped: HashSet<u64>,
    dirty: bool,
}

/// What one lookup found.
enum Lookup {
    Hit(EntryPolicy),
    Miss,
    Stale,
    Invalid(String),
}

impl File {
    fn unit(&self) -> String {
        self.path
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned())
    }

    fn lookup(&self, root_key: u64, signature: &str, table: &ContentTable) -> Lookup {
        if let Some(fresh) = self.fresh.get(&root_key) {
            return if fresh.entry.signature != signature {
                Lookup::Miss
            } else if table.key_of_cone(&fresh.cone) == Some(fresh.key) {
                Lookup::Hit(fresh.entry.clone())
            } else {
                Lookup::Stale
            };
        }
        let index = match &self.index {
            Some(index) if !self.dropped.contains(&root_key) => index,
            _ => return Lookup::Miss,
        };
        let Some(rec) = index.find(root_key) else {
            return Lookup::Miss;
        };
        let read = || -> Result<Lookup, String> {
            if index.signature_of(rec)? != signature {
                return Ok(Lookup::Miss);
            }
            // A stale cone is rejected before the policy is decoded.
            if table.key_of_cone(&index.cone(rec)?) != Some(rec.cone_key) {
                return Ok(Lookup::Stale);
            }
            Ok(Lookup::Hit(index.decode_full(rec)?))
        };
        read().unwrap_or_else(Lookup::Invalid)
    }

    /// The file's next contents: the loaded file's tables and untouched
    /// entries as they are, plus the re-stored entries encoded against
    /// them.
    fn render(&self) -> Result<Vec<u8>, String> {
        let mut writer = match &self.index {
            Some(base) => IndexWriter::extending(base, |k| {
                !self.fresh.contains_key(&k) && !self.dropped.contains(&k)
            })?,
            None => IndexWriter::new(false),
        };
        for fresh in self.fresh.values() {
            writer.entry(
                &fresh.entry.signature,
                fresh.key,
                &fresh.cone,
                &fresh.entry,
                None,
            );
        }
        writer.finish(
            &self.library,
            &spo_index::options_token(&self.options),
            [0, 0],
        )
    }
}

/// The cache file of one library and options token.
fn file_name(library: &str, token: &str) -> String {
    let mut h = Fnv64::new();
    h.write_str(library);
    h.write_str(token);
    format!("{:016x}.spc", h.finish())
}

/// A persistent store of per-root policy entries: one `spo-index` file
/// per library and options token in one directory.
///
/// All operations are infallible from the caller's perspective: I/O and
/// decode failures surface as [`Diagnostic`]s (drained via
/// [`PolicyCache::take_diagnostics`]) and cold-path fallbacks, never as
/// panics or `Result`s in the analysis hot path.
#[derive(Debug)]
pub struct PolicyCache {
    dir: PathBuf,
    // Read-mostly once warm: a resident process (the serve daemon) shares
    // one handle across many concurrent sessions whose lookups vastly
    // outnumber write-backs, so reads take a shared lock and only
    // load/store/flush/invalidation take the exclusive one.
    files: RwLock<Vec<File>>,
    stats: Mutex<CacheStats>,
    diagnostics: Mutex<Vec<Diagnostic>>,
    // Captured from the process-wide spo-chaos plan at open (and
    // overridable per handle for tests): fault sites in the flush path
    // draw from this plan. Disabled plans cost one branch per probe.
    chaos: FaultPlan,
}

impl PolicyCache {
    /// Opens the cache directory, creating it if needed. Files load
    /// lazily, on the first lookup or store for their library and
    /// options.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be created —
    /// the one cache failure that is a usage error rather than a
    /// degradation.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<PolicyCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(PolicyCache {
            dir,
            files: RwLock::new(Vec::new()),
            stats: Mutex::new(CacheStats::default()),
            diagnostics: Mutex::new(Vec::new()),
            chaos: spo_chaos::current(),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn read_files(&self) -> std::sync::RwLockReadGuard<'_, Vec<File>> {
        self.files.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_files(&self) -> std::sync::RwLockWriteGuard<'_, Vec<File>> {
        self.files.write().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_stats(&self) -> std::sync::MutexGuard<'_, CacheStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push_diag(&self, diag: Diagnostic) {
        self.diagnostics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(diag);
    }

    /// Replaces the fault plan this handle draws injected faults from
    /// (tests arm a plan without touching the process-wide one).
    #[cfg(test)]
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.chaos = plan;
    }

    /// The state of `library`'s file under `options` (memo scope already
    /// normalized), loading it on first use. An unreadable, corrupt, or
    /// foreign file is one diagnostic and an empty store.
    fn file_mut<'f>(
        &self,
        files: &'f mut Vec<File>,
        library: &str,
        options: AnalysisOptions,
    ) -> &'f mut File {
        if let Some(pos) = files
            .iter()
            .position(|f| f.library == library && f.options == options)
        {
            let file = &mut files[pos];
            if let Some(bytes) = file.flushed.take() {
                let index = PolicyIndex::parse(&bytes).expect("a rendered file parses");
                file.index = Some(index.into_owned());
            }
            return file;
        }
        let token = spo_index::options_token(&options);
        let mut file = File {
            library: library.to_owned(),
            options,
            path: self.dir.join(file_name(library, &token)),
            index: None,
            flushed: None,
            fresh: BTreeMap::new(),
            dropped: HashSet::new(),
            dirty: false,
        };
        let _trace = trace::span_now("cache.load", "cache");
        let loaded = match std::fs::read(&file.path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.to_string()),
            Ok(bytes) => {
                self.lock_stats().bytes += bytes.len() as u64;
                PolicyIndex::parse(&bytes).and_then(|index| {
                    if index.library() != library || index.options_token() != token {
                        Err(format!(
                            "file holds {:?} under {:?}, not {library:?} under {token:?}",
                            index.library(),
                            index.options_token()
                        ))
                    } else if index.has_intra() {
                        Err("not a summary-cache file (carries intra policies)".to_owned())
                    } else {
                        Ok(Some(index.into_owned()))
                    }
                })
            }
        };
        match loaded {
            Ok(index) => file.index = index,
            Err(why) => {
                self.lock_stats().invalidated += 1;
                self.push_diag(Diagnostic::cache_fallback(
                    file.unit(),
                    format!(
                        "{}: {why}; falling back to cold analysis",
                        file.path.display()
                    ),
                ));
            }
        }
        files.push(file);
        files.last_mut().expect("just pushed")
    }

    /// Looks up `signature`'s policy in `library`'s file under `options`,
    /// validating the stored cone against `table`. A stale entry (its
    /// cone re-keys differently — an edit) is a plain miss; an
    /// undecodable entry counts as invalidated, is dropped (healed on
    /// flush), and emits a diagnostic. Either way the caller analyzes
    /// cold.
    pub fn lookup(
        &self,
        library: &str,
        options: &AnalysisOptions,
        signature: &str,
        table: &ContentTable,
    ) -> Option<EntryPolicy> {
        let options = normalized(options);
        let root_key = spo_index::root_key(signature);
        // The hot path (hit, miss, stale) only reads, so concurrent
        // sessions validate under the shared lock; the exclusive lock is
        // taken only to load a file or to drop an undecodable entry.
        let found = self
            .read_files()
            .iter()
            .find(|f| f.library == library && f.options == options && f.flushed.is_none())
            .map(|f| f.lookup(root_key, signature, table));
        let found = found.unwrap_or_else(|| {
            let mut files = self.write_files();
            self.file_mut(&mut files, library, options)
                .lookup(root_key, signature, table)
        });
        match found {
            Lookup::Hit(entry) => {
                self.lock_stats().hits += 1;
                trace::instant_now("cache.hit", "cache");
                Some(entry)
            }
            Lookup::Miss => {
                self.lock_stats().misses += 1;
                trace::instant_now("cache.miss", "cache");
                None
            }
            Lookup::Stale => {
                // The follow-up store replaces the stale entry.
                self.lock_stats().misses += 1;
                trace::instant_now("cache.stale", "cache");
                None
            }
            Lookup::Invalid(why) => {
                let mut files = self.write_files();
                let file = self.file_mut(&mut files, library, options);
                // Idempotent if another session already dropped it.
                file.dirty |= file.dropped.insert(root_key);
                let unit = file.unit();
                drop(files);
                self.lock_stats().invalidated += 1;
                trace::instant_now("cache.invalidated", "cache");
                self.push_diag(Diagnostic::cache_fallback(
                    unit,
                    format!("entry {signature}: {why}; falling back to cold analysis"),
                ));
                None
            }
        }
    }

    /// Stores `entry` for `signature` in `library`'s file under
    /// `options`, with its cone `key` and cone identity list, in memory;
    /// [`PolicyCache::flush`] persists it.
    pub fn store(
        &self,
        library: &str,
        options: &AnalysisOptions,
        signature: &str,
        key: u64,
        cone: &[u64],
        entry: &EntryPolicy,
    ) {
        let mut files = self.write_files();
        let file = self.file_mut(&mut files, library, normalized(options));
        debug_assert_eq!(entry.signature, signature);
        let fresh = Fresh {
            key,
            cone: cone.to_vec(),
            entry: entry.clone(),
        };
        file.fresh.insert(spo_index::root_key(signature), fresh);
        file.dirty = true;
    }

    /// Writes every file that changed since it was loaded or last
    /// flushed, atomically and durably ([`spo_index::write_index_file`]).
    /// Persistent write failures degrade to a diagnostic — the run's
    /// results are already computed and unaffected, and the file stays
    /// dirty, so the next flush retries.
    pub fn flush(&self) {
        let mut files = self.write_files();
        for file in files.iter_mut().filter(|f| f.dirty) {
            let _trace = trace::span_now("cache.flush", "cache");
            let written = file.render().and_then(|bytes| {
                let write = spo_index::write_index_file(&file.path, &bytes, &self.chaos);
                self.lock_stats().flush_retries += write.retried.len() as u64;
                match write.result {
                    Ok(()) => Ok((bytes, write.retried)),
                    Err(e) => Err(e.to_string()),
                }
            });
            let (bytes, retried) = match written {
                Ok(written) => written,
                Err(why) => {
                    let message = format!("{}: write failed: {why}", file.path.display());
                    self.push_diag(Diagnostic::cache_fallback(file.unit(), message));
                    continue;
                }
            };
            self.lock_stats().bytes += bytes.len() as u64;
            if let Some(last) = retried.last() {
                self.push_diag(Diagnostic {
                    severity: Severity::Warning,
                    phase: Phase::Chaos,
                    root: file.unit(),
                    cause: Cause::Chaos,
                    message: format!(
                        "{}: flush recovered after {} retry(s): {last}",
                        file.path.display(),
                        retried.len()
                    ),
                });
            }
            // The in-memory state follows the bytes just rendered (an
            // injected bit flip corrupts only the copy on disk).
            file.index = None;
            file.flushed = Some(bytes);
            file.fresh.clear();
            file.dropped.clear();
            file.dirty = false;
        }
    }

    /// This process's running counters.
    pub fn stats(&self) -> CacheStats {
        *self.lock_stats()
    }

    /// Drains the accumulated cache diagnostics (warnings only — cache
    /// problems never change results or exit codes).
    pub fn take_diagnostics(&self) -> Vec<Diagnostic> {
        std::mem::take(&mut self.diagnostics.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The cache's files on disk.
    fn disk_files(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut paths = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "spc") {
                paths.push(path);
            }
        }
        Ok(paths)
    }

    /// Entries in the cache's files on disk (a file that does not parse
    /// holds none) and their total size in bytes.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory or a file in it
    /// cannot be read.
    pub fn disk_usage(&self) -> std::io::Result<(usize, u64)> {
        let mut usage = (0, 0);
        for path in self.disk_files()? {
            let bytes = std::fs::read(&path)?;
            usage.0 += PolicyIndex::parse(&bytes).map_or(0, |index| index.len());
            usage.1 += bytes.len() as u64;
        }
        Ok(usage)
    }

    /// Removes every cache file and the in-memory state, returning how
    /// many entries the files held.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if a cache file cannot be read or
    /// removed.
    pub fn clear(&self) -> std::io::Result<usize> {
        let mut files = self.write_files();
        let (removed, _) = self.disk_usage()?;
        for path in self.disk_files()? {
            std::fs::remove_file(path)?;
        }
        files.clear();
        Ok(removed)
    }
}

/// `options` with the memo scope normalized away: one file serves every
/// memoization configuration.
fn normalized(options: &AnalysisOptions) -> AnalysisOptions {
    AnalysisOptions {
        memo: MemoScope::Global,
        ..*options
    }
}

impl Drop for PolicyCache {
    /// Best-effort persistence for callers that never flushed explicitly.
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spo_core::Analyzer;
    use spo_guard::TempDir;

    /// A fresh test directory, removed with everything in it on drop.
    fn temp_dir(tag: &str) -> TempDir {
        TempDir::new(&format!("spo-cache-test-{tag}")).unwrap()
    }

    const SRC: &str = r#"
class java.lang.SecurityManager {
  method public native void checkRead(java.lang.String file);
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
    staticinvoke t.A.op0();
    return;
  }
  method public void idle() {
    local int i;
    i = 0;
    return;
  }
  method private static native void op0();
}
"#;

    const OPTS: AnalysisOptions = AnalysisOptions {
        memo: MemoScope::Global,
        icp: true,
        events: spo_core::EventDef::Narrow,
        interprocedural: true,
    };

    fn analyzed_entry(src: &str, sig_contains: &str) -> (Program, MethodId, EntryPolicy) {
        let program = spo_jir::parse_program(src).unwrap();
        let lib = Analyzer::new(&program, OPTS).analyze_library("t");
        let root = spo_resolve::entry_points(&program)
            .into_iter()
            .find(|&m| program.method_signature(m).contains(sig_contains))
            .unwrap();
        let sig = program.method_signature(root);
        let entry = EntryPolicy::clone(&lib.entries[&sig]);
        (program, root, entry)
    }

    /// One root's full cache context: cone key + identities and the
    /// current content table.
    fn keyed(program: &Program, root: MethodId) -> (u64, Vec<u64>, ContentTable) {
        let keyer = CacheKeyer::new(program, &[root], &OPTS);
        let table = ContentTable::new(program, &OPTS);
        (
            keyer.key(root).unwrap(),
            keyer.cone(root).unwrap().to_vec(),
            table,
        )
    }

    /// Stores `entry` in library "t"'s file.
    fn store(cache: &PolicyCache, key: u64, cone: &[u64], entry: &EntryPolicy) {
        cache.store("t", &OPTS, &entry.signature, key, cone, entry);
    }

    /// Looks `entry`'s signature up in library "t"'s file.
    fn lookup(
        cache: &PolicyCache,
        entry: &EntryPolicy,
        table: &ContentTable,
    ) -> Option<EntryPolicy> {
        cache.lookup("t", &OPTS, &entry.signature, table)
    }

    /// The cache files in `dir`.
    fn spc_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "spc"))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn roundtrip_store_flush_reopen_lookup() {
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (key, cone, table) = keyed(&program, root);
        let dir = temp_dir("roundtrip");
        let cache = PolicyCache::open(&*dir).unwrap();
        assert_eq!(lookup(&cache, &entry, &table), None);
        store(&cache, key, &cone, &entry);
        assert_eq!(lookup(&cache, &entry, &table), Some(entry.clone()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidated), (1, 1, 0));
        assert!(cache.take_diagnostics().is_empty());
        cache.flush();
        assert!(cache.stats().bytes > 0);

        // A fresh open reads the flushed file.
        let reopened = PolicyCache::open(&*dir).unwrap();
        assert_eq!(lookup(&reopened, &entry, &table), Some(entry));
        assert!(reopened.take_diagnostics().is_empty());
    }

    #[test]
    fn drop_flushes_unpersisted_stores() {
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (key, cone, table) = keyed(&program, root);
        let dir = temp_dir("drop-flush");
        {
            let cache = PolicyCache::open(&*dir).unwrap();
            store(&cache, key, &cone, &entry);
            // No explicit flush.
        }
        let reopened = PolicyCache::open(&*dir).unwrap();
        assert_eq!(lookup(&reopened, &entry, &table), Some(entry));
    }

    #[test]
    fn stored_cone_revalidates_without_a_call_graph() {
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (key, cone, table) = keyed(&program, root);
        // The cone carries the root and its transitive callees by identity.
        assert!(cone.contains(&method_identity_hash(&program, root)));
        assert_eq!(table.key_of_cone(&cone), Some(key));

        let dir = temp_dir("revalidate");
        let cache = PolicyCache::open(&*dir).unwrap();
        store(&cache, key, &cone, &entry);
        cache.flush();
        // Validation is the same for a stored entry and a loaded one.
        for cache in [cache, PolicyCache::open(&*dir).unwrap()] {
            // A body edit inside the cone re-keys it: stale entry, plain
            // miss, no diagnostic.
            let edited = SRC.replace("virtualinvoke sm.checkRead(\"f\");", "nop;");
            let program2 = spo_jir::parse_program(&edited).unwrap();
            let table2 = ContentTable::new(&program2, &OPTS);
            assert_ne!(table2.key_of_cone(&cone), Some(key));
            assert_eq!(lookup(&cache, &entry, &table2), None);
            assert_eq!(cache.stats().misses, 1);
            assert!(cache.take_diagnostics().is_empty());

            // A deleted cone member also re-keys (to nothing at all).
            let removed = SRC.replace("method private static native void op0();", "");
            let program3 = spo_jir::parse_program(&removed).unwrap();
            let table3 = ContentTable::new(&program3, &OPTS);
            assert_eq!(table3.key_of_cone(&cone), None);
            assert_eq!(lookup(&cache, &entry, &table3), None);

            // Unrelated edits keep the hit.
            let unrelated = SRC.replace("i = 0;", "i = 7;");
            let program4 = spo_jir::parse_program(&unrelated).unwrap();
            let table4 = ContentTable::new(&program4, &OPTS);
            assert_eq!(lookup(&cache, &entry, &table4), Some(entry.clone()));
        }
    }

    #[test]
    fn libraries_and_options_get_separate_files() {
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let dir = temp_dir("separate");
        let cache = PolicyCache::open(&*dir).unwrap();
        let intra = AnalysisOptions {
            interprocedural: false,
            ..OPTS
        };
        let mut stored = Vec::new();
        for (library, options) in [("jdk", OPTS), ("harmony", OPTS), ("jdk", intra)] {
            let keyer = CacheKeyer::new(&program, &[root], &options);
            let mut entry = entry.clone();
            entry.check_origins.insert(0, vec![library.into()].into());
            let cone = keyer.cone(root).unwrap();
            cache.store(
                library,
                &options,
                &entry.signature,
                keyer.key(root).unwrap(),
                cone,
                &entry,
            );
            stored.push((library, options, entry));
        }
        cache.flush();
        assert_eq!(spc_files(&dir).len(), 3);
        // The memo scope is result-invariant and shares a file.
        let memo_none = AnalysisOptions {
            memo: MemoScope::None,
            ..OPTS
        };
        let reopened = PolicyCache::open(&*dir).unwrap();
        for (library, options, entry) in stored {
            let table = ContentTable::new(&program, &options);
            let sig = &entry.signature;
            assert_eq!(
                reopened.lookup(library, &options, sig, &table),
                Some(entry.clone())
            );
            if options == OPTS {
                let got = reopened.lookup(library, &memo_none, sig, &table);
                assert_eq!(got, Some(entry));
            }
        }
        assert_eq!(reopened.stats().hits, 5);
        assert!(reopened.take_diagnostics().is_empty());
    }

    #[test]
    fn cache_files_are_summary_indexes() {
        let program = spo_jir::parse_program(SRC).unwrap();
        let lib = Analyzer::new(&program, OPTS).analyze_library("t");
        let roots = spo_resolve::entry_points(&program);
        let keyer = CacheKeyer::new(&program, &roots, &OPTS);
        let dir = temp_dir("index");
        let cache = PolicyCache::open(&*dir).unwrap();
        for &root in &roots {
            let sig = program.method_signature(root);
            let (key, cone) = (keyer.key(root).unwrap(), keyer.cone(root).unwrap());
            cache.store("t", &OPTS, &sig, key, cone, &lib.entries[&sig]);
        }
        cache.flush();
        let files = spc_files(&dir);
        assert_eq!(files.len(), 1);
        let bytes = std::fs::read(&files[0]).unwrap();
        let index = PolicyIndex::parse(&bytes).unwrap();
        assert_eq!(
            (index.library(), index.options_token(), index.has_intra()),
            ("t", spo_index::options_token(&OPTS).as_str(), false)
        );
        assert_eq!(index.len(), lib.entries.len());
        for (sig, entry) in &lib.entries {
            assert_eq!(
                index.query(sig).unwrap(),
                Some(spo_core::render_entry(sig, entry))
            );
        }
    }

    #[test]
    fn flush_encodes_only_restored_entries() {
        let program = spo_jir::parse_program(SRC).unwrap();
        let lib = Analyzer::new(&program, OPTS).analyze_library("t");
        let roots = spo_resolve::entry_points(&program);
        let keyer = CacheKeyer::new(&program, &roots, &OPTS);
        let table = ContentTable::new(&program, &OPTS);
        let dir = temp_dir("append");
        let cache = PolicyCache::open(&*dir).unwrap();
        for &root in &roots {
            let sig = program.method_signature(root);
            let (key, cone) = (keyer.key(root).unwrap(), keyer.cone(root).unwrap());
            cache.store("t", &OPTS, &sig, key, cone, &lib.entries[&sig]);
        }
        drop(cache);
        let path = spc_files(&dir).pop().unwrap();
        let before = std::fs::read(&path).unwrap();

        // Re-store one entry with a changed policy: the other blobs are
        // copied byte for byte, and the old tables are a prefix of the
        // new ones.
        let cache = PolicyCache::open(&*dir).unwrap();
        let (sig, entry) = lib
            .entries
            .iter()
            .find(|(_, e)| !e.events.is_empty())
            .unwrap();
        let mut changed = EntryPolicy::clone(entry);
        changed
            .check_origins
            .insert(9, vec!["t.A.fresh()".into()].into());
        let root = roots
            .iter()
            .copied()
            .find(|&r| program.method_signature(r) == *sig)
            .unwrap();
        assert_eq!(
            cache.lookup("t", &OPTS, sig, &table),
            Some(EntryPolicy::clone(entry))
        );
        cache.store(
            "t",
            &OPTS,
            sig,
            keyer.key(root).unwrap(),
            keyer.cone(root).unwrap(),
            &changed,
        );
        cache.flush();
        let after = std::fs::read(&path).unwrap();
        let (old, new) = (
            PolicyIndex::parse(&before).unwrap(),
            PolicyIndex::parse(&after).unwrap(),
        );
        assert_eq!(old.len(), new.len());
        for rec in new.records() {
            let got = new.decode_full(rec).unwrap();
            if got.signature == *sig {
                assert_eq!(got, changed);
            } else {
                assert_eq!(got, *lib.entries[&got.signature]);
                assert_eq!(old.find(rec.root_key).unwrap().cone_key, rec.cone_key);
            }
        }
        assert!(after.len() > before.len());
        let reopened = PolicyCache::open(&*dir).unwrap();
        assert_eq!(reopened.lookup("t", &OPTS, sig, &table), Some(changed));
    }

    #[test]
    fn body_edit_changes_only_affected_cone_keys() {
        let program = spo_jir::parse_program(SRC).unwrap();
        let roots = spo_resolve::entry_points(&program);
        let keyer1 = CacheKeyer::new(&program, &roots, &OPTS);

        // Edit a body inside t.A.read's cone but outside t.A.idle's.
        let edited = SRC.replace("virtualinvoke sm.checkRead(\"f\");", "nop;");
        let program2 = spo_jir::parse_program(&edited).unwrap();
        let roots2 = spo_resolve::entry_points(&program2);
        let keyer2 = CacheKeyer::new(&program2, &roots2, &OPTS);

        for (&r1, &r2) in roots.iter().zip(&roots2) {
            let sig = program.method_signature(r1);
            assert_eq!(sig, program2.method_signature(r2));
            let (k1, k2) = (keyer1.key(r1).unwrap(), keyer2.key(r2).unwrap());
            if sig.contains("read") {
                assert_ne!(k1, k2, "{sig} key must change");
            } else {
                assert_eq!(k1, k2, "{sig} key must not change");
            }
        }
    }

    #[test]
    fn structural_edit_changes_every_key() {
        let program = spo_jir::parse_program(SRC).unwrap();
        let roots = spo_resolve::entry_points(&program);
        let keyer1 = CacheKeyer::new(&program, &roots, &OPTS);
        let edited = SRC.replace("class t.A {", "class t.A {\n  field int pad;");
        let program2 = spo_jir::parse_program(&edited).unwrap();
        let keyer2 = CacheKeyer::new(&program2, &spo_resolve::entry_points(&program2), &OPTS);
        for (&r1, &r2) in roots
            .iter()
            .zip(spo_resolve::entry_points(&program2).iter())
        {
            assert_ne!(keyer1.key(r1).unwrap(), keyer2.key(r2).unwrap());
        }
    }

    #[test]
    fn result_affecting_options_partition_the_key_space() {
        let program = spo_jir::parse_program(SRC).unwrap();
        let roots = spo_resolve::entry_points(&program);
        let base = OPTS;
        let root = roots[0];
        let key = |o: &AnalysisOptions| CacheKeyer::new(&program, &roots, o).key(root).unwrap();
        let base_key = key(&base);
        for options in [
            AnalysisOptions { icp: false, ..base },
            AnalysisOptions {
                events: spo_core::EventDef::Broad,
                ..base
            },
            AnalysisOptions {
                interprocedural: false,
                ..base
            },
        ] {
            assert_ne!(key(&options), base_key, "{options:?}");
        }
        // Memo scope is result-invariant and shares the key.
        let memo = AnalysisOptions {
            memo: MemoScope::None,
            ..base
        };
        assert_eq!(key(&memo), base_key);
    }

    #[test]
    fn corrupt_truncated_and_version_bumped_files_degrade_cleanly() {
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (key, cone, table) = keyed(&program, root);
        let dir = temp_dir("corrupt");
        {
            let cache = PolicyCache::open(&*dir).unwrap();
            store(&cache, key, &cone, &entry);
            cache.flush();
        }
        let path = spc_files(&dir).pop().unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut bumped = good.clone();
        bumped.splice(..b"spo-index 3".len(), b"spo-index 9".iter().copied());
        // The same entries under another library's name.
        let foreign = {
            let mut w = IndexWriter::new(false);
            w.entry(&entry.signature, key, &cone, &entry, None);
            w.finish("other", &spo_index::options_token(&OPTS), [0, 0])
                .unwrap()
        };
        let mangled: [Vec<u8>; 6] = [
            b"@@@ not a cache file @@@".to_vec(), // corrupt header
            good[..good.len() / 2].to_vec(),      // truncated mid-entry
            bumped,                               // version bump
            Vec::new(),                           // empty file
            good.iter().rev().copied().collect(), // garbage body
            foreign,                              // wrong header library
        ];
        for (i, bad) in mangled.iter().enumerate() {
            std::fs::write(&path, bad).unwrap();
            let cache = PolicyCache::open(&*dir).unwrap();
            assert_eq!(lookup(&cache, &entry, &table), None, "case {i}");
            let stats = cache.stats();
            assert_eq!((stats.invalidated, stats.misses), (1, 1), "case {i}");
            let diags = cache.take_diagnostics();
            assert_eq!(diags.len(), 1, "case {i}");
            assert_eq!(diags[0].cause, spo_guard::Cause::Cache);
            assert_eq!(diags[0].severity, spo_guard::Severity::Warning);
            // A fresh store + flush heals the file in place.
            store(&cache, key, &cone, &entry);
            cache.flush();
            let healed = PolicyCache::open(&*dir).unwrap();
            assert_eq!(
                lookup(&healed, &entry, &table),
                Some(entry.clone()),
                "case {i}"
            );
            assert!(healed.take_diagnostics().is_empty(), "case {i}");
        }
    }

    #[test]
    fn undecodable_entry_is_dropped_and_healed() {
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (key, cone, table) = keyed(&program, root);
        let dir = temp_dir("bad-entry");
        {
            let cache = PolicyCache::open(&*dir).unwrap();
            store(&cache, key, &cone, &entry);
        }
        // A well-framed, checksummed file whose one blob claims an
        // impossible event count right after its (valid) cone.
        let path = spc_files(&dir).pop().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let cone_bytes: Vec<u8> = cone.iter().flat_map(|c| c.to_le_bytes()).collect();
        let events_at = bytes
            .windows(cone_bytes.len())
            .position(|w| w == cone_bytes)
            .unwrap()
            + cone_bytes.len();
        bytes[events_at..events_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = spo_index::checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let cache = PolicyCache::open(&*dir).unwrap();
        assert_eq!(lookup(&cache, &entry, &table), None);
        assert_eq!(cache.stats().invalidated, 1);
        assert_eq!(cache.take_diagnostics().len(), 1);
        // The bad entry was dropped: the next lookup is a plain miss, and
        // the flush writes the file without it.
        assert_eq!(lookup(&cache, &entry, &table), None);
        assert_eq!(cache.stats().misses, 1);
        cache.flush();
        let bytes = std::fs::read(&path).unwrap();
        assert!(PolicyIndex::parse(&bytes).unwrap().is_empty());
    }

    #[test]
    fn clear_and_disk_usage() {
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (key, cone, _) = keyed(&program, root);
        let dir = temp_dir("clear");
        let cache = PolicyCache::open(&*dir).unwrap();
        store(&cache, key, &cone, &entry);
        cache.flush();
        let (entries, bytes) = cache.disk_usage().unwrap();
        assert_eq!(entries, 1);
        assert!(bytes > 0);
        assert_eq!(cache.clear().unwrap(), 1);
        assert_eq!(cache.disk_usage().unwrap(), (0, 0));
    }

    #[test]
    fn flush_retries_injected_transient_faults_and_recovers() {
        use spo_chaos::{sites, FaultPlan};
        for site in [
            sites::CACHE_WRITE_SHORT,
            sites::CACHE_FSYNC_FAIL,
            sites::CACHE_RENAME_FAIL,
        ] {
            let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
            let (key, cone, table) = keyed(&program, root);
            let dir = temp_dir(&format!("retry-{}", site.replace('.', "-")));
            let mut cache = PolicyCache::open(&*dir).unwrap();
            let plan = FaultPlan::seeded(1).site_once(site);
            cache.set_fault_plan(plan.clone());
            store(&cache, key, &cone, &entry);
            cache.flush();
            // The injected failure was absorbed by one retry: the file
            // landed, the recovery is on the record, and no temp file
            // litters the directory.
            assert_eq!(plan.injected(), 1, "{site}");
            assert_eq!(plan.recovered(), 1, "{site}");
            assert_eq!(cache.stats().flush_retries, 1, "{site}");
            let diags = cache.take_diagnostics();
            assert_eq!(diags.len(), 1, "{site}: {diags:?}");
            assert_eq!(diags[0].cause, spo_guard::Cause::Chaos);
            assert_eq!(diags[0].phase, spo_guard::Phase::Chaos);
            assert!(diags[0].message.contains("recovered after 1 retry"));
            let leftovers: Vec<_> = std::fs::read_dir(&*dir)
                .unwrap()
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
                .collect();
            assert!(leftovers.is_empty(), "{site}: {leftovers:?}");
            drop(cache);
            let reopened = PolicyCache::open(&*dir).unwrap();
            assert_eq!(
                lookup(&reopened, &entry, &table),
                Some(entry.clone()),
                "{site}"
            );
        }
    }

    #[test]
    fn persistent_flush_failure_degrades_to_a_diagnostic_and_stays_dirty() {
        use spo_chaos::{sites, FaultPlan};
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (key, cone, table) = keyed(&program, root);
        let dir = temp_dir("flush-fail");
        let mut cache = PolicyCache::open(&*dir).unwrap();
        // Rate 1.0 fires on every attempt: all attempts fail.
        cache.set_fault_plan(FaultPlan::seeded(2).site(sites::CACHE_RENAME_FAIL, 1.0));
        store(&cache, key, &cone, &entry);
        cache.flush();
        assert_eq!(
            cache.stats().flush_retries,
            u64::from(spo_index::WRITE_ATTEMPTS - 1)
        );
        let diags = cache.take_diagnostics();
        assert!(
            diags.iter().any(|d| d.message.contains("write failed")),
            "{diags:?}"
        );
        assert!(spc_files(&dir).is_empty());
        // Disarm the plan: the file is still dirty, so the next flush
        // lands it — degradation never loses the computed entries.
        cache.set_fault_plan(FaultPlan::disabled());
        cache.flush();
        drop(cache);
        let reopened = PolicyCache::open(&*dir).unwrap();
        assert_eq!(lookup(&reopened, &entry, &table), Some(entry.clone()));
    }

    #[test]
    fn bitflip_corruption_is_caught_on_reopen_and_heals_on_flush() {
        use spo_chaos::{sites, FaultPlan};
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (key, cone, table) = keyed(&program, root);
        let dir = temp_dir("bitflip");
        {
            let mut cache = PolicyCache::open(&*dir).unwrap();
            cache.set_fault_plan(FaultPlan::seeded(3).site_once(sites::CACHE_BITFLIP));
            store(&cache, key, &cone, &entry);
            cache.flush();
            // The flip is silent at write time: the flush "succeeded",
            // and this handle still serves the healthy entry.
            assert!(cache.take_diagnostics().is_empty());
            assert_eq!(lookup(&cache, &entry, &table), Some(entry.clone()));
            cache.set_fault_plan(FaultPlan::disabled());
        }
        // The corruption surfaces on the next load as a degrade-to-cold
        // (never a panic), and a fresh store + flush heals the file in
        // place.
        let reopened = PolicyCache::open(&*dir).unwrap();
        assert_eq!(lookup(&reopened, &entry, &table), None);
        assert_eq!(reopened.take_diagnostics().len(), 1);
        store(&reopened, key, &cone, &entry);
        reopened.flush();
        drop(reopened);
        let healed = PolicyCache::open(&*dir).unwrap();
        assert_eq!(lookup(&healed, &entry, &table), Some(entry.clone()));
        assert!(healed.take_diagnostics().is_empty());
    }
}
