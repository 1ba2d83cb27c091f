//! The security policy analysis: SPDA (Algorithm 1) and ISPA (Algorithm 2).
//!
//! For each API entry point the analyzer computes, per security-sensitive
//! event, the checks that **may** (∪-joined, disjunctive [`Dnf`]) and
//! **must** (∩-joined [`MustSet`]) precede it, both sides carried through
//! one worklist per method frame. The analysis is flow- and
//! context-sensitive, propagates constants inter-procedurally through
//! parameter binding, ignores checks inside privileged regions, skips call
//! sites that do not resolve to a unique target, cuts recursion, and
//! memoizes `(method, in-policy, const-params, privileged)` summaries.

use crate::checks::{check_of_call, Check};
use crate::events::{EventDef, EventKey, Name};
use crate::policy::{AnalysisStats, EntryPolicy, EventPolicy, LibraryPolicies, Origins, SortedMap};
use crate::store::{CommitObs, EventRec, FrameCost, LocalStore, MemoKey, Summary, SummaryStore};
use spo_dataflow::{
    dnf_widenings, run_forward, AbsVal, BitSet32, ConstEnv, Dnf, Flow, ForwardAnalysis,
    JoinLattice, MustSet,
};
use spo_guard::Governor;
use spo_jir::{Expr, FieldFlags, FieldRef, FieldTarget, LocalId, MethodId, Program, Stmt};
use spo_obs::Recorder;
use spo_resolve::{entry_points, Hierarchy, Resolution, Resolver};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How widely method summaries are reused (Table 2's three configurations).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MemoScope {
    /// Never reuse: every calling context re-analyzed ("No summaries").
    None,
    /// Reuse within one entry point's analysis, cleared between entries
    /// ("Summaries (per entry point)").
    PerEntry,
    /// Reuse across the whole library ("Summaries (global)").
    #[default]
    Global,
}

/// Configuration of one analysis run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AnalysisOptions {
    /// Summary reuse policy.
    pub memo: MemoScope,
    /// Interprocedural (and conditional intraprocedural) constant
    /// propagation: fold constant branches, bind constant arguments.
    /// Disabling reproduces the "False positives eliminated by ICP"
    /// ablation of Table 3.
    pub icp: bool,
    /// Which events are security-sensitive.
    pub events: EventDef,
    /// When `false`, calls are never followed: the intraprocedural-only
    /// ablation used to attribute root causes in Table 3.
    pub interprocedural: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            memo: MemoScope::Global,
            icp: true,
            events: EventDef::Narrow,
            interprocedural: true,
        }
    }
}

/// The policy value of the analysis: the checks that MAY (∪-joined,
/// disjunctive [`Dnf`]) and MUST (∩-joined [`MustSet`]) precede a program
/// point, carried together through one worklist.
///
/// Fusing the two sides is exact: the constant environment and privilege
/// depth never depend on the policy, so reachability, call targets,
/// recursion cuts and event keys are the same as two separate passes
/// would see, and on acyclic bodies each side sees the same join sequence
/// as it would alone. Only a loop whose [`Dnf`] widens could see a
/// different visit order; `tests/reference_oracle.rs` pins that case.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct FlowPolicy {
    pub(crate) may: Dnf,
    pub(crate) must: MustSet,
}

impl FlowPolicy {
    /// The value on entry to an API entry point: one path, no checks.
    pub(crate) fn entry() -> Self {
        FlowPolicy {
            may: Dnf::empty_path(),
            must: MustSet::Set(BitSet32::empty()),
        }
    }

    /// The gen operation at a security-check statement.
    fn gen_check(&mut self, check: Check) {
        self.may.gen(check.index());
        self.must.insert(check.index());
    }
}

impl JoinLattice for FlowPolicy {
    fn join(&mut self, other: &Self) -> bool {
        let may = self.may.join(&other.may);
        let must = self.must.join(&other.must);
        may || must
    }
}

/// Combined per-statement dataflow state: policy ⊗ constants ⊗ privilege
/// depth.
#[derive(Clone, PartialEq, Debug)]
struct SpState {
    policy: FlowPolicy,
    env: ConstEnv,
    priv_depth: u32,
}

impl JoinLattice for SpState {
    fn join(&mut self, other: &Self) -> bool {
        let a = self.policy.join(&other.policy);
        let b = self.env.join(&other.env);
        // Privileged regions are well nested, so depths agree at joins; if
        // they ever disagree, taking the max conservatively treats the
        // point as privileged (checks ignored, never over-reported).
        let c = if other.priv_depth > self.priv_depth {
            self.priv_depth = other.priv_depth;
            true
        } else {
            false
        };
        a || b || c
    }
}

/// The security policy analyzer for one program.
///
/// # Examples
///
/// ```
/// use spo_core::{Analyzer, AnalysisOptions};
///
/// let program = spo_jir::parse_program(r#"
/// class java.lang.SecurityManager {
///   method public native void checkExit(int status);
/// }
/// class java.lang.System {
///   field static java.lang.SecurityManager security;
///   method public static java.lang.SecurityManager getSecurityManager() {
///     local java.lang.SecurityManager sm;
///     sm = java.lang.System.security;
///     return sm;
///   }
/// }
/// class demo.Halt {
///   method public void stop(int code) {
///     local java.lang.SecurityManager sm;
///     sm = staticinvoke java.lang.System.getSecurityManager();
///     if sm == null goto doit;
///     virtualinvoke sm.checkExit(code);
///   doit:
///     staticinvoke demo.Halt.halt0(code);
///     return;
///   }
///   method private static native void halt0(int code);
/// }
/// "#).unwrap();
/// let analyzer = Analyzer::new(&program, AnalysisOptions::default());
/// let lib = analyzer.analyze_library("demo");
/// let entry = &lib.entries["demo.Halt.stop(int)"];
/// // checkExit may (but not must) precede the native halt0 call.
/// let ev = &entry.events[&spo_core::EventKey::Native("halt0".into())];
/// assert!(ev.may.contains(spo_core::Check::Exit));
/// assert!(!ev.must.contains(spo_core::Check::Exit));
/// ```
pub struct Analyzer<'p> {
    program: &'p Program,
    hierarchy: Hierarchy<'p>,
    options: AnalysisOptions,
    recorder: Recorder,
    names: MethodNames,
}

/// The `Class.method` name of each method of a program, built on first
/// use and then shared by every origin that names it.
struct MethodNames {
    /// Position of each class's first method in `names`.
    first: Vec<u32>,
    names: Box<[OnceLock<Name>]>,
}

impl MethodNames {
    fn new(program: &Program) -> Self {
        let mut first = Vec::with_capacity(program.class_count());
        let mut n = 0;
        for (_, class) in program.classes() {
            first.push(n);
            n += class.methods.len() as u32;
        }
        MethodNames {
            first,
            names: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    fn get(&self, program: &Program, id: MethodId) -> Name {
        let slot = &self.names[(self.first[id.class.index()] + id.index) as usize];
        Name::clone(slot.get_or_init(|| program.method_name(id).into()))
    }
}

impl<'p> Analyzer<'p> {
    /// Creates an analyzer (builds the class hierarchy). Metrics are off;
    /// use [`Analyzer::with_recorder`] to collect them.
    pub fn new(program: &'p Program, options: AnalysisOptions) -> Self {
        let hierarchy = Hierarchy::new(program);
        Analyzer {
            program,
            hierarchy,
            options,
            recorder: Recorder::disabled(),
            names: MethodNames::new(program),
        }
    }

    /// Attaches an observability recorder: spans, counters, and fixpoint
    /// histograms from every subsequent analysis land in it. Pass
    /// [`Recorder::disabled`] (the default) for zero-overhead runs.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached recorder (disabled unless set).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The program under analysis.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The analysis options.
    pub fn options(&self) -> AnalysisOptions {
        self.options
    }

    /// Analyzes every API entry point of the program and returns the
    /// per-entry MAY and MUST policies.
    pub fn analyze_library(&self, name: &str) -> LibraryPolicies {
        let roots = entry_points(self.program);
        self.analyze_entries(name, &roots)
    }

    /// Analyzes the single entry point with the given signature
    /// (`Class.method(paramtypes)`), if it exists.
    ///
    /// # Examples
    ///
    /// See [`Analyzer`]'s type-level example; this is the one-entry
    /// variant of [`Analyzer::analyze_library`].
    pub fn analyze_entry(&self, signature: &str) -> Option<EntryPolicy> {
        let root = entry_points(self.program)
            .into_iter()
            .find(|&m| self.program.method_signature(m) == signature)?;
        Some(self.analyze_root(
            root,
            signature,
            &LocalStore::new(&self.recorder),
            &mut AnalysisStats::default(),
            &self.recorder,
            &Governor::unlimited(),
        ))
    }

    /// Analyzes a chosen set of entry points, one root at a time through
    /// [`Analyzer::analyze_root`]. This serial loop is the reference the
    /// parallel engine is tested against.
    pub fn analyze_entries(&self, name: &str, roots: &[MethodId]) -> LibraryPolicies {
        // Global memo shares one store across all roots; the other scopes
        // get a fresh store per root, as the engine's workers do.
        let global = LocalStore::new(&self.recorder);
        let governor = Governor::unlimited();
        let mut stats = AnalysisStats::default();
        let mut entries = std::collections::BTreeMap::new();
        for &root in roots {
            let fresh;
            let store = if self.options.memo == MemoScope::Global {
                &global
            } else {
                fresh = LocalStore::new(&self.recorder);
                &fresh
            };
            let sig = self.program.method_signature(root);
            let entry = self.analyze_root(root, &sig, store, &mut stats, &self.recorder, &governor);
            // Protected methods can collide with public overrides on the
            // signature key across class boundaries; keep the first
            // (deterministic: roots come in program order).
            entries.entry(sig).or_insert(entry);
        }
        stats.record_into(&self.recorder);
        LibraryPolicies {
            name: name.to_owned(),
            entries,
            stats,
            degraded: std::collections::BTreeMap::new(),
        }
    }

    /// Analyzes a single entry point, whose signature key is `sig`, against
    /// the given summary store and returns its policy.
    ///
    /// This is the unit of work of both library drivers: the serial
    /// [`Analyzer::analyze_entries`] loop and the parallel engine, whose
    /// workers each pass a private recorder (merged in worker-id order
    /// afterwards) and merge the policies back in root order, reproducing
    /// the serial first-root-wins fold exactly.
    ///
    /// Frames published to `store` are booked by the store, into the
    /// recorder it was built with; the pass books every other frame into
    /// `rec`. The drivers build both over the same recorder.
    ///
    /// Every method-frame entry and worklist transfer is checked against
    /// the `governor`'s budget and cancel token. Exhaustion raises an
    /// [`Interrupt`](spo_guard::Interrupt) unwind — callers with a
    /// non-trivial budget must run this inside
    /// [`quarantine`](spo_guard::quarantine), as the parallel engine does.
    pub fn analyze_root(
        &self,
        root: MethodId,
        sig: &str,
        store: &dyn SummaryStore,
        stats: &mut AnalysisStats,
        rec: &Recorder,
        governor: &Governor,
    ) -> EntryPolicy {
        stats.entry_points += 1;
        let t0 = Instant::now();
        let raw = self.root_pass(root, stats, store, rec, governor);
        // The fused pass's time is booked as MAY time; `must_nanos` stays 0.
        let nanos = t0.elapsed().as_nanos();
        stats.may_nanos += nanos;
        rec.duration("ispa.root").record(nanos as u64);
        combine_raw(sig.to_owned(), raw)
    }

    /// Runs the analysis pass over a single root.
    fn root_pass(
        &self,
        root: MethodId,
        stats: &mut AnalysisStats,
        store: &dyn SummaryStore,
        rec: &Recorder,
        governor: &Governor,
    ) -> RawEntry {
        let resolver = Resolver::new(&self.hierarchy);
        let mut pass = Pass {
            program: self.program,
            names: &self.names,
            resolver,
            options: self.options,
            store,
            stack: Vec::new(),
            taint_floor: usize::MAX,
            stats,
            rec,
            obs: CommitObs::new(rec),
            governor,
        };
        let widened = dnf_widenings();
        let raw = pass.analyze_entry(root);
        rec.work_counter("dataflow.dnf.widened")
            .add(dnf_widenings() - widened);
        raw
    }
}

/// Splits the per-root result of the pass into an [`EntryPolicy`]: the
/// MAY side gives `may` and `may_paths`, the MUST side gives `must`.
fn combine_raw(sig: String, raw: RawEntry) -> EntryPolicy {
    let events = raw
        .events
        .into_iter()
        .map(|(key, FlowPolicy { may, must })| {
            let ep = EventPolicy {
                must: crate::checks::CheckSet::from_bits(must.unwrap_or_empty()),
                may: crate::checks::CheckSet::from_bits(may.flat_union()),
                may_paths: may,
            };
            (key, ep)
        })
        .collect();
    EntryPolicy {
        signature: sig,
        events,
        event_origins: raw.event_origins,
        check_origins: raw.check_origins,
    }
}

/// Per-entry raw result of the pass.
struct RawEntry {
    events: SortedMap<EventKey, FlowPolicy>,
    event_origins: SortedMap<EventKey, Origins>,
    check_origins: SortedMap<u8, Origins>,
}

/// Groups `(key, method)` observations into each key's origin names.
fn origins_by<K: Ord + Clone>(
    mut seen: Vec<(K, MethodId)>,
    name: impl Fn(MethodId) -> Name,
) -> SortedMap<K, Origins> {
    seen.sort_unstable();
    seen.dedup();
    seen.chunk_by(|a, b| a.0 == b.0)
        .map(|run| {
            let names: Vec<Name> = run.iter().map(|&(_, m)| name(m)).collect();
            (run[0].0.clone(), Origins::from(names))
        })
        .collect()
}

/// Mutable state of the pass over one root.
struct Pass<'a, 'p> {
    program: &'p Program,
    names: &'a MethodNames,
    resolver: Resolver<'a>,
    options: AnalysisOptions,
    store: &'a dyn SummaryStore,
    stack: Vec<MethodId>,
    /// Minimum stack position targeted by a recursion cut in the current
    /// subtree; frames deeper than this position must not be memoized
    /// (their summaries depend on the outer stack).
    taint_floor: usize,
    stats: &'a mut AnalysisStats,
    rec: &'a Recorder,
    /// Books the frames the pass never publishes: the top frame and
    /// memo-off frames (committed) and recursion-tainted ones.
    obs: CommitObs,
    /// Per-root budget and cancellation state; trips (unwinds) on
    /// exhaustion. Unlimited for ungoverned runs.
    governor: &'a Governor,
}

impl Pass<'_, '_> {
    fn analyze_entry(&mut self, root: MethodId) -> RawEntry {
        let n_params = self
            .program
            .method(root)
            .body
            .as_ref()
            .map(|b| b.n_params)
            .unwrap_or_default();
        let consts = vec![AbsVal::Bottom; n_params];
        let mut summary = self.analyze_method(root, &FlowPolicy::entry(), consts, false, true);
        // A native entry point is itself a JNI event reached with no checks.
        let root_method = self.program.method(root);
        if root_method.is_native() {
            let mut with_event = Summary {
                exit: summary.exit.clone(),
                events: summary.events.clone(),
                checks: summary.checks.clone(),
            };
            with_event.events.push(EventRec {
                key: EventKey::Native(self.program.shared_str(root_method.name)),
                policy: FlowPolicy::entry(),
                origin: root,
            });
            summary = Arc::new(with_event);
        }
        // The API return is itself a security-sensitive event; its policy is
        // the entry's exit value.
        let api_return = EventRec {
            key: EventKey::ApiReturn,
            policy: summary.exit.clone(),
            origin: root,
        };
        let mut recs: Vec<&EventRec> = summary.events.iter().chain([&api_return]).collect();
        // Stable: each event's policies join in the order they arrived.
        recs.sort_by(|a, b| a.key.cmp(&b.key));
        let events: SortedMap<EventKey, FlowPolicy> = recs
            .chunk_by(|a, b| a.key == b.key)
            .map(|run| {
                let mut policy = run[0].policy.clone();
                for rec in &run[1..] {
                    policy.join(&rec.policy);
                }
                (run[0].key.clone(), policy)
            })
            .collect();
        let event_origins = recs
            .iter()
            .map(|rec| (rec.key.clone(), rec.origin))
            .collect();
        let check_origins = summary
            .checks
            .iter()
            .map(|&(check, origin)| (check.index(), origin))
            .collect();
        let name = |m| self.names.get(self.program, m);
        RawEntry {
            events,
            event_origins: origins_by(event_origins, name),
            check_origins: origins_by(check_origins, name),
        }
    }

    /// Analyzes `method` in the context `(in_policy, consts, privileged)`,
    /// returning its summary. `top` marks the entry frame, which is never
    /// memoized.
    fn analyze_method(
        &mut self,
        method: MethodId,
        in_policy: &FlowPolicy,
        consts: Vec<AbsVal>,
        privileged: bool,
        top: bool,
    ) -> Arc<Summary> {
        // Frame budget: counted before the memo lookup so the count is a
        // pure function of the root's call tree, independent of which
        // worker populated the shared store first.
        self.governor.enter_frame();
        let memo_on = self.options.memo != MemoScope::None;
        let key = MemoKey {
            method,
            policy: in_policy.clone(),
            consts: consts.clone(),
            privileged,
        };
        if !top && memo_on {
            if let Some(hit) = self.store.get(&key) {
                self.stats.memo_hits += 1;
                return hit;
            }
            self.stats.memo_misses += 1;
        }
        self.stats.frames_analyzed += 1;

        let program = self.program;
        let m = program.method(method);
        let Some(body) = m.body.as_ref() else {
            // Native/abstract target reached directly (callers normally
            // handle natives as events before getting here): identity.
            return Arc::new(Summary {
                exit: in_policy.clone(),
                events: Vec::new(),
                checks: Vec::new(),
            });
        };

        let depth = self.stack.len();
        self.stack.push(method);

        // Entry constant environment: parameters from the calling context,
        // other locals unassigned.
        let mut env = ConstEnv::top(body.locals.len());
        for (i, v) in consts.iter().enumerate().take(body.n_params) {
            env.set(
                LocalId(i as u32),
                if self.options.icp { *v } else { AbsVal::Bottom },
            );
        }

        // `jir.cfg.*` are work counters: a body's CFG is rebuilt for each
        // frame that analyzes it, so the counts follow scheduling.
        let cfg = {
            let _span = self.rec.span("jir.cfg");
            body.cfg()
        };
        let cfg_edges = cfg.edge_count() as u64;
        self.rec.work_counter("jir.cfg.built").incr();
        self.rec.work_counter("jir.cfg.edges").add(cfg_edges);
        let governor = self.governor;
        let mut spda = Spda {
            pass: self,
            boundary: SpState {
                policy: in_policy.clone(),
                env,
                priv_depth: u32::from(privileged),
            },
            call_cache: HashMap::new(),
        };
        let (results, fx) = run_forward(body, &cfg, &mut spda, governor);
        let call_cache = spda.call_cache;
        let mut cost = FrameCost {
            transfers: fx.transfers,
            visited: fx.visited,
            cfg_edges,
            ..Default::default()
        };

        // Post-pass: exit value, events, and check origins at the fixpoint.
        let mut exit: Option<FlowPolicy> = None;
        let mut events: Vec<EventRec> = Vec::new();
        let mut checks: Vec<(Check, MethodId)> = Vec::new();
        for (idx, stmt) in body.stmts.iter().enumerate() {
            let Some(st) = results.input(idx) else {
                continue;
            };
            match stmt {
                Stmt::Return { .. } => match &mut exit {
                    Some(e) => {
                        e.join(&st.policy);
                    }
                    none => *none = Some(st.policy.clone()),
                },
                Stmt::Invoke { call, .. } => {
                    if let Some(check) = check_of_call(program, call) {
                        if st.priv_depth == 0 {
                            checks.push((check, method));
                        }
                        continue;
                    }
                    match self.resolver.resolve(call) {
                        Resolution::Unique(target) => {
                            cost.resolved += 1;
                            let tm = program.method(target);
                            if tm.is_native() {
                                events.push(EventRec {
                                    key: EventKey::Native(program.shared_str(tm.name)),
                                    policy: st.policy.clone(),
                                    origin: method,
                                });
                            } else if tm.body.is_some()
                                && self.options.interprocedural
                                && !self.stack.contains(&target)
                            {
                                let summary = match call_cache.get(&idx) {
                                    Some(s) => Arc::clone(s),
                                    None => {
                                        let args = call_arg_vals(call, &st.env, self.options.icp);
                                        self.analyze_method(
                                            target,
                                            &st.policy,
                                            args,
                                            st.priv_depth > 0,
                                            false,
                                        )
                                    }
                                };
                                events.extend(summary.events.iter().cloned());
                                checks.extend(summary.checks.iter().cloned());
                            }
                        }
                        Resolution::Ambiguous(_) | Resolution::Unknown => {
                            self.stats.unresolved_calls += 1;
                            cost.unresolved += 1;
                        }
                    }
                }
                Stmt::Assign {
                    value: Expr::FieldLoad(target),
                    ..
                } if self.options.events == EventDef::Broad => {
                    if let Some(name) = self.private_field_name(target) {
                        events.push(EventRec {
                            key: EventKey::DataRead(name),
                            policy: st.policy.clone(),
                            origin: method,
                        });
                    }
                }
                Stmt::FieldStore { target, .. } if self.options.events == EventDef::Broad => {
                    if let Some(name) = self.private_field_name(target) {
                        events.push(EventRec {
                            key: EventKey::DataWrite(name),
                            policy: st.policy.clone(),
                            origin: method,
                        });
                    }
                }
                _ => {}
            }
            // Broad events: accesses to API parameters in the entry frame.
            if self.options.events == EventDef::Broad && top {
                for l in stmt.read_locals() {
                    if l.index() < body.n_params && l.index() > 0 {
                        events.push(EventRec {
                            key: EventKey::DataRead(
                                program.shared_str(body.locals[l.index()].name),
                            ),
                            policy: st.policy.clone(),
                            origin: method,
                        });
                    }
                }
                if let Some(d) = stmt.def_local() {
                    if d.index() < body.n_params && d.index() > 0 {
                        events.push(EventRec {
                            key: EventKey::DataWrite(
                                program.shared_str(body.locals[d.index()].name),
                            ),
                            policy: st.policy.clone(),
                            origin: method,
                        });
                    }
                }
            }
        }

        self.stack.pop();
        let summary = Arc::new(Summary {
            // Methods with no reachable return (always-throwing): identity,
            // a conservative choice exercised rarely.
            exit: exit.unwrap_or_else(|| in_policy.clone()),
            events,
            checks,
        });
        let clean = self.taint_floor >= depth;
        if clean {
            self.taint_floor = usize::MAX;
        }
        // Commit protocol (see `CommitObs`): a clean memoized frame is
        // published and the store settles it, committed or speculative;
        // the pass books only the frames it never publishes.
        if top || !memo_on {
            self.obs.committed(&cost);
        } else if clean {
            self.store.publish(key, Arc::clone(&summary), cost);
        } else {
            self.obs.tainted(&cost);
        }
        summary
    }

    /// The simple name of a private field, if `target` resolves to one
    /// (searching the superclass chain).
    fn private_field_name(&self, target: &FieldTarget) -> Option<Name> {
        let fr: FieldRef = target.field();
        let mut class = self.program.class_by_name(fr.class)?;
        loop {
            if let Some(fid) = self.program.find_field(class, fr.name) {
                let f = self.program.field(fid);
                return f
                    .flags
                    .contains(FieldFlags::PRIVATE)
                    .then(|| self.program.shared_str(f.name));
            }
            class = self.resolver.hierarchy().superclass(class)?;
        }
    }
}

/// Abstract argument values at a call site (receiver first for instance
/// calls), or all-⊥ when ICP is off.
fn call_arg_vals(call: &spo_jir::Call, env: &ConstEnv, icp: bool) -> Vec<AbsVal> {
    let n = call.args.len() + usize::from(call.receiver.is_some());
    if !icp {
        return vec![AbsVal::Bottom; n];
    }
    let mut out = Vec::with_capacity(n);
    if let Some(r) = call.receiver {
        out.push(env.get(r));
    }
    out.extend(call.args.iter().map(|&a| env.eval_operand(a)));
    out
}

/// The intraprocedural transfer functions (Algorithm 1), recursing into
/// [`Pass::analyze_method`] at resolved call sites (Algorithm 2's mutual
/// recursion).
struct Spda<'s, 'a, 'p> {
    pass: &'s mut Pass<'a, 'p>,
    boundary: SpState,
    /// Last summary computed per call-site statement; reused by the
    /// post-pass (the final transfer of a statement sees its fixpoint IN).
    call_cache: HashMap<usize, Arc<Summary>>,
}

impl ForwardAnalysis for Spda<'_, '_, '_> {
    type State = SpState;

    fn boundary(&mut self) -> SpState {
        self.boundary.clone()
    }

    fn transfer(&mut self, idx: usize, stmt: &Stmt, input: &SpState) -> Flow<SpState> {
        let mut out = input.clone();
        match stmt {
            Stmt::Assign { .. } => out.env.transfer(stmt),
            Stmt::EnterPriv => out.priv_depth += 1,
            Stmt::ExitPriv => out.priv_depth = out.priv_depth.saturating_sub(1),
            Stmt::If { cond, .. } => {
                let decided = if self.pass.options.icp {
                    input.env.eval_cond(cond)
                } else {
                    None
                };
                return match decided {
                    Some(true) => Flow::Branch {
                        taken: Some(out),
                        fall: None,
                    },
                    Some(false) => Flow::Branch {
                        taken: None,
                        fall: Some(out),
                    },
                    None => Flow::Branch {
                        taken: Some(out.clone()),
                        fall: Some(out),
                    },
                };
            }
            Stmt::Invoke { dst, call } => {
                if let Some(d) = dst {
                    out.env.set(*d, AbsVal::Bottom);
                }
                if let Some(check) = check_of_call(self.pass.program, call) {
                    // Checks inside privileged regions always succeed:
                    // semantic no-ops (§6.2).
                    if input.priv_depth == 0 {
                        out.policy.gen_check(check);
                    }
                    return Flow::Uniform(out);
                }
                if !self.pass.options.interprocedural {
                    return Flow::Uniform(out);
                }
                if let Resolution::Unique(target) = self.pass.resolver.resolve(call) {
                    let tm = self.pass.program.method(target);
                    if tm.body.is_some() && !tm.is_native() && !self.pass.stack.contains(&target) {
                        let args = call_arg_vals(call, &input.env, self.pass.options.icp);
                        let summary = self.pass.analyze_method(
                            target,
                            &input.policy,
                            args,
                            input.priv_depth > 0,
                            false,
                        );
                        out.policy = summary.exit.clone();
                        self.call_cache.insert(idx, summary);
                    } else if self.pass.stack.contains(&target) {
                        // Recursion cut: taint every frame deeper than the
                        // cut target so context-dependent summaries are not
                        // memoized.
                        let pos = self
                            .pass
                            .stack
                            .iter()
                            .position(|&m| m == target)
                            .expect("target just found in stack");
                        self.pass.taint_floor = self.pass.taint_floor.min(pos);
                    }
                }
            }
            _ => {}
        }
        Flow::Uniform(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::CheckSet;

    /// Minimal runtime prelude shared by the test programs.
    const PRELUDE: &str = r#"
class java.lang.Object { }
class java.lang.SecurityManager {
  method public native void checkExit(int status);
  method public native void checkConnect(java.lang.String host, int port);
  method public native void checkAccept(java.lang.String host, int port);
  method public native void checkMulticast(java.net.InetAddress addr);
  method public native void checkRead(java.lang.String file);
  method public native void checkLink(java.lang.String lib);
  method public native void checkWrite(java.lang.String file);
  method public native void checkPermission(java.lang.Object perm);
}
class java.lang.System {
  field static java.lang.SecurityManager security;
  method public static java.lang.SecurityManager getSecurityManager() {
    local java.lang.SecurityManager sm;
    sm = java.lang.System.security;
    return sm;
  }
}
"#;

    fn analyze(src: &str) -> LibraryPolicies {
        analyze_opts(src, AnalysisOptions::default())
    }

    fn analyze_opts(src: &str, options: AnalysisOptions) -> LibraryPolicies {
        let mut program = spo_jir::parse_program(PRELUDE).unwrap();
        spo_jir::parse_into(src, &mut program).unwrap();
        let analyzer = Analyzer::new(&program, options);
        analyzer.analyze_library("test")
    }

    fn may_of(lib: &LibraryPolicies, sig: &str, ev: &EventKey) -> CheckSet {
        lib.entries[sig].events[ev].may
    }

    fn must_of(lib: &LibraryPolicies, sig: &str, ev: &EventKey) -> CheckSet {
        lib.entries[sig].events[ev].must
    }

    #[test]
    fn straight_line_check_is_must_and_may() {
        let lib = analyze(
            r#"
class t.A {
  method public void m() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkExit(0);
    staticinvoke t.A.op0();
    return;
  }
  method private static native void op0();
}
"#,
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(may_of(&lib, "t.A.m()", &ev), CheckSet::of(Check::Exit));
        assert_eq!(must_of(&lib, "t.A.m()", &ev), CheckSet::of(Check::Exit));
        // The API return sees the same policy.
        assert_eq!(
            must_of(&lib, "t.A.m()", &EventKey::ApiReturn),
            CheckSet::of(Check::Exit)
        );
    }

    #[test]
    fn branch_makes_check_may_not_must() {
        let lib = analyze(
            r#"
class t.B {
  method public void m(bool cond) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if cond goto skip;
    virtualinvoke sm.checkExit(0);
  skip:
    staticinvoke t.B.op0();
    return;
  }
  method private static native void op0();
}
"#,
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(may_of(&lib, "t.B.m(bool)", &ev), CheckSet::of(Check::Exit));
        assert_eq!(must_of(&lib, "t.B.m(bool)", &ev), CheckSet::empty());
        // The disjunctive may view has two paths: {} and {checkExit}.
        let paths = &lib.entries["t.B.m(bool)"].events[&ev].may_paths;
        assert_eq!(paths.disjuncts().len(), 2);
    }

    #[test]
    fn figure_1_disjunctive_policy() {
        // JDK DatagramSocket.connect shape: either checkMulticast, or
        // checkConnect+checkAccept, before the native connect.
        let lib = analyze(
            r#"
class t.D {
  method public void connect(java.net.InetAddress addr, int port) {
    local java.lang.SecurityManager sm;
    local bool multicast;
    sm = staticinvoke java.lang.System.getSecurityManager();
    multicast = staticinvoke t.D.isMulticast(addr);
    if multicast goto mcast;
    virtualinvoke sm.checkConnect("h", port);
    virtualinvoke sm.checkAccept("h", port);
    goto doit;
  mcast:
    virtualinvoke sm.checkMulticast(addr);
  doit:
    staticinvoke t.D.connect0(addr, port);
    return;
  }
  method private static native bool isMulticast(java.net.InetAddress addr);
  method private static native void connect0(java.net.InetAddress addr, int port);
}
"#,
        );
        let sig = "t.D.connect(java.net.InetAddress,int)";
        let ev = EventKey::Native("connect0".into());
        let policy = &lib.entries[sig].events[&ev];
        assert_eq!(policy.must, CheckSet::empty());
        assert_eq!(
            policy.may,
            [Check::Multicast, Check::Connect, Check::Accept]
                .into_iter()
                .collect()
        );
        // Exactly the Figure 2 disjuncts.
        let expected_a: CheckSet = [Check::Multicast].into_iter().collect();
        let expected_b: CheckSet = [Check::Connect, Check::Accept].into_iter().collect();
        let disjuncts: Vec<CheckSet> = policy
            .may_paths
            .disjuncts()
            .iter()
            .map(|&d| CheckSet::from_bits(d))
            .collect();
        assert_eq!(disjuncts.len(), 2);
        assert!(disjuncts.contains(&expected_a));
        assert!(disjuncts.contains(&expected_b));
    }

    #[test]
    fn interprocedural_check_reaches_event() {
        let lib = analyze(
            r#"
class t.E {
  method public void outer() {
    local t.E x;
    x = this;
    virtualinvoke x.doCheck();
    staticinvoke t.E.op0();
    return;
  }
  method private void doCheck() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead("f");
    return;
  }
  method private static native void op0();
}
"#,
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(must_of(&lib, "t.E.outer()", &ev), CheckSet::of(Check::Read));
    }

    #[test]
    fn event_inside_callee_attributed_to_entry() {
        let lib = analyze(
            r#"
class t.F {
  method public void outer() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkLink("lib");
    staticinvoke t.F.inner();
    return;
  }
  method private static void inner() {
    staticinvoke t.F.load0();
    return;
  }
  method private static native void load0();
}
"#,
        );
        let ev = EventKey::Native("load0".into());
        assert_eq!(must_of(&lib, "t.F.outer()", &ev), CheckSet::of(Check::Link));
        // Origin is the method containing the native call.
        let origins = &lib.entries["t.F.outer()"].event_origins[&ev];
        assert!(origins.contains("t.F.inner"));
    }

    #[test]
    fn privileged_checks_are_noops() {
        let lib = analyze(
            r#"
class t.G {
  method public void m() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    privileged {
      virtualinvoke sm.checkExit(0);
    }
    staticinvoke t.G.op0();
    return;
  }
  method private static native void op0();
}
"#,
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(may_of(&lib, "t.G.m()", &ev), CheckSet::empty());
    }

    #[test]
    fn privileged_propagates_into_callees() {
        let lib = analyze(
            r#"
class t.H {
  method public void m() {
    privileged {
      staticinvoke t.H.helper();
    }
    staticinvoke t.H.op0();
    return;
  }
  method private static void helper() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkExit(0);
    return;
  }
  method private static native void op0();
}
"#,
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(may_of(&lib, "t.H.m()", &ev), CheckSet::empty());
    }

    #[test]
    fn figure_4_context_sensitive_constants() {
        // URL(String) -> URL(URL, String, Handler=null): the null context
        // must not pick up the handler check; an unknown context must.
        let lib = analyze(
            r#"
class t.URL {
  method public void init1(java.lang.String spec) {
    local t.URL x;
    x = this;
    virtualinvoke x.init3(null, spec, null);
    return;
  }
  method public void init3(t.URL context, java.lang.String spec, t.Handler handler) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if handler == null goto skip;
    virtualinvoke sm.checkPermission(handler);
  skip:
    staticinvoke t.URL.parse0(spec);
    return;
  }
  method private static native void parse0(java.lang.String spec);
}
class t.Handler { }
"#,
        );
        let ev = EventKey::Native("parse0".into());
        // Through init1 the handler is null: no check anywhere.
        assert_eq!(
            may_of(&lib, "t.URL.init1(java.lang.String)", &ev),
            CheckSet::empty()
        );
        // Direct calls to init3 may perform the check.
        assert_eq!(
            may_of(&lib, "t.URL.init3(t.URL,java.lang.String,t.Handler)", &ev),
            CheckSet::of(Check::Permission)
        );
    }

    #[test]
    fn icp_off_reintroduces_spurious_path() {
        let src = r#"
class t.URL {
  method public void init1(java.lang.String spec) {
    local t.URL x;
    x = this;
    virtualinvoke x.init3(null, spec, null);
    return;
  }
  method public void init3(t.URL context, java.lang.String spec, t.Handler handler) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if handler == null goto skip;
    virtualinvoke sm.checkPermission(handler);
  skip:
    staticinvoke t.URL.parse0(spec);
    return;
  }
  method private static native void parse0(java.lang.String spec);
}
class t.Handler { }
"#;
        let no_icp = analyze_opts(
            src,
            AnalysisOptions {
                icp: false,
                ..Default::default()
            },
        );
        let ev = EventKey::Native("parse0".into());
        assert_eq!(
            may_of(&no_icp, "t.URL.init1(java.lang.String)", &ev),
            CheckSet::of(Check::Permission)
        );
    }

    #[test]
    fn recursion_terminates_and_is_memo_safe() {
        let src = r#"
class t.R {
  method public void m(int n) {
    local java.lang.SecurityManager sm;
    local t.R x;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkWrite("f");
    x = this;
    virtualinvoke x.rec(n);
    staticinvoke t.R.op0();
    return;
  }
  method public void rec(int n) {
    local t.R x;
    if n <= 0 goto done;
    x = this;
    virtualinvoke x.rec(n);
  done:
    return;
  }
  method private static native void op0();
}
"#;
        for memo in [MemoScope::None, MemoScope::PerEntry, MemoScope::Global] {
            let lib = analyze_opts(
                src,
                AnalysisOptions {
                    memo,
                    ..Default::default()
                },
            );
            let ev = EventKey::Native("op0".into());
            assert_eq!(
                must_of(&lib, "t.R.m(int)", &ev),
                CheckSet::of(Check::Write),
                "memo scope {memo:?}"
            );
        }
    }

    #[test]
    fn memo_scopes_agree() {
        let src = r#"
class t.S {
  method public void a() {
    staticinvoke t.S.shared(1);
    return;
  }
  method public void b() {
    staticinvoke t.S.shared(1);
    return;
  }
  method private static void shared(int x) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if x == 0 goto skip;
    virtualinvoke sm.checkExit(x);
  skip:
    staticinvoke t.S.op0();
    return;
  }
  method private static native void op0();
}
"#;
        let base = analyze_opts(
            src,
            AnalysisOptions {
                memo: MemoScope::None,
                ..Default::default()
            },
        );
        for memo in [MemoScope::PerEntry, MemoScope::Global] {
            let lib = analyze_opts(
                src,
                AnalysisOptions {
                    memo,
                    ..Default::default()
                },
            );
            for (sig, entry) in &base.entries {
                assert_eq!(
                    &lib.entries[sig].events, &entry.events,
                    "{sig} under {memo:?}"
                );
            }
        }
        // Global memo actually hits across the two entries.
        let global = analyze_opts(
            src,
            AnalysisOptions {
                memo: MemoScope::Global,
                ..Default::default()
            },
        );
        assert!(global.stats.memo_hits > 0);
    }

    #[test]
    fn unresolved_calls_are_skipped() {
        let lib = analyze(
            r#"
class t.U {
  method public void m() {
    staticinvoke unknown.Ext.boom();
    staticinvoke t.U.op0();
    return;
  }
  method private static native void op0();
}
"#,
        );
        assert!(lib.entries.contains_key("t.U.m()"));
        assert!(lib.stats.unresolved_calls > 0);
    }

    #[test]
    fn broad_events_catch_figure_3() {
        // Implementation reads private fields data1/data2; checkRead only
        // dominates data2's read.
        let opts = AnalysisOptions {
            events: EventDef::Broad,
            ..Default::default()
        };
        let lib = analyze_opts(
            r#"
class t.V {
  field private java.lang.Object data1;
  field private java.lang.Object data2;
  method public java.lang.Object a(bool condition) {
    local java.lang.SecurityManager sm;
    local java.lang.Object o;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if condition goto fast;
    virtualinvoke sm.checkRead("x");
    o = this.data2;
    return o;
  fast:
    o = this.data1;
    return o;
  }
}
"#,
            opts,
        );
        let e = &lib.entries["t.V.a(bool)"];
        assert_eq!(
            e.events[&EventKey::DataRead("data1".into())].must,
            CheckSet::empty()
        );
        assert_eq!(
            e.events[&EventKey::DataRead("data2".into())].must,
            CheckSet::of(Check::Read)
        );
    }

    #[test]
    fn narrow_mode_has_no_broad_events() {
        let lib = analyze(
            r#"
class t.W {
  field private int secret;
  method public int m() {
    local int x;
    x = this.secret;
    return x;
  }
}
"#,
        );
        let e = &lib.entries["t.W.m()"];
        assert!(e.events.keys().all(|k| !k.is_broad()));
    }

    #[test]
    fn intraprocedural_mode_misses_callee_checks() {
        let src = r#"
class t.X {
  method public void outer() {
    staticinvoke t.X.inner();
    staticinvoke t.X.op0();
    return;
  }
  method private static void inner() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkExit(1);
    return;
  }
  method private static native void op0();
}
"#;
        let inter = analyze_opts(src, AnalysisOptions::default());
        let intra = analyze_opts(
            src,
            AnalysisOptions {
                interprocedural: false,
                ..Default::default()
            },
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(
            may_of(&inter, "t.X.outer()", &ev),
            CheckSet::of(Check::Exit)
        );
        assert_eq!(may_of(&intra, "t.X.outer()", &ev), CheckSet::empty());
    }

    #[test]
    fn multiple_occurrences_combine() {
        // The same native called twice: must = intersection, may = union.
        let lib = analyze(
            r#"
class t.Y {
  method public void m(bool c) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if c goto second;
    virtualinvoke sm.checkRead("a");
    staticinvoke t.Y.op0();
    return;
  second:
    virtualinvoke sm.checkWrite("b");
    staticinvoke t.Y.op0();
    return;
  }
  method private static native void op0();
}
"#,
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(must_of(&lib, "t.Y.m(bool)", &ev), CheckSet::empty());
        assert_eq!(
            may_of(&lib, "t.Y.m(bool)", &ev),
            [Check::Read, Check::Write].into_iter().collect()
        );
    }

    #[test]
    fn recorder_collects_deterministic_pass_metrics() {
        let src = r#"
class t.O {
  method public void a() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkExit(0);
    staticinvoke t.O.shared(1);
    return;
  }
  method public void b() {
    staticinvoke t.O.shared(1);
    return;
  }
  method private static void shared(int x) {
    staticinvoke t.O.op0();
    return;
  }
  method private static native void op0();
}
"#;
        let mut program = spo_jir::parse_program(PRELUDE).unwrap();
        spo_jir::parse_into(src, &mut program).unwrap();
        let run = || {
            let rec = Recorder::new();
            let analyzer =
                Analyzer::new(&program, AnalysisOptions::default()).with_recorder(rec.clone());
            let lib = analyzer.analyze_library("test");
            (lib, rec.snapshot())
        };
        let (lib, snap) = run();
        // Each distinct frame commits once: committed frames are bounded by
        // computed frames (bodyless native roots never commit).
        assert!(snap.counters["ispa.frames"] > 0);
        assert!(snap.counters["ispa.frames"] <= lib.stats.frames_analyzed as u64);
        assert!(snap.counters["dataflow.transfers"] > 0);
        assert!(snap.counters["ispa.cfg.edges"] > 0);
        assert!(snap.counters["ispa.calls.resolved"] > 0);
        assert_eq!(
            snap.histograms["fixpoint.transfers"].count,
            snap.counters["ispa.frames"]
        );
        // Work counters mirror AnalysisStats.
        assert_eq!(snap.work["ispa.memo.hits"], lib.stats.memo_hits as u64);
        assert_eq!(
            snap.work["ispa.frames_analyzed"],
            lib.stats.frames_analyzed as u64
        );
        // One pass duration was recorded per entry point.
        let roots = lib.stats.entry_points as u64;
        assert_eq!(snap.durations["ispa.root"].count, roots);
        // Deterministic sections are stable across reruns.
        let (_, snap2) = run();
        assert_eq!(snap.deterministic_json(), snap2.deterministic_json());
        // A recorder-less run produces identical analysis results.
        let plain = Analyzer::new(&program, AnalysisOptions::default()).analyze_library("test");
        for (sig, entry) in &plain.entries {
            assert_eq!(&lib.entries[sig].events, &entry.events, "{sig}");
        }
    }

    #[test]
    fn api_return_policy_joins_all_returns() {
        let lib = analyze(
            r#"
class t.Z {
  method public void m(bool c) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead("a");
    if c goto out;
    virtualinvoke sm.checkWrite("b");
    return;
  out:
    return;
  }
}
"#,
        );
        let e = &lib.entries["t.Z.m(bool)"].events[&EventKey::ApiReturn];
        assert_eq!(e.must, CheckSet::of(Check::Read));
        assert_eq!(e.may, [Check::Read, Check::Write].into_iter().collect());
    }
}
