//! # spo-guard — fault isolation and resource governance
//!
//! A library-scale differencing run must survive its worst input: one
//! malformed method body, one pathological fixpoint, or one panicking root
//! must not kill the whole run. This crate is the std-only layer the rest
//! of the pipeline threads through to get that property:
//!
//! * [`Budget`] bounds a single root's analysis — transfer steps per
//!   fixpoint solve, frames per root, and an optional wall-clock deadline.
//! * [`CancelToken`] is the shared cooperative cancellation flag a Ctrl-C
//!   handler (or any supervisor) flips; governed loops observe it at their
//!   next check point.
//! * [`Governor`] carries one root's budget state through the dataflow
//!   worklist and the interprocedural frame stack. Exhaustion *trips*: it
//!   raises a typed [`Interrupt`] unwind that the per-root
//!   [`quarantine`] boundary converts into a structured [`Fault`].
//! * [`quarantine`] runs a closure under `catch_unwind`, mapping both
//!   genuine panics and budget/cancel interrupts to [`Fault`]s, so one
//!   root's failure degrades that root alone.
//! * [`Diagnostic`] is the uniform degradation record (severity, phase,
//!   root, cause) surfaced by reports, `spo diff`, and the stats snapshot.
//! * [`TempDir`] is a scratch directory removed on drop, for the soak
//!   and the tests.
//!
//! Degradation is **sound by construction**: a quarantined root's policy
//! is replaced by the top element of the policy lattice (may = all checks,
//! must = ∅ — every check possibly performed, none guaranteed), so a
//! degraded entry can never manufacture a spurious "missing check"
//! difference; consumers that instead drop the root entirely must say so
//! via the diagnostics they carry.
//!
//! # Examples
//!
//! ```
//! use spo_guard::{quarantine, Budget, CancelToken, Cause, Governor};
//!
//! let gov = Governor::new(Budget::default().steps(2), CancelToken::never());
//! let fault = quarantine(|| {
//!     for step in 0.. {
//!         gov.check_step(step); // trips once the budget is exhausted
//!     }
//! })
//! .unwrap_err();
//! assert_eq!(fault.cause, Cause::StepBudget);
//! ```
#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Why a unit of work (a root's analysis, a file's parse) was degraded.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Cause {
    /// The worker panicked; the payload message is preserved.
    Panic,
    /// The per-solve transfer-step budget was exhausted.
    StepBudget,
    /// The per-root frame budget was exhausted.
    FrameBudget,
    /// The wall-clock deadline passed.
    Deadline,
    /// The run was cooperatively cancelled (e.g. Ctrl-C).
    Cancelled,
    /// The input could not be parsed; the malformed unit was dropped.
    Parse,
    /// A persistent-cache entry was corrupt, truncated, or written by a
    /// different format version; the root fell back to a cold analysis.
    Cache,
    /// An injected fault from a `spo-chaos` plan fired (and the layer it
    /// hit absorbed or recovered from it).
    Chaos,
}

impl Cause {
    /// The stable lowercase label used in reports and the stats snapshot.
    pub fn label(self) -> &'static str {
        match self {
            Cause::Panic => "panic",
            Cause::StepBudget => "budget-steps",
            Cause::FrameBudget => "budget-frames",
            Cause::Deadline => "deadline",
            Cause::Cancelled => "cancel",
            Cause::Parse => "parse",
            Cause::Cache => "cache",
            Cause::Chaos => "chaos",
        }
    }
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How serious a degradation is for the run's result.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// The run completed but part of the result is missing or conservative.
    Warning,
    /// The unit produced no usable result at all.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which pipeline stage degraded.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Phase {
    /// `.jir` loading / parsing.
    Parse,
    /// Per-root policy analysis.
    Analysis,
    /// Persistent summary-cache I/O (warm-start lookups and write-back).
    Cache,
    /// Deterministic fault injection (`spo-chaos`): diagnostics about
    /// injected faults and the recoveries they exercised.
    Chaos,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Parse => "parse",
            Phase::Analysis => "analysis",
            Phase::Cache => "cache",
            Phase::Chaos => "chaos",
        })
    }
}

/// Resource limits for one root's analysis. The zero value of each field
/// means "unlimited"; [`Budget::default`] is fully unlimited.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    /// Maximum worklist transfer steps per fixpoint solve (0 = unlimited).
    pub max_steps: u64,
    /// Maximum method frames entered per root (0 = unlimited).
    pub max_frames: u64,
    /// Absolute wall-clock deadline for the run.
    pub deadline: Option<Instant>,
}

impl Budget {
    /// Returns `true` if no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_steps == 0 && self.max_frames == 0 && self.deadline.is_none()
    }

    /// Sets the per-solve transfer-step limit.
    pub fn steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the per-root frame limit.
    pub fn frames(mut self, max_frames: u64) -> Self {
        self.max_frames = max_frames;
        self
    }

    /// Sets the deadline `timeout` from now. A timeout too far out for the
    /// clock to represent sets no deadline: it could never expire anyway.
    pub fn deadline_in(mut self, timeout: Duration) -> Self {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }
}

/// One link of a cancellation chain: a flag plus an optional parent.
/// Cancellation propagates *down* the chain only — cancelling a child
/// never touches the parent, while a cancelled parent cancels every
/// descendant at its next [`CancelToken::is_cancelled`] read.
#[derive(Debug, Default)]
struct CancelNode {
    flag: AtomicBool,
    parent: Option<Arc<CancelNode>>,
}

/// A shared cooperative cancellation flag.
///
/// Cloning shares the flag. [`CancelToken::never`] (the default) carries no
/// flag at all and can never be cancelled — governed code pays one branch.
///
/// [`CancelToken::child`] derives a *linked* token for scoped work (one
/// server request, one batch item): the child observes the parent's
/// cancellation but can also be cancelled on its own without affecting
/// siblings — the shape per-request admission control needs.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Option<Arc<CancelNode>>);

impl CancelToken {
    /// Creates a live token, initially not cancelled.
    pub fn new() -> CancelToken {
        CancelToken(Some(Arc::new(CancelNode::default())))
    }

    /// A token that can never be cancelled (allocation-free).
    pub fn never() -> CancelToken {
        CancelToken(None)
    }

    /// Derives a linked child token: cancelled once either it or this
    /// token (or any further ancestor) is cancelled. Cancelling the child
    /// leaves this token — and every sibling child — untouched. A child of
    /// [`CancelToken::never`] is an ordinary independent token.
    pub fn child(&self) -> CancelToken {
        CancelToken(Some(Arc::new(CancelNode {
            flag: AtomicBool::new(false),
            parent: self.0.clone(),
        })))
    }

    /// Requests cancellation. Safe to call from any thread, repeatedly.
    pub fn cancel(&self) {
        if let Some(node) = &self.0 {
            node.flag.store(true, Ordering::Relaxed);
        }
    }

    /// Returns `true` once [`CancelToken::cancel`] has been called on this
    /// token or any ancestor it was [derived](CancelToken::child) from.
    pub fn is_cancelled(&self) -> bool {
        let mut node = self.0.as_deref();
        while let Some(n) = node {
            if n.flag.load(Ordering::Relaxed) {
                return true;
            }
            node = n.parent.as_deref();
        }
        false
    }
}

/// How often governed loops pay for an `Instant::now()` deadline read: every
/// `DEADLINE_STRIDE`-th step check. Frame entries always check.
const DEADLINE_STRIDE: u64 = 256;

/// One root's governance state: a [`Budget`], the shared [`CancelToken`],
/// and the running frame count. Create one per root so frame counts reset.
///
/// All checks *trip* on exhaustion: they raise an [`Interrupt`] unwind that
/// the enclosing [`quarantine`] converts into a [`Fault`]. Code outside a
/// quarantine must not call a tripping check with a non-trivial budget.
#[derive(Debug, Default)]
pub struct Governor {
    budget: Budget,
    cancel: CancelToken,
    frames: AtomicU64,
    governed: bool,
}

impl Governor {
    /// A governor with no limits: every check is a single branch.
    pub fn unlimited() -> Governor {
        Governor::default()
    }

    /// A governor enforcing `budget` and observing `cancel`.
    pub fn new(budget: Budget, cancel: CancelToken) -> Governor {
        let governed = !budget.is_unlimited() || cancel.0.is_some();
        Governor {
            budget,
            cancel,
            frames: AtomicU64::new(0),
            governed,
        }
    }

    /// Checks cancellation and the deadline (not the step/frame budgets).
    #[inline]
    pub fn check_point(&self) {
        if !self.governed {
            return;
        }
        self.check_cancel_and_deadline();
    }

    fn check_cancel_and_deadline(&self) {
        if self.cancel.is_cancelled() {
            trip(Cause::Cancelled, "run cancelled".to_owned());
        }
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                trip(Cause::Deadline, "wall-clock deadline passed".to_owned());
            }
        }
    }

    /// Per-worklist-pop check: `steps` is the solve-local transfer count.
    /// Trips when the per-solve step budget is exhausted; checks
    /// cancellation and the deadline only on a fixed stride of steps, so
    /// the clock is read rarely.
    #[inline]
    pub fn check_step(&self, steps: u64) {
        if !self.governed {
            return;
        }
        if self.budget.max_steps != 0 && steps >= self.budget.max_steps {
            trip(
                Cause::StepBudget,
                format!("fixpoint exceeded {} transfer steps", self.budget.max_steps),
            );
        }
        if steps.is_multiple_of(DEADLINE_STRIDE) {
            self.check_cancel_and_deadline();
        }
    }

    /// Per-frame check, called on *every* method-frame entry (before any
    /// memo lookup, so the count is a pure function of the root and never
    /// depends on what other workers memoized first). Trips when the
    /// per-root frame budget is exhausted; also checks cancellation and the
    /// deadline.
    #[inline]
    pub fn enter_frame(&self) {
        if !self.governed {
            return;
        }
        let frames = self.frames.fetch_add(1, Ordering::Relaxed) + 1;
        if self.budget.max_frames != 0 && frames > self.budget.max_frames {
            trip(
                Cause::FrameBudget,
                format!("root exceeded {} method frames", self.budget.max_frames),
            );
        }
        self.check_cancel_and_deadline();
    }

    /// Frames entered so far under this governor.
    pub fn frames_entered(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }
}

/// The typed unwind payload a tripped [`Governor`] raises. [`quarantine`]
/// downcasts it back; anything else caught there is a genuine panic.
#[derive(Clone, Debug)]
pub struct Interrupt {
    /// Which limit tripped.
    pub cause: Cause,
    /// Human-readable detail.
    pub detail: String,
}

/// Raises an [`Interrupt`] unwind. Must only run inside a [`quarantine`].
pub fn trip(cause: Cause, detail: String) -> ! {
    panic::panic_any(Interrupt { cause, detail })
}

/// A contained failure of one quarantined unit of work.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fault {
    /// Why the unit failed.
    pub cause: Cause,
    /// The interrupt detail or the panic payload message.
    pub message: String,
}

thread_local! {
    /// Nesting depth of active quarantines on this thread; non-zero
    /// suppresses the default panic hook's stderr backtrace for unwinds we
    /// are about to catch and convert.
    static QUARANTINE_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Wraps the process panic hook exactly once so expected, quarantined
/// unwinds do not spam stderr; panics outside any quarantine still reach
/// the previous hook unchanged.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if QUARANTINE_DEPTH.with(Cell::get) == 0 {
                previous(info);
            }
        }));
    });
}

/// Runs `f` in a fault-isolation boundary: a [`Governor`] trip or a genuine
/// panic inside `f` is caught and returned as a structured [`Fault`]
/// instead of unwinding further.
///
/// The closure is wrapped in `AssertUnwindSafe`: callers hand in shared
/// analysis state (summary stores, recorders) whose invariants hold at
/// every trip point — completed summaries are pure functions of their key,
/// so observing a partially-analyzed root's side effects is sound.
pub fn quarantine<T>(f: impl FnOnce() -> T) -> Result<T, Fault> {
    install_quiet_hook();
    QUARANTINE_DEPTH.with(|d| d.set(d.get() + 1));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUARANTINE_DEPTH.with(|d| d.set(d.get() - 1));
    result.map_err(|payload| {
        if let Some(interrupt) = payload.downcast_ref::<Interrupt>() {
            Fault {
                cause: interrupt.cause,
                message: interrupt.detail.clone(),
            }
        } else if let Some(msg) = payload.downcast_ref::<&'static str>() {
            Fault {
                cause: Cause::Panic,
                message: (*msg).to_owned(),
            }
        } else if let Some(msg) = payload.downcast_ref::<String>() {
            Fault {
                cause: Cause::Panic,
                message: msg.clone(),
            }
        } else {
            Fault {
                cause: Cause::Panic,
                message: "non-string panic payload".to_owned(),
            }
        }
    })
}

/// One degradation event, as surfaced in reports, `spo diff`, and the
/// `diagnostics` section of the stats snapshot.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Diagnostic {
    /// Which pipeline stage degraded (primary sort key, so parse
    /// diagnostics render before analysis diagnostics).
    pub phase: Phase,
    /// The degraded unit: an entry-point signature for analysis, a file or
    /// class name for parse.
    pub root: String,
    /// Why it degraded.
    pub cause: Cause,
    /// How serious the degradation is.
    pub severity: Severity,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// An analysis-phase diagnostic for a quarantined root.
    pub fn degraded_root(root: String, fault: &Fault) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            phase: Phase::Analysis,
            root,
            cause: fault.cause,
            message: fault.message.clone(),
        }
    }

    /// A parse-phase warning for a construct the recovering parser dropped
    /// at `path:line:col`; `dropped` names the unit given up (`method`,
    /// `class`, ...).
    pub fn parse_dropped(
        path: &str,
        line: u32,
        col: u32,
        message: &str,
        dropped: &str,
    ) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            phase: Phase::Parse,
            root: format!("{path}:{line}:{col}"),
            cause: Cause::Parse,
            message: format!("{message} (dropped {dropped})"),
        }
    }

    /// A cache-phase warning for an unusable persistent-cache entry. Never
    /// affects results (the root re-analyzes cold), so consumers must not
    /// fold it into "degraded" exit states.
    pub fn cache_fallback(unit: String, message: String) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            phase: Phase::Cache,
            root: unit,
            cause: Cause::Cache,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}: {}",
            self.severity, self.phase, self.root, self.cause, self.message
        )
    }
}

/// The exit code of a finished run: degraded (2, any diagnostic in
/// `diags`) beats findings (1) beats clean (0). A degraded run's findings
/// are a lower bound, not the full answer.
pub fn exit_code(diags: &[Diagnostic], findings: bool) -> u8 {
    if diags.is_empty() {
        u8::from(findings)
    } else {
        2
    }
}

/// The run-level guard configuration handed to the engine and the CLI: the
/// budget applied to every root and the shared cancel token.
#[derive(Clone, Debug, Default)]
pub struct GuardConfig {
    /// Budget applied to each root (frame counts reset per root).
    pub budget: Budget,
    /// Shared cancellation flag (e.g. flipped by the CLI's Ctrl-C handler).
    pub cancel: CancelToken,
}

impl GuardConfig {
    /// A fresh per-root [`Governor`] over this configuration.
    pub fn governor(&self) -> Governor {
        Governor::new(self.budget, self.cancel.clone())
    }

    /// Derives the admission-control configuration for one unit of served
    /// work (one daemon request): the budget is tightened by `timeout` if
    /// given (keeping any earlier, stricter deadline), and the cancel token
    /// becomes a linked [child](CancelToken::child) — cancellable on its
    /// own without affecting sibling requests, while still observing a
    /// cancellation of this base configuration (e.g. daemon shutdown).
    ///
    /// The returned config shares no mutable state with `self` beyond the
    /// cancellation chain; keep a clone of its `cancel` field to cancel the
    /// request later.
    pub fn for_request(&self, timeout: Option<Duration>) -> GuardConfig {
        let mut derived = self.clone();
        derived.cancel = self.cancel.child();
        if let Some(timeout) = timeout {
            let requested = Instant::now() + timeout;
            derived.budget.deadline = Some(match self.budget.deadline {
                Some(base) => base.min(requested),
                None => requested,
            });
        }
        derived
    }
}

/// A fresh scratch directory under the system temp dir, removed with
/// everything in it when the guard drops — so a run, a soak or a test
/// leaves nothing behind, even when it fails early.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<temp dir>/<prefix>-<pid>-<n>`, where `n` counts the
    /// guards this process has made: no two live guards share a path. A
    /// leftover at that path (from an earlier process with the same pid)
    /// is cleared first.
    ///
    /// # Errors
    ///
    /// Propagates the directory's creation failure.
    pub fn new(prefix: &str) -> std::io::Result<TempDir> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_fresh_and_removed_on_drop() {
        let (a, b) = (
            TempDir::new("spo-guard-test").unwrap(),
            TempDir::new("spo-guard-test").unwrap(),
        );
        assert_ne!(&*a, &*b);
        std::fs::write(a.join("f"), b"x").unwrap();
        let path = a.to_path_buf();
        drop(a);
        assert!(!path.exists());
        assert!(b.is_dir());
    }

    #[test]
    fn unlimited_governor_never_trips() {
        let gov = Governor::unlimited();
        for step in 0..10_000 {
            gov.check_step(step);
        }
        for _ in 0..10_000 {
            gov.enter_frame();
        }
        gov.check_point();
    }

    #[test]
    fn step_budget_trips_as_fault() {
        let gov = Governor::new(Budget::default().steps(10), CancelToken::never());
        let fault = quarantine(|| {
            for step in 0.. {
                gov.check_step(step);
            }
        })
        .unwrap_err();
        assert_eq!(fault.cause, Cause::StepBudget);
        assert!(fault.message.contains("10"));
    }

    #[test]
    fn frame_budget_trips_and_counts() {
        let gov = Governor::new(Budget::default().frames(3), CancelToken::never());
        let fault = quarantine(|| loop {
            gov.enter_frame();
        })
        .unwrap_err();
        assert_eq!(fault.cause, Cause::FrameBudget);
        assert_eq!(gov.frames_entered(), 4);
    }

    #[test]
    fn cancellation_observed_at_check_points() {
        let token = CancelToken::new();
        let gov = Governor::new(Budget::default(), token.clone());
        gov.check_point(); // not cancelled yet
        token.cancel();
        let fault = quarantine(|| gov.check_point()).unwrap_err();
        assert_eq!(fault.cause, Cause::Cancelled);
        assert!(token.is_cancelled());
    }

    #[test]
    fn unrepresentable_deadline_is_no_deadline() {
        let budget = Budget::default().deadline_in(Duration::MAX);
        assert_eq!(budget.deadline, None);
        assert!(budget.is_unlimited());
        assert!(Budget::default()
            .deadline_in(Duration::from_secs(1))
            .deadline
            .is_some());
    }

    #[test]
    fn deadline_in_the_past_trips() {
        let budget = Budget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Budget::default()
        };
        let gov = Governor::new(budget, CancelToken::never());
        let fault = quarantine(|| gov.enter_frame()).unwrap_err();
        assert_eq!(fault.cause, Cause::Deadline);
    }

    #[test]
    fn quarantine_captures_panic_messages() {
        let fault = quarantine(|| panic!("boom {}", 42)).unwrap_err();
        assert_eq!(fault.cause, Cause::Panic);
        assert_eq!(fault.message, "boom 42");
        let fault = quarantine(|| std::panic::panic_any(7_u32)).unwrap_err();
        assert_eq!(fault.cause, Cause::Panic);
        assert_eq!(fault.message, "non-string panic payload");
    }

    #[test]
    fn quarantine_passes_values_through() {
        assert_eq!(quarantine(|| 1 + 1).unwrap(), 2);
    }

    #[test]
    fn nested_quarantines_restore_suppression_depth() {
        let outer = quarantine(|| {
            let inner = quarantine(|| panic!("inner"));
            assert_eq!(inner.unwrap_err().message, "inner");
            "outer ok"
        });
        assert_eq!(outer.unwrap(), "outer ok");
    }

    #[test]
    fn child_tokens_observe_parent_but_not_siblings() {
        let parent = CancelToken::new();
        let a = parent.child();
        let b = parent.child();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled(), "sibling must stay live");
        assert!(!parent.is_cancelled(), "child cancel must not propagate up");
        parent.cancel();
        assert!(b.is_cancelled(), "parent cancel reaches every child");
        // A child of `never` is an ordinary independent token.
        let orphan = CancelToken::never().child();
        assert!(!orphan.is_cancelled());
        orphan.cancel();
        assert!(orphan.is_cancelled());
    }

    #[test]
    fn for_request_tightens_deadline_and_links_cancel() {
        let base = GuardConfig {
            budget: Budget::default().deadline_in(Duration::from_secs(3600)),
            cancel: CancelToken::new(),
        };
        // A shorter request timeout wins over the (looser) base deadline.
        let req = base.for_request(Some(Duration::from_millis(1)));
        assert!(req.budget.deadline.unwrap() < base.budget.deadline.unwrap());
        // A looser request timeout keeps the stricter base deadline.
        let loose = base.for_request(Some(Duration::from_secs(7200)));
        assert_eq!(loose.budget.deadline, base.budget.deadline);
        // No timeout: budget untouched, but the token is still a child.
        let plain = base.for_request(None);
        assert_eq!(plain.budget.deadline, base.budget.deadline);
        plain.cancel.cancel();
        assert!(!base.cancel.is_cancelled());
        base.cancel.cancel();
        assert!(base.for_request(None).cancel.is_cancelled());
    }

    #[test]
    fn diagnostic_renders_one_line() {
        let d = Diagnostic::degraded_root(
            "t.A.m()".to_owned(),
            &Fault {
                cause: Cause::Panic,
                message: "boom".to_owned(),
            },
        );
        assert_eq!(d.to_string(), "warning [analysis] t.A.m(): panic: boom");
    }

    #[test]
    fn diagnostics_sort_parse_first() {
        let mut v = [
            Diagnostic {
                severity: Severity::Warning,
                phase: Phase::Analysis,
                root: "a".into(),
                cause: Cause::Panic,
                message: String::new(),
            },
            Diagnostic {
                severity: Severity::Error,
                phase: Phase::Parse,
                root: "z".into(),
                cause: Cause::Parse,
                message: String::new(),
            },
        ];
        v.sort();
        assert_eq!(v[0].phase, Phase::Parse);
    }

    #[test]
    fn degraded_beats_findings_beats_clean() {
        let d = Diagnostic::parse_dropped("a.jir", 3, 9, "bad", "method");
        assert_eq!(exit_code(&[], false), 0);
        assert_eq!(exit_code(&[], true), 1);
        assert_eq!(exit_code(std::slice::from_ref(&d), false), 2);
        assert_eq!(exit_code(&[d], true), 2);
    }
}
