//! Security policies: the analysis output compared across implementations.

use crate::checks::CheckSet;
use crate::events::EventKey;
use spo_dataflow::{BitSet32, Dnf};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The policy attached to one security-sensitive event of one entry point:
/// which checks **must** precede it on every path and which **may** precede
/// it on some path.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct EventPolicy {
    /// Checks performed on *every* path reaching the event.
    pub must: CheckSet,
    /// Checks performed on *some* path, as the flat union of paths.
    pub may: CheckSet,
    /// The disjunctive view: the distinct per-path check sets (Figure 2's
    /// `{{checkMulticast},{checkConnect,checkAccept}}`).
    pub may_paths: Dnf,
}

impl EventPolicy {
    /// Returns `true` if no check may precede the event.
    pub fn is_unchecked(&self) -> bool {
        self.may.is_empty()
    }

    /// Combines another occurrence of the same event into this policy:
    /// intersection for must, union for may (§5).
    pub fn combine(&mut self, other: &EventPolicy) {
        self.must = self.must.intersect(other.must);
        self.may = self.may.union(other.may);
        use spo_dataflow::JoinLattice as _;
        self.may_paths.join(&other.may_paths);
    }

    /// Renders the policy in the paper's Figure 2 notation.
    pub fn render(&self, event: &EventKey) -> String {
        let paths: Vec<String> = self
            .may_paths
            .disjuncts()
            .iter()
            .map(|&d| CheckSet::from_bits(d).to_string())
            .collect();
        format!(
            "MUST check: {}  Event: {event}\nMAY  check: {{{}}}  Event: {event}",
            self.must,
            paths.join(",")
        )
    }
}

/// Where the analysis observed things, for root-cause grouping: method
/// names (`Class.method`) containing the event / performing a check.
pub type Origins = BTreeSet<String>;

/// The full security policy of one API entry point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EntryPolicy {
    /// Signature key used to match the entry point across implementations:
    /// `Class.method(paramtypes)`.
    pub signature: String,
    /// Policies per security-sensitive event.
    pub events: BTreeMap<EventKey, EventPolicy>,
    /// Methods containing each event.
    pub event_origins: BTreeMap<EventKey, Origins>,
    /// Methods where each check (by dense index) is performed.
    pub check_origins: BTreeMap<u8, Origins>,
}

impl EntryPolicy {
    /// Creates an empty policy for the given signature.
    pub fn new(signature: String) -> Self {
        EntryPolicy {
            signature,
            events: BTreeMap::new(),
            event_origins: BTreeMap::new(),
            check_origins: BTreeMap::new(),
        }
    }

    /// Returns `true` if the entry point performs no security checks before
    /// any event — the "no security policy" side of the comparison
    /// algorithm's case 2.
    pub fn has_no_checks(&self) -> bool {
        self.events.values().all(EventPolicy::is_unchecked)
    }

    /// Union of may-checks across all events.
    pub fn all_checks(&self) -> CheckSet {
        self.events
            .values()
            .fold(CheckSet::empty(), |acc, p| acc.union(p.may))
    }

    /// The sound top element of the policy lattice for a degraded entry:
    /// every check *may* precede the API return (so no check can ever be
    /// reported missing from this side), none *must* (so nothing is
    /// guaranteed). Diffing a top policy against any real policy can only
    /// under-report, never fabricate, differences.
    pub fn top(signature: String) -> Self {
        let all: CheckSet = crate::checks::ALL_CHECKS.iter().copied().collect();
        let mut entry = EntryPolicy::new(signature);
        entry.events.insert(
            EventKey::ApiReturn,
            EventPolicy {
                must: CheckSet::empty(),
                may: all,
                may_paths: Dnf::of(all.bits()),
            },
        );
        entry
    }
}

/// All entry-point policies of one library implementation, plus analysis
/// metadata.
#[derive(Clone, Debug, Default)]
pub struct LibraryPolicies {
    /// Human-readable library name (e.g. `jdk`).
    pub name: String,
    /// Policies keyed by entry-point signature.
    ///
    /// Degraded roots do **not** appear here: the surviving entries are
    /// byte-identical to a clean run restricted to them. Consumers that
    /// need a conservative stand-in for a degraded root should use
    /// [`EntryPolicy::top`].
    pub entries: BTreeMap<String, EntryPolicy>,
    /// Analysis statistics.
    pub stats: AnalysisStats,
    /// Roots whose analysis was quarantined (panic, budget, cancellation),
    /// keyed by signature. Empty on a clean run.
    pub degraded: BTreeMap<String, spo_guard::Diagnostic>,
}

impl LibraryPolicies {
    /// Entry points whose policy performs at least one check (Table 1's
    /// "Entry points w/ security checks").
    pub fn entries_with_checks(&self) -> usize {
        self.entries.values().filter(|e| !e.has_no_checks()).count()
    }

    /// Table 1's "may security policies": one may policy per distinct
    /// per-path check set of each (entry, event) pair — the disjuncts of
    /// Figure 2 count individually, which is why the paper reports more may
    /// than must policies.
    pub fn may_policy_count(&self) -> usize {
        self.entries
            .values()
            .flat_map(|e| e.events.values())
            .map(|p| p.may_paths.disjuncts().len().max(1))
            .sum()
    }

    /// Table 1's "must security policies": one must policy per (entry,
    /// event) pair.
    pub fn must_policy_count(&self) -> usize {
        self.event_policy_count()
    }

    /// Total number of (entry, event) policy pairs, empty or not.
    pub fn event_policy_count(&self) -> usize {
        self.entries.values().map(|e| e.events.len()).sum()
    }
}

/// Counters and timings accumulated during a library analysis.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct AnalysisStats {
    /// Number of entry points analyzed.
    pub entry_points: usize,
    /// Method frames analyzed (excluding memo hits).
    pub frames_analyzed: usize,
    /// Memoized summary reuses.
    pub memo_hits: usize,
    /// Memo misses (frames that had to be computed with memoization on).
    pub memo_misses: usize,
    /// Call sites skipped because resolution was not unique.
    pub unresolved_calls: usize,
    /// Wall-clock time of the analysis pass, in nanoseconds. MAY and MUST
    /// run fused in one pass, whose whole time is booked here.
    pub may_nanos: u128,
    /// Always 0: the MUST side runs inside the fused pass timed by
    /// `may_nanos`. Kept so readers that sum or subtract both fields (the
    /// end-to-end benchmark's engine-overhead figure) stay correct.
    pub must_nanos: u128,
}

impl AnalysisStats {
    /// Records these counters into an observability recorder as `work`
    /// metrics. They are scheduling-dependent — memo hits and misses depend
    /// on which worker computed a summary first — so they never land in the
    /// deterministic `counters` section. Durations are recorded at their
    /// measurement sites, not here.
    pub fn record_into(&self, rec: &spo_obs::Recorder) {
        if !rec.is_enabled() {
            return;
        }
        rec.work_counter("ispa.entry_points")
            .add(self.entry_points as u64);
        rec.work_counter("ispa.frames_analyzed")
            .add(self.frames_analyzed as u64);
        rec.work_counter("ispa.memo.hits")
            .add(self.memo_hits as u64);
        rec.work_counter("ispa.memo.misses")
            .add(self.memo_misses as u64);
        rec.work_counter("ispa.unresolved_sites")
            .add(self.unresolved_calls as u64);
    }

    /// Accumulates another run's counters (the parallel engine sums
    /// per-worker statistics this way).
    pub fn absorb(&mut self, other: &AnalysisStats) {
        self.entry_points += other.entry_points;
        self.frames_analyzed += other.frames_analyzed;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.unresolved_calls += other.unresolved_calls;
        self.may_nanos += other.may_nanos;
        self.must_nanos += other.must_nanos;
    }
}

impl fmt::Display for AnalysisStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entry points, {} frames, {} memo hits, pass {:.1}ms",
            self.entry_points,
            self.frames_analyzed,
            self.memo_hits,
            (self.may_nanos + self.must_nanos) as f64 / 1e6,
        )
    }
}

/// Helper: a [`Dnf`] rendered as check names, for tests and displays.
pub fn render_dnf(dnf: &Dnf) -> String {
    let paths: Vec<String> = dnf
        .disjuncts()
        .iter()
        .map(|&d: &BitSet32| CheckSet::from_bits(d).to_string())
        .collect();
    format!("{{{}}}", paths.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::Check;

    fn policy(must: &[Check], may: &[Check]) -> EventPolicy {
        let must: CheckSet = must.iter().copied().collect();
        let may: CheckSet = may.iter().copied().collect();
        EventPolicy {
            must,
            may,
            may_paths: Dnf::of(may.bits()),
        }
    }

    #[test]
    fn combine_intersects_must_unions_may() {
        let mut a = policy(
            &[Check::Connect, Check::Accept],
            &[Check::Connect, Check::Accept],
        );
        let b = policy(&[Check::Connect], &[Check::Connect, Check::Multicast]);
        a.combine(&b);
        assert_eq!(a.must, CheckSet::of(Check::Connect));
        assert_eq!(
            a.may,
            [Check::Connect, Check::Accept, Check::Multicast]
                .into_iter()
                .collect()
        );
        assert_eq!(a.may_paths.disjuncts().len(), 2);
    }

    #[test]
    fn unchecked_entry_detection() {
        let mut e = EntryPolicy::new("C.m()".into());
        e.events.insert(EventKey::ApiReturn, EventPolicy::default());
        assert!(e.has_no_checks());
        e.events
            .insert(EventKey::Native("x".into()), policy(&[], &[Check::Exit]));
        assert!(!e.has_no_checks());
        assert_eq!(e.all_checks(), CheckSet::of(Check::Exit));
    }

    #[test]
    fn library_counts() {
        let mut lib = LibraryPolicies {
            name: "t".into(),
            ..Default::default()
        };
        let mut e1 = EntryPolicy::new("A.m()".into());
        e1.events
            .insert(EventKey::ApiReturn, policy(&[Check::Read], &[Check::Read]));
        e1.events
            .insert(EventKey::Native("n".into()), policy(&[], &[Check::Read]));
        let mut e2 = EntryPolicy::new("B.m()".into());
        e2.events
            .insert(EventKey::ApiReturn, EventPolicy::default());
        lib.entries.insert(e1.signature.clone(), e1);
        lib.entries.insert(e2.signature.clone(), e2);
        assert_eq!(lib.entries_with_checks(), 1);
        assert_eq!(lib.event_policy_count(), 3);
        // One disjunct per event here, so may count == event count; must
        // counts every event.
        assert_eq!(lib.may_policy_count(), 3);
        assert_eq!(lib.must_policy_count(), 3);
    }

    #[test]
    fn render_matches_figure_2_shape() {
        let mut p = EventPolicy::default();
        p.may_paths = [
            CheckSet::of(Check::Multicast).bits(),
            [Check::Connect, Check::Accept]
                .into_iter()
                .collect::<CheckSet>()
                .bits(),
        ]
        .into_iter()
        .collect();
        p.may = CheckSet::from_bits(p.may_paths.flat_union());
        let s = p.render(&EventKey::ApiReturn);
        assert!(s.contains("MUST check: {}"));
        assert!(s.contains("{checkAccept, checkConnect}"));
        assert!(s.contains("{checkMulticast}"));
    }
}
