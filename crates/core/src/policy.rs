//! Security policies: the analysis output compared across implementations.

use crate::checks::CheckSet;
use crate::events::{EventKey, Name};
use spo_dataflow::{BitSet32, Dnf};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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

/// A map held as a vector of `(key, value)` pairs sorted by key.
///
/// An entry point's per-event and per-check maps hold one to three items
/// as a rule; a sorted vector stores them in one small allocation, where a
/// B-tree pays for a whole leaf node. Lookup is a binary search, and
/// iteration order is key order, exactly as a `BTreeMap`'s.
#[derive(Clone, PartialEq, Eq)]
pub struct SortedMap<K, V> {
    items: Vec<(K, V)>,
}

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        SortedMap { items: Vec::new() }
    }
}

impl<K: Ord, V> SortedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        SortedMap::default()
    }

    /// An empty map with room for `n` items.
    pub fn with_capacity(n: usize) -> Self {
        SortedMap {
            items: Vec::with_capacity(n),
        }
    }

    fn search(&self, key: &K) -> Result<usize, usize> {
        // Items usually arrive in key order: check the end first.
        match self.items.last() {
            Some((last, _)) if *last < *key => Err(self.items.len()),
            _ => self.items.binary_search_by(|(k, _)| k.cmp(key)),
        }
    }

    /// Inserts `value` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.items[i].1, value)),
            Err(i) => {
                self.items.insert(i, (key, value));
                None
            }
        }
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.search(key).ok().map(|i| &self.items[i].1)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.search(key).ok().map(|i| &mut self.items[i].1)
    }

    /// Whether `key` has a value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.search(key).is_ok()
    }
}

impl<K, V> SortedMap<K, V> {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the map holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Removes every item.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// The items in key order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&K, &V)> + ExactSizeIterator {
        self.items.iter().map(|(k, v)| (k, v))
    }

    /// The keys in order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> + ExactSizeIterator {
        self.items.iter().map(|(k, _)| k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> + ExactSizeIterator {
        self.items.iter().map(|(_, v)| v)
    }
}

impl<K, V> IntoIterator for SortedMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for SortedMap<K, V> {
    /// Of two pairs with one key, the later wins, as with `insert` in
    /// turn. Pairs in any order cost one sort, not a shift per pair.
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut items: Vec<(K, V)> = iter.into_iter().collect();
        if !items.is_sorted_by(|a, b| a.0 < b.0) {
            // Stable: each key's pairs stay in arrival order, so moving the
            // later pair into the kept slot keeps the last of each run.
            items.sort_by(|a, b| a.0.cmp(&b.0));
            items.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(later, kept);
                }
                same
            });
        }
        SortedMap { items }
    }
}

impl<'a, K, V> IntoIterator for &'a SortedMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().map(|(k, v)| (k, v))
    }
}

impl<K: Ord, V> std::ops::Index<&K> for SortedMap<K, V> {
    type Output = V;

    /// # Panics
    ///
    /// Panics if `key` has no value, as `BTreeMap` indexing does.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("key present in SortedMap")
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for SortedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Where the analysis observed things, for root-cause grouping: method
/// names (`Class.method`) containing the event / performing a check, held
/// as a sorted, duplicate-free boxed slice of shared names.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Origins(Box<[Name]>);

impl Origins {
    /// The names in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Name> {
        self.0.iter()
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if there are no names.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `name` is among the names.
    pub fn contains(&self, name: &str) -> bool {
        self.0.binary_search_by(|n| (**n).cmp(name)).is_ok()
    }
}

impl From<Vec<Name>> for Origins {
    /// Sorts and deduplicates the names.
    fn from(mut names: Vec<Name>) -> Self {
        if !names.is_sorted_by(|a, b| a < b) {
            names.sort_unstable();
            names.dedup();
        }
        Origins(names.into_boxed_slice())
    }
}

impl FromIterator<Name> for Origins {
    fn from_iter<T: IntoIterator<Item = Name>>(iter: T) -> Self {
        Origins::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl<'a> IntoIterator for &'a Origins {
    type Item = &'a Name;
    type IntoIter = std::slice::Iter<'a, Name>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Debug for Origins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The full security policy of one API entry point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EntryPolicy {
    /// Signature key used to match the entry point across implementations:
    /// `Class.method(paramtypes)`.
    pub signature: String,
    /// Policies per security-sensitive event.
    pub events: SortedMap<EventKey, EventPolicy>,
    /// Methods containing each event.
    pub event_origins: SortedMap<EventKey, Origins>,
    /// Methods where each check (by dense index) is performed.
    pub check_origins: SortedMap<u8, Origins>,
}

impl EntryPolicy {
    /// Creates an empty policy for the given signature.
    pub fn new(signature: String) -> Self {
        EntryPolicy {
            signature,
            events: SortedMap::new(),
            event_origins: SortedMap::new(),
            check_origins: SortedMap::new(),
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
    ///
    /// Each entry is shared: an index decode hands the same policy to a
    /// library's full and intraprocedural maps when the two are equal.
    pub entries: BTreeMap<String, Arc<EntryPolicy>>,
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
    fn sorted_map_and_origins_behave_like_the_btree_collections() {
        let mut map = SortedMap::new();
        let mut tree = BTreeMap::new();
        for (k, v) in [(5u8, 'a'), (2, 'b'), (9, 'c'), (2, 'd'), (7, 'e'), (9, 'f')] {
            assert_eq!(map.insert(k, v), tree.insert(k, v));
        }
        assert!(map.iter().eq(tree.iter()));
        assert_eq!(map.get(&7), Some(&'e'));
        assert_eq!(map.get(&3), None);
        let collected: SortedMap<u8, char> = [(3, 'x'), (1, 'y'), (3, 'z')].into_iter().collect();
        assert_eq!(format!("{collected:?}"), "{1: 'y', 3: 'z'}");
        let pairs = [
            (5u8, 'a'),
            (2, 'b'),
            (9, 'c'),
            (2, 'd'),
            (7, 'e'),
            (9, 'f'),
            (2, 'g'),
        ];
        let collected: SortedMap<u8, char> = pairs.into_iter().collect();
        let tree: BTreeMap<u8, char> = pairs.into_iter().collect();
        assert!(collected.iter().eq(tree.iter()), "{collected:?}");
        let origins: Origins = ["b.m", "a.m", "b.m"].map(Name::from).into_iter().collect();
        assert_eq!(format!("{origins:?}"), r#"{"a.m", "b.m"}"#);
        assert!(origins.contains("b.m") && !origins.contains("c.m"));
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
        lib.entries.insert(e1.signature.clone(), e1.into());
        lib.entries.insert(e2.signature.clone(), e2.into());
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
