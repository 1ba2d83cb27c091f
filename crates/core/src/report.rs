//! Report grouping and root-cause classification (§6, Table 3).
//!
//! "To reduce the number of reports the developer must read, our analysis
//! automatically combines reports when the error stems from the same root
//! cause, i.e., when the method containing the error is called from
//! multiple API entry points. The number of entry points (manifestations)
//! that can exploit the error is shown in parentheses."

use crate::diff::{diff_entry, diff_libraries, DiffResult, DifferenceKind, PolicyDifference};
use crate::policy::{render_dnf, EntryPolicy, LibraryPolicies};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Which analysis feature is required to detect a difference — Table 3's
/// "Root cause of policy difference" rows.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum RootCause {
    /// Visible to an analysis that only computes policies local to the
    /// entry method.
    Intraprocedural,
    /// Requires following calls (the majority in the paper).
    Interprocedural,
    /// A may-vs-must status difference (case 3b).
    MustMay,
}

impl fmt::Display for RootCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RootCause::Intraprocedural => f.write_str("intraprocedural"),
            RootCause::Interprocedural => f.write_str("interprocedural"),
            RootCause::MustMay => f.write_str("MUST/MAY"),
        }
    }
}

/// A distinct error: one root cause with all the entry points that manifest
/// it.
#[derive(Clone, Debug)]
pub struct ReportGroup {
    /// Stable root-cause key (delta checks + implicated methods).
    pub root_key: String,
    /// Entry-point signatures affected.
    pub manifestations: BTreeSet<String>,
    /// A representative difference (the first encountered).
    pub representative: PolicyDifference,
    /// Detection requirement classification.
    pub cause: RootCause,
}

impl ReportGroup {
    /// Number of manifesting entry points — the parenthesized counts in
    /// Table 3.
    pub fn manifestation_count(&self) -> usize {
        self.manifestations.len()
    }
}

/// Groups raw differences into distinct errors by root cause.
///
/// `intra_keys` are the root keys found by the intraprocedural-only
/// ablation; groups whose key appears there are classified
/// [`RootCause::Intraprocedural`], may/must-status differences
/// [`RootCause::MustMay`], and everything else
/// [`RootCause::Interprocedural`].
pub fn group_differences(result: &DiffResult, intra_keys: &BTreeSet<String>) -> Vec<ReportGroup> {
    let mut groups: BTreeMap<String, ReportGroup> = BTreeMap::new();
    for diff in &result.differences {
        let key = diff.root_key();
        groups
            .entry(key.clone())
            .and_modify(|g| {
                g.manifestations.insert(diff.signature.clone());
            })
            .or_insert_with(|| {
                let cause = if matches!(diff.kind, DifferenceKind::MustMayMismatch { .. }) {
                    RootCause::MustMay
                } else if intra_keys.contains(&key) {
                    RootCause::Intraprocedural
                } else {
                    RootCause::Interprocedural
                };
                ReportGroup {
                    root_key: key,
                    manifestations: [diff.signature.clone()].into(),
                    representative: diff.clone(),
                    cause,
                }
            });
    }
    groups.into_values().collect()
}

/// The oracle's one pairwise comparison: differences over the two full
/// analyses, grouped by [`group_by_ablation`]. Each side is `(full,
/// intra)`. The daemon's diff and the index diff call this; the engine's
/// `compare_all` calls its two halves with a demanded ablation in between
/// ([`ablation_demand`]), so all three agree by construction.
pub fn diff_pair(
    left: (&LibraryPolicies, &LibraryPolicies),
    right: (&LibraryPolicies, &LibraryPolicies),
) -> (DiffResult, Vec<ReportGroup>) {
    let diff = diff_libraries(left.0, right.0);
    let groups = group_by_ablation(&diff, left.1, right.1);
    (diff, groups)
}

/// Groups a full diff by root cause against the keys the
/// intraprocedural ablation of the same pair finds (`left_intra` vs
/// `right_intra`) — the second half of [`diff_pair`].
///
/// Only the ablation entries [`ablation_demand`] names for `diff` are
/// diffed (all of them when it names the whole library): no other intra
/// key can match a key of `diff`, so the groups are those of the
/// whole-library ablation diff.
pub fn group_by_ablation(
    diff: &DiffResult,
    left_intra: &LibraryPolicies,
    right_intra: &LibraryPolicies,
) -> Vec<ReportGroup> {
    let intra_keys = match ablation_demand([diff]) {
        None => root_keys(&diff_libraries(left_intra, right_intra)),
        Some(names) => demanded_keys(left_intra, right_intra, &names),
    };
    group_differences(diff, &intra_keys)
}

/// The root keys of the differences between the entries of `left` and
/// `right` whose `Class.method` is in `names`: each name's overloads are
/// the signatures `Class.method(…)`, one contiguous range of the map.
fn demanded_keys(
    left: &LibraryPolicies,
    right: &LibraryPolicies,
    names: &BTreeSet<&str>,
) -> BTreeSet<String> {
    use std::ops::Bound;
    let mut keys = BTreeSet::new();
    for name in names {
        let prefix = format!("{name}(");
        let overloads = left
            .entries
            .range::<str, _>((Bound::Included(prefix.as_str()), Bound::Unbounded))
            .take_while(|(sig, _)| sig.starts_with(&prefix));
        for (sig, le) in overloads {
            if let Some(re) = right.entries.get(sig) {
                keys.extend(diff_entry(le, re).iter().map(PolicyDifference::root_key));
            }
        }
    }
    keys
}

/// The entry points the intraprocedural ablation must analyse for one
/// library, given the full diffs of every pairing that includes it:
/// `Some(names)` demands the roots whose `Class.method` is in `names`,
/// and `None` demands the whole library.
///
/// The ablation only feeds [`group_differences`]' membership test, and an
/// intraprocedural run follows no call, so every origin of an intra
/// difference at root `R` is `R`'s own `Class.method`: its key is
/// `delta|Class.method(R)` or `delta|`. A full key with two or more
/// origins therefore matches no intra key, and one whose only origin is
/// `n` can only match a key at a root named `n` (every overload of it).
/// A full key with no origins (index-decoded or degraded input) could
/// match `delta|` at any root, which is the one case that demands the
/// whole library. Restricted to the demanded roots, the ablation yields
/// every intra key that can match, so grouping is unchanged.
pub fn ablation_demand<'a>(
    diffs: impl IntoIterator<Item = &'a DiffResult>,
) -> Option<BTreeSet<&'a str>> {
    let mut names = BTreeSet::new();
    for diff in diffs.into_iter().flat_map(|d| &d.differences) {
        let mut origins = diff.origins.iter();
        match (origins.next(), origins.next()) {
            (None, _) => return None,
            (Some(only), None) => {
                names.insert(&**only);
            }
            (Some(_), Some(_)) => {}
        }
    }
    Some(names)
}

/// The root keys of a diff result, for feeding the intraprocedural ablation
/// into [`group_differences`].
pub fn root_keys(result: &DiffResult) -> BTreeSet<String> {
    result
        .differences
        .iter()
        .map(PolicyDifference::root_key)
        .collect()
}

/// Tallies of grouped reports in the shape of one Table 3 column.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReportTally {
    /// Distinct intraprocedural errors (manifestations).
    pub intraprocedural: (usize, usize),
    /// Distinct interprocedural errors (manifestations).
    pub interprocedural: (usize, usize),
    /// Distinct MUST/MAY errors (manifestations).
    pub must_may: (usize, usize),
}

impl ReportTally {
    /// Builds the tally from grouped reports.
    pub fn of(groups: &[ReportGroup]) -> Self {
        let mut t = ReportTally::default();
        for g in groups {
            let slot = match g.cause {
                RootCause::Intraprocedural => &mut t.intraprocedural,
                RootCause::Interprocedural => &mut t.interprocedural,
                RootCause::MustMay => &mut t.must_may,
            };
            slot.0 += 1;
            slot.1 += g.manifestation_count();
        }
        t
    }

    /// Total distinct errors.
    pub fn total_distinct(&self) -> usize {
        self.intraprocedural.0 + self.interprocedural.0 + self.must_may.0
    }
}

/// Renders one entry point's policy block as the `analyze` listing shows
/// it: an `entry <signature>` header plus one two-space-indented policy
/// line per event (multi-line policies stay indented). An entry with no
/// checks renders as the empty string — the listing omits it.
pub fn render_entry(signature: &str, entry: &EntryPolicy) -> String {
    use std::fmt::Write as _;
    if entry.has_no_checks() {
        return String::new();
    }
    let mut out = String::new();
    writeln!(out, "entry {signature}").unwrap();
    for (event, policy) in &entry.events {
        writeln!(out, "  {}", policy.render(event).replace('\n', "\n  ")).unwrap();
    }
    out
}

/// Renders a library's complete per-entry policy listing: every entry with
/// checks (via [`render_entry`], in signature order) followed by the `#`
/// summary footer. This is the single source of the `spo analyze` report
/// bytes — the one-shot CLI and the resident daemon both print exactly
/// this string, which is what makes their outputs byte-comparable.
pub fn render_analysis(lib: &LibraryPolicies) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (sig, entry) in &lib.entries {
        out.push_str(&render_entry(sig, entry));
    }
    writeln!(
        out,
        "# {} entry points, {} with checks, {} may / {} must policies",
        lib.stats.entry_points,
        lib.entries_with_checks(),
        lib.may_policy_count(),
        lib.must_policy_count(),
    )
    .unwrap();
    out
}

/// Renders grouped reports as a human-readable listing, most-manifested
/// first; ties are broken by root key so the output is a pure function of
/// the diff (identical across runs, thread counts, and platforms).
pub fn render_reports(result: &DiffResult, groups: &[ReportGroup]) -> String {
    use std::fmt::Write as _;
    let mut sorted: Vec<&ReportGroup> = groups.iter().collect();
    sorted.sort_by_key(|g| (std::cmp::Reverse(g.manifestation_count()), &g.root_key));
    let mut out = String::new();
    writeln!(
        out,
        "{} vs {}: {} distinct difference(s), {} manifestation(s)",
        result.left_name,
        result.right_name,
        groups.len(),
        groups
            .iter()
            .map(ReportGroup::manifestation_count)
            .sum::<usize>()
    )
    .unwrap();
    for (i, g) in sorted.iter().enumerate() {
        let d = &g.representative;
        writeln!(
            out,
            "\n[{}] {} ({} manifestations, {} cause)",
            i + 1,
            d.kind,
            g.manifestation_count(),
            g.cause
        )
        .unwrap();
        writeln!(out, "    delta checks: {}", d.delta).unwrap();
        writeln!(
            out,
            "    {}: must {} may {}",
            result.left_name,
            d.left.must,
            render_dnf(&d.left.may_paths)
        )
        .unwrap();
        writeln!(
            out,
            "    {}: must {} may {}",
            result.right_name,
            d.right.must,
            render_dnf(&d.right.may_paths)
        )
        .unwrap();
        if !d.origins.is_empty() {
            let origins: Vec<&str> = d.origins.iter().map(|o| &**o).collect();
            writeln!(out, "    implicated methods: {}", origins.join(", ")).unwrap();
        }
        let sample: Vec<&str> = g
            .manifestations
            .iter()
            .take(4)
            .map(String::as_str)
            .collect();
        writeln!(out, "    e.g. {}", sample.join(", ")).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::{Check, CheckSet};
    use crate::diff::{DifferenceKind, SideEvidence};
    use crate::events::EventKey;

    fn diff(sig: &str, origin: &str, delta: &[Check], kind: DifferenceKind) -> PolicyDifference {
        PolicyDifference {
            signature: sig.into(),
            kind,
            left: SideEvidence::default(),
            right: SideEvidence::default(),
            origins: [origin.into()].into(),
            delta: delta.iter().copied().collect(),
        }
    }

    fn mismatch() -> DifferenceKind {
        DifferenceKind::CheckSetMismatch {
            event: EventKey::ApiReturn,
        }
    }

    #[test]
    fn same_root_cause_grouped() {
        let result = DiffResult {
            left_name: "a".into(),
            right_name: "b".into(),
            matching_apis: 10,
            differences: vec![
                diff("C.m1()", "C.helper", &[Check::Read], mismatch()),
                diff("C.m2()", "C.helper", &[Check::Read], mismatch()),
                diff("C.m3()", "D.other", &[Check::Read], mismatch()),
            ],
        };
        let groups = group_differences(&result, &BTreeSet::new());
        assert_eq!(groups.len(), 2);
        let max = groups
            .iter()
            .map(|g| g.manifestation_count())
            .max()
            .unwrap();
        assert_eq!(max, 2);
    }

    #[test]
    fn classification_uses_intra_keys_and_kind() {
        let d_intra = diff("C.a()", "C.a", &[Check::Read], mismatch());
        let d_inter = diff("C.b()", "C.deep", &[Check::Exit], mismatch());
        let d_mm = diff(
            "C.c()",
            "C.c",
            &[Check::Link],
            DifferenceKind::MustMayMismatch {
                event: EventKey::ApiReturn,
                checks: CheckSet::of(Check::Link),
            },
        );
        let intra_keys: BTreeSet<String> = [d_intra.root_key()].into();
        let result = DiffResult {
            left_name: "a".into(),
            right_name: "b".into(),
            matching_apis: 3,
            differences: vec![d_intra, d_inter, d_mm],
        };
        let groups = group_differences(&result, &intra_keys);
        let tally = ReportTally::of(&groups);
        assert_eq!(tally.intraprocedural, (1, 1));
        assert_eq!(tally.interprocedural, (1, 1));
        assert_eq!(tally.must_may, (1, 1));
        assert_eq!(tally.total_distinct(), 3);
    }

    #[test]
    fn ablation_demand_names_single_origins_only() {
        let mut two = diff("C.m3()", "C.x", &[Check::Exit], mismatch());
        two.origins.insert("C.y".into());
        let left = DiffResult {
            differences: vec![diff("C.m1()", "C.h", &[Check::Read], mismatch()), two],
            ..Default::default()
        };
        let right = DiffResult {
            differences: vec![diff("D.m()", "D.k", &[Check::Read], mismatch())],
            ..Default::default()
        };
        let demand = ablation_demand([&left, &right]).expect("every key has origins");
        assert_eq!(demand, ["C.h", "D.k"].into());
        assert_eq!(ablation_demand([]), Some(BTreeSet::new()));
    }

    #[test]
    fn an_origin_less_difference_demands_the_whole_library() {
        let mut bare = diff("C.m2()", "C.h", &[Check::Read], mismatch());
        bare.origins.clear();
        let result = DiffResult {
            differences: vec![diff("C.m1()", "C.h", &[Check::Read], mismatch()), bare],
            ..Default::default()
        };
        assert_eq!(ablation_demand([&result]), None);
    }

    #[test]
    fn render_is_nonempty_and_sorted() {
        let result = DiffResult {
            left_name: "jdk".into(),
            right_name: "harmony".into(),
            matching_apis: 2,
            differences: vec![
                diff("C.m1()", "C.h", &[Check::Read], mismatch()),
                diff("C.m2()", "C.h", &[Check::Read], mismatch()),
                diff("D.x()", "D.y", &[Check::Exit], mismatch()),
            ],
        };
        let groups = group_differences(&result, &BTreeSet::new());
        let text = render_reports(&result, &groups);
        assert!(text.contains("jdk vs harmony"));
        assert!(text.contains("2 distinct"));
        // The 2-manifestation group is listed first.
        let pos_read = text.find("checkRead").unwrap();
        let pos_exit = text.find("checkExit").unwrap();
        assert!(pos_read < pos_exit);
    }
}
