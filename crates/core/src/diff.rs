//! Security-policy differencing across implementations (§5).
//!
//! Given two implementations' policies for the same API entry point:
//!
//! 1. neither (or both identically) checks anything → no error;
//! 2. one implementation has no security policy while the other has one →
//!    error (most of the paper's vulnerabilities);
//! 3. otherwise, match events present in both (events unique to one side
//!    are ignored) and report (a) differing check sets, (b) the same checks
//!    with may status on one side and must on the other.

use crate::checks::CheckSet;
use crate::events::{EventKey, Name};
use crate::policy::{EntryPolicy, EventPolicy, LibraryPolicies};
use spo_dataflow::{Dnf, JoinLattice};
use std::collections::BTreeSet;
use std::fmt;

/// How aggressively matched events are compared.
///
/// The paper compares the *flat* may sets and the must sets; it explicitly
/// does not compare "the conditions under which the checks are executed"
/// (§6.4). [`DiffMode::Disjunctive`] is the stricter ablation: it also
/// compares the per-path check sets of Figure 2, flagging implementations
/// that perform the same checks under differently shaped control flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DiffMode {
    /// The paper's comparison: flat may sets and must sets (§5).
    #[default]
    Paper,
    /// Additionally compare the disjunctive path structure.
    Disjunctive,
}

/// Which side of a pairwise comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// The first library passed to the comparison.
    Left,
    /// The second library.
    Right,
}

/// What kind of inconsistency was detected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DifferenceKind {
    /// Case 2: one side performs checks, the other performs none at all.
    MissingPolicy {
        /// The side that *does* perform checks.
        checked: Side,
    },
    /// Case 3(a): a matched event is guarded by different check sets.
    CheckSetMismatch {
        /// The event whose guards differ.
        event: EventKey,
    },
    /// Case 3(b): same checks, but at least one is may on one side and
    /// must on the other.
    MustMayMismatch {
        /// The event whose guards differ in status.
        event: EventKey,
        /// Checks whose must-status differs.
        checks: CheckSet,
    },
    /// [`DiffMode::Disjunctive`] only: identical flat may and must sets,
    /// but the per-path check-set structure differs.
    PathSetMismatch {
        /// The event whose path structure differs.
        event: EventKey,
    },
}

impl fmt::Display for DifferenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DifferenceKind::MissingPolicy { checked } => {
                write!(
                    f,
                    "one implementation performs no checks (checked side: {checked:?})"
                )
            }
            DifferenceKind::CheckSetMismatch { event } => {
                write!(f, "different check sets before {event}")
            }
            DifferenceKind::MustMayMismatch { event, checks } => {
                write!(f, "may/must status of {checks} differs before {event}")
            }
            DifferenceKind::PathSetMismatch { event } => {
                write!(f, "per-path check structure differs before {event}")
            }
        }
    }
}

/// One side's policy evidence attached to a difference.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SideEvidence {
    /// Flat may checks for the differing event (or the whole entry for
    /// case 2).
    pub may: CheckSet,
    /// Must checks.
    pub must: CheckSet,
    /// Disjunctive may view.
    pub may_paths: Dnf,
}

impl SideEvidence {
    fn of_event(p: &EventPolicy) -> Self {
        SideEvidence {
            may: p.may,
            must: p.must,
            may_paths: p.may_paths.clone(),
        }
    }
}

/// A detected policy inconsistency for one API entry point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PolicyDifference {
    /// The entry point's signature.
    pub signature: String,
    /// What differs.
    pub kind: DifferenceKind,
    /// Left side's evidence.
    pub left: SideEvidence,
    /// Right side's evidence.
    pub right: SideEvidence,
    /// Methods implicated in the difference: where the delta checks are
    /// performed (on the side that has them) and where the event lives.
    /// This is the "method containing the error" used to merge reports
    /// stemming from the same root cause.
    pub origins: BTreeSet<Name>,
    /// The checks that differ between the sides.
    pub delta: CheckSet,
}

impl PolicyDifference {
    /// A stable key identifying the root cause: the differing checks plus
    /// the implicated methods. Entry points whose differences share this
    /// key are manifestations of one error.
    pub fn root_key(&self) -> String {
        let origins: Vec<&str> = self.origins.iter().map(|o| &**o).collect();
        format!("{}|{}", self.delta, origins.join(","))
    }
}

/// Result of diffing two libraries.
#[derive(Clone, Debug, Default)]
pub struct DiffResult {
    /// Name of the left library.
    pub left_name: String,
    /// Name of the right library.
    pub right_name: String,
    /// Number of entry points present (by signature) in both libraries —
    /// Table 3's "Matching APIs".
    pub matching_apis: usize,
    /// All detected differences, one or more per entry point.
    pub differences: Vec<PolicyDifference>,
}

/// Collects the methods implicated in a set of delta checks: where each
/// delta check is performed, per side; falls back to the event origins when
/// the delta is empty.
fn origins_for(
    left: &EntryPolicy,
    right: &EntryPolicy,
    event: Option<&EventKey>,
    delta: CheckSet,
) -> BTreeSet<Name> {
    let mut out = BTreeSet::new();
    for check in delta.iter() {
        for side in [left, right] {
            if let Some(o) = side.check_origins.get(&check.index()) {
                out.extend(o.iter().cloned());
            }
        }
    }
    if out.is_empty() {
        if let Some(ev) = event {
            for side in [left, right] {
                if let Some(o) = side.event_origins.get(ev) {
                    out.extend(o.iter().cloned());
                }
            }
        }
    }
    out
}

/// Diffs the policies of one entry point present in both implementations
/// using the paper's comparison ([`DiffMode::Paper`]).
pub fn diff_entry(left: &EntryPolicy, right: &EntryPolicy) -> Vec<PolicyDifference> {
    diff_entry_with(left, right, DiffMode::Paper)
}

/// Diffs one entry point under the chosen [`DiffMode`].
pub fn diff_entry_with(
    left: &EntryPolicy,
    right: &EntryPolicy,
    mode: DiffMode,
) -> Vec<PolicyDifference> {
    let (l_empty, r_empty) = (left.has_no_checks(), right.has_no_checks());
    // Case 1: neither side checks anything.
    if l_empty && r_empty {
        return Vec::new();
    }
    // Case 2: exactly one side has a policy.
    if l_empty != r_empty {
        let checked = if l_empty { Side::Right } else { Side::Left };
        let delta = left.all_checks().union(right.all_checks());
        let origins = origins_for(left, right, None, delta);
        let evidence = |e: &EntryPolicy| {
            let mut ev = SideEvidence {
                may: e.all_checks(),
                ..Default::default()
            };
            for p in e.events.values() {
                ev.must = ev.must.union(p.must);
                ev.may_paths.join(&p.may_paths);
            }
            ev
        };
        return vec![PolicyDifference {
            signature: left.signature.clone(),
            kind: DifferenceKind::MissingPolicy { checked },
            left: evidence(left),
            right: evidence(right),
            origins,
            delta,
        }];
    }
    // Case 3: match events; ignore events unique to one implementation.
    let mut out = Vec::new();
    for (key, lp) in &left.events {
        let Some(rp) = right.events.get(key) else {
            continue;
        };
        if lp.may != rp.may {
            let delta = lp.may.difference(rp.may).union(rp.may.difference(lp.may));
            out.push(PolicyDifference {
                signature: left.signature.clone(),
                kind: DifferenceKind::CheckSetMismatch { event: key.clone() },
                left: SideEvidence::of_event(lp),
                right: SideEvidence::of_event(rp),
                origins: origins_for(left, right, Some(key), delta),
                delta,
            });
        } else if lp.must != rp.must {
            let delta = lp
                .must
                .difference(rp.must)
                .union(rp.must.difference(lp.must));
            out.push(PolicyDifference {
                signature: left.signature.clone(),
                kind: DifferenceKind::MustMayMismatch {
                    event: key.clone(),
                    checks: delta,
                },
                left: SideEvidence::of_event(lp),
                right: SideEvidence::of_event(rp),
                origins: origins_for(left, right, Some(key), delta),
                delta,
            });
        } else if mode == DiffMode::Disjunctive && lp.may_paths != rp.may_paths {
            // Same checks, same statuses — but reached along differently
            // shaped paths. Delta: checks on paths unique to either side.
            let unique_l: CheckSet = lp
                .may_paths
                .disjuncts()
                .iter()
                .filter(|d| !rp.may_paths.disjuncts().contains(d))
                .fold(CheckSet::empty(), |acc, &d| {
                    acc.union(CheckSet::from_bits(d))
                });
            let unique_r: CheckSet = rp
                .may_paths
                .disjuncts()
                .iter()
                .filter(|d| !lp.may_paths.disjuncts().contains(d))
                .fold(CheckSet::empty(), |acc, &d| {
                    acc.union(CheckSet::from_bits(d))
                });
            let delta = unique_l.union(unique_r);
            out.push(PolicyDifference {
                signature: left.signature.clone(),
                kind: DifferenceKind::PathSetMismatch { event: key.clone() },
                left: SideEvidence::of_event(lp),
                right: SideEvidence::of_event(rp),
                origins: origins_for(left, right, Some(key), delta),
                delta,
            });
        }
    }
    out
}

/// Diffs all entry points shared by two library implementations (paper
/// mode).
pub fn diff_libraries(left: &LibraryPolicies, right: &LibraryPolicies) -> DiffResult {
    diff_libraries_with(left, right, DiffMode::Paper)
}

/// Diffs all shared entry points under the chosen [`DiffMode`].
pub fn diff_libraries_with(
    left: &LibraryPolicies,
    right: &LibraryPolicies,
    mode: DiffMode,
) -> DiffResult {
    let mut result = DiffResult {
        left_name: left.name.clone(),
        right_name: right.name.clone(),
        ..Default::default()
    };
    // Both maps iterate in signature order: one merge-join over the two
    // walks finds the shared entry points, with no lookup per entry.
    let mut right = right.entries.iter().peekable();
    for (sig, le) in &left.entries {
        while right.next_if(|(rs, _)| *rs < sig).is_some() {}
        let Some((_, re)) = right.next_if(|(rs, _)| *rs == sig) else {
            continue;
        };
        result.matching_apis += 1;
        result.differences.extend(diff_entry_with(le, re, mode));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::Check;
    use crate::policy::Origins;

    fn entry(sig: &str, events: &[(EventKey, &[Check], &[Check])]) -> EntryPolicy {
        let mut e = EntryPolicy::new(sig.to_owned());
        for (key, must, may) in events {
            let must: CheckSet = must.iter().copied().collect();
            let may: CheckSet = may.iter().copied().collect();
            e.events.insert(
                key.clone(),
                EventPolicy {
                    must,
                    may,
                    may_paths: Dnf::of(may.bits()),
                },
            );
            let o: Origins = [format!("{sig}#impl").into()].into_iter().collect();
            e.event_origins.insert(key.clone(), o);
            for c in may.iter() {
                let o: Origins = [format!("{sig}#check_{c}").into()].into_iter().collect();
                e.check_origins.insert(c.index(), o);
            }
        }
        e
    }

    fn native(n: &str) -> EventKey {
        EventKey::Native(n.into())
    }

    #[test]
    fn identical_policies_no_error() {
        let a = entry("C.m()", &[(native("x"), &[Check::Read], &[Check::Read])]);
        let b = entry("C.m()", &[(native("x"), &[Check::Read], &[Check::Read])]);
        assert!(diff_entry(&a, &b).is_empty());
    }

    #[test]
    fn both_empty_no_error() {
        let a = entry("C.m()", &[(EventKey::ApiReturn, &[], &[])]);
        let b = entry("C.m()", &[(EventKey::ApiReturn, &[], &[])]);
        assert!(diff_entry(&a, &b).is_empty());
    }

    #[test]
    fn case_2_missing_policy() {
        // Figure 7: Classpath's Socket.connect omits all checks.
        let jdk = entry(
            "Socket.connect()",
            &[(EventKey::ApiReturn, &[Check::Connect], &[Check::Connect])],
        );
        let classpath = entry("Socket.connect()", &[(EventKey::ApiReturn, &[], &[])]);
        let diffs = diff_entry(&jdk, &classpath);
        assert_eq!(diffs.len(), 1);
        assert!(matches!(
            diffs[0].kind,
            DifferenceKind::MissingPolicy {
                checked: Side::Left
            }
        ));
        assert_eq!(diffs[0].delta, CheckSet::of(Check::Connect));
        assert!(!diffs[0].origins.is_empty());
    }

    #[test]
    fn case_2_evidence_carries_each_side_s_paths() {
        // The checked side's evidence line must show the paths its checks
        // lie on, joined over its events, not an empty disjunction.
        let mut jdk = entry(
            "Socket.connect()",
            &[(EventKey::ApiReturn, &[Check::Connect], &[Check::Connect])],
        );
        jdk.events.insert(
            native("connect0"),
            EventPolicy {
                must: CheckSet::empty(),
                may: CheckSet::of(Check::Accept),
                may_paths: [CheckSet::empty().bits(), CheckSet::of(Check::Accept).bits()]
                    .into_iter()
                    .collect(),
            },
        );
        let classpath = entry("Socket.connect()", &[(EventKey::ApiReturn, &[], &[])]);
        let d = &diff_entry(&jdk, &classpath)[0];
        let connect = CheckSet::of(Check::Connect).bits();
        let accept = CheckSet::of(Check::Accept).bits();
        let want: Dnf = [CheckSet::empty().bits(), accept, connect]
            .into_iter()
            .collect();
        assert_eq!(d.left.may_paths, want);
        assert_eq!(d.right.may_paths, Dnf::of(CheckSet::empty().bits()));
        assert_eq!(
            crate::policy::render_dnf(&d.left.may_paths),
            "{{},{checkAccept},{checkConnect}}"
        );
    }

    #[test]
    fn case_3a_check_set_mismatch() {
        // Figure 1: Harmony misses checkAccept on the connect path.
        let jdk = entry(
            "DatagramSocket.connect()",
            &[(
                native("connect0"),
                &[],
                &[Check::Multicast, Check::Connect, Check::Accept],
            )],
        );
        let harmony = entry(
            "DatagramSocket.connect()",
            &[(native("connect0"), &[], &[Check::Multicast, Check::Connect])],
        );
        let diffs = diff_entry(&jdk, &harmony);
        assert_eq!(diffs.len(), 1);
        assert!(matches!(
            diffs[0].kind,
            DifferenceKind::CheckSetMismatch { .. }
        ));
        assert_eq!(diffs[0].delta, CheckSet::of(Check::Accept));
    }

    #[test]
    fn case_3b_must_may_mismatch() {
        let a = entry("C.m()", &[(native("x"), &[Check::Read], &[Check::Read])]);
        let b = entry("C.m()", &[(native("x"), &[], &[Check::Read])]);
        let diffs = diff_entry(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert!(matches!(
            &diffs[0].kind,
            DifferenceKind::MustMayMismatch { checks, .. } if *checks == CheckSet::of(Check::Read)
        ));
    }

    #[test]
    fn unmatched_events_ignored() {
        let a = entry(
            "C.m()",
            &[
                (native("x"), &[Check::Read], &[Check::Read]),
                (native("only_in_a"), &[], &[]),
            ],
        );
        let b = entry(
            "C.m()",
            &[
                (native("x"), &[Check::Read], &[Check::Read]),
                (native("only_in_b"), &[Check::Exit], &[Check::Exit]),
            ],
        );
        assert!(diff_entry(&a, &b).is_empty());
    }

    #[test]
    fn diff_libraries_counts_matching_apis() {
        let mut l = LibraryPolicies {
            name: "L".into(),
            ..Default::default()
        };
        let mut r = LibraryPolicies {
            name: "R".into(),
            ..Default::default()
        };
        l.entries.insert(
            "C.m()".into(),
            entry("C.m()", &[(native("x"), &[Check::Read], &[Check::Read])]).into(),
        );
        l.entries
            .insert("C.only_left()".into(), entry("C.only_left()", &[]).into());
        r.entries.insert(
            "C.m()".into(),
            entry("C.m()", &[(native("x"), &[], &[])]).into(),
        );
        r.entries
            .insert("C.only_right()".into(), entry("C.only_right()", &[]).into());
        let d = diff_libraries(&l, &r);
        assert_eq!(d.matching_apis, 1);
        assert_eq!(d.differences.len(), 1);
        assert_eq!(d.left_name, "L");
    }

    #[test]
    fn merge_join_matches_per_entry_lookup() {
        // Left-only, right-only and shared signatures interleave, with
        // prefix pairs (`A.m()` / `A.m(I)`) split across the two sides.
        let (mut l, mut r) = (LibraryPolicies::default(), LibraryPolicies::default());
        let sigs = [
            "A.m()", "A.m(I)", "A.m(I,J)", "A.mm()", "B.a()", "B.b()", "B.c()", "C.x()", "C.x(I)",
            "D.y()", "E.z()", "E.z(I)", "a.A.m()",
        ];
        for (k, sig) in sigs.iter().enumerate() {
            let checked = entry(sig, &[(native("x"), &[Check::Read], &[Check::Read])]);
            let unchecked = entry(sig, &[(native("x"), &[], &[])]);
            // k % 4: 0 shared and different, 1 left only, 2 right only,
            // 3 shared and equal.
            if k % 4 != 2 {
                l.entries.insert(sig.to_string(), checked.clone().into());
            }
            match k % 4 {
                0 => r.entries.insert(sig.to_string(), unchecked.into()),
                2 | 3 => r.entries.insert(sig.to_string(), checked.into()),
                _ => None,
            };
        }
        for mode in [DiffMode::Paper, DiffMode::Disjunctive] {
            for (a, b) in [(&l, &r), (&r, &l)] {
                let (mut matching, mut differences) = (0, Vec::new());
                for (sig, ae) in &a.entries {
                    if let Some(be) = b.entries.get(sig) {
                        matching += 1;
                        differences.extend(diff_entry_with(ae, be, mode));
                    }
                }
                let got = diff_libraries_with(a, b, mode);
                assert_eq!(got.matching_apis, matching);
                assert_eq!(got.differences, differences);
            }
        }
        assert_eq!(diff_libraries(&l, &r).matching_apis, 7);
        assert_eq!(diff_libraries(&l, &r).differences.len(), 4);
    }

    #[test]
    fn root_key_stable_across_entry_points() {
        // Two entry points manifesting the same missing check in the same
        // culprit method share a root key.
        let mut a1 = entry("C.m1()", &[(native("x"), &[], &[Check::Read])]);
        let mut b1 = entry("C.m1()", &[(native("x"), &[], &[])]);
        let mut a2 = entry("C.m2()", &[(native("x"), &[], &[Check::Read])]);
        let mut b2 = entry("C.m2()", &[(native("x"), &[], &[])]);
        for e in [&mut a1, &mut a2] {
            e.check_origins.clear();
            e.check_origins.insert(
                Check::Read.index(),
                ["C.sharedHelper".into()].into_iter().collect(),
            );
        }
        for e in [&mut b1, &mut b2] {
            e.check_origins.clear();
        }
        let d1 = &diff_entry(&a1, &b1)[0];
        let d2 = &diff_entry(&a2, &b2)[0];
        assert_eq!(d1.root_key(), d2.root_key());
    }
}

#[cfg(test)]
mod diffmode_tests {
    use super::*;
    use crate::checks::Check;
    use spo_dataflow::BitSet32;

    /// Two implementations with equal flat may and must sets but different
    /// path structures: {{A},{B},{A,B}} vs {{A},{B}} (flat {A,B}, must ∅
    /// on both sides).
    fn structurally_different() -> (EntryPolicy, EntryPolicy) {
        let a = CheckSet::of(Check::Read);
        let b = CheckSet::of(Check::Write);
        let mk = |paths: Vec<BitSet32>| {
            let mut e = EntryPolicy::new("C.m()".into());
            let may_paths: Dnf = paths.into_iter().collect();
            let may = CheckSet::from_bits(may_paths.flat_union());
            e.events.insert(
                EventKey::ApiReturn,
                EventPolicy {
                    must: CheckSet::from_bits(may_paths.must_view()),
                    may,
                    may_paths,
                },
            );
            e
        };
        (
            mk(vec![a.bits(), b.bits(), a.union(b).bits()]),
            mk(vec![a.bits(), b.bits()]),
        )
    }

    #[test]
    fn paper_mode_ignores_path_structure() {
        let (l, r) = structurally_different();
        assert!(diff_entry_with(&l, &r, DiffMode::Paper).is_empty());
    }

    #[test]
    fn disjunctive_mode_flags_path_structure() {
        let (l, r) = structurally_different();
        let diffs = diff_entry_with(&l, &r, DiffMode::Disjunctive);
        assert_eq!(diffs.len(), 1);
        assert!(matches!(
            diffs[0].kind,
            DifferenceKind::PathSetMismatch { .. }
        ));
        assert_eq!(
            diffs[0].delta,
            [Check::Read, Check::Write]
                .into_iter()
                .collect::<CheckSet>()
        );
    }

    #[test]
    fn disjunctive_mode_quiet_on_identical_paths() {
        let (l, _) = structurally_different();
        assert!(diff_entry_with(&l, &l.clone(), DiffMode::Disjunctive).is_empty());
    }
}
