//! Ground-truth labels for every inconsistency injected into the corpus.
//!
//! The paper's authors triaged each reported difference by hand and with
//! the library developers; the synthetic corpus carries its labels with it,
//! letting the harness compute Table 3's categories (and precision/recall)
//! mechanically.

use crate::lib_id::{Group, Lib};
use spo_core::{Check, ReportGroup};
use std::collections::BTreeMap;

/// What a difference means, per the paper's triage.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum BugCategory {
    /// A missing/bypassed check: exploitable.
    Vulnerability,
    /// A semantic difference that breaks interoperability but is not (by
    /// itself) exploitable.
    Interop,
    /// Both implementations are equivalently safe; the oracle cannot tell
    /// (the paper's 3 false positives).
    FalsePositive,
    /// A benign structural difference that only a run *without*
    /// interprocedural constant propagation reports (Table 3's
    /// "FPs eliminated by ICP").
    IcpOnly,
}

/// How the buggy implementation's code differs from the correct one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BugKind {
    /// One check of the correct set is omitted (Figure 1, Figure 5).
    DropCheck(Check),
    /// All checks are omitted (Figure 6, Figure 7).
    DropAllChecks,
    /// Checks are performed inside a privileged block, making them
    /// semantic no-ops (the five JDK vulnerabilities of §6.2).
    PrivilegedChecks,
    /// An additional check is required (Figure 8's `checkExit`).
    ExtraCheck(Check),
    /// A different but equivalent check is used (§6.4's false positives).
    WrongCheck {
        /// Check used by the other implementations.
        expected: Check,
        /// Check used by the buggy/differing implementation.
        actual: Check,
    },
    /// The check is performed conditionally where the others perform it
    /// unconditionally (case 3b, the paper's one MUST/MAY bug).
    MustMayDowngrade(Check),
    /// The implementation routes through a constant-guarded helper; only a
    /// non-ICP analysis sees a difference (Figure 4).
    IcpGuard(Check),
}

/// One injected inconsistency with its ground truth.
#[derive(Clone, Debug)]
pub struct BugRecord {
    /// Stable identifier, e.g. `"fig1"` or `"hv2"`.
    pub id: String,
    /// The implementation whose behaviour differs.
    pub buggy_lib: Lib,
    /// Triage category.
    pub category: BugCategory,
    /// Code-level difference.
    pub kind: BugKind,
    /// `Class.method` name of the method containing the error — the root
    /// cause the oracle's grouped reports should name.
    pub culprit: String,
    /// Manifesting entry points per visibility group (the culprit's own
    /// public entry, if any, is included as a wrapper of count 1).
    pub wrappers: Vec<(Group, usize)>,
    /// Only detectable under the broad event definition (Figure 3).
    pub broad_only: bool,
}

impl BugRecord {
    /// Number of manifesting entry points visible to the pairing `(a, b)`.
    pub fn manifestations_in(&self, a: Lib, b: Lib) -> usize {
        self.wrappers
            .iter()
            .filter(|(g, _)| g.in_pairing(a, b))
            .map(|(_, n)| n)
            .sum()
    }

    /// Is this bug detectable when comparing `a` and `b` (narrow events,
    /// ICP on)?
    pub fn visible_in(&self, a: Lib, b: Lib) -> bool {
        (self.buggy_lib == a || self.buggy_lib == b) && self.manifestations_in(a, b) > 0
    }
}

/// Expected Table 3 numbers for one pairing, derived from the catalog:
/// `(distinct, manifestations)` per category.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PairingExpectation {
    /// Vulnerabilities attributed to each library.
    pub vulns: BTreeMap<Lib, (usize, usize)>,
    /// Interoperability bugs.
    pub interop: (usize, usize),
    /// False positives.
    pub false_positives: (usize, usize),
    /// Differences that only appear with ICP disabled.
    pub icp_eliminated: (usize, usize),
}

impl PairingExpectation {
    /// Total distinct real differences (vulns + interop + FPs) the oracle
    /// should report with ICP on.
    pub fn total_distinct(&self) -> usize {
        self.vulns.values().map(|v| v.0).sum::<usize>() + self.interop.0 + self.false_positives.0
    }
}

/// Every injected bug of a generated corpus.
#[derive(Clone, Debug, Default)]
pub struct BugCatalog {
    /// All records.
    pub bugs: Vec<BugRecord>,
}

impl BugCatalog {
    /// Finds the bug whose culprit method is implicated by a grouped
    /// report (matching on the report's origin methods).
    pub fn classify(&self, group: &ReportGroup) -> Option<&BugRecord> {
        self.bugs.iter().find(|b| {
            group.representative.origins.contains(b.culprit.as_str())
                || group.root_key.contains(&b.culprit)
        })
    }

    /// Expected Table 3 numbers for the pairing `(a, b)` under narrow
    /// events.
    pub fn expected(&self, a: Lib, b: Lib) -> PairingExpectation {
        let mut exp = PairingExpectation::default();
        for bug in &self.bugs {
            if bug.broad_only || !bug.visible_in(a, b) {
                continue;
            }
            let m = bug.manifestations_in(a, b);
            match bug.category {
                BugCategory::Vulnerability => {
                    let slot = exp.vulns.entry(bug.buggy_lib).or_default();
                    slot.0 += 1;
                    slot.1 += m;
                }
                BugCategory::Interop => {
                    exp.interop.0 += 1;
                    exp.interop.1 += m;
                }
                BugCategory::FalsePositive => {
                    exp.false_positives.0 += 1;
                    exp.false_positives.1 += m;
                }
                BugCategory::IcpOnly => {
                    exp.icp_eliminated.0 += 1;
                    exp.icp_eliminated.1 += m;
                }
            }
        }
        exp
    }

    /// Distinct vulnerabilities per library across all pairings (the
    /// paper's "Total security vulnerabilities" row).
    pub fn total_vulnerabilities(&self, lib: Lib) -> usize {
        self.bugs
            .iter()
            .filter(|b| {
                b.buggy_lib == lib && b.category == BugCategory::Vulnerability && !b.broad_only
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, lib: Lib, cat: BugCategory, wrappers: Vec<(Group, usize)>) -> BugRecord {
        BugRecord {
            id: id.into(),
            buggy_lib: lib,
            category: cat,
            kind: BugKind::DropAllChecks,
            culprit: format!("gen.bug.{id}.Impl.doWork"),
            wrappers,
            broad_only: false,
        }
    }

    #[test]
    fn manifestations_respect_pairing_visibility() {
        let b = record(
            "x",
            Lib::Harmony,
            BugCategory::Vulnerability,
            vec![(Group::All, 2), (Group::ClasspathHarmony, 3)],
        );
        assert_eq!(b.manifestations_in(Lib::Jdk, Lib::Harmony), 2);
        assert_eq!(b.manifestations_in(Lib::Classpath, Lib::Harmony), 5);
        assert!(b.visible_in(Lib::Jdk, Lib::Harmony));
        assert!(!b.visible_in(Lib::Jdk, Lib::Classpath)); // harmony not in pairing
    }

    #[test]
    fn expected_counts_by_category() {
        let catalog = BugCatalog {
            bugs: vec![
                record(
                    "v1",
                    Lib::Harmony,
                    BugCategory::Vulnerability,
                    vec![(Group::All, 2)],
                ),
                record("i1", Lib::Jdk, BugCategory::Interop, vec![(Group::All, 1)]),
                record(
                    "f1",
                    Lib::Harmony,
                    BugCategory::FalsePositive,
                    vec![(Group::All, 1)],
                ),
                record(
                    "c1",
                    Lib::Classpath,
                    BugCategory::Vulnerability,
                    vec![(Group::JdkClasspath, 4)],
                ),
            ],
        };
        let jh = catalog.expected(Lib::Jdk, Lib::Harmony);
        assert_eq!(jh.vulns[&Lib::Harmony], (1, 2));
        assert_eq!(jh.interop, (1, 1));
        assert_eq!(jh.false_positives, (1, 1));
        assert!(!jh.vulns.contains_key(&Lib::Classpath));
        let jc = catalog.expected(Lib::Jdk, Lib::Classpath);
        assert_eq!(jc.vulns[&Lib::Classpath], (1, 4));
        assert_eq!(jc.interop, (1, 1));
        assert_eq!(jc.false_positives, (0, 0));
        assert_eq!(catalog.total_vulnerabilities(Lib::Harmony), 1);
        assert_eq!(catalog.total_vulnerabilities(Lib::Classpath), 1);
    }
}
