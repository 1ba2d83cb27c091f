//! The prior-work baselines the paper measures itself against (§7).
//!
//! * [`verify_mediation`] — a CMV-style complete-mediation verifier
//!   (Sistla et al.; also the shape of Koved et al.'s access-rights
//!   analysis): takes a *manually specified* policy of (check, event)
//!   pairs and reports every event occurrence not dominated by its check
//!   (i.e. the check is not in the MUST set). As §2 shows, this approach
//!   (a) needs someone to write the policy, and (b) *must* flag both
//!   implementations of Figure 1 — including the correct JDK one — because
//!   the correct policy there is a MAY policy: no single check dominates
//!   the event.
//!
//! * [`mine_rules`]/[`mining_deviations`] — a "bugs as deviant behaviour"
//!   code-miner (Engler et al., AutoISES): learns frequently co-occurring
//!   check-before-event pairs from one implementation and flags
//!   deviations. It fundamentally assumes the same pattern occurs many
//!   times; rare or unique policies (Figure 1's `checkMulticast` +
//!   `checkAccept` combination) fall below any support threshold, and
//!   lowering the threshold manufactures false positives (§1).

use crate::checks::Check;
use crate::events::EventKey;
use crate::policy::LibraryPolicies;
use std::collections::BTreeMap;

/// A manually specified complete-mediation policy: each event must be
/// dominated by its check.
#[derive(Clone, Debug, Default)]
pub struct MediationPolicy {
    /// Required (check, event) pairs.
    pub pairs: Vec<(Check, EventKey)>,
}

impl MediationPolicy {
    /// Builds a policy from pairs.
    pub fn new(pairs: Vec<(Check, EventKey)>) -> Self {
        MediationPolicy { pairs }
    }
}

/// One complete-mediation violation: the event is reachable in the entry
/// point without the required check on some path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MediationViolation {
    /// Entry-point signature.
    pub signature: String,
    /// The event that was reached.
    pub event: EventKey,
    /// The check that does not dominate it.
    pub check: Check,
}

/// Verifies a manual policy against extracted policies, CMV-style: for
/// every entry point and required pair, the check must be in the event's
/// MUST set.
pub fn verify_mediation(
    lib: &LibraryPolicies,
    policy: &MediationPolicy,
) -> Vec<MediationViolation> {
    let mut out = Vec::new();
    for (sig, entry) in &lib.entries {
        for (check, event) in &policy.pairs {
            let Some(p) = entry.events.get(event) else {
                continue;
            };
            if !p.must.contains(*check) {
                out.push(MediationViolation {
                    signature: sig.clone(),
                    event: event.clone(),
                    check: *check,
                });
            }
        }
    }
    out
}

/// A rule learned by the miner: entries reaching `event` usually perform
/// `check` first.
#[derive(Clone, PartialEq, Debug)]
pub struct MinedRule {
    /// The protecting check.
    pub check: Check,
    /// The protected event.
    pub event: EventKey,
    /// Number of entries following the rule.
    pub support: usize,
    /// Fraction of entries reaching the event that follow the rule.
    pub confidence: f64,
}

/// Mines frequent check-before-event patterns from one implementation's
/// extracted policies. A rule `(check, event)` is emitted when at least
/// `min_support` entries reach `event` with `check` in its may set and
/// the fraction of such entries among all reaching `event` is at least
/// `min_confidence`.
pub fn mine_rules(
    lib: &LibraryPolicies,
    min_support: usize,
    min_confidence: f64,
) -> Vec<MinedRule> {
    // event -> (total entries reaching it, per-check counts)
    let mut totals: BTreeMap<&EventKey, usize> = BTreeMap::new();
    let mut with_check: BTreeMap<(&EventKey, Check), usize> = BTreeMap::new();
    for entry in lib.entries.values() {
        for (event, p) in &entry.events {
            *totals.entry(event).or_default() += 1;
            for check in p.may.iter() {
                *with_check.entry((event, check)).or_default() += 1;
            }
        }
    }
    let mut rules = Vec::new();
    for ((event, check), support) in with_check {
        let total = totals[event];
        let confidence = support as f64 / total as f64;
        if support >= min_support && confidence >= min_confidence && confidence < 1.0 + f64::EPSILON
        {
            rules.push(MinedRule {
                check,
                event: event.clone(),
                support,
                confidence,
            });
        }
    }
    rules
}

/// A deviation from a mined rule: an entry reaches the event without the
/// check. The miner cannot tell real bugs from false positives; the
/// oracle's catalog can.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MiningDeviation {
    /// Entry-point signature.
    pub signature: String,
    /// The rule's event.
    pub event: EventKey,
    /// The rule's check, missing here.
    pub check: Check,
}

/// Flags every entry that reaches a rule's event without the rule's check.
pub fn mining_deviations(lib: &LibraryPolicies, rules: &[MinedRule]) -> Vec<MiningDeviation> {
    let mut out = Vec::new();
    for (sig, entry) in &lib.entries {
        for rule in rules {
            let Some(p) = entry.events.get(&rule.event) else {
                continue;
            };
            if !p.may.contains(rule.check) {
                out.push(MiningDeviation {
                    signature: sig.clone(),
                    event: rule.event.clone(),
                    check: rule.check,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::CheckSet;
    use crate::policy::{EntryPolicy, EventPolicy};
    use spo_dataflow::Dnf;

    fn entry(sig: &str, event: EventKey, must: &[Check], may: &[Check]) -> EntryPolicy {
        let mut e = EntryPolicy::new(sig.to_owned());
        let must: CheckSet = must.iter().copied().collect();
        let may: CheckSet = may.iter().copied().collect();
        e.events.insert(
            event,
            EventPolicy {
                must,
                may,
                may_paths: Dnf::of(may.bits()),
            },
        );
        e
    }

    fn lib(entries: Vec<EntryPolicy>) -> LibraryPolicies {
        let mut l = LibraryPolicies {
            name: "t".into(),
            ..Default::default()
        };
        for e in entries {
            l.entries.insert(e.signature.clone(), e.into());
        }
        l
    }

    fn native(n: &str) -> EventKey {
        EventKey::Native(n.into())
    }

    #[test]
    fn mediation_flags_missing_domination() {
        let l = lib(vec![
            entry("A.ok()", native("w"), &[Check::Write], &[Check::Write]),
            entry("A.bad()", native("w"), &[], &[Check::Write]),
        ]);
        let policy = MediationPolicy::new(vec![(Check::Write, native("w"))]);
        let v = verify_mediation(&l, &policy);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].signature, "A.bad()");
    }

    #[test]
    fn mediation_false_positives_on_correct_may_policies() {
        // The Figure 1 situation: the correct implementation has
        // {{checkMulticast},{checkConnect,checkAccept}} — no single check
        // dominates, so a must-based verifier flags correct code.
        let mut e = entry(
            "DS.connect()",
            native("connect0"),
            &[],
            &[Check::Multicast, Check::Connect, Check::Accept],
        );
        let p = e.events.get_mut(&native("connect0")).unwrap();
        p.may_paths = [
            CheckSet::of(Check::Multicast).bits(),
            [Check::Connect, Check::Accept]
                .into_iter()
                .collect::<CheckSet>()
                .bits(),
        ]
        .into_iter()
        .collect();
        let l = lib(vec![e]);
        let policy = MediationPolicy::new(vec![(Check::Connect, native("connect0"))]);
        let v = verify_mediation(&l, &policy);
        assert_eq!(
            v.len(),
            1,
            "the verifier must (wrongly) flag the correct code"
        );
    }

    #[test]
    fn miner_learns_frequent_rules_and_flags_deviations() {
        let mut entries: Vec<EntryPolicy> = (0..9)
            .map(|i| {
                entry(
                    &format!("A.m{i}()"),
                    native("w"),
                    &[Check::Write],
                    &[Check::Write],
                )
            })
            .collect();
        entries.push(entry("A.devious()", native("w"), &[], &[]));
        let l = lib(entries);
        let rules = mine_rules(&l, 3, 0.8);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].check, Check::Write);
        assert_eq!(rules[0].support, 9);
        let dev = mining_deviations(&l, &rules);
        assert_eq!(dev.len(), 1);
        assert_eq!(dev[0].signature, "A.devious()");
    }

    #[test]
    fn miner_misses_unique_patterns() {
        // Figure 1's pattern occurs once: below any useful support
        // threshold, no rule is learned, the bug is invisible.
        let l = lib(vec![entry(
            "DS.connect()",
            native("connect0"),
            &[],
            &[Check::Multicast, Check::Connect],
        )]);
        let rules = mine_rules(&l, 3, 0.8);
        assert!(rules.is_empty());
        assert!(mining_deviations(&l, &rules).is_empty());
    }

    #[test]
    fn miner_threshold_tradeoff() {
        // 3 entries check, 2 don't: at high confidence no rule (no
        // deviations, bug missed); at low confidence a rule flags the 2 —
        // whether they are bugs or false positives the miner cannot know.
        let mut entries: Vec<EntryPolicy> = (0..3)
            .map(|i| {
                entry(
                    &format!("A.c{i}()"),
                    native("w"),
                    &[Check::Write],
                    &[Check::Write],
                )
            })
            .collect();
        entries.push(entry("A.u0()", native("w"), &[], &[]));
        entries.push(entry("A.u1()", native("w"), &[], &[]));
        let l = lib(entries);
        assert!(mine_rules(&l, 3, 0.9).is_empty());
        let low = mine_rules(&l, 3, 0.5);
        assert_eq!(low.len(), 1);
        assert_eq!(mining_deviations(&l, &low).len(), 2);
    }

    #[test]
    fn universal_rules_are_not_deviation_sources() {
        // confidence == 1.0 means nothing deviates; the rule is emitted
        // but produces no reports.
        let entries: Vec<EntryPolicy> = (0..5)
            .map(|i| {
                entry(
                    &format!("A.m{i}()"),
                    native("w"),
                    &[Check::Write],
                    &[Check::Write],
                )
            })
            .collect();
        let l = lib(entries);
        let rules = mine_rules(&l, 3, 0.8);
        assert!(mining_deviations(&l, &rules).is_empty());
    }
}
