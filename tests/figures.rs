//! End-to-end oracle runs over every paper figure: the reproduction's
//! ground truth for §2 and §6.2–§6.4.

use security_policy_oracle::{compare_implementations, PairingReport};
use spo_core::{
    AnalysisOptions, Check, CheckSet, DifferenceKind, EventDef, EventKey, RootCause, Side,
};
use spo_corpus::figures::{
    Figure, FIGURE1, FIGURE3, FIGURE4, FIGURE5, FIGURE6, FIGURE7, FIGURE8, FP_GET_PROPERTY,
};
use spo_corpus::Lib;

fn run(fig: Figure, a: Lib, b: Lib, options: AnalysisOptions) -> PairingReport {
    let left = fig.program(a);
    let right = fig.program(b);
    compare_implementations(&left, a.name(), &right, b.name(), options)
}

#[test]
fn figure_1_harmony_missing_check_accept() {
    let report = run(FIGURE1, Lib::Jdk, Lib::Harmony, AnalysisOptions::default());
    assert_eq!(report.groups.len(), 1, "{}", report.render());
    let g = &report.groups[0];
    assert_eq!(g.representative.delta, CheckSet::of(Check::Accept));
    assert!(matches!(
        g.representative.kind,
        DifferenceKind::CheckSetMismatch { .. }
    ));
    // The missing check is detected at the interprocedural level (the
    // checks live in connectInternal, a callee of the entry point).
    assert_eq!(g.cause, RootCause::Interprocedural);
    assert!(g
        .representative
        .origins
        .contains("java.net.DatagramSocket.connectInternal"));
}

#[test]
fn figure_2_policies_match_paper() {
    // The JDK policies of Figure 2: must {} and may
    // {{checkMulticast},{checkConnect,checkAccept}} (plus the elided
    // null-manager path).
    let jdk = FIGURE1.program(Lib::Jdk);
    let analyzer = spo_core::Analyzer::new(&jdk, AnalysisOptions::default());
    let lib = analyzer.analyze_library("jdk");
    let entry = &lib.entries["java.net.DatagramSocket.connect(java.net.InetAddress,int)"];
    let ret = &entry.events[&EventKey::ApiReturn];
    assert_eq!(ret.must, CheckSet::empty());
    let multicast: CheckSet = [Check::Multicast].into_iter().collect();
    let connect_accept: CheckSet = [Check::Connect, Check::Accept].into_iter().collect();
    let disjuncts: Vec<CheckSet> = ret
        .may_paths
        .disjuncts()
        .iter()
        .map(|&d| CheckSet::from_bits(d))
        .collect();
    assert!(disjuncts.contains(&multicast), "{disjuncts:?}");
    assert!(disjuncts.contains(&connect_accept), "{disjuncts:?}");
    // Plus the security-manager-absent path the paper's figures elide.
    assert!(disjuncts.contains(&CheckSet::empty()));
    assert_eq!(disjuncts.len(), 3);
}

#[test]
fn figure_3_needs_broad_events() {
    // Narrow: identical policies, no report.
    let narrow = run(FIGURE3, Lib::Jdk, Lib::Harmony, AnalysisOptions::default());
    assert!(narrow.groups.is_empty(), "{}", narrow.render());
    // Broad: the unguarded read of data1 differs.
    let broad = run(
        FIGURE3,
        Lib::Jdk,
        Lib::Harmony,
        AnalysisOptions {
            events: EventDef::Broad,
            ..Default::default()
        },
    );
    assert!(!broad.groups.is_empty());
    let found = broad.diff.differences.iter().any(|d| {
        matches!(
            &d.kind,
            DifferenceKind::CheckSetMismatch { event: EventKey::DataRead(n) }
                | DifferenceKind::MustMayMismatch { event: EventKey::DataRead(n), .. }
            if &**n == "data1"
        ) && d.delta.contains(Check::Read)
    });
    assert!(found, "{}", broad.render());
}

#[test]
fn figure_4_icp_eliminates_false_positive() {
    let with_icp = run(FIGURE4, Lib::Jdk, Lib::Harmony, AnalysisOptions::default());
    assert!(with_icp.groups.is_empty(), "{}", with_icp.render());
    let without = run(
        FIGURE4,
        Lib::Jdk,
        Lib::Harmony,
        AnalysisOptions {
            icp: false,
            ..Default::default()
        },
    );
    assert_eq!(without.groups.len(), 1, "{}", without.render());
    assert_eq!(
        without.groups[0].representative.delta,
        CheckSet::of(Check::Permission)
    );
}

#[test]
fn figure_5_jdk_missing_check_read() {
    let report = run(
        FIGURE5,
        Lib::Jdk,
        Lib::Classpath,
        AnalysisOptions::default(),
    );
    let vuln = report
        .groups
        .iter()
        .find(|g| g.representative.delta.contains(Check::Read))
        .unwrap_or_else(|| panic!("no checkRead difference:\n{}", report.render()));
    // The culprit is Classpath's loadLib, where the check JDK lacks lives.
    assert!(vuln
        .representative
        .origins
        .contains("java.lang.RuntimeLib.loadLib"));
    assert_eq!(vuln.cause, RootCause::Interprocedural);
    // JDK is the side missing the check: its may set lacks checkRead.
    assert!(!vuln.representative.left.may.contains(Check::Read));
    assert!(vuln.representative.right.may.contains(Check::Read));
}

#[test]
fn figure_6_harmony_missing_check_connect_via_api_return() {
    let report = run(FIGURE6, Lib::Jdk, Lib::Harmony, AnalysisOptions::default());
    assert_eq!(report.groups.len(), 1, "{}", report.render());
    let g = &report.groups[0];
    // Harmony performs no checks at all: a case-2 missing policy.
    assert!(matches!(
        g.representative.kind,
        DifferenceKind::MissingPolicy {
            checked: Side::Left
        }
    ));
    assert!(g.representative.delta.contains(Check::Connect));
    // Detectable by a purely intraprocedural analysis: the checks and the
    // return are in the entry method itself.
    assert_eq!(g.cause, RootCause::Intraprocedural);
}

#[test]
fn figure_7_classpath_missing_all_checks() {
    let report = run(
        FIGURE7,
        Lib::Jdk,
        Lib::Classpath,
        AnalysisOptions::default(),
    );
    assert_eq!(report.groups.len(), 1, "{}", report.render());
    let g = &report.groups[0];
    assert!(matches!(
        g.representative.kind,
        DifferenceKind::MissingPolicy {
            checked: Side::Left
        }
    ));
    assert_eq!(g.representative.delta, CheckSet::of(Check::Connect));
    // Harmony agrees with JDK: no report there.
    let jh = run(FIGURE7, Lib::Jdk, Lib::Harmony, AnalysisOptions::default());
    assert!(jh.groups.is_empty());
}

#[test]
fn figure_8_check_exit_interop_difference() {
    let report = run(FIGURE8, Lib::Jdk, Lib::Harmony, AnalysisOptions::default());
    assert_eq!(report.groups.len(), 1, "{}", report.render());
    let g = &report.groups[0];
    assert_eq!(g.representative.delta, CheckSet::of(Check::Exit));
    // The checkExit is performed inside System.exit.
    assert!(g.representative.origins.contains("java.lang.System.exit"));
}

#[test]
fn false_positive_get_property_reported_as_3a() {
    let report = run(
        FP_GET_PROPERTY,
        Lib::Jdk,
        Lib::Harmony,
        AnalysisOptions::default(),
    );
    assert_eq!(report.groups.len(), 1);
    let g = &report.groups[0];
    let expected: CheckSet = [Check::Permission, Check::SecurityAccess]
        .into_iter()
        .collect();
    assert_eq!(g.representative.delta, expected);
    // This one is visible intraprocedurally (checks inline in the entry).
    assert_eq!(g.cause, RootCause::Intraprocedural);
}

#[test]
fn identical_implementations_are_clean() {
    // Comparing an implementation against itself must produce nothing —
    // the no-intrinsic-false-positives property.
    for fig in [FIGURE1, FIGURE4, FIGURE7, FIGURE8] {
        let p = fig.program(Lib::Jdk);
        let report = compare_implementations(&p, "a", &p, "b", AnalysisOptions::default());
        assert!(
            report.groups.is_empty(),
            "{}: {}",
            fig.name,
            report.render()
        );
    }
}

#[test]
fn section_6_3_charset_provider_interop_difference() {
    // §6.3: "Classpath contains code that performs checkPermission(new
    // RuntimePermission(\"charsetProvider\")), whereas JDK and Harmony do
    // not" — an interoperability difference rooted in Classpath's dynamic
    // class loading.
    use spo_corpus::figures::INTEROP_CHARSET;
    let report = run(
        INTEROP_CHARSET,
        Lib::Jdk,
        Lib::Classpath,
        AnalysisOptions::default(),
    );
    assert_eq!(report.groups.len(), 1, "{}", report.render());
    let g = &report.groups[0];
    assert!(g.representative.delta.contains(Check::Permission));
    // Classpath is the side with the check (case 2: JDK performs none).
    assert!(matches!(
        g.representative.kind,
        DifferenceKind::MissingPolicy {
            checked: Side::Right
        }
    ));
    // Harmony agrees with JDK: no difference.
    let jh = run(
        INTEROP_CHARSET,
        Lib::Jdk,
        Lib::Harmony,
        AnalysisOptions::default(),
    );
    assert!(jh.groups.is_empty());
}
