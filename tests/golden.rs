//! Golden-file stability tests: the analyzer's report for the Figure 1 JDK
//! implementation is pinned by a committed fixture, and the one entry
//! point with the Figure 2 policy is pinned field by field, origins
//! included. A diff here means the analysis results changed — investigate
//! before regenerating!
//!
//! Regenerate the fixture from `render_analysis` of the same library.

use spo_core::{render_analysis, AnalysisOptions, Analyzer, Check, CheckSet, EventKey, Origins};
use spo_corpus::{figures::FIGURE1, Lib};

const FIXTURE: &str = include_str!("fixtures/figure1_jdk.analysis");

#[test]
fn figure1_jdk_policies_match_the_committed_fixture() {
    let p = FIGURE1.program(Lib::Jdk);
    let lib = Analyzer::new(&p, AnalysisOptions::default()).analyze_library("jdk-figure1");
    assert_eq!(
        render_analysis(&lib),
        FIXTURE,
        "analyzer output drifted from the golden fixture"
    );
}

/// `DatagramSocket.connect` keeps Figure 2's three paths before both of
/// its events, and the methods its events and checks live in.
#[test]
fn figure1_jdk_connect_keeps_its_paths_and_origins() {
    let p = FIGURE1.program(Lib::Jdk);
    let lib = Analyzer::new(&p, AnalysisOptions::default()).analyze_library("jdk-figure1");
    let entry = &lib.entries["java.net.DatagramSocket.connect(java.net.InetAddress,int)"];
    let paths: Vec<CheckSet> = [
        vec![],
        vec![Check::Accept, Check::Connect],
        vec![Check::Multicast],
    ]
    .into_iter()
    .map(|checks| checks.into_iter().collect())
    .collect();
    let native = EventKey::Native("connect0".into());
    assert_eq!(
        entry.events.keys().collect::<Vec<_>>(),
        [&EventKey::ApiReturn, &native]
    );
    for policy in entry.events.values() {
        let got: Vec<CheckSet> = policy
            .may_paths
            .disjuncts()
            .iter()
            .map(|&d| CheckSet::from_bits(d))
            .collect();
        assert_eq!(got, paths);
        assert!(policy.must.is_empty());
    }
    let origins = |methods: &[&str]| -> Origins { methods.iter().map(|&m| m.into()).collect() };
    assert_eq!(
        entry.event_origins[&EventKey::ApiReturn],
        origins(&["java.net.DatagramSocket.connect"])
    );
    assert_eq!(
        entry.event_origins[&native],
        origins(&["java.net.DatagramSocketImpl.connect"])
    );
    let helper = origins(&["java.net.DatagramSocket.connectInternal"]);
    let checks = [Check::Accept, Check::Connect, Check::Multicast];
    assert_eq!(
        entry.check_origins.keys().copied().collect::<Vec<u8>>(),
        checks.map(Check::index)
    );
    for check in checks {
        assert_eq!(entry.check_origins[&check.index()], helper, "{check}");
    }
}
