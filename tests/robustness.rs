//! Fuzz-style robustness over the committed `.jir` fixtures: mutated
//! inputs must never panic the pipeline and must terminate under a small
//! [`Budget`]; an injected panic in one root must leave every other
//! root's policies unchanged.

use security_policy_oracle::core::AnalysisOptions;
use security_policy_oracle::engine::{AnalysisEngine, Instruments};
use security_policy_oracle::guard::{Budget, Cause, GuardConfig};
use spo_chaos::{sites, FaultPlan};
use spo_jir::{parse_into_recovering, Program};
use spo_rng::SmallRng;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/jir")
        .join(name);
    std::fs::read_to_string(path).unwrap()
}

/// Grammar vocabulary spliced into fixtures to steer mutations toward
/// deeper parser paths than raw byte noise reaches.
const SPLICES: &[&str] = &[
    "class",
    "interface",
    "method",
    "field",
    "{",
    "}",
    ";",
    "goto",
    "if",
    "return",
    "(",
    ")",
    "virtualinvoke",
    "local",
    "=",
    ".",
    ",",
    "public",
    "native",
];

/// One mutation round: a byte flip, a truncation, or a token splice.
fn mutate(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    if bytes.is_empty() {
        return;
    }
    let i = rng.gen_range(0..bytes.len() as u32) as usize;
    match rng.gen_range(0..3u32) {
        0 => bytes[i] = rng.gen_range(0..256u32) as u8,
        1 => bytes.truncate(i),
        _ => {
            let tok = SPLICES[rng.gen_range(0..SPLICES.len() as u32) as usize];
            let mut spliced = Vec::with_capacity(bytes.len() + tok.len() + 2);
            spliced.extend_from_slice(&bytes[..i]);
            spliced.push(b' ');
            spliced.extend_from_slice(tok.as_bytes());
            spliced.push(b' ');
            spliced.extend_from_slice(&bytes[i..]);
            *bytes = spliced;
        }
    }
}

/// Mutated fixtures: the recovering parser plus a budget-governed engine
/// run never panic and always terminate, whatever survives the mutation.
#[test]
fn mutated_fixtures_never_panic_and_terminate_under_budget() {
    for (f, name) in [
        ("figure1_jdk.jir", "jdk"),
        ("figure1_harmony.jir", "harmony"),
    ] {
        let original = fixture(f);
        for seed in 0..48u64 {
            let mut rng = SmallRng::seed_from_u64(0xf022_0000 + seed);
            let mut bytes = original.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..6u32) {
                mutate(&mut bytes, &mut rng);
            }
            let src = String::from_utf8_lossy(&bytes).into_owned();
            let mut program = Program::new();
            let _recovery = parse_into_recovering(&src, &mut program);
            let guard = GuardConfig {
                budget: Budget::default().steps(5_000).frames(500),
                ..Default::default()
            };
            let engine = AnalysisEngine::new(2).with_instruments(Instruments {
                guard,
                ..Instruments::default()
            });
            let (lib, stats) = engine.analyze_library(&program, name, AnalysisOptions::default());
            // Reaching here at all means no panic escaped and the run
            // terminated; every degradation must carry a usable diagnostic.
            assert_eq!(
                stats.roots_degraded,
                lib.degraded.len() as u64,
                "seed {seed}"
            );
            for (sig, diag) in &lib.degraded {
                assert!(!sig.is_empty() && !diag.message.is_empty(), "seed {seed}");
            }
        }
    }
}

/// Panic isolation: injecting a panic into one root leaves every other
/// root's policies — events, check sets and origins — equal to the clean
/// run restricted to the surviving roots.
#[test]
fn injected_panic_leaves_other_roots_report_bytes_unchanged() {
    let src = fixture("figure1_jdk.jir");
    let mut program = Program::new();
    let recovery = parse_into_recovering(&src, &mut program);
    assert!(recovery.is_clean());
    let options = AnalysisOptions::default();
    let (clean, _) = AnalysisEngine::new(2).analyze_library(&program, "jdk", options);

    for jobs in [1, 2, 8] {
        let faults =
            FaultPlan::seeded(1).site_matching(sites::ENGINE_ROOT_PANIC, "DatagramSocket.connect");
        let (degraded, stats) = AnalysisEngine::new(jobs)
            .with_instruments(Instruments {
                faults,
                ..Instruments::default()
            })
            .analyze_library(&program, "jdk", options);
        assert!(stats.roots_degraded >= 1, "jobs {jobs}");
        for diag in degraded.degraded.values() {
            assert_eq!(diag.cause, Cause::Panic);
        }
        let mut restricted = clean.clone();
        restricted
            .entries
            .retain(|sig, _| !degraded.degraded.contains_key(sig));
        assert_eq!(
            degraded.entries, restricted.entries,
            "jobs {jobs}: surviving policies diverged"
        );
    }
}
