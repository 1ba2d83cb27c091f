//! End-to-end tests of `spo-soak`: the deterministic fault-injection
//! soak must be replayable — one seed, one fault schedule — and a full
//! run over all four fault domains (cache IO, engine workers, daemon
//! sessions, compiled-index reads) must hold the standing invariants.

#![cfg(unix)]

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        // The soak arms its children itself; an ambient plan from the
        // caller's environment must not leak in.
        .env_remove("SPO_CHAOS")
        .output()
        .expect("binary runs")
}

fn soak(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_spo-soak"), args)
}

/// The same seed replays the same schedules: modes, per-schedule seeds,
/// injected and recovered counts, byte for byte.
#[test]
fn soak_is_replayable_from_a_single_seed() {
    let first = soak(&["--seed", "5", "--schedules", "6"]);
    assert_eq!(
        first.status.code(),
        Some(0),
        "soak holds its invariants: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = soak(&["--seed", "5", "--schedules", "6"]);
    assert_eq!(second.status.code(), Some(0));
    assert_eq!(
        first.stdout, second.stdout,
        "seeded soak schedules are byte-deterministic"
    );
    let text = String::from_utf8_lossy(&first.stdout);
    assert!(
        text.lines()
            .last()
            .unwrap_or("")
            .starts_with("# soak: 6 schedule(s), 0 violation(s)"),
        "summary line closes the run: {text}"
    );
}

/// A different seed draws a different schedule stream — the soak is
/// actually seeded, not fixed.
#[test]
fn soak_seed_changes_the_schedule_stream() {
    let a = soak(&["--seed", "11", "--schedules", "4"]);
    let b = soak(&["--seed", "12", "--schedules", "4"]);
    assert_eq!(
        a.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&a.stderr)
    );
    assert_eq!(
        b.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&b.stderr)
    );
    assert_ne!(a.stdout, b.stdout, "distinct seeds, distinct schedules");
}

/// A malformed `SPO_CHAOS` plan is a fatal usage error (exit 3) naming
/// the variable, before any analysis runs.
#[test]
fn malformed_chaos_plan_is_fatal() {
    let out = Command::new(env!("CARGO_BIN_EXE_spo"))
        .args(["check", "--help"])
        .env("SPO_CHAOS", "sites=nonsense..nope")
        .output()
        .expect("spo binary runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("SPO_CHAOS"),
        "error names the environment variable"
    );
}

/// Seed 42's first schedules draw the index mode, arming
/// `index.read.bitflip` against a compiled `.spi` file: a flip must
/// surface as the typed unusable-index failure (or hold fire and
/// reproduce the clean report), never a wrong answer — so the run
/// finishes with zero violations.
#[test]
fn soak_index_mode_holds_the_degraded_not_wrong_invariant() {
    let out = soak(&["--seed", "42", "--schedules", "4"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "soak is clean: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("mode=index"),
        "seed 42 exercises the index mode: {stdout}"
    );
    assert!(stdout.contains("0 violation(s)"), "no violations: {stdout}");
}

/// The soak's own flags are validated before any schedule runs, and the
/// soak is no longer a `spo` command: each is a usage error (exit 3)
/// naming what was wrong.
#[test]
fn soak_usage_errors_exit_3() {
    let cases: [(&str, &[&str], &str); 3] = [
        (env!("CARGO_BIN_EXE_spo-soak"), &["--rate", "1.5"], "--rate"),
        (env!("CARGO_BIN_EXE_spo-soak"), &["--bogus"], "--bogus"),
        (
            env!("CARGO_BIN_EXE_spo"),
            &["chaos", "soak"],
            "unknown command `chaos`",
        ),
    ];
    for (exe, args, named) in cases {
        let out = run(exe, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{exe} {args:?}: {stderr}");
        assert!(
            stderr.contains(named),
            "{exe} {args:?} names {named}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{exe} {args:?} ran no schedule");
    }
}
