//! End-to-end tests of the `spo` command-line interface, exercising the
//! "share policies without sharing code" workflow of §8.

use spo_guard::TempDir;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn spo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spo"))
        .args(args)
        .output()
        .expect("spo binary runs")
}

/// `spo` under the `SPO_CHAOS` fault plan `spec`.
fn spo_chaos(spec: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spo"))
        .args(args)
        .env("SPO_CHAOS", spec)
        .output()
        .expect("spo binary runs")
}

/// Panics every `deg.W.panicky*` root.
const PANIC_PANICKY: &str = "seed=1,sites=engine.root.panic~deg.W.panicky";

/// Sleeps `ms` before every root.
fn delay_every_root(ms: u64) -> String {
    format!("seed=1,delay_ms={ms},sites=engine.root.delay:1")
}

/// A fresh scratch directory per test, removed when the test ends.
fn scratch() -> TempDir {
    TempDir::new("spo-cli-tests").unwrap()
}

fn write_temp(dir: &Path, name: &str, content: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const RUNTIME: &str = r#"
class java.lang.SecurityManager {
  method public native void checkWrite(java.lang.Object file);
}
class java.lang.System {
  field static java.lang.SecurityManager security;
  method public static java.lang.SecurityManager getSecurityManager() {
    local java.lang.SecurityManager sm;
    sm = java.lang.System.security;
    return sm;
  }
}
"#;

const CHECKED: &str = r#"
class api.W {
  method public void write(java.lang.String p) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if sm == null goto go;
    virtualinvoke sm.checkWrite(p);
  go:
    staticinvoke api.W.write0(p);
    return;
  }
  method private static native void write0(java.lang.String p);
}
"#;

const UNCHECKED: &str = r#"
class api.W {
  method public void write(java.lang.String p) {
    staticinvoke api.W.write0(p);
    return;
  }
  method private static native void write0(java.lang.String p);
}
"#;

#[test]
fn help_prints_usage() {
    let out = spo(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = spo(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn check_reports_stats() {
    let dir = scratch();
    let rt = write_temp(&dir, "rt.jir", RUNTIME);
    let a = write_temp(&dir, "a.jir", CHECKED);
    let out = spo(&["check", rt.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("entry points"), "{stdout}");
    assert!(stdout.contains("% resolved"), "{stdout}");
}

/// A layer with one ambiguous interface call and two unknown static
/// calls, so the call-site counts `spo check` prints are non-zero and
/// pairwise distinct.
const AMBIGUOUS: &str = r#"
interface t.I {
  method public abstract void run();
}
class t.A implements t.I {
  method public void run() { return; }
}
class t.B implements t.I {
  method public void run() { return; }
}
class t.U {
  method public void go(t.I i) {
    interfaceinvoke i.run();
    staticinvoke ext.Sys.call();
    staticinvoke ext.Sys.other();
    return;
  }
}
"#;

/// `spo check --stats-json` records what `spo check` prints: the
/// `resolve.*` counters equal the printed entry points, reachable methods
/// and call-site counts, and `jir.parse.stmts` (summed over both files)
/// the printed statement count.
#[test]
fn check_stats_json_counts_what_check_prints() {
    let dir = scratch();
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let jdk = manifest.join("examples/jir/figure1_jdk.jir");
    let extra = write_temp(&dir, "ambiguous.jir", AMBIGUOUS);
    let json_path = dir.join("check-stats.json");
    let out = spo(&[
        "check",
        jdk.to_str().unwrap(),
        extra.to_str().unwrap(),
        "--stats-json",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The number printed right before `label`.
    let printed = |label: &str| -> u64 {
        let (head, _) = stdout
            .split_once(label)
            .unwrap_or_else(|| panic!("no {label:?} in {stdout}"));
        head.split_whitespace().last().unwrap().parse().unwrap()
    };
    let json = std::fs::read_to_string(&json_path).unwrap();
    let snapshot = security_policy_oracle::obs::json::parse(&json).unwrap();
    let counter = |name: &str| -> u64 {
        snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("no counter {name} in {json}"))
    };
    for (name, label) in [
        ("resolve.callgraph.roots", " entry points"),
        ("resolve.callgraph.methods", " reachable methods"),
        ("resolve.calls.unique", " unique"),
        ("resolve.calls.ambiguous", " ambiguous"),
        ("resolve.calls.unknown", " unknown"),
        ("jir.parse.stmts", " statements"),
    ] {
        assert_eq!(counter(name), printed(label), "{name} vs {label:?}");
    }
    assert_eq!(printed(" ambiguous"), 1, "{stdout}");
    assert_eq!(printed(" unknown"), 2, "{stdout}");
}

#[test]
fn analyze_prints_policies() {
    let dir = scratch();
    let rt = write_temp(&dir, "rt2.jir", RUNTIME);
    let a = write_temp(&dir, "a2.jir", CHECKED);
    let out = spo(&["analyze", rt.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("api.W.write"), "{stdout}");
    assert!(stdout.contains("checkWrite"), "{stdout}");
}

#[test]
fn diff_detects_missing_check_and_sets_exit_code() {
    let dir = scratch();
    let rt = write_temp(&dir, "rt3.jir", RUNTIME);
    let a = write_temp(&dir, "a3.jir", CHECKED);
    let b = write_temp(&dir, "b3.jir", UNCHECKED);
    let out = spo(&[
        "diff",
        rt.to_str().unwrap(),
        a.to_str().unwrap(),
        "--vs",
        rt.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    // Differences found => exit code 1.
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("checkWrite"), "{stdout}");
    assert!(stdout.contains("1 distinct difference"), "{stdout}");
}

#[test]
fn diff_of_identical_implementations_is_clean() {
    let dir = scratch();
    let rt = write_temp(&dir, "rt4.jir", RUNTIME);
    let a = write_temp(&dir, "a4.jir", CHECKED);
    let out = spo(&[
        "diff",
        rt.to_str().unwrap(),
        a.to_str().unwrap(),
        "--vs",
        rt.to_str().unwrap(),
        a.to_str().unwrap(),
    ]);
    assert!(out.status.success());
}

#[test]
fn export_then_diff_policies_matches_direct_diff() {
    let dir = scratch();
    // The §8 workflow: each vendor exports its policies to an index; anyone
    // can difference the two indexes without any source code, and gets
    // the report the source-level diff prints.
    let rt = write_temp(&dir, "rt5.jir", RUNTIME);
    let a = write_temp(&dir, "a5.jir", CHECKED);
    let b = write_temp(&dir, "b5.jir", UNCHECKED);
    let export = |name: &str, file: &PathBuf| {
        let spi = dir.join(format!("exchange-{name}.spi"));
        let out = spo(&[
            "export",
            rt.to_str().unwrap(),
            file.to_str().unwrap(),
            "--name",
            name,
            "--out",
            spi.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        spi
    };
    let left = export("left", &a);
    let right = export("right", &b);
    let indexed = spo(&[
        "index",
        "diff",
        left.to_str().unwrap(),
        right.to_str().unwrap(),
    ]);
    let direct = spo(&[
        "diff",
        rt.to_str().unwrap(),
        a.to_str().unwrap(),
        "--vs",
        rt.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert_eq!(direct.status.code(), Some(1));
    assert_eq!(indexed.status.code(), direct.status.code());
    assert_eq!(indexed.stdout, direct.stdout);
    // The check sits in the entry method itself, so the intraprocedural
    // ablation finds it too: the index carries that ablation.
    let stdout = String::from_utf8_lossy(&indexed.stdout);
    assert!(stdout.contains("intraprocedural cause"), "{stdout}");
}

/// The ablation's origin clause: the full diff differs at `api.C.a` only,
/// under the key `checkRead|api.C.b`, and the intraprocedural ablation
/// finds that key at `api.C.b`, a root that does not differ in the full
/// diff. Analysing only the differing roots would label the group
/// interprocedural; `spo diff` analyses `b` in both libraries (the two
/// ablation roots in `--stats`) and agrees with `spo index diff`, whose
/// indexes carry whole-library ablations.
#[test]
fn ablation_covers_roots_named_by_an_origin() {
    let dir = scratch();
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let jdk = fixtures.join("origin_clause_jdk.jir");
    let harmony = fixtures.join("origin_clause_harmony.jir");
    let (jdk, harmony) = (jdk.to_str().unwrap(), harmony.to_str().unwrap());
    let direct = spo(&["diff", jdk, "--vs", harmony, "--stats"]);
    assert_eq!(direct.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&direct.stdout);
    assert!(
        stdout.contains("(1 manifestations, intraprocedural cause)"),
        "{stdout}"
    );
    assert!(stdout.contains("implicated methods: api.C.b\n"), "{stdout}");
    assert!(
        stdout.contains("e.g. api.C.a(java.lang.String)\n"),
        "{stdout}"
    );
    let stderr = String::from_utf8_lossy(&direct.stderr);
    assert!(
        stderr.contains("engine.ablation.roots       2\n"),
        "{stderr}"
    );

    let export = |file: &str, name: &str| {
        let spi = dir.join(format!("origin-clause-{name}.spi"));
        let out = spo(&[
            "export",
            file,
            "--name",
            name,
            "--out",
            spi.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{out:?}");
        spi
    };
    let (left, right) = (export(jdk, "left"), export(harmony, "right"));
    let indexed = spo(&[
        "index",
        "diff",
        left.to_str().unwrap(),
        right.to_str().unwrap(),
    ]);
    assert_eq!(indexed.status.code(), Some(1));
    assert_eq!(indexed.stdout, direct.stdout);
}

/// `spo export` needs an output path and refuses `--intra-only` (an index
/// always holds both analyses); both are usage errors naming the flag.
#[test]
fn export_requires_out_and_refuses_intra_only() {
    let dir = scratch();
    let f = write_temp(&dir, "export-flags.jir", CHECKED);
    let path = f.to_str().unwrap();
    let spi = dir.join("export-flags.spi");
    for (flag, args) in [
        ("--out", vec!["export", path]),
        (
            "--intra-only",
            vec![
                "export",
                path,
                "--out",
                spi.to_str().unwrap(),
                "--intra-only",
            ],
        ),
    ] {
        let out = spo(&args);
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{stderr}");
    }
    assert!(!spi.exists(), "a refused export writes no index");
}

#[test]
fn jobs_flag_does_not_change_output() {
    let dir = scratch();
    let rt = write_temp(&dir, "rt7.jir", RUNTIME);
    let a = write_temp(&dir, "a7.jir", CHECKED);
    let base = spo(&["analyze", rt.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(base.status.success());
    for jobs in [&["--jobs", "1"][..], &["--jobs", "3"], &["--jobs=2"]] {
        let mut args = vec!["analyze", rt.to_str().unwrap(), a.to_str().unwrap()];
        args.extend_from_slice(jobs);
        let out = spo(&args);
        assert!(
            out.status.success(),
            "{jobs:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.stdout, base.stdout, "{jobs:?} changed the output");
    }
}

#[test]
fn jobs_flag_on_diff_and_bad_values() {
    let dir = scratch();
    let rt = write_temp(&dir, "rt8.jir", RUNTIME);
    let a = write_temp(&dir, "a8.jir", CHECKED);
    let b = write_temp(&dir, "b8.jir", UNCHECKED);
    let out = spo(&[
        "diff",
        "--jobs",
        "2",
        rt.to_str().unwrap(),
        a.to_str().unwrap(),
        "--vs",
        rt.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("checkWrite"));

    let out = spo(&["analyze", a.to_str().unwrap(), "--jobs", "zero"]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
    let out = spo(&["analyze", a.to_str().unwrap(), "--jobs"]);
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = spo(&["analyze", "/nonexistent/zzz.jir"]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn check_lint_flags_dangling_references() {
    let dir = scratch();
    let bad = write_temp(
        &dir,
        "bad.jir",
        "class A { method public void m() { staticinvoke gone.Class.f(); return; } }",
    );
    let out = spo(&["check", bad.to_str().unwrap(), "--lint"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("undeclared class"), "{stdout}");

    let good = write_temp(
        &dir,
        "good.jir",
        "class A { method public void m() { return; } }",
    );
    let out = spo(&["check", good.to_str().unwrap(), "--lint"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 lint finding(s)"));
}

#[test]
fn throws_subcommand_reports_exception_differences() {
    let dir = scratch();
    let thrower = write_temp(
        &dir,
        "thrower.jir",
        r#"
class err.Boom { }
class api.S {
  method public void act(bool ok) {
    local err.Boom e;
    if ok goto done;
    e = new err.Boom;
    throw e;
  done:
    return;
  }
}
"#,
    );
    let silent = write_temp(
        &dir,
        "silent.jir",
        r#"
class api.S {
  method public void act(bool ok) {
    return;
  }
}
"#,
    );
    let out = spo(&[
        "throws",
        thrower.to_str().unwrap(),
        "--vs",
        silent.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("err.Boom"), "{stdout}");
    // Identical sides: clean.
    let out = spo(&[
        "throws",
        thrower.to_str().unwrap(),
        "--vs",
        thrower.to_str().unwrap(),
    ]);
    assert!(out.status.success());
}

#[test]
fn diff_html_emits_escaped_document() {
    let dir = scratch();
    let rt = write_temp(&dir, "rt6.jir", RUNTIME);
    let a = write_temp(&dir, "a6.jir", CHECKED);
    let b = write_temp(&dir, "b6.jir", UNCHECKED);
    let out = spo(&[
        "diff",
        rt.to_str().unwrap(),
        a.to_str().unwrap(),
        "--vs",
        rt.to_str().unwrap(),
        b.to_str().unwrap(),
        "--html",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("<!DOCTYPE html>"), "{stdout}");
    assert!(stdout.contains("checkWrite"));
}

#[test]
fn stats_flag_prints_summary_without_changing_stdout() {
    let dir = scratch();
    let rt = write_temp(&dir, "rt9.jir", RUNTIME);
    let a = write_temp(&dir, "a9.jir", CHECKED);
    let base = spo(&["analyze", rt.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(base.status.success());
    let out = spo(&[
        "analyze",
        rt.to_str().unwrap(),
        a.to_str().unwrap(),
        "--stats",
    ]);
    assert!(out.status.success());
    assert_eq!(out.stdout, base.stdout, "--stats changed stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("spo stats"), "{stderr}");
    assert!(stderr.contains("jir.parse.stmts"), "{stderr}");
    assert!(stderr.contains("ispa.frames"), "{stderr}");
    assert!(stderr.contains("store.entries"), "{stderr}");
}

#[test]
fn stats_json_is_schema_valid_and_validates_via_subcommand() {
    let dir = scratch();
    let rt = write_temp(&dir, "rt10.jir", RUNTIME);
    let a = write_temp(&dir, "a10.jir", CHECKED);
    let json_path = dir.join("analyze-stats.json");
    let out = spo(&[
        "analyze",
        rt.to_str().unwrap(),
        a.to_str().unwrap(),
        "--stats-json",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"schema\": \"spo-stats/1\""), "{json}");
    security_policy_oracle::obs::json::validate_stats(&json).expect("schema-valid snapshot");
    let out = spo(&["stats-validate", json_path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("valid spo-stats/1"));
}

#[test]
fn stats_validate_rejects_invalid_input() {
    let dir = scratch();
    let bad = write_temp(&dir, "bad-stats.json", "{\"schema\": \"nope/9\"}");
    let out = spo(&["stats-validate", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema"));
}

/// Acceptance: `spo diff --stats-json` on the committed Figure 1 examples
/// emits parse/fixpoint/ISPA timings plus cache counters, and the
/// deterministic sections are byte-identical across `--jobs 1` and
/// `--jobs 8`.
#[test]
fn diff_stats_json_deterministic_sections_match_across_jobs() {
    let dir = scratch();
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let jdk = manifest.join("examples/jir/figure1_jdk.jir");
    let harmony = manifest.join("examples/jir/figure1_harmony.jir");
    let run = |jobs: &str| {
        let json_path = dir.join(format!("diff-stats-{jobs}.json"));
        let out = spo(&[
            "diff",
            jdk.to_str().unwrap(),
            "--vs",
            harmony.to_str().unwrap(),
            "--jobs",
            jobs,
            "--stats-json",
            json_path.to_str().unwrap(),
        ]);
        // Figure 1's missing checkAccept is found => exit code 1.
        assert_eq!(out.status.code(), Some(1), "jobs {jobs}");
        std::fs::read_to_string(&json_path).unwrap()
    };
    let one = run("1");
    let eight = run("8");
    for json in [&one, &eight] {
        security_policy_oracle::obs::json::validate_stats(json).expect("valid snapshot");
        for field in [
            "jir.parse",
            "fixpoint.transfers",
            "ispa.root",
            "engine.analyze",
            "store.hits",
            "store.misses",
            "store.contended",
            "ispa.memo.hits",
        ] {
            assert!(json.contains(&format!("\"{field}\"")), "missing {field}");
        }
    }
    let deterministic = |src: &str| {
        let v = security_policy_oracle::obs::json::parse(src).unwrap();
        let obj = |k: &str| format!("{:?}", v.get(k));
        (obj("counters"), obj("histograms"))
    };
    assert_eq!(
        deterministic(&one),
        deterministic(&eight),
        "counters/histograms diverged between --jobs 1 and --jobs 8"
    );
}

// ---------------------------------------------------------------------------
// Degraded-mode robustness: exit code 2, restricted byte-identity, Ctrl-C.

/// A `deg.W` method with the standard checkWrite guard: small CFG, cheap
/// fixpoint, appears in `analyze` output.
fn checked_method(name: &str) -> String {
    format!(
        r#"
  method public void {name}(java.lang.String p) {{
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if sm == null goto go;
    virtualinvoke sm.checkWrite(p);
  go:
    staticinvoke deg.W.write0(p);
    return;
  }}"#
    )
}

/// Like [`checked_method`] but prefixed with a long chain of conditionals,
/// so its fixpoint solve takes far more worklist steps and a small
/// `--budget-steps` trips it while the small methods complete.
fn heavy_method(name: &str) -> String {
    let mut chain = String::new();
    for i in 0..12 {
        chain.push_str(&format!(
            "    if i == {i} goto a{i};\n  a{i}:\n    i = i + 1;\n"
        ));
    }
    format!(
        r#"
  method public void {name}(java.lang.String p) {{
    local java.lang.SecurityManager sm;
    local int i;
    i = 0;
{chain}    sm = staticinvoke java.lang.System.getSecurityManager();
    if sm == null goto go;
    virtualinvoke sm.checkWrite(p);
  go:
    staticinvoke deg.W.write0(p);
    return;
  }}"#
    )
}

/// Seven entry points: three to panic-inject, two to budget-trip, two
/// survivors.
fn degraded_fixture() -> String {
    let mut src = String::from(RUNTIME);
    src.push_str("class deg.W {");
    for n in ["panicky1", "panicky2", "panicky3"] {
        src.push_str(&checked_method(n));
    }
    for n in ["heavy1", "heavy2"] {
        src.push_str(&heavy_method(n));
    }
    for n in ["ok1", "ok2"] {
        src.push_str(&checked_method(n));
    }
    src.push_str("\n  method private static native void write0(java.lang.String p);\n}\n");
    src
}

/// Splits `analyze` stdout into per-entry blocks keyed by signature.
fn entry_blocks(stdout: &str) -> std::collections::BTreeMap<String, String> {
    let mut map = std::collections::BTreeMap::new();
    let mut cur: Option<(String, String)> = None;
    for line in stdout.lines() {
        if let Some(sig) = line.strip_prefix("entry ") {
            if let Some((k, v)) = cur.take() {
                map.insert(k, v);
            }
            cur = Some((sig.to_owned(), String::new()));
        } else if line.starts_with('#') {
            if let Some((k, v)) = cur.take() {
                map.insert(k, v);
            }
        } else if let Some((_, v)) = cur.as_mut() {
            v.push_str(line);
            v.push('\n');
        }
    }
    if let Some((k, v)) = cur {
        map.insert(k, v);
    }
    map
}

/// Acceptance: with panics injected into 3 of 7 entry points and a step
/// budget tripping 2 more, `spo analyze` exits 2, reports exactly 5
/// diagnostics on stderr, and the surviving roots' report blocks are
/// byte-identical to the clean run's — deterministically across
/// `--jobs 1/2/8`.
#[test]
fn degraded_analyze_exits_2_restricted_report_deterministic() {
    let dir = scratch();
    let f = write_temp(&dir, "degraded.jir", &degraded_fixture());
    let path = f.to_str().unwrap();
    let clean = spo(&["analyze", path]);
    assert!(
        clean.status.success(),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let clean_blocks = entry_blocks(&String::from_utf8_lossy(&clean.stdout));
    assert_eq!(clean_blocks.len(), 7, "{clean_blocks:?}");

    let run = |jobs: &str| {
        spo_chaos(
            PANIC_PANICKY,
            &["analyze", path, "--jobs", jobs, "--budget-steps", "8"],
        )
    };
    let base = run("1");
    assert_eq!(base.status.code(), Some(2), "degraded run exits 2");
    let stderr = String::from_utf8_lossy(&base.stderr);
    let warnings: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("warning"))
        .collect();
    assert_eq!(warnings.len(), 5, "{stderr}");
    assert_eq!(stderr.matches("panic:").count(), 3, "{stderr}");
    assert_eq!(stderr.matches("budget-steps:").count(), 2, "{stderr}");

    let degraded_blocks = entry_blocks(&String::from_utf8_lossy(&base.stdout));
    let surviving: Vec<&String> = degraded_blocks.keys().collect();
    assert_eq!(degraded_blocks.len(), 2, "{surviving:?}");
    for (sig, block) in &degraded_blocks {
        assert_eq!(
            Some(block),
            clean_blocks.get(sig),
            "surviving root {sig} diverged from the clean run"
        );
    }
    for jobs in ["2", "8"] {
        let out = run(jobs);
        assert_eq!(out.status.code(), Some(2), "jobs {jobs}");
        assert_eq!(out.stdout, base.stdout, "jobs {jobs} changed the report");
    }
}

/// A degraded run's `--stats-json` snapshot carries the diagnostics
/// section and still passes `spo stats-validate`.
#[test]
fn degraded_stats_json_validates() {
    let dir = scratch();
    let f = write_temp(&dir, "degraded-stats.jir", &degraded_fixture());
    let json_path = dir.join("degraded-stats.json");
    let out = spo_chaos(
        PANIC_PANICKY,
        &[
            "analyze",
            f.to_str().unwrap(),
            "--stats-json",
            json_path.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"diagnostics\""), "{json}");
    assert!(json.contains("guard.roots_degraded"), "{json}");
    assert!(json.contains("\"cause\": \"panic\""), "{json}");
    let out = spo(&["stats-validate", json_path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A file with one malformed method still analyzes: the member is dropped
/// with a parse diagnostic, everything else is reported, exit code 2.
#[test]
fn parse_recovery_degrades_instead_of_failing() {
    let dir = scratch();
    let src = format!(
        "{RUNTIME}\nclass deg.W {{{}\n  method public void broken(java.lang.String p) {{\n    p = = nonsense;\n  }}{}\n  method private static native void write0(java.lang.String p);\n}}\n",
        checked_method("ok1"),
        checked_method("ok2"),
    );
    let f = write_temp(&dir, "recovered.jir", &src);
    let out = spo(&["analyze", f.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning [parse]"), "{stderr}");
    assert!(stderr.contains("dropped method"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("deg.W.ok1"), "{stdout}");
    assert!(stdout.contains("deg.W.ok2"), "{stdout}");
}

/// With two input files, the snapshot's parse diagnostic is the stderr
/// line's diagnostic: same severity, and a root that names the file.
#[test]
fn parse_diagnostic_in_stats_json_names_the_file() {
    let dir = scratch();
    let good = write_temp(&dir, "two-files-good.jir", &format!("{RUNTIME}{CHECKED}"));
    let bad = write_temp(
        &dir,
        "two-files-bad.jir",
        "class deg.X {\n  method public void broken(java.lang.String p) {\n    p = = nonsense;\n  }\n}\n",
    );
    let json_path = dir.join("two-files-stats.json");
    let out = spo(&[
        "analyze",
        good.to_str().unwrap(),
        bad.to_str().unwrap(),
        "--stats-json",
        json_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let root = format!("{}:3:9", bad.display());
    let line =
        format!("warning [parse] {root}: parse: expected operand, found `=` (dropped method)");
    assert!(stderr.lines().any(|l| l == line), "{stderr}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    let record = format!(
        "{{ \"severity\": \"warning\", \"phase\": \"parse\", \"root\": \"{root}\", \"cause\": \"parse\", \"message\": \"expected operand, found `=` (dropped method)\" }}"
    );
    assert!(json.contains(&record), "{json}");
    assert_eq!(json.matches("\"phase\": \"parse\"").count(), 1, "{json}");
}

/// Ctrl-C mid-run: the workers drain, the partial report and a
/// schema-valid stats snapshot are still written, exit code 2.
#[cfg(unix)]
#[test]
fn sigint_yields_partial_report_and_valid_stats() {
    let dir = scratch();
    use std::process::Stdio;
    let f = write_temp(&dir, "sigint.jir", &degraded_fixture());
    let json_path = dir.join("sigint-stats.json");
    let child = Command::new(env!("CARGO_BIN_EXE_spo"))
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--jobs",
            "1",
            "--stats-json",
            json_path.to_str().unwrap(),
        ])
        .env("SPO_CHAOS", delay_every_root(300))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(450));
    let _ = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(2), "SIGINT completes degraded");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cancel"), "{stderr}");
    // The report and summary still reached stdout.
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("entry points"),
        "partial report missing"
    );
    let json = std::fs::read_to_string(&json_path).unwrap();
    security_policy_oracle::obs::json::validate_stats(&json).expect("schema-valid snapshot");
    assert!(json.contains("\"cause\": \"cancel\""), "{json}");
}

/// A service manager's `kill` (SIGTERM) behaves exactly like Ctrl-C: the
/// workers drain, the partial report is written, exit code 2.
#[cfg(unix)]
#[test]
fn sigterm_drains_like_sigint() {
    let dir = scratch();
    use std::process::Stdio;
    let f = write_temp(&dir, "sigterm.jir", &degraded_fixture());
    let child = Command::new(env!("CARGO_BIN_EXE_spo"))
        .args(["analyze", f.to_str().unwrap(), "--jobs", "1"])
        .env("SPO_CHAOS", delay_every_root(300))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(450));
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(2), "SIGTERM completes degraded");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cancel"), "{stderr}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("entry points"),
        "partial report missing"
    );
}

/// A zero budget is the guard-internal "unlimited" sentinel; passing it
/// on the command line used to be accepted and silently disabled the
/// requested limit. `--timeout-ms` (the `--deadline` alias matching the
/// serve protocol's `timeout_ms` field) gets the same rejection.
#[test]
fn zero_budgets_are_rejected() {
    let dir = scratch();
    let f = write_temp(&dir, "zero-budget.jir", CHECKED);
    for flag in ["--budget-steps", "--budget-frames", "--timeout-ms"] {
        let out = spo(&["analyze", f.to_str().unwrap(), flag, "0"]);
        assert_eq!(out.status.code(), Some(3), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{stderr}");
        assert!(stderr.contains("omit the flag for unlimited"), "{stderr}");
    }
}

/// A `--deadline` too far out for the clock used to panic (exit 101) while
/// computing the deadline instant; it now means no deadline, and the
/// report matches a run without the flag.
#[test]
fn unrepresentable_deadline_means_no_deadline() {
    let dir = scratch();
    let f = write_temp(&dir, "far-deadline.jir", CHECKED);
    let base = spo(&["analyze", f.to_str().unwrap()]);
    assert!(base.status.success());
    let out = spo(&["analyze", f.to_str().unwrap(), "--deadline", "1e19"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, base.stdout);
}

/// `--timeout-ms` works as a deadline on `analyze`/`diff`: a tiny timeout
/// over a slow (sleep-injected) run degrades with a deadline diagnostic.
#[test]
fn timeout_ms_aliases_the_deadline_budget() {
    let dir = scratch();
    let f = write_temp(&dir, "timeout-alias.jir", &degraded_fixture());
    let out = spo_chaos(
        &delay_every_root(100),
        &[
            "analyze",
            f.to_str().unwrap(),
            "--jobs",
            "1",
            "--timeout-ms",
            "1",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "{stderr}");
}

/// `check` and `throws` used to swallow unrecognized flags silently; now
/// they fail fast naming the flag, and `check` points guard flags at the
/// commands that actually run an analysis.
#[test]
fn unknown_flags_are_rejected_not_swallowed() {
    let dir = scratch();
    let f = write_temp(&dir, "unknown-flag.jir", CHECKED);
    let path = f.to_str().unwrap();

    let out = spo(&["check", path, "--frobnicate"]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--frobnicate"), "{stderr}");

    let out = spo(&["check", path, "--budget-steps", "5"]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--budget-steps"), "{stderr}");
    assert!(stderr.contains("no policy analysis"), "{stderr}");

    let out = spo(&["throws", path, "--wat", "--vs", path]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--wat"));

    // `--lint` is still accepted (exit 1 here is lint findings, not the
    // fatal flag-rejection exit).
    let out = spo(&["check", path, "--lint"]);
    assert_ne!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("lint finding"));
}

/// `--name=NAME` used to be swallowed by `export` (the report said
/// `library library`); both forms now name the exported library.
#[test]
fn export_name_equals_form_matches_space_form() {
    let dir = scratch();
    let f = write_temp(&dir, "export-name.jir", CHECKED);
    let path = f.to_str().unwrap();
    let spaced = dir.join("export-name-spaced.spi");
    let equals = dir.join("export-name-equals.spi");
    let run = spo(&[
        "export",
        path,
        "--name",
        "vendor-a",
        "--out",
        spaced.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "{run:?}");
    let run = spo(&[
        "export",
        path,
        "--name=vendor-a",
        "--out",
        equals.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "{run:?}");
    assert_eq!(
        std::fs::read(&equals).unwrap(),
        std::fs::read(&spaced).unwrap()
    );
    let out = spo(&[
        "index",
        "diff",
        spaced.to_str().unwrap(),
        equals.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("vendor-a vs vendor-a:"), "{stdout}");
}

/// `analyze` and `diff` take no `--name`: any `--name*` flag used to be
/// ignored (or, in the space form, read its value as an input file).
#[test]
fn analyze_and_diff_reject_flags_they_do_not_take() {
    let dir = scratch();
    let f = write_temp(&dir, "name-flags.jir", CHECKED);
    let path = f.to_str().unwrap();
    for (command, args) in [
        ("analyze", vec!["analyze", path, "--namespace"]),
        ("analyze", vec!["analyze", path, "--name", "foo"]),
        ("diff", vec!["diff", path, "--vs", path, "--name=x"]),
    ] {
        let out = spo(&args);
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag `--name"), "{stderr}");
        assert!(stderr.contains(&format!("for `{command}`")), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// A switch given `=VALUE` is a usage error; it used to run silently
/// without the switch, or report it as an unknown flag.
#[test]
fn switches_reject_values() {
    let dir = scratch();
    let f = write_temp(&dir, "switch-values.jir", CHECKED);
    let path = f.to_str().unwrap();
    for (flag, args) in [
        ("--lint", vec!["check", path, "--lint=1"]),
        ("--stats", vec!["check", path, "--stats=1"]),
        ("--html", vec!["diff", path, "--vs", path, "--html=1"]),
    ] {
        let out = spo(&args);
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} takes no value")),
            "{stderr}"
        );
    }
}

/// `spo analyze ... | head -1`: when the reader hangs up after one line,
/// the analysis must exit with its verdict, not die on SIGPIPE or panic
/// on the failed stdout write. The child writes a report much larger than
/// the pipe buffer consumes, so the broken pipe genuinely fires.
#[test]
#[cfg(unix)]
fn broken_stdout_pipe_exits_quietly() {
    let dir = scratch();
    use std::io::Read;
    // A program wide enough that its report overflows a pipe the reader
    // abandoned: many classes, each an entry point with a policy.
    let mut src = String::from(RUNTIME);
    for i in 0..400 {
        src.push_str(&format!(
            r#"
class pipe.C{i} {{
  method public void write(java.lang.String p) {{
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkWrite(p);
    staticinvoke pipe.C{i}.op();
    return;
  }}
  method private static native void op();
}}
"#
        ));
    }
    let big = write_temp(&dir, "broken_pipe_big.jir", &src);
    let mut child = Command::new(env!("CARGO_BIN_EXE_spo"))
        .arg("analyze")
        .arg(&big)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn");
    // Read one byte, then hang up — everything the child writes after the
    // pipe buffer drains raises EPIPE/BrokenPipe at its end.
    let mut stdout = child.stdout.take().expect("stdout piped");
    let mut one = [0u8; 1];
    stdout.read_exact(&mut one).expect("first byte");
    drop(stdout);
    let status = child.wait().expect("child exits");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(
        status.code(),
        Some(0),
        "broken pipe is a quiet success, got {status:?}: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "no panic on the broken pipe: {stderr}"
    );
}

#[test]
fn failed_export_index_keeps_the_previous_index() {
    let dir = scratch();
    let rt = write_temp(&dir, "export-rt.jir", RUNTIME);
    let a = write_temp(&dir, "export-a.jir", CHECKED);
    let out_dir = dir.join("out");
    std::fs::create_dir_all(&out_dir).unwrap();
    let out = out_dir.join("policies.spi");
    let export = |chaos: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_spo"));
        cmd.arg("export").arg(&rt).arg(&a).arg("--out").arg(&out);
        match chaos {
            Some(spec) => cmd.env("SPO_CHAOS", spec),
            None => cmd.env_remove("SPO_CHAOS"),
        };
        cmd.output().expect("spo binary runs")
    };
    let first = export(None);
    assert!(first.status.success(), "{first:?}");
    let good = std::fs::read(&out).unwrap();

    // Every rename attempt fails: the export is an error, and the index
    // already at the path is left byte-identical (no truncation, no temp
    // file left behind).
    let failed = export(Some("seed=1,sites=cache.rename.fail:1.0"));
    assert_eq!(failed.status.code(), Some(3), "{failed:?}");
    assert_eq!(std::fs::read(&out).unwrap(), good);
    let names: Vec<_> = std::fs::read_dir(&out_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, ["policies.spi"]);
}
