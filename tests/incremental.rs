//! End-to-end tests of the persistent summary cache (`--cache-dir`):
//! warm runs are byte-identical to cold runs, a single-method edit only
//! re-analyzes the cones that contain it, and a corrupt or stale cache
//! degrades to a cold run with a warning — never a changed report or
//! exit code.

use spo_guard::TempDir;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn spo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spo"))
        .args(args)
        .output()
        .expect("spo binary runs")
}

/// A fresh scratch directory per test so parallel tests never share a
/// cache or fixture; removed when the test ends.
fn scratch(tag: &str) -> TempDir {
    TempDir::new(&format!("spo-incremental-{tag}")).unwrap()
}

fn write(dir: &Path, name: &str, content: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path.to_str().unwrap().to_owned()
}

/// Multi-class fixture: three API classes with disjoint call cones below
/// the shared `getSecurityManager` helper.
const FIXTURE: &str = r#"
class java.lang.SecurityManager {
  method public native void checkRead(java.lang.String file);
  method public native void checkWrite(java.lang.String file);
  method public native void checkConnect(java.lang.String host);
}
class java.lang.System {
  field static java.lang.SecurityManager security;
  method public static java.lang.SecurityManager getSecurityManager() {
    local java.lang.SecurityManager sm;
    sm = java.lang.System.security;
    return sm;
  }
}
class api.Files {
  method public void read(java.lang.String p) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead(p);
    staticinvoke api.Files.read0(p);
    return;
  }
  method public void write(java.lang.String p) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkWrite(p);
    staticinvoke api.Files.write0(p);
    return;
  }
  method private static native void read0(java.lang.String p);
  method private static native void write0(java.lang.String p);
}
class api.Net {
  method public void connect(java.lang.String host) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkConnect(host);
    staticinvoke api.Net.open0(host);
    return;
  }
  method private static native void open0(java.lang.String host);
}
"#;

/// The same fixture with a body-only edit to `api.Net.connect` (the
/// check is dropped): `api.Files`' cones are untouched.
const FIXTURE_EDITED: &str = r#"
class java.lang.SecurityManager {
  method public native void checkRead(java.lang.String file);
  method public native void checkWrite(java.lang.String file);
  method public native void checkConnect(java.lang.String host);
}
class java.lang.System {
  field static java.lang.SecurityManager security;
  method public static java.lang.SecurityManager getSecurityManager() {
    local java.lang.SecurityManager sm;
    sm = java.lang.System.security;
    return sm;
  }
}
class api.Files {
  method public void read(java.lang.String p) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead(p);
    staticinvoke api.Files.read0(p);
    return;
  }
  method public void write(java.lang.String p) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkWrite(p);
    staticinvoke api.Files.write0(p);
    return;
  }
  method private static native void read0(java.lang.String p);
  method private static native void write0(java.lang.String p);
}
class api.Net {
  method public void connect(java.lang.String host) {
    staticinvoke api.Net.open0(host);
    return;
  }
  method private static native void open0(java.lang.String host);
}
"#;

/// The cache's single pack file (`policies.spc`), if present.
fn pack_file(dir: &Path) -> Option<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "spc"))
        .collect();
    files.sort();
    assert!(files.len() <= 1, "expected one pack file: {files:?}");
    files.pop()
}

#[test]
fn warm_analyze_is_byte_identical_to_cold() {
    let dir = scratch("warm-analyze");
    let fixture = write(&dir, "api.jir", FIXTURE);
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();

    let cold = spo(&["analyze", &fixture, "--cache-dir", cache]);
    assert!(cold.status.success(), "{cold:?}");
    assert!(pack_file(&PathBuf::from(cache)).is_some());

    let warm = spo(&["analyze", &fixture, "--cache-dir", cache]);
    assert_eq!(warm.status.code(), cold.status.code());
    assert_eq!(warm.stdout, cold.stdout, "warm stdout diverged from cold");
    assert_eq!(warm.stderr, cold.stderr);

    // And both match a run with the cache disabled entirely.
    let off = spo(&["analyze", &fixture, "--cache-dir", cache, "--no-cache"]);
    assert_eq!(off.stdout, cold.stdout);
}

#[test]
fn warm_export_is_byte_identical_and_edit_changes_only_its_root() {
    let dir = scratch("warm-export");
    let fixture = write(&dir, "api.jir", FIXTURE);
    let edited = write(&dir, "api-edited.jir", FIXTURE_EDITED);
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    // Exports `jir` to `<tag>.spi`, through the cache unless it is `None`,
    // and returns the index bytes.
    let export = |jir: &str, tag: &str, cache: Option<&str>| {
        let out = dir.join(format!("{tag}.spi"));
        let mut args = vec![
            "export",
            jir,
            "--name",
            "api",
            "--out",
            out.to_str().unwrap(),
        ];
        args.extend(cache.iter().flat_map(|c| ["--cache-dir", c]));
        let run = spo(&args);
        assert!(run.status.success(), "{tag}: {run:?}");
        (
            out.to_str().unwrap().to_owned(),
            std::fs::read(&out).unwrap(),
        )
    };

    let (cold_spi, cold) = export(&fixture, "cold", Some(cache));
    let (_, warm) = export(&fixture, "warm", Some(cache));
    assert_eq!(warm, cold, "warm index diverged from cold");
    let (_, uncached) = export(&fixture, "uncached", None);
    assert_eq!(uncached, cold, "cached index diverged from an uncached one");

    // A warm run over the edited program equals its own cold run: the
    // cache never leaks a stale policy into the edited root's entry.
    let (_, edited_cold) = export(&edited, "edited-cold", None);
    let (edited_spi, edited_warm) = export(&edited, "edited-warm", Some(cache));
    assert_eq!(edited_warm, edited_cold);
    assert_ne!(edited_warm, cold, "the edit must change the index");

    // Only the edited root's policy block changes across versions.
    let query = |spi: &str, sig: &str| spo(&["index", "query", sig, "--index", spi]).stdout;
    for sig in [
        "api.Files.read(java.lang.String)",
        "api.Files.write(java.lang.String)",
    ] {
        let block = query(&cold_spi, sig);
        assert!(!block.is_empty(), "{sig} has checks");
        assert_eq!(block, query(&edited_spi, sig), "{sig}");
    }
    let connect = "api.Net.connect(java.lang.String)";
    assert_ne!(query(&cold_spi, connect), query(&edited_spi, connect));
}

#[test]
fn warm_diff_is_byte_identical_to_cold() {
    let dir = scratch("warm-diff");
    let fixture = write(&dir, "api.jir", FIXTURE);
    let edited = write(&dir, "api-edited.jir", FIXTURE_EDITED);
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();

    let run = || spo(&["diff", &fixture, "--vs", &edited, "--cache-dir", cache]);
    let cold = run();
    // The edited side dropped a check: findings, exit 1.
    assert_eq!(cold.status.code(), Some(1), "{cold:?}");
    let warm = run();
    assert_eq!(warm.status.code(), Some(1));
    assert_eq!(warm.stdout, cold.stdout);
    assert_eq!(warm.stderr, cold.stderr);
}

#[test]
fn corrupt_cache_degrades_to_cold_run_without_changing_results() {
    let dir = scratch("corrupt");
    let fixture = write(&dir, "api.jir", FIXTURE);
    let cache_dir = dir.join("cache");
    let cache = cache_dir.to_str().unwrap();

    let cold = spo(&["analyze", &fixture, "--cache-dir", cache]);
    assert!(cold.status.success(), "{cold:?}");
    let pack = pack_file(&cache_dir).expect("populated cache has a pack file");
    let good = std::fs::read(&pack).unwrap();
    assert!(good.starts_with(b"spo-index "), "unexpected pack header");
    let mut bumped = good.clone();
    bumped[b"spo-index ".len()] = b'9'; // version digit

    // Mangle the pack every way it can break: garbage, truncation
    // mid-entry, a format-version bump, and an empty file.
    let mangles: [&[u8]; 4] = [
        b"not a cache pack at all",
        &good[..good.len() / 2],
        &bumped,
        b"",
    ];
    for (i, bad) in mangles.iter().enumerate() {
        std::fs::write(&pack, bad).unwrap();
        let mangled = spo(&["analyze", &fixture, "--cache-dir", cache]);
        // Same report, same exit code — a broken cache is never a
        // degraded analysis, only a warning.
        assert_eq!(
            mangled.status.code(),
            cold.status.code(),
            "case {i}: {mangled:?}"
        );
        assert_eq!(mangled.stdout, cold.stdout, "case {i}");
        let stderr = String::from_utf8_lossy(&mangled.stderr);
        assert!(
            stderr.contains("cache"),
            "case {i}: no cache diagnostic: {stderr}"
        );

        // The run rewrote the pack from its cold results; a further warm
        // run is clean again.
        let healed = spo(&["analyze", &fixture, "--cache-dir", cache]);
        assert_eq!(healed.stdout, cold.stdout, "case {i}");
        assert_eq!(healed.stderr, cold.stderr, "case {i}: cache did not heal");
    }
}

#[test]
fn corrupt_cache_preserves_findings_exit_code_in_diff() {
    let dir = scratch("corrupt-diff");
    let fixture = write(&dir, "api.jir", FIXTURE);
    let edited = write(&dir, "api-edited.jir", FIXTURE_EDITED);
    let cache_dir = dir.join("cache");
    let cache = cache_dir.to_str().unwrap();

    let run = || spo(&["diff", &fixture, "--vs", &edited, "--cache-dir", cache]);
    let cold = run();
    assert_eq!(cold.status.code(), Some(1));
    // A diff writes one file per library and options set: corrupt them all.
    let files: Vec<PathBuf> = std::fs::read_dir(&cache_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "spc"))
        .collect();
    assert_eq!(files.len(), 4, "{files:?}");
    for file in files {
        std::fs::write(file, "garbage").unwrap();
    }
    let mangled = run();
    // Findings exit (1), not degraded (2): the report is still exact.
    assert_eq!(mangled.status.code(), Some(1), "{mangled:?}");
    assert_eq!(mangled.stdout, cold.stdout);
    assert!(String::from_utf8_lossy(&mangled.stderr).contains("cache"));
}

#[test]
fn cache_subcommand_reports_and_clears() {
    let dir = scratch("subcommand");
    let fixture = write(&dir, "api.jir", FIXTURE);
    let cache_dir = dir.join("cache");
    let cache = cache_dir.to_str().unwrap();

    let out = spo(&["analyze", &fixture, "--cache-dir", cache]);
    assert!(out.status.success());

    let stats = spo(&["cache", "stats", "--cache-dir", cache]);
    assert!(stats.status.success(), "{stats:?}");
    let text = String::from_utf8_lossy(&stats.stdout).to_string();
    // "<dir>: N entries, M bytes" — one entry per analyzed root.
    let entries: usize = text
        .split(": ")
        .nth(1)
        .and_then(|t| t.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable stats line: {text}"));
    assert!(entries >= 3, "expected one entry per root: {text}");

    let clear = spo(&["cache", "clear", "--cache-dir", cache]);
    assert!(clear.status.success(), "{clear:?}");
    let text = String::from_utf8_lossy(&clear.stdout);
    assert!(
        text.contains(&format!("removed {entries} entries")),
        "{text}"
    );
    assert!(pack_file(&cache_dir).is_none());

    let stats = spo(&["cache", "stats", "--cache-dir", cache]);
    assert!(String::from_utf8_lossy(&stats.stdout).contains("0 entries"));
}

#[test]
fn cache_subcommand_requires_dir_and_known_action() {
    let missing = spo(&["cache", "stats"]);
    assert_eq!(missing.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--cache-dir"));

    let dir = scratch("bad-action");
    let unknown = spo(&["cache", "frob", "--cache-dir", dir.to_str().unwrap()]);
    assert_eq!(unknown.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown action"));
}
