//! End-to-end tests of the exported policy index (`spo export` /
//! `spo index`, DESIGN.md §16). The standing contract:
//! query and diff output is byte-identical to the full-analysis path for
//! every entry point, and every corruption mode degrades to a typed
//! fatal error (exit 3, empty stdout) — never a wrong answer.

use spo_core::{render_analysis, render_entry, AnalysisOptions};
use spo_engine::AnalysisEngine;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/jir")
        .join(name)
}

fn spo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spo"))
        .args(args)
        .output()
        .expect("spo binary runs")
}

/// Scratch directory removed on drop, so a failing test never leaks it.
struct Workdir(PathBuf);

impl Workdir {
    fn new(tag: &str) -> Workdir {
        let dir = std::env::temp_dir().join(format!("spo-index-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("workdir");
        Workdir(dir)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `spo export` over one fixture, returning the `.spi` path.
fn export(dir: &Workdir, name: &str, jir: &Path) -> PathBuf {
    let out = dir.path(&format!("{name}.spi"));
    let run = spo(&[
        "export",
        jir.to_str().unwrap(),
        "--name",
        name,
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(
        run.status.code(),
        Some(0),
        "export succeeds: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    out
}

/// The full listing (`spo index query` with no signature) and every
/// single-entry query must reproduce the analysis path byte-for-byte.
#[test]
fn cli_query_is_byte_identical_to_analyze() {
    let jdk = fixture("figure1_jdk.jir");
    let dir = Workdir::new("cli-query");
    let spi = export(&dir, "lib", &jdk);

    let analyze = spo(&["analyze", jdk.to_str().unwrap()]);
    assert!(analyze.status.success());
    let listing = spo(&["index", "query", "--index", spi.to_str().unwrap()]);
    assert_eq!(listing.status.code(), Some(0));
    assert_eq!(
        listing.stdout, analyze.stdout,
        "full listing matches `spo analyze` bytes"
    );

    // Per-entry: each `entry <sig>` section of the listing (up to the
    // next section or the `#` footer), queried individually, returns
    // exactly that section.
    let text = String::from_utf8(analyze.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut queried = 0;
    for (i, line) in lines.iter().enumerate() {
        let Some(sig) = line.strip_prefix("entry ") else {
            continue;
        };
        let mut want = String::new();
        for l in &lines[i..] {
            if !want.is_empty() && (l.starts_with("entry ") || l.starts_with('#')) {
                break;
            }
            want.push_str(l);
            want.push('\n');
        }
        let one = spo(&["index", "query", sig, "--index", spi.to_str().unwrap()]);
        assert_eq!(one.status.code(), Some(0), "query {sig}");
        assert_eq!(
            String::from_utf8(one.stdout).unwrap(),
            want,
            "single query for {sig} matches its listing section"
        );
        queried += 1;
    }
    assert!(queried > 0, "fixture has entries with checks");
}

/// `spo index diff` over two compiled indexes prints the same report and
/// exit code as `spo diff` over the source programs.
#[test]
fn cli_diff_is_byte_identical_to_full_diff() {
    let jdk = fixture("figure1_jdk.jir");
    let harmony = fixture("figure1_harmony.jir");
    let dir = Workdir::new("cli-diff");
    // `spo diff` names its sides "left" and "right"; exporting under the
    // same names keeps the rendered report identical.
    let left = export(&dir, "left", &jdk);
    let right = export(&dir, "right", &harmony);

    let full = spo(&[
        "diff",
        jdk.to_str().unwrap(),
        "--vs",
        harmony.to_str().unwrap(),
    ]);
    assert_eq!(full.status.code(), Some(1), "figure 1 has findings");
    let indexed = spo(&[
        "index",
        "diff",
        left.to_str().unwrap(),
        right.to_str().unwrap(),
    ]);
    assert_eq!(indexed.status.code(), Some(1), "findings keep exit code 1");
    assert_eq!(
        indexed.stdout, full.stdout,
        "index diff matches `spo diff` bytes"
    );
}

/// Querying a signature the index does not hold is a typed fatal error
/// (exit 3), same contract as the daemon's not-found path.
#[test]
fn cli_query_unknown_entry_is_fatal() {
    let dir = Workdir::new("cli-missing");
    let spi = export(&dir, "lib", &fixture("figure1_jdk.jir"));
    let out = spo(&[
        "index",
        "query",
        "no.such.Class.method()",
        "--index",
        spi.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3));
    assert!(out.stdout.is_empty(), "no partial report");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("no entry point \"no.such.Class.method()\" in \"lib\""),
        "typed diagnostic names the signature and library: {err}"
    );
}

/// Diffing two indexes compiled under different analysis options is
/// refused — mixed options would make every reported difference suspect.
#[test]
fn cli_diff_rejects_mismatched_options() {
    let jdk = fixture("figure1_jdk.jir");
    let dir = Workdir::new("cli-mismatch");
    let narrow = export(&dir, "lib", &jdk);
    let broad = dir.path("broad.spi");
    let run = spo(&[
        "export",
        jdk.to_str().unwrap(),
        "--name",
        "lib",
        "--out",
        broad.to_str().unwrap(),
        "--broad",
    ]);
    assert_eq!(run.status.code(), Some(0));
    let out = spo(&[
        "index",
        "diff",
        narrow.to_str().unwrap(),
        broad.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("options mismatch"),
        "diagnostic names the mismatch"
    );
}

/// Four ways of damaging the `.spi` file — a flipped payload byte, a
/// mid-file truncation, a truncated trailing checksum, and a format
/// version bump — must each surface as the typed unusable-index error
/// with exit 3 and an empty stdout. Degraded, never wrong.
#[test]
fn corrupted_index_degrades_not_wrong() {
    let dir = Workdir::new("corrupt");
    let spi = export(&dir, "lib", &fixture("figure1_jdk.jir"));
    let clean = std::fs::read(&spi).expect("read index");
    let cases: [(&str, Vec<u8>); 4] = [
        ("flipped payload byte", {
            let mut b = clean.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x40;
            b
        }),
        ("mid-file truncation", clean[..clean.len() / 2].to_vec()),
        (
            "truncated trailing checksum",
            clean[..clean.len() - 3].to_vec(),
        ),
        ("format version bump", {
            let mut b = clean.clone();
            // Header is `spo-index 3\n`; bump the version digit.
            b[10] = b'9';
            b
        }),
    ];
    for (what, bytes) in cases {
        let bad = dir.path("bad.spi");
        std::fs::write(&bad, &bytes).expect("write damaged index");
        let out = spo(&["index", "query", "--index", bad.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(3), "{what}: fatal exit");
        assert!(out.stdout.is_empty(), "{what}: no partial report");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("the index is unusable"),
            "{what}: typed diagnostic suggests the fallback"
        );
    }
}

/// `export` refuses to bake a degraded analysis into a durable
/// file: a budget-tripped root would silently read as "no checks"
/// forever after.
#[test]
fn export_refuses_degraded_analysis() {
    let dir = Workdir::new("degraded");
    let out = dir.path("lib.spi");
    let run = spo(&[
        "export",
        fixture("figure1_jdk.jir").to_str().unwrap(),
        "--name",
        "lib",
        "--out",
        out.to_str().unwrap(),
        "--budget-steps",
        "1",
    ]);
    assert_eq!(run.status.code(), Some(3), "degraded export is fatal");
    assert!(!out.exists(), "no index file is left behind");
    assert!(
        String::from_utf8_lossy(&run.stderr).contains("degraded"),
        "diagnostic says why"
    );
}

/// In-process round trip at corpus scale 1: every entry point queried
/// from the parsed index renders byte-identically to the analysis-path
/// `render_entry`, and the full listing matches `render_analysis`.
#[test]
fn roundtrip_matches_analysis_rendering_at_scale_one() {
    let corpus = spo_corpus::generate(&spo_corpus::CorpusConfig::default());
    let program = corpus.program(spo_corpus::Lib::Jdk);
    let options = AnalysisOptions::default();
    let engine = AnalysisEngine::new(0);
    let (full, _) = engine.analyze_library(program, "jdk", options);
    let intra_options = AnalysisOptions {
        interprocedural: false,
        ..options
    };
    let (intra, _) = engine.analyze_library(program, "jdk", intra_options);
    let bytes = spo_index::IndexBuilder::new("jdk", &options, &full, &intra)
        .build()
        .expect("index builds");
    let index = spo_index::PolicyIndex::parse(&bytes).expect("index parses");
    assert_eq!(index.len(), full.entries.len(), "every entry point stored");
    for (sig, entry) in &full.entries {
        let got = index
            .query(sig)
            .expect("query decodes")
            .expect("entry point found");
        assert_eq!(got, render_entry(sig, entry), "round trip for {sig}");
    }
    assert_eq!(
        index.render_full().expect("listing decodes"),
        render_analysis(&full),
        "full listing matches render_analysis"
    );
}

/// Strided sample at paper scale 10 — ignored by default (takes tens of
/// seconds); CI and `--ignored` runs keep the large-scale contract.
#[test]
#[ignore = "paper-scale corpus; run explicitly with --ignored"]
fn roundtrip_strided_sample_at_scale_ten() {
    let corpus = spo_corpus::generate(&spo_corpus::CorpusConfig {
        scale: 10.0,
        ..Default::default()
    });
    let program = corpus.program(spo_corpus::Lib::Jdk);
    let options = AnalysisOptions::default();
    let engine = AnalysisEngine::new(0);
    let (full, _) = engine.analyze_library(program, "jdk", options);
    let (intra, _) = engine.analyze_library(
        program,
        "jdk",
        AnalysisOptions {
            interprocedural: false,
            ..options
        },
    );
    let bytes = spo_index::IndexBuilder::new("jdk", &options, &full, &intra)
        .build()
        .expect("index builds");
    let index = spo_index::PolicyIndex::parse(&bytes).expect("index parses");
    assert_eq!(index.len(), full.entries.len());
    // Prime-strided sample: cheap, yet covers the whole key range.
    for (sig, entry) in full.entries.iter().step_by(97) {
        let got = index
            .query(sig)
            .expect("query decodes")
            .expect("entry point found");
        assert_eq!(got, render_entry(sig, entry), "round trip for {sig}");
    }
}

/// `--stats`, `--stats-json` and `--trace-out` on `spo index query` and
/// `spo index diff` leave stdout and the exit code byte-identical, and
/// each observed run records one span per step: read, parse, decode, then
/// render (query) or diff.
#[test]
fn cli_observe_flags_leave_index_answers_unchanged() {
    let jdk = fixture("figure1_jdk.jir");
    let dir = Workdir::new("cli-observe");
    let left = export(&dir, "left", &jdk);
    let right = export(&dir, "right", &fixture("figure1_harmony.jir"));
    let (left, right) = (left.to_str().unwrap(), right.to_str().unwrap());
    let stats = dir.path("stats.json");
    let trace = dir.path("trace.json");
    let observe = [
        "--stats",
        "--stats-json",
        stats.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ];
    let cases: [(&[&str], Option<i32>, &str); 4] = [
        (&["index", "diff", left, right], Some(1), "index.diff"),
        (
            &["index", "query", "--index", left],
            Some(0),
            "index.render",
        ),
        (
            &[
                "index",
                "query",
                "java.net.DatagramSocket.connect(java.net.InetAddress,int)",
                "--index",
                left,
            ],
            Some(0),
            "index.render",
        ),
        (
            &["index", "query", "no.such.Class.method()", "--index", left],
            Some(3),
            "index.decode",
        ),
    ];
    for (args, code, last_span) in cases {
        let plain = spo(args);
        assert_eq!(plain.status.code(), code, "{args:?}");
        let observed = spo(&[args, &observe[..]].concat());
        assert_eq!(observed.status.code(), code, "{args:?} observed");
        assert_eq!(observed.stdout, plain.stdout, "{args:?}: stdout bytes");
        if code == Some(3) {
            continue;
        }
        assert!(!plain.stdout.is_empty(), "{args:?} answers");
        let stats = std::fs::read_to_string(&stats).expect("stats snapshot written");
        let trace = std::fs::read_to_string(&trace).expect("trace capture written");
        for span in ["index.read", "index.parse", "index.decode", last_span] {
            let quoted = format!("\"{span}\"");
            assert!(stats.contains(&quoted), "{args:?}: {span} in --stats-json");
            assert!(trace.contains(&quoted), "{args:?}: {span} in --trace-out");
        }
        let human = String::from_utf8_lossy(&observed.stderr);
        assert!(human.contains("index.decode"), "{args:?}: --stats: {human}");
    }
}
