//! End-to-end tests of the flight-recorder tracing surface: `--trace-out`
//! on the one-shot commands, the determinism boundary (report bytes are
//! byte-identical with tracing on or off, warm or cold, at any `--jobs`),
//! `stats-validate --schema spo-trace/1`, phase spans that land under one
//! name in both `--stats-json` and `--trace-out`, and the daemon's
//! per-request trace capture (`trace_id` round-trip, `spo trace`
//! retrieval).

use spo_guard::TempDir;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn spo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spo"))
        .args(args)
        .output()
        .expect("spo binary runs")
}

/// A fresh scratch directory per test, removed when the test ends.
fn scratch() -> TempDir {
    TempDir::new("spo-trace-tests").unwrap()
}

fn write_temp(dir: &Path, name: &str, content: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

/// A spawned daemon, killed and reaped on drop, so a failing test never
/// leaves it running.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

const RUNTIME: &str = r#"
class java.lang.SecurityManager {
  method public native void checkRead(java.lang.String file);
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

const API: &str = r#"
class api.F {
  method public void read(java.lang.String p) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if sm == null goto go;
    virtualinvoke sm.checkRead(p);
  go:
    staticinvoke api.F.read0(p);
    return;
  }
  method public void write(java.lang.String p) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if sm == null goto go;
    virtualinvoke sm.checkWrite(p);
  go:
    staticinvoke api.F.write0(p);
    return;
  }
  method private static native void read0(java.lang.String p);
  method private static native void write0(java.lang.String p);
}
"#;

#[test]
fn traced_analyze_emits_valid_trace_and_identical_report() {
    let dir = scratch();
    let rt = write_temp(&dir, "rt.jir", RUNTIME);
    let api = write_temp(&dir, "api.jir", API);
    let trace_path = dir.join("analyze.trace.json");
    let traced = spo(&[
        "analyze",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--jobs",
        "4",
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert!(traced.status.success(), "{traced:?}");
    let plain = spo(&[
        "analyze",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--jobs",
        "2",
    ]);
    assert!(plain.status.success());
    assert_eq!(
        traced.stdout, plain.stdout,
        "report bytes are identical with tracing on or off, at any --jobs"
    );
    let doc = std::fs::read_to_string(&trace_path).unwrap();
    spo_obs::json::validate_trace(&doc).expect("capture conforms to spo-trace/1");
    assert!(doc.contains("/main"), "main lane present");
    assert!(doc.contains("/worker00"), "one lane per engine worker");
    assert!(doc.contains("\"fixpoint\""), "dataflow spans present");
    // The versioned validator is also reachable through the CLI.
    let validated = spo(&[
        "stats-validate",
        "--schema",
        "spo-trace/1",
        trace_path.to_str().unwrap(),
    ]);
    assert!(validated.status.success(), "{validated:?}");
    // A trace document is not a stats snapshot; the default schema rejects it.
    let cross = spo(&["stats-validate", trace_path.to_str().unwrap()]);
    assert_eq!(cross.status.code(), Some(3));
}

#[test]
fn traced_diff_and_check_write_captures_without_touching_stdout() {
    let dir = scratch();
    let rt = write_temp(&dir, "rt2.jir", RUNTIME);
    let api = write_temp(&dir, "api2.jir", API);
    let diff_trace = dir.join("diff.trace.json");
    let traced = spo(&[
        "diff",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--vs",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--trace-out",
        diff_trace.to_str().unwrap(),
    ]);
    let plain = spo(&[
        "diff",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--vs",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
    ]);
    assert_eq!(traced.status.code(), plain.status.code());
    assert_eq!(traced.stdout, plain.stdout, "diff bytes undisturbed");
    let doc = std::fs::read_to_string(&diff_trace).unwrap();
    spo_obs::json::validate_trace(&doc).unwrap();
    assert!(doc.contains("left/"), "left analysis lanes");
    assert!(doc.contains("right/"), "right analysis lanes");

    // Stats and trace read one span tree: every `durations` key of
    // `check` is the name of a complete event in its capture.
    let check_stats = dir.join("check.stats.json");
    let check_trace = dir.join("check.trace.json");
    let checked = spo(&[
        "check",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--stats-json",
        check_stats.to_str().unwrap(),
        "--trace-out",
        check_trace.to_str().unwrap(),
    ]);
    assert!(checked.status.success(), "{checked:?}");
    let keys = duration_keys(&check_stats);
    assert!(
        keys.contains("jir.parse") && keys.contains("resolve.callgraph"),
        "{keys:?}"
    );
    let events = complete_event_names(&check_trace);
    assert!(keys.is_subset(&events), "{keys:?} not all in {events:?}");
}

#[test]
fn analyze_phase_spans_land_in_stats_and_trace() {
    let dir = scratch();
    let rt = write_temp(&dir, "rt4.jir", RUNTIME);
    let api = write_temp(&dir, "api4.jir", API);
    let stats = dir.join("analyze.stats.json");
    let trace = dir.join("analyze-phases.trace.json");
    let analyzed = spo(&[
        "analyze",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--stats-json",
        stats.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(analyzed.status.success(), "{analyzed:?}");
    let keys = duration_keys(&stats);
    let events = complete_event_names(&trace);
    for phase in ["jir.parse", "jir.cfg"] {
        assert!(keys.contains(phase), "{phase} missing from {keys:?}");
        assert!(events.contains(phase), "{phase} missing from {events:?}");
    }
}

/// The `durations` keys of a `spo-stats/1` snapshot file.
fn duration_keys(path: &Path) -> BTreeSet<String> {
    let doc = std::fs::read_to_string(path).unwrap();
    spo_obs::json::validate_stats(&doc).unwrap();
    let snap = spo_obs::json::parse(&doc).unwrap();
    let durations = snap.get("durations").and_then(|d| d.as_object()).unwrap();
    durations.keys().cloned().collect()
}

/// The names of the complete (`ph: "X"`) events in a `spo-trace/1` file.
fn complete_event_names(path: &Path) -> BTreeSet<String> {
    let doc = std::fs::read_to_string(path).unwrap();
    spo_obs::json::validate_trace(&doc).unwrap();
    let trace = spo_obs::json::parse(&doc).unwrap();
    let events = trace.get("traceEvents").and_then(|e| e.as_array()).unwrap();
    events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .map(str::to_owned)
        .collect()
}

#[test]
fn daemon_round_trips_trace_ids_and_serves_captures() {
    let dir = scratch();
    let rt = write_temp(&dir, "rt3.jir", RUNTIME);
    let api = write_temp(&dir, "api3.jir", API);
    let socket = dir.join("traced.sock");
    let load = format!("lib={},{}", rt.to_str().unwrap(), api.to_str().unwrap());
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_spo"))
            .args([
                "serve",
                "--socket",
                socket.to_str().unwrap(),
                "--no-cache",
                "--load",
                &load,
            ])
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("daemon starts"),
    );
    while !socket.exists() {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    let mut rpc = |line: &str| -> String {
        writeln!(stream, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_owned()
    };
    let traced = rpc(
        r#"{"spo-rpc":1,"id":1,"method":"analyze","params":{"name":"lib"},"trace_id":"e2e-1"}"#,
    );
    assert!(
        traced.contains(r#""status":"ok","trace_id":"e2e-1""#),
        "envelope echoes the client's trace id: {traced}"
    );
    let untraced = rpc(r#"{"spo-rpc":1,"id":2,"method":"analyze","params":{"name":"lib"}}"#);
    assert!(
        !untraced.contains("trace_id"),
        "untraced responses stay byte-compatible: {untraced}"
    );
    drop(stream);
    drop(reader);
    // Retrieval through the dedicated subcommand, written to a file.
    let out_path = dir.join("fetched.trace.json");
    let fetched = spo(&[
        "trace",
        "--socket",
        socket.to_str().unwrap(),
        "--trace-id",
        "e2e-1",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(fetched.status.success(), "{fetched:?}");
    let doc = std::fs::read_to_string(&out_path).unwrap();
    spo_obs::json::validate_trace(&doc).expect("fetched capture conforms to spo-trace/1");
    assert!(doc.contains("queue.wait"), "admission latency captured");
    // Unknown ids fail typed, through the same subcommand.
    let missing = spo(&[
        "trace",
        "--socket",
        socket.to_str().unwrap(),
        "--trace-id",
        "nope",
    ]);
    assert_eq!(missing.status.code(), Some(3));
    let bye = spo(&[
        "rpc",
        "--socket",
        socket.to_str().unwrap(),
        r#"{"spo-rpc":1,"id":9,"method":"shutdown"}"#,
    ]);
    assert!(bye.status.success(), "{bye:?}");
    let status = daemon.0.wait().expect("daemon drains");
    assert!(status.success());
}
