//! End-to-end tests of `spo serve`: a resident daemon on a Unix socket
//! must answer concurrent sessions with responses byte-identical to the
//! one-shot CLI, survive malformed requests, isolate over-budget work to
//! the requesting session, and drain cleanly on `shutdown`.

#![cfg(unix)]

use security_policy_oracle::obs::json::{parse, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

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

/// A running `spo serve` child plus its socket path. Shuts the daemon
/// down (and reaps the process) on drop so a failing test never leaks it.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

/// The socket path [`Daemon::start`] binds for `tag` — exposed so tests
/// can pre-plant state (e.g. a stale socket file) at the same path.
fn daemon_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spo-serve-test-{}-{tag}.sock", std::process::id()))
}

impl Daemon {
    fn start(tag: &str, extra: &[&str]) -> Daemon {
        Daemon::start_env(tag, extra, &[])
    }

    /// Like [`Daemon::start`], with extra environment variables for the
    /// daemon process (used to arm `SPO_CHAOS` fault plans). The socket
    /// file is deliberately NOT removed first: startup must handle
    /// whatever is already at the path.
    fn start_env(tag: &str, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let socket = daemon_socket(tag);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_spo"));
        cmd.arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let child = cmd.spawn().expect("daemon starts");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        Daemon {
            child: Some(child),
            socket,
        }
    }

    fn connect(&self) -> Session {
        let stream = UnixStream::connect(&self.socket).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Session { stream, reader }
    }

    /// Sends `shutdown`, waits for the daemon to exit, and returns its
    /// exit code.
    fn shutdown(mut self) -> i32 {
        let mut session = self.connect();
        let bye = session.rpc(r#"{"spo-rpc":1,"id":99,"method":"shutdown"}"#);
        assert_eq!(status(&bye), "ok");
        let mut child = self.child.take().unwrap();
        let code = child.wait().expect("daemon exits").code().unwrap_or(-1);
        assert!(!self.socket.exists(), "socket file removed on drain");
        code
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

struct Session {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Session {
    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").expect("send");
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "daemon closed the connection");
        parse(line.trim_end()).expect("valid response JSON")
    }

    fn rpc(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }
}

fn status(v: &Value) -> &str {
    v.get("status").and_then(Value::as_str).expect("status")
}

fn report(v: &Value) -> String {
    v.get("result")
        .and_then(|r| r.get("report"))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("response carries a report: {v:?}"))
        .to_owned()
}

fn load_line(id: u64, name: &str, path: &Path) -> String {
    format!(
        r#"{{"spo-rpc":1,"id":{id},"method":"load","params":{{"name":"{name}","paths":["{}"]}}}}"#,
        path.display()
    )
}

/// Warm daemon responses for `query` and `diff` embed exactly the bytes
/// the one-shot CLI prints for the same figure-1 fixtures.
#[test]
fn daemon_reports_are_byte_identical_to_one_shot_cli() {
    let jdk = fixture("figure1_jdk.jir");
    let harmony = fixture("figure1_harmony.jir");
    let cli_analyze = spo(&["analyze", jdk.to_str().unwrap()]);
    assert!(cli_analyze.status.success());
    let cli_analyze = String::from_utf8(cli_analyze.stdout).unwrap();
    // The CLI names diffed programs "left" and "right"; loading under the
    // same names keeps the rendered report identical.
    let cli_diff = spo(&[
        "diff",
        jdk.to_str().unwrap(),
        "--vs",
        harmony.to_str().unwrap(),
    ]);
    assert_eq!(cli_diff.status.code(), Some(1), "figure 1 has findings");
    let cli_diff = String::from_utf8(cli_diff.stdout).unwrap();

    let daemon = Daemon::start("byteid", &["--no-cache"]);
    let mut s = daemon.connect();
    assert_eq!(status(&s.rpc(&load_line(1, "left", &jdk))), "ok");
    assert_eq!(status(&s.rpc(&load_line(2, "right", &harmony))), "ok");
    let q = s.rpc(r#"{"spo-rpc":1,"id":3,"method":"query","params":{"name":"left"}}"#);
    assert_eq!(status(&q), "ok");
    assert_eq!(report(&q), cli_analyze, "analyze bytes match the CLI");
    let d =
        s.rpc(r#"{"spo-rpc":1,"id":4,"method":"diff","params":{"left":"left","right":"right"}}"#);
    assert_eq!(status(&d), "ok");
    assert_eq!(report(&d), cli_diff, "diff bytes match the CLI");
    assert_eq!(
        d.get("result")
            .and_then(|r| r.get("exit_code"))
            .and_then(Value::as_u64),
        Some(1),
        "daemon reports the CLI's would-be exit code"
    );
    assert_eq!(daemon.shutdown(), 0);
}

/// Eight concurrent sessions interleaving `query`, `diff`, and `stats`
/// all observe identical report bytes, matching the one-shot CLI.
#[test]
fn concurrent_sessions_get_identical_bytes() {
    let jdk = fixture("figure1_jdk.jir");
    let harmony = fixture("figure1_harmony.jir");
    let cli_analyze = String::from_utf8(spo(&["analyze", jdk.to_str().unwrap()]).stdout).unwrap();
    let cli_diff = String::from_utf8(
        spo(&[
            "diff",
            jdk.to_str().unwrap(),
            "--vs",
            harmony.to_str().unwrap(),
        ])
        .stdout,
    )
    .unwrap();

    let daemon = Daemon::start("concurrent", &["--workers", "4", "--no-cache"]);
    let mut warm = daemon.connect();
    assert_eq!(status(&warm.rpc(&load_line(1, "left", &jdk))), "ok");
    assert_eq!(status(&warm.rpc(&load_line(2, "right", &harmony))), "ok");

    let results: Vec<(Vec<String>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|client| {
                let daemon = &daemon;
                scope.spawn(move || {
                    let mut s = daemon.connect();
                    let mut queries = Vec::new();
                    let mut diffs = Vec::new();
                    for round in 0..3 {
                        let q = s.rpc(&format!(
                            r#"{{"spo-rpc":1,"id":{},"method":"query","params":{{"name":"left"}}}}"#,
                            client * 100 + round
                        ));
                        assert_eq!(status(&q), "ok");
                        queries.push(report(&q));
                        let d = s.rpc(&format!(
                            r#"{{"spo-rpc":1,"id":{},"method":"diff","params":{{"left":"left","right":"right"}}}}"#,
                            client * 100 + round + 50
                        ));
                        assert_eq!(status(&d), "ok");
                        diffs.push(report(&d));
                        let stats = s.rpc(r#"{"spo-rpc":1,"method":"stats"}"#);
                        assert_eq!(status(&stats), "ok");
                    }
                    (queries, diffs)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (queries, diffs) in &results {
        for q in queries {
            assert_eq!(q, &cli_analyze, "every query response matches the CLI");
        }
        for d in diffs {
            assert_eq!(d, &cli_diff, "every diff response matches the CLI");
        }
    }
    assert_eq!(daemon.shutdown(), 0);
}

/// Malformed traffic — garbage JSON, an unknown method, an oversized
/// line — gets a typed error and the session keeps working.
#[test]
fn malformed_requests_leave_the_session_alive() {
    let jdk = fixture("figure1_jdk.jir");
    let daemon = Daemon::start("malformed", &["--no-cache", "--max-line-bytes", "4096"]);
    let mut s = daemon.connect();
    assert_eq!(status(&s.rpc(&load_line(1, "lib", &jdk))), "ok");

    let kind = |v: &Value| {
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
            .map(str::to_owned)
            .expect("typed error kind")
    };
    let garbage = s.rpc("this is not json at all {{{");
    assert_eq!(status(&garbage), "error");
    assert_eq!(kind(&garbage), "parse");

    let unknown = s.rpc(r#"{"spo-rpc":1,"id":7,"method":"frobnicate"}"#);
    assert_eq!(status(&unknown), "error");
    assert_eq!(kind(&unknown), "unknown-method");
    assert_eq!(
        unknown.get("id").and_then(Value::as_u64),
        Some(7),
        "the id still correlates the error"
    );

    let oversized = s.rpc(&format!(
        r#"{{"spo-rpc":1,"id":8,"method":"query","params":{{"name":"{}"}}}}"#,
        "x".repeat(8192)
    ));
    assert_eq!(status(&oversized), "error");
    assert_eq!(kind(&oversized), "oversized");

    let missing = s.rpc(r#"{"spo-rpc":1,"id":9,"method":"query","params":{"name":"nope"}}"#);
    assert_eq!(status(&missing), "error");
    assert_eq!(kind(&missing), "not-found");

    let zero = s.rpc(r#"{"spo-rpc":1,"id":10,"method":"stats","timeout_ms":0}"#);
    assert_eq!(status(&zero), "error");
    assert_eq!(kind(&zero), "protocol");

    // The same session still serves real work after all of the above.
    let q = s.rpc(r#"{"spo-rpc":1,"id":11,"method":"query","params":{"name":"lib"}}"#);
    assert_eq!(status(&q), "ok");
    assert!(report(&q).contains("entry "));
    assert_eq!(daemon.shutdown(), 0);
}

/// A request exceeding its `timeout_ms` comes back `degraded` with typed
/// diagnostics while another session's warm queries stay `ok`.
#[test]
fn over_budget_requests_degrade_without_disturbing_other_sessions() {
    let jdk = fixture("figure1_jdk.jir");
    let harmony = fixture("figure1_harmony.jir");
    // Every governed root sleeps 200 ms, so a 1 ms admission deadline
    // reliably trips on cold analyses; warm lookups never run the engine
    // and cannot trip.
    let daemon = Daemon::start_env(
        "timeout",
        &["--no-cache", "--workers", "2"],
        &[("SPO_CHAOS", "seed=1,delay_ms=200,sites=engine.root.delay:1")],
    );
    let mut warm = daemon.connect();
    assert_eq!(status(&warm.rpc(&load_line(1, "left", &jdk))), "ok");
    assert_eq!(status(&warm.rpc(&load_line(2, "cold", &harmony))), "ok");
    // Warm "left" up without a timeout (the sleeps just make it slow).
    let a = warm.rpc(r#"{"spo-rpc":1,"id":3,"method":"analyze","params":{"name":"left"}}"#);
    assert_eq!(status(&a), "ok");

    let mut other = daemon.connect();
    let degraded = other
        .rpc(r#"{"spo-rpc":1,"id":4,"method":"analyze","params":{"name":"cold"},"timeout_ms":1}"#);
    assert_eq!(status(&degraded), "degraded");
    let diags = degraded
        .get("diagnostics")
        .and_then(|d| match d {
            Value::Array(items) => Some(items),
            _ => None,
        })
        .expect("degraded response carries diagnostics");
    assert!(!diags.is_empty());
    assert!(
        diags
            .iter()
            .any(|d| { d.get("cause").and_then(Value::as_str) == Some("deadline") }),
        "deadline cause surfaced: {degraded:?}"
    );
    assert_eq!(
        degraded
            .get("result")
            .and_then(|r| r.get("exit_code"))
            .and_then(Value::as_u64),
        Some(2),
        "degraded maps to the CLI's exit code 2"
    );

    // The degraded result never became the warm answer: the same request
    // without a deadline runs the engine again, from a fresh summary
    // store, and answers exactly what the one-shot CLI prints.
    let retried = other.rpc(r#"{"spo-rpc":1,"id":6,"method":"analyze","params":{"name":"cold"}}"#);
    assert_eq!(status(&retried), "ok", "{retried:?}");
    let cli = spo(&["analyze", harmony.to_str().unwrap()]);
    assert!(cli.status.success());
    assert_eq!(report(&retried), String::from_utf8(cli.stdout).unwrap());

    // The other session's warm program is untouched by the trip.
    let q = warm.rpc(r#"{"spo-rpc":1,"id":5,"method":"query","params":{"name":"left"}}"#);
    assert_eq!(status(&q), "ok");
    assert!(report(&q).contains("entry "));
    assert_eq!(daemon.shutdown(), 0);
}

/// `reload` picks up edited sources; with a persistent cache attached the
/// unchanged cone warm-starts (cache hits > 0) and queries serve the new
/// answer.
#[test]
fn reload_reanalyzes_edits_through_the_cache() {
    let dir = std::env::temp_dir().join(format!("spo-serve-test-{}-reload", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("lib.jir");
    std::fs::copy(fixture("figure1_jdk.jir"), &source).unwrap();
    let daemon = Daemon::start(
        "reload",
        &["--cache-dir", dir.join("cache").to_str().unwrap()],
    );
    let mut s = daemon.connect();
    assert_eq!(status(&s.rpc(&load_line(1, "lib", &source))), "ok");
    let before = report(&s.rpc(r#"{"spo-rpc":1,"id":2,"method":"query","params":{"name":"lib"}}"#));
    // Drop one check from one method body. The program's structure (class
    // set, signatures) is unchanged, so every root whose cone avoids the
    // edited method re-keys successfully and warm-starts from the cache.
    let edited = std::fs::read_to_string(&source)
        .unwrap()
        .replace("    virtualinvoke sm.checkAccept(host, port);\n", "");
    std::fs::write(&source, edited).unwrap();
    let reloaded = s.rpc(r#"{"spo-rpc":1,"id":3,"method":"reload","params":{"name":"lib"}}"#);
    assert_eq!(status(&reloaded), "ok");
    let rows = reloaded
        .get("result")
        .and_then(|r| r.get("reanalyzed"))
        .and_then(|v| match v {
            Value::Array(items) => Some(items),
            _ => None,
        })
        .expect("reload summarizes re-analyzed option sets");
    assert_eq!(rows.len(), 1);
    let hits = rows[0].get("cache_hits").and_then(Value::as_u64).unwrap();
    let misses = rows[0].get("cache_misses").and_then(Value::as_u64).unwrap();
    assert!(
        hits > 0,
        "unchanged cones warm-start from the cache: {reloaded:?}"
    );
    assert!(misses > 0, "the edited cone recomputes: {reloaded:?}");
    let after = report(&s.rpc(r#"{"spo-rpc":1,"id":4,"method":"query","params":{"name":"lib"}}"#));
    assert_ne!(before, after);
    assert!(before.contains("checkAccept"), "{before}");
    assert!(!after.contains("checkAccept"), "{after}");
    assert_eq!(daemon.shutdown(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `spo rpc` drives a daemon end to end and folds response statuses into
/// its exit code.
#[test]
fn rpc_client_round_trips_and_maps_exit_codes() {
    let jdk = fixture("figure1_jdk.jir");
    let daemon = Daemon::start("rpc", &["--no-cache"]);
    let socket = daemon.socket.to_str().unwrap().to_owned();
    let ok = spo(&[
        "rpc",
        "--socket",
        &socket,
        &format!(
            r#"{{"spo-rpc":1,"id":1,"method":"load","params":{{"name":"lib","paths":["{}"]}}}}"#,
            jdk.display()
        ),
        r#"{"spo-rpc":1,"id":2,"method":"query","params":{"name":"lib"}}"#,
        r#"{"spo-rpc":1,"id":3,"method":"stats"}"#,
    ]);
    assert_eq!(
        ok.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert_eq!(stdout.lines().count(), 3, "one response line per request");
    for line in stdout.lines() {
        assert_eq!(status(&parse(line).unwrap()), "ok");
    }
    let err = spo(&[
        "rpc",
        "--socket",
        &socket,
        r#"{"spo-rpc":1,"method":"nope"}"#,
    ]);
    assert_eq!(err.status.code(), Some(3), "error responses exit 3");
    assert_eq!(daemon.shutdown(), 0);
}

/// Seeded fuzz loop over the wire protocol: requests split into random
/// chunks, garbage interleaves, oversized-then-valid lines, and mid-frame
/// disconnects must each leave the daemon healthy enough to answer the
/// next well-formed request byte-identically.
#[test]
fn adversarial_byte_streams_never_wedge_the_daemon() {
    use spo_rng::SmallRng;
    let jdk = fixture("figure1_jdk.jir");
    let load = format!("lib={}", jdk.display());
    let daemon = Daemon::start(
        "fuzz",
        &["--no-cache", "--max-line-bytes", "4096", "--load", &load],
    );
    let query = r#"{"spo-rpc":1,"id":7,"method":"query","params":{"name":"lib"}}"#;
    let want = report(&daemon.connect().rpc(query));
    let mut rng = SmallRng::seed_from_u64(0xC4A05);
    for round in 0..24u32 {
        let mut s = daemon.connect();
        match rng.gen_range(0..4u32) {
            0 => {
                // The valid request, dribbled in random partial writes.
                let bytes = format!("{query}\n").into_bytes();
                let mut i = 0;
                while i < bytes.len() {
                    let n = (1 + rng.gen_range(0..9usize)).min(bytes.len() - i);
                    s.stream.write_all(&bytes[i..i + n]).expect("chunk");
                    s.stream.flush().expect("flush");
                    i += n;
                    if rng.gen_bool(0.2) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                let v = s.recv();
                assert_eq!(status(&v), "ok", "round {round}: split frame");
                assert_eq!(report(&v), want, "round {round}: split frame bytes");
            }
            1 => {
                // Garbage line (never starting with '{'), then the real
                // request on the same connection.
                let len = 1 + rng.gen_range(0..48usize);
                let garbage: String = (0..len)
                    .map(|k| {
                        let c = (0x23 + rng.gen_range(0..0x5au8)) as char;
                        if k == 0 && c == '{' {
                            'g'
                        } else {
                            c
                        }
                    })
                    .collect();
                let e = s.rpc(&garbage);
                assert_eq!(status(&e), "error", "round {round}: garbage rejected");
                let v = s.rpc(query);
                assert_eq!(report(&v), want, "round {round}: recovery after garbage");
            }
            2 => {
                // A line past --max-line-bytes, then the real request.
                let big = "x".repeat(4096 + rng.gen_range(0..4096usize));
                let e = s.rpc(&big);
                assert_eq!(status(&e), "error", "round {round}: oversized rejected");
                let v = s.rpc(query);
                assert_eq!(report(&v), want, "round {round}: recovery after oversize");
            }
            _ => {
                // Mid-frame disconnect: a partial request with no
                // terminator, then the socket torn down.
                let cut = 1 + rng.gen_range(0..query.len() - 1);
                s.stream.write_all(&query.as_bytes()[..cut]).expect("part");
                s.stream.flush().expect("flush");
                drop(s);
                let v = daemon.connect().rpc(query);
                assert_eq!(report(&v), want, "round {round}: fresh session after cut");
            }
        }
    }
    assert_eq!(daemon.shutdown(), 0);
}

/// A socket file left behind by a crashed daemon must not block startup:
/// the new daemon detects that nobody answers and takes the address over.
#[test]
fn stale_socket_file_is_taken_over_on_startup() {
    let path = daemon_socket("stale");
    let _ = std::fs::remove_file(&path);
    // Bind and drop without unlinking — exactly the wreckage a SIGKILLed
    // daemon leaves.
    let listener = std::os::unix::net::UnixListener::bind(&path).expect("plant stale socket");
    drop(listener);
    assert!(path.exists(), "stale socket file planted");
    let daemon = Daemon::start("stale", &["--no-cache"]);
    // The planted file satisfies start()'s existence poll before the
    // daemon has reclaimed the address; wait until it actually answers.
    let deadline = Instant::now() + Duration::from_secs(30);
    while UnixStream::connect(&daemon.socket).is_err() {
        assert!(Instant::now() < deadline, "daemon never reclaimed socket");
        std::thread::sleep(Duration::from_millis(10));
    }
    let pong = daemon
        .connect()
        .rpc(r#"{"spo-rpc":1,"id":1,"method":"stats"}"#);
    assert_eq!(status(&pong), "ok", "daemon serves over the reclaimed path");
    assert_eq!(daemon.shutdown(), 0);
}

/// With a `serve.conn.drop:once` fault armed in the daemon, the first
/// response is cut mid-frame — `spo rpc` must reconnect, retry the
/// idempotent request, and exit 0 with stdout identical to an
/// undisturbed run.
#[test]
fn rpc_retries_recover_from_injected_connection_drop() {
    let jdk = fixture("figure1_jdk.jir");
    let load = format!("lib={}", jdk.display());
    let clean = Daemon::start("retryclean", &["--no-cache", "--load", &load]);
    let query = r#"{"spo-rpc":1,"id":4,"method":"query","params":{"name":"lib"}}"#;
    let baseline = spo(&["rpc", "--socket", clean.socket.to_str().unwrap(), query]);
    assert_eq!(baseline.status.code(), Some(0));
    assert_eq!(clean.shutdown(), 0);

    let daemon = Daemon::start_env(
        "retrydrop",
        &["--no-cache", "--load", &load],
        &[("SPO_CHAOS", "seed=1,sites=serve.conn.drop:once")],
    );
    let out = spo(&[
        "rpc",
        "--socket",
        daemon.socket.to_str().unwrap(),
        "--retries",
        "5",
        "--retry-base-ms",
        "5",
        query,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "retries absorb the injected drop: {stderr}"
    );
    assert_eq!(
        out.stdout, baseline.stdout,
        "retried responses are byte-identical to the undisturbed run"
    );
    assert!(
        stderr.contains("retrying"),
        "the reconnect is surfaced on stderr: {stderr}"
    );
    assert_eq!(daemon.shutdown(), 0);
}

/// Compiles `jir` into a `.spi` index at `out` via the CLI.
fn export_index(name: &str, jir: &Path, out: &Path) {
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
}

/// A daemon answering from a preloaded compiled index must be
/// indistinguishable from one running full analyses: same query and diff
/// response bytes, and — the regression this pins — the same typed
/// `not-found` error (kind and exit code 3) for a library neither daemon
/// has loaded.
#[test]
fn warm_index_daemon_matches_analysis_daemon_and_errors_uniformly() {
    let jdk = fixture("figure1_jdk.jir");
    let harmony = fixture("figure1_harmony.jir");
    let dir = std::env::temp_dir().join(format!("spo-serve-index-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("workdir");
    let left_spi = dir.join("left.spi");
    let right_spi = dir.join("right.spi");
    export_index("left", &jdk, &left_spi);
    export_index("right", &harmony, &right_spi);

    let query = r#"{"spo-rpc":1,"id":1,"method":"query","params":{"name":"left"}}"#;
    let missing = r#"{"spo-rpc":1,"id":2,"method":"query","params":{"name":"nope"}}"#;
    let diff = r#"{"spo-rpc":1,"id":3,"method":"diff","params":{"left":"left","right":"right"}}"#;

    // Analysis-served baseline.
    let left_load = format!("left={}", jdk.display());
    let right_load = format!("right={}", harmony.display());
    let analysis = Daemon::start(
        "ixbase",
        &["--no-cache", "--load", &left_load, "--load", &right_load],
    );
    let sock = analysis.socket.to_str().unwrap().to_owned();
    let base_query = spo(&["rpc", "--socket", &sock, query]);
    assert_eq!(base_query.status.code(), Some(0));
    let base_missing = spo(&["rpc", "--socket", &sock, missing]);
    assert_eq!(
        base_missing.status.code(),
        Some(3),
        "analysis-served missing library exits 3"
    );
    let base_diff = spo(&["rpc", "--socket", &sock, diff]);
    assert_eq!(base_diff.status.code(), Some(0), "diff response is ok");
    assert_eq!(analysis.shutdown(), 0);

    // Index-served run: same requests, byte-identical answers.
    let left_ix = format!("left={}", left_spi.display());
    let right_ix = format!("right={}", right_spi.display());
    let indexed = Daemon::start(
        "ixwarm",
        &["--no-cache", "--index", &left_ix, "--index", &right_ix],
    );
    let sock = indexed.socket.to_str().unwrap().to_owned();
    let ix_query = spo(&["rpc", "--socket", &sock, query]);
    assert_eq!(ix_query.status.code(), Some(0));
    assert_eq!(
        ix_query.stdout, base_query.stdout,
        "index-served query bytes match the analysis daemon"
    );
    let ix_missing = spo(&["rpc", "--socket", &sock, missing]);
    assert_eq!(
        ix_missing.status.code(),
        Some(3),
        "index-served missing library exits 3 too"
    );
    assert_eq!(
        ix_missing.stdout, base_missing.stdout,
        "the not-found error is byte-identical across serving modes"
    );
    let v = parse(String::from_utf8_lossy(&ix_missing.stdout).trim()).expect("error json");
    let kind = v
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str);
    assert_eq!(kind, Some("not-found"), "typed error kind");
    let ix_diff = spo(&["rpc", "--socket", &sock, diff]);
    assert_eq!(ix_diff.status.code(), Some(0));
    assert_eq!(
        ix_diff.stdout, base_diff.stdout,
        "index-served diff bytes match the analysis daemon"
    );
    assert_eq!(indexed.shutdown(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged preloaded index must not take the daemon down or produce a
/// wrong answer: startup logs the failure, and requests for that name
/// fall back to whatever the registry holds — the full-analysis path
/// when the same name was `--load`ed, a typed `not-found` otherwise.
#[test]
fn corrupt_index_preload_falls_back_to_full_analysis() {
    let jdk = fixture("figure1_jdk.jir");
    let dir = std::env::temp_dir().join(format!("spo-serve-badix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("workdir");
    let spi = dir.join("lib.spi");
    export_index("lib", &jdk, &spi);
    let mut bytes = std::fs::read(&spi).expect("read index");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&spi, &bytes).expect("write damaged index");

    let load = format!("lib={}", jdk.display());
    let clean = Daemon::start("badixbase", &["--no-cache", "--load", &load]);
    let query = r#"{"spo-rpc":1,"id":1,"method":"query","params":{"name":"lib"}}"#;
    let baseline = spo(&["rpc", "--socket", clean.socket.to_str().unwrap(), query]);
    assert_eq!(baseline.status.code(), Some(0));
    assert_eq!(clean.shutdown(), 0);

    let ix = format!("lib={}", spi.display());
    let daemon = Daemon::start("badix", &["--no-cache", "--index", &ix, "--load", &load]);
    let out = spo(&["rpc", "--socket", daemon.socket.to_str().unwrap(), query]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "the damaged index never reaches the client"
    );
    assert_eq!(
        out.stdout, baseline.stdout,
        "fallback analysis serves the same bytes a clean daemon would"
    );
    assert_eq!(daemon.shutdown(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
