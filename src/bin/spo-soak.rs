//! `spo-soak` — the randomized fault-injection soak for `spo`.
//!
//! ```text
//! spo-soak [--seed N] [--schedules N] [--rate P] [--keep-going]
//! ```
//!
//! Drives seeded fault schedules against the `spo` binary that sits next
//! to this one — the cache, the engine, a live daemon, and the compiled
//! policy index — asserting the standing invariants: no panic escapes,
//! exit codes keep their contract, surviving output is byte-identical to
//! a clean run, and the cache self-heals. Every schedule derives from
//! `--seed`, so a red run replays exactly.
//!
//! Exit codes: 0 = every schedule held, 1 = a violation (the minimized
//! schedule seed and replay commands are printed), 3 = bad usage or a
//! failed fault-free baseline.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Output, Stdio};
use std::time::{Duration, Instant};

const EXIT_VIOLATION: u8 = 1;
const EXIT_FATAL: u8 = 3;
/// `spo`'s degraded and fatal exit codes, which schedules check for.
const SPO_DEGRADED: i32 = 2;
const SPO_FATAL: i32 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Options::parse(&args).and_then(|options| soak(&options)) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(EXIT_FATAL)
        }
    }
}

/// The command line: the soak seed, the schedule count, the per-site
/// fault rate, and whether to carry on past a violation.
struct Options {
    seed: u64,
    schedules: u64,
    rate: f64,
    keep_going: bool,
}

impl Options {
    /// Parses `--flag VALUE` and `--flag=VALUE` forms; for a repeated
    /// flag the last one given wins.
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            seed: 1,
            schedules: 200,
            rate: 0.3,
            keep_going: false,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            let what = match name {
                "--keep-going" if inline.is_some() => return Err(format!("{name} takes no value")),
                "--keep-going" => {
                    options.keep_going = true;
                    continue;
                }
                "--seed" => "seed",
                "--schedules" => "count",
                "--rate" => "probability",
                _ if arg.starts_with("--") => {
                    return Err(format!("unknown flag `{name}` for `spo-soak`"))
                }
                _ => return Err(format!("unexpected argument `{arg}` for `spo-soak`")),
            };
            let value = match inline {
                Some(value) => value,
                None => args.next().ok_or_else(|| format!("{name} needs a value"))?,
            };
            let invalid = || format!("{name}: invalid {what} `{value}`");
            match name {
                "--seed" => options.seed = value.parse().map_err(|_| invalid())?,
                "--schedules" => options.schedules = value.parse().map_err(|_| invalid())?,
                _ => options.rate = value.parse().map_err(|_| invalid())?,
            }
        }
        if !(0.0..=1.0).contains(&options.rate) {
            return Err(format!(
                "--rate: probability `{}` out of [0, 1]",
                options.rate
            ));
        }
        Ok(options)
    }
}

/// Embedded soak fixture: a six-class library over a tiny
/// `SecurityManager` prelude, giving the engine multiple independent
/// roots (so keyed fault injection can perturb a strict subset) and the
/// cache several cones to store.
const FIXTURE_A: &str = r#"
class java.lang.SecurityManager {
  method public native void checkRead(java.lang.String file);
  method public native void checkWrite(java.lang.String file);
}
class java.lang.System {
  field static java.lang.SecurityManager security;
  method public static java.lang.SecurityManager getSecurityManager() {
    local java.lang.SecurityManager sm;
    sm = java.lang.System.security;
    return sm;
  }
}
class chaos.A {
  method public void read() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead("a");
    staticinvoke chaos.A.op();
    return;
  }
  method private static native void op();
}
class chaos.B {
  method public void write() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkWrite("b");
    staticinvoke chaos.B.op();
    return;
  }
  method private static native void op();
}
class chaos.C {
  method public void readwrite() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead("c");
    virtualinvoke sm.checkWrite("c");
    staticinvoke chaos.C.op();
    return;
  }
  method private static native void op();
}
class chaos.D {
  method public void unguarded() {
    staticinvoke chaos.D.op();
    return;
  }
  method private static native void op();
}
class chaos.E {
  method public void delegated() {
    local chaos.A a;
    a = new chaos.A;
    virtualinvoke a.read();
    return;
  }
}
class chaos.F {
  method public void idle() {
    local int i;
    i = 0;
    return;
  }
}
"#;

/// Layered variant: two extra classes over the same prelude, one of them
/// an unguarded twin of `chaos.A.read` (a deliberate policy hole).
/// Layering it onto [`FIXTURE_A`] grows the root set without disturbing
/// existing cones — a file-extending cache write.
const FIXTURE_B: &str = r#"
class chaos.X {
  method public void read() {
    staticinvoke chaos.X.op();
    return;
  }
  method private static native void op();
}
class chaos.Y {
  method public void write() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkWrite("y");
    staticinvoke chaos.Y.op();
    return;
  }
  method private static native void op();
}
"#;

/// The two fixed rpc requests every serve-mode schedule (and the
/// baseline) sends; responses are byte-deterministic, so a faulted run
/// must reproduce the baseline exactly.
const RPC_REQUESTS: [&str; 2] = [
    r#"{"spo-rpc":1,"id":1,"method":"analyze","params":{"name":"lib"}}"#,
    r#"{"spo-rpc":1,"id":2,"method":"query","params":{"name":"lib"}}"#,
];

/// One soak schedule's invariant violation.
struct SoakViolation {
    why: String,
    replay: String,
}

/// The shell command that replays one schedule; every violation the
/// schedule reports carries it.
struct Replay(String);

impl Replay {
    fn violation(&self, why: impl Into<String>) -> SoakViolation {
        SoakViolation {
            why: why.into(),
            replay: self.0.clone(),
        }
    }

    /// Runs one `spo` child to completion. A failed spawn, or `panicked`
    /// when a panic message reaches the child's stderr, is a violation;
    /// any other outcome is the caller's to judge.
    fn run(&self, cmd: &mut Command, panicked: &str) -> Result<Output, SoakViolation> {
        let out = cmd
            .output()
            .map_err(|e| self.violation(format!("spawn failed: {e}")))?;
        self.no_panic(&out.stderr, panicked)?;
        Ok(out)
    }

    fn no_panic(&self, stderr: &[u8], panicked: &str) -> Result<(), SoakViolation> {
        if String::from_utf8_lossy(stderr).contains("panicked at") {
            return Err(self.violation(panicked));
        }
        Ok(())
    }
}

/// A `spo` invocation armed with the fault plan `spec`, or disarmed.
/// Either way the soak's own `SPO_CHAOS` never leaks into the child.
fn spo(exe: &Path, spec: Option<&str>) -> Command {
    let mut cmd = Command::new(exe);
    match spec {
        Some(spec) => cmd.env(spo_chaos::ENV_VAR, spec),
        None => cmd.env_remove(spo_chaos::ENV_VAR),
    };
    cmd
}

/// A spawned daemon, killed and reaped on drop: [`Child`] alone neither
/// kills nor waits, so an early return would leak the process.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Everything a soak schedule needs from the surrounding run.
struct SoakEnv {
    spo: PathBuf,
    work: PathBuf,
    fixture_a: PathBuf,
    fixture_b: PathBuf,
    rate: f64,
    clean_a: Vec<u8>,
    clean_ab: Vec<u8>,
    serve_baseline: Vec<u8>,
    /// A disarmed `spo export` of fixture A, built once.
    index_a: PathBuf,
    /// Fault-free `spo index query --index index_a` stdout.
    index_baseline: Vec<u8>,
}

/// Runs the fault-free baselines, then `options.schedules` seeded
/// schedules, printing one line per schedule and a `# soak:` summary.
fn soak(options: &Options) -> Result<ExitCode, String> {
    let Options { seed, rate, .. } = *options;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spo_exe = exe.with_file_name(format!("spo{}", std::env::consts::EXE_SUFFIX));
    if !spo_exe.is_file() {
        return Err(format!(
            "no `spo` binary at {} (build it alongside spo-soak)",
            spo_exe.display()
        ));
    }
    // The soak's scratch directory, removed on every exit path.
    let work = spo_guard::TempDir::new("spo-chaos-soak").map_err(|e| format!("work dir: {e}"))?;
    let fixture_a = work.join("a.jir");
    let fixture_b = work.join("b.jir");
    std::fs::write(&fixture_a, FIXTURE_A).map_err(|e| format!("a.jir: {e}"))?;
    std::fs::write(&fixture_b, FIXTURE_B).map_err(|e| format!("b.jir: {e}"))?;

    // Fault-free baselines. Every invariant below compares against these
    // bytes, so a failed baseline is fatal, not a violation.
    let clean_a = clean_stdout(
        spo(&spo_exe, None)
            .arg("analyze")
            .arg(&fixture_a)
            .args(["--jobs", "2"]),
        "baseline",
    )?;
    let clean_ab = clean_stdout(
        spo(&spo_exe, None)
            .arg("analyze")
            .args([&fixture_a, &fixture_b])
            .args(["--jobs", "2"]),
        "baseline",
    )?;
    let serve_baseline = serve_schedule(&spo_exe, &work, "baseline", &fixture_a, None)
        .map_err(|v| format!("clean serve baseline failed: {}", v.why))?
        .0;
    // Disarmed index export + query: the anchor for index-mode schedules.
    let index_a = work.join("a.spi");
    clean_stdout(
        spo(&spo_exe, None)
            .arg("export")
            .arg(&fixture_a)
            .arg("--out")
            .arg(&index_a)
            .args(["--name", "lib", "--jobs", "2"]),
        "index export",
    )?;
    let index_baseline = clean_stdout(
        spo(&spo_exe, None)
            .args(["index", "query", "--index"])
            .arg(&index_a),
        "index query baseline",
    )?;

    let env = SoakEnv {
        spo: spo_exe,
        work: work.to_path_buf(),
        fixture_a,
        fixture_b,
        rate,
        clean_a,
        clean_ab,
        serve_baseline,
        index_a,
        index_baseline,
    };
    let mut srng = spo_rng::SmallRng::seed_from_u64(seed);
    let (mut injected, mut recovered, mut violations) = (0u64, 0u64, 0u64);
    for k in 0..options.schedules {
        let schedule_seed = srng.next_u64();
        let mode = srng.gen_range(0..4u32);
        let (label, outcome) = match mode {
            0 => ("cache", cache_schedule(&env, k, schedule_seed)),
            1 => ("engine", engine_schedule(&env, schedule_seed)),
            2 => ("serve", serve_mode_schedule(&env, k, schedule_seed)),
            _ => ("index", index_schedule(&env, schedule_seed)),
        };
        match outcome {
            Ok((i, r)) => {
                injected += i;
                recovered += r;
                println!(
                    "schedule {k}: mode={label} seed={schedule_seed} ok injected={i} recovered={r}"
                );
            }
            Err(v) => {
                violations += 1;
                println!(
                    "schedule {k}: mode={label} seed={schedule_seed} VIOLATION: {}",
                    v.why
                );
                println!("  minimized seed: {schedule_seed}");
                println!("  replay schedule: {}", v.replay);
                println!(
                    "  replay soak:     spo-soak --seed {seed} --schedules {}",
                    k + 1
                );
                if !options.keep_going {
                    let schedules = options.schedules;
                    println!("# soak: FAILED at schedule {k} of {schedules} (seed {seed})");
                    return Ok(ExitCode::from(EXIT_VIOLATION));
                }
            }
        }
    }
    println!(
        "# soak: {} schedule(s), {violations} violation(s), injected={injected} recovered={recovered} (seed {seed})",
        options.schedules
    );
    Ok(if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_VIOLATION)
    })
}

/// Runs a disarmed `spo` and returns its stdout. Exit must be clean —
/// these bytes anchor every later comparison.
fn clean_stdout(cmd: &mut Command, what: &str) -> Result<Vec<u8>, String> {
    let out = cmd.output().map_err(|e| format!("spawn spo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "clean {what} exited {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(out.stdout)
}

/// Parses the `# chaos: injected=N recovered=M seed=S` summary a
/// chaos-armed `spo` process prints on stderr at exit.
fn parse_chaos_summary(stderr: &[u8]) -> (u64, u64) {
    let text = String::from_utf8_lossy(stderr);
    let Some(summary) = text.lines().find_map(|l| l.strip_prefix("# chaos: ")) else {
        return (0, 0);
    };
    let field = |name: &str| {
        let mut values = summary
            .split_whitespace()
            .filter_map(|f| f.strip_prefix(name));
        values.next().and_then(|v| v.parse().ok()).unwrap_or(0)
    };
    (field("injected="), field("recovered="))
}

/// Cache-mode schedule: two chaos-armed cached runs (cold then
/// file-extending), then a disarmed run over the same directory. All
/// three must exit clean with byte-identical stdout — injected cache
/// faults may cost recomputation and stderr warnings, never report bytes
/// or exit codes — and the disarmed flush must leave a healed cache file.
fn cache_schedule(env: &SoakEnv, k: u64, seed: u64) -> Result<(u64, u64), SoakViolation> {
    let spec = format!(
        "seed={seed},rate={:.2},sites={}+{}+{}+{}",
        env.rate,
        spo_chaos::sites::CACHE_WRITE_SHORT,
        spo_chaos::sites::CACHE_RENAME_FAIL,
        spo_chaos::sites::CACHE_BITFLIP,
        spo_chaos::sites::CACHE_FSYNC_FAIL,
    );
    let dir = env.work.join(format!("cache-{k}"));
    let dir_s = dir.display().to_string();
    let replay = Replay(format!(
        "SPO_CHAOS='{spec}' {} analyze {} --cache-dir {dir_s} --jobs 2",
        env.spo.display(),
        env.fixture_a.display(),
    ));
    let mut totals = (0u64, 0u64);
    let runs: [(&[&PathBuf], &[u8], Option<&str>); 3] = [
        (&[&env.fixture_a], &env.clean_a, Some(spec.as_str())),
        (
            &[&env.fixture_a, &env.fixture_b],
            &env.clean_ab,
            Some(spec.as_str()),
        ),
        // Disarmed: the cache must come back from whatever the faults
        // left on disk and the flush must land a cache file.
        (&[&env.fixture_a, &env.fixture_b], &env.clean_ab, None),
    ];
    for (step, (inputs, want, chaos)) in runs.iter().enumerate() {
        let mut cmd = spo(&env.spo, *chaos);
        cmd.arg("analyze")
            .args(*inputs)
            .args(["--cache-dir", &dir_s, "--jobs", "2"]);
        let out = replay.run(&mut cmd, "a cache run panicked under injected faults")?;
        if out.status.code() != Some(0) {
            return Err(replay.violation(format!(
                "cache run {step} exited {:?} (cache faults must never change the exit code): {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            )));
        }
        if out.stdout != *want {
            return Err(replay.violation(format!(
                "cache run {step} stdout diverged from the fault-free report"
            )));
        }
        let (i, r) = parse_chaos_summary(&out.stderr);
        totals.0 += i;
        totals.1 += r;
    }
    let landed = std::fs::read_dir(&dir).is_ok_and(|entries| {
        entries
            .flatten()
            .any(|e| e.path().extension().is_some_and(|x| x == "spc"))
    });
    if !landed {
        return Err(
            replay.violation("cache did not self-heal: no .spc file after a disarmed flush")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(totals)
}

/// Engine-mode schedule: keyed per-root panics and delays. The run may
/// degrade (exit 2) but must not crash; surviving roots' report lines
/// must be a subset of the clean report (the `#` summary footer counts
/// change with the survivor set).
fn engine_schedule(env: &SoakEnv, seed: u64) -> Result<(u64, u64), SoakViolation> {
    let spec = format!(
        "seed={seed},sites={}:{:.2}+{}:{:.2}",
        spo_chaos::sites::ENGINE_ROOT_PANIC,
        env.rate * 0.5,
        spo_chaos::sites::ENGINE_ROOT_DELAY,
        env.rate,
    );
    let replay = Replay(format!(
        "SPO_CHAOS='{spec}' {} analyze {} {} --jobs 2",
        env.spo.display(),
        env.fixture_a.display(),
        env.fixture_b.display(),
    ));
    let out = replay.run(
        spo(&env.spo, Some(&spec))
            .arg("analyze")
            .args([&env.fixture_a, &env.fixture_b])
            .args(["--jobs", "2"]),
        "an injected panic escaped the quarantine onto stderr",
    )?;
    let code = out.status.code();
    if code != Some(0) && code != Some(SPO_DEGRADED) {
        return Err(replay.violation(format!(
            "engine run exited {code:?} (want 0 or 2): {}",
            String::from_utf8_lossy(&out.stderr)
        )));
    }
    let clean = String::from_utf8_lossy(&env.clean_ab);
    let clean_lines: std::collections::BTreeSet<&str> = clean.lines().collect();
    let got = String::from_utf8_lossy(&out.stdout);
    for line in got.lines().filter(|l| !l.starts_with('#')) {
        if !clean_lines.contains(line) {
            return Err(replay.violation(format!(
                "surviving-root output line not present in the clean report: {line}"
            )));
        }
    }
    Ok(parse_chaos_summary(&out.stderr))
}

/// Index-mode schedule: a chaos-armed `spo index query` over a known-good
/// compiled index, with `index.read.bitflip` flipping one read byte. A
/// schedule where the fault holds fire must reproduce the clean report
/// byte-for-byte; a schedule where it fires must die with the typed
/// "unusable index" diagnostic (exit 3, empty stdout) — degraded, never
/// a wrong answer, never a panic.
fn index_schedule(env: &SoakEnv, seed: u64) -> Result<(u64, u64), SoakViolation> {
    let spec = format!(
        "seed={seed},sites={}:{:.2}",
        spo_chaos::sites::INDEX_READ_BITFLIP,
        env.rate,
    );
    let replay = Replay(format!(
        "SPO_CHAOS='{spec}' {} index query --index {}",
        env.spo.display(),
        env.index_a.display(),
    ));
    let out = replay.run(
        spo(&env.spo, Some(&spec))
            .args(["index", "query", "--index"])
            .arg(&env.index_a),
        "index query panicked under a read bitflip",
    )?;
    match out.status.code() {
        Some(0) if out.stdout != env.index_baseline => Err(replay.violation(
            "index query exited clean but its report diverged from the \
             fault-free baseline (a flipped byte slipped past the checksum)",
        )),
        Some(0) => Ok(parse_chaos_summary(&out.stderr)),
        Some(SPO_FATAL) if !out.stdout.is_empty() => {
            Err(replay.violation("index query failed but still wrote a partial report to stdout"))
        }
        Some(SPO_FATAL) => {
            let stderr = String::from_utf8_lossy(&out.stderr);
            if !stderr.contains("the index is unusable") {
                return Err(replay.violation(format!(
                    "index query exited 3 without the typed unusable-index diagnostic: {stderr}"
                )));
            }
            Ok(parse_chaos_summary(&out.stderr))
        }
        code => Err(replay.violation(format!(
            "index query exited {code:?} (want 0 clean or 3 typed failure)"
        ))),
    }
}

/// Serve-mode schedule: a chaos-armed daemon (connection drops, stalls,
/// split frames) queried by a disarmed `spo rpc` client with retries.
/// The client must exit clean with stdout byte-identical to the
/// fault-free baseline — injected drops are the client's to absorb.
fn serve_mode_schedule(env: &SoakEnv, k: u64, seed: u64) -> Result<(u64, u64), SoakViolation> {
    // Drops are capped well below the retry budget; stalls ride at the
    // schedule rate and only cost latency.
    let spec = format!(
        "seed={seed},sites={}:{:.2}+{}:{:.2}+{}:{:.2}+{}:{:.2}",
        spo_chaos::sites::SERVE_CONN_DROP,
        (env.rate * 0.5).min(0.25),
        spo_chaos::sites::SERVE_WRITE_STALL,
        env.rate,
        spo_chaos::sites::SERVE_FRAME_SPLIT,
        env.rate,
        spo_chaos::sites::SERVE_READ_STALL,
        env.rate,
    );
    let tag = format!("s{k}");
    let (stdout, counts) = serve_schedule(&env.spo, &env.work, &tag, &env.fixture_a, Some(&spec))?;
    if stdout != env.serve_baseline {
        return Err(SoakViolation {
            why: "rpc responses diverged from the fault-free baseline".to_owned(),
            replay: format!(
                "SPO_CHAOS='{spec}' {} serve --socket <SOCK> --load lib={} --jobs 2  # then: {} rpc --socket <SOCK> --retries 8 --retry-base-ms 10 '...'",
                env.spo.display(),
                env.fixture_a.display(),
                env.spo.display(),
            ),
        });
    }
    Ok(counts)
}

/// Starts one daemon (chaos-armed when `spec` is set), runs the fixed
/// request sequence through a disarmed retrying client, shuts the daemon
/// down, and returns the client's stdout plus the daemon's fault
/// counters.
fn serve_schedule(
    exe: &Path,
    work: &Path,
    tag: &str,
    fixture: &Path,
    spec: Option<&str>,
) -> Result<(Vec<u8>, (u64, u64)), SoakViolation> {
    let sock = work.join(format!("sock-{tag}"));
    let _ = std::fs::remove_file(&sock);
    let armed = spec.map(|s| format!("SPO_CHAOS='{s}' "));
    let replay = Replay(format!(
        "{}{} serve --socket {} --load lib={} --jobs 2",
        armed.unwrap_or_default(),
        exe.display(),
        sock.display(),
        fixture.display(),
    ));
    let mut daemon = Daemon(
        spo(exe, spec)
            .arg("serve")
            .arg("--socket")
            .arg(&sock)
            .arg("--load")
            .arg(format!("lib={}", fixture.display()))
            .args(["--jobs", "2", "--drain-grace", "5"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| replay.violation(format!("daemon spawn failed: {e}")))?,
    );
    // Wait for the socket to come up; a daemon that dies first is a
    // violation in itself.
    let t0 = Instant::now();
    while !sock.exists() {
        if let Ok(Some(status)) = daemon.0.try_wait() {
            return Err(replay.violation(format!(
                "daemon exited {status:?} before binding: {}",
                drain_stderr(&mut daemon.0)
            )));
        }
        if t0.elapsed() > Duration::from_secs(10) {
            return Err(replay.violation("daemon never bound its socket within 10s"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let rpc = || {
        let mut cmd = spo(exe, None);
        cmd.arg("rpc").arg("--socket").arg(&sock);
        cmd
    };
    let out = replay.run(
        rpc()
            .args(["--retries", "8", "--retry-base-ms", "10"])
            .args(RPC_REQUESTS),
        "the rpc client panicked",
    )?;
    // Shut the daemon down; losing the shutdown *response* to an injected
    // drop is fine (the daemon still exits), so the client verdict for
    // this request is advisory.
    let _ = rpc()
        .arg(r#"{"spo-rpc":1,"id":99,"method":"shutdown"}"#)
        .output();
    let t1 = Instant::now();
    let status = loop {
        match daemon.0.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if t1.elapsed() > Duration::from_secs(10) => {
                return Err(replay.violation("daemon did not exit within 10s of shutdown"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => return Err(replay.violation(format!("daemon wait failed: {e}"))),
        }
    };
    let daemon_err = drain_stderr(&mut daemon.0);
    if !status.success() {
        return Err(replay.violation(format!(
            "daemon exited {:?} after drain: {daemon_err}",
            status.code()
        )));
    }
    replay.no_panic(
        daemon_err.as_bytes(),
        "a daemon thread panicked under injected faults",
    )?;
    if out.status.code() != Some(0) {
        return Err(replay.violation(format!(
            "rpc client exited {:?} (retries must absorb injected drops): {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )));
    }
    let counts = parse_chaos_summary(daemon_err.as_bytes());
    let _ = std::fs::remove_file(&sock);
    Ok((out.stdout, counts))
}

/// Reads what an exited child wrote to its piped stderr.
fn drain_stderr(child: &mut Child) -> String {
    let mut err = String::new();
    if let Some(mut pipe) = child.stderr.take() {
        use std::io::Read;
        let _ = pipe.read_to_string(&mut err);
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn options_default_and_take_both_forms() {
        let o = Options::parse(&[]).expect("defaults parse");
        assert_eq!(
            (o.seed, o.schedules, o.rate, o.keep_going),
            (1, 200, 0.3, false)
        );
        let o = Options::parse(&argv(&[
            "--seed=7",
            "--schedules",
            "3",
            "--rate=0",
            "--keep-going",
        ]))
        .expect("both forms parse");
        assert_eq!(
            (o.seed, o.schedules, o.rate, o.keep_going),
            (7, 3, 0.0, true)
        );
    }

    #[test]
    fn options_reject_bad_values() {
        let err = |args: &[&str]| Options::parse(&argv(args)).err().expect("rejected");
        assert_eq!(err(&["--seed", "x"]), "--seed: invalid seed `x`");
        assert_eq!(err(&["--schedules=-1"]), "--schedules: invalid count `-1`");
        assert_eq!(err(&["--rate"]), "--rate needs a value");
        assert_eq!(err(&["--keep-going=1"]), "--keep-going takes no value");
        assert!(err(&["extra"]).starts_with("unexpected argument `extra`"));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dropping_the_daemon_guard_reaps_the_process() {
        let child = Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        let proc_entry = PathBuf::from(format!("/proc/{}", child.id()));
        assert!(proc_entry.exists());
        drop(Daemon(child));
        // Killed but unreaped, the child would linger as a zombie with
        // its /proc entry still present.
        assert!(
            !proc_entry.exists(),
            "the guard killed and reaped the child"
        );
    }
}
