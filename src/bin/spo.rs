//! `spo` — the security policy oracle command-line interface.
//!
//! ```text
//! spo check <file.jir>...                        parse & validate, print stats
//! spo analyze <file.jir>... [--broad]            print per-entry security policies
//! spo export <file.jir>... [--name N]            emit the policy exchange format
//! spo diff <left.jir>... --vs <right.jir>...     run the oracle over two implementations
//!          [--no-icp] [--broad] [--intra-only]
//! spo diff-policies <left.txt> <right.txt>       diff two exported policy files
//! spo serve --socket PATH [--load NAME=FILE]...  resident oracle daemon (spo-rpc/1)
//! spo rpc --socket PATH '<request-json>'...      send requests to a running daemon
//! ```
//!
//! Multiple `.jir` files per side are layered into one program (e.g. a
//! shared runtime prelude plus the implementation).

use security_policy_oracle::compare_implementations_with;
use security_policy_oracle::guard::{CancelToken, Cause, Diagnostic, GuardConfig, Phase, Severity};
use security_policy_oracle::obs::trace::{TraceLane, Tracer};
use security_policy_oracle::obs::{self, Recorder};
use spo_cache::PolicyCache;
use spo_core::{
    diff_libraries, export_policies, group_differences, import_policies, render_reports,
    AnalysisOptions, EventDef,
};
use spo_engine::AnalysisEngine;
use spo_jir::Program;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Exit codes: 0 = clean, 1 = semantic findings (policy differences, lint
/// or throws findings), 2 = completed but degraded (parse recovery,
/// panic-quarantined or budget/cancel-tripped roots), 3 = fatal error.
/// Degradation takes precedence over findings: a degraded run's findings
/// are a lower bound, not the full answer.
const EXIT_FINDINGS: u8 = 1;
const EXIT_DEGRADED: u8 = 2;
const EXIT_FATAL: u8 = 3;

fn main() -> ExitCode {
    // Arm deterministic fault injection from `SPO_CHAOS` before any layer
    // captures the global plan (cache open, engine construction, daemon
    // start all read it exactly once).
    if let Err(e) = spo_chaos::init_from_env() {
        eprintln!("error: {}: {e}", spo_chaos::ENV_VAR);
        return ExitCode::from(EXIT_FATAL);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("diff-policies") => cmd_diff_policies(&args[1..]),
        Some("throws") => cmd_throws(&args[1..]),
        Some("stats-validate") => cmd_stats_validate(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("index") => cmd_index(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("rpc") => cmd_rpc(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    let code = match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(EXIT_FATAL)
        }
    };
    // One machine-parseable summary line per chaos-armed process: `spo
    // chaos soak` reads these from child stderr to attribute fault counts.
    let chaos = spo_chaos::current();
    if chaos.is_enabled() {
        eprintln!(
            "# chaos: injected={} recovered={} seed={}",
            chaos.injected(),
            chaos.recovered(),
            chaos.seed().unwrap_or(0),
        );
    }
    code
}

const USAGE: &str = "\
spo — security policy oracle (PLDI 2011 reproduction)

USAGE:
  spo check <file.jir>... [--lint] [--jobs N] [--trace-out PATH] [--stats] [--stats-json PATH]
  spo analyze <file.jir>... [--broad] [--jobs N] [--budget-steps N] [--budget-frames N] [--deadline SECS] [--cache-dir PATH] [--no-cache] [--trace-out PATH] [--stats] [--stats-json PATH]
  spo export <file.jir>... [--name NAME] [--jobs N] [--cache-dir PATH] [--no-cache] [--trace-out PATH] [--stats] [--stats-json PATH]
  spo diff <left.jir>... --vs <right.jir>... [--no-icp] [--broad] [--intra-only] [--html] [--jobs N] [--cache-dir PATH] [--no-cache] [--trace-out PATH] [--stats] [--stats-json PATH]
  spo diff-policies <left-policies.txt> <right-policies.txt>
  spo throws <left.jir>... --vs <right.jir>...
  spo stats-validate [--schema spo-stats/1|spo-trace/1] <snapshot.json>
  spo cache (stats|clear) --cache-dir PATH
  spo cache export-index <file.jir>... --out PATH.spi [--name NAME] [--no-icp] [--broad] [--jobs N]
  spo index query [ENTRY-SIG] --index PATH.spi
  spo index diff <left.spi> <right.spi>
  spo serve --socket PATH [--tcp ADDR] [--workers N] [--jobs N] [--load NAME=FILE[,FILE...]]... [--index NAME=PATH.spi]... [--cache-dir PATH] [--no-cache] [--default-timeout-ms N] [--write-timeout-ms N] [--max-line-bytes N] [--drain-grace SECS] [--stats] [--stats-json PATH]
  spo rpc --socket PATH | --tcp ADDR [--stats-json PATH] [--retries N] [--retry-base-ms N] <request-json>...
  spo trace --socket PATH | --tcp ADDR [--trace-id ID] [--out PATH]
  spo chaos soak [--seed N] [--schedules N] [--rate P] [--keep-going]

`--jobs N` sets the analysis worker count (default: all CPUs; results are
identical for any N). `--stats` prints a metrics summary to stderr;
`--stats-json PATH` writes the versioned machine-readable snapshot
(`-` for stdout). `stats-validate` checks a snapshot against the
spo-stats/1 schema.

`analyze`, `export`, and `diff` accept degraded-mode limits:
`--budget-steps N` caps worklist steps per fixpoint solve,
`--budget-frames N` caps method frames per root, `--deadline SECS` (alias
`--timeout-ms N`) sets a wall-clock limit. A root exceeding a limit (or a
SIGINT/SIGTERM) is dropped from the report and surfaced as a stderr
diagnostic.

`spo serve` starts a resident daemon speaking the line-delimited JSON
protocol spo-rpc/1 over a Unix socket (and optionally TCP): programs stay
loaded, analyses stay warm in memory, and repeat queries skip the engine
entirely. Responses embed byte-identical `analyze`/`diff` output. Each
request may carry `timeout_ms` for per-request admission control; an
over-budget request returns a typed degraded response without disturbing
other sessions. `spo rpc` sends request lines to a running daemon and
prints the responses (exit: 0 ok, 2 any degraded, 3 any error).

`--trace-out PATH` writes a flight-recorder timeline of the run as
Chrome-trace JSON (`spo-trace/1`): one lane per engine worker, per-root
spans, dataflow fixpoint spans, shard lock-wait events, and cache
hit/miss instants. Load the file in Perfetto (ui.perfetto.dev) or
chrome://tracing. Tracing is wall-clock telemetry only — report bytes
and `--stats-json` output are byte-identical with or without it. Against
a daemon, put a `trace_id` field in any `spo rpc` request to capture
that request's timeline, then fetch it with `spo trace`.

Every command honours the `SPO_CHAOS` environment variable
(`seed=N[,rate=P][,sites=SITE[:RATE|:once][+SITE...]]`, `sites=all` arms
everything): a deterministic fault-injection plan that fires at named
sites in the cache, the engine, and the daemon. The same seed replays
the same fault schedule; a chaos-armed process prints a one-line
`# chaos:` summary to stderr at exit. `spo chaos soak` drives randomized
schedules against all three layers and checks the standing invariants
(no panics, stable exit codes, byte-identical surviving output,
self-healing cache), printing the minimized failing seed on violation.
`spo rpc` retries idempotent requests over a dropped connection with
exponential backoff (`--retries`, `--retry-base-ms`); `spo serve
--write-timeout-ms N` bounds each response write, shedding clients that
stall past it.

`spo cache export-index` compiles a library's full analysis (plus its
intraprocedural ablation) into a single-file index (`spo-index/2`,
conventionally `policies.spi`): an interned, checksummed, offset-table
file answering `query`/`diff` in sub-millisecond time without rerunning
the engine. `spo index query` looks up one entry point (or lists
the whole library); `spo index diff` runs the oracle over two indexes.
Both print bytes identical to the `analyze`/`diff` path. A corrupt,
truncated, or version-skewed index is a fatal typed error (exit 3) —
re-export it or fall back to full analysis; it never yields a wrong
answer. `spo serve --index NAME=PATH.spi` preloads an index so the
daemon answers `query`/`diff` for NAME from the warm index (falling
back to full analysis, with a stderr diagnostic, if it fails to load).

`--cache-dir PATH` warm-starts the analysis from a persistent summary
cache at PATH (created on first use): roots whose call-graph cone is
unchanged since the cached run skip analysis, and results are always
byte-identical to a cold run. A corrupt or stale entry only means that
root runs cold plus a stderr warning — never a changed report or exit
code. `--no-cache` ignores the cache for one run. The cache holds one
`spo-index` file (`*.spc`) per library and option set. `spo cache stats`
prints the store's entry count and size; `spo cache clear` deletes its
`*.spc` files.

EXIT CODES:
  0  clean
  1  findings (policy differences, lint or throws findings)
  2  completed degraded (parse recovery, panicked/over-budget/cancelled
     roots); stdout for surviving roots matches a clean run
  3  fatal error (bad usage, unreadable input)
";

/// Extracts `--jobs N` / `--jobs=N` from an argument list, returning the
/// worker count (0 = one per CPU, the flag-absent default) and the
/// remaining arguments.
fn extract_jobs(args: &[String]) -> Result<(usize, Vec<String>), String> {
    let mut jobs = 0usize;
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        let value = if a == "--jobs" {
            Some(iter.next().ok_or("--jobs needs a value")?.as_str())
        } else {
            a.strip_prefix("--jobs=")
        };
        match value {
            Some(v) => {
                jobs = v.parse().map_err(|_| {
                    format!("--jobs: invalid worker count `{v}` (expected a positive integer)")
                })?;
                if jobs == 0 {
                    return Err(
                        "--jobs: worker count must be at least 1 (omit the flag to use all CPUs)"
                            .to_owned(),
                    );
                }
            }
            None => rest.push(a.clone()),
        }
    }
    Ok((jobs, rest))
}

/// Pulls `name VALUE` / `name=VALUE` off the argument stream.
fn flag_value(
    a: &str,
    name: &str,
    iter: &mut std::slice::Iter<'_, String>,
) -> Result<Option<String>, String> {
    if a == name {
        Ok(Some(
            iter.next().ok_or(format!("{name} needs a value"))?.clone(),
        ))
    } else if let Some(v) = a.strip_prefix(name).and_then(|v| v.strip_prefix('=')) {
        Ok(Some(v.to_owned()))
    } else {
        Ok(None)
    }
}

/// Extracts the degraded-mode flags — `--budget-steps N`,
/// `--budget-frames N`, `--deadline SECS`, plus the undocumented
/// fault-injection test hooks `--inject-panic SUBSTR` (repeatable) and
/// `--inject-sleep-ms N` — returning the [`GuardConfig`] (wired to the
/// process-wide Ctrl-C token) and the remaining arguments.
fn extract_guard(args: &[String]) -> Result<(GuardConfig, Vec<String>), String> {
    let mut guard = GuardConfig::default();
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if let Some(v) = flag_value(a, "--budget-steps", &mut iter)? {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("--budget-steps: invalid step count `{v}`"))?;
            // 0 is the Budget-internal "unlimited" sentinel; accepting it
            // here would silently disable the limit the user asked for.
            if n == 0 {
                return Err(
                    "--budget-steps: step budget must be at least 1 (omit the flag for unlimited)"
                        .to_owned(),
                );
            }
            guard.budget = guard.budget.steps(n);
        } else if let Some(v) = flag_value(a, "--budget-frames", &mut iter)? {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("--budget-frames: invalid frame count `{v}`"))?;
            if n == 0 {
                return Err(
                    "--budget-frames: frame budget must be at least 1 (omit the flag for unlimited)"
                        .to_owned(),
                );
            }
            guard.budget = guard.budget.frames(n);
        } else if let Some(v) = flag_value(a, "--deadline", &mut iter)? {
            let secs: f64 = v
                .parse()
                .map_err(|_| format!("--deadline: invalid seconds `{v}`"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(format!("--deadline: invalid seconds `{v}`"));
            }
            guard.budget = guard.budget.deadline_in(Duration::from_secs_f64(secs));
        } else if let Some(v) = flag_value(a, "--timeout-ms", &mut iter)? {
            // Alias for `--deadline` in milliseconds, matching the serve
            // protocol's per-request `timeout_ms` field.
            let n: u64 = v
                .parse()
                .map_err(|_| format!("--timeout-ms: invalid milliseconds `{v}`"))?;
            if n == 0 {
                return Err(
                    "--timeout-ms: timeout must be at least 1 (omit the flag for unlimited)"
                        .to_owned(),
                );
            }
            guard.budget = guard.budget.deadline_in(Duration::from_millis(n));
        } else if let Some(v) = flag_value(a, "--inject-panic", &mut iter)? {
            guard.inject_panics.push(v);
        } else if let Some(v) = flag_value(a, "--inject-sleep-ms", &mut iter)? {
            guard.inject_sleep_ms = v
                .parse()
                .map_err(|_| format!("--inject-sleep-ms: invalid milliseconds `{v}`"))?;
        } else {
            rest.push(a.clone());
        }
    }
    guard.cancel = cancel_token();
    Ok((guard, rest))
}

/// The process-wide cancellation token. On unix the first call installs
/// SIGINT and SIGTERM handlers that flip it, so both Ctrl-C and a service
/// manager's `kill` drain the analysis workers while the command still
/// emits its partial report, diagnostics, and stats snapshot (exit code 2)
/// instead of dying mid-write. `spo serve` drains off the same token.
fn cancel_token() -> CancelToken {
    static TOKEN: std::sync::OnceLock<CancelToken> = std::sync::OnceLock::new();
    TOKEN
        .get_or_init(|| {
            let token = CancelToken::new();
            #[cfg(unix)]
            signals::install(token.clone());
            token
        })
        .clone()
}

#[cfg(unix)]
mod signals {
    use super::CancelToken;
    use std::sync::OnceLock;

    static SIGNAL_TOKEN: OnceLock<CancelToken> = OnceLock::new();

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Async-signal-safe: cancelling is one relaxed atomic store.
    extern "C" fn on_signal(_signum: i32) {
        if let Some(token) = SIGNAL_TOKEN.get() {
            token.cancel();
        }
    }

    pub fn install(token: CancelToken) {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        if SIGNAL_TOKEN.set(token).is_ok() {
            let handler: extern "C" fn(i32) = on_signal;
            // SAFETY: installing a handler that only touches a lock-free
            // atomic, the async-signal-safe subset of the C API.
            unsafe {
                signal(SIGINT, handler as usize);
                signal(SIGTERM, handler as usize);
            }
        }
    }
}

/// Observability flags shared by the analysis commands.
#[derive(Debug)]
struct StatsOpts {
    /// `--stats`: render the human-readable summary to stderr.
    human: bool,
    /// `--stats-json PATH`: write the `spo-stats/1` snapshot (`-` = stdout).
    json_path: Option<String>,
}

impl StatsOpts {
    fn enabled(&self) -> bool {
        self.human || self.json_path.is_some()
    }

    /// An enabled recorder when any stats output was requested, else the
    /// zero-overhead disabled recorder.
    fn recorder(&self) -> Recorder {
        if self.enabled() {
            Recorder::new()
        } else {
            Recorder::disabled()
        }
    }

    /// Emits the requested outputs from the recorder's final snapshot.
    fn emit(&self, rec: &Recorder) -> Result<(), String> {
        if !self.enabled() {
            return Ok(());
        }
        let snap = rec.snapshot();
        if self.human {
            eprint!("{}", snap.render());
        }
        if let Some(path) = &self.json_path {
            let mut json = snap.to_json();
            json.push('\n');
            if path == "-" {
                print_report(&json)?;
            } else {
                std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            }
        }
        Ok(())
    }
}

/// Extracts `--stats` and `--stats-json PATH` / `--stats-json=PATH`,
/// returning the options and the remaining arguments.
fn extract_stats(args: &[String]) -> Result<(StatsOpts, Vec<String>), String> {
    let mut opts = StatsOpts {
        human: false,
        json_path: None,
    };
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "--stats" {
            opts.human = true;
            continue;
        }
        let value = if a == "--stats-json" {
            Some(iter.next().ok_or("--stats-json needs a file path")?.clone())
        } else {
            a.strip_prefix("--stats-json=").map(str::to_owned)
        };
        match value {
            Some(p) => opts.json_path = Some(p),
            None => rest.push(a.clone()),
        }
    }
    Ok((opts, rest))
}

/// `--trace-out PATH`: the flight-recorder capture for one run.
#[derive(Debug)]
struct TraceOpts {
    out: Option<String>,
}

impl TraceOpts {
    /// An enabled tracer when a capture was requested, else the
    /// never-reads-the-clock disabled tracer.
    fn tracer(&self) -> Tracer {
        if self.out.is_some() {
            Tracer::new()
        } else {
            Tracer::disabled()
        }
    }

    /// Writes the finished capture. Called strictly after the report has
    /// been printed, so even a write failure cannot perturb stdout.
    fn write(&self, tracer: &Tracer) -> Result<(), String> {
        let Some(path) = &self.out else {
            return Ok(());
        };
        std::fs::write(path, tracer.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "# trace: {} event(s) ({} dropped) -> {path}",
            tracer.event_count(),
            tracer.dropped()
        );
        Ok(())
    }
}

/// Extracts `--trace-out PATH` / `--trace-out=PATH`, returning the trace
/// options and the remaining arguments.
fn extract_trace(args: &[String]) -> Result<(TraceOpts, Vec<String>), String> {
    let mut opts = TraceOpts { out: None };
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match flag_value(a, "--trace-out", &mut iter)? {
            Some(p) => opts.out = Some(p),
            None => rest.push(a.clone()),
        }
    }
    Ok((opts, rest))
}

/// Extracts `--cache-dir PATH` / `--cache-dir=PATH` and `--no-cache`,
/// returning the cache directory (`None` when absent or disabled by
/// `--no-cache`) and the remaining arguments.
fn extract_cache(args: &[String]) -> Result<(Option<String>, Vec<String>), String> {
    let mut dir: Option<String> = None;
    let mut no_cache = false;
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "--no-cache" {
            no_cache = true;
        } else if let Some(v) = flag_value(a, "--cache-dir", &mut iter)? {
            dir = Some(v);
        } else {
            rest.push(a.clone());
        }
    }
    Ok((if no_cache { None } else { dir }, rest))
}

/// Opens the persistent summary cache at `dir` (when set) and attaches it
/// to the engine. Only failing to create/open the directory itself is
/// fatal; unusable *entries* degrade to cold roots at lookup time.
fn attach_cache(
    engine: AnalysisEngine,
    dir: &Option<String>,
) -> Result<(AnalysisEngine, Option<Arc<PolicyCache>>), String> {
    match dir {
        None => Ok((engine, None)),
        Some(d) => {
            let cache = Arc::new(
                PolicyCache::open(d.as_str()).map_err(|e| format!("--cache-dir {d}: {e}"))?,
            );
            Ok((engine.with_cache(Arc::clone(&cache)), Some(cache)))
        }
    }
}

/// Prints the cache's accumulated warnings to stderr. Deliberately kept
/// out of [`finish`]'s exit-code fold: an unusable cache entry only means
/// the root ran cold — the report is complete and exact, so the run must
/// not claim the degraded exit state.
fn report_cache_diags(cache: &Option<Arc<PolicyCache>>) {
    if let Some(cache) = cache {
        let mut diags = cache.take_diagnostics();
        diags.sort();
        for d in &diags {
            eprintln!("{d}");
        }
    }
}

/// The degraded-mode flags understood by `analyze`/`export`/`diff`, used
/// to give commands that run no analysis a pointed rejection.
const GUARD_FLAG_NAMES: [&str; 6] = [
    "--budget-steps",
    "--budget-frames",
    "--deadline",
    "--timeout-ms",
    "--inject-panic",
    "--inject-sleep-ms",
];

/// Rejects every flag not in `allowed`, naming the offender. Guard flags
/// get an explicit "wrong command" message instead of `unknown flag` so
/// the user learns the flag exists but does not apply here.
fn reject_unknown_flags(command: &str, flags: &[&str], allowed: &[&str]) -> Result<(), String> {
    for f in flags {
        let name = f.split('=').next().unwrap_or(f);
        if allowed.contains(&name) {
            continue;
        }
        if GUARD_FLAG_NAMES.contains(&name) {
            return Err(format!(
                "{name}: `{command}` runs no policy analysis, so degraded-mode limits do not \
                 apply (use analyze, export, or diff)"
            ));
        }
        return Err(format!("unknown flag `{name}` for `{command}`"));
    }
    Ok(())
}

/// Parses a flag set out of an argument list, returning remaining
/// positional arguments.
fn split_flags<'a>(args: &'a [String], flags: &mut Vec<&'a str>) -> Vec<&'a String> {
    let mut positional = Vec::new();
    for a in args {
        if a.starts_with("--") {
            flags.push(a.as_str());
        } else {
            positional.push(a);
        }
    }
    positional
}

/// Loads and layers the given `.jir` files with parse recovery: a
/// malformed member or class is dropped and reported as a diagnostic
/// instead of failing the load. Only I/O errors are fatal.
fn load_program(
    paths: &[&String],
    rec: &Recorder,
    diags: &mut Vec<Diagnostic>,
) -> Result<Program, String> {
    if paths.is_empty() {
        return Err("no input files".to_owned());
    }
    let mut program = Program::new();
    for path in paths {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let recovery = spo_jir::parse_into_recovering_traced(&src, &mut program, rec);
        for d in recovery.diagnostics {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                phase: Phase::Parse,
                root: format!("{path}:{}:{}", d.line, d.col),
                cause: Cause::Parse,
                message: format!("{} (dropped {})", d.message, d.dropped),
            });
        }
    }
    Ok(program)
}

/// Prints every diagnostic to stderr — stdout carries only the report, so
/// a degraded run's surviving output stays byte-identical to a clean run
/// restricted to the same roots — and folds them into the exit code:
/// degraded (2) beats findings (1) beats clean (0).
fn finish(diags: &[Diagnostic], findings: bool) -> ExitCode {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort();
    for d in sorted {
        eprintln!("{d}");
    }
    if !diags.is_empty() {
        eprintln!(
            "# {} degradation(s); results are a lower bound",
            diags.len()
        );
        ExitCode::from(EXIT_DEGRADED)
    } else if findings {
        ExitCode::from(EXIT_FINDINGS)
    } else {
        ExitCode::SUCCESS
    }
}

/// Writes a rendered report to stdout, treating a broken pipe as a quiet
/// success: `spo analyze ... | head` must exit with the analysis verdict,
/// not a panic, when the reader hangs up early. Any other write error is
/// still fatal — a truncated report on a healthy pipe would be silent
/// data loss.
fn print_report(s: &str) -> Result<(), String> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match out.write_all(s.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("stdout: {e}")),
    }
}

fn options_from(flags: &[&str]) -> Result<AnalysisOptions, String> {
    let mut options = AnalysisOptions::default();
    for f in flags {
        match *f {
            "--no-icp" => options.icp = false,
            "--broad" => options.events = EventDef::Broad,
            "--intra-only" => options.interprocedural = false,
            other if other.starts_with("--name") => {}
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(options)
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    // `check` runs no policy analysis; `--jobs` is accepted for interface
    // uniformity with `analyze`/`diff`.
    let (_jobs, args) = extract_jobs(args)?;
    let (stats_opts, args) = extract_stats(&args)?;
    let (trace_opts, args) = extract_trace(&args)?;
    let rec = stats_opts.recorder();
    let tracer = trace_opts.tracer();
    let mut flags = Vec::new();
    let paths = split_flags(&args, &mut flags);
    reject_unknown_flags("check", &flags, &["--lint"])?;
    let lint = flags.contains(&"--lint");
    let mut diags = Vec::new();
    // `check` runs no engine, so the timeline is a single CLI lane with
    // load and call-graph phases.
    let lane = if tracer.is_enabled() {
        tracer.lane("cli")
    } else {
        TraceLane::disabled()
    };
    let program = {
        let _span = lane.span("load", "cli");
        load_program(&paths, &rec, &mut diags)?
    };
    let cg_span = lane.span("call-graph", "cli");
    let entries = spo_resolve::entry_points(&program);
    let hierarchy = spo_resolve::Hierarchy::new(&program);
    let cg = spo_resolve::CallGraph::from_entry_points_traced(&hierarchy, &rec);
    drop(cg_span);
    let stats = cg.stats();
    println!(
        "{} classes, {} statements, {} entry points, {} reachable methods",
        program.class_count(),
        program.stmt_count(),
        entries.len(),
        cg.reachable_count(),
    );
    println!(
        "call sites: {} unique, {} ambiguous, {} unknown ({:.1}% resolved)",
        stats.unique,
        stats.ambiguous,
        stats.unknown,
        stats.resolved_fraction() * 100.0,
    );
    let mut findings = false;
    if lint {
        let lints = spo_resolve::lint_program(&program);
        for l in &lints {
            println!("lint: {} (stmt {}): {}", l.location, l.stmt, l.kind);
        }
        println!("{} lint finding(s)", lints.len());
        findings = !lints.is_empty();
    }
    trace_opts.write(&tracer)?;
    stats_opts.emit(&rec)?;
    Ok(finish(&diags, findings))
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, String> {
    let (jobs, args) = extract_jobs(args)?;
    let (stats_opts, args) = extract_stats(&args)?;
    let (guard, args) = extract_guard(&args)?;
    let (cache_dir, args) = extract_cache(&args)?;
    let (trace_opts, args) = extract_trace(&args)?;
    let rec = stats_opts.recorder();
    let tracer = trace_opts.tracer();
    let mut flags = Vec::new();
    let paths = split_flags(&args, &mut flags);
    let options = options_from(&flags)?;
    let mut diags = Vec::new();
    let program = load_program(&paths, &rec, &mut diags)?;
    let engine = AnalysisEngine::new(jobs)
        .with_recorder(rec.clone())
        .with_guard(guard)
        .with_tracer(tracer.clone());
    let (engine, cache) = attach_cache(engine, &cache_dir)?;
    let (lib, _stats) = engine.analyze_library(&program, "input", options);
    report_cache_diags(&cache);
    // The daemon's `analyze`/`query` responses embed this same string, so
    // resident and one-shot reports stay byte-identical by construction.
    print_report(&spo_core::render_analysis(&lib))?;
    diags.extend(lib.degraded.values().cloned());
    trace_opts.write(&tracer)?;
    stats_opts.emit(&rec)?;
    Ok(finish(&diags, false))
}

fn cmd_export(args: &[String]) -> Result<ExitCode, String> {
    let (jobs, args) = extract_jobs(args)?;
    let (stats_opts, args) = extract_stats(&args)?;
    let (guard, args) = extract_guard(&args)?;
    let (cache_dir, args) = extract_cache(&args)?;
    let (trace_opts, args) = extract_trace(&args)?;
    let rec = stats_opts.recorder();
    let tracer = trace_opts.tracer();
    let mut flags = Vec::new();
    let mut name = "library".to_owned();
    let mut positional: Vec<&String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        if a == "--name" {
            name = iter.next().ok_or("--name needs a value")?.clone();
        } else if a.starts_with("--") {
            flags.push(a.as_str());
        } else {
            positional.push(a);
        }
    }
    let options = options_from(&flags)?;
    let mut diags = Vec::new();
    let program = load_program(&positional, &rec, &mut diags)?;
    let engine = AnalysisEngine::new(jobs)
        .with_recorder(rec.clone())
        .with_guard(guard)
        .with_tracer(tracer.clone());
    let (engine, cache) = attach_cache(engine, &cache_dir)?;
    let (lib, _stats) = engine.analyze_library(&program, &name, options);
    report_cache_diags(&cache);
    print_report(&export_policies(&lib))?;
    diags.extend(lib.degraded.values().cloned());
    trace_opts.write(&tracer)?;
    stats_opts.emit(&rec)?;
    Ok(finish(&diags, false))
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let (jobs, args) = extract_jobs(args)?;
    let (stats_opts, args) = extract_stats(&args)?;
    let (guard, args) = extract_guard(&args)?;
    let (cache_dir, args) = extract_cache(&args)?;
    let (trace_opts, args) = extract_trace(&args)?;
    let rec = stats_opts.recorder();
    let tracer = trace_opts.tracer();
    let vs = args
        .iter()
        .position(|a| a == "--vs")
        .ok_or("diff needs `--vs` separating the two implementations")?;
    let mut flags = Vec::new();
    let left_paths = split_flags(&args[..vs], &mut flags);
    let right_paths = split_flags(&args[vs + 1..], &mut flags);
    let html = flags.contains(&"--html");
    let flags: Vec<&str> = flags.into_iter().filter(|f| *f != "--html").collect();
    let options = options_from(&flags)?;
    let mut diags = Vec::new();
    let left = load_program(&left_paths, &rec, &mut diags)?;
    let right = load_program(&right_paths, &rec, &mut diags)?;
    let engine = AnalysisEngine::new(jobs)
        .with_recorder(rec.clone())
        .with_guard(guard)
        .with_tracer(tracer.clone());
    let (engine, cache) = attach_cache(engine, &cache_dir)?;
    let report = compare_implementations_with(&left, "left", &right, "right", options, &engine);
    report_cache_diags(&cache);
    if html {
        print_report(&spo_core::render_html(&report.diff, &report.groups))?;
    } else {
        print_report(&report.render())?;
    }
    // A degraded root on either side is excluded from that side's entries,
    // so the diff silently skips it; surface the exclusion instead.
    diags.extend(report.left.degraded.values().cloned());
    diags.extend(report.right.degraded.values().cloned());
    trace_opts.write(&tracer)?;
    stats_opts.emit(&rec)?;
    Ok(finish(&diags, !report.groups.is_empty()))
}

fn cmd_throws(args: &[String]) -> Result<ExitCode, String> {
    let vs = args
        .iter()
        .position(|a| a == "--vs")
        .ok_or("throws needs `--vs` separating the two implementations")?;
    let mut flags = Vec::new();
    let left_paths = split_flags(&args[..vs], &mut flags);
    let right_paths = split_flags(&args[vs + 1..], &mut flags);
    reject_unknown_flags("throws", &flags, &[])?;
    let off = Recorder::disabled();
    let mut diags = Vec::new();
    let left = load_program(&left_paths, &off, &mut diags)?;
    let right = load_program(&right_paths, &off, &mut diags)?;
    let lt = spo_core::ThrowsAnalyzer::new(&left).analyze_library("left");
    let rt = spo_core::ThrowsAnalyzer::new(&right).analyze_library("right");
    let diffs = spo_core::diff_throws(&lt, &rt);
    for d in &diffs {
        println!("entry {}", d.signature);
        if !d.only_left.is_empty() {
            println!("  only left throws:  {:?}", d.only_left);
        }
        if !d.only_right.is_empty() {
            println!("  only right throws: {:?}", d.only_right);
        }
    }
    println!("# {} exception-behaviour difference(s)", diffs.len());
    Ok(finish(&diags, !diffs.is_empty()))
}

fn cmd_stats_validate(args: &[String]) -> Result<ExitCode, String> {
    let mut schema = obs::SCHEMA.to_owned();
    let mut paths: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if let Some(v) = flag_value(a, "--schema", &mut iter)? {
            schema = v;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag `{a}` for `stats-validate`"));
        } else {
            paths.push(a);
        }
    }
    let [path] = paths[..] else {
        return Err("stats-validate needs exactly one snapshot JSON file".to_owned());
    };
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let validate = match schema.as_str() {
        obs::SCHEMA => obs::json::validate_stats,
        obs::trace::TRACE_SCHEMA => obs::json::validate_trace,
        other => {
            return Err(format!(
                "--schema: unknown schema `{other}` (expected {} or {})",
                obs::SCHEMA,
                obs::trace::TRACE_SCHEMA
            ))
        }
    };
    validate(&src).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: valid {schema} snapshot");
    Ok(ExitCode::SUCCESS)
}

/// `spo cache (stats|clear) --cache-dir PATH`: inspect or empty the
/// persistent summary cache without running an analysis.
/// `spo cache export-index` compiles an analysis into a `.spi` index.
fn cmd_cache(args: &[String]) -> Result<ExitCode, String> {
    let action = args
        .first()
        .map(String::as_str)
        .ok_or("cache needs an action: `stats`, `clear`, or `export-index`")?;
    if action == "export-index" {
        return cmd_cache_export_index(&args[1..]);
    }
    let (cache_dir, rest) = extract_cache(&args[1..])?;
    if let Some(extra) = rest.first() {
        return Err(format!("cache: unexpected argument `{extra}`"));
    }
    let dir = cache_dir.ok_or("cache: `--cache-dir PATH` is required")?;
    let cache = PolicyCache::open(dir.as_str()).map_err(|e| format!("--cache-dir {dir}: {e}"))?;
    match action {
        "stats" => {
            let (files, bytes) = cache
                .disk_usage()
                .map_err(|e| format!("--cache-dir {dir}: {e}"))?;
            println!("{}: {files} entries, {bytes} bytes", cache.dir().display());
        }
        "clear" => {
            let removed = cache
                .clear()
                .map_err(|e| format!("--cache-dir {dir}: {e}"))?;
            println!("{}: removed {removed} entries", cache.dir().display());
        }
        other => {
            return Err(format!(
                "cache: unknown action `{other}` (use stats, clear, or export-index)"
            ))
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `spo cache export-index <file.jir>... --out PATH.spi`: run the full
/// analysis plus its intraprocedural ablation and compile both into one
/// `spo-index/2` file. Compiling a degraded analysis is refused — an
/// index is durable, so baking in a lower-bound answer would let it
/// masquerade as the complete one forever after.
fn cmd_cache_export_index(args: &[String]) -> Result<ExitCode, String> {
    let (jobs, args) = extract_jobs(args)?;
    let (guard, args) = extract_guard(&args)?;
    let mut flags = Vec::new();
    let mut name = "library".to_owned();
    let mut out: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if let Some(v) = flag_value(a, "--name", &mut iter)? {
            name = v;
        } else if let Some(v) = flag_value(a, "--out", &mut iter)? {
            out = Some(v);
        } else if a.starts_with("--") {
            flags.push(a.as_str());
        } else {
            positional.push(a);
        }
    }
    let out = out.ok_or("cache export-index: `--out PATH` is required")?;
    let options = options_from(&flags)?;
    if !options.interprocedural {
        return Err(
            "cache export-index: drop `--intra-only` — the index always stores both the \
             full and the intraprocedural analysis"
                .to_owned(),
        );
    }
    let rec = Recorder::disabled();
    let mut diags = Vec::new();
    let program = load_program(&positional, &rec, &mut diags)?;
    if !diags.is_empty() {
        for d in &diags {
            eprintln!("{d}");
        }
        return Err(
            "cache export-index: refusing to compile an index from a degraded parse".to_owned(),
        );
    }
    let engine = AnalysisEngine::new(jobs).with_guard(guard);
    let (full, stats) = engine.analyze_library(&program, &name, options);
    let intra_options = AnalysisOptions {
        interprocedural: false,
        ..options
    };
    let (intra, _) = engine.analyze_library(&program, &name, intra_options);
    // Cone fingerprints let a later run detect staleness without
    // reanalysis; they use the same keyer as the summary cache.
    let roots = spo_resolve::entry_points(&program);
    let keyer = spo_cache::CacheKeyer::new(&program, &roots, &options);
    let mut fingerprints = std::collections::BTreeMap::new();
    for &root in &roots {
        if let Some(key) = keyer.key(root) {
            fingerprints.insert(program.method_signature(root), key);
        }
    }
    let bytes = spo_index::IndexBuilder::new(&name, &options, &full, &intra)
        .fingerprints(&fingerprints)
        .build()
        .map_err(|e| format!("cache export-index: {e}"))?;
    // The cache's durable writer: a failed write leaves the previous
    // index at `out` untouched.
    spo_index::write_index_file(std::path::Path::new(&out), &bytes, &spo_chaos::current())
        .result
        .map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "spo cache export-index: wrote {out}: {} entry points, {} bytes",
        stats.entry_points,
        bytes.len(),
    );
    Ok(ExitCode::SUCCESS)
}

/// `spo index (query|diff)`: answer from a compiled `.spi` index without
/// running the engine. Any parse/decode failure is fatal (exit 3) with a
/// diagnostic naming the file — degraded, never wrong.
fn cmd_index(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("query") => cmd_index_query(&args[1..]),
        Some("diff") => cmd_index_diff(&args[1..]),
        Some(other) => Err(format!(
            "index: unknown action `{other}` (use query or diff)"
        )),
        None => Err("index needs an action: `query` or `diff`".to_owned()),
    }
}

/// Reads and parses one index file, mapping every failure to a fatal
/// diagnostic that names the file and suggests the fallback.
fn load_index_bytes(path: &str) -> Result<Vec<u8>, String> {
    spo_index::read_index_file(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn index_parse_err(path: &str, e: &str) -> String {
    format!("{path}: {e}; the index is unusable — re-export it or fall back to `spo analyze`/`spo diff`")
}

fn cmd_index_query(args: &[String]) -> Result<ExitCode, String> {
    let mut index_path: Option<String> = None;
    let mut roots: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if let Some(v) = flag_value(a, "--index", &mut iter)? {
            index_path = Some(v);
        } else if a.starts_with("--") {
            return Err(format!("unknown argument `{a}` for `index query`"));
        } else {
            roots.push(a);
        }
    }
    let path = index_path.ok_or("index query: `--index PATH` is required")?;
    if roots.len() > 1 {
        return Err(format!(
            "index query takes at most one entry-point signature (got {})",
            roots.len()
        ));
    }
    let bytes = load_index_bytes(&path)?;
    let index = spo_index::PolicyIndex::parse(&bytes).map_err(|e| index_parse_err(&path, &e))?;
    match roots.first() {
        None => {
            let report = index
                .render_full()
                .map_err(|e| index_parse_err(&path, &e))?;
            print_report(&report)?;
        }
        Some(sig) => {
            let report = index
                .query(sig)
                .map_err(|e| index_parse_err(&path, &e))?
                .ok_or_else(|| format!("no entry point \"{sig}\" in \"{}\"", index.library()))?;
            print_report(&report)?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_index_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut paths: Vec<&String> = Vec::new();
    for a in args {
        if a.starts_with("--") {
            return Err(format!("unknown argument `{a}` for `index diff`"));
        }
        paths.push(a);
    }
    let [left_path, right_path] = paths[..] else {
        return Err(format!(
            "index diff needs exactly two .spi files (got {})",
            paths.len()
        ));
    };
    let left_bytes = load_index_bytes(left_path)?;
    let right_bytes = load_index_bytes(right_path)?;
    let left =
        spo_index::PolicyIndex::parse(&left_bytes).map_err(|e| index_parse_err(left_path, &e))?;
    let right =
        spo_index::PolicyIndex::parse(&right_bytes).map_err(|e| index_parse_err(right_path, &e))?;
    // Mixed analysis options would make every difference suspect, so the
    // tokens must match exactly — same rule as the summary cache.
    if left.options_token() != right.options_token() {
        return Err(format!(
            "index diff: analysis options mismatch: {left_path} was compiled under `{}`, \
             {right_path} under `{}`",
            left.options_token(),
            right.options_token(),
        ));
    }
    let (left_full, left_intra) = left
        .to_libraries()
        .map_err(|e| index_parse_err(left_path, &e))?;
    let (right_full, right_intra) = right
        .to_libraries()
        .map_err(|e| index_parse_err(right_path, &e))?;
    let (report, findings) =
        spo_index::diff_rendered(&left_full, &left_intra, &right_full, &right_intra);
    print_report(&report)?;
    Ok(if findings {
        ExitCode::from(EXIT_FINDINGS)
    } else {
        ExitCode::SUCCESS
    })
}

/// `spo serve`: run the resident oracle daemon until a `shutdown` request
/// or SIGINT/SIGTERM, then drain gracefully.
fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let (jobs, rest) = extract_jobs(args)?;
    let (stats, rest) = extract_stats(&rest)?;
    let (guard, rest) = extract_guard(&rest)?;
    if guard.budget.deadline.is_some() {
        return Err(
            "--deadline/--timeout-ms: the daemon serves indefinitely; per-request deadlines \
             come from each request's `timeout_ms` field or `--default-timeout-ms N`"
                .to_owned(),
        );
    }
    let mut config = spo_serve::ServeConfig {
        jobs,
        guard,
        recorder: Recorder::new(),
        ..spo_serve::ServeConfig::default()
    };
    let mut iter = rest.iter();
    while let Some(a) = iter.next() {
        if let Some(v) = flag_value(a, "--socket", &mut iter)? {
            config.socket = Some(v.into());
        } else if let Some(v) = flag_value(a, "--tcp", &mut iter)? {
            config.tcp = Some(v);
        } else if let Some(v) = flag_value(a, "--workers", &mut iter)? {
            config.workers = v
                .parse()
                .map_err(|_| format!("--workers: invalid worker count `{v}`"))?;
            if config.workers == 0 {
                return Err(
                    "--workers: worker count must be at least 1 (omit the flag for the default)"
                        .to_owned(),
                );
            }
        } else if let Some(v) = flag_value(a, "--cache-dir", &mut iter)? {
            config.cache_dir = Some(v.into());
        } else if a == "--no-cache" {
            config.no_cache = true;
        } else if let Some(v) = flag_value(a, "--max-line-bytes", &mut iter)? {
            config.max_line_bytes = v
                .parse()
                .map_err(|_| format!("--max-line-bytes: invalid byte count `{v}`"))?;
            if config.max_line_bytes == 0 {
                return Err(
                    "--max-line-bytes: cap must be at least 1 (omit the flag for the default)"
                        .to_owned(),
                );
            }
        } else if let Some(v) = flag_value(a, "--drain-grace", &mut iter)? {
            let secs: f64 = v
                .parse()
                .map_err(|_| format!("--drain-grace: invalid seconds `{v}`"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(format!("--drain-grace: invalid seconds `{v}`"));
            }
            config.drain_grace = Duration::from_secs_f64(secs);
        } else if let Some(v) = flag_value(a, "--default-timeout-ms", &mut iter)? {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("--default-timeout-ms: invalid milliseconds `{v}`"))?;
            if n == 0 {
                return Err(
                    "--default-timeout-ms: timeout must be at least 1 (omit the flag for unlimited)"
                        .to_owned(),
                );
            }
            config.default_timeout = Some(Duration::from_millis(n));
        } else if let Some(v) = flag_value(a, "--write-timeout-ms", &mut iter)? {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("--write-timeout-ms: invalid milliseconds `{v}`"))?;
            // 0 disables the per-session write deadline (a stalled client
            // can then hold a response writer forever — test use only).
            config.write_timeout = (n > 0).then(|| Duration::from_millis(n));
        } else if let Some(v) = flag_value(a, "--load", &mut iter)? {
            let (name, paths) = v
                .split_once('=')
                .ok_or_else(|| format!("--load: expected NAME=FILE[,FILE...], got `{v}`"))?;
            if name.is_empty() || paths.is_empty() {
                return Err(format!("--load: expected NAME=FILE[,FILE...], got `{v}`"));
            }
            config.preload.push((
                name.to_owned(),
                paths.split(',').map(str::to_owned).collect(),
            ));
        } else if let Some(v) = flag_value(a, "--index", &mut iter)? {
            let (name, path) = v
                .split_once('=')
                .ok_or_else(|| format!("--index: expected NAME=PATH.spi, got `{v}`"))?;
            if name.is_empty() || path.is_empty() {
                return Err(format!("--index: expected NAME=PATH.spi, got `{v}`"));
            }
            config.preload_index.push((name.to_owned(), path.into()));
        } else {
            return Err(format!("unknown argument `{a}` for `serve`"));
        }
    }
    let recorder = config.recorder.clone();
    let report = spo_serve::run(config)?;
    eprintln!(
        "spo serve: drained {} request(s) over {} session(s) in {:.1?}{}",
        report.requests,
        report.sessions,
        report.drained_in,
        if report.graceful { "" } else { " (forced)" }
    );
    stats.emit(&recorder)?;
    Ok(if report.graceful {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_DEGRADED)
    })
}

/// Methods whose daemon-side effect is safe to repeat after a dropped
/// connection: either read-only (`analyze`, `query`, `diff`, `stats`,
/// `trace`) or convergent (`load` of the same NAME=FILES is a no-op
/// replace). `reload` re-reads sources (a concurrent edit could make the
/// retry observe different bytes) and `shutdown` tears the daemon down,
/// so a lost response leaves their outcome genuinely unknown — those are
/// never retried.
const RPC_IDEMPOTENT: [&str; 6] = ["load", "analyze", "query", "diff", "stats", "trace"];

/// One connected rpc stream pair.
struct RpcConn {
    writer: Box<dyn std::io::Write>,
    reader: std::io::BufReader<Box<dyn std::io::Read>>,
}

/// `spo rpc`: send request lines to a running daemon in lock-step and
/// print each response. Exit code folds the response statuses: any
/// `error` -> 3, else any `degraded` -> 2, else 0.
///
/// A dropped connection (daemon restart, injected fault, flaky network)
/// is retried with exponential backoff plus jitter — but only for
/// [`RPC_IDEMPOTENT`] methods, and only until `--retries` attempts are
/// spent. Reconnects are surfaced on stderr, never stdout: a retried
/// run's stdout stays byte-identical to an undisturbed one.
fn cmd_rpc(args: &[String]) -> Result<ExitCode, String> {
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut stats_json: Option<String> = None;
    let mut retries: u32 = 5;
    let mut retry_base = Duration::from_millis(50);
    let mut requests: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if let Some(v) = flag_value(a, "--socket", &mut iter)? {
            socket = Some(v);
        } else if let Some(v) = flag_value(a, "--tcp", &mut iter)? {
            tcp = Some(v);
        } else if let Some(v) = flag_value(a, "--stats-json", &mut iter)? {
            stats_json = Some(v);
        } else if let Some(v) = flag_value(a, "--retries", &mut iter)? {
            retries = v
                .parse()
                .map_err(|_| format!("--retries: invalid retry count `{v}` (0 disables)"))?;
        } else if let Some(v) = flag_value(a, "--retry-base-ms", &mut iter)? {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("--retry-base-ms: invalid milliseconds `{v}`"))?;
            retry_base = Duration::from_millis(n);
        } else if a.starts_with("--") {
            return Err(format!("unknown flag `{a}` for `rpc`"));
        } else {
            requests.push(a.clone());
        }
    }
    if requests.is_empty() {
        return Err("rpc needs at least one request line".to_owned());
    }
    use std::io::{BufRead, Write};
    let connect = || -> Result<RpcConn, String> {
        match (&socket, &tcp) {
            (Some(path), None) => {
                let s = std::os::unix::net::UnixStream::connect(path)
                    .map_err(|e| format!("{path}: {e}"))?;
                let r = s.try_clone().map_err(|e| format!("{path}: {e}"))?;
                Ok(RpcConn {
                    writer: Box::new(s),
                    reader: std::io::BufReader::new(Box::new(r) as Box<dyn std::io::Read>),
                })
            }
            (None, Some(addr)) => {
                let s = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
                let r = s.try_clone().map_err(|e| format!("{addr}: {e}"))?;
                Ok(RpcConn {
                    writer: Box::new(s),
                    reader: std::io::BufReader::new(Box::new(r) as Box<dyn std::io::Read>),
                })
            }
            _ => Err("rpc needs exactly one of --socket PATH or --tcp ADDR".to_owned()),
        }
    };
    // Jitter decorrelates concurrent clients hammering a restarting
    // daemon; correctness never depends on the values drawn.
    let mut rng = spo_rng::SmallRng::seed_from_u64(
        u64::from(std::process::id()).rotate_left(32)
            ^ std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos() as u64)
                .unwrap_or(0),
    );
    let mut conn: Option<RpcConn> = Some(connect()?);
    let mut reconnects: u64 = 0;
    let mut exit = 0u8;
    for request in &requests {
        let method = obs::json::parse(request)
            .ok()
            .and_then(|doc| {
                doc.get("method")
                    .and_then(obs::json::Value::as_str)
                    .map(str::to_owned)
            })
            .unwrap_or_default();
        let retryable = RPC_IDEMPOTENT.contains(&method.as_str());
        let mut attempt: u32 = 0;
        let response = loop {
            let step = (|| -> std::io::Result<String> {
                if conn.is_none() {
                    let fresh = connect().map_err(std::io::Error::other)?;
                    conn = Some(fresh);
                }
                let c = conn.as_mut().expect("connection established above");
                writeln!(c.writer, "{request}")?;
                c.writer.flush()?;
                let mut response = String::new();
                let n = c.reader.read_line(&mut response)?;
                if n == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed before a response arrived",
                    ));
                }
                // A line without its terminator is a connection torn down
                // mid-response: the frame is incomplete, not a payload.
                if !response.ends_with('\n') {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ));
                }
                Ok(response)
            })();
            match step {
                Ok(response) => break response,
                Err(e) => {
                    // The stream is in an unknown state; always reconnect.
                    conn = None;
                    if !retryable || attempt >= retries {
                        let verb = if matches!(
                            e.kind(),
                            std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::BrokenPipe
                        ) {
                            "receive"
                        } else {
                            "send"
                        };
                        return Err(format!("{verb}: {e}"));
                    }
                    let backoff = retry_base
                        .saturating_mul(1u32 << attempt.min(10))
                        .saturating_add(Duration::from_millis(
                            rng.gen_range(0..retry_base.as_millis().max(1) as u64),
                        ));
                    eprintln!(
                        "spo rpc: {e}; retrying `{method}` in {backoff:.1?} \
                         (attempt {}/{retries})",
                        attempt + 1,
                    );
                    std::thread::sleep(backoff);
                    attempt += 1;
                    reconnects += 1;
                }
            }
        };
        let response = response.trim_end_matches('\n');
        print_report(&format!("{response}\n"))?;
        let doc = obs::json::parse(response)
            .map_err(|e| format!("malformed response from daemon: {e}"))?;
        match doc.get("status").and_then(obs::json::Value::as_str) {
            Some("ok") => {}
            Some("degraded") => exit = exit.max(EXIT_DEGRADED),
            _ => exit = exit.max(EXIT_FATAL),
        }
        if let (Some(path), Some(stats)) =
            (&stats_json, doc.get("result").and_then(|r| r.get("stats")))
        {
            let mut payload = stats.to_compact();
            payload.push('\n');
            std::fs::write(path, payload).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    if reconnects > 0 {
        eprintln!("# rpc: {reconnects} reconnect(s)");
    }
    Ok(ExitCode::from(exit))
}

/// `spo trace`: fetch a recent request's flight-recorder capture from a
/// running daemon (the request must have carried a `trace_id`). Prints
/// the `spo-trace/1` document to stdout, or writes it to `--out PATH` —
/// ready to load in Perfetto or chrome://tracing.
fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut trace_id: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if let Some(v) = flag_value(a, "--socket", &mut iter)? {
            socket = Some(v);
        } else if let Some(v) = flag_value(a, "--tcp", &mut iter)? {
            tcp = Some(v);
        } else if let Some(v) = flag_value(a, "--trace-id", &mut iter)? {
            trace_id = Some(v);
        } else if let Some(v) = flag_value(a, "--out", &mut iter)? {
            out_path = Some(v);
        } else {
            return Err(format!("unknown argument `{a}` for `trace`"));
        }
    }
    use std::io::{BufRead, BufReader, Read, Write};
    let (mut writer, reader): (Box<dyn Write>, Box<dyn Read>) = match (&socket, &tcp) {
        (Some(path), None) => {
            let s = std::os::unix::net::UnixStream::connect(path)
                .map_err(|e| format!("{path}: {e}"))?;
            let r = s.try_clone().map_err(|e| format!("{path}: {e}"))?;
            (Box::new(s), Box::new(r))
        }
        (None, Some(addr)) => {
            let s = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
            let r = s.try_clone().map_err(|e| format!("{addr}: {e}"))?;
            (Box::new(s), Box::new(r))
        }
        _ => return Err("trace needs exactly one of --socket PATH or --tcp ADDR".to_owned()),
    };
    let request = match &trace_id {
        Some(id) => format!(
            r#"{{"spo-rpc":1,"id":0,"method":"trace","params":{{"trace_id":"{}"}}}}"#,
            obs::json::escape(id)
        ),
        None => r#"{"spo-rpc":1,"id":0,"method":"trace"}"#.to_owned(),
    };
    writeln!(writer, "{request}").map_err(|e| format!("send: {e}"))?;
    writer.flush().map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    let n = BufReader::new(reader)
        .read_line(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    if n == 0 {
        return Err("connection closed before a response arrived".to_owned());
    }
    let doc = obs::json::parse(response.trim_end_matches('\n'))
        .map_err(|e| format!("malformed response from daemon: {e}"))?;
    if doc.get("status").and_then(obs::json::Value::as_str) != Some("ok") {
        let message = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(obs::json::Value::as_str)
            .unwrap_or("daemon returned a non-ok status");
        return Err(message.to_owned());
    }
    let result = doc.get("result").ok_or("response carries no result")?;
    let capture = result
        .get("trace")
        .ok_or("response carries no trace document")?
        .to_compact();
    let id = result
        .get("trace_id")
        .and_then(obs::json::Value::as_str)
        .unwrap_or("?");
    match &out_path {
        Some(path) => {
            let mut payload = capture;
            payload.push('\n');
            std::fs::write(path, payload).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("# trace {id} -> {path}");
        }
        None => {
            let mut payload = capture;
            payload.push('\n');
            print_report(&payload)?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff_policies(args: &[String]) -> Result<ExitCode, String> {
    let [left_path, right_path] = args else {
        return Err("diff-policies needs exactly two policy files".to_owned());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let left = import_policies(&read(left_path)?).map_err(|e| format!("{left_path}: {e}"))?;
    let right = import_policies(&read(right_path)?).map_err(|e| format!("{right_path}: {e}"))?;
    let diff = diff_libraries(&left, &right);
    let groups = group_differences(&diff, &Default::default());
    print_report(&render_reports(&diff, &groups))?;
    Ok(if groups.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Embedded soak fixture: a six-class library over a tiny
/// `SecurityManager` prelude, giving the engine multiple independent
/// roots (so keyed fault injection can perturb a strict subset) and the
/// cache several cones to store.
const CHAOS_FIXTURE_A: &str = r#"
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
/// Layering it onto [`CHAOS_FIXTURE_A`] grows the root set without
/// disturbing existing cones — a file-extending cache write.
const CHAOS_FIXTURE_B: &str = r#"
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

/// `spo chaos <action>`: fault-injection tooling. `soak` is the only
/// action today.
fn cmd_chaos(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("soak") => chaos_soak(&args[1..]),
        Some(other) => Err(format!("chaos: unknown action `{other}` (use soak)")),
        None => Err("chaos needs an action: `soak`".to_owned()),
    }
}

/// One soak schedule's invariant violation.
struct SoakViolation {
    why: String,
    replay: String,
}

/// Everything a soak schedule needs from the surrounding run.
struct SoakEnv {
    exe: std::path::PathBuf,
    work: std::path::PathBuf,
    fixture_a: std::path::PathBuf,
    fixture_ab: std::path::PathBuf,
    rate: f64,
    clean_a: Vec<u8>,
    clean_ab: Vec<u8>,
    serve_baseline: Vec<u8>,
    /// A disarmed `spo cache export-index` of fixture A, built once.
    index_a: std::path::PathBuf,
    /// Fault-free `spo index query --index index_a` stdout.
    index_baseline: Vec<u8>,
}

/// The two fixed rpc requests every serve-mode schedule (and the
/// baseline) sends; responses are byte-deterministic, so a faulted run
/// must reproduce the baseline exactly.
const SOAK_RPC_REQUESTS: [&str; 2] = [
    r#"{"spo-rpc":1,"id":1,"method":"analyze","params":{"name":"lib"}}"#,
    r#"{"spo-rpc":1,"id":2,"method":"query","params":{"name":"lib"}}"#,
];

/// `spo chaos soak`: drive randomized fault schedules against the cache,
/// the engine, a live daemon, and the compiled policy index, asserting
/// the standing invariants —
/// no panic escapes, exit codes keep their contract, surviving output is
/// byte-identical to a clean run, and the cache self-heals. Every
/// schedule derives from `--seed`, so a red run replays exactly.
fn chaos_soak(args: &[String]) -> Result<ExitCode, String> {
    let mut seed: u64 = 1;
    let mut schedules: u64 = 200;
    let mut rate: f64 = 0.3;
    let mut keep_going = false;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if let Some(v) = flag_value(a, "--seed", &mut iter)? {
            seed = v
                .parse()
                .map_err(|_| format!("--seed: invalid seed `{v}`"))?;
        } else if let Some(v) = flag_value(a, "--schedules", &mut iter)? {
            schedules = v
                .parse()
                .map_err(|_| format!("--schedules: invalid count `{v}`"))?;
        } else if let Some(v) = flag_value(a, "--rate", &mut iter)? {
            rate = v
                .parse()
                .map_err(|_| format!("--rate: invalid probability `{v}`"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("--rate: probability `{v}` out of [0, 1]"));
            }
        } else if a == "--keep-going" {
            keep_going = true;
        } else {
            return Err(format!("unknown argument `{a}` for `chaos soak`"));
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let work = std::env::temp_dir().join(format!("spo-chaos-soak-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let fixture_a = work.join("a.jir");
    let fixture_b = work.join("b.jir");
    std::fs::write(&fixture_a, CHAOS_FIXTURE_A).map_err(|e| format!("a.jir: {e}"))?;
    std::fs::write(&fixture_b, CHAOS_FIXTURE_B).map_err(|e| format!("b.jir: {e}"))?;

    // Fault-free baselines. Every invariant below compares against these
    // bytes, so a failed baseline is fatal, not a violation.
    let clean_a = soak_clean_run(&exe, &[&fixture_a], &[])?;
    let clean_ab = soak_clean_run(&exe, &[&fixture_a, &fixture_b], &[])?;
    let serve_baseline = soak_serve_schedule(&exe, &work, "baseline", &fixture_a, None)
        .map_err(|v| format!("chaos soak: clean serve baseline failed: {}", v.why))?
        .0;
    // Disarmed index export + query: the anchor for index-mode schedules.
    let index_a = work.join("a.spi");
    let export = std::process::Command::new(&exe)
        .arg("cache")
        .arg("export-index")
        .arg(&fixture_a)
        .arg("--out")
        .arg(&index_a)
        .args(["--name", "lib", "--jobs", "2"])
        .env_remove(spo_chaos::ENV_VAR)
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !export.status.success() {
        return Err(format!(
            "chaos soak: clean index export failed: {}",
            String::from_utf8_lossy(&export.stderr)
        ));
    }
    let query = std::process::Command::new(&exe)
        .arg("index")
        .arg("query")
        .arg("--index")
        .arg(&index_a)
        .env_remove(spo_chaos::ENV_VAR)
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !query.status.success() {
        return Err(format!(
            "chaos soak: clean index query baseline failed: {}",
            String::from_utf8_lossy(&query.stderr)
        ));
    }
    let index_baseline = query.stdout;

    let env = SoakEnv {
        exe,
        work: work.clone(),
        fixture_a,
        fixture_ab: fixture_b,
        rate,
        clean_a,
        clean_ab,
        serve_baseline,
        index_a,
        index_baseline,
    };
    let mut srng = spo_rng::SmallRng::seed_from_u64(seed);
    let (mut injected, mut recovered, mut violations) = (0u64, 0u64, 0u64);
    for k in 0..schedules {
        let schedule_seed = srng.next_u64();
        let mode = srng.gen_range(0..4u32);
        let (label, outcome) = match mode {
            0 => ("cache", soak_cache_schedule(&env, k, schedule_seed)),
            1 => ("engine", soak_engine_schedule(&env, schedule_seed)),
            2 => ("serve", soak_serve_mode_schedule(&env, k, schedule_seed)),
            _ => ("index", soak_index_schedule(&env, schedule_seed)),
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
                    "  replay soak:     spo chaos soak --seed {seed} --schedules {}",
                    k + 1
                );
                if !keep_going {
                    let _ = std::fs::remove_dir_all(&work);
                    println!("# soak: FAILED at schedule {k} of {schedules} (seed {seed})");
                    return Ok(ExitCode::from(EXIT_FINDINGS));
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    println!(
        "# soak: {schedules} schedule(s), {violations} violation(s), injected={injected} recovered={recovered} (seed {seed})"
    );
    Ok(if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    })
}

/// Runs `spo analyze` with faults disarmed, returning stdout. Exit must
/// be clean — these bytes anchor every later comparison.
fn soak_clean_run(
    exe: &std::path::Path,
    inputs: &[&std::path::PathBuf],
    extra: &[&str],
) -> Result<Vec<u8>, String> {
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("analyze");
    for i in inputs {
        cmd.arg(i);
    }
    cmd.args(extra)
        .args(["--jobs", "2"])
        .env_remove(spo_chaos::ENV_VAR);
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "chaos soak: clean baseline exited {:?}: {}",
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
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# chaos: ") {
            let mut injected = 0;
            let mut recovered = 0;
            for field in rest.split_whitespace() {
                if let Some(v) = field.strip_prefix("injected=") {
                    injected = v.parse().unwrap_or(0);
                } else if let Some(v) = field.strip_prefix("recovered=") {
                    recovered = v.parse().unwrap_or(0);
                }
            }
            return (injected, recovered);
        }
    }
    (0, 0)
}

/// Cache-mode schedule: two chaos-armed cached runs (cold then
/// file-extending), then a disarmed run over the same directory. All
/// three must exit clean with byte-identical stdout — injected cache
/// faults may cost recomputation and stderr warnings, never report bytes
/// or exit codes — and the disarmed flush must leave a healed cache file.
fn soak_cache_schedule(env: &SoakEnv, k: u64, seed: u64) -> Result<(u64, u64), SoakViolation> {
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
    let replay = format!(
        "SPO_CHAOS='{spec}' {} analyze {} --cache-dir {dir_s} --jobs 2",
        env.exe.display(),
        env.fixture_a.display(),
    );
    let mut totals = (0u64, 0u64);
    let runs: [(&[&std::path::PathBuf], &[u8], Option<&str>); 3] = [
        (&[&env.fixture_a], &env.clean_a, Some(spec.as_str())),
        (
            &[&env.fixture_a, &env.fixture_ab],
            &env.clean_ab,
            Some(spec.as_str()),
        ),
        // Disarmed: the cache must come back from whatever the faults
        // left on disk and the flush must land a cache file.
        (&[&env.fixture_a, &env.fixture_ab], &env.clean_ab, None),
    ];
    for (step, (inputs, want, chaos)) in runs.iter().enumerate() {
        let mut cmd = std::process::Command::new(&env.exe);
        cmd.arg("analyze");
        for i in *inputs {
            cmd.arg(i);
        }
        cmd.args(["--cache-dir", &dir_s, "--jobs", "2"]);
        match chaos {
            Some(spec) => cmd.env(spo_chaos::ENV_VAR, spec),
            None => cmd.env_remove(spo_chaos::ENV_VAR),
        };
        let out = cmd.output().map_err(|e| SoakViolation {
            why: format!("spawn failed: {e}"),
            replay: replay.clone(),
        })?;
        if out.status.code() != Some(0) {
            return Err(SoakViolation {
                why: format!(
                    "cache run {step} exited {:?} (cache faults must never change the exit code): {}",
                    out.status.code(),
                    String::from_utf8_lossy(&out.stderr)
                ),
                replay,
            });
        }
        if out.stdout != *want {
            return Err(SoakViolation {
                why: format!("cache run {step} stdout diverged from the fault-free report"),
                replay,
            });
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
        return Err(SoakViolation {
            why: "cache did not self-heal: no .spc file after a disarmed flush".to_owned(),
            replay,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(totals)
}

/// Engine-mode schedule: keyed per-root panics and delays. The run may
/// degrade (exit 2) but must not crash; surviving roots' report lines
/// must be a subset of the clean report (the `#` summary footer counts
/// change with the survivor set).
fn soak_engine_schedule(env: &SoakEnv, seed: u64) -> Result<(u64, u64), SoakViolation> {
    let spec = format!(
        "seed={seed},sites={}:{:.2}+{}:{:.2}",
        spo_chaos::sites::ENGINE_ROOT_PANIC,
        env.rate * 0.5,
        spo_chaos::sites::ENGINE_ROOT_DELAY,
        env.rate,
    );
    let replay = format!(
        "SPO_CHAOS='{spec}' {} analyze {} {} --jobs 2",
        env.exe.display(),
        env.fixture_a.display(),
        env.fixture_ab.display(),
    );
    let out = std::process::Command::new(&env.exe)
        .arg("analyze")
        .arg(&env.fixture_a)
        .arg(&env.fixture_ab)
        .args(["--jobs", "2"])
        .env(spo_chaos::ENV_VAR, &spec)
        .output()
        .map_err(|e| SoakViolation {
            why: format!("spawn failed: {e}"),
            replay: replay.clone(),
        })?;
    let code = out.status.code();
    if code != Some(0) && code != Some(i32::from(EXIT_DEGRADED)) {
        return Err(SoakViolation {
            why: format!(
                "engine run exited {code:?} (want 0 or 2): {}",
                String::from_utf8_lossy(&out.stderr)
            ),
            replay,
        });
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    if stderr.contains("panicked at") {
        return Err(SoakViolation {
            why: "an injected panic escaped the quarantine onto stderr".to_owned(),
            replay,
        });
    }
    let clean = String::from_utf8_lossy(&env.clean_ab);
    let clean_lines: std::collections::BTreeSet<&str> = clean.lines().collect();
    let got = String::from_utf8_lossy(&out.stdout);
    for line in got.lines().filter(|l| !l.starts_with('#')) {
        if !clean_lines.contains(line) {
            return Err(SoakViolation {
                why: format!("surviving-root output line not present in the clean report: {line}"),
                replay,
            });
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
fn soak_index_schedule(env: &SoakEnv, seed: u64) -> Result<(u64, u64), SoakViolation> {
    let spec = format!(
        "seed={seed},sites={}:{:.2}",
        spo_chaos::sites::INDEX_READ_BITFLIP,
        env.rate,
    );
    let replay = format!(
        "SPO_CHAOS='{spec}' {} index query --index {}",
        env.exe.display(),
        env.index_a.display(),
    );
    let out = std::process::Command::new(&env.exe)
        .arg("index")
        .arg("query")
        .arg("--index")
        .arg(&env.index_a)
        .env(spo_chaos::ENV_VAR, &spec)
        .output()
        .map_err(|e| SoakViolation {
            why: format!("spawn failed: {e}"),
            replay: replay.clone(),
        })?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if stderr.contains("panicked at") {
        return Err(SoakViolation {
            why: "index query panicked under a read bitflip".to_owned(),
            replay,
        });
    }
    match out.status.code() {
        Some(0) => {
            if out.stdout != env.index_baseline {
                return Err(SoakViolation {
                    why: "index query exited clean but its report diverged from the \
                          fault-free baseline (a flipped byte slipped past the checksum)"
                        .to_owned(),
                    replay,
                });
            }
        }
        Some(code) if code == i32::from(EXIT_FATAL) => {
            if !out.stdout.is_empty() {
                return Err(SoakViolation {
                    why: "index query failed but still wrote a partial report to stdout".to_owned(),
                    replay,
                });
            }
            if !stderr.contains("the index is unusable") {
                return Err(SoakViolation {
                    why: format!(
                        "index query exited 3 without the typed unusable-index diagnostic: {stderr}"
                    ),
                    replay,
                });
            }
        }
        code => {
            return Err(SoakViolation {
                why: format!("index query exited {code:?} (want 0 clean or 3 typed failure)"),
                replay,
            });
        }
    }
    Ok(parse_chaos_summary(&out.stderr))
}

/// Serve-mode schedule: a chaos-armed daemon (connection drops, stalls,
/// split frames) queried by a disarmed `spo rpc` client with retries.
/// The client must exit clean with stdout byte-identical to the
/// fault-free baseline — injected drops are the client's to absorb.
fn soak_serve_mode_schedule(env: &SoakEnv, k: u64, seed: u64) -> Result<(u64, u64), SoakViolation> {
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
    let (stdout, counts) =
        soak_serve_schedule(&env.exe, &env.work, &tag, &env.fixture_a, Some(&spec))?;
    if stdout != env.serve_baseline {
        return Err(SoakViolation {
            why: "rpc responses diverged from the fault-free baseline".to_owned(),
            replay: format!(
                "SPO_CHAOS='{spec}' {} serve --socket <SOCK> --load lib={} --jobs 2  # then: {} rpc --socket <SOCK> --retries 8 --retry-base-ms 10 '...'",
                env.exe.display(),
                env.fixture_a.display(),
                env.exe.display(),
            ),
        });
    }
    Ok(counts)
}

/// Starts one daemon (chaos-armed when `spec` is set), runs the fixed
/// request sequence through a disarmed retrying client, shuts the daemon
/// down, and returns the client's stdout plus the daemon's fault
/// counters.
fn soak_serve_schedule(
    exe: &std::path::Path,
    work: &std::path::Path,
    tag: &str,
    fixture: &std::path::Path,
    spec: Option<&str>,
) -> Result<(Vec<u8>, (u64, u64)), SoakViolation> {
    let sock = work.join(format!("sock-{tag}"));
    let _ = std::fs::remove_file(&sock);
    let replay = match spec {
        Some(s) => format!(
            "SPO_CHAOS='{s}' {} serve --socket {} --load lib={} --jobs 2",
            exe.display(),
            sock.display(),
            fixture.display(),
        ),
        None => format!(
            "{} serve --socket {} --load lib={} --jobs 2",
            exe.display(),
            sock.display(),
            fixture.display(),
        ),
    };
    let fail = |why: String| SoakViolation {
        why,
        replay: replay.clone(),
    };
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("serve")
        .arg("--socket")
        .arg(&sock)
        .arg("--load")
        .arg(format!("lib={}", fixture.display()))
        .args(["--jobs", "2", "--drain-grace", "5"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped());
    match spec {
        Some(s) => cmd.env(spo_chaos::ENV_VAR, s),
        None => cmd.env_remove(spo_chaos::ENV_VAR),
    };
    let mut daemon = cmd
        .spawn()
        .map_err(|e| fail(format!("daemon spawn failed: {e}")))?;
    // Wait for the socket to come up; a daemon that dies first is a
    // violation in itself.
    let t0 = std::time::Instant::now();
    while !sock.exists() {
        if let Ok(Some(status)) = daemon.try_wait() {
            let mut err = String::new();
            if let Some(mut pipe) = daemon.stderr.take() {
                use std::io::Read;
                let _ = pipe.read_to_string(&mut err);
            }
            return Err(fail(format!(
                "daemon exited {status:?} before binding: {err}"
            )));
        }
        if t0.elapsed() > Duration::from_secs(10) {
            let _ = daemon.kill();
            let _ = daemon.wait();
            return Err(fail("daemon never bound its socket within 10s".to_owned()));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut client = std::process::Command::new(exe);
    client
        .arg("rpc")
        .arg("--socket")
        .arg(&sock)
        .args(["--retries", "8", "--retry-base-ms", "10"])
        .args(SOAK_RPC_REQUESTS)
        .env_remove(spo_chaos::ENV_VAR);
    let out = client
        .output()
        .map_err(|e| fail(format!("client spawn failed: {e}")))?;
    // Shut the daemon down; losing the shutdown *response* to an injected
    // drop is fine (the daemon still exits), so the client verdict for
    // this request is advisory.
    let _ = std::process::Command::new(exe)
        .arg("rpc")
        .arg("--socket")
        .arg(&sock)
        .arg(r#"{"spo-rpc":1,"id":99,"method":"shutdown"}"#)
        .env_remove(spo_chaos::ENV_VAR)
        .output();
    let t1 = std::time::Instant::now();
    let status = loop {
        match daemon.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if t1.elapsed() > Duration::from_secs(10) => {
                let _ = daemon.kill();
                let _ = daemon.wait();
                return Err(fail(
                    "daemon did not exit within 10s of shutdown".to_owned(),
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => {
                let _ = daemon.kill();
                return Err(fail(format!("daemon wait failed: {e}")));
            }
        }
    };
    let mut daemon_err = String::new();
    if let Some(mut pipe) = daemon.stderr.take() {
        use std::io::Read;
        let _ = pipe.read_to_string(&mut daemon_err);
    }
    if !status.success() {
        return Err(fail(format!(
            "daemon exited {:?} after drain: {daemon_err}",
            status.code()
        )));
    }
    if daemon_err.contains("panicked at") {
        return Err(fail(
            "a daemon thread panicked under injected faults".to_owned(),
        ));
    }
    if out.status.code() != Some(0) {
        return Err(fail(format!(
            "rpc client exited {:?} (retries must absorb injected drops): {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )));
    }
    let counts = parse_chaos_summary(daemon_err.as_bytes());
    let _ = std::fs::remove_file(&sock);
    Ok((out.stdout, counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn extract_jobs_space_form() {
        let (jobs, rest) = extract_jobs(&argv(&["a.jir", "--jobs", "4", "--lint"])).unwrap();
        assert_eq!(jobs, 4);
        assert_eq!(rest, argv(&["a.jir", "--lint"]));
    }

    #[test]
    fn extract_jobs_equals_form() {
        let (jobs, rest) = extract_jobs(&argv(&["--jobs=2", "a.jir"])).unwrap();
        assert_eq!(jobs, 2);
        assert_eq!(rest, argv(&["a.jir"]));
    }

    #[test]
    fn extract_jobs_absent_defaults_to_all_cpus() {
        let (jobs, rest) = extract_jobs(&argv(&["a.jir"])).unwrap();
        assert_eq!(jobs, 0);
        assert_eq!(rest, argv(&["a.jir"]));
    }

    #[test]
    fn extract_jobs_missing_value_is_an_error() {
        let err = extract_jobs(&argv(&["a.jir", "--jobs"])).unwrap_err();
        assert!(err.contains("--jobs needs a value"), "{err}");
    }

    #[test]
    fn extract_jobs_rejects_zero() {
        for form in [&["--jobs", "0"][..], &["--jobs=0"][..]] {
            let err = extract_jobs(&argv(form)).unwrap_err();
            assert!(err.contains("at least 1"), "{err}");
        }
    }

    #[test]
    fn extract_jobs_rejects_non_numeric() {
        for bad in ["many", "-3", "2.5", ""] {
            let err = extract_jobs(&argv(&["--jobs", bad])).unwrap_err();
            assert!(err.contains("invalid worker count"), "{bad}: {err}");
        }
    }

    #[test]
    fn extract_stats_both_forms() {
        let (opts, rest) =
            extract_stats(&argv(&["a.jir", "--stats", "--stats-json", "out.json"])).unwrap();
        assert!(opts.human);
        assert_eq!(opts.json_path.as_deref(), Some("out.json"));
        assert!(opts.enabled());
        assert_eq!(rest, argv(&["a.jir"]));

        let (opts, rest) = extract_stats(&argv(&["--stats-json=x.json", "a.jir"])).unwrap();
        assert!(!opts.human);
        assert_eq!(opts.json_path.as_deref(), Some("x.json"));
        assert_eq!(rest, argv(&["a.jir"]));
    }

    #[test]
    fn extract_stats_absent_is_disabled() {
        let (opts, rest) = extract_stats(&argv(&["a.jir", "--lint"])).unwrap();
        assert!(!opts.enabled());
        assert!(!opts.recorder().is_enabled());
        assert_eq!(rest, argv(&["a.jir", "--lint"]));
    }

    #[test]
    fn extract_stats_missing_path_is_an_error() {
        let err = extract_stats(&argv(&["--stats-json"])).unwrap_err();
        assert!(err.contains("needs a file path"), "{err}");
    }

    #[test]
    fn extract_guard_rejects_zero_budgets() {
        // 0 is the Budget-internal "unlimited" sentinel: before the fix it
        // was accepted and silently disabled the requested limit.
        for form in [
            &["--budget-steps", "0"][..],
            &["--budget-steps=0"][..],
            &["--budget-frames", "0"][..],
            &["--budget-frames=0"][..],
            &["--timeout-ms", "0"][..],
            &["--timeout-ms=0"][..],
        ] {
            let err = extract_guard(&argv(form)).unwrap_err();
            assert!(err.contains("at least 1"), "{form:?}: {err}");
            assert!(
                err.contains("omit the flag for unlimited"),
                "{form:?}: {err}"
            );
        }
    }

    #[test]
    fn extract_guard_accepts_positive_budgets() {
        let (guard, rest) = extract_guard(&argv(&[
            "a.jir",
            "--budget-steps",
            "5",
            "--budget-frames=7",
        ]))
        .unwrap();
        assert_eq!(guard.budget.max_steps, 5);
        assert_eq!(guard.budget.max_frames, 7);
        assert_eq!(rest, argv(&["a.jir"]));
    }

    #[test]
    fn extract_guard_timeout_ms_sets_a_deadline() {
        let (guard, rest) = extract_guard(&argv(&["a.jir", "--timeout-ms", "250"])).unwrap();
        let deadline = guard.budget.deadline.expect("deadline set");
        assert!(deadline <= std::time::Instant::now() + Duration::from_millis(250));
        assert_eq!(rest, argv(&["a.jir"]));
    }

    #[test]
    fn extract_cache_both_forms() {
        let (dir, rest) = extract_cache(&argv(&["a.jir", "--cache-dir", "/tmp/c"])).unwrap();
        assert_eq!(dir.as_deref(), Some("/tmp/c"));
        assert_eq!(rest, argv(&["a.jir"]));

        let (dir, rest) = extract_cache(&argv(&["--cache-dir=/tmp/c", "a.jir"])).unwrap();
        assert_eq!(dir.as_deref(), Some("/tmp/c"));
        assert_eq!(rest, argv(&["a.jir"]));
    }

    #[test]
    fn extract_cache_no_cache_wins() {
        let (dir, rest) =
            extract_cache(&argv(&["--cache-dir", "/tmp/c", "--no-cache", "a.jir"])).unwrap();
        assert_eq!(dir, None);
        assert_eq!(rest, argv(&["a.jir"]));
    }

    #[test]
    fn extract_cache_missing_value_is_an_error() {
        let err = extract_cache(&argv(&["--cache-dir"])).unwrap_err();
        assert!(err.contains("--cache-dir needs a value"), "{err}");
    }

    #[test]
    fn unknown_flags_are_named_in_the_error() {
        let err = reject_unknown_flags("check", &["--lint", "--wat"], &["--lint"]).unwrap_err();
        assert!(err.contains("--wat"), "{err}");
        assert!(err.contains("check"), "{err}");
        // `=value` forms report the bare flag name.
        let err = reject_unknown_flags("throws", &["--frob=3"], &[]).unwrap_err();
        assert!(err.contains("unknown flag `--frob`"), "{err}");
    }

    #[test]
    fn guard_flags_get_a_pointed_rejection_from_check() {
        for f in GUARD_FLAG_NAMES {
            let err = reject_unknown_flags("check", &[f], &["--lint"]).unwrap_err();
            assert!(err.contains(f), "{err}");
            assert!(err.contains("no policy analysis"), "{err}");
        }
    }
}
