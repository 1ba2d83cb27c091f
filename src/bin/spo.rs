//! `spo` — the security policy oracle command-line interface.
//!
//! ```text
//! spo check <file.jir>...                       parse & validate, print stats
//! spo analyze <file.jir>...                     print per-entry security policies
//! spo export <file.jir>... --out PATH.spi       compile the policies into an index
//! spo diff <left.jir>... --vs <right.jir>...    run the oracle over two implementations
//! spo throws <left.jir>... --vs <right.jir>...  diff exception behaviour
//! spo stats-validate <snapshot.json>            check a stats or trace snapshot
//! spo cache (stats|clear) --cache-dir PATH      inspect or empty the summary cache
//! spo index (query|diff) ...                    answer from exported `.spi` indexes
//! spo (serve|rpc|trace) ...                     resident oracle daemon and its clients
//! ```
//!
//! Each command's operands and flags are one row of [`COMMANDS`]; the
//! parser and the `spo --help` synopsis both read that table.
//!
//! Multiple `.jir` files per side are layered into one program (e.g. a
//! shared runtime prelude plus the implementation).

use security_policy_oracle::compare_implementations_with;
use security_policy_oracle::guard::{exit_code, CancelToken, Diagnostic, GuardConfig};
use security_policy_oracle::obs::trace::{self, Tracer};
use security_policy_oracle::obs::{self, Recorder};
use spo_cache::PolicyCache;
use spo_core::{AnalysisOptions, EventDef};
use spo_engine::{AnalysisEngine, Instruments};
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
        Some("--help" | "-h" | "help") | None => {
            eprint!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(_) => dispatch(&args),
    };
    let code = match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(EXIT_FATAL)
        }
    };
    // One machine-parseable summary line per chaos-armed process:
    // `spo-soak` reads these from child stderr to attribute fault counts.
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

/// One row of the flag table: the flag's name and the metavar of its
/// value (`None` for a switch).
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
}

const fn switch(name: &'static str) -> Flag {
    Flag { name, value: None }
}

const fn valued(name: &'static str, metavar: &'static str) -> Flag {
    Flag {
        name,
        value: Some(metavar),
    }
}

const LINT: Flag = switch("--lint");
const NAME: Flag = valued("--name", "NAME");
const NO_ICP: Flag = switch("--no-icp");
const BROAD: Flag = switch("--broad");
const INTRA_ONLY: Flag = switch("--intra-only");
const HTML: Flag = switch("--html");
const JOBS: Flag = valued("--jobs", "N");
const BUDGET_STEPS: Flag = valued("--budget-steps", "N");
const BUDGET_FRAMES: Flag = valued("--budget-frames", "N");
const DEADLINE: Flag = valued("--deadline", "SECS");
const TIMEOUT_MS: Flag = valued("--timeout-ms", "N");
const CACHE_DIR: Flag = valued("--cache-dir", "PATH");
const NO_CACHE: Flag = switch("--no-cache");
const STATS: Flag = switch("--stats");
const STATS_JSON: Flag = valued("--stats-json", "PATH");
const TRACE_OUT: Flag = valued("--trace-out", "PATH");
const SCHEMA: Flag = valued("--schema", "spo-stats/1|spo-trace/1");
const OUT_SPI: Flag = valued("--out", "PATH.spi");
const INDEX: Flag = valued("--index", "PATH.spi");
const SOCKET: Flag = valued("--socket", "PATH");
const TCP: Flag = valued("--tcp", "ADDR");
const WORKERS: Flag = valued("--workers", "N");
const LOAD: Flag = valued("--load", "NAME=FILE[,FILE...]");
const SERVE_INDEX: Flag = valued("--index", "NAME=PATH.spi");
const DEFAULT_TIMEOUT_MS: Flag = valued("--default-timeout-ms", "N");
const WRITE_TIMEOUT_MS: Flag = valued("--write-timeout-ms", "N");
const MAX_LINE_BYTES: Flag = valued("--max-line-bytes", "N");
const DRAIN_GRACE: Flag = valued("--drain-grace", "SECS");
const RETRIES: Flag = valued("--retries", "N");
const RETRY_BASE_MS: Flag = valued("--retry-base-ms", "N");
const TRACE_ID: Flag = valued("--trace-id", "ID");
const OUT: Flag = valued("--out", "PATH");

/// The analysis options every policy-analysis command takes.
const OPTIONS: &[Flag] = &[NO_ICP, BROAD, INTRA_ONLY];
/// The degraded-mode limits. A command that runs no analysis gives these
/// a pointed rejection.
const GUARD: &[Flag] = &[BUDGET_STEPS, BUDGET_FRAMES, DEADLINE, TIMEOUT_MS];
const CACHE: &[Flag] = &[CACHE_DIR, NO_CACHE];
const OBSERVE: &[Flag] = &[STATS, STATS_JSON, TRACE_OUT];

/// One command's row: its name (an action carries its group's name, as
/// in `cache stats`), its operand synopsis, the flag groups it accepts,
/// and the function that runs it. A flag named in the operand synopsis is
/// required and shown bare rather than bracketed; a `--vs` there separates
/// the two implementations and is passed through as an operand. A command
/// with no operand synopsis takes no operands.
struct Command {
    name: &'static str,
    operands: &'static str,
    flags: &'static [&'static [Flag]],
    run: fn(&Parsed) -> Result<ExitCode, String>,
}

/// Every command, in `--help` order.
static COMMANDS: [Command; 13] = [
    Command {
        name: "check",
        operands: "<file.jir>...",
        flags: &[&[LINT, JOBS], OBSERVE],
        run: cmd_check,
    },
    Command {
        name: "analyze",
        operands: "<file.jir>...",
        flags: &[OPTIONS, &[JOBS], GUARD, CACHE, OBSERVE],
        run: cmd_analyze,
    },
    Command {
        name: "export",
        operands: "<file.jir>... --out PATH.spi",
        flags: &[&[OUT_SPI, NAME], OPTIONS, &[JOBS], GUARD, CACHE, OBSERVE],
        run: cmd_export,
    },
    Command {
        name: "diff",
        operands: "<left.jir>... --vs <right.jir>...",
        flags: &[OPTIONS, &[HTML, JOBS], GUARD, CACHE, OBSERVE],
        run: cmd_diff,
    },
    Command {
        name: "throws",
        operands: "<left.jir>... --vs <right.jir>...",
        flags: &[],
        run: cmd_throws,
    },
    Command {
        name: "stats-validate",
        operands: "<snapshot.json>",
        flags: &[&[SCHEMA]],
        run: cmd_stats_validate,
    },
    Command {
        name: "cache stats",
        operands: "--cache-dir PATH",
        flags: &[CACHE],
        run: cmd_cache_stats,
    },
    Command {
        name: "cache clear",
        operands: "--cache-dir PATH",
        flags: &[CACHE],
        run: cmd_cache_clear,
    },
    Command {
        name: "index query",
        operands: "[ENTRY-SIG] --index PATH.spi",
        flags: &[&[INDEX], OBSERVE],
        run: cmd_index_query,
    },
    Command {
        name: "index diff",
        operands: "<left.spi> <right.spi>",
        flags: &[OBSERVE],
        run: cmd_index_diff,
    },
    Command {
        name: "serve",
        operands: "",
        flags: &[
            &[SOCKET, TCP, WORKERS, JOBS, LOAD, SERVE_INDEX],
            CACHE,
            &[
                DEFAULT_TIMEOUT_MS,
                WRITE_TIMEOUT_MS,
                MAX_LINE_BYTES,
                DRAIN_GRACE,
            ],
            GUARD,
            &[STATS, STATS_JSON],
        ],
        run: cmd_serve,
    },
    Command {
        name: "rpc",
        operands: "<request-json>...",
        flags: &[&[SOCKET, TCP, STATS_JSON, RETRIES, RETRY_BASE_MS]],
        run: cmd_rpc,
    },
    Command {
        name: "trace",
        operands: "",
        flags: &[&[SOCKET, TCP, TRACE_ID, OUT]],
        run: cmd_trace,
    },
];

/// Finds the row `args` names and runs it on the rest of `args`.
fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    for command in &COMMANDS {
        let words = command.name.split(' ').count();
        let names = |head: &[String]| command.name.split(' ').eq(head.iter().map(String::as_str));
        if args.get(..words).is_some_and(names) {
            return (command.run)(&command.parse(&args[words..])?);
        }
    }
    let group = args[0].as_str();
    let actions: Vec<&str> = COMMANDS
        .iter()
        .filter_map(|c| c.name.strip_prefix(group)?.strip_prefix(' '))
        .collect();
    match (actions.is_empty(), args.get(1)) {
        (true, _) => Err(format!("unknown command `{group}`\n{}", usage())),
        (false, Some(action)) => Err(format!(
            "{group}: unknown action `{action}` (use {})",
            actions.join(", ")
        )),
        (false, None) => Err(format!("{group} needs an action: {}", actions.join(", "))),
    }
}

/// One command line, parsed against its command's row.
#[derive(Debug)]
struct Parsed {
    command: &'static str,
    operands: Vec<String>,
    /// Every flag given, in order, with its value (empty for a switch).
    flags: Vec<(&'static str, String)>,
}

impl Command {
    fn accepted(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// The one parse pass: splits `args` into operands and flag values,
    /// rejecting flags this command does not take, a switch given a value
    /// and a value flag missing one.
    fn parse(&self, args: &[String]) -> Result<Parsed, String> {
        let separates = self.operands.contains(" --vs ");
        let mut parsed = Parsed {
            command: self.name,
            operands: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") || (separates && arg == "--vs") {
                if self.operands.is_empty() {
                    return Err(format!("unexpected argument `{arg}` for `{}`", self.name));
                }
                parsed.operands.push(arg.clone());
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            let flag = self
                .accepted()
                .find(|f| f.name == name)
                .ok_or_else(|| self.reject(name))?;
            let value = match (flag.value, inline) {
                (None, None) => String::new(),
                (None, Some(_)) => return Err(format!("{name} takes no value")),
                (Some(_), Some(value)) => value.to_owned(),
                (Some(_), None) => args
                    .next()
                    .ok_or_else(|| format!("{name} needs a value"))?
                    .clone(),
            };
            parsed.flags.push((flag.name, value));
        }
        Ok(parsed)
    }

    /// Names a flag this command does not take. Guard flags get an
    /// explicit "wrong command" message instead of `unknown flag` so the
    /// user learns the flag exists but does not apply here.
    fn reject(&self, name: &str) -> String {
        if GUARD.iter().any(|f| f.name == name) {
            format!(
                "{name}: `{}` runs no policy analysis, so degraded-mode limits do not \
                 apply (use analyze, export, or diff)",
                self.name
            )
        } else {
            format!("unknown flag `{name}` for `{}`", self.name)
        }
    }

    /// This command's `--help` line: operands, then every flag not
    /// already named among the operands.
    fn synopsis(&self) -> String {
        let mut line = format!("spo {} {}", self.name, self.operands);
        line.truncate(line.trim_end().len());
        let named = |f: &&Flag| self.operands.split_whitespace().any(|w| w == f.name);
        for flag in self.accepted().filter(|f| !named(f)) {
            let value = flag.value.map(|metavar| format!(" {metavar}"));
            line.push_str(&format!(" [{}{}]", flag.name, value.unwrap_or_default()));
        }
        line
    }
}

impl Parsed {
    fn given(&self, flag: &Flag) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag.name)
    }

    /// Every value given to a repeatable flag, in order.
    fn values<'a>(&'a self, flag: &Flag) -> impl Iterator<Item = &'a str> {
        let wanted = flag.name;
        self.flags
            .iter()
            .filter(move |(name, _)| *name == wanted)
            .map(|(_, value)| value.as_str())
    }

    /// The value of a single-valued flag: the last one given wins.
    fn value(&self, flag: &Flag) -> Option<&str> {
        self.values(flag).last()
    }

    /// The flag's value read as a `T`.
    fn read<T: std::str::FromStr>(&self, flag: &Flag, what: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{}: invalid {what} `{v}`", flag.name))
            })
            .transpose()
    }

    /// A positive count. Zero is refused rather than passed on: inner
    /// layers read 0 as "unlimited" or "the default", which would silently
    /// drop the limit the user asked for.
    fn count<T: std::str::FromStr + Default + PartialEq>(
        &self,
        flag: &Flag,
        what: &str,
        omitted: &str,
    ) -> Result<Option<T>, String> {
        match self.read(flag, what)? {
            Some(n) if n == T::default() => Err(format!(
                "{}: {what} must be at least 1 (omit the flag {omitted})",
                flag.name
            )),
            n => Ok(n),
        }
    }

    /// A non-negative, finite number of seconds.
    fn seconds(&self, flag: &Flag) -> Result<Option<Duration>, String> {
        self.read(flag, "seconds")?
            .map(|secs| {
                Duration::try_from_secs_f64(secs)
                    .map_err(|_| format!("{}: invalid seconds `{secs}`", flag.name))
            })
            .transpose()
    }

    /// Every `NAME=VALUE` given to a repeatable flag, both halves
    /// non-empty.
    fn pairs(&self, flag: &Flag) -> Result<Vec<(String, String)>, String> {
        self.values(flag)
            .map(|v| match v.split_once('=') {
                Some((name, value)) if !name.is_empty() && !value.is_empty() => {
                    Ok((name.to_owned(), value.to_owned()))
                }
                _ => Err(format!(
                    "{}: expected {}, got `{v}`",
                    flag.name,
                    flag.value.unwrap_or_default()
                )),
            })
            .collect()
    }

    /// The two implementations on either side of `--vs`.
    fn sides(&self) -> Result<(&[String], &[String]), String> {
        match self.operands.iter().position(|a| a == "--vs") {
            Some(vs) => Ok((&self.operands[..vs], &self.operands[vs + 1..])),
            None => Err(format!(
                "{} needs `--vs` separating the two implementations",
                self.command
            )),
        }
    }
}

/// `--jobs N`: the analysis worker count (0 = one per CPU, the
/// flag-absent default).
fn jobs(p: &Parsed) -> Result<usize, String> {
    Ok(p.count(&JOBS, "worker count", "to use all CPUs")?
        .unwrap_or(0))
}

/// The degraded-mode limits of [`GUARD`], wired to the process-wide
/// Ctrl-C token.
fn guard(p: &Parsed) -> Result<GuardConfig, String> {
    let mut guard = GuardConfig::default();
    if let Some(n) = p.count(&BUDGET_STEPS, "step budget", "for unlimited")? {
        guard.budget = guard.budget.steps(n);
    }
    if let Some(n) = p.count(&BUDGET_FRAMES, "frame budget", "for unlimited")? {
        guard.budget = guard.budget.frames(n);
    }
    if let Some(d) = p.seconds(&DEADLINE)? {
        guard.budget = guard.budget.deadline_in(d);
    }
    // Alias for `--deadline` in milliseconds, matching the serve
    // protocol's per-request `timeout_ms` field.
    if let Some(n) = p.count(&TIMEOUT_MS, "timeout", "for unlimited")? {
        guard.budget = guard.budget.deadline_in(Duration::from_millis(n));
    }
    guard.cancel = cancel_token();
    Ok(guard)
}

/// `--cache-dir PATH`, unless `--no-cache` disables it for this run.
fn cache_dir(p: &Parsed) -> Option<&str> {
    if p.given(&NO_CACHE) {
        None
    } else {
        p.value(&CACHE_DIR)
    }
}

fn options(p: &Parsed) -> AnalysisOptions {
    let mut options = AnalysisOptions::default();
    if p.given(&NO_ICP) {
        options.icp = false;
    }
    if p.given(&BROAD) {
        options.events = EventDef::Broad;
    }
    if p.given(&INTRA_ONLY) {
        options.interprocedural = false;
    }
    options
}

fn usage() -> String {
    let mut text =
        String::from("spo — security policy oracle (PLDI 2011 reproduction)\n\nUSAGE:\n");
    for command in &COMMANDS {
        text.push_str(&format!("  {}\n", command.synopsis()));
    }
    text + USAGE_NOTES
}

const USAGE_NOTES: &str = "
Every value flag takes `--flag VALUE` or `--flag=VALUE`; a switch takes
no value. `--load`, `--index` (on `serve`) may repeat; for any other
flag the last one given wins. `serve` needs `--socket PATH` or
`--tcp ADDR`; `rpc` and `trace` need exactly one of them.

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
other sessions. The daemon takes the step and frame budgets but refuses
`--deadline`/`--timeout-ms`. `spo rpc` sends request lines to a running
daemon and prints the responses (exit: 0 ok, 2 any degraded, 3 any error).

`--trace-out PATH` writes a flight-recorder timeline of the run as
Chrome-trace JSON (`spo-trace/1`): one lane per engine worker, per-root
spans, dataflow fixpoint spans, shard lock-wait events, and cache
hit/miss instants. Load the file in Perfetto (ui.perfetto.dev) or
chrome://tracing. Tracing is wall-clock telemetry only — report bytes
and `--stats-json` output are byte-identical with or without it. Against
a daemon, put a `trace_id` field in any `spo rpc` request to capture
that request's timeline, then fetch it with `spo trace`.

Every command honours the `SPO_CHAOS` environment variable
(`seed=N[,rate=P][,delay_ms=N][,sites=SITE[:RATE|:once|~NEEDLE][+SITE...]]`,
`sites=all` arms everything): a deterministic fault-injection plan that
fires at named sites in the cache, the engine, and the daemon. The same
seed replays the same fault schedule. `SITE~NEEDLE` fires exactly where
the key (for engine sites, the entry-point signature) contains NEEDLE,
e.g. `sites=engine.root.panic~DatagramSocket.connect` quarantines that
root; `delay_ms=N` makes every `engine.root.delay` sleep N ms. A
chaos-armed process prints a one-line `# chaos:` summary to stderr at
exit; the separate `spo-soak` binary drives seeded fault schedules
through it. `spo rpc` retries idempotent requests over a dropped
connection with exponential backoff (`--retries`, `--retry-base-ms`);
`spo serve --write-timeout-ms N` bounds each response write, shedding
clients that stall past it.

`spo export` compiles a library's full analysis (plus its
intraprocedural ablation) into a single-file index (`spo-index/3`,
conventionally `policies.spi`): an interned, checksummed, offset-table
file answering `query`/`diff` in sub-millisecond time without rerunning
the engine or seeing the source. `spo index query` looks up one entry
point (or lists the whole library); `spo index diff` runs the oracle
over two indexes. Both print bytes identical to the `analyze`/`diff`
path; with `--stats` or `--trace-out` they time their read, parse,
decode and render (or diff) steps as `index.*` spans. A corrupt,
truncated, or version-skewed index is a fatal typed error (exit 3) —
re-export it or fall back to full analysis; it never yields a wrong
answer. `spo serve --index NAME=PATH.spi` seeds NAME's
warm answers from an index for the options it was exported under; a
`load`/`reload` of NAME drops them, and a name with no `--load` is
index-only (other options get `not-found`). An index that fails to load
is a stderr diagnostic, and NAME falls back to full analysis.

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

/// The outputs a command's observability flags ask for, and the tracer
/// that fills the capture.
#[derive(Debug)]
struct Outputs {
    /// `--stats`: render the human-readable summary to stderr.
    human: bool,
    /// `--stats-json PATH`: write the `spo-stats/1` snapshot (`-` = stdout).
    json_path: Option<String>,
    /// `--trace-out PATH`: write the run's flight-recorder capture.
    trace_path: Option<String>,
    /// Enabled when a capture was requested, else the never-reads-the-clock
    /// disabled tracer.
    tracer: Tracer,
    /// The `cli` lane, bound to this thread while the command runs: the
    /// phase spans outside the engine (`jir.parse`, `resolve.callgraph`)
    /// land on it, and the engine's lanes nest under its binding.
    _cli: trace::Bound,
}

impl Outputs {
    fn new(p: &Parsed) -> Outputs {
        let trace_path = p.value(&TRACE_OUT).map(str::to_owned);
        let tracer = if trace_path.is_some() {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        Outputs {
            human: p.given(&STATS),
            json_path: p.value(&STATS_JSON).map(str::to_owned),
            trace_path,
            _cli: trace::bind(&tracer.lane("cli")),
            tracer,
        }
    }

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

    /// Writes the finished capture, then the stats outputs from the
    /// recorder's final snapshot. Called strictly after the report has
    /// been printed, so even a write failure cannot perturb stdout.
    fn emit(&self, rec: &Recorder) -> Result<(), String> {
        if let Some(path) = &self.trace_path {
            let tracer = &self.tracer;
            std::fs::write(path, tracer.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "# trace: {} event(s) ({} dropped) -> {path}",
                tracer.event_count(),
                tracer.dropped()
            );
        }
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

/// One policy-analysis run as its flags set it up: the engine (jobs,
/// instruments, cache), the outputs its ending writes, and the
/// diagnostics it collects on the way.
struct Run {
    engine: AnalysisEngine,
    cache: Option<Arc<PolicyCache>>,
    instruments: Instruments,
    outputs: Outputs,
    diags: Vec<Diagnostic>,
}

impl Run {
    /// Only failing to create/open the cache directory itself is fatal;
    /// unusable cache *entries* degrade to cold roots at lookup time.
    fn new(p: &Parsed) -> Result<Run, String> {
        let outputs = Outputs::new(p);
        let instruments = Instruments {
            recorder: outputs.recorder(),
            tracer: outputs.tracer.clone(),
            guard: guard(p)?,
            ..Instruments::default()
        };
        let mut engine = AnalysisEngine::new(jobs(p)?).with_instruments(instruments.clone());
        let cache = match cache_dir(p) {
            None => None,
            Some(dir) => {
                let cache = Arc::new(
                    PolicyCache::open(dir).map_err(|e| format!("--cache-dir {dir}: {e}"))?,
                );
                engine = engine.with_cache(Arc::clone(&cache));
                Some(cache)
            }
        };
        Ok(Run {
            engine,
            cache,
            instruments,
            outputs,
            diags: Vec::new(),
        })
    }

    fn load(&mut self, paths: &[String]) -> Result<Program, String> {
        load_program(paths, &self.instruments.recorder, &mut self.diags)
    }

    /// The shared ending, after the report is printed: cache warnings,
    /// the trace capture, the stats outputs, then the exit-code fold over
    /// every diagnostic plus the analysis' `degraded` roots.
    ///
    /// Cache warnings stay out of the fold: an unusable cache entry only
    /// means the root ran cold — the report is complete and exact, so the
    /// run must not claim the degraded exit state.
    fn finish<'a>(
        mut self,
        degraded: impl IntoIterator<Item = &'a Diagnostic>,
        findings: bool,
    ) -> Result<ExitCode, String> {
        if let Some(cache) = &self.cache {
            let mut diags = cache.take_diagnostics();
            diags.sort();
            for d in &diags {
                eprintln!("{d}");
            }
        }
        self.diags.extend(degraded.into_iter().cloned());
        self.outputs.emit(&self.instruments.recorder)?;
        Ok(finish(&self.diags, findings))
    }
}

/// Loads and layers the given `.jir` files through the engine's
/// recovering loader ([`spo_engine::load_program`]).
fn load_program(
    paths: &[String],
    rec: &Recorder,
    diags: &mut Vec<Diagnostic>,
) -> Result<Program, String> {
    if paths.is_empty() {
        return Err("no input files".to_owned());
    }
    spo_engine::load_program(paths, rec, diags)
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
    }
    ExitCode::from(exit_code(diags, findings))
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

fn cmd_check(p: &Parsed) -> Result<ExitCode, String> {
    // `check` runs no policy analysis; `--jobs` is accepted (and checked)
    // for interface uniformity with `analyze`/`diff`.
    jobs(p)?;
    let outputs = Outputs::new(p);
    let rec = outputs.recorder();
    let mut diags = Vec::new();
    let program = load_program(&p.operands, &rec, &mut diags)?;
    let hierarchy = spo_resolve::Hierarchy::new(&program);
    let cg = {
        let _span = rec.span("resolve.callgraph");
        spo_resolve::CallGraph::from_entry_points(&hierarchy)
    };
    cg.record_into(&rec);
    let stats = cg.stats();
    println!(
        "{} classes, {} statements, {} entry points, {} reachable methods",
        program.class_count(),
        program.stmt_count(),
        cg.roots().len(),
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
    if p.given(&LINT) {
        let lints = spo_resolve::lint_program(&program);
        for l in &lints {
            println!("lint: {} (stmt {}): {}", l.location, l.stmt, l.kind);
        }
        println!("{} lint finding(s)", lints.len());
        findings = !lints.is_empty();
    }
    outputs.emit(&rec)?;
    Ok(finish(&diags, findings))
}

fn cmd_analyze(p: &Parsed) -> Result<ExitCode, String> {
    let mut run = Run::new(p)?;
    let program = run.load(&p.operands)?;
    let (lib, _stats) = run.engine.analyze_library(&program, "input", options(p));
    // The daemon's `analyze`/`query` responses embed this same string, so
    // resident and one-shot reports stay byte-identical by construction.
    print_report(&spo_core::render_analysis(&lib))?;
    run.finish(lib.degraded.values(), false)
}

/// `spo export <file.jir>... --out PATH.spi`: run the full analysis plus
/// its intraprocedural ablation and compile both into one `spo-index/3`
/// file. Compiling a degraded analysis is refused — an index is durable,
/// so baking in a lower-bound answer would let it masquerade as the
/// complete one forever after.
fn cmd_export(p: &Parsed) -> Result<ExitCode, String> {
    let out = p
        .value(&OUT_SPI)
        .ok_or("export: `--out PATH` is required")?;
    let name = p.value(&NAME).unwrap_or("library");
    let options = options(p);
    if !options.interprocedural {
        return Err(
            "export: drop `--intra-only` — the index always stores both the \
             full and the intraprocedural analysis"
                .to_owned(),
        );
    }
    let mut run = Run::new(p)?;
    let program = run.load(&p.operands)?;
    if !run.diags.is_empty() {
        for d in &run.diags {
            eprintln!("{d}");
        }
        return Err("export: refusing to compile an index from a degraded parse".to_owned());
    }
    let (full, stats) = run.engine.analyze_library(&program, name, options);
    let intra_options = AnalysisOptions {
        interprocedural: false,
        ..options
    };
    let (intra, _) = run.engine.analyze_library(&program, name, intra_options);
    // Cone fingerprints let a later run detect staleness without
    // reanalysis; they use the same keyer as the summary cache.
    let fingerprints = spo_cache::entry_fingerprints(&program, &options);
    let bytes = spo_index::IndexBuilder::new(name, &options, &full, &intra)
        .fingerprints(&fingerprints)
        .build()
        .map_err(|e| format!("export: {e}"))?;
    // The cache's durable writer: a failed write leaves the previous
    // index at `out` untouched.
    spo_index::write_index_file(std::path::Path::new(out), &bytes, &spo_chaos::current())
        .result
        .map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "spo export: wrote {out}: {} entry points, {} bytes",
        stats.entry_points,
        bytes.len(),
    );
    run.finish([], false)
}

fn cmd_diff(p: &Parsed) -> Result<ExitCode, String> {
    let (left_paths, right_paths) = p.sides()?;
    let mut run = Run::new(p)?;
    let left = run.load(left_paths)?;
    let right = run.load(right_paths)?;
    let report =
        compare_implementations_with(&left, "left", &right, "right", options(p), &run.engine);
    if p.given(&HTML) {
        print_report(&spo_core::render_html(&report.diff, &report.groups))?;
    } else {
        print_report(&report.render())?;
    }
    // A degraded root on either side is excluded from that side's entries,
    // so the diff silently skips it; surface the exclusion instead.
    let degraded = report.left.degraded.values();
    run.finish(
        degraded.chain(report.right.degraded.values()),
        !report.groups.is_empty(),
    )
}

fn cmd_throws(p: &Parsed) -> Result<ExitCode, String> {
    let (left_paths, right_paths) = p.sides()?;
    let off = Recorder::disabled();
    let mut diags = Vec::new();
    let left = load_program(left_paths, &off, &mut diags)?;
    let right = load_program(right_paths, &off, &mut diags)?;
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

fn cmd_stats_validate(p: &Parsed) -> Result<ExitCode, String> {
    let schema = p.value(&SCHEMA).unwrap_or(obs::SCHEMA);
    let [path] = &p.operands[..] else {
        return Err("stats-validate needs exactly one snapshot JSON file".to_owned());
    };
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let validate = match schema {
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

/// `spo cache (stats|clear) --cache-dir PATH`: opens the persistent
/// summary cache to inspect or empty it without running an analysis.
fn open_cache(p: &Parsed) -> Result<(PolicyCache, &str), String> {
    if let Some(extra) = p.operands.first() {
        return Err(format!("cache: unexpected argument `{extra}`"));
    }
    let dir = cache_dir(p).ok_or("cache: `--cache-dir PATH` is required")?;
    let cache = PolicyCache::open(dir).map_err(|e| format!("--cache-dir {dir}: {e}"))?;
    Ok((cache, dir))
}

fn cmd_cache_stats(p: &Parsed) -> Result<ExitCode, String> {
    let (cache, dir) = open_cache(p)?;
    let (files, bytes) = cache
        .disk_usage()
        .map_err(|e| format!("--cache-dir {dir}: {e}"))?;
    println!("{}: {files} entries, {bytes} bytes", cache.dir().display());
    Ok(ExitCode::SUCCESS)
}

fn cmd_cache_clear(p: &Parsed) -> Result<ExitCode, String> {
    let (cache, dir) = open_cache(p)?;
    let removed = cache
        .clear()
        .map_err(|e| format!("--cache-dir {dir}: {e}"))?;
    println!("{}: removed {removed} entries", cache.dir().display());
    Ok(ExitCode::SUCCESS)
}

/// Reads one index file inside the `index.read` span, mapping an IO
/// failure to a fatal diagnostic that names the file.
fn load_index_bytes(rec: &Recorder, path: &str) -> Result<Vec<u8>, String> {
    let _span = rec.span("index.read");
    spo_index::read_index_file(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

/// Parses one index inside the `index.parse` span.
fn parse_index<'a>(
    rec: &Recorder,
    path: &str,
    bytes: &'a [u8],
) -> Result<spo_index::PolicyIndex<'a>, String> {
    let _span = rec.span("index.parse");
    spo_index::PolicyIndex::parse(bytes).map_err(|e| index_parse_err(path, &e))
}

fn index_parse_err(path: &str, e: &str) -> String {
    format!("{path}: {e}; the index is unusable — re-export it or fall back to `spo analyze`/`spo diff`")
}

/// `spo index (query|diff)`: answer from a compiled `.spi` index without
/// running the engine. Any parse/decode failure is fatal (exit 3) with a
/// diagnostic naming the file — degraded, never wrong. `--stats` and
/// `--trace-out` see one span per step: `index.read`, `index.parse`,
/// `index.decode`, then `index.render` (query) or `index.diff` (diff).
fn cmd_index_query(p: &Parsed) -> Result<ExitCode, String> {
    let path = p
        .value(&INDEX)
        .ok_or("index query: `--index PATH` is required")?;
    if p.operands.len() > 1 {
        return Err(format!(
            "index query takes at most one entry-point signature (got {})",
            p.operands.len()
        ));
    }
    let outputs = Outputs::new(p);
    let rec = outputs.recorder();
    let bytes = load_index_bytes(&rec, path)?;
    let index = parse_index(&rec, path, &bytes)?;
    let report = match p.operands.first() {
        None => {
            let lib = {
                let _span = rec.span("index.decode");
                index
                    .full_library()
                    .map_err(|e| index_parse_err(path, &e))?
            };
            let _span = rec.span("index.render");
            spo_core::render_analysis(&lib)
        }
        Some(sig) => {
            let entry = {
                let _span = rec.span("index.decode");
                index.lookup(sig).map_err(|e| index_parse_err(path, &e))?
            };
            let entry = entry
                .ok_or_else(|| format!("no entry point \"{sig}\" in \"{}\"", index.library()))?;
            let _span = rec.span("index.render");
            spo_core::render_entry(sig, &entry)
        }
    };
    print_report(&report)?;
    outputs.emit(&rec)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_index_diff(p: &Parsed) -> Result<ExitCode, String> {
    let [left_path, right_path] = &p.operands[..] else {
        return Err(format!(
            "index diff needs exactly two .spi files (got {})",
            p.operands.len()
        ));
    };
    let outputs = Outputs::new(p);
    let rec = outputs.recorder();
    let left_bytes = load_index_bytes(&rec, left_path)?;
    let right_bytes = load_index_bytes(&rec, right_path)?;
    let left = parse_index(&rec, left_path, &left_bytes)?;
    let right = parse_index(&rec, right_path, &right_bytes)?;
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
    let ((left_full, left_intra), (right_full, right_intra)) = {
        let _span = rec.span("index.decode");
        let left = left
            .to_libraries()
            .map_err(|e| index_parse_err(left_path, &e))?;
        let right = right
            .to_libraries()
            .map_err(|e| index_parse_err(right_path, &e))?;
        (left, right)
    };
    let (report, findings) = {
        let _span = rec.span("index.diff");
        spo_index::diff_rendered(&left_full, &left_intra, &right_full, &right_intra)
    };
    print_report(&report)?;
    outputs.emit(&rec)?;
    Ok(if findings {
        ExitCode::from(EXIT_FINDINGS)
    } else {
        ExitCode::SUCCESS
    })
}

/// `spo serve`: run the resident oracle daemon until a `shutdown` request
/// or SIGINT/SIGTERM, then drain gracefully.
fn cmd_serve(p: &Parsed) -> Result<ExitCode, String> {
    let guard = guard(p)?;
    if guard.budget.deadline.is_some() {
        return Err(
            "--deadline/--timeout-ms: the daemon serves indefinitely; per-request deadlines \
             come from each request's `timeout_ms` field or `--default-timeout-ms N`"
                .to_owned(),
        );
    }
    let instruments = Instruments {
        recorder: Recorder::new(),
        guard,
        ..Instruments::default()
    };
    let mut config = spo_serve::ServeConfig {
        jobs: jobs(p)?,
        instruments: instruments.clone(),
        socket: p.value(&SOCKET).map(Into::into),
        tcp: p.value(&TCP).map(str::to_owned),
        cache_dir: p.value(&CACHE_DIR).map(Into::into),
        no_cache: p.given(&NO_CACHE),
        default_timeout: p
            .count(&DEFAULT_TIMEOUT_MS, "timeout", "for unlimited")?
            .map(Duration::from_millis),
        preload: p
            .pairs(&LOAD)?
            .into_iter()
            .map(|(name, paths)| (name, paths.split(',').map(str::to_owned).collect()))
            .collect(),
        preload_index: p
            .pairs(&SERVE_INDEX)?
            .into_iter()
            .map(|(name, path)| (name, path.into()))
            .collect(),
        workers: p
            .count(&WORKERS, "worker count", "for the default")?
            .unwrap_or_default(),
        max_line_bytes: p
            .count(&MAX_LINE_BYTES, "cap", "for the default")?
            .unwrap_or_default(),
        ..spo_serve::ServeConfig::default()
    };
    if let Some(grace) = p.seconds(&DRAIN_GRACE)? {
        config.drain_grace = grace;
    }
    if let Some(ms) = p.read::<u64>(&WRITE_TIMEOUT_MS, "milliseconds")? {
        // 0 disables the per-session write deadline (a stalled client
        // can then hold a response writer forever — test use only).
        config.write_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    let report = spo_serve::run(config)?;
    eprintln!(
        "spo serve: drained {} request(s) over {} session(s) in {:.1?}{}",
        report.requests,
        report.sessions,
        report.drained_in,
        if report.graceful { "" } else { " (forced)" }
    );
    Outputs::new(p).emit(&instruments.recorder)?;
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

/// Connects to the daemon named by exactly one of `--socket PATH` or
/// `--tcp ADDR`.
fn connect(p: &Parsed) -> Result<RpcConn, String> {
    let (writer, reader): (Box<dyn std::io::Write>, Box<dyn std::io::Read>) =
        match (p.value(&SOCKET), p.value(&TCP)) {
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
            _ => {
                return Err(format!(
                    "{} needs exactly one of --socket PATH or --tcp ADDR",
                    p.command
                ))
            }
        };
    Ok(RpcConn {
        writer,
        reader: std::io::BufReader::new(reader),
    })
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
fn cmd_rpc(p: &Parsed) -> Result<ExitCode, String> {
    let stats_json = p.value(&STATS_JSON);
    let retries: u32 = p.read(&RETRIES, "retry count")?.unwrap_or(5);
    let retry_base = Duration::from_millis(p.read(&RETRY_BASE_MS, "milliseconds")?.unwrap_or(50));
    let requests = &p.operands;
    if requests.is_empty() {
        return Err("rpc needs at least one request line".to_owned());
    }
    use std::io::{BufRead, Write};
    // Jitter decorrelates concurrent clients hammering a restarting
    // daemon; correctness never depends on the values drawn.
    let mut rng = spo_rng::SmallRng::seed_from_u64(
        u64::from(std::process::id()).rotate_left(32)
            ^ std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos() as u64)
                .unwrap_or(0),
    );
    let mut conn: Option<RpcConn> = Some(connect(p)?);
    let mut reconnects: u64 = 0;
    let mut exit = 0u8;
    for request in requests {
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
                let c = match conn.take() {
                    Some(c) => conn.insert(c),
                    None => conn.insert(connect(p).map_err(std::io::Error::other)?),
                };
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
            (stats_json, doc.get("result").and_then(|r| r.get("stats")))
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
fn cmd_trace(p: &Parsed) -> Result<ExitCode, String> {
    use std::io::{BufRead, Write};
    let mut conn = connect(p)?;
    let request = match p.value(&TRACE_ID) {
        Some(id) => format!(
            r#"{{"spo-rpc":1,"id":0,"method":"trace","params":{{"trace_id":"{}"}}}}"#,
            obs::json::escape(id)
        ),
        None => r#"{"spo-rpc":1,"id":0,"method":"trace"}"#.to_owned(),
    };
    writeln!(conn.writer, "{request}").map_err(|e| format!("send: {e}"))?;
    conn.writer.flush().map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    let n = conn
        .reader
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
    match p.value(&OUT) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS
            .iter()
            .find(|c| c.name == name)
            .expect("a command row")
    }

    #[test]
    fn extract_jobs_space_form() {
        let p = command("check")
            .parse(&argv(&["a.jir", "--jobs", "4", "--lint"]))
            .unwrap();
        assert_eq!(jobs(&p).unwrap(), 4);
        assert_eq!(p.operands, argv(&["a.jir"]));
        assert!(p.given(&LINT));
    }

    #[test]
    fn extract_jobs_equals_form() {
        let p = command("check")
            .parse(&argv(&["--jobs=2", "a.jir"]))
            .unwrap();
        assert_eq!(jobs(&p).unwrap(), 2);
        assert_eq!(p.operands, argv(&["a.jir"]));
    }

    #[test]
    fn extract_jobs_absent_defaults_to_all_cpus() {
        let p = command("check").parse(&argv(&["a.jir"])).unwrap();
        assert_eq!(jobs(&p).unwrap(), 0);
        assert_eq!(p.operands, argv(&["a.jir"]));
    }

    #[test]
    fn extract_jobs_missing_value_is_an_error() {
        let err = command("check")
            .parse(&argv(&["a.jir", "--jobs"]))
            .unwrap_err();
        assert!(err.contains("--jobs needs a value"), "{err}");
    }

    #[test]
    fn extract_jobs_rejects_zero() {
        for form in [&["--jobs", "0"][..], &["--jobs=0"][..]] {
            let err = jobs(&command("check").parse(&argv(form)).unwrap()).unwrap_err();
            assert!(err.contains("at least 1"), "{err}");
        }
    }

    #[test]
    fn extract_jobs_rejects_non_numeric() {
        for bad in ["many", "-3", "2.5", ""] {
            let err = jobs(&command("check").parse(&argv(&["--jobs", bad])).unwrap()).unwrap_err();
            assert!(err.contains("invalid worker count"), "{bad}: {err}");
        }
    }

    #[test]
    fn extract_stats_both_forms() {
        let p = command("check")
            .parse(&argv(&["a.jir", "--stats", "--stats-json", "out.json"]))
            .unwrap();
        let opts = Outputs::new(&p);
        assert!(opts.human);
        assert_eq!(opts.json_path.as_deref(), Some("out.json"));
        assert!(opts.enabled());
        assert_eq!(p.operands, argv(&["a.jir"]));

        let p = command("check")
            .parse(&argv(&["--stats-json=x.json", "a.jir"]))
            .unwrap();
        let opts = Outputs::new(&p);
        assert!(!opts.human);
        assert_eq!(opts.json_path.as_deref(), Some("x.json"));
        assert_eq!(p.operands, argv(&["a.jir"]));
    }

    #[test]
    fn extract_stats_absent_is_disabled() {
        let p = command("check").parse(&argv(&["a.jir", "--lint"])).unwrap();
        let opts = Outputs::new(&p);
        assert!(!opts.enabled());
        assert!(!opts.recorder().is_enabled());
        assert_eq!(p.operands, argv(&["a.jir"]));
        assert!(p.given(&LINT));
    }

    #[test]
    fn extract_stats_missing_path_is_an_error() {
        let err = command("check")
            .parse(&argv(&["--stats-json"]))
            .unwrap_err();
        assert!(err.contains("--stats-json needs a value"), "{err}");
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
            let err = guard(&command("analyze").parse(&argv(form)).unwrap()).unwrap_err();
            assert!(err.contains("at least 1"), "{form:?}: {err}");
            assert!(
                err.contains("omit the flag for unlimited"),
                "{form:?}: {err}"
            );
        }
    }

    #[test]
    fn extract_guard_accepts_positive_budgets() {
        let p = command("analyze")
            .parse(&argv(&[
                "a.jir",
                "--budget-steps",
                "5",
                "--budget-frames=7",
            ]))
            .unwrap();
        let guard = guard(&p).unwrap();
        assert_eq!(guard.budget.max_steps, 5);
        assert_eq!(guard.budget.max_frames, 7);
        assert_eq!(p.operands, argv(&["a.jir"]));
    }

    #[test]
    fn extract_guard_timeout_ms_sets_a_deadline() {
        let p = command("analyze")
            .parse(&argv(&["a.jir", "--timeout-ms", "250"]))
            .unwrap();
        let deadline = guard(&p).unwrap().budget.deadline.expect("deadline set");
        assert!(deadline <= std::time::Instant::now() + Duration::from_millis(250));
        assert_eq!(p.operands, argv(&["a.jir"]));
    }

    #[test]
    fn extract_cache_both_forms() {
        let p = command("analyze")
            .parse(&argv(&["a.jir", "--cache-dir", "/tmp/c"]))
            .unwrap();
        assert_eq!(cache_dir(&p), Some("/tmp/c"));
        assert_eq!(p.operands, argv(&["a.jir"]));

        let p = command("analyze")
            .parse(&argv(&["--cache-dir=/tmp/c", "a.jir"]))
            .unwrap();
        assert_eq!(cache_dir(&p), Some("/tmp/c"));
        assert_eq!(p.operands, argv(&["a.jir"]));
    }

    #[test]
    fn extract_cache_no_cache_wins() {
        let p = command("analyze")
            .parse(&argv(&["--cache-dir", "/tmp/c", "--no-cache", "a.jir"]))
            .unwrap();
        assert_eq!(cache_dir(&p), None);
        assert_eq!(p.operands, argv(&["a.jir"]));
    }

    #[test]
    fn extract_cache_missing_value_is_an_error() {
        let err = command("analyze")
            .parse(&argv(&["--cache-dir"]))
            .unwrap_err();
        assert!(err.contains("--cache-dir needs a value"), "{err}");
    }

    #[test]
    fn unknown_flags_are_named_in_the_error() {
        let err = command("check")
            .parse(&argv(&["--lint", "--wat"]))
            .unwrap_err();
        assert!(err.contains("--wat"), "{err}");
        assert!(err.contains("check"), "{err}");
        // `=value` forms report the bare flag name.
        let err = command("throws").parse(&argv(&["--frob=3"])).unwrap_err();
        assert!(err.contains("unknown flag `--frob`"), "{err}");
    }

    #[test]
    fn guard_flags_get_a_pointed_rejection_from_check() {
        for f in GUARD {
            let err = command("check").parse(&argv(&[f.name])).unwrap_err();
            assert!(err.contains(f.name), "{err}");
            assert!(err.contains("no policy analysis"), "{err}");
        }
    }

    /// The `--help` synopsis and the parser read the same rows: every
    /// flag a command takes is on its line, and every flag on its line
    /// parses for it.
    #[test]
    fn usage_lines_match_the_parser() {
        let usage = usage();
        for command in &COMMANDS {
            let line = command.synopsis();
            assert!(usage.contains(&format!("  {line}\n")), "{line}");
            let words: Vec<&str> = line.split_whitespace().collect();
            for flag in command.accepted() {
                assert!(
                    words
                        .iter()
                        .any(|w| w.trim_matches(['[', ']']) == flag.name),
                    "`{}` missing from: {line}",
                    flag.name
                );
            }
            for (i, word) in words.iter().enumerate() {
                let name = word.trim_start_matches('[');
                if !name.starts_with("--") {
                    continue;
                }
                let name = name.trim_end_matches(']');
                let takes_value = !word.ends_with(']')
                    && words
                        .get(i + 1)
                        .is_some_and(|next| !next.starts_with(['[', '<', '-']));
                let args = if takes_value {
                    argv(&[name, "1"])
                } else {
                    argv(&[name])
                };
                let p = command
                    .parse(&args)
                    .unwrap_or_else(|e| panic!("{line}: {args:?}: {e}"));
                if name == "--vs" {
                    assert_eq!(p.operands, args, "{line}");
                } else {
                    assert_eq!(p.flags, [(name, args[1..].concat())], "{line}");
                }
            }
        }
    }

    #[test]
    fn values_take_both_forms_and_switches_take_none() {
        for command in &COMMANDS {
            for flag in command.accepted() {
                let name = flag.name;
                let equals = command.parse(&argv(&[&format!("{name}=v")]));
                if flag.value.is_some() {
                    let spaced = command.parse(&argv(&[name, "v"])).unwrap();
                    assert_eq!(equals.unwrap().flags, spaced.flags, "{name}");
                } else {
                    let err = equals.unwrap_err();
                    assert!(err.contains(&format!("{name} takes no value")), "{err}");
                }
            }
        }
    }

    #[test]
    fn repeatable_flags_collect_and_others_keep_the_last() {
        let p = command("analyze")
            .parse(&argv(&["--jobs=2", "--jobs", "3"]))
            .unwrap();
        assert_eq!(jobs(&p).unwrap(), 3);

        let p = command("serve")
            .parse(&argv(&["--load", "x=a.jir,b.jir", "--load=y=c.jir"]))
            .unwrap();
        assert_eq!(
            p.pairs(&LOAD).unwrap(),
            [("x", "a.jir,b.jir"), ("y", "c.jir")].map(|(k, v)| (k.to_owned(), v.to_owned()))
        );
        let p = command("serve")
            .parse(&argv(&["--index", "=lib.spi"]))
            .unwrap();
        let err = p.pairs(&SERVE_INDEX).unwrap_err();
        assert!(err.contains("expected NAME=PATH.spi"), "{err}");
    }

    #[test]
    fn flags_sit_on_either_side_of_vs() {
        let p = command("diff")
            .parse(&argv(&["a.jir", "--jobs", "2", "--vs", "--html", "b.jir"]))
            .unwrap();
        let (left, right) = p.sides().unwrap();
        assert_eq!(
            (left, right),
            (&argv(&["a.jir"])[..], &argv(&["b.jir"])[..])
        );
        assert!(p.given(&HTML));
        // Only commands whose operands are two implementations split at
        // `--vs`; elsewhere it is an unknown flag.
        let err = command("analyze")
            .parse(&argv(&["a.jir", "--vs", "b.jir"]))
            .unwrap_err();
        assert!(err.contains("unknown flag `--vs` for `analyze`"), "{err}");
    }
}
