//! The daemon proper: listeners, session readers, a bounded worker pool,
//! and the graceful drain.
//!
//! # Threading model
//!
//! * The calling thread runs the accept loop (non-blocking listeners,
//!   ~20 ms poll) until a `shutdown` request or the daemon's cancel token
//!   (SIGINT/SIGTERM in the CLI) ends intake.
//! * One **reader thread per session** decodes request lines under the
//!   line-length cap and pushes jobs onto a bounded queue — a full queue
//!   blocks the reader, which is the admission backpressure.
//! * `workers` **worker threads** pop jobs, route them through the
//!   [`Registry`], and write the response under the session's writer lock,
//!   so interleaved sessions never corrupt each other's lines.
//!
//! # Admission control
//!
//! Every request derives its own [`Instruments`] from the daemon's base
//! value. Its guard comes from [`spo_guard::GuardConfig::for_request`]: a
//! cancel token linked to the daemon's shutdown token plus the request's
//! `timeout_ms` folded into the budget deadline (tightening, never
//! loosening, the operator's base budget). An over-budget request
//! degrades — typed response, partial result — without touching any
//! other session.
//!
//! # Drain
//!
//! A `shutdown` request answers first, then stops intake and closes the
//! queue. In-flight work gets `drain_grace` to finish naturally; past
//! that, the shutdown token cancels it (requests finish degraded). Signal
//! shutdown (SIGINT/SIGTERM) cancels in-flight work immediately, matching
//! the one-shot CLI's cancel-and-report contract.

use crate::proto::{self, ErrorKind, JsonObj, Method, Request, RequestError, RequestId};
use crate::registry::Registry;
use spo_cache::PolicyCache;
use spo_chaos::sites;
use spo_engine::Instruments;
use spo_guard::Diagnostic;
use spo_obs::json;
use spo_obs::trace::{self, Tracer};
use spo_obs::{Histogram, Recorder};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration for [`run`].
#[derive(Debug)]
pub struct ServeConfig {
    /// Unix socket path to listen on.
    pub socket: Option<PathBuf>,
    /// TCP address (`host:port`) to additionally listen on.
    pub tcp: Option<String>,
    /// Request worker threads (0 = 2).
    pub workers: usize,
    /// Engine worker threads per analysis (0 = all CPUs).
    pub jobs: usize,
    /// Persistent summary cache directory; `None` = a private temp
    /// directory, removed on drain.
    pub cache_dir: Option<PathBuf>,
    /// Disable the persistent cache entirely.
    pub no_cache: bool,
    /// Request-line length cap in bytes (0 = 1 MiB).
    pub max_line_bytes: usize,
    /// How long a drain waits for in-flight work before cancelling it.
    pub drain_grace: Duration,
    /// Per-session write deadline: a response write that blocks longer
    /// than this sheds the session (slow-client shedding) instead of
    /// parking a worker forever. `None` disables the deadline.
    pub write_timeout: Option<Duration>,
    /// Deadline applied to requests that carry no `timeout_ms`.
    pub default_timeout: Option<Duration>,
    /// Base instruments every request derives its own from. The guard's
    /// cancel token becomes the parent of the daemon's shutdown token, so
    /// the CLI's signal token drains the daemon; its budgets are
    /// per-request floors every request inherits. A disabled recorder is
    /// upgraded to a live one — the `stats` method needs somewhere to
    /// read from. The fault plan drives the session IO sites as well as
    /// the engine's. The tracer is ignored: each request that carries a
    /// `trace_id` gets a fresh one.
    pub instruments: Instruments,
    /// Programs to load before accepting connections.
    pub preload: Vec<(String, Vec<String>)>,
    /// Compiled policy indexes (`.spi`) that seed the registry's warm
    /// analyses after the `preload` programs are in, as `(name, path)`.
    /// A seeded name answers the index's option set (and its
    /// intraprocedural ablation) without analysis until a `load` or
    /// `reload` of that name replaces it; without a preloaded program the
    /// name is index-only and other option sets get `not-found`. An index
    /// that fails to load logs a diagnostic and the name falls back to
    /// full analysis — degraded, never silently wrong.
    pub preload_index: Vec<(String, PathBuf)>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            socket: None,
            tcp: None,
            workers: 0,
            jobs: 0,
            cache_dir: None,
            no_cache: false,
            max_line_bytes: 0,
            drain_grace: Duration::from_secs(10),
            write_timeout: Some(Duration::from_secs(30)),
            default_timeout: None,
            instruments: Instruments::default(),
            preload: Vec::new(),
            preload_index: Vec::new(),
        }
    }
}

/// What a finished daemon reports.
#[derive(Debug)]
pub struct DrainReport {
    /// `true` when every in-flight request finished within the grace
    /// window without being cancelled by the drain itself.
    pub graceful: bool,
    /// Total requests served.
    pub requests: u64,
    /// Total sessions accepted.
    pub sessions: u64,
    /// Wall-clock spent draining.
    pub drained_in: Duration,
}

/// One session's write half plus the handle that tears the whole stream
/// down — slow-client shedding and the chaos connection-drop site both
/// need to kill the connection from under a blocked peer, which a plain
/// `Write` cannot do.
struct SessionOut {
    w: Box<dyn Write + Send>,
    /// Shuts down both stream halves; callable more than once.
    close: Arc<dyn Fn() + Send + Sync>,
}

type SessionWriter = Arc<Mutex<SessionOut>>;

/// Unpoisons a lock result: daemon state must stay usable after a
/// panicked holder (the panic itself is already quarantined or fatal).
fn unpoison<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Job {
    line: String,
    out: SessionWriter,
    /// When the session reader enqueued the line; traced requests turn
    /// this into a `queue.wait` event, so admission latency is visible on
    /// the timeline next to the compute it delayed.
    queued_at: Instant,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    in_flight: usize,
    closed: bool,
}

/// A bounded MPMC job queue. `push` blocks when full (admission
/// backpressure on the session reader) and fails once closed; `pop`
/// drains remaining jobs after close, then returns `None`.
struct JobQueue {
    state: Mutex<QueueState>,
    space: Condvar,
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState::default()),
            space: Condvar::new(),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn push(&self, job: Job) -> bool {
        let mut st = unpoison(self.state.lock());
        loop {
            if st.closed {
                return false;
            }
            if st.jobs.len() < self.capacity {
                st.jobs.push_back(job);
                self.ready.notify_one();
                return true;
            }
            st = unpoison(self.space.wait(st));
        }
    }

    fn pop(&self) -> Option<Job> {
        let mut st = unpoison(self.state.lock());
        loop {
            if let Some(job) = st.jobs.pop_front() {
                st.in_flight += 1;
                self.space.notify_all();
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = unpoison(self.ready.wait(st));
        }
    }

    fn done(&self) {
        let mut st = unpoison(self.state.lock());
        st.in_flight -= 1;
        // Wakes both blocked pushers and the drain's idle waiter.
        self.space.notify_all();
    }

    fn close(&self) {
        let mut st = unpoison(self.state.lock());
        st.closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Currently queued (not yet popped) jobs — the `stats` queue-depth
    /// gauge and the per-trace dequeue counter.
    fn depth(&self) -> usize {
        unpoison(self.state.lock()).jobs.len()
    }

    /// Waits until no job is queued or in flight, up to `grace`.
    fn wait_idle(&self, grace: Duration) -> bool {
        let deadline = Instant::now() + grace;
        let mut st = unpoison(self.state.lock());
        loop {
            if st.jobs.is_empty() && st.in_flight == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = unpoison(self.space.wait_timeout(st, deadline - now));
            st = guard;
        }
    }
}

/// How many finished request traces the daemon keeps for the `trace`
/// method. Oldest captures fall off first.
const TRACE_RING: usize = 64;

/// Rolling per-method telemetry behind the `stats` response: a request
/// counter plus an always-on latency histogram (p50/p99 come from its
/// log₂ buckets). Purely wall-clock — lives beside, never inside, the
/// deterministic report state.
struct MethodStat {
    count: u64,
    latency: Histogram,
}

struct Shared {
    registry: Registry,
    /// The daemon's base instruments: its live recorder, its fault plan
    /// (session IO sites draw from it too; disabled costs one branch per
    /// probe), and the guard whose cancel token is the shutdown token.
    base: Instruments,
    default_timeout: Option<Duration>,
    queue: JobQueue,
    drain: AtomicBool,
    max_line: usize,
    requests: AtomicU64,
    warm_hits: AtomicU64,
    sessions_open: AtomicU64,
    sessions_total: AtomicU64,
    started: Instant,
    methods: Mutex<BTreeMap<String, MethodStat>>,
    traces: Mutex<VecDeque<(String, String)>>,
}

/// Writes one framed response line under the session's writer lock.
/// Chaos sites perturb the frame (drop mid-response, stall, split); a
/// write that hits the per-session deadline sheds the slow client by
/// tearing the stream down rather than parking the worker.
fn write_line(shared: &Shared, out: &SessionWriter, line: &str) -> bool {
    let mut o = unpoison(out.lock());
    if shared.base.faults.should_fire(sites::SERVE_CONN_DROP) {
        // Half the frame, then a hard shutdown: the client observes a
        // mid-response EOF, exactly what a crashed daemon looks like.
        shared.base.recorder.work_counter("chaos.injected").incr();
        shared
            .base
            .recorder
            .work_counter(&format!("chaos.{}", sites::SERVE_CONN_DROP))
            .incr();
        let _ = o.w.write_all(&line.as_bytes()[..line.len() / 2]);
        let _ = o.w.flush();
        (o.close)();
        return false;
    }
    if shared.base.faults.should_fire(sites::SERVE_WRITE_STALL) {
        shared.base.recorder.work_counter("chaos.injected").incr();
        std::thread::sleep(Duration::from_millis(
            1 + shared.base.faults.amount(sites::SERVE_WRITE_STALL, 25),
        ));
    }
    let result = if shared.base.faults.should_fire(sites::SERVE_FRAME_SPLIT) && line.len() >= 2 {
        // Two separately flushed chunks: readers must assemble on the
        // newline, never on the read boundary.
        shared.base.recorder.work_counter("chaos.injected").incr();
        let cut = line.len() / 2;
        o.w.write_all(&line.as_bytes()[..cut])
            .and_then(|()| o.w.flush())
            .and_then(|()| o.w.write_all(&line.as_bytes()[cut..]))
            .and_then(|()| o.w.write_all(b"\n"))
            .and_then(|()| o.w.flush())
    } else {
        o.w.write_all(line.as_bytes())
            .and_then(|()| o.w.write_all(b"\n"))
            .and_then(|()| o.w.flush())
    };
    match result {
        Ok(()) => true,
        Err(e) => {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                // The peer stopped reading past the write deadline: shed
                // the session so the worker pool stays available.
                shared.base.recorder.work_counter("serve.shed").incr();
                (o.close)();
            }
            false
        }
    }
}

enum LineRead {
    Eof,
    Line(String),
    Oversized,
}

/// Reads one `\n`-terminated line of at most `max` bytes. An over-long
/// line is consumed through its newline and reported as [`LineRead::
/// Oversized`], so the session survives with its framing intact.
fn read_line_capped(r: &mut BufReader<Box<dyn Read + Send>>, max: usize) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if buf.len() + pos > max {
                r.consume(pos + 1);
                return Ok(LineRead::Oversized);
            }
            buf.extend_from_slice(&chunk[..pos]);
            r.consume(pos + 1);
            return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()));
        }
        let n = chunk.len();
        if buf.len() + n > max {
            r.consume(n);
            skip_to_newline(r)?;
            return Ok(LineRead::Oversized);
        }
        buf.extend_from_slice(chunk);
        r.consume(n);
    }
}

fn skip_to_newline(r: &mut BufReader<Box<dyn Read + Send>>) -> io::Result<()> {
    loop {
        let chunk = match r.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(());
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            r.consume(pos + 1);
            return Ok(());
        }
        let n = chunk.len();
        r.consume(n);
    }
}

fn session_reader(shared: Arc<Shared>, stream: Box<dyn Read + Send>, out: SessionWriter) {
    let mut reader = BufReader::new(stream);
    loop {
        match read_line_capped(&mut reader, shared.max_line) {
            Err(_) | Ok(LineRead::Eof) => break,
            Ok(LineRead::Oversized) => {
                shared.base.recorder.work_counter("serve.errors").incr();
                let err = RequestError::new(
                    ErrorKind::Oversized,
                    format!("request line exceeds {} bytes", shared.max_line),
                );
                if !write_line(
                    &shared,
                    &out,
                    &proto::render_error(&RequestId::none(), &err),
                ) {
                    break;
                }
            }
            Ok(LineRead::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                if shared.base.faults.should_fire(sites::SERVE_READ_STALL) {
                    shared.base.recorder.work_counter("chaos.injected").incr();
                    std::thread::sleep(Duration::from_millis(
                        1 + shared.base.faults.amount(sites::SERVE_READ_STALL, 25),
                    ));
                }
                let job = Job {
                    line,
                    out: Arc::clone(&out),
                    queued_at: Instant::now(),
                };
                if !shared.queue.push(job) {
                    let err = RequestError::new(ErrorKind::ShuttingDown, "daemon is draining");
                    write_line(
                        &shared,
                        &out,
                        &proto::render_error(&RequestId::none(), &err),
                    );
                    break;
                }
            }
        }
    }
    shared.sessions_open.fetch_sub(1, Ordering::Relaxed);
}

fn worker(shared: Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let t0 = Instant::now();
        let (response, label, is_shutdown) = route(&shared, &job.line, job.queued_at);
        write_line(&shared, &job.out, &response);
        let nanos = t0.elapsed().as_nanos() as u64;
        shared.base.recorder.duration("serve.request").record(nanos);
        shared
            .base
            .recorder
            .duration(&format!("serve.request.{label}"))
            .record(nanos);
        {
            let mut methods = unpoison(shared.methods.lock());
            let stat = methods
                .entry(label.to_owned())
                .or_insert_with(|| MethodStat {
                    count: 0,
                    latency: Histogram::standalone(),
                });
            stat.count += 1;
            stat.latency.record(nanos);
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        shared.base.recorder.work_counter("serve.requests").incr();
        shared
            .base
            .recorder
            .work_counter(&format!("serve.requests.{label}"))
            .incr();
        if is_shutdown {
            shared.drain.store(true, Ordering::SeqCst);
        }
        shared.queue.done();
    }
}

enum Rendered {
    Ok(String),
    Degraded(String, Vec<Diagnostic>),
}

fn route(shared: &Shared, line: &str, queued_at: Instant) -> (String, &'static str, bool) {
    let req = match proto::parse_request(line) {
        Ok(r) => r,
        Err((id, e)) => {
            shared.base.recorder.work_counter("serve.errors").incr();
            return (proto::render_error(&id, &e), "invalid", false);
        }
    };
    let label = req.method.label();
    let is_shutdown = matches!(req.method, Method::Shutdown);
    let id = req.id.clone();
    let trace_id = req.trace_id.clone();
    // A client-supplied trace_id turns the flight recorder on for exactly
    // this request; untraced requests keep the disabled-tracer fast path
    // and byte-identical responses.
    let tracer = if trace_id.is_some() {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let instruments = Instruments {
        guard: shared
            .base
            .guard
            .for_request(req.timeout.or(shared.default_timeout)),
        tracer,
        ..shared.base.clone()
    };
    let tracer = &instruments.tracer;
    let outcome = {
        let _bound = trace::bind(&tracer.lane("rpc/request"));
        trace::complete_since(queued_at, "queue.wait", "serve");
        trace::counter_now("queue.depth", "serve", shared.queue.depth() as u64);
        let _span = trace::span_now(label, "rpc");
        dispatch(shared, req, &instruments)
    };
    if let Some(tid) = &trace_id {
        // The file-oriented rendering is one event per line; collapse it
        // so the capture can embed in a single line-delimited response.
        // Real newlines only ever separate events (escape() encodes any
        // inside names), so this cannot corrupt the document.
        let doc = tracer.to_chrome_json().replace('\n', "");
        let mut ring = unpoison(shared.traces.lock());
        if ring.len() >= TRACE_RING {
            ring.pop_front();
        }
        ring.push_back((tid.clone(), doc));
    }
    let response = match outcome {
        Ok(Rendered::Ok(result)) => proto::render_ok(&id, trace_id.as_deref(), &result),
        Ok(Rendered::Degraded(result, diags)) => {
            proto::render_degraded(&id, trace_id.as_deref(), &result, &diags)
        }
        Err(e) => {
            shared.base.recorder.work_counter("serve.errors").incr();
            proto::render_error(&id, &e)
        }
    };
    (response, label, is_shutdown)
}

fn note_warm(shared: &Shared, warm: bool) {
    if warm {
        shared.warm_hits.fetch_add(1, Ordering::Relaxed);
        shared.base.recorder.work_counter("serve.warm_hits").incr();
    }
}

fn dispatch(
    shared: &Shared,
    req: Request,
    instruments: &Instruments,
) -> Result<Rendered, RequestError> {
    match req.method {
        Method::Load { name, paths } => {
            let summary = shared.registry.load(&name, &paths, instruments)?;
            let result = JsonObj::new()
                .str("name", &name)
                .u64("classes", summary.classes as u64)
                .u64("entry_points", summary.entry_points as u64)
                .u64("warnings", summary.warnings.len() as u64)
                .bool("replaced", summary.replaced)
                .finish();
            Ok(if summary.warnings.is_empty() {
                Rendered::Ok(result)
            } else {
                Rendered::Degraded(result, summary.warnings)
            })
        }
        Method::Analyze {
            name,
            entry,
            options,
        }
        | Method::Query {
            name,
            entry,
            options,
        } => {
            let prog = shared.registry.get(&name)?;
            let (a, warm) = shared.registry.analysis(&prog, options, instruments)?;
            note_warm(shared, warm);
            let report = match &entry {
                None => a.report.clone(),
                Some(sig) => {
                    let ep = a.lib.entries.get(sig).ok_or_else(|| {
                        RequestError::new(
                            ErrorKind::NotFound,
                            format!("no entry point \"{sig}\" in \"{name}\""),
                        )
                    })?;
                    spo_core::render_entry(sig, ep)
                }
            };
            let mut obj = JsonObj::new().str("name", &name);
            if let Some(sig) = &entry {
                obj = obj.str("entry", sig);
            }
            let result = obj
                .str("report", &report)
                .u64("exit_code", u64::from(a.exit_code))
                .finish();
            Ok(if a.diagnostics.is_empty() {
                Rendered::Ok(result)
            } else {
                Rendered::Degraded(result, a.diagnostics.clone())
            })
        }
        Method::Diff {
            left,
            right,
            options,
        } => {
            let l = shared.registry.get(&left)?;
            let r = shared.registry.get(&right)?;
            let (d, warm) = shared.registry.diff(&l, &r, options, instruments)?;
            note_warm(shared, warm);
            let result = JsonObj::new()
                .str("left", &left)
                .str("right", &right)
                .str("report", &d.report)
                .bool("findings", d.findings)
                .u64("exit_code", u64::from(d.exit_code))
                .finish();
            Ok(if d.diagnostics.is_empty() {
                Rendered::Ok(result)
            } else {
                Rendered::Degraded(result, d.diagnostics)
            })
        }
        Method::Stats => {
            let snapshot = shared.base.recorder.snapshot().to_json();
            let compact = json::parse(&snapshot)
                .map(|v| v.to_compact())
                .unwrap_or_else(|_| "null".to_owned());
            // Per-method rolling telemetry: request count plus latency
            // p50/p99 in microseconds, keyed and emitted in sorted method
            // order so the field order stays fixed.
            let mut methods = String::from("{");
            for (i, (name, stat)) in unpoison(shared.methods.lock()).iter().enumerate() {
                if i > 0 {
                    methods.push(',');
                }
                let snap = stat.latency.snapshot();
                let row = JsonObj::new()
                    .u64("count", stat.count)
                    .u64("p50_us", snap.quantile(0.5) / 1_000)
                    .u64("p99_us", snap.quantile(0.99) / 1_000)
                    .finish();
                methods.push_str(&format!("\"{name}\":{row}"));
            }
            methods.push('}');
            let result = JsonObj::new()
                .u64("programs", shared.registry.names().len() as u64)
                .u64(
                    "sessions_open",
                    shared.sessions_open.load(Ordering::Relaxed),
                )
                .u64(
                    "sessions_total",
                    shared.sessions_total.load(Ordering::Relaxed),
                )
                .u64("requests", shared.requests.load(Ordering::Relaxed))
                .u64("warm_hits", shared.warm_hits.load(Ordering::Relaxed))
                .u64("uptime_secs", shared.started.elapsed().as_secs())
                .u64("queue_depth", shared.queue.depth() as u64)
                .raw("methods", &methods)
                .raw("stats", &compact)
                .finish();
            Ok(Rendered::Ok(result))
        }
        Method::Trace { id } => {
            let ring = unpoison(shared.traces.lock());
            let found = match &id {
                Some(wanted) => ring.iter().rev().find(|(tid, _)| tid == wanted),
                None => ring.back(),
            };
            let (tid, doc) = found.ok_or_else(|| {
                RequestError::new(
                    ErrorKind::NotFound,
                    match &id {
                        Some(wanted) => format!("no recorded trace \"{wanted}\""),
                        None => "no request traces recorded yet".to_owned(),
                    },
                )
            })?;
            let result = JsonObj::new()
                .str("trace_id", tid)
                .raw("trace", doc)
                .finish();
            Ok(Rendered::Ok(result))
        }
        Method::Reload { name } => {
            let summary = shared.registry.reload(&name, instruments)?;
            let mut rows = String::from("[");
            for (i, (key, hits, misses)) in summary.reanalyzed.iter().enumerate() {
                if i > 0 {
                    rows.push(',');
                }
                rows.push_str(
                    &JsonObj::new()
                        .str("options", key)
                        .u64("cache_hits", *hits)
                        .u64("cache_misses", *misses)
                        .finish(),
                );
            }
            rows.push(']');
            let result = JsonObj::new()
                .str("name", &name)
                .u64("classes", summary.load.classes as u64)
                .u64("entry_points", summary.load.entry_points as u64)
                .u64("warnings", summary.load.warnings.len() as u64)
                .raw("reanalyzed", &rows)
                .finish();
            Ok(if summary.load.warnings.is_empty() {
                Rendered::Ok(result)
            } else {
                Rendered::Degraded(result, summary.load.warnings)
            })
        }
        Method::Shutdown => Ok(Rendered::Ok(JsonObj::new().bool("draining", true).finish())),
    }
}

/// Runs the daemon until a `shutdown` request or cancellation of the
/// configured guard token (the CLI wires SIGINT/SIGTERM to it), then
/// drains and reports. Blocks the calling thread for the daemon's whole
/// lifetime.
pub fn run(config: ServeConfig) -> Result<DrainReport, String> {
    if config.socket.is_none() && config.tcp.is_none() {
        return Err("serve: need a Unix socket path or a TCP address to listen on".to_owned());
    }
    let mut base = config.instruments.clone();
    if !base.recorder.is_enabled() {
        base.recorder = Recorder::new();
    }
    let (cache, temp_cache_dir) = open_cache(&config)?;
    // The daemon's shutdown token: a child of the caller's token so the
    // process signal token still drains us, while our own forced-drain
    // cancel never leaks back to the caller.
    let shutdown = base.guard.cancel.child();
    base.guard.cancel = shutdown.clone();
    let workers_n = if config.workers == 0 {
        2
    } else {
        config.workers
    };
    let shared = Arc::new(Shared {
        registry: Registry::new(config.jobs, cache),
        default_timeout: config.default_timeout,
        queue: JobQueue::new(workers_n * 4),
        drain: AtomicBool::new(false),
        max_line: if config.max_line_bytes == 0 {
            1 << 20
        } else {
            config.max_line_bytes
        },
        requests: AtomicU64::new(0),
        warm_hits: AtomicU64::new(0),
        sessions_open: AtomicU64::new(0),
        sessions_total: AtomicU64::new(0),
        started: Instant::now(),
        methods: Mutex::new(BTreeMap::new()),
        traces: Mutex::new(VecDeque::new()),
        base,
    });
    for (name, paths) in &config.preload {
        shared
            .registry
            .load(name, paths, &shared.base)
            .map_err(|e| format!("--load {name}: {}", e.message))?;
    }
    // Indexes seed the warm map before the listeners exist. A failed seed
    // is a stderr diagnostic, and that name is answered by whatever the
    // registry holds — a corrupt or stale index file must never take the
    // daemon down or serve a wrong answer.
    for (name, path) in &config.preload_index {
        let seeded = spo_index::read_index_file(path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| {
                shared
                    .registry
                    .seed_index(name, &spo_index::PolicyIndex::parse(&bytes)?)
            });
        match seeded {
            Ok(n) => eprintln!(
                "spo serve: index \"{name}\" warm from {} ({n} entry points)",
                path.display()
            ),
            Err(e) => {
                eprintln!(
                    "spo serve: --index {name}: {e}; falling back to full analysis for \"{name}\""
                );
                shared
                    .base
                    .recorder
                    .work_counter("index.load_failed")
                    .incr();
            }
        }
    }
    let unix = match &config.socket {
        None => None,
        Some(path) => {
            if path.exists() {
                if UnixStream::connect(path).is_ok() {
                    return Err(format!(
                        "{}: a daemon is already serving on this socket",
                        path.display()
                    ));
                }
                // Nobody answers: a previous daemon died without
                // unlinking its socket. Take the address over: the rename
                // in `bind_ready` replaces the file.
                eprintln!("spo serve: taking over stale socket {}", path.display());
            }
            let listener = bind_ready(path).map_err(|e| format!("{}: {e}", path.display()))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Some(listener)
        }
    };
    let tcp = match &config.tcp {
        None => None,
        Some(addr) => {
            let listener = TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| format!("{addr}: {e}"))?;
            Some(listener)
        }
    };

    let mut worker_handles = Vec::new();
    for _ in 0..workers_n {
        let sh = Arc::clone(&shared);
        worker_handles.push(std::thread::spawn(move || worker(sh)));
    }
    let mut reader_handles = Vec::new();
    let mut closers: Vec<Arc<dyn Fn() + Send + Sync>> = Vec::new();

    if let Some(path) = &config.socket {
        eprintln!("spo serve: listening on {}", path.display());
    }
    if let Some(addr) = &config.tcp {
        eprintln!("spo serve: listening on tcp {addr}");
    }

    let listeners: Vec<&dyn Listen> = [
        unix.as_ref().map(|l| l as &dyn Listen),
        tcp.as_ref().map(|l| l as &dyn Listen),
    ]
    .into_iter()
    .flatten()
    .collect();
    while !shutdown.is_cancelled() && !shared.drain.load(Ordering::SeqCst) {
        let mut accepted = false;
        for listener in &listeners {
            if let Some((reader, writer, closer)) = listener.connection(config.write_timeout) {
                accepted = true;
                start_session(
                    &shared,
                    &mut reader_handles,
                    &mut closers,
                    reader,
                    writer,
                    closer,
                );
            }
        }
        if !accepted {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // Drain. Stop intake first: listeners go away, the queue closes (late
    // lines get a typed shutting-down error).
    let t_drain = Instant::now();
    let signalled = shutdown.is_cancelled();
    drop(unix);
    if let Some(path) = &config.socket {
        let _ = std::fs::remove_file(path);
    }
    drop(tcp);
    shared.queue.close();
    // Phase one: let in-flight work finish naturally (a signal shutdown
    // already cancelled it, so "naturally" means degraded-but-fast).
    let mut graceful = shared.queue.wait_idle(config.drain_grace);
    if !graceful {
        // Phase two: cancel stragglers; they complete degraded.
        shutdown.cancel();
        let _ = shared.queue.wait_idle(config.drain_grace);
    }
    graceful = graceful && !signalled;
    for close in closers {
        close();
    }
    for handle in worker_handles {
        let _ = handle.join();
    }
    for handle in reader_handles {
        let _ = handle.join();
    }
    if let Some(cache) = shared.registry.cache() {
        cache.flush();
    }
    let report = DrainReport {
        graceful,
        requests: shared.requests.load(Ordering::Relaxed),
        sessions: shared.sessions_total.load(Ordering::Relaxed),
        drained_in: t_drain.elapsed(),
    };
    drop(shared);
    if let Some(dir) = temp_cache_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(report)
}

fn open_cache(config: &ServeConfig) -> Result<(Option<Arc<PolicyCache>>, Option<PathBuf>), String> {
    if config.no_cache {
        return Ok((None, None));
    }
    match &config.cache_dir {
        Some(dir) => {
            let cache = PolicyCache::open(dir.clone())
                .map_err(|e| format!("--cache-dir {}: {e}", dir.display()))?;
            Ok((Some(Arc::new(cache)), None))
        }
        None => {
            // Warm starts within this daemon's lifetime still matter even
            // without a user-chosen cache directory: reload's cone-based
            // invalidation runs through this private cache.
            let dir = std::env::temp_dir().join(format!("spo-serve-cache-{}", std::process::id()));
            let cache =
                PolicyCache::open(dir.clone()).map_err(|e| format!("{}: {e}", dir.display()))?;
            Ok((Some(Arc::new(cache)), Some(dir)))
        }
    }
}

/// An accepted connection split into what a session needs: the stream
/// to read, a clone to write, and a closer that shuts the socket down.
type Connection = (
    Box<dyn Read + Send>,
    Box<dyn Write + Send>,
    Arc<dyn Fn() + Send + Sync>,
);

/// Binds a listening Unix socket that appears at `path` only once it
/// accepts connections. `bind(2)` creates the socket file before
/// `listen(2)` runs, and a client that connects in between is refused; so
/// the socket is bound and listening under a temporary name in the same
/// directory, then renamed onto `path`. A client that sees the file can
/// connect.
fn bind_ready(path: &Path) -> io::Result<UnixListener> {
    // pid + per-process sequence: daemons started side by side (in one
    // process or several) never share a temporary name. Kept short, as a
    // socket path is limited to about 100 bytes.
    static BIND_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_file_name(format!(
        ".spo{}-{}",
        std::process::id(),
        BIND_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&tmp);
    let listener = UnixListener::bind(&tmp)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    Ok(listener)
}

/// A listener the accept loop polls, Unix-socket or TCP.
trait Listen {
    /// Accepts one pending connection, back in blocking mode under
    /// `write_timeout`; `None` when nothing is pending or the stream
    /// cannot be cloned.
    fn connection(&self, write_timeout: Option<Duration>) -> Option<Connection>;
}

// One body for both transports: their listeners and streams share these
// inherent methods.
macro_rules! impl_listen {
    ($($listener:ty),*) => {$(
        impl Listen for $listener {
            fn connection(&self, write_timeout: Option<Duration>) -> Option<Connection> {
                let (stream, _) = self.accept().ok()?;
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_write_timeout(write_timeout);
                let (writer, closer) = (stream.try_clone().ok()?, stream.try_clone().ok()?);
                let close = move || {
                    let _ = closer.shutdown(Shutdown::Both);
                };
                Some((Box::new(stream), Box::new(writer), Arc::new(close)))
            }
        }
    )*};
}
impl_listen!(UnixListener, TcpListener);

fn start_session(
    shared: &Arc<Shared>,
    handles: &mut Vec<std::thread::JoinHandle<()>>,
    closers: &mut Vec<Arc<dyn Fn() + Send + Sync>>,
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    closer: Arc<dyn Fn() + Send + Sync>,
) {
    shared.sessions_total.fetch_add(1, Ordering::Relaxed);
    shared.sessions_open.fetch_add(1, Ordering::Relaxed);
    shared.base.recorder.work_counter("serve.sessions").incr();
    closers.push(Arc::clone(&closer));
    let out: SessionWriter = Arc::new(Mutex::new(SessionOut {
        w: writer,
        close: closer,
    }));
    let sh = Arc::clone(shared);
    handles.push(std::thread::spawn(move || session_reader(sh, reader, out)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::OptionsSpec;
    use spo_obs::json::Value;

    impl SessionOut {
        /// An in-memory writer with a no-op closer.
        fn sink(w: Box<dyn Write + Send>) -> SessionOut {
            SessionOut {
                w,
                close: Arc::new(|| {}),
            }
        }
    }

    #[test]
    fn queue_applies_backpressure_and_drains_after_close() {
        let q = JobQueue::new(1);
        let out: SessionWriter = Arc::new(Mutex::new(SessionOut::sink(Box::new(Vec::new()))));
        assert!(q.push(Job {
            line: "a".to_owned(),
            out: Arc::clone(&out),
            queued_at: Instant::now(),
        }));
        assert_eq!(q.depth(), 1);
        let job = q.pop().unwrap();
        assert_eq!(job.line, "a");
        assert_eq!(q.depth(), 0);
        q.close();
        assert!(!q.push(Job {
            line: "b".to_owned(),
            out,
            queued_at: Instant::now(),
        }));
        assert!(
            !q.wait_idle(Duration::from_millis(10)),
            "job still in flight"
        );
        q.done();
        assert!(q.wait_idle(Duration::from_millis(10)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn oversized_lines_recover_at_the_next_newline() {
        let long = format!("{}\n{{\"ok\":1}}\n", "x".repeat(64));
        let mut reader: BufReader<Box<dyn Read + Send>> =
            BufReader::new(Box::new(io::Cursor::new(long.into_bytes())));
        assert!(matches!(
            read_line_capped(&mut reader, 16).unwrap(),
            LineRead::Oversized
        ));
        match read_line_capped(&mut reader, 16).unwrap() {
            LineRead::Line(line) => assert_eq!(line, "{\"ok\":1}"),
            other => panic!(
                "expected the next line to survive, got {:?}",
                std::mem::discriminant(&other)
            ),
        }
        assert!(matches!(
            read_line_capped(&mut reader, 16).unwrap(),
            LineRead::Eof
        ));
    }

    const FIXTURE: &str = r#"
class java.lang.SecurityManager {
  method public native void checkRead(java.lang.String file);
}
class java.lang.System {
  field static java.lang.SecurityManager security;
  method public static java.lang.SecurityManager getSecurityManager() {
    local java.lang.SecurityManager sm;
    sm = java.lang.System.security;
    return sm;
  }
}
class t.A {
  method public void read() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead("f");
    return;
  }
}
"#;

    #[test]
    fn daemon_serves_load_query_stats_and_drains_on_shutdown() {
        let dir = spo_guard::TempDir::new("spo-serve-daemon").unwrap();
        let jir = dir.join("fixture.jir");
        std::fs::write(&jir, FIXTURE).unwrap();
        let socket = dir.join("sock");
        let config = ServeConfig {
            socket: Some(socket.clone()),
            no_cache: true,
            ..ServeConfig::default()
        };
        let daemon = std::thread::spawn(move || run(config));
        while !socket.exists() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stream = UnixStream::connect(&socket).unwrap();
        let mut reader = io::BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        let mut rpc = |line: &str| {
            writeln!(stream, "{line}").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            spo_obs::json::parse(response.trim_end()).unwrap()
        };
        let jir_str = jir.to_string_lossy().into_owned();
        let loaded = rpc(&format!(
            r#"{{"spo-rpc":1,"id":1,"method":"load","params":{{"name":"lib","paths":["{jir_str}"]}}}}"#
        ));
        assert_eq!(loaded.get("status").and_then(Value::as_str), Some("ok"));
        let q1 = rpc(r#"{"spo-rpc":1,"id":2,"method":"query","params":{"name":"lib"}}"#);
        let q2 = rpc(r#"{"spo-rpc":1,"id":3,"method":"query","params":{"name":"lib"}}"#);
        let report = |v: &Value| {
            v.get("result")
                .and_then(|r| r.get("report"))
                .and_then(Value::as_str)
                .map(str::to_owned)
                .unwrap()
        };
        assert_eq!(report(&q1), report(&q2), "warm repeat is byte-identical");
        assert!(report(&q1).contains("checkRead"));
        let garbage = rpc("this is not json");
        assert_eq!(garbage.get("status").and_then(Value::as_str), Some("error"));
        // A traced request echoes its trace_id and leaves a retrievable
        // spo-trace/1 capture behind, without perturbing the report bytes.
        let traced = rpc(
            r#"{"spo-rpc":1,"id":4,"method":"query","params":{"name":"lib","broad":true},"trace_id":"req-t1"}"#,
        );
        assert_eq!(
            traced.get("trace_id").and_then(Value::as_str),
            Some("req-t1")
        );
        assert_eq!(traced.get("status").and_then(Value::as_str), Some("ok"));
        let fetched =
            rpc(r#"{"spo-rpc":1,"id":5,"method":"trace","params":{"trace_id":"req-t1"}}"#);
        assert_eq!(fetched.get("status").and_then(Value::as_str), Some("ok"));
        let capture = fetched.get("result").unwrap();
        assert_eq!(
            capture.get("trace_id").and_then(Value::as_str),
            Some("req-t1")
        );
        let doc = capture.get("trace").unwrap().to_compact();
        spo_obs::json::validate_trace(&doc).expect("stored capture conforms to spo-trace/1");
        assert!(
            doc.contains("queue.wait"),
            "admission latency is on the timeline"
        );
        assert!(
            doc.contains("/worker"),
            "engine worker lanes made it into the capture"
        );
        let missing = rpc(r#"{"spo-rpc":1,"id":6,"method":"trace","params":{"trace_id":"nope"}}"#);
        assert_eq!(missing.get("status").and_then(Value::as_str), Some("error"));
        let stats = rpc(r#"{"spo-rpc":1,"method":"stats"}"#);
        let result = stats.get("result").unwrap();
        assert_eq!(result.get("warm_hits").and_then(Value::as_u64), Some(1));
        assert!(result.get("uptime_secs").and_then(Value::as_u64).is_some());
        assert_eq!(result.get("queue_depth").and_then(Value::as_u64), Some(0));
        let methods = result.get("methods").unwrap();
        assert_eq!(
            methods
                .get("query")
                .and_then(|m| m.get("count"))
                .and_then(Value::as_u64),
            Some(3)
        );
        assert!(methods
            .get("query")
            .and_then(|m| m.get("p99_us"))
            .and_then(Value::as_u64)
            .is_some());
        spo_obs::json::validate_stats(&result.get("stats").unwrap().to_compact())
            .expect("embedded stats payload conforms to spo-stats/1");
        let bye = rpc(r#"{"spo-rpc":1,"id":9,"method":"shutdown"}"#);
        assert_eq!(bye.get("status").and_then(Value::as_str), Some("ok"));
        let drained = daemon.join().unwrap().unwrap();
        assert!(drained.graceful, "no in-flight work to cancel");
        assert_eq!(drained.sessions, 1);
        assert!(drained.requests >= 6);
        assert!(!socket.exists(), "socket file removed on drain");
    }

    #[test]
    fn socket_path_appears_listening_and_alone() {
        let dir = spo_guard::TempDir::new("spo-serve-bind").unwrap();
        let path = dir.join("s.sock");
        let _listener = bind_ready(&path).unwrap();
        UnixStream::connect(&path).expect("the path accepts once it exists");
        let names: Vec<_> = std::fs::read_dir(&*dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["s.sock"], "no temporary name is left behind");
    }

    #[test]
    fn options_key_distinguishes_resident_state() {
        // Belt and braces for the (program, options) keying discipline:
        // distinct specs map to distinct keys, so analyses can never be
        // shared across option sets.
        let specs = [
            OptionsSpec::default(),
            OptionsSpec {
                broad: true,
                ..OptionsSpec::default()
            },
            OptionsSpec {
                no_icp: true,
                ..OptionsSpec::default()
            },
            OptionsSpec {
                intra_only: true,
                ..OptionsSpec::default()
            },
        ];
        let keys: std::collections::BTreeSet<String> = specs.iter().map(|s| s.key()).collect();
        assert_eq!(keys.len(), specs.len());
    }
}
