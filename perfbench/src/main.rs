//! perfbench: the oracle's end-to-end benchmark.
//!
//! Each workload runs as one closed loop with one client: the next op is
//! issued only after the previous verdict returned. Analysis runs at
//! `jobs = 1`. Every op is timed from outside, around the same public
//! calls the `spo` CLI or daemon composes, and its output is checked
//! against a reference computed outside the timed region.
//!
//! ```text
//! perfbench --spo PATH --work-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics of
//! the named workload; with `--trace 1` it carries the per-layer metrics
//! of a traced run that visits every workload and alternates plain and
//! span-wrapped ops. See `README.md`.

mod audit_cold;
mod common;
mod edit_rediff;
mod index_diff;
mod probe;
mod serve_warm;

use probe::{quantile, HostRef, Spans};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// An untraced run repeats the set-up at least `SETUP_REPS` times and for
/// at least `SETUP_SECONDS` before the ops, and again after them;
/// `setup_s` is the fastest repetition.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;
/// Ops between two samples of the host reference kernel.
const HOST_REF_EVERY: u64 = 8;
/// Every run makes at least this many ops, however long they take.
const MIN_OPS: u64 = 6;
/// The workloads, in the order the traced run visits them, and what each
/// workload's traced pass reports, named `<workload>.<metric>`
/// in the output, in the order `BENCHMARK.json` lists them. Every traced
/// run visits every workload, so each metric is measured in every traced
/// run rather than read as 0 where its layer is idle.
const LAYERS: &[(&str, &[(&str, &str)])] = &[
    (
        "audit_cold",
        &[
            ("jir.parse_ms", "ms"),
            ("jir.parse_mb_s", "MB/s"),
            ("jir.cfg_built", "count"),
            ("jir.free_ms", "ms"),
            ("jir.alloc_mb", "MB"),
            ("resolve.callgraph_ms", "ms"),
            ("core.ispa_may_ms", "ms"),
            ("core.ispa_must_ms", "ms"),
            ("core.frames", "count"),
            ("core.memo_hit_ratio", "ratio"),
            ("dataflow.transfers", "count"),
            ("core.diff_ms", "ms"),
            ("core.group_ms", "ms"),
            ("core.render_ms", "ms"),
            ("core.alloc_mb", "MB"),
            ("engine.analyze_full_ms", "ms"),
            ("engine.analyze_intra_ms", "ms"),
            ("engine.overhead_ms", "ms"),
            ("engine.free_ms", "ms"),
            ("engine.alloc_mb", "MB"),
            ("traced_op_ms", "ms"),
            ("unattributed_ms", "ms"),
            ("unattributed_pct", "%"),
            ("trace_overhead_pct", "%"),
            ("alloc_repeat_checks", "count"),
        ],
    ),
    (
        "edit_rediff",
        &[
            ("jir.parse_ms", "ms"),
            ("jir.cfg_built", "count"),
            ("jir.alloc_mb", "MB"),
            ("core.ispa_may_ms", "ms"),
            ("core.ispa_must_ms", "ms"),
            ("core.diff_ms", "ms"),
            ("engine.analyze_full_ms", "ms"),
            ("engine.analyze_intra_ms", "ms"),
            ("engine.overhead_ms", "ms"),
            ("engine.alloc_mb", "MB"),
            ("cache.open_ms", "ms"),
            ("cache.content_table_ms", "ms"),
            ("cache.flush_ms", "ms"),
            ("cache.free_ms", "ms"),
            ("cache.pack_mb", "MB"),
            ("cache.hit_ratio", "ratio"),
            ("cache.alloc_mb", "MB"),
            ("traced_op_ms", "ms"),
            ("unattributed_ms", "ms"),
            ("unattributed_pct", "%"),
            ("trace_overhead_pct", "%"),
            ("alloc_repeat_checks", "count"),
        ],
    ),
    (
        "index_diff",
        &[
            ("index.read_ms", "ms"),
            ("index.parse_ms", "ms"),
            ("index.decode_ms", "ms"),
            ("index.diff_ms", "ms"),
            ("index.query_us", "us"),
            ("index.free_ms", "ms"),
            ("index.mb", "MB"),
            ("index.build_ms", "ms"),
            ("index.alloc_mb", "MB"),
            ("core.diff_ms", "ms"),
            ("core.group_ms", "ms"),
            ("core.render_ms", "ms"),
            ("core.alloc_mb", "MB"),
            ("traced_op_ms", "ms"),
            ("unattributed_ms", "ms"),
            ("unattributed_pct", "%"),
            ("trace_overhead_pct", "%"),
            ("alloc_repeat_checks", "count"),
        ],
    ),
    (
        "serve_warm",
        &[
            ("serve.diff_rtt_ms", "ms"),
            ("serve.query_rtt_us", "us"),
            ("serve.server_diff_us", "us"),
            ("serve.transport_us", "us"),
            ("traced_op_ms", "ms"),
            ("trace_overhead_pct", "%"),
        ],
    ),
];

/// The command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spo: PathBuf,
    pub work: PathBuf,
    /// Run one op in this fresh process and print its peak RSS.
    pub rss_probe: bool,
}

/// One op's outcome, as the closed loop sees it.
pub struct Op {
    /// Wall time of the timed region.
    pub ms: f64,
    /// Whether the verdict equals its reference.
    pub ok: bool,
    /// Identifies the op's input and starting state: traced ops with the
    /// same key must allocate exactly the same bytes in every layer.
    pub key: u64,
}

/// A benchmark workload. `setup` must be idempotent: a run repeats it
/// several times and keeps the state of the last.
pub trait Workload {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String>;
    /// Computes reference outputs that set-up does not; never timed.
    fn references(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Runs op `k`. With `spans`, runs the same composition with a span
    /// around each layer's calls.
    fn op(&mut self, k: u64, spans: Option<&mut Spans>) -> Result<Op, String>;
    /// The process doing the work, when it is not this one.
    fn worker_pid(&self) -> Option<u32> {
        None
    }
    /// Per-layer values measured once per traced run rather than per op.
    fn run_values(&mut self, _out: &mut BTreeMap<String, f64>) -> Result<(), String> {
        Ok(())
    }
    /// Stops everything the workload started.
    fn shutdown(&mut self) -> Result<(), String> {
        Ok(())
    }
}

fn parse_args() -> Result<Ctx, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`"))?;
        let v = args
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), v);
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let ctx = Ctx {
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            v => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
        },
        spo: take("spo")?.into(),
        work: take("work-dir")?.into(),
        rss_probe: flags.remove("rss-probe").is_some_and(|v| v == "1"),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(ctx)
}

fn workload(name: &str) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "audit_cold" => Box::new(audit_cold::AuditCold::default()),
        "edit_rediff" => Box::new(edit_rediff::EditRediff::default()),
        "index_diff" => Box::new(index_diff::IndexDiff::default()),
        "serve_warm" => Box::new(serve_warm::ServeWarm::default()),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Everything one pass over a workload measured.
struct Run {
    setup_s: Vec<f64>,
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    host: HostRef,
    /// Per-layer samples, one per traced op.
    layers: BTreeMap<String, Vec<f64>>,
    /// Allocated bytes per (op key, span), to check they repeat.
    allocs: BTreeMap<(u64, &'static str), u64>,
    alloc_checks: u64,
    /// Peak RSS of the process doing the work (untraced runs).
    peak_rss_mb: f64,
    /// Per-layer values measured once per pass rather than per op.
    once: BTreeMap<String, f64>,
}

/// Times batches of set-up repetitions: at least `min_reps`, and, in an
/// untraced run, for at least `SETUP_SECONDS`.
fn set_up(
    ctx: &Ctx,
    w: &mut dyn Workload,
    min_reps: usize,
    traced: bool,
    out: &mut Vec<f64>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut reps = 0;
    while reps < min_reps || (!traced && started.elapsed().as_secs_f64() < SETUP_SECONDS) {
        let t0 = Instant::now();
        w.setup(ctx)?;
        out.push(t0.elapsed().as_secs_f64());
        reps += 1;
    }
    Ok(())
}

/// Sets `w` up, then runs ops for `seconds`. When `traced`, every other op
/// runs span-wrapped with allocation counting on. An untraced run sets up
/// again after the ops: the host's slow stretches last tens of seconds,
/// and two batches far apart are likelier to catch a fast one.
fn run(ctx: &Ctx, w: &mut dyn Workload, seconds: f64, traced: bool) -> Result<Run, String> {
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    let mut setup_s = Vec::new();
    set_up(
        ctx,
        w,
        if traced { 1 } else { SETUP_REPS },
        traced,
        &mut setup_s,
    )?;
    w.references()?;
    let mut r = Run {
        setup_s,
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        host: HostRef::new(),
        layers: BTreeMap::new(),
        allocs: BTreeMap::new(),
        alloc_checks: 0,
        peak_rss_mb: 0.0,
        once: BTreeMap::new(),
    };
    let daemon = w.worker_pid().map(|p| p.to_string());
    if let Some(pid) = &daemon {
        probe::reset_peak_rss(pid)?;
    }
    probe::count_allocations(traced);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0u64;
    while k < MIN_OPS || Instant::now() < deadline {
        if k.is_multiple_of(HOST_REF_EVERY) {
            r.host.sample();
        }
        // The traced run alternates plain and span-wrapped ops, so the
        // tracing overhead is measured under the same host conditions.
        let wrap = traced && k % 2 == 1;
        let mut spans = Spans::default();
        let op = w.op(k, wrap.then_some(&mut spans));
        let op = match op {
            Ok(op) => op,
            Err(e) => {
                probe::count_allocations(false);
                return Err(e);
            }
        };
        r.attempted += 1;
        if !op.ok {
            r.failed += 1;
            eprintln!("perfbench: op {k} returned a wrong verdict");
        }
        if wrap {
            r.traced_ms.push(op.ms);
            record_layers(&mut r, &spans, op);
        } else {
            r.untraced_ms.push(op.ms);
        }
        k += 1;
    }
    probe::count_allocations(false);
    if traced {
        w.run_values(&mut r.once)?;
    } else {
        r.peak_rss_mb = match &daemon {
            Some(pid) => probe::peak_rss_mb(pid)?,
            None => fresh_process_rss(ctx)?,
        };
        set_up(ctx, w, 1, traced, &mut r.setup_s)?;
    }
    Ok(r)
}

/// Peak RSS of an in-process workload: one op in a fresh process, as a
/// CLI user runs it. In a process that has run many ops, glibc's heap
/// retains a different amount from run to run (130 or 194 MB for the same
/// `audit_cold` seed), which would measure the loop rather than the op.
/// The probe uses one malloc arena: with the default, the engine's worker
/// thread gets a heap of its own, and how much of it stays resident varies
/// between processes (94 or 108 MB for the same `edit_rediff` seed).
fn fresh_process_rss(ctx: &Ctx) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .env("MALLOC_ARENA_MAX", "1")
        .arg("--spo")
        .arg(&ctx.spo)
        .arg("--work-dir")
        .arg(&ctx.work)
        .args(["--workload", &ctx.workload, "--seed", &ctx.seed.to_string()])
        .args(["--seconds", "0", "--trace", "0", "--rss-probe", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("rss probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(mb) if out.status.success() => Ok(mb),
        _ => Err(format!("rss probe failed ({}): {text}", out.status)),
    }
}

/// The `--rss-probe` side: set up, return the heap to the system, restart
/// the peak count, and run one op.
fn rss_probe(ctx: &Ctx) -> Result<f64, String> {
    let mut w = workload(&ctx.workload)?;
    let measured = (|| {
        w.setup(ctx)?;
        w.references()?;
        probe::trim_heap();
        probe::reset_peak_rss("self")?;
        if !w.op(0, None)?.ok {
            return Err("rss probe: wrong verdict".to_owned());
        }
        probe::peak_rss_mb("self")
    })();
    let stopped = w.shutdown();
    let mb = measured?;
    stopped?;
    Ok(mb)
}

/// Runs one pass and stops whatever the workload started, even when the
/// pass failed.
fn pass(ctx: &Ctx, name: &str, seconds: f64, traced: bool) -> Result<Run, String> {
    let mut w = workload(name)?;
    let outcome = run(ctx, w.as_mut(), seconds, traced);
    let stopped = w.shutdown();
    let r = outcome?;
    stopped?;
    eprintln!(
        "perfbench: {name} seed {}: n={} verdict_ms min {:.3} p10 {:.3} median {:.3} p99 {:.3}; \
         setup_s reps {:?}; peak_rss_mb {:.1}; error_rate {}/{}; \
         host.ref_ms min {:.3} median {:.3} (n={})",
        ctx.seed,
        r.untraced_ms.len(),
        probe::min(&r.untraced_ms),
        quantile(&r.untraced_ms, 0.1),
        quantile(&r.untraced_ms, 0.5),
        quantile(&r.untraced_ms, 0.99),
        r.setup_s,
        r.peak_rss_mb,
        r.failed,
        r.attempted,
        probe::min(&r.host.samples),
        quantile(&r.host.samples, 0.5),
        r.host.samples.len(),
    );
    Ok(r)
}

/// Folds one traced op's spans into the run's per-layer samples and
/// checks that its allocations repeat those of earlier ops on the same
/// input.
fn record_layers(r: &mut Run, spans: &Spans, op: Op) {
    let mut push = |name: String, v: f64| r.layers.entry(name).or_default().push(v);
    let mut alloc_by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, &(ms, bytes)) in &spans.spans {
        push(format!("{name}_ms"), ms);
        let layer = name.split('.').next().unwrap_or(name);
        *alloc_by_layer.entry(layer).or_default() += bytes;
    }
    for (layer, bytes) in alloc_by_layer {
        push(format!("{layer}.alloc_mb"), bytes as f64 / 1e6);
    }
    for (name, &v) in &spans.values {
        push((*name).to_owned(), v);
    }
    let unattributed = op.ms - spans.attributed_ms();
    push("traced_op_ms".to_owned(), op.ms);
    push("unattributed_ms".to_owned(), unattributed);
    push("unattributed_pct".to_owned(), 100.0 * unattributed / op.ms);
    for (name, &(_, bytes)) in &spans.spans {
        match r.allocs.get(&(op.key, *name)) {
            None => {
                r.allocs.insert((op.key, name), bytes);
            }
            Some(&first) => {
                r.alloc_checks += 1;
                if first != bytes {
                    r.failed += 1;
                    eprintln!(
                        "perfbench: span {name} allocated {bytes} bytes, {first} on an \
                         earlier op with the same input"
                    );
                }
            }
        }
    }
}

fn push_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    out.push_str(&format!(
        "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
    ));
}

fn main() {
    let code = match real_main() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<(), String> {
    let ctx = parse_args()?;
    if !LAYERS.iter().any(|(name, _)| *name == ctx.workload) {
        return Err(format!("unknown workload `{}`", ctx.workload));
    }
    if ctx.rss_probe {
        println!("{}", rss_probe(&ctx)?);
        return Ok(());
    }
    let mut metrics = String::new();
    let (mut attempted, mut failed) = (0, 0);
    if ctx.trace {
        // One traced pass per workload, each a share of the run's time.
        let seconds = ctx.seconds / LAYERS.len() as f64;
        let mut host = Vec::new();
        for (name, layers) in LAYERS {
            let r = pass(&ctx, name, seconds, true)?;
            attempted += r.attempted;
            failed += r.failed;
            host.extend_from_slice(&r.host.samples);
            let mut values: BTreeMap<String, f64> = r
                .layers
                .iter()
                .map(|(k, v)| (k.clone(), quantile(v, 0.5)))
                .collect();
            values.extend(r.once);
            let (traced, plain) = (probe::min(&r.traced_ms), probe::min(&r.untraced_ms));
            values.insert(
                "trace_overhead_pct".to_owned(),
                100.0 * (traced - plain) / plain,
            );
            values.insert("alloc_repeat_checks".to_owned(), r.alloc_checks as f64);
            for (metric, unit) in layers.iter() {
                let v = values
                    .get(*metric)
                    .copied()
                    .ok_or_else(|| format!("{name}: traced pass measured no {metric}"))?;
                eprintln!("perfbench:   {name}.{metric} = {v}");
                push_metric(&mut metrics, &format!("{name}.{metric}"), v, unit);
            }
        }
        push_metric(&mut metrics, "host.ref_ms", quantile(&host, 0.5), "ms");
    } else {
        let r = pass(&ctx, &ctx.workload, ctx.seconds, false)?;
        attempted = r.attempted;
        failed = r.failed;
        push_metric(&mut metrics, "verdict_ms", probe::min(&r.untraced_ms), "ms");
        push_metric(&mut metrics, "setup_s", probe::min(&r.setup_s), "s");
        push_metric(&mut metrics, "peak_rss_mb", r.peak_rss_mb, "MB");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0,
    );
    Ok(())
}
