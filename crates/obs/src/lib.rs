//! # spo-obs — observability for the security policy oracle
//!
//! The analysis pipeline's measurement layer: phase spans, atomic
//! counters, and log₂-bucketed histograms behind a cheap [`Recorder`]
//! handle, snapshot into a stable, versioned, machine-readable JSON stats
//! schema (see [`SCHEMA`]), plus a flight-recorder timeline ([`trace`]).
//! One span guard, [`Span`], serves both: a [`Recorder::span`] lands in
//! `durations` and, when the thread has a trace lane bound, on the
//! timeline under the same name.
//!
//! The crate is std-only (the workspace builds offline) and every hot-path
//! operation on a **disabled** recorder is a single `Option` branch: the
//! instrumented crates hold pre-registered [`Counter`]/[`Histogram`]
//! handles, and a disabled recorder hands out empty handles whose methods
//! compile to a branch-and-return.
//!
//! ## Metric taxonomy
//!
//! Metrics live in four sections, chosen by which registration method was
//! used. The split encodes a determinism contract:
//!
//! | section      | registered via              | determinism                  |
//! |--------------|-----------------------------|------------------------------|
//! | `counters`   | [`Recorder::counter`]       | schedule-independent         |
//! | `histograms` | [`Recorder::histogram`]     | schedule-independent         |
//! | `work`       | [`Recorder::work_counter`]  | scheduling/cache dependent   |
//! | `durations`  | [`Recorder::span`] / [`Recorder::duration`] | wall-clock   |
//!
//! `counters` and `histograms` must be byte-identical across worker counts
//! for the same input — the analysis crates only record into them through a
//! commit protocol that counts each unit of logical work exactly once.
//! `work` holds genuinely scheduling-dependent counts (memo hits, lock
//! contention, steals) and `durations` holds wall-clock span timings; both
//! vary run to run and are excluded from determinism comparisons.
//!
//! # Examples
//!
//! ```
//! use spo_obs::Recorder;
//!
//! let rec = Recorder::new();
//! let transfers = rec.counter("dataflow.transfers");
//! transfers.add(42);
//! rec.histogram("fixpoint.transfers").record(42);
//! {
//!     let _guard = rec.span("jir.parse");
//!     // ... timed work ...
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counters["dataflow.transfers"], 42);
//! spo_obs::json::validate_stats(&snap.to_json()).unwrap();
//! ```
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The JSON stats schema version emitted by [`Snapshot::to_json`] and
/// required by [`json::validate_stats`].
pub const SCHEMA: &str = "spo-stats/1";

/// Number of log₂ buckets: bucket 0 holds value 0, bucket `i` (1..=64)
/// holds values in `[2^(i-1), 2^i - 1]`.
pub const HIST_BUCKETS: usize = 65;

/// The bucket index of a value: 0 for 0, else `1 + floor(log2(v))`.
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive value range covered by a bucket index.
pub fn bucket_range(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        1 => (1, 1),
        _ => (1 << (i - 1), (1u64 << (i - 1)) + ((1u64 << (i - 1)) - 1)),
    }
}

/// One log₂-bucketed histogram cell: total count, total sum, per-bucket
/// counts. All updates are relaxed atomics — totals are exact because every
/// record touches each field exactly once.
#[derive(Debug)]
struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for HistCell {
    fn default() -> HistCell {
        HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl HistCell {
    fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u8, n))
                })
                .collect(),
        }
    }

    fn absorb(&self, snap: &HistSnapshot) {
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        for &(i, n) in &snap.buckets {
            self.buckets[i as usize].fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Registry of one enabled recorder: four name→cell maps, one per schema
/// section. Hot paths never touch the maps — they hold [`Counter`] /
/// [`Histogram`] handles registered once up front.
#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    work: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistCell>>>,
    durations: Mutex<BTreeMap<String, Arc<HistCell>>>,
    diagnostics: Mutex<Vec<DiagRecord>>,
}

/// One degradation event recorded into the snapshot's `diagnostics`
/// section: a quarantined root, an exhausted budget, a recovered parse
/// error. All fields are plain strings so the schema stays independent of
/// the guard layer's types.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct DiagRecord {
    /// Pipeline stage (`parse`, `analysis`) — primary sort key.
    pub phase: String,
    /// The degraded unit: entry-point signature, file, or class.
    pub root: String,
    /// Degradation cause label (`panic`, `budget-steps`, `cancel`, …).
    pub cause: String,
    /// `warning` or `error`.
    pub severity: String,
    /// Human-readable detail.
    pub message: String,
}

/// The cell registered under `name`, created on first use. The key is
/// allocated only on that first insert: re-registering a handle (every
/// root's pass does) allocates nothing.
fn cell<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(cell) = map.get(name) {
        return Arc::clone(cell);
    }
    Arc::clone(map.entry(name.to_owned()).or_default())
}

/// A monotonically increasing counter handle. Cloning shares the cell; the
/// default handle is a no-op (what a disabled [`Recorder`] hands out).
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n` to the counter (no-op on a disabled handle).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 on a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A log₂-bucketed histogram handle. Cloning shares the cell; the default
/// handle is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistCell>>);

impl Histogram {
    /// Creates an always-enabled histogram that belongs to no recorder —
    /// the cell behind per-shard lock-wait profiling and the serve
    /// daemon's per-method latency gauges, where the owner snapshots
    /// (and optionally re-publishes) the values itself.
    pub fn standalone() -> Histogram {
        Histogram(Some(Arc::new(HistCell::default())))
    }

    /// Records one observation (no-op on a disabled handle).
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.record(v);
        }
    }

    /// Number of recorded observations (0 on a disabled handle).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Immutable view of the current values (empty on a disabled handle).
    pub fn snapshot(&self) -> HistSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistSnapshot::default, |c| c.snapshot())
    }
}

/// The span guard. When it drops it records its wall-clock lifetime into
/// up to two sinks: the `durations` section of its recorder, when opened
/// by an enabled [`Recorder::span`], and one complete (`ph: "X"`) event on
/// the lane bound to the opening thread ([`trace::bind`]), if any. Both
/// sinks get the same name and the same duration. With neither sink the
/// guard reads no clock and allocates nothing.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    duration: Histogram,
    lane: Option<Arc<trace::LaneBuf>>,
    /// The event name; empty (unallocated) when no lane is bound.
    name: String,
    cat: &'static str,
    start: Option<Instant>,
}

impl Span {
    fn open(duration: Histogram, name: impl Display, cat: &'static str) -> Span {
        let lane = trace::bound();
        let name = if lane.is_some() {
            name.to_string()
        } else {
            String::new()
        };
        let timed = duration.0.is_some() || lane.is_some();
        Span {
            duration,
            lane,
            name,
            cat,
            start: timed.then(Instant::now),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur = start.elapsed();
            self.duration.record(dur.as_nanos() as u64);
            if let Some(lane) = &self.lane {
                lane.complete(start, dur, std::mem::take(&mut self.name), self.cat);
            }
        }
    }
}

/// The observability handle threaded through the analysis pipeline.
///
/// A recorder is either **enabled** (owns a registry of metric cells) or
/// **disabled** (every operation is a branch on `None`). Cloning an enabled
/// recorder shares its registry, so the engine, the analyzer, and the CLI
/// can all record into one set of metrics.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Arc<Registry>>,
}

impl Recorder {
    /// Creates an enabled recorder with an empty registry.
    pub fn new() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// Creates a disabled recorder: every handle it gives out is a no-op.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Returns `true` if metrics are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh recorder in the same mode (enabled/disabled) with its own
    /// registry — used for per-worker collection later merged with
    /// [`Recorder::absorb`].
    pub fn child(&self) -> Recorder {
        if self.is_enabled() {
            Recorder::new()
        } else {
            Recorder::disabled()
        }
    }

    /// Registers (or finds) a **deterministic** counter: its value must be
    /// a pure function of the analyzed input, independent of worker count
    /// and scheduling. Lands in the `counters` schema section.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|r| cell(&r.counters, name)))
    }

    /// Registers (or finds) a **scheduling-dependent** counter (cache hits,
    /// contention, steals…). Lands in the `work` schema section.
    pub fn work_counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|r| cell(&r.work, name)))
    }

    /// Registers (or finds) a **deterministic** log₂ histogram. Lands in
    /// the `histograms` schema section.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|r| cell(&r.histograms, name)))
    }

    /// Registers (or finds) a duration histogram (nanoseconds). Lands in
    /// the `durations` schema section.
    pub fn duration(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|r| cell(&r.durations, name)))
    }

    /// Starts a phase span: a guard that, when dropped, records its
    /// wall-clock lifetime into `durations` under `name` and emits a
    /// complete event of the same name (category `phase`) on the thread's
    /// bound trace lane. Each sink is skipped when off; with both off the
    /// guard does not even read the clock.
    pub fn span(&self, name: &str) -> Span {
        Span::open(self.duration(name), name, "phase")
    }

    /// Convenience: register-and-add a deterministic counter. Hot paths
    /// should hold a [`Counter`] handle instead.
    pub fn add(&self, name: &str, n: u64) {
        if self.is_enabled() {
            self.counter(name).add(n);
        }
    }

    /// Merges an externally collected histogram into the `durations`
    /// section under `name` — how the engine publishes the per-shard
    /// lock-wait histograms that [`Histogram::standalone`] cells collect
    /// inside the store. No-op on a disabled recorder.
    pub fn record_duration_snapshot(&self, name: &str, snap: &HistSnapshot) {
        if let Some(r) = &self.inner {
            cell(&r.durations, name).absorb(snap);
        }
    }

    /// Records one degradation event into the `diagnostics` section. The
    /// snapshot sorts records, so emission order (and hence scheduling)
    /// does not leak into the serialized output.
    pub fn diagnostic(&self, severity: &str, phase: &str, root: &str, cause: &str, message: &str) {
        if let Some(r) = &self.inner {
            r.diagnostics
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(DiagRecord {
                    phase: phase.to_owned(),
                    root: root.to_owned(),
                    cause: cause.to_owned(),
                    severity: severity.to_owned(),
                    message: message.to_owned(),
                });
        }
    }

    /// Merges another recorder's current values into this one (counter
    /// sums, histogram bucket sums, appended diagnostics). Merging is
    /// commutative up to diagnostic order, which the snapshot re-sorts;
    /// callers that hold several per-worker recorders should still absorb
    /// them in worker-id order so any future non-commutative extension
    /// stays deterministic.
    pub fn absorb(&self, other: &Recorder) {
        let (Some(into), Some(_)) = (&self.inner, &other.inner) else {
            return;
        };
        let snap = other.snapshot();
        for (name, v) in &snap.counters {
            cell(&into.counters, name).fetch_add(*v, Ordering::Relaxed);
        }
        for (name, v) in &snap.work {
            cell(&into.work, name).fetch_add(*v, Ordering::Relaxed);
        }
        for (name, h) in &snap.histograms {
            cell(&into.histograms, name).absorb(h);
        }
        for (name, h) in &snap.durations {
            cell(&into.durations, name).absorb(h);
        }
        if !snap.diagnostics.is_empty() {
            into.diagnostics
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(snap.diagnostics);
        }
    }

    /// Snapshots every metric into an immutable, serializable view. A
    /// disabled recorder snapshots to an empty (but schema-valid) snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let Some(r) = &self.inner else {
            return Snapshot::default();
        };
        let counters = |m: &Mutex<BTreeMap<String, Arc<AtomicU64>>>| {
            m.lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect()
        };
        let hists = |m: &Mutex<BTreeMap<String, Arc<HistCell>>>| {
            m.lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect()
        };
        let mut diagnostics = r
            .diagnostics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        diagnostics.sort();
        Snapshot {
            counters: counters(&r.counters),
            work: counters(&r.work),
            histograms: hists(&r.histograms),
            durations: hists(&r.durations),
            diagnostics,
        }
    }
}

/// Immutable view of one histogram: count, sum, and sparse (bucket, count)
/// pairs in ascending bucket order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (nanoseconds for duration histograms).
    pub sum: u64,
    /// Non-empty buckets as `(bucket index, count)`, ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl HistSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the highest non-empty bucket (0 when empty).
    pub fn max_bucket_bound(&self) -> u64 {
        self.buckets
            .last()
            .map_or(0, |&(i, _)| bucket_range(i as usize).1)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the ⌈q·count⌉-th smallest observation — the log₂-bucket
    /// estimate behind the serving layer's p50/p99 latency reporting.
    /// Returns 0 when empty; `q` outside `[0, 1]` is clamped.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_range(i as usize).1;
            }
        }
        self.max_bucket_bound()
    }

    /// Bucket-wise accumulation of another snapshot into this one — the
    /// snapshot-level counterpart of [`Recorder::absorb`] for histograms
    /// collected outside a recorder.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut map: BTreeMap<u8, u64> = self.buckets.iter().copied().collect();
        for &(i, n) in &other.buckets {
            *map.entry(i).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.buckets = map.into_iter().collect();
    }
}

/// An immutable snapshot of a [`Recorder`]: the four schema sections.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Snapshot {
    /// Deterministic counters.
    pub counters: BTreeMap<String, u64>,
    /// Scheduling/cache-dependent counters.
    pub work: BTreeMap<String, u64>,
    /// Deterministic log₂ histograms.
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Wall-clock span histograms (nanoseconds).
    pub durations: BTreeMap<String, HistSnapshot>,
    /// Degradation events, sorted by (phase, root, cause, severity,
    /// message). Empty on a clean run. Budget- and panic-caused records are
    /// deterministic; deadline/cancel records depend on wall clock, which
    /// is why the section stays out of [`Snapshot::deterministic_json`].
    pub diagnostics: Vec<DiagRecord>,
}

fn json_hist(out: &mut String, h: &HistSnapshot) {
    out.push_str("{ \"count\": ");
    out.push_str(&h.count.to_string());
    out.push_str(", \"sum\": ");
    out.push_str(&h.sum.to_string());
    out.push_str(", \"buckets\": { ");
    for (i, (b, n)) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{b}\": {n}"));
    }
    out.push_str(if h.buckets.is_empty() { "} }" } else { " } }" });
}

fn json_counter_section(out: &mut String, name: &str, map: &BTreeMap<String, u64>, last: bool) {
    out.push_str(&format!("  \"{name}\": {{\n"));
    for (i, (k, v)) in map.iter().enumerate() {
        let comma = if i + 1 < map.len() { "," } else { "" };
        out.push_str(&format!("    \"{}\": {}{}\n", json::escape(k), v, comma));
    }
    out.push_str(if last { "  }\n" } else { "  },\n" });
}

fn json_hist_section(
    out: &mut String,
    name: &str,
    map: &BTreeMap<String, HistSnapshot>,
    last: bool,
) {
    out.push_str(&format!("  \"{name}\": {{\n"));
    for (i, (k, h)) in map.iter().enumerate() {
        let comma = if i + 1 < map.len() { "," } else { "" };
        out.push_str(&format!("    \"{}\": ", json::escape(k)));
        json_hist(out, h);
        out.push_str(comma);
        out.push('\n');
    }
    out.push_str(if last { "  }\n" } else { "  },\n" });
}

fn json_diag_section(out: &mut String, diags: &[DiagRecord]) {
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str(&format!(
            "{{ \"severity\": \"{}\", \"phase\": \"{}\", \"root\": \"{}\", \
             \"cause\": \"{}\", \"message\": \"{}\" }}",
            json::escape(&d.severity),
            json::escape(&d.phase),
            json::escape(&d.root),
            json::escape(&d.cause),
            json::escape(&d.message),
        ));
    }
    out.push_str(if diags.is_empty() { "]\n" } else { "\n  ]\n" });
}

impl Snapshot {
    /// Serializes the snapshot to the versioned JSON stats schema
    /// ([`SCHEMA`]). Output is byte-deterministic: sections and keys are
    /// emitted in sorted order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        json_counter_section(&mut out, "counters", &self.counters, false);
        json_hist_section(&mut out, "histograms", &self.histograms, false);
        json_counter_section(&mut out, "work", &self.work, false);
        json_hist_section(&mut out, "durations", &self.durations, false);
        json_diag_section(&mut out, &self.diagnostics);
        out.push_str("}\n");
        out
    }

    /// Serializes only the deterministic sections (`counters` and
    /// `histograms`) — the byte-comparable core used by determinism tests.
    pub fn deterministic_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        json_counter_section(&mut out, "counters", &self.counters, false);
        json_hist_section(&mut out, "histograms", &self.histograms, true);
        out.push_str("}\n");
        out
    }

    /// Renders a human-readable multi-line summary (the CLI's `--stats`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== spo stats ({SCHEMA}) ==\n"));
        let width = self
            .counters
            .keys()
            .chain(self.work.keys())
            .chain(self.histograms.keys())
            .chain(self.durations.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            out.push_str("counters (deterministic):\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<width$}  {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (deterministic, log2 buckets):\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "  {k:<width$}  count {}  sum {}  mean {:.1}  max<= {}\n",
                    h.count,
                    h.sum,
                    h.mean(),
                    h.max_bucket_bound(),
                ));
            }
        }
        if !self.work.is_empty() {
            out.push_str("work (scheduling-dependent):\n");
            for (k, v) in &self.work {
                out.push_str(&format!("  {k:<width$}  {v}\n"));
            }
        }
        if !self.durations.is_empty() {
            out.push_str("durations (wall clock):\n");
            for (k, h) in &self.durations {
                out.push_str(&format!(
                    "  {k:<width$}  count {}  total {:.3}ms  mean {:.3}ms\n",
                    h.count,
                    h.sum as f64 / 1e6,
                    h.mean() / 1e6,
                ));
            }
        }
        if !self.diagnostics.is_empty() {
            out.push_str("diagnostics (degradations):\n");
            for d in &self.diagnostics {
                out.push_str(&format!(
                    "  {} [{}] {}: {}: {}\n",
                    d.severity, d.phase, d.root, d.cause, d.message
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let (lo, hi) = bucket_range(bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn disabled_recorder_is_noop() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let c = rec.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        rec.histogram("h").record(9);
        let _span = rec.span("s");
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty() && snap.durations.is_empty());
        json::validate_stats(&snap.to_json()).unwrap();
    }

    #[test]
    fn counters_and_histograms_roundtrip() {
        let rec = Recorder::new();
        let c = rec.counter("a.b");
        c.add(3);
        c.incr();
        rec.work_counter("w").add(7);
        let h = rec.histogram("h");
        for v in [0, 1, 5, 5, 1024] {
            h.record(v);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counters["a.b"], 4);
        assert_eq!(snap.work["w"], 7);
        let hs = &snap.histograms["h"];
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 1035);
        assert_eq!(hs.buckets, vec![(0, 1), (1, 1), (3, 2), (11, 1)]);
        assert_eq!(hs.max_bucket_bound(), 2047);
    }

    #[test]
    fn quantiles_pick_bucket_upper_bounds() {
        assert_eq!(HistSnapshot::default().quantile(0.5), 0);
        // 5 observations: buckets (1,1)→[1,1], (3,3)→[4,7], (11,1)→[1024,2047].
        let hs = HistSnapshot {
            count: 5,
            sum: 1 + 4 + 5 + 6 + 1024,
            buckets: vec![(1, 1), (3, 3), (11, 1)],
        };
        assert_eq!(hs.quantile(0.0), 1); // clamped, first observation
        assert_eq!(hs.quantile(0.5), 7); // 3rd of 5 lands in bucket 3
        assert_eq!(hs.quantile(0.99), 2047);
        assert_eq!(hs.quantile(2.0), 2047); // clamped
    }

    #[test]
    fn quantile_and_bucket_range_edge_cases() {
        // Empty histogram: every quantile is 0, as is the max bound.
        let empty = HistSnapshot::default();
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.quantile(1.0), 0);
        assert_eq!(empty.max_bucket_bound(), 0);

        // Single-bucket histogram: every quantile lands in that bucket.
        let single = HistSnapshot {
            count: 7,
            sum: 7 * 5,
            buckets: vec![(3, 7)], // bucket 3 covers [4, 7]
        };
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile(q), 7, "q={q}");
        }

        // q = 0.0 has rank clamped up to 1: the smallest observation.
        let hs = HistSnapshot {
            count: 4,
            sum: 1 + 2 + 2 + 1024,
            buckets: vec![(1, 1), (2, 2), (11, 1)],
        };
        assert_eq!(hs.quantile(0.0), 1);
        // q above 1.0 clamps to the maximum observation's bucket.
        assert_eq!(hs.quantile(1.0), 2047);
        assert_eq!(hs.quantile(7.5), 2047);
        assert_eq!(hs.quantile(f64::INFINITY), 2047);
        // Rank landing exactly on a cumulative bucket boundary stays in
        // that bucket: rank 3 of 4 (q = 0.75) is the last observation of
        // bucket 2, not the first of bucket 11.
        assert_eq!(hs.quantile(0.75), 3);
        // One observation past the boundary moves to the next bucket.
        assert_eq!(hs.quantile(0.76), 2047);

        // bucket_range endpoints: adjacent buckets tile the u64 line.
        assert_eq!(bucket_range(0), (0, 0));
        assert_eq!(bucket_range(1), (1, 1));
        assert_eq!(bucket_range(2), (2, 3));
        for i in 1..HIST_BUCKETS - 1 {
            let (_, hi) = bucket_range(i);
            let (lo_next, _) = bucket_range(i + 1);
            assert_eq!(hi + 1, lo_next, "gap after bucket {i}");
        }
        assert_eq!(bucket_range(HIST_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn standalone_histogram_snapshots_without_a_recorder() {
        let h = Histogram::standalone();
        h.record(5);
        h.record(1024);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 1029);
        assert_eq!(snap.buckets, vec![(3, 1), (11, 1)]);
        // Disabled handles snapshot to empty.
        assert_eq!(Histogram::default().snapshot(), HistSnapshot::default());
        // Publishing into a recorder lands in the durations section.
        let rec = Recorder::new();
        rec.record_duration_snapshot("store.shard00.lock_wait", &snap);
        let s = rec.snapshot();
        assert_eq!(s.durations["store.shard00.lock_wait"].count, 2);
    }

    #[test]
    fn span_lands_in_both_sinks_under_one_name() {
        let rec = Recorder::new();
        let tracer = trace::Tracer::new();
        drop(rec.span("unbound")); // no lane: durations only
        {
            let _bound = trace::bind(&tracer.lane("main"));
            let _phase = rec.span("jir.parse");
            let _off = Recorder::disabled().span("resolve.callgraph"); // lane only
        }
        let snap = rec.snapshot();
        assert_eq!(snap.durations["unbound"].count, 1);
        assert_eq!(snap.durations["jir.parse"].count, 1);
        assert!(!snap.durations.contains_key("resolve.callgraph"));
        let doc = tracer.to_chrome_json();
        assert_eq!(tracer.event_count(), 2);
        assert!(doc.contains("\"name\":\"jir.parse\",\"cat\":\"phase\""));
        assert!(doc.contains("\"name\":\"resolve.callgraph\""));
        assert!(!doc.contains("unbound"));
    }

    #[test]
    fn absorb_merges_in_any_order_identically() {
        let mk = |n: u64| {
            let r = Recorder::new();
            r.counter("c").add(n);
            r.histogram("h").record(n);
            r.work_counter("w").add(1);
            r
        };
        let (a, b, c) = (mk(1), mk(2), mk(300));
        let left = Recorder::new();
        for r in [&a, &b, &c] {
            left.absorb(r);
        }
        let right = Recorder::new();
        for r in [&c, &a, &b] {
            right.absorb(r);
        }
        assert_eq!(left.snapshot(), right.snapshot());
        assert_eq!(left.snapshot().counters["c"], 303);
        assert_eq!(left.snapshot().histograms["h"].count, 3);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_valid() {
        let build = || {
            let rec = Recorder::new();
            rec.counter("z").add(1);
            rec.counter("a").add(2);
            rec.histogram("h").record(17);
            rec.work_counter("w").add(3);
            rec.duration("d").record(1_000_000);
            rec.snapshot()
        };
        let (s1, s2) = (build(), build());
        assert_eq!(s1.to_json(), s2.to_json());
        json::validate_stats(&s1.to_json()).unwrap();
        assert!(s1.to_json().contains("\"schema\": \"spo-stats/1\""));
        // Deterministic core excludes work and durations.
        let det = s1.deterministic_json();
        assert!(det.contains("\"a\": 2") && !det.contains("\"w\"") && !det.contains("\"d\""));
    }

    #[test]
    fn concurrent_recording_totals_are_exact() {
        let rec = Recorder::new();
        let c = rec.counter("c");
        let h = rec.histogram("h");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (c, h) = (c.clone(), h.clone());
                s.spawn(move || {
                    for i in 0..1000 {
                        c.incr();
                        h.record(i);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counters["c"], 4000);
        assert_eq!(snap.histograms["h"].count, 4000);
    }
}
