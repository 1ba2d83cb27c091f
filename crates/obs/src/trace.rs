//! # spo-trace — flight-recorder timeline tracing
//!
//! A bounded per-lane ring buffer of timestamped events (spans, instants,
//! counter samples) exported as Chrome Trace Event / Perfetto-compatible
//! JSON under the versioned [`TRACE_SCHEMA`] (`spo-trace/1`).
//!
//! The layer mirrors the [`Recorder`](crate::Recorder) cost model: a
//! [`Tracer`] is either **enabled** (owns shared lane state) or
//! **disabled** (`Option<Arc<…>>` is `None`), and every operation on a
//! disabled tracer or lane is a branch-and-return that never reads the
//! clock. Each lane — one per engine worker, plus a main lane — is an
//! independent bounded ring: when full, the oldest event is dropped and
//! counted, so a runaway analysis can never exhaust memory through its
//! own telemetry.
//!
//! ## Determinism boundary
//!
//! Trace events are wall-clock timestamps and live strictly *outside* the
//! deterministic report/stats surface: nothing in this module feeds the
//! `counters`/`histograms` sections of `spo-stats/1`, and report bytes are
//! byte-identical with tracing on or off, at any worker count.
//!
//! ## Writing a lane: bind, then call the free functions
//!
//! A lane is written one way only. A thread [`bind`]s it, and the free
//! functions — [`span_now`], [`instant_now`], [`complete_since`],
//! [`counter_now`] — write to whatever lane is bound, or do nothing when
//! none is. Deep layers (the shared policy store, the dataflow fixpoint,
//! the summary cache) thus emit events without a lane handle in any
//! signature.
//!
//! There is one span guard, [`Span`]. A phase span from
//! [`Recorder::span`](crate::Recorder::span) lands in both sinks: the
//! recorder's `durations` section and, under the same name, a complete
//! event on the bound lane. [`span_now`] lands on the lane only; it is for
//! per-root, per-frame and per-batch events whose names are signatures or
//! counts, which would not make stable `durations` keys.
//!
//! # Examples
//!
//! ```
//! use spo_obs::trace::{self, Tracer};
//! use spo_obs::Recorder;
//!
//! let rec = Recorder::new();
//! let tracer = Tracer::new();
//! {
//!     let _guard = trace::bind(&tracer.lane("worker00"));
//!     let _phase = rec.span("jir.parse"); // durations + timeline
//!     let _root = trace::span_now("api.F.read()", "root"); // timeline only
//!     trace::instant_now("cache.miss", "cache");
//! }
//! assert_eq!(rec.snapshot().durations["jir.parse"].count, 1);
//! assert_eq!(tracer.event_count(), 3);
//! let doc = tracer.to_chrome_json();
//! spo_obs::json::validate_trace(&doc).unwrap();
//! ```

use crate::{Histogram, Span};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The JSON trace schema version emitted by [`Tracer::to_chrome_json`]
/// and required by [`crate::json::validate_trace`].
pub const TRACE_SCHEMA: &str = "spo-trace/1";

/// Default per-lane ring capacity (events). At ~4 events per analyzed
/// root this holds several thousand roots per worker before eviction.
pub const DEFAULT_LANE_CAPACITY: usize = 16_384;

/// What a recorded event is, in Chrome Trace Event terms.
#[derive(Clone, Debug)]
enum EventKind {
    /// A `ph: "X"` complete event with an explicit duration.
    Complete { dur_nanos: u64 },
    /// A `ph: "i"` thread-scoped instant event.
    Instant,
    /// A `ph: "C"` counter sample.
    Counter { value: u64 },
}

/// One recorded event: name, category, nanoseconds since the tracer
/// epoch, and kind-specific payload.
#[derive(Clone, Debug)]
struct Event {
    name: String,
    cat: &'static str,
    ts_nanos: u64,
    kind: EventKind,
}

/// One lane's shared state: a bounded event ring plus an eviction count.
#[derive(Debug)]
pub(crate) struct LaneBuf {
    /// Chrome `tid` (1-based registration order).
    tid: u64,
    /// Human-readable lane name, exported as `thread_name` metadata.
    name: String,
    /// Shared epoch — all lanes of one tracer timestamp from it.
    epoch: Instant,
    capacity: usize,
    events: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl LaneBuf {
    fn push(&self, ev: Event) {
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if events.len() >= self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(ev);
    }

    fn push_now(&self, name: &str, cat: &'static str, kind: EventKind) {
        self.push(Event {
            name: name.to_owned(),
            cat,
            ts_nanos: self.epoch.elapsed().as_nanos() as u64,
            kind,
        });
    }

    /// Records a complete (`ph: "X"`) event that began at `start` and
    /// lasted `dur`.
    pub(crate) fn complete(&self, start: Instant, dur: Duration, name: String, cat: &'static str) {
        self.push(Event {
            name,
            cat,
            ts_nanos: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            kind: EventKind::Complete {
                dur_nanos: dur.as_nanos() as u64,
            },
        });
    }
}

/// Shared state of one enabled tracer: the epoch and the registered lanes.
#[derive(Debug)]
struct TracerShared {
    epoch: Instant,
    lane_capacity: usize,
    lanes: Mutex<Vec<Arc<LaneBuf>>>,
}

/// The flight-recorder handle. Enabled tracers own the lane registry;
/// disabled tracers (the default) make every operation a no-op branch.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerShared>>,
}

impl Tracer {
    /// Creates an enabled tracer with the default per-lane capacity.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// Creates an enabled tracer whose lanes each hold at most
    /// `lane_capacity` events (minimum 16) before dropping the oldest.
    pub fn with_capacity(lane_capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerShared {
                epoch: Instant::now(),
                lane_capacity: lane_capacity.max(16),
                lanes: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Creates a disabled tracer: every lane it hands out is a no-op.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Returns `true` if events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers a new lane (timeline row). Each call creates a fresh
    /// lane; on a disabled tracer the returned handle is a no-op and
    /// `name` is never formatted.
    pub fn lane(&self, name: impl Display) -> TraceLane {
        let Some(shared) = &self.inner else {
            return TraceLane::disabled();
        };
        let mut lanes = shared.lanes.lock().unwrap_or_else(|e| e.into_inner());
        let buf = Arc::new(LaneBuf {
            tid: lanes.len() as u64 + 1,
            name: name.to_string(),
            epoch: shared.epoch,
            capacity: shared.lane_capacity,
            events: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        });
        lanes.push(Arc::clone(&buf));
        TraceLane { inner: Some(buf) }
    }

    /// Total events evicted from full rings across all lanes.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| {
            s.lanes
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|l| l.dropped.load(Ordering::Relaxed))
                .sum()
        })
    }

    /// Total events currently held across all lanes.
    pub fn event_count(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| {
            s.lanes
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|l| l.events.lock().unwrap_or_else(|e| e.into_inner()).len() as u64)
                .sum()
        })
    }

    /// Serializes every lane to a Chrome Trace Event / Perfetto-compatible
    /// JSON object: `{"schema":"spo-trace/1", …, "traceEvents":[…]}`.
    /// Timestamps are microseconds since the tracer epoch (µs with ns
    /// precision, per the trace-event spec); each lane becomes one `tid`
    /// with a `thread_name` metadata record. A disabled tracer serializes
    /// to a schema-valid empty trace.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"");
        out.push_str(TRACE_SCHEMA);
        out.push_str("\",\"displayTimeUnit\":\"ms\",\"dropped\":");
        out.push_str(&self.dropped().to_string());
        out.push_str(",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(&ev);
        };
        if let Some(shared) = &self.inner {
            let lanes = shared.lanes.lock().unwrap_or_else(|e| e.into_inner());
            for lane in lanes.iter() {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        lane.tid,
                        crate::json::escape(&lane.name),
                    ),
                );
            }
            for lane in lanes.iter() {
                let events = lane.events.lock().unwrap_or_else(|e| e.into_inner());
                for ev in events.iter() {
                    push(&mut out, render_event(lane.tid, ev));
                }
            }
        }
        out.push_str(if first { "]}\n" } else { "\n]}\n" });
        out
    }
}

/// Formats nanoseconds as fractional microseconds (`123.456`), the
/// trace-event spec's timestamp unit at full clock precision.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn render_event(tid: u64, ev: &Event) -> String {
    let head = format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}",
        crate::json::escape(&ev.name),
        ev.cat,
        tid,
        micros(ev.ts_nanos),
    );
    match ev.kind {
        EventKind::Complete { dur_nanos } => {
            format!("{head},\"ph\":\"X\",\"dur\":{}}}", micros(dur_nanos))
        }
        EventKind::Instant => format!("{head},\"ph\":\"i\",\"s\":\"t\"}}"),
        EventKind::Counter { value } => {
            format!("{head},\"ph\":\"C\",\"args\":{{\"value\":{value}}}}}",)
        }
    }
}

/// A handle onto one lane of a [`Tracer`], to [`bind`] to a thread. The
/// default handle (and every handle from a disabled tracer) is a no-op.
#[derive(Clone, Debug, Default)]
pub struct TraceLane {
    inner: Option<Arc<LaneBuf>>,
}

impl TraceLane {
    /// A no-op lane, what a disabled [`Tracer`] hands out.
    pub fn disabled() -> TraceLane {
        TraceLane { inner: None }
    }

    /// Returns `true` if events written to this lane are retained.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }
}

thread_local! {
    /// The lane bound to the current thread, if any. Deep layers emit
    /// through this so tracing needs no signature changes.
    static CURRENT: RefCell<Option<Arc<LaneBuf>>> = const { RefCell::new(None) };
}

/// Guard returned by [`bind`]: restores the previously bound lane (or
/// none) when dropped, so bindings nest.
#[derive(Debug)]
pub struct Bound {
    prev: Option<Arc<LaneBuf>>,
}

impl Drop for Bound {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Binds `lane` as the current thread's trace lane until the returned
/// guard drops. Binding a disabled lane unbinds (the free functions
/// become no-ops), which is what a tracing-off worker wants.
pub fn bind(lane: &TraceLane) -> Bound {
    let prev = CURRENT.with(|c| c.replace(lane.inner.clone()));
    Bound { prev }
}

/// The lane bound to the current thread, if any — where a [`Span`]
/// opened now will land its event.
pub(crate) fn bound() -> Option<Arc<LaneBuf>> {
    CURRENT.with(|c| c.borrow().clone())
}

fn with_bound(f: impl FnOnce(&LaneBuf)) {
    CURRENT.with(|c| {
        if let Some(buf) = c.borrow().as_deref() {
            f(buf);
        }
    });
}

/// Returns `true` if the current thread has an enabled lane bound —
/// lets manually-timed call sites skip reading the clock entirely.
pub fn is_active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Records an instant event on the current thread's lane, if any.
pub fn instant_now(name: &str, cat: &'static str) {
    with_bound(|buf| buf.push_now(name, cat, EventKind::Instant));
}

/// Starts a span on the current thread's lane only: when dropped it
/// records one complete event, but nothing into any recorder. For
/// per-root, per-frame and per-batch events whose names are signatures
/// or counts; phases that also belong in `durations` open
/// [`Recorder::span`](crate::Recorder::span) instead. `name` is
/// formatted only when a lane is bound, so a `format_args!` name costs
/// nothing on an untraced thread.
pub fn span_now(name: impl Display, cat: &'static str) -> Span {
    Span::open(Histogram::default(), name, cat)
}

/// Records a caller-timed complete event (`start` → now) on the current
/// thread's lane, if any. Pair with [`is_active`] to avoid the clock
/// read when tracing is off. Used where the interval is only
/// interesting in hindsight, e.g. a shard lock acquire that blocked.
pub fn complete_since(start: Instant, name: &str, cat: &'static str) {
    with_bound(|buf| buf.complete(start, start.elapsed(), name.to_owned(), cat));
}

/// Records a counter sample (`ph: "C"`) on the current thread's lane, if
/// any — a gauge value at one point in time, rendered by viewers as a
/// stacked area track.
pub fn counter_now(name: &str, cat: &'static str, value: u64) {
    with_bound(|buf| buf.push_now(name, cat, EventKind::Counter { value }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn disabled_tracer_is_noop_and_schema_valid() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let lane = tracer.lane("worker00");
        assert!(!lane.is_enabled());
        let _bound = bind(&lane);
        assert!(!is_active());
        let _span = span_now("root", "engine");
        instant_now("x", "engine");
        counter_now("depth", "engine", 3);
        complete_since(Instant::now(), "wait", "store");
        assert_eq!(tracer.event_count(), 0);
        let doc = tracer.to_chrome_json();
        json::validate_trace(&doc).unwrap();
        assert!(doc.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn events_round_trip_through_chrome_json() {
        let tracer = Tracer::new();
        let _bound = bind(&tracer.lane("worker00"));
        {
            let _span = span_now("com.example.Main.run()", "root");
            instant_now("cache.miss", "cache");
        }
        counter_now("queue.depth", "serve", 2);
        complete_since(Instant::now(), "lock_wait", "store");
        assert_eq!(tracer.event_count(), 4);
        let doc = tracer.to_chrome_json();
        json::validate_trace(&doc).unwrap();
        assert!(doc.contains("\"thread_name\""));
        assert!(doc.contains("\"worker00\""));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("\"schema\":\"spo-trace/1\""));
    }

    #[test]
    fn ring_drops_oldest_and_counts_evictions() {
        let tracer = Tracer::with_capacity(16);
        let _bound = bind(&tracer.lane("main"));
        for i in 0..40 {
            instant_now(&format!("ev{i}"), "test");
        }
        assert_eq!(tracer.event_count(), 16);
        assert_eq!(tracer.dropped(), 24);
        let doc = tracer.to_chrome_json();
        json::validate_trace(&doc).unwrap();
        // The oldest events were evicted; the newest survive.
        assert!(!doc.contains("\"ev0\""));
        assert!(doc.contains("\"ev39\""));
        assert!(doc.contains("\"dropped\":24"));
    }

    #[test]
    fn lanes_get_distinct_tids_in_registration_order() {
        let tracer = Tracer::new();
        let a = tracer.lane("main");
        let b = tracer.lane(format_args!("worker{:02}", 0));
        for (lane, name) in [(&a, "a"), (&b, "b")] {
            let _bound = bind(lane);
            instant_now(name, "test");
        }
        let doc = tracer.to_chrome_json();
        let a_meta = doc.find("\"main\"").unwrap();
        let b_meta = doc.find("\"worker00\"").unwrap();
        assert!(a_meta < b_meta);
        assert!(doc.contains("\"tid\":1"));
        assert!(doc.contains("\"tid\":2"));
    }

    #[test]
    fn thread_local_binding_nests_and_restores() {
        assert!(!is_active());
        instant_now("ignored", "test"); // no lane bound: no-op
        let tracer = Tracer::new();
        let outer = tracer.lane("outer");
        let inner = tracer.lane("inner");
        {
            let _o = bind(&outer);
            assert!(is_active());
            instant_now("on-outer", "test");
            {
                let _i = bind(&inner);
                instant_now("on-inner", "test");
                let _s = span_now("inner-span", "test");
            }
            instant_now("outer-again", "test");
            // Binding a disabled lane unbinds until its guard drops.
            {
                let _off = bind(&TraceLane::disabled());
                assert!(!is_active());
                instant_now("ignored", "test");
            }
            assert!(is_active());
        }
        assert!(!is_active());
        let doc = tracer.to_chrome_json();
        json::validate_trace(&doc).unwrap();
        assert_eq!(tracer.event_count(), 4);
    }

    #[test]
    fn complete_since_has_duration_and_nonnegative_ts() {
        let tracer = Tracer::new();
        let _bound = bind(&tracer.lane("main"));
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        complete_since(start, "wait", "store");
        let doc = tracer.to_chrome_json();
        json::validate_trace(&doc).unwrap();
        let v = json::parse(&doc).unwrap();
        let evs = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let wait = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("wait"))
            .unwrap();
        assert_eq!(wait.get("ph").and_then(|p| p.as_str()), Some("X"));
        assert!(wait.get("dur").is_some());
    }
}
