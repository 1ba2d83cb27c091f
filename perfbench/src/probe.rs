//! Measurement plumbing owned by the benchmark: the counting allocator
//! behind the traced run's `*.alloc_mb`, the per-op layer spans, the
//! host-noise reference kernel and peak-RSS readings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The system allocator plus a byte counter that only runs while
/// [`count_allocations`] has switched it on (the traced run). Untimed
/// and timed runs pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: forwarded verbatim; `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Switches allocation counting on or off for the whole process.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Bytes allocated (and grown by `realloc`) while counting was on.
pub fn allocated() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// One traced op's layer spans: wall time and allocated bytes per span
/// name, plus named per-op values (counts and standalone timings) that
/// are not part of the op's wall time.
#[derive(Default)]
pub struct Spans {
    pub spans: BTreeMap<&'static str, (f64, u64)>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Runs `f` as (one more call of) the layer span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let a0 = allocated();
        let t0 = Instant::now();
        let out = f();
        let ms = ms_since(t0);
        let bytes = allocated() - a0;
        let slot = self.spans.entry(name).or_default();
        slot.0 += ms;
        slot.1 += bytes;
        out
    }

    /// Adds `v` to the per-op value `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    /// Wall time covered by the spans.
    pub fn attributed_ms(&self) -> f64 {
        self.spans.values().map(|s| s.0).sum()
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A fixed std-only kernel whose cost never changes with the program:
/// FNV-1a over a 4 MiB buffer. Interleaved with the ops, its time shows
/// when a run sat in one of the host's slow stretches. Diagnostic only.
pub struct HostRef {
    buf: Vec<u8>,
    pub samples: Vec<f64>,
}

impl HostRef {
    pub fn new() -> HostRef {
        let buf = (0..4u32 << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        HostRef {
            buf,
            samples: Vec::new(),
        }
    }

    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in std::hint::black_box(&self.buf) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        std::hint::black_box(h);
        self.samples.push(ms_since(t0));
    }
}

extern "C" {
    /// glibc: returns free heap memory to the system.
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Returns this process's free heap memory to the system.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` takes no pointers and locks each arena itself,
    // so it may be called from any thread at any time.
    unsafe { malloc_trim(0) };
}

/// Restarts the peak-RSS count (`VmHWM`) of process `pid`, so that a later
/// [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss(pid: &str) -> Result<(), String> {
    let path = format!("/proc/{pid}/clear_refs");
    std::fs::write(&path, "5").map_err(|e| format!("{path}: {e}"))
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// The `q`-quantile of `v` (nearest rank on a sorted copy); 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The smallest value of `v`; 0 when empty.
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}
