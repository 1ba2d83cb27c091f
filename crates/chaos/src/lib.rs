//! # spo-chaos — deterministic fault injection
//!
//! The guard layer (quarantine, budgets, cancellation) and the cache's
//! degrade-to-cold fallbacks only earn trust if something in the tree can
//! actually *produce* the failures they claim to absorb. This crate is
//! that something: a seeded plan of named fault sites compiled into the
//! durable index writer, the daemon's session IO, and the engine's worker
//! loop. Every failure a plan injects is a pure function of the plan's
//! seed plus either a per-site sequence number or a caller-supplied key,
//! so any observed failure replays from a single printed seed.
//!
//! The handle follows the Recorder/Tracer disabled-is-free pattern: a
//! [`FaultPlan`] is an `Option<Arc<..>>` and a disabled plan answers
//! every probe with one branch on a `None` — production binaries carry
//! the fault sites at zero practical cost.
//!
//! Two keying modes cover the two scheduling regimes:
//!
//! - [`FaultPlan::should_fire`] draws from a per-site *sequence* stream
//!   (`seed ⊕ site ⊕ n` for the site's n-th probe). Deterministic when
//!   the site is probed in a deterministic order (single-threaded IO
//!   paths: cache flush, one rpc session's reads and writes).
//! - [`FaultPlan::should_fire_keyed`] draws from `seed ⊕ site ⊕ key`, a
//!   pure function of the *argument* — the right mode inside thread
//!   pools, where work-stealing makes probe order nondeterministic but
//!   the set of work items (root signatures) is fixed.
//!
//! A `spo` process reads its plan from the `SPO_CHAOS` environment
//! variable (see [`init_from_env`] and [`FaultPlan::parse`]). That is
//! how the `spo-soak` binary, which lives outside the oracle and drives
//! `spo` as a black box, hands each schedule's seed to a daemon child,
//! the one-shot CLI children, and every layer inside them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use spo_rng::SmallRng;

/// The environment variable carrying a rendered fault-plan spec into
/// child processes (see [`FaultPlan::parse`] for the format).
pub const ENV_VAR: &str = "SPO_CHAOS";

/// Canonical fault-site names. Sites are compiled into production code
/// paths; a plan only arms the subset it names.
pub mod sites {
    /// A durable index write (cache flush or `spo export`) writes only
    /// a prefix of the temp file, then fails with a transient error (a
    /// torn write).
    pub const CACHE_WRITE_SHORT: &str = "cache.write.short";
    /// A durable index write fails at the atomic rename step.
    pub const CACHE_RENAME_FAIL: &str = "cache.rename.fail";
    /// A durable index write flips one byte of the encoded file before
    /// writing — the write *succeeds*, leaving silent corruption for the
    /// next load to detect and heal.
    pub const CACHE_BITFLIP: &str = "cache.bitflip";
    /// A durable index write fails at `sync_all` on the temp file.
    pub const CACHE_FSYNC_FAIL: &str = "cache.fsync.fail";
    /// Daemon drops the connection mid-response: half the frame is
    /// written, then both stream halves are shut down.
    pub const SERVE_CONN_DROP: &str = "serve.conn.drop";
    /// Daemon stalls before consuming a request line.
    pub const SERVE_READ_STALL: &str = "serve.read.stall";
    /// Daemon stalls mid-write (exercises client read patience and the
    /// daemon's own write deadline).
    pub const SERVE_WRITE_STALL: &str = "serve.write.stall";
    /// Daemon writes a response frame in two separately flushed chunks
    /// (a split frame — readers must assemble on the newline, not the
    /// read boundary).
    pub const SERVE_FRAME_SPLIT: &str = "serve.frame.split";
    /// Engine worker panics while analyzing a root (quarantined to a
    /// degraded root; keyed by root signature).
    pub const ENGINE_ROOT_PANIC: &str = "engine.root.panic";
    /// Engine worker sleeps while analyzing a root (keyed by root
    /// signature; exercises deadlines and drain grace). The plan's
    /// `delay_ms` field fixes the sleep; without it the sleep is a seeded
    /// 1–20 ms.
    pub const ENGINE_ROOT_DELAY: &str = "engine.root.delay";
    /// Engine worker panics while committing a finished batch, after it
    /// took the shared results lock — poisoning that lock (keyed by each
    /// root signature in the batch; the whole batch degrades).
    pub const ENGINE_COMMIT_PANIC: &str = "engine.commit.panic";
    /// One byte of a compiled policy index flips between the `read()`
    /// and the checksum verify (must surface as a typed parse failure,
    /// never a wrong answer).
    pub const INDEX_READ_BITFLIP: &str = "index.read.bitflip";

    /// Every named site, in canonical order.
    pub const ALL: &[&str] = &[
        CACHE_WRITE_SHORT,
        CACHE_RENAME_FAIL,
        CACHE_BITFLIP,
        CACHE_FSYNC_FAIL,
        SERVE_CONN_DROP,
        SERVE_READ_STALL,
        SERVE_WRITE_STALL,
        SERVE_FRAME_SPLIT,
        ENGINE_ROOT_PANIC,
        ENGINE_ROOT_DELAY,
        ENGINE_COMMIT_PANIC,
        INDEX_READ_BITFLIP,
    ];
}

/// A site's arming rule: fire with a probability, exactly once (the
/// site's first probe), or on every keyed probe whose key contains a
/// needle. The last two pin single-fault scenarios in tests.
#[derive(Clone, Debug, PartialEq)]
enum Rate {
    Probability(f64),
    Once,
    Needle(String),
}

#[derive(Debug)]
struct Shared {
    seed: u64,
    rates: BTreeMap<&'static str, Rate>,
    // Fixed sleep for `engine.root.delay` when it fires.
    delay_ms: Option<u64>,
    // Per-site probe counters for the sequence-keyed mode.
    counters: Mutex<BTreeMap<&'static str, u64>>,
    injected: AtomicU64,
    recovered: AtomicU64,
    per_site: Mutex<BTreeMap<&'static str, u64>>,
}

/// A seeded schedule of fault injections. Cloning shares the plan (and
/// its counters); the disabled plan is free to probe.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan(Option<Arc<Shared>>);

/// FNV-1a over a string — stable site/key hashing for stream derivation.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonicalizes a site name to its `'static` form so counters key on
/// identity-stable strings. Unknown names are rejected at parse/arm time.
fn canonical(site: &str) -> Option<&'static str> {
    sites::ALL.iter().copied().find(|s| *s == site)
}

impl FaultPlan {
    /// The inert plan: every probe is one branch and a `false`.
    pub fn disabled() -> FaultPlan {
        FaultPlan(None)
    }

    /// A plan with `seed` and no armed sites; arm sites with
    /// [`FaultPlan::site`] or [`FaultPlan::sites_at`].
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan(Some(Arc::new(Shared {
            seed,
            rates: BTreeMap::new(),
            delay_ms: None,
            counters: Mutex::new(BTreeMap::new()),
            injected: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            per_site: Mutex::new(BTreeMap::new()),
        })))
    }

    /// Arms `site` at probability `rate` (clamped to `0.0..=1.0`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown site name or a disabled plan — both are
    /// construction-time programming errors, not runtime conditions.
    #[must_use]
    pub fn site(self, site: &str, rate: f64) -> FaultPlan {
        self.arm(site, Rate::Probability(rate.clamp(0.0, 1.0)))
    }

    /// Arms `site` to fire exactly once, on its first probe. For keyed
    /// probes "once" fires on every distinct key's first probe.
    ///
    /// # Panics
    ///
    /// Panics on an unknown site name or a disabled plan.
    #[must_use]
    pub fn site_once(self, site: &str) -> FaultPlan {
        self.arm(site, Rate::Once)
    }

    /// Arms `site` to fire on every keyed probe whose key contains
    /// `needle` (and on no sequence probe, which has no key).
    ///
    /// # Panics
    ///
    /// Panics on an unknown site name or a disabled plan.
    #[must_use]
    pub fn site_matching(self, site: &str, needle: &str) -> FaultPlan {
        self.arm(site, Rate::Needle(needle.to_owned()))
    }

    /// Arms every site in `names` at `rate`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown site name or a disabled plan.
    #[must_use]
    pub fn sites_at(mut self, names: &[&str], rate: f64) -> FaultPlan {
        for name in names {
            self = self.site(name, rate);
        }
        self
    }

    fn arm(self, site: &str, rate: Rate) -> FaultPlan {
        let canon =
            canonical(site).unwrap_or_else(|| panic!("spo-chaos: unknown fault site \"{site}\""));
        let shared = self.0.expect("spo-chaos: cannot arm a disabled plan");
        // Plans are built before they are shared; a clone at arm time
        // would silently fork counters, so insist on sole ownership.
        let mut inner =
            Arc::try_unwrap(shared).expect("spo-chaos: arm sites before sharing the plan");
        inner.rates.insert(canon, rate);
        FaultPlan(Some(Arc::new(inner)))
    }

    /// Whether any sites can fire.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The plan's seed, if enabled.
    pub fn seed(&self) -> Option<u64> {
        self.0.as_ref().map(|s| s.seed)
    }

    /// The fixed `engine.root.delay` sleep, if the plan sets one.
    pub fn delay_ms(&self) -> Option<u64> {
        self.0.as_ref().and_then(|s| s.delay_ms)
    }

    /// Sequence-keyed probe: does `site` fire on this, its n-th, probe?
    /// Deterministic when the site is probed in a deterministic order.
    pub fn should_fire(&self, site: &str) -> bool {
        let Some(shared) = &self.0 else { return false };
        let Some((canon, rate)) = shared.rate_of(site) else {
            return false;
        };
        if let Rate::Needle(_) = rate {
            return false;
        }
        let n = {
            let mut counters = shared
                .counters
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let slot = counters.entry(canon).or_insert(0);
            let n = *slot;
            *slot += 1;
            n
        };
        shared.decide(canon, rate, n, n)
    }

    /// Content-keyed probe: does `site` fire for `key`? A pure function
    /// of `(seed, site, key)` — deterministic under any thread
    /// interleaving, so it is the right mode inside worker pools.
    pub fn should_fire_keyed(&self, site: &str, key: &str) -> bool {
        let Some(shared) = &self.0 else { return false };
        let Some((canon, rate)) = shared.rate_of(site) else {
            return false;
        };
        if let Rate::Needle(needle) = rate {
            let fire = key.contains(needle.as_str());
            if fire {
                shared.note_injected(canon);
            }
            return fire;
        }
        shared.decide(canon, rate, fnv(key), 0)
    }

    /// A deterministic fault parameter in `0..bound` for `site` (byte
    /// position to flip, milliseconds to stall, …), drawn from a stream
    /// disjoint from the fire/no-fire draws. Returns 0 when the plan is
    /// disabled or `bound` is 0.
    pub fn amount(&self, site: &str, bound: u64) -> u64 {
        let Some(shared) = &self.0 else { return 0 };
        if bound == 0 {
            return 0;
        }
        let n = {
            let counters = shared
                .counters
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            counters.get(site).copied().unwrap_or(0)
        };
        let mut rng = SmallRng::seed_from_u64(
            shared.seed ^ fnv(site).rotate_left(17) ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        rng.gen_range(0..bound)
    }

    /// Records that a layer recovered from an injected fault (a retry
    /// succeeded, a reconnect went through).
    pub fn note_recovered(&self, _site: &str) {
        if let Some(shared) = &self.0 {
            shared.recovered.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total faults injected through this plan.
    pub fn injected(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |s| s.injected.load(Ordering::Relaxed))
    }

    /// Total recoveries noted against this plan.
    pub fn recovered(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |s| s.recovered.load(Ordering::Relaxed))
    }

    /// Per-site injection counts, in canonical site order.
    pub fn per_site(&self) -> Vec<(&'static str, u64)> {
        let Some(shared) = &self.0 else {
            return Vec::new();
        };
        shared
            .per_site
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(site, n)| (*site, *n))
            .collect()
    }

    /// Parses a plan spec, the `SPO_CHAOS` wire format:
    ///
    /// ```text
    /// seed=N,rate=R,delay_ms=N,sites=SITE[:RATE|:once|~NEEDLE][+SITE...]
    /// ```
    ///
    /// `rate` is the default probability for sites without a suffix
    /// (default 0.1); `sites=all` arms every known site. `SITE~NEEDLE`
    /// fires on exactly the keyed probes whose key contains NEEDLE.
    /// `delay_ms` (at least 1) fixes the `engine.root.delay` sleep. An
    /// empty spec is the disabled plan.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field or unknown site.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(FaultPlan::disabled());
        }
        let mut seed: Option<u64> = None;
        let mut default_rate = 0.1f64;
        let mut delay_ms: Option<u64> = None;
        let mut site_list: Vec<(String, Option<Rate>)> = Vec::new();
        for field in spec.split(',') {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("malformed field \"{field}\" (expected key=value)"))?;
            match key.trim() {
                "seed" => {
                    seed = Some(
                        value
                            .trim()
                            .parse::<u64>()
                            .map_err(|e| format!("seed \"{value}\": {e}"))?,
                    );
                }
                "rate" => {
                    default_rate = parse_rate(value)?;
                }
                "delay_ms" => match value.trim().parse::<u64>() {
                    Ok(ms) if ms >= 1 => delay_ms = Some(ms),
                    _ => return Err(format!("delay_ms \"{value}\": expected an integer >= 1")),
                },
                "sites" => {
                    for part in value.split('+') {
                        let part = part.trim();
                        if part.is_empty() {
                            continue;
                        }
                        if part == "all" {
                            for s in sites::ALL {
                                site_list.push(((*s).to_owned(), None));
                            }
                            continue;
                        }
                        if let Some((name, needle)) = part.split_once('~') {
                            if needle.is_empty() {
                                return Err(format!("site \"{name}\": empty needle after `~`"));
                            }
                            site_list
                                .push((name.to_owned(), Some(Rate::Needle(needle.to_owned()))));
                            continue;
                        }
                        match part.split_once(':') {
                            None => site_list.push((part.to_owned(), None)),
                            Some((name, "once")) => {
                                site_list.push((name.to_owned(), Some(Rate::Once)));
                            }
                            Some((name, rate)) => site_list.push((
                                name.to_owned(),
                                Some(Rate::Probability(parse_rate(rate)?)),
                            )),
                        }
                    }
                }
                other => return Err(format!("unknown field \"{other}\"")),
            }
        }
        let seed = seed.ok_or("missing required field \"seed\"")?;
        let mut plan = FaultPlan::seeded(seed);
        for (name, rate) in site_list {
            if canonical(&name).is_none() {
                return Err(format!("unknown fault site \"{name}\""));
            }
            plan = plan.arm(&name, rate.unwrap_or(Rate::Probability(default_rate)));
        }
        if let Some(shared) = plan.0.as_mut().and_then(Arc::get_mut) {
            shared.delay_ms = delay_ms;
        }
        Ok(plan)
    }
}

impl Shared {
    fn rate_of(&self, site: &str) -> Option<(&'static str, &Rate)> {
        // Armed sites are canonical; an unarmed (or unknown) site never
        // fires, so the probe stays cheap for plans arming other layers.
        self.rates.get_key_value(site).map(|(k, v)| (*k, v))
    }

    /// One fire/no-fire decision from the `(seed, site, draw)` stream;
    /// `once_index` is the probe ordinal "once" compares against.
    fn decide(&self, canon: &'static str, rate: &Rate, draw: u64, once_index: u64) -> bool {
        let fire = match rate {
            Rate::Once => once_index == 0,
            Rate::Probability(p) => {
                let mut rng = SmallRng::seed_from_u64(
                    self.seed ^ fnv(canon) ^ draw.wrapping_mul(0x2545_f491_4f6c_dd1d),
                );
                rng.gen_bool(*p)
            }
            Rate::Needle(_) => false,
        };
        if fire {
            self.note_injected(canon);
        }
        fire
    }

    fn note_injected(&self, canon: &'static str) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        *self
            .per_site
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(canon)
            .or_insert(0) += 1;
    }
}

fn parse_rate(value: &str) -> Result<f64, String> {
    let rate = value
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("rate \"{value}\": {e}"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("rate {rate} out of range 0.0..=1.0"));
    }
    Ok(rate)
}

// The process-wide plan. Layers that cannot thread a handle (the cache
// opened deep inside the CLI, the daemon's session loops) capture
// `current()` once at construction; `ENABLED` keeps the ambient probes
// free when no plan was ever installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Mutex<FaultPlan>> = OnceLock::new();

fn global() -> &'static Mutex<FaultPlan> {
    GLOBAL.get_or_init(|| Mutex::new(FaultPlan::disabled()))
}

/// Installs `plan` as the process-wide plan (what [`current`] returns).
/// Layers capture the plan at construction, so install before building
/// engines, caches, or daemons.
pub fn install(plan: FaultPlan) {
    ENABLED.store(plan.is_enabled(), Ordering::Release);
    *global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = plan;
}

/// The process-wide plan (disabled unless [`install`] armed one). The
/// returned handle shares the installed plan's counters.
pub fn current() -> FaultPlan {
    if !ENABLED.load(Ordering::Acquire) {
        return FaultPlan::disabled();
    }
    global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Installs the plan described by the `SPO_CHAOS` environment variable,
/// if set — how a `spo-soak` schedule's seed reaches the daemon and
/// one-shot CLI children it spawns. A missing or empty variable is a
/// no-op.
///
/// # Errors
///
/// Returns the [`FaultPlan::parse`] error for a malformed spec.
pub fn init_from_env() -> Result<(), String> {
    match std::env::var(ENV_VAR) {
        Err(_) => Ok(()),
        Ok(spec) => {
            let plan = FaultPlan::parse(&spec)?;
            if plan.is_enabled() {
                install(plan);
            }
            Ok(())
        }
    }
}

/// A transient-looking injected IO error for `site` — `Interrupted`, so
/// hardened layers classify it as retryable.
pub fn injected_io_error(site: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        format!("chaos: injected fault at {site}"),
    )
}

/// Whether `err` is an injected chaos error (used by soak assertions to
/// distinguish injected faults from real environment failures).
pub fn is_injected(err: &std::io::Error) -> bool {
    err.to_string().starts_with("chaos: injected fault")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders a plan back into the [`FaultPlan::parse`] wire format
    /// (empty for a disabled plan): the reference the parse round trips
    /// are checked against.
    fn render_spec(plan: &FaultPlan) -> String {
        let Some(shared) = &plan.0 else {
            return String::new();
        };
        let mut out = format!("seed={}", shared.seed);
        if let Some(ms) = shared.delay_ms {
            out.push_str(&format!(",delay_ms={ms}"));
        }
        if !shared.rates.is_empty() {
            out.push_str(",sites=");
            let rendered: Vec<String> = shared
                .rates
                .iter()
                .map(|(site, rate)| match rate {
                    Rate::Once => format!("{site}:once"),
                    Rate::Probability(p) => format!("{site}:{p}"),
                    Rate::Needle(needle) => format!("{site}~{needle}"),
                })
                .collect();
            out.push_str(&rendered.join("+"));
        }
        out
    }

    #[test]
    fn disabled_plan_never_fires_and_costs_nothing_to_probe() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_enabled());
        for site in sites::ALL {
            assert!(!plan.should_fire(site));
            assert!(!plan.should_fire_keyed(site, "k"));
        }
        assert_eq!(plan.amount(sites::CACHE_BITFLIP, 100), 0);
        assert_eq!(plan.injected(), 0);
        assert_eq!(render_spec(&plan), "");
    }

    #[test]
    fn sequence_stream_is_a_pure_function_of_the_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).site(sites::CACHE_RENAME_FAIL, 0.5);
            (0..64)
                .map(|_| plan.should_fire(sites::CACHE_RENAME_FAIL))
                .collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8), "different seeds should diverge");
        let fired = draw(7).iter().filter(|f| **f).count();
        assert!((8..=56).contains(&fired), "rate 0.5 wildly off: {fired}/64");
    }

    #[test]
    fn keyed_probes_ignore_ordering() {
        let plan = FaultPlan::seeded(3).site(sites::ENGINE_ROOT_PANIC, 0.5);
        let keys = ["a.A.m()V", "b.B.n()V", "c.C.o()V", "d.D.p()V"];
        let forward: Vec<bool> = keys
            .iter()
            .map(|k| plan.should_fire_keyed(sites::ENGINE_ROOT_PANIC, k))
            .collect();
        let mut reversed: Vec<bool> = keys
            .iter()
            .rev()
            .map(|k| plan.should_fire_keyed(sites::ENGINE_ROOT_PANIC, k))
            .collect();
        reversed.reverse();
        assert_eq!(forward, reversed);

        // A needle fires on exactly the keys containing it, in any order,
        // and never on a sequence probe (which has no key).
        let needle = FaultPlan::seeded(3).site_matching(sites::ENGINE_ROOT_PANIC, "B.n");
        let fired: Vec<bool> = keys
            .iter()
            .rev()
            .map(|k| needle.should_fire_keyed(sites::ENGINE_ROOT_PANIC, k))
            .collect();
        assert_eq!(fired, [false, false, true, false]);
        assert!(!needle.should_fire(sites::ENGINE_ROOT_PANIC));
        assert_eq!(needle.injected(), 1);
    }

    #[test]
    fn once_fires_exactly_on_the_first_probe() {
        let plan = FaultPlan::seeded(1).site_once(sites::SERVE_CONN_DROP);
        assert!(plan.should_fire(sites::SERVE_CONN_DROP));
        for _ in 0..16 {
            assert!(!plan.should_fire(sites::SERVE_CONN_DROP));
        }
        assert_eq!(plan.injected(), 1);
        assert_eq!(plan.per_site(), vec![(sites::SERVE_CONN_DROP, 1)]);
    }

    #[test]
    fn unarmed_sites_never_fire() {
        let plan = FaultPlan::seeded(1).site(sites::CACHE_BITFLIP, 1.0);
        assert!(!plan.should_fire(sites::CACHE_RENAME_FAIL));
        assert!(plan.should_fire(sites::CACHE_BITFLIP));
    }

    #[test]
    fn spec_round_trips_through_parse() {
        let plan = FaultPlan::seeded(42)
            .site(sites::CACHE_BITFLIP, 0.25)
            .site_once(sites::SERVE_CONN_DROP)
            .site_matching(sites::ENGINE_ROOT_PANIC, "A.read");
        let spec = render_spec(&plan);
        assert!(spec.contains("engine.root.panic~A.read"), "{spec}");
        let reparsed = FaultPlan::parse(&spec).unwrap();
        assert_eq!(render_spec(&reparsed), spec);
        assert_eq!(reparsed.seed(), Some(42));

        let delayed = "seed=7,delay_ms=250,sites=engine.root.delay:1";
        let plan = FaultPlan::parse(delayed).unwrap();
        assert_eq!(plan.delay_ms(), Some(250));
        assert_eq!(render_spec(&plan), delayed);
        assert_eq!(
            FaultPlan::parse(&render_spec(&plan)).unwrap().delay_ms(),
            Some(250)
        );
        assert_eq!(FaultPlan::seeded(7).delay_ms(), None);
    }

    #[test]
    fn parse_accepts_the_documented_forms_and_rejects_garbage() {
        assert!(!FaultPlan::parse("").unwrap().is_enabled());
        let plan =
            FaultPlan::parse("seed=9,rate=0.3,sites=cache.bitflip+serve.conn.drop:once").unwrap();
        assert_eq!(plan.seed(), Some(9));
        let all = FaultPlan::parse("seed=1,sites=all").unwrap();
        assert!(render_spec(&all).contains(sites::ENGINE_ROOT_DELAY));
        assert!(FaultPlan::parse("sites=all").is_err(), "seed is required");
        assert!(FaultPlan::parse("seed=1,sites=no.such.site").is_err());
        assert!(FaultPlan::parse("seed=1,rate=7").is_err());
        assert!(FaultPlan::parse("garbage").is_err());
        let needle =
            FaultPlan::parse("seed=1,sites=engine.root.panic~DatagramSocket.connect").unwrap();
        assert!(needle.should_fire_keyed(
            sites::ENGINE_ROOT_PANIC,
            "java.net.DatagramSocket.connect(java.net.InetAddress,int)"
        ));
        assert!(!needle.should_fire_keyed(sites::ENGINE_ROOT_PANIC, "java.net.Socket.connect()"));
        assert!(
            FaultPlan::parse("seed=1,sites=engine.root.panic~").is_err(),
            "empty needle"
        );
        assert!(FaultPlan::parse("seed=1,sites=no.such.site~x").is_err());
        assert!(FaultPlan::parse("seed=1,delay_ms=0").is_err());
        assert!(FaultPlan::parse("seed=1,delay_ms=soon").is_err());
    }

    #[test]
    fn amounts_are_deterministic_and_bounded() {
        let plan = FaultPlan::seeded(11).site(sites::ENGINE_ROOT_DELAY, 1.0);
        let a = plan.amount(sites::ENGINE_ROOT_DELAY, 30);
        assert!(a < 30);
        assert_eq!(a, plan.amount(sites::ENGINE_ROOT_DELAY, 30));
        assert_eq!(plan.amount(sites::ENGINE_ROOT_DELAY, 0), 0);
    }

    #[test]
    fn injected_errors_are_transient_and_recognizable() {
        let err = injected_io_error(sites::CACHE_RENAME_FAIL);
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
        assert!(is_injected(&err));
        assert!(!is_injected(&std::io::Error::other("disk on fire")));
    }
}
