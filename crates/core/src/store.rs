//! Pluggable method-summary stores.
//!
//! The analysis memoizes context-sensitive method summaries keyed by
//! `(method, in-policy, const-params, privileged)`. Where those summaries
//! live is a policy decision: the serial analyzer (and every engine run
//! outside global memo scope) keeps them in a single-threaded
//! [`LocalStore`]; under global memo each engine worker reads and writes a
//! sharded, lock-striped [`SharedStore`] through its own [`WriteBehind`]
//! buffer, so a summary computed by one worker is reused by all others.
//!
//! Sharing is safe because only *clean* summaries — those whose subtree was
//! not cut by recursion — are ever inserted, and a clean summary is a pure
//! function of its [`MemoKey`]: a hit returns exactly what recomputation
//! would produce, so analysis results are independent of which store (and
//! how many threads) produced them.

use crate::events::EventKey;
use crate::ispa::FlowPolicy;
use spo_dataflow::AbsVal;
use spo_jir::MethodId;
use spo_obs::{trace, Counter, HistSnapshot, Histogram, Recorder};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Default number of lock stripes in a [`SharedStore`] — the single source
/// of the engine's and [`SharedStore::default`]'s shard counts, so a store
/// built by one layer always matches what the other expects.
pub const DEFAULT_SHARDS: usize = 16;

/// The memoization key of a context-sensitive method summary: the paper's
/// `(method, in-policy, const-params, privileged)` context, where the
/// in-policy carries both the MAY and the MUST side.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MemoKey {
    pub(crate) method: MethodId,
    pub(crate) policy: FlowPolicy,
    pub(crate) consts: Vec<AbsVal>,
    pub(crate) privileged: bool,
}

/// One recorded security-sensitive event inside a summary.
#[derive(Clone, Debug)]
pub(crate) struct EventRec {
    pub(crate) key: EventKey,
    pub(crate) policy: FlowPolicy,
    pub(crate) origin: MethodId,
}

/// A context-sensitive method summary: the exit policy plus everything the
/// subtree recorded.
#[derive(Debug)]
pub struct Summary {
    pub(crate) exit: FlowPolicy,
    pub(crate) events: Vec<EventRec>,
    pub(crate) checks: Vec<(crate::checks::Check, MethodId)>,
}

/// The deterministic per-frame metrics a clean summary carries into a
/// deferred (write-behind) publication, so the commit protocol's
/// counters can be flushed when the insert outcome becomes known.
///
/// Every field is a pure function of the summary's [`MemoKey`] — the
/// fixpoint over a method body in a fixed context performs the same
/// transfers and resolves the same calls no matter which worker runs it —
/// which is what lets a *different* worker's copy claim the committed
/// flush without perturbing the deterministic totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameCost {
    /// Worklist transfer-function applications of the frame's fixpoint.
    pub transfers: u64,
    /// Statements visited at least once by the fixpoint (so
    /// `transfers - visited` is the repass count).
    pub visited: u64,
    /// CFG edges of the frame's body (0 when the recorder was disabled).
    pub cfg_edges: u64,
    /// Call sites resolved to a unique target.
    pub resolved: u64,
    /// Call sites left ambiguous or unknown.
    pub unresolved: u64,
}

/// Storage backend for memoized method summaries.
///
/// Implementations use interior mutability so a store can be shared by
/// reference between the analysis frames of one root (and, for a
/// [`LocalStore`] under global memo, between roots).
pub trait SummaryStore {
    /// Looks up the summary for `key`, if one was recorded.
    fn get(&self, key: &MemoKey) -> Option<Arc<Summary>>;

    /// Records the summary computed for `key`, carrying the frame's
    /// deterministic metrics so a buffering store can defer the insert —
    /// and with it the committed-vs-speculative decision — to a later
    /// batched flush.
    ///
    /// Returns `Some(newness)` when the insert happened immediately:
    /// `true` if the key was newly inserted, `false` if another
    /// computation got there first — the signal the observability layer
    /// uses to count each memoized frame exactly once regardless of
    /// worker count; the caller flushes its own frame metrics. Returns
    /// `None` when the insert was deferred: the store now owns `cost` and
    /// must flush it under the same commit protocol once the batched
    /// insert resolves.
    fn insert_costed(&self, key: MemoKey, summary: Arc<Summary>, cost: FrameCost) -> Option<bool>;

    /// Number of summaries currently stored.
    fn len(&self) -> usize;

    /// Returns `true` if the store holds no summaries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The serial store: one thread, no locking.
#[derive(Debug, Default)]
pub struct LocalStore {
    map: RefCell<HashMap<MemoKey, Arc<Summary>>>,
}

impl SummaryStore for LocalStore {
    fn get(&self, key: &MemoKey) -> Option<Arc<Summary>> {
        self.map.borrow().get(key).map(Arc::clone)
    }

    /// Never defers: the frame's metrics are settled by the caller.
    fn insert_costed(&self, key: MemoKey, summary: Arc<Summary>, _cost: FrameCost) -> Option<bool> {
        Some(self.map.borrow_mut().insert(key, summary).is_none())
    }

    fn len(&self) -> usize {
        self.map.borrow().len()
    }
}

struct Shard {
    map: RwLock<HashMap<MemoKey, Arc<Summary>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    contended: AtomicU64,
    /// Nanoseconds spent blocked on this shard's lock, one observation
    /// per contended acquisition. Always enabled: the histogram is only
    /// touched on the already-slow `WouldBlock` path.
    wait: Histogram,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            wait: Histogram::standalone(),
        }
    }
}

/// Blocks on a contended shard lock acquisition, recording the wait into
/// the shard's histogram and — when the calling thread has a trace lane
/// bound — as a `lock_wait` timeline event.
fn blocking_acquire<G>(wait: &Histogram, acquire: impl FnOnce() -> G) -> G {
    let start = Instant::now();
    let guard = acquire();
    wait.record(start.elapsed().as_nanos() as u64);
    trace::complete_since(start, "lock_wait", "store");
    guard
}

/// Counters of one [`SharedStore`] shard, snapshot by
/// [`SharedStore::shard_stats`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ShardStats {
    /// Lookups that found a summary.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lock acquisitions that had to wait for another thread.
    pub contended: u64,
    /// Summaries currently stored in the shard.
    pub entries: usize,
    /// Histogram of nanoseconds spent blocked on the shard lock — one
    /// observation per contended acquisition.
    pub lock_wait: HistSnapshot,
}

/// One publishable store entry: a memo key and its summary.
pub type StoreEntry = (MemoKey, Arc<Summary>);

/// The concurrent store: lock-striped shards shared between worker threads.
///
/// Keys are distributed over shards by hash so concurrent workers mostly
/// touch different locks; each shard counts its hits, misses, and contended
/// acquisitions for the engine's per-run statistics.
pub struct SharedStore {
    shards: Vec<Shard>,
}

impl SharedStore {
    /// Creates a store with `shards` lock stripes (rounded up to 1).
    pub fn new(shards: usize) -> Self {
        SharedStore {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
        }
    }

    fn shard_index(&self, key: &MemoKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn shard(&self, key: &MemoKey) -> &Shard {
        &self.shards[self.shard_index(key)]
    }

    /// Looks up the summary for `key`, counting the shard's hit or miss.
    pub fn get(&self, key: &MemoKey) -> Option<Arc<Summary>> {
        let shard = self.shard(key);
        let map = match shard.map.try_read() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                shard.contended.fetch_add(1, Ordering::Relaxed);
                blocking_acquire(&shard.wait, || {
                    shard.map.read().unwrap_or_else(|e| e.into_inner())
                })
            }
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        };
        let hit = map.get(key).map(Arc::clone);
        match hit {
            Some(_) => shard.hits.fetch_add(1, Ordering::Relaxed),
            None => shard.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Number of summaries currently stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.read().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Returns `true` if the store holds no summaries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a batch of summaries with **one lock acquisition per
    /// touched shard**, returning each entry's newness in input order
    /// (`true` for the first writer of a key, `false` for later ones).
    ///
    /// This is the write-behind publication path: a worker that buffered
    /// N summaries pays `distinct shards` write acquisitions instead of
    /// N, and exactly one `true` is still returned globally per unique
    /// key no matter how many workers flush copies of it.
    pub fn insert_batch(&self, entries: Vec<StoreEntry>) -> Vec<bool> {
        let mut newness = vec![false; entries.len()];
        // Group entry positions by shard so each stripe is locked once.
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut entries: Vec<Option<StoreEntry>> = entries.into_iter().map(Some).collect();
        for (pos, entry) in entries.iter().enumerate() {
            if let Some((key, _)) = entry {
                by_shard[self.shard_index(key)].push(pos);
            }
        }
        for (si, positions) in by_shard.into_iter().enumerate() {
            if positions.is_empty() {
                continue;
            }
            let shard = &self.shards[si];
            let mut map = match shard.map.try_write() {
                Ok(guard) => guard,
                Err(std::sync::TryLockError::WouldBlock) => {
                    shard.contended.fetch_add(1, Ordering::Relaxed);
                    blocking_acquire(&shard.wait, || {
                        shard.map.write().unwrap_or_else(|e| e.into_inner())
                    })
                }
                Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            };
            for pos in positions {
                let Some((key, summary)) = entries[pos].take() else {
                    continue;
                };
                if let std::collections::hash_map::Entry::Vacant(v) = map.entry(key) {
                    v.insert(summary);
                    newness[pos] = true;
                }
            }
        }
        newness
    }

    /// Snapshots the per-shard counters.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                contended: s.contended.load(Ordering::Relaxed),
                entries: s.map.read().unwrap_or_else(|e| e.into_inner()).len(),
                lock_wait: s.wait.snapshot(),
            })
            .collect()
    }
}

impl Default for SharedStore {
    /// [`DEFAULT_SHARDS`] stripes: enough that 8–16 workers rarely
    /// collide.
    fn default() -> Self {
        SharedStore::new(DEFAULT_SHARDS)
    }
}

/// Pre-resolved metric handles for deferred frame publication. The
/// deterministic names mirror the ISPA pass's frame-commit protocol
/// exactly (`ispa.frames`, `dataflow.transfers`, …): a frame whose clean
/// summary is deferred here flushes to the *same* counters an immediate
/// insert would have, just later — so the deterministic sections stay
/// byte-identical to the serial analyzer's.
struct WriteBehindObs {
    frames: Counter,
    transfers: Counter,
    cfg_edges: Counter,
    calls_resolved: Counter,
    calls_unresolved: Counter,
    hist_transfers: Histogram,
    hist_repasses: Histogram,
    spec_frames: Counter,
    spec_transfers: Counter,
    flushes: Counter,
    deferred_hits: Counter,
}

impl WriteBehindObs {
    fn new(rec: &Recorder) -> Self {
        WriteBehindObs {
            frames: rec.counter("ispa.frames"),
            transfers: rec.counter("dataflow.transfers"),
            cfg_edges: rec.counter("ispa.cfg.edges"),
            calls_resolved: rec.counter("ispa.calls.resolved"),
            calls_unresolved: rec.counter("ispa.calls.unresolved"),
            hist_transfers: rec.histogram("fixpoint.transfers"),
            hist_repasses: rec.histogram("fixpoint.repasses"),
            spec_frames: rec.work_counter("ispa.speculative.frames"),
            spec_transfers: rec.work_counter("ispa.speculative.transfers"),
            flushes: rec.work_counter("writeback.flushes"),
            deferred_hits: rec.work_counter("writeback.deferred_hits"),
        }
    }

    fn flush_committed(&self, cost: &FrameCost) {
        self.frames.incr();
        self.transfers.add(cost.transfers);
        self.cfg_edges.add(cost.cfg_edges);
        self.calls_resolved.add(cost.resolved);
        self.calls_unresolved.add(cost.unresolved);
        self.hist_transfers.record(cost.transfers);
        self.hist_repasses
            .record(cost.transfers.saturating_sub(cost.visited));
    }

    fn flush_speculative(&self, cost: &FrameCost) {
        self.spec_frames.incr();
        self.spec_transfers.add(cost.transfers);
    }
}

/// Plain-cell tallies of one [`WriteBehind`]'s traffic, for the engine's
/// per-run statistics (recorded even when the recorder is disabled, as in
/// timed bench runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteBehindStats {
    /// Shard-grouped batch publications performed.
    pub flushes: u64,
    /// Lookups served from the worker-local buffer (pending writes plus
    /// the read-through cache) without touching a shard lock.
    pub deferred_hits: u64,
    /// Buffered summaries that won their batched insert (entered the
    /// shared store).
    pub published: u64,
}

/// A per-worker write-behind façade over a [`SharedStore`].
///
/// Reads go worker-local-first: a summary this worker computed (still
/// buffered or already flushed) or previously fetched is returned without
/// touching a shard lock — sound because clean summaries are pure
/// functions of their key, so a stale-looking local copy can never differ
/// from the shared one. Writes accumulate in a local buffer and publish
/// through [`SharedStore::insert_batch`] in shard-grouped flushes (one
/// lock acquisition per touched shard per flush); the frame-commit
/// decision for each buffered summary — committed vs speculative — is
/// deferred with it and settled by the batched insert's newness, so
/// exactly one committed flush still happens globally per unique memo key
/// and the deterministic stats sections remain byte-identical to the
/// serial analyzer's at any worker count.
///
/// Not `Sync`: one instance per worker thread, dropped (after a final
/// [`flush`]) when the worker retires.
///
/// [`flush`]: WriteBehind::flush
pub struct WriteBehind<'s> {
    shared: &'s SharedStore,
    local: RefCell<HashMap<MemoKey, Arc<Summary>>>,
    pending: RefCell<Vec<(StoreEntry, FrameCost)>>,
    /// Pending entries beyond this overflow into an inline flush, bounding
    /// the buffer between the engine's batch-boundary flushes.
    capacity: usize,
    obs: WriteBehindObs,
    flushes: Cell<u64>,
    deferred_hits: Cell<u64>,
    published: Cell<u64>,
}

impl<'s> WriteBehind<'s> {
    /// Buffered summaries beyond this many trigger an inline flush.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// Wraps `shared` for one worker, flushing deferred frame metrics
    /// into `rec` (the worker's private child recorder, in the engine).
    pub fn new(shared: &'s SharedStore, rec: &Recorder) -> Self {
        WriteBehind {
            shared,
            local: RefCell::new(HashMap::new()),
            pending: RefCell::new(Vec::new()),
            capacity: Self::DEFAULT_CAPACITY,
            obs: WriteBehindObs::new(rec),
            flushes: Cell::new(0),
            deferred_hits: Cell::new(0),
            published: Cell::new(0),
        }
    }

    /// Publishes every pending summary in one shard-grouped batch and
    /// settles each one's deferred commit decision. No-op when nothing is
    /// pending.
    pub fn flush(&self) {
        let pending = std::mem::take(&mut *self.pending.borrow_mut());
        if pending.is_empty() {
            return;
        }
        let count = pending.len();
        let entries = pending
            .iter()
            .map(|((key, summary), _)| (key.clone(), Arc::clone(summary)))
            .collect();
        let newness = self.shared.insert_batch(entries);
        let mut published = 0u64;
        for ((_, cost), new) in pending.iter().zip(newness) {
            if new {
                published += 1;
                self.obs.flush_committed(cost);
            } else {
                self.obs.flush_speculative(cost);
            }
        }
        self.flushes.set(self.flushes.get() + 1);
        self.published.set(self.published.get() + published);
        self.obs.flushes.incr();
        trace::counter_now("writeback.flush", "store", count as u64);
    }

    /// This worker's write-behind traffic so far.
    pub fn stats(&self) -> WriteBehindStats {
        WriteBehindStats {
            flushes: self.flushes.get(),
            deferred_hits: self.deferred_hits.get(),
            published: self.published.get(),
        }
    }
}

impl SummaryStore for WriteBehind<'_> {
    fn get(&self, key: &MemoKey) -> Option<Arc<Summary>> {
        if let Some(hit) = self.local.borrow().get(key) {
            self.deferred_hits.set(self.deferred_hits.get() + 1);
            self.obs.deferred_hits.incr();
            return Some(Arc::clone(hit));
        }
        let hit = self.shared.get(key)?;
        self.local
            .borrow_mut()
            .insert(key.clone(), Arc::clone(&hit));
        Some(hit)
    }

    fn insert_costed(&self, key: MemoKey, summary: Arc<Summary>, cost: FrameCost) -> Option<bool> {
        match self.local.borrow_mut().entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(_) => return Some(false),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Arc::clone(&summary));
            }
        }
        self.pending.borrow_mut().push(((key, summary), cost));
        if self.pending.borrow().len() >= self.capacity {
            self.flush();
        }
        None
    }

    fn len(&self) -> usize {
        // Unflushed summaries are part of this store's view.
        let shared = self.shared.len();
        let unflushed = self.pending.borrow().len();
        shared + unflushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn key(i: u32) -> MemoKey {
        MemoKey {
            method: MethodId {
                class: spo_jir::ClassId(0),
                index: i,
            },
            policy: FlowPolicy::entry(),
            consts: Vec::new(),
            privileged: false,
        }
    }

    fn summary() -> Arc<Summary> {
        Arc::new(Summary {
            exit: FlowPolicy::entry(),
            events: Vec::new(),
            checks: Vec::new(),
        })
    }

    #[test]
    fn local_store_roundtrip() {
        let store = LocalStore::default();
        assert!(store.get(&key(1)).is_none());
        assert!(store.is_empty());
        store.insert_costed(key(1), summary(), FrameCost::default());
        assert!(store.get(&key(1)).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn shared_store_roundtrip_and_stats() {
        let store = SharedStore::new(4);
        store.insert_batch((0..64).map(|i| (key(i), summary())).collect());
        assert_eq!(store.len(), 64);
        for i in 0..64 {
            assert!(store.get(&key(i)).is_some(), "key {i}");
        }
        assert!(store.get(&key(1000)).is_none());
        let stats = store.shard_stats();
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), 64);
        assert_eq!(stats.iter().map(|s| s.misses).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.entries).sum::<usize>(), 64);
        // Keys spread over more than one stripe.
        assert!(stats.iter().filter(|s| s.entries > 0).count() > 1);
    }

    #[test]
    fn insert_reports_newness() {
        // A local store never defers: every insert settles immediately.
        let local = LocalStore::default();
        let insert = |i| local.insert_costed(key(i), summary(), FrameCost::default());
        assert_eq!(insert(1), Some(true));
        assert_eq!(insert(1), Some(false));
        assert_eq!(insert(2), Some(true));
    }

    #[test]
    fn shared_store_counts_contention_under_concurrent_access() {
        // Force the collision: this thread holds the only shard's write
        // lock while a reader `get`s, and lets go only once the reader has
        // counted the contention it is about to block on.
        let store = SharedStore::new(1);
        let shard = &store.shards[0];
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let writer = shard.map.write().unwrap();
            s.spawn(|| {
                barrier.wait();
                let _ = store.get(&key(1));
            });
            barrier.wait();
            let deadline = Instant::now() + std::time::Duration::from_secs(30);
            while shard.contended.load(Ordering::Relaxed) == 0 {
                assert!(
                    Instant::now() < deadline,
                    "the reader never saw the lock held"
                );
                std::thread::yield_now();
            }
            drop(writer);
        });
        let stats = store.shard_stats();
        assert_eq!(stats[0].contended, 1);
        // The contended acquisition records one wait observation.
        assert_eq!(stats[0].lock_wait.count, 1);
        assert_eq!(stats[0].misses, 1);
    }

    #[test]
    fn insert_batch_locks_once_per_shard_and_reports_newness_in_order() {
        let store = SharedStore::new(4);
        store.insert_batch(vec![(key(2), summary())]);
        let newness = store.insert_batch(vec![
            (key(1), summary()),
            (key(2), summary()), // loses to the earlier batch
            (key(3), summary()),
            (key(3), summary()), // duplicate within the batch: first wins
        ]);
        assert_eq!(newness, vec![true, false, true, false]);
        assert_eq!(store.len(), 3);
        // A batch into a single-shard store acquires its one lock once.
        let one = SharedStore::new(1);
        let newness = one.insert_batch((0..100).map(|i| (key(i), summary())).collect());
        assert!(newness.iter().all(|&n| n));
        assert_eq!(one.len(), 100);
    }

    #[test]
    fn write_behind_defers_publication_until_flush() {
        let rec = spo_obs::Recorder::new();
        let shared = SharedStore::new(4);
        let wb = WriteBehind::new(&shared, &rec);
        let cost = FrameCost {
            transfers: 7,
            visited: 5,
            cfg_edges: 3,
            resolved: 2,
            unresolved: 1,
        };
        assert_eq!(wb.insert_costed(key(1), summary(), cost), None);
        assert_eq!(wb.insert_costed(key(2), summary(), cost), None);
        // Deferred writes are visible to this worker, invisible to others.
        assert!(wb.get(&key(1)).is_some());
        assert_eq!(shared.len(), 0);
        assert_eq!(wb.stats().deferred_hits, 1);

        wb.flush();
        assert_eq!(shared.len(), 2);
        let stats = wb.stats();
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.published, 2);
        // Both frames committed at flush under the ISPA counter names.
        let snap = rec.snapshot();
        assert_eq!(snap.counters["ispa.frames"], 2);
        assert_eq!(snap.counters["dataflow.transfers"], 14);
        assert_eq!(snap.work["writeback.flushes"], 1);
        assert_eq!(snap.work["writeback.deferred_hits"], 1);

        // A second flush with nothing pending is a no-op.
        wb.flush();
        assert_eq!(wb.stats().flushes, 1);
    }

    #[test]
    fn write_behind_race_loser_flushes_speculative() {
        let rec_a = spo_obs::Recorder::new();
        let rec_b = spo_obs::Recorder::new();
        let shared = SharedStore::new(4);
        let a = WriteBehind::new(&shared, &rec_a);
        let b = WriteBehind::new(&shared, &rec_b);
        let cost = FrameCost {
            transfers: 5,
            ..Default::default()
        };
        assert_eq!(a.insert_costed(key(1), summary(), cost), None);
        assert_eq!(b.insert_costed(key(1), summary(), cost), None);
        a.flush();
        b.flush();
        // Exactly one committed flush globally for the shared key …
        let (sa, sb) = (rec_a.snapshot(), rec_b.snapshot());
        assert_eq!(sa.counters["ispa.frames"], 1);
        assert_eq!(sb.counters["ispa.frames"], 0);
        // … and the loser's copy lands in the speculative work counters.
        assert_eq!(sb.work["ispa.speculative.frames"], 1);
        assert_eq!(sb.work["ispa.speculative.transfers"], 5);
        assert_eq!(shared.len(), 1);
        assert_eq!(a.stats().published, 1);
        assert_eq!(b.stats().published, 0);
    }

    #[test]
    fn write_behind_read_through_caches_shared_hits() {
        let rec = spo_obs::Recorder::new();
        let shared = SharedStore::new(4);
        shared.insert_batch(vec![(key(1), summary())]);
        let wb = WriteBehind::new(&shared, &rec);
        assert!(wb.get(&key(1)).is_some());
        assert!(wb.get(&key(1)).is_some());
        // First read hit the shared shard; the repeat was absorbed
        // locally.
        let shard_hits: u64 = shared.shard_stats().iter().map(|s| s.hits).sum();
        assert_eq!(shard_hits, 1);
        assert_eq!(wb.stats().deferred_hits, 1);
    }

    #[test]
    fn write_behind_overflows_into_inline_flush() {
        let rec = spo_obs::Recorder::new();
        let shared = SharedStore::new(4);
        let wb = WriteBehind::new(&shared, &rec);
        for i in 0..WriteBehind::DEFAULT_CAPACITY as u32 {
            wb.insert_costed(key(i), summary(), FrameCost::default());
        }
        assert_eq!(wb.stats().flushes, 1, "capacity overflow flushes inline");
        assert_eq!(shared.len(), WriteBehind::DEFAULT_CAPACITY);
    }

    #[test]
    fn shared_store_is_usable_across_threads() {
        let store = SharedStore::default();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..32 {
                        store.insert_batch(vec![(key(t * 32 + i), summary())]);
                        assert!(store.get(&key(t * 32 + i)).is_some());
                    }
                });
            }
        });
        assert_eq!(store.len(), 128);
    }
}
