//! Root-order chunked scheduling.
//!
//! Each entry point is analyzed on its own and shares only memoized
//! method summaries, so a pool of roots needs a fair split of the work
//! list, not a call-graph-aware plan. The plan cuts `work` in its given
//! (program) order into contiguous batches and deals them round-robin to
//! the per-worker deques. Neighbouring roots in program order tend to be
//! methods of one class, so a batch still keeps much of its memo traffic
//! inside one worker's write-behind buffer.
//!
//! The plan is a scheduling hint only: analysis results, report bytes, and
//! the deterministic stats sections are independent of batch shape (see
//! the crate-level determinism argument). The plan is nevertheless a pure
//! function of `(work, workers)`, so traces and work counters are
//! reproducible run to run.

use std::collections::VecDeque;

/// Per-worker batch deques plus formation metadata.
pub(crate) struct SchedulePlan {
    /// One deque per worker; each batch is a list of root indices (the
    /// engine's `work` values). Workers pop their own front and steal
    /// whole batches from a victim's back.
    pub deques: Vec<VecDeque<Vec<usize>>>,
    /// Number of batches formed (the `batch.formed` work counter).
    pub formed: u64,
}

/// Smallest batch the splitter forms on a multi-worker run: below it the
/// deque traffic per root outweighs the balance gained.
const MIN_BATCH: usize = 8;

/// Largest batch the splitter will form, regardless of worker count: a
/// batch is also the write-behind flush granularity, and an unbounded one
/// would keep its summaries invisible to other workers for the whole
/// batch.
const MAX_BATCH: usize = 64;

/// Builds the batch plan for `work` over `workers` deques.
pub(crate) fn plan(work: &[usize], workers: usize) -> SchedulePlan {
    if workers <= 1 {
        // One worker: a single batch. The write-behind buffer still
        // bounds flush latency through its own capacity.
        return SchedulePlan {
            deques: vec![VecDeque::from([work.to_vec()])],
            formed: 1,
        };
    }
    // About four batches per worker, so stealing can even out the tail.
    let size = (work.len() / (workers * 4)).clamp(MIN_BATCH, MAX_BATCH);
    let chunks = work.chunks(size);
    let formed = chunks.len() as u64;
    let mut deques: Vec<VecDeque<Vec<usize>>> = vec![VecDeque::new(); workers];
    for (i, chunk) in chunks.enumerate() {
        deques[i % workers].push_back(chunk.to_vec());
    }
    SchedulePlan { deques, formed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batches(plan: &SchedulePlan) -> Vec<&Vec<usize>> {
        plan.deques.iter().flatten().collect()
    }

    #[test]
    fn single_worker_takes_one_batch() {
        let work: Vec<usize> = (0..500).collect();
        let plan = plan(&work, 1);
        assert_eq!(plan.deques.len(), 1);
        assert_eq!(plan.formed, 1);
        assert_eq!(plan.deques[0], [work]);
    }

    #[test]
    fn every_root_lands_in_exactly_one_batch() {
        let work: Vec<usize> = (0..1000).map(|i| i * 3 + 1).collect();
        for workers in [2, 3, 8] {
            let plan = plan(&work, workers);
            assert_eq!(plan.deques.len(), workers);
            assert_eq!(plan.formed as usize, batches(&plan).len());
            let mut seen: Vec<usize> = batches(&plan).into_iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, work, "workers={workers}");
        }
    }

    #[test]
    fn batches_are_capped_contiguous_runs_in_order() {
        for (len, workers) in [(5, 2), (100, 2), (1000, 3), (10_000, 8)] {
            let work: Vec<usize> = (0..len).map(|i| i * 2).collect();
            let plan = plan(&work, workers);
            let cap = (len / (workers * 4)).clamp(MIN_BATCH, MAX_BATCH);
            // Dealing order: batch k sits at position k / workers of
            // deque k % workers.
            let dealt: Vec<&Vec<usize>> = (0..plan.formed as usize)
                .map(|k| &plan.deques[k % workers][k / workers])
                .collect();
            let flat: Vec<usize> = dealt.iter().copied().flatten().copied().collect();
            assert_eq!(flat, work, "len={len} workers={workers}");
            for batch in &dealt {
                assert!(!batch.is_empty() && batch.len() <= cap);
            }
            // Only the last batch may fall short of the cap.
            for batch in &dealt[..dealt.len() - 1] {
                assert_eq!(batch.len(), cap);
            }
        }
    }

    #[test]
    fn batches_are_dealt_round_robin() {
        let work: Vec<usize> = (0..60).collect();
        let plan = plan(&work, 3);
        // 60 / 12 clamps up to 8 per batch: 8 batches over 3 workers.
        assert_eq!(plan.formed, 8);
        let lens: Vec<usize> = plan.deques.iter().map(VecDeque::len).collect();
        assert_eq!(lens, [3, 3, 2]);
        assert_eq!(plan.deques[1][2], (56..60).collect::<Vec<_>>());
        assert_eq!(plan.deques[1][0], (8..16).collect::<Vec<_>>());
        assert_eq!(plan.deques[0][1], (24..32).collect::<Vec<_>>());
    }

    #[test]
    fn plan_is_deterministic() {
        let work: Vec<usize> = (0..777).collect();
        let a = plan(&work, 3);
        let b = plan(&work, 3);
        assert_eq!(a.deques, b.deques);
        assert_eq!(a.formed, b.formed);
    }
}
