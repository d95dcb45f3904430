//! The scoped worker pool: chunked atomic work claiming, deterministic
//! merge.
//!
//! Workers claim contiguous chunks of the index space from one atomic
//! counter. Chunking keeps the counter off the hot path (one fetch-add per
//! chunk, not per item) while still load-balancing skewed batches; the
//! chunk size shrinks with the batch so small batches still spread across
//! all workers. Each worker accumulates `(index, value)` pairs privately —
//! no shared result buffer, no locks — and the caller scatters them back
//! into input order, so the output is independent of scheduling.

use loomlite::sync::atomic::{AtomicUsize, Ordering};
use loomlite::thread;

/// Maximum items claimed per counter bump.
const MAX_CHUNK: usize = 32;

/// Picks how many items a worker claims at a time.
fn chunk_size(n: usize, workers: usize) -> usize {
    // Aim for ~8 claims per worker over the batch: plenty of rebalancing
    // opportunities without hammering the counter.
    (n / (workers * 8)).clamp(1, MAX_CHUNK)
}

/// Runs `work(i)` for every `i in 0..n` across `workers` threads, returning
/// the results in index order.
pub(crate) fn collect_indexed<T, F>(workers: usize, n: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(work).collect();
    }

    let chunk = chunk_size(n, workers);
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, work) = (&next, &work);
                scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        // ordering: Relaxed suffices — the counter only
                        // partitions the index space (RMWs are a single
                        // total order per location); results flow back
                        // through the scope join, not through the counter.
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + chunk).min(n) {
                            local.push((i, work(i)));
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });

    // Scatter back into input order.
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, value) in part {
            debug_assert!(out[i].is_none(), "index {i} produced twice");
            out[i] = Some(value);
        }
    }
    out.into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

/// Runs `work(i)` for every `i in 0..n`, discarding results.
pub(crate) fn run_indexed<F>(workers: usize, n: usize, work: F)
where
    F: Fn(usize) + Sync,
{
    collect_indexed(workers, n, work);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        for workers in [1, 2, 3, 8, 64] {
            let out = collect_indexed(workers, 1000, |i| i * 3);
            assert_eq!(out.len(), 1000);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * 3, "workers={workers}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_batches() {
        assert!(collect_indexed(8, 0, |i| i).is_empty());
        assert_eq!(collect_indexed(8, 1, |i| i + 7), vec![7]);
        assert_eq!(collect_indexed(8, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..500).map(|_| AtomicU32::new(0)).collect();
        collect_indexed(4, 500, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    /// Model-checked no-loss/ordering: under `--cfg loomlite` every
    /// bounded interleaving of two workers racing the claim counter is
    /// explored — including both workers bumping past `n` together and
    /// one worker claiming everything before the other starts — and each
    /// schedule must scatter every index back exactly once, in input
    /// order. A normal build runs this once as a smoke test.
    #[test]
    fn model_collect_indexed_loses_nothing_in_any_schedule() {
        loomlite::model(|| {
            let out = collect_indexed(2, 3, |i| i * 10);
            assert_eq!(out, vec![0, 10, 20], "an index was lost or reordered");
        });
    }

    #[test]
    fn chunks_shrink_with_small_batches() {
        assert_eq!(chunk_size(8, 8), 1);
        assert_eq!(chunk_size(10_000, 4), MAX_CHUNK);
        assert!(chunk_size(100, 4) >= 1);
    }
}
