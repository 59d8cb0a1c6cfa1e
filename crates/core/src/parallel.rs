//! Deterministic scoped-thread parallelism for the training pipeline.
//!
//! Corpus measurement and leave-one-benchmark-out fold training are
//! embarrassingly parallel: every item is a pure function of its input.
//! [`parallel_map`] fans such work out over [`std::thread::scope`] workers
//! while keeping the output **in input order**, so the parallel pipeline is
//! bit-identical to the serial one — the property the predictor equivalence
//! tests assert.
//!
//! The worker count comes from [`configured_threads`]: the
//! `BAGPRED_THREADS` environment variable when set (and positive),
//! otherwise [`std::thread::available_parallelism`]. `BAGPRED_THREADS=1`
//! forces the serial path exactly.
//!
//! No external thread-pool crate is involved — the build stays offline.

use bagpred_workloads::{Benchmark, Workload, BATCH_SIZES};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "BAGPRED_THREADS";

/// The worker-thread count the pipeline will use: `BAGPRED_THREADS` when
/// set to a positive integer, otherwise the machine's available
/// parallelism (1 when that is unknown).
pub fn configured_threads() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on up to `threads` scoped workers, returning
/// results **in input order**.
///
/// Work is distributed dynamically (an atomic cursor), so uneven item
/// costs balance across workers; determinism comes from reassembling by
/// index afterwards, never from scheduling. `threads <= 1` (or a short
/// input) runs the plain serial loop — the two paths produce identical
/// output for a pure `f`.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= items.len() {
                        break;
                    }
                    local.push((idx, f(&items[idx])));
                }
                done.lock().expect("worker panicked").extend(local);
            });
        }
    });

    let mut indexed = done.into_inner().expect("worker panicked");
    indexed.sort_by_key(|(idx, _)| *idx);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, value)| value).collect()
}

/// The benchmarks by the cost of their one profiling pass over the five
/// paper batch sizes, largest first (serial, on a 2-vCPU host: ORB 0.29 s,
/// SIFT 0.23 s, KNN 0.22 s, ObjRec 0.18 s, SURF 0.14 s, HoG 0.11 s, then
/// SVM, FAST and FaceDet at about 0.06 s each).
const LARGEST_PASS_FIRST: [Benchmark; 9] = [
    Benchmark::Orb,
    Benchmark::Sift,
    Benchmark::Knn,
    Benchmark::ObjRec,
    Benchmark::Surf,
    Benchmark::Hog,
    Benchmark::Svm,
    Benchmark::Fast,
    Benchmark::FaceDet,
];

/// Profiles, on up to `threads` workers, every benchmark that `workloads`
/// name at a paper batch size, largest pass first.
///
/// One [`Workload::profile`] pass fills all five paper sizes of a
/// benchmark, so a corpus of 45 paper-size workloads is 9 units of work.
/// Measuring bags straight away would put a second worker behind the
/// first one's pass for the same benchmark while a core idles; warming
/// whole benchmarks first, longest first, keeps every worker on its own
/// pass. Bags measured afterwards read the warm memo.
pub(crate) fn warm_profiles(workloads: impl IntoIterator<Item = Workload>, threads: usize) {
    let named: Vec<Benchmark> = workloads
        .into_iter()
        .filter(|w| BATCH_SIZES.contains(&w.batch_size()))
        .map(|w| w.benchmark())
        .collect();
    let warm: Vec<Benchmark> = LARGEST_PASS_FIRST
        .into_iter()
        .filter(|b| named.contains(b))
        .collect();
    parallel_map(&warm, threads, |&b| {
        Workload::new(b, BATCH_SIZES[0]).profile();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_regardless_of_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let serial = parallel_map(&items, 1, |&i| i * 3);
        for threads in [2, 4, 8, 33] {
            assert_eq!(parallel_map(&items, threads, |&i| i * 3), serial);
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&empty, 4, |&b| b).is_empty());
        assert_eq!(parallel_map(&[7u8], 4, |&b| b + 1), vec![8]);
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, 4, |&i| {
            // Skew the cost so late items finish before early ones.
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i * i
        });
        assert_eq!(out, items.iter().map(|&i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }
}
