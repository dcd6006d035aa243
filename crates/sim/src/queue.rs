//! One ordered work queue: independent jobs on scoped threads, results in
//! job order.
//!
//! Sweeps, live-churn replicas and failure-campaign patterns are each a list
//! of independent jobs whose results fold in a fixed order. [`map_ordered`]
//! runs such a list on a worker pool that pulls job indices from one shared
//! counter, so a slow job holds up only the worker running it, and hands the
//! results back in index order — a fold over them is the same at any worker
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `work(0)`, …, `work(items - 1)` on up to `workers` threads and
/// returns the results in index order.
///
/// Workers pull the next unclaimed index until none is left; the calling
/// thread is one of them, so a single worker (or a single item) runs inline.
/// A worker's panic resurfaces on the calling thread once every worker has
/// stopped.
///
/// # Example
///
/// ```rust
/// let squares = dht_sim::map_ordered(5, 3, |index| index * index);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn map_ordered<T, F>(items: usize, workers: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, items.max(1));
    if workers == 1 {
        return (0..items).map(work).collect();
    }
    // The counter only hands out indices; results travel back through the
    // joins, which order them after every write, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let pull = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= items {
                return done;
            }
            done.push((index, work(index)));
        }
    };
    let batches = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(pull)).collect();
        let mut batches = vec![pull()];
        for worker in spawned {
            batches.push(
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        batches
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(items).collect();
    for (index, result) in batches.into_iter().flatten() {
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is pulled exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_for_any_worker_count() {
        for items in [0, 1, 5, 100] {
            let expected: Vec<usize> = (0..items).map(|index| index * 7 + 1).collect();
            for workers in [1, 2, 3, 8] {
                assert_eq!(
                    map_ordered(items, workers, |index| index * 7 + 1),
                    expected,
                    "items = {items}, workers = {workers}"
                );
            }
        }
    }

    #[test]
    fn every_index_runs_once_even_when_the_first_finishes_last() {
        // Job 0 waits until every other job has finished, which the two
        // other workers do meanwhile: completion order is 1..40, then 0.
        let finished = AtomicUsize::new(0);
        let results = map_ordered(40, 3, |index| {
            if index == 0 {
                while finished.load(Ordering::SeqCst) < 39 {
                    std::thread::yield_now();
                }
            }
            finished.fetch_add(1, Ordering::SeqCst);
            index
        });
        assert_eq!(results, (0..40).collect::<Vec<_>>());
        assert_eq!(finished.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn a_worker_panic_resurfaces_on_the_caller() {
        for workers in [1, 2, 3] {
            let panicked = std::panic::catch_unwind(|| {
                map_ordered(10, workers, |index| assert_ne!(index, 7, "job seven fails"));
            });
            let message = panicked.expect_err("the panic must resurface");
            assert!(
                format!("{:?}", message.downcast_ref::<String>()).contains("job seven fails"),
                "workers = {workers}"
            );
        }
    }
}
