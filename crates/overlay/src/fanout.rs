//! The workspace's one fan-out: independent items on scoped threads, results
//! in item order, and the thread bound every budget is clamped to.
//!
//! Mask sampling and the stream plan compile cut their work with
//! [`balanced`] and replay a counter-mode stream from each range's first
//! item, so their results do not depend on where the ranges are cut; the
//! trial engine's shard ranges, campaign patterns and churn replicas fold
//! their results in item order. All of them run through [`map_ordered`].

use std::ops::Range;
use std::sync::Mutex;

/// The most threads one parallel loop runs: every thread budget is clamped
/// to `1..=MAX_THREADS`, [`map_ordered`] starts no more, and [`balanced`]
/// cuts no more ranges.
pub const MAX_THREADS: usize = 256;

/// Cuts `len` items into at most `threads` (and at most [`MAX_THREADS`])
/// contiguous ranges of at least `floor` items each — every range holds
/// `len / ranges` items or one more — or into one range when `len` is too
/// small to cut.
pub fn balanced(len: usize, threads: usize, floor: usize) -> impl Iterator<Item = Range<usize>> {
    let chunks = threads.min(MAX_THREADS).min(len / floor).max(1);
    let mut start = 0;
    (0..chunks).map(move |chunk| {
        let size = len / chunks + usize::from(chunk < len % chunks);
        start += size;
        start - size..start
    })
}

/// Runs `work` on every item on up to `workers` threads (clamped to
/// `1..=MAX_THREADS`) and returns the results in item order.
///
/// The calling thread runs item 0 while the other workers pull the next
/// unclaimed item from one queue; then the caller pulls too, so a slow item
/// holds up only the thread running it, and a single worker (or item) runs
/// inline with no spawn. A worker's panic resurfaces on the calling thread
/// once every worker has stopped.
///
/// The caller works rather than waits, and what item 0 allocates comes from
/// the caller's allocator: with per-thread arenas (glibc) a stream compile's
/// first range, which becomes the plan, and an engine's first scratch stay
/// out of short-lived workers' arenas, which workers would otherwise claim
/// in whichever order they first allocate.
///
/// # Example
///
/// ```rust
/// use dht_overlay::fanout::map_ordered;
///
/// let squares = map_ordered((0..5u64).collect(), 3, |item| item * item);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn map_ordered<T, U, F>(items: Vec<T>, workers: usize, work: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let count = items.len();
    let workers = workers.clamp(1, MAX_THREADS).min(count);
    if workers <= 1 {
        return items.into_iter().map(work).collect();
    }
    let mut items = items.into_iter().enumerate();
    let (_, first) = items.next().expect("two workers imply two items");
    // `work` never runs under the lock: a guard lives only for one `next`.
    let queue = Mutex::new(items);
    let pull = || {
        let mut done = Vec::new();
        loop {
            let next = queue
                .lock()
                .expect("no worker panics holding the queue")
                .next();
            let Some((index, item)) = next else {
                return done;
            };
            done.push((index, work(item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(pull)).collect();
        let mut done = vec![(0, work(first))];
        done.extend(pull());
        for worker in spawned {
            let pulled = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            done.extend(pulled);
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn cut(len: usize, threads: usize, floor: usize) -> Vec<(usize, usize)> {
        let ranges = balanced(len, threads, floor);
        ranges.map(|range| (range.start, range.end)).collect()
    }

    #[test]
    fn balanced_ranges_cover_the_items_above_the_floor() {
        assert_eq!(cut(1 << 10, 8, 512), [(0, 512), (512, 1024)]);
        assert_eq!(cut(1 << 10, 1, 512), [(0, 1024)]);
        // Fewer than two floors' worth of items stay in one range.
        assert_eq!(cut(1023, 8, 512), [(0, 1023)]);
        assert_eq!(
            cut(1 << 16, 3, 512),
            [(0, 21846), (21846, 43691), (43691, 65536)]
        );
        assert_eq!(cut(1 << 20, 0, 512), [(0, 1 << 20)]);
    }

    #[test]
    fn an_unbounded_budget_cuts_at_most_max_threads_ranges() {
        for (len, floor) in [(1 << 24, 512), (100_000, 1)] {
            let ranges = cut(len, usize::MAX, floor);
            assert_eq!(ranges.len(), MAX_THREADS, "len = {len}, floor = {floor}");
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[MAX_THREADS - 1].1, len);
            assert!(ranges.windows(2).all(|pair| pair[0].1 == pair[1].0));
            assert!(ranges.iter().all(|&(start, end)| end - start >= floor));
        }
    }

    #[test]
    fn results_come_back_in_item_order_for_any_worker_count() {
        for count in [0, 1, 2, 5, 100] {
            let expected: Vec<usize> = (0..count).map(|item| item * 7 + 1).collect();
            for workers in [0, 1, 2, 3, 8] {
                assert_eq!(
                    map_ordered((0..count).collect(), workers, |item| item * 7 + 1),
                    expected,
                    "items = {count}, workers = {workers}"
                );
            }
        }
    }

    #[test]
    fn on_threads_keeps_item_order_and_resurfaces_panics() {
        // One worker per item, as mask sampling and the plan compile run
        // their cut ranges.
        let squares = map_ordered((0..5u64).collect(), 5, |item| item * item);
        assert_eq!(squares, [0, 1, 4, 9, 16]);
        let panicked = std::panic::catch_unwind(|| {
            map_ordered(vec![1, 2], 2, |item| {
                assert_ne!(item, 2, "worker two fails")
            });
        });
        let message = panicked.expect_err("the panic must resurface");
        assert!(format!("{:?}", message.downcast_ref::<String>()).contains("worker two fails"));
    }

    #[test]
    fn the_calling_thread_runs_the_first_item() {
        let caller = std::thread::current().id();
        for workers in [1, 2, 3] {
            let on_caller = map_ordered((0..3u32).collect(), workers, |_| {
                std::thread::current().id() == caller
            });
            assert!(on_caller[0], "workers = {workers}");
        }
    }

    #[test]
    fn results_keep_item_order_when_items_finish_out_of_order() {
        // Item 0 holds the caller until the worker has taken item 1, and
        // item 1 holds the worker until the caller, done with item 0, has
        // pulled and finished item 2: item 2 finishes before item 1.
        let caller = std::thread::current().id();
        let (started, finished) = (AtomicBool::new(false), AtomicBool::new(false));
        // A fan-out that breaks the schedule would leave a wait spinning:
        // fail instead of hanging.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let wait_for = |flag: &AtomicBool| {
            while !flag.load(Ordering::SeqCst) {
                assert!(std::time::Instant::now() < deadline, "schedule not met");
                std::thread::yield_now();
            }
        };
        let results = map_ordered(vec![0, 1, 2], 2, |item| {
            match item {
                0 => wait_for(&started),
                1 => {
                    started.store(true, Ordering::SeqCst);
                    wait_for(&finished);
                }
                _ => finished.store(true, Ordering::SeqCst),
            }
            (item, std::thread::current().id() == caller)
        });
        assert_eq!(results, [(0, true), (1, false), (2, true)]);
    }

    #[test]
    fn every_item_runs_once_even_when_the_first_finishes_last() {
        // Item 0 waits until every other item has finished, which the two
        // other workers do meanwhile: completion order is 1..40, then 0.
        let finished = AtomicUsize::new(0);
        let results = map_ordered((0..40).collect(), 3, |item| {
            if item == 0 {
                while finished.load(Ordering::SeqCst) < 39 {
                    std::thread::yield_now();
                }
            }
            finished.fetch_add(1, Ordering::SeqCst);
            item
        });
        assert_eq!(results, (0..40).collect::<Vec<_>>());
        assert_eq!(finished.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn a_worker_panic_resurfaces_on_the_caller() {
        for workers in [1, 2, 3] {
            let panicked = std::panic::catch_unwind(|| {
                map_ordered((0..10).collect(), workers, |item: usize| {
                    assert_ne!(item, 7, "item seven fails");
                });
            });
            let message = panicked.expect_err("the panic must resurface");
            assert!(
                format!("{:?}", message.downcast_ref::<String>()).contains("item seven fails"),
                "workers = {workers}"
            );
        }
    }
}
