//! Splitting one job into contiguous chunks on scoped threads: the fan-out
//! behind [`crate::FailureMask::sample_seeded`] and the stream plan compile.
//! Both replay a counter-mode stream from each chunk's first item, so their
//! results do not depend on where the chunks are cut.

use std::ops::Range;

/// Cuts `len` items into at most `threads` contiguous ranges of at least
/// `floor` items each — every range holds `len / chunks` items or one more —
/// or into one range when `len` is too small to cut.
pub(crate) fn balanced(
    len: usize,
    threads: usize,
    floor: usize,
) -> impl Iterator<Item = Range<usize>> {
    let chunks = threads.min(len / floor).max(1);
    let mut start = 0;
    (0..chunks).map(move |chunk| {
        let size = len / chunks + usize::from(chunk < len % chunks);
        start += size;
        start - size..start
    })
}

/// Runs `work` on every item and returns the results in item order: inline
/// for a single item, else on one scoped thread per item. A worker's panic
/// resurfaces on the calling thread.
pub(crate) fn on_threads<T: Send, U: Send>(items: Vec<T>, work: impl Fn(T) -> U + Sync) -> Vec<U> {
    if items.len() <= 1 {
        return items.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || work(item)))
            .collect();
        workers
            .into_iter()
            .map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn on_threads_keeps_item_order_and_resurfaces_panics() {
        let squares = on_threads((0..5u64).collect(), |item| item * item);
        assert_eq!(squares, [0, 1, 4, 9, 16]);
        let panicked = std::panic::catch_unwind(|| {
            on_threads(vec![1, 2], |item| assert_ne!(item, 2, "worker two fails"));
        });
        let message = panicked.unwrap_err();
        assert!(format!("{:?}", message.downcast_ref::<String>()).contains("worker two fails"));
    }
}
