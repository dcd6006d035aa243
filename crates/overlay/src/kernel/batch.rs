//! Batched lockstep routing: a structure-of-arrays frontier over either row
//! source.
//!
//! A lookup routed on its own is a dependent pointer chase: on DRAM-resident
//! plans (2^20 nodes and up) each hop loads the plan row, probes the alive
//! bitset, and only then knows the next rank. A single in-flight lookup
//! leaves the memory system idle for most of that latency.
//!
//! [`RouteBatch`] fixes the utilization problem without touching the routing
//! semantics. It holds a **frontier** of in-flight lookups in parallel arrays
//! (structure-of-arrays: ranks together, cursors together, …) and the
//! lockstep pass advances the *whole frontier by one hop per pass*. While
//! lane `i`'s freshly computed next rank is still cooling, its row source
//! prefetches the row (the materialized plan issues `prefetch_read`; the
//! sources that compute their entries — the implicit row cache, the closed
//! form, positioned draws — have nothing to prefetch) and the pass moves on
//! to lane `i + 1` — by the time the next pass returns to lane `i`, the row
//! is (ideally) already in cache. With 64–256 lanes the dependent chains of
//! independent lookups overlap and the batch approaches the DRAM bandwidth
//! limit instead of the latency limit.
//!
//! Lanes whose lookup resolves (delivered, dropped, hop limit) **retire**:
//! the outcome is written to the caller's slot and the lane is compacted out
//! by a swap with the last lane, so the frontier stays dense. Between passes
//! the frontier **refills** from the pending pair slice, so short routes do
//! not drain the batch below full occupancy while long routes finish.
//!
//! The driver and its pass are written once, generic over the kernel's row
//! source, and serve both [`RoutingKernel::route_batch`] and
//! [`ImplicitKernel::route_batch`](super::ImplicitKernel::route_batch) —
//! the only way either kernel routes — over every source: plan rows,
//! cached rows, the closed form and positioned draws. Outcomes are
//! **bit-identical** per lookup to the scalar oracle
//! [`route_with_limit`](crate::route_with_limit) at any frontier width:
//! every lane runs the same admission prelude and the same per-hop step,
//! and routing is read-only (a source's scratch is per call), so lanes
//! cannot interact. The `batch_equivalence` proptest suite holds all five
//! geometries to this, full and sparse populations alike, which is what
//! lets `dht_sim`'s trial engine route its shards through the batch path
//! without perturbing one committed measurement.

use super::{admit, dropped, rule_of, step, ClosedForm, KernelRule, RoutingKernel, RowSource};
use crate::router::RouteOutcome;

/// The default frontier width of [`RouteBatch::default`]: wide enough to
/// cover DRAM latency with independent work (~100 ns per miss against
/// ~5 ns of per-lane bookkeeping), small enough that the frontier's own
/// arrays (~4 KiB) stay resident in L1.
pub const DEFAULT_BATCH_WIDTH: usize = 128;

/// A structure-of-arrays frontier of in-flight lookups for
/// [`RoutingKernel::route_batch`].
///
/// All arrays are indexed by **lane**; lane `i`'s fields describe one
/// lookup currently being routed. The batch owns only scratch state — it
/// carries no results between calls and one allocation can be reused across
/// any number of `route_batch` calls (the trial engine keeps one per worker
/// thread).
///
/// Each lane tracks its route as a *distance cursor* to the target: the
/// remaining clockwise distance for the ring rule, the remaining XOR diff
/// for the prefix and hypercube rules (zero = arrival). The rule is a
/// property of the kernel, not the batch, so one batch can be reused across
/// kernels of different rules and backends.
#[derive(Debug, Clone)]
pub struct RouteBatch {
    /// Lane → occupied rank currently holding the message.
    current_rank: Vec<u32>,
    /// Lane → distance cursor to the target.
    current: Vec<u64>,
    /// Lane → target identifier value (the prefix rules' fallback distance
    /// and the `stuck_at` reconstruction).
    target: Vec<u64>,
    /// Lane → hops taken so far.
    hops: Vec<u32>,
    /// Lane → index of this lookup's slot in the caller's outcome buffer.
    slot: Vec<u32>,
    /// Maximum number of in-flight lanes.
    width: usize,
}

impl RouteBatch {
    /// Creates a frontier of at most `width` in-flight lookups (clamped to at
    /// least 1).
    ///
    /// Widths of 64–256 cover DRAM latency on the 2^20 cases; the width only
    /// affects throughput, never outcomes.
    #[must_use]
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        RouteBatch {
            current_rank: Vec::with_capacity(width),
            current: Vec::with_capacity(width),
            target: Vec::with_capacity(width),
            hops: Vec::with_capacity(width),
            slot: Vec::with_capacity(width),
            width,
        }
    }

    /// The maximum number of in-flight lookups.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of lookups currently in flight (zero outside
    /// [`RoutingKernel::route_batch`]).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.current_rank.len()
    }

    /// Drops any in-flight lanes (a batch is always drained on return from
    /// `route_batch`; this is a belt-and-braces reset at entry).
    fn clear(&mut self) {
        self.current_rank.clear();
        self.current.clear();
        self.target.clear();
        self.hops.clear();
        self.slot.clear();
    }

    /// Admits a lookup into a fresh lane.
    #[inline]
    fn push(&mut self, rank: u32, cursor: u64, target: u64, slot: u32) {
        self.current_rank.push(rank);
        self.current.push(cursor);
        self.target.push(target);
        self.hops.push(0);
        self.slot.push(slot);
    }

    /// Retires `lane` with `outcome`, compacting the frontier by swapping the
    /// last lane into its place. The swapped-in lane has not been advanced
    /// yet in the current pass (passes walk lanes in ascending order), so the
    /// caller re-processes the same index.
    ///
    /// Kept out of line: a lane retires once per route but hops many times,
    /// and inlining the pass's three retire sites grew the hop loop enough
    /// to slow every batch by about a fifth.
    #[inline(never)]
    fn retire(&mut self, lane: usize, outcome: RouteOutcome, outcomes: &mut [RouteOutcome]) {
        outcomes[self.slot[lane] as usize] = outcome;
        self.current_rank.swap_remove(lane);
        self.current.swap_remove(lane);
        self.target.swap_remove(lane);
        self.hops.swap_remove(lane);
        self.slot.swap_remove(lane);
    }
}

impl Default for RouteBatch {
    fn default() -> Self {
        RouteBatch::new(DEFAULT_BATCH_WIDTH)
    }
}

impl RoutingKernel {
    /// Routes every `(source, target)` pair of `pairs` under a pre-resolved
    /// rank-indexed alive bitset, filling `outcomes` so `outcomes[i]` is the
    /// outcome of `pairs[i]`, giving up on a lookup after `hop_limit` hops —
    /// bit-identical to [`route_with_limit`](crate::route_with_limit) per
    /// pair on the overlay this kernel was compiled from, with up to
    /// [`RouteBatch::width`] lookups in flight at once.
    ///
    /// `alive_words` must have bit `r` set iff the rank-`r` occupied node is
    /// alive, with `node_count.div_ceil(64)` words — the layout of
    /// [`KernelMask::words`](super::KernelMask::words) and of
    /// [`LiveOverlay::rank_alive_words`](crate::LiveOverlay::rank_alive_words).
    /// Pairs are raw identifier values of the kernel's key space, checked by
    /// debug assertions only: the key-space validation is paid once, in
    /// [`RoutingKernel::compile_mask`]. The batch is pure scratch: it is
    /// cleared on entry and drained on return.
    ///
    /// The loop structure is lockstep: admit pairs until the frontier is full
    /// (lookups that resolve at admission — failed endpoints, source ==
    /// target — write their outcome immediately and never occupy a lane),
    /// advance every lane by one hop, retire and compact resolved lanes,
    /// refill, repeat until both the frontier and the pending slice are
    /// empty.
    pub fn route_batch(
        &self,
        batch: &mut RouteBatch,
        alive_words: &[u64],
        pairs: &[(u64, u64)],
        hop_limit: u32,
        outcomes: &mut Vec<RouteOutcome>,
    ) {
        if self.closed_form {
            let mut rows = ClosedForm {
                rule: self.rule,
                space: self.space,
            };
            route_batch_rows(&mut rows, batch, alive_words, pairs, hop_limit, outcomes);
        } else {
            route_batch_rows(
                &mut self.rows(),
                batch,
                alive_words,
                pairs,
                hop_limit,
                outcomes,
            );
        }
    }
}

/// The lockstep driver behind both kernels' `route_batch`, compiled once
/// per rule (see [`rule_of`]).
pub(super) fn route_batch_rows<R: RowSource>(
    rows: &mut R,
    batch: &mut RouteBatch,
    words: &[u64],
    pairs: &[(u64, u64)],
    hop_limit: u32,
    outcomes: &mut Vec<RouteOutcome>,
) {
    type Lockstep<R> =
        fn(&mut R, &mut RouteBatch, &[u64], &[(u64, u64)], u32, &mut Vec<RouteOutcome>);
    let lockstep: Lockstep<R> = match rows.rule() {
        KernelRule::RingAdvance => lockstep::<R, 0>,
        KernelRule::PrefixXor => lockstep::<R, 1>,
        KernelRule::PrefixTree => lockstep::<R, 2>,
        KernelRule::HypercubeBit => lockstep::<R, 3>,
    };
    lockstep(rows, batch, words, pairs, hop_limit, outcomes);
}

/// [`route_batch_rows`] for the rule tagged `TAG`: admit until the
/// frontier is full, run one [`pass`], repeat until every pair resolved.
fn lockstep<R: RowSource, const TAG: u8>(
    rows: &mut R,
    batch: &mut RouteBatch,
    words: &[u64],
    pairs: &[(u64, u64)],
    hop_limit: u32,
    outcomes: &mut Vec<RouteOutcome>,
) {
    let rule = rule_of(TAG);
    assert!(
        u32::try_from(pairs.len()).is_ok(),
        "route_batch slices are indexed by u32 slots"
    );
    outcomes.clear();
    // Placeholder only: every slot is overwritten, either at admission or
    // when its lane retires (the hop limit bounds every route).
    outcomes.resize(pairs.len(), RouteOutcome::SourceFailed);
    batch.clear();
    let mut next = 0usize;
    loop {
        while batch.in_flight() < batch.width && next < pairs.len() {
            let (source, target) = pairs[next];
            match admit(rows, rule, words, source, target) {
                Ok((rank, cursor)) => {
                    rows.prefetch(rank);
                    batch.push(rank, cursor, target, next as u32);
                }
                Err(outcome) => outcomes[next] = outcome,
            }
            next += 1;
        }
        if batch.in_flight() == 0 {
            break;
        }
        pass(rows, rule, batch, words, hop_limit, outcomes);
    }
}

/// One lockstep pass: every lane takes one greedy hop, in lane order,
/// prefetching the row of its next rank.
#[inline(always)]
fn pass<R: RowSource>(
    rows: &mut R,
    rule: KernelRule,
    batch: &mut RouteBatch,
    words: &[u64],
    hop_limit: u32,
    outcomes: &mut [RouteOutcome],
) {
    let mut lane = 0usize;
    while lane < batch.in_flight() {
        let hops = batch.hops[lane];
        if hops >= hop_limit {
            batch.retire(
                lane,
                RouteOutcome::HopLimitExceeded { limit: hop_limit },
                outcomes,
            );
            continue;
        }
        let cursor = batch.current[lane];
        let target = batch.target[lane];
        match step(rows, rule, words, batch.current_rank[lane], cursor, target) {
            Some((0, _)) => {
                batch.retire(lane, RouteOutcome::Delivered { hops: hops + 1 }, outcomes);
            }
            Some((left, next)) => {
                batch.current[lane] = left;
                batch.current_rank[lane] = next;
                batch.hops[lane] = hops + 1;
                rows.prefetch(next);
                lane += 1;
            }
            None => {
                let outcome = dropped(rule, rows.space(), hops, target, cursor);
                batch.retire(lane, outcome, outcomes);
            }
        }
    }
}

/// Best-effort software prefetch of `slice[index]` into the innermost cache.
///
/// A hint only: it never faults, never reads out of bounds (out-of-range
/// indices are ignored), and compiles to nothing on architectures without a
/// stable prefetch primitive — the batch path is then still correct, just
/// latency-bound. The `unsafe` is confined to the intrinsic/instruction
/// itself; the pointer is derived from a live slice and bounds-checked above.
#[inline(always)]
pub(crate) fn prefetch_read<T>(slice: &[T], index: usize) {
    if index >= slice.len() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: `_mm_prefetch` performs no memory access (architecturally a
    // hint that cannot fault), and the pointer points into a live slice.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(slice.as_ptr().add(index).cast::<i8>());
    }
    #[cfg(target_arch = "aarch64")]
    #[allow(unsafe_code)]
    // SAFETY: `prfm pldl1keep` is a hint that cannot fault, reads no
    // registers but the address, and writes nothing.
    unsafe {
        let ptr = slice.as_ptr().add(index);
        core::arch::asm!(
            "prfm pldl1keep, [{ptr}]",
            ptr = in(reg) ptr,
            options(readonly, nostack, preserves_flags),
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        // No stable prefetch on this target: the hint degrades to a no-op.
        let _ = (slice, index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureMask;
    use crate::router::{default_route_hop_limit, route_with_limit};
    use crate::traits::Overlay;
    use crate::{ChordOverlay, ChordVariant};

    #[test]
    fn prefetch_is_a_safe_no_op_out_of_bounds() {
        let data = [1u64, 2, 3];
        prefetch_read(&data, 0);
        prefetch_read(&data, 2);
        prefetch_read(&data, 3);
        prefetch_read(&data, usize::MAX);
        let empty: [u64; 0] = [];
        prefetch_read(&empty, 0);
    }

    #[test]
    fn batch_width_is_clamped_and_reusable() {
        let mut batch = RouteBatch::new(0);
        assert_eq!(batch.width(), 1);
        assert_eq!(RouteBatch::default().width(), DEFAULT_BATCH_WIDTH);

        let overlay = ChordOverlay::build(8, ChordVariant::Deterministic).unwrap();
        let kernel = overlay.kernel().expect("ring compiles");
        let mask = FailureMask::none(overlay.key_space());
        let lowered = kernel.compile_mask(&mask);
        let space = overlay.key_space();
        let limit = default_route_hop_limit(&overlay);
        let pairs: Vec<(u64, u64)> = (0..64u64).map(|i| (i, (i * 37 + 11) & 255)).collect();
        let mut outcomes = Vec::new();
        // A width-1 batch serialises every lookup; outcomes still match the
        // scalar oracle and the batch drains fully.
        kernel.route_batch(&mut batch, lowered.words(), &pairs, limit, &mut outcomes);
        assert_eq!(batch.in_flight(), 0);
        assert_eq!(outcomes.len(), pairs.len());
        for (i, &(source, target)) in pairs.iter().enumerate() {
            assert_eq!(
                outcomes[i],
                route_with_limit(
                    &overlay,
                    space.wrap(source),
                    space.wrap(target),
                    &mask,
                    limit
                ),
            );
        }
    }

    #[test]
    fn empty_pair_slice_is_a_no_op() {
        let overlay = ChordOverlay::build(6, ChordVariant::Deterministic).unwrap();
        let kernel = overlay.kernel().unwrap();
        let mask = FailureMask::none(overlay.key_space());
        let lowered = kernel.compile_mask(&mask);
        let mut batch = RouteBatch::default();
        let mut outcomes = vec![RouteOutcome::Delivered { hops: 99 }];
        kernel.route_batch(&mut batch, lowered.words(), &[], 16, &mut outcomes);
        assert!(outcomes.is_empty());
    }
}
