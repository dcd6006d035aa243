//! The sharded, deterministic trial engine behind every measured curve.
//!
//! Static-resilience measurements and failure campaigns reduce to the same
//! hot loop: sample a pair of surviving nodes, route greedily under a frozen
//! [`FailureMask`], tally the outcome — repeated millions of times. The seed
//! implementation materialised a pair vector and an outcome vector per trial
//! and split them across threads in chunks whose boundaries depended on the
//! thread count, so parallel runs were only *statistically* equivalent to
//! serial ones. [`TrialEngine`] replaces that with logical **shards**:
//!
//! * a trial's pair budget is cut into fixed-size shards
//!   ([`TrialEngine::pairs_per_shard`], independent of the thread count);
//! * shard `s` draws its pairs from its own ChaCha8 stream, derived from the
//!   trial's pair seed via [`SeedSequence`];
//! * worker threads (std scoped threads) each execute a contiguous range of
//!   shards, and the per-shard [`TrialTally`]s are merged **in shard order**.
//!
//! Because both the shard boundaries and the shard streams are functions of
//! the configuration alone, the merged tally is bit-identical for any thread
//! count — one thread or sixty-four. The loop itself performs no per-route
//! allocation: pairs are drawn by rank directly from the mask's bitset
//! ([`PairSampler`]), outcomes are folded into the shard's tally on the
//! spot, and each worker thread reuses one scratch allocation (its routing
//! frontier, pair and outcome buffers) across every shard it executes.
//!
//! Every shard routes through the **batched lockstep path** of whichever
//! kernel the overlay exposes: the compiled plan ([`Overlay::kernel`]) or
//! the implicit backend ([`Overlay::implicit_kernel`], with one
//! [`ImplicitRowCache`] per worker, so the resident set stays mask +
//! O(cache) bytes at any overlay size). The backend is resolved once per
//! trial into a two-variant router; plain trials and failure campaigns share
//! it and one shard body, differing only in the tally they fold. A shard's
//! pair budget is drawn in one [`PairSampler::sample_values_into`] call (the
//! identical RNG stream as per-pair draws), routed with up to a
//! [`RouteBatch`] width of lookups in flight, and recorded in draw order —
//! so the tallies are bit-identical to routing each pair through the scalar
//! reference path.
//!
//! [`ImplicitRowCache`]: dht_overlay::ImplicitRowCache

use crate::pair_sampler::PairSampler;
use crate::rng::SeedSequence;
use dht_mathkit::stats::RunningStats;
use dht_overlay::{
    default_route_hop_limit, FailureMask, ImplicitKernel, ImplicitRowCache, KernelMask, Overlay,
    RouteBatch, RouteOutcome, RoutingKernel,
};
use serde::{Deserialize, Serialize};

/// Default number of pairs per logical shard.
///
/// Small enough that typical budgets (10⁴–10⁷ pairs) split into more shards
/// than cores, large enough that a shard amortises its RNG setup. Changing
/// the shard size changes the sampled streams (it re-partitions the budget),
/// so it is a configuration input, not a tuning knob the engine may adjust
/// silently.
pub const DEFAULT_PAIRS_PER_SHARD: u64 = 4096;

/// Outcome counts of one batch of routed pairs.
///
/// Tallies are plain sums plus a mergeable [`RunningStats`] over delivered
/// hop counts, so per-shard tallies fold together associatively; the engine
/// always folds them in shard order, which keeps even the floating-point
/// fields deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrialTally {
    /// Pairs routed.
    pub attempted: u64,
    /// Pairs whose message reached the target.
    pub delivered: u64,
    /// Pairs dropped because no alive neighbour made progress.
    pub dropped: u64,
    /// Pairs that exceeded the hop limit (a protocol bug if strictly greedy).
    pub hop_limited: u64,
    /// Hop-count statistics over delivered messages.
    pub hop_stats: RunningStats,
    /// Largest observed hop count over delivered messages.
    pub max_hops: u32,
}

impl TrialTally {
    /// Folds `other` into this tally (the engine calls this in shard order).
    pub fn merge(&mut self, other: &TrialTally) {
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.hop_limited += other.hop_limited;
        self.hop_stats.merge(&other.hop_stats);
        self.max_hops = self.max_hops.max(other.max_hops);
    }

    /// Records one route outcome.
    ///
    /// `SourceFailed` / `TargetFailed` cannot occur for pairs drawn among
    /// survivors and are counted as drops (with a debug assertion).
    pub fn record(&mut self, outcome: RouteOutcome) {
        self.attempted += 1;
        match outcome {
            RouteOutcome::Delivered { hops } => {
                self.delivered += 1;
                self.hop_stats.push(f64::from(hops));
                self.max_hops = self.max_hops.max(hops);
            }
            RouteOutcome::Dropped { .. } => self.dropped += 1,
            RouteOutcome::HopLimitExceeded { .. } => self.hop_limited += 1,
            RouteOutcome::SourceFailed | RouteOutcome::TargetFailed => {
                debug_assert!(false, "survivor pairs cannot have failed endpoints");
                self.dropped += 1;
            }
        }
    }

    /// Delivered fraction, 0 when nothing was attempted.
    #[must_use]
    pub fn routability(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.delivered as f64 / self.attempted as f64
        }
    }
}

/// A per-shard result the engine records outcomes into and folds in shard
/// order — the seam that lets plain trials and campaigns (the stuck-depth
/// histograms of [`crate::campaign`]) share one shard body, preserving the
/// thread-count-invariance contract for every tally type.
pub(crate) trait ShardTally: Default + Clone + Send {
    /// Records one route outcome, in draw order.
    fn record(&mut self, outcome: RouteOutcome);

    /// Folds `other` into `self`; the engine always calls this in shard
    /// order.
    fn fold(&mut self, other: &Self);
}

impl ShardTally for TrialTally {
    fn record(&mut self, outcome: RouteOutcome) {
        TrialTally::record(self, outcome);
    }

    fn fold(&mut self, other: &Self) {
        self.merge(other);
    }
}

/// Routes a trial's pair budget across scoped worker threads, bit-identically
/// for any thread count.
///
/// See the [module docs](self) for the sharding scheme. The engine is shared
/// by [`crate::StaticResilienceExperiment`] and (transitively)
/// [`crate::sweep_failure_grid`]; use it directly when driving a custom
/// failure model:
///
/// ```rust
/// use dht_overlay::{CanOverlay, FailureMask, Overlay};
/// use dht_sim::TrialEngine;
///
/// let overlay = CanOverlay::build(8)?;
/// let mask = FailureMask::none(overlay.key_space());
/// let engine = TrialEngine::new(4);
/// let tally = engine
///     .run_trial(&overlay, &mask, 10_000, 7)
///     .expect("two survivors exist");
/// assert_eq!(tally.attempted, 10_000);
/// assert_eq!(tally.routability(), 1.0);
/// // Thread count never changes the numbers:
/// assert_eq!(
///     Some(tally),
///     TrialEngine::new(1).run_trial(&overlay, &mask, 10_000, 7)
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialEngine {
    threads: usize,
    pairs_per_shard: u64,
}

impl TrialEngine {
    /// Creates an engine running on up to `threads` scoped worker threads
    /// (clamped to `1..=256`), with the default shard size.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        TrialEngine {
            threads: threads.clamp(1, 256),
            pairs_per_shard: DEFAULT_PAIRS_PER_SHARD,
        }
    }

    /// Overrides the logical shard size (clamped to at least 1).
    ///
    /// The shard size partitions the pair budget across RNG streams, so two
    /// runs only reproduce each other when it matches; thread count, by
    /// contrast, never affects results.
    #[must_use]
    pub fn with_pairs_per_shard(mut self, pairs_per_shard: u64) -> Self {
        self.pairs_per_shard = pairs_per_shard.max(1);
        self
    }

    /// Worker threads the engine will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pairs per logical shard.
    #[must_use]
    pub fn pairs_per_shard(&self) -> u64 {
        self.pairs_per_shard
    }

    /// Routes `pairs` source/destination pairs among the survivors of `mask`
    /// and returns the merged tally, or `None` when fewer than two nodes
    /// survive. A zero budget is clamped to one pair (a trial that measures
    /// nothing has no routability estimate).
    ///
    /// All pair randomness derives from `pair_seed` via per-shard
    /// [`SeedSequence`] streams; the result is a pure function of
    /// `(overlay, mask, pairs, pair_seed, pairs_per_shard)`.
    ///
    /// The pairs are routed through the overlay's kernel on its **batched
    /// lockstep path**: the mask is lowered into rank space once (memoized
    /// per mask generation), its bitset words are resolved once for the whole
    /// trial, and each shard draws its full pair budget in one call and
    /// routes it with up to a frontier's width of lookups in flight
    /// ([`RoutingKernel::route_batch`] or [`ImplicitKernel::route_batch`]).
    /// Batched outcomes are bit-identical per pair to the scalar reference
    /// path (the `kernel_equivalence`, `batch_equivalence` and
    /// `implicit_equivalence` suites prove it), and outcomes are recorded in
    /// draw order — so which backend ran is not observable in the tally.
    ///
    /// # Panics
    ///
    /// Panics if `mask` covers a different key space than the overlay, or if
    /// the overlay exposes neither [`Overlay::kernel`] nor
    /// [`Overlay::implicit_kernel`]; the message names its geometry.
    pub fn run_trial<O>(
        &self,
        overlay: &O,
        mask: &FailureMask,
        pairs: u64,
        pair_seed: u64,
    ) -> Option<TrialTally>
    where
        O: Overlay + ?Sized,
    {
        self.run_routed(overlay, mask, pairs, pair_seed)
    }

    /// The shard loop behind [`TrialEngine::run_trial`] and
    /// [`TrialEngine::run_campaign_trial`]: resolves a [`Router`] and the
    /// mask's rank-space words once, routes each shard's pairs in a batch
    /// and records them into a tally of type `T`. Tallies merge in shard
    /// order, which is where thread-count invariance lives. Each worker
    /// reuses one [`Scratch`]; the tally is the only output channel.
    pub(crate) fn run_routed<T, O>(
        &self,
        overlay: &O,
        mask: &FailureMask,
        pairs: u64,
        pair_seed: u64,
    ) -> Option<T>
    where
        T: ShardTally,
        O: Overlay + ?Sized,
    {
        let sampler = PairSampler::new(mask)?;
        // Batch-entry validation, hoisted: every pair the sampler yields
        // lives in the mask's key space, so the key-space checks the scalar
        // router would repeat per routed pair are paid once per trial here.
        assert_eq!(
            mask.key_space().bits(),
            overlay.key_space().bits(),
            "mask is from a different key space than the overlay"
        );
        let hop_limit = default_route_hop_limit(overlay);
        let router = Router::of(overlay);
        let lowered = router.compile_mask(mask);
        // Resolve the mask representation to its bitset words once per
        // trial; shards route against the bare slice.
        let words = lowered.words();

        let pairs = pairs.max(1);
        let shard_count = usize::try_from(pairs.div_ceil(self.pairs_per_shard))
            .expect("shard count fits in usize");
        let shard_seeds = SeedSequence::new(pair_seed);
        let run_shard = |shard: usize, scratch: &mut Scratch| -> T {
            let mut rng = shard_seeds.child_rng(shard as u64);
            let budget = if shard + 1 == shard_count {
                pairs - self.pairs_per_shard * (shard_count as u64 - 1)
            } else {
                self.pairs_per_shard
            };
            sampler.sample_values_into(budget, &mut rng, &mut scratch.pairs);
            router.route(scratch, words, hop_limit);
            // Draw order, not retirement order: the tally's floating-point
            // hop statistics must fold exactly as the per-route path folds
            // them.
            let mut tally = T::default();
            for &outcome in &scratch.outcomes {
                tally.record(outcome);
            }
            tally
        };

        let threads = self.threads.min(shard_count);
        let mut merged = T::default();
        if threads <= 1 {
            let mut scratch = Scratch::default();
            for shard in 0..shard_count {
                merged.fold(&run_shard(shard, &mut scratch));
            }
        } else {
            let mut tallies: Vec<T> = vec![T::default(); shard_count];
            let chunk = shard_count.div_ceil(threads);
            std::thread::scope(|scope| {
                for (worker, slots) in tallies.chunks_mut(chunk).enumerate() {
                    let run_shard = &run_shard;
                    let base = worker * chunk;
                    scope.spawn(move || {
                        let mut scratch = Scratch::default();
                        for (offset, slot) in slots.iter_mut().enumerate() {
                            *slot = run_shard(base + offset, &mut scratch);
                        }
                    });
                }
            });
            // Shard order, not completion order: keeps the floating-point
            // hop statistics identical for every thread count.
            for tally in &tallies {
                merged.fold(tally);
            }
        }
        Some(merged)
    }
}

/// The kernel a trial routes through, resolved once per trial and shared by
/// every worker.
#[derive(Clone, Copy)]
enum Router<'o> {
    /// A compiled rank-space plan.
    Plan(&'o RoutingKernel),
    /// The implicit backend; each worker routes through its own row cache.
    Generated(&'o ImplicitKernel),
}

impl<'o> Router<'o> {
    /// The overlay's compiled kernel, else its implicit kernel; panics,
    /// naming the geometry, when the overlay exposes neither.
    fn of<O: Overlay + ?Sized>(overlay: &'o O) -> Self {
        if let Some(kernel) = overlay.kernel() {
            Router::Plan(kernel)
        } else if let Some(kernel) = overlay.implicit_kernel() {
            Router::Generated(kernel)
        } else {
            panic!(
                "overlay `{}` exposes no routing kernel: the trial engine routes through \
                 Overlay::kernel or Overlay::implicit_kernel",
                overlay.geometry_name()
            )
        }
    }

    fn compile_mask<'mask>(self, mask: &'mask FailureMask) -> KernelMask<'mask> {
        match self {
            Router::Plan(kernel) => kernel.compile_mask(mask),
            Router::Generated(kernel) => kernel.compile_mask(mask),
        }
    }

    /// Routes `scratch.pairs` into `scratch.outcomes` in one lockstep batch.
    fn route(self, scratch: &mut Scratch, words: &[u64], hop_limit: u32) {
        let Scratch {
            batch,
            cache,
            pairs,
            outcomes,
        } = scratch;
        match self {
            Router::Plan(kernel) => kernel.route_batch(batch, words, pairs, hop_limit, outcomes),
            Router::Generated(kernel) => {
                let cache = cache.get_or_insert_with(|| kernel.row_cache());
                kernel.route_batch(batch, cache, words, pairs, hop_limit, outcomes);
            }
        }
    }
}

/// Per-worker scratch: one routing frontier, one pair buffer, one outcome
/// buffer and, on the implicit backend, one row cache — reused across every
/// shard the worker executes, the engine's only allocations after the first
/// shard.
#[derive(Default)]
struct Scratch {
    batch: RouteBatch,
    cache: Option<ImplicitRowCache>,
    pairs: Vec<(u64, u64)>,
    /// The shard's outcomes in draw order after [`Router::route`].
    outcomes: Vec<RouteOutcome>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_id::KeySpace;
    use dht_overlay::route_prevalidated;
    use dht_overlay::{CanOverlay, ChordOverlay, ChordVariant, KademliaOverlay};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn intact_overlay_delivers_everything() {
        let overlay = CanOverlay::build(8).unwrap();
        let mask = FailureMask::none(overlay.key_space());
        let tally = TrialEngine::new(2)
            .run_trial(&overlay, &mask, 5_000, 3)
            .unwrap();
        assert_eq!(tally.attempted, 5_000);
        assert_eq!(tally.delivered, 5_000);
        assert_eq!(tally.dropped, 0);
        assert_eq!(tally.hop_limited, 0);
        assert_eq!(tally.routability(), 1.0);
        assert_eq!(tally.hop_stats.count(), 5_000);
        assert!(tally.max_hops <= 8);
    }

    #[test]
    fn results_are_invariant_under_thread_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let overlay = KademliaOverlay::build(9, &mut rng).unwrap();
        let mask = FailureMask::sample(overlay.key_space(), 0.3, &mut rng);
        let reference = TrialEngine::new(1).run_trial(&overlay, &mask, 10_000, 11);
        for threads in [2, 3, 4, 7, 16] {
            let tally = TrialEngine::new(threads).run_trial(&overlay, &mask, 10_000, 11);
            assert_eq!(reference, tally, "threads = {threads}");
        }
    }

    #[test]
    fn shard_size_is_part_of_the_configuration() {
        let overlay = ChordOverlay::build(8, ChordVariant::Deterministic).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mask = FailureMask::sample(overlay.key_space(), 0.2, &mut rng);
        let small = TrialEngine::new(2)
            .with_pairs_per_shard(128)
            .run_trial(&overlay, &mask, 2_000, 1)
            .unwrap();
        let large = TrialEngine::new(2)
            .with_pairs_per_shard(1 << 20)
            .run_trial(&overlay, &mask, 2_000, 1)
            .unwrap();
        assert_eq!(small.attempted, 2_000);
        assert_eq!(large.attempted, 2_000);
        // Different shard grids draw different streams — documented, loud.
        assert_ne!(small, large);
        // But each grid is itself thread-invariant.
        assert_eq!(
            Some(small),
            TrialEngine::new(7)
                .with_pairs_per_shard(128)
                .run_trial(&overlay, &mask, 2_000, 1)
        );
    }

    /// The engine's scalar oracle: the same shard grid and per-shard
    /// [`SeedSequence`] streams as [`TrialEngine::run_trial`], each pair
    /// drawn one at a time and routed hop by hop through
    /// [`route_prevalidated`].
    fn scalar_reference(
        engine: &TrialEngine,
        overlay: &dyn Overlay,
        mask: &FailureMask,
        pairs: u64,
        pair_seed: u64,
    ) -> Option<TrialTally> {
        let sampler = PairSampler::new(mask)?;
        let space = mask.key_space();
        let hop_limit = default_route_hop_limit(overlay);
        let shard_size = engine.pairs_per_shard();
        let shard_seeds = SeedSequence::new(pair_seed);
        let mut merged = TrialTally::default();
        for shard in 0..pairs.div_ceil(shard_size) {
            let mut rng = shard_seeds.child_rng(shard);
            let mut tally = TrialTally::default();
            for _ in 0..shard_size.min(pairs - shard * shard_size) {
                let (source, target) = sampler.sample_values(&mut rng);
                tally.record(route_prevalidated(
                    overlay,
                    space.wrap(source),
                    space.wrap(target),
                    mask,
                    hop_limit,
                ));
            }
            merged.merge(&tally);
        }
        Some(merged)
    }

    /// The engine routes every shard through the lockstep batch, so this is
    /// the engine-level batched-vs-scalar equality contract: same pairs,
    /// same RNG streams, bit-identical tallies (including the
    /// order-sensitive floating-point hop statistics).
    #[test]
    fn kernel_path_tallies_identically_to_the_scalar_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let overlays: Vec<Box<dyn Overlay>> = vec![
            Box::new(ChordOverlay::build(9, ChordVariant::Deterministic).unwrap()),
            Box::new(KademliaOverlay::build(9, &mut rng).unwrap()),
            Box::new(CanOverlay::build(9).unwrap()),
        ];
        for overlay in &overlays {
            assert!(overlay.kernel().is_some(), "geometries compile kernels");
            let mask = FailureMask::sample(overlay.key_space(), 0.3, &mut rng);
            let engine = TrialEngine::new(3);
            let with_kernel = engine.run_trial(overlay.as_ref(), &mask, 8_000, 13);
            let scalar = scalar_reference(&engine, overlay.as_ref(), &mask, 8_000, 13);
            assert_eq!(
                with_kernel,
                scalar,
                "kernel and scalar paths diverge on {}",
                overlay.geometry_name()
            );
        }
    }

    /// The implicit arm must reproduce the materialized kernel arm exactly:
    /// same stream seed, same mask, same pair seed → bit-identical tallies
    /// (the backend is not observable in the numbers).
    #[test]
    fn implicit_path_tallies_identically_to_the_materialized_path() {
        use dht_overlay::{ImplicitOverlay, PlaxtonOverlay};

        let stream_seed = 41;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mask = FailureMask::sample(KeySpace::new(10).unwrap(), 0.3, &mut rng);
        let engine = TrialEngine::new(3);

        let materialized =
            ChordOverlay::build_randomized(10, &mut ChaCha8Rng::seed_from_u64(stream_seed))
                .unwrap();
        let implicit = ImplicitOverlay::ring(10, ChordVariant::Randomized, stream_seed).unwrap();
        assert!(implicit.kernel().is_none() && implicit.implicit_kernel().is_some());
        assert_eq!(
            engine.run_trial(&materialized, &mask, 6_000, 23),
            engine.run_trial(&implicit, &mask, 6_000, 23),
        );

        let materialized =
            PlaxtonOverlay::build(10, &mut ChaCha8Rng::seed_from_u64(stream_seed)).unwrap();
        let implicit = ImplicitOverlay::tree(10, stream_seed).unwrap();
        assert_eq!(
            engine.run_trial(&materialized, &mask, 6_000, 23),
            engine.run_trial(&implicit, &mask, 6_000, 23),
        );
    }

    #[test]
    fn implicit_path_is_invariant_under_thread_count() {
        use dht_overlay::ImplicitOverlay;

        let overlay = ImplicitOverlay::xor(10, 29).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mask = FailureMask::sample(overlay.key_space(), 0.3, &mut rng);
        let reference = TrialEngine::new(1).run_trial(&overlay, &mask, 10_000, 11);
        for threads in [2, 5, 16] {
            assert_eq!(
                reference,
                TrialEngine::new(threads).run_trial(&overlay, &mask, 10_000, 11),
                "threads = {threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "overlay `line` exposes no routing kernel")]
    fn an_overlay_without_a_kernel_is_rejected_by_name() {
        /// A scalar-only overlay: no links and no kernel of either kind.
        struct Line(dht_id::Population);

        impl Overlay for Line {
            fn geometry_name(&self) -> &'static str {
                "line"
            }
            fn population(&self) -> &dht_id::Population {
                &self.0
            }
            fn neighbors(&self, _node: dht_id::NodeId) -> &[dht_id::NodeId] {
                &[]
            }
            fn next_hop(
                &self,
                _current: dht_id::NodeId,
                _target: dht_id::NodeId,
                _alive: &FailureMask,
            ) -> Option<dht_id::NodeId> {
                None
            }
        }

        let space = KeySpace::new(4).unwrap();
        let overlay = Line(dht_id::Population::full(space));
        let _ = TrialEngine::new(1).run_trial(&overlay, &FailureMask::none(space), 10, 0);
    }

    #[test]
    fn too_few_survivors_yields_none() {
        let overlay = CanOverlay::build(4).unwrap();
        let space = overlay.key_space();
        let mask = FailureMask::from_failed_nodes(space, (1..16).map(|v| space.wrap(v)));
        assert!(TrialEngine::new(2)
            .run_trial(&overlay, &mask, 100, 0)
            .is_none());
    }

    #[test]
    fn partial_last_shard_is_exact() {
        let overlay = CanOverlay::build(6).unwrap();
        let mask = FailureMask::none(overlay.key_space());
        // 3 full shards of 100 plus a final shard of 1.
        let tally = TrialEngine::new(2)
            .with_pairs_per_shard(100)
            .run_trial(&overlay, &mask, 301, 5)
            .unwrap();
        assert_eq!(tally.attempted, 301);
    }

    #[test]
    fn tallies_merge_like_concatenation() {
        let mut a = TrialTally::default();
        let mut b = TrialTally::default();
        let space = KeySpace::new(4).unwrap();
        a.record(RouteOutcome::Delivered { hops: 3 });
        a.record(RouteOutcome::Dropped {
            hops: 1,
            stuck_at: space.wrap(2),
        });
        b.record(RouteOutcome::Delivered { hops: 7 });
        b.record(RouteOutcome::HopLimitExceeded { limit: 64 });
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.attempted, 4);
        assert_eq!(merged.delivered, 2);
        assert_eq!(merged.dropped, 1);
        assert_eq!(merged.hop_limited, 1);
        assert_eq!(merged.max_hops, 7);
        assert_eq!(merged.hop_stats.count(), 2);
        assert!((merged.hop_stats.mean() - 5.0).abs() < 1e-12);
        assert!((merged.routability() - 0.5).abs() < 1e-12);
    }
}
