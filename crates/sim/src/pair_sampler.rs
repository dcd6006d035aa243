//! Sampling of source/destination pairs among surviving nodes.

use dht_id::NodeId;
use dht_overlay::{select_in_word, FailureMask};
use rand::Rng;

/// Mask words per rank-index block: 512 identifiers, one cache line of mask.
const BLOCK_WORDS: usize = 8;

/// `log2` of the survivors per select hint: one hint per 1024 survivors.
const HINT_SHIFT: u32 = 10;

/// Samples ordered source/destination pairs uniformly among the surviving
/// nodes of a failure pattern.
///
/// Routability (Definition 1 of the paper) is a statement about ordered pairs
/// of *surviving* nodes; the sampler therefore draws both endpoints from the
/// alive set and never returns a pair with `source == target`. Masks over a
/// sparse [`dht_id::Population`] report unoccupied identifiers as failed, so
/// the sampler automatically draws only occupied survivors.
///
/// The sampler draws by *rank* directly into the mask's bitset. Construction
/// builds one cumulative popcount per 512-identifier block of eight words (a
/// `u32`; the block layer of Vigna's rank9) and one select hint per 1024
/// survivors: the block that holds each survivor whose rank is a multiple of
/// 1024 (the sampled-select layer of rank/select dictionaries). That is at
/// most 6 bytes per 512 identifiers, under a tenth of the mask. A draw reads
/// its rank's hint and the next one, which bound the block that holds it,
/// and binary-searches the block counts between them: a few cache lines,
/// unless a dead run makes the stride wide. It then popcount-scans at most
/// eight words of the block and selects within a single word
/// ([`dht_overlay::select_in_word`]). Because the sampler borrows the mask,
/// the mask cannot be mutated out from under the index.
///
/// # Example
///
/// ```rust
/// use dht_id::KeySpace;
/// use dht_overlay::FailureMask;
/// use dht_sim::PairSampler;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let space = KeySpace::new(8)?;
/// let mut rng = ChaCha8Rng::seed_from_u64(5);
/// let mask = FailureMask::sample(space, 0.5, &mut rng);
/// let sampler = PairSampler::new(&mask).expect("enough survivors");
/// let (source, target) = sampler.sample(&mut rng);
/// assert!(mask.is_alive(source) && mask.is_alive(target));
/// assert_ne!(source, target);
/// # Ok::<(), dht_id::IdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PairSampler<'mask> {
    mask: &'mask FailureMask,
    /// `block_ranks[b]` is the number of alive nodes in words
    /// `0..BLOCK_WORDS * b` of the mask, one count per block of words. A mask
    /// holds at most 2^32 identifiers and its last block 512 of them, so
    /// every count fits a `u32`.
    block_ranks: Vec<u32>,
    /// `hints[k]` is the block that holds the alive node of rank
    /// `k << HINT_SHIFT`; a mask has at most 2^23 blocks.
    hints: Vec<u32>,
}

impl<'mask> PairSampler<'mask> {
    /// Builds a sampler over the surviving nodes of `mask`.
    ///
    /// Returns `None` when fewer than two nodes survive (no pair exists).
    #[must_use]
    pub fn new(mask: &'mask FailureMask) -> Option<Self> {
        if mask.alive_count() < 2 {
            return None;
        }
        let blocks = mask.words().chunks(BLOCK_WORDS);
        let mut block_ranks = Vec::with_capacity(blocks.len());
        let hint_count = mask.alive_count().div_ceil(1 << HINT_SHIFT);
        let mut hints = Vec::with_capacity(usize::try_from(hint_count).expect("hints fit usize"));
        let mut total = 0u64;
        for (index, block) in blocks.enumerate() {
            block_ranks.push(u32::try_from(total).expect("masks hold at most 2^32 identifiers"));
            total += block
                .iter()
                .map(|word| u64::from(word.count_ones()))
                .sum::<u64>();
            while (hints.len() as u64) << HINT_SHIFT < total {
                hints.push(index as u32);
            }
        }
        debug_assert_eq!(total, mask.alive_count(), "mask counters match the bitset");
        Some(PairSampler {
            mask,
            block_ranks,
            hints,
        })
    }

    /// Number of surviving nodes the sampler draws from.
    #[must_use]
    pub fn survivor_count(&self) -> usize {
        self.mask.alive_count() as usize
    }

    /// The surviving node of the given rank (ascending identifier order), via
    /// the select hints and the block rank index.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= survivor_count()`.
    #[must_use]
    pub fn select(&self, rank: u64) -> NodeId {
        self.mask.key_space().wrap(self.select_value(rank))
    }

    /// [`PairSampler::select`] as a raw identifier value — the rank is
    /// resolved against the bitset directly, with no [`NodeId`] constructed.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= survivor_count()`.
    #[must_use]
    pub fn select_value(&self, rank: u64) -> u64 {
        assert!(
            rank < self.mask.alive_count(),
            "rank {rank} out of range for {} survivors",
            self.mask.alive_count()
        );
        // The hints of this rank's stride and the next one bound the block
        // holding the rank-th survivor: the last block between them whose
        // count is <= rank (empty blocks share their successor's count, so
        // the last of equal counts is the one that holds it).
        let stride = (rank >> HINT_SHIFT) as usize;
        let low = self.hints[stride] as usize;
        let high = self
            .hints
            .get(stride + 1)
            .map_or(self.block_ranks.len() - 1, |&block| block as usize);
        let block = low
            + self.block_ranks[low + 1..=high].partition_point(|&count| u64::from(count) <= rank);
        let mut within = rank - u64::from(self.block_ranks[block]);
        let first = block * BLOCK_WORDS;
        let words = self.mask.words()[first..].iter().take(BLOCK_WORDS);
        for (index, &word) in (first..).zip(words) {
            let count = u64::from(word.count_ones());
            if within < count {
                return index as u64 * 64 + u64::from(select_in_word(word, within as u32));
            }
            within -= count;
        }
        unreachable!("block counts match the bitset")
    }

    /// Draws one ordered pair of distinct surviving nodes.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (NodeId, NodeId) {
        let (source, target) = self.sample_values(rng);
        let space = self.mask.key_space();
        (space.wrap(source), space.wrap(target))
    }

    /// [`PairSampler::sample`] as raw identifier values: the same two rank
    /// draws (bit-for-bit the same RNG stream), resolved straight off the
    /// bitset without the `NodeId` → rank → `NodeId` round trip.
    ///
    /// This is the trial engine's hot path: the compiled routing kernel
    /// consumes raw values, so identifiers never need to be materialised
    /// between the draw and the route.
    pub fn sample_values<R: Rng + ?Sized>(&self, rng: &mut R) -> (u64, u64) {
        let survivors = self.mask.alive_count();
        let source_rank = rng.gen_range(0..survivors);
        // Draw the target from the remaining n-1 slots to guarantee
        // distinctness without rejection loops.
        let mut target_rank = rng.gen_range(0..survivors - 1);
        if target_rank >= source_rank {
            target_rank += 1;
        }
        (
            self.select_value(source_rank),
            self.select_value(target_rank),
        )
    }

    /// Draws `count` ordered pairs of raw identifier values into `out`
    /// (cleared first) — exactly `count` repetitions of
    /// [`PairSampler::sample_values`], consuming the identical RNG stream in
    /// the identical order.
    ///
    /// This is the batched-routing refill path: the trial engine fills one
    /// shard's pair buffer in a single call and hands the slice to
    /// [`RoutingKernel::route_batch`](dht_overlay::RoutingKernel::route_batch),
    /// keeping the routing frontier full without perturbing a single draw —
    /// per-shard draw order is what makes the committed measured values
    /// bit-identical between the batched engine and the scalar oracle.
    pub fn sample_values_into<R: Rng + ?Sized>(
        &self,
        count: u64,
        rng: &mut R,
        out: &mut Vec<(u64, u64)>,
    ) {
        out.clear();
        out.reserve(usize::try_from(count).expect("pair batches fit usize"));
        for _ in 0..count {
            out.push(self.sample_values(rng));
        }
    }

    /// Draws `count` ordered pairs.
    ///
    /// Batch drivers should prefer [`PairSampler::sample_values_into`] over a
    /// reused buffer; this helper remains for examples and tests.
    pub fn sample_many<R: Rng + ?Sized>(&self, count: u64, rng: &mut R) -> Vec<(NodeId, NodeId)> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_id::KeySpace;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn space(bits: u32) -> KeySpace {
        KeySpace::new(bits).unwrap()
    }

    #[test]
    fn samples_are_alive_and_distinct() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mask = FailureMask::sample(space(10), 0.4, &mut rng);
        let sampler = PairSampler::new(&mask).unwrap();
        for _ in 0..1000 {
            let (source, target) = sampler.sample(&mut rng);
            assert!(mask.is_alive(source));
            assert!(mask.is_alive(target));
            assert_ne!(source, target);
        }
    }

    #[test]
    fn survivor_count_matches_mask() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mask = FailureMask::sample(space(10), 0.25, &mut rng);
        let sampler = PairSampler::new(&mask).unwrap();
        assert_eq!(sampler.survivor_count() as u64, mask.alive_count());
    }

    #[test]
    fn select_agrees_with_the_masks_linear_select() {
        use dht_id::Population;
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let s12 = space(12);
        let population = Population::sample_uniform(space(11), 300, &mut rng).unwrap();
        let masks = [
            // Half a word.
            FailureMask::none(space(5)),
            // Exactly one block.
            FailureMask::sample(space(9), 0.5, &mut rng),
            // Three empty leading blocks: equal counts meet the block search.
            FailureMask::from_failed_nodes(s12, (0..1536).map(|v| s12.wrap(v))),
            FailureMask::sample(space(13), 0.5, &mut rng),
            FailureMask::sample_over(&population, 0.3, &mut rng),
        ];
        for mask in &masks {
            let sampler = PairSampler::new(mask).unwrap();
            for rank in 0..mask.alive_count() {
                assert_eq!(Some(sampler.select(rank)), mask.select_alive(rank));
            }
        }
    }

    #[test]
    fn the_index_holds_at_most_six_bytes_per_block() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for bits in [1, 6, 9, 10, 15] {
            let full = FailureMask::none(space(bits));
            let sampled = FailureMask::sample(space(bits), 0.3, &mut rng);
            for mask in [full, sampled] {
                let sampler = PairSampler::new(&mask).unwrap();
                let blocks = mask.words().len().div_ceil(BLOCK_WORDS);
                let hints = mask.alive_count().div_ceil(1 << HINT_SHIFT) as usize;
                assert_eq!(sampler.block_ranks.capacity(), blocks);
                assert_eq!(sampler.hints.capacity(), hints);
                // A block holds at most 512 survivors, so there are at most
                // `(blocks + 1) / 2` hints: 6 bytes per block, give or take
                // one hint.
                let bytes = std::mem::size_of_val(sampler.block_ranks.as_slice())
                    + std::mem::size_of_val(sampler.hints.as_slice());
                assert!(
                    bytes <= 6 * blocks + 4,
                    "{bytes} index bytes for {blocks} blocks"
                );
            }
        }
    }

    #[test]
    fn too_few_survivors_yields_none() {
        let s = space(3);
        // Fail everyone but node 0.
        let mask = FailureMask::from_failed_nodes(s, (1..8).map(|v| s.wrap(v)));
        assert!(PairSampler::new(&mask).is_none());
        // Two survivors are enough.
        let mask = FailureMask::from_failed_nodes(s, (2..8).map(|v| s.wrap(v)));
        let sampler = PairSampler::new(&mask).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (a, b) = sampler.sample(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn sparse_population_masks_yield_only_occupied_pairs() {
        use dht_id::Population;
        let s = space(10);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let population = Population::sample_uniform(s, 200, &mut rng).unwrap();
        let mask = FailureMask::sample_over(&population, 0.25, &mut rng);
        let sampler = PairSampler::new(&mask).unwrap();
        assert_eq!(sampler.survivor_count() as u64, mask.alive_count());
        for _ in 0..500 {
            let (source, target) = sampler.sample(&mut rng);
            assert!(population.contains(source));
            assert!(population.contains(target));
            assert!(mask.is_alive(source) && mask.is_alive(target));
        }
    }

    #[test]
    fn sample_many_returns_requested_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mask = FailureMask::sample(space(8), 0.1, &mut rng);
        let sampler = PairSampler::new(&mask).unwrap();
        assert_eq!(sampler.sample_many(257, &mut rng).len(), 257);
    }

    #[test]
    fn sample_values_is_the_same_stream_as_sample() {
        // The value-level sampler must make exactly the same RNG draws and
        // resolve to the same identifiers: it is a representation change,
        // not a new stream.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mask = FailureMask::sample(space(10), 0.35, &mut rng);
        let sampler = PairSampler::new(&mask).unwrap();
        let mut a = ChaCha8Rng::seed_from_u64(77);
        let mut b = ChaCha8Rng::seed_from_u64(77);
        for _ in 0..500 {
            let (source, target) = sampler.sample(&mut a);
            let (source_value, target_value) = sampler.sample_values(&mut b);
            assert_eq!(source.value(), source_value);
            assert_eq!(target.value(), target_value);
        }
        // Both consumed the identical amount of randomness.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn sample_values_into_is_the_same_stream_as_repeated_draws() {
        // The batched refill is a buffering change, not a new stream: it must
        // make exactly the draws that `count` repeated `sample_values` calls
        // make, in the same order.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mask = FailureMask::sample(space(10), 0.3, &mut rng);
        let sampler = PairSampler::new(&mask).unwrap();
        let mut a = ChaCha8Rng::seed_from_u64(123);
        let mut b = ChaCha8Rng::seed_from_u64(123);
        let streamed: Vec<(u64, u64)> = (0..257).map(|_| sampler.sample_values(&mut a)).collect();
        let mut batched = vec![(0u64, 0u64); 3]; // stale contents must be cleared
        sampler.sample_values_into(257, &mut b, &mut batched);
        assert_eq!(streamed, batched);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "same randomness consumed");
        // A zero-count refill clears the buffer and draws nothing.
        sampler.sample_values_into(0, &mut b, &mut batched);
        assert!(batched.is_empty());
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn sampling_covers_the_survivor_set() {
        // With enough draws every survivor should appear as a source.
        let s = space(5);
        let mask = FailureMask::none(s);
        let sampler = PairSampler::new(&mask).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut seen = [false; 32];
        for _ in 0..2000 {
            let (source, _) = sampler.sample(&mut rng);
            seen[source.value() as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "uniform sampling must cover all nodes"
        );
    }
}
