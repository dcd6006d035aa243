//! Frozen node-failure patterns (the static resilience model).

use crate::fanout;
use dht_id::{KeySpace, NodeId, Population};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Number of identifier slots per bitset word.
const WORD_BITS: u64 = 64;

/// Fewest words [`FailureMask::sample_seeded`] hands one thread: 2^15
/// identifiers, about a quarter millisecond of draws, far above the cost of
/// spawning the thread.
const MIN_CHUNK_WORDS: usize = 512;

/// A frozen set of failed nodes over the occupied identifiers of a space.
///
/// The paper's failure model removes each node independently with probability
/// `q` and keeps every surviving node's routing table unchanged. A
/// [`FailureMask`] captures one such removal pattern; routing functions query
/// it on every hop.
///
/// # Representation
///
/// The mask is a packed bitset: bit `v % 64` of word `v / 64` is set exactly
/// when identifier `v` is an *alive occupied* node. Unoccupied identifiers
/// (for masks over a sparse [`Population`]) and failed nodes both read as
/// zero, so the hot-path query [`FailureMask::is_alive`] is a single shift
/// and mask. Word-level access ([`FailureMask::words`],
/// [`FailureMask::alive_words`]) plus popcount-based rank/select
/// ([`FailureMask::alive_rank`], [`FailureMask::select_alive`]) let samplers
/// draw surviving nodes by rank without materialising an alive vector; a
/// `2^20`-identifier mask is 128 KiB instead of the megabyte a `Vec<bool>`
/// would cost.
///
/// Masks are population-aware: over a sparse [`Population`] the unoccupied
/// identifiers are permanently "failed" (there is no node to forward
/// through), while [`FailureMask::failed_count`] and
/// [`FailureMask::alive_count`] always refer to *occupied* nodes only.
///
/// # Example
///
/// ```rust
/// use dht_id::KeySpace;
/// use dht_overlay::FailureMask;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let space = KeySpace::new(10)?;
/// let mut rng = ChaCha8Rng::seed_from_u64(7);
/// let mask = FailureMask::sample(space, 0.25, &mut rng);
/// let observed = mask.failed_count() as f64 / space.population() as f64;
/// assert!((observed - 0.25).abs() < 0.1);
/// # Ok::<(), dht_id::IdError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureMask {
    space: KeySpace,
    /// Bit `v % 64` of `alive[v / 64]` is set iff identifier `v` is an alive
    /// occupied node. Bits beyond the key space are always zero, so equality
    /// and word-level scans need no trailing-bit masking.
    alive: Vec<u64>,
    failed_count: u64,
    population_size: u64,
}

impl FailureMask {
    /// Creates a mask with no failures over a fully populated space.
    ///
    /// # Panics
    ///
    /// Panics if the space has more than `2^32` identifiers (such spaces are
    /// analytical-only; see [`crate::traits::MAX_OVERLAY_BITS`]).
    #[must_use]
    pub fn none(space: KeySpace) -> Self {
        assert!(
            space.bits() <= 32,
            "failure masks materialise every node; {}-bit spaces are analytical-only",
            space.bits()
        );
        let population = space.population();
        let words = population.div_ceil(WORD_BITS) as usize;
        let mut alive = vec![u64::MAX; words];
        let tail = population % WORD_BITS;
        if tail != 0 {
            alive[words - 1] = (1u64 << tail) - 1;
        }
        FailureMask {
            space,
            alive,
            failed_count: 0,
            population_size: population,
        }
    }

    /// Creates a mask with no failures over the occupied identifiers of
    /// `population`; unoccupied identifiers read as failed.
    ///
    /// # Panics
    ///
    /// Panics if the space has more than `2^32` identifiers.
    #[must_use]
    pub fn none_over(population: &Population) -> Self {
        if population.is_full() {
            return FailureMask::none(population.space());
        }
        let space = population.space();
        assert!(
            space.bits() <= 32,
            "failure masks materialise every node; {}-bit spaces are analytical-only",
            space.bits()
        );
        let words = space.population().div_ceil(WORD_BITS) as usize;
        let mut alive = vec![0u64; words];
        for node in population.iter_nodes() {
            let value = node.value();
            alive[(value / WORD_BITS) as usize] |= 1u64 << (value % WORD_BITS);
        }
        FailureMask {
            space,
            alive,
            failed_count: 0,
            population_size: population.node_count(),
        }
    }

    /// Samples a mask over a fully populated space in which every node fails
    /// independently with probability `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]` or the space is larger than `2^32`.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(space: KeySpace, q: f64, rng: &mut R) -> Self {
        Self::sample_over(&Population::full(space), q, rng)
    }

    /// Samples a mask in which every *occupied* node fails independently with
    /// probability `q` (unoccupied identifiers read as failed regardless).
    ///
    /// Each occupied identifier, in ascending order, consumes one draw of
    /// the `next_u64` stream and fails exactly when `rng.gen_bool(q)` would
    /// have returned `true` on that draw, so the caller's stream stays in
    /// step with a per-node `gen_bool` loop. Over a full population this
    /// draws the identical mask (and RNG stream) as [`FailureMask::sample`].
    ///
    /// A fully occupied 64-identifier word takes its 64 draws with one
    /// `fill_bytes` of 512 bytes. That relies on `rng`'s `fill_bytes`
    /// emitting its `next_u64` stream little-endian, as every
    /// [`RngCore`] in this workspace does (the vendored ChaCha generators
    /// and proptest's `TestRng`, which wraps one).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]` or the space is larger than `2^32`.
    #[must_use]
    pub fn sample_over<R: Rng + ?Sized>(population: &Population, q: f64, rng: &mut R) -> Self {
        let threshold = fail_threshold(q);
        let mut mask = FailureMask::none_over(population);
        mask.failed_count = fail_words(&mut mask.alive, threshold, rng);
        mask
    }

    /// Samples the mask that [`FailureMask::sample_over`] draws from a fresh
    /// `ChaCha8Rng::seed_from_u64(seed)`, bit for bit at every `threads`,
    /// splitting the draws across up to `threads` threads: the caller and
    /// scoped workers.
    ///
    /// The mask's words are cut into at most `threads` (and at most
    /// [`fanout::MAX_THREADS`]) contiguous chunks of at least 512 words
    /// (2^15 identifiers) each, one worker per chunk; a mask too small to
    /// cut samples inline, with no spawn. ChaCha is a counter-based stream,
    /// so a chunk replays its own stretch of it: it seeds its own generator
    /// and [positions](ChaCha8Rng::set_word_pos) it two stream words (one
    /// `next_u64`) per occupied identifier before the chunk's first word. A
    /// generic [`Rng`] cannot be positioned, which is why
    /// [`FailureMask::sample_over`] does not split.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]` or the space is larger than `2^32`.
    #[must_use]
    pub fn sample_seeded(population: &Population, q: f64, seed: u64, threads: usize) -> Self {
        let threshold = fail_threshold(q);
        let mut mask = FailureMask::none_over(population);
        let stream = move |rank: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.set_word_pos(2 * rank);
            rng
        };
        // `rank` counts the occupied identifiers before each chunk; the last
        // chunk's count is never needed.
        let words = mask.alive.len();
        let mut rest = mask.alive.as_mut_slice();
        let mut rank = 0u64;
        let pieces: Vec<_> = fanout::balanced(words, threads, MIN_CHUNK_WORDS)
            .map(|range| {
                let (piece, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                let first = rank;
                if !rest.is_empty() {
                    rank += piece
                        .iter()
                        .map(|word| u64::from(word.count_ones()))
                        .sum::<u64>();
                }
                (piece, first)
            })
            .collect();
        let workers = pieces.len();
        let failed = fanout::map_ordered(pieces, workers, |(piece, first)| {
            fail_words(piece, threshold, &mut stream(first))
        });
        mask.failed_count = failed.into_iter().sum();
        mask
    }

    /// Creates a mask over a fully populated space from an explicit list of
    /// failed identifiers.
    ///
    /// Identifiers outside the space are ignored; duplicates count once.
    #[must_use]
    pub fn from_failed_nodes<I>(space: KeySpace, nodes: I) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut mask = FailureMask::none(space);
        for node in nodes {
            if node.bits() == space.bits() {
                let value = node.value();
                let slot = &mut mask.alive[(value / WORD_BITS) as usize];
                let bit = 1u64 << (value % WORD_BITS);
                if *slot & bit != 0 {
                    *slot &= !bit;
                    mask.failed_count += 1;
                }
            }
        }
        mask
    }

    /// The identifier space this mask covers.
    #[must_use]
    pub fn key_space(&self) -> KeySpace {
        self.space
    }

    /// Number of occupied identifiers this mask tracks (`2^d` for masks over
    /// a full population).
    #[must_use]
    pub fn population_size(&self) -> u64 {
        self.population_size
    }

    /// Returns `true` if `node` failed (or is unoccupied, for masks over a
    /// sparse population).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the mask's key space.
    #[inline]
    #[must_use]
    pub fn is_failed(&self, node: NodeId) -> bool {
        assert_eq!(
            node.bits(),
            self.space.bits(),
            "node belongs to a different key space"
        );
        let value = node.value();
        self.alive[(value / WORD_BITS) as usize] & (1u64 << (value % WORD_BITS)) == 0
    }

    /// Returns `true` if `node` is an occupied identifier that survived.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the mask's key space.
    #[inline]
    #[must_use]
    pub fn is_alive(&self, node: NodeId) -> bool {
        !self.is_failed(node)
    }

    /// Rank-indexed fast path of [`FailureMask::is_alive`]: a direct bit test
    /// of slot `rank`, with no identifier construction or key-space check.
    ///
    /// Valid as an *occupied-rank* probe only for masks over a **full**
    /// population, where a node's occupied rank equals its identifier value —
    /// which is exactly when the compiled routing kernel
    /// ([`crate::kernel::KernelMask`]) borrows the mask's bitset instead of
    /// compressing it. Debug builds assert both preconditions; release
    /// builds perform the raw bit test.
    #[inline]
    #[must_use]
    pub fn is_alive_rank(&self, rank: u32) -> bool {
        debug_assert_eq!(
            self.population_size,
            self.space.population(),
            "rank-indexed probes require a full-population mask (ranks == values)"
        );
        debug_assert!(
            u64::from(rank) < self.space.population(),
            "rank {rank} outside the key space"
        );
        self.alive[(rank >> 6) as usize] & (1u64 << (rank & 63)) != 0
    }

    /// Number of failed occupied nodes.
    #[must_use]
    pub fn failed_count(&self) -> u64 {
        self.failed_count
    }

    /// Number of surviving occupied nodes.
    #[must_use]
    pub fn alive_count(&self) -> u64 {
        self.population_size - self.failed_count
    }

    /// The raw bitset words, 64 identifiers per word in ascending order.
    ///
    /// Samplers build rank indices over this slice to draw surviving nodes by
    /// rank: `dht_sim::PairSampler` keeps one cumulative popcount per
    /// 512-identifier block of eight words and one select hint per 1024
    /// survivors, so a draw reads a few cache lines of index. See
    /// [`FailureMask::select_alive`] for the index-free variant.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.alive
    }

    /// Iterates over the non-zero bitset words as `(word_index, word)` pairs.
    ///
    /// Word `i` covers identifiers `64 * i ..= 64 * i + 63`; a set bit `b`
    /// means identifier `64 * i + b` is alive. Sparse scans (connected
    /// components, reachability frontiers) skip dead regions 64 identifiers
    /// at a time this way.
    pub fn alive_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter_map(|(index, &word)| (word != 0).then_some((index, word)))
    }

    /// Iterates over the surviving node identifiers in ascending order.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let bits = self.space.bits();
        self.alive_words().flat_map(move |(index, word)| {
            let base = index as u64 * WORD_BITS;
            let mut remaining = word;
            std::iter::from_fn(move || {
                if remaining == 0 {
                    return None;
                }
                let bit = remaining.trailing_zeros();
                remaining &= remaining - 1;
                Some(
                    NodeId::from_raw(base + u64::from(bit), bits)
                        .expect("bit index fits the key space"),
                )
            })
        })
    }

    /// The rank of `node` among the surviving nodes in ascending identifier
    /// order, or `None` when `node` is failed or unoccupied.
    ///
    /// Computed by popcounting the bitset prefix, O(population / 64). The
    /// inverse of [`FailureMask::select_alive`].
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the mask's key space.
    #[must_use]
    pub fn alive_rank(&self, node: NodeId) -> Option<u64> {
        if self.is_failed(node) {
            return None;
        }
        let value = node.value();
        let word_index = (value / WORD_BITS) as usize;
        let prefix: u64 = self.alive[..word_index]
            .iter()
            .map(|word| u64::from(word.count_ones()))
            .sum();
        let below = self.alive[word_index] & ((1u64 << (value % WORD_BITS)) - 1);
        Some(prefix + u64::from(below.count_ones()))
    }

    /// The surviving node of the given rank (ascending identifier order), or
    /// `None` when `rank >= alive_count()`.
    ///
    /// This is a linear word scan, O(population / 64); samplers that select
    /// repeatedly should build an index over [`FailureMask::words`] instead:
    /// `dht_sim::PairSampler` keeps block popcounts and select hints, and
    /// its property tests pin it to this scan's order at every rank.
    #[must_use]
    pub fn select_alive(&self, rank: u64) -> Option<NodeId> {
        if rank >= self.alive_count() {
            return None;
        }
        let mut remaining = rank;
        for (index, word) in self.alive_words() {
            let count = u64::from(word.count_ones());
            if remaining < count {
                let bit = select_in_word(word, remaining as u32);
                let value = index as u64 * WORD_BITS + u64::from(bit);
                return Some(
                    NodeId::from_raw(value, self.space.bits()).expect("bit fits the key space"),
                );
            }
            remaining -= count;
        }
        None
    }

    /// Marks a single node as failed (idempotent; a no-op for unoccupied
    /// identifiers, which already read as failed). Useful for
    /// targeted-failure experiments.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the mask's key space.
    pub fn fail_node(&mut self, node: NodeId) {
        let _ = self.kill(node);
    }

    /// Marks a single node as failed, reporting whether the bit actually
    /// flipped (`false` for nodes already failed or unoccupied, which stay
    /// counted no-ops).
    ///
    /// This is [`FailureMask::fail_node`] with the flip made observable — the
    /// live-churn event engine uses the return value to keep its own
    /// bookkeeping (dirty-table queues, session tallies) in lockstep with the
    /// mask without a separate pre-read.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the mask's key space.
    pub fn kill(&mut self, node: NodeId) -> bool {
        assert_eq!(
            node.bits(),
            self.space.bits(),
            "node belongs to a different key space"
        );
        let value = node.value();
        let slot = &mut self.alive[(value / WORD_BITS) as usize];
        let bit = 1u64 << (value % WORD_BITS);
        if *slot & bit != 0 {
            *slot &= !bit;
            self.failed_count += 1;
            true
        } else {
            false
        }
    }

    /// Marks a single node as alive again, reporting whether the bit actually
    /// flipped (`false` for nodes already alive).
    ///
    /// The inverse of [`FailureMask::kill`], letting churn engines toggle
    /// liveness in place instead of reallocating masks per event. **Caller
    /// contract:** only *occupied* identifiers may be revived — the mask
    /// cannot distinguish "failed occupied node" from "unoccupied identifier"
    /// (both read as zero), so reviving an unoccupied identifier would corrupt
    /// the occupied-relative counts. Every caller in this workspace drives
    /// the mask from a fixed [`Population`] universe, which guarantees the
    /// contract structurally.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the mask's key space.
    pub fn set_alive(&mut self, node: NodeId) -> bool {
        assert_eq!(
            node.bits(),
            self.space.bits(),
            "node belongs to a different key space"
        );
        let value = node.value();
        let slot = &mut self.alive[(value / WORD_BITS) as usize];
        let bit = 1u64 << (value % WORD_BITS);
        if *slot & bit == 0 {
            *slot |= bit;
            self.failed_count -= 1;
            true
        } else {
            false
        }
    }
}

/// The integer form of `gen_bool(q)`'s test: a draw `x` of `next_u64`
/// passes `gen_bool(q)` exactly when `x >> 11 < fail_threshold(q)`.
///
/// `gen_bool(q)` draws one `x` and tests `(x >> 11) as f64 * 2^-53 < q`
/// (the vendored `rand`'s `f64` sampling). Both products, `m · 2^-53` with
/// `m = x >> 11` and `q · 2^53`, are exact: `m < 2^53` converts to `f64`
/// exactly, and scaling by a power of two loses no bits here (a subnormal
/// `q` scaled up by `2^53` stays representable). So the float test is the
/// real comparison `m < q · 2^53`, which for an integer `m` is
/// `m < ceil(q · 2^53)`. `q = 1` gives `2^53`, above every `m`, so every
/// draw fails; `q = 0` gives 0, so none does.
///
/// # Panics
///
/// Panics if `q` is not in `[0, 1]`.
fn fail_threshold(q: f64) -> u64 {
    assert!(
        (0.0..=1.0).contains(&q),
        "failure probability must be in [0,1]"
    );
    (q * (1u64 << 53) as f64).ceil() as u64
}

/// Fails occupied identifiers of `words` with one `next_u64` each, in
/// ascending identifier order, and returns how many failed.
///
/// `words` hold occupancy bits on entry (as [`FailureMask::none_over`]
/// writes them) and alive bits on return. An identifier fails when its draw
/// `x` has `x >> 11 < threshold`, which is `gen_bool`'s test (see
/// [`fail_threshold`]). Nothing is shortcut at `q = 0` or `q = 1`: every
/// occupied identifier consumes its draw, as `gen_bool` does. The dead bits
/// build in a register and each word is stored once.
///
/// A fully occupied word takes its 64 draws with one `fill_bytes` of 512
/// bytes, read back as little-endian `u64`s: the same draws, in the same
/// order, as 64 `next_u64` calls (see [`FailureMask::sample_over`] for the
/// contract this relies on). Where the target has AVX2, the vendored ChaCha
/// computes such a fill as one group of eight blocks when its one-block
/// buffer is used up, as after another full word; after partly occupied
/// words or a seek, the buffered words go first and the rest is computed one
/// block at a time. Partly occupied words draw bit by bit.
fn fail_words<R: RngCore + ?Sized>(words: &mut [u64], threshold: u64, rng: &mut R) -> u64 {
    let mut failed = 0u64;
    let mut draws = [0u8; 8 * WORD_BITS as usize];
    for word in words {
        let occupied = *word;
        let mut dead = 0u64;
        if occupied == u64::MAX {
            rng.fill_bytes(&mut draws);
            for (bit, draw) in draws.chunks_exact(8).enumerate() {
                let draw = u64::from_le_bytes(draw.try_into().expect("8-byte chunk"));
                dead |= u64::from(draw >> 11 < threshold) << bit;
            }
        } else {
            let mut rest = occupied;
            while rest != 0 {
                dead |= u64::from(rng.next_u64() >> 11 < threshold) << rest.trailing_zeros();
                rest &= rest - 1;
            }
        }
        *word = occupied & !dead;
        failed += u64::from(dead.count_ones());
    }
    failed
}

/// The index of the `rank`-th set bit of `word` (rank 0 is the least
/// significant set bit), via a popcount binary search — six branches, no
/// loops over individual bits.
///
/// # Panics
///
/// Debug-asserts that `rank < word.count_ones()`; in release builds an
/// out-of-range rank returns a meaningless index.
#[must_use]
pub fn select_in_word(word: u64, rank: u32) -> u32 {
    debug_assert!(
        rank < word.count_ones(),
        "select rank {rank} out of range for a word with {} set bits",
        word.count_ones()
    );
    let mut remaining = rank;
    let mut shifted = word;
    let mut index = 0u32;
    for span in [32u32, 16, 8, 4, 2, 1] {
        let low = (shifted & ((1u64 << span) - 1)).count_ones();
        if remaining >= low {
            remaining -= low;
            index += span;
            shifted >>= span;
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn space(bits: u32) -> KeySpace {
        KeySpace::new(bits).unwrap()
    }

    #[test]
    fn empty_mask_has_everyone_alive() {
        let mask = FailureMask::none(space(8));
        assert_eq!(mask.failed_count(), 0);
        assert_eq!(mask.alive_count(), 256);
        assert_eq!(mask.population_size(), 256);
        assert_eq!(mask.alive_nodes().count(), 256);
        assert!(mask.is_alive(space(8).wrap(17)));
    }

    #[test]
    fn sub_word_spaces_trim_the_tail_word() {
        // A 3-bit space occupies 8 bits of a single word; the trailing 56
        // bits must stay zero so equality and word scans are canonical.
        let mask = FailureMask::none(space(3));
        assert_eq!(mask.words(), &[0xFF]);
        assert_eq!(mask.alive_count(), 8);
    }

    #[test]
    fn sampling_matches_probability_roughly() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mask = FailureMask::sample(space(14), 0.3, &mut rng);
        let fraction = mask.failed_count() as f64 / 16384.0;
        assert!((fraction - 0.3).abs() < 0.02, "fraction = {fraction}");
        assert_eq!(mask.alive_count() + mask.failed_count(), 16384);
    }

    #[test]
    fn sampling_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(
            FailureMask::sample(space(8), 0.0, &mut rng).failed_count(),
            0
        );
        assert_eq!(
            FailureMask::sample(space(8), 1.0, &mut rng).failed_count(),
            256
        );
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let a = FailureMask::sample(space(10), 0.4, &mut ChaCha8Rng::seed_from_u64(9));
        let b = FailureMask::sample(space(10), 0.4, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_failures_and_fail_node() {
        let s = space(6);
        let mut mask = FailureMask::from_failed_nodes(s, [s.wrap(1), s.wrap(5), s.wrap(1)]);
        assert_eq!(mask.failed_count(), 2);
        assert!(mask.is_failed(s.wrap(1)));
        assert!(mask.is_alive(s.wrap(2)));
        mask.fail_node(s.wrap(2));
        mask.fail_node(s.wrap(2));
        assert_eq!(mask.failed_count(), 3);
    }

    #[test]
    fn kill_and_set_alive_round_trip() {
        let s = space(6);
        let mut mask = FailureMask::none(s);
        assert!(mask.kill(s.wrap(9)), "first kill flips the bit");
        assert!(!mask.kill(s.wrap(9)), "second kill is a no-op");
        assert_eq!(mask.failed_count(), 1);
        assert!(mask.set_alive(s.wrap(9)), "revive flips it back");
        assert!(!mask.set_alive(s.wrap(9)), "already alive is a no-op");
        assert_eq!(mask.failed_count(), 0);
        assert_eq!(mask, FailureMask::none(s), "round trip is canonical");
    }

    #[test]
    fn alive_nodes_are_exactly_the_complement() {
        let s = space(5);
        let mask = FailureMask::from_failed_nodes(s, (0..16).map(|v| s.wrap(v)));
        let alive: Vec<u64> = mask.alive_nodes().map(|n| n.value()).collect();
        assert_eq!(alive, (16..32).collect::<Vec<u64>>());
    }

    #[test]
    fn sparse_population_masks_treat_unoccupied_as_failed() {
        let s = space(6);
        let population = Population::sparse(s, [s.wrap(3), s.wrap(40), s.wrap(41)]).unwrap();
        let mask = FailureMask::none_over(&population);
        assert_eq!(mask.population_size(), 3);
        assert_eq!(mask.failed_count(), 0);
        assert_eq!(mask.alive_count(), 3);
        assert!(mask.is_alive(s.wrap(3)));
        assert!(mask.is_failed(s.wrap(4)), "unoccupied ids read as failed");
        let alive: Vec<u64> = mask.alive_nodes().map(|n| n.value()).collect();
        assert_eq!(alive, vec![3, 40, 41]);
    }

    #[test]
    fn sampling_over_a_sparse_population_only_fails_occupied_nodes() {
        let s = space(10);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let population = Population::sample_uniform(s, 300, &mut rng).unwrap();
        let mask = FailureMask::sample_over(&population, 0.5, &mut rng);
        assert_eq!(mask.population_size(), 300);
        assert_eq!(mask.alive_count() + mask.failed_count(), 300);
        assert!(mask.failed_count() > 100 && mask.failed_count() < 200);
        for node in mask.alive_nodes() {
            assert!(population.contains(node));
        }
    }

    #[test]
    fn sample_over_full_population_matches_sample() {
        let s = space(9);
        let direct = FailureMask::sample(s, 0.3, &mut ChaCha8Rng::seed_from_u64(4));
        let via_population =
            FailureMask::sample_over(&Population::full(s), 0.3, &mut ChaCha8Rng::seed_from_u64(4));
        assert_eq!(direct, via_population);
    }

    #[test]
    fn fail_threshold_is_gen_bools_test() {
        let scale = 1.0 / (1u64 << 53) as f64;
        let qs = [
            0.0,
            5e-324,
            scale,
            1e-9,
            0.1,
            0.25,
            0.3,
            1.0 / 3.0,
            0.5,
            0.7,
            1.0 - scale,
            1.0,
        ];
        for q in qs {
            let threshold = fail_threshold(q);
            for m in threshold.saturating_sub(2)..=threshold + 1 {
                if m < 1 << 53 {
                    // The float test `gen_bool` runs on the draw's top 53 bits.
                    assert_eq!((m as f64) * scale < q, m < threshold, "q = {q}, m = {m}");
                }
            }
        }
        assert_eq!(fail_threshold(0.0), 0);
        assert_eq!(fail_threshold(1.0), 1 << 53);
    }

    #[test]
    fn seeded_sampling_matches_the_stream_at_every_thread_count() {
        // 2^17 identifiers are 2048 words: 2, 3 and 4 chunks all occur.
        let full = Population::full(space(17));
        let sparse =
            Population::sample_uniform(space(17), 90_000, &mut ChaCha8Rng::seed_from_u64(8))
                .unwrap();
        let tiny = Population::full(space(3));
        for population in [&full, &sparse, &tiny] {
            for q in [0.0, 0.3, 1.0] {
                let streamed =
                    FailureMask::sample_over(population, q, &mut ChaCha8Rng::seed_from_u64(31));
                for threads in [1, 2, 3, 8, usize::MAX] {
                    assert_eq!(
                        FailureMask::sample_seeded(population, q, 31, threads),
                        streamed,
                        "{population}, q = {q}, threads = {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_is_one_gen_bool_per_occupied_identifier() {
        // 0..2048 fills 32 words, which take the bulk draw; every third value
        // above leaves the other 32 words with 21 or 22 occupied bits.
        let s = space(12);
        let full = Population::full(s);
        let sparse = Population::sparse(
            s,
            (0..2048).chain((2048..4096).step_by(3)).map(|v| s.wrap(v)),
        )
        .unwrap();
        for population in [&full, &sparse] {
            for q in [0.0, 0.3, 1.0] {
                // Skipped words start the bulk draws inside a block.
                for skipped in [0, 1, 3, 17] {
                    let mut rng = ChaCha8Rng::seed_from_u64(2006);
                    for _ in 0..skipped {
                        rng.next_u32();
                    }
                    let mut oracle = rng.clone();
                    let mask = FailureMask::sample_over(population, q, &mut rng);
                    let mut expected = FailureMask::none_over(population);
                    for node in population.iter_nodes() {
                        if oracle.gen_bool(q) {
                            expected.fail_node(node);
                        }
                    }
                    let case = format!("{population}, q = {q}, {skipped} words skipped");
                    assert_eq!(mask, expected, "{case}");
                    assert_eq!(rng.next_u64(), oracle.next_u64(), "{case}");
                }
            }
        }
    }

    /// FNV-1a 64 of the little-endian words of
    /// `sample_seeded(full 2^20, 0.25, 2006, t)`, and its failed count, as
    /// the per-draw kernel sampled them before full words drew in bulk.
    const MASK_DIGEST: u64 = 0x14d0_5b06_8957_4280;
    const MASK_FAILED: u64 = 261_850;

    #[test]
    fn seeded_full_masks_keep_their_digests() {
        fn fnv1a64(words: &[u64]) -> u64 {
            words
                .iter()
                .flat_map(|word| word.to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                    (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
                })
        }
        let population = Population::full(space(20));
        for threads in [1, 2, 3] {
            let mask = FailureMask::sample_seeded(&population, 0.25, 2006, threads);
            assert_eq!(
                (fnv1a64(mask.words()), mask.failed_count()),
                (MASK_DIGEST, MASK_FAILED),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn failing_an_unoccupied_identifier_is_a_counted_noop() {
        let s = space(5);
        let population = Population::sparse(s, [s.wrap(1), s.wrap(2)]).unwrap();
        let mut mask = FailureMask::none_over(&population);
        mask.fail_node(s.wrap(9));
        assert_eq!(mask.failed_count(), 0, "unoccupied ids never count");
        mask.fail_node(s.wrap(1));
        assert_eq!(mask.failed_count(), 1);
    }

    #[test]
    fn rank_and_select_are_inverse() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mask = FailureMask::sample(space(10), 0.35, &mut rng);
        for (rank, node) in mask.alive_nodes().enumerate() {
            assert_eq!(mask.alive_rank(node), Some(rank as u64));
            assert_eq!(mask.select_alive(rank as u64), Some(node));
        }
        assert_eq!(mask.select_alive(mask.alive_count()), None);
        let failed = space(10)
            .iter_ids()
            .find(|&n| mask.is_failed(n))
            .expect("some node failed");
        assert_eq!(mask.alive_rank(failed), None);
    }

    #[test]
    fn select_in_word_matches_a_bit_scan() {
        for word in [1u64, 0b1010_1100, u64::MAX, 0x8000_0000_0000_0001, 0xF0F0] {
            let bits: Vec<u32> = (0..64).filter(|&b| word & (1u64 << b) != 0).collect();
            for (rank, &bit) in bits.iter().enumerate() {
                assert_eq!(select_in_word(word, rank as u32), bit, "word {word:#x}");
            }
        }
    }

    #[test]
    fn alive_words_skip_dead_regions() {
        let s = space(8);
        let mask = FailureMask::from_failed_nodes(s, (0..128).map(|v| s.wrap(v)));
        let words: Vec<(usize, u64)> = mask.alive_words().collect();
        assert_eq!(words, vec![(2, u64::MAX), (3, u64::MAX)]);
    }

    #[test]
    fn mask_json_is_pinned() {
        let s = space(4);
        let mask = FailureMask::from_failed_nodes(s, [s.wrap(3)]);
        assert_eq!(
            serde_json::to_string(&mask).unwrap(),
            r#"{"space":{"bits":4},"alive":[65527],"failed_count":1,"population_size":16}"#
        );
    }

    #[test]
    fn mask_round_trips_through_serde() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mask = FailureMask::sample(space(7), 0.4, &mut rng);
        let json = serde_json::to_string(&mask).unwrap();
        let back: FailureMask = serde_json::from_str(&json).unwrap();
        assert_eq!(mask, back);
    }

    #[test]
    #[should_panic(expected = "different key space")]
    fn mismatched_space_panics() {
        let mask = FailureMask::none(space(5));
        let other = KeySpace::new(6).unwrap();
        let _ = mask.is_failed(other.wrap(3));
    }
}
