//! Occupancy of an identifier space: fully or sparsely populated.
//!
//! The RCM paper measures routing over *fully populated* identifier spaces
//! (`N = 2^d`, §4.1); real Chord/Kademlia deployments occupy only a sparse
//! subset of their `2^d` identifiers. A [`Population`] captures either case
//! behind one interface so overlay construction, failure sampling and pair
//! sampling can be written once:
//!
//! * [`Population::full`] — every identifier of the space is a node; all
//!   queries are O(1) arithmetic and nothing is materialised.
//! * [`Population::sparse`] — an explicit occupied set, kept sorted, plus a
//!   prefix-count table (how many nodes lie below each identifier), so
//!   membership, rank, successor and range queries are all O(1) reads.
//!
//! Ranks are the bridge between the two: occupied nodes are numbered
//! `0..node_count()` in ascending identifier order, and for a full population
//! the rank of a node *is* its identifier value. Overlay routing tables can
//! therefore be stored in one flat arena indexed by rank regardless of
//! occupancy.
//!
//! # Example
//!
//! ```rust
//! use dht_id::{KeySpace, Population};
//!
//! let space = KeySpace::new(8)?;
//! let full = Population::full(space);
//! assert_eq!(full.node_count(), 256);
//!
//! let sparse = Population::sparse(space, [space.wrap(3), space.wrap(200)])?;
//! assert_eq!(sparse.node_count(), 2);
//! assert!(sparse.contains(space.wrap(200)));
//! assert!(!sparse.contains(space.wrap(4)));
//! // The successor walks clockwise to the next occupied identifier.
//! assert_eq!(sparse.successor(4).value(), 200);
//! assert_eq!(sparse.successor(201).value(), 3); // wraps around the ring
//! # Ok::<(), dht_id::IdError>(())
//! ```

use crate::keyspace::KeySpace;
use crate::node_id::{IdError, NodeId};
use rand::Rng;

/// The largest identifier length a sparse population will index.
///
/// Sparse populations keep a prefix-count table with one entry per
/// identifier of the space, so the ceiling matches [`KeySpace::iter_ids`]'s
/// enumeration limit.
pub const MAX_SPARSE_BITS: u32 = 32;

/// Which identifiers of a [`KeySpace`] are occupied by nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Population {
    space: KeySpace,
    /// `None` means fully populated.
    sparse: Option<SparseIndex>,
}

/// Sorted occupied set plus its prefix counts.
///
/// `lower[v]` is the number of occupied identifiers below `v`, for every `v`
/// in `0..=2^d`, so `lower[2^d]` is the node count. That is the rank of the
/// first node at or after `v`: `v` is occupied exactly when
/// `lower[v + 1] > lower[v]`, and the nodes of a value range `[lo, hi]` are
/// `nodes[lower[lo]..lower[hi + 1]]`. A sparse population holds fewer than
/// `2^d ≤ 2^32` nodes (a full one collapses to [`Population::full`]), so
/// every count fits a `u32`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SparseIndex {
    /// Occupied identifiers in ascending order.
    nodes: Vec<NodeId>,
    /// `2^d + 1` prefix counts, non-decreasing from 0 to `nodes.len()`.
    lower: Vec<u32>,
}

impl SparseIndex {
    /// The rank of the first node at or after `value` (`nodes.len()` past
    /// the last node); `value` must be at most `2^d`.
    #[inline]
    fn lower(&self, value: u64) -> usize {
        self.lower[value as usize] as usize
    }
}

impl Population {
    /// The fully populated space: every identifier is a node.
    #[must_use]
    pub fn full(space: KeySpace) -> Self {
        Population {
            space,
            sparse: None,
        }
    }

    /// A sparse population over `space` occupying exactly `nodes`
    /// (duplicates collapse, order is irrelevant).
    ///
    /// # Errors
    ///
    /// * [`IdError::InvalidWidth`] if `space` is wider than
    ///   [`MAX_SPARSE_BITS`] (the prefix-count table would not fit).
    /// * [`IdError::ValueOutOfRange`] if a node belongs to a different space.
    /// * [`IdError::EmptyPopulation`] if no node remains after deduplication.
    pub fn sparse<I>(space: KeySpace, nodes: I) -> Result<Self, IdError>
    where
        I: IntoIterator<Item = NodeId>,
    {
        if space.bits() > MAX_SPARSE_BITS {
            return Err(IdError::InvalidWidth { bits: space.bits() });
        }
        let mut occupied: Vec<NodeId> = Vec::new();
        for node in nodes {
            if node.bits() != space.bits() {
                return Err(IdError::ValueOutOfRange {
                    value: node.value(),
                    bits: space.bits(),
                });
            }
            occupied.push(node);
        }
        occupied.sort_unstable();
        occupied.dedup();
        if occupied.is_empty() {
            return Err(IdError::EmptyPopulation);
        }
        if occupied.len() as u64 == space.population() {
            // Every identifier occupied: collapse to the full representation.
            return Ok(Population::full(space));
        }
        // Each node's rank fills the counts from just past the previous node
        // up to its own value; the node count fills the rest.
        let mut lower = Vec::with_capacity(space.population() as usize + 1);
        for (rank, node) in occupied.iter().enumerate() {
            lower.resize(node.value() as usize + 1, rank as u32);
        }
        lower.resize(space.population() as usize + 1, occupied.len() as u32);
        Ok(Population {
            space,
            sparse: Some(SparseIndex {
                nodes: occupied,
                lower,
            }),
        })
    }

    /// Samples a population of exactly `count` distinct identifiers uniformly
    /// at random.
    ///
    /// A `count` equal to the space's population yields the full population.
    ///
    /// # Errors
    ///
    /// * [`IdError::EmptyPopulation`] if `count` is zero.
    /// * [`IdError::ValueOutOfRange`] if `count` exceeds the population.
    /// * [`IdError::InvalidWidth`] if `space` is wider than
    ///   [`MAX_SPARSE_BITS`].
    pub fn sample_uniform<R: Rng + ?Sized>(
        space: KeySpace,
        count: u64,
        rng: &mut R,
    ) -> Result<Self, IdError> {
        if count == 0 {
            return Err(IdError::EmptyPopulation);
        }
        if count > space.population() {
            return Err(IdError::ValueOutOfRange {
                value: count,
                bits: space.bits(),
            });
        }
        if count == space.population() {
            return Ok(Population::full(space));
        }
        if space.bits() > MAX_SPARSE_BITS {
            return Err(IdError::InvalidWidth { bits: space.bits() });
        }
        // Rejection-sample whichever side is smaller, then (when the excluded
        // side was drawn) take the complement; the acceptance rate stays above
        // one half either way.
        let population = space.population();
        let draw_excluded = count > population / 2;
        let draws = if draw_excluded {
            population - count
        } else {
            count
        };
        let mut marked = vec![false; population as usize];
        let mut remaining = draws;
        while remaining > 0 {
            let value = rng.gen_range(0..population);
            let slot = &mut marked[value as usize];
            if !*slot {
                *slot = true;
                remaining -= 1;
            }
        }
        let occupied = marked
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m != draw_excluded)
            .map(|(value, _)| space.wrap(value as u64));
        Population::sparse(space, occupied)
    }

    /// The identifier space this population occupies.
    #[must_use]
    pub fn space(&self) -> KeySpace {
        self.space
    }

    /// `true` when every identifier of the space is occupied.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.sparse.is_none()
    }

    /// Number of occupied identifiers.
    #[must_use]
    pub fn node_count(&self) -> u64 {
        match &self.sparse {
            None => self.space.population(),
            Some(index) => index.nodes.len() as u64,
        }
    }

    /// Occupied fraction of the space, `node_count / 2^d`.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.node_count() as f64 / self.space.population() as f64
    }

    /// Returns `true` if `node` is occupied (a node of a different key space
    /// is never occupied).
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.index_of(node).is_some()
    }

    /// The rank of `node` among occupied identifiers in ascending order, or
    /// `None` when `node` is unoccupied or from another space.
    #[must_use]
    pub fn index_of(&self, node: NodeId) -> Option<u64> {
        if node.bits() != self.space.bits() {
            return None;
        }
        self.rank_of_value(node.value())
    }

    /// The rank of the occupied identifier with raw value `value`, or `None`
    /// when the value is unoccupied or lies outside the space.
    ///
    /// This is the [`NodeId`]-free twin of [`Population::index_of`]: batch
    /// drivers that move identifiers around as raw `u64`s (the compiled
    /// routing kernel of `dht-overlay`) map value → rank without
    /// materialising an identifier. For a full population the rank *is* the
    /// value; for a sparse one it is two adjacent prefix-count reads, O(1).
    #[inline]
    #[must_use]
    pub fn rank_of_value(&self, value: u64) -> Option<u64> {
        if value > self.space.max_value() {
            return None;
        }
        match &self.sparse {
            None => Some(value),
            Some(index) => {
                let rank = index.lower(value);
                (index.lower(value + 1) > rank).then_some(rank as u64)
            }
        }
    }

    /// The occupied identifier of rank `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= node_count()`.
    #[must_use]
    pub fn node_at(&self, index: u64) -> NodeId {
        match &self.sparse {
            None => {
                assert!(index < self.space.population(), "rank out of range");
                self.space.wrap(index)
            }
            Some(sparse) => sparse.nodes[index as usize],
        }
    }

    /// The first occupied identifier at or clockwise after `value` (which may
    /// exceed the space and is wrapped first).
    ///
    /// For a full population this is simply `value mod 2^d`; for a sparse one
    /// it is the Chord-style successor, one prefix-count read.
    #[must_use]
    pub fn successor(&self, value: u64) -> NodeId {
        let wrapped = value & self.space.max_value();
        match &self.sparse {
            None => self.space.wrap(wrapped),
            Some(sparse) => {
                let index = sparse.lower(wrapped);
                // Past the last node the ring wraps to the first.
                sparse.nodes.get(index).copied().unwrap_or(sparse.nodes[0])
            }
        }
    }

    /// Draws an occupied identifier uniformly at random.
    pub fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        match &self.sparse {
            None => self.space.random_id(rng),
            Some(sparse) => sparse.nodes[rng.gen_range(0..sparse.nodes.len())],
        }
    }

    /// Draws an occupied identifier uniformly from the inclusive value range
    /// `[lo, hi]`, or returns `None` when the range contains no node (and
    /// then draws nothing). A sparse population finds the range's nodes with
    /// two prefix-count reads.
    pub fn random_in_range<R: Rng + ?Sized>(
        &self,
        lo: u64,
        hi: u64,
        rng: &mut R,
    ) -> Option<NodeId> {
        if lo > hi || lo > self.space.max_value() {
            return None;
        }
        let hi = hi.min(self.space.max_value());
        match &self.sparse {
            // `hi - lo + 1` would overflow when the range spans the whole
            // 64-bit space, so draw the offset from `0..=span` instead.
            None => {
                let span = hi - lo;
                let offset = if span == u64::MAX {
                    rng.gen::<u64>()
                } else {
                    rng.gen_range(0..span + 1)
                };
                Some(self.space.wrap(lo + offset))
            }
            Some(sparse) => {
                let (start, end) = (sparse.lower(lo), sparse.lower(hi + 1));
                if start == end {
                    None
                } else {
                    Some(sparse.nodes[start + rng.gen_range(0..end - start)])
                }
            }
        }
    }

    /// Iterates over the occupied identifiers in ascending order.
    ///
    /// # Panics
    ///
    /// Panics for a full population wider than 32 bits (see
    /// [`KeySpace::iter_ids`]).
    pub fn iter_nodes(&self) -> PopulationIter<'_> {
        match &self.sparse {
            None => {
                assert!(
                    self.space.bits() <= MAX_SPARSE_BITS,
                    "refusing to enumerate a {}-bit identifier space",
                    self.space.bits()
                );
                PopulationIter::Full {
                    range: 0..self.space.population(),
                    bits: self.space.bits(),
                }
            }
            Some(sparse) => PopulationIter::Sparse(sparse.nodes.iter()),
        }
    }
}

impl std::fmt::Display for Population {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_full() {
            write!(f, "fully populated {}", self.space)
        } else {
            write!(
                f,
                "{} of {} identifiers occupied in a {}",
                self.node_count(),
                self.space.population(),
                self.space
            )
        }
    }
}

/// Iterator over the occupied identifiers of a [`Population`].
#[derive(Debug, Clone)]
pub enum PopulationIter<'a> {
    /// Full population: every identifier in ascending order.
    Full {
        /// Remaining identifier values.
        range: std::ops::Range<u64>,
        /// Identifier width of the space.
        bits: u32,
    },
    /// Sparse population: the sorted occupied set.
    Sparse(std::slice::Iter<'a, NodeId>),
}

impl Iterator for PopulationIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match self {
            PopulationIter::Full { range, bits } => range
                .next()
                .map(|value| NodeId::from_raw(value, *bits).expect("value fits the key space")),
            PopulationIter::Sparse(iter) => iter.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            PopulationIter::Full { range, .. } => range.size_hint(),
            PopulationIter::Sparse(iter) => iter.size_hint(),
        }
    }
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
    fn full_population_mirrors_the_key_space() {
        let population = Population::full(space(6));
        assert!(population.is_full());
        assert_eq!(population.node_count(), 64);
        assert_eq!(population.occupancy(), 1.0);
        assert!(population.contains(space(6).wrap(63)));
        assert_eq!(population.index_of(space(6).wrap(17)), Some(17));
        assert_eq!(population.node_at(17), space(6).wrap(17));
        assert_eq!(population.successor(70).value(), 6);
        assert_eq!(population.iter_nodes().count(), 64);
    }

    #[test]
    fn sparse_population_sorts_and_dedups() {
        let s = space(8);
        let population =
            Population::sparse(s, [s.wrap(9), s.wrap(3), s.wrap(9), s.wrap(200)]).unwrap();
        assert!(!population.is_full());
        assert_eq!(population.node_count(), 3);
        let ids: Vec<u64> = population.iter_nodes().map(|n| n.value()).collect();
        assert_eq!(ids, vec![3, 9, 200]);
        assert_eq!(population.index_of(s.wrap(9)), Some(1));
        assert_eq!(population.index_of(s.wrap(10)), None);
        assert_eq!(population.node_at(2), s.wrap(200));
    }

    #[test]
    fn successor_wraps_the_ring() {
        let s = space(8);
        let population = Population::sparse(s, [s.wrap(10), s.wrap(100)]).unwrap();
        assert_eq!(population.successor(0).value(), 10);
        assert_eq!(population.successor(10).value(), 10);
        assert_eq!(population.successor(11).value(), 100);
        assert_eq!(population.successor(101).value(), 10);
        // Values beyond the space are wrapped before the search.
        assert_eq!(population.successor(256 + 11).value(), 100);
    }

    #[test]
    fn random_in_range_respects_bounds_and_emptiness() {
        let s = space(8);
        let population = Population::sparse(s, [s.wrap(10), s.wrap(20), s.wrap(30)]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            let node = population.random_in_range(15, 25, &mut rng).unwrap();
            assert_eq!(node.value(), 20);
        }
        assert!(population.random_in_range(11, 19, &mut rng).is_none());
        assert!(population.random_in_range(40, 30, &mut rng).is_none());
        // Full populations draw uniformly from the raw range.
        let full = Population::full(s);
        for _ in 0..100 {
            let node = full.random_in_range(15, 25, &mut rng).unwrap();
            assert!((15..=25).contains(&node.value()));
        }
    }

    #[test]
    fn random_in_range_covers_the_widest_spaces_without_overflow() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let full64 = Population::full(space(64));
        for _ in 0..50 {
            assert!(full64.random_in_range(0, u64::MAX, &mut rng).is_some());
        }
        // A full-width single-value range stays exact.
        let node = full64.random_in_range(42, 42, &mut rng).unwrap();
        assert_eq!(node.value(), 42);
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let s = space(8);
        assert_eq!(
            Population::sparse(s, std::iter::empty()),
            Err(IdError::EmptyPopulation)
        );
        let other = space(9);
        assert_eq!(
            Population::sparse(s, [other.wrap(1)]),
            Err(IdError::ValueOutOfRange { value: 1, bits: 8 })
        );
        let wide = space(40);
        assert_eq!(
            Population::sparse(wide, [wide.wrap(1)]),
            Err(IdError::InvalidWidth { bits: 40 })
        );
    }

    #[test]
    fn fully_occupied_sparse_collapses_to_full() {
        let s = space(3);
        let population = Population::sparse(s, s.iter_ids()).unwrap();
        assert!(population.is_full());
    }

    #[test]
    fn sample_uniform_draws_exact_counts() {
        let s = space(10);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for count in [1u64, 100, 512, 900, 1024] {
            let population = Population::sample_uniform(s, count, &mut rng).unwrap();
            assert_eq!(population.node_count(), count, "count = {count}");
            assert_eq!(population.is_full(), count == 1024);
        }
        assert_eq!(
            Population::sample_uniform(s, 0, &mut rng),
            Err(IdError::EmptyPopulation)
        );
        assert!(Population::sample_uniform(s, 1025, &mut rng).is_err());
    }

    #[test]
    fn sample_uniform_is_deterministic_and_roughly_uniform() {
        let s = space(12);
        let a = Population::sample_uniform(s, 1000, &mut ChaCha8Rng::seed_from_u64(3)).unwrap();
        let b = Population::sample_uniform(s, 1000, &mut ChaCha8Rng::seed_from_u64(3)).unwrap();
        assert_eq!(a, b);
        // Both halves of the space should hold roughly half the nodes.
        let lower = a.iter_nodes().filter(|n| n.value() < 2048).count();
        assert!((400..=600).contains(&lower), "lower half holds {lower}");
    }

    #[test]
    fn random_node_only_returns_occupied_ids() {
        let s = space(8);
        let population = Population::sparse(s, (0..16).map(|v| s.wrap(v * 16))).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..200 {
            assert!(population.contains(population.random_node(&mut rng)));
        }
    }

    #[test]
    fn display_describes_both_shapes() {
        let s = space(6);
        assert!(Population::full(s).to_string().contains("fully populated"));
        let sparse = Population::sparse(s, [s.wrap(1)]).unwrap();
        assert!(sparse.to_string().contains("1 of 64"));
    }

    #[test]
    fn mismatched_width_is_never_contained() {
        let population = Population::full(space(6));
        assert!(!population.contains(space(7).wrap(3)));
        assert_eq!(population.index_of(space(7).wrap(3)), None);
    }
}
