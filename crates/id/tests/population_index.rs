//! Property suite: a sparse [`Population`]'s prefix-count index answers every
//! query exactly as binary searches over its sorted node list do.
//!
//! The reference keeps only the sorted occupied values and answers each query
//! with `partition_point`, as the population did before it counted prefixes.
//! Populations are drawn at 1–16 bits in three shapes: a random density, two
//! nodes, and every identifier but one. Every value of the space is checked
//! for rank, index and membership; successors are also checked at values
//! beyond the space, which wrap; and range draws are checked over random
//! ranges — reversed, empty, reaching the top of the space or past it — with
//! both sides consuming the same RNG words.

use dht_id::{KeySpace, NodeId, Population};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The sorted occupied values of a population, queried by binary search.
struct Reference {
    space: KeySpace,
    values: Vec<u64>,
}

impl Reference {
    fn rank_of_value(&self, value: u64) -> Option<u64> {
        self.values
            .binary_search(&value)
            .ok()
            .map(|rank| rank as u64)
    }

    fn successor(&self, value: u64) -> NodeId {
        let wrapped = value & self.space.max_value();
        let index = self.values.partition_point(|&v| v < wrapped);
        self.space
            .wrap(*self.values.get(index).unwrap_or(&self.values[0]))
    }

    fn random_in_range<R: Rng>(&self, lo: u64, hi: u64, rng: &mut R) -> Option<NodeId> {
        if lo > hi || lo > self.space.max_value() {
            return None;
        }
        let hi = hi.min(self.space.max_value());
        let start = self.values.partition_point(|&v| v < lo);
        let end = self.values.partition_point(|&v| v <= hi);
        if start == end {
            None
        } else {
            Some(
                self.space
                    .wrap(self.values[start + rng.gen_range(0..end - start)]),
            )
        }
    }
}

/// A sparse population of `bits` bits in one of three shapes, drawn from
/// `seed`, with its reference: a random density (shape 0), two nodes
/// (shape 1, at least two bits), or every identifier but one (shape 2).
fn population(bits: u32, shape: u8, seed: u64) -> (Population, Reference) {
    // Two nodes fill a one-bit space, so that shape starts at two bits.
    let bits = if shape == 1 { bits.max(2) } else { bits };
    let space = KeySpace::new(bits).unwrap();
    let size = space.population();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let values: Vec<u64> = match shape {
        0 => {
            let density = rng.gen_range(0.01..0.99);
            let mut values: Vec<u64> = (0..size).filter(|_| rng.gen_bool(density)).collect();
            if values.is_empty() {
                values.push(rng.gen_range(0..size));
            }
            if values.len() as u64 == size {
                values.remove(rng.gen_range(0..values.len()));
            }
            values
        }
        1 => {
            let first = rng.gen_range(0..size);
            let second = (first + rng.gen_range(1..size)) % size;
            let mut values = vec![first, second];
            values.sort_unstable();
            values
        }
        _ => {
            let excluded = rng.gen_range(0..size);
            (0..size).filter(|&value| value != excluded).collect()
        }
    };
    let population = Population::sparse(space, values.iter().map(|&v| space.wrap(v))).unwrap();
    assert!(!population.is_full(), "every shape leaves a gap");
    (population, Reference { space, values })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ranks_and_membership_match_binary_search(
        bits in 1u32..17,
        shape in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let (population, reference) = population(bits, shape, seed);
        let space = reference.space;
        prop_assert_eq!(population.node_count(), reference.values.len() as u64);
        for value in 0..space.population() {
            let rank = reference.rank_of_value(value);
            prop_assert_eq!(population.rank_of_value(value), rank, "value {}", value);
            prop_assert_eq!(population.index_of(space.wrap(value)), rank, "value {}", value);
            prop_assert_eq!(population.contains(space.wrap(value)), rank.is_some());
        }
        // Values outside the space have no rank.
        for value in [space.population(), space.population() + 1, u64::MAX] {
            prop_assert_eq!(population.rank_of_value(value), None);
        }
        // An identifier of another width is never a member.
        let wider = KeySpace::new(space.bits() + 1).unwrap();
        prop_assert_eq!(population.index_of(wider.wrap(reference.values[0])), None);
    }

    #[test]
    fn successors_match_binary_search_and_wrap(
        bits in 1u32..17,
        shape in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let (population, reference) = population(bits, shape, seed);
        let size = reference.space.population();
        for value in 0..size {
            prop_assert_eq!(population.successor(value), reference.successor(value));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let beyond = (0..64).map(|_| rng.gen_range(size..u64::MAX));
        for value in beyond.chain([size, size + 1, u64::MAX]) {
            prop_assert_eq!(
                population.successor(value),
                reference.successor(value),
                "value {}",
                value
            );
        }
    }

    #[test]
    fn range_draws_match_binary_search_word_for_word(
        bits in 1u32..17,
        shape in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let (population, reference) = population(bits, shape, seed);
        let max = reference.space.max_value();
        let mut ranges = ChaCha8Rng::seed_from_u64(seed.rotate_left(17));
        let mut draws = ChaCha8Rng::seed_from_u64(seed.rotate_left(31));
        for case in 0..256u32 {
            // Bounds up to two past the top of the space, so reversed,
            // single-value, clamped and (for gaps) empty ranges all occur.
            let lo = ranges.gen_range(0..max + 3);
            let hi = match case % 4 {
                0 => max,
                1 => lo,
                _ => ranges.gen_range(0..max + 3),
            };
            let mut theirs = draws.clone();
            let drawn = population.random_in_range(lo, hi, &mut draws);
            let expected = reference.random_in_range(lo, hi, &mut theirs);
            prop_assert_eq!(drawn, expected, "range [{}, {}]", lo, hi);
            prop_assert_eq!(
                draws.clone().next_u64(),
                theirs.clone().next_u64(),
                "range [{}, {}] consumed different words",
                lo,
                hi
            );
        }
    }
}
