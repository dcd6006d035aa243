//! Property tests: the pair sampler's hinted select and its batched draws.
//!
//! `PairSampler` resolves a survivor rank through one select hint per 1024
//! survivors and one `u32` count per 512-identifier block. These properties
//! pin it to the mask's own rank order (`FailureMask::alive_nodes`, the
//! order `FailureMask::select_alive` scans) at every rank, over masks shaped
//! to stress the index:
//!
//! - random failure rates over full and sparse populations, 2 to 2^16
//!   identifiers;
//! - empty leading and trailing blocks;
//! - one dead run wider than a hint stride (at least 2^13 consecutive failed
//!   identifiers in a 2^16 space), so that one stride spans many blocks;
//! - exactly two survivors;
//! - no failures at all.
//!
//! Each mask also pins `sample_values_into` to per-pair `gen_range` draws,
//! pair for pair, with the generator left at the same position.
//!
//! The number of cases per property honours the `PROPTEST_CASES`
//! environment variable (CI raises it; the local default keeps this fast).

use dht_id::{KeySpace, Population};
use dht_overlay::FailureMask;
use dht_sim::PairSampler;
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Checks the sampler over `mask`: `select_value` at every rank against the
/// ascending alive nodes, `select` against `FailureMask::select_alive` at the
/// first, middle and last rank, and `pairs` batched draws against per-pair
/// `gen_range` draws from the same seed.
fn check_sampler(mask: &FailureMask, pairs: u64, seed: u64) -> Result<(), TestCaseError> {
    let alive: Vec<u64> = mask.alive_nodes().map(|node| node.value()).collect();
    let Some(sampler) = PairSampler::new(mask) else {
        prop_assert!(alive.len() < 2, "{} survivors but no sampler", alive.len());
        return Ok(());
    };
    prop_assert_eq!(sampler.survivor_count(), alive.len());
    for (rank, &value) in alive.iter().enumerate() {
        prop_assert_eq!(sampler.select_value(rank as u64), value, "rank {}", rank);
    }
    let last = alive.len() as u64 - 1;
    for rank in [0, last / 2, last] {
        prop_assert_eq!(Some(sampler.select(rank)), mask.select_alive(rank));
    }

    let survivors = alive.len() as u64;
    let mut reference = ChaCha8Rng::seed_from_u64(seed);
    let expected: Vec<(u64, u64)> = (0..pairs)
        .map(|_| {
            let source = reference.gen_range(0..survivors);
            let mut target = reference.gen_range(0..survivors - 1);
            if target >= source {
                target += 1;
            }
            (alive[source as usize], alive[target as usize])
        })
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut batch = Vec::new();
    sampler.sample_values_into(pairs, &mut rng, &mut batch);
    prop_assert_eq!(batch, expected);
    prop_assert_eq!(
        rng.next_u64(),
        reference.next_u64(),
        "same randomness consumed"
    );
    Ok(())
}

/// A mask over `space` whose failed identifiers are `dead` plus, outside it,
/// each identifier with probability `q`.
fn mask_with_dead(
    space: KeySpace,
    dead: impl Fn(u64) -> bool,
    q: f64,
    rng: &mut ChaCha8Rng,
) -> FailureMask {
    let failed: Vec<u64> = (0..space.population())
        .filter(|&value| dead(value) || rng.gen_bool(q))
        .collect();
    FailureMask::from_failed_nodes(space, failed.into_iter().map(|value| space.wrap(value)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_masks_over_full_and_sparse_populations(
        bits in 1u32..=16,
        q in 0.0f64..1.0,
        occupancy in 0.0f64..=1.0,
        sparse in 0u32..2,
        pairs in 0u64..600,
        seed in 0u64..1 << 20,
    ) {
        let space = KeySpace::new(bits).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mask = if sparse == 1 {
            let occupied = ((occupancy * space.population() as f64) as u64).max(1);
            let population = Population::sample_uniform(space, occupied, &mut rng).unwrap();
            FailureMask::sample_over(&population, q, &mut rng)
        } else {
            FailureMask::sample(space, q, &mut rng)
        };
        check_sampler(&mask, pairs, seed)?;
    }

    #[test]
    fn empty_leading_and_trailing_blocks(
        bits in 10u32..=16,
        leading in 0.0f64..0.45,
        trailing in 0.0f64..0.45,
        q in 0.0f64..0.9,
        pairs in 0u64..600,
        seed in 0u64..1 << 20,
    ) {
        let space = KeySpace::new(bits).unwrap();
        let size = space.population();
        let (lead, trail) = ((leading * size as f64) as u64, (trailing * size as f64) as u64);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mask = mask_with_dead(space, |v| v < lead || v >= size - trail, q, &mut rng);
        check_sampler(&mask, pairs, seed)?;
    }

    #[test]
    fn a_dead_run_wider_than_a_hint_stride(
        length in 1u64 << 13..=1 << 15,
        start in 0.0f64..1.0,
        q in 0.0f64..0.5,
        pairs in 0u64..600,
        seed in 0u64..1 << 20,
    ) {
        let space = KeySpace::new(16).unwrap();
        let first = (start * (space.population() - length) as f64) as u64;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mask = mask_with_dead(space, |v| (first..first + length).contains(&v), q, &mut rng);
        check_sampler(&mask, pairs, seed)?;
    }

    #[test]
    fn exactly_two_survivors(
        bits in 1u32..=16,
        first in 0.0f64..1.0,
        second in 0.0f64..1.0,
        pairs in 0u64..600,
        seed in 0u64..1 << 20,
    ) {
        let space = KeySpace::new(bits).unwrap();
        let size = space.population();
        let a = (first * size as f64) as u64;
        let b = (a + 1 + (second * (size - 1) as f64) as u64) % size;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mask = mask_with_dead(space, |v| v != a && v != b, 0.0, &mut rng);
        prop_assert_eq!(mask.alive_count(), 2);
        check_sampler(&mask, pairs, seed)?;
    }

    #[test]
    fn every_node_alive(bits in 1u32..=16, pairs in 0u64..600, seed in 0u64..1 << 20) {
        check_sampler(&FailureMask::none(KeySpace::new(bits).unwrap()), pairs, seed)?;
    }
}
