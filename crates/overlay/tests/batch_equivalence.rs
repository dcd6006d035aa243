//! Batch equivalence properties: the lockstep batched router must be
//! **bit-identical per lookup** to the scalar routing path at every
//! frontier width.
//!
//! For every geometry, over random full *and* sparse populations, random
//! failure masks, random (not necessarily occupied or alive) endpoint pairs
//! and tight hop limits, the properties route the same pair slice through
//! [`RoutingKernel::route_batch`] in lockstep and through the scalar oracle
//! `route_with_limit` one lookup at a time, then compare the outcome
//! vectors element for element. Batch widths range from 1 (every lane
//! retires and refills every pass) past the frontier size (the whole slice
//! fits in one admission wave), so mid-batch retirement, `swap_remove`
//! compaction and refill are all exercised, as is a frontier narrower than
//! the batch width. Each width's batch is reused across every slice and
//! limit, so a drained batch must route the next call as a fresh one.
//!
//! This is the contract that lets `dht_sim`'s trial engine and the live
//! churn drain route whole shards through the batch path without perturbing
//! any committed measurement.
//!
//! [`RoutingKernel::route_batch`]: dht_overlay::RoutingKernel::route_batch

use dht_id::{KeySpace, Population};
use dht_overlay::{
    default_route_hop_limit, route_with_limit, CanOverlay, ChordOverlay, ChordVariant, FailureMask,
    KademliaOverlay, Overlay, PlaxtonOverlay, RouteBatch, RouteOutcome, SymphonyOverlay,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Draws the population for a case: full, or a uniform sample of the given
/// occupancy (at least four nodes so every geometry can be built).
fn population(space: KeySpace, occupancy: f64, seed: u64) -> Population {
    if occupancy >= 1.0 {
        return Population::full(space);
    }
    let count = ((space.population() as f64 * occupancy) as u64).max(4);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0070_6F70);
    Population::sample_uniform(space, count, &mut rng).expect("valid sparse size")
}

/// Routes random pair slices through the lockstep batch at every width and
/// limit and asserts each outcome equals the scalar oracle's.
fn assert_batch_equivalent<O>(
    overlay: &O,
    q: f64,
    mask_seed: u64,
    pair_seed: u64,
) -> Result<(), TestCaseError>
where
    O: Overlay + ?Sized,
{
    // Width 1 retires and refills every pass; 3 keeps compaction churning;
    // 256 swallows the whole slice in one admission wave (a frontier
    // narrower than the batch). Pair count 0 is the degenerate no-op, 17 is
    // below every non-unit width, 200 forces mid-batch refill. Limits 0–2
    // force HopLimitExceeded retirement mid-pass; the default limit
    // exercises full Delivered/Dropped trajectories.
    const WIDTHS: [usize; 4] = [1, 3, 64, 256];
    const PAIR_COUNTS: [usize; 3] = [0, 17, 200];
    let kernel = overlay
        .kernel()
        .expect("all five geometries export a kernel rule");
    let space = overlay.key_space();
    let mask = FailureMask::sample_over(
        overlay.population(),
        q,
        &mut ChaCha8Rng::seed_from_u64(mask_seed),
    );
    let lowered = kernel.compile_mask(&mask);
    let mut rng = ChaCha8Rng::seed_from_u64(pair_seed);

    // Arbitrary in-space identifiers: occupied or not, alive or not, equal
    // or not — the batch must agree on every input the scalar path accepts.
    // Each pair count routes a prefix of one slice.
    let all_pairs: Vec<(u64, u64)> = (0..PAIR_COUNTS[2])
        .map(|_| {
            (
                space.random_id(&mut rng).value(),
                space.random_id(&mut rng).value(),
            )
        })
        .collect();

    let mut batches: Vec<RouteBatch> = WIDTHS.iter().map(|&w| RouteBatch::new(w)).collect();
    let mut outcomes: Vec<RouteOutcome> = Vec::new();
    for limit in [default_route_hop_limit(overlay), 0, 1, 2] {
        let all_scalar: Vec<RouteOutcome> = all_pairs
            .iter()
            .map(|&(source, target)| {
                route_with_limit(
                    overlay,
                    space.wrap(source),
                    space.wrap(target),
                    &mask,
                    limit,
                )
            })
            .collect();
        for count in PAIR_COUNTS {
            let (pairs, scalar) = (&all_pairs[..count], &all_scalar[..count]);
            for (batch, width) in batches.iter_mut().zip(WIDTHS) {
                kernel.route_batch(batch, lowered.words(), pairs, limit, &mut outcomes);
                prop_assert_eq!(batch.in_flight(), 0, "batch must drain completely");
                prop_assert_eq!(outcomes.len(), pairs.len());
                for (index, (batched, reference)) in outcomes.iter().zip(scalar).enumerate() {
                    prop_assert_eq!(
                        batched,
                        reference,
                        "outcome diverges at slot {} ({} -> {}, width {}, limit {})",
                        index,
                        pairs[index].0,
                        pairs[index].1,
                        width,
                        limit
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn chord_batches_are_bit_identical(
        bits in 4u32..9,
        occupancy in prop_oneof![Just(1.0f64), Just(0.25), Just(0.6)],
        seed in 0u64..1 << 20,
        q in 0.0f64..0.7,
        deterministic in prop_oneof![Just(true), Just(false)],
    ) {
        let space = KeySpace::new(bits).unwrap();
        let population = population(space, occupancy, seed);
        let variant = if deterministic {
            ChordVariant::Deterministic
        } else {
            ChordVariant::Randomized
        };
        let overlay = ChordOverlay::build_over(
            population,
            variant,
            &mut ChaCha8Rng::seed_from_u64(seed),
        )
        .unwrap();
        assert_batch_equivalent(&overlay, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }

    #[test]
    fn kademlia_batches_are_bit_identical(
        bits in 4u32..9,
        occupancy in prop_oneof![Just(1.0f64), Just(0.25), Just(0.6)],
        seed in 0u64..1 << 20,
        q in 0.0f64..0.7,
    ) {
        let space = KeySpace::new(bits).unwrap();
        let population = population(space, occupancy, seed);
        let overlay =
            KademliaOverlay::build_over(population, &mut ChaCha8Rng::seed_from_u64(seed))
                .unwrap();
        assert_batch_equivalent(&overlay, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }

    #[test]
    fn plaxton_batches_are_bit_identical(
        bits in 4u32..9,
        occupancy in prop_oneof![Just(1.0f64), Just(0.25), Just(0.6)],
        seed in 0u64..1 << 20,
        q in 0.0f64..0.7,
    ) {
        let space = KeySpace::new(bits).unwrap();
        let population = population(space, occupancy, seed);
        let overlay =
            PlaxtonOverlay::build_over(population, &mut ChaCha8Rng::seed_from_u64(seed))
                .unwrap();
        assert_batch_equivalent(&overlay, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }

    #[test]
    fn can_batches_are_bit_identical(
        bits in 4u32..9,
        occupancy in prop_oneof![Just(1.0f64), Just(0.25), Just(0.6)],
        seed in 0u64..1 << 20,
        q in 0.0f64..0.7,
    ) {
        let space = KeySpace::new(bits).unwrap();
        let population = population(space, occupancy, seed);
        // Sparse hypercubes may be unroutable even intact — exactly the sort
        // of Dropped outcome the batch must reproduce verbatim.
        let overlay = CanOverlay::build_over(population).unwrap();
        assert_batch_equivalent(&overlay, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }

    #[test]
    fn symphony_batches_are_bit_identical(
        bits in 4u32..9,
        occupancy in prop_oneof![Just(1.0f64), Just(0.25), Just(0.6)],
        seed in 0u64..1 << 20,
        q in 0.0f64..0.7,
        kn in 1u32..3,
        ks in 1u32..3,
    ) {
        let space = KeySpace::new(bits).unwrap();
        let population = population(space, occupancy, seed);
        let overlay = SymphonyOverlay::build_over(
            population,
            kn,
            ks,
            &mut ChaCha8Rng::seed_from_u64(seed),
        )
        .unwrap();
        assert_batch_equivalent(&overlay, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }
}
