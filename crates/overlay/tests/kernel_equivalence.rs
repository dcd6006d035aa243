//! Kernel equivalence properties: the compiled rank-space routing kernel
//! must be **bit-identical** to the scalar routing path.
//!
//! For every geometry, over random full *and* sparse populations, random
//! failure masks and random (not necessarily occupied or alive) endpoint
//! pairs, the properties assert that the kernel's compiled rule and lowered
//! mask, driven by [`RoutingKernel::route_batch`] at the default frontier
//! width, return exactly the [`RouteOutcome`] of `route_with_limit` —
//! including `Dropped { stuck_at }` nodes, hop counts and
//! `HopLimitExceeded` under artificially tight limits. The frontier widths
//! themselves are swept by the `batch_equivalence` suite.
//!
//! This is the contract that lets `dht_sim`'s trial engine route through the
//! kernel without perturbing any committed measurement or RNG stream.
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

/// Routes random pairs through the kernel at the default and at tight
/// limits, then occupied pairs under an intact mask, and asserts every
/// outcome equals the scalar oracle's.
fn assert_kernel_equivalent<O>(
    overlay: &O,
    q: f64,
    mask_seed: u64,
    pair_seed: u64,
) -> Result<(), TestCaseError>
where
    O: Overlay + ?Sized,
{
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
    let limit = default_route_hop_limit(overlay);
    let mut rng = ChaCha8Rng::seed_from_u64(pair_seed);
    let mut batch = RouteBatch::default();
    let mut outcomes: Vec<RouteOutcome> = Vec::new();

    // Arbitrary identifiers: occupied or not, alive or not, equal or not —
    // the kernel must agree on every input the scalar path accepts.
    let pairs: Vec<(u64, u64)> = (0..50)
        .map(|_| {
            (
                space.random_id(&mut rng).value(),
                space.random_id(&mut rng).value(),
            )
        })
        .collect();
    // Tight limits must trip HopLimitExceeded at the same instant.
    for limit in [limit, 0, 1, 2] {
        kernel.route_batch(&mut batch, lowered.words(), &pairs, limit, &mut outcomes);
        prop_assert_eq!(outcomes.len(), pairs.len());
        for (&(source, target), batched) in pairs.iter().zip(&outcomes) {
            prop_assert_eq!(
                *batched,
                route_with_limit(
                    overlay,
                    space.wrap(source),
                    space.wrap(target),
                    &mask,
                    limit
                ),
                "route outcome diverges for {} -> {} (limit {})",
                source,
                target,
                limit
            );
        }
    }

    // Intact mask over occupied pairs: hop counts must match pairwise even
    // where the random masks above never dropped anything.
    let none = FailureMask::none_over(overlay.population());
    let lowered_none = kernel.compile_mask(&none);
    let intact: Vec<(u64, u64)> = (0..20)
        .map(|_| {
            (
                overlay.population().random_node(&mut rng).value(),
                overlay.population().random_node(&mut rng).value(),
            )
        })
        .collect();
    kernel.route_batch(
        &mut batch,
        lowered_none.words(),
        &intact,
        limit,
        &mut outcomes,
    );
    prop_assert_eq!(outcomes.len(), intact.len());
    for (&(source, target), batched) in intact.iter().zip(&outcomes) {
        let scalar = route_with_limit(
            overlay,
            space.wrap(source),
            space.wrap(target),
            &none,
            limit,
        );
        prop_assert_eq!(
            *batched,
            scalar,
            "intact outcome diverges for {} -> {}",
            source,
            target
        );
        if let RouteOutcome::Delivered { hops } = scalar {
            prop_assert!(u64::from(hops) <= overlay.population().node_count());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn chord_kernel_is_bit_identical(
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
        assert_kernel_equivalent(&overlay, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }

    #[test]
    fn kademlia_kernel_is_bit_identical(
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
        assert_kernel_equivalent(&overlay, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }

    #[test]
    fn plaxton_kernel_is_bit_identical(
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
        assert_kernel_equivalent(&overlay, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }

    #[test]
    fn can_kernel_is_bit_identical(
        bits in 4u32..9,
        occupancy in prop_oneof![Just(1.0f64), Just(0.25), Just(0.6)],
        seed in 0u64..1 << 20,
        q in 0.0f64..0.7,
    ) {
        let space = KeySpace::new(bits).unwrap();
        let population = population(space, occupancy, seed);
        // Sparse hypercubes may be unroutable even intact — exactly the sort
        // of Dropped outcome the kernel must reproduce verbatim.
        let overlay = CanOverlay::build_over(population).unwrap();
        assert_kernel_equivalent(&overlay, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }

    #[test]
    fn symphony_kernel_is_bit_identical(
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
        assert_kernel_equivalent(&overlay, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }
}
