//! Cross-backend equivalence properties: the implicit (generative) backend
//! must be **bit-identical** to the materialized build it replays.
//!
//! For every geometry over full populations at `2^10`–`2^16`, with intact
//! (`q = 0`) and heavily failed (`q = 0.3`) masks, the properties assert
//! that
//!
//! * `ImplicitOverlay::table_of` regenerates exactly the rows the
//!   materialized builder produced from the same construction stream,
//! * `ImplicitKernel::route_batch` reproduces the materialized
//!   `RoutingKernel::route_batch` outcomes verbatim — hop counts,
//!   `Dropped { stuck_at }` nodes and `HopLimitExceeded` under artificially
//!   tight limits included, and
//! * the implicit overlay's scalar `Overlay::next_hop` makes exactly the
//!   greedy decision of the materialized one.
//!
//! This is the contract that lets every consumer — `dht_sim`'s trial
//! engine, the scenario server, the batch runner — switch backends without
//! perturbing a single committed measurement.

use dht_id::NodeId;
use dht_overlay::{
    default_route_hop_limit, CanOverlay, ChordOverlay, ChordVariant, FailureMask, ImplicitOverlay,
    KademliaOverlay, Overlay, PlaxtonOverlay, RouteBatch, RouteOutcome, SymphonyOverlay,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Asserts every observable of the implicit backend against the
/// materialized twin built from the same construction stream.
fn assert_backends_equivalent<M, S>(
    materialized: &M,
    implicit: &ImplicitOverlay<S>,
    q: f64,
    mask_seed: u64,
    pair_seed: u64,
) -> Result<(), TestCaseError>
where
    M: Overlay + ?Sized,
    S: dht_overlay::GeometryStrategy,
{
    let space = materialized.key_space();
    let kernel = materialized
        .kernel()
        .expect("all five geometries export a kernel rule");
    let generative = implicit.routing_kernel();
    let mut cache = generative.row_cache();

    // Tables: every regenerated row equals the materialized row.
    let mut rng = ChaCha8Rng::seed_from_u64(pair_seed ^ 0x7461_626C);
    for _ in 0..64 {
        let node = space.random_id(&mut rng);
        prop_assert_eq!(
            implicit.table_of(node),
            materialized.neighbors(node).to_vec(),
            "table diverges at {}",
            node
        );
    }

    let mask = FailureMask::sample(space, q, &mut ChaCha8Rng::seed_from_u64(mask_seed));
    let lowered = kernel.compile_mask(&mask);
    let lowered_implicit = generative.compile_mask(&mask);

    // Arbitrary identifiers: alive or not, equal or not — the implicit path
    // must agree on every input the materialized kernel accepts, at the
    // default limit and at tight limits that trip HopLimitExceeded.
    let mut rng = ChaCha8Rng::seed_from_u64(pair_seed);
    let pairs: Vec<(u64, u64)> = (0..64)
        .map(|_| {
            (
                space.random_id(&mut rng).value(),
                space.random_id(&mut rng).value(),
            )
        })
        .collect();
    let mut batch = RouteBatch::new(16);
    let mut materialized_outcomes: Vec<RouteOutcome> = Vec::new();
    let mut implicit_outcomes: Vec<RouteOutcome> = Vec::new();
    for limit in [default_route_hop_limit(materialized), 0, 1, 2] {
        kernel.route_batch(
            &mut batch,
            lowered.words(),
            &pairs,
            limit,
            &mut materialized_outcomes,
        );
        generative.route_batch(
            &mut batch,
            &mut cache,
            lowered_implicit.words(),
            &pairs,
            limit,
            &mut implicit_outcomes,
        );
        prop_assert_eq!(
            &materialized_outcomes,
            &implicit_outcomes,
            "outcomes diverge at limit {}",
            limit
        );
    }

    // The scalar Overlay::next_hop of the implicit overlay agrees too (it
    // regenerates the row and asks the strategy directly).
    let mut rng = ChaCha8Rng::seed_from_u64(pair_seed ^ 0x6E68_6F70);
    for _ in 0..16 {
        let current = space.random_id(&mut rng);
        let target = space.random_id(&mut rng);
        let scalar: Option<NodeId> = implicit.next_hop(current, target, &mask);
        prop_assert_eq!(
            scalar,
            materialized.next_hop(current, target, &mask),
            "scalar next_hop diverges for {} -> {}",
            current,
            target
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn chord_backends_are_bit_identical(
        bits in 10u32..=16,
        seed in 0u64..1 << 20,
        q in prop_oneof![Just(0.0f64), Just(0.3)],
        deterministic in prop_oneof![Just(true), Just(false)],
    ) {
        let variant = if deterministic {
            ChordVariant::Deterministic
        } else {
            ChordVariant::Randomized
        };
        let materialized = match variant {
            ChordVariant::Deterministic => ChordOverlay::build(bits, variant).unwrap(),
            ChordVariant::Randomized => ChordOverlay::build_randomized(
                bits,
                &mut ChaCha8Rng::seed_from_u64(seed),
            )
            .unwrap(),
        };
        let implicit = ImplicitOverlay::ring(bits, variant, seed).unwrap();
        assert_backends_equivalent(&materialized, &implicit, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }

    #[test]
    fn kademlia_backends_are_bit_identical(
        bits in 10u32..=16,
        seed in 0u64..1 << 20,
        q in prop_oneof![Just(0.0f64), Just(0.3)],
    ) {
        let materialized =
            KademliaOverlay::build(bits, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let implicit = ImplicitOverlay::xor(bits, seed).unwrap();
        assert_backends_equivalent(&materialized, &implicit, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }

    #[test]
    fn plaxton_backends_are_bit_identical(
        bits in 10u32..=16,
        seed in 0u64..1 << 20,
        q in prop_oneof![Just(0.0f64), Just(0.3)],
    ) {
        let materialized =
            PlaxtonOverlay::build(bits, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let implicit = ImplicitOverlay::tree(bits, seed).unwrap();
        assert_backends_equivalent(&materialized, &implicit, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }

    #[test]
    fn can_backends_are_bit_identical(
        bits in 10u32..=16,
        seed in 0u64..1 << 20,
        q in prop_oneof![Just(0.0f64), Just(0.3)],
    ) {
        let materialized = CanOverlay::build(bits).unwrap();
        let implicit = ImplicitOverlay::hypercube(bits).unwrap();
        assert_backends_equivalent(&materialized, &implicit, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }

    #[test]
    fn symphony_backends_are_bit_identical(
        bits in 10u32..=16,
        seed in 0u64..1 << 20,
        q in prop_oneof![Just(0.0f64), Just(0.3)],
        kn in 1u32..3,
        ks in 1u32..3,
    ) {
        let materialized = SymphonyOverlay::build(
            bits,
            kn,
            ks,
            &mut ChaCha8Rng::seed_from_u64(seed),
        )
        .unwrap();
        let implicit = ImplicitOverlay::symphony(bits, kn, ks, seed).unwrap();
        assert_backends_equivalent(&materialized, &implicit, q, seed ^ 0xA5, seed ^ 0x5A)?;
    }
}
