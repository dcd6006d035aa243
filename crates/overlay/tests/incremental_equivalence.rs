//! Property suite: incremental live-churn repair is equivalent to rebuild.
//!
//! After **any** random join/leave sequence, the delta-patched
//! [`LiveOverlay`] — arena rows rewritten in place, kernel plan repaired rank
//! by rank, reverse edge index maintained incrementally — must be
//! entry-for-entry identical to building the overlay from scratch at the
//! final liveness: same arena rows, same compiled plan, same state digest.
//! One property per geometry (both Chord variants), each driven over full
//! *and* sparse populations, with unoccupied identifiers thrown in to pin
//! the no-op paths, plus a routing spot-check that the repaired kernel still
//! agrees with the scalar reference on the churned state.
//!
//! The number of cases per property honours the `PROPTEST_CASES` environment
//! variable (the vendored runner applies it as an override; CI raises it,
//! the local default keeps the suite fast).

use dht_id::{KeySpace, Population};
use dht_overlay::can::CanStrategy;
use dht_overlay::chord::ChordStrategy;
use dht_overlay::kademlia::KademliaStrategy;
use dht_overlay::plaxton::PlaxtonStrategy;
use dht_overlay::symphony::SymphonyStrategy;
use dht_overlay::{
    default_route_hop_limit, route_with_limit, ChordVariant, GeometryStrategy, LiveOverlay,
    Overlay, RouteBatch,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Full population for even `selector`, a half-occupancy uniform sample
/// otherwise.
fn population_for(bits: u32, sparse: bool, pop_seed: u64) -> Population {
    let space = KeySpace::new(bits).unwrap();
    if sparse {
        let occupied = (space.population() / 2).max(2);
        Population::sample_uniform(space, occupied, &mut ChaCha8Rng::seed_from_u64(pop_seed))
            .unwrap()
    } else {
        Population::full(space)
    }
}

/// Asserts the delta-patched `overlay` equals its from-scratch rebuild,
/// entry for entry.
fn assert_matches_rebuild<S: GeometryStrategy + Clone>(
    overlay: &LiveOverlay<S>,
    context: &str,
) -> Result<(), TestCaseError> {
    let rebuilt = overlay.rebuilt();
    for rank in 0..overlay.arena().node_count() {
        prop_assert_eq!(
            overlay.arena().neighbors(rank),
            rebuilt.arena().neighbors(rank),
            "{}: arena row {} diverged from the canonical state",
            context,
            rank
        );
    }
    prop_assert!(
        overlay.routing_kernel().plan_eq(rebuilt.routing_kernel()),
        "{}: repaired kernel plan diverged from a fresh compile",
        context
    );
    prop_assert_eq!(
        overlay.state_digest(),
        rebuilt.state_digest(),
        "{}: state digest diverged",
        context
    );
    Ok(())
}

/// The shared property body: replay a random event sequence, check
/// equivalence at a midpoint and at the end, then spot-check that the
/// repaired kernel routes bit-identically to the scalar reference.
fn check_incremental_equivalence<S: GeometryStrategy + Clone>(
    strategy: S,
    bits: u32,
    sparse: bool,
    pop_seed: u64,
    master_seed: u64,
    event_seed: u64,
    events: usize,
) -> Result<(), TestCaseError> {
    let population = population_for(bits, sparse, pop_seed);
    let space = population.space();
    let mut overlay = LiveOverlay::build(population, strategy, master_seed).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(event_seed);
    let midpoint = events / 2;
    for step in 0..events {
        // Arbitrary identifiers: unoccupied ones exercise the no-op path,
        // repeated joins/leaves the idempotence path.
        let node = space.wrap(rng.gen_range(0..space.population()));
        if rng.gen_bool(0.5) {
            overlay.leave(node);
        } else {
            overlay.join(node);
        }
        if step + 1 == midpoint {
            assert_matches_rebuild(&overlay, "midpoint")?;
        }
    }
    assert_matches_rebuild(&overlay, "final")?;

    let limit = default_route_hop_limit(&overlay);
    let pairs: Vec<(u64, u64)> = (0..20)
        .map(|_| {
            (
                rng.gen_range(0..space.population()),
                rng.gen_range(0..space.population()),
            )
        })
        .filter(|&(source, target)| {
            overlay.population().index_of(space.wrap(source)).is_some()
                && overlay.population().index_of(space.wrap(target)).is_some()
        })
        .collect();
    let mut outcomes = Vec::new();
    overlay.routing_kernel().route_batch(
        &mut RouteBatch::default(),
        overlay.rank_alive_words(),
        &pairs,
        limit,
        &mut outcomes,
    );
    for (&(source, target), outcome) in pairs.iter().zip(&outcomes) {
        prop_assert_eq!(
            *outcome,
            route_with_limit(
                &overlay,
                space.wrap(source),
                space.wrap(target),
                overlay.mask(),
                limit
            ),
            "kernel and scalar routes diverged on the churned state"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ring_deterministic_repair_equals_rebuild(
        bits in 4u32..8,
        sparse_sel in 0u8..2,
        pop_seed in 0u64..1 << 20,
        master_seed in 0u64..1 << 20,
        event_seed in 0u64..1 << 20,
        events in 1usize..160,
    ) {
        check_incremental_equivalence(
            ChordStrategy::new(ChordVariant::Deterministic),
            bits, sparse_sel == 1, pop_seed, master_seed, event_seed, events,
        )?;
    }

    #[test]
    fn ring_randomized_repair_equals_rebuild(
        bits in 4u32..8,
        sparse_sel in 0u8..2,
        pop_seed in 0u64..1 << 20,
        master_seed in 0u64..1 << 20,
        event_seed in 0u64..1 << 20,
        events in 1usize..160,
    ) {
        check_incremental_equivalence(
            ChordStrategy::new(ChordVariant::Randomized),
            bits, sparse_sel == 1, pop_seed, master_seed, event_seed, events,
        )?;
    }

    #[test]
    fn symphony_repair_equals_rebuild(
        bits in 4u32..8,
        sparse_sel in 0u8..2,
        pop_seed in 0u64..1 << 20,
        master_seed in 0u64..1 << 20,
        event_seed in 0u64..1 << 20,
        events in 1usize..160,
    ) {
        check_incremental_equivalence(
            SymphonyStrategy::new(2, 2),
            bits, sparse_sel == 1, pop_seed, master_seed, event_seed, events,
        )?;
    }

    #[test]
    fn xor_repair_equals_rebuild(
        bits in 4u32..8,
        sparse_sel in 0u8..2,
        pop_seed in 0u64..1 << 20,
        master_seed in 0u64..1 << 20,
        event_seed in 0u64..1 << 20,
        events in 1usize..160,
    ) {
        check_incremental_equivalence(
            KademliaStrategy,
            bits, sparse_sel == 1, pop_seed, master_seed, event_seed, events,
        )?;
    }

    #[test]
    fn tree_repair_equals_rebuild(
        bits in 4u32..8,
        sparse_sel in 0u8..2,
        pop_seed in 0u64..1 << 20,
        master_seed in 0u64..1 << 20,
        event_seed in 0u64..1 << 20,
        events in 1usize..160,
    ) {
        check_incremental_equivalence(
            PlaxtonStrategy,
            bits, sparse_sel == 1, pop_seed, master_seed, event_seed, events,
        )?;
    }

    #[test]
    fn hypercube_repair_equals_rebuild(
        bits in 4u32..8,
        sparse_sel in 0u8..2,
        pop_seed in 0u64..1 << 20,
        master_seed in 0u64..1 << 20,
        event_seed in 0u64..1 << 20,
        events in 1usize..160,
    ) {
        check_incremental_equivalence(
            CanStrategy,
            bits, sparse_sel == 1, pop_seed, master_seed, event_seed, events,
        )?;
    }
}
