//! Property tests: trial-engine results are invariant under thread count.
//!
//! The sharded [`TrialEngine`] promises that parallelism is purely a
//! wall-clock optimisation — the merged tally (including its floating-point
//! hop statistics) is a pure function of the configuration. These properties
//! drive random overlays, failure patterns, budgets and shard sizes through
//! 1, 2, 3 and 8 threads and require full structural equality, and repeat
//! the check one level up for the experiments built on the engine.

use dht_id::{KeySpace, Population};
use dht_overlay::{ChordOverlay, ChordVariant, FailureMask, KademliaOverlay, Overlay};
use dht_sim::{StaticResilienceConfig, StaticResilienceExperiment, TrialEngine};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn trial_tallies_are_thread_invariant(
        bits in 5u32..9,
        seed in 0u64..1 << 20,
        q in 0.0f64..0.7,
        pairs in 1u64..6_000,
        pairs_per_shard in 1u64..2_048,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let overlay = KademliaOverlay::build(bits, &mut rng).unwrap();
        let mask = FailureMask::sample(overlay.key_space(), q, &mut rng);
        let reference = TrialEngine::new(1)
            .with_pairs_per_shard(pairs_per_shard)
            .run_trial(&overlay, &mask, pairs, seed ^ 0xC0FFEE);
        for threads in [2usize, 3, 8] {
            let tally = TrialEngine::new(threads)
                .with_pairs_per_shard(pairs_per_shard)
                .run_trial(&overlay, &mask, pairs, seed ^ 0xC0FFEE);
            prop_assert_eq!(&reference, &tally, "threads = {}", threads);
        }
        if let Some(tally) = reference {
            prop_assert_eq!(tally.attempted, pairs.max(1));
            prop_assert_eq!(
                tally.attempted,
                tally.delivered + tally.dropped + tally.hop_limited
            );
        }
    }

    #[test]
    fn static_resilience_is_thread_invariant_over_sparse_populations(
        bits in 6u32..10,
        seed in 0u64..1 << 20,
        q in 0.0f64..0.6,
    ) {
        let space = KeySpace::new(bits).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let population =
            Population::sample_uniform(space, (space.population() / 2).max(2), &mut rng).unwrap();
        let overlay =
            ChordOverlay::build_over(population, ChordVariant::Deterministic, &mut rng).unwrap();
        let config = StaticResilienceConfig::new(q)
            .unwrap()
            .with_pairs(3_000)
            .with_trials(2)
            .with_seed(seed);
        let single =
            StaticResilienceExperiment::new(config.with_threads(1)).run(&overlay);
        for threads in [3usize, 6] {
            let multi =
                StaticResilienceExperiment::new(config.with_threads(threads)).run(&overlay);
            prop_assert_eq!(&single, &multi, "threads = {}", threads);
        }
    }
}
