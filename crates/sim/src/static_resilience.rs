//! The static-resilience experiment: measure routability on an executable
//! overlay under a frozen failure pattern.

use crate::config::StaticResilienceConfig;
use crate::engine::TrialEngine;
use crate::rng::SeedSequence;
use dht_mathkit::stats::{wilson_interval, ConfidenceInterval, RunningStats};
use dht_overlay::{FailureMask, Overlay};
use serde::{Deserialize, Serialize};

/// Aggregated outcome of a static-resilience measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticResilienceResult {
    /// Geometry name of the overlay measured.
    pub geometry: String,
    /// Identifier length of the overlay.
    pub bits: u32,
    /// Failure probability applied.
    pub failure_probability: f64,
    /// Number of occupied identifiers in the overlay's population (`2^bits`
    /// for fully populated overlays).
    pub occupied_nodes: u64,
    /// Number of trials (independent failure patterns) averaged.
    pub trials: u32,
    /// Total pairs attempted across all trials.
    pub pairs_attempted: u64,
    /// Pairs delivered across all trials.
    pub pairs_delivered: u64,
    /// Measured routability: delivered / attempted.
    pub routability: f64,
    /// Percentage of failed paths, `100·(1 − routability)` (Fig. 6 y-axis).
    pub failed_path_percent: f64,
    /// 95% Wilson confidence interval on the routability.
    pub confidence: ConfidenceInterval,
    /// Mean number of hops over delivered messages.
    pub mean_hops: f64,
    /// Largest observed hop count over delivered messages.
    pub max_hops: u32,
    /// Fraction of surviving nodes averaged over trials.
    pub surviving_fraction: f64,
}

/// Runs static-resilience measurements according to a
/// [`StaticResilienceConfig`].
///
/// Each trial samples a fresh failure pattern over the overlay's
/// [`dht_id::Population`] (only occupied identifiers fail or survive) and
/// hands its pair budget to the sharded [`TrialEngine`], which splits it
/// across the configured number of worker threads. Sharding is by fixed
/// logical shards with per-shard RNG streams, so the result is **bit
/// identical for every thread count** — `with_threads(1)` and
/// `with_threads(64)` produce the same `StaticResilienceResult`.
#[derive(Debug, Clone)]
pub struct StaticResilienceExperiment {
    config: StaticResilienceConfig,
}

impl StaticResilienceExperiment {
    /// Creates an experiment runner for the given configuration.
    #[must_use]
    pub fn new(config: StaticResilienceConfig) -> Self {
        StaticResilienceExperiment { config }
    }

    /// The configuration this runner executes.
    #[must_use]
    pub fn config(&self) -> &StaticResilienceConfig {
        &self.config
    }

    /// Measures the overlay.
    ///
    /// Trials in which fewer than two nodes survive are skipped (they
    /// contribute no pairs); if every trial is skipped the result reports zero
    /// attempted pairs and a routability of zero.
    pub fn run<O>(&self, overlay: &O) -> StaticResilienceResult
    where
        O: Overlay + ?Sized,
    {
        let q = self.config.failure_probability();
        let seeds = SeedSequence::new(self.config.seed());
        let engine = TrialEngine::new(self.config.threads());
        let mut delivered = 0u64;
        let mut attempted = 0u64;
        let mut hop_stats = RunningStats::new();
        let mut max_hops = 0u32;
        let mut surviving_fraction_stats = RunningStats::new();

        for trial in 0..self.config.trials() {
            // Child stream 2t seeds the failure pattern (unchanged from the
            // seed implementation), sampled on the trial's own threads;
            // child seed 2t+1 roots the trial's per-shard pair streams.
            let failure_seed = seeds.child(u64::from(trial) * 2);
            let pair_seed = seeds.child(u64::from(trial) * 2 + 1);
            let mask =
                FailureMask::sample_seeded(overlay.population(), q, failure_seed, engine.threads());
            surviving_fraction_stats
                .push(mask.alive_count() as f64 / overlay.population().node_count() as f64);
            let Some(tally) = engine.run_trial(overlay, &mask, self.config.pairs(), pair_seed)
            else {
                continue;
            };
            attempted += tally.attempted;
            delivered += tally.delivered;
            hop_stats.merge(&tally.hop_stats);
            max_hops = max_hops.max(tally.max_hops);
        }

        let routability = if attempted == 0 {
            0.0
        } else {
            delivered as f64 / attempted as f64
        };
        let confidence = if attempted == 0 {
            ConfidenceInterval {
                mean: 0.0,
                lower: 0.0,
                upper: 0.0,
                level: 0.95,
            }
        } else {
            wilson_interval(delivered, attempted, 0.95)
        };
        StaticResilienceResult {
            geometry: overlay.geometry_name().to_owned(),
            bits: overlay.key_space().bits(),
            failure_probability: q,
            occupied_nodes: overlay.population().node_count(),
            trials: self.config.trials(),
            pairs_attempted: attempted,
            pairs_delivered: delivered,
            routability,
            failed_path_percent: 100.0 * (1.0 - routability),
            confidence,
            mean_hops: hop_stats.mean(),
            max_hops,
            surviving_fraction: surviving_fraction_stats.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_overlay::{
        CanOverlay, ChordOverlay, ChordVariant, ImplicitOverlay, KademliaOverlay, PlaxtonOverlay,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn config(q: f64) -> StaticResilienceConfig {
        StaticResilienceConfig::new(q)
            .unwrap()
            .with_pairs(2_000)
            .with_seed(17)
    }

    #[test]
    fn no_failures_means_perfect_routability() {
        let overlay = CanOverlay::build(8).unwrap();
        let result = StaticResilienceExperiment::new(config(0.0)).run(&overlay);
        assert_eq!(result.routability, 1.0);
        assert_eq!(result.failed_path_percent, 0.0);
        assert_eq!(result.pairs_delivered, result.pairs_attempted);
        assert!(result.mean_hops > 0.0 && result.mean_hops <= 8.0);
        assert_eq!(result.surviving_fraction, 1.0);
    }

    #[test]
    fn results_are_reproducible_for_a_seed() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let overlay = KademliaOverlay::build(9, &mut rng).unwrap();
        let a = StaticResilienceExperiment::new(config(0.3)).run(&overlay);
        let b = StaticResilienceExperiment::new(config(0.3)).run(&overlay);
        assert_eq!(a, b);
    }

    #[test]
    fn multithreaded_run_is_bit_identical_to_single_threaded() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let kademlia = KademliaOverlay::build(9, &mut rng).unwrap();
        // 2^17 identifiers are 2048 mask words, enough for the mask sampler
        // to split across threads as well as the pair shards.
        let ring = ImplicitOverlay::ring(17, ChordVariant::Deterministic, 6).unwrap();
        for overlay in [&kademlia as &dyn Overlay, &ring] {
            let single = StaticResilienceExperiment::new(config(0.3).with_threads(1)).run(overlay);
            for threads in [2, 4, 13] {
                let multi =
                    StaticResilienceExperiment::new(config(0.3).with_threads(threads)).run(overlay);
                // Full structural equality: every field, including the
                // floating-point hop statistics, matches bit for bit.
                assert_eq!(single, multi, "threads = {threads}");
            }
        }
    }

    #[test]
    fn tree_is_less_resilient_than_xor_in_simulation() {
        // The headline qualitative claim of Fig. 6(a), measured end to end.
        let seed = 23;
        let tree = PlaxtonOverlay::build(10, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let xor = KademliaOverlay::build(10, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let experiment = StaticResilienceExperiment::new(config(0.3));
        let tree_result = experiment.run(&tree);
        let xor_result = experiment.run(&xor);
        assert!(
            tree_result.routability < xor_result.routability,
            "tree {} vs xor {}",
            tree_result.routability,
            xor_result.routability
        );
    }

    #[test]
    fn higher_failure_probability_lowers_routability() {
        let overlay = ChordOverlay::build(10, ChordVariant::Deterministic).unwrap();
        let low = StaticResilienceExperiment::new(config(0.1)).run(&overlay);
        let high = StaticResilienceExperiment::new(config(0.5)).run(&overlay);
        assert!(high.routability < low.routability);
        assert!(low.confidence.contains(low.routability));
        assert!(high.surviving_fraction < low.surviving_fraction);
    }

    #[test]
    fn extreme_failure_probability_yields_no_survivable_pairs_gracefully() {
        let overlay = CanOverlay::build(4).unwrap();
        let experiment = StaticResilienceExperiment::new(
            StaticResilienceConfig::new(0.999)
                .unwrap()
                .with_pairs(100)
                .with_seed(3),
        );
        let result = experiment.run(&overlay);
        // With 16 nodes at q = 0.999 most trials have < 2 survivors; whatever
        // pairs exist must still produce a well-formed result.
        assert!(result.routability >= 0.0 && result.routability <= 1.0);
        assert!(result.failed_path_percent >= 0.0);
    }

    #[test]
    fn sparse_populations_measure_routability_among_occupied_nodes() {
        use dht_id::{KeySpace, Population};
        let space = KeySpace::new(12).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let population = Population::sample_uniform(space, 1 << 10, &mut rng).unwrap();
        let overlay = ChordOverlay::build_over(
            population,
            dht_overlay::ChordVariant::Deterministic,
            &mut rng,
        )
        .unwrap();
        let intact = StaticResilienceExperiment::new(config(0.0)).run(&overlay);
        assert_eq!(intact.occupied_nodes, 1 << 10);
        assert_eq!(intact.routability, 1.0, "intact sparse ring routes fully");
        assert_eq!(intact.surviving_fraction, 1.0);
        let failed = StaticResilienceExperiment::new(config(0.3)).run(&overlay);
        assert!(failed.routability < 1.0);
        assert!((failed.surviving_fraction - 0.7).abs() < 0.1);
    }

    #[test]
    fn multiple_trials_average_over_failure_patterns() {
        let overlay = CanOverlay::build(8).unwrap();
        let single = StaticResilienceExperiment::new(config(0.4).with_trials(1)).run(&overlay);
        let averaged = StaticResilienceExperiment::new(config(0.4).with_trials(5)).run(&overlay);
        assert_eq!(averaged.trials, 5);
        assert_eq!(averaged.pairs_attempted, 5 * single.pairs_attempted);
        // More data tightens the confidence interval.
        assert!(averaged.confidence.half_width() <= single.confidence.half_width());
    }
}
