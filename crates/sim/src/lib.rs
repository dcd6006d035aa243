//! Static-resilience and churn simulation harness for DHT overlays.
//!
//! The analytical crate (`dht-rcm-core`) predicts routability from closed
//! forms; this crate *measures* it on the executable overlays of
//! `dht-overlay`, reproducing the simulation methodology behind the data
//! points of Fig. 6 of the paper (originally due to Gummadi et al.):
//!
//! 1. build the overlay over a fully populated identifier space;
//! 2. fail every node independently with probability `q` and freeze the
//!    routing tables;
//! 3. sample source/destination pairs among the survivors and route greedily
//!    with no backtracking;
//! 4. report the delivered fraction with a confidence interval.
//!
//! The harness is deterministic: every experiment derives its randomness from
//! an explicit seed, so any reported number can be regenerated bit-for-bit.
//! Parallelism never weakens that guarantee — the sharded [`TrialEngine`]
//! partitions every pair budget into fixed logical shards with their own RNG
//! streams and merges tallies in shard order, so measurements are identical
//! for any worker-thread count.
//!
//! # Example
//!
//! ```rust
//! use dht_overlay::KademliaOverlay;
//! use dht_sim::{StaticResilienceConfig, StaticResilienceExperiment};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let overlay = KademliaOverlay::build(10, &mut rng)?;
//! let config = StaticResilienceConfig::new(0.2)?.with_pairs(2_000).with_seed(11);
//! let result = StaticResilienceExperiment::new(config).run(&overlay);
//! assert!(result.routability > 0.7 && result.routability <= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod config;
pub mod engine;
pub mod events;
pub mod pair_sampler;
pub mod report;
pub mod rng;
pub mod static_resilience;
pub mod sweep;

pub use campaign::{CampaignTally, StuckDepthHistogram};
pub use config::{SimError, StaticResilienceConfig};
pub use engine::{TrialEngine, TrialTally, DEFAULT_PAIRS_PER_SHARD};
pub use events::{
    CalendarQueue, LifetimeDistribution, LiveChurnConfig, LiveChurnExperiment, LiveChurnTally,
};
pub use pair_sampler::PairSampler;
pub use report::{write_csv, SimulationRecord};
pub use rng::SeedSequence;
pub use static_resilience::{StaticResilienceExperiment, StaticResilienceResult};
pub use sweep::{sweep_failure_grid, FailureSweepPoint};
