//! # dht-rcm — the Reachable Component Method for DHT routing analysis
//!
//! A reproduction of *"A General Framework for Scalability and Performance
//! Analysis of DHT Routing Systems"* (Kong, Bridgewater, Roychowdhury — DSN
//! 2006) as a Rust workspace. This facade crate re-exports the public API of
//! the member crates so applications can depend on a single crate:
//!
//! * [`analysis`] (`dht-rcm-core`) — the analytical framework: routability
//!   `r(N, q)`, phase success probabilities, scalability classification, and
//!   the closed forms for the tree (Plaxton), hypercube (CAN), XOR
//!   (Kademlia), ring (Chord) and small-world (Symphony) geometries.
//! * [`overlay`] (`dht-overlay`) — executable overlays of the same five
//!   geometries with static-resilience routing and structured failure
//!   plans (correlated, adaptive, cascading).
//! * [`sim`] (`dht-sim`) — the measurement harness (failure patterns, pair
//!   sampling, sweeps, failure campaigns, and the live-churn discrete-event
//!   simulator).
//! * [`markov`] (`dht-markov`) — the routing Markov chains the closed forms
//!   are derived from.
//! * [`percolation`] (`dht-percolation`) — connectivity and percolation
//!   thresholds, for the connectivity-vs-routability contrast.
//! * [`mathkit`] (`dht-mathkit`) and [`id`] (`dht-id`) — numerical and
//!   identifier-space substrates.
//! * [`experiments`] (`dht-experiments`) — the harnesses that regenerate
//!   every figure and table of the paper, behind the declarative
//!   [`experiments::spec::ScenarioSpec`] front door.
//! * [`scenario`] (`dht-scenario`) — the batch runner over directories of
//!   spec files and the memoizing report server.
//!
//! # Quickstart
//!
//! ```rust
//! use dht_rcm::prelude::*;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! // Analytical prediction: Kademlia-style XOR routing at 2^16 nodes with
//! // 30% of nodes failed.
//! let size = SystemSize::power_of_two(16)?;
//! let prediction = Geometry::xor().routability(size, 0.3)?;
//!
//! // Measurement on an executable overlay (smaller for test speed).
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//! let overlay = KademliaOverlay::build(10, &mut rng)?;
//! let config = StaticResilienceConfig::new(0.3)?.with_pairs(5_000).with_seed(7);
//! let measured = StaticResilienceExperiment::new(config).run(&overlay);
//!
//! // The analysis tracks the measurement to within a few percentage points.
//! assert!((prediction.routability - measured.routability).abs() < 0.1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use dht_experiments as experiments;
pub use dht_id as id;
pub use dht_markov as markov;
pub use dht_mathkit as mathkit;
pub use dht_overlay as overlay;
pub use dht_percolation as percolation;
pub use dht_rcm_core as analysis;
pub use dht_scenario as scenario;
pub use dht_sim as sim;

/// The most commonly used items across the workspace, re-exported for glob
/// import in applications, examples and tests.
pub mod prelude {
    pub use dht_experiments::spec::{
        run_spec, Backend, ExecutionSpec, ExperimentSpec, Family, ScenarioReport, ScenarioSpec,
    };
    pub use dht_id::{KeySpace, NodeId, Population};
    pub use dht_overlay::{
        route, CanOverlay, ChordOverlay, ChordVariant, FailureMask, FailurePlan, GeometryOverlay,
        ImplicitKernel, ImplicitOverlay, ImplicitRowCache, KademliaOverlay, LiveOverlay, Overlay,
        PlaxtonOverlay, RouteBatch, RouteOutcome, RoutingArena, RoutingKernel, SymphonyOverlay,
        DEFAULT_BATCH_WIDTH, MAX_IMPLICIT_OVERLAY_BITS, MAX_OVERLAY_BITS,
    };
    pub use dht_percolation::{connected_components, percolation_threshold, reachable_component};
    pub use dht_rcm_core::prelude::*;
    pub use dht_scenario::{run_directory, BatchOptions, ReportServer};
    pub use dht_sim::{
        sweep_failure_grid, CampaignTally, LifetimeDistribution, LiveChurnConfig,
        LiveChurnExperiment, LiveChurnTally, StaticResilienceConfig, StaticResilienceExperiment,
        TrialEngine, TrialTally,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable_together() {
        let size = SystemSize::power_of_two(12).unwrap();
        let report = Geometry::hypercube().routability(size, 0.2).unwrap();
        assert!(report.routability > 0.9);
        let overlay = CanOverlay::build(6).unwrap();
        let mask = FailureMask::none(overlay.key_space());
        let space = overlay.key_space();
        assert!(route(&overlay, space.wrap(1), space.wrap(5), &mask).is_delivered());
    }
}
