//! Experiment: **live churn** — the discrete-event simulator of
//! [`dht_sim::events`] driven over a session-time × lookup-rate grid, with
//! per-geometry delivery and hop curves, validated in the stationary regime
//! against the routing Markov chains of `dht-markov`.
//!
//! The paper's churn treatment is static: kill a Bernoulli(`q`) fraction,
//! measure, rebuild. This harness runs the *process* instead — alternating
//! up/down node sessions in continuous time with lookups arriving as
//! Poisson traffic — in two modes:
//!
//! * **frozen** (`repair = false`): routing tables stay at the all-alive
//!   build while the liveness mask moves. By renewal theory each node is
//!   offline with stationary probability `q* = E[D] / (E[L] + E[D])`, so
//!   after warmup the delivery ratio must match the *static* model at
//!   `q*` — the chain-predicted routability `r(N, q*)`. That closes the
//!   loop between the event simulator and the paper's analysis.
//! * **repair** (`repair = true`): every departure and return is
//!   delta-patched into the overlay (the incremental repair proven
//!   equivalent to rebuild in `dht-overlay`), which restores near-perfect
//!   delivery and measures what maintenance actually buys.

use dht_id::{KeySpace, Population};
use dht_markov::chains::{hypercube_chain, ring_chain, tree_chain, xor_chain};
use dht_markov::{ChainError, ChainFamily};
use dht_overlay::can::CanStrategy;
use dht_overlay::chord::ChordStrategy;
use dht_overlay::kademlia::KademliaStrategy;
use dht_overlay::plaxton::PlaxtonStrategy;
use dht_overlay::symphony::SymphonyStrategy;
use dht_overlay::{ChordVariant, GeometryStrategy, LiveOverlay, MAX_OVERLAY_BITS};
use dht_rcm_core::RoutingGeometry;
use dht_sim::{
    LifetimeDistribution, LiveChurnConfig, LiveChurnExperiment, LiveChurnTally, SimError,
};
use serde::{Deserialize, Serialize};

/// One measured grid point: a geometry under one churn/traffic intensity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveChurnPoint {
    /// Geometry name (`ring`, `xor`, `tree`, `hypercube`, `symphony`).
    pub geometry: String,
    /// Identifier-space bits (the population is full, `N = 2^bits`).
    pub bits: u32,
    /// Mean node session time `E[L]`.
    pub mean_session_time: f64,
    /// Mean offline time `E[D]`.
    pub mean_downtime: f64,
    /// Poisson lookup arrival rate.
    pub lookup_rate: f64,
    /// Whether departures/returns repaired the overlay in place.
    pub repair: bool,
    /// Stationary offline fraction `q* = E[D] / (E[L] + E[D])`.
    pub stationary_failure_fraction: f64,
    /// Time-averaged offline fraction actually observed in the window.
    pub observed_dead_fraction: f64,
    /// Chain-predicted static routability `r(N, q*)` — the frozen-mode
    /// reference; `None` for geometries without a chain model here or in
    /// repair mode (where the static model does not apply).
    pub predicted_routability: Option<f64>,
    /// Delivered fraction of measured lookups.
    pub delivery_ratio: f64,
    /// Mean hop count over delivered lookups.
    pub mean_hops: f64,
    /// Lookups measured inside the window.
    pub attempted: u64,
    /// Total events processed (all replicas, warmup included).
    pub events: u64,
    /// Routing-table rows rewritten by incremental repair.
    pub repairs: u64,
}

/// The static routability `r(N, q)` predicted by the geometry's routing
/// Markov chain: `E[S] = Σ_h n(h)·p_chain(h, q)` over the per-distance
/// absorption probabilities, normalised by the expected survivor peers
/// `(1 − q)·N − 1` (Eq. 3 of the paper, with the chain solution in place
/// of the closed form).
///
/// Returns `None` for geometries without a chain model here (Symphony's
/// chain needs the `(k_n, k_s)` parameters and its own distance model).
///
/// # Errors
///
/// Returns [`ChainError`] if a chain cannot be built or solved.
pub fn chain_predicted_routability(
    geometry: &str,
    bits: u32,
    q: f64,
) -> Result<Option<f64>, ChainError> {
    chain_predicted_routability_with(geometry, bits, q, |family, h, hop_q| {
        let chain = match family {
            ChainFamily::Ring => ring_chain(h, hop_q)?,
            ChainFamily::Xor => xor_chain(h, hop_q)?,
            ChainFamily::Tree => tree_chain(h, hop_q)?,
            ChainFamily::Hypercube => hypercube_chain(h, hop_q)?,
        };
        chain.success_probability()
    })
}

/// [`chain_predicted_routability`] with the per-hop chain solve supplied by
/// the caller — the hook the report server uses to route solves through a
/// shared [`dht_markov::ChainCache`] instead of rebuilding chains per query.
///
/// `solve(family, h, q)` must return the chain success probability for `h`
/// hops at failure probability `q`; it is called once per hop distance of
/// the geometry.
///
/// # Errors
///
/// Propagates any [`ChainError`] returned by `solve`.
pub fn chain_predicted_routability_with<F>(
    geometry: &str,
    bits: u32,
    q: f64,
    mut solve: F,
) -> Result<Option<f64>, ChainError>
where
    F: FnMut(ChainFamily, u32, f64) -> Result<f64, ChainError>,
{
    let Some(family) = ChainFamily::from_geometry_name(geometry) else {
        return Ok(None);
    };
    let model = match family {
        ChainFamily::Ring => dht_rcm_core::Geometry::ring(),
        ChainFamily::Xor => dht_rcm_core::Geometry::xor(),
        ChainFamily::Tree => dht_rcm_core::Geometry::tree(),
        ChainFamily::Hypercube => dht_rcm_core::Geometry::hypercube(),
    };
    let survivors = (1.0 - q) * (1u64 << bits) as f64;
    if survivors <= 1.0 {
        return Ok(None);
    }
    let mut expected_reachable = 0.0;
    for h in 1..=model.max_distance(bits) {
        let ln_count = model.ln_nodes_at_distance(bits, h);
        if ln_count == f64::NEG_INFINITY {
            continue;
        }
        expected_reachable += ln_count.exp() * solve(family, h, q)?;
    }
    Ok(Some((expected_reachable / (survivors - 1.0)).min(1.0)))
}

/// Runs one grid point: `geometry` over a full `2^bits` population under
/// the churn process, traffic, mode and seed of `config`.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfiguration`] for an unknown geometry or an
/// unsupported key space: live overlays materialize their tables, so `bits`
/// stops at [`MAX_OVERLAY_BITS`].
pub fn run_point(
    geometry: &str,
    bits: u32,
    config: &LiveChurnConfig,
) -> Result<LiveChurnPoint, SimError> {
    if bits > MAX_OVERLAY_BITS {
        return Err(SimError::InvalidConfiguration {
            message: format!(
                "live churn materializes its tables: bits must be at most {MAX_OVERLAY_BITS}, got {bits}"
            ),
        });
    }
    let space = KeySpace::new(bits).map_err(|err| SimError::InvalidConfiguration {
        message: format!("invalid key space: {err}"),
    })?;
    let experiment = LiveChurnExperiment::new(*config);
    let tally = match geometry {
        "ring" => run_strategy(
            &experiment,
            space,
            ChordStrategy::new(ChordVariant::Deterministic),
        ),
        "xor" => run_strategy(&experiment, space, KademliaStrategy),
        "tree" => run_strategy(&experiment, space, PlaxtonStrategy),
        "hypercube" => run_strategy(&experiment, space, CanStrategy),
        "symphony" => run_strategy(&experiment, space, SymphonyStrategy::new(2, 2)),
        other => {
            return Err(SimError::InvalidConfiguration {
                message: format!("unknown live-churn geometry {other}"),
            })
        }
    };
    let q_star = config.stationary_failure_fraction();
    let predicted = if config.repair() {
        None
    } else {
        chain_predicted_routability(geometry, bits, q_star).map_err(|err| {
            SimError::InvalidConfiguration {
                message: format!("chain prediction failed: {err}"),
            }
        })?
    };
    Ok(LiveChurnPoint {
        geometry: geometry.to_owned(),
        bits,
        mean_session_time: config.lifetime().mean(),
        mean_downtime: config.downtime().mean(),
        lookup_rate: config.lookup_rate(),
        repair: config.repair(),
        stationary_failure_fraction: q_star,
        observed_dead_fraction: tally.dead_fraction(),
        predicted_routability: predicted,
        delivery_ratio: tally.delivery_ratio(),
        mean_hops: tally.hop_stats.mean(),
        attempted: tally.attempted,
        events: tally.events,
        repairs: tally.repairs,
    })
}

fn run_strategy<S: GeometryStrategy + Clone>(
    experiment: &LiveChurnExperiment,
    space: KeySpace,
    strategy: S,
) -> LiveChurnTally {
    experiment.run(move |master_seed| {
        LiveOverlay::build(Population::full(space), strategy.clone(), master_seed)
            .expect("all catalogue geometries support live churn")
    })
}

/// The five geometries swept by [`run_grid`].
pub const GEOMETRIES: [&str; 5] = ["ring", "xor", "tree", "hypercube", "symphony"];

/// Sweeps the session-time × lookup-rate grid over a full `2^bits`
/// population in both frozen and repair mode: for every session time ×
/// lookup rate × geometry, one frozen point (with its chain prediction) and
/// one repaired point. Sessions and downtimes are exponential (mean
/// `mean_downtime` offline); each point simulates `duration` time units,
/// measures after `warmup` and averages `replicas` replicas.
///
/// Grid point `k` (in sweep order) is seeded with child `k` of a
/// [`dht_sim::SeedSequence`] rooted at `seed` — the repository-wide
/// convention shared with [`dht_sim::sweep_failure_grid`], so per-point
/// streams are well-mixed and never correlate across adjacent points or
/// nearby root seeds.
///
/// # Errors
///
/// Returns [`SimError`] for parameters [`LiveChurnConfig`] rejects and as
/// in [`run_point`].
#[allow(clippy::too_many_arguments)]
pub fn run_grid(
    bits: u32,
    session_times: &[f64],
    lookup_rates: &[f64],
    mean_downtime: f64,
    duration: f64,
    warmup: f64,
    replicas: u32,
    seed: u64,
    threads: usize,
) -> Result<Vec<LiveChurnPoint>, SimError> {
    let seeds = dht_sim::SeedSequence::new(seed);
    let mut points = Vec::new();
    for &session_time in session_times {
        for &lookup_rate in lookup_rates {
            let config = LiveChurnConfig::new(
                LifetimeDistribution::exponential(session_time)?,
                LifetimeDistribution::exponential(mean_downtime)?,
                duration,
                lookup_rate,
            )?
            .with_warmup(warmup)
            .with_replicas(replicas)
            .with_threads(threads);
            for geometry in GEOMETRIES {
                for repair in [false, true] {
                    let point_seed = seeds.child(points.len() as u64);
                    let config = config.with_repair(repair).with_seed(point_seed);
                    points.push(run_point(geometry, bits, &config)?);
                }
            }
        }
    }
    Ok(points)
}

/// Renders grid points as the fixed-width table `scenario run` prints.
#[must_use]
pub fn render_live_churn_table(points: &[LiveChurnPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>6} {:>6} {:>7} {:>6} {:>9} {:>9} {:>9} {:>7}",
        "geometry",
        "bits",
        "E[L]",
        "rate",
        "repair",
        "q*",
        "predicted",
        "delivered",
        "hops",
        "repairs"
    );
    for point in points {
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>6.2} {:>6.0} {:>7} {:>6.3} {:>9} {:>9.4} {:>9.2} {:>7}",
            point.geometry,
            point.bits,
            point.mean_session_time,
            point.lookup_rate,
            point.repair,
            point.stationary_failure_fraction,
            point
                .predicted_routability
                .map_or_else(|| "-".to_owned(), |r| format!("{r:.4}")),
            point.delivery_ratio,
            point.mean_hops,
            point.repairs,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A point of the steady-state validation scale: `q* = 0.2` (`E[L] = 2`,
    /// `E[D] = 0.5`), enough traffic in the window for ±1% sampling error.
    fn validation_config(repair: bool) -> LiveChurnConfig {
        churn_config(2.0, 600.0, 26.0, 10.0, repair, 17)
    }

    fn churn_config(
        session_time: f64,
        lookup_rate: f64,
        duration: f64,
        warmup: f64,
        repair: bool,
        seed: u64,
    ) -> LiveChurnConfig {
        LiveChurnConfig::new(
            LifetimeDistribution::exponential(session_time).unwrap(),
            LifetimeDistribution::exponential(0.5).unwrap(),
            duration,
            lookup_rate,
        )
        .unwrap()
        .with_warmup(warmup)
        .with_repair(repair)
        .with_replicas(2)
        .with_threads(2)
        .with_seed(seed)
    }

    #[test]
    fn frozen_steady_state_matches_the_chain_prediction() {
        // Satellite acceptance: the frozen-table live-churn delivery ratio
        // for the ring and XOR geometries must sit within tolerance of the
        // Markov-chain routability at q* = E[D]/(E[L]+E[D]) = 0.2.
        for geometry in ["ring", "xor"] {
            let point = run_point(geometry, 8, &validation_config(false)).unwrap();
            assert!(point.attempted > 5_000, "{geometry}: too few lookups");
            let predicted = point
                .predicted_routability
                .expect("ring and xor have chain models");
            assert!(
                (point.delivery_ratio - predicted).abs() < 0.10,
                "{geometry}: simulated delivery {:.4} vs chain prediction {:.4}",
                point.delivery_ratio,
                predicted
            );
            // The churn process itself must sit at its stationary point,
            // otherwise the comparison above is vacuous.
            assert!(
                (point.observed_dead_fraction - 0.2).abs() < 0.04,
                "{geometry}: dead fraction {:.4} far from q* = 0.2",
                point.observed_dead_fraction
            );
        }
    }

    #[test]
    fn repair_mode_restores_near_perfect_delivery() {
        let point = run_point("ring", 8, &validation_config(true)).unwrap();
        assert!(point.repairs > 0, "repair mode must rewrite tables");
        assert!(
            point.delivery_ratio >= 0.999,
            "repaired ring delivery {:.5} below 0.999",
            point.delivery_ratio
        );
        assert!(point.predicted_routability.is_none());
    }

    #[test]
    fn smoke_grid_covers_every_geometry_in_both_modes() {
        // The smoke grid of `Family::LiveChurn.default_spec(true)`.
        let points = run_grid(6, &[2.0], &[150.0], 0.5, 12.0, 4.0, 2, 29, 2).unwrap();
        assert_eq!(points.len(), GEOMETRIES.len() * 2, "one point per axis");
        for geometry in GEOMETRIES {
            assert!(points.iter().any(|p| p.geometry == geometry && p.repair));
            assert!(points.iter().any(|p| p.geometry == geometry && !p.repair));
        }
        for point in &points {
            assert!(
                point.attempted > 0,
                "{}: no traffic measured",
                point.geometry
            );
            assert!((0.0..=1.0).contains(&point.delivery_ratio));
            if point.repair {
                assert!(point.repairs > 0, "{}: no repairs", point.geometry);
            } else {
                assert_eq!(point.repairs, 0, "{}: frozen mode repaired", point.geometry);
            }
        }
        // Repair never hurts delivery on the same grid point.
        for frozen in points.iter().filter(|p| !p.repair) {
            let repaired = points
                .iter()
                .find(|p| {
                    p.repair
                        && p.geometry == frozen.geometry
                        && p.mean_session_time == frozen.mean_session_time
                        && p.lookup_rate == frozen.lookup_rate
                })
                .unwrap();
            assert!(repaired.delivery_ratio + 0.02 >= frozen.delivery_ratio);
        }
        let table = render_live_churn_table(&points);
        assert!(table.contains("ring") && table.contains("hypercube"));
        let json = serde_json::to_string(&points).unwrap();
        let back: Vec<LiveChurnPoint> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, points);
    }

    #[test]
    fn chain_prediction_is_sane_and_bounded() {
        for geometry in ["ring", "xor", "tree", "hypercube"] {
            let r = chain_predicted_routability(geometry, 8, 0.2)
                .unwrap()
                .expect("chain model exists");
            assert!((0.0..=1.0).contains(&r), "{geometry}: r = {r}");
        }
        assert_eq!(
            chain_predicted_routability("symphony", 8, 0.2).unwrap(),
            None
        );
        // At q = 0 every chain predicts full routability.
        let perfect = chain_predicted_routability("ring", 8, 0.0)
            .unwrap()
            .unwrap();
        assert!((perfect - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_geometry_is_rejected() {
        let config = churn_config(2.0, 50.0, 12.0, 4.0, false, 1);
        assert!(run_point("torus", 6, &config).is_err());
    }
}
