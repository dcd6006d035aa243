//! Experiment E1 — the worked hypercube example of Fig. 1–3.
//!
//! The paper walks through RCM on an 8-node hypercube rooted at node `011`:
//! the distance distribution is `n(h) = C(3, h)`, the per-hop success
//! probabilities are `1 − q^3`, `1 − q^2`, `1 − q`, and the probability of
//! reaching node `100` (three hops away) is their product. This harness
//! recomputes the table analytically and verifies it against exhaustive
//! Monte-Carlo measurement on the executable 8-node overlay.

use dht_overlay::{route, CanOverlay, FailureMask, Overlay, OverlayError};
use dht_rcm_core::{HypercubeGeometry, RoutingGeometry};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One row of the Fig. 3 table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig3Row {
    /// Hop distance `h`.
    pub hops: u32,
    /// Number of nodes at that distance, `n(h) = C(3, h)`.
    pub nodes_at_distance: u64,
    /// Transition success probability `Pr(S_{h-1} → S_h) = 1 − q^{4−h}`.
    pub transition_success: f64,
    /// Cumulative success probability `p(h, q)`.
    pub cumulative_success: f64,
}

/// Full result of the worked example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Result {
    /// Failure probability used.
    pub failure_probability: f64,
    /// The analytical table of Fig. 3.
    pub rows: Vec<Fig3Row>,
    /// Analytical probability of routing from 011 to 100 (three hops).
    pub analytical_p3: f64,
    /// Monte-Carlo estimate of the same probability on the executable
    /// overlay (conditioned on the source surviving, as RCM does).
    pub simulated_p3: f64,
    /// Number of Monte-Carlo trials behind the estimate.
    pub trials: u64,
}

/// Runs experiment E1.
///
/// # Errors
///
/// Returns [`OverlayError::InvalidParameter`] if `q` is outside `[0, 1]`;
/// overlay construction cannot fail for `d = 3`.
pub fn run(q: f64, trials: u64, seed: u64) -> Result<Fig3Result, OverlayError> {
    crate::check_failure_probability(q)?;
    let geometry = HypercubeGeometry::new();
    let rows: Vec<Fig3Row> = (1..=3u32)
        .map(|h| Fig3Row {
            hops: h,
            nodes_at_distance: geometry.ln_nodes_at_distance(3, h).exp().round() as u64,
            transition_success: 1.0 - q.powi((4 - h) as i32),
            cumulative_success: geometry.hop_success_probability(h, q),
        })
        .collect();
    let analytical_p3 = geometry.hop_success_probability(3, q);

    // Monte-Carlo on the real 8-node overlay: source 011, target 100.
    let overlay = CanOverlay::build(3)?;
    let space = overlay.key_space();
    let source = space.wrap(0b011);
    let target = space.wrap(0b100);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut delivered = 0u64;
    let mut attempts = 0u64;
    // Cap the number of sampled failure patterns so extreme q values cannot
    // spin forever waiting for both endpoints to survive.
    let mut draws_left = trials.saturating_mul(50).max(trials);
    while attempts < trials && draws_left > 0 {
        draws_left -= 1;
        let mask = FailureMask::sample(space, q, &mut rng);
        // Condition on the root surviving (RCM roots are surviving nodes); the
        // destination's own survival is part of p(h, q), so a dead target
        // counts as a failed route rather than being skipped.
        if mask.is_failed(source) {
            continue;
        }
        attempts += 1;
        if route(&overlay, source, target, &mask).is_delivered() {
            delivered += 1;
        }
    }
    Ok(Fig3Result {
        failure_probability: q,
        rows,
        analytical_p3,
        simulated_p3: if attempts == 0 {
            0.0
        } else {
            delivered as f64 / attempts as f64
        },
        trials: attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytical_table_matches_the_paper() {
        let result = run(0.5, 1_000, 1).unwrap();
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.rows[0].nodes_at_distance, 3);
        assert_eq!(result.rows[1].nodes_at_distance, 3);
        assert_eq!(result.rows[2].nodes_at_distance, 1);
        // Pr(S0 -> S1) = 1 - q^3, Pr(S1 -> S2) = 1 - q^2, Pr(S2 -> S3) = 1 - q.
        assert!((result.rows[0].transition_success - 0.875).abs() < 1e-12);
        assert!((result.rows[1].transition_success - 0.75).abs() < 1e-12);
        assert!((result.rows[2].transition_success - 0.5).abs() < 1e-12);
        assert!((result.analytical_p3 - 0.875 * 0.75 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn simulation_agrees_with_analysis_within_monte_carlo_noise() {
        let result = run(0.3, 20_000, 7).unwrap();
        assert!(
            (result.simulated_p3 - result.analytical_p3).abs() < 0.03,
            "analytical {} vs simulated {}",
            result.analytical_p3,
            result.simulated_p3
        );
        assert_eq!(result.trials, 20_000);
    }

    #[test]
    fn zero_failure_is_certain_delivery() {
        let result = run(0.0, 100, 3).unwrap();
        assert_eq!(result.analytical_p3, 1.0);
        assert_eq!(result.simulated_p3, 1.0);
    }
}
