//! Static resilience beyond the materialized ceiling: the implicit backend
//! at `2^26`–`2^30` nodes.
//!
//! The materialized overlays stop at [`dht_overlay::MAX_OVERLAY_BITS`] bits
//! because every routing-table row lives in memory. This harness drives the
//! same measurement loop — sample a failure pattern, route survivor pairs
//! through [`dht_sim::TrialEngine`], tally — over
//! [`dht_overlay::ImplicitOverlay`]s, whose rows are regenerated from the
//! construction seed on demand. The resident set of a point is therefore the
//! failure mask (one bit per identifier), the pair sampler's survivor index
//! (one eighth of the mask) and the per-worker row caches, *independent of
//! the edge count*: a `2^30`-node ring routes end to end from roughly a
//! 144 MiB footprint (a 128 MiB mask and a 16 MiB index) where the
//! materialized build would need hundreds of gigabytes. Each
//! [`ImplicitScalePoint`] records both measured routability and the byte
//! accounting that proves the claim.
//!
//! Seed convention (matching the static-resilience family): `SeedSequence`
//! child 0 of the root seed is the overlay construction stream, child 1 the
//! measurement root; point `k` splits the measurement root into mask stream
//! `2k` and pair stream `2k + 1`.

use dht_overlay::{ChordVariant, FailureMask, ImplicitOverlay, Overlay, OverlayError};
use dht_sim::{SeedSequence, TrialEngine};
use serde::{Deserialize, Serialize};

/// One measured size of an implicit-scale sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImplicitScalePoint {
    /// Geometry name.
    pub geometry: String,
    /// Identifier length (`N = 2^bits`).
    pub bits: u32,
    /// Population size `2^bits`.
    pub node_count: u64,
    /// Applied failure probability.
    pub failure_probability: f64,
    /// Survivor pairs routed.
    pub pairs: u64,
    /// Delivered percentage.
    pub routability_percent: f64,
    /// Mean hops over delivered messages.
    pub mean_hops: f64,
    /// Largest observed hop count.
    pub max_hops: u32,
    /// Bytes of routing state the overlay keeps resident (constant for the
    /// implicit backend).
    pub overlay_resident_bytes: u64,
    /// Bytes of the failure-mask bitset (the dominant resident structure).
    pub mask_resident_bytes: u64,
    /// Conceptual directed edges the materialized backend would store.
    pub implied_edges: u64,
}

/// Builds the implicit overlay for a geometry name, replaying the shared
/// construction stream seeded by `stream_seed` — the generative twin of
/// [`crate::spec::build_full_overlay`] (same geometry names, same Symphony
/// `(1, 1)` parameters, same stream seed convention), so the two backends
/// produce bit-identical routing wherever both can run.
///
/// # Errors
///
/// Returns [`OverlayError::InvalidParameter`] for unknown geometry names and
/// any [`OverlayError`] the backend raises (e.g. `bits` beyond
/// [`dht_overlay::MAX_IMPLICIT_OVERLAY_BITS`]).
pub fn build_implicit_overlay(
    geometry: &str,
    bits: u32,
    stream_seed: u64,
) -> Result<Box<dyn Overlay>, OverlayError> {
    Ok(match geometry {
        "ring" => Box::new(ImplicitOverlay::ring(
            bits,
            ChordVariant::Deterministic,
            stream_seed,
        )?),
        "xor" => Box::new(ImplicitOverlay::xor(bits, stream_seed)?),
        "tree" => Box::new(ImplicitOverlay::tree(bits, stream_seed)?),
        "hypercube" => Box::new(ImplicitOverlay::hypercube(bits)?),
        "symphony" => Box::new(ImplicitOverlay::symphony(bits, 1, 1, stream_seed)?),
        other => {
            return Err(OverlayError::InvalidParameter {
                message: format!(
                    "unknown geometry {other:?} (expected ring, xor, tree, hypercube or symphony)"
                ),
            })
        }
    })
}

/// Runs the sweep: one implicit `geometry` overlay per size `2^bits` of
/// `bits_list`, each failed with probability `failure_probability` and
/// measured over `pairs` survivor pairs from the root `seed`.
///
/// # Errors
///
/// Returns [`OverlayError`] if `failure_probability` is outside `[0, 1]`,
/// on construction failures, or when a sampled failure pattern leaves fewer
/// than two survivors.
pub fn run(
    geometry: &str,
    bits_list: &[u32],
    failure_probability: f64,
    pairs: u64,
    seed: u64,
    threads: usize,
) -> Result<Vec<ImplicitScalePoint>, OverlayError> {
    crate::check_failure_probability(failure_probability)?;
    let seeds = SeedSequence::new(seed);
    let stream_seed = seeds.child(0);
    let measurement = SeedSequence::new(seeds.child(1));
    let engine = TrialEngine::new(threads);
    let mut points = Vec::with_capacity(bits_list.len());
    for (index, &bits) in bits_list.iter().enumerate() {
        let overlay = build_implicit_overlay(geometry, bits, stream_seed)?;
        let mask = FailureMask::sample_seeded(
            overlay.population(),
            failure_probability,
            measurement.child(2 * index as u64),
            engine.threads(),
        );
        let pair_seed = measurement.child(2 * index as u64 + 1);
        let tally = engine
            .run_trial(overlay.as_ref(), &mask, pairs, pair_seed)
            .ok_or_else(|| OverlayError::InvalidParameter {
                message: format!(
                    "failure probability {failure_probability} leaves fewer than two survivors at 2^{bits}"
                ),
            })?;
        points.push(ImplicitScalePoint {
            geometry: geometry.to_owned(),
            bits,
            node_count: overlay.node_count(),
            failure_probability,
            pairs: tally.attempted,
            routability_percent: 100.0 * tally.routability(),
            mean_hops: tally.hop_stats.mean(),
            max_hops: tally.max_hops,
            overlay_resident_bytes: overlay.resident_bytes() as u64,
            mask_resident_bytes: std::mem::size_of_val(mask.words()) as u64,
            implied_edges: overlay.edge_count(),
        });
    }
    Ok(points)
}

/// Fixed-width presentation of a sweep (what `scenario run` prints).
#[must_use]
pub fn render_implicit_scale_table(points: &[ImplicitScalePoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>12} {:>10} {:>9} {:>16} {:>16}",
        "bits", "nodes", "routable %", "mean hops", "max hops", "overlay bytes", "mask bytes"
    );
    for point in points {
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>12.2} {:>10.2} {:>9} {:>16} {:>16}",
            point.bits,
            point.node_count,
            point.routability_percent,
            point.mean_hops,
            point.max_hops,
            point.overlay_resident_bytes,
            point.mask_resident_bytes,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_overlay::{ChordOverlay, KademliaOverlay, PlaxtonOverlay, SymphonyOverlay};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn builder_covers_all_five_geometries_and_rejects_unknowns() {
        for geometry in ["ring", "xor", "tree", "hypercube", "symphony"] {
            let overlay = build_implicit_overlay(geometry, 8, 7).unwrap();
            assert_eq!(overlay.geometry_name(), geometry);
            assert!(overlay.implicit_kernel().is_some());
        }
        assert!(build_implicit_overlay("moebius", 8, 7).is_err());
    }

    /// The builder's stream-seed convention matches the materialized
    /// builders used by `build_full_overlay` — same seed, same tables.
    #[test]
    fn builder_twins_the_materialized_construction() {
        let seed = 99;
        let implicit = ImplicitOverlay::xor(8, seed).unwrap();
        let materialized = KademliaOverlay::build(8, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let space = implicit.key_space();
        for node in space.iter_ids() {
            assert_eq!(implicit.table_of(node), materialized.neighbors(node));
        }
        let implicit = ImplicitOverlay::tree(8, seed).unwrap();
        let materialized = PlaxtonOverlay::build(8, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        for node in space.iter_ids() {
            assert_eq!(implicit.table_of(node), materialized.neighbors(node));
        }
        let implicit = ImplicitOverlay::ring(8, ChordVariant::Deterministic, seed).unwrap();
        let materialized = ChordOverlay::build(8, ChordVariant::Deterministic).unwrap();
        for node in space.iter_ids() {
            assert_eq!(implicit.table_of(node), materialized.neighbors(node));
        }
    }

    #[test]
    fn smoke_sweep_routes_and_accounts_memory() {
        // The smoke spec's ring at q = 0.1, at smaller sizes and budget.
        let points = run("ring", &[10, 12], 0.1, 500, 2006, 4).unwrap();
        assert_eq!(points.len(), 2);
        for point in &points {
            assert_eq!(point.pairs, 500);
            assert!(point.routability_percent > 50.0);
            // The implicit overlay's resident state never scales with N.
            assert!(point.overlay_resident_bytes < 1024);
            assert_eq!(point.mask_resident_bytes, (1u64 << point.bits) / 8);
        }
        assert!(points[1].implied_edges > points[0].implied_edges);
        let table = render_implicit_scale_table(&points);
        assert!(table.contains("mask bytes"));
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let one = run("ring", &[10], 0.1, 1_000, 2006, 1).unwrap();
        assert_eq!(one, run("ring", &[10], 0.1, 1_000, 2006, 8).unwrap());
    }

    #[test]
    fn symphony_materialized_twin_matches() {
        let seed = 55;
        let implicit = ImplicitOverlay::symphony(7, 1, 1, seed).unwrap();
        let materialized =
            SymphonyOverlay::build(7, 1, 1, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let space = implicit.key_space();
        for node in space.iter_ids() {
            assert_eq!(implicit.table_of(node), materialized.neighbors(node));
        }
    }
}
