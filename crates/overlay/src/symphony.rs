//! The Symphony-style small-world overlay (§3.5 of the paper).

use crate::failure::FailureMask;
use crate::generic::{GeometryOverlay, GeometryStrategy};
use crate::traits::{validate_bits, OverlayError};
use dht_id::{NodeId, Population};
use rand::Rng;

/// The small-world geometry as a [`GeometryStrategy`]: `k_n` clockwise
/// successors plus `k_s` harmonic shortcuts, greedy non-overshooting
/// forwarding.
///
/// Over a sparse population the near neighbours are the next `k_n` *occupied*
/// identifiers clockwise, and each shortcut draws a harmonic distance over
/// the `n`-node ring — `x ∈ [1, n]` with `P(x) ∝ 1/x`, scaled by `2^d / n`
/// into identifier space — and resolves to the successor of its landing
/// point, the draw-then-successor rule deployed Symphony uses. At full
/// occupancy the scale factor is 1 and the draw reduces exactly to the
/// paper's `e^{U·ln N}` sampler.
#[derive(Debug, Clone, Copy)]
pub struct SymphonyStrategy {
    near_neighbors: u32,
    shortcuts: u32,
}

impl SymphonyStrategy {
    /// A strategy with `near_neighbors` successors and `shortcuts` harmonic
    /// shortcuts per node (validated at overlay construction).
    #[must_use]
    pub fn new(near_neighbors: u32, shortcuts: u32) -> Self {
        SymphonyStrategy {
            near_neighbors,
            shortcuts,
        }
    }

    /// Number of near neighbours per node (`k_n`).
    #[must_use]
    pub fn near_neighbors(&self) -> u32 {
        self.near_neighbors
    }

    /// Number of shortcuts per node (`k_s`).
    #[must_use]
    pub fn shortcuts(&self) -> u32 {
        self.shortcuts
    }
}

impl GeometryStrategy for SymphonyStrategy {
    fn geometry_name(&self) -> &'static str {
        "symphony"
    }

    fn table_width(&self, _population: &Population) -> usize {
        (self.near_neighbors + self.shortcuts) as usize
    }

    fn build_table<R: Rng + ?Sized>(
        &self,
        population: &Population,
        node: NodeId,
        rng: &mut R,
        table: &mut Vec<NodeId>,
    ) {
        let node_count = population.node_count();
        let rank = population
            .index_of(node)
            .expect("tables are built for occupied identifiers only");
        for step in 1..=u64::from(self.near_neighbors) {
            table.push(population.node_at((rank + step) % node_count));
        }
        let id_population = population.space().population();
        for _ in 0..self.shortcuts {
            let distance = harmonic_distance(node_count, id_population, rng);
            table.push(population.successor(node.value().wrapping_add(distance)));
        }
    }

    fn next_hop(
        &self,
        neighbors: &[NodeId],
        current: NodeId,
        target: NodeId,
        alive: &FailureMask,
    ) -> Option<NodeId> {
        crate::chord::ring_greedy_next_hop(neighbors, current, target, alive)
    }

    fn kernel_rule(&self) -> Option<crate::kernel::KernelRule> {
        // Near neighbours and shortcuts share the ring rule: the kernel
        // merges them into one advance-sorted plan per node.
        Some(crate::kernel::KernelRule::RingAdvance)
    }

    fn implicit_stream_words(&self, population: &Population) -> Option<u64> {
        // Near neighbours are positional (no draws); each shortcut draws one
        // `gen::<f64>()` — one `next_u64`, two words — inside
        // `harmonic_distance`. Fixed per node only over full populations
        // (sparse successor chains consume no randomness either, but the
        // implicit backend is full-population by contract).
        population.is_full().then(|| 2 * u64::from(self.shortcuts))
    }

    fn supports_live(&self) -> bool {
        true
    }

    fn build_live_table(
        &self,
        population: &Population,
        node: NodeId,
        node_seed: u64,
        alive: &FailureMask,
        table: &mut Vec<NodeId>,
    ) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(node_seed);
        // The near list is the chain of alive successors: each link starts
        // from the previous one, which is how deployed Symphony maintains its
        // successor list under churn. The chain may wrap back to the node
        // itself when few nodes are alive; such self entries are inert.
        let mut current = node.value();
        for _ in 0..self.near_neighbors {
            let next = crate::live::alive_successor(population, alive, current.wrapping_add(1));
            table.push(next);
            current = next.value();
        }
        // Shortcut distances are drawn before any alive resolution
        // (membership-independent draws, the live-family purity contract) and
        // land on the first alive node clockwise of the landing point.
        let node_count = population.node_count();
        let id_population = population.space().population();
        for _ in 0..self.shortcuts {
            let distance = harmonic_distance(node_count, id_population, &mut rng);
            table.push(crate::live::alive_successor(
                population,
                alive,
                node.value().wrapping_add(distance),
            ));
        }
    }

    fn live_repair_candidates(
        &self,
        population: &Population,
        node: NodeId,
        alive: &FailureMask,
        witnesses: &mut Vec<NodeId>,
        _direct: &mut Vec<NodeId>,
    ) {
        // Both the successor chain and the shortcuts resolve through
        // `alive_successor`; the first entry of any table that the join
        // changes was previously the joiner's own alive successor (the chain
        // argument: the first changed link's input point is unchanged, so its
        // old value is that successor).
        let witness = crate::live::alive_successor(population, alive, node.value().wrapping_add(1));
        if witness != node {
            witnesses.push(witness);
        }
    }
}

/// A one-dimensional small-world overlay in the style of Symphony.
///
/// Every node keeps `k_n` near neighbours (its immediate clockwise
/// successors) and `k_s` long-range shortcuts whose clockwise distance is
/// drawn from the harmonic distribution `P(distance = x) ∝ 1/x` — Kleinberg's
/// exponent for a 1-D small world, which is what gives Symphony its
/// `O(log^2 N)` expected path length.
///
/// Routing is greedy on the clockwise distance and never overshoots the
/// target; when all of a node's connections have failed the message is
/// dropped.
///
/// # Example
///
/// ```rust
/// use dht_overlay::{Overlay, SymphonyOverlay};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(4);
/// let overlay = SymphonyOverlay::build(10, 1, 1, &mut rng)?;
/// assert_eq!(overlay.neighbors(overlay.key_space().wrap(0)).len(), 2);
/// # Ok::<(), dht_overlay::OverlayError>(())
/// ```
pub type SymphonyOverlay = GeometryOverlay<SymphonyStrategy>;

impl GeometryOverlay<SymphonyStrategy> {
    /// Builds the fully populated small-world overlay with `near_neighbors`
    /// clockwise successors and `shortcuts` harmonic shortcuts per node.
    ///
    /// # Errors
    ///
    /// * [`OverlayError::UnsupportedBits`] if `bits` is zero or larger than
    ///   [`crate::traits::MAX_OVERLAY_BITS`] (the materialized ceiling —
    ///   [`crate::ImplicitOverlay::symphony`] routes larger full
    ///   populations).
    /// * [`OverlayError::InvalidParameter`] if either connection count is
    ///   zero, or `near_neighbors >= 2^bits`.
    pub fn build<R: Rng + ?Sized>(
        bits: u32,
        near_neighbors: u32,
        shortcuts: u32,
        rng: &mut R,
    ) -> Result<Self, OverlayError> {
        let space = validate_bits(bits)?;
        Self::build_over(Population::full(space), near_neighbors, shortcuts, rng)
    }

    /// Builds the overlay over an arbitrary (possibly sparse) population.
    ///
    /// # Errors
    ///
    /// As [`SymphonyOverlay::build`], with `near_neighbors` validated against
    /// the occupied node count.
    pub fn build_over<R: Rng + ?Sized>(
        population: Population,
        near_neighbors: u32,
        shortcuts: u32,
        rng: &mut R,
    ) -> Result<Self, OverlayError> {
        if near_neighbors == 0 || shortcuts == 0 {
            return Err(OverlayError::InvalidParameter {
                message: format!(
                    "Symphony needs at least one near neighbour and one shortcut, got k_n={near_neighbors}, k_s={shortcuts}"
                ),
            });
        }
        if u64::from(near_neighbors) >= population.node_count() {
            return Err(OverlayError::InvalidParameter {
                message: format!(
                    "{near_neighbors} near neighbours do not fit a population of {}",
                    population.node_count()
                ),
            });
        }
        Self::over(
            population,
            SymphonyStrategy::new(near_neighbors, shortcuts),
            rng,
        )
    }

    /// Number of near neighbours per node (`k_n`).
    #[must_use]
    pub fn near_neighbors(&self) -> u32 {
        self.strategy().near_neighbors()
    }

    /// Number of shortcuts per node (`k_s`).
    #[must_use]
    pub fn shortcuts(&self) -> u32 {
        self.strategy().shortcuts()
    }
}

/// Draws a clockwise identifier-space distance whose *ring rank* follows the
/// harmonic distribution: `x = e^{U·ln n} ∈ [1, n]` with `P(x) ∝ 1/x`
/// (inverse-transform sampling on the continuous approximation), scaled by
/// `2^d / n` onto identifiers. For a full population (`n = 2^d`) the scale is
/// 1 and this is exactly the paper's `e^{U·ln N}` draw; for a sparse one it
/// keeps Kleinberg's exponent over the `n` occupied nodes instead of wasting
/// mass on distances shorter than the mean successor gap.
fn harmonic_distance<R: Rng + ?Sized>(node_count: u64, id_population: u64, rng: &mut R) -> u64 {
    let ln_n = (node_count as f64).ln();
    let rank = (rng.gen::<f64>() * ln_n).exp();
    let scale = id_population as f64 / node_count as f64;
    // Clamp into [1, id_population - 1] to stay on the ring.
    ((rank * scale).floor() as u64).clamp(1, id_population - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{route, RouteOutcome};
    use crate::traits::Overlay;
    use dht_id::distance::ring_distance;
    use dht_id::KeySpace;
    use dht_mathkit::RunningStats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn build(bits: u32, kn: u32, ks: u32, seed: u64) -> SymphonyOverlay {
        SymphonyOverlay::build(bits, kn, ks, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap()
    }

    #[test]
    fn table_sizes_match_parameters() {
        let overlay = build(10, 2, 3, 1);
        let space = overlay.key_space();
        assert_eq!(overlay.near_neighbors(), 2);
        assert_eq!(overlay.shortcuts(), 3);
        for node in space.iter_ids().step_by(57) {
            assert_eq!(overlay.neighbors(node).len(), 5);
        }
    }

    #[test]
    fn near_neighbors_are_the_immediate_successors() {
        let overlay = build(8, 3, 1, 2);
        let space = overlay.key_space();
        let node = space.wrap(250);
        let neighbors = overlay.neighbors(node);
        assert_eq!(neighbors[0], space.wrap(251));
        assert_eq!(neighbors[1], space.wrap(252));
        assert_eq!(neighbors[2], space.wrap(253));
    }

    #[test]
    fn shortcut_distances_follow_a_heavy_tail() {
        // The harmonic distribution has roughly uniform mass per distance
        // octave, so ln(distance) should be roughly uniform on [0, ln N).
        let overlay = build(14, 1, 1, 3);
        let space = overlay.key_space();
        let mut stats = RunningStats::new();
        for node in space.iter_ids() {
            let shortcut = overlay.neighbors(node)[1];
            stats.push((ring_distance(node, shortcut) as f64).ln());
        }
        let ln_n = (space.population() as f64).ln();
        let expected_mean = ln_n / 2.0;
        assert!(
            (stats.mean() - expected_mean).abs() < 0.35,
            "mean ln-distance {} vs expected {expected_mean}",
            stats.mean()
        );
        assert!(stats.max() > ln_n * 0.8, "no long shortcuts were drawn");
    }

    #[test]
    fn perfect_network_always_delivers() {
        let overlay = build(10, 1, 1, 4);
        let space = overlay.key_space();
        let mask = FailureMask::none(space);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..100 {
            let source = space.random_id(&mut rng);
            let target = space.random_id(&mut rng);
            assert!(
                route(&overlay, source, target, &mask).is_delivered(),
                "greedy ring routing cannot fail without failures"
            );
        }
    }

    #[test]
    fn path_length_scales_like_log_squared() {
        // O(log^2 N / k_s) expected hops: for N = 2^12 and k_s = 1 that is on
        // the order of 100 hops; with k_s = 4 it drops well below that.
        let sparse = build(12, 1, 1, 5);
        let dense = build(12, 1, 4, 5);
        let space = sparse.key_space();
        let mask = FailureMask::none(space);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut sparse_hops = RunningStats::new();
        let mut dense_hops = RunningStats::new();
        for _ in 0..300 {
            let source = space.random_id(&mut rng);
            let target = space.random_id(&mut rng);
            if let RouteOutcome::Delivered { hops } = route(&sparse, source, target, &mask) {
                sparse_hops.push(f64::from(hops));
            }
            if let RouteOutcome::Delivered { hops } = route(&dense, source, target, &mask) {
                dense_hops.push(f64::from(hops));
            }
        }
        assert!(sparse_hops.mean() > dense_hops.mean());
        assert!(
            sparse_hops.mean() < 12.0 * 12.0,
            "expected O(log^2 N) hops, got {}",
            sparse_hops.mean()
        );
    }

    #[test]
    fn drops_when_all_connections_of_a_node_fail() {
        let overlay = build(8, 1, 1, 7);
        let space = overlay.key_space();
        let source = space.wrap(10);
        let target = space.wrap(200);
        // Fail every neighbour of the source: the very first hop has nowhere
        // to go.
        let mask = FailureMask::from_failed_nodes(space, overlay.neighbors(source).to_vec());
        match route(&overlay, source, target, &mask) {
            RouteOutcome::Dropped { hops: 0, stuck_at } => assert_eq!(stuck_at, source),
            RouteOutcome::TargetFailed => {
                // Possible if a neighbour of the source happens to be the target.
                assert!(overlay.neighbors(source).contains(&target));
            }
            other => panic!("expected an immediate drop, got {other:?}"),
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(SymphonyOverlay::build(8, 0, 1, &mut rng).is_err());
        assert!(SymphonyOverlay::build(8, 1, 0, &mut rng).is_err());
        assert!(SymphonyOverlay::build(2, 4, 1, &mut rng).is_err());
        assert!(SymphonyOverlay::build(0, 1, 1, &mut rng).is_err());
    }

    #[test]
    fn sparse_near_neighbors_are_occupied_successors() {
        let space = KeySpace::new(8).unwrap();
        let occupied = [5u64, 9, 100, 200];
        let population =
            Population::sparse(space, occupied.into_iter().map(|v| space.wrap(v))).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let overlay = SymphonyOverlay::build_over(population, 2, 1, &mut rng).unwrap();
        let neighbors = overlay.neighbors(space.wrap(100));
        assert_eq!(neighbors[0], space.wrap(200));
        assert_eq!(neighbors[1], space.wrap(5), "successors wrap the ring");
        assert!(overlay.population().contains(neighbors[2]));
        // Too few occupied nodes for the requested near neighbours.
        let tiny = Population::sparse(space, [space.wrap(1), space.wrap(2)]).unwrap();
        assert!(SymphonyOverlay::build_over(tiny, 2, 1, &mut rng).is_err());
    }

    #[test]
    fn sparse_shortcuts_are_harmonic_over_ranks_not_identifiers() {
        // At 1/16 occupancy the draw is rescaled by 2^d / n, so shortcut
        // *rank* distances (number of occupied nodes skipped) must still be
        // heavy-tailed with mean ln-rank ≈ ln(n)/2 — not collapsed onto the
        // immediate successor as an unscaled identifier-space draw would be.
        let space = KeySpace::new(14).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let node_count = 1u64 << 10;
        let population = Population::sample_uniform(space, node_count, &mut rng).unwrap();
        let overlay = SymphonyOverlay::build_over(population, 1, 1, &mut rng).unwrap();
        let population = overlay.population();
        let mut stats = RunningStats::new();
        let mut successor_hits = 0u64;
        for node in population.iter_nodes() {
            let shortcut = overlay.neighbors(node)[1];
            let rank = population.index_of(node).unwrap();
            let shortcut_rank = population.index_of(shortcut).unwrap();
            let rank_distance = (shortcut_rank + node_count - rank) % node_count;
            if rank_distance <= 1 {
                successor_hits += 1;
            }
            stats.push((rank_distance.max(1) as f64).ln());
        }
        let ln_n = (node_count as f64).ln();
        assert!(
            (stats.mean() - ln_n / 2.0).abs() < 0.6,
            "mean ln rank-distance {} vs expected {}",
            stats.mean(),
            ln_n / 2.0
        );
        assert!(
            (successor_hits as f64) < 0.25 * node_count as f64,
            "{successor_hits} of {node_count} shortcuts collapsed onto the successor"
        );
    }

    #[test]
    fn sparse_intact_small_world_always_delivers() {
        let space = KeySpace::new(12).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let population = Population::sample_uniform(space, 1 << 9, &mut rng).unwrap();
        let overlay = SymphonyOverlay::build_over(population, 1, 2, &mut rng).unwrap();
        let mask = FailureMask::none_over(overlay.population());
        for _ in 0..100 {
            let source = overlay.population().random_node(&mut rng);
            let target = overlay.population().random_node(&mut rng);
            assert!(
                route(&overlay, source, target, &mask).is_delivered(),
                "the successor link keeps an intact sparse ring routable"
            );
        }
    }
}
