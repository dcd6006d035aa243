//! The Chord-style ring overlay (§3.4 of the paper).

use crate::failure::FailureMask;
use crate::generic::{GeometryOverlay, GeometryStrategy, NoRandomness};
use crate::kernel::RowForm;
use crate::traits::{validate_bits, Overlay, OverlayError};
use dht_id::{distance::ring_distance, NodeId, Population};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How the finger targets are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChordVariant {
    /// Classic Chord: the `i`-th finger of node `a` points exactly at
    /// `a + 2^{i−1} (mod 2^d)`.
    Deterministic,
    /// Randomised Chord, the variant the paper analyses: the `i`-th finger is
    /// drawn uniformly from clockwise distance `[2^{i−1}, 2^i)`.
    Randomized,
}

/// The ring geometry as a [`GeometryStrategy`]: `d` fingers per node, greedy
/// clockwise forwarding that never overshoots.
///
/// Over a sparse population each finger points at the *successor* of its
/// target point — the first occupied identifier clockwise from
/// `a + 2^{i−1} (+ offset)` — exactly as deployed Chord resolves fingers. The
/// finger covering distance 1 therefore always holds the node's immediate
/// successor, so an intact sparse ring remains fully routable.
#[derive(Debug, Clone, Copy)]
pub struct ChordStrategy {
    variant: ChordVariant,
}

impl ChordStrategy {
    /// A strategy for the given finger-selection variant.
    #[must_use]
    pub fn new(variant: ChordVariant) -> Self {
        ChordStrategy { variant }
    }

    /// Which finger-selection variant this strategy applies.
    #[must_use]
    pub fn variant(&self) -> ChordVariant {
        self.variant
    }
}

impl GeometryStrategy for ChordStrategy {
    fn geometry_name(&self) -> &'static str {
        "ring"
    }

    fn table_len_hint(&self, population: &Population) -> usize {
        population.space().bits() as usize
    }

    fn build_table<R: Rng + ?Sized>(
        &self,
        population: &Population,
        node: NodeId,
        rng: &mut R,
        table: &mut Vec<NodeId>,
    ) {
        let bits = population.space().bits();
        for finger in 1..=bits {
            // Finger `finger` covers clockwise distance [2^{finger-1}, 2^finger).
            let base = 1u64 << (finger - 1);
            let span = base; // width of the interval
            let offset = match self.variant {
                ChordVariant::Deterministic => 0,
                ChordVariant::Randomized => {
                    if span <= 1 {
                        0
                    } else {
                        rng.gen_range(0..span)
                    }
                }
            };
            let target_point = node.value().wrapping_add(base + offset);
            table.push(population.successor(target_point));
        }
    }

    fn next_hop(
        &self,
        neighbors: &[NodeId],
        current: NodeId,
        target: NodeId,
        alive: &FailureMask,
    ) -> Option<NodeId> {
        ring_greedy_next_hop(neighbors, current, target, alive)
    }

    fn kernel_rule(&self) -> Option<crate::kernel::KernelRule> {
        // Hop key: each finger's clockwise advance, fixed at build time.
        Some(crate::kernel::KernelRule::RingAdvance)
    }

    fn implicit_stream_words(&self, population: &Population) -> Option<u64> {
        if !population.is_full() {
            return None;
        }
        match self.variant {
            // Deterministic fingers draw nothing.
            ChordVariant::Deterministic => Some(0),
            // Every finger above the first draws one `gen_range` over a
            // power-of-two span — exactly one `next_u64` (two words) with the
            // vendored Lemire sampler, which never rejects on power-of-two
            // spans. Finger 1 has span 1 and draws nothing.
            ChordVariant::Randomized => {
                Some(2 * u64::from(population.space().bits().saturating_sub(1)))
            }
        }
    }

    fn row_form(&self, population: &Population) -> RowForm {
        // Over a full population deterministic fingers are `n + 2^i`.
        if population.is_full() && self.variant == ChordVariant::Deterministic {
            RowForm::ClosedForm
        } else {
            RowForm::Rows
        }
    }

    fn supports_live(&self) -> bool {
        true
    }

    fn live_table_width(&self, population: &Population) -> usize {
        population.space().bits() as usize
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
        let bits = population.space().bits();
        for finger in 1..=bits {
            let base = 1u64 << (finger - 1);
            let span = base;
            // The offset is drawn for every finger, alive set unseen —
            // membership-independent draws keep the table a pure function of
            // the alive set (the live-family purity contract).
            let offset = match self.variant {
                ChordVariant::Deterministic => 0,
                ChordVariant::Randomized => {
                    if span <= 1 {
                        0
                    } else {
                        rng.gen_range(0..span)
                    }
                }
            };
            let target_point = node.value().wrapping_add(base + offset);
            table.push(crate::live::alive_successor(
                population,
                alive,
                target_point,
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
        // Every live finger is `alive_successor(p)` for a fixed point `p`,
        // and reviving `node` changes that resolution only where the old
        // result was the first alive node clockwise of `node` — so every
        // table entry that should now point at the joiner currently points
        // at that single successor.
        let witness = crate::live::alive_successor(population, alive, node.value().wrapping_add(1));
        if witness != node {
            witnesses.push(witness);
        }
    }
}

/// The greedy non-overshooting ring rule shared by the Chord and Symphony
/// geometries: the hop must land within the arc `(current, target]`, and
/// among those the one closest to the target (i.e. the longest admissible
/// connection) wins.
pub(crate) fn ring_greedy_next_hop(
    neighbors: &[NodeId],
    current: NodeId,
    target: NodeId,
    alive: &FailureMask,
) -> Option<NodeId> {
    let remaining = ring_distance(current, target);
    neighbors
        .iter()
        .copied()
        .filter(|&n| {
            alive.is_alive(n) && {
                let advance = ring_distance(current, n);
                advance > 0 && advance <= remaining
            }
        })
        .min_by_key(|&n| ring_distance(n, target))
}

/// A ring overlay with `d` fingers per node and greedy clockwise routing.
///
/// Routing forwards the message to the alive finger that is closest to the
/// target without overshooting it. When the optimal finger is dead a shorter
/// finger still makes progress, and — unlike XOR routing — the progress made
/// by such suboptimal hops is preserved in later phases, which is why the
/// analytical expression of §4.3.3 is only a lower bound on routability.
///
/// # Example
///
/// ```rust
/// use dht_overlay::{ChordOverlay, ChordVariant, Overlay};
///
/// let overlay = ChordOverlay::build(12, ChordVariant::Deterministic)?;
/// let space = overlay.key_space();
/// assert_eq!(overlay.neighbors(space.wrap(0)).len(), 12);
/// # Ok::<(), dht_overlay::OverlayError>(())
/// ```
pub type ChordOverlay = GeometryOverlay<ChordStrategy>;

impl GeometryOverlay<ChordStrategy> {
    /// Builds a deterministic-finger overlay over the full population (no
    /// randomness needed).
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnsupportedBits`] if `bits` is zero or larger
    /// than [`crate::traits::MAX_OVERLAY_BITS`] (the materialized ceiling —
    /// [`crate::ImplicitOverlay::ring`] routes larger full populations), or
    /// [`OverlayError::InvalidParameter`] for the randomised variant (which
    /// needs an RNG; use [`ChordOverlay::build_randomized`]).
    pub fn build(bits: u32, variant: ChordVariant) -> Result<Self, OverlayError> {
        match variant {
            ChordVariant::Deterministic => {
                let space = validate_bits(bits)?;
                Self::build_over(Population::full(space), variant, &mut NoRandomness)
            }
            ChordVariant::Randomized => Err(OverlayError::InvalidParameter {
                message: "randomised fingers need an RNG; use build_randomized".into(),
            }),
        }
    }

    /// Builds a randomised-finger overlay over the full population (the
    /// paper's variant).
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnsupportedBits`] if `bits` is zero or larger
    /// than [`crate::traits::MAX_OVERLAY_BITS`] (the materialized ceiling —
    /// [`crate::ImplicitOverlay::ring`] routes larger full populations).
    pub fn build_randomized<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> Result<Self, OverlayError> {
        let space = validate_bits(bits)?;
        Self::build_over(Population::full(space), ChordVariant::Randomized, rng)
    }

    /// Builds the overlay over an arbitrary (possibly sparse) population;
    /// fingers resolve to successors among the occupied identifiers.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnsupportedBits`] or
    /// [`OverlayError::InvalidParameter`] as in [`GeometryOverlay::over`].
    pub fn build_over<R: Rng + ?Sized>(
        population: Population,
        variant: ChordVariant,
        rng: &mut R,
    ) -> Result<Self, OverlayError> {
        Self::over(population, ChordStrategy::new(variant), rng)
    }

    /// Which finger-selection variant this overlay was built with.
    #[must_use]
    pub fn variant(&self) -> ChordVariant {
        self.strategy().variant()
    }

    /// The `i`-th finger (1-based, covering distance `[2^{i−1}, 2^i)`).
    ///
    /// # Panics
    ///
    /// Panics if `finger` is zero or exceeds `d`, or `node` is not an occupied
    /// identifier of the overlay.
    #[must_use]
    pub fn finger(&self, node: NodeId, finger: u32) -> NodeId {
        assert!(finger >= 1, "fingers are 1-based");
        self.neighbors(node)[(finger - 1) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{route, RouteOutcome};
    use dht_id::KeySpace;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn deterministic_fingers_are_powers_of_two_away() {
        let overlay = ChordOverlay::build(8, ChordVariant::Deterministic).unwrap();
        let space = overlay.key_space();
        for node in space.iter_ids().step_by(17) {
            for finger in 1..=8u32 {
                let distance = ring_distance(node, overlay.finger(node, finger));
                assert_eq!(distance, 1 << (finger - 1));
            }
        }
        assert_eq!(overlay.variant(), ChordVariant::Deterministic);
    }

    #[test]
    fn randomized_fingers_stay_within_their_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let overlay = ChordOverlay::build_randomized(10, &mut rng).unwrap();
        let space = overlay.key_space();
        for node in space.iter_ids().step_by(41) {
            for finger in 1..=10u32 {
                let distance = ring_distance(node, overlay.finger(node, finger));
                let lower = 1u64 << (finger - 1);
                let upper = 1u64 << finger;
                assert!(
                    distance >= lower && distance < upper,
                    "finger {finger}: distance {distance} outside [{lower}, {upper})"
                );
            }
        }
    }

    #[test]
    fn perfect_network_routes_within_d_hops() {
        for overlay in [
            ChordOverlay::build(10, ChordVariant::Deterministic).unwrap(),
            ChordOverlay::build_randomized(10, &mut ChaCha8Rng::seed_from_u64(8)).unwrap(),
        ] {
            let space = overlay.key_space();
            let mask = FailureMask::none(space);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            for _ in 0..200 {
                let source = space.random_id(&mut rng);
                let target = space.random_id(&mut rng);
                match route(&overlay, source, target, &mask) {
                    RouteOutcome::Delivered { hops } => assert!(hops <= 10),
                    other => panic!("route failed without failures: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn never_overshoots_the_target() {
        let overlay = ChordOverlay::build(10, ChordVariant::Deterministic).unwrap();
        let space = overlay.key_space();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mask = FailureMask::sample(space, 0.3, &mut rng);
        for _ in 0..100 {
            let source = space.random_id(&mut rng);
            let target = space.random_id(&mut rng);
            if mask.is_failed(source) || mask.is_failed(target) {
                continue;
            }
            let mut current = source;
            let mut remaining = ring_distance(current, target);
            while let Some(next) = overlay.next_hop(current, target, &mask) {
                let next_remaining = ring_distance(next, target);
                assert!(
                    next_remaining < remaining,
                    "hops must make clockwise progress"
                );
                current = next;
                remaining = next_remaining;
                if current == target {
                    break;
                }
            }
        }
    }

    #[test]
    fn suboptimal_progress_is_preserved() {
        // The §4.3.3 discussion: killing the long finger forces a shorter
        // first hop, but the route still completes because the progress is
        // kept. Deterministic fingers make the scenario easy to construct.
        let overlay = ChordOverlay::build(8, ChordVariant::Deterministic).unwrap();
        let space = overlay.key_space();
        let source = space.wrap(0);
        // Distance 192: the optimal first hop is the 128-finger; kill it.
        let target = space.wrap(0b1100_0000);
        let optimal = overlay.finger(source, 8);
        let mask = FailureMask::from_failed_nodes(space, [optimal]);
        match route(&overlay, source, target, &mask) {
            RouteOutcome::Delivered { hops } => assert!(hops >= 2),
            other => panic!("expected delivery around the failed finger, got {other:?}"),
        }
    }

    #[test]
    fn drops_only_when_no_finger_makes_progress() {
        let overlay = ChordOverlay::build(6, ChordVariant::Deterministic).unwrap();
        let space = overlay.key_space();
        let source = space.wrap(0);
        let target = space.wrap(1);
        // The only way to reach a target at distance 1 is the 1-finger.
        let mask = FailureMask::from_failed_nodes(space, [overlay.finger(source, 1)]);
        assert_eq!(
            route(&overlay, source, target, &mask),
            RouteOutcome::TargetFailed
        );
        // Distance 3: the optimal route uses the 2-finger then the 1-finger.
        // Killing the source's 2-finger forces a short first hop, after which
        // the intermediate node's own 2-finger completes the route.
        let target = space.wrap(3);
        let mask = FailureMask::from_failed_nodes(space, [overlay.finger(source, 2)]);
        assert_eq!(
            route(&overlay, source, target, &mask),
            RouteOutcome::Delivered { hops: 2 }
        );
    }

    #[test]
    fn build_variant_mismatch_is_rejected() {
        assert!(ChordOverlay::build(8, ChordVariant::Randomized).is_err());
        assert!(ChordOverlay::build(0, ChordVariant::Deterministic).is_err());
    }

    #[test]
    fn sparse_fingers_resolve_to_successors() {
        let space = KeySpace::new(8).unwrap();
        let population = Population::sparse(
            space,
            [10u64, 60, 130, 200].into_iter().map(|v| space.wrap(v)),
        )
        .unwrap();
        let overlay =
            ChordOverlay::build_over(population, ChordVariant::Deterministic, &mut NoRandomness)
                .unwrap();
        let node = space.wrap(10);
        // Finger 1 targets 11 -> successor 60; finger 8 targets 138 -> 200.
        assert_eq!(overlay.finger(node, 1), space.wrap(60));
        assert_eq!(overlay.finger(node, 8), space.wrap(200));
        // Every finger of every node lands on an occupied identifier.
        for n in overlay.population().iter_nodes() {
            for &f in overlay.neighbors(n) {
                assert!(overlay.population().contains(f));
            }
        }
        // Unoccupied identifiers expose no routing table.
        assert!(overlay.neighbors(space.wrap(11)).is_empty());
    }

    #[test]
    fn sparse_intact_ring_always_delivers() {
        let space = KeySpace::new(12).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let population = Population::sample_uniform(space, 1 << 10, &mut rng).unwrap();
        let overlay =
            ChordOverlay::build_over(population.clone(), ChordVariant::Randomized, &mut rng)
                .unwrap();
        let mask = FailureMask::none_over(overlay.population());
        for _ in 0..200 {
            let source = overlay.population().random_node(&mut rng);
            let target = overlay.population().random_node(&mut rng);
            assert!(
                route(&overlay, source, target, &mask).is_delivered(),
                "sparse ring must deliver without failures"
            );
        }
        assert_eq!(overlay.node_count(), 1 << 10);
        assert_eq!(overlay.edge_count(), (1 << 10) * 12);
    }
}
