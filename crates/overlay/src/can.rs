//! The CAN-style hypercube overlay (§3.2 of the paper).

use crate::failure::FailureMask;
use crate::generic::{GeometryOverlay, GeometryStrategy, NoRandomness};
use crate::kernel::RowForm;
use crate::traits::{validate_bits, OverlayError};
use dht_id::{distance::hamming, NodeId, Population};
use rand::Rng;

/// The hypercube geometry as a [`GeometryStrategy`]: one slot per dimension,
/// greedy forwarding on the Hamming distance.
///
/// Over a sparse population only the occupied single-bit flips are linked;
/// the slot of an unoccupied flip holds the node itself, which no hop takes.
/// So node degrees shrink with the occupancy and — unlike the ring and
/// prefix geometries — an intact sparse hypercube is *not* guaranteed to be
/// routable: greedy Hamming routing has no detour around a missing
/// coordinate neighbour.
#[derive(Debug, Clone, Copy, Default)]
pub struct CanStrategy;

/// `node`'s hypercube slots, most significant dimension first: the flip when
/// it is occupied and `linked` accepts it, `node` itself otherwise — the one
/// table rule of the static (`linked` always true) and live (`linked` the
/// alive test) families.
fn flip_slots<'a>(
    population: &'a Population,
    node: NodeId,
    linked: impl Fn(NodeId) -> bool + 'a,
) -> impl Iterator<Item = NodeId> + 'a {
    (0..population.space().bits()).map(move |bit| {
        let flip = node
            .flip_bit(bit)
            .expect("bit index is within the key space");
        if population.contains(flip) && linked(flip) {
            flip
        } else {
            node
        }
    })
}

impl GeometryStrategy for CanStrategy {
    fn geometry_name(&self) -> &'static str {
        "hypercube"
    }

    fn table_width(&self, population: &Population) -> usize {
        population.space().bits() as usize
    }

    fn build_table<R: Rng + ?Sized>(
        &self,
        population: &Population,
        node: NodeId,
        _rng: &mut R,
        table: &mut Vec<NodeId>,
    ) {
        table.extend(flip_slots(population, node, |_| true));
    }

    fn next_hop(
        &self,
        neighbors: &[NodeId],
        current: NodeId,
        target: NodeId,
        alive: &FailureMask,
    ) -> Option<NodeId> {
        let current_distance = hamming(current, target);
        // Any alive neighbour that corrects one of the differing bits is a
        // valid greedy hop; prefer the one correcting the highest-order bit to
        // keep the choice deterministic.
        neighbors
            .iter()
            .copied()
            .filter(|&n| alive.is_alive(n) && hamming(n, target) < current_distance)
            .min_by_key(|n| n.value() ^ target.value())
    }

    fn kernel_rule(&self) -> Option<crate::kernel::KernelRule> {
        // Hop key: each link's flipped-bit weight, most significant first —
        // the first weight still set in the XOR diff is the scalar minimum.
        Some(crate::kernel::KernelRule::HypercubeBit)
    }

    fn implicit_stream_words(&self, population: &Population) -> Option<u64> {
        // Hypercube links are fully determined by the identifier: no draws.
        population.is_full().then_some(0)
    }

    fn row_form(&self, population: &Population) -> RowForm {
        // Over a full population every flip is occupied: links `n ^ 2^i`.
        if population.is_full() {
            RowForm::ClosedForm
        } else {
            RowForm::Rows
        }
    }

    fn supports_live(&self) -> bool {
        true
    }

    fn build_live_table(
        &self,
        population: &Population,
        node: NodeId,
        _node_seed: u64,
        alive: &FailureMask,
        table: &mut Vec<NodeId>,
    ) {
        table.extend(flip_slots(population, node, |flip| alive.is_alive(flip)));
    }

    fn live_repair_candidates(
        &self,
        population: &Population,
        node: NodeId,
        alive: &FailureMask,
        _witnesses: &mut Vec<NodeId>,
        direct: &mut Vec<NodeId>,
    ) {
        // A hypercube link is mutual: the only tables a join changes are the
        // occupied alive single-bit flips — the joiner's own links — whose
        // stale entries were self placeholders (no reverse edge records
        // them, hence `direct`).
        let links = flip_slots(population, node, |flip| alive.is_alive(flip));
        direct.extend(links.filter(|&slot| slot != node));
    }
}

/// A binary hypercube overlay: node identifiers are coordinates in a
/// `d`-dimensional binary space and each node is connected to the `d` nodes
/// that differ from it in exactly one bit.
///
/// Routing is greedy on the Hamming distance and may correct the differing
/// bits in any order, which is what makes the geometry robust: a hop fails
/// only when *all* neighbours that would correct a bit are down.
///
/// # Example
///
/// ```rust
/// use dht_overlay::{CanOverlay, FailureMask, Overlay, RouteOutcome, route};
///
/// let overlay = CanOverlay::build(3)?; // the 8-node cube of Fig. 1
/// let space = overlay.key_space();
/// let mask = FailureMask::none(space);
/// let outcome = route(&overlay, space.wrap(0b011), space.wrap(0b100), &mask);
/// assert_eq!(outcome, RouteOutcome::Delivered { hops: 3 });
/// # Ok::<(), dht_overlay::OverlayError>(())
/// ```
pub type CanOverlay = GeometryOverlay<CanStrategy>;

impl GeometryOverlay<CanStrategy> {
    /// Builds the fully populated `d`-dimensional binary hypercube.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnsupportedBits`] if `bits` is zero or larger
    /// than [`crate::traits::MAX_OVERLAY_BITS`] (the materialized ceiling —
    /// [`crate::ImplicitOverlay::hypercube`] routes larger full populations).
    pub fn build(bits: u32) -> Result<Self, OverlayError> {
        let space = validate_bits(bits)?;
        Self::build_over(Population::full(space))
    }

    /// Builds the overlay over an arbitrary (possibly sparse) population;
    /// each node links to the occupied identifiers one bit-flip away and
    /// holds itself in the slot of each unoccupied flip.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnsupportedBits`] or
    /// [`OverlayError::InvalidParameter`] as in [`GeometryOverlay::over`].
    pub fn build_over(population: Population) -> Result<Self, OverlayError> {
        Self::over(population, CanStrategy, &mut NoRandomness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{route, RouteOutcome};
    use crate::traits::Overlay;
    use dht_id::KeySpace;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn every_node_has_d_neighbors_at_hamming_distance_one() {
        let overlay = CanOverlay::build(6).unwrap();
        let space = overlay.key_space();
        for node in space.iter_ids() {
            let neighbors = overlay.neighbors(node);
            assert_eq!(neighbors.len(), 6);
            for &n in neighbors {
                assert_eq!(hamming(node, n), 1);
            }
        }
        assert_eq!(overlay.edge_count(), 64 * 6);
    }

    #[test]
    fn perfect_network_routes_in_hamming_distance_hops() {
        let overlay = CanOverlay::build(8).unwrap();
        let space = overlay.key_space();
        let mask = FailureMask::none(space);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..200 {
            let source = space.random_id(&mut rng);
            let target = space.random_id(&mut rng);
            let expected = hamming(source, target);
            assert_eq!(
                route(&overlay, source, target, &mask),
                RouteOutcome::Delivered { hops: expected }
            );
        }
    }

    #[test]
    fn figure_one_worked_example() {
        // Fig. 1–3: routing from 011 to 100 in the 8-node cube crosses three
        // dimensions; 3 choices for the first hop, 2 for the second, 1 last.
        let overlay = CanOverlay::build(3).unwrap();
        let space = overlay.key_space();
        let source = space.wrap(0b011);
        assert_eq!(overlay.neighbors(source).len(), 3);
        let mask = FailureMask::none(space);
        assert_eq!(
            route(&overlay, source, space.wrap(0b100), &mask),
            RouteOutcome::Delivered { hops: 3 }
        );
    }

    #[test]
    fn routes_around_a_failed_intermediate() {
        let overlay = CanOverlay::build(3).unwrap();
        let space = overlay.key_space();
        // Kill one of the three possible first hops from 011 to 100; the
        // greedy rule must pick another dimension and still deliver.
        let mask = FailureMask::from_failed_nodes(space, [space.wrap(0b111)]);
        assert_eq!(
            route(&overlay, space.wrap(0b011), space.wrap(0b100), &mask),
            RouteOutcome::Delivered { hops: 3 }
        );
    }

    #[test]
    fn drops_when_every_corrective_neighbor_failed() {
        let overlay = CanOverlay::build(3).unwrap();
        let space = overlay.key_space();
        // All three neighbours of 011 that make progress towards 100 are
        // 111, 001 and 010; failing them strands the message immediately.
        let mask = FailureMask::from_failed_nodes(
            space,
            [space.wrap(0b111), space.wrap(0b001), space.wrap(0b010)],
        );
        match route(&overlay, space.wrap(0b011), space.wrap(0b100), &mask) {
            RouteOutcome::Dropped { hops, stuck_at } => {
                assert_eq!(hops, 0);
                assert_eq!(stuck_at, space.wrap(0b011));
            }
            other => panic!("expected drop, got {other:?}"),
        }
    }

    #[test]
    fn rejects_oversized_spaces() {
        assert!(CanOverlay::build(0).is_err());
        assert!(CanOverlay::build(40).is_err());
    }

    #[test]
    fn sparse_hypercube_links_only_occupied_flips() {
        let space = KeySpace::new(4).unwrap();
        // 0000, 0001, 0011: 0000 links only to 0001; 0001 to both others.
        // Every unoccupied flip's slot holds the node itself.
        let population = Population::sparse(
            space,
            [space.wrap(0b0000), space.wrap(0b0001), space.wrap(0b0011)],
        )
        .unwrap();
        let overlay = CanOverlay::build_over(population).unwrap();
        let ids = |values: [u64; 4]| values.map(|value| space.wrap(value));
        assert_eq!(
            overlay.neighbors(space.wrap(0b0000)),
            ids([0b0000, 0b0000, 0b0000, 0b0001])
        );
        assert_eq!(
            overlay.neighbors(space.wrap(0b0001)),
            ids([0b0001, 0b0001, 0b0011, 0b0000])
        );
        assert_eq!(overlay.edge_count(), 3 * 4);
        // 0000 -> 0011 routes through 0001.
        let mask = FailureMask::none_over(overlay.population());
        assert_eq!(
            route(&overlay, space.wrap(0b0000), space.wrap(0b0011), &mask),
            RouteOutcome::Delivered { hops: 2 }
        );
    }

    #[test]
    fn sparse_hypercube_can_strand_messages_even_intact() {
        let space = KeySpace::new(4).unwrap();
        // 0000 and 0011 differ in two bits but neither intermediate (0001,
        // 0010) is occupied: greedy Hamming routing has nowhere to go.
        let population =
            Population::sparse(space, [space.wrap(0b0000), space.wrap(0b0011)]).unwrap();
        let overlay = CanOverlay::build_over(population).unwrap();
        let mask = FailureMask::none_over(overlay.population());
        match route(&overlay, space.wrap(0b0000), space.wrap(0b0011), &mask) {
            RouteOutcome::Dropped { hops: 0, stuck_at } => {
                assert_eq!(stuck_at, space.wrap(0b0000));
            }
            other => panic!("expected an immediate drop, got {other:?}"),
        }
    }
}
