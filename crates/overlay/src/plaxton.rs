//! The Plaxton-style tree overlay (§3.1 of the paper).

use crate::failure::FailureMask;
use crate::generic::{GeometryOverlay, GeometryStrategy};
use crate::kademlia::build_prefix_table;
use crate::kernel::RowForm;
use crate::traits::{validate_bits, Overlay, OverlayError};
use dht_id::{prefix::highest_differing_bit, NodeId, Population};
use rand::Rng;

/// The tree geometry as a [`GeometryStrategy`]: prefix tables (structurally
/// the XOR tables; see [`crate::kademlia`]) with the rigid forwarding rule —
/// every hop must correct the highest-order differing bit, no fallback.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaxtonStrategy;

impl GeometryStrategy for PlaxtonStrategy {
    fn geometry_name(&self) -> &'static str {
        "tree"
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
        build_prefix_table(population, node, rng, table);
    }

    fn next_hop(
        &self,
        neighbors: &[NodeId],
        current: NodeId,
        target: NodeId,
        alive: &FailureMask,
    ) -> Option<NodeId> {
        let level = highest_differing_bit(current, target)?;
        let entry = *neighbors.get(level as usize)?;
        // A self-entry is the sparse placeholder for an empty level — the
        // protocol has nowhere to forward. Otherwise the entry may happen not
        // to share the target's next bits and that is fine — it corrects the
        // highest-order bit, and later hops fix the rest — but it must be
        // alive, because the protocol has no fallback.
        if entry == current {
            return None;
        }
        alive.is_alive(entry).then_some(entry)
    }

    fn kernel_rule(&self) -> Option<crate::kernel::KernelRule> {
        // Hop key: the entry's value at its level position; a single
        // leading-zero-dispatched probe, no fallback.
        Some(crate::kernel::KernelRule::PrefixTree)
    }

    fn implicit_stream_words(&self, population: &Population) -> Option<u64> {
        // Same construction family as the XOR geometry: one `next_u64` (two
        // words) per level over a full population.
        population
            .is_full()
            .then(|| 2 * u64::from(population.space().bits()))
    }

    fn row_form(&self, population: &Population) -> RowForm {
        // Level `b`'s draw sits at word `2b` of the node's stream slice.
        if population.is_full() {
            RowForm::PositionedPrefix
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
        // Same live family as the XOR geometry — the tables are structurally
        // identical, only the forwarding rule differs.
        crate::kademlia::build_live_prefix_table(population, node, node_seed, alive, table);
    }

    fn live_repair_candidates(
        &self,
        population: &Population,
        node: NodeId,
        alive: &FailureMask,
        witnesses: &mut Vec<NodeId>,
        direct: &mut Vec<NodeId>,
    ) {
        crate::kademlia::live_prefix_repair_candidates(population, node, alive, witnesses, direct);
    }
}

/// A prefix-routing (tree) overlay in the style of Plaxton, Tapestry and
/// Pastry's routing table (without leaf sets — the paper analyses the basic
/// geometry).
///
/// The `i`-th routing-table entry of a node matches its first `i − 1` bits,
/// differs in the `i`-th bit, and has uniformly random lower-order bits.
/// Routing must correct the highest-order differing bit on every hop; if that
/// single neighbour has failed the message is dropped, which is what makes
/// the geometry fragile (`Q(m) = q`).
///
/// # Example
///
/// ```rust
/// use dht_overlay::{Overlay, PlaxtonOverlay};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(5);
/// let overlay = PlaxtonOverlay::build(8, &mut rng)?;
/// assert_eq!(overlay.node_count(), 256);
/// assert_eq!(overlay.neighbors(overlay.key_space().wrap(0)).len(), 8);
/// # Ok::<(), dht_overlay::OverlayError>(())
/// ```
pub type PlaxtonOverlay = GeometryOverlay<PlaxtonStrategy>;

impl GeometryOverlay<PlaxtonStrategy> {
    /// Builds the fully populated tree overlay, drawing the random suffix of
    /// every routing-table entry from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnsupportedBits`] if `bits` is zero or larger
    /// than [`crate::traits::MAX_OVERLAY_BITS`] (the materialized ceiling —
    /// [`crate::ImplicitOverlay::tree`] routes larger full populations).
    pub fn build<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> Result<Self, OverlayError> {
        let space = validate_bits(bits)?;
        Self::build_over(Population::full(space), rng)
    }

    /// Builds the overlay over an arbitrary (possibly sparse) population;
    /// each level's entry is drawn uniformly from the occupied identifiers of
    /// the matching subtree.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnsupportedBits`] or
    /// [`OverlayError::InvalidParameter`] as in [`GeometryOverlay::over`].
    pub fn build_over<R: Rng + ?Sized>(
        population: Population,
        rng: &mut R,
    ) -> Result<Self, OverlayError> {
        Self::over(population, PlaxtonStrategy, rng)
    }

    /// The routing-table entry that corrects bit `level` (0 = most
    /// significant), i.e. the entry consulted when the current node and the
    /// target first differ at `level`. Over a sparse population an empty
    /// level reports the node itself.
    ///
    /// # Panics
    ///
    /// Panics if `level >= d` or `node` is not an occupied identifier of the
    /// overlay.
    #[must_use]
    pub fn entry_for_level(&self, node: NodeId, level: u32) -> NodeId {
        self.neighbors(node)[level as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{route, RouteOutcome};
    use dht_id::prefix::common_prefix_len;
    use dht_id::KeySpace;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn build(bits: u32, seed: u64) -> PlaxtonOverlay {
        PlaxtonOverlay::build(bits, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap()
    }

    #[test]
    fn table_entries_have_the_prefix_property() {
        let overlay = build(8, 1);
        let space = overlay.key_space();
        for node in space.iter_ids() {
            for level in 0..8u32 {
                let entry = overlay.entry_for_level(node, level);
                assert!(
                    common_prefix_len(node, entry) == level,
                    "prefix must break exactly at the level"
                );
                assert_ne!(entry.bit(level).unwrap(), node.bit(level).unwrap());
            }
        }
    }

    #[test]
    fn perfect_network_always_delivers_within_d_hops() {
        let overlay = build(10, 2);
        let space = overlay.key_space();
        let mask = FailureMask::none(space);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..200 {
            let source = space.random_id(&mut rng);
            let target = space.random_id(&mut rng);
            match route(&overlay, source, target, &mask) {
                RouteOutcome::Delivered { hops } => assert!(hops <= 10),
                other => panic!("route failed without failures: {other:?}"),
            }
        }
    }

    #[test]
    fn each_hop_extends_the_matched_prefix() {
        let overlay = build(10, 3);
        let space = overlay.key_space();
        let mask = FailureMask::none(space);
        let target = space.wrap(0b1100110011);
        let mut current = space.wrap(0b0011001100);
        let mut matched = common_prefix_len(current, target);
        while current != target {
            let next = overlay.next_hop(current, target, &mask).unwrap();
            let next_matched = common_prefix_len(next, target);
            assert!(next_matched > matched);
            matched = next_matched;
            current = next;
        }
    }

    #[test]
    fn drops_exactly_when_the_required_entry_failed() {
        let overlay = build(8, 4);
        let space = overlay.key_space();
        let source = space.wrap(0b0000_0000);
        let target = space.wrap(0b1000_0000);
        let required = overlay.entry_for_level(source, 0);
        let mask = FailureMask::from_failed_nodes(space, [required]);
        match route(&overlay, source, target, &mask) {
            RouteOutcome::Dropped { hops: 0, stuck_at } => assert_eq!(stuck_at, source),
            RouteOutcome::TargetFailed => {
                // The random entry may coincide with the target itself, in
                // which case the failure is reported as a target failure.
                assert_eq!(required, target);
            }
            other => panic!("expected an immediate drop, got {other:?}"),
        }
    }

    #[test]
    fn construction_is_deterministic_per_seed() {
        let a = build(8, 9);
        let b = build(8, 9);
        let space = a.key_space();
        for node in space.iter_ids() {
            assert_eq!(a.neighbors(node), b.neighbors(node));
        }
    }

    #[test]
    fn rejects_oversized_spaces() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(PlaxtonOverlay::build(0, &mut rng).is_err());
        assert!(PlaxtonOverlay::build(63, &mut rng).is_err());
    }

    #[test]
    fn sparse_intact_tree_always_delivers() {
        // The subtree containing the target is never empty (it contains the
        // target), so prefix routing stays complete over sparse populations.
        let space = KeySpace::new(12).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let population = Population::sample_uniform(space, 1 << 9, &mut rng).unwrap();
        let overlay = PlaxtonOverlay::build_over(population, &mut rng).unwrap();
        let mask = FailureMask::none_over(overlay.population());
        for _ in 0..200 {
            let source = overlay.population().random_node(&mut rng);
            let target = overlay.population().random_node(&mut rng);
            match route(&overlay, source, target, &mask) {
                RouteOutcome::Delivered { hops } => assert!(hops <= 12),
                other => panic!("sparse tree route failed without failures: {other:?}"),
            }
        }
    }

    #[test]
    fn sparse_empty_levels_stop_the_protocol_cleanly() {
        // Two occupied nodes differing in the top bit: every level below the
        // first is empty on both sides, and next_hop must treat the
        // self-placeholder as "no entry" rather than forwarding in place.
        let space = KeySpace::new(6).unwrap();
        let population =
            Population::sparse(space, [space.wrap(0b000000), space.wrap(0b100000)]).unwrap();
        let overlay =
            PlaxtonOverlay::build_over(population, &mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        let a = space.wrap(0b000000);
        let b = space.wrap(0b100000);
        assert_eq!(overlay.entry_for_level(a, 0), b);
        assert_eq!(overlay.entry_for_level(a, 3), a, "empty level placeholder");
        let mask = FailureMask::none_over(overlay.population());
        assert_eq!(
            route(&overlay, a, b, &mask),
            RouteOutcome::Delivered { hops: 1 }
        );
        // An unoccupied target can never be routed to; the mask reports it
        // as failed before any hop is taken.
        assert_eq!(
            route(&overlay, a, space.wrap(0b000001), &mask),
            RouteOutcome::TargetFailed
        );
    }
}
