//! The Kademlia-style XOR overlay (§3.3 of the paper).

use crate::failure::FailureMask;
use crate::generic::{GeometryOverlay, GeometryStrategy};
use crate::kernel::RowForm;
use crate::traits::{validate_bits, Overlay, OverlayError};
use dht_id::{distance::xor_distance, NodeId, Population};
use rand::Rng;

/// The XOR geometry as a [`GeometryStrategy`]: one contact per bucket,
/// forwarding to whichever alive contact is XOR-closest to the target.
///
/// Bucket `i` of node `a` is the subtree of identifiers sharing `a`'s first
/// `i` bits and differing at bit `i` — a contiguous, aligned range of raw
/// values. Over a full population the contact is `a` with bit `i` flipped and
/// a uniformly random suffix (the paper's construction); over a sparse one it
/// is drawn uniformly from the *occupied* identifiers of that range, and an
/// empty bucket stores the node itself as a placeholder (ignored while
/// routing).
#[derive(Debug, Clone, Copy, Default)]
pub struct KademliaStrategy;

/// The inclusive raw-value range of the bucket subtree: identifiers matching
/// `node` on bits `0..bucket` (MSB-first) and differing at bit `bucket`.
fn bucket_range(node: NodeId, bucket: u32) -> (u64, u64) {
    let bits = node.bits();
    let flipped = node
        .flip_bit(bucket)
        .expect("bucket index is within the key space");
    let suffix_bits = bits - bucket - 1;
    let suffix_mask = if suffix_bits == 0 {
        0
    } else {
        (1u64 << suffix_bits) - 1
    };
    let lo = flipped.value() & !suffix_mask;
    (lo, lo | suffix_mask)
}

/// The full-population contact of bucket `bucket` (0 = widest) of the node
/// with value `node` in a `bits`-bit space: the node with bit `bucket`
/// (MSB-first) flipped and every bit below it taken from `draw`.
///
/// The one contact formula of the full construction: the materialized build
/// feeds it one `next_u64` per bucket in order, and the implicit backend's
/// positioned source feeds it the same draw replayed at the bucket's stream
/// position.
pub(crate) fn prefix_contact(bits: u32, node: u64, bucket: u32, draw: u64) -> u64 {
    let flipped = 1u64 << (bits - 1 - bucket);
    let suffix = flipped - 1;
    ((node ^ flipped) & !suffix) | (draw & suffix)
}

/// Pushes one prefix-bucket contact per level, shared by the XOR and tree
/// geometries (their routing tables are structurally identical; §3.3).
pub(crate) fn build_prefix_table<R: Rng + ?Sized>(
    population: &Population,
    node: NodeId,
    rng: &mut R,
    table: &mut Vec<NodeId>,
) {
    let space = population.space();
    let bits = space.bits();
    if population.is_full() {
        for bucket in 0..bits {
            let contact = prefix_contact(bits, node.value(), bucket, rng.next_u64());
            table.push(space.wrap(contact));
        }
    } else {
        for bucket in 0..bits {
            let (lo, hi) = bucket_range(node, bucket);
            match population.random_in_range(lo, hi, rng) {
                Some(contact) => table.push(contact),
                // No occupied identifier in this subtree: store the node
                // itself; next-hop rules never select a zero-progress entry.
                None => table.push(node),
            }
        }
    }
}

/// The live construction family shared by the XOR and tree geometries: per
/// bucket, draw a uniform starting point in the subtree *before* looking at
/// the alive set (membership-independent, the live-family purity contract),
/// then store the first alive occupied identifier cyclically from it — or the
/// node itself when the subtree holds no alive node.
pub(crate) fn build_live_prefix_table(
    population: &Population,
    node: NodeId,
    node_seed: u64,
    alive: &FailureMask,
    table: &mut Vec<NodeId>,
) {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(node_seed);
    let bits = population.space().bits();
    for bucket in 0..bits {
        let (lo, hi) = bucket_range(node, bucket);
        let from = rng.gen_range(lo..=hi);
        match crate::live::alive_in_range_cyclic(population, alive, lo, hi, from, None) {
            Some(contact) => table.push(contact),
            None => table.push(node),
        }
    }
}

/// Join candidates for the prefix geometries. At each level the joiner's own
/// subtree (the *home block*) is where other nodes' level contacts pointing
/// at it live:
///
/// * if another alive node exists there, every contact the join changes
///   previously resolved to the first alive member cyclically after the
///   joiner — a single witness (`alive_in_range_cyclic` was first-alive from
///   the owner's drawn point, and the joiner landing inside `[point, old)`
///   means `old` is also first-alive from `joiner + 1`);
/// * otherwise every alive owner (the occupied nodes of the *sibling* block
///   at that level) held a self placeholder that no reverse edge records, so
///   they are all recomputed directly.
pub(crate) fn live_prefix_repair_candidates(
    population: &Population,
    node: NodeId,
    alive: &FailureMask,
    witnesses: &mut Vec<NodeId>,
    direct: &mut Vec<NodeId>,
) {
    let bits = population.space().bits();
    for bucket in 0..bits {
        let flipped = node
            .flip_bit(bucket)
            .expect("bucket index is within the key space");
        let (home_lo, home_hi) = bucket_range(flipped, bucket);
        debug_assert!(home_lo <= node.value() && node.value() <= home_hi);
        let from = if node.value() == home_hi {
            home_lo
        } else {
            node.value() + 1
        };
        match crate::live::alive_in_range_cyclic(
            population,
            alive,
            home_lo,
            home_hi,
            from,
            Some(node),
        ) {
            Some(witness) => witnesses.push(witness),
            None => {
                let (own_lo, own_hi) = bucket_range(node, bucket);
                crate::live::for_each_alive_in_range(population, alive, own_lo, own_hi, |owner| {
                    direct.push(owner);
                });
            }
        }
    }
}

impl GeometryStrategy for KademliaStrategy {
    fn geometry_name(&self) -> &'static str {
        "xor"
    }

    fn table_width(&self, population: &Population) -> usize {
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
        let current_distance = xor_distance(current, target);
        neighbors
            .iter()
            .copied()
            .filter(|&n| alive.is_alive(n) && xor_distance(n, target) < current_distance)
            .min_by_key(|&n| xor_distance(n, target))
    }

    fn kernel_rule(&self) -> Option<crate::kernel::KernelRule> {
        // Hop key: the contact's value at its bucket position; the bucket of
        // the highest differing bit is provably the XOR minimum when alive.
        Some(crate::kernel::KernelRule::PrefixXor)
    }

    fn implicit_stream_words(&self, population: &Population) -> Option<u64> {
        // Full-population buckets draw one `next_u64` (two words) per
        // bucket, unconditionally. Sparse bucket sampling draws a variable
        // number of words (rejection against occupancy), so only the full
        // construction has a fixed stream offset per rank.
        population
            .is_full()
            .then(|| 2 * u64::from(population.space().bits()))
    }

    fn row_form(&self, population: &Population) -> RowForm {
        // Bucket `b`'s draw sits at word `2b` of the node's stream slice.
        if population.is_full() {
            RowForm::PositionedPrefix
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
        node_seed: u64,
        alive: &FailureMask,
        table: &mut Vec<NodeId>,
    ) {
        build_live_prefix_table(population, node, node_seed, alive, table);
    }

    fn live_repair_candidates(
        &self,
        population: &Population,
        node: NodeId,
        alive: &FailureMask,
        witnesses: &mut Vec<NodeId>,
        direct: &mut Vec<NodeId>,
    ) {
        live_prefix_repair_candidates(population, node, alive, witnesses, direct);
    }
}

/// An XOR-metric overlay modelling the basic Kademlia geometry: one contact
/// per bucket.
///
/// The `i`-th contact of a node is drawn uniformly from XOR distance
/// `[2^{d−i}, 2^{d−i+1})`, which (as §3.3 of the paper notes) is the same as
/// matching the node's first `i − 1` bits, flipping the `i`-th, and choosing
/// the remaining bits at random — structurally a Plaxton table. The
/// difference is the forwarding rule: the message goes to whichever alive
/// contact is XOR-closest to the target, so when the optimal contact is dead
/// a lower-order bucket can still make progress.
///
/// # Example
///
/// ```rust
/// use dht_overlay::{KademliaOverlay, Overlay};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(2);
/// let overlay = KademliaOverlay::build(12, &mut rng)?;
/// assert_eq!(overlay.node_count(), 4096);
/// # Ok::<(), dht_overlay::OverlayError>(())
/// ```
pub type KademliaOverlay = GeometryOverlay<KademliaStrategy>;

impl GeometryOverlay<KademliaStrategy> {
    /// Builds the fully populated XOR overlay with one random contact per
    /// bucket.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnsupportedBits`] if `bits` is zero or larger
    /// than [`crate::traits::MAX_OVERLAY_BITS`] (the materialized ceiling —
    /// [`crate::ImplicitOverlay::xor`] routes larger full populations).
    pub fn build<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> Result<Self, OverlayError> {
        let space = validate_bits(bits)?;
        Self::build_over(Population::full(space), rng)
    }

    /// Builds the overlay over an arbitrary (possibly sparse) population;
    /// bucket contacts are drawn uniformly from the occupied identifiers of
    /// each bucket subtree.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnsupportedBits`] or
    /// [`OverlayError::InvalidParameter`] as in [`GeometryOverlay::over`].
    pub fn build_over<R: Rng + ?Sized>(
        population: Population,
        rng: &mut R,
    ) -> Result<Self, OverlayError> {
        Self::over(population, KademliaStrategy, rng)
    }

    /// The contact stored in bucket `bucket` (0 = the bucket covering the far
    /// half of the identifier space). Over a sparse population an empty
    /// bucket reports the node itself.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= d` or `node` is not an occupied identifier of the
    /// overlay.
    #[must_use]
    pub fn bucket_contact(&self, node: NodeId, bucket: u32) -> NodeId {
        self.neighbors(node)[bucket as usize]
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

    fn build(bits: u32, seed: u64) -> KademliaOverlay {
        KademliaOverlay::build(bits, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap()
    }

    #[test]
    fn bucket_contacts_cover_the_right_distance_ranges() {
        let overlay = build(10, 1);
        let space = overlay.key_space();
        for node in space.iter_ids().step_by(37) {
            for bucket in 0..10u32 {
                let contact = overlay.bucket_contact(node, bucket);
                let distance = xor_distance(node, contact);
                let lower = 1u64 << (9 - bucket);
                let upper = 1u64 << (10 - bucket);
                assert!(
                    distance >= lower && distance < upper,
                    "bucket {bucket}: distance {distance} outside [{lower}, {upper})"
                );
                assert_eq!(common_prefix_len(node, contact), bucket);
            }
        }
    }

    #[test]
    fn perfect_network_resolves_one_bit_per_hop() {
        let overlay = build(12, 2);
        let space = overlay.key_space();
        let mask = FailureMask::none(space);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..200 {
            let source = space.random_id(&mut rng);
            let target = space.random_id(&mut rng);
            match route(&overlay, source, target, &mask) {
                RouteOutcome::Delivered { hops } => assert!(hops <= 12),
                other => panic!("route failed without failures: {other:?}"),
            }
        }
    }

    #[test]
    fn xor_distance_strictly_decreases_along_the_route() {
        let overlay = build(12, 3);
        let space = overlay.key_space();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mask = FailureMask::sample(space, 0.2, &mut rng);
        let mut checked = 0;
        for _ in 0..100 {
            let source = space.random_id(&mut rng);
            let target = space.random_id(&mut rng);
            if mask.is_failed(source) || mask.is_failed(target) {
                continue;
            }
            let mut current = source;
            let mut distance = xor_distance(current, target);
            while let Some(next) = overlay.next_hop(current, target, &mask) {
                let next_distance = xor_distance(next, target);
                assert!(next_distance < distance);
                current = next;
                distance = next_distance;
                if current == target {
                    break;
                }
            }
            checked += 1;
        }
        assert!(checked > 20, "not enough surviving pairs to be meaningful");
    }

    #[test]
    fn falls_back_to_lower_order_buckets_under_failure() {
        // Fig. 5(a) scenario: the optimal first contact is dead but a
        // lower-order contact keeps the message moving.
        let overlay = build(10, 4);
        let space = overlay.key_space();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut observed_fallback = false;
        for _ in 0..200 {
            let source = space.random_id(&mut rng);
            let target = space.random_id(&mut rng);
            if source == target {
                continue;
            }
            let optimal_bucket = common_prefix_len(source, target);
            let optimal = overlay.bucket_contact(source, optimal_bucket);
            if optimal == target {
                continue;
            }
            let mask = FailureMask::from_failed_nodes(space, [optimal]);
            if let Some(next) = overlay.next_hop(source, target, &mask) {
                assert_ne!(next, optimal);
                assert!(xor_distance(next, target) < xor_distance(source, target));
                observed_fallback = true;
            }
        }
        assert!(observed_fallback, "never exercised the fallback path");
    }

    #[test]
    fn more_robust_than_the_tree_overlay_under_the_same_failures() {
        let bits = 10;
        let seed = 77;
        let kademlia = build(bits, seed);
        let tree =
            crate::plaxton::PlaxtonOverlay::build(bits, &mut ChaCha8Rng::seed_from_u64(seed))
                .unwrap();
        let space = kademlia.key_space();
        let mut rng = ChaCha8Rng::seed_from_u64(123);
        let mask = FailureMask::sample(space, 0.3, &mut rng);
        let mut kademlia_ok = 0u32;
        let mut tree_ok = 0u32;
        for _ in 0..2000 {
            let source = space.random_id(&mut rng);
            let target = space.random_id(&mut rng);
            if mask.is_failed(source) || mask.is_failed(target) {
                continue;
            }
            if route(&kademlia, source, target, &mask).is_delivered() {
                kademlia_ok += 1;
            }
            if route(&tree, source, target, &mask).is_delivered() {
                tree_ok += 1;
            }
        }
        assert!(
            kademlia_ok > tree_ok,
            "XOR fallback should beat the tree: {kademlia_ok} vs {tree_ok}"
        );
    }

    #[test]
    fn rejects_oversized_spaces() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(KademliaOverlay::build(0, &mut rng).is_err());
        assert!(KademliaOverlay::build(33, &mut rng).is_err());
    }

    #[test]
    fn sparse_bucket_contacts_stay_inside_their_subtree() {
        let space = KeySpace::new(10).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let population = Population::sample_uniform(space, 200, &mut rng).unwrap();
        let overlay = KademliaOverlay::build_over(population.clone(), &mut rng).unwrap();
        for node in overlay.population().iter_nodes() {
            for bucket in 0..10u32 {
                let contact = overlay.bucket_contact(node, bucket);
                if contact == node {
                    // Placeholder: the subtree holds no occupied identifier.
                    let (lo, hi) = bucket_range(node, bucket);
                    assert!(population.random_in_range(lo, hi, &mut rng).is_none());
                } else {
                    assert!(population.contains(contact));
                    assert_eq!(common_prefix_len(node, contact), bucket);
                }
            }
        }
    }

    #[test]
    fn sparse_intact_network_always_delivers() {
        // The bucket subtree containing the target always contains at least
        // the target itself, so greedy XOR routing cannot strand a message in
        // an intact sparse network.
        let space = KeySpace::new(12).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let population = Population::sample_uniform(space, 1 << 9, &mut rng).unwrap();
        let overlay = KademliaOverlay::build_over(population, &mut rng).unwrap();
        let mask = FailureMask::none_over(overlay.population());
        for _ in 0..200 {
            let source = overlay.population().random_node(&mut rng);
            let target = overlay.population().random_node(&mut rng);
            match route(&overlay, source, target, &mask) {
                RouteOutcome::Delivered { hops } => assert!(hops <= 12),
                other => panic!("sparse XOR route failed without failures: {other:?}"),
            }
        }
    }
}
