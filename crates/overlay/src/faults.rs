//! Structured fault-injection plans: declarative descriptions of *how* an
//! overlay fails, lowered deterministically into [`FailureMask`]s.
//!
//! The static-resilience model of the paper fails nodes independently and
//! uniformly with probability `q`. Deployed DHTs rarely fail that politely:
//! racks and autonomous systems take out *contiguous* identifier spans,
//! Kademlia-style subtrees disappear bucket-aligned, adversaries target the
//! best-connected nodes, and overload cascades along overlay edges. A
//! [`FailurePlan`] captures each of these regimes as data — serializable, so
//! campaign grids can be driven from declarative scenario specs — and
//! [`FailurePlan::lower`] turns a plan plus a seed into a concrete mask.
//!
//! # Determinism
//!
//! Lowering is single-threaded and pure: the same plan, overlay and seed
//! produce a bit-identical mask on every call, on every thread count, and
//! across processes. Randomized plans derive their streams from the seed with
//! the same splitmix64 child derivation `dht_sim::SeedSequence` uses
//! (`child(i) = splitmix64(seed + i + 1)`), so campaign drivers can hand each
//! grid point an independent child seed without stream collisions.
//!
//! # Population awareness
//!
//! Plans only ever fail *occupied* identifiers: every lowering starts from
//! [`FailureMask::none_over`] the overlay's [`Population`](dht_id::Population) and kills through
//! [`FailureMask::kill`], which is a counted no-op for unoccupied slots.
//! Fractions are always relative to the occupied count (except
//! [`FailurePlan::PrefixSubtree`], which selects a fraction of the *subtree
//! prefixes* — over a full population that is the same thing).

use crate::failure::FailureMask;
use crate::live::splitmix64;
use crate::traits::{Overlay, OverlayError};
use dht_id::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Largest `prefix_bits` a [`FailurePlan::PrefixSubtree`] plan accepts.
///
/// Lowering materialises one slot per subtree prefix for the partial
/// Fisher–Yates draw, so the prefix length is capped well below the 32-bit
/// mask ceiling; 2^16 subtrees is already far finer than any bucket
/// structure the overlays build.
pub const MAX_SUBTREE_PREFIX_BITS: u32 = 16;

/// A declarative fault-injection plan: *how* nodes fail, independent of any
/// particular overlay instance or seed.
///
/// Plans are plain serializable data. [`FailurePlan::lower`] binds a plan to
/// an overlay and a seed, producing a concrete [`FailureMask`]; see the
/// [module docs](self) for the determinism and population contracts.
///
/// ```rust
/// use dht_overlay::{FailurePlan, KademliaOverlay, Overlay};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let overlay = KademliaOverlay::build(8, &mut rng)?;
/// let plan = FailurePlan::AdaptiveAdversary { fraction: 0.25, rounds: 4 };
/// let mask = plan.lower(&overlay, 42);
/// assert_eq!(mask.failed_count(), 64); // exactly round(0.25 * 2^8)
/// assert_eq!(mask.words(), plan.lower(&overlay, 42).words()); // bit-identical
/// # Ok::<(), dht_overlay::OverlayError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FailurePlan {
    /// The paper's regime: every occupied node fails independently with
    /// probability `fraction`. Lowers to exactly the mask (and RNG stream)
    /// of [`FailureMask::sample_over`], for baseline parity with every
    /// existing experiment.
    Uniform {
        /// Independent per-node failure probability `q ∈ [0, 1]`.
        fraction: f64,
    },
    /// Rack/AS-style correlated failure: `segments` contiguous spans of the
    /// identifier space fail, together covering `fraction` of the occupied
    /// nodes (exactly `round(fraction · n)` of them). Span starts are drawn
    /// uniformly; spans walk the occupied set in identifier order, so over a
    /// sparse population a "span" is contiguous in the occupied ordering,
    /// the way a rack of real nodes is.
    SegmentCorrelated {
        /// Fraction of occupied nodes failed, `∈ [0, 1]`.
        fraction: f64,
        /// Number of contiguous failed spans (≥ 1). More segments at equal
        /// `fraction` means shorter spans — closer to uniform.
        segments: u32,
    },
    /// Bucket-aligned subtree failure: `round(fraction · 2^prefix_bits)`
    /// distinct `prefix_bits`-bit prefixes are drawn uniformly and every
    /// occupied identifier under them fails — the id-space shape of a
    /// Kademlia bucket or Plaxton digit block dropping out wholesale.
    PrefixSubtree {
        /// Fraction of subtree prefixes failed, `∈ [0, 1]`.
        fraction: f64,
        /// Prefix length in bits, `1 ..= min(space bits,`
        /// [`MAX_SUBTREE_PREFIX_BITS`]`)`.
        prefix_bits: u32,
    },
    /// An informed adversary: kill the survivors with the highest in-degree
    /// (most incoming routing-table entries), re-assessing between rounds.
    /// The total budget `round(fraction · n)` is split evenly across
    /// `rounds`; within a round the in-degree snapshot is frozen (ties break
    /// towards the smaller identifier) and the reverse-edge index is
    /// maintained incrementally as victims drop. Deterministic — no
    /// randomness at all.
    AdaptiveAdversary {
        /// Fraction of occupied nodes killed, `∈ [0, 1]`.
        fraction: f64,
        /// Number of kill/re-assess rounds (≥ 1). One round is a blind
        /// hub-list strike; more rounds let the adversary adapt to the
        /// damage it has already done.
        rounds: u32,
    },
    /// Epidemic cascade: occupied nodes fail independently with probability
    /// `seed_fraction`, then each newly failed node fails each still-alive
    /// out-neighbor independently with probability `propagation`, round by
    /// round, until no new failures occur. Models correlated overload
    /// collapse along overlay edges; the realized failed fraction exceeds
    /// `seed_fraction` whenever `propagation > 0`.
    Cascade {
        /// Independent seeding failure probability, `∈ [0, 1]`.
        seed_fraction: f64,
        /// Per-edge propagation probability, `∈ [0, 1]`.
        propagation: f64,
    },
}

impl FailurePlan {
    /// Short snake_case name of the plan kind (stable; used as the campaign
    /// table/CSV label).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FailurePlan::Uniform { .. } => "uniform",
            FailurePlan::SegmentCorrelated { .. } => "segment_correlated",
            FailurePlan::PrefixSubtree { .. } => "prefix_subtree",
            FailurePlan::AdaptiveAdversary { .. } => "adaptive_adversary",
            FailurePlan::Cascade { .. } => "cascade",
        }
    }

    /// The plan's primary intensity knob: the failure (or, for
    /// [`FailurePlan::Cascade`], seeding) fraction. Campaign grids sweep
    /// this via [`FailurePlan::with_fraction`].
    #[must_use]
    pub fn target_fraction(&self) -> f64 {
        match self {
            FailurePlan::Uniform { fraction }
            | FailurePlan::SegmentCorrelated { fraction, .. }
            | FailurePlan::PrefixSubtree { fraction, .. }
            | FailurePlan::AdaptiveAdversary { fraction, .. } => *fraction,
            FailurePlan::Cascade { seed_fraction, .. } => *seed_fraction,
        }
    }

    /// The same plan re-targeted at failure fraction `fraction`, structural
    /// parameters (segments, prefix length, rounds, propagation) unchanged.
    /// This is how a campaign grid sweeps one plan template across its
    /// failed-fraction axis.
    #[must_use]
    pub fn with_fraction(&self, fraction: f64) -> FailurePlan {
        let mut plan = self.clone();
        match &mut plan {
            FailurePlan::Uniform { fraction: f }
            | FailurePlan::SegmentCorrelated { fraction: f, .. }
            | FailurePlan::PrefixSubtree { fraction: f, .. }
            | FailurePlan::AdaptiveAdversary { fraction: f, .. }
            | FailurePlan::Cascade {
                seed_fraction: f, ..
            } => *f = fraction,
        }
        plan
    }

    /// Checks every parameter range.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::InvalidParameter`] naming the violated
    /// constraint: fractions and probabilities must be finite and in
    /// `[0, 1]`, `segments` and `rounds` must be ≥ 1, and `prefix_bits`
    /// must be in `1 ..= `[`MAX_SUBTREE_PREFIX_BITS`].
    pub fn validate(&self) -> Result<(), OverlayError> {
        let invalid = |message: String| Err(OverlayError::InvalidParameter { message });
        let check_fraction = |label: &str, value: f64| {
            if value.is_finite() && (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                invalid(format!("{label} must be in [0, 1], got {value}"))
            }
        };
        match self {
            FailurePlan::Uniform { fraction } => check_fraction("uniform fraction", *fraction),
            FailurePlan::SegmentCorrelated { fraction, segments } => {
                check_fraction("segment_correlated fraction", *fraction)?;
                if *segments == 0 {
                    return invalid("segment_correlated needs at least 1 segment".to_owned());
                }
                Ok(())
            }
            FailurePlan::PrefixSubtree {
                fraction,
                prefix_bits,
            } => {
                check_fraction("prefix_subtree fraction", *fraction)?;
                if !(1..=MAX_SUBTREE_PREFIX_BITS).contains(prefix_bits) {
                    return invalid(format!(
                        "prefix_subtree prefix_bits must be in 1..={MAX_SUBTREE_PREFIX_BITS}, \
                         got {prefix_bits}"
                    ));
                }
                Ok(())
            }
            FailurePlan::AdaptiveAdversary { fraction, rounds } => {
                check_fraction("adaptive_adversary fraction", *fraction)?;
                if *rounds == 0 {
                    return invalid("adaptive_adversary needs at least 1 round".to_owned());
                }
                Ok(())
            }
            FailurePlan::Cascade {
                seed_fraction,
                propagation,
            } => {
                check_fraction("cascade seed_fraction", *seed_fraction)?;
                check_fraction("cascade propagation", *propagation)
            }
        }
    }

    /// Lowers the plan into a concrete [`FailureMask`] over `overlay`'s
    /// population, deterministically from `seed`.
    ///
    /// Single-threaded and pure: equal `(plan, overlay, seed)` always yield
    /// bit-identical masks. Randomized plans consume splitmix64 child
    /// streams of `seed` (see the [module docs](self)); the adaptive
    /// adversary consumes none.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FailurePlan::validate`], or if a
    /// [`FailurePlan::PrefixSubtree`] plan's `prefix_bits` exceeds the
    /// overlay's identifier length.
    #[must_use]
    pub fn lower<O: Overlay + ?Sized>(&self, overlay: &O, seed: u64) -> FailureMask {
        if let Err(err) = self.validate() {
            panic!("cannot lower invalid failure plan: {err}");
        }
        match self {
            FailurePlan::Uniform { fraction } => {
                FailureMask::sample_over(overlay.population(), *fraction, &mut child_rng(seed, 0))
            }
            FailurePlan::SegmentCorrelated { fraction, segments } => {
                lower_segments(overlay, *fraction, *segments, seed)
            }
            FailurePlan::PrefixSubtree {
                fraction,
                prefix_bits,
            } => lower_prefixes(overlay, *fraction, *prefix_bits, seed),
            FailurePlan::AdaptiveAdversary { fraction, rounds } => {
                lower_adaptive(overlay, *fraction, *rounds)
            }
            FailurePlan::Cascade {
                seed_fraction,
                propagation,
            } => lower_cascade(overlay, *seed_fraction, *propagation, seed),
        }
    }
}

/// The `index`-th child RNG of `seed`, matching `dht_sim::SeedSequence`'s
/// `child(i) = splitmix64(master + i + 1)` derivation.
fn child_rng(seed: u64, index: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(splitmix64(seed.wrapping_add(index).wrapping_add(1)))
}

/// Exact kill budget for `fraction` of `n` occupied nodes.
fn kill_budget(fraction: f64, n: u64) -> u64 {
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let rounded = (fraction * n as f64).round() as u64;
    rounded.min(n)
}

fn lower_segments<O: Overlay + ?Sized>(
    overlay: &O,
    fraction: f64,
    segments: u32,
    seed: u64,
) -> FailureMask {
    let population = overlay.population();
    let n = population.node_count();
    let mut mask = FailureMask::none_over(population);
    let total = kill_budget(fraction, n);
    if total == 0 {
        return mask;
    }
    let mut rng = child_rng(seed, 0);
    // No more spans than kills: a span must fail at least one node.
    let spans = u64::from(segments).min(total);
    for span in 0..spans {
        let mut span_budget = total / spans + u64::from(span < total % spans);
        let mut rank = rng.gen_range(0..n);
        // Walk the occupied set cyclically from the drawn start, skipping
        // nodes an earlier (overlapping) span already felled. `total <= n`
        // guarantees an alive node exists while any budget remains.
        while span_budget > 0 {
            if mask.kill(population.node_at(rank)) {
                span_budget -= 1;
            }
            rank = (rank + 1) % n;
        }
    }
    mask
}

fn lower_prefixes<O: Overlay + ?Sized>(
    overlay: &O,
    fraction: f64,
    prefix_bits: u32,
    seed: u64,
) -> FailureMask {
    let population = overlay.population();
    let space = population.space();
    assert!(
        prefix_bits <= space.bits(),
        "prefix_subtree prefix_bits ({prefix_bits}) exceeds the overlay's \
         identifier length ({})",
        space.bits()
    );
    let mut mask = FailureMask::none_over(population);
    let subtrees = 1u64 << prefix_bits;
    let chosen = kill_budget(fraction, subtrees);
    if chosen == 0 {
        return mask;
    }
    let mut rng = child_rng(seed, 0);
    // Partial Fisher–Yates: the first `chosen` slots end up holding a
    // uniform draw of distinct prefixes.
    let mut slots: Vec<u64> = (0..subtrees).collect();
    for i in 0..chosen {
        let j = rng.gen_range(i..subtrees);
        #[allow(clippy::cast_possible_truncation)]
        slots.swap(i as usize, j as usize);
    }
    let shift = space.bits() - prefix_bits;
    #[allow(clippy::cast_possible_truncation)]
    for &prefix in &slots[..chosen as usize] {
        let base = prefix << shift;
        for value in base..base + (1u64 << shift) {
            // Counted no-op for unoccupied identifiers.
            let _ = mask.kill(space.wrap(value));
        }
    }
    mask
}

fn lower_adaptive<O: Overlay + ?Sized>(overlay: &O, fraction: f64, rounds: u32) -> FailureMask {
    let population = overlay.population();
    let n = population.node_count();
    let mut mask = FailureMask::none_over(population);
    let total = kill_budget(fraction, n);
    if total == 0 {
        return mask;
    }
    // Reverse-edge index over the whole identifier space: indeg[v] = number
    // of *alive* occupied nodes whose routing table points at v. Built once,
    // then maintained incrementally as victims drop. A node's own
    // placeholder slots (an empty bucket or tree level, an unoccupied
    // hypercube flip) are not in-edges.
    #[allow(clippy::cast_possible_truncation)]
    let mut indeg = vec![0u32; population.space().population() as usize];
    for node in population.iter_nodes() {
        for &entry in overlay.neighbors(node) {
            if entry != node {
                indeg[entry.value() as usize] += 1;
            }
        }
    }
    let rounds = u64::from(rounds).min(total);
    let mut candidates: Vec<NodeId> = Vec::new();
    for round in 0..rounds {
        let round_budget = total / rounds + u64::from(round < total % rounds);
        // Freeze this round's in-degree snapshot: highest in-degree first,
        // ties towards the smaller identifier.
        candidates.clear();
        candidates.extend(mask.alive_nodes());
        candidates.sort_unstable_by(|a, b| {
            indeg[b.value() as usize]
                .cmp(&indeg[a.value() as usize])
                .then(a.value().cmp(&b.value()))
        });
        #[allow(clippy::cast_possible_truncation)]
        for &victim in &candidates[..round_budget as usize] {
            let _ = mask.kill(victim);
            for &entry in overlay.neighbors(victim) {
                if entry != victim {
                    let slot = &mut indeg[entry.value() as usize];
                    *slot = slot.saturating_sub(1);
                }
            }
        }
    }
    mask
}

fn lower_cascade<O: Overlay + ?Sized>(
    overlay: &O,
    seed_fraction: f64,
    propagation: f64,
    seed: u64,
) -> FailureMask {
    let population = overlay.population();
    let mut mask = FailureMask::none_over(population);
    // Child 0 seeds (sample_over's exact stream shape), child 1 propagates —
    // separate streams so the seeding pattern at a given seed is independent
    // of the propagation parameter.
    let mut seeder = child_rng(seed, 0);
    let mut frontier: Vec<NodeId> = Vec::new();
    for node in population.iter_nodes() {
        if seeder.gen_bool(seed_fraction) && mask.kill(node) {
            frontier.push(node);
        }
    }
    let mut rng = child_rng(seed, 1);
    let mut next: Vec<NodeId> = Vec::new();
    while !frontier.is_empty() {
        next.clear();
        for &failed in &frontier {
            for &neighbor in overlay.neighbors(failed) {
                // One Bernoulli draw per (failed node, alive neighbor) edge,
                // in deterministic table order.
                if mask.is_alive(neighbor) && rng.gen_bool(propagation) && mask.kill(neighbor) {
                    next.push(neighbor);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chord::{ChordOverlay, ChordVariant};
    use crate::generic::NoRandomness;
    use crate::kademlia::KademliaOverlay;
    use dht_id::{KeySpace, Population};

    fn ring(bits: u32) -> ChordOverlay {
        ChordOverlay::build(bits, ChordVariant::Deterministic).unwrap()
    }

    fn xor(bits: u32) -> KademliaOverlay {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        KademliaOverlay::build(bits, &mut rng).unwrap()
    }

    fn all_plans(fraction: f64) -> Vec<FailurePlan> {
        vec![
            FailurePlan::Uniform { fraction },
            FailurePlan::SegmentCorrelated {
                fraction,
                segments: 4,
            },
            FailurePlan::PrefixSubtree {
                fraction,
                prefix_bits: 3,
            },
            FailurePlan::AdaptiveAdversary {
                fraction,
                rounds: 3,
            },
            FailurePlan::Cascade {
                seed_fraction: fraction,
                propagation: 0.3,
            },
        ]
    }

    #[test]
    fn uniform_lowering_matches_the_existing_sampling_regime() {
        let overlay = ring(8);
        let plan = FailurePlan::Uniform { fraction: 0.3 };
        let lowered = plan.lower(&overlay, 99);
        let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(100));
        let sampled = FailureMask::sample_over(overlay.population(), 0.3, &mut rng);
        assert_eq!(lowered.words(), sampled.words());
        assert_eq!(lowered.failed_count(), sampled.failed_count());
    }

    #[test]
    fn every_plan_lowers_bit_identically_for_a_fixed_seed() {
        let overlay = xor(8);
        for plan in all_plans(0.35) {
            let first = plan.lower(&overlay, 4242);
            let second = plan.lower(&overlay, 4242);
            assert_eq!(first.words(), second.words(), "{} drifted", plan.name());
            assert_eq!(first.failed_count(), second.failed_count());
            let other_seed = plan.lower(&overlay, 4243);
            if !matches!(plan, FailurePlan::AdaptiveAdversary { .. }) {
                assert_ne!(
                    first.words(),
                    other_seed.words(),
                    "{} ignored its seed",
                    plan.name()
                );
            }
        }
    }

    #[test]
    fn segment_and_adaptive_budgets_are_exact() {
        let overlay = ring(9);
        let n = overlay.node_count();
        for q in [0.1, 0.25, 0.5] {
            let expected = (q * n as f64).round() as u64;
            for plan in [
                FailurePlan::SegmentCorrelated {
                    fraction: q,
                    segments: 5,
                },
                FailurePlan::AdaptiveAdversary {
                    fraction: q,
                    rounds: 4,
                },
            ] {
                let mask = plan.lower(&overlay, 11);
                assert_eq!(mask.failed_count(), expected, "{} at q={q}", plan.name());
            }
        }
    }

    #[test]
    fn prefix_subtree_failures_are_bucket_aligned() {
        let overlay = xor(9);
        let prefix_bits = 3;
        let plan = FailurePlan::PrefixSubtree {
            fraction: 0.25,
            prefix_bits,
        };
        let mask = plan.lower(&overlay, 5);
        let chosen = (0.25f64 * 8.0).round() as u64;
        let subtree = 1u64 << (9 - prefix_bits);
        assert_eq!(mask.failed_count(), chosen * subtree);
        let shift = 9 - prefix_bits;
        let failed_prefixes: std::collections::BTreeSet<u64> = overlay
            .population()
            .iter_nodes()
            .filter(|&node| mask.is_failed(node))
            .map(|node| node.value() >> shift)
            .collect();
        assert_eq!(failed_prefixes.len() as u64, chosen);
        for prefix in failed_prefixes {
            for value in prefix << shift..(prefix + 1) << shift {
                assert!(mask.is_failed(overlay.key_space().wrap(value)));
            }
        }
    }

    #[test]
    fn adaptive_adversary_prefers_high_in_degree_nodes() {
        // A sparse ring and a sparse XOR overlay have uneven in-degree
        // (successor, finger and bucket resolution concentrate on some
        // nodes); the adversary's victims must have in-degree at least as
        // high as every survivor in round one. In-degree counts real
        // in-edges: a node's own placeholder slots (the XOR overlay's empty
        // buckets) are not edges.
        let space = KeySpace::new(8).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let population = Population::sample_uniform(space, 100, &mut rng).unwrap();
        let ring = ChordOverlay::build_over(
            population.clone(),
            ChordVariant::Deterministic,
            &mut NoRandomness,
        )
        .unwrap();
        let xor = KademliaOverlay::build_over(population, &mut rng).unwrap();
        let plan = FailurePlan::AdaptiveAdversary {
            fraction: 0.2,
            rounds: 1,
        };
        for overlay in [&ring as &dyn Overlay, &xor] {
            let mask = plan.lower(overlay, 0);
            let mut indeg = vec![0u32; space.population() as usize];
            for node in overlay.population().iter_nodes() {
                for &entry in overlay.neighbors(node) {
                    if entry != node {
                        indeg[entry.value() as usize] += 1;
                    }
                }
            }
            let min_victim = overlay
                .population()
                .iter_nodes()
                .filter(|&node| mask.is_failed(node))
                .map(|node| indeg[node.value() as usize])
                .min()
                .unwrap();
            let max_survivor = overlay
                .population()
                .iter_nodes()
                .filter(|&node| mask.is_alive(node))
                .map(|node| indeg[node.value() as usize])
                .max()
                .unwrap();
            let name = overlay.geometry_name();
            assert!(min_victim >= max_survivor, "{name}");
        }
    }

    #[test]
    fn cascade_without_propagation_is_exactly_its_seeding() {
        let overlay = ring(8);
        let seeded = FailurePlan::Cascade {
            seed_fraction: 0.3,
            propagation: 0.0,
        }
        .lower(&overlay, 17);
        let uniform = FailurePlan::Uniform { fraction: 0.3 }.lower(&overlay, 17);
        assert_eq!(seeded.words(), uniform.words());
        let spread = FailurePlan::Cascade {
            seed_fraction: 0.3,
            propagation: 0.5,
        }
        .lower(&overlay, 17);
        assert!(spread.failed_count() > seeded.failed_count());
        for node in overlay.population().iter_nodes() {
            if seeded.is_failed(node) {
                assert!(spread.is_failed(node), "cascade dropped a seed failure");
            }
        }
    }

    #[test]
    fn plans_respect_sparse_occupancy() {
        let space = KeySpace::new(10).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let population = Population::sample_uniform(space, 200, &mut rng).unwrap();
        let overlay = ChordOverlay::build_over(
            population.clone(),
            ChordVariant::Deterministic,
            &mut NoRandomness,
        )
        .unwrap();
        for plan in all_plans(0.4) {
            let mask = plan.lower(&overlay, 8);
            assert_eq!(mask.population_size(), 200);
            assert!(mask.failed_count() <= 200, "{}", plan.name());
            assert_eq!(
                mask.alive_count() + mask.failed_count(),
                200,
                "{} touched unoccupied identifiers",
                plan.name()
            );
            for node in mask.alive_nodes() {
                assert!(population.contains(node));
            }
        }
    }

    #[test]
    fn with_fraction_retargets_every_plan() {
        for plan in all_plans(0.1) {
            let retargeted = plan.with_fraction(0.6);
            assert_eq!(retargeted.target_fraction(), 0.6);
            assert_eq!(retargeted.name(), plan.name());
        }
    }

    #[test]
    fn plans_round_trip_through_json() {
        for plan in all_plans(0.25) {
            let json = serde_json::to_string(&plan).unwrap();
            let back: FailurePlan = serde_json::from_str(&json).unwrap();
            assert_eq!(back, plan);
        }
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        let bad = [
            FailurePlan::Uniform { fraction: -0.1 },
            FailurePlan::Uniform { fraction: f64::NAN },
            FailurePlan::SegmentCorrelated {
                fraction: 0.3,
                segments: 0,
            },
            FailurePlan::PrefixSubtree {
                fraction: 0.3,
                prefix_bits: 0,
            },
            FailurePlan::PrefixSubtree {
                fraction: 0.3,
                prefix_bits: MAX_SUBTREE_PREFIX_BITS + 1,
            },
            FailurePlan::AdaptiveAdversary {
                fraction: 0.3,
                rounds: 0,
            },
            FailurePlan::Cascade {
                seed_fraction: 0.3,
                propagation: 1.5,
            },
        ];
        for plan in bad {
            assert!(
                matches!(plan.validate(), Err(OverlayError::InvalidParameter { .. })),
                "{plan:?} passed validation"
            );
        }
        for plan in all_plans(0.0) {
            plan.validate().unwrap();
        }
    }
}
