//! Live-churn overlays: mutable-in-place geometry state with incremental,
//! provably rebuild-equivalent repair.
//!
//! The static crates freeze one failure pattern and never touch the routing
//! tables (the paper's *static resilience* model). [`LiveOverlay`] is the
//! complement: nodes depart and return while the overlay runs, and each event
//! triggers the geometry's *maintenance protocol* — the departed node's
//! in-neighbours re-resolve their dangling entries, a returning node rebuilds
//! its own table and re-inserts itself into the tables that should reference
//! it.
//!
//! # The fixed-universe model
//!
//! Churn happens over a fixed [`Population`] universe: the occupied
//! identifiers never change, only their *liveness* (tracked by a
//! [`FailureMask`]) flips. A "join" is a universe member coming back online.
//! This keeps ranks stable, and every table is the strategy's
//! [`table_width`](GeometryStrategy::table_width) — so the fixed-width
//! [`RoutingArena`] rows and the compiled kernel's plan rows never move or
//! resize, and a repair is a row rewrite ([`RoutingArena::rewrite_table`])
//! plus a single-row kernel re-lowering (dirty-rank invalidation), never a
//! rebuild.
//!
//! # The canonical-state invariant
//!
//! Each geometry exposes a *seeded live construction family* through
//! [`GeometryStrategy::build_live_table`]: node `a`'s table is a pure
//! function of `(population, a, seed(a), alive_set)`. [`LiveOverlay`]
//! maintains, after **every** event:
//!
//! * an alive node's row equals a fresh seeded build against the current
//!   alive set;
//! * a dead node's row is the all-self tombstone.
//!
//! So the entire state is a pure function of `(population, strategy,
//! master_seed, mask)` — which is what makes "equivalent to rebuild"
//! well-defined: [`LiveOverlay::rebuilt`] constructs that function from
//! scratch and the `incremental_equivalence` property suite asserts
//! entry-for-entry agreement (arena and kernel plan) after arbitrary event
//! sequences.
//!
//! # The repair engine
//!
//! Finding *which* rows an event invalidates is the geometry-specific part:
//!
//! * **Leaves** are generic: the overlay maintains a reverse index
//!   (`in_edges`) from each rank to the owners referencing it, so the dirty
//!   set of a departure is exactly the departed node's in-neighbours.
//! * **Joins** use [`GeometryStrategy::live_repair_candidates`]: the strategy
//!   names *witnesses* (alive nodes such that every entry that should now
//!   point at the joiner currently points at a witness — the ring successor,
//!   the first alive bucket member clockwise of the joiner) and *direct*
//!   owners (whose stale entries are self placeholders no reverse edge
//!   records, e.g. hypercube neighbours).
//!
//! Dirty rows are then recomputed from the seeded family against the final
//! mask — a pure function of the end state, so over-approximating the dirty
//! set is always safe and repair order never matters.
//!
//! # Example
//!
//! ```rust
//! use dht_id::{KeySpace, Population};
//! use dht_overlay::chord::ChordStrategy;
//! use dht_overlay::{ChordVariant, LiveOverlay, Overlay};
//!
//! let space = KeySpace::new(6)?;
//! let strategy = ChordStrategy::new(ChordVariant::Randomized);
//! let mut overlay = LiveOverlay::build(Population::full(space), strategy, 7)?;
//! let node = space.wrap(17);
//! assert!(overlay.leave(node));
//! assert!(overlay.neighbors(node).iter().all(|&n| n == node), "tombstoned");
//! assert!(overlay.join(node));
//! // Delta-patched state is entry-for-entry the from-scratch rebuild.
//! assert_eq!(overlay.state_digest(), overlay.rebuilt().state_digest());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::arena::RoutingArena;
use crate::failure::FailureMask;
use crate::generic::GeometryStrategy;
use crate::kernel::RoutingKernel;
use crate::traits::{validate_population, Overlay, OverlayError};
use dht_id::{NodeId, Population};
use std::sync::Arc;

/// The SplitMix64 finaliser, shared by the per-node seed derivation, the
/// state digests and the kernel's plan digest. Mirrors `dht_sim`'s
/// `SeedSequence` mixer so seeds derived on either side of the crate boundary
/// agree on quality.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-node construction seed of the live family: every rebuild of
/// `node`'s table — incremental repair or from-scratch — draws from the same
/// stream, which is what makes the table a pure function of the alive set.
pub(crate) fn live_node_seed(master_seed: u64, node: NodeId) -> u64 {
    splitmix64(master_seed.wrapping_add(node.value()).wrapping_add(1))
}

/// The first *alive* occupied identifier clockwise from `start` (inclusive),
/// wrapping around the ring — the live analogue of
/// [`Population::successor`].
///
/// # Panics
///
/// Panics if no occupied node is alive (live constructions only run for alive
/// owners, so at least the owner itself survives).
pub(crate) fn alive_successor(population: &Population, alive: &FailureMask, start: u64) -> NodeId {
    let first = population.successor(start);
    let mut rank = population
        .rank_of_value(first.value())
        .expect("successor returns an occupied identifier");
    let count = population.node_count();
    for _ in 0..count {
        let node = population.node_at(rank);
        if alive.is_alive(node) {
            return node;
        }
        rank = (rank + 1) % count;
    }
    panic!("alive_successor requires at least one alive node");
}

/// The first alive occupied identifier of the inclusive value range
/// `[lo, hi]`, scanning cyclically *within the range* starting at `from`
/// (`lo <= from <= hi`), skipping `exclude`. `None` when the range holds no
/// alive node besides `exclude`.
///
/// This is the resolution rule of the prefix geometries' live family: a
/// bucket contact is the first alive member of the bucket subtree at or after
/// a seeded starting point, wrapping within the subtree.
pub(crate) fn alive_in_range_cyclic(
    population: &Population,
    alive: &FailureMask,
    lo: u64,
    hi: u64,
    from: u64,
    exclude: Option<NodeId>,
) -> Option<NodeId> {
    debug_assert!(lo <= from && from <= hi, "cyclic start must sit in range");
    let count = population.node_count();
    // Phase 1: [from ..= hi], ascending occupied values.
    let first = population.successor(from);
    if first.value() >= from && first.value() <= hi {
        let mut rank = population
            .rank_of_value(first.value())
            .expect("successor returns an occupied identifier");
        while rank < count {
            let node = population.node_at(rank);
            if node.value() > hi {
                break;
            }
            if alive.is_alive(node) && Some(node) != exclude {
                return Some(node);
            }
            rank += 1;
        }
    }
    // Phase 2: wrap to [lo .. from).
    if lo < from {
        let first = population.successor(lo);
        let value = first.value();
        if value >= lo && value < from {
            let mut rank = population
                .rank_of_value(value)
                .expect("successor returns an occupied identifier");
            while rank < count {
                let node = population.node_at(rank);
                if node.value() >= from {
                    break;
                }
                if alive.is_alive(node) && Some(node) != exclude {
                    return Some(node);
                }
                rank += 1;
            }
        }
    }
    None
}

/// Calls `f` on every alive occupied identifier of the inclusive value range
/// `[lo, hi]`, in ascending order.
pub(crate) fn for_each_alive_in_range(
    population: &Population,
    alive: &FailureMask,
    lo: u64,
    hi: u64,
    mut f: impl FnMut(NodeId),
) {
    let first = population.successor(lo);
    let value = first.value();
    if value < lo || value > hi {
        return;
    }
    let mut rank = population
        .rank_of_value(value)
        .expect("successor returns an occupied identifier");
    let count = population.node_count();
    while rank < count {
        let node = population.node_at(rank);
        if node.value() > hi {
            break;
        }
        if alive.is_alive(node) {
            f(node);
        }
        rank += 1;
    }
}

/// Tests bit `rank` of a rank-indexed alive bitset.
#[inline]
fn rank_bit(words: &[u64], rank: u32) -> bool {
    words[(rank >> 6) as usize] & (1u64 << (rank & 63)) != 0
}

/// A mutable-in-place overlay under live churn: the tentpole state of the
/// discrete-event simulator.
///
/// See the [module docs](self) for the model, the canonical-state invariant
/// and the repair engine. Built by [`LiveOverlay::build`]; driven by
/// [`LiveOverlay::join`] / [`LiveOverlay::leave`] (repair mode) or
/// [`LiveOverlay::set_liveness_frozen`] (the paper's static model, tables
/// frozen); audited by [`LiveOverlay::rebuilt`] and
/// [`LiveOverlay::state_digest`].
#[derive(Debug, Clone)]
pub struct LiveOverlay<S> {
    /// Shared with the kernel (value↔rank mapping), as in
    /// [`crate::GeometryOverlay`].
    population: Arc<Population>,
    strategy: S,
    master_seed: u64,
    /// Every live or tombstoned table, one `table_width` row per rank.
    arena: RoutingArena,
    mask: FailureMask,
    /// Rank-indexed alive bits (bit `r` set iff the rank-`r` node is alive),
    /// maintained incrementally — one flip per event — and handed straight to
    /// [`RoutingKernel::route_batch`] so lookups never recompile a mask.
    rank_words: Vec<u64>,
    kernel: RoutingKernel,
    /// Reverse index: `in_edges[t]` holds the rank of every owner whose
    /// current arena row references rank `t`, duplicates included (one entry
    /// per edge). The dirty set of a departure is exactly `in_edges[rank]`.
    in_edges: Vec<Vec<u32>>,
    repairs: u64,
}

impl<S: GeometryStrategy> LiveOverlay<S> {
    /// Builds the live overlay over `population` with every node initially
    /// alive. `master_seed` roots the per-node construction seeds; two
    /// overlays built with the same arguments are identical, and stay
    /// identical under identical event sequences.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::InvalidParameter`] when the strategy does not
    /// implement the live maintenance hooks ([`GeometryStrategy::supports_live`])
    /// or exports no kernel rule, and the usual construction errors for
    /// unsupported spaces or too-small populations.
    pub fn build(
        population: Population,
        strategy: S,
        master_seed: u64,
    ) -> Result<Self, OverlayError> {
        if !strategy.supports_live() {
            return Err(OverlayError::InvalidParameter {
                message: format!(
                    "geometry `{}` does not implement the live maintenance hooks",
                    strategy.geometry_name()
                ),
            });
        }
        if strategy.kernel_rule().is_none() {
            return Err(OverlayError::InvalidParameter {
                message: format!(
                    "geometry `{}` exports no kernel rule; live overlays require a compiled plan",
                    strategy.geometry_name()
                ),
            });
        }
        validate_population(&population)?;
        let mask = FailureMask::none_over(&population);
        Ok(Self::build_at(
            Arc::new(population),
            strategy,
            master_seed,
            mask,
        ))
    }

    /// Constructs the canonical state for `mask`: seeded live rows for alive
    /// nodes, tombstones for dead ones, kernel and reverse index from
    /// scratch.
    fn build_at(
        population: Arc<Population>,
        strategy: S,
        master_seed: u64,
        mask: FailureMask,
    ) -> Self {
        let node_count = usize::try_from(population.node_count()).expect("overlay sizes fit usize");
        let width = strategy.table_width(&population);
        let mut arena = RoutingArena::with_capacity(width, node_count);
        let mut table: Vec<NodeId> = Vec::with_capacity(width);
        let mut rank_words = vec![0u64; node_count.div_ceil(64)];
        for (rank, node) in population.iter_nodes().enumerate() {
            table.clear();
            if mask.is_alive(node) {
                strategy.build_live_table(
                    &population,
                    node,
                    live_node_seed(master_seed, node),
                    &mask,
                    &mut table,
                );
                rank_words[rank >> 6] |= 1u64 << (rank & 63);
            } else {
                table.resize(width, node);
            }
            arena.push_table(&table);
        }
        let rule = strategy
            .kernel_rule()
            .expect("checked by LiveOverlay::build");
        let kernel = RoutingKernel::compile(rule, &population, &arena);
        let mut in_edges: Vec<Vec<u32>> = vec![Vec::new(); node_count];
        for rank in 0..node_count {
            for &entry in arena.neighbors(rank) {
                let target = population
                    .rank_of_value(entry.value())
                    .expect("live tables only reference occupied identifiers")
                    as usize;
                in_edges[target].push(rank as u32);
            }
        }
        LiveOverlay {
            population,
            strategy,
            master_seed,
            arena,
            mask,
            rank_words,
            kernel,
            in_edges,
            repairs: 0,
        }
    }

    /// Occupied rank of a referenced identifier.
    fn rank_of(&self, node: NodeId) -> u32 {
        self.population
            .rank_of_value(node.value())
            .expect("live tables only reference occupied identifiers") as u32
    }

    /// Brings `node` (an occupied universe member) back online and runs the
    /// join protocol: the joiner rebuilds its own table, and every owner the
    /// strategy's repair candidates implicate re-resolves its entries.
    ///
    /// Returns `false` (a no-op) when `node` is unoccupied or already alive.
    pub fn join(&mut self, node: NodeId) -> bool {
        let Some(rank) = self.population.index_of(node) else {
            return false;
        };
        if !self.mask.set_alive(node) {
            return false;
        }
        let rank = rank as usize;
        self.rank_words[rank >> 6] |= 1u64 << (rank & 63);
        // Candidates are named against the *new* alive set (joiner included).
        let mut witnesses: Vec<NodeId> = Vec::new();
        let mut direct: Vec<NodeId> = Vec::new();
        self.strategy.live_repair_candidates(
            &self.population,
            node,
            &self.mask,
            &mut witnesses,
            &mut direct,
        );
        let mut dirty: Vec<u32> = vec![rank as u32];
        for witness in witnesses {
            let witness_rank = self.rank_of(witness) as usize;
            dirty.extend_from_slice(&self.in_edges[witness_rank]);
        }
        for owner in direct {
            dirty.push(self.rank_of(owner));
        }
        self.repair_dirty(dirty);
        true
    }

    /// Takes `node` offline and runs the leave protocol: the departed row is
    /// tombstoned and every in-neighbour (from the reverse index) re-resolves
    /// its entries.
    ///
    /// Returns `false` (a no-op) when `node` is unoccupied or already dead.
    pub fn leave(&mut self, node: NodeId) -> bool {
        let Some(rank) = self.population.index_of(node) else {
            return false;
        };
        if !self.mask.kill(node) {
            return false;
        }
        let rank = rank as usize;
        self.rank_words[rank >> 6] &= !(1u64 << (rank & 63));
        // Snapshot the in-neighbours before the tombstone rewrites the
        // reverse index; the departed rank itself is skipped by the alive
        // check in repair_dirty.
        let dirty: Vec<u32> = self.in_edges[rank].clone();
        let tombstone = vec![node; self.arena.width()];
        self.set_row(rank, &tombstone);
        self.repair_dirty(dirty);
        true
    }

    /// Flips `node`'s liveness **without** repairing any routing table — the
    /// frozen-table mode that reproduces the paper's static model while
    /// sessions churn: tables stay whatever the last repaired state was
    /// (typically the all-alive build), only the mask moves.
    ///
    /// Returns `false` (a no-op) when `node` is unoccupied or already in the
    /// requested state.
    pub fn set_liveness_frozen(&mut self, node: NodeId, alive: bool) -> bool {
        let Some(rank) = self.population.index_of(node) else {
            return false;
        };
        let flipped = if alive {
            self.mask.set_alive(node)
        } else {
            self.mask.kill(node)
        };
        if flipped {
            let rank = rank as usize;
            if alive {
                self.rank_words[rank >> 6] |= 1u64 << (rank & 63);
            } else {
                self.rank_words[rank >> 6] &= !(1u64 << (rank & 63));
            }
        }
        flipped
    }

    /// Recomputes the alive rows of `dirty` (ranks, duplicates allowed)
    /// against the current mask, in ascending rank order.
    ///
    /// Row recomputation is a pure function of the final state, so
    /// over-approximated dirty sets and repeated ranks are harmless; the sort
    /// only pins a deterministic repair order.
    fn repair_dirty(&mut self, mut dirty: Vec<u32>) {
        dirty.sort_unstable();
        dirty.dedup();
        for rank in dirty {
            if rank_bit(&self.rank_words, rank) {
                self.repair_row(rank as usize);
            }
        }
    }

    /// Rebuilds one alive node's row from the seeded family and patches it in.
    fn repair_row(&mut self, rank: usize) {
        let node = self.population.node_at(rank as u64);
        debug_assert!(self.mask.is_alive(node), "only alive rows are repaired");
        let mut table: Vec<NodeId> = Vec::with_capacity(self.arena.width());
        self.strategy.build_live_table(
            &self.population,
            node,
            live_node_seed(self.master_seed, node),
            &self.mask,
            &mut table,
        );
        self.set_row(rank, &table);
    }

    /// Writes `table` into row `rank` — arena, reverse index and kernel plan
    /// in lockstep. Returns `false` (and touches nothing) when the row
    /// already equals `table`.
    fn set_row(&mut self, rank: usize, table: &[NodeId]) -> bool {
        if self.arena.neighbors(rank) == table {
            return false;
        }
        let old: Vec<NodeId> = self.arena.neighbors(rank).to_vec();
        for &entry in &old {
            let target = self.rank_of(entry) as usize;
            let edges = &mut self.in_edges[target];
            let position = edges
                .iter()
                .position(|&owner| owner == rank as u32)
                .expect("the reverse index tracks every edge");
            // Order within an in-edge list is irrelevant: dirty sets are
            // sorted before repair, so swap_remove's reordering never leaks
            // into observable state.
            edges.swap_remove(position);
        }
        self.arena.rewrite_table(rank, table);
        for &entry in table {
            let target = self.rank_of(entry) as usize;
            self.in_edges[target].push(rank as u32);
        }
        let node = self.population.node_at(rank as u64);
        self.kernel.relower_rank(rank, node, table);
        self.repairs += 1;
        true
    }

    /// The canonical state for the current mask, built from scratch: same
    /// population, strategy, seed and liveness, fresh arena/kernel/indices.
    ///
    /// The incremental-equivalence property suite asserts the delta-patched
    /// overlay agrees with this entry for entry after any event sequence.
    #[must_use]
    pub fn rebuilt(&self) -> Self
    where
        S: Clone,
    {
        Self::build_at(
            Arc::clone(&self.population),
            self.strategy.clone(),
            self.master_seed,
            self.mask.clone(),
        )
    }

    /// A 64-bit digest of the full overlay state: mask words, every arena
    /// entry in rank order, and the kernel's plan digest, folded with
    /// SplitMix64. Equal states digest identically; the live-churn engine
    /// folds this into its final-state hashes so thread-count determinism is
    /// checked against the overlay itself, not just the tallies.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for &word in self.mask.words() {
            digest = splitmix64(digest ^ word);
        }
        for rank in 0..self.arena.node_count() {
            for &entry in self.arena.neighbors(rank) {
                digest = splitmix64(digest ^ entry.value());
            }
        }
        splitmix64(digest ^ self.kernel.plan_digest())
    }

    /// The current liveness of the universe.
    #[must_use]
    pub fn mask(&self) -> &FailureMask {
        &self.mask
    }

    /// The rank-indexed alive bitset (bit `r` set iff the rank-`r` occupied
    /// node is alive), maintained incrementally — feed it to
    /// [`RoutingKernel::route_batch`] for mask-compile-free lookups.
    #[must_use]
    pub fn rank_alive_words(&self) -> &[u64] {
        &self.rank_words
    }

    /// The compiled live routing plan (always present: [`LiveOverlay::build`]
    /// rejects strategies without a kernel rule).
    #[must_use]
    pub fn routing_kernel(&self) -> &RoutingKernel {
        &self.kernel
    }

    /// The arena holding every (live or tombstoned) routing table.
    #[must_use]
    pub fn arena(&self) -> &RoutingArena {
        &self.arena
    }

    /// The geometry strategy driving this overlay.
    #[must_use]
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// The master seed rooting the per-node construction streams.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Number of row rewrites performed so far (tombstones included) — a
    /// diagnostic of repair traffic, not a protocol message count.
    #[must_use]
    pub fn repairs(&self) -> u64 {
        self.repairs
    }
}

impl<S: GeometryStrategy> Overlay for LiveOverlay<S> {
    fn geometry_name(&self) -> &'static str {
        self.strategy.geometry_name()
    }

    fn population(&self) -> &Population {
        &self.population
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        debug_assert_eq!(
            node.bits(),
            self.population.space().bits(),
            "node belongs to a different key space"
        );
        let node = self.population.space().wrap(node.value());
        match self.population.index_of(node) {
            Some(rank) => self.arena.neighbors(rank as usize),
            None => &[],
        }
    }

    fn next_hop(&self, current: NodeId, target: NodeId, alive: &FailureMask) -> Option<NodeId> {
        self.strategy
            .next_hop(self.neighbors(current), current, target, alive)
    }

    fn edge_count(&self) -> u64 {
        self.arena.entry_count()
    }

    fn kernel(&self) -> Option<&RoutingKernel> {
        Some(&self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chord::ChordStrategy;
    use crate::kademlia::KademliaStrategy;
    use crate::router::{default_route_hop_limit, route_with_limit};
    use crate::{ChordVariant, RouteBatch};
    use dht_id::KeySpace;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn space(bits: u32) -> KeySpace {
        KeySpace::new(bits).unwrap()
    }

    #[test]
    fn helpers_resolve_against_the_alive_set() {
        let s = space(6);
        let population =
            Population::sparse(s, [5u64, 9, 20, 40, 60].into_iter().map(|v| s.wrap(v))).unwrap();
        let mut mask = FailureMask::none_over(&population);
        assert_eq!(alive_successor(&population, &mask, 6), s.wrap(9));
        mask.kill(s.wrap(9));
        assert_eq!(alive_successor(&population, &mask, 6), s.wrap(20));
        assert_eq!(alive_successor(&population, &mask, 61), s.wrap(5), "wraps");
        // Cyclic in-range: start mid-range, wrap within [5, 40].
        assert_eq!(
            alive_in_range_cyclic(&population, &mask, 5, 40, 21, None),
            Some(s.wrap(40))
        );
        assert_eq!(
            alive_in_range_cyclic(&population, &mask, 21, 39, 21, None),
            None,
            "a range with no alive occupied identifier resolves to nothing",
        );
        assert_eq!(
            alive_in_range_cyclic(&population, &mask, 5, 40, 40, Some(s.wrap(40))),
            Some(s.wrap(5)),
            "wraps to the range head, skipping the excluded node",
        );
        let mut seen = Vec::new();
        for_each_alive_in_range(&population, &mask, 5, 40, |n| seen.push(n.value()));
        assert_eq!(seen, vec![5, 20, 40], "dead 9 is skipped");
    }

    #[test]
    fn build_rejects_non_live_strategies() {
        // The test-only successor strategy has no live hooks.
        #[derive(Debug)]
        struct NoLive;
        impl GeometryStrategy for NoLive {
            fn geometry_name(&self) -> &'static str {
                "nolive"
            }
            fn table_width(&self, _population: &Population) -> usize {
                1
            }
            fn build_table<R: rand::Rng + ?Sized>(
                &self,
                population: &Population,
                node: NodeId,
                _rng: &mut R,
                table: &mut Vec<NodeId>,
            ) {
                table.push(population.successor(node.value().wrapping_add(1)));
            }
            fn next_hop(
                &self,
                _neighbors: &[NodeId],
                _current: NodeId,
                _target: NodeId,
                _alive: &FailureMask,
            ) -> Option<NodeId> {
                None
            }
        }
        let err = LiveOverlay::build(Population::full(space(4)), NoLive, 1).unwrap_err();
        assert!(matches!(err, OverlayError::InvalidParameter { .. }));
    }

    #[test]
    fn leave_tombstones_and_join_restores() {
        let s = space(6);
        let strategy = ChordStrategy::new(ChordVariant::Randomized);
        let mut overlay = LiveOverlay::build(Population::full(s), strategy, 42).unwrap();
        let baseline = overlay.state_digest();
        let node = s.wrap(17);
        assert!(overlay.leave(node));
        assert!(!overlay.leave(node), "double leave is a no-op");
        assert!(overlay.mask().is_failed(node));
        assert_eq!(overlay.neighbors(node), vec![node; 6].as_slice());
        assert_ne!(overlay.state_digest(), baseline);
        assert!(overlay.join(node));
        assert!(!overlay.join(node), "double join is a no-op");
        assert_eq!(
            overlay.state_digest(),
            baseline,
            "leave + join round-trips to the all-alive canonical state"
        );
        assert!(overlay.repairs() > 0);
    }

    #[test]
    fn random_event_sequence_matches_the_rebuild() {
        let s = space(7);
        let strategy = KademliaStrategy;
        let mut overlay = LiveOverlay::build(Population::full(s), strategy, 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..120 {
            let node = s.wrap(rng.gen_range(0..s.population()));
            if rng.gen_bool(0.5) {
                overlay.leave(node);
            } else {
                overlay.join(node);
            }
        }
        let rebuilt = overlay.rebuilt();
        for rank in 0..overlay.arena().node_count() {
            assert_eq!(
                overlay.arena().neighbors(rank),
                rebuilt.arena().neighbors(rank),
                "row {rank} diverged from the canonical state"
            );
        }
        assert!(overlay.routing_kernel().plan_eq(rebuilt.routing_kernel()));
        assert_eq!(overlay.state_digest(), rebuilt.state_digest());
    }

    #[test]
    fn ranked_routing_agrees_with_the_scalar_path_under_churn() {
        let s = space(7);
        let strategy = ChordStrategy::new(ChordVariant::Randomized);
        let mut overlay = LiveOverlay::build(Population::full(s), strategy, 9).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..60 {
            let node = s.wrap(rng.gen_range(0..s.population()));
            if rng.gen_bool(0.5) {
                overlay.leave(node);
            } else {
                overlay.join(node);
            }
        }
        let limit = default_route_hop_limit(&overlay);
        let pairs: Vec<(u64, u64)> = (0..300)
            .map(|_| {
                (
                    rng.gen_range(0..s.population()),
                    rng.gen_range(0..s.population()),
                )
            })
            .collect();
        let mut outcomes = Vec::new();
        overlay.routing_kernel().route_batch(
            &mut RouteBatch::default(),
            overlay.rank_alive_words(),
            &pairs,
            limit,
            &mut outcomes,
        );
        for (&(source, target), outcome) in pairs.iter().zip(&outcomes) {
            assert_eq!(
                *outcome,
                route_with_limit(
                    &overlay,
                    s.wrap(source),
                    s.wrap(target),
                    overlay.mask(),
                    limit
                ),
            );
        }
    }

    #[test]
    fn frozen_flips_move_the_mask_but_not_the_tables() {
        let s = space(6);
        let strategy = ChordStrategy::new(ChordVariant::Deterministic);
        let mut overlay = LiveOverlay::build(Population::full(s), strategy, 1).unwrap();
        let node = s.wrap(33);
        let row_before = overlay.neighbors(node).to_vec();
        assert!(overlay.set_liveness_frozen(node, false));
        assert!(!overlay.set_liveness_frozen(node, false), "no-op repeat");
        assert!(overlay.mask().is_failed(node));
        assert_eq!(overlay.neighbors(node), row_before.as_slice(), "frozen");
        assert_eq!(overlay.repairs(), 0);
        assert!(overlay.set_liveness_frozen(node, true));
    }
}
