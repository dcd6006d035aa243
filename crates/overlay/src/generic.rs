//! The generic overlay shared by all five routing geometries.

use crate::arena::RoutingArena;
use crate::failure::FailureMask;
use crate::kernel::{KernelRule, RoutingKernel, RowForm};
use crate::traits::{validate_bits, validate_population, Overlay, OverlayError};
use dht_id::{NodeId, Population};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, OnceLock};

/// One routing geometry: how tables are built and how the greedy hop is
/// chosen.
///
/// The five geometry modules of this crate each provide one implementation
/// (e.g. [`crate::chord::ChordStrategy`]); [`GeometryOverlay`] supplies
/// everything else — table storage, population handling, validation and the
/// [`Overlay`] plumbing — exactly once.
///
/// Strategies are `Send + Sync` (like [`Overlay`] itself): they are immutable
/// after construction and queried concurrently by batch routing drivers.
pub trait GeometryStrategy: Send + Sync {
    /// Short name of the routing geometry (matches the analytical crate),
    /// e.g. `"xor"`.
    fn geometry_name(&self) -> &'static str;

    /// The number of slots in every routing table over `population`: one
    /// per tree level, hypercube dimension, XOR bucket or ring finger, or
    /// `k_n + k_s` for Symphony.
    ///
    /// Exact, not a hint: [`GeometryStrategy::build_table`] and
    /// [`GeometryStrategy::build_live_table`] each append exactly this many
    /// entries for every node, so every table fills one fixed-width row of
    /// the [`RoutingArena`] and of the kernel's plan.
    fn table_width(&self, population: &Population) -> usize;

    /// Appends the [`table_width`](GeometryStrategy::table_width) routing-table
    /// entries of `node` to `table`, choosing targets among the occupied
    /// identifiers of `population`.
    ///
    /// For a full population implementations must reproduce the paper's
    /// construction (and its RNG stream) exactly; for a sparse one they remap
    /// each conceptual target onto the occupied set (successor, bucket
    /// sampling, …). A slot with no target — an empty tree level or XOR
    /// bucket, an unoccupied hypercube flip — holds the node itself as a
    /// placeholder, and `next_hop` implementations treat a self-entry as
    /// absent (it makes no progress).
    fn build_table<R: Rng + ?Sized>(
        &self,
        population: &Population,
        node: NodeId,
        rng: &mut R,
        table: &mut Vec<NodeId>,
    );

    /// The geometry's greedy forwarding rule over the `neighbors` table of
    /// `current`, restricted to alive nodes.
    fn next_hop(
        &self,
        neighbors: &[NodeId],
        current: NodeId,
        target: NodeId,
        alive: &FailureMask,
    ) -> Option<NodeId>;

    /// The hop-key rule the compiled routing kernel lowers this geometry
    /// with, or `None` when the geometry cannot be compiled (scalar routing
    /// only — the default).
    ///
    /// A strategy that exports a rule asserts that the rule's dispatch over
    /// its precomputed hop keys reproduces [`GeometryStrategy::next_hop`]
    /// *exactly* — the kernel equivalence suite holds every geometry to
    /// bit-identical [`crate::RouteOutcome`]s.
    fn kernel_rule(&self) -> Option<KernelRule> {
        None
    }

    /// The exact number of 32-bit RNG words [`GeometryStrategy::build_table`]
    /// consumes per node, when that count is a constant — the contract the
    /// implicit backend ([`crate::ImplicitOverlay`]) is built on.
    ///
    /// During a materialized build every node's table is drawn from one
    /// shared sequential stream. When the per-node draw count is fixed, the
    /// stream offset of rank `r` is simply `r * words`, so any single row can
    /// be regenerated bit-identically by seeking a counter-mode RNG — no
    /// table ever needs to stay resident. Returning `Some(words)` asserts
    /// exactly that: *every* node consumes exactly `words` 32-bit words, in
    /// rank order, independent of what the draws produce. The
    /// cross-backend equivalence suite holds implementations to this
    /// bit-for-bit. A [seeded](GeometryOverlay::seeded) overlay relies on it
    /// too: its kernel compiles rank chunks from positioned streams, and it
    /// counts its edges without building its tables.
    ///
    /// The default is `None`: the geometry (or this population shape) cannot
    /// be routed implicitly. Implementations typically return `Some` only for
    /// full populations, where table construction never branches on
    /// occupancy.
    fn implicit_stream_words(&self, population: &Population) -> Option<u64> {
        let _ = population;
        None
    }

    /// How the kernels read the entries a hop probes over `population`
    /// (see [`crate::kernel`]).
    ///
    /// The default, lowered rows, serves every geometry that exports a
    /// [`KernelRule`]: the materialized kernel compiles them into its plan
    /// and the implicit one regenerates them into its row cache. A strategy
    /// that declares another form asserts that the form's entries are
    /// exactly the static row lowering's entries a hop reads — the closed
    /// form (ring fingers `n + 2^i`, hypercube links `n ^ 2^i`, both
    /// backends, no plan) or positioned prefix draws (bucket `b` is the
    /// `next_u64` at word `2b` of the node's stream slice, implicit backend).
    /// The equivalence suites hold every declaration to the scalar path.
    fn row_form(&self, population: &Population) -> RowForm {
        let _ = population;
        RowForm::Rows
    }

    /// Whether the geometry implements the live-churn maintenance hooks
    /// below ([`crate::LiveOverlay`] refuses strategies that do not).
    ///
    /// The default is `false`: a strategy only participates in live churn
    /// once it provides [`GeometryStrategy::build_live_table`] and
    /// [`GeometryStrategy::live_repair_candidates`] and has argued their
    /// rebuild-equivalence (the `incremental_equivalence` property suite
    /// holds every live geometry to entry-for-entry agreement with a
    /// from-scratch rebuild).
    fn supports_live(&self) -> bool {
        false
    }

    /// Builds `node`'s live routing table against the current `alive` set,
    /// appending exactly [`GeometryStrategy::table_width`] entries, so
    /// [`RoutingArena::rewrite_table`] and the kernel's in-place row repair
    /// never resize a row.
    ///
    /// **Purity contract:** the table must be a pure function of
    /// `(population, node, node_seed, alive)`. All randomness comes from
    /// `node_seed` alone, and every random draw must be made *before* it is
    /// resolved against the alive set (membership-independent draws), so
    /// that repairing a node after any event sequence reproduces exactly the
    /// table a from-scratch rebuild would choose. Unsatisfiable slots push
    /// `node` itself as a placeholder.
    fn build_live_table(
        &self,
        population: &Population,
        node: NodeId,
        node_seed: u64,
        alive: &FailureMask,
        table: &mut Vec<NodeId>,
    ) {
        let _ = (population, node, node_seed, alive, table);
        panic!(
            "geometry `{}` does not support live churn",
            self.geometry_name()
        );
    }

    /// Names the nodes whose tables may change when `node` (just revived,
    /// already marked alive in `alive`) joins the overlay.
    ///
    /// Two channels: `witnesses` collects alive nodes with the property that
    /// *every* table entry that should now point at `node` currently points
    /// at (or past) a witness — the repair engine dirties every owner of an
    /// in-edge to a witness. `direct` collects owners that must be recomputed
    /// unconditionally (e.g. hypercube neighbours, whose stale entries are
    /// self placeholders that no reverse edge records). Leaves need no
    /// candidates: the reverse index of the departed node's in-edges is
    /// complete by construction.
    fn live_repair_candidates(
        &self,
        population: &Population,
        node: NodeId,
        alive: &FailureMask,
        witnesses: &mut Vec<NodeId>,
        direct: &mut Vec<NodeId>,
    ) {
        let _ = (population, node, alive, witnesses, direct);
        panic!(
            "geometry `{}` does not support live churn",
            self.geometry_name()
        );
    }
}

/// An executable overlay: a [`GeometryStrategy`] plus a [`Population`] plus
/// one [`RoutingArena`] holding every routing table.
///
/// This is the materialized backend's only overlay type. The five public
/// overlay names ([`crate::ChordOverlay`] etc.) are aliases of it at their
/// geometry's strategy, and each adds its own constructors (`build`,
/// `build_over`) and table accessors; use them unless you are adding a new
/// geometry.
///
/// # When the arena exists
///
/// [`GeometryOverlay::over`] (and every typed constructor) draws the tables
/// from the caller's RNG and stores them at once. A
/// [`seeded`](GeometryOverlay::seeded) overlay over a full population stores
/// nothing up front: its kernel compiles the plan straight from the
/// construction stream (or routes in closed form), and its arena is
/// replayed from the stream only when [`Overlay::neighbors`], the scalar
/// oracle or [`GeometryOverlay::arena`] first reads it — bit for bit the
/// arena `over` would have stored from the same seed. At 2^20 nodes that
/// arena is 324 MiB of `NodeId`s, twice an XOR plan.
///
/// # Example
///
/// ```rust
/// use dht_id::Population;
/// use dht_overlay::chord::ChordStrategy;
/// use dht_overlay::{ChordVariant, GeometryOverlay, Overlay};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let space = dht_id::KeySpace::new(8)?;
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let overlay = GeometryOverlay::over(
///     Population::full(space),
///     ChordStrategy::new(ChordVariant::Randomized),
///     &mut rng,
/// )?;
/// assert_eq!(overlay.edge_count(), 256 * 8);
/// // The same overlay from its stream seed: the plan compiles on two
/// // threads, and no arena is built on the way.
/// let strategy = ChordStrategy::new(ChordVariant::Randomized);
/// let seeded = GeometryOverlay::seeded(8, strategy, 1, 2)?;
/// let plan = seeded.kernel().expect("ring compiles");
/// assert_eq!(seeded.resident_bytes(), plan.plan_bytes());
/// assert_eq!(plan.plan_digest(), overlay.kernel().unwrap().plan_digest());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GeometryOverlay<S> {
    /// Shared with the compiled kernel (which needs the population for
    /// value↔rank mapping) instead of cloned into it — a sparse population's
    /// prefix-count table is the size of the identifier space.
    population: Arc<Population>,
    strategy: S,
    /// Filled at construction by [`GeometryOverlay::over`]; replayed from
    /// `stream` on first read for a seeded overlay.
    arena: OnceLock<RoutingArena>,
    /// The construction stream of a seeded overlay, `None` for one built
    /// from a caller's RNG.
    stream: Option<Stream>,
    /// Lazily compiled rank-space kernel (see [`crate::kernel`]); only
    /// geometries whose strategy exports a [`KernelRule`] ever initialise it,
    /// and closed-form geometries initialise it without a plan.
    kernel: OnceLock<RoutingKernel>,
}

/// The construction stream a seeded overlay replays, and the thread budget
/// its kernel compiles with.
#[derive(Debug, Clone, Copy)]
struct Stream {
    seed: u64,
    threads: usize,
}

impl<S: GeometryStrategy> GeometryOverlay<S> {
    /// Builds the overlay over the occupied identifiers of `population`,
    /// drawing any construction randomness from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnsupportedBits`] if the identifier space is
    /// unsupported (see [`crate::traits::MAX_OVERLAY_BITS`], the
    /// materialized ceiling; full populations beyond it can route through
    /// [`crate::ImplicitOverlay`] instead), or
    /// [`OverlayError::InvalidParameter`] if fewer than two identifiers are
    /// occupied.
    pub fn over<R: Rng + ?Sized>(
        population: Population,
        strategy: S,
        rng: &mut R,
    ) -> Result<Self, OverlayError> {
        validate_population(&population)?;
        let arena = build_arena(&population, &strategy, rng);
        Ok(GeometryOverlay {
            population: Arc::new(population),
            strategy,
            arena: OnceLock::from(arena),
            stream: None,
            kernel: OnceLock::new(),
        })
    }

    /// The overlay [`GeometryOverlay::over`] builds over the full `bits`-bit
    /// population from `ChaCha8Rng::seed_from_u64(stream_seed)`, with nothing
    /// built yet.
    ///
    /// Its [`Overlay::kernel`] compiles the plan from the replayed stream, in
    /// rank chunks on up to `threads` threads, and the plan's bytes do not
    /// depend on `threads` (closed-form geometries compile nothing). The
    /// arena is replayed on first read (see the [type docs](Self)), and
    /// [`Overlay::edge_count`] does not read it.
    ///
    /// # Errors
    ///
    /// As [`GeometryOverlay::over`], plus [`OverlayError::InvalidParameter`]
    /// when the strategy declares no fixed per-node stream stride
    /// ([`GeometryStrategy::implicit_stream_words`]) over the population.
    pub fn seeded(
        bits: u32,
        strategy: S,
        stream_seed: u64,
        threads: usize,
    ) -> Result<Self, OverlayError> {
        let population = Population::full(validate_bits(bits)?);
        validate_population(&population)?;
        if strategy.implicit_stream_words(&population).is_none() {
            return Err(OverlayError::InvalidParameter {
                message: format!(
                    "geometry `{}` declares no fixed per-node stream stride",
                    strategy.geometry_name()
                ),
            });
        }
        Ok(GeometryOverlay {
            population: Arc::new(population),
            strategy,
            arena: OnceLock::new(),
            stream: Some(Stream {
                seed: stream_seed,
                threads,
            }),
            kernel: OnceLock::new(),
        })
    }

    /// The geometry strategy driving this overlay.
    #[must_use]
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// The arena holding every routing table, replayed from the
    /// construction stream on first call for a seeded overlay.
    #[must_use]
    pub fn arena(&self) -> &RoutingArena {
        self.arena.get_or_init(|| {
            let stream = self.stream.expect("unseeded overlays store their arena");
            let mut rng = ChaCha8Rng::seed_from_u64(stream.seed);
            build_arena(&self.population, &self.strategy, &mut rng)
        })
    }
}

/// Builds every occupied node's table in rank order, drawing from `rng` —
/// the one construction loop behind [`GeometryOverlay::over`] and a seeded
/// overlay's replayed arena.
fn build_arena<S: GeometryStrategy, R: Rng + ?Sized>(
    population: &Population,
    strategy: &S,
    rng: &mut R,
) -> RoutingArena {
    let width = strategy.table_width(population);
    let mut arena = RoutingArena::with_capacity(width, population.node_count() as usize);
    let mut table = Vec::with_capacity(width);
    for node in population.iter_nodes() {
        table.clear();
        strategy.build_table(population, node, rng, &mut table);
        arena.push_table(&table);
    }
    arena
}

impl<S: GeometryStrategy> Overlay for GeometryOverlay<S> {
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
            Some(rank) => self.arena().neighbors(rank as usize),
            None => &[],
        }
    }

    fn next_hop(&self, current: NodeId, target: NodeId, alive: &FailureMask) -> Option<NodeId> {
        self.strategy
            .next_hop(self.neighbors(current), current, target, alive)
    }

    /// `node_count × table_width`: every table fills its row, so counting
    /// builds nothing.
    fn edge_count(&self) -> u64 {
        self.population.node_count() * self.strategy.table_width(&self.population) as u64
    }

    /// Compiled on first call: closed-form geometries compile no plan, a
    /// seeded overlay compiles its plan from the construction stream on its
    /// thread budget, and any other overlay lowers its arena.
    fn kernel(&self) -> Option<&RoutingKernel> {
        let rule = self.strategy.kernel_rule()?;
        Some(self.kernel.get_or_init(|| {
            let population = &self.population;
            match (self.strategy.row_form(population), self.stream) {
                (RowForm::ClosedForm, _) => RoutingKernel::closed_form(rule, population),
                (_, Some(Stream { seed, threads })) => {
                    RoutingKernel::compile_stream(rule, population, &self.strategy, seed, threads)
                }
                (_, None) => RoutingKernel::compile(rule, population, self.arena()),
            }
        }))
    }

    /// The arena and the plan, each counted only once it exists.
    fn resident_bytes(&self) -> usize {
        self.arena.get().map_or(0, RoutingArena::resident_bytes)
            + self.kernel.get().map_or(0, RoutingKernel::plan_bytes)
    }
}

/// An RNG for construction paths that must not consume randomness
/// (deterministic Chord fingers, the hypercube). Drawing from it panics, which
/// turns an accidental draw into a loud bug instead of a silent
/// reproducibility break.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoRandomness;

impl rand::RngCore for NoRandomness {
    fn next_u32(&mut self) -> u32 {
        panic!("deterministic overlay construction must not draw randomness");
    }

    fn next_u64(&mut self) -> u64 {
        panic!("deterministic overlay construction must not draw randomness");
    }

    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        panic!("deterministic overlay construction must not draw randomness");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_id::KeySpace;

    /// A minimal strategy: every node links to its clockwise successor.
    #[derive(Debug, Clone, Copy)]
    struct SuccessorStrategy;

    impl GeometryStrategy for SuccessorStrategy {
        fn geometry_name(&self) -> &'static str {
            "successor"
        }

        fn table_width(&self, _population: &Population) -> usize {
            1
        }

        fn build_table<R: Rng + ?Sized>(
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
            neighbors: &[NodeId],
            current: NodeId,
            _target: NodeId,
            alive: &FailureMask,
        ) -> Option<NodeId> {
            neighbors
                .iter()
                .copied()
                .find(|&n| n != current && alive.is_alive(n))
        }
    }

    fn space(bits: u32) -> KeySpace {
        KeySpace::new(bits).unwrap()
    }

    #[test]
    fn full_population_overlay_uses_the_arena() {
        let overlay = GeometryOverlay::over(
            Population::full(space(4)),
            SuccessorStrategy,
            &mut NoRandomness,
        )
        .unwrap();
        assert_eq!(overlay.node_count(), 16);
        assert_eq!(overlay.edge_count(), 16);
        assert_eq!(overlay.arena().entry_count(), 16);
        let s = overlay.key_space();
        assert_eq!(overlay.neighbors(s.wrap(3)), &[s.wrap(4)]);
        assert_eq!(overlay.neighbors(s.wrap(15)), &[s.wrap(0)]);
    }

    #[test]
    fn sparse_population_maps_ranks_and_returns_empty_for_unoccupied() {
        let s = space(6);
        let population = Population::sparse(s, [s.wrap(5), s.wrap(40), s.wrap(9)]).unwrap();
        let overlay =
            GeometryOverlay::over(population, SuccessorStrategy, &mut NoRandomness).unwrap();
        assert_eq!(overlay.node_count(), 3);
        assert_eq!(overlay.neighbors(s.wrap(5)), &[s.wrap(9)]);
        assert_eq!(overlay.neighbors(s.wrap(40)), &[s.wrap(5)]);
        assert_eq!(overlay.neighbors(s.wrap(7)), &[] as &[NodeId]);
    }

    /// Builds every node's static table over `population` and its live
    /// table at the all-alive mask, asserts that each is exactly
    /// `table_width` entries, and returns both, static first.
    fn both_tables<S: GeometryStrategy>(
        strategy: &S,
        population: &Population,
    ) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
        let name = strategy.geometry_name();
        let width = strategy.table_width(population);
        let alive = FailureMask::none_over(population);
        let mut rng = ChaCha8Rng::seed_from_u64(30);
        population
            .iter_nodes()
            .map(|node| {
                let (mut table, mut live) = (Vec::new(), Vec::new());
                strategy.build_table(population, node, &mut rng, &mut table);
                strategy.build_live_table(population, node, 7, &alive, &mut live);
                assert_eq!(table.len(), width, "{name} static table of {node:?}");
                assert_eq!(live.len(), width, "{name} live table of {node:?}");
                (table, live)
            })
            .collect()
    }

    #[test]
    fn every_table_is_exactly_table_width_entries() {
        use crate::chord::{ChordStrategy, ChordVariant};
        let s = space(10);
        let mut rng = ChaCha8Rng::seed_from_u64(30);
        let sparse = Population::sample_uniform(s, 300, &mut rng).unwrap();
        for population in [Population::full(s), sparse] {
            for variant in [ChordVariant::Deterministic, ChordVariant::Randomized] {
                both_tables(&ChordStrategy::new(variant), &population);
            }
            both_tables(&crate::kademlia::KademliaStrategy, &population);
            both_tables(&crate::plaxton::PlaxtonStrategy, &population);
            both_tables(&crate::symphony::SymphonyStrategy::new(2, 3), &population);
            // The hypercube draws nothing and reads liveness only: with every
            // node alive its live table is its static one.
            for (table, live) in both_tables(&crate::can::CanStrategy, &population) {
                assert_eq!(table, live);
            }
        }
    }

    #[test]
    fn resident_bytes_counts_the_compiled_plan_for_every_geometry() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let planned: [Box<dyn Overlay>; 4] = [
            Box::new(crate::ChordOverlay::build_randomized(10, &mut rng).unwrap()),
            Box::new(crate::KademliaOverlay::build(10, &mut rng).unwrap()),
            Box::new(crate::PlaxtonOverlay::build(10, &mut rng).unwrap()),
            Box::new(crate::SymphonyOverlay::build(10, 1, 2, &mut rng).unwrap()),
        ];
        for overlay in &planned {
            let before = overlay.resident_bytes();
            let plan = overlay.kernel().unwrap().plan_bytes();
            assert!(plan > 0);
            assert_eq!(
                overlay.resident_bytes(),
                before + plan,
                "{}",
                overlay.geometry_name()
            );
        }
        // Closed-form geometries route without a plan.
        let closed: [Box<dyn Overlay>; 2] = [
            Box::new(crate::CanOverlay::build(10).unwrap()),
            Box::new(crate::ChordOverlay::build(10, crate::ChordVariant::Deterministic).unwrap()),
        ];
        for overlay in &closed {
            let before = overlay.resident_bytes();
            let plan = overlay.kernel().unwrap().plan_bytes();
            assert_eq!(plan, 0);
            assert_eq!(
                overlay.resident_bytes(),
                before,
                "{}",
                overlay.geometry_name()
            );
        }
    }

    /// `strategy` over the full 2^11 population, built from a seeded RNG and
    /// from its seed on three threads.
    fn eager_and_seeded<S: GeometryStrategy + Clone>(
        strategy: S,
    ) -> (GeometryOverlay<S>, GeometryOverlay<S>) {
        let seed = 41;
        let full = Population::full(space(11));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let eager = GeometryOverlay::over(full, strategy.clone(), &mut rng).unwrap();
        (
            eager,
            GeometryOverlay::seeded(11, strategy, seed, 3).unwrap(),
        )
    }

    /// Asserts that `seeded` counts its edges without building its arena,
    /// then that the arena it replays equals `eager`'s row for row.
    fn assert_lazy_arena_matches<S: GeometryStrategy>(
        eager: &GeometryOverlay<S>,
        seeded: &GeometryOverlay<S>,
    ) {
        let name = seeded.geometry_name();
        assert_eq!(seeded.edge_count(), eager.edge_count(), "{name}");
        assert!(
            seeded.arena.get().is_none(),
            "{name}: edge_count built the arena"
        );
        assert_eq!(seeded.resident_bytes(), 0, "{name}: nothing is built yet");
        for (rank, node) in eager.population().iter_nodes().enumerate() {
            assert_eq!(
                seeded.neighbors(node),
                eager.arena().neighbors(rank),
                "{name}, rank {rank}"
            );
        }
        assert_eq!(seeded.arena(), eager.arena(), "{name}");
        assert_eq!(seeded.resident_bytes(), eager.arena().resident_bytes());
    }

    #[test]
    fn seeded_overlays_replay_the_eager_arena_on_first_read() {
        use crate::chord::{ChordStrategy, ChordVariant};
        for variant in [ChordVariant::Deterministic, ChordVariant::Randomized] {
            let (eager, seeded) = eager_and_seeded(ChordStrategy::new(variant));
            assert_lazy_arena_matches(&eager, &seeded);
        }
        let (eager, seeded) = eager_and_seeded(crate::kademlia::KademliaStrategy);
        assert_lazy_arena_matches(&eager, &seeded);
        let (eager, seeded) = eager_and_seeded(crate::plaxton::PlaxtonStrategy);
        assert_lazy_arena_matches(&eager, &seeded);
        let (eager, seeded) = eager_and_seeded(crate::can::CanStrategy);
        assert_lazy_arena_matches(&eager, &seeded);
        let (eager, seeded) = eager_and_seeded(crate::symphony::SymphonyStrategy::new(2, 3));
        assert_lazy_arena_matches(&eager, &seeded);
    }

    #[test]
    fn seeded_kernels_compile_without_the_arena() {
        let (eager, seeded) = eager_and_seeded(crate::kademlia::KademliaStrategy);
        let plan = seeded.kernel().unwrap();
        assert!(
            seeded.arena.get().is_none(),
            "the stream compile reads no arena"
        );
        assert_eq!(seeded.resident_bytes(), plan.plan_bytes());
        assert_eq!(plan.plan_digest(), eager.kernel().unwrap().plan_digest());
        // A scalar caller still gets its tables, and they are counted.
        let node = seeded.key_space().wrap(7);
        assert_eq!(seeded.neighbors(node), eager.neighbors(node));
        assert_eq!(
            seeded.resident_bytes(),
            plan.plan_bytes() + eager.arena().resident_bytes()
        );
    }

    #[test]
    fn seeded_overlays_validate_like_over() {
        assert_eq!(
            GeometryOverlay::seeded(25, crate::can::CanStrategy, 0, 1).unwrap_err(),
            OverlayError::UnsupportedBits {
                bits: 25,
                max_bits: crate::MAX_OVERLAY_BITS
            }
        );
        assert!(matches!(
            GeometryOverlay::seeded(0, crate::can::CanStrategy, 0, 1),
            Err(OverlayError::UnsupportedBits { bits: 0, .. })
        ));
        // Without a stream stride there is no stream to compile from.
        let err = GeometryOverlay::seeded(4, SuccessorStrategy, 0, 1).unwrap_err();
        assert!(err.to_string().contains("stream stride"), "{err}");
    }

    #[test]
    fn too_small_populations_are_rejected() {
        let s = space(6);
        let one = Population::sparse(s, [s.wrap(1)]).unwrap();
        assert!(matches!(
            GeometryOverlay::over(one, SuccessorStrategy, &mut NoRandomness),
            Err(OverlayError::InvalidParameter { .. })
        ));
    }
}
