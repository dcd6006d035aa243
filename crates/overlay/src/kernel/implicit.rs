//! The implicit (generative) routing backend: rank-space routing without
//! materialized tables.
//!
//! A materialized overlay pays memory proportional to its edge count — the
//! CSR [`RoutingArena`](crate::RoutingArena) plus the compiled
//! [`RoutingKernel`](super::RoutingKernel) plan — which is what caps it at
//! [`MAX_OVERLAY_BITS`](crate::traits::MAX_OVERLAY_BITS) bits. But over a
//! **full population** every routing table is a pure function of the node
//! identifier and the construction RNG: the deterministic geometries (Chord's
//! deterministic fingers, the hypercube) are closed-form in the id, and the
//! randomized ones (randomized Chord, Kademlia/Plaxton buckets, Symphony
//! shortcuts) draw a *fixed* number of RNG words per node from one shared
//! sequential stream ([`GeometryStrategy::implicit_stream_words`]). Because
//! the workspace's ChaCha generator is a counter-mode cipher, the draws of
//! rank `r` live at stream offset `r × words` and can be replayed in O(1)
//! with [`ChaCha8Rng::set_word_pos`] — no predecessor's table is ever
//! generated.
//!
//! [`ImplicitKernel`] exploits exactly that: it stores a constant-size
//! descriptor (seed, rule, stream stride, row form) and produces the entries
//! a hop probes on demand, from the source the strategy's
//! [`GeometryStrategy::row_form`] names:
//!
//! * **closed form** — deterministic Chord and the hypercube compute the
//!   fingers or links a hop can take from the rank (the kernel module's
//!   closed-form source, shared with the materialized backend);
//! * **positioned draws** — a Kademlia or Plaxton hop seeks the caller's
//!   stream replayer to word `r × words + 2b` of the bucket `b` it probes
//!   and draws that one contact, reading on only for the XOR fallback's
//!   lower buckets;
//! * **cached rows** — randomized Chord and Symphony regenerate the whole
//!   row and lower it into the caller's [`ImplicitRowCache`].
//!
//! Routing itself is the kernel module's one admission prelude, per-hop
//! step and lockstep pass, and every source yields exactly the entries of
//! the static row lowering [`RoutingKernel`](super::RoutingKernel)'s
//! compiler uses (with rank == value) that the hop reads. Outcomes —
//! [`RouteOutcome`] variants, hop counts, `stuck_at` identifiers, batch
//! orderings — are therefore **bit-identical** to the materialized kernel
//! built from the same seed, which the `implicit_equivalence` property suite
//! asserts across every geometry.
//!
//! The [`ImplicitRowCache`] is a direct-mapped cache of lowered rows, owned
//! by the *caller* (one per worker thread), so the kernel itself stays
//! shareable and its resident set stays constant; it also holds the seeking
//! RNG the positioned draws use, and only kernels that read whole rows get
//! its slots. At scale it rarely hits: lanes route independent uniform
//! pairs, so a hop finds its row cached with a probability near slots /
//! nodes (1024 / 2^26 ≈ 1.5·10⁻⁵; the end-to-end benchmark measured
//! ~2·10⁻⁵ at 2^26 and ~2·10⁻⁶ at 2^28), and nearly every hop through it
//! regenerates its row. Each cache is stamped with its
//! kernel's workspace-unique id, and every call that takes a cache checks
//! the stamp, whichever source routes, so a cache cannot silently serve
//! rows of another kernel.
//!
//! # Example
//!
//! ```rust
//! use dht_overlay::{ChordVariant, FailureMask, ImplicitOverlay, Overlay, RouteBatch};
//!
//! // A 2^26-node ring: far beyond the materialized ceiling, ~0 bytes of
//! // routing state.
//! let overlay = ImplicitOverlay::ring(26, ChordVariant::Deterministic, 7)?;
//! let kernel = overlay.implicit_kernel().expect("implicit backend");
//! let mut cache = kernel.row_cache();
//! let mask = FailureMask::none(overlay.key_space());
//! let lowered = kernel.compile_mask(&mask);
//! let mut outcomes = Vec::new();
//! kernel.route_batch(
//!     &mut RouteBatch::default(),
//!     &mut cache,
//!     lowered.words(),
//!     &[(3, 1 << 25)],
//!     64,
//!     &mut outcomes,
//! );
//! assert!(outcomes[0].is_delivered());
//! assert!(overlay.resident_bytes() < 1024);
//! # Ok::<(), dht_overlay::OverlayError>(())
//! ```

use super::batch::route_batch_rows;
use super::{
    check_mask, drawn_prefix_entry, leading_level, lower_static_row, row_entries, ClosedForm,
    KernelMask, KernelRule, PlanEntry, RouteBatch, RowForm, RowSource, INERT_ENTRY, NO_ENTRY,
};
use crate::failure::FailureMask;
use crate::generic::GeometryStrategy;
use crate::router::RouteOutcome;
use crate::traits::{validate_implicit_bits, Overlay, OverlayError};
use dht_id::{KeySpace, NodeId, Population};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default slot count of [`ImplicitKernel::row_cache`]: at 8 bytes per entry
/// and `d ≤ 30` entries per row the cache tops out around 250 KiB — resident
/// in L2, negligible against the failure mask.
pub const DEFAULT_ROW_CACHE_SLOTS: usize = 1024;

/// Draws a workspace-unique kernel id, the stamp every row cache carries.
fn next_kernel_id() -> u64 {
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Regenerates one node's raw routing table into the scratch vector, drawing
/// from the stream-positioned RNG.
type RowFn = dyn Fn(NodeId, &mut ChaCha8Rng, &mut Vec<NodeId>) + Send + Sync;

/// A routing kernel that computes plan rows on the fly instead of storing
/// them.
///
/// Constant-size by design: the only state is the construction descriptor
/// (key space, rule, stream seed and stride, and the boxed row generator).
/// All mutable scratch — the RNG being seeked, the regenerated row, the
/// lowered entries — lives in a caller-owned [`ImplicitRowCache`], so one
/// kernel serves any number of threads, each with its own cache.
///
/// Obtain one through [`ImplicitOverlay`] (or [`ImplicitKernel::from_strategy`]
/// directly) and drive it exactly like a [`RoutingKernel`](super::RoutingKernel): lower the failure
/// mask once with [`ImplicitKernel::compile_mask`], then route with
/// [`ImplicitKernel::route_batch`].
pub struct ImplicitKernel {
    rule: KernelRule,
    /// Which source hands a hop its entries: cached rows, the closed form or
    /// positioned prefix draws.
    form: RowForm,
    space: KeySpace,
    population: Arc<Population>,
    /// Workspace-unique stamp, copied into every cache this kernel creates.
    id: u64,
    stream_seed: u64,
    /// 32-bit words of the shared construction stream each node consumes —
    /// rank `r`'s draws start at word `r × words_per_node`.
    words_per_node: u64,
    /// Entries per regenerated table row (fixed over a full population).
    row_width: usize,
    row_fn: Box<RowFn>,
}

impl fmt::Debug for ImplicitKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImplicitKernel")
            .field("rule", &self.rule)
            .field("form", &self.form)
            .field("space", &self.space)
            .field("stream_seed", &self.stream_seed)
            .field("words_per_node", &self.words_per_node)
            .field("row_width", &self.row_width)
            .finish_non_exhaustive()
    }
}

impl ImplicitKernel {
    /// Builds an implicit kernel for `strategy` over a full population,
    /// replaying the shared construction stream seeded by `stream_seed`.
    ///
    /// `stream_seed` must be the `seed_from_u64` seed a materialized build
    /// would hand its construction RNG; the kernel's rows are then
    /// bit-identical to that build's.
    ///
    /// # Errors
    ///
    /// * [`OverlayError::UnsupportedBits`] if the space exceeds
    ///   [`MAX_IMPLICIT_OVERLAY_BITS`](crate::traits::MAX_IMPLICIT_OVERLAY_BITS)
    ///   bits (or is zero bits).
    /// * [`OverlayError::InvalidParameter`] if the population is sparse, the
    ///   strategy exports no [`KernelRule`], or it declares no fixed
    ///   per-node stream stride
    ///   ([`GeometryStrategy::implicit_stream_words`]).
    pub fn from_strategy<S: GeometryStrategy + Clone + 'static>(
        population: &Arc<Population>,
        strategy: &S,
        stream_seed: u64,
    ) -> Result<Self, OverlayError> {
        validate_implicit_bits(population.space().bits())?;
        if !population.is_full() {
            return Err(OverlayError::InvalidParameter {
                message: format!(
                    "the implicit backend requires a full population; geometry `{}` was given \
                     {} of {} identifiers",
                    strategy.geometry_name(),
                    population.node_count(),
                    population.space().population(),
                ),
            });
        }
        let Some(rule) = strategy.kernel_rule() else {
            return Err(OverlayError::InvalidParameter {
                message: format!(
                    "geometry `{}` exports no kernel rule and cannot be routed implicitly",
                    strategy.geometry_name()
                ),
            });
        };
        let Some(words_per_node) = strategy.implicit_stream_words(population) else {
            return Err(OverlayError::InvalidParameter {
                message: format!(
                    "geometry `{}` declares no fixed per-node stream stride",
                    strategy.geometry_name()
                ),
            });
        };
        let row_width = strategy.table_len_hint(population);
        let generator = strategy.clone();
        let generator_population = Arc::clone(population);
        Ok(ImplicitKernel {
            rule,
            form: strategy.row_form(population),
            space: population.space(),
            population: Arc::clone(population),
            id: next_kernel_id(),
            stream_seed,
            words_per_node,
            row_width,
            row_fn: Box::new(move |node, rng, table| {
                generator.build_table(&generator_population, node, rng, table);
            }),
        })
    }

    /// The dispatch rule the kernel routes with.
    #[must_use]
    pub fn rule(&self) -> KernelRule {
        self.rule
    }

    /// The identifier space the kernel routes in.
    #[must_use]
    pub fn key_space(&self) -> KeySpace {
        self.space
    }

    /// The (full) population the kernel routes over.
    #[must_use]
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The `seed_from_u64` seed of the replayed construction stream.
    #[must_use]
    pub fn stream_seed(&self) -> u64 {
        self.stream_seed
    }

    /// 32-bit stream words consumed per node (the seek stride).
    #[must_use]
    pub fn words_per_node(&self) -> u64 {
        self.words_per_node
    }

    /// Entries per regenerated table row.
    #[must_use]
    pub fn row_width(&self) -> usize {
        self.row_width
    }

    /// Bytes the kernel keeps resident: its own constant-size descriptor.
    ///
    /// The counterpart of [`RoutingKernel::plan_bytes`](super::RoutingKernel::plan_bytes)
    /// — except there is no plan. Row caches are caller-owned scratch and
    /// accounted by [`ImplicitRowCache::resident_bytes`]; the failure mask is
    /// the caller's as on every backend.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    /// A fresh row cache sized at [`DEFAULT_ROW_CACHE_SLOTS`].
    #[must_use]
    pub fn row_cache(&self) -> ImplicitRowCache {
        self.row_cache_with_slots(DEFAULT_ROW_CACHE_SLOTS)
    }

    /// A fresh row cache with `slots` direct-mapped slots (rounded up to a
    /// power of two, at least 1), stamped as this kernel's.
    ///
    /// Only a kernel that reads whole rows ([`RowForm::Rows`]: randomized
    /// Chord, Symphony) gets the slots and row scratch. For the closed form
    /// and the positioned draws the cache is just the stamp and the seeking
    /// RNG: it holds no slot and [`ImplicitRowCache::resident_bytes`] reads 0.
    #[must_use]
    pub fn row_cache_with_slots(&self, slots: usize) -> ImplicitRowCache {
        let (slots, row_width) = match self.form {
            RowForm::Rows => (slots.max(1).next_power_of_two(), self.row_width),
            RowForm::ClosedForm | RowForm::PositionedPrefix => (0, 0),
        };
        ImplicitRowCache {
            kernel_id: self.id,
            row_width,
            slot_mask: slots.saturating_sub(1) as u32,
            ranks: vec![NO_ENTRY; slots],
            lens: vec![0; slots],
            entries: vec![INERT_ENTRY; slots * row_width],
            rng: ChaCha8Rng::seed_from_u64(self.stream_seed),
            ids: Vec::with_capacity(row_width),
            ring_scratch: Vec::with_capacity(row_width),
            hits: 0,
            misses: 0,
        }
    }

    /// Regenerates the raw routing table of `node` (exactly what the
    /// materialized build stores for it), replacing `table`'s contents.
    pub fn table_of(&self, node: NodeId, table: &mut Vec<NodeId>) {
        table.clear();
        let mut rng = ChaCha8Rng::seed_from_u64(self.stream_seed);
        rng.set_word_pos(node.value() * self.words_per_node);
        (self.row_fn)(node, &mut rng, table);
    }

    /// Lowers `mask` into the kernel's rank space — over the full population
    /// ranks coincide with values, so the mask's bitset is borrowed as-is.
    ///
    /// Same contract (and panics) as [`RoutingKernel::compile_mask`](super::RoutingKernel::compile_mask).
    ///
    /// # Panics
    ///
    /// Panics if `mask` covers a different key space or population size than
    /// the kernel.
    #[must_use]
    pub fn compile_mask<'mask>(&self, mask: &'mask FailureMask) -> KernelMask<'mask> {
        check_mask(mask, self.space.bits(), &self.population);
        KernelMask::Full(mask)
    }

    /// Routes every `(source, target)` pair through the lockstep
    /// [`RouteBatch`] frontier — the [`RoutingKernel::route_batch`](super::RoutingKernel::route_batch)
    /// counterpart, running the same driver and pass over this kernel's rows
    /// and therefore filling identical `outcomes`.
    ///
    /// `alive_words` follows the [`RoutingKernel::route_batch`](super::RoutingKernel::route_batch)
    /// contract. The strategy's row form picks the source: deterministic
    /// Chord and the hypercube compute their entries in closed form,
    /// Kademlia and Plaxton draw only the buckets a hop probes from the
    /// cache's seeking RNG, and every other geometry regenerates whole rows
    /// into `cache`. No implicit source performs a software prefetch: its
    /// work is compute-bound, not latency-bound. Nor does the frontier make
    /// the row cache pay at scale: lanes route independent pairs.
    ///
    /// # Panics
    ///
    /// Panics if `cache` was created by another kernel, whichever source
    /// routes.
    pub fn route_batch(
        &self,
        batch: &mut RouteBatch,
        cache: &mut ImplicitRowCache,
        alive_words: &[u64],
        pairs: &[(u64, u64)],
        hop_limit: u32,
        outcomes: &mut Vec<RouteOutcome>,
    ) {
        assert_eq!(
            cache.kernel_id, self.id,
            "row cache belongs to a different implicit kernel"
        );
        match self.form {
            RowForm::Rows => {
                let mut rows = CachedRows {
                    kernel: self,
                    cache,
                };
                route_batch_rows(&mut rows, batch, alive_words, pairs, hop_limit, outcomes);
            }
            RowForm::ClosedForm => {
                let mut rows = ClosedForm {
                    rule: self.rule,
                    space: self.space,
                };
                route_batch_rows(&mut rows, batch, alive_words, pairs, hop_limit, outcomes);
            }
            RowForm::PositionedPrefix => {
                let mut rows = PositionedPrefix {
                    kernel: self,
                    rng: &mut cache.rng,
                };
                route_batch_rows(&mut rows, batch, alive_words, pairs, hop_limit, outcomes);
            }
        }
    }
}

/// The implicit row source: an [`ImplicitKernel`] reading rows through the
/// caller's [`ImplicitRowCache`], regenerating them on a miss. Full
/// populations only, so rank == value.
struct CachedRows<'a> {
    kernel: &'a ImplicitKernel,
    cache: &'a mut ImplicitRowCache,
}

impl CachedRows<'_> {
    /// The lowered plan row of `rank`, regenerated and lowered into its
    /// direct-mapped slot on a miss.
    #[inline]
    fn row(&mut self, rank: u32) -> &[PlanEntry] {
        let kernel = self.kernel;
        let cache = &mut *self.cache;
        let slot = (rank & cache.slot_mask) as usize;
        let start = slot * cache.row_width;
        if cache.ranks[slot] == rank {
            cache.hits += 1;
        } else {
            cache.misses += 1;
            let node = kernel.space.wrap(u64::from(rank));
            cache
                .rng
                .set_word_pos(u64::from(rank) * kernel.words_per_node);
            cache.ids.clear();
            (kernel.row_fn)(node, &mut cache.rng, &mut cache.ids);
            let mut fill = SlotFill {
                slot: &mut cache.entries[start..start + cache.row_width],
                len: 0,
            };
            lower_static_row(
                kernel.rule,
                &kernel.population,
                node,
                &cache.ids,
                &mut cache.ring_scratch,
                &mut fill,
            );
            cache.lens[slot] = fill.len as u32;
            cache.ranks[slot] = rank;
        }
        &cache.entries[start..start + cache.lens[slot] as usize]
    }
}

impl RowSource for CachedRows<'_> {
    #[inline]
    fn rule(&self) -> KernelRule {
        self.kernel.rule
    }

    #[inline]
    fn space(&self) -> KeySpace {
        self.kernel.space
    }

    #[inline(always)]
    fn entries(
        &mut self,
        rule: KernelRule,
        rank: u32,
        cursor: u64,
    ) -> impl Iterator<Item = PlanEntry> {
        let bits = self.kernel.space.bits();
        row_entries(self.row(rank), rule, bits, cursor)
    }
}

/// The positioned-draw source of a full-population prefix geometry
/// (Kademlia, Plaxton): the contact of bucket `b` of rank `r` is one
/// `next_u64` at stream word `r × words_per_node + 2b`, so a hop seeks once
/// to the bucket it probes and reads on, sequentially, only while the XOR
/// fallback scans the lower buckets. It borrows the caller's row-cache RNG
/// and never touches the cache slots.
struct PositionedPrefix<'a> {
    kernel: &'a ImplicitKernel,
    rng: &'a mut ChaCha8Rng,
}

impl RowSource for PositionedPrefix<'_> {
    #[inline]
    fn rule(&self) -> KernelRule {
        self.kernel.rule
    }

    #[inline]
    fn space(&self) -> KeySpace {
        self.kernel.space
    }

    /// The static row's entries from the bucket of the cursor's leading bit
    /// on, drawn as the iterator is advanced. Over a full population no
    /// contact is the owner, so no entry is inert.
    #[inline(always)]
    fn entries(
        &mut self,
        rule: KernelRule,
        rank: u32,
        cursor: u64,
    ) -> impl Iterator<Item = PlanEntry> {
        assert!(
            matches!(rule, KernelRule::PrefixXor | KernelRule::PrefixTree),
            "only prefix rows are drawn per bucket"
        );
        let bits = self.kernel.space.bits();
        let level = leading_level(bits, cursor) as u32;
        let node = u64::from(rank);
        self.rng
            .set_word_pos(node * self.kernel.words_per_node + 2 * u64::from(level));
        let rng = &mut *self.rng;
        (level..bits).map(move |bucket| drawn_prefix_entry(bits, node, bucket, rng.next_u64()))
    }
}

/// Collects a lowered row straight into its cache slot.
struct SlotFill<'s> {
    slot: &'s mut [PlanEntry],
    len: usize,
}

impl Extend<PlanEntry> for SlotFill<'_> {
    fn extend<I: IntoIterator<Item = PlanEntry>>(&mut self, entries: I) {
        for entry in entries {
            self.slot[self.len] = entry;
            self.len += 1;
        }
    }
}

/// A direct-mapped cache of lowered plan rows for one [`ImplicitKernel`].
///
/// Caller-owned scratch (the trial engine keeps one per worker thread): the
/// kernel stays immutable and shareable while the cache holds the seeking
/// RNG, the regenerated identifier row, and `slots × row_width` lowered
/// entries. Collisions simply overwrite — routing correctness never depends
/// on a hit, only regeneration cost does.
#[derive(Debug, Clone)]
pub struct ImplicitRowCache {
    /// Stamp of the owning kernel, checked on every call that takes the
    /// cache.
    kernel_id: u64,
    row_width: usize,
    /// `slots - 1` for the power-of-two slot count.
    slot_mask: u32,
    /// Slot → cached rank, [`NO_ENTRY`] when empty (ranks stay below 2^30).
    ranks: Vec<u32>,
    /// Slot → lowered row length (ring rows dedup below `row_width`).
    lens: Vec<u32>,
    /// Slot-major lowered entries, `row_width` per slot.
    entries: Vec<PlanEntry>,
    /// The seeking stream replayer, seeded once from the kernel's seed.
    rng: ChaCha8Rng,
    /// Scratch for the regenerated identifier table.
    ids: Vec<NodeId>,
    /// Scratch for the ring lowering's advance sort.
    ring_scratch: Vec<(u32, u32)>,
    hits: u64,
    misses: u64,
}

impl ImplicitRowCache {
    /// Number of direct-mapped slots (0 for a kernel that reads no rows).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.ranks.len()
    }

    /// Row lookups served without regeneration since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Row lookups that regenerated (and lowered) their row.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Bytes of heap the cache keeps resident (entry slab, tag arrays and
    /// scratch, counted at capacity).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<PlanEntry>()
            + self.ranks.capacity() * std::mem::size_of::<u32>()
            + self.lens.capacity() * std::mem::size_of::<u32>()
            + self.ids.capacity() * std::mem::size_of::<NodeId>()
            + self.ring_scratch.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

/// A full-population overlay served entirely by an [`ImplicitKernel`]: no
/// table is ever materialized, so the identifier-space ceiling rises from
/// [`MAX_OVERLAY_BITS`](crate::traits::MAX_OVERLAY_BITS) to
/// [`MAX_IMPLICIT_OVERLAY_BITS`](crate::traits::MAX_IMPLICIT_OVERLAY_BITS)
/// bits while [`Overlay::resident_bytes`] stays constant.
///
/// Construct through the typed per-geometry constructors
/// ([`ImplicitOverlay::ring`], [`ImplicitOverlay::xor`],
/// [`ImplicitOverlay::tree`], [`ImplicitOverlay::hypercube`],
/// [`ImplicitOverlay::symphony`]) or [`ImplicitOverlay::over`] for a custom
/// strategy. The `stream_seed` is the `seed_from_u64` seed the equivalent
/// materialized build would hand its construction RNG — same seed, same
/// overlay, bit for bit.
///
/// As an [`Overlay`], [`Overlay::next_hop`] regenerates the current node's
/// table per call (the scalar reference path); batch drivers pick up
/// [`Overlay::implicit_kernel`] instead. [`Overlay::neighbors`] cannot return
/// a borrowed slice from a table that does not exist and **panics** — use
/// [`ImplicitOverlay::table_of`].
#[derive(Debug)]
pub struct ImplicitOverlay<S: GeometryStrategy> {
    population: Arc<Population>,
    strategy: S,
    kernel: ImplicitKernel,
}

impl<S: GeometryStrategy + Clone + 'static> ImplicitOverlay<S> {
    /// Builds the implicit overlay over the full `bits`-bit population.
    ///
    /// # Errors
    ///
    /// As [`ImplicitKernel::from_strategy`].
    pub fn over(bits: u32, strategy: S, stream_seed: u64) -> Result<Self, OverlayError> {
        let space = validate_implicit_bits(bits)?;
        let population = Arc::new(Population::full(space));
        let kernel = ImplicitKernel::from_strategy(&population, &strategy, stream_seed)?;
        Ok(ImplicitOverlay {
            population,
            strategy,
            kernel,
        })
    }
}

impl<S: GeometryStrategy> ImplicitOverlay<S> {
    /// The geometry strategy driving this overlay.
    #[must_use]
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// The implicit kernel (also reachable through
    /// [`Overlay::implicit_kernel`]).
    #[must_use]
    pub fn routing_kernel(&self) -> &ImplicitKernel {
        &self.kernel
    }

    /// The `seed_from_u64` seed of the replayed construction stream.
    #[must_use]
    pub fn stream_seed(&self) -> u64 {
        self.kernel.stream_seed()
    }

    /// The routing table of `node`, regenerated on the spot — the owning
    /// counterpart of [`Overlay::neighbors`], bit-identical to the
    /// materialized build's stored row.
    #[must_use]
    pub fn table_of(&self, node: NodeId) -> Vec<NodeId> {
        let mut table = Vec::with_capacity(self.kernel.row_width());
        self.kernel.table_of(node, &mut table);
        table
    }
}

impl ImplicitOverlay<crate::chord::ChordStrategy> {
    /// An implicit ring overlay — [`crate::ChordOverlay`] beyond the
    /// materialized ceiling.
    ///
    /// # Errors
    ///
    /// As [`ImplicitOverlay::over`].
    pub fn ring(
        bits: u32,
        variant: crate::chord::ChordVariant,
        stream_seed: u64,
    ) -> Result<Self, OverlayError> {
        Self::over(bits, crate::chord::ChordStrategy::new(variant), stream_seed)
    }
}

impl ImplicitOverlay<crate::kademlia::KademliaStrategy> {
    /// An implicit XOR overlay — [`crate::KademliaOverlay`] beyond the
    /// materialized ceiling.
    ///
    /// # Errors
    ///
    /// As [`ImplicitOverlay::over`].
    pub fn xor(bits: u32, stream_seed: u64) -> Result<Self, OverlayError> {
        Self::over(bits, crate::kademlia::KademliaStrategy, stream_seed)
    }
}

impl ImplicitOverlay<crate::plaxton::PlaxtonStrategy> {
    /// An implicit tree overlay — [`crate::PlaxtonOverlay`] beyond the
    /// materialized ceiling.
    ///
    /// # Errors
    ///
    /// As [`ImplicitOverlay::over`].
    pub fn tree(bits: u32, stream_seed: u64) -> Result<Self, OverlayError> {
        Self::over(bits, crate::plaxton::PlaxtonStrategy, stream_seed)
    }
}

impl ImplicitOverlay<crate::can::CanStrategy> {
    /// An implicit hypercube overlay — [`crate::CanOverlay`] beyond the
    /// materialized ceiling (link structure is closed-form; no stream).
    ///
    /// # Errors
    ///
    /// As [`ImplicitOverlay::over`].
    pub fn hypercube(bits: u32) -> Result<Self, OverlayError> {
        Self::over(bits, crate::can::CanStrategy, 0)
    }
}

impl ImplicitOverlay<crate::symphony::SymphonyStrategy> {
    /// An implicit small-world overlay — [`crate::SymphonyOverlay`] beyond
    /// the materialized ceiling.
    ///
    /// # Errors
    ///
    /// As [`ImplicitOverlay::over`], plus
    /// [`OverlayError::InvalidParameter`] for zero connection counts or
    /// `near_neighbors >= 2^bits` (mirroring
    /// [`crate::SymphonyOverlay::build`]).
    pub fn symphony(
        bits: u32,
        near_neighbors: u32,
        shortcuts: u32,
        stream_seed: u64,
    ) -> Result<Self, OverlayError> {
        if near_neighbors == 0 || shortcuts == 0 {
            return Err(OverlayError::InvalidParameter {
                message: format!(
                    "Symphony needs at least one near neighbour and one shortcut, got \
                     k_n={near_neighbors}, k_s={shortcuts}"
                ),
            });
        }
        let space = validate_implicit_bits(bits)?;
        if u64::from(near_neighbors) >= space.population() {
            return Err(OverlayError::InvalidParameter {
                message: format!(
                    "{near_neighbors} near neighbours do not fit a population of {}",
                    space.population()
                ),
            });
        }
        Self::over(
            bits,
            crate::symphony::SymphonyStrategy::new(near_neighbors, shortcuts),
            stream_seed,
        )
    }
}

impl<S: GeometryStrategy> Overlay for ImplicitOverlay<S> {
    fn geometry_name(&self) -> &'static str {
        self.strategy.geometry_name()
    }

    fn population(&self) -> &Population {
        &self.population
    }

    /// # Panics
    ///
    /// Always: implicit overlays do not materialise neighbour tables (there
    /// is no stored row to borrow). Use [`ImplicitOverlay::table_of`].
    fn neighbors(&self, _node: NodeId) -> &[NodeId] {
        panic!("implicit overlays do not materialise neighbour tables; use table_of");
    }

    fn next_hop(&self, current: NodeId, target: NodeId, alive: &FailureMask) -> Option<NodeId> {
        let table = self.table_of(current);
        self.strategy.next_hop(&table, current, target, alive)
    }

    fn edge_count(&self) -> u64 {
        // Full-population rows are fixed-width, so the conceptual edge count
        // matches the materialized arena's entry count.
        self.population.node_count() * self.kernel.row_width() as u64
    }

    fn implicit_kernel(&self) -> Option<&ImplicitKernel> {
        Some(&self.kernel)
    }

    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chord::{ChordStrategy, ChordVariant};
    use crate::router::{default_route_hop_limit, route_with_limit};
    use crate::{ChordOverlay, KademliaOverlay, SymphonyOverlay};

    /// The materialized twin of an implicit overlay: same geometry, same
    /// stream seed, built the way the experiment layer builds it (one fresh
    /// shared RNG, word 0).
    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Routes `pairs` through one default-width [`ImplicitKernel::route_batch`].
    fn route_all(
        kernel: &ImplicitKernel,
        cache: &mut ImplicitRowCache,
        words: &[u64],
        pairs: &[(u64, u64)],
        hop_limit: u32,
    ) -> Vec<RouteOutcome> {
        let mut outcomes = Vec::new();
        kernel.route_batch(
            &mut RouteBatch::default(),
            cache,
            words,
            pairs,
            hop_limit,
            &mut outcomes,
        );
        outcomes
    }

    #[test]
    fn regenerated_tables_match_the_materialized_build() {
        let bits = 8;
        let seed = 42;
        let implicit = ImplicitOverlay::ring(bits, ChordVariant::Randomized, seed).unwrap();
        let materialized = ChordOverlay::build_randomized(bits, &mut rng(seed)).unwrap();
        let space = implicit.key_space();
        for node in space.iter_ids() {
            assert_eq!(
                implicit.table_of(node),
                materialized.neighbors(node),
                "row of {node} must replay the shared stream"
            );
        }
    }

    #[test]
    fn symphony_rows_replay_the_harmonic_draws() {
        let bits = 7;
        let seed = 9;
        let implicit = ImplicitOverlay::symphony(bits, 2, 3, seed).unwrap();
        let materialized = SymphonyOverlay::build(bits, 2, 3, &mut rng(seed)).unwrap();
        let space = implicit.key_space();
        for node in space.iter_ids() {
            assert_eq!(implicit.table_of(node), materialized.neighbors(node));
        }
    }

    /// Routes 500 arbitrary pairs through `kernel` under a `q = 0.3` mask
    /// and asserts each outcome against the scalar oracle on
    /// `materialized`, its twin; returns the row cache it routed with.
    fn assert_routes_match_the_oracle(
        kernel: &ImplicitKernel,
        materialized: &dyn Overlay,
    ) -> ImplicitRowCache {
        let mut cache = kernel.row_cache_with_slots(64);
        let space = kernel.key_space();
        let mut sampler = rng(77);
        let mask = FailureMask::sample(space, 0.3, &mut sampler);
        let lowered = kernel.compile_mask(&mask);
        let limit = default_route_hop_limit(materialized);
        let pairs: Vec<(u64, u64)> = (0..500)
            .map(|_| {
                (
                    space.random_id(&mut sampler).value(),
                    space.random_id(&mut sampler).value(),
                )
            })
            .collect();
        let outcomes = route_all(kernel, &mut cache, lowered.words(), &pairs, limit);
        for (&(source, target), outcome) in pairs.iter().zip(&outcomes) {
            assert_eq!(
                *outcome,
                route_with_limit(
                    materialized,
                    space.wrap(source),
                    space.wrap(target),
                    &mask,
                    limit
                ),
            );
        }
        cache
    }

    #[test]
    fn routes_match_the_materialized_kernel_under_failures() {
        let bits = 10;
        let seed = 5;
        // XOR draws only the buckets a hop probes and leaves the cache
        // slots alone.
        let xor = ImplicitOverlay::xor(bits, seed).unwrap();
        let cache = assert_routes_match_the_oracle(
            xor.routing_kernel(),
            &KademliaOverlay::build(bits, &mut rng(seed)).unwrap(),
        );
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // Symphony reads whole rows through the cache.
        let symphony = ImplicitOverlay::symphony(bits, 1, 2, seed).unwrap();
        let cache = assert_routes_match_the_oracle(
            symphony.routing_kernel(),
            &SymphonyOverlay::build(bits, 1, 2, &mut rng(seed)).unwrap(),
        );
        assert!(cache.hits() > 0, "repeated rows must hit the cache");
    }

    /// Asserts, for 64 random ranks of `overlay`, that the positioned
    /// source's entries from every bucket on equal the static lowering of
    /// the regenerated table from that bucket on.
    fn assert_draws_match_the_lowered_rows<S: GeometryStrategy + Clone + 'static>(
        overlay: &ImplicitOverlay<S>,
        ranks: &mut ChaCha8Rng,
    ) {
        let kernel = overlay.routing_kernel();
        assert_eq!(kernel.form, RowForm::PositionedPrefix);
        let bits = kernel.space.bits();
        let mut cache = kernel.row_cache();
        let mut table = Vec::new();
        let mut lowered = Vec::new();
        for _ in 0..64 {
            let node = kernel.space.random_id(ranks);
            kernel.table_of(node, &mut table);
            lowered.clear();
            lower_static_row(
                kernel.rule,
                &kernel.population,
                node,
                &table,
                &mut Vec::new(),
                &mut lowered,
            );
            let mut source = PositionedPrefix {
                kernel,
                rng: &mut cache.rng,
            };
            for bucket in 0..bits {
                // Any cursor whose leading bit sits at `bucket`.
                let cursor = 1u64 << (bits - 1 - bucket);
                let drawn: Vec<PlanEntry> = source
                    .entries(kernel.rule, node.value() as u32, cursor)
                    .collect();
                assert_eq!(
                    drawn,
                    lowered[bucket as usize..],
                    "{} at {bits} bits: bucket {bucket} of {node}",
                    overlay.geometry_name()
                );
            }
        }
    }

    #[test]
    fn positioned_draws_equal_the_lowered_prefix_rows() {
        let mut ranks = rng(31);
        for bits in 2..=16 {
            let seed = u64::from(bits) * 7;
            assert_draws_match_the_lowered_rows(
                &ImplicitOverlay::xor(bits, seed).unwrap(),
                &mut ranks,
            );
            assert_draws_match_the_lowered_rows(
                &ImplicitOverlay::tree(bits, seed).unwrap(),
                &mut ranks,
            );
        }
    }

    #[test]
    fn implicit_overlays_keep_their_resident_bytes() {
        // Every `implicit_scale` report records these as its
        // `overlay_resident_bytes`.
        for bits in [4, 20, 30] {
            let ring = ImplicitOverlay::ring(bits, ChordVariant::Deterministic, 0).unwrap();
            assert_eq!(ring.resident_bytes(), 80);
            assert_eq!(ImplicitOverlay::xor(bits, 0).unwrap().resident_bytes(), 72);
            assert_eq!(ImplicitOverlay::tree(bits, 0).unwrap().resident_bytes(), 72);
            assert_eq!(
                ImplicitOverlay::hypercube(bits).unwrap().resident_bytes(),
                72
            );
            let symphony = ImplicitOverlay::symphony(bits, 1, 1, 0).unwrap();
            assert_eq!(symphony.resident_bytes(), 80);
        }
    }

    #[test]
    fn only_row_reading_kernels_get_cache_slots() {
        // The closed form reads nothing of the cache and the positioned
        // draws only its RNG.
        let slotless: [Box<dyn Overlay>; 4] = [
            Box::new(ImplicitOverlay::ring(12, ChordVariant::Deterministic, 3).unwrap()),
            Box::new(ImplicitOverlay::hypercube(12).unwrap()),
            Box::new(ImplicitOverlay::xor(12, 3).unwrap()),
            Box::new(ImplicitOverlay::tree(12, 3).unwrap()),
        ];
        for overlay in &slotless {
            let cache = overlay.implicit_kernel().unwrap().row_cache();
            let name = overlay.geometry_name();
            assert_eq!((cache.slots(), cache.resident_bytes()), (0, 0), "{name}");
        }
        let cached: [Box<dyn Overlay>; 2] = [
            Box::new(ImplicitOverlay::symphony(12, 1, 1, 3).unwrap()),
            Box::new(ImplicitOverlay::ring(12, ChordVariant::Randomized, 3).unwrap()),
        ];
        for overlay in &cached {
            let cache = overlay.implicit_kernel().unwrap().row_cache();
            assert_eq!(cache.slots(), DEFAULT_ROW_CACHE_SLOTS);
            assert!(cache.resident_bytes() > 0, "{}", overlay.geometry_name());
        }
    }

    #[test]
    fn resident_bytes_stay_constant_in_the_space_size() {
        let small = ImplicitOverlay::ring(10, ChordVariant::Deterministic, 0).unwrap();
        let large = ImplicitOverlay::ring(26, ChordVariant::Deterministic, 0).unwrap();
        assert_eq!(small.resident_bytes(), large.resident_bytes());
        assert!(large.resident_bytes() < 1024);
        assert_eq!(
            large.edge_count(),
            (1u64 << 26) * 26,
            "conceptual edges still scale"
        );
    }

    #[test]
    fn ceiling_is_raised_to_thirty_bits() {
        assert!(ImplicitOverlay::hypercube(30).is_ok());
        assert!(matches!(
            ImplicitOverlay::hypercube(31),
            Err(OverlayError::UnsupportedBits {
                bits: 31,
                max_bits: 30
            })
        ));
    }

    #[test]
    fn sparse_populations_are_rejected() {
        let space = KeySpace::new(8).unwrap();
        let population =
            Arc::new(Population::sparse(space, [space.wrap(1), space.wrap(2)]).unwrap());
        let err = ImplicitKernel::from_strategy(
            &population,
            &ChordStrategy::new(ChordVariant::Deterministic),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, OverlayError::InvalidParameter { .. }));
        assert!(err.to_string().contains("full population"));
    }

    #[test]
    fn symphony_parameters_are_validated() {
        assert!(ImplicitOverlay::symphony(8, 0, 1, 0).is_err());
        assert!(ImplicitOverlay::symphony(8, 1, 0, 0).is_err());
        assert!(ImplicitOverlay::symphony(2, 4, 1, 0).is_err());
        assert!(ImplicitOverlay::symphony(8, 1, 1, 0).is_ok());
    }

    #[test]
    #[should_panic(expected = "do not materialise")]
    fn neighbors_panics_with_guidance() {
        let overlay = ImplicitOverlay::hypercube(6).unwrap();
        let space = overlay.key_space();
        let _ = overlay.neighbors(space.wrap(0));
    }

    #[test]
    #[should_panic(expected = "different implicit kernel")]
    fn a_row_cache_is_bound_to_its_kernel() {
        // Same stream seed and row width: only the kernel stamp tells the
        // two kernels' caches apart.
        let ring = ImplicitOverlay::ring(10, ChordVariant::Deterministic, 0).unwrap();
        let cube = ImplicitOverlay::hypercube(10).unwrap();
        let ring_kernel = ring.implicit_kernel().unwrap();
        let cube_kernel = cube.implicit_kernel().unwrap();
        assert_eq!(ring_kernel.stream_seed(), cube_kernel.stream_seed());
        assert_eq!(ring_kernel.row_width(), cube_kernel.row_width());
        let mut cache = ring_kernel.row_cache();
        let mask = FailureMask::none(ring.key_space());
        let words = mask.words();
        let _ = route_all(ring_kernel, &mut cache, words, &[(1, 700)], 64);
        let _ = route_all(cube_kernel, &mut cache, words, &[(1, 700)], 64);
    }

    #[test]
    fn row_cache_accounts_hits_misses_and_bytes() {
        let overlay = ImplicitOverlay::ring(12, ChordVariant::Randomized, 4).unwrap();
        let kernel = overlay.implicit_kernel().unwrap();
        let mut cache = kernel.row_cache_with_slots(3);
        assert_eq!(cache.slots(), 4, "slot counts round up to powers of two");
        let mask = FailureMask::none(overlay.key_space());
        let lowered = kernel.compile_mask(&mask);
        // One-hop routes (every ring row holds its successor) read only the
        // source row.
        let mut route_one = |source: u64| {
            let outcomes = route_all(
                kernel,
                &mut cache,
                lowered.words(),
                &[(source, source + 1)],
                64,
            );
            assert_eq!(outcomes, [RouteOutcome::Delivered { hops: 1 }]);
            (cache.hits(), cache.misses())
        };
        assert_eq!(route_one(0), (0, 1));
        assert_eq!(route_one(0), (1, 1));
        // Same slot, different rank: the collision evicts.
        assert_eq!(route_one(4), (1, 2));
        assert!(cache.resident_bytes() > 0);
    }
}
