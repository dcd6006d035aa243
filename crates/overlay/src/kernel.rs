//! The compiled rank-space routing kernel.
//!
//! Scalar routing ([`crate::route_with_limit`]) asks the overlay's
//! [`GeometryStrategy`] for a greedy hop, and every strategy answers the same
//! way: linearly scan the full neighbour table, recompute the geometry's
//! distance metric for each entry, and probe the failure mask through a
//! per-identifier lookup. That is flexible — it is
//! the reference semantics — but it pays O(d) distance recomputations per hop
//! for work that is knowable at *build* time: a finger's clockwise advance
//! never changes, a bucket contact's position in the table *is* its XOR
//! bucket, a hypercube link always corrects the same bit.
//!
//! [`RoutingKernel`] lowers an overlay's rows — read from its arena, or
//! replayed from its construction stream for a
//! [seeded](crate::GeometryOverlay::seeded) overlay — into a plan that
//! precomputes all of it, in **rank space** (nodes addressed by their
//! occupied rank, exactly like the [`crate::RoutingArena`]):
//!
//! * neighbour tables become dense `u32` rank indices, packed with their hop
//!   keys into 8-byte entries (half the scalar arena's `NodeId`) behind a
//!   CSR `offsets` array;
//! * each entry's **hop key** is precomputed per geometry — clockwise advance
//!   for ring/Symphony (largest first), XOR-bucket position for
//!   Kademlia/Plaxton, flipped-bit weight for the hypercube — and laid out in
//!   greedy-preference order;
//! * a greedy hop becomes an expected-O(1) scan over the advance-sorted
//!   entries (ring; the sorted layout also admits a plain binary search) or
//!   a leading-zero dispatch (prefix geometries) plus a short alive-probe
//!   scan, instead of an O(d) distance-recomputing pass;
//! * alive probes are direct bit tests on the rank index
//!   ([`KernelMask::is_alive_rank`]) — no sparse population-rank lookup per
//!   probe.
//!
//! # One routing loop over four row sources
//!
//! Rank-space routing is written once, over a crate-private *row source*:
//! something that hands a hop the entries of a rank's row it probes, in
//! greedy-preference order. Each geometry strategy declares which form its
//! rows take over a population ([`GeometryStrategy::row_form`]), and the
//! kernel picks the source from it:
//!
//! * **plan rows** — the materialized source slices the row out of this
//!   kernel's CSR plan and prefetches the next one;
//! * **cached rows** — the implicit source ([`ImplicitKernel`]) regenerates
//!   the row into the caller's [`ImplicitRowCache`] (randomized Chord,
//!   Symphony);
//! * **closed form** — deterministic Chord fingers `rank + 2^i` and hypercube
//!   links `rank ^ 2^i` over a full population are computed from the rank on
//!   both backends, and a hop visits only the entries it can take: the
//!   fingers from the remaining distance's top bit down, the links of the
//!   bits still set in the XOR diff. Such a kernel compiles no plan;
//! * **positioned draws** — on the implicit backend, a Kademlia or Plaxton
//!   bucket is one stream draw at a fixed position, so a hop seeks to the
//!   bucket it probes and reads on only for the XOR fallback.
//!
//! On top of the source sit one admission prelude, one per-hop step (the
//! rule's dispatch over the entries) and the lockstep pass of [`batch`], the
//! only way either kernel routes. The closed form and the positioned draws
//! yield exactly the entries of the static row lowering that the hop would
//! read, so no source can disagree with another on a hop.
//!
//! The kernel's outcomes are **bit-identical** to the scalar path: every
//! [`RouteOutcome`] of [`RoutingKernel::route_batch`] (including
//! `Dropped { stuck_at }` and hop counts) matches `route_with_limit` for
//! all five geometries, full and sparse populations alike — proven by the
//! `kernel_equivalence` proptest suite. That is what lets `dht_sim`'s trial
//! engine switch onto the kernel without perturbing a single committed
//! measurement.
//!
//! # Example
//!
//! ```rust
//! use dht_overlay::{default_route_hop_limit, route, ChordOverlay, ChordVariant};
//! use dht_overlay::{FailureMask, Overlay, RouteBatch};
//!
//! let overlay = ChordOverlay::build(10, ChordVariant::Deterministic)?;
//! let kernel = overlay.kernel().expect("ring geometry compiles");
//! let space = overlay.key_space();
//! let mask = FailureMask::none(space);
//! let lowered = kernel.compile_mask(&mask);
//! let limit = default_route_hop_limit(&overlay);
//! let mut outcomes = Vec::new();
//! kernel.route_batch(
//!     &mut RouteBatch::default(),
//!     lowered.words(),
//!     &[(3, 900)],
//!     limit,
//!     &mut outcomes,
//! );
//! assert_eq!(
//!     outcomes,
//!     [route(&overlay, space.wrap(3), space.wrap(900), &mask)],
//! );
//! # Ok::<(), dht_overlay::OverlayError>(())
//! ```

pub mod batch;
pub mod implicit;

use crate::arena::RoutingArena;
use crate::failure::FailureMask;
use crate::fanout;
use crate::generic::GeometryStrategy;
use crate::kademlia::prefix_contact;
use crate::router::RouteOutcome;
use batch::prefetch_read;
use dht_id::{KeySpace, NodeId, Population};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

pub use batch::{RouteBatch, DEFAULT_BATCH_WIDTH};
pub use implicit::{ImplicitKernel, ImplicitOverlay, ImplicitRowCache};

/// Sentinel rank for an absent entry (the sparse self-placeholder of an empty
/// bucket or tree level).
const NO_ENTRY: u32 = u32::MAX;

/// Which hop key a geometry precomputes per entry, and which dispatch rule
/// the kernel's next-hop uses over it.
///
/// Each [`GeometryStrategy`] exports its rule through `kernel_rule`;
/// strategies that return `None` cannot be lowered and route only through
/// the scalar reference path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelRule {
    /// Greedy non-overshooting ring forwarding (Chord, Symphony). Hop key:
    /// the entry's clockwise advance from its owner, stored largest first
    /// (greedy-preference order). Dispatch: scan forward, skipping
    /// overshoots (advance greater than the remaining clockwise distance)
    /// and dead probes in one walk — expected O(1) probes per hop.
    RingAdvance,
    /// Prefix forwarding with XOR fallback (Kademlia). Hop key: the contact's
    /// raw identifier value, stored at its bucket position. Dispatch:
    /// leading-zero dispatch to the bucket of the highest differing bit
    /// (whose contact, when alive, is provably the unique XOR minimum), with
    /// a fallback scan over the lower-order buckets when it is dead.
    PrefixXor,
    /// Rigid prefix forwarding (the Plaxton tree). Hop key: the entry's raw
    /// identifier value, stored at its level position. Dispatch: leading-zero
    /// dispatch to the level of the highest differing bit, single probe — the
    /// protocol has no fallback.
    PrefixTree,
    /// Greedy Hamming forwarding (the CAN hypercube). Hop key: the weight of
    /// the entry's flipped bit, laid out most-significant first. Dispatch:
    /// first entry whose bit is set in the remaining XOR diff and alive.
    HypercubeBit,
}

/// How a kernel reads the entries a hop probes: the answer of
/// [`GeometryStrategy::row_form`] for a population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowForm {
    /// Lowered rows: compiled into the materialized plan, regenerated into
    /// the implicit backend's row cache.
    Rows,
    /// Ring fingers `rank + 2^i` or hypercube links `rank ^ 2^i`, computed
    /// from the rank on both backends; no plan is compiled.
    ClosedForm,
    /// Prefix buckets drawn one at a time from the construction stream at
    /// bucket `b`'s position `rank × stride + 2b` (implicit backend; the
    /// materialized backend compiles plan rows).
    PositionedPrefix,
}

/// A [`FailureMask`] lowered into a kernel's rank space: alive probes become
/// direct bit tests indexed by occupied rank.
///
/// Created once per (kernel, mask) pair by [`RoutingKernel::compile_mask`];
/// the per-route key-space assertions of the scalar path are paid there, once
/// per batch, instead of on every routed pair.
#[derive(Debug, Clone)]
pub enum KernelMask<'mask> {
    /// Full population: occupied ranks coincide with identifier values, so
    /// the mask's own bitset is already rank-indexed and is borrowed as-is.
    Full(&'mask FailureMask),
    /// Sparse population: a rank-compressed copy of the alive bits (bit `r`
    /// set iff the rank-`r` occupied node survived).
    Compressed(Vec<u64>),
}

impl KernelMask<'_> {
    /// Returns `true` when the occupied node of the given rank survived.
    ///
    /// This is the kernel's only per-probe mask query: one shift and mask,
    /// with no population-rank indirection.
    #[inline]
    #[must_use]
    pub fn is_alive_rank(&self, rank: u32) -> bool {
        alive_bit(self.words(), rank)
    }

    /// The rank-indexed bitset words, resolved once so the lockstep pass
    /// probes a bare slice instead of re-matching the representation per
    /// hop.
    ///
    /// Batch drivers resolve this once per shard and hand it to
    /// [`RoutingKernel::route_batch`].
    #[inline]
    #[must_use]
    pub fn words(&self) -> &[u64] {
        match self {
            KernelMask::Full(mask) => mask.words(),
            KernelMask::Compressed(words) => words,
        }
    }
}

/// Tests bit `rank` of a rank-indexed alive bitset.
#[inline]
fn alive_bit(words: &[u64], rank: u32) -> bool {
    words[(rank >> 6) as usize] & (1u64 << (rank & 63)) != 0
}

/// A built overlay lowered into a rank-space routing plan — or, for a
/// geometry whose strategy declares [`RowForm::ClosedForm`], a kernel that
/// computes its entries per hop and holds no plan.
///
/// See the [module docs](self) for the representation. Obtain one through
/// [`Overlay::kernel`](crate::Overlay::kernel) (compiled lazily, cached on
/// the overlay); drive it with [`RoutingKernel::route_batch`] after lowering
/// the failure mask once with [`RoutingKernel::compile_mask`].
#[derive(Debug, Clone)]
pub struct RoutingKernel {
    rule: KernelRule,
    space: KeySpace,
    bits: u32,
    full: bool,
    /// Shared with the owning overlay (value↔rank mapping for sparse
    /// populations), not cloned — the sparse rank table is space-sized.
    population: Arc<Population>,
    /// `offsets[r]..offsets[r + 1]` delimits the plan entries of rank `r`.
    offsets: Vec<u32>,
    /// When every table has the same length (always true for full
    /// populations), the common length: rank `r`'s entries start at
    /// `r * stride` and the hot loops skip the `offsets` load entirely.
    stride: Option<u32>,
    /// The packed plan entries, tables back to back in rank order.
    entries: Vec<PlanEntry>,
    /// Routes through the closed-form source instead of a plan (then
    /// `offsets` and `entries` are empty).
    closed_form: bool,
}

/// One packed plan entry: the precomputed hop key and the neighbour's
/// occupied rank, interleaved so the key compare and the follow-up alive
/// probe share a cache line. Both fields fit `u32` because executable
/// identifier spaces are capped at [`crate::traits::MAX_OVERLAY_BITS`] bits
/// ([`crate::traits::MAX_IMPLICIT_OVERLAY_BITS`] for the implicit backend,
/// still within `u32`): the whole entry is 8 bytes, half the scalar arena's
/// `NodeId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanEntry {
    /// The hop key (meaning depends on the [`KernelRule`]).
    key: u32,
    /// The neighbour's occupied rank, or [`NO_ENTRY`].
    target: u32,
}

impl RoutingKernel {
    /// Lowers `arena`'s routing tables over `population` into a plan for
    /// `rule`, one [`lower_static_row`] per rank, on the calling thread.
    ///
    /// Ranks follow the arena/population convention (occupied identifiers in
    /// ascending order). Construction is O(edges) plus, for the ring rule, a
    /// per-table sort by advance.
    #[must_use]
    pub(crate) fn compile(
        rule: KernelRule,
        population: &Arc<Population>,
        arena: &RoutingArena,
    ) -> Self {
        debug_assert_eq!(arena.node_count() as u64, population.node_count());
        Self::compile_rows(rule, population, 1, None, arena.entry_count(), |_| {
            let mut ring_scratch = Vec::new();
            move |rank, entries| {
                let node = population.node_at(rank as u64);
                let table = arena.neighbors(rank);
                lower_static_row(rule, population, node, table, &mut ring_scratch, entries);
            }
        })
    }

    /// Lowers the rows `strategy` builds from its construction stream — the
    /// stream a `ChaCha8Rng::seed_from_u64(stream_seed)` build draws — into
    /// the plan [`RoutingKernel::compile`] makes of the built arena, byte for
    /// byte, without building the arena.
    ///
    /// Rank chunks compile on up to `threads` threads. Each replays its own
    /// stretch of the stream: its generator starts at word `first ×
    /// words_per_node` of its first rank, as [`FailureMask::sample_seeded`]
    /// positions its chunks, and runs `build_table` and [`lower_static_row`]
    /// per rank — except that a strategy declaring
    /// [`RowForm::PositionedPrefix`] has its row drawn bucket by bucket, as
    /// the implicit backend draws it, with no table built. The prefix rules'
    /// rows are `d` entries wide and fill their slices of one preallocated
    /// plan; ring rows, which lose zero and duplicate advances in the
    /// lowering, fill a buffer per chunk.
    ///
    /// # Panics
    ///
    /// Panics if the strategy declares no
    /// [`implicit_stream_words`](GeometryStrategy::implicit_stream_words) over
    /// `population`.
    #[must_use]
    pub(crate) fn compile_stream<S: GeometryStrategy>(
        rule: KernelRule,
        population: &Arc<Population>,
        strategy: &S,
        stream_seed: u64,
        threads: usize,
    ) -> Self {
        let words_per_node = strategy
            .implicit_stream_words(population)
            .expect("stream compiles need a fixed per-node stream stride");
        let width = strategy.table_len_hint(population);
        let fixed = match rule {
            KernelRule::PrefixXor | KernelRule::PrefixTree | KernelRule::HypercubeBit => {
                Some(width)
            }
            KernelRule::RingAdvance => None,
        };
        let capacity = population.node_count() * width as u64;
        let bits = population.space().bits();
        let positioned = strategy.row_form(population) == RowForm::PositionedPrefix;
        debug_assert!(!positioned || words_per_node == 2 * u64::from(bits));
        Self::compile_rows(rule, population, threads, fixed, capacity, |first| {
            let mut rng = ChaCha8Rng::seed_from_u64(stream_seed);
            rng.set_word_pos(first as u64 * words_per_node);
            let mut table = Vec::with_capacity(width);
            let mut ring_scratch = Vec::with_capacity(width);
            move |rank, entries| {
                let node = population.node_at(rank as u64);
                if positioned {
                    let value = node.value();
                    let entry = |bucket| drawn_prefix_entry(bits, value, bucket, rng.next_u64());
                    entries.extend((0..bits).map(entry));
                } else {
                    table.clear();
                    strategy.build_table(population, node, &mut rng, &mut table);
                    lower_static_row(rule, population, node, &table, &mut ring_scratch, entries);
                }
            }
        })
    }

    /// Lowers a live overlay's fixed-width arena into a *repairable* plan.
    ///
    /// Unlike [`RoutingKernel::compile`], every plan row keeps exactly the
    /// arena row's width: ring rows retain duplicate and zero-advance (self)
    /// entries in descending-advance order (the zero guard of the ring hop
    /// stops at the zero tail), and hypercube self placeholders lower to
    /// inert [`NO_ENTRY`] slots. Fixed-width rows are what let
    /// [`RoutingKernel::relower_rank`] repatch a single row in place after a
    /// live repair instead of recompiling the whole plan.
    #[must_use]
    pub(crate) fn compile_live(
        rule: KernelRule,
        population: &Arc<Population>,
        arena: &RoutingArena,
    ) -> Self {
        Self::compile_rows(rule, population, 1, None, arena.entry_count(), |_| {
            move |rank, entries| {
                let node = population.node_at(rank as u64);
                lower_live_row(rule, population, node, arena.neighbors(rank), entries);
            }
        })
    }

    /// The CSR plan every compiler shares, whatever its rows come from.
    ///
    /// The ranks are cut into at most `threads` balanced chunks of at least
    /// [`MIN_CHUNK_RANKS`] ranks, and each chunk runs on a scoped thread of
    /// its own (a single chunk runs inline).
    /// `chunk_rows(first)` makes the row lowering of the chunk that starts at
    /// rank `first`; it appends the lowered entries of each rank it is
    /// called with, in rank order. When every row is `width` entries wide the
    /// chunks write into disjoint slices of one preallocated plan; otherwise
    /// each chunk fills a buffer of its own, presized from `capacity` (the
    /// expected plan entries), and the buffers join in rank order. Either
    /// way the plan does not depend on `threads`.
    fn compile_rows<R>(
        rule: KernelRule,
        population: &Arc<Population>,
        threads: usize,
        width: Option<usize>,
        capacity: u64,
        chunk_rows: impl Fn(usize) -> R + Sync,
    ) -> Self
    where
        R: FnMut(usize, &mut Vec<PlanEntry>),
    {
        let space = population.space();
        let full = population.is_full();
        let node_count = usize::try_from(population.node_count()).expect("overlay sizes fit usize");
        let chunks = fanout::balanced(node_count, threads, MIN_CHUNK_RANKS);
        let plan_offset =
            |end: usize| u32::try_from(end).expect("kernel plans hold at most u32::MAX entries");

        let (offsets, entries) = match width {
            Some(width) => {
                let mut entries = vec![INERT_ENTRY; node_count * width];
                let mut rest = entries.as_mut_slice();
                let pieces: Vec<_> = chunks
                    .map(|ranks| {
                        let (piece, tail) =
                            std::mem::take(&mut rest).split_at_mut(ranks.len() * width);
                        rest = tail;
                        (ranks, piece)
                    })
                    .collect();
                fanout::on_threads(pieces, |(ranks, piece)| {
                    let mut lower = chunk_rows(ranks.start);
                    let mut row = Vec::with_capacity(width);
                    for (rank, slot) in ranks.zip(piece.chunks_exact_mut(width)) {
                        row.clear();
                        lower(rank, &mut row);
                        assert_eq!(row.len(), width, "rank {rank} lowers to a fixed-width row");
                        slot.copy_from_slice(&row);
                    }
                });
                let offsets = (0..=node_count).map(|rank| plan_offset(rank * width));
                (offsets.collect(), entries)
            }
            None => {
                let parts = fanout::on_threads(chunks.collect(), |ranks| {
                    let mut lower = chunk_rows(ranks.start);
                    // The chunk's share of `capacity`, all of it for a
                    // single chunk (the product stays below 2^56: at most
                    // 2^32 entries times 2^24 ranks).
                    let share = capacity * ranks.len() as u64 / node_count as u64;
                    let mut entries = Vec::with_capacity(share as usize);
                    // Row ends relative to the chunk; the first chunk's are
                    // the plan's offsets, leading zero included.
                    let mut ends = if ranks.start == 0 {
                        let mut offsets = Vec::with_capacity(node_count + 1);
                        offsets.push(0);
                        offsets
                    } else {
                        Vec::with_capacity(ranks.len())
                    };
                    for rank in ranks {
                        lower(rank, &mut entries);
                        ends.push(plan_offset(entries.len()));
                    }
                    (entries, ends)
                });
                let total = parts.iter().map(|(part, _)| part.len()).sum::<usize>();
                let mut parts = parts.into_iter();
                let (mut entries, mut offsets) = parts.next().expect("a compile has a chunk");
                entries.reserve_exact(total - entries.len());
                for (part, ends) in parts {
                    let base = entries.len();
                    offsets.extend(ends.iter().map(|&end| plan_offset(base + end as usize)));
                    entries.extend_from_slice(&part);
                }
                (offsets, entries)
            }
        };

        let stride = uniform_stride(&offsets);
        RoutingKernel {
            rule,
            space,
            bits: space.bits(),
            full,
            population: Arc::clone(population),
            offsets,
            stride,
            entries,
            closed_form: false,
        }
    }

    /// A kernel without a plan, for a full population whose strategy
    /// declares [`RowForm::ClosedForm`]: every hop computes its entries from
    /// the rank, so [`RoutingKernel::entry_count`] and
    /// [`RoutingKernel::plan_bytes`] read 0.
    #[must_use]
    pub(crate) fn closed_form(rule: KernelRule, population: &Arc<Population>) -> Self {
        assert!(population.is_full(), "closed forms need a full population");
        let space = population.space();
        RoutingKernel {
            rule,
            space,
            bits: space.bits(),
            full: true,
            population: Arc::clone(population),
            offsets: Vec::new(),
            stride: None,
            entries: Vec::new(),
            closed_form: true,
        }
    }

    /// Repatches the plan row of `rank` in place from the node's rewritten
    /// live table — the kernel half of a live repair (dirty-rank
    /// invalidation): only the repaired row is re-lowered, every other row
    /// and the CSR layout stay untouched.
    ///
    /// Only valid on plans produced by [`RoutingKernel::compile_live`], whose
    /// rows are fixed-width by construction.
    ///
    /// # Panics
    ///
    /// Panics if the lowered row width differs from the stored row (a
    /// violation of the live fixed-width contract).
    pub(crate) fn relower_rank(&mut self, rank: usize, node: NodeId, table: &[NodeId]) {
        let (start, end) = self.bounds(rank as u32);
        let mut row: Vec<PlanEntry> = Vec::with_capacity(end - start);
        lower_live_row(self.rule, &self.population, node, table, &mut row);
        assert_eq!(
            row.len(),
            end - start,
            "live repairs preserve the row width"
        );
        self.entries[start..end].copy_from_slice(&row);
    }

    /// `true` when `other` encodes entry-for-entry the same routing plan:
    /// same rule, key space, CSR layout and packed hop keys/ranks.
    ///
    /// This is the kernel-level equality the incremental-equivalence property
    /// suite asserts between a delta-repaired plan and a from-scratch
    /// live compile over the same state.
    #[must_use]
    pub fn plan_eq(&self, other: &RoutingKernel) -> bool {
        self.rule == other.rule
            && self.space == other.space
            && self.bits == other.bits
            && self.full == other.full
            && self.offsets == other.offsets
            && self.stride == other.stride
            && self.entries == other.entries
    }

    /// A 64-bit digest of the full plan (rule, layout, every packed entry),
    /// folded with SplitMix64. Plans that satisfy [`RoutingKernel::plan_eq`]
    /// digest identically; the live-churn engine folds this into its
    /// final-state hashes so thread-count determinism covers the compiled
    /// plans, not just the tallies.
    #[must_use]
    pub fn plan_digest(&self) -> u64 {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |value: u64| digest = crate::live::splitmix64(digest ^ value);
        fold(self.rule as u64);
        fold(u64::from(self.bits));
        fold(u64::from(self.full));
        for &offset in &self.offsets {
            fold(u64::from(offset));
        }
        for entry in &self.entries {
            fold(u64::from(entry.key) << 32 | u64::from(entry.target));
        }
        digest
    }

    /// The dispatch rule this kernel was compiled with.
    #[must_use]
    pub fn rule(&self) -> KernelRule {
        self.rule
    }

    /// The identifier space the kernel routes in.
    #[must_use]
    pub fn key_space(&self) -> KeySpace {
        self.space
    }

    /// Number of plan entries (directed edges, placeholders included for the
    /// positional prefix rules); 0 for a closed-form kernel.
    #[must_use]
    pub fn entry_count(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Bytes of the plan's own storage (offsets and packed key/rank
    /// entries) — the kernel's memory cost on top of the overlay it was
    /// lowered from: 8 bytes per entry plus 4 per node, and 0 for a
    /// closed-form kernel. The population is shared with the overlay, not
    /// duplicated, and is not counted here.
    #[must_use]
    pub fn plan_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.entries.len() * std::mem::size_of::<PlanEntry>()
    }

    /// Lowers `mask` into this kernel's rank space.
    ///
    /// For a full population the mask's bitset is already rank-indexed and is
    /// borrowed; for a sparse one the occupied bits are compressed into a
    /// rank-indexed copy, O(n). Either way this is the **batch-entry
    /// validation point**: the key-space checks the scalar path performs on
    /// every routed pair are asserted here exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `mask` covers a different key space or population size than
    /// the kernel.
    #[must_use]
    pub fn compile_mask<'mask>(&self, mask: &'mask FailureMask) -> KernelMask<'mask> {
        check_mask(mask, self.bits, &self.population);
        if self.full {
            return KernelMask::Full(mask);
        }
        let node_count =
            usize::try_from(self.population.node_count()).expect("overlay sizes fit usize");
        let mut words = vec![0u64; node_count.div_ceil(64)];
        for (rank, node) in self.population.iter_nodes().enumerate() {
            if mask.is_alive(node) {
                words[rank >> 6] |= 1u64 << (rank & 63);
            }
        }
        KernelMask::Compressed(words)
    }

    /// The materialized row source over this plan.
    fn rows(&self) -> PlanRows<'_> {
        PlanRows {
            kernel: self,
            entries: &self.entries,
            stride: self.stride,
        }
    }

    /// The plan-entry range of rank `r`: a multiply for fixed-stride plans,
    /// two `offsets` loads for ragged ones.
    #[inline]
    fn bounds(&self, rank: u32) -> (usize, usize) {
        match self.stride {
            Some(stride) => {
                let start = rank as usize * stride as usize;
                (start, start + stride as usize)
            }
            None => (
                self.offsets[rank as usize] as usize,
                self.offsets[rank as usize + 1] as usize,
            ),
        }
    }
}

/// Where the shared route loops read the entries a hop probes from.
///
/// Four implementations: a materialized [`RoutingKernel`] slices the row out
/// of its CSR plan and prefetches the next one; an implicit kernel with the
/// caller's [`ImplicitRowCache`] regenerates it on a miss (see [`implicit`]);
/// the closed-form source computes ring and hypercube entries from the rank
/// ([`ClosedForm`]); and the implicit prefix source draws one bucket at a
/// time from its stream position. Everything above the entries — admission,
/// the per-rule hop and the lockstep pass — is written once against this
/// trait, so every source shares every routing decision by construction.
trait RowSource {
    /// The dispatch rule of the rows.
    fn rule(&self) -> KernelRule;

    /// The identifier space routed in.
    fn space(&self) -> KeySpace;

    /// Occupied rank of the identifier `value`, `None` when unoccupied. The
    /// default serves full populations, where rank == value.
    #[inline]
    fn rank_of_value(&self, value: u64) -> Option<u32> {
        Some(value as u32)
    }

    /// The entries of `rank`'s row that a hop of `rule`, `cursor` away from
    /// its target, probes, in greedy-preference order: for the prefix rules
    /// the row from the bucket of the cursor's leading bit on, for the ring
    /// and hypercube rules the row itself. A source may leave out entries
    /// the hop would skip (ring advances beyond the cursor, hypercube bits
    /// the diff no longer holds), never entries it could take.
    fn entries(
        &mut self,
        rule: KernelRule,
        rank: u32,
        cursor: u64,
    ) -> impl Iterator<Item = PlanEntry>;

    /// Hints that the entries of `rank` are read on the next lockstep pass.
    /// Only plan rows are loaded from memory the hop waits for; the other
    /// sources compute their entries and have nothing to prefetch.
    fn prefetch(&self, rank: u32) {
        let _ = rank;
    }
}

/// The entries of a lowered `row` that a hop of `rule` at `cursor` scans:
/// the row from the bucket of the cursor's leading bit on for the prefix
/// rules (rows are positional), the whole row otherwise.
#[inline(always)]
fn row_entries(
    row: &[PlanEntry],
    rule: KernelRule,
    bits: u32,
    cursor: u64,
) -> impl Iterator<Item = PlanEntry> + '_ {
    let first = match rule {
        KernelRule::PrefixXor | KernelRule::PrefixTree => leading_level(bits, cursor),
        KernelRule::RingAdvance | KernelRule::HypercubeBit => 0,
    };
    row[first..].iter().copied()
}

/// The materialized row source: rows are slices of the compiled plan. The
/// entry slice and stride are copied out of the kernel, so the lockstep pass
/// keeps them in registers across its stores to the frontier.
struct PlanRows<'k> {
    kernel: &'k RoutingKernel,
    entries: &'k [PlanEntry],
    stride: Option<u32>,
}

impl RowSource for PlanRows<'_> {
    #[inline]
    fn rule(&self) -> KernelRule {
        self.kernel.rule
    }

    #[inline]
    fn space(&self) -> KeySpace {
        self.kernel.space
    }

    #[inline]
    fn rank_of_value(&self, value: u64) -> Option<u32> {
        if self.kernel.full {
            Some(value as u32)
        } else {
            let rank = self.kernel.population.rank_of_value(value)?;
            Some(rank as u32)
        }
    }

    #[inline(always)]
    fn entries(
        &mut self,
        rule: KernelRule,
        rank: u32,
        cursor: u64,
    ) -> impl Iterator<Item = PlanEntry> {
        let (start, end) = match self.stride {
            Some(stride) => (
                rank as usize * stride as usize,
                (rank as usize + 1) * stride as usize,
            ),
            None => self.kernel.bounds(rank),
        };
        row_entries(&self.entries[start..end], rule, self.kernel.bits, cursor)
    }

    /// Fixed-stride plans (every full population) know the row address
    /// without a load, so the entry line itself is prefetched — two lines for
    /// wide rows, because the ring scan reads deeper into the row as the
    /// remaining distance shrinks. Ragged plans would need `offsets[rank]`
    /// first, so only that offset line is prefetched and the entry row is
    /// left to the demand load.
    #[inline]
    fn prefetch(&self, rank: u32) {
        match self.stride {
            Some(stride) => {
                let start = rank as usize * stride as usize;
                prefetch_read(self.entries, start);
                if stride > 8 {
                    // A PlanEntry is 8 bytes: lines hold 8 entries.
                    prefetch_read(self.entries, start + 8);
                }
            }
            None => prefetch_read(&self.kernel.offsets, rank as usize),
        }
    }
}

/// The closed-form source of a full-population ring or hypercube, on both
/// backends: rank == value, and the entries a hop can take are computed from
/// the rank and the cursor, so there is no row to store, regenerate or
/// prefetch.
struct ClosedForm {
    rule: KernelRule,
    space: KeySpace,
}

impl RowSource for ClosedForm {
    #[inline]
    fn rule(&self) -> KernelRule {
        self.rule
    }

    #[inline]
    fn space(&self) -> KeySpace {
        self.space
    }

    /// Ring: the fingers `rank + 2^i` for every `2^i` up to the remaining
    /// distance's top bit, largest first — the static row's entries the
    /// ring scan does not skip as overshooting. Hypercube: the links
    /// `rank ^ 2^i` for every bit still set in the XOR diff, most
    /// significant first — the static row's entries whose bit the diff
    /// holds.
    #[inline(always)]
    fn entries(
        &mut self,
        rule: KernelRule,
        rank: u32,
        cursor: u64,
    ) -> impl Iterator<Item = PlanEntry> {
        let ring = match rule {
            KernelRule::RingAdvance => true,
            KernelRule::HypercubeBit => false,
            KernelRule::PrefixXor | KernelRule::PrefixTree => {
                unreachable!("only ring and hypercube rows have a closed form")
            }
        };
        let mut weights = if ring {
            u64::MAX >> cursor.leading_zeros()
        } else {
            cursor
        };
        let rank = u64::from(rank);
        let max = self.space.max_value();
        std::iter::from_fn(move || {
            (weights != 0).then(|| {
                let weight = 1u64 << (63 - weights.leading_zeros());
                weights ^= weight;
                let target = if ring {
                    (rank + weight) & max
                } else {
                    rank ^ weight
                };
                PlanEntry {
                    key: weight as u32,
                    target: target as u32,
                }
            })
        })
    }
}

/// The admission prelude every route runs: source aliveness, then target
/// aliveness, then the trivial-arrival check — the scalar driver's order.
/// `Ok((rank, cursor))` starts a route at the source's rank with a non-zero
/// distance cursor (see [`distance`]); `Err` is the outcome of a lookup that
/// resolves before its first hop.
#[inline(always)]
fn admit<R: RowSource>(
    rows: &R,
    rule: KernelRule,
    words: &[u64],
    source: u64,
    target: u64,
) -> Result<(u32, u64), RouteOutcome> {
    let space = rows.space();
    debug_assert!(source <= space.max_value(), "source outside the space");
    debug_assert!(target <= space.max_value(), "target outside the space");
    let alive_rank = |value| {
        rows.rank_of_value(value)
            .filter(|&rank| alive_bit(words, rank))
    };
    let Some(rank) = alive_rank(source) else {
        return Err(RouteOutcome::SourceFailed);
    };
    if alive_rank(target).is_none() {
        return Err(RouteOutcome::TargetFailed);
    }
    match distance(rule, space, source, target) {
        0 => Err(RouteOutcome::Delivered { hops: 0 }),
        cursor => Ok((rank, cursor)),
    }
}

/// The distance cursor a route carries instead of its position: the
/// remaining clockwise distance for the ring rule, the XOR diff for the
/// prefix and hypercube rules. Zero means arrival, and the position is
/// recovered from the target by [`position`].
#[inline]
fn distance(rule: KernelRule, space: KeySpace, from: u64, to: u64) -> u64 {
    match rule {
        KernelRule::RingAdvance => ring_distance_raw(from, to, space),
        KernelRule::PrefixXor | KernelRule::PrefixTree | KernelRule::HypercubeBit => from ^ to,
    }
}

/// The identifier holding a message `cursor` away from `target` — the
/// inverse of [`distance`].
#[inline]
fn position(rule: KernelRule, space: KeySpace, target: u64, cursor: u64) -> u64 {
    match rule {
        KernelRule::RingAdvance => target.wrapping_sub(cursor) & space.max_value(),
        KernelRule::PrefixXor | KernelRule::PrefixTree | KernelRule::HypercubeBit => {
            target ^ cursor
        }
    }
}

/// One greedy hop from `rank`, `cursor` away from `target`: the rule's
/// dispatch over the entries the source hands out. Returns the cursor after
/// the hop and the next rank, or `None` when no alive entry makes progress.
///
/// Always inlined, so a loop that passes a constant `rule` keeps only that
/// rule's arm (see [`rule_of`]). The per-rule hop helpers are always
/// inlined too: left to the optimizer, the XOR helper became a call per hop.
#[inline(always)]
fn step<R: RowSource>(
    rows: &mut R,
    rule: KernelRule,
    words: &[u64],
    rank: u32,
    cursor: u64,
    target: u64,
) -> Option<(u64, u32)> {
    let entries = rows.entries(rule, rank, cursor);
    match rule {
        KernelRule::RingAdvance => {
            ring_hop(entries, words, cursor).map(|(advance, next)| (cursor - advance, next))
        }
        KernelRule::PrefixXor => xor_hop(entries, words, cursor, target),
        KernelRule::PrefixTree => tree_hop(entries, words, target),
        KernelRule::HypercubeBit => {
            cube_hop(entries, words, cursor).map(|(weight, next)| (cursor ^ weight, next))
        }
    }
}

/// The `Dropped` outcome of a route stuck `cursor` away from `target`.
#[inline]
fn dropped(rule: KernelRule, space: KeySpace, hops: u32, target: u64, cursor: u64) -> RouteOutcome {
    RouteOutcome::Dropped {
        hops,
        stuck_at: space.wrap(position(rule, space, target, cursor)),
    }
}

/// The rule of `tag`: 0 ring, 1 XOR, 2 tree, 3 hypercube. The lockstep
/// driver is compiled once per rule, with the tag as a const generic: the
/// rule is then a constant in each copy, and [`step`] keeps only that rule's
/// arm in the pass instead of dispatching on every hop.
const fn rule_of(tag: u8) -> KernelRule {
    match tag {
        0 => KernelRule::RingAdvance,
        1 => KernelRule::PrefixXor,
        2 => KernelRule::PrefixTree,
        _ => KernelRule::HypercubeBit,
    }
}

/// Asserts that `mask` covers the kernel's key space and population — the
/// batch-entry validation point of both kernels' `compile_mask`.
fn check_mask(mask: &FailureMask, bits: u32, population: &Population) {
    assert_eq!(
        mask.key_space().bits(),
        bits,
        "mask is from a different key space"
    );
    assert_eq!(
        mask.population_size(),
        population.node_count(),
        "mask covers a different population"
    );
}

/// One ring hop: the first entry whose advance is `<=` the remaining
/// distance and alive. Returns the advance taken and the new rank.
///
/// Entries come largest-advance first, so a forward scan finds the largest
/// admissible advance: overshooting advances and dead probes are both
/// skipped by the same walk. Over a plan row the scan is expected O(1)
/// probes — the number of advances above the remaining distance is
/// geometrically distributed (one per phase above the current one), which
/// beats a branchy O(log d) binary search on real tables.
#[inline(always)]
fn ring_hop(
    entries: impl Iterator<Item = PlanEntry>,
    words: &[u64],
    remaining: u64,
) -> Option<(u64, u32)> {
    for entry in entries {
        // Live plans keep zero-advance self entries at the row tail
        // (fixed-width rows, sorted descending); a zero advance never
        // makes greedy progress, so reaching the tail means the hop
        // fails. Static plans drop zero advances at compile time, so the
        // guard is inert there.
        if entry.key == 0 {
            return None;
        }
        let advance = u64::from(entry.key);
        if advance <= remaining && alive_bit(words, entry.target) {
            return Some((advance, entry.target));
        }
    }
    None
}

/// One tree hop: probe the first entry — the level of the highest bit of
/// the XOR `diff` to the target — with no fallback. Returns the diff after
/// the hop and the entry's rank.
#[inline(always)]
fn tree_hop(
    mut entries: impl Iterator<Item = PlanEntry>,
    words: &[u64],
    target: u64,
) -> Option<(u64, u32)> {
    let entry = entries.next()?;
    (entry.target != NO_ENTRY && alive_bit(words, entry.target))
        .then(|| (u64::from(entry.key) ^ target, entry.target))
}

/// One XOR hop: the first entry — the bucket of the highest bit of the XOR
/// `diff` to the target — when alive (the provable minimum), else the
/// XOR-closest alive contact among the lower-order buckets that follow it.
/// Returns the diff after the hop and the contact's rank.
#[inline(always)]
fn xor_hop(
    mut entries: impl Iterator<Item = PlanEntry>,
    words: &[u64],
    diff: u64,
    target: u64,
) -> Option<(u64, u32)> {
    let primary = entries.next()?;
    if primary.target != NO_ENTRY && alive_bit(words, primary.target) {
        return Some((u64::from(primary.key) ^ target, primary.target));
    }
    // Fallback: buckets above the primary can never beat the current
    // distance; buckets below compete on their contact values' XOR
    // distance to the target. Strictly-smaller keeps the scalar path's
    // first-minimum tie behaviour.
    let mut best: Option<(u64, u32)> = None;
    for entry in entries {
        if entry.target == NO_ENTRY || !alive_bit(words, entry.target) {
            continue;
        }
        let distance = u64::from(entry.key) ^ target;
        if distance < diff && best.is_none_or(|(d, _)| distance < d) {
            best = Some((distance, entry.target));
        }
    }
    best
}

/// One hypercube hop: the first (highest-weight) entry whose bit is still
/// set in `diff` and alive. Returns the corrected bit weight and the new
/// rank.
#[inline(always)]
fn cube_hop(
    entries: impl Iterator<Item = PlanEntry>,
    words: &[u64],
    diff: u64,
) -> Option<(u64, u32)> {
    for entry in entries {
        if diff & u64::from(entry.key) != 0 && alive_bit(words, entry.target) {
            return Some((u64::from(entry.key), entry.target));
        }
    }
    None
}

/// The bucket/level (0 = most significant) of the highest set bit of a
/// non-zero `diff` in a `bits`-wide space — the leading-zero dispatch.
#[inline]
fn leading_level(bits: u32, diff: u64) -> usize {
    debug_assert_ne!(diff, 0);
    (diff.leading_zeros() - (64 - bits)) as usize
}

/// The occupied rank of a table entry (routing tables only reference
/// occupied identifiers).
fn rank_in(population: &Population, node: NodeId) -> u32 {
    population
        .rank_of_value(node.value())
        .expect("routing tables only reference occupied identifiers") as u32
}

/// Lowers one node's raw routing table into static plan entries, appended
/// to `entries` — the one row lowering behind both [`RoutingKernel::compile`]
/// (every rank of an arena) and the implicit backend's row cache (one
/// regenerated row per miss).
///
/// Ring rows are sorted by greedy preference — largest clockwise advance
/// first, so the hop scan reads forward from the row start. Self entries
/// (advance 0, the sparse placeholder) never make greedy progress and are
/// dropped, and duplicate advances are the same identifier, so one probe
/// suffices. Prefix rows are positional: entry `j` sits at bucket/level `j`
/// so the leading-zero dispatch can index directly, and placeholders keep
/// their slot with a [`NO_ENTRY`] rank. Hypercube rows keep build order —
/// bit 0 (most significant) downward — so the first entry whose bit
/// survives in the XOR diff is the scalar rule's minimum.
fn lower_static_row(
    rule: KernelRule,
    population: &Population,
    node: NodeId,
    table: &[NodeId],
    ring_scratch: &mut Vec<(u32, u32)>,
    entries: &mut impl Extend<PlanEntry>,
) {
    let space = population.space();
    let rank_of = |entry| rank_in(population, entry);
    match rule {
        KernelRule::RingAdvance => {
            ring_scratch.clear();
            for &entry in table {
                let advance = ring_distance_raw(node.value(), entry.value(), space);
                if advance > 0 {
                    ring_scratch.push((advance as u32, rank_of(entry)));
                }
            }
            ring_scratch.sort_unstable();
            ring_scratch.dedup_by_key(|&mut (advance, _)| advance);
            entries.extend(
                ring_scratch
                    .iter()
                    .rev()
                    .map(|&(advance, target)| PlanEntry {
                        key: advance,
                        target,
                    }),
            );
        }
        KernelRule::PrefixXor | KernelRule::PrefixTree => {
            debug_assert_eq!(
                table.len(),
                space.bits() as usize,
                "prefix tables hold d entries"
            );
            entries.extend(
                table
                    .iter()
                    .map(|&entry| prefix_entry(node, entry, rank_of)),
            );
        }
        KernelRule::HypercubeBit => {
            entries.extend(table.iter().map(|&entry| cube_entry(node, entry, rank_of)));
        }
    }
}

/// An entry that never routes (hop key 0, no target): what an owner's own
/// slot lowers to, and what an empty row-cache slot holds.
const INERT_ENTRY: PlanEntry = PlanEntry {
    key: 0,
    target: NO_ENTRY,
};

/// The entry of prefix bucket `bucket` of rank `node` over a full population
/// whose stream draw for that bucket is `draw` — the positioned form of
/// [`prefix_entry`]: rank == value, and a bucket contact is never the owner.
#[inline]
fn drawn_prefix_entry(bits: u32, node: u64, bucket: u32, draw: u64) -> PlanEntry {
    let contact = prefix_contact(bits, node, bucket, draw) as u32;
    PlanEntry {
        key: contact,
        target: contact,
    }
}

/// A positional prefix-rule entry: the contact's value and rank, or
/// [`INERT_ENTRY`] for the owner itself.
fn prefix_entry(node: NodeId, entry: NodeId, rank_of: impl Fn(NodeId) -> u32) -> PlanEntry {
    if entry == node {
        return INERT_ENTRY;
    }
    PlanEntry {
        key: entry.value() as u32,
        target: rank_of(entry),
    }
}

/// A hypercube entry: the weight of the flipped bit and the neighbour's
/// rank, or [`INERT_ENTRY`] for a live row's self placeholder.
fn cube_entry(node: NodeId, entry: NodeId, rank_of: impl Fn(NodeId) -> u32) -> PlanEntry {
    if entry == node {
        return INERT_ENTRY;
    }
    let weight = node.value() ^ entry.value();
    debug_assert_eq!(weight.count_ones(), 1, "hypercube links flip one bit");
    PlanEntry {
        key: weight as u32,
        target: rank_of(entry),
    }
}

/// Lowers one fixed-width live table row into plan entries.
///
/// The live lowering differs from the static one in exactly one way: the row
/// width is preserved. Ring rows keep duplicate advances and zero-advance
/// self entries (sorted descending so real advances come first and the
/// ring hop's zero guard stops at the tail); prefix and hypercube rows are
/// positional and already fixed-width, with self placeholders lowered to
/// [`NO_ENTRY`]. Shared by [`RoutingKernel::compile_live`] (all rows) and
/// [`RoutingKernel::relower_rank`] (one row).
fn lower_live_row(
    rule: KernelRule,
    population: &Population,
    node: NodeId,
    table: &[NodeId],
    entries: &mut Vec<PlanEntry>,
) {
    let space = population.space();
    let rank_of = |entry| rank_in(population, entry);
    match rule {
        KernelRule::RingAdvance => {
            let mut row: Vec<(u32, u32)> = table
                .iter()
                .map(|&entry| {
                    let advance = ring_distance_raw(node.value(), entry.value(), space);
                    (advance as u32, rank_of(entry))
                })
                .collect();
            row.sort_unstable();
            entries.extend(row.iter().rev().map(|&(advance, target)| PlanEntry {
                key: advance,
                target,
            }));
        }
        KernelRule::PrefixXor | KernelRule::PrefixTree => {
            entries.extend(
                table
                    .iter()
                    .map(|&entry| prefix_entry(node, entry, rank_of)),
            );
        }
        KernelRule::HypercubeBit => {
            entries.extend(table.iter().map(|&entry| cube_entry(node, entry, rank_of)));
        }
    }
}

/// Clockwise ring distance over raw values (the kernel never constructs
/// identifiers in its hot loops).
#[inline]
fn ring_distance_raw(from: u64, to: u64, space: KeySpace) -> u64 {
    to.wrapping_sub(from) & space.max_value()
}

/// The fewest ranks a plan-compile chunk holds, so that small plans compile
/// on one thread: 512 rows of a 2^20 XOR overlay are ~10 000 stream draws,
/// about what the 512-word floor of [`FailureMask::sample_seeded`] draws.
const MIN_CHUNK_RANKS: usize = 512;

/// The common row width when every CSR row is equally wide (always the case
/// over full populations), or `None` for ragged rows.
fn uniform_stride(offsets: &[u32]) -> Option<u32> {
    let first = offsets.get(1)? - offsets[0];
    offsets
        .windows(2)
        .all(|pair| pair[1] - pair[0] == first)
        .then_some(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{default_route_hop_limit, route_with_limit};
    use crate::traits::Overlay;
    use crate::{CanOverlay, ChordOverlay, ChordVariant, KademliaOverlay, SymphonyOverlay};
    use proptest::prelude::*;

    /// Routes `pairs` through one default-width [`RoutingKernel::route_batch`].
    fn route_all(
        kernel: &RoutingKernel,
        words: &[u64],
        pairs: &[(u64, u64)],
        hop_limit: u32,
    ) -> Vec<RouteOutcome> {
        let mut outcomes = Vec::new();
        kernel.route_batch(
            &mut RouteBatch::default(),
            words,
            pairs,
            hop_limit,
            &mut outcomes,
        );
        outcomes
    }

    #[test]
    fn ring_kernel_precomputes_sorted_advances() {
        // A deterministic ring over a full population routes in closed form
        // and holds no plan.
        let overlay = ChordOverlay::build(6, ChordVariant::Deterministic).unwrap();
        let kernel = overlay.kernel().expect("ring compiles");
        assert_eq!(kernel.rule(), KernelRule::RingAdvance);
        assert_eq!((kernel.entry_count(), kernel.plan_bytes()), (0, 0));
        // Deterministic fingers advance by 1, 2, 4, ...: the longest
        // non-overshooting finger takes 0 to 32, the next one to 48.
        let mask = FailureMask::none(overlay.key_space());
        let lowered = kernel.compile_mask(&mask);
        assert_eq!(
            route_all(kernel, lowered.words(), &[(0, 48)], 64),
            [RouteOutcome::Delivered { hops: 2 }]
        );
        // A randomized ring still compiles a plan, every row sorted by
        // strictly descending, non-zero advance.
        let randomized =
            ChordOverlay::build_randomized(6, &mut ChaCha8Rng::seed_from_u64(6)).unwrap();
        let kernel = randomized.kernel().expect("ring compiles");
        assert!(kernel.plan_bytes() > 0);
        for rank in 0..64 {
            let (start, end) = kernel.bounds(rank);
            let row = &kernel.entries[start..end];
            assert!(!row.is_empty() && row[row.len() - 1].key > 0);
            assert!(
                row.windows(2).all(|pair| pair[0].key > pair[1].key),
                "row {rank} is sorted by descending advance"
            );
        }
    }

    /// Routes `pairs` through `overlay`'s closed-form kernel and through a
    /// plan compiled from its arena, under a `q` mask drawn from `rng`, at
    /// one hop limit and frontier width, and asserts identical outcomes pair
    /// by pair.
    fn assert_closed_form_matches_plan<S: crate::GeometryStrategy>(
        overlay: &crate::GeometryOverlay<S>,
        pairs: &[(u64, u64)],
        (q, limit, width): (f64, u32, usize),
        rng: &mut ChaCha8Rng,
    ) -> Result<(), TestCaseError> {
        let name = overlay.geometry_name();
        let closed = overlay.kernel().expect("closed forms are kernels");
        prop_assert_eq!(closed.plan_bytes(), 0, "{} holds no plan", name);
        let population = Arc::new(overlay.population().clone());
        let plan = RoutingKernel::compile(closed.rule(), &population, overlay.arena());
        prop_assert!(plan.entry_count() > 0);
        let mask = FailureMask::sample(overlay.key_space(), q, rng);
        let words = closed.compile_mask(&mask).words().to_vec();
        let mut batch = RouteBatch::new(width);
        let mut closed_outcomes = Vec::new();
        let mut plan_outcomes = Vec::new();
        closed.route_batch(&mut batch, &words, pairs, limit, &mut closed_outcomes);
        plan.route_batch(&mut batch, &words, pairs, limit, &mut plan_outcomes);
        prop_assert_eq!(closed_outcomes, plan_outcomes, "{}", name);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The closed form is the only way either backend routes ring and
        /// hypercube over a full population, so it is held to the plan its
        /// rows would compile to: any size up to 2^14, any failure
        /// probability, frontier width and hop limit (limits up to 64 both
        /// cut routes short and let them finish).
        #[test]
        fn closed_form_kernels_route_like_their_compiled_plans(
            bits in 1u32..=14,
            q in 0.0f64..=1.0,
            width in 1usize..=256,
            limit in 0u32..=64,
            seed in 0u64..=u64::MAX,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let space = KeySpace::new(bits).unwrap();
            let pairs: Vec<(u64, u64)> = (0..200)
                .map(|_| (space.random_id(&mut rng).value(), space.random_id(&mut rng).value()))
                .collect();
            let ring = ChordOverlay::build(bits, ChordVariant::Deterministic).unwrap();
            assert_closed_form_matches_plan(&ring, &pairs, (q, limit, width), &mut rng)?;
            let cube = CanOverlay::build(bits).unwrap();
            assert_closed_form_matches_plan(&cube, &pairs, (q, limit, width), &mut rng)?;
        }
    }

    #[test]
    fn kernel_route_matches_scalar_route_spot_checks() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let overlay = KademliaOverlay::build(10, &mut rng).unwrap();
        let kernel = overlay.kernel().expect("xor compiles");
        let space = overlay.key_space();
        let mask = FailureMask::sample(space, 0.3, &mut rng);
        let lowered = kernel.compile_mask(&mask);
        let limit = default_route_hop_limit(&overlay);
        let pairs: Vec<(u64, u64)> = (0..500)
            .map(|_| {
                (
                    space.random_id(&mut rng).value(),
                    space.random_id(&mut rng).value(),
                )
            })
            .collect();
        let outcomes = route_all(kernel, lowered.words(), &pairs, limit);
        for (&(source, target), outcome) in pairs.iter().zip(&outcomes) {
            assert_eq!(
                *outcome,
                route_with_limit(
                    &overlay,
                    space.wrap(source),
                    space.wrap(target),
                    &mask,
                    limit
                ),
            );
        }
    }

    #[test]
    fn hop_limit_is_reported_identically() {
        let overlay = CanOverlay::build(6).unwrap();
        let kernel = overlay.kernel().expect("hypercube compiles");
        let space = overlay.key_space();
        let mask = FailureMask::none(space);
        let lowered = kernel.compile_mask(&mask);
        let outcomes = route_all(kernel, lowered.words(), &[(0, 0b111111)], 3);
        assert_eq!(outcomes, [RouteOutcome::HopLimitExceeded { limit: 3 }]);
        assert_eq!(
            outcomes,
            [route_with_limit(
                &overlay,
                space.wrap(0),
                space.wrap(0b111111),
                &mask,
                3
            )]
        );
    }

    #[test]
    fn sparse_kernels_compress_the_mask_by_rank() {
        let space = dht_id::KeySpace::new(10).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let population = Population::sample_uniform(space, 200, &mut rng).unwrap();
        let overlay = SymphonyOverlay::build_over(population, 1, 2, &mut rng).unwrap();
        let kernel = overlay.kernel().expect("symphony compiles");
        let mask = FailureMask::sample_over(overlay.population(), 0.4, &mut rng);
        let lowered = kernel.compile_mask(&mask);
        assert!(matches!(lowered, KernelMask::Compressed(_)));
        for (rank, node) in overlay.population().iter_nodes().enumerate() {
            assert_eq!(lowered.is_alive_rank(rank as u32), mask.is_alive(node));
        }
    }

    #[test]
    fn sparse_plan_bytes_are_offsets_and_entries() {
        let space = dht_id::KeySpace::new(10).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let population = Population::sample_uniform(space, 200, &mut rng).unwrap();
        let overlay =
            ChordOverlay::build_over(population, ChordVariant::Randomized, &mut rng).unwrap();
        let kernel = overlay.kernel().expect("ring compiles");
        let node_count = overlay.population().node_count() as usize;
        assert_eq!(
            kernel.plan_bytes(),
            (node_count + 1) * 4 + kernel.entry_count() as usize * 8
        );
    }

    #[test]
    #[should_panic(expected = "different population")]
    fn mask_population_mismatch_is_rejected() {
        let space = dht_id::KeySpace::new(8).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let population = Population::sample_uniform(space, 50, &mut rng).unwrap();
        let overlay =
            ChordOverlay::build_over(population, ChordVariant::Randomized, &mut rng).unwrap();
        let kernel = overlay.kernel().unwrap();
        // A full-space mask over a 50-node overlay is a caller bug.
        let _ = kernel.compile_mask(&FailureMask::none(space));
    }
}
