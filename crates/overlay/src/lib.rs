//! Executable DHT overlay networks with static-resilience routing.
//!
//! The RCM paper validates its analytical predictions against protocol
//! simulations (the data points of Fig. 6, originally from Gummadi et al.,
//! SIGCOMM'03). This crate rebuilds that simulation substrate: it constructs
//! the *basic* routing geometry of each of the five DHTs and routes messages
//! greedily across a frozen failure pattern — the *static resilience* model:
//!
//! * nodes fail independently with probability `q` ([`FailureMask`]);
//! * routing tables are **not** repaired (hence "static");
//! * messages are forwarded greedily with no backtracking;
//! * a message is dropped as soon as no alive neighbour makes progress.
//!
//! The five overlays are [`PlaxtonOverlay`] (tree), [`CanOverlay`]
//! (hypercube), [`KademliaOverlay`] (XOR), [`ChordOverlay`] (ring) and
//! [`SymphonyOverlay`] (small world). All of them implement [`Overlay`], and
//! [`route`] drives any of them hop by hop.
//!
//! # Architecture
//!
//! Each overlay is a type alias of [`GeometryOverlay`] at its geometry's
//! strategy (`ChordOverlay = GeometryOverlay<ChordStrategy>`), which pairs a
//! per-geometry [`generic::GeometryStrategy`] (table construction plus the
//! greedy next-hop rule) with a [`dht_id::Population`] and stores every
//! routing table in a single flat CSR [`RoutingArena`] — `neighbors()` is a
//! slice into that arena and the edge count is O(1). A
//! [seeded](GeometryOverlay::seeded) overlay builds that arena only when a
//! scalar caller first reads it, and compiles its kernel straight from the
//! construction stream instead. The alias adds only
//! its constructors and table accessors; the one [`Overlay`] impl is
//! generic. Populations may be full (`N = 2^d`, the paper's model) or
//! sparse (`n < 2^d` occupied identifiers), in which case fingers, bucket
//! contacts and successors resolve against the occupied set, the way
//! deployed DHTs do.
//!
//! For batch measurement, every geometry also lowers into a compiled
//! rank-space [`RoutingKernel`] (see [`kernel`]): per-entry hop keys are
//! precomputed at build time — or, for deterministic Chord and the hypercube
//! over a full population, computed per hop in closed form — and alive
//! checks become direct bit tests by occupied rank, with outcomes
//! bit-identical to the scalar path. The kernel compiles lazily on first
//! [`Overlay::kernel`] call; `dht_sim`'s trial engine routes through it
//! automatically.
//!
//! Beyond the frozen snapshots, [`LiveOverlay`] (see [`live`]) runs the same
//! five geometries under *live churn*: nodes of a fixed universe depart and
//! return while lookups run, and each event delta-patches the arena, the
//! reverse edge index and the compiled kernel plan in place (dirty-rank
//! invalidation) instead of rebuilding. Every geometry's repair protocol is
//! expressed through the [`GeometryStrategy`] live hooks, and the maintained
//! state is provably identical to a from-scratch rebuild at the current
//! liveness — the `incremental_equivalence` property suite asserts it entry
//! for entry. `dht_sim::events` drives these overlays from its discrete-event
//! scheduler.
//!
//! # Example
//!
//! ```rust
//! use dht_overlay::{route, FailureMask, KademliaOverlay, Overlay, RouteOutcome};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//! let overlay = KademliaOverlay::build(10, &mut rng)?; // 2^10 nodes
//! let space = overlay.key_space();
//! let mask = FailureMask::sample(space, 0.1, &mut rng);
//! let source = space.wrap(17);
//! let target = space.wrap(900);
//! if mask.is_alive(source) && mask.is_alive(target) {
//!     match route(&overlay, source, target, &mask) {
//!         RouteOutcome::Delivered { hops } => assert!(hops <= 10),
//!         RouteOutcome::Dropped { .. } => {}
//!         other => panic!("unexpected outcome {other:?}"),
//!     }
//! }
//! # Ok::<(), dht_overlay::OverlayError>(())
//! ```

// `deny` rather than `forbid`: the batched router's software-prefetch shim
// (`kernel::batch::prefetch_read`) carries the crate's only `allow` — a
// bounds-checked cache hint that cannot fault. Everything else stays
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod can;
pub mod chord;
pub mod failure;
mod fanout;
pub mod faults;
pub mod generic;
pub mod kademlia;
pub mod kernel;
pub mod live;
pub mod plaxton;
pub mod router;
pub mod symphony;
pub mod traits;

pub use arena::RoutingArena;
pub use can::CanOverlay;
pub use chord::{ChordOverlay, ChordVariant};
pub use failure::{select_in_word, FailureMask};
pub use faults::{FailurePlan, MAX_SUBTREE_PREFIX_BITS};
pub use generic::{GeometryOverlay, GeometryStrategy};
pub use kademlia::KademliaOverlay;
pub use kernel::{
    ImplicitKernel, ImplicitOverlay, ImplicitRowCache, KernelMask, KernelRule, RouteBatch,
    RoutingKernel, DEFAULT_BATCH_WIDTH,
};
pub use live::LiveOverlay;
pub use plaxton::PlaxtonOverlay;
pub use router::{
    default_route_hop_limit, route, route_prevalidated, route_with_limit, RouteOutcome,
};
pub use symphony::SymphonyOverlay;
pub use traits::{Overlay, OverlayError, MAX_IMPLICIT_OVERLAY_BITS, MAX_OVERLAY_BITS};
