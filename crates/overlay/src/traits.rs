//! The [`Overlay`] abstraction shared by the five executable DHTs.

use crate::failure::FailureMask;
use dht_id::{KeySpace, NodeId, Population};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised while building or querying an overlay.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverlayError {
    /// The identifier length is outside the supported range.
    ///
    /// There are two ceilings, one per backend: materialized overlays store
    /// every table row in the CSR arena and stop at [`MAX_OVERLAY_BITS`];
    /// the implicit backend regenerates rows on demand and extends full
    /// populations to [`MAX_IMPLICIT_OVERLAY_BITS`]. `max_bits` records
    /// which ceiling the failed construction was checked against.
    UnsupportedBits {
        /// The rejected identifier length.
        bits: u32,
        /// The ceiling of the backend that rejected it: [`MAX_OVERLAY_BITS`]
        /// for materialized builds, [`MAX_IMPLICIT_OVERLAY_BITS`] for
        /// implicit ones.
        max_bits: u32,
    },
    /// A node identifier does not belong to the overlay's key space.
    UnknownNode {
        /// The offending identifier value.
        value: u64,
    },
    /// A protocol parameter was invalid (e.g. zero Symphony shortcuts).
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        message: String,
    },
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlayError::UnsupportedBits { bits, max_bits } => write!(
                f,
                "this backend supports at most {max_bits}-bit identifier spaces, got {bits} \
                 (materialized tables stop at {MAX_OVERLAY_BITS} bits; the implicit backend \
                 routes full populations up to {MAX_IMPLICIT_OVERLAY_BITS} bits)"
            ),
            OverlayError::UnknownNode { value } => {
                write!(f, "node {value} does not belong to this overlay")
            }
            OverlayError::InvalidParameter { message } => {
                write!(f, "invalid parameter: {message}")
            }
        }
    }
}

impl std::error::Error for OverlayError {}

/// Largest identifier length an executable overlay will **materialise**.
///
/// The CSR [`crate::RoutingArena`] stores all routing tables in one flat
/// allocation (no per-node `Vec` headers or allocator slop), which is what
/// lets this sit at `2^24`. This is the ceiling of the *materialized*
/// backend only: full populations can go up to
/// [`MAX_IMPLICIT_OVERLAY_BITS`] through the implicit backend
/// ([`crate::ImplicitOverlay`]), which regenerates each row from the seed on
/// demand instead of storing it.
pub const MAX_OVERLAY_BITS: u32 = 24;

/// Largest identifier length the **implicit** backend will route.
///
/// [`crate::ImplicitOverlay`] keeps no per-node state — a table row is
/// recomputed from `(seed, rank)` whenever routing needs it — so its ceiling
/// is set by the structures that *must* stay resident: the
/// [`FailureMask`] bitset (2^30 nodes = 128 MiB) and the trial engine's
/// pair-sampling index, one eighth of the mask (16 MiB). The `dht_id` layer
/// itself asserts `bits <= 32` for full-population enumeration, so 30 leaves
/// headroom while keeping worst-case resident sets in the hundreds of
/// megabytes.
pub const MAX_IMPLICIT_OVERLAY_BITS: u32 = 30;

/// An executable DHT overlay over the occupied identifiers of a
/// [`Population`] — fully populated (`N = 2^d`, the paper's model) or sparse
/// (`n < 2^d`, what deployed systems exhibit).
///
/// Implementors expose their routing table ([`Overlay::neighbors`]) and their
/// greedy forwarding rule ([`Overlay::next_hop`]); the free function
/// [`crate::route`] drives the latter hop by hop under a frozen
/// [`FailureMask`].
///
/// Overlays are `Send + Sync` by contract: routing tables are frozen after
/// construction and every query takes `&self`, which is what lets batch
/// drivers (`dht_sim`'s sharded trial engine, the concurrent sweep) fan one
/// overlay out across scoped threads without wrapper types.
pub trait Overlay: Send + Sync {
    /// Short name of the routing geometry (matches the analytical crate),
    /// e.g. `"xor"`.
    fn geometry_name(&self) -> &'static str;

    /// The occupied identifiers the overlay is built over.
    fn population(&self) -> &Population;

    /// The identifier space the overlay lives in.
    fn key_space(&self) -> KeySpace {
        self.population().space()
    }

    /// Number of nodes (`2^d` for a full population, the occupied count for a
    /// sparse one).
    fn node_count(&self) -> u64 {
        self.population().node_count()
    }

    /// The routing-table entries of `node`.
    ///
    /// `node` is wrapped into the overlay's key space (a width mismatch is a
    /// caller bug and trips a debug assertion rather than a panic in release
    /// builds); an identifier that is not occupied has no routing table and
    /// yields an empty slice.
    fn neighbors(&self, node: NodeId) -> &[NodeId];

    /// The greedy next hop from `current` towards `target`, honouring the
    /// protocol's own notion of progress, restricted to alive neighbours.
    ///
    /// Returns `None` when no alive neighbour makes progress — under the
    /// static-resilience model the message is then dropped (no backtracking,
    /// §4.1 of the paper).
    fn next_hop(&self, current: NodeId, target: NodeId, alive: &FailureMask) -> Option<NodeId>;

    /// Total number of directed routing-table entries in the overlay.
    ///
    /// The default walks every occupied node; [`crate::GeometryOverlay`]
    /// overrides it with the O(1) entry count of its CSR arena.
    fn edge_count(&self) -> u64 {
        self.population()
            .iter_nodes()
            .map(|node| self.neighbors(node).len() as u64)
            .sum()
    }

    /// The compiled rank-space routing kernel, when the overlay can lower
    /// itself into one (see [`crate::kernel`]).
    ///
    /// Batch drivers (`dht_sim`'s trial engine) route through this kernel,
    /// or else through [`Overlay::implicit_kernel`]; both run the kernel
    /// module's one routing loop, and their outcomes are bit-identical to
    /// [`Overlay::next_hop`] driven hop by hop, so callers never observe the
    /// difference except in speed. [`crate::GeometryOverlay`] compiles the
    /// kernel lazily on first call and caches it. The default is `None`.
    ///
    /// # Panics
    ///
    /// Never panics itself, but there is no scalar fallback: an overlay
    /// that returns `None` here and from [`Overlay::implicit_kernel`] makes
    /// `dht_sim`'s `TrialEngine` panic with its geometry name. Such an
    /// overlay routes only through [`crate::route`].
    fn kernel(&self) -> Option<&crate::kernel::RoutingKernel> {
        None
    }

    /// The implicit (generative) routing kernel, when the overlay computes
    /// table rows on demand instead of storing them (see
    /// [`crate::ImplicitOverlay`]).
    ///
    /// Batch drivers prefer [`Overlay::kernel`] when present and use this
    /// otherwise: the same routing loop, with a per-worker
    /// [`crate::ImplicitRowCache`] as its scratch instead of a compiled
    /// plan. Implicit outcomes are bit-identical to the materialized kernel
    /// built from the same seed. The default is `None`.
    ///
    /// # Panics
    ///
    /// Never panics itself, but an overlay that exposes neither this nor
    /// [`Overlay::kernel`] makes `dht_sim`'s `TrialEngine` panic with its
    /// geometry name: there is no per-hop scalar fallback in the engine.
    fn implicit_kernel(&self) -> Option<&crate::kernel::ImplicitKernel> {
        None
    }

    /// Bytes of routing state this overlay keeps resident in memory.
    ///
    /// Materialized overlays count their CSR arena plus any compiled kernel
    /// plan; the implicit backend counts only its constant-size descriptor
    /// (row caches are caller-owned scratch and accounted separately, as is
    /// the [`FailureMask`]). The default approximates a materialized table
    /// as one [`NodeId`] per directed edge.
    fn resident_bytes(&self) -> usize {
        self.edge_count() as usize * std::mem::size_of::<NodeId>()
    }
}

/// Validates an identifier length against [`MAX_OVERLAY_BITS`] (the
/// materialized-backend ceiling).
pub(crate) fn validate_bits(bits: u32) -> Result<KeySpace, OverlayError> {
    if bits == 0 || bits > MAX_OVERLAY_BITS {
        return Err(OverlayError::UnsupportedBits {
            bits,
            max_bits: MAX_OVERLAY_BITS,
        });
    }
    KeySpace::new(bits).map_err(|_| OverlayError::UnsupportedBits {
        bits,
        max_bits: MAX_OVERLAY_BITS,
    })
}

/// Validates an identifier length against [`MAX_IMPLICIT_OVERLAY_BITS`]
/// (the implicit-backend ceiling).
pub(crate) fn validate_implicit_bits(bits: u32) -> Result<KeySpace, OverlayError> {
    if bits == 0 || bits > MAX_IMPLICIT_OVERLAY_BITS {
        return Err(OverlayError::UnsupportedBits {
            bits,
            max_bits: MAX_IMPLICIT_OVERLAY_BITS,
        });
    }
    KeySpace::new(bits).map_err(|_| OverlayError::UnsupportedBits {
        bits,
        max_bits: MAX_IMPLICIT_OVERLAY_BITS,
    })
}

/// Validates a population for overlay construction: a supported identifier
/// length and at least two occupied identifiers (routing needs a pair).
pub(crate) fn validate_population(population: &Population) -> Result<(), OverlayError> {
    validate_bits(population.space().bits())?;
    if population.node_count() < 2 {
        return Err(OverlayError::InvalidParameter {
            message: format!(
                "an overlay needs at least two occupied identifiers, got {}",
                population.node_count()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_bits_accepts_reasonable_sizes() {
        assert!(validate_bits(1).is_ok());
        assert!(validate_bits(16).is_ok());
        assert!(validate_bits(MAX_OVERLAY_BITS).is_ok());
    }

    #[test]
    fn validate_bits_rejects_extremes() {
        assert_eq!(
            validate_bits(0),
            Err(OverlayError::UnsupportedBits {
                bits: 0,
                max_bits: MAX_OVERLAY_BITS
            })
        );
        assert!(validate_bits(MAX_OVERLAY_BITS + 1).is_err());
        assert!(validate_bits(64).is_err());
    }

    #[test]
    fn validate_implicit_bits_extends_the_ceiling_to_30() {
        assert!(validate_implicit_bits(MAX_OVERLAY_BITS + 1).is_ok());
        assert!(validate_implicit_bits(MAX_IMPLICIT_OVERLAY_BITS).is_ok());
        assert_eq!(
            validate_implicit_bits(MAX_IMPLICIT_OVERLAY_BITS + 1),
            Err(OverlayError::UnsupportedBits {
                bits: MAX_IMPLICIT_OVERLAY_BITS + 1,
                max_bits: MAX_IMPLICIT_OVERLAY_BITS
            })
        );
        assert!(validate_implicit_bits(0).is_err());
    }

    #[test]
    fn validate_population_needs_two_nodes() {
        let space = KeySpace::new(8).unwrap();
        assert!(validate_population(&Population::full(space)).is_ok());
        let pair = Population::sparse(space, [space.wrap(1), space.wrap(2)]).unwrap();
        assert!(validate_population(&pair).is_ok());
        let single = Population::sparse(space, [space.wrap(1)]).unwrap();
        assert!(matches!(
            validate_population(&single),
            Err(OverlayError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn error_display_is_descriptive() {
        let err = OverlayError::UnsupportedBits {
            bits: 40,
            max_bits: 24,
        };
        assert!(err.to_string().contains("40"));
        assert!(err.to_string().contains("24"));
        let err = OverlayError::InvalidParameter {
            message: "shortcuts must be positive".into(),
        };
        assert!(err.to_string().contains("shortcuts"));
    }
}
