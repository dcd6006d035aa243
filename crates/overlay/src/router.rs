//! Hop-by-hop routing driver shared by all overlays.

use crate::failure::FailureMask;
use crate::traits::Overlay;
use dht_id::NodeId;
use serde::{Deserialize, Serialize};

/// Outcome of routing one message under a frozen failure pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteOutcome {
    /// The message reached the target.
    Delivered {
        /// Number of hops taken (0 when source == target).
        hops: u32,
    },
    /// No alive neighbour made progress; the message was dropped.
    Dropped {
        /// Hops taken before the drop.
        hops: u32,
        /// The node holding the message when it was dropped.
        stuck_at: NodeId,
    },
    /// The source node itself had failed, so no message was ever sent.
    SourceFailed,
    /// The target node had failed; under the static model the message cannot
    /// be delivered regardless of the path taken.
    TargetFailed,
    /// The hop limit was exceeded — with strictly-greedy protocols this
    /// indicates a protocol-implementation bug rather than a routing failure,
    /// and the integration tests assert it never occurs.
    HopLimitExceeded {
        /// The configured hop limit.
        limit: u32,
    },
}

impl RouteOutcome {
    /// Returns `true` for [`RouteOutcome::Delivered`].
    #[must_use]
    pub fn is_delivered(&self) -> bool {
        matches!(self, RouteOutcome::Delivered { .. })
    }

    /// Number of hops taken, if the message was delivered.
    #[must_use]
    pub fn hops(&self) -> Option<u32> {
        match self {
            RouteOutcome::Delivered { hops } => Some(*hops),
            _ => None,
        }
    }
}

/// The default hop limit for routing on `overlay`: `64 · ⌈log2 n⌉` where `n`
/// is the *occupied* node count.
///
/// Greedy protocols route in at most `⌈log2 n⌉` phases but may take
/// suboptimal hops inside each phase (Symphony in particular needs
/// `O(log^2 n / k_s)` hops in expectation), so the driver allows a generous
/// multiple of the population's bit length. Keying off the occupied count —
/// not the identifier length — keeps the limit tight for sparse overlays: a
/// Symphony ring with `2^10` nodes in a `2^20` space gets `64 · 10` hops, not
/// `64 · 20`.
///
/// Batch drivers (`dht_sim`'s trial engine) compute this once per trial and
/// pass it to the kernels' batch routes.
#[must_use]
pub fn default_route_hop_limit<O>(overlay: &O) -> u32
where
    O: Overlay + ?Sized,
{
    let nodes = overlay.node_count();
    // ceil(log2 n), with n >= 2 enforced at overlay construction; max(1)
    // keeps degenerate custom overlays from a zero limit.
    let bit_length = (u64::BITS - nodes.saturating_sub(1).leading_zeros()).max(1);
    64 * bit_length
}

/// Routes a message from `source` to `target` under `mask` with the default
/// hop limit ([`default_route_hop_limit`]).
///
/// See [`route_with_limit`] for details.
#[must_use]
pub fn route<O>(overlay: &O, source: NodeId, target: NodeId, mask: &FailureMask) -> RouteOutcome
where
    O: Overlay + ?Sized,
{
    route_with_limit(
        overlay,
        source,
        target,
        mask,
        default_route_hop_limit(overlay),
    )
}

/// Routes a message from `source` to `target` under `mask`, giving up after
/// `hop_limit` hops.
///
/// The driver repeatedly asks the overlay for its greedy next hop among alive
/// neighbours. There is no backtracking: the first time the overlay returns
/// `None` the message is dropped, exactly as in the paper's model.
///
/// # Panics
///
/// Panics if `source` or `target` do not belong to the overlay's key space.
#[must_use]
pub fn route_with_limit<O>(
    overlay: &O,
    source: NodeId,
    target: NodeId,
    mask: &FailureMask,
    hop_limit: u32,
) -> RouteOutcome
where
    O: Overlay + ?Sized,
{
    let space = overlay.key_space();
    assert_eq!(
        source.bits(),
        space.bits(),
        "source is from a different key space"
    );
    assert_eq!(
        target.bits(),
        space.bits(),
        "target is from a different key space"
    );
    route_prevalidated(overlay, source, target, mask, hop_limit)
}

/// [`route_with_limit`] with the key-space validation hoisted to the caller.
///
/// Reference drivers that route many pairs drawn from the overlay's own
/// population (the scalar oracle of `dht_sim`'s engine tests) validate the
/// key space once and call this directly, so no routed pair pays the two
/// asserts. Debug builds still assert; release builds trust the caller.
#[must_use]
pub fn route_prevalidated<O>(
    overlay: &O,
    source: NodeId,
    target: NodeId,
    mask: &FailureMask,
    hop_limit: u32,
) -> RouteOutcome
where
    O: Overlay + ?Sized,
{
    debug_assert_eq!(
        source.bits(),
        overlay.key_space().bits(),
        "source is from a different key space"
    );
    debug_assert_eq!(
        target.bits(),
        overlay.key_space().bits(),
        "target is from a different key space"
    );

    if mask.is_failed(source) {
        return RouteOutcome::SourceFailed;
    }
    if mask.is_failed(target) {
        return RouteOutcome::TargetFailed;
    }
    let mut current = source;
    let mut hops = 0u32;
    while current != target {
        if hops >= hop_limit {
            return RouteOutcome::HopLimitExceeded { limit: hop_limit };
        }
        match overlay.next_hop(current, target, mask) {
            Some(next) => {
                debug_assert!(
                    mask.is_alive(next),
                    "overlay {} forwarded to a failed node",
                    overlay.geometry_name()
                );
                current = next;
                hops += 1;
            }
            None => {
                return RouteOutcome::Dropped {
                    hops,
                    stuck_at: current,
                }
            }
        }
    }
    RouteOutcome::Delivered { hops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::RoutingArena;
    use dht_id::{KeySpace, Population};

    /// A toy line overlay: node v's only neighbour is v+1, and the last
    /// node's one slot holds itself. Useful to exercise the driver without
    /// pulling in a real geometry.
    struct LineOverlay {
        population: Population,
        arena: RoutingArena,
    }

    impl LineOverlay {
        fn new(bits: u32) -> Self {
            let space = KeySpace::new(bits).unwrap();
            let population = Population::full(space);
            let mut arena = RoutingArena::with_capacity(1, space.population() as usize);
            for node in population.iter_nodes() {
                if node.value() < space.max_value() {
                    arena.push_table(&[space.wrap(node.value() + 1)]);
                } else {
                    arena.push_table(&[node]);
                }
            }
            LineOverlay { population, arena }
        }

        fn space(&self) -> KeySpace {
            self.population.space()
        }
    }

    impl Overlay for LineOverlay {
        fn geometry_name(&self) -> &'static str {
            "line"
        }
        fn population(&self) -> &Population {
            &self.population
        }
        fn neighbors(&self, node: NodeId) -> &[NodeId] {
            self.arena.neighbors(node.value() as usize)
        }
        fn next_hop(&self, current: NodeId, target: NodeId, alive: &FailureMask) -> Option<NodeId> {
            self.neighbors(current)
                .iter()
                .copied()
                .find(|&n| alive.is_alive(n) && n.value() <= target.value())
        }
    }

    #[test]
    fn delivers_along_the_line() {
        let overlay = LineOverlay::new(4);
        let mask = FailureMask::none(overlay.key_space());
        let outcome = route(
            &overlay,
            overlay.space().wrap(2),
            overlay.space().wrap(9),
            &mask,
        );
        assert_eq!(outcome, RouteOutcome::Delivered { hops: 7 });
        assert!(outcome.is_delivered());
        assert_eq!(outcome.hops(), Some(7));
    }

    #[test]
    fn self_route_takes_zero_hops() {
        let overlay = LineOverlay::new(4);
        let mask = FailureMask::none(overlay.key_space());
        let node = overlay.space().wrap(5);
        assert_eq!(
            route(&overlay, node, node, &mask),
            RouteOutcome::Delivered { hops: 0 }
        );
    }

    #[test]
    fn source_and_target_failures_are_reported() {
        let overlay = LineOverlay::new(4);
        let space = overlay.key_space();
        let mask = FailureMask::from_failed_nodes(space, [space.wrap(3), space.wrap(12)]);
        assert_eq!(
            route(&overlay, space.wrap(3), space.wrap(9), &mask),
            RouteOutcome::SourceFailed
        );
        assert_eq!(
            route(&overlay, space.wrap(1), space.wrap(12), &mask),
            RouteOutcome::TargetFailed
        );
    }

    #[test]
    fn drop_reports_the_stuck_node() {
        let overlay = LineOverlay::new(4);
        let space = overlay.key_space();
        // Failing node 6 cuts every path from below 6 to above 6.
        let mask = FailureMask::from_failed_nodes(space, [space.wrap(6)]);
        match route(&overlay, space.wrap(2), space.wrap(10), &mask) {
            RouteOutcome::Dropped { hops, stuck_at } => {
                assert_eq!(stuck_at, space.wrap(5));
                assert_eq!(hops, 3);
            }
            other => panic!("expected a drop, got {other:?}"),
        }
    }

    #[test]
    fn hop_limit_is_enforced() {
        let overlay = LineOverlay::new(4);
        let space = overlay.key_space();
        let mask = FailureMask::none(space);
        assert_eq!(
            route_with_limit(&overlay, space.wrap(0), space.wrap(15), &mask, 5),
            RouteOutcome::HopLimitExceeded { limit: 5 }
        );
    }

    #[test]
    fn default_hop_limit_keys_off_the_occupied_count() {
        // A full 4-bit line overlay has 16 nodes: 64 * 4 hops.
        let overlay = LineOverlay::new(4);
        assert_eq!(default_route_hop_limit(&overlay), 64 * 4);

        // A sparse overlay gets a limit sized to its occupied count, not the
        // identifier length of the space it happens to live in.
        struct SparseStub {
            population: Population,
        }
        impl Overlay for SparseStub {
            fn geometry_name(&self) -> &'static str {
                "stub"
            }
            fn population(&self) -> &Population {
                &self.population
            }
            fn neighbors(&self, _node: NodeId) -> &[NodeId] {
                &[]
            }
            fn next_hop(
                &self,
                _current: NodeId,
                _target: NodeId,
                _alive: &FailureMask,
            ) -> Option<NodeId> {
                None
            }
        }
        let space = KeySpace::new(20).unwrap();
        let population =
            Population::sparse(space, (0..1024u64).map(|v| space.wrap(v * 7))).unwrap();
        let sparse = SparseStub { population };
        assert_eq!(
            default_route_hop_limit(&sparse),
            64 * 10,
            "2^10 occupied nodes in a 2^20 space bound the phases, not the 20 bits"
        );
        // Non-power-of-two counts round the bit length up.
        let three =
            Population::sparse(space, [space.wrap(1), space.wrap(2), space.wrap(3)]).unwrap();
        assert_eq!(
            default_route_hop_limit(&SparseStub { population: three }),
            64 * 2
        );
    }

    #[test]
    fn outcome_round_trips_through_serde() {
        let space = KeySpace::new(4).unwrap();
        let outcome = RouteOutcome::Dropped {
            hops: 3,
            stuck_at: space.wrap(7),
        };
        let json = serde_json::to_string(&outcome).unwrap();
        let back: RouteOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(outcome, back);
    }
}
