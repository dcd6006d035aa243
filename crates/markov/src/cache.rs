//! Memoized routing-chain solves for the serving layer.
//!
//! Solving a routing chain is cheap for one `(h, q)` point but the report
//! server answers *streams* of queries, each of which sums chain solutions
//! over every hop distance of a geometry. [`ChainCache`] memoizes
//! [`RoutingChain::success_probability`](crate::RoutingChain::success_probability)
//! by `(family, h, q)` — with `q` keyed by its exact bit pattern so distinct
//! floats never collide — and exposes hit/solve counters so callers can
//! assert that repeated queries trigger **no new solves**.

use crate::chain::ChainError;
use crate::chains::{hypercube_chain, ring_chain, tree_chain, xor_chain};
use std::collections::HashMap;

/// The four chain families with parameter-free models (Symphony's chain
/// needs `(k_n, k_s)` and its own distance model, so it is not cacheable by
/// `(family, h, q)` alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainFamily {
    /// Chord's ring chain (Fig. 8).
    Ring,
    /// Kademlia's XOR chain (Fig. 5(b)).
    Xor,
    /// Plaxton's tree chain.
    Tree,
    /// CAN's hypercube chain (Fig. 4).
    Hypercube,
}

impl ChainFamily {
    /// The geometry name this family models (matches
    /// `dht_rcm_core::Geometry::name`).
    #[must_use]
    pub fn geometry_name(self) -> &'static str {
        match self {
            ChainFamily::Ring => "ring",
            ChainFamily::Xor => "xor",
            ChainFamily::Tree => "tree",
            ChainFamily::Hypercube => "hypercube",
        }
    }

    /// Parses a geometry name into its chain family, if one exists.
    #[must_use]
    pub fn from_geometry_name(name: &str) -> Option<Self> {
        match name {
            "ring" => Some(ChainFamily::Ring),
            "xor" => Some(ChainFamily::Xor),
            "tree" => Some(ChainFamily::Tree),
            "hypercube" => Some(ChainFamily::Hypercube),
            _ => None,
        }
    }

    /// Builds and solves this family's chain for `h` hops at failure
    /// probability `q`, uncached.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError`] if the chain cannot be built or solved (e.g.
    /// `h = 0` or `q` outside `[0, 1]`).
    pub fn solve(self, h: u32, q: f64) -> Result<f64, ChainError> {
        let chain = match self {
            ChainFamily::Ring => ring_chain(h, q)?,
            ChainFamily::Xor => xor_chain(h, q)?,
            ChainFamily::Tree => tree_chain(h, q)?,
            ChainFamily::Hypercube => hypercube_chain(h, q)?,
        };
        chain.success_probability()
    }
}

/// A memoizing solver for the parameter-free routing chains.
///
/// # Example
///
/// ```rust
/// use dht_markov::cache::{ChainCache, ChainFamily};
///
/// let mut cache = ChainCache::new();
/// let first = cache.success_probability(ChainFamily::Hypercube, 3, 0.5)?;
/// let second = cache.success_probability(ChainFamily::Hypercube, 3, 0.5)?;
/// assert_eq!(first.to_bits(), second.to_bits());
/// assert_eq!(cache.solves(), 1);
/// assert_eq!(cache.hits(), 1);
/// # Ok::<(), dht_markov::ChainError>(())
/// ```
#[derive(Debug, Default)]
pub struct ChainCache {
    solved: HashMap<(ChainFamily, u32, u64), f64>,
    hits: u64,
    solves: u64,
}

impl ChainCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        ChainCache::default()
    }

    /// The chain success probability for `(family, h, q)`, solved on first
    /// use and served from the cache afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError`] if the underlying chain cannot be built or
    /// solved (e.g. `h = 0` or `q` outside `[0, 1]`). Failed solves are not
    /// cached.
    pub fn success_probability(
        &mut self,
        family: ChainFamily,
        h: u32,
        q: f64,
    ) -> Result<f64, ChainError> {
        let key = (family, h, q.to_bits());
        if let Some(&probability) = self.solved.get(&key) {
            self.hits += 1;
            return Ok(probability);
        }
        let probability = family.solve(h, q)?;
        self.solves += 1;
        self.solved.insert(key, probability);
        Ok(probability)
    }

    /// Number of solves served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of fresh chain builds + solves performed.
    #[must_use]
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Number of distinct `(family, h, q)` points held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.solved.len()
    }

    /// Whether the cache holds no solves.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.solved.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_solve_matches_a_direct_solve_exactly() {
        let mut cache = ChainCache::new();
        for family in [
            ChainFamily::Ring,
            ChainFamily::Xor,
            ChainFamily::Tree,
            ChainFamily::Hypercube,
        ] {
            let cached = cache.success_probability(family, 4, 0.3).unwrap();
            let direct = family.solve(4, 0.3).unwrap();
            assert_eq!(cached.to_bits(), direct.to_bits(), "{family:?}");
        }
        assert_eq!(cache.solves(), 4);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn repeats_hit_and_distinct_q_bits_do_not_collide() {
        let mut cache = ChainCache::new();
        let a = cache
            .success_probability(ChainFamily::Ring, 3, 0.2)
            .unwrap();
        let b = cache
            .success_probability(ChainFamily::Ring, 3, 0.2 + f64::EPSILON)
            .unwrap();
        assert_eq!(cache.solves(), 2, "distinct bit patterns are distinct keys");
        let again = cache
            .success_probability(ChainFamily::Ring, 3, 0.2)
            .unwrap();
        assert_eq!(a.to_bits(), again.to_bits());
        assert_eq!(cache.hits(), 1);
        // Not asserting a != b: the chains are continuous, the *keys* matter.
        let _ = b;
    }

    #[test]
    fn failed_solves_are_not_cached() {
        let mut cache = ChainCache::new();
        assert!(cache.success_probability(ChainFamily::Xor, 0, 0.5).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.solves(), 0);
    }

    #[test]
    fn family_names_round_trip() {
        for family in [
            ChainFamily::Ring,
            ChainFamily::Xor,
            ChainFamily::Tree,
            ChainFamily::Hypercube,
        ] {
            assert_eq!(
                ChainFamily::from_geometry_name(family.geometry_name()),
                Some(family)
            );
        }
        assert_eq!(ChainFamily::from_geometry_name("symphony"), None);
    }
}
