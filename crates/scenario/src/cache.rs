//! The server's cross-query caches: built overlays (with their compiled
//! routing kernels) and observable hit counters.

use dht_experiments::spec::{build_overlay, Backend, SpecError};
use dht_overlay::Overlay;
use dht_sim::SeedSequence;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Caches built overlays keyed by `(geometry, bits, seed, backend)` so the
/// expensive parts of a static-resilience query — overlay construction and
/// the lazy [`dht_overlay::RoutingKernel`] compile — happen once per
/// distinct key, not once per query.
///
/// For the materialized backend the kernel is forced at insert time (where
/// available), so a cache hit hands back an overlay whose plan is already
/// compiled: routing it never pays the lowering again, which
/// [`ServerStats::kernel_compiles`] makes observable. The plan compiles
/// straight from the construction stream on the server's thread budget, so
/// a cached materialized overlay holds its plan and no `NodeId` arena (the
/// ring and the hypercube route in closed form and hold neither). Implicit
/// overlays ([`Backend::Implicit`]) carry no materialized plan — their
/// cache entry is a few hundred bytes of generator state — but caching
/// them still saves the construction-parameter validation and keeps the
/// two backends symmetric.
#[derive(Default)]
pub struct OverlayCache {
    overlays: HashMap<(String, u32, u64, Backend), Arc<dyn Overlay>>,
    builds: u64,
    hits: u64,
    kernel_compiles: u64,
}

impl OverlayCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        OverlayCache::default()
    }

    /// Returns the cached overlay for `(geometry, bits, seed, backend)`,
    /// building (and compiling the kernel of, on `threads` threads) a new
    /// one on first use. Both backends consume the same construction stream
    /// (`SeedSequence` child 0 of `seed`), so they route bit-identically;
    /// `threads` changes only how fast a plan compiles.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the geometry is unknown or construction
    /// fails; failed builds are not cached.
    pub fn get_or_build(
        &mut self,
        geometry: &str,
        bits: u32,
        seed: u64,
        backend: Backend,
        threads: usize,
    ) -> Result<Arc<dyn Overlay>, SpecError> {
        let key = (geometry.to_owned(), bits, seed, backend);
        if let Some(overlay) = self.overlays.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(overlay));
        }
        let stream_seed = SeedSequence::new(seed).child(0);
        let overlay: Arc<dyn Overlay> = Arc::from(build_overlay(
            geometry,
            bits,
            stream_seed,
            backend,
            threads,
        )?);
        if overlay.kernel().is_some() {
            self.kernel_compiles += 1;
        }
        self.builds += 1;
        self.overlays.insert(key, Arc::clone(&overlay));
        Ok(overlay)
    }

    /// Overlays built (cache misses).
    #[must_use]
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Cache hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Routing kernels compiled (at most one per build).
    #[must_use]
    pub fn kernel_compiles(&self) -> u64 {
        self.kernel_compiles
    }

    /// Number of distinct overlays held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.overlays.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.overlays.is_empty()
    }
}

/// A snapshot of the server's work and cache counters, serialized verbatim
/// as the `Stats` response. The memoization acceptance test reads these to
/// prove a repeated query did no new work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests handled (including errors).
    pub requests: u64,
    /// Report requests answered verbatim from the memo table.
    pub report_hits: u64,
    /// Report requests that had to execute their spec.
    pub report_misses: u64,
    /// Specs actually executed (equals `report_misses` unless a run failed).
    pub trial_runs: u64,
    /// Overlays built by the overlay cache.
    pub overlay_builds: u64,
    /// Overlay-cache hits.
    pub overlay_hits: u64,
    /// Routing kernels compiled.
    pub kernel_compiles: u64,
    /// Markov chains actually solved by the chain cache.
    pub chain_solves: u64,
    /// Chain-cache hits.
    pub chain_hits: u64,
    /// Requests that produced an error response.
    pub errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_keys_hit_without_rebuilding() {
        let mut cache = OverlayCache::new();
        let first = cache
            .get_or_build("ring", 6, 1, Backend::Materialized, 1)
            .unwrap();
        let second = cache
            .get_or_build("ring", 6, 1, Backend::Materialized, 1)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.kernel_compiles(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_build_distinct_overlays() {
        let mut cache = OverlayCache::new();
        cache
            .get_or_build("ring", 6, 1, Backend::Materialized, 1)
            .unwrap();
        cache
            .get_or_build("ring", 7, 1, Backend::Materialized, 1)
            .unwrap();
        cache
            .get_or_build("xor", 6, 1, Backend::Materialized, 1)
            .unwrap();
        cache
            .get_or_build("ring", 6, 2, Backend::Materialized, 1)
            .unwrap();
        // The backend is part of the key: the implicit twin is a new build.
        cache
            .get_or_build("ring", 6, 1, Backend::Implicit, 1)
            .unwrap();
        assert_eq!(cache.builds(), 5);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn unknown_geometries_error_and_are_not_cached() {
        let mut cache = OverlayCache::new();
        for backend in [Backend::Materialized, Backend::Implicit] {
            assert!(cache.get_or_build("moebius", 6, 1, backend, 1).is_err());
        }
        assert!(cache.is_empty());
        assert_eq!(cache.builds(), 0);
    }

    #[test]
    fn cached_overlays_come_back_with_kernels_compiled() {
        let mut cache = OverlayCache::new();
        let overlay = cache
            .get_or_build("hypercube", 6, 1, Backend::Materialized, 1)
            .unwrap();
        assert!(overlay.kernel().is_some());
        assert_eq!(cache.kernel_compiles(), 1);
    }

    #[test]
    fn implicit_builds_carry_the_implicit_kernel_and_stay_tiny() {
        let mut cache = OverlayCache::new();
        let overlay = cache
            .get_or_build("xor", 10, 1, Backend::Implicit, 1)
            .unwrap();
        assert!(overlay.kernel().is_none());
        assert!(overlay.implicit_kernel().is_some());
        assert!(overlay.resident_bytes() < 1024);
        // No materialized plan means no kernel compile to count.
        assert_eq!(cache.kernel_compiles(), 0);
        assert_eq!(cache.builds(), 1);
    }
}
