//! Acceptance: the implicit backend routes full populations far beyond the
//! materialized ceiling through the unmodified [`TrialEngine`], from a
//! resident set of mask-plus-cache bytes — *not* edge bytes.
//!
//! The budget assertions are deliberately fixed numbers, not ratios: the
//! point of the implicit backend is that routing state stops scaling with
//! `N`, so the same few hundred kilobytes must cover `2^26` and `2^30`
//! alike while the materialized equivalent would need tens of gigabytes.

use dht_overlay::{ChordVariant, FailureMask, ImplicitOverlay, Overlay};
use dht_sim::TrialEngine;

/// Mask-plus-cache resident budget for overlay routing state, independent
/// of `N`: the generator structs are a few hundred bytes and a full row
/// cache stays under half a mebibyte for every geometry at every size.
const OVERLAY_STATE_BUDGET: usize = 512 * 1024;

#[test]
fn implicit_backend_at_2e26_stays_inside_the_resident_budget() {
    let overlay = ImplicitOverlay::ring(26, ChordVariant::Deterministic, 7).unwrap();
    let kernel = overlay.routing_kernel();
    let cache = kernel.row_cache();

    // Everything the routing path keeps resident besides the mask bitset:
    // the generator state and one worker's row cache.
    let resident = overlay.resident_bytes() + cache.resident_bytes();
    assert!(
        resident < OVERLAY_STATE_BUDGET,
        "resident {resident} bytes exceeds the {OVERLAY_STATE_BUDGET}-byte budget"
    );

    // The mask dominates (one bit per identifier): 8 MiB at 2^26.
    let mask = FailureMask::none(overlay.key_space());
    let mask_bytes = std::mem::size_of_val(mask.words());
    assert_eq!(mask_bytes, 8 << 20);
    assert!(resident < mask_bytes, "overlay state must trail the mask");

    // What the materialized backend would have to hold instead: one
    // identifier per directed edge — hundreds of times the whole budget.
    let edge_bytes = overlay.edge_count() * std::mem::size_of::<u64>() as u64;
    assert!(edge_bytes > 1 << 33, "2^26 x 25 fingers x 8 B > 8 GiB");
}

#[test]
fn trial_engine_routes_2e28_end_to_end_through_the_implicit_kernel() {
    let overlay = ImplicitOverlay::ring(28, ChordVariant::Deterministic, 7).unwrap();
    assert!(overlay.kernel().is_none(), "no materialized plan exists");
    assert!(overlay.implicit_kernel().is_some());

    let mask = FailureMask::none(overlay.key_space());
    let engine = TrialEngine::new(4);
    let tally = engine
        .run_trial(&overlay, &mask, 64, 11)
        .expect("a full population has survivors");
    assert_eq!(tally.attempted, 64);
    assert_eq!(tally.delivered, 64, "an intact ring always delivers");
    assert!(
        tally.max_hops <= 28,
        "greedy fingers cross 2^28 in at most `bits` hops, got {}",
        tally.max_hops
    );

    // Thread count still never changes the numbers, even off-ceiling.
    assert_eq!(
        Some(tally),
        TrialEngine::new(1).run_trial(&overlay, &mask, 64, 11)
    );

    // The routing state that backed all of this stays inside the budget.
    let resident = overlay.resident_bytes() + overlay.routing_kernel().row_cache().resident_bytes();
    assert!(resident < OVERLAY_STATE_BUDGET);
}

#[test]
#[ignore = "2^30 allocates a 128 MiB mask plus a 16 MiB sampler index; run with --ignored"]
fn trial_engine_routes_2e30_from_a_128_mib_mask() {
    let overlay = ImplicitOverlay::ring(30, ChordVariant::Deterministic, 7).unwrap();
    let mask = FailureMask::none(overlay.key_space());
    assert_eq!(std::mem::size_of_val(mask.words()), 128 << 20);
    let tally = TrialEngine::new(8)
        .run_trial(&overlay, &mask, 64, 11)
        .expect("a full population has survivors");
    assert_eq!(tally.delivered, 64);
    assert!(tally.max_hops <= 30);
    let resident = overlay.resident_bytes() + overlay.routing_kernel().row_cache().resident_bytes();
    assert!(resident < OVERLAY_STATE_BUDGET);
}
