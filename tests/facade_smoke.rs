//! Smoke test of the `dht_rcm::prelude` facade: every re-exported family —
//! analytical core, executable overlays, simulation harness, and percolation
//! — must be importable from the single glob and compose end to end, the way
//! the crate-level quickstart documents.

use dht_rcm::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The lib.rs quickstart, as a real test: an analytical prediction and an
/// overlay measurement reached purely through the prelude must agree.
#[test]
fn prelude_analysis_and_measurement_compose() {
    let size = SystemSize::power_of_two(16).unwrap();
    let prediction = Geometry::xor().routability(size, 0.3).unwrap();

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let overlay = KademliaOverlay::build(10, &mut rng).unwrap();
    let config = StaticResilienceConfig::new(0.3)
        .unwrap()
        .with_pairs(5_000)
        .with_seed(7);
    let measured = StaticResilienceExperiment::new(config).run(&overlay);

    assert!(
        (prediction.routability - measured.routability).abs() < 0.1,
        "prediction {} vs measurement {}",
        prediction.routability,
        measured.routability
    );
}

/// Every geometry in the catalogue pairs with an overlay built through the
/// prelude, and routing without failures always delivers.
#[test]
fn prelude_overlays_cover_all_five_geometries() {
    let bits = 6;
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let overlays: Vec<Box<dyn Overlay>> = vec![
        Box::new(PlaxtonOverlay::build(bits, &mut rng).unwrap()),
        Box::new(CanOverlay::build(bits).unwrap()),
        Box::new(KademliaOverlay::build(bits, &mut rng).unwrap()),
        Box::new(ChordOverlay::build(bits, ChordVariant::Deterministic).unwrap()),
        Box::new(SymphonyOverlay::build(bits, 1, 1, &mut rng).unwrap()),
    ];
    assert_eq!(
        overlays.len(),
        Geometry::all_with_default_parameters().len()
    );
    for overlay in &overlays {
        let space = overlay.key_space();
        let mask = FailureMask::none(space);
        let outcome = route(overlay.as_ref(), space.wrap(3), space.wrap(42), &mask);
        assert!(outcome.is_delivered(), "{}", overlay.geometry_name());
    }
}

/// The percolation re-exports interoperate with overlays and failure masks
/// from the other crates: the reachable component lies inside the connected
/// component, and the threshold estimator returns a probability.
#[test]
fn prelude_percolation_interoperates() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let overlay = KademliaOverlay::build(8, &mut rng).unwrap();
    let mask = FailureMask::sample(overlay.key_space(), 0.3, &mut rng);
    let root = mask.alive_nodes().next().expect("some node survives");

    let components = connected_components(&overlay, &mask);
    let reachable = reachable_component(&overlay, root, &mask);
    for node in &reachable {
        assert!(components.same_component(root, *node));
    }

    let threshold = percolation_threshold(&overlay, 0.5, 8, 3, 99);
    assert!(
        (0.0..=1.0).contains(&threshold.critical_failure_probability),
        "critical q {} must be a probability",
        threshold.critical_failure_probability
    );
}

/// The sweep helper runs a grid through the same prelude types.
#[test]
fn prelude_sweep_produces_a_grid_of_records() {
    let overlay = CanOverlay::build(6).unwrap();
    let grid = [0.0, 0.2, 0.4];
    let base_config = StaticResilienceConfig::new(0.0)
        .unwrap()
        .with_pairs(500)
        .with_seed(13);
    let points = sweep_failure_grid(&overlay, &base_config, &grid).unwrap();
    assert_eq!(points.len(), grid.len());
    let mut previous = 1.1f64;
    for point in &points {
        let routability = point.routability;
        assert!((0.0..=1.0).contains(&routability));
        assert!(routability <= previous + 0.05, "roughly monotone");
        previous = routability;
    }
}
