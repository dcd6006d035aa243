//! Integration tests over the experiment harnesses: the qualitative *shapes*
//! the paper reports must come out of the full pipeline, end to end.

use dht_rcm::experiments::{fig3, fig7, markov_validation, scalability_table, symphony_ablation};
use dht_rcm::prelude::*;

#[test]
fn figure_7a_reproduces_the_scalable_unscalable_split() {
    // The smoke panel: N = 2^100, q = 0–80% in 20% steps, Symphony (1, 1).
    let records = fig7::fig7a(100, &dht_rcm::mathkit::percent_grid(80, 20), 1, 1).unwrap();
    // Pick the q = 40% column and check the two classes are separated by a
    // wide margin at N = 2^100.
    let failed = |name: &str| {
        records
            .iter()
            .find(|r| r.geometry == name && (r.failure_probability - 0.4).abs() < 1e-9)
            .and_then(|r| r.analytical_failed_percent)
            .unwrap()
    };
    for unscalable in ["tree", "symphony"] {
        assert!(
            failed(unscalable) > 99.9,
            "{unscalable}: {}",
            failed(unscalable)
        );
    }
    for scalable in ["hypercube", "xor", "ring"] {
        assert!(failed(scalable) < 60.0, "{scalable}: {}", failed(scalable));
    }
}

#[test]
fn figure_7b_crossover_shapes_match_the_paper() {
    // The smoke sweep: q = 0.1 at N = 2^10 … 2^34, Symphony (1, 1).
    let points = fig7::fig7b(0.1, &[10, 16, 22, 28, 34], 1, 1).unwrap();
    // Tree starts usable at small N and ends near zero at large N, while XOR
    // stays flat — the crossing of the two curves is the figure's message.
    let tree_small = points
        .iter()
        .find(|p| p.geometry == "tree" && p.bits == 10)
        .unwrap()
        .routability_percent;
    let tree_large = points
        .iter()
        .find(|p| p.geometry == "tree" && p.bits == 34)
        .unwrap()
        .routability_percent;
    let xor_large = points
        .iter()
        .find(|p| p.geometry == "xor" && p.bits == 34)
        .unwrap()
        .routability_percent;
    assert!(tree_small > 50.0);
    assert!(tree_large < 25.0);
    assert!(xor_large > 95.0);
    assert!(xor_large > tree_large + 50.0);
}

#[test]
fn scalability_table_is_internally_consistent() {
    let rows = scalability_table::run(&[0.05, 0.2]).unwrap();
    assert_eq!(rows.len(), 5);
    for row in &rows {
        assert!(row.consistent, "{} verdicts disagree", row.geometry);
        match row.analytic {
            ScalabilityClass::Scalable => assert!(row.limiting_success_probability > 0.0),
            ScalabilityClass::Unscalable => {
                assert_eq!(row.limiting_success_probability, 0.0);
            }
        }
    }
}

#[test]
fn closed_forms_survive_an_independent_markov_check() {
    let rows = markov_validation::run(10, &[0.1, 0.5, 0.9]).unwrap();
    for row in &rows {
        assert!(
            row.max_absolute_error < 1e-8,
            "{} disagrees with its chain by {}",
            row.geometry,
            row.max_absolute_error
        );
    }
}

#[test]
fn fig3_worked_example_is_self_consistent() {
    let result = fig3::run(0.25, 30_000, 11).unwrap();
    // The cumulative probability of the last row is p(3, q) by construction.
    assert!((result.rows[2].cumulative_success - result.analytical_p3).abs() < 1e-12);
    assert!((result.simulated_p3 - result.analytical_p3).abs() < 0.02);
}

#[test]
fn symphony_ablation_offers_a_route_to_any_target_routability() {
    let cells = symphony_ablation::run(&[16], 0.3, 8).unwrap();
    let minimum = symphony_ablation::minimum_configuration(&cells, 16, 99.0);
    assert!(
        minimum.is_some(),
        "eight connections should be plenty for 99% routability at 2^16"
    );
    let (near, shortcuts) = minimum.unwrap();
    assert!(near + shortcuts <= 16);
    assert!(near >= 1 && shortcuts >= 1);
}
