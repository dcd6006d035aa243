//! Experiment harnesses that regenerate every table and figure of the RCM
//! paper.
//!
//! Each module corresponds to one artifact of the paper's evaluation and
//! returns plain data (vectors of [`dht_sim::SimulationRecord`] or small
//! result structs) so the same code drives `scenario run` (the
//! `dht-scenario` binary), the Criterion benches in `dht-bench`, and the
//! integration tests.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`fig3`] | Fig. 1–3, the worked 8-node hypercube example |
//! | [`fig6`] | Fig. 6(a)/(b), analysis vs simulation at `N = 2^16`, and the slack of the §4.3.3 ring bound |
//! | [`fig7`] | Fig. 7(a)/(b), asymptotic behaviour |
//! | [`scalability_table`] | §5 scalable/unscalable classification |
//! | [`markov_validation`] | closed forms vs the Markov chains of Fig. 4, 5, 8 |
//! | [`live_churn`] | beyond the paper: continuous-time churn with incremental repair |
//! | [`failure_campaigns`] | beyond the paper: structured fault injection (correlated, adaptive, cascading) |
//! | [`percolation_contrast`] | §1 reachable vs connected components |
//! | [`symphony_ablation`] | §1/§3.5 remark: buying routability with more neighbours |
//! | [`sparse_population`] | beyond the paper: resilience at `n < 2^d` occupancy |
//! | [`implicit_scale`] | beyond the paper: static resilience at `2^26`–`2^30` via implicit tables |
//!
//! Every harness takes its family's parameters as plain arguments — plus an
//! explicit seed and thread budget where it samples — so results are
//! reproducible and the same harness runs the fast "smoke" configuration in
//! CI and the full paper-scale configuration when regenerating
//! EXPERIMENTS.md.
//!
//! The [`spec`] module is the declarative front door over all of the above:
//! a serializable [`spec::ScenarioSpec`] describes any experiment (family,
//! parameters, root seed, thread budget) — each [`spec::ExperimentSpec`]
//! variant is the only description of its family's parameters — and
//! [`spec::run_spec`] executes it into a schema-versioned
//! [`spec::ScenarioReport`]. Reports hit disk through
//! [`output::ReportWriter`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod failure_campaigns;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod implicit_scale;
pub mod live_churn;
pub mod markov_validation;
pub mod output;
pub mod percolation_contrast;
pub mod scalability_table;
pub mod sparse_population;
pub mod spec;
pub mod symphony_ablation;

pub use output::{render_records_table, ReportMode, ReportWriter};
pub use spec::{
    run_spec, Backend, ExecutionSpec, ExperimentSpec, Family, ScenarioReport, ScenarioSpec,
    SpecError, SpecOutcome, REPORT_SCHEMA, SPEC_SCHEMA,
};

/// Rejects a failure probability outside `[0, 1]` (NaN included) before a
/// harness hands it to [`dht_overlay::FailureMask::sample`], which asserts
/// the range.
pub(crate) fn check_failure_probability(q: f64) -> Result<(), dht_overlay::OverlayError> {
    if (0.0..=1.0).contains(&q) {
        Ok(())
    } else {
        Err(dht_overlay::OverlayError::InvalidParameter {
            message: format!("failure probability must be in [0, 1], got {q}"),
        })
    }
}
