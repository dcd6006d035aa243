//! The declarative scenario front door: [`ScenarioSpec`].
//!
//! A `ScenarioSpec` is the one description of an experiment run —
//! experiment family and parameters, root seed, thread budget — and it can
//! live in a JSON file, travel over a socket, and be hashed into a stable
//! content key:
//!
//! * [`ScenarioSpec::from_json`] / [`ScenarioSpec::to_json_pretty`] move
//!   specs in and out of files (schema-versioned: [`SPEC_SCHEMA`]).
//! * [`ScenarioSpec::content_hash_hex`] is a canonical content hash —
//!   key-order independent, and blind to the `name` label and the
//!   `execution` block (thread budgets do not change results; every
//!   measurement engine in this workspace is thread-count invariant).
//! * [`run_spec`] executes any spec and returns a schema-versioned
//!   [`ScenarioReport`] plus the headline and table `scenario run` prints.
//! * [`Family::default_spec`] writes each family's smoke and paper-scale
//!   parameters (what `scenario init [--paper]` emits).
//!
//! Each [`ExperimentSpec`] variant is the only description of its family's
//! parameters: [`run_spec`] hands its fields, the seed and the thread budget
//! straight to the family's harness.
//!
//! ## Seed derivation convention
//!
//! A spec carries one root seed. Workloads that need several independent
//! streams split it with [`dht_sim::SeedSequence`] children — grid sweeps
//! seed point `k` with child `k` ([`dht_sim::sweep_failure_grid`],
//! [`crate::live_churn::run_grid`]), and the static-resilience family uses
//! child 0 for overlay construction and child 1 as the measurement root.

use crate::failure_campaigns::{default_plan_templates, render_failure_campaign_table};
use crate::fig3;
use crate::fig6::{fig6a, fig6b};
use crate::fig7::{fig7a, fig7b, Fig7bPoint};
use crate::implicit_scale::render_implicit_scale_table;
use crate::live_churn::{chain_predicted_routability_with, render_live_churn_table, GEOMETRIES};
use crate::markov_validation::{self, ValidationRow};
use crate::output::render_records_table;
use crate::percolation_contrast::{self, ContrastRow};
use crate::ring_bound_gap::{self, BoundGapPoint};
use crate::scalability_table;
use crate::sparse_population::{render_sparse_table, sparse_population_resilience};
use crate::symphony_ablation::{self, AblationCell};
use dht_markov::{ChainError, ChainFamily};
use dht_mathkit::percent_grid;
use dht_overlay::can::CanStrategy;
use dht_overlay::chord::ChordStrategy;
use dht_overlay::kademlia::KademliaStrategy;
use dht_overlay::plaxton::PlaxtonStrategy;
use dht_overlay::symphony::SymphonyStrategy;
use dht_overlay::{
    ChordVariant, FailurePlan, GeometryOverlay, GeometryStrategy, ImplicitOverlay, Overlay,
    OverlayError,
};
use dht_rcm_core::{classify, routability, Geometry, RcmError, ScalabilityReport, SystemSize};
use dht_sim::{
    sweep_failure_grid, SeedSequence, SimError, SimulationRecord, StaticResilienceConfig,
    StaticResilienceResult,
};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Schema identifier written into (and required from) every spec file.
pub const SPEC_SCHEMA: &str = "dht-scenario/v1";

/// Schema identifier written into every report envelope.
pub const REPORT_SCHEMA: &str = "dht-scenario-report/v1";

/// How a spec is executed: knobs that change resource usage but — by the
/// thread-invariance guarantee of every engine in this workspace — never
/// change results. Excluded from the content hash for exactly that reason.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionSpec {
    /// Worker-thread budget for the measurement engines.
    pub threads: usize,
    /// Which routing-table backend materializes the overlay.
    pub backend: Backend,
}

/// Which routing-table backend a spec runs against.
///
/// Both backends produce bit-identical results wherever both can run (the
/// implicit backend replays the materialized construction's RNG stream), so
/// — like [`ExecutionSpec::threads`] — the choice is excluded from the
/// content hash: it changes the resource profile, never the report.
///
/// [`Backend::Materialized`] builds every routing table up front and is
/// limited to [`dht_overlay::MAX_OVERLAY_BITS`]-bit spaces;
/// [`Backend::Implicit`] regenerates rows on demand and routes full
/// populations up to [`dht_overlay::MAX_IMPLICIT_OVERLAY_BITS`] bits.
/// Families other than `static_resilience` currently ignore the field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Precomputed tables in memory (the default).
    #[default]
    Materialized,
    /// Rows regenerated from the construction seed on demand.
    Implicit,
}

impl Backend {
    /// Stable lowercase name (the spec-file form).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Materialized => "materialized",
            Backend::Implicit => "implicit",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// Hand-written (rather than derived) so the spec-file form is lowercase and
// a missing field reads as the materialized default, keeping every spec
// written before the field existed parseable.
impl Serialize for Backend {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_owned())
    }
}

impl Deserialize for Backend {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        match value {
            Value::Null => Ok(Backend::Materialized),
            Value::Str(name) if name == "materialized" => Ok(Backend::Materialized),
            Value::Str(name) if name == "implicit" => Ok(Backend::Implicit),
            other => Err(serde::Error::custom(format!(
                "unknown backend {other:?} (expected \"materialized\" or \"implicit\")"
            ))),
        }
    }
}

/// A fully-serializable description of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Schema version tag; must equal [`SPEC_SCHEMA`].
    pub schema: String,
    /// Human-readable label; also the output file stem. Not hashed.
    pub name: String,
    /// Root seed; all randomness derives from it (see the module docs for
    /// the [`SeedSequence`] child convention).
    pub seed: u64,
    /// The experiment family and its parameters.
    pub experiment: ExperimentSpec,
    /// Optional execution knobs (thread budget). Not hashed.
    pub execution: Option<ExecutionSpec>,
}

/// The experiment families a spec can describe, with their parameters.
///
/// Serialized externally tagged: `{"Fig6a": { ... }}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExperimentSpec {
    /// The worked 8-node hypercube example of Fig. 1–3.
    Fig3 {
        /// Node failure probability `q`.
        failure_probability: f64,
        /// Monte-Carlo trials for the simulated `p(3, q)`.
        trials: u64,
    },
    /// Fig. 6(a): tree/hypercube/XOR failed paths, analysis + simulation.
    Fig6a {
        /// Identifier length for the analytical curves.
        analytical_bits: u32,
        /// Identifier length for the simulated overlays.
        simulation_bits: u32,
        /// Source/destination pairs per grid point.
        pairs: u64,
        /// Failure-probability grid.
        grid: Vec<f64>,
    },
    /// Fig. 6(b): ring (Chord) failed paths, analysis + simulation.
    Fig6b {
        /// Identifier length for the analytical curves.
        analytical_bits: u32,
        /// Identifier length for the simulated overlay.
        simulation_bits: u32,
        /// Source/destination pairs per grid point.
        pairs: u64,
        /// Failure-probability grid.
        grid: Vec<f64>,
    },
    /// Fig. 7(a): asymptotic failed paths for all five geometries.
    Fig7a {
        /// Identifier length of the asymptotic panel.
        asymptotic_bits: u32,
        /// Failure-probability grid.
        grid: Vec<f64>,
        /// Failure probability of the size sweep (unused by this panel but
        /// part of the shared Fig. 7 configuration).
        fixed_failure_probability: f64,
        /// Identifier lengths of the size sweep (unused by this panel).
        size_bits: Vec<u32>,
        /// Symphony near neighbours `k_n`.
        symphony_near_neighbors: u32,
        /// Symphony shortcuts `k_s`.
        symphony_shortcuts: u32,
    },
    /// Fig. 7(b): routability vs system size at fixed `q`.
    Fig7b {
        /// Identifier length of the asymptotic panel (unused by this panel).
        asymptotic_bits: u32,
        /// Failure-probability grid (unused by this panel).
        grid: Vec<f64>,
        /// Failure probability of the size sweep.
        fixed_failure_probability: f64,
        /// Identifier lengths of the size sweep.
        size_bits: Vec<u32>,
        /// Symphony near neighbours `k_n`.
        symphony_near_neighbors: u32,
        /// Symphony shortcuts `k_s`.
        symphony_shortcuts: u32,
    },
    /// The §5 scalability classification table.
    ScalabilityTable {
        /// Failure probabilities to probe numerically.
        failure_probabilities: Vec<f64>,
    },
    /// Closed forms vs the routing Markov chains of Fig. 4, 5, 8.
    MarkovValidation {
        /// Largest hop/phase distance checked.
        max_distance: u32,
        /// Failure-probability grid.
        grid: Vec<f64>,
    },
    /// The §1 connected-vs-reachable component contrast.
    PercolationContrast {
        /// Identifier length.
        bits: u32,
        /// Failure probability applied.
        failure_probability: f64,
        /// Surviving roots examined per geometry.
        roots: u32,
    },
    /// Symphony `(k_n, k_s)` routability ablation.
    SymphonyAblation {
        /// Identifier lengths to sweep.
        bits_list: Vec<u32>,
        /// Failure probability.
        failure_probability: f64,
        /// Largest `k_n` and `k_s` swept (grid is `1..=max` squared).
        max_connections: u32,
    },
    /// Tightness of the Chord lower bound (Fig. 6(b) discussion).
    RingBoundGap {
        /// Identifier length for the analytical curves.
        analytical_bits: u32,
        /// Identifier length for the simulated overlay.
        simulation_bits: u32,
        /// Source/destination pairs per grid point.
        pairs: u64,
        /// Failure-probability grid.
        grid: Vec<f64>,
    },
    /// Static resilience over a sparsely occupied identifier space.
    SparsePopulation {
        /// Identifier length `d` of the space.
        bits: u32,
        /// Occupied identifiers (`n <= 2^d`).
        occupied: u64,
        /// Also measure the fully populated baseline.
        include_full_baseline: bool,
        /// Source/destination pairs per grid point.
        pairs: u64,
        /// Failure-probability grid.
        grid: Vec<f64>,
    },
    /// Continuous-time churn with frozen vs repaired overlays.
    LiveChurn {
        /// Identifier length (full population).
        bits: u32,
        /// Mean session times `E[L]` to sweep.
        session_times: Vec<f64>,
        /// Poisson lookup rates to sweep.
        lookup_rates: Vec<f64>,
        /// Mean offline time `E[D]`.
        mean_downtime: f64,
        /// Simulated horizon per replica.
        duration: f64,
        /// Measurement-window start.
        warmup: f64,
        /// Independent replicas per point.
        replicas: u32,
    },
    /// Structured fault-injection campaigns: geometry × plan ×
    /// failed-fraction grid with graceful-degradation reporting.
    FailureCampaign {
        /// Identifier length (full population).
        bits: u32,
        /// Geometries to sweep.
        geometries: Vec<String>,
        /// Plan templates (fractions re-targeted by the grid).
        plans: Vec<FailurePlan>,
        /// Target failed fractions to sweep each plan across.
        failed_fractions: Vec<f64>,
        /// Source/destination pairs per failure pattern.
        pairs: u64,
        /// Independent failure patterns per grid point.
        patterns: u32,
    },
    /// One geometry's static resilience + scalability report — the report
    /// server's query family ("N, geometry, q → resilience report").
    StaticResilience {
        /// Geometry name (`ring`, `xor`, `tree`, `hypercube`, `symphony`).
        geometry: String,
        /// Identifier length (full population, `N = 2^bits`).
        bits: u32,
        /// Failure-probability grid.
        grid: Vec<f64>,
        /// Source/destination pairs per grid point.
        pairs: u64,
        /// Independent failure patterns averaged per grid point.
        trials: u32,
    },
    /// Static resilience beyond the materialized ceiling: the implicit
    /// backend at sizes up to `2^30` nodes, with resident-memory accounting.
    ImplicitScale {
        /// Geometry name (`ring`, `xor`, `tree`, `hypercube`, `symphony`).
        geometry: String,
        /// Identifier lengths to sweep (full populations).
        bits_list: Vec<u32>,
        /// Node failure probability applied at every size.
        failure_probability: f64,
        /// Survivor pairs routed per size.
        pairs: u64,
    },
}

/// The experiment families, used to key specs and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Family {
    Fig3,
    Fig6a,
    Fig6b,
    Fig7a,
    Fig7b,
    ScalabilityTable,
    MarkovValidation,
    PercolationContrast,
    SymphonyAblation,
    RingBoundGap,
    SparsePopulation,
    LiveChurn,
    FailureCampaign,
    StaticResilience,
    ImplicitScale,
}

/// All families, in the order the docs list them.
pub const FAMILIES: [Family; 15] = [
    Family::Fig3,
    Family::Fig6a,
    Family::Fig6b,
    Family::Fig7a,
    Family::Fig7b,
    Family::ScalabilityTable,
    Family::MarkovValidation,
    Family::PercolationContrast,
    Family::SymphonyAblation,
    Family::RingBoundGap,
    Family::SparsePopulation,
    Family::LiveChurn,
    Family::FailureCampaign,
    Family::StaticResilience,
    Family::ImplicitScale,
];

impl Family {
    /// Stable snake_case name (used in report envelopes and file stems).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Fig3 => "fig3",
            Family::Fig6a => "fig6a",
            Family::Fig6b => "fig6b",
            Family::Fig7a => "fig7a",
            Family::Fig7b => "fig7b",
            Family::ScalabilityTable => "scalability_table",
            Family::MarkovValidation => "markov_validation",
            Family::PercolationContrast => "percolation_contrast",
            Family::SymphonyAblation => "symphony_ablation",
            Family::RingBoundGap => "ring_bound_gap",
            Family::SparsePopulation => "sparse_population",
            Family::LiveChurn => "live_churn",
            Family::FailureCampaign => "failure_campaigns",
            Family::StaticResilience => "static_resilience",
            Family::ImplicitScale => "implicit_scale",
        }
    }

    /// The name of the family's default spec, and so its report file stem.
    #[must_use]
    pub fn output_stem(self) -> &'static str {
        match self {
            Family::Fig3 => "fig3_hypercube_example",
            Family::Fig6a => "fig6a_failed_paths",
            Family::Fig6b => "fig6b_ring",
            Family::Fig7a => "fig7a_asymptotic",
            Family::Fig7b => "fig7b_routability_vs_n",
            other => other.name(),
        }
    }

    /// The canonical spec of this family: the paper-scale configuration, or
    /// the reduced smoke configuration (seconds, not minutes) that
    /// `scenario init` writes and CI runs.
    #[must_use]
    pub fn default_spec(self, smoke: bool) -> ScenarioSpec {
        // (root seed, execution thread budget, experiment); families without
        // a thread budget get no execution block.
        let (seed, threads, experiment) = match self {
            Family::Fig3 => (
                2006,
                None,
                ExperimentSpec::Fig3 {
                    failure_probability: 0.3,
                    trials: if smoke { 20_000 } else { 200_000 },
                },
            ),
            Family::Fig6a | Family::Fig6b | Family::RingBoundGap => {
                // Paper scale: analytical and simulated at 2^16, failure
                // probabilities 0–90% in 5% steps. Smoke: simulated at 2^10.
                let analytical_bits = 16;
                let simulation_bits = if smoke { 10 } else { 16 };
                let pairs = if smoke { 2_000 } else { 20_000 };
                let grid = if smoke {
                    percent_grid(80, 20)
                } else {
                    percent_grid(90, 5)
                };
                let experiment = match self {
                    Family::Fig6a => ExperimentSpec::Fig6a {
                        analytical_bits,
                        simulation_bits,
                        pairs,
                        grid,
                    },
                    Family::Fig6b => ExperimentSpec::Fig6b {
                        analytical_bits,
                        simulation_bits,
                        pairs,
                        grid,
                    },
                    _ => ExperimentSpec::RingBoundGap {
                        analytical_bits,
                        simulation_bits,
                        pairs,
                        grid,
                    },
                };
                (2006, Some(if smoke { 1 } else { 4 }), experiment)
            }
            Family::Fig7a | Family::Fig7b => {
                // N = 2^100 for panel (a); panel (b) sweeps N = 2^10 … 2^34
                // (roughly 10^3 … 10^10) at the paper's q = 0.1, with
                // Symphony at the paper's k_n = k_s = 1. Purely analytical:
                // no randomness, no thread budget.
                let asymptotic_bits = 100;
                let grid = if smoke {
                    percent_grid(80, 20)
                } else {
                    percent_grid(90, 5)
                };
                let fixed_failure_probability = 0.1;
                let size_bits = if smoke {
                    vec![10, 16, 22, 28, 34]
                } else {
                    (10..=34).step_by(2).collect()
                };
                let (symphony_near_neighbors, symphony_shortcuts) = (1, 1);
                let experiment = if self == Family::Fig7a {
                    ExperimentSpec::Fig7a {
                        asymptotic_bits,
                        grid,
                        fixed_failure_probability,
                        size_bits,
                        symphony_near_neighbors,
                        symphony_shortcuts,
                    }
                } else {
                    ExperimentSpec::Fig7b {
                        asymptotic_bits,
                        grid,
                        fixed_failure_probability,
                        size_bits,
                        symphony_near_neighbors,
                        symphony_shortcuts,
                    }
                };
                (0, None, experiment)
            }
            Family::ScalabilityTable => (
                2006,
                None,
                ExperimentSpec::ScalabilityTable {
                    failure_probabilities: vec![0.05, 0.1, 0.3, 0.5],
                },
            ),
            Family::MarkovValidation => (
                2006,
                None,
                ExperimentSpec::MarkovValidation {
                    max_distance: if smoke { 8 } else { 16 },
                    grid: vec![0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9],
                },
            ),
            Family::PercolationContrast => (
                2006,
                None,
                ExperimentSpec::PercolationContrast {
                    bits: if smoke { 9 } else { 12 },
                    failure_probability: 0.3,
                    roots: if smoke { 10 } else { 32 },
                },
            ),
            Family::SymphonyAblation => (
                2006,
                None,
                ExperimentSpec::SymphonyAblation {
                    bits_list: if smoke {
                        vec![12, 16]
                    } else {
                        vec![16, 20, 24]
                    },
                    failure_probability: 0.2,
                    max_connections: if smoke { 4 } else { 8 },
                },
            ),
            // Paper scale: a 2^20 space, 2^18 occupied: 25% occupancy,
            // failure probabilities 0–50% in 10% steps. Smoke: 2^8 of 2^10
            // plus the full baseline (milliseconds, not minutes).
            Family::SparsePopulation => (
                2006,
                Some(if smoke { 1 } else { 4 }),
                ExperimentSpec::SparsePopulation {
                    bits: if smoke { 10 } else { 20 },
                    occupied: if smoke { 1 << 8 } else { 1 << 18 },
                    include_full_baseline: smoke,
                    pairs: if smoke { 1_500 } else { 20_000 },
                    grid: if smoke {
                        vec![0.0, 0.2, 0.4]
                    } else {
                        percent_grid(50, 10)
                    },
                },
            ),
            // Paper scale: N = 2^10, three churn intensities crossed with two
            // traffic rates over a longer horizon. Smoke: one point per axis
            // on a small ring.
            Family::LiveChurn => (
                29,
                Some(if smoke { 2 } else { 8 }),
                ExperimentSpec::LiveChurn {
                    bits: if smoke { 6 } else { 10 },
                    session_times: if smoke {
                        vec![2.0]
                    } else {
                        vec![1.0, 2.0, 4.0]
                    },
                    lookup_rates: if smoke {
                        vec![150.0]
                    } else {
                        vec![100.0, 400.0]
                    },
                    mean_downtime: 0.5,
                    duration: if smoke { 12.0 } else { 30.0 },
                    warmup: if smoke { 4.0 } else { 10.0 },
                    replicas: if smoke { 2 } else { 4 },
                },
            ),
            // Paper scale: all five geometries at N = 2^12, a five-point
            // failed-fraction axis, Fig. 6's pair budget. Smoke: ring and
            // XOR at N = 2^8, two fractions. Both sweep every plan shape.
            Family::FailureCampaign => (
                2006,
                Some(if smoke { 2 } else { 8 }),
                ExperimentSpec::FailureCampaign {
                    bits: if smoke { 8 } else { 12 },
                    geometries: if smoke {
                        &GEOMETRIES[..2]
                    } else {
                        &GEOMETRIES[..]
                    }
                    .iter()
                    .map(|&geometry| geometry.to_owned())
                    .collect(),
                    plans: default_plan_templates(),
                    failed_fractions: if smoke {
                        vec![0.2, 0.4]
                    } else {
                        vec![0.1, 0.2, 0.3, 0.4, 0.5]
                    },
                    pairs: if smoke { 1_500 } else { 20_000 },
                    patterns: if smoke { 2 } else { 3 },
                },
            ),
            Family::StaticResilience => (
                2006,
                None,
                ExperimentSpec::StaticResilience {
                    geometry: "ring".to_owned(),
                    bits: if smoke { 10 } else { 16 },
                    grid: percent_grid(if smoke { 80 } else { 90 }, if smoke { 20 } else { 5 }),
                    pairs: if smoke { 2_000 } else { 20_000 },
                    trials: 1,
                },
            ),
            // Paper scale: 2^26–2^30, all beyond the materialized ceiling.
            // Smoke: sizes a debug build routes in seconds.
            Family::ImplicitScale => (
                2006,
                Some(if smoke { 4 } else { 8 }),
                ExperimentSpec::ImplicitScale {
                    geometry: "ring".to_owned(),
                    bits_list: if smoke {
                        vec![14, 16]
                    } else {
                        vec![26, 28, 30]
                    },
                    failure_probability: 0.1,
                    pairs: if smoke { 2_000 } else { 100_000 },
                },
            ),
        };
        let backend = if self == Family::ImplicitScale {
            Backend::Implicit
        } else {
            Backend::Materialized
        };
        ScenarioSpec {
            execution: threads.map(|threads| ExecutionSpec { threads, backend }),
            ..ScenarioSpec::new(self.output_stem(), seed, experiment)
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ExperimentSpec {
    /// The family this experiment belongs to.
    #[must_use]
    pub fn family(&self) -> Family {
        match self {
            ExperimentSpec::Fig3 { .. } => Family::Fig3,
            ExperimentSpec::Fig6a { .. } => Family::Fig6a,
            ExperimentSpec::Fig6b { .. } => Family::Fig6b,
            ExperimentSpec::Fig7a { .. } => Family::Fig7a,
            ExperimentSpec::Fig7b { .. } => Family::Fig7b,
            ExperimentSpec::ScalabilityTable { .. } => Family::ScalabilityTable,
            ExperimentSpec::MarkovValidation { .. } => Family::MarkovValidation,
            ExperimentSpec::PercolationContrast { .. } => Family::PercolationContrast,
            ExperimentSpec::SymphonyAblation { .. } => Family::SymphonyAblation,
            ExperimentSpec::RingBoundGap { .. } => Family::RingBoundGap,
            ExperimentSpec::SparsePopulation { .. } => Family::SparsePopulation,
            ExperimentSpec::LiveChurn { .. } => Family::LiveChurn,
            ExperimentSpec::FailureCampaign { .. } => Family::FailureCampaign,
            ExperimentSpec::StaticResilience { .. } => Family::StaticResilience,
            ExperimentSpec::ImplicitScale { .. } => Family::ImplicitScale,
        }
    }
}

impl ScenarioSpec {
    /// Creates a spec with the current schema tag and no execution block.
    #[must_use]
    pub fn new(name: impl Into<String>, seed: u64, experiment: ExperimentSpec) -> Self {
        ScenarioSpec {
            schema: SPEC_SCHEMA.to_owned(),
            name: name.into(),
            seed,
            experiment,
            execution: None,
        }
    }

    /// The canonical static-resilience query spec the report server answers:
    /// geometry, size and failure probability, with explicit measurement
    /// budget. Identical queries produce identical specs — and therefore
    /// identical content hashes — which is what makes them cacheable.
    #[must_use]
    pub fn static_resilience(
        geometry: &str,
        bits: u32,
        failure_probability: f64,
        pairs: u64,
        trials: u32,
        seed: u64,
    ) -> Self {
        ScenarioSpec::new(
            format!("{geometry}_2e{bits}_q{failure_probability}"),
            seed,
            ExperimentSpec::StaticResilience {
                geometry: geometry.to_owned(),
                bits,
                grid: vec![failure_probability],
                pairs,
                trials,
            },
        )
    }

    /// The spec's experiment family.
    #[must_use]
    pub fn family(&self) -> Family {
        self.experiment.family()
    }

    /// The effective thread budget: the execution block's, or 1.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.execution
            .as_ref()
            .map_or(1, |execution| execution.threads.max(1))
    }

    /// The effective routing-table backend: the execution block's, or
    /// [`Backend::Materialized`].
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.execution
            .as_ref()
            .map_or(Backend::Materialized, |execution| execution.backend)
    }

    /// Checks the schema tag and basic well-formedness.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] on an unknown schema tag or an empty
    /// name.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.schema != SPEC_SCHEMA {
            return Err(SpecError::Invalid(format!(
                "unsupported spec schema {:?} (this build reads {SPEC_SCHEMA:?})",
                self.schema
            )));
        }
        if self.name.is_empty() {
            return Err(SpecError::Invalid("spec name must not be empty".to_owned()));
        }
        Ok(())
    }

    /// Parses and validates a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] on malformed JSON and
    /// [`SpecError::Invalid`] on schema mismatches.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let spec: ScenarioSpec =
            serde_json::from_str(text).map_err(|err| SpecError::Parse(err.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Pretty-printed JSON form (the spec-file format).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization is infallible")
    }

    /// Compact JSON form (the wire format).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("spec serialization is infallible")
    }

    /// Stable 64-bit content hash (FNV-1a over canonical JSON).
    ///
    /// Canonicalization sorts object keys recursively, so field order never
    /// matters, and drops the top-level `name` and `execution` entries: the
    /// label is presentation, and thread budgets cannot change results
    /// (every engine is thread-count invariant), so neither may change the
    /// cache key. The `schema` tag *is* hashed — a schema bump invalidates
    /// every cache.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut value = self.to_value();
        if let Value::Object(entries) = &mut value {
            entries.retain(|(key, _)| key != "name" && key != "execution");
        }
        let canonical = canonicalize(&value);
        let json =
            serde_json::to_string(&canonical).expect("canonical JSON serialization is infallible");
        fnv1a64(json.as_bytes())
    }

    /// [`ScenarioSpec::content_hash`] as a fixed-width hex string.
    #[must_use]
    pub fn content_hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash())
    }
}

/// Recursively sorts object keys so structurally equal values serialize to
/// byte-equal JSON.
fn canonicalize(value: &Value) -> Value {
    match value {
        Value::Array(items) => Value::Array(items.iter().map(canonicalize).collect()),
        Value::Object(entries) => {
            let mut entries: Vec<(String, Value)> = entries
                .iter()
                .map(|(key, item)| (key.clone(), canonicalize(item)))
                .collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(entries)
        }
        other => other.clone(),
    }
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors from parsing, validating or running a spec.
#[derive(Debug)]
pub enum SpecError {
    /// The JSON text could not be parsed into a spec.
    Parse(String),
    /// The spec is well-formed JSON but semantically invalid.
    Invalid(String),
    /// Filesystem I/O failed.
    Io(String),
    /// Analytical evaluation failed.
    Rcm(RcmError),
    /// Overlay construction failed.
    Overlay(OverlayError),
    /// Simulation failed.
    Sim(SimError),
    /// A Markov chain could not be built or solved.
    Chain(ChainError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(message) => write!(f, "spec parse failed: {message}"),
            SpecError::Invalid(message) => write!(f, "invalid spec: {message}"),
            SpecError::Io(message) => write!(f, "spec I/O failed: {message}"),
            SpecError::Rcm(err) => write!(f, "analytical evaluation failed: {err}"),
            SpecError::Overlay(err) => write!(f, "overlay construction failed: {err}"),
            SpecError::Sim(err) => write!(f, "simulation failed: {err}"),
            SpecError::Chain(err) => write!(f, "chain evaluation failed: {err}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<RcmError> for SpecError {
    fn from(err: RcmError) -> Self {
        SpecError::Rcm(err)
    }
}
impl From<OverlayError> for SpecError {
    fn from(err: OverlayError) -> Self {
        SpecError::Overlay(err)
    }
}
impl From<SimError> for SpecError {
    fn from(err: SimError) -> Self {
        SpecError::Sim(err)
    }
}
impl From<ChainError> for SpecError {
    fn from(err: ChainError) -> Self {
        SpecError::Chain(err)
    }
}
impl From<std::io::Error> for SpecError {
    fn from(err: std::io::Error) -> Self {
        SpecError::Io(err.to_string())
    }
}

// ---------------------------------------------------------------------------
// Reports and execution
// ---------------------------------------------------------------------------

/// The schema-versioned envelope every spec run produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Report schema tag ([`REPORT_SCHEMA`]).
    pub schema: String,
    /// The spec's name label.
    pub name: String,
    /// The spec's family name.
    pub family: String,
    /// The spec's canonical content hash (hex) — the cache key.
    pub spec_hash: String,
    /// The spec's root seed.
    pub seed: u64,
    /// The family-specific result payload.
    pub payload: Value,
}

/// Everything one spec run yields: the report envelope plus the
/// presentation `scenario run` prints.
#[derive(Debug, Clone)]
pub struct SpecOutcome {
    /// The serializable report.
    pub report: ScenarioReport,
    /// One-line summary (printed above the table).
    pub headline: String,
    /// Fixed-width result table.
    pub table: String,
    /// Records for the families whose reports come with a CSV.
    pub csv_records: Option<Vec<SimulationRecord>>,
}

/// Executes a spec. `threads_override` (the `--threads` flag or a server's
/// budget) takes precedence over the spec's execution block; results are
/// identical either way — thread budgets only change wall-clock time.
///
/// # Errors
///
/// Returns [`SpecError`] if the spec is invalid or any harness fails.
pub fn run_spec(
    spec: &ScenarioSpec,
    threads_override: Option<usize>,
) -> Result<SpecOutcome, SpecError> {
    spec.validate()?;
    let threads = threads_override.unwrap_or_else(|| spec.threads()).max(1);
    let family = spec.family();
    let (payload, headline, table, csv_records) = match &spec.experiment {
        ExperimentSpec::Fig3 {
            failure_probability,
            trials,
        } => {
            let result = fig3::run(*failure_probability, *trials, spec.seed)?;
            let headline =
                format!("Fig. 3 worked example (d = 3 hypercube, q = {failure_probability})");
            let table = render_fig3_table(&result);
            (result.to_value(), headline, table, None)
        }
        ExperimentSpec::Fig6a {
            analytical_bits,
            simulation_bits,
            pairs,
            grid,
        } => {
            let records = fig6a(
                *analytical_bits,
                *simulation_bits,
                *pairs,
                grid,
                spec.seed,
                threads,
            )?;
            let headline = format!(
                "Fig. 6(a): percent of failed paths, N = 2^{analytical_bits} (simulation at 2^{simulation_bits})"
            );
            let table = render_records_table(&records);
            (records.to_value(), headline, table, Some(records))
        }
        ExperimentSpec::Fig6b {
            analytical_bits,
            simulation_bits,
            pairs,
            grid,
        } => {
            let records = fig6b(
                *analytical_bits,
                *simulation_bits,
                *pairs,
                grid,
                spec.seed,
                threads,
            )?;
            let headline = format!(
                "Fig. 6(b): percent of failed paths for ring routing, N = 2^{analytical_bits}"
            );
            let table = render_records_table(&records);
            (records.to_value(), headline, table, Some(records))
        }
        // Each Fig. 7 panel ignores the other panel's fields.
        ExperimentSpec::Fig7a {
            asymptotic_bits,
            grid,
            symphony_near_neighbors,
            symphony_shortcuts,
            ..
        } => {
            let records = fig7a(
                *asymptotic_bits,
                grid,
                *symphony_near_neighbors,
                *symphony_shortcuts,
            )?;
            let headline = format!(
                "Fig. 7(a): percent of failed paths in the asymptotic limit (N = 2^{asymptotic_bits})"
            );
            let table = render_records_table(&records);
            (records.to_value(), headline, table, Some(records))
        }
        ExperimentSpec::Fig7b {
            fixed_failure_probability,
            size_bits,
            symphony_near_neighbors,
            symphony_shortcuts,
            ..
        } => {
            let points = fig7b(
                *fixed_failure_probability,
                size_bits,
                *symphony_near_neighbors,
                *symphony_shortcuts,
            )?;
            let headline = format!(
                "Fig. 7(b): routability (%) vs system size at q = {fixed_failure_probability}"
            );
            let table = render_fig7b_table(&points);
            (points.to_value(), headline, table, None)
        }
        ExperimentSpec::ScalabilityTable {
            failure_probabilities,
        } => {
            let rows = scalability_table::run(failure_probabilities)?;
            let headline =
                "Scalability of DHT routing geometries under random failure (Section 5)".to_owned();
            let table = scalability_table::render(&rows);
            (rows.to_value(), headline, table, None)
        }
        ExperimentSpec::MarkovValidation { max_distance, grid } => {
            let rows = markov_validation::run(*max_distance, grid)?;
            let headline = "Closed-form p(h,q) vs Markov-chain absorption probability".to_owned();
            let table = render_validation_table(&rows);
            (rows.to_value(), headline, table, None)
        }
        ExperimentSpec::PercolationContrast {
            bits,
            failure_probability,
            roots,
        } => {
            let rows = percolation_contrast::run(*bits, *failure_probability, *roots, spec.seed)?;
            let headline = format!(
                "Connected vs reachable components at N = 2^{bits}, q = {failure_probability}"
            );
            let table = render_contrast_table(&rows);
            (rows.to_value(), headline, table, None)
        }
        ExperimentSpec::SymphonyAblation {
            bits_list,
            failure_probability,
            max_connections,
        } => {
            let cells = symphony_ablation::run(bits_list, *failure_probability, *max_connections)?;
            let headline =
                format!("Symphony routability (%) vs (k_n, k_s) at q = {failure_probability}");
            let table = render_ablation_table(&cells, bits_list, *max_connections);
            (cells.to_value(), headline, table, None)
        }
        ExperimentSpec::RingBoundGap {
            analytical_bits,
            simulation_bits,
            pairs,
            grid,
        } => {
            let points = ring_bound_gap::run(
                *analytical_bits,
                *simulation_bits,
                *pairs,
                grid,
                spec.seed,
                threads,
            )?;
            let headline =
                "Chord bound slack (analytical failed % minus simulated failed %)".to_owned();
            let table = render_bound_gap_table(&points);
            (points.to_value(), headline, table, None)
        }
        ExperimentSpec::SparsePopulation {
            bits,
            occupied,
            include_full_baseline,
            pairs,
            grid,
        } => {
            let records = sparse_population_resilience(
                *bits,
                *occupied,
                *include_full_baseline,
                *pairs,
                grid,
                spec.seed,
                threads,
            )?;
            let headline = format!(
                "Sparse-population static resilience: 2^{bits} identifier space, {occupied} occupied nodes ({:.0}% occupancy)",
                100.0 * *occupied as f64 / (1u64 << bits) as f64,
            );
            let table = render_sparse_table(&records);
            (records.to_value(), headline, table, None)
        }
        ExperimentSpec::LiveChurn {
            bits,
            session_times,
            lookup_rates,
            mean_downtime,
            duration,
            warmup,
            replicas,
        } => {
            let points = crate::live_churn::run_grid(
                *bits,
                session_times,
                lookup_rates,
                *mean_downtime,
                *duration,
                *warmup,
                *replicas,
                spec.seed,
                threads,
            )?;
            let headline = format!(
                "Live churn: N = 2^{bits}, downtime E[D] = {mean_downtime}, horizon {duration} (warmup {warmup}), {replicas} replicas"
            );
            let table = render_live_churn_table(&points);
            (points.to_value(), headline, table, None)
        }
        ExperimentSpec::FailureCampaign {
            bits,
            geometries,
            plans,
            failed_fractions,
            pairs,
            patterns,
        } => {
            let points = crate::failure_campaigns::run_grid(
                *bits,
                geometries,
                plans,
                failed_fractions,
                *pairs,
                *patterns,
                spec.seed,
                threads,
            )?;
            let headline = format!(
                "Failure campaigns: N = 2^{bits}, {} geometries x {} plans x {} fractions",
                geometries.len(),
                plans.len(),
                failed_fractions.len()
            );
            let table = render_failure_campaign_table(&points);
            (points.to_value(), headline, table, None)
        }
        ExperimentSpec::ImplicitScale {
            geometry,
            bits_list,
            failure_probability,
            pairs,
        } => {
            let points = crate::implicit_scale::run(
                geometry,
                bits_list,
                *failure_probability,
                *pairs,
                spec.seed,
                threads,
            )?;
            let sizes = bits_list
                .iter()
                .map(|bits| format!("2^{bits}"))
                .collect::<Vec<_>>()
                .join(", ");
            let headline = format!(
                "Implicit-table static resilience: {geometry} at q = {failure_probability}, sizes {sizes}"
            );
            let table = render_implicit_scale_table(&points);
            (points.to_value(), headline, table, None)
        }
        ExperimentSpec::StaticResilience {
            geometry,
            bits,
            grid,
            pairs,
            trials,
        } => {
            let stream_seed = SeedSequence::new(spec.seed).child(0);
            let overlay = build_overlay(geometry, *bits, stream_seed, spec.backend(), threads)?;
            let report = static_resilience_report_with(
                geometry,
                *bits,
                grid,
                *pairs,
                *trials,
                spec.seed,
                threads,
                overlay.as_ref(),
                direct_chain_solve,
            )?;
            let headline = format!("Static resilience + scalability: {geometry} at N = 2^{bits}");
            let table = render_resilience_table(&report);
            (report.to_value(), headline, table, None)
        }
    };
    Ok(SpecOutcome {
        report: ScenarioReport {
            schema: REPORT_SCHEMA.to_owned(),
            name: spec.name.clone(),
            family: family.name().to_owned(),
            spec_hash: spec.content_hash_hex(),
            seed: spec.seed,
            payload,
        },
        headline,
        table,
        csv_records,
    })
}

// ---------------------------------------------------------------------------
// The static-resilience report family (the server's query shape)
// ---------------------------------------------------------------------------

/// One grid point of a [`StaticResilienceReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResiliencePoint {
    /// Failure probability of this point.
    pub failure_probability: f64,
    /// Closed-form routability (`None` if the system degenerates there).
    pub analytical_routability: Option<f64>,
    /// Closed-form failed-path percentage.
    pub analytical_failed_percent: Option<f64>,
    /// Markov-chain-predicted routability (`None` for symphony).
    pub chain_predicted_routability: Option<f64>,
    /// The measured result on the executable overlay.
    pub simulated: StaticResilienceResult,
}

/// The "N, geometry, q → resilience + scalability" report the server
/// materializes per query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticResilienceReport {
    /// Geometry name.
    pub geometry: String,
    /// Identifier length (`N = 2^bits`).
    pub bits: u32,
    /// One point per grid failure probability.
    pub points: Vec<ResiliencePoint>,
    /// The §5 scalability classification at the first positive grid `q`
    /// (or `q = 0.1` when the grid has none).
    pub scalability: ScalabilityReport,
}

/// Builds the overlay of a geometry name over the full `bits`-bit
/// population on `backend`, from the construction stream `stream_seed`
/// (`SeedSequence` child 0 of a spec's seed — see the module docs). Symphony
/// uses the paper's basic `(k_n, k_s) = (1, 1)` parameters.
///
/// This is the one geometry-name → overlay map. Neither backend builds a
/// table up front, and both replay the same stream, so they route bit for
/// bit alike. A materialized overlay ([`GeometryOverlay::seeded`]) compiles
/// its plan from the stream on `threads` threads on its first
/// [`Overlay::kernel`] call — the ring and the hypercube route in closed
/// form and compile nothing — and replays its `NodeId` arena only when a
/// scalar caller reads it. An implicit overlay regenerates rows on demand
/// and ignores `threads`.
///
/// # Errors
///
/// Returns [`SpecError::Overlay`] if construction fails (e.g.
/// [`OverlayError::UnsupportedBits`] beyond the backend's ceiling). An
/// unknown geometry name is [`SpecError::Invalid`] on the materialized
/// backend and an [`OverlayError::InvalidParameter`] on the implicit one,
/// as [`build_full_overlay`] and [`build_implicit_overlay`] report it.
///
/// [`build_implicit_overlay`]: crate::implicit_scale::build_implicit_overlay
pub fn build_overlay(
    geometry: &str,
    bits: u32,
    stream_seed: u64,
    backend: Backend,
    threads: usize,
) -> Result<Box<dyn Overlay>, SpecError> {
    fn build<S: GeometryStrategy + Clone + 'static>(
        strategy: S,
        (bits, stream_seed, backend, threads): (u32, u64, Backend, usize),
    ) -> Result<Box<dyn Overlay>, OverlayError> {
        Ok(match backend {
            Backend::Materialized => Box::new(GeometryOverlay::seeded(
                bits,
                strategy,
                stream_seed,
                threads,
            )?),
            Backend::Implicit => Box::new(ImplicitOverlay::over(bits, strategy, stream_seed)?),
        })
    }
    let args = (bits, stream_seed, backend, threads);
    let built = match geometry {
        "ring" => build(ChordStrategy::new(ChordVariant::Deterministic), args),
        "xor" => build(KademliaStrategy, args),
        "tree" => build(PlaxtonStrategy, args),
        "hypercube" => build(CanStrategy, args),
        "symphony" => build(SymphonyStrategy::new(1, 1), args),
        other => {
            let message = format!(
                "unknown geometry {other:?} (expected ring, xor, tree, hypercube or symphony)"
            );
            return Err(match backend {
                Backend::Materialized => SpecError::Invalid(message),
                Backend::Implicit => OverlayError::InvalidParameter { message }.into(),
            });
        }
    };
    Ok(built?)
}

/// [`build_overlay`] on the materialized backend from the root `seed`
/// (construction stream: `SeedSequence` child 0; child 1 is the measurement
/// root), compiling its plan on one thread.
///
/// # Errors
///
/// As [`build_overlay`]: [`SpecError::Invalid`] for unknown geometry names
/// and [`SpecError::Overlay`] if construction fails.
pub fn build_full_overlay(
    geometry: &str,
    bits: u32,
    seed: u64,
) -> Result<Box<dyn Overlay>, SpecError> {
    let stream_seed = SeedSequence::new(seed).child(0);
    build_overlay(geometry, bits, stream_seed, Backend::Materialized, 1)
}

/// The analytical geometry model matching an overlay geometry name
/// (symphony at the paper's `(1, 1)`).
fn analytic_geometry(name: &str) -> Result<Geometry, SpecError> {
    Ok(match name {
        "ring" => Geometry::ring(),
        "xor" => Geometry::xor(),
        "tree" => Geometry::tree(),
        "hypercube" => Geometry::hypercube(),
        "symphony" => Geometry::symphony(1, 1)?,
        other => return Err(SpecError::Invalid(format!("unknown geometry {other:?}"))),
    })
}

/// The direct (uncached) chain solve [`run_spec`] uses; the report server
/// substitutes a [`dht_markov::ChainCache`]-backed closure instead.
pub fn direct_chain_solve(family: ChainFamily, h: u32, q: f64) -> Result<f64, ChainError> {
    family.solve(h, q)
}

/// Materializes a [`StaticResilienceReport`]: closed forms, chain
/// predictions (through `solve`, so callers can inject a cache) and
/// measured resilience on `overlay` across the failure grid.
///
/// The overlay must match `geometry`/`bits`; callers that cache overlays
/// (the report server) pass the cached instance, everyone else builds one
/// with [`build_full_overlay`].
///
/// # Errors
///
/// Returns [`SpecError`] if any analytical, chain or simulation component
/// fails.
#[allow(clippy::too_many_arguments)]
pub fn static_resilience_report_with<F>(
    geometry: &str,
    bits: u32,
    grid: &[f64],
    pairs: u64,
    trials: u32,
    seed: u64,
    threads: usize,
    overlay: &dyn Overlay,
    mut solve: F,
) -> Result<StaticResilienceReport, SpecError>
where
    F: FnMut(ChainFamily, u32, f64) -> Result<f64, ChainError>,
{
    let model = analytic_geometry(geometry)?;
    let base = StaticResilienceConfig::new(0.0)?
        .with_pairs(pairs)
        .with_trials(trials)
        .with_seed(SeedSequence::new(seed).child(1))
        .with_threads(threads);
    let swept = sweep_failure_grid(overlay, &base, grid)?;
    let size = SystemSize::power_of_two(bits)?;
    let mut points = Vec::with_capacity(swept.len());
    for point in swept {
        let q = point.failure_probability;
        let analytical = match routability(&model, size, q) {
            Ok(report) => Some((report.routability, report.failed_path_percent)),
            Err(RcmError::DegenerateSystem { .. }) => None,
            Err(other) => return Err(other.into()),
        };
        let chain_predicted = chain_predicted_routability_with(geometry, bits, q, &mut solve)
            .map_err(SpecError::Chain)?;
        points.push(ResiliencePoint {
            failure_probability: q,
            analytical_routability: analytical.map(|(routable, _)| routable),
            analytical_failed_percent: analytical.map(|(_, failed)| failed),
            chain_predicted_routability: chain_predicted,
            simulated: point.result,
        });
    }
    let probe_q = grid.iter().copied().find(|&q| q > 0.0).unwrap_or(0.1);
    let scalability = classify(&model, probe_q)?;
    Ok(StaticResilienceReport {
        geometry: geometry.to_owned(),
        bits,
        points,
        scalability,
    })
}

// ---------------------------------------------------------------------------
// Table renderers
// ---------------------------------------------------------------------------

fn render_fig3_table(result: &fig3::Fig3Result) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>22} {:>12}",
        "h", "n(h)", "Pr(S_h -> S_h+1)", "p(h,q)"
    );
    for row in &result.rows {
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>22.6} {:>12.6}",
            row.hops, row.nodes_at_distance, row.transition_success, row.cumulative_success
        );
    }
    let _ = writeln!(
        out,
        "\nanalytical p(3, q) = {:.6}   simulated = {:.6}   ({} trials)",
        result.analytical_p3, result.simulated_p3, result.trials
    );
    out
}

fn render_fig7b_table(points: &[Fig7bPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>14}",
        "geometry", "bits", "routability %"
    );
    for point in points {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>14.4}",
            point.geometry, point.bits, point.routability_percent
        );
    }
    out
}

fn render_validation_table(rows: &[ValidationRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>8} {:>14} {:>14}",
        "geometry", "max h", "points", "max |err|", "mean |err|"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>8} {:>14.3e} {:>14.3e}",
            row.geometry,
            row.max_distance,
            row.points,
            row.max_absolute_error,
            row.mean_absolute_error
        );
    }
    out
}

fn render_contrast_table(rows: &[ContrastRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>8}",
        "geometry", "connected frac", "reachable frac", "gap"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>14.4} {:>14.4} {:>8.4}",
            row.geometry,
            row.mean_connected_fraction,
            row.mean_reachable_fraction,
            row.gap()
        );
    }
    out
}

fn render_bound_gap_table(points: &[BoundGapPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>14} {:>10}",
        "q", "analytical %", "simulated %", "slack"
    );
    for point in points {
        let _ = writeln!(
            out,
            "{:>6.2} {:>14.2} {:>14.2} {:>10.2}",
            point.failure_probability,
            point.analytical_failed_percent,
            point.simulated_failed_percent,
            point.slack
        );
    }
    out
}

fn render_ablation_table(
    cells: &[AblationCell],
    bits_list: &[u32],
    max_connections: u32,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for &bits in bits_list {
        let _ = writeln!(out, "\nN = 2^{bits}");
        let _ = write!(out, "{:>6}", "kn\\ks");
        for ks in 1..=max_connections {
            let _ = write!(out, "{ks:>8}");
        }
        let _ = writeln!(out);
        for kn in 1..=max_connections {
            let _ = write!(out, "{kn:>6}");
            for ks in 1..=max_connections {
                let cell = cells
                    .iter()
                    .find(|c| c.bits == bits && c.near_neighbors == kn && c.shortcuts == ks);
                match cell {
                    Some(cell) => {
                        let _ = write!(out, "{:>8.2}", cell.routability_percent);
                    }
                    None => {
                        let _ = write!(out, "{:>8}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        if let Some((kn, ks)) = symphony_ablation::minimum_configuration(cells, bits, 95.0) {
            let _ = writeln!(
                out,
                "smallest configuration reaching 95%: k_n = {kn}, k_s = {ks}"
            );
        }
    }
    out
}

fn render_resilience_table(report: &StaticResilienceReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>12} {:>10}",
        "q", "analytic %", "chain %", "simulated %", "mean hops"
    );
    let percent =
        |value: Option<f64>| value.map_or_else(|| "-".to_owned(), |v| format!("{:.2}", 100.0 * v));
    for point in &report.points {
        let _ = writeln!(
            out,
            "{:>6.2} {:>12} {:>12} {:>12.2} {:>10.2}",
            point.failure_probability,
            percent(point.analytical_routability),
            percent(point.chain_predicted_routability),
            100.0 * point.simulated.routability,
            point.simulated.mean_hops,
        );
    }
    let _ = writeln!(
        out,
        "scalability: analytic {} / numeric {:?} (lim p = {:.4})",
        report.scalability.analytic,
        report.scalability.numeric,
        report.scalability.limiting_success_probability
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_has_a_valid_default_spec_with_matching_family() {
        for family in FAMILIES {
            for smoke in [false, true] {
                let spec = family.default_spec(smoke);
                spec.validate().unwrap();
                assert_eq!(spec.family(), family, "{family}");
            }
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        for family in FAMILIES {
            let spec = family.default_spec(true);
            let json = spec.to_json_pretty();
            let back = ScenarioSpec::from_json(&json).unwrap();
            assert_eq!(back, spec, "{family}");
        }
    }

    #[test]
    fn hash_ignores_name_and_execution_but_not_parameters() {
        let spec = Family::Fig6a.default_spec(true);
        let mut renamed = spec.clone();
        renamed.name = "anything-else".to_owned();
        renamed.execution = Some(ExecutionSpec {
            threads: 64,
            backend: Backend::Implicit,
        });
        assert_eq!(spec.content_hash(), renamed.content_hash());

        let mut reseeded = spec.clone();
        reseeded.seed += 1;
        assert_ne!(spec.content_hash(), reseeded.content_hash());

        let mut regridded = spec.clone();
        if let ExperimentSpec::Fig6a { grid, .. } = &mut regridded.experiment {
            grid.push(0.85);
        }
        assert_ne!(spec.content_hash(), regridded.content_hash());
        assert_eq!(spec.content_hash_hex().len(), 16);
    }

    #[test]
    fn hash_is_stable_across_json_field_reordering() {
        let spec = Family::Fig3.default_spec(true);
        // Same spec, fields permuted by hand (and an execution block added).
        let reordered = format!(
            r#"{{
              "execution": {{"threads": 8}},
              "experiment": {{"Fig3": {{"trials": {trials}, "failure_probability": {q}}}}},
              "seed": {seed},
              "name": "renamed",
              "schema": "{schema}"
            }}"#,
            trials = 20_000,
            q = 0.3,
            seed = spec.seed,
            schema = SPEC_SCHEMA,
        );
        let parsed = ScenarioSpec::from_json(&reordered).unwrap();
        assert_eq!(parsed.content_hash(), spec.content_hash());
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut spec = Family::Fig3.default_spec(true);
        spec.schema = "dht-scenario/v0".to_owned();
        assert!(matches!(
            ScenarioSpec::from_json(&spec.to_json()),
            Err(SpecError::Invalid(_))
        ));
    }

    #[test]
    fn run_spec_scalability_table_produces_a_report_envelope() {
        let spec = Family::ScalabilityTable.default_spec(true);
        let outcome = run_spec(&spec, None).unwrap();
        assert_eq!(outcome.report.schema, REPORT_SCHEMA);
        assert_eq!(outcome.report.family, "scalability_table");
        assert_eq!(outcome.report.spec_hash, spec.content_hash_hex());
        assert!(outcome.table.contains("ring"));
        assert!(outcome.csv_records.is_none());
        assert!(matches!(outcome.report.payload, Value::Array(_)));
    }

    #[test]
    fn run_spec_fig3_matches_the_direct_harness() {
        let spec = ScenarioSpec::new(
            "fig3-test",
            5,
            ExperimentSpec::Fig3 {
                failure_probability: 0.2,
                trials: 2_000,
            },
        );
        let outcome = run_spec(&spec, None).unwrap();
        let direct = fig3::run(0.2, 2_000, 5).unwrap();
        assert_eq!(outcome.report.payload, direct.to_value());
    }

    #[test]
    fn run_spec_static_resilience_reports_all_three_views() {
        let spec = ScenarioSpec::static_resilience("ring", 8, 0.3, 800, 1, 11);
        let outcome = run_spec(&spec, None).unwrap();
        let report: StaticResilienceReport =
            Deserialize::from_value(&outcome.report.payload).unwrap();
        assert_eq!(report.points.len(), 1);
        let point = &report.points[0];
        assert!(point.analytical_routability.is_some());
        assert!(point.chain_predicted_routability.is_some());
        assert!(point.simulated.routability > 0.3);
        assert_eq!(report.scalability.geometry, "ring");
    }

    #[test]
    fn run_spec_is_thread_count_invariant() {
        let spec = ScenarioSpec::static_resilience("xor", 8, 0.2, 600, 1, 3);
        let one = run_spec(&spec, Some(1)).unwrap();
        let four = run_spec(&spec, Some(4)).unwrap();
        assert_eq!(one.report, four.report);
        let json_one = serde_json::to_string(&one.report).unwrap();
        let json_four = serde_json::to_string(&four.report).unwrap();
        assert_eq!(json_one, json_four, "reports must be byte-identical");
    }

    #[test]
    fn build_full_overlay_covers_all_five_geometries() {
        for geometry in ["ring", "xor", "tree", "hypercube", "symphony"] {
            let overlay = build_full_overlay(geometry, 6, 1).unwrap();
            assert_eq!(overlay.geometry_name(), geometry);
        }
        assert!(build_full_overlay("moebius", 6, 1).is_err());
    }

    #[test]
    fn built_materialized_overlays_hold_their_plans_and_no_arena() {
        for geometry in ["ring", "xor", "tree", "hypercube", "symphony"] {
            for threads in [1, 2] {
                let overlay =
                    build_overlay(geometry, 12, 7, Backend::Materialized, threads).unwrap();
                // Nothing is built before the kernel, and counting edges
                // builds nothing either.
                let width = if geometry == "symphony" { 2 } else { 12 };
                assert_eq!(overlay.edge_count(), (1 << 12) * width, "{geometry}");
                assert_eq!(overlay.resident_bytes(), 0, "{geometry}");
                let plan = overlay
                    .kernel()
                    .expect("every geometry has a kernel")
                    .plan_bytes();
                assert_eq!(
                    overlay.resident_bytes(),
                    plan,
                    "{geometry} on {threads} threads"
                );
                // The closed forms compile nothing at all.
                let closed = matches!(geometry, "ring" | "hypercube");
                assert_eq!(plan == 0, closed, "{geometry}");
            }
        }
    }

    #[test]
    fn builder_errors_keep_each_backends_variant() {
        let error = |geometry, bits, backend| {
            build_overlay(geometry, bits, 1, backend, 2)
                .err()
                .expect("the build fails")
        };
        let unknown = error("moebius", 6, Backend::Materialized);
        assert!(matches!(unknown, SpecError::Invalid(_)), "{unknown}");
        let unknown = error("moebius", 6, Backend::Implicit);
        assert!(
            matches!(
                unknown,
                SpecError::Overlay(OverlayError::InvalidParameter { .. })
            ),
            "{unknown}"
        );
        for (backend, bits, max_bits) in
            [(Backend::Materialized, 25, 24), (Backend::Implicit, 31, 30)]
        {
            let SpecError::Overlay(unsupported) = error("xor", bits, backend) else {
                panic!("{backend} at {bits} bits fails as an overlay error");
            };
            assert_eq!(
                unsupported,
                OverlayError::UnsupportedBits { bits, max_bits }
            );
        }
    }

    #[test]
    fn backend_serializes_lowercase_and_defaults_to_materialized() {
        let mut spec = Family::StaticResilience.default_spec(true);
        spec.execution = Some(ExecutionSpec {
            threads: 2,
            backend: Backend::Implicit,
        });
        let json = spec.to_json();
        assert!(json.contains("\"implicit\""), "{json}");
        assert_eq!(
            ScenarioSpec::from_json(&json).unwrap().backend(),
            Backend::Implicit
        );

        // Specs written before the field existed (no "backend" key) parse
        // as the materialized default.
        let legacy = format!(
            r#"{{"schema": "{SPEC_SCHEMA}", "name": "legacy", "seed": 1,
                "experiment": {{"ScalabilityTable": {{"failure_probabilities": [0.1]}}}},
                "execution": {{"threads": 2}}}}"#
        );
        let parsed = ScenarioSpec::from_json(&legacy).unwrap();
        assert_eq!(parsed.backend(), Backend::Materialized);
        assert_eq!(parsed.threads(), 2);

        let bogus = legacy.replace("\"threads\": 2", "\"threads\": 2, \"backend\": \"magic\"");
        assert!(matches!(
            ScenarioSpec::from_json(&bogus),
            Err(SpecError::Parse(_))
        ));
    }

    #[test]
    fn static_resilience_backends_produce_byte_identical_reports() {
        // Geometries whose construction draws randomness (xor) and whose
        // tables are closed-form (ring) both agree across the backends —
        // and the backend never enters the cache key.
        for geometry in ["ring", "xor"] {
            let mut spec = ScenarioSpec::static_resilience(geometry, 8, 0.25, 600, 1, 9);
            spec.execution = Some(ExecutionSpec {
                threads: 2,
                backend: Backend::Materialized,
            });
            let materialized = run_spec(&spec, None).unwrap();
            spec.execution = Some(ExecutionSpec {
                threads: 2,
                backend: Backend::Implicit,
            });
            let implicit = run_spec(&spec, None).unwrap();
            assert_eq!(
                serde_json::to_string(&materialized.report).unwrap(),
                serde_json::to_string(&implicit.report).unwrap(),
                "{geometry}: backends must be byte-identical"
            );
        }
    }

    #[test]
    fn run_spec_implicit_scale_reports_memory_accounting() {
        let mut spec = Family::ImplicitScale.default_spec(true);
        spec.experiment = ExperimentSpec::ImplicitScale {
            geometry: "ring".to_owned(),
            bits_list: vec![10],
            failure_probability: 0.1,
            pairs: 400,
        };
        let outcome = run_spec(&spec, None).unwrap();
        assert_eq!(outcome.report.family, "implicit_scale");
        assert!(outcome.headline.contains("2^10"));
        assert!(outcome.table.contains("mask bytes"));
        let points: Vec<crate::implicit_scale::ImplicitScalePoint> =
            Deserialize::from_value(&outcome.report.payload).unwrap();
        assert_eq!(points.len(), 1);
        assert!(points[0].overlay_resident_bytes < 1024);
    }
}
