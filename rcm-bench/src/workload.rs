//! The four workloads: what each one runs, generated from the seed alone.
//!
//! Every input — spec files and the server's query stream — is a pure
//! function of `(workload, seed, scale)`, so two runs with the same seed
//! measure the same work and must produce the same reports.

use dht_experiments::spec::{Backend, ExecutionSpec, ExperimentSpec, Family, ScenarioSpec};
use dht_scenario::Query;
use dht_sim::SeedSequence;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// The thread budget of every untraced run: the benchmark host has two
/// cores, and no workload keeps more than two threads busy.
pub const THREADS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6 static resilience at 2^20 for all five geometries, through the
    /// batch runner: DRAM-bound routing, every pass builds and compiles.
    PaperBatch,
    /// A closed-loop client on one TCP connection to an in-process report
    /// server: memo hits, overlay/chain cache reuse, L3-resident routing.
    QueryMix,
    /// The implicit backend at 2^24–2^28: compute-bound row regeneration
    /// and space-sized failure masks, no build or compile.
    ImplicitScale,
    /// Failure campaigns, live churn and sparse populations: plan lowering,
    /// in-place row repair and rank-compressed mask lowering.
    FaultsChurn,
}

impl Workload {
    /// All workloads, in the order `rcm-bench all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperBatch,
        Workload::QueryMix,
        Workload::ImplicitScale,
        Workload::FaultsChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBatch => "paper_batch",
            Workload::QueryMix => "query_mix",
            Workload::ImplicitScale => "implicit_scale",
            Workload::FaultsChurn => "faults_churn",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large the generated inputs are. `Full` is what the benchmark
/// measures; `Tiny` runs the same code paths in well under a second each,
/// for the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Identifier spaces of at most 2^12 and a few thousand pairs.
    Tiny,
}

fn with_threads(mut spec: ScenarioSpec, backend: Backend) -> ScenarioSpec {
    spec.execution = Some(ExecutionSpec {
        threads: THREADS,
        backend,
    });
    spec
}

fn static_resilience(
    name: String,
    seed: u64,
    geometry: &str,
    bits: u32,
    grid: Vec<f64>,
    pairs: u64,
    backend: Backend,
) -> ScenarioSpec {
    let experiment = ExperimentSpec::StaticResilience {
        geometry: geometry.to_owned(),
        bits,
        grid,
        pairs,
        trials: 1,
    };
    with_threads(ScenarioSpec::new(name, seed, experiment), backend)
}

fn implicit_scale(
    name: String,
    seed: u64,
    geometry: &str,
    bits_list: Vec<u32>,
    pairs: u64,
) -> ScenarioSpec {
    let experiment = ExperimentSpec::ImplicitScale {
        geometry: geometry.to_owned(),
        bits_list,
        failure_probability: 0.25,
        pairs,
    };
    with_threads(ScenarioSpec::new(name, seed, experiment), Backend::Implicit)
}

/// The five geometries of the paper, in report order.
pub const GEOMETRIES: [&str; 5] = ["ring", "xor", "tree", "hypercube", "symphony"];

/// The spec files one pass of a batch workload runs, each through its own
/// `run_directory` call. Empty for `QueryMix`.
#[must_use]
pub fn batch_specs(workload: Workload, seed: u64, scale: Scale) -> Vec<ScenarioSpec> {
    let full = scale == Scale::Full;
    match workload {
        Workload::PaperBatch => {
            let (bits, pairs) = match scale {
                Scale::Full => (20, 200_000),
                Scale::Tiny => (12, 4_000),
            };
            GEOMETRIES
                .iter()
                .map(|geometry| {
                    static_resilience(
                        format!("paper_batch_{geometry}"),
                        seed,
                        geometry,
                        bits,
                        vec![0.1, 0.3, 0.5],
                        pairs,
                        Backend::Materialized,
                    )
                })
                .collect()
        }
        Workload::ImplicitScale => {
            // Ring spans both implicit sizes (the 2^26 vs 2^28 per-hop
            // question); xor adds a second geometry; the static-resilience
            // ring runs the implicit backend through the grid sweep and the
            // chain predictions. The three specs' latencies lie far apart,
            // so the median and tail of a pass's requests are stable.
            let (small, large, query_bits, pairs) = match scale {
                Scale::Full => (26, 28, 24, 100_000),
                Scale::Tiny => (10, 12, 10, 4_000),
            };
            vec![
                implicit_scale(
                    "implicit_ring".to_owned(),
                    seed,
                    "ring",
                    vec![small, large],
                    pairs,
                ),
                implicit_scale("implicit_xor".to_owned(), seed, "xor", vec![small], pairs),
                static_resilience(
                    "implicit_query_ring".to_owned(),
                    seed,
                    "ring",
                    query_bits,
                    vec![0.25],
                    pairs,
                    Backend::Implicit,
                ),
            ]
        }
        Workload::FaultsChurn => {
            // Full runs the paper configurations, Tiny the smoke ones.
            let mut campaign = Family::FailureCampaign.default_spec(!full);
            let mut churn = Family::LiveChurn.default_spec(!full);
            let sparse = Family::SparsePopulation.default_spec(!full);
            if let ExperimentSpec::FailureCampaign { bits, .. } = &mut campaign.experiment {
                if full {
                    *bits = 14;
                }
            }
            if let ExperimentSpec::LiveChurn {
                session_times,
                duration,
                warmup,
                replicas,
                ..
            } = &mut churn.experiment
            {
                // One churn intensity over a short horizon keeps churn the
                // fastest of the three specs (so per-spec latency groups stay
                // apart); every geometry still runs frozen and repaired at the
                // paper's traffic rates.
                if full {
                    *session_times = vec![2.0];
                    *duration = 10.0;
                    *warmup = 2.0;
                    *replicas = 2;
                }
            }
            [campaign, churn, sparse]
                .into_iter()
                .map(|mut spec| {
                    spec.name = format!("faults_churn_{}", spec.family().name());
                    spec.seed = seed;
                    with_threads(spec, Backend::Materialized)
                })
                .collect()
        }
        Workload::QueryMix => Vec::new(),
    }
}

/// The query stream of `query_mix`.
#[derive(Debug, Clone)]
pub struct QueryMix {
    seed: u64,
    bits: [u32; 2],
    pairs: u64,
    hot: Vec<Query>,
    /// Cumulative Zipf(1.1) weights over the hot keys, normalised to 1.
    zipf_cdf: Vec<f64>,
    rng: ChaCha8Rng,
}

/// Share of requests drawn from the hot keys; the rest are cold keys.
pub const HOT_SHARE: f64 = 0.7;
/// Zipf exponent of the hot-key popularity.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Hot failure probabilities (× 5 geometries × 2 sizes = 40 hot keys).
pub const HOT_QS: [f64; 4] = [0.1, 0.2, 0.3, 0.5];

impl QueryMix {
    /// The stream for `seed` at `scale`.
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (bits, pairs) = match scale {
            Scale::Full => ([16, 18], 20_000),
            Scale::Tiny => ([8, 10], 500),
        };
        let seeds = SeedSequence::new(seed);
        let mut rng = seeds.child_rng(0);
        let mut hot = Vec::with_capacity(GEOMETRIES.len() * bits.len() * HOT_QS.len());
        for geometry in GEOMETRIES {
            for b in bits {
                for q in HOT_QS {
                    hot.push(query(geometry, b, q, pairs, seed));
                }
            }
        }
        // The seed decides which keys are popular.
        for i in (1..hot.len()).rev() {
            let j = rng.gen_range(0..=i);
            hot.swap(i, j);
        }
        let weights: Vec<f64> = (1..=hot.len())
            .map(|rank| (rank as f64).powf(-ZIPF_EXPONENT))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut running = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                running += w / total;
                running
            })
            .collect();
        QueryMix {
            seed,
            bits,
            pairs,
            hot,
            zipf_cdf,
            rng: seeds.child_rng(1),
        }
    }

    /// The set-up queries: one `q = 0` query per (geometry, size), which
    /// builds and compiles every overlay the stream will use.
    #[must_use]
    pub fn warm(&self) -> Vec<Query> {
        GEOMETRIES
            .iter()
            .flat_map(|geometry| {
                self.bits
                    .iter()
                    .map(move |&b| query(geometry, b, 0.0, self.pairs, self.seed))
            })
            .collect()
    }

    /// The next query of the stream.
    pub fn next_query(&mut self) -> Query {
        if self.rng.gen::<f64>() < HOT_SHARE {
            let u: f64 = self.rng.gen();
            let rank = self
                .zipf_cdf
                .partition_point(|&c| c < u)
                .min(self.hot.len() - 1);
            self.hot[rank].clone()
        } else {
            let geometry = GEOMETRIES[self.rng.gen_range(0..GEOMETRIES.len())];
            let b = self.bits[self.rng.gen_range(0..self.bits.len())];
            // q uniform on the 10^-4 grid of [0.05, 0.6].
            let q = f64::from(self.rng.gen_range(500u32..=6000)) / 10_000.0;
            query(geometry, b, q, self.pairs, self.seed)
        }
    }
}

fn query(geometry: &str, bits: u32, q: f64, pairs: u64, seed: u64) -> Query {
    Query {
        geometry: geometry.to_owned(),
        bits,
        failure_probability: q,
        pairs: Some(pairs),
        trials: None,
        seed: Some(seed),
        backend: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        for workload in Workload::ALL {
            let a = batch_specs(workload, 7, Scale::Tiny);
            let b = batch_specs(workload, 7, Scale::Tiny);
            assert_eq!(a, b);
            assert!(a.iter().all(|spec| spec.seed == 7));
        }
        let mut a = QueryMix::new(7, Scale::Tiny);
        let mut b = QueryMix::new(7, Scale::Tiny);
        let mut c = QueryMix::new(8, Scale::Tiny);
        let first: Vec<Query> = (0..50).map(|_| a.next_query()).collect();
        let again: Vec<Query> = (0..50).map(|_| b.next_query()).collect();
        let other: Vec<Query> = (0..50).map(|_| c.next_query()).collect();
        assert_eq!(first, again);
        assert_ne!(first, other);
    }

    #[test]
    fn hot_keys_dominate_the_stream() {
        let mut mix = QueryMix::new(2006, Scale::Full);
        let hot = mix.hot.clone();
        let n = 2_000;
        let hits = (0..n).filter(|_| hot.contains(&mix.next_query())).count();
        let share = hits as f64 / n as f64;
        assert!((share - HOT_SHARE).abs() < 0.05, "hot share {share}");
    }
}
