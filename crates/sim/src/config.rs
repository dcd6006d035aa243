//! Experiment configuration and validation.

use dht_overlay::fanout;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised by the simulation harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimError {
    /// The failure probability must lie in `[0, 1)`.
    InvalidFailureProbability {
        /// The rejected probability.
        q: f64,
    },
    /// A configuration field was out of range.
    InvalidConfiguration {
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// Writing a report failed.
    Io {
        /// The underlying error message.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidFailureProbability { q } => {
                write!(f, "failure probability must lie in [0, 1), got {q}")
            }
            SimError::InvalidConfiguration { message } => {
                write!(f, "invalid configuration: {message}")
            }
            SimError::Io { message } => write!(f, "report output failed: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<std::io::Error> for SimError {
    fn from(err: std::io::Error) -> Self {
        SimError::Io {
            message: err.to_string(),
        }
    }
}

/// Configuration of one static-resilience measurement.
///
/// # Example
///
/// ```rust
/// use dht_sim::StaticResilienceConfig;
///
/// let config = StaticResilienceConfig::new(0.3)?
///     .with_pairs(50_000)
///     .with_trials(3)
///     .with_seed(42);
/// assert_eq!(config.pairs(), 50_000);
/// assert_eq!(config.trials(), 3);
/// # Ok::<(), dht_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaticResilienceConfig {
    failure_probability: f64,
    pairs: u64,
    trials: u32,
    seed: u64,
    threads: usize,
}

impl StaticResilienceConfig {
    /// Creates a configuration for failure probability `q` with defaults of
    /// 10 000 sampled pairs, one trial, seed 0 and single-threaded execution.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFailureProbability`] unless `q ∈ [0, 1)`.
    pub fn new(failure_probability: f64) -> Result<Self, SimError> {
        if !(0.0..1.0).contains(&failure_probability) || failure_probability.is_nan() {
            return Err(SimError::InvalidFailureProbability {
                q: failure_probability,
            });
        }
        Ok(StaticResilienceConfig {
            failure_probability,
            pairs: 10_000,
            trials: 1,
            seed: 0,
            threads: 1,
        })
    }

    /// Sets the number of source/destination pairs sampled per trial.
    #[must_use]
    pub fn with_pairs(mut self, pairs: u64) -> Self {
        self.pairs = pairs.max(1);
        self
    }

    /// Sets the number of independent trials (failure patterns) to average
    /// over.
    #[must_use]
    pub fn with_trials(mut self, trials: u32) -> Self {
        self.trials = trials.max(1);
        self
    }

    /// Sets the master seed from which all per-trial randomness derives.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads used to evaluate sampled pairs
    /// (clamped to `1..=`[`fanout::MAX_THREADS`]).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.clamp(1, fanout::MAX_THREADS);
        self
    }

    /// The node failure probability `q`.
    #[must_use]
    pub fn failure_probability(&self) -> f64 {
        self.failure_probability
    }

    /// Pairs sampled per trial.
    #[must_use]
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    /// Number of independent trials.
    #[must_use]
    pub fn trials(&self) -> u32 {
        self.trials
    }

    /// Master seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Worker threads used per trial.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let config = StaticResilienceConfig::new(0.25).unwrap();
        assert_eq!(config.failure_probability(), 0.25);
        assert_eq!(config.pairs(), 10_000);
        assert_eq!(config.trials(), 1);
        assert_eq!(config.seed(), 0);
        assert_eq!(config.threads(), 1);
    }

    #[test]
    fn builder_setters_apply() {
        let config = StaticResilienceConfig::new(0.1)
            .unwrap()
            .with_pairs(500)
            .with_trials(4)
            .with_seed(99)
            .with_threads(8);
        assert_eq!(config.pairs(), 500);
        assert_eq!(config.trials(), 4);
        assert_eq!(config.seed(), 99);
        assert_eq!(config.threads(), 8);
        let unbounded = config.with_threads(usize::MAX);
        assert_eq!(unbounded.threads(), fanout::MAX_THREADS);
    }

    #[test]
    fn zero_valued_settings_are_clamped() {
        let config = StaticResilienceConfig::new(0.1)
            .unwrap()
            .with_pairs(0)
            .with_trials(0)
            .with_threads(0);
        assert_eq!(config.pairs(), 1);
        assert_eq!(config.trials(), 1);
        assert_eq!(config.threads(), 1);
    }

    #[test]
    fn invalid_probabilities_are_rejected() {
        assert!(StaticResilienceConfig::new(1.0).is_err());
        assert!(StaticResilienceConfig::new(-0.01).is_err());
        assert!(StaticResilienceConfig::new(f64::NAN).is_err());
    }

    #[test]
    fn error_display_is_descriptive() {
        let err: SimError = std::io::Error::other("disk full").into();
        assert!(err.to_string().contains("disk full"));
    }

    #[test]
    fn config_round_trips_through_serde() {
        let config = StaticResilienceConfig::new(0.4).unwrap().with_pairs(123);
        let json = serde_json::to_string(&config).unwrap();
        let back: StaticResilienceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
    }
}
