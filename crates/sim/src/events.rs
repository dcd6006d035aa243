//! A deterministic discrete-event simulator for **live churn**: node
//! sessions arrive and depart in continuous time while lookup traffic runs
//! concurrently over the (optionally self-repairing) overlay.
//!
//! The paper analyses one *static snapshot*: a frozen failure pattern over
//! frozen routing tables. This module lets that pattern move in time: an
//! event calendar (a binary heap) drives per-node alternating-renewal
//! sessions (up for a [`LifetimeDistribution`] draw, down for a downtime
//! draw) and, in repair mode, every departure and return is
//! *delta-patched* into the [`LiveOverlay`] — arena rows rewritten in place
//! and kernel plan ranks re-lowered, exactly the incremental repair proven
//! equivalent to a full rebuild by the `incremental_equivalence` property
//! suite in `dht-overlay`.
//!
//! The failure pattern and the routing tables only move on churn events, so
//! the Poisson lookups that arrive between two consecutive events all observe
//! the same aliveness words and plan rows. The engine exploits this in both
//! modes: lookups are drawn at event time (the RNG streams are untouched)
//! but queued, and each queue is drained through the routing kernel's
//! lockstep [`RouteBatch`] pass right before the next liveness mutation or
//! repair — identical outcomes, recorded in draw order, in one
//! cache-friendly sweep per inter-event gap.
//!
//! # Determinism
//!
//! The engine is sharded by **replica** in the same mold as
//! [`crate::TrialEngine`]: each replica owns a [`SeedSequence`]-derived
//! stream family (overlay construction, lookup traffic, and one stream per
//! node session), replicas are merged in replica order regardless of how
//! they were scheduled onto worker threads, and every tie in the event
//! calendar is broken by a monotone insertion sequence number. The merged
//! [`LiveChurnTally`] — including the folded overlay state digests — is
//! therefore bit-identical for any thread count.

use crate::config::SimError;
use crate::rng::{splitmix64, SeedSequence};
use dht_mathkit::RunningStats;
use dht_overlay::{
    default_route_hop_limit, fanout, GeometryStrategy, LiveOverlay, Overlay, RouteBatch,
    RouteOutcome,
};
use rand::Rng;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Initial value of the state-digest fold (the FNV-1a offset basis, shared
/// with `LiveOverlay::state_digest`).
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A session-length (or downtime) distribution for the churn model.
///
/// The paper's Poisson-churn analysis corresponds to
/// [`LifetimeDistribution::Exponential`] sessions; the heavy-tailed
/// [`LifetimeDistribution::Pareto`] variant models the empirical observation
/// that peer session times have power-law tails (a small core of long-lived
/// nodes carries most of the uptime).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum LifetimeDistribution {
    /// Memoryless sessions with the given mean (rate `1/mean`).
    Exponential {
        /// Mean session length in simulated time units.
        mean: f64,
    },
    /// Pareto(shape, scale) sessions: survival `(scale/t)^shape` for
    /// `t >= scale`. The shape must exceed 1 so the mean — and with it the
    /// stationary availability — exists.
    Pareto {
        /// Tail exponent (`> 1`).
        shape: f64,
        /// Minimum session length (`> 0`).
        scale: f64,
    },
}

impl LifetimeDistribution {
    /// An exponential distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfiguration`] unless `mean` is finite
    /// and positive.
    pub fn exponential(mean: f64) -> Result<Self, SimError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(SimError::InvalidConfiguration {
                message: format!("exponential mean must be finite and positive, got {mean}"),
            });
        }
        Ok(LifetimeDistribution::Exponential { mean })
    }

    /// A Pareto distribution with the given shape and scale.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfiguration`] unless `shape > 1` (the
    /// mean must exist) and `scale > 0`, both finite.
    pub fn pareto(shape: f64, scale: f64) -> Result<Self, SimError> {
        if !shape.is_finite() || shape <= 1.0 {
            return Err(SimError::InvalidConfiguration {
                message: format!("pareto shape must be finite and exceed 1, got {shape}"),
            });
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(SimError::InvalidConfiguration {
                message: format!("pareto scale must be finite and positive, got {scale}"),
            });
        }
        Ok(LifetimeDistribution::Pareto { shape, scale })
    }

    /// The distribution mean — the `L` (or `D`) entering the stationary
    /// availability `L / (L + D)` of an alternating-renewal session.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            LifetimeDistribution::Exponential { mean } => mean,
            LifetimeDistribution::Pareto { shape, scale } => shape * scale / (shape - 1.0),
        }
    }

    /// Draws one session length by inversion of the CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // `gen::<f64>()` is uniform on [0, 1), so `1 - u` is in (0, 1] and
        // both inversions below are finite.
        let u: f64 = rng.gen();
        match *self {
            LifetimeDistribution::Exponential { mean } => -mean * (1.0 - u).ln(),
            LifetimeDistribution::Pareto { shape, scale } => scale * (1.0 - u).powf(-1.0 / shape),
        }
    }
}

/// Configuration for a live-churn run: the session process, the lookup
/// load, and the engine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LiveChurnConfig {
    lifetime: LifetimeDistribution,
    downtime: LifetimeDistribution,
    duration: f64,
    warmup: f64,
    lookup_rate: f64,
    repair: bool,
    replicas: u32,
    threads: usize,
    seed: u64,
}

impl LiveChurnConfig {
    /// Creates a configuration: sessions drawn from `lifetime`, offline
    /// periods from `downtime`, observed for `duration` time units with
    /// lookups arriving as a Poisson process of rate `lookup_rate` (per
    /// time unit, zero for a churn-only run).
    ///
    /// Defaults: no warmup, frozen tables (no repair), one replica, one
    /// thread, seed 0.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfiguration`] unless `duration` is
    /// finite and positive and `lookup_rate` is finite and non-negative.
    pub fn new(
        lifetime: LifetimeDistribution,
        downtime: LifetimeDistribution,
        duration: f64,
        lookup_rate: f64,
    ) -> Result<Self, SimError> {
        if !duration.is_finite() || duration <= 0.0 {
            return Err(SimError::InvalidConfiguration {
                message: format!("duration must be finite and positive, got {duration}"),
            });
        }
        if !lookup_rate.is_finite() || lookup_rate < 0.0 {
            return Err(SimError::InvalidConfiguration {
                message: format!("lookup rate must be finite and non-negative, got {lookup_rate}"),
            });
        }
        Ok(LiveChurnConfig {
            lifetime,
            downtime,
            duration,
            warmup: 0.0,
            lookup_rate,
            repair: false,
            replicas: 1,
            threads: 1,
            seed: 0,
        })
    }

    /// Discards measurements before `warmup` (clamped to
    /// `[0, duration]`) so tallies sample the stationary regime rather
    /// than the all-alive initial transient.
    #[must_use]
    pub fn with_warmup(mut self, warmup: f64) -> Self {
        self.warmup = warmup.clamp(0.0, self.duration);
        self
    }

    /// Selects repair mode: when `true` every departure and return
    /// delta-patches the overlay in place; when `false` tables stay frozen
    /// at the all-alive build and only the liveness mask moves (the
    /// paper's static snapshot model, evaluated in continuous time).
    #[must_use]
    pub fn with_repair(mut self, repair: bool) -> Self {
        self.repair = repair;
        self
    }

    /// Number of independent replicas to average over (at least 1).
    #[must_use]
    pub fn with_replicas(mut self, replicas: u32) -> Self {
        self.replicas = replicas.max(1);
        self
    }

    /// Worker-thread budget (clamped to `1..=`[`fanout::MAX_THREADS`]);
    /// replicas are the unit of parallelism and the merged tally does not
    /// depend on this.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.clamp(1, fanout::MAX_THREADS);
        self
    }

    /// Master seed; all replica stream families derive from it.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The session-length distribution.
    #[must_use]
    pub fn lifetime(&self) -> LifetimeDistribution {
        self.lifetime
    }

    /// The offline-period distribution.
    #[must_use]
    pub fn downtime(&self) -> LifetimeDistribution {
        self.downtime
    }

    /// Total simulated time per replica.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Measurement-window start.
    #[must_use]
    pub fn warmup(&self) -> f64 {
        self.warmup
    }

    /// Poisson lookup arrival rate per time unit.
    #[must_use]
    pub fn lookup_rate(&self) -> f64 {
        self.lookup_rate
    }

    /// Whether departures and returns repair the overlay in place.
    #[must_use]
    pub fn repair(&self) -> bool {
        self.repair
    }

    /// Number of replicas.
    #[must_use]
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// Worker-thread budget.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Master seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The stationary probability that a node is offline,
    /// `q* = E[D] / (E[L] + E[D])` — the renewal-theoretic equivalent of
    /// the paper's static failure fraction `q`, which is what lets a
    /// frozen-table live-churn run be validated against the Markov-chain
    /// prediction at `q*`.
    #[must_use]
    pub fn stationary_failure_fraction(&self) -> f64 {
        let up = self.lifetime.mean();
        let down = self.downtime.mean();
        down / (up + down)
    }
}

/// Aggregated results of a live-churn run.
///
/// Merging is associative and performed in replica order, so the tally —
/// including [`LiveChurnTally::state_digest`] — is bit-identical for any
/// thread count.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LiveChurnTally {
    /// Replicas merged into this tally.
    pub replicas: u32,
    /// Total events processed (departures, returns and lookups, warmup
    /// included).
    pub events: u64,
    /// Session departures processed.
    pub leaves: u64,
    /// Session returns processed.
    pub joins: u64,
    /// Routing-table rows actually rewritten by incremental repair (zero
    /// in frozen mode).
    pub repairs: u64,
    /// Lookups attempted inside the measurement window.
    pub attempted: u64,
    /// Lookups delivered.
    pub delivered: u64,
    /// Lookups dropped (no alive neighbour made progress, or an endpoint
    /// was offline at arrival).
    pub dropped: u64,
    /// Lookups that exceeded the hop limit.
    pub hop_limited: u64,
    /// Lookups skipped because fewer than two nodes were alive.
    pub skipped: u64,
    /// Hop-count statistics over delivered lookups.
    pub hop_stats: RunningStats,
    /// Integral of the offline-node count over the measurement window
    /// (node·time units).
    pub dead_node_time: f64,
    /// Window length times population size — the normaliser for
    /// [`LiveChurnTally::dead_fraction`].
    pub window_node_time: f64,
    /// Fold of every replica's final overlay state digest, in replica
    /// order — two runs agree on the full end state iff these agree.
    pub state_digest: u64,
}

impl Default for LiveChurnTally {
    fn default() -> Self {
        LiveChurnTally {
            replicas: 0,
            events: 0,
            leaves: 0,
            joins: 0,
            repairs: 0,
            attempted: 0,
            delivered: 0,
            dropped: 0,
            hop_limited: 0,
            skipped: 0,
            hop_stats: RunningStats::new(),
            dead_node_time: 0.0,
            window_node_time: 0.0,
            state_digest: DIGEST_SEED,
        }
    }
}

impl LiveChurnTally {
    /// Records one lookup outcome.
    fn record(&mut self, outcome: RouteOutcome) {
        self.attempted += 1;
        match outcome {
            RouteOutcome::Delivered { hops } => {
                self.delivered += 1;
                self.hop_stats.push(f64::from(hops));
            }
            RouteOutcome::Dropped { .. }
            | RouteOutcome::SourceFailed
            | RouteOutcome::TargetFailed => self.dropped += 1,
            RouteOutcome::HopLimitExceeded { .. } => self.hop_limited += 1,
        }
    }

    /// Folds `other` into `self`; replica order must be preserved by the
    /// caller for digest stability.
    pub fn merge(&mut self, other: &LiveChurnTally) {
        self.replicas += other.replicas;
        self.events += other.events;
        self.leaves += other.leaves;
        self.joins += other.joins;
        self.repairs += other.repairs;
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.hop_limited += other.hop_limited;
        self.skipped += other.skipped;
        self.hop_stats.merge(&other.hop_stats);
        self.dead_node_time += other.dead_node_time;
        self.window_node_time += other.window_node_time;
        self.state_digest = splitmix64(self.state_digest ^ other.state_digest);
    }

    /// Delivered fraction of attempted lookups, 0 when none were
    /// attempted.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.delivered as f64 / self.attempted as f64
        }
    }

    /// Time-averaged offline fraction over the measurement window — the
    /// empirical counterpart of
    /// [`LiveChurnConfig::stationary_failure_fraction`].
    #[must_use]
    pub fn dead_fraction(&self) -> f64 {
        if self.window_node_time == 0.0 {
            0.0
        } else {
            self.dead_node_time / self.window_node_time
        }
    }
}

/// One scheduled occurrence in a replica's calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The rank-`r` node's session ends.
    Depart(u64),
    /// The rank-`r` node comes back online.
    Arrive(u64),
    /// A lookup arrives (the Poisson traffic process).
    Lookup,
}

/// A replica's event calendar: a min-heap ordered by `(time, insertion
/// sequence)`, so simultaneous events pop in insertion order.
#[derive(Default)]
struct Calendar {
    heap: BinaryHeap<Reverse<(u64, u64, Event)>>,
    next_seq: u64,
}

impl Calendar {
    /// Schedules `event` at `time`, which is finite and non-negative.
    ///
    /// Such times order as their bit patterns do once `-0.0` (a session or
    /// gap drawn from a uniform draw of exactly 0) is mapped onto `0.0` by
    /// adding `0.0`, so the two tie and pop in insertion order.
    fn push(&mut self, time: f64, event: Event) {
        assert!(
            time.is_finite() && time >= 0.0,
            "event time must be finite and non-negative, got {time}"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap
            .push(Reverse(((time + 0.0).to_bits(), seq, event)));
    }

    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<(f64, Event)> {
        let Reverse((time, _, event)) = self.heap.pop()?;
        Some((f64::from_bits(time), event))
    }
}

/// Scratch state for the batched lookup drain.
///
/// The aliveness words and plan rows only move on churn events, so every
/// lookup drawn between two consecutive `Depart`/`Arrive` events observes
/// the same failure pattern over the same tables. Instead of routing each
/// one as it arrives, the replica queues the drawn pair values here — the
/// RNG draws still happen at event time, so the traffic stream is
/// untouched — and routes the whole drain through one lockstep
/// [`RouteBatch`] pass right before the next liveness mutation or repair.
/// Outcomes are recorded in draw order, keeping the folded hop statistics
/// bit-identical to the per-lookup scalar path.
struct LookupDrain {
    batch: RouteBatch,
    pending: Vec<(u64, u64)>,
    measured: Vec<bool>,
    outcomes: Vec<RouteOutcome>,
}

impl LookupDrain {
    fn new() -> Self {
        LookupDrain {
            batch: RouteBatch::default(),
            pending: Vec::new(),
            measured: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Queues one lookup drawn at event time; `measured` records whether
    /// the warmup window gates its tally contribution.
    fn push(&mut self, source: u64, target: u64, measured: bool) {
        self.pending.push((source, target));
        self.measured.push(measured);
    }

    /// Routes every queued lookup against the overlay's *current* aliveness
    /// words and plan — callers flush before any liveness mutation or repair,
    /// so both are exactly those each lookup observed at draw time — and
    /// records the measured outcomes in draw order.
    fn flush<S: GeometryStrategy + Clone>(
        &mut self,
        overlay: &LiveOverlay<S>,
        hop_limit: u32,
        tally: &mut LiveChurnTally,
    ) {
        if self.pending.is_empty() {
            return;
        }
        overlay.routing_kernel().route_batch(
            &mut self.batch,
            overlay.rank_alive_words(),
            &self.pending,
            hop_limit,
            &mut self.outcomes,
        );
        for (index, &outcome) in self.outcomes.iter().enumerate() {
            if self.measured[index] {
                tally.record(outcome);
            }
        }
        self.pending.clear();
        self.measured.clear();
    }
}

/// The live-churn simulation engine: runs the configured number of
/// replicas, each an independent discrete-event simulation over its own
/// overlay instance, and merges the tallies in replica order.
///
/// # Example
///
/// ```rust
/// use dht_overlay::chord::ChordStrategy;
/// use dht_overlay::{ChordVariant, LiveOverlay};
/// use dht_id::{KeySpace, Population};
/// use dht_sim::{LifetimeDistribution, LiveChurnConfig, LiveChurnExperiment};
///
/// let config = LiveChurnConfig::new(
///     LifetimeDistribution::exponential(2.0)?,
///     LifetimeDistribution::exponential(0.5)?,
///     8.0,
///     50.0,
/// )?
/// .with_warmup(2.0)
/// .with_repair(true)
/// .with_seed(7);
/// let space = KeySpace::new(6).unwrap();
/// let tally = LiveChurnExperiment::new(config).run(|master_seed| {
///     let population = Population::full(space);
///     LiveOverlay::build(population, ChordStrategy::new(ChordVariant::Deterministic), master_seed)
///         .expect("ring supports live churn")
/// });
/// assert!(tally.attempted > 0);
/// // With repair on, the ring re-closes after every event: everything routes.
/// assert_eq!(tally.delivered, tally.attempted);
/// # Ok::<(), dht_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LiveChurnExperiment {
    config: LiveChurnConfig,
}

impl LiveChurnExperiment {
    /// Creates an engine for the given configuration.
    #[must_use]
    pub fn new(config: LiveChurnConfig) -> Self {
        LiveChurnExperiment { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &LiveChurnConfig {
        &self.config
    }

    /// Runs all replicas and merges their tallies in replica order.
    ///
    /// `build` constructs one replica's overlay from a master seed (each
    /// replica receives a distinct seed derived from the configured master
    /// seed); it is called once per replica, possibly from worker threads.
    pub fn run<S, F>(&self, build: F) -> LiveChurnTally
    where
        S: GeometryStrategy + Clone,
        F: Fn(u64) -> LiveOverlay<S> + Sync,
    {
        let replica_seeds = SeedSequence::new(self.config.seed);
        let tallies = fanout::map_ordered(
            (0..u64::from(self.config.replicas)).collect(),
            self.config.threads,
            |replica| self.run_replica(replica_seeds.child(replica), &build),
        );
        // Replica order, not completion order: the merged floating-point
        // statistics are the same for every thread count.
        let mut merged = LiveChurnTally::default();
        for tally in &tallies {
            merged.merge(tally);
        }
        merged
    }

    /// Runs one replica: builds its overlay, seeds the calendar with every
    /// node's first departure and the first lookup arrival, then processes
    /// events in `(time, insertion)` order until the horizon.
    fn run_replica<S, F>(&self, replica_seed: u64, build: &F) -> LiveChurnTally
    where
        S: GeometryStrategy + Clone,
        F: Fn(u64) -> LiveOverlay<S>,
    {
        let config = &self.config;
        // Stream family: child 0 builds the overlay, child 1 drives the
        // lookup traffic, child 2 + r is node rank r's session stream.
        let seeds = SeedSequence::new(replica_seed);
        let mut overlay = build(seeds.child(0));
        let mut lookup_rng = seeds.child_rng(1);
        let node_count = overlay.population().node_count();
        let mut session_rngs: Vec<_> = (0..node_count)
            .map(|rank| seeds.child_rng(2 + rank))
            .collect();
        let hop_limit = default_route_hop_limit(&overlay);

        let mut queue = Calendar::default();

        // Everyone starts alive with a fresh session; lookups are Poisson.
        for rank in 0..node_count {
            let lifetime = config.lifetime.sample(&mut session_rngs[rank as usize]);
            queue.push(lifetime, Event::Depart(rank));
        }
        if config.lookup_rate > 0.0 {
            let first = exponential_gap(config.lookup_rate, &mut lookup_rng);
            if first <= config.duration {
                queue.push(first, Event::Lookup);
            }
        }

        let mut tally = LiveChurnTally {
            replicas: 1,
            ..LiveChurnTally::default()
        };
        // Lookups accumulate here and drain in batch whenever the failure
        // pattern (and, in repair mode, the tables) is about to change.
        let mut drain = LookupDrain::new();
        let mut clock = 0.0_f64;
        while let Some((time, event)) = queue.pop() {
            if time > config.duration {
                break;
            }
            // Accumulate the offline-node integral over the slice of the
            // measurement window covered since the previous event.
            let lo = clock.max(config.warmup);
            let hi = time.max(config.warmup);
            if hi > lo {
                tally.dead_node_time += overlay.mask().failed_count() as f64 * (hi - lo);
            }
            clock = time;
            tally.events += 1;
            match event {
                Event::Depart(rank) => {
                    drain.flush(&overlay, hop_limit, &mut tally);
                    let node = overlay.population().node_at(rank);
                    if config.repair {
                        overlay.leave(node);
                    } else {
                        overlay.set_liveness_frozen(node, false);
                    }
                    tally.leaves += 1;
                    let downtime = config.downtime.sample(&mut session_rngs[rank as usize]);
                    queue.push(clock + downtime, Event::Arrive(rank));
                }
                Event::Arrive(rank) => {
                    drain.flush(&overlay, hop_limit, &mut tally);
                    let node = overlay.population().node_at(rank);
                    if config.repair {
                        overlay.join(node);
                    } else {
                        overlay.set_liveness_frozen(node, true);
                    }
                    tally.joins += 1;
                    let lifetime = config.lifetime.sample(&mut session_rngs[rank as usize]);
                    queue.push(clock + lifetime, Event::Depart(rank));
                }
                Event::Lookup => {
                    let gap = exponential_gap(config.lookup_rate, &mut lookup_rng);
                    queue.push(clock + gap, Event::Lookup);
                    let measured = clock >= config.warmup;
                    let alive = overlay.mask().alive_count();
                    if alive < 2 {
                        if measured {
                            tally.skipped += 1;
                        }
                        continue;
                    }
                    // A lookup between two distinct currently-alive nodes;
                    // the draws are consumed whether or not the warmup
                    // window gates the measurement, so the traffic process
                    // is identical in both regimes.
                    let source = overlay
                        .mask()
                        .select_alive(lookup_rng.gen_range(0..alive))
                        .expect("rank below the alive count");
                    let target = loop {
                        let candidate = overlay
                            .mask()
                            .select_alive(lookup_rng.gen_range(0..alive))
                            .expect("rank below the alive count");
                        if candidate != source {
                            break candidate;
                        }
                    };
                    drain.push(source.value(), target.value(), measured);
                }
            }
        }
        // Lookups drawn after the last churn event (or past the horizon
        // cut-off) still route against the final failure pattern.
        drain.flush(&overlay, hop_limit, &mut tally);
        // The tail of the window after the last processed event.
        let lo = clock.max(config.warmup);
        if config.duration > lo {
            tally.dead_node_time += overlay.mask().failed_count() as f64 * (config.duration - lo);
        }
        tally.window_node_time = (config.duration - config.warmup) * node_count as f64;
        tally.repairs = overlay.repairs();
        tally.state_digest = splitmix64(DIGEST_SEED ^ overlay.state_digest());
        tally
    }
}

/// One exponential inter-arrival gap for a Poisson process of `rate`.
fn exponential_gap<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_id::{KeySpace, Population};
    use dht_overlay::chord::ChordStrategy;
    use dht_overlay::kademlia::KademliaStrategy;
    use dht_overlay::ChordVariant;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn exp(mean: f64) -> LifetimeDistribution {
        LifetimeDistribution::exponential(mean).unwrap()
    }

    fn base_config() -> LiveChurnConfig {
        LiveChurnConfig::new(exp(2.0), exp(0.5), 12.0, 80.0)
            .unwrap()
            .with_warmup(4.0)
            .with_seed(11)
    }

    fn ring_builder(bits: u32) -> impl Fn(u64) -> LiveOverlay<ChordStrategy> + Sync {
        move |master_seed| {
            let space = KeySpace::new(bits).unwrap();
            LiveOverlay::build(
                Population::full(space),
                ChordStrategy::new(ChordVariant::Deterministic),
                master_seed,
            )
            .unwrap()
        }
    }

    #[test]
    fn calendar_queue_orders_by_time_then_insertion() {
        let mut queue = Calendar::default();
        let times = [5.0, 0.25, 3.5, 0.0, 0.25, 9.75, -0.0, 3.5, 0.0];
        for (rank, &time) in times.iter().enumerate() {
            queue.push(time, Event::Depart(rank as u64));
        }
        let mut drained = Vec::new();
        while let Some((time, event)) = queue.pop() {
            drained.push((time, event));
        }
        // `-0.0` ties with `0.0` and keeps its insertion place between them.
        let order = [3, 6, 8, 1, 4, 2, 7, 0, 5];
        let expected: Vec<_> = order
            .iter()
            .map(|&rank| (times[rank], Event::Depart(rank as u64)))
            .collect();
        assert_eq!(drained, expected);
    }

    #[test]
    fn distributions_validate_and_report_their_means() {
        assert!(LifetimeDistribution::exponential(0.0).is_err());
        assert!(LifetimeDistribution::exponential(f64::NAN).is_err());
        assert!(LifetimeDistribution::pareto(1.0, 1.0).is_err());
        assert!(LifetimeDistribution::pareto(2.0, 0.0).is_err());
        assert_eq!(exp(2.5).mean(), 2.5);
        // Pareto(3, 2): mean = 3·2/(3−1) = 3.
        let pareto = LifetimeDistribution::pareto(3.0, 2.0).unwrap();
        assert_eq!(pareto.mean(), 3.0);
    }

    #[test]
    fn sample_means_converge_to_the_analytic_means() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for dist in [exp(2.0), LifetimeDistribution::pareto(3.0, 2.0).unwrap()] {
            let mut stats = RunningStats::new();
            for _ in 0..40_000 {
                let draw = dist.sample(&mut rng);
                assert!(draw.is_finite() && draw >= 0.0);
                stats.push(draw);
            }
            let error = (stats.mean() - dist.mean()).abs() / dist.mean();
            assert!(
                error < 0.05,
                "sample mean {} too far from {}",
                stats.mean(),
                dist.mean()
            );
        }
    }

    #[test]
    fn config_validates_and_exposes_the_stationary_fraction() {
        assert!(LiveChurnConfig::new(exp(1.0), exp(1.0), 0.0, 1.0).is_err());
        assert!(LiveChurnConfig::new(exp(1.0), exp(1.0), 10.0, -1.0).is_err());
        let config = base_config();
        // q* = 0.5 / (2.0 + 0.5) = 0.2.
        assert!((config.stationary_failure_fraction() - 0.2).abs() < 1e-12);
        // Warmup clamps to the horizon.
        assert_eq!(base_config().with_warmup(99.0).warmup(), 12.0);
        assert_eq!(base_config().with_replicas(0).replicas(), 1);
    }

    #[test]
    fn frozen_mode_matches_the_stationary_failure_fraction() {
        let config = base_config().with_warmup(6.0).with_replicas(4).with_seed(3);
        let tally = LiveChurnExperiment::new(config).run(ring_builder(7));
        assert_eq!(tally.replicas, 4);
        assert_eq!(tally.repairs, 0, "frozen mode must not rewrite tables");
        let predicted = config.stationary_failure_fraction();
        let observed = tally.dead_fraction();
        assert!(
            (observed - predicted).abs() < 0.05,
            "observed dead fraction {observed} vs stationary {predicted}"
        );
    }

    #[test]
    fn repair_mode_keeps_the_ring_fully_routable() {
        let config = base_config().with_repair(true);
        let tally = LiveChurnExperiment::new(config).run(ring_builder(6));
        assert!(tally.attempted > 100);
        assert_eq!(
            tally.delivered, tally.attempted,
            "a repaired ring always closes around failures"
        );
        assert!(tally.repairs > 0, "repairs must actually happen");
        assert!(tally.joins > 0 && tally.leaves > tally.joins.saturating_sub(2));
    }

    /// One replayed run's expected counters, hop-stat bit patterns and
    /// folded state digest.
    struct Golden {
        seed: u64,
        attempted: u64,
        delivered: u64,
        dropped: u64,
        digest: u64,
        mean_bits: u64,
        variance_bits: u64,
    }

    /// Replays two replicas over a 2^7 deterministic ring per golden seed.
    fn assert_goldens(repair: bool, goldens: &[Golden]) {
        for golden in goldens {
            let config = base_config()
                .with_replicas(2)
                .with_repair(repair)
                .with_seed(golden.seed);
            let tally = LiveChurnExperiment::new(config).run(ring_builder(7));
            assert_eq!(tally.attempted, golden.attempted);
            assert_eq!(tally.delivered, golden.delivered);
            assert_eq!(tally.dropped, golden.dropped);
            assert_eq!(tally.hop_limited, 0);
            assert_eq!(tally.skipped, 0);
            assert_eq!(tally.state_digest, golden.digest);
            assert_eq!(tally.hop_stats.mean().to_bits(), golden.mean_bits);
            assert_eq!(
                tally.hop_stats.sample_variance().to_bits(),
                golden.variance_bits
            );
        }
    }

    /// The expectations here were captured from the per-lookup scalar
    /// implementation immediately before the batched drain landed: frozen
    /// mode must stay bit-identical — counters, hop-stat bit patterns and
    /// the folded state digest — under the lockstep rewrite.
    #[test]
    fn frozen_drains_match_the_scalar_reference_goldens() {
        assert_goldens(
            false,
            &[
                Golden {
                    seed: 9,
                    attempted: 1346,
                    delivered: 1302,
                    dropped: 44,
                    digest: 0xa979_4047_3b58_fc8a,
                    mean_bits: 0x400e_917f_cdaa_45fe,
                    variance_bits: 0x4003_0ed7_8738_1337,
                },
                Golden {
                    seed: 23,
                    attempted: 1296,
                    delivered: 1258,
                    dropped: 38,
                    digest: 0x158b_e6a1_aa33_cddb,
                    mean_bits: 0x400f_3e45_306e_b3e3,
                    variance_bits: 0x4002_e9ca_4454_9cbb,
                },
            ],
        );
    }

    /// Captured while repair mode still routed each lookup as it arrived:
    /// draining repair-mode lookups in batch before each table rewrite must
    /// leave every counter, hop-stat bit pattern and digest unchanged.
    #[test]
    fn repair_drains_match_the_scalar_reference_goldens() {
        assert_goldens(
            true,
            &[
                Golden {
                    seed: 9,
                    attempted: 1346,
                    delivered: 1346,
                    dropped: 0,
                    digest: 0xf00a_bbd5_8589_05b2,
                    mean_bits: 0x400a_98ea_5167_15b1,
                    variance_bits: 0x3ff9_0ad6_523d_ae2e,
                },
                Golden {
                    seed: 23,
                    attempted: 1296,
                    delivered: 1296,
                    dropped: 0,
                    digest: 0x2bef_789c_efa3_8b9e,
                    mean_bits: 0x400a_f1c7_1c71_c717,
                    variance_bits: 0x3ff7_258f_5209_e257,
                },
            ],
        );
    }

    #[test]
    fn tallies_are_identical_across_thread_counts() {
        let config = base_config().with_replicas(6).with_repair(true);
        let space = KeySpace::new(5).unwrap();
        let build = move |master_seed: u64| {
            LiveOverlay::build(Population::full(space), KademliaStrategy, master_seed).unwrap()
        };
        let sequential = LiveChurnExperiment::new(config.with_threads(1)).run(build);
        let threaded = LiveChurnExperiment::new(config.with_threads(5)).run(build);
        assert_eq!(sequential, threaded);
    }

    #[test]
    fn distinct_seeds_give_distinct_traffic() {
        let config = base_config();
        let a = LiveChurnExperiment::new(config.with_seed(1)).run(ring_builder(6));
        let b = LiveChurnExperiment::new(config.with_seed(2)).run(ring_builder(6));
        assert_ne!(a.state_digest, b.state_digest);
        assert_ne!(a, b);
    }
}
