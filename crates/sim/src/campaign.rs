//! Campaign tallies: the trial engine's graceful-degradation view.
//!
//! Fault-injection campaigns (`dht_overlay::faults`) ask more of a trial
//! than the delivered fraction: *where* do messages die when they die? A
//! [`CampaignTally`] extends the ordinary [`TrialTally`] with a
//! [`StuckDepthHistogram`] — how many hops each dropped message had already
//! made when no alive neighbour offered progress. Shallow stuck depths mean
//! sources are isolated outright; deep ones mean messages burrow most of the
//! way in before hitting the failure structure, wasting work — the
//! difference between a clean outage and expensive brown-out behaviour.
//!
//! [`TrialEngine::run_campaign_trial`] drives the identical sharded loop as
//! [`TrialEngine::run_trial`] — same kernel dispatch (materialized or
//! implicit), same shard grid, same per-shard RNG streams, same shard-order
//! fold — so campaign tallies inherit the engine's thread-count- and
//! backend-invariance contracts, and the embedded [`TrialTally`] is
//! bit-identical to what `run_trial` reports for the same inputs.

use crate::engine::{ShardTally, TrialEngine, TrialTally};
use dht_overlay::{FailureMask, Overlay, RouteOutcome};
use serde::{Deserialize, Serialize};

/// Distribution of hop depths at which dropped messages got stuck.
///
/// `counts[d]` is the number of dropped messages whose route made exactly
/// `d` hops before greedy forwarding found no alive progressing neighbour
/// (`d = 0`: the source itself was already stuck). Histograms merge by
/// element-wise addition, so per-shard instances fold associatively.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StuckDepthHistogram {
    counts: Vec<u64>,
}

impl StuckDepthHistogram {
    /// Records one dropped message stuck after `depth` hops.
    pub fn record(&mut self, depth: u32) {
        let slot = depth as usize;
        if self.counts.len() <= slot {
            self.counts.resize(slot + 1, 0);
        }
        self.counts[slot] += 1;
    }

    /// Folds `other` into this histogram (element-wise addition).
    pub fn merge(&mut self, other: &StuckDepthHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (slot, count) in self.counts.iter_mut().zip(&other.counts) {
            *slot += count;
        }
    }

    /// Dropped messages recorded in total.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of drops stuck at exactly `depth` hops.
    #[must_use]
    pub fn count_at(&self, depth: u32) -> u64 {
        self.counts.get(depth as usize).copied().unwrap_or(0)
    }

    /// The per-depth counts, index = stuck depth (empty when nothing
    /// dropped; trailing entries are always non-zero).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Deepest recorded stuck depth, `None` when nothing dropped.
    #[must_use]
    pub fn max_depth(&self) -> Option<u32> {
        if self.counts.is_empty() {
            None
        } else {
            #[allow(clippy::cast_possible_truncation)]
            Some(self.counts.len() as u32 - 1)
        }
    }

    /// Mean stuck depth over all recorded drops, 0 when nothing dropped.
    #[must_use]
    pub fn mean_depth(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(depth, &count)| depth as f64 * count as f64)
            .sum();
        weighted / total as f64
    }
}

/// A [`TrialTally`] plus graceful-degradation metrics, produced by
/// [`TrialEngine::run_campaign_trial`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignTally {
    /// The ordinary outcome tally — bit-identical to what
    /// [`TrialEngine::run_trial`] reports for the same inputs.
    pub trial: TrialTally,
    /// Hop depths at which dropped messages got stuck.
    pub stuck_depth: StuckDepthHistogram,
}

impl CampaignTally {
    /// Records one route outcome, tracking stuck depth for drops.
    pub fn record(&mut self, outcome: RouteOutcome) {
        self.trial.record(outcome);
        if let RouteOutcome::Dropped { hops, .. } = outcome {
            self.stuck_depth.record(hops);
        }
    }

    /// Folds `other` into this tally (shard order, like the engine).
    pub fn merge(&mut self, other: &CampaignTally) {
        self.trial.merge(&other.trial);
        self.stuck_depth.merge(&other.stuck_depth);
    }
}

impl ShardTally for CampaignTally {
    fn record(&mut self, outcome: RouteOutcome) {
        CampaignTally::record(self, outcome);
    }

    fn fold(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl TrialEngine {
    /// [`TrialEngine::run_trial`] with campaign metrics: routes the same
    /// pairs through the same kernel dispatch, shard grid and RNG streams,
    /// but folds each outcome into a [`CampaignTally`] so drops also record
    /// their stuck depth. `None` when fewer than two nodes survive.
    ///
    /// The embedded [`CampaignTally::trial`] is bit-identical to the tally
    /// `run_trial` returns for the same `(overlay, mask, pairs, pair_seed,
    /// pairs_per_shard)`, for any thread count and either backend — the
    /// campaign view is pure observation, never perturbation.
    ///
    /// # Panics
    ///
    /// As [`TrialEngine::run_trial`]: on a mask from another key space, or
    /// an overlay that exposes neither kernel.
    pub fn run_campaign_trial<O>(
        &self,
        overlay: &O,
        mask: &FailureMask,
        pairs: u64,
        pair_seed: u64,
    ) -> Option<CampaignTally>
    where
        O: Overlay + ?Sized,
    {
        self.run_routed(overlay, mask, pairs, pair_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_id::KeySpace;
    use dht_overlay::{ChordOverlay, ChordVariant, FailurePlan, KademliaOverlay};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn histogram_records_and_merges_elementwise() {
        let mut a = StuckDepthHistogram::default();
        a.record(0);
        a.record(2);
        a.record(2);
        let mut b = StuckDepthHistogram::default();
        b.record(2);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(a.count_at(0), 1);
        assert_eq!(a.count_at(2), 3);
        assert_eq!(a.count_at(5), 1);
        assert_eq!(a.max_depth(), Some(5));
        assert!((a.mean_depth() - 11.0 / 5.0).abs() < 1e-12);
        assert_eq!(StuckDepthHistogram::default().max_depth(), None);
        assert_eq!(StuckDepthHistogram::default().mean_depth(), 0.0);
    }

    #[test]
    fn campaign_trial_embeds_the_exact_plain_tally() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let overlay = KademliaOverlay::build(9, &mut rng).unwrap();
        let plan = FailurePlan::SegmentCorrelated {
            fraction: 0.35,
            segments: 6,
        };
        let mask = plan.lower(&overlay, 77);
        let engine = TrialEngine::new(3);
        let campaign = engine
            .run_campaign_trial(&overlay, &mask, 6_000, 13)
            .unwrap();
        let plain = engine.run_trial(&overlay, &mask, 6_000, 13).unwrap();
        assert_eq!(campaign.trial, plain);
        assert_eq!(campaign.stuck_depth.total(), plain.dropped);
    }

    #[test]
    fn campaign_tallies_are_invariant_under_thread_count() {
        let overlay = ChordOverlay::build(9, ChordVariant::Deterministic).unwrap();
        let plan = FailurePlan::AdaptiveAdversary {
            fraction: 0.3,
            rounds: 4,
        };
        let mask = plan.lower(&overlay, 3);
        let reference = TrialEngine::new(1).run_campaign_trial(&overlay, &mask, 8_000, 21);
        for threads in [2, 8] {
            let tally = TrialEngine::new(threads).run_campaign_trial(&overlay, &mask, 8_000, 21);
            assert_eq!(reference, tally, "threads = {threads}");
        }
    }

    #[test]
    fn stuck_depths_stay_below_the_hop_limit() {
        let overlay = ChordOverlay::build(8, ChordVariant::Deterministic).unwrap();
        let mask = FailurePlan::Cascade {
            seed_fraction: 0.2,
            propagation: 0.4,
        }
        .lower(&overlay, 9);
        let tally = TrialEngine::new(2)
            .run_campaign_trial(&overlay, &mask, 4_000, 1)
            .unwrap();
        assert!(tally.trial.dropped > 0, "cascade at 20% seeds drops");
        let limit = dht_overlay::default_route_hop_limit(&overlay);
        assert!(tally.stuck_depth.max_depth().unwrap() < limit);
    }

    /// Campaigns on the implicit backend run the engine's batched implicit
    /// arm, not a scalar fallback: against the materialized twin of the same
    /// stream seed, under a correlated mask lowered on the twin, the whole
    /// campaign tally matches at every thread count.
    #[test]
    fn implicit_campaigns_tally_identically_to_the_materialized_twin() {
        use dht_overlay::ImplicitOverlay;

        let stream_seed = 19;
        let rng = || ChaCha8Rng::seed_from_u64(stream_seed);
        let plan = FailurePlan::SegmentCorrelated {
            fraction: 0.3,
            segments: 8,
        };
        let twins: [(Box<dyn Overlay>, Box<dyn Overlay>); 2] = [
            (
                Box::new(ChordOverlay::build_randomized(12, &mut rng()).unwrap()),
                Box::new(ImplicitOverlay::ring(12, ChordVariant::Randomized, stream_seed).unwrap()),
            ),
            (
                Box::new(KademliaOverlay::build(12, &mut rng()).unwrap()),
                Box::new(ImplicitOverlay::xor(12, stream_seed).unwrap()),
            ),
        ];
        for (materialized, implicit) in &twins {
            assert!(implicit.kernel().is_none() && implicit.implicit_kernel().is_some());
            let mask = plan.lower(materialized.as_ref(), 5);
            for threads in [1, 2, 5] {
                let engine = TrialEngine::new(threads);
                let reference = engine.run_campaign_trial(materialized.as_ref(), &mask, 20_000, 7);
                assert!(reference.as_ref().is_some_and(|t| t.trial.dropped > 0));
                assert_eq!(
                    engine.run_campaign_trial(implicit.as_ref(), &mask, 20_000, 7),
                    reference,
                    "{} at {threads} threads",
                    implicit.geometry_name()
                );
            }
        }
    }

    #[test]
    fn campaign_tallies_round_trip_through_json() {
        let space = KeySpace::new(4).unwrap();
        let mut tally = CampaignTally::default();
        tally.record(RouteOutcome::Delivered { hops: 3 });
        tally.record(RouteOutcome::Dropped {
            hops: 2,
            stuck_at: space.wrap(7),
        });
        let json = serde_json::to_string(&tally).unwrap();
        let back: CampaignTally = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tally);
    }
}
