//! The accuracy–latency SLO tier policy.
//!
//! Three ways to answer "how much did each fact contribute?", ordered by
//! accuracy: **exact** (compiled-circuit Shapley — the ground truth),
//! **learned** (the LearnShapley model — the paper's fast approximation),
//! and **sampled** (stratified permutation sampling — anytime, with CIs).
//! Their costs scale differently: exact explodes combinatorially with
//! lineage width, learned is linear in the number of facts (one forward
//! pass each), sampled is tunable per sample. Given a request's latency
//! budget the policy picks the *most accurate tier whose estimated cost
//! fits*, falling back to sampling sized to whatever budget remains.
//!
//! The cost model is deliberately a deterministic closed form of the
//! lineage dimensions and cache state (no runtime timing feedback): the
//! same request under the same store state always selects the same tier,
//! which keeps served responses reproducible and testable. Constants are
//! public fields calibrated against the wide-join workload (see
//! EXPERIMENTS.md); they encode cost *ordering*, not microsecond truth.
//!
//! The sampled constants now overestimate. They were fitted to a sampler
//! that re-evaluated the DNF after every arrival in a permutation; the flip
//! rule ([`crate::pivot_position`]) finds the same pivotal fact in one pass,
//! and on the wide-join tuples a sampled answer now runs about an order of
//! magnitude under its estimate (EXPERIMENTS.md). The constants stay as
//! they are on purpose: they set the sample counts, and so the bits of
//! every sampled answer, and the benchmark picks its tier bands with
//! `SloPolicy::default()`. Refitting them changes answers and is a change
//! of its own.

use std::time::Duration;

/// Which answer path served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Exact Shapley via the compiled-circuit store.
    Exact,
    /// Model inference (LearnShapley ranking head).
    Learned,
    /// Stratified permutation sampling with confidence intervals.
    Sampled,
}

impl Tier {
    /// Stable name for logs, tables and telemetry (the wire carries a tag byte).
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Exact => "exact",
            Tier::Learned => "learned",
            Tier::Sampled => "sampled",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What the circuit store already holds for a request's lineage shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheState {
    /// A compiled circuit for this shape is resident or persisted.
    pub circuit_cached: bool,
    /// Canonical Shapley scores are attached to the entry — exact becomes
    /// a renaming lookup.
    pub scores_cached: bool,
    /// A trained model is loaded (the learned tier is available at all).
    pub model_available: bool,
}

/// The tier chosen for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierDecision {
    /// Selected answer path.
    pub tier: Tier,
    /// Sample budget (0 unless `tier == Sampled`).
    pub samples: usize,
    /// The cost estimate (ns) that justified the choice.
    pub estimated_ns: f64,
}

/// Deterministic accuracy–latency selection policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SloPolicy {
    /// Fixed exact-path overhead (canonicalization, store probe).
    pub exact_base_ns: f64,
    /// Exact compile+count cost per `clauses · players²` unit.
    pub exact_ns_per_clause_player2: f64,
    /// Exact cost when canonical scores are already persisted.
    pub exact_cached_scores_ns: f64,
    /// Discount factor on the exact estimate when the circuit (but not the
    /// scores) is cached: compilation is skipped, counting is not.
    pub exact_cached_circuit_factor: f64,
    /// Fixed learned-path overhead (tokenization, batching).
    pub learned_base_ns: f64,
    /// Learned cost per fact (one model forward each).
    pub learned_ns_per_player: f64,
    /// Fixed sampled-path overhead.
    pub sampled_base_ns: f64,
    /// Sampled cost per `sample · players · clauses` unit.
    pub sampled_ns_per_sample_player_clause: f64,
    /// Sample floor (one Latin-hypercube batch).
    pub min_samples: usize,
    /// Sample ceiling.
    pub max_samples: usize,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            exact_base_ns: 5_000.0,
            exact_ns_per_clause_player2: 30.0,
            exact_cached_scores_ns: 2_000.0,
            exact_cached_circuit_factor: 0.4,
            learned_base_ns: 50_000.0,
            learned_ns_per_player: 8_000.0,
            sampled_base_ns: 10_000.0,
            sampled_ns_per_sample_player_clause: 1.5,
            min_samples: crate::sampler::BATCH,
            max_samples: 4_096,
        }
    }
}

impl SloPolicy {
    /// Estimated exact-tier cost for a lineage of `players` facts and
    /// `clauses` derivations under `cache`.
    pub fn exact_ns(&self, players: usize, clauses: usize, cache: CacheState) -> f64 {
        if cache.scores_cached {
            return self.exact_cached_scores_ns;
        }
        let work =
            self.exact_ns_per_clause_player2 * clauses as f64 * (players as f64) * (players as f64);
        let factor = if cache.circuit_cached {
            self.exact_cached_circuit_factor
        } else {
            1.0
        };
        self.exact_base_ns + work * factor
    }

    /// Estimated learned-tier cost.
    pub fn learned_ns(&self, players: usize) -> f64 {
        self.learned_base_ns + self.learned_ns_per_player * players as f64
    }

    /// Estimated sampled-tier cost at a given sample count.
    pub fn sampled_ns(&self, players: usize, clauses: usize, samples: usize) -> f64 {
        self.sampled_base_ns
            + self.sampled_ns_per_sample_player_clause
                * samples as f64
                * players as f64
                * clauses.max(1) as f64
    }

    /// Pick the most accurate tier fitting `budget`; below every threshold,
    /// sampling sized to the remaining budget (never under `min_samples` —
    /// an overloaded tight budget still gets one batch rather than nothing).
    pub fn choose(
        &self,
        players: usize,
        clauses: usize,
        budget: Duration,
        cache: CacheState,
    ) -> TierDecision {
        let budget_ns = budget.as_nanos() as f64;
        let exact = self.exact_ns(players, clauses, cache);
        if exact <= budget_ns {
            return TierDecision {
                tier: Tier::Exact,
                samples: 0,
                estimated_ns: exact,
            };
        }
        if cache.model_available {
            let learned = self.learned_ns(players);
            if learned <= budget_ns {
                return TierDecision {
                    tier: Tier::Learned,
                    samples: 0,
                    estimated_ns: learned,
                };
            }
        }
        let per_sample = self.sampled_ns_per_sample_player_clause
            * players.max(1) as f64
            * clauses.max(1) as f64;
        let affordable = ((budget_ns - self.sampled_base_ns) / per_sample).floor();
        let samples = (affordable.max(0.0) as usize).clamp(self.min_samples, self.max_samples);
        TierDecision {
            tier: Tier::Sampled,
            samples,
            estimated_ns: self.sampled_ns(players, clauses, samples),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIDE: (usize, usize) = (60, 30); // wide-join lineage dimensions

    fn cache(model: bool) -> CacheState {
        CacheState {
            circuit_cached: false,
            scores_cached: false,
            model_available: model,
        }
    }

    #[test]
    fn loose_budget_picks_exact() {
        let p = SloPolicy::default();
        let d = p.choose(WIDE.0, WIDE.1, Duration::from_millis(100), cache(true));
        assert_eq!(d.tier, Tier::Exact);
    }

    #[test]
    fn medium_budget_picks_learned() {
        let p = SloPolicy::default();
        let d = p.choose(WIDE.0, WIDE.1, Duration::from_millis(1), cache(true));
        assert_eq!(d.tier, Tier::Learned);
    }

    #[test]
    fn tight_budget_picks_sampled() {
        let p = SloPolicy::default();
        let d = p.choose(WIDE.0, WIDE.1, Duration::from_micros(100), cache(true));
        assert_eq!(d.tier, Tier::Sampled);
        assert!(d.samples >= p.min_samples);
    }

    #[test]
    fn cached_scores_make_exact_fit_any_budget() {
        let p = SloPolicy::default();
        let warm = CacheState {
            circuit_cached: true,
            scores_cached: true,
            model_available: true,
        };
        let d = p.choose(WIDE.0, WIDE.1, Duration::from_micros(100), warm);
        assert_eq!(d.tier, Tier::Exact);
    }

    #[test]
    fn small_lineages_are_exact_even_when_tight() {
        let p = SloPolicy::default();
        let d = p.choose(4, 2, Duration::from_micros(100), cache(true));
        assert_eq!(d.tier, Tier::Exact);
    }

    #[test]
    fn no_model_skips_the_learned_tier() {
        let p = SloPolicy::default();
        let d = p.choose(WIDE.0, WIDE.1, Duration::from_millis(1), cache(false));
        assert_eq!(d.tier, Tier::Sampled);
    }

    #[test]
    fn sample_budget_scales_with_slack() {
        let p = SloPolicy::default();
        let tight = p.choose(WIDE.0, WIDE.1, Duration::from_micros(50), cache(false));
        let roomy = p.choose(WIDE.0, WIDE.1, Duration::from_micros(900), cache(false));
        assert!(roomy.samples > tight.samples);
        assert!(roomy.samples <= p.max_samples);
    }
}
