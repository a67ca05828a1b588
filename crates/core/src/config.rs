//! Configuration of verification and generation runs.
//!
//! The paper packages its inputs as a configuration
//! `C = (G, Gs, VT, M, k)`; [`RcwConfig`] holds the scalar part of that tuple
//! (the budgets and search knobs), while graphs, witnesses, test nodes and
//! models are passed explicitly to the verification / generation entry points
//! so they can be borrowed rather than owned.

use rcw_graph::DisturbanceStrategy;

/// Budgets and search parameters for k-RCW verification and generation.
#[derive(Clone, Debug)]
pub struct RcwConfig {
    /// Global disturbance budget `k`: the adversary may flip at most `k`
    /// node pairs outside the witness. `k = 0` degenerates to plain
    /// counterfactual-witness verification.
    pub k: usize,
    /// Local budget `b` of the (k, b)-disturbance model: at most `b` flips
    /// incident to any single node. The tractable APPNP verification requires
    /// `b >= 1`.
    pub local_budget: usize,
    /// Which node pairs the adversary may flip. The paper's experiments use a
    /// removal-dominant strategy; [`DisturbanceStrategy::Mixed`] also exposes
    /// insertion candidates near the test nodes.
    pub strategy: DisturbanceStrategy,
    /// Number of hops around a test node considered when collecting candidate
    /// pairs (defaults to the classifier depth `L` plus one).
    pub candidate_hops: usize,
    /// Cap on insertion candidates per test node (insertions grow
    /// quadratically; removals are never capped).
    pub max_insert_candidates: usize,
    /// For non-APPNP models the robustness check samples this many random
    /// disturbances per test node when exhaustive enumeration is infeasible.
    pub sampled_disturbances: usize,
    /// Exhaustive enumeration threshold: if the number of candidate pairs is
    /// at most this, the generic verifier enumerates all `<= k` disturbances
    /// instead of sampling.
    pub exhaustive_limit: usize,
    /// Upper bound `m` on the candidate-pair pool. Dense neighborhoods grow
    /// quadratically many pairs; beyond this bound the pool is pruned to the
    /// `m` pairs carrying the most personalized-PageRank mass from the test
    /// nodes (the pairs a disturbance can use to move the most PPR weight).
    /// The default is high enough that sparse graphs never hit it.
    pub max_candidate_pairs: usize,
    /// Maximum expand–verify rounds per test node during generation before
    /// falling back to the trivial witness.
    pub max_expand_rounds: usize,
    /// PRI policy-iteration rounds (APPNP path).
    pub pri_rounds: usize,
    /// Fixed-point iterations for PPR/value-function evaluations.
    pub ppr_iters: usize,
    /// Seed for any randomized sampling.
    pub seed: u64,
}

impl Default for RcwConfig {
    fn default() -> Self {
        RcwConfig {
            k: 5,
            local_budget: 2,
            strategy: DisturbanceStrategy::RemovalOnly,
            candidate_hops: 3,
            max_insert_candidates: 32,
            sampled_disturbances: 24,
            exhaustive_limit: 10,
            max_candidate_pairs: 256,
            max_expand_rounds: 8,
            pri_rounds: 8,
            ppr_iters: 40,
            seed: 7,
        }
    }
}

impl RcwConfig {
    /// Convenience constructor fixing the two budgets and keeping defaults for
    /// the search knobs.
    pub fn with_budgets(k: usize, local_budget: usize) -> Self {
        RcwConfig {
            k,
            local_budget,
            ..RcwConfig::default()
        }
    }

    /// Returns a copy with a different disturbance strategy.
    pub fn with_strategy(mut self, strategy: DisturbanceStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Returns a copy with a different candidate-pair bound `m`.
    pub fn with_max_candidate_pairs(mut self, m: usize) -> Self {
        self.max_candidate_pairs = m;
        self
    }

    /// Basic sanity checks; called by the entry points.
    pub fn validate(&self) -> Result<(), String> {
        if self.k > 0 && self.local_budget == 0 {
            return Err("local_budget must be >= 1 when k > 0".to_string());
        }
        if self.candidate_hops == 0 {
            return Err("candidate_hops must be >= 1".to_string());
        }
        if self.max_candidate_pairs == 0 {
            return Err("max_candidate_pairs must be >= 1".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(RcwConfig::default().validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let cfg = RcwConfig::with_budgets(10, 3).with_strategy(DisturbanceStrategy::Mixed);
        assert_eq!(cfg.k, 10);
        assert_eq!(cfg.local_budget, 3);
        assert_eq!(cfg.strategy, DisturbanceStrategy::Mixed);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut cfg = RcwConfig::with_budgets(5, 0);
        assert!(cfg.validate().is_err());
        cfg.local_budget = 1;
        cfg.candidate_hops = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn k_zero_allows_zero_local_budget() {
        let cfg = RcwConfig::with_budgets(0, 0);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn candidate_pair_bound_is_validated_and_buildable() {
        let cfg = RcwConfig::default().with_max_candidate_pairs(64);
        assert_eq!(cfg.max_candidate_pairs, 64);
        assert!(cfg.validate().is_ok());
        assert!(RcwConfig::default()
            .with_max_candidate_pairs(0)
            .validate()
            .is_err());
    }
}
