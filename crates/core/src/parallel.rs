//! paraRoboGExp — parallel witness generation for large graphs (Algorithm 3).
//!
//! The graph is fragmented with an inference-preserving edge-cut partition
//! (§VI): every worker owns one fragment, border nodes have their k-hop
//! neighborhoods replicated, and all workers share the adjacency bitmap `B`
//! plus a bitmap of already-verified node pairs so the coordinator never
//! re-verifies a disturbance a worker has already examined (Lemma 6: a local
//! disturbance that disproves robustness disproves it globally).
//!
//! Each expand–verify round proceeds as:
//! 1. **paraExpand / paraVerify** — every worker searches, inside its
//!    fragment's candidate pairs, for a disturbance that disproves the current
//!    witness (the model's [`VerifiableModel::search_disturbance`] strategy:
//!    policy iteration for APPNP, sampling otherwise) and reports the
//!    counterexample edges it wants absorbed into the witness;
//! 2. **synchronize** — the coordinator merges the verified-pair bitmaps,
//!    unions the workers' expansions into the global witness, and
//! 3. **coordinator verification** — re-verifies the merged witness globally,
//!    fanning the independent per-node checks across the workers, and decides
//!    whether to iterate or stop.

use crate::config::RcwConfig;
use crate::engine::EngineCaches;
use crate::generate::GenerationResult;
use crate::model::VerifiableModel;
use crate::session;
use rcw_gnn::{Appnp, GnnModel};
use rcw_graph::{Graph, NodeId};
use std::time::Duration;

/// Parallel-execution statistics, complementing
/// [`GenerationStats`](crate::GenerationStats).
#[derive(Clone, Debug, Default)]
pub struct ParallelStats {
    /// Number of workers used.
    pub workers: usize,
    /// Parallel expand–verify rounds.
    pub rounds: usize,
    /// Counterexamples discovered by workers across all rounds.
    pub local_counterexamples: usize,
    /// Node pairs recorded in the shared verified-pair bitmap.
    pub pairs_marked: usize,
    /// Bytes of bitmap state synchronized (communication-cost model).
    pub bytes_synchronized: usize,
    /// Wall-clock time spent inside parallel sections.
    pub parallel_time: Duration,
}

/// Result of a parallel generation run.
#[derive(Clone, Debug)]
pub struct ParallelGenerationResult {
    /// The witness and sequential-style statistics.
    pub result: GenerationResult,
    /// Parallel-execution statistics.
    pub parallel: ParallelStats,
}

/// The parallel generator. Like [`crate::RoboGExp`], generic over the
/// model's verification strategy; `M` is usually inferred from the
/// constructor.
///
/// A thin wrapper over the shared session code: the driver owns a private
/// [`EngineCaches`] instance, so the edge-cut partition and the test nodes'
/// k-hop neighborhoods are computed once and reused across *calls* (keyed by
/// the graph's mutation epoch), not just across expand–verify rounds.
pub struct ParaRoboGExp<'a, M: VerifiableModel + ?Sized = dyn GnnModel> {
    model: &'a M,
    cfg: RcwConfig,
    num_workers: usize,
    caches: EngineCaches,
}

impl<'a> ParaRoboGExp<'a, Appnp> {
    /// Creates a parallel generator for an APPNP classifier (tractable
    /// verification). Equivalent to [`ParaRoboGExp::new`].
    pub fn for_appnp(appnp: &'a Appnp, cfg: RcwConfig, num_workers: usize) -> Self {
        ParaRoboGExp::new(appnp, cfg, num_workers)
    }
}

impl<'a, M: VerifiableModel + ?Sized> ParaRoboGExp<'a, M> {
    /// Creates a parallel generator for any fixed deterministic GNN.
    pub fn new(model: &'a M, cfg: RcwConfig, num_workers: usize) -> Self {
        let caches = EngineCaches::new(&cfg);
        ParaRoboGExp {
            model,
            cfg,
            num_workers: num_workers.max(1),
            caches,
        }
    }

    /// Alias of [`ParaRoboGExp::new`]. Accepts concrete models and `&dyn
    /// GnnModel` trait objects alike.
    pub fn for_model(model: &'a M, cfg: RcwConfig, num_workers: usize) -> Self {
        ParaRoboGExp::new(model, cfg, num_workers)
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.num_workers
    }

    /// The driver's shared cache tier (inspection and tests).
    pub fn caches(&self) -> &EngineCaches {
        &self.caches
    }

    /// Generates a witness using the coordinator/worker scheme: one parallel
    /// session over the driver's cache tier, so a second call on the same
    /// (unmutated) graph reuses the partition and neighborhoods.
    ///
    /// # Panics
    /// Panics if `test_nodes` is empty or contains an invalid node id.
    pub fn generate(&self, graph: &Graph, test_nodes: &[NodeId]) -> ParallelGenerationResult {
        session::run_parallel(
            self.model,
            graph,
            &self.caches,
            &self.cfg,
            self.num_workers,
            test_nodes,
            None,
            &session::SessionBudget::unlimited(),
        )
        .expect("unlimited session budget cannot expire")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::RoboGExp;
    use crate::witness::WitnessLevel;
    use rcw_gnn::{Gcn, TrainConfig};
    use rcw_graph::GraphView;

    fn setup() -> (Graph, Gcn, Appnp, Vec<usize>) {
        let mut g = Graph::new();
        for i in 0..16 {
            let class = usize::from(i >= 8);
            let feats = if class == 0 {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            };
            g.add_labeled_node(feats, class);
        }
        for u in 0..8 {
            for v in (u + 1)..8 {
                if (u + v) % 2 == 0 {
                    g.add_edge(u, v);
                }
            }
        }
        for u in 8..16 {
            for v in (u + 1)..16 {
                if (u + v) % 2 == 0 {
                    g.add_edge(u, v);
                }
            }
        }
        g.add_edge(7, 8);
        let t0 = g.add_labeled_node(vec![0.0, 0.0], 0);
        g.add_edge(t0, 0);
        g.add_edge(t0, 2);
        let t1 = g.add_labeled_node(vec![0.0, 0.0], 1);
        g.add_edge(t1, 8);
        g.add_edge(t1, 10);
        let view = GraphView::full(&g);
        let train: Vec<usize> = (0..16).collect();
        let tc = TrainConfig {
            epochs: 120,
            learning_rate: 0.05,
            ..TrainConfig::default()
        };
        let mut gcn = Gcn::new(&[2, 8, 2], 2);
        gcn.train(&view, &train, &tc);
        let mut appnp = Appnp::new(&[2, 8, 2], 0.2, 12, 4);
        appnp.train(&view, &train, &tc);
        (g, gcn, appnp, vec![t0, t1])
    }

    #[test]
    fn parallel_appnp_generation_produces_a_valid_witness() {
        let (g, _gcn, appnp, tests) = setup();
        let cfg = RcwConfig::with_budgets(2, 1);
        let gen = ParaRoboGExp::for_appnp(&appnp, cfg.clone(), 3);
        assert_eq!(gen.workers(), 3);
        let out = gen.generate(&g, &tests);
        assert!(out.parallel.rounds >= 1);
        assert!(out.result.stats.inference_calls > 0);
        for &t in &tests {
            assert!(out.result.witness.subgraph.contains_node(t));
        }
        // the parallel result must verify to the level it reports
        let seq = RoboGExp::for_appnp(&appnp, cfg);
        let recheck = seq.verify(&g, &out.result.witness);
        assert_eq!(recheck.level, out.result.level);
    }

    #[test]
    fn parallel_and_sequential_reach_comparable_levels() {
        let (g, _gcn, appnp, tests) = setup();
        let cfg = RcwConfig::with_budgets(2, 1);
        let seq = RoboGExp::for_appnp(&appnp, cfg.clone()).generate(&g, &tests);
        let par = ParaRoboGExp::for_appnp(&appnp, cfg, 2).generate(&g, &tests);
        let rank = |l: WitnessLevel| match l {
            WitnessLevel::NotAWitness => 0,
            WitnessLevel::Factual => 1,
            WitnessLevel::Counterfactual => 2,
            WitnessLevel::Robust => 3,
        };
        // The parallel algorithm explores at least as many disturbances, so it
        // must not end up in a strictly weaker class than sequential by more
        // than one level (both are best-effort searches).
        assert!(
            rank(par.result.level) + 1 >= rank(seq.level),
            "parallel {:?} vs sequential {:?}",
            par.result.level,
            seq.level
        );
    }

    #[test]
    fn generic_model_path_works_with_multiple_workers() {
        let (g, gcn, _appnp, tests) = setup();
        let cfg = RcwConfig {
            k: 2,
            local_budget: 1,
            sampled_disturbances: 6,
            ..RcwConfig::default()
        };
        // dispatch through the type-erased layer, as the bench harness does
        let model: &dyn GnnModel = &gcn;
        let out = ParaRoboGExp::for_model(model, cfg, 4).generate(&g, &tests);
        assert_eq!(out.parallel.workers, 4);
        assert!(out.result.witness.subgraph.is_subgraph_of(&g) || out.result.witness.size() > 0);
        assert!(out.parallel.bytes_synchronized > 0);
    }

    #[test]
    fn single_worker_degenerates_gracefully() {
        let (g, _gcn, appnp, tests) = setup();
        let cfg = RcwConfig::with_budgets(1, 1);
        let out = ParaRoboGExp::for_appnp(&appnp, cfg, 1).generate(&g, &tests);
        assert_eq!(out.parallel.workers, 1);
        assert!(out.result.witness.subgraph.num_edges() <= g.num_edges());
    }

    #[test]
    fn worker_reports_mark_examined_pairs() {
        let (g, _gcn, appnp, tests) = setup();
        let cfg = RcwConfig::with_budgets(2, 1);
        let out = ParaRoboGExp::for_appnp(&appnp, cfg, 2).generate(&g, &tests);
        // pairs_marked is monotone in rounds; with k>0 and candidates present
        // the workers must have examined something
        assert!(out.parallel.pairs_marked > 0 || out.result.level == WitnessLevel::Robust);
    }
}
