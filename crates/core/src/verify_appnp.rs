//! Tractable k-RCW verification for APPNP under (k, b)-disturbances
//! (Algorithm 1, `verifyRCW-APPNP`).
//!
//! The verifier first runs the PTIME `verifyW` / `verifyCW` checks, then — per
//! Lemma 4 — only needs to examine the *single worst* (k, b)-disturbance for
//! every competitor class `c != l`: the one that maximizes
//! `pi_E(v)^T (H[:, c] - H[:, l])`. That disturbance is found with the greedy
//! policy-iteration search (`rcw-pagerank::pri_search`), and its effect is
//! confirmed with two inference calls (the disturbed graph must keep label
//! `l`, and the disturbed remainder must still flip it).
//!
//! `H = f_theta(X)` comes from the model itself ([`Appnp::local_logits`],
//! cached per feature epoch), the same rows its localized inference reads.
//! One [`KernelScratch`] is threaded through every inference call of a
//! verification.

use crate::config::RcwConfig;
use crate::engine::EngineCaches;
use crate::model::DisturbanceSearch;
use crate::verify::{
    candidate_pairs, candidate_pairs_bounded, disturbance_preserves_cw_with,
    verify_counterfactual_with, verify_factual_with,
};
use crate::witness::{VerifyOutcome, Witness, WitnessLevel};
use rcw_gnn::{Appnp, GnnModel, KernelScratch};
use rcw_graph::{Edge, EdgeSet, Graph, GraphView, NodeId};
use rcw_pagerank::{pri_search, truncate_to_k, PriConfig};

/// Verifies that `witness` is a k-RCW for a *single* test node under
/// (k, b)-disturbances, using the APPNP-specific policy-iteration search.
pub fn verify_rcw_appnp_node(
    appnp: &Appnp,
    graph: &Graph,
    witness: &Witness,
    node: NodeId,
    cfg: &RcwConfig,
) -> VerifyOutcome {
    verify_rcw_appnp_node_ctx(appnp, graph, witness, node, cfg, None)
}

/// [`verify_rcw_appnp_node`] over an engine's shared cache tier (k-hop
/// neighborhoods, PPR rows for candidate pruning). Bit-identical to the
/// standalone entry point — the caches only remove recomputation.
pub fn verify_rcw_appnp_node_ctx(
    appnp: &Appnp,
    graph: &Graph,
    witness: &Witness,
    node: NodeId,
    cfg: &RcwConfig,
    caches: Option<&EngineCaches>,
) -> VerifyOutcome {
    verify_node_with(
        appnp,
        graph,
        witness,
        node,
        cfg,
        caches,
        &mut KernelScratch::default(),
    )
}

/// The per-node verifier body over caller-provided kernel scratch buffers.
fn verify_node_with(
    appnp: &Appnp,
    graph: &Graph,
    witness: &Witness,
    node: NodeId,
    cfg: &RcwConfig,
    caches: Option<&EngineCaches>,
    scratch: &mut KernelScratch,
) -> VerifyOutcome {
    let label = witness
        .label_of(node)
        .expect("verify_rcw_appnp_node: node is not a test node of the witness");
    let single = Witness::new(witness.subgraph.clone(), vec![node], vec![label]);

    let (factual, calls_f) = verify_factual_with(appnp, graph, &single, scratch);
    if !factual {
        return VerifyOutcome {
            level: WitnessLevel::NotAWitness,
            counterexample: None,
            inference_calls: calls_f,
            disturbances_checked: 0,
        };
    }
    let (cw, calls_cw) = verify_counterfactual_with(appnp, graph, &single, scratch);
    let calls = calls_f + calls_cw;
    if !cw {
        return VerifyOutcome {
            level: WitnessLevel::Factual,
            counterexample: None,
            inference_calls: calls,
            disturbances_checked: 0,
        };
    }
    if cfg.k == 0 {
        return VerifyOutcome {
            level: WitnessLevel::Robust,
            counterexample: None,
            inference_calls: calls,
            disturbances_checked: 0,
        };
    }

    let candidates = match caches {
        Some(caches) => {
            let hood = caches.hood(graph, &[node], cfg.candidate_hops);
            candidate_pairs_bounded(
                graph,
                witness.edges(),
                &[node],
                &hood,
                cfg,
                Some(caches.ppr()),
            )
        }
        None => candidate_pairs(graph, witness.edges(), &[node], cfg),
    };
    let search = pri_check_node(appnp, graph, &single, &candidates, cfg, scratch);
    VerifyOutcome {
        level: if search.counterexample.is_some() {
            WitnessLevel::Counterfactual
        } else {
            WitnessLevel::Robust
        },
        counterexample: search.counterexample,
        inference_calls: calls + search.inference_calls,
        disturbances_checked: search.disturbances_checked,
    }
}

/// Algorithm 1's robustness phase for the one test node of `single`: for
/// every competitor class `c != l`, the worst admissible disturbance the
/// greedy PRI search finds over `candidates`, confirmed with two inference
/// calls. Stops at the first disturbance that breaks the witness. Shared by
/// verification and the parallel workers' disturbance search.
pub(crate) fn pri_check_node(
    appnp: &Appnp,
    graph: &Graph,
    single: &Witness,
    candidates: &[Edge],
    cfg: &RcwConfig,
    scratch: &mut KernelScratch,
) -> DisturbanceSearch {
    let (node, label) = (single.test_nodes[0], single.labels[0]);
    let full = GraphView::full(graph);
    let h = appnp.local_logits(graph);
    let pri_cfg = PriConfig {
        alpha: appnp.alpha(),
        local_budget: cfg.local_budget.max(1),
        max_rounds: cfg.pri_rounds,
        value_iters: cfg.ppr_iters,
    };
    let mut report = DisturbanceSearch::default();
    for c in 0..appnp.num_classes() {
        if c == label {
            continue;
        }
        // Objective direction: make class c overtake label l at `node`.
        let r: Vec<f64> = (0..graph.num_nodes())
            .map(|u| h.get(u, c) - h.get(u, label))
            .collect();
        let mut e_star: EdgeSet = pri_search(&full, candidates, &r, node, &pri_cfg).disturbance;
        if e_star.len() > cfg.k {
            // Keep the best-k subset as the candidate counterexample (the
            // strict reading of Algorithm 1 would reject outright; truncating
            // keeps the verifier useful inside the generator while remaining
            // sound: the truncated set is a valid (k, b)-disturbance).
            e_star = truncate_to_k(&full, &e_star, &r, appnp.alpha(), cfg.k);
        }
        if e_star.is_empty() {
            continue;
        }
        report.disturbances_checked += 1;
        let (ok, calls) = disturbance_preserves_cw_with(appnp, graph, single, &e_star, scratch);
        report.inference_calls += calls;
        if !ok {
            report.counterexample = Some(e_star);
            break;
        }
    }
    report
}

/// Verifies a witness against *all* of its test nodes (the configuration's
/// `VT`), returning the weakest per-node outcome together with the first
/// counterexample found.
pub fn verify_rcw_appnp(
    appnp: &Appnp,
    graph: &Graph,
    witness: &Witness,
    cfg: &RcwConfig,
) -> VerifyOutcome {
    verify_rcw_appnp_ctx(appnp, graph, witness, cfg, None)
}

/// [`verify_rcw_appnp`] over an engine's shared cache tier; one kernel
/// scratch serves every test node.
pub fn verify_rcw_appnp_ctx(
    appnp: &Appnp,
    graph: &Graph,
    witness: &Witness,
    cfg: &RcwConfig,
    caches: Option<&EngineCaches>,
) -> VerifyOutcome {
    let mut scratch = KernelScratch::default();
    let mut total_calls = 0usize;
    let mut total_checked = 0usize;
    let mut weakest = WitnessLevel::Robust;
    let mut counterexample = None;
    for &v in &witness.test_nodes {
        let out = verify_node_with(appnp, graph, witness, v, cfg, caches, &mut scratch);
        total_calls += out.inference_calls;
        total_checked += out.disturbances_checked;
        if out.level.rank() < weakest.rank() {
            weakest = out.level;
            if counterexample.is_none() {
                counterexample = out.counterexample;
            }
        }
        if weakest == WitnessLevel::NotAWitness {
            break;
        }
    }
    VerifyOutcome {
        level: weakest,
        counterexample,
        inference_calls: total_calls,
        disturbances_checked: total_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_counterfactual;
    use rcw_gnn::TrainConfig;
    use rcw_graph::EdgeSubgraph;

    /// Two cliques bridged at a featureless test node; an APPNP trained on the
    /// clique nodes.
    fn setup() -> (Graph, Appnp, usize) {
        let mut g = Graph::new();
        for i in 0..12 {
            let class = usize::from(i >= 6);
            let feats = if class == 0 {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            };
            g.add_labeled_node(feats, class);
        }
        for u in 0..6 {
            for v in (u + 1)..6 {
                g.add_edge(u, v);
            }
        }
        for u in 6..12 {
            for v in (u + 1)..12 {
                g.add_edge(u, v);
            }
        }
        let t = g.add_labeled_node(vec![0.05, 0.25], 0);
        g.add_edge(t, 0);
        g.add_edge(t, 1);
        g.add_edge(t, 2);
        // a weak tie to the other community so disturbances have room to act
        g.add_edge(t, 6);
        let mut appnp = Appnp::new(&[2, 8, 2], 0.2, 15, 5);
        let view = GraphView::full(&g);
        let train: Vec<usize> = (0..12).collect();
        appnp.train(
            &view,
            &train,
            &TrainConfig {
                epochs: 150,
                learning_rate: 0.05,
                ..TrainConfig::default()
            },
        );
        (g, appnp, t)
    }

    fn witness_of(g: &Graph, m: &Appnp, t: usize, edges: &[(usize, usize)]) -> Witness {
        let l = m.predict(t, &GraphView::full(g)).unwrap();
        Witness::new(
            EdgeSubgraph::from_edges(edges.iter().copied()),
            vec![t],
            vec![l],
        )
    }

    #[test]
    fn non_factual_witness_is_rejected_early() {
        let (g, appnp, t) = setup();
        let w = witness_of(&g, &appnp, t, &[(8, 9)]);
        let out = verify_rcw_appnp_node(&appnp, &g, &w, t, &RcwConfig::with_budgets(2, 1));
        // an edge inside the other community cannot be a counterfactual
        // witness for t; the verifier must stop before the robustness phase
        assert!(!out.is_counterfactual(), "unexpected level {:?}", out.level);
        assert_eq!(out.disturbances_checked, 0);
    }

    #[test]
    fn strong_witness_reaches_at_least_cw() {
        let (g, appnp, t) = setup();
        let w = witness_of(
            &g,
            &appnp,
            t,
            &[(t, 0), (t, 1), (t, 2), (0, 1), (0, 2), (1, 2)],
        );
        let cfg = RcwConfig::with_budgets(1, 1);
        let out = verify_rcw_appnp_node(&appnp, &g, &w, t, &cfg);
        assert!(
            out.is_counterfactual() || out.level == WitnessLevel::Factual,
            "a witness containing all of t's class-0 support should be at least factual, got {:?}",
            out.level
        );
    }

    #[test]
    fn verifier_spends_inference_calls_and_checks_disturbances() {
        let (g, appnp, t) = setup();
        let w = witness_of(&g, &appnp, t, &[(t, 0), (t, 1), (t, 2)]);
        let cfg = RcwConfig::with_budgets(2, 1);
        let out = verify_rcw_appnp_node(&appnp, &g, &w, t, &cfg);
        assert!(out.inference_calls >= 2);
        if out.is_counterfactual() {
            // robustness analysis ran for the competitor class
            assert!(out.disturbances_checked <= appnp.num_classes());
        }
    }

    #[test]
    fn k_zero_is_equivalent_to_cw() {
        let (g, appnp, t) = setup();
        let w = witness_of(&g, &appnp, t, &[(t, 0), (t, 1), (t, 2)]);
        let out = verify_rcw_appnp_node(&appnp, &g, &w, t, &RcwConfig::with_budgets(0, 0));
        let (cw, _) = verify_counterfactual(&appnp, &g, &w);
        assert_eq!(out.is_robust(), cw);
    }

    #[test]
    fn counterexample_if_any_respects_budgets() {
        let (g, appnp, t) = setup();
        let w = witness_of(&g, &appnp, t, &[(t, 0)]);
        let cfg = RcwConfig::with_budgets(2, 1);
        let out = verify_rcw_appnp_node(&appnp, &g, &w, t, &cfg);
        if let Some(ce) = &out.counterexample {
            assert!(ce.len() <= cfg.k, "counterexample larger than k");
            // it must not touch witness edges
            assert!(ce.iter().all(|(u, v)| !w.edges().contains(u, v)));
        }
    }

    #[test]
    fn multi_node_verification_aggregates_the_weakest_level() {
        let (g, appnp, t) = setup();
        let l_t = appnp.predict(t, &GraphView::full(&g)).unwrap();
        let l_8 = appnp.predict(8, &GraphView::full(&g)).unwrap();
        // witness covers t's support but nothing relevant for node 8
        let w = Witness::new(
            EdgeSubgraph::from_edges([(t, 0), (t, 1), (t, 2)]),
            vec![t, 8],
            vec![l_t, l_8],
        );
        let out = verify_rcw_appnp(&appnp, &g, &w, &RcwConfig::with_budgets(1, 1));
        // node 8 cannot be factual over this witness (isolated from its clique),
        // so the aggregate level must degrade below Robust.
        assert!(out.level != WitnessLevel::Robust);
    }
}
