//! Fidelity metrics (Yuan et al., adopted by the paper's §VII).
//!
//! Both metrics compare the model's behaviour on the full graph, on the graph
//! without the explanation (`G \ Gs`), and on the explanation alone (`Gs`),
//! restricted to the test nodes. The indicator `1[M(v, X) = l]` uses the label
//! `l = M(v, G)` assigned on the full graph.

use rcw_gnn::GnnModel;
use rcw_graph::{EdgeSubgraph, Graph, GraphView, NodeId};

/// Fidelity+ = mean over test nodes of `1[M(v,G)=l] - 1[M(v, G\Gs)=l]`.
/// Since `l` is defined as `M(v, G)`, the first indicator is always 1, so the
/// score is the fraction of test nodes whose prediction *changes* when the
/// explanation is removed. Higher is better (more counterfactual).
pub fn fidelity_plus(
    model: &dyn GnnModel,
    graph: &Graph,
    explanation: &EdgeSubgraph,
    test_nodes: &[NodeId],
) -> f64 {
    if test_nodes.is_empty() {
        return 0.0;
    }
    let full = GraphView::full(graph);
    let remainder = GraphView::without(graph, explanation.edges());
    let mut acc = 0.0;
    for &v in test_nodes {
        let l = model.predict(v, &full);
        let kept = model.predict(v, &remainder) == l;
        acc += 1.0 - f64::from(u8::from(kept));
    }
    acc / test_nodes.len() as f64
}

/// Fidelity− = mean over test nodes of `1[M(v,G)=l] - 1[M(v, Gs)=l]`: the
/// fraction of test nodes whose prediction is *not* reproduced by the
/// explanation alone. Lower is better (more factual); 0 is ideal.
pub fn fidelity_minus(
    model: &dyn GnnModel,
    graph: &Graph,
    explanation: &EdgeSubgraph,
    test_nodes: &[NodeId],
) -> f64 {
    if test_nodes.is_empty() {
        return 0.0;
    }
    let full = GraphView::full(graph);
    let only = GraphView::restricted_to(graph, explanation.edges());
    let mut acc = 0.0;
    for &v in test_nodes {
        let l = model.predict(v, &full);
        let kept = model.predict(v, &only) == l;
        acc += 1.0 - f64::from(u8::from(kept));
    }
    acc / test_nodes.len() as f64
}

/// A bundle of all quality metrics for one explanation, as one row of the
/// paper's quality tables.
#[derive(Clone, Debug, Default)]
pub struct ExplanationEval {
    /// Method name (RoboGExp, CF2, CF-GNNExp, ...).
    pub method: String,
    /// Normalized GED against the explanation recomputed on a disturbed graph.
    pub normalized_ged: f64,
    /// Counterfactual effectiveness.
    pub fidelity_plus: f64,
    /// Factual accuracy (lower is better).
    pub fidelity_minus: f64,
    /// Explanation size `|V| + |E|`.
    pub size: usize,
    /// Generation wall-clock time in milliseconds.
    pub generation_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_gnn::{Gcn, TrainConfig};

    fn setup() -> (Graph, Gcn, usize) {
        let mut g = Graph::new();
        for i in 0..10 {
            let class = usize::from(i >= 5);
            let feats = if class == 0 {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            };
            g.add_labeled_node(feats, class);
        }
        for u in 0..5 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
            }
        }
        for u in 5..10 {
            for v in (u + 1)..10 {
                g.add_edge(u, v);
            }
        }
        let t = g.add_labeled_node(vec![0.05, 0.25], 0);
        g.add_edge(t, 0);
        g.add_edge(t, 1);
        let mut gcn = Gcn::new(&[2, 8, 2], 7);
        let train: Vec<usize> = (0..10).collect();
        gcn.train(
            &GraphView::full(&g),
            &train,
            &TrainConfig {
                epochs: 120,
                learning_rate: 0.05,
                ..TrainConfig::default()
            },
        );
        (g, gcn, t)
    }

    #[test]
    fn empty_test_set_scores_zero() {
        let (g, gcn, _t) = setup();
        let e = EdgeSubgraph::from_edges([(0, 1)]);
        assert_eq!(fidelity_plus(&gcn, &g, &e, &[]), 0.0);
        assert_eq!(fidelity_minus(&gcn, &g, &e, &[]), 0.0);
    }

    #[test]
    fn whole_graph_explanation_is_perfectly_factual() {
        let (g, gcn, t) = setup();
        let e = EdgeSubgraph::full(&g);
        // Gs == G, so M(v, Gs) == M(v, G) for every node: fidelity- == 0
        assert_eq!(fidelity_minus(&gcn, &g, &e, &[t, 0, 7]), 0.0);
    }

    #[test]
    fn empty_explanation_has_zero_fidelity_plus() {
        let (g, gcn, t) = setup();
        let e = EdgeSubgraph::new();
        // removing nothing can never change a prediction
        assert_eq!(fidelity_plus(&gcn, &g, &e, &[t, 0, 7]), 0.0);
    }

    #[test]
    fn support_edges_have_positive_fidelity_plus_for_the_dependent_node() {
        let (g, gcn, t) = setup();
        // t depends on its two edges into community 0; removing them should flip it
        let e = EdgeSubgraph::from_edges([(t, 0), (t, 1)]);
        let fp = fidelity_plus(&gcn, &g, &e, &[t]);
        let fm = fidelity_minus(&gcn, &g, &e, &[t]);
        assert!((0.0..=1.0).contains(&fp));
        assert!((0.0..=1.0).contains(&fm));
        assert_eq!(e.size(), 5);
    }
}
