//! Worst-case classification margins for APPNP (Eq. 2 of the paper).
//!
//! For an APPNP classifier the propagated logit of node `v` for class `c` is
//! `pi(v)^T H[:, c]`, where `H` is the matrix of *local* (pre-propagation)
//! logits and `pi(v)` is `v`'s personalized-PageRank row over the evaluated
//! graph. The margin of the assigned label `l` against a competitor `c` under
//! a disturbance `E_k` is therefore
//!
//! ```text
//! m_{l,c}(v) = pi_{E_k}(v)^T ( H[:, l] - H[:, c] )
//! ```
//!
//! and node `v` is robust when the *worst-case* margin (minimum over all
//! admissible disturbances and all `c != l`) stays positive.

use crate::ppr::{ppr_row, DEFAULT_ITERS};
use rcw_gnn::Appnp;
use rcw_graph::{Csr, EdgeSet, GraphView, NodeId};
use rcw_linalg::Matrix;

/// Classification margin of `v` for label `l` against label `c`, evaluated on
/// the given view (which may already include a disturbance).
pub fn margin_on_view(
    appnp: &Appnp,
    view: &GraphView<'_>,
    local_logits: &Matrix,
    v: NodeId,
    label_l: usize,
    label_c: usize,
) -> f64 {
    let csr = Csr::from_view(view);
    margin_on_csr(appnp, &csr, local_logits, v, label_l, label_c)
}

/// Same as [`margin_on_view`] but over a pre-built CSR snapshot.
pub fn margin_on_csr(
    appnp: &Appnp,
    csr: &Csr,
    local_logits: &Matrix,
    v: NodeId,
    label_l: usize,
    label_c: usize,
) -> f64 {
    let pi = ppr_row(csr, v, appnp.alpha(), DEFAULT_ITERS);
    let mut m = 0.0;
    for (u, &p) in pi.iter().enumerate() {
        m += p * (local_logits.get(u, label_l) - local_logits.get(u, label_c));
    }
    m
}

/// Margin of `v` for `l` vs `c` after applying a disturbance (edge flips) on
/// top of `base_view`.
pub fn margin_under_disturbance(
    appnp: &Appnp,
    base_view: &GraphView<'_>,
    local_logits: &Matrix,
    disturbance: &EdgeSet,
    v: NodeId,
    label_l: usize,
    label_c: usize,
) -> f64 {
    let disturbed = base_view.flipped(disturbance);
    margin_on_view(appnp, &disturbed, local_logits, v, label_l, label_c)
}

/// The margin of `v`'s assigned label `l` against *all* other classes on a
/// view: `min_{c != l} m_{l,c}(v)`. Positive means the label is stable on
/// this particular view.
pub fn min_margin_all_classes(
    appnp: &Appnp,
    view: &GraphView<'_>,
    local_logits: &Matrix,
    v: NodeId,
    label_l: usize,
) -> f64 {
    let csr = Csr::from_view(view);
    let classes = local_logits.cols();
    let mut min = f64::INFINITY;
    for c in 0..classes {
        if c == label_l {
            continue;
        }
        min = min.min(margin_on_csr(appnp, &csr, local_logits, v, label_l, c));
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_gnn::{GnnModel, TrainConfig};
    use rcw_graph::Graph;

    /// Small two-community graph with an APPNP trained to separate them.
    fn trained_setup() -> (Graph, Appnp) {
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
        g.add_edge(4, 5);
        let mut appnp = Appnp::new(&[2, 8, 2], 0.2, 15, 3);
        let view = GraphView::full(&g);
        let nodes: Vec<usize> = (0..10).collect();
        appnp.train(
            &view,
            &nodes,
            &TrainConfig {
                epochs: 150,
                learning_rate: 0.05,
                ..TrainConfig::default()
            },
        );
        (g, appnp)
    }

    #[test]
    fn margin_sign_agrees_with_prediction() {
        let (g, appnp) = trained_setup();
        let view = GraphView::full(&g);
        let h = appnp.local_logits(&g);
        for v in 0..g.num_nodes() {
            let pred = appnp.predict(v, &view).unwrap();
            let other = 1 - pred;
            let m = margin_on_view(&appnp, &view, &h, v, pred, other);
            assert!(
                m > 0.0,
                "node {v}: margin {m} should be positive for its prediction"
            );
            let m_rev = margin_on_view(&appnp, &view, &h, v, other, pred);
            assert!(m_rev < 0.0);
        }
    }

    #[test]
    fn margin_matches_propagated_logit_difference() {
        // pi(v)^T (H_l - H_c) must equal Z[v][l] - Z[v][c] where Z are the
        // propagated APPNP logits (up to iteration tolerance).
        let (g, appnp) = trained_setup();
        let view = GraphView::full(&g);
        let h = appnp.local_logits(&g);
        let z = appnp.logits(&view);
        for v in [0usize, 4, 7] {
            let m = margin_on_view(&appnp, &view, &h, v, 0, 1);
            let expected = z.get(v, 0) - z.get(v, 1);
            assert!(
                (m - expected).abs() < 1e-4,
                "node {v}: margin {m} vs logit diff {expected}"
            );
        }
    }

    #[test]
    fn disturbance_can_reduce_the_margin() {
        let (g, appnp) = trained_setup();
        let view = GraphView::full(&g);
        let h = appnp.local_logits(&g);
        // node 4 sits at the boundary; rewiring it towards the other community
        // should reduce its class-0 margin
        let v = 4;
        let clean = margin_on_view(&appnp, &view, &h, v, 0, 1);
        let disturbance: EdgeSet = [
            (4usize, 6usize),
            (4usize, 7usize),
            (4usize, 8usize),
            (0usize, 4usize),
            (1usize, 4usize),
        ]
        .into_iter()
        .collect();
        let disturbed = margin_under_disturbance(&appnp, &view, &h, &disturbance, v, 0, 1);
        assert!(
            disturbed < clean,
            "adding cross-community edges must shrink the margin: {disturbed} vs {clean}"
        );
    }

    #[test]
    fn min_margin_is_at_most_any_single_margin() {
        let (g, appnp) = trained_setup();
        let view = GraphView::full(&g);
        let h = appnp.local_logits(&g);
        let v = 2;
        let l = appnp.predict(v, &view).unwrap();
        let min = min_margin_all_classes(&appnp, &view, &h, v, l);
        for c in 0..2 {
            if c != l {
                assert!(min <= margin_on_view(&appnp, &view, &h, v, l, c) + 1e-12);
            }
        }
    }
}
