//! Personalized PageRank (PPR).
//!
//! The APPNP propagation operator and the paper's robustness machinery are
//! both built on the PPR matrix
//! `Pi = (1 - alpha) * (I - alpha * D^{-1} (A + I))^{-1}`
//! (self-loops included, matching the APPNP implementation in `rcw-gnn`).
//! This module provides the exact dense computation (small graphs, tests) and
//! iterative row/value computations (everything else).

use rcw_graph::{Csr, GraphView, NodeId};
use rcw_linalg::{solve, Matrix};

/// Builds the row-stochastic propagation matrix `P = D^{-1}(A + I)` of a view.
pub fn propagation_matrix(view: &GraphView<'_>) -> Matrix {
    let n = view.num_nodes();
    let mut p = Matrix::zeros(n, n);
    for u in 0..n {
        let nbrs = view.neighbors(u);
        let d = nbrs.len() as f64 + 1.0;
        p.set(u, u, 1.0 / d);
        for v in nbrs {
            p.set(u, v, 1.0 / d);
        }
    }
    p
}

/// Exact PPR matrix `Pi = (1-alpha)(I - alpha P)^{-1}` via dense solve.
/// Suitable for graphs up to a few hundred nodes (tests, case studies).
pub fn ppr_matrix_exact(view: &GraphView<'_>, alpha: f64) -> Matrix {
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "ppr_matrix_exact: alpha in (0,1)"
    );
    let n = view.num_nodes();
    let p = propagation_matrix(view);
    let system = Matrix::identity(n).sub(&p.scale(alpha));
    let inv =
        solve::invert(&system).expect("(I - alpha*P) is diagonally dominant, hence invertible");
    inv.scale(1.0 - alpha)
}

/// One personalized-PageRank row `pi(v)` computed iteratively:
/// `pi_v = (1-alpha) e_v + alpha * pi_v P` (a row-vector fixed point).
pub fn ppr_row(csr: &Csr, v: NodeId, alpha: f64, iters: usize) -> Vec<f64> {
    assert!(alpha > 0.0 && alpha < 1.0, "ppr_row: alpha in (0,1)");
    let n = csr.num_nodes();
    assert!(v < n, "ppr_row: node out of range");
    let mut pi = vec![0.0; n];
    pi[v] = 1.0 - alpha;
    let mut buf = vec![0.0; n];
    for _ in 0..iters {
        // buf = pi * P  (row vector times row-stochastic matrix)
        buf.fill(0.0);
        for u in 0..n {
            if pi[u] == 0.0 {
                continue;
            }
            let w = pi[u] / (csr.degree(u) as f64 + 1.0);
            buf[u] += w;
            for &t in csr.neighbors(u) {
                buf[t] += w;
            }
        }
        for (i, value) in pi.iter_mut().enumerate() {
            let teleport = if i == v { 1.0 - alpha } else { 0.0 };
            *value = teleport + alpha * buf[i];
        }
    }
    pi
}

/// The value function `X = (I - alpha P)^{-1} r`, i.e. the fixed point of
/// `X = r + alpha * P X`. Used by the policy-iteration disturbance search:
/// the PPR-weighted objective satisfies `pi(v)^T r = (1-alpha) * X[v]`.
pub fn value_function(csr: &Csr, r: &[f64], alpha: f64, iters: usize) -> Vec<f64> {
    assert!(alpha > 0.0 && alpha < 1.0, "value_function: alpha in (0,1)");
    let n = csr.num_nodes();
    assert_eq!(r.len(), n, "value_function: r length mismatch");
    let mut x = r.to_vec();
    let mut buf = vec![0.0; n];
    for _ in 0..iters {
        // buf = P x
        for u in 0..n {
            let d = csr.degree(u) as f64 + 1.0;
            let mut acc = x[u];
            for &t in csr.neighbors(u) {
                acc += x[t];
            }
            buf[u] = acc / d;
        }
        for i in 0..n {
            x[i] = r[i] + alpha * buf[i];
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_graph::{generators, Graph};

    fn path3() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g
    }

    #[test]
    fn propagation_matrix_is_row_stochastic() {
        let g = generators::erdos_renyi(12, 0.3, 3);
        let p = propagation_matrix(&GraphView::full(&g));
        for s in p.row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_ppr_rows_sum_to_one() {
        let g = path3();
        let pi = ppr_matrix_exact(&GraphView::full(&g), 0.2);
        for s in pi.row_sums() {
            assert!((s - 1.0).abs() < 1e-9, "row sum {s}");
        }
        // the diagonal (restart mass) dominates any other entry of the row
        for v in 0..3 {
            for u in 0..3 {
                if u != v {
                    assert!(pi.get(v, v) >= pi.get(v, u));
                }
            }
        }
    }

    #[test]
    fn iterative_row_matches_exact() {
        let g = generators::erdos_renyi(10, 0.35, 9);
        let view = GraphView::full(&g);
        let exact = ppr_matrix_exact(&view, 0.15);
        let csr = Csr::from_view(&view);
        for v in [0usize, 3, 7] {
            let row = ppr_row(&csr, v, 0.15, 200);
            for (u, &val) in row.iter().enumerate() {
                assert!(
                    (val - exact.get(v, u)).abs() < 1e-6,
                    "pi[{v}][{u}]: {} vs {}",
                    row[u],
                    exact.get(v, u)
                );
            }
        }
    }

    #[test]
    fn value_function_matches_objective_identity() {
        // pi(v)^T r == (1 - alpha) * X[v]
        let g = generators::erdos_renyi(9, 0.4, 17);
        let view = GraphView::full(&g);
        let csr = Csr::from_view(&view);
        let alpha = 0.2;
        let r: Vec<f64> = (0..g.num_nodes()).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let x = value_function(&csr, &r, alpha, 300);
        let exact = ppr_matrix_exact(&view, alpha);
        for (v, &xv) in x.iter().enumerate() {
            let objective: f64 = exact.row(v).iter().zip(&r).map(|(p, ri)| p * ri).sum();
            assert!(
                (objective - (1.0 - alpha) * xv).abs() < 1e-6,
                "node {v}: {objective} vs {}",
                (1.0 - alpha) * xv
            );
        }
    }

    #[test]
    fn ppr_concentrates_on_the_source() {
        let g = path3();
        let csr = Csr::from_view(&GraphView::full(&g));
        let row = ppr_row(&csr, 0, 0.1, 100);
        assert!(row[0] > row[1] && row[1] > row[2]);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let g = path3();
        ppr_matrix_exact(&GraphView::full(&g), 1.0);
    }
}
