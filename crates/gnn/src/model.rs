//! The model-agnostic inference interface.
//!
//! The paper treats the classifier as a *fixed, deterministic, polynomial-time
//! inference function* `M(v, G)` producing a label for each test node, plus a
//! logits matrix `Z`. [`GnnModel`] captures exactly that contract: every model
//! in this crate can be evaluated on any [`GraphView`] (the full graph `G`, a
//! witness `Gs`, the remainder `G \ Gs`, or a disturbed graph `G~`) and must
//! produce the same output for the same input.
//!
//! The trait's single required compute method is [`GnnModel::forward`], a
//! message-passing kernel over an explicit [`ForwardCtx`]. Everything else
//! derives from it: `logits` runs the kernel on the whole view, while the
//! single-node entry points `predict` / `margin` run it on the node's
//! [`Locality`] — the L-hop receptive field under the view — which is
//! bit-exact (same floats, same argmax) and orders of magnitude cheaper on
//! graphs larger than the receptive field.

use rcw_graph::{
    BallScratch, BallVariant, Csr, CsrNorms, ForwardCtx, Graph, GraphView, Locality, NodeId,
};
use rcw_linalg::{vector, Matrix, PackedWeights};

/// Reusable per-layer working buffers for the zero-allocation forward paths.
///
/// Models thread these through `forward_into`: activations ping-pong between
/// `a`/`b`/`c`/`d`, the GAT attention pass borrows `src`/`dst`/`nbrs`/`att`,
/// and the trait-default `forward_into` fallback copies into `out`. Buffers
/// only ever grow, so a scratch reused across calls stops allocating once it
/// has seen the largest ball.
#[derive(Debug, Default)]
pub struct ForwardScratch {
    pub(crate) a: Vec<f64>,
    pub(crate) b: Vec<f64>,
    pub(crate) c: Vec<f64>,
    pub(crate) d: Vec<f64>,
    pub(crate) src: Vec<f64>,
    pub(crate) dst: Vec<f64>,
    pub(crate) nbrs: Vec<usize>,
    pub(crate) att: Vec<f64>,
    out: Vec<f64>,
}

/// Clears `buf` and resizes it to `len` zeros, reusing its allocation.
pub(crate) fn sized(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// Tile-packed copies of a weight stack; models keep these in sync with
/// their weights so every layer multiply streams the right operand at unit
/// stride in the blocked kernel's lane order.
pub(crate) fn pack_all(weights: &[Matrix]) -> Vec<PackedWeights> {
    weights.iter().map(PackedWeights::pack).collect()
}

/// All working memory a localized inference query needs: the receptive-field
/// ball and its BFS scratch, the single-removal variant scratch, the ball's
/// input rows ([`GnnModel::local_inputs_into`]), and the per-layer forward
/// buffers. One `KernelScratch` per worker makes `predict_with` /
/// `margin_many_removed_with` allocation-free in steady state; results are
/// bit-identical to the allocating entry points.
#[derive(Debug)]
pub struct KernelScratch {
    pub(crate) ball: Locality,
    pub(crate) build: BallScratch,
    pub(crate) variant: BallVariant,
    pub(crate) inputs: Matrix,
    pub(crate) fwd: ForwardScratch,
}

impl Default for KernelScratch {
    fn default() -> Self {
        KernelScratch {
            ball: Locality::default(),
            build: BallScratch::default(),
            variant: BallVariant::default(),
            inputs: Matrix::zeros(0, 0),
            fwd: ForwardScratch::default(),
        }
    }
}

/// A fixed, deterministic GNN-based node classifier.
pub trait GnnModel: Send + Sync {
    /// Number of output classes `|L|`.
    fn num_classes(&self) -> usize;

    /// Number of message-passing layers `L`.
    fn num_layers(&self) -> usize;

    /// Input feature dimension `F` expected by the model.
    fn feature_dim(&self) -> usize;

    /// Number of message-passing rounds determining one node's receptive
    /// field radius. Defaults to [`GnnModel::num_layers`]; models whose
    /// propagation depth differs from their layer count (APPNP) override it.
    fn receptive_hops(&self) -> usize {
        self.num_layers().max(1)
    }

    /// The model's forward pass over an explicit compute graph. `x` holds one
    /// (already padded) feature row per `ctx` node; the result has one logits
    /// row per node. Kernels must honor `ctx.active_rows` so localized
    /// evaluation skips rows that cannot influence the center, and must keep
    /// per-row operations in CSR neighbor order so the localized path stays
    /// bit-exact against the full pass.
    fn forward(&self, ctx: &ForwardCtx<'_>, x: &Matrix) -> Matrix;

    /// [`GnnModel::forward`] into reusable scratch buffers, returning the
    /// logits as a row-major `ctx.num_nodes() x num_classes` slice borrowed
    /// from the scratch. The default copies the allocating `forward`'s output;
    /// the bundled models override it with a buffer-ping-pong implementation
    /// that performs no heap allocation once the scratch has warmed up.
    /// Implementations must be bit-identical to `forward`.
    fn forward_into<'s>(
        &self,
        ctx: &ForwardCtx<'_>,
        x: &Matrix,
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        let z = self.forward(ctx, x);
        scratch.out.clear();
        scratch.out.extend_from_slice(z.data());
        &scratch.out
    }

    /// Gathers the rows a localized forward reads for the ball `nodes` of
    /// `graph` into `out`, one row per ball node in ball order. The default
    /// is the padded feature rows; a model whose first stage is node-local
    /// may gather that stage's cached output instead, paired with a
    /// [`GnnModel::forward_local_into`] that skips the stage.
    fn local_inputs_into(&self, graph: &Graph, nodes: &[NodeId], out: &mut Matrix) {
        local_features_into(graph, nodes, self.feature_dim(), out);
    }

    /// The localized forward from the rows [`GnnModel::local_inputs_into`]
    /// gathered. Default: [`GnnModel::forward_into`]. Overrides must stay
    /// bit-identical to `forward_into` on the feature rows.
    fn forward_local_into<'s>(
        &self,
        ctx: &ForwardCtx<'_>,
        inputs: &Matrix,
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        self.forward_into(ctx, inputs, scratch)
    }

    /// Computes the logits matrix `Z` (`|V| x |L|`) of the model over the
    /// given graph view. This is the paper's "output" of `M`; it pays a
    /// full-graph pass and is the right entry point for training, whole-graph
    /// accuracy, and `predict_all` — single-node queries should go through
    /// [`GnnModel::predict`] / [`GnnModel::margin`] instead.
    ///
    /// An unmasked view reuses the host graph's cached CSR and normalization
    /// vectors (both invalidated by the graph epoch); masked views snapshot
    /// their own.
    fn logits(&self, view: &GraphView<'_>) -> Matrix {
        let x = crate::pad_features(&view.graph().feature_matrix(), self.feature_dim());
        if view.is_unmasked() {
            let g = view.graph();
            let ctx = ForwardCtx::full_with_norms(g.csr(), g.norms());
            return self.forward(&ctx, &x);
        }
        let csr = Csr::from_view(view);
        let norms = CsrNorms::from_csr(&csr);
        let ctx = ForwardCtx::full_with_norms(&csr, &norms);
        self.forward(&ctx, &x)
    }

    /// The inference function `M(v, view)`: the label assigned to node `v`
    /// when the model is evaluated over `view`. Runs the localized path —
    /// the kernel over `v`'s receptive field only.
    ///
    /// Returns `None` only for invalid nodes; evaluating a valid node over an
    /// edgeless view is well defined (the node classifies from its own
    /// features), matching the paper's convention that a single node is a
    /// trivial factual witness.
    fn predict(&self, v: NodeId, view: &GraphView<'_>) -> Option<usize> {
        self.predict_with(v, view, &mut KernelScratch::default())
    }

    /// [`GnnModel::predict`] over caller-provided scratch buffers — the
    /// zero-allocation path for loops that classify many nodes or views.
    fn predict_with(
        &self,
        v: NodeId,
        view: &GraphView<'_>,
        scratch: &mut KernelScratch,
    ) -> Option<usize> {
        if v >= view.num_nodes() {
            return None;
        }
        let row = localized_logits_into(self, v, view, scratch);
        Some(vector::argmax(row))
    }

    /// Batched [`GnnModel::predict`] over one shared union receptive-field
    /// ball: extracts the union `receptive_hops` ball of all `centers` under
    /// `view` ([`Locality::rebuild_multi`]), runs *one* scheduled forward
    /// pass, and reads each center's logits row. Returns `None` if any center
    /// is invalid.
    ///
    /// Bit-exact against per-center [`GnnModel::predict_with`]: every center
    /// sits at distance 0 in the union ball, so the schedule keeps each
    /// center's receptive field active for the full round count, the
    /// ascending-id remap preserves reduction order, and the recorded degrees
    /// are the true view degrees — each center's row equals its full-pass row.
    fn predict_many_with(
        &self,
        centers: &[NodeId],
        view: &GraphView<'_>,
        scratch: &mut KernelScratch,
    ) -> Option<Vec<usize>> {
        if centers.is_empty() {
            return Some(Vec::new());
        }
        if centers.iter().any(|&v| v >= view.num_nodes()) {
            return None;
        }
        scratch
            .ball
            .rebuild_multi(view, centers, self.receptive_hops(), &mut scratch.build);
        self.local_inputs_into(view.graph(), scratch.ball.nodes(), &mut scratch.inputs);
        let KernelScratch {
            ball, inputs, fwd, ..
        } = scratch;
        let ctx = ball.forward_ctx();
        let z = self.forward_local_into(&ctx, inputs, fwd);
        let k = self.num_classes();
        Some(
            centers
                .iter()
                .map(|&v| {
                    let i = ball.local_index(v).expect("center in its own ball");
                    vector::argmax(&z[i * k..(i + 1) * k])
                })
                .collect(),
        )
    }

    /// Predicts labels for every node in the view (one full-graph pass).
    fn predict_all(&self, view: &GraphView<'_>) -> Vec<usize> {
        let z = self.logits(view);
        (0..z.rows()).map(|r| vector::argmax(z.row(r))).collect()
    }

    /// Classification margin of node `v` towards label `l` over the runner-up
    /// class: `z[v][l] - max_{c != l} z[v][c]`. Positive means the model
    /// assigns `l` to `v`. Runs the localized path.
    fn margin(&self, v: NodeId, label: usize, view: &GraphView<'_>) -> f64 {
        self.margin_with(v, label, view, &mut KernelScratch::default())
    }

    /// [`GnnModel::margin`] over caller-provided scratch buffers.
    fn margin_with(
        &self,
        v: NodeId,
        label: usize,
        view: &GraphView<'_>,
        scratch: &mut KernelScratch,
    ) -> f64 {
        let row = localized_logits_into(self, v, view, scratch);
        margin_of_row(row, label)
    }

    /// Batched margins of `v` toward `label` across single-edge-removal
    /// variants of one `base` view — the generator's candidate-scoring loop,
    /// where trial views differ from the base only by one removed edge each.
    ///
    /// Instead of one BFS ball per variant, the base ball is built once and
    /// every variant is derived from it ([`Locality::minus_edge`]): same node
    /// set, features, and row schedule; only the removed arcs and endpoint
    /// degrees change. Removals can only shrink the receptive field, so the
    /// shared ball stays a superset of each variant's and the result is
    /// bit-exact against `margin` on an explicitly built variant view.
    /// Removals that do not touch the ball cannot move the center's logits
    /// and collapse to one shared base evaluation.
    ///
    /// Every removal must be an edge visible in `base`.
    fn margin_many_removed(
        &self,
        v: NodeId,
        label: usize,
        base: &GraphView<'_>,
        removals: &[(NodeId, NodeId)],
    ) -> Vec<f64> {
        self.margin_many_removed_with(v, label, base, removals, &mut KernelScratch::default())
    }

    /// [`GnnModel::margin_many_removed`] over caller-provided scratch
    /// buffers: the ball is rebuilt into the scratch, every in-ball candidate
    /// reuses one [`BallVariant`] and the forward buffers, and out-of-ball
    /// candidates share one lazily computed base margin — zero heap
    /// allocations per candidate once the scratch has warmed up.
    fn margin_many_removed_with(
        &self,
        v: NodeId,
        label: usize,
        base: &GraphView<'_>,
        removals: &[(NodeId, NodeId)],
        scratch: &mut KernelScratch,
    ) -> Vec<f64> {
        scratch
            .ball
            .rebuild(base, v, self.receptive_hops(), &mut scratch.build);
        self.local_inputs_into(base.graph(), scratch.ball.nodes(), &mut scratch.inputs);
        let KernelScratch {
            ball,
            variant,
            inputs,
            fwd,
            ..
        } = scratch;
        let k = self.num_classes();
        let center = ball.center_index();
        let mut base_margin: Option<f64> = None;
        removals
            .iter()
            .map(|&(a, b)| {
                if !ball.contains(a) && !ball.contains(b) {
                    // a removal outside the ball cannot move the center's
                    // logits; all such candidates share one base evaluation
                    if let Some(m) = base_margin {
                        m
                    } else {
                        let z = self.forward_local_into(&ball.forward_ctx(), inputs, fwd);
                        let m = margin_of_row(&z[center * k..(center + 1) * k], label);
                        base_margin = Some(m);
                        m
                    }
                } else {
                    let ctx = ball.minus_edge_ctx(a, b, variant);
                    let z = self.forward_local_into(&ctx, inputs, fwd);
                    margin_of_row(&z[center * k..(center + 1) * k], label)
                }
            })
            .collect()
    }
}

/// The localized inference core: extracts `v`'s receptive field under `view`
/// and runs the model's kernel on it, returning `v`'s logits row. Bit-exact
/// against `model.logits(view).row(v)`.
pub fn localized_logits_row<M: GnnModel + ?Sized>(
    model: &M,
    v: NodeId,
    view: &GraphView<'_>,
) -> Vec<f64> {
    localized_logits_into(model, v, view, &mut KernelScratch::default()).to_vec()
}

/// [`localized_logits_row`] over caller-provided scratch buffers: ball
/// extraction, the ball's input rows, and the forward pass all reuse the
/// scratch, and the returned row borrows it. The zero-allocation core behind
/// `predict_with` / `margin_with`.
pub fn localized_logits_into<'s, M: GnnModel + ?Sized>(
    model: &M,
    v: NodeId,
    view: &GraphView<'_>,
    scratch: &'s mut KernelScratch,
) -> &'s [f64] {
    scratch
        .ball
        .rebuild(view, v, model.receptive_hops(), &mut scratch.build);
    model.local_inputs_into(view.graph(), scratch.ball.nodes(), &mut scratch.inputs);
    let ctx = scratch.ball.forward_ctx();
    let z = model.forward_local_into(&ctx, &scratch.inputs, &mut scratch.fwd);
    let k = model.num_classes();
    let center = scratch.ball.center_index();
    &z[center * k..(center + 1) * k]
}

/// Margin of a logits row towards `label` over the runner-up class.
pub fn margin_of_row(row: &[f64], label: usize) -> f64 {
    let mut best_other = f64::NEG_INFINITY;
    for (c, &val) in row.iter().enumerate() {
        if c != label {
            best_other = best_other.max(val);
        }
    }
    row[label] - best_other
}

/// Feature rows of a node subset, padded/truncated to `dim` columns —
/// identical values to the corresponding rows of
/// `pad_features(graph.feature_matrix(), dim)` without materializing `|V|`
/// rows.
pub fn local_features(graph: &Graph, nodes: &[NodeId], dim: usize) -> Matrix {
    let mut x = Matrix::zeros(0, 0);
    local_features_into(graph, nodes, dim, &mut x);
    x
}

/// [`local_features`] into a caller-provided matrix, reusing its allocation.
pub fn local_features_into(graph: &Graph, nodes: &[NodeId], dim: usize, out: &mut Matrix) {
    out.reset(nodes.len(), dim);
    for (i, &v) in nodes.iter().enumerate() {
        let f = graph.features(v);
        let take = f.len().min(dim);
        out.row_mut(i)[..take].copy_from_slice(&f[..take]);
    }
}

/// Row-scheduled matrix product `x * w`: computes only the scheduled rows
/// (`None` = all rows, delegating to [`Matrix::matmul`]). Computed rows are
/// bit-identical to the full product's; skipped rows are zero.
pub fn matmul_rows(x: &Matrix, w: &Matrix, rows: Option<&[usize]>) -> Matrix {
    let Some(rows) = rows else {
        return x.matmul(w);
    };
    assert_eq!(
        x.cols(),
        w.rows(),
        "matmul_rows: {}x{} * {}x{} dimension mismatch",
        x.rows(),
        x.cols(),
        w.rows(),
        w.cols()
    );
    let mut out = Matrix::zeros(x.rows(), w.cols());
    // same i-k-j loop body as Matrix::matmul, restricted to the schedule
    for &i in rows {
        for k in 0..x.cols() {
            let a = x.get(i, k);
            if a == 0.0 {
                continue;
            }
            let orow = w.row(k);
            let out_row = out.row_mut(i);
            for (j, &b) in orow.iter().enumerate() {
                out_row[j] += a * b;
            }
        }
    }
    out
}

/// Accuracy of predictions against ground-truth labels on a node subset.
pub fn accuracy<M: GnnModel + ?Sized>(model: &M, view: &GraphView<'_>, nodes: &[NodeId]) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    let preds = model.predict_all(view);
    let graph = view.graph();
    let correct = nodes
        .iter()
        .filter(|&&v| graph.label(v) == Some(preds[v]))
        .count();
    correct as f64 / nodes.len() as f64
}

/// One-hot encodes labels into an `n x num_classes` matrix; unlabeled nodes
/// get an all-zero row.
pub fn one_hot_labels(labels: &[Option<usize>], num_classes: usize) -> Matrix {
    let mut m = Matrix::zeros(labels.len(), num_classes);
    for (i, l) in labels.iter().enumerate() {
        if let Some(c) = l {
            if *c < num_classes {
                m.set(i, *c, 1.0);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_graph::Graph;

    /// A degenerate "model" that classifies a node by its visible degree
    /// parity; enough to exercise the trait's default methods.
    struct DegreeParityModel;

    impl GnnModel for DegreeParityModel {
        fn num_classes(&self) -> usize {
            2
        }
        fn num_layers(&self) -> usize {
            1
        }
        fn feature_dim(&self) -> usize {
            0
        }
        fn forward(&self, ctx: &ForwardCtx<'_>, _x: &Matrix) -> Matrix {
            let n = ctx.num_nodes();
            let mut z = Matrix::zeros(n, 2);
            for v in 0..n {
                let parity = (ctx.degrees()[v] as usize) % 2;
                z.set(v, parity, 1.0);
            }
            z
        }
    }

    #[test]
    fn predict_uses_logits_argmax() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        let view = GraphView::full(&g);
        let m = DegreeParityModel;
        assert_eq!(m.predict(0, &view), Some(0)); // degree 2 -> even
        assert_eq!(m.predict(1, &view), Some(1)); // degree 1 -> odd
        assert_eq!(m.predict(99, &view), None);
        assert_eq!(m.predict_all(&view), vec![0, 1, 1]);
    }

    #[test]
    fn margin_sign_tracks_prediction() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0, 1);
        let view = GraphView::full(&g);
        let m = DegreeParityModel;
        assert!(m.margin(0, 1, &view) > 0.0);
        assert!(m.margin(0, 0, &view) < 0.0);
    }

    #[test]
    fn accuracy_counts_matches() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.set_label(0, 0);
        g.set_label(1, 1);
        g.set_label(2, 0); // wrong per parity model
        let view = GraphView::full(&g);
        let m = DegreeParityModel;
        let acc = accuracy(&m, &view, &[0, 1, 2]);
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&m, &view, &[]), 0.0);
    }

    #[test]
    fn one_hot_encoding() {
        let oh = one_hot_labels(&[Some(1), None, Some(0)], 2);
        assert_eq!(oh.row(0), &[0.0, 1.0]);
        assert_eq!(oh.row(1), &[0.0, 0.0]);
        assert_eq!(oh.row(2), &[1.0, 0.0]);
        // out-of-range labels are ignored rather than panicking
        let oh2 = one_hot_labels(&[Some(5)], 2);
        assert_eq!(oh2.row(0), &[0.0, 0.0]);
    }
}
