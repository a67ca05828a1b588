//! Graph Convolutional Network (Kipf & Welling) — inference and training.
//!
//! The paper's experiments use a 3-layer GCN with hidden dimension 128 as the
//! classifier being explained. Forward propagation follows Eq. 1:
//! `X_i = act( D^{-1/2} (A + I) D^{-1/2} X_{i-1} W_i )`, with ReLU between
//! layers and identity on the output layer (logits). Training is full-batch
//! gradient descent with Adam on the cross-entropy of the training nodes —
//! sufficient for the synthetic datasets and fully deterministic.
//!
//! Inference has one forward loop (`Gcn::forward_rows`): each layer
//! computes the rows it is given and writes no others. A full pass gives it
//! the schedule's active rows. A variant of a stored base (an edge flip of
//! the base view) gives it only the rows a changed endpoint reaches, over
//! buffers that hold the base's per-layer outputs; every other row keeps the
//! base value, which the same row kernels computed in the same order, so the
//! variant's logits are bit-exact by construction.

use crate::model::{one_hot_labels, pack_all, sized, ForwardScratch, GnnModel, VariantBase};
use crate::train::{Adam, TrainConfig, TrainReport};
use rcw_graph::{Csr, CsrNorms, Edge, ForwardCtx, GraphView, NodeId};
use rcw_linalg::{init, matmul_packed_rows, vector, Activation, Matrix, PackedWeights};

/// A GCN with an arbitrary number of layers.
#[derive(Clone, Debug)]
pub struct Gcn {
    /// One weight matrix per layer; layer i maps `dims[i] -> dims[i+1]`.
    weights: Vec<Matrix>,
    /// Tile-packed copies of `weights`, kept in sync, so the forward
    /// kernels stream the right operand at unit stride in lane order.
    weights_p: Vec<PackedWeights>,
    /// Hidden activation (output layer is always identity/logits).
    activation: Activation,
}

/// Intermediate tensors of one forward pass, kept for backpropagation.
struct ForwardTrace {
    /// `S_i = A_norm * X_{i-1}` for each layer.
    aggregated: Vec<Matrix>,
    /// Pre-activation `P_i = S_i W_i` for each layer.
    pre_activation: Vec<Matrix>,
    /// Post-activation outputs `X_i` for each layer (last one = logits).
    outputs: Vec<Matrix>,
}

impl Gcn {
    /// Creates a GCN with the given layer dimensions
    /// (`dims = [F, h_1, ..., h_{L-1}, |L|]`) and Xavier-initialized weights.
    ///
    /// # Panics
    /// Panics if fewer than two dimensions are given.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "Gcn::new: need at least input and output dims"
        );
        let weights: Vec<Matrix> = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| init::xavier_uniform(w[0], w[1], seed.wrapping_add(i as u64)))
            .collect();
        Gcn {
            weights_p: pack_all(&weights),
            weights,
            activation: Activation::Relu,
        }
    }

    /// Builds a GCN from explicit weight matrices (used in tests and
    /// distillation).
    pub fn from_weights(weights: Vec<Matrix>, activation: Activation) -> Self {
        assert!(!weights.is_empty(), "Gcn::from_weights: no layers");
        Gcn {
            weights_p: pack_all(&weights),
            weights,
            activation,
        }
    }

    /// Immutable access to the layer weights.
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// The zero-allocation full pass behind both trait entry points: every
    /// layer computes the schedule's active rows into its own buffer in
    /// `s.layers` (zero-filled first, so unscheduled rows read zero), and
    /// the logits are returned as a borrowed `n x num_classes` row-major
    /// slice.
    fn forward_scratch<'s>(
        &self,
        ctx: &ForwardCtx<'_>,
        x: &Matrix,
        s: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        self.size_layers(&mut s.layers, x.rows());
        let last = self.weights_p.len() - 1;
        self.forward_rows(
            ctx,
            x.data(),
            x.cols(),
            |i| ctx.active_rows(last - i),
            &mut s.b,
            &mut s.layers,
        )
    }

    /// Resizes `layers` to one zero-filled `n x width` buffer per layer.
    fn size_layers(&self, layers: &mut Vec<Vec<f64>>, n: usize) {
        layers.resize_with(self.weights_p.len(), Vec::new);
        for (buf, wp) in layers.iter_mut().zip(&self.weights_p) {
            sized(buf, n * wp.cols());
        }
    }

    /// The one forward loop: layer `i` computes the rows `rows(i)` lists
    /// (`None` = every row) of `act(A_norm X_{i-1} W_i)` into `outs[i]`,
    /// reading `X_{i-1}` from `outs[i - 1]` (from `x`, `x_cols` wide, for
    /// layer 0) and aggregating through `agg`. Rows it is not given are
    /// never written, so `outs` may hold the outputs of an earlier pass
    /// that the listed rows update. Returns the last layer's buffer.
    fn forward_rows<'o, 'r>(
        &self,
        ctx: &ForwardCtx<'_>,
        x: &[f64],
        x_cols: usize,
        rows: impl Fn(usize) -> Option<&'r [usize]>,
        agg: &mut Vec<f64>,
        outs: &'o mut [Vec<f64>],
    ) -> &'o [f64] {
        let n = ctx.num_nodes();
        let layers = self.weights_p.len();
        let mut dim = x_cols;
        for (i, wp) in self.weights_p.iter().enumerate() {
            let rows = rows(i);
            let od = wp.cols();
            let (done, rest) = outs.split_at_mut(i);
            let input: &[f64] = if i == 0 { x } else { &done[i - 1] };
            let out = &mut rest[0];
            // every row the product reads is one the SpMM writes, so the
            // buffer only grows and is never cleared
            if agg.len() < n * dim {
                agg.resize(n * dim, 0.0);
            }
            let agg = &mut agg[..n * dim];
            ctx.spmm_sym(input, dim, agg, rows);
            matmul_packed_rows(agg, dim, wp, out, rows, false);
            if i + 1 != layers {
                let mut act = |u: usize| {
                    for v in &mut out[u * od..(u + 1) * od] {
                        *v = self.activation.apply(*v);
                    }
                };
                match rows {
                    None => (0..n).for_each(&mut act),
                    Some(rows) => rows.iter().copied().for_each(&mut act),
                }
            }
            dim = od;
        }
        &outs[layers - 1]
    }

    fn sym_norm_spmm(csr: &Csr, norms: &CsrNorms, x: &Matrix) -> Matrix {
        let dim = x.cols();
        let mut out = vec![0.0; x.rows() * dim];
        csr.spmm_sym_norm_cached(norms, x.data(), dim, &mut out, None);
        Matrix::from_vec(x.rows(), dim, out)
    }

    fn forward_trace(&self, view: &GraphView<'_>, csr: &Csr, norms: &CsrNorms) -> ForwardTrace {
        let x0 = view.graph().feature_matrix();
        let x0 = crate::pad_features(&x0, self.feature_dim());
        let mut aggregated = Vec::with_capacity(self.weights.len());
        let mut pre_activation = Vec::with_capacity(self.weights.len());
        let mut outputs = Vec::with_capacity(self.weights.len());
        let mut x = x0;
        for (i, w) in self.weights.iter().enumerate() {
            let s = Self::sym_norm_spmm(csr, norms, &x);
            let p = s.matmul(w);
            let out = if i + 1 == self.weights.len() {
                p.clone()
            } else {
                self.activation.apply_matrix(&p)
            };
            aggregated.push(s);
            pre_activation.push(p);
            outputs.push(out.clone());
            x = out;
        }
        ForwardTrace {
            aggregated,
            pre_activation,
            outputs,
        }
    }

    /// Trains the GCN in place with full-batch Adam on cross-entropy over the
    /// training nodes, evaluated on the full graph view. Returns a per-epoch
    /// report (loss and training accuracy).
    pub fn train(
        &mut self,
        view: &GraphView<'_>,
        train_nodes: &[NodeId],
        cfg: &TrainConfig,
    ) -> TrainReport {
        assert!(!train_nodes.is_empty(), "Gcn::train: empty training set");
        let graph = view.graph();
        let labels = graph.labels_vec();
        let targets = one_hot_labels(&labels, self.num_classes());
        let csr = Csr::from_view(view);
        let norms = CsrNorms::from_csr(&csr);
        let mut optimizers: Vec<Adam> = self
            .weights
            .iter()
            .map(|w| Adam::new(w.rows(), w.cols(), cfg.learning_rate))
            .collect();
        let inv_batch = 1.0 / train_nodes.len() as f64;
        let mut report = TrainReport::default();

        for _epoch in 0..cfg.epochs {
            let trace = self.forward_trace(view, &csr, &norms);
            let logits = trace.outputs.last().expect("at least one layer");

            // Loss + output gradient, masked to the training nodes.
            let mut loss = 0.0;
            let mut correct = 0usize;
            let mut grad = Matrix::zeros(logits.rows(), logits.cols());
            for &v in train_nodes {
                let target = match labels[v] {
                    Some(t) => t,
                    None => continue,
                };
                let row = logits.row(v);
                loss += vector::cross_entropy(row, target) * inv_batch;
                if vector::argmax(row) == target {
                    correct += 1;
                }
                let probs = vector::softmax(row);
                for (c, &p) in probs.iter().enumerate() {
                    grad.set(v, c, (p - targets.get(v, c)) * inv_batch);
                }
            }

            // Backpropagation through the layers.
            let mut upstream = grad; // dL/dX_L
            for layer in (0..self.weights.len()).rev() {
                let is_output = layer + 1 == self.weights.len();
                let d_pre = if is_output {
                    upstream
                } else {
                    let deriv = self
                        .activation
                        .derivative_matrix(&trace.pre_activation[layer]);
                    upstream.hadamard(&deriv)
                };
                let mut d_w = trace.aggregated[layer].transpose().matmul(&d_pre);
                if cfg.weight_decay > 0.0 {
                    d_w.add_assign(&self.weights[layer].scale(cfg.weight_decay));
                }
                // dL/dS = dP * W^T ; dL/dX_{i-1} = A_norm^T dS = A_norm dS (symmetric)
                let d_s = d_pre.matmul(&self.weights[layer].transpose());
                upstream = Self::sym_norm_spmm(&csr, &norms, &d_s);
                optimizers[layer].step(&mut self.weights[layer], &d_w);
            }

            report.losses.push(loss);
            report
                .accuracies
                .push(correct as f64 / train_nodes.len() as f64);
        }
        self.weights_p = pack_all(&self.weights);
        report
    }
}

impl GnnModel for Gcn {
    fn num_classes(&self) -> usize {
        self.weights.last().expect("non-empty").cols()
    }

    fn num_layers(&self) -> usize {
        self.weights.len()
    }

    fn feature_dim(&self) -> usize {
        self.weights.first().expect("non-empty").rows()
    }

    fn forward(&self, ctx: &ForwardCtx<'_>, x: &Matrix) -> Matrix {
        let mut s = ForwardScratch::default();
        self.forward_scratch(ctx, x, &mut s);
        let logits = s.layers.pop().expect("at least one layer");
        Matrix::from_vec(x.rows(), self.num_classes(), logits)
    }

    fn forward_into<'s>(
        &self,
        ctx: &ForwardCtx<'_>,
        x: &Matrix,
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        self.forward_scratch(ctx, x, scratch)
    }

    /// The delta forward. The first variant of a base runs the full pass
    /// over the base ball and keeps every layer's output; each variant after
    /// it restores the rows the previous one wrote and recomputes only its
    /// dirty rows (see `LayerCache::mark_dirty`) over the variant's compute
    /// graph. A variant that touches no ball node is the base itself.
    fn variant_logits_into<'s>(
        &self,
        base: &'s mut VariantBase,
        removed: &[Edge],
        inserted: &[Edge],
        fwd: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        let VariantBase {
            ball,
            inputs,
            variant,
            layers: cache,
            ..
        } = base;
        let last = self.weights_p.len() - 1;
        let k = self.num_classes();
        let center = ball.center_index();
        if !cache.ready {
            let ctx = ball.forward_ctx();
            self.size_layers(&mut cache.work, ball.len());
            self.forward_rows(
                &ctx,
                inputs.data(),
                inputs.cols(),
                |i| ctx.active_rows(last - i),
                &mut fwd.b,
                &mut cache.work,
            );
            cache.dirty.resize_with(last + 1, Vec::new);
            cache.saved.resize_with(last + 1, Vec::new);
            cache.rows = ball.len();
            cache.ready = true;
        }
        cache.restore();
        variant.derive(ball, removed, inserted);
        if variant.changed().is_empty() {
            return &cache.work[last][center * k..(center + 1) * k];
        }
        let ctx = variant.ctx(ball);
        cache.mark_dirty(ball.csr(), &ctx, variant.changed());
        cache.save();
        let LayerCache { work, dirty, .. } = cache;
        let z = self.forward_rows(
            &ctx,
            inputs.data(),
            inputs.cols(),
            |i| Some(&dirty[i][..]),
            &mut fwd.b,
            work,
        );
        &z[center * k..(center + 1) * k]
    }
}

/// What [`Gcn`]'s delta forward keeps per [`VariantBase`]: the base pass's
/// per-layer outputs with the last variant's rows written over them, the
/// base values of those rows, and which rows they are.
#[derive(Debug, Default)]
pub(crate) struct LayerCache {
    /// Whether `work` holds the base pass of the current ball.
    ready: bool,
    /// Rows of the current ball.
    rows: usize,
    /// Per layer, the base pass's `n x width` output, with the last
    /// variant's dirty rows overwritten.
    work: Vec<Vec<f64>>,
    /// Per layer, the base values of the last variant's dirty rows, in
    /// `dirty` order.
    saved: Vec<Vec<f64>>,
    /// Per layer, the rows the last variant recomputed.
    dirty: Vec<Vec<usize>>,
    /// Per-row visit stamps of [`LayerCache::mark_dirty`].
    stamp: Vec<u64>,
    epoch: u64,
}

impl LayerCache {
    /// Drops the base pass (a new base ball was built).
    pub(crate) fn invalidate(&mut self) {
        self.ready = false;
        self.dirty.iter_mut().for_each(Vec::clear);
        self.saved.iter_mut().for_each(Vec::clear);
    }

    /// Copies the base values back over the rows the last variant wrote.
    fn restore(&mut self) {
        for ((work, saved), dirty) in self
            .work
            .iter_mut()
            .zip(&mut self.saved)
            .zip(&mut self.dirty)
        {
            let width = work.len() / self.rows;
            for (row, &u) in saved.chunks_exact(width).zip(dirty.iter()) {
                work[u * width..(u + 1) * width].copy_from_slice(row);
            }
            saved.clear();
            dirty.clear();
        }
    }

    /// Saves the base values of the rows the next variant will write.
    fn save(&mut self) {
        for ((work, saved), dirty) in self.work.iter().zip(&mut self.saved).zip(&self.dirty) {
            let width = work.len() / self.rows;
            for &u in dirty {
                saved.extend_from_slice(&work[u * width..(u + 1) * width]);
            }
        }
    }

    /// The rows each layer must recompute for a variant whose flips change
    /// the rows `changed` (their adjacency or degree). A row's output reads
    /// its own and its neighbors' degrees and previous-layer values. So
    /// layer 0's dirty rows are the active rows that are a changed row or a
    /// base-ball neighbor of one, and layer `i`'s are the active rows that
    /// were dirty at layer `i - 1` or neighbor a row that was. Base-ball
    /// neighbors cover the variant's too: a pair the variant inserts joins
    /// two changed rows, and active rows only shrink from layer to layer,
    /// so a changed row stays dirty while it is active. Every row left out
    /// reads exactly what it read in the base pass and keeps its base value.
    fn mark_dirty(&mut self, base: &Csr, ctx: &ForwardCtx<'_>, changed: &[usize]) {
        if self.stamp.len() < self.rows {
            self.stamp.resize(self.rows, 0);
        }
        let layers = self.dirty.len();
        for i in 0..layers {
            self.epoch += 1;
            let e = self.epoch;
            let remaining = layers - 1 - i;
            let (prev, cur) = self.dirty.split_at_mut(i);
            let seeds = if i == 0 { changed } else { &prev[i - 1][..] };
            let cur = &mut cur[0];
            for &u in seeds {
                for w in std::iter::once(u).chain(base.neighbors(u).iter().copied()) {
                    if self.stamp[w] != e && ctx.is_active(w, remaining) {
                        self.stamp[w] = e;
                        cur.push(w);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::accuracy;
    use rcw_graph::{EdgeSet, Graph};

    /// Two cliques with distinctive features; class = clique membership.
    fn two_cluster_graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..10 {
            let class = if i < 5 { 0 } else { 1 };
            let noise = (i as f64) * 0.01;
            let feats = if class == 0 {
                vec![1.0 + noise, 0.0]
            } else {
                vec![0.0, 1.0 + noise]
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
        g.add_edge(4, 5); // one bridge
        g
    }

    #[test]
    fn new_validates_dims() {
        let gcn = Gcn::new(&[4, 8, 3], 0);
        assert_eq!(gcn.num_layers(), 2);
        assert_eq!(gcn.num_classes(), 3);
        assert_eq!(gcn.feature_dim(), 4);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn new_rejects_single_dim() {
        Gcn::new(&[4], 0);
    }

    #[test]
    fn logits_shape_and_determinism() {
        let g = two_cluster_graph();
        let view = GraphView::full(&g);
        let gcn = Gcn::new(&[2, 8, 2], 3);
        let z1 = gcn.logits(&view);
        let z2 = gcn.logits(&view);
        assert_eq!(z1.shape(), (10, 2));
        assert_eq!(z1, z2, "inference must be deterministic");
    }

    #[test]
    fn training_fits_two_clusters() {
        let g = two_cluster_graph();
        let view = GraphView::full(&g);
        let mut gcn = Gcn::new(&[2, 8, 2], 1);
        let cfg = TrainConfig {
            epochs: 120,
            learning_rate: 0.05,
            ..TrainConfig::default()
        };
        let all: Vec<usize> = (0..10).collect();
        let report = gcn.train(&view, &all, &cfg);
        assert!(report.final_loss() < report.losses[0], "loss must decrease");
        let acc = accuracy(&gcn, &view, &all);
        assert!(acc >= 0.9, "expected >= 0.9 accuracy, got {acc}");
    }

    #[test]
    fn predictions_change_when_edges_are_masked() {
        // A node with zeroed features relies entirely on neighbors; removing
        // its edges must change its logits.
        let mut g = two_cluster_graph();
        let orphan = g.add_labeled_node(vec![0.0, 0.0], 0);
        for u in 0..5 {
            g.add_edge(orphan, u);
        }
        let view = GraphView::full(&g);
        let mut gcn = Gcn::new(&[2, 8, 2], 5);
        let cfg = TrainConfig {
            epochs: 120,
            learning_rate: 0.05,
            ..TrainConfig::default()
        };
        let train: Vec<usize> = (0..10).collect();
        gcn.train(&view, &train, &cfg);
        let full_logits = gcn.logits(&view);
        let removed: EdgeSet = (0..5usize).map(|u| (orphan, u)).collect();
        let masked = GraphView::without(&g, &removed);
        let masked_logits = gcn.logits(&masked);
        let diff: f64 = full_logits
            .row(orphan)
            .iter()
            .zip(masked_logits.row(orphan))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6, "masking edges must affect the orphan's logits");
    }

    #[test]
    fn from_weights_roundtrip() {
        let w1 = Matrix::identity(2);
        let w2 = Matrix::identity(2);
        let gcn = Gcn::from_weights(vec![w1, w2], Activation::Relu);
        assert_eq!(gcn.num_layers(), 2);
        assert_eq!(gcn.weights().len(), 2);
    }
}
