//! APPNP — "Predict Then Propagate" with personalized PageRank.
//!
//! APPNP first transforms node features with a small MLP, `H = f_theta(X)`,
//! then propagates predictions with the personalized-PageRank operator used by
//! the paper (§II-A):
//!
//! ```text
//! Z = (1 - alpha) * (I - alpha * D^{-1} (A + I))^{-1} * H
//! ```
//!
//! Propagation is computed by fixed-point iteration
//! `Z <- alpha * P * Z + (1 - alpha) * H` (a contraction for `alpha < 1`), so
//! no dense inverse is required during inference. The tractable k-RCW
//! verification of §III-B relies on this model's linearity in the propagation
//! step: per-node logits are `pi(v)^T H`, where `pi(v)` is node `v`'s
//! personalized PageRank row — exactly what `rcw-pagerank` computes.
//!
//! Because `H` is node-local, the model computes it once per feature epoch
//! ([`Appnp::local_logits`]) and its localized inference gathers the ball's
//! rows of `H` and runs only the propagation half of the forward kernel.
//!
//! The same linearity answers the removal-variant queries of witness
//! generation cheaply. `T` rounds of the fixed point give
//! `z_v = (1 - alpha) w^T H` with walk weights
//! `w = sum_{s=0..T} alpha^s e_v^T P^s`, one scalar per ball node, so a
//! label decision or a candidate ranking costs one scalar gather per round
//! instead of one per class. Those answers are used only where a
//! floating-point error bound certifies that the exact forward would give
//! the same one; everything else runs the exact forward.

use crate::cache::EpochCache;
use crate::model::{
    margin_of_row, one_hot_labels, pack_all, removal_logits_into, removal_margins, sized,
    ForwardScratch, GnnModel, KernelScratch, VariantBase,
};
use crate::train::{Adam, TrainConfig, TrainReport};
use rcw_graph::{Csr, Edge, ForwardCtx, Graph, GraphView, NodeId};
use rcw_linalg::{init, matmul_packed_rows, vector, Activation, Matrix, PackedWeights};
use std::sync::Arc;

/// Buffers of [`Appnp::walk_logits`]: the walk distribution of the current
/// and the next round, its degree-scaled copy, the accumulated walk weights
/// and the resulting logits.
#[derive(Debug, Default)]
pub(crate) struct WalkScratch {
    r: Vec<f64>,
    q: Vec<f64>,
    next: Vec<f64>,
    w: Vec<f64>,
    z: Vec<f64>,
}

/// Calls `f` on each scheduled row (`None`: every row of `0..n`).
fn for_rows(rows: Option<&[usize]>, n: usize, mut f: impl FnMut(usize)) {
    match rows {
        None => (0..n).for_each(f),
        Some(rows) => rows.iter().for_each(|&u| f(u)),
    }
}

/// The APPNP model: an MLP feature transform plus PPR propagation.
#[derive(Clone, Debug)]
pub struct Appnp {
    /// MLP weights; layer i maps `dims[i] -> dims[i+1]`.
    weights: Vec<Matrix>,
    /// Tile-packed copies of `weights`, kept in sync, for unit-stride
    /// lane-order matmuls.
    weights_p: Vec<PackedWeights>,
    /// Hidden activation of the MLP.
    activation: Activation,
    /// Continuation weight `alpha` of the PPR propagation: each round keeps
    /// `alpha` of the propagated value and teleports back to `H` with
    /// probability `1 - alpha`.
    alpha: f64,
    /// Number of propagation (power) iterations.
    prop_iters: usize,
    /// `H = f_theta(X)` of the last graph evaluated, keyed by its feature
    /// epoch and dropped by [`Appnp::train`].
    h: EpochCache<Matrix>,
}

impl Appnp {
    /// Creates an APPNP model with the given MLP dimensions, continuation
    /// weight `alpha` (teleport probability `1 - alpha`) and propagation
    /// iterations.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given or `alpha` is outside `(0, 1)`.
    pub fn new(dims: &[usize], alpha: f64, prop_iters: usize, seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "Appnp::new: need at least input and output dims"
        );
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "Appnp::new: alpha must be in (0,1)"
        );
        let weights: Vec<Matrix> = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| init::xavier_uniform(w[0], w[1], seed.wrapping_add(100 + i as u64)))
            .collect();
        Appnp {
            weights_p: pack_all(&weights),
            weights,
            activation: Activation::Relu,
            alpha,
            prop_iters: prop_iters.max(1),
            h: EpochCache::new(),
        }
    }

    /// The continuation weight `alpha`; the teleport probability is
    /// `1 - alpha`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of propagation iterations.
    pub fn prop_iters(&self) -> usize {
        self.prop_iters
    }

    /// Immutable access to the MLP weights.
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// Applies the MLP transform to the (padded) feature matrix, keeping
    /// pre-activation traces for backpropagation.
    fn mlp_forward(&self, x0: &Matrix) -> (Vec<Matrix>, Vec<Matrix>) {
        let mut pre = Vec::with_capacity(self.weights.len());
        let mut post = Vec::with_capacity(self.weights.len());
        let mut x = x0.clone();
        for (i, w) in self.weights.iter().enumerate() {
            let p = x.matmul(w);
            let out = if i + 1 == self.weights.len() {
                p.clone()
            } else {
                self.activation.apply_matrix(&p)
            };
            pre.push(p);
            post.push(out.clone());
            x = out;
        }
        (pre, post)
    }

    /// The MLP prediction `H = f_theta(X)` over every node of `graph`, before
    /// propagation. `H` depends only on node features, so the model keeps it
    /// keyed by the graph's *feature* epoch: it survives arbitrary edge
    /// disturbances, and only a feature change (or [`Appnp::train`]) pays the
    /// MLP pass again. Localized inference gathers its ball's rows from here.
    pub fn local_logits(&self, graph: &Graph) -> Arc<Matrix> {
        self.h.get_or_insert_with(graph.feature_epoch(), || {
            let all: Vec<NodeId> = graph.node_ids().collect();
            let x = crate::model::local_features(graph, &all, self.feature_dim());
            let mut s = ForwardScratch::default();
            let dim = self.mlp_scratch(&x, &mut s);
            Matrix::from_vec(x.rows(), dim, s.a)
        })
    }

    /// Applies the propagation `Z = (1-alpha)(I - alpha P)^{-1} H` by
    /// fixed-point iteration, where `P = D^{-1}(A + I)` over the view.
    pub fn propagate(&self, csr: &Csr, h: &Matrix) -> Matrix {
        let degrees: Vec<f64> = (0..csr.num_nodes()).map(|u| csr.degree(u) as f64).collect();
        self.propagate_ctx(&ForwardCtx::full(csr, &degrees), h)
    }

    /// [`Appnp::propagate`] over an explicit compute graph. Iteration `t` of
    /// `T` only computes rows that can still reach the scheduled output
    /// (`remaining = T - t` rounds follow); unscheduled rows keep stale values
    /// that no later iteration reads.
    pub fn propagate_ctx(&self, ctx: &ForwardCtx<'_>, h: &Matrix) -> Matrix {
        let dim = h.cols();
        let n = h.rows();
        let base = h.scale(1.0 - self.alpha);
        let mut z = base.clone();
        let mut buf = vec![0.0; n * dim];
        for t in 1..=self.prop_iters {
            let rows = ctx.active_rows(self.prop_iters - t);
            ctx.csr()
                .spmm_row_norm_deg(ctx.degrees(), z.data(), dim, &mut buf, rows);
            let mut update = |u: usize| {
                for c in 0..dim {
                    let v = buf[u * dim + c] * self.alpha + base.get(u, c);
                    z.set(u, c, v);
                }
            };
            match rows {
                None => (0..n).for_each(&mut update),
                Some(rows) => rows.iter().copied().for_each(&mut update),
            }
        }
        z
    }

    /// The MLP half of the zero-allocation forward kernel: `H = f_theta(X)`
    /// ping-pongs through the scratch and ends up in `s.a`. Returns `H`'s
    /// width. Node-local, so every row is computed.
    fn mlp_scratch(&self, x: &Matrix, s: &mut ForwardScratch) -> usize {
        let n = x.rows();
        let layers = self.weights_p.len();
        s.a.clear();
        s.a.extend_from_slice(x.data());
        let mut dim = x.cols();
        for (i, wp) in self.weights_p.iter().enumerate() {
            let od = wp.cols();
            matmul_packed_rows(&s.a, dim, wp, sized(&mut s.c, n * od), None, false);
            if i + 1 != layers {
                for v in s.c.iter_mut() {
                    *v = self.activation.apply(*v);
                }
            }
            std::mem::swap(&mut s.a, &mut s.c);
            dim = od;
        }
        dim
    }

    /// The propagation half of the zero-allocation forward kernel: reads the
    /// `n x dim` matrix `H` from `s.a` and runs the PPR fixed point
    /// `z <- alpha * P z + (1 - alpha) * H` over `b` (teleport base), `c`
    /// (iterate) and `d` (SpMM buffer). The logits end up in `s.a`.
    fn propagate_scratch<'s>(
        &self,
        ctx: &ForwardCtx<'_>,
        n: usize,
        dim: usize,
        s: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        let base = sized(&mut s.b, n * dim);
        for (o, &h) in base.iter_mut().zip(s.a.iter()) {
            *o = h * (1.0 - self.alpha);
        }
        s.c.clear();
        s.c.extend_from_slice(&s.b);
        sized(&mut s.d, n * dim);
        for t in 1..=self.prop_iters {
            let rows = ctx.active_rows(self.prop_iters - t);
            ctx.spmm_row(&s.c, dim, &mut s.d, rows);
            let d = &s.d;
            let b = &s.b;
            let z = &mut s.c;
            let mut update = |u: usize| {
                for c in u * dim..(u + 1) * dim {
                    z[c] = d[c] * self.alpha + b[c];
                }
            };
            match rows {
                None => (0..n).for_each(&mut update),
                Some(rows) => rows.iter().copied().for_each(&mut update),
            }
        }
        std::mem::swap(&mut s.a, &mut s.c);
        &s.a
    }

    /// The full forward kernel: the MLP half, then the propagation half.
    fn forward_scratch<'s>(
        &self,
        ctx: &ForwardCtx<'_>,
        x: &Matrix,
        s: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        let dim = self.mlp_scratch(x, s);
        self.propagate_scratch(ctx, x.rows(), dim, s)
    }

    /// The per-logit error bound of walk-weight logits over the removal
    /// base, derived once per base; `None` when its `H` rows hold a
    /// non-finite entry (or one so large that sums could overflow), in which
    /// case every answer falls back to the exact forward.
    ///
    /// Both the exact forward and [`Appnp::walk_logits`] evaluate the same
    /// real number `z* = (1 - a) sum_{s=0..T} a^s (P^s H)_v` (with `a` and
    /// `1 - a` as the stored floats), and both only ever sum non-negative
    /// weights times rows of `H`, the weights of one round summing to at
    /// most 1, so every partial sum is at most `A = max |H|` in magnitude.
    /// With unit roundoff `u = EPSILON / 2`, `T = prop_iters`, `D` the
    /// ball's largest degree and `n` its node count, first-order error
    /// analysis gives:
    /// - exact forward: each round's row sum of at most `D + 1` products,
    ///   the `1 / (d + 1)` weight, the scaling by `a` and the teleport add
    ///   cost `D + 4` roundings, relative to `A`; over `T` rounds plus the
    ///   teleport base that is `(T + 1)(D + 4) u A`;
    /// - walk weights: each entry of `e_v^T P^s` carries relative error
    ///   `s (D + 2) u` (all terms non-negative), the `a^s` scaling and the
    ///   sum over `s` add `2T + 1`, so `w` is relative-exact to within
    ///   `(T + 1)(D + 4) u`; the dot product `w^T H` over `n` terms and the
    ///   final `(1 - a)` scaling add `(n + 1) u A`.
    ///
    /// So `|walk - exact| <= (2 (T + 1)(D + 4) + n + 1) u A`. The bound uses
    /// `EPSILON = 2u`, doubling that as slack for the second-order terms and
    /// for the rounding of the margin and gap subtractions, plus
    /// `(1 + A) * MIN_POSITIVE` for subnormal underflow (each of fewer than
    /// `2^50` roundings loses at most `2^-1075`).
    fn walk_bound(&self, removal: &mut VariantBase) -> Option<f64> {
        let bound = *removal.bound.get_or_insert_with(|| {
            let h = removal.inputs.data();
            if h.iter().any(|x| !x.is_finite()) {
                return f64::INFINITY;
            }
            let a = h.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            if a > f64::MAX / 4.0 {
                return f64::INFINITY;
            }
            let d = removal.ball.degrees().iter().fold(0.0f64, |m, &x| m.max(x));
            let t = self.prop_iters as f64;
            let n = removal.ball.len() as f64;
            (2.0 * (t + 1.0) * (d + 4.0) + n + 1.0) * f64::EPSILON * a
                + (1.0 + a) * f64::MIN_POSITIVE
        });
        bound.is_finite().then_some(bound)
    }

    /// Walk-weight logits of the removal base's center on the base view
    /// without `removed`: `z = (1 - a) w^T H` with
    /// `w = sum_{s=0..T} a^s e_v^T P'^s` over the ball variant `P'`. Round
    /// `s` gathers `r_s = r_{s-1} P'` over the rows within `s` hops (outside
    /// them `r_s` is zero): `r_s[x] = q[x] + sum_{y in N(x)} q[y]` with
    /// `q = r_{s-1} / (d + 1)`.
    fn walk_logits<'s>(&self, removed: &[Edge], removal: &'s mut VariantBase) -> &'s [f64] {
        let VariantBase {
            ball,
            inputs,
            variant,
            walk,
            ..
        } = removal;
        variant.derive(ball, removed, &[]);
        let ctx = variant.ctx(ball);
        let inv_deg = ctx.inv_deg().expect("ball variants cache their norms");
        let csr = ctx.csr();
        let n = ctx.num_nodes();
        let WalkScratch { r, q, next, w, z } = walk;
        for buf in [&mut *r, &mut *q, &mut *next, &mut *w] {
            buf.clear();
            buf.resize(n, 0.0);
        }
        let center = ball.center_index();
        r[center] = 1.0;
        w[center] = 1.0;
        let mut weight = 1.0;
        for s in 1..=self.prop_iters {
            for_rows(ctx.active_rows(s - 1), n, |u| q[u] = r[u] * inv_deg[u]);
            weight *= self.alpha;
            for_rows(ctx.active_rows(s), n, |x| {
                let mut acc = q[x];
                for &y in csr.neighbors(x) {
                    acc += q[y];
                }
                next[x] = acc;
                w[x] += weight * acc;
            });
            std::mem::swap(r, next);
        }
        z.clear();
        z.resize(inputs.cols(), 0.0);
        for (u, &wu) in w.iter().enumerate() {
            if wu != 0.0 {
                for (zc, &h) in z.iter_mut().zip(inputs.row(u)) {
                    *zc += wu * h;
                }
            }
        }
        let teleport = 1.0 - self.alpha;
        for zc in z.iter_mut() {
            *zc *= teleport;
        }
        z
    }

    /// The top class of the walk-weight logits when it leads the runner-up
    /// by more than twice the per-logit bound: the exact forward's argmax is
    /// then the same class. `None` means "run the exact forward".
    fn certified_top(&self, removed: &[Edge], removal: &mut VariantBase) -> Option<usize> {
        let bound = self.walk_bound(removal)?;
        let z = self.walk_logits(removed, removal);
        let top = vector::argmax(z);
        let runner_up = z
            .iter()
            .enumerate()
            .filter(|&(c, _)| c != top)
            .fold(f64::NEG_INFINITY, |m, (_, &x)| m.max(x));
        (z[top] - runner_up > 2.0 * bound).then_some(top)
    }

    /// Applies the *transposed* propagation, used for backpropagation:
    /// `G_H = (1-alpha)(I - alpha P^T)^{-1} G_Z`.
    fn propagate_transpose(&self, csr: &Csr, g: &Matrix) -> Matrix {
        let dim = g.cols();
        let n = g.rows();
        let base = g.scale(1.0 - self.alpha);
        let mut z = base.clone();
        for _ in 0..self.prop_iters {
            let mut buf = vec![0.0; n * dim];
            // out = P^T z : column-normalized scatter
            for u in 0..n {
                let w = 1.0 / (csr.degree(u) as f64 + 1.0);
                for c in 0..dim {
                    buf[u * dim + c] += w * z.get(u, c);
                }
                for &v in csr.neighbors(u) {
                    for c in 0..dim {
                        buf[v * dim + c] += w * z.get(u, c);
                    }
                }
            }
            let mut next = Matrix::from_vec(n, dim, buf);
            next.scale_assign(self.alpha);
            next.add_assign(&base);
            z = next;
        }
        z
    }

    /// Trains the MLP with full-batch Adam on cross-entropy over the training
    /// nodes, backpropagating through the (fixed) propagation operator.
    pub fn train(
        &mut self,
        view: &GraphView<'_>,
        train_nodes: &[NodeId],
        cfg: &TrainConfig,
    ) -> TrainReport {
        assert!(!train_nodes.is_empty(), "Appnp::train: empty training set");
        let graph = view.graph();
        let labels = graph.labels_vec();
        let targets = one_hot_labels(&labels, self.num_classes());
        let csr = Csr::from_view(view);
        let x0 = crate::pad_features(&graph.feature_matrix(), self.feature_dim());
        let mut optimizers: Vec<Adam> = self
            .weights
            .iter()
            .map(|w| Adam::new(w.rows(), w.cols(), cfg.learning_rate))
            .collect();
        let inv_batch = 1.0 / train_nodes.len() as f64;
        let mut report = TrainReport::default();

        for _epoch in 0..cfg.epochs {
            let (pre, post) = self.mlp_forward(&x0);
            let h = post.last().expect("non-empty MLP");
            let z = self.propagate(&csr, h);

            let mut loss = 0.0;
            let mut correct = 0usize;
            let mut d_z = Matrix::zeros(z.rows(), z.cols());
            for &v in train_nodes {
                let target = match labels[v] {
                    Some(t) => t,
                    None => continue,
                };
                let row = z.row(v);
                loss += vector::cross_entropy(row, target) * inv_batch;
                if vector::argmax(row) == target {
                    correct += 1;
                }
                let probs = vector::softmax(row);
                for (c, &p) in probs.iter().enumerate() {
                    d_z.set(v, c, (p - targets.get(v, c)) * inv_batch);
                }
            }

            // gradient through the propagation, then through the MLP
            let mut upstream = self.propagate_transpose(&csr, &d_z);
            for layer in (0..self.weights.len()).rev() {
                let is_output = layer + 1 == self.weights.len();
                let d_pre = if is_output {
                    upstream
                } else {
                    upstream.hadamard(&self.activation.derivative_matrix(&pre[layer]))
                };
                let input = if layer == 0 { &x0 } else { &post[layer - 1] };
                let mut d_w = input.transpose().matmul(&d_pre);
                if cfg.weight_decay > 0.0 {
                    d_w.add_assign(&self.weights[layer].scale(cfg.weight_decay));
                }
                upstream = d_pre.matmul(&self.weights[layer].transpose());
                optimizers[layer].step(&mut self.weights[layer], &d_w);
            }

            report.losses.push(loss);
            report
                .accuracies
                .push(correct as f64 / train_nodes.len() as f64);
        }
        self.weights_p = pack_all(&self.weights);
        self.h.invalidate();
        report
    }
}

impl GnnModel for Appnp {
    fn num_classes(&self) -> usize {
        self.weights.last().expect("non-empty").cols()
    }

    fn num_layers(&self) -> usize {
        // MLP layers plus one propagation step count as the paper's "L".
        self.weights.len() + 1
    }

    fn feature_dim(&self) -> usize {
        self.weights.first().expect("non-empty").rows()
    }

    /// The receptive field radius is the propagation depth, not the MLP depth:
    /// the MLP is node-local and each power iteration widens the field by one
    /// hop.
    fn receptive_hops(&self) -> usize {
        self.prop_iters
    }

    fn forward(&self, ctx: &ForwardCtx<'_>, x: &Matrix) -> Matrix {
        let mut s = ForwardScratch::default();
        self.forward_scratch(ctx, x, &mut s);
        Matrix::from_vec(x.rows(), self.num_classes(), s.a)
    }

    fn forward_into<'s>(
        &self,
        ctx: &ForwardCtx<'_>,
        x: &Matrix,
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        self.forward_scratch(ctx, x, scratch)
    }

    /// The ball's rows of the cached `H`, so localized inference skips the
    /// MLP: bit-identical to running it on the ball's feature rows.
    fn local_inputs_into(&self, graph: &Graph, nodes: &[NodeId], out: &mut Matrix) {
        let h = self.local_logits(graph);
        out.reset(nodes.len(), h.cols());
        for (i, &v) in nodes.iter().enumerate() {
            out.row_mut(i).copy_from_slice(h.row(v));
        }
    }

    /// Only the propagation half: `inputs` already holds the ball's `H` rows.
    fn forward_local_into<'s>(
        &self,
        ctx: &ForwardCtx<'_>,
        inputs: &Matrix,
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        scratch.a.clear();
        scratch.a.extend_from_slice(inputs.data());
        self.propagate_scratch(ctx, inputs.rows(), inputs.cols(), scratch)
    }

    /// The walk-weight top class when certified, else the exact forward.
    fn removal_keeps_label(
        &self,
        label: usize,
        removed: &[Edge],
        scratch: &mut KernelScratch,
    ) -> bool {
        match self.certified_top(removed, &mut scratch.removal) {
            Some(top) => top == label,
            None => vector::argmax(removal_logits_into(self, removed, scratch)) == label,
        }
    }

    /// Walk-weight margins, with every run of near-ties re-scored exactly.
    /// A walk margin is within `2 * bound` of the exact one, so two
    /// candidates whose walk margins lie more than `4 * bound` apart are
    /// ordered as their exact margins are, and an exact margin keeps that
    /// order against a candidate more than `4 * bound` away too. Keys of
    /// candidates with a neighbor (in walk order) closer than that are
    /// replaced by their exact margins, so a stable sort by key orders every
    /// pair exactly as the exact margins do, ties by position included.
    fn removal_ranking_keys(
        &self,
        label: usize,
        candidates: &[Edge],
        scratch: &mut KernelScratch,
    ) -> Vec<f64> {
        let Some(bound) = self.walk_bound(&mut scratch.removal) else {
            return removal_margins(self, label, candidates, scratch);
        };
        let mut keys: Vec<f64> = candidates
            .iter()
            .map(|&e| margin_of_row(self.walk_logits(&[e], &mut scratch.removal), label))
            .collect();
        if keys.iter().any(|m| !m.is_finite()) {
            return removal_margins(self, label, candidates, scratch);
        }
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&i, &j| keys[i].total_cmp(&keys[j]));
        let mut rescore = vec![false; keys.len()];
        for pair in order.windows(2) {
            if keys[pair[1]] - keys[pair[0]] <= 4.0 * bound {
                rescore[pair[0]] = true;
                rescore[pair[1]] = true;
            }
        }
        for (i, &e) in candidates.iter().enumerate() {
            if rescore[i] {
                keys[i] = margin_of_row(removal_logits_into(self, &[e], scratch), label);
            }
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::accuracy;
    use rcw_graph::{EdgeSet, Graph};

    fn two_cluster_graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..12 {
            let class = if i < 6 { 0 } else { 1 };
            let feats = if class == 0 {
                vec![1.0, 0.1 * i as f64]
            } else {
                vec![0.1 * i as f64, 1.0]
            };
            g.add_labeled_node(feats, class);
        }
        for u in 0..6 {
            for v in (u + 1)..6 {
                if (u + v) % 2 == 0 {
                    g.add_edge(u, v);
                }
            }
        }
        for u in 6..12 {
            for v in (u + 1)..12 {
                if (u + v) % 2 == 0 {
                    g.add_edge(u, v);
                }
            }
        }
        g.add_edge(5, 6);
        g
    }

    #[test]
    fn construction_validations() {
        let m = Appnp::new(&[4, 8, 3], 0.15, 10, 0);
        assert_eq!(m.num_classes(), 3);
        assert_eq!(m.feature_dim(), 4);
        assert_eq!(m.num_layers(), 3);
        assert!(m.alpha() > 0.0);
        assert_eq!(m.prop_iters(), 10);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        Appnp::new(&[2, 2], 1.5, 5, 0);
    }

    #[test]
    fn propagation_preserves_constant_rows() {
        // If H is constant across nodes, Z = (1-a)(I-aP)^{-1}H stays constant
        // because P is row-stochastic: the fixed point of z = aPz + (1-a)h
        // with h constant is z = h.
        let g = two_cluster_graph();
        let view = GraphView::full(&g);
        let csr = Csr::from_view(&view);
        let m = Appnp::new(&[2, 2], 0.2, 50, 1);
        let h = Matrix::filled(g.num_nodes(), 2, 3.0);
        let z = m.propagate(&csr, &h);
        for r in 0..z.rows() {
            for c in 0..z.cols() {
                assert!(
                    (z.get(r, c) - 3.0).abs() < 1e-6,
                    "z[{r}][{c}]={}",
                    z.get(r, c)
                );
            }
        }
    }

    #[test]
    fn logits_are_deterministic() {
        let g = two_cluster_graph();
        let view = GraphView::full(&g);
        let m = Appnp::new(&[2, 4, 2], 0.15, 10, 3);
        assert_eq!(m.logits(&view), m.logits(&view));
    }

    #[test]
    fn training_fits_two_clusters() {
        let g = two_cluster_graph();
        let view = GraphView::full(&g);
        let mut m = Appnp::new(&[2, 8, 2], 0.2, 10, 2);
        let cfg = TrainConfig {
            epochs: 150,
            learning_rate: 0.05,
            ..TrainConfig::default()
        };
        let all: Vec<usize> = (0..12).collect();
        let report = m.train(&view, &all, &cfg);
        assert!(report.final_loss() < report.losses[0]);
        assert!(accuracy(&m, &view, &all) >= 0.9);
    }

    #[test]
    fn removing_edges_changes_propagated_logits() {
        let g = two_cluster_graph();
        let view = GraphView::full(&g);
        let m = Appnp::new(&[2, 4, 2], 0.2, 10, 7);
        let full = m.logits(&view);
        let removed: EdgeSet = [(5usize, 6usize)].into_iter().collect();
        let cut = GraphView::without(&g, &removed);
        let cut_logits = m.logits(&cut);
        let diff: f64 = (0..g.num_nodes())
            .map(|v| {
                full.row(v)
                    .iter()
                    .zip(cut_logits.row(v))
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>()
            })
            .sum();
        assert!(diff > 1e-9, "cutting the bridge must change some logits");
    }
}
