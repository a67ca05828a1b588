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
//! The same linearity answers label decisions cheaply. `T` rounds of the
//! fixed point give `z_v = (1 - alpha) w^T H` with walk weights
//! `w = sum_{s=0..T} alpha^s e_v^T P^s`, one scalar per ball node, so a
//! decision costs one scalar gather per round instead of one per class. One
//! walk kernel ([`Appnp`]'s `walk_block`) moves up to eight such walks
//! together over one ball, each the ball's view minus its own removed edges:
//! it ranks a block of candidate removals, tests a block of greedy prefixes,
//! or, at width one, answers a single prediction. A walk's answer is used
//! only where a floating-point error bound certifies that the exact forward
//! would give the same one; everything else runs the exact forward over the
//! same ball.

use crate::cache::EpochCache;
use crate::model::{
    ball_logits_into, margin_of_row, one_hot_labels, pack_all, removal_logits_into,
    removal_margins, sized, ForwardScratch, GnnModel, KernelScratch, VariantBase,
};
use crate::train::{Adam, TrainConfig, TrainReport};
use rcw_graph::{Csr, CsrNorms, Edge, ForwardCtx, Graph, GraphView, Locality, NodeId};
use rcw_linalg::{init, matmul_packed_rows, vector, Activation, Matrix, PackedWeights};
use std::sync::Arc;

/// Columns one walk moves together: the width of the ranking and prefix
/// blocks of [`Appnp::walk_block`].
const WALK_BLOCK: usize = 8;

/// Buffers of [`Appnp::walk_block`]: per ball row and column, the
/// degree-scaled walk distribution of the current and the next round and the
/// accumulated walk weights (row-major, `W` values per row); the resulting
/// logits; and the per-column edits of the base ball.
#[derive(Debug, Default)]
pub(crate) struct WalkScratch {
    q: Vec<f64>,
    q_next: Vec<f64>,
    w: Vec<f64>,
    z: Vec<f64>,
    /// Every ball row, for rounds whose schedule is the whole ball.
    all_rows: Vec<usize>,
    /// In-ball endpoints of every removed edge as `(row, column)`, with
    /// repeats.
    ends: Vec<(usize, usize)>,
    /// `(row, column, 1 / (d + 1))` for every row whose degree a column
    /// lowers, `d` being that column's degree of the row; sorted.
    degrees: Vec<(usize, usize, f64)>,
    /// Arcs a column cuts as `(row, column, target)`, sorted.
    cut: Vec<(usize, usize, usize)>,
    /// Whether some column lowers the row's degree.
    edited: Vec<bool>,
}

/// Row `row` of a row-major buffer holding `W` values per row.
fn lanes<const W: usize>(buf: &[f64], row: usize) -> &[f64; W] {
    buf[row * W..(row + 1) * W]
        .try_into()
        .expect("a row holds W lanes")
}

/// [`lanes`], mutably.
fn lanes_mut<const W: usize>(buf: &mut [f64], row: usize) -> &mut [f64; W] {
    (&mut buf[row * W..(row + 1) * W])
        .try_into()
        .expect("a row holds W lanes")
}

/// The top class of walk-weight logits `z` when it leads the runner-up by
/// more than twice the per-logit `bound`: the exact forward's argmax is then
/// the same class. `None` means "run the exact forward".
fn certified_top(z: &[f64], bound: f64) -> Option<usize> {
    let top = vector::argmax(z);
    let runner_up = z
        .iter()
        .enumerate()
        .filter(|&(c, _)| c != top)
        .fold(f64::NEG_INFINITY, |m, (_, &x)| m.max(x));
    (z[top] - runner_up > 2.0 * bound).then_some(top)
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

    /// The per-logit error bound of walk-weight logits over `ball`, whose
    /// input rows `inputs` holds, and over every removal variant of it;
    /// `None` when an `H` row holds a non-finite entry (or one so large that
    /// sums could overflow), in which case every answer falls back to the
    /// exact forward.
    ///
    /// Both the exact forward and [`Appnp::walk_block`] evaluate the same
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
    /// `2^50` roundings loses at most `2^-1075`). A removal variant has the
    /// ball's node count and no larger degrees, so the ball's bound covers
    /// it.
    fn walk_bound(&self, ball: &Locality, inputs: &Matrix) -> Option<f64> {
        let h = inputs.data();
        if h.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let a = h.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        if a > f64::MAX / 4.0 {
            return None;
        }
        let d = ball.degrees().iter().fold(0.0f64, |m, &x| m.max(x));
        let t = self.prop_iters as f64;
        let n = ball.len() as f64;
        Some(
            (2.0 * (t + 1.0) * (d + 4.0) + n + 1.0) * f64::EPSILON * a
                + (1.0 + a) * f64::MIN_POSITIVE,
        )
    }

    /// [`Appnp::walk_bound`] of the removal base, derived once per base.
    fn base_bound(&self, removal: &mut VariantBase) -> Option<f64> {
        let VariantBase {
            ball,
            inputs,
            bound,
            ..
        } = removal;
        let b =
            *bound.get_or_insert_with(|| self.walk_bound(ball, inputs).unwrap_or(f64::INFINITY));
        b.is_finite().then_some(b)
    }

    /// Walk-weight logits of `ball`'s center on up to `W` removal variants
    /// of its view at once: column `k` is the view without `columns[k]`
    /// (columns past `columns.len()` remove nothing), and its logits are
    /// `z = (1 - a) w^T H` with `w = sum_{s=0..T} a^s e_v^T P'^s` over that
    /// variant's `P'`. Returns `W` logits rows, one per column.
    ///
    /// Round `s` gathers `r_s = r_{s-1} P'` over the rows within `s` hops
    /// (outside them `r_s` is zero): `r_s[x] = q[x] + sum_{y in N(x)} q[y]`
    /// with `q = r_{s-1} / (d + 1)`, every column at once over the ball's
    /// own CSR, and scales each gathered row into the next round's `q`. A
    /// column that lowers a row's degree scales that row by the
    /// `1 / (d + 1)` [`CsrNorms::decrement`](rcw_graph::CsrNorms::decrement)
    /// gives, and a row that loses arcs in a column is re-gathered for that
    /// column in CSR order, skipping the cut neighbours. So every column
    /// performs, float for float, the walk over the ball variant
    /// [`BallVariant::derive`](rcw_graph::BallVariant::derive) builds for
    /// its removals, and no variant CSR is copied. The removals must meet
    /// `derive`'s contract (distinct edges, each visible in the view).
    /// Zero walk weights are not skipped in the final dot product, which
    /// changes no bit while `H` is finite, the only case whose logits are
    /// read ([`Appnp::walk_bound`]).
    fn walk_block<'s, const W: usize>(
        &self,
        ball: &Locality,
        inputs: &Matrix,
        columns: &[&[Edge]],
        walk: &'s mut WalkScratch,
    ) -> &'s [f64] {
        assert!(columns.len() <= W, "Appnp::walk_block: too many columns");
        let WalkScratch {
            q,
            q_next,
            w,
            z,
            all_rows,
            ends,
            degrees,
            cut,
            edited,
        } = walk;
        let n = ball.len();
        let ctx = ball.forward_ctx();
        let csr = ball.csr();
        let inv_deg = ball.norms().inv_deg();

        ends.clear();
        cut.clear();
        for (k, removed) in columns.iter().enumerate() {
            for &(a, b) in removed.iter() {
                let (la, lb) = (ball.local_index(a), ball.local_index(b));
                ends.extend([la, lb].into_iter().flatten().map(|i| (i, k)));
                if let (Some(i), Some(j)) = (la, lb) {
                    cut.push((i, k, j));
                    if i != j {
                        cut.push((j, k, i));
                    }
                }
            }
        }
        ends.sort_unstable();
        cut.sort_unstable();
        degrees.clear();
        edited.clear();
        edited.resize(n, false);
        for run in ends.chunk_by(|x, y| x == y) {
            let (row, k) = run[0];
            let mut d = ball.degrees()[row];
            for _ in run {
                d -= 1.0;
            }
            degrees.push((row, k, 1.0 / (d + 1.0)));
            edited[row] = true;
        }
        all_rows.clear();
        all_rows.extend(0..n);

        for buf in [&mut *q, &mut *q_next, &mut *w] {
            buf.clear();
            buf.resize(n * W, 0.0);
        }
        let center = ball.center_index();
        w[center * W..(center + 1) * W].fill(1.0);
        q[center * W..(center + 1) * W].fill(inv_deg[center]);
        for &(row, k, inv) in degrees.iter().filter(|t| t.0 == center) {
            q[row * W + k] = inv;
        }
        let mut weight = 1.0;
        for s in 1..=self.prop_iters {
            weight *= self.alpha;
            let rows = ctx.active_rows(s).unwrap_or(all_rows);
            let (qq, qn, ww) = (&q[..], &mut q_next[..], &mut w[..]);
            for &x in rows {
                let mut acc = *lanes::<W>(qq, x);
                for &y in csr.neighbors(x) {
                    let qy = lanes::<W>(qq, y);
                    for k in 0..W {
                        acc[k] += qy[k];
                    }
                }
                if edited[x] {
                    // finished below, from the raw gather
                    *lanes_mut(qn, x) = acc;
                    continue;
                }
                let (qx, wx) = (lanes_mut::<W>(qn, x), lanes_mut::<W>(ww, x));
                for k in 0..W {
                    qx[k] = acc[k] * inv_deg[x];
                    wx[k] += weight * acc[k];
                }
            }
            // Rows a column edits: re-gather the columns that cut one of the
            // row's arcs, then scale by each column's own degree.
            for run in degrees.chunk_by(|a, b| a.0 == b.0) {
                let x = run[0].0;
                if !ctx.is_active(x, s) {
                    continue;
                }
                let first = cut.partition_point(|t| t.0 < x);
                let cuts = &cut[first..cut.partition_point(|t| t.0 <= x)];
                let mut acc = *lanes::<W>(qn, x);
                for cuts_k in cuts.chunk_by(|a, b| a.1 == b.1) {
                    let k = cuts_k[0].1;
                    let mut a = qq[x * W + k];
                    for &y in csr.neighbors(x) {
                        if !cuts_k.iter().any(|t| t.2 == y) {
                            a += qq[y * W + k];
                        }
                    }
                    acc[k] = a;
                }
                let qx = lanes_mut::<W>(qn, x);
                for k in 0..W {
                    qx[k] = acc[k] * inv_deg[x];
                }
                for &(_, k, inv) in run {
                    qx[k] = acc[k] * inv;
                }
                let wx = lanes_mut::<W>(ww, x);
                for k in 0..W {
                    wx[k] += weight * acc[k];
                }
            }
            std::mem::swap(q, q_next);
        }

        // z^T = H^T w, accumulated class-major so each step is one `W`-wide
        // update, then laid out one logits row per column.
        let classes = inputs.cols();
        q.clear();
        q.resize(classes * W, 0.0);
        for u in 0..n {
            let wu = lanes::<W>(w, u);
            for (c, &h) in inputs.row(u).iter().enumerate() {
                let zc = lanes_mut::<W>(q, c);
                for k in 0..W {
                    zc[k] += wu[k] * h;
                }
            }
        }
        let teleport = 1.0 - self.alpha;
        z.clear();
        z.extend(
            (0..W)
                .flat_map(|k| (0..classes).map(move |c| k + c * W))
                .map(|i| q[i] * teleport),
        );
        z
    }

    /// [`Appnp::walk_block`] at the narrowest of the widths 1, 2, 4 and
    /// [`WALK_BLOCK`] that holds `columns` (at most [`WALK_BLOCK`]), so a
    /// short tail of a block costs what its columns need.
    fn walk<'s>(
        &self,
        ball: &Locality,
        inputs: &Matrix,
        columns: &[&[Edge]],
        walk: &'s mut WalkScratch,
    ) -> &'s [f64] {
        match columns.len() {
            0 | 1 => self.walk_block::<1>(ball, inputs, columns, walk),
            2 => self.walk_block::<2>(ball, inputs, columns, walk),
            3 | 4 => self.walk_block::<4>(ball, inputs, columns, walk),
            _ => self.walk_block::<WALK_BLOCK>(ball, inputs, columns, walk),
        }
    }

    /// The index of the first of `columns` whose removal from the removal
    /// base makes its center lose `label`, each decided from one walk over
    /// all of them when [`certified_top`] certifies it and otherwise by the
    /// exact forward over the variant; `None` when every column keeps it.
    fn first_loss(
        &self,
        label: usize,
        bound: f64,
        columns: &[&[Edge]],
        scratch: &mut KernelScratch,
    ) -> Option<usize> {
        let KernelScratch {
            removal, walk, fwd, ..
        } = scratch;
        let z = self.walk(&removal.ball, &removal.inputs, columns, walk);
        let classes = self.num_classes();
        columns.iter().enumerate().position(|(k, removed)| {
            let top =
                certified_top(&z[k * classes..(k + 1) * classes], bound).unwrap_or_else(|| {
                    vector::argmax(self.variant_logits_into(removal, removed, &[], fwd))
                });
            top != label
        })
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
        let norms = CsrNorms::from_csr(&csr);
        let ctx = ForwardCtx::full_with_norms(&csr, &norms);
        let mut scratch = ForwardScratch::default();
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
            // The inference kernel's propagation half, which reads `H` from
            // the scratch's first buffer.
            let (n, dim) = (h.rows(), h.cols());
            scratch.a.clear();
            scratch.a.extend_from_slice(h.data());
            let z = self.propagate_scratch(&ctx, n, dim, &mut scratch);

            let mut loss = 0.0;
            let mut correct = 0usize;
            let mut d_z = Matrix::zeros(n, dim);
            for &v in train_nodes {
                let target = match labels[v] {
                    Some(t) => t,
                    None => continue,
                };
                let row = &z[v * dim..(v + 1) * dim];
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

    /// The certified walk-weight top class over the ball the query builds,
    /// else the exact forward over that same ball.
    fn predict_with(
        &self,
        v: NodeId,
        view: &GraphView<'_>,
        scratch: &mut KernelScratch,
    ) -> Option<usize> {
        if v >= view.num_nodes() {
            return None;
        }
        let KernelScratch {
            ball,
            build,
            inputs,
            fwd,
            walk,
            ..
        } = scratch;
        ball.rebuild(view, v, self.prop_iters, build);
        self.local_inputs_into(view.graph(), ball.nodes(), inputs);
        let certified = self
            .walk_bound(ball, inputs)
            .and_then(|bound| certified_top(self.walk(ball, inputs, &[], walk), bound));
        Some(certified.unwrap_or_else(|| vector::argmax(ball_logits_into(self, ball, inputs, fwd))))
    }

    /// The walk-weight top class when certified, else the exact forward.
    fn removal_keeps_label(
        &self,
        label: usize,
        removed: &[Edge],
        scratch: &mut KernelScratch,
    ) -> bool {
        match self.base_bound(&mut scratch.removal) {
            Some(bound) => self.first_loss(label, bound, &[removed], scratch).is_none(),
            None => vector::argmax(removal_logits_into(self, removed, scratch)) == label,
        }
    }

    /// Prefixes in blocks of 8 walk columns, stopping at the
    /// first block that holds a flip.
    fn first_flipping_prefix(
        &self,
        label: usize,
        edges: &[Edge],
        scratch: &mut KernelScratch,
    ) -> Option<usize> {
        let Some(bound) = self.base_bound(&mut scratch.removal) else {
            return (0..edges.len()).find(|&i| {
                vector::argmax(removal_logits_into(self, &edges[..=i], scratch)) != label
            });
        };
        (0..edges.len()).step_by(WALK_BLOCK).find_map(|start| {
            let end = (start + WALK_BLOCK).min(edges.len());
            let prefixes: Vec<&[Edge]> = (start..end).map(|i| &edges[..=i]).collect();
            self.first_loss(label, bound, &prefixes, scratch)
                .map(|k| start + k)
        })
    }

    /// Walk-weight margins in blocks of 8 candidates, with
    /// every run of near-ties re-scored exactly. A walk margin is within
    /// `2 * bound` of the exact one, so two candidates whose walk margins
    /// lie more than `4 * bound` apart are ordered as their exact margins
    /// are, and an exact margin keeps that order against a candidate more
    /// than `4 * bound` away too. Keys of candidates with a neighbor (in
    /// walk order) closer than that are replaced by their exact margins, so
    /// a stable sort by key orders every pair exactly as the exact margins
    /// do, ties by position included.
    fn removal_ranking_keys(
        &self,
        label: usize,
        candidates: &[Edge],
        scratch: &mut KernelScratch,
    ) -> Vec<f64> {
        let Some(bound) = self.base_bound(&mut scratch.removal) else {
            return removal_margins(self, label, candidates, scratch);
        };
        let classes = self.num_classes();
        let mut keys: Vec<f64> = Vec::with_capacity(candidates.len());
        for block in candidates.chunks(WALK_BLOCK) {
            let columns: Vec<&[Edge]> = block.iter().map(std::slice::from_ref).collect();
            let KernelScratch { removal, walk, .. } = &mut *scratch;
            let z = self.walk(&removal.ball, &removal.inputs, &columns, walk);
            keys.extend(
                z.chunks(classes)
                    .take(block.len())
                    .map(|row| margin_of_row(row, label)),
            );
        }
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
        let csr = Csr::from_view(&GraphView::full(&g));
        let norms = CsrNorms::from_csr(&csr);
        let m = Appnp::new(&[2, 2], 0.2, 50, 1);
        let n = g.num_nodes();
        let mut s = ForwardScratch::default();
        s.a = vec![3.0; n * 2];
        let z = m.propagate_scratch(&ForwardCtx::full_with_norms(&csr, &norms), n, 2, &mut s);
        for (i, &x) in z.iter().enumerate() {
            assert!((x - 3.0).abs() < 1e-6, "z[{}][{}]={x}", i / 2, i % 2);
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
