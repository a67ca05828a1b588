//! Localized inference support: receptive-field extraction and forward-pass
//! scheduling.
//!
//! For an L-round message-passing model, `M(v, G~)` depends only on the L-hop
//! ball around `v` *under the evaluated view*. [`Locality`] extracts that
//! ball: a BFS under the view, an induced CSR with an order-preserving node
//! remap, the *true view degrees* of every ball node (so normalization at the
//! ball boundary matches the full graph bit for bit), and a per-hop-distance
//! schedule. The schedule exploits a second identity: after round `r` of `L`,
//! only nodes within `L - r` hops of `v` can still influence `v`'s output, so
//! each successive round computes a shrinking prefix of rows — the final
//! round touches exactly one.
//!
//! [`ForwardCtx`] is the compute-graph handle the GNN forward kernels consume:
//! an adjacency with its cached [`CsrNorms`], over either a whole view (every
//! row active in every round) or a [`Locality`] (or one of its variants).
//! Exactness argument: by induction over rounds, a node at distance `d` from
//! `v` has a bit-identical round-`r` value whenever `d <= L - r` — its
//! neighbors are all inside the ball, its degree is the true view degree, and
//! the order-preserving remap keeps every floating-point reduction in the
//! same order as the full-graph pass. At `r = L` that leaves exactly `v`.

use crate::csr::{Csr, CsrNorms};
use crate::graph::NodeId;
use crate::view::GraphView;

/// Row schedule of a localized forward pass: ball nodes ordered by hop
/// distance from the center, with prefix counts per distance. The order
/// vector is packed — each successive round reads a contiguous prefix, so
/// scheduled kernels stream rows sequentially.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Local node indices sorted by (distance, index).
    order: Vec<usize>,
    /// `prefix[d]` = number of ball nodes at distance `<= d`.
    prefix: Vec<usize>,
    /// Hop distance of each local index from the nearest center.
    dist: Vec<u32>,
}

impl Schedule {
    /// Rows whose values must be computed when `remaining` message-passing
    /// rounds follow the current one. `None` means "all rows".
    fn active_rows(&self, remaining: usize) -> Option<&[usize]> {
        if remaining + 1 >= self.prefix.len() {
            return None;
        }
        Some(&self.order[..self.prefix[remaining]])
    }

    /// Whether `row` is among [`Schedule::active_rows`]`(remaining)`.
    fn is_active(&self, row: usize, remaining: usize) -> bool {
        remaining + 1 >= self.prefix.len() || self.dist[row] as usize <= remaining
    }
}

/// Reusable working memory for [`Locality::rebuild`]: the visited set, the
/// neighbor-list arena, and the BFS frontiers. One scratch serves any number
/// of sequential rebuilds; after warm-up, ball extraction performs no heap
/// allocations.
#[derive(Debug, Default)]
pub struct BallScratch {
    /// `(node, distance)` pairs in discovery order, sorted by node at the end.
    visited: Vec<(NodeId, u32)>,
    /// Per-expanded-node neighbor-list spans into `arena`: `(node, start, end)`.
    spans: Vec<(NodeId, u32, u32)>,
    /// All fetched neighbor lists, back to back.
    arena: Vec<NodeId>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    /// Per-host-node visit stamp: `stamp[v] == epoch` iff `v` is in the
    /// current ball. O(1) membership without clearing between rebuilds.
    stamp: Vec<u64>,
    /// Local ball index of stamped nodes (valid only where `stamp` matches).
    local: Vec<u32>,
    epoch: u64,
    /// The `reach` pairs of [`Locality::rebuild_reaching`] as arcs in both
    /// directions, sorted by source.
    reach_arcs: Vec<(NodeId, NodeId)>,
}

/// The receptive field of one node under one view: the BFS ball, its induced
/// CSR (order-preserving remap), true view degrees with their cached
/// normalization vectors, and the row schedule.
#[derive(Clone, Debug, Default)]
pub struct Locality {
    /// Ball nodes as host-graph ids, ascending. Local index = position.
    nodes: Vec<NodeId>,
    /// Local index of the center node.
    center: usize,
    /// Induced adjacency over the ball, in local indices, packed so each
    /// row's neighbor slice is contiguous and rows are laid out in local
    /// index order.
    csr: Csr,
    /// True degree of each ball node *under the view* (not the induced
    /// degree, which is truncated at the ball boundary), with cached
    /// `1/sqrt(d+1)` / `1/(d+1)` for the SpMM kernels.
    norms: CsrNorms,
    schedule: Schedule,
}

/// One flip variant of a [`Locality`]: the base ball's node set and row
/// schedule with some edges removed and others inserted, rebuilt in place by
/// [`BallVariant::derive`] and read through [`BallVariant::ctx`].
#[derive(Debug, Default)]
pub struct BallVariant {
    csr: Csr,
    norms: CsrNorms,
    /// Target-array positions of the arcs the variant cuts (ascending).
    cut: Vec<usize>,
    /// Arcs the variant inserts, as `(position, row, target)` with the
    /// position the arc takes in the base target array (ascending).
    inserted: Vec<(usize, usize, usize)>,
    /// Local indices of the in-ball endpoints of every flip, in flip order
    /// (with repeats); empty when no flip touches the ball.
    changed: Vec<usize>,
}

impl BallVariant {
    /// Derives from `ball`, the ball built on a base view, the ball of that
    /// view with `removed` deleted and `inserted` added: the same node set
    /// and row schedule, the removed arcs cut from the induced CSR, each
    /// inserted arc placed at its sorted position in its row (ball rows
    /// ascend by id, as [`GraphView::neighbors`] does), and the true degree
    /// of every in-ball endpoint moved by one per flip. A flip with both
    /// endpoints outside the ball changes nothing.
    ///
    /// Soundness contract: `removed` are distinct edges visible in the base
    /// view, `inserted` distinct pairs absent from it, and `ball` covers the
    /// flipped view's receptive field with a schedule no later than the
    /// flipped view's own. A removal-only set always satisfies the last
    /// part: deleting edges only lengthens BFS distances, so a ball of the
    /// base view stays a superset. An insertion can shorten them, so a ball
    /// that serves insertions is built by [`Locality::rebuild_reaching`]
    /// with every pair that may be inserted. A path of at most `hops` edges
    /// from the center in a flipped view uses base edges and inserted pairs
    /// only, so it is a path in the base view plus the reach pairs: that
    /// ball holds the flipped view's whole receptive field, and its
    /// distances are no larger than the flipped view's. A forward pass over
    /// the variant is then bit-exact against a pass over `Locality::build`
    /// of the flipped view: every row the center depends on sees the same
    /// neighbors in the same order with the same true degrees. Flipping an
    /// absent, repeated or already present pair would corrupt the recorded
    /// degrees.
    pub fn derive(
        &mut self,
        ball: &Locality,
        removed: &[(NodeId, NodeId)],
        inserted: &[(NodeId, NodeId)],
    ) {
        let BallVariant {
            csr,
            norms,
            cut,
            inserted: arcs,
            changed,
        } = self;
        cut.clear();
        arcs.clear();
        changed.clear();
        let flips = removed
            .iter()
            .map(|&e| (e, false))
            .chain(inserted.iter().map(|&e| (e, true)));
        for ((a, b), insert) in flips {
            let la = ball.local_index(a);
            let lb = ball.local_index(b);
            if la.is_none() && lb.is_none() {
                continue;
            }
            if changed.is_empty() {
                norms.clone_from(&ball.norms);
            }
            for i in [la, lb].into_iter().flatten() {
                changed.push(i);
                if insert {
                    norms.increment(i);
                } else {
                    norms.decrement(i);
                }
            }
            if let (Some(i), Some(j)) = (la, lb) {
                let arcs_of = if i == j {
                    &[(i, j)][..]
                } else {
                    &[(i, j), (j, i)]
                };
                for &(r, t) in arcs_of {
                    if insert {
                        arcs.push((ball.csr.insert_position(r, t), r, t));
                    } else {
                        cut.extend(ball.csr.arc_position(r, t));
                    }
                }
            }
        }
        if changed.is_empty() {
            return;
        }
        cut.sort_unstable();
        arcs.sort_unstable();
        ball.csr.edited_into(cut, arcs, csr);
    }

    /// The compute graph of the variant last derived from `ball`: `ball`'s
    /// own when no flip touched it.
    pub fn ctx<'a>(&'a self, ball: &'a Locality) -> ForwardCtx<'a> {
        if self.changed.is_empty() {
            return ball.forward_ctx();
        }
        debug_assert_eq!(self.norms.len(), ball.len(), "variant of another ball");
        ForwardCtx {
            csr: &self.csr,
            norms: &self.norms,
            schedule: Some(&ball.schedule),
        }
    }

    /// Local indices of the in-ball endpoints of the last derived variant's
    /// flips, in flip order and with repeats: the rows whose adjacency or
    /// degree differs from the base ball's.
    pub fn changed(&self) -> &[usize] {
        &self.changed
    }
}

impl Locality {
    /// Extracts the `hops`-hop receptive field of `center` under `view`.
    ///
    /// # Panics
    /// Panics if `center` is not a valid node of the view.
    pub fn build(view: &GraphView<'_>, center: NodeId, hops: usize) -> Locality {
        let mut out = Locality::default();
        let mut scratch = BallScratch::default();
        out.rebuild(view, center, hops, &mut scratch);
        out
    }

    /// [`Locality::build`] into `self`, reusing both `self`'s buffers and the
    /// caller's [`BallScratch`]. The BFS walks the view in the exact same
    /// discovery order as `build` always has (frontier in discovery order,
    /// neighbors ascending), so the resulting ball, remap, degrees, and
    /// schedule are identical — only the allocations are gone: neighbor lists
    /// land in one arena, the visited set is an epoch-stamped array (O(1)
    /// membership, no clearing between rebuilds), and the induced CSR and
    /// normalization vectors are rebuilt in place.
    ///
    /// # Panics
    /// Panics if `center` is not a valid node of the view.
    pub fn rebuild(
        &mut self,
        view: &GraphView<'_>,
        center: NodeId,
        hops: usize,
        scratch: &mut BallScratch,
    ) {
        self.rebuild_from(view, &[center], hops, &[], scratch);
    }

    /// [`Locality::rebuild`] over a ball that also covers the receptive
    /// field of `view` with any subset of the `reach` pairs inserted: the
    /// BFS walks the view plus the `reach` pairs, so the node set is the
    /// `hops`-ball of `center` in that supergraph and the schedule's
    /// distances are the supergraph's. The induced CSR and the degrees stay
    /// those of `view` itself. This is the base ball of
    /// [`BallVariant::derive`]'s flip variants; with no `reach` pairs it is
    /// exactly [`Locality::rebuild`].
    ///
    /// # Panics
    /// Panics if `center` or a `reach` endpoint is not a valid node of the
    /// view.
    pub fn rebuild_reaching(
        &mut self,
        view: &GraphView<'_>,
        center: NodeId,
        hops: usize,
        reach: &[(NodeId, NodeId)],
        scratch: &mut BallScratch,
    ) {
        self.rebuild_from(view, &[center], hops, reach, scratch);
    }

    /// Multi-center variant of [`Locality::rebuild`]: the union `hops`-hop
    /// receptive field of `centers` under `view`, for batched inference over
    /// several nodes of the same view. Every center seeds the BFS at distance
    /// 0 (duplicates collapse via the visit stamp), so each ball node's
    /// recorded distance is its *minimum* distance to any center. The node
    /// remap stays order-preserving (ascending host ids), degrees are the
    /// true view degrees, and the schedule's final round computes exactly the
    /// center rows.
    ///
    /// Bit-exactness: the single-ball induction applies per center — a node
    /// at distance `d` from center `c` satisfies `min-dist <= d`, so the
    /// schedule keeps it active for at least as many rounds as `c`'s own ball
    /// would, and ascending-id reduction order plus true view degrees make
    /// every computed row identical to the full pass. Each center's output
    /// row therefore equals both its single-ball row and its full-pass row.
    ///
    /// `self.center` is set to the first center's local index; use
    /// [`Locality::local_index`] to address the others.
    ///
    /// # Panics
    /// Panics if `centers` is empty or contains an invalid node.
    pub fn rebuild_multi(
        &mut self,
        view: &GraphView<'_>,
        centers: &[NodeId],
        hops: usize,
        scratch: &mut BallScratch,
    ) {
        assert!(!centers.is_empty(), "Locality::rebuild_multi: no centers");
        self.rebuild_from(view, centers, hops, &[], scratch);
    }

    /// The one ball builder behind [`Locality::rebuild`],
    /// [`Locality::rebuild_reaching`] and [`Locality::rebuild_multi`]: a BFS
    /// from every center over the view plus the `reach` pairs, then the
    /// induced CSR and true degrees of the view over the visited nodes.
    fn rebuild_from(
        &mut self,
        view: &GraphView<'_>,
        centers: &[NodeId],
        hops: usize,
        reach: &[(NodeId, NodeId)],
        scratch: &mut BallScratch,
    ) {
        let n = view.num_nodes();
        let BallScratch {
            visited,
            spans,
            arena,
            frontier,
            next,
            stamp,
            local,
            epoch,
            reach_arcs,
        } = scratch;
        visited.clear();
        spans.clear();
        arena.clear();
        frontier.clear();
        if stamp.len() < n {
            stamp.resize(n, 0);
            local.resize(n, 0);
        }
        *epoch += 1;
        let e = *epoch;
        reach_arcs.clear();
        for &(a, b) in reach {
            assert!(
                a < n && b < n,
                "Locality: reach pair ({a}, {b}) out of range"
            );
            reach_arcs.extend([(a, b), (b, a)]);
        }
        reach_arcs.sort_unstable();

        for &c in centers {
            assert!(c < n, "Locality::build: invalid center node {c}");
            if stamp[c] != e {
                stamp[c] = e;
                visited.push((c, 0));
                frontier.push(c);
            }
        }
        for d in 1..=hops as u32 {
            if frontier.is_empty() || visited.len() == n {
                break;
            }
            next.clear();
            for &u in frontier.iter() {
                let start = arena.len() as u32;
                view.neighbors_into(u, arena);
                let end = arena.len() as u32;
                spans.push((u, start, end));
                let mut visit = |v: NodeId| {
                    if stamp[v] != e {
                        stamp[v] = e;
                        visited.push((v, d));
                        next.push(v);
                    }
                };
                arena[start as usize..end as usize]
                    .iter()
                    .for_each(|&v| visit(v));
                let first = reach_arcs.partition_point(|&(a, _)| a < u);
                reach_arcs[first..]
                    .iter()
                    .take_while(|&&(a, _)| a == u)
                    .for_each(|&(_, b)| visit(b));
            }
            std::mem::swap(frontier, next);
        }

        // Ball nodes ascending; the remap is therefore order-preserving,
        // which keeps neighbor reductions in the same floating-point order as
        // the full pass.
        visited.sort_unstable_by_key(|t| t.0);
        self.nodes.clear();
        self.nodes.extend(visited.iter().map(|&(u, _)| u));
        for (i, &u) in self.nodes.iter().enumerate() {
            local[u] = i as u32;
        }
        spans.sort_unstable_by_key(|t| t.0);
        self.csr.reset();
        self.norms.clear();
        for &u in &self.nodes {
            // nodes expanded by the BFS already have their neighbor list in
            // the arena; boundary nodes fetch theirs now
            let (start, end) = match spans.binary_search_by_key(&u, |t| t.0) {
                Ok(i) => (spans[i].1, spans[i].2),
                Err(_) => {
                    let start = arena.len() as u32;
                    view.neighbors_into(u, arena);
                    (start, arena.len() as u32)
                }
            };
            let nbrs = &arena[start as usize..end as usize];
            self.norms.push_degree(nbrs.len() as f64);
            for &v in nbrs {
                if stamp[v] == e {
                    self.csr.push_target(local[v] as usize);
                }
            }
            self.csr.finish_row();
        }
        self.center = local[centers[0]] as usize;

        // Schedule: local indices grouped by distance, ascending within each
        // group, packed into one prefix-addressed vector; `visited` is in
        // local order, so it also yields each row's distance.
        let Schedule {
            order,
            prefix,
            dist,
        } = &mut self.schedule;
        dist.clear();
        dist.extend(visited.iter().map(|&(_, d)| d));
        let max_d = dist.iter().copied().max().unwrap_or(0);
        order.clear();
        prefix.clear();
        for d in 0..=max_d {
            order.extend((0..dist.len()).filter(|&i| dist[i] == d));
            prefix.push(order.len());
        }
    }

    /// Ball nodes as host-graph ids, ascending.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Local ball index of host node `v`, if it lies inside the ball.
    pub fn local_index(&self, v: NodeId) -> Option<usize> {
        self.nodes.binary_search(&v).ok()
    }

    /// Whether host node `v` lies inside the ball.
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// Local index of the center node.
    pub fn center_index(&self) -> usize {
        self.center
    }

    /// Number of ball nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A receptive field is never empty (it contains the center).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The induced CSR, in local indices.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// True view degrees of the ball nodes.
    pub fn degrees(&self) -> &[f64] {
        self.norms.degrees()
    }

    /// The cached normalization vectors over the true view degrees.
    pub fn norms(&self) -> &CsrNorms {
        &self.norms
    }

    /// The compute-graph handle for the forward kernels.
    pub fn forward_ctx(&self) -> ForwardCtx<'_> {
        ForwardCtx {
            csr: &self.csr,
            norms: &self.norms,
            schedule: Some(&self.schedule),
        }
    }
}

/// A compute graph for one GNN forward pass: adjacency, the cached
/// normalization vectors over its true view degrees, and an optional row
/// schedule (present only for localized evaluation).
#[derive(Clone, Copy, Debug)]
pub struct ForwardCtx<'a> {
    csr: &'a Csr,
    norms: &'a CsrNorms,
    schedule: Option<&'a Schedule>,
}

impl<'a> ForwardCtx<'a> {
    /// A full compute graph over `csr` and its normalization vectors: every
    /// row is active in every round.
    pub fn full_with_norms(csr: &'a Csr, norms: &'a CsrNorms) -> Self {
        assert_eq!(
            csr.num_nodes(),
            norms.len(),
            "ForwardCtx::full_with_norms: degree vector size mismatch"
        );
        ForwardCtx {
            csr,
            norms,
            schedule: None,
        }
    }

    /// The adjacency.
    pub fn csr(&self) -> &'a Csr {
        self.csr
    }

    /// True per-node degrees under the evaluated view (no self-loops).
    pub fn degrees(&self) -> &'a [f64] {
        self.norms.degrees()
    }

    /// Number of nodes (rows) in the compute graph.
    pub fn num_nodes(&self) -> usize {
        self.csr.num_nodes()
    }

    /// Rows whose values the current round must compute, given how many
    /// message-passing rounds follow it. `None` means every row. Rounds count
    /// down: the first of `L` rounds has `remaining = L - 1`, the last `0`.
    pub fn active_rows(&self, remaining: usize) -> Option<&'a [usize]> {
        self.schedule.and_then(|s| s.active_rows(remaining))
    }

    /// Whether `row` is among [`ForwardCtx::active_rows`]`(remaining)`.
    pub fn is_active(&self, row: usize, remaining: usize) -> bool {
        self.schedule.is_none_or(|s| s.is_active(row, remaining))
    }

    /// Symmetric-normalization SpMM over this compute graph; see
    /// [`Csr::spmm_sym_norm_cached`].
    pub fn spmm_sym(&self, x: &[f64], dim: usize, out: &mut [f64], rows: Option<&[usize]>) {
        self.csr.spmm_sym_norm_cached(self.norms, x, dim, out, rows)
    }

    /// Row-normalization SpMM over this compute graph; see
    /// [`Csr::spmm_row_norm_cached`].
    pub fn spmm_row(&self, x: &[f64], dim: usize, out: &mut [f64], rows: Option<&[usize]>) {
        self.csr.spmm_row_norm_cached(self.norms, x, dim, out, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::EdgeSet;
    use crate::graph::Graph;

    fn path5() -> Graph {
        let mut g = Graph::with_nodes(5);
        for uv in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            g.add_edge(uv.0, uv.1);
        }
        g
    }

    #[test]
    fn ball_of_radius_two_on_a_path() {
        let g = path5();
        let view = GraphView::full(&g);
        let local = Locality::build(&view, 2, 2);
        assert_eq!(local.nodes(), &[0, 1, 2, 3, 4]);
        assert_eq!(local.center_index(), 2);
        assert_eq!(local.degrees(), &[1.0, 2.0, 2.0, 2.0, 1.0]);
        let local = Locality::build(&view, 0, 2);
        assert_eq!(local.nodes(), &[0, 1, 2]);
        // node 2 sits on the boundary: its induced degree is truncated but
        // its recorded degree is the true view degree
        assert_eq!(local.csr().degree(2), 1);
        assert_eq!(local.degrees()[2], 2.0);
    }

    #[test]
    fn ball_respects_view_overrides() {
        let g = path5();
        let mut view = GraphView::full(&g);
        view.remove_edges(&EdgeSet::from_iter([(1, 2)]));
        view.add_edges(&EdgeSet::from_iter([(0, 4)]));
        let local = Locality::build(&view, 0, 2);
        // 0 -> {1, 4} -> {3}; the cut (1,2) stops the walk to 2
        assert_eq!(local.nodes(), &[0, 1, 3, 4]);
        assert_eq!(local.degrees(), &[2.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn isolated_center_yields_singleton_ball() {
        let g = path5();
        let view = GraphView::restricted_to(&g, &EdgeSet::new());
        let local = Locality::build(&view, 3, 4);
        assert_eq!(local.nodes(), &[3]);
        assert_eq!(local.center_index(), 0);
        assert_eq!(local.degrees(), &[0.0]);
        assert_eq!(local.csr().num_arcs(), 0);
    }

    #[test]
    fn schedule_shrinks_toward_the_center() {
        let g = path5();
        let view = GraphView::full(&g);
        let local = Locality::build(&view, 0, 3);
        let ctx = local.forward_ctx();
        // last round: only the center row
        assert_eq!(ctx.active_rows(0), Some(&[0usize][..]));
        // one round before: center + 1-hop
        let one = ctx.active_rows(1).unwrap();
        assert_eq!(one, &[0, 1]);
        // at or beyond the radius every row is active
        assert_eq!(ctx.active_rows(3), None);
        assert_eq!(ctx.active_rows(99), None);
    }

    #[test]
    fn rebuild_reuses_scratch_and_matches_fresh_build() {
        use crate::generators::{ensure_connected, stochastic_block_model};
        let mut scratch = BallScratch::default();
        let mut reused = Locality::default();
        for seed in 0u64..4 {
            let (mut g, _) = stochastic_block_model(&[7, 7, 7], 0.4, 0.08, seed);
            ensure_connected(&mut g, seed);
            let mut view = GraphView::full(&g);
            if seed % 2 == 0 {
                view.remove_edges(&EdgeSet::from_iter([(0, 1), (2, 9)]));
                view.add_edges(&EdgeSet::from_iter([(0, 20)]));
            }
            for center in [0usize, 9, 20] {
                for hops in [0usize, 1, 2, 4] {
                    let fresh = Locality::build(&view, center, hops);
                    reused.rebuild(&view, center, hops, &mut scratch);
                    assert_eq!(reused.nodes(), fresh.nodes());
                    assert_eq!(reused.center_index(), fresh.center_index());
                    assert_eq!(reused.csr(), fresh.csr());
                    assert_eq!(reused.degrees(), fresh.degrees());
                    assert_eq!(reused.schedule.order, fresh.schedule.order);
                    assert_eq!(reused.schedule.prefix, fresh.schedule.prefix);
                }
            }
        }
    }

    #[test]
    fn multi_center_ball_unions_single_balls() {
        use crate::generators::{ensure_connected, stochastic_block_model};
        let mut scratch = BallScratch::default();
        let mut multi = Locality::default();
        let mut single = Locality::default();
        for seed in 0u64..4 {
            let (mut g, _) = stochastic_block_model(&[7, 7, 7], 0.4, 0.08, seed);
            ensure_connected(&mut g, seed);
            let mut view = GraphView::full(&g);
            if seed % 2 == 0 {
                view.remove_edges(&EdgeSet::from_iter([(0, 1), (2, 9)]));
            }
            for hops in [0usize, 1, 2, 4] {
                let centers = [0usize, 9, 20];
                multi.rebuild_multi(&view, &centers, hops, &mut scratch);
                // node set is the union of the single balls
                let mut union: Vec<NodeId> = Vec::new();
                for &c in &centers {
                    single.rebuild(&view, c, hops, &mut scratch);
                    union.extend_from_slice(single.nodes());
                }
                union.sort_unstable();
                union.dedup();
                assert_eq!(multi.nodes(), &union[..], "seed {seed} hops {hops}");
                // every center is addressable and sits at distance 0
                assert_eq!(multi.schedule.prefix[0], centers.len());
                for &c in &centers {
                    let i = multi.local_index(c).expect("center in ball");
                    assert!(multi.schedule.order[..centers.len()].contains(&i));
                }
                assert_eq!(multi.center_index(), multi.local_index(0).unwrap());
                // degrees are true view degrees (same rule as single balls)
                for &c in &centers {
                    single.rebuild(&view, c, hops, &mut scratch);
                    let si = single.local_index(c).unwrap();
                    let mi = multi.local_index(c).unwrap();
                    assert_eq!(multi.degrees()[mi], single.degrees()[si]);
                }
            }
            // single-center multi build is identical to the single build
            multi.rebuild_multi(&view, &[9], 2, &mut scratch);
            single.rebuild(&view, 9, 2, &mut scratch);
            assert_eq!(multi.nodes(), single.nodes());
            assert_eq!(multi.center_index(), single.center_index());
            assert_eq!(multi.csr(), single.csr());
            assert_eq!(multi.degrees(), single.degrees());
            assert_eq!(multi.schedule.order, single.schedule.order);
            assert_eq!(multi.schedule.prefix, single.schedule.prefix);
            // duplicate centers collapse
            multi.rebuild_multi(&view, &[9, 9, 9], 2, &mut scratch);
            assert_eq!(multi.nodes(), single.nodes());
            assert_eq!(multi.schedule.prefix[0], 1);
        }
    }

    #[test]
    fn flip_variants_match_the_explicit_flipped_view() {
        use crate::generators::{ensure_connected, stochastic_block_model};
        let (mut g, _) = stochastic_block_model(&[7, 7, 7], 0.4, 0.08, 3);
        ensure_connected(&mut g, 3);
        let path = path5();
        let edges = g.edge_vec();
        let absent: Vec<(NodeId, NodeId)> = (0..g.num_nodes())
            .flat_map(|u| (u + 1..g.num_nodes()).map(move |v| (u, v)))
            .filter(|&(u, v)| !g.has_edge(u, v))
            .collect();
        // (graph, center, hops, removed, inserted, extra reach pairs)
        type Pairs = Vec<(NodeId, NodeId)>;
        type Case<'g> = (&'g Graph, usize, usize, Pairs, Pairs, Pairs);
        let cases: Vec<Case<'_>> = vec![
            // single removals: in-ball, boundary-crossing, fully outside
            (&path, 2, 2, vec![(1, 2)], vec![], vec![]),
            (&path, 2, 2, vec![(2, 3)], vec![], vec![]),
            (&path, 1, 1, vec![(2, 3)], vec![], vec![]),
            (&path, 0, 1, vec![(3, 4)], vec![], vec![]),
            // nothing flipped, and the whole path removed
            (&path, 2, 2, vec![], vec![], vec![]),
            (
                &path,
                2,
                4,
                vec![(0, 1), (2, 1), (2, 3), (4, 3)],
                vec![],
                vec![],
            ),
            // insertions: at the center, reaching past the base ball, at
            // the boundary, fully outside, and unused reach pairs
            (&path, 0, 2, vec![], vec![(0, 4)], vec![]),
            (&path, 0, 1, vec![], vec![(1, 3)], vec![(0, 4)]),
            (&path, 0, 2, vec![], vec![], vec![(0, 4), (1, 3)]),
            (&path, 0, 1, vec![], vec![(2, 4)], vec![]),
            (
                &path,
                2,
                1,
                vec![(1, 2)],
                vec![(0, 2), (4, 0)],
                vec![(1, 4)],
            ),
            // multi-edge sets on an SBM, both orientations, near and far
            (
                &g,
                0,
                2,
                edges.iter().copied().step_by(3).take(5).collect(),
                absent.iter().copied().step_by(11).take(4).collect(),
                vec![],
            ),
            (
                &g,
                9,
                1,
                edges
                    .iter()
                    .map(|&(a, b)| (b, a))
                    .step_by(4)
                    .take(9)
                    .collect(),
                absent
                    .iter()
                    .map(|&(a, b)| (b, a))
                    .step_by(7)
                    .take(6)
                    .collect(),
                absent.iter().copied().skip(3).step_by(13).collect(),
            ),
            (
                &g,
                20,
                3,
                edges.iter().copied().skip(1).step_by(2).collect(),
                absent.iter().copied().step_by(5).take(9).collect(),
                vec![],
            ),
        ];
        let mut scratch = BallScratch::default();
        let mut variant = BallVariant::default();
        let mut ball = Locality::default();
        for (i, (graph, center, hops, removed, inserted, extra)) in cases.into_iter().enumerate() {
            let view = GraphView::full(graph);
            let reach: Vec<(NodeId, NodeId)> = inserted.iter().chain(&extra).copied().collect();
            ball.rebuild_reaching(&view, center, hops, &reach, &mut scratch);
            let mut flipped = view.clone();
            flipped.remove_edges(&removed.iter().copied().collect());
            flipped.add_edges(&inserted.iter().copied().collect());
            variant.derive(&ball, &removed, &inserted);
            let ctx = variant.ctx(&ball);
            assert_eq!(ctx.num_nodes(), ball.len(), "case {i}");
            for (l, &u) in ball.nodes().iter().enumerate() {
                // rows: the flipped view's neighbors inside the ball, in order
                let expected: Vec<usize> = flipped
                    .neighbors(u)
                    .into_iter()
                    .filter_map(|w| ball.local_index(w))
                    .collect();
                assert_eq!(ctx.csr().neighbors(l), &expected[..], "case {i} row {u}");
                // degrees: the flipped view's true degrees
                let degree = flipped.neighbors(u).len() as f64;
                assert_eq!(ctx.degrees()[l], degree, "case {i} degree of {u}");
                assert_eq!(ctx.norms.inv_deg()[l], 1.0 / (degree + 1.0));
            }
            // the changed rows are exactly the in-ball endpoints
            let mut changed = variant.changed().to_vec();
            changed.sort_unstable();
            changed.dedup();
            let mut endpoints: Vec<usize> = removed
                .iter()
                .chain(&inserted)
                .flat_map(|&(a, b)| [a, b])
                .filter_map(|x| ball.local_index(x))
                .collect();
            endpoints.sort_unstable();
            endpoints.dedup();
            assert_eq!(changed, endpoints, "case {i} changed rows");
            // the ball covers the flipped view's own ball, no later in any
            // round, and keeps its own schedule
            let own = Locality::build(&flipped, center, hops);
            for r in 0..6 {
                assert_eq!(
                    ctx.active_rows(r),
                    ball.forward_ctx().active_rows(r),
                    "case {i} round {r}"
                );
                let own_ctx = own.forward_ctx();
                for (l, &u) in own.nodes().iter().enumerate() {
                    let b = ball
                        .local_index(u)
                        .expect("flipped ball inside the base ball");
                    if own_ctx.is_active(l, r) {
                        assert!(ctx.is_active(b, r), "case {i} round {r} node {u}");
                    }
                }
            }
        }
    }

    #[test]
    fn full_ctx_has_no_schedule() {
        let g = path5();
        let csr = Csr::from_view(&GraphView::full(&g));
        let norms = CsrNorms::from_csr(&csr);
        let ctx = ForwardCtx::full_with_norms(&csr, &norms);
        assert_eq!(ctx.num_nodes(), 5);
        assert_eq!(ctx.active_rows(0), None);
    }
}
