//! Compressed sparse row (CSR) adjacency.
//!
//! GNN inference iterates over neighbor lists many times per layer. Building a
//! [`Csr`] snapshot of a [`GraphView`] once per inference call avoids repeated
//! override resolution in the hot loop.
//!
//! The SpMM kernels come in two flavors: `*_cached`, which take a
//! pre-computed [`CsrNorms`] normalization vector and dispatch to
//! exact-width inner loops the compiler can autovectorize, and the retained
//! scalar `*_deg_ref` references they are pinned bit-exact against by the
//! equivalence sweeps below and in `rcw-gnn`.

use crate::graph::{Graph, NodeId};
use crate::view::GraphView;

/// Pre-computed normalization vectors for the SpMM kernels: per-node degrees
/// (without the self-loop) alongside `1 / sqrt(d + 1)` and `1 / (d + 1)`.
///
/// Rebuilding these per SpMM call costs two allocations and a `sqrt` per node
/// per layer; engines cache one `CsrNorms` next to their CSR snapshot
/// (invalidated together by the graph epoch) and localized balls keep one per
/// ball. All derived values are computed with the exact same expressions the
/// scalar reference kernels used, so cached and per-call normalization are
/// bit-identical.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CsrNorms {
    degrees: Vec<f64>,
    inv_sqrt: Vec<f64>,
    inv_deg: Vec<f64>,
}

impl CsrNorms {
    /// Builds the normalization vectors from explicit degrees (without the
    /// self-loop; the `+1` is applied here, as in the SpMM kernels).
    pub fn from_degrees(degrees: Vec<f64>) -> Self {
        let inv_sqrt = degrees.iter().map(|d| 1.0 / (d + 1.0).sqrt()).collect();
        let inv_deg = degrees.iter().map(|d| 1.0 / (d + 1.0)).collect();
        CsrNorms {
            degrees,
            inv_sqrt,
            inv_deg,
        }
    }

    /// Builds the normalization vectors from a CSR's own degrees.
    pub fn from_csr(csr: &Csr) -> Self {
        Self::from_degrees((0..csr.num_nodes()).map(|u| csr.degree(u) as f64).collect())
    }

    /// Number of nodes covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// Whether the vector covers zero nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// The raw degree vector (without self-loops).
    #[inline]
    pub fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    /// Per-node `1 / sqrt(d + 1)`.
    #[inline]
    pub fn inv_sqrt(&self) -> &[f64] {
        &self.inv_sqrt
    }

    /// Per-node `1 / (d + 1)`.
    #[inline]
    pub fn inv_deg(&self) -> &[f64] {
        &self.inv_deg
    }

    /// Decrements node `u`'s degree by one and recomputes its derived values
    /// (used when an edge incident to `u` is removed from the ball).
    #[inline]
    pub fn decrement(&mut self, u: usize) {
        let d = self.degrees[u] - 1.0;
        self.degrees[u] = d;
        self.inv_sqrt[u] = 1.0 / (d + 1.0).sqrt();
        self.inv_deg[u] = 1.0 / (d + 1.0);
    }

    /// Increments node `u`'s degree by one and recomputes its derived values
    /// (used when an edge incident to `u` is inserted into the ball).
    #[inline]
    pub fn increment(&mut self, u: usize) {
        let d = self.degrees[u] + 1.0;
        self.degrees[u] = d;
        self.inv_sqrt[u] = 1.0 / (d + 1.0).sqrt();
        self.inv_deg[u] = 1.0 / (d + 1.0);
    }

    /// Clears all vectors, keeping capacity (scratch-reuse rebuild).
    pub(crate) fn clear(&mut self) {
        self.degrees.clear();
        self.inv_sqrt.clear();
        self.inv_deg.clear();
    }

    /// Appends one node's degree, deriving its normalization values.
    pub(crate) fn push_degree(&mut self, d: f64) {
        self.degrees.push(d);
        self.inv_sqrt.push(1.0 / (d + 1.0).sqrt());
        self.inv_deg.push(1.0 / (d + 1.0));
    }
}

/// Dispatches an SpMM to the exact-width specialization for common column
/// counts (feature dims, hidden widths, class counts seen in this workspace)
/// or to the runtime-width fallback otherwise.
macro_rules! dispatch_dim {
    ($self:expr, $fixed:ident, $dyn:ident, $norms:expr, $x:expr, $dim:expr, $out:expr, $rows:expr) => {
        match $dim {
            1 => $self.$fixed::<1>($norms, $x, $out, $rows),
            2 => $self.$fixed::<2>($norms, $x, $out, $rows),
            3 => $self.$fixed::<3>($norms, $x, $out, $rows),
            4 => $self.$fixed::<4>($norms, $x, $out, $rows),
            6 => $self.$fixed::<6>($norms, $x, $out, $rows),
            8 => $self.$fixed::<8>($norms, $x, $out, $rows),
            16 => $self.$fixed::<16>($norms, $x, $out, $rows),
            24 => $self.$fixed::<24>($norms, $x, $out, $rows),
            32 => $self.$fixed::<32>($norms, $x, $out, $rows),
            48 => $self.$fixed::<48>($norms, $x, $out, $rows),
            64 => $self.$fixed::<64>($norms, $x, $out, $rows),
            _ => $self.$dyn($norms, $x, $dim, $out, $rows),
        }
    };
}

/// Immutable CSR adjacency snapshot with symmetric-normalization helpers.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
}

impl Default for Csr {
    /// An empty zero-node CSR (valid scratch placeholder).
    fn default() -> Self {
        Csr {
            offsets: vec![0],
            targets: Vec::new(),
        }
    }
}

impl Csr {
    /// Builds a CSR snapshot from a graph view.
    pub fn from_view(view: &GraphView<'_>) -> Self {
        let n = view.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for u in 0..n {
            let nbrs = view.neighbors(u);
            targets.extend_from_slice(&nbrs);
            offsets.push(targets.len());
        }
        Csr { offsets, targets }
    }

    /// Builds a CSR snapshot of a host graph's adjacency (the base layer the
    /// delta-CSR views apply their overrides to).
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for u in 0..n {
            targets.extend(graph.neighbors(u));
            offsets.push(targets.len());
        }
        Csr { offsets, targets }
    }

    /// Position of the arc `u -> v` in the target array, if present
    /// (neighbor slices are sorted, so a binary search locates it).
    pub(crate) fn arc_position(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let row = self.neighbors(u);
        row.binary_search(&v).ok().map(|i| self.offsets[u] + i)
    }

    /// Position an absent arc `u -> v` would take in the target array: the
    /// end of the run of `u`'s neighbors below `v`.
    pub(crate) fn insert_position(&self, u: NodeId, v: NodeId) -> usize {
        self.offsets[u] + self.neighbors(u).partition_point(|&t| t < v)
    }

    /// Copies this CSR into `out` edited by two arc lists, reusing `out`'s
    /// allocations: the arcs at target-array positions `cut` (ascending,
    /// distinct) are dropped, and each `(position, row, target)` of
    /// `inserted` (ascending) is placed before the arc now at `position`,
    /// which must be its sorted place in `row` ([`Csr::insert_position`]).
    /// The untouched runs are bulk-copied and each row offset shifts by the
    /// cuts before it and the insertions into earlier rows, so every
    /// surviving arc keeps its neighbor order and downstream floating-point
    /// reductions stay bit-stable.
    pub(crate) fn edited_into(
        &self,
        cut: &[usize],
        inserted: &[(usize, usize, usize)],
        out: &mut Csr,
    ) {
        out.targets.clear();
        let (mut from, mut c, mut i) = (0, 0, 0);
        while i < inserted.len() || c < cut.len() {
            // an insertion at position p goes before a cut of the arc at p
            let p = inserted.get(i).map_or(usize::MAX, |t| t.0);
            let q = cut.get(c).copied().unwrap_or(usize::MAX);
            if p <= q {
                out.targets.extend_from_slice(&self.targets[from..p]);
                out.targets.push(inserted[i].2);
                from = p;
                i += 1;
            } else {
                out.targets.extend_from_slice(&self.targets[from..q]);
                from = q + 1;
                c += 1;
            }
        }
        out.targets.extend_from_slice(&self.targets[from..]);
        out.offsets.clear();
        let (mut cuts_before, mut inserts_before) = (0, 0);
        for (u, &o) in self.offsets.iter().enumerate() {
            while cuts_before < cut.len() && cut[cuts_before] < o {
                cuts_before += 1;
            }
            while inserts_before < inserted.len() && inserted[inserts_before].1 < u {
                inserts_before += 1;
            }
            out.offsets.push(o - cuts_before + inserts_before);
        }
    }

    /// Clears to a zero-node CSR, keeping capacity (scratch-reuse rebuild).
    pub(crate) fn reset(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.targets.clear();
    }

    /// Appends one target to the row currently under construction.
    pub(crate) fn push_target(&mut self, t: NodeId) {
        self.targets.push(t);
    }

    /// Seals the row under construction and starts the next one.
    pub(crate) fn finish_row(&mut self) {
        self.offsets.push(self.targets.len());
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed arcs stored (twice the undirected edge count).
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Neighbors of `u` as a slice.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Whether `(u, v)` is an arc (binary search on the neighbor slice).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Multiplies the symmetrically normalized adjacency (with self-loops)
    /// `D^{-1/2} (A + I) D^{-1/2}` against a dense matrix given as a
    /// row-major buffer with `dim` columns, writing into `out`.
    ///
    /// The degrees come from `norms`, not from the adjacency: an induced
    /// receptive-field subgraph normalizes with the *host view's* true
    /// degrees, which is what makes localized inference bit-exact. Input rows
    /// outside a row schedule are still read, so callers must ensure they
    /// hold valid values.
    ///
    /// The vectorized kernel: per-row accumulation into an exact-width
    /// register tile (`dim` specializations for the common column counts),
    /// self-loop term split out, normalization read from a cached
    /// [`CsrNorms`]. Bit-identical to [`Csr::spmm_sym_norm_deg_ref`]:
    /// each output element is the same self-loop-first, neighbor-order
    /// accumulation chain starting from `0.0`. With a row schedule only the
    /// listed rows are written: a delta pass over buffers that hold a base
    /// pass's rows relies on every other row keeping its value.
    pub fn spmm_sym_norm_cached(
        &self,
        norms: &CsrNorms,
        x: &[f64],
        dim: usize,
        out: &mut [f64],
        rows: Option<&[usize]>,
    ) {
        let n = self.num_nodes();
        assert_eq!(norms.len(), n, "spmm: degree vector size mismatch");
        assert_eq!(x.len(), n * dim, "spmm: input size mismatch");
        assert_eq!(out.len(), n * dim, "spmm: output size mismatch");
        dispatch_dim!(self, sym_rows, sym_rows_dyn, norms, x, dim, out, rows)
    }

    /// Scalar reference implementation of [`Csr::spmm_sym_norm_cached`] over
    /// an explicit degree vector (the loop the vectorized kernel replaced).
    /// Retained for the kernel-equivalence sweeps and the `bench_kernels`
    /// baseline.
    pub fn spmm_sym_norm_deg_ref(
        &self,
        degrees: &[f64],
        x: &[f64],
        dim: usize,
        out: &mut [f64],
        rows: Option<&[usize]>,
    ) {
        let n = self.num_nodes();
        assert_eq!(degrees.len(), n, "spmm: degree vector size mismatch");
        assert_eq!(x.len(), n * dim, "spmm: input size mismatch");
        assert_eq!(out.len(), n * dim, "spmm: output size mismatch");
        let inv_sqrt: Vec<f64> = degrees.iter().map(|d| 1.0 / (d + 1.0).sqrt()).collect();
        let mut row = |u: usize| {
            out[u * dim..(u + 1) * dim].fill(0.0);
            let du = inv_sqrt[u];
            // self-loop contribution
            for c in 0..dim {
                out[u * dim + c] += du * du * x[u * dim + c];
            }
            for &v in self.neighbors(u) {
                let w = du * inv_sqrt[v];
                for c in 0..dim {
                    out[u * dim + c] += w * x[v * dim + c];
                }
            }
        };
        match rows {
            None => (0..n).for_each(&mut row),
            Some(rows) => rows.iter().copied().for_each(&mut row),
        }
    }

    /// Multiplies the row-normalized adjacency with self-loops
    /// `D^{-1} (A + I)` against a dense matrix (APPNP's propagation
    /// operator); see [`Csr::spmm_sym_norm_cached`] for the degree, schedule,
    /// layout and exactness contract (pinned against
    /// [`Csr::spmm_row_norm_deg_ref`]).
    pub fn spmm_row_norm_cached(
        &self,
        norms: &CsrNorms,
        x: &[f64],
        dim: usize,
        out: &mut [f64],
        rows: Option<&[usize]>,
    ) {
        let n = self.num_nodes();
        assert_eq!(norms.len(), n, "spmm: degree vector size mismatch");
        assert_eq!(x.len(), n * dim, "spmm: input size mismatch");
        assert_eq!(out.len(), n * dim, "spmm: output size mismatch");
        dispatch_dim!(self, row_rows, row_rows_dyn, norms, x, dim, out, rows)
    }

    /// Scalar reference implementation of [`Csr::spmm_row_norm_cached`] over
    /// an explicit degree vector; retained for the kernel-equivalence sweeps
    /// and `bench_kernels`.
    pub fn spmm_row_norm_deg_ref(
        &self,
        degrees: &[f64],
        x: &[f64],
        dim: usize,
        out: &mut [f64],
        rows: Option<&[usize]>,
    ) {
        let n = self.num_nodes();
        assert_eq!(degrees.len(), n, "spmm: degree vector size mismatch");
        assert_eq!(x.len(), n * dim, "spmm: input size mismatch");
        assert_eq!(out.len(), n * dim, "spmm: output size mismatch");
        let mut row = |u: usize| {
            out[u * dim..(u + 1) * dim].fill(0.0);
            let d = degrees[u] + 1.0;
            let w = 1.0 / d;
            for c in 0..dim {
                out[u * dim + c] += w * x[u * dim + c];
            }
            for &v in self.neighbors(u) {
                for c in 0..dim {
                    out[u * dim + c] += w * x[v * dim + c];
                }
            }
        };
        match rows {
            None => (0..n).for_each(&mut row),
            Some(rows) => rows.iter().copied().for_each(&mut row),
        }
    }

    /// Symmetric-normalization rows at a compile-time column width: the
    /// accumulator tile lives in registers and every inner loop has an exact
    /// trip count, which is what lets the compiler vectorize across columns.
    fn sym_rows<const D: usize>(
        &self,
        norms: &CsrNorms,
        x: &[f64],
        out: &mut [f64],
        rows: Option<&[usize]>,
    ) {
        let inv_sqrt = norms.inv_sqrt();
        let mut row = |u: usize| {
            let du = inv_sqrt[u];
            let w0 = du * du;
            let xu = &x[u * D..u * D + D];
            let mut acc = [0.0f64; D];
            for c in 0..D {
                acc[c] += w0 * xu[c];
            }
            for &v in self.neighbors(u) {
                let w = du * inv_sqrt[v];
                let xv = &x[v * D..v * D + D];
                for c in 0..D {
                    acc[c] += w * xv[c];
                }
            }
            out[u * D..u * D + D].copy_from_slice(&acc);
        };
        match rows {
            None => (0..self.num_nodes()).for_each(&mut row),
            Some(rows) => rows.iter().copied().for_each(&mut row),
        }
    }

    /// Runtime-width fallback of [`Csr::sym_rows`] (uncommon `dim`s); still
    /// slice-based and allocation-free.
    fn sym_rows_dyn(
        &self,
        norms: &CsrNorms,
        x: &[f64],
        dim: usize,
        out: &mut [f64],
        rows: Option<&[usize]>,
    ) {
        let inv_sqrt = norms.inv_sqrt();
        let mut row = |u: usize| {
            let du = inv_sqrt[u];
            let w0 = du * du;
            let xu = &x[u * dim..(u + 1) * dim];
            let orow = &mut out[u * dim..(u + 1) * dim];
            orow.fill(0.0);
            for c in 0..dim {
                orow[c] += w0 * xu[c];
            }
            for &v in self.neighbors(u) {
                let w = du * inv_sqrt[v];
                let xv = &x[v * dim..(v + 1) * dim];
                for c in 0..dim {
                    orow[c] += w * xv[c];
                }
            }
        };
        match rows {
            None => (0..self.num_nodes()).for_each(&mut row),
            Some(rows) => rows.iter().copied().for_each(&mut row),
        }
    }

    /// Row-normalization rows at a compile-time column width; see
    /// [`Csr::sym_rows`].
    fn row_rows<const D: usize>(
        &self,
        norms: &CsrNorms,
        x: &[f64],
        out: &mut [f64],
        rows: Option<&[usize]>,
    ) {
        let inv_deg = norms.inv_deg();
        let mut row = |u: usize| {
            let w = inv_deg[u];
            let xu = &x[u * D..u * D + D];
            let mut acc = [0.0f64; D];
            for c in 0..D {
                acc[c] += w * xu[c];
            }
            for &v in self.neighbors(u) {
                let xv = &x[v * D..v * D + D];
                for c in 0..D {
                    acc[c] += w * xv[c];
                }
            }
            out[u * D..u * D + D].copy_from_slice(&acc);
        };
        match rows {
            None => (0..self.num_nodes()).for_each(&mut row),
            Some(rows) => rows.iter().copied().for_each(&mut row),
        }
    }

    /// Runtime-width fallback of [`Csr::row_rows`].
    fn row_rows_dyn(
        &self,
        norms: &CsrNorms,
        x: &[f64],
        dim: usize,
        out: &mut [f64],
        rows: Option<&[usize]>,
    ) {
        let inv_deg = norms.inv_deg();
        let mut row = |u: usize| {
            let w = inv_deg[u];
            let xu = &x[u * dim..(u + 1) * dim];
            let orow = &mut out[u * dim..(u + 1) * dim];
            orow.fill(0.0);
            for c in 0..dim {
                orow[c] += w * xu[c];
            }
            for &v in self.neighbors(u) {
                let xv = &x[v * dim..(v + 1) * dim];
                for c in 0..dim {
                    orow[c] += w * xv[c];
                }
            }
        };
        match rows {
            None => (0..self.num_nodes()).for_each(&mut row),
            Some(rows) => rows.iter().copied().for_each(&mut row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn star() -> Graph {
        // node 0 connected to 1, 2, 3
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        g
    }

    #[test]
    fn csr_matches_view() {
        let g = star();
        let view = GraphView::full(&g);
        let csr = Csr::from_view(&view);
        assert_eq!(csr.num_nodes(), 4);
        assert_eq!(csr.num_arcs(), 6);
        assert_eq!(csr.neighbors(0), &[1, 2, 3]);
        assert_eq!(csr.neighbors(2), &[0]);
        assert_eq!(csr.degree(0), 3);
        assert!(csr.has_edge(0, 2));
        assert!(!csr.has_edge(1, 2));
    }

    #[test]
    fn sym_norm_spmm_of_constant_vector() {
        // For x = all-ones and symmetric normalization with self-loops,
        // row u gets sum over {u} ∪ N(u) of 1/sqrt(d_u d_v).
        let g = star();
        let csr = Csr::from_view(&GraphView::full(&g));
        let x = vec![1.0; 4];
        let mut out = vec![0.0; 4];
        csr.spmm_sym_norm_cached(&CsrNorms::from_csr(&csr), &x, 1, &mut out, None);
        let d0 = 4.0_f64;
        let dleaf = 2.0_f64;
        let expected0 = 1.0 / d0 + 3.0 / (d0.sqrt() * dleaf.sqrt());
        assert!((out[0] - expected0).abs() < 1e-12);
        let expected_leaf = 1.0 / dleaf + 1.0 / (d0.sqrt() * dleaf.sqrt());
        assert!((out[1] - expected_leaf).abs() < 1e-12);
    }

    #[test]
    fn row_norm_spmm_preserves_constant_vectors() {
        // Row-normalized propagation of a constant vector stays constant.
        let g = star();
        let csr = Csr::from_view(&GraphView::full(&g));
        let x = vec![2.5; 4];
        let mut out = vec![0.0; 4];
        csr.spmm_row_norm_cached(&CsrNorms::from_csr(&csr), &x, 1, &mut out, None);
        for v in out {
            assert!((v - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn spmm_respects_multiple_columns() {
        let g = star();
        let csr = Csr::from_view(&GraphView::full(&g));
        let x = vec![
            1.0, 0.0, //
            0.0, 1.0, //
            0.0, 1.0, //
            0.0, 1.0,
        ];
        let mut out = vec![0.0; 8];
        csr.spmm_row_norm_cached(&CsrNorms::from_csr(&csr), &x, 2, &mut out, None);
        // node 1 row: (x1 + x0) / 2 = (0+1, 1+0)/2
        assert!((out[2] - 0.5).abs() < 1e-12);
        assert!((out[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "spmm")]
    fn spmm_panics_on_bad_dims() {
        let g = star();
        let csr = Csr::from_view(&GraphView::full(&g));
        let x = vec![0.0; 3];
        let mut out = vec![0.0; 4];
        csr.spmm_row_norm_cached(&CsrNorms::from_csr(&csr), &x, 1, &mut out, None);
    }

    #[test]
    fn norms_match_reference_expressions_and_decrement() {
        let g = star();
        let csr = Csr::from_view(&GraphView::full(&g));
        let mut norms = CsrNorms::from_csr(&csr);
        assert_eq!(norms.len(), 4);
        for u in 0..4 {
            let d = csr.degree(u) as f64;
            assert_eq!(norms.degrees()[u].to_bits(), d.to_bits());
            assert_eq!(
                norms.inv_sqrt()[u].to_bits(),
                (1.0 / (d + 1.0).sqrt()).to_bits()
            );
            assert_eq!(norms.inv_deg()[u].to_bits(), (1.0 / (d + 1.0)).to_bits());
        }
        norms.decrement(0);
        // after removing one incident edge, node 0 must normalize exactly like
        // a freshly built vector over the reduced degree
        let fresh = CsrNorms::from_degrees(vec![2.0]);
        assert_eq!(norms.inv_sqrt()[0].to_bits(), fresh.inv_sqrt()[0].to_bits());
        assert_eq!(norms.inv_deg()[0].to_bits(), fresh.inv_deg()[0].to_bits());
    }

    #[test]
    fn edited_into_reuses_scratch_and_keeps_order() {
        let g = star();
        let csr = Csr::from_view(&GraphView::full(&g));
        let mut out = Csr::default();
        // cut 0 -> 2 and 2 -> 0
        let cut = [
            csr.arc_position(0, 2).unwrap(),
            csr.arc_position(2, 0).unwrap(),
        ];
        let mut sorted = cut;
        sorted.sort_unstable();
        csr.edited_into(&sorted, &[], &mut out);
        assert_eq!(out.neighbors(0), &[1, 3]);
        assert_eq!(out.neighbors(1), &[0]);
        assert_eq!(out.neighbors(2), &[] as &[NodeId]);
        assert_eq!(out.neighbors(3), &[0]);
        assert_eq!(out.num_arcs(), csr.num_arcs() - 2);
        // reuse: an empty edit must fully rebuild the scratch as a copy
        csr.edited_into(&[], &[], &mut out);
        assert_eq!(out, csr);
        // every arc of the hub cut at once
        let hub: Vec<usize> = (0..3).map(|i| csr.offsets[0] + i).collect();
        csr.edited_into(&hub, &[], &mut out);
        assert_eq!(out.neighbors(0), &[] as &[NodeId]);
        assert_eq!(out.neighbors(3), &[0]);
        assert_eq!(csr.arc_position(1, 2), None);
        // insert 1 -- 3 and 2 -- 3 (rows 1 and 2 end, row 3 front and
        // middle) while cutting 0 -- 2: both insertions at position 3's
        // front share the spot of the first row-3 arc
        let mut inserted: Vec<(usize, usize, usize)> = [(1, 3), (3, 1), (2, 3), (3, 2)]
            .into_iter()
            .map(|(r, t)| (csr.insert_position(r, t), r, t))
            .collect();
        inserted.sort_unstable();
        csr.edited_into(&sorted, &inserted, &mut out);
        let mut expected = Graph::with_nodes(4);
        for (u, v) in [(0, 1), (0, 3), (1, 3), (2, 3)] {
            expected.add_edge(u, v);
        }
        assert_eq!(out, Csr::from_graph(&expected));
        // a row that loses its only arc and gains one at the same spot
        let swap = [(csr.insert_position(3, 2), 3, 2)];
        csr.edited_into(&[csr.arc_position(3, 0).unwrap()], &swap, &mut out);
        assert_eq!(out.neighbors(3), &[2]);
        assert_eq!(out.neighbors(0), csr.neighbors(0));
    }

    /// Random connected graph + random feature buffer, deterministic in seed.
    fn random_case(seed: u64, dim: usize) -> (Csr, Vec<f64>, Vec<f64>) {
        use crate::generators::{ensure_connected, stochastic_block_model};
        let (mut g, _) = stochastic_block_model(&[9, 8, 7], 0.35, 0.08, seed);
        ensure_connected(&mut g, seed.wrapping_add(5));
        let csr = Csr::from_view(&GraphView::full(&g));
        let n = csr.num_nodes();
        let degrees: Vec<f64> = (0..n).map(|u| csr.degree(u) as f64).collect();
        let mut rng = rcw_linalg::Rng::seed_from_u64(seed ^ ((dim as u64) << 4));
        let x: Vec<f64> = (0..n * dim)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    0.0
                } else {
                    rng.gen_range(-1.5..=1.5)
                }
            })
            .collect();
        (csr, degrees, x)
    }

    #[test]
    fn vectorized_spmm_is_bit_exact_vs_scalar_reference() {
        // Sweep every specialized width, the runtime fallback, and scheduled
        // row subsets; outputs must match the scalar reference to the bit.
        for seed in 0u64..3 {
            for &dim in &[1usize, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24, 33] {
                let (csr, degrees, x) = random_case(seed, dim);
                let n = csr.num_nodes();
                let norms = CsrNorms::from_degrees(degrees.clone());
                let subset: Vec<usize> = (0..n).step_by(3).collect();
                let mut fast = vec![f64::NAN; n * dim];
                let mut slow = vec![f64::NAN; n * dim];
                for rows in [None, Some(subset.as_slice())] {
                    csr.spmm_sym_norm_cached(&norms, &x, dim, &mut fast, rows);
                    csr.spmm_sym_norm_deg_ref(&degrees, &x, dim, &mut slow, rows);
                    // rows=None overwrites every element, so comparing the
                    // full buffers also proves full-coverage writes
                    let pairs = fast.iter().zip(&slow);
                    for (i, (f, s)) in pairs.enumerate() {
                        assert_eq!(
                            f.to_bits(),
                            s.to_bits(),
                            "sym dim {dim} seed {seed} rows {:?} elem {i}: {f} != {s}",
                            rows.map(<[usize]>::len)
                        );
                    }
                    csr.spmm_row_norm_cached(&norms, &x, dim, &mut fast, rows);
                    csr.spmm_row_norm_deg_ref(&degrees, &x, dim, &mut slow, rows);
                    for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                        assert_eq!(
                            f.to_bits(),
                            s.to_bits(),
                            "row dim {dim} seed {seed} elem {i}: {f} != {s}"
                        );
                    }
                }
            }
        }
    }
}
