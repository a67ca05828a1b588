//! Row-major dense `f64` matrix.
//!
//! [`Matrix`] is the workhorse container for node feature matrices, GNN
//! weights, logits, propagation matrices, and adjacency matrices in dense
//! form. It intentionally keeps a small, explicit API: every operation either
//! returns a new matrix or mutates `self` in place, and all dimension
//! mismatches panic with a descriptive message (they are programming errors in
//! this workspace, not recoverable conditions).

/// A dense row-major matrix of `f64` values.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "Matrix::from_rows: row {i} has inconsistent length"
            );
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable access to the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reads the element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Writes the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Matrix product `self * other`.
    ///
    /// Pre-transposes `other` once and runs the blocked kernel
    /// ([`Matrix::matmul_pret`]), so both operands stream with unit stride.
    /// Bit-identical to [`Matrix::matmul_reference`]: every output element is
    /// the same ascending-`k` accumulation chain with the same zero skips.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{} dimension mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        self.matmul_pret(&other.transpose())
    }

    /// Matrix product `self * other_t^T` where the right operand is given
    /// **already transposed** (`other_t` has shape `cols_out x inner`). Callers
    /// that reuse the same right operand many times (layer weights) transpose
    /// it once and skip the per-call transpose that [`Matrix::matmul`] pays.
    pub fn matmul_pret(&self, other_t: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other_t.rows());
        matmul_pret_rows(&self.data, self.cols, other_t, &mut out.data, None, false);
        out
    }

    /// Scalar reference implementation of [`Matrix::matmul`] (the i-k-j loop
    /// the blocked kernel replaced). Retained for the kernel-equivalence
    /// sweeps and the `bench_kernels` baseline; do not use on hot paths.
    pub fn matmul_reference(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{} dimension mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order: sequential access of `other`'s rows.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (j, &b) in orow.iter().enumerate() {
                    out_row[j] += a * b;
                }
            }
        }
        out
    }

    /// Resizes `self` to `rows x cols` and zero-fills it, reusing the existing
    /// allocation when capacity allows. The scratch-buffer counterpart of
    /// [`Matrix::zeros`].
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns the transpose of `self`.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// In-place elementwise addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling by a scalar.
    pub fn scale_assign(&mut self, s: f64) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Returns `self * s`.
    pub fn scale(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_assign(s);
        out
    }

    /// Applies a function to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let data = self.data.iter().map(|&x| f(x)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Per-row sums.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|r| self.row(r).iter().sum()).collect()
    }

    /// Returns `true` if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Blocked matrix-multiply kernel over a pre-transposed right operand.
///
/// Computes `out[i, :] (+)= a[i, :] * bt^T` for each selected row `i`, where
/// `a` is a row-major `n x a_cols` buffer, `bt` is the **transposed** right
/// operand (`out_cols x a_cols`, row-major) and `out` is a row-major
/// `n x out_cols` buffer. `rows: None` processes every row; `Some(rows)`
/// touches only the listed rows and leaves the rest of `out` untouched. With
/// `accumulate == false` selected output rows are overwritten; with `true` the
/// finished dot products are added onto the existing contents.
///
/// Output columns are computed in 4-wide register tiles and selected rows in
/// blocks of 4, giving 16 independent ascending-`k` accumulation chains that
/// hide FMA latency. Each `(row, col)` chain starts from `0.0` and adds in
/// ascending `k`, so results are bit-identical to
/// [`Matrix::matmul_reference`]: for finite `bt` the reference's `a == 0.0`
/// skip is a no-op (adding `±0.0` never changes a `+0.0`-initialized
/// accumulator), which lets the blocked path run branch-free; non-finite
/// weights fall back to a single-row kernel that performs the skip literally.
///
/// # Panics
/// Panics if `bt.cols() != a_cols` or a selected row is out of bounds for
/// `a`/`out`.
pub fn matmul_pret_rows(
    a: &[f64],
    a_cols: usize,
    bt: &Matrix,
    out: &mut [f64],
    rows: Option<&[usize]>,
    accumulate: bool,
) {
    #[inline(always)]
    fn lanes<const T: usize>(
        arow: &[f64],
        bt: &[f64],
        k: usize,
        orow: &mut [f64],
        accumulate: bool,
    ) {
        let mut acc = [0.0f64; T];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for t in 0..T {
                acc[t] += av * bt[t * k + kk];
            }
        }
        if accumulate {
            for t in 0..T {
                orow[t] += acc[t];
            }
        } else {
            orow[..T].copy_from_slice(&acc);
        }
    }

    /// Four output rows at once against one `T`-column tile of `bt`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn lanes4x<const T: usize>(
        a: &[f64],
        k: usize,
        r: [usize; 4],
        btj: &[f64],
        out: &mut [f64],
        out_cols: usize,
        j: usize,
        accumulate: bool,
    ) {
        let a0 = &a[r[0] * k..(r[0] + 1) * k];
        let a1 = &a[r[1] * k..(r[1] + 1) * k];
        let a2 = &a[r[2] * k..(r[2] + 1) * k];
        let a3 = &a[r[3] * k..(r[3] + 1) * k];
        let mut acc = [[0.0f64; T]; 4];
        for kk in 0..k {
            let av = [a0[kk], a1[kk], a2[kk], a3[kk]];
            for t in 0..T {
                let w = btj[t * k + kk];
                for (accr, avr) in acc.iter_mut().zip(av) {
                    accr[t] += avr * w;
                }
            }
        }
        for (rr, accr) in acc.iter().enumerate() {
            let o = &mut out[r[rr] * out_cols + j..];
            if accumulate {
                for t in 0..T {
                    o[t] += accr[t];
                }
            } else {
                o[..T].copy_from_slice(accr);
            }
        }
    }

    let k = a_cols;
    let out_cols = bt.rows;
    assert_eq!(
        bt.cols, k,
        "matmul_pret_rows: transposed operand has inner dim {} but a has {}",
        bt.cols, k
    );
    if out_cols == 0 {
        return;
    }
    let btd: &[f64] = &bt.data;
    let n_rows = out.len() / out_cols;
    let one_row = |out: &mut [f64], i: usize| {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * out_cols..(i + 1) * out_cols];
        let mut j = 0;
        while j + 4 <= out_cols {
            lanes::<4>(arow, &btd[j * k..], k, &mut orow[j..], accumulate);
            j += 4;
        }
        match out_cols - j {
            3 => lanes::<3>(arow, &btd[j * k..], k, &mut orow[j..], accumulate),
            2 => lanes::<2>(arow, &btd[j * k..], k, &mut orow[j..], accumulate),
            1 => lanes::<1>(arow, &btd[j * k..], k, &mut orow[j..], accumulate),
            _ => {}
        }
    };
    let finite = btd.iter().all(|x| x.is_finite());
    if !finite {
        // Rare path: a non-finite weight makes the `a == 0.0` skip observable
        // (`0.0 * inf` is NaN), so honor it literally, one row at a time.
        match rows {
            None => (0..n_rows).for_each(|i| one_row(out, i)),
            Some(rows) => rows.iter().for_each(|&i| one_row(out, i)),
        }
        return;
    }
    let four_rows = |out: &mut [f64], r: [usize; 4]| {
        let mut j = 0;
        while j + 4 <= out_cols {
            lanes4x::<4>(a, k, r, &btd[j * k..], out, out_cols, j, accumulate);
            j += 4;
        }
        match out_cols - j {
            3 => lanes4x::<3>(a, k, r, &btd[j * k..], out, out_cols, j, accumulate),
            2 => lanes4x::<2>(a, k, r, &btd[j * k..], out, out_cols, j, accumulate),
            1 => lanes4x::<1>(a, k, r, &btd[j * k..], out, out_cols, j, accumulate),
            _ => {}
        }
    };
    match rows {
        None => {
            let mut i = 0;
            while i + 4 <= n_rows {
                four_rows(out, [i, i + 1, i + 2, i + 3]);
                i += 4;
            }
            (i..n_rows).for_each(|i| one_row(out, i));
        }
        Some(rows) => {
            let mut chunks = rows.chunks_exact(4);
            for c in &mut chunks {
                four_rows(out, [c[0], c[1], c[2], c[3]]);
            }
            chunks.remainder().iter().for_each(|&i| one_row(out, i));
        }
    }
}

/// A weight matrix repacked for the blocked matmul kernel: output columns are
/// grouped into tiles of four, and within each tile the four columns' values
/// for one inner index `k` sit contiguously (`[k][j0..j0+4]` order). One tile
/// row is then a single vector load, so the kernel's inner loop is a
/// broadcast-FMA over unit-stride memory instead of four strided scalar
/// loads. The last tile may be 1–3 columns wide and is stored at its own
/// width.
///
/// Whether every packed value is finite is recorded at pack time; the kernel
/// uses it to pick between the branch-free fast path and the literal
/// `a == 0.0`-skip path (see [`matmul_packed_rows`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PackedWeights {
    /// Inner dimension (rows of the source matrix).
    k: usize,
    /// Output columns (columns of the source matrix).
    cols: usize,
    /// Tile-packed values: full tiles of `4 * k`, then one `(cols % 4) * k`
    /// remainder tile.
    data: Vec<f64>,
    finite: bool,
}

impl PackedWeights {
    /// Packs a `k x cols` weight matrix (the right operand of `x * w`).
    pub fn pack(w: &Matrix) -> PackedWeights {
        let (k, cols) = (w.rows, w.cols);
        let mut data = Vec::with_capacity(k * cols);
        let mut j0 = 0;
        while j0 < cols {
            let width = (cols - j0).min(4);
            for kk in 0..k {
                data.extend_from_slice(&w.data[kk * cols + j0..kk * cols + j0 + width]);
            }
            j0 += width;
        }
        let finite = data.iter().all(|x| x.is_finite());
        PackedWeights {
            k,
            cols,
            data,
            finite,
        }
    }

    /// Inner dimension (rows of the source matrix).
    pub fn inner(&self) -> usize {
        self.k
    }

    /// Output columns of the product.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reconstructs the source `k x cols` matrix (tests, serialization).
    pub fn unpack(&self) -> Matrix {
        let mut w = Matrix::zeros(self.k, self.cols);
        let mut j0 = 0;
        let mut base = 0;
        while j0 < self.cols {
            let width = (self.cols - j0).min(4);
            for kk in 0..self.k {
                let src = &self.data[base + kk * width..base + (kk + 1) * width];
                w.data[kk * self.cols + j0..kk * self.cols + j0 + width].copy_from_slice(src);
            }
            base += self.k * width;
            j0 += width;
        }
        w
    }
}

/// Blocked matrix-multiply kernel over a [`PackedWeights`] right operand:
/// `out[i, :] (+)= a[i, :] * w` for each selected row. Same contract as
/// [`matmul_pret_rows`] (row subsets, accumulate, bit-identical results to
/// [`Matrix::matmul_reference`]) but the tile-interleaved layout turns each
/// inner step into one unit-stride vector load plus broadcast FMAs, and the
/// finiteness of the weights was already decided at pack time.
///
/// # Panics
/// Panics if `pw.inner() != a_cols` or a selected row is out of bounds for
/// `a`/`out`.
pub fn matmul_packed_rows(
    a: &[f64],
    a_cols: usize,
    pw: &PackedWeights,
    out: &mut [f64],
    rows: Option<&[usize]>,
    accumulate: bool,
) {
    /// One row against one `T`-wide tile, branch-free.
    #[inline(always)]
    fn tile1<const T: usize>(arow: &[f64], tile: &[f64], orow: &mut [f64], accumulate: bool) {
        let mut acc = [0.0f64; T];
        for (kk, &av) in arow.iter().enumerate() {
            let w = &tile[kk * T..kk * T + T];
            for t in 0..T {
                acc[t] += av * w[t];
            }
        }
        if accumulate {
            for t in 0..T {
                orow[t] += acc[t];
            }
        } else {
            orow[..T].copy_from_slice(&acc);
        }
    }

    /// One row against one `T`-wide tile with the literal `a == 0.0` skip
    /// (non-finite weights make the skip observable).
    #[inline(always)]
    fn tile1_skip<const T: usize>(arow: &[f64], tile: &[f64], orow: &mut [f64], accumulate: bool) {
        let mut acc = [0.0f64; T];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let w = &tile[kk * T..kk * T + T];
            for t in 0..T {
                acc[t] += av * w[t];
            }
        }
        if accumulate {
            for t in 0..T {
                orow[t] += acc[t];
            }
        } else {
            orow[..T].copy_from_slice(&acc);
        }
    }

    /// Four rows against one `T`-wide tile: 4 broadcast lanes x `T` columns
    /// of independent ascending-`k` chains.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn tile4<const T: usize>(
        a: &[f64],
        k: usize,
        r: [usize; 4],
        tile: &[f64],
        out: &mut [f64],
        out_cols: usize,
        j: usize,
        accumulate: bool,
    ) {
        let a0 = &a[r[0] * k..(r[0] + 1) * k];
        let a1 = &a[r[1] * k..(r[1] + 1) * k];
        let a2 = &a[r[2] * k..(r[2] + 1) * k];
        let a3 = &a[r[3] * k..(r[3] + 1) * k];
        let mut acc = [[0.0f64; T]; 4];
        for kk in 0..k {
            let w = &tile[kk * T..kk * T + T];
            let av = [a0[kk], a1[kk], a2[kk], a3[kk]];
            for (accr, avr) in acc.iter_mut().zip(av) {
                for t in 0..T {
                    accr[t] += avr * w[t];
                }
            }
        }
        for (rr, accr) in acc.iter().enumerate() {
            let o = &mut out[r[rr] * out_cols + j..];
            if accumulate {
                for t in 0..T {
                    o[t] += accr[t];
                }
            } else {
                o[..T].copy_from_slice(accr);
            }
        }
    }

    let k = a_cols;
    let out_cols = pw.cols;
    assert_eq!(
        pw.k, k,
        "matmul_packed_rows: packed operand has inner dim {} but a has {}",
        pw.k, k
    );
    if out_cols == 0 {
        return;
    }
    let pd: &[f64] = &pw.data;
    let n_rows = out.len() / out_cols;
    let one_row = |out: &mut [f64], i: usize| {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * out_cols..(i + 1) * out_cols];
        let mut j = 0;
        while j + 4 <= out_cols {
            let tile = &pd[j * k..(j + 4) * k];
            if pw.finite {
                tile1::<4>(arow, tile, &mut orow[j..], accumulate);
            } else {
                tile1_skip::<4>(arow, tile, &mut orow[j..], accumulate);
            }
            j += 4;
        }
        let tile = &pd[j * k..];
        match (out_cols - j, pw.finite) {
            (3, true) => tile1::<3>(arow, tile, &mut orow[j..], accumulate),
            (3, false) => tile1_skip::<3>(arow, tile, &mut orow[j..], accumulate),
            (2, true) => tile1::<2>(arow, tile, &mut orow[j..], accumulate),
            (2, false) => tile1_skip::<2>(arow, tile, &mut orow[j..], accumulate),
            (1, true) => tile1::<1>(arow, tile, &mut orow[j..], accumulate),
            (1, false) => tile1_skip::<1>(arow, tile, &mut orow[j..], accumulate),
            _ => {}
        }
    };
    if !pw.finite {
        // Rare path: a non-finite weight makes the `a == 0.0` skip observable
        // (`0.0 * inf` is NaN), so honor it literally, one row at a time.
        match rows {
            None => (0..n_rows).for_each(|i| one_row(out, i)),
            Some(rows) => rows.iter().for_each(|&i| one_row(out, i)),
        }
        return;
    }
    let four_rows = |out: &mut [f64], r: [usize; 4]| {
        let mut j = 0;
        while j + 4 <= out_cols {
            tile4::<4>(
                a,
                k,
                r,
                &pd[j * k..(j + 4) * k],
                out,
                out_cols,
                j,
                accumulate,
            );
            j += 4;
        }
        let tile = &pd[j * k..];
        match out_cols - j {
            3 => tile4::<3>(a, k, r, tile, out, out_cols, j, accumulate),
            2 => tile4::<2>(a, k, r, tile, out, out_cols, j, accumulate),
            1 => tile4::<1>(a, k, r, tile, out, out_cols, j, accumulate),
            _ => {}
        }
    };
    match rows {
        None => {
            let mut i = 0;
            while i + 4 <= n_rows {
                four_rows(out, [i, i + 1, i + 2, i + 3]);
                i += 4;
            }
            (i..n_rows).for_each(|i| one_row(out, i));
        }
        Some(rows) => {
            let mut chunks = rows.chunks_exact(4);
            for c in &mut chunks {
                four_rows(out, [c[0], c[1], c[2], c[3]]);
            }
            chunks.remainder().iter().for_each(|&i| one_row(out, i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq_slice;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
    }

    #[test]
    fn identity_has_a_unit_diagonal() {
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn from_rows_matches_from_vec() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_panics_on_mismatch() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    /// Random matrix with injected exact zeros, deterministic in the seed.
    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = crate::rng::Rng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| {
                if rng.gen_bool(0.15) {
                    0.0
                } else {
                    rng.gen_range(-2.0..=2.0)
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: element {i} differs ({x} vs {y})"
            );
        }
    }

    #[test]
    fn blocked_matmul_is_bit_exact_vs_reference() {
        // Sweep shapes around the tile boundaries (out_cols % 4 in 0..4),
        // including degenerate inner dims and single rows/cols.
        for seed in 0u64..4 {
            for &(n, k, m) in &[
                (1, 1, 1),
                (2, 3, 4),
                (5, 4, 3),
                (7, 6, 2),
                (8, 5, 5),
                (3, 2, 9),
                (11, 7, 13),
                (6, 1, 8),
            ] {
                let a = random_matrix(n, k, seed ^ ((n as u64) << 8) ^ m as u64);
                let b = random_matrix(k, m, seed.wrapping_mul(31) ^ 0xB17);
                assert_bits_eq(
                    &a.matmul(&b),
                    &a.matmul_reference(&b),
                    &format!("matmul {n}x{k}*{k}x{m} seed {seed}"),
                );
                assert_bits_eq(
                    &a.matmul_pret(&b.transpose()),
                    &a.matmul_reference(&b),
                    &format!("matmul_pret {n}x{k}*{k}x{m} seed {seed}"),
                );
                let pw = PackedWeights::pack(&b);
                assert_bits_eq(&pw.unpack(), &b, "pack/unpack roundtrip");
                let mut out = vec![0.0; n * m];
                matmul_packed_rows(a.data(), k, &pw, &mut out, None, false);
                assert_bits_eq(
                    &Matrix::from_vec(n, m, out),
                    &a.matmul_reference(&b),
                    &format!("matmul_packed {n}x{k}*{k}x{m} seed {seed}"),
                );
            }
        }
    }

    #[test]
    fn packed_matmul_respects_row_subset_accumulate_and_skip() {
        let a = random_matrix(9, 5, 77);
        let b = random_matrix(5, 6, 78);
        let pw = PackedWeights::pack(&b);
        let full = a.matmul_reference(&b);
        let rows = [1usize, 4, 7];
        let mut out = vec![-3.5; 9 * 6];
        matmul_packed_rows(a.data(), 5, &pw, &mut out, Some(&rows), false);
        for r in 0..9 {
            for c in 0..6 {
                let got = out[r * 6 + c];
                if rows.contains(&r) {
                    assert_eq!(got.to_bits(), full.get(r, c).to_bits());
                } else {
                    assert_eq!(got, -3.5, "row {r} should be untouched");
                }
            }
        }
        let mut acc = vec![1.0; 9 * 6];
        matmul_packed_rows(a.data(), 5, &pw, &mut acc, None, true);
        for r in 0..9 {
            for c in 0..6 {
                assert_eq!(acc[r * 6 + c].to_bits(), (1.0 + full.get(r, c)).to_bits());
            }
        }
        // Non-finite weights: the a == 0.0 skip must be honored literally —
        // a zero activation against an infinite weight stays skipped (no NaN).
        let mut binf = b.clone();
        binf.set(2, 3, f64::INFINITY);
        let mut a0 = a.clone();
        a0.set(0, 2, 0.0);
        let pinf = PackedWeights::pack(&binf);
        let mut out = vec![0.0; 9 * 6];
        matmul_packed_rows(a0.data(), 5, &pinf, &mut out, None, false);
        assert_bits_eq(
            &Matrix::from_vec(9, 6, out),
            &a0.matmul_reference(&binf),
            "packed skip semantics under non-finite weights",
        );
    }

    #[test]
    fn matmul_pret_rows_respects_row_subset_and_accumulate() {
        let a = random_matrix(9, 5, 77);
        let b = random_matrix(5, 6, 78);
        let bt = b.transpose();
        let full = a.matmul_reference(&b);
        // subset: only listed rows written, others untouched
        let rows = [1usize, 4, 7];
        let mut out = vec![-3.5; 9 * 6];
        matmul_pret_rows(a.data(), 5, &bt, &mut out, Some(&rows), false);
        for r in 0..9 {
            for c in 0..6 {
                let got = out[r * 6 + c];
                if rows.contains(&r) {
                    assert_eq!(got.to_bits(), full.get(r, c).to_bits());
                } else {
                    assert_eq!(got, -3.5, "row {r} should be untouched");
                }
            }
        }
        // accumulate: adds finished dot products onto existing contents
        let mut acc = vec![1.0; 9 * 6];
        matmul_pret_rows(a.data(), 5, &bt, &mut acc, None, true);
        for r in 0..9 {
            for c in 0..6 {
                assert_eq!(acc[r * 6 + c].to_bits(), (1.0 + full.get(r, c)).to_bits());
            }
        }
    }

    #[test]
    fn reset_reuses_and_zeroes() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.reset(3, 1);
        assert_eq!(m, Matrix::zeros(3, 1));
        m.reset(1, 2);
        assert_eq!(m.shape(), (1, 2));
        assert_eq!(m.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 5.0]]);
        assert_eq!(b.sub(&a), Matrix::from_rows(&[vec![2.0, 3.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[vec![3.0, 10.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[vec![2.0, 4.0]]));
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, 4.0]]);
        assert_eq!(a.max_abs(), 4.0);
        assert!(approx_eq_slice(&a.row_sums(), &[-1.0, 7.0], 1e-12));
    }

    #[test]
    fn map_and_finite() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0]]);
        let m = a.map(|x| x.max(0.0));
        assert_eq!(m, Matrix::from_rows(&[vec![1.0, 0.0]]));
        assert!(a.is_finite());
        let bad = Matrix::from_rows(&[vec![f64::NAN]]);
        assert!(!bad.is_finite());
    }
}
