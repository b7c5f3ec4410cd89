//! Dense row-major `f32` matrix used as the value type of every graph node.
//!
//! The matrix is deliberately minimal: the autograd graph in [`crate::graph`]
//! is responsible for composition; this type only knows how to hold data and
//! perform the eager value computations each op needs.
//!
//! Every kernel here runs on the calling thread. The CE models multiply
//! 64-row batches by 32–64-wide layers, far too little work to amortize a
//! pool fan-out, so parallelism lives at coarse grain only (batches of
//! `COUNT(*)` queries, seeds, bench grid cells). Each kernel has one code
//! path, and its accumulation order is a function of the input shape alone.

use std::fmt;

/// Height of one `b`-row panel of the blocked matmul kernel: the panel
/// (`MATMUL_PANEL × m` floats of `b`) stays resident in L1/L2 while every
/// output row streams over it. Blocking reorders the *loop nest*, not the
/// per-element accumulation: each `out[i][j]` still sums its `k` products in
/// ascending-`k` order, so blocked and unblocked results are bit-identical.
const MATMUL_PANEL: usize = 128;

/// Accumulates `av · b_row` into `out_row` — one rank-1 row update of the
/// panel kernel, in ascending-`j` order.
#[inline]
fn axpy_row(out_row: &mut [f32], av: f32, b_row: &[f32]) {
    for (o, &bv) in out_row.iter_mut().zip(b_row) {
        *o += av * bv;
    }
}

/// Computes `a · b` into `out`, the row-major storage of the product.
///
/// The kernel is dense: every product `a[i][k] · b[k][j]` is formed and
/// added, so `0 · NaN` and `0 · ±Inf` reach the accumulator as NaN and
/// non-finite values propagate without any scan of `b` (the contract
/// `Graph::push`'s producer tracking and `PACE_FINITE` rely on). Adding the
/// `±0` products of zero entries costs nothing in bits: every accumulator
/// starts at `+0.0`, and under round-to-nearest a sum is `−0.0` only when
/// both addends are `−0.0`, so the accumulator is never `−0.0` and adding
/// `±0` to it is the identity.
///
/// Runs of four `b` rows are processed together with the accumulator kept
/// in a register across all four updates — per output element that is the
/// *same sequence* of ascending-`k` adds a scalar triple loop performs, so
/// blocked and unrolled results stay bit-identical.
fn matmul_rows(out: &mut [f32], a: &Matrix, b: &Matrix) {
    let (k, m) = (a.cols, b.cols);
    out.fill(0.0);
    for panel in (0..k).step_by(MATMUL_PANEL) {
        let panel_end = (panel + MATMUL_PANEL).min(k);
        for i in 0..a.rows {
            let a_row = &a.data[i * k..(i + 1) * k];
            let out_row = &mut out[i * m..(i + 1) * m];
            let mut kk = panel;
            while kk + 4 <= panel_end {
                let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
                let b0 = &b.data[kk * m..(kk + 1) * m];
                let b1 = &b.data[(kk + 1) * m..(kk + 2) * m];
                let b2 = &b.data[(kk + 2) * m..(kk + 3) * m];
                let b3 = &b.data[(kk + 3) * m..(kk + 4) * m];
                for ((((o, &v0), &v1), &v2), &v3) in
                    out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    // Four sequential adds in ascending-k order — the
                    // accumulator stays in a register, the order is the
                    // scalar loop's.
                    let mut acc = *o;
                    acc += a0 * v0;
                    acc += a1 * v1;
                    acc += a2 * v2;
                    acc += a3 * v3;
                    *o = acc;
                }
                kk += 4;
            }
            for (kk, &av) in (kk..panel_end).zip(&a_row[kk..panel_end]) {
                axpy_row(out_row, av, &b.data[kk * m..(kk + 1) * m]);
            }
        }
    }
}

/// Modeled FLOPs of an `n×k · k×m` product (two per multiply-add), computed
/// entirely in saturating `u64`. The counter once computed `2 * flops` with
/// `flops` saturated in `usize` arithmetic — at `usize::MAX` the doubling
/// wrapped in release and panicked in debug despite the upstream
/// `saturating_mul`s; clamping every stage in `u64` makes pathological
/// shapes saturate instead.
pub(crate) fn matmul_flop_count(n: usize, k: usize, m: usize) -> u64 {
    (n as u64)
        .saturating_mul(k as u64)
        .saturating_mul(m as u64)
        .saturating_mul(2)
}

/// Writes `a · b` into `dst`, reusing `dst`'s allocation. This is the one
/// matmul kernel in the workspace: [`Matrix::matmul`] calls it.
///
/// # Panics
/// Panics when inner dimensions differ.
pub(crate) fn matmul_into(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols, b.rows,
        "matmul shape mismatch: {}x{} . {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    let (n, k, m) = (a.rows, a.cols, b.cols);
    dst.reset_shape(n, m);
    pace_trace::MATMUL_FLOPS.add(matmul_flop_count(n, k, m));
    matmul_rows(&mut dst.data, a, b);
}

/// Edge of the square tiles [`transpose_into`] blocks the copy into: a
/// 32×32 `f32` tile is 4 KiB read + 4 KiB written, resident in L1 while
/// both the source rows and the destination rows of the tile are streamed.
const TRANSPOSE_TILE: usize = 32;

/// Writes `src`ᵀ into `dst`, reusing `dst`'s allocation. Blocked into
/// [`TRANSPOSE_TILE`]² tiles like the matmul panel kernel: the naive loop
/// walks one side of the copy at a column stride, missing cache on every
/// element for matrices wider than a cache line — and a transpose sits on
/// every gradient path through `Op::MatMul`. Element values are
/// position-copies, so tiling changes only the visit order, never the
/// result.
pub(crate) fn transpose_into(dst: &mut Matrix, src: &Matrix) {
    let (r, c) = src.shape();
    dst.reset_shape(c, r);
    let out = dst.data.as_mut_slice();
    for ci in (0..c).step_by(TRANSPOSE_TILE) {
        let ce = (ci + TRANSPOSE_TILE).min(c);
        for ri in (0..r).step_by(TRANSPOSE_TILE) {
            let re = (ri + TRANSPOSE_TILE).min(r);
            for cc in ci..ce {
                let out_row = &mut out[cc * r + ri..cc * r + re];
                for (rr, o) in (ri..re).zip(out_row) {
                    *o = src.data[rr * c + cc];
                }
            }
        }
    }
}

/// Asserts that `idx` names distinct rows of an `n`-row matrix, so that
/// gathering and scattering those rows are each other's inverse.
fn check_row_indices(idx: &[usize], n: usize) {
    let mut seen = vec![false; n];
    for &r in idx {
        assert!(r < n, "row index {r} out of range for {n} rows");
        assert!(!seen[r], "row index {r} repeats");
        seen[r] = true;
    }
}

/// A dense, row-major matrix of `f32` values.
///
/// Scalars are represented as `1×1`, row vectors as `1×n`. All autograd ops
/// operate on this type; shape errors panic with a descriptive message since
/// they are programming errors, not runtime conditions.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// Creates a matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a `1×1` matrix holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Creates a `1×n` row vector from a slice.
    pub fn row(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
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

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True when the matrix is `1×1`.
    #[inline]
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// The single element of a `1×1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1×1`.
    pub fn as_scalar(&self) -> f32 {
        assert!(
            self.is_scalar(),
            "as_scalar called on {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two same-shaped matrices elementwise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape(),
            other.shape(),
            "elementwise op on mismatched shapes {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    // ---- value kernels shared by the graph ops and the tape-free forwards --
    //
    // Each kernel below is the only place its arithmetic is written: the
    // `Graph` op of the same name and the `infer` methods of `crate::nn`
    // both call it, so a value computed with or without a tape is
    // bit-identical by construction rather than within a tolerance. The
    // elementwise kernels allocate a fresh result, as the graph ops always
    // did: copying an operand and updating it in place made the MSCN
    // attack hypergradient about 40% slower on a 2-vCPU Xeon. The two
    // broadcasts consume `self`; their graph ops clone the operand first.

    /// Elementwise `self + other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_elems(&self, other: &Self) -> Self {
        self.zip(other, |x, y| x + y)
    }

    /// Elementwise `self − other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub_elems(&self, other: &Self) -> Self {
        self.zip(other, |x, y| x - y)
    }

    /// Elementwise (Hadamard) product `self ⊙ other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul_elems(&self, other: &Self) -> Self {
        self.zip(other, |x, y| x * y)
    }

    /// Adds the constant `c` to every element.
    pub fn add_scalar(&self, c: f32) -> Self {
        self.map(|x| x + c)
    }

    /// Multiplies every element by the constant `c`.
    pub fn mul_scalar(&self, c: f32) -> Self {
        self.map(|x| x * c)
    }

    /// Raises every element to the constant power `p`.
    pub fn pow_scalar(&self, p: f32) -> Self {
        self.map(|x| x.powf(p))
    }

    /// Elementwise logistic sigmoid `1 / (1 + e^{−x})`.
    pub fn sigmoid(&self) -> Self {
        self.map(|x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Self {
        self.map(f32::tanh)
    }

    /// Elementwise rectifier `max(x, 0)` (IEEE `max`: a NaN input gives 0).
    pub fn relu(&self) -> Self {
        self.map(|x| x.max(0.0))
    }

    /// Adds a `1×d` row vector to every row of this `n×d` matrix.
    ///
    /// # Panics
    /// Panics unless `row` is `1×d`.
    pub fn add_row(mut self, row: &Self) -> Self {
        assert_eq!(row.rows, 1, "add_row rhs must be 1xN");
        assert_eq!(self.cols, row.cols, "add_row dim mismatch");
        if self.cols > 0 {
            for out_row in self.data.chunks_exact_mut(self.cols) {
                for (o, &b) in out_row.iter_mut().zip(&row.data) {
                    *o += b;
                }
            }
        }
        self
    }

    /// Multiplies every column of this `n×d` matrix by an `n×1` column.
    ///
    /// # Panics
    /// Panics unless `col` is `n×1`.
    pub fn mul_col(mut self, col: &Self) -> Self {
        assert_eq!(col.cols, 1, "mul_col rhs must be Nx1");
        assert_eq!(self.rows, col.rows, "mul_col dim mismatch");
        if self.cols > 0 {
            for (out_row, &f) in self.data.chunks_exact_mut(self.cols).zip(&col.data) {
                for o in out_row {
                    *o *= f;
                }
            }
        }
        self
    }

    /// Row sums: `n×d → n×1`, each summed left to right.
    pub fn sum_cols(&self) -> Self {
        let data: Vec<f32> = (0..self.rows)
            .map(|r| self.row_slice(r).iter().sum())
            .collect();
        Self::from_vec(self.rows, 1, data)
    }

    /// Matrix product `self · other` — the dense, blocked panel
    /// kernel ([`matmul_into`]). Every product is formed, so `0 · NaN` and
    /// `0 · Inf` propagate as NaN; the `±0` products of zero entries leave
    /// the bits unchanged.
    ///
    /// # Panics
    /// Panics when inner dimensions differ.
    pub fn matmul(&self, other: &Self) -> Self {
        let mut out = Self {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        };
        matmul_into(&mut out, self, other);
        out
    }

    /// Transposed copy — the tiled kernel ([`transpose_into`]).
    pub fn transpose(&self) -> Self {
        let mut out = Self {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        };
        transpose_into(&mut out, self);
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Column-wise sum, producing a `1×cols` row vector.
    pub fn sum_rows(&self) -> Self {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row_slice(r)) {
                *o += x;
            }
        }
        Self {
            rows: 1,
            cols: self.cols,
            data: out,
        }
    }

    /// Stacks `n` copies of a `1×cols` row vector into an `n×cols` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not a single row.
    pub fn repeat_rows(&self, n: usize) -> Self {
        assert_eq!(self.rows, 1, "repeat_rows requires a 1xN matrix");
        let mut data = Vec::with_capacity(n * self.cols);
        for _ in 0..n {
            data.extend_from_slice(&self.data);
        }
        Self {
            rows: n,
            cols: self.cols,
            data,
        }
    }

    /// Stacks `d` copies of an `n×1` column vector into an `n×d` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not a single column.
    pub fn repeat_cols(&self, d: usize) -> Self {
        assert_eq!(self.cols, 1, "repeat_cols requires Nx1");
        let mut data = Vec::with_capacity(self.rows * d);
        for &x in &self.data {
            data.extend(std::iter::repeat_n(x, d));
        }
        Self {
            rows: self.rows,
            cols: d,
            data,
        }
    }

    /// Horizontal concatenation of matrices sharing a row count.
    ///
    /// # Panics
    /// Panics when `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Matrix]) -> Self {
        assert!(!parts.is_empty(), "concat_cols of zero matrices");
        let rows = parts[0].rows;
        assert!(
            parts.iter().all(|p| p.rows == rows),
            "concat_cols row mismatch: {:?}",
            parts.iter().map(|p| p.shape()).collect::<Vec<_>>()
        );
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for p in parts {
                data.extend_from_slice(p.row_slice(r));
            }
        }
        Self { rows, cols, data }
    }

    /// Vertical concatenation of matrices sharing a column count.
    ///
    /// # Panics
    /// Panics when `parts` is empty or column counts differ.
    pub fn concat_rows(parts: &[&Matrix]) -> Self {
        assert!(!parts.is_empty(), "concat_rows of zero matrices");
        let cols = parts[0].cols;
        assert!(
            parts.iter().all(|p| p.cols == cols),
            "concat_rows col mismatch: {:?}",
            parts.iter().map(|p| p.shape()).collect::<Vec<_>>()
        );
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Self { rows, cols, data }
    }

    /// Copy of columns `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols [{start},{end}) out of {}",
            self.cols
        );
        let cols = end - start;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(&self.row_slice(r)[start..end]);
        }
        Self {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Copy of rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows [{start},{end}) out of {}",
            self.rows
        );
        Self {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// The rows at `idx`, in that order: `k×cols` for `k` indices.
    ///
    /// # Panics
    /// Panics when an index repeats or is out of range.
    pub fn gather_rows(&self, idx: &[usize]) -> Self {
        check_row_indices(idx, self.rows);
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &r in idx {
            data.extend_from_slice(self.row_slice(r));
        }
        Self {
            rows: idx.len(),
            cols: self.cols,
            data,
        }
    }

    /// An `n×cols` matrix of `+0.0` whose row `idx[k]` is this matrix's row
    /// `k` — the inverse of [`Matrix::gather_rows`].
    ///
    /// # Panics
    /// Panics unless there is one index per row, each below `n` and none
    /// repeated.
    pub fn scatter_rows(&self, idx: &[usize], n: usize) -> Self {
        assert_eq!(
            idx.len(),
            self.rows,
            "scatter_rows needs one index per row: {} for {} rows",
            idx.len(),
            self.rows
        );
        check_row_indices(idx, n);
        let mut out = Self::zeros(n, self.cols);
        for (k, &r) in idx.iter().enumerate() {
            out.data[r * self.cols..(r + 1) * self.cols].copy_from_slice(self.row_slice(k));
        }
        out
    }

    /// Reshapes this matrix in place to `rows×cols`, reusing the existing
    /// allocation where possible. Element contents are unspecified afterwards;
    /// callers must overwrite every element. Used by [`matmul_into`] to
    /// size its destination.
    pub(crate) fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True when every element is finite. A branch-free fold: an `f32` is
    /// NaN or ±Inf exactly when its exponent bits are all ones, so the scan
    /// ORs one exponent test per element and vectorizes, instead of
    /// short-circuiting element by element.
    pub fn all_finite(&self) -> bool {
        const EXP: u32 = 0x7f80_0000;
        !self
            .data
            .iter()
            .fold(false, |bad, x| bad | ((x.to_bits() & EXP) == EXP))
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![3., -1., 2., 5.]);
        let i = Matrix::from_vec(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i).data(), a.data());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn sum_rows_matches_manual() {
        let a = Matrix::from_vec(3, 2, vec![1., 10., 2., 20., 3., 30.]);
        assert_eq!(a.sum_rows().data(), &[6., 60.]);
    }

    #[test]
    fn repeat_rows_stacks() {
        let v = Matrix::row(&[1., 2.]);
        let m = v.repeat_rows(3);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.row_slice(2), &[1., 2.]);
    }

    #[test]
    fn concat_and_slice_cols_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 1, vec![5., 6.]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row_slice(1), &[3., 4., 6.]);
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 3), b);
    }

    #[test]
    fn concat_and_slice_rows_roundtrip() {
        let a = Matrix::from_vec(1, 2, vec![1., 2.]);
        let b = Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.slice_rows(0, 1), a);
        assert_eq!(c.slice_rows(1, 3), b);
    }

    /// Regression: a zero-skipping kernel once swallowed `0 · NaN` and
    /// `0 · Inf` (IEEE says both are NaN), so a non-finite `b` never
    /// propagated through rows of `a` containing zeros — contradicting the
    /// non-finite producer tracking in `Graph::push` and `PACE_FINITE`. The
    /// dense kernel forms every product, so both reach the accumulator.
    #[test]
    fn matmul_zero_times_nan_propagates() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![f32::NAN, 2.0, 3.0, 4.0]);
        let c = a.matmul(&b);
        assert!(
            c.get(0, 0).is_nan(),
            "0·NaN must be NaN, got {}",
            c.get(0, 0)
        );
        assert_eq!(c.get(0, 1), 4.0);

        let inf = Matrix::from_vec(2, 1, vec![f32::INFINITY, 5.0]);
        let z = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        assert!(z.matmul(&inf).get(0, 0).is_nan(), "0·Inf must be NaN");
    }

    /// A zero row of `a` times a finite `b` yields exactly `+0.0`, even where
    /// every product is `−0.0`: the accumulator starts at `+0.0` and
    /// `+0.0 + −0.0 = +0.0`, so adding the zero products is bit-transparent.
    #[test]
    fn matmul_zero_row_with_finite_b_stays_zero() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![-3.0, 7.0, -11.0, -2.0]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0).to_bits(), 0.0f32.to_bits(), "+0.0, not -0.0");
        assert_eq!(c.get(0, 1).to_bits(), 0.0f32.to_bits());
        assert_eq!(c.row_slice(1), &[-14.0, 5.0]);
    }

    /// Each output row sums over ascending `k` from `+0.0` whatever the row
    /// count, so a row's product is the same alone or stacked with others —
    /// the property that lets tape-free forwards batch rows the tape keeps
    /// apart.
    #[test]
    fn matmul_rows_are_independent_of_the_batch() {
        let (n, k, m) = (9, 133, 7);
        let a = Matrix::from_vec(
            n,
            k,
            (0..n * k)
                .map(|i| ((i * 7919 % 1009) as f32 - 504.0) / 97.0)
                .collect(),
        );
        let b = Matrix::from_vec(
            k,
            m,
            (0..k * m)
                .map(|i| ((i * 104_729 % 613) as f32 - 306.0) / 211.0)
                .collect(),
        );
        let full = a.matmul(&b);
        for r in 0..n {
            let row = a.slice_rows(r, r + 1).matmul(&b);
            let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(row.data()), bits(full.row_slice(r)), "row {r}");
        }
    }

    /// Regression: the FLOP counter computed `2 * flops` after `flops` had
    /// already saturated — at `usize::MAX` the doubling wrapped in release
    /// (to `u64::MAX - 1`) and panicked in debug. The whole computation now
    /// runs in saturating `u64`, so pathological shapes clamp to `u64::MAX`.
    #[test]
    fn matmul_flop_count_saturates_instead_of_wrapping() {
        assert_eq!(matmul_flop_count(usize::MAX, usize::MAX, 2), u64::MAX);
        assert_eq!(matmul_flop_count(usize::MAX, 1, 1), u64::MAX);
        // Non-saturating shapes are exact: 2·n·k·m.
        assert_eq!(matmul_flop_count(3, 4, 5), 120);
        assert_eq!(matmul_flop_count(0, 100, 100), 0);
    }

    /// The tiled transpose must agree with the naive definition on shapes
    /// around the tile edge (including tall/wide remainders).
    #[test]
    fn transpose_tiled_matches_naive_on_odd_shapes() {
        for &(r, c) in &[(1usize, 1usize), (3, 70), (70, 3), (33, 65), (64, 32)] {
            let src = Matrix::from_vec(r, c, (0..r * c).map(|i| i as f32 * 0.5 - 7.0).collect());
            let t = src.transpose();
            assert_eq!(t.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.get(j, i).to_bits(), src.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn gather_and_scatter_rows_invert_each_other() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let picked = m.gather_rows(&[2, 0]);
        assert_eq!(picked.data(), &[5., 6., 1., 2.]);
        let back = picked.scatter_rows(&[2, 0], 3);
        assert_eq!(back.data(), &[1., 2., 0., 0., 5., 6.]);
        assert!(back.data().iter().all(|v| v.is_sign_positive()));
        assert_eq!(back.gather_rows(&[2, 0]), picked);
    }

    #[test]
    fn empty_row_index_lists_give_empty_and_zero_matrices() {
        let m = Matrix::from_vec(2, 3, vec![1.0; 6]);
        assert_eq!(m.gather_rows(&[]).shape(), (0, 3));
        let none = Matrix::zeros(0, 3).scatter_rows(&[], 4);
        assert_eq!(none, Matrix::zeros(4, 3));
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn gather_rows_rejects_a_repeated_index() {
        let _ = Matrix::zeros(3, 1).gather_rows(&[1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rows_rejects_an_out_of_range_index() {
        let _ = Matrix::zeros(3, 1).gather_rows(&[3]);
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn scatter_rows_rejects_a_repeated_index() {
        let _ = Matrix::zeros(2, 1).scatter_rows(&[0, 0], 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scatter_rows_rejects_an_out_of_range_index() {
        let _ = Matrix::zeros(1, 1).scatter_rows(&[5], 3);
    }

    #[test]
    fn mean_and_norm() {
        let a = Matrix::from_vec(1, 4, vec![3., 4., 0., 0.]);
        assert!((a.mean() - 1.75).abs() < 1e-6);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }
}
