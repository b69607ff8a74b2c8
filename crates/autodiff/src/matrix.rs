//! Dense row-major `f32` matrix with cache-blocked, multi-threaded kernels.
//!
//! This is the value type flowing through the [`crate::tape`] autodiff engine.
//! Everything in SANE — node features, weights, attention scores — is a 2-D
//! matrix; vectors are `n x 1` or `1 x n` matrices.

use std::fmt;

use crate::parallel::parallel_rows;

/// Row-major dense matrix of `f32`.
///
/// Invariant: `data.len() == rows * cols`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a matrix from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// The identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// A `1 x 1` matrix holding `value` (the scalar representation on the tape).
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a `1 x 1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1 x 1`.
    pub fn as_scalar(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "as_scalar on a {}x{} matrix", self.rows, self.cols);
        self.data[0]
    }

    /// Materialised transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise `self += scale * other`.
    pub fn add_scaled_assign(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32 // lint:allow(lossy-cast) -- count stays far below 2^24
        }
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute element; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// True if any element is `NaN` or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// `self * other` (dense GEMM).
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        crate::parallel::timed("gemm", || {
            let mut out = crate::pool::zeros(m, n);
            let skip = zero_skip(&self.data, &other.data, k, n);
            gemm_ikj(&self.data, &other.data, &mut out.data, m, k, n, skip);
            out
        })
    }

    /// `selfᵀ * other` without materialising the transpose.
    pub fn matmul_at_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at_b dimension mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        crate::parallel::timed("gemm_at_b", || {
            let mut out = crate::pool::zeros(m, n);
            let skip = zero_skip(&self.data, &other.data, m, n);
            gemm_at_b(&self.data, &other.data, &mut out.data, k, m, n, skip);
            out
        })
    }

    /// `self * otherᵀ` without materialising the transpose.
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_a_bt dimension mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        crate::parallel::timed("gemm_a_bt", || {
            // Scratch: every cell is assigned by the dot below, unlike the
            // accumulating `matmul`/`matmul_at_b` kernels which need zeros.
            let mut out = crate::pool::scratch(m, n);
            let fl = crate::simd::flavour();
            let run = |rows: std::ops::Range<usize>, out_chunk: &mut [f32]| {
                for (ri, i) in rows.enumerate() {
                    let arow = &self.data[i * k..(i + 1) * k];
                    for j in 0..n {
                        let brow = &other.data[j * k..(j + 1) * k];
                        out_chunk[ri * n + j] = fl.dot(arow, brow);
                    }
                }
            };
            parallel_rows(m, n, m * n * k, &mut out.data, run);
            out
        })
    }

    /// Column sums as a `1 x cols` matrix.
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for (o, v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Row sums as a `rows x 1` matrix.
    pub fn row_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(other.row(r));
        }
        out
    }

    /// Copies rows listed in `idx` into a new `idx.len() x cols` matrix.
    pub fn gather_rows(&self, idx: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (o, &i) in idx.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(i as usize)); // lint:allow(lossy-cast) -- u32 index widens losslessly
        }
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            let cols = self.cols.min(8);
            let vals: Vec<String> = self.row(r)[..cols].iter().map(|v| format!("{v:.4}")).collect();
            let ell = if self.cols > cols { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", vals.join(", "), ell)?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Elements of the left operand [`zero_skip`] counts between checks for an
/// early exit.
const ZERO_COUNT_BLOCK: usize = 1 << 14;

/// Decides, once per call of an accumulating GEMM, whether it skips the
/// exactly-zero entries of its left operand `a` (the zero-term skip of
/// [`gemm_ikj`] and [`gemm_at_b`]).
///
/// The skip runs when more than half of `a` is `±0` and every entry of `b`
/// is finite. One vectorised pass counts `a`'s nonzeros block by block and
/// stops as soon as they reach half of `a`, so a dense operand pays for
/// about half a pass; `b` is only scanned once the count qualifies.
/// `index_len` is the length of the index space the kernel compacts (`a`'s
/// row length for the forward GEMM, its column count for `aᵀ·b`), which
/// must fit the `u32` scratch. Apart from the underflow case documented on
/// [`gemm_ikj`], both answers give the same bits, so the threshold only
/// decides speed: below it the dense loop is cheaper than compacting.
/// Under an active
/// telemetry recorder each skipping call counts into
/// `gemm.sparse_path.calls`, and its skipped scalar multiply-adds (zeros
/// of `a` times the `n` columns of `b`) into
/// `gemm.sparse_path.skipped_terms`.
fn zero_skip(a: &[f32], b: &[f32], index_len: usize, n: usize) -> bool {
    if a.is_empty() || u32::try_from(index_len).is_err() {
        return false;
    }
    let mut kept = 0;
    for block in a.chunks(ZERO_COUNT_BLOCK) {
        kept += block.iter().map(|&v| u32::from(v != 0.0)).sum::<u32>() as usize; // lint:allow(lossy-cast) -- u32 widens losslessly; a block holds far fewer than 2^32 entries
        if kept * 2 >= a.len() {
            return false;
        }
    }
    if !b.iter().all(|v| v.is_finite()) {
        return false;
    }
    let zeros = a.len() - kept;
    if sane_telemetry::active() {
        sane_telemetry::counter_add("gemm.sparse_path.calls", 1);
        let skipped = u64::try_from(zeros * n).unwrap_or(u64::MAX);
        sane_telemetry::counter_add("gemm.sparse_path.skipped_terms", skipped);
    }
    true
}

/// Writes the positions of `row`'s nonzero entries to the front of `nz`,
/// in increasing order, and returns how many there are.
///
/// Branch-free: every position is stored and the cursor only advances past
/// a nonzero, so the cost is one store per entry whatever the zero
/// pattern. `nz` must be at least as long as `row`.
#[inline]
fn compact_nonzeros(row: &[f32], nz: &mut [u32]) -> usize {
    debug_assert!(nz.len() >= row.len());
    let mut c = 0;
    for (k, &v) in row.iter().enumerate() {
        nz[c] = k as u32; // lint:allow(lossy-cast) -- k < row.len(), which zero_skip checked fits u32
        c += usize::from(v != 0.0);
    }
    c
}

/// GEMM with i-k-j loop order: the inner loop streams rows of `b` and `out`.
///
/// Each output row is owned by exactly one worker and accumulates its k
/// terms serially through `simd::axpy`, in increasing `k`, so the
/// reduction order per element is fixed regardless of thread count.
///
/// **Zero-term skip.** With `skip` (chosen per call by [`zero_skip`]) each
/// output row first compacts the positions of its `a` row's nonzeros and
/// runs `axpy` over those only, still in increasing `k`. This is exact
/// under the conditions `zero_skip` checks. `out` starts at `+0`
/// (`pool::zeros`). A skipped term is `fma(±0, b, acc)` (vectorised
/// flavour) or `acc + ±0·b` (reference flavour). With `b` finite, `±0·b`
/// is a zero, and adding a zero to `acc` returns `acc`'s bits unless
/// `acc` is `−0` and the zero is `+0`, which gives `+0`. A `NaN` or
/// infinite `acc` passes through unchanged. So the two loops can differ
/// only where an accumulator is `−0` at a skipped term:
///
/// * Reference flavour: never. `acc + p` is `−0` only if both are `−0`, so
///   an accumulator starting at `+0` stays off `−0`.
/// * Vectorised flavour: an `fma` turns a `+0` or nonzero accumulator into
///   `−0` only when its exact result `a·b + acc` is negative and rounds to
///   zero, i.e. underflows below half the smallest subnormal (magnitude at
///   most `2^-150`). From there the dense loop returns `+0` after the
///   next skipped term whose product is `+0`, while the compacted loop
///   keeps `−0`; the next nonzero product erases the difference. The
///   outputs then differ in the sign of a zero and nothing else.
///
/// A non-finite `b` makes `zero_skip` choose the dense loop, so `0·∞ =
/// NaN` still reaches the output.
fn gemm_ikj(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize, skip: bool) {
    let fl = crate::simd::flavour();
    if skip {
        let run = |rows: std::ops::Range<usize>, out_chunk: &mut [f32]| {
            let mut nz = vec![0u32; k];
            for (ri, i) in rows.enumerate() {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out_chunk[ri * n..(ri + 1) * n];
                let c = compact_nonzeros(arow, &mut nz);
                for &kk in &nz[..c] {
                    let kk = kk as usize; // lint:allow(lossy-cast) -- u32 index widens losslessly
                    fl.axpy(arow[kk], &b[kk * n..(kk + 1) * n], orow);
                }
            }
        };
        parallel_rows(m, n, m * n * k, out, run);
    } else {
        let run = |rows: std::ops::Range<usize>, out_chunk: &mut [f32]| {
            for (ri, i) in rows.enumerate() {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out_chunk[ri * n..(ri + 1) * n];
                for (kk, &av) in arow.iter().enumerate() {
                    fl.axpy(av, &b[kk * n..(kk + 1) * n], orow);
                }
            }
        };
        parallel_rows(m, n, m * n * k, out, run);
    }
}

/// `out = aᵀ·b` for a `k x m` `a` and a `k x n` `b`, without materialising
/// the transpose: row `kk` of `a` gives the rank-1 update
/// `out[i,:] += a[kk,i] * b[kk,:]`.
///
/// Row-parallel over the `m` output rows: each worker owns a block of
/// `out` rows and walks `kk` serially, so every element accumulates its
/// terms in increasing `kk` at any thread count. With `skip` each worker
/// compacts the nonzeros of its segment of `a`'s row `kk` and updates only
/// those rows; the exactness argument is [`gemm_ikj`]'s.
fn gemm_at_b(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize, skip: bool) {
    let fl = crate::simd::flavour();
    if skip {
        let run = |rows: std::ops::Range<usize>, out_chunk: &mut [f32]| {
            let mut nz = vec![0u32; rows.len()];
            for kk in 0..k {
                let aseg = &a[kk * m + rows.start..kk * m + rows.end];
                let brow = &b[kk * n..(kk + 1) * n];
                let c = compact_nonzeros(aseg, &mut nz);
                for &ri in &nz[..c] {
                    let ri = ri as usize; // lint:allow(lossy-cast) -- u32 index widens losslessly
                    fl.axpy(aseg[ri], brow, &mut out_chunk[ri * n..(ri + 1) * n]);
                }
            }
        };
        parallel_rows(m, n, m * n * k, out, run);
    } else {
        let run = |rows: std::ops::Range<usize>, out_chunk: &mut [f32]| {
            for kk in 0..k {
                let aseg = &a[kk * m + rows.start..kk * m + rows.end];
                let brow = &b[kk * n..(kk + 1) * n];
                for (ri, &av) in aseg.iter().enumerate() {
                    fl.axpy(av, brow, &mut out_chunk[ri * n..(ri + 1) * n]);
                }
            }
        };
        parallel_rows(m, n, m * n * k, out, run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for kk in 0..a.cols() {
                    s += a.get(i, kk) * b.get(kk, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())), "{x} vs {y}");
        }
    }

    fn rngmat(rows: usize, cols: usize, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = rngmat(5, 5, 1);
        let i = Matrix::eye(5);
        assert_close(&a.matmul(&i), &a, 1e-6);
        assert_close(&i.matmul(&a), &a, 1e-6);
    }

    #[test]
    #[should_panic(expected = "matrix buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn matmul_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (17, 9, 23), (64, 128, 32), (130, 70, 90)] {
            let a = rngmat(m, k, 7);
            let b = rngmat(k, n, 8);
            assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-4);
        }
    }

    #[test]
    fn matmul_at_b_matches_transpose() {
        let a = rngmat(11, 6, 2);
        let b = rngmat(11, 9, 3);
        assert_close(&a.matmul_at_b(&b), &a.transpose().matmul(&b), 1e-4);
    }

    #[test]
    fn matmul_a_bt_matches_transpose() {
        let a = rngmat(12, 7, 4);
        let b = rngmat(10, 7, 5);
        assert_close(&a.matmul_a_bt(&b), &a.matmul(&b.transpose()), 1e-4);
    }

    #[test]
    fn large_parallel_matmul_matches_naive() {
        let a = rngmat(150, 80, 11);
        let b = rngmat(80, 120, 12);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-3);
    }

    #[test]
    fn transpose_involution() {
        let a = rngmat(5, 9, 20);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hcat_shapes_and_values() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 1, vec![5.0, 6.0]);
        let c = a.hcat(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(c.row(1), &[3.0, 4.0, 6.0]);
    }

    #[test]
    fn gather_rows_copies() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
        assert_eq!(g.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.col_sums().data(), &[4.0, 2.0]);
        assert_eq!(a.row_sums().data(), &[-1.0, 7.0]);
    }

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(Matrix::scalar(2.5).as_scalar(), 2.5);
    }

    // --- zero-term skip: bitwise equality with the dense loops ---------------

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `a * b` through the dense loop, whatever `a`'s density.
    fn dense(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        gemm_ikj(a.data(), b.data(), &mut out.data, a.rows(), a.cols(), b.cols(), false);
        out
    }

    /// `aᵀ * b` through the dense loop.
    fn dense_at_b(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        gemm_at_b(a.data(), b.data(), &mut out.data, a.rows(), a.cols(), b.cols(), false);
        out
    }

    /// `a * b` through the compacted loop, bypassing `zero_skip`.
    fn compacted(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        gemm_ikj(a.data(), b.data(), &mut out.data, a.rows(), a.cols(), b.cols(), true);
        out
    }

    /// A `rows x cols` matrix whose entries are nonzero with probability
    /// `density`, drawn from `values` when given, else uniform in
    /// `±[0.01, 1)` (products stay far from underflow).
    fn sparse(rows: usize, cols: usize, density: f64, seed: u64, values: &[f32]) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| {
            if !rng.gen_bool(density) {
                return 0.0;
            }
            let v = if values.is_empty() {
                rng.gen_range(0.01f32..1.0)
            } else {
                values[rng.gen_range(0..values.len())]
            };
            if rng.gen_bool(0.5) {
                -v
            } else {
                v
            }
        })
    }

    /// Checks that `a.matmul(b)` and `a.matmul_at_b(b_at)` equal the dense
    /// loops bit for bit at 1, 2 and 4 threads in both `simd` flavours,
    /// and that `zero_skip` picks the compacted path exactly when expected
    /// (for both products, since they share `a`).
    fn assert_matches_dense(a: &Matrix, b: &Matrix, b_at: &Matrix, expect_skip: bool) {
        assert_eq!(zero_skip(a.data(), b.data(), a.cols(), b.cols()), expect_skip, "forward");
        assert_eq!(zero_skip(a.data(), b_at.data(), a.cols(), b_at.cols()), expect_skip, "at_b");
        for scalar in [false, true] {
            let flavoured = |f: &dyn Fn() -> Matrix| {
                if scalar {
                    crate::simd::with_scalar(f)
                } else {
                    f()
                }
            };
            let want = with_threads(1, || flavoured(&|| dense(a, b)));
            let want_at = with_threads(1, || flavoured(&|| dense_at_b(a, b_at)));
            for threads in [1, 2, 4] {
                let got = with_threads(threads, || flavoured(&|| a.matmul(b)));
                let got_at = with_threads(threads, || flavoured(&|| a.matmul_at_b(b_at)));
                assert_eq!(bits(&got), bits(&want), "matmul, {threads} threads, scalar={scalar}");
                assert_eq!(
                    bits(&got_at),
                    bits(&want_at),
                    "matmul_at_b, {threads} threads, scalar={scalar}"
                );
            }
        }
    }

    #[test]
    fn zero_skip_matches_dense_at_cora_density() {
        // Binary bag-of-words rows, raw and after inverted 0.6 dropout.
        for (density, seed) in [(0.0126, 30), (0.005, 31)] {
            let a = sparse(41, 300, density, seed, &[1.0, 2.5]);
            assert_matches_dense(&a, &rngmat(300, 9, seed), &rngmat(41, 9, seed + 1), true);
        }
    }

    #[test]
    fn zero_skip_matches_dense_on_both_sides_of_the_switch() {
        // 60% and 55% zeros compact; 45% zeros and an exact half do not.
        for (density, skip) in [(0.4, true), (0.45, true), (0.55, false), (0.9, false)] {
            let a = sparse(37, 40, density, 40, &[]);
            assert_matches_dense(&a, &rngmat(40, 11, 41), &rngmat(37, 11, 42), skip);
        }
        let mut half = rngmat(6, 4, 43);
        for r in 0..6 {
            half.set(r, r % 4, 0.0);
            half.set(r, (r + 1) % 4, 0.0);
        }
        assert_matches_dense(&half, &rngmat(4, 5, 44), &rngmat(6, 5, 45), false);
    }

    #[test]
    fn zero_skip_matches_dense_on_zero_rows_negative_zeros_and_singletons() {
        // All-zero rows (and an all-zero operand).
        let mut a = sparse(23, 50, 0.1, 50, &[]);
        for r in [0, 7, 22] {
            a.row_mut(r).fill(0.0);
        }
        assert_matches_dense(&a, &rngmat(50, 8, 51), &rngmat(23, 8, 52), true);
        let zero = Matrix::zeros(9, 12);
        assert_matches_dense(&zero, &rngmat(12, 8, 53), &rngmat(9, 8, 54), true);
        // `-0.0` entries in A are skipped like `+0.0`.
        let mut neg = sparse(19, 33, 0.2, 55, &[]);
        neg.map_inplace(|v| if v == 0.0 { -0.0 } else { v });
        assert!(neg.data().iter().any(|v| v.to_bits() == (-0.0f32).to_bits()));
        assert_matches_dense(&neg, &rngmat(33, 7, 56), &rngmat(19, 7, 57), true);
        // A single nonzero per row.
        let single =
            Matrix::from_fn(17, 29, |r, c| if c == (r * 5) % 29 { 0.5 + r as f32 } else { 0.0 });
        assert_matches_dense(&single, &rngmat(29, 6, 58), &rngmat(17, 6, 59), true);
    }

    #[test]
    fn non_finite_b_takes_the_dense_loop_and_keeps_nan_at_zero_times_inf() {
        let a = sparse(21, 30, 0.1, 60, &[]);
        let (mut b, mut b_at) = (rngmat(30, 6, 61), rngmat(21, 6, 62));
        // Column 2 of `b` meets a zero of every `a` row somewhere.
        for kk in 0..30 {
            b.set(kk, 2, if kk % 2 == 0 { f32::INFINITY } else { f32::NEG_INFINITY });
        }
        b.set(4, 0, f32::NAN);
        b_at.set(3, 1, f32::INFINITY);
        b_at.set(5, 4, f32::NAN);
        assert_matches_dense(&a, &b, &b_at, false);
        // 0 * inf = NaN reaches every output of the infinite columns.
        let out = a.matmul(&b);
        assert!((0..21).all(|r| out.get(r, 2).is_nan()));
        assert!((0..21).all(|r| out.get(r, 0).is_nan()));
        // In `aᵀ·b_at`, row 3 of `a` meets the infinity: NaN where it is
        // zero, ±inf where it is not. The NaN in row 5 spreads everywhere.
        let out_at = a.matmul_at_b(&b_at);
        for i in 0..30 {
            assert_eq!(out_at.get(i, 1).is_nan(), a.get(3, i) == 0.0, "row {i}");
            assert!(out_at.get(i, 4).is_nan());
        }
        assert!((0..30).any(|i| a.get(3, i) == 0.0));
    }

    /// The one case where the two loops differ, as documented on
    /// [`gemm_ikj`]: an `fma` underflows to `-0`, then a skipped `+0·b`
    /// term would have turned it back into `+0`.
    #[test]
    fn underflow_to_negative_zero_is_the_documented_difference() {
        // acc = fma(-1e-30, 1e-30, +0): the exact product -1e-60 rounds to
        // -0. The next two terms are 0 * 1 = +0.
        let a = Matrix::from_vec(1, 3, vec![-1e-30, 0.0, 0.0]);
        let b = Matrix::from_vec(3, 1, vec![1e-30, 1.0, 1.0]);
        assert!(zero_skip(a.data(), b.data(), 3, 1));
        let neg_zero = (-0.0f32).to_bits();
        // Vectorised flavour: dense gives +0, compacted keeps -0, and the
        // public kernel is the compacted one.
        assert_eq!(bits(&dense(&a, &b)), [0]);
        assert_eq!(bits(&compacted(&a, &b)), [neg_zero]);
        assert_eq!(bits(&a.matmul(&b)), [neg_zero]);
        // A later nonzero product erases the difference.
        let a2 = Matrix::from_vec(1, 4, vec![-1e-30, 0.0, 0.0, 0.5]);
        let b2 = Matrix::from_vec(4, 1, vec![1e-30, 1.0, 1.0, 2.0]);
        assert_eq!(bits(&dense(&a2, &b2)), bits(&compacted(&a2, &b2)));
        // Reference flavour: the product rounds to -0 first and
        // +0 + -0 = +0, so the accumulator never reaches -0.
        crate::simd::with_scalar(|| {
            assert_eq!(bits(&dense(&a, &b)), [0]);
            assert_eq!(bits(&a.matmul(&b)), [0]);
        });
    }

    #[test]
    fn zero_skip_counts_calls_and_skipped_terms_under_a_recorder() {
        let a = sparse(12, 20, 0.1, 70, &[]);
        let zeros = a.data().iter().filter(|&&v| v == 0.0).count() as u64;
        let buf = sane_telemetry::MemoryBuffer::default();
        {
            let _guard =
                sane_telemetry::Recorder::new("zero-skip").with_memory(buf.clone()).install();
            a.matmul(&rngmat(20, 3, 71));
            a.matmul_at_b(&rngmat(12, 5, 72));
            rngmat(12, 20, 73).matmul(&rngmat(20, 3, 74)); // dense: not counted
            sane_telemetry::flush_metrics();
        }
        let summary = sane_telemetry::trace::summarize(&buf.borrow()).expect("valid trace");
        assert_eq!(summary.counters.get("gemm.sparse_path.calls"), Some(&2));
        assert_eq!(summary.counters.get("gemm.sparse_path.skipped_terms"), Some(&(zeros * 8)));
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(2, 2);
        assert!(!a.has_non_finite());
        a.set(1, 1, f32::NAN);
        assert!(a.has_non_finite());
    }
}
