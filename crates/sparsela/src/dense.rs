//! Row-major dense matrices with GEMV.
//!
//! The µ×µ (and sµ×sµ) Gram matrices of Algorithms 1–4 are dense regardless
//! of the sparsity of `A` (Table I footnote: "we assume that the µ×µ Gram
//! matrix computed at each iteration [is] dense"), so the solvers need a
//! small dense-matrix type to hold them: element access, GEMV, diagonal
//! blocks and in-place reshaping for workspace reuse. The Gram itself is
//! formed by [`crate::gram`], never by a dense product.

use crate::vecops;

/// A row-major dense `rows × cols` matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Reshape in place to `rows × cols`, zeroing every entry. Keeps the
    /// backing allocation when capacity suffices — the workspace-reuse
    /// hook ([`crate::GramWorkspace`] and the solvers' `KernelWorkspace`)
    /// that lets one output matrix serve every outer iteration without
    /// reallocating.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Build from nested row slices (test/fixture convenience).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the row-major backing storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the row-major backing storage.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Matrix–vector product `y = A x`.
    pub fn gemv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "gemv: dimension mismatch");
        (0..self.rows)
            .map(|i| vecops::dot(self.row(i), x))
            .collect()
    }

    /// Transposed matrix–vector product `y = Aᵀ x`.
    pub fn gemv_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "gemv_t: dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            vecops::axpy(x[i], self.row(i), &mut y);
        }
        y
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        vecops::nrm2(&self.data)
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        vecops::inf_norm(&self.data)
    }

    /// Extract the square diagonal as a vector.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Extract the contiguous square diagonal block `[lo, hi) × [lo, hi)`
    /// into a caller-owned matrix (reshaped in place), so per-iteration
    /// Lipschitz-block extraction in the SA inner loops reuses one
    /// allocation.
    pub fn diag_block_into(&self, lo: usize, hi: usize, out: &mut DenseMatrix) {
        assert!(lo <= hi && hi <= self.rows && hi <= self.cols);
        let k = hi - lo;
        out.reshape_zeroed(k, k);
        for i in 0..k {
            for j in 0..k {
                out.set(i, j, self.get(lo + i, lo + j));
            }
        }
    }

    /// Check symmetry to tolerance `tol` (relative to the largest entry).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let scale = self.max_abs().max(1.0);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol * scale {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrng::rng_from_seed;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut rng = rng_from_seed(seed);
        let data = (0..rows * cols).map(|_| rng.next_gaussian()).collect();
        DenseMatrix::from_vec(rows, cols, data)
    }

    #[test]
    fn identity_is_neutral() {
        let x = random_matrix(1, 7, 1).row(0).to_vec();
        assert_eq!(DenseMatrix::identity(7).gemv(&x), x);
    }

    #[test]
    fn gemv_matches_matmul() {
        let a = random_matrix(9, 6, 6);
        let x: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let via_gemv = a.gemv(&x);
        for i in 0..9 {
            // The textbook product (A·x)ᵢ = Σₖ aᵢₖ·xₖ, written out.
            let want: f64 = (0..6).map(|k| a.get(i, k) * x[k]).sum();
            assert!((want - via_gemv[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn gemv_t_matches_transpose_gemv() {
        let a = random_matrix(9, 6, 7);
        let x: Vec<f64> = (0..9).map(|i| (i as f64).cos()).collect();
        let t = DenseMatrix::from_vec(6, 9, (0..54).map(|k| a.get(k % 9, k / 9)).collect());
        let y1 = a.gemv_t(&x);
        let y2 = t.gemv(&x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn diag_block_and_diagonal() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        assert_eq!(a.diagonal(), vec![1.0, 5.0, 9.0]);
        let mut b = DenseMatrix::zeros(0, 0);
        a.diag_block_into(1, 3, &mut b);
        assert_eq!(b.as_slice(), &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn add_scaled_and_norms() {
        let a = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(a.fro_norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn from_rows_ragged_panics() {
        let _ = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0][..]]);
    }
}
