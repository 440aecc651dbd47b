//! Compressed Sparse Row matrices.
//!
//! The paper stores all datasets "using Compressed Sparse Row format
//! (3-array variant)" (§IV-B). CSR gives O(1) access to a row's nonzeros,
//! which is what the SVM solvers need: the dual coordinate descent of
//! Algorithm 3 samples *rows* `Aᵢ` of the (locally column-partitioned) data
//! matrix.
//!
//! The arrays, their invariant and every operation on them belong to the
//! crate's compressed-slice core, shared with [`CscMatrix`] and the shard
//! files; this type names the axes — slices are rows, the minor axis is
//! columns.

use crate::compressed::Compressed;
use crate::{CooMatrix, CscMatrix, DenseMatrix, SparseSlice};

/// A sparse matrix in CSR format: `indptr` (length `rows+1`), `indices`
/// (column ids, strictly increasing within a row), finite `values`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix(pub(crate) Compressed);

impl CsrMatrix {
    /// Assemble from raw parts, validating the invariants.
    ///
    /// # Panics
    /// Panics, naming the row as `slice i`, if `indptr` is not `rows+1`
    /// monotone offsets from 0 to nnz, if `indices`/`values` lengths
    /// disagree, if column ids are out of range or unsorted within a row,
    /// or if a value is not finite.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        Self(
            Compressed::new(rows, cols, indptr, indices, values)
                .unwrap_or_else(|e| panic!("CsrMatrix::from_parts: {e}")),
        )
    }

    /// Zero matrix with no stored entries.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_parts(rows, cols, vec![0; rows + 1], Vec::new(), Vec::new())
    }

    /// Build from a dense matrix, dropping zeros.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let mut coo = CooMatrix::new(d.rows(), d.cols());
        for i in 0..d.rows() {
            for j in 0..d.cols() {
                coo.push(i, j, d.get(i, j));
            }
        }
        coo.to_csr()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.0.major()
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.0.minor()
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.0.nnz()
    }

    /// Fraction of entries stored: `nnz / (rows·cols)` (the paper's `f`).
    pub fn density(&self) -> f64 {
        self.0.density()
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row(i).nnz()
    }

    /// Borrow row `i` as a [`SparseSlice`].
    #[inline]
    pub fn row(&self, i: usize) -> SparseSlice<'_> {
        self.0.slice(i)
    }

    /// Random (binary-searched) element access; O(log row_nnz).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.0.get(i, j)
    }

    /// Sparse matrix–vector product `y = A x`.
    ///
    /// ```
    /// use sparsela::{CooMatrix};
    /// let mut coo = CooMatrix::new(2, 2);
    /// coo.push(0, 0, 2.0);
    /// coo.push(1, 1, 3.0);
    /// let a = coo.to_csr();
    /// assert_eq!(a.spmv(&[1.0, 1.0]), vec![2.0, 3.0]);
    /// ```
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols(), "spmv: dimension mismatch");
        self.0.dot_slices(x)
    }

    /// Transposed product `y = Aᵀ x` without materialising the transpose.
    pub fn spmv_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows(), "spmv_t: dimension mismatch");
        self.0.axpy_slices(x)
    }

    /// Convert to CSC.
    pub fn to_csc(&self) -> CscMatrix {
        CscMatrix(self.0.transpose())
    }

    /// Dense copy (tests and small fixtures only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows(), self.cols());
        for i in 0..self.rows() {
            let r = self.row(i);
            for (&j, &v) in r.indices.iter().zip(r.values) {
                d.set(i, j, v);
            }
        }
        d
    }

    /// Extract the submatrix of rows `[lo, hi)` (the 1D-row-partition
    /// splitter used to place a block of `A` on each rank).
    pub fn row_block(&self, lo: usize, hi: usize) -> CsrMatrix {
        Self(self.0.major_range(lo, hi))
    }

    /// Extract the submatrix of columns `[lo, hi)` with column ids
    /// renumbered to `[0, hi-lo)` (the 1D-column-partition splitter used by
    /// the SVM solvers).
    pub fn col_block(&self, lo: usize, hi: usize) -> CsrMatrix {
        Self(self.0.minor_window(lo, hi))
    }

    /// Squared Euclidean norm of every row (the SVM step sizes `ηᵢ = AᵢAᵢᵀ`).
    pub fn row_norms_sq(&self) -> Vec<f64> {
        (0..self.rows()).map(|i| self.row(i).norm_sq()).collect()
    }

    /// Per-row nnz histogram support: nnz of each row (load-balance
    /// diagnostics for the partitioners).
    pub fn row_nnz_counts(&self) -> Vec<usize> {
        (0..self.rows()).map(|i| self.row_nnz(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_parts(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
    }

    #[test]
    fn get_and_shape() {
        let a = fixture();
        assert_eq!((a.rows(), a.cols(), a.nnz()), (3, 3, 4));
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 1), 4.0);
        assert!((a.density() - 4.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = fixture();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(a.spmv(&x), a.to_dense().gemv(&x));
    }

    #[test]
    fn spmv_t_matches_dense() {
        let a = fixture();
        let x = vec![1.0, -1.0, 2.0];
        assert_eq!(a.spmv_t(&x), a.to_dense().gemv_t(&x));
    }

    #[test]
    fn csc_conversion_roundtrip() {
        let a = fixture();
        let c = a.to_csc();
        assert_eq!(c.to_dense().as_slice(), a.to_dense().as_slice());
        assert_eq!(c.to_csr(), a);
    }

    #[test]
    fn row_block_extraction() {
        let a = fixture();
        let b = a.row_block(1, 3);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.get(0, 0), 0.0);
        assert_eq!(b.get(1, 1), 4.0);
        let empty = a.row_block(1, 1);
        assert_eq!(empty.rows(), 0);
    }

    #[test]
    fn col_block_extraction_renumbers() {
        let a = fixture();
        let b = a.col_block(1, 3);
        assert_eq!((b.rows(), b.cols()), (3, 2));
        assert_eq!(b.get(0, 1), 2.0); // original column 2 -> 1
        assert_eq!(b.get(2, 0), 4.0); // original column 1 -> 0
        assert_eq!(b.nnz(), 2);
    }

    #[test]
    fn row_norms() {
        let a = fixture();
        assert_eq!(a.row_norms_sq(), vec![5.0, 0.0, 25.0]);
        assert_eq!(a.row_nnz_counts(), vec![2, 0, 2]);
    }

    #[test]
    fn from_dense_roundtrip() {
        let d = DenseMatrix::from_rows(&[&[0.0, 1.5], &[-2.0, 0.0]]);
        let a = CsrMatrix::from_dense(&d);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.to_dense().as_slice(), d.as_slice());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_indices_panic() {
        CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "slice 1: non-finite value NaN")]
    fn nan_value_panics_naming_the_row() {
        CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, f64::NAN]);
    }
}
