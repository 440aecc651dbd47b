//! Compressed Sparse Column matrices.
//!
//! The Lasso solvers sample *columns* of the data matrix (Fig. 1 step 2 /
//! Alg. 1 line 7: `Aₕ = A·Iₕ`). Each rank of the row-partitioned machine
//! therefore keeps its local row block in CSC so that gathering µ sampled
//! columns is O(nnz of those columns) instead of a scan of the whole block.
//!
//! The arrays are the crate's compressed-slice core, the same as
//! [`CsrMatrix`]'s with the axes swapped: slices are columns, the minor
//! axis is rows. The two types share every operation, so a CSC and the
//! CSR of the same matrix agree bitwise wherever their results meet, and
//! a full matrix keeps one shared row run in either.

use crate::compressed::Compressed;
use crate::{CsrMatrix, DenseMatrix, SparseSlice};

/// A sparse matrix in CSC format: `indptr` (length `cols+1`), `indices`
/// (row ids, strictly increasing within a column), finite `values`.
#[derive(Clone, Debug, PartialEq)]
pub struct CscMatrix(pub(crate) Compressed);

impl CscMatrix {
    /// Assemble from raw parts, validating the invariants.
    ///
    /// # Panics
    /// Panics, naming the column as `slice j`, on malformed `indptr`,
    /// mismatched lengths, unsorted / out-of-range row indices or a value
    /// that is not finite.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        Self(
            Compressed::new(cols, rows, indptr, indices, values)
                .unwrap_or_else(|e| panic!("CscMatrix::from_parts: {e}")),
        )
    }

    /// Zero matrix with no stored entries.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_parts(rows, cols, vec![0; cols + 1], Vec::new(), Vec::new())
    }

    /// Build from a dense matrix, dropping zeros.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        CsrMatrix::from_dense(d).to_csc()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.0.minor()
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.0.major()
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.0.nnz()
    }

    /// Fraction of entries stored.
    pub fn density(&self) -> f64 {
        self.0.density()
    }

    /// Number of stored entries in column `j`.
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col(j).nnz()
    }

    /// Borrow column `j` as a [`SparseSlice`].
    #[inline]
    pub fn col(&self, j: usize) -> SparseSlice<'_> {
        self.0.slice(j)
    }

    /// Random element access; O(log col_nnz).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.0.get(j, i)
    }

    /// Sparse matrix–vector product `y = A x` (column-wise accumulation).
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols(), "spmv: dimension mismatch");
        self.0.axpy_slices(x)
    }

    /// Transposed product `y = Aᵀ x` (column dots).
    pub fn spmv_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows(), "spmv_t: dimension mismatch");
        self.0.dot_slices(x)
    }

    /// Convert to CSR (counting sort by row).
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix(self.0.transpose())
    }

    /// Dense copy (tests and small fixtures only).
    pub fn to_dense(&self) -> DenseMatrix {
        self.to_csr().to_dense()
    }

    /// Extract rows `[lo, hi)` with row ids renumbered to `[0, hi-lo)`
    /// (the 1D-row-partition splitter for CSC-stored local blocks).
    pub fn row_block(&self, lo: usize, hi: usize) -> CscMatrix {
        Self(self.0.minor_window(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn fixture() -> CscMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let mut coo = CooMatrix::new(3, 3);
        for &(i, j, v) in &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)] {
            coo.push(i, j, v);
        }
        coo.to_csc()
    }

    #[test]
    fn get_and_shape() {
        let a = fixture();
        assert_eq!((a.rows(), a.cols(), a.nnz()), (3, 3, 4));
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.col_nnz(0), 2);
    }

    #[test]
    fn spmv_and_spmv_t_match_dense() {
        let a = fixture();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(a.spmv(&x), a.to_dense().gemv(&x));
        assert_eq!(a.spmv_t(&x), a.to_dense().gemv_t(&x));
    }

    #[test]
    fn csr_conversion_roundtrip() {
        let a = fixture();
        assert_eq!(a.to_csr().to_csc(), a);
    }

    #[test]
    fn row_block_renumbers() {
        let a = fixture();
        let b = a.row_block(2, 3);
        assert_eq!((b.rows(), b.cols()), (1, 3));
        assert_eq!(b.get(0, 0), 3.0);
        assert_eq!(b.get(0, 1), 4.0);
        assert_eq!(b.nnz(), 2);
    }

    #[test]
    fn col_norms() {
        let a = fixture();
        let norms: Vec<f64> = (0..a.cols()).map(|j| a.col(j).norm_sq()).collect();
        assert_eq!(norms, vec![10.0, 16.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_rows_panic() {
        CscMatrix::from_parts(3, 1, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "slice 1: non-finite value NaN")]
    fn nan_value_panics_naming_the_column() {
        CscMatrix::from_parts(3, 2, vec![0, 1, 2], vec![2, 0], vec![1.0, f64::NAN]);
    }
}
