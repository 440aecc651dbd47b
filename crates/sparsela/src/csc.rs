//! Compressed Sparse Column matrices.
//!
//! The Lasso solvers sample *columns* of the data matrix (Fig. 1 step 2 /
//! Alg. 1 line 7: `Aₕ = A·Iₕ`). Each rank of the row-partitioned machine
//! therefore keeps its local row block in CSC so that gathering µ sampled
//! columns is O(nnz of those columns) instead of a scan of the whole block.

use crate::{CooMatrix, CsrMatrix, DenseMatrix, SparseSlice};

/// A sparse matrix in CSC format: `indptr` (length `cols+1`), `indices`
/// (row ids, strictly increasing within a column), `values`.
#[derive(Clone, Debug, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Assemble from raw parts, validating the invariants.
    ///
    /// # Panics
    /// Panics on malformed `indptr`, mismatched lengths, or unsorted /
    /// out-of-range row indices.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), cols + 1, "indptr length must be cols+1");
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        assert_eq!(
            *indptr.last().unwrap_or(&0),
            indices.len(),
            "indptr end must equal nnz"
        );
        for c in 0..cols {
            assert!(indptr[c] <= indptr[c + 1], "indptr must be monotone");
            let col = &indices[indptr[c]..indptr[c + 1]];
            for w in col.windows(2) {
                assert!(
                    w[0] < w[1],
                    "row indices must be strictly increasing in column {c}"
                );
            }
            if let Some(&last) = col.last() {
                assert!(last < rows, "row index {last} out of range in column {c}");
            }
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Zero matrix with no stored entries.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; cols + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from a dense matrix, dropping zeros.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let mut coo = CooMatrix::new(d.rows(), d.cols());
        for i in 0..d.rows() {
            for j in 0..d.cols() {
                let v = d.get(i, j);
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csc()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries stored.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Number of stored entries in column `j`.
    pub fn col_nnz(&self, j: usize) -> usize {
        self.indptr[j + 1] - self.indptr[j]
    }

    /// Borrow column `j` as a [`SparseSlice`].
    #[inline]
    pub fn col(&self, j: usize) -> SparseSlice<'_> {
        let lo = self.indptr[j];
        let hi = self.indptr[j + 1];
        SparseSlice {
            indices: &self.indices[lo..hi],
            values: &self.values[lo..hi],
        }
    }

    /// Random element access; O(log col_nnz).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let c = self.col(j);
        match c.indices.binary_search(&i) {
            Ok(k) => c.values[k],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix–vector product `y = A x` (column-wise accumulation).
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "spmv: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for j in 0..self.cols {
            if x[j] != 0.0 {
                self.col(j).axpy_into(x[j], &mut y);
            }
        }
        y
    }

    /// Transposed product `y = Aᵀ x` (column dots).
    pub fn spmv_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "spmv_t: dimension mismatch");
        (0..self.cols).map(|j| self.col(j).dot_dense(x)).collect()
    }

    /// Convert to CSR (counting sort by row).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.rows + 1];
        for &r in &self.indices {
            counts[r + 1] += 1;
        }
        for i in 0..self.rows {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for j in 0..self.cols {
            let c = self.col(j);
            for (&r, &v) in c.indices.iter().zip(c.values) {
                let slot = next[r];
                indices[slot] = j;
                values[slot] = v;
                next[r] += 1;
            }
        }
        CsrMatrix::from_parts(self.rows, self.cols, indptr, indices, values)
    }

    /// Dense copy (tests and small fixtures only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            let c = self.col(j);
            for (&i, &v) in c.indices.iter().zip(c.values) {
                d.set(i, j, v);
            }
        }
        d
    }

    /// Extract rows `[lo, hi)` with row ids renumbered to `[0, hi-lo)`
    /// (the 1D-row-partition splitter for CSC-stored local blocks).
    pub fn row_block(&self, lo: usize, hi: usize) -> CscMatrix {
        assert!(lo <= hi && hi <= self.rows, "row_block out of range");
        let mut indptr = Vec::with_capacity(self.cols + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for j in 0..self.cols {
            let c = self.col(j);
            let start = c.indices.partition_point(|&r| r < lo);
            let end = c.indices.partition_point(|&r| r < hi);
            for k in start..end {
                indices.push(c.indices[k] - lo);
                values.push(c.values[k]);
            }
            indptr.push(indices.len());
        }
        CscMatrix::from_parts(hi - lo, self.cols, indptr, indices, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
