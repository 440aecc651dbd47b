//! Coordinate-format (triplet) sparse matrix builder.
//!
//! COO is the assembly format: dataset generators and the LIBSVM reader
//! push `(row, col, value)` triplets, then convert once to CSR or CSC for
//! the compute kernels. Duplicate entries are summed on conversion (the
//! usual finite-element convention). The crate's one COO compression
//! builds the CSR and a transpose makes the CSC, so the two agree bitwise;
//! the result passes `from_parts`'s validation, so a value that is not
//! finite, pushed or made by a duplicate sum, stops at the conversion.

use crate::compressed::Compressed;
use crate::{CscMatrix, CsrMatrix};

/// A sparse matrix in coordinate (triplet) format.
#[derive(Clone, Debug, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Empty matrix of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Append a triplet. Explicit zeros are dropped.
    ///
    /// # Panics
    /// Panics on out-of-range coordinates.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        if value != 0.0 {
            self.entries.push((row, col, value));
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

    /// Number of stored triplets (before duplicate merging).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Borrow the triplets.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Convert to CSR, summing duplicates in insertion order.
    ///
    /// # Panics
    /// Panics, naming the row as `slice i`, if a pushed value or a
    /// duplicate sum is not finite.
    pub fn to_csr(&self) -> CsrMatrix {
        let core = Compressed::compress(self.rows, self.cols, self.entries.clone());
        CsrMatrix(core.unwrap_or_else(|e| panic!("CooMatrix::to_csr: {e}")))
    }

    /// Convert to CSC, summing duplicates: [`Self::to_csr`], transposed.
    ///
    /// # Panics
    /// As [`Self::to_csr`].
    pub fn to_csc(&self) -> CscMatrix {
        self.to_csr().to_csc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_to_csr_and_csc() {
        let mut coo = CooMatrix::new(3, 4);
        coo.push(0, 1, 2.0);
        coo.push(2, 3, 5.0);
        coo.push(1, 0, -1.0);
        coo.push(0, 1, 3.0); // duplicate -> summed to 5.0
        let csr = coo.to_csr();
        let csc = coo.to_csc();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csc.nnz(), 3);
        assert_eq!(csr.get(0, 1), 5.0);
        assert_eq!(csc.get(0, 1), 5.0);
        assert_eq!(csr.get(1, 0), -1.0);
        assert_eq!(csr.get(2, 3), 5.0);
        assert_eq!(csr.get(2, 0), 0.0);
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, -1.0);
        coo.push(1, 1, 2.0);
        assert_eq!(coo.to_csr().nnz(), 1);
        assert_eq!(coo.to_csc().nnz(), 1);
    }

    #[test]
    fn explicit_zero_not_stored() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 0.0);
        assert_eq!(coo.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_push_panics() {
        CooMatrix::new(2, 2).push(2, 0, 1.0);
    }

    #[test]
    fn empty_matrix_converts() {
        let coo = CooMatrix::new(0, 0);
        assert_eq!(coo.to_csr().nnz(), 0);
        assert_eq!(coo.to_csc().nnz(), 0);
    }
}
