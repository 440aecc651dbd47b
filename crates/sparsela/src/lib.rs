//! `sparsela` — the dense/sparse linear-algebra substrate for the
//! synchronization-avoiding solvers.
//!
//! The paper's C++/MPI implementation leans on Intel MKL for Sparse and
//! Dense BLAS (§IV-B). No comparably mature sparse BLAS exists for Rust, so
//! this crate provides the kernels the solvers actually need, built from
//! scratch:
//!
//! * [`DenseMatrix`] — row-major dense storage for the small Gram and
//!   cross-product matrices the solvers hold, with GEMV.
//! * [`CooMatrix`] / [`CsrMatrix`] / [`CscMatrix`] — the three classic
//!   sparse formats with conversions; the paper stores data in "Compressed
//!   Sparse Row format (3-array variant)". All three, and the [`shard`]
//!   files, share one crate-private compressed-slice core: the slice
//!   invariant (finite values included), the minor window, the transpose
//!   and the COO compression are each written once, and CSR / CSC only
//!   name the axes.
//! * [`vecops`] — BLAS-1 style slice kernels (dot, axpy, norms, …).
//! * [`simd`] — explicit-width microkernels behind the hot paths
//!   (runtime `SACO_SIMD=auto|scalar` dispatch, interleaved sparse
//!   scatter-dot and its full-slice twin for dense data) under a
//!   deterministic lane-reduction contract: every width is bitwise
//!   identical.
//! * [`gram`] — sampled Gram matrices `Aₛᵀ Aₛ` and cross products
//!   `Aₛᵀ [v w]`, the two reductions at the heart of Algorithms 1–4, in
//!   one batched kernel (the source of the SA methods' *computation*
//!   speedup, Fig. 4e–h).
//! * [`kernel`] — kernel functions (linear/polynomial/RBF) and the
//!   bounded kernel-row cache behind the K-DCD/K-BDCD family; the
//!   `m × m` kernel matrix is never materialized.
//! * [`eig`] — Jacobi eigensolver and power iteration for the small
//!   symmetric matrices whose largest eigenvalue sets the step size.
//! * [`io`] — LIBSVM text-format reader/writer.
//! * [`svdest`] — extreme singular-value estimation (for the paper's
//!   `λ = 100·σ_min` rule).
//! * [`sympack`] — symmetric-triangle packing for the fused allreduce
//!   payload (only the upper triangle travels; see `docs/PERFORMANCE.md`).
//!
//! Everything is `f64`; determinism matters more than the last 10% of
//! throughput here, so all reductions use a fixed association within a
//! rank (cross-rank reductions are the simulator's job). The SIMD builds
//! in [`simd`] respect that: they reschedule independent accumulator
//! lanes, never reassociate a chain, so speed costs zero reproducibility.

// Index-based loops mirror the textbook formulations of the numerical
// kernels; iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod compressed;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod eig;
pub mod gram;
pub mod io;
pub mod kernel;
pub mod shard;
pub mod simd;
pub mod svdest;
pub mod sympack;
pub mod vecops;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use gram::{GramWorkspace, MajorSlices, SliceSource};
pub use kernel::{KernelCache, KernelCacheStats, KernelFn};
pub use sympack::{pack_upper_into, packed_len, unpack_symmetric_into};

/// A borrowed view of one sparse row (CSR) or column (CSC): parallel slices
/// of strictly increasing indices and their values.
///
/// Both `CsrMatrix::row` and `CscMatrix::col` return this, which lets the
/// Gram-matrix kernels in [`gram`] serve the Lasso solvers (which sample
/// *columns* of a row-partitioned matrix) and the SVM solvers (which sample
/// *rows* of a column-partitioned matrix) with the same code.
#[derive(Clone, Copy, Debug)]
pub struct SparseSlice<'a> {
    /// Strictly increasing coordinate indices.
    pub indices: &'a [usize],
    /// Values aligned with `indices`.
    pub values: &'a [f64],
}

impl SparseSlice<'_> {
    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Dot product with a dense vector.
    ///
    /// Deliberately a single scalar accumulator chain: the gathered
    /// access pattern defeats lane splitting (measured slower under both
    /// portable and AVX2 codegen), and this chain's order is the
    /// per-entry contract the interleaved sampled-Gram kernel in
    /// [`gram`] reproduces lane by lane.
    pub fn dot_dense(&self, v: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&i, &x) in self.indices.iter().zip(self.values) {
            acc += x * v[i];
        }
        acc
    }

    /// Sparse–sparse dot product by index merge (both slices sorted).
    pub fn dot_sparse(&self, other: &SparseSlice<'_>) -> f64 {
        let (mut i, mut j) = (0, 0);
        let mut acc = 0.0;
        while i < self.indices.len() && j < other.indices.len() {
            match self.indices[i].cmp(&other.indices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[i] * other.values[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Squared Euclidean norm of the slice.
    pub fn norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Dot products with two dense vectors in one pass over the indices:
    /// `(self.dot_dense(u), self.dot_dense(v))`, each the same single
    /// chain, bit for bit.
    pub(crate) fn dot_dense2(&self, u: &[f64], v: &[f64]) -> (f64, f64) {
        let (mut acc_u, mut acc_v) = (0.0, 0.0);
        for (&i, &x) in self.indices.iter().zip(self.values) {
            acc_u += x * u[i];
            acc_v += x * v[i];
        }
        (acc_u, acc_v)
    }

    /// Whether the slice stores every coordinate of a length-`n` axis.
    /// Matrix slices hold the invariant (indices strictly increasing, in
    /// range — checked at every door a matrix comes in by), so `n` of them
    /// are exactly `0..n`; both ends are compared as well, so a hand-built
    /// slice whose indices leave the axis is never taken for full.
    pub(crate) fn is_full(&self, n: usize) -> bool {
        n > 0 && self.nnz() == n && self.indices[0] == 0 && self.indices[n - 1] == n - 1
    }

    /// `y[indices] += alpha * values` — scatter-add into a dense vector.
    /// A full slice (`indices` = `0..y.len()`) runs without index loads,
    /// contiguously; every entry gets the same one multiply and one add.
    pub fn axpy_into(&self, alpha: f64, y: &mut [f64]) {
        if self.is_full(y.len()) {
            for (yi, &x) in y.iter_mut().zip(self.values) {
                *yi += alpha * x;
            }
        } else {
            for (&i, &x) in self.indices.iter().zip(self.values) {
                y[i] += alpha * x;
            }
        }
    }

    /// `axpy_into(alpha, y)` then `axpy_into(beta, z)` in one pass over the
    /// slice — the two vectors' entries get exactly the updates the two
    /// calls make, with the full-slice path of [`Self::axpy_into`].
    pub fn axpy2_into(&self, alpha: f64, y: &mut [f64], beta: f64, z: &mut [f64]) {
        if y.len() == z.len() && self.is_full(y.len()) {
            for ((yi, zi), &x) in y.iter_mut().zip(z.iter_mut()).zip(self.values) {
                *yi += alpha * x;
                *zi += beta * x;
            }
        } else {
            for (&i, &x) in self.indices.iter().zip(self.values) {
                y[i] += alpha * x;
                z[i] += beta * x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_slice_dot_dense() {
        let s = SparseSlice {
            indices: &[0, 2, 5],
            values: &[1.0, -2.0, 3.0],
        };
        let v = [1.0, 9.0, 0.5, 9.0, 9.0, 2.0];
        assert_eq!(s.dot_dense(&v), 1.0 - 1.0 + 6.0);
    }

    #[test]
    fn sparse_slice_dot_sparse_merge() {
        let a = SparseSlice {
            indices: &[1, 3, 4, 7],
            values: &[1.0, 2.0, 3.0, 4.0],
        };
        let b = SparseSlice {
            indices: &[0, 3, 7, 9],
            values: &[5.0, 6.0, 7.0, 8.0],
        };
        assert_eq!(a.dot_sparse(&b), 2.0 * 6.0 + 4.0 * 7.0);
        assert_eq!(b.dot_sparse(&a), a.dot_sparse(&b));
    }

    #[test]
    fn sparse_slice_axpy() {
        let s = SparseSlice {
            indices: &[1, 2],
            values: &[10.0, 20.0],
        };
        let mut y = vec![1.0; 4];
        s.axpy_into(0.5, &mut y);
        assert_eq!(y, vec![1.0, 6.0, 11.0, 1.0]);
    }

    #[test]
    fn sparse_slice_norms() {
        let s = SparseSlice {
            indices: &[0, 9],
            values: &[3.0, 4.0],
        };
        assert_eq!(s.norm_sq(), 25.0);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn hand_built_slice_with_a_full_count_but_foreign_indices_panics() {
        // nnz == y.len() and the first index is 0, but the last is not
        // n − 1: not the full-slice path, so the indexed loop reaches
        // index 3 of a length-3 vector and panics, as it always did.
        let s = SparseSlice {
            indices: &[0, 1, 3],
            values: &[1.0, 2.0, 3.0],
        };
        assert!(!s.is_full(3));
        s.axpy_into(1.0, &mut [0.0; 3]);
    }
}
