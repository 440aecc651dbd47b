//! Row-major dense matrices with GEMV and cache-blocked GEMM.
//!
//! The µ×µ (and sµ×sµ) Gram matrices of Algorithms 1–4 are dense regardless
//! of the sparsity of `A` (Table I footnote: "we assume that the µ×µ Gram
//! matrix computed at each iteration [is] dense"), so the solvers need a
//! small dense-matrix type with multiplication, transpose and symmetric
//! rank-k updates.

use crate::{simd, vecops};

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

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
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

    /// Naive triple-loop GEMM `C = A·B` (reference implementation; the
    /// blocked variant below is validated against this).
    pub fn matmul_naive(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, b.rows, "matmul: inner dimension mismatch");
        let mut c = DenseMatrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                let crow = c.row_mut(i);
                vecops::axpy(aik, brow, crow);
            }
        }
        c
    }

    /// Cache-blocked GEMM `C = A·B`.
    ///
    /// Blocks of `BLOCK × BLOCK` keep the working set in L1/L2; this is the
    /// BLAS-3 kernel whose superior flop rate over repeated BLAS-1 dot
    /// products gives the SA methods their computation speedup (paper
    /// Fig. 4e–h discussion).
    pub fn matmul(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, b.rows, "matmul: inner dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, b.cols);
        let mut c = DenseMatrix::zeros(m, n);
        for ii in (0..m).step_by(Self::BLOCK) {
            let iend = (ii + Self::BLOCK).min(m);
            for kk in (0..k).step_by(Self::BLOCK) {
                let kend = (kk + Self::BLOCK).min(k);
                for jj in (0..n).step_by(Self::BLOCK) {
                    let jend = (jj + Self::BLOCK).min(n);
                    for i in ii..iend {
                        for p in kk..kend {
                            let aip = self.get(i, p);
                            if aip == 0.0 {
                                continue;
                            }
                            let brow = &b.data[p * n + jj..p * n + jend];
                            let crow = &mut c.data[i * n + jj..i * n + jend];
                            for (cv, bv) in crow.iter_mut().zip(brow) {
                                *cv += aip * bv;
                            }
                        }
                    }
                }
            }
        }
        c
    }

    /// Symmetric product `AᵀA`, computing only the upper triangle and
    /// mirroring it (the paper's footnote 3 trick: "G is symmetric so
    /// computing just the upper/lower triangular part reduces flops and
    /// message size by 2×").
    ///
    /// The triangle is produced by [`simd::gram_upper_rows`] — a
    /// register-blocked 4×8 microkernel accumulating over canonical
    /// 64-row chunks with L2-sized row panels — so every entry has one
    /// fixed association at any `SACO_SIMD` mode, panel size, or (via
    /// [`Self::gram_parallel`]) thread count.
    pub fn gram(&self) -> DenseMatrix {
        let n = self.cols;
        let mut g = DenseMatrix::zeros(n, n);
        simd::gram_upper_rows(&self.data, self.rows, n, 0, n, &mut g.data);
        // Mirror overwrites every below-diagonal slot, including the few
        // the kernel's diagonal-straddling tiles touched.
        for a in 0..n {
            for b in (a + 1)..n {
                g.data[b * n + a] = g.data[a * n + b];
            }
        }
        g
    }

    /// Multi-threaded [`matmul`](Self::matmul) over `saco-par`: output
    /// rows are split into cache-block tiles, each computed by the same
    /// blocked kernel. Rows of `C` are independent and each keeps the
    /// serial `kk`/`jj` block traversal, so the result is **bitwise
    /// identical** to the serial product at any thread count.
    pub fn matmul_parallel(&self, b: &DenseMatrix, nthreads: usize) -> DenseMatrix {
        assert_eq!(self.cols, b.rows, "matmul: inner dimension mismatch");
        let (m, n) = (self.rows, b.cols);
        if nthreads <= 1 || m < 2 * Self::BLOCK {
            return self.matmul(b);
        }
        let tiles = saco_par::tile_ranges(m, 4 * nthreads);
        let parts = saco_par::tiled_map_weighted(
            nthreads,
            tiles.len(),
            2 * (m * self.cols * n) as u64,
            || (),
            |_, t| {
                let (lo, hi) = tiles[t];
                self.matmul_rows(b, lo, hi)
            },
        );
        let mut data = Vec::with_capacity(m * n);
        for part in parts {
            data.extend_from_slice(&part);
        }
        DenseMatrix::from_vec(m, n, data)
    }

    const BLOCK: usize = 64;

    /// Blocked GEMM restricted to output rows `[lo, hi)`; returns that
    /// row band. Per output entry the accumulation order over the inner
    /// dimension is exactly [`matmul`](Self::matmul)'s (`kk` blocks
    /// ascending, then `p` within each block), which is what makes the
    /// row-tiled parallel product bitwise identical.
    fn matmul_rows(&self, b: &DenseMatrix, lo: usize, hi: usize) -> Vec<f64> {
        let (k, n) = (self.cols, b.cols);
        let mut band = vec![0.0; (hi - lo) * n];
        for kk in (0..k).step_by(Self::BLOCK) {
            let kend = (kk + Self::BLOCK).min(k);
            for jj in (0..n).step_by(Self::BLOCK) {
                let jend = (jj + Self::BLOCK).min(n);
                for i in lo..hi {
                    for p in kk..kend {
                        let aip = self.get(i, p);
                        if aip == 0.0 {
                            continue;
                        }
                        let brow = &b.data[p * n + jj..p * n + jend];
                        let crow = &mut band[(i - lo) * n + jj..(i - lo) * n + jend];
                        for (cv, bv) in crow.iter_mut().zip(brow) {
                            *cv += aip * bv;
                        }
                    }
                }
            }
        }
        band
    }

    /// Multi-threaded [`gram`](Self::gram) over `saco-par`: the upper
    /// triangle's output rows are split into band tiles, each produced by
    /// the same [`simd::gram_upper_rows`] microkernel. Band splits cannot
    /// change the canonical-chunk fold behind any entry, so the result is
    /// **bitwise identical** at any thread count. Tiles are sized
    /// unevenly (row `a` of the triangle costs `n − a` updates) via many
    /// small tiles plus the pool's dynamic claiming.
    ///
    /// Small problems short-circuit to the serial kernel through
    /// `saco_par::dispatch_width` — the µ×µ Gram of a quick-mode solve is
    /// far below `MIN_DISPATCH_WORK`, and the tiled path's per-tile
    /// buffers and merge copies were what made `kernel.dense_gram.wall_t4`
    /// slower than `wall_t1` in the PR-2 gauges.
    pub fn gram_parallel(&self, nthreads: usize) -> DenseMatrix {
        let n = self.cols;
        // Triangle row a costs 2·m·(n − a) flops: n(n+1)·m over the block.
        let work = (n * (n + 1) * self.rows) as u64;
        if n < 8 || nthreads <= 1 {
            return self.gram();
        }
        if saco_par::dispatch_width(nthreads, n, work) <= 1 {
            // Sub-dispatch-size with a pool requested: serial kernel, but
            // counted as a region (like tiled_map_weighted's fallback) so
            // `par.regions` keeps tracking pooled-kernel invocations.
            return saco_par::serial_region(n, || self.gram());
        }
        // Cap the tile count so every band keeps at least TILE_MR rows:
        // thinner bands would degrade the microkernel to its scalar edge
        // path. Band boundaries never affect bits (see gram_upper_rows).
        let ntiles = (n / simd::TILE_MR).max(1).min(8 * nthreads);
        let tiles = saco_par::tile_ranges(n, ntiles);
        let parts = saco_par::tiled_map_weighted(
            nthreads,
            tiles.len(),
            work,
            || (),
            |_, t| {
                let (lo, hi) = tiles[t];
                let mut band = vec![0.0; (hi - lo) * n];
                simd::gram_upper_rows(&self.data, self.rows, n, lo, hi, &mut band);
                band
            },
        );
        let mut g = DenseMatrix::zeros(n, n);
        for (t, part) in parts.into_iter().enumerate() {
            let (lo, hi) = tiles[t];
            for a in lo..hi {
                // Keep only each band row's upper-triangle span; the
                // mirror below fills (and overwrites) the rest.
                g.data[a * n + a..(a + 1) * n]
                    .copy_from_slice(&part[(a - lo) * n + a..(a - lo + 1) * n]);
            }
        }
        for a in 0..n {
            for b in (a + 1)..n {
                g.data[b * n + a] = g.data[a * n + b];
            }
        }
        g
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
        let a = random_matrix(7, 7, 1);
        let i = DenseMatrix::identity(7);
        let ai = a.matmul(&i);
        assert!((0..49).all(|k| (ai.as_slice()[k] - a.as_slice()[k]).abs() < 1e-15));
    }

    #[test]
    fn blocked_matmul_matches_naive() {
        for (m, k, n, seed) in [
            (3, 4, 5, 2),
            (65, 70, 67, 3),
            (128, 32, 130, 4),
            (1, 200, 1, 5),
        ] {
            let a = random_matrix(m, k, seed);
            let b = random_matrix(k, n, seed + 100);
            let c1 = a.matmul_naive(&b);
            let c2 = a.matmul(&b);
            let diff: f64 = c1
                .as_slice()
                .iter()
                .zip(c2.as_slice())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-10, "blocked vs naive diff {diff} at {m}x{k}x{n}");
        }
    }

    #[test]
    fn gemv_matches_matmul() {
        let a = random_matrix(9, 6, 6);
        let x: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let bx = DenseMatrix::from_vec(6, 1, x.clone());
        let via_mm = a.matmul(&bx);
        let via_gemv = a.gemv(&x);
        for i in 0..9 {
            assert!((via_mm.get(i, 0) - via_gemv[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn gemv_t_matches_transpose_gemv() {
        let a = random_matrix(9, 6, 7);
        let x: Vec<f64> = (0..9).map(|i| (i as f64).cos()).collect();
        let t = a.transpose();
        let y1 = a.gemv_t(&x);
        let y2 = t.gemv(&x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn gram_matches_explicit_ata() {
        let a = random_matrix(20, 8, 8);
        let g1 = a.gram();
        let g2 = a.transpose().matmul(&a);
        for k in 0..64 {
            assert!((g1.as_slice()[k] - g2.as_slice()[k]).abs() < 1e-10);
        }
        assert!(g1.is_symmetric(1e-14));
    }

    #[test]
    fn transpose_involution() {
        let a = random_matrix(5, 11, 9);
        assert_eq!(a.transpose().transpose(), a);
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
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn from_rows_ragged_panics() {
        let _ = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0][..]]);
    }
}
