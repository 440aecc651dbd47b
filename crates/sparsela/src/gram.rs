//! Sampled Gram matrices and cross products — the communication kernels of
//! the SA methods.
//!
//! Every iteration of Algorithm 1 reduces `G = AₕᵀAₕ` (µ×µ) and
//! `rₕ = Aₕᵀ(θ²ỹ + z̃)`; every *outer* iteration of Algorithm 2 reduces the
//! larger `G = YᵀY` (sµ×sµ) and `Yᵀ[ỹ z̃]` where `Y` stacks the `s` sampled
//! blocks. The SVM algorithms reduce the analogous row-Gram matrices. This
//! module computes the *local* contributions on one rank's block; the
//! simulator's allreduce sums them across ranks.
//!
//! Two code paths:
//! * sparse (scatter/dot over [`SparseSlice`]s) — for sparse datasets;
//!   the serial kernel scatters [`simd::SPARSE_LANES`] selected slices
//!   interleaved and streams each partner slice once per block, so the
//!   per-entry gather becomes one cache-line-wide vector load;
//! * dense (gather + blocked GEMM) — the BLAS-3 path for dense datasets,
//!   which is also what makes computing `s` iterations of dot products at
//!   once *faster per flop* than `s` separate BLAS-1 calls (Fig. 4e–h).
//!
//! Both paths have pool-parallel variants driven through `saco-par` whose
//! results are **bitwise identical** to the serial kernels (fixed tile
//! merge order, per-worker scatter workspaces — see `docs/PERFORMANCE.md`),
//! and `_with_workspace`/`_into` variants that reuse caller-owned buffers
//! so the SA hot loop allocates nothing per outer iteration.

use crate::{simd, CscMatrix, CsrMatrix, DenseMatrix, SparseSlice};

/// Anything that exposes indexed sparse slices along its major axis:
/// `CsrMatrix` (rows) for the SVM solvers, `CscMatrix` (columns) for the
/// Lasso solvers.
pub trait MajorSlices {
    /// Number of slices along the major axis.
    fn major_len(&self) -> usize;
    /// Length of the minor (dense) axis.
    fn minor_len(&self) -> usize;
    /// Borrow slice `k`.
    fn slice(&self, k: usize) -> SparseSlice<'_>;
}

impl MajorSlices for CsrMatrix {
    fn major_len(&self) -> usize {
        self.rows()
    }
    fn minor_len(&self) -> usize {
        self.cols()
    }
    fn slice(&self, k: usize) -> SparseSlice<'_> {
        self.row(k)
    }
}

impl MajorSlices for CscMatrix {
    fn major_len(&self) -> usize {
        self.cols()
    }
    fn minor_len(&self) -> usize {
        self.rows()
    }
    fn slice(&self, k: usize) -> SparseSlice<'_> {
        self.col(k)
    }
}

/// [`MajorSlices`] plus the residency protocol an *out-of-core* matrix
/// needs: solvers announce each block's selection before touching its
/// slices (`prepare`), may announce the *next* block's selection early
/// (`prefetch`, served in the background), and can ask whether early
/// announcement is worth anything (`lookahead`).
///
/// For resident matrices every hook is a no-op and `lookahead` is `false`,
/// so the generic solver loops compile down to exactly the pre-streaming
/// code — and, crucially, draw their random selections in the same order,
/// keeping in-memory runs bitwise unchanged. `sparsela::shard`'s
/// [`StreamingMatrix`](crate::shard::StreamingMatrix) implements the hooks
/// for real.
///
/// # Contract
///
/// * Every major index in a kernel call must be covered by the most recent
///   `prepare` (or fault in synchronously — correct but slow).
/// * Slices borrowed after a `prepare` remain valid until the *second*
///   following `prepare` (two live epochs — the overlap path computes the
///   next block's Gram while the current block's slices are live).
/// * None of the hooks may affect values: a streamed slice is bitwise
///   identical to its in-memory counterpart.
pub trait SliceSource: MajorSlices {
    /// Make the slices in `sel` resident and pin them for the new epoch.
    fn prepare(&self, _sel: &[usize]) {}

    /// Begin loading the slices in `sel` in the background, pinned for
    /// the epoch that the matching `prepare` will open.
    fn prefetch(&self, _sel: &[usize]) {}

    /// Whether the solver should resolve its selection one block ahead
    /// and call [`SliceSource::prefetch`] — true only for sources with
    /// actual load latency to hide.
    fn lookahead(&self) -> bool {
        false
    }

    /// `y[k] = ⟨slice(k), x⟩` for every major slice — the full-matrix
    /// product (e.g. the SVM duality-gap pass). The default iterates
    /// resident slices; out-of-core sources override it with a bounded
    /// sequential scan. Implementations must keep the per-slice
    /// `dot_dense` arithmetic so all paths agree bitwise.
    fn major_spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.minor_len(), "spmv input length");
        assert_eq!(y.len(), self.major_len(), "spmv output length");
        for k in 0..self.major_len() {
            y[k] = self.slice(k).dot_dense(x);
        }
    }

    /// `y[k] = ‖slice(k)‖²` for every major slice — the one-time norms
    /// pass an RBF kernel needs. Defaults to resident iteration;
    /// out-of-core sources override it with a bounded sequential scan.
    /// All paths keep the per-slice `norm_sq` arithmetic, so they agree
    /// bitwise.
    fn major_norms_into(&self, y: &mut [f64]) {
        assert_eq!(y.len(), self.major_len(), "norms output length");
        for k in 0..self.major_len() {
            y[k] = self.slice(k).norm_sq();
        }
    }
}

impl SliceSource for CsrMatrix {}
impl SliceSource for CscMatrix {}

/// Reusable scratch for the sparse Gram kernels: a dense scatter buffer
/// of minor length (one column at a time — the pooled per-row path) and a
/// 64-byte-aligned *interleaved* buffer holding [`simd::SPARSE_LANES`]
/// scattered columns side by side (the serial SIMD block pass). Creating
/// either per call costs an `O(minor_len)` zero-fill *and* an allocation;
/// holding them across calls (both are restored to all-zeros by the
/// kernels' un-scatter passes) makes repeated `sampled_gram` calls
/// allocation-free. It also carries the *resolved-slice* scratch: each
/// kernel call looks every selected slice up once ([`MajorSlices::slice`]
/// may cost a search on an out-of-core source) and the triangle then runs
/// on the borrowed slices alone.
#[derive(Clone, Debug, Default)]
pub struct GramWorkspace {
    scatter: Vec<f64>,
    interleaved: simd::AlignedBuf,
    /// Allocation for the resolved slices; empty between calls, so the
    /// `'static` is never the lifetime of a stored borrow.
    resolved: Vec<SparseSlice<'static>>,
}

impl GramWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scatter buffer at length `minor_len`, all zeros. Grows (with a
    /// zero fill of the new tail) when the matrix is larger than any seen
    /// before; otherwise this is free — the kernels' un-scatter pass
    /// maintains the all-zeros invariant between calls.
    fn scatter_for(&mut self, minor_len: usize) -> &mut [f64] {
        if self.scatter.len() < minor_len {
            self.scatter.resize(minor_len, 0.0);
        }
        &mut self.scatter[..minor_len]
    }

    /// The interleaved scatter buffer at `SPARSE_LANES · minor_len`, all
    /// zeros, 64-byte aligned (row `i` of all lanes is one cache line).
    /// Same grow-only, zero-maintained contract as
    /// [`Self::scatter_for`].
    fn interleaved_for(&mut self, minor_len: usize) -> &mut [f64] {
        self.interleaved.zeroed_to(simd::SPARSE_LANES * minor_len)
    }

    /// Look up every selected slice once — `sel.len()` calls to
    /// [`MajorSlices::slice`] per kernel call, however many pair-dots
    /// follow — into the reusable buffer. Hand the buffer back with
    /// [`Self::recycle`] to keep its allocation.
    fn resolve<'m, M: MajorSlices>(&mut self, m: &'m M, sel: &[usize]) -> Vec<SparseSlice<'m>> {
        // `SparseSlice` is covariant, so the empty `'static` buffer
        // shortens to `'m` by plain subtyping.
        let mut slices: Vec<SparseSlice<'m>> = std::mem::take(&mut self.resolved);
        slices.extend(sel.iter().map(|&k| m.slice(k)));
        slices
    }

    fn recycle(&mut self, mut slices: Vec<SparseSlice<'_>>) {
        slices.clear();
        // SAFETY: the vector is empty, so no borrow outlives its source —
        // only the allocation is kept — and `SparseSlice<'a>` has the
        // same layout for every `'a`.
        self.resolved = unsafe {
            std::mem::transmute::<Vec<SparseSlice<'_>>, Vec<SparseSlice<'static>>>(slices)
        };
    }
}

/// One upper-triangle row of the sampled Gram: scatter slice `a`, take
/// its `norm_sq` for the diagonal and a sparse dot per later slice. This
/// is THE per-entry arithmetic — serial and pooled paths both call it, so
/// their outputs agree bitwise.
fn gram_row(slices: &[SparseSlice<'_>], a: usize, work: &mut [f64], row: &mut Vec<f64>) {
    let sa = slices[a];
    for (&i, &v) in sa.indices.iter().zip(sa.values) {
        work[i] = v;
    }
    row.clear();
    row.reserve(slices.len() - a);
    row.push(sa.norm_sq());
    for sb in &slices[a + 1..] {
        row.push(sb.dot_dense_sparse(work));
    }
    for &i in sa.indices {
        work[i] = 0.0;
    }
}

/// Compute the Gram matrix `G[a][b] = ⟨slice(sel[a]), slice(sel[b])⟩` of the
/// sampled slices, exploiting symmetry (upper triangle computed, mirrored —
/// the paper's footnote-3 2× flop saving).
///
/// Cost: O(k · nnz(selected)) via a dense scatter workspace of minor length.
/// Allocates the workspace and output; the SA hot loop should prefer
/// [`sampled_gram_into`] (or [`sampled_gram_with_workspace`]) to reuse both.
pub fn sampled_gram<M: MajorSlices>(m: &M, sel: &[usize]) -> DenseMatrix {
    sampled_gram_with_workspace(m, sel, &mut GramWorkspace::new())
}

/// [`sampled_gram`] against a caller-owned [`GramWorkspace`], skipping the
/// per-call `O(minor_len)` scatter-buffer zero-fill. Bitwise identical to
/// [`sampled_gram`].
pub fn sampled_gram_with_workspace<M: MajorSlices>(
    m: &M,
    sel: &[usize],
    ws: &mut GramWorkspace,
) -> DenseMatrix {
    let mut g = DenseMatrix::zeros(0, 0);
    sampled_gram_into(m, sel, 1, ws, &mut g);
    g
}

/// Serial scatter-dot core: [`simd::SPARSE_LANES`] selected slices are
/// scattered *interleaved* (lane `l` of row `i` at `work[LANES·i + l]`),
/// then one streaming pass over each partner slice `b` produces up to
/// `LANES` Gram entries at once — the old per-entry gather becomes one
/// contiguous cache-line-wide load per nonzero.
///
/// Bitwise identical to the per-row [`gram_row`] path (which the pooled
/// variant still uses): each lane's accumulator follows exactly the
/// single-chain order of `dot_dense` over slice `b`'s nonzeros, and
/// diagonals are the same `norm_sq`. Only instruction scheduling differs.
fn gram_serial_core(slices: &[SparseSlice<'_>], work: &mut [f64], out: &mut DenseMatrix) {
    const L: usize = simd::SPARSE_LANES;
    let k = slices.len();
    let mut a0 = 0;
    while a0 < k {
        let aw = (k - a0).min(L);
        // Scatter the block's lanes and set its diagonal entries.
        // Duplicate selections land in distinct lanes, so they coexist.
        for l in 0..aw {
            let sa = slices[a0 + l];
            for (&i, &v) in sa.indices.iter().zip(sa.values) {
                work[L * i + l] = v;
            }
            out.set(a0 + l, a0 + l, sa.norm_sq());
        }
        // One pass per partner slice b > a0; lanes l < b − a0 are the
        // strictly-upper entries (a0 + l, b), mirrored as we go.
        for b in a0 + 1..k {
            let lw = (b - a0).min(aw);
            let sb = slices[b];
            let mut lanes = [0.0f64; L];
            simd::scatter_dot_lanes(sb.indices, sb.values, work, &mut lanes);
            for l in 0..lw {
                out.set(a0 + l, b, lanes[l]);
                out.set(b, a0 + l, lanes[l]);
            }
        }
        // Un-scatter: restore the workspace's all-zeros invariant.
        for l in 0..aw {
            for &i in slices[a0 + l].indices {
                work[L * i + l] = 0.0;
            }
        }
        a0 += L;
    }
}

/// Fully workspace-reusing sampled Gram: writes into `out` (reshaped to
/// `k×k` in place) and, when `nthreads > 1`, tiles the upper-triangle rows
/// over the `saco-par` pool with one scatter workspace per worker, merged
/// in fixed row order. Bitwise identical to [`sampled_gram`] at any
/// thread count — the pooled path computes every entry with the same
/// [`gram_row`] arithmetic.
pub fn sampled_gram_into<M: MajorSlices>(
    m: &M,
    sel: &[usize],
    nthreads: usize,
    ws: &mut GramWorkspace,
    out: &mut DenseMatrix,
) {
    let slices = ws.resolve(m, sel);
    gram_of_slices(&slices, m.minor_len(), nthreads, ws, out);
    ws.recycle(slices);
}

/// [`sampled_gram_into`] on the resolved slices.
fn gram_of_slices(
    slices: &[SparseSlice<'_>],
    minor: usize,
    nthreads: usize,
    ws: &mut GramWorkspace,
    out: &mut DenseMatrix,
) {
    let k = slices.len();
    out.reshape_zeroed(k, k);
    if k < 4 || nthreads <= 1 {
        gram_serial_core(slices, ws.interleaved_for(minor), out);
        return;
    }
    // One tile per upper-triangle row: row a costs (k − a) pair-dots, so
    // fine-grained tiles plus the pool's dynamic claiming balance the
    // triangle without a static schedule. Row a scatters slice a then
    // dots it against every slice b ≥ a (~2·nnz_b each); the suffix-sum
    // estimate below decides up front whether the whole triangle is
    // cheaper than spawning workers — in which case we skip not just the
    // pool but the tiled path's per-row buffers and merge copies, and run
    // the serial SIMD block kernel directly.
    let mut work = 0u64;
    let mut suffix = 0u64;
    for s in slices.iter().rev() {
        let nnz = s.nnz() as u64;
        suffix += 2 * nnz;
        work += nnz + suffix;
    }
    if saco_par::dispatch_width(nthreads, k, work) <= 1 {
        // Sub-dispatch-size with a pool requested: run the serial core
        // but count the region, like tiled_map_weighted's own fallback,
        // so `par.regions` keeps tracking pooled-kernel invocations.
        saco_par::serial_region(k, || {
            gram_serial_core(slices, ws.interleaved_for(minor), out)
        });
        return;
    }
    let rows = saco_par::tiled_map_weighted(
        nthreads,
        k,
        work,
        || (GramWorkspace::new(), Vec::new()),
        |(ws, row), a| {
            gram_row(slices, a, ws.scatter_for(minor), row);
            std::mem::take(row)
        },
    );
    for (a, row) in rows.iter().enumerate() {
        for (off, &v) in row.iter().enumerate() {
            out.set(a, a + off, v);
            out.set(a + off, a, v);
        }
    }
}

/// Multi-threaded [`sampled_gram`] over the `saco-par` pool. Each entry
/// is computed by exactly the same scatter-dot as the sequential kernel
/// and rows merge in fixed order, so the result is **bitwise identical**
/// — threading here is free parallelism, not a numerics change.
///
/// This is the shared-memory, within-rank parallelism a production rank
/// would use on a multicore node; the deterministic-by-construction design
/// keeps the SA equivalence guarantees intact. The kernel is
/// memory-bandwidth bound, so the realized speedup depends on the host's
/// spare bandwidth, not its core count — benchmark before relying on it
/// (`cargo bench -p saco-bench --bench kernels`, group `sampled_gram_256`).
pub fn sampled_gram_parallel<M: MajorSlices>(m: &M, sel: &[usize], nthreads: usize) -> DenseMatrix {
    let mut g = DenseMatrix::zeros(0, 0);
    sampled_gram_into(m, sel, nthreads, &mut GramWorkspace::new(), &mut g);
    g
}

/// Cross product `C[a][j] = ⟨slice(sel[a]), vs[j]⟩` for a small set of dense
/// vectors (e.g. `[ỹ, z̃]` in Alg. 2 line 12, or `x` in Alg. 4 line 10).
pub fn sampled_cross<M: MajorSlices>(m: &M, sel: &[usize], vs: &[&[f64]]) -> DenseMatrix {
    let mut c = DenseMatrix::zeros(0, 0);
    sampled_cross_into(m, sel, vs, &mut c);
    c
}

/// [`sampled_cross`] into a caller-owned output matrix (reshaped in
/// place), so the SA hot loop reuses one allocation across outer
/// iterations.
pub fn sampled_cross_into<M: MajorSlices>(
    m: &M,
    sel: &[usize],
    vs: &[&[f64]],
    out: &mut DenseMatrix,
) {
    // Validate each vector once, not once per selected slice.
    for v in vs {
        assert_eq!(
            v.len(),
            m.minor_len(),
            "cross-product vector length mismatch"
        );
    }
    out.reshape_zeroed(sel.len(), vs.len());
    for (a, &s) in sel.iter().enumerate() {
        let sl = m.slice(s);
        for (j, v) in vs.iter().enumerate() {
            out.set(a, j, sl.dot_dense(v));
        }
    }
}

impl SparseSlice<'_> {
    /// Dot against a scattered dense workspace, iterating this (sparse)
    /// slice. Same as `dot_dense` but named separately for clarity at the
    /// Gram call site, where `work` holds another slice's scattered values.
    #[inline]
    fn dot_dense_sparse(&self, work: &[f64]) -> f64 {
        self.dot_dense(work)
    }
}

/// Dense-path Gram: gather sampled columns into a dense block and use the
/// cache-blocked symmetric GEMM (pool-parallel over `saco-par` when the
/// global thread count is raised). Numerically equivalent to
/// [`sampled_gram`] (same pairwise products, different summation order →
/// agreement to round-off), but runs at BLAS-3 rates for dense data.
pub fn sampled_gram_dense(m: &CscMatrix, sel: &[usize]) -> DenseMatrix {
    m.gather_columns_dense(sel)
        .gram_parallel(saco_par::threads())
}

/// Flop count of the sampled Gram kernel as executed: for the slice at
/// triangle position `b` (0-based), `norm_sq` on the diagonal costs
/// `2·nnz_b` and each of the `b` pair-dots against an earlier scattered
/// slice iterates *this* slice's nonzeros (`2·nnz_b` each) — so position
/// `b` is charged `2·nnz_b·(b + 1)`.
///
/// For uniform slice density this sums to `nnz(selected)·(k + 1)`,
/// matching the aggregate per-rank charge in `saco::dist::charges`
/// (`gram_flops = local_nnz·(width + 1)`): both account the upper
/// triangle only — the paper's footnote-3 2× saving over the full
/// `2·k·nnz` rectangular product.
pub fn gram_flops<M: MajorSlices>(m: &M, sel: &[usize]) -> u64 {
    sel.iter()
        .enumerate()
        .map(|(b, &s)| 2 * m.slice(s).nnz() as u64 * (b as u64 + 1))
        .sum()
}

/// Flop count of a sampled cross product.
pub fn cross_flops<M: MajorSlices>(m: &M, sel: &[usize], nvecs: usize) -> u64 {
    sel.iter()
        .map(|&s| 2 * m.slice(s).nnz() as u64 * nvecs as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use xrng::rng_from_seed;

    fn random_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> CooMatrix {
        let mut rng = rng_from_seed(seed);
        let mut coo = CooMatrix::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if rng.next_bool(density) {
                    coo.push(i, j, rng.next_gaussian());
                }
            }
        }
        coo
    }

    #[test]
    fn csc_sampled_gram_matches_dense_reference() {
        let coo = random_sparse(40, 25, 0.3, 1);
        let csc = coo.to_csc();
        let sel = vec![3, 17, 0, 9, 24];
        let g = sampled_gram(&csc, &sel);
        let dense_ref = sampled_gram_dense(&csc, &sel);
        for a in 0..5 {
            for b in 0..5 {
                assert!(
                    (g.get(a, b) - dense_ref.get(a, b)).abs() < 1e-10,
                    "mismatch at ({a},{b})"
                );
            }
        }
        assert!(g.is_symmetric(1e-14));
    }

    #[test]
    fn csr_sampled_gram_is_row_gram() {
        let coo = random_sparse(30, 50, 0.2, 2);
        let csr = coo.to_csr();
        let sel = vec![5, 5, 12]; // repeated row allowed (SVM samples with replacement)
        let g = sampled_gram(&csr, &sel);
        let d = csr.to_dense();
        for a in 0..3 {
            for b in 0..3 {
                let expect: f64 = (0..50).map(|j| d.get(sel[a], j) * d.get(sel[b], j)).sum();
                assert!((g.get(a, b) - expect).abs() < 1e-10);
            }
        }
        // repeated slice => identical rows/cols in G
        assert!((g.get(0, 0) - g.get(1, 1)).abs() < 1e-15);
        assert!((g.get(0, 2) - g.get(1, 2)).abs() < 1e-15);
    }

    #[test]
    fn sampled_cross_matches_dense() {
        let coo = random_sparse(40, 25, 0.25, 3);
        let csc = coo.to_csc();
        let mut rng = rng_from_seed(4);
        let v1: Vec<f64> = (0..40).map(|_| rng.next_gaussian()).collect();
        let v2: Vec<f64> = (0..40).map(|_| rng.next_gaussian()).collect();
        let sel = vec![2, 11, 20];
        let c = sampled_cross(&csc, &sel, &[&v1, &v2]);
        let d = csc.to_dense();
        for (a, &j) in sel.iter().enumerate() {
            let e1: f64 = (0..40).map(|i| d.get(i, j) * v1[i]).sum();
            let e2: f64 = (0..40).map(|i| d.get(i, j) * v2[i]).sum();
            assert!((c.get(a, 0) - e1).abs() < 1e-10);
            assert!((c.get(a, 1) - e2).abs() < 1e-10);
        }
    }

    #[test]
    fn empty_selection_gives_empty_gram() {
        let csc = random_sparse(10, 10, 0.5, 5).to_csc();
        let g = sampled_gram(&csc, &[]);
        assert_eq!((g.rows(), g.cols()), (0, 0));
    }

    #[test]
    fn gram_is_positive_semidefinite() {
        // xᵀGx = ‖A_S x‖² ≥ 0 for random x.
        let csc = random_sparse(60, 30, 0.2, 6).to_csc();
        let sel = vec![1, 4, 9, 16, 25];
        let g = sampled_gram(&csc, &sel);
        let mut rng = rng_from_seed(7);
        for _ in 0..20 {
            let x: Vec<f64> = (0..5).map(|_| rng.next_gaussian()).collect();
            let gx = g.gemv(&x);
            let q = crate::vecops::dot(&x, &gx);
            assert!(q >= -1e-10, "Gram quadratic form negative: {q}");
        }
    }

    #[test]
    fn flop_counters_are_positive_and_scale() {
        let csc = random_sparse(60, 30, 0.2, 8).to_csc();
        let f1 = gram_flops(&csc, &[0, 1]);
        let f2 = gram_flops(&csc, &[0, 1, 2, 3]);
        assert!(f2 > f1, "more samples must cost more flops");
        assert!(cross_flops(&csc, &[0, 1], 2) > 0);
    }

    #[test]
    fn gram_flops_charge_the_triangle_exactly() {
        // Position b pays 2·nnz_b·(b+1): its norm_sq diagonal plus the b
        // pair-dots that iterate its nonzeros against earlier scattered
        // slices. Pin it on a matrix with known column counts.
        let mut coo = CooMatrix::new(6, 3);
        for i in 0..2 {
            coo.push(i, 0, 1.0); // col 0: nnz 2
        }
        for i in 0..3 {
            coo.push(i, 1, 1.0); // col 1: nnz 3
        }
        for i in 0..5 {
            coo.push(i, 2, 1.0); // col 2: nnz 5
        }
        let csc = coo.to_csc();
        // sel = [2, 0, 1] → 2·5·1 + 2·2·2 + 2·3·3 = 10 + 8 + 18
        assert_eq!(gram_flops(&csc, &[2, 0, 1]), 36);
        // Uniform-nnz aggregate matches local_nnz·(k+1), the dist-engine
        // charge formula.
        let uni = random_sparse(40, 8, 1.0, 9).to_csc(); // dense => nnz 40 per col
        let sel: Vec<usize> = (0..8).collect();
        assert_eq!(gram_flops(&uni, &sel), 40 * 8 * (8 + 1));
    }

    #[test]
    fn interleaved_serial_core_matches_gram_row_bitwise() {
        // The serial core's SPARSE_LANES-interleaved pass must reproduce
        // the per-row gram_row arithmetic bit for bit — that identity is
        // what keeps the pooled path (which still uses gram_row) bitwise
        // equal to the serial kernel. Selection includes a duplicate and
        // a ragged tail (11 = 8 + 3 lanes).
        let csc = random_sparse(80, 40, 0.2, 20).to_csc();
        let sel = vec![0usize, 3, 3, 7, 11, 12, 19, 25, 31, 39, 2];
        let g = sampled_gram(&csc, &sel);
        let slices: Vec<SparseSlice<'_>> = sel.iter().map(|&j| csc.col(j)).collect();
        let mut work = vec![0.0; 80];
        let mut row = Vec::new();
        for a in 0..sel.len() {
            gram_row(&slices, a, &mut work, &mut row);
            for (off, &v) in row.iter().enumerate() {
                assert_eq!(
                    g.get(a, a + off).to_bits(),
                    v.to_bits(),
                    "entry ({a},{})",
                    a + off
                );
            }
        }
    }

    /// Counts `slice` calls on the matrix it wraps.
    struct Counting<'a>(&'a CscMatrix, std::sync::atomic::AtomicUsize);

    impl MajorSlices for Counting<'_> {
        fn major_len(&self) -> usize {
            self.0.major_len()
        }
        fn minor_len(&self) -> usize {
            self.0.minor_len()
        }
        fn slice(&self, k: usize) -> SparseSlice<'_> {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.slice(k)
        }
    }

    #[test]
    fn kernels_look_each_selected_slice_up_once() {
        // A lookup may cost a search on an out-of-core source, so a block
        // pays for k of them per kernel, not one per pair-dot.
        let csc = random_sparse(120, 300, 0.1, 21).to_csc();
        let sel: Vec<usize> = (0..256).map(|i| (i * 7) % 300).collect();
        let v = vec![1.0; 120];
        for threads in [1usize, 4] {
            let counted = Counting(&csc, Default::default());
            let (mut g, mut c) = (DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0));
            sampled_gram_into(&counted, &sel, threads, &mut GramWorkspace::new(), &mut g);
            sampled_cross_into(&counted, &sel, &[&v], &mut c);
            let calls = counted.1.into_inner();
            assert!(calls <= 3 * sel.len(), "threads={threads}: {calls} lookups");
            assert_eq!(g.as_slice(), sampled_gram(&csc, &sel).as_slice());
        }
    }

    #[test]
    fn workspace_variant_is_bitwise_identical_and_reusable() {
        let csc = random_sparse(50, 20, 0.3, 10).to_csc();
        let mut ws = GramWorkspace::new();
        let sel_a = vec![0, 3, 7, 11];
        let sel_b: Vec<usize> = (0..20).collect();
        // Reuse the same workspace across differently-shaped calls.
        for sel in [&sel_a, &sel_b, &sel_a] {
            let fresh = sampled_gram(&csc, sel);
            let reused = sampled_gram_with_workspace(&csc, sel, &mut ws);
            assert_eq!(fresh.as_slice(), reused.as_slice());
        }
        // And the _into variant reuses the output allocation too.
        let mut out = DenseMatrix::zeros(0, 0);
        sampled_gram_into(&csc, &sel_b, 1, &mut ws, &mut out);
        assert_eq!(out.as_slice(), sampled_gram(&csc, &sel_b).as_slice());
        sampled_gram_into(&csc, &sel_a, 1, &mut ws, &mut out);
        assert_eq!(out.as_slice(), sampled_gram(&csc, &sel_a).as_slice());
    }

    #[test]
    fn cross_into_reuses_output() {
        let csc = random_sparse(30, 12, 0.4, 11).to_csc();
        let v: Vec<f64> = (0..30).map(|i| i as f64 * 0.25 - 3.0).collect();
        let mut out = DenseMatrix::zeros(0, 0);
        sampled_cross_into(&csc, &[1, 5, 9], &[&v], &mut out);
        assert_eq!(
            out.as_slice(),
            sampled_cross(&csc, &[1, 5, 9], &[&v]).as_slice()
        );
        sampled_cross_into(&csc, &[2], &[&v], &mut out);
        assert_eq!((out.rows(), out.cols()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn cross_length_mismatch_still_panics() {
        let csc = random_sparse(30, 12, 0.4, 12).to_csc();
        let short = vec![0.0; 29];
        let _ = sampled_cross(&csc, &[0], &[&short]);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::CooMatrix;
    use xrng::rng_from_seed;

    fn random_csc(rows: usize, cols: usize, density: f64, seed: u64) -> crate::CscMatrix {
        let mut rng = rng_from_seed(seed);
        let mut coo = CooMatrix::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if rng.next_bool(density) {
                    coo.push(i, j, rng.next_gaussian());
                }
            }
        }
        coo.to_csc()
    }

    #[test]
    fn parallel_gram_is_bitwise_identical() {
        // Dense enough that the work estimate clears MIN_DISPATCH_WORK
        // (~2.6M estimated ops): on multi-core hosts the pool genuinely
        // engages (on 1-CPU hosts dispatch_width still serializes — also
        // a valid data point).
        let csc = random_csc(600, 120, 0.3, 41);
        let sel: Vec<usize> = (0..120).collect();
        let seq = sampled_gram(&csc, &sel);
        for threads in [1usize, 2, 3, 7, 64] {
            let par = sampled_gram_parallel(&csc, &sel, threads);
            assert_eq!(
                par.as_slice(),
                seq.as_slice(),
                "threads={threads}: parallel gram must be bitwise identical"
            );
        }
    }

    #[test]
    fn tiny_selections_fall_back_to_sequential() {
        let csc = random_csc(20, 10, 0.3, 42);
        let g = sampled_gram_parallel(&csc, &[1, 5], 8);
        assert_eq!(g.as_slice(), sampled_gram(&csc, &[1, 5]).as_slice());
        let empty = sampled_gram_parallel(&csc, &[], 4);
        assert_eq!((empty.rows(), empty.cols()), (0, 0));
    }

    #[test]
    fn dense_gram_parallel_is_bitwise_identical() {
        // 80·81·200 ≈ 1.3M estimated ops — above MIN_DISPATCH_WORK, so
        // multi-core hosts exercise the genuinely pooled band path.
        let mut rng = rng_from_seed(43);
        let data: Vec<f64> = (0..200 * 80).map(|_| rng.next_gaussian()).collect();
        let a = DenseMatrix::from_vec(200, 80, data);
        let seq = a.gram();
        for threads in [1usize, 2, 4, 7, 16] {
            let par = a.gram_parallel(threads);
            assert_eq!(par.as_slice(), seq.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn matmul_parallel_is_bitwise_identical() {
        let mut rng = rng_from_seed(44);
        let a = DenseMatrix::from_vec(
            150,
            70,
            (0..150 * 70).map(|_| rng.next_gaussian()).collect(),
        );
        let b = DenseMatrix::from_vec(70, 90, (0..70 * 90).map(|_| rng.next_gaussian()).collect());
        let seq = a.matmul(&b);
        for threads in [1usize, 2, 4, 7] {
            let par = a.matmul_parallel(&b, threads);
            assert_eq!(par.as_slice(), seq.as_slice(), "threads={threads}");
        }
    }
}
