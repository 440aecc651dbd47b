//! Singular-value estimation.
//!
//! The paper sets the Lasso penalty to `λ = 100·σ_min(A)` (§IV-A). To be
//! able to evaluate that rule, this module estimates the extreme singular
//! values of a sparse matrix:
//!
//! * when one side of `A` is small (`min(m, n) ≤ 512`) the corresponding
//!   Gram matrix (`AAᵀ` or `AᵀA`) is formed densely and solved exactly by
//!   the Jacobi eigensolver — covers leu (38 rows), duke (44), covtype
//!   (54 columns), w1a, gisette;
//! * otherwise a Lanczos tridiagonalization of the Gram operator with full
//!   reorthogonalization estimates both ends of the spectrum (the small
//!   end converges slowly without inverting, so treat it as an estimate —
//!   adequate for a λ scale).

use crate::eig::jacobi_eigenvalues;
use crate::gram::sampled_gram;
use crate::{vecops, CsrMatrix, DenseMatrix};

/// Extreme singular values `(σ_min, σ_max)` of `A`.
///
/// `σ_min` here is the smallest singular value of the *full* spectrum
/// (zero for rank-deficient matrices), clamped at 0 against round-off.
pub fn singular_value_range(a: &CsrMatrix) -> (f64, f64) {
    let (m, n) = (a.rows(), a.cols());
    if m == 0 || n == 0 {
        return (0.0, 0.0);
    }
    let small = m.min(n);
    if small <= 512 {
        let eigs = if m <= n {
            // AAᵀ over rows
            let sel: Vec<usize> = (0..m).collect();
            jacobi_eigenvalues(&sampled_gram(a, &sel))
        } else {
            let csc = a.to_csc();
            let sel: Vec<usize> = (0..n).collect();
            jacobi_eigenvalues(&sampled_gram(&csc, &sel))
        };
        let max = eigs.first().copied().unwrap_or(0.0).max(0.0);
        let min = eigs.last().copied().unwrap_or(0.0).max(0.0);
        (min.sqrt(), max.sqrt())
    } else {
        let (lmin, lmax) = lanczos_extreme(a, 120);
        (lmin.max(0.0).sqrt(), lmax.max(0.0).sqrt())
    }
}

/// Lanczos with full reorthogonalization on the symmetric operator
/// `x ↦ Aᵀ(Ax)` (dimension `n`), returning the extreme Ritz values after
/// at most `k` steps.
fn lanczos_extreme(a: &CsrMatrix, k: usize) -> (f64, f64) {
    let n = a.cols();
    let k = k.min(n);
    let mut alphas: Vec<f64> = Vec::with_capacity(k);
    let mut betas: Vec<f64> = Vec::with_capacity(k);
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(k);

    // Deterministic pseudo-random start vector.
    let mut rng = xrng::rng_from_seed(0xC0FFEE);
    let mut v: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
    let nv = vecops::nrm2(&v);
    vecops::scale(1.0 / nv, &mut v);

    let mut beta_prev = 0.0f64;
    let mut v_prev: Vec<f64> = vec![0.0; n];
    for _ in 0..k {
        // w = AᵀA v
        let av = a.spmv(&v);
        let mut w = a.spmv_t(&av);
        let alpha = vecops::dot(&v, &w);
        vecops::axpy(-alpha, &v, &mut w);
        vecops::axpy(-beta_prev, &v_prev, &mut w);
        // Full reorthogonalization against all previous Lanczos vectors —
        // costs O(k·n) per step, but keeps the Ritz values honest.
        for u in &basis {
            let c = vecops::dot(u, &w);
            vecops::axpy(-c, u, &mut w);
        }
        alphas.push(alpha);
        basis.push(v.clone());
        let beta = vecops::nrm2(&w);
        if beta < 1e-12 * alpha.abs().max(1.0) {
            // invariant subspace found: the tridiagonal spectrum is exact
            break;
        }
        betas.push(beta);
        v_prev = std::mem::replace(&mut v, w);
        vecops::scale(1.0 / beta, &mut v);
        beta_prev = beta;
    }

    // Eigenvalues of the symmetric tridiagonal T (small dense Jacobi).
    let t = alphas.len();
    let mut tri = DenseMatrix::zeros(t, t);
    for i in 0..t {
        tri.set(i, i, alphas[i]);
        if i + 1 < t {
            tri.set(i, i + 1, betas[i]);
            tri.set(i + 1, i, betas[i]);
        }
    }
    let eigs = jacobi_eigenvalues(&tri);
    (
        eigs.last().copied().unwrap_or(0.0),
        eigs.first().copied().unwrap_or(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    /// A matrix with known singular values: diag(d) padded with zeros.
    fn diagonal_matrix(d: &[f64], rows: usize, cols: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows, cols);
        for (i, &v) in d.iter().enumerate() {
            coo.push(i, i, v);
        }
        coo.to_csr()
    }

    #[test]
    fn exact_path_on_diagonal_matrix() {
        let a = diagonal_matrix(&[3.0, 1.0, 7.0, 0.5], 4, 6);
        let (smin, smax) = singular_value_range(&a);
        assert!((smax - 7.0).abs() < 1e-10);
        assert!((smin - 0.5).abs() < 1e-10);
    }

    #[test]
    fn exact_path_uses_smaller_side() {
        // tall matrix: n small, σ over AᵀA
        let a = diagonal_matrix(&[2.0, 4.0], 100, 2);
        let (smin, smax) = singular_value_range(&a);
        assert!((smin - 2.0).abs() < 1e-10);
        assert!((smax - 4.0).abs() < 1e-10);
    }

    #[test]
    fn rank_deficient_matrix_has_zero_sigma_min() {
        // wide matrix with min(m,n)=3 but rank 2
        let mut coo = CooMatrix::new(3, 5);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 2.0);
        // row 2 duplicates row 0
        coo.push(2, 0, 1.0);
        let a = coo.to_csr();
        let (smin, _) = singular_value_range(&a);
        assert!(smin.abs() < 1e-8, "σ_min = {smin}");
    }

    #[test]
    fn lanczos_matches_exact_on_moderate_matrix() {
        // Force the Lanczos path by constructing a 600×600 diagonal-ish
        // matrix — compare against known extremes.
        let d: Vec<f64> = (0..600).map(|i| 1.0 + i as f64 * 0.01).collect();
        let a = diagonal_matrix(&d, 600, 600);
        let (smin, smax) = singular_value_range(&a);
        assert!((smax - 6.99).abs() < 1e-3, "σ_max = {smax}");
        // the small end of a tight spectrum converges more slowly; accept
        // a few percent
        assert!((smin - 1.0).abs() < 0.05, "σ_min = {smin}");
    }

    #[test]
    fn random_matrix_sanity() {
        use xrng::rng_from_seed;
        let mut rng = rng_from_seed(9);
        let mut coo = CooMatrix::new(50, 20);
        for i in 0..50 {
            for j in 0..20 {
                coo.push(i, j, rng.next_gaussian());
            }
        }
        let a = coo.to_csr();
        let (smin, smax) = singular_value_range(&a);
        assert!(smin > 0.0, "Gaussian 50×20 is full rank a.s.");
        assert!(smax > smin);
        // Frobenius bound: σ_max ≤ ‖A‖_F ≤ √20·σ_max
        let fro = a.row_norms_sq().iter().sum::<f64>().sqrt();
        assert!(smax <= fro + 1e-9);
        assert!(fro <= (20.0f64).sqrt() * smax + 1e-9);
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::zeros(0, 5);
        assert_eq!(singular_value_range(&a), (0.0, 0.0));
    }
}
