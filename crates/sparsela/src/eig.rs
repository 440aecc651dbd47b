//! Symmetric eigensolvers for the small Gram matrices.
//!
//! Algorithm 1 line 10 needs "the largest eigenvalue of G", the µ×µ sampled
//! Gram matrix, as the optimal block Lipschitz constant (step size
//! `η = 1/(q·θ·λmax)`); Algorithm 2 line 14 needs the same for each µ×µ
//! diagonal block of the sµ×sµ Gram matrix. µ is small (1–8 in the paper's
//! experiments), so a cyclic Jacobi sweep is exact, robust, and cheap; a
//! shifted power iteration is provided for larger symmetric matrices.

use crate::{vecops, DenseMatrix};

/// All eigenvalues of a symmetric matrix by the cyclic Jacobi method,
/// returned in descending order.
///
/// # Panics
/// Panics if the matrix is not square or not symmetric to 1e-10 relative
/// tolerance.
pub fn jacobi_eigenvalues(a: &DenseMatrix) -> Vec<f64> {
    let mut m = a.clone();
    jacobi_sweeps(&mut m);
    let mut eigs = m.diagonal();
    eigs.sort_by(|a, b| b.partial_cmp(a).unwrap());
    eigs
}

/// Largest eigenvalue of a symmetric positive-semidefinite matrix.
///
/// For order ≤ 2 uses closed forms; for order ≤ 32 (every Gram block the
/// solvers build) uses Jacobi, which rotates `a` itself — `a` holds its
/// eigenvalues on the diagonal afterwards and is otherwise scratch (the
/// solvers pass a fresh copy of a Gram diagonal block); beyond that a
/// power iteration with a deterministic start vector and Rayleigh-quotient
/// convergence test.
///
/// The Jacobi result is `jacobi_eigenvalues(a)[0]` bit for bit: the same
/// rotations in the same order, and the first diagonal entry that no later
/// one exceeds is exactly what the stable descending sort puts first
/// (`−0.0` and `+0.0` tie there as here). Inputs are finite — every
/// matrix door rejects anything else.
pub fn max_eigenvalue(a: &mut DenseMatrix) -> f64 {
    assert_eq!(a.rows(), a.cols(), "max_eigenvalue of a non-square matrix");
    let n = a.rows();
    match n {
        0 => 0.0,
        1 => a.get(0, 0),
        2 => {
            let (p, q, r) = (a.get(0, 0), a.get(0, 1), a.get(1, 1));
            let mean = 0.5 * (p + r);
            let disc = (0.25 * (p - r) * (p - r) + q * q).sqrt();
            mean + disc
        }
        _ if n <= 32 => {
            jacobi_sweeps(a);
            let d = a.as_slice();
            let mut best = d[0];
            for i in 1..n {
                let v = d[i * (n + 1)];
                if v > best {
                    best = v;
                }
            }
            best
        }
        _ => power_iteration(a, 10_000, 1e-12),
    }
}

/// One pass over the strict upper triangle of the row-major order-`n`
/// matrix `m` and its mirror: the largest |·| above the diagonal, the
/// largest |·| on or below it, and the largest asymmetry |m_pq − m_qp|.
///
/// Each is a max of non-negative values, so it does not depend on the
/// order it is taken in, and the three are independent chains. `max_abs`
/// is a compare-and-select, not `f64::max`: on values that are never
/// `−0.0` and an accumulator that is never NaN the two agree bit for bit
/// (a NaN operand loses either way), and the select is what the loop
/// measured fast with — `f64::max` spends most of the scan on its NaN
/// handling.
fn scan(m: &[f64], n: usize) -> (f64, f64, f64) {
    #[inline(always)]
    fn max_abs(acc: f64, v: f64) -> f64 {
        let v = v.abs();
        if v > acc {
            v
        } else {
            acc
        }
    }
    let (mut off, mut low, mut asym) = (0.0, 0.0, 0.0);
    for p in 0..n {
        low = max_abs(low, m[p * n + p]);
        for q in p + 1..n {
            let (u, l) = (m[p * n + q], m[q * n + p]);
            off = max_abs(off, u);
            low = max_abs(low, l);
            asym = max_abs(asym, u - l);
        }
    }
    (off, low, asym)
}

/// The cyclic Jacobi sweeps, in place: on return `m`'s diagonal holds its
/// eigenvalues (unsorted) — the one sweep body behind
/// [`jacobi_eigenvalues`] and [`max_eigenvalue`].
///
/// # Panics
/// Panics if `m` is not square or not symmetric to 1e-10 relative to its
/// largest entry (at least 1) — checked in the first sweep's convergence
/// scan.
fn jacobi_sweeps(m: &mut DenseMatrix) {
    assert_eq!(m.rows(), m.cols(), "eigenvalues of a non-square matrix");
    let n = m.rows();
    let m = m.as_mut_slice();
    // Cyclic Jacobi: annihilate each off-diagonal entry with a Givens
    // rotation; quadratic convergence, ~6 sweeps suffice in f64 for the
    // sizes we see.
    for sweep in 0..50 {
        let (off, low, asym) = scan(m, n);
        let max_abs = off.max(low);
        if sweep == 0 {
            assert!(
                asym <= 1e-10 * max_abs.max(1.0),
                "jacobi_eigenvalues requires a symmetric matrix"
            );
        }
        if off <= 1e-14 * max_abs.max(1e-300) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                // stable tangent of the rotation angle
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // apply rotation J(p,q,θ)ᵀ M J(p,q,θ): columns p and q for
                // every row, then rows p and q — each entry's update reads
                // only its own pair, so any order of k is the same bits.
                for k in 0..n {
                    let (kp, kq) = (k * n + p, k * n + q);
                    let (mkp, mkq) = (m[kp], m[kq]);
                    m[kp] = c * mkp - s * mkq;
                    m[kq] = s * mkp + c * mkq;
                }
                let (head, tail) = m.split_at_mut(q * n);
                let rp = &mut head[p * n..(p + 1) * n];
                for (mp, mq) in rp.iter_mut().zip(&mut tail[..n]) {
                    let (mpk, mqk) = (*mp, *mq);
                    *mp = c * mpk - s * mqk;
                    *mq = s * mpk + c * mqk;
                }
            }
        }
    }
}

/// Power iteration for the dominant eigenvalue of a symmetric PSD matrix.
/// Deterministic start vector (all ones plus a small index-dependent tilt to
/// avoid orthogonality to the dominant eigenvector).
pub fn power_iteration(a: &DenseMatrix, max_iter: usize, tol: f64) -> f64 {
    let n = a.rows();
    assert_eq!(n, a.cols());
    if n == 0 {
        return 0.0;
    }
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 1e-3).collect();
    let norm = vecops::nrm2(&v);
    vecops::scale(1.0 / norm, &mut v);
    let mut lambda = 0.0f64;
    for _ in 0..max_iter {
        let mut w = a.gemv(&v);
        let new_lambda = vecops::dot(&v, &w);
        let wn = vecops::nrm2(&w);
        if wn == 0.0 {
            return 0.0; // v in null space and A PSD with Av = 0
        }
        vecops::scale(1.0 / wn, &mut w);
        let done = (new_lambda - lambda).abs() <= tol * new_lambda.abs().max(1.0);
        lambda = new_lambda;
        v = w;
        if done {
            break;
        }
    }
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::sampled_gram;
    use crate::CscMatrix;
    use xrng::rng_from_seed;

    /// `AᵀA` of a Gaussian `m × n` matrix, formed by the production kernel
    /// over all of its columns.
    fn gram_of(a: &DenseMatrix) -> DenseMatrix {
        let all: Vec<usize> = (0..a.cols()).collect();
        sampled_gram(&CscMatrix::from_dense(a), &all)
    }

    fn random_gram(n: usize, m: usize, seed: u64) -> DenseMatrix {
        let mut rng = rng_from_seed(seed);
        let data: Vec<f64> = (0..m * n).map(|_| rng.next_gaussian()).collect();
        gram_of(&DenseMatrix::from_vec(m, n, data))
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let mut d = DenseMatrix::zeros(4, 4);
        for (i, &v) in [3.0, -1.0, 7.0, 2.0].iter().enumerate() {
            d.set(i, i, v);
        }
        let eigs = jacobi_eigenvalues(&d);
        assert_eq!(eigs, vec![7.0, 3.0, 2.0, -1.0]);
        assert_eq!(max_eigenvalue(&mut d), 7.0);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let eigs = jacobi_eigenvalues(&a);
        assert!((eigs[0] - 3.0).abs() < 1e-12);
        assert!((eigs[1] - 1.0).abs() < 1e-12);
        assert!((max_eigenvalue(&mut a.clone()) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn trace_and_frobenius_invariants() {
        let g = random_gram(8, 20, 1);
        let eigs = jacobi_eigenvalues(&g);
        let trace: f64 = (0..8).map(|i| g.get(i, i)).sum();
        let eig_sum: f64 = eigs.iter().sum();
        assert!((trace - eig_sum).abs() < 1e-8 * trace.abs().max(1.0));
        let fro2: f64 = g.fro_norm().powi(2);
        let eig_sq: f64 = eigs.iter().map(|e| e * e).sum();
        assert!((fro2 - eig_sq).abs() < 1e-7 * fro2.max(1.0));
    }

    #[test]
    fn gram_eigenvalues_nonnegative() {
        let g = random_gram(6, 9, 2);
        for e in jacobi_eigenvalues(&g) {
            assert!(e >= -1e-9, "PSD Gram eigenvalue negative: {e}");
        }
    }

    #[test]
    fn power_iteration_matches_jacobi() {
        let g = random_gram(12, 30, 3);
        let pj = jacobi_eigenvalues(&g)[0];
        let pp = power_iteration(&g, 20_000, 1e-14);
        assert!((pj - pp).abs() < 1e-6 * pj, "jacobi {pj} vs power {pp}");
    }

    #[test]
    fn max_eigenvalue_large_path_uses_power() {
        let g = random_gram(40, 80, 4);
        let m = max_eigenvalue(&mut g.clone());
        let j = jacobi_eigenvalues(&g)[0];
        assert!((m - j).abs() < 1e-5 * j, "power-path {m} vs jacobi {j}");
    }

    #[test]
    fn rank_one_gram() {
        // aaᵀ-style Gram from a 1-row matrix: λmax = ‖a‖², rest 0.
        let g = gram_of(&DenseMatrix::from_rows(&[&[1.0, 2.0, 2.0]]));
        let eigs = jacobi_eigenvalues(&g);
        assert!((eigs[0] - 9.0).abs() < 1e-12);
        assert!(eigs[1].abs() < 1e-12 && eigs[2].abs() < 1e-12);
    }

    #[test]
    fn empty_and_single() {
        assert!(jacobi_eigenvalues(&DenseMatrix::zeros(0, 0)).is_empty());
        let one = DenseMatrix::from_rows(&[&[5.0]]);
        assert_eq!(max_eigenvalue(&mut one.clone()), 5.0);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_panics() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        jacobi_eigenvalues(&a);
    }
}
