//! Small dense Cholesky factorization.
//!
//! Used to (a) validate that sampled Gram matrices are numerically positive
//! semidefinite in tests, and (b) solve the small ridge-regularized
//! subproblems in the examples. Gram matrices in this codebase are at most
//! a few hundred rows, so an unblocked right-looking factorization is
//! plenty.

use crate::DenseMatrix;

/// Error returned when a matrix is not positive definite to working
/// precision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Pivot column at which the factorization broke down.
    pub pivot: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite (pivot {} ≤ 0)",
            self.pivot
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Lower-triangular Cholesky factor `L` with `L Lᵀ = A`.
#[derive(Clone, Debug)]
pub struct Cholesky {
    l: DenseMatrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// # Errors
    /// Returns [`NotPositiveDefinite`] if any pivot is ≤ 0.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn factor(a: &DenseMatrix) -> Result<Self, NotPositiveDefinite> {
        assert_eq!(a.rows(), a.cols(), "Cholesky of a non-square matrix");
        let n = a.rows();
        let mut l = DenseMatrix::zeros(n, n);
        for j in 0..n {
            let mut d = a.get(j, j);
            for k in 0..j {
                d -= l.get(j, k) * l.get(j, k);
            }
            if d <= 0.0 {
                return Err(NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            l.set(j, j, dj);
            for i in (j + 1)..n {
                let mut s = a.get(i, j);
                for k in 0..j {
                    s -= l.get(i, k) * l.get(j, k);
                }
                l.set(i, j, s / dj);
            }
        }
        Ok(Self { l })
    }

    /// Borrow the factor `L`.
    pub fn l(&self) -> &DenseMatrix {
        &self.l
    }

    /// Solve `A x = b` via forward/backward substitution.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n, "solve: rhs length mismatch");
        // forward: L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l.get(i, k) * y[k];
            }
            y[i] = s / self.l.get(i, i);
        }
        // backward: Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.l.get(k, i) * x[k];
            }
            x[i] = s / self.l.get(i, i);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops;
    use xrng::rng_from_seed;

    fn spd(n: usize, seed: u64) -> DenseMatrix {
        let mut rng = rng_from_seed(seed);
        let data: Vec<f64> = (0..n * (n + 3)).map(|_| rng.next_gaussian()).collect();
        let mut g = DenseMatrix::from_vec(n + 3, n, data).gram();
        for i in 0..n {
            g.set(i, i, g.get(i, i) + 0.5); // ridge to guarantee PD
        }
        g
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd(7, 1);
        let ch = Cholesky::factor(&a).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose());
        for k in 0..49 {
            assert!((recon.as_slice()[k] - a.as_slice()[k]).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_matches_residual() {
        let a = spd(9, 2);
        let ch = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..9).map(|i| (i as f64).sin()).collect();
        let x = ch.solve(&b);
        let r = vecops::sub(&a.gemv(&x), &b);
        assert!(vecops::nrm2(&r) < 1e-9, "residual {}", vecops::nrm2(&r));
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        let err = Cholesky::factor(&a).unwrap_err();
        assert_eq!(err.pivot, 1);
        assert!(err.to_string().contains("not positive definite"));
    }

    #[test]
    fn semidefinite_matrix_rejected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]); // rank 1
        assert!(Cholesky::factor(&a).is_err());
    }
}
