//! BLAS-1 style kernels over `&[f64]` slices.
//!
//! These are the per-iteration scalar/vector updates of the coordinate
//! descent methods (Fig. 1 step 5). The hot kernels (`dot`, `axpy`,
//! `scale`, `nrm2_sq`) dispatch through [`crate::simd`], which
//! compiles one fixed-lane-order definition per kernel for the portable,
//! AVX2 and AVX-512 builds — so results are bitwise identical at every
//! `SACO_SIMD` setting (the lane-reduction contract; see
//! `docs/PERFORMANCE.md` § "SIMD microkernels"). The solvers need
//! deterministic, fixed-order reductions so that simulated runs are
//! bit-reproducible; the SIMD dispatch never relaxes that.

use crate::simd;

/// Dot product `xᵀy`.
///
/// Four fixed accumulator lanes reduced `(acc0 + acc1) + (acc2 + acc3) +
/// tail` — the deterministic order every `SACO_SIMD` build shares.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(
        x.len(),
        y.len(),
        "dot: length mismatch (x has {}, y has {})",
        x.len(),
        y.len()
    );
    simd::dot(x, y)
}

/// `y ← alpha·x + y`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(
        x.len(),
        y.len(),
        "axpy: length mismatch (x has {}, y has {})",
        x.len(),
        y.len()
    );
    simd::axpy(alpha, x, y);
}

/// `x ← alpha·x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    simd::scale(alpha, x);
}

/// Euclidean norm `‖x‖₂`.
///
/// Overflow/underflow behavior (`hypot`-free scaling): when `dot(x, x)`
/// is a normal finite number the result is exactly `dot(x, x).sqrt()` —
/// the historic fast path, bitwise unchanged for every well-scaled input.
/// When the squared sum overflows to `+∞`, underflows to a subnormal, or
/// the input is empty/all-zero, the fallback rescales by `‖x‖∞` and
/// returns `‖x‖∞ · sqrt(Σ (xᵢ/‖x‖∞)²)`, which is finite (and nonzero for
/// nonzero input) whenever the true norm is representable.
#[inline]
pub fn nrm2(x: &[f64]) -> f64 {
    let s = simd::nrm2_sq(x);
    if s.is_normal() {
        return s.sqrt();
    }
    let m = inf_norm(x);
    if m == 0.0 {
        return 0.0;
    }
    // Scaled fallback: plain serial chain (not dispatched — trivially
    // mode-independent); only reached for extreme scales.
    let mut acc = 0.0;
    for &v in x {
        let t = v / m;
        acc += t * t;
    }
    acc.sqrt() * m
}

/// Squared Euclidean norm `‖x‖₂²` (same fixed lane order as [`dot`]).
#[inline]
pub fn nrm2_sq(x: &[f64]) -> f64 {
    simd::nrm2_sq(x)
}

/// ℓ∞ norm `max |xᵢ|`.
#[inline]
pub fn inf_norm(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// `‖x − y‖₂` without materialising the difference.
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist2: length mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Number of entries with `|xᵢ| > tol` (solution sparsity reporting).
pub fn nnz_count(x: &[f64], tol: f64) -> usize {
    x.iter().filter(|v| v.abs() > tol).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive_for_odd_lengths() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 17] {
            let x: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!((dot(&x, &y) - naive).abs() < 1e-12 * (1.0 + naive.abs()));
        }
    }

    #[test]
    fn dot_keeps_the_historic_lane_reduction_order() {
        // The fixed order (acc0+acc1)+(acc2+acc3)+tail, spelled out.
        let x: Vec<f64> = (0..11).map(|i| (i as f64 * 1.7).sin()).collect();
        let y: Vec<f64> = (0..11).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut acc = [0.0f64; 4];
        for c in 0..2 {
            for l in 0..4 {
                let i = 4 * c + l;
                acc[l] += x[i] * y[i];
            }
        }
        let mut tail = 0.0;
        for i in 8..11 {
            tail += x[i] * y[i];
        }
        let want = (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail;
        assert_eq!(dot(&x, &y).to_bits(), want.to_bits());
    }

    #[test]
    fn axpy_in_place() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
    }

    #[test]
    fn norms() {
        let x = vec![3.0, -4.0];
        assert_eq!(nrm2(&x), 5.0);
        assert_eq!(nrm2_sq(&x), 25.0);
        assert_eq!(inf_norm(&x), 4.0);
    }

    #[test]
    fn nrm2_survives_overflow_and_underflow() {
        // dot(x,x) overflows to +inf; the scaled path stays finite.
        let big = vec![1e200, 1e200, -1e200];
        let n = nrm2(&big);
        assert!(n.is_finite());
        assert!((n / (1e200 * 3.0f64.sqrt()) - 1.0).abs() < 1e-12);

        // dot(x,x) underflows to subnormal/zero; the scaled path keeps
        // the leading digits.
        let tiny = vec![3e-200, 4e-200];
        let n = nrm2(&tiny);
        assert!(n > 0.0);
        assert!((n / 5e-200 - 1.0).abs() < 1e-12);

        assert_eq!(nrm2(&[]), 0.0);
        assert_eq!(nrm2(&[0.0, -0.0]), 0.0);
    }

    #[test]
    fn nrm2_fast_path_is_bitwise_the_historic_formula() {
        let x: Vec<f64> = (0..13).map(|i| (i as f64 + 0.25).cos() * 2.0).collect();
        assert_eq!(nrm2(&x).to_bits(), dot(&x, &x).sqrt().to_bits());
    }

    #[test]
    fn dist_nnz() {
        let x = vec![1.0, 0.0, 2.0];
        let y = vec![1.0, 1.0, 0.0];
        assert!((dist2(&x, &y) - 5.0f64.sqrt()).abs() < 1e-15);
        assert_eq!(nnz_count(&x, 1e-12), 2);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
