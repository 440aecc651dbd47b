//! Sequential reference implementations of all eight methods.
//!
//! These are the ground truth the distributed and simulated variants are
//! tested against, and what generates the paper's MATLAB-style numerics
//! experiments (Fig. 2, Table III, Fig. 5):
//!
//! * [`bcd`] — non-accelerated block coordinate descent (CD for µ = 1).
//! * [`acc_bcd`] — Algorithm 1, accelerated BCD (accCD for µ = 1).
//! * [`sa_bcd`] — SA variant of `bcd` by s-step recurrence unrolling.
//! * [`sa_accbcd`] — Algorithm 2, SA accelerated BCD (eqs. 3–9).
//! * [`svm`] — Algorithm 3, dual coordinate descent for linear SVM.
//! * [`sa_svm`] — Algorithm 4, SA dual coordinate descent (eqs. 14–15).
//!
//! All of them draw coordinates from the workspace RNG seeded by the
//! config, with *identical draw sequences* between an algorithm and its SA
//! variant — the property that makes the SA ≡ non-SA equivalence testable
//! to round-off.

pub(crate) mod accbcd;
mod bcd;
mod kdcd;
mod sa_accbcd;
mod sa_bcd;
mod sa_svm;
pub(crate) mod svm;

pub use accbcd::acc_bcd;
pub use bcd::bcd;
pub use kdcd::kdcd;
pub use sa_accbcd::sa_accbcd;
pub use sa_bcd::sa_bcd;
pub use sa_svm::sa_svm;
pub use svm::svm;

/// Draw one µ-coordinate block according to the configured sampling
/// scheme: plain without-replacement coordinates (the paper's Alg. 1
/// line 5), or whole aligned groups (for exact Group Lasso proximal
/// steps). All solvers — sequential, distributed, simulated — share this
/// function so their RNG streams coincide.
///
/// Production callers all migrated to [`sample_block_into`] (PR 10 moved
/// the last one, the path solver, onto the driver); this wrapper stays as
/// the reference the RNG-equivalence tests pin `_into` against.
#[cfg(test)]
pub(crate) fn sample_block(
    rng: &mut xrng::Rng,
    n: usize,
    mu: usize,
    sampling: crate::config::BlockSampling,
) -> Vec<usize> {
    let mut coords = Vec::with_capacity(mu);
    sample_block_into(rng, n, mu, sampling, &mut coords);
    coords
}

/// `sample_block` appending into a caller-owned buffer (same generator
/// draws), so the SA outer loops reuse one selection vector across
/// iterations instead of allocating per block drawn.
pub(crate) fn sample_block_into(
    rng: &mut xrng::Rng,
    n: usize,
    mu: usize,
    sampling: crate::config::BlockSampling,
    out: &mut Vec<usize>,
) {
    match sampling {
        crate::config::BlockSampling::Coordinates => {
            xrng::sample_without_replacement_into(rng, n, mu, out);
        }
        crate::config::BlockSampling::AlignedGroups { group_size } => {
            // Draw group ids into the tail of `out`, then expand each id
            // into its coordinate run in place, back to front (group i's
            // run starts at i·group_size ≥ i, so writes never clobber an
            // unread id).
            let base = out.len();
            xrng::sample_without_replacement_into(rng, n / group_size, mu / group_size, out);
            let ngroups = mu / group_size;
            out.resize(base + ngroups * group_size, 0);
            for gi in (0..ngroups).rev() {
                let g = out[base + gi];
                for k in 0..group_size {
                    out[base + gi * group_size + k] = g * group_size + k;
                }
            }
        }
    }
}

/// The θ recurrence shared by Alg. 1 line 18 and Alg. 2 line 9:
/// `θ₊ = (√(θ⁴ + 4θ²) − θ²)/2`.
#[inline]
pub(crate) fn theta_next(theta: f64) -> f64 {
    let t2 = theta * theta;
    0.5 * ((t2 * t2 + 4.0 * t2).sqrt() - t2)
}

/// Largest eigenvalue of a sampled µ×µ Gram block — the "optimal Lipschitz
/// constant" of Alg. 1 line 10 — with the µ = 1 fast path (the Gram matrix
/// is the scalar ‖column‖²). The block is scratch: Jacobi rotates it in
/// place.
#[inline]
pub(crate) fn block_lipschitz(g: &mut sparsela::DenseMatrix) -> f64 {
    if g.rows() == 1 {
        g.get(0, 0)
    } else {
        sparsela::eig::max_eigenvalue(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_recurrence_decreases_and_stays_positive() {
        let mut theta = 0.5f64;
        for _ in 0..10_000 {
            let next = theta_next(theta);
            assert!(next > 0.0, "theta must stay positive");
            assert!(next < theta, "theta must decrease");
            theta = next;
        }
        // θ_h decays like O(1/h) for accelerated methods
        assert!(theta < 1e-3, "theta after 10k iters: {theta}");
    }

    #[test]
    fn theta_fixed_point_is_zero() {
        assert!(theta_next(0.0).abs() < 1e-300);
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::sample_block;
    use crate::config::BlockSampling;
    use xrng::rng_from_seed;

    #[test]
    fn coordinate_sampling_is_plain_without_replacement() {
        let mut rng = rng_from_seed(1);
        let s = sample_block(&mut rng, 100, 8, BlockSampling::Coordinates);
        assert_eq!(s.len(), 8);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }

    #[test]
    fn aligned_sampling_returns_whole_groups() {
        let mut rng = rng_from_seed(2);
        for _ in 0..100 {
            let s = sample_block(
                &mut rng,
                40,
                8,
                BlockSampling::AlignedGroups { group_size: 4 },
            );
            assert_eq!(s.len(), 8);
            // coordinates come in runs of whole groups
            for chunk in s.chunks(4) {
                let g = chunk[0] / 4;
                assert_eq!(chunk, (g * 4..(g + 1) * 4).collect::<Vec<_>>());
            }
            // the two groups are distinct
            assert_ne!(s[0] / 4, s[4] / 4);
        }
    }

    #[test]
    fn into_variant_matches_allocating_variant() {
        use super::sample_block_into;
        let schemes = [
            BlockSampling::Coordinates,
            BlockSampling::AlignedGroups { group_size: 4 },
        ];
        for scheme in schemes {
            let mut a = rng_from_seed(9);
            let mut b = rng_from_seed(9);
            let mut buf = Vec::new();
            for _ in 0..50 {
                let fresh = sample_block(&mut a, 80, 8, scheme);
                let base = buf.len();
                sample_block_into(&mut b, 80, 8, scheme, &mut buf);
                assert_eq!(&buf[base..], &fresh[..], "{scheme:?}");
            }
        }
    }

    #[test]
    fn aligned_sampling_covers_all_groups_uniformly() {
        let mut rng = rng_from_seed(3);
        let mut counts = [0u32; 10];
        let trials = 20_000;
        for _ in 0..trials {
            let s = sample_block(
                &mut rng,
                20,
                2,
                BlockSampling::AlignedGroups { group_size: 2 },
            );
            counts[s[0] / 2] += 1;
        }
        for &c in &counts {
            let p = c as f64 / trials as f64;
            assert!((p - 0.1).abs() < 0.02, "group marginal {p}");
        }
    }
}
