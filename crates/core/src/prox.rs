//! Proximal operators for the sparsity-inducing regularizers of §I.
//!
//! The paper presents its results "for proximal least-squares using
//! Lasso-regularization, but they hold more generally for other
//! regularization functions with well-defined proximal operators
//! (Elastic-Nets, Group Lasso, etc.)". This module provides exactly those
//! three, behind one trait the solvers are generic over. The Lasso prox is
//! the soft-thresholding operator of eq. (2):
//!
//! ```text
//! S_α(βᵢ) = sign(βᵢ) · max(|βᵢ| − α, 0)
//! ```

/// A separable (or group-separable) regularizer `g(x)` with a proximal
/// operator, evaluated block-wise on sampled coordinates.
pub trait Regularizer: Clone + Send + Sync {
    /// `g(x)` over the full vector (for objective reporting).
    fn value(&self, x: &[f64]) -> f64 {
        self.value_iter(x.iter().copied())
    }

    /// `g(x)` with `x` given entry by entry in index order, so a caller
    /// holding `x` implicitly (the accelerated solvers' `θ²y + z`) need
    /// not form it. The same bits as [`Regularizer::value`] on the
    /// collected vector: the same operations run in the same order.
    fn value_iter<I>(&self, x: I) -> f64
    where
        I: Iterator<Item = f64> + Clone;

    /// Apply `prox_{η·g}` in place to the candidate values `v`, which are
    /// the entries of the iterate at the sampled coordinates `coords`
    /// (`v.len() == coords.len()`). `coords` is provided because
    /// group-structured penalties need to know which coordinates the values
    /// correspond to.
    fn prox_block(&self, v: &mut [f64], coords: &[usize], eta: f64);
}

/// The soft-thresholding operator `S_α` of eq. (2).
///
/// Fully-shrunk outputs are exactly `+0.0`: the naive
/// `signum(β)·max(|β|−α, 0)` yields `-0.0` for negative (or `-0.0`) inputs,
/// which is `==` 0 but has a different bit pattern and would break the
/// byte-equal cross-engine report invariants.
///
/// ```
/// use saco::prox::soft_threshold;
/// assert_eq!(soft_threshold(3.0, 1.0), 2.0);
/// assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
/// assert_eq!(soft_threshold(-0.5, 1.0).to_bits(), 0.0f64.to_bits());
/// ```
#[inline]
pub fn soft_threshold(beta: f64, alpha: f64) -> f64 {
    let t = (beta.abs() - alpha).max(0.0);
    if t == 0.0 {
        0.0
    } else {
        beta.signum() * t
    }
}

/// Lasso: `g(x) = λ‖x‖₁`; prox is elementwise soft-thresholding.
#[derive(Clone, Debug)]
pub struct Lasso {
    /// Regularization weight λ.
    pub lambda: f64,
}

impl Lasso {
    /// Lasso with weight `lambda ≥ 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda >= 0.0, "lambda must be nonnegative");
        Self { lambda }
    }
}

impl Regularizer for Lasso {
    fn value_iter<I: Iterator<Item = f64> + Clone>(&self, x: I) -> f64 {
        self.lambda * x.map(f64::abs).sum::<f64>()
    }

    fn prox_block(&self, v: &mut [f64], _coords: &[usize], eta: f64) {
        let a = self.lambda * eta;
        for vi in v {
            *vi = soft_threshold(*vi, a);
        }
    }
}

/// Elastic-Net in the paper's parameterization (§I):
/// `g(x) = λ‖x‖₂² + (1−λ)‖x‖₁` with mixing weight `λ ∈ [0, 1]`, optionally
/// scaled by an overall strength `σ`:
/// `g(x) = σ·(λ‖x‖₂² + (1−λ)‖x‖₁)`.
///
/// `prox_{η·g}(v) = S_{ησ(1−λ)}(v) / (1 + 2ησλ)`.
#[derive(Clone, Debug)]
pub struct ElasticNet {
    /// Mixing weight λ ∈ [0, 1]: λ = 0 is pure Lasso, λ = 1 pure ridge.
    pub lambda: f64,
    /// Overall penalty strength σ ≥ 0 (the paper's form is σ = 1).
    pub strength: f64,
}

impl ElasticNet {
    /// Elastic-Net with mixing weight `lambda ∈ [0, 1]` and unit strength
    /// (the paper's exact form).
    pub fn new(lambda: f64) -> Self {
        Self::with_strength(1.0, lambda)
    }

    /// Elastic-Net with overall strength σ and mixing weight λ.
    pub fn with_strength(strength: f64, lambda: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&lambda),
            "elastic-net lambda must be in [0,1]"
        );
        assert!(strength >= 0.0, "elastic-net strength must be nonnegative");
        Self { lambda, strength }
    }
}

impl Regularizer for ElasticNet {
    fn value_iter<I: Iterator<Item = f64> + Clone>(&self, x: I) -> f64 {
        let l2: f64 = x.clone().map(|v| v * v).sum();
        let l1: f64 = x.map(f64::abs).sum();
        self.strength * (self.lambda * l2 + (1.0 - self.lambda) * l1)
    }

    fn prox_block(&self, v: &mut [f64], _coords: &[usize], eta: f64) {
        let a = eta * self.strength * (1.0 - self.lambda);
        let shrink = 1.0 / (1.0 + 2.0 * eta * self.strength * self.lambda);
        for vi in v {
            *vi = soft_threshold(*vi, a) * shrink;
        }
    }
}

/// Group Lasso: `g(x) = λ Σ_g ‖x̃_g‖₂` over `G` disjoint groups (§I).
///
/// `prox` is block soft-thresholding per group:
/// `x̃_g ← x̃_g · max(0, 1 − ηλ/‖x̃_g‖₂)`.
///
/// The prox is evaluated over the coordinates the solver sampled; for the
/// operator to equal the exact group prox, a sampled block must contain
/// whole groups. [`GroupLasso::aligned_blocks`] reports a block size µ that
/// guarantees this for uniform groups, and the solvers' samplers accept it.
#[derive(Clone, Debug)]
pub struct GroupLasso {
    /// Regularization weight λ.
    pub lambda: f64,
    /// `group[i]` = group id of coordinate `i`.
    pub group: Vec<usize>,
    /// Number of groups `G`.
    pub num_groups: usize,
}

impl GroupLasso {
    /// Build from a per-coordinate group-id map.
    ///
    /// # Panics
    /// Panics if a group id ≥ `num_groups` appears.
    pub fn new(lambda: f64, group: Vec<usize>, num_groups: usize) -> Self {
        assert!(lambda >= 0.0, "lambda must be nonnegative");
        assert!(
            group.iter().all(|&g| g < num_groups),
            "group id out of range"
        );
        Self {
            lambda,
            group,
            num_groups,
        }
    }

    /// Uniform contiguous groups of size `group_size` over `n` coordinates.
    pub fn uniform(lambda: f64, n: usize, group_size: usize) -> Self {
        assert!(group_size > 0, "group size must be positive");
        let group: Vec<usize> = (0..n).map(|i| i / group_size).collect();
        let num_groups = n.div_ceil(group_size);
        Self::new(lambda, group, num_groups)
    }

    /// The block size µ that keeps the sampled block prox exact: for
    /// uniform contiguous groups of size `k` (as built by
    /// [`GroupLasso::uniform`]), any µ that is a multiple of the returned
    /// `k` with group-aligned sampling contains only whole groups.
    ///
    /// Derived from `self.group`, not taken on faith from the caller.
    ///
    /// # Panics
    /// Panics if the group map is empty or is not uniform-contiguous
    /// (i.e. not `group[i] == i / k` for some fixed `k`, modulo a short
    /// final group).
    pub fn aligned_blocks(&self) -> usize {
        assert!(
            !self.group.is_empty(),
            "aligned_blocks needs a nonempty group map"
        );
        // Size of the first group = candidate k; every coordinate must then
        // satisfy group[i] == i / k for the contiguous-uniform layout.
        let k = self
            .group
            .iter()
            .position(|&g| g != self.group[0])
            .unwrap_or(self.group.len());
        assert!(
            self.group.iter().enumerate().all(|(i, &g)| g == i / k),
            "aligned_blocks requires uniform contiguous groups"
        );
        k
    }
}

impl Regularizer for GroupLasso {
    fn value_iter<I: Iterator<Item = f64> + Clone>(&self, x: I) -> f64 {
        let mut norms_sq = vec![0.0f64; self.num_groups];
        for (i, v) in x.enumerate() {
            norms_sq[self.group[i]] += v * v;
        }
        self.lambda * norms_sq.iter().map(|n| n.sqrt()).sum::<f64>()
    }

    fn prox_block(&self, v: &mut [f64], coords: &[usize], eta: f64) {
        assert_eq!(v.len(), coords.len(), "values/coords mismatch");
        // Norm of each group's sampled members, accumulated into a reusable
        // thread-local scratch instead of a per-call HashMap: this sits in
        // the innermost solver loop, and the zero-alloc `KernelWorkspace`
        // contract forbids steady-state allocation there. Sampled blocks
        // touch only a handful of groups, so a linear scan over the scratch
        // beats hashing. Per-group sums accumulate in `coords` order exactly
        // as the keyed HashMap did, so the arithmetic is bitwise identical.
        GROUP_NORM_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            for (&c, &x) in coords.iter().zip(v.iter()) {
                let g = self.group[c];
                match scratch.iter_mut().find(|(gid, _)| *gid == g) {
                    Some((_, sum)) => *sum += x * x,
                    None => scratch.push((g, x * x)),
                }
            }
            let thr = eta * self.lambda;
            for (k, &c) in coords.iter().enumerate() {
                let g = self.group[c];
                let norm_sq = scratch
                    .iter()
                    .find(|(gid, _)| *gid == g)
                    .expect("group seen in accumulation pass")
                    .1;
                let norm = norm_sq.sqrt();
                if norm > thr {
                    v[k] *= 1.0 - thr / norm;
                } else {
                    // `v[k] *= 0.0` would produce `-0.0` for negative
                    // entries; killed groups must be exactly `+0.0`.
                    v[k] = 0.0;
                }
            }
        });
    }
}

std::thread_local! {
    /// Reusable `(group id, Σx²)` accumulator for [`GroupLasso::prox_block`]
    /// — grown once per thread, then allocation-free.
    static GROUP_NORM_SCRATCH: std::cell::RefCell<Vec<(usize, f64)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(2.0, 0.0), 2.0);
    }

    /// Bit pattern of positive zero — shrunk-to-zero prox outputs must be
    /// exactly this, never `-0.0` (same value under `==`, different bytes).
    const P0: u64 = 0.0f64.to_bits();

    #[test]
    fn soft_threshold_never_emits_negative_zero() {
        for beta in [-0.5, -0.0, 0.0, 0.5, -1.0, 1.0] {
            let out = soft_threshold(beta, 1.0);
            assert_eq!(
                out.to_bits(),
                P0,
                "soft_threshold({beta}, 1.0) must be +0.0"
            );
        }
        // Exact-boundary shrink: |β| == α.
        assert_eq!(soft_threshold(-2.0, 2.0).to_bits(), P0);
        // Non-shrunk values keep their sign.
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
    }

    #[test]
    fn prox_block_shrunk_outputs_are_positive_zero_for_all_regularizers() {
        let coords = [0usize, 1, 2, 3];
        let full_shrink = [-0.5, -0.0, 0.0, 0.4];

        let mut v = full_shrink;
        Lasso::new(1.0).prox_block(&mut v, &coords, 1.0);
        for (k, out) in v.iter().enumerate() {
            assert_eq!(out.to_bits(), P0, "lasso coord {k}");
        }

        let mut v = full_shrink;
        ElasticNet::new(0.25).prox_block(&mut v, &coords, 4.0);
        for (k, out) in v.iter().enumerate() {
            assert_eq!(out.to_bits(), P0, "elastic-net coord {k}");
        }

        // Whole-group kill: both members (one negative) must be +0.0.
        let mut v = [-0.1, 0.1, 3.0, 4.0];
        GroupLasso::uniform(1.0, 4, 2).prox_block(&mut v, &coords, 1.0);
        assert_eq!(v[0].to_bits(), P0, "killed negative group member");
        assert_eq!(v[1].to_bits(), P0, "killed positive group member");
        assert!((v[2] - 2.4).abs() < 1e-12);
        assert!((v[3] - 3.2).abs() < 1e-12);
    }

    /// The prox must satisfy its variational characterization:
    /// `p = argmin_u ½‖u − v‖² + η·g(u)`, so any perturbation increases the
    /// objective.
    fn check_prox_optimality<R: Regularizer>(reg: &R, v: &[f64], coords: &[usize], eta: f64) {
        let mut p = v.to_vec();
        reg.prox_block(&mut p, coords, eta);
        let obj = |u: &[f64]| -> f64 {
            let quad: f64 = u.iter().zip(v).map(|(a, b)| 0.5 * (a - b) * (a - b)).sum();
            // Embed block into a full vector of zeros at the coords for g.
            let maxc = coords.iter().max().copied().unwrap_or(0);
            let mut full = vec![0.0; maxc + 1];
            for (k, &c) in coords.iter().enumerate() {
                full[c] = u[k];
            }
            quad + eta * reg.value(&full)
        };
        let base = obj(&p);
        let mut rng = xrng::rng_from_seed(99);
        for _ in 0..50 {
            let mut q = p.clone();
            for qi in &mut q {
                *qi += 0.05 * rng.next_gaussian();
            }
            assert!(
                obj(&q) >= base - 1e-12,
                "perturbation decreased prox objective: {} < {}",
                obj(&q),
                base
            );
        }
    }

    #[test]
    fn lasso_prox_is_optimal() {
        let reg = Lasso::new(0.7);
        check_prox_optimality(&reg, &[1.5, -0.2, 0.9, -3.0], &[0, 1, 2, 3], 0.8);
    }

    #[test]
    fn elastic_net_prox_is_optimal() {
        let reg = ElasticNet::new(0.4);
        check_prox_optimality(&reg, &[1.5, -0.2, 0.9, -3.0], &[0, 1, 2, 3], 0.6);
    }

    #[test]
    fn group_lasso_prox_is_optimal_on_whole_groups() {
        let reg = GroupLasso::uniform(0.5, 6, 2);
        // sample whole groups 0 and 2 => coords {0,1,4,5}
        check_prox_optimality(&reg, &[1.0, -2.0, 0.1, 0.05], &[0, 1, 4, 5], 0.9);
    }

    #[test]
    fn elastic_net_interpolates() {
        // λ = 0 reduces to Lasso with weight 1.
        let en = ElasticNet::new(0.0);
        let la = Lasso::new(1.0);
        let mut v1 = vec![2.0, -0.3];
        let mut v2 = v1.clone();
        en.prox_block(&mut v1, &[0, 1], 0.5);
        la.prox_block(&mut v2, &[0, 1], 0.5);
        assert_eq!(v1, v2);
        // λ = 1 is pure ridge shrinkage, no sparsity.
        let ridge = ElasticNet::new(1.0);
        let mut v = vec![2.0, -0.3];
        ridge.prox_block(&mut v, &[0, 1], 0.5);
        assert!((v[0] - 1.0).abs() < 1e-15);
        assert!((v[1] + 0.15).abs() < 1e-15);
    }

    #[test]
    fn group_lasso_kills_small_groups() {
        let reg = GroupLasso::uniform(1.0, 4, 2);
        let mut v = vec![0.1, 0.1, 3.0, 4.0];
        reg.prox_block(&mut v, &[0, 1, 2, 3], 1.0);
        // group 0 has norm 0.141 < 1.0 => zeroed; group 1 has norm 5 => shrunk by 1/5
        assert_eq!(&v[..2], &[0.0, 0.0]);
        assert!((v[2] - 3.0 * 0.8).abs() < 1e-12);
        assert!((v[3] - 4.0 * 0.8).abs() < 1e-12);
    }

    #[test]
    fn values_are_correct() {
        let x = vec![3.0, -4.0, 0.0];
        assert_eq!(Lasso::new(2.0).value(&x), 14.0);
        let en = ElasticNet::new(0.5).value(&x);
        assert!((en - (0.5 * 25.0 + 0.5 * 7.0)).abs() < 1e-12);
        let gl = GroupLasso::uniform(1.0, 3, 3).value(&x); // single group
        assert!((gl - 5.0).abs() < 1e-12);
    }

    #[test]
    fn aligned_blocks_derives_group_size_from_map() {
        assert_eq!(GroupLasso::uniform(0.5, 80, 4).aligned_blocks(), 4);
        assert_eq!(GroupLasso::uniform(0.5, 10, 4).aligned_blocks(), 4);
        assert_eq!(GroupLasso::uniform(0.5, 6, 1).aligned_blocks(), 1);
        // One short group: the derived size is the real group extent.
        assert_eq!(GroupLasso::uniform(0.5, 3, 8).aligned_blocks(), 3);
    }

    #[test]
    #[should_panic(expected = "uniform contiguous groups")]
    fn aligned_blocks_rejects_non_uniform_groups() {
        GroupLasso::new(0.5, vec![0, 0, 1, 1, 1], 2).aligned_blocks();
    }

    #[test]
    #[should_panic(expected = "uniform contiguous groups")]
    fn aligned_blocks_rejects_non_contiguous_groups() {
        GroupLasso::new(0.5, vec![0, 1, 0, 1], 2).aligned_blocks();
    }

    #[test]
    fn lasso_prox_zero_lambda_is_identity() {
        let reg = Lasso::new(0.0);
        let mut v = vec![1.0, -2.0];
        reg.prox_block(&mut v, &[0, 1], 10.0);
        assert_eq!(v, vec![1.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_lambda_rejected() {
        Lasso::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn elastic_net_lambda_out_of_range_rejected() {
        ElasticNet::new(1.5);
    }
}
