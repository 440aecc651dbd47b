//! Solver configuration types.

/// Which hinge loss the SVM uses (§V eq. 11; naming follows the paper's
/// SVM-L1 / SVM-L2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SvmLoss {
    /// `max(1 − bᵢAᵢx, 0)` — the non-smooth hinge.
    L1,
    /// `max(1 − bᵢAᵢx, 0)²` — the smoothed (squared) hinge.
    L2,
}

/// How the solvers draw their µ coordinates each iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockSampling {
    /// µ coordinates uniformly without replacement (Alg. 1 line 5) —
    /// the paper's scheme and the default.
    Coordinates,
    /// Whole contiguous groups of the given size, so that a sampled block
    /// is a union of groups. Required for the Group Lasso proximal
    /// operator to be exact (µ must be a multiple of `group_size`, and the
    /// feature count a multiple too).
    AlignedGroups {
        /// Size of each contiguous group.
        group_size: usize,
    },
}

fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// The two conditions every family shares.
fn check_budget(s: usize, max_iters: usize) -> Result<(), String> {
    ensure(s >= 1, || "unrolling parameter s must be ≥ 1".into())?;
    ensure(max_iters >= 1, || "need at least one iteration".into())
}

/// The dual families' invariants: λ > 0 and a valid budget.
fn check_dual(lambda: f64, s: usize, max_iters: usize) -> Result<(), String> {
    ensure(lambda > 0.0, || "lambda must be positive".into())?;
    check_budget(s, max_iters)
}

/// Configuration for the proximal least-squares solvers (CD/BCD/accCD/
/// accBCD and their SA variants).
#[derive(Clone, Debug)]
pub struct LassoConfig {
    /// Block size µ (µ = 1 gives CD / accCD).
    pub mu: usize,
    /// Recurrence-unrolling depth `s` (used by the SA solvers; `s = 1`
    /// makes an SA solver coincide with its classical counterpart).
    pub s: usize,
    /// Regularization weight λ (kept here for convenience; the regularizer
    /// object is authoritative for the penalty actually applied).
    pub lambda: f64,
    /// RNG seed. SA correctness requires the same seed on all ranks.
    pub seed: u64,
    /// Iteration budget H.
    pub max_iters: usize,
    /// Record a trace point every this many iterations (0 = only first and
    /// last).
    pub trace_every: usize,
    /// Optional termination: stop when the objective improves by less than
    /// this relative amount between consecutive trace points.
    pub rel_tol: Option<f64>,
    /// Coordinate-sampling scheme (see [`BlockSampling`]).
    pub sampling: BlockSampling,
}

impl Default for LassoConfig {
    fn default() -> Self {
        Self {
            mu: 1,
            s: 1,
            lambda: 0.1,
            seed: 42,
            max_iters: 1000,
            trace_every: 10,
            rel_tol: None,
            sampling: BlockSampling::Coordinates,
        }
    }
}

impl LassoConfig {
    /// Check invariants against a problem of `n` features: µ in `1..=n`,
    /// `s ≥ 1`, a nonzero budget, and group-aligned sampling compatible
    /// with µ and `n`. The message names the violated condition.
    pub fn check(&self, n: usize) -> Result<(), String> {
        ensure(self.mu >= 1, || "block size µ must be ≥ 1".into())?;
        ensure(self.mu <= n, || {
            format!("block size µ = {} exceeds feature count {n}", self.mu)
        })?;
        check_budget(self.s, self.max_iters)?;
        if let BlockSampling::AlignedGroups { group_size } = self.sampling {
            ensure(group_size >= 1, || "group size must be ≥ 1".into())?;
            ensure(self.mu.is_multiple_of(group_size), || {
                format!(
                    "µ = {} is not a multiple of the group size {group_size}",
                    self.mu
                )
            })?;
            ensure(n.is_multiple_of(group_size), || {
                format!("feature count {n} is not a multiple of the group size {group_size}")
            })?;
        }
        Ok(())
    }

    /// [`Self::check`] for callers whose config is program-built.
    ///
    /// # Panics
    /// Panics with the `check` message on a violated invariant.
    pub fn validate(&self, n: usize) {
        self.check(n).unwrap_or_else(|e| panic!("{e}"));
    }

    /// The paper's `q = ⌈n/µ⌉` (Alg. 1 line 3).
    pub fn q(&self, n: usize) -> f64 {
        (n as f64 / self.mu as f64).ceil()
    }
}

/// Configuration for the dual SVM solvers (Alg. 3 / Alg. 4).
#[derive(Clone, Debug)]
pub struct SvmConfig {
    /// Which hinge loss.
    pub loss: SvmLoss,
    /// Penalty λ (the paper sets λ = 1 in §VI).
    pub lambda: f64,
    /// Recurrence-unrolling depth `s` for SA-SVM.
    pub s: usize,
    /// RNG seed (replicated on all ranks).
    pub seed: u64,
    /// Iteration budget H.
    pub max_iters: usize,
    /// Record the duality gap every this many iterations (0 = only first
    /// and last). Gap evaluation costs an SpMV, so keep it coarse.
    pub trace_every: usize,
    /// Optional termination on duality gap (Table V uses 1e-1).
    pub gap_tol: Option<f64>,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self {
            loss: SvmLoss::L1,
            lambda: 1.0,
            s: 1,
            seed: 42,
            max_iters: 10_000,
            trace_every: 500,
            gap_tol: None,
        }
    }
}

impl SvmConfig {
    /// Check invariants: λ > 0, `s ≥ 1`, a nonzero iteration budget.
    pub fn check(&self) -> Result<(), String> {
        check_dual(self.lambda, self.s, self.max_iters)
    }

    /// [`Self::check`] for callers whose config is program-built.
    ///
    /// # Panics
    /// Panics with the `check` message on a violated invariant.
    pub fn validate(&self) {
        self.check().unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Which dual problem the kernel family solves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KdcdTask {
    /// Kernel SVM dual (K-DCD): box-constrained coordinate descent on
    /// `½αᵀQα − 1ᵀα + (γ/2)‖α‖²`, `Q = diag(b)·K·diag(b)` — the kernel
    /// analogue of [`SvmConfig`]'s Algorithms 3/4. Labels must be ±1.
    Svm(SvmLoss),
    /// Kernel ridge regression dual (K-BDCD): unconstrained coordinate
    /// descent on `½αᵀ(K + λI)α − bᵀα`, targets `b` arbitrary.
    Ridge,
}

/// Configuration for the kernel dual coordinate-descent family
/// (K-DCD / K-BDCD): s-step kernel SVM and kernel ridge on any engine.
#[derive(Clone, Debug)]
pub struct KdcdConfig {
    /// Which dual problem (kernel SVM or kernel ridge).
    pub task: KdcdTask,
    /// The kernel function (linear / polynomial / RBF).
    pub kernel: sparsela::KernelFn,
    /// Penalty λ — the SVM hinge penalty or the ridge regularizer.
    pub lambda: f64,
    /// Recurrence-unrolling depth `s` (1 = classical K-DCD).
    pub s: usize,
    /// RNG seed (replicated on all ranks).
    pub seed: u64,
    /// Iteration budget H. The kernel family runs the full budget — the
    /// dual objective is traced at block boundaries, never tested for
    /// early exit, so every engine executes the same schedule.
    pub max_iters: usize,
    /// Record the dual objective every this many iterations, rounded to
    /// block boundaries (0 = only first and last).
    pub trace_every: usize,
    /// Byte budget for the kernel-row cache (`sparsela::KernelCache`);
    /// soft under pinning, at least one row.
    pub cache_budget_bytes: usize,
}

impl Default for KdcdConfig {
    fn default() -> Self {
        Self {
            task: KdcdTask::Svm(SvmLoss::L1),
            kernel: sparsela::KernelFn::Rbf { gamma: 1.0 },
            lambda: 1.0,
            s: 1,
            seed: 42,
            max_iters: 10_000,
            trace_every: 500,
            cache_budget_bytes: 64 << 20,
        }
    }
}

impl KdcdConfig {
    /// Check invariants: λ > 0, `s ≥ 1`, a nonzero iteration budget.
    pub fn check(&self) -> Result<(), String> {
        check_dual(self.lambda, self.s, self.max_iters)
    }

    /// [`Self::check`] for callers whose config is program-built.
    ///
    /// # Panics
    /// Panics with the `check` message on a violated invariant.
    pub fn validate(&self) {
        self.check().unwrap_or_else(|e| panic!("{e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        LassoConfig::default().validate(10);
        SvmConfig::default().validate();
        KdcdConfig::default().validate();
    }

    #[test]
    fn q_is_ceiling() {
        let cfg = LassoConfig {
            mu: 8,
            ..Default::default()
        };
        assert_eq!(cfg.q(64), 8.0);
        assert_eq!(cfg.q(65), 9.0);
    }

    #[test]
    #[should_panic(expected = "exceeds feature count")]
    fn mu_too_large_rejected() {
        LassoConfig {
            mu: 11,
            ..Default::default()
        }
        .validate(10);
    }

    #[test]
    #[should_panic(expected = "s must be")]
    fn zero_s_rejected() {
        LassoConfig {
            s: 0,
            ..Default::default()
        }
        .validate(10);
    }
}
