//! Shared flop-charging formulas for the distributed and simulated solvers.
//!
//! Both execution engines must charge identical costs for identical work,
//! or the cross-engine validation tests (and the credibility of the
//! paper-scale figures) collapse. Every formula lives here once, and so
//! does every charge *site*: a `Site` states what one of the solver
//! families' charge points costs — kernel class, telemetry phase, and
//! `(flops, working set)` as a function of the charged rank's nonzeros.
//! The engines only decide where that nnz comes from and which ledger(s)
//! receive the charge (`SimBackend::charge` / `DistBackend::charge` in
//! `exec/backends.rs`).
//!
//! Conventions: `nnz` arguments are the *local* (per-rank) nonzero counts
//! of the sampled columns/rows; `width` is the total sampled block width
//! (`µ` per iteration classically, `sµ` for an SA outer iteration).

use mpisim::telemetry::Phase;
use mpisim::KernelClass;

/// One charge site of the solver families: the kernel class it is priced
/// under, the telemetry phase it is attributed to, and what a rank
/// holding `nnz` of the site's nonzeros pays, as
/// `(flops, working-set words)`.
pub(crate) struct Site<F: Fn(u64) -> (u64, u64)> {
    pub class: KernelClass,
    pub phase: Phase,
    pub cost: F,
}

/// Flops a rank spends building its local contribution to the `width ×
/// width` Gram matrix by scatter-dot over the sampled slices, upper
/// triangle only (footnote 3).
///
/// Derivation: the slice at triangle position `b` pays `2·nnz_b` for its
/// `norm_sq` diagonal plus `2·nnz_b` per pair-dot against each of the `b`
/// earlier scattered slices — `2·nnz_b·(b+1)` in total. Summed over the
/// block with position-averaged density that is `nnz_local·(width+1)`,
/// exactly half (plus the diagonal) of the `2·width·nnz_local` full
/// rectangular product — the footnote-3 2× triangle saving. The exact
/// per-slice form lives in `sparsela::gram::gram_flops`; the two agree
/// identically for uniform slice density (pinned by tests on both sides).
pub fn gram_flops(local_nnz: u64, width: u64) -> u64 {
    (width + 1) * local_nnz
}

/// Flops for the cross products `Yᵀ[v₁ … v_k]`: `2 · k · nnz_local`.
pub fn cross_flops(local_nnz: u64, nvecs: u64) -> u64 {
    2 * nvecs * local_nnz
}

/// Fixed per-inner-iteration CPU overhead in flop-equivalents: RNG draws,
/// index bookkeeping, the proximal/projection control flow — work a real
/// implementation pays per iteration regardless of s (≈12 µs at the vector
/// rate). This is what caps the *total* SA speedup below the raw
/// communication speedup, as in the paper's Fig. 4e–h.
pub const ITER_OVERHEAD_FLOPS: u64 = 25_000;

/// Fixed per-communication-round CPU overhead in flop-equivalents: buffer
/// packing/unpacking, kernel-call setup, MPI invocation (≈7 µs at the
/// vector rate). SA methods pay this once per `s` iterations — the source
/// of their *computation* speedup beyond the BLAS-3 Gram effect ("selecting
/// s columns ... is more cache-efficient than computing s individual
/// dot-products", §IV-B).
pub const OUTER_OVERHEAD_FLOPS: u64 = 15_000;

/// Flops for the replicated per-iteration subproblem: λmax of a µ×µ block
/// (Jacobi sweeps ≈ 25µ³) plus the proximal step, scalar updates, and the
/// fixed per-iteration overhead.
pub fn subproblem_flops(mu: u64) -> u64 {
    25 * mu * mu * mu + 12 * mu + ITER_OVERHEAD_FLOPS
}

/// Flops for the vector updates after one inner iteration: the local
/// residual-image updates (`z̃ / ỹ` axpys over the selected columns'
/// local nonzeros, 2 vectors × 2 ops) plus the replicated `z/y` updates.
pub fn lasso_update_flops(local_sel_nnz: u64, mu: u64) -> u64 {
    4 * local_sel_nnz + 6 * mu
}

/// Flops for the SVM inner-iteration update: local `x` axpy over the
/// sampled row's local nonzeros plus O(1) scalar work.
pub fn svm_update_flops(local_row_nnz: u64) -> u64 {
    2 * local_row_nnz + 8
}

/// Flops for reconstructing one inner iteration's gradient from the Gram
/// matrix inside an SA block: iteration `j` touches `(j−1)·µ²` Gram entries
/// (Lasso) or `j−1` entries (SVM, µ = 1).
pub fn sa_correction_flops(j: u64, mu: u64) -> u64 {
    2 * (j.saturating_sub(1)) * mu * mu
}

/// Kernel class of the Gram/cross computation: a width-1 sample is a plain
/// dot product (BLAS-1); wider samples batch into a BLAS-3-like kernel
/// with data reuse across the `width²` pairs — the effect behind the SA
/// methods' computation speedups (Fig. 4e–h: "computing the s² entries of
/// the Gram matrix ... is more cache-efficient (uses a BLAS-3 routine)
/// than computing s individual dot-products").
pub fn gram_class(width: u64) -> KernelClass {
    if width <= 1 {
        KernelClass::Dot
    } else {
        KernelClass::SparseGemm
    }
}

/// Working-set words of the Gram kernel: the `width²` output plus the
/// gathered slices. When this exceeds the cost model's cache capacity the
/// flop rate degrades — the "once s becomes too large we see slowdowns"
/// effect of §IV-B.
pub fn gram_working_set(width: u64, local_nnz: u64) -> u64 {
    width * width + 2 * local_nnz
}

impl<F: Fn(u64) -> (u64, u64)> Site<F> {
    fn new(class: KernelClass, phase: Phase, cost: F) -> Self {
        Self { class, phase, cost }
    }
}

/// Local Gram formation over sampled slices holding `nnz` local nonzeros.
pub(crate) fn gram(width: u64) -> Site<impl Fn(u64) -> (u64, u64)> {
    Site::new(gram_class(width), Phase::Gram, move |nnz| {
        (gram_flops(nnz, width), gram_working_set(width, nnz))
    })
}

/// The cross products `Yᵀ[v₁ … v_nvecs]` over the same sampled slices.
pub(crate) fn cross(width: u64, nvecs: u64) -> Site<impl Fn(u64) -> (u64, u64)> {
    Site::new(gram_class(width), Phase::Gram, move |nnz| {
        (cross_flops(nnz, nvecs), gram_working_set(width, nnz))
    })
}

/// Replicated vector-class work every rank executes identically (the
/// subproblem solve, objective assembly, fixed software overheads): the
/// cost is independent of the rank's data.
pub(crate) fn replicated(phase: Phase, flops: u64, ws: u64) -> Site<impl Fn(u64) -> (u64, u64)> {
    Site::new(KernelClass::Vector, phase, move |_| (flops, ws))
}

/// The residual-norm contribution at a trace boundary: `factor` flops per
/// row of the rank's partition (the site's "nnz" is its row count).
pub(crate) fn trace_prep(factor: u64) -> Site<impl Fn(u64) -> (u64, u64)> {
    Site::new(KernelClass::Vector, Phase::Comp, move |rows| {
        (factor * rows, rows)
    })
}

/// The Lasso vector updates over an inner block's columns (`halve` for
/// the non-accelerated single-sequence update).
pub(crate) fn lasso_update(mu: u64, halve: bool) -> Site<impl Fn(u64) -> (u64, u64)> {
    let div = if halve { 2 } else { 1 };
    Site::new(KernelClass::Vector, Phase::Comp, move |nnz| {
        (lasso_update_flops(nnz, mu) / div, nnz + mu)
    })
}

/// The SVM `x` axpy over the sampled row's local nonzeros.
pub(crate) fn svm_update() -> Site<impl Fn(u64) -> (u64, u64)> {
    Site::new(KernelClass::Vector, Phase::Comp, |nnz| {
        (svm_update_flops(nnz), nnz)
    })
}

/// `passes` SpMVs over the rank's whole block (`2·nnz` flops each) against
/// a replicated length-`m` vector, attributed to `phase`: the kernel
/// family's tile pass (one per cache miss, `gram`), the SVM duality-gap
/// margins and the RBF row norms (one pass, `comp`).
pub(crate) fn block_spmv(phase: Phase, passes: u64, m: u64) -> Site<impl Fn(u64) -> (u64, u64)> {
    Site::new(KernelClass::Dot, phase, move |nnz| (2 * passes * nnz, m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_scale_linearly_in_nnz() {
        assert_eq!(gram_flops(100, 8), 900);
        assert_eq!(gram_flops(200, 8), 1800);
        assert_eq!(cross_flops(100, 2), 400);
        assert_eq!(lasso_update_flops(50, 4), 224);
        assert_eq!(svm_update_flops(30), 68);
    }

    #[test]
    fn gram_charge_reflects_the_triangle_saving() {
        // The upper-triangle charge must be ≈ half the full rectangular
        // product 2·width·nnz, and agree exactly with the per-slice
        // formula in sparsela for uniform slice density:
        //   Σ_b 2·nnz_b·(b+1) = 2ν·width(width+1)/2 = ν·width·(width+1)
        //                     = local_nnz·(width+1).
        let (nnz, width) = (4000u64, 32u64);
        let triangle = gram_flops(nnz, width);
        let full = 2 * width * nnz;
        assert_eq!(triangle, nnz * (width + 1));
        assert!(triangle * 2 > full, "diagonal pushes just past half");
        assert!(triangle < full * 11 / 20, "within ~10% of half");
        // Uniform per-slice density ν = nnz/width: the sparsela-side sum.
        let nu = nnz / width;
        let per_slice: u64 = (0..width).map(|b| 2 * nu * (b + 1)).sum();
        assert_eq!(per_slice, triangle);
    }

    #[test]
    fn sa_correction_grows_with_inner_index() {
        assert_eq!(sa_correction_flops(1, 4), 0);
        assert!(sa_correction_flops(5, 4) > sa_correction_flops(2, 4));
    }

    #[test]
    fn class_switches_at_width_one() {
        assert_eq!(gram_class(1), KernelClass::Dot);
        assert_eq!(gram_class(2), KernelClass::SparseGemm);
        assert_eq!(gram_class(512), KernelClass::SparseGemm);
    }

    #[test]
    fn working_set_includes_gram_output() {
        assert!(gram_working_set(64, 0) >= 64 * 64);
        assert!(gram_working_set(8, 1000) > gram_working_set(8, 10));
    }
}
