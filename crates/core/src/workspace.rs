//! Reusable kernel buffers for the SA solver hot path.
//!
//! Every outer iteration of the SA solvers needs the same scratch: the
//! selection vector, the sampled Gram matrix and its scatter workspace,
//! the cross-product matrix, the θ/Δ recurrence vectors, the µ-wide
//! proximal candidate block, and (in the distributed solvers) the packed
//! allreduce payload. Allocating them fresh each iteration costs ~22
//! `vec!`/`with_capacity` sites across the seq/sim/net solvers; a
//! [`KernelWorkspace`] owns all of them once per solve, and the `_into`
//! kernel variants in `sparsela` reuse them across iterations.
//!
//! Reuse never changes numerics: every `_into` kernel writes exactly the
//! values its allocating counterpart returns (pinned bitwise by tests in
//! `sparsela::gram`), so solvers using the workspace remain bit-identical
//! to the original allocating code.

use sparsela::{DenseMatrix, GramWorkspace};

/// Per-solve scratch buffers shared by all SA solver hot loops. Created
/// once at solve entry; every buffer is cleared/reshaped (never shrunk)
/// each outer iteration, so steady-state iterations allocate nothing.
#[derive(Clone, Debug)]
pub struct KernelWorkspace {
    /// Scatter buffers for the sparse Gram kernels — including the
    /// 64-byte-aligned interleaved buffer the `sparsela::simd` sampled
    /// Gram scatters into, so the SA hot loop's SIMD path gets aligned
    /// scratch for free by carrying this workspace across iterations.
    pub(crate) gram_ws: GramWorkspace,
    /// The sampled Gram matrix `G = YᵀY` (local contribution on the mesh).
    pub(crate) gram: DenseMatrix,
    /// The allreduced global Gram block (mesh ranks only).
    pub(crate) gram_global: DenseMatrix,
    /// The cross products `Yᵀ[v …]`.
    pub(crate) cross: DenseMatrix,
    /// The µ×µ diagonal Lipschitz block of the inner loop — scratch: λmax
    /// rotates it in place.
    pub(crate) gjj: DenseMatrix,
    /// The s·µ selected coordinates of the outer iteration.
    pub(crate) sel: Vec<usize>,
    /// The Δx/Δz recurrence coefficients, flat s·µ.
    pub(crate) deltas: Vec<f64>,
    /// The θ sequence (accelerated solvers) or step history (SVM).
    pub(crate) thetas: Vec<f64>,
    /// The µ-wide proximal candidate block.
    pub(crate) cand: Vec<f64>,
    /// The eq. (3) correction coefficients of one inner iteration, one per
    /// earlier sub-block.
    pub(crate) coefs: Vec<f64>,
    /// Packed symmetric-Gram + cross allreduce payload (mesh ranks).
    pub(crate) pack: Vec<f64>,
    /// Double-buffered selection for the *next* outer iteration, sampled
    /// while the current fused allreduce is in flight (`B::OVERLAPS`).
    pub(crate) sel_next: Vec<usize>,
    /// Double-buffered local Gram for the next outer iteration, formed in
    /// the same overlap window and swapped into `gram` at block entry.
    pub(crate) gram_next: DenseMatrix,
    /// Double-buffered cross/tile block for the next outer iteration
    /// (kernel family: the missed kernel-row dots), same overlap window.
    pub(crate) cross_next: DenseMatrix,
}

impl Default for KernelWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelWorkspace {
    /// An empty workspace; every buffer grows to its steady-state size on
    /// the first outer iteration and is reused thereafter.
    pub fn new() -> Self {
        KernelWorkspace {
            gram_ws: GramWorkspace::new(),
            gram: DenseMatrix::zeros(0, 0),
            gram_global: DenseMatrix::zeros(0, 0),
            cross: DenseMatrix::zeros(0, 0),
            gjj: DenseMatrix::zeros(0, 0),
            sel: Vec::new(),
            deltas: Vec::new(),
            thetas: Vec::new(),
            cand: Vec::new(),
            coefs: Vec::new(),
            pack: Vec::new(),
            sel_next: Vec::new(),
            gram_next: DenseMatrix::zeros(0, 0),
            cross_next: DenseMatrix::zeros(0, 0),
        }
    }

    /// Reset the per-outer-iteration buffers (`sel`, `pack`) and size the
    /// recurrence vectors for a block of `len` inner iterations, zeroed.
    pub(crate) fn begin_block(&mut self, len: usize) {
        self.sel.clear();
        self.pack.clear();
        self.deltas.clear();
        self.deltas.resize(len, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_block_zeroes_deltas_and_clears_selection() {
        let mut ws = KernelWorkspace::new();
        ws.sel.extend([3usize, 1, 4]);
        ws.pack.push(2.5);
        ws.begin_block(4);
        ws.deltas[2] = 9.0;
        ws.begin_block(6);
        assert!(ws.sel.is_empty());
        assert!(ws.pack.is_empty());
        assert_eq!(ws.deltas, vec![0.0; 6]);
    }
}
