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
    /// Selections a streamed solve without an overlap window drew ahead
    /// of the current block (`exec::driver`'s lookahead).
    pub(crate) ahead: Lookahead,
}

/// The most selections a streamed solve without an overlap window draws
/// ahead of the block it computes. Each is announced to the source once,
/// when drawn (`SliceSource::foresee`), so a bounded shard cache evicts
/// the shard whose next use is furthest away rather than the least
/// recently used one. An offline model of `lasso_stream` (4 096 shards, a
/// budget of a quarter of the disk bytes, s·µ = 256) puts the reads of a
/// 16-block window at 24 592, of a 32-block one at 22 745 — what knowing
/// the whole future gives — against LRU's 42 541 (docs/PERFORMANCE.md,
/// "Out-of-core streaming"). The window costs 32 held selections.
pub(crate) const FORESIGHT: usize = 32;

/// The most drawn-ahead selections pinned by a prefetch and not yet
/// claimed: the oldest of the [`FORESIGHT`] ring are offered to
/// `SliceSource::prefetch`, in block order, up to this many. One block of
/// loads takes about as long as one block of compute, so a single block
/// ahead turns any jitter into a stall; four absorb it. The resident
/// budget usually sets the depth first: a selection whose shards do not
/// fit beside the pinned set waits in the ring, not prefetched, until
/// they do or its block comes.
pub(crate) const LOOKAHEAD: usize = 4;

/// A ring of up to [`FORESIGHT`] drawn-ahead selections in held buffers,
/// oldest first.
#[derive(Clone, Debug, Default)]
pub(crate) struct Lookahead {
    sels: [Vec<usize>; FORESIGHT],
    /// Slot of the oldest selection.
    head: usize,
    /// Selections drawn (and announced) and not yet taken.
    pub(crate) len: usize,
    /// How many of them, oldest first, the source took for prefetch.
    pub(crate) prefetched: usize,
    /// Inner iterations covered by every block drawn so far.
    pub(crate) drawn: usize,
}

impl Lookahead {
    /// Forget every drawn selection (a solve that broke off early leaves
    /// some behind).
    pub(crate) fn reset(&mut self) {
        (self.head, self.len, self.prefetched, self.drawn) = (0, 0, 0, 0);
    }

    /// Swap the oldest drawn selection into `sel`, which must be empty;
    /// `false` when nothing is drawn.
    pub(crate) fn take_into(&mut self, sel: &mut Vec<usize>) -> bool {
        if self.len == 0 {
            return false;
        }
        std::mem::swap(sel, &mut self.sels[self.head]);
        self.head = (self.head + 1) % FORESIGHT;
        self.len -= 1;
        self.prefetched = self.prefetched.saturating_sub(1);
        true
    }

    /// The `i`-th drawn selection, oldest first.
    pub(crate) fn get(&self, i: usize) -> &[usize] {
        debug_assert!(i < self.len);
        &self.sels[(self.head + i) % FORESIGHT]
    }

    /// A cleared buffer behind the newest selection, counted as drawn;
    /// `None` when the ring is full.
    pub(crate) fn push(&mut self) -> Option<&mut Vec<usize>> {
        if self.len == FORESIGHT {
            return None;
        }
        let sel = &mut self.sels[(self.head + self.len) % FORESIGHT];
        self.len += 1;
        sel.clear();
        Some(sel)
    }
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
            ahead: Lookahead::default(),
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
