//! The dual linear SVM family as a [`FamilySpec`] (Algorithms 3/4).
//!
//! One spec covers classical dual coordinate descent (`cfg.s = 1`) and
//! the s-step SA unrolling (eqs. (14)–(15)); the [`ExecBackend`] selects
//! the engine. α is maintained in place, so `α[i_j]` carries eq. (14)'s β.
//! The block skeleton lives in [`super::driver::drive`]; every float
//! expression below is verbatim from the per-engine solvers (bitwise).

use super::charges;
use super::driver::{drive, Block, Cx, FamilySpec, Schedule};
use super::ExecBackend;
use crate::config::{SvmConfig, SvmLoss};
use crate::problem::SvmProblem;
use crate::seq::svm::projected_step;
use crate::trace::{ConvergenceTrace, SolveResult};
use sparsela::gram::sampled_cross_into;
use sparsela::SliceSource;
use std::ops::ControlFlow;
use xrng::{rng_from_seed, Rng};

/// Per-solve SVM state: the dual iterate, the primal accumulator `x`
/// (local columns on the distributed engine), the gap trace and its
/// held reduction buffer.
struct SvmSpec<'p> {
    b: &'p [f64],
    cfg: &'p SvmConfig,
    prob: SvmProblem,
    m: usize,
    alpha: Vec<f64>,
    x: Vec<f64>,
    trace: ConvergenceTrace,
    gap_buf: Vec<f64>,
}

impl SvmSpec<'_> {
    /// Duality gap through the backend's reduction: identical arithmetic
    /// to `SvmProblem::duality_gap` whether the
    /// [`SliceSource::major_spmv_into`] margins are already global or
    /// per-rank contributions fused with ‖x‖² in one buffer (and bitwise
    /// equal for in-memory and streamed sources).
    fn gap<'r, B: ExecBackend<'r>, M: SliceSource>(&mut self, backend: &mut B, a: &M) -> f64 {
        let m = a.major_len();
        let buf = &mut self.gap_buf;
        buf.clear();
        buf.resize(m, 0.0);
        a.major_spmv_into(&self.x, buf);
        buf.push(sparsela::vecops::nrm2_sq(&self.x));
        backend.gap_reduce(buf, m);
        let x_sq = buf.pop().expect("norm element");
        let prob = &self.prob;
        let loss_sum: f64 = buf
            .iter()
            .zip(self.b)
            .map(|(margin, bi)| {
                let xi = (1.0 - bi * margin).max(0.0);
                match prob.loss {
                    SvmLoss::L1 => xi,
                    SvmLoss::L2 => xi * xi,
                }
            })
            .sum();
        let primal = 0.5 * x_sq + prob.lambda * loss_sum;
        let alpha = &self.alpha;
        let dual = 0.5 * (x_sq + prob.gamma() * sparsela::vecops::nrm2_sq(alpha))
            - alpha.iter().sum::<f64>();
        primal + dual
    }
}

impl<'r, 'p, B, M> FamilySpec<'r, B, M> for SvmSpec<'p>
where
    B: ExecBackend<'r>,
    M: SliceSource + Sync,
{
    fn sample(&mut self, rng: &mut Rng, s_block: usize, out: &mut Vec<usize>) {
        out.extend((0..s_block).map(|_| rng.next_index(self.m)));
    }

    fn state_cross(&mut self, cx: Cx<'_, B, M>, s_block: usize) {
        // x′ = Yᵀ·x_sk needs the current iterate — never overlapped.
        sampled_cross_into(cx.a, &cx.ws.sel, &[&self.x], &mut cx.ws.cross);
        cx.bk.charge_cross(&cx.ws.sel, s_block, 1);
    }

    fn after_exchange(&mut self, cx: Cx<'_, B, M>, blk: Block, _rg: Option<f64>) {
        // γIₛ joins after the exchange: the regularizer term is replicated,
        // not a matrix product, so it must not be summed across ranks.
        let gamma = self.prob.gamma();
        for j in 0..blk.s {
            cx.ws.gram.set(j, j, cx.ws.gram.get(j, j) + gamma);
        }
        cx.ws.thetas.clear();
        cx.ws.thetas.resize(blk.s, 0.0);
    }

    fn inner(&mut self, cx: Cx<'_, B, M>, s_block: usize, h: &mut usize) -> ControlFlow<()> {
        let (cfg, ws) = (self.cfg, &mut *cx.ws);
        let (gamma, nu) = (self.prob.gamma(), self.prob.nu());
        for j in 1..=s_block {
            let i = ws.sel[j - 1];
            let beta = self.alpha[i];
            let eta = ws.gram.get(j - 1, j - 1);
            // eq. (15): gradient from x′ and Gram corrections.
            let mut g = self.b[i] * ws.cross.get(j - 1, 0) - 1.0 + gamma * beta;
            for t in 1..j {
                if ws.thetas[t - 1] != 0.0 {
                    g += ws.thetas[t - 1]
                        * self.b[i]
                        * self.b[ws.sel[t - 1]]
                        * ws.gram.get(j - 1, t - 1);
                }
            }
            let theta = projected_step(beta, g, eta, nu);
            ws.thetas[j - 1] = theta;
            cx.bk.charge_prox(
                charges::ITER_OVERHEAD_FLOPS + 8 + charges::sa_correction_flops(j as u64, 1),
                (s_block * s_block) as u64,
            );
            if theta != 0.0 {
                self.alpha[i] += theta;
                cx.a.slice(i).axpy_into(theta * self.b[i], &mut self.x);
                cx.bk.charge_svm_update(i);
            }
            *h += 1;
            if B::TRACE_INNER
                && ((cfg.trace_every > 0 && h.is_multiple_of(cfg.trace_every))
                    || *h == cfg.max_iters)
            {
                let gap = self.gap(cx.bk, cx.a);
                self.trace.push(*h, gap, 0.0);
                if let Some(tol) = cfg.gap_tol {
                    if gap <= tol {
                        return ControlFlow::Break(());
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    fn end_block(&mut self, cx: Cx<'_, B, M>, blk: Block) -> ControlFlow<()> {
        if !B::TRACE_INNER {
            let (cfg, h) = (self.cfg, blk.h);
            let traced = cfg.trace_every > 0
                && ((h - blk.s) / cfg.trace_every != h / cfg.trace_every || h >= cfg.max_iters);
            if traced {
                let gap = self.gap(cx.bk, cx.a);
                self.trace
                    .push_with_phases(h, gap, cx.bk.clock(), cx.bk.phases());
                if let Some(tol) = cfg.gap_tol {
                    if gap <= tol {
                        return ControlFlow::Break(());
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// Solve the dual SVM problem on backend `B`.
///
/// `a`/`b` are the full problem for replicated engines; for the
/// distributed engine `a` is this rank's column block (`x` stays local,
/// `α` and `b` are replicated across ranks).
pub(crate) fn svm_family<'r, B: ExecBackend<'r>, M: SliceSource + Sync>(
    a: &M,
    b: &[f64],
    cfg: &SvmConfig,
    backend: &mut B,
) -> SolveResult {
    cfg.validate();
    let m = a.major_len();
    assert_eq!(b.len(), m, "label length mismatch");
    debug_assert!(
        b.iter().all(|&v| v == 1.0 || v == -1.0),
        "labels must be ±1"
    );
    let mut rng = rng_from_seed(cfg.seed);

    let mut spec = SvmSpec {
        b,
        cfg,
        prob: SvmProblem::new(cfg.loss, cfg.lambda),
        m,
        alpha: vec![0.0f64; m],
        x: vec![0.0f64; a.minor_len()],
        trace: ConvergenceTrace::for_run(cfg.max_iters, cfg.trace_every),
        gap_buf: Vec::with_capacity(m + 1),
    };

    let gap0 = spec.gap(backend, a);
    if B::TRACE_INNER {
        spec.trace.push(0, gap0, 0.0);
    } else {
        spec.trace
            .push_with_phases(0, gap0, backend.clock(), backend.phases());
    }

    // One workspace per solve: Gram/cross/selection buffers are reused
    // across outer iterations (numerics untouched — the `_into` kernels
    // are bitwise identical to their allocating counterparts).
    let mut ws = crate::workspace::KernelWorkspace::new();
    let sched = Schedule {
        max_iters: cfg.max_iters,
        s: cfg.s,
    };
    let h = drive(a, sched, &mut rng, &mut ws, backend, &mut spec);

    let last = spec.trace.points().last().expect("nonempty").iter;
    if !B::TRACE_INNER && (spec.trace.len() < 2 || last < h) {
        let gap = spec.gap(backend, a);
        spec.trace
            .push_with_phases(h, gap, backend.clock(), backend.phases());
    }
    let SvmSpec { x, trace, .. } = spec;
    SolveResult { x, trace, iters: h }
}
