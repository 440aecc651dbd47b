//! The Lasso family as a [`FamilySpec`]: `accel` selects between the
//! accelerated two-sequence recurrence (eq. (3): `y`/`z` with implicit
//! iterate `x = θ²y + z`) and plain BCD (single sequence, `z` *is* `x`
//! and `ztilde` *is* the residual); `cfg.s` selects classical (`s = 1`)
//! versus s-step SA unrolling (Algorithms 1/2); the [`ExecBackend`]
//! selects the engine. The block skeleton lives in
//! [`super::driver::drive`]; every float expression below is transcribed
//! verbatim from the original per-engine solvers (bitwise-neutral).

use super::charges;
use super::driver::{drive, Block, Cx, FamilySpec, Schedule};
use super::ExecBackend;
use crate::config::LassoConfig;
use crate::problem::lasso_objective_from_residual;
use crate::prox::Regularizer;
use crate::seq::accbcd::implicit_objective;
use crate::seq::{block_lipschitz, theta_next};
use crate::trace::{ConvergenceTrace, SolveResult};
use crate::workspace::KernelWorkspace;
use sparsela::gram::sampled_cross_into;
use sparsela::SliceSource;
use std::ops::ControlFlow;
use xrng::{rng_from_seed, Rng};

/// `Σ (θ²·ỹ + z̃)²` — the implicit residual squared norm of eq. (3),
/// shared by the piggybacked and final trace contributions.
fn accel_resid_sq(ytilde: &[f64], ztilde: &[f64], t2: f64) -> f64 {
    ytilde
        .iter()
        .zip(ztilde)
        .map(|(yt, zt)| {
            let r = t2 * yt + zt;
            r * r
        })
        .sum()
}

/// Materialize the implicit accelerated iterate `x = θ²y + z`.
fn implicit_x(y: &[f64], z: &[f64], t2: f64) -> Vec<f64> {
    y.iter().zip(z).map(|(yi, zi)| t2 * yi + zi).collect()
}

/// `0..mu` cut into lane groups `(first row, width)`, widest first: eights,
/// then at most one 4, one 2 and one single row — the binary digits of
/// `mu % 8`.
fn lane_groups(mu: usize) -> impl Iterator<Item = (usize, usize)> {
    let tail = mu % 8;
    let mut a0 = mu - tail;
    let eights = (0..a0).step_by(8).map(|a| (a, 8));
    let rest = [4, 2, 1]
        .into_iter()
        .filter(move |w| tail & w != 0)
        .map(move |w| {
            let group = (a0, w);
            a0 += w;
            group
        });
    eights.chain(rest)
}

/// The contiguous run `G[bi][col .. col + L]` — by `G`'s bitwise symmetry,
/// lane `l`'s addend `G[col + l][bi]` for every lane of the group.
#[inline]
fn gram_lanes<const L: usize>(gram: &sparsela::DenseMatrix, bi: usize, col: usize) -> &[f64; L] {
    gram.row(bi)[col..col + L]
        .try_into()
        .expect("a lane group lies inside the block")
}

/// eq. (3)'s residual for all µ rows of sub-block `j` (1-based) of the
/// block: `out[ai] = θ²·ỹ′ + z̃′ − Σ_t coef_t·corr_t[ai]` over the earlier
/// sub-blocks `t < j`, where `corr_t[ai] = Σ_bi G[row][toff + bi]·Δ[toff + bi]`
/// from `+0.0`, `bi` ascending, and a `t` with `coef_t == 0` adds nothing.
///
/// Each row keeps exactly that chain; what changes is how the chains are
/// walked. `coef_t` depends on `t` alone, so it is computed once per `t`
/// (into `coefs`) rather than once per row, and the rows advance side by
/// side in lane groups of 8, 4, 2 and 1 ([`lane_groups`]): `G` is bitwise
/// symmetric (the sampled Gram mirrors its upper triangle, the exchange
/// unpacks one), so one contiguous run of `G` per `bi` feeds every lane's
/// chain, and the lanes are independent chains held in registers. µ = 1
/// has no rows to interleave and runs its one chain with no set-up.
fn accel_residuals(
    gram: &sparsela::DenseMatrix,
    cross: &sparsela::DenseMatrix,
    deltas: &[f64],
    thetas: &[f64],
    (q, j, mu): (f64, usize, usize),
    out: &mut Vec<f64>,
    coefs: &mut Vec<f64>,
) {
    let off = (j - 1) * mu;
    let t2 = thetas[j - 1] * thetas[j - 1];
    let coef = |tp: f64| t2 * (1.0 - q * tp) / (tp * tp) - 1.0;
    out.clear();
    if mu == 1 {
        let g = gram.row(off);
        let mut r = t2 * cross.get(off, 0) + cross.get(off, 1);
        for t in 1..j {
            let c = coef(thetas[t - 1]);
            if c != 0.0 {
                r -= c * (0.0 + g[t - 1] * deltas[t - 1]);
            }
        }
        out.push(r);
        return;
    }
    out.extend((off..off + mu).map(|row| t2 * cross.get(row, 0) + cross.get(row, 1)));
    coefs.clear();
    coefs.extend(thetas[..j - 1].iter().map(|&tp| coef(tp)));
    fn lanes<const L: usize>(
        gram: &sparsela::DenseMatrix,
        deltas: &[f64],
        coefs: &[f64],
        (col, mu): (usize, usize),
        r: &mut [f64],
    ) {
        let mut acc: [f64; L] = (&*r).try_into().expect("one lane per row");
        for (toff, &c) in (0..).step_by(mu).zip(coefs) {
            if c == 0.0 {
                continue;
            }
            let mut corr = [0.0; L];
            for (bi, &d) in (toff..).zip(&deltas[toff..toff + mu]) {
                let g = gram_lanes::<L>(gram, bi, col);
                for l in 0..L {
                    corr[l] += g[l] * d;
                }
            }
            for l in 0..L {
                acc[l] -= c * corr[l];
            }
        }
        r.copy_from_slice(&acc);
    }
    for (a0, w) in lane_groups(mu) {
        let (at, r) = ((off + a0, mu), &mut out[a0..a0 + w]);
        match w {
            8 => lanes::<8>(gram, deltas, coefs, at, r),
            4 => lanes::<4>(gram, deltas, coefs, at, r),
            2 => lanes::<2>(gram, deltas, coefs, at, r),
            _ => lanes::<1>(gram, deltas, coefs, at, r),
        }
    }
}

/// Plain SA-BCD's gradient for all µ rows of sub-block `j` (1-based):
/// `out[ai] = z̃′[row] + Σ_col G[row][col]·Δ[col]` over every earlier
/// column of the block, ascending — one chain per row, walked in lane
/// groups through `G`'s bitwise symmetry as in [`accel_residuals`].
fn plain_gradients(
    gram: &sparsela::DenseMatrix,
    cross: &sparsela::DenseMatrix,
    deltas: &[f64],
    j: usize,
    mu: usize,
    out: &mut Vec<f64>,
) {
    let off = (j - 1) * mu;
    out.clear();
    if mu == 1 {
        let g = gram.row(off);
        let mut grad = cross.get(off, 0);
        for (col, &d) in deltas[..off].iter().enumerate() {
            grad += g[col] * d;
        }
        out.push(grad);
        return;
    }
    out.extend((off..off + mu).map(|row| cross.get(row, 0)));
    fn lanes<const L: usize>(
        gram: &sparsela::DenseMatrix,
        deltas: &[f64],
        col: usize,
        r: &mut [f64],
    ) {
        let mut acc: [f64; L] = (&*r).try_into().expect("one lane per row");
        for (bi, &d) in deltas.iter().enumerate() {
            let g = gram_lanes::<L>(gram, bi, col);
            for l in 0..L {
                acc[l] += g[l] * d;
            }
        }
        r.copy_from_slice(&acc);
    }
    let deltas = &deltas[..off];
    for (a0, w) in lane_groups(mu) {
        let (col, r) = (off + a0, &mut out[a0..a0 + w]);
        match w {
            8 => lanes::<8>(gram, deltas, col, r),
            4 => lanes::<4>(gram, deltas, col, r),
            2 => lanes::<2>(gram, deltas, col, r),
            _ => lanes::<1>(gram, deltas, col, r),
        }
    }
}

/// Per-solve Lasso state: the recurrence sequences, the θ carried across
/// blocks, and the convergence trace.
struct LassoSpec<'p, R: Regularizer> {
    reg: &'p R,
    cfg: &'p LassoConfig,
    accel: bool,
    q: f64,
    mu: usize,
    n: usize,
    theta: f64,
    y: Vec<f64>,
    z: Vec<f64>,
    ytilde: Vec<f64>,
    ztilde: Vec<f64>,
    trace: ConvergenceTrace,
    last_traced: f64,
}

impl<'r, 'p, B, R, M> FamilySpec<'r, B, M> for LassoSpec<'p, R>
where
    B: ExecBackend<'r>,
    R: Regularizer,
    M: SliceSource + Sync,
{
    fn deltas_len(&self, s_block: usize) -> usize {
        s_block * self.mu
    }

    fn sample(&mut self, rng: &mut Rng, s_block: usize, out: &mut Vec<usize>) {
        for _ in 0..s_block {
            crate::seq::sample_block_into(rng, self.n, self.mu, self.cfg.sampling, out);
        }
    }

    fn tile_width(&self, s_block: usize) -> usize {
        s_block * self.mu
    }

    fn nvecs(&self) -> usize {
        if self.accel {
            2
        } else {
            1
        }
    }

    fn prepare_block(&mut self, ws: &mut KernelWorkspace, s_block: usize) {
        if self.accel {
            // The θ sequence for the whole block, computed up front.
            ws.thetas.clear();
            ws.thetas.push(self.theta);
            for j in 0..s_block {
                ws.thetas.push(theta_next(ws.thetas[j]));
            }
        }
    }

    fn state_cross(&mut self, cx: Cx<'_, B, M>, s_block: usize) {
        // The cross products need the current residual vectors, so they
        // can never ride the overlap window.
        if self.accel {
            sampled_cross_into(
                cx.a,
                &cx.ws.sel,
                &[&self.ytilde, &self.ztilde],
                &mut cx.ws.cross,
            );
        } else {
            sampled_cross_into(cx.a, &cx.ws.sel, &[&self.ztilde], &mut cx.ws.cross);
        }
        cx.bk.charge_cross(
            &cx.ws.sel,
            s_block * self.mu,
            if self.accel { 2 } else { 1 },
        );
    }

    fn traced_scalar(&mut self, cx: Cx<'_, B, M>, blk: Block) -> Option<f64> {
        // Trace boundary: piggyback this rank's residual-norm contribution
        // on the fused allreduce instead of a second collective.
        let cfg = self.cfg;
        let traced = !B::TRACE_INNER
            && cfg.trace_every > 0
            && (blk.h / cfg.trace_every) != ((blk.h + blk.s).min(cfg.max_iters) / cfg.trace_every);
        if !traced {
            return None;
        }
        let val = if self.accel {
            let t2 = cx.ws.thetas[0] * cx.ws.thetas[0];
            accel_resid_sq(&self.ytilde, &self.ztilde, t2)
        } else {
            sparsela::vecops::nrm2_sq(&self.ztilde)
        };
        cx.bk.charge_trace_prep(if self.accel { 3 } else { 2 });
        Some(val)
    }

    fn after_exchange(&mut self, cx: Cx<'_, B, M>, blk: Block, rg: Option<f64>) {
        if let Some(rg) = rg {
            let n = self.n;
            let f = if self.accel {
                let t2 = self.theta * self.theta;
                let x = implicit_x(&self.y, &self.z, t2);
                cx.bk.charge_obj(2 * n as u64, n as u64);
                0.5 * rg + self.reg.value(&x)
            } else {
                cx.bk.charge_obj(n as u64, n as u64);
                0.5 * rg + self.reg.value(&self.z)
            };
            self.trace
                .push_with_phases(blk.h, f, cx.bk.clock(), cx.bk.phases());
        }
    }

    fn inner(&mut self, cx: Cx<'_, B, M>, s_block: usize, h: &mut usize) -> ControlFlow<()> {
        // Recurrences only — no fresh matrix products.
        let ws = &mut *cx.ws;
        let (cfg, mu, q) = (self.cfg, self.mu, self.q);
        for j in 1..=s_block {
            let off = (j - 1) * mu;
            let coords = &ws.sel[off..off + mu];
            ws.gram.diag_block_into(off, off + mu, &mut ws.gjj);
            let v = block_lipschitz(&mut ws.gjj);
            *h += 1;
            cx.bk.charge_prox(
                charges::subproblem_flops(mu as u64)
                    + charges::sa_correction_flops(j as u64, mu as u64),
                (mu * mu) as u64,
            );
            if self.accel {
                let theta_prev = ws.thetas[j - 1];
                let t2 = theta_prev * theta_prev;
                if v > 0.0 {
                    let eta = 1.0 / (q * theta_prev * v);
                    // eq. (3): r from ỹ′, z̃′ and Gram corrections.
                    accel_residuals(
                        &ws.gram,
                        &ws.cross,
                        &ws.deltas,
                        &ws.thetas,
                        (q, j, mu),
                        &mut ws.cand,
                        &mut ws.coefs,
                    );
                    for (r, &c) in ws.cand.iter_mut().zip(coords) {
                        *r = self.z[c] - eta * *r;
                    }
                    self.reg.prox_block(&mut ws.cand, coords, eta);
                    let ycoef = (1.0 - q * theta_prev) / t2;
                    for (ai, &c) in coords.iter().enumerate() {
                        let dz = ws.cand[ai] - self.z[c];
                        ws.deltas[off + ai] = dz;
                        if dz != 0.0 {
                            self.z[c] += dz;
                            self.y[c] -= ycoef * dz;
                            cx.a.slice(c).axpy2_into(
                                dz,
                                &mut self.ztilde,
                                -ycoef * dz,
                                &mut self.ytilde,
                            );
                        }
                    }
                    cx.bk.charge_lasso_update(coords, mu, false);
                }
            } else if v > 0.0 {
                let eta = 1.0 / v;
                plain_gradients(&ws.gram, &ws.cross, &ws.deltas, j, mu, &mut ws.cand);
                for (grad, &c) in ws.cand.iter_mut().zip(coords) {
                    *grad = self.z[c] - eta * *grad;
                }
                self.reg.prox_block(&mut ws.cand, coords, eta);
                for (ai, &c) in coords.iter().enumerate() {
                    let dx = ws.cand[ai] - self.z[c];
                    ws.deltas[off + ai] = dx;
                    if dx != 0.0 {
                        self.z[c] += dx;
                        cx.a.slice(c).axpy_into(dx, &mut self.ztilde);
                    }
                }
                cx.bk.charge_lasso_update(coords, mu, true);
            }
            if B::TRACE_INNER
                && ((cfg.trace_every > 0 && h.is_multiple_of(cfg.trace_every))
                    || *h == cfg.max_iters)
            {
                let f = if self.accel {
                    implicit_objective(
                        ws.thetas[j],
                        &self.y,
                        &self.z,
                        &self.ytilde,
                        &self.ztilde,
                        self.reg,
                    )
                } else {
                    lasso_objective_from_residual(&self.ztilde, self.reg, &self.z)
                };
                self.trace.push(*h, f, 0.0);
                if let Some(tol) = cfg.rel_tol {
                    if (self.last_traced - f).abs() <= tol * self.last_traced.abs().max(1e-300) {
                        if self.accel {
                            self.theta = ws.thetas[j];
                        }
                        return ControlFlow::Break(());
                    }
                }
                self.last_traced = f;
            }
        }
        ControlFlow::Continue(())
    }

    fn end_block(&mut self, cx: Cx<'_, B, M>, blk: Block) -> ControlFlow<()> {
        if self.accel {
            self.theta = cx.ws.thetas[blk.s];
        }
        ControlFlow::Continue(())
    }
}

/// Fast-forward a fresh RNG past the sampling draws of a completed
/// (non-accelerated) training run: re-draw the `iters` per-iteration
/// selections the driver drew, in the driver's order, and discard them.
/// The returned RNG is in exactly the state training left it, which is
/// what lets a serve-layer train-delta continue the *same* global draw
/// sequence — `iters` trained + `k` resumed is bitwise `iters + k`
/// trained from scratch whenever `iters` is a multiple of `s` (so the
/// block boundaries line up).
pub(crate) fn replay_sampling(
    seed: u64,
    n: usize,
    mu: usize,
    sampling: crate::config::BlockSampling,
    iters: usize,
) -> Rng {
    let mut rng = rng_from_seed(seed);
    let mut scratch = Vec::with_capacity(mu);
    for _ in 0..iters {
        scratch.clear();
        crate::seq::sample_block_into(&mut rng, n, mu, sampling, &mut scratch);
    }
    rng
}

/// One warm-started segment of plain (non-accelerated) SA-BCD: resume
/// from the caller's iterate `x` and residual `Ax − b`, advance both in
/// place for `cfg.max_iters` further inner iterations, and return how many
/// ran. The RNG and the kernel workspace are caller-owned, so a λ sweep
/// (or a resumed training session) keeps *one* global draw order and one
/// set of Gram/cross/selection buffers across every segment — which is
/// exactly what makes path point k a nearly-free seed for point k+1.
///
/// Float-for-float this is [`lasso_family`] with `accel = false` and the
/// initial state supplied instead of zeroed: same hooks, same driver, same
/// inner recurrence. The accelerated family is deliberately not offered
/// here — its momentum sequence is tied to the iterate and does not
/// restart cleanly from an arbitrary point.
#[allow(clippy::too_many_arguments)]
pub(crate) fn lasso_family_warm<'r, B: ExecBackend<'r>, R: Regularizer, M: SliceSource + Sync>(
    a: &M,
    reg: &R,
    cfg: &LassoConfig,
    backend: &mut B,
    rng: &mut Rng,
    ws: &mut KernelWorkspace,
    x: &mut Vec<f64>,
    residual: &mut Vec<f64>,
) -> usize {
    let n = a.major_len();
    cfg.validate(n);
    assert_eq!(x.len(), n, "warm-start iterate length mismatch");
    assert_eq!(
        residual.len(),
        a.minor_len(),
        "warm-start residual length mismatch"
    );
    let mut spec = LassoSpec {
        reg,
        cfg,
        accel: false,
        q: cfg.q(n),
        mu: cfg.mu,
        n,
        theta: cfg.mu as f64 / n as f64,
        y: Vec::new(),
        z: std::mem::take(x),
        ytilde: Vec::new(),
        ztilde: std::mem::take(residual),
        trace: ConvergenceTrace::new(),
        last_traced: 0.0,
    };
    // The rel_tol baseline is the warm objective (trace pushes inside the
    // driver are pure — they never perturb the iterate).
    spec.last_traced = lasso_objective_from_residual(&spec.ztilde, reg, &spec.z);
    let sched = Schedule {
        max_iters: cfg.max_iters,
        s: cfg.s,
    };
    let h = drive(a, sched, rng, ws, backend, &mut spec);
    *x = spec.z;
    *residual = spec.ztilde;
    h
}

/// Solve `min_x ½‖Ax − b‖² + g(x)` on backend `B`.
///
/// `a`/`b` are the full problem for replicated engines and this rank's
/// row block for the distributed engine (local matrix products, made
/// global by [`ExecBackend::exchange`]). `a` is any column-major
/// [`SliceSource`] — in-memory `CscMatrix` or out-of-core
/// `shard::StreamingMatrix`; streaming hooks change residency, never
/// values, so the iterates are bitwise identical across sources.
pub(crate) fn lasso_family<'r, B: ExecBackend<'r>, R: Regularizer, M: SliceSource + Sync>(
    a: &M,
    b: &[f64],
    reg: &R,
    cfg: &LassoConfig,
    accel: bool,
    backend: &mut B,
) -> SolveResult {
    let n = a.major_len();
    cfg.validate(n);
    assert_eq!(b.len(), a.minor_len(), "label length mismatch");
    let mut rng = rng_from_seed(cfg.seed);

    // Accelerated state: x = θ²y + z, ỹ = Ay, z̃ = Az − b.
    // Plain state reuses the same names: z is the iterate, z̃ the residual.
    let mut spec = LassoSpec {
        reg,
        cfg,
        accel,
        q: cfg.q(n),
        mu: cfg.mu,
        n,
        theta: cfg.mu as f64 / n as f64,
        y: vec![0.0; if accel { n } else { 0 }],
        z: vec![0.0; n],
        ytilde: vec![0.0; if accel { b.len() } else { 0 }],
        ztilde: b.iter().map(|v| -v).collect(),
        trace: ConvergenceTrace::new(),
        last_traced: 0.0,
    };

    if B::TRACE_INNER {
        let f0 = if accel {
            implicit_objective(
                spec.theta,
                &spec.y,
                &spec.z,
                &spec.ytilde,
                &spec.ztilde,
                reg,
            )
        } else {
            lasso_objective_from_residual(&spec.ztilde, reg, &spec.z)
        };
        spec.trace.push(0, f0, 0.0);
    } else {
        // ½‖b‖² on every engine: z̃ starts at −b (locally on a mesh rank, whose
        // scalar reduction makes the squared norm global).
        let b_sq = backend.reduce_scalar(sparsela::vecops::nrm2_sq(&spec.ztilde));
        spec.trace
            .push_with_phases(0, 0.5 * b_sq, backend.clock(), backend.phases());
    }
    spec.last_traced = spec.trace.initial_value();

    // One workspace per solve: Gram/cross/selection/recurrence buffers are
    // reused across outer iterations (numerics untouched — the `_into`
    // kernels are bitwise identical to their allocating counterparts).
    let mut ws = KernelWorkspace::new();
    let sched = Schedule {
        max_iters: cfg.max_iters,
        s: cfg.s,
    };
    let h = drive(a, sched, &mut rng, &mut ws, backend, &mut spec);

    let LassoSpec {
        theta,
        y,
        z,
        ytilde,
        ztilde,
        mut trace,
        ..
    } = spec;
    if !B::TRACE_INNER {
        // Final objective so the trace always ends at `iters` even when
        // `trace_every` does not divide it.
        let t2 = theta * theta;
        let (resid_contrib, x) = if accel {
            backend.charge_trace_prep(3);
            (accel_resid_sq(&ytilde, &ztilde, t2), implicit_x(&y, &z, t2))
        } else {
            (sparsela::vecops::nrm2_sq(&ztilde), z)
        };
        let rg = backend.reduce_scalar(resid_contrib);
        trace.push_with_phases(
            h,
            0.5 * rg + reg.value(&x),
            backend.clock(),
            backend.phases(),
        );
        return SolveResult { x, trace, iters: h };
    }

    let x = if accel {
        implicit_x(&y, &z, theta * theta)
    } else {
        z
    };
    SolveResult { x, trace, iters: h }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsela::gram::sampled_gram;
    use sparsela::{CooMatrix, DenseMatrix};

    /// eq. (3)'s residual as the inner loop computed it before the rows ran
    /// side by side: one row at a time, `coef` per row and `t`, `G` read
    /// along the row. The bitwise reference for [`accel_residuals`].
    fn per_row_accel_residuals(
        gram: &DenseMatrix,
        cross: &DenseMatrix,
        deltas: &[f64],
        thetas: &[f64],
        (q, j, mu): (f64, usize, usize),
    ) -> Vec<f64> {
        let off = (j - 1) * mu;
        let theta_prev = thetas[j - 1];
        let t2 = theta_prev * theta_prev;
        (0..mu)
            .map(|ai| {
                let row = off + ai;
                let mut r = t2 * cross.get(row, 0) + cross.get(row, 1);
                for t in 1..j {
                    let tp = thetas[t - 1];
                    let coef = t2 * (1.0 - q * tp) / (tp * tp) - 1.0;
                    if coef != 0.0 {
                        let toff = (t - 1) * mu;
                        let mut corr = 0.0;
                        for bi in 0..mu {
                            corr += gram.get(row, toff + bi) * deltas[toff + bi];
                        }
                        r -= coef * corr;
                    }
                }
                r
            })
            .collect()
    }

    /// Plain SA-BCD's gradient as computed before, one row at a time: the
    /// bitwise reference for [`plain_gradients`].
    fn per_row_plain_gradients(
        gram: &DenseMatrix,
        cross: &DenseMatrix,
        deltas: &[f64],
        j: usize,
        mu: usize,
    ) -> Vec<f64> {
        let off = (j - 1) * mu;
        (0..mu)
            .map(|ai| {
                let row = off + ai;
                let mut grad = cross.get(row, 0);
                for t in 1..j {
                    let toff = (t - 1) * mu;
                    for bi in 0..mu {
                        grad += gram.get(row, toff + bi) * deltas[toff + bi];
                    }
                }
                grad
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The lane-parallel corrections are the per-row chains BIT FOR BIT at
    /// every sub-block of blocks of µ ∈ {1, 2, 3, 8, 13} and s ≤ 64: the
    /// Gram comes from `sampled_gram` over sub-blocks drawn from only
    /// µ + 2 sparse columns (so coordinates repeat across a block's
    /// sub-blocks and some columns are empty), the Δs include exact zeros
    /// and `−0.0`, and the θ sequences are both the solver's recurrence
    /// and an alternating one with q = 0, whose `coef` is exactly 0 on
    /// every other `t`.
    #[test]
    fn lane_corrections_match_the_per_row_chains_bitwise() {
        let mut rng = xrng::rng_from_seed(30);
        for mu in [1usize, 2, 3, 8, 13] {
            let (n, m) = (mu + 2, 24);
            let mut coo = CooMatrix::new(m, n);
            for c in 1..n {
                for i in 0..m {
                    if rng.next_index(3) == 0 {
                        coo.push(i, c, rng.next_gaussian());
                    }
                }
            }
            let a = coo.to_csc();
            for s in [1usize, 2, 7, 64] {
                let mut sel = Vec::new();
                for _ in 0..s {
                    xrng::sample_without_replacement_into(&mut rng, n, mu, &mut sel);
                }
                let gram = sampled_gram(&a, &sel);
                let w = s * mu;
                let cross =
                    DenseMatrix::from_vec(w, 2, (0..2 * w).map(|_| rng.next_gaussian()).collect());
                let deltas: Vec<f64> = (0..w)
                    .map(|_| match rng.next_index(5) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.next_gaussian(),
                    })
                    .collect();
                let mut recurrence = vec![mu as f64 / n as f64];
                for t in 0..s {
                    recurrence.push(crate::seq::theta_next(recurrence[t]));
                }
                let alternating: Vec<f64> = (0..=s)
                    .map(|t| if t % 2 == 0 { 0.25 } else { 0.5 })
                    .collect();
                let (mut out, mut corr) = (Vec::new(), Vec::new());
                for (thetas, q) in [(&recurrence, 0.3), (&alternating, 0.0)] {
                    for j in 1..=s {
                        let want =
                            per_row_accel_residuals(&gram, &cross, &deltas, thetas, (q, j, mu));
                        accel_residuals(
                            &gram,
                            &cross,
                            &deltas,
                            thetas,
                            (q, j, mu),
                            &mut out,
                            &mut corr,
                        );
                        assert_eq!(
                            bits(&out),
                            bits(&want),
                            "accel µ = {mu}, s = {s}, j = {j}, q = {q}"
                        );
                    }
                }
                for j in 1..=s {
                    let want = per_row_plain_gradients(&gram, &cross, &deltas, j, mu);
                    plain_gradients(&gram, &cross, &deltas, j, mu, &mut out);
                    assert_eq!(bits(&out), bits(&want), "plain µ = {mu}, s = {s}, j = {j}");
                }
            }
        }
    }
}
