//! The kernel dual coordinate-descent family (K-DCD / K-BDCD) as a
//! [`FamilySpec`] — the third solver family, running unmodified on all
//! four engines.
//!
//! Kernel SVM and kernel ridge share one s-step structure. The dual
//! iterate `α ∈ ℝᵐ` and the maintained margins `z` are replicated
//! (kernel SVM: `z_l = Σⱼ K(l,j) bⱼ αⱼ`; ridge: `z = Kα`); the design
//! matrix is 1D-**feature**-partitioned exactly like the linear SVM, so
//! one kernel entry `K(i,j)` needs the dot product `⟨aᵢ, aⱼ⟩` summed
//! across ranks. The `m × m` kernel matrix is never materialized:
//! each block's sampled rows are looked up in a bounded
//! [`KernelCache`], only the *missed* rows are built (one local
//! dense-row SpMV each) and fused into the engine's allreduce
//! (`Payload { tri: 0, rows: misses, cols: m }`), and the replicated
//! entry transform [`KernelFn::eval`] runs after the exchange. A block
//! whose rows all hit the cache moves **zero words** — the driver skips
//! the collective on every rank, which is the kernel family's extra
//! synchronization saving on top of s-step unrolling.
//!
//! Within a block the inner recurrence corrects the stale margins with
//! the prior in-block steps (`Σ_t θ_t · K(i_j, i_t)` terms), making the
//! s-step schedule *mathematically identical* to classical sequential
//! coordinate descent — the same claim the paper makes for Algorithms
//! 2/4, carried to the kernel setting. `K(i_j, i_t)` is always read
//! from row `i_j` (the fixed convention that keeps every engine bitwise
//! identical, overlapped or not; the two symmetric reads need not round
//! identically).

use super::charges;
use super::driver::{drive, Block, Cx, FamilySpec, Payload, Schedule};
use super::ExecBackend;
use crate::config::{KdcdConfig, KdcdTask};
use crate::problem::SvmProblem;
use crate::seq::svm::projected_step;
use crate::trace::{ConvergenceTrace, SolveResult};
use crate::workspace::KernelWorkspace;
use sparsela::kernel::{KernelCache, KernelCacheStats, KernelFn};
use sparsela::SliceSource;
use std::ops::ControlFlow;
use xrng::{rng_from_seed, Rng};

/// Solve-level counters for the kernel family, reported by the engine
/// entries as the `kmethod.*` metric group.
#[derive(Clone, Copy, Debug, Default)]
pub struct KdcdStats {
    /// Kernel-row cache hit/miss/eviction counters.
    pub cache: KernelCacheStats,
    /// Bytes of kernel rows resident at solve end.
    pub cache_resident_bytes: u64,
    /// Kernel rows built (sum of per-block misses).
    pub tile_rows: u64,
    /// Kernel entries transformed (`tile_rows · m`).
    pub eval_entries: u64,
    /// Modeled replicated transform flops ([`KernelFn::eval_flops`]).
    pub eval_flops: u64,
    /// Words moved by the fused kernel-row allreduces.
    pub exchange_words: u64,
    /// Blocks whose rows all hit the cache — collectives skipped.
    pub exchange_skipped: u64,
}

/// Per-solve kernel-family state. `miss`/`miss_next` are the
/// double-buffered distinct missed row indices of the current/next block
/// (the payload's row count), swapped alongside `ws.cross`/`cross_next`.
struct KdcdSpec<'p> {
    b: &'p [f64],
    cfg: &'p KdcdConfig,
    kernel: KernelFn,
    gamma: f64,
    nu: f64,
    m: usize,
    norms: Vec<f64>,
    alpha: Vec<f64>,
    z: Vec<f64>,
    cache: KernelCache,
    dense: Vec<f64>,
    miss: Vec<usize>,
    miss_next: Vec<usize>,
    trace: ConvergenceTrace,
    stats: KdcdStats,
}

impl<'p> KdcdSpec<'p> {
    /// The replicated dual objective at a block boundary (margins `z`
    /// current): kernel SVM `½(Σ α_l b_l z_l + γ‖α‖²) − Σ α_l`; ridge
    /// `½(Σ α_l z_l + λ‖α‖²) − Σ b_l α_l`. Exact sequential coordinate
    /// descent (which the s-step corrections reproduce) decreases it
    /// monotonically.
    fn objective(&self) -> f64 {
        let asq = sparsela::vecops::nrm2_sq(&self.alpha);
        match self.cfg.task {
            KdcdTask::Svm(_) => {
                let quad: f64 = self
                    .alpha
                    .iter()
                    .zip(self.b)
                    .zip(&self.z)
                    .map(|((&a, &b), &z)| a * b * z)
                    .sum();
                0.5 * (quad + self.gamma * asq) - self.alpha.iter().sum::<f64>()
            }
            KdcdTask::Ridge => {
                let quad: f64 = self.alpha.iter().zip(&self.z).map(|(&a, &z)| a * z).sum();
                let lin: f64 = self.alpha.iter().zip(self.b).map(|(&a, &b)| a * b).sum();
                0.5 * (quad + self.cfg.lambda * asq) - lin
            }
        }
    }
}

impl<'r, 'p, B, M> FamilySpec<'r, B, M> for KdcdSpec<'p>
where
    B: ExecBackend<'r>,
    M: SliceSource + Sync,
{
    fn sample(&mut self, rng: &mut Rng, s_block: usize, out: &mut Vec<usize>) {
        out.extend((0..s_block).map(|_| rng.next_index(self.m)));
    }

    /// The kernel tile: open the cache epoch for this selection, then
    /// build each missed row's *local* dot products with one dense-row
    /// SpMV over this rank's feature block. Cache admission/eviction
    /// happens here — once per block, in block order on every engine,
    /// overlapped or not, so cache state never depends on the schedule.
    fn tile(&mut self, cx: Cx<'_, B, M>, _s_block: usize, next: bool) {
        let ws = &mut *cx.ws;
        let (sel, cross, miss) = if next {
            (&ws.sel_next, &mut ws.cross_next, &mut self.miss_next)
        } else {
            (&ws.sel, &mut ws.cross, &mut self.miss)
        };
        *miss = self.cache.begin_epoch(sel);
        cross.reshape_zeroed(miss.len(), self.m);
        for (r, &i) in miss.iter().enumerate() {
            let si = cx.a.slice(i);
            for (&idx, &v) in si.indices.iter().zip(si.values) {
                self.dense[idx] = v;
            }
            cx.a.major_spmv_into(&self.dense, cross.row_mut(r));
            let si = cx.a.slice(i);
            for &idx in si.indices {
                self.dense[idx] = 0.0;
            }
        }
        cx.bk.charge_kdcd_tile(miss.len(), self.m);
    }

    fn swap_tiles(&mut self, ws: &mut KernelWorkspace) {
        std::mem::swap(&mut ws.cross, &mut ws.cross_next);
        std::mem::swap(&mut self.miss, &mut self.miss_next);
    }

    fn payload(&self, _ws: &KernelWorkspace, _s_block: usize) -> Payload {
        Payload {
            tri: 0,
            rows: self.miss.len(),
            cols: self.m,
        }
    }

    /// Transform the now-global dot rows into kernel rows and fulfill
    /// the cache's promises. Replicated work — it must run *after* the
    /// allreduce (the transform is nonlinear, so it cannot be summed).
    fn after_exchange(&mut self, cx: Cx<'_, B, M>, blk: Block, _rg: Option<f64>) {
        let m = self.m as u64;
        let misses = self.miss.len() as u64;
        if misses == 0 {
            self.stats.exchange_skipped += 1;
        } else {
            self.stats.exchange_words += misses * m;
        }
        self.stats.tile_rows += misses;
        self.stats.eval_entries += misses * m;
        self.stats.eval_flops += self.kernel.eval_flops() * misses * m;
        for (r, &i) in self.miss.iter().enumerate() {
            let ni = self.norms[i];
            let dots = cx.ws.cross.row(r);
            let row: Vec<f64> = dots
                .iter()
                .zip(&self.norms)
                .map(|(&d, &nl)| self.kernel.eval(d, ni, nl))
                .collect();
            self.cache.fill(i, row);
        }
        cx.bk.charge_obj(self.kernel.eval_flops() * misses * m, m);
        cx.ws.thetas.clear();
        cx.ws.thetas.resize(blk.s, 0.0);
    }

    /// The s recurrence-only steps. The gradient reads the stale block-
    /// entry margins `z[i]` plus exact corrections for every prior
    /// in-block step, so the iterates equal classical sequential
    /// coordinate descent's.
    fn inner(&mut self, cx: Cx<'_, B, M>, s_block: usize, h: &mut usize) -> ControlFlow<()> {
        let ws = &mut *cx.ws;
        for j in 1..=s_block {
            let i = ws.sel[j - 1];
            let row_i = self.cache.row(i);
            let theta = match self.cfg.task {
                KdcdTask::Svm(_) => {
                    let beta = self.alpha[i];
                    let eta = row_i[i] + self.gamma;
                    let mut g = self.b[i] * self.z[i] - 1.0 + self.gamma * beta;
                    for t in 1..j {
                        if ws.thetas[t - 1] != 0.0 {
                            g += ws.thetas[t - 1]
                                * self.b[i]
                                * self.b[ws.sel[t - 1]]
                                * row_i[ws.sel[t - 1]];
                        }
                    }
                    projected_step(beta, g, eta, self.nu)
                }
                KdcdTask::Ridge => {
                    let lambda = self.cfg.lambda;
                    let mut g = self.z[i] + lambda * self.alpha[i] - self.b[i];
                    for t in 1..j {
                        if ws.thetas[t - 1] != 0.0 {
                            g += ws.thetas[t - 1] * row_i[ws.sel[t - 1]];
                        }
                    }
                    -g / (row_i[i] + lambda)
                }
            };
            ws.thetas[j - 1] = theta;
            cx.bk.charge_prox(
                charges::ITER_OVERHEAD_FLOPS + 8 + charges::sa_correction_flops(j as u64, 1),
                (s_block * s_block) as u64,
            );
            if theta != 0.0 {
                self.alpha[i] += theta;
            }
            *h += 1;
        }
        ControlFlow::Continue(())
    }

    /// Fold the block's steps into the maintained margins (one dense
    /// axpy per nonzero step, from the cached kernel rows) and trace the
    /// replicated dual objective at boundaries — on *every* engine: the
    /// margins are only current here, so even the sequential engine
    /// traces per block, not per iteration.
    fn end_block(&mut self, cx: Cx<'_, B, M>, blk: Block) -> ControlFlow<()> {
        let ws = &mut *cx.ws;
        let mut updates = 0u64;
        for j in 0..blk.s {
            let step = ws.thetas[j];
            if step == 0.0 {
                continue;
            }
            let i = ws.sel[j];
            let coef = match self.cfg.task {
                KdcdTask::Svm(_) => step * self.b[i],
                KdcdTask::Ridge => step,
            };
            let row = self.cache.row(i);
            for (zl, &kl) in self.z.iter_mut().zip(row) {
                *zl += coef * kl;
            }
            updates += 1;
        }
        let m = self.m as u64;
        cx.bk.charge_obj(2 * updates * m, m);
        let (te, h) = (self.cfg.trace_every, blk.h);
        let traced = te > 0 && ((h - blk.s) / te != h / te || h >= self.cfg.max_iters);
        if traced {
            cx.bk.charge_obj(4 * m, m);
            self.trace
                .push_with_phases(h, self.objective(), cx.bk.clock(), cx.bk.phases());
        }
        ControlFlow::Continue(())
    }
}

/// Solve a kernel dual problem (K-DCD kernel SVM or K-BDCD kernel
/// ridge) on backend `B`.
///
/// `a` is the full row-major problem for replicated engines and this
/// rank's feature block (all `m` rows, local columns) for the
/// distributed engines; `b` holds the replicated ±1 labels (SVM) or
/// targets (ridge). Returns the replicated dual iterate `α` in
/// `SolveResult::x` plus the solve-level [`KdcdStats`].
pub(crate) fn kdcd_family<'r, B: ExecBackend<'r>, M: SliceSource + Sync>(
    a: &M,
    b: &[f64],
    cfg: &KdcdConfig,
    backend: &mut B,
) -> (SolveResult, KdcdStats) {
    cfg.validate();
    let m = a.major_len();
    assert_eq!(b.len(), m, "label length mismatch");
    if let KdcdTask::Svm(_) = cfg.task {
        debug_assert!(
            b.iter().all(|&v| v == 1.0 || v == -1.0),
            "kernel SVM labels must be ±1"
        );
    }
    let (gamma, nu) = match cfg.task {
        KdcdTask::Svm(loss) => {
            let p = SvmProblem::new(loss, cfg.lambda);
            (p.gamma(), p.nu())
        }
        KdcdTask::Ridge => (0.0, f64::INFINITY),
    };

    // RBF needs the global squared row norms once: local norms pass +
    // one length-m allreduce (the other kernels read only dot products).
    let mut norms = vec![0.0; m];
    if cfg.kernel.needs_norms() {
        a.major_norms_into(&mut norms);
        backend.norm_reduce(&mut norms, m);
    }

    let mut spec = KdcdSpec {
        b,
        cfg,
        kernel: cfg.kernel,
        gamma,
        nu,
        m,
        norms,
        alpha: vec![0.0; m],
        z: vec![0.0; m],
        cache: KernelCache::new(m, cfg.cache_budget_bytes),
        dense: vec![0.0; a.minor_len()],
        miss: Vec::new(),
        miss_next: Vec::new(),
        trace: ConvergenceTrace::new(),
        stats: KdcdStats::default(),
    };
    // α = 0 ⇒ both dual objectives start at exactly 0 on every engine.
    spec.trace
        .push_with_phases(0, 0.0, backend.clock(), backend.phases());

    let mut rng = rng_from_seed(cfg.seed);
    let mut ws = KernelWorkspace::new();
    let sched = Schedule {
        max_iters: cfg.max_iters,
        s: cfg.s,
    };
    let h = drive(a, sched, &mut rng, &mut ws, backend, &mut spec);

    if spec.trace.points().last().expect("initial point").iter < h {
        backend.charge_obj(4 * m as u64, m as u64);
        spec.trace
            .push_with_phases(h, spec.objective(), backend.clock(), backend.phases());
    }
    let mut stats = spec.stats;
    stats.cache = spec.cache.stats();
    stats.cache_resident_bytes = spec.cache.resident_bytes();
    (
        SolveResult {
            x: spec.alpha,
            trace: spec.trace,
            iters: h,
        },
        stats,
    )
}
