//! Execution backends: one recurrence, three engines.
//!
//! The paper's central claim is that the SA recurrences (Alg. 2/4) are
//! *the same math* as their synchronous counterparts — only the
//! communication schedule changes. This module makes that structural in
//! the code: each solver family is written **once** as a backend-generic
//! recurrence ([`lasso_family`] covers BCD/accBCD/SA-BCD/SA-accBCD via
//! `LassoConfig` plus an `accel` flag; [`svm_family`] covers SVM/SA-SVM),
//! and an [`ExecBackend`] supplies exactly what differs between engines:
//!
//! * **cost/phase charging** — the `charge_*` hooks (no-ops sequentially
//!   and on the socket mesh, whose time is measured; per-rank analytic
//!   charges on the virtual cluster);
//! * **the fused triangle allreduce** — [`ExecBackend::exchange`] turns
//!   the workspace's local Gram/cross blocks into global ones (identity
//!   for the replicated engines, pack → nonblocking allreduce → unpack
//!   on the mesh), running the caller's overlap closure while the payload
//!   is in flight;
//! * **trace-boundary piggybacking** — the optional residual scalar rides
//!   the same payload, and [`ExecBackend::clock`]/[`ExecBackend::phases`]
//!   stamp each trace point;
//! * **wall-clock spans** — [`ExecBackend::span`] hands out RAII timers
//!   for the instrumented sequential solver.
//!
//! The backend contract (what must be charged when, what may overlap, and
//! what determinism it must preserve) is documented in DESIGN.md
//! §"Execution backends". The invariant the contract buys: the sequential
//! and simulated backends produce bitwise-identical iterates for the same
//! config, the mesh agrees with them bitwise at one rank and to round-off
//! beyond, and the simulated engine's collectives and words are what the
//! mesh sends (see `tests/engine_matrix.rs`).

mod backends;
pub mod charges;
mod driver;
mod kdcd;
mod lasso;
mod net;
mod svm;

pub(crate) use backends::{SeqBackend, SimBackend};
pub(crate) use driver::Payload;
pub(crate) use kdcd::kdcd_family;
pub use kdcd::KdcdStats;
pub(crate) use lasso::{lasso_family, lasso_family_warm, replay_sampling};
pub(crate) use net::NetBackend;
pub(crate) use svm::svm_family;

use crate::workspace::KernelWorkspace;
use saco_telemetry::{PhaseTimes, WallSpan};

/// The three timed stages of an outer iteration, used to select a wall
/// span name on instrumented sequential runs.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Stage {
    /// Drawing the s·µ coordinates of the block.
    Sampling = 0,
    /// Forming the Gram block or the cross products.
    Gram = 1,
    /// The s recurrence-only inner iterations.
    Inner = 2,
}

/// What an execution engine must provide to run the solver families.
///
/// Every `charge_*` hook defaults to a no-op so the sequential backend
/// only implements the data-movement methods. The charge hooks must be
/// called in the exact positions the families call them: comp charges
/// between two collectives may be reordered freely (they sum onto the
/// same clock segment), but a charge belonging before a collective must
/// never migrate past it.
pub(crate) trait ExecBackend<'r> {
    /// Whether the engine traces inside the inner loop (sequential: exact
    /// per-iteration objective, zero simulated time). Engines that
    /// communicate trace only at outer boundaries, piggybacking the
    /// residual on the fused allreduce.
    const TRACE_INNER: bool;

    /// Whether the engine hides the fused allreduce behind next-block
    /// sampling + local Gram formation. The driver overlaps whenever
    /// this holds and a next block exists; no config turns it off.
    const OVERLAPS: bool;

    /// Charge the local Gram formation over the sampled slices.
    fn charge_gram(&mut self, _sel: &[usize], _width: usize) {}

    /// Charge the cross products `Yᵀ[v₁ … v_nvecs]` over the sampled
    /// slices.
    fn charge_cross(&mut self, _sel: &[usize], _width: usize, _nvecs: usize) {}

    /// Charge the residual-norm contribution computed at a trace
    /// boundary: `factor` flops per partitioned row.
    fn charge_trace_prep(&mut self, _factor: u64) {}

    /// Charge the fixed per-outer-iteration software overhead (packing,
    /// call setup).
    fn charge_outer_overhead(&mut self) {}

    /// Charge one inner iteration's replicated subproblem (λmax, prox,
    /// SA gradient corrections).
    fn charge_prox(&mut self, _flops: u64, _ws_words: u64) {}

    /// Charge the Lasso vector updates over the inner block's columns
    /// (`halve` for the non-accelerated single-sequence update).
    fn charge_lasso_update(&mut self, _coords: &[usize], _mu: usize, _halve: bool) {}

    /// Charge the SVM `x` axpy over the sampled row's nonzeros.
    fn charge_svm_update(&mut self, _row: usize) {}

    /// Charge the kernel family's local tile pass: `misses` dense-row
    /// SpMVs over this rank's feature block (`2·local_nnz` flops each,
    /// working set `m`).
    fn charge_kdcd_tile(&mut self, _misses: usize, _m: usize) {}

    /// Sum the replicated row-norms buffer (length `m`) across ranks,
    /// charging the local norms pass — RBF kernel init only.
    fn norm_reduce(&mut self, _buf: &mut Vec<f64>, _m: usize) {}

    /// Charge the replicated objective assembly at a trace boundary.
    fn charge_obj(&mut self, _flops: u64, _ws_words: u64) {}

    /// The one synchronization of an outer iteration: make `ws.gram`
    /// (upper triangle) and `ws.cross` global per the family's
    /// [`Payload`] descriptor, reducing the optional traced residual
    /// scalar alongside. `next_block`, when provided, runs while the payload
    /// is in flight and may only touch next-block state (`sel_next`,
    /// `gram_next`/`cross_next`, the gram scatter scratch) plus backend
    /// charges. Returns the reduced residual iff one was passed.
    fn exchange<F: FnOnce(&mut Self, &mut KernelWorkspace)>(
        &mut self,
        ws: &mut KernelWorkspace,
        payload: Payload,
        resid: Option<f64>,
        next_block: Option<F>,
    ) -> Option<f64>;

    /// Sum one scalar across ranks (bookkeeping reductions: the initial
    /// and final objective).
    fn reduce_scalar(&mut self, v: f64) -> f64;

    /// Block-boundary checkpoint hook, called by the families at the end
    /// of every outer block. A no-op everywhere except engines with fault
    /// injection enabled (`mpisim` chaos): there it marks the recovery
    /// point a failed rank restarts from, charging the redo time — never
    /// touching values, so a run through an injected failure stays
    /// bitwise identical to the clean run.
    fn checkpoint(&mut self) {}

    /// Sum the SVM duality-gap buffer (`m` margins + ‖x‖²) across ranks,
    /// charging the gap SpMV and the replicated loss pass around it.
    fn gap_reduce(&mut self, _buf: &mut Vec<f64>, _m: usize) {}

    /// Engine time for trace points (0.0 sequentially).
    fn clock(&self) -> f64 {
        0.0
    }

    /// Comm/comp/idle attribution carried by a trace point.
    fn phases(&self) -> PhaseTimes {
        PhaseTimes::new(0.0, 0.0, 0.0)
    }

    /// RAII wall-clock span for `stage`, when instrumented. The span
    /// borrows the registry (lifetime `'r`), never the backend, so charge
    /// calls stay available while it is open.
    fn span(&self, _stage: Stage) -> Option<WallSpan<'r>> {
        None
    }
}
