//! The three engines behind [`ExecBackend`]: sequential ground truth,
//! analytic virtual cluster, and SPMD thread machine.

use super::{ExecBackend, Payload, Stage};
use crate::dist::charges::{self, Site};
use crate::sim::{per_rank_sel_nnz, phase_snapshot};
use crate::workspace::KernelWorkspace;
use datagen::{bucket_counts, Partition};
use mpisim::telemetry::{Phase, PhaseTimes};
use mpisim::{Comm, CostModel, VirtualCluster};
use saco_telemetry::{Registry, WallSpan};
use sparsela::gram::MajorSlices;
use sparsela::sympack;

/// Assemble the fused allreduce payload in `ws.pack` per the family's
/// [`Payload`] descriptor: packed Gram upper triangle (if any), cross
/// terms interleaved per block row, then the optional traced residual
/// contribution. Shared by every engine that actually moves the payload
/// (thread machine and socket mesh), so the wire layout cannot drift
/// between them; the length assert keeps a family's descriptor honest
/// against what it actually put in the workspace.
pub(crate) fn pack_fused(ws: &mut KernelWorkspace, p: Payload, resid: Option<f64>) {
    let base = ws.pack.len();
    if p.tri > 0 {
        assert_eq!(
            (ws.gram.rows(), ws.gram.cols()),
            (p.tri, p.tri),
            "payload descriptor disagrees with the workspace Gram block"
        );
        sympack::pack_upper_into(&ws.gram, &mut ws.pack);
    }
    for k in 0..p.rows {
        for v in 0..p.cols {
            ws.pack.push(ws.cross.get(k, v));
        }
    }
    if let Some(rc) = resid {
        ws.pack.push(rc);
    }
    assert_eq!(
        ws.pack.len() - base,
        p.words(resid.is_some()),
        "packed payload length disagrees with its descriptor"
    );
}

/// Inverse of [`pack_fused`] after the reduction: scatter the global
/// triangle and cross terms back into the workspace (handing the
/// recurrence the global Gram block under the same name the replicated
/// engines use) and return the reduced residual iff one was packed.
pub(crate) fn unpack_fused(ws: &mut KernelWorkspace, p: Payload, traced: bool) -> Option<f64> {
    let mut pos = 0;
    if p.tri > 0 {
        pos = sympack::unpack_symmetric_into(&ws.pack, 0, p.tri, &mut ws.gram_global);
        std::mem::swap(&mut ws.gram, &mut ws.gram_global);
    }
    for k in 0..p.rows {
        for v in 0..p.cols {
            ws.cross.set(k, v, ws.pack[pos]);
            pos += 1;
        }
    }
    traced.then(|| ws.pack[pos])
}

/// Sequential engine: no communication, zero-cost charges, exact
/// per-iteration traces. Optionally instrumented with wall-clock spans.
pub(crate) struct SeqBackend<'r> {
    registry: Option<&'r Registry>,
    names: [&'static str; 3],
}

impl<'r> SeqBackend<'r> {
    pub(crate) fn new() -> Self {
        Self {
            registry: None,
            names: ["", "", ""],
        }
    }

    /// Record wall spans named `names[stage]` into `registry`.
    pub(crate) fn instrumented(registry: &'r Registry, names: [&'static str; 3]) -> Self {
        Self {
            registry: Some(registry),
            names,
        }
    }
}

impl<'r> Default for SeqBackend<'r> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'r> ExecBackend<'r> for SeqBackend<'r> {
    const TRACE_INNER: bool = true;
    const OVERLAPS: bool = false;

    fn exchange<F: FnOnce(&mut Self, &mut KernelWorkspace)>(
        &mut self,
        _ws: &mut KernelWorkspace,
        _payload: Payload,
        resid: Option<f64>,
        _overlap: Option<F>,
    ) -> Option<f64> {
        // Single address space: the workspace blocks already are global.
        resid
    }

    fn reduce_scalar(&mut self, v: f64) -> f64 {
        v
    }

    fn span(&self, stage: Stage) -> Option<WallSpan<'r>> {
        self.registry
            .map(|r| r.wall_span(self.names[stage as usize]))
    }
}

/// Which of a rank's nonzeros a charge [`Site`] is a function of. The
/// replicated engine resolves it per rank against its partition, the SPMD
/// engine against the rank's local block.
enum Nnz<'s> {
    /// Stored entries of the selected major slices.
    Sel(&'s [usize]),
    /// Stored entries of the rank's whole block.
    Whole,
    /// Rows of the rank's partition (residual trace contributions).
    Rows,
    /// Nothing: replicated work, the same on every rank.
    Replicated,
}

/// The charge hooks of [`ExecBackend`], stated once for both engines that
/// model time: each names its site's nnz source and its `dist::charges`
/// formula. The engine supplies `charge` — where that nnz comes from and
/// which ledger(s) receive the charge — and `reduce`, the blocking fused
/// allreduce of a buffer.
macro_rules! charge_hooks {
    () => {
        fn charge_gram(&mut self, sel: &[usize], width: usize) {
            self.charge(Nnz::Sel(sel), charges::gram(width as u64));
        }

        fn charge_cross(&mut self, sel: &[usize], width: usize, nvecs: usize) {
            self.charge(Nnz::Sel(sel), charges::cross(width as u64, nvecs as u64));
        }

        fn charge_trace_prep(&mut self, factor: u64) {
            self.charge(Nnz::Rows, charges::trace_prep(factor));
        }

        fn charge_outer_overhead(&mut self) {
            self.charge_obj(charges::OUTER_OVERHEAD_FLOPS, 64);
        }

        fn charge_prox(&mut self, flops: u64, ws_words: u64) {
            let site = charges::replicated(Phase::Prox, flops, ws_words);
            self.charge(Nnz::Replicated, site);
        }

        fn charge_lasso_update(&mut self, coords: &[usize], mu: usize, halve: bool) {
            self.charge(Nnz::Sel(coords), charges::lasso_update(mu as u64, halve));
        }

        fn charge_svm_update(&mut self, row: usize) {
            self.charge(Nnz::Sel(&[row]), charges::svm_update());
        }

        fn charge_obj(&mut self, flops: u64, ws_words: u64) {
            let site = charges::replicated(Phase::Comp, flops, ws_words);
            self.charge(Nnz::Replicated, site);
        }

        fn charge_kdcd_tile(&mut self, misses: usize, m: usize) {
            let site = charges::block_spmv(Phase::Gram, misses as u64, m as u64);
            self.charge(Nnz::Whole, site);
        }

        fn norm_reduce(&mut self, buf: &mut Vec<f64>, m: usize) {
            self.charge(Nnz::Whole, charges::block_spmv(Phase::Comp, 1, m as u64));
            self.reduce(buf);
        }

        fn gap_reduce(&mut self, buf: &mut Vec<f64>, m: usize) {
            self.charge(Nnz::Whole, charges::block_spmv(Phase::Comp, 1, m as u64));
            self.reduce(buf);
            self.charge_obj(4 * m as u64, m as u64);
        }
    };
}

/// Virtual-cluster engine: runs the global numerics once while charging
/// each rank its analytic share of flops/bytes/words, so the clock and
/// counters predict the SPMD engine exactly.
pub(crate) struct SimBackend<'a, M: MajorSlices + Sync> {
    cluster: VirtualCluster,
    mat: &'a M,
    part: Partition,
    rank_nnz: Vec<u64>,
    gap_nnz: Vec<u64>,
}

impl<'a, M: MajorSlices + Sync> SimBackend<'a, M> {
    /// `mat` is the full design matrix in the layout the solver samples
    /// (CSC for Lasso columns, CSR for SVM rows); `part` partitions its
    /// minor axis across `p` virtual ranks.
    pub(crate) fn new(p: usize, model: CostModel, mat: &'a M, part: Partition) -> Self {
        // Per-rank share of the whole matrix, used by the SVM gap SpMV.
        let mut gap_nnz = vec![0u64; p];
        for k in 0..mat.major_len() {
            bucket_counts(mat.slice(k).indices, &part, &mut gap_nnz);
        }
        Self::with_gap_nnz(p, model, mat, part, gap_nnz)
    }

    /// [`Self::new`] with the per-rank nnz histogram already known —
    /// integer-exact from a shard store's minor-axis sidecar, so streaming
    /// sources skip the full-matrix scan (which would otherwise pull every
    /// shard resident before the solve even starts).
    pub(crate) fn with_gap_nnz(
        p: usize,
        model: CostModel,
        mat: &'a M,
        part: Partition,
        gap_nnz: Vec<u64>,
    ) -> Self {
        assert_eq!(gap_nnz.len(), p, "per-rank nnz histogram length");
        Self {
            cluster: VirtualCluster::new(p, model),
            mat,
            part,
            rank_nnz: vec![0; p],
            gap_nnz,
        }
    }

    /// Surrender the cluster for reports/telemetry after the solve.
    pub(crate) fn into_cluster(self) -> VirtualCluster {
        self.cluster
    }

    /// Enable deterministic chaos injection on the underlying cluster
    /// (see `mpisim::chaos`). Call before the solve starts.
    pub(crate) fn enable_chaos(&mut self, spec: &mpisim::ChaosSpec) {
        self.cluster.enable_chaos(spec);
    }

    /// Every virtual rank's ledger receives the site, at that rank's
    /// share of the nonzeros under the partition.
    fn charge<F: Fn(u64) -> (u64, u64)>(&mut self, of: Nnz<'_>, site: Site<F>) {
        let Site { class, phase, cost } = site;
        let (part, sel_nnz, gap_nnz) = (&self.part, &mut self.rank_nnz, &self.gap_nnz);
        match of {
            Nnz::Sel(sel) => {
                per_rank_sel_nnz(self.mat, sel, part, sel_nnz);
                self.cluster.charge(class, phase, |r| cost(sel_nnz[r]));
            }
            Nnz::Whole => self.cluster.charge(class, phase, |r| cost(gap_nnz[r])),
            Nnz::Rows => self
                .cluster
                .charge(class, phase, |r| cost(part.range(r).len() as u64)),
            Nnz::Replicated => self.cluster.charge(class, phase, |_| cost(0)),
        }
    }

    fn reduce(&mut self, buf: &[f64]) {
        self.cluster.iallreduce(buf.len() as u64);
    }
}

impl<'r, 'a, M: MajorSlices + Sync> ExecBackend<'r> for SimBackend<'a, M> {
    const TRACE_INNER: bool = false;
    const OVERLAPS: bool = true;

    charge_hooks!();

    fn exchange<F: FnOnce(&mut Self, &mut KernelWorkspace)>(
        &mut self,
        ws: &mut KernelWorkspace,
        payload: Payload,
        resid: Option<f64>,
        overlap: Option<F>,
    ) -> Option<f64> {
        // Numerics are already global; only the cost of the fused payload
        // moves across the (virtual) wire — its word count comes from the
        // same descriptor the packing engines consume, so the modeled and
        // measured wires cannot drift apart.
        self.cluster
            .iallreduce_start(payload.words(resid.is_some()) as u64);
        if let Some(f) = overlap {
            f(self, ws);
        }
        self.cluster.iallreduce_wait();
        resid
    }

    fn reduce_scalar(&mut self, v: f64) -> f64 {
        self.cluster.iallreduce(1);
        v
    }

    fn checkpoint(&mut self) {
        self.cluster.checkpoint();
    }

    fn clock(&self) -> f64 {
        self.cluster.time()
    }

    fn phases(&self) -> PhaseTimes {
        phase_snapshot(&self.cluster)
    }
}

/// SPMD thread-machine engine: each rank owns a minor-axis block of the
/// design matrix, forms local Gram/cross contributions, and fuses them
/// into one (nonblocking) allreduce per outer iteration.
pub(crate) struct DistBackend<'c, 'a, M: MajorSlices + Sync> {
    comm: &'c mut Comm,
    mat: &'a M,
    trace_rows: u64,
    gap_nnz: u64,
}

impl<'c, 'a, M: MajorSlices + Sync> DistBackend<'c, 'a, M> {
    /// `mat` is this rank's local block; `trace_rows` the local row count
    /// entering residual trace contributions.
    pub(crate) fn new(comm: &'c mut Comm, mat: &'a M, trace_rows: usize) -> Self {
        let gap_nnz = (0..mat.major_len())
            .map(|k| mat.slice(k).nnz() as u64)
            .sum();
        Self::with_gap_nnz(comm, mat, trace_rows, gap_nnz)
    }

    /// [`Self::new`] with this rank's local nnz already known (from a
    /// shard store's minor-axis sidecar), skipping the slice scan that a
    /// streaming source must not run eagerly.
    pub(crate) fn with_gap_nnz(
        comm: &'c mut Comm,
        mat: &'a M,
        trace_rows: usize,
        gap_nnz: u64,
    ) -> Self {
        Self {
            comm,
            mat,
            trace_rows: trace_rows as u64,
            gap_nnz,
        }
    }

    /// This rank's ledger receives the site, at the local block's count.
    fn charge<F: Fn(u64) -> (u64, u64)>(&mut self, of: Nnz<'_>, site: Site<F>) {
        let nnz = match of {
            Nnz::Sel(sel) => sel.iter().map(|&k| self.mat.slice(k).nnz() as u64).sum(),
            Nnz::Whole => self.gap_nnz,
            Nnz::Rows => self.trace_rows,
            Nnz::Replicated => 0,
        };
        let (flops, ws_words) = (site.cost)(nnz);
        self.comm.charge(site.class, flops, ws_words, site.phase);
    }

    fn reduce(&mut self, buf: &mut Vec<f64>) {
        self.comm.iallreduce_sum(buf);
    }
}

impl<'r, 'c, 'a, M: MajorSlices + Sync> ExecBackend<'r> for DistBackend<'c, 'a, M> {
    const TRACE_INNER: bool = false;
    const OVERLAPS: bool = true;

    charge_hooks!();

    fn exchange<F: FnOnce(&mut Self, &mut KernelWorkspace)>(
        &mut self,
        ws: &mut KernelWorkspace,
        payload: Payload,
        resid: Option<f64>,
        overlap: Option<F>,
    ) -> Option<f64> {
        pack_fused(ws, payload, resid);
        let req = self.comm.iallreduce_sum_start(&mut ws.pack);
        if let Some(f) = overlap {
            f(self, ws);
        }
        self.comm.iallreduce_wait(req);
        unpack_fused(ws, payload, resid.is_some())
    }

    fn reduce_scalar(&mut self, v: f64) -> f64 {
        self.comm.iallreduce_scalar(v)
    }

    fn checkpoint(&mut self) {
        self.comm.checkpoint();
    }

    fn clock(&self) -> f64 {
        self.comm.clock()
    }

    fn phases(&self) -> PhaseTimes {
        PhaseTimes::from(self.comm.phase_table())
    }
}
