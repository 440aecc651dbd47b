//! The two in-process engines behind [`ExecBackend`]: the sequential
//! ground truth and the analytic virtual cluster. The socket mesh's
//! backend lives in `exec/net.rs`.

use super::charges::{self, Site};
use super::{ExecBackend, Payload, Stage};
use crate::sim::{per_rank_sel_nnz, phase_snapshot};
use crate::workspace::KernelWorkspace;
use datagen::{bucket_counts, Partition};
use mpisim::telemetry::{Phase, PhaseTimes};
use mpisim::{CostModel, VirtualCluster};
use saco_telemetry::{Registry, WallSpan};
use sparsela::gram::MajorSlices;

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
        _next_block: Option<F>,
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

/// Which of a rank's nonzeros a charge [`Site`] is a function of,
/// resolved per virtual rank against the partition.
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

/// Virtual-cluster engine: runs the global numerics once while charging
/// each rank its analytic share of flops/bytes/words — the share of the
/// data that rank would hold in a partitioned execution.
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
}

impl<'r, 'a, M: MajorSlices + Sync> ExecBackend<'r> for SimBackend<'a, M> {
    const TRACE_INNER: bool = false;
    const OVERLAPS: bool = true;

    // Each hook names its site's nnz source and its `charges` formula.
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
        self.cluster.iallreduce(buf.len() as u64);
    }

    fn gap_reduce(&mut self, buf: &mut Vec<f64>, m: usize) {
        self.charge(Nnz::Whole, charges::block_spmv(Phase::Comp, 1, m as u64));
        self.cluster.iallreduce(buf.len() as u64);
        self.charge_obj(4 * m as u64, m as u64);
    }

    fn exchange<F: FnOnce(&mut Self, &mut KernelWorkspace)>(
        &mut self,
        ws: &mut KernelWorkspace,
        payload: Payload,
        resid: Option<f64>,
        next_block: Option<F>,
    ) -> Option<f64> {
        // Numerics are already global; only the cost of the fused payload
        // moves across the (virtual) wire — its word count comes from the
        // same descriptor the socket mesh packs, so the modeled and
        // measured wires cannot drift apart.
        self.cluster
            .iallreduce_start(payload.words(resid.is_some()) as u64);
        if let Some(f) = next_block {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LassoRankData, SvmRankData};
    use sparsela::io::Dataset;

    /// Per-rank flops of one hook call on a fresh `p`-rank cluster.
    fn flops_of<M: MajorSlices + Sync>(
        mat: &M,
        part: &Partition,
        hook: impl FnOnce(&mut SimBackend<'_, M>),
    ) -> Vec<u64> {
        let p = part.parts();
        let mut backend = SimBackend::new(p, CostModel::cray_xc30(), mat, part.clone());
        hook(&mut backend);
        let cluster = backend.into_cluster();
        (0..p).map(|r| cluster.counters(r).flops).collect()
    }

    /// Stored entries of `sel` in one rank's local block.
    fn local_nnz<M: MajorSlices>(block: &M, sel: &[usize]) -> u64 {
        sel.iter().map(|&k| block.slice(k).nnz() as u64).sum()
    }

    fn whole<M: MajorSlices>(block: &M) -> u64 {
        local_nnz(block, &(0..block.major_len()).collect::<Vec<_>>())
    }

    /// The pricing half the engines never shared: where a charge site's
    /// nonzeros come from. For every source — the selected slices, the
    /// whole block, the partition's rows, nothing — the virtual cluster
    /// charges rank r exactly what the site costs at the local counts of
    /// rank r's block under the split an SPMD run holds (row blocks for
    /// Lasso, column blocks for SVM and K-DCD), balanced or not.
    #[test]
    fn sim_charges_each_rank_the_local_counts_of_its_split_block() {
        let a = datagen::powerlaw_sparse(60, 24, 0.2, 1.1, 5);
        let ds = Dataset {
            b: (0..60).map(|i| (i % 3) as f64 - 1.0).collect(),
            a,
        };
        let (csc, m) = (ds.a.to_csc(), 60u64);
        let (sel, row) = ([2usize, 5, 11, 17, 23], 7usize);
        for p in [1usize, 2, 3, 4] {
            for balanced in [false, true] {
                let what = format!("p={p} balanced={balanced}");
                let expect = |f: &dyn Fn(usize) -> u64| (0..p).map(f).collect::<Vec<u64>>();

                // Lasso: columns sampled from row blocks.
                let (part, blocks) = LassoRankData::split(&ds, p, balanced);
                let sel_nnz = |r: usize| local_nnz(&blocks[r].csc, &sel);
                let rows = |r: usize| blocks[r].b.len() as u64;
                let got = flops_of(&csc, &part, |b| b.charge_gram(&sel, 5));
                let want = expect(&|r| charges::gram_flops(sel_nnz(r), 5));
                assert_eq!(got, want, "{what}: gram (selected slices)");
                let got = flops_of(&csc, &part, |b| b.charge_cross(&sel, 5, 2));
                let want = expect(&|r| charges::cross_flops(sel_nnz(r), 2));
                assert_eq!(got, want, "{what}: cross (selected slices)");
                let got = flops_of(&csc, &part, |b| b.charge_lasso_update(&sel, 5, true));
                let want = expect(&|r| charges::lasso_update_flops(sel_nnz(r), 5) / 2);
                assert_eq!(got, want, "{what}: lasso update (selected slices)");
                let got = flops_of(&csc, &part, |b| b.charge_trace_prep(3));
                assert_eq!(got, expect(&|r| 3 * rows(r)), "{what}: trace (rows)");
                let got = flops_of(&csc, &part, |b| b.charge_prox(900, 8));
                assert_eq!(got, vec![900; p], "{what}: prox (replicated)");
                let got = flops_of(&csc, &part, |b| b.charge_outer_overhead());
                let want = vec![charges::OUTER_OVERHEAD_FLOPS; p];
                assert_eq!(got, want, "{what}: outer overhead (replicated)");

                // SVM and K-DCD: rows sampled from column blocks.
                let (part, blocks) = SvmRankData::split(&ds, p, balanced);
                let local = |r: usize| &blocks[r].csr;
                let got = flops_of(&ds.a, &part, |b| b.charge_svm_update(row));
                let want = expect(&|r| charges::svm_update_flops(local_nnz(local(r), &[row])));
                assert_eq!(got, want, "{what}: svm update (selected row)");
                let got = flops_of(&ds.a, &part, |b| b.charge_cross(&sel, 5, 1));
                let want = expect(&|r| charges::cross_flops(local_nnz(local(r), &sel), 1));
                assert_eq!(got, want, "{what}: svm cross (selected rows)");
                let got = flops_of(&ds.a, &part, |b| b.charge_kdcd_tile(3, 60));
                assert_eq!(
                    got,
                    expect(&|r| 6 * whole(local(r))),
                    "{what}: tile (block)"
                );
                let got = flops_of(&ds.a, &part, |b| b.norm_reduce(&mut vec![0.0; 60], 60));
                assert_eq!(
                    got,
                    expect(&|r| 2 * whole(local(r))),
                    "{what}: norms (block)"
                );
                let got = flops_of(&ds.a, &part, |b| b.gap_reduce(&mut vec![0.0; 61], 60));
                let want = expect(&|r| 2 * whole(local(r)) + 4 * m);
                assert_eq!(got, want, "{what}: gap (block + replicated)");
            }
        }
    }
}
