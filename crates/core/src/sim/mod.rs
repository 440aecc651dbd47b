//! Paper-scale simulated runs (`Engine::Sim`): the algorithms of
//! [`crate::seq`] with exact per-rank cost attribution on `mpisim`'s
//! [`VirtualCluster`].
//!
//! The strong-scaling and speedup experiments (Figures 3–4, Table V) use
//! up to P = 12,288 ranks. The thread engine cannot usefully run that many
//! OS threads, so these runs compute the numerics once — globally,
//! bit-identically to the sequential reference — while charging each
//! virtual rank the flops *it* would have executed (its partition's share
//! of the sampled nonzeros, so data-skew stragglers are modeled) and
//! charging every collective with the shared α-β formulas.
//!
//! The charge sequences mirror `crate::dist` call for call; the
//! `dist ≡ sim` consistency tests run both engines at the same small `P`
//! and require the virtual times to agree to round-off.

mod kdcd;
mod lasso;
mod path;
mod svm;

pub use path::sim_lasso_path;

use datagen::{bucket_counts, Partition};
use mpisim::telemetry::PhaseTimes;
use mpisim::VirtualCluster;
use sparsela::gram::MajorSlices;

/// Comm/comp/idle snapshot of the current critical rank — what a
/// simulated trace point carries as its phase breakdown.
pub(crate) fn phase_snapshot(cluster: &VirtualCluster) -> PhaseTimes {
    let c = cluster.report().critical;
    PhaseTimes::new(c.comm_time, c.comp_time, c.idle_time)
}

/// Accumulate, per rank, the stored entries of the sampled slices that
/// fall in each partition range (columns against a row partition for
/// Lasso; rows against a column partition for SVM).
pub(crate) fn per_rank_sel_nnz<M: MajorSlices>(
    mat: &M,
    sel: &[usize],
    part: &Partition,
    out: &mut [u64],
) {
    out.iter_mut().for_each(|v| *v = 0);
    for &k in sel {
        bucket_counts(mat.slice(k).indices, part, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::block_partition;
    use sparsela::CooMatrix;

    #[test]
    fn per_rank_nnz_sums_to_total() {
        let mut coo = CooMatrix::new(10, 4);
        for i in 0..10 {
            coo.push(i, i % 4, 1.0);
        }
        let csc = coo.to_csc();
        let part = block_partition(10, 3);
        let mut out = vec![0u64; 3];
        per_rank_sel_nnz(&csc, &[0, 1, 2, 3], &part, &mut out);
        assert_eq!(out.iter().sum::<u64>(), 10);
        // ranks own rows 0..4, 4..7, 7..10
        assert_eq!(out, vec![4, 3, 3]);
    }

    #[test]
    fn per_rank_nnz_resets_between_calls() {
        let mut coo = CooMatrix::new(6, 2);
        coo.push(0, 0, 1.0);
        coo.push(5, 1, 1.0);
        let csc = coo.to_csc();
        let part = block_partition(6, 2);
        let mut out = vec![99u64; 2];
        per_rank_sel_nnz(&csc, &[0], &part, &mut out);
        assert_eq!(out, vec![1, 0]);
        per_rank_sel_nnz(&csc, &[1], &part, &mut out);
        assert_eq!(out, vec![0, 1]);
    }
}
