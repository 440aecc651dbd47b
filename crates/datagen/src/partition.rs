//! Contiguous 1D partitioners and load-balance diagnostics.
//!
//! The paper partitions `A` 1D-row-wise for Lasso ("it results in the
//! lowest per iteration communication cost of O(log P)") and 1D-column-wise
//! for SVM, and observes that a naive split of skewed data creates
//! stragglers ("load imbalance decreases the effective flops rate", §VI).
//! This module provides both the naive equal-count split and an
//! nnz-balanced split, plus the imbalance metric the simulator uses.

/// A contiguous partition of `[0, n)` into `p` ranges, stored as `p + 1`
/// boundaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    bounds: Vec<usize>,
}

impl Partition {
    /// Build from explicit boundaries (must start at 0, be monotone, and
    /// end at the domain size).
    pub fn from_bounds(bounds: Vec<usize>) -> Self {
        assert!(bounds.len() >= 2, "need at least one part");
        assert_eq!(bounds[0], 0, "partition must start at 0");
        for w in bounds.windows(2) {
            assert!(w[0] <= w[1], "boundaries must be monotone");
        }
        Self { bounds }
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Size of the partitioned domain.
    pub fn domain(&self) -> usize {
        *self.bounds.last().expect("nonempty bounds")
    }

    /// Half-open range of part `r`.
    pub fn range(&self, r: usize) -> std::ops::Range<usize> {
        self.bounds[r]..self.bounds[r + 1]
    }

    /// Which part owns index `i`.
    pub fn owner(&self, i: usize) -> usize {
        assert!(i < self.domain(), "index {i} outside domain");
        // partition_point gives the first boundary > i; owner is one less.
        self.bounds.partition_point(|&b| b <= i) - 1
    }

    /// Borrow the boundary array.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }
}

/// Equal-count contiguous partition of `[0, n)` into `p` parts (the naive
/// layout: sizes differ by at most one).
pub fn block_partition(n: usize, p: usize) -> Partition {
    assert!(p > 0, "need at least one part");
    let base = n / p;
    let rem = n % p;
    let mut bounds = Vec::with_capacity(p + 1);
    let mut acc = 0;
    bounds.push(0);
    for r in 0..p {
        acc += base + usize::from(r < rem);
        bounds.push(acc);
    }
    Partition::from_bounds(bounds)
}

/// Weight-balanced contiguous partition: greedily cuts `[0, n)` so each
/// part's total weight is close to `Σw / p`. Used with per-row (or
/// per-column) nnz counts to fix the stragglers the paper describes.
pub fn balanced_partition(weights: &[u64], p: usize) -> Partition {
    assert!(p > 0, "need at least one part");
    let n = weights.len();
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    let mut bounds = Vec::with_capacity(p + 1);
    bounds.push(0);
    // Cut boundary k where the weight prefix first reaches k/p of the
    // total. Parts may be empty when p exceeds the item count.
    let mut acc = 0u128;
    let mut i = 0usize;
    for k in 1..p {
        let target = total * k as u128 / p as u128;
        while i < n && acc < target {
            acc += weights[i] as u128;
            i += 1;
        }
        bounds.push(i);
    }
    bounds.push(n);
    Partition::from_bounds(bounds)
}

/// 1D-row partition of a design matrix — the Lasso layout (the paper
/// partitions `A` row-wise for Lasso, §V). `balanced` splits by per-row
/// nnz to fix the §VI stragglers; otherwise an equal-row-count split.
///
/// Single home for the helper the simulated engine and the socket mesh
/// both use, so they cannot drift apart on data placement.
pub fn row_partition(a: &sparsela::CsrMatrix, p: usize, balanced: bool) -> Partition {
    if balanced {
        let weights: Vec<u64> = a.row_nnz_counts().iter().map(|&c| c as u64).collect();
        balanced_partition(&weights, p)
    } else {
        block_partition(a.rows(), p)
    }
}

/// 1D-column partition of a design matrix — the SVM layout (dual
/// coordinates live with their columns). `balanced` splits by per-column
/// nnz; otherwise an equal-column-count split.
pub fn col_partition(a: &sparsela::CsrMatrix, p: usize, balanced: bool) -> Partition {
    if balanced {
        let csc = a.to_csc();
        let weights: Vec<u64> = (0..a.cols()).map(|j| csc.col_nnz(j) as u64).collect();
        balanced_partition(&weights, p)
    } else {
        block_partition(a.cols(), p)
    }
}

/// Nnz-aware shard planner: cut `[0, len)` into at most `nshards`
/// contiguous shards whose nnz totals are as even as the slice granularity
/// allows. This extends [`balanced_partition`]'s greedy prefix walk with
/// *nearest-prefix rounding*: each boundary lands on whichever side of the
/// ideal `k·Σw/nshards` target is closer, instead of always overshooting —
/// on power-law slice lengths that halves the worst shard's excess, which
/// is what keeps the out-of-core cache's per-block working set predictable
/// (`saco shard` plans with this; the ratio ships as the
/// `shard.plan.imbalance` gauge).
///
/// Returns writer-ready bounds (`bounds[k]..bounds[k+1]` is shard `k`):
/// strictly increasing, starting at 0, ending at `slice_nnz.len()`. Every
/// shard holds at least one slice, so fewer than `nshards` shards come
/// back only when there are fewer slices than that.
///
/// Slices are never split, so the balance holds only when no slice is
/// heavier than the per-shard target `Σw/nshards`; each heavier one is a
/// shard of its own. On `lasso_stream`'s power-law matrix (200 000
/// columns, 4 096 shards, a target of 975 nnz and a head column of
/// 91 608) 367 columns exceed the target, 2 476 of the 4 096 shards hold
/// a single column, and the max/min shard nnz ratio is 889.
pub fn shard_plan(slice_nnz: &[u64], nshards: usize) -> Vec<usize> {
    let n = slice_nnz.len();
    assert!(n > 0, "cannot shard an empty matrix");
    let p = nshards.max(1).min(n);
    let total: u128 = slice_nnz.iter().map(|&w| w as u128).sum();
    let mut bounds = Vec::with_capacity(p + 1);
    bounds.push(0usize);
    let mut acc = 0u128;
    let mut i = 0usize;
    for k in 1..p {
        let target = total * k as u128 / p as u128;
        // This shard keeps at least one slice; each remaining shard needs
        // one too.
        let min_i = bounds[k - 1] + 1;
        let max_i = n - (p - k);
        while i < min_i {
            acc += slice_nnz[i] as u128;
            i += 1;
        }
        while i < max_i {
            let next = acc + slice_nnz[i] as u128;
            let under = target.saturating_sub(acc);
            let over = next.saturating_sub(target);
            // Take slice i when that lands the prefix no further from the
            // target than stopping short would.
            if next <= target || over <= under {
                acc = next;
                i += 1;
            } else {
                break;
            }
        }
        bounds.push(i);
    }
    bounds.push(n);
    bounds
}

/// Max/min shard-nnz ratio of a planned cut (1.0 = perfectly balanced;
/// `inf` when some shard holds zero nnz) — the figure the
/// `shard.plan.imbalance` gauge reports. The planner regressions pin it
/// at ≤ 1.10 on inputs whose heaviest slice fits under the per-shard
/// target; a slice over the target sets a floor no cut can lower (889 on
/// `lasso_stream`'s plan, see [`shard_plan`]).
pub fn shard_nnz_ratio(slice_nnz: &[u64], bounds: &[usize]) -> f64 {
    assert!(bounds.len() >= 2, "need at least one shard");
    let mut max_w = 0u64;
    let mut min_w = u64::MAX;
    for w in bounds.windows(2) {
        let s: u64 = slice_nnz[w[0]..w[1]].iter().sum();
        max_w = max_w.max(s);
        min_w = min_w.min(s);
    }
    max_w as f64 / min_w as f64
}

/// Per-slice nnz of any major-sliced matrix — the planner's weight input
/// (columns of a [`sparsela::CscMatrix`], rows of a
/// [`sparsela::CsrMatrix`]).
pub fn slice_nnz<M: sparsela::MajorSlices>(m: &M) -> Vec<u64> {
    (0..m.major_len())
        .map(|k| m.slice(k).nnz() as u64)
        .collect()
}

/// Load-imbalance factor of a partition under the given weights:
/// `max_part_weight / mean_part_weight` (1.0 = perfectly balanced).
pub fn imbalance_factor(weights: &[u64], part: &Partition) -> f64 {
    assert_eq!(weights.len(), part.domain(), "weights/domain mismatch");
    let p = part.parts();
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mut max_w = 0u64;
    for r in 0..p {
        let w: u64 = weights[part.range(r)].iter().sum();
        max_w = max_w.max(w);
    }
    max_w as f64 * p as f64 / total as f64
}

/// Accumulate, per part, how many *distinct* `sorted_indices` fall in each
/// range: `out[r] += |{ i ∈ sorted_indices : i ∈ range(r) }|`.
///
/// This is the hot helper the virtual-cluster solvers use to attribute a
/// sampled column's nonzeros to ranks; it walks the index list once.
///
/// `sorted_indices` must be non-decreasing — checked in release builds too
/// (a silent miscount here would skew every per-rank flop charge).
/// Duplicate indices are counted once, matching the set semantics above;
/// CSR/CSC index slices are strictly increasing, so the usual callers never
/// hit the dedup path.
///
/// # Panics
/// Panics if `out.len() != part.parts()` or the indices are not sorted.
pub fn bucket_counts(sorted_indices: &[usize], part: &Partition, out: &mut [u64]) {
    assert_eq!(
        out.len(),
        part.parts(),
        "output length must equal part count"
    );
    let bounds = part.bounds();
    let mut r = 0usize;
    let mut prev = usize::MAX; // sentinel: no index seen yet
    for &i in sorted_indices {
        assert!(
            prev == usize::MAX || prev <= i,
            "bucket_counts requires sorted indices ({prev} before {i})"
        );
        if prev == i {
            continue; // duplicate: already attributed
        }
        prev = i;
        while i >= bounds[r + 1] {
            r += 1;
        }
        out[r] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_partition_covers_domain() {
        for (n, p) in [(10, 3), (7, 7), (5, 8), (0, 2), (100, 1)] {
            let part = block_partition(n, p);
            assert_eq!(part.parts(), p);
            assert_eq!(part.domain(), n);
            let covered: usize = (0..p).map(|r| part.range(r).len()).sum();
            assert_eq!(covered, n);
            // sizes differ by at most one
            let sizes: Vec<usize> = (0..p).map(|r| part.range(r).len()).collect();
            let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(mx - mn <= 1);
        }
    }

    #[test]
    fn owner_is_consistent_with_range() {
        let part = block_partition(17, 4);
        for r in 0..4 {
            for i in part.range(r) {
                assert_eq!(part.owner(i), r);
            }
        }
    }

    #[test]
    fn balanced_partition_beats_naive_on_skewed_weights() {
        // geometric weights: first rows hold most of the mass
        let weights: Vec<u64> = (0..64).map(|i| 1u64 << (12 - (i / 6).min(12))).collect();
        let p = 8;
        let naive = block_partition(64, p);
        let balanced = balanced_partition(&weights, p);
        let f_naive = imbalance_factor(&weights, &naive);
        let f_bal = imbalance_factor(&weights, &balanced);
        assert!(
            f_bal < f_naive,
            "balanced {f_bal} should beat naive {f_naive}"
        );
        assert!(f_bal < 2.5, "balanced imbalance {f_bal}");
        assert_eq!(balanced.domain(), 64);
        assert_eq!(balanced.parts(), p);
    }

    #[test]
    fn balanced_partition_uniform_weights_is_near_block() {
        let weights = vec![3u64; 40];
        let part = balanced_partition(&weights, 5);
        let f = imbalance_factor(&weights, &part);
        assert!(f <= 1.15, "imbalance {f}");
    }

    #[test]
    fn balanced_partition_more_parts_than_items() {
        let weights = vec![1u64; 3];
        let part = balanced_partition(&weights, 5);
        assert_eq!(part.parts(), 5);
        assert_eq!(part.domain(), 3);
        let covered: usize = (0..5).map(|r| part.range(r).len()).sum();
        assert_eq!(covered, 3);
    }

    fn csr_from_rows(rows: usize, cols: usize, data: &[Vec<(usize, f64)>]) -> sparsela::CsrMatrix {
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for row in data {
            for &(j, v) in row {
                indices.push(j);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        sparsela::CsrMatrix::from_parts(rows, cols, indptr, indices, values)
    }

    #[test]
    fn row_partition_balanced_vs_block_split() {
        // Skewed rows: early rows dense, late rows nearly empty. The
        // block split must straggler on rank 0; the balanced split must
        // cut the dense head finer than the sparse tail.
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
        for i in 0..32 {
            let nnz = if i < 8 { 16 } else { 1 };
            rows.push((0..nnz).map(|j| (j, 1.0)).collect());
        }
        let a = csr_from_rows(32, 16, &rows);
        let weights: Vec<u64> = a.row_nnz_counts().iter().map(|&c| c as u64).collect();

        let naive = row_partition(&a, 4, false);
        assert_eq!(naive, block_partition(32, 4), "block split is equal-count");

        let balanced = row_partition(&a, 4, true);
        assert_eq!(balanced, balanced_partition(&weights, 4));
        assert_eq!(balanced.domain(), 32);
        assert!(
            imbalance_factor(&weights, &balanced) < imbalance_factor(&weights, &naive),
            "nnz-balanced split must beat the equal-count split on skewed rows"
        );
        // The dense head (8 rows × 16 nnz = 128 of 152 nnz) spans most cuts.
        assert!(balanced.range(0).len() < naive.range(0).len());
    }

    #[test]
    fn col_partition_balanced_follows_column_nnz() {
        // One hot column (index 0) carries almost all the mass.
        let rows: Vec<Vec<(usize, f64)>> = (0..24)
            .map(|i| {
                if i < 20 {
                    vec![(0, 1.0)]
                } else {
                    vec![(1 + (i - 20) % 7, 1.0)]
                }
            })
            .collect();
        let a = csr_from_rows(24, 8, &rows);
        let naive = col_partition(&a, 4, false);
        assert_eq!(naive, block_partition(8, 4));
        let balanced = col_partition(&a, 4, true);
        assert_eq!(balanced.domain(), 8);
        assert_eq!(balanced.parts(), 4);
        // The hot column must sit alone in its part under balancing.
        assert_eq!(balanced.range(0).len(), 1);
    }

    #[test]
    fn shard_plan_balances_powerlaw_slices_within_ten_percent() {
        // The planner regression the out-of-core layer depends on:
        // power-law slice lengths must shard to a max/min nnz ratio ≤ 1.10
        // whenever that is achievable at slice granularity — i.e. no slice
        // exceeds the per-shard target `total/p`. The exponent here keeps
        // the head at ~1/4 of one shard. A head slice over the target
        // cannot be split, so no planner meets 1.10 there: `lasso_stream`'s
        // plan reads 889, with 2 476 of its 4 096 shards a single column.
        let weights: Vec<u64> = (0..4096)
            .map(|i| (20_000.0 / (i as f64 + 1.0).powf(0.5)).ceil() as u64)
            .collect();
        let bounds = shard_plan(&weights, 16);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&4096));
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let ratio = shard_nnz_ratio(&weights, &bounds);
        assert!(ratio <= 1.10, "shard nnz ratio {ratio} > 1.10");
    }

    #[test]
    fn shard_plan_on_real_powerlaw_matrix_beats_equal_count() {
        // End-to-end against the synthetic generator the benches use.
        let a = crate::synth::powerlaw_sparse(2048, 1024, 0.02, 0.7, 7);
        let csc = a.to_csc();
        let weights = slice_nnz(&csc);
        let bounds = shard_plan(&weights, 8);
        let ratio = shard_nnz_ratio(&weights, &bounds);
        assert!(ratio <= 1.10, "planned ratio {ratio} > 1.10");
        let naive = block_partition(1024, 8);
        let naive_ratio = shard_nnz_ratio(&weights, naive.bounds());
        assert!(
            ratio < naive_ratio,
            "planned {ratio} must beat equal-count {naive_ratio}"
        );
    }

    #[test]
    fn shard_plan_degenerate_shapes() {
        // More shards than slices: one slice per shard.
        assert_eq!(shard_plan(&[5, 5], 8), vec![0, 1, 2]);
        // One shard swallows everything.
        assert_eq!(shard_plan(&[1, 2, 3], 1), vec![0, 3]);
        // A dominant head slice still leaves every shard nonempty.
        let bounds = shard_plan(&[1_000_000, 1, 1, 1], 4);
        assert_eq!(bounds, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn imbalance_of_perfect_split_is_one() {
        let weights = vec![2u64; 12];
        let part = block_partition(12, 4);
        assert!((imbalance_factor(&weights, &part) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_counts_attributes_indices() {
        let part = Partition::from_bounds(vec![0, 3, 7, 10]);
        let mut out = vec![0u64; 3];
        bucket_counts(&[0, 2, 3, 6, 9], &part, &mut out);
        assert_eq!(out, vec![2, 2, 1]);
        // accumulates across calls
        bucket_counts(&[1], &part, &mut out);
        assert_eq!(out, vec![3, 2, 1]);
    }

    /// Runs in release builds too: duplicates are counted once (set
    /// semantics) instead of silently inflating the histogram.
    #[test]
    fn bucket_counts_dedups_duplicates_in_release() {
        let part = Partition::from_bounds(vec![0, 3, 7, 10]);
        let mut out = vec![0u64; 3];
        bucket_counts(&[0, 0, 0, 2, 3, 3, 9, 9], &part, &mut out);
        assert_eq!(out, vec![2, 1, 1]);
        // and the dedup must not disturb accumulation across calls
        bucket_counts(&[2, 2], &part, &mut out);
        assert_eq!(out, vec![3, 1, 1]);
    }

    /// Runs in release builds too: the sortedness contract is a real
    /// assert now, not a debug_assert.
    #[test]
    #[should_panic(expected = "requires sorted indices")]
    fn bucket_counts_rejects_unsorted_in_release() {
        let part = block_partition(10, 2);
        let mut out = vec![0u64; 2];
        bucket_counts(&[5, 1], &part, &mut out);
    }

    #[test]
    fn bucket_counts_empty_input() {
        let part = block_partition(10, 2);
        let mut out = vec![0u64; 2];
        bucket_counts(&[], &part, &mut out);
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "must start at 0")]
    fn bad_bounds_panic() {
        Partition::from_bounds(vec![1, 5]);
    }
}
