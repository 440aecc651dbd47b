//! Synthetic matrix and dataset generators.
//!
//! Everything is a deterministic function of a `u64` seed (via the
//! workspace RNG), so experiments are reproducible and every rank of a
//! simulated machine can regenerate identical data.

use sparsela::io::Dataset;
use sparsela::{CooMatrix, CsrMatrix};
use xrng::{rng_from_seed, sample_without_replacement, Rng};

/// A regression dataset with its planted ground truth.
#[derive(Clone, Debug)]
pub struct RegressionData {
    /// The design matrix and responses (`b = A·x⋆ + noise`).
    pub dataset: Dataset,
    /// The planted sparse coefficient vector `x⋆`.
    pub x_star: Vec<f64>,
}

/// A binary-classification dataset with its planted separator.
#[derive(Clone, Debug)]
pub struct ClassificationData {
    /// The design matrix and ±1 labels.
    pub dataset: Dataset,
    /// The planted hyperplane normal `w⋆`.
    pub w_star: Vec<f64>,
}

/// Uniformly sparse matrix: each row draws `Binomial(cols, density)`-many
/// distinct column positions (sampled without replacement) with standard
/// normal values. Matches the paper's Table I assumption of "`fmn` non-zeros
/// that are uniformly distributed".
pub fn uniform_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
    assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
    let mut rng = rng_from_seed(seed);
    let mut coo = CooMatrix::new(rows, cols);
    for i in 0..rows {
        let k = binomial(&mut rng, cols, density);
        let mut sel = sample_without_replacement(&mut rng, cols, k);
        sel.sort_unstable();
        for j in sel {
            coo.push(i, j, rng.next_gaussian());
        }
    }
    coo.to_csr()
}

/// Power-law sparse matrix: column popularity follows a Zipf(`skew`)
/// distribution, so a few features are very common and most are rare —
/// the structure of bag-of-words / URL-feature data (news20, rcv1, url),
/// and the source of the load imbalance the paper reports for 1D-column
/// partitioned SVM (§VI: "load balancing issues ... for rcv1 and news20").
pub fn powerlaw_sparse(rows: usize, cols: usize, density: f64, skew: f64, seed: u64) -> CsrMatrix {
    assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
    assert!(skew >= 0.0, "skew must be nonnegative");
    let mut rng = rng_from_seed(seed);
    // Cumulative Zipf weights over columns.
    let mut cdf = Vec::with_capacity(cols);
    let mut acc = 0.0f64;
    for j in 0..cols {
        acc += 1.0 / ((j + 1) as f64).powf(skew);
        cdf.push(acc);
    }
    let total = acc;
    let mean_row_nnz = density * cols as f64;
    let mut coo = CooMatrix::new(rows, cols);
    let mut row_cols: Vec<usize> = Vec::new();
    for i in 0..rows {
        // Row lengths are themselves dispersed (documents vary in length):
        // draw from a geometric-ish mixture around the mean.
        let target = ((mean_row_nnz * (0.25 + 1.5 * rng.next_f64())).round() as usize).max(1);
        row_cols.clear();
        // Sample with rejection of duplicates; the duplicate rate is low
        // unless target approaches cols, where we fall back to uniform.
        if target * 4 >= cols {
            row_cols.extend(sample_without_replacement(&mut rng, cols, target.min(cols)));
        } else {
            let mut attempts = 0;
            while row_cols.len() < target && attempts < 20 * target {
                let u = rng.next_f64() * total;
                let j = cdf.partition_point(|&c| c < u).min(cols - 1);
                if !row_cols.contains(&j) {
                    row_cols.push(j);
                }
                attempts += 1;
            }
        }
        row_cols.sort_unstable();
        for &j in row_cols.iter() {
            coo.push(i, j, rng.next_gaussian());
        }
    }
    coo.to_csr()
}

/// Deterministic per-column nonzero counts for a power-law matrix that is
/// generated column-at-a-time at out-of-core scale.
///
/// Column `j` receives a Zipf(`skew`) share of `rows·cols·density` total
/// nonzeros, clamped to `[1, rows]`. This is a pure function of the shape
/// (no RNG), so the shard planner can consume the histogram *before* any
/// matrix data exists — the nnz-aware plan (`datagen::partition::shard_plan`)
/// and the streamed generation pass then agree exactly on every column's
/// length without a scan.
pub fn powerlaw_col_nnz(rows: usize, cols: usize, density: f64, skew: f64) -> Vec<u64> {
    assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
    assert!(skew >= 0.0, "skew must be nonnegative");
    if rows == 0 || cols == 0 || density == 0.0 {
        return vec![0; cols];
    }
    let target = density * rows as f64 * cols as f64;
    let weights: Vec<f64> = (0..cols)
        .map(|j| 1.0 / ((j + 1) as f64).powf(skew))
        .collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .map(|w| ((w / total * target).round() as u64).clamp(1, rows as u64))
        .collect()
}

/// One column of a streamed power-law matrix: `nnz` sorted distinct row
/// indices with standard-normal values, appended into caller-owned buffers
/// (cleared first) so a generation loop over millions of columns allocates
/// nothing.
///
/// The generator is seeded per column from `(seed, col)`, so each column is
/// a pure function of those two values: columns can be produced in any
/// order, in parallel, or re-produced later for verification, and the
/// result is bitwise identical every time. Distinct indices come from a
/// batched draw→sort→dedup loop (equivalent to sequential rejection of
/// duplicates, hence a uniform `nnz`-subset) which stays `O(nnz log nnz)`
/// even for the clamped head columns where Floyd's quadratic duplicate
/// scan would be intractable.
pub fn powerlaw_column_into(
    seed: u64,
    rows: usize,
    col: usize,
    nnz: usize,
    indices: &mut Vec<usize>,
    values: &mut Vec<f64>,
) {
    indices.clear();
    values.clear();
    let k = nnz.min(rows);
    if k == 0 {
        return;
    }
    let mut rng = rng_from_seed(seed ^ (col as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    if k * 4 >= rows {
        // Dense-ish column: partial Fisher–Yates beats rejection here.
        let mut sel = sample_without_replacement(&mut rng, rows, k);
        sel.sort_unstable();
        indices.extend(sel);
    } else {
        indices.reserve(k);
        while indices.len() < k {
            for _ in 0..(k - indices.len()) {
                indices.push(rng.next_index(rows));
            }
            indices.sort_unstable();
            indices.dedup();
        }
    }
    values.extend(indices.iter().map(|_| rng.next_gaussian()));
}

/// Fully dense Gaussian matrix in CSR form (epsilon/gisette/leu/duke class),
/// drawn row by row straight into the values it is stored as (a draw of
/// exactly zero, 2⁻⁵³ likely, would be dropped like any zero).
pub fn dense_gaussian(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
    let mut rng = rng_from_seed(seed);
    let values = (0..rows * cols).map(|_| rng.next_gaussian()).collect();
    CsrMatrix::from_row_major(rows, cols, values)
}

/// Planted sparse regression: `b = A x⋆ + σ·noise` with `support`-sparse
/// `x⋆`. The Lasso problems in §III–IV are solved on data of this type so
/// that objective decrease and support recovery can both be checked.
pub fn planted_regression(
    a: CsrMatrix,
    support: usize,
    noise_sigma: f64,
    seed: u64,
) -> RegressionData {
    let n = a.cols();
    assert!(support <= n, "support larger than feature count");
    let mut rng = rng_from_seed(seed ^ 0x9E37_79B9);
    let mut x_star = vec![0.0; n];
    for j in sample_without_replacement(&mut rng, n, support) {
        // Coefficients bounded away from zero so the support is detectable.
        let sign = if rng.next_bool(0.5) { 1.0 } else { -1.0 };
        x_star[j] = sign * (1.0 + rng.next_f64());
    }
    let mut b = a.spmv(&x_star);
    for bi in &mut b {
        *bi += noise_sigma * rng.next_gaussian();
    }
    RegressionData {
        dataset: Dataset { a, b },
        x_star,
    }
}

/// Planted binary classification: labels `sign(A w⋆ + margin-noise)` with a
/// dense Gaussian separator; a `flip_prob` fraction of labels is flipped so
/// the problem is not trivially separable (support vectors exist).
pub fn binary_classification(a: CsrMatrix, flip_prob: f64, seed: u64) -> ClassificationData {
    let n = a.cols();
    let mut rng = rng_from_seed(seed ^ 0x5851_F42D);
    let w_star: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
    let scores = a.spmv(&w_star);
    let b: Vec<f64> = scores
        .iter()
        .map(|&s| {
            let y = if s >= 0.0 { 1.0 } else { -1.0 };
            if rng.next_bool(flip_prob) {
                -y
            } else {
                y
            }
        })
        .collect();
    ClassificationData {
        dataset: Dataset { a, b },
        w_star,
    }
}

/// Binomial sampler: inversion for small `n·p`, normal approximation for
/// large (adequate for row-length generation; clamped to `[0, n]`).
fn binomial(rng: &mut Rng, n: usize, p: f64) -> usize {
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    if mean < 30.0 {
        // Direct inversion via waiting times (geometric skips) — O(mean).
        let mut count = 0usize;
        let mut i = 0usize;
        let log_q = (1.0 - p).ln();
        loop {
            let u = rng.next_f64().max(f64::MIN_POSITIVE);
            let skip = (u.ln() / log_q).floor() as usize;
            i += skip + 1;
            if i > n {
                break;
            }
            count += 1;
        }
        count
    } else {
        let sd = (mean * (1.0 - p)).sqrt();
        let draw = mean + sd * rng.next_gaussian();
        draw.round().clamp(0.0, n as f64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sparse_density_is_close() {
        let a = uniform_sparse(400, 300, 0.05, 1);
        let d = a.density();
        assert!((d - 0.05).abs() < 0.01, "density {d}");
        assert_eq!((a.rows(), a.cols()), (400, 300));
    }

    #[test]
    fn uniform_sparse_is_deterministic() {
        assert_eq!(
            uniform_sparse(50, 40, 0.1, 7),
            uniform_sparse(50, 40, 0.1, 7)
        );
        assert_ne!(
            uniform_sparse(50, 40, 0.1, 7),
            uniform_sparse(50, 40, 0.1, 8)
        );
    }

    #[test]
    fn powerlaw_has_skewed_columns() {
        let a = powerlaw_sparse(2000, 500, 0.02, 1.1, 2).to_csc();
        let mut nnz: Vec<usize> = (0..500).map(|j| a.col_nnz(j)).collect();
        let total: usize = nnz.iter().sum();
        nnz.sort_unstable_by(|x, y| y.cmp(x));
        let top_decile: usize = nnz[..50].iter().sum();
        assert!(
            top_decile as f64 > 0.35 * total as f64,
            "top 10% of columns hold {top_decile}/{total} nnz — not skewed"
        );
        // density still in the right ballpark
        let d = total as f64 / (2000.0 * 500.0);
        assert!((d - 0.02).abs() < 0.01, "density {d}");
    }

    #[test]
    fn dense_gaussian_is_dense_and_standardish() {
        let a = dense_gaussian(100, 50, 3);
        assert_eq!(a.nnz(), 5000);
        let norm_sq: f64 = a.row_norms_sq().iter().sum();
        let mean_sq = norm_sq / 5000.0;
        assert!((mean_sq - 1.0).abs() < 0.1, "E[x²] = {mean_sq}");
    }

    #[test]
    fn planted_regression_residual_is_noise_sized() {
        let a = dense_gaussian(200, 50, 4);
        let reg = planted_regression(a, 5, 0.1, 4);
        let support = reg.x_star.iter().filter(|v| v.abs() > 0.0).count();
        assert_eq!(support, 5);
        let pred = reg.dataset.a.spmv(&reg.x_star);
        let res: f64 = pred
            .iter()
            .zip(&reg.dataset.b)
            .map(|(p, b)| (p - b) * (p - b))
            .sum::<f64>()
            / 200.0;
        // residual variance ≈ σ² = 0.01
        assert!(res < 0.03, "mean squared residual {res}");
    }

    #[test]
    fn classification_labels_match_planted_model_mostly() {
        let a = dense_gaussian(500, 30, 5);
        let cls = binary_classification(a, 0.05, 5);
        let scores = cls.dataset.a.spmv(&cls.w_star);
        let agree = scores
            .iter()
            .zip(&cls.dataset.b)
            .filter(|(s, b)| (s.signum() - **b).abs() < 1e-9)
            .count();
        let frac = agree as f64 / 500.0;
        assert!(frac > 0.9, "agreement {frac}");
        assert!(cls.dataset.b.iter().all(|&b| b == 1.0 || b == -1.0));
    }

    #[test]
    fn powerlaw_col_nnz_is_a_clamped_zipf_histogram() {
        let nnz = powerlaw_col_nnz(1000, 400, 0.02, 0.8);
        assert_eq!(nnz.len(), 400);
        // Monotone nonincreasing (Zipf by column index) and clamped.
        assert!(nnz.windows(2).all(|w| w[0] >= w[1]));
        assert!(nnz.iter().all(|&k| (1..=1000).contains(&k)));
        let total: u64 = nnz.iter().sum();
        let want = 0.02 * 1000.0 * 400.0;
        assert!(
            (total as f64 - want).abs() < 0.1 * want,
            "total nnz {total} vs target {want}"
        );
        // Head column is clamped to rows when skew concentrates hard enough.
        let hard = powerlaw_col_nnz(100, 10_000, 0.05, 1.2);
        assert_eq!(hard[0], 100);
    }

    #[test]
    fn powerlaw_column_is_sorted_distinct_and_reproducible() {
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        for &(rows, col, nnz) in &[(1000usize, 0usize, 900usize), (1000, 17, 40), (8, 3, 8)] {
            powerlaw_column_into(42, rows, col, nnz, &mut idx, &mut val);
            assert_eq!(idx.len(), nnz.min(rows));
            assert_eq!(val.len(), idx.len());
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
            assert!(idx.iter().all(|&i| i < rows));
            let (mut idx2, mut val2) = (Vec::new(), Vec::new());
            powerlaw_column_into(42, rows, col, nnz, &mut idx2, &mut val2);
            assert_eq!(idx, idx2);
            assert!(val
                .iter()
                .zip(&val2)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        // Different column or seed → different draw.
        powerlaw_column_into(42, 1000, 17, 40, &mut idx, &mut val);
        let (mut idx3, mut val3) = (Vec::new(), Vec::new());
        powerlaw_column_into(42, 1000, 18, 40, &mut idx3, &mut val3);
        assert_ne!(idx, idx3);
        powerlaw_column_into(43, 1000, 17, 40, &mut idx3, &mut val3);
        assert_ne!((&idx, &val), (&idx3, &val3));
    }

    #[test]
    fn streamed_columns_assemble_into_a_valid_csc() {
        let (rows, cols) = (300, 120);
        let nnz = powerlaw_col_nnz(rows, cols, 0.03, 0.7);
        let mut indptr = vec![0usize];
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        let (mut ci, mut cv) = (Vec::new(), Vec::new());
        for (j, &n) in nnz.iter().enumerate() {
            powerlaw_column_into(9, rows, j, n as usize, &mut ci, &mut cv);
            indices.extend_from_slice(&ci);
            values.extend_from_slice(&cv);
            indptr.push(indices.len());
        }
        let a = sparsela::CscMatrix::from_parts(rows, cols, indptr, indices, values);
        assert_eq!(a.nnz() as u64, nnz.iter().sum::<u64>());
        for (j, &n) in nnz.iter().enumerate() {
            assert_eq!(a.col_nnz(j) as u64, n);
        }
    }

    #[test]
    fn binomial_moments() {
        let mut rng = rng_from_seed(6);
        // small-mean path
        let n_trials = 20_000;
        let mut sum = 0usize;
        for _ in 0..n_trials {
            sum += binomial(&mut rng, 100, 0.05);
        }
        let mean = sum as f64 / n_trials as f64;
        assert!((mean - 5.0).abs() < 0.15, "small-path mean {mean}");
        // large-mean path
        let mut sum = 0usize;
        for _ in 0..n_trials {
            sum += binomial(&mut rng, 1000, 0.5);
        }
        let mean = sum as f64 / n_trials as f64;
        assert!((mean - 500.0).abs() < 2.0, "large-path mean {mean}");
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = rng_from_seed(7);
        assert_eq!(binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(binomial(&mut rng, 100, 1.0), 100);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
    }
}
