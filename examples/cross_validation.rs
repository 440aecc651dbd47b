//! Model selection the way a practitioner would do it: cross-validate λ
//! over a warm-started path, refit at the chosen λ, and report held-out
//! error — all on SA solvers.
//!
//! ```sh
//! cargo run --release -p saco --example cross_validation
//! ```

use datagen::{planted_regression, powerlaw_sparse};
use saco::crossval::{cross_validate_lasso, mse, split_fold};
use saco::path::lasso_path;
use saco::prox::Lasso;
use saco::LassoConfig;

fn main() {
    // Power-law sparse data (news20-style) with a planted 12-sparse model;
    // raw column norms vary over orders of magnitude.
    let a_raw = powerlaw_sparse(1500, 400, 0.03, 1.1, 77);
    let reg_data = planted_regression(a_raw, 12, 0.3, 77);

    // 1. No column normalization: each block step is sized by the sampled
    //    block's own Gram (its Lipschitz constant), so scaling columns
    //    would only re-weight λ across features.
    let ds = &reg_data.dataset;
    println!(
        "problem: {} × {}, {} nnz",
        ds.num_points(),
        ds.num_features(),
        ds.a.nnz()
    );

    // 2. 5-fold CV over a 12-point λ path, warm-started SA-BCD per fold.
    let cfg = LassoConfig {
        mu: 8,
        s: 16,
        seed: 5,
        max_iters: 1200,
        trace_every: 0,
        ..Default::default()
    };
    let cv = cross_validate_lasso(ds, &cfg, 5, 12, 0.005, Lasso::new);
    println!("\n  λ             mean held-out MSE   ± std err");
    for p in &cv.points {
        println!(
            "  {:.4e}    {:>14.4}      {:.4}",
            p.lambda, p.mean_mse, p.std_error
        );
    }
    let best = cv.best_lambda();
    let one_se = cv.lambda_1se();
    println!("\nbest λ = {best:.4e}; 1-SE λ = {one_se:.4e} (sparser, within noise of best)");

    // 3. Refit at the 1-SE λ on a train split and evaluate on the
    //    held-out part.
    let fold_of = saco::crossval::assign_folds(ds.num_points(), 5, 99);
    let (train, test) = split_fold(ds, &fold_of, 0);
    let path = lasso_path(&train, &cfg, 12, 0.005, Lasso::new);
    let chosen = path
        .points
        .iter()
        .min_by(|a, b| {
            (a.lambda - one_se)
                .abs()
                .partial_cmp(&(b.lambda - one_se).abs())
                .expect("finite")
        })
        .expect("nonempty path");
    println!(
        "\nrefit at λ = {:.4e}: {} nonzeros, held-out MSE {:.4} (null-model MSE {:.4})",
        chosen.lambda,
        chosen.nonzeros,
        mse(&test, &chosen.x),
        mse(&test, &vec![0.0; ds.num_features()])
    );
    let true_support: Vec<usize> = reg_data
        .x_star
        .iter()
        .enumerate()
        .filter(|(_, v)| v.abs() > 0.0)
        .map(|(i, _)| i)
        .collect();
    let hits = true_support
        .iter()
        .filter(|&&j| chosen.x[j].abs() > 1e-8)
        .count();
    println!(
        "planted-support recovery at the chosen λ: {hits}/{} features found",
        true_support.len()
    );
}
