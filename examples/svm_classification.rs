//! Train a linear SVM with synchronization-avoiding dual coordinate
//! descent, on a train/test split of synthetic binary data, and compare
//! SVM-L1 vs SVM-L2 and classical vs SA solvers.
//!
//! ```sh
//! cargo run --release -p saco --example svm_classification
//! ```

use datagen::{binary_classification, powerlaw_sparse};
use saco::problem::SvmProblem;
use saco::seq::{sa_svm, svm};
use saco::{SvmConfig, SvmLoss};
use sparsela::io::Dataset;
use sparsela::CsrMatrix;

/// Split the first `k` rows off as the training set.
fn split(ds: &Dataset, k: usize) -> (Dataset, Dataset) {
    let train = Dataset {
        a: ds.a.row_block(0, k),
        b: ds.b[..k].to_vec(),
    };
    let test = Dataset {
        a: ds.a.row_block(k, ds.a.rows()),
        b: ds.b[k..].to_vec(),
    };
    (train, test)
}

fn main() {
    // rcv1-style sparse text data: 3,000 documents, 1,200 features.
    let a: CsrMatrix = powerlaw_sparse(3000, 1200, 0.02, 0.9, 5);
    let all = binary_classification(a, 0.05, 5).dataset;
    let (train, test) = split(&all, 2400);
    println!(
        "train: {} × {}, test: {} × {}",
        train.num_points(),
        train.num_features(),
        test.num_points(),
        test.num_features()
    );

    println!("\n  method          s     duality gap   train acc   test acc   iters");
    for loss in [SvmLoss::L1, SvmLoss::L2] {
        for s in [1usize, 64] {
            let cfg = SvmConfig {
                loss,
                lambda: 1.0,
                s,
                seed: 31,
                max_iters: 200_000,
                trace_every: 2_000,
                gap_tol: Some(12.0), // 0.5% of the initial gap (λ·m = 2400)
            };
            let prob = SvmProblem::new(loss, cfg.lambda);
            let res = if s == 1 {
                svm(&train, &cfg)
            } else {
                sa_svm(&train, &cfg)
            };
            let train_acc = prob.accuracy(&train.a, &train.b, &res.x);
            let test_acc = prob.accuracy(&test.a, &test.b, &res.x);
            println!(
                "  {:<12} {:>4}     {:.3e}      {:.3}       {:.3}     {}",
                format!("SVM-{loss:?}{}", if s > 1 { " (SA)" } else { "" }),
                s,
                res.final_value(),
                train_acc,
                test_acc,
                res.iters
            );
        }
    }
    println!("\nreading: SA and classical solvers stop at the same gap after the same");
    println!("number of iterations and produce the same classifier; L2 (smoothed hinge)");
    println!("needs fewer iterations than L1.");
}
