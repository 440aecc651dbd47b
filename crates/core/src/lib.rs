//! `saco` — **S**ynchronization-**A**voiding first-order methods for sparse
//! **c**onvex **o**ptimization.
//!
//! A from-scratch Rust reproduction of Devarakonda, Fountoulakis, Demmel &
//! Mahoney, *"Avoiding Synchronization in First-Order Methods for Sparse
//! Convex Optimization"* (IPDPS 2018). The paper derives *s-step* variants
//! of randomized (block) coordinate descent by unrolling the solver
//! recurrences so that one communication round serves `s` iterations:
//! latency drops by `s`, flops and message volume grow by `s`, and — the
//! key claim — the iterate sequence is unchanged in exact arithmetic.
//!
//! # Solvers
//!
//! | module | contents |
//! |---|---|
//! | [`run`] | the one entry point: `run(RunSpec { method, engine, source })` executes any method on any engine (`Seq`, `Sim`, `Dist`, `Net`) from memory or from shards |
//! | [`seq`] | the paper's algorithms by name on the sequential engine: BCD/CD, accelerated BCD/CD (Alg. 1), their SA variants (Alg. 2, eqs. 3–9), dual CD for linear SVM (Alg. 3) and SA-SVM (Alg. 4, eqs. 14–15), kernel DCD |
//! | [`dist`] | the SPMD rank layouts (row blocks for Lasso, column blocks for SVM/K-DCD) and the shared charge formulas |
//! | [`sim`]  | virtual-cluster charging helpers for paper-scale rank counts (up to 12,288), and the simulated λ path |
//! | [`net`]  | the socket-mesh engine's telemetry and the per-rank entry `saco launch` uses — measured wall-clock time instead of modeled time |
//! | [`stream`] | out-of-core shard directories as a data source |
//!
//! # Problems
//!
//! Proximal least-squares `½‖Ax − b‖² + g(x)` with any [`prox::Regularizer`]
//! (Lasso, Elastic-Net, Group Lasso — [`prox`]), and linear SVM with L1 or
//! L2 hinge loss solved in the dual ([`problem::SvmProblem`]). Warm-started
//! regularization paths live in [`path`]; k-fold cross-validation for λ
//! selection in [`crossval`].
//!
//! # Quick start
//!
//! ```
//! use datagen::{planted_regression, uniform_sparse};
//! use saco::config::LassoConfig;
//! use saco::prox::Lasso;
//! use saco::seq::sa_accbcd;
//!
//! let a = uniform_sparse(200, 100, 0.1, 7);
//! let reg = planted_regression(a, 5, 0.1, 7);
//! let cfg = LassoConfig {
//!     mu: 4,
//!     s: 8,
//!     lambda: 0.1,
//!     seed: 1,
//!     max_iters: 400,
//!     ..LassoConfig::default()
//! };
//! let result = sa_accbcd(&reg.dataset, &Lasso::new(cfg.lambda), &cfg);
//! assert!(result.trace.final_value() < result.trace.initial_value());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod costmodel;
pub mod crossval;
pub mod dist;
pub(crate) mod exec;
pub mod net;
pub mod path;
pub mod problem;
pub mod prox;
pub mod run;
pub mod seq;
pub mod serve;
pub mod sim;
pub mod stream;
pub mod trace;
pub mod workspace;

pub use config::{KdcdConfig, KdcdTask, LassoConfig, SvmConfig, SvmLoss};
pub use exec::KdcdStats;
pub use problem::{lasso_objective, SvmProblem};
pub use prox::{ElasticNet, GroupLasso, Lasso, Regularizer};
pub use trace::{ConvergenceTrace, SolveResult, TracePoint};
pub use workspace::KernelWorkspace;
