//! SPMD distributed solvers over the thread-backed message-passing machine.
//!
//! These are real distributed implementations: each rank holds only its
//! block of `A` (1D-row partitioned for Lasso, 1D-column partitioned for
//! SVM, exactly as in §IV-B/§V), contributions cross ranks exclusively
//! through `allreduce`, and every rank replays the same coordinate
//! sampling from the shared seed — the synchronization-avoiding trick of
//! the paper.
//!
//! Each family is implemented once with general unrolling depth `s ≥ 1`;
//! `s = 1` *is* the classical per-iteration algorithm (Alg. 2 with `s = 1`
//! coincides with Alg. 1 line for line), so the classical/SA comparison is
//! a parameter sweep, not two code paths. This module holds the rank-data
//! layouts and the shared charge formulas; `crate::run` with
//! `Engine::Dist` spawns the ranks.
//!
//! Cost accounting: solvers charge the machine's cost model for the flops
//! they execute via the shared formulas in [`charges`] — the
//! virtual-cluster engine (`crate::sim`) charges the *same* formulas, so
//! small thread-machine runs validate the paper-scale virtual runs.

pub mod charges;
mod kdcd;
mod lasso;
mod svm;

pub use lasso::LassoRankData;
pub use svm::SvmRankData;
