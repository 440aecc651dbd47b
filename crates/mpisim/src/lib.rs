//! `mpisim` — a simulated distributed-memory machine.
//!
//! The paper evaluates on a Cray XC30 with MPI on up to 12,288 cores. That
//! hardware is not available here and Rust MPI bindings are thin, so this
//! crate provides the substitute substrate (see DESIGN.md §3): the classic
//! α-β-γ machine model that the paper itself uses for its Table I analysis,
//! with two interchangeable execution engines.
//!
//! * [`ThreadMachine`] — a *real* SPMD message-passing machine: one OS
//!   thread per rank, typed channels, and the one collective the paper's
//!   solvers use (Fig. 1 step 4) — a deterministic binomial-tree
//!   sum-allreduce of one packed buffer, issued as start / wait so local
//!   work can overlap it. Data physically moves between ranks exactly as
//!   it would under MPI. Used for modest `P` (tests, examples, and
//!   validating the virtual engine).
//! * [`VirtualCluster`] — an analytic engine for paper-scale `P`: per-rank
//!   virtual clocks advanced by the same cost formulas, with *exact*
//!   per-rank flop attribution (so load imbalance / stragglers are modeled,
//!   matching the paper's §VI observation) but without spawning threads.
//!   The solvers compute numerics once and charge costs as they go.
//!
//! Neither engine accounts time itself: every rule — compute charge and
//! chaos skew, stall and jitter at collective entry, the allreduce's
//! `max(comp, comm)` settlement, checkpoint recovery, critical-rank
//! selection — is written once in the private rank ledger. A thread-
//! machine rank is a ledger plus channels and the tree; the virtual
//! cluster is a vector of ledgers and a loop, so the engines agree
//! bitwise, per rank, by construction (see docs/SIMULATOR.md).
//!
//! Both engines share [`CostModel`]: latency `α` per message round and
//! inverse bandwidth `β` per 8-byte word — an allreduce of `w` words on
//! `P` ranks costs `⌈log₂P⌉·α + β·2w(P−1)/P`, the one formula
//! [`CostModel::fused_allreduce_charge`] charges and [`fit_alpha_beta`]
//! fits — and per-kernel-class flop rates
//! (a BLAS-3 GEMM class is faster per flop than a BLAS-1 dot class — the
//! effect behind the SA methods' computation speedups in Fig. 4e–h — with a
//! cache-capacity penalty once a kernel's working set spills).
//!
//! Simulated time is deterministic: collectives combine contributions in a
//! fixed tree order, so repeated runs produce bit-identical numerics *and*
//! identical virtual times.

// Index-based loops mirror the textbook formulations of the numerical
// kernels; iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cost;
pub(crate) mod ledger;
pub(crate) mod telemetry_support;
pub mod thread_machine;
pub mod virtual_cluster;

pub use chaos::{ChaosPlan, ChaosSpec};
pub use cost::{
    collective_rounds, fit_alpha_beta, CollectiveCharge, CostCounters, CostModel, CostReport,
    KernelClass,
};
pub use thread_machine::{Comm, IallreduceRequest, ThreadMachine};
pub use virtual_cluster::VirtualCluster;

/// The observability subsystem both engines feed (re-exported so callers
/// need no separate dependency for phase tags and registries).
pub use saco_telemetry as telemetry;
