//! `mpisim` — a simulated distributed-memory machine.
//!
//! The paper evaluates on a Cray XC30 with MPI on up to 12,288 cores. That
//! hardware is not available here and Rust MPI bindings are thin, so this
//! crate provides the substitute for *time* (see DESIGN.md §3): the
//! classic α-β-γ machine model that the paper itself uses for its Table I
//! analysis, and [`VirtualCluster`], the engine that prices a run under
//! it. Data movement is `netcomm`'s job: real sockets between real ranks.
//!
//! [`VirtualCluster`] keeps per-rank virtual clocks advanced by the cost
//! formulas, with *exact* per-rank flop attribution (so load imbalance /
//! stragglers are modeled, matching the paper's §VI observation), without
//! spawning threads: the solvers compute their numerics once and charge
//! costs as they go. Every accounting rule — compute charge and chaos
//! skew, stall and jitter at collective entry, the allreduce's
//! `max(comp, comm)` settlement, checkpoint recovery, critical-rank
//! selection — is written once, per rank, in the private rank ledger; the
//! cluster is a vector of ledgers and a loop (see docs/SIMULATOR.md).
//!
//! The cluster prices with [`CostModel`]: latency `α` per message round
//! and inverse bandwidth `β` per 8-byte word — an allreduce of `w` words
//! on `P` ranks costs `⌈log₂P⌉·α + β·2w(P−1)/P`, the one formula
//! [`CostModel::fused_allreduce_charge`] charges and [`fit_alpha_beta`]
//! fits — and per-kernel-class flop rates
//! (a BLAS-3 GEMM class is faster per flop than a BLAS-1 dot class — the
//! effect behind the SA methods' computation speedups in Fig. 4e–h — with a
//! cache-capacity penalty once a kernel's working set spills).
//!
//! Simulated time is deterministic: repeated runs produce identical
//! virtual times, bit for bit.

// Index-based loops mirror the textbook formulations of the numerical
// kernels; iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cost;
pub(crate) mod ledger;
pub(crate) mod telemetry_support;
pub mod virtual_cluster;

pub use chaos::{ChaosPlan, ChaosSpec};
pub use cost::{
    collective_rounds, fit_alpha_beta, CollectiveCharge, CostCounters, CostModel, CostReport,
    KernelClass,
};
pub use virtual_cluster::VirtualCluster;

/// The observability subsystem the cluster feeds (re-exported so callers
/// need no separate dependency for phase tags and registries).
pub use saco_telemetry as telemetry;
