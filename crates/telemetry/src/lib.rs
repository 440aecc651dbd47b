//! saco-telemetry: structured observability for the SACO workspace.
//!
//! Zero-dependency metrics layer giving every engine (the thread-backed
//! `ThreadMachine`, the analytic `VirtualCluster`, and the sequential
//! solvers) one vocabulary for *where time went*:
//!
//! * a deterministic [`Registry`] of counters, gauges and fixed-bucket
//!   [`Histogram`]s, all `BTreeMap`-ordered so emitted bytes are
//!   reproducible;
//! * a [`Phase`] taxonomy mirroring the paper's cost model (`comm`,
//!   `comp`, `prox`, `sampling`, `gram`, `idle`) with per-rank
//!   [`PhaseTable`]s whose `merge` is associative and commutative —
//!   per-rank registries combine in any order;
//! * RAII wall-clock spans ([`Registry::wall_span`]) kept in a separate
//!   nondeterministic section that the run report never serializes;
//! * one stable machine-readable run-report schema ([`report::SCHEMA`],
//!   written by [`write_run_report`]).
//!
//! The accounting identities the rest of the workspace relies on:
//! `PhaseTable::comm_time()` equals `CostCounters::comm_time` and
//! `PhaseTable::comp_time()` (= comp + gram + prox + sampling) equals
//! `CostCounters::comp_time` for the same run, and
//! [`Registry::critical_rank`] picks the same rank as `mpisim`'s cost
//! reports (`ThreadMachine::run`, `VirtualCluster::report`).

#![warn(missing_docs)]

mod json;
mod phase;
mod registry;
pub mod report;

pub use phase::{Phase, PhaseStat, PhaseTable, PhaseTimes};
pub use registry::{Histogram, Registry, WallSpan, WallStat};
pub use report::{run_report_json, write_run_report};
