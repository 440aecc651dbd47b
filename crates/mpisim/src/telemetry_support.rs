//! Glue between the rank ledger's accounting and `saco-telemetry`.
//!
//! What a [`RankLedger`](crate::ledger::RankLedger) mirrors into
//! telemetry while it runs, and the one assembly of a run-level
//! [`Registry`] from those per-rank records.

use saco_telemetry::{PhaseTable, Registry};

/// Per-rank accounting of injected chaos (see [`crate::chaos`]): how much
/// time each perturbation class added, plus checkpoint/failure counts.
/// Kept with the rank's injection state, so it exists only once chaos is
/// switched on — and the `chaos.*` registry entries with it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct ChaosStats {
    /// Transient stalls injected at collective entries.
    pub stalls: u64,
    /// Seconds lost to injected stalls.
    pub stall_time: f64,
    /// Seconds of injected collective latency jitter (program-order:
    /// identical on every rank).
    pub jitter_time: f64,
    /// Extra compute seconds from this rank's rate skew.
    pub skew_time: f64,
    /// Fail-stop faults injected on this rank.
    pub failures: u64,
    /// Seconds spent redoing the lost block plus restart overhead.
    pub recovery_time: f64,
    /// Block-boundary checkpoints taken (program-order).
    pub checkpoints: u64,
}

/// What one rank accumulates for telemetry while it runs: a phase table
/// plus its allreduce count. Plain values, so recording adds no
/// allocation to the engines' hot charge paths.
#[derive(Clone, Debug, Default)]
pub(crate) struct RankTelemetry {
    pub phases: PhaseTable,
    /// Allreduces this rank joined (a lone rank joins none).
    pub collectives: u64,
    /// Payload words this rank handed to its allreduces — the packed
    /// on-the-wire size, before the `words_moved` charge.
    pub words_packed: u64,
    /// Seconds of in-flight `iallreduce` time this rank hid behind local
    /// computation between `start` and `wait`.
    pub hidden_time: f64,
}

/// Assemble the run-level registry from per-rank telemetry.
///
/// Phase tables stay per-rank (keyed by rank index, merging into the sink
/// associatively). Collective counters are program-order counts: in an
/// SPMD run every rank enters each collective, so rank 0's counts stand
/// for the program. `chaos` holds every rank's injection accounting when
/// chaos was enabled (empty on a clean run) and `induced_idle` the idle
/// time attributable to it, summed over ranks: their idle under chaos
/// minus their idle on the clean counterfactual timeline (0 without one).
pub(crate) fn registry_from_ranks(
    engine: &str,
    ranks: &[&RankTelemetry],
    chaos: &[&ChaosStats],
    induced_idle: f64,
) -> Registry {
    let mut reg = Registry::new();
    reg.set_meta("engine", engine);
    reg.set_meta("ranks", ranks.len());
    for (rank, rt) in ranks.iter().enumerate() {
        if !rt.phases.is_empty() {
            reg.phases_mut(rank).merge(&rt.phases);
        }
    }
    if let Some(first) = ranks.first() {
        if first.collectives > 0 {
            reg.counter_add("collectives.allreduce", first.collectives);
        }
        // The packed payload volume is program-order (identical on every
        // rank), the hidden time is the critical rank's — the overlap
        // that actually shortened the reported timeline. Only emitted
        // once a payload was reduced, so runs without one keep their
        // exact report shape.
        if first.words_packed > 0 {
            reg.counter_add("comm.words_packed", first.words_packed);
            let critical = reg.critical_rank().unwrap_or(0);
            let hidden = ranks.get(critical).map_or(0.0, |rt| rt.hidden_time);
            reg.gauge_set("comm.overlap_hidden_time", hidden);
        }
    }
    // Chaos accounting (see `crate::chaos`): emitted only when chaos was
    // enabled, so clean runs keep their exact report shape. The full set
    // is emitted even at zero values so a chaos report's key set is
    // independent of which perturbations happened to fire.
    if let Some(first) = chaos.first() {
        reg.counter_add("chaos.stalls", chaos.iter().map(|c| c.stalls).sum());
        reg.counter_add("chaos.failures", chaos.iter().map(|c| c.failures).sum());
        // Checkpoints are program-order: every rank takes the same ones.
        reg.counter_add("chaos.checkpoints", first.checkpoints);
        reg.gauge_set("chaos.stall_time", chaos.iter().map(|c| c.stall_time).sum());
        reg.gauge_set("chaos.skew_time", chaos.iter().map(|c| c.skew_time).sum());
        // Jitter is identical on every rank (program-order draws).
        reg.gauge_set("chaos.jitter_time", first.jitter_time);
        reg.gauge_set(
            "chaos.recovery_time",
            chaos.iter().map(|c| c.recovery_time).sum(),
        );
        reg.gauge_set("chaos.induced_idle_time", induced_idle);
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use saco_telemetry::Phase;

    #[test]
    fn registry_counts_collectives_once_not_per_rank() {
        let mut a = RankTelemetry::default();
        a.phases.record(Phase::Comm, 1.0);
        a.collectives = 3;
        let mut b = RankTelemetry::default();
        b.phases.record(Phase::Comm, 2.0);
        b.collectives = 3;

        let reg = registry_from_ranks("virtual_cluster", &[&a, &b], &[], 0.0);
        assert_eq!(reg.counter("collectives.allreduce"), 3);
        assert_eq!(reg.phases(0).unwrap().comm_time(), 1.0);
        assert_eq!(reg.phases(1).unwrap().comm_time(), 2.0);
        assert_eq!(reg.meta()["engine"], "virtual_cluster");
        assert_eq!(reg.meta()["ranks"], "2");
    }
}
