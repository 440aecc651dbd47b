//! The phase taxonomy and per-phase accounting tables.
//!
//! Phases mirror the paper's cost model: every unit of simulated time a
//! solver spends is attributed to exactly one phase, so `comm` vs `comp`
//! totals can be reconciled against `mpisim::CostReport` exactly.

/// Where time went. One label per unit of work, chosen to match the
/// α-β-γ cost model's decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Collective and point-to-point message time (α·L + β·W).
    Comm,
    /// General local computation not covered by a finer label.
    Comp,
    /// Proximal / subproblem solves (the s×b dense recurrence).
    Prox,
    /// Column/block sampling and selection bookkeeping.
    Sampling,
    /// Gram-matrix formation (sampled or parallel).
    Gram,
    /// Intra-rank pool-parallel kernel execution (`saco-par` tiles): the
    /// portion of local work run under the worker pool, attributed by
    /// host-side instrumentation (bench harness, `--threads` runs). The
    /// simulators' per-rank charges stay thread-invariant, so this phase
    /// is zero in plain engine reports.
    Par,
    /// Time blocked waiting on slower ranks at a collective.
    Idle,
}

impl Phase {
    /// Every phase, in canonical (serialization) order.
    pub const ALL: [Phase; 7] = [
        Phase::Comm,
        Phase::Comp,
        Phase::Prox,
        Phase::Sampling,
        Phase::Gram,
        Phase::Par,
        Phase::Idle,
    ];

    /// Stable lowercase name used in every emitted format.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Comm => "comm",
            Phase::Comp => "comp",
            Phase::Prox => "prox",
            Phase::Sampling => "sampling",
            Phase::Gram => "gram",
            Phase::Par => "par",
            Phase::Idle => "idle",
        }
    }

    /// Dense index into per-phase arrays; follows [`Phase::ALL`] order.
    pub fn index(self) -> usize {
        match self {
            Phase::Comm => 0,
            Phase::Comp => 1,
            Phase::Prox => 2,
            Phase::Sampling => 3,
            Phase::Gram => 4,
            Phase::Par => 5,
            Phase::Idle => 6,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Compact `Copy` snapshot of the three top-level time totals — the
/// shape convergence-trace points carry so per-iteration cost curves can
/// be reconstructed without holding a full table per point.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    /// Communication seconds so far.
    pub comm: f64,
    /// Computation seconds so far (all local-work phases).
    pub comp: f64,
    /// Idle (load-imbalance) seconds so far.
    pub idle: f64,
}

impl PhaseTimes {
    /// Snapshot from explicit totals.
    pub fn new(comm: f64, comp: f64, idle: f64) -> Self {
        PhaseTimes { comm, comp, idle }
    }

    /// Total of the three components.
    pub fn total(&self) -> f64 {
        self.comm + self.comp + self.idle
    }
}

impl From<&PhaseTable> for PhaseTimes {
    fn from(table: &PhaseTable) -> Self {
        PhaseTimes {
            comm: table.comm_time(),
            comp: table.comp_time(),
            idle: table.idle_time(),
        }
    }
}

/// Accumulated totals for one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseStat {
    /// Simulated seconds attributed to this phase.
    pub time: f64,
    /// Number of recorded events (charges / spans).
    pub events: u64,
    /// Words moved while in this phase (nonzero for `Comm` only, in
    /// practice).
    pub words: u64,
    /// Flops executed while in this phase.
    pub flops: u64,
}

impl PhaseStat {
    /// Fold another stat into this one. Associative and commutative:
    /// every field is a sum.
    pub fn merge(&mut self, other: &PhaseStat) {
        self.time += other.time;
        self.events += other.events;
        self.words += other.words;
        self.flops += other.flops;
    }
}

/// Per-phase totals for one attribution unit (usually one rank).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseTable {
    stats: [PhaseStat; 7],
}

impl PhaseTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attribute `time` simulated seconds to `phase`.
    pub fn record(&mut self, phase: Phase, time: f64) {
        self.record_full(phase, time, 0, 0);
    }

    /// Attribute time plus data-movement and flop volume to `phase`.
    pub fn record_full(&mut self, phase: Phase, time: f64, words: u64, flops: u64) {
        let s = &mut self.stats[phase.index()];
        s.time += time;
        s.events += 1;
        s.words += words;
        s.flops += flops;
    }

    /// The accumulated stat for one phase.
    pub fn get(&self, phase: Phase) -> &PhaseStat {
        &self.stats[phase.index()]
    }

    /// Simulated seconds attributed to `phase`.
    pub fn time(&self, phase: Phase) -> f64 {
        self.stats[phase.index()].time
    }

    /// Communication time: the `comm` phase alone. Reconciles against
    /// `CostCounters::comm_time`.
    pub fn comm_time(&self) -> f64 {
        self.time(Phase::Comm)
    }

    /// Computation time: every local-work phase (`comp` + `gram` +
    /// `prox` + `sampling` + `par`). Reconciles against
    /// `CostCounters::comp_time`.
    pub fn comp_time(&self) -> f64 {
        self.time(Phase::Comp)
            + self.time(Phase::Gram)
            + self.time(Phase::Prox)
            + self.time(Phase::Sampling)
            + self.time(Phase::Par)
    }

    /// Idle (load-imbalance) time.
    pub fn idle_time(&self) -> f64 {
        self.time(Phase::Idle)
    }

    /// Sum over all phases.
    pub fn total_time(&self) -> f64 {
        self.stats.iter().map(|s| s.time).sum()
    }

    /// Fold another table into this one phase-by-phase. Associative and
    /// commutative, so tables merged across ranks or across engines in
    /// any grouping agree.
    pub fn merge(&mut self, other: &PhaseTable) {
        for (mine, theirs) in self.stats.iter_mut().zip(other.stats.iter()) {
            mine.merge(theirs);
        }
    }

    /// Iterate phases with their stats in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, &PhaseStat)> {
        Phase::ALL.iter().map(move |&p| (p, &self.stats[p.index()]))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stats.iter().all(|s| s.events == 0 && s.time == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_all_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn record_accumulates() {
        let mut t = PhaseTable::new();
        t.record_full(Phase::Comm, 1.5, 100, 0);
        t.record_full(Phase::Comm, 0.5, 50, 0);
        t.record_full(Phase::Gram, 2.0, 0, 1000);
        let comm = t.get(Phase::Comm);
        assert_eq!(comm.time, 2.0);
        assert_eq!(comm.events, 2);
        assert_eq!(comm.words, 150);
        assert_eq!(t.comm_time(), 2.0);
        assert_eq!(t.comp_time(), 2.0);
        assert_eq!(t.total_time(), 4.0);
    }

    #[test]
    fn comp_time_covers_all_local_phases() {
        let mut t = PhaseTable::new();
        t.record(Phase::Comp, 1.0);
        t.record(Phase::Prox, 2.0);
        t.record(Phase::Sampling, 4.0);
        t.record(Phase::Gram, 8.0);
        t.record(Phase::Par, 0.5);
        t.record(Phase::Comm, 16.0);
        t.record(Phase::Idle, 32.0);
        assert_eq!(t.comp_time(), 15.5);
        assert_eq!(t.comm_time(), 16.0);
        assert_eq!(t.idle_time(), 32.0);
    }

    #[test]
    fn merge_is_fieldwise_sum() {
        let mut a = PhaseTable::new();
        a.record_full(Phase::Comm, 1.0, 10, 0);
        let mut b = PhaseTable::new();
        b.record_full(Phase::Comm, 2.0, 20, 0);
        b.record_full(Phase::Idle, 0.5, 0, 0);
        a.merge(&b);
        assert_eq!(a.get(Phase::Comm).time, 3.0);
        assert_eq!(a.get(Phase::Comm).words, 30);
        assert_eq!(a.get(Phase::Comm).events, 2);
        assert_eq!(a.idle_time(), 0.5);
    }
}
