//! The rank ledger: the one place simulated time is accounted.
//!
//! Every accounting rule of the α-β-γ machine — how a compute charge
//! advances a clock, what a rank pays at a collective, how overlap hides
//! an in-flight reduction, what chaos injects, which rank is critical —
//! is written here once, per rank. The
//! [`VirtualCluster`](crate::VirtualCluster) is *a vector of ledgers + a
//! loop*: it finds a collective's latest entry clock by a fold over them.
//!
//! A ledger keeps its clock, the critical-path message/word counts, the
//! telemetry phase table and, when chaos is enabled, that rank's
//! injection state. Times are read back from the phase table (every
//! charge records there), so a [`CostCounters`] snapshot and the
//! telemetry registry can never disagree.

use crate::chaos::{ChaosPlan, ChaosSpec, RESTART_OVERHEAD_SECS};
use crate::cost::{CollectiveCharge, CostCounters, CostModel, CostReport, KernelClass};
use crate::telemetry_support::{registry_from_ranks, ChaosStats, RankTelemetry};
use saco_telemetry::{Phase, PhaseTable, Registry};

/// One rank's live chaos-injection state (see [`crate::chaos`]): its
/// fixed skew multiplier plus the program-order counters that key the
/// stateless schedule draws. Every rank counts its own collectives and
/// checkpoints, so identical SPMD code yields identical indices on every
/// rank.
#[derive(Clone, Debug)]
struct RankChaos {
    plan: ChaosPlan,
    rank: usize,
    skew: f64,
    collective_idx: u64,
    ckpt_idx: usize,
    /// Clock at the last checkpoint — a failed rank redoes the work since.
    last_ckpt_clock: f64,
    stats: ChaosStats,
}

/// One fused allreduce as every participant sees it: priced once (payload
/// size, rank count and the latest entry clock are known when the last
/// rank joins), then settled on each rank's ledger.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Collective {
    charge: CollectiveCharge,
    /// Payload words handed in, before the `words_moved` charge.
    payload: u64,
    max_entry: f64,
    /// Injected extra latency (0 on clean runs), identical on every rank.
    jitter: f64,
}

impl Collective {
    /// The fused, segment-pipelined allreduce of `words` payload on `p`
    /// ranks.
    pub(crate) fn fused(
        model: &CostModel,
        p: usize,
        words: u64,
        max_entry: f64,
        jitter: f64,
    ) -> Self {
        Self {
            charge: model.fused_allreduce_charge(p, words),
            payload: words,
            max_entry,
            jitter,
        }
    }
}

/// One rank's virtual clock and cost accounting.
#[derive(Clone, Debug, Default)]
pub(crate) struct RankLedger {
    clock: f64,
    /// Clock at entry to the most recent collective (after any stall).
    entry: f64,
    messages: u64,
    words: u64,
    telemetry: RankTelemetry,
    /// Injection state, boxed: clean runs (every paper-scale one) keep
    /// their ledgers a pointer wide here.
    chaos: Option<Box<RankChaos>>,
}

impl RankLedger {
    /// Current virtual time on this rank.
    pub(crate) fn clock(&self) -> f64 {
        self.clock
    }

    /// This rank's per-phase time attribution so far.
    pub(crate) fn phases(&self) -> &PhaseTable {
        &self.telemetry.phases
    }

    /// What this rank mirrored into telemetry so far.
    pub(crate) fn telemetry(&self) -> &RankTelemetry {
        &self.telemetry
    }

    /// Counter snapshot. Times and flops are the phase table's totals, so
    /// the counters, the cost report and the telemetry registry read the
    /// same accumulators and always name the same critical rank, even
    /// when two ranks tie at ulp distance.
    pub(crate) fn counters(&self) -> CostCounters {
        let phases = &self.telemetry.phases;
        CostCounters {
            messages: self.messages,
            words: self.words,
            flops: phases.iter().map(|(_, s)| s.flops).sum(),
            comp_time: phases.comp_time(),
            comm_time: phases.comm_time(),
            idle_time: phases.idle_time(),
        }
    }

    /// Switch on chaos injection for this ledger as rank `rank` of the
    /// plan. Draws are keyed by `(seed, rank, program-order index)`.
    pub(crate) fn enable_chaos(&mut self, spec: &ChaosSpec, rank: usize) {
        let plan = ChaosPlan::new(spec);
        self.chaos = Some(Box::new(RankChaos {
            plan,
            rank,
            skew: plan.skew_mult(rank),
            collective_idx: 0,
            ckpt_idx: 0,
            last_ckpt_clock: self.clock,
            stats: ChaosStats::default(),
        }));
    }

    /// Charge local computation: `flops` of `class` with a working set of
    /// `working_set_words`, attributed to `phase`. Advances this rank's
    /// clock only; under chaos the rank runs `skew`× slower.
    ///
    /// `#[inline]`: the cluster's per-rank loop is generic over the
    /// caller's closure, so it is instantiated downstream, where this
    /// body would otherwise be an opaque call per rank.
    #[inline]
    pub(crate) fn charge(
        &mut self,
        model: &CostModel,
        class: KernelClass,
        flops: u64,
        working_set_words: u64,
        phase: Phase,
    ) {
        let mut t = model.compute_time(class, flops, working_set_words);
        if let Some(ch) = &mut self.chaos {
            let skewed = t * ch.skew;
            ch.stats.skew_time += skewed - t;
            t = skewed;
        }
        self.clock += t;
        self.telemetry.phases.record_full(phase, t, 0, flops);
    }

    /// Join the next collective in this rank's program order. Under chaos
    /// a transient stall advances the clock (as idle) *before* the entry
    /// snapshot — so it reaches the other ranks through the entry-clock
    /// maximum exactly like any late arrival — and the returned jitter
    /// joins the collective's cost (identical on every rank: the draw is
    /// program-order keyed). Returns 0 on a clean run.
    pub(crate) fn enter_collective(&mut self) -> f64 {
        let mut jitter = 0.0;
        if let Some(ch) = &mut self.chaos {
            let idx = ch.collective_idx;
            ch.collective_idx += 1;
            let stall = ch.plan.stall(ch.rank, idx);
            if stall > 0.0 {
                self.clock += stall;
                self.telemetry.phases.record(Phase::Idle, stall);
                ch.stats.stalls += 1;
                ch.stats.stall_time += stall;
            }
            jitter = ch.plan.jitter(idx);
            ch.stats.jitter_time += jitter;
        }
        self.entry = self.clock;
        jitter
    }

    /// Settle a fused allreduce joined at [`entry`](Self::entry), with
    /// whatever was charged since overlapping it: the collective
    /// completes at `max_entry + cost` and this rank leaves at
    /// `max(arrival, completion)`. Of the remaining in-flight window only
    /// `min(cost, completion − arrival)` is communication (the rest is
    /// idle), and the part computation already covered is hidden time —
    /// the `comm.overlap_hidden_time` gauge.
    pub(crate) fn settle_fused(&mut self, c: &Collective) {
        let cost = c.charge.time + c.jitter;
        let completion = c.max_entry + c.charge.time + c.jitter;
        let arrival = self.clock;
        let visible = (completion - arrival).max(0.0);
        let comm = cost.min(visible);
        let hidden = (arrival.min(completion) - self.entry).max(0.0);
        self.clock = arrival.max(completion);
        self.messages += c.charge.rounds;
        self.words += c.charge.words_moved;
        let t = &mut self.telemetry;
        t.collectives += 1;
        t.phases
            .record_full(Phase::Comm, comm, c.charge.words_moved, 0);
        t.phases.record(Phase::Idle, visible - comm);
        t.words_packed += c.payload;
        t.hidden_time += hidden;
    }

    /// Block-boundary checkpoint: a free no-op on clean runs. With chaos
    /// enabled it marks a recovery point; if this rank's fail-stop fault
    /// fires at this block, the rank pays the redo time back to the
    /// previous checkpoint plus [`RESTART_OVERHEAD_SECS`], as idle.
    /// Recovery recomputes deterministic work, so numerics are untouched.
    pub(crate) fn checkpoint(&mut self) {
        let Some(ch) = &mut self.chaos else {
            return;
        };
        let step = ch.ckpt_idx;
        ch.ckpt_idx += 1;
        ch.stats.checkpoints += 1;
        if ch.plan.fails_at(ch.rank, step) {
            let recovery = self.clock - ch.last_ckpt_clock + RESTART_OVERHEAD_SECS;
            self.clock += recovery;
            self.telemetry.phases.record(Phase::Idle, recovery);
            ch.stats.failures += 1;
            ch.stats.recovery_time += recovery;
        }
        ch.last_ckpt_clock = self.clock;
    }
}

/// Every rank of a timeline joins its next collective (one pass). Returns
/// the latest entry clock — when the collective can start — and the
/// injected jitter, identical on every rank and 0 without chaos.
pub(crate) fn enter_collective(ledgers: &mut [RankLedger]) -> (f64, f64) {
    let (mut max_entry, mut jitter) = (f64::NEG_INFINITY, 0.0);
    for l in ledgers {
        jitter = l.enter_collective();
        max_entry = max_entry.max(l.entry);
    }
    (max_entry, jitter)
}

/// The critical rank: the computational straggler — maximum comp time,
/// ties toward the highest rank. All ranks leave the final collective at
/// the same clock, so totals tie at ulp noise; comp time identifies the
/// rank everyone waited for. Same rule, same accumulators as
/// [`Registry::critical_rank`].
pub(crate) fn critical_rank(ledgers: &[RankLedger]) -> usize {
    (0..ledgers.len())
        .max_by(|&a, &b| {
            let (ta, tb) = (
                ledgers[a].phases().comp_time(),
                ledgers[b].phases().comp_time(),
            );
            ta.partial_cmp(&tb).expect("finite clocks").then(a.cmp(&b))
        })
        .expect("at least one rank")
}

/// Critical-path cost report: the [`critical_rank`]'s counters.
pub(crate) fn report(ledgers: &[RankLedger]) -> CostReport {
    CostReport {
        ranks: ledgers.len(),
        critical: ledgers[critical_rank(ledgers)].counters(),
    }
}

/// Run-level telemetry registry of a timeline. `clean` is the chaos-free
/// counterfactual of the same program when the engine kept one: per rank
/// the chaos-induced idle is the (clamped) excess over what the clean
/// run would have idled anyway.
pub(crate) fn registry(
    engine: &str,
    ledgers: &[RankLedger],
    clean: Option<&[RankLedger]>,
) -> Registry {
    let induced_idle = clean.map_or(0.0, |clean| {
        let idle = |l: &RankLedger| l.phases().idle_time();
        ledgers
            .iter()
            .zip(clean)
            .map(|(l, c)| (idle(l) - idle(c)).max(0.0))
            .sum()
    });
    let ranks: Vec<&RankTelemetry> = ledgers.iter().map(RankLedger::telemetry).collect();
    let chaos: Vec<&ChaosStats> = ledgers
        .iter()
        .filter_map(|l| l.chaos.as_deref())
        .map(|ch| &ch.stats)
        .collect();
    registry_from_ranks(engine, &ranks, &chaos, induced_idle)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1 flop/s dot kernels, α = 2 s, β = 0.5 s/word: every time on the
    /// timelines below is a small dyadic number, exact in `f64`.
    fn model() -> CostModel {
        CostModel {
            alpha: 2.0,
            beta: 0.5,
            dot_rate: 1.0,
            cache_words: u64::MAX,
            ..CostModel::cray_xc30()
        }
    }

    fn work(l: &mut RankLedger, seconds: u64) {
        l.charge(&model(), KernelClass::Dot, seconds, 1, Phase::Gram);
    }

    fn times(l: &RankLedger) -> (f64, f64, f64, f64) {
        let c = l.counters();
        (l.clock(), c.comp_time, c.comm_time, c.idle_time)
    }

    #[test]
    fn two_rank_timeline_by_hand() {
        let m = model();
        let (mut a, mut b) = (RankLedger::default(), RankLedger::default());

        // Late entry: a works 3 s, b 7 s, then a 4-word allreduce settled
        // at once (1 round: α + β·2·4·½ = 4 s). a waits 4 s for b; both
        // leave at 11, nothing hidden.
        work(&mut a, 3);
        work(&mut b, 7);
        assert_eq!((a.enter_collective(), b.enter_collective()), (0.0, 0.0));
        let c = Collective::fused(&m, 2, 4, 7.0, 0.0);
        a.settle_fused(&c);
        b.settle_fused(&c);
        assert_eq!(times(&a), (11.0, 3.0, 4.0, 4.0));
        assert_eq!(times(&b), (11.0, 7.0, 4.0, 0.0));
        assert_eq!(
            (a.telemetry.hidden_time, b.telemetry.hidden_time),
            (0.0, 0.0)
        );

        // A 2-word allreduce (α + β·2·2·½ = 3 s) joined by both at 11,
        // complete at 14. a overlaps 5 s of work: arrives at 16, the
        // collective is fully hidden (3 s) and costs nothing visible.
        // b overlaps 1 s: arrives at 12, 1 s hidden, 2 s visible comm.
        a.enter_collective();
        b.enter_collective();
        let c = Collective::fused(&m, 2, 2, 11.0, 0.0);
        work(&mut a, 5);
        work(&mut b, 1);
        a.settle_fused(&c);
        b.settle_fused(&c);
        assert_eq!(times(&a), (16.0, 8.0, 4.0, 4.0));
        assert_eq!(times(&b), (14.0, 8.0, 6.0, 0.0));
        assert_eq!(
            (a.telemetry.hidden_time, b.telemetry.hidden_time),
            (3.0, 1.0)
        );
        assert_eq!((a.telemetry.words_packed, b.telemetry.words_packed), (6, 6));

        // Program-order counts: 2 collectives, 1 round each, 4 + 2 words.
        for l in [&a, &b] {
            let c = l.counters();
            assert_eq!((c.messages, c.words, c.flops), (2, 6, c.comp_time as u64));
            assert_eq!(l.telemetry.collectives, 2);
        }
        // Equal comp time: the tie goes to the highest rank.
        assert_eq!(critical_rank(&[a.clone(), b.clone()]), 1);
        assert_eq!(report(&[a, b]).critical.comm_time, 6.0);
    }

    #[test]
    fn stall_and_fail_stop_recovery_by_hand() {
        let m = model();
        // Every rank stalls at every collective; rank 1 dies in block 0.
        let spec = ChaosSpec {
            seed: 1,
            straggle: 1.0,
            fail: Some((1, 0)),
            ..ChaosSpec::default()
        };
        let plan = ChaosPlan::new(&spec);
        let (s0, s1) = (plan.stall(0, 0), plan.stall(1, 0));
        assert!(s0 > 0.0 && s1 > 0.0 && s0 != s1);
        let mut ranks = [RankLedger::default(), RankLedger::default()];
        for (rank, l) in ranks.iter_mut().enumerate() {
            l.enable_chaos(&spec, rank);
            work(l, 2);
            assert_eq!(l.enter_collective(), 0.0, "no jitter in the spec");
        }
        // The stall lands before the entry snapshot: ranks join at 2 + s.
        let (e0, e1) = (2.0 + s0, 2.0 + s1);
        assert_eq!((ranks[0].entry, ranks[1].entry), (e0, e1));
        let c = Collective::fused(&m, 2, 0, e0.max(e1), 0.0);
        ranks.iter_mut().for_each(|l| l.settle_fused(&c));
        // An empty allreduce is a barrier, pure latency (α = 2 s); stalled
        // time and the wait for the later rank are idle.
        let leave = e0.max(e1) + 2.0;
        let wait = |entry: f64| (leave - entry) - 2.0;
        assert_eq!(times(&ranks[0]), (leave, 2.0, 2.0, s0 + wait(e0)));

        // Block 0 ends: rank 1 redoes everything since time 0 and pays
        // the restart overhead, as idle; rank 0 is untouched.
        ranks.iter_mut().for_each(RankLedger::checkpoint);
        let recovery = leave - 0.0 + RESTART_OVERHEAD_SECS;
        assert_eq!(times(&ranks[0]).0, leave);
        assert_eq!(
            times(&ranks[1]),
            (leave + recovery, 2.0, 2.0, s1 + wait(e1) + recovery)
        );
        let chaos = |l: &RankLedger| l.chaos.as_ref().expect("enabled").stats;
        let chaos = chaos(&ranks[1]);
        assert_eq!((chaos.stalls, chaos.failures, chaos.checkpoints), (1, 1, 1));
        assert_eq!((chaos.stall_time, chaos.recovery_time), (s1, recovery));

        // The fault fires once: the next block's checkpoint is free.
        let before = times(&ranks[1]);
        ranks[1].checkpoint();
        assert_eq!(times(&ranks[1]), before);
        assert_eq!(ranks[1].chaos.as_ref().unwrap().stats.checkpoints, 2);
    }
}
