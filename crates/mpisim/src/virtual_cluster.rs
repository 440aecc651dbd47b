//! The analytic engine: per-rank virtual clocks without threads.
//!
//! The paper's strong-scaling experiments use up to P = 12,288 ranks.
//! Spawning that many threads to each do microseconds of work per iteration
//! would measure the host's scheduler, not the algorithm, so for large `P`
//! the solvers compute their numerics once (globally) and *charge* the cost
//! of the distributed execution here: per-rank flop attribution (so a rank
//! holding more nonzeros of the sampled columns is a straggler, exactly as
//! on the real machine) and collective costs from the shared
//! [`CostModel`] formulas. The cluster is a vector of the same
//! `RankLedger`s the thread engine's ranks carry, and a loop over them,
//! so the two engines agree by construction.

use crate::chaos::ChaosSpec;
use crate::cost::{CostCounters, CostModel, CostReport, KernelClass};
use crate::ledger::{self, Collective, RankLedger};
use saco_telemetry::{Phase, Registry};

/// A simulated cluster of `p` ranks with individual virtual clocks.
#[derive(Clone, Debug)]
pub struct VirtualCluster {
    model: CostModel,
    ranks: Vec<RankLedger>,
    /// The chaos-free counterfactual, kept once chaos is enabled: the same
    /// ledgers receiving the same charges and collectives without a plan —
    /// no skew, jitter, stalls or faults — so the cluster can report
    /// exactly how much idle time the injected perturbations caused
    /// (`chaos.induced_idle_time`). `None` on clean runs.
    clean: Option<Vec<RankLedger>>,
    /// The fused allreduce in flight, priced at start on the perturbed
    /// timeline and (under chaos) on the clean one.
    pending: Option<(Collective, Option<Collective>)>,
}

impl VirtualCluster {
    /// A fresh cluster at time zero.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize, model: CostModel) -> Self {
        assert!(p > 0, "need at least one rank");
        Self {
            model,
            ranks: vec![RankLedger::default(); p],
            clean: None,
            pending: None,
        }
    }

    /// Switch on deterministic chaos injection (see [`crate::chaos`]):
    /// per-rank compute skew, per-collective jitter, transient stalls, and
    /// an optional fail-stop fault recovered at the next
    /// [`checkpoint`](Self::checkpoint). Chaos perturbs charged *time*
    /// only — the caller's numerics are untouched. Call before charging
    /// anything; enabling mid-run would split the counterfactual timeline.
    pub fn enable_chaos(&mut self, spec: &ChaosSpec) {
        self.clean = Some(self.ranks.clone());
        for (rank, l) in self.ranks.iter_mut().enumerate() {
            l.enable_chaos(spec, rank);
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// The cost model in force.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Charge local computation of `class`, attributed to telemetry phase
    /// `phase`: `f(rank)` returns the `(flops, working_set_words)` rank
    /// `rank` executes. A constant `f` is replicated work (the subproblem
    /// solve and scalar updates of Fig. 1 step 5); a rank-dependent one is
    /// how data-dependent load imbalance (stragglers) enters the
    /// simulation — each rank's kernel sees its own working set and may
    /// land on a different side of the cache cliff, as on the thread
    /// engine.
    pub fn charge<F: Fn(usize) -> (u64, u64)>(&mut self, class: KernelClass, phase: Phase, f: F) {
        for side in std::iter::once(&mut self.ranks).chain(&mut self.clean) {
            for (rank, l) in side.iter_mut().enumerate() {
                let (flops, working_set_words) = f(rank);
                l.charge(&self.model, class, flops, working_set_words, phase);
            }
        }
    }

    /// Start the cluster's one collective, a **nonblocking fused
    /// allreduce** of `words` payload words. The charge is the
    /// segment-pipelined
    /// [`fused_allreduce_charge`](CostModel::fused_allreduce_charge)
    /// (`⌈log₂P⌉` latency rounds, `2·w·(P−1)/P` words); it completes at
    /// `max(entry clocks) + cost`. Computation charged between start and
    /// [`iallreduce_wait`](Self::iallreduce_wait) overlaps the in-flight
    /// reduction, so overlapped regions cost `max(comp, comm)` rather
    /// than their sum. At most one fused allreduce may be outstanding.
    pub fn iallreduce_start(&mut self, words: u64) {
        assert!(
            self.pending.is_none(),
            "one fused allreduce may be in flight at a time"
        );
        let (p, model) = (self.size(), self.model);
        // Stalls and the jitter draw happen at start — entry is when ranks
        // join the collective — so the perturbed entry clocks feed the
        // completion time. The clean counterfactual runs the same
        // collective and draws neither, having no plan. A lone rank joins
        // nothing: its request only keeps start and wait paired.
        let start = |side: &mut [RankLedger]| {
            let (max_entry, jitter) = match p {
                1 => (0.0, 0.0),
                _ => ledger::enter_collective(side),
            };
            Collective::fused(&model, p, words, max_entry, jitter)
        };
        self.pending = Some((start(&mut self.ranks), self.clean.as_deref_mut().map(start)));
    }

    /// Complete the in-flight fused allreduce: each rank leaves at
    /// `max(arrival, completion)`; of its remaining window only
    /// `min(cost, completion − arrival)` is communication (the rest is
    /// idle), and the portion already covered by computation is recorded
    /// as hidden time (the `comm.overlap_hidden_time` gauge).
    ///
    /// # Panics
    /// Panics if no fused allreduce is outstanding.
    pub fn iallreduce_wait(&mut self) {
        let (c, clean) = self
            .pending
            .take()
            .expect("iallreduce_wait without iallreduce_start");
        if self.size() == 1 {
            return;
        }
        self.ranks.iter_mut().for_each(|l| l.settle_fused(&c));
        if let (Some(side), Some(c)) = (&mut self.clean, clean) {
            side.iter_mut().for_each(|l| l.settle_fused(&c));
        }
    }

    /// Blocking form: [`iallreduce_start`](Self::iallreduce_start)
    /// immediately completed by [`iallreduce_wait`](Self::iallreduce_wait)
    /// — the reference schedule the overlapped one is tested against.
    /// Identical wire format and charge; zero overlap: all ranks
    /// synchronize to the latest participant, wait out stragglers, then
    /// pay the collective's cost.
    pub fn iallreduce(&mut self, words: u64) {
        self.iallreduce_start(words);
        self.iallreduce_wait();
    }

    /// Block-boundary checkpoint: a free no-op on clean runs (so the
    /// strict cross-engine equality invariants are untouched). With chaos
    /// enabled it marks a recovery point, and if the plan's fail-stop
    /// fault fires at this block the failed rank pays the redo time back
    /// to the previous checkpoint plus
    /// [`RESTART_OVERHEAD_SECS`](crate::chaos::RESTART_OVERHEAD_SECS).
    /// Recovery is pure recomputation of deterministic work, so the
    /// caller's numerics need no rollback — only time is charged.
    pub fn checkpoint(&mut self) {
        self.ranks.iter_mut().for_each(RankLedger::checkpoint);
    }

    /// Current virtual time on rank `rank` (the thread engine's
    /// [`Comm::clock`](crate::Comm::clock)).
    pub fn clock(&self, rank: usize) -> f64 {
        self.ranks[rank].clock()
    }

    /// Cost counters accumulated so far on rank `rank` (the thread
    /// engine's [`Comm::counters`](crate::Comm::counters)).
    pub fn counters(&self, rank: usize) -> CostCounters {
        self.ranks[rank].counters()
    }

    /// Current simulated time (max over rank clocks).
    pub fn time(&self) -> f64 {
        self.ranks.iter().map(RankLedger::clock).fold(0.0, f64::max)
    }

    /// Critical-path cost report: the counters of the computational
    /// straggler (max comp time, tie broken towards the highest rank —
    /// the same rule as the thread engine and as
    /// [`Registry::critical_rank`]).
    pub fn report(&self) -> CostReport {
        ledger::report(&self.ranks)
    }

    /// Total payload words handed to fused allreduces so far. Program-
    /// order: identical on every rank, so this is rank 0's count.
    pub fn words_packed(&self) -> u64 {
        self.ranks[0].telemetry().words_packed
    }

    /// In-flight fused-allreduce time hidden behind computation on the
    /// critical (max-comp) rank — the overlap that shortened the
    /// reported timeline.
    pub fn overlap_hidden_time(&self) -> f64 {
        self.ranks[ledger::critical_rank(&self.ranks)]
            .telemetry()
            .hidden_time
    }

    /// Merged telemetry registry for the run so far: per-rank phase
    /// tables plus program-order collective counters, with
    /// `meta.engine = "virtual_cluster"`. Phase totals reconcile with
    /// [`report`](Self::report): per rank, the `comm` phase equals the
    /// comm counter and `comp + gram + prox + sampling` equals the comp
    /// counter.
    pub fn telemetry(&self) -> Registry {
        ledger::registry("virtual_cluster", &self.ranks, self.clean.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosSpec, RESTART_OVERHEAD_SECS};
    use crate::thread_machine::ThreadMachine;

    #[test]
    fn uniform_charges_advance_all_clocks() {
        let mut vc = VirtualCluster::new(8, CostModel::cray_xc30());
        vc.charge(KernelClass::Dot, Phase::Comp, |_| (1_200_000, 10));
        let expect = 1_200_000.0 / vc.model().dot_rate;
        assert!((vc.time() - expect).abs() < 1e-15);
    }

    #[test]
    fn imbalanced_charges_create_idle_time() {
        let mut vc = VirtualCluster::new(4, CostModel::cray_xc30());
        vc.charge(KernelClass::Dot, Phase::Comp, |r| {
            ((r as u64 + 1) * 1_200_000, 10)
        });
        vc.iallreduce(4);
        let rep = vc.report();
        // critical rank (3) did 4.8 Mflops and waited for nobody
        assert_eq!(rep.critical.flops, 4_800_000);
        assert!(rep.critical.idle_time < 1e-15);
        // total time = slowest compute + collective
        let expect =
            4.0 * 1_200_000.0 / vc.model().dot_rate + vc.model().fused_allreduce_charge(4, 4).time;
        assert!((vc.time() - expect).abs() < 1e-12);
    }

    #[test]
    fn matches_thread_machine_on_scripted_run() {
        // The same SPMD script on both engines must produce identical
        // virtual times and counters.
        let model = CostModel::cray_xc30();
        let p = 8;

        let (_, thread_report, _) = ThreadMachine::run(p, model, |comm| {
            for _ in 0..5 {
                comm.charge(
                    KernelClass::Dot,
                    (comm.rank() as u64 + 1) * 100_000,
                    64,
                    Phase::Comp,
                );
                let mut buf = vec![1.0; 16];
                comm.iallreduce_sum(&mut buf);
                comm.charge(KernelClass::Vector, 50_000, 64, Phase::Comp);
            }
        });

        let mut vc = VirtualCluster::new(p, model);
        for _ in 0..5 {
            vc.charge(KernelClass::Dot, Phase::Comp, |r| {
                ((r as u64 + 1) * 100_000, 64)
            });
            vc.iallreduce(16);
            vc.charge(KernelClass::Vector, Phase::Comp, |_| (50_000, 64));
        }
        let virtual_report = vc.report();

        let t = thread_report.critical;
        let v = virtual_report.critical;
        assert!(
            (t.total_time() - v.total_time()).abs() < 1e-12,
            "thread {} vs virtual {}",
            t.total_time(),
            v.total_time()
        );
        assert_eq!(t.messages, v.messages);
        assert_eq!(t.words, v.words);
        assert_eq!(t.flops, v.flops);
        assert!((t.comm_time - v.comm_time).abs() < 1e-12);
        assert!((t.comp_time - v.comp_time).abs() < 1e-12);
        assert!((t.idle_time - v.idle_time).abs() < 1e-12);
    }

    #[test]
    fn chaos_engines_agree_on_scripted_run() {
        // The same SPMD script with the same chaos spec on both engines
        // must produce identical perturbed times: the schedule draws are
        // pure functions of (seed, rank, program-order index), shared by
        // both engines.
        let model = CostModel::cray_xc30();
        let p = 8;
        let spec = ChaosSpec {
            seed: 77,
            skew: 0.15,
            jitter: 5e-5,
            straggle: 0.3,
            fail: Some((2, 1)),
        };

        let (_, thread_report, thread_reg) = ThreadMachine::run(p, model, |comm| {
            comm.enable_chaos(&spec);
            for _ in 0..4 {
                comm.charge(
                    KernelClass::Dot,
                    (comm.rank() as u64 + 1) * 100_000,
                    64,
                    Phase::Comp,
                );
                let mut buf = vec![1.0; 16];
                let req = comm.iallreduce_sum_start(&mut buf);
                comm.charge(KernelClass::Vector, 50_000, 64, Phase::Comp);
                comm.iallreduce_wait(req);
                comm.checkpoint();
            }
        });

        let mut vc = VirtualCluster::new(p, model);
        vc.enable_chaos(&spec);
        for _ in 0..4 {
            vc.charge(KernelClass::Dot, Phase::Comp, |r| {
                ((r as u64 + 1) * 100_000, 64)
            });
            vc.iallreduce_start(16);
            vc.charge(KernelClass::Vector, Phase::Comp, |_| (50_000, 64));
            vc.iallreduce_wait();
            vc.checkpoint();
        }
        let virtual_report = vc.report();
        let virtual_reg = vc.telemetry();

        let t = thread_report.critical;
        let v = virtual_report.critical;
        assert!(
            (t.total_time() - v.total_time()).abs() < 1e-12,
            "thread {} vs virtual {}",
            t.total_time(),
            v.total_time()
        );
        assert_eq!(t.messages, v.messages);
        assert_eq!(t.words, v.words);
        assert!((t.comp_time - v.comp_time).abs() < 1e-12);
        assert!((t.comm_time - v.comm_time).abs() < 1e-12);
        assert!((t.idle_time - v.idle_time).abs() < 1e-12);
        // The injected schedules (not just the totals) agree.
        for key in ["chaos.stalls", "chaos.failures", "chaos.checkpoints"] {
            assert_eq!(thread_reg.counter(key), virtual_reg.counter(key), "{key}");
        }
        for key in [
            "chaos.stall_time",
            "chaos.skew_time",
            "chaos.jitter_time",
            "chaos.recovery_time",
        ] {
            let a = thread_reg.gauge(key).expect(key);
            let b = virtual_reg.gauge(key).expect(key);
            assert!((a - b).abs() < 1e-12, "{key}: thread {a} vs virtual {b}");
        }
        assert_eq!(virtual_reg.counter("chaos.failures"), 1, "the fault fired");
        assert_eq!(virtual_reg.counter("chaos.checkpoints"), 4);
        assert!(virtual_reg.gauge("chaos.recovery_time").unwrap() > RESTART_OVERHEAD_SECS);
        // Exact induced-idle attribution exists only on the analytic
        // engine; the chaos run idles more than its clean counterfactual.
        assert!(virtual_reg.gauge("chaos.induced_idle_time").unwrap() > 0.0);
        assert_eq!(thread_reg.gauge("chaos.induced_idle_time"), Some(0.0));
    }

    #[test]
    fn chaos_off_checkpoint_is_free() {
        let model = CostModel::cray_xc30();
        let mut a = VirtualCluster::new(4, model);
        let mut b = VirtualCluster::new(4, model);
        for vc in [&mut a, &mut b] {
            vc.charge(KernelClass::Dot, Phase::Comp, |_| (500_000, 64));
            vc.iallreduce(8);
        }
        b.checkpoint();
        assert_eq!(a.time().to_bits(), b.time().to_bits());
        assert_eq!(a.report().critical, b.report().critical);
    }

    #[test]
    fn zero_intensity_chaos_changes_no_times() {
        let model = CostModel::cray_xc30();
        let script = |vc: &mut VirtualCluster| {
            for _ in 0..3 {
                vc.charge(KernelClass::Dot, Phase::Comp, |r| {
                    ((r as u64 + 1) * 80_000, 64)
                });
                vc.iallreduce(16);
                vc.checkpoint();
            }
        };
        let mut clean = VirtualCluster::new(4, model);
        script(&mut clean);
        let mut chaotic = VirtualCluster::new(4, model);
        chaotic.enable_chaos(&ChaosSpec::default());
        script(&mut chaotic);
        assert_eq!(clean.time().to_bits(), chaotic.time().to_bits());
        let reg = chaotic.telemetry();
        assert_eq!(reg.counter("chaos.stalls"), 0);
        assert_eq!(reg.counter("chaos.checkpoints"), 3);
        assert_eq!(reg.gauge("chaos.induced_idle_time"), Some(0.0));
    }

    #[test]
    fn large_p_is_cheap_to_simulate() {
        let mut vc = VirtualCluster::new(12_288, CostModel::cray_xc30());
        for _ in 0..100 {
            vc.charge(KernelClass::Dot, Phase::Comp, |_| (1000, 10));
            vc.iallreduce(64);
        }
        assert_eq!(vc.report().critical.messages, 100 * 14);
        assert!(vc.time() > 0.0);
    }

    #[test]
    fn single_rank_has_no_comm() {
        let mut vc = VirtualCluster::new(1, CostModel::cray_xc30());
        vc.iallreduce(1000);
        assert_eq!(vc.time(), 0.0);
        assert_eq!(vc.report().critical.messages, 0);
    }

    #[test]
    fn telemetry_reconciles_with_report() {
        let mut vc = VirtualCluster::new(4, CostModel::cray_xc30());
        vc.charge(KernelClass::SparseGemm, Phase::Gram, |r| {
            ((r as u64 + 1) * 300_000, 256)
        });
        vc.charge(KernelClass::Gemm, Phase::Prox, |_| (200_000, 128));
        vc.charge(KernelClass::Dot, Phase::Sampling, |_| (40_000, 64));
        vc.iallreduce(16);
        let reg = vc.telemetry();
        let rep = vc.report();
        let critical = reg.critical_rank().expect("ranks attributed");
        let table = reg.phases(critical).unwrap();
        assert!((table.comp_time() - rep.critical.comp_time).abs() < 1e-12);
        assert!((table.comm_time() - rep.critical.comm_time).abs() < 1e-12);
        assert!((table.idle_time() - rep.critical.idle_time).abs() < 1e-12);
        assert_eq!(reg.counter("collectives.allreduce"), 1);
        assert_eq!(reg.meta()["engine"], "virtual_cluster");
        // the same phase-labelled charges land under their labels
        assert!(table.time(Phase::Gram) > 0.0);
        assert!(table.time(Phase::Prox) > 0.0);
        assert!(table.time(Phase::Sampling) > 0.0);
    }

    #[test]
    fn both_engines_feed_the_same_sink_identically() {
        let model = CostModel::cray_xc30();
        let p = 4;
        let (_, _, thread_reg) = ThreadMachine::run(p, model, |comm| {
            comm.charge(
                KernelClass::Dot,
                (comm.rank() as u64 + 1) * 100_000,
                64,
                Phase::Gram,
            );
            let mut buf = vec![1.0; 16];
            comm.iallreduce_sum(&mut buf);
        });
        let mut vc = VirtualCluster::new(p, model);
        vc.charge(KernelClass::Dot, Phase::Gram, |r| {
            ((r as u64 + 1) * 100_000, 64)
        });
        vc.iallreduce(16);
        let virtual_reg = vc.telemetry();
        for rank in 0..p {
            let t = thread_reg.phases(rank).unwrap();
            let v = virtual_reg.phases(rank).unwrap();
            for phase in Phase::ALL {
                assert!(
                    (t.time(phase) - v.time(phase)).abs() < 1e-12,
                    "rank {rank} phase {phase}: thread {} vs virtual {}",
                    t.time(phase),
                    v.time(phase)
                );
                assert_eq!(
                    t.get(phase).words,
                    v.get(phase).words,
                    "rank {rank} {phase}"
                );
                assert_eq!(
                    t.get(phase).flops,
                    v.get(phase).flops,
                    "rank {rank} {phase}"
                );
            }
        }
        assert_eq!(
            thread_reg.counter("collectives.allreduce"),
            virtual_reg.counter("collectives.allreduce")
        );
    }

    #[test]
    fn fused_overlap_costs_max_of_comp_and_comm() {
        // Comp shorter than the in-flight collective: the overlapped
        // window is hidden, only the remainder is visible comm.
        let model = CostModel::cray_xc30();
        let words = 1000u64;
        let cost = model.fused_allreduce_charge(4, words).time;
        let mut vc = VirtualCluster::new(4, model);
        vc.iallreduce_start(words);
        let comp = cost / 2.0;
        let flops = (comp * model.dot_rate).round() as u64;
        vc.charge(KernelClass::Dot, Phase::Comp, |_| (flops, 10));
        vc.iallreduce_wait();
        let rep = vc.report();
        assert!((vc.time() - cost).abs() < 1e-12, "time = max(comp, comm)");
        assert!((rep.critical.comm_time - (cost - rep.critical.comp_time)).abs() < 1e-12);
        assert!(rep.critical.idle_time.abs() < 1e-15);
        assert!((vc.overlap_hidden_time() - rep.critical.comp_time).abs() < 1e-12);

        // Comp longer than the collective: comm is fully hidden.
        let mut vc = VirtualCluster::new(4, model);
        vc.iallreduce_start(words);
        vc.charge(KernelClass::Dot, Phase::Comp, |_| (4 * flops, 10));
        vc.iallreduce_wait();
        let rep = vc.report();
        assert!((vc.time() - rep.critical.comp_time).abs() < 1e-12);
        assert!(rep.critical.comm_time.abs() < 1e-15, "comm fully hidden");
        assert!((vc.overlap_hidden_time() - cost).abs() < 1e-12);
    }

    #[test]
    fn fused_no_overlap_matches_blocking_shape() {
        // start immediately followed by wait is a blocking collective:
        // ranks wait for the straggler as idle, the whole charge is
        // visible comm, nothing is hidden.
        let model = CostModel::cray_xc30();
        let mut vc = VirtualCluster::new(4, model);
        vc.charge(KernelClass::Dot, Phase::Comp, |r| {
            ((r as u64 + 1) * 1_200_000, 10)
        });
        vc.iallreduce(64);
        let rep = vc.report();
        let charge = model.fused_allreduce_charge(4, 64);
        assert_eq!(rep.critical.messages, charge.rounds);
        assert_eq!(rep.critical.words, charge.words_moved);
        assert!(rep.critical.idle_time < 1e-15, "critical rank never waits");
        assert!((rep.critical.comm_time - charge.time).abs() < 1e-15);
        assert_eq!(vc.words_packed(), 64);
        assert_eq!(vc.overlap_hidden_time(), 0.0, "nothing overlapped");
    }

    #[test]
    fn fused_engines_agree_with_overlap() {
        // The same SPMD script — including overlapped fused allreduces —
        // on both engines must produce identical counters and telemetry.
        let model = CostModel::cray_xc30();
        let p = 8;
        let (_, thread_report, thread_reg) = ThreadMachine::run(p, model, |comm| {
            for _ in 0..5 {
                comm.charge(
                    KernelClass::Dot,
                    (comm.rank() as u64 + 1) * 100_000,
                    64,
                    Phase::Comp,
                );
                let mut buf = vec![1.0; 16];
                let req = comm.iallreduce_sum_start(&mut buf);
                comm.charge(KernelClass::Vector, 50_000, 64, Phase::Comp);
                comm.iallreduce_wait(req);
            }
        });
        let mut vc = VirtualCluster::new(p, model);
        for _ in 0..5 {
            vc.charge(KernelClass::Dot, Phase::Comp, |r| {
                ((r as u64 + 1) * 100_000, 64)
            });
            vc.iallreduce_start(16);
            vc.charge(KernelClass::Vector, Phase::Comp, |_| (50_000, 64));
            vc.iallreduce_wait();
        }
        let virtual_report = vc.report();
        let t = thread_report.critical;
        let v = virtual_report.critical;
        assert!((t.total_time() - v.total_time()).abs() < 1e-12);
        assert_eq!(t.messages, v.messages);
        assert_eq!(t.words, v.words);
        assert!((t.comm_time - v.comm_time).abs() < 1e-12);
        assert!((t.comp_time - v.comp_time).abs() < 1e-12);
        assert!((t.idle_time - v.idle_time).abs() < 1e-12);
        let virtual_reg = vc.telemetry();
        assert_eq!(
            thread_reg.counter("comm.words_packed"),
            virtual_reg.counter("comm.words_packed")
        );
        assert_eq!(thread_reg.counter("comm.words_packed"), 5 * 16);
        let th = thread_reg.gauge("comm.overlap_hidden_time").expect("gauge");
        let vh = virtual_reg
            .gauge("comm.overlap_hidden_time")
            .expect("gauge");
        assert!((th - vh).abs() < 1e-12, "hidden time: {th} vs {vh}");
        assert!(th > 0.0, "overlap actually hid time");
    }

    #[test]
    #[should_panic(expected = "one fused allreduce")]
    fn two_outstanding_iallreduces_panic() {
        let mut vc = VirtualCluster::new(4, CostModel::cray_xc30());
        vc.iallreduce_start(8);
        vc.iallreduce_start(8);
    }

    #[test]
    fn latency_reduction_by_s_shows_up() {
        // The core SA effect at the machine level: s unit-word allreduces
        // cost ~s× one s²-word allreduce while latency dominates — on the
        // Cray's α, and (the paper's §VII remark) on a Spark-like machine
        // with two orders of magnitude more latency.
        let s = 16u64;
        for alpha in [CostModel::cray_xc30().alpha, 1.0e-3] {
            let model = CostModel {
                alpha,
                ..CostModel::cray_xc30()
            };
            let mut non_sa = VirtualCluster::new(1024, model);
            for _ in 0..s {
                non_sa.iallreduce(1);
            }
            let mut sa = VirtualCluster::new(1024, model);
            sa.iallreduce(s * s);
            let speedup = non_sa.time() / sa.time();
            assert!(
                speedup > 4.0,
                "α={alpha}: communication speedup only {speedup}"
            );
            assert!(speedup < s as f64 + 0.5, "α={alpha}: {speedup}");
        }
    }
}
