//! The thread-backed SPMD engine: real ranks, real messages.
//!
//! One OS thread per rank, a dedicated crossbeam channel per ordered rank
//! pair (so message matching is trivially deterministic: per-pair FIFO),
//! and a binomial-tree allreduce that combines contributions in a fixed
//! order — repeated runs are bit-identical.
//!
//! Data movement is physical; *time* is simulated. Each rank's [`Comm`] is
//! a `RankLedger` plus the channels and the tree: the tree carries every
//! rank's entry clock up and the latest one back down, and the ledger —
//! the same code the virtual engine loops over — does all the accounting,
//! so small thread-machine runs validate the large-scale virtual runs.

use crate::chaos::ChaosSpec;
use crate::cost::{CostCounters, CostModel, CostReport, KernelClass};
use crate::ledger::{self, Collective, RankLedger};
use crossbeam::channel::{unbounded, Receiver, Sender};
use saco_telemetry::{Phase, PhaseTable, Registry};

/// A message carrying payload and a virtual clock: the sender's latest
/// known entry clock on the way up the tree, the global one on the way
/// down.
struct Packet {
    clock: f64,
    data: Vec<f64>,
}

/// Handle to an in-flight allreduce started with
/// [`Comm::iallreduce_sum_start`]: the priced collective, settled on the
/// rank's ledger at [`Comm::iallreduce_wait`]. Until then the reduction
/// is logically in flight and its buffer must not be read.
#[must_use = "an iallreduce must be completed with iallreduce_wait"]
pub struct IallreduceRequest(Option<Collective>);

/// One rank's handle to the machine: rank id, channels to every peer and
/// the rank's ledger (virtual clock, cost counters, telemetry, chaos).
pub struct Comm {
    rank: usize,
    size: usize,
    model: CostModel,
    to: Vec<Sender<Packet>>,
    from: Vec<Receiver<Packet>>,
    ledger: RankLedger,
}

impl Comm {
    /// This rank's id in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The machine's cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Current virtual time on this rank.
    pub fn clock(&self) -> f64 {
        self.ledger.clock()
    }

    /// Cost counters accumulated so far on this rank.
    pub fn counters(&self) -> CostCounters {
        self.ledger.counters()
    }

    /// This rank's per-phase time attribution so far.
    pub fn phase_table(&self) -> &PhaseTable {
        self.ledger.phases()
    }

    /// Switch on deterministic chaos injection for this rank (see
    /// [`crate::chaos`]). Call at the top of the SPMD closure, before any
    /// charging: every rank must enable the same spec, and the draws are
    /// keyed by `(seed, rank, program-order index)`, so the injected
    /// schedule is identical to the virtual cluster's for the same spec.
    /// Chaos perturbs charged *time* only; payload data is untouched.
    pub fn enable_chaos(&mut self, spec: &ChaosSpec) {
        self.ledger.enable_chaos(spec, self.rank);
    }

    /// Block-boundary checkpoint: a free no-op on clean runs. With chaos
    /// enabled it marks a recovery point; if this rank's fail-stop fault
    /// fires at this block, the rank pays the redo time back to the
    /// previous checkpoint plus
    /// [`RESTART_OVERHEAD_SECS`](crate::chaos::RESTART_OVERHEAD_SECS).
    /// Recovery recomputes deterministic work, so numerics are untouched.
    pub fn checkpoint(&mut self) {
        self.ledger.checkpoint();
    }

    /// Charge local computation: `flops` of `class` with a working set of
    /// `working_set_words`, attributed to telemetry phase `phase`
    /// (`comp`, `gram`, `prox`, `sampling`, …). Advances this rank's clock
    /// only. The phase is an attribution label — the cost is the same
    /// under any — so phase totals always reconcile with [`CostCounters`].
    pub fn charge(&mut self, class: KernelClass, flops: u64, working_set_words: u64, phase: Phase) {
        self.ledger
            .charge(&self.model, class, flops, working_set_words, phase);
    }

    fn send(&self, dst: usize, clock: f64, data: Vec<f64>) {
        self.to[dst]
            .send(Packet { clock, data })
            .expect("peer rank hung up");
    }

    fn recv(&self, src: usize) -> Packet {
        self.from[src].recv().expect("peer rank hung up")
    }

    /// The data exchange behind the allreduce: sum `buf` across ranks in
    /// place and return the latest entry clock of any participant (this
    /// rank joined at the ledger's entry clock).
    ///
    /// Reduce up a fixed binomial tree — at distance `d`, rank `r` with
    /// `r % 2d == 0` receives from `r + d` and adds the partner's partial
    /// sum *after* its own (deterministic association); every other rank
    /// sends its partial sum to `r − d` and is done — then broadcast the
    /// root's result back down the same tree. No cost is charged here:
    /// the ledger settles the analytic formula, so both engines agree.
    fn tree_allreduce(&self, buf: &mut Vec<f64>) -> f64 {
        let (rank, size) = (self.rank, self.size);
        let mut max_entry = self.ledger.entry();
        let mut d = 1;
        while d < size && rank.is_multiple_of(2 * d) {
            if rank + d < size {
                let pkt = self.recv(rank + d);
                max_entry = max_entry.max(pkt.clock);
                for (b, v) in buf.iter_mut().zip(&pkt.data) {
                    *b += v;
                }
            }
            d *= 2;
        }
        // Rank 0 left the loop holding the global sum with `d` the first
        // power of two ≥ size; any other rank with `d` its lowest set bit,
        // the distance to its parent.
        if rank != 0 {
            self.send(rank - d, max_entry, std::mem::take(buf));
            let pkt = self.recv(rank - d);
            max_entry = pkt.clock;
            *buf = pkt.data;
        }
        // Children sit at every power-of-two distance below `d`.
        while d > 1 {
            d /= 2;
            if rank + d < size {
                self.send(rank + d, max_entry, buf.clone());
            }
        }
        max_entry
    }

    /// Start the machine's one collective, a **nonblocking fused
    /// allreduce** of `buf` (summation, in place). The payload is one
    /// contiguous buffer — the solvers pack Gram triangle + cross terms +
    /// scalars into it — priced by the segment-pipelined
    /// [`fused_allreduce_charge`](CostModel::fused_allreduce_charge):
    /// `⌈log₂P⌉` latency rounds and `2·w·(P−1)/P` words on the critical
    /// path.
    ///
    /// The data is physically exchanged now (the payload is fixed at
    /// start) but is not valid until [`iallreduce_wait`] consumes the
    /// returned request and settles the virtual-time charge; computation
    /// charged between start and wait overlaps the in-flight reduction
    /// (virtual time advances by `max(comp, comm)`, not their sum).
    /// Deterministic: the exchange is a fixed binomial tree, so the
    /// result is bitwise identical on every rank and across runs, with
    /// any amount of overlapped work.
    ///
    /// [`iallreduce_wait`]: Self::iallreduce_wait
    pub fn iallreduce_sum_start(&mut self, buf: &mut Vec<f64>) -> IallreduceRequest {
        if self.size == 1 {
            return IallreduceRequest(None);
        }
        let jitter = self.ledger.enter_collective();
        let words = buf.len() as u64;
        let max_entry = self.tree_allreduce(buf);
        IallreduceRequest(Some(Collective::fused(
            &self.model,
            self.size,
            words,
            max_entry,
            jitter,
        )))
    }

    /// Complete an allreduce: the collective finishes at
    /// `max_entry + cost`; this rank leaves at
    /// `max(arrival, completion)`. Of the remaining in-flight window only
    /// `min(cost, completion − arrival)` is charged as communication (the
    /// rest is idle), and the portion that computation already covered is
    /// recorded as hidden time — the `comm.overlap_hidden_time` gauge.
    pub fn iallreduce_wait(&mut self, req: IallreduceRequest) {
        if let Some(collective) = req.0 {
            self.ledger.settle_fused(&collective);
        }
    }

    /// Blocking form: [`iallreduce_sum_start`] immediately completed by
    /// [`iallreduce_wait`] — the reference schedule the overlapped one is
    /// tested against. Identical wire format and charge; zero overlap. An
    /// empty `buf` is a barrier.
    ///
    /// [`iallreduce_sum_start`]: Self::iallreduce_sum_start
    /// [`iallreduce_wait`]: Self::iallreduce_wait
    pub fn iallreduce_sum(&mut self, buf: &mut Vec<f64>) {
        let req = self.iallreduce_sum_start(buf);
        self.iallreduce_wait(req);
    }

    /// Scalar summation, the solvers' bookkeeping reductions.
    pub fn iallreduce_scalar(&mut self, v: f64) -> f64 {
        let mut buf = vec![v];
        self.iallreduce_sum(&mut buf);
        buf[0]
    }
}

/// The machine: spawns `p` ranks and runs the same SPMD closure on each.
pub struct ThreadMachine;

impl ThreadMachine {
    /// Run `f(rank_comm)` on `p` ranks. Returns the per-rank results in
    /// rank order, the critical-path cost report — the counters of the
    /// computational straggler: maximum comp time, ties toward the
    /// highest rank — and the merged telemetry registry (per-rank phase
    /// tables keyed by rank plus program-order collective counters, with
    /// `meta.engine = "thread_machine"`), whose
    /// [`critical_rank`](Registry::critical_rank) names the same rank.
    ///
    /// ```
    /// use mpisim::{CostModel, ThreadMachine};
    /// let (results, report, _) = ThreadMachine::run(4, CostModel::cray_xc30(), |comm| {
    ///     let mut buf = vec![comm.rank() as f64];
    ///     comm.iallreduce_sum(&mut buf);
    ///     buf[0]
    /// });
    /// // 0 + 1 + 2 + 3, replicated on every rank
    /// assert!(results.iter().all(|v| *v == 6.0));
    /// assert_eq!(report.critical.messages, 2); // ⌈log₂ 4⌉ rounds
    /// ```
    ///
    /// # Panics
    /// Panics if `p == 0` or if any rank panics.
    pub fn run<T, F>(p: usize, model: CostModel, f: F) -> (Vec<T>, CostReport, Registry)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        assert!(p > 0, "need at least one rank");
        // Channel matrix: senders[src][dst], receivers[dst][src].
        let mut senders: Vec<Vec<Sender<Packet>>> = Vec::with_capacity(p);
        let mut receivers: Vec<Vec<Receiver<Packet>>> =
            (0..p).map(|_| Vec::with_capacity(p)).collect();
        for _ in 0..p {
            let mut row = Vec::with_capacity(p);
            for to_dst in &mut receivers {
                let (tx, rx) = unbounded();
                row.push(tx);
                to_dst.push(rx);
            }
            senders.push(row);
        }
        let comms: Vec<Comm> = senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (to, from))| Comm {
                rank,
                size: p,
                model,
                to,
                from,
                ledger: RankLedger::default(),
            })
            .collect();
        // Each SPMD rank blocks on its channels mid-collective, so ranks
        // can never share a pooled worker: `scoped_map` gives every rank
        // its own OS thread (it is the pool crate's one explicitly
        // non-pooled primitive, kept there so all thread-spawning in the
        // workspace routes through `saco-par`; a lone rank runs inline).
        let (results, ledgers): (Vec<T>, Vec<RankLedger>) =
            saco_par::scoped_map(comms, |_, mut c| (f(&mut c), c.ledger))
                .into_iter()
                .unzip();
        let registry = ledger::registry("thread_machine", &ledgers, None);
        (results, ledger::report(&ledgers), registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_sums_across_ranks() {
        for p in [1, 2, 3, 4, 5, 8, 13] {
            let (results, _, _) = ThreadMachine::run(p, CostModel::cray_xc30(), |comm| {
                let mut buf = vec![comm.rank() as f64 + 1.0, 1.0];
                comm.iallreduce_sum(&mut buf);
                buf
            });
            let expect0 = (p * (p + 1) / 2) as f64;
            for r in &results {
                assert_eq!(r[0], expect0, "p={p}");
                assert_eq!(r[1], p as f64);
            }
        }
    }

    #[test]
    fn allreduce_is_deterministic_including_fp_order() {
        let run = || {
            ThreadMachine::run(7, CostModel::cray_xc30(), |comm| {
                let mut buf = vec![0.1 * (comm.rank() as f64 + 1.0); 3];
                comm.iallreduce_sum(&mut buf);
                buf
            })
            .0
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "bitwise identical across runs");
        // and identical across ranks within one run
        for x in &a {
            assert_eq!(x, &a[0]);
        }
    }

    #[test]
    fn point_to_point_ring() {
        // The channel mesh under the tree: one FIFO per ordered rank pair,
        // wired so `send(dst)` on rank r arrives at `recv(r)` on rank dst.
        let (results, _, _) = ThreadMachine::run(4, CostModel::cray_xc30(), |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 0.0, vec![comm.rank() as f64]);
            comm.recv(prev).data[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn clocks_advance_with_collectives_and_flops() {
        let model = CostModel::cray_xc30();
        let (results, _, _) = ThreadMachine::run(4, model, |comm| {
            comm.charge(KernelClass::Dot, 1_200_000, 100, Phase::Comp);
            let mut buf = vec![1.0; 8];
            comm.iallreduce_sum(&mut buf);
            (comm.clock(), comm.counters())
        });
        let charge = model.fused_allreduce_charge(4, 8);
        let expect = 1_200_000.0 / model.dot_rate + charge.time;
        for (t, c) in &results {
            assert!((t - expect).abs() < 1e-12, "clock {t} vs {expect}");
            assert_eq!(c.flops, 1_200_000);
            assert_eq!(c.messages, 2); // 2 rounds on 4 ranks
            assert_eq!(c.words, charge.words_moved);
        }
    }

    #[test]
    fn straggler_shows_up_as_idle_time() {
        let model = CostModel::cray_xc30();
        let (results, _, _) = ThreadMachine::run(2, model, |comm| {
            if comm.rank() == 1 {
                comm.charge(KernelClass::Dot, 12_000_000, 100, Phase::Comp); // 10 ms straggler
            }
            let mut buf = vec![0.0];
            comm.iallreduce_sum(&mut buf);
            comm.counters()
        });
        let (fast, slow) = (&results[0], &results[1]);
        assert!(fast.idle_time > 9e-3, "rank 0 waited: {}", fast.idle_time);
        assert!(
            slow.idle_time < 1e-9,
            "rank 1 never waited: {}",
            slow.idle_time
        );
        // both leave the collective at the same clock
        let t0 = results[0].total_time();
        let t1 = results[1].total_time();
        assert!((t0 - t1).abs() < 1e-12);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let (clocks, _, _) = ThreadMachine::run(3, CostModel::cray_xc30(), |comm| {
            comm.charge(
                KernelClass::Vector,
                (comm.rank() as u64 + 1) * 2_000_000,
                10,
                Phase::Comp,
            );
            comm.iallreduce_sum(&mut Vec::new()); // an empty allreduce is a barrier
            comm.clock()
        });
        assert!((clocks[0] - clocks[1]).abs() < 1e-12);
        assert!((clocks[1] - clocks[2]).abs() < 1e-12);
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let (results, _, _) = ThreadMachine::run(1, CostModel::cray_xc30(), |comm| {
            let mut buf = vec![5.0];
            comm.iallreduce_sum(&mut buf);
            (buf[0], comm.clock())
        });
        assert_eq!(results[0], (5.0, 0.0));
    }

    #[test]
    fn run_report_picks_critical_path() {
        let (_, report, _) = ThreadMachine::run(4, CostModel::cray_xc30(), |comm| {
            comm.charge(
                KernelClass::Dot,
                (comm.rank() as u64 + 1) * 1_000_000,
                10,
                Phase::Comp,
            );
            let mut b = vec![0.0];
            comm.iallreduce_sum(&mut b);
        });
        assert_eq!(report.ranks, 4);
        assert!(report.running_time() > 0.0);
        // the critical rank is the slowest (rank 3): it has 4 Mflops
        assert_eq!(report.critical.flops, 4_000_000);
    }

    #[test]
    fn telemetry_phases_reconcile_with_counters() {
        let (results, _, registry) = ThreadMachine::run(4, CostModel::cray_xc30(), |comm| {
            comm.charge(KernelClass::SparseGemm, 500_000, 256, Phase::Gram);
            comm.charge(
                KernelClass::Gemm,
                (comm.rank() as u64 + 1) * 200_000,
                128,
                Phase::Prox,
            );
            comm.charge(KernelClass::Vector, 50_000, 64, Phase::Comp);
            let mut buf = vec![1.0; 8];
            comm.iallreduce_sum(&mut buf);
            comm.iallreduce_sum(&mut Vec::new());
            comm.counters()
        });
        for (rank, counters) in results.iter().enumerate() {
            let table = registry.phases(rank).expect("rank attributed");
            assert!(
                (table.comm_time() - counters.comm_time).abs() < 1e-12,
                "rank {rank} comm: {} vs {}",
                table.comm_time(),
                counters.comm_time
            );
            assert!(
                (table.comp_time() - counters.comp_time).abs() < 1e-12,
                "rank {rank} comp: {} vs {}",
                table.comp_time(),
                counters.comp_time
            );
            assert!((table.idle_time() - counters.idle_time).abs() < 1e-12);
            // phase-level flop attribution adds up to the counter too
            let phase_flops: u64 = table.iter().map(|(_, s)| s.flops).sum();
            assert_eq!(phase_flops, counters.flops);
        }
        assert_eq!(registry.counter("collectives.allreduce"), 2);
        assert_eq!(registry.meta()["engine"], "thread_machine");
    }

    #[test]
    fn telemetry_critical_rank_matches_report() {
        let (_, report, registry) = ThreadMachine::run(4, CostModel::cray_xc30(), |comm| {
            comm.charge(
                KernelClass::Dot,
                (comm.rank() as u64 + 1) * 1_000_000,
                10,
                Phase::Comp,
            );
            let mut b = vec![0.0];
            comm.iallreduce_sum(&mut b);
        });
        let critical = registry.critical_rank().expect("nonempty run");
        assert_eq!(critical, 3);
        let table = registry.phases(critical).unwrap();
        assert!((table.comp_time() - report.critical.comp_time).abs() < 1e-12);
        assert!((table.comm_time() - report.critical.comm_time).abs() < 1e-12);
    }

    #[test]
    fn iallreduce_overlap_shortens_the_clock() {
        let model = CostModel::cray_xc30();
        let run = |overlap: bool| {
            ThreadMachine::run(4, model, move |comm| {
                let mut buf = vec![1.0; 1000];
                if overlap {
                    let req = comm.iallreduce_sum_start(&mut buf);
                    comm.charge(KernelClass::Dot, 6_000, 10, Phase::Comp);
                    comm.iallreduce_wait(req);
                } else {
                    comm.iallreduce_sum(&mut buf);
                    comm.charge(KernelClass::Dot, 6_000, 10, Phase::Comp);
                }
                (comm.clock(), comm.counters())
            })
            .0
        };
        let off = run(false);
        let on = run(true);
        for ((co, c_off), (cn, c_on)) in off.iter().zip(&on) {
            assert!(cn < co, "overlap must shorten the clock");
            // same wire traffic either way
            assert_eq!(c_off.messages, c_on.messages);
            assert_eq!(c_off.words, c_on.words);
            // the hidden portion came out of visible comm time
            assert!(c_on.comm_time < c_off.comm_time);
        }
    }
}
