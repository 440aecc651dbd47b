//! Property-based tests of the virtual cluster: for *any* SPMD program
//! made of compute charges, blocking and overlapped allreduces and
//! checkpoints, with or without chaos, a replay reports bitwise-identical
//! times and counters on every rank, every rank's counters reconcile with
//! its phase table, and the collectives are counted and priced by the
//! closed form. The merge laws of the accounting types close the file.

use mpisim::telemetry::Phase;
use mpisim::{ChaosSpec, CostModel, KernelClass, VirtualCluster};
use proptest::prelude::*;

/// One step of a random SPMD program.
#[derive(Clone, Debug)]
enum Step {
    /// Per-rank flops = base + rank·slope (deterministic imbalance).
    Compute {
        class: KernelClass,
        phase: Phase,
        base: u64,
        slope: u64,
        ws: u64,
    },
    /// Allreduce of the given payload, waited on at once.
    Allreduce { words: usize },
    /// Allreduce overlapped with rank-dependent work:
    /// start → charge → wait.
    Fused { words: usize, overlapped_flops: u64 },
    /// Block-boundary checkpoint (where an injected fault recovers).
    Checkpoint,
}

fn class_strategy() -> impl Strategy<Value = KernelClass> {
    prop_oneof![
        Just(KernelClass::Gemm),
        Just(KernelClass::SparseGemm),
        Just(KernelClass::Dot),
        Just(KernelClass::Vector),
    ]
}

fn phase_strategy() -> impl Strategy<Value = Phase> {
    prop_oneof![
        Just(Phase::Comp),
        Just(Phase::Gram),
        Just(Phase::Prox),
        Just(Phase::Sampling),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (
            class_strategy(),
            phase_strategy(),
            0u64..2_000_000,
            0u64..300_000,
            1u64..100_000
        )
            .prop_map(|(class, phase, base, slope, ws)| Step::Compute {
                class,
                phase,
                base,
                slope,
                ws
            }),
        (1usize..2000).prop_map(|words| Step::Allreduce { words }),
        // From nothing overlapped, through partly hidden, to fully hidden.
        (1usize..2000, 0u64..400_000).prop_map(|(words, overlapped_flops)| Step::Fused {
            words,
            overlapped_flops
        }),
        Just(Step::Checkpoint),
    ]
}

/// No chaos, or every perturbation at once: skew, jitter, stalls and a
/// fail-stop fault on one of the first ranks at one of the first blocks.
fn chaos_strategy() -> impl Strategy<Value = Option<ChaosSpec>> {
    prop_oneof![
        Just(None),
        (
            any::<u64>(),
            0.0f64..0.3,
            0.0f64..1e-4,
            0.0f64..0.5,
            0usize..3,
            0usize..4
        )
            .prop_map(
                |(seed, skew, jitter, straggle, rank, step)| Some(ChaosSpec {
                    seed,
                    skew,
                    jitter,
                    straggle,
                    fail: (rank < 2).then_some((rank, step)),
                })
            ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any program, any rank count, any chaos spec: replaying it gives
    /// the same bits on every rank — clock, counters and the whole phase
    /// table — each rank's counters are its phase table's totals, and
    /// every rank joined every allreduce at the closed-form price.
    #[test]
    fn random_programs_replay_and_reconcile(
        steps in proptest::collection::vec(step_strategy(), 1..20),
        p in 2usize..9,
        chaos in chaos_strategy(),
    ) {
        let model = CostModel::cray_xc30();
        let run = || {
            let mut vc = VirtualCluster::new(p, model);
            if let Some(spec) = &chaos {
                vc.enable_chaos(spec);
            }
            for step in &steps {
                match *step {
                    Step::Compute { class, phase, base, slope, ws } => {
                        vc.charge(class, phase, |r| (base + r as u64 * slope, ws));
                    }
                    Step::Allreduce { words } => vc.iallreduce(words as u64),
                    Step::Fused { words, overlapped_flops } => {
                        vc.iallreduce_start(words as u64);
                        vc.charge(KernelClass::Vector, Phase::Gram, |r| {
                            (r as u64 * overlapped_flops, 64)
                        });
                        vc.iallreduce_wait();
                    }
                    Step::Checkpoint => vc.checkpoint(),
                }
            }
            vc
        };
        let (vc, again) = (run(), run());
        let (reg, reg_again) = (vc.telemetry(), again.telemetry());

        let bits = |c: &mpisim::CostCounters| {
            let times = [c.comp_time, c.comm_time, c.idle_time].map(f64::to_bits);
            (c.messages, c.words, c.flops, times)
        };
        let (mut messages, mut words) = (0, 0);
        for step in &steps {
            if let Step::Allreduce { words: w } | Step::Fused { words: w, .. } = *step {
                let charge = model.fused_allreduce_charge(p, w as u64);
                messages += charge.rounds;
                words += charge.words_moved;
            }
        }
        for rank in 0..p {
            let c = vc.counters(rank);
            prop_assert_eq!(vc.clock(rank).to_bits(), again.clock(rank).to_bits(), "rank {} clock", rank);
            prop_assert_eq!(bits(&c), bits(&again.counters(rank)), "rank {} counters", rank);
            prop_assert_eq!((c.messages, c.words), (messages, words), "rank {} wire", rank);
            let empty = mpisim::telemetry::PhaseTable::new();
            let table = reg.phases(rank).unwrap_or(&empty);
            prop_assert_eq!(c.comm_time.to_bits(), table.comm_time().to_bits(), "rank {}", rank);
            prop_assert_eq!(c.comp_time.to_bits(), table.comp_time().to_bits(), "rank {}", rank);
            prop_assert_eq!(c.idle_time.to_bits(), table.idle_time().to_bits(), "rank {}", rank);
            for phase in Phase::ALL {
                let stat = |table: Option<&mpisim::telemetry::PhaseTable>| {
                    let s = *table?.get(phase);
                    Some((s.time.to_bits(), s.events, s.words, s.flops))
                };
                prop_assert_eq!(stat(reg.phases(rank)), stat(reg_again.phases(rank)), "rank {} phase {}", rank, phase);
            }
        }
        prop_assert_eq!(bits(&vc.report().critical), bits(&again.report().critical), "critical rank");
        prop_assert_eq!(reg.critical_rank(), reg_again.critical_rank());
    }

    /// `CostCounters::merge` commutes: integer fields exactly, float
    /// fields bitwise (f64 addition is commutative).
    #[test]
    fn cost_counters_merge_commutes(a in counters_strategy(), b in counters_strategy()) {
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab.messages, ba.messages);
        prop_assert_eq!(ab.words, ba.words);
        prop_assert_eq!(ab.flops, ba.flops);
        prop_assert_eq!(ab.comp_time, ba.comp_time);
        prop_assert_eq!(ab.comm_time, ba.comm_time);
        prop_assert_eq!(ab.idle_time, ba.idle_time);
    }

    /// `CostCounters::merge` associates: integer fields exactly, float
    /// fields to rounding error.
    #[test]
    fn cost_counters_merge_associates(
        a in counters_strategy(),
        b in counters_strategy(),
        c in counters_strategy(),
    ) {
        let mut left = a; // (a ⊕ b) ⊕ c
        left.merge(&b);
        left.merge(&c);
        let mut bc = b; // a ⊕ (b ⊕ c)
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left.messages, right.messages);
        prop_assert_eq!(left.words, right.words);
        prop_assert_eq!(left.flops, right.flops);
        prop_assert!(close(left.comp_time, right.comp_time), "comp {} vs {}", left.comp_time, right.comp_time);
        prop_assert!(close(left.comm_time, right.comm_time), "comm {} vs {}", left.comm_time, right.comm_time);
        prop_assert!(close(left.idle_time, right.idle_time), "idle {} vs {}", left.idle_time, right.idle_time);
    }

    /// `CostReport::merge` inherits both laws, and `default()` is its
    /// identity (so phase reports fold cleanly).
    #[test]
    fn cost_report_merge_laws(
        a in counters_strategy(),
        b in counters_strategy(),
        c in counters_strategy(),
        ranks in 1usize..64,
    ) {
        let report = |critical| mpisim::CostReport { ranks, critical };
        let (ra, rb, rc) = (report(a), report(b), report(c));

        let mut ab = ra;
        ab.merge(&rb);
        let mut ba = rb;
        ba.merge(&ra);
        prop_assert_eq!(ab.critical.flops, ba.critical.flops);
        prop_assert_eq!(ab.critical.comp_time, ba.critical.comp_time);

        let mut left = ra;
        left.merge(&rb);
        left.merge(&rc);
        let mut bc = rb;
        bc.merge(&rc);
        let mut right = ra;
        right.merge(&bc);
        prop_assert_eq!(left.ranks, right.ranks);
        prop_assert_eq!(left.critical.words, right.critical.words);
        prop_assert!(close(left.running_time(), right.running_time()));

        let mut folded = mpisim::CostReport::default();
        folded.merge(&ra);
        prop_assert_eq!(folded.ranks, ra.ranks);
        prop_assert_eq!(folded.critical.flops, ra.critical.flops);
    }

    /// `PhaseTable::merge` (the telemetry sink every engine feeds)
    /// commutes and associates the same way.
    #[test]
    fn phase_table_merge_laws(
        a in phase_table_strategy(),
        b in phase_table_strategy(),
        c in phase_table_strategy(),
    ) {
        use mpisim::telemetry::Phase;
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for phase in Phase::ALL {
            prop_assert_eq!(ab.get(phase).events, ba.get(phase).events);
            prop_assert_eq!(ab.get(phase).words, ba.get(phase).words);
            prop_assert_eq!(ab.get(phase).flops, ba.get(phase).flops);
            prop_assert_eq!(ab.get(phase).time, ba.get(phase).time);
        }

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        for phase in Phase::ALL {
            prop_assert_eq!(left.get(phase).events, right.get(phase).events);
            prop_assert_eq!(left.get(phase).words, right.get(phase).words);
            prop_assert_eq!(left.get(phase).flops, right.get(phase).flops);
            prop_assert!(
                close(left.get(phase).time, right.get(phase).time),
                "{}: {} vs {}", phase, left.get(phase).time, right.get(phase).time
            );
        }
        prop_assert!(close(left.comm_time(), right.comm_time()));
        prop_assert!(close(left.comp_time(), right.comp_time()));
    }
}

/// Relative closeness for float sums reassociated by a merge.
fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()))
}

fn counters_strategy() -> impl Strategy<Value = mpisim::CostCounters> {
    (
        (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000_000),
        (0.0f64..1e3, 0.0f64..1e3, 0.0f64..1e3),
    )
        .prop_map(
            |((messages, words, flops), (comp_time, comm_time, idle_time))| mpisim::CostCounters {
                messages,
                words,
                flops,
                comp_time,
                comm_time,
                idle_time,
            },
        )
}

fn phase_table_strategy() -> impl Strategy<Value = mpisim::telemetry::PhaseTable> {
    use mpisim::telemetry::{Phase, PhaseTable};
    proptest::collection::vec(
        (0usize..6, 0.0f64..1e3, 0u64..100_000, 0u64..1_000_000),
        0..12,
    )
    .prop_map(|records| {
        let mut table = PhaseTable::new();
        for (slot, time, words, flops) in records {
            table.record_full(Phase::ALL[slot], time, words, flops);
        }
        table
    })
}
