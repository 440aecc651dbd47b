//! Property-based cross-engine tests: for *any* SPMD program made of
//! compute charges, blocking and overlapped allreduces and checkpoints,
//! with or without chaos, the thread machine and the virtual cluster must
//! report bitwise-identical simulated times and counters on every rank,
//! and allreduce must actually sum.

use mpisim::telemetry::Phase;
use mpisim::{ChaosSpec, CostModel, KernelClass, ThreadMachine, VirtualCluster};
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

    /// Any program, any rank count, any chaos spec: the two engines agree
    /// **bitwise, on every rank** — clock, counters and the whole phase
    /// table. Both run the one rank ledger;
    /// the thread engine finds the latest entry clock through its tree,
    /// the cluster by a fold, and `max` is exact either way, so no field
    /// needs a tolerance.
    #[test]
    fn engines_agree_on_random_programs(
        steps in proptest::collection::vec(step_strategy(), 1..20),
        p in 2usize..9,
        chaos in chaos_strategy(),
    ) {
        let model = CostModel::cray_xc30();

        let steps_ref = &steps;
        let (thread_ranks, thread_rep, thread_reg) = ThreadMachine::run(p, model, move |comm| {
            if let Some(spec) = &chaos {
                comm.enable_chaos(spec);
            }
            let rank = comm.rank() as u64;
            for step in steps_ref {
                match *step {
                    Step::Compute { class, phase, base, slope, ws } => {
                        comm.charge(class, base + rank * slope, ws, phase);
                    }
                    Step::Allreduce { words } => {
                        let mut buf = vec![1.0; words];
                        comm.iallreduce_sum(&mut buf);
                    }
                    Step::Fused { words, overlapped_flops } => {
                        let mut buf = vec![1.0; words];
                        let req = comm.iallreduce_sum_start(&mut buf);
                        let flops = rank * overlapped_flops;
                        comm.charge(KernelClass::Vector, flops, 64, Phase::Gram);
                        comm.iallreduce_wait(req);
                    }
                    Step::Checkpoint => comm.checkpoint(),
                }
            }
            (comm.clock(), comm.counters())
        });

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
        let (virtual_rep, virtual_reg) = (vc.report(), vc.telemetry());

        let bits = |c: &mpisim::CostCounters| {
            let times = [c.comp_time, c.comm_time, c.idle_time].map(f64::to_bits);
            (c.messages, c.words, c.flops, times)
        };
        for (rank, (clock, counters)) in thread_ranks.iter().enumerate() {
            prop_assert_eq!(clock.to_bits(), vc.clock(rank).to_bits(), "rank {} clock", rank);
            prop_assert_eq!(bits(counters), bits(&vc.counters(rank)), "rank {} counters", rank);
            let (t, v) = (thread_reg.phases(rank), virtual_reg.phases(rank));
            prop_assert_eq!(t.is_some(), v.is_some(), "rank {} attributed", rank);
            for phase in Phase::ALL {
                let stat = |table: Option<&mpisim::telemetry::PhaseTable>| {
                    let s = *table?.get(phase);
                    Some((s.time.to_bits(), s.events, s.words, s.flops))
                };
                prop_assert_eq!(stat(t), stat(v), "rank {} phase {}", rank, phase);
            }
        }
        prop_assert_eq!(bits(&thread_rep.critical), bits(&virtual_rep.critical), "critical rank");
        prop_assert_eq!(thread_reg.critical_rank(), virtual_reg.critical_rank());
    }

    /// Allreduce really sums, for any payload and rank count, and the
    /// result is identical on every rank.
    #[test]
    fn allreduce_sums_correctly(p in 1usize..10, words in 1usize..200, seed in any::<u64>()) {
        let (results, _, _) = ThreadMachine::run(p, CostModel::cray_xc30(), move |comm| {
            let mut rng = xrng::rng_from_seed(seed ^ comm.rank() as u64);
            let buf: Vec<f64> = (0..words).map(|_| rng.next_gaussian()).collect();
            let mut reduced = buf.clone();
            comm.iallreduce_sum(&mut reduced);
            (buf, reduced)
        });
        // expected: element-wise sum of all rank contributions
        let mut expect = vec![0.0f64; words];
        for (buf, _) in &results {
            for (e, b) in expect.iter_mut().zip(buf) {
                *e += b;
            }
        }
        let first = &results[0].1;
        for (_, reduced) in &results {
            prop_assert_eq!(reduced, first, "ranks disagree");
        }
        for (r, e) in first.iter().zip(&expect) {
            prop_assert!((r - e).abs() < 1e-9 * (1.0 + e.abs()), "{r} vs {e}");
        }
    }

    /// The fused single-buffer allreduce is **bitwise** equal to reducing
    /// each segment with its own allreduce, for any segment
    /// split, at every rank count the solvers use — so packing the Gram
    /// triangle, cross terms, and scalars into one payload can never
    /// change a solver result.
    #[test]
    fn fused_allreduce_is_bitwise_separate_reductions(
        seed in any::<u64>(),
        lens in proptest::collection::vec(1usize..40, 1..5),
    ) {
        for p in [1usize, 2, 4] {
            let total: usize = lens.iter().sum();
            let lens_ref = &lens;
            let (results, _, _) = ThreadMachine::run(p, CostModel::cray_xc30(), move |comm| {
                let mut rng = xrng::rng_from_seed(seed ^ (comm.rank() as u64) << 8);
                let data: Vec<f64> = (0..total).map(|_| rng.next_gaussian()).collect();
                // Fused: one contiguous buffer.
                let mut fused = data.clone();
                comm.iallreduce_sum(&mut fused);
                // Separate: one allreduce per segment.
                let mut separate = Vec::with_capacity(total);
                let mut at = 0;
                for &len in lens_ref {
                    let mut seg = data[at..at + len].to_vec();
                    comm.iallreduce_sum(&mut seg);
                    separate.extend_from_slice(&seg);
                    at += len;
                }
                (fused, separate)
            });
            for (r, (fused, separate)) in results.iter().enumerate() {
                for (i, (f, s)) in fused.iter().zip(separate).enumerate() {
                    prop_assert_eq!(
                        f.to_bits(), s.to_bits(),
                        "p={} rank={} word {}: {} vs {}", p, r, i, f, s
                    );
                }
            }
        }
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

    /// `PhaseTable::merge` (the telemetry sink both engines feed)
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
