//! Determinism and numerics-preservation contract of the chaos layer.
//!
//! Chaos perturbs *time*, never *values*, and its schedule is a pure
//! function of `(seed, stream, rank, index)` — so the contract is:
//!
//! * chaos-on solutions are **bitwise identical** to chaos-off solutions,
//!   including through an injected fail-stop fault and its checkpoint
//!   recovery;
//! * the injected schedule and every `chaos.*` counter/gauge are
//!   **identical across `SACO_THREADS` ∈ {1, 4}** (threads are a pure
//!   throughput knob) and across overlap on/off (the draws are indexed by
//!   collective program order, which both schedules share);
//! * the **thread engine agrees with the virtual cluster**: same chaos
//!   counters exactly, same injected times to round-off — the engine-
//!   matrix guarantee extended to the perturbed timeline.

use datagen::{planted_regression, uniform_sparse};
use mpisim::telemetry::Registry;
use mpisim::{ChaosSpec, CostModel, ThreadMachine};
use proptest::prelude::*;
use saco::dist::LassoRankData;
use saco::prox::Lasso;
use saco::run::{run, run_rank, Engine, Method, RankComm, RankData, RunOutcome, RunSpec, Source};
use saco::seq::sa_accbcd;
use saco::{LassoConfig, SolveResult};
use sparsela::io::Dataset;

fn problem(seed: u64) -> Dataset {
    let a = uniform_sparse(120, 60, 0.15, seed);
    planted_regression(a, 5, 0.05, seed).dataset
}

fn cfg(s: usize, iters: usize, overlap: bool) -> LassoConfig {
    LassoConfig {
        mu: 2,
        s,
        lambda: 0.05,
        seed: 77,
        max_iters: iters,
        trace_every: 0,
        rel_tol: None,
        overlap,
        ..Default::default()
    }
}

/// (SA-)accBCD (or plain BCD) on `p` virtual ranks, optionally under a
/// chaos plan.
fn sim(
    ds: &Dataset,
    c: &LassoConfig,
    accel: bool,
    p: usize,
    chaos: Option<ChaosSpec>,
) -> RunOutcome {
    let (reg, cfg) = (&Lasso::new(0.05), c);
    let method = Method::Lasso { reg, cfg, accel };
    let (model, balanced) = (CostModel::cray_xc30(), false);
    let engine = Engine::Sim {
        p,
        model,
        balanced,
        chaos,
    };
    run(&RunSpec::new(method, engine, Source::InMemory(ds))).expect("sim run")
}

fn full_spec() -> ChaosSpec {
    ChaosSpec {
        seed: 2024,
        skew: 0.3,
        jitter: 1e-4,
        straggle: 0.1,
        fail: Some((2, 1)),
    }
}

/// The schedule-defining chaos telemetry: injection counts plus stall and
/// jitter totals, all bitwise-comparable whenever the same plan replays.
/// Excluded on purpose: `chaos.skew_time` (the same per-charge terms sum
/// in a different order when overlap reorders compute charges — compare
/// it with [`assert_close`]) and `chaos.recovery_time` (the *redo* charge
/// depends on the engine timeline, which overlap legitimately changes).
fn schedule_fingerprint(reg: &Registry) -> (u64, u64, u64, [u64; 2]) {
    (
        reg.counter("chaos.stalls"),
        reg.counter("chaos.failures"),
        reg.counter("chaos.checkpoints"),
        [
            reg.gauge("chaos.stall_time")
                .expect("stall gauge")
                .to_bits(),
            reg.gauge("chaos.jitter_time")
                .expect("jitter gauge")
                .to_bits(),
        ],
    )
}

fn skew_time(reg: &Registry) -> f64 {
    reg.gauge("chaos.skew_time").expect("skew gauge")
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0),
        "{what}: {a} vs {b}"
    );
}

fn assert_bitwise(a: &SolveResult, b: &SolveResult, what: &str) {
    assert_eq!(a.x.len(), b.x.len(), "{what}: length mismatch");
    for (i, (va, vb)) in a.x.iter().zip(&b.x).enumerate() {
        assert_eq!(va.to_bits(), vb.to_bits(), "{what}: x[{i}] differs");
    }
}

/// Chaos-on ≡ chaos-off bitwise — through skew, jitter, stalls, AND a
/// fail-stop fault with checkpoint recovery — at every thread count and
/// overlap mode; and the chaos schedule itself is invariant across all
/// four combinations.
#[test]
fn chaos_preserves_numerics_across_threads_and_overlap() {
    let ds = problem(5);
    let lasso = Lasso::new(0.05);
    let spec = full_spec();
    let clean = sa_accbcd(&ds, &lasso, &cfg(8, 96, true));

    let mut fingerprints = Vec::new();
    for threads in [1usize, 4] {
        saco_par::set_threads(threads);
        for overlap in [true, false] {
            let c = cfg(8, 96, overlap);
            let off = sim(&ds, &c, true, 8, None);
            let chaotic = sim(&ds, &c, true, 8, Some(spec));
            let (off, on) = (off.result(), chaotic.result());
            let (rep, reg) = (chaotic.report.expect("report"), &chaotic.telemetry);
            let what = format!("threads={threads} overlap={overlap}");
            assert_bitwise(on, off, &format!("chaos-on vs chaos-off ({what})"));
            assert_bitwise(on, &clean, &format!("chaos-on vs sequential ({what})"));
            assert_eq!(reg.counter("chaos.failures"), 1, "fault fired ({what})");
            assert!(
                reg.gauge("chaos.recovery_time").expect("recovery gauge") > 0.0,
                "recovery charged ({what})"
            );
            assert!(rep.running_time() > 0.0);
            fingerprints.push((what, schedule_fingerprint(reg), skew_time(reg)));
        }
    }
    saco_par::set_threads(1);
    let (_, first, first_skew) = &fingerprints[0];
    for (what, fp, skew) in &fingerprints[1..] {
        assert_eq!(fp, first, "chaos schedule drifted at {what}");
        assert_close(*skew, *first_skew, &format!("skew time at {what}"));
    }
}

/// The thread engine under chaos: bitwise numerics on every rank, and the
/// same injected schedule as the virtual cluster — counters exactly,
/// injected times to round-off.
#[test]
fn thread_engine_chaos_matches_virtual_cluster() {
    let ds = problem(6);
    let lasso = Lasso::new(0.05);
    let spec = full_spec();
    let c = cfg(8, 96, true);
    let p = 4;
    let fixed = ChaosSpec {
        fail: Some((2, 1)),
        ..spec
    };

    let sim_reg = sim(&ds, &c, true, p, Some(fixed)).telemetry;

    let (_, blocks) = LassoRankData::split(&ds, p, false);
    let run_dist = |spec: Option<&ChaosSpec>| {
        ThreadMachine::run(p, CostModel::cray_xc30(), |comm| {
            if let Some(spec) = spec {
                comm.enable_chaos(spec);
            }
            // `run` owns its communicators; a caller that must configure one
            // first enters the same per-rank solve through `run_rank`.
            let data = RankData::Lasso(&blocks[comm.rank()]);
            let method = Method::Lasso {
                reg: &lasso,
                cfg: &c,
                accel: true,
            };
            run_rank(&method, RankComm::Thread(comm), data)
                .expect("row blocks are the Lasso layout")
                .0
        })
    };
    // At p > 1 the reduction tree re-associates sums, so dist matches seq
    // only to round-off — the bitwise contract is chaos-on ≡ chaos-off
    // *within* the engine, on every rank.
    let (clean_results, _, _) = run_dist(None);
    let (results, _, dist_reg) = run_dist(Some(&fixed));
    for (r, (on, off)) in results.iter().zip(&clean_results).enumerate() {
        assert_bitwise(on, off, &format!("dist rank {r}: chaos-on vs chaos-off"));
    }
    for (r, res) in results.iter().enumerate().skip(1) {
        assert_bitwise(res, &results[0], &format!("dist rank {r} vs rank 0"));
    }

    assert_eq!(
        schedule_fingerprint(&dist_reg),
        schedule_fingerprint(&sim_reg),
        "thread engine injected a different schedule than the virtual cluster"
    );
    assert_close(
        skew_time(&dist_reg),
        skew_time(&sim_reg),
        "sim vs dist skew time",
    );
    let sim_rec = sim_reg.gauge("chaos.recovery_time").expect("sim recovery");
    let dist_rec = dist_reg
        .gauge("chaos.recovery_time")
        .expect("dist recovery");
    assert!(
        (sim_rec - dist_rec).abs() < 1e-9,
        "recovery time diverged: sim {sim_rec} vs dist {dist_rec}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any spec in the supported intensity ranges: replaying the same
    /// seed reproduces the schedule exactly, flipping overlap keeps it,
    /// and the numerics never move.
    #[test]
    fn any_spec_is_replayable_and_numerics_preserving(
        seed in 0u64..1_000_000,
        skew in 0.0f64..0.5,
        jitter in 0.0f64..2e-4,
        straggle in 0.0f64..0.2,
        fail_rank in 0usize..6,
        fail_step in 0usize..3,
        inject_fail in any::<bool>(),
    ) {
        let spec = ChaosSpec {
            seed,
            skew,
            jitter,
            straggle,
            fail: inject_fail.then_some((fail_rank, fail_step)),
        };
        let ds = problem(9);
        let p = 6;
        let c_on = cfg(8, 48, true);
        let c_off = cfg(8, 48, false);

        let solve = |c, accel, chaos| {
            let mut out = sim(&ds, c, accel, p, chaos);
            (out.results.swap_remove(0), out.telemetry)
        };
        let (base, _) = solve(&c_on, true, None);
        let (r1, g1) = solve(&c_on, true, Some(spec));
        let (r2, g2) = solve(&c_on, true, Some(spec));
        let (r3, g3) = solve(&c_off, true, Some(spec));
        // The non-accelerated family shares the plan machinery; spot-check
        // it stays numerics-preserving too.
        let (b1, _) = solve(&c_on, false, Some(spec));
        let (b0, _) = solve(&c_on, false, None);

        for (i, (va, vb)) in r1.x.iter().zip(&base.x).enumerate() {
            prop_assert_eq!(va.to_bits(), vb.to_bits(), "chaos moved x[{}]", i);
        }
        for (i, (va, vb)) in b1.x.iter().zip(&b0.x).enumerate() {
            prop_assert_eq!(va.to_bits(), vb.to_bits(), "chaos moved bcd x[{}]", i);
        }
        for (i, (va, vb)) in r1.x.iter().zip(&r2.x).enumerate() {
            prop_assert_eq!(va.to_bits(), vb.to_bits(), "replay moved x[{}]", i);
        }
        for (i, (va, vb)) in r1.x.iter().zip(&r3.x).enumerate() {
            prop_assert_eq!(va.to_bits(), vb.to_bits(), "overlap moved x[{}]", i);
        }
        prop_assert_eq!(
            schedule_fingerprint(&g1),
            schedule_fingerprint(&g2),
            "replay drifted"
        );
        prop_assert_eq!(
            schedule_fingerprint(&g1),
            schedule_fingerprint(&g3),
            "overlap changed the schedule"
        );
        prop_assert_eq!(
            skew_time(&g1).to_bits(),
            skew_time(&g2).to_bits(),
            "replay drifted in skew time"
        );
        // Overlap reorders compute charges: same skew terms, different
        // summation order — equal to round-off, not bitwise.
        prop_assert!(
            (skew_time(&g1) - skew_time(&g3)).abs() <= 1e-12 * skew_time(&g1).max(1.0),
            "overlap changed the skew schedule"
        );
        prop_assert_eq!(
            g1.counter("chaos.failures"),
            u64::from(inject_fail),
            "failure injection count"
        );
    }
}
