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
//!   throughput knob) and across replays of the same plan (the draws are
//!   indexed by collective program order).

use datagen::{planted_regression, uniform_sparse};
use mpisim::telemetry::Registry;
use mpisim::{ChaosSpec, CostModel};
use proptest::prelude::*;
use saco::prox::Lasso;
use saco::run::{run, Engine, Method, RunOutcome, RunSpec, Source};
use saco::seq::sa_accbcd;
use saco::{LassoConfig, SolveResult};
use sparsela::io::Dataset;

fn problem(seed: u64) -> Dataset {
    let a = uniform_sparse(120, 60, 0.15, seed);
    planted_regression(a, 5, 0.05, seed).dataset
}

fn cfg(s: usize, iters: usize) -> LassoConfig {
    LassoConfig {
        mu: 2,
        s,
        lambda: 0.05,
        seed: 77,
        max_iters: iters,
        trace_every: 0,
        rel_tol: None,
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

/// The schedule-defining chaos telemetry: injection counts plus stall,
/// jitter and skew totals, all bitwise-comparable whenever the same plan
/// replays.
/// Excluded on purpose: `chaos.recovery_time` (the *redo* charge depends
/// on the engine timeline, not only on the plan).
fn schedule_fingerprint(reg: &Registry) -> (u64, u64, u64, [u64; 3]) {
    let bits = |key| reg.gauge(key).expect(key).to_bits();
    (
        reg.counter("chaos.stalls"),
        reg.counter("chaos.failures"),
        reg.counter("chaos.checkpoints"),
        [
            bits("chaos.stall_time"),
            bits("chaos.jitter_time"),
            bits("chaos.skew_time"),
        ],
    )
}

fn assert_bitwise(a: &SolveResult, b: &SolveResult, what: &str) {
    assert_eq!(a.x.len(), b.x.len(), "{what}: length mismatch");
    for (i, (va, vb)) in a.x.iter().zip(&b.x).enumerate() {
        assert_eq!(va.to_bits(), vb.to_bits(), "{what}: x[{i}] differs");
    }
}

/// Chaos-on ≡ chaos-off bitwise — through skew, jitter, stalls, AND a
/// fail-stop fault with checkpoint recovery — at every thread count; and
/// the chaos schedule itself is invariant across thread counts.
#[test]
fn chaos_preserves_numerics_across_threads() {
    let ds = problem(5);
    let lasso = Lasso::new(0.05);
    let spec = full_spec();
    let c = cfg(8, 96);
    let clean = sa_accbcd(&ds, &lasso, &c);

    let mut fingerprints = Vec::new();
    for threads in [1usize, 4] {
        saco_par::set_threads(threads);
        let off = sim(&ds, &c, true, 8, None);
        let chaotic = sim(&ds, &c, true, 8, Some(spec));
        let (off, on) = (off.result(), chaotic.result());
        let (rep, reg) = (chaotic.report.expect("report"), &chaotic.telemetry);
        let what = format!("threads={threads}");
        assert_bitwise(on, off, &format!("chaos-on vs chaos-off ({what})"));
        assert_bitwise(on, &clean, &format!("chaos-on vs sequential ({what})"));
        assert_eq!(reg.counter("chaos.failures"), 1, "fault fired ({what})");
        assert!(
            reg.gauge("chaos.recovery_time").expect("recovery gauge") > 0.0,
            "recovery charged ({what})"
        );
        assert!(rep.running_time() > 0.0);
        fingerprints.push((what, schedule_fingerprint(reg)));
    }
    saco_par::set_threads(1);
    let (_, first) = &fingerprints[0];
    for (what, fp) in &fingerprints[1..] {
        assert_eq!(fp, first, "chaos schedule drifted at {what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any spec in the supported intensity ranges: replaying the same
    /// seed reproduces the schedule exactly, and the numerics never move.
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
        let c = cfg(8, 48);

        let solve = |c, accel, chaos| {
            let mut out = sim(&ds, c, accel, p, chaos);
            (out.results.swap_remove(0), out.telemetry)
        };
        let (base, _) = solve(&c, true, None);
        let (r1, g1) = solve(&c, true, Some(spec));
        let (r2, g2) = solve(&c, true, Some(spec));
        // The non-accelerated family shares the plan machinery; spot-check
        // it stays numerics-preserving too.
        let (b1, _) = solve(&c, false, Some(spec));
        let (b0, _) = solve(&c, false, None);

        for (i, (va, vb)) in r1.x.iter().zip(&base.x).enumerate() {
            prop_assert_eq!(va.to_bits(), vb.to_bits(), "chaos moved x[{}]", i);
        }
        for (i, (va, vb)) in b1.x.iter().zip(&b0.x).enumerate() {
            prop_assert_eq!(va.to_bits(), vb.to_bits(), "chaos moved bcd x[{}]", i);
        }
        for (i, (va, vb)) in r1.x.iter().zip(&r2.x).enumerate() {
            prop_assert_eq!(va.to_bits(), vb.to_bits(), "replay moved x[{}]", i);
        }
        prop_assert_eq!(
            schedule_fingerprint(&g1),
            schedule_fingerprint(&g2),
            "replay drifted"
        );
        prop_assert_eq!(
            g1.counter("chaos.failures"),
            u64::from(inject_fail),
            "failure injection count"
        );
    }
}
