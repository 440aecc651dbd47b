//! Table I validation: the simulator's *measured* critical-path counters
//! must scale exactly as the paper's closed forms predict, the socket
//! mesh's frames and bytes must be exactly the closed forms' messages and
//! words, and the α-β trade-off must place the speedup optimum at a
//! finite s.

use datagen::{binary_classification, dense_gaussian, planted_regression, uniform_sparse};
use mpisim::{CostModel, CostReport};
use netcomm::frame::HEADER_LEN;
use saco::costmodel::{accbcd_costs, predicted_comm_speedup, sa_accbcd_costs, CostInputs};
use saco::prox::Lasso;
use saco::run::{Engine, Method, RunSpec, Source};
use saco::{KdcdConfig, KdcdTask, LassoConfig, SvmLoss};
use sparsela::io::Dataset;
use sparsela::sympack::{packed_len, payload_words};
use sparsela::KernelFn;

fn problem() -> Dataset {
    let a = uniform_sparse(3000, 800, 0.02, 55);
    planted_regression(a, 10, 0.1, 55).dataset
}

fn run(ds: &Dataset, mu: usize, s: usize, h: usize, p: usize) -> CostReport {
    let cfg = LassoConfig {
        mu,
        s,
        lambda: 0.5,
        seed: 3,
        max_iters: h,
        trace_every: 0,
        rel_tol: None,
        ..Default::default()
    };
    let method = Method::Lasso {
        reg: &Lasso::new(0.5),
        cfg: &cfg,
        accel: true,
    };
    saco_bench::simulate(method, ds, p, CostModel::cray_xc30(), false)
        .report
        .expect("sim reports costs")
}

#[test]
fn latency_scales_as_h_over_s_log_p() {
    let ds = problem();
    let h = 512;
    for p in [64usize, 1024] {
        let lg = (p as f64).log2() as u64;
        for s in [1usize, 4, 16] {
            let rep = run(&ds, 1, s, h, p);
            // H/s outer collectives + 2 bookkeeping reductions, ⌈log₂P⌉
            // rounds each — exactly.
            let expect = ((h / s) as u64 + 2) * lg;
            assert_eq!(rep.critical.messages, expect, "P={p} s={s}");
        }
    }
}

#[test]
fn bandwidth_grows_linearly_in_s() {
    // Table I: W = O(Hsµ² log P). At fixed H, doubling s should roughly
    // double the words on the critical path (packed symmetric Gram ⇒ the
    // constant is ~half of the naive s²µ² payload per outer).
    let ds = problem();
    let h = 512;
    let w8 = run(&ds, 1, 8, h, 256).critical.words;
    let w16 = run(&ds, 1, 16, h, 256).critical.words;
    let w32 = run(&ds, 1, 32, h, 256).critical.words;
    let r1 = w16 as f64 / w8 as f64;
    let r2 = w32 as f64 / w16 as f64;
    assert!((1.6..=2.4).contains(&r1), "W ratio s16/s8 = {r1}");
    assert!((1.6..=2.4).contains(&r2), "W ratio s32/s16 = {r2}");
}

#[test]
fn flops_grow_with_s_via_the_gram_term() {
    // Table I: F = O(Hµ²sfm/P + Hµ³) — the Gram term scales with s. The
    // measured total also *shrinks* with s through the per-round software
    // overhead SA amortizes (that modeled saving is the computation
    // speedup of Fig. 4e–h), so add that known saving back before
    // comparing the Gram growth.
    let ds = problem();
    let h = 256usize;
    let f1 = run(&ds, 4, 1, h, 1).critical.flops;
    let f32 = run(&ds, 4, 32, h, 1).critical.flops;
    let overhead_saved = (h as u64 - (h / 32) as u64) * saco::charges::OUTER_OVERHEAD_FLOPS;
    let adjusted = f32 + overhead_saved;
    assert!(
        adjusted > f1 + f1 / 10,
        "Gram flops must grow noticeably with s: {f1} -> {adjusted} (raw {f32})"
    );
    // ...but by far less than 32× (the µ³ and per-iteration terms do not
    // scale with s).
    assert!(
        adjusted < 32 * f1,
        "flops grew superlinearly: {f1} -> {adjusted}"
    );
}

#[test]
fn memory_formula_matches_gram_growth() {
    let base = CostInputs {
        h: 1000,
        mu: 4,
        s: 8,
        f: 0.02,
        m: 3000,
        n: 800,
        p: 64,
    };
    let m_s8 = sa_accbcd_costs(&base).memory;
    let m_s16 = sa_accbcd_costs(&CostInputs { s: 16, ..base }).memory;
    let gram_delta = (16.0f64.powi(2) - 8.0f64.powi(2)) * (base.mu * base.mu) as f64;
    assert!(((m_s16 - m_s8) - gram_delta).abs() < 1e-9);
}

#[test]
fn speedup_has_an_interior_optimum() {
    // §III: "In general there exists a tradeoff between s and the speedups
    // attainable" — the total simulated time is minimized at 1 < s* < ∞.
    let ds = problem();
    let h = 512;
    let p = 2048;
    let times: Vec<(usize, f64)> = [1usize, 2, 4, 8, 16, 32, 64, 128, 256]
        .iter()
        .map(|&s| (s, run(&ds, 1, s, h, p).running_time()))
        .collect();
    let (s_best, t_best) = times
        .iter()
        .cloned()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("nonempty");
    let t1 = times[0].1;
    let t_last = times.last().expect("nonempty").1;
    assert!(s_best > 1, "optimum should not be the classical method");
    assert!(s_best < 256, "optimum should be interior, got s={s_best}");
    assert!(t_best < t1, "SA should beat classical");
    assert!(
        t_last > t_best,
        "time should rise again at huge s: {t_last} vs {t_best}"
    );
}

#[test]
fn analytic_model_agrees_with_simulator_on_the_trend() {
    // The closed-form α-β prediction and the simulator must agree on
    // *ordering*: which of two s values communicates cheaper.
    let ds = problem();
    let model = CostModel::cray_xc30();
    let h = 256;
    let p = 1024;
    let inputs = |s: u64| CostInputs {
        h: h as u64,
        mu: 1,
        s,
        f: ds.a.density(),
        m: ds.a.rows() as u64,
        n: ds.a.cols() as u64,
        p: p as u64,
    };
    for (s_a, s_b) in [(1u64, 8u64), (8, 64), (64, 512)] {
        let pred_a = predicted_comm_speedup(&inputs(s_a), model.alpha, model.beta);
        let pred_b = predicted_comm_speedup(&inputs(s_b), model.alpha, model.beta);
        let rep_a = run(&ds, 1, s_a as usize, h, p);
        let rep_b = run(&ds, 1, s_b as usize, h, p);
        let meas_a = 1.0 / (rep_a.critical.comm_time + rep_a.critical.idle_time);
        let meas_b = 1.0 / (rep_b.critical.comm_time + rep_b.critical.idle_time);
        assert_eq!(
            pred_a > pred_b,
            meas_a > meas_b,
            "model and simulator disagree on ordering of s={s_a} vs s={s_b}"
        );
    }
}

#[test]
fn closed_forms_reproduce_the_headline_ratios() {
    let c = CostInputs {
        h: 10_000,
        mu: 8,
        s: 32,
        f: 0.01,
        m: 1_000_000,
        n: 100_000,
        p: 12_288,
    };
    let classic = accbcd_costs(&c);
    let sa = sa_accbcd_costs(&c);
    assert!((classic.latency / sa.latency - 32.0).abs() < 1e-9);
    assert!((sa.bandwidth / classic.bandwidth - 32.0).abs() < 1e-9);
}

/// The mesh's solve-phase wire, summed over ranks: `(frames, bytes)`.
fn mesh_wire(method: Method<'_>, ds: &Dataset, p: usize) -> (u64, u64, Option<saco::KdcdStats>) {
    let engine = Engine::Net { p, balanced: false };
    let spec = RunSpec::new(method, engine, Source::InMemory(ds));
    let out = saco::run::run(&spec).expect("a mesh run");
    let t = &out.telemetry;
    (
        t.counter("net.solve.frames_tx"),
        t.counter("net.solve.bytes_tx"),
        out.kdcd.first().cloned(),
    )
}

/// `⌈log₂P⌉`: the rounds of one tree allreduce on the critical path.
fn rounds(p: usize) -> u64 {
    u64::from(p.next_power_of_two().trailing_zeros())
}

/// Table I on the wire, closed-form side: at P ∈ {1, 2, 4} the mesh sends
/// exactly `L / ⌈log₂P⌉ = H/s + 2` tree allreduces (one per block, plus
/// the initial ½‖b‖² and the final objective), each `2(P−1)` frames of a
/// 24-byte header and 8 B per word, and the words are `payload_words` per
/// block — whose packed Gram is Table I's `W` halved, plus the diagonal.
#[test]
fn mesh_wire_matches_table_one_for_sa_accbcd() {
    let ds = {
        let a = uniform_sparse(600, 200, 0.05, 55);
        planted_regression(a, 10, 0.1, 55).dataset
    };
    let (h, mu, s, te) = (192usize, 2usize, 8usize, 40usize);
    let cfg = LassoConfig {
        mu,
        s,
        lambda: 0.5,
        seed: 3,
        max_iters: h,
        trace_every: te,
        rel_tol: None,
        ..Default::default()
    };
    let blocks = h / s;
    // A block ships the trace scalar when it crosses a multiple of `te`.
    let traced = (0..blocks)
        .filter(|b| b * s / te != (b + 1) * s / te)
        .count();
    let words = blocks * payload_words(s * mu, 2, false) + traced + 2;
    for p in [1usize, 2, 4] {
        let method = Method::Lasso {
            reg: &Lasso::new(0.5),
            cfg: &cfg,
            accel: true,
        };
        let (frames, bytes, _) = mesh_wire(method, &ds, p);
        let colls = (blocks + 2) as u64;
        let edges = 2 * (p as u64 - 1);
        assert_eq!(frames, colls * edges, "P={p}: frames");
        assert_eq!(
            bytes,
            edges * (colls * HEADER_LEN as u64 + 8 * words as u64),
            "P={p}: bytes"
        );
        if p > 1 {
            let table = sa_accbcd_costs(&CostInputs {
                h: h as u64,
                mu: mu as u64,
                s: s as u64,
                f: 0.05,
                m: 600,
                n: 200,
                p: p as u64,
            });
            let lg = rounds(p);
            assert_eq!(table.latency, ((blocks as u64) * lg) as f64, "P={p}: L");
            assert_eq!(frames / edges * lg, table.latency as u64 + 2 * lg);
            let gram = (blocks * packed_len(s * mu)) as f64;
            assert_eq!(
                2.0 * gram * lg as f64,
                table.bandwidth + (h * mu) as f64 * lg as f64
            );
        }
    }
}

/// The kernel family on the wire: a block whose sampled rows all hit the
/// kernel cache skips its allreduce on every rank, so the mesh sends one
/// tree allreduce per *missing* block plus the RBF norms pass, and the
/// words are the missed kernel rows (`m` each) plus the `m` norms.
#[test]
fn mesh_wire_matches_table_one_for_kdcd_with_skipped_blocks() {
    let ds = {
        let a = dense_gaussian(48, 16, 12);
        binary_classification(a, 0.05, 12).dataset
    };
    let m = ds.a.rows() as u64;
    let cfg = KdcdConfig {
        task: KdcdTask::Svm(SvmLoss::L1),
        kernel: KernelFn::Rbf { gamma: 0.5 },
        lambda: 0.5,
        s: 8,
        seed: 61,
        max_iters: 256,
        trace_every: 32,
        cache_budget_bytes: 1 << 20,
    };
    let blocks = (cfg.max_iters / cfg.s) as u64;
    for p in [1usize, 2, 4] {
        let (frames, bytes, stats) = mesh_wire(Method::kdcd(&cfg), &ds, p);
        let st = stats.expect("K-DCD stats");
        assert!(st.exchange_skipped > 0, "P={p}: no all-hit block");
        let colls = blocks - st.exchange_skipped + 1;
        let words = st.exchange_words + m;
        assert_eq!(
            st.exchange_words,
            st.tile_rows * m,
            "P={p}: rows of m words"
        );
        let edges = 2 * (p as u64 - 1);
        assert_eq!(frames, colls * edges, "P={p}: frames");
        assert_eq!(
            bytes,
            edges * (colls * HEADER_LEN as u64 + 8 * words),
            "P={p}: bytes"
        );
    }
}
