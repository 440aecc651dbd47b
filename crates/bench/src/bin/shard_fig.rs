//! Out-of-core streaming figure: one Table II shape at **1:1 paper scale**
//! solved from an on-disk shard directory under a hard resident-memory
//! budget.
//!
//! Full mode generates the `url` stand-in at its real dimensions
//! (3,231,961 features × 2,396,130 points, 0.0036% density — ~250M nnz,
//! ~4 GB on disk) column by column through [`sparsela::shard::ShardWriter`],
//! so the matrix is never resident, then runs streaming SA-accCD with a
//! budget capped at **25% of the on-disk size** and publishes wall time and
//! I/O-overlap gauges (`shard_fig.url.*`) into `BENCH_baseline.json`. The
//! run fails if no background I/O was hidden behind compute
//! (`io.hidden_time > 0` is the overlap proof) or if the cache exceeded its
//! budget beyond the documented one-incoming-shard slack.
//!
//! Quick mode (`SACO_QUICK=1`, the CI `shard-smoke` job) shrinks the shape
//! until the in-memory twin also fits, proves the streamed solve is
//! **bitwise identical** to it, and gates `shard.prefetch.misses` against
//! the committed baseline: misses are deterministic (first block + budget
//! evictions only, since every later block is prefetched by the lookahead),
//! so any increase means the prefetch path regressed.

use datagen::{powerlaw_col_nnz, powerlaw_column_into, shard_plan};
use saco::config::{BlockSampling, LassoConfig};
use saco::prox::Lasso;
use saco::seq::sa_accbcd;
use saco::stream::{stream_sa_accbcd, IoStats, ShardManifest, StreamingMatrix};
use saco_bench::baseline::Baseline;
use saco_bench::{fmt_secs, quick_mode};
use sparsela::io::Dataset;
use sparsela::shard::{verify_store, ShardAxis, ShardWriter};
use sparsela::CooMatrix;
use std::path::Path;
use std::time::Instant;

/// One out-of-core experiment shape.
struct Shape {
    /// Gauge namespace (`shard_fig.<key>.*`).
    key: &'static str,
    rows: usize,
    cols: usize,
    density: f64,
    /// Power-law popularity exponent (url uses 1.0 in the registry).
    skew: f64,
    nshards: usize,
    /// Planted support size (columns of the ground-truth model).
    support: usize,
    /// λ as a fraction of ‖Aᵀb‖∞ (computed during the generation stream).
    lambda_frac: f64,
    mu: usize,
    s: usize,
    iters: usize,
    seed: u64,
}

const URL: Shape = Shape {
    key: "url",
    rows: 2_396_130,
    cols: 3_231_961,
    density: 3.6e-5,
    skew: 1.0,
    nshards: 8192,
    // Wide support + a weak λ so a 16k-draw sample of 3.2M columns
    // activates a nontrivial set of coordinates: the figure should show a
    // real solve, not a prox that zeroes every sampled block.
    support: 4096,
    lambda_frac: 0.01,
    // s·µ = 512 keeps each outer block's sampled Gram (~131k column pairs)
    // heavy enough that the background loader has a genuine compute window
    // to hide shard loads behind — with a narrow block the window is
    // sub-millisecond and `hidden_time` drowns in scheduler noise.
    mu: 4,
    s: 128,
    iters: 4096,
    seed: 77,
};

const QUICK: Shape = Shape {
    key: "quick",
    rows: 3000,
    cols: 4000,
    density: 2e-3,
    skew: 1.0,
    nshards: 96,
    support: 16,
    lambda_frac: 0.1,
    mu: 4,
    s: 16,
    iters: 256,
    seed: 77,
};

/// The generation stream's outputs: shard directory on disk plus the
/// by-products that would otherwise need an extra full pass (labels,
/// ‖Aᵀb‖∞ for λ, and — quick mode only — the in-memory twin).
struct Generated {
    manifest: ShardManifest,
    b: Vec<f64>,
    lambda: f64,
    gen_secs: f64,
    coo: Option<CooMatrix>,
}

/// Stream the power-law stand-in to `dir` column by column. Every column
/// is a pure function of `(seed, col)`, so the planted labels can be built
/// from just the support columns up front and the main pass re-produces
/// them bitwise inside the full sweep.
fn generate_shards(dir: &Path, sh: &Shape, keep_in_memory: bool) -> Generated {
    let t0 = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let col_nnz = powerlaw_col_nnz(sh.rows, sh.cols, sh.density, sh.skew);
    let bounds = shard_plan(&col_nnz, sh.nshards);

    // Planted model: `support` columns spread across the popularity range
    // (head columns are huge, tail columns are a handful of entries), with
    // deterministic ±[1, 1.75] weights. b = A·x⋆, no noise — exactness is
    // what the bitwise quick check wants.
    let mut idx = Vec::new();
    let mut val = Vec::new();
    let mut b = vec![0.0; sh.rows];
    for i in 0..sh.support {
        let j = (i + 1) * sh.cols / (sh.support + 1);
        let w = if i % 2 == 0 { 1.0 } else { -1.0 } * (1.0 + 0.25 * (i % 4) as f64);
        powerlaw_column_into(sh.seed, sh.rows, j, col_nnz[j] as usize, &mut idx, &mut val);
        for (&r, &v) in idx.iter().zip(&val) {
            b[r] += w * v;
        }
    }

    let mut writer =
        ShardWriter::create(dir, ShardAxis::Csc, sh.cols, sh.rows, &bounds).expect("shard writer");
    let mut coo = keep_in_memory.then(|| CooMatrix::new(sh.rows, sh.cols));
    let mut lmax = 0.0f64;
    for (j, &nnz) in col_nnz.iter().enumerate() {
        powerlaw_column_into(sh.seed, sh.rows, j, nnz as usize, &mut idx, &mut val);
        writer.append_slice(&idx, &val).expect("append slice");
        // |Aᵀb|_j piggybacks on the stream — λ needs no second pass.
        let dot: f64 = idx.iter().zip(&val).map(|(&r, &v)| v * b[r]).sum();
        lmax = lmax.max(dot.abs());
        if let Some(c) = coo.as_mut() {
            for (&r, &v) in idx.iter().zip(&val) {
                c.push(r, j, v);
            }
        }
        if (j + 1) % 500_000 == 0 {
            println!(
                "  generated {} / {} columns ({})",
                j + 1,
                sh.cols,
                fmt_secs(t0.elapsed().as_secs_f64())
            );
        }
    }
    writer.write_labels(&b).expect("write labels");
    let manifest = writer.finish().expect("finish shard dir");
    assert!(lmax > 0.0, "planted labels must correlate with some column");
    Generated {
        manifest,
        b,
        lambda: sh.lambda_frac * lmax,
        gen_secs: t0.elapsed().as_secs_f64(),
        coo,
    }
}

fn solver_cfg(sh: &Shape, lambda: f64) -> LassoConfig {
    LassoConfig {
        mu: sh.mu,
        s: sh.s,
        lambda,
        seed: sh.seed ^ 0xA5A5,
        max_iters: sh.iters,
        trace_every: 0,
        rel_tol: None,
        sampling: BlockSampling::Coordinates,
    }
}

fn record_io(base: &mut Baseline, key: &str, st: &IoStats) {
    base.set(&format!("{key}.io.bytes_read"), st.bytes_read as f64);
    base.set(&format!("{key}.io.read_time"), st.read_secs);
    base.set(&format!("{key}.io.stall_time"), st.stall_secs);
    base.set(&format!("{key}.io.hidden_time"), st.hidden_secs);
    let overlapped = st.hidden_secs + st.stall_secs;
    if overlapped > 0.0 {
        base.set(
            &format!("{key}.io.overlap_ratio"),
            st.hidden_secs / overlapped,
        );
    }
    base.set(&format!("{key}.shard.reads"), st.shard_reads as f64);
    base.set(
        &format!("{key}.shard.prefetch.hits"),
        st.prefetch_hits as f64,
    );
    base.set(
        &format!("{key}.shard.prefetch.misses"),
        st.prefetch_misses as f64,
    );
    base.set(
        &format!("{key}.shard.prefetch.waits"),
        st.prefetch_waits as f64,
    );
    base.set(&format!("{key}.shard.evictions"), st.evictions as f64);
    base.set(
        &format!("{key}.shard.resident_hwm_bytes"),
        st.resident_hwm_bytes as f64,
    );
}

fn print_io(st: &IoStats) {
    println!(
        "  io: {} bytes read | {} reading ({} stalled, {} hidden behind compute)",
        st.bytes_read,
        fmt_secs(st.read_secs),
        fmt_secs(st.stall_secs),
        fmt_secs(st.hidden_secs),
    );
    println!(
        "  cache: {} hits / {} waits / {} misses | {} evictions | resident hwm {} bytes",
        st.prefetch_hits,
        st.prefetch_waits,
        st.prefetch_misses,
        st.evictions,
        st.resident_hwm_bytes,
    );
}

/// Full mode: url at 1:1 scale, budget = 25% of the on-disk bytes.
fn run_full(dir: &Path) {
    let sh = &URL;
    println!(
        "shard_fig: generating {} at paper scale ({} × {}, {:.4}% nnz) → {}",
        sh.key,
        sh.rows,
        sh.cols,
        sh.density * 100.0,
        dir.display()
    );
    let gen = generate_shards(dir, sh, false);
    let disk = gen.manifest.disk_bytes();
    let budget = disk / 4;
    println!(
        "  {} nnz in {} shards, {} bytes on disk ({}); imbalance {:.4}",
        gen.manifest.nnz,
        gen.manifest.shards.len(),
        disk,
        fmt_secs(gen.gen_secs),
        gen.manifest.nnz_imbalance(),
    );
    println!(
        "  resident budget {} bytes = 25% of disk (shards/block ≈ s·µ = {})",
        budget,
        sh.s * sh.mu
    );

    let a = StreamingMatrix::open(dir, budget).expect("open streaming matrix");
    let cfg = solver_cfg(sh, gen.lambda);
    let t0 = Instant::now();
    let res = stream_sa_accbcd(&a, &gen.b, &Lasso::new(gen.lambda), &cfg);
    let solve_secs = t0.elapsed().as_secs_f64();
    let st = a.io_stats();
    println!(
        "  SA-accCD s={} µ={} ran {} iterations in {}: objective {:.6e} → {:.6e}",
        sh.s,
        sh.mu,
        res.iters,
        fmt_secs(solve_secs),
        res.trace.initial_value(),
        res.trace.final_value(),
    );
    print_io(&st);

    // The acceptance contract of the out-of-core path.
    assert!(
        st.hidden_secs > 0.0,
        "no background I/O was hidden behind compute — the prefetch overlap is broken"
    );
    let max_shard = gen
        .manifest
        .shards
        .iter()
        .map(|s| s.disk_bytes())
        .max()
        .unwrap_or(0);
    assert!(
        st.resident_hwm_bytes <= budget + 2 * max_shard,
        "resident high-water {} exceeds budget {} beyond the one-incoming-shard slack",
        st.resident_hwm_bytes,
        budget
    );
    assert!(4 * budget <= disk, "budget must stay within 25% of disk");
    assert!(res.trace.final_value().is_finite());

    let mut base = Baseline::load_repo();
    let key = format!("shard_fig.{}", sh.key);
    base.set(&format!("{key}.rows"), sh.rows as f64);
    base.set(&format!("{key}.cols"), sh.cols as f64);
    base.set(&format!("{key}.nnz"), gen.manifest.nnz as f64);
    base.set(&format!("{key}.shards"), gen.manifest.shards.len() as f64);
    base.set(&format!("{key}.disk_bytes"), disk as f64);
    base.set(&format!("{key}.budget_bytes"), budget as f64);
    base.set(
        &format!("{key}.plan.imbalance"),
        gen.manifest.nnz_imbalance(),
    );
    base.set(&format!("{key}.gen_secs"), gen.gen_secs);
    base.set(&format!("{key}.solve_secs"), solve_secs);
    base.set(&format!("{key}.iters"), res.iters as f64);
    base.set(
        &format!("{key}.objective.initial"),
        res.trace.initial_value(),
    );
    base.set(&format!("{key}.objective.final"), res.trace.final_value());
    record_io(&mut base, &key, &st);
    let path = base.write();
    println!("  baseline updated: {}", path.display());
}

/// Quick mode (CI): bitwise streamed-vs-in-memory proof plus the
/// prefetch-miss regression gate.
fn run_quick(dir: &Path) {
    let sh = &QUICK;
    println!(
        "shard_fig (quick): {} × {} power-law shape, {} shards",
        sh.rows, sh.cols, sh.nshards
    );
    let gen = generate_shards(dir, sh, true);
    let coo = gen.coo.expect("quick mode keeps the in-memory twin");
    // Budget above the full loaded size: nothing evicts, so the miss
    // count below is exactly the first block's distinct shards.
    let budget = 4 * gen.manifest.disk_bytes();

    let a = StreamingMatrix::open(dir, budget).expect("open streaming matrix");
    verify_store(a.store(), &coo.to_csc()).expect("shard round-trip must be bitwise");

    let cfg = solver_cfg(sh, gen.lambda);
    let streamed = stream_sa_accbcd(&a, &gen.b, &Lasso::new(gen.lambda), &cfg);
    let st = a.io_stats();
    let ds = Dataset {
        a: coo.to_csr(),
        b: gen.b.clone(),
    };
    let in_mem = sa_accbcd(&ds, &Lasso::new(gen.lambda), &cfg);

    assert_eq!(streamed.x.len(), in_mem.x.len());
    let drift = streamed
        .x
        .iter()
        .zip(&in_mem.x)
        .filter(|(s, m)| s.to_bits() != m.to_bits())
        .count();
    assert_eq!(
        drift, 0,
        "{drift} coordinates differ from the in-memory solve"
    );
    assert_eq!(
        streamed.trace.final_value().to_bits(),
        in_mem.trace.final_value().to_bits(),
        "streamed objective must be bitwise the in-memory objective"
    );
    println!(
        "  bitwise OK: {} coordinates, objective {:.6e}",
        streamed.x.len(),
        streamed.trace.final_value()
    );
    print_io(&st);
    assert!(
        st.prefetch_hits + st.prefetch_waits > 0,
        "lookahead prefetch never engaged"
    );

    // Regression gate: misses are deterministic under a no-evict budget
    // (only the very first block can miss — every later block was
    // prefetched by the lookahead), so "no worse than the committed
    // baseline" is an exact gate, not a tolerance.
    let mut base = Baseline::load_repo();
    let gate_key = "shard_fig.quick.prefetch_misses";
    let measured = st.prefetch_misses as f64;
    match base.gauge(gate_key) {
        Some(committed) if measured > committed => {
            println!(
                "REGRESSION {gate_key}: measured {measured} > committed {committed} — \
                 the prefetch lookahead lost coverage"
            );
            std::process::exit(1);
        }
        Some(committed) => println!("  {gate_key}: {measured} ≤ {committed} committed — ok"),
        None => println!("  {gate_key}: no committed value; recording {measured}"),
    }
    base.set(gate_key, measured);
    base.set("shard_fig.quick.bitwise", 1.0);
    base.set("shard_fig.quick.hidden_time", st.hidden_secs);
    let path = base.write();
    println!("  baseline updated: {}", path.display());
    let _ = std::fs::remove_dir_all(dir);
}

fn main() {
    let root = saco_bench::experiments_dir().join("shards");
    if quick_mode() {
        run_quick(&root.join("quick"));
    } else {
        run_full(&root.join("url_1to1"));
    }
}
