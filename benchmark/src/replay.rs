//! Layer replay: re-derive a workload's block selections from the public
//! RNG — exactly the draws the solver families make — and time the public
//! kernels on that sequence with nothing in between. What the replay
//! cannot see (driver, recurrence, prox, eigenvalue, residual updates) is
//! `exec.self_s`: the traced wall minus the replayed layers.

use sparsela::gram::{cross_flops, gram_flops, sampled_cross_into, sampled_gram_into};
use sparsela::{sympack, DenseMatrix, GramWorkspace, SliceSource};
use std::time::Instant;

/// How a family draws one inner iteration's coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Draw {
    /// Lasso: µ distinct coordinates of `0..n`, without replacement.
    Block { mu: usize },
    /// Dual SVM: one row index of `0..n`, with replacement.
    Row,
}

/// The shape of one solve's selection stream.
#[derive(Clone, Copy, Debug)]
pub struct Stream {
    /// Population the draws come from (features for Lasso, rows for SVM).
    pub n: usize,
    pub draw: Draw,
    pub s: usize,
    pub iters: usize,
    /// The *solver* seed (fixed per workload, not the workload seed).
    pub seed: u64,
}

impl Stream {
    /// Coordinates drawn per inner iteration.
    pub fn width(&self) -> usize {
        match self.draw {
            Draw::Block { mu } => mu,
            Draw::Row => 1,
        }
    }

    /// Coordinates per full s-step block (= the Gram tile's side).
    pub fn block_width(&self) -> usize {
        self.s * self.width()
    }

    pub fn blocks(&self) -> usize {
        self.iters.div_ceil(self.s)
    }
}

/// Draw the whole selection stream: `iters · width` coordinates, block
/// after block, in the solver's RNG order. Returns the coordinates and
/// the seconds the draws took (`xrng.busy_s`).
pub fn selections(st: &Stream) -> (Vec<usize>, f64) {
    let mut rng = xrng::rng_from_seed(st.seed);
    let mut sel = Vec::with_capacity(st.iters * st.width());
    let t0 = Instant::now();
    for _ in 0..st.iters {
        match st.draw {
            Draw::Block { mu } => {
                xrng::sample_without_replacement_into(&mut rng, st.n, mu, &mut sel)
            }
            Draw::Row => sel.push(rng.next_index(st.n)),
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    (sel, secs)
}

/// Deterministic dense filler for the cross-product operands (the kernel's
/// time does not depend on the values, only on their not being denormal).
fn filler(len: usize, salt: u64) -> Vec<f64> {
    let mut rng = xrng::rng_from_seed(0x00F1_11E4 ^ salt);
    (0..len).map(|_| rng.next_gaussian()).collect()
}

/// Times and exact counts of the compute kernels over one solve's blocks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Kernels {
    pub draws: u64,
    pub xrng_s: f64,
    pub gram_calls: u64,
    pub gram_flops: u64,
    pub cross_flops: u64,
    pub gram_s: f64,
    pub cross_s: f64,
    pub pack_words: u64,
    pub pack_s: f64,
}

impl Kernels {
    pub fn record(&self, out: &mut crate::workloads::Outcome) {
        out.layer("xrng.draws", self.draws as f64);
        out.layer("xrng.busy_s", self.xrng_s);
        out.layer("gram.calls", self.gram_calls as f64);
        out.layer("gram.flops", self.gram_flops as f64);
        out.layer("cross.flops", self.cross_flops as f64);
        out.layer("gram.busy_s", self.gram_s);
        out.layer("cross.busy_s", self.cross_s);
        out.layer(
            "gram.gflops",
            if self.gram_s > 0.0 {
                self.gram_flops as f64 / self.gram_s * 1e-9
            } else {
                0.0
            },
        );
        // Computed, not measured: every multiply-add streams one stored
        // index and one stored value (16 B); gathers and cache misses are
        // not counted.
        out.layer("gram.bytes_computed", (self.gram_flops / 2 * 16) as f64);
        out.layer("pack.words", self.pack_words as f64);
        out.layer("pack.busy_s", self.pack_s);
    }
}

/// Seconds of one replay pass over a solve's whole block sequence.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pass {
    /// Gram tile + cross product, back to back per block.
    pub kernels_s: f64,
    pub pack_s: f64,
    /// Streamed sources: seconds inside `prepare`/`prefetch`, and the part
    /// of that the replay itself spent blocked on shard loads.
    pub prepare_s: f64,
    pub stall_s: f64,
    /// Streamed sources time the two kernels per call, so know the split.
    pub gram_s: f64,
}

impl Pass {
    pub fn total(&self) -> f64 {
        self.kernels_s + self.pack_s + self.prepare_s
    }
}

/// One solve's selection stream, drawn once, ready to be replayed. A
/// traced rep is a solve followed at once by one replay pass, so that a
/// host that slows down for a few seconds slows both; the least disturbed
/// pair makes the self-time table.
pub struct Replay {
    sel: Vec<usize>,
    block_width: usize,
    nvecs: usize,
    threads: usize,
    packs: bool,
    counts: Kernels,
    /// Dense operands of the cross product.
    vecs: Vec<Vec<f64>>,
    ws: GramWorkspace,
    gram: DenseMatrix,
    cross: DenseMatrix,
}

impl Replay {
    /// `nvecs` cross-product operands of `minor_len` each; `packs` for the
    /// wire engines, which pack and unpack every block's payload.
    pub fn new(st: &Stream, minor_len: usize, nvecs: usize, threads: usize, packs: bool) -> Replay {
        let (sel, xrng_s) = selections(st);
        Replay {
            counts: Kernels {
                draws: sel.len() as u64,
                xrng_s,
                gram_calls: st.blocks() as u64,
                ..Kernels::default()
            },
            sel,
            block_width: st.block_width(),
            nvecs,
            threads,
            packs,
            vecs: (0..nvecs).map(|v| filler(minor_len, v as u64)).collect(),
            ws: GramWorkspace::new(),
            gram: DenseMatrix::zeros(0, 0),
            cross: DenseMatrix::zeros(0, 0),
        }
    }

    /// One pass on a resident matrix, with nothing between the kernels.
    /// Each loop is timed as a whole so that timer reads do not swamp the
    /// µ = 1 kernels: the Gram tile and the cross product run back to back
    /// per block, as the driver runs them (the cross product finds its
    /// slices in cache); then, for the wire engines, every pack/unpack.
    pub fn pass<M: SliceSource + Sync>(&mut self, a: &M) -> Pass {
        let views: Vec<&[f64]> = self.vecs.iter().map(Vec::as_slice).collect();
        let (sel, bw, threads) = (&self.sel, self.block_width, self.threads);
        let (ws, gram, cross) = (&mut self.ws, &mut self.gram, &mut self.cross);
        let ((), kernels_s) = timed(|| {
            for block in sel.chunks(bw) {
                sampled_gram_into(a, block, threads, ws, gram);
                sampled_cross_into(a, block, &views, cross);
            }
        });
        let mut pass = Pass {
            kernels_s,
            ..Pass::default()
        };
        if self.packs {
            // The fused payload as the wire engines build it: packed upper
            // triangle, then the cross block row-major; unpacked likewise.
            let nvecs = self.nvecs;
            let mut wire = Vec::new();
            let mut landed = DenseMatrix::zeros(0, 0);
            let mut words = 0u64;
            let t0 = Instant::now();
            for block in sel.chunks(bw) {
                let w = block.len();
                if gram.rows() != w {
                    gram.reshape_zeroed(w, w);
                    cross.reshape_zeroed(w, nvecs);
                }
                wire.clear();
                sympack::pack_upper_into(gram, &mut wire);
                for r in 0..w {
                    for v in 0..nvecs {
                        wire.push(cross.get(r, v));
                    }
                }
                words += wire.len() as u64;
                let mut pos = sympack::unpack_symmetric_into(&wire, 0, w, &mut landed);
                for r in 0..w {
                    for v in 0..nvecs {
                        cross.set(r, v, wire[pos]);
                        pos += 1;
                    }
                }
            }
            pass.pack_s = t0.elapsed().as_secs_f64();
            self.counts.pack_words = words;
            std::hint::black_box(&landed);
        }
        pass
    }

    /// One pass on an out-of-core source: the driver's residency protocol
    /// (`prepare` this block, `prefetch` the next) with the Gram and cross
    /// kernels between, timed per call — blocks are few and coarse here.
    pub fn pass_streamed<M: SliceSource + Sync>(&mut self, a: &M) -> Pass {
        let views: Vec<&[f64]> = self.vecs.iter().map(Vec::as_slice).collect();
        let blocks: Vec<&[usize]> = self.sel.chunks(self.block_width).collect();
        let mut pass = Pass::default();
        for (i, block) in blocks.iter().enumerate() {
            let t0 = Instant::now();
            a.prepare(block);
            if let Some(next) = blocks.get(i + 1) {
                a.prefetch(next);
            }
            pass.prepare_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            sampled_gram_into(a, block, self.threads, &mut self.ws, &mut self.gram);
            let t1 = Instant::now();
            sampled_cross_into(a, block, &views, &mut self.cross);
            pass.gram_s += (t1 - t0).as_secs_f64();
            pass.kernels_s += t0.elapsed().as_secs_f64();
        }
        pass
    }

    /// Close the replay on the chosen pass: exact flop counts, and — for a
    /// resident matrix — the Gram/cross split of the pass's kernel time,
    /// by the ratio of the two kernels timed in loops of their own.
    pub fn finish<M: SliceSource + Sync>(mut self, a: &M, pass: &Pass, streamed: bool) -> Kernels {
        let views: Vec<&[f64]> = self.vecs.iter().map(Vec::as_slice).collect();
        let (sel, bw) = (&self.sel, self.block_width);
        let mut k = self.counts;
        let mut gram_share = pass.gram_s / pass.kernels_s.max(1e-12);
        if streamed {
            // Flops need resident slices: walk the blocks once more.
            for block in sel.chunks(bw) {
                a.prepare(block);
                k.gram_flops += gram_flops(a, block);
                k.cross_flops += cross_flops(a, block, self.nvecs);
            }
        } else {
            for block in sel.chunks(bw) {
                k.gram_flops += gram_flops(a, block);
                k.cross_flops += cross_flops(a, block, self.nvecs);
            }
            let ((), gram_alone) = timed(|| {
                for block in sel.chunks(bw) {
                    sampled_gram_into(a, block, self.threads, &mut self.ws, &mut self.gram);
                }
            });
            let ((), cross_alone) = timed(|| {
                for block in sel.chunks(bw) {
                    sampled_cross_into(a, block, &views, &mut self.cross);
                }
            });
            gram_share = gram_alone / (gram_alone + cross_alone).max(1e-12);
        }
        k.gram_s = pass.kernels_s * gram_share;
        k.cross_s = pass.kernels_s - k.gram_s;
        k.pack_s = pass.pack_s;
        std::hint::black_box((&self.gram, &self.cross));
        k
    }
}

/// Seconds of `f` (for one-off layer timings).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
