//! The α-β-γ cost model the virtual cluster prices runs with.
//!
//! The paper's Table I counts four quantities along the critical path:
//! flops `F`, memory `M`, latency `L` (number of messages) and bandwidth
//! `W` (words moved). This module turns those counts into simulated seconds
//! and keeps the counters the experiment harness reports.

/// Number of communication rounds a tree-based collective needs on `p`
/// ranks: `⌈log₂ p⌉` (1 rank ⇒ 0 rounds). Allreduce is reduce+bcast but on
/// a torus-class network the two trees pipeline; like the paper (Table I:
/// latency `O(log P)` per iteration) we charge one `⌈log₂ p⌉` factor.
pub fn collective_rounds(p: usize) -> u64 {
    (usize::BITS - p.max(1).next_power_of_two().leading_zeros() - 1) as u64
}

/// Kernel classes with distinct achievable flop rates. The distinction is
/// load-bearing for reproducing Fig. 4e–h: computing the `sµ × sµ` Gram
/// matrix in one (cache-friendlier, BLAS-3-like) kernel runs at a higher
/// rate than `s` separate BLAS-1 dot products, so SA variants gain a
/// *computation* speedup too — until the Gram working set spills the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Dense matrix–matrix (BLAS-3): high arithmetic intensity.
    Gemm,
    /// Batched sparse Gram construction (BLAS-3-like reuse of gathered
    /// columns; the paper: "computing the s² entries of the Gram matrix is
    /// more cache-efficient (uses a BLAS-3 routine)").
    SparseGemm,
    /// Individual sparse/dense dot products (BLAS-1): memory bound.
    Dot,
    /// Element-wise vector updates (axpy, soft-threshold): memory bound.
    Vector,
}

/// Cost breakdown of one collective under the model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CollectiveCharge {
    /// Message rounds on the critical path (counts toward `L`).
    pub rounds: u64,
    /// Words moved on the critical path (counts toward `W`).
    pub words_moved: u64,
    /// Simulated seconds.
    pub time: f64,
}

/// Machine parameters. Times are seconds; `words` are 8-byte `f64`s.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Latency per message round (seconds).
    pub alpha: f64,
    /// Inverse bandwidth (seconds per word).
    pub beta: f64,
    /// Achievable flop rate for BLAS-3 class kernels (flops/second).
    pub gemm_rate: f64,
    /// Achievable flop rate for batched sparse Gram kernels.
    pub sparse_gemm_rate: f64,
    /// Achievable flop rate for BLAS-1 dot kernels.
    pub dot_rate: f64,
    /// Achievable flop rate for element-wise vector kernels.
    pub vector_rate: f64,
    /// Fast-memory capacity in words; kernels whose working set exceeds
    /// this run at `rate / cache_penalty`.
    pub cache_words: u64,
    /// Rate divisor applied beyond `cache_words`.
    pub cache_penalty: f64,
}

impl CostModel {
    /// Parameters loosely calibrated to the paper's platform, a Cray XC30
    /// (Aries dragonfly, 24 cores/node): small-message allreduce latency a
    /// few µs per round, effective per-core allreduce bandwidth far below
    /// link speed, ~10 GF/s peak per core with memory-bound BLAS-1 at a
    /// fraction of that. Only the *ratios* matter for the reproduced
    /// shapes; see DESIGN.md §3.
    pub fn cray_xc30() -> Self {
        Self {
            alpha: 8.0e-6,
            beta: 1.0e-8,
            gemm_rate: 8.0e9,
            sparse_gemm_rate: 2.4e9,
            dot_rate: 1.2e9,
            vector_rate: 2.0e9,
            cache_words: 32 * 1024, // 256 KiB of f64s (L2-class)
            cache_penalty: 3.0,
        }
    }

    /// Flop rate for a kernel class given its working-set size in words.
    pub fn rate(&self, class: KernelClass, working_set_words: u64) -> f64 {
        let base = match class {
            KernelClass::Gemm => self.gemm_rate,
            KernelClass::SparseGemm => self.sparse_gemm_rate,
            KernelClass::Dot => self.dot_rate,
            KernelClass::Vector => self.vector_rate,
        };
        if working_set_words > self.cache_words {
            base / self.cache_penalty
        } else {
            base
        }
    }

    /// Seconds to execute `flops` of the given class with the given
    /// working set.
    pub fn compute_time(&self, class: KernelClass, flops: u64, working_set_words: u64) -> f64 {
        flops as f64 / self.rate(class, working_set_words)
    }

    /// Cost breakdown of the one collective the machine has: the **fused,
    /// segment-pipelined allreduce** behind `iallreduce`. The payload is
    /// one contiguous buffer (packed Gram triangle + cross terms +
    /// scalars), cut into segments and pipelined down the binomial tree:
    /// `⌈log₂P⌉` latency rounds (the paper's Table I message counts), and
    /// each word crosses the network only during the reduce-scatter /
    /// allgather-style sweep, `2·w·(P−1)/P` words on the critical path:
    ///
    /// ```text
    /// rounds      = ⌈log₂P⌉
    /// words_moved = 2·w·(P−1)/P          (bandwidth-optimal)
    /// time        = rounds·α + β·words_moved
    /// ```
    ///
    /// A lone rank pays nothing (0 rounds, 0 words, 0 s); an empty payload
    /// is a barrier, pure latency.
    pub fn fused_allreduce_charge(&self, p: usize, words: u64) -> CollectiveCharge {
        let lg = collective_rounds(p);
        let words_moved = pipelined_words(p, words);
        CollectiveCharge {
            rounds: lg,
            words_moved,
            time: lg as f64 * self.alpha + self.beta * words_moved as f64,
        }
    }
}

/// Critical-path word count of a bandwidth-optimal pipelined sweep on `p`
/// ranks: `2·w·(p−1)/p`, rounded to whole words.
fn pipelined_words(p: usize, words: u64) -> u64 {
    if p <= 1 {
        return 0;
    }
    (2.0 * words as f64 * (p as f64 - 1.0) / p as f64).round() as u64
}

/// Least-squares fit of (α, β) from measured collectives: given samples of
/// `(ranks, payload_words, seconds)` for allreduces, solve
/// `t ≈ ⌈log₂P⌉·α + (2w(P−1)/P)·β` — the formula
/// [`CostModel::fused_allreduce_charge`] charges, so fitting the model's
/// own charges returns its α and β — in closed form (2×2 normal
/// equations). This is how a real machine would be calibrated into a
/// [`CostModel`]: run a collectives microbenchmark, fit, simulate.
///
/// # Panics
/// Panics with fewer than 2 samples or a singular design (every sample at
/// the same rank count and payload).
pub fn fit_alpha_beta(samples: &[(usize, u64, f64)]) -> (f64, f64) {
    assert!(samples.len() >= 2, "need at least two samples");
    // design rows: x1 = ⌈log₂P⌉ rounds, x2 = words on the critical path
    let (mut s11, mut s12, mut s22, mut b1, mut b2) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    for &(p, w, t) in samples {
        let x1 = collective_rounds(p) as f64;
        let x2 = pipelined_words(p, w) as f64;
        s11 += x1 * x1;
        s12 += x1 * x2;
        s22 += x2 * x2;
        b1 += x1 * t;
        b2 += x2 * t;
    }
    let det = s11 * s22 - s12 * s12;
    assert!(
        det.abs() > 1e-300 * s11.max(s22).max(1.0),
        "singular calibration design: vary the payload sizes"
    );
    let alpha = (b1 * s22 - b2 * s12) / det;
    let beta = (s11 * b2 - s12 * b1) / det;
    (alpha, beta)
}

/// Raw counters accumulated by one rank, or by the critical path.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostCounters {
    /// Messages on the critical path (the paper's `L`, counted in rounds).
    pub messages: u64,
    /// Words moved on the critical path (the paper's `W`).
    pub words: u64,
    /// Floating-point operations (the paper's `F`).
    pub flops: u64,
    /// Seconds of computation.
    pub comp_time: f64,
    /// Seconds of communication.
    pub comm_time: f64,
    /// Seconds spent waiting for stragglers at collective entry.
    pub idle_time: f64,
}

impl CostCounters {
    /// Total virtual time.
    pub fn total_time(&self) -> f64 {
        self.comp_time + self.comm_time + self.idle_time
    }

    /// Accumulate another counter set (used when merging phases).
    pub fn merge(&mut self, other: &CostCounters) {
        self.messages += other.messages;
        self.words += other.words;
        self.flops += other.flops;
        self.comp_time += other.comp_time;
        self.comm_time += other.comm_time;
        self.idle_time += other.idle_time;
    }
}

/// A finished run's cost summary.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostReport {
    /// Number of ranks.
    pub ranks: usize,
    /// Counters of the critical rank — the computational straggler
    /// (maximum comp time, ties toward the highest rank); F/W/L are that
    /// rank's values, matching Table I's "costs along the critical path".
    pub critical: CostCounters,
}

impl CostReport {
    /// End-to-end simulated running time.
    pub fn running_time(&self) -> f64 {
        self.critical.total_time()
    }

    /// Combine another report covering a different phase of the same run:
    /// counters add along the critical path, ranks must agree (a zero
    /// `ranks` acts as the identity so reports fold from `default()`).
    pub fn merge(&mut self, other: &CostReport) {
        if self.ranks == 0 {
            self.ranks = other.ranks;
        } else if other.ranks != 0 {
            assert_eq!(
                self.ranks, other.ranks,
                "merging reports of different machines"
            );
        }
        self.critical.merge(&other.critical);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_ceil_log2() {
        assert_eq!(collective_rounds(1), 0);
        assert_eq!(collective_rounds(2), 1);
        assert_eq!(collective_rounds(3), 2);
        assert_eq!(collective_rounds(4), 2);
        assert_eq!(collective_rounds(12288), 14);
    }

    #[test]
    fn allreduce_time_scales_with_p_and_words() {
        let m = CostModel::cray_xc30();
        let t1 = m.fused_allreduce_charge(64, 10).time;
        let t2 = m.fused_allreduce_charge(4096, 10).time;
        let t3 = m.fused_allreduce_charge(64, 100_000).time;
        assert!(t2 > t1, "more ranks, more rounds");
        assert!(t3 > t1, "more words, more time");
    }

    #[test]
    fn latency_dominates_small_messages() {
        // The regime that makes SA methods win: for a tiny payload, one
        // s-sized collective is far cheaper than s unit collectives.
        let m = CostModel::cray_xc30();
        let s = 64u64;
        let one_big = m.fused_allreduce_charge(1024, s * s).time;
        let many_small: f64 = (0..s).map(|_| m.fused_allreduce_charge(1024, 1).time).sum();
        assert!(
            one_big < many_small / 2.0,
            "big {one_big} vs many {many_small}"
        );
    }

    #[test]
    fn gemm_class_is_faster_than_dot_class() {
        let m = CostModel::cray_xc30();
        assert!(
            m.compute_time(KernelClass::Gemm, 1_000_000, 100)
                < m.compute_time(KernelClass::Dot, 1_000_000, 100)
        );
    }

    #[test]
    fn cache_spill_slows_kernels() {
        let m = CostModel::cray_xc30();
        let fast = m.compute_time(KernelClass::SparseGemm, 1_000_000, 1_000);
        let slow = m.compute_time(KernelClass::SparseGemm, 1_000_000, m.cache_words + 1);
        assert!((slow / fast - m.cache_penalty).abs() < 1e-12);
    }

    #[test]
    fn counters_merge() {
        let mut a = CostCounters {
            messages: 1,
            words: 2,
            flops: 3,
            comp_time: 0.5,
            comm_time: 0.25,
            idle_time: 0.25,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.messages, 2);
        assert_eq!(a.words, 4);
        assert_eq!(a.flops, 6);
        assert!((a.total_time() - 2.0).abs() < 1e-15);
    }
}

#[cfg(test)]
mod fused_allreduce_tests {
    use super::*;

    #[test]
    fn fused_keeps_tree_latency_but_moves_pipelined_words() {
        // Against a tree that resends the whole payload every round
        // (⌈log₂P⌉·(α + βw)): same rounds, never more words, never slower.
        let m = CostModel::cray_xc30();
        for p in [2usize, 3, 192, 1024, 12_288] {
            let w = 592u64;
            let lg = collective_rounds(p);
            let fused = m.fused_allreduce_charge(p, w);
            assert_eq!(fused.rounds, lg, "p={p}: latency is unchanged");
            let expect = (2.0 * w as f64 * (p as f64 - 1.0) / p as f64).round() as u64;
            assert_eq!(fused.words_moved, expect, "p={p}");
            assert!(
                fused.words_moved <= lg * w,
                "p={p}: pipelining must never move more words"
            );
            let tree_time = lg as f64 * (m.alpha + m.beta * w as f64);
            assert!(fused.time <= tree_time + 1e-18, "p={p}: never slower");
        }
    }

    #[test]
    fn fused_words_reduction_is_at_least_half_log_p() {
        // The factor that drives the fig4 regeneration: at ≥ 192 ranks a
        // whole-payload tree would move ⌈log₂P⌉·w while the fused sweep
        // moves < 2w, so the reduction is ≥ ⌈log₂P⌉/2 ≥ 4× — comfortably
        // above the 1.8× acceptance bar on every fig4 dataset/p point.
        let m = CostModel::cray_xc30();
        for p in [192usize, 384, 768, 1536, 3072, 6144, 12_288] {
            let w = 10_000u64;
            let tree = collective_rounds(p) * w;
            let fused = m.fused_allreduce_charge(p, w).words_moved;
            let factor = tree as f64 / fused as f64;
            assert!(factor >= 1.8, "p={p}: words reduction only {factor}");
        }
    }

    #[test]
    fn fused_single_rank_and_empty_payload_are_free() {
        let m = CostModel::cray_xc30();
        let c = m.fused_allreduce_charge(1, 1000);
        assert_eq!((c.rounds, c.words_moved, c.time), (0, 0, 0.0));
        let c = m.fused_allreduce_charge(64, 0);
        assert_eq!(c.words_moved, 0);
        assert!((c.time - 6.0 * m.alpha).abs() < 1e-18, "pure latency");
    }
}

#[cfg(test)]
mod calibration_tests {
    use super::*;

    /// The model's own charges for every (P, payload) pair, as
    /// calibration samples.
    fn charged_samples(m: &CostModel, ps: &[usize], ws: &[u64]) -> Vec<(usize, u64, f64)> {
        ps.iter()
            .flat_map(|&p| {
                ws.iter()
                    .map(move |&w| (p, w, m.fused_allreduce_charge(p, w).time))
            })
            .collect()
    }

    #[test]
    fn fit_recovers_known_parameters() {
        // fit ∘ fused_allreduce_charge is the identity: the fit's design
        // is the formula the simulator charges.
        for (alpha, beta) in [(5.0e-6, 2.0e-8), (1.0e-3, 2.0e-7)] {
            let m = CostModel {
                alpha,
                beta,
                ..CostModel::cray_xc30()
            };
            let samples = charged_samples(&m, &[2, 4, 64, 12_288], &[1, 100, 10_000]);
            let (a, b) = fit_alpha_beta(&samples);
            assert!((a / alpha - 1.0).abs() < 1e-12, "alpha {a} vs {alpha}");
            assert!((b / beta - 1.0).abs() < 1e-12, "beta {b} vs {beta}");
        }
    }

    #[test]
    fn fit_is_robust_to_noise() {
        let mut rng = 0x12345u64;
        let mut next = move || {
            // tiny LCG for multiplicative noise in [0.95, 1.05]
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            0.95 + 0.1 * ((rng >> 33) as f64 / (1u64 << 31) as f64)
        };
        let m = CostModel::cray_xc30();
        let samples: Vec<(usize, u64, f64)> =
            charged_samples(&m, &[128, 512, 2048, 8192], &[1, 50, 1000, 50_000])
                .into_iter()
                .map(|(p, w, t)| (p, w, t * next()))
                .collect();
        let (alpha, beta) = fit_alpha_beta(&samples);
        assert!((alpha / m.alpha - 1.0).abs() < 0.2, "alpha {alpha}");
        assert!((beta / m.beta - 1.0).abs() < 0.2, "beta {beta}");
    }

    #[test]
    #[should_panic(expected = "singular calibration")]
    fn constant_payload_design_is_rejected() {
        // with only one payload size, α and β are not identifiable
        let samples = vec![(64usize, 10u64, 1e-4), (64, 10, 1.1e-4), (64, 10, 0.9e-4)];
        fit_alpha_beta(&samples);
    }

    #[test]
    fn class_breakdown_sums_to_comp_time() {
        use crate::telemetry::Phase;
        use crate::VirtualCluster;
        let model = CostModel::cray_xc30();
        let classes = [
            (KernelClass::Gemm, 1_000_000),
            (KernelClass::Dot, 500_000),
            (KernelClass::Vector, 200_000),
        ];
        let by_class: f64 = classes
            .iter()
            .map(|&(class, flops)| model.compute_time(class, flops, 10))
            .sum();
        let mut vc = VirtualCluster::new(2, model);
        for (class, flops) in classes {
            vc.charge(class, Phase::Comp, |_| (flops, 10));
        }
        for rank in 0..2 {
            let total = vc.counters(rank).comp_time;
            assert!((by_class - total).abs() < 1e-15, "rank {rank}: {total}");
        }
    }
}
