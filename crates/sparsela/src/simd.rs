//! Explicit-width SIMD microkernels with a deterministic lane-reduction
//! contract.
//!
//! Every kernel here is written once, as a *portable* Rust function with a
//! **fixed** lane structure — a fixed number of partial accumulators,
//! combined in a fixed left-to-right order. The elementwise, sparse
//! scatter and full-slice kernels are then compiled a second and third
//! time behind `#[target_feature(enable = "avx2"/"avx512f")]`
//! wrappers, and runtime dispatch picks the widest instruction set the
//! host supports (`SACO_SIMD` can force the portable builds, see
//! [`Mode`]). The two BLAS-1 reductions ([`dot`], [`nrm2_sq`]) have the
//! portable build only: their wide builds measured 0.6–0.9× of it at every
//! length.
//!
//! # The determinism contract
//!
//! The lane structure is part of the kernel's *definition*, not its
//! execution width: a dot product always uses [`LANES`] = 4 partial sums
//! reduced as `(acc0 + acc1) + (acc2 + acc3) + tail`, and the sparse
//! scatter-dot always keeps one accumulator chain per scattered
//! column — as do the full-slice kernels, which only put several such
//! chains in flight at once. Because the AVX2/AVX-512 builds execute the
//! *same* IEEE-754 operations in the *same* association (vectorization
//! only reschedules independent lanes, it never reassociates a chain, and
//! fused multiply-add is banned repo-wide — `scripts/shim_guard.sh`), the
//! scalar and wide paths are **bitwise identical** by construction. The
//! proptests in `tests/proptests.rs` pin this for every kernel, including
//! ragged tails.
//!
//! This module is the only place in the numeric crates allowed to spell
//! out raw product-accumulate inner loops; `vecops` and `gram` route
//! through it (enforced by `scripts/shim_guard.sh`). Two deliberate
//! exceptions, both single scalar chains with one build, so no ISA can
//! reach them: [`crate::SparseSlice::dot_dense`] — its gather pattern
//! defeats vectorization (measured slower with lane splitting), and its
//! single-accumulator order is what the interleaved kernel below
//! reproduces per lane — and the sampled Gram's row-intersection schedule,
//! whose pair updates are scattered scalar stores with no lanes to widen.

use std::sync::atomic::{AtomicU8, Ordering};

/// Accumulator lanes of the BLAS-1 reductions ([`dot`], [`nrm2_sq`]).
pub const LANES: usize = 4;

/// Interleaved scatter lanes of the sparse sampled-Gram kernel: that many
/// selected columns are scattered side by side so one streaming pass over
/// a partner column's nonzeros produces that many Gram entries with
/// contiguous (cache-line-wide) loads instead of gathers.
pub const SPARSE_LANES: usize = 8;

// ---------------------------------------------------------------------------
// Mode / ISA selection
// ---------------------------------------------------------------------------

/// Execution-width policy, resolved from `SACO_SIMD` (or [`set_mode`]).
///
/// A pure throughput knob: all modes produce bitwise-identical results
/// (the lane-reduction contract above). `Scalar` forces the portable
/// build of every kernel; `Auto` uses the widest detected ISA.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Use the widest instruction set the host supports (default).
    Auto,
    /// Force the portable (baseline-codegen) build of every kernel.
    Scalar,
}

// 0 = unresolved, 1 = Auto, 2 = Scalar.
static MODE: AtomicU8 = AtomicU8::new(0);
// 0 = unresolved, 1 = Portable, 2 = Avx2, 3 = Avx512.
static DETECTED: AtomicU8 = AtomicU8::new(0);

/// The active execution-width policy (cached; first call reads
/// `SACO_SIMD=auto|scalar`, unknown values fall back to `auto`).
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        0 => {
            let m = match std::env::var("SACO_SIMD").as_deref() {
                Ok("scalar") => Mode::Scalar,
                _ => Mode::Auto,
            };
            set_mode(m);
            m
        }
        2 => Mode::Scalar,
        _ => Mode::Auto,
    }
}

/// Override the execution-width policy in-process (tests and benchmarks
/// compare `Scalar` vs `Auto` without re-execing). Safe to flip at any
/// time: the mode never changes results, only instruction selection.
pub fn set_mode(m: Mode) {
    let v = match m {
        Mode::Auto => 1,
        Mode::Scalar => 2,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// Label for telemetry/gauges: `"auto"` or `"scalar"`.
pub fn mode_label() -> &'static str {
    match mode() {
        Mode::Auto => "auto",
        Mode::Scalar => "scalar",
    }
}

/// Instruction set a kernel dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Portable build (baseline codegen — SSE2 on x86-64).
    Portable,
    /// AVX2 build (4 × f64 registers).
    Avx2,
    /// AVX-512F build (8 × f64 registers).
    Avx512,
}

fn detected() -> Isa {
    match DETECTED.load(Ordering::Relaxed) {
        0 => {
            #[allow(unused_mut)]
            let mut isa = Isa::Portable;
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    isa = Isa::Avx512;
                } else if std::arch::is_x86_feature_detected!("avx2") {
                    isa = Isa::Avx2;
                }
            }
            DETECTED.store(
                match isa {
                    Isa::Portable => 1,
                    Isa::Avx2 => 2,
                    Isa::Avx512 => 3,
                },
                Ordering::Relaxed,
            );
            isa
        }
        2 => Isa::Avx2,
        3 => Isa::Avx512,
        _ => Isa::Portable,
    }
}

/// The instruction set the current [`mode`] resolves to on this host.
pub fn active_isa() -> Isa {
    match mode() {
        Mode::Scalar => Isa::Portable,
        Mode::Auto => detected(),
    }
}

/// The sparse scatter-dot kernel's ISA preference: AVX2 even on AVX-512
/// hosts — the interleaved 8-lane pass measured *faster* under AVX2
/// (512-bit loads gain nothing on a cache-line-bound kernel and the
/// downclocked port layout loses). Purely a throughput choice: every ISA
/// build is bitwise identical.
fn sparse_isa() -> Isa {
    match active_isa() {
        Isa::Avx512 => Isa::Avx2,
        isa => isa,
    }
}

/// Hardware f64 lanes of the active ISA (2 for the portable SSE2
/// baseline, 4 for AVX2, 8 for AVX-512) — recorded in `kernel.simd.*`
/// gauges. Distinct from [`LANES`], the fixed *accumulator* lane count
/// that defines the reduction order.
pub fn effective_lanes() -> usize {
    match active_isa() {
        Isa::Portable => 2,
        Isa::Avx2 => 4,
        Isa::Avx512 => 8,
    }
}

/// Defines a kernel once and re-compiles it behind AVX2/AVX-512 target
/// features. The wrapper bodies are the portable function, so all three
/// builds share one definition — wider builds cannot diverge.
macro_rules! widened {
    (fn $name:ident / $avx2:ident / $avx512:ident ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block) => {
        #[inline(always)]
        fn $name($($arg: $ty),*) $(-> $ret)? $body

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2($($arg: $ty),*) $(-> $ret)? { $name($($arg),*) }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        unsafe fn $avx512($($arg: $ty),*) $(-> $ret)? { $name($($arg),*) }
    };
}

/// Dispatches to the requested build of a `widened!` kernel.
///
/// Safety of the `unsafe` calls: the `Isa` value comes from
/// [`detected()`], which only reports features `is_x86_feature_detected!`
/// confirmed on this host.
macro_rules! dispatch {
    ($isa:expr, $name:ident / $avx2:ident / $avx512:ident ($($arg:expr),* $(,)?)) => {{
        #[cfg(target_arch = "x86_64")]
        {
            match $isa {
                Isa::Avx512 => unsafe { $avx512($($arg),*) },
                Isa::Avx2 => unsafe { $avx2($($arg),*) },
                Isa::Portable => $name($($arg),*),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = $isa;
            $name($($arg),*)
        }
    }};
}

// ---------------------------------------------------------------------------
// BLAS-1 kernels
// ---------------------------------------------------------------------------

widened! {
    fn axpy_kernel / axpy_avx2 / axpy_avx512(alpha: f64, x: &[f64], y: &mut [f64]) {
        // Elementwise: no reduction, so width cannot matter even in
        // principle — the wide builds exist purely for codegen.
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }
}

widened! {
    fn scale_kernel / scale_avx2 / scale_avx512(alpha: f64, x: &mut [f64]) {
        for xi in x {
            *xi *= alpha;
        }
    }
}

/// Dot product `xᵀy`: fixed 4-lane partials reduced `(0+1)+(2+3)+tail`.
/// Caller validates lengths (`vecops::dot` is the public entry point).
///
/// One portable build in every mode. The 4-chain association is
/// latency-bound, and packing the four chains into one wide register
/// fuses them into a single dependency chain — slower at every vector
/// size than this build's two independent SSE chains. A wider schedule
/// would need more chains, which the determinism contract forbids.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f64; LANES];
    let chunks = x.len() / LANES;
    for c in 0..chunks {
        let i = LANES * c;
        acc[0] += x[i] * y[i];
        acc[1] += x[i + 1] * y[i + 1];
        acc[2] += x[i + 2] * y[i + 2];
        acc[3] += x[i + 3] * y[i + 3];
    }
    let mut tail = 0.0;
    for i in LANES * chunks..x.len() {
        tail += x[i] * y[i];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Squared Euclidean norm with the fixed 4-lane reduction order
/// (bitwise equal to `dot(x, x)`; portable in every mode, like [`dot`]).
#[inline]
pub fn nrm2_sq(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let chunks = x.len() / LANES;
    for c in 0..chunks {
        let i = LANES * c;
        acc[0] += x[i] * x[i];
        acc[1] += x[i + 1] * x[i + 1];
        acc[2] += x[i + 2] * x[i + 2];
        acc[3] += x[i + 3] * x[i + 3];
    }
    let mut tail = 0.0;
    for i in LANES * chunks..x.len() {
        tail += x[i] * x[i];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `y ← alpha·x + y` (elementwise; lengths validated by the caller).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    dispatch!(
        active_isa(),
        axpy_kernel / axpy_avx2 / axpy_avx512(alpha, x, y)
    )
}

/// `x ← alpha·x` (elementwise).
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    dispatch!(
        active_isa(),
        scale_kernel / scale_avx2 / scale_avx512(alpha, x)
    )
}

// ---------------------------------------------------------------------------
// Sparse sampled Gram: interleaved multi-column scatter dot
// ---------------------------------------------------------------------------

widened! {
    fn scatter_dot_kernel / scatter_dot_avx2 / scatter_dot_avx512(
        indices: &[usize],
        values: &[f64],
        work: &[f64],
        acc: &mut [f64; SPARSE_LANES],
    ) {
        // One accumulator chain per scattered column: acc[l] follows
        // exactly the single-chain order of SparseSlice::dot_dense
        // against column l's scatter, so each Gram entry is bitwise the
        // one-column-at-a-time kernel's. The interleaved layout turns
        // the old per-entry gather into one contiguous 8-wide load.
        for (&i, &x) in indices.iter().zip(values) {
            let w = &work[SPARSE_LANES * i..SPARSE_LANES * i + SPARSE_LANES];
            for l in 0..SPARSE_LANES {
                acc[l] += x * w[l];
            }
        }
    }
}

/// Sparse dot of one slice against [`SPARSE_LANES`] interleaved scattered
/// columns: `acc[l] += Σ values[k] · work[SPARSE_LANES·indices[k] + l]`,
/// each lane an independent left-to-right chain over `indices` order.
///
/// `work` holds the scattered columns interleaved (`work[L·i + l]` is row
/// `i` of column `l`, 64-byte aligned via [`AlignedBuf`] so the 8-wide
/// row load is one cache line).
#[inline]
pub fn scatter_dot_lanes(
    indices: &[usize],
    values: &[f64],
    work: &[f64],
    acc: &mut [f64; SPARSE_LANES],
) {
    dispatch!(
        sparse_isa(),
        scatter_dot_kernel / scatter_dot_avx2 / scatter_dot_avx512(indices, values, work, acc)
    )
}

// ---------------------------------------------------------------------------
// Full slices: interleave by copy, several partner chains per lane block
// ---------------------------------------------------------------------------

/// Partner slices one pass of the full-slice lane block streams together
/// (and full slices one pass of the cross product keeps in flight): that
/// many independent accumulator sets share each interleaved row load, so
/// the add latency of one chain hides behind the other three.
pub const FULL_PARTNERS: usize = 4;

widened! {
    fn full_dot_kernel / full_dot_avx2 / full_dot_avx512(
        work: &[f64],
        x: [&[f64]; FULL_PARTNERS],
    ) -> [[f64; SPARSE_LANES]; FULL_PARTNERS] {
        // acc[p][l] is the single left-to-right chain of partner p against
        // lane l from 0.0 over every row — dot_dense's order on a full
        // slice — and the four partners' chains are independent.
        let n = work.len() / SPARSE_LANES;
        let [x0, x1, x2, x3] = x.map(|p| &p[..n]);
        let mut acc = [[0.0f64; SPARSE_LANES]; FULL_PARTNERS];
        for (i, w) in work.chunks_exact(SPARSE_LANES).enumerate() {
            for l in 0..SPARSE_LANES {
                acc[0][l] += x0[i] * w[l];
            }
            for l in 0..SPARSE_LANES {
                acc[1][l] += x1[i] * w[l];
            }
            for l in 0..SPARSE_LANES {
                acc[2][l] += x2[i] * w[l];
            }
            for l in 0..SPARSE_LANES {
                acc[3][l] += x3[i] * w[l];
            }
        }
        acc
    }
}

/// Dense dots of [`FULL_PARTNERS`] full slices against the interleaved
/// lanes at once: `out[p][l] = Σᵢ x[p][i] · work[SPARSE_LANES·i + l]`, each
/// entry one left-to-right chain from `0.0` over `i = 0..n`
/// (`n = work.len() / SPARSE_LANES`, every `x[p]` at least that long).
/// Callers with fewer partners repeat one and discard its lanes.
#[inline]
pub fn full_dot_lanes(
    work: &[f64],
    x: [&[f64]; FULL_PARTNERS],
) -> [[f64; SPARSE_LANES]; FULL_PARTNERS] {
    // The widest ISA, unlike the scatter kernel: four partners' 8-lane
    // accumulators are exactly four 512-bit registers, one multiply and
    // one add each per row — measured 37 Gflop/s against AVX2's 30 on the
    // reference host (docs/PERFORMANCE.md §"Full slices").
    dispatch!(
        active_isa(),
        full_dot_kernel / full_dot_avx2 / full_dot_avx512(work, x)
    )
}

widened! {
    fn multi_dot_kernel / multi_dot_avx2 / multi_dot_avx512(
        x: [&[f64]; FULL_PARTNERS],
        v: &[f64],
    ) -> [f64; FULL_PARTNERS] {
        let [x0, x1, x2, x3] = x.map(|p| &p[..v.len()]);
        let mut acc = [0.0f64; FULL_PARTNERS];
        for (i, &vi) in v.iter().enumerate() {
            acc[0] += x0[i] * vi;
            acc[1] += x1[i] * vi;
            acc[2] += x2[i] * vi;
            acc[3] += x3[i] * vi;
        }
        acc
    }
}

/// Dense dots of [`FULL_PARTNERS`] full slices against one vector:
/// `out[p] = Σᵢ x[p][i] · v[i]`, each a single chain from `0.0` over
/// `i = 0..v.len()` — `SparseSlice::dot_dense` on a slice storing every
/// coordinate, four of them in flight.
#[inline]
pub fn multi_dot(x: [&[f64]; FULL_PARTNERS], v: &[f64]) -> [f64; FULL_PARTNERS] {
    dispatch!(
        active_isa(),
        multi_dot_kernel / multi_dot_avx2 / multi_dot_avx512(x, v)
    )
}

/// Interleave [`SPARSE_LANES`] rows by contiguous copy, no index loads:
/// `work[SPARSE_LANES·i + l] = rows[l][i]` for `i < work.len() /
/// SPARSE_LANES`. Eight read streams and one write stream — a sixth of
/// the time of eight strided passes. Callers with fewer rows repeat one.
pub fn interleave_lanes(rows: [&[f64]; SPARSE_LANES], work: &mut [f64]) {
    let n = work.len() / SPARSE_LANES;
    let rows = rows.map(|r| &r[..n]);
    for (i, w) in work.chunks_exact_mut(SPARSE_LANES).enumerate() {
        for l in 0..SPARSE_LANES {
            w[l] = rows[l][i];
        }
    }
}

// ---------------------------------------------------------------------------
// Aligned scratch
// ---------------------------------------------------------------------------

/// A grow-only `f64` scratch buffer whose payload starts on a 64-byte
/// boundary, so the lane blocks' [`SPARSE_LANES`]-wide interleaved row
/// loads are single-cache-line accesses.
///
/// `GramWorkspace` holds them per worker: [`Self::zeroed_to`] grows
/// (zero-filled) and never shrinks. The sparse lane block keeps its buffer
/// all zeros between calls with its un-scatter pass; the full-slice block
/// overwrites everything it reads and restores nothing. Implemented as an
/// over-allocated `Vec` plus an element offset — no `unsafe`.
#[derive(Debug, Default)]
pub struct AlignedBuf {
    raw: Vec<f64>,
    off: usize,
    len: usize,
}

impl AlignedBuf {
    /// Empty buffer; storage appears on first [`Self::zeroed_to`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffer at exactly `len` elements, 64-byte aligned. Growth
    /// allocates fresh zeroed storage, so a caller that leaves the buffer
    /// all zeros finds it all zeros.
    pub fn zeroed_to(&mut self, len: usize) -> &mut [f64] {
        if self.len < len {
            // 64 bytes = 8 f64s: over-allocate one vector's worth for
            // the alignment offset.
            self.raw = vec![0.0; len + 8];
            self.off = self.raw.as_ptr().align_offset(64).min(8);
            self.len = len;
        }
        &mut self.raw[self.off..self.off + len]
    }

    /// Current payload length (high-water mark of [`Self::zeroed_to`]).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer has ever been sized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow the aligned payload.
    pub fn as_slice(&self) -> &[f64] {
        &self.raw[self.off..self.off + self.len]
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        // Re-derive the alignment offset for the fresh allocation; the
        // payload (normally all zeros between kernel calls) is copied.
        let mut c = AlignedBuf::default();
        if self.len > 0 {
            c.zeroed_to(self.len).copy_from_slice(self.as_slice());
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) + seed).sin() * 3.0).collect()
    }

    fn with_modes<F: FnMut() -> T, T: PartialEq + std::fmt::Debug>(mut f: F) {
        set_mode(Mode::Scalar);
        let scalar = f();
        set_mode(Mode::Auto);
        let auto = f();
        assert_eq!(scalar, auto, "scalar and auto builds disagree");
    }

    #[test]
    fn dot_is_bitwise_across_modes_and_tails() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 1000] {
            let x = vec_of(n, 0.1);
            let y = vec_of(n, 2.7);
            with_modes(|| dot(&x, &y).to_bits());
            with_modes(|| nrm2_sq(&x).to_bits());
        }
    }

    #[test]
    fn elementwise_kernels_are_bitwise_across_modes() {
        for n in [0usize, 1, 3, 8, 17, 100] {
            let x = vec_of(n, 1.0);
            let y0 = vec_of(n, 4.0);
            with_modes(|| {
                let mut y = y0.clone();
                axpy(0.3, &x, &mut y);
                scale(1.0 / 3.0, &mut y);
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
        }
    }

    #[test]
    fn scatter_dot_lanes_matches_per_lane_chains() {
        let rows = 50usize;
        let mut work = vec![0.0f64; SPARSE_LANES * rows];
        for i in 0..rows {
            for l in 0..SPARSE_LANES {
                work[SPARSE_LANES * i + l] = ((i * 7 + l) as f64).cos();
            }
        }
        let indices: Vec<usize> = (0..rows).step_by(3).collect();
        let values: Vec<f64> = indices.iter().map(|&i| (i as f64).sin()).collect();
        with_modes(|| {
            let mut acc = [0.0f64; SPARSE_LANES];
            scatter_dot_lanes(&indices, &values, &work, &mut acc);
            acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        });
        let mut acc = [0.0f64; SPARSE_LANES];
        scatter_dot_lanes(&indices, &values, &work, &mut acc);
        for l in 0..SPARSE_LANES {
            // The per-lane reference is the single-accumulator chain of
            // SparseSlice::dot_dense against lane l's column.
            let mut want = 0.0f64;
            for (&i, &x) in indices.iter().zip(&values) {
                want += x * work[SPARSE_LANES * i + l];
            }
            assert_eq!(acc[l].to_bits(), want.to_bits(), "lane {l}");
        }
    }

    #[test]
    fn full_slice_kernels_match_per_entry_chains() {
        // Ragged against the 8-row unroll the compiler may pick.
        for n in [1usize, 7, 8, 61] {
            let rows: Vec<Vec<f64>> = (0..SPARSE_LANES + FULL_PARTNERS)
                .map(|r| vec_of(n, r as f64))
                .collect();
            let mut work = vec![f64::NAN; SPARSE_LANES * n];
            interleave_lanes(std::array::from_fn(|l| &rows[l][..]), &mut work);
            let x: [&[f64]; FULL_PARTNERS] = std::array::from_fn(|p| &rows[SPARSE_LANES + p][..]);
            let v = vec_of(n, 9.5);
            with_modes(|| {
                let lanes = full_dot_lanes(&work, x);
                let dots = multi_dot(x, &v);
                (lanes.map(|p| p.map(f64::to_bits)), dots.map(f64::to_bits))
            });
            let (lanes, dots) = (full_dot_lanes(&work, x), multi_dot(x, &v));
            for p in 0..FULL_PARTNERS {
                let mut want = 0.0f64;
                for i in 0..n {
                    want += x[p][i] * v[i];
                }
                assert_eq!(dots[p].to_bits(), want.to_bits(), "n={n} partner {p}");
                for l in 0..SPARSE_LANES {
                    let mut want = 0.0f64;
                    for i in 0..n {
                        want += x[p][i] * rows[l][i];
                    }
                    assert_eq!(lanes[p][l].to_bits(), want.to_bits(), "n={n} ({p},{l})");
                }
            }
        }
    }

    #[test]
    fn aligned_buf_aligns_grows_and_clones() {
        let mut b = AlignedBuf::new();
        assert!(b.is_empty());
        let s = b.zeroed_to(37);
        assert_eq!(s.len(), 37);
        assert_eq!(s.as_ptr() as usize % 64, 0, "payload not 64-byte aligned");
        s[5] = 2.5;
        // Growth preserves nothing but the invariant; shrink requests
        // return the same storage.
        assert_eq!(b.zeroed_to(10).len(), 10);
        assert_eq!(b.len(), 37);
        assert_eq!(b.as_slice()[5], 2.5);
        let c = b.clone();
        assert_eq!(c.as_slice(), b.as_slice());
        assert_eq!(c.as_slice().as_ptr() as usize % 64, 0);
        let big = b.zeroed_to(1000);
        assert_eq!(big.len(), 1000);
        assert!(big.iter().all(|&v| v == 0.0), "growth must zero-fill");
    }

    #[test]
    fn mode_and_isa_labels_are_consistent() {
        set_mode(Mode::Scalar);
        assert_eq!(mode_label(), "scalar");
        assert_eq!(active_isa(), Isa::Portable);
        assert_eq!(effective_lanes(), 2);
        set_mode(Mode::Auto);
        assert_eq!(mode_label(), "auto");
        assert!(effective_lanes() >= 2);
    }
}
