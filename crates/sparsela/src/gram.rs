//! Sampled Gram matrices and cross products — the communication kernels of
//! the SA methods.
//!
//! Every iteration of Algorithm 1 reduces `G = AₕᵀAₕ` (µ×µ) and
//! `rₕ = Aₕᵀ(θ²ỹ + z̃)`; every *outer* iteration of Algorithm 2 reduces the
//! larger `G = YᵀY` (sµ×sµ) and `Yᵀ[ỹ z̃]` where `Y` stacks the `s` sampled
//! blocks. The SVM algorithms reduce the analogous row-Gram matrices. This
//! module computes the *local* contributions on one rank's block; the
//! simulator's allreduce sums them across ranks.
//!
//! One entry point ([`sampled_gram_into`]) and one per-entry contract:
//! entry `(a, b)`, `a < b`, is the single left-to-right chain of
//! `dot_dense` — from `+0.0`, over slice `b`'s stored coordinates in
//! ascending order, multiply then add — against slice `a`; the diagonal is
//! `norm_sq`. Three *schedules* compute exactly those entries, and the data
//! picks one per call — a throughput choice like the ISA, never a numerics
//! one:
//! * **full-slice** — when every selected slice stores every coordinate
//!   (dense datasets: rows of gisette, columns of epsilon, and any rank's
//!   local block of them) the slices share one index set, so a *lane
//!   block* of [`simd::SPARSE_LANES`] slices interleaves their values by
//!   contiguous copy, streams the partners [`simd::FULL_PARTNERS`] at a
//!   time with independent accumulator sets, and reads the diagonal off the
//!   slice's own pass. No index loads, no scatter, nothing to undo. This is
//!   also what makes computing `s` iterations of dot products at once
//!   *faster per flop* than `s` separate BLAS-1 calls (Fig. 4e–h) — four
//!   chains in flight where a lone dot has one.
//! * **scatter** — a lane block's slices are scattered interleaved into a
//!   zero-maintained buffer through their index arrays, each partner's
//!   nonzeros make one pass that yields all lanes' entries with one
//!   cache-line-wide load per nonzero, and the scatter is undone. It does
//!   [`simd::SPARSE_LANES`] multiply-adds per partner nonzero whatever the
//!   overlap, which streams well where the slices share most rows (uniform
//!   10 %, covtype).
//! * **row intersection** — the slices are visited in order `b = 0..k`;
//!   each nonzero `(i, x_b)` walks the list of earlier slices `a < b` that
//!   hold row `i`, adds `x_b·x_a[i]` to both `G[a][b]` and `G[b][a]`, then
//!   joins row `i`'s list. Its work is `N + E` — `N = Σ nnz_b` list pushes
//!   and `E` pairs of selected nonzeros sharing a row — so on power-law
//!   data (news20, rcv1, url), where almost every product of the scatter
//!   schedule multiplies a scattered zero, it is several times faster. No
//!   lane blocks, no sort, no mirror pass; its scratch is 8 B per minor row
//!   (each row's newest node and node count, one entry read and written
//!   once per push) plus 20 B per list node.
//!
//! **Why row intersection gives the same bits.** The lane blocks compute
//! entry `(a, b)` as the chain itself: `x_b[i]·w_a[i]` added for every `i`
//! of slice `b`, with `w_a[i] = +0.0` wherever slice `a` stores nothing.
//! With finite data — every door a matrix enters through rejects anything
//! else — such a product is `±0`. The accumulator starts at `+0.0`, a
//! round-to-nearest addition never makes it `−0.0`, and `v + (±0) = v` for
//! every `v ≠ −0.0`; so the chain equals the chain over the rows both
//! slices store, in `b`'s ascending order. That is exactly the order in
//! which row intersection delivers the addends of `(a, b)` (IEEE
//! multiplication commutes), and both halves of `G` start at `+0.0` and
//! receive the same addends, so they stay equal. The diagonal is `norm_sq`
//! in every schedule, whose `.sum()` folds from `−0.0`, so an empty
//! slice's diagonal is `−0.0`, not `+0.0`; row intersection sums that
//! chain — the same squares in the same order, from `−0.0` — in the pass
//! that builds the slice's nodes.
//!
//! **How the data chooses**, once per call: full slices take the
//! full-slice schedule. Otherwise, from `nnz` values already known, the
//! common-row pairs are estimated as if rows were hit uniformly,
//! `E ≈ (N² − Σ nnz_b²) / (2·minor_len)`, and row intersection is a
//! candidate when `c·(N + E)` is below the scatter schedule's lane
//! multiply-adds, `Σ_b LANES·nnz_b·⌈b/LANES⌉`; `c` (`INTERSECTION_COST`)
//! is the measured cost of one list push or pair update — scattered scalar
//! loads and stores — in streamed lane multiply-adds. The estimate holds
//! on columns (within 15 % on the measured power-law shapes) but not on
//! rows of power-law data, where a few popular features lie in almost
//! every row and the exact count can be 50× the estimate. So a candidate
//! builds its lists counting the exact pairs and runs only if `c·(N + E)`
//! with the exact `E` still wins; otherwise the call runs scatter, having
//! paid one build. A build that is kept is the schedule's first phase, not
//! extra work. `c` is a constant, not an option: every engine, source and
//! thread count decides alike, and it would not matter if they did not.
//!
//! The lane-block schedules have one body at every thread count: lane
//! block `t` is a tile that writes the upper entries of rows
//! `8t..8t + 8` of `G` in place, its own chunk of the matrix, and one pass
//! then mirrors the upper triangle. One thread runs the tiles in order; a
//! `saco-par` pool claims them heaviest first, one set of the caller's
//! [`GramWorkspace`] buffers per worker — same per-lane chains, **bitwise
//! identical** by construction, ⌈k/LANES⌉ tiles wide
//! (`docs/PERFORMANCE.md`). Row intersection has no tiles and always runs
//! in place. The choice weighs it against the *one-thread* scatter cost:
//! with a pool requested, a scatter triangle above the dispatch threshold
//! would have been spread over the pool's workers, and the choice does not
//! discount it for that. No workload runs sparse data on a pool;
//! docs/PERFORMANCE.md §"Sparse slices" measures the one shape where it
//! would matter.
//!
//! [`sampled_cross_into`] draws the full-slice line per group of
//! [`simd::FULL_PARTNERS`] slices: full ones run their `dot_dense` chains
//! side by side.
//!
//! The `_into` variants reuse caller-owned buffers so the SA hot loop
//! allocates nothing per outer iteration.

use crate::{simd, CscMatrix, CsrMatrix, DenseMatrix, SparseSlice};

/// Anything that exposes indexed sparse slices along its major axis:
/// `CsrMatrix` (rows) for the SVM solvers, `CscMatrix` (columns) for the
/// Lasso solvers.
pub trait MajorSlices {
    /// Number of slices along the major axis.
    fn major_len(&self) -> usize;
    /// Length of the minor (dense) axis.
    fn minor_len(&self) -> usize;
    /// Borrow slice `k`.
    fn slice(&self, k: usize) -> SparseSlice<'_>;
}

impl MajorSlices for CsrMatrix {
    fn major_len(&self) -> usize {
        self.rows()
    }
    fn minor_len(&self) -> usize {
        self.cols()
    }
    #[inline]
    fn slice(&self, k: usize) -> SparseSlice<'_> {
        self.row(k)
    }
}

impl MajorSlices for CscMatrix {
    fn major_len(&self) -> usize {
        self.cols()
    }
    fn minor_len(&self) -> usize {
        self.rows()
    }
    #[inline]
    fn slice(&self, k: usize) -> SparseSlice<'_> {
        self.col(k)
    }
}

/// [`MajorSlices`] plus the residency protocol an *out-of-core* matrix
/// needs: solvers announce each block's selection before touching its
/// slices (`prepare`), may announce later blocks' selections early
/// (`foresee`, which only informs eviction, and `prefetch`, served in the
/// background), and can ask whether early announcement is worth anything
/// (`lookahead`).
///
/// For resident matrices every hook is a no-op and `lookahead` is `false`,
/// so the generic solver loops compile down to exactly the pre-streaming
/// code — and, crucially, draw their random selections in the same order,
/// keeping in-memory runs bitwise unchanged. `sparsela::shard`'s
/// [`StreamingMatrix`](crate::shard::StreamingMatrix) implements the hooks
/// for real.
///
/// # Contract
///
/// * Every major index in a kernel call must be covered by the most recent
///   `prepare` (or fault in synchronously — correct but slow).
/// * Slices borrowed after a `prepare` remain valid until the *second*
///   following `prepare` (two live epochs — the overlap path computes the
///   next block's Gram while the current block's slices are live).
/// * None of the hooks may affect values: a streamed slice is bitwise
///   identical to its in-memory counterpart.
pub trait SliceSource: MajorSlices {
    /// Make the slices in `sel` resident and pin them for the new epoch.
    fn prepare(&self, _sel: &[usize]) {}

    /// Begin loading the slices in `sel` in the background, pinned for
    /// the epoch after the last one pinned: prefetches are claimed by
    /// `prepare` calls in the order they were made. Returns `false`, having
    /// pinned nothing, when the source cannot hold `sel` beside what it
    /// has pinned; the caller offers it again later or lets its `prepare`
    /// load it.
    fn prefetch(&self, _sel: &[usize]) -> bool {
        true
    }

    /// Announce the selection of the epoch after the last one announced
    /// (or the current one), loading and pinning nothing: announcements
    /// are claimed by `prepare` calls in the order they were made, like
    /// prefetches, and tell a bounded cache which slices it will need
    /// soonest. Each selection is announced once, before it is
    /// prefetched.
    fn foresee(&self, _sel: &[usize]) {}

    /// Withdraw every prefetch and announcement no `prepare` has claimed:
    /// the caller will not prepare those selections (a solve that broke
    /// off early). The next `prefetch` or `foresee` is for the epoch
    /// after the current one again. The caller holds no slice borrowed
    /// from the withdrawn selections.
    fn cancel_prefetches(&self) {}

    /// Whether the solver should resolve its selections blocks ahead and
    /// call [`SliceSource::prefetch`] — true only for sources with actual
    /// load latency to hide.
    fn lookahead(&self) -> bool {
        false
    }

    /// `y[k] = ⟨slice(k), x⟩` for every major slice — the full-matrix
    /// product (e.g. the SVM duality-gap pass). The default iterates
    /// resident slices; out-of-core sources override it with a bounded
    /// sequential scan. Implementations must keep the per-slice
    /// `dot_dense` arithmetic so all paths agree bitwise.
    fn major_spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.minor_len(), "spmv input length");
        assert_eq!(y.len(), self.major_len(), "spmv output length");
        for k in 0..self.major_len() {
            y[k] = self.slice(k).dot_dense(x);
        }
    }

    /// `y[k] = ‖slice(k)‖²` for every major slice — the one-time norms
    /// pass an RBF kernel needs. Defaults to resident iteration;
    /// out-of-core sources override it with a bounded sequential scan.
    /// All paths keep the per-slice `norm_sq` arithmetic, so they agree
    /// bitwise.
    fn major_norms_into(&self, y: &mut [f64]) {
        assert_eq!(y.len(), self.major_len(), "norms output length");
        for k in 0..self.major_len() {
            y[k] = self.slice(k).norm_sq();
        }
    }
}

impl SliceSource for CsrMatrix {}
impl SliceSource for CscMatrix {}

/// One worker's lane-block scratch, both 64-byte aligned at
/// [`simd::SPARSE_LANES`] `· minor_len` (row `i` of all lanes is one cache
/// line) and grow-only; a call sizes only the one its schedule uses, and a
/// call that runs row intersection sizes neither.
#[derive(Clone, Debug, Default)]
struct LaneBufs {
    /// Where a sparse lane block scatters. All zeros between calls: the
    /// block's un-scatter pass restores what its scatter wrote.
    scattered: simd::AlignedBuf,
    /// Where a full lane block interleaves. Every row of every lane it
    /// reads was written by the same block's copy, so nothing is restored
    /// and the contents between calls are stale.
    full: simd::AlignedBuf,
}

impl LaneBufs {
    /// The buffer a lane block of this call works in. Free unless the
    /// matrix outgrew it.
    fn work(&mut self, full: bool, minor_len: usize) -> &mut [f64] {
        let buf = if full {
            &mut self.full
        } else {
            &mut self.scattered
        };
        buf.zeroed_to(simd::SPARSE_LANES * minor_len)
    }
}

/// The end of a row's list in [`RowLists`].
const NO_NODE: u32 = u32::MAX;

/// One selected nonzero on its row's list.
#[derive(Clone, Copy, Debug, Default)]
struct Node {
    /// Position of its slice in the selection.
    slice: u32,
    /// The next older node on the same row, or [`NO_NODE`].
    older: u32,
    value: f64,
}

/// A minor row's entry in [`RowLists`]: its newest node and how many
/// nodes lie on it. Read and written once per node.
#[derive(Clone, Copy, Debug)]
struct Row {
    newest: u32,
    nodes: u32,
}

impl Row {
    const EMPTY: Row = Row {
        newest: NO_NODE,
        nodes: 0,
    };
}

/// The row-intersection schedule's scratch, grow-only: for each minor row,
/// the list of selected slices that store it, newest first.
#[derive(Clone, Debug, Default)]
struct RowLists {
    /// Per minor row, its entry — [`Row::EMPTY`] between builds: a build
    /// empties the rows it filled before it returns.
    rows: Vec<Row>,
    /// Per node, in push order: slice by slice, each slice's rows
    /// ascending. Sized for the largest build so far; the current build's
    /// nodes are the first `len`.
    nodes: Vec<Node>,
    len: usize,
    /// The nodes, in push order, that found an older node on their row —
    /// the only ones the walk visits — then one spare slot: every node is
    /// written at the cursor, which advances past it only if it has a
    /// partner. The current build's are the first `met`.
    partnered: Vec<u32>,
    met: usize,
    /// Per slice, its diagonal `norm_sq`, summed while its nodes are
    /// pushed.
    diag: Vec<f64>,
}

impl RowLists {
    /// Put every selected nonzero on its row's list and return the pairs
    /// of selected nonzeros that share a row — `Σᵢ rᵢ(rᵢ−1)/2`, the pair
    /// updates [`Self::gram_into`] will make. Each node reads and writes
    /// its row's entry once, with no test, and the same pass sums the
    /// slice's diagonal. The slices' `u32` fields must fit
    /// ([`SparseCost::of`] rules out data where they would not).
    fn build(&mut self, slices: &[SparseSlice<'_>], minor: usize) -> u64 {
        if self.rows.len() < minor {
            self.rows.resize(minor, Row::EMPTY);
        }
        self.len = slices.iter().map(|s| s.nnz()).sum();
        if self.nodes.len() < self.len {
            self.nodes.resize(self.len, Node::default());
        }
        if self.partnered.len() <= self.len {
            self.partnered.resize(self.len + 1, NO_NODE);
        }
        self.diag.clear();
        let (rows, mut free) = (&mut self.rows[..minor], &mut self.nodes[..self.len]);
        let partnered = &mut self.partnered[..=self.len];
        let (mut pairs, mut id, mut met) = (0u64, 0u32, 0usize);
        for (b, s) in slices.iter().enumerate() {
            let (mine, rest) = std::mem::take(&mut free).split_at_mut(s.nnz());
            free = rest;
            // `norm_sq`'s chain: the same products in the same order,
            // folded from `−0.0` as `.sum()` folds.
            let mut diag = -0.0;
            for ((node, &i), &value) in mine.iter_mut().zip(s.indices).zip(s.values) {
                let row = &mut rows[i];
                pairs += u64::from(row.nodes);
                partnered[met] = id;
                met += usize::from(row.nodes != 0);
                *node = Node {
                    slice: b as u32,
                    older: row.newest,
                    value,
                };
                *row = Row {
                    newest: id,
                    nodes: row.nodes + 1,
                };
                id += 1;
                diag += value * value;
            }
            self.diag.push(diag);
        }
        self.met = met;
        // Empty what this build filled, so the next one starts clean
        // whether or not this one's lists are walked.
        for s in slices {
            for &i in s.indices {
                rows[i] = Row::EMPTY;
            }
        }
        pairs
    }

    /// The row-intersection schedule on the lists [`Self::build`] made of
    /// `slices`, into `g` (`k×k`, row-major, all `+0.0`): each node, in push
    /// order, meets every older node on its row and adds the product to
    /// both halves of that pair. A pair's addends therefore arrive in the
    /// later slice's ascending row order — the module doc's argument — and
    /// every entry is the lane blocks' bit for bit. One scalar chain per
    /// entry and one build: there are no lanes to widen.
    fn gram_into(&self, slices: &[SparseSlice<'_>], g: &mut [f64]) {
        let k = slices.len();
        debug_assert_eq!(
            (self.len, self.diag.len()),
            (slices.iter().map(|s| s.nnz()).sum::<usize>(), k),
            "lists built from other slices"
        );
        for (b, &d) in self.diag.iter().enumerate() {
            g[b * k + b] = d;
        }
        for &id in &self.partnered[..self.met] {
            let node = self.nodes[id as usize];
            let b = node.slice as usize;
            let mut n = node.older;
            while n != NO_NODE {
                let partner = self.nodes[n as usize];
                let a = partner.slice as usize;
                let p = node.value * partner.value;
                g[a * k + b] += p;
                g[b * k + a] += p;
                n = partner.older;
            }
        }
    }
}

/// Reusable scratch for the sampled-Gram kernel: per worker, the
/// *interleaved* buffers holding [`simd::SPARSE_LANES`] selected slices
/// side by side, and the row-intersection lists. Creating them per call
/// costs an `O(minor_len)` zero-fill *and* an allocation; holding them
/// across calls makes repeated one-thread `sampled_gram` calls
/// allocation-free. A pooled call allocates only what spawning its
/// workers does — the same whatever its tile count. It also carries the
/// *resolved-slice* scratch: a kernel call looks each selected slice up
/// once ([`MajorSlices::slice`] may cost a search on an out-of-core
/// source) and the triangle runs on the borrowed slices alone.
#[derive(Clone, Debug, Default)]
pub struct GramWorkspace {
    /// One set of lane buffers per worker, indexed by worker; the first
    /// serves the serial path too.
    lanes: Vec<LaneBufs>,
    /// The row-intersection schedule's lists (it runs on one thread).
    rows: RowLists,
    /// Allocation for the resolved slices; empty between calls, so the
    /// `'static` is never the lifetime of a stored borrow.
    resolved: Vec<SparseSlice<'static>>,
}

impl GramWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The first `workers` sets of lane buffers, grow-only. A worker sizes
    /// its own with [`LaneBufs::work`] when it claims a tile.
    fn worker_bufs(&mut self, workers: usize) -> &mut [LaneBufs] {
        if self.lanes.len() < workers {
            self.lanes.resize_with(workers, Default::default);
        }
        &mut self.lanes[..workers]
    }

    /// Look up every selected slice once — `sel.len()` calls to
    /// [`MajorSlices::slice`] per kernel call, however many pair-dots
    /// follow — into the reusable buffer. Hand the buffer back with
    /// [`Self::recycle`] to keep its allocation.
    fn resolve<'m, M: MajorSlices>(&mut self, m: &'m M, sel: &[usize]) -> Vec<SparseSlice<'m>> {
        // `SparseSlice` is covariant, so the empty `'static` buffer
        // shortens to `'m` by plain subtyping.
        let mut slices: Vec<SparseSlice<'m>> = std::mem::take(&mut self.resolved);
        slices.extend(sel.iter().map(|&k| m.slice(k)));
        slices
    }

    fn recycle(&mut self, mut slices: Vec<SparseSlice<'_>>) {
        slices.clear();
        // SAFETY: the vector is empty, so no borrow outlives its source —
        // only the allocation is kept — and `SparseSlice<'a>` has the
        // same layout for every `'a`.
        self.resolved = unsafe {
            std::mem::transmute::<Vec<SparseSlice<'_>>, Vec<SparseSlice<'static>>>(slices)
        };
    }
}

/// The cost of one row-intersection step — a list push or a pair update,
/// scattered scalar loads and stores — in scatter-schedule lane
/// multiply-adds, which stream. Calibrated by the ignored test
/// `calibrate_intersection_cost` (tables in docs/PERFORMANCE.md §"Sparse
/// slices" and §"Row lists, one entry per row"): per-shape fits spread
/// 5–22, and 10 sits in the window where the choice picks the faster
/// schedule on every shape measured (uniform 10 % columns need more than
/// 8.4; rcv1 rows, where row intersection beats scatter, less than 10.8).
/// Either schedule gives the same bits, so this only decides speed.
const INTERSECTION_COST: u64 = 10;

/// What the choice between the sparse schedules reads first, from the
/// selected slices' `nnz` and the minor length alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SparseCost {
    /// `N = Σ nnz_b`: the nodes row intersection pushes.
    nnz: u64,
    /// `E ≈ (N² − Σ nnz_b²) / (2·minor_len)`: its pair updates, were rows
    /// hit uniformly. Saturated where its nodes would not fit their `u32`
    /// fields, which rules it out before any list is built.
    pairs: u64,
    /// The scatter schedule's lane multiply-adds: slice `b` streams against
    /// each of the `⌈b/LANES⌉` earlier lane blocks, all
    /// [`simd::SPARSE_LANES`] lanes at once.
    lane_macs: u64,
}

impl SparseCost {
    fn of(slices: &[SparseSlice<'_>], minor: usize) -> Self {
        const L: u64 = simd::SPARSE_LANES as u64;
        let (mut nnz, mut squares, mut lane_macs) = (0u64, 0u128, 0u64);
        for (b, s) in slices.iter().enumerate() {
            let z = s.nnz() as u64;
            nnz += z;
            squares += u128::from(z) * u128::from(z);
            lane_macs += L * z * (b as u64).div_ceil(L);
        }
        let fits = minor < NO_NODE as usize && nnz < u64::from(NO_NODE);
        let pairs = if fits {
            let n = u128::from(nnz);
            ((n * n - squares) / (2 * minor.max(1) as u128)) as u64
        } else {
            u64::MAX
        };
        Self {
            nnz,
            pairs,
            lane_macs,
        }
    }

    /// Whether row intersection beats the scatter schedule if it makes
    /// `pairs` pair updates: `c·(N + pairs)` below the lane multiply-adds.
    fn intersection_wins(&self, pairs: u64) -> bool {
        INTERSECTION_COST.saturating_mul(self.nnz.saturating_add(pairs)) < self.lane_macs
    }
}

/// The schedule one call runs (module doc).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Schedule {
    Full,
    Scatter,
    Intersection,
}

impl Schedule {
    /// The data's choice (module doc): full slices take the full-slice
    /// schedule; other data row intersection when the estimated pairs say
    /// it wins *and* the exact count `rows` meets while building its lists
    /// agrees — so a call that picks it leaves the lists built.
    fn of(slices: &[SparseSlice<'_>], minor: usize, rows: &mut RowLists) -> Self {
        if slices.iter().all(|s| s.is_full(minor)) {
            return Schedule::Full;
        }
        let cost = SparseCost::of(slices, minor);
        if cost.intersection_wins(cost.pairs) && cost.intersection_wins(rows.build(slices, minor)) {
            Schedule::Intersection
        } else {
            Schedule::Scatter
        }
    }
}

/// Compute the Gram matrix `G[a][b] = ⟨slice(sel[a]), slice(sel[b])⟩` of the
/// sampled slices, exploiting symmetry (upper triangle computed, mirrored —
/// the paper's footnote-3 2× flop saving).
///
/// Cost: O(k · nnz(selected)) via a dense scatter workspace of minor length
/// at worst, O(nnz(selected) + common-row pairs) on power-law data.
/// Allocates the workspace and output; the SA hot loop should prefer
/// [`sampled_gram_into`] to reuse both.
pub fn sampled_gram<M: MajorSlices>(m: &M, sel: &[usize]) -> DenseMatrix {
    let mut g = DenseMatrix::zeros(0, 0);
    sampled_gram_into(m, sel, 1, &mut GramWorkspace::new(), &mut g);
    g
}

/// One lane block of the upper triangle — the lane-block schedules' loop
/// body, serial path and pool tile alike: rows `a0..a0 + aw` (`aw ≤`
/// [`simd::SPARSE_LANES`]) against every partner `b ≥ a0`. Entries go to
/// `put(a, b, v)`, `a ≤ b`, each exactly once.
///
/// `full` — every selected slice stores every coordinate — picks the
/// full-slice schedule over the scatter one; the per-entry arithmetic is
/// the module doc's contract either way. An entry's bits depend on its two
/// slices only, never on the block it sits in, the schedule that ran it or
/// the thread that computed it.
fn gram_lane_block(
    slices: &[SparseSlice<'_>],
    a0: usize,
    full: bool,
    work: &mut [f64],
    put: impl FnMut(usize, usize, f64),
) {
    if full {
        full_lane_block(slices, a0, work, put)
    } else {
        sparse_lane_block(slices, a0, work, put)
    }
}

/// The scatter schedule: the block's slices are scattered *interleaved*
/// (lane `l` of row `i` at `work[LANES·i + l]`), then one streaming pass
/// over each partner slice `b > a0` yields the entries `(a0 + l, b)` of
/// every lane at once — one contiguous cache-line-wide load per nonzero.
fn sparse_lane_block(
    slices: &[SparseSlice<'_>],
    a0: usize,
    work: &mut [f64],
    mut put: impl FnMut(usize, usize, f64),
) {
    const L: usize = simd::SPARSE_LANES;
    let k = slices.len();
    let aw = (k - a0).min(L);
    // Scatter the block's lanes and emit its diagonal entries.
    // Duplicate selections land in distinct lanes, so they coexist.
    for l in 0..aw {
        let sa = slices[a0 + l];
        for (&i, &v) in sa.indices.iter().zip(sa.values) {
            work[L * i + l] = v;
        }
        put(a0 + l, a0 + l, sa.norm_sq());
    }
    // Lanes l < b − a0 are the strictly-upper entries (a0 + l, b).
    for b in a0 + 1..k {
        let lw = (b - a0).min(aw);
        let sb = slices[b];
        let mut lanes = [0.0f64; L];
        simd::scatter_dot_lanes(sb.indices, sb.values, work, &mut lanes);
        for l in 0..lw {
            put(a0 + l, b, lanes[l]);
        }
    }
    // Un-scatter: restore the buffer's all-zeros invariant.
    for l in 0..aw {
        for &i in slices[a0 + l].indices {
            work[L * i + l] = 0.0;
        }
    }
}

/// The full-slice schedule. All slices share the index set `0..n`, so the
/// block's `values` are interleaved by contiguous copy — no index loads,
/// nothing to restore — and the partners `b ≥ a0` stream
/// [`simd::FULL_PARTNERS`] at a time, their chains independent. A slice of
/// the block is its own partner: lane `b − a0` of its pass is the chain of
/// `v·v` from `0.0`, which is `norm_sq` bit for bit.
fn full_lane_block(
    slices: &[SparseSlice<'_>],
    a0: usize,
    work: &mut [f64],
    mut put: impl FnMut(usize, usize, f64),
) {
    const P: usize = simd::FULL_PARTNERS;
    let k = slices.len();
    let aw = (k - a0).min(simd::SPARSE_LANES);
    if aw == 1 {
        // One slice, its own only partner (k = 1 is every classical
        // iteration): not worth an interleave and a four-partner pass.
        return put(a0, a0, slices[a0].norm_sq());
    }
    // Lanes past `aw` repeat slice k − 1; no entry reads them.
    simd::interleave_lanes(
        std::array::from_fn(|l| slices[(a0 + l).min(k - 1)].values),
        work,
    );
    for b0 in (a0..k).step_by(P) {
        // A ragged last group repeats slice k − 1; its lanes are dropped.
        let x = std::array::from_fn(|p| slices[(b0 + p).min(k - 1)].values);
        let dots = simd::full_dot_lanes(work, x);
        for (b, lanes) in (b0..k).zip(&dots) {
            // Lanes l ≤ b − a0 are the entries (a0 + l, b), diagonal included.
            for l in 0..(b - a0 + 1).min(aw) {
                put(a0 + l, b, lanes[l]);
            }
        }
    }
}

/// Fully workspace-reusing sampled Gram: writes into `out` (reshaped to
/// `k×k` in place) and, when `nthreads > 1` and the data takes a lane-block
/// schedule, hands the triangle's lane blocks to the `saco-par` pool as
/// tiles — one set of `ws`'s lane buffers per worker, each tile writing
/// its own rows of `out`. Bitwise identical to [`sampled_gram`] at any
/// thread count and on every schedule (module doc).
pub fn sampled_gram_into<M: MajorSlices>(
    m: &M,
    sel: &[usize],
    nthreads: usize,
    ws: &mut GramWorkspace,
    out: &mut DenseMatrix,
) {
    let slices = ws.resolve(m, sel);
    let minor = m.minor_len();
    let schedule = Schedule::of(&slices, minor, &mut ws.rows);
    gram_by(schedule, &slices, minor, nthreads, ws, out);
    ws.recycle(slices);
}

/// [`sampled_gram_into`] on the resolved slices, on `schedule` — for row
/// intersection, on the lists [`RowLists::build`] made of them.
fn gram_by(
    schedule: Schedule,
    slices: &[SparseSlice<'_>],
    minor: usize,
    nthreads: usize,
    ws: &mut GramWorkspace,
    out: &mut DenseMatrix,
) {
    const L: usize = simd::SPARSE_LANES;
    let k = slices.len();
    let ntiles = k.div_ceil(L);
    out.reshape_zeroed(k, k);
    let g = out.as_mut_slice();
    let full = match schedule {
        Schedule::Full => true,
        Schedule::Scatter => false,
        Schedule::Intersection => {
            let rows = &ws.rows;
            if nthreads <= 1 {
                rows.gram_into(slices, g);
            } else {
                // No tiles: a pool request counts one serial region, as
                // the lane blocks' own in-place width does, so `par.*`
                // keep counting pooled-kernel invocations.
                saco_par::serial_region(ntiles, || rows.gram_into(slices, g));
            }
            return;
        }
    };
    let tile = |bufs: &mut LaneBufs, t, rows: &mut [f64]| {
        lane_tile(slices, t, full, bufs.work(full, minor), rows)
    };
    let chunk = (L * k).max(1);
    if k < 4 || nthreads <= 1 {
        let bufs = &mut ws.worker_bufs(1)[0];
        for (t, rows) in g.chunks_mut(chunk).enumerate() {
            tile(bufs, t, rows);
        }
    } else {
        // Block a0 costs its scatter plus one pass (~2·nnz_b) per partner
        // b > a0, so the first tile is the heaviest and the pool's
        // in-order claiming is longest-first. The suffix-sum estimate of
        // the triangle's flops decides whether the Gram is cheaper than
        // spawning workers — in which case the blocks run in place.
        let (mut work, mut suffix) = (0u64, 0u64);
        for s in slices.iter().rev() {
            let nnz = s.nnz() as u64;
            suffix += 2 * nnz;
            work += nnz + suffix;
        }
        let bufs = ws.worker_bufs(nthreads.min(ntiles));
        saco_par::for_each_tile(g, chunk, work, bufs, tile);
    }
    mirror_upper(g, k);
}

/// Tile `t` of a lane-block schedule, serial or pooled: lane block
/// `a0 = t·LANES` writes the upper entries of rows `a0..a0 + LANES` of the
/// `k×k` Gram into `rows`, those rows' chunk of it.
fn lane_tile(slices: &[SparseSlice<'_>], t: usize, full: bool, work: &mut [f64], rows: &mut [f64]) {
    let (k, a0) = (slices.len(), t * simd::SPARSE_LANES);
    gram_lane_block(slices, a0, full, work, |a, b, v| rows[(a - a0) * k + b] = v);
}

/// Copy the upper triangle of the `k×k` row-major `g` onto the lower one,
/// so every off-diagonal entry is computed once.
fn mirror_upper(g: &mut [f64], k: usize) {
    for a in 0..k {
        for b in a + 1..k {
            g[b * k + a] = g[a * k + b];
        }
    }
}

/// Cross product `C[a][j] = ⟨slice(sel[a]), vs[j]⟩` for a small set of dense
/// vectors (e.g. `[ỹ, z̃]` in Alg. 2 line 12, or `x` in Alg. 4 line 10).
pub fn sampled_cross<M: MajorSlices>(m: &M, sel: &[usize], vs: &[&[f64]]) -> DenseMatrix {
    let mut c = DenseMatrix::zeros(0, 0);
    sampled_cross_into(m, sel, vs, &mut c);
    c
}

/// [`sampled_cross`] into a caller-owned output matrix (reshaped in
/// place), so the SA hot loop reuses one allocation across outer
/// iterations.
pub fn sampled_cross_into<M: MajorSlices>(
    m: &M,
    sel: &[usize],
    vs: &[&[f64]],
    out: &mut DenseMatrix,
) {
    // Validate each vector once, not once per selected slice.
    for v in vs {
        assert_eq!(
            v.len(),
            m.minor_len(),
            "cross-product vector length mismatch"
        );
    }
    out.reshape_zeroed(sel.len(), vs.len());
    const P: usize = simd::FULL_PARTNERS;
    let minor = m.minor_len();
    for (g, group) in sel.chunks(P).enumerate() {
        // Each selected slice is looked up once; a ragged group's spare
        // seats repeat its first slice and their dots are dropped.
        let mut seats = [m.slice(group[0]); P];
        for (seat, &s) in seats.iter_mut().zip(group).skip(1) {
            *seat = m.slice(s);
        }
        let rows = g * P..g * P + group.len();
        if group.len() > 1 && seats.iter().all(|s| s.is_full(minor)) {
            // Full slices share the index set `0..minor`: their
            // `dot_dense` chains run side by side, no index loads.
            let x = seats.map(|s| s.values);
            for (j, v) in vs.iter().enumerate() {
                for (a, dot) in rows.clone().zip(simd::multi_dot(x, v)) {
                    out.set(a, j, dot);
                }
            }
        } else {
            for (a, sl) in rows.zip(&seats) {
                if let [u, v] = vs {
                    // Lasso's `[ỹ, z̃]`: both chains in one index pass.
                    let (du, dv) = sl.dot_dense2(u, v);
                    out.set(a, 0, du);
                    out.set(a, 1, dv);
                } else {
                    for (j, v) in vs.iter().enumerate() {
                        out.set(a, j, sl.dot_dense(v));
                    }
                }
            }
        }
    }
}

/// The model's flop count `F` of one sampled Gram, as the scatter schedule
/// is priced — not the operations any schedule executes (row intersection
/// does far fewer on sparse data, the full-slice block the same number
/// faster). For the slice at triangle position `b` (0-based), `norm_sq` on
/// the diagonal costs `2·nnz_b` and each of the `b` pair-dots against an
/// earlier scattered slice iterates *this* slice's nonzeros (`2·nnz_b`
/// each) — so position `b` is charged `2·nnz_b·(b + 1)`. The ledger's
/// `gram.flops` and `gram.gflops` are this count, so a rate can exceed the
/// hardware's.
///
/// For uniform slice density this sums to `nnz(selected)·(k + 1)`,
/// matching the aggregate per-rank charge in `saco::charges`
/// (`gram_flops = local_nnz·(width + 1)`): both account the upper
/// triangle only — the paper's footnote-3 2× saving over the full
/// `2·k·nnz` rectangular product.
pub fn gram_flops<M: MajorSlices>(m: &M, sel: &[usize]) -> u64 {
    sel.iter()
        .enumerate()
        .map(|(b, &s)| 2 * m.slice(s).nnz() as u64 * (b as u64 + 1))
        .sum()
}

/// Flop count of a sampled cross product.
pub fn cross_flops<M: MajorSlices>(m: &M, sel: &[usize], nvecs: usize) -> u64 {
    sel.iter()
        .map(|&s| 2 * m.slice(s).nnz() as u64 * nvecs as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use xrng::rng_from_seed;

    fn random_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> CooMatrix {
        let mut rng = rng_from_seed(seed);
        let mut coo = CooMatrix::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if rng.next_bool(density) {
                    coo.push(i, j, rng.next_gaussian());
                }
            }
        }
        coo
    }

    #[test]
    fn csc_sampled_gram_matches_dense_reference() {
        let coo = random_sparse(40, 25, 0.3, 1);
        let csc = coo.to_csc();
        let sel = vec![3, 17, 0, 9, 24];
        let g = sampled_gram(&csc, &sel);
        let d = csc.to_dense();
        for a in 0..5 {
            for b in 0..5 {
                let expect: f64 = (0..40).map(|i| d.get(i, sel[a]) * d.get(i, sel[b])).sum();
                assert!(
                    (g.get(a, b) - expect).abs() < 1e-10,
                    "mismatch at ({a},{b})"
                );
            }
        }
        // Bitwise symmetric: the upper triangle is mirrored, not recomputed.
        assert!((0..5).all(|a| (0..5).all(|b| g.get(a, b).to_bits() == g.get(b, a).to_bits())));
    }

    #[test]
    fn csr_sampled_gram_is_row_gram() {
        let coo = random_sparse(30, 50, 0.2, 2);
        let csr = coo.to_csr();
        let sel = vec![5, 5, 12]; // repeated row allowed (SVM samples with replacement)
        let g = sampled_gram(&csr, &sel);
        let d = csr.to_dense();
        for a in 0..3 {
            for b in 0..3 {
                let expect: f64 = (0..50).map(|j| d.get(sel[a], j) * d.get(sel[b], j)).sum();
                assert!((g.get(a, b) - expect).abs() < 1e-10);
            }
        }
        // repeated slice => identical rows/cols in G
        assert!((g.get(0, 0) - g.get(1, 1)).abs() < 1e-15);
        assert!((g.get(0, 2) - g.get(1, 2)).abs() < 1e-15);
    }

    #[test]
    fn sampled_cross_matches_dense() {
        let coo = random_sparse(40, 25, 0.25, 3);
        let csc = coo.to_csc();
        let mut rng = rng_from_seed(4);
        let v1: Vec<f64> = (0..40).map(|_| rng.next_gaussian()).collect();
        let v2: Vec<f64> = (0..40).map(|_| rng.next_gaussian()).collect();
        let sel = vec![2, 11, 20];
        let c = sampled_cross(&csc, &sel, &[&v1, &v2]);
        let d = csc.to_dense();
        for (a, &j) in sel.iter().enumerate() {
            let e1: f64 = (0..40).map(|i| d.get(i, j) * v1[i]).sum();
            let e2: f64 = (0..40).map(|i| d.get(i, j) * v2[i]).sum();
            assert!((c.get(a, 0) - e1).abs() < 1e-10);
            assert!((c.get(a, 1) - e2).abs() < 1e-10);
        }
    }

    #[test]
    fn empty_selection_gives_empty_gram() {
        let csc = random_sparse(10, 10, 0.5, 5).to_csc();
        let g = sampled_gram(&csc, &[]);
        assert_eq!((g.rows(), g.cols()), (0, 0));
    }

    #[test]
    fn gram_is_positive_semidefinite() {
        // xᵀGx = ‖A_S x‖² ≥ 0 for random x.
        let csc = random_sparse(60, 30, 0.2, 6).to_csc();
        let sel = vec![1, 4, 9, 16, 25];
        let g = sampled_gram(&csc, &sel);
        let mut rng = rng_from_seed(7);
        for _ in 0..20 {
            let x: Vec<f64> = (0..5).map(|_| rng.next_gaussian()).collect();
            let gx = g.gemv(&x);
            let q = crate::vecops::dot(&x, &gx);
            assert!(q >= -1e-10, "Gram quadratic form negative: {q}");
        }
    }

    #[test]
    fn flop_counters_are_positive_and_scale() {
        let csc = random_sparse(60, 30, 0.2, 8).to_csc();
        let f1 = gram_flops(&csc, &[0, 1]);
        let f2 = gram_flops(&csc, &[0, 1, 2, 3]);
        assert!(f2 > f1, "more samples must cost more flops");
        assert!(cross_flops(&csc, &[0, 1], 2) > 0);
    }

    #[test]
    fn gram_flops_charge_the_triangle_exactly() {
        // Position b pays 2·nnz_b·(b+1): its norm_sq diagonal plus the b
        // pair-dots that iterate its nonzeros against earlier scattered
        // slices. Pin it on a matrix with known column counts.
        let mut coo = CooMatrix::new(6, 3);
        for i in 0..2 {
            coo.push(i, 0, 1.0); // col 0: nnz 2
        }
        for i in 0..3 {
            coo.push(i, 1, 1.0); // col 1: nnz 3
        }
        for i in 0..5 {
            coo.push(i, 2, 1.0); // col 2: nnz 5
        }
        let csc = coo.to_csc();
        // sel = [2, 0, 1] → 2·5·1 + 2·2·2 + 2·3·3 = 10 + 8 + 18
        assert_eq!(gram_flops(&csc, &[2, 0, 1]), 36);
        // Uniform-nnz aggregate matches local_nnz·(k+1), the virtual
        // cluster's charge formula.
        let uni = random_sparse(40, 8, 1.0, 9).to_csc(); // dense => nnz 40 per col
        let sel: Vec<usize> = (0..8).collect();
        assert_eq!(gram_flops(&uni, &sel), 40 * 8 * (8 + 1));
    }

    /// The sampled Gram as the per-entry contract states it: entry (a, b)
    /// is slice b's single `dot_dense` chain against slice a alone,
    /// densified; diagonals are `norm_sq`.
    fn reference_gram(slices: &[SparseSlice<'_>], minor: usize) -> DenseMatrix {
        let k = slices.len();
        let mut g = DenseMatrix::zeros(k, k);
        for a in 0..k {
            let mut dense = vec![0.0; minor];
            for (&i, &v) in slices[a].indices.iter().zip(slices[a].values) {
                dense[i] = v;
            }
            g.set(a, a, slices[a].norm_sq());
            for b in a + 1..k {
                let v = slices[b].dot_dense(&dense);
                g.set(a, b, v);
                g.set(b, a, v);
            }
        }
        g
    }

    fn bits(g: &DenseMatrix) -> Vec<u64> {
        g.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs the pooled path's tiles by hand — no work heuristic, no CPU
    /// clamp, no threads: every lane block through [`lane_tile`] on its
    /// chunk of `G`, on one of three worker buffers, in a shuffled order,
    /// then [`mirror_upper`].
    fn tiles_and_merge_match_reference<M: MajorSlices>(m: &M, ws: &mut GramWorkspace, seed: u64) {
        let mut rng = rng_from_seed(seed);
        let minor = m.minor_len();
        for k in 1..=40usize {
            let mut sel: Vec<usize> = (0..k).map(|_| rng.next_index(m.major_len())).collect();
            if k >= 2 {
                sel[1] = sel[0]; // a duplicate inside a lane block …
                sel[k - 1] = sel[0]; // … and, from k = 9, across blocks
            }
            let slices = ws.resolve(m, &sel);
            let want = reference_gram(&slices, minor);
            let full = slices.iter().all(|s| s.is_full(minor));
            let mut got = DenseMatrix::zeros(k, k);
            let mut tiles: Vec<_> = got
                .as_mut_slice()
                .chunks_mut(simd::SPARSE_LANES * k)
                .enumerate()
                .collect();
            xrng::shuffle(&mut rng, &mut tiles);
            let bufs = ws.worker_bufs(3);
            for (t, rows) in tiles {
                lane_tile(&slices, t, full, bufs[t % 3].work(full, minor), rows);
            }
            mirror_upper(got.as_mut_slice(), k);
            assert_eq!(bits(&got), bits(&want), "k={k}: tiles + mirror");
            ws.recycle(slices);
            // The entry points run the same blocks; 4 threads at this
            // size is the counted in-place width.
            for threads in [1usize, 4] {
                sampled_gram_into(m, &sel, threads, ws, &mut got);
                assert_eq!(bits(&got), bits(&want), "k={k} threads={threads}");
            }
            for (w, buf) in ws.worker_bufs(3).iter().enumerate() {
                assert!(
                    buf.scattered.as_slice().iter().all(|&v| v.to_bits() == 0),
                    "k={k}: worker buffer {w} not restored to zeros"
                );
            }
        }
    }

    #[test]
    fn lane_block_tiles_merge_to_the_single_chain_reference_bitwise() {
        // Every fifth column and row is empty. One workspace serves both
        // layouts, so its buffers shrink from minor 60 to 45 between them.
        let mut coo = CooMatrix::new(60, 45);
        let mut rng = rng_from_seed(20);
        for i in (0..60).filter(|i| i % 5 != 2) {
            for j in (0..45).filter(|j| j % 5 != 3) {
                if rng.next_bool(0.3) {
                    coo.push(i, j, rng.next_gaussian());
                }
            }
        }
        let mut ws = GramWorkspace::new();
        tiles_and_merge_match_reference(&coo.to_csc(), &mut ws, 21);
        // A matrix of full slices in between runs the full-slice schedule
        // in buffers of its own; the scatter buffers stay all zeros under
        // it and serve the sparse matrix again afterwards.
        let dense = random_sparse(37, 12, 1.0, 23).to_csc();
        tiles_and_merge_match_reference(&dense, &mut ws, 24);
        assert_eq!(ws.lanes[0].full.len(), simd::SPARSE_LANES * 37);
        tiles_and_merge_match_reference(&coo.to_csr(), &mut ws, 22);
        // The entry points' 4-thread calls ran in place: the fourth
        // worker's buffers were never claimed, so never sized.
        assert_eq!(ws.lanes.len(), 4);
        assert!(ws.lanes[3].full.is_empty() && ws.lanes[3].scattered.is_empty());
    }

    /// `major` slices over `minor` coordinates, each coordinate stored with
    /// probability `density`, every seventh slice empty (`norm_sq`'s `−0.0`
    /// diagonal); stored values include `0.0`, `−0.0` and subnormals.
    fn odd_values_csr(major: usize, minor: usize, density: f64, seed: u64) -> CsrMatrix {
        let mut rng = rng_from_seed(seed);
        let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
        for r in 0..major {
            for i in 0..minor {
                if r % 7 != 3 && rng.next_bool(density) {
                    indices.push(i);
                    values.push(match rng.next_index(8) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => f64::from_bits(1 + rng.next_index(1 << 20) as u64),
                        _ => rng.next_gaussian(),
                    });
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_parts(major, minor, indptr, indices, values)
    }

    #[test]
    fn both_sparse_schedules_match_the_single_chain_reference_bitwise() {
        // Each selection through scatter and through row intersection,
        // forced; duplicates inside and across lane blocks. One workspace
        // serves a long minor axis, then a short one, then the long one
        // again, so row lists meet heads left by earlier calls.
        let long = odd_values_csr(90, 400, 0.02, 30);
        let short = odd_values_csr(60, 50, 0.3, 32);
        let mut ws = GramWorkspace::new();
        for (m, seed) in [(&long, 31), (&short, 33), (&long, 34)] {
            let mut rng = rng_from_seed(seed);
            for k in [1usize, 2, 9, 40, 130] {
                let mut sel: Vec<usize> = (0..k).map(|_| rng.next_index(m.major_len())).collect();
                sel[k / 2] = sel[0];
                sel[k - 1] = 3; // an empty slice
                let slices = ws.resolve(m, &sel);
                let want = bits(&reference_gram(&slices, m.minor_len()));
                ws.rows.build(&slices, m.minor_len());
                for schedule in [Schedule::Scatter, Schedule::Intersection] {
                    let mut got = DenseMatrix::zeros(0, 0);
                    gram_by(schedule, &slices, m.minor_len(), 1, &mut ws, &mut got);
                    assert_eq!(bits(&got), want, "k={k} {schedule:?}");
                    let empty = got.get(k - 1, k - 1).to_bits();
                    assert_eq!(empty, slices[k - 1].norm_sq().to_bits(), "{schedule:?}");
                }
                ws.recycle(slices);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]
        /// Row intersection ≡ scatter ≡ the single-chain reference, bit for
        /// bit, over a sequence of calls on one workspace: the minor length
        /// changes from call to call, selections repeat slices and hold
        /// empty ones (`−0.0` diagonals), and some calls first build the
        /// lists of another selection and leave them unwalked, as a build
        /// the exact pair count refuses is left.
        #[test]
        fn row_intersection_is_scatter_across_a_workspace_s_calls(
            seed in proptest::prelude::any::<u64>(),
            calls in 1usize..8,
        ) {
            let mut rng = rng_from_seed(seed);
            let mut ws = GramWorkspace::new();
            for call in 0..calls as u64 {
                let (major, minor) = (1 + rng.next_index(60), 1 + rng.next_index(600));
                let density = [0.002, 0.02, 0.1, 0.4][rng.next_index(4)];
                let m = odd_values_csr(major, minor, density, seed ^ call);
                let mut draw = |k: usize| -> Vec<usize> {
                    (0..k).map(|_| rng.next_index(major)).collect()
                };
                let (sel, other) = (draw(1 + call as usize * 7), draw(20));
                if call % 2 == 1 {
                    let refused = ws.resolve(&m, &other);
                    ws.rows.build(&refused, minor);
                    ws.recycle(refused);
                }
                let slices = ws.resolve(&m, &sel);
                let want = bits(&reference_gram(&slices, minor));
                ws.rows.build(&slices, minor);
                let mut got = DenseMatrix::zeros(0, 0);
                for schedule in [Schedule::Intersection, Schedule::Scatter] {
                    gram_by(schedule, &slices, minor, 1, &mut ws, &mut got);
                    proptest::prop_assert_eq!(bits(&got), want, "call {} {:?}", call, schedule);
                }
                ws.recycle(slices);
                sampled_gram_into(&m, &sel, 1, &mut ws, &mut got);
                proptest::prop_assert_eq!(bits(&got), want, "call {} entry point", call);
            }
        }
    }

    /// `datagen` builds its matrices against its own build of this crate,
    /// whose types these tests cannot name: copy one over, row by row.
    macro_rules! from_datagen {
        ($m:expr) => {{
            let m = $m;
            let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
            for r in 0..m.rows() {
                let s = m.row(r);
                indices.extend_from_slice(s.indices);
                values.extend_from_slice(s.values);
                indptr.push(indices.len());
            }
            CsrMatrix::from_parts(m.rows(), m.cols(), indptr, indices, values)
        }};
    }

    #[test]
    fn the_data_picks_the_schedule() {
        let mut rows = RowLists::default();
        let mut pick = |m: &CsrMatrix, sel: &[usize]| {
            let slices: Vec<_> = sel.iter().map(|&k| m.slice(k)).collect();
            Schedule::of(&slices, m.minor_len(), &mut rows)
        };
        let wide: Vec<usize> = (0..128).collect();
        // Few nonzeros on a long minor axis: few shared rows.
        let rare = odd_values_csr(128, 4000, 0.002, 40);
        assert_eq!(pick(&rare, &wide), Schedule::Intersection);
        // Dense-ish: most products meet a stored partner.
        assert_eq!(
            pick(&odd_values_csr(128, 60, 0.3, 41), &wide),
            Schedule::Scatter
        );
        // The same slices plus forty rows that every slice stores, as
        // popular features are in rows of power-law data: the estimate
        // still says intersection, the exact count the build meets does
        // not.
        let mut shared = CooMatrix::new(128, 4001);
        for r in 0..128 {
            let s = rare.slice(r);
            for (&i, &v) in s.indices.iter().zip(s.values) {
                if v != 0.0 {
                    shared.push(r, i, v);
                }
            }
            for i in 0..40 {
                shared.push(r, 4000 - i, 1.0);
            }
        }
        let shared = shared.to_csr();
        let slices: Vec<_> = wide.iter().map(|&k| shared.slice(k)).collect();
        let cost = SparseCost::of(&slices, shared.minor_len());
        assert!(cost.intersection_wins(cost.pairs), "{cost:?}");
        assert_eq!(pick(&shared, &wide), Schedule::Scatter);
        // One slice has no partner to stream against.
        assert_eq!(
            pick(&odd_values_csr(8, 4000, 0.002, 42), &[0]),
            Schedule::Scatter
        );
        let full = random_sparse(4, 30, 1.0, 43).to_csr();
        assert_eq!(pick(&full, &[0, 1, 2, 3]), Schedule::Full);
        // Criterion's `simd_sampled_gram_64` scalar → auto sweep must time
        // the scatter schedule: row intersection has one build.
        let sweep = from_datagen!(datagen::uniform_sparse(4_000, 1_000, 0.1, 37)).to_csc();
        let mut rng = rng_from_seed(44);
        for _ in 0..8 {
            let sel = xrng::sample_without_replacement(&mut rng, 1_000, 64);
            let slices: Vec<_> = sel.iter().map(|&k| sweep.slice(k)).collect();
            let schedule = Schedule::of(&slices, sweep.minor_len(), &mut rows);
            assert_eq!(schedule, Schedule::Scatter);
        }
    }

    /// One row of [`calibrate_intersection_cost`]'s table.
    fn calibration_row<M: MajorSlices>(name: &str, m: &M, k: usize) {
        const DRAWS: usize = 64;
        let minor = m.minor_len();
        let mut rng = rng_from_seed(36);
        let sels: Vec<Vec<usize>> = (0..DRAWS)
            .map(|_| xrng::sample_without_replacement(&mut rng, m.major_len(), k))
            .collect();
        // `None` is the entry point; a schedule is forced.
        let run = |sel: &[usize], on: Option<(Schedule, usize)>, ws: &mut GramWorkspace| {
            let mut out = DenseMatrix::zeros(0, 0);
            let Some((schedule, threads)) = on else {
                sampled_gram_into(m, sel, 1, ws, &mut out);
                return out;
            };
            let slices = ws.resolve(m, sel);
            if schedule == Schedule::Intersection {
                ws.rows.build(&slices, minor);
            }
            gram_by(schedule, &slices, minor, threads, ws, &mut out);
            ws.recycle(slices);
            out
        };
        let mut ws = GramWorkspace::new();
        let (mut nnz, mut est, mut exact, mut macs, mut picks) = (0u64, 0u64, 0u64, 0u64, 0usize);
        for sel in &sels {
            let want = bits(&run(sel, Some((Schedule::Scatter, 1)), &mut ws));
            let got = run(sel, Some((Schedule::Intersection, 1)), &mut ws);
            assert_eq!(bits(&got), want, "{name}: row intersection ≢ scatter");
            assert_eq!(bits(&run(sel, None, &mut ws)), want, "{name}: entry point");
            let slices = ws.resolve(m, sel);
            let cost = SparseCost::of(&slices, minor);
            nnz += cost.nnz;
            est += cost.pairs;
            macs += cost.lane_macs;
            exact += ws.rows.build(&slices, minor);
            let schedule = Schedule::of(&slices, minor, &mut ws.rows);
            picks += usize::from(schedule == Schedule::Intersection);
            ws.recycle(slices);
        }
        // Enough passes over the draws that scatter runs ~20 ms; best of
        // five, the four sides alternated within every rep.
        let passes = (2e7 / macs as f64).ceil() as usize;
        let sides = [
            Some((Schedule::Scatter, 1)),
            Some((Schedule::Intersection, 1)),
            None,
            Some((Schedule::Scatter, 4)),
        ];
        let mut wss: [GramWorkspace; 4] = Default::default();
        let mut walls = [f64::INFINITY; 4];
        for _ in 0..5 {
            for ((wall, ws), on) in walls.iter_mut().zip(&mut wss).zip(sides) {
                let t0 = std::time::Instant::now();
                for _ in 0..passes {
                    for sel in &sels {
                        std::hint::black_box(run(sel, on, ws));
                    }
                }
                *wall = wall.min(t0.elapsed().as_secs_f64());
            }
        }
        let [scatter, inter, entry, pooled] = walls.map(|w| w * 1e6 / (passes * DRAWS) as f64);
        let mean = |x: u64| x as f64 / DRAWS as f64;
        let c_fit = (inter / (mean(nnz) + mean(exact))) / (scatter / mean(macs));
        let choice = match picks {
            0 => "scatter".to_string(),
            DRAWS => "intersection".to_string(),
            p => format!("intersection {p}/{DRAWS}"),
        };
        println!(
            "| {name} | {k} | {:.0} | {:.0} | {:.0} | {:.0} | {choice} | {scatter:.1} | {inter:.1} | {:.2}× | {:.2}× | {pooled:.1} | {c_fit:.0} |",
            mean(nnz),
            mean(est),
            mean(exact),
            mean(macs),
            inter / scatter,
            entry / scatter,
        );
    }

    /// The table `INTERSECTION_COST` is calibrated from
    /// (docs/PERFORMANCE.md §"Sparse slices"): the benchmark's sparse
    /// shapes and shapes on both sides of the choice, 64 random selections
    /// each, one thread. Per shape: the means of `N`, the estimated and the
    /// exact pairs and the scatter schedule's lane multiply-adds; the
    /// choice; µs per call of scatter and of row intersection forced, of
    /// the entry point (choice included) and of scatter on a four-thread
    /// pool; and "c fit", the `c` that would make the choice exact there —
    /// intersection time per `N + E` step over scatter time per lane
    /// multiply-add. Every side is asserted bitwise equal to forced
    /// scatter. It measures walls, so it is not part of the suite:
    /// `cargo test --release -p sparsela --lib calibrate -- --ignored --nocapture`.
    #[test]
    #[ignore = "wall-clock calibration table, run by hand"]
    fn calibrate_intersection_cost() {
        use datagen::{powerlaw_sparse, uniform_sparse, PaperDataset};
        println!(
            "\n| shape | k | N | E est. | E exact | lane MACs | choice | scatter | intersection | ratio | entry ÷ scatter | scatter, pool of 4 | c fit |\n\
             |---|---|---|---|---|---|---|---|---|---|---|---|---|"
        );
        let news20 = from_datagen!(PaperDataset::News20.generate_matrix(4.0, 808));
        let half = news20.row_block(0, news20.rows() / 2).to_csc();
        let news20 = news20.to_csc();
        calibration_row("news20 ×4 cols", &news20, 128);
        calibration_row("news20 ×4 cols", &news20, 256);
        calibration_row("news20 ×4 cols", &news20, 32);
        calibration_row("news20 ×4 rank-0 half", &half, 32);
        drop((news20, half));
        let stream = from_datagen!(powerlaw_sparse(100_000, 200_000, 2e-4, 1.0, 808)).to_csc();
        calibration_row("lasso_stream cols", &stream, 256);
        drop(stream);
        let rcv1 = from_datagen!(PaperDataset::Rcv1Binary.generate_matrix(1.0, 808));
        calibration_row("rcv1.binary rows", &rcv1, 128);
        let uniform1 = from_datagen!(uniform_sparse(20_000, 4_000, 0.01, 32)).to_csc();
        calibration_row("uniform 1 % cols", &uniform1, 256);
        let tens = from_datagen!(uniform_sparse(10_000, 4_000, 0.001, 38)).to_csc();
        calibration_row("10-nnz cols", &tens, 256);
        let uniform10 = from_datagen!(uniform_sparse(4_000, 1_000, 0.1, 37)).to_csc();
        calibration_row("uniform 10 % cols", &uniform10, 64);
        let covtype = from_datagen!(PaperDataset::Covtype.generate_matrix(0.1, 808));
        calibration_row("covtype rows", &covtype, 128);
    }

    /// `s` blocks of `mu` distinct slices each, drawn as the Lasso solvers
    /// draw one outer iteration's selection.
    fn solver_draw(rng: &mut xrng::Rng, n: usize, mu: usize, s: usize) -> Vec<usize> {
        let mut sel = Vec::with_capacity(mu * s);
        for _ in 0..s {
            xrng::sample_without_replacement_into(rng, n, mu, &mut sel);
        }
        sel
    }

    /// One row of [`gram_phases_on_the_solver_shapes`]: µs per call of
    /// each phase of a row-intersection `sampled_gram_into`, best of three
    /// passes over the same draws.
    fn phase_row<M: MajorSlices>(name: &str, m: &M, mu: usize, s: usize) {
        const CALLS: usize = 5_000;
        let minor = m.minor_len();
        let mut rng = rng_from_seed(808);
        let sels: Vec<Vec<usize>> = (0..CALLS)
            .map(|_| solver_draw(&mut rng, m.major_len(), mu, s))
            .collect();
        let (mut ws, mut out) = (GramWorkspace::new(), DenseMatrix::zeros(0, 0));
        let (mut nodes, mut pairs, mut picks) = (0usize, 0u64, 0usize);
        for sel in &sels {
            let slices = ws.resolve(m, sel);
            nodes += slices.iter().map(|sl| sl.nnz()).sum::<usize>();
            pairs += ws.rows.build(&slices, minor);
            let schedule = Schedule::of(&slices, minor, &mut ws.rows);
            picks += usize::from(schedule == Schedule::Intersection);
            ws.recycle(slices);
        }
        let mut best = [f64::INFINITY; 5];
        for _ in 0..3 {
            let mut sum = [0.0f64; 5];
            for sel in &sels {
                let t0 = std::time::Instant::now();
                let slices = ws.resolve(m, sel);
                let t1 = std::time::Instant::now();
                ws.rows.build(&slices, minor);
                let t2 = std::time::Instant::now();
                out.reshape_zeroed(slices.len(), slices.len());
                let t3 = std::time::Instant::now();
                ws.rows.gram_into(&slices, out.as_mut_slice());
                let t4 = std::time::Instant::now();
                ws.recycle(slices);
                std::hint::black_box(out.get(0, 0));
                for (acc, (a, b)) in sum.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)]) {
                    *acc += (b - a).as_secs_f64();
                }
            }
            let t0 = std::time::Instant::now();
            for sel in &sels {
                sampled_gram_into(m, sel, 1, &mut ws, &mut out);
                std::hint::black_box(out.get(0, 0));
            }
            sum[4] = t0.elapsed().as_secs_f64();
            for (b, s) in best.iter_mut().zip(sum) {
                *b = b.min(s * 1e6 / CALLS as f64);
            }
        }
        let [resolve, build, zero, walk, entry] = best;
        let mean = |x: f64| x / CALLS as f64;
        println!(
            "| {name} | {} | {:.0} | {:.0} | {picks}/{CALLS} | {resolve:.2} | {build:.2} | {zero:.2} | {walk:.2} | {entry:.2} | {:.1} |",
            mu * s,
            mean(nodes as f64),
            mean(pairs as f64),
            build * 1e3 / mean(nodes as f64),
        );
    }

    /// Where a row-intersection call's time goes on the solver calls that
    /// take it (docs/PERFORMANCE.md §"Row lists, one entry per row"):
    /// `lasso_seq_sparse`'s k = 128 call (16 draws of µ = 8 news20 ×4
    /// columns), `lasso_net_sa`'s per-rank k = 32 call (32 draws of µ = 1
    /// on rank 0's half of the rows) and `lasso_stream`'s k = 256 call (64
    /// draws of µ = 4 on 100 000 rows). Per shape: mean nodes `N` and
    /// pairs `E`, how many calls the entry point ran as row intersection,
    /// and µs per call
    /// of resolving the slices, building the lists (with the diagonal),
    /// zero-filling `G`, the pair walk, and the entry point as a whole;
    /// last, the build's ns per node. It measures walls, so it is not part
    /// of the suite:
    /// `cargo test --release -p sparsela --lib gram_phases -- --ignored --nocapture`.
    #[test]
    #[ignore = "wall-clock phase table, run by hand"]
    fn gram_phases_on_the_solver_shapes() {
        use datagen::PaperDataset;
        println!(
            "\n| shape | k | N | E | intersection | resolve | build | zero-fill | walk | entry point | build ns/node |\n\
             |---|---|---|---|---|---|---|---|---|---|---|"
        );
        let news20 = from_datagen!(PaperDataset::News20.generate_matrix(4.0, 808));
        let half = news20.row_block(0, news20.rows() / 2).to_csc();
        phase_row("lasso_seq_sparse: news20 ×4 cols", &news20.to_csc(), 8, 16);
        phase_row("lasso_net_sa: rank-0 half cols", &half, 1, 32);
        drop((news20, half));
        let stream = from_datagen!(datagen::powerlaw_sparse(100_000, 200_000, 2e-4, 1.0, 808));
        phase_row("lasso_stream: cols", &stream.to_csc(), 4, 64);
    }

    /// Counts `slice` calls on the matrix it wraps.
    struct Counting<'a>(&'a CscMatrix, std::sync::atomic::AtomicUsize);

    impl MajorSlices for Counting<'_> {
        fn major_len(&self) -> usize {
            self.0.major_len()
        }
        fn minor_len(&self) -> usize {
            self.0.minor_len()
        }
        fn slice(&self, k: usize) -> SparseSlice<'_> {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.slice(k)
        }
    }

    #[test]
    fn kernels_look_each_selected_slice_up_once() {
        // A lookup may cost a search on an out-of-core source, so a block
        // pays for k of them per kernel, not one per pair-dot — and the
        // schedule choice reads the slices already looked up. The three
        // matrices take the scatter, full-slice and row-intersection
        // schedules.
        let sparse = random_sparse(120, 300, 0.1, 21).to_csc();
        let dense = random_sparse(120, 300, 1.0, 22).to_csc();
        let rare = random_sparse(2000, 300, 0.003, 23).to_csc();
        let sel: Vec<usize> = (0..256).map(|i| (i * 7) % 300).collect();
        for csc in [&sparse, &dense, &rare] {
            let v = vec![1.0; csc.rows()];
            for threads in [1usize, 4] {
                let counted = Counting(csc, Default::default());
                let (mut g, mut c) = (DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0));
                sampled_gram_into(&counted, &sel, threads, &mut GramWorkspace::new(), &mut g);
                sampled_cross_into(&counted, &sel, &[&v], &mut c);
                let calls = counted.1.into_inner();
                assert!(calls <= 3 * sel.len(), "threads={threads}: {calls} lookups");
                assert_eq!(g.as_slice(), sampled_gram(csc, &sel).as_slice());
            }
        }
    }

    #[test]
    fn workspace_variant_is_bitwise_identical_and_reusable() {
        let csc = random_sparse(50, 20, 0.3, 10).to_csc();
        let mut ws = GramWorkspace::new();
        let sel_a = vec![0, 3, 7, 11];
        let sel_b: Vec<usize> = (0..20).collect();
        // Reuse the same workspace across differently-shaped calls.
        for sel in [&sel_a, &sel_b, &sel_a] {
            let fresh = sampled_gram(&csc, sel);
            let mut reused = DenseMatrix::zeros(0, 0);
            sampled_gram_into(&csc, sel, 1, &mut ws, &mut reused);
            assert_eq!(fresh.as_slice(), reused.as_slice());
        }
        // And the _into variant reuses the output allocation too.
        let mut out = DenseMatrix::zeros(0, 0);
        sampled_gram_into(&csc, &sel_b, 1, &mut ws, &mut out);
        assert_eq!(out.as_slice(), sampled_gram(&csc, &sel_b).as_slice());
        sampled_gram_into(&csc, &sel_a, 1, &mut ws, &mut out);
        assert_eq!(out.as_slice(), sampled_gram(&csc, &sel_a).as_slice());
    }

    #[test]
    fn cross_into_reuses_output() {
        let csc = random_sparse(30, 12, 0.4, 11).to_csc();
        let v: Vec<f64> = (0..30).map(|i| i as f64 * 0.25 - 3.0).collect();
        let mut out = DenseMatrix::zeros(0, 0);
        sampled_cross_into(&csc, &[1, 5, 9], &[&v], &mut out);
        assert_eq!(
            out.as_slice(),
            sampled_cross(&csc, &[1, 5, 9], &[&v]).as_slice()
        );
        sampled_cross_into(&csc, &[2], &[&v], &mut out);
        assert_eq!((out.rows(), out.cols()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn cross_length_mismatch_still_panics() {
        let csc = random_sparse(30, 12, 0.4, 12).to_csc();
        let short = vec![0.0; 29];
        let _ = sampled_cross(&csc, &[0], &[&short]);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::CooMatrix;
    use xrng::rng_from_seed;

    fn random_csc(rows: usize, cols: usize, density: f64, seed: u64) -> crate::CscMatrix {
        let mut rng = rng_from_seed(seed);
        let mut coo = CooMatrix::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if rng.next_bool(density) {
                    coo.push(i, j, rng.next_gaussian());
                }
            }
        }
        coo.to_csc()
    }

    /// [`sampled_gram_into`] at `threads` on a held workspace and output.
    fn pooled(
        csc: &crate::CscMatrix,
        sel: &[usize],
        threads: usize,
        ws: &mut GramWorkspace,
    ) -> DenseMatrix {
        let mut g = DenseMatrix::zeros(0, 0);
        sampled_gram_into(csc, sel, threads, ws, &mut g);
        g
    }

    #[test]
    fn parallel_gram_is_bitwise_identical() {
        // Dense enough that the work estimate clears MIN_DISPATCH_WORK
        // (~2.6M estimated ops): on multi-core hosts the pool genuinely
        // engages (on 1-CPU hosts the pool still serializes — also a
        // valid data point).
        // At density 1 every slice is full and the tiles are full-slice
        // lane blocks.
        let mut ws = GramWorkspace::new();
        for density in [0.3, 1.0] {
            let csc = random_csc(600, 120, density, 41);
            let sel: Vec<usize> = (0..120).collect();
            let seq = sampled_gram(&csc, &sel);
            for threads in [1usize, 2, 3, 7, 64] {
                let par = pooled(&csc, &sel, threads, &mut ws);
                assert_eq!(
                    par.as_slice(),
                    seq.as_slice(),
                    "threads={threads}: parallel gram must be bitwise identical"
                );
            }
        }
    }

    #[test]
    fn tiny_selections_fall_back_to_sequential() {
        let csc = random_csc(20, 10, 0.3, 42);
        let mut ws = GramWorkspace::new();
        let g = pooled(&csc, &[1, 5], 8, &mut ws);
        assert_eq!(g.as_slice(), sampled_gram(&csc, &[1, 5]).as_slice());
        let empty = pooled(&csc, &[], 4, &mut ws);
        assert_eq!((empty.rows(), empty.cols()), (0, 0));
    }
}
