//! The family-generic s-step outer loop.
//!
//! Every solver family in this module tree — Lasso (`lasso.rs`), dual SVM
//! (`svm.rs`), kernel DCD (`kdcd.rs`) — runs the *same* outer skeleton:
//! sample a block, form a local tile, fuse it into one allreduce, run the
//! recurrence-only inner iterations, checkpoint. What used to be three
//! hand-rolled copies of that skeleton is now [`drive`], and a family is
//! a [`FamilySpec`]: the per-block hooks that differ between families
//! (what to sample, what tile to form, what rides the wire, how the inner
//! recurrence updates state).
//!
//! The skeleton owns everything engine-shaped so a family cannot get it
//! wrong:
//!
//! * **block lookahead** — a streaming source without an overlap window
//!   gets up to [`FORESIGHT`](crate::workspace::FORESIGHT) later
//!   blocks' selections drawn at block entry, right after `prepare` (same
//!   global RNG order), each announced once as it is drawn (`foresee`, so
//!   the cache evicts by next use), and the oldest up to [`LOOKAHEAD`]
//!   offered to its prefetcher in block order before the Gram runs; a selection the source's budget cannot
//!   hold yet stays drawn and is offered again at the next block entry,
//!   and a solve that breaks off early withdraws what it announced and
//!   prefetched (`cancel_prefetches`);
//! * **the overlap double buffer** — next-block sampling + tile
//!   formation run inside the in-flight allreduce, swapped in at the next
//!   block entry;
//! * **chaos checkpoints** — `backend.checkpoint()` at every block
//!   boundary, skipped when a family breaks out mid-block (matching the
//!   original solvers' `break 'outer` paths bit for bit);
//! * **phase-tagged spans** — Sampling/Gram/Inner wall spans around the
//!   hook calls, in the exact positions the hand-rolled loops had them.
//!
//! The ordering contract (DESIGN.md §6): `drive` calls the hooks in a
//! fixed order per block — `deltas_len` → (`swap_tiles` | `sample` +
//! `tile`) → `prepare_block` → `state_cross` → `traced_scalar` →
//! `payload` → exchange (with `sample`+`tile(next)` inside the overlap
//! window) → `after_exchange` → `inner` → `end_block` → `checkpoint` —
//! and a family must keep every RNG draw and every backend charge inside
//! the hook the original loops made it from, or the engine matrix's
//! bitwise/charge-equality checks fail. With block lookahead the later
//! blocks' `sample` calls run between this block's `prepare` and `tile`,
//! so `sample` may depend on nothing but the RNG and the family's shape.

use super::{ExecBackend, Stage};
use crate::workspace::{KernelWorkspace, LOOKAHEAD};
use sparsela::gram::sampled_gram_into;
use sparsela::{sympack, SliceSource};
use std::ops::ControlFlow;
use xrng::Rng;

/// Wire-layout descriptor of one fused exchange: the single source of
/// truth consumed by the pack site, the unpack site, and the simulator's
/// words accounting, so a family cannot desync them.
///
/// Layout on the wire (see `sparsela::sympack`):
///
/// ```text
/// [ upper triangle of tri×tri Gram | rows×cols cross block | traced scalar ]
///   tri(tri+1)/2 words               rows·cols words          0 or 1 words
/// ```
///
/// Lasso/SVM use `tri = rows = block width`, `cols = nvecs`; the kernel
/// family ships no Gram (`tri = 0`) and a `miss × m` kernel-row block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Payload {
    /// Side of the symmetric Gram block whose upper triangle travels
    /// (0 = no Gram section).
    pub tri: usize,
    /// Rows of the dense cross section.
    pub rows: usize,
    /// Columns of the dense cross section.
    pub cols: usize,
}

impl Payload {
    /// Total f64 words of the fused payload, traced scalar included.
    #[inline]
    pub(crate) fn words(&self, traced: bool) -> usize {
        sympack::packed_len(self.tri) + self.rows * self.cols + usize::from(traced)
    }
}

/// The outer-loop schedule: how many inner iterations total and how many
/// per block. Whether an exchange overlaps the next block is not part of
/// it: every engine that can hide the allreduce (`B::OVERLAPS`) does so
/// whenever a next block exists.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Schedule {
    pub max_iters: usize,
    pub s: usize,
}

/// Position of the current block in the schedule: `h` inner iterations
/// completed when the hook runs (so `end_block` sees this block already
/// counted), `s` inner iterations in this block.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Block {
    pub h: usize,
    pub s: usize,
}

/// The borrowed engine-side context handed to every hook: the backend
/// (charge/span/trace surface), the slice source, and the shared
/// workspace. Reborrowed fresh per call — hooks never store it.
pub(crate) struct Cx<'x, B, M> {
    pub bk: &'x mut B,
    pub a: &'x M,
    pub ws: &'x mut KernelWorkspace,
}

/// What a solver family supplies to [`drive`]. Hooks are called in the
/// fixed per-block order documented on the module; each hook owns the
/// backend charges for the work it performs (and nothing else).
///
/// Contract (DESIGN.md §6): a family may touch its own state, the
/// workspace, and the `charge_*`/`span` side of the backend. It must
/// never communicate (no `exchange`/`reduce_scalar` outside the driver's
/// collective — `gap_reduce`-style reductions inside `inner`/`end_block`
/// are the one sanctioned exception, for families whose trace is itself
/// distributed), never read clocks for control flow, and never perform
/// I/O: residency is the driver's job via `prepare`/`prefetch`.
pub(crate) trait FamilySpec<'r, B: ExecBackend<'r>, M: SliceSource + Sync> {
    /// Length of the zeroed `ws.deltas` recurrence buffer for a block of
    /// `s_block` inner iterations (0 when the family keeps its own).
    fn deltas_len(&self, _s_block: usize) -> usize {
        0
    }

    /// Side of the standard sampled-Gram tile for a block of `s_block`
    /// inner iterations (µ coordinates each for Lasso, one row for SVM).
    /// Drives the default `tile` and `payload`; families with a
    /// non-Gram tile override those directly instead.
    fn tile_width(&self, s_block: usize) -> usize {
        s_block
    }

    /// Cross-section vector count of the default payload.
    fn nvecs(&self) -> usize {
        1
    }

    /// Draw one block's selection, appending to `out`. All RNG use goes
    /// through here so current-block, lookahead, and overlap draws land
    /// in one global order (the replicated-sampling invariant).
    fn sample(&mut self, rng: &mut Rng, s_block: usize, out: &mut Vec<usize>);

    /// Form the local tile for the current selection and charge it —
    /// by default the sampled Gram block `YᵀY` of `tile_width` columns.
    /// `next` selects the double-buffered destination
    /// (`ws.sel_next`/`*_next`) — that variant runs inside the overlap
    /// window and may only touch next-block state.
    fn tile(&mut self, cx: Cx<'_, B, M>, s_block: usize, next: bool) {
        let (sel, gram) = if next {
            (&cx.ws.sel_next, &mut cx.ws.gram_next)
        } else {
            (&cx.ws.sel, &mut cx.ws.gram)
        };
        sampled_gram_into(cx.a, sel, saco_par::threads(), &mut cx.ws.gram_ws, gram);
        cx.bk.charge_gram(sel, self.tile_width(s_block));
    }

    /// Swap the double-buffered tile produced by `tile(next = true)` into
    /// the current-block slots (the selection swap is the driver's).
    fn swap_tiles(&mut self, ws: &mut KernelWorkspace) {
        std::mem::swap(&mut ws.gram, &mut ws.gram_next);
    }

    /// Per-block state computed before the cross products (e.g. the θ
    /// sequence of the accelerated Lasso recurrence).
    fn prepare_block(&mut self, _ws: &mut KernelWorkspace, _s_block: usize) {}

    /// Iterate-dependent products that can never ride the overlap window
    /// (Lasso residual cross terms, SVM `Yᵀx`), charged here.
    fn state_cross(&mut self, _cx: Cx<'_, B, M>, _s_block: usize) {}

    /// This rank's contribution to a trace-boundary scalar, piggybacked
    /// on the fused allreduce (None = nothing traced this block).
    fn traced_scalar(&mut self, _cx: Cx<'_, B, M>, _blk: Block) -> Option<f64> {
        None
    }

    /// The wire layout of this block's exchange: by default the packed
    /// `tile_width` Gram triangle plus `nvecs` cross vectors.
    fn payload(&self, _ws: &KernelWorkspace, s_block: usize) -> Payload {
        let w = self.tile_width(s_block);
        Payload {
            tri: w,
            rows: w,
            cols: self.nvecs(),
        }
    }

    /// Runs right after the exchange: consume the now-global tile
    /// (replicated post-processing like the SVM γ diagonal or the kernel
    /// transform) and the reduced trace scalar, if any.
    fn after_exchange(&mut self, _cx: Cx<'_, B, M>, _blk: Block, _rg: Option<f64>) {}

    /// The `s_block` recurrence-only inner iterations, advancing `h` once
    /// each. `Break` ends the solve immediately (tolerance hit): the
    /// driver then skips `end_block` and the checkpoint, exactly like the
    /// original `break 'outer` paths.
    fn inner(&mut self, cx: Cx<'_, B, M>, s_block: usize, h: &mut usize) -> ControlFlow<()>;

    /// Block epilogue before the checkpoint (boundary traces, carried
    /// state like θ). `Break` ends the solve, skipping the checkpoint.
    fn end_block(&mut self, _cx: Cx<'_, B, M>, _blk: Block) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// Keep the lookahead ring full: draw new selections while the ring has
/// room and the schedule has blocks, announcing each to the source
/// (`foresee`) as it is drawn, then offer the oldest ones not yet
/// prefetched to its `prefetch`, in block order, until [`LOOKAHEAD`] are
/// pinned and unclaimed. The first refusal ends the call, so the source
/// pins for blocks strictly in order; a refused selection is offered
/// again at the next block entry. Only `sample` consumes the RNG and the
/// draws never pass `max_iters`, so they land in the in-memory solver's
/// global order and a solve leaves the RNG where the in-memory one does.
fn draw_ahead<'r, B, M, S>(
    a: &M,
    sched: Schedule,
    rng: &mut Rng,
    ws: &mut KernelWorkspace,
    spec: &mut S,
) where
    B: ExecBackend<'r>,
    M: SliceSource + Sync,
    S: FamilySpec<'r, B, M>,
{
    let ring = &mut ws.ahead;
    while ring.drawn < sched.max_iters {
        let s_block = sched.s.min(sched.max_iters - ring.drawn);
        let Some(sel) = ring.push() else {
            break;
        };
        spec.sample(rng, s_block, sel);
        a.foresee(sel);
        ring.drawn += s_block;
    }
    while ring.prefetched < ring.len.min(LOOKAHEAD) {
        if !a.prefetch(ring.get(ring.prefetched)) {
            return;
        }
        ring.prefetched += 1;
    }
}

/// Run the s-step outer loop to completion (or a family `Break`),
/// returning the number of inner iterations performed.
pub(crate) fn drive<'r, B, M, S>(
    a: &M,
    sched: Schedule,
    rng: &mut Rng,
    ws: &mut KernelWorkspace,
    backend: &mut B,
    spec: &mut S,
) -> usize
where
    B: ExecBackend<'r>,
    M: SliceSource + Sync,
    S: FamilySpec<'r, B, M>,
{
    // Streaming without an overlap window: draw blocks ahead and prefetch
    // their shards behind this block's whole compute (`draw_ahead`).
    let stream_ahead = a.lookahead() && !B::OVERLAPS;
    ws.ahead.reset();
    let mut have_next = false;
    let mut h = 0usize;
    while h < sched.max_iters {
        let s_block = sched.s.min(sched.max_iters - h);
        let h_next = h + s_block;
        let want_overlap = B::OVERLAPS && h_next < sched.max_iters;
        let s_next = sched.s.min(sched.max_iters.saturating_sub(h_next));
        ws.begin_block(spec.deltas_len(s_block));
        if have_next {
            // This block's selection and local tile were produced (and
            // charged) while the previous fused allreduce was in flight;
            // for a streaming source the overlap closure also made these
            // slices resident (`prepare`), so none of that repeats here.
            std::mem::swap(&mut ws.sel, &mut ws.sel_next);
            spec.swap_tiles(ws);
        } else {
            {
                let _span = backend.span(Stage::Sampling);
                // Drawn ahead, in the same RNG order (see `draw_ahead`),
                // so the shards could prefetch behind earlier compute.
                if !ws.ahead.take_into(&mut ws.sel) {
                    spec.sample(rng, s_block, &mut ws.sel);
                    ws.ahead.drawn = h_next;
                }
            }
            // Residency barrier: pin this block's slices (no-op in
            // memory). Prefetched shards are hits; the rest load here.
            a.prepare(&ws.sel);
            if stream_ahead {
                let _span = backend.span(Stage::Sampling);
                draw_ahead(a, sched, rng, ws, spec);
            }
            let _span = backend.span(Stage::Gram);
            spec.tile(Cx { bk: backend, a, ws }, s_block, false);
        }
        spec.prepare_block(ws, s_block);
        // The iterate-dependent products can never ride the overlap
        // window, so they always happen here, at block entry.
        {
            let _span = backend.span(Stage::Gram);
            spec.state_cross(Cx { bk: backend, a, ws }, s_block);
        }
        let resid = spec.traced_scalar(Cx { bk: backend, a, ws }, Block { h, s: s_block });
        backend.charge_outer_overhead();

        let payload = spec.payload(ws, s_block);
        let mut ov = |bk: &mut B, ws: &mut KernelWorkspace| {
            ws.sel_next.clear();
            spec.sample(rng, s_next, &mut ws.sel_next);
            // Streaming: loads for the next block happen inside the
            // in-flight allreduce — IO hides behind comm here, behind
            // compute in the non-overlap lookahead at block entry.
            a.prepare(&ws.sel_next);
            spec.tile(Cx { bk, a, ws }, s_next, true);
        };
        let resid_global = if payload.words(resid.is_some()) == 0 {
            // Nothing travels (an all-hit kernel block): skip the
            // collective on every rank — the selection is replicated, so
            // every rank skips together — but still run the next-block
            // work the window would have hidden.
            if want_overlap {
                ov(backend, ws);
            }
            resid
        } else {
            backend.exchange(ws, payload, resid, want_overlap.then_some(ov))
        };
        have_next = want_overlap;
        spec.after_exchange(
            Cx { bk: backend, a, ws },
            Block { h, s: s_block },
            resid_global,
        );

        {
            let _inner_span = backend.span(Stage::Inner);
            if spec
                .inner(Cx { bk: backend, a, ws }, s_block, &mut h)
                .is_break()
            {
                break;
            }
        }
        if spec
            .end_block(Cx { bk: backend, a, ws }, Block { h, s: s_block })
            .is_break()
        {
            break;
        }
        // Block boundary: the iterate is consistent on every rank, so
        // this is where a failed rank can recover from (no-op without
        // fault injection).
        backend.checkpoint();
    }
    // A solve that broke off early leaves drawn blocks it will never
    // prepare, announced and maybe prefetched: withdraw them, so the
    // source's next solve pins and announces from its own epoch.
    if ws.ahead.len > 0 {
        a.cancel_prefetches();
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LassoConfig;
    use crate::exec::{lasso_family, SeqBackend};
    use crate::prox::Lasso;
    use crate::workspace::FORESIGHT;
    use sparsela::{CscMatrix, MajorSlices, SparseSlice};
    use std::sync::Mutex;

    #[derive(Clone, Debug, PartialEq)]
    enum Event {
        Prepare(Vec<usize>),
        Prefetch(Vec<usize>),
        Foresee(Vec<usize>),
        /// The first `slice` after a residency call (later ones collapse).
        Slice,
        Cancel,
    }

    /// A resident matrix that records the residency protocol it is driven
    /// through, and asks for lookahead (or not) like a streaming source.
    /// It takes a prefetch only while fewer than `room` are unclaimed, as
    /// a budget would.
    struct Recording<'a> {
        a: &'a CscMatrix,
        lookahead: bool,
        room: usize,
        events: Mutex<Vec<Event>>,
    }

    impl Recording<'_> {
        /// Prefetches neither claimed by a `prepare` (each claims the
        /// oldest, if any) nor withdrawn.
        fn unclaimed(events: &[Event]) -> usize {
            events.iter().fold(0, |n, e| match e {
                Event::Prefetch(_) => n + 1,
                Event::Prepare(_) => n.saturating_sub(1),
                Event::Cancel => 0,
                Event::Slice | Event::Foresee(_) => n,
            })
        }
    }

    impl MajorSlices for Recording<'_> {
        fn major_len(&self) -> usize {
            self.a.major_len()
        }
        fn minor_len(&self) -> usize {
            self.a.minor_len()
        }
        fn slice(&self, k: usize) -> SparseSlice<'_> {
            let mut events = self.events.lock().unwrap();
            if events.last() != Some(&Event::Slice) {
                events.push(Event::Slice);
            }
            self.a.slice(k)
        }
    }

    impl SliceSource for Recording<'_> {
        fn prepare(&self, sel: &[usize]) {
            self.events
                .lock()
                .unwrap()
                .push(Event::Prepare(sel.to_vec()));
        }
        fn prefetch(&self, sel: &[usize]) -> bool {
            let mut events = self.events.lock().unwrap();
            let taken = Self::unclaimed(&events) < self.room;
            if taken {
                events.push(Event::Prefetch(sel.to_vec()));
            }
            taken
        }
        fn foresee(&self, sel: &[usize]) {
            self.events
                .lock()
                .unwrap()
                .push(Event::Foresee(sel.to_vec()));
        }
        fn cancel_prefetches(&self) {
            self.events.lock().unwrap().push(Event::Cancel);
        }
        fn lookahead(&self) -> bool {
            self.lookahead
        }
    }

    #[test]
    fn lookahead_prefetches_at_block_entry_in_the_in_memory_draw_order() {
        let a = datagen::powerlaw_sparse(160, 90, 0.08, 0.8, 3);
        let ds = datagen::planted_regression(a, 6, 0.05, 3).dataset;
        let csc = ds.a.to_csc();
        // 300 = 37 full blocks of s = 8 and a last one of 4: more blocks
        // than the foresight window holds.
        let cfg = LassoConfig {
            mu: 3,
            s: 8,
            lambda: 0.05,
            seed: 13,
            max_iters: 300,
            ..Default::default()
        };
        let run = |lookahead: bool, room: usize| {
            let rec = Recording {
                a: &csc,
                lookahead,
                room,
                events: Mutex::new(Vec::new()),
            };
            let reg = Lasso::new(cfg.lambda);
            let res = lasso_family(&rec, &ds.b, &reg, &cfg, true, &mut SeqBackend::new());
            (rec.events.into_inner().unwrap(), res.final_value())
        };
        let (resident, f_resident) = run(false, LOOKAHEAD);

        // The in-memory solver announces each block at its entry; those
        // selections, in order, are the global draw sequence.
        let blocks: Vec<&Vec<usize>> = resident
            .iter()
            .filter_map(|e| match e {
                Event::Prepare(sel) => Some(sel),
                _ => None,
            })
            .collect();
        let n = blocks.len();
        assert_eq!(n, 38);
        assert!(FORESIGHT + 1 < n);
        assert!(!resident
            .iter()
            .any(|e| matches!(e, Event::Prefetch(_) | Event::Foresee(_))));

        // Streamed, every block t is: prepare(t); a foresee of each block
        // up to t + FORESIGHT not yet announced, in block order; a
        // prefetch of each block up to t + depth not yet prefetched, in
        // block order — all before the first kernel — then the first
        // slice. The depth is the source's room, capped at LOOKAHEAD: a
        // source with room for four takes the first block's four
        // followers at once and one block per entry after that; with room
        // for one, it is a one-block lookahead.
        for (room, depth) in [
            (LOOKAHEAD + 2, LOOKAHEAD),
            (LOOKAHEAD, LOOKAHEAD),
            (2, 2),
            (1, 1),
        ] {
            let (streamed, f_streamed) = run(true, room);
            assert_eq!(f_streamed.to_bits(), f_resident.to_bits(), "room {room}");
            let mut expect = Vec::new();
            let (mut announced, mut fetched) = (0, 0);
            for (t, sel) in blocks.iter().enumerate() {
                expect.push(Event::Prepare((*sel).clone()));
                while announced < (t + FORESIGHT).min(n - 1) {
                    announced += 1;
                    expect.push(Event::Foresee(blocks[announced].clone()));
                }
                while fetched < (t + depth).min(n - 1) {
                    fetched += 1;
                    expect.push(Event::Prefetch(blocks[fetched].clone()));
                }
                expect.push(Event::Slice);
            }
            assert_eq!(streamed, expect, "room {room}");
        }
    }

    #[test]
    fn a_broken_off_solve_withdraws_its_prefetches() {
        let a = datagen::powerlaw_sparse(160, 90, 0.08, 0.8, 3);
        let ds = datagen::planted_regression(a, 6, 0.05, 3).dataset;
        let csc = ds.a.to_csc();
        let cfg = LassoConfig {
            mu: 3,
            s: 8,
            lambda: 0.05,
            seed: 13,
            max_iters: 100,
            ..Default::default()
        };
        // Any change passes the tolerance: the solve stops at its first
        // trace point, h = 10, inside block 2, with the next two prefetched.
        let stopped = LassoConfig {
            seed: 14,
            rel_tol: Some(f64::MAX),
            ..cfg.clone()
        };
        let reg = Lasso::new(cfg.lambda);
        let source = || Recording {
            a: &csc,
            lookahead: true,
            room: 2,
            events: Mutex::new(Vec::new()),
        };
        let solve = |rec: &Recording<'_>, cfg: &LassoConfig| {
            let res = lasso_family(rec, &ds.b, &reg, cfg, true, &mut SeqBackend::new());
            (res.iters, res.final_value().to_bits())
        };
        let reused = source();
        assert_eq!(solve(&reused, &stopped).0, 10);
        let first = reused.events.lock().unwrap().len();
        assert_eq!(reused.events.lock().unwrap().last(), Some(&Event::Cancel));
        let fresh = source();
        assert_eq!(solve(&reused, &cfg), solve(&fresh, &cfg));
        // The second solve on the reused source makes the same residency
        // calls as on a fresh one: no stale prefetch holds its room.
        let events = reused.events.into_inner().unwrap();
        assert_eq!(events[first..], fresh.events.into_inner().unwrap()[..]);
        // A solve that runs out claims everything it prefetched.
        assert!(!events[first..].contains(&Event::Cancel));
    }

    #[test]
    fn payload_words_match_sympack_layout() {
        // Lasso/SVM shape: triangle + cross + optional scalar.
        let p = Payload {
            tri: 4,
            rows: 4,
            cols: 2,
        };
        assert_eq!(p.words(false), sympack::payload_words(4, 2, false));
        assert_eq!(p.words(true), sympack::payload_words(4, 2, true));
        // Kernel shape: no triangle, rectangular rows block.
        let k = Payload {
            tri: 0,
            rows: 3,
            cols: 7,
        };
        assert_eq!(k.words(false), 21);
        assert_eq!(k.words(true), 22);
        // Empty exchange (all-hit kernel block).
        let e = Payload {
            tri: 0,
            rows: 0,
            cols: 7,
        };
        assert_eq!(e.words(false), 0);
    }
}
