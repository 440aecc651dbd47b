//! The socket-mesh engine: real processes, real wires, measured time.
//!
//! [`NetBackend`] is the third [`ExecBackend`]: it runs the same
//! backend-generic recurrences as the other two, but its `exchange`
//! moves the fused `sympack` payload over an actual TCP/Unix-socket mesh
//! (`netcomm`). The mesh's tree allreduce has one fixed combine order and
//! the wire is bit-lossless, so a net solve is bitwise reproducible at
//! every rank count, bitwise the sequential solve at one rank, and the
//! same to round-off beyond — the engine matrix and
//! `tests/goldens/cells.txt` pin both. `charge_*` hooks stay no-ops and
//! [`ExecBackend::clock`] reads wall time, because here communication
//! costs what the OS says it costs, not what the α-β-γ model predicts.
//!
//! Failure semantics are fail-stop: the solvers' recurrences cannot
//! continue without the reduction, so a [`netcomm::NetError`] (timeout,
//! peer death, protocol violation) panics with the rank in the message
//! and the process exits nonzero; `saco launch` surfaces which rank died.
//! Nothing blocks forever — every wire operation is bounded by the mesh's
//! I/O timeout.

use super::{ExecBackend, Payload};
use crate::workspace::KernelWorkspace;
use mpisim::telemetry::PhaseTimes;
use netcomm::NetComm;
use sparsela::sympack;
use std::time::Instant;

/// Assemble the fused allreduce payload in `ws.pack` per the family's
/// [`Payload`] descriptor: packed Gram upper triangle (if any), cross
/// terms interleaved per block row, then the optional traced residual
/// contribution. The length assert keeps a family's descriptor honest
/// against what it actually put in the workspace — the descriptor the
/// virtual cluster prices, so the modeled wire is this one.
fn pack_fused(ws: &mut KernelWorkspace, p: Payload, resid: Option<f64>) {
    let base = ws.pack.len();
    if p.tri > 0 {
        assert_eq!(
            (ws.gram.rows(), ws.gram.cols()),
            (p.tri, p.tri),
            "payload descriptor disagrees with the workspace Gram block"
        );
        sympack::pack_upper_into(&ws.gram, &mut ws.pack);
    }
    for k in 0..p.rows {
        for v in 0..p.cols {
            ws.pack.push(ws.cross.get(k, v));
        }
    }
    if let Some(rc) = resid {
        ws.pack.push(rc);
    }
    assert_eq!(
        ws.pack.len() - base,
        p.words(resid.is_some()),
        "packed payload length disagrees with its descriptor"
    );
}

/// Inverse of [`pack_fused`] after the reduction: scatter the global
/// triangle and cross terms back into the workspace (handing the
/// recurrence the global Gram block under the same name the replicated
/// engines use) and return the reduced residual iff one was packed.
fn unpack_fused(ws: &mut KernelWorkspace, p: Payload, traced: bool) -> Option<f64> {
    let mut pos = 0;
    if p.tri > 0 {
        pos = sympack::unpack_symmetric_into(&ws.pack, 0, p.tri, &mut ws.gram_global);
        std::mem::swap(&mut ws.gram, &mut ws.gram_global);
    }
    for k in 0..p.rows {
        for v in 0..p.cols {
            ws.cross.set(k, v, ws.pack[pos]);
            pos += 1;
        }
    }
    traced.then(|| ws.pack[pos])
}

/// Engine over a [`NetComm`] mesh. One instance per rank per solve; the
/// borrow keeps the mesh alive across the run and hands it back for
/// telemetry afterwards.
pub(crate) struct NetBackend<'c> {
    comm: &'c mut NetComm,
    start: Instant,
    /// Solver-visible wait seconds already accounted before this solve
    /// (the mesh outlives solves; trace points must show this run only).
    wait_base: f64,
}

impl<'c> NetBackend<'c> {
    pub(crate) fn new(comm: &'c mut NetComm) -> Self {
        let wait_base = comm.stats().wait_secs;
        Self {
            comm,
            start: Instant::now(),
            wait_base,
        }
    }

    fn fail(&self, during: &str, e: netcomm::NetError) -> ! {
        panic!(
            "rank {}/{}: {during} failed on the socket mesh: {e}",
            self.comm.rank(),
            self.comm.size()
        );
    }
}

impl<'r, 'c> ExecBackend<'r> for NetBackend<'c> {
    const TRACE_INNER: bool = false;
    const OVERLAPS: bool = true;

    // charge_* hooks keep their no-op defaults: wall time is measured,
    // never modeled, on this engine.

    fn exchange<F: FnOnce(&mut Self, &mut KernelWorkspace)>(
        &mut self,
        ws: &mut KernelWorkspace,
        payload: Payload,
        resid: Option<f64>,
        next_block: Option<F>,
    ) -> Option<f64> {
        pack_fused(ws, payload, resid);
        let wire = std::mem::take(&mut ws.pack);
        ws.pack = match next_block {
            Some(f) => {
                // Start puts the partial of a reduce-leaf, or of a
                // top-swap root with nothing to receive first, on the
                // wire; it and the peers' progress overlap with forming
                // the next block.
                let pending = match self.comm.iallreduce_start(wire) {
                    Ok(p) => p,
                    Err(e) => self.fail("fused allreduce start", e),
                };
                f(self, ws);
                match self.comm.iallreduce_wait(pending) {
                    Ok(v) => v,
                    Err(e) => self.fail("fused allreduce wait", e),
                }
            }
            None => match self.comm.allreduce_sum(wire) {
                Ok(v) => v,
                Err(e) => self.fail("fused allreduce", e),
            },
        };
        unpack_fused(ws, payload, resid.is_some())
    }

    fn reduce_scalar(&mut self, v: f64) -> f64 {
        match self.comm.allreduce_scalar(v) {
            Ok(x) => x,
            Err(e) => self.fail("scalar allreduce", e),
        }
    }

    fn gap_reduce(&mut self, buf: &mut Vec<f64>, _m: usize) {
        let payload = std::mem::take(buf);
        *buf = match self.comm.allreduce_sum(payload) {
            Ok(v) => v,
            Err(e) => self.fail("gap allreduce", e),
        };
    }

    fn norm_reduce(&mut self, buf: &mut Vec<f64>, _m: usize) {
        let payload = std::mem::take(buf);
        *buf = match self.comm.allreduce_sum(payload) {
            Ok(v) => v,
            Err(e) => self.fail("norms allreduce", e),
        };
    }

    /// Measured wall seconds since the solve started.
    fn clock(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Comm = the solver-visible blocked time (what overlap failed to
    /// hide); comp = everything else this thread did. Idle is folded into
    /// comm: on a real wire a straggler's partner shows up as wait time,
    /// the two are not separable without a global clock.
    fn phases(&self) -> PhaseTimes {
        let comm = (self.comm.stats().wait_secs - self.wait_base).max(0.0);
        let total = self.clock();
        PhaseTimes::new(comm, (total - comm).max(0.0), 0.0)
    }
}
