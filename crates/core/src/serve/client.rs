//! A blocking serve client: one connection, request/response in
//! lockstep, sequence numbers checked end to end. A call is one `write`
//! of a frame encoded into the client's wire buffer and one buffered
//! `read` of the reply, through buffers kept across calls.

use super::proto::{Request, Response};
use netcomm::frame::{Frame, FrameKind, FrameReader};
use netcomm::transport::connect_retry;
use netcomm::{Addr, Backoff, NetError, NetStats, Stream};
use std::io::Write;
use std::time::Duration;

/// One client connection to a serve endpoint.
pub struct ServeClient {
    /// Replies are read through it; requests are written past it.
    reader: FrameReader<Stream>,
    /// The outgoing frame being encoded.
    wire: Vec<u8>,
    seq: u64,
}

impl ServeClient {
    /// Connect to `addr` on the given retry schedule.
    pub fn connect(addr: &Addr, backoff: &Backoff) -> Result<ServeClient, NetError> {
        let stats = NetStats::default();
        let stream = connect_retry(addr, backoff, Duration::from_secs(2), &stats)?;
        Ok(ServeClient {
            reader: FrameReader::new(stream),
            wire: Vec::new(),
            seq: 0,
        })
    }

    /// Connect with the default backoff schedule.
    pub fn connect_default(addr: &Addr) -> Result<ServeClient, NetError> {
        ServeClient::connect(addr, &Backoff::default())
    }

    /// Send one request and block for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        let seq = self.seq;
        self.seq += 1;
        self.wire.clear();
        req.encode_into(seq, &mut self.wire);
        self.reader
            .get_mut()
            .write_all(&self.wire)
            .map_err(|e| io_err("send serve request", e))?;
        let frame = self
            .reader
            .read_next()
            .map_err(|e| io_err("read serve response", e))??;
        if frame.seq != seq {
            return Err(NetError::Protocol(format!(
                "response seq {} for request seq {seq}",
                frame.seq
            )));
        }
        Response::from_frame(frame)
    }

    /// Score a batch of sparse rows, unwrapping the prediction vector.
    pub fn score(&mut self, rows: Vec<(Vec<usize>, Vec<f64>)>) -> Result<Vec<f64>, NetError> {
        match self.call(&Request::Score { rows })? {
            Response::Scores(p) => Ok(p),
            Response::Error(e) => Err(NetError::Protocol(e)),
            other => Err(unexpected("Scores", &other)),
        }
    }

    /// Resume training for `iters` more iterations at `lambda`; returns
    /// `(objective, nonzeros, total_iters)`.
    pub fn train_delta(&mut self, lambda: f64, iters: u64) -> Result<(f64, u64, u64), NetError> {
        match self.call(&Request::TrainDelta { lambda, iters })? {
            Response::Train {
                objective,
                nonzeros,
                total_iters,
            } => Ok((objective, nonzeros, total_iters)),
            Response::Error(e) => Err(NetError::Protocol(e)),
            other => Err(unexpected("Train", &other)),
        }
    }

    /// Request the path point at `lambda`; returns
    /// `(objective, nonzeros, cached)`.
    pub fn path_point(&mut self, lambda: f64, iters: u64) -> Result<(f64, u64, bool), NetError> {
        match self.call(&Request::PathPoint { lambda, iters })? {
            Response::Path {
                objective,
                nonzeros,
                cached,
            } => Ok((objective, nonzeros, cached)),
            Response::Error(e) => Err(NetError::Protocol(e)),
            other => Err(unexpected("Path", &other)),
        }
    }

    /// Fetch the server's telemetry snapshot (JSON run report).
    pub fn stats(&mut self) -> Result<String, NetError> {
        match self.call(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            Response::Error(e) => Err(NetError::Protocol(e)),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Shutdown)? {
            Response::Stats(_) => Ok(()),
            Response::Error(e) => Err(NetError::Protocol(e)),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Orderly close: send a Bye frame so the server's reader exits
    /// without logging a protocol error.
    pub fn bye(mut self) {
        let bye = Frame {
            kind: FrameKind::Bye,
            rank: 0,
            tag: 0,
            seq: self.seq,
            bytes: Vec::new(),
        };
        let _ = bye.write_to(self.reader.get_mut());
    }
}

fn unexpected(wanted: &str, got: &Response) -> NetError {
    NetError::Protocol(format!("expected a {wanted} response, got {got:?}"))
}

fn io_err(during: &'static str, source: std::io::Error) -> NetError {
    NetError::Io {
        peer: None,
        during,
        source,
    }
}
