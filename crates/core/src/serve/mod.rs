//! `saco serve`: a scoring/training service over the netcomm framed
//! transport.
//!
//! The serving story is three contracts stacked on the solver stack's
//! determinism guarantees:
//!
//! 1. **Artifact** ([`ModelArtifact`], `saco-model/v1`): a trained model
//!    is a file — header, solution bits, residual bits, and the training
//!    provenance (seed, µ, s, sampling, iteration count) plus a dataset
//!    fingerprint. Storing the residual *bits* (never recomputing
//!    `Ax − b`, which would re-associate the sums) is what makes resumed
//!    training bitwise-exact.
//! 2. **Protocol** ([`Request`]/[`Response`]): one netcomm frame per
//!    message, payloads as lossless `f64` bit patterns. Score batches,
//!    train-deltas, λ-path points, stats, shutdown.
//! 3. **Serving loop** ([`serve`], [`ServeConfig`]): each connection's
//!    own thread decodes, answers and replies to its requests. Scores
//!    read a published snapshot of the model; train-delta and path
//!    segments take one state lock, whose order is the single mutation
//!    order. Warm-start caches make path point k seed point k+1 and
//!    exact-λ repeats free; every request is clocked into the `serve.*`
//!    telemetry taxonomy (p50/p95/p99 latency, SLO breaches).
//!
//! Exactness contracts the tests pin down: scoring a row equals
//! `CsrMatrix::spmv` on that row bitwise (both are the same serial dot
//! chain); a train-delta of `k` iterations on a resumable artifact
//! trained for `t` iterations equals training `t + k` from scratch
//! (when `t` is a block-boundary multiple of `s`); grid-order path
//! requests reproduce [`crate::path::lasso_path`] bitwise.

mod artifact;
mod client;
mod proto;
mod server;

pub use artifact::{dataset_fingerprint, ModelArtifact, ARTIFACT_MAGIC};
pub use client::ServeClient;
pub use netcomm::{Addr, Backoff, Listener, NetError};
pub use proto::{Request, Response};
pub use server::{serve, ServeConfig, ServeReport};
