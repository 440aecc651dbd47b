//! The versioned model artifact: `saco-model/v1`.
//!
//! Every train subcommand can persist its result as an artifact, and the
//! server loads one at startup. The format is a text header (one
//! `key=value` per line, floats as lossless hex bit patterns) followed by
//! a raw little-endian `f64` payload: the solution `x` and — for the
//! warm-startable Lasso family — the training residual `Ax − b` exactly
//! as the solver left it.
//!
//! Storing the residual *bits* (instead of recomputing `Ax − b` at load
//! time, which would re-associate the sums) plus the sampling replay in
//! `exec` is what makes a resumed training session bitwise identical to
//! an uncut run: the server restores the iterate, the residual, and the
//! RNG state, so a train-delta of `k` more iterations reproduces the
//! exact bits of training `iters + k` from scratch (block boundaries
//! align whenever `iters` is a multiple of `s`).
//!
//! The dataset fingerprint binds an artifact to the matrix it was trained
//! on; the server refuses to resume training against different data.
//!
//! This module is the one sanctioned file-I/O site in `crates/core`
//! outside the dataset loaders (see the carve-out in
//! `scripts/shim_guard.sh`): model artifacts are not datasets and never
//! sit behind the shard cache's budget accounting.

use crate::config::{BlockSampling, LassoConfig};
use crate::prox::Regularizer;
use crate::workspace::KernelWorkspace;
use sparsela::io::Dataset;

/// Magic first line of every artifact.
pub const ARTIFACT_MAGIC: &str = "saco-model/v1";

/// A trained model with enough provenance to score, inspect, and — for
/// the Lasso family — resume training bitwise.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelArtifact {
    /// Solver family: `"lasso"` (warm-startable) or `"svm"`/`"ksvm"`/
    /// `"kridge"` (score/inspect only).
    pub family: String,
    /// Regularization weight the model was trained at.
    pub lambda: f64,
    /// Training data shape (rows).
    pub m: usize,
    /// Training data shape (columns = model length for linear families).
    pub n: usize,
    /// FNV-1a fingerprint of the training dataset (shape + structure +
    /// value bits).
    pub fingerprint: u64,
    /// RNG seed the training run used.
    pub seed: u64,
    /// Block size µ of the training run.
    pub mu: usize,
    /// s-step depth of the training run.
    pub s: usize,
    /// Coordinate sampling scheme of the training run.
    pub sampling: BlockSampling,
    /// Inner iterations completed.
    pub iters: usize,
    /// Objective at iteration 0.
    pub initial_obj: f64,
    /// Objective at `iters`.
    pub final_obj: f64,
    /// The solution vector.
    pub x: Vec<f64>,
    /// The training residual `Ax − b`, bit-exact as the solver left it.
    /// Empty for families that cannot resume.
    pub residual: Vec<f64>,
}

/// FNV-1a, the registry-independent hash used for dataset fingerprints.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fingerprint a dataset: shape, row structure, and every stored bit of
/// values and labels. Two datasets fingerprint equal iff a solver would
/// produce identical bits on both.
pub fn dataset_fingerprint(ds: &Dataset) -> u64 {
    let mut h = Fnv::new();
    h.u64(ds.a.rows() as u64);
    h.u64(ds.a.cols() as u64);
    h.u64(ds.a.nnz() as u64);
    for i in 0..ds.a.rows() {
        let r = ds.a.row(i);
        h.u64(r.indices.len() as u64);
        for &j in r.indices {
            h.u64(j as u64);
        }
        for &v in r.values {
            h.u64(v.to_bits());
        }
    }
    for &v in &ds.b {
        h.u64(v.to_bits());
    }
    h.0
}

fn sampling_str(s: BlockSampling) -> String {
    match s {
        BlockSampling::Coordinates => "coords".to_string(),
        BlockSampling::AlignedGroups { group_size } => format!("groups:{group_size}"),
    }
}

fn parse_sampling(s: &str) -> Result<BlockSampling, String> {
    if s == "coords" {
        return Ok(BlockSampling::Coordinates);
    }
    if let Some(gs) = s.strip_prefix("groups:") {
        let group_size = gs.parse().map_err(|_| format!("bad group size {gs:?}"))?;
        return Ok(BlockSampling::AlignedGroups { group_size });
    }
    Err(format!("unknown sampling scheme {s:?}"))
}

impl ModelArtifact {
    /// Train a Lasso-family model ready to serve: a fresh run on the
    /// `FamilySpec` driver (bitwise identical to [`crate::seq::sa_bcd`] —
    /// same draws, same recurrence) that additionally captures the
    /// residual bits and training provenance the server needs to resume.
    pub fn train_lasso<R: Regularizer>(
        ds: &Dataset,
        reg: &R,
        lambda: f64,
        cfg: &LassoConfig,
    ) -> ModelArtifact {
        let n = ds.a.cols();
        cfg.validate(n);
        let csc = ds.a.to_csc();
        let train_cfg = LassoConfig {
            rel_tol: None,
            trace_every: 0,
            ..cfg.clone()
        };
        let mut rng = xrng::rng_from_seed(cfg.seed);
        let mut ws = KernelWorkspace::new();
        let mut x = vec![0.0; n];
        let mut residual: Vec<f64> = ds.b.iter().map(|v| -v).collect();
        let initial_obj = crate::problem::lasso_objective_from_residual(&residual, reg, &x);
        let iters = crate::exec::lasso_family_warm(
            &csc,
            reg,
            &train_cfg,
            &mut crate::exec::SeqBackend::new(),
            &mut rng,
            &mut ws,
            &mut x,
            &mut residual,
        );
        let final_obj = crate::problem::lasso_objective_from_residual(&residual, reg, &x);
        ModelArtifact {
            family: "lasso".to_string(),
            lambda,
            m: ds.a.rows(),
            n,
            fingerprint: dataset_fingerprint(ds),
            seed: cfg.seed,
            mu: cfg.mu,
            s: cfg.s,
            sampling: cfg.sampling,
            iters,
            initial_obj,
            final_obj,
            x,
            residual,
        }
    }

    /// Wrap an already-solved result (any family) as a score-only
    /// artifact: no residual, so the server will refuse to resume it.
    #[allow(clippy::too_many_arguments)]
    pub fn from_solution(
        family: &str,
        ds: &Dataset,
        cfg: &LassoConfig,
        lambda: f64,
        x: Vec<f64>,
        iters: usize,
        initial_obj: f64,
        final_obj: f64,
    ) -> ModelArtifact {
        ModelArtifact {
            family: family.to_string(),
            lambda,
            m: ds.a.rows(),
            n: ds.a.cols(),
            fingerprint: dataset_fingerprint(ds),
            seed: cfg.seed,
            mu: cfg.mu,
            s: cfg.s,
            sampling: cfg.sampling,
            iters,
            initial_obj,
            final_obj,
            x,
            residual: Vec::new(),
        }
    }

    /// Whether the server may resume training from this artifact.
    pub fn resumable(&self) -> bool {
        self.family == "lasso" && self.residual.len() == self.m
    }

    /// The training configuration this artifact pins (per-segment budget
    /// supplied by the caller).
    pub fn lasso_config(&self, max_iters: usize) -> LassoConfig {
        LassoConfig {
            mu: self.mu,
            s: self.s,
            lambda: self.lambda,
            seed: self.seed,
            max_iters,
            trace_every: 0,
            rel_tol: None,
            sampling: self.sampling,
        }
    }

    /// Number of coordinates with `|xⱼ| > 1e-10`.
    pub fn nonzeros(&self) -> usize {
        sparsela::vecops::nnz_count(&self.x, 1e-10)
    }

    /// Serialize: text header, blank line, raw little-endian f64 payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut head = String::new();
        head.push_str(ARTIFACT_MAGIC);
        head.push('\n');
        head.push_str(&format!("family={}\n", self.family));
        head.push_str(&format!("lambda={:016x}\n", self.lambda.to_bits()));
        head.push_str(&format!("m={}\n", self.m));
        head.push_str(&format!("n={}\n", self.n));
        head.push_str(&format!("fingerprint={:016x}\n", self.fingerprint));
        head.push_str(&format!("seed={}\n", self.seed));
        head.push_str(&format!("mu={}\n", self.mu));
        head.push_str(&format!("s={}\n", self.s));
        head.push_str(&format!("sampling={}\n", sampling_str(self.sampling)));
        head.push_str(&format!("iters={}\n", self.iters));
        head.push_str(&format!(
            "initial_obj={:016x}\n",
            self.initial_obj.to_bits()
        ));
        head.push_str(&format!("final_obj={:016x}\n", self.final_obj.to_bits()));
        head.push_str(&format!("xlen={}\n", self.x.len()));
        head.push_str(&format!("rlen={}\n", self.residual.len()));
        head.push('\n');
        let mut out = head.into_bytes();
        out.reserve((self.x.len() + self.residual.len()) * 8);
        for v in self.x.iter().chain(&self.residual) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Parse an encoded artifact, validating magic and payload length and
    /// rejecting a non-finite `lambda`, `x` or `residual` word. Every
    /// failure is an `Err` naming the key or the word, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<ModelArtifact, String> {
        let split = bytes
            .windows(2)
            .position(|w| w == b"\n\n")
            .ok_or("missing header terminator")?;
        let head = std::str::from_utf8(&bytes[..split]).map_err(|_| "header is not UTF-8")?;
        let payload = &bytes[split + 2..];
        let mut lines = head.lines();
        let magic = lines.next().ok_or("empty artifact")?;
        if magic != ARTIFACT_MAGIC {
            return Err(format!("not a {ARTIFACT_MAGIC} artifact (got {magic:?})"));
        }
        let mut kv = std::collections::BTreeMap::new();
        for line in lines {
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("bad header line {line:?}"))?;
            kv.insert(k.to_string(), v.to_string());
        }
        let get = |k: &str| -> Result<String, String> {
            kv.get(k)
                .cloned()
                .ok_or_else(|| format!("missing header key {k:?}"))
        };
        let usize_of = |k: &str| -> Result<usize, String> {
            get(k)?
                .parse()
                .map_err(|_| format!("bad integer for {k:?}"))
        };
        let u64_of = |k: &str| -> Result<u64, String> {
            get(k)?
                .parse()
                .map_err(|_| format!("bad integer for {k:?}"))
        };
        let bits_of = |k: &str| -> Result<f64, String> {
            u64::from_str_radix(&get(k)?, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("bad bit pattern for {k:?}"))
        };
        let hex_of = |k: &str| -> Result<u64, String> {
            u64::from_str_radix(&get(k)?, 16).map_err(|_| format!("bad hex for {k:?}"))
        };
        let xlen = usize_of("xlen")?;
        let rlen = usize_of("rlen")?;
        let expected = xlen
            .checked_add(rlen)
            .and_then(|words| words.checked_mul(8))
            .ok_or_else(|| format!("xlen {xlen} + rlen {rlen} words overflow the payload size"))?;
        if payload.len() != expected {
            return Err(format!(
                "payload is {} bytes, expected {expected}",
                payload.len()
            ));
        }
        let lambda = bits_of("lambda")?;
        if !lambda.is_finite() {
            return Err(format!("non-finite \"lambda\" {lambda}"));
        }
        let mut x: Vec<f64> = payload
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        if let Some(i) = x.iter().position(|v| !v.is_finite()) {
            let (name, at) = if i < xlen {
                ("x", i)
            } else {
                ("residual", i - xlen)
            };
            return Err(format!(
                "non-finite {name}[{at}] (payload word {i}): {}",
                x[i]
            ));
        }
        let residual = x.split_off(xlen);
        Ok(ModelArtifact {
            family: get("family")?,
            lambda,
            m: usize_of("m")?,
            n: usize_of("n")?,
            fingerprint: hex_of("fingerprint")?,
            seed: u64_of("seed")?,
            mu: usize_of("mu")?,
            s: usize_of("s")?,
            sampling: parse_sampling(&get("sampling")?)?,
            iters: usize_of("iters")?,
            initial_obj: bits_of("initial_obj")?,
            final_obj: bits_of("final_obj")?,
            x,
            residual,
        })
    }

    /// Write the artifact to disk.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Load an artifact from disk.
    pub fn load(path: &std::path::Path) -> std::io::Result<ModelArtifact> {
        let bytes = std::fs::read(path)?;
        ModelArtifact::decode(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prox::Lasso;
    use datagen::{planted_regression, uniform_sparse};

    fn problem(seed: u64) -> Dataset {
        let a = uniform_sparse(120, 40, 0.2, seed);
        planted_regression(a, 4, 0.05, seed).dataset
    }

    fn cfg() -> LassoConfig {
        LassoConfig {
            mu: 4,
            s: 8,
            seed: 7,
            max_iters: 96,
            trace_every: 0,
            ..Default::default()
        }
    }

    #[test]
    fn encode_decode_roundtrips_bitwise() {
        let ds = problem(1);
        let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &cfg());
        assert!(art.resumable());
        assert_eq!(art.iters, 96);
        let back = ModelArtifact::decode(&art.encode()).expect("decode");
        assert_eq!(art, back);
    }

    #[test]
    fn train_matches_sa_bcd_bitwise() {
        // The artifact trainer is the same driver run as seq::sa_bcd —
        // capturing the residual must not perturb a single bit.
        let ds = problem(2);
        let c = LassoConfig {
            lambda: 0.1,
            ..cfg()
        };
        let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &c);
        let direct = crate::seq::sa_bcd(&ds, &Lasso::new(0.1), &c);
        assert_eq!(art.x, direct.x);
        assert_eq!(art.final_obj.to_bits(), direct.final_value().to_bits());
    }

    #[test]
    fn fingerprint_is_value_sensitive() {
        let ds = problem(3);
        let f1 = dataset_fingerprint(&ds);
        assert_eq!(f1, dataset_fingerprint(&ds));
        let mut ds2 = ds.clone();
        ds2.b[0] += 1e-12;
        assert_ne!(f1, dataset_fingerprint(&ds2));
    }

    /// A valid encoding with one header value replaced.
    fn with_header(bytes: &[u8], key: &str, value: &str) -> Vec<u8> {
        let split = bytes.windows(2).position(|w| w == b"\n\n").unwrap();
        let head = std::str::from_utf8(&bytes[..split]).unwrap();
        let prefix = format!("{key}=");
        let head: Vec<String> = head
            .lines()
            .map(|l| match l.starts_with(&prefix) {
                true => format!("{prefix}{value}"),
                false => l.to_string(),
            })
            .collect();
        let mut out = head.join("\n").into_bytes();
        out.extend_from_slice(&bytes[split..]);
        out
    }

    fn trained() -> ModelArtifact {
        ModelArtifact::train_lasso(&problem(5), &Lasso::new(0.2), 0.2, &cfg())
    }

    #[test]
    fn decode_rejects_payload_lengths_that_overflow() {
        let bytes = trained().encode();
        for (key, value) in [
            ("xlen", usize::MAX),
            ("rlen", usize::MAX),
            ("xlen", usize::MAX / 8),
        ] {
            let err = ModelArtifact::decode(&with_header(&bytes, key, &value.to_string()))
                .expect_err("overflowing length");
            assert!(err.contains("overflow"), "{key}={value}: {err}");
        }
    }

    #[test]
    fn decode_rejects_a_non_finite_lambda() {
        let bytes = trained().encode();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = with_header(&bytes, "lambda", &format!("{:016x}", v.to_bits()));
            let err = ModelArtifact::decode(&bad).expect_err("non-finite lambda");
            assert!(err.contains("\"lambda\""), "{err}");
        }
    }

    #[test]
    fn decode_rejects_a_non_finite_x_word() {
        let mut art = trained();
        art.x[3] = f64::INFINITY;
        let err = ModelArtifact::decode(&art.encode()).expect_err("non-finite x");
        assert!(
            err.contains("x[3]") && err.contains("payload word 3"),
            "{err}"
        );
    }

    #[test]
    fn decode_rejects_a_non_finite_residual_word() {
        let mut art = trained();
        assert!(art.resumable(), "the residual is carried");
        art.residual[5] = f64::NAN;
        let err = ModelArtifact::decode(&art.encode()).expect_err("non-finite residual");
        let word = art.x.len() + 5;
        assert!(err.contains("residual[5]"), "{err}");
        assert!(err.contains(&format!("payload word {word}")), "{err}");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ModelArtifact::decode(b"not-a-model\n\n").is_err());
        let ds = problem(4);
        let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.2), 0.2, &cfg());
        let mut bytes = art.encode();
        bytes.truncate(bytes.len() - 4); // torn payload
        assert!(ModelArtifact::decode(&bytes).is_err());
    }
}
