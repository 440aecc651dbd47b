//! Deterministic fault and perturbation injection for the virtual cluster.
//!
//! The paper's case for SA methods rests on the latency term dominating at
//! scale and on load imbalance "decreas[ing] the effective flops rate"
//! (§VI) — effects a *clean* simulated machine cannot exhibit. This module
//! injects them on purpose, deterministically: per-rank compute-rate skew,
//! per-collective latency jitter, transient rank stalls (stragglers), and
//! an optional fail-stop rank fault recovered from the last outer-loop
//! checkpoint.
//!
//! Chaos perturbs **time, never values**. Every injected quantity is a
//! pure function of `(seed, stream, rank, index)` — a counter-based
//! [`SplitMix64`] hash with no shared mutable generator — so the schedule
//! is identical across runs, thread counts, and overlap settings, and a
//! chaos run's solution is bitwise identical to the unperturbed run's.

use xrng::SplitMix64;

/// Ceiling on one injected transient stall. Chosen ≫ the Cray XC30 α
/// (8 µs) so a stall is visible against real collective latency but does
/// not dwarf a whole outer block.
pub const MAX_STALL_SECS: f64 = 1e-3;

/// Fixed cost of restarting a failed rank from the last checkpoint, on
/// top of redoing the lost block (process respawn + state reload).
pub const RESTART_OVERHEAD_SECS: f64 = 1e-2;

/// Parsed `--chaos` specification: which perturbations to inject and how
/// hard. All intensities default to zero (a zero spec injects nothing but
/// still exercises the checkpoint path and emits `chaos.*` telemetry).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosSpec {
    /// Master seed for every injected schedule.
    pub seed: u64,
    /// Per-rank compute-rate skew: rank `r` runs `1 + skew·u_r` slower,
    /// `u_r` uniform in `[0, 1)`. `0.1` ⇒ up to 10% slower ranks.
    pub skew: f64,
    /// Per-collective latency jitter in seconds: each collective costs an
    /// extra `jitter·u` (program-order draw, identical on all ranks).
    pub jitter: f64,
    /// Transient-stall probability per `(rank, collective)`: with this
    /// probability the rank stalls up to [`MAX_STALL_SECS`] at entry.
    pub straggle: f64,
    /// Optional fail-stop fault: `(rank, step)` — the rank dies during
    /// outer block `step` and recovers from the previous checkpoint.
    pub fail: Option<(usize, usize)>,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            skew: 0.0,
            jitter: 0.0,
            straggle: 0.0,
            fail: None,
        }
    }
}

impl ChaosSpec {
    /// Parse the CLI form
    /// `seed=…,skew=…,jitter=…,straggle=…,fail=rank@step` — every key
    /// optional, any order, comma-separated.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = Self::default();
        for field in s.split(',').filter(|f| !f.is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("chaos field `{field}` is not key=value"))?;
            match key.trim() {
                "seed" => {
                    spec.seed = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("chaos seed `{value}`: {e}"))?;
                }
                "skew" => spec.skew = parse_intensity("skew", value)?,
                "jitter" => spec.jitter = parse_intensity("jitter", value)?,
                "straggle" => {
                    let p = parse_intensity("straggle", value)?;
                    if p > 1.0 {
                        return Err(format!("chaos straggle `{value}` must be ≤ 1"));
                    }
                    spec.straggle = p;
                }
                "fail" => {
                    let (rank, step) = value
                        .trim()
                        .split_once('@')
                        .ok_or_else(|| format!("chaos fail `{value}` is not rank@step"))?;
                    let rank = rank
                        .parse()
                        .map_err(|e| format!("chaos fail rank `{rank}`: {e}"))?;
                    let step = step
                        .parse()
                        .map_err(|e| format!("chaos fail step `{step}`: {e}"))?;
                    spec.fail = Some((rank, step));
                }
                other => return Err(format!("unknown chaos key `{other}`")),
            }
        }
        Ok(spec)
    }
}

fn parse_intensity(key: &str, value: &str) -> Result<f64, String> {
    let v: f64 = value
        .trim()
        .parse()
        .map_err(|e| format!("chaos {key} `{value}`: {e}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("chaos {key} `{value}` must be finite and ≥ 0"));
    }
    Ok(v)
}

// Stream tags keep the three schedules statistically independent even at
// equal (rank, index).
const STREAM_SKEW: u64 = 1;
const STREAM_JITTER: u64 = 2;
const STREAM_STALL: u64 = 3;

// Large odd multipliers (SplitMix64 / Murmur3 finalizer constants) spread
// the low-entropy (stream, rank, index) triples across the key space.
const K_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;
const K_RANK: u64 = 0xBF58_476D_1CE4_E5B9;
const K_INDEX: u64 = 0x94D0_49BB_1331_11EB;

/// The replayable injection schedule derived from a [`ChaosSpec`].
///
/// Every draw is **counter-based**: a fresh [`SplitMix64`] keyed by
/// `(seed, stream, rank, index)`, so no engine, rank, or thread ever
/// shares generator state and the schedule cannot depend on execution
/// order.
#[derive(Clone, Copy, Debug)]
pub struct ChaosPlan {
    spec: ChaosSpec,
}

impl ChaosPlan {
    /// Plan for the given spec.
    pub fn new(spec: &ChaosSpec) -> Self {
        Self { spec: *spec }
    }

    /// The spec this plan replays.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    fn draw(&self, stream: u64, rank: u64, index: u64) -> SplitMix64 {
        SplitMix64::new(
            self.spec.seed
                ^ stream.wrapping_mul(K_STREAM)
                ^ rank.wrapping_mul(K_RANK)
                ^ index.wrapping_mul(K_INDEX),
        )
    }

    /// Rank `r`'s compute-time multiplier, fixed for the whole run:
    /// `1 + skew·u_r ∈ [1, 1 + skew)`.
    pub fn skew_mult(&self, rank: usize) -> f64 {
        if self.spec.skew == 0.0 {
            return 1.0;
        }
        1.0 + self.spec.skew * unit(self.draw(STREAM_SKEW, rank as u64, 0).next_u64())
    }

    /// Extra latency (seconds) on the `index`-th collective, identical on
    /// every rank (program-order draw).
    pub fn jitter(&self, index: u64) -> f64 {
        if self.spec.jitter == 0.0 {
            return 0.0;
        }
        self.spec.jitter * unit(self.draw(STREAM_JITTER, 0, index).next_u64())
    }

    /// Transient stall (seconds, possibly zero) injected on rank `rank` at
    /// entry to the `index`-th collective.
    pub fn stall(&self, rank: usize, index: u64) -> f64 {
        if self.spec.straggle == 0.0 {
            return 0.0;
        }
        let mut g = self.draw(STREAM_STALL, rank as u64, index);
        if unit(g.next_u64()) < self.spec.straggle {
            unit(g.next_u64()) * MAX_STALL_SECS
        } else {
            0.0
        }
    }

    /// Whether rank `rank` fail-stops during outer block `step`.
    pub fn fails_at(&self, rank: usize, step: usize) -> bool {
        self.spec.fail == Some((rank, step))
    }
}

/// Map a raw 64-bit draw to uniform `[0, 1)` (53 mantissa bits).
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let spec = ChaosSpec::parse("seed=7,skew=0.1,jitter=2e-5,straggle=0.01,fail=3@5")
            .expect("valid spec");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.skew, 0.1);
        assert_eq!(spec.jitter, 2e-5);
        assert_eq!(spec.straggle, 0.01);
        assert_eq!(spec.fail, Some((3, 5)));
    }

    #[test]
    fn parse_partial_and_empty_specs() {
        assert_eq!(
            ChaosSpec::parse("").expect("empty ok"),
            ChaosSpec::default()
        );
        let spec = ChaosSpec::parse("jitter=1e-4").expect("partial ok");
        assert_eq!(spec.jitter, 1e-4);
        assert_eq!(spec.skew, 0.0);
        assert_eq!(spec.fail, None);
    }

    #[test]
    fn parse_rejects_malformed_fields() {
        assert!(ChaosSpec::parse("skew").is_err());
        assert!(ChaosSpec::parse("warp=9").is_err());
        assert!(ChaosSpec::parse("skew=-0.1").is_err());
        assert!(ChaosSpec::parse("straggle=1.5").is_err());
        assert!(ChaosSpec::parse("fail=3").is_err());
        assert!(ChaosSpec::parse("fail=x@2").is_err());
        assert!(ChaosSpec::parse("jitter=nope").is_err());
    }

    #[test]
    fn draws_are_pure_functions_of_their_keys() {
        let plan = ChaosPlan::new(&ChaosSpec {
            seed: 42,
            skew: 0.2,
            jitter: 1e-4,
            straggle: 0.5,
            fail: None,
        });
        // Repeated evaluation returns the identical value: no hidden state.
        for rank in 0..8 {
            assert_eq!(
                plan.skew_mult(rank).to_bits(),
                plan.skew_mult(rank).to_bits()
            );
            for idx in 0..32 {
                assert_eq!(
                    plan.stall(rank, idx).to_bits(),
                    plan.stall(rank, idx).to_bits()
                );
            }
        }
        for idx in 0..32 {
            assert_eq!(plan.jitter(idx).to_bits(), plan.jitter(idx).to_bits());
        }
    }

    #[test]
    fn draws_land_in_their_documented_ranges() {
        let plan = ChaosPlan::new(&ChaosSpec {
            seed: 9,
            skew: 0.3,
            jitter: 5e-5,
            straggle: 0.4,
            fail: None,
        });
        let mut stalls = 0usize;
        for rank in 0..64 {
            let m = plan.skew_mult(rank);
            assert!((1.0..1.3).contains(&m), "skew_mult {m}");
            for idx in 0..64 {
                let s = plan.stall(rank, idx);
                assert!((0.0..=MAX_STALL_SECS).contains(&s), "stall {s}");
                stalls += usize::from(s > 0.0);
            }
        }
        for idx in 0..256 {
            let j = plan.jitter(idx);
            assert!((0.0..5e-5).contains(&j), "jitter {j}");
        }
        // straggle=0.4 over 4096 (rank, idx) pairs: stall count is near
        // the expectation; a degenerate hash would send this to 0 or 4096.
        assert!((1200..2100).contains(&stalls), "stall count {stalls}");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = ChaosPlan::new(&ChaosSpec {
            seed: 1,
            jitter: 1e-4,
            ..ChaosSpec::default()
        });
        let b = ChaosPlan::new(&ChaosSpec {
            seed: 2,
            jitter: 1e-4,
            ..ChaosSpec::default()
        });
        assert!((0..16).any(|i| a.jitter(i) != b.jitter(i)));
    }

    #[test]
    fn zero_intensities_inject_nothing() {
        let plan = ChaosPlan::new(&ChaosSpec::default());
        assert_eq!(plan.skew_mult(3), 1.0);
        assert_eq!(plan.jitter(7), 0.0);
        assert_eq!(plan.stall(2, 9), 0.0);
        assert!(!plan.fails_at(0, 0));
    }
}
