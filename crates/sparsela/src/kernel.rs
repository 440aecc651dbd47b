//! Kernel functions and the bounded kernel-row tile cache for the
//! kernel solver family (K-DCD / K-BDCD).
//!
//! Kernel methods never materialize the `m × m` Gram matrix `K`. The
//! solvers work from *rows* `K(i, ·)` built in two stages: a local
//! dot-product pass `⟨aᵢ, aₗ⟩` over this rank's feature block (summed
//! across ranks by the engine's fused allreduce) and a replicated entry
//! transform [`KernelFn::eval`] applied to the now-global dots. Finished
//! rows are admitted to a [`KernelCache`] so rows that recur across
//! sampled blocks skip both stages entirely — the cache is the kernel
//! analogue of the shard cache in [`crate::shard`], and borrows its
//! two-epoch pin contract.
//!
//! # Determinism
//!
//! Cache *state is a pure function of the admit sequence*: lookups
//! ([`KernelCache::row`]) never touch recency, and admission/eviction
//! happen only in [`KernelCache::begin_epoch`], which the solver calls
//! once per block in block order on every engine, whether or not it
//! overlaps the exchange with the next block. Hit/miss patterns — and
//! therefore every float that travels or is computed — are identical
//! across `seq`/`sim`/`net`.

use std::collections::{HashMap, VecDeque};

/// A positive-definite kernel on sparse feature vectors, evaluated from
/// the dot product `⟨aᵢ, aⱼ⟩` (and, for RBF, the squared norms `‖aᵢ‖²`,
/// `‖aⱼ‖²` — so only dot products ever cross ranks).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelFn {
    /// `K(i,j) = ⟨aᵢ, aⱼ⟩` — recovers the linear solvers in dual form.
    Linear,
    /// `K(i,j) = (γ·⟨aᵢ, aⱼ⟩ + c₀)^d`.
    Polynomial {
        /// Scale γ applied to the dot product.
        gamma: f64,
        /// Additive constant c₀.
        coef0: f64,
        /// Integer degree d ≥ 1.
        degree: u32,
    },
    /// `K(i,j) = exp(−γ‖aᵢ − aⱼ‖²) = exp(−γ(‖aᵢ‖² + ‖aⱼ‖² − 2⟨aᵢ,aⱼ⟩))`.
    Rbf {
        /// Bandwidth γ > 0.
        gamma: f64,
    },
}

impl KernelFn {
    /// Parse a CLI kernel spec: `linear`, `rbf[:gamma=G]`, or
    /// `poly[:d=D][,gamma=G][,coef0=C]` (defaults: γ=1, c₀=1, d=3).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (name, params) = match spec.split_once(':') {
            Some((n, p)) => (n, p),
            None => (spec, ""),
        };
        let mut gamma = 1.0;
        let mut coef0 = 1.0;
        let mut degree = 3u32;
        for kv in params.split(',').filter(|s| !s.is_empty()) {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("kernel parameter `{kv}` is not key=value"))?;
            match k {
                "gamma" => gamma = v.parse().map_err(|e| format!("gamma: {e}"))?,
                "coef0" => coef0 = v.parse().map_err(|e| format!("coef0: {e}"))?,
                "d" | "degree" => degree = v.parse().map_err(|e| format!("degree: {e}"))?,
                _ => return Err(format!("unknown kernel parameter `{k}`")),
            }
        }
        match name {
            "linear" => Ok(KernelFn::Linear),
            "poly" | "polynomial" => {
                if degree == 0 {
                    return Err("polynomial degree must be ≥ 1".into());
                }
                Ok(KernelFn::Polynomial {
                    gamma,
                    coef0,
                    degree,
                })
            }
            "rbf" => {
                if gamma <= 0.0 || gamma.is_nan() {
                    return Err("rbf gamma must be > 0".into());
                }
                Ok(KernelFn::Rbf { gamma })
            }
            _ => Err(format!("unknown kernel `{name}` (linear|poly|rbf)")),
        }
    }

    /// Transform one global dot product into a kernel entry.
    #[inline]
    pub fn eval(&self, dot: f64, ni: f64, nj: f64) -> f64 {
        match *self {
            KernelFn::Linear => dot,
            KernelFn::Polynomial {
                gamma,
                coef0,
                degree,
            } => (gamma * dot + coef0).powi(degree as i32),
            KernelFn::Rbf { gamma } => (-gamma * (ni + nj - 2.0 * dot)).exp(),
        }
    }

    /// Whether [`Self::eval`] reads the squared-norm arguments — true
    /// only for RBF, which then needs one global norms pass at init
    /// ([`crate::SliceSource::major_norms_into`] + engine reduction).
    pub fn needs_norms(&self) -> bool {
        matches!(self, KernelFn::Rbf { .. })
    }

    /// Modeled flops per transformed entry (cost-model input, not a
    /// measurement): 0 for linear (the dot is already charged), `3 + d`
    /// for polynomial, and 10 for RBF with `exp` priced at 8.
    pub fn eval_flops(&self) -> u64 {
        match *self {
            KernelFn::Linear => 0,
            KernelFn::Polynomial { degree, .. } => 3 + degree as u64,
            KernelFn::Rbf { .. } => 10,
        }
    }
}

/// Lifetime counters for a [`KernelCache`] (the `kmethod.cache.*`
/// gauges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCacheStats {
    /// Distinct selected rows already resident at `begin_epoch`.
    pub hits: u64,
    /// Distinct selected rows that had to be built (and communicated).
    pub misses: u64,
    /// Resident rows dropped to stay within the row budget.
    pub evictions: u64,
}

enum Slot {
    /// Admitted this epoch; the transformed row arrives via `fill` after
    /// the exchange.
    Promised,
    Ready(Vec<f64>),
}

struct Entry {
    slot: Slot,
    pin_epoch: u64,
}

/// A bounded cache of transformed kernel rows `K(i, ·) ∈ ℝᵐ`, keyed by
/// row index, with FIFO-by-admission eviction and a two-epoch pin
/// contract (an epoch = one sampled block): rows selected in epoch `e`
/// stay resident through epoch `e + 1`, because on an overlapping engine the
/// next block's misses are resolved while the current block's rows are
/// still feeding the inner recurrence and the rank-1 margin updates.
///
/// Admission is *promised-key*: `begin_epoch` reserves the key and
/// reports the miss; the row's floats arrive later via [`Self::fill`]
/// once the allreduce has made the dots global. Eviction counts rows,
/// not bytes — every row costs exactly `8·m` bytes — and never touches
/// a pinned row, so the budget is soft when a block pins more rows than
/// it allows (correctness over memory, exactly like the shard cache).
pub struct KernelCache {
    m: usize,
    capacity_rows: usize,
    epoch: u64,
    entries: HashMap<usize, Entry>,
    order: VecDeque<usize>,
    stats: KernelCacheStats,
}

impl KernelCache {
    /// A cache for length-`m` rows under `budget_bytes` of row storage
    /// (at least one row).
    pub fn new(m: usize, budget_bytes: usize) -> Self {
        assert!(m > 0, "kernel rows must be non-empty");
        Self {
            m,
            capacity_rows: (budget_bytes / (8 * m)).max(1),
            epoch: 0,
            entries: HashMap::new(),
            order: VecDeque::new(),
            stats: KernelCacheStats::default(),
        }
    }

    /// Open the next epoch for the block selection `sel`: pin every
    /// distinct selected row, admit the absent ones as promised keys,
    /// evict unpinned rows beyond the budget, and return the distinct
    /// missing indices in first-occurrence order — the rows the caller
    /// must build and [`Self::fill`].
    pub fn begin_epoch(&mut self, sel: &[usize]) -> Vec<usize> {
        self.epoch += 1;
        let mut misses = Vec::new();
        for &i in sel {
            match self.entries.get_mut(&i) {
                Some(e) => {
                    if e.pin_epoch < self.epoch {
                        self.stats.hits += 1;
                    }
                    e.pin_epoch = self.epoch;
                }
                None => {
                    self.stats.misses += 1;
                    self.entries.insert(
                        i,
                        Entry {
                            slot: Slot::Promised,
                            pin_epoch: self.epoch,
                        },
                    );
                    self.order.push_back(i);
                    misses.push(i);
                }
            }
        }
        let mut k = 0;
        while self.order.len() > self.capacity_rows && k < self.order.len() {
            let i = self.order[k];
            if self.entries[&i].pin_epoch + 2 > self.epoch {
                k += 1;
                continue;
            }
            self.order.remove(k);
            self.entries.remove(&i);
            self.stats.evictions += 1;
        }
        misses
    }

    /// Fulfill a promise from `begin_epoch` with the transformed row.
    pub fn fill(&mut self, i: usize, row: Vec<f64>) {
        assert_eq!(row.len(), self.m, "kernel row length");
        let e = self.entries.get_mut(&i).expect("fill of unpromised row");
        assert!(
            matches!(e.slot, Slot::Promised),
            "row {i} filled while already ready"
        );
        e.slot = Slot::Ready(row);
    }

    /// Borrow the resident row `K(i, ·)`. Read-pure: no recency update,
    /// so lookups cannot perturb the admit-sequence determinism.
    pub fn row(&self, i: usize) -> &[f64] {
        match self.entries.get(&i) {
            Some(Entry {
                slot: Slot::Ready(r),
                ..
            }) => r,
            Some(_) => panic!("row {i} is promised but not yet filled"),
            None => panic!("row {i} is not resident"),
        }
    }

    /// Lifetime hit/miss/eviction counters.
    pub fn stats(&self) -> KernelCacheStats {
        self.stats
    }

    /// Bytes of row storage currently admitted (promised rows count at
    /// their final size — admission is the commitment).
    pub fn resident_bytes(&self) -> u64 {
        (self.order.len() * 8 * self.m) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_specs() {
        assert_eq!(KernelFn::parse("linear").unwrap(), KernelFn::Linear);
        assert_eq!(
            KernelFn::parse("rbf:gamma=0.25").unwrap(),
            KernelFn::Rbf { gamma: 0.25 }
        );
        assert_eq!(
            KernelFn::parse("poly:d=2,gamma=0.5,coef0=0.0").unwrap(),
            KernelFn::Polynomial {
                gamma: 0.5,
                coef0: 0.0,
                degree: 2
            }
        );
        assert!(KernelFn::parse("rbf:gamma=-1").is_err());
        assert!(KernelFn::parse("poly:d=0").is_err());
        assert!(KernelFn::parse("tanh").is_err());
        assert!(KernelFn::parse("rbf:gamma").is_err());
    }

    #[test]
    fn eval_matches_closed_forms() {
        let lin = KernelFn::Linear;
        assert_eq!(lin.eval(3.5, 9.0, 9.0), 3.5);
        let poly = KernelFn::parse("poly:d=2,gamma=2.0,coef0=1.0").unwrap();
        assert_eq!(poly.eval(3.0, 0.0, 0.0), 49.0);
        let rbf = KernelFn::Rbf { gamma: 0.5 };
        // ‖a−b‖² = 4 + 9 − 2·6 = 1 → exp(−0.5).
        let v = rbf.eval(6.0, 4.0, 9.0);
        assert!((v - (-0.5f64).exp()).abs() < 1e-15);
        // K(i,i) = 1 exactly for RBF.
        assert_eq!(rbf.eval(4.0, 4.0, 4.0), 1.0);
        assert!(rbf.needs_norms() && !lin.needs_norms() && !poly.needs_norms());
    }

    #[test]
    fn cache_hits_misses_and_promises() {
        let mut c = KernelCache::new(4, 8 * 4 * 16);
        assert_eq!(c.begin_epoch(&[2, 5, 2]), vec![2, 5]);
        c.fill(2, vec![0.0; 4]);
        c.fill(5, vec![1.0; 4]);
        assert_eq!(c.row(5), &[1.0; 4]);
        // Second epoch: one hit (duplicates don't double-count), one miss.
        assert_eq!(c.begin_epoch(&[5, 5, 7]), vec![7]);
        c.fill(7, vec![2.0; 4]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 0));
    }

    #[test]
    fn eviction_is_fifo_and_respects_two_epoch_pins() {
        // Budget of 2 rows of length 2.
        let mut c = KernelCache::new(2, 8 * 2 * 2);
        assert_eq!(c.begin_epoch(&[0, 1]), vec![0, 1]);
        c.fill(0, vec![0.0; 2]);
        c.fill(1, vec![0.0; 2]);
        // Epoch 2 admits a third row; 0 and 1 are pinned from epoch 1, so
        // the budget is soft — nothing can be evicted yet.
        assert_eq!(c.begin_epoch(&[3]), vec![3]);
        c.fill(3, vec![0.0; 2]);
        assert_eq!(c.resident_bytes(), 48);
        assert_eq!(c.stats().evictions, 0);
        // Epoch 3: rows 0/1 (pinned in epoch 1) are now evictable; FIFO
        // drops row 0 first, then row 1, back down to the budget.
        assert_eq!(c.begin_epoch(&[3]), Vec::<usize>::new());
        assert_eq!(c.stats().evictions, 1);
        c.row(3);
        c.row(1);
        // Epoch 4: new pressure; row 1 (pinned in epoch 1 — reads are
        // pin-neutral) is the next FIFO eviction.
        assert_eq!(c.begin_epoch(&[4]), vec![4]);
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.resident_bytes(), 32);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn evicted_row_read_panics() {
        let mut c = KernelCache::new(1, 8);
        c.begin_epoch(&[0]);
        c.fill(0, vec![0.0]);
        c.begin_epoch(&[1]);
        c.fill(1, vec![0.0]);
        c.begin_epoch(&[2]);
        c.fill(2, vec![0.0]);
        c.begin_epoch(&[2]);
        c.row(0);
    }
}
