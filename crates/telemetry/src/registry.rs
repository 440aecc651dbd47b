//! The metrics registry: counters, gauges, fixed-bucket histograms,
//! per-rank phase tables, and wall-clock spans.
//!
//! Everything deterministic lives in `BTreeMap`s so iteration — and
//! therefore every emitted byte — is ordered and reproducible. Wall-clock
//! measurements are quarantined in their own section ([`Registry::wall`])
//! precisely because they are *not* reproducible; emitters exclude them
//! unless asked.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::phase::{Phase, PhaseTable};

/// A fixed-bucket histogram: bucket `i` counts observations
/// `v <= bounds[i]`; the final implicit bucket counts the rest.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Histogram {
    /// A histogram with the given strictly increasing upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            total: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.total += 1;
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; one longer than `bounds()` (overflow bucket
    /// last).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Fold another histogram with identical bounds into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different buckets"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.total += other.total;
    }
}

/// Accumulated wall-clock time for one named span.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WallStat {
    /// Number of completed spans.
    pub count: u64,
    /// Total elapsed wall-clock seconds.
    pub total_secs: f64,
}

/// RAII wall-clock timer: measures from construction to drop and folds
/// the elapsed time into the registry's wall section under its name.
///
/// Obtained from [`Registry::wall_span`]; holds only a shared borrow so
/// the registry's deterministic sections stay usable inside the span.
pub struct WallSpan<'a> {
    sink: &'a RefCell<BTreeMap<&'static str, WallStat>>,
    name: &'static str,
    start: Instant,
}

impl Drop for WallSpan<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_secs_f64();
        let mut wall = self.sink.borrow_mut();
        let stat = wall.entry(self.name).or_default();
        stat.count += 1;
        stat.total_secs += elapsed;
    }
}

/// The metrics registry. One per attribution domain — typically one per
/// simulated rank, merged into a run-level registry afterwards.
#[derive(Debug, Default)]
pub struct Registry {
    meta: BTreeMap<String, String>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    ranks: BTreeMap<usize, PhaseTable>,
    /// Keyed by the spans' static names, so a span allocates nothing once
    /// its name has an entry.
    wall: RefCell<BTreeMap<&'static str, WallStat>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a key/value annotation (solver name, seed, P, s, …).
    pub fn set_meta(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.insert(key.to_string(), value.to_string());
    }

    /// The annotations, ordered by key.
    pub fn meta(&self) -> &BTreeMap<String, String> {
        &self.meta
    }

    /// Add `delta` to a monotone counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        // get_mut first: no String allocation on the hot (existing) path
        match self.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current counter value (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, ordered by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Set a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        // As `counter_add`: an existing key allocates no `String`.
        match self.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Current gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All gauges, ordered by name.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// Register a fixed-bucket histogram. Idempotent for identical
    /// bounds; panics on a bounds mismatch (that would corrupt merges).
    pub fn register_histogram(&mut self, name: &str, bounds: &[f64]) {
        match self.histograms.get(name) {
            Some(existing) => assert_eq!(
                existing.bounds(),
                bounds,
                "histogram {name:?} re-registered with different buckets"
            ),
            None => {
                self.histograms
                    .insert(name.to_string(), Histogram::new(bounds));
            }
        }
    }

    /// Record an observation into a registered histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram {name:?} not registered"))
            .observe(value);
    }

    /// All histograms, ordered by name.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// The phase table for `rank`, created empty on first touch.
    pub fn phases_mut(&mut self, rank: usize) -> &mut PhaseTable {
        self.ranks.entry(rank).or_default()
    }

    /// The phase table for `rank`, if any time was attributed to it.
    pub fn phases(&self, rank: usize) -> Option<&PhaseTable> {
        self.ranks.get(&rank)
    }

    /// Every rank's phase table, ordered by rank.
    pub fn rank_tables(&self) -> &BTreeMap<usize, PhaseTable> {
        &self.ranks
    }

    /// Attribute simulated time (plus volume) to a phase of a rank.
    pub fn record_phase(&mut self, rank: usize, phase: Phase, time: f64, words: u64, flops: u64) {
        self.phases_mut(rank).record_full(phase, time, words, flops);
    }

    /// All ranks folded into a single table.
    pub fn phase_totals(&self) -> PhaseTable {
        let mut total = PhaseTable::new();
        for table in self.ranks.values() {
            total.merge(table);
        }
        total
    }

    /// The critical rank: highest `comp_time`, ties toward the highest
    /// rank index — the same rule `mpisim`'s cost reports use to pick the
    /// critical path, so the two reports name the same rank.
    pub fn critical_rank(&self) -> Option<usize> {
        self.ranks
            .iter()
            .max_by(|(i, a), (j, b)| {
                a.comp_time()
                    .partial_cmp(&b.comp_time())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(i.cmp(j))
            })
            .map(|(&rank, _)| rank)
    }

    /// Start an RAII wall-clock span. The elapsed time lands in the wall
    /// section — never in the deterministic phase tables.
    pub fn wall_span(&self, name: &'static str) -> WallSpan<'_> {
        WallSpan {
            sink: &self.wall,
            name,
            start: Instant::now(),
        }
    }

    /// Snapshot of the wall section, ordered by span name.
    pub fn wall(&self) -> BTreeMap<String, WallStat> {
        let wall = self.wall.borrow();
        wall.iter().map(|(&k, &v)| (k.to_string(), v)).collect()
    }

    /// Fold another registry into this one. Counters, histograms, phase
    /// tables and wall stats add; gauges take the other side's value
    /// (latest-wins); meta keys from `other` overwrite. Counter/phase
    /// merging is associative and commutative, so per-rank registries
    /// can be combined in any order or grouping.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.meta {
            self.meta.insert(k.clone(), v.clone());
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        for (&rank, table) in &other.ranks {
            self.ranks.entry(rank).or_default().merge(table);
        }
        let other_wall = other.wall.borrow();
        let mut wall = self.wall.borrow_mut();
        for (k, stat) in other_wall.iter() {
            let mine = wall.entry(*k).or_default();
            mine.count += stat.count;
            mine.total_secs += stat.total_secs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = Registry::new();
        assert_eq!(r.counter("iters"), 0);
        r.counter_add("iters", 3);
        r.counter_add("iters", 4);
        assert_eq!(r.counter("iters"), 7);
    }

    #[test]
    fn gauges_latest_wins() {
        let mut r = Registry::new();
        assert_eq!(r.gauge("obj"), None);
        r.gauge_set("obj", 2.5);
        r.gauge_set("obj", 1.25);
        assert_eq!(r.gauge("obj"), Some(1.25));
    }

    #[test]
    fn histogram_buckets_observe_correctly() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 1.0, 2.0, 100.0] {
            h.observe(v);
        }
        // <=1.0: {0.5, 1.0}; <=10.0: {2.0}; overflow: {100.0}
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.sum(), 103.5);
    }

    #[test]
    fn histogram_merge_requires_same_bounds() {
        let mut a = Histogram::new(&[1.0]);
        let mut b = Histogram::new(&[1.0]);
        a.observe(0.5);
        b.observe(2.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "different buckets")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0]);
        a.merge(&Histogram::new(&[2.0]));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn observe_unregistered_panics() {
        Registry::new().observe("missing", 1.0);
    }

    #[test]
    fn phase_recording_and_critical_rank() {
        let mut r = Registry::new();
        r.record_phase(0, Phase::Comp, 2.0, 0, 100);
        r.record_phase(1, Phase::Comp, 5.0, 0, 200);
        r.record_phase(2, Phase::Comp, 5.0, 0, 200);
        r.record_phase(2, Phase::Comm, 1.0, 64, 0);
        // ranks 1 and 2 tie on comp; the rule picks the higher index
        assert_eq!(r.critical_rank(), Some(2));
        let totals = r.phase_totals();
        assert_eq!(totals.comp_time(), 12.0);
        assert_eq!(totals.comm_time(), 1.0);
    }

    #[test]
    fn wall_span_records_on_drop() {
        let r = Registry::new();
        {
            let _outer = r.wall_span("solve");
            let _inner = r.wall_span("solve");
        }
        let wall = r.wall();
        assert_eq!(wall["solve"].count, 2);
        assert!(wall["solve"].total_secs >= 0.0);
    }

    #[test]
    fn merge_combines_every_section() {
        let mut a = Registry::new();
        a.set_meta("solver", "sa-accbcd");
        a.counter_add("iters", 10);
        a.gauge_set("obj", 3.0);
        a.register_histogram("lat", &[1.0]);
        a.observe("lat", 0.5);
        a.record_phase(0, Phase::Comm, 1.0, 8, 0);

        let mut b = Registry::new();
        b.counter_add("iters", 5);
        b.gauge_set("obj", 2.0);
        b.register_histogram("lat", &[1.0]);
        b.observe("lat", 4.0);
        b.record_phase(0, Phase::Comm, 2.0, 16, 0);
        b.record_phase(1, Phase::Idle, 0.25, 0, 0);
        {
            let _s = b.wall_span("solve");
        }

        a.merge(&b);
        assert_eq!(a.counter("iters"), 15);
        assert_eq!(a.gauge("obj"), Some(2.0));
        assert_eq!(a.histograms()["lat"].counts(), &[1, 1]);
        assert_eq!(a.phases(0).unwrap().comm_time(), 3.0);
        assert_eq!(a.phases(1).unwrap().idle_time(), 0.25);
        assert_eq!(a.wall()["solve"].count, 1);
        assert_eq!(a.meta()["solver"], "sa-accbcd");
    }

    #[test]
    fn merge_order_does_not_matter_for_deterministic_sections() {
        let make = |n: u64, t: f64| {
            let mut r = Registry::new();
            r.counter_add("c", n);
            r.record_phase(0, Phase::Gram, t, 0, n);
            r
        };
        let (x, y, z) = (make(1, 1.0), make(2, 2.0), make(4, 4.0));

        let mut left = Registry::new();
        left.merge(&x);
        left.merge(&y);
        left.merge(&z);

        let mut xy = Registry::new();
        xy.merge(&y);
        xy.merge(&x);
        let mut right = Registry::new();
        right.merge(&z);
        right.merge(&xy);

        assert_eq!(left.counter("c"), right.counter("c"));
        assert_eq!(left.phase_totals(), right.phase_totals());
    }
}
