//! Convergence traces and solver results.

use saco_telemetry::PhaseTimes;

/// One recorded point of a convergence trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePoint {
    /// Iteration index `h` (inner iterations for SA solvers).
    pub iter: usize,
    /// The tracked value: Lasso objective, or SVM duality gap.
    pub value: f64,
    /// Simulated running time in seconds at this point (0 for purely
    /// sequential runs with no machine attached).
    pub time: f64,
    /// Cumulative comm/comp/idle attribution at this point, when the run
    /// was instrumented (`None` for plain sequential runs).
    pub phases: Option<PhaseTimes>,
}

/// Error from [`ConvergenceTrace::try_push`]: the appended iteration went
/// backwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOrderError {
    /// Iteration of the current last point.
    pub last_iter: usize,
    /// The rejected iteration.
    pub pushed_iter: usize,
}

impl std::fmt::Display for TraceOrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace iterations must be nondecreasing: {} after {}",
            self.pushed_iter, self.last_iter
        )
    }
}

impl std::error::Error for TraceOrderError {}

/// A convergence trace: the series behind the paper's Figures 2, 3 and 5.
#[derive(Clone, Debug, Default)]
pub struct ConvergenceTrace {
    points: Vec<TracePoint>,
}

impl ConvergenceTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty trace with room for every point of a run of `max_iters`
    /// iterations traced every `trace_every` (0: untraced): the start, one
    /// per multiple and the end, up to 4096 points. Within that, tracing
    /// never regrows the trace mid-run.
    pub fn for_run(max_iters: usize, trace_every: usize) -> Self {
        let points = max_iters.checked_div(trace_every).unwrap_or(0) + 2;
        ConvergenceTrace {
            points: Vec::with_capacity(points.min(4096)),
        }
    }

    /// Append a point.
    ///
    /// # Panics
    /// Panics if `iter` is smaller than the last recorded iteration — in
    /// every build profile: a backwards trace silently corrupts
    /// time-to-tolerance queries, which the figure pipeline depends on.
    pub fn push(&mut self, iter: usize, value: f64, time: f64) {
        self.try_push(iter, value, time, None)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Append a point with its cumulative phase-time attribution.
    ///
    /// # Panics
    /// Panics if `iter` goes backwards, like [`push`](Self::push).
    pub fn push_with_phases(&mut self, iter: usize, value: f64, time: f64, phases: PhaseTimes) {
        self.try_push(iter, value, time, Some(phases))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible append: rejects decreasing iterations instead of
    /// panicking.
    pub fn try_push(
        &mut self,
        iter: usize,
        value: f64,
        time: f64,
        phases: Option<PhaseTimes>,
    ) -> Result<(), TraceOrderError> {
        if let Some(last) = self.points.last() {
            if iter < last.iter {
                return Err(TraceOrderError {
                    last_iter: last.iter,
                    pushed_iter: iter,
                });
            }
        }
        self.points.push(TracePoint {
            iter,
            value,
            time,
            phases,
        });
        Ok(())
    }

    /// All recorded points.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Value at the first recorded point.
    ///
    /// # Panics
    /// Panics on an empty trace.
    pub fn initial_value(&self) -> f64 {
        self.points.first().expect("empty trace").value
    }

    /// Value at the last recorded point.
    ///
    /// # Panics
    /// Panics on an empty trace.
    pub fn final_value(&self) -> f64 {
        self.points.last().expect("empty trace").value
    }

    /// Simulated time at the last recorded point.
    pub fn final_time(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.time)
    }

    /// First simulated time at which the tracked value drops to `target`
    /// or below (the paper's time-to-tolerance comparison in Table V);
    /// `None` if never reached.
    pub fn time_to_value(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.value <= target)
            .map(|p| p.time)
    }

    /// First iteration at which the tracked value drops to `target` or
    /// below.
    pub fn iters_to_value(&self, target: f64) -> Option<usize> {
        self.points
            .iter()
            .find(|p| p.value <= target)
            .map(|p| p.iter)
    }
}

/// Result of a solver run.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// The final primal iterate `x`.
    pub x: Vec<f64>,
    /// Convergence trace of the run.
    pub trace: ConvergenceTrace,
    /// Number of (inner) iterations actually executed.
    pub iters: usize,
}

impl SolveResult {
    /// Final value of the tracked quantity.
    pub fn final_value(&self) -> f64 {
        self.trace.final_value()
    }

    /// Relative difference of the final tracked value vs another run —
    /// the paper's Table III metric `|f_nonSA − f_SA| / f_nonSA`.
    pub fn relative_error_vs(&self, other: &SolveResult) -> f64 {
        let a = self.final_value();
        let b = other.final_value();
        (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut t = ConvergenceTrace::new();
        t.push(0, 10.0, 0.0);
        t.push(5, 4.0, 0.1);
        t.push(10, 1.0, 0.2);
        assert_eq!(t.len(), 3);
        assert_eq!(t.initial_value(), 10.0);
        assert_eq!(t.final_value(), 1.0);
        assert_eq!(t.final_time(), 0.2);
        assert_eq!(t.time_to_value(4.0), Some(0.1));
        assert_eq!(t.iters_to_value(0.5), None);
        assert_eq!(t.iters_to_value(2.0), Some(10));
    }

    #[test]
    fn relative_error() {
        let mk = |v: f64| {
            let mut t = ConvergenceTrace::new();
            t.push(0, v, 0.0);
            SolveResult {
                x: vec![],
                trace: t,
                iters: 0,
            }
        };
        let a = mk(1.0);
        let b = mk(1.0 + 1e-15);
        assert!(a.relative_error_vs(&b) < 2e-15);
        assert_eq!(mk(2.0).relative_error_vs(&mk(1.0)), 1.0);
    }

    #[test]
    fn empty_trace_reports() {
        let t = ConvergenceTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.final_time(), 0.0);
        assert_eq!(t.time_to_value(0.0), None);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn push_rejects_backwards_iterations_in_all_profiles() {
        let mut t = ConvergenceTrace::new();
        t.push(5, 1.0, 0.0);
        t.push(4, 0.5, 0.1);
    }

    #[test]
    fn try_push_reports_the_violation() {
        let mut t = ConvergenceTrace::new();
        t.push(5, 1.0, 0.0);
        let err = t.try_push(3, 0.5, 0.1, None).unwrap_err();
        assert_eq!(err.last_iter, 5);
        assert_eq!(err.pushed_iter, 3);
        assert_eq!(t.len(), 1, "rejected point not recorded");
        // equal iterations stay allowed (refinement at the same h)
        t.try_push(5, 0.9, 0.2, None).unwrap();
    }

    #[test]
    fn phase_breakdown_rides_along() {
        let mut t = ConvergenceTrace::new();
        t.push(0, 2.0, 0.0);
        t.push_with_phases(4, 1.0, 0.5, PhaseTimes::new(0.2, 0.25, 0.05));
        assert_eq!(t.points()[0].phases, None);
        let p = t.points()[1].phases.expect("instrumented point");
        assert_eq!(p.comm, 0.2);
        assert!((p.total() - 0.5).abs() < 1e-15);
    }
}
