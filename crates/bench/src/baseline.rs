//! The committed performance baseline: `BENCH_baseline.json` at the repo
//! root, a `saco-telemetry/v1` run report holding one gauge per headline
//! number of the figure experiments.
//!
//! Several binaries contribute to the same file, so [`Baseline::load_or_new`]
//! merges into whatever is already on disk; gauges are overwrite-on-set, so
//! re-running a figure is idempotent. Keys are namespaced per figure
//! (`fig3.<dataset>.<series>.*`, `fig4.<dataset>.p<p>.*`) — see
//! docs/OBSERVABILITY.md for the full key inventory and how to diff two
//! baselines.

use mpisim::CostReport;
use saco_telemetry::report::{parse_summary, write_run_report};
use saco_telemetry::Registry;
use std::path::PathBuf;

/// Location of the committed baseline: `<repo root>/BENCH_baseline.json`.
pub fn repo_baseline_path() -> PathBuf {
    crate::workspace_root().join("BENCH_baseline.json")
}

/// An accumulating sink over the baseline file.
pub struct Baseline {
    registry: Registry,
    path: PathBuf,
}

impl Baseline {
    /// Open the baseline at `path`, seeding the registry with any meta,
    /// counters and gauges already recorded there (a missing or
    /// unparseable file starts fresh).
    pub fn load_or_new(path: PathBuf) -> Baseline {
        let mut registry = Registry::new();
        if let Ok(doc) = std::fs::read_to_string(&path) {
            if let Some(summary) = parse_summary(&doc) {
                summary.apply_to(&mut registry);
            }
        }
        Baseline { registry, path }
    }

    /// Open the repo-root baseline.
    pub fn load_repo() -> Baseline {
        Baseline::load_or_new(repo_baseline_path())
    }

    /// Record one gauge under `key`.
    pub fn set(&mut self, key: &str, value: f64) {
        self.registry.gauge_set(key, value);
    }

    /// Read a gauge back (also sees values loaded from disk).
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.registry.gauge(key)
    }

    /// Record the headline numbers of a simulated run's cost report under
    /// `<key>.{running_time,comm_time,comp_time,idle_time,messages,words,flops}`.
    pub fn record_report(&mut self, key: &str, rep: &CostReport) {
        self.set(&format!("{key}.running_time"), rep.running_time());
        self.set(&format!("{key}.comm_time"), rep.critical.comm_time);
        self.set(&format!("{key}.comp_time"), rep.critical.comp_time);
        self.set(&format!("{key}.idle_time"), rep.critical.idle_time);
        self.set(&format!("{key}.messages"), rep.critical.messages as f64);
        self.set(&format!("{key}.words"), rep.critical.words as f64);
        self.set(&format!("{key}.flops"), rep.critical.flops as f64);
    }

    /// Write the merged baseline back to disk and report its path.
    pub fn write(self) -> PathBuf {
        write_run_report(&self.registry, &self.path)
            .unwrap_or_else(|e| panic!("write baseline {}: {e}", self.path.display()));
        self.path
    }
}

/// Gauge keys may not contain spaces (series labels like "SA-accBCD s=16"
/// do); normalize to underscores.
pub fn key_label(label: &str) -> String {
    label.replace(' ', "_")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("saco_baseline_{}_{name}", std::process::id()))
    }

    #[test]
    fn merges_across_openings_and_overwrites_gauges() {
        let path = tmp("merge.json");
        let _ = std::fs::remove_file(&path);

        let mut b = Baseline::load_or_new(path.clone());
        b.set("fig3.a.x", 1.0);
        b.set("fig3.a.y", 2.0);
        b.write();

        // A second contributor keeps fig3 keys and overwrites on re-set.
        let mut b = Baseline::load_or_new(path.clone());
        assert_eq!(b.gauge("fig3.a.x"), Some(1.0));
        b.set("fig3.a.x", 3.0);
        b.set("fig4.b.z", 4.0);
        let written = b.write();
        assert_eq!(written, path);

        let doc = std::fs::read_to_string(&path).unwrap();
        let s = parse_summary(&doc).unwrap();
        assert_eq!(s.gauges["fig3.a.x"], 3.0);
        assert_eq!(s.gauges["fig3.a.y"], 2.0);
        assert_eq!(s.gauges["fig4.b.z"], 4.0);
        assert!(s.meta.is_empty(), "a contribution stamps no meta");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn labels_are_key_safe() {
        assert_eq!(key_label("SA-accBCD s=16"), "SA-accBCD_s=16");
        assert_eq!(key_label("classical"), "classical");
    }
}
