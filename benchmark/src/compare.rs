//! `compare A B`: hold result file B against result file A, one row per
//! workload × end-to-end metric, by the bounds the benchmark fixed.

use crate::json::Json;
use crate::{metrics, stats};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The files' own rep-to-rep spread is wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

/// Judge a lower-is-better metric. `base`/`new` are the medians,
/// `base_samples`/`new_samples` the repeated measurements behind them
/// (empty when a file holds a single value).
pub fn verdict(
    base: f64,
    new: f64,
    bound: f64,
    base_samples: &[f64],
    new_samples: &[f64],
) -> Verdict {
    let spread = [base_samples, new_samples]
        .iter()
        .filter_map(|s| stats::iqr_share(s))
        .fold(0.0, f64::max);
    if spread > bound {
        // Every run of the new side reading better than every run of the
        // base side is still a clear answer.
        let best_base = base_samples.iter().copied().fold(f64::INFINITY, f64::min);
        let worst_new = new_samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if !(base_samples.is_empty() || new_samples.is_empty()) && worst_new < best_base {
            return Verdict::Ok;
        }
        return Verdict::Unresolved;
    }
    if new > base * (1.0 + bound) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn nums(j: Option<&Json>) -> Vec<f64> {
    j.map(Json::as_nums).unwrap_or_default()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Returns `Ok(true)` when no row regressed and neither file lacks a
/// workload or metric the other has.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in ["nproc", "isa", "seed"] {
        let (va, vb) = (
            a.get("host").and_then(|h| h.get(key)),
            b.get("host").and_then(|h| h.get(key)),
        );
        if va != vb {
            return Err(format!(
                "the two files are not comparable: host.{key} is {} in {path_a} and {} in {path_b}",
                va.unwrap_or(&Json::Null),
                vb.unwrap_or(&Json::Null)
            ));
        }
    }
    for key in ["kind", "seconds", "quick"] {
        if a.get(key) != b.get(key) {
            return Err(format!("the two files differ in {key:?}"));
        }
    }
    let empty: [(String, Json); 0] = [];
    let workloads = |j: &Json| -> Vec<(String, Json)> {
        j.get("workloads")
            .and_then(Json::as_obj)
            .unwrap_or(&empty)
            .to_vec()
    };
    let spin = |j: &Json| -> f64 {
        let all: Vec<f64> = workloads(j)
            .iter()
            .flat_map(|(_, w)| nums(w.get("info").and_then(|i| i.get("host.spin_s"))))
            .collect();
        stats::median(&all)
    };
    println!("host.spin_s  base {:.4}  new {:.4}  (info: a fixed ALU loop; a ratio far from 1 means the host changed)", spin(&a), spin(&b));
    println!(
        "{:<20} {:<13} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    // Anything one file has and the other lacks is not a clean comparison.
    let mut clean = true;
    let (in_a, in_b) = (workloads(&a), workloads(&b));
    for (name, _) in in_b
        .iter()
        .filter(|(n, _)| in_a.iter().all(|(m, _)| m != n))
    {
        println!("{name:<20} missing from {path_a}");
        clean = false;
    }
    for (name, wa) in &in_a {
        let Some((_, wb)) = in_b.iter().find(|(n, _)| n == name) else {
            println!("{name:<20} missing from {path_b}");
            clean = false;
            continue;
        };
        for (metric, _, _, bound) in metrics::END_TO_END.iter().chain(&metrics::SERVE_LATENCY) {
            let value = |w: &Json| {
                w.get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            let (base, new) = match (value(wa), value(wb)) {
                (Some(base), Some(new)) => (base, new),
                // A metric this workload does not have.
                (None, None) => continue,
                (base, _) => {
                    let lacking = if base.is_none() { path_a } else { path_b };
                    println!("{name:<20} {metric:<13} missing from {lacking}");
                    clean = false;
                    continue;
                }
            };
            let samples = |w: &Json| nums(w.get("samples").and_then(|s| s.get(metric)));
            let v = verdict(base, new, *bound, &samples(wa), &samples(wb));
            clean &= v != Verdict::Regressed;
            println!(
                "{name:<20} {metric:<13} {base:>14.6} {new:>14.6} {:>8.4} {:>6.0}%  {}",
                new / base,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let share = |w: &Json| {
            let f = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            f("failed") / f("attempted").max(1.0)
        };
        // Absolute bound +0: any new failure is a regression.
        let (fa, fb) = (share(wa), share(wb));
        clean &= fb <= fa;
        println!(
            "{name:<20} {:<13} {fa:>14.6} {fb:>14.6} {:>8} {:>6}   {}",
            "failed_share",
            "-",
            "+0",
            if fb <= fa { "ok" } else { "regressed" }
        );
    }
    for key in ["sa_speedup", "thread_scaling", "streamed_over_inmem"] {
        let value = |j: &Json| j.get("derived").and_then(|d| d.get(key)).cloned();
        if let (Some(da), Some(db)) = (value(&a), value(&b)) {
            println!("derived {key}: base {da}  new {db}");
        }
    }
    Ok(clean)
}
