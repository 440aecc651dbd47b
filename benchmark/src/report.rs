//! `run` and `trace`: every workload once, each in its own fresh child
//! process (this binary re-executed), gathered into one printed report and
//! one result file that `compare` reads.

use crate::json::Json;
use crate::workloads::WORKLOADS;
use crate::{host, metrics, stats};
use std::path::PathBuf;
use std::process::Command;

pub struct Options {
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

/// What one child run printed: its `#info` object and its result line.
struct ChildRun {
    info: Json,
    result: Json,
}

fn run_child(workload: &str, o: &Options) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        // The parent already applied (or waived) the environment guard.
        .arg("--allow-env");
    if o.quick {
        cmd.arg("--quick");
    }
    if let Some(path) = &o.trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let mut lines: Vec<&str> = text.lines().collect();
    let result = Json::parse(lines.pop().unwrap_or(""))?;
    let info = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("#info "))
        .ok_or("child printed no #info line")
        .and_then(|l| Json::parse(l).map_err(|_| "unreadable #info line"))?;
    if o.trace {
        // The child's failed checks and self-time table, as printed.
        for line in lines.iter().filter(|l| l.contains("FAILED")) {
            println!("{line}");
        }
        for line in lines.iter().skip_while(|l| !l.contains("self-time table")) {
            if !line.starts_with("#info") {
                println!("{line}");
            }
        }
    }
    Ok(ChildRun { info, result })
}

fn info_num(run: &ChildRun, key: &str) -> Option<f64> {
    run.info.get(key).and_then(Json::as_f64)
}

pub fn run(o: &Options) -> Result<bool, String> {
    if let Some(path) = &o.trace_out {
        // Children append; start from an empty file.
        std::fs::write(path, "").map_err(|e| format!("creating {}: {e}", path.display()))?;
    }
    let mut runs = Vec::new();
    for (name, _) in WORKLOADS {
        if o.trace {
            println!("== {name}");
        }
        runs.push(run_child(name, o)?);
    }

    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    println!(
        "\n{:<20} {:<26} {:>16} {:<8} (reps)",
        "workload", "metric", "median", "unit"
    );
    for ((name, _), run) in WORKLOADS.iter().zip(&runs) {
        let count = |key: &str| run.result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let (attempted, failed) = (count("attempted"), count("failed"));
        all_correct &= failed == 0.0;
        let samples = run.info.get("samples").cloned().unwrap_or(Json::Null);
        let reps_of = |metric: &str| samples.get(metric).map(Json::as_nums).unwrap_or_default();

        // What the child's result line carries, then the end-to-end
        // metrics only this workload has (medians of its `samples`).
        let mut values: Vec<(String, f64)> = run
            .result
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
            .iter()
            .map(|(metric, m)| {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                (metric.clone(), value)
            })
            .collect();
        if !o.trace {
            for (metric, ..) in metrics::SERVE_LATENCY {
                let reps = reps_of(metric);
                if !reps.is_empty() {
                    values.push((metric.to_string(), stats::median(&reps)));
                }
            }
        }
        let mut metrics_json = Vec::new();
        for (metric, value) in values {
            let unit = metrics::unit_of(&metric);
            // A layer the workload never touches reads 0: not printed.
            if !o.trace || value != 0.0 {
                let reps = match reps_of(&metric).len() {
                    0 => "-".to_string(),
                    n => n.to_string(),
                };
                println!("{name:<20} {metric:<26} {value:>16.6} {unit:<8} ({reps})");
            }
            metrics_json.push((
                metric,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            ));
        }
        println!(
            "{name:<20} {:<26} {:>16.6} {:<8} ({failed} of {attempted})",
            "failed_share",
            failed / attempted.max(1.0),
            "ratio"
        );
        workloads_json.push((
            name.to_string(),
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("metrics", Json::Obj(metrics_json)),
                ("samples", samples),
                ("info", run.info.clone()),
            ]),
        ));
    }

    // Derived info, deliberately not metrics: a faster `netcomm` lowers
    // `sa_speedup`, and must not be rejected for it.
    let of = |w: &str| {
        let at = WORKLOADS.iter().position(|n| n.0 == w);
        &runs[at.expect("a workload of this benchmark")]
    };
    let mut derived = Vec::new();
    let (c, s) = (
        info_num(of("lasso_net_classic"), "wall_per_iter_us").unwrap_or(0.0),
        info_num(of("lasso_net_sa"), "wall_per_iter_us").unwrap_or(0.0),
    );
    if !o.trace && s > 0.0 {
        println!(
            "derived sa_speedup = {:.3} ({c:.3} µs/iter classic ÷ {s:.3} µs/iter s=32)",
            c / s
        );
        derived.push((
            "sa_speedup".to_string(),
            Json::obj([
                ("value", Json::Num(c / s)),
                ("classic_us_per_iter", Json::Num(c)),
                ("sa_us_per_iter", Json::Num(s)),
            ]),
        ));
    }
    let par = of("lasso_par_dense");
    if let (Some(one), Some(ratio)) = (
        info_num(par, "one_thread_wall_s"),
        info_num(par, "thread_scaling"),
    ) {
        println!("derived thread_scaling = {ratio:.3} (1-thread {one:.4} s ÷ 2-thread wall_s)");
        derived.push((
            "thread_scaling".to_string(),
            Json::obj([
                ("value", Json::Num(ratio)),
                ("one_thread_wall_s", Json::Num(one)),
            ]),
        ));
    }
    let stream = of("lasso_stream");
    if let (Some(inmem), Some(ratio)) = (
        info_num(stream, "inmem_wall_s"),
        info_num(stream, "streamed_over_inmem"),
    ) {
        println!("derived streamed_over_inmem = {ratio:.3} (wall_s ÷ in-memory twin {inmem:.4} s)");
        derived.push((
            "streamed_over_inmem".to_string(),
            Json::obj([
                ("value", Json::Num(ratio)),
                ("inmem_wall_s", Json::Num(inmem)),
            ]),
        ));
    }
    let serve = of("serve_mixed");
    println!(
        "serve_mixed latencies over {} score and {} update samples",
        info_num(serve, "score_samples").unwrap_or(0.0),
        info_num(serve, "update_samples").unwrap_or(0.0),
    );

    if let Some(path) = &o.out {
        let doc = Json::obj([
            (
                "kind",
                Json::Str(if o.trace { "trace" } else { "run" }.to_string()),
            ),
            ("seed", Json::Num(o.seed as f64)),
            ("seconds", Json::Num(o.seconds)),
            ("quick", Json::Bool(o.quick)),
            ("host", host::fingerprint(o.seed, None)),
            ("workloads", Json::Obj(workloads_json)),
            ("derived", Json::Obj(derived)),
        ]);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(all_correct)
}
