//! Command line of the benchmark. Run from the repository root.
//!
//! ```text
//! saco-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, one process
//! saco-benchmark run     [--seed N] [--out FILE]                    all seven, end-to-end metrics
//! saco-benchmark trace   [--seed N] [--out FILE] [--trace-out FILE] all seven, per-layer metrics
//! saco-benchmark compare A B                                        apply the bounds
//! ```
//! Common flags: `--quick` (sizes ÷ 20, one rep, all checks on),
//! `--seconds S`, `--allow-env`.

use saco_benchmark::workloads::{stream, RunArgs};
use saco_benchmark::{compare, host, report, run_workload, DEFAULT_SEED, RUN_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;

/// `--name value` pairs and bare flags, after the optional subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {name}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn real_main() -> Result<bool, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first().map(String::as_str) {
        Some("run" | "trace" | "compare") => Some(argv.remove(0)),
        _ => None,
    };
    if sub.as_deref() == Some("compare") {
        let [a, b] = argv.as_slice() else {
            return Err("usage: compare A.json B.json".to_string());
        };
        return compare::run(a, b);
    }
    let flags = Flags(argv);
    let seed = flags.parsed("--seed", DEFAULT_SEED)?;
    let quick = flags.has("--quick");

    if let Some(stage) = flags.value("--stage") {
        if stage != "stream-setup" {
            return Err(format!("unknown stage {stage:?}"));
        }
        let dir = flags
            .value("--dir")
            .ok_or("--stage stream-setup needs --dir")?;
        let twin = flags.has("--twin");
        let line = stream::stage_setup(seed, &PathBuf::from(dir), twin, quick)?;
        println!("{line}");
        return Ok(true);
    }

    let set = host::guarded_env_set();
    if !set.is_empty() && !flags.has("--allow-env") {
        return Err(format!(
            "refusing to measure with {} set: results would not be comparable (pass --allow-env to override)",
            set.join(", ")
        ));
    }
    let seconds = flags.parsed("--seconds", RUN_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace_out = flags.value("--trace-out").map(PathBuf::from);

    match sub.as_deref() {
        None => {
            let workload = flags.value("--workload").ok_or(
                "usage: --workload NAME --seed N --seconds S --trace 0|1, or run | trace | compare",
            )?;
            let trace = match flags.value("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            };
            run_workload(
                RunArgs {
                    workload: workload.to_string(),
                    seed,
                    seconds,
                    trace,
                    quick,
                },
                trace_out,
            )?;
            Ok(true)
        }
        Some(kind) => report::run(&report::Options {
            trace: kind == "trace",
            seed,
            seconds,
            quick,
            out: flags.value("--out").map(PathBuf::from),
            trace_out,
        }),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // A regressed comparison or a failed check: reported above.
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("saco-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
