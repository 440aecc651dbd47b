//! `ledger_pair` — paired runs of two built `saco-benchmark` binaries.
//!
//! ```text
//! ledger_pair --parent BIN --change BIN --workloads W[,W…] --seeds N[,N…]
//!             --pairs K [--seconds S] [--parent-commit C] [--change-commit C]
//!             --out ledger/PR-<n>-pairs.json [--markdown]
//! ledger_pair [--markdown] --check FILE…
//!                                    hold pairs files to their shape
//! ```
//!
//! For each seed and pair, every workload runs once on each binary as
//! `BIN --workload W --seed N --seconds S --trace 0`, one process per run,
//! the order alternating from pair to pair (parent first in even pairs) so
//! that a host that changes speed slows both sides alike. Each run's
//! result line gives one sample per end-to-end metric. The file records,
//! per workload, seed and metric, both medians and IQRs, the change/parent
//! ratio, the pairs the change won, every sample, the first run's host
//! fingerprint and every run's `host.spin_s` (`saco_bench::pairs`);
//! `--markdown` then prints the table. `--check` asserts the schema and
//! the file's own arithmetic, no wall; with `--markdown` before it, it
//! also prints each committed file's table.

use saco_bench::pairs::{self, Cell, Header, RunResult, METRICS};
use std::path::PathBuf;
use std::process::{exit, Command};

fn fail(msg: &str) -> ! {
    eprintln!("ledger_pair: {msg}");
    exit(2)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

fn run(bin: &PathBuf, workload: &str, seed: u64, seconds: f64) -> RunResult {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .unwrap_or_else(|e| fail(&format!("{}: {e}", bin.display())));
    if !out.status.success() {
        fail(&format!(
            "{} --workload {workload} --seed {seed} failed: {}",
            bin.display(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    pairs::parse_run(&String::from_utf8_lossy(&out.stdout))
        .unwrap_or_else(|e| fail(&format!("{} {workload} seed {seed}: {e}", bin.display())))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut parent, mut change, mut out) = (None, None, None);
    let (mut workloads, mut seeds, mut check) = (Vec::new(), Vec::new(), Vec::new());
    let (mut n_pairs, mut seconds, mut show) = (10usize, 12.0f64, false);
    let mut header = Header::default();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--parent" => parent = Some(PathBuf::from(value())),
            "--change" => change = Some(PathBuf::from(value())),
            "--parent-commit" => header.parent = value(),
            "--change-commit" => header.change = value(),
            "--workloads" => workloads = value().split(',').map(String::from).collect(),
            "--seeds" => {
                seeds = value()
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| fail("--seeds: integers")))
                    .collect()
            }
            "--pairs" => {
                n_pairs = value()
                    .parse()
                    .unwrap_or_else(|_| fail("--pairs: an integer"))
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .unwrap_or_else(|_| fail("--seconds: a number"))
            }
            "--out" => out = Some(value()),
            "--markdown" => show = true,
            "--check" => check.extend(args.by_ref()),
            other => fail(&format!("unknown argument {other}")),
        }
    }
    if !check.is_empty() {
        for file in &check {
            let doc = read(file);
            match pairs::check_shape(&doc) {
                Ok(n) => println!("ledger_pair: {file}: {n} cells, shape ok"),
                Err(e) => fail(&format!("{file}: {e}")),
            }
            if show {
                let (h, cells) =
                    pairs::read(&doc).unwrap_or_else(|e| fail(&format!("{file}: {e}")));
                print!("{}", pairs::markdown(&h, &cells));
            }
        }
        return;
    }
    let (Some(parent), Some(change), Some(out)) = (parent, change, out) else {
        fail("--parent, --change and --out are required (or --check FILE…)")
    };
    if workloads.is_empty() || seeds.is_empty() || n_pairs == 0 {
        fail("--workloads, --seeds and --pairs must name at least one each");
    }
    for (label, bin) in [(&mut header.parent, &parent), (&mut header.change, &change)] {
        if label.is_empty() {
            *label = bin.display().to_string();
        }
    }
    header.seconds = seconds;
    let mut cells: Vec<Cell> = Vec::new();
    for &seed in &seeds {
        for w in &workloads {
            for m in METRICS {
                cells.push(Cell {
                    workload: w.clone(),
                    seed,
                    metric: m,
                    parent: Vec::new(),
                    change: Vec::new(),
                });
            }
        }
    }
    for &seed in &seeds {
        for pair in 0..n_pairs {
            for w in &workloads {
                let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
                let mut got: [RunResult; 2] = Default::default();
                for side in order {
                    let bin = if side == 0 { &parent } else { &change };
                    got[side] = run(bin, w, seed, seconds);
                    if header.fingerprint.is_empty() {
                        header.fingerprint = got[side].fingerprint.clone();
                    }
                    header.spin_s.extend(&got[side].spin_s);
                }
                for c in cells
                    .iter_mut()
                    .filter(|c| c.seed == seed && &c.workload == w)
                {
                    let i = METRICS.iter().position(|m| *m == c.metric).unwrap_or(0);
                    c.parent.push(got[0].metrics[i]);
                    c.change.push(got[1].metrics[i]);
                }
                eprintln!(
                    "ledger_pair: seed {seed} pair {pair} {w}: wall_s parent {:.4} change {:.4}",
                    got[0].metrics[0], got[1].metrics[0]
                );
            }
        }
    }
    let doc = pairs::render(&header, &cells);
    pairs::check_shape(&doc).unwrap_or_else(|e| fail(&format!("rendered file: {e}")));
    std::fs::write(&out, &doc).unwrap_or_else(|e| fail(&format!("{out}: {e}")));
    eprintln!("ledger_pair: wrote {out}");
    if show {
        print!("{}", pairs::markdown(&header, &cells));
    }
}
