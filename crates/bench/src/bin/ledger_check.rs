//! `ledger_check A B [--allow KEY]…` — hold two benchmark trace files
//! (`ledger/PR-<n>-trace.json`) against each other on the exact counts
//! `ledger/README.md` lists under `## Exact keys`.
//!
//! Prints every `(workload, key, A, B)` that differs, then a summary line.
//! Exits 1 if a count differs whose key no `--allow` names (a change that
//! moves a count on purpose names it), 2 on bad usage or unreadable input.

use saco_bench::ledger::{compare, exact_keys, readme_path};
use std::process::exit;

fn fail(msg: &str) -> ! {
    eprintln!("ledger_check: {msg}");
    exit(2)
}

fn read(path: &std::path::Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())))
}

fn main() {
    let (mut files, mut allow) = (Vec::new(), Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--allow" {
            allow.push(args.next().unwrap_or_else(|| fail("--allow needs a key")));
        } else {
            files.push(std::path::PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        fail("usage: ledger_check A.json B.json [--allow KEY]...")
    };
    let keys = exact_keys(&read(&readme_path())).unwrap_or_else(|e| fail(&e));
    if let Some(k) = allow.iter().find(|k| !keys.contains(k)) {
        fail(&format!(
            "--allow {k}: not an exact key of ledger/README.md"
        ));
    }
    let verdict = compare(&read(a), &read(b), &keys)
        .unwrap_or_else(|e| fail(&format!("{} / {}: {e}", a.display(), b.display())));
    let show = |v: Option<f64>| v.map_or("absent".to_string(), |x| x.to_string());
    for d in &verdict.diffs {
        let mark = if allow.contains(&d.key) {
            "allowed"
        } else {
            "DIFFERS"
        };
        println!(
            "{mark} {} {}: A = {}, B = {}",
            d.workload,
            d.key,
            show(d.a),
            show(d.b)
        );
    }
    let failing = verdict.failing(&allow).count();
    println!(
        "ledger_check: {} workloads × {} exact keys, {} differ ({} allowed) — {} vs {}",
        verdict.workloads,
        keys.len(),
        failing,
        verdict.diffs.len() - failing,
        a.display(),
        b.display()
    );
    if failing > 0 {
        exit(1);
    }
}
