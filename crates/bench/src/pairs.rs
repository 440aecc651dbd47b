//! Paired benchmark runs: a parent and a change build of the frozen
//! benchmark (`saco-benchmark`), run in alternating order, one process per
//! run, and summarised per workload, seed and end-to-end metric — both
//! medians and IQRs, their ratio, how many pairs the change won, and every
//! sample. `ledger_pair` is the command-line front end; it writes
//! `ledger/PR-<n>-pairs.json`.
//!
//! A pairs file is evidence, not a gate: [`check_shape`] holds a file to
//! its schema and to its own arithmetic (the medians, IQRs, ratios and win
//! counts are those of its samples), and never to a wall time.

use saco_telemetry::report::parse::{self, Val};
use std::fmt::Write as _;

/// Schema tag of a pairs file.
pub const SCHEMA: &str = "saco-pairs/v1";

/// The end-to-end metrics a benchmark run reports on its result line, all
/// lower-is-better.
pub const METRICS: [&str; 3] = ["wall_s", "peak_rss_mb", "setup_s"];

/// What one benchmark process reported: its result line's metrics, in
/// [`METRICS`] order, and its `#info` line's host fingerprint and
/// `host.spin_s` samples.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// `wall_s`, `peak_rss_mb`, `setup_s`.
    pub metrics: [f64; 3],
    /// The fingerprint object, as JSON text.
    pub fingerprint: String,
    /// The host's spin-loop timings around the run.
    pub spin_s: Vec<f64>,
}

/// Read one run's standard output: the `#info` line and the last line (the
/// result line, which must say `"correct": true`).
pub fn parse_run(stdout: &str) -> Result<RunResult, String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let root = object(last)?;
    if !matches!(get(&root, "correct"), Some(Val::Bool(true))) {
        return Err(format!("the run was not correct: {last}"));
    }
    let mut out = RunResult::default();
    for (i, m) in METRICS.iter().enumerate() {
        out.metrics[i] = get(&root, "metrics")
            .and_then(|v| field(v, m))
            .and_then(|v| field(v, "value"))
            .and_then(num)
            .ok_or(format!("result line lacks metrics.{m}.value"))?;
    }
    if let Some(info) = stdout.lines().find_map(|l| l.strip_prefix("#info ")) {
        let info = object(info)?;
        if let Some(fp) = get(&info, "fingerprint") {
            emit(fp, &mut out.fingerprint);
        }
        if let Some(Val::Arr(xs)) = get(&info, "host.spin_s") {
            out.spin_s = xs.iter().filter_map(num).collect();
        }
    }
    Ok(out)
}

/// The median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The spread between the first and third quartiles of `xs`.
pub fn iqr(xs: &[f64]) -> f64 {
    quantile(xs, 0.75) - quantile(xs, 0.25)
}

/// Quantile `q` of `xs` by linear interpolation between order statistics.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Pairs the change won: its sample below the parent's in the same pair.
pub fn wins(parent: &[f64], change: &[f64]) -> usize {
    parent.iter().zip(change).filter(|(p, c)| c < p).count()
}

/// One workload, seed and metric of a pairs file: the samples of each
/// side, pair `i` being `(parent[i], change[i])`.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Benchmark workload.
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// One of [`METRICS`].
    pub metric: &'static str,
    /// The parent's samples, one per pair.
    pub parent: Vec<f64>,
    /// The change's samples, one per pair.
    pub change: Vec<f64>,
}

impl Cell {
    /// Change median over parent median.
    pub fn ratio(&self) -> f64 {
        median(&self.change) / median(&self.parent)
    }
}

/// What a pairs file records beside its cells.
#[derive(Clone, Debug, Default)]
pub struct Header {
    /// Commit (or label) of the parent build.
    pub parent: String,
    /// Commit (or label) of the change build.
    pub change: String,
    /// Each run's `--seconds`.
    pub seconds: f64,
    /// The first run's host fingerprint, as JSON text.
    pub fingerprint: String,
    /// Every run's `host.spin_s` samples, in run order.
    pub spin_s: Vec<f64>,
}

/// The pairs file for `cells`.
pub fn render(h: &Header, cells: &[Cell]) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "{{\"schema\": {},", quote(SCHEMA));
    let _ = write!(
        o,
        " \"parent\": {{\"commit\": {}}},\n \"change\": {{\"commit\": {}}},\n",
        quote(&h.parent),
        quote(&h.change)
    );
    let fp = if h.fingerprint.is_empty() {
        "null"
    } else {
        &h.fingerprint
    };
    let _ = write!(
        o,
        " \"seconds\": {},\n \"host\": {fp},\n \"host.spin_s\": {},\n \"cells\": [",
        h.seconds,
        array(&h.spin_s)
    );
    for (i, c) in cells.iter().enumerate() {
        let side = |xs: &[f64]| {
            format!(
                "{{\"median\": {}, \"iqr\": {}, \"samples\": {}}}",
                median(xs),
                iqr(xs),
                array(xs)
            )
        };
        let _ = write!(
            o,
            "{}\n  {{\"workload\": {}, \"seed\": {}, \"metric\": {}, \"pairs\": {}, \"wins\": {}, \
             \"ratio\": {},\n   \"parent\": {},\n   \"change\": {}}}",
            if i == 0 { "" } else { "," },
            quote(&c.workload),
            c.seed,
            quote(c.metric),
            c.parent.len(),
            wins(&c.parent, &c.change),
            c.ratio(),
            side(&c.parent),
            side(&c.change)
        );
    }
    o.push_str("\n ]}\n");
    o
}

/// The cells of a pairs file, after holding it to [`check_shape`].
pub fn read(doc: &str) -> Result<(Header, Vec<Cell>), String> {
    let root = object(doc)?;
    if !matches!(get(&root, "schema"), Some(Val::Str(s)) if s == SCHEMA) {
        return Err(format!("schema is not {SCHEMA}"));
    }
    let commit = |side: &str| match get(&root, side).and_then(|v| field(v, "commit")) {
        Some(Val::Str(s)) if !s.is_empty() => Ok(s.clone()),
        _ => Err(format!("{side}.commit is not a non-empty string")),
    };
    let mut h = Header {
        parent: commit("parent")?,
        change: commit("change")?,
        seconds: get(&root, "seconds").and_then(num).ok_or("no seconds")?,
        ..Header::default()
    };
    match get(&root, "host") {
        Some(fp @ Val::Obj(_)) => emit(fp, &mut h.fingerprint),
        _ => return Err("host is not the fingerprint object".into()),
    }
    h.spin_s = numbers(get(&root, "host.spin_s")).ok_or("host.spin_s is not an array")?;
    let Some(Val::Arr(raw)) = get(&root, "cells") else {
        return Err("cells is not an array".into());
    };
    let mut cells = Vec::new();
    for (i, c) in raw.iter().enumerate() {
        let at = |what: &str| format!("cells[{i}]: {what}");
        let metric = match field(c, "metric") {
            Some(Val::Str(m)) => METRICS.iter().find(|k| *k == m),
            _ => None,
        };
        let cell = Cell {
            workload: match field(c, "workload") {
                Some(Val::Str(w)) if !w.is_empty() => w.clone(),
                _ => return Err(at("no workload")),
            },
            seed: field(c, "seed").and_then(num).ok_or(at("no seed"))? as u64,
            metric: metric.ok_or(at("metric is not an end-to-end metric"))?,
            parent: numbers(field(c, "parent").and_then(|s| field(s, "samples")))
                .ok_or(at("no parent samples"))?,
            change: numbers(field(c, "change").and_then(|s| field(s, "samples")))
                .ok_or(at("no change samples"))?,
        };
        cells.push((c, cell));
    }
    for (i, (raw, cell)) in cells.iter().enumerate() {
        check_cell(raw, cell).map_err(|e| format!("cells[{i}] ({}): {e}", cell.workload))?;
    }
    Ok((h, cells.into_iter().map(|(_, c)| c).collect()))
}

/// Hold a pairs file to its schema and its own arithmetic; nothing about
/// the values themselves.
pub fn check_shape(doc: &str) -> Result<usize, String> {
    let (_, cells) = read(doc)?;
    if cells.is_empty() {
        return Err("no cells".into());
    }
    Ok(cells.len())
}

fn check_cell(raw: &Val, c: &Cell) -> Result<(), String> {
    let n = c.parent.len();
    if n == 0 || c.change.len() != n {
        return Err(format!(
            "{} parent and {} change samples",
            n,
            c.change.len()
        ));
    }
    let recorded = |path: [&str; 2]| {
        let v = field(raw, path[0])?;
        num(if path[1].is_empty() {
            v
        } else {
            field(v, path[1])?
        })
    };
    let expect = [
        (["pairs", ""], n as f64),
        (["wins", ""], wins(&c.parent, &c.change) as f64),
        (["ratio", ""], c.ratio()),
        (["parent", "median"], median(&c.parent)),
        (["parent", "iqr"], iqr(&c.parent)),
        (["change", "median"], median(&c.change)),
        (["change", "iqr"], iqr(&c.change)),
    ];
    for (path, want) in expect {
        match recorded(path) {
            Some(got) if got.to_bits() == want.to_bits() => {}
            got => return Err(format!("{path:?} is {got:?}, its samples give {want}")),
        }
    }
    Ok(())
}

/// The table `docs/PERFORMANCE.md` cites: one row per cell.
pub fn markdown(h: &Header, cells: &[Cell]) -> String {
    let mut o = format!(
        "Pairs: parent `{}` vs change `{}`, {} s per run, alternating.\n\n\
         | workload | seed | metric | parent median (IQR) | change median (IQR) | ratio | wins |\n\
         |---|---|---|---|---|---|---|\n",
        h.parent, h.change, h.seconds
    );
    for c in cells {
        let _ = writeln!(
            o,
            "| {} | {} | {} | {:.4} ({:.4}) | {:.4} ({:.4}) | {:.3}× | {}/{} |",
            c.workload,
            c.seed,
            c.metric,
            median(&c.parent),
            iqr(&c.parent),
            median(&c.change),
            iqr(&c.change),
            c.ratio(),
            wins(&c.parent, &c.change),
            c.parent.len()
        );
    }
    o
}

fn object(doc: &str) -> Result<Vec<(String, Val)>, String> {
    match parse::value(&mut parse::Cursor::new(doc)) {
        Some(Val::Obj(fields)) => Ok(fields),
        _ => Err("not a JSON object".into()),
    }
}

fn get<'v>(fields: &'v [(String, Val)], name: &str) -> Option<&'v Val> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn field<'v>(v: &'v Val, name: &str) -> Option<&'v Val> {
    match v {
        Val::Obj(fields) => get(fields, name),
        _ => None,
    }
}

fn num(v: &Val) -> Option<f64> {
    match v {
        Val::Num(x) => Some(*x),
        _ => None,
    }
}

fn numbers(v: Option<&Val>) -> Option<Vec<f64>> {
    match v? {
        Val::Arr(xs) => xs.iter().map(num).collect(),
        _ => None,
    }
}

fn quote(s: &str) -> String {
    let mut o = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn array(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// Write `v` back as JSON text.
fn emit(v: &Val, o: &mut String) {
    match v {
        Val::Null => o.push_str("null"),
        Val::Bool(b) => o.push_str(if *b { "true" } else { "false" }),
        Val::Num(x) => o.push_str(&x.to_string()),
        Val::Str(s) => o.push_str(&quote(s)),
        Val::Arr(xs) => {
            o.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                emit(x, o);
            }
            o.push(']');
        }
        Val::Obj(fields) => {
            o.push('{');
            for (i, (k, x)) in fields.iter().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                o.push_str(&quote(k));
                o.push_str(": ");
                emit(x, o);
            }
            o.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = "workload lasso_stream seed 808 window 2s trace false\n\
        #info {\"samples\": {}, \"host.spin_s\": [0.05, 0.04], \"fingerprint\": \
        {\"nproc\": 2, \"git_commit\": \"unknown\", \"seed\": 808}}\n\
        {\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": \
        {\"value\": 0.4, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 34.5, \"unit\": \"MiB\"}, \
        \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}\n";

    #[test]
    fn a_run_is_read_from_its_info_and_result_lines() {
        let r = parse_run(RUN).expect("parses");
        assert_eq!(r.metrics, [0.4, 34.5, 1.25]);
        assert_eq!(r.spin_s, [0.05, 0.04]);
        assert_eq!(
            r.fingerprint,
            "{\"nproc\": 2, \"git_commit\": \"unknown\", \"seed\": 808}"
        );
        let wrong = RUN.replace("\"correct\": true", "\"correct\": false");
        assert!(parse_run(&wrong).is_err());
    }

    #[test]
    fn a_rendered_file_reads_back_and_a_doctored_one_fails_its_shape() {
        let h = Header {
            parent: "abc1234".into(),
            change: "working tree".into(),
            seconds: 12.0,
            fingerprint: "{\"nproc\": 2}".into(),
            spin_s: vec![0.05, 0.06],
        };
        let cells = vec![Cell {
            workload: "lasso_stream".into(),
            seed: 808,
            metric: "wall_s",
            parent: vec![0.5, 0.45, 0.55, 0.48],
            change: vec![0.4, 0.47, 0.41, 0.39],
        }];
        let doc = render(&h, &cells);
        assert_eq!(check_shape(&doc), Ok(1));
        let (back, read_cells) = read(&doc).expect("reads back");
        assert_eq!(
            (back.parent.as_str(), read_cells[0].parent.len()),
            ("abc1234", 4)
        );
        assert_eq!(wins(&cells[0].parent, &cells[0].change), 3);
        assert!(markdown(&back, &read_cells).contains("| lasso_stream | 808 | wall_s |"));
        // A win count that is not its samples', a missing sample, a wrong
        // schema: each is refused.
        assert!(check_shape(&doc.replace("\"wins\": 3", "\"wins\": 4")).is_err());
        assert!(check_shape(&doc.replace("[0.4, 0.47, 0.41, 0.39]", "[0.4, 0.47, 0.41]")).is_err());
        assert!(check_shape(&doc.replace(SCHEMA, "saco-pairs/v0")).is_err());
    }

    #[test]
    fn every_committed_pairs_file_has_its_shape() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ledger");
        for entry in std::fs::read_dir(dir).expect("ledger/") {
            let path = entry.expect("entry").path();
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            if name.starts_with("PR-") && name.ends_with("-pairs.json") {
                let doc = std::fs::read_to_string(&path).expect("readable");
                check_shape(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(iqr(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0);
    }
}
