//! One table per result set. A bin declares each column once — its CSV
//! name, its printed header, how each renders, and the gauge it feeds —
//! pushes each result once, and [`Table::finish`] writes the CSV series,
//! prints the markdown table and merges the gauges into the baseline.

use crate::baseline::Baseline;
use crate::{experiments_dir, fmt_secs, shown};
use saco::SolveResult;
use std::path::PathBuf;

/// How a cell renders in the CSV or the printed table.
#[derive(Clone, Copy, Debug)]
pub enum Fmt {
    /// `{:.Ne}`: scientific with `N` decimals.
    Sci(usize),
    /// `{:.N}`: fixed point with `N` decimals.
    Fixed(usize),
    /// `{:.N}×`: a ratio.
    Times(usize),
    /// Seconds in a readable unit ([`fmt_secs`]).
    Secs,
    /// `{}`: counts and text as they are.
    Plain,
}

/// One cell of a row.
#[derive(Clone, Debug)]
pub enum Value {
    /// A number, rendered by its column's format.
    Num(f64),
    /// Text, rendered as it is whatever the format.
    Text(String),
    /// No value: `—` in the table, no gauge.
    Missing,
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Num(v as f64)
    }
}

impl From<Option<f64>> for Value {
    fn from(v: Option<f64>) -> Value {
        v.map_or(Value::Missing, Value::Num)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_string())
    }
}

impl Value {
    fn render(&self, fmt: Fmt) -> String {
        let v = match self {
            Value::Num(v) => *v,
            Value::Text(t) => return t.clone(),
            Value::Missing => return "—".into(),
        };
        match fmt {
            Fmt::Sci(p) => format!("{v:.p$e}"),
            Fmt::Fixed(p) => format!("{v:.p$}"),
            Fmt::Times(p) => format!("{v:.p$}×"),
            Fmt::Secs => fmt_secs(v),
            Fmt::Plain => format!("{v}"),
        }
    }
}

/// A row of [`Value`]s, each expression converted with `Value::from`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        vec![$($crate::table::Value::from($v)),*]
    };
}

/// One column: in the CSV, in the printed table, or both, and optionally
/// a gauge of each keyed row.
#[derive(Clone, Debug)]
pub struct Col {
    csv: Option<(String, Fmt)>,
    head: Option<(String, Fmt)>,
    key: Option<String>,
}

/// A CSV column named `name`.
pub fn csv(name: impl Into<String>, fmt: Fmt) -> Col {
    Col {
        csv: Some((name.into(), fmt)),
        head: None,
        key: None,
    }
}

/// A column of the printed table only, headed `name`.
pub fn head(name: impl Into<String>, fmt: Fmt) -> Col {
    Col {
        csv: None,
        head: Some((name.into(), fmt)),
        key: None,
    }
}

impl Col {
    /// Also print this column, headed `name`.
    pub fn head(mut self, name: impl Into<String>, fmt: Fmt) -> Col {
        self.head = Some((name.into(), fmt));
        self
    }

    /// Also merge each keyed row's number here as gauge `<row key>.<key>`.
    pub fn key(mut self, key: impl Into<String>) -> Col {
        self.key = Some(key.into());
        self
    }
}

/// Rows under one column list, published once by [`Table::finish`].
#[derive(Debug)]
pub struct Table {
    title: Option<String>,
    csv: Option<String>,
    cols: Vec<Col>,
    rows: Vec<(Option<String>, Vec<Value>)>,
}

impl Table {
    /// A printed table titled `title`.
    pub fn new(title: impl Into<String>, cols: impl IntoIterator<Item = Col>) -> Table {
        Table {
            title: Some(title.into()),
            csv: None,
            cols: cols.into_iter().collect(),
            rows: Vec::new(),
        }
    }

    /// A CSV series `target/experiments/<name>.csv` that is not printed.
    pub fn series(name: impl Into<String>, cols: impl IntoIterator<Item = Col>) -> Table {
        Table {
            title: None,
            ..Table::new("", cols).csv(name)
        }
    }

    /// The traces of `runs` as a CSV series: the first run's iteration
    /// grid, then one column of traced values per run.
    pub fn traces(name: impl Into<String>, runs: &[(String, SolveResult)]) -> Table {
        let cols = std::iter::once("iter").chain(runs.iter().map(|(n, _)| n.as_str()));
        let mut t = Table::series(name, cols.map(|n| csv(n, Fmt::Sci(9))));
        for (k, p) in runs[0].1.trace.points().iter().enumerate() {
            let values = runs
                .iter()
                .map(|(_, r)| Value::from(r.trace.points()[k].value));
            t.row(std::iter::once(p.iter.into()).chain(values).collect());
        }
        t
    }

    /// Also write the CSV columns to `target/experiments/<name>.csv`.
    pub fn csv(mut self, name: impl Into<String>) -> Table {
        self.csv = Some(name.into());
        self
    }

    /// Append a row with one value per column.
    pub fn row(&mut self, values: Vec<Value>) {
        assert_eq!(values.len(), self.cols.len(), "one value per column");
        self.rows.push((None, values));
    }

    /// Append a row whose keyed columns become gauges `<key>.<column key>`.
    pub fn keyed_row(&mut self, key: String, values: Vec<Value>) {
        self.row(values);
        self.rows.last_mut().expect("just pushed").0 = Some(key);
    }

    /// Render the columns that `pick` selects, one line per row and the
    /// header line first.
    fn lines(&self, pick: impl Fn(&Col) -> Option<&(String, Fmt)>, sep: &str) -> Vec<String> {
        let picked: Vec<(usize, &(String, Fmt))> = self
            .cols
            .iter()
            .enumerate()
            .filter_map(|(i, c)| pick(c).map(|p| (i, p)))
            .collect();
        let header = picked.iter().map(|(_, (name, _))| name.as_str());
        let mut lines = vec![header.collect::<Vec<_>>().join(sep)];
        for (_, values) in &self.rows {
            let cells = picked.iter().map(|&(i, &(_, fmt))| values[i].render(fmt));
            lines.push(cells.collect::<Vec<_>>().join(sep));
        }
        lines
    }

    /// Write the CSV, print the table (then the CSV's path), and set
    /// every keyed row's numbers in `baseline`, which a table with keyed
    /// rows must be given.
    pub fn finish(self, baseline: Option<&mut Baseline>) {
        let path = self.csv.as_ref().map(|name| self.write_csv(name));
        if let Some(title) = &self.title {
            let lines = self.lines(|c| c.head.as_ref(), " | ");
            let width = self.cols.iter().filter(|c| c.head.is_some()).count();
            println!(
                "\n### {title}\n\n| {} |\n|{}|",
                lines[0],
                vec!["---"; width].join("|")
            );
            for line in &lines[1..] {
                println!("| {line} |");
            }
            println!();
        }
        if let Some(path) = path {
            println!("series written to {}", shown(&path));
        }
        let mut baseline = baseline;
        for (key, values) in self.rows.iter().filter_map(|(k, v)| Some((k.as_ref()?, v))) {
            let sink = baseline.as_deref_mut().expect("keyed rows publish gauges");
            for (col, value) in self.cols.iter().zip(values) {
                if let (Some(k), Value::Num(v)) = (&col.key, value) {
                    sink.set(&format!("{key}.{k}"), *v);
                }
            }
        }
    }

    fn write_csv(&self, name: &str) -> PathBuf {
        let path = experiments_dir().join(format!("{name}.csv"));
        let mut text = self.lines(|c| c.csv.as_ref(), ",").join("\n");
        text.push('\n');
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_feeds_the_csv_the_printed_columns_and_the_gauges() {
        let mut t = Table::new(
            "selftest",
            [
                csv("p", Fmt::Sci(2)).head("P", Fmt::Plain),
                csv("t", Fmt::Sci(1)).head("time", Fmt::Secs).key("time"),
                head("speedup", Fmt::Times(1)).key("speedup"),
            ],
        )
        .csv("table_selftest");
        t.keyed_row("x.p4".into(), row![4usize, 0.5, 2.0]);
        t.keyed_row("x.p8".into(), row![8usize, None::<f64>, 3.0]);
        assert_eq!(
            t.lines(|c| c.csv.as_ref(), ","),
            ["p,t", "4.00e0,5.0e-1", "8.00e0,—"]
        );
        assert_eq!(
            t.lines(|c| c.head.as_ref(), " | "),
            ["P | time | speedup", "4 | 500.00 ms | 2.0×", "8 | — | 3.0×"]
        );

        let path = std::env::temp_dir().join(format!("saco_table_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut b = Baseline::load_or_new(path.clone());
        t.finish(Some(&mut b));
        assert_eq!(b.gauge("x.p4.time"), Some(0.5));
        assert_eq!(b.gauge("x.p4.speedup"), Some(2.0));
        assert_eq!(b.gauge("x.p8.time"), None, "a missing value sets no gauge");
        assert_eq!(b.gauge("x.p8.speedup"), Some(3.0));
        let csv = std::fs::read_to_string(experiments_dir().join("table_selftest.csv"));
        assert_eq!(csv.expect("csv written"), "p,t\n4.00e0,5.0e-1\n8.00e0,—\n");
    }
}
