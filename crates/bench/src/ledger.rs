//! The exactness ledger as a check: two benchmark trace files
//! (`ledger/PR-<n>-trace.json`) held against each other on the exact
//! counts `ledger/README.md` lists — the counts a kernel or recurrence
//! change must not move. `ledger_check A B` is the command-line front end.

use saco_telemetry::report::parse::{self, Val};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// `ledger/README.md`, whose `## Exact keys` section lists the keys.
pub fn readme_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../ledger/README.md")
}

/// The exact keys: the lines of the first fenced block after the README's
/// `## Exact keys` heading.
pub fn exact_keys(readme: &str) -> Result<Vec<String>, String> {
    let mut lines = readme.lines().skip_while(|l| l.trim() != "## Exact keys");
    lines
        .find(|l| l.starts_with("```"))
        .ok_or("ledger/README.md: no fenced list under `## Exact keys`")?;
    let keys: Vec<String> = lines
        .take_while(|l| !l.starts_with("```"))
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(String::from)
        .collect();
    if keys.is_empty() {
        return Err("ledger/README.md: the exact-key list is empty".into());
    }
    Ok(keys)
}

/// One exact count that differs between two trace files: its workload,
/// its key, and its value in each (`None` where a file lacks it).
#[derive(Clone, Debug, PartialEq)]
pub struct Diff {
    /// Workload name.
    pub workload: String,
    /// Metric key.
    pub key: String,
    /// Value in the first file.
    pub a: Option<f64>,
    /// Value in the second file.
    pub b: Option<f64>,
}

/// The outcome of holding two trace documents against each other.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Workloads either document holds.
    pub workloads: usize,
    /// Every differing count, in workload then key-list order.
    pub diffs: Vec<Diff>,
}

impl Verdict {
    /// The differences whose key `allow` does not exempt.
    pub fn failing<'a>(&'a self, allow: &'a [String]) -> impl Iterator<Item = &'a Diff> {
        self.diffs.iter().filter(|d| !allow.contains(&d.key))
    }
}

/// Hold trace documents `a` and `b` against each other on `keys`, over
/// every workload either holds. Values compare bit for bit.
pub fn compare(a: &str, b: &str, keys: &[String]) -> Result<Verdict, String> {
    let (a, b) = (workloads(a)?, workloads(b)?);
    let names: BTreeSet<&str> = a.iter().chain(&b).map(|(n, _)| n.as_str()).collect();
    let mut diffs = Vec::new();
    for &name in &names {
        for key in keys {
            let (va, vb) = (count(&a, name, key), count(&b, name, key));
            if va.map(f64::to_bits) != vb.map(f64::to_bits) {
                diffs.push(Diff {
                    workload: name.to_string(),
                    key: key.clone(),
                    a: va,
                    b: vb,
                });
            }
        }
    }
    Ok(Verdict {
        workloads: names.len(),
        diffs,
    })
}

/// A trace document's `workloads` object, as (name, workload) pairs.
fn workloads(doc: &str) -> Result<Vec<(String, Val)>, String> {
    let Some(Val::Obj(root)) = parse::value(&mut parse::Cursor::new(doc)) else {
        return Err("not a JSON object".into());
    };
    match root.into_iter().find(|(k, _)| k == "workloads") {
        Some((_, Val::Obj(w))) => Ok(w),
        _ => Err("no `workloads` object".into()),
    }
}

/// `workloads.<name>.metrics.<key>.value`, if present and a number.
fn count(workloads: &[(String, Val)], name: &str, key: &str) -> Option<f64> {
    let (_, w) = workloads.iter().find(|(n, _)| n == name)?;
    match field(field(field(w, "metrics")?, key)?, "value")? {
        Val::Num(x) => Some(*x),
        _ => None,
    }
}

fn field<'v>(v: &'v Val, name: &str) -> Option<&'v Val> {
    match v {
        Val::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const README: &str = include_str!("../../../ledger/README.md");
    const TRACE: &str = include_str!("../../../ledger/PR-27-trace.json");

    #[test]
    fn the_readme_lists_the_fifteen_exact_keys() {
        let keys = exact_keys(README).expect("key list");
        assert_eq!(keys.len(), 15, "{keys:?}");
        assert!(keys.iter().any(|k| k == "exec.objective_bits_lo"));
        assert!(keys.iter().all(|k| !k.contains(' ')));
    }

    #[test]
    fn one_flipped_objective_bit_fails_and_names_its_key() {
        let keys = exact_keys(README).expect("key list");
        let same = compare(TRACE, TRACE, &keys).expect("trace parses");
        assert_eq!((same.workloads, same.diffs.len()), (7, 0));

        let needle = "\"exec.objective_bits_lo\": {\"value\": 4080752477,";
        assert_eq!(
            TRACE.matches(needle).count(),
            1,
            "lasso_seq_sparse's low bits"
        );
        let flipped = TRACE.replace(needle, &needle.replace("4080752477", "4080752476"));
        let verdict = compare(TRACE, &flipped, &keys).expect("trace parses");
        let want = Diff {
            workload: "lasso_seq_sparse".into(),
            key: "exec.objective_bits_lo".into(),
            a: Some(4080752477.0),
            b: Some(4080752476.0),
        };
        assert_eq!(verdict.diffs, vec![want]);
        assert_eq!(verdict.failing(&[]).count(), 1);
        assert_eq!(
            verdict
                .failing(&["exec.objective_bits_lo".to_string()])
                .count(),
            0
        );
    }

    #[test]
    fn a_workload_missing_from_one_file_differs_on_every_key() {
        let keys = vec!["gram.calls".to_string()];
        let a = r#"{"workloads": {"w": {"metrics": {"gram.calls": {"value": 3}}}}}"#;
        let b = r#"{"workloads": {}}"#;
        let verdict = compare(a, b, &keys).expect("parses");
        assert_eq!(verdict.diffs.len(), 1);
        assert_eq!(verdict.diffs[0].b, None);
        assert!(compare("[]", b, &keys).is_err());
    }
}
