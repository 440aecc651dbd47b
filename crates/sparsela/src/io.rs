//! LIBSVM text-format I/O.
//!
//! All of the paper's experiments use datasets from the LIBSVM repository
//! (Tables II and IV), distributed in the classic text format:
//!
//! ```text
//! <label> <index>:<value> <index>:<value> ...
//! ```
//!
//! with 1-based feature indices. This reader accepts real datasets if the
//! user has them on disk; the `datagen` crate produces synthetic stand-ins
//! in the same format so the whole pipeline (parse → partition → solve) is
//! exercised either way.

use crate::CsrMatrix;
use std::io::{BufRead, Write};

/// A labeled sparse dataset: design matrix `a` (m×n) and labels `b` (m).
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Design matrix, rows = data points, cols = features.
    pub a: CsrMatrix,
    /// Per-row labels (±1 for classification, real for regression).
    pub b: Vec<f64>,
}

impl Dataset {
    /// Rows (data points).
    pub fn num_points(&self) -> usize {
        self.a.rows()
    }

    /// Columns (features).
    pub fn num_features(&self) -> usize {
        self.a.cols()
    }
}

/// Parse errors with line position.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content at 1-based line `line`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        what: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "I/O error: {e}"),
            ParseError::Malformed { line, what } => write!(f, "line {line}: {what}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// One number of a LIBSVM line. `nan` and `inf` parse as `f64`, but no
/// solver survives them (every objective turns NaN), so they are rejected
/// here, naming the token.
fn parse_finite(tok: &str, what: &str, line: usize) -> Result<f64, ParseError> {
    let what = match tok.parse::<f64>() {
        Ok(v) if v.is_finite() => return Ok(v),
        Ok(_) => format!("non-finite {what} {tok:?}"),
        Err(_) => format!("bad {what} {tok:?}"),
    };
    Err(ParseError::Malformed { line, what })
}

/// Read a LIBSVM-format dataset.
///
/// `min_features` lets callers force the feature-dimension (LIBSVM files
/// omit trailing all-zero features); the result has
/// `cols = max(min_features, 1 + max index seen)`.
///
/// The CSR is built row by row: a line's pairs are sorted by index,
/// checked for a repeat, and appended without their explicit zeros.
pub fn read_libsvm<R: BufRead>(reader: R, min_features: usize) -> Result<Dataset, ParseError> {
    let mut labels = Vec::new();
    let (mut indptr, mut indices, mut values) = (vec![0usize], Vec::new(), Vec::new());
    let mut max_col = 0usize;
    let mut line_pairs: Vec<(usize, f64)> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let content = line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut parts = content.split_ascii_whitespace();
        let label_tok = parts.next().expect("non-empty line has a first token");
        labels.push(parse_finite(label_tok, "label", lineno + 1)?);
        line_pairs.clear();
        for tok in parts {
            let (idx_s, val_s) = tok.split_once(':').ok_or_else(|| ParseError::Malformed {
                line: lineno + 1,
                what: format!("expected index:value, got {tok:?}"),
            })?;
            let idx: usize = idx_s.parse().map_err(|_| ParseError::Malformed {
                line: lineno + 1,
                what: format!("bad feature index {idx_s:?}"),
            })?;
            if idx == 0 {
                return Err(ParseError::Malformed {
                    line: lineno + 1,
                    what: "LIBSVM feature indices are 1-based; got 0".into(),
                });
            }
            let val = parse_finite(val_s, "feature value", lineno + 1)?;
            line_pairs.push((idx - 1, val));
        }
        // A repeated index is refused, not summed (summed, `1:1e308
        // 1:1e308` would be `inf`); LIBSVM's own reader wants ascending
        // indices. After the sort every repeat is a neighbour.
        line_pairs.sort_unstable_by_key(|p| p.0);
        if let Some(w) = line_pairs.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(ParseError::Malformed {
                line: lineno + 1,
                what: format!("feature index {} repeated", w[0].0 + 1),
            });
        }
        max_col = max_col.max(line_pairs.last().map_or(0, |p| p.0 + 1));
        for &(col, val) in line_pairs.iter().filter(|p| p.1 != 0.0) {
            indices.push(col);
            values.push(val);
        }
        indptr.push(values.len());
    }
    indices.shrink_to_fit();
    values.shrink_to_fit();
    let (rows, cols) = (labels.len(), max_col.max(min_features));
    Ok(Dataset {
        a: CsrMatrix::from_parts(rows, cols, indptr, indices, values),
        b: labels,
    })
}

/// Write a dataset in LIBSVM format (1-based indices, `%.17g`-equivalent
/// precision so a read-back roundtrips exactly).
pub fn write_libsvm<W: Write>(w: &mut W, ds: &Dataset) -> std::io::Result<()> {
    assert_eq!(ds.a.rows(), ds.b.len(), "labels/rows mismatch");
    for i in 0..ds.a.rows() {
        write!(w, "{}", ds.b[i])?;
        let r = ds.a.row(i);
        for (&j, &v) in r.indices.iter().zip(r.values) {
            write!(w, " {}:{}", j + 1, v)?;
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use std::io::Cursor;

    #[test]
    fn parse_basic() {
        let text = "+1 1:0.5 3:2.0\n-1 2:1.5\n";
        let ds = read_libsvm(Cursor::new(text), 0).unwrap();
        assert_eq!(ds.num_points(), 2);
        assert_eq!(ds.num_features(), 3);
        assert_eq!(ds.b, vec![1.0, -1.0]);
        assert_eq!(ds.a.get(0, 0), 0.5);
        assert_eq!(ds.a.get(0, 2), 2.0);
        assert_eq!(ds.a.get(1, 1), 1.5);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\n+1 1:1 # trailing\n";
        let ds = read_libsvm(Cursor::new(text), 0).unwrap();
        assert_eq!(ds.num_points(), 1);
    }

    #[test]
    fn min_features_pads_width() {
        let ds = read_libsvm(Cursor::new("1 1:1\n"), 10).unwrap();
        assert_eq!(ds.num_features(), 10);
    }

    #[test]
    fn roundtrip() {
        let text = "1 1:0.25 5:-3\n-1 2:7\n1 1:1 2:2 3:3 4:4 5:5\n";
        let ds = read_libsvm(Cursor::new(text), 0).unwrap();
        let mut buf = Vec::new();
        write_libsvm(&mut buf, &ds).unwrap();
        let ds2 = read_libsvm(Cursor::new(buf), 0).unwrap();
        assert_eq!(ds2.b, ds.b);
        assert_eq!(ds2.a, ds.a);
    }

    #[test]
    fn zero_index_rejected() {
        let err = read_libsvm(Cursor::new("1 0:5\n"), 0).unwrap_err();
        assert!(err.to_string().contains("1-based"));
    }

    #[test]
    fn bad_label_reports_line() {
        let err = read_libsvm(Cursor::new("1 1:1\nxyz 1:1\n"), 0).unwrap_err();
        assert!(err.to_string().starts_with("line 2"), "{err}");
    }

    #[test]
    fn non_finite_label_rejected() {
        for tok in ["nan", "inf", "-inf", "NaN", "+infinity"] {
            let err = read_libsvm(Cursor::new(format!("1 1:1\n{tok} 1:1\n")), 0).unwrap_err();
            let msg = err.to_string();
            assert!(msg.starts_with("line 2: non-finite label"), "{msg}");
            assert!(msg.contains(tok), "{msg}");
        }
    }

    #[test]
    fn non_finite_value_rejected() {
        for tok in ["nan", "inf", "-inf"] {
            let err = read_libsvm(Cursor::new(format!("1 1:1\n1 2:0.5 3:{tok}\n")), 0).unwrap_err();
            let msg = err.to_string();
            assert!(msg.starts_with("line 2: non-finite feature value"), "{msg}");
            assert!(msg.contains(tok), "{msg}");
        }
    }

    #[test]
    fn repeated_feature_index_rejected() {
        // Summed, the first would be `inf`; the others are out of order but
        // still repeats.
        for (text, want) in [
            ("1 1:1e308 1:1e308\n", "line 1: feature index 1 repeated"),
            (
                "1 2:1\n-1 3:1 5:2 3:4\n",
                "line 2: feature index 3 repeated",
            ),
            // The repeat is not next to its twin, and one of the pair may
            // be an explicit zero.
            ("1 2:1 1:1 2:1\n", "line 1: feature index 2 repeated"),
            ("1 2:1 1:0 2:1\n", "line 1: feature index 2 repeated"),
            ("1 2:0 1:1 2:1\n", "line 1: feature index 2 repeated"),
        ] {
            let err = read_libsvm(Cursor::new(text), 0).unwrap_err();
            assert_eq!(err.to_string(), want);
        }
        // Unsorted but distinct indices are still accepted.
        let ds = read_libsvm(Cursor::new("1 3:1 1:2\n"), 0).unwrap();
        assert_eq!((ds.a.get(0, 0), ds.a.get(0, 2)), (2.0, 1.0));
    }

    /// The reader as it was before rows were built in place: every pair
    /// a triplet, then COO's sort and compression. Kept as the reference
    /// for inputs it accepts.
    fn read_via_triplets(text: &str, min_features: usize) -> Dataset {
        let (mut labels, mut triplets, mut max_col) = (Vec::new(), Vec::new(), 0);
        for line in text.lines() {
            let content = line.split('#').next().unwrap_or("").trim();
            let mut parts = content.split_ascii_whitespace();
            let Some(label) = parts.next() else { continue };
            labels.push(label.parse::<f64>().unwrap());
            for tok in parts {
                let (i, v) = tok.split_once(':').unwrap();
                let col = i.parse::<usize>().unwrap() - 1;
                max_col = max_col.max(col + 1);
                triplets.push((labels.len() - 1, col, v.parse::<f64>().unwrap()));
            }
        }
        let mut coo = CooMatrix::new(labels.len(), max_col.max(min_features));
        for (r, c, v) in triplets {
            coo.push(r, c, v);
        }
        Dataset {
            a: coo.to_csr(),
            b: labels,
        }
    }

    /// Random files — dense rows, sparse rows, rows out of order, explicit
    /// `i:0` and `i:-0`, empty rows, a dense run that breaks part way —
    /// read bitwise as the triplet reader reads them, and a file of full
    /// rows is stored with one shared column run. A file with an index
    /// repeated anywhere on a line is refused at its first such line.
    #[test]
    fn rows_built_in_place_match_the_triplet_reader() {
        use xrng::rng_from_seed;
        let mut rng = rng_from_seed(44);
        for case in 0..400 {
            let cols = 1 + rng.next_index(8);
            let dense_until = rng.next_index(12);
            let (mut text, mut repeat) = (String::new(), None);
            for row in 0..rng.next_index(12) {
                text.push_str(&format!("{}", rng.next_gaussian()));
                let mut pairs: Vec<usize> = if row < dense_until {
                    (0..cols).collect()
                } else {
                    (0..cols).filter(|_| rng.next_bool(0.5)).collect()
                };
                if rng.next_bool(0.2) {
                    pairs.reverse();
                }
                if !pairs.is_empty() && rng.next_bool(0.03) {
                    let j = pairs[rng.next_index(pairs.len())];
                    pairs.insert(rng.next_index(pairs.len() + 1), j);
                    let err = format!("line {}: feature index {} repeated", row + 1, j + 1);
                    repeat.get_or_insert(err);
                }
                for j in pairs {
                    let v = match rng.next_index(12) {
                        0 => "0".to_string(),
                        1 => "-0".to_string(),
                        _ => format!("{}", rng.next_gaussian()),
                    };
                    text.push_str(&format!(" {}:{v}", j + 1));
                }
                text.push('\n');
            }
            let min_features = rng.next_index(10);
            if let Some(want) = repeat {
                let err = read_libsvm(Cursor::new(&text), min_features).unwrap_err();
                assert_eq!(err.to_string(), want, "case {case}:\n{text}");
                continue;
            }
            let got = read_libsvm(Cursor::new(&text), min_features).unwrap();
            let want = read_via_triplets(&text, min_features);
            assert_eq!(got.a, want.a, "case {case}:\n{text}");
            assert_eq!(got.b, want.b, "case {case}");
            let full = got.a.nnz() > 0 && got.a.nnz() == got.a.rows() * got.a.cols();
            assert_eq!(got.a.0.shares_index(), full, "case {case}:\n{text}");
        }
    }

    #[test]
    fn bad_pair_rejected() {
        let err = read_libsvm(Cursor::new("1 notapair\n"), 0).unwrap_err();
        assert!(err.to_string().contains("index:value"));
    }

    #[test]
    fn empty_input() {
        let ds = read_libsvm(Cursor::new(""), 4).unwrap();
        assert_eq!(ds.num_points(), 0);
        assert_eq!(ds.num_features(), 4);
    }
}
