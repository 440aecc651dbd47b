//! The compressed-slice format under [`CsrMatrix`](crate::CsrMatrix),
//! [`CscMatrix`](crate::CscMatrix), COO conversion and the shard extents.
//!
//! The paper stores data as "Compressed Sparse Row (3-array variant)"
//! (§IV-B). The primal methods sample columns of a row partition and the
//! dual methods rows of a column partition: the same three arrays cut
//! along the other axis. So the format is written here once, in axis-free
//! terms — `major` slices over a dense `minor` axis — and CSR and CSC only
//! say which axis is which. Each decision about the arrays is one
//! function: the invariant ([`check_slice`], behind every door a matrix
//! enters through: `from_parts`, COO conversion, shard load and the
//! shard writer), the major range and the minor window, the transpose and
//! the COO compression.

use crate::SparseSlice;

/// Why a set of arrays is not a valid compressed-slice matrix. When one
/// slice breaks the invariant the message names it: `slice k: …`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Malformed(String);

impl std::fmt::Display for Malformed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The slice invariant: one value per index, indices strictly increasing
/// and below `minor`, every value finite. O(nnz), once per door; the
/// kernels rely on it (a NaN would poison every objective, an unsorted
/// index the full-slice test in [`gram`](crate::gram)).
///
/// A slice that passes costs one branch-free pass per array; only a slice
/// that fails walks the checks again to say which one broke.
#[inline]
pub(crate) fn check_slice(
    k: usize,
    indices: &[usize],
    values: &[f64],
    minor: usize,
) -> Result<(), Malformed> {
    if slice_ok(indices, values, minor) {
        return Ok(());
    }
    slice_fault(k, indices, values, minor).map_or(Ok(()), Err)
}

/// [`check_slice`]'s four conditions as one `bool`, folded without early
/// exit so the passes vectorize: lengths agree, every index is below its
/// successor, the last (hence every) index is below `minor`, and no value
/// has the all-ones exponent of NaN and ±inf.
#[inline]
fn slice_ok(indices: &[usize], values: &[f64], minor: usize) -> bool {
    const EXP: u64 = 0x7ff0_0000_0000_0000;
    let increasing = indices
        .iter()
        .zip(indices.iter().skip(1))
        .fold(true, |ok, (a, b)| ok & (a < b));
    let finite = values
        .iter()
        .fold(true, |ok, v| ok & (v.to_bits() & EXP != EXP));
    let in_range = indices.last().is_none_or(|&i| i < minor);
    (indices.len() == values.len()) & increasing & in_range & finite
}

/// The first condition slice `k` breaks, as its message; `None` when it
/// breaks none, which is exactly when [`slice_ok`] accepts it.
#[cold]
fn slice_fault(k: usize, indices: &[usize], values: &[f64], minor: usize) -> Option<Malformed> {
    let what = if indices.len() != values.len() {
        format!("{} indices but {} values", indices.len(), values.len())
    } else if let Some(w) = indices.windows(2).find(|w| w[0] >= w[1]) {
        format!("indices not strictly increasing ({} then {})", w[0], w[1])
    } else if let Some(i) = indices.last().filter(|&&i| i >= minor) {
        format!("index {i} out of range (minor axis {minor})")
    } else if let Some(v) = values.iter().find(|v| !v.is_finite()) {
        format!("non-finite value {v}")
    } else {
        return None;
    };
    Some(Malformed(format!("slice {k}: {what}")))
}

/// `major` slices over a `minor` axis: slice `k` is
/// `indices/values[indptr[k]..indptr[k+1]]`. Every value of this type
/// passed [`Compressed::new`] or was derived from one that did.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Compressed {
    major: usize,
    minor: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl Compressed {
    /// Validate and assemble: `indptr` holds `major + 1` monotone offsets
    /// from 0 to nnz, and every slice passes [`check_slice`].
    pub(crate) fn new(
        major: usize,
        minor: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, Malformed> {
        let nnz = indices.len();
        if indptr.len() != major + 1 || indptr[0] != 0 || indptr[major] != nnz {
            return Err(Malformed(format!(
                "indptr must hold {} offsets from 0 to nnz = {nnz}",
                major + 1
            )));
        }
        if values.len() != nnz {
            return Err(Malformed(format!(
                "{nnz} indices but {} values",
                values.len()
            )));
        }
        if let Some(k) = (0..major).find(|&k| indptr[k] > indptr[k + 1]) {
            return Err(Malformed(format!("slice {k}: indptr must be monotone")));
        }
        for k in 0..major {
            let r = indptr[k]..indptr[k + 1];
            check_slice(k, &indices[r.clone()], &values[r], minor)?;
        }
        Ok(Self {
            major,
            minor,
            indptr,
            indices,
            values,
        })
    }

    /// Compress `(k, i, v)` triplets — slice `k`, minor index `i` — stably
    /// sorted by `(k, i)`, duplicates summed in insertion order and sums of
    /// exactly zero dropped. A door like any other: a sum that overflows
    /// is rejected.
    pub(crate) fn compress(
        major: usize,
        minor: usize,
        mut triplets: Vec<(usize, usize, f64)>,
    ) -> Result<Self, Malformed> {
        triplets.sort_by_key(|&(k, i, _)| (k, i));
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(triplets.len());
        for (k, i, v) in triplets {
            match merged.last_mut() {
                Some(last) if (last.0, last.1) == (k, i) => last.2 += v,
                _ => merged.push((k, i, v)),
            }
        }
        merged.retain(|&(_, _, v)| v != 0.0);
        let mut indptr = vec![0usize; major + 1];
        for &(k, _, _) in &merged {
            indptr[k + 1] += 1;
        }
        for k in 0..major {
            indptr[k + 1] += indptr[k];
        }
        let (indices, values) = merged.iter().map(|&(_, i, v)| (i, v)).unzip();
        Self::new(major, minor, indptr, indices, values)
    }

    /// Number of slices.
    #[inline]
    pub(crate) fn major(&self) -> usize {
        self.major
    }

    /// Length of the minor axis.
    #[inline]
    pub(crate) fn minor(&self) -> usize {
        self.minor
    }

    /// Stored entries.
    pub(crate) fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `nnz / (major·minor)`, 0 for an empty shape.
    pub(crate) fn density(&self) -> f64 {
        if self.major == 0 || self.minor == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.major as f64 * self.minor as f64)
        }
    }

    /// Borrow slice `k`.
    #[inline]
    pub(crate) fn slice(&self, k: usize) -> SparseSlice<'_> {
        let (lo, hi) = (self.indptr[k], self.indptr[k + 1]);
        SparseSlice {
            indices: &self.indices[lo..hi],
            values: &self.values[lo..hi],
        }
    }

    /// Entry `(k, i)` by binary search in slice `k`; 0 where none is stored.
    pub(crate) fn get(&self, k: usize, i: usize) -> f64 {
        let s = self.slice(k);
        s.indices.binary_search(&i).map_or(0.0, |p| s.values[p])
    }

    /// `y[k] = ⟨slice k, x⟩`, one `dot_dense` chain per slice (CSR's
    /// `spmv`, CSC's `spmv_t`).
    pub(crate) fn dot_slices(&self, x: &[f64]) -> Vec<f64> {
        (0..self.major)
            .map(|k| self.slice(k).dot_dense(x))
            .collect()
    }

    /// `y = Σₖ x[k]·slice k` over the minor axis, slices in order and those
    /// with `x[k] == 0` skipped (CSR's `spmv_t`, CSC's `spmv`).
    pub(crate) fn axpy_slices(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.minor];
        for (k, &xk) in x.iter().enumerate() {
            if xk != 0.0 {
                self.slice(k).axpy_into(xk, &mut y);
            }
        }
        y
    }

    /// The same matrix sliced along the other axis, by counting sort in
    /// O(nnz + minor): CSR → CSC and back.
    pub(crate) fn transpose(&self) -> Self {
        let mut next = vec![0usize; self.minor + 1];
        for &i in &self.indices {
            next[i + 1] += 1;
        }
        for i in 0..self.minor {
            next[i + 1] += next[i];
        }
        let indptr = next.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for k in 0..self.major {
            let s = self.slice(k);
            for (&i, &v) in s.indices.iter().zip(s.values) {
                indices[next[i]] = k;
                values[next[i]] = v;
                next[i] += 1;
            }
        }
        Self {
            major: self.minor,
            minor: self.major,
            indptr,
            indices,
            values,
        }
    }

    /// Slices `lo..hi` as a matrix of their own.
    ///
    /// # Panics
    /// Panics unless `lo <= hi <= major`.
    pub(crate) fn major_range(&self, lo: usize, hi: usize) -> Self {
        assert!(
            lo <= hi && hi <= self.major,
            "slice range {lo}..{hi} out of range"
        );
        let (a, b) = (self.indptr[lo], self.indptr[hi]);
        Self {
            major: hi - lo,
            minor: self.minor,
            indptr: self.indptr[lo..=hi].iter().map(|p| p - a).collect(),
            indices: self.indices[a..b].to_vec(),
            values: self.values[a..b].to_vec(),
        }
    }

    /// Every slice restricted to minor indices `lo..hi`, rebased by `-lo`.
    /// CSR's column block, CSC's row block and a windowed shard's rank view
    /// are this one function, so they agree bitwise.
    ///
    /// # Panics
    /// Panics unless `lo <= hi <= minor`.
    pub(crate) fn minor_window(&self, lo: usize, hi: usize) -> Self {
        assert!(
            lo <= hi && hi <= self.minor,
            "window {lo}..{hi} out of range"
        );
        let mut indptr = Vec::with_capacity(self.major + 1);
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        indptr.push(0);
        for k in 0..self.major {
            let s = self.slice(k);
            let a = s.indices.partition_point(|&i| i < lo);
            let b = s.indices.partition_point(|&i| i < hi);
            indices.extend(s.indices[a..b].iter().map(|&i| i - lo));
            values.extend_from_slice(&s.values[a..b]);
            indptr.push(indices.len());
        }
        Self {
            major: self.major,
            minor: hi - lo,
            indptr,
            indices,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, CsrMatrix};
    use xrng::rng_from_seed;

    /// The column block as `CsrMatrix::col_block` computed it before the
    /// window moved here (`CscMatrix::row_block` was the same loop on
    /// columns), kept as the reference.
    fn col_block_reference(a: &CsrMatrix, lo: usize, hi: usize) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(a.rows() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for i in 0..a.rows() {
            let r = a.row(i);
            let start = r.indices.partition_point(|&c| c < lo);
            let end = r.indices.partition_point(|&c| c < hi);
            for k in start..end {
                indices.push(r.indices[k] - lo);
                values.push(r.values[k]);
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_parts(a.rows(), hi - lo, indptr, indices, values)
    }

    #[test]
    fn minor_window_matches_the_old_block_splitters_bitwise() {
        let mut rng = rng_from_seed(27);
        for _ in 0..200 {
            let (rows, cols) = (1 + rng.next_index(30), 1 + rng.next_index(30));
            let mut coo = CooMatrix::new(rows, cols);
            for _ in 0..rng.next_index(rows * cols + 1) {
                let v = match rng.next_index(8) {
                    0 => f64::from_bits(1 + rng.next_index(1 << 20) as u64),
                    _ => rng.next_gaussian(),
                };
                coo.push(rng.next_index(rows), rng.next_index(cols), v);
            }
            let bits = |m: &Compressed| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let csr = coo.to_csr();
            let hi = rng.next_index(cols + 1);
            let lo = rng.next_index(hi + 1);
            let want = col_block_reference(&csr, lo, hi);
            let got = csr.col_block(lo, hi);
            assert_eq!(got, want, "CSR columns {lo}..{hi}");
            assert_eq!(bits(&got.0), bits(&want.0));
            // A CSC's arrays read as a CSR of the transpose: its row block
            // is that CSR's column block.
            let csc = coo.to_csc();
            let hi = rng.next_index(rows + 1);
            let lo = rng.next_index(hi + 1);
            let want = col_block_reference(&CsrMatrix(csc.0.clone()), lo, hi);
            let got = csc.row_block(lo, hi);
            assert_eq!(got.0, want.0, "CSC rows {lo}..{hi}");
            assert_eq!(bits(&got.0), bits(&want.0));
        }
    }

    /// `check_slice` as it was before the branch-free fast path, kept as
    /// the reference for what passes and for every message.
    fn check_slice_reference(
        k: usize,
        indices: &[usize],
        values: &[f64],
        minor: usize,
    ) -> Result<(), String> {
        let what = if indices.len() != values.len() {
            format!("{} indices but {} values", indices.len(), values.len())
        } else if let Some(w) = indices.windows(2).find(|w| w[0] >= w[1]) {
            format!("indices not strictly increasing ({} then {})", w[0], w[1])
        } else if let Some(i) = indices.last().filter(|&&i| i >= minor) {
            format!("index {i} out of range (minor axis {minor})")
        } else if let Some(v) = values.iter().find(|v| !v.is_finite()) {
            format!("non-finite value {v}")
        } else {
            return Ok(());
        };
        Err(format!("slice {k}: {what}"))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// The fast path accepts exactly the slices the message path
        /// accepts, and a refused slice's message is the reference's byte
        /// for byte: valid slices, and each failure class — a length
        /// mismatch, a repeated or a decreasing index, an index at or past
        /// `minor`, NaN, ±inf — alone, on top of another, or as raw bits.
        #[test]
        fn check_slice_fast_path_agrees_with_the_message_path(
            seed in proptest::prelude::any::<u64>(),
            classes in proptest::collection::vec(0usize..9, 1..3),
        ) {
            let mut rng = rng_from_seed(seed);
            let minor = 2 + rng.next_index(48);
            let density = rng.next_f64();
            let mut indices: Vec<usize> = (0..minor).filter(|_| rng.next_bool(density)).collect();
            if indices.len() < 2 {
                indices = vec![0, minor - 1];
            }
            let mut values: Vec<f64> = indices.iter().map(|_| rng.next_gaussian()).collect();
            let at = rng.next_index(indices.len() - 1);
            for &class in &classes {
                match class {
                    1 if rng.next_bool(0.5) => values.truncate(values.len() - 1),
                    1 => values.push(rng.next_gaussian()),
                    2 => indices[at + 1] = indices[at],
                    3 => indices.swap(at, at + 1),
                    4 => *indices.last_mut().unwrap() = minor + rng.next_index(3),
                    5 => {
                        let nans = [f64::NAN, -f64::NAN, f64::from_bits(0x7ff0_0000_0000_0001)];
                        values[at] = nans[rng.next_index(3)];
                    }
                    6 => values[at] = [f64::INFINITY, f64::NEG_INFINITY][rng.next_index(2)],
                    7 => values.iter_mut().for_each(|v| *v = f64::from_bits(rng.next_u64())),
                    _ => {}
                }
            }
            let k = rng.next_index(1 << 20);
            let want = check_slice_reference(k, &indices, &values, minor);
            let got = check_slice(k, &indices, &values, minor).map_err(|m| m.to_string());
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(slice_ok(&indices, &values, minor), want.is_ok());
            // Two classes can cancel (a swap undone, a NaN overwritten); one
            // alone always breaks the slice.
            if let [class @ 1..=6] = classes[..] {
                proptest::prop_assert!(want.is_err(), "class {} passed", class);
            }
        }
    }
}
