//! The compressed-slice format under [`CsrMatrix`](crate::CsrMatrix),
//! [`CscMatrix`](crate::CscMatrix), COO conversion and the shard files.
//!
//! The paper stores data as "Compressed Sparse Row (3-array variant)"
//! (§IV-B). The primal methods sample columns of a row partition and the
//! dual methods rows of a column partition: the same three arrays cut
//! along the other axis. So the format is written here once, in axis-free
//! terms — `major` slices over a dense `minor` axis — and CSR and CSC only
//! say which axis is which. Each decision about the arrays is one
//! function: the invariant ([`check_slice`], behind every door a matrix
//! enters through: `from_parts`, COO conversion, shard decode and the
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
pub(crate) fn check_slice(
    k: usize,
    indices: &[usize],
    values: &[f64],
    minor: usize,
) -> Result<(), Malformed> {
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
    Err(Malformed(format!("slice {k}: {what}")))
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
}
