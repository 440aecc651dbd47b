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
//!
//! The layout rule is written once too: a matrix whose every slice is
//! full keeps its values and one `0..minor` index run that every slice
//! borrows (a dense dataset then costs 8 B per entry, not 16, and its
//! transpose moves values only); every other matrix keeps an index per
//! value. Either way a slice reads as the same indices and values, so no
//! kernel can tell the layouts apart.

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
/// `values[indptr[k]..indptr[k+1]]` with its indices. Every value of this
/// type passed [`Compressed::new`] or was derived from one that did.
///
/// The layout follows the content and nothing else: a matrix whose every
/// slice is full (at least one entry, `nnz == major·minor`) stores no
/// per-entry index and every slice borrows one `0..minor` run; any other
/// matrix stores an index beside every value. [`Compressed::assemble`],
/// which every constructor ends in, is the one place the choice is made,
/// so equal matrices have equal layouts and the derived `PartialEq` is
/// equality of the matrices.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Compressed {
    major: usize,
    minor: usize,
    indptr: Vec<usize>,
    index: Index,
    values: Vec<f64>,
}

/// Where a slice's indices live.
#[derive(Clone, Debug, PartialEq)]
enum Index {
    /// One index per stored value, slice `k`'s at `indptr[k]..indptr[k+1]`.
    PerEntry(Vec<usize>),
    /// Every slice is full: `0..minor`, borrowed whole by each of them.
    Shared(Vec<usize>),
}

/// Edge of the square tiles the full transpose moves: 32 × 32 values read
/// and written are 16 KiB, inside any L1 the kernels run on.
const TILE: usize = 32;

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
        Ok(Self::assemble(major, minor, indptr, indices, values))
    }

    /// The matrix whose slice `k` is `values[k·minor..(k+1)·minor]`, entry
    /// by entry, with its zeros dropped (±0 alike, by [`Self::compress`]).
    /// Without a zero no index array is ever built.
    ///
    /// # Panics
    /// Panics unless `values` holds exactly `major·minor` entries.
    pub(crate) fn from_full(
        major: usize,
        minor: usize,
        values: Vec<f64>,
    ) -> Result<Self, Malformed> {
        assert_eq!(
            major.checked_mul(minor),
            Some(values.len()),
            "{major}×{minor} values expected"
        );
        if values.contains(&0.0) {
            let triplets = (values.iter().enumerate())
                .map(|(p, &v)| (p / minor, p % minor, v))
                .collect();
            return Self::compress(major, minor, triplets);
        }
        let indptr = (0..=major).map(|k| k * minor).collect();
        let m = Self::assemble(major, minor, indptr, Vec::new(), values);
        for k in 0..major {
            let s = m.slice(k);
            check_slice(k, s.indices, s.values, minor)?;
        }
        Ok(m)
    }

    /// The one place a layout is picked (see [`Compressed`]). The caller
    /// has validated or derived the arrays; `indices` is read only when
    /// some slice is not full, and a caller that knows every slice is full
    /// passes an empty vector.
    fn assemble(
        major: usize,
        minor: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        let full = !values.is_empty() && major.checked_mul(minor) == Some(values.len());
        let index = if full {
            Index::Shared((0..minor).collect())
        } else {
            debug_assert_eq!(indices.len(), values.len());
            Index::PerEntry(indices)
        };
        Self {
            major,
            minor,
            indptr,
            index,
            values,
        }
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

    /// Whether every slice borrows the one shared index run.
    #[cfg(test)]
    pub(crate) fn shares_index(&self) -> bool {
        matches!(self.index, Index::Shared(_))
    }

    /// Borrow slice `k`.
    #[inline]
    pub(crate) fn slice(&self, k: usize) -> SparseSlice<'_> {
        let (lo, hi) = (self.indptr[k], self.indptr[k + 1]);
        let indices = match &self.index {
            Index::PerEntry(indices) => &indices[lo..hi],
            Index::Shared(run) => &run[..],
        };
        SparseSlice {
            indices,
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

    /// The same matrix sliced along the other axis: CSR → CSC and back.
    /// Sparse, by counting sort in O(nnz + minor); full, by moving the
    /// values tile by tile, with no index to count or scatter.
    pub(crate) fn transpose(&self) -> Self {
        let (major, minor) = (self.minor, self.major);
        let indices = match &self.index {
            Index::PerEntry(indices) => indices,
            Index::Shared(_) => {
                let indptr = (0..=major).map(|k| k * minor).collect();
                let values = self.transpose_full();
                return Self::assemble(major, minor, indptr, Vec::new(), values);
            }
        };
        let mut next = vec![0usize; self.minor + 1];
        for &i in indices {
            next[i + 1] += 1;
        }
        for i in 0..self.minor {
            next[i + 1] += next[i];
        }
        let indptr = next.clone();
        let mut t_indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for k in 0..self.major {
            let s = self.slice(k);
            for (&i, &v) in s.indices.iter().zip(s.values) {
                t_indices[next[i]] = k;
                values[next[i]] = v;
                next[i] += 1;
            }
        }
        Self::assemble(major, minor, indptr, t_indices, values)
    }

    /// A full matrix's values sliced along the minor axis: entry `(k, i)`
    /// moves from `k·minor + i` to `i·major + k`, in [`TILE`]-square tiles
    /// so the strided side stays in cache.
    fn transpose_full(&self) -> Vec<f64> {
        let (m, n) = (self.major, self.minor);
        let mut out = vec![0.0; self.nnz()];
        for k0 in (0..m).step_by(TILE) {
            let ks = k0..(k0 + TILE).min(m);
            for i0 in (0..n).step_by(TILE) {
                let is = i0..(i0 + TILE).min(n);
                for k in ks.clone() {
                    let row = &self.values[k * n..][is.clone()];
                    for (i, &v) in is.clone().zip(row) {
                        out[i * m + k] = v;
                    }
                }
            }
        }
        out
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
        let indices = match &self.index {
            Index::PerEntry(indices) => indices[a..b].to_vec(),
            Index::Shared(_) => Vec::new(),
        };
        Self::assemble(
            hi - lo,
            self.minor,
            self.indptr[lo..=hi].iter().map(|p| p - a).collect(),
            indices,
            self.values[a..b].to_vec(),
        )
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
        // A window of a full matrix is full or empty: no index to keep.
        let per_entry = matches!(self.index, Index::PerEntry(_));
        let mut indptr = Vec::with_capacity(self.major + 1);
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        indptr.push(0);
        for k in 0..self.major {
            let s = self.slice(k);
            let a = s.indices.partition_point(|&i| i < lo);
            let b = s.indices.partition_point(|&i| i < hi);
            if per_entry {
                indices.extend(s.indices[a..b].iter().map(|&i| i - lo));
            }
            values.extend_from_slice(&s.values[a..b]);
            indptr.push(values.len());
        }
        Self::assemble(self.major, hi - lo, indptr, indices, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::{sampled_cross, sampled_gram};
    use crate::{CooMatrix, CscMatrix, CsrMatrix, DenseMatrix};
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

    /// `m` with one index stored per value whatever its content — the
    /// arrays every matrix had before full matrices shared one run —
    /// bypassing [`Compressed::assemble`]. Operations on it run the
    /// per-entry code: the counting-sort transpose, copied index ranges.
    fn per_entry(m: &Compressed) -> Compressed {
        let indices = (0..m.major)
            .flat_map(|k| m.slice(k).indices.to_vec())
            .collect();
        Compressed {
            index: Index::PerEntry(indices),
            ..m.clone()
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The same matrix in the same layout, its values bit for bit.
    fn assert_same(got: &Compressed, want: &Compressed, what: &str) {
        assert_eq!(got, want, "{what}");
        assert_eq!(bits(&got.values), bits(&want.values), "{what}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// A matrix with every entry stored — general, 1×n, n×1 and 0×n
        /// shapes — answers every operation bitwise as its per-entry
        /// reference does, and so does the same matrix one entry short,
        /// which must stay per-entry.
        #[test]
        fn the_shared_run_answers_as_the_per_entry_arrays_do(
            seed in proptest::prelude::any::<u64>(),
            shape in 0usize..4,
            short in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = rng_from_seed(seed);
            let (r, c) = (1 + rng.next_index(9), 1 + rng.next_index(9));
            let (rows, cols) = [(r, c), (1, c), (r, 1), (0, c)][shape];
            let dense: Vec<f64> = (0..rows * cols)
                .map(|_| match rng.next_index(6) {
                    0 => f64::from_bits(1 + rng.next_index(1 << 20) as u64),
                    1 => -f64::from_bits(1 + rng.next_index(1 << 20) as u64),
                    _ => rng.next_gaussian(),
                })
                .collect();
            let mut d = DenseMatrix::from_vec(rows, cols, dense);
            let full = rows * cols > 0 && !short;
            if rows * cols > 0 && short {
                d.set(rng.next_index(rows), rng.next_index(cols), 0.0);
            }
            let csr = CsrMatrix::from_dense(&d);
            proptest::prop_assert_eq!(csr.0.shares_index(), full);
            let reference = CsrMatrix(per_entry(&csr.0));

            // Every door builds the same matrix: explicit arrays, triplets,
            // row-major values.
            let mut coo = CooMatrix::new(rows, cols);
            let (mut indptr, mut indices, mut values) = (vec![0], vec![], vec![]);
            for i in 0..rows {
                for j in 0..cols {
                    let v = d.get(i, j);
                    if v != 0.0 {
                        coo.push(i, j, v);
                        indices.push(j);
                        values.push(v);
                    }
                }
                indptr.push(values.len());
            }
            assert_same(&CsrMatrix::from_parts(rows, cols, indptr, indices, values).0, &csr.0, "from_parts");
            assert_same(&coo.to_csr().0, &csr.0, "COO");
            assert_same(&CsrMatrix::from_row_major(rows, cols, d.as_slice().to_vec()).0, &csr.0, "row-major");

            for i in 0..rows {
                for j in 0..cols {
                    proptest::prop_assert_eq!(csr.get(i, j).to_bits(), reference.get(i, j).to_bits());
                }
            }
            let x: Vec<f64> = (0..cols).map(|_| rng.next_gaussian()).collect();
            let y: Vec<f64> = (0..rows).map(|_| rng.next_gaussian()).collect();
            proptest::prop_assert_eq!(bits(&csr.spmv(&x)), bits(&reference.spmv(&x)));
            proptest::prop_assert_eq!(bits(&csr.spmv_t(&y)), bits(&reference.spmv_t(&y)));
            proptest::prop_assert_eq!(bits(csr.to_dense().as_slice()), bits(d.as_slice()));

            let csc = csr.to_csc();
            let csc_reference = reference.to_csc();
            assert_same(&csc.0, &csc_reference.0, "to_csc");
            assert_same(&CscMatrix::from_dense(&d).0, &csc.0, "CscMatrix::from_dense");
            assert_same(&csc.to_csr().0, &csr.0, "to_csr");
            assert_same(&CscMatrix(per_entry(&csc.0)).to_csr().0, &csr.0, "per-entry to_csr");
            proptest::prop_assert_eq!(bits(&csc.spmv(&x)), bits(&csr.spmv(&x)));
            proptest::prop_assert_eq!(bits(&csc.spmv_t(&y)), bits(&csr.spmv_t(&y)));
            proptest::prop_assert_eq!(bits(csc.to_dense().as_slice()), bits(d.as_slice()));

            let hi = rng.next_index(rows + 1);
            let lo = rng.next_index(hi + 1);
            assert_same(&csr.row_block(lo, hi).0, &reference.row_block(lo, hi).0, "row_block");
            assert_same(&csc.row_block(lo, hi).0, &CscMatrix(per_entry(&csc.0)).row_block(lo, hi).0, "CSC row_block");
            let hi = rng.next_index(cols + 1);
            let lo = rng.next_index(hi + 1);
            assert_same(&csr.col_block(lo, hi).0, &reference.col_block(lo, hi).0, "col_block");

            if cols > 0 {
                let sel: Vec<usize> = (0..1 + rng.next_index(2 * cols)).map(|_| rng.next_index(cols)).collect();
                let per_entry_csc = CscMatrix(per_entry(&csc.0));
                proptest::prop_assert_eq!(
                    bits(sampled_gram(&csc, &sel).as_slice()),
                    bits(sampled_gram(&per_entry_csc, &sel).as_slice())
                );
                proptest::prop_assert_eq!(
                    bits(sampled_cross(&csc, &sel, &[&y, &y]).as_slice()),
                    bits(sampled_cross(&per_entry_csc, &sel, &[&y, &y]).as_slice())
                );
            }
        }
    }
}
