//! Symmetric-triangle packing — the wire format of the SA reduction.
//!
//! Every outer loop of Algorithms 2/4 allreduces a symmetric `sb × sb`
//! Gram block. Its lower triangle is pure redundancy on the wire, so the
//! solvers pack only the upper triangle (including the diagonal) —
//! `sb(sb+1)/2` words instead of `sb²` — append the residual-cross terms
//! and any traced scalars, and reduce ONE contiguous buffer. This is the
//! paper's footnote 3 ("G is symmetric so computing just the upper/lower
//! triangular part reduces flops and message size by 2×") applied to the
//! message, not just the flops.
//!
//! Layout of the fused payload built by the solvers:
//!
//! ```text
//! [ upper triangle of G, row-major | cross terms | traced scalars ]
//!   sb(sb+1)/2 words                 nvecs·sb      0 or 1 words
//! ```
//!
//! [`pack_upper_into`] and [`unpack_symmetric_into`] are exact inverses
//! (a bit-for-bit roundtrip — see `tests/proptests.rs`); both are
//! allocation-free against caller-owned buffers so the SA hot loop reuses
//! one payload buffer (or two, when double-buffered for comm/comp
//! overlap) across all outer iterations.

use crate::DenseMatrix;

/// Number of words the packed upper triangle of a `k × k` symmetric
/// matrix occupies: `k(k+1)/2`.
#[inline]
pub fn packed_len(k: usize) -> usize {
    k * (k + 1) / 2
}

/// Append the upper triangle (including diagonal) of a symmetric `k × k`
/// matrix to `buf`, row-major: `G[0][0..k], G[1][1..k], …` — exactly
/// [`packed_len`]`(k)` words.
///
/// Only the upper triangle of `g` is read, so callers that fill just
/// `i ≤ j` entries may skip mirroring before packing.
pub fn pack_upper_into(g: &DenseMatrix, buf: &mut Vec<f64>) {
    let k = g.rows();
    assert_eq!(k, g.cols(), "pack_upper_into needs a square matrix");
    buf.reserve(packed_len(k));
    for i in 0..k {
        for j in i..k {
            buf.push(g.get(i, j));
        }
    }
}

/// Inverse of [`pack_upper_into`]: read [`packed_len`]`(k)` words from
/// `buf[at..]` into a full symmetric matrix (both triangles mirrored),
/// returning the offset just past the triangle so the caller can continue
/// unpacking the cross/scalar tail of a fused payload.
///
/// `out` is reshaped in place — the zero-alloc variant the solver hot
/// loops use to land the allreduced Gram block in a reusable buffer.
pub fn unpack_symmetric_into(buf: &[f64], at: usize, k: usize, out: &mut DenseMatrix) -> usize {
    out.reshape_zeroed(k, k);
    let mut pos = at;
    for i in 0..k {
        for j in i..k {
            let v = buf[pos];
            out.set(i, j, v);
            out.set(j, i, v);
            pos += 1;
        }
    }
    pos
}

/// Total word count of the fused SA payload for a `width × width` Gram
/// block, `nvecs` cross-term vectors, and an optional traced scalar:
/// `width(width+1)/2 + nvecs·width + (traced ? 1 : 0)`.
///
/// Single source of truth for the wire format shared by the solvers'
/// allreduce calls and the simulator's words accounting — the fused
/// buffer built by [`pack_upper_into`] plus the cross/scalar tail.
#[inline]
pub fn payload_words(width: usize, nvecs: usize, traced: bool) -> usize {
    packed_len(width) + nvecs * width + usize::from(traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_prefix_and_matrix() {
        let g = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 5.0, 6.0], &[3.0, 6.0, 9.0]]);
        let mut buf = vec![99.0]; // pre-existing content preserved
        pack_upper_into(&g, &mut buf);
        assert_eq!(buf.len(), 1 + packed_len(3));
        let mut g2 = DenseMatrix::identity(5); // reshaped and overwritten
        let next = unpack_symmetric_into(&buf, 1, 3, &mut g2);
        assert_eq!(next, 7);
        assert_eq!(g2.as_slice(), g.as_slice());
    }

    #[test]
    fn packed_size_is_half_plus_diagonal() {
        let k = 16;
        let g = DenseMatrix::identity(k);
        let mut buf = Vec::new();
        pack_upper_into(&g, &mut buf);
        assert_eq!(buf.len(), packed_len(k));
        assert!(buf.len() < k * k);
    }

    #[test]
    fn lower_triangle_is_never_read() {
        // Fill only i ≤ j; garbage below the diagonal must not leak.
        let mut g = DenseMatrix::zeros(3, 3);
        g.set(0, 0, 1.0);
        g.set(0, 1, 2.0);
        g.set(0, 2, 3.0);
        g.set(1, 1, 4.0);
        g.set(1, 2, 5.0);
        g.set(2, 2, 6.0);
        g.set(2, 0, f64::NAN); // lower-triangle garbage
        let mut buf = Vec::new();
        pack_upper_into(&g, &mut buf);
        assert_eq!(buf, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut full = DenseMatrix::zeros(0, 0);
        unpack_symmetric_into(&buf, 0, 3, &mut full);
        assert!(
            (0..3).all(|a| (0..3).all(|b| full.get(a, b).to_bits() == full.get(b, a).to_bits()))
        );
        assert_eq!(full.get(2, 0), 3.0);
    }

    #[test]
    fn payload_words_counts_triangle_cross_and_scalar() {
        // Matches what a solver actually packs: triangle + cross + scalar.
        let g = DenseMatrix::identity(4);
        let mut buf = Vec::new();
        pack_upper_into(&g, &mut buf);
        buf.resize(buf.len() + 2 * 4, 0.0); // two cross vectors
        assert_eq!(buf.len(), payload_words(4, 2, false));
        buf.push(0.0); // traced scalar
        assert_eq!(buf.len(), payload_words(4, 2, true));
        assert_eq!(payload_words(1, 1, false), 2);
        assert_eq!(payload_words(0, 0, false), 0);
    }

    #[test]
    fn zero_size_matrix_packs_to_nothing() {
        let g = DenseMatrix::zeros(0, 0);
        let mut buf = Vec::new();
        pack_upper_into(&g, &mut buf);
        assert!(buf.is_empty());
        let mut g2 = DenseMatrix::identity(2);
        let next = unpack_symmetric_into(&buf, 0, 0, &mut g2);
        assert_eq!(next, 0);
        assert_eq!((g2.rows(), g2.cols()), (0, 0));
    }
}
