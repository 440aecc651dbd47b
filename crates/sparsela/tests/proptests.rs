//! Property-based tests of the linear-algebra substrate: format
//! conversions are lossless, kernels agree with dense references, Gram
//! matrices are symmetric PSD, every SIMD build agrees bit for bit.

use proptest::prelude::*;
use sparsela::eig::{jacobi_eigenvalues, max_eigenvalue};
use sparsela::gram::{sampled_cross, sampled_cross_into, sampled_gram, sampled_gram_into};
use sparsela::io::{read_libsvm, write_libsvm, Dataset};
use sparsela::shard::{verify_store, write_csc, write_csr, ShardStore, StreamingMatrix};
use sparsela::{vecops, CooMatrix, CscMatrix, CsrMatrix, DenseMatrix, SparseSlice};
use sparsela::{GramWorkspace, MajorSlices};
use std::io::Cursor;

/// Per-case counter so concurrent proptest cases get distinct shard dirs.
static SHARD_CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

fn shard_case_dir(axis: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sparsela-shard-prop-{}-{}-{}",
        std::process::id(),
        SHARD_CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        axis
    ))
}

/// Strategy: a random sparse matrix as (rows, cols, triplets).
fn sparse_matrix() -> impl Strategy<Value = CooMatrix> {
    (1usize..24, 1usize..24).prop_flat_map(|(m, n)| {
        proptest::collection::vec((0..m, 0..n, -10.0f64..10.0), 0..(m * n).min(64)).prop_map(
            move |trips| {
                let mut coo = CooMatrix::new(m, n);
                for (i, j, v) in trips {
                    coo.push(i, j, v);
                }
                coo
            },
        )
    })
}

/// The sampled Gram and cross product as the per-entry contract states
/// them, one chain at a time: Gram entry `(a, b)`, `a < b`, is slice `b`'s
/// `dot_dense` against slice `a` densified, diagonals are `norm_sq`; cross
/// entry `(a, j)` is slice `a`'s `dot_dense` against vector `j`.
fn single_chain_reference<M: MajorSlices>(
    m: &M,
    sel: &[usize],
    vs: &[&[f64]],
) -> (Vec<u64>, Vec<u64>) {
    let k = sel.len();
    let mut g = vec![0u64; k * k];
    let mut c = Vec::new();
    for a in 0..k {
        let sa = m.slice(sel[a]);
        let mut dense = vec![0.0; m.minor_len()];
        for (&i, &v) in sa.indices.iter().zip(sa.values) {
            dense[i] = v;
        }
        g[a * k + a] = sa.norm_sq().to_bits();
        for b in a + 1..k {
            let v = m.slice(sel[b]).dot_dense(&dense).to_bits();
            g[a * k + b] = v;
            g[b * k + a] = v;
        }
        c.extend(vs.iter().map(|v| sa.dot_dense(v).to_bits()));
    }
    (g, c)
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `G[a][b]` and `G[b][a]` are the same bits — what the solvers' lane
/// corrections read `G` through.
fn bitwise_symmetric(g: &DenseMatrix) -> bool {
    let k = g.rows();
    (0..k).all(|a| (0..k).all(|b| g.get(a, b).to_bits() == g.get(b, a).to_bits()))
}

proptest! {
    /// Slices that store every coordinate take the full-slice lane block
    /// (interleave by copy, four partner chains per pass, diagonal from
    /// the slice's own pass) and the side-by-side cross chains — and every
    /// entry is still BITWISE the single-chain reference's, on both
    /// layouts and at every thread count: ragged against 8 lanes and 4
    /// partners, duplicate selections inside and across lane blocks,
    /// stored `0.0`, `-0.0` and subnormals. One slice lacking one
    /// coordinate sends the call down the sparse block, to the same bits;
    /// and one workspace alternated between the two keeps serving both
    /// (a scatter buffer the full block had dirtied would show here).
    #[test]
    fn full_slices_match_the_single_chain_reference_bitwise(
        seed in any::<u64>(),
        minor in 1usize..=130,
        k in 1usize..=40,
    ) {
        let mut rng = xrng::rng_from_seed(seed);
        let major = 1 + rng.next_index(12);
        let values: Vec<f64> = (0..major * minor)
            .map(|_| match rng.next_index(16) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(1 + rng.next_index(1 << 20) as u64),
                3 => -f64::MIN_POSITIVE / 4.0,
                _ => rng.next_gaussian(),
            })
            .collect();
        let indptr: Vec<usize> = (0..=major).map(|r| r * minor).collect();
        let indices: Vec<usize> = (0..major * minor).map(|e| e % minor).collect();
        // The same slices as rows of a CSR and as columns of a CSC.
        let csr = CsrMatrix::from_parts(major, minor, indptr.clone(), indices.clone(), values.clone());
        let csc = CscMatrix::from_parts(minor, major, indptr.clone(), indices.clone(), values.clone());
        // …and a copy whose slice `hole` lacks one coordinate.
        let hole = rng.next_index(major);
        let gone = hole * minor + rng.next_index(minor);
        let keep = |e: &usize| *e != gone;
        let holey = CsrMatrix::from_parts(
            major,
            minor,
            (0..=major).map(|r| r * minor - usize::from(r > hole)).collect(),
            (0..major * minor).filter(keep).map(|e| e % minor).collect(),
            (0..major * minor).filter(keep).map(|e| values[e]).collect(),
        );

        let mut sel: Vec<usize> = (0..k).map(|_| rng.next_index(major)).collect();
        sel[rng.next_index(k)] = hole;
        let v: Vec<f64> = (0..minor).map(|_| rng.next_gaussian()).collect();
        let w: Vec<f64> = (0..minor).map(|_| rng.next_gaussian()).collect();
        let two: [&[f64]; 2] = [&v, &w];

        let (want_g, want_c2) = single_chain_reference(&csr, &sel, &two);
        let (holey_g, holey_c1) = single_chain_reference(&holey, &sel, &two[..1]);
        let mut ws = GramWorkspace::new();
        let (mut g, mut c) = (DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0));
        for threads in [1usize, 4] {
            sampled_gram_into(&csr, &sel, threads, &mut ws, &mut g);
            prop_assert_eq!(&bits(&g), &want_g, "csr, threads = {}", threads);
            sampled_gram_into(&holey, &sel, threads, &mut ws, &mut g);
            prop_assert_eq!(&bits(&g), &holey_g, "one coordinate short, threads = {}", threads);
            sampled_gram_into(&csc, &sel, threads, &mut ws, &mut g);
            prop_assert_eq!(&bits(&g), &want_g, "csc, threads = {}", threads);
        }
        sampled_cross_into(&csr, &sel, &two, &mut c);
        prop_assert_eq!(&bits(&c), &want_c2);
        sampled_cross_into(&csc, &sel, &two, &mut c);
        prop_assert_eq!(&bits(&c), &want_c2);
        sampled_cross_into(&csc, &sel, &two[..1], &mut c);
        let want_c1: Vec<u64> = want_c2.iter().copied().step_by(2).collect();
        prop_assert_eq!(&bits(&c), &want_c1);
        sampled_cross_into(&holey, &sel, &two[..1], &mut c);
        prop_assert_eq!(&bits(&c), &holey_c1);
    }

    /// Sparse slices take the scatter or the row-intersection schedule, as
    /// the data decides; either way every entry is BITWISE the single-chain
    /// reference's — on both layouts, at 1 and 4 threads, with empty slices
    /// (`norm_sq`'s `−0.0` diagonal), duplicate selections and stored
    /// `0.0`, `−0.0` and subnormals. Slice densities span both sides of the
    /// choice: a few nonzeros on a long minor axis (row intersection) to a
    /// third of a short one (scatter).
    #[test]
    fn sparse_schedules_match_the_single_chain_reference_bitwise(
        seed in any::<u64>(),
        k in 1usize..=160,
        minor in 1usize..=3000,
        per_slice in 0usize..=40,
    ) {
        let mut rng = xrng::rng_from_seed(seed);
        let major = 1 + rng.next_index(200);
        let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
        for _ in 0..major {
            let nnz = rng.next_index(2 * per_slice + 1).min(minor);
            let mut rows = xrng::sample_without_replacement(&mut rng, minor, nnz);
            rows.sort_unstable();
            for i in rows {
                indices.push(i);
                values.push(match rng.next_index(12) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::from_bits(1 + rng.next_index(1 << 20) as u64),
                    _ => rng.next_gaussian(),
                });
            }
            indptr.push(indices.len());
        }
        // The same slices as rows of a CSR and as columns of a CSC.
        let csr = CsrMatrix::from_parts(major, minor, indptr.clone(), indices.clone(), values.clone());
        let csc = CscMatrix::from_parts(minor, major, indptr, indices, values);
        let sel: Vec<usize> = (0..k).map(|_| rng.next_index(major)).collect();
        let v: Vec<f64> = (0..minor).map(|_| rng.next_gaussian()).collect();
        let w: Vec<f64> = (0..minor).map(|_| rng.next_gaussian()).collect();
        let two: [&[f64]; 2] = [&v, &w];
        let (want, want_c2) = single_chain_reference(&csr, &sel, &two);

        let mut ws = GramWorkspace::new();
        let (mut g, mut c) = (DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0));
        for threads in [1usize, 4] {
            sampled_gram_into(&csr, &sel, threads, &mut ws, &mut g);
            prop_assert_eq!(&bits(&g), &want, "csr, threads = {}", threads);
            sampled_gram_into(&csc, &sel, threads, &mut ws, &mut g);
            prop_assert_eq!(&bits(&g), &want, "csc, threads = {}", threads);
        }
        // Two vectors share one index pass per slice: still each vector's
        // own `dot_dense` chain.
        sampled_cross_into(&csr, &sel, &two, &mut c);
        prop_assert_eq!(&bits(&c), &want_c2);
        sampled_cross_into(&csc, &sel, &two, &mut c);
        prop_assert_eq!(&bits(&c), &want_c2);
    }

    /// CSR ↔ CSC ↔ dense conversions are lossless.
    #[test]
    fn format_conversions_roundtrip(coo in sparse_matrix()) {
        let csr = coo.to_csr();
        let csc = coo.to_csc();
        let (d1, d2) = (csr.to_dense(), csc.to_dense());
        prop_assert_eq!(d1.as_slice(), d2.as_slice());
        prop_assert_eq!(&csr.to_csc(), &csc);
        prop_assert_eq!(&csc.to_csr(), &csr);
        prop_assert_eq!(csr.nnz(), csc.nnz());
    }

    /// SpMV agrees with the dense GEMV for both formats, and is linear.
    #[test]
    fn spmv_matches_dense_and_is_linear(coo in sparse_matrix(), seed in any::<u64>()) {
        let csr = coo.to_csr();
        let csc = coo.to_csc();
        let d = csr.to_dense();
        let mut rng = xrng::rng_from_seed(seed);
        let x: Vec<f64> = (0..csr.cols()).map(|_| rng.next_gaussian()).collect();
        let y: Vec<f64> = (0..csr.cols()).map(|_| rng.next_gaussian()).collect();
        let dense = d.gemv(&x);
        for (a, b) in csr.spmv(&x).iter().zip(&dense) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        for (a, b) in csc.spmv(&x).iter().zip(&dense) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        // linearity: A(x + 2y) = Ax + 2Ay
        let xy: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + 2.0 * b).collect();
        let lhs = csr.spmv(&xy);
        let ax = csr.spmv(&x);
        let ay = csr.spmv(&y);
        for i in 0..lhs.len() {
            prop_assert!((lhs[i] - (ax[i] + 2.0 * ay[i])).abs() < 1e-8);
        }
    }

    /// spmv_t is the adjoint: ⟨Ax, u⟩ = ⟨x, Aᵀu⟩.
    #[test]
    fn spmv_t_is_adjoint(coo in sparse_matrix(), seed in any::<u64>()) {
        let csr = coo.to_csr();
        let mut rng = xrng::rng_from_seed(seed);
        let x: Vec<f64> = (0..csr.cols()).map(|_| rng.next_gaussian()).collect();
        let u: Vec<f64> = (0..csr.rows()).map(|_| rng.next_gaussian()).collect();
        let lhs = vecops::dot(&csr.spmv(&x), &u);
        let rhs = vecops::dot(&x, &csr.spmv_t(&u));
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs()));
    }

    /// Sampled Gram matrices are symmetric PSD and match the dense product.
    #[test]
    fn gram_is_symmetric_psd(coo in sparse_matrix(), seed in any::<u64>()) {
        let csc = coo.to_csc();
        let n = csc.cols();
        let mut rng = xrng::rng_from_seed(seed);
        let k = 1 + rng.next_index(n.min(6));
        let sel = xrng::sample_without_replacement(&mut rng, n, k);
        let g = sampled_gram(&csc, &sel);
        prop_assert!(bitwise_symmetric(&g));
        // PSD via random quadratic forms
        for _ in 0..8 {
            let x: Vec<f64> = (0..k).map(|_| rng.next_gaussian()).collect();
            let q = vecops::dot(&x, &g.gemv(&x));
            prop_assert!(q >= -1e-9, "quadratic form {q}");
        }
        // matches dense AᵀA restricted to sel
        let d = csc.to_dense();
        for a in 0..k {
            for b in 0..k {
                let expect: f64 = (0..csc.rows())
                    .map(|i| d.get(i, sel[a]) * d.get(i, sel[b]))
                    .sum();
                prop_assert!((g.get(a, b) - expect).abs() < 1e-8);
            }
        }
    }

    /// Cross products match per-column dots.
    #[test]
    fn cross_matches_column_dots(coo in sparse_matrix(), seed in any::<u64>()) {
        let csc = coo.to_csc();
        let mut rng = xrng::rng_from_seed(seed);
        let v: Vec<f64> = (0..csc.rows()).map(|_| rng.next_gaussian()).collect();
        let sel: Vec<usize> = (0..csc.cols().min(5)).collect();
        let c = sampled_cross(&csc, &sel, &[&v]);
        for (a, &j) in sel.iter().enumerate() {
            let expect = csc.col(j).dot_dense(&v);
            prop_assert!((c.get(a, 0) - expect).abs() < 1e-10);
        }
    }

    /// Jacobi eigenvalues satisfy trace and Frobenius identities, and
    /// λmax bounds the Rayleigh quotient.
    #[test]
    fn eig_invariants(seed in any::<u64>(), n in 1usize..10, m in 1usize..16) {
        let mut rng = xrng::rng_from_seed(seed);
        let data: Vec<f64> = (0..m * n).map(|_| rng.next_gaussian()).collect();
        let dense = DenseMatrix::from_vec(m, n, data);
        let g = sampled_gram(&CscMatrix::from_dense(&dense), &(0..n).collect::<Vec<_>>());
        let eigs = jacobi_eigenvalues(&g);
        let trace: f64 = (0..n).map(|i| g.get(i, i)).sum();
        let esum: f64 = eigs.iter().sum();
        prop_assert!((trace - esum).abs() < 1e-7 * trace.abs().max(1.0));
        let lmax = max_eigenvalue(&mut g.clone());
        for _ in 0..4 {
            let x: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
            let nx = vecops::nrm2_sq(&x);
            if nx > 1e-12 {
                let q = vecops::dot(&x, &g.gemv(&x)) / nx;
                prop_assert!(q <= lmax + 1e-7 * lmax.abs().max(1.0));
            }
        }
    }

    /// LIBSVM serialization round-trips arbitrary datasets.
    #[test]
    fn libsvm_roundtrip(coo in sparse_matrix(), seed in any::<u64>()) {
        let a = coo.to_csr();
        let mut rng = xrng::rng_from_seed(seed);
        let b: Vec<f64> = (0..a.rows()).map(|_| rng.next_gaussian()).collect();
        let cols = a.cols();
        let ds = Dataset { a, b };
        let mut buf = Vec::new();
        write_libsvm(&mut buf, &ds).expect("serialize");
        let back = read_libsvm(Cursor::new(buf), cols).expect("parse");
        prop_assert_eq!(back.a, ds.a);
        prop_assert_eq!(back.b, ds.b);
    }

    /// The pooled sampled Gram is BITWISE identical to the serial kernel
    /// at every thread count — the determinism contract of `saco-par`
    /// (tiles use exactly the serial per-entry arithmetic, each writing
    /// its own rows). Exact `==`, not approximate.
    #[test]
    fn parallel_sampled_gram_is_bitwise_serial(coo in sparse_matrix(), seed in any::<u64>()) {
        let csc = coo.to_csc();
        let n = csc.cols();
        let mut rng = xrng::rng_from_seed(seed);
        let k = 1 + rng.next_index(n.min(12));
        let sel: Vec<usize> = (0..k).map(|_| rng.next_index(n)).collect();
        let serial = sampled_gram(&csc, &sel);
        let (mut fresh, mut held) = (sparsela::DenseMatrix::zeros(0, 0), sparsela::DenseMatrix::zeros(0, 0));
        let mut ws = GramWorkspace::new();
        for t in [1usize, 2, 4, 7] {
            sampled_gram_into(&csc, &sel, t, &mut GramWorkspace::new(), &mut fresh);
            prop_assert_eq!(fresh.as_slice(), serial.as_slice(), "threads = {}", t);
            // Workspace reuse across calls must not change a single bit.
            sampled_gram_into(&csc, &sel, t, &mut ws, &mut held);
            prop_assert_eq!(held.as_slice(), serial.as_slice(), "held, threads = {}", t);
        }
    }

    /// `sampled_cross_into` with a reused output matrix is bitwise equal
    /// to the allocating variant, call after call.
    #[test]
    fn cross_into_reuse_is_bitwise(coo in sparse_matrix(), seed in any::<u64>()) {
        let csc = coo.to_csc();
        let mut rng = xrng::rng_from_seed(seed);
        let v: Vec<f64> = (0..csc.rows()).map(|_| rng.next_gaussian()).collect();
        let w: Vec<f64> = (0..csc.rows()).map(|_| rng.next_gaussian()).collect();
        let mut out = sparsela::DenseMatrix::zeros(0, 0);
        for k in [1usize, 2, 5] {
            let sel: Vec<usize> = (0..k.min(csc.cols())).map(|_| rng.next_index(csc.cols())).collect();
            let fresh = sampled_cross(&csc, &sel, &[&v, &w]);
            sampled_cross_into(&csc, &sel, &[&v, &w], &mut out);
            prop_assert_eq!(out.as_slice(), fresh.as_slice());
        }
    }

    /// Symmetric-triangle pack → unpack is the identity, bit for bit, at
    /// any offset inside a larger fused buffer — the invariant the fused
    /// allreduce payload rests on.
    #[test]
    fn sympack_roundtrip_is_identity(seed in any::<u64>(), k in 1usize..24, prefix in 0usize..17) {
        use sparsela::{pack_upper_into, packed_len, unpack_symmetric_into};
        let mut rng = xrng::rng_from_seed(seed);
        // Symmetrize a random square matrix (only the upper triangle of a
        // symmetric matrix travels, so the input must be symmetric).
        let mut g = DenseMatrix::zeros(k, k);
        for a in 0..k {
            for b in a..k {
                let v = rng.next_gaussian();
                g.set(a, b, v);
                g.set(b, a, v);
            }
        }
        let mut buf: Vec<f64> = (0..prefix).map(|_| rng.next_gaussian()).collect();
        pack_upper_into(&g, &mut buf);
        prop_assert_eq!(buf.len(), prefix + packed_len(k));
        let mut out = DenseMatrix::zeros(0, 0);
        let pos = unpack_symmetric_into(&buf, prefix, k, &mut out);
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(out.as_slice(), g.as_slice());
    }

    /// Every SIMD microkernel build is bitwise identical: running the
    /// whole rewritten kernel set under `SACO_SIMD=scalar` and
    /// `SACO_SIMD=auto` produces the same bits — BLAS-1 kernels at random
    /// lengths including ragged 4-lane tails, and the interleaved sampled
    /// Gram including ragged
    /// 8-lane scatter tails and duplicate selections. The lane schedule
    /// is the contract; the ISA must not be observable. (All the
    /// mode-crossing assertions live in this one test because the mode
    /// switch is process-global.)
    #[test]
    fn simd_scalar_and_wide_are_bitwise(
        seed in any::<u64>(),
        len in 0usize..70,
    ) {
        use sparsela::simd::{self, Mode};
        let mut rng = xrng::rng_from_seed(seed);
        let x: Vec<f64> = (0..len).map(|_| rng.next_gaussian()).collect();
        let y: Vec<f64> = (0..len).map(|_| rng.next_gaussian()).collect();
        let alpha = rng.next_gaussian();
        let (sm, sn) = (1 + rng.next_index(80), 1 + rng.next_index(20));
        let mut coo = CooMatrix::new(sm, sn);
        for _ in 0..rng.next_index(4 * sn.min(sm) + 1) {
            coo.push(rng.next_index(sm), rng.next_index(sn), rng.next_gaussian());
        }
        let csc = coo.to_csc();
        let k = 1 + rng.next_index(12);
        let sel: Vec<usize> = (0..k).map(|_| rng.next_index(sn)).collect();

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let run = |mode: Mode| {
            simd::set_mode(mode);
            let mut z = y.clone();
            vecops::axpy(alpha, &x, &mut z);
            let mut s = x.clone();
            vecops::scale(alpha, &mut s);
            (
                vecops::dot(&x, &y).to_bits(),
                vecops::nrm2_sq(&x).to_bits(),
                vecops::nrm2(&x).to_bits(),
                bits(&z),
                bits(&s),
                bits(sampled_gram(&csc, &sel).as_slice()),
            )
        };
        let ambient = simd::mode();
        let scalar = run(Mode::Scalar);
        let auto = run(Mode::Auto);
        simd::set_mode(ambient);
        prop_assert_eq!(scalar, auto);
    }

    /// On-disk shard directories round-trip arbitrary matrices **bitwise**
    /// on both axes — ragged shard boundaries, all-empty slices, label and
    /// nnz sidecars, per-shard byte accounting — and a [`StreamingMatrix`]
    /// squeezed to the tightest two-shard pin budget still serves every
    /// slice bitwise through the prepare/evict cycle.
    #[test]
    fn shard_roundtrip_is_bitwise(coo in sparse_matrix(), seed in any::<u64>(), labeled in any::<bool>()) {
        use sparsela::{MajorSlices, SliceSource};
        let csr = coo.to_csr();
        let csc = coo.to_csc();
        let mut rng = xrng::rng_from_seed(seed);
        let labels: Option<Vec<f64>> =
            labeled.then(|| (0..csr.rows()).map(|_| rng.next_gaussian()).collect());

        for axis in ["csc", "csr"] {
            let major = if axis == "csc" { csc.cols() } else { csr.rows() };
            // Ragged bounds: every interior cut is a coin flip, so shards
            // of width 1 and of the whole axis both occur.
            let mut bounds = vec![0usize];
            for b in 1..major {
                if rng.next_bool(0.4) {
                    bounds.push(b);
                }
            }
            bounds.push(major);
            let dir = shard_case_dir(axis);
            let _ = std::fs::remove_dir_all(&dir);
            let manifest = if axis == "csc" {
                write_csc(&dir, &csc, &bounds, labels.as_deref()).expect("write csc shards")
            } else {
                write_csr(&dir, &csr, &bounds, labels.as_deref()).expect("write csr shards")
            };
            prop_assert_eq!(manifest.nnz as usize, csr.nnz());
            prop_assert_eq!(manifest.shards.len(), bounds.len() - 1);

            let store = ShardStore::open(&dir).expect("open shard store");
            if axis == "csc" {
                verify_store(&store, &csc).expect("csc store must match source bitwise");
            } else {
                verify_store(&store, &csr).expect("csr store must match source bitwise");
            }

            // The manifest's byte accounting is the truth on disk: extent
            // k starts at Σ_{j<k} disk_bytes, with the extent magic there,
            // and the data file is Σ disk_bytes long.
            let data = std::fs::read(dir.join("shards.bin")).expect("data file exists");
            let mut at = 0u64;
            for meta in &store.manifest().shards {
                let magic = data.get(at as usize..at as usize + 8);
                prop_assert_eq!(magic, Some(&b"SACOSHD1"[..]), "extent {}", meta.index);
                at += meta.disk_bytes();
            }
            prop_assert_eq!(data.len() as u64, at);
            prop_assert_eq!(at, store.manifest().disk_bytes());

            // Label sidecar round-trips bitwise (and is absent when unwritten).
            match (&labels, store.read_labels()) {
                (Some(want), Ok(got)) => {
                    prop_assert_eq!(want.len(), got.len());
                    for (w, g) in want.iter().zip(&got) {
                        prop_assert_eq!(w.to_bits(), g.to_bits());
                    }
                }
                (None, Err(_)) => {}
                (want, got) => prop_assert!(false, "labels {:?} vs {:?}", want.is_some(), got.is_ok()),
            }

            // The minor-nnz sidecar agrees with a hand count over the source.
            let minor_nnz = store.minor_nnz().expect("minor nnz sidecar");
            let mut hand = vec![0u64; store.manifest().minor];
            for k in 0..major {
                let s = if axis == "csc" { csc.slice(k) } else { csr.slice(k) };
                for &i in s.indices {
                    hand[i] += 1;
                }
            }
            prop_assert_eq!(minor_nnz, hand);

            // Streaming under the tightest legal budget: two adjacent
            // shards pinned (prepare pins the current epoch and releases
            // pins two epochs back), everything else evictable.
            let decoded: Vec<u64> = (0..store.manifest().shards.len())
                .map(|i| store.read_shard(i).expect("decode shard").heap_bytes())
                .collect();
            let budget = decoded
                .windows(2)
                .map(|w| w[0] + w[1])
                .max()
                .unwrap_or(decoded[0])
                .max(decoded[0]);
            let a = StreamingMatrix::open(&dir, budget).expect("open streaming matrix");
            for k in 0..major {
                a.prepare(&[k]);
                let got = a.slice(k);
                let want = if axis == "csc" { csc.slice(k) } else { csr.slice(k) };
                prop_assert_eq!(got.indices, want.indices);
                for (g, w) in got.values.iter().zip(want.values) {
                    prop_assert_eq!(g.to_bits(), w.to_bits());
                }
            }
            let st = a.io_stats();
            let max_shard = decoded.iter().copied().max().unwrap_or(0);
            prop_assert!(
                st.resident_hwm_bytes <= budget + max_shard,
                "hwm {} over budget {} + one-shard slack {}",
                st.resident_hwm_bytes, budget, max_shard
            );
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    /// Shard load is a door a file walks through: one mutation inside one
    /// extent of a valid `shards.bin` — a random byte anywhere in it, or a
    /// whole `indptr`, index or value word, value words including NaN and
    /// ±inf patterns — reads back as `InvalidData` or as slices that pass
    /// the slice invariant, and never panics. A non-finite value is always
    /// refused.
    #[test]
    fn mutated_shard_files_are_refused_or_valid(coo in sparse_matrix(), seed in any::<u64>()) {
        let csc = coo.to_csc();
        let mut rng = xrng::rng_from_seed(seed);
        let major = csc.cols();
        let mut bounds = vec![0usize];
        if major > 1 {
            bounds.push(1 + rng.next_index(major - 1));
        }
        bounds.push(major);
        let dir = shard_case_dir("mutate");
        let _ = std::fs::remove_dir_all(&dir);
        write_csc(&dir, &csc, &bounds, None).expect("write csc shards");
        let store = ShardStore::open(&dir).expect("open shard store");
        let meta = store.manifest().shards[rng.next_index(bounds.len() - 1)];
        let path = dir.join("shards.bin");
        let mut bytes = std::fs::read(&path).expect("read data file");

        // The extent's offset, then the three arrays' offsets after its
        // 56-byte header.
        let extent: usize = store.manifest().shards[..meta.index]
            .iter()
            .map(|m| m.disk_bytes() as usize)
            .sum();
        let indptr_at = extent + 56;
        let indices_at = indptr_at + (meta.hi - meta.lo + 1) * 8;
        let values_at = indices_at + meta.nnz as usize * 8;
        let nnz = meta.nnz as usize;
        let mut word_at = |at: usize, rng: &mut xrng::Rng, patterns: &[u64]| {
            let old = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
            let new = match rng.next_index(patterns.len() + 3) {
                0 => old.wrapping_add(1),
                1 => old.wrapping_sub(1),
                2 => rng.next_u64(),
                p => patterns[p - 3],
            };
            bytes[at..at + 8].copy_from_slice(&new.to_le_bytes());
            new
        };
        let mut non_finite = false;
        match rng.next_index(4) {
            1 => {
                let at = indptr_at + 8 * rng.next_index(meta.hi - meta.lo + 1);
                word_at(at, &mut rng, &[0, u64::MAX]);
            }
            2 if nnz > 0 => {
                let at = indices_at + 8 * rng.next_index(nnz);
                word_at(at, &mut rng, &[store.manifest().minor as u64, u64::MAX]);
            }
            3 if nnz > 0 => {
                let at = values_at + 8 * rng.next_index(nnz);
                let patterns = [
                    f64::NAN.to_bits(),
                    (-f64::NAN).to_bits(),
                    0x7ff0_0000_0000_0001, // a signalling NaN
                    f64::INFINITY.to_bits(),
                    f64::NEG_INFINITY.to_bits(),
                ];
                non_finite = !f64::from_bits(word_at(at, &mut rng, &patterns)).is_finite();
            }
            _ => {
                let p = extent + rng.next_index(meta.disk_bytes() as usize);
                bytes[p] = rng.next_u64() as u8;
            }
        }
        std::fs::write(&path, &bytes).expect("write mutated data file");

        match store.read_shard(meta.index) {
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e),
            Ok(d) => {
                prop_assert!(!non_finite, "a non-finite value was decoded");
                for k in meta.lo..meta.hi {
                    let s = d.slice(k);
                    prop_assert_eq!(s.indices.len(), s.values.len());
                    prop_assert!(s.indices.windows(2).all(|w| w[0] < w[1]), "slice {}", k);
                    prop_assert!(s.indices.iter().all(|&i| i < store.manifest().minor));
                    prop_assert!(s.values.iter().all(|v| v.is_finite()), "slice {}", k);
                }
            }
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// The Jacobi eigenvalues as computed before the sweeps ran in place:
/// clone, sweep through `get`/`set`, sort the diagonal descending (the
/// symmetry check is the caller's). Kept as the bitwise reference for the in-place sweep and
/// its first-max diagonal scan; its element [0] is what `max_eigenvalue`
/// returned for orders 3..=32.
fn clone_and_sort_eigenvalues(a: &DenseMatrix) -> Vec<f64> {
    let n = a.rows();
    let mut m = a.clone();
    for _sweep in 0..50 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                off = off.max(m.get(p, q).abs());
            }
        }
        let scale = vecops::inf_norm(m.as_slice()).max(1e-300);
        if off <= 1e-14 * scale {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
            }
        }
    }
    let mut eigs = m.diagonal();
    eigs.sort_by(|a, b| b.partial_cmp(a).unwrap());
    eigs
}

/// A sampled Gram block of order `n` of the shapes the solvers send the
/// Jacobi: `kind` 0 — Gaussian columns, some selected twice (rotating);
/// 1 — disjoint supports, so exactly diagonal; 2 — disjoint supports that
/// share one row at `tiny` relative size (off-diagonal ≤ 1e-14·scale when
/// `tiny` is 1e-9, a few small rotations when it is 1e-6); 3 — every
/// column empty, an all-zero block with a `−0.0` diagonal; 4 — kinds 0
/// and 1 with some columns empty (`−0.0` diagonal entries among others).
fn solver_shaped_gram(rng: &mut xrng::Rng, n: usize, kind: usize) -> DenseMatrix {
    let tiny = if rng.next_index(2) == 0 { 1e-9 } else { 1e-6 };
    let (m, shared) = (2 * n + 1, 2 * n);
    let mut coo = CooMatrix::new(m, n);
    for j in 0..n {
        let empty = kind == 3 || (kind == 4 && rng.next_index(3) == 0);
        if empty {
            continue;
        }
        match kind {
            0 => {
                for i in 0..m {
                    coo.push(i, j, rng.next_gaussian());
                }
            }
            2 => {
                coo.push(j, j, rng.next_gaussian());
                coo.push(n + j, j, rng.next_gaussian());
                coo.push(shared, j, tiny * rng.next_gaussian());
            }
            _ => {
                coo.push(j, j, rng.next_gaussian());
                if kind == 4 && rng.next_index(2) == 0 {
                    coo.push(shared, j, rng.next_gaussian());
                }
            }
        }
    }
    let csc = coo.to_csc();
    let sel: Vec<usize> = (0..n)
        .map(|j| {
            if kind == 0 && rng.next_index(4) == 0 {
                rng.next_index(n)
            } else {
                j
            }
        })
        .collect();
    sampled_gram(&csc, &sel)
}

proptest! {
    /// λmax in place is the clone-and-sort Jacobi's first eigenvalue BIT
    /// FOR BIT, through both doors (`max_eigenvalue` and
    /// `jacobi_eigenvalues(a)[0]`), on every order the solvers hand to
    /// Jacobi and every block shape they send: rotating, exactly diagonal,
    /// diagonal to 1e-14, all-zero and `−0.0`-diagonal. The full sorted
    /// spectrum must match too.
    #[test]
    fn in_place_jacobi_matches_clone_and_sort_bitwise(
        seed in any::<u64>(),
        n in 3usize..=32,
        kind in 0usize..5,
    ) {
        let mut rng = xrng::rng_from_seed(seed);
        let g = solver_shaped_gram(&mut rng, n, kind);
        prop_assert!(bitwise_symmetric(&g));
        let want = clone_and_sort_eigenvalues(&g);
        let all: Vec<u64> = jacobi_eigenvalues(&g).iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&all, &want.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        let mut scratch = g.clone();
        prop_assert_eq!(max_eigenvalue(&mut scratch).to_bits(), want[0].to_bits(), "kind {}", kind);
        // The rotated block holds the spectrum on its diagonal.
        let mut diag = scratch.diagonal();
        diag.sort_by(|a, b| b.partial_cmp(a).unwrap());
        prop_assert_eq!(diag.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), all);
    }

    /// `axpy_into`'s full-slice path and the fused two-vector
    /// `axpy2_into` are BITWISE the indexed scatter-add loop, on full and
    /// sparse slices, with stored `0.0`, `−0.0` and subnormals.
    #[test]
    fn axpy_paths_match_the_indexed_loop_bitwise(
        seed in any::<u64>(),
        n in 1usize..70,
        full in any::<bool>(),
    ) {
        let mut rng = xrng::rng_from_seed(seed);
        let indices: Vec<usize> = if full {
            (0..n).collect()
        } else {
            let nnz = rng.next_index(n + 1);
            let mut rows = xrng::sample_without_replacement(&mut rng, n, nnz);
            rows.sort_unstable();
            rows
        };
        let values: Vec<f64> = indices
            .iter()
            .map(|_| match rng.next_index(8) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(1 + rng.next_index(1 << 20) as u64),
                _ => rng.next_gaussian(),
            })
            .collect();
        let slice = SparseSlice { indices: &indices, values: &values };
        let (alpha, beta) = (rng.next_gaussian(), -rng.next_gaussian());
        let y0: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let z0: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let indexed = |a: f64, v: &[f64]| {
            let mut v = v.to_vec();
            for (&i, &x) in indices.iter().zip(&values) {
                v[i] += a * x;
            }
            v.iter().map(|e| e.to_bits()).collect::<Vec<_>>()
        };
        let bits_of = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let (mut y, mut z) = (y0.clone(), z0.clone());
        slice.axpy_into(alpha, &mut y);
        prop_assert_eq!(bits_of(&y), indexed(alpha, &y0));
        let mut y = y0.clone();
        slice.axpy2_into(alpha, &mut y, beta, &mut z);
        prop_assert_eq!(bits_of(&y), indexed(alpha, &y0));
        prop_assert_eq!(bits_of(&z), indexed(beta, &z0));
    }
}
