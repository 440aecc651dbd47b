//! What the matrices cost in bytes, measured by the allocator: a dense
//! matrix stores 8 B per entry (its values and one shared index run), its
//! transpose allocates no more than that again, reading a dense LIBSVM
//! file peaks under five times the dataset it returns, and a sparse matrix
//! still stores exactly 16 B per entry plus `indptr`.
//!
//! The binary's global allocator counts, per thread, live heap bytes and
//! their high-water mark, so what the test harness allocates on its own
//! threads never enters a measurement. A `realloc` counts as a move: the
//! new block is live before the old one is freed, which holds for any
//! allocator, whether or not it grows the block in place.

use sparsela::io::{read_libsvm, write_libsvm, Dataset};
use sparsela::CsrMatrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

struct Counting;

thread_local! {
    /// Live bytes this thread allocated (less those it freed) and the
    /// high-water mark since the last [`measure`] began.
    static BYTES: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn moved(delta: isize) {
    let _ = BYTES.try_with(|b| {
        let (live, peak) = b.get();
        b.set((live + delta, peak.max(live + delta)));
    });
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            moved(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            moved(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        moved(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            moved(new_size as isize);
            moved(-(layout.size() as isize));
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`; return its result, the high-water mark of this thread's live
/// bytes above the start while it ran, and the bytes still live from it
/// after.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = BYTES.with(|b| {
        let (live, _) = b.get();
        b.set((live, live));
        live
    });
    let out = f();
    let (live, peak) = BYTES.with(Cell::get);
    (out, (peak - base) as usize, (live - base).max(0) as usize)
}

const WORD: usize = std::mem::size_of::<usize>();
const M: usize = 3_000;
const N: usize = 120;

/// O(m + n) words of slack: `indptr`, the index run and the few
/// temporaries of that size a constructor may hold.
fn words(m: usize, n: usize) -> usize {
    4 * WORD * (m + n)
}

#[test]
fn dense_gaussian_stores_eight_bytes_an_entry() {
    let (a, peak, kept) = measure(|| datagen::dense_gaussian(M, N, 7));
    assert_eq!(a.nnz(), M * N);
    let bound = 8 * M * N + words(M, N);
    assert!(peak <= bound, "peak {peak} B > {bound} B");
    assert!(kept <= bound, "kept {kept} B > {bound} B");
}

#[test]
fn dense_transpose_allocates_no_more_than_the_matrix() {
    let a = datagen::dense_gaussian(M, N, 8);
    let (c, peak, _) = measure(|| a.to_csc());
    assert_eq!(c.nnz(), M * N);
    let bound = 8 * M * N + words(M, N);
    assert!(peak <= bound, "to_csc peak {peak} B > {bound} B");
}

/// The reader appends to an index and a value array, each grown by
/// doubling and each moved at most once more by `shrink_to_fit`: at most
/// 2·16 B per entry with a moving block counted twice, 5 × the 8 B per
/// entry it keeps. The parent's triplets and their copies reached 10 ×.
#[test]
fn reading_a_dense_file_peaks_under_five_times_the_dataset() {
    let a = datagen::dense_gaussian(M, N, 9);
    let b: Vec<f64> = (0..M).map(|i| i as f64).collect();
    let mut text = Vec::new();
    write_libsvm(&mut text, &Dataset { a, b }).unwrap();
    let (ds, peak, kept) = measure(|| read_libsvm(Cursor::new(&text), 0).unwrap());
    assert_eq!((ds.a.rows(), ds.a.cols(), ds.a.nnz()), (M, N, M * N));
    // Values, labels, `indptr` and the column run.
    let dataset = 8 * M * N + 8 * M + WORD * (M + 1 + N);
    assert!(peak <= 5 * dataset, "read peak {peak} B > 5 × {dataset} B");
    // Labels grow by doubling too; the matrix keeps no spare capacity.
    assert!(kept <= dataset + 8 * M, "kept {kept} B > {dataset} + 8·m B");
}

#[test]
fn a_sparse_matrix_stores_sixteen_bytes_an_entry_and_indptr() {
    // Every row full but the last, which is one entry short: sparse.
    let (m, n) = (200, 30);
    let nnz = m * n - 1;
    let (a, _, kept) = measure(|| {
        let indptr: Vec<usize> = (0..=m).map(|i| (i * n).min(nnz)).collect();
        let indices: Vec<usize> = (0..nnz).map(|p| p % n).collect();
        let values: Vec<f64> = (0..nnz).map(|p| 1.0 + p as f64).collect();
        CsrMatrix::from_parts(m, n, indptr, indices, values)
    });
    assert_eq!(kept, 16 * nnz + WORD * (m + 1));
    let (c, _, kept) = measure(|| a.to_csc());
    assert_eq!(c.nnz(), nnz);
    assert_eq!(kept, 16 * nnz + WORD * (n + 1));
}
