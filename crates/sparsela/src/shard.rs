//! Out-of-core sharded sparse matrices: a chunked on-disk CSR/CSC format
//! plus a bounded-memory streaming view that serves the sampled-Gram
//! kernels.
//!
//! The SA solvers only ever touch `s·µ` sampled major slices per outer
//! block (the observation that makes Algorithms 2/4 communication-avoiding
//! also makes them *out-of-core-friendly*), so a dataset far larger than
//! RAM can be solved from disk as long as the sampled shards are resident
//! when the kernels run. This module provides:
//!
//! * the **shard directory format** (`saco-shard/v1`): one binary file per
//!   contiguous major-axis chunk with a small versioned header, `u64`
//!   little-endian structure arrays and **lossless `f64` bit-pattern
//!   payloads** (values travel as `to_bits` words, so a write→read
//!   round-trip is bitwise exact);
//! * [`ShardWriter`] / [`ShardStore`] — a streaming writer (slices appended
//!   one at a time, so datasets can be *generated* out-of-core too) and a
//!   pread-windowed reader that never maps more than the requested shard;
//! * [`StreamingMatrix`] — a [`MajorSlices`]/[`SliceSource`] implementation
//!   over a `ShardStore` with an epoch-pinned shard cache under a hard
//!   resident-byte budget, backed by a `saco-par` background worker that
//!   prefetches the *next* block's shards behind the current block's
//!   compute.
//!
//! # Determinism
//!
//! Decoded shards hand out exactly the index/value bytes that were written,
//! and the kernels in [`gram`](crate::gram) are generic over
//! [`MajorSlices`] — so a streamed run computes with *the same bits* as an
//! in-memory run on the same matrix: same sample → same kernel → same
//! result, regardless of cache hits, prefetch races, or the memory budget.
//! I/O timing changes; output bits never do. A decoded shard *is* the
//! crate's compressed-slice core, validated by the check `from_parts`
//! runs (a NaN in a file is `InvalidData`, never a solver input), and a
//! windowed rank view is that core's minor window — the function
//! [`CscMatrix::row_block`] and [`CsrMatrix::col_block`] call — so the
//! dist/net engines' streamed blocks are their in-memory blocks bit for
//! bit, by construction.
//!
//! # The pin contract and the lock-free read
//!
//! [`SliceSource::prepare`] opens an *epoch*: the shards backing the
//! selection are faulted in (or claimed from a prefetch) and pinned.
//! Borrowed [`SparseSlice`]s stay valid until the **second** `prepare`
//! call after the one that pinned them — two live epochs, because the
//! overlap path computes the *next* block's Gram (epoch `e+1`) while the
//! current block's slices (epoch `e`) are still in use; a `prefetch` pins
//! a third, `e+1`, while it is in flight. The budget must hold the two
//! (see `docs/PERFORMANCE.md`, "Out-of-core streaming").
//!
//! `slice` reads through a per-shard table of atomically published
//! pointers and takes no lock on a resident, pinned shard. Three rules,
//! all enforced under the cache mutex, make that sound: a pointer is
//! published only for a shard that is decoded *and* pinned; it is cleared
//! when the pin is released; and eviction takes victims only from the
//! queue of unpinned shards — so no published pointer ever dangles. A
//! `slice` that finds no pointer pins the shard for the current epoch
//! before borrowing from it.

use crate::compressed::{check_slice, Compressed};
use crate::gram::{MajorSlices, SliceSource};
use crate::{CscMatrix, CsrMatrix, SparseSlice};
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Format magic for a shard payload file.
const SHARD_MAGIC: &[u8; 8] = b"SACOSHD1";
/// Format magic for the labels sidecar.
const LABEL_MAGIC: &[u8; 8] = b"SACOLBL1";
/// Format magic for the minor-axis nnz histogram sidecar.
const MINOR_MAGIC: &[u8; 8] = b"SACOMNZ1";
/// First line of `manifest.txt`.
const MANIFEST_VERSION: &str = "saco-shard/v1";
/// Fixed byte length of a shard file header (magic + six `u64` fields).
const HEADER_LEN: u64 = 8 + 6 * 8;

/// Which axis the shards chunk: the *major* axis is the sliced one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardAxis {
    /// Column-major chunks of a CSC matrix (Lasso: slices are columns).
    Csc,
    /// Row-major chunks of a CSR matrix (SVM: slices are rows).
    Csr,
}

impl ShardAxis {
    fn tag(self) -> u64 {
        match self {
            ShardAxis::Csc => 0,
            ShardAxis::Csr => 1,
        }
    }

    fn name(self) -> &'static str {
        match self {
            ShardAxis::Csc => "csc",
            ShardAxis::Csr => "csr",
        }
    }

    fn parse(s: &str) -> io::Result<ShardAxis> {
        match s {
            "csc" => Ok(ShardAxis::Csc),
            "csr" => Ok(ShardAxis::Csr),
            other => Err(bad(format!("unknown shard axis {other:?}"))),
        }
    }
}

/// One shard's placement: major slices `lo..hi` with `nnz` stored entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMeta {
    /// Shard index (file `shard-<index:05>.bin`).
    pub index: usize,
    /// First major slice (inclusive).
    pub lo: usize,
    /// One past the last major slice.
    pub hi: usize,
    /// Stored entries in this shard.
    pub nnz: u64,
}

impl ShardMeta {
    /// Exact on-disk byte size of this shard's file; `u64::MAX` when the
    /// counts overflow it, which no file matches, so
    /// [`ShardStore::read_shard`] rejects such a shard before allocating.
    pub fn disk_bytes(&self) -> u64 {
        let words = (self.hi as u64)
            .checked_sub(self.lo as u64)
            .and_then(|n| n.checked_add(1)?.checked_add(self.nnz.checked_mul(2)?));
        words
            .and_then(|w| w.checked_mul(8)?.checked_add(HEADER_LEN))
            .unwrap_or(u64::MAX)
    }
}

/// Parsed `manifest.txt`: the directory's full description.
#[derive(Clone, Debug)]
pub struct ShardManifest {
    /// Sliced axis.
    pub axis: ShardAxis,
    /// Global major-axis length (number of slices across all shards).
    pub major: usize,
    /// Global minor-axis (dense) length.
    pub minor: usize,
    /// Total stored entries.
    pub nnz: u64,
    /// Per-shard placement, in major order (contiguous, covering
    /// `0..major`).
    pub shards: Vec<ShardMeta>,
    /// Whether `labels.bin` exists.
    pub has_labels: bool,
}

impl ShardManifest {
    /// Total on-disk bytes of all shard payload files (excluding sidecars),
    /// saturating at `u64::MAX` like [`ShardMeta::disk_bytes`].
    pub fn disk_bytes(&self) -> u64 {
        let bytes = self.shards.iter().map(ShardMeta::disk_bytes);
        bytes.fold(0, u64::saturating_add)
    }

    /// Max/min shard-nnz ratio — the planner balance figure exported as
    /// the `shard.plan.imbalance` gauge (1.0 = perfectly balanced;
    /// `inf` when some shard is empty).
    pub fn nnz_imbalance(&self) -> f64 {
        let max = self.shards.iter().map(|s| s.nnz).max().unwrap_or(0);
        let min = self.shards.iter().map(|s| s.nnz).min().unwrap_or(0);
        max as f64 / min as f64
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn shard_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:05}.bin"))
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Decode little-endian `u64` words straight into their in-memory type:
/// one pass per array, no intermediate vector.
fn decode_words<T>(bytes: &[u8], word: impl Fn(u64) -> T) -> Vec<T> {
    bytes
        .chunks_exact(8)
        .map(|c| word(u64::from_le_bytes(c.try_into().expect("chunk of 8"))))
        .collect()
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming shard-directory writer: slices are appended one at a time in
/// major order and flushed to disk whenever a planned shard boundary is
/// reached, so the full matrix never has to be resident (the 1:1-scale
/// generators feed this column by column).
///
/// `bounds` are the planned cut points (`bounds[k]..bounds[k+1]` is shard
/// `k`), normally from `datagen`'s nnz-aware planner. [`ShardWriter::finish`]
/// writes the sidecars and manifest; dropping without `finish` leaves an
/// unreadable directory (no manifest).
#[derive(Debug)]
pub struct ShardWriter {
    dir: PathBuf,
    axis: ShardAxis,
    major: usize,
    minor: usize,
    bounds: Vec<usize>,
    next_major: usize,
    cur_shard: usize,
    indptr: Vec<u64>,
    indices: Vec<u64>,
    value_bits: Vec<u64>,
    minor_nnz: Vec<u64>,
    total_nnz: u64,
    metas: Vec<ShardMeta>,
    has_labels: bool,
}

impl ShardWriter {
    /// Start a shard directory at `dir` (created if absent) for a
    /// `major`-slice matrix with dense length `minor`, cut at `bounds`.
    ///
    /// `bounds` must start at 0, end at `major`, and be strictly
    /// increasing (every shard holds at least one slice).
    pub fn create(
        dir: &Path,
        axis: ShardAxis,
        major: usize,
        minor: usize,
        bounds: &[usize],
    ) -> io::Result<ShardWriter> {
        if bounds.first() != Some(&0) || bounds.last() != Some(&major) {
            return Err(bad(format!(
                "shard bounds must cover 0..{major}, got {:?}..{:?}",
                bounds.first(),
                bounds.last()
            )));
        }
        if bounds.windows(2).any(|w| w[0] >= w[1]) {
            return Err(bad("shard bounds must be strictly increasing"));
        }
        std::fs::create_dir_all(dir)?;
        Ok(ShardWriter {
            dir: dir.to_path_buf(),
            axis,
            major,
            minor,
            bounds: bounds.to_vec(),
            next_major: 0,
            cur_shard: 0,
            indptr: vec![0],
            indices: Vec::new(),
            value_bits: Vec::new(),
            minor_nnz: vec![0; minor],
            total_nnz: 0,
            metas: Vec::new(),
            has_labels: false,
        })
    }

    /// Append the next major slice (`indices` strictly increasing,
    /// `< minor`, values finite — the check every matrix constructor runs;
    /// a slice that fails it is `InvalidData` and nothing is written).
    /// Flushes the current shard file when its planned boundary is reached.
    pub fn append_slice(&mut self, indices: &[usize], values: &[f64]) -> io::Result<()> {
        if self.next_major >= self.major {
            return Err(bad(format!("more than {} slices appended", self.major)));
        }
        check_slice(self.next_major, indices, values, self.minor)
            .map_err(|e| bad(e.to_string()))?;
        for &i in indices {
            self.minor_nnz[i] += 1;
        }
        self.indices.extend(indices.iter().map(|&i| i as u64));
        self.value_bits.extend(values.iter().map(|v| v.to_bits()));
        self.total_nnz += indices.len() as u64;
        self.indptr.push(self.indices.len() as u64);
        self.next_major += 1;
        if self.next_major == self.bounds[self.cur_shard + 1] {
            self.flush_shard()?;
        }
        Ok(())
    }

    /// Write the per-point label sidecar (`labels.bin`). Call once, any
    /// time before [`ShardWriter::finish`].
    pub fn write_labels(&mut self, labels: &[f64]) -> io::Result<()> {
        let mut buf = Vec::with_capacity(16 + labels.len() * 8);
        buf.extend_from_slice(LABEL_MAGIC);
        push_u64(&mut buf, labels.len() as u64);
        for v in labels {
            push_u64(&mut buf, v.to_bits());
        }
        std::fs::write(self.dir.join("labels.bin"), buf)?;
        self.has_labels = true;
        Ok(())
    }

    fn flush_shard(&mut self) -> io::Result<()> {
        let lo = self.bounds[self.cur_shard];
        let hi = self.bounds[self.cur_shard + 1];
        let nnz = self.indices.len() as u64;
        let mut buf =
            Vec::with_capacity(HEADER_LEN as usize + self.indptr.len() * 8 + nnz as usize * 16);
        buf.extend_from_slice(SHARD_MAGIC);
        for v in [
            self.axis.tag(),
            self.major as u64,
            self.minor as u64,
            lo as u64,
            hi as u64,
            nnz,
        ] {
            push_u64(&mut buf, v);
        }
        for &p in &self.indptr {
            push_u64(&mut buf, p);
        }
        for &i in &self.indices {
            push_u64(&mut buf, i);
        }
        for &v in &self.value_bits {
            push_u64(&mut buf, v);
        }
        std::fs::write(shard_path(&self.dir, self.cur_shard), buf)?;
        self.metas.push(ShardMeta {
            index: self.cur_shard,
            lo,
            hi,
            nnz,
        });
        self.cur_shard += 1;
        self.indptr.clear();
        self.indptr.push(0);
        self.indices.clear();
        self.value_bits.clear();
        Ok(())
    }

    /// Flush sidecars and the manifest; returns the final manifest.
    /// Errors if fewer slices were appended than planned.
    pub fn finish(self) -> io::Result<ShardManifest> {
        if self.next_major != self.major {
            return Err(bad(format!(
                "only {} of {} slices appended",
                self.next_major, self.major
            )));
        }
        let mut buf = Vec::with_capacity(16 + self.minor_nnz.len() * 8);
        buf.extend_from_slice(MINOR_MAGIC);
        push_u64(&mut buf, self.minor_nnz.len() as u64);
        for &c in &self.minor_nnz {
            push_u64(&mut buf, c);
        }
        std::fs::write(self.dir.join("minor_nnz.bin"), buf)?;

        let mut m = String::new();
        m.push_str(MANIFEST_VERSION);
        m.push('\n');
        m.push_str(&format!("axis {}\n", self.axis.name()));
        m.push_str(&format!("major {}\n", self.major));
        m.push_str(&format!("minor {}\n", self.minor));
        m.push_str(&format!("nnz {}\n", self.total_nnz));
        m.push_str(&format!("labels {}\n", u8::from(self.has_labels)));
        for s in &self.metas {
            m.push_str(&format!("shard {} {} {} {}\n", s.index, s.lo, s.hi, s.nnz));
        }
        std::fs::write(self.dir.join("manifest.txt"), m)?;
        Ok(ShardManifest {
            axis: self.axis,
            major: self.major,
            minor: self.minor,
            nnz: self.total_nnz,
            shards: self.metas,
            has_labels: self.has_labels,
        })
    }
}

/// Shard any [`MajorSlices`] matrix into `dir` at the planned `bounds`,
/// optionally with labels. `axis` must describe what the slices are
/// (columns for [`CscMatrix`], rows for [`CsrMatrix`]); prefer
/// [`write_csc`] / [`write_csr`] which pin that correspondence.
pub fn write_slices<M: MajorSlices>(
    dir: &Path,
    axis: ShardAxis,
    m: &M,
    bounds: &[usize],
    labels: Option<&[f64]>,
) -> io::Result<ShardManifest> {
    let mut w = ShardWriter::create(dir, axis, m.major_len(), m.minor_len(), bounds)?;
    for k in 0..m.major_len() {
        let s = m.slice(k);
        w.append_slice(s.indices, s.values)?;
    }
    if let Some(b) = labels {
        w.write_labels(b)?;
    }
    w.finish()
}

/// Shard a CSC matrix (column chunks — the Lasso layout).
pub fn write_csc(
    dir: &Path,
    a: &CscMatrix,
    bounds: &[usize],
    labels: Option<&[f64]>,
) -> io::Result<ShardManifest> {
    write_slices(dir, ShardAxis::Csc, a, bounds, labels)
}

/// Shard a CSR matrix (row chunks — the SVM layout).
pub fn write_csr(
    dir: &Path,
    a: &CsrMatrix,
    bounds: &[usize],
    labels: Option<&[f64]>,
) -> io::Result<ShardManifest> {
    write_slices(dir, ShardAxis::Csr, a, bounds, labels)
}

// ---------------------------------------------------------------------------
// Store (reader)
// ---------------------------------------------------------------------------

/// A fully decoded shard: the exact sub-CSR/CSC arrays that were written,
/// validated like any matrix, addressable by *global* major index.
#[derive(Clone, Debug)]
pub struct DecodedShard {
    /// First global major slice held.
    pub lo: usize,
    /// One past the last global major slice held.
    pub hi: usize,
    slices: Compressed,
}

impl DecodedShard {
    /// Borrow global slice `k` (`lo <= k < hi`).
    #[inline]
    pub fn slice(&self, k: usize) -> SparseSlice<'_> {
        self.slices.slice(k - self.lo)
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.slices.nnz()
    }

    /// Approximate decoded heap footprint — what the cache budget charges:
    /// 8 bytes per `indptr` entry, 16 per stored entry.
    pub fn heap_bytes(&self) -> u64 {
        ((self.slices.major() + 1) * 8 + self.nnz() * 16) as u64
    }
}

/// Read-side handle on a shard directory: parses the manifest once, then
/// serves pread-windowed shard decodes on demand. Cheap to clone behind an
/// [`Arc`]; holds no file descriptors between reads.
#[derive(Clone, Debug)]
pub struct ShardStore {
    dir: PathBuf,
    manifest: ShardManifest,
    /// Each shard's `hi`, packed: what `shard_of` searches on every
    /// `slice` call.
    his: Vec<usize>,
}

impl ShardStore {
    /// Open `dir`, parsing and validating `manifest.txt`.
    pub fn open(dir: &Path) -> io::Result<ShardStore> {
        let text = std::fs::read_to_string(dir.join("manifest.txt"))?;
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_VERSION) {
            return Err(bad(format!(
                "{}: not a {MANIFEST_VERSION} directory",
                dir.display()
            )));
        }
        let mut axis = None;
        let mut major = None;
        let mut minor = None;
        let mut nnz = None;
        let mut has_labels = false;
        let mut shards: Vec<ShardMeta> = Vec::new();
        for line in lines {
            let mut it = line.split_ascii_whitespace();
            let key = match it.next() {
                Some(k) => k,
                None => continue,
            };
            let mut next_usize = || -> io::Result<usize> {
                it.next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(format!("manifest: bad line {line:?}")))
            };
            match key {
                "axis" => {
                    axis = Some(ShardAxis::parse(
                        line.split_ascii_whitespace().nth(1).unwrap_or(""),
                    )?)
                }
                "major" => major = Some(next_usize()?),
                "minor" => minor = Some(next_usize()?),
                "nnz" => nnz = Some(next_usize()? as u64),
                "labels" => has_labels = next_usize()? != 0,
                "shard" => {
                    let (index, lo, hi) = (next_usize()?, next_usize()?, next_usize()?);
                    let nnz = next_usize()? as u64;
                    shards.push(ShardMeta { index, lo, hi, nnz });
                }
                other => return Err(bad(format!("manifest: unknown key {other:?}"))),
            }
        }
        let (axis, major, minor, nnz) = match (axis, major, minor, nnz) {
            (Some(a), Some(mj), Some(mn), Some(z)) => (a, mj, mn, z),
            _ => return Err(bad("manifest: missing axis/major/minor/nnz")),
        };
        // Shards must tile 0..major contiguously in order.
        let mut at = 0;
        for (i, s) in shards.iter().enumerate() {
            if s.index != i || s.lo != at || s.hi <= s.lo {
                return Err(bad(format!("manifest: shard {i} out of order")));
            }
            at = s.hi;
        }
        if at != major || shards.iter().map(|s| s.nnz).sum::<u64>() != nnz {
            return Err(bad("manifest: shards do not tile the matrix"));
        }
        Ok(ShardStore {
            dir: dir.to_path_buf(),
            his: shards.iter().map(|s| s.hi).collect(),
            manifest: ShardManifest {
                axis,
                major,
                minor,
                nnz,
                shards,
                has_labels,
            },
        })
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Directory this store reads from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Index of the shard holding major slice `k`.
    pub fn shard_of(&self, k: usize) -> usize {
        debug_assert!(k < self.manifest.major);
        self.his.partition_point(|&hi| hi <= k)
    }

    /// Decode shard `index` in full, validating header and invariants.
    pub fn read_shard(&self, index: usize) -> io::Result<DecodedShard> {
        let meta = self.manifest.shards[index];
        let f = File::open(shard_path(&self.dir, index))?;
        // Size nothing from the manifest until the file shows it holds that
        // much: a header and manifest agreeing on a huge nnz must not drive
        // the allocation below.
        let (len, want) = (f.metadata()?.len(), meta.disk_bytes());
        if len != want {
            return Err(bad(format!(
                "shard {index}: file holds {len} bytes, its manifest says {want}"
            )));
        }
        // One pread for the whole file, header included: pread-windowed
        // access means the window is this shard — never the rest of the
        // dataset — and a decode stays at four system calls (open, fstat,
        // pread, close); the loader pays them on every shard it fetches.
        let mut bytes = vec![0u8; len as usize];
        f.read_exact_at(&mut bytes, 0)?;
        let (head, payload) = bytes.split_at(HEADER_LEN as usize);
        if &head[..8] != SHARD_MAGIC {
            return Err(bad(format!("shard {index}: bad magic")));
        }
        let fields = decode_words(&head[8..], |v| v);
        let expect = [
            self.manifest.axis.tag(),
            self.manifest.major as u64,
            self.manifest.minor as u64,
            meta.lo as u64,
            meta.hi as u64,
            meta.nnz,
        ];
        if fields != expect {
            return Err(bad(format!(
                "shard {index}: header {fields:?} disagrees with manifest {expect:?}"
            )));
        }
        let nslices = meta.hi - meta.lo;
        let indptr_end = (nslices + 1) * 8;
        let indices_end = indptr_end + meta.nnz as usize * 8;
        let slices = Compressed::new(
            nslices,
            self.manifest.minor,
            decode_words(&payload[..indptr_end], |v| v as usize),
            decode_words(&payload[indptr_end..indices_end], |v| v as usize),
            decode_words(&payload[indices_end..], f64::from_bits),
        )
        .map_err(|e| bad(format!("shard {index}: {e}")))?;
        Ok(DecodedShard {
            lo: meta.lo,
            hi: meta.hi,
            slices,
        })
    }

    /// Read a sidecar file: magic, a `u64` word count, then the words.
    fn sidecar<T>(
        &self,
        file: &str,
        magic: &[u8; 8],
        word: impl Fn(u64) -> T,
    ) -> io::Result<Vec<T>> {
        let bytes = std::fs::read(self.dir.join(file))?;
        if bytes.len() < 16 || &bytes[..8] != magic {
            return Err(bad(format!("{file}: bad magic")));
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        if (bytes.len() as u64 - 16) / 8 != len || bytes.len() % 8 != 0 {
            return Err(bad(format!("{file}: length mismatch")));
        }
        Ok(decode_words(&bytes[16..], word))
    }

    /// The minor-axis nnz histogram sidecar: entry `i` counts stored
    /// entries with minor index `i`. Lets rank planners and the
    /// simulator's `gap_nnz` tables be computed without scanning data.
    pub fn minor_nnz(&self) -> io::Result<Vec<u64>> {
        let counts = self.sidecar("minor_nnz.bin", MINOR_MAGIC, |v| v)?;
        if counts.len() != self.manifest.minor {
            return Err(bad("minor_nnz.bin: length mismatch"));
        }
        Ok(counts)
    }

    /// Read the label sidecar (bitwise-exact `f64`s).
    pub fn read_labels(&self) -> io::Result<Vec<f64>> {
        self.sidecar("labels.bin", LABEL_MAGIC, f64::from_bits)
    }
}

/// Compare a store against an in-memory matrix slice by slice, **bitwise**
/// (`--verify` for `saco shard`): every index must match exactly and every
/// value must match by `to_bits`. Streams one shard at a time, so the
/// comparison itself is out-of-core.
pub fn verify_store<M: MajorSlices>(store: &ShardStore, m: &M) -> io::Result<()> {
    if store.manifest.major != m.major_len() || store.manifest.minor != m.minor_len() {
        return Err(bad(format!(
            "shape mismatch: store {}x{}, matrix {}x{}",
            store.manifest.major,
            store.manifest.minor,
            m.major_len(),
            m.minor_len()
        )));
    }
    for meta in &store.manifest.shards {
        let d = store.read_shard(meta.index)?;
        for k in meta.lo..meta.hi {
            let (a, b) = (d.slice(k), m.slice(k));
            let same = a.indices == b.indices
                && a.values.len() == b.values.len()
                && a.values
                    .iter()
                    .zip(b.values)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            if !same {
                return Err(bad(format!("slice {k} differs from in-memory matrix")));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Streaming matrix
// ---------------------------------------------------------------------------

/// Snapshot of a [`StreamingMatrix`]'s I/O counters — the source of the
/// `io.*` / `shard.*` telemetry gauges (see `docs/OBSERVABILITY.md`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IoStats {
    /// Total payload bytes read from disk (foreground + background).
    pub bytes_read: u64,
    /// Total seconds spent reading + decoding shards, on any thread.
    pub read_secs: f64,
    /// Seconds the *main* thread was blocked on I/O: synchronous fault-ins
    /// plus waits on still-in-flight prefetches.
    pub stall_secs: f64,
    /// Background read seconds the main thread did **not** wait for —
    /// I/O genuinely hidden behind compute. `> 0` proves the prefetch
    /// overlap works.
    pub hidden_secs: f64,
    /// Shards needed by a `prepare` that were already resident.
    pub prefetch_hits: u64,
    /// Shards needed by a `prepare` (or faulted by `slice`) that were
    /// neither resident nor in flight — synchronous loads.
    pub prefetch_misses: u64,
    /// Shards needed by a `prepare` whose prefetch was still in flight
    /// (partially hidden — the main thread waited out the remainder).
    pub prefetch_waits: u64,
    /// Unpinned shards dropped to stay under the resident budget.
    pub evictions: u64,
    /// Shard decode operations (any thread, including transient scans).
    pub shard_reads: u64,
    /// Decoded bytes currently resident in the cache.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub resident_hwm_bytes: u64,
}

#[derive(Default)]
struct StatCells {
    bytes_read: AtomicU64,
    fg_read_nanos: AtomicU64,
    bg_read_nanos: AtomicU64,
    wait_nanos: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_misses: AtomicU64,
    prefetch_waits: AtomicU64,
    evictions: AtomicU64,
    shard_reads: AtomicU64,
    resident_hwm: AtomicU64,
}

#[derive(Default)]
enum Slot {
    /// Not resident and not being loaded.
    #[default]
    Absent,
    Loading,
    /// Boxed so the address published in [`CacheShared::slots`] is stable.
    Ready(Box<DecodedShard>),
    Failed(String),
}

#[derive(Default)]
struct Entry {
    slot: Slot,
    /// Epoch this shard is pinned for (0 = unpinned, evictable).
    pin_epoch: u64,
    /// Neighbours (older, newer) in the eviction queue; meaningful only
    /// while the shard is queued, i.e. unpinned and `Ready`.
    queue: (u32, u32),
}

/// "No shard" in the eviction queue's links.
const NIL: u32 = u32::MAX;

struct CacheState {
    /// One entry per shard, indexed by shard id.
    entries: Vec<Entry>,
    /// The eviction queue: the unpinned `Ready` shards as a doubly linked
    /// list through `Entry::queue`, in the order their pins were released
    /// — least recently used first, every operation O(1).
    oldest: u32,
    newest: u32,
    /// Shards with `pin_epoch != 0`: releasing old pins walks these, not
    /// every resident entry.
    pinned: Vec<usize>,
    epoch: u64,
    resident: u64,
}

impl CacheState {
    /// Queue `sid` for eviction as the most recently released.
    fn enqueue(&mut self, sid: usize) {
        let older = std::mem::replace(&mut self.newest, sid as u32);
        self.entries[sid].queue = (older, NIL);
        match older {
            NIL => self.oldest = sid as u32,
            o => self.entries[o as usize].queue.1 = sid as u32,
        }
    }

    /// Take `sid` out of the queue: it is being pinned, or evicted.
    fn dequeue(&mut self, sid: usize) {
        let (older, newer) = self.entries[sid].queue;
        match older {
            NIL => self.oldest = newer,
            o => self.entries[o as usize].queue.1 = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.entries[n as usize].queue.0 = older,
        }
    }
}

/// What [`CacheShared::pin`] found.
enum Pinned {
    Ready,
    Loading,
    /// Was absent; now marked `Loading`, and the caller loads it.
    Absent,
}

struct CacheShared {
    store: ShardStore,
    /// The minor-axis window served (the full axis unless a rank view).
    window: (usize, usize),
    /// Resident budget in decoded bytes.
    budget: u64,
    state: Mutex<CacheState>,
    loaded: Condvar,
    stats: StatCells,
    /// The lock-free read path (module docs): `slots[sid]` points at the
    /// decoded shard exactly while its entry is `Ready` *and* pinned.
    /// Written only under `state`'s lock.
    slots: Box<[AtomicPtr<DecodedShard>]>,
}

impl CacheShared {
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().expect("shard cache poisoned")
    }

    fn publish(&self, sid: usize, d: &DecodedShard) {
        // Release pairs with the Acquire load in `slice`: a reader that
        // sees the pointer sees the fully decoded shard behind it.
        self.slots[sid].store(
            d as *const DecodedShard as *mut DecodedShard,
            Ordering::Release,
        );
    }

    /// Pin `sid` through `epoch` (under the lock), marking an absent
    /// shard `Loading` for the caller to load.
    fn pin(&self, st: &mut CacheState, sid: usize, epoch: u64) -> Pinned {
        let e = &mut st.entries[sid];
        let newly_pinned = e.pin_epoch == 0;
        e.pin_epoch = e.pin_epoch.max(epoch);
        if newly_pinned {
            st.pinned.push(sid);
        }
        match &e.slot {
            Slot::Ready(d) => {
                if newly_pinned {
                    self.publish(sid, d);
                    st.dequeue(sid);
                }
                Pinned::Ready
            }
            Slot::Loading => Pinned::Loading,
            Slot::Absent => {
                e.slot = Slot::Loading;
                Pinned::Absent
            }
            Slot::Failed(msg) => panic!("shard {sid} load failed: {msg}"),
        }
    }

    /// Decode shard `sid` (windowed for a rank view), charging the time to
    /// `nanos` — the foreground or background cell — and the byte/read
    /// counters.
    fn decode(&self, sid: usize, nanos: &AtomicU64) -> io::Result<DecodedShard> {
        let t0 = Instant::now();
        let (lo, hi) = self.window;
        let d = self.store.read_shard(sid).map(|mut d| {
            if (lo, hi) != (0, self.store.manifest().minor) {
                d.slices = d.slices.minor_window(lo, hi);
            }
            d
        });
        nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let bytes = self.store.manifest().shards[sid].disk_bytes();
        self.stats.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.stats.shard_reads.fetch_add(1, Ordering::Relaxed);
        d
    }

    /// Load shard `sid` — marked `Loading` and pinned by the caller, under
    /// the lock — and insert it, evicting unpinned shards over the budget.
    fn load(&self, sid: usize, nanos: &AtomicU64) {
        let result = self.decode(sid, nanos).map(Box::new);
        let mut guard = self.lock();
        let st = &mut *guard;
        let evicted = match result {
            Ok(d) => {
                st.resident += d.heap_bytes();
                let hwm = &self.stats.resident_hwm;
                hwm.fetch_max(st.resident, Ordering::Relaxed);
                match st.entries[sid].pin_epoch {
                    0 => st.enqueue(sid),
                    _ => self.publish(sid, &d),
                }
                st.entries[sid].slot = Slot::Ready(d);
                self.evict_over_budget(st)
            }
            Err(e) => {
                st.entries[sid].slot = Slot::Failed(e.to_string());
                Vec::new()
            }
        };
        self.loaded.notify_all();
        drop(guard);
        drop(evicted);
    }

    /// Remove unpinned shards, least recently released first, until the
    /// cache is under budget, returning them for the caller to free outside
    /// the lock. Pinned shards are never touched — if the pinned set alone
    /// exceeds the budget, `prepare` panics with sizing advice instead.
    #[must_use]
    fn evict_over_budget(&self, st: &mut CacheState) -> Vec<DecodedShard> {
        let mut evicted = Vec::new();
        // An empty queue means everything resident is pinned or in flight.
        while st.resident > self.budget && st.oldest != NIL {
            let sid = st.oldest as usize;
            st.dequeue(sid);
            if let Slot::Ready(d) = std::mem::take(&mut st.entries[sid].slot) {
                st.resident -= d.heap_bytes();
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                evicted.push(*d);
            }
        }
        evicted
    }
}

/// A bounded-memory matrix view over a [`ShardStore`], implementing
/// [`MajorSlices`] + [`SliceSource`] so every Gram/cross kernel and all
/// four engines run from disk with **bitwise-identical** results to the
/// in-memory path.
///
/// Shards are cached decoded under a hard `budget` (bytes); a `saco-par`
/// [`BackgroundWorker`](saco_par::BackgroundWorker) loads prefetched
/// shards behind the solver's compute. See the module docs for the pin
/// contract that makes `slice`'s lock-free borrows sound.
///
/// A *windowed* view ([`Self::from_store`] with a proper sub-range)
/// restricts the minor axis to `wlo..whi` with indices rebased — the
/// per-rank view for the dist/net engines. Each view owns an independent cache and loader.
pub struct StreamingMatrix {
    shared: Arc<CacheShared>,
    loader: saco_par::BackgroundWorker,
}

impl std::fmt::Debug for StreamingMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingMatrix")
            .field("dir", &self.shared.store.dir())
            .field("window", &self.shared.window)
            .field("budget", &self.shared.budget)
            .finish_non_exhaustive()
    }
}

impl StreamingMatrix {
    /// Open a full-minor-axis view with a resident budget of
    /// `budget_bytes` of decoded shard data.
    pub fn open(dir: &Path, budget_bytes: u64) -> io::Result<StreamingMatrix> {
        let store = ShardStore::open(dir)?;
        let minor = store.manifest().minor;
        Ok(Self::from_store(store, budget_bytes, (0, minor)))
    }

    /// Wrap an already-open store; `window` must lie inside the minor axis.
    pub fn from_store(store: ShardStore, budget_bytes: u64, window: (usize, usize)) -> Self {
        let (minor, shards) = (store.manifest().minor, store.manifest().shards.len());
        assert!(
            window.0 <= window.1 && window.1 <= minor && shards < NIL as usize,
            "window (or shard count) out of range"
        );
        StreamingMatrix {
            shared: Arc::new(CacheShared {
                store,
                window,
                budget: budget_bytes,
                state: Mutex::new(CacheState {
                    entries: (0..shards).map(|_| Entry::default()).collect(),
                    oldest: NIL,
                    newest: NIL,
                    pinned: Vec::new(),
                    epoch: 0,
                    resident: 0,
                }),
                loaded: Condvar::new(),
                stats: StatCells::default(),
                slots: (0..shards).map(|_| AtomicPtr::default()).collect(),
            }),
            loader: saco_par::BackgroundWorker::spawn("saco-shard-loader"),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &ShardStore {
        &self.shared.store
    }

    /// The configured resident budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.shared.budget
    }

    /// Snapshot the I/O counters.
    pub fn io_stats(&self) -> IoStats {
        let s = &self.shared.stats;
        let fg = s.fg_read_nanos.load(Ordering::Relaxed) as f64 * 1e-9;
        let bg = s.bg_read_nanos.load(Ordering::Relaxed) as f64 * 1e-9;
        let wait = s.wait_nanos.load(Ordering::Relaxed) as f64 * 1e-9;
        IoStats {
            bytes_read: s.bytes_read.load(Ordering::Relaxed),
            read_secs: fg + bg,
            stall_secs: fg + wait,
            hidden_secs: (bg - wait).max(0.0),
            prefetch_hits: s.prefetch_hits.load(Ordering::Relaxed),
            prefetch_misses: s.prefetch_misses.load(Ordering::Relaxed),
            prefetch_waits: s.prefetch_waits.load(Ordering::Relaxed),
            evictions: s.evictions.load(Ordering::Relaxed),
            shard_reads: s.shard_reads.load(Ordering::Relaxed),
            resident_bytes: self.shared.lock().resident,
            resident_hwm_bytes: s.resident_hwm.load(Ordering::Relaxed),
        }
    }

    fn shard_ids(&self, sel: &[usize]) -> Vec<usize> {
        let store = &self.shared.store;
        let mut sids: Vec<usize> = sel.iter().map(|&k| store.shard_of(k)).collect();
        sids.sort_unstable();
        sids.dedup();
        sids
    }

    /// Block until `sid` is `Ready`, charging wait time as stall.
    fn wait_ready(&self, sid: usize) -> *const DecodedShard {
        let mut st = self.shared.lock();
        loop {
            match &st.entries[sid].slot {
                Slot::Ready(d) => return &**d,
                Slot::Failed(e) => panic!("shard {sid} load failed: {e}"),
                Slot::Absent => unreachable!("waited shard {sid} is pinned, so never evicted"),
                Slot::Loading => {
                    let (t0, waited) = (Instant::now(), &self.shared.stats.wait_nanos);
                    st = self.shared.loaded.wait(st).expect("shard cache poisoned");
                    waited.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            }
        }
    }

    /// The locked path of `slice`, for a shard that is not both resident
    /// and pinned (e.g. a scan outside `prepare`): pins it for the current
    /// epoch *before* handing it out, faulting it in synchronously on a
    /// miss, so the loader cannot evict it under the borrow.
    #[cold]
    fn pin_now(&self, sid: usize) -> *const DecodedShard {
        let found = {
            let mut st = self.shared.lock();
            let epoch = st.epoch.max(1);
            self.shared.pin(&mut st, sid, epoch)
        };
        if let Pinned::Absent = found {
            let misses = &self.shared.stats.prefetch_misses;
            misses.fetch_add(1, Ordering::Relaxed);
            self.shared.load(sid, &self.shared.stats.fg_read_nanos);
        }
        self.wait_ready(sid)
    }

    /// Visit every major slice by one bounded sequential pass over the
    /// shards, decoding each transiently (never cached, never pinned).
    fn scan(&self, mut visit: impl FnMut(usize, SparseSlice<'_>)) {
        let shared = &*self.shared;
        for meta in &shared.store.manifest().shards {
            let d = shared
                .decode(meta.index, &shared.stats.fg_read_nanos)
                .unwrap_or_else(|e| panic!("shard {} read failed: {e}", meta.index));
            for k in meta.lo..meta.hi {
                visit(k, d.slice(k));
            }
        }
    }
}

impl MajorSlices for StreamingMatrix {
    fn major_len(&self) -> usize {
        self.shared.store.manifest().major
    }

    fn minor_len(&self) -> usize {
        self.shared.window.1 - self.shared.window.0
    }

    /// Borrow global slice `k`. On a resident, pinned shard — every shard
    /// a `prepare` covered — this takes no lock: one search for the shard
    /// and one atomic load. Anything else goes through `pin_now`.
    ///
    /// The returned borrow is tied to `&self` but actually points into a
    /// pinned [`DecodedShard`]; see the module docs for the contract under
    /// which that is sound.
    fn slice(&self, k: usize) -> SparseSlice<'_> {
        let sid = self.shared.store.shard_of(k);
        let mut shard = self.shared.slots[sid].load(Ordering::Acquire).cast_const();
        if shard.is_null() {
            shard = self.pin_now(sid);
        }
        // SAFETY: `shard` points at the boxed DecodedShard owned by the
        // cache entry for `sid`, and that entry is pinned: a slot is only
        // published for a pinned `Ready` entry, and `pin_now` pins before
        // it returns. Eviction takes victims from the queue of unpinned
        // entries alone, and the one place a pin is released (`prepare`,
        // two epochs after it was taken) clears the slot first — by when
        // the solver contract (module docs) says no borrow from that
        // epoch is alive. A `Ready` shard is never mutated and its box
        // never moves, so the pointers are stable for that whole window.
        unsafe { (*shard).slice(k) }
    }
}

impl SliceSource for StreamingMatrix {
    /// Open the next epoch: fault in / claim every shard backing `sel`,
    /// pin them, release pins two epochs old, evict over-budget unpinned
    /// shards, and enforce the hard budget on the pinned set.
    fn prepare(&self, sel: &[usize]) {
        let sids = self.shard_ids(sel);
        let stats = &self.shared.stats;
        let (mut need_sync, mut in_flight) = (Vec::new(), Vec::new());
        let cur = {
            let mut st = self.shared.lock();
            st.epoch += 1;
            let cur = st.epoch;
            for &sid in &sids {
                let counter = match self.shared.pin(&mut st, sid, cur) {
                    Pinned::Ready => &stats.prefetch_hits,
                    Pinned::Loading => {
                        in_flight.push(sid);
                        &stats.prefetch_waits
                    }
                    Pinned::Absent => {
                        need_sync.push(sid);
                        &stats.prefetch_misses
                    }
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            cur
        };
        for sid in need_sync {
            self.shared.load(sid, &stats.fg_read_nanos);
        }
        for sid in in_flight {
            let _ = self.wait_ready(sid);
        }
        let mut guard = self.shared.lock();
        let st = &mut *guard;
        // Release pins two epochs old; the previous epoch's slices may
        // still be borrowed (overlap mode computes the next Gram while
        // the current block is live), so only `cur` and `cur - 1` stay —
        // plus `cur + 1` while a prefetch is in flight. A released shard
        // leaves the lock-free read path *before* it becomes evictable.
        let mut pinned_bytes = 0u64;
        let mut pinned = std::mem::take(&mut st.pinned);
        pinned.retain(|&sid| {
            let e = &mut st.entries[sid];
            let keep = e.pin_epoch + 2 > cur;
            if !keep {
                e.pin_epoch = 0;
            }
            if let Slot::Ready(d) = &e.slot {
                if keep {
                    pinned_bytes += d.heap_bytes();
                } else {
                    self.shared.slots[sid].store(std::ptr::null_mut(), Ordering::Release);
                    st.enqueue(sid);
                }
            }
            keep
        });
        st.pinned = pinned;
        let evicted = self.shared.evict_over_budget(st);
        drop(guard);
        drop(evicted);
        assert!(
            pinned_bytes <= self.shared.budget,
            "pinned shard set ({pinned_bytes} B across two epochs) exceeds the \
             resident budget ({} B); raise --mem-budget or re-shard with more, \
             smaller shards (shards touched per block ≈ s·µ)",
            self.shared.budget
        );
    }

    /// Queue background loads for the shards backing the *next* block's
    /// selection, pinned one epoch ahead so they survive until their
    /// `prepare` claims them. Returns immediately; the `saco-par`
    /// background worker does the reads, in one job, behind compute.
    fn prefetch(&self, sel: &[usize]) {
        let mut to_load = self.shard_ids(sel);
        {
            let mut st = self.shared.lock();
            let target = st.epoch + 1;
            to_load.retain(|&sid| matches!(self.shared.pin(&mut st, sid, target), Pinned::Absent));
        }
        if to_load.is_empty() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        self.loader.submit(move || {
            for sid in to_load {
                shared.load(sid, &shared.stats.bg_read_nanos);
            }
        });
    }

    fn lookahead(&self) -> bool {
        true
    }

    /// `y[k] = ⟨slice(k), x⟩` by one bounded sequential pass over the
    /// shards — the out-of-core replacement for a full-matrix `spmv`,
    /// bitwise identical to it because the per-slice arithmetic is the
    /// same `dot_dense` chain.
    fn major_spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.minor_len(), "spmv input length");
        assert_eq!(y.len(), self.major_len(), "spmv output length");
        self.scan(|k, s| y[k] = s.dot_dense(x));
    }

    /// Row norms from one bounded sequential shard scan (same transient
    /// decode discipline as [`SliceSource::major_spmv_into`]).
    fn major_norms_into(&self, y: &mut [f64]) {
        assert_eq!(y.len(), self.major_len(), "norms output length");
        self.scan(|k, s| y[k] = s.norm_sq());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use xrng::rng_from_seed;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("saco_shard_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn random_csc(rows: usize, cols: usize, density: f64, seed: u64) -> CscMatrix {
        let mut rng = rng_from_seed(seed);
        let mut coo = CooMatrix::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if rng.next_bool(density) {
                    coo.push(i, j, rng.next_gaussian());
                }
            }
        }
        coo.to_csc()
    }

    #[test]
    fn roundtrip_is_bitwise_exact() {
        let dir = tmp_dir("roundtrip");
        let a = random_csc(37, 23, 0.2, 1);
        let b: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        let bounds = [0usize, 5, 6, 17, 23];
        let man = write_csc(&dir, &a, &bounds, Some(&b)).unwrap();
        assert_eq!(man.shards.len(), 4);
        assert_eq!(man.nnz, a.nnz() as u64);

        let store = ShardStore::open(&dir).unwrap();
        assert_eq!(store.manifest().axis, ShardAxis::Csc);
        verify_store(&store, &a).unwrap();
        assert_eq!(
            store
                .read_labels()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sidecars_match_a_scan() {
        let dir = tmp_dir("sidecars");
        let a = random_csc(31, 17, 0.3, 2);
        let bounds = [0usize, 4, 17];
        write_csc(&dir, &a, &bounds, None).unwrap();
        let store = ShardStore::open(&dir).unwrap();
        let mut minor = vec![0u64; 31];
        for j in 0..17 {
            for &i in a.col(j).indices {
                minor[i] += 1;
            }
        }
        assert_eq!(store.minor_nnz().unwrap(), minor);
        assert!(!store.manifest().has_labels);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn windowed_decode_matches_row_block() {
        let dir = tmp_dir("window");
        let a = random_csc(40, 12, 0.25, 3);
        write_csc(&dir, &a, &[0, 7, 12], None).unwrap();
        let store = ShardStore::open(&dir).unwrap();
        let blk = a.row_block(10, 30);
        let sm = StreamingMatrix::from_store(store, u64::MAX, (10, 30));
        assert_eq!(sm.minor_len(), 20);
        for k in 0..12 {
            let (x, y) = (sm.slice(k), blk.col(k));
            assert_eq!(x.indices, y.indices, "col {k}");
            assert!(x
                .values
                .iter()
                .zip(y.values)
                .all(|(p, q)| p.to_bits() == q.to_bits()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_matrix_slices_match_and_stats_track() {
        let dir = tmp_dir("stream");
        let a = random_csc(50, 30, 0.2, 4);
        write_csc(&dir, &a, &[0, 8, 16, 24, 30], None).unwrap();
        let sm = StreamingMatrix::open(&dir, u64::MAX).unwrap();
        assert_eq!(sm.major_len(), 30);
        assert_eq!(sm.minor_len(), 50);

        let sel = vec![2usize, 9, 9, 25];
        sm.prepare(&sel);
        for &k in &sel {
            let (x, y) = (sm.slice(k), a.col(k));
            assert_eq!(x.indices, y.indices);
            assert!(x
                .values
                .iter()
                .zip(y.values)
                .all(|(p, q)| p.to_bits() == q.to_bits()));
        }
        let s = sm.io_stats();
        assert_eq!(s.prefetch_misses, 3); // shards 0, 1, 3
        assert_eq!(s.shard_reads, 3);
        assert!(s.resident_bytes > 0 && s.resident_hwm_bytes >= s.resident_bytes);

        // Prefetch then prepare: the shard is claimed as a hit (or a wait
        // if the background load is still in flight) — never a miss.
        sm.prefetch(&[17, 18]);
        sm.prepare(&[17, 18]);
        let s = sm.io_stats();
        assert_eq!(s.prefetch_misses, 3, "prefetched shard must not miss");
        assert_eq!(s.prefetch_hits + s.prefetch_waits, 1);
        assert_eq!(s.shard_reads, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gram_from_stream_is_bitwise_identical() {
        let dir = tmp_dir("gram");
        let a = random_csc(60, 40, 0.25, 5);
        write_csc(&dir, &a, &[0, 10, 20, 30, 40], None).unwrap();
        let sm = StreamingMatrix::open(&dir, u64::MAX).unwrap();
        let sel = vec![1usize, 13, 13, 22, 39, 7];
        sm.prepare(&sel);
        let g_mem = crate::gram::sampled_gram(&a, &sel);
        let g_str = crate::gram::sampled_gram(&sm, &sel);
        assert_eq!(g_mem.as_slice(), g_str.as_slice());
        let v: Vec<f64> = (0..60).map(|i| (i as f64 * 0.37).cos()).collect();
        let c_mem = crate::gram::sampled_cross(&a, &sel, &[&v]);
        let c_str = crate::gram::sampled_cross(&sm, &sel, &[&v]);
        assert_eq!(c_mem.as_slice(), c_str.as_slice());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_respects_pins_and_budget() {
        let dir = tmp_dir("evict");
        let a = random_csc(40, 32, 0.4, 6);
        let bounds: Vec<usize> = (0..=8).map(|k| k * 4).collect();
        write_csc(&dir, &a, &bounds, None).unwrap();
        let store = ShardStore::open(&dir).unwrap();
        let sizes: Vec<u64> = (0..8)
            .map(|i| store.read_shard(i).unwrap().heap_bytes())
            .collect();
        // Budget: any two consecutive shards (= the two pinned epochs)
        // fit, three mostly don't — so the cycle below must keep evicting
        // the shard whose pin expired.
        let pair_max = sizes.windows(2).map(|w| w[0] + w[1]).max().unwrap();
        let budget = pair_max + 1;
        let sm = StreamingMatrix::from_store(store, budget, (0, 40));
        for step in 0..8usize {
            sm.prepare(&[step * 4]);
            let _ = sm.slice(step * 4);
        }
        let s = sm.io_stats();
        assert!(s.evictions > 0, "tight budget must evict");
        let max_one = *sizes.iter().max().unwrap();
        assert!(
            s.resident_hwm_bytes <= budget + max_one,
            "resident high water {} beyond two pinned epochs + one incoming",
            s.resident_hwm_bytes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slicing_an_unpinned_resident_shard_pins_it_against_eviction() {
        let dir = tmp_dir("unpinned");
        let a = random_csc(40, 40, 0.4, 9);
        let bounds: Vec<usize> = (0..=5).map(|k| k * 8).collect();
        write_csc(&dir, &a, &bounds, None).unwrap();
        let store = ShardStore::open(&dir).unwrap();
        let sizes: Vec<u64> = (0..5)
            .map(|i| store.read_shard(i).unwrap().heap_bytes())
            .collect();
        // Room for any three shards: after three one-shard epochs shard 0
        // is resident but its pin is released.
        let mut top = sizes.clone();
        top.sort_unstable();
        let budget: u64 = top[2..].iter().sum();
        let sm = StreamingMatrix::from_store(store, budget, (0, 40));
        for shard in 0..3 {
            sm.prepare(&[shard * 8]);
        }
        {
            let st = sm.shared.lock();
            assert!(matches!(st.entries[0].slot, Slot::Ready(_)));
            assert_eq!(st.entries[0].pin_epoch, 0, "shard 0 resident, unpinned");
        }
        assert!(sm.shared.slots[0].load(Ordering::Acquire).is_null());
        let borrowed = sm.slice(3);
        // The next block's load pushes the cache over budget while the
        // borrow is live and shard 0 is the oldest resident; `prepare`
        // returns once the load is in and an eviction has made room.
        sm.prefetch(&[24]);
        sm.prepare(&[24]);
        assert!(
            sm.io_stats().evictions > 0,
            "over budget, so something went"
        );
        let st = sm.shared.lock();
        assert!(
            matches!(st.entries[0].slot, Slot::Ready(_)) && st.entries[0].pin_epoch == 3,
            "the sliced shard is pinned for the epoch that borrowed from it"
        );
        assert!(matches!(st.entries[1].slot, Slot::Absent), "shard 1 went");
        assert_eq!(borrowed.indices, a.col(3).indices);
        assert_eq!(borrowed.values, a.col(3).values);
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// ≥ 200 driver-shaped blocks (`prepare`, `prefetch` the next, Gram +
    /// cross) under the tightest budget the pin contract allows — any two
    /// consecutive blocks' shards, nothing more — so the loader evicts
    /// behind every block. On some blocks a helper thread holds the cache
    /// mutex for the whole kernel call, which must still complete: `slice`
    /// takes no lock on a pinned resident shard.
    #[test]
    fn stress_tiles_stay_bitwise_under_eviction_and_a_held_cache_lock() {
        use crate::gram::{sampled_cross_into, sampled_gram_into, GramWorkspace};
        use crate::DenseMatrix;
        use std::sync::mpsc;
        use std::time::Duration;

        const SHARDS: usize = 32;
        const BLOCKS: usize = 240;
        let dir = tmp_dir("stress");
        let a = random_csc(60, SHARDS * 8, 0.3, 10);
        let bounds: Vec<usize> = (0..=SHARDS).map(|k| k * 8).collect();
        write_csc(&dir, &a, &bounds, None).unwrap();
        let store = ShardStore::open(&dir).unwrap();
        let sizes: Vec<u64> = (0..SHARDS)
            .map(|i| store.read_shard(i).unwrap().heap_bytes())
            .collect();
        // Each block draws three columns from each of two shards.
        let mut rng = rng_from_seed(11);
        let blocks: Vec<Vec<usize>> = (0..BLOCKS)
            .map(|_| {
                let (p, q) = (rng.next_index(SHARDS), rng.next_index(SHARDS));
                let cols = [p, p, p, q, q, q].map(|sh| sh * 8 + rng.next_index(8));
                cols.to_vec()
            })
            .collect();
        let bytes_of = |pair: &[Vec<usize>]| {
            let mut sids: Vec<usize> = pair.iter().flatten().map(|&c| c / 8).collect();
            sids.sort_unstable();
            sids.dedup();
            sids.iter().map(|&sh| sizes[sh]).sum::<u64>()
        };
        let budget = blocks.windows(2).map(bytes_of).max().unwrap();
        let sm = StreamingMatrix::from_store(store, budget, (0, 60));

        let v: Vec<f64> = (0..60).map(|i| (i as f64 * 0.3).sin()).collect();
        let (mut ws, mut ws_mem) = (GramWorkspace::new(), GramWorkspace::new());
        let mut tiles = [(); 4].map(|_| DenseMatrix::zeros(0, 0));
        for (t, block) in blocks.iter().enumerate() {
            sm.prepare(block);
            if let Some(next) = blocks.get(t + 1) {
                sm.prefetch(next);
            }
            let held = (t % 40 == 7).then(|| {
                let shared = Arc::clone(&sm.shared);
                let (locked_tx, locked_rx) = mpsc::channel();
                let (done_tx, done_rx) = mpsc::channel::<()>();
                let holder = std::thread::spawn(move || {
                    let _guard = shared.lock();
                    locked_tx.send(()).unwrap();
                    done_rx.recv_timeout(Duration::from_secs(60)).is_ok()
                });
                locked_rx.recv().unwrap();
                (holder, done_tx)
            });
            let [g, c, g_mem, c_mem] = &mut tiles;
            sampled_gram_into(&sm, block, 1, &mut ws, g);
            sampled_cross_into(&sm, block, &[&v], c);
            if let Some((holder, done_tx)) = held {
                // A timed-out holder has hung up; the join reports it.
                let _ = done_tx.send(());
                assert!(
                    holder.join().unwrap(),
                    "block {t}: the kernels waited for the cache mutex"
                );
            }
            sampled_gram_into(&a, block, 1, &mut ws_mem, g_mem);
            sampled_cross_into(&a, block, &[&v], c_mem);
            let bits =
                |m: &DenseMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(g_mem), "block {t}: Gram tile");
            assert_eq!(bits(c), bits(c_mem), "block {t}: cross tile");
        }
        let s = sm.io_stats();
        assert!(s.evictions > 0, "the tightest budget must evict");
        let largest = *sizes.iter().max().unwrap();
        assert!(
            s.resident_hwm_bytes <= budget + 2 * largest,
            "resident high water {} beyond budget {budget} + 2 shards of {largest}",
            s.resident_hwm_bytes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "exceeds the resident budget")]
    fn pinned_set_over_budget_panics_with_advice() {
        let dir = tmp_dir("overbudget");
        let a = random_csc(40, 32, 0.4, 7);
        write_csc(&dir, &a, &[0, 16, 32], None).unwrap();
        let sm = StreamingMatrix::open(&dir, 64).unwrap();
        sm.prepare(&[0, 20]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn major_spmv_matches_csr_spmv_bitwise() {
        let dir = tmp_dir("spmv");
        let mut rng = rng_from_seed(8);
        let mut coo = CooMatrix::new(25, 50);
        for i in 0..25 {
            for j in 0..50 {
                if rng.next_bool(0.15) {
                    coo.push(i, j, rng.next_gaussian());
                }
            }
        }
        let csr = coo.to_csr();
        write_csr(&dir, &csr, &[0, 9, 25], None).unwrap();
        let sm = StreamingMatrix::open(&dir, u64::MAX).unwrap();
        let x: Vec<f64> = (0..50).map(|i| (i as f64).sqrt() - 2.0).collect();
        let want = csr.spmv(&x);
        let mut got = vec![0.0; 25];
        sm.major_spmv_into(&x, &mut got);
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_and_ragged_empty_slices() {
        let dir = tmp_dir("corrupt");
        // Matrix with empty columns and a very ragged shard plan.
        let mut coo = CooMatrix::new(10, 9);
        coo.push(3, 1, 1.5);
        coo.push(0, 4, -2.5);
        coo.push(9, 4, f64::MIN_POSITIVE);
        let a = coo.to_csc();
        write_csc(&dir, &a, &[0, 1, 2, 8, 9], None).unwrap();
        let store = ShardStore::open(&dir).unwrap();
        verify_store(&store, &a).unwrap();
        // Truncate a shard: open still works (manifest ok), read fails.
        let p = shard_path(&dir, 2);
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 4]).unwrap();
        assert!(store.read_shard(2).is_err());
        // Break the manifest version line.
        std::fs::write(dir.join("manifest.txt"), "bogus/v9\n").unwrap();
        assert!(ShardStore::open(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_shard_allocates_no_more_than_the_file_holds() {
        let dir = tmp_dir("huge");
        let man = write_csc(&dir, &random_csc(20, 8, 0.3, 12), &[0, 4, 8], None).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
        let (nnz1, rest) = (man.shards[1].nnz, man.nnz - man.shards[1].nnz);
        // Header and manifest agree on a huge nnz — 16 TiB of payload, or
        // more than `disk_bytes` can count — so only the file length can
        // tell.
        for huge in [1u64 << 40, u64::MAX / 4] {
            let edited = manifest
                .replace(
                    &format!("nnz {}\n", man.nnz),
                    &format!("nnz {}\n", rest + huge),
                )
                .replace(
                    &format!("shard 1 4 8 {nnz1}\n"),
                    &format!("shard 1 4 8 {huge}\n"),
                );
            std::fs::write(dir.join("manifest.txt"), edited).unwrap();
            let mut bytes = std::fs::read(shard_path(&dir, 1)).unwrap();
            bytes[48..56].copy_from_slice(&huge.to_le_bytes());
            std::fs::write(shard_path(&dir, 1), bytes).unwrap();
            let store = ShardStore::open(&dir).unwrap();
            let e = store.read_shard(1).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(e.to_string().starts_with("shard 1: file holds"), "{e}");
            assert!(store.read_shard(0).is_ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_rejects_bad_input() {
        let dir = tmp_dir("reject");
        assert!(ShardWriter::create(&dir, ShardAxis::Csc, 4, 5, &[0, 4, 4]).is_err());
        assert!(ShardWriter::create(&dir, ShardAxis::Csc, 4, 5, &[1, 4]).is_err());
        let mut w = ShardWriter::create(&dir, ShardAxis::Csc, 2, 5, &[0, 2]).unwrap();
        assert!(w.append_slice(&[2, 1], &[1.0, 2.0]).is_err()); // not increasing
        assert!(w.append_slice(&[5], &[1.0]).is_err()); // out of range
        assert!(w.append_slice(&[1], &[1.0, 2.0]).is_err()); // len mismatch
        for v in [f64::NAN, f64::INFINITY] {
            let e = w.append_slice(&[1, 3], &[1.0, v]).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert_eq!(e.to_string(), format!("slice 0: non-finite value {v}"));
        }
        w.append_slice(&[0, 4], &[1.0, 2.0]).unwrap();
        assert!(w.finish().is_err()); // one slice short
        let _ = std::fs::remove_dir_all(&dir);
    }
}
