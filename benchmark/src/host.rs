//! What the host looked like while a number was taken: CPU count and
//! model, ISA, the `SACO_*` knobs as seen, pinning, peak RSS, and a fixed
//! ALU spin that tells "the host got slower" from "the code got slower".

use crate::json::Json;
use std::path::PathBuf;
use std::time::Instant;

/// Environment knobs that change kernel dispatch or pool width. A result
/// taken with any of them set is not comparable to one taken without.
pub const GUARDED_ENV: [&str; 3] = ["SACO_SIMD", "SACO_THREADS", "SACO_L2_KB"];

/// The guarded variables that are set, as `NAME=value`.
pub fn guarded_env_set() -> Vec<String> {
    GUARDED_ENV
        .iter()
        .filter_map(|k| std::env::var(k).ok().map(|v| format!("{k}={v}")))
        .collect()
}

/// CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread. The kernel writes at
    // most that many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pin the whole process (call before spawning threads: children inherit
/// the mask) to the lowest allowed CPU. Returns that CPU, or `None` when
/// the host refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().first()?;
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length passed
    // and is only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn proc_status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// High-water resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kib("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// A fixed pure-ALU loop (xorshift, no memory traffic), timed. Info
/// only: `compare` prints it so a reader can see host drift.
pub fn spin_secs() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_commit() -> String {
    // Plain file reads (the acceptance checkout is not a git repository,
    // and the benchmark starts no process it does not need).
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// The fingerprint every result carries.
pub fn fingerprint(seed: u64, pinned_cpu: Option<usize>) -> Json {
    let env = |k: &str| std::env::var(k).map_or(Json::Null, Json::Str);
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::Str(cpu_model())),
        (
            "isa",
            Json::Str(format!("{:?}", sparsela::simd::active_isa())),
        ),
        (
            "simd_mode",
            Json::Str(sparsela::simd::mode_label().to_string()),
        ),
        ("SACO_SIMD", env("SACO_SIMD")),
        ("SACO_THREADS", env("SACO_THREADS")),
        ("SACO_L2_KB", env("SACO_L2_KB")),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("git_commit", Json::Str(git_commit())),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// Per-process scratch directory, *relative* to the working directory:
/// the benchmark writes nowhere else, and Unix-socket paths stay far
/// below the 108-byte `sun_path` limit however deep the checkout sits.
/// Removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let dir = PathBuf::from(format!(".bench_tmp/{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Last one out removes the shared parent; fails harmlessly while
        // another run's directory is still inside.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}
