//! The metric vocabulary: every name a run may print, with its unit and
//! direction. `BENCHMARK.json` at the repository root lists the same
//! names (a test pins the two against each other); the README maps each
//! per-layer metric to the end-to-end metric and workload it should move.

/// `(name, unit, better, bound)` — `bound` is the share of the parent's
/// median by which the metric may worsen before a change is a regression.
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
];

/// End-to-end metrics that exist on `serve_mixed` only, with the issue's
/// bounds. `BENCHMARK.json` cannot list them — there every workload must
/// report every end-to-end metric, never as 0, and a solver workload has
/// no request latency — so `run` reports and `compare` bounds them here.
/// Client side; each is the median over bursts of the burst's percentile.
pub const SERVE_LATENCY: [(&str, &str, &str, f64); 3] = [
    ("score_p50_ms", "ms", "lower", 0.10),
    ("score_p95_ms", "ms", "lower", 0.15),
    ("update_p50_ms", "ms", "lower", 0.15),
];

/// `(name, unit, better)`; printed by the traced run, on every workload
/// (0 where the workload never touches the layer).
pub const PER_LAYER: [(&str, &str, &str); 84] = [
    // xrng — block selection draws
    ("xrng.draws", "count", "lower"),
    ("xrng.busy_s", "s", "lower"),
    // sparsela::gram — sampled Gram and cross products
    ("gram.calls", "count", "lower"),
    ("gram.flops", "count", "lower"),
    ("cross.flops", "count", "lower"),
    ("gram.busy_s", "s", "lower"),
    ("cross.busy_s", "s", "lower"),
    ("gram.gflops", "Gflop/s", "higher"),
    ("gram.bytes_computed", "B", "lower"),
    // sparsela::sympack — fused payload pack/unpack
    ("pack.words", "count", "lower"),
    ("pack.busy_s", "s", "lower"),
    // saco-par — the worker pool
    ("par.regions", "count", "lower"),
    ("par.tiles", "count", "lower"),
    ("par.busy_s", "s", "lower"),
    ("par.wall_s", "s", "lower"),
    ("par.utilization", "ratio", "higher"),
    // netcomm — the socket mesh
    ("net.collectives", "count", "lower"),
    ("net.frames_tx", "count", "lower"),
    ("net.bytes_tx", "B", "lower"),
    ("net.comm_s", "s", "lower"),
    ("net.wait_s", "s", "lower"),
    ("net.retries", "count", "lower"),
    ("net.reconnects", "count", "lower"),
    ("net.allreduce_p50_us", "us", "lower"),
    ("net.allreduce_p99_us", "us", "lower"),
    ("net.establish_s", "s", "lower"),
    // sparsela::shard — out-of-core shards
    ("shard.reads", "count", "lower"),
    ("shard.bytes_read", "B", "lower"),
    ("shard.evictions", "count", "lower"),
    ("shard.prefetch_hits", "count", "higher"),
    ("shard.prefetch_misses", "count", "lower"),
    ("shard.prefetch_waits", "count", "lower"),
    ("shard.hit_ratio", "ratio", "higher"),
    ("shard.read_s", "s", "lower"),
    ("shard.stall_s", "s", "lower"),
    ("shard.hidden_s", "s", "higher"),
    ("shard.resident_hwm_mb", "MiB", "lower"),
    ("shard.plan_imbalance", "ratio", "lower"),
    ("shard.decode_p50_us", "us", "lower"),
    ("shard.decode_mb_per_s", "MB/s", "higher"),
    ("shard.prepare_s", "s", "lower"),
    ("shard.bookkeep_s", "s", "lower"),
    ("shard.write_s", "s", "lower"),
    // saco::exec — driver, recurrence, prox (everything not replayed)
    ("exec.iters", "count", "higher"),
    ("exec.blocks", "count", "lower"),
    ("exec.self_s", "s", "lower"),
    ("exec.inmem_s", "s", "lower"),
    ("exec.objective_bits_hi", "count", "lower"),
    ("exec.objective_bits_lo", "count", "lower"),
    // saco::serve — the serving loop, client and server side
    ("serve.requests", "count", "higher"),
    ("serve.batches", "count", "lower"),
    ("serve.rows_scored", "count", "higher"),
    ("serve.batch_size_max", "count", "higher"),
    ("serve.queue_depth_max", "count", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.errors", "count", "lower"),
    ("serve.score_p50_ms", "ms", "lower"),
    ("serve.score_p95_ms", "ms", "lower"),
    ("serve.score_p99_ms", "ms", "lower"),
    ("serve.update_p50_ms", "ms", "lower"),
    ("serve.score_samples", "count", "higher"),
    ("serve.update_samples", "count", "higher"),
    ("serve.server_p50_ms", "ms", "lower"),
    ("serve.server_p99_ms", "ms", "lower"),
    ("serve.handoff_p50_ms", "ms", "lower"),
    ("serve.score_s", "s", "lower"),
    ("serve.update_s", "s", "lower"),
    ("serve.proto_encode_us", "us", "lower"),
    ("serve.proto_decode_us", "us", "lower"),
    ("serve.score_floor_us", "us", "lower"),
    // set-up, by part
    ("setup.datagen_s", "s", "lower"),
    ("setup.shard_write_s", "s", "lower"),
    ("setup.artifact_train_s", "s", "lower"),
    ("setup.mesh_establish_s", "s", "lower"),
    ("setup.serve_start_s", "s", "lower"),
    // the traced run itself
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.reps", "count", "higher"),
    ("trace.table_sum_s", "s", "lower"),
    ("trace.self_tolerance_pct", "%", "lower"),
    ("host.spin_s", "s", "lower"),
    ("host.nproc", "count", "higher"),
];

/// The layer rows of a workload's self-time table, in print order;
/// `exec.self_s` closes the table so the rows sum to the traced wall.
pub const TABLE_ROWS: [&str; 10] = [
    "xrng.busy_s",
    "gram.busy_s",
    "cross.busy_s",
    "pack.busy_s",
    "net.wait_s",
    "shard.stall_s",
    "shard.bookkeep_s",
    "serve.score_s",
    "serve.update_s",
    "exec.self_s",
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&SERVE_LATENCY)
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}
