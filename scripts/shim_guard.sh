#!/usr/bin/env bash
# Guard the execution-backend refactor: the solver recurrences live ONLY in
# crates/core/src/exec/. `run.rs` binds a method to an engine and a data
# source (it may name lasso_family/svm_family/kdcd_family — that is its
# job); the seq/sim/net/stream modules hold the paper-named wrappers,
# the rank-data layouts and their docs. If an iteration loop or a
# sampled-kernel call creeps into any of them, the
# one-recurrence-three-engines invariant (and with it the cross-engine
# equivalence the engine matrix asserts) is gone. The same split holds one
# layer down: crates/netcomm is a pure message/collective layer and must
# never learn about the solvers it carries, and the CLI must stay a
# frontend, not a solver.
set -euo pipefail
cd "$(dirname "$0")/.."

# Patterns that only a solver main loop contains. The kernel-family
# entries (begin_epoch / fill / eval) are the K-DCD tile: building or
# transforming kernel rows anywhere but exec/kdcd.rs would fork the
# replicated miss set the collective-skip optimization depends on.
patterns=(
    'while h < cfg\.max_iters'
    'for h in 1\.\.=cfg\.max_iters'
    'sampled_gram'
    'sampled_cross'
    'iallreduce'
    'KernelCache::new'
    'begin_epoch'
    '\.eval\('
)

status=0
for pat in "${patterns[@]}"; do
    if hits=$(grep -rnE "$pat" crates/core/src/seq crates/core/src/sim \
            crates/core/src/net crates/core/src/stream.rs crates/core/src/run.rs); then
        echo "shim_guard: solver-loop pattern '$pat' found outside crates/core/src/exec/:" >&2
        echo "$hits" >&2
        status=1
    fi
done

# The run surface is one function over a value (`RunSpec`), not a function
# per family × engine × source cell: the concatenated names must not grow
# back. The only solver-named `pub fn`s allowed under sim/net/stream
# are the two frozen wrappers the benchmark package compiles against.
if hits=$(grep -rnE 'pub fn \w*(_sa_|_kdcd)\w*' crates/core/src/sim \
        crates/core/src/net crates/core/src/stream.rs \
        | grep -vE 'pub fn (net_sa_accbcd|stream_sa_accbcd)\b'); then
    echo "shim_guard: a family × engine shim is back — add a RunSpec cell, not a function:" >&2
    echo "$hits" >&2
    status=1
fi

# The path/CV/serve layers ride the driver through lasso_family_warm —
# they may sweep λ and carry warm state, but the solver recurrence itself
# (sampling, Gram tiles, Lipschitz steps, prox blocks) must never reappear
# there. PR 10 fixed exactly this: path.rs hid a full hand-rolled SA-BCD
# loop that silently escaped this guard because only the engine modules were
# scanned.
warm_patterns=(
    'while h < cfg\.max_iters'
    'for h in 1\.\.=cfg\.max_iters'
    'sampled_gram'
    'sampled_cross'
    'sample_block'
    'block_lipschitz'
    'prox_block'
    'iallreduce'
)
for pat in "${warm_patterns[@]}"; do
    if hits=$(grep -rnE "$pat" crates/core/src/path.rs crates/core/src/crossval.rs crates/core/src/serve); then
        echo "shim_guard: solver-loop pattern '$pat' found in the path/CV/serve layer:" >&2
        echo "$hits" >&2
        status=1
    fi
done

# netcomm is solver-free: frames, ordering, mesh, collectives — nothing
# about Lasso/SVM recurrences, kernels, or the workspace they act on.
solver_patterns=(
    'lasso_family'
    'svm_family'
    'kdcd_family'
    'sampled_gram'
    'sampled_cross'
    'KernelWorkspace'
    'KernelCache'
    'KernelFn'
    'Regularizer'
)
for pat in "${solver_patterns[@]}"; do
    if hits=$(grep -rnE "$pat" crates/netcomm/src crates/netcomm/tests); then
        echo "shim_guard: solver symbol '$pat' leaked into the netcomm message layer:" >&2
        echo "$hits" >&2
        status=1
    fi
done

# Collectives run on the thread that calls them: netcomm spawns no thread
# and builds no channel. The one exception is cluster.rs, the in-process
# mesh harness, which runs each rank on a scoped thread of its own; no
# collective runs on a thread it did not start on. A comm worker coming
# back would put two thread hand-offs into every allreduce — the α the
# net engine measures.
for f in crates/netcomm/src/*.rs; do
    [ "$f" = crates/netcomm/src/cluster.rs ] && continue
    hits=$(awk '/#\[cfg\(test\)\]/ { exit }
        !/^[[:space:]]*\/\// && /thread::(spawn|Builder|scope)|mpsc::/ {
            print FILENAME ":" FNR ": " $0
        }' "$f")
    if [ -n "$hits" ]; then
        echo "shim_guard: netcomm spawns a thread or opens a channel outside its tests:" >&2
        echo "$hits" >&2
        status=1
    fi
done

# The SIMD contract: every multiply-accumulate inner loop lives in
# sparsela::simd, where the lane schedule is pinned. `mul_add` is banned
# everywhere numeric code runs — a hardware FMA rounds once where the
# contract's plain mul-then-add rounds twice, so one fused call silently
# forks the bitstream between ISAs.
if hits=$(grep -rnE '\bmul_add\b' crates/sparsela/src crates/par/src crates/core/src crates/mpisim/src); then
    echo "shim_guard: mul_add found (FMA rounds once, the lane contract rounds twice):" >&2
    echo "$hits" >&2
    status=1
fi

# The flat-slice kernel front-ends must stay dispatch shims: a raw
# multiply-accumulate loop creeping back into vecops.rs or gram.rs would
# bypass sparsela::simd's lane-reduction contract. One documented
# exception: the nrm2 extreme-scale fallback (`acc += t * t`), a plain
# serial chain that is mode-independent by construction.
if hits=$(grep -nE '(acc|sum)[a-z0-9_]* *\+= *[^;]*\*' \
        crates/sparsela/src/vecops.rs crates/sparsela/src/gram.rs \
        | grep -v 'acc += t \* t'); then
    echo "shim_guard: raw multiply-accumulate loop outside sparsela::simd:" >&2
    echo "$hits" >&2
    status=1
fi

# Dataset file I/O is confined to sparsela::{io,shard}: the solvers, the
# exec recurrences, and datagen see matrices only through MajorSlices /
# SliceSource. A stray File::open in core or datagen means some code path
# reads data behind the shard cache's back — unbudgeted, uncounted by the
# io.* gauges, and invisible to the bitwise streamed≡in-memory proof.
io_patterns=(
    'File::open'
    'File::create'
    'OpenOptions'
    'fs::read'
    'read_to_string'
    'BufReader'
)
# One documented exception: serve/artifact.rs reads and writes *model*
# artifacts (saco-model/v1) — trained solutions, not datasets. They are
# never behind the shard cache, so the budget/io.* accounting the ban
# protects does not apply; every dataset byte the serve layer touches
# still comes through sparsela::io.
for pat in "${io_patterns[@]}"; do
    if hits=$(grep -rnE "$pat" crates/core/src crates/datagen/src \
            | grep -v '^crates/core/src/serve/artifact\.rs:'); then
        echo "shim_guard: dataset file I/O '$pat' outside sparsela::{io,shard}:" >&2
        echo "$hits" >&2
        status=1
    fi
done

# The CLI parses flags, prints summaries, spawns ranks and merges reports;
# every solve must route through saco::run, never the recurrence kernels.
# (`KernelFn::parse` for --kernel is fine — building or transforming
# kernel rows is not.)
for pat in 'lasso_family' 'svm_family' 'kdcd_family' 'sampled_gram' 'sampled_cross' \
        'KernelCache' 'begin_epoch' '\.eval\('; do
    if hits=$(grep -rnE "$pat" crates/cli/src); then
        echo "shim_guard: solver-loop pattern '$pat' found in the CLI:" >&2
        echo "$hits" >&2
        status=1
    fi
done

# mpisim accounts simulated time in exactly one place, the rank ledger:
# the virtual cluster is a vector of ledgers plus a fold for the latest
# entry clock. Pricing a kernel or a collective, or
# writing a phase-table row, anywhere else in the crate is the second copy
# of the accounting rules growing back (cost.rs holds the formulas
# themselves; code under the first `#[cfg(test)]` and comments are free).
for f in crates/mpisim/src/*.rs; do
    case "$f" in */ledger.rs | */cost.rs) continue ;; esac
    hits=$(awk '/#\[cfg\(test\)\]/ { exit }
        !/^[[:space:]]*\/\// && /compute_time\(|fused_allreduce_charge\(|\.record_full\(/ {
            print FILENAME ":" FNR ": " $0
        }' "$f")
    if [ -n "$hits" ]; then
        echo "shim_guard: cost accounting outside mpisim's rank ledger:" >&2
        echo "$hits" >&2
        status=1
    fi
done

# Every switch means one thing (PR 20): the mesh has one allreduce (the
# ring broke the tree's combine order and deadlocked once a chunk outgrew the socket
# buffer), SACO_SIMD has two values (the wide dot/nrm2 builds lost to the
# portable one at every length), and run reports have one writer
# (telemetry's emitters had no caller). A fork growing back needs a
# workload on each side of it and a predicate the code can observe, not
# a user-set switch.
if hits=$(grep -rnE '\bAlgo::|ring_allreduce|run_local_algo|Mode::Wide|SACO_SIMD_ISA|mod emit' \
        crates/*/src); then
    echo "shim_guard: a deleted fork is back (ring allreduce / SACO_SIMD=wide / emitters):" >&2
    echo "$hits" >&2
    status=1
fi

# One collective in the simulator (PR 23): mpisim prices exactly the
# fused allreduce the solvers issue. The blocking tree / Rabenseifner /
# Auto / two-level-hierarchy charges, the cloud preset and the CLI's
# --overlap switch reached no solve, figure or committed number; a second
# charge needs a figure that uses it, and `fit_alpha_beta` must fit
# whatever formula is charged.
if hits=$(grep -rnE 'AllreduceAlgo|Hierarchy|CollectiveKind|collective_charge|collective_time|settle_blocking|Collective::blocking|fn cloud\b|hierarchical|parse_overlap' \
        crates/*/src); then
    echo "shim_guard: a deleted pricing fork is back (blocking / Rabenseifner / hierarchy charge, cloud preset, --overlap):" >&2
    echo "$hits" >&2
    status=1
fi

# One sampled-Gram entry point (PR 24): dense data is served by the
# full-slice lane block inside `sampled_gram_into`, chosen from the
# resolved slices. The gather + blocked-GEMM side path had no caller and a
# different summation order; a second Gram function growing back would
# need every engine to agree on when to call it.
if hits=$(grep -rnE 'sampled_gram_dense|gather_columns_dense' crates/*/src); then
    echo "shim_guard: the dead dense-Gram side path is back (sampled_gram_into is the one entry point):" >&2
    echo "$hits" >&2
    status=1
fi

# Sparsela keeps only the numerics a solver reaches: the blocked dense
# GEMM / Gram (with its L2-probed panel height, the L2_BYTES static and
# the SACO_L2_KB variable), QR, Cholesky and column scaling served no
# solve once every Gram went through `sampled_gram_into`. A dense kernel
# coming back needs a solve that calls it; a test reference stays in
# the test that needs it.
if hits=$(grep -rnE 'gram_upper_rows|gram_tile_rows|l2_target_bytes|L2_BYTES|SACO_L2_KB|\bmatmul|fn gram_parallel|\.gram_parallel\(|mod (qr|chol|scale)\b' \
        crates/*/src); then
    echo "shim_guard: deleted dense numerics are back (dense GEMM/Gram, L2 probe, QR, Cholesky, scaling):" >&2
    echo "$hits" >&2
    status=1
fi

# One compressed-slice core: CSR, CSC, COO conversion and the shard files
# share crates/sparsela/src/compressed.rs, where the slice invariant
# (finite values included), the major range and minor window, the
# transpose and the COO compression are each one function. The windowed
# shard decode used to be a hand-kept copy of the block splitters, and
# each type validated its own arrays (none checked finiteness); a copy
# growing back has to be kept in step by hand again.
if hits=$(grep -rnE 'read_shard_window' crates/*/src); then
    echo "shim_guard: the windowed shard decode copy is back (call Compressed::minor_window):" >&2
    echo "$hits" >&2
    status=1
fi
if hits=$(grep -rnE 'strictly increasing in (row|column)|slice indices (must be|not) strictly increasing' \
        crates/*/src | grep -v '^crates/sparsela/src/compressed\.rs:'); then
    echo "shim_guard: a per-type slice validation is back outside the compressed-slice core:" >&2
    echo "$hits" >&2
    status=1
fi

# One solve path in the CLI: lasso, svm, ksvm, kridge, simulate, launch
# and launch's `_netrank` child share one parse → run → report body, with
# each subcommand's family and defaults in its SUBCOMMANDS row. A second
# RunSpec or rank call, or a per-family command body growing back, is a
# copy that drifts (launch once dropped --rel-tol on its hand-built child
# argv; lasso --model-out once dropped --metrics).
for call in 'RunSpec::new\(' 'run_rank\('; do
    hits=$(grep -rnE "$call" crates/cli/src || true)
    if [ "$(printf '%s' "$hits" | grep -c .)" -gt 1 ]; then
        echo "shim_guard: more than one ${call%\\(} call in the CLI (one solve body builds and runs every spec):" >&2
        echo "$hits" >&2
        status=1
    fi
done
if hits=$(grep -rnE 'fn (cmd_lasso|cmd_svm|cmd_kdcd|cmd_simulate|engine_view|sim_lasso_cfg)\b' crates/cli/src); then
    echo "shim_guard: a per-family CLI body is back (add a SUBCOMMANDS row that runs solve):" >&2
    echo "$hits" >&2
    status=1
fi

# Three engines (seq, sim, net): the thread machine, its engine variant,
# its backend and the vendored channel crate it alone used are gone. `net`
# executes, `sim` prices; a third engine has to earn its place.
if hits=$(grep -rnE 'ThreadMachine|Engine::Dist|DistBackend|RankComm::Thread|crossbeam' \
        crates tests examples); then
    echo "shim_guard: the thread machine is back (net executes, sim prices):" >&2
    echo "$hits" >&2
    status=1
fi

# Overlap is the schedule, not a knob: sim and net always hide the fused
# allreduce behind the next block, seq never does. The `overlap` field on
# the three solver configs and `Schedule` had no caller outside tests, and
# doubled every cell of the engine matrix.
if hits=$(grep -rnE '\bpub overlap\b|\boverlap: *(bool|true|false)\b|sched\.overlap|cfg\.overlap' \
        crates/*/src); then
    echo "shim_guard: the overlap knob is back (overlap is the schedule, not a config field):" >&2
    echo "$hits" >&2
    status=1
fi

if [ "$status" -ne 0 ]; then
    echo "shim_guard: FAILED — move recurrence logic into crates/core/src/exec/" >&2
else
    echo "shim_guard: OK — one run surface, one rank ledger, one allreduce, netcomm/CLI are solver-free, inner loops live in sparsela::simd, one compressed-slice core, one CLI solve body, three engines, no overlap knob"
fi
exit "$status"
