#!/usr/bin/env bash
# Hermetic CI for the TESA workspace: offline build, tests, doctests,
# rustdoc (warnings fatal), benches (run, with JSON artifacts + a
# regression guard), lints. Must pass with an empty cargo registry.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# Doctests are not covered by `cargo test` for crates with
# `harness = false` bench targets, so run them explicitly.
cargo test -q --offline --workspace --doc
cargo build --offline --benches --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

# Crash/resume kill matrix in release mode (the debug run is part of the
# workspace suite above; release exercises the same binary the artifacts
# use). TESA_FAULTPOINTS is deliberately set for the harness process: the
# suite must scrub it from child campaigns, so a leaked plan here would
# fail the byte-identity assertions — a regression guard for the env
# isolation, on top of the per-scenario --faultpoints injection.
TESA_FAULTPOINTS="ckpt.write=prob:0.5;seed=7" \
    cargo test -q --offline --release --test crash_resume

# Serve smoke suite in release: boots real daemons, byte-compares daemon
# responses against the one-shot CLI, and kills one mid-campaign to prove
# checkpointed /optimize resumes bit-identically after a restart.
cargo test -q --offline --release --test serve_smoke

# Serial-fallback regression guard: the tier-1 suite must pass with the
# worker pool pinned to one lane. TESA_THREADS=1 takes every pooled hot
# loop (thermal kernels, sweep, evaluation batches) down its inline path,
# so a bug hiding behind "the pool happened to run it" fails here. The
# thread_invariance suite sets TESA_THREADS explicitly for its child
# processes, so this blanket override does not weaken its 1/2/8 matrix.
TESA_THREADS=1 cargo test -q --offline --release

# Bench trend artifacts: short runs, machine-readable. BENCH_*.json land
# in the repo root (gitignored) for the CI runner to archive and diff
# against the previous build. Paths are absolute because cargo runs
# bench binaries from the package directory, not the workspace root.
#
# The previous build's BENCH_anneal.json (if present) becomes the
# baseline for the disabled-path overhead guard: tracing is compiled
# into the annealer hot path but off by default, and bench_guard fails
# the build if the traced-off medians regressed beyond the tolerance
# (5% by default; override with TESA_BENCH_TOLERANCE — cross-run wall
# time is noisy, so loosen it on shared runners rather than deleting
# the gate).
#
# BENCH_thermal.json is carried forward the same way: its single-solve
# rows (`thermal/solve/*`) guard the width-1 call of the multi-RHS CG
# engine, which every `evaluate` and every annealer lookup runs.
for artifact in anneal thermal; do
    if [[ -f BENCH_$artifact.json ]]; then
        cp BENCH_$artifact.json BENCH_$artifact.baseline.json
    fi
done
# Artifacts go to a temp name first and are renamed only on success, so a
# bench binary dying mid-run cannot leave a stale or truncated JSON that
# the next build would diff against as if it were real. bench_thermal
# runs 15 iterations, as bench_anneal does, so the guarded single-solve
# medians are steadier than a 5-iteration median.
cargo bench -q --offline -p tesa-bench --bench bench_thermal -- \
    --warmup 1 --iters 15 --format json --out "$PWD/BENCH_thermal.json.tmp"
mv BENCH_thermal.json.tmp BENCH_thermal.json
# bench_anneal's warm-cache benchmarks are microsecond-scale, where a
# 3-iteration median is dominated by scheduler noise; 15 iterations keep
# the guarded median stable (the cold-cache bench at ~100 ms/iter bounds
# the added wall time to a couple of seconds).
cargo bench -q --offline -p tesa-bench --bench bench_anneal -- \
    --warmup 3 --iters 15 --format json --out "$PWD/BENCH_anneal.json.tmp"
mv BENCH_anneal.json.tmp BENCH_anneal.json
cargo bench -q --offline -p tesa-bench --bench bench_sweep -- \
    --warmup 1 --iters 5 --format json --out "$PWD/BENCH_sweep.json.tmp"
mv BENCH_sweep.json.tmp BENCH_sweep.json
# Pool micro-bench: dispatch latency and the lane-count scaling curve.
# Informational artifact (no cross-run guard — sub-microsecond dispatch
# medians are too noisy on shared runners to gate on).
cargo bench -q --offline -p tesa-bench --bench bench_pool -- \
    --warmup 2 --iters 15 --format json --out "$PWD/BENCH_pool.json.tmp"
mv BENCH_pool.json.tmp BENCH_pool.json
# Daemon request latency over real TCP (cold vs warm cache, batch
# shapes). 5 iterations keep the batch64 burst (~0.8 s each) CI-sized;
# the warm/cold ratio being gated is ~40x, far above measurement noise.
cargo bench -q --offline -p tesa-bench --bench bench_serve -- \
    --warmup 1 --iters 5 --format json --out "$PWD/BENCH_serve.json.tmp"
mv BENCH_serve.json.tmp BENCH_serve.json
# Resident-evaluator gate, within this run's artifact: a warm /evaluate
# (eval-memo hit) must answer at least 2x faster than a cold one. If this
# fails, the daemon is re-running exact solves for designs it has already
# answered — the whole point of serving is gone.
cargo run -q --offline --release -p tesa-bench --bin bench_guard -- \
    BENCH_serve.json \
    --speedup "serve/evaluate/cold=serve/evaluate/warm" \
    --min-speedup "${TESA_BENCH_MIN_SERVE_SPEEDUP:-2.0}"
# Metrics-scrape gate, within this run's artifact: rendering the full
# Prometheus exposition (every endpoint family plus the solver/annealer
# histograms the earlier benchmarks populated) must answer at least as
# fast as one cold /evaluate. If a scrape costs more than an evaluation,
# monitoring is competing with the work it monitors.
cargo run -q --offline --release -p tesa-bench --bin bench_guard -- \
    BENCH_serve.json \
    --speedup "serve/evaluate/cold=serve/metrics_scrape" \
    --min-speedup "${TESA_BENCH_MIN_SCRAPE_SPEEDUP:-1.0}"
# Disabled-path overhead gate: the warm-cache benchmarks run with tracing
# and screening off — and, since the observability PR, with the always-on
# metrics registry recording on every temperature step, memo lookup, and
# thermal solve — so a regression here means the new
# machinery (now including metrics record cost) exceeds the tolerance even
# when nobody asked for it. bench_serve's metrics/record_x1000 row tracks
# the raw per-touch cost for triage when this gate trips.
if [[ -f BENCH_anneal.baseline.json ]]; then
    cargo run -q --offline --release -p tesa-bench --bin bench_guard -- \
        BENCH_anneal.baseline.json BENCH_anneal.json \
        --tolerance "${TESA_BENCH_TOLERANCE:-0.05}" \
        --filter warm_cache
    # The cold-cache variants gate the same disabled-path overhead on the
    # full-evaluation trajectory (checkpointing and fault injection are
    # compiled into the annealer/evaluator hot paths but off by default).
    cargo run -q --offline --release -p tesa-bench --bin bench_guard -- \
        BENCH_anneal.baseline.json BENCH_anneal.json \
        --tolerance "${TESA_BENCH_TOLERANCE:-0.05}" \
        --filter cold_cache
    rm -f BENCH_anneal.baseline.json
else
    echo "bench_guard: no previous BENCH_anneal.json — baseline recorded, guard skipped"
fi
# Single-solve speed gate: every `thermal/solve/*` median against the
# previous build's, at the same tolerance. A regression here slows every
# evaluation, since a single solve is the width-1 call of the batched
# engine.
if [[ -f BENCH_thermal.baseline.json ]]; then
    cargo run -q --offline --release -p tesa-bench --bin bench_guard -- \
        BENCH_thermal.baseline.json BENCH_thermal.json \
        --tolerance "${TESA_BENCH_TOLERANCE:-0.05}" \
        --filter thermal/solve/
    rm -f BENCH_thermal.baseline.json
else
    echo "bench_guard: no previous BENCH_thermal.json — baseline recorded, guard skipped"
fi
# Enabled-path speedup gates, all *within this run's artifact* so they
# are immune to cross-run machine drift. They only bind on runners with
# enough cores; on narrower machines the pool runs the serial path and
# the disabled-path guard above is the binding check.
if [[ "$(nproc)" -ge 4 ]]; then
    # Parallel thermal kernels: the default-lanes production-size solve
    # must beat its own single-lane variant by >=1.5x, for both stacks.
    for stack in 2d_4layer 3d_6layer; do
        cargo run -q --offline --release -p tesa-bench --bin bench_guard -- \
            BENCH_thermal.json \
            --speedup "thermal/solve/$stack/64/threads1=thermal/solve/$stack/64" \
            --min-speedup "${TESA_BENCH_MIN_THERMAL_SPEEDUP:-1.5}"
    done
    # Multi-RHS batching must pay for itself: one lockstep batch of eight
    # same-model solves has to beat eight serial solves of the identical
    # systems by >=1.5x within this run's artifact. If this fails, the
    # fused sweeps are not amortizing the matrix traversal and the batched
    # evaluate/screen/sweep paths are plumbing without a payoff.
    cargo run -q --offline --release -p tesa-bench --bin bench_guard -- \
        BENCH_thermal.json \
        --speedup "thermal/batch/2d_4layer/64/batch1_x8=thermal/batch/2d_4layer/64/batch8" \
        --min-speedup "${TESA_BENCH_MIN_BATCH_SPEEDUP:-1.5}"
    # Screening must pay for itself: the screened cold-cache anneal is
    # never allowed to be slower than the unscreened one (min-speedup 1.0
    # — the screening gate switches itself off when the surrogate stops
    # rejecting, so "at least break even" is the invariant worth pinning).
    cargo run -q --offline --release -p tesa-bench --bin bench_guard -- \
        BENCH_anneal.json \
        --speedup "anneal/msa_small_space_cold_cache=anneal/msa_small_space_cold_cache_screened" \
        --min-speedup "${TESA_BENCH_MIN_SPEEDUP:-1.0}"
else
    echo "bench_guard: <4 cores — thermal, batch and screening speedup gates skipped"
fi
