//! Benchmark of a full (small-space) MSA optimization — the end-to-end
//! cost of one TESA design run, and the basis for the paper's "<15 % of
//! the space explored" efficiency claim.
//!
//! Run with `cargo bench --bench bench_anneal [-- --bench-filter <substr>]`.
//!
//! The `warm_cache` / `warm_cache_traced` pair measures the observability
//! layer's overhead in one run: the first executes with tracing compiled
//! in but disabled (the production default — one atomic load per
//! instrumentation point), the second with a live session draining to a
//! null sink. The disabled-path regression guard in `ci.sh` additionally
//! diffs `warm_cache` against the previous build's `BENCH_anneal.json`
//! via the `bench_guard` binary.

use tesa::anneal::{optimize, MsaConfig};
use tesa::design::{DesignSpace, Integration};
use tesa::eval::{EvalOptions, Evaluator};
use tesa::{Constraints, Objective};
use tesa_util::bench::BenchRunner;
use tesa_workloads::arvr_suite;

fn main() {
    let mut runner = BenchRunner::from_env_args();

    let space = DesignSpace {
        array_dims: (96..=192).step_by(32).collect(),
        sram_kib_options: vec![256, 512, 1024],
        ics_um_options: vec![0, 500, 1000],
    };
    let config = MsaConfig {
        deltas: vec![0.7],
        t_init: 4.0,
        t_final: 1.0,
        moves_per_temp: 5,
        init_attempts: 30,
        seed: 3,
        screening: false,
        ..MsaConfig::default()
    };
    let constraints = Constraints::edge_device(15.0, 85.0);
    let objective = Objective::balanced();
    // One evaluator shared across iterations: measures the annealer's
    // control flow + cached evaluation path (the steady-state regime of
    // a long DSE session).
    let evaluator =
        Evaluator::new(arvr_suite(), EvalOptions { lazy: true, ..EvalOptions::default() });
    runner.bench("anneal/msa_small_space_warm_cache", || {
        optimize(&evaluator, &space, Integration::TwoD, 400, &constraints, &objective, &config)
    });

    // Same workload with an active trace session draining to a null sink:
    // the difference against `warm_cache` is the *enabled* tracing cost
    // (event construction + serialization), an upper bound on what a real
    // `--trace` run adds.
    {
        let session = tesa_util::trace::init_writer(Box::new(std::io::sink()));
        runner.bench("anneal/msa_small_space_warm_cache_traced", || {
            optimize(&evaluator, &space, Integration::TwoD, 400, &constraints, &objective, &config)
        });
        drop(session);
    }

    // Fresh evaluator per iteration: every unique design pays its real
    // evaluation (including the production-grid steady-state thermal
    // solves) — the cost profile of the *first* pass over a design space.
    let cold_space = DesignSpace {
        array_dims: (96..=160).step_by(32).collect(),
        sram_kib_options: vec![256, 512],
        ics_um_options: vec![0, 500],
    };
    let cold_config = MsaConfig { moves_per_temp: 3, ..config.clone() };
    runner.bench("anneal/msa_small_space_cold_cache", || {
        let evaluator =
            Evaluator::new(arvr_suite(), EvalOptions { lazy: true, ..EvalOptions::default() });
        optimize(
            &evaluator,
            &cold_space,
            Integration::TwoD,
            400,
            &constraints,
            &objective,
            &cold_config,
        )
    });

    // The same cold-cache workload with surrogate screening on: the
    // screen short-circuits clearly-infeasible candidates. The trajectory
    // (and best design) is bit-identical to `cold_cache`; only the wall
    // time moves. `ci.sh` gates the ratio of the two medians via
    // bench_guard's `--speedup` mode.
    let screened_config = MsaConfig { screening: true, ..cold_config.clone() };
    runner.bench("anneal/msa_small_space_cold_cache_screened", || {
        let evaluator =
            Evaluator::new(arvr_suite(), EvalOptions { lazy: true, ..EvalOptions::default() });
        optimize(
            &evaluator,
            &cold_space,
            Integration::TwoD,
            400,
            &constraints,
            &objective,
            &screened_config,
        )
    });

    runner.report();
}
