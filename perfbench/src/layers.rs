//! Per-layer probes and ledger metrics shared by the workloads.

use crate::ledger::Ledger;
use crate::prom::Scrape;
use crate::replay::Replayed;
use crate::stats::median;
use crate::Outcome;
use std::process::Command;
use std::time::Instant;
use tesa::design::McmDesign;
use tesa::eval::{EvalOptions, Evaluator};
use tesa::report::design_json;
use tesa::session::{Query, Session};
use tesa::Constraints;
use tesa_util::Json;
use tesa_workloads::arvr_suite;

/// Set-up probes taken at each probe point of a run.
const SETUP_BURST: usize = 5;
/// Designs each per-call probe samples.
const PROBE_DESIGNS: usize = 4;

/// Seconds an in-process workload spends starting up in a fresh process:
/// the first `pool::global()` (a pool wider than one lane starts its
/// worker threads here) plus `Evaluator::new` with `opts`.
pub fn setup_once(opts: EvalOptions) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(tesa_util::pool::global());
    std::hint::black_box(Evaluator::new(arvr_suite(), opts));
    t0.elapsed().as_secs_f64()
}

/// [`setup_once`] timings of one workload over a run, each taken in a
/// child process of this binary (`--setup-probe <workload>`), since the
/// global pool starts only once per process. At this sub-millisecond
/// scale the host's speed drifts by tens of percent over seconds, so a
/// run probes before its first call and after every call, and reports
/// the median of all probes.
pub struct SetupProbes {
    workload: &'static str,
    times: Vec<f64>,
}

impl SetupProbes {
    pub fn new(workload: &'static str) -> Self {
        SetupProbes {
            workload,
            times: Vec::new(),
        }
    }

    /// Takes [`SETUP_BURST`] probes.
    pub fn take(&mut self) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        for _ in 0..SETUP_BURST {
            let out = Command::new(&exe)
                .args(["--setup-probe", self.workload])
                .output()
                .map_err(|e| format!("set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!("set-up probe exited with {}", out.status));
            }
            self.times.push(
                text.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("set-up probe printed {text:?}: {e}"))?,
            );
        }
        Ok(())
    }

    /// Median of every probe taken, seconds.
    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// `(wall, CPU)` seconds of one call of `workload` on the first input of
/// `seed`, run in a child process of this binary (`--pool-probe`) whose
/// pool has the program's default width: one lane per core.
pub fn lane_per_core_call(workload: &str, seed: u64) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--pool-probe", workload, &seed.to_string()])
        .env_remove("TESA_THREADS")
        .output()
        .map_err(|e| format!("pool probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed: Vec<f64> = text
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    match (out.status.success(), parsed.as_slice()) {
        (true, &[wall, cpu]) => Ok((wall, cpu)),
        _ => Err(format!(
            "pool probe exited with {} and printed {text:?}",
            out.status
        )),
    }
}

/// The pool metrics of an in-process workload whose untraced call on the
/// first input of `seed` took `wall` and `cpu` seconds on the benchmark's
/// one-lane pool: cores it kept busy, and the wall time of the same call
/// with one lane per core relative to it.
pub fn pool_metrics(
    out: &mut Outcome,
    workload: &str,
    seed: u64,
    wall: f64,
    cpu: f64,
) -> Result<(), String> {
    let (wide_wall, wide_cpu) = lane_per_core_call(workload, seed)?;
    out.set("pool.busy_cores", cpu / wall);
    out.set("pool.lane_per_core_wall_ratio", wide_wall / wall);
    println!(
        "pool: one lane wall_s={wall:.3} cpu_s={cpu:.3}; one lane per core wall_s={wide_wall:.3} cpu_s={wide_cpu:.3}"
    );
    Ok(())
}

/// Microseconds per `evaluate_cached` lookup of `designs` on an evaluator
/// that already holds every one of them.
pub fn memo_hit_us(ev: &Evaluator, designs: &[McmDesign], c: &Constraints) -> f64 {
    let t0 = Instant::now();
    let mut lookups = 0usize;
    while lookups == 0 || t0.elapsed().as_secs_f64() < 0.05 {
        for d in designs {
            std::hint::black_box(ev.evaluate_cached(d, c));
        }
        lookups += designs.len();
    }
    t0.elapsed().as_secs_f64() * 1e6 / lookups.max(1) as f64
}

/// `/evaluate` request body for `design` under `c` (fps, temperature and
/// power budget spelled out; the rest are the session defaults).
pub fn evaluate_body(design: &McmDesign, c: &Constraints) -> Json {
    Json::obj([
        ("design", design_json(design)),
        (
            "constraints",
            Json::obj([
                ("fps", Json::f64(c.min_fps)),
                ("temp_c", Json::f64(c.temp_budget_c)),
                ("power_w", Json::f64(c.power_budget_w)),
            ]),
        ),
    ])
}

/// Every `len / n`-th index of `0..len`, at most `n` of them.
fn sample(len: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..len).step_by((len / n.max(1)).max(1)).take(n)
}

/// Per-call probes on the workload's own exact designs: the warm-memo
/// thermal stage (`Evaluator::thermal_map` on `ev`, whose model memo
/// holds them), the surrogate screen and the session layer (fresh
/// evaluators with the workload's options).
pub fn probes(
    out: &mut Outcome,
    ev: &Evaluator,
    opts: &EvalOptions,
    exact: &[McmDesign],
    c: &Constraints,
) {
    let picked: Vec<McmDesign> = sample(exact.len(), PROBE_DESIGNS)
        .map(|i| exact[i])
        .collect();
    let per_call_ms = |f: &dyn Fn(&McmDesign)| {
        let times: Vec<f64> = picked
            .iter()
            .map(|d| {
                let t0 = Instant::now();
                f(d);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        if times.is_empty() {
            0.0
        } else {
            times.iter().sum::<f64>() / times.len() as f64
        }
    };
    out.set(
        "eval.thermal_ms",
        per_call_ms(&|d| {
            std::hint::black_box(ev.thermal_map(d, c));
        }),
    );
    let screener = Evaluator::new(arvr_suite(), opts.clone());
    out.set(
        "surrogate.screen_ms",
        per_call_ms(&|d| {
            std::hint::black_box(screener.screen(d, c));
        }),
    );
    let session = Session::new(Evaluator::new(arvr_suite(), opts.clone()));
    let queries: Vec<Query> = picked
        .iter()
        .map(|d| Query::evaluate(evaluate_body(d, c)))
        .collect();
    let cold: Vec<f64> = queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            std::hint::black_box(session.run_batch(std::slice::from_ref(q)));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set(
        "session.cold_ms",
        if cold.is_empty() { 0.0 } else { median(&cold) },
    );
    out.set("session.hit_us", session_hit_us(&session, &queries));
}

/// Microseconds per single-query `Session::run_batch` call answered from
/// the memo (every query in `queries` was answered before).
pub fn session_hit_us(session: &Session, queries: &[Query]) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t0.elapsed().as_secs_f64() < 0.05 {
        for q in queries {
            std::hint::black_box(session.run_batch(std::slice::from_ref(q)));
        }
        calls += queries.len();
    }
    t0.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Metrics every workload derives the same way from its replay, its
/// ledger and the registry delta `reg` of its untraced run; prints the
/// ledger against `reference_s` (CPU seconds of the untraced run).
pub fn report_common(
    out: &mut Outcome,
    ledger: &Ledger,
    r: &Replayed,
    reg: &Scrape,
    reference_s: f64,
    reference: &str,
) {
    let (table, unattributed) = ledger.report(reference, reference_s, true);
    print!("{table}");
    let per_call_ms = |layer: &str| {
        let t = ledger.total(layer);
        if t.calls == 0 {
            0.0
        } else {
            t.wall_s * 1e3 / t.calls as f64
        }
    };
    out.set("scalesim.ms_per_pair", per_call_ms("scalesim"));
    out.set("scalesim.pairs", r.pairs as f64);
    out.set("prelude.us_per_design", per_call_ms("prelude") * 1e3);
    out.set("prelude.designs", r.designs as f64);
    out.set(
        "prelude.lazy_skip_frac",
        r.lazy as f64 / r.designs.max(1) as f64,
    );
    out.set("thermal.model.build_ms", per_call_ms("thermal.model"));
    out.set("thermal.model.builds", r.builds as f64);
    out.set("thermal.model.mb", r.model_mib);
    out.set("thermal.solve.ms", per_call_ms("thermal.solve"));
    registry_metrics(out, reg);
    out.set(
        "eval.solves_per_design",
        r.solves as f64 / r.exact.max(1) as f64,
    );
    out.set(
        "eval.leak_iters_per_phase",
        r.solves as f64 / r.phases.max(1) as f64,
    );
    out.set("eval.exact", r.exact as f64);
    out.set(
        "thermal.solve.share",
        ledger.total("thermal.solve").cpu_s / reference_s,
    );
    out.set("unattributed_frac", unattributed);
    println!(
        "replay: {} designs, {} pairs, {} lazy skips, {} exact, {} solves over {} phases, {:.2} MiB per model",
        r.designs, r.pairs, r.lazy, r.exact, r.solves, r.phases, r.model_mib
    );
}

/// Solve, batch and screen counts from the registry delta `reg` of a
/// workload's untraced run.
pub fn registry_metrics(out: &mut Outcome, reg: &Scrape) {
    let (solves, iters) = reg.count_sum("tesa_thermal_cg_iterations", "");
    out.set("thermal.solve.count", solves);
    out.set("thermal.solve.iters", iters / solves.max(1.0));
    out.set(
        "thermal.solve.vcycles",
        reg.get("tesa_thermal_vcycles_total"),
    );
    out.set(
        "thermal.solve.degraded",
        reg.get("tesa_thermal_cg_degraded_total"),
    );
    let (batches, width) = reg.count_sum("tesa_thermal_batch_width", "");
    out.set("thermal.batch.count", batches);
    out.set("thermal.batch.width", width / batches.max(1.0));
    let screens = reg.family_sum("tesa_eval_screens_total");
    out.set("surrogate.screens", screens);
    out.set(
        "surrogate.decisive_frac",
        reg.get(r#"tesa_eval_screens_total{verdict="decisive"}"#) / screens.max(1.0),
    );
}

/// The daemon-only counters, zero for the in-process workloads.
pub fn zero_serve(out: &mut Outcome) {
    out.set("serve.batch_size", 0.0);
    out.set("serve.rejected", 0.0);
}
