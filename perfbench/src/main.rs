//! `tesa-perfbench` — the repository benchmark.
//!
//! ```text
//! tesa-perfbench --workload campaign|sweep|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload on inputs generated from `--seed`, measures for
//! `--seconds`, checks the program's outputs, and prints human-readable
//! lines followed by one JSON line: the end-to-end metrics (`--trace 0`)
//! or the per-layer ledger metrics (`--trace 1`). Exits non-zero when a
//! correctness check fails. Run it from the root of a checkout (see
//! `perfbench/README.md`).

mod campaign;
mod layers;
mod ledger;
mod prom;
mod replay;
mod serve;
mod stats;
mod sweep;
mod sys;

use std::time::Duration;
use tesa_util::Json;

/// Command-line arguments shared by every workload.
pub struct Args {
    /// Seed of the workload's input generator.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Traced (per-layer ledger) run instead of the end-to-end run.
    pub trace: bool,
}

/// End-to-end metrics, printed by every workload with `--trace 0`, in
/// `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_mean_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// `TESA_THREADS` of every process the benchmark measures: this one, its
/// set-up probes and the daemon inherit it. One lane is the program's
/// serial switch. With a lane per core, the thermal kernels' spinning
/// barriers tie every solve to the slowest core: on a two-core VM one
/// busy loop beside a campaign made it four times slower, CPU time
/// included, and runs of the same code spread by 40 % between sets. The
/// traced run measures that width separately
/// (`pool.lane_per_core_wall_ratio`).
const POOL_LANES: &str = "1";

/// Per-layer metrics, printed by every workload with `--trace 1`, in
/// `BENCHMARK.json` order. Per-call costs are measured on every workload's
/// own inputs; counts and shares are zero where the workload's path does
/// not reach the layer.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("scalesim.ms_per_pair", "ms"),
    ("scalesim.pairs", "count"),
    ("prelude.us_per_design", "us"),
    ("prelude.designs", "count"),
    ("prelude.lazy_skip_frac", "ratio"),
    ("thermal.model.build_ms", "ms"),
    ("thermal.model.builds", "count"),
    ("thermal.model.mb", "MiB"),
    ("thermal.solve.ms", "ms"),
    ("thermal.solve.count", "count"),
    ("thermal.solve.iters", "count"),
    ("thermal.solve.vcycles", "count"),
    ("thermal.solve.degraded", "count"),
    ("thermal.batch.count", "count"),
    ("thermal.batch.width", "count"),
    ("surrogate.screen_ms", "ms"),
    ("surrogate.screens", "count"),
    ("surrogate.decisive_frac", "ratio"),
    ("eval.thermal_ms", "ms"),
    ("eval.solves_per_design", "count"),
    ("eval.leak_iters_per_phase", "count"),
    ("eval.exact", "count"),
    ("eval.memo_hit_frac", "ratio"),
    ("eval.memo_hit_us", "us"),
    ("anneal.unique", "count"),
    ("anneal.accept_frac", "ratio"),
    ("pool.busy_cores", "cores"),
    ("pool.lane_per_core_wall_ratio", "ratio"),
    ("session.hit_us", "us"),
    ("session.cold_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.rejected", "count"),
    ("thermal.solve.share", "ratio"),
    ("unattributed_frac", "ratio"),
];

/// What a workload run produced: its correctness verdict, operation
/// counts, and metric values by name (units come from the tables above).
#[derive(Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value)` of every metric of the run's table.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn json_line(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push((
                name,
                Json::obj([("value", Json::f64(value)), ("unit", Json::str(unit))]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string())
    }
}

const USAGE: &str =
    "usage: tesa-perfbench --workload campaign|sweep|serve --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<(String, Args), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((workload.ok_or("--workload is required")?, args))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Child mode of `layers::lane_per_core_call`: one call on the pool the
    // program starts by default; prints its wall and CPU seconds.
    if let [flag, workload, seed] = &argv[..] {
        if flag == "--pool-probe" {
            let Ok(seed) = seed.parse() else {
                eprintln!("error: bad pool-probe seed {seed:?}");
                std::process::exit(2);
            };
            let (wall, cpu) = match workload.as_str() {
                "campaign" => campaign::first_call(seed),
                "sweep" => sweep::first_call(seed),
                other => {
                    eprintln!("error: no pool probe for {other:?}");
                    std::process::exit(2);
                }
            };
            println!("{wall} {cpu}");
            return;
        }
    }
    // Before any thread exists, and before the global pool reads it.
    std::env::set_var("TESA_THREADS", POOL_LANES);
    // Child mode of `layers::SetupProbes`: time one in-process set-up in
    // this fresh process and print it.
    if let [flag, workload] = &argv[..] {
        if flag == "--setup-probe" {
            let opts = match workload.as_str() {
                "campaign" => campaign::options(),
                "sweep" => sweep::options(),
                other => {
                    eprintln!("error: no set-up probe for {other:?}");
                    std::process::exit(2);
                }
            };
            println!("{}", layers::setup_once(opts));
            return;
        }
    }
    let (workload, args) = match parse_args(argv.into_iter()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match workload.as_str() {
        "campaign" => campaign::run,
        "sweep" => sweep::run,
        "serve" => serve::run,
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args).and_then(|outcome| {
        let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        for &(name, unit) in table {
            if let Some((_, v)) = outcome.metrics.iter().find(|(n, _)| *n == name) {
                println!("metric {name} = {v} {unit}");
            }
        }
        outcome.json_line(table).map(|line| (outcome.correct, line))
    });
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if !correct {
                eprintln!("error: a correctness check failed");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<(String, Args), String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, a) = args("--workload sweep --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (w.as_str(), a.seed, a.seconds.as_secs(), a.trace),
            ("sweep", 7, 12, true)
        );
        assert!(args("--workload sweep --seed 7 --seconds 0 --trace 1").is_err());
        assert!(args("--workload sweep --seed x --seconds 3 --trace 0").is_err());
        assert!(args("--workload sweep --seed 1 --seconds 3 --trace 2").is_err());
        assert!(args("--workload sweep --seed 1 --seconds 3").is_err());
        assert!(args("--workload sweep --seed").is_err());
    }

    /// The metric tables here and `BENCHMARK.json` name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = tesa_util::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn json_line_carries_every_metric_of_the_table() {
        let mut o = Outcome {
            correct: true,
            attempted: 5,
            failed: 1,
            ..Outcome::default()
        };
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, i as f64 + 0.5);
        }
        let line = o.json_line(&END_TO_END).unwrap();
        let j = tesa_util::json::parse(&line).unwrap();
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(5));
        let m = j.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(4.5)
        );
        assert!(
            o.json_line(&PER_LAYER).is_err(),
            "missing metrics are an error"
        );
    }
}
