//! `bench_guard` — regression gate over `BENCH_*.json` artifacts.
//!
//! Usage:
//!
//! ```text
//! bench_guard <baseline.json> <current.json> [--tolerance 0.05] [--filter substr]
//! bench_guard <current.json> --speedup <slow_name>=<fast_name> [--min-speedup 2.0]
//! ```
//!
//! The two-file form compares `median_ns` per benchmark name and fails
//! (exit 1) when any benchmark present in both files regressed by more
//! than the tolerance (default 5%, overridable with `--tolerance` or the
//! `TESA_BENCH_TOLERANCE` environment variable — the flag wins).
//! Benchmarks present in only one file are reported but never fail the
//! guard, so adding or removing benchmarks does not break CI.
//!
//! The one-file `--speedup` form is an *intra-run* gate: it fails unless
//! `median(slow) / median(fast) >= min-speedup` within the same artifact.
//! Because both medians come from one run on one machine, the gate is
//! immune to cross-run machine drift.
//!
//! `ci.sh` uses the two-file form as the disabled-path overhead guard
//! (the traced-off, screening-off `bench_anneal` medians of the current
//! build must stay within tolerance of the previous build's
//! `BENCH_anneal.json`), and the `--speedup` form to require — on
//! multi-core runners — that the screened cold-cache anneal breaks even
//! against the unscreened one, that the pooled thermal kernels beat their
//! single-lane variants, and that a lockstep multi-RHS batch of eight
//! thermal solves beats eight serial solves of the same systems.

use std::collections::BTreeMap;
use std::process::ExitCode;
use tesa_util::json::{self, Json};

/// `name -> median_ns` from a BenchRunner `--format json` artifact.
fn load_medians(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let benchmarks = root
        .get("benchmarks")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no 'benchmarks' array"))?;
    let mut out = BTreeMap::new();
    for b in benchmarks {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: benchmark without a name"))?;
        let median = b
            .get("median_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: '{name}' has no median_ns"))?;
        out.insert(name.to_owned(), median);
    }
    Ok(out)
}

/// The `--speedup` gate: `slow` must be at least `min_speedup` times the
/// median of `fast` within one artifact.
fn run_speedup(path: &str, pair: &str, min_speedup: f64) -> Result<bool, String> {
    let (slow, fast) = pair
        .split_once('=')
        .ok_or_else(|| format!("--speedup wants <slow_name>=<fast_name>, got '{pair}'"))?;
    let medians = load_medians(path)?;
    let slow_ns =
        *medians.get(slow).ok_or_else(|| format!("{path}: no benchmark '{slow}'"))?;
    let fast_ns =
        *medians.get(fast).ok_or_else(|| format!("{path}: no benchmark '{fast}'"))?;
    let speedup = slow_ns / fast_ns.max(f64::MIN_POSITIVE);
    let ok = speedup >= min_speedup;
    println!(
        "{} speedup: {slow} {:.3} ms / {fast} {:.3} ms = {speedup:.2}x \
         (required {min_speedup:.2}x) [{}]",
        if ok { "✓" } else { "✗" },
        slow_ns / 1e6,
        fast_ns / 1e6,
        if ok { "ok" } else { "TOO SLOW" },
    );
    Ok(ok)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut tolerance: Option<f64> = None;
    let mut filter: Option<String> = None;
    let mut speedup_pair: Option<String> = None;
    let mut min_speedup = 2.0;
    let mut iter = args.into_iter();
    while let Some(tok) = iter.next() {
        match tok.as_str() {
            "--tolerance" => {
                let v = iter.next().ok_or("--tolerance needs a value")?;
                tolerance =
                    Some(v.parse().map_err(|_| format!("bad tolerance '{v}'"))?);
            }
            "--filter" => {
                filter = Some(iter.next().ok_or("--filter needs a value")?);
            }
            "--speedup" => {
                speedup_pair = Some(iter.next().ok_or("--speedup needs a value")?);
            }
            "--min-speedup" => {
                let v = iter.next().ok_or("--min-speedup needs a value")?;
                min_speedup =
                    v.parse().map_err(|_| format!("bad min-speedup '{v}'"))?;
            }
            _ => paths.push(tok),
        }
    }
    if let Some(pair) = speedup_pair {
        let [path] = paths.as_slice() else {
            return Err("--speedup wants exactly one artifact".into());
        };
        return run_speedup(path, &pair, min_speedup);
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return Err("usage: bench_guard <baseline.json> <current.json> \
                    [--tolerance 0.05] [--filter substr] | \
                    bench_guard <current.json> --speedup <slow>=<fast> \
                    [--min-speedup 2.0]"
            .into());
    };
    let tolerance = tolerance
        .or_else(|| std::env::var("TESA_BENCH_TOLERANCE").ok()?.parse().ok())
        .unwrap_or(0.05);

    let baseline = load_medians(baseline_path)?;
    let current = load_medians(current_path)?;

    let mut ok = true;
    let mut compared = 0;
    for (name, &base_ns) in &baseline {
        if filter.as_ref().is_some_and(|f| !name.contains(f.as_str())) {
            continue;
        }
        let Some(&cur_ns) = current.get(name) else {
            println!("~ {name}: removed (baseline {:.3} ms)", base_ns / 1e6);
            continue;
        };
        compared += 1;
        let ratio = cur_ns / base_ns.max(f64::MIN_POSITIVE);
        let delta_pct = 100.0 * (ratio - 1.0);
        let verdict = if ratio <= 1.0 + tolerance { "ok" } else { "REGRESSED" };
        println!(
            "{} {name}: {:.3} ms -> {:.3} ms ({delta_pct:+.1}%) [{verdict}]",
            if verdict == "ok" { "✓" } else { "✗" },
            base_ns / 1e6,
            cur_ns / 1e6,
        );
        if verdict != "ok" {
            ok = false;
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            println!("~ {name}: new (no baseline)");
        }
    }
    if compared == 0 {
        println!("no common benchmarks to compare — guard passes vacuously");
    }
    println!(
        "guard: {} of {compared} compared benchmark(s) within {:.0}% of baseline",
        if ok { "all" } else { "NOT all" },
        100.0 * tolerance
    );
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
