//! `sweep`: the Sec. IV-A validation sweep — `exhaustive::sweep` on a
//! fresh lazy evaluator at 64 cells, 3D at 400 MHz, 15 fps / 85 °C,
//! `threads` = cores, over `DesignSpace::validation()` restricted to one
//! of seven subsets that partition its 33 array sizes. A run sweeps every
//! subset, in an order drawn from the seed.
//!
//! It is the only in-process workload on the six-layer 3D stack and on
//! the `evaluate_cached_batch` path. Most designs stop at the lazy gate;
//! those that reach the thermal stage build one model per layout, and
//! designs whose 3D footprints coincide share it and solve in lockstep
//! batches; nothing hits the memo.

use crate::ledger::Ledger;
use crate::prom::Scrape;
use crate::replay;
use crate::stats::{median, Suite};
use crate::sys::{cpu_s, host_jiffies, nproc, peak_rss_mib, steal_frac};
use crate::{layers, Args, Outcome};
use std::time::Instant;
use tesa::constraints::Violation;
use tesa::design::{DesignSpace, Integration, McmDesign};
use tesa::eval::{EvalOptions, Evaluator};
use tesa::exhaustive::{sweep, SweepPoint, SweepResult};
use tesa::{Constraints, Objective};
use tesa_util::hash::fnv1a64;
use tesa_util::Rng;
use tesa_workloads::arvr_suite;

const FREQ_MHZ: u32 = 400;
/// Sweeps the 33 validation sizes are split into. A run sweeps every
/// subset at least once, so its figures cover the whole space whatever
/// the seed draws: with a fresh random subset per sweep, the subsets'
/// cost made runs at different seeds spread by up to 0.25 of the median.
/// The split itself is fixed, because the peak memory is that of the
/// subset that retains the most thermal models.
const SWEEPS: usize = 7;
/// Sweep points re-evaluated serially per sweep for the correctness check.
const CHECKED_POINTS: usize = 8;

pub fn options() -> EvalOptions {
    EvalOptions {
        lazy: true,
        grid_cells: 64,
        ..EvalOptions::default()
    }
}

fn constraints() -> Constraints {
    Constraints::edge_device(15.0, 85.0)
}

/// The validation space split into [`SWEEPS`] subspaces that together
/// hold each array size once, in an order drawn from `rng`. Subspace `j`
/// takes every [`SWEEPS`]-th size from the `j`-th on, so every subspace
/// spans the range.
fn partition(rng: &mut Rng) -> Vec<DesignSpace> {
    let full = DesignSpace::validation();
    let mut dims = vec![Vec::new(); SWEEPS];
    for (i, &d) in full.array_dims.iter().enumerate() {
        dims[i % SWEEPS].push(d);
    }
    rng.shuffle(&mut dims);
    dims.into_iter()
        .map(|array_dims| DesignSpace {
            array_dims,
            ..full.clone()
        })
        .collect()
}

fn run_sweep(ev: &Evaluator, space: &DesignSpace) -> SweepResult {
    sweep(
        ev,
        space,
        Integration::ThreeD,
        FREQ_MHZ,
        &constraints(),
        &Objective::balanced(),
        nproc(),
    )
}

/// `(wall, CPU)` seconds of the first sweep of `seed`'s run, on a fresh
/// evaluator.
pub fn first_call(seed: u64) -> (f64, f64) {
    let space = partition(&mut Rng::seed_from_u64(seed)).swap_remove(0);
    let ev = Evaluator::new(arvr_suite(), options());
    let (cpu0, t0) = (cpu_s(), Instant::now());
    std::hint::black_box(run_sweep(&ev, &space));
    (t0.elapsed().as_secs_f64(), cpu_s() - cpu0)
}

/// Digest of every point's verdict: design, feasibility and objective.
fn digest(points: &[SweepPoint]) -> u64 {
    let mut bytes = Vec::with_capacity(points.len() * 32);
    for p in points {
        let d = p.design;
        for v in [
            u64::from(d.chiplet.array_dim),
            d.chiplet.sram_kib_per_bank,
            u64::from(d.ics_um),
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.push(u8::from(p.feasible));
        bytes.extend_from_slice(&p.objective.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// A seeded sample of points, re-evaluated serially on a fresh evaluator,
/// matches the sweep field for field (bit for bit on floats).
fn points_reproduce(points: &[SweepPoint], rng: &mut Rng) -> bool {
    let ev = Evaluator::new(arvr_suite(), options());
    let (c, obj) = (constraints(), Objective::balanced());
    (0..CHECKED_POINTS).all(|_| {
        let p = &points[rng.gen_range(0..points.len())];
        let e = ev.evaluate(&p.design, &c);
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        let ok = same(e.objective(&obj), p.objective)
            && e.is_feasible() == p.feasible
            && same(e.peak_temp_c, p.peak_temp_c)
            && e.thermal_runaway == p.thermal_runaway
            && same(e.mcm_cost_usd, p.mcm_cost_usd)
            && same(e.dram_power_w, p.dram_power_w)
            && e.mesh.map_or(0, |m| m.count()) == p.chiplets;
        if !ok {
            println!("sweep point {} does not reproduce serially", p.design);
        }
        ok
    })
}

/// Evaluations the sweep's memo holds with `Violation::SolverFailure`.
fn solver_failures(ev: &Evaluator, space: &DesignSpace) -> u64 {
    let c = constraints();
    space
        .designs(Integration::ThreeD, FREQ_MHZ)
        .filter(|d| {
            ev.evaluate_cached(d, &c)
                .violations
                .contains(&Violation::SolverFailure)
        })
        .count() as u64
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return traced(args);
    }
    let mut setup = layers::SetupProbes::new("sweep");
    setup.take()?;
    let mut rng = Rng::seed_from_u64(args.seed);
    let spaces = partition(&mut rng);
    let jiffies = host_jiffies();
    let started = Instant::now();
    let mut suite = Suite::default();
    let (mut sweeps, mut designs, mut failed, mut correct) = (0usize, 0u64, 0u64, true);
    let mut best_objectives = Vec::new();
    for (i, space) in spaces.iter().enumerate().cycle() {
        if sweeps >= SWEEPS && started.elapsed() >= args.seconds {
            break;
        }
        let ev = Evaluator::new(arvr_suite(), options());
        let (cpu0, t0) = (cpu_s(), Instant::now());
        let result = run_sweep(&ev, space);
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), cpu_s() - cpu0);
        sweeps += 1;
        suite.record(i as u64, wall, cpu, result.total() as u64);
        designs += result.total() as u64;
        failed += solver_failures(&ev, space);
        let ok = points_reproduce(&result.points, &mut rng);
        correct &= ok;
        setup.take()?;
        let best = result
            .best
            .as_ref()
            .map_or(f64::NAN, |b| b.objective(&Objective::balanced()));
        best_objectives.push(best);
        println!(
            "sweep arrays={:?} wall_s={wall:.3} cpu_s={cpu:.3} designs={} feasible={} best_objective={best} digest={:016x} reproduces={ok}",
            space.array_dims,
            result.total(),
            result.feasible_count,
            digest(&result.points),
        );
    }
    let (latency_ms, throughput, cpu_ms) = suite.figures();
    let mut out = Outcome {
        correct,
        attempted: designs,
        failed,
        ..Outcome::default()
    };
    println!(
        "sweeps={sweeps} best_objective_median={} error_frac={} nproc={} steal_frac={:.4}",
        median(&best_objectives),
        failed as f64 / designs.max(1) as f64,
        nproc(),
        steal_frac(jiffies, host_jiffies()),
    );
    out.set("latency_mean_ms", latency_ms);
    out.set("throughput_per_s", throughput);
    out.set("cpu_ms_per_op", cpu_ms);
    out.set("peak_rss_mb", peak_rss_mib("self")?);
    out.set("setup_s", setup.median());
    Ok(out)
}

/// The traced run: one untraced sweep for the reference CPU time and the
/// registry counts, then the layer-by-layer replay of its design list.
fn traced(args: &Args) -> Result<Outcome, String> {
    let mut rng = Rng::seed_from_u64(args.seed);
    let space = partition(&mut rng).swap_remove(0);
    let c = constraints();
    let ev = Evaluator::new(arvr_suite(), options());
    let before = Scrape::local();
    let (cpu0, t0) = (cpu_s(), Instant::now());
    let result = run_sweep(&ev, &space);
    let (cpu, wall) = (cpu_s() - cpu0, t0.elapsed().as_secs_f64());
    let reg = Scrape::local().since(&before);
    // The batched path keeps the memo statistics on the evaluator only.
    let (hits, misses) = ev.eval_cache_stats();
    let mut correct = points_reproduce(&result.points, &mut rng);

    // The sweep's own input: its design list, in enumeration order.
    let designs: Vec<McmDesign> = space.designs(Integration::ThreeD, FREQ_MHZ).collect();
    let mut ledger = Ledger::default();
    let replayed = replay::replay(&options(), &designs, &c, true, &mut ledger);
    correct &= replay::matches_program(&replayed.peaks, &ev, &c);

    // The sweep loop itself: re-running it on the filled evaluator costs
    // one memo hit per design plus the sweep's own bookkeeping.
    let hit_us = layers::memo_hit_us(&ev, &designs, &c);
    let (cpu1, w1) = (cpu_s(), Instant::now());
    std::hint::black_box(run_sweep(&ev, &space));
    let (rerun_cpu, rerun_wall) = (cpu_s() - cpu1, w1.elapsed().as_secs_f64());
    let memo_s = designs.len() as f64 * hit_us * 1e-6;
    ledger.add("exhaustive", 1, rerun_cpu - memo_s, rerun_wall - memo_s);

    let exact: Vec<McmDesign> = replayed.peaks.iter().map(|p| p.0).collect();
    let mut out = Outcome {
        correct,
        attempted: result.total() as u64,
        ..Outcome::default()
    };
    out.failed = solver_failures(&ev, &space);
    layers::report_common(
        &mut out,
        &ledger,
        &replayed,
        &reg,
        cpu,
        "untraced sweep CPU",
    );
    layers::probes(&mut out, &ev, &options(), &exact, &c);
    out.set(
        "eval.memo_hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("eval.memo_hit_us", hit_us);
    out.set("anneal.unique", 0.0);
    out.set("anneal.accept_frac", 0.0);
    layers::pool_metrics(&mut out, "sweep", args.seed, wall, cpu)?;
    layers::zero_serve(&mut out);
    println!(
        "sweep arrays={:?} untraced wall_s={wall:.3} cpu_s={cpu:.3}; the traced run recovers the design list without re-running the sweep (overhead 0)",
        space.array_dims
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_follow_the_seed_and_cover_the_space_once() {
        let draw = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            partition(&mut rng)
                .into_iter()
                .map(|s| s.array_dims)
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
        let (mut a, mut b) = (draw(9), draw(10));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "every order covers the same subsets");
        let full = DesignSpace::validation().array_dims;
        assert_eq!(a.len(), SWEEPS);
        let mut all: Vec<u32> = a.concat();
        all.sort_unstable();
        assert_eq!(all, full, "every size exactly once");
        for dims in &a {
            // One size from each stratum of SWEEPS consecutive sizes.
            let strata: Vec<usize> = dims
                .iter()
                .map(|d| full.iter().position(|x| x == d).unwrap() / SWEEPS)
                .collect();
            assert_eq!(strata, (0..strata.len()).collect::<Vec<_>>());
            assert!(dims.len() >= full.len() / SWEEPS);
        }
    }
}
