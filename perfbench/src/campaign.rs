//! `campaign`: one Table V row, run the way `tesa optimize` runs it — a
//! fresh lazy evaluator at 64 cells, the Table II space, 2D at 400 MHz,
//! 30 fps / 75 °C, the balanced Eq. (6) objective, and the paper's three
//! annealing starts with one move per temperature step.
//!
//! It exercises the leakage co-iteration on the 64-cell multigrid path and
//! the evaluation memo; the serving stack, the batched solve and the
//! surrogate do no work.

use crate::ledger::Ledger;
use crate::prom::Scrape;
use crate::replay;
use crate::stats::{median, Suite};
use crate::sys::{cpu_s, host_jiffies, nproc, peak_rss_mib, steal_frac, work_dir};
use crate::{layers, Args, Outcome};
use std::time::Instant;
use tesa::anneal::{optimize, optimize_checkpointed, AnnealOutcome, CheckpointPolicy, MsaConfig};
use tesa::checkpoint::{CampaignState, StartState};
use tesa::constraints::Violation;
use tesa::design::{DesignSpace, Integration, McmDesign};
use tesa::eval::{EvalOptions, Evaluator};
use tesa::{Constraints, Objective};
use tesa_util::Rng;
use tesa_workloads::arvr_suite;

const FREQ_MHZ: u32 = 400;

pub fn options() -> EvalOptions {
    EvalOptions {
        lazy: true,
        grid_cells: 64,
        ..EvalOptions::default()
    }
}

fn constraints() -> Constraints {
    Constraints::edge_device(30.0, 75.0)
}

fn config(msa_seed: u64) -> MsaConfig {
    MsaConfig {
        moves_per_temp: 1,
        seed: msa_seed,
        screening: false,
        speculation: 0,
        ..MsaConfig::default()
    }
}

/// Campaigns in the suite. A campaign's cost varies by ±25 % with the MSA
/// seed, so runs drawing fresh MSA seeds spread by 0.2 of their median
/// across workload seeds; runs over one fixed suite by far less. One
/// campaign takes about 2.3 s on two cores, so a 30 s run covers the
/// suite about three times.
const SUITE: usize = 4;

/// MSA seeds of the run's campaigns: the suite (`MsaConfig`'s default
/// seed, then every third seed, so no two campaigns share a start's
/// stream) in an order drawn from the workload seed, repeated.
fn msa_seeds(seed: u64) -> impl Iterator<Item = u64> {
    let mut order: Vec<u64> = (0..SUITE as u64).collect();
    Rng::seed_from_u64(seed).shuffle(&mut order);
    let base = MsaConfig::default().seed;
    order.into_iter().cycle().map(move |j| base + 3 * j)
}

fn campaign(ev: &Evaluator, cfg: &MsaConfig) -> AnnealOutcome {
    optimize(
        ev,
        &DesignSpace::tesa_default(),
        Integration::TwoD,
        FREQ_MHZ,
        &constraints(),
        &Objective::balanced(),
        cfg,
    )
}

/// `(wall, CPU)` seconds of the first campaign of `seed`'s run, on a fresh
/// evaluator.
pub fn first_call(seed: u64) -> (f64, f64) {
    let msa_seed = msa_seeds(seed).next().expect("infinite seed stream");
    let ev = Evaluator::new(arvr_suite(), options());
    let (cpu0, t0) = (cpu_s(), Instant::now());
    std::hint::black_box(campaign(&ev, &config(msa_seed)));
    (t0.elapsed().as_secs_f64(), cpu_s() - cpu0)
}

/// CPU seconds of the campaign of `msa_seed` with its starts run one
/// after another on one fresh evaluator (start `i` alone is the campaign
/// with `deltas[i]` and seed `msa_seed + i`), and its total lookups. It
/// does the parallel campaign's evaluations without running starts at the
/// same time.
fn serial_starts(msa_seed: u64) -> (f64, usize) {
    let ev = Evaluator::new(arvr_suite(), options());
    let all = config(msa_seed);
    let cpu0 = cpu_s();
    let lookups = all
        .deltas
        .iter()
        .enumerate()
        .map(|(i, &delta)| {
            let alone = MsaConfig {
                deltas: vec![delta],
                seed: msa_seed + i as u64,
                ..all.clone()
            };
            campaign(&ev, &alone).evaluations
        })
        .sum();
    (cpu_s() - cpu0, lookups)
}

/// A fresh `Evaluator::evaluate` of the campaign's best design reproduces
/// its objective, feasibility and peak temperature bit for bit.
fn best_reproduces(outcome: &AnnealOutcome) -> bool {
    let Some(best) = &outcome.best else {
        return false;
    };
    let again = Evaluator::new(arvr_suite(), options()).evaluate(&best.design, &constraints());
    let obj = Objective::balanced();
    again.objective(&obj).to_bits() == best.objective(&obj).to_bits()
        && again.is_feasible()
        && best.is_feasible()
        && again.peak_temp_c.to_bits() == best.peak_temp_c.to_bits()
}

/// The campaign of `msa_seed` on `ev`, run through `optimize_checkpointed`
/// so that its final checkpoint lists the designs each start looked up,
/// in order (screening is off, so every visited design is a lookup).
fn checkpointed(
    ev: &Evaluator,
    msa_seed: u64,
) -> Result<(AnnealOutcome, Vec<Vec<McmDesign>>), String> {
    let dir = work_dir("campaign")?;
    let policy = CheckpointPolicy {
        path: dir.join("campaign.ckpt"),
        every: 1_000_000,
    };
    let outcome = optimize_checkpointed(
        ev,
        &DesignSpace::tesa_default(),
        Integration::TwoD,
        FREQ_MHZ,
        &constraints(),
        &Objective::balanced(),
        &config(msa_seed),
        Some(&policy),
        None,
        None,
    )
    .map_err(|e| format!("checkpointed campaign: {e}"))?;
    let state = CampaignState::load(&policy.path).map_err(|e| format!("checkpoint: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    let per_start = state
        .starts
        .iter()
        .map(|s| match s {
            StartState::Done(snap) | StartState::Running(snap) => snap.visited.clone(),
            StartState::Pending => Vec::new(),
        })
        .collect();
    Ok((outcome, per_start))
}

/// `again` is `outcome`'s campaign: the same best design and lookup count,
/// and one listed lookup per evaluation.
fn same_campaign(
    again: &AnnealOutcome,
    outcome: &AnnealOutcome,
    per_start: &[Vec<McmDesign>],
) -> bool {
    again.evaluations == outcome.evaluations
        && per_start.iter().map(Vec::len).sum::<usize>() == outcome.evaluations
        && again.best.as_ref().map(|b| b.design) == outcome.best.as_ref().map(|b| b.design)
}

/// Lookups whose evaluation reports `Violation::SolverFailure`, read from
/// `ev`'s memo (which holds every one of them).
fn solver_failures(ev: &Evaluator, lookups: &[McmDesign]) -> u64 {
    let c = constraints();
    lookups
        .iter()
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
    let mut setup = layers::SetupProbes::new("campaign");
    setup.take()?;
    let jiffies = host_jiffies();
    let started = Instant::now();
    // Every run covers the whole suite at least once.
    let mut suite = Suite::default();
    let (mut campaigns, mut lookups, mut failed, mut correct) = (0usize, 0u64, 0u64, true);
    let mut best_objectives = Vec::new();
    for msa_seed in msa_seeds(args.seed) {
        if campaigns >= SUITE && started.elapsed() >= args.seconds {
            break;
        }
        let ev = Evaluator::new(arvr_suite(), options());
        let (cpu0, t0) = (cpu_s(), Instant::now());
        let outcome = campaign(&ev, &config(msa_seed));
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), cpu_s() - cpu0);
        campaigns += 1;
        suite.record(msa_seed, wall, cpu, outcome.evaluations as u64);
        lookups += outcome.evaluations as u64;
        // The same campaign again on the evaluator it filled: every lookup
        // is a memo hit, and its checkpoint lists them.
        let (again, per_start) = checkpointed(&ev, msa_seed)?;
        failed += solver_failures(&ev, &per_start.concat());
        let ok = best_reproduces(&outcome) && same_campaign(&again, &outcome, &per_start);
        correct &= ok;
        setup.take()?;
        let best = outcome
            .best
            .as_ref()
            .map_or(f64::NAN, |b| b.objective(&Objective::balanced()));
        best_objectives.push(best);
        println!(
            "campaign msa_seed={msa_seed:#018x} wall_s={wall:.3} cpu_s={cpu:.3} evaluations={} unique={} best_objective={best} best={} reproduces={ok}",
            outcome.evaluations,
            outcome.unique_designs,
            outcome.best.as_ref().map_or("none".into(), |b| b.design.to_string()),
        );
    }
    let (latency_ms, throughput, cpu_ms) = suite.figures();
    let mut out = Outcome {
        correct,
        attempted: lookups,
        failed,
        ..Outcome::default()
    };
    println!(
        "campaigns={campaigns} best_objective_median={} error_frac={} nproc={} steal_frac={:.4}",
        median(&best_objectives),
        failed as f64 / lookups.max(1) as f64,
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

/// The traced run: one untraced campaign for the reference CPU time and
/// the registry counts, the same campaign checkpointed on a fresh
/// evaluator to recover its visited designs, its starts run one at a time
/// for their contention, then the layer-by-layer replay of those designs,
/// and the same campaign once more on a pool with a lane per core.
fn traced(args: &Args) -> Result<Outcome, String> {
    let msa_seed = msa_seeds(args.seed).next().expect("infinite seed stream");
    let c = constraints();
    let ev = Evaluator::new(arvr_suite(), options());
    let before = Scrape::local();
    let (cpu0, t0) = (cpu_s(), Instant::now());
    let outcome = campaign(&ev, &config(msa_seed));
    let (cpu, wall) = (cpu_s() - cpu0, t0.elapsed().as_secs_f64());
    let reg = Scrape::local().since(&before);
    let (hits, misses) = ev.eval_cache_stats();
    let mut correct = best_reproduces(&outcome);

    // The starts run in parallel threads that share the evaluator; the CPU
    // the campaign spends beyond the same starts run one at a time is their
    // contention. Identical campaigns' CPU differs by ~10 % and the host's
    // speed drifts over seconds, so parallel and serial runs alternate and
    // each side is the mean of two.
    let (serial_a, lookups_a) = serial_starts(msa_seed);
    let (cpu_ck0, t1) = (cpu_s(), Instant::now());
    let (again, per_start) = checkpointed(&Evaluator::new(arvr_suite(), options()), msa_seed)?;
    let (ckpt_cpu, ckpt_wall) = (cpu_s() - cpu_ck0, t1.elapsed().as_secs_f64());
    let (serial_b, lookups_b) = serial_starts(msa_seed);
    correct &= lookups_a == outcome.evaluations && lookups_b == outcome.evaluations;
    let reference = (cpu + ckpt_cpu) / 2.0;
    correct &= same_campaign(&again, &outcome, &per_start);
    let visited: Vec<McmDesign> = per_start.concat();
    let designs = replay::distinct(&visited);
    correct &= designs.len() == outcome.unique_designs;

    let mut ledger = Ledger::default();
    let replayed = replay::replay(&options(), &designs, &c, false, &mut ledger);
    correct &= replay::matches_program(&replayed.peaks, &ev, &c);
    ledger.add(
        "starts.contention",
        per_start.len() as u64,
        reference - (serial_a + serial_b) / 2.0,
        0.0,
    );

    // Memo probes and the annealer: re-running the campaign on the filled
    // evaluator times the annealer plus one memo hit per lookup.
    let hit_us = layers::memo_hit_us(&ev, &visited, &c);
    let (cpu1, w1) = (cpu_s(), Instant::now());
    let rerun = campaign(&ev, &config(msa_seed));
    let (rerun_cpu, rerun_wall) = (cpu_s() - cpu1, w1.elapsed().as_secs_f64());
    correct &= rerun.best.as_ref().map(|b| b.design) == outcome.best.as_ref().map(|b| b.design);
    let lookups = visited.len() as f64;
    let memo_s = lookups * hit_us * 1e-6;
    ledger.add("eval.memo", visited.len() as u64, memo_s, memo_s);
    ledger.add(
        "anneal",
        rerun.evaluations as u64,
        rerun_cpu - memo_s,
        rerun_wall - memo_s,
    );

    let thermal: Vec<McmDesign> = replayed.peaks.iter().map(|p| p.0).collect();
    let mut out = Outcome {
        correct,
        attempted: outcome.evaluations as u64,
        failed: solver_failures(&ev, &visited),
        ..Outcome::default()
    };
    layers::report_common(
        &mut out,
        &ledger,
        &replayed,
        &reg,
        reference,
        "mean CPU of the untraced and checkpointed campaigns",
    );
    layers::probes(&mut out, &ev, &options(), &thermal, &c);
    out.set(
        "eval.memo_hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("eval.memo_hit_us", hit_us);
    out.set("anneal.unique", outcome.unique_designs as f64);
    let moves = reg.get("tesa_msa_moves_total");
    out.set(
        "anneal.accept_frac",
        reg.get("tesa_msa_accepted_moves_total") / moves.max(1.0),
    );
    layers::pool_metrics(&mut out, "campaign", args.seed, wall, cpu)?;
    layers::zero_serve(&mut out);
    println!(
        "campaign msa_seed={msa_seed:#018x} untraced wall_s={wall:.3} cpu_s={cpu:.3}; checkpointed (traced) wall_s={ckpt_wall:.3} overhead={:+.1}%",
        100.0 * (ckpt_wall - wall) / wall
    );
    println!(
        "anneal self_ms={:.1} (rerun on the filled memo: {rerun_cpu:.3} s CPU for {} lookups)",
        (rerun_cpu - memo_s) * 1e3,
        visited.len()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_seeds_follow_the_workload_seed() {
        let a: Vec<u64> = msa_seeds(4).take(SUITE).collect();
        assert_eq!(a, msa_seeds(4).take(SUITE).collect::<Vec<_>>());
        let b: Vec<u64> = msa_seeds(5).take(SUITE).collect();
        assert_ne!(a, b);
        let (mut sa, mut sb) = (a.clone(), b);
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb, "every order covers the same suite");
        assert!(
            sa.windows(2).all(|w| w[1] - w[0] == 3),
            "starts never share a stream"
        );
        assert_eq!(config(a[0]).deltas, vec![0.89, 0.87, 0.85]);
    }
}
