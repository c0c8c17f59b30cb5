//! Integration tests of the MSA optimizer and exhaustive sweep working
//! over the real evaluation pipeline.

use tesa::anneal::{optimize, optimize_with, MsaConfig};
use tesa::design::{DesignSpace, Integration};
use tesa::eval::{EvalOptions, Evaluator};
use tesa::exhaustive::sweep;
use tesa::{Constraints, Objective};
use tesa_suite::workloads::arvr_suite;

fn evaluator() -> Evaluator {
    Evaluator::new(
        arvr_suite(),
        EvalOptions { grid_cells: 32, lazy: true, ..EvalOptions::default() },
    )
}

fn small_space() -> DesignSpace {
    DesignSpace {
        array_dims: (96..=192).step_by(32).collect(),
        sram_kib_options: vec![256, 512, 1024, 2048],
        ics_um_options: vec![0, 250, 500, 1000],
    }
}

fn quick_msa() -> MsaConfig {
    MsaConfig {
        deltas: vec![0.75, 0.7],
        t_init: 6.0,
        t_final: 0.8,
        moves_per_temp: 6,
        init_attempts: 60,
        seed: 42,
        screening: false,
        ..MsaConfig::default()
    }
}

#[test]
fn msa_matches_exhaustive_on_a_small_space() {
    let e = evaluator();
    let space = small_space();
    let constraints = Constraints::edge_device(15.0, 85.0);
    let objective = Objective::balanced();

    let exhaustive = sweep(&e, &space, Integration::TwoD, 400, &constraints, &objective, 2);
    let global = exhaustive.best.expect("feasible designs exist");
    let msa = optimize(&e, &space, Integration::TwoD, 400, &constraints, &objective, &quick_msa());
    let best = msa.best.expect("MSA finds something feasible");

    // The annealer should land within 10% of the global optimum on this
    // tiny space (it usually hits it exactly).
    let g = global.objective(&objective);
    let m = best.objective(&objective);
    assert!(m <= g * 1.10, "MSA {m:.4} vs global {g:.4}");
}

#[test]
fn msa_never_returns_an_infeasible_design() {
    let e = evaluator();
    let space = small_space();
    for temp in [75.0, 85.0] {
        let constraints = Constraints::edge_device(30.0, temp);
        let out = optimize(
            &e,
            &space,
            Integration::TwoD,
            500,
            &constraints,
            &Objective::balanced(),
            &quick_msa(),
        );
        if let Some(best) = out.best {
            assert!(best.is_feasible(), "violations: {:?}", best.violations);
            assert!(best.peak_temp_c <= temp);
        }
    }
}

#[test]
fn custom_score_drives_the_search() {
    // Minimizing temperature must pick a cooler design than minimizing
    // cost picks (or at worst the same one).
    let e = evaluator();
    let space = small_space();
    let constraints = Constraints::edge_device(15.0, 85.0);
    let coolest = optimize_with(
        &e,
        &space,
        Integration::TwoD,
        400,
        &constraints,
        |ev| ev.peak_temp_c,
        &quick_msa(),
    );
    let cheapest = optimize_with(
        &e,
        &space,
        Integration::TwoD,
        400,
        &constraints,
        |ev| ev.mcm_cost_usd,
        &quick_msa(),
    );
    let (c, k) = (coolest.best.expect("cool"), cheapest.best.expect("cheap"));
    assert!(c.peak_temp_c <= k.peak_temp_c + 1e-9);
    assert!(k.mcm_cost_usd <= c.mcm_cost_usd + 1e-9);
}

#[test]
fn optimize_with_is_unchanged_by_screening() {
    // The screen must be invisible through the custom-score entry
    // point too: same best design, same acceptance count, and never more
    // full evaluations. A tight budget keeps clearly infeasible designs
    // in the space so the screen actually fires.
    let space = small_space();
    let constraints = Constraints::edge_device(30.0, 76.0);
    let run = |screening: bool| {
        optimize_with(
            &evaluator(),
            &space,
            Integration::TwoD,
            400,
            &constraints,
            |ev| ev.mcm_cost_usd + ev.peak_temp_c,
            &MsaConfig { screening, ..quick_msa() },
        )
    };
    let base = run(false);
    let fast = run(true);
    assert_eq!(
        base.best.as_ref().map(|e| e.design),
        fast.best.as_ref().map(|e| e.design),
        "screening changed the best design"
    );
    if let (Some(b), Some(f)) = (&base.best, &fast.best) {
        assert_eq!(b.peak_temp_c, f.peak_temp_c, "reported fields come from exact solves");
        assert_eq!(b.mcm_cost_usd, f.mcm_cost_usd);
    }
    assert_eq!(base.accepted_moves, fast.accepted_moves);
    assert_eq!(base.unique_designs, fast.unique_designs);
    assert!(fast.evaluations <= base.evaluations);
}

#[test]
fn tighter_thermal_budget_never_improves_the_objective() {
    // Exact only for exhaustive search (the 75 C-feasible set is a subset
    // of the 85 C one); the stochastic annealer can land on either side.
    let e = evaluator();
    let space = small_space();
    let objective = Objective::balanced();
    let at85 = sweep(
        &e,
        &space,
        Integration::TwoD,
        400,
        &Constraints::edge_device(15.0, 85.0),
        &objective,
        2,
    );
    let at75 = sweep(
        &e,
        &space,
        Integration::TwoD,
        400,
        &Constraints::edge_device(15.0, 75.0),
        &objective,
        2,
    );
    if let (Some(a), Some(b)) = (at85.best, at75.best) {
        assert!(
            b.objective(&objective) >= a.objective(&objective) - 1e-12,
            "75C {} cannot beat 85C {}",
            b.objective(&objective),
            a.objective(&objective)
        );
        assert!(at75.feasible_count <= at85.feasible_count);
    }
}

#[test]
fn exhaustive_counts_are_stable_across_thread_counts() {
    let e = evaluator();
    let space = DesignSpace {
        array_dims: vec![128, 160],
        sram_kib_options: vec![512, 1024],
        ics_um_options: vec![0, 500],
    };
    let constraints = Constraints::edge_device(15.0, 85.0);
    let objective = Objective::balanced();
    let a = sweep(&e, &space, Integration::ThreeD, 400, &constraints, &objective, 1);
    let b = sweep(&e, &space, Integration::ThreeD, 400, &constraints, &objective, 3);
    assert_eq!(a.feasible_count, b.feasible_count);
    assert_eq!(a.points.len(), b.points.len());
    for (x, y) in a.points.iter().zip(b.points.iter()) {
        assert_eq!(x.design, y.design);
        assert_eq!(x.feasible, y.feasible);
    }
}
