//! Benchmarks of the steady-state thermal solver — the paper reports ~6 s
//! (2D) and ~16 s (3D) per HotSpot steady-state run; this measures our
//! finite-volume CG equivalent across grid resolutions and stack depths.
//!
//! Run with `cargo bench --bench bench_thermal [-- --bench-filter <substr>]`.

use tesa_thermal::{Rect, StackBuilder, ThermalModel};
use tesa_util::bench::BenchRunner;

fn model_2d(n: usize) -> ThermalModel {
    let chips: Vec<(Rect, f64)> = (0..4)
        .map(|i| {
            let x = 1.0e-3 + f64::from(i % 2) * 3.4e-3;
            let y = 1.0e-3 + f64::from(i / 2) * 3.4e-3;
            (Rect::new(x, y, 2.4e-3, 2.4e-3), 120.0)
        })
        .collect();
    StackBuilder::new(8e-3, 8e-3, n, n)
        .layer("interposer", 100e-6, 120.0)
        .layer_with_patches("device", 150e-6, 0.9, chips)
        .layer("tim", 65e-6, 1.2)
        .layer("lid", 300e-6, 200.0)
        .convection(0.4, 45.0)
        .build()
}

fn model_3d(n: usize) -> ThermalModel {
    let chips: Vec<(Rect, f64)> = (0..6)
        .map(|i| {
            let x = 0.8e-3 + f64::from(i % 3) * 2.5e-3;
            let y = 1.2e-3 + f64::from(i / 3) * 3.0e-3;
            (Rect::new(x, y, 1.8e-3, 1.8e-3), 120.0)
        })
        .collect();
    StackBuilder::new(8e-3, 8e-3, n, n)
        .layer("interposer", 100e-6, 120.0)
        .layer_with_patches("sram_tier", 150e-6, 0.9, chips.clone())
        .layer("bond", 20e-6, 1.2)
        .layer_with_patches("array_tier", 150e-6, 0.9, chips)
        .layer("tim", 65e-6, 1.2)
        .layer("lid", 300e-6, 200.0)
        .convection(0.4, 45.0)
        .build()
}

fn main() {
    let mut runner = BenchRunner::from_env_args();

    for n in [32usize, 64] {
        let m2 = model_2d(n);
        let mut p2 = m2.zero_power();
        p2.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 2.0);
        p2.add_uniform_rect(1, Rect::new(4.4e-3, 4.4e-3, 2.4e-3, 2.4e-3), 2.0);
        runner.bench(&format!("thermal/solve/2d_4layer/{n}"), || m2.solve(&p2));

        let m3 = model_3d(n);
        let mut p3 = m3.zero_power();
        p3.add_uniform_rect(3, Rect::new(0.8e-3, 1.2e-3, 1.8e-3, 1.8e-3), 1.5);
        p3.add_uniform_rect(1, Rect::new(0.8e-3, 1.2e-3, 1.8e-3, 1.8e-3), 0.5);
        runner.bench(&format!("thermal/solve/3d_6layer/{n}"), || m3.solve(&p3));
    }

    // Thread-count variants at the production solve size: `threadsK`
    // pins the model to K pool lanes (`set_parallel_lanes`) regardless
    // of `TESA_THREADS`, so one artifact carries its own serial baseline
    // and scaling curve. ci.sh's speedup gate compares `threads1`
    // against the default-lanes benchmark above on multi-core runners.
    for k in [1usize, 2, 4] {
        let mut m2 = model_2d(64);
        m2.set_parallel_lanes(k);
        let mut p2 = m2.zero_power();
        p2.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 2.0);
        p2.add_uniform_rect(1, Rect::new(4.4e-3, 4.4e-3, 2.4e-3, 2.4e-3), 2.0);
        runner.bench(&format!("thermal/solve/2d_4layer/64/threads{k}"), || m2.solve(&p2));

        let mut m3 = model_3d(64);
        m3.set_parallel_lanes(k);
        let mut p3 = m3.zero_power();
        p3.add_uniform_rect(3, Rect::new(0.8e-3, 1.2e-3, 1.8e-3, 1.8e-3), 1.5);
        p3.add_uniform_rect(1, Rect::new(0.8e-3, 1.2e-3, 1.8e-3, 1.8e-3), 0.5);
        runner.bench(&format!("thermal/solve/3d_6layer/64/threads{k}"), || m3.solve(&p3));
    }

    // Multi-RHS batching at the production solve size: eight independent
    // power maps on one model, solved either one at a time (`batch1_x8`,
    // the serial baseline), as two lockstep batches of four (`batch4_x2`),
    // or as one lockstep batch of eight (`batch8`). All three rows do the
    // same total work — eight steady-state solves — so their medians are
    // directly comparable, and ci.sh gates batch8 against batch1_x8 on
    // multi-core runners. Per-map wattage varies so the systems converge
    // at different iterations, exercising lane retirement.
    {
        let m = model_2d(64);
        let maps: Vec<_> = (0..8)
            .map(|i| {
                let mut p = m.zero_power();
                let w = 1.6 + 0.1 * f64::from(i);
                p.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), w);
                p.add_uniform_rect(1, Rect::new(4.4e-3, 4.4e-3, 2.4e-3, 2.4e-3), 2.0);
                p
            })
            .collect();
        let refs: Vec<&_> = maps.iter().collect();
        runner.bench("thermal/batch/2d_4layer/64/batch1_x8", || {
            maps.iter().map(|p| m.solve(p)).collect::<Vec<_>>()
        });
        runner.bench("thermal/batch/2d_4layer/64/batch4_x2", || {
            (m.solve_batch(&refs[..4]), m.solve_batch(&refs[4..]))
        });
        runner.bench("thermal/batch/2d_4layer/64/batch8", || m.solve_batch(&refs));
    }

    // The width the validation sweep runs: its lockstep groups are 3D
    // stacks of about four designs. Informational rows, no gate: four
    // single solves (`batch1_x4`) against one batch of four (`batch4`).
    {
        let m = model_3d(64);
        let maps: Vec<_> = (0..4)
            .map(|i| {
                let mut p = m.zero_power();
                let w = 1.3 + 0.1 * f64::from(i);
                p.add_uniform_rect(3, Rect::new(0.8e-3, 1.2e-3, 1.8e-3, 1.8e-3), w);
                p.add_uniform_rect(1, Rect::new(0.8e-3, 1.2e-3, 1.8e-3, 1.8e-3), 0.5);
                p
            })
            .collect();
        let refs: Vec<&_> = maps.iter().collect();
        runner.bench("thermal/batch/3d_6layer/64/batch1_x4", || {
            maps.iter().map(|p| m.solve(p)).collect::<Vec<_>>()
        });
        runner.bench("thermal/batch/3d_6layer/64/batch4", || m.solve_batch(&refs));
    }

    let m = model_2d(64);
    let mut p = m.zero_power();
    p.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 2.0);
    let cold = m.solve(&p).into_inner();
    // Perturb the power slightly — the leakage-iteration access pattern.
    let mut p2 = m.zero_power();
    p2.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 2.1);
    runner.bench("thermal/warm_start/perturbed_solve", || m.solve_with_guess(&p2, &cold));

    runner.report();
}
