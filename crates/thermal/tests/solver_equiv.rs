//! Solver-equivalence suite: the multigrid-preconditioned CG and the
//! Jacobi-preconditioned CG solve the same SPD system to the same
//! tolerance, so on any stack the two temperature fields must agree to
//! well under the leakage-loop convergence threshold (0.1 K). This suite
//! is also the only one that pins multigrid bits: FNV-1a digests of the
//! single-system fields on 32- and 64-cell squares and of forced-multigrid
//! solves on odd and non-square grids. `tests/golden.rs` at the workspace
//! root pins end-to-end peak temperatures to 1e-9 relative, at 32 cells,
//! where `Auto` picks the Jacobi path.

use tesa_thermal::{Preconditioner, Rect, StackBuilder, ThermalField, ThermalModel};
use tesa_util::propcheck::{check, ranged, vec_of, Config};
use tesa_util::prop_assert;

const AMBIENT: f64 = 45.0;
/// Agreement bound between the two preconditioner paths, Kelvin.
const EQUIV_TOL_K: f64 = 1e-6;

/// A randomized 2.5D-style stack: interposer, patched device layer, TIM,
/// lid — with conductivities, thicknesses, and grid drawn by propcheck.
fn random_stack(
    nx: usize,
    ny: usize,
    device_k: f64,
    tim_k: f64,
    patches: &[(f64, f64, f64)],
    precond: Preconditioner,
) -> ThermalModel {
    let side = 8e-3;
    let patch_rects: Vec<(Rect, f64)> = patches
        .iter()
        .filter_map(|&(x, y, k)| {
            let r = Rect::new(x, y, 1.5e-3, 1.5e-3);
            (r.x2() <= side && r.y2() <= side).then_some((r, k))
        })
        .collect();
    StackBuilder::new(side, side, nx, ny)
        .preconditioner(precond)
        .layer("interposer", 100e-6, 120.0)
        .layer_with_patches("device", 150e-6, device_k, patch_rects)
        .layer("tim", 65e-6, tim_k)
        .layer("lid", 300e-6, 200.0)
        .convection(0.4, AMBIENT)
        .build()
}

fn max_abs_diff(a: &ThermalField, b: &ThermalField) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn multigrid_matches_jacobi_on_random_stacks() {
    let _guard = trace_lock();
    check(
        Config::with_cases(12),
        (
            ranged(12usize..48),
            ranged(12usize..48),
            ranged(0.8f64..150.0),
            ranged(0.8f64..5.0),
            vec_of(
                (ranged(0.0f64..6.0e-3), ranged(0.0f64..6.0e-3), ranged(10.0f64..150.0)),
                0..4,
            ),
            vec_of(
                (
                    ranged(0.0f64..6.5e-3),
                    ranged(0.0f64..6.5e-3),
                    ranged(0.2f64..4.0),
                ),
                1..5,
            ),
        ),
        |(nx, ny, device_k, tim_k, patches, sources)| {
            let mj = random_stack(nx, ny, device_k, tim_k, &patches, Preconditioner::Jacobi);
            let mm = random_stack(nx, ny, device_k, tim_k, &patches, Preconditioner::Multigrid);
            prop_assert!(mj.preconditioner() == Preconditioner::Jacobi);
            prop_assert!(mm.preconditioner() == Preconditioner::Multigrid);

            let mut pj = mj.zero_power();
            let mut pm = mm.zero_power();
            for &(x, y, watts) in &sources {
                let rect = Rect::new(x, y, 1.0e-3, 1.0e-3);
                if rect.x2() <= 8e-3 && rect.y2() <= 8e-3 {
                    pj.add_uniform_rect(1, rect, watts);
                    pm.add_uniform_rect(1, rect, watts);
                }
            }

            let fj = mj.solve(&pj);
            let fm = mm.solve(&pm);
            let diff = max_abs_diff(&fj, &fm);
            prop_assert!(
                diff < EQUIV_TOL_K,
                "fields disagree by {diff:e} K on {nx}x{ny} grid"
            );
            Ok(())
        },
    );
}

#[test]
fn multigrid_matches_jacobi_with_warm_start() {
    let _guard = trace_lock();
    // Warm-started re-solves (the leakage co-iteration pattern) must also
    // agree: warm starts change the CG trajectory, not the fixed point.
    let patches = [(2.0e-3, 2.0e-3, 120.0)];
    let mj = random_stack(40, 40, 120.0, 1.2, &patches, Preconditioner::Jacobi);
    let mm = random_stack(40, 40, 120.0, 1.2, &patches, Preconditioner::Multigrid);

    let mut p = mj.zero_power();
    p.add_uniform_rect(1, Rect::new(2.0e-3, 2.0e-3, 1.5e-3, 1.5e-3), 3.0);
    let fj = mj.solve(&p);
    let fm = mm.solve(&p);

    // Re-solve at higher power from the previous field.
    let mut p2 = mj.zero_power();
    p2.add_uniform_rect(1, Rect::new(2.0e-3, 2.0e-3, 1.5e-3, 1.5e-3), 4.5);
    let fj2 = mj.solve_with_guess(&p2, fj.as_slice());
    let fm2 = mm.solve_with_guess(&p2, fm.as_slice());

    let diff = max_abs_diff(&fj2, &fm2);
    assert!(diff < EQUIV_TOL_K, "warm-started fields disagree by {diff:e} K");
}

#[test]
fn auto_preconditioner_matches_forced_choices() {
    let _guard = trace_lock();
    // Whatever Auto resolves to, the produced field must agree with both
    // forced paths — selection is a performance decision, not a numerical
    // one.
    for n in [16usize, 64] {
        let patches = [(1.0e-3, 4.0e-3, 140.0)];
        let ma = random_stack(n, n, 110.0, 1.5, &patches, Preconditioner::Auto);
        let mj = random_stack(n, n, 110.0, 1.5, &patches, Preconditioner::Jacobi);
        let mm = random_stack(n, n, 110.0, 1.5, &patches, Preconditioner::Multigrid);
        assert!(ma.preconditioner() != Preconditioner::Auto, "Auto must resolve");

        let mut p = ma.zero_power();
        p.add_uniform_rect(1, Rect::new(3.0e-3, 1.0e-3, 2.0e-3, 2.0e-3), 2.0);
        let fa = ma.solve(&p);
        let fj = mj.solve(&p);
        let fm = mm.solve(&p);
        assert!(max_abs_diff(&fa, &fj) < EQUIV_TOL_K, "auto vs jacobi at {n}");
        assert!(max_abs_diff(&fa, &fm) < EQUIV_TOL_K, "auto vs multigrid at {n}");
    }
}

// --- Pinned bits of the single-system solve path -------------------------
//
// Every public single-system entry point (`solve`, `solve_with_guess`,
// `solve_recoverable`'s Jacobi rung, `Surrogate::solve`, `transient_step`)
// is pinned by an FNV-1a-64 digest of its output's exact bit patterns plus
// the CG iteration counts its `thermal.cg` / `thermal.transient_cg` trace
// events report. The power maps are built directly (no leakage model, no
// `exp`), so the digests depend only on IEEE `+ - * / sqrt` and hold on any
// platform. Batched solves are pinned against these through the
// batched-equals-single suites (`batch_equiv.rs` and the unit tests).

/// The trace sink is process-global: the digest test captures it, so
/// every test of this binary serializes through this lock.
static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with an in-memory trace session; returns its result plus the
/// `iters` field of every `thermal.cg` and `thermal.transient_cg` event.
fn with_cg_iters<T>(f: impl FnOnce() -> T) -> (T, Vec<u64>) {
    use tesa_util::json::{self, Json};
    let buf = tesa_util::trace::SharedBuf::default();
    let session = tesa_util::trace::init_writer(Box::new(buf.clone()));
    let out = f();
    drop(session);
    let iters = buf
        .contents()
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|j| {
            matches!(
                j.get("name").and_then(Json::as_str),
                Some("thermal.cg" | "thermal.transient_cg")
            )
        })
        .filter_map(|j| j.get("f").and_then(|f| f.get("iters")).and_then(Json::as_u64))
        .collect();
    (out, iters)
}

/// FNV-1a-64 over the little-endian bit patterns of `values`.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let bytes: Vec<u8> = values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    tesa_util::hash::fnv1a64(&bytes)
}

/// Four-chiplet 2.5D stack: interposer, device, TIM, lid.
fn pinned_2d(cells: usize) -> ThermalModel {
    pinned_2d_grid(cells, cells, Preconditioner::Auto)
}

/// [`pinned_2d`] on an `nx x ny` grid with the given preconditioner.
fn pinned_2d_grid(nx: usize, ny: usize, precond: Preconditioner) -> ThermalModel {
    let chips: Vec<(Rect, f64)> = (0..4)
        .map(|i| {
            let x = 1.0e-3 + f64::from(i % 2) * 3.4e-3;
            let y = 1.0e-3 + f64::from(i / 2) * 3.4e-3;
            (Rect::new(x, y, 2.4e-3, 2.4e-3), 120.0)
        })
        .collect();
    StackBuilder::new(8e-3, 8e-3, nx, ny)
        .preconditioner(precond)
        .layer("interposer", 100e-6, 120.0)
        .layer_with_patches("device", 150e-6, 0.9, chips)
        .layer("tim", 65e-6, 1.2)
        .layer("lid", 300e-6, 200.0)
        .convection(0.4, AMBIENT)
        .build()
}

/// Six-chiplet 3D stack: SRAM tier, bond, array tier under TIM and lid.
fn pinned_3d(cells: usize) -> ThermalModel {
    pinned_3d_grid(cells, cells, Preconditioner::Auto)
}

/// [`pinned_3d`] on an `nx x ny` grid with the given preconditioner.
fn pinned_3d_grid(nx: usize, ny: usize, precond: Preconditioner) -> ThermalModel {
    let chips: Vec<(Rect, f64)> = (0..6)
        .map(|i| {
            let x = 0.8e-3 + f64::from(i % 3) * 2.5e-3;
            let y = 1.2e-3 + f64::from(i / 3) * 3.0e-3;
            (Rect::new(x, y, 1.8e-3, 1.8e-3), 120.0)
        })
        .collect();
    StackBuilder::new(8e-3, 8e-3, nx, ny)
        .preconditioner(precond)
        .layer("interposer", 100e-6, 120.0)
        .layer_with_patches("sram_tier", 150e-6, 0.9, chips.clone())
        .layer("bond", 20e-6, 1.2)
        .layer_with_patches("array_tier", 150e-6, 0.9, chips)
        .layer("tim", 65e-6, 1.2)
        .layer("lid", 300e-6, 200.0)
        .convection(0.4, AMBIENT)
        .build()
}

/// An uneven power map on the device layers of `m`, scaled by `scale`.
fn pinned_power(m: &ThermalModel, scale: f64) -> tesa_thermal::PowerMap {
    let mut p = m.zero_power();
    let device_layers: &[usize] = if m.num_layers() == 4 { &[1] } else { &[1, 3] };
    for (j, &layer) in device_layers.iter().enumerate() {
        let w = 1.0 + 0.5 * j as f64;
        p.add_uniform_rect(layer, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 2.5 * w * scale);
        p.add_uniform_rect(layer, Rect::new(4.4e-3, 1.3e-3, 1.7e-3, 2.9e-3), 1.25 * w * scale);
        p.add_uniform_rect(layer, Rect::new(3.1e-3, 4.7e-3, 3.3e-3, 1.9e-3), 0.6 * w * scale);
    }
    p
}

/// Digest of the surrogate's coarse field for `p` on an `nx x ny` model
/// (read back cell by cell through one-cell region means), its per-layer
/// estimates and bound.
fn surrogate_digest(m: &ThermalModel, p: &tesa_thermal::PowerMap, nx: usize, ny: usize) -> u64 {
    let sur = m.surrogate();
    let est = sur.solve(p);
    let scale = 1usize << sur.field_level();
    let mut bits = Vec::new();
    for l in 0..m.num_layers() {
        bits.push(est.layer_peak_c(l));
        for cy in 0..ny.div_ceil(scale) {
            for cx in 0..nx.div_ceil(scale) {
                let (x0, y0) = (cx * scale, cy * scale);
                bits.push(est.region_mean_c(l, x0, x0 + 1, y0, y0 + 1));
            }
        }
    }
    bits.push(est.bound_c());
    digest(bits)
}

/// One pinned case: its name and the run giving `(digest, CG iterations)`.
type Case<'a> = (String, Box<dyn Fn() -> (u64, Vec<u64>) + 'a>);

/// Runs `cases` first to last, or last to first when `reverse` is set, and
/// returns `(case, digest, CG iterations)` in the listed order either way.
/// Cases that need a cold field solve it themselves, so any order works.
fn run_cases(cases: Vec<Case<'_>>, reverse: bool) -> Vec<(String, u64, Vec<u64>)> {
    let mut out: Vec<(String, u64, Vec<u64>)> =
        cases.iter().map(|(case, _)| (case.clone(), 0, Vec::new())).collect();
    let mut order: Vec<usize> = (0..cases.len()).collect();
    if reverse {
        order.reverse();
    }
    for i in order {
        (out[i].1, out[i].2) = (cases[i].1)();
    }
    out
}

/// `(case, digest, CG iterations)` for every pinned single-system solve,
/// run in the listed order or in reverse.
fn single_system_digests(reverse: bool) -> Vec<(String, u64, Vec<u64>)> {
    use tesa_util::faultpoint::{self, FaultPlan, Trigger};
    let models: Vec<(&str, usize, ThermalModel)> = ["2d", "3d"]
        .into_iter()
        .flat_map(|stack| [32usize, 64].map(|cells| (stack, cells)))
        .map(|(stack, cells)| {
            (stack, cells, if stack == "2d" { pinned_2d(cells) } else { pinned_3d(cells) })
        })
        .collect();
    let mut cases: Vec<Case<'_>> = Vec::new();
    for (stack, cells, m) in &models {
        let (stack, cells) = (*stack, *cells);
        cases.push((
            format!("solve/{stack}/{cells}"),
            Box::new(move || {
                let p = pinned_power(m, 1.0);
                let (cold, iters) = with_cg_iters(|| m.solve(&p));
                (digest(cold.as_slice().to_vec()), iters)
            }),
        ));
        cases.push((
            format!("solve_with_guess/{stack}/{cells}"),
            Box::new(move || {
                let cold = m.solve(&pinned_power(m, 1.0));
                let p2 = pinned_power(m, 1.3);
                let (warm, iters) = with_cg_iters(|| m.solve_with_guess(&p2, cold.as_slice()));
                (digest(warm.as_slice().to_vec()), iters)
            }),
        ));
        // The Jacobi rung of the degradation ladder.
        cases.push((
            format!("solve_recoverable_diverged/{stack}/{cells}"),
            Box::new(move || {
                let p = pinned_power(m, 1.0);
                let cold = m.solve(&p);
                let plan = FaultPlan::new().site("thermal.cg.diverge", Trigger::Always);
                let ((field, quality), iters) = with_cg_iters(|| {
                    let _scope = faultpoint::activate(&plan);
                    m.solve_recoverable(&p, Some(cold.as_slice())).expect("the Jacobi rung holds")
                });
                assert_eq!(quality, tesa_thermal::SolveQuality::DegradedJacobi);
                (digest(field.as_slice().to_vec()), iters)
            }),
        ));
        // The surrogate's coarse field (read back cell by cell through
        // one-cell region means), its per-layer estimates and bound.
        cases.push((
            format!("surrogate/{stack}/{cells}"),
            Box::new(move || {
                (surrogate_digest(m, &pinned_power(m, 1.0), cells, cells), Vec::new())
            }),
        ));
        // Ten backward-Euler steps from ambient.
        cases.push((
            format!("transient_step_x10/{stack}/{cells}"),
            Box::new(move || {
                let p = pinned_power(m, 1.0);
                let (steps, iters) = with_cg_iters(|| {
                    let mut field = m.ambient_field();
                    let mut all = Vec::new();
                    for _ in 0..10 {
                        field = m.transient_step(&p, &field, 1e-3);
                        all.extend_from_slice(field.as_slice());
                    }
                    all
                });
                (digest(steps), iters)
            }),
        ));
    }
    run_cases(cases, reverse)
}

/// Pinned `(case, digest, CG iterations)` of [`single_system_digests`].
const SINGLE_SYSTEM_PINS: &[(&str, u64, &[u64])] = &[
    ("solve/2d/32", 0xd96536b93f75ba0f, &[161]),
    ("solve_with_guess/2d/32", 0x611b1bbe78af3189, &[153]),
    ("solve_recoverable_diverged/2d/32", 0xd96536b93f75ba0f, &[161]),
    ("surrogate/2d/32", 0xea12a9e48e889f87, &[]),
    ("transient_step_x10/2d/32", 0x9c9cb217d5cbf21d, &[30, 29, 29, 29, 29, 29, 29, 29, 29, 29]),
    ("solve/2d/64", 0x4fb5a9ef58e0a369, &[20]),
    ("solve_with_guess/2d/64", 0x084e884705f5e4ff, &[19]),
    ("solve_recoverable_diverged/2d/64", 0xe2771b0aeb322d4d, &[302]),
    ("surrogate/2d/64", 0x28b4917a2461d522, &[]),
    ("transient_step_x10/2d/64", 0x9451540f96dfb390, &[55, 54, 52, 52, 52, 52, 52, 52, 52, 52]),
    ("solve/3d/32", 0xc1fb2f8f8dad602a, &[200]),
    ("solve_with_guess/3d/32", 0xefb91ee9d5f88195, &[193]),
    ("solve_recoverable_diverged/3d/32", 0xc1fb2f8f8dad602a, &[200]),
    ("surrogate/3d/32", 0xe2260b1ac71e149f, &[]),
    ("transient_step_x10/3d/32", 0x0ac2de755e61a0b3, &[30, 30, 30, 30, 30, 30, 30, 30, 30, 30]),
    ("solve/3d/64", 0x971ca2b2701c4c5e, &[26]),
    ("solve_with_guess/3d/64", 0x02977f137d12f9f8, &[25]),
    ("solve_recoverable_diverged/3d/64", 0x05cb97928832b447, &[361]),
    ("surrogate/3d/64", 0xbdd6a23afd4600e3, &[]),
    ("transient_step_x10/3d/64", 0x9fe206cedd3b6606, &[56, 56, 55, 55, 55, 55, 55, 55, 55, 55]),
];

/// Asserts that `got` reproduces `pinned`, case by case.
fn assert_pinned(got: &[(String, u64, Vec<u64>)], pinned: &[(&str, u64, &[u64])]) {
    assert_eq!(got.len(), pinned.len(), "case count changed");
    for ((case, d, iters), (p_case, p_d, p_iters)) in got.iter().zip(pinned) {
        assert_eq!(case, p_case);
        assert_eq!(iters.as_slice(), *p_iters, "{case}: CG iteration counts changed");
        assert_eq!(*d, *p_d, "{case}: output bits changed (digest {d:#018x})");
    }
}

#[test]
fn single_system_solves_reproduce_pinned_bits() {
    let _guard = trace_lock();
    assert_pinned(&single_system_digests(false), SINGLE_SYSTEM_PINS);
}

/// `(case, digest, CG iterations)` of forced-multigrid solves on grids
/// whose rows split into even and odd halves of unequal length at some
/// level: a 2D 25x25 stack (25, 13, 7, 4 cells per side) and a 3D 33x20
/// stack (33x20, 17x10, 9x5, 5x3), run in the listed order or in reverse.
fn odd_grid_digests(reverse: bool) -> Vec<(String, u64, Vec<u64>)> {
    let models: Vec<(&str, usize, usize, ThermalModel)> = [("2d", 25usize, 25usize), ("3d", 33, 20)]
        .into_iter()
        .map(|(stack, nx, ny)| {
            let m = if stack == "2d" {
                pinned_2d_grid(nx, ny, Preconditioner::Multigrid)
            } else {
                pinned_3d_grid(nx, ny, Preconditioner::Multigrid)
            };
            assert_eq!(m.preconditioner(), Preconditioner::Multigrid);
            (stack, nx, ny, m)
        })
        .collect();
    let mut cases: Vec<Case<'_>> = Vec::new();
    for (stack, nx, ny, m) in &models {
        let (nx, ny) = (*nx, *ny);
        let grid = format!("{stack}/{nx}x{ny}");
        cases.push((
            format!("solve/{grid}"),
            Box::new(move || {
                let p = pinned_power(m, 1.0);
                let (cold, iters) = with_cg_iters(|| m.solve(&p));
                (digest(cold.as_slice().to_vec()), iters)
            }),
        ));
        cases.push((
            format!("solve_with_guess/{grid}"),
            Box::new(move || {
                let cold = m.solve(&pinned_power(m, 1.0));
                let p2 = pinned_power(m, 1.3);
                let (warm, iters) = with_cg_iters(|| m.solve_with_guess(&p2, cold.as_slice()));
                (digest(warm.as_slice().to_vec()), iters)
            }),
        ));
        cases.push((
            format!("solve_batch3/{grid}"),
            Box::new(move || {
                let powers = [1.0, 1.3, 0.6].map(|scale| pinned_power(m, scale));
                let (batch, iters) = with_cg_iters(|| m.solve_batch(&powers.each_ref()));
                let bits: Vec<f64> = batch.iter().flat_map(|f| f.as_slice().to_vec()).collect();
                (digest(bits), iters)
            }),
        ));
        cases.push((
            format!("surrogate/{grid}"),
            Box::new(move || (surrogate_digest(m, &pinned_power(m, 1.0), nx, ny), Vec::new())),
        ));
    }
    run_cases(cases, reverse)
}

/// Pinned `(case, digest, CG iterations)` of [`odd_grid_digests`],
/// recorded with the natural-order multigrid kernels, before the levels'
/// rows were parity-split.
const ODD_GRID_PINS: &[(&str, u64, &[u64])] = &[
    ("solve/2d/25x25", 0x36ab1c942ba90ad9, &[16]),
    ("solve_with_guess/2d/25x25", 0x10410bcbd162aa39, &[14]),
    ("solve_batch3/2d/25x25", 0xf8b2a6217dc04133, &[16, 16, 16]),
    ("surrogate/2d/25x25", 0x4aff9ee28b400396, &[]),
    ("solve/3d/33x20", 0xd605be307d958e64, &[25]),
    ("solve_with_guess/3d/33x20", 0x1f94041c17aa446a, &[23]),
    ("solve_batch3/3d/33x20", 0xde874dd2ff72c54e, &[25, 26, 25]),
    ("surrogate/3d/33x20", 0x4dcac83e32e42763, &[]),
];

#[test]
fn odd_grid_multigrid_solves_reproduce_pinned_bits() {
    let _guard = trace_lock();
    assert_pinned(&odd_grid_digests(false), ODD_GRID_PINS);
}

/// Solve workspaces belong to threads and outlive the models they served.
/// Both pinned lists run on one fresh thread, each last case first: the
/// first solve sizes the thread's workspace for the deepest system, and
/// every later solve — 3D and 2D, Jacobi and multigrid, transient steps,
/// width-3 batches and the surrogate — reuses a workspace last sized by
/// another model or width. The pins must hold.
#[test]
fn reversed_cases_on_one_thread_reproduce_pinned_bits() {
    let _guard = trace_lock();
    let (single, odd) = std::thread::spawn(|| (single_system_digests(true), odd_grid_digests(true)))
        .join()
        .expect("reversed cases hold");
    assert_pinned(&single, SINGLE_SYSTEM_PINS);
    assert_pinned(&odd, ODD_GRID_PINS);
}
