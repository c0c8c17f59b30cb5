//! Batched-equals-serial suite: `solve_batch` must reproduce one-at-a-time
//! `solve()` calls *byte for byte* — fields and per-system CG iteration
//! counts — for any stack, power map, batch size, and pool lane count. The
//! engine advances k independent CG recurrences in lockstep and retires
//! each the iteration it converges, so every right-hand side performs the
//! exact arithmetic sequence of its width-1 solve (whose bits
//! `solver_equiv.rs` pins); these tests pin that contract from the public
//! API, with the trace stream as the witness for iteration counts.

use std::sync::Mutex;

use tesa_thermal::{BatchSolveRequest, PowerMap, Preconditioner, Rect, StackBuilder, ThermalModel};
use tesa_util::json::{self, Json};
use tesa_util::prop_assert;
use tesa_util::propcheck::{check, ranged, vec_of, Config};
use tesa_util::trace;

/// The trace sink is process-global; tests that enable it (or solve while
/// another test might have it enabled) serialize through this lock so each
/// capture sees only its own events.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with an in-memory trace session and returns its result plus
/// the captured JSONL text.
fn capture<T>(f: impl FnOnce() -> T) -> (T, String) {
    let buf = trace::SharedBuf::default();
    let session = trace::init_writer(Box::new(buf.clone()));
    let out = f();
    drop(session);
    (out, buf.contents())
}

/// Per-solve CG iteration counts, in emission order.
fn cg_iters(text: &str) -> Vec<u64> {
    text.lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|j| j.get("name").and_then(Json::as_str) == Some("thermal.cg"))
        .filter_map(|j| j.get("f").and_then(|f| f.get("iters")).and_then(Json::as_u64))
        .collect()
}

/// `retire_iters` arrays of every `thermal.batch` event, in order.
fn batch_retires(text: &str) -> Vec<Vec<u64>> {
    text.lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|j| j.get("name").and_then(Json::as_str) == Some("thermal.batch"))
        .filter_map(|j| {
            let arr = j.get("f").and_then(|f| f.get("retire_iters")).and_then(Json::as_array)?;
            arr.iter().map(Json::as_u64).collect::<Option<Vec<u64>>>()
        })
        .collect()
}

/// A 2.5D stack: interposer, device, TIM, lid.
fn stack_2d(nx: usize, ny: usize, precond: Preconditioner) -> ThermalModel {
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
        .convection(0.4, 45.0)
        .build()
}

/// A 3D stack: two bonded device tiers under the TIM and lid.
fn stack_3d(nx: usize, ny: usize, precond: Preconditioner) -> ThermalModel {
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
        .convection(0.4, 45.0)
        .build()
}

#[test]
fn batched_solves_match_serial_on_random_stacks() {
    let _guard = TRACE_LOCK.lock().expect("trace lock poisoned");
    check(
        Config::with_cases(8),
        (
            ranged(12usize..40),
            ranged(12usize..40),
            ranged(0usize..2),  // 0 = 2.5D stack, 1 = two-tier 3D stack
            ranged(1usize..17), // batch size
            (
                ranged(0usize..3), // index into the lane presets {1, 2, 8}
                // 0 = Auto (Jacobi on these grids, all below the multigrid
                // cutoff), 1 = forced multigrid: the V-cycle path of sweeps.
                ranged(0usize..2),
            ),
            vec_of(
                (ranged(0.0f64..6.5e-3), ranged(0.0f64..6.5e-3), ranged(0.2f64..4.0)),
                1..5,
            ),
        ),
        |(nx, ny, is3d, k, (lane_idx, mg), sources)| {
            let lanes = [1usize, 2, 8][lane_idx];
            let precond = [Preconditioner::Auto, Preconditioner::Multigrid][mg];
            let mut m =
                if is3d == 1 { stack_3d(nx, ny, precond) } else { stack_2d(nx, ny, precond) };
            m.set_parallel_lanes(lanes);

            // k power maps sharing the random source layout, with
            // per-system wattage so every lane solves a distinct system.
            let maps: Vec<PowerMap> = (0..k)
                .map(|s| {
                    let mut p = m.zero_power();
                    for &(x, y, w) in &sources {
                        let rect = Rect::new(x, y, 1.0e-3, 1.0e-3);
                        p.add_uniform_rect(1, rect, w * (1.0 + 0.35 * s as f64));
                    }
                    p
                })
                .collect();

            let (serial, st) = capture(|| maps.iter().map(|p| m.solve(p)).collect::<Vec<_>>());
            let refs: Vec<&PowerMap> = maps.iter().collect();
            let (batched, bt) = capture(|| m.solve_batch(&refs));

            for (s, (a, b)) in serial.iter().zip(&batched).enumerate() {
                for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
                    prop_assert!(
                        u.to_bits() == v.to_bits(),
                        "system {s}/{k} field bytes diverged on {nx}x{ny} \
                         (3d={is3d}, lanes={lanes}, {precond:?}): {u} vs {v}"
                    );
                }
            }

            let si = cg_iters(&st);
            let bi = cg_iters(&bt);
            prop_assert!(
                si == bi,
                "per-system iteration counts diverged on {nx}x{ny} (batch {k}, \
                 lanes {lanes}, {precond:?}): serial {si:?} vs batched {bi:?}"
            );
            let retires = batch_retires(&bt);
            if k > 1 {
                prop_assert!(
                    retires == vec![si.clone()],
                    "thermal.batch retire_iters {retires:?} != serial iters {si:?}"
                );
            } else {
                // A single-system batch is a width-1 solve and must not
                // pretend to have batched anything.
                prop_assert!(retires.is_empty(), "k=1 emitted thermal.batch {retires:?}");
            }
            Ok(())
        },
    );
}

#[test]
fn recoverable_batch_matches_serial_with_warm_starts() {
    let _guard = TRACE_LOCK.lock().expect("trace lock poisoned");
    let mut m = stack_2d(32, 32, Preconditioner::Auto);
    m.set_parallel_lanes(2);
    let maps: Vec<PowerMap> = (0..5)
        .map(|s| {
            let mut p = m.zero_power();
            p.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 1.0 + s as f64);
            p
        })
        .collect();
    // Warm-start odd requests from a previous solution, as the leakage
    // co-iteration does.
    let prior = m.solve(&maps[0]);
    let requests: Vec<BatchSolveRequest<'_>> = maps
        .iter()
        .enumerate()
        .map(|(i, p)| BatchSolveRequest {
            power: p,
            guess: (i % 2 == 1).then_some(prior.as_slice()),
        })
        .collect();

    let batched = m.solve_batch_recoverable(&requests);
    for (i, (req, got)) in requests.iter().zip(&batched).enumerate() {
        let want = m.solve_recoverable(req.power, req.guess).expect("serial solve failed");
        let (field, quality) = got.as_ref().expect("batched solve failed");
        assert_eq!(*quality, want.1, "request {i} quality diverged");
        for (u, v) in field.as_slice().iter().zip(want.0.as_slice()) {
            assert_eq!(u.to_bits(), v.to_bits(), "request {i} field bytes diverged");
        }
    }
}
