//! Batched-equals-serial, end to end: the multi-RHS lockstep engine under
//! `Evaluator::evaluate_cached_batch`, `Surrogate::solve_pair` under
//! `screen`, the grouped `exhaustive::sweep`, and the grouped
//! `Session::run_batch` must all report *byte-identical* results to
//! evaluating each design alone. The batched paths advance k independent
//! solves in lockstep without mixing their arithmetic, so this is an
//! exact-equality suite — no tolerances anywhere.

use tesa::design::{ChipletConfig, DesignSpace, Integration, McmDesign};
use tesa::eval::{EvalOptions, Evaluator, ScreenVerdict};
use tesa::exhaustive::sweep;
use tesa::objective::Objective;
use tesa::report;
use tesa::session::{Query, Session};
use tesa::Constraints;
use tesa_suite::workloads::arvr_suite;
use tesa_util::json;

fn design(dim: u32, kib: u64, integration: Integration, ics: u32, mhz: u32) -> McmDesign {
    McmDesign {
        chiplet: ChipletConfig { array_dim: dim, sram_kib_per_bank: kib, integration },
        ics_um: ics,
        freq_mhz: mhz,
    }
}

fn evaluator() -> Evaluator {
    // The 32-cell grid keeps the suite quick; bit-identity is independent
    // of resolution (the thermal crate pins it property-style).
    Evaluator::new(arvr_suite(), EvalOptions { grid_cells: 32, ..Default::default() })
}

/// A mixed batch: same-model groups (designs differing only in frequency
/// share a thermal model), a second layout group, a 3D design, an
/// area-infeasible giant, and an exact duplicate.
fn mixed_designs() -> Vec<McmDesign> {
    vec![
        design(128, 512, Integration::TwoD, 500, 400),
        design(128, 512, Integration::TwoD, 500, 300),
        design(128, 512, Integration::TwoD, 500, 500),
        design(96, 256, Integration::TwoD, 1000, 400),
        design(64, 128, Integration::ThreeD, 500, 400),
        design(1024, 4096, Integration::TwoD, 0, 400),
        design(128, 512, Integration::TwoD, 500, 400), // duplicate of [0]
    ]
}

#[test]
fn batched_evaluate_matches_serial_bit_for_bit() {
    let designs = mixed_designs();
    let constraints = Constraints::edge_device(30.0, 75.0);

    let serial_eval = evaluator();
    let serial: Vec<_> =
        designs.iter().map(|d| serial_eval.evaluate(d, &constraints)).collect();

    let batched_eval = evaluator();
    let queries: Vec<_> = designs.iter().map(|d| (d, &constraints)).collect();
    let batched = batched_eval.evaluate_cached_batch(&queries, 4);

    for (i, (a, b)) in serial.iter().zip(&batched).enumerate() {
        assert_eq!(a.peak_temp_c.to_bits(), b.peak_temp_c.to_bits(), "design {i} peak");
        assert_eq!(a.chip_power_w.to_bits(), b.chip_power_w.to_bits(), "design {i} power");
        assert_eq!(a.total_power_w.to_bits(), b.total_power_w.to_bits(), "design {i} total");
        assert_eq!(a.mcm_cost_usd.to_bits(), b.mcm_cost_usd.to_bits(), "design {i} cost");
        assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits(), "design {i} latency");
        assert_eq!(a.ops.to_bits(), b.ops.to_bits(), "design {i} ops");
        assert_eq!(a.violations, b.violations, "design {i} violations");
        assert_eq!(a.thermal_runaway, b.thermal_runaway, "design {i} runaway");
        assert_eq!(a.degraded, b.degraded, "design {i} degraded");
        // The CLI/daemon report is the user-visible artifact: byte-match it.
        assert_eq!(
            report::evaluation_json(a).to_string(),
            report::evaluation_json(b).to_string(),
            "design {i} report"
        );
    }
    // The duplicate resolves to the same memo entry as its first occurrence.
    assert_eq!(
        report::evaluation_json(&batched[0]).to_string(),
        report::evaluation_json(&batched[6]).to_string()
    );
}

#[test]
fn batched_batch_is_identical_to_cached_singles() {
    // Same evaluator object: batch once, then re-ask design by design —
    // every answer must come back as the identical memoized evaluation.
    let designs = mixed_designs();
    let constraints = Constraints::edge_device(30.0, 75.0);
    let e = evaluator();
    let queries: Vec<_> = designs.iter().map(|d| (d, &constraints)).collect();
    let batched = e.evaluate_cached_batch(&queries, 4);
    for (d, b) in designs.iter().zip(&batched) {
        let single = e.evaluate_cached(d, &constraints);
        assert!(std::sync::Arc::ptr_eq(&single, b), "memo must hold the batched result");
    }
}

#[test]
fn paired_screen_verdicts_are_sound_against_full_evaluation() {
    // The full screen's lower/upper surrogate bounds now solve as one k=2
    // lockstep pair; decisive verdicts must still be sound against the
    // exact pipeline.
    let constraints = Constraints::edge_device(30.0, 75.0);
    let screens = evaluator();
    let exact = evaluator();
    for d in [
        design(128, 512, Integration::TwoD, 500, 400),
        design(96, 256, Integration::TwoD, 1000, 400),
        design(224, 1024, Integration::TwoD, 500, 800), // hot: high freq, big array
        design(64, 128, Integration::ThreeD, 500, 400),
        design(1024, 4096, Integration::TwoD, 0, 400),
    ] {
        let full = screens.screen(&d, &constraints);
        let eval = exact.evaluate(&d, &constraints);
        match full {
            ScreenVerdict::ClearlyInfeasible => {
                assert!(!eval.is_feasible(), "{d:?} screened infeasible but evaluates feasible");
            }
            ScreenVerdict::ClearlyFeasible => {
                assert!(eval.is_feasible(), "{d:?} screened feasible but evaluates infeasible");
            }
            ScreenVerdict::Ambiguous => {}
        }
    }
}

#[test]
fn grouped_sweep_matches_per_design_evaluation() {
    let space = DesignSpace {
        array_dims: vec![112, 128],
        sram_kib_options: vec![256, 512],
        ics_um_options: vec![0, 1000],
    };
    let constraints = Constraints::edge_device(15.0, 85.0);
    let obj = Objective::balanced();

    let grouped = evaluator();
    let r = sweep(&grouped, &space, Integration::TwoD, 400, &constraints, &obj, 4);

    let serial = evaluator();
    let designs: Vec<McmDesign> = space.designs(Integration::TwoD, 400).collect();
    assert_eq!(r.points.len(), designs.len());
    for (p, d) in r.points.iter().zip(&designs) {
        let e = serial.evaluate(d, &constraints);
        assert_eq!(p.design, *d);
        assert_eq!(p.objective.to_bits(), e.objective(&obj).to_bits(), "{d:?} objective");
        assert_eq!(p.peak_temp_c.to_bits(), e.peak_temp_c.to_bits(), "{d:?} peak");
        assert_eq!(p.mcm_cost_usd.to_bits(), e.mcm_cost_usd.to_bits(), "{d:?} cost");
        assert_eq!(p.dram_power_w.to_bits(), e.dram_power_w.to_bits(), "{d:?} dram");
        assert_eq!(p.feasible, e.is_feasible(), "{d:?} feasible");
        assert_eq!(p.thermal_runaway, e.thermal_runaway, "{d:?} runaway");
    }
    let best = r.best.expect("space contains feasible designs");
    let want = serial.evaluate(&best.design, &constraints);
    assert_eq!(
        report::evaluation_json(&best).to_string(),
        report::evaluation_json(&want).to_string()
    );
}

#[test]
fn session_batch_responses_match_serial_runs() {
    let body = |text: &str| json::parse(text).expect("test body parses");
    let queries = vec![
        Query::evaluate(body(
            r#"{"design":{"array_dim":128,"sram_kib_per_bank":512},"constraints":{"fps":1.0}}"#,
        )),
        Query::screen(body(
            r#"{"design":{"array_dim":96,"sram_kib_per_bank":256},"constraints":{"fps":1.0}}"#,
        )),
        Query::evaluate(body(r#"{}"#)), // malformed: missing design
        Query::evaluate(body(
            r#"{"design":{"array_dim":96,"sram_kib_per_bank":256,"freq_mhz":300},
                "constraints":{"fps":1.0}}"#,
        )),
        Query::evaluate(body(
            r#"{"design":{"array_dim":128,"sram_kib_per_bank":512},"constraints":{"fps":1.0}}"#,
        )),
    ];

    let batched = Session::new(evaluator());
    let got = batched.run_batch(&queries);

    let serial = Session::new(evaluator());
    let want: Vec<_> = queries.iter().map(|q| serial.run(q)).collect();

    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        match (g, w) {
            (Ok(a), Ok(b)) => assert_eq!(a.to_string(), b.to_string(), "query {i}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "query {i}"),
            _ => panic!("query {i}: batched {g:?} vs serial {w:?}"),
        }
    }
    // Counters match a serial session's bookkeeping.
    assert_eq!(batched.stats_json().to_string(), serial.stats_json().to_string());
}
