//! Integration tests for the SC1/SC2/W1/W2 baselines: each must exhibit
//! the failure mode the paper attributes to it.

use tesa::anneal::MsaConfig;
use tesa::baselines::{run_sc1, run_sc2, run_w1_original, run_w2};
use tesa::design::{DesignSpace, Integration};
use tesa::{Constraints, Objective, Violation};
use tesa_suite::workloads::arvr_suite;

fn small_space() -> DesignSpace {
    DesignSpace {
        array_dims: (96..=224).step_by(32).collect(),
        sram_kib_options: vec![128, 512, 1024, 2048],
        ics_um_options: vec![0, 500, 1000],
    }
}

fn quick_msa() -> MsaConfig {
    MsaConfig {
        deltas: vec![0.7],
        t_init: 4.0,
        t_final: 1.0,
        moves_per_temp: 5,
        init_attempts: 50,
        seed: 11,
        screening: false,
        ..MsaConfig::default()
    }
}

#[test]
fn sc1_believed_eval_never_sees_thermal_problems() {
    let w = arvr_suite();
    let c = Constraints::edge_device(30.0, 75.0);
    let r = run_sc1(&w, Integration::TwoD, 500, &c, 32);
    assert!(!r
        .believed
        .violations
        .iter()
        .any(|v| matches!(v, Violation::Thermal { .. } | Violation::ThermalRunaway)));
    // The full model disagrees.
    assert!(r
        .actual
        .violations
        .iter()
        .any(|v| matches!(v, Violation::Thermal { .. } | Violation::ThermalRunaway)));
}

#[test]
fn sc2_chooses_thermally_blind_and_gets_burned_at_500mhz() {
    let w = arvr_suite();
    let c = Constraints::edge_device(30.0, 75.0);
    let r = run_sc2(&w, &small_space(), Integration::ThreeD, 500, &c, &Objective::balanced(), 32, 2)
        .expect("SC2 finds a dynamically-feasible design");
    // SC2's belief: no thermal violation recorded (thermal disabled).
    assert!(r.believed.is_feasible());
    // Reality: over budget or runaway.
    assert!(
        r.actual.thermal_runaway || r.actual.peak_temp_c > 75.0,
        "SC2's 3D choice at 500 MHz should be thermally infeasible, got {:.2} C",
        r.actual.peak_temp_c
    );
}

#[test]
fn w1_original_output_is_performance_infeasible() {
    let w = arvr_suite();
    let c = Constraints::edge_device(30.0, 75.0);
    let r = run_w1_original(&w, Integration::ThreeD, 500, &c, &DesignSpace::tesa_default(), 32);
    assert!(r
        .actual
        .violations
        .iter()
        .any(|v| matches!(v, Violation::Latency { .. })));
    // And the miss is large (paper: 36x).
    assert!(c.min_fps / r.actual.achieved_fps > 10.0);
}

#[test]
fn w2_linear_leakage_underestimates_temperature() {
    let w = arvr_suite();
    let c = Constraints::edge_device(30.0, 85.0);
    let (report, _) =
        run_w2(&w, &small_space(), Integration::ThreeD, 500, &c, true, 32, &quick_msa());
    if let Some(r) = report {
        // The full exponential model must report at least the linear
        // model's temperature.
        assert!(
            r.actual.peak_temp_c >= r.believed.peak_temp_c - 0.2
                || r.actual.thermal_runaway,
            "believed {:.2} C vs actual {:.2} C",
            r.believed.peak_temp_c,
            r.actual.peak_temp_c
        );
    }
}
