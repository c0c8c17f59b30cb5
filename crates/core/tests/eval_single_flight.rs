//! Concurrent memo misses on one design run one evaluation. A binary of
//! its own: the metrics registry is process-wide, so no other test may
//! evaluate while this one reads it.

use std::sync::{Arc, Barrier};

use tesa::design::{ChipletConfig, Integration, McmDesign};
use tesa::eval::{EvalOptions, Evaluator};
use tesa::Constraints;
use tesa_util::metrics::render_prometheus;
use tesa_workloads::arvr_suite;

/// Value of the unlabelled counter `name` in the registry's exposition.
fn registry_counter(name: &str) -> u64 {
    let text = render_prometheus();
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from the exposition:\n{text}"));
    line.parse().unwrap_or_else(|_| panic!("{name} has a non-integer value {line:?}"))
}

#[test]
fn eight_racing_lookups_run_one_evaluation() {
    const THREADS: usize = 8;
    let e = Evaluator::new(arvr_suite(), EvalOptions { grid_cells: 32, ..Default::default() });
    let c = Constraints::edge_device(30.0, 75.0);
    let d = McmDesign {
        chiplet: ChipletConfig {
            array_dim: 128,
            sram_kib_per_bank: 512,
            integration: Integration::TwoD,
        },
        ics_um: 500,
        freq_mhz: 400,
    };
    let (reg_hits, reg_misses) = (
        registry_counter("tesa_eval_cache_hits_total"),
        registry_counter("tesa_eval_cache_misses_total"),
    );

    let gate = Barrier::new(THREADS);
    let evals: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    gate.wait();
                    e.evaluate_cached(&d, &c)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("evaluation holds")).collect()
    });

    assert!(evals.iter().all(|ev| Arc::ptr_eq(ev, &evals[0])), "one evaluation serves all");
    assert_eq!(e.eval_cache_stats(), (THREADS as u64 - 1, 1), "(hits, misses)");
    assert_eq!(registry_counter("tesa_eval_cache_hits_total") - reg_hits, THREADS as u64 - 1);
    assert_eq!(registry_counter("tesa_eval_cache_misses_total") - reg_misses, 1);
}
