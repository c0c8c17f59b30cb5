//! The evaluation memo's `/metrics` counters agree with the evaluator's
//! own hit/miss pair on the batched path that `tesa serve` micro-batches
//! go through. A binary of its own: the metrics registry is process-wide,
//! so no other test may evaluate while this one reads it.

use tesa::design::{ChipletConfig, Integration, McmDesign};
use tesa::eval::{EvalOptions, Evaluator};
use tesa::Constraints;
use tesa_util::metrics::render_prometheus;
use tesa_workloads::arvr_suite;

fn design(dim: u32, kib: u64) -> McmDesign {
    McmDesign {
        chiplet: ChipletConfig {
            array_dim: dim,
            sram_kib_per_bank: kib,
            integration: Integration::TwoD,
        },
        ics_um: 500,
        freq_mhz: 400,
    }
}

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
fn batched_memo_lookups_reach_the_registry() {
    let e = Evaluator::new(arvr_suite(), EvalOptions { grid_cells: 32, ..Default::default() });
    let c = Constraints::edge_device(30.0, 75.0);
    let (warm, fresh) = (design(128, 512), design(96, 256));
    let _ = e.evaluate_cached(&warm, &c);

    let (hits, misses) = e.eval_cache_stats();
    let (reg_hits, reg_misses) = (
        registry_counter("tesa_eval_cache_hits_total"),
        registry_counter("tesa_eval_cache_misses_total"),
    );
    // A memo hit, a miss, and an in-batch duplicate of that miss.
    let _ = e.evaluate_cached_batch(&[(&warm, &c), (&fresh, &c), (&fresh, &c)], 2);
    let (d_hits, d_misses) = {
        let (h, m) = e.eval_cache_stats();
        (h - hits, m - misses)
    };
    assert_eq!((d_hits, d_misses), (2, 1), "the evaluator's own count of the batch");
    assert_eq!(registry_counter("tesa_eval_cache_hits_total") - reg_hits, d_hits);
    assert_eq!(registry_counter("tesa_eval_cache_misses_total") - reg_misses, d_misses);
}
