//! Order statistics for reported timings.

use std::collections::BTreeMap;

/// A tail percentile is reported only with at least this many samples
/// beyond it; with fewer, the tail is noise.
pub const MIN_BEYOND: usize = 10;

/// Timings of a run's calls over a fixed suite of inputs, keyed by input.
/// Each input's repeats are folded into their medians, so a run's figures
/// do not depend on which inputs it happened to repeat.
#[derive(Default)]
pub struct Suite {
    /// Per input: wall seconds, CPU seconds, and operations of one call.
    items: BTreeMap<u64, (Vec<f64>, Vec<f64>, u64)>,
}

impl Suite {
    /// Records one call on input `key` that did `ops` operations.
    pub fn record(&mut self, key: u64, wall_s: f64, cpu_s: f64, ops: u64) {
        let item = self.items.entry(key).or_default();
        item.0.push(wall_s);
        item.1.push(cpu_s);
        item.2 = ops;
    }

    /// `(mean milliseconds per call, operations per second, CPU
    /// milliseconds per operation)` over the inputs' median calls.
    pub fn figures(&self) -> (f64, f64, f64) {
        let (mut wall, mut cpu, mut ops) = (0.0, 0.0, 0u64);
        for (walls, cpus, n) in self.items.values() {
            wall += median(walls);
            cpu += median(cpus);
            ops += n;
        }
        (
            wall * 1e3 / self.items.len().max(1) as f64,
            ops as f64 / wall,
            cpu * 1e3 / ops.max(1) as f64,
        )
    }
}

/// Median of `xs` (the mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `xs`, `per_mille` / 10 percent (`990` is
/// p99), or `None` unless at least [`MIN_BEYOND`] samples lie above the
/// returned rank.
pub fn percentile(xs: &[f64], per_mille: usize) -> Option<f64> {
    let n = xs.len();
    let rank = (per_mille * n).div_ceil(1000).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The highest of p99.9, p99, p95 and p90 that [`percentile`] supports
/// for `xs`, as `(label, value)`.
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    [(999, "p99.9"), (990, "p99"), (950, "p95"), (900, "p90")]
        .into_iter()
        .find_map(|(pm, label)| percentile(xs, pm).map(|v| (label, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(4)), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly ten above it.
        assert_eq!(percentile(&ramp(1000), 990), Some(990.0));
        // 999 samples: rank 990 leaves only nine above.
        assert_eq!(percentile(&ramp(999), 990), None);
        assert_eq!(percentile(&ramp(1009), 990), Some(999.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn percentile_counts_exactly_the_samples_beyond() {
        for n in [11usize, 20, 100, 1000, 4321] {
            let xs = ramp(n);
            for pm in [500usize, 900, 950, 990, 999] {
                if let Some(v) = percentile(&xs, pm) {
                    let beyond = xs.iter().filter(|&&x| x > v).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} pm={pm} beyond={beyond}");
                    let below = xs.iter().filter(|&&x| x <= v).count();
                    assert!(below * 1000 >= pm * n, "n={n} pm={pm}: rank too low");
                }
            }
        }
    }

    #[test]
    fn suite_figures_use_each_inputs_median_call() {
        let mut s = Suite::default();
        // Input 1 repeats three times (median 2 s), input 2 runs once.
        for (wall, cpu) in [(2.0, 3.0), (9.0, 9.0), (1.0, 1.0)] {
            s.record(1, wall, cpu, 10);
        }
        s.record(2, 4.0, 5.0, 30);
        let (latency_ms, throughput, cpu_ms) = s.figures();
        assert_eq!(latency_ms, 3000.0);
        assert_eq!(throughput, 40.0 / 6.0);
        assert_eq!(cpu_ms, 8000.0 / 40.0);
        // The same medians in another order give the same figures.
        let mut t = Suite::default();
        t.record(2, 4.0, 5.0, 30);
        for (wall, cpu) in [(1.0, 1.0), (2.0, 3.0), (9.0, 9.0)] {
            t.record(1, wall, cpu, 10);
        }
        assert_eq!(t.figures(), s.figures());
    }

    #[test]
    fn tail_falls_back_to_lower_percentiles() {
        assert_eq!(tail(&ramp(20_000)).map(|t| t.0), Some("p99.9"));
        assert_eq!(tail(&ramp(2_000)).map(|t| t.0), Some("p99"));
        assert_eq!(tail(&ramp(300)).map(|t| t.0), Some("p95"));
        assert_eq!(tail(&ramp(100)).map(|t| t.0), Some("p90"));
        assert_eq!(tail(&ramp(50)), None);
    }
}
