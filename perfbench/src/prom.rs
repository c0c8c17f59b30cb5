//! Reader for the Prometheus text exposition that
//! `tesa_util::metrics::render_prometheus` (and `GET /metrics`) emits, and
//! the deltas between two scrapes.

use std::collections::BTreeMap;

/// One scrape: every sample line keyed by its series (`name{labels}` as
/// printed, or `name` without labels). Histogram bucket lines keep their
/// `le` label in the key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    series: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses exposition text; `#` lines and blank lines are skipped.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed sample line {line:?}"))?;
            let value = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => v
                    .parse()
                    .map_err(|e| format!("bad value in {line:?}: {e}"))?,
            };
            series.insert(key.to_owned(), value);
        }
        Ok(Scrape { series })
    }

    /// The registry of this process, scraped in place.
    pub fn local() -> Scrape {
        Scrape::parse(&tesa_util::metrics::render_prometheus())
            .expect("the registry renders valid exposition text")
    }

    /// Sample value of one series, 0 when absent (an unregistered metric
    /// has recorded nothing).
    pub fn get(&self, key: &str) -> f64 {
        self.series.get(key).copied().unwrap_or(0.0)
    }

    /// Counter and histogram growth from `before` to `self`. Cumulative
    /// bucket counts only appear at non-empty boundaries, so a boundary
    /// missing from `before` takes the count of the nearest boundary below
    /// it in the same histogram.
    pub fn since(&self, before: &Scrape) -> Scrape {
        let series = self
            .series
            .iter()
            .map(|(key, &after)| {
                let prior = match split_le(key) {
                    Some((base, le)) => before.bucket_at(&base, le),
                    None => before.get(key),
                };
                (key.clone(), after - prior)
            })
            .collect();
        Scrape { series }
    }

    /// Cumulative count of histogram series `base` (the bucket key minus
    /// its `le` label) at upper bound `le`.
    fn bucket_at(&self, base: &str, le: f64) -> f64 {
        self.buckets(base)
            .into_iter()
            .take_while(|&(bound, _)| bound <= le)
            .last()
            .map_or(0.0, |(_, cum)| cum)
    }

    /// `(le, cumulative count)` pairs of histogram series `base`, where
    /// `base` is `name_bucket` or `name_bucket{labels}` without `le`.
    fn buckets(&self, base: &str) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = self
            .series
            .iter()
            .filter_map(|(key, &v)| match split_le(key) {
                Some((b, le)) if b == base => Some((le, v)),
                _ => None,
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Sum of every series of counter `name`, across label sets.
    pub fn family_sum(&self, name: &str) -> f64 {
        self.series
            .iter()
            .filter(|(key, _)| *key == name || key.starts_with(&format!("{name}{{")))
            .map(|(_, v)| v)
            .sum()
    }

    /// Quantile `q` of histogram `name` with label text `labels` (for
    /// example `endpoint="evaluate"`, or `""`): the upper bound of the
    /// bucket holding the sample of rank `ceil(q * count)`, as
    /// `HistogramSnapshot::quantile` computes it. `None` when empty.
    pub fn quantile(&self, name: &str, labels: &str, q: f64) -> Option<f64> {
        let base = if labels.is_empty() {
            format!("{name}_bucket")
        } else {
            format!("{name}_bucket{{{labels}}}")
        };
        let buckets = self.buckets(&base);
        let count = buckets.last().map_or(0.0, |b| b.1);
        if count <= 0.0 {
            return None;
        }
        let rank = (q * count).ceil().clamp(1.0, count);
        buckets.iter().find(|b| b.1 >= rank).map(|b| b.0)
    }

    /// `(count, sum)` of histogram `name` with label text `labels`.
    pub fn count_sum(&self, name: &str, labels: &str) -> (f64, f64) {
        let suffix = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        (
            self.get(&format!("{name}_count{suffix}")),
            self.get(&format!("{name}_sum{suffix}")),
        )
    }
}

/// Splits a bucket key `name_bucket{a="x",le="12"}` into its base key
/// without `le` (`name_bucket{a="x"}`) and the bound; `None` for keys
/// without an `le` label.
fn split_le(key: &str) -> Option<(String, f64)> {
    let (name, rest) = key.split_once('{')?;
    let labels = rest.strip_suffix('}')?;
    let mut kept = Vec::new();
    let mut le = None;
    for part in labels.split(',') {
        match part.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')) {
            Some("+Inf") => le = Some(f64::INFINITY),
            Some(v) => le = v.parse().ok(),
            None => kept.push(part),
        }
    }
    let base = if kept.is_empty() {
        name.to_owned()
    } else {
        format!("{name}{{{}}}", kept.join(","))
    };
    Some((base, le?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesa_util::metrics::{Counter, Histogram};

    static REQS: Counter = Counter::with_labels(
        "perfbench_test_requests_total",
        "test",
        &[("endpoint", "evaluate")],
    );
    static OTHER: Counter = Counter::with_labels(
        "perfbench_test_requests_total",
        "test",
        &[("endpoint", "screen")],
    );
    static LAT: Histogram = Histogram::with_labels(
        "perfbench_test_latency_us",
        "test",
        &[("endpoint", "evaluate")],
    );
    static PLAIN: Histogram = Histogram::new("perfbench_test_plain", "test");

    #[test]
    fn parses_and_diffs_a_rendered_registry() {
        REQS.add(3);
        OTHER.add(2);
        for v in [5u64, 700, 700, 90_000] {
            LAT.record(v);
        }
        let before = Scrape::local();
        assert_eq!(
            before.get(r#"perfbench_test_requests_total{endpoint="evaluate"}"#),
            3.0
        );
        assert_eq!(before.family_sum("perfbench_test_requests_total"), 5.0);
        assert_eq!(
            before.count_sum("perfbench_test_latency_us", r#"endpoint="evaluate""#),
            (4.0, 91_405.0)
        );

        REQS.add(4);
        // New samples in buckets absent from the first scrape, and in one
        // bucket it already had.
        for v in [40u64, 40, 700, 3_000, 3_000, 3_000] {
            LAT.record(v);
        }
        let delta = Scrape::local().since(&before);
        assert_eq!(
            delta.get(r#"perfbench_test_requests_total{endpoint="evaluate"}"#),
            4.0
        );
        assert_eq!(
            delta.get(r#"perfbench_test_requests_total{endpoint="screen"}"#),
            0.0
        );
        let labels = r#"endpoint="evaluate""#;
        assert_eq!(
            delta.count_sum("perfbench_test_latency_us", labels),
            (6.0, 9_780.0)
        );
        // Six new samples: 40, 40, 700, 3000, 3000, 3000.
        let q = |q| {
            delta
                .quantile("perfbench_test_latency_us", labels, q)
                .unwrap()
        };
        let p50 = q(0.5);
        assert!((700.0..=743.0).contains(&p50), "p50 {p50}");
        let p99 = q(0.99);
        assert!((3_000.0..=3_071.0).contains(&p99), "p99 {p99}");
        assert!((40.0..=41.0).contains(&q(0.1)));
    }

    #[test]
    fn quantiles_match_the_registry_snapshot() {
        for v in [1u64, 17, 17, 250, 4_096, 4_097, 65_000, 1_000_000] {
            PLAIN.record(v);
        }
        let scrape = Scrape::local();
        let snap = PLAIN.snapshot();
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let ours = scrape.quantile("perfbench_test_plain", "", q).unwrap();
            let theirs = snap.quantile(q).unwrap() as f64;
            // The snapshot clamps the top bucket to the observed max.
            assert!(
                ours >= theirs && ours <= theirs * 1.0625 + 1.0,
                "q={q}: {ours} vs {theirs}"
            );
        }
        assert_eq!(scrape.quantile("perfbench_test_absent", "", 0.5), None);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Scrape::parse("just_a_name").is_err());
        assert!(Scrape::parse("name notanumber").is_err());
        let s = Scrape::parse("# HELP x y\n\nx_total 2\nh_bucket{le=\"+Inf\"} 3\n").unwrap();
        assert_eq!(s.get("x_total"), 2.0);
        assert_eq!(s.get("missing"), 0.0);
    }
}
