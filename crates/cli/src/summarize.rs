//! Aggregation of a `--trace` JSONL file into the human-readable report
//! behind `tesa trace summarize`.
//!
//! The summarizer is schema-tolerant: unknown event names still contribute
//! to the generic span/counter tables, so new instrumentation shows up in
//! summaries without touching this module. The pipeline-specific sections
//! (MSA acceptance curve, evaluator cache ratio, CG statistics) key off
//! the event names emitted by `tesa`/`tesa-thermal` instrumentation.

use std::collections::BTreeMap;
use tesa_util::json::{self, Json};

/// Aggregate statistics of one span name.
#[derive(Debug, Default, Clone)]
struct SpanStats {
    count: u64,
    total_us: u64,
    max_us: u64,
}

/// One temperature step of the MSA schedule, merged across starts.
#[derive(Debug, Default, Clone)]
struct TempBucket {
    moves: u64,
    accepted: u64,
}

/// Everything `trace summarize` reports, aggregated from a JSONL trace.
#[derive(Debug, Default)]
pub struct Summary {
    events: u64,
    threads: std::collections::HashSet<u64>,
    spans: BTreeMap<String, SpanStats>,
    counters: BTreeMap<String, (u64, f64)>,
    /// Acceptance curve keyed by annealing temperature (bits of the f64
    /// keep the map exact; descending t = schedule order).
    msa_curve: BTreeMap<u64, TempBucket>,
    msa_moves: u64,
    msa_accepted: u64,
    msa_starts: u64,
    msa_starts_feasible: u64,
    cg_solves: u64,
    cg_iters_total: u64,
    cg_iters_max: u64,
    cg_warm: u64,
    cg_by_precond: BTreeMap<String, u64>,
    leak_phases: u64,
    leak_iters_total: u64,
    batch_count: u64,
    batch_systems: u64,
    batch_max: u64,
    batch_fused_sweeps: u64,
    batch_retire_total: u64,
    batch_by_precond: BTreeMap<String, u64>,
}

impl Summary {
    /// Parses and aggregates a JSONL trace held in memory.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line. Lines that are
    /// valid JSON but missing the `kind` key are skipped, not errors.
    #[cfg_attr(not(test), allow(dead_code))] // the CLI streams via `from_reader`
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        Self::from_reader(text.as_bytes())
    }

    /// Streams and aggregates a JSONL trace line by line, so summarizing
    /// a multi-gigabyte campaign capture never holds more than one line
    /// in memory. `from_jsonl` is this over an in-memory slice.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unreadable or malformed line.
    pub fn from_reader<R: std::io::BufRead>(reader: R) -> Result<Self, String> {
        let mut s = Summary::default();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if line.trim().is_empty() {
                continue;
            }
            let v = json::parse(&line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            s.ingest(&v);
        }
        Ok(s)
    }

    fn ingest(&mut self, v: &Json) {
        let Some(kind) = v.get("kind").and_then(Json::as_str) else { return };
        self.events += 1;
        if let Some(tid) = v.get("tid").and_then(Json::as_u64) {
            self.threads.insert(tid);
        }
        let name = v.get("name").and_then(Json::as_str).unwrap_or("?");
        let f = v.get("f");
        let field = |key: &str| f.and_then(|f| f.get(key));
        match kind {
            "span" => {
                let dur = v.get("dur_us").and_then(Json::as_u64).unwrap_or(0);
                let e = self.spans.entry(name.to_owned()).or_default();
                e.count += 1;
                e.total_us += dur;
                e.max_us = e.max_us.max(dur);
                if name == "msa.start" {
                    self.msa_starts += 1;
                    if field("feasible").and_then(Json::as_bool) == Some(true) {
                        self.msa_starts_feasible += 1;
                    }
                }
            }
            "counter" => {
                let value = v.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let e = self.counters.entry(name.to_owned()).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += value;
            }
            "event" => match name {
                "msa.temp" => {
                    let moves = field("moves").and_then(Json::as_u64).unwrap_or(0);
                    let accepted = field("accepted").and_then(Json::as_u64).unwrap_or(0);
                    self.msa_moves += moves;
                    self.msa_accepted += accepted;
                    if let Some(t) = field("t").and_then(Json::as_f64) {
                        let b = self.msa_curve.entry(t.to_bits()).or_default();
                        b.moves += moves;
                        b.accepted += accepted;
                    }
                }
                "thermal.cg" => {
                    let iters = field("iters").and_then(Json::as_u64).unwrap_or(0);
                    self.cg_solves += 1;
                    self.cg_iters_total += iters;
                    self.cg_iters_max = self.cg_iters_max.max(iters);
                    if field("warm").and_then(Json::as_bool) == Some(true) {
                        self.cg_warm += 1;
                    }
                    if let Some(p) = field("precond").and_then(Json::as_str) {
                        *self.cg_by_precond.entry(p.to_owned()).or_default() += 1;
                    }
                }
                "thermal.batch" => {
                    let systems = field("batch").and_then(Json::as_u64).unwrap_or(0);
                    self.batch_count += 1;
                    self.batch_systems += systems;
                    self.batch_max = self.batch_max.max(systems);
                    self.batch_fused_sweeps +=
                        field("fused_sweeps").and_then(Json::as_u64).unwrap_or(0);
                    if let Some(retires) = field("retire_iters").and_then(Json::as_array) {
                        self.batch_retire_total +=
                            retires.iter().filter_map(Json::as_u64).sum::<u64>();
                    }
                    if let Some(p) = field("precond").and_then(Json::as_str) {
                        *self.batch_by_precond.entry(p.to_owned()).or_default() += 1;
                    }
                }
                "eval.phase" => {
                    self.leak_phases += 1;
                    self.leak_iters_total +=
                        field("leak_iters").and_then(Json::as_u64).unwrap_or(0);
                }
                _ => {}
            },
            _ => {}
        }
    }

    /// Overall MSA move acceptance rate in `[0, 1]`, if any moves ran.
    pub fn msa_acceptance_rate(&self) -> Option<f64> {
        (self.msa_moves > 0).then(|| self.msa_accepted as f64 / self.msa_moves as f64)
    }

    /// Evaluator cache hit ratio in `[0, 1]`, if any lookups ran.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let hits = self.counters.get("eval.cache.hit").map_or(0.0, |c| c.1);
        let misses = self.counters.get("eval.cache.miss").map_or(0.0, |c| c.1);
        (hits + misses > 0.0).then(|| hits / (hits + misses))
    }

    /// Mean CG iterations per steady-state solve, if any solves ran.
    pub fn mean_cg_iters(&self) -> Option<f64> {
        (self.cg_solves > 0).then(|| self.cg_iters_total as f64 / self.cg_solves as f64)
    }

    /// Sum of a counter's values across the trace.
    fn counter_total(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |c| c.1)
    }

    /// Fraction of surrogate screens that were decisive (skipped the exact
    /// solve), in `[0, 1]`, if any screens ran.
    pub fn screen_decisive_ratio(&self) -> Option<f64> {
        let decisive = self.counter_total("eval.surrogate.screened");
        let ambiguous = self.counter_total("eval.surrogate.ambiguous");
        (decisive + ambiguous > 0.0).then(|| decisive / (decisive + ambiguous))
    }

    /// The machine-readable report behind `trace summarize --format json`:
    /// the same aggregates `render` prints, as one JSON object.
    pub fn to_json(&self) -> Json {
        let ratio = |r: Option<f64>| r.map_or(Json::Null, Json::f64);
        let spans = Json::arr(self.spans.iter().map(|(name, s)| {
            Json::obj([
                ("name", Json::str(name.as_str())),
                ("count", Json::u64(s.count)),
                ("total_us", Json::u64(s.total_us)),
                ("mean_us", Json::f64(s.total_us as f64 / s.count.max(1) as f64)),
                ("max_us", Json::u64(s.max_us)),
            ])
        }));
        let counters = Json::arr(self.counters.iter().map(|(name, (count, total))| {
            Json::obj([
                ("name", Json::str(name.as_str())),
                ("samples", Json::u64(*count)),
                ("total", Json::f64(*total)),
            ])
        }));
        let curve = Json::arr(self.msa_curve.iter().rev().map(|(bits, b)| {
            Json::obj([
                ("t", Json::f64(f64::from_bits(*bits))),
                ("moves", Json::u64(b.moves)),
                ("accepted", Json::u64(b.accepted)),
            ])
        }));
        Json::obj([
            ("events", Json::u64(self.events)),
            ("threads", Json::u64(self.threads.len() as u64)),
            ("spans", spans),
            ("counters", counters),
            (
                "msa",
                Json::obj([
                    ("starts", Json::u64(self.msa_starts)),
                    ("starts_feasible", Json::u64(self.msa_starts_feasible)),
                    ("moves", Json::u64(self.msa_moves)),
                    ("accepted", Json::u64(self.msa_accepted)),
                    ("acceptance_rate", ratio(self.msa_acceptance_rate())),
                    ("curve", curve),
                ]),
            ),
            ("cache_hit_ratio", ratio(self.cache_hit_ratio())),
            ("screen_decisive_ratio", ratio(self.screen_decisive_ratio())),
            (
                "cg",
                Json::obj([
                    ("solves", Json::u64(self.cg_solves)),
                    ("iters_total", Json::u64(self.cg_iters_total)),
                    ("iters_max", Json::u64(self.cg_iters_max)),
                    ("warm", Json::u64(self.cg_warm)),
                    ("mean_iters", ratio(self.mean_cg_iters())),
                    ("leak_phases", Json::u64(self.leak_phases)),
                    ("leak_iters_total", Json::u64(self.leak_iters_total)),
                ]),
            ),
            (
                "batch",
                Json::obj([
                    ("batches", Json::u64(self.batch_count)),
                    ("systems", Json::u64(self.batch_systems)),
                    ("largest", Json::u64(self.batch_max)),
                    ("fused_sweeps", Json::u64(self.batch_fused_sweeps)),
                    ("retire_iters_total", Json::u64(self.batch_retire_total)),
                ]),
            ),
        ])
    }

    /// The human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace: {} events on {} thread(s)\n",
            self.events,
            self.threads.len()
        );

        if !self.spans.is_empty() {
            out.push_str("\nper-phase wall time (spans):\n");
            out.push_str(&format!(
                "  {:<18} {:>7} {:>12} {:>10} {:>10}\n",
                "span", "count", "total", "mean", "max"
            ));
            // Widest total first: the table reads as a wall-time profile.
            let mut rows: Vec<_> = self.spans.iter().collect();
            rows.sort_by_key(|r| std::cmp::Reverse(r.1.total_us));
            for (name, s) in rows {
                out.push_str(&format!(
                    "  {:<18} {:>7} {:>12} {:>10} {:>10}\n",
                    name,
                    s.count,
                    fmt_us(s.total_us),
                    fmt_us(s.total_us / s.count.max(1)),
                    fmt_us(s.max_us),
                ));
            }
        }

        if self.msa_starts > 0 || self.msa_moves > 0 {
            out.push_str("\nMSA optimizer:\n");
            out.push_str(&format!(
                "  starts: {} ({} found a feasible init)\n",
                self.msa_starts, self.msa_starts_feasible
            ));
            if let Some(rate) = self.msa_acceptance_rate() {
                out.push_str(&format!(
                    "  moves: {} proposed, {} accepted ({:.1}% acceptance)\n",
                    self.msa_moves,
                    self.msa_accepted,
                    100.0 * rate
                ));
            }
            if !self.msa_curve.is_empty() {
                out.push_str("  acceptance-rate curve (temperature descending):\n");
                // Long anneals have hundreds of temperature steps; elide the
                // middle of the curve past a screenful.
                const CURVE_HEAD_TAIL: usize = 6;
                let n = self.msa_curve.len();
                let elide = n > 2 * CURVE_HEAD_TAIL + 1;
                for (i, (bits, b)) in self.msa_curve.iter().rev().enumerate() {
                    if elide && i == CURVE_HEAD_TAIL {
                        out.push_str(&format!(
                            "    ... {} more temperature steps ...\n",
                            n - 2 * CURVE_HEAD_TAIL
                        ));
                    }
                    if elide && (CURVE_HEAD_TAIL..n - CURVE_HEAD_TAIL).contains(&i) {
                        continue;
                    }
                    let t = f64::from_bits(*bits);
                    let rate = if b.moves > 0 {
                        100.0 * b.accepted as f64 / b.moves as f64
                    } else {
                        0.0
                    };
                    out.push_str(&format!(
                        "    T={t:<8.3} {:>4}/{:<4} accepted ({rate:5.1}%)\n",
                        b.accepted, b.moves
                    ));
                }
            }
        }

        if self.cache_hit_ratio().is_some() {
            let hits = self.counters.get("eval.cache.hit").map_or(0.0, |c| c.1) as u64;
            let misses = self.counters.get("eval.cache.miss").map_or(0.0, |c| c.1) as u64;
            out.push_str(&format!(
                "\nevaluator cache: {} hits / {} misses ({:.1}% hit ratio)\n",
                hits,
                misses,
                100.0 * self.cache_hit_ratio().unwrap_or(0.0)
            ));
        }

        if let Some(ratio) = self.screen_decisive_ratio() {
            out.push_str(&format!(
                "\nsurrogate screen: {} decisive / {} ambiguous ({:.1}% skipped the exact solve)\n",
                self.counter_total("eval.surrogate.screened") as u64,
                self.counter_total("eval.surrogate.ambiguous") as u64,
                100.0 * ratio
            ));
        }

        if self.cg_solves > 0 {
            out.push_str(&format!(
                "\nthermal CG: {} solves, mean {:.1} / max {} iterations, {} warm-started\n",
                self.cg_solves,
                self.mean_cg_iters().unwrap_or(0.0),
                self.cg_iters_max,
                self.cg_warm
            ));
            for (p, n) in &self.cg_by_precond {
                out.push_str(&format!("  preconditioner {p}: {n} solves\n"));
            }
            if self.leak_phases > 0 {
                out.push_str(&format!(
                    "  leakage co-iteration: {} phases, mean {:.1} iterations\n",
                    self.leak_phases,
                    self.leak_iters_total as f64 / self.leak_phases as f64
                ));
            }
        }

        if self.batch_count > 0 {
            out.push_str(&format!(
                "\nbatched solves: {} batches, {} systems (largest {}, mean size {:.1})\n",
                self.batch_count,
                self.batch_systems,
                self.batch_max,
                self.batch_systems as f64 / self.batch_count as f64,
            ));
            out.push_str(&format!(
                "  {} fused multi-RHS sweeps; mean retire iteration {:.1}\n",
                self.batch_fused_sweeps,
                self.batch_retire_total as f64 / self.batch_systems.max(1) as f64,
            ));
            for (p, n) in &self.batch_by_precond {
                out.push_str(&format!("  preconditioner {p}: {n} batches\n"));
            }
        }

        // Counters other than those already folded into sections above.
        let misc: Vec<_> = self
            .counters
            .iter()
            .filter(|(k, _)| !k.starts_with("eval.cache.") && !k.starts_with("eval.surrogate."))
            .collect();
        if !misc.is_empty() {
            out.push_str("\ncounters:\n");
            for (name, (count, total)) in misc {
                out.push_str(&format!("  {name}: {count} samples, total {total}\n"));
            }
        }
        out
    }
}

/// Microseconds as a human-scaled duration.
fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2} s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{us} us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> String {
        [
            r#"{"ts_us":1,"tid":0,"kind":"span","name":"eval.design","dur_us":5000,"depth":0}"#,
            r#"{"ts_us":2,"tid":0,"kind":"span","name":"eval.design","dur_us":7000,"depth":0}"#,
            r#"{"ts_us":3,"tid":1,"kind":"span","name":"msa.start","dur_us":90000,"depth":0,"f":{"delta":0.89,"feasible":true}}"#,
            r#"{"ts_us":4,"tid":0,"kind":"counter","name":"eval.cache.hit","value":1}"#,
            r#"{"ts_us":5,"tid":0,"kind":"counter","name":"eval.cache.hit","value":1}"#,
            r#"{"ts_us":6,"tid":0,"kind":"counter","name":"eval.cache.miss","value":1}"#,
            r#"{"ts_us":7,"tid":1,"kind":"event","name":"msa.temp","f":{"t":19.0,"moves":10,"accepted":6}}"#,
            r#"{"ts_us":8,"tid":1,"kind":"event","name":"msa.temp","f":{"t":16.91,"moves":10,"accepted":2}}"#,
            r#"{"ts_us":9,"tid":0,"kind":"event","name":"thermal.cg","f":{"n":4096,"precond":"multigrid","warm":false,"iters":12,"residual":1e-10}}"#,
            r#"{"ts_us":10,"tid":0,"kind":"event","name":"thermal.cg","f":{"n":4096,"precond":"multigrid","warm":true,"iters":4,"residual":2e-10}}"#,
            r#"{"ts_us":11,"tid":0,"kind":"event","name":"eval.phase","f":{"leak_iters":3,"power_w":9.5,"peak_c":71.0,"runaway":false}}"#,
            r#"{"ts_us":11,"tid":0,"kind":"event","name":"thermal.batch","f":{"n":4096,"batch":3,"precond":"multigrid","fused_sweeps":40,"retire_iters":[12,9,15]}}"#,
            r#"{"ts_us":12,"tid":0,"kind":"event","name":"thermal.batch","f":{"n":256,"batch":2,"precond":"surrogate","fused_sweeps":30,"retire_iters":[10,14]}}"#,
            r#"{"ts_us":12,"tid":0,"kind":"counter","name":"eval.surrogate.screened","value":1}"#,
            r#"{"ts_us":13,"tid":0,"kind":"counter","name":"eval.surrogate.screened","value":1}"#,
            r#"{"ts_us":14,"tid":0,"kind":"counter","name":"eval.surrogate.screened","value":1}"#,
            r#"{"ts_us":15,"tid":0,"kind":"counter","name":"eval.surrogate.ambiguous","value":1}"#,
        ]
        .join("\n")
    }

    #[test]
    fn aggregates_the_headline_ratios() {
        let s = Summary::from_jsonl(&sample_trace()).expect("valid trace");
        assert_eq!(s.events, 17);
        assert_eq!(s.threads.len(), 2);
        assert!((s.msa_acceptance_rate().unwrap() - 0.4).abs() < 1e-12);
        assert!((s.cache_hit_ratio().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_cg_iters().unwrap() - 8.0).abs() < 1e-12);
        assert_eq!(s.cg_warm, 1);
        assert_eq!(s.cg_iters_max, 12);
        // 3 decisive screens vs 1 ambiguous.
        assert!((s.screen_decisive_ratio().unwrap() - 0.75).abs() < 1e-12);
        // Two thermal.batch events: 3 + 2 systems, 40 + 30 fused sweeps,
        // retire iterations totalling 60 over 5 systems.
        assert_eq!(s.batch_count, 2);
        assert_eq!(s.batch_systems, 5);
        assert_eq!(s.batch_max, 3);
        assert_eq!(s.batch_fused_sweeps, 70);
        assert_eq!(s.batch_retire_total, 60);
    }

    #[test]
    fn render_contains_every_section() {
        let s = Summary::from_jsonl(&sample_trace()).expect("valid trace");
        let r = s.render();
        for needle in [
            "per-phase wall time",
            "eval.design",
            "acceptance-rate curve",
            "T=19",
            "evaluator cache: 2 hits / 1 misses",
            "surrogate screen: 3 decisive / 1 ambiguous (75.0% skipped the exact solve)",
            "thermal CG: 2 solves",
            "preconditioner multigrid: 2 solves",
            "leakage co-iteration: 1 phases",
            "batched solves: 2 batches, 5 systems (largest 3, mean size 2.5)",
            "70 fused multi-RHS sweeps; mean retire iteration 12.0",
            "preconditioner surrogate: 1 batches",
        ] {
            assert!(r.contains(needle), "report missing {needle:?}:\n{r}");
        }
        // Sectioned counters must not repeat in the generic counters table.
        assert!(!r.contains("eval.surrogate.screened:"), "{r}");
    }

    #[test]
    fn long_acceptance_curves_are_elided_in_the_middle() {
        let lines: Vec<String> = (0..30)
            .map(|i| {
                format!(
                    r#"{{"ts_us":{},"tid":0,"kind":"event","name":"msa.temp","f":{{"t":{}.5,"moves":10,"accepted":5}}}}"#,
                    i + 1,
                    30 - i
                )
            })
            .collect();
        let s = Summary::from_jsonl(&lines.join("\n")).expect("valid trace");
        let r = s.render();
        assert!(r.contains("... 18 more temperature steps ..."), "{r}");
        // Hottest and coldest steps survive the elision; the middle does not.
        assert!(r.contains("T=30.5"), "{r}");
        assert!(r.contains("T=1.5"), "{r}");
        assert!(!r.contains("T=15.5"), "{r}");
    }

    #[test]
    fn spans_sorted_by_total_time() {
        let s = Summary::from_jsonl(&sample_trace()).expect("valid trace");
        let r = s.render();
        let msa = r.find("msa.start").expect("msa row");
        let eval = r.find("eval.design").expect("eval row");
        assert!(msa < eval, "90 ms msa.start must precede 12 ms eval.design");
    }

    #[test]
    fn malformed_line_is_reported_with_its_number() {
        let text = format!("{}\nnot json\n", sample_trace());
        let err = Summary::from_jsonl(&text).expect_err("must fail");
        assert!(err.starts_with("line 18:"), "{err}");
    }

    #[test]
    fn empty_trace_renders_without_sections() {
        let s = Summary::from_jsonl("").expect("empty ok");
        let r = s.render();
        assert!(r.contains("0 events"));
        assert!(!r.contains("MSA optimizer"));
    }
}
