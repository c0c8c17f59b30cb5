//! In-memory spans and the per-layer ledger the traced runs print.
//!
//! A span records the wall time and the process CPU time of one call into
//! a layer. Spans nest: a layer's self time is its spans' duration minus
//! the spans opened inside them. The ledger compares the layers' summed
//! self time with a reference total — the CPU time of the untraced call
//! (campaign, sweep) or the summed client-side latency (serve) — and
//! reports what no span covers as `unattributed`.

use crate::sys::cpu_s;
use std::time::Instant;

struct Span {
    layer: &'static str,
    parent: Option<usize>,
    calls: u64,
    cpu_s: f64,
    wall_s: f64,
}

/// Handle of an open span, returned by [`Ledger::open`].
#[must_use = "a span must be closed"]
pub struct Open {
    id: usize,
    cpu0: f64,
    wall0: Instant,
}

/// Spans of one traced run, kept in memory until the report is printed.
#[derive(Default)]
pub struct Ledger {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Self time of one layer, summed over its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Calls the spans covered.
    pub calls: u64,
    /// Self CPU seconds.
    pub cpu_s: f64,
    /// Self wall seconds.
    pub wall_s: f64,
}

impl Ledger {
    /// Opens a span of `layer`; spans opened before it is closed are its
    /// children.
    pub fn open(&mut self, layer: &'static str) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            parent: self.stack.last().copied(),
            calls: 1,
            cpu_s: 0.0,
            wall_s: 0.0,
        });
        self.stack.push(id);
        Open {
            id,
            cpu0: cpu_s(),
            wall0: Instant::now(),
        }
    }

    /// Closes a span opened by [`Ledger::open`] (innermost first).
    pub fn close(&mut self, open: Open) {
        let wall = open.wall0.elapsed().as_secs_f64();
        let cpu = cpu_s() - open.cpu0;
        assert_eq!(
            self.stack.pop(),
            Some(open.id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[open.id];
        span.cpu_s = cpu;
        span.wall_s = wall;
    }

    /// Runs `f` inside one span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(layer);
        let out = f();
        self.close(open);
        out
    }

    /// Runs `f` inside one span of `layer` that stands for `calls` calls
    /// (a loop over calls too short to time one by one).
    pub fn time_calls<T>(&mut self, layer: &'static str, calls: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(layer);
        let id = open.id;
        let out = f();
        self.close(open);
        self.spans[id].calls = calls;
        out
    }

    /// Records time measured elsewhere (a per-call probe scaled by a call
    /// count, or a span taken on the other side of a socket) as a span of
    /// `layer` with no children.
    pub fn add(&mut self, layer: &'static str, calls: u64, cpu_s: f64, wall_s: f64) {
        self.spans.push(Span {
            layer,
            parent: self.stack.last().copied(),
            calls,
            cpu_s,
            wall_s,
        });
    }

    /// Self time per layer, in first-seen order.
    pub fn totals(&self) -> Vec<(&'static str, LayerTotal)> {
        let mut child_cpu = vec![0.0; self.spans.len()];
        let mut child_wall = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cpu[p] += s.cpu_s;
                child_wall[p] += s.wall_s;
            }
        }
        let mut out: Vec<(&'static str, LayerTotal)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let idx = match out.iter().position(|(l, _)| *l == s.layer) {
                Some(idx) => idx,
                None => {
                    out.push((s.layer, LayerTotal::default()));
                    out.len() - 1
                }
            };
            let t = &mut out[idx].1;
            t.calls += s.calls;
            t.cpu_s += s.cpu_s - child_cpu[i];
            t.wall_s += s.wall_s - child_wall[i];
        }
        out
    }

    /// Self time of one layer (zero when it has no spans).
    pub fn total(&self, layer: &str) -> LayerTotal {
        self.totals()
            .into_iter()
            .find(|(l, _)| *l == layer)
            .map(|(_, t)| t)
            .unwrap_or_default()
    }

    /// The ledger table: each layer's calls, self time and share of
    /// `reference_s`, then the unattributed rest. `use_cpu` picks CPU or
    /// wall self time. Returns the table and the unattributed share.
    pub fn report(&self, reference: &str, reference_s: f64, use_cpu: bool) -> (String, f64) {
        let mut out = format!(
            "ledger ({} self time against {reference} {reference_s:.4} s)\n",
            if use_cpu { "CPU" } else { "wall" }
        );
        out.push_str(&format!(
            "  {:<18} {:>9} {:>12} {:>8}\n",
            "layer", "calls", "self_s", "share"
        ));
        let mut covered = 0.0;
        for (layer, t) in self.totals() {
            let s = if use_cpu { t.cpu_s } else { t.wall_s };
            covered += s;
            out.push_str(&format!(
                "  {layer:<18} {:>9} {s:>12.4} {:>7.1}%\n",
                t.calls,
                100.0 * s / reference_s
            ));
        }
        let unattributed = (reference_s - covered) / reference_s;
        out.push_str(&format!(
            "  {:<18} {:>9} {:>12.4} {:>7.1}%\n",
            "unattributed",
            "",
            reference_s - covered,
            100.0 * unattributed
        ));
        (out, unattributed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut l = Ledger::default();
        let outer = l.open("eval");
        l.add("thermal.solve", 2, 0.3, 0.25);
        l.add("thermal.solve", 1, 0.1, 0.05);
        l.close(outer);
        // Replace the measured outer duration with a known one.
        l.spans[0].cpu_s = 1.0;
        l.spans[0].wall_s = 0.5;
        l.add("anneal", 7, 0.2, 0.2);
        let eval = l.total("eval");
        assert!((eval.cpu_s - 0.6).abs() < 1e-12 && (eval.wall_s - 0.2).abs() < 1e-12);
        assert_eq!(l.total("thermal.solve").calls, 3);
        assert_eq!(l.total("missing"), LayerTotal::default());
        let (table, unattributed) = l.report("cpu", 2.0, true);
        // eval 0.6 + solve 0.4 + anneal 0.2 of 2.0.
        assert!((unattributed - 0.4).abs() < 1e-12, "{table}");
        assert!(table.contains("unattributed"));
    }

    #[test]
    fn time_calls_records_the_call_count() {
        let mut l = Ledger::default();
        let v = l.time_calls("prelude", 40, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(l.total("prelude").calls, 40);
        assert!(l.total("prelude").wall_s >= 0.0);
    }
}
