//! `serve`: `tesa serve --grid-cells 32` over loopback, driven by one
//! closed-loop client per core. The traffic mix is ~70 % `/evaluate` of a
//! 16-design hot set primed during set-up, ~20 % `/evaluate` of designs
//! never seen before, and ~10 % `/screen` of never-seen designs, drawn
//! from the Table II space (2D, 400 MHz) at 30 fps / 75 °C.
//!
//! It is the only workload where HTTP, the admission queue, the single
//! dispatcher, `Session::run_batch` and the memo carry most of the time.
//! At 32 cells per side the thermal solve takes the Jacobi path, and
//! `/screen` is the only traffic that uses the batched solve. Clients are
//! closed-loop because design-space clients wait for each answer.

use crate::ledger::Ledger;
use crate::prom::Scrape;
use crate::replay;
use crate::stats::{median, percentile, tail};
use crate::sys::{
    host_jiffies, nproc, peak_rss_mib, proc_cpu_s, steal_frac, tesa_binary, work_dir,
};
use crate::{layers, Args, Outcome};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tesa::design::{DesignSpace, Integration, McmDesign};
use tesa::eval::{EvalOptions, Evaluator};
use tesa::report::evaluation_json;
use tesa::session::{Query, Session};
use tesa::Constraints;
use tesa_util::http::Response;
use tesa_util::{json, Json, Rng};
use tesa_workloads::arvr_suite;

const GRID_CELLS: usize = 32;
const HOT_SET: usize = 16;
/// Daemon start-ups (spawn to listening, plus priming) per run; the
/// median is reported and the last daemon serves the traffic.
const SETUPS: usize = 3;
/// Requests generated per run; the measured window ends long before.
const STREAM_LEN: usize = 50_000;
/// `/evaluate` answers of never-seen designs byte-compared per run.
const CHECKED_BODIES: usize = 24;
/// Never-seen designs per class replayed in process by the traced run.
const PROBE_DESIGNS: usize = 24;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Hot,
    Cold,
    Screen,
}

struct Request {
    kind: Kind,
    design: McmDesign,
    body: String,
}

fn constraints() -> Constraints {
    Constraints::edge_device(30.0, 75.0)
}

fn options() -> EvalOptions {
    EvalOptions {
        grid_cells: GRID_CELLS,
        ..EvalOptions::default()
    }
}

/// The hot set and the request stream for `seed`. The hot set takes one
/// design from each of [`HOT_SET`] contiguous strata of array sizes, so
/// every seed primes a similar mix of small and large chiplets; never-seen
/// designs come from a seeded permutation of the rest of the space, so
/// none repeats.
fn traffic(seed: u64) -> (Vec<McmDesign>, Vec<Request>) {
    let mut rng = Rng::seed_from_u64(seed);
    let space = DesignSpace::tesa_default();
    let n = space.array_dims.len();
    let hot: Vec<McmDesign> = (0..HOT_SET)
        .map(|s| {
            let dims = &space.array_dims[s * n / HOT_SET..(s + 1) * n / HOT_SET];
            let restricted = DesignSpace {
                array_dims: dims.to_vec(),
                ..space.clone()
            };
            let all: Vec<McmDesign> = restricted.designs(Integration::TwoD, 400).collect();
            all[rng.gen_range(0..all.len())]
        })
        .collect();
    let mut rest: Vec<McmDesign> = space
        .designs(Integration::TwoD, 400)
        .filter(|d| !hot.contains(d))
        .collect();
    rng.shuffle(&mut rest);
    let mut fresh = rest.into_iter();
    let c = constraints();
    let mut reqs = Vec::with_capacity(STREAM_LEN);
    while reqs.len() < STREAM_LEN {
        let u = rng.next_f64();
        let (kind, design) = if u < 0.7 {
            (Kind::Hot, hot[rng.gen_range(0..HOT_SET)])
        } else {
            let Some(d) = fresh.next() else { break };
            (if u < 0.9 { Kind::Cold } else { Kind::Screen }, d)
        };
        let body = layers::evaluate_body(&design, &c).to_string();
        reqs.push(Request { kind, design, body });
    }
    (hot, reqs)
}

/// A running `tesa serve` child; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(bin: &std::path::Path, campaign_dir: &std::path::Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--port",
                "0",
                "--grid-cells",
                &GRID_CELLS.to_string(),
            ])
            .arg("--campaign-dir")
            .arg(campaign_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_owned();
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request's client-side measurements.
struct Sample {
    index: usize,
    status: u16,
    latency_s: f64,
    connect_s: f64,
    body: Option<String>,
}

/// Sends one request over a fresh connection; times the connect and the
/// whole exchange (connect to the last byte of the response).
fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(Response, f64, f64), String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let connect_s = t0.elapsed().as_secs_f64();
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    stream
        .write_all(body.as_bytes())
        .map_err(|e| e.to_string())?;
    let response = Response::read_from(&mut BufReader::new(stream)).map_err(|e| e.to_string())?;
    Ok((response, t0.elapsed().as_secs_f64(), connect_s))
}

fn path_of(kind: Kind) -> &'static str {
    if kind == Kind::Screen {
        "/screen"
    } else {
        "/evaluate"
    }
}

fn scrape(addr: &str) -> Result<Scrape, String> {
    let (r, _, _) = exchange(addr, "GET", "/metrics", "")?;
    Scrape::parse(r.body_str().map_err(|e| e.to_string())?)
}

/// Spawns a daemon and primes the hot set; returns it with the set-up
/// time (spawn to listening plus priming).
fn start(
    bin: &std::path::Path,
    hot: &[McmDesign],
    dir: &std::path::Path,
) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin, dir)?;
    let c = constraints();
    for d in hot {
        let (r, _, _) = exchange(
            &daemon.addr,
            "POST",
            "/evaluate",
            &layers::evaluate_body(d, &c).to_string(),
        )?;
        if r.status != 200 {
            return Err(format!("priming {d} answered {}", r.status));
        }
    }
    Ok((daemon, t0.elapsed().as_secs_f64()))
}

/// Indices of the never-seen `/evaluate` requests whose bodies are kept
/// for the byte comparison: a seeded choice among the first ones sent.
fn checked_indices(reqs: &[Request], seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xB0D1);
    let cold: Vec<usize> = reqs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.kind == Kind::Cold)
        .map(|(i, _)| i)
        .take(400)
        .collect();
    let mut picked: Vec<usize> = (0..CHECKED_BODIES)
        .map(|_| cold[rng.gen_range(0..cold.len())])
        .collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// The closed loop: `nproc` clients each send the stream's next request
/// as soon as their previous one is answered, until `seconds` elapse.
fn drive(addr: &str, reqs: &[Request], keep: &[usize], seconds: Duration) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..nproc() {
            scope.spawn(|| {
                let mut mine = Vec::new();
                while t0.elapsed() < seconds {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(r) = reqs.get(index) else { break };
                    let sample = match exchange(addr, "POST", path_of(r.kind), &r.body) {
                        Ok((resp, latency_s, connect_s)) => {
                            let wanted =
                                keep.binary_search(&index).is_ok() || r.kind == Kind::Screen;
                            let body =
                                wanted.then(|| String::from_utf8_lossy(&resp.body).into_owned());
                            Sample {
                                index,
                                status: resp.status,
                                latency_s,
                                connect_s,
                                body,
                            }
                        }
                        Err(e) => {
                            eprintln!("request {index} failed: {e}");
                            Sample {
                                index,
                                status: 0,
                                latency_s: 0.0,
                                connect_s: 0.0,
                                body: None,
                            }
                        }
                    };
                    mine.push(sample);
                }
                samples.lock().expect("sample lock").extend(mine);
            });
        }
    });
    let window = t0.elapsed().as_secs_f64();
    let mut samples = samples.into_inner().expect("sample lock");
    samples.sort_by_key(|s| s.index);
    (samples, window)
}

/// Byte-compares the kept `/evaluate` bodies with an in-process
/// evaluation, and checks every decisive `/screen` verdict against the
/// exact feasibility verdict.
fn check(reqs: &[Request], samples: &[Sample]) -> bool {
    let c = constraints();
    let exact = Evaluator::new(arvr_suite(), options());
    let lazy = Evaluator::new(
        arvr_suite(),
        EvalOptions {
            lazy: true,
            ..options()
        },
    );
    let (mut bodies, mut screens, mut ok) = (0, 0, true);
    for s in samples.iter().filter(|s| s.status == 200) {
        let (Some(body), r) = (&s.body, &reqs[s.index]) else {
            continue;
        };
        match r.kind {
            Kind::Cold => {
                bodies += 1;
                let want = format!("{}\n", evaluation_json(&exact.evaluate(&r.design, &c)));
                if *body != want {
                    println!(
                        "serve: /evaluate body for {} differs from the in-process evaluation",
                        r.design
                    );
                    ok = false;
                }
            }
            Kind::Screen => {
                let verdict = json::parse(body)
                    .ok()
                    .and_then(|j| j.get("verdict").and_then(Json::as_str).map(str::to_owned));
                let claimed = match verdict.as_deref() {
                    Some("clearly_feasible") => Some(true),
                    Some("clearly_infeasible") => Some(false),
                    Some("ambiguous") => None,
                    _ => {
                        println!("serve: malformed /screen answer {body:?}");
                        ok = false;
                        None
                    }
                };
                if let Some(feasible) = claimed {
                    screens += 1;
                    if lazy.evaluate(&r.design, &c).is_feasible() != feasible {
                        println!(
                            "serve: decisive /screen verdict for {} contradicts the exact verdict",
                            r.design
                        );
                        ok = false;
                    }
                }
            }
            Kind::Hot => {}
        }
    }
    println!("serve checks: {bodies} /evaluate bodies byte-compared, {screens} decisive /screen verdicts checked, ok={ok}");
    ok
}

/// `(attempted, failed)`: every request sent, and those not answered
/// with 200 (refused, failed, or lost on the socket).
fn accounting(samples: &[Sample]) -> (u64, u64) {
    (
        samples.len() as u64,
        samples.iter().filter(|s| s.status != 200).count() as u64,
    )
}

fn latencies_ms(samples: &[Sample], reqs: &[Request], kind: Option<Kind>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.status == 200 && kind.is_none_or(|k| reqs[s.index].kind == k))
        .map(|s| s.latency_s * 1e3)
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = tesa_binary()?;
    let (hot, reqs) = traffic(args.seed);
    let dir = work_dir("serve")?;
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        drop(daemon.take());
        let (d, s) = start(&bin, &hot, &dir)?;
        setups.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let keep = checked_indices(&reqs, args.seed);
    let before = scrape(&daemon.addr)?;
    let stats_before = stats(&daemon.addr)?;
    let jiffies = host_jiffies();
    let cpu0 = proc_cpu_s(daemon.pid())?;
    let (samples, window) = drive(&daemon.addr, &reqs, &keep, args.seconds);
    let daemon_cpu = proc_cpu_s(daemon.pid())? - cpu0;
    let steal = steal_frac(jiffies, host_jiffies());
    let reg = scrape(&daemon.addr)?.since(&before);
    let stats_after = stats(&daemon.addr)?;
    let rss = peak_rss_mib(&daemon.pid().to_string())?;
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);

    let (attempted, failed) = accounting(&samples);
    let mut out = Outcome {
        correct: check(&reqs, &samples),
        attempted,
        failed,
        ..Outcome::default()
    };
    let all = latencies_ms(&samples, &reqs, None);
    let hits = latencies_ms(&samples, &reqs, Some(Kind::Hot));
    let cold = latencies_ms(&samples, &reqs, Some(Kind::Cold));
    let fmt_tail =
        |xs: &[f64]| tail(xs).map_or("n/a".into(), |(label, v)| format!("{label}={v:.3}"));
    println!(
        "serve requests={} (hot {}, cold {}, screen {}) window_s={window:.3} error_frac={} nproc={} steal_frac={steal:.4}",
        samples.len(),
        hits.len(),
        cold.len(),
        samples.len() - hits.len() - cold.len(),
        failed as f64 / samples.len().max(1) as f64,
        nproc(),
    );
    println!(
        "latency_ms all: p50={:.3} {} | hot: p50={:.3} {} | cold: p50={:.3} {}",
        median(&all),
        fmt_tail(&all),
        median(&hits),
        fmt_tail(&hits),
        median(&cold),
        fmt_tail(&cold),
    );
    if let Some(p99) = percentile(&all, 990) {
        println!("latency_p99_ms = {p99} ms ({} samples)", all.len());
    }
    let completed = attempted - failed;
    if args.trace {
        traced(
            &mut out,
            &reqs,
            &samples,
            &reg,
            (&stats_before, &stats_after),
            window,
            daemon_cpu,
        )?;
        return Ok(out);
    }
    out.set(
        "latency_mean_ms",
        all.iter().sum::<f64>() / all.len().max(1) as f64,
    );
    out.set("throughput_per_s", completed as f64 / window);
    out.set("cpu_ms_per_op", daemon_cpu * 1e3 / completed.max(1) as f64);
    out.set("peak_rss_mb", rss);
    out.set("setup_s", median(&setups));
    Ok(out)
}

fn stats(addr: &str) -> Result<Json, String> {
    let (r, _, _) = exchange(addr, "GET", "/stats", "")?;
    json::parse(r.body_str().map_err(|e| e.to_string())?)
}

/// Memo `(hits, misses)` of the daemon's evaluator from a `/stats` body.
fn memo(stats: &Json) -> (f64, f64) {
    let m = stats.get("session").and_then(|s| s.get("eval_cache"));
    let field = |f: &str| {
        m.and_then(|m| m.get(f))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    (field("hits"), field("misses"))
}

/// The serve ledger, against the summed client-side latency: the client's
/// connect spans, the daemon's own request spans
/// (`tesa_serve_request_duration_us`), and inside them the session work
/// per request class, measured in process on the run's own queries.
fn traced(
    out: &mut Outcome,
    reqs: &[Request],
    samples: &[Sample],
    reg: &Scrape,
    stats: (&Json, &Json),
    window: f64,
    daemon_cpu: f64,
) -> Result<(), String> {
    let c = constraints();
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.status == 200).collect();
    let count = |k: Kind| ok.iter().filter(|s| reqs[s.index].kind == k).count();
    let (n_hot, n_cold, n_screen) = (count(Kind::Hot), count(Kind::Cold), count(Kind::Screen));
    let client_s: f64 = ok.iter().map(|s| s.latency_s).sum();
    let connect_s: f64 = ok.iter().map(|s| s.connect_s).sum();
    let server_s = (reg
        .count_sum("tesa_serve_request_duration_us", r#"endpoint="evaluate""#)
        .1
        + reg
            .count_sum("tesa_serve_request_duration_us", r#"endpoint="screen""#)
            .1)
        * 1e-6;

    // Per-class session costs on the run's own never-seen designs.
    let served = |k: Kind| -> Vec<McmDesign> {
        ok.iter()
            .filter(|s| reqs[s.index].kind == k)
            .map(|s| reqs[s.index].design)
            .take(PROBE_DESIGNS)
            .collect()
    };
    let (cold_designs, screen_designs) = (served(Kind::Cold), served(Kind::Screen));
    let session = Session::new(Evaluator::new(arvr_suite(), options()));
    let per_query_s = |designs: &[McmDesign], make: fn(Json) -> Query| -> f64 {
        let times: Vec<f64> = designs
            .iter()
            .map(|d| {
                let q = make(layers::evaluate_body(d, &c));
                let t0 = Instant::now();
                std::hint::black_box(session.run_batch(std::slice::from_ref(&q)));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        if times.is_empty() {
            0.0
        } else {
            times.iter().sum::<f64>() / times.len() as f64
        }
    };
    let cold_s = per_query_s(&cold_designs, Query::evaluate);
    let screen_s = per_query_s(&screen_designs, Query::screen);
    let hot_queries: Vec<Query> = cold_designs
        .iter()
        .map(|d| Query::evaluate(layers::evaluate_body(d, &c)))
        .collect();
    let hit_us = layers::session_hit_us(&session, &hot_queries);

    // Split the cold evaluations by layer with the replay, scaled from
    // the sample to every never-seen /evaluate of the run.
    let mut sample_ledger = Ledger::default();
    let replayed = replay::replay(&options(), &cold_designs, &c, false, &mut sample_ledger);
    let scale = n_cold as f64 / cold_designs.len().max(1) as f64;
    let mut ledger = Ledger::default();
    ledger.add("http.connect", ok.len() as u64, 0.0, connect_s);
    ledger.add(
        "session.hit",
        n_hot as u64,
        0.0,
        n_hot as f64 * hit_us * 1e-6,
    );
    let mut cold_layers = 0.0;
    for (layer, t) in sample_ledger.totals() {
        ledger.add(
            layer,
            (t.calls as f64 * scale) as u64,
            0.0,
            t.wall_s * scale,
        );
        cold_layers += t.wall_s * scale;
    }
    ledger.add(
        "session.cold",
        n_cold as u64,
        0.0,
        n_cold as f64 * cold_s - cold_layers,
    );
    ledger.add(
        "surrogate",
        n_screen as u64,
        0.0,
        n_screen as f64 * screen_s,
    );
    let work = n_hot as f64 * hit_us * 1e-6 + n_cold as f64 * cold_s + n_screen as f64 * screen_s;
    ledger.add("serve.dispatch", ok.len() as u64, 0.0, server_s - work);
    let (table, unattributed) = ledger.report("summed client latency", client_s, false);
    print!("{table}");

    let per_call = |l: &Ledger, layer: &str, unit: f64| {
        let t = l.total(layer);
        if t.calls == 0 {
            0.0
        } else {
            t.wall_s * unit / t.calls as f64
        }
    };
    let pairs: std::collections::HashSet<(u32, u64)> = ok
        .iter()
        .filter(|s| reqs[s.index].kind != Kind::Hot)
        .map(|s| {
            (
                reqs[s.index].design.chiplet.array_dim,
                reqs[s.index].design.chiplet.sram_kib_per_bank,
            )
        })
        .collect();
    out.set(
        "scalesim.ms_per_pair",
        per_call(&sample_ledger, "scalesim", 1e3),
    );
    out.set("scalesim.pairs", pairs.len() as f64);
    out.set(
        "prelude.us_per_design",
        per_call(&sample_ledger, "prelude", 1e6),
    );
    out.set("prelude.designs", (n_cold + n_screen) as f64);
    out.set("prelude.lazy_skip_frac", 0.0);
    out.set(
        "thermal.model.build_ms",
        per_call(&sample_ledger, "thermal.model", 1e3),
    );
    out.set("thermal.model.builds", replayed.builds as f64 * scale);
    out.set("thermal.model.mb", replayed.model_mib);
    out.set(
        "thermal.solve.ms",
        per_call(&sample_ledger, "thermal.solve", 1e3),
    );
    layers::registry_metrics(out, reg);
    let ev = session.evaluator();
    out.correct &= replay::matches_program(&replayed.peaks, ev, &c);
    let exact: Vec<McmDesign> = replayed.peaks.iter().map(|p| p.0).collect();
    layers::probes(out, ev, &options(), &exact, &c);
    out.set(
        "eval.solves_per_design",
        replayed.solves as f64 / replayed.exact.max(1) as f64,
    );
    out.set(
        "eval.leak_iters_per_phase",
        replayed.solves as f64 / replayed.phases.max(1) as f64,
    );
    out.set("eval.exact", replayed.exact as f64 * scale);
    let ((h0, m0), (h1, m1)) = (memo(stats.0), memo(stats.1));
    out.set(
        "eval.memo_hit_frac",
        (h1 - h0) / ((h1 - h0) + (m1 - m0)).max(1.0),
    );
    out.set(
        "eval.memo_hit_us",
        layers::memo_hit_us(ev, &cold_designs, &c),
    );
    out.set("anneal.unique", 0.0);
    out.set("anneal.accept_frac", 0.0);
    out.set("pool.busy_cores", daemon_cpu / window);
    out.set("pool.lane_per_core_wall_ratio", 0.0);
    let (batches_served, jobs) = reg.count_sum("tesa_serve_batch_size", "");
    out.set("serve.batch_size", jobs / batches_served.max(1.0));
    out.set("serve.rejected", reg.get("tesa_serve_rejected_busy_total"));
    out.set(
        "thermal.solve.share",
        ledger.total("thermal.solve").wall_s / client_s,
    );
    out.set("unattributed_frac", unattributed);

    let q = |label: &str, p: f64| {
        reg.quantile("tesa_serve_request_duration_us", label, p)
            .map_or("n/a".into(), |v| format!("{v}"))
    };
    let hits_ms: Vec<f64> = latencies_ms(samples, reqs, Some(Kind::Hot));
    let n = ok.len().max(1) as f64;
    println!(
        "serve.server_p50_us={} serve.server_p99_us={} (evaluate endpoint, daemon histogram)",
        q(r#"endpoint="evaluate""#, 0.5),
        q(r#"endpoint="evaluate""#, 0.99)
    );
    println!(
        "serve.stack_us={:.1} serve.hit_p99_ms={} http.connect_us={:.1} session.hit_us={hit_us:.1}",
        median(&hits_ms) * 1e3 - hit_us,
        percentile(&hits_ms, 990).map_or("n/a".into(), |v| format!("{v:.3}")),
        connect_s * 1e6 / n,
    );
    println!(
        "cold /evaluate in process: {:.3} ms per query; /screen: {:.3} ms; the client spans are the untraced run's own timestamps (overhead 0)",
        cold_s * 1e3,
        screen_s * 1e3
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use tesa_util::http::Request as HttpRequest;

    #[test]
    fn same_seed_same_stream() {
        let (hot_a, a) = traffic(11);
        let (hot_b, b) = traffic(11);
        assert_eq!(hot_a, hot_b);
        assert_eq!(a.len(), STREAM_LEN);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.kind == y.kind && x.body == y.body));
        let (_, c) = traffic(12);
        assert!(a.iter().zip(&c).take(100).any(|(x, y)| x.body != y.body));
    }

    #[test]
    fn stream_follows_the_mix_and_never_repeats_a_fresh_design() {
        let (hot, reqs) = traffic(3);
        let mut fresh = std::collections::HashSet::new();
        for r in reqs.iter().filter(|r| r.kind != Kind::Hot) {
            assert!(
                !hot.contains(&r.design),
                "a never-seen design is in the hot set"
            );
            assert!(
                fresh.insert(r.design),
                "never-seen design {} repeats",
                r.design
            );
        }
        let share =
            |k: Kind| reqs.iter().filter(|r| r.kind == k).count() as f64 / reqs.len() as f64;
        assert!((share(Kind::Hot) - 0.7).abs() < 0.02);
        assert!((share(Kind::Cold) - 0.2).abs() < 0.02);
        assert!((share(Kind::Screen) - 0.1).abs() < 0.02);
    }

    /// Every request the closed loop sends is counted once, as answered or
    /// failed, and the server saw exactly those requests.
    #[test]
    fn closed_loop_accounts_for_every_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (_, reqs) = traffic(5);
        let stop = AtomicBool::new(false);
        let served = AtomicUsize::new(0);
        let samples = std::thread::scope(|scope| {
            scope.spawn(|| {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let mut stream = stream.unwrap();
                    let req =
                        HttpRequest::read_from(&mut BufReader::new(stream.try_clone().unwrap()))
                            .unwrap();
                    served.fetch_add(1, Ordering::SeqCst);
                    // Refuse screens, answer everything else.
                    let status = if req.target == "/screen" { 429 } else { 200 };
                    Response::json(status, &Json::obj([("ok", Json::Bool(status == 200))]))
                        .write_to(&mut stream)
                        .unwrap();
                }
            });
            let (samples, _) = drive(&addr, &reqs, &[], Duration::from_millis(300));
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(&addr);
            samples
        });
        let (attempted, failed) = accounting(&samples);
        let answered = samples.iter().filter(|s| s.status == 200).count() as u64;
        assert!(attempted > 0);
        assert_eq!(attempted, answered + failed);
        assert_eq!(attempted as usize, served.load(Ordering::SeqCst));
        // Requests are taken from the stream in order, each exactly once.
        assert!(samples.iter().enumerate().all(|(i, s)| s.index == i));
        let screens = samples
            .iter()
            .filter(|s| reqs[s.index].kind == Kind::Screen)
            .count() as u64;
        assert_eq!(failed, screens);
    }
}
