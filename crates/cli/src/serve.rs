//! `tesa serve` — the resident evaluation daemon — and `tesa client`,
//! its scripting companion.
//!
//! The daemon binds a `TcpListener`, answers the HTTP endpoints
//! documented in `docs/API.md` (`POST /evaluate`, `POST /screen`,
//! `POST /optimize`, `GET /healthz`, `GET /stats`, `GET /metrics`,
//! `GET /campaigns`, `GET /campaigns/<name>/progress`), and keeps one
//! [`tesa::session::Session`] — and therefore one warm
//! [`tesa::eval::Evaluator`] — alive across requests.
//!
//! Observability: every request bumps a per-endpoint counter and latency
//! histogram in the process-wide [`tesa_util::metrics`] registry, which
//! `GET /metrics` renders as Prometheus text exposition; `GET /stats`
//! stays as a JSON view over the same atomics. Running campaigns publish
//! live annealer state through [`tesa::progress`], streamed by
//! `GET /campaigns/<name>/progress`.
//!
//! Request flow: connection threads parse HTTP and push evaluate/screen
//! jobs into a bounded admission queue (full queue ⇒ immediate `429` with
//! `Retry-After`); a single dispatcher thread drains up to `--batch-max`
//! jobs at a time and fans the micro-batch out across the persistent
//! worker pool via [`tesa::session::Session::run_batch`]. `/optimize`
//! campaigns run on their own threads under the PR-5 checkpoint
//! machinery: every campaign continuously checkpoints into
//! `--campaign-dir`, and a daemon restarted over the same directory
//! resumes unfinished campaigns before accepting traffic — the smoke
//! suite kills the daemon mid-campaign and asserts the resumed report is
//! byte-identical to an uninterrupted one-shot run.

use crate::args::Args;
use crate::commands::CliError;
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tesa::anneal::{optimize_checkpointed, CheckpointPolicy, MsaConfig};
use tesa::design::DesignSpace;
use tesa::eval::{EvalOptions, Evaluator};
use tesa::session::{self, ApiError, Query, Session};
use tesa::Objective;
use tesa_util::http::{self, Request, Response};
use tesa_util::{faultpoint, json, metrics, trace, Json};
use tesa_workloads::arvr_suite;

/// Per-connection socket timeout. Evaluations take milliseconds and
/// campaigns minutes, so this bounds only how long a dead peer can pin a
/// connection thread, not how long work may run.
const IO_TIMEOUT: Duration = Duration::from_secs(600);

/// The `Content-Type` of Prometheus text exposition format 0.0.4.
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// One endpoint's pair of always-on series: a request counter and a
/// latency histogram, both labelled `endpoint="…"` so every endpoint
/// shares the same two metric families.
struct EndpointMetrics {
    requests: metrics::Counter,
    duration_us: metrics::Histogram,
}

const fn endpoint_metrics(
    labels: &'static [(&'static str, &'static str)],
) -> EndpointMetrics {
    EndpointMetrics {
        requests: metrics::Counter::with_labels(
            "tesa_serve_requests_total",
            "HTTP requests answered, by endpoint.",
            labels,
        ),
        duration_us: metrics::Histogram::with_labels(
            "tesa_serve_request_duration_us",
            "Request wall-clock latency in microseconds (parse to close), by endpoint.",
            labels,
        ),
    }
}

static EP_HEALTHZ: EndpointMetrics = endpoint_metrics(&[("endpoint", "healthz")]);
static EP_STATS: EndpointMetrics = endpoint_metrics(&[("endpoint", "stats")]);
static EP_METRICS: EndpointMetrics = endpoint_metrics(&[("endpoint", "metrics")]);
static EP_EVALUATE: EndpointMetrics = endpoint_metrics(&[("endpoint", "evaluate")]);
static EP_SCREEN: EndpointMetrics = endpoint_metrics(&[("endpoint", "screen")]);
static EP_OPTIMIZE: EndpointMetrics = endpoint_metrics(&[("endpoint", "optimize")]);
static EP_CAMPAIGNS: EndpointMetrics = endpoint_metrics(&[("endpoint", "campaigns")]);
static EP_PROGRESS: EndpointMetrics = endpoint_metrics(&[("endpoint", "progress")]);
static EP_OTHER: EndpointMetrics = endpoint_metrics(&[("endpoint", "other")]);

/// Every endpoint pair, for eager registration and routing.
static ENDPOINTS: [&EndpointMetrics; 9] = [
    &EP_HEALTHZ,
    &EP_STATS,
    &EP_METRICS,
    &EP_EVALUATE,
    &EP_SCREEN,
    &EP_OPTIMIZE,
    &EP_CAMPAIGNS,
    &EP_PROGRESS,
    &EP_OTHER,
];

// Daemon-level counters/gauges. These are the single source of truth:
// `GET /stats` reads the same atomics `GET /metrics` exposes.
static QUEUE_DEPTH: metrics::Gauge = metrics::Gauge::new(
    "tesa_serve_queue_depth",
    "Evaluate/screen jobs currently waiting in the admission queue.",
);
static BATCH_SIZE: metrics::Histogram = metrics::Histogram::new(
    "tesa_serve_batch_size",
    "Jobs per dispatcher micro-batch.",
);
static BATCHES: metrics::Counter =
    metrics::Counter::new("tesa_serve_batches_total", "Dispatcher micro-batches run.");
static BATCHED_JOBS: metrics::Counter = metrics::Counter::new(
    "tesa_serve_batched_jobs_total",
    "Evaluate/screen jobs answered through the dispatcher.",
);
static REJECTED_BUSY: metrics::Counter = metrics::Counter::new(
    "tesa_serve_rejected_busy_total",
    "Requests shed with 429 because the admission queue was full.",
);

/// Maps a request line to its endpoint's metric pair.
fn endpoint_of(method: &str, target: &str) -> &'static EndpointMetrics {
    match (method, target) {
        ("GET", "/healthz") => &EP_HEALTHZ,
        ("GET", "/stats") => &EP_STATS,
        ("GET", "/metrics") => &EP_METRICS,
        ("POST", "/evaluate") => &EP_EVALUATE,
        ("POST", "/screen") => &EP_SCREEN,
        ("POST", "/optimize") => &EP_OPTIMIZE,
        ("GET", "/campaigns") => &EP_CAMPAIGNS,
        ("GET", t) if campaign_progress_target(t).is_some() => &EP_PROGRESS,
        _ => &EP_OTHER,
    }
}

/// `/campaigns/<name>/progress` → `Some(name)`.
fn campaign_progress_target(target: &str) -> Option<&str> {
    let name = target.strip_prefix("/campaigns/")?.strip_suffix("/progress")?;
    if name.is_empty() || name.contains('/') { None } else { Some(name) }
}

/// One queued evaluate/screen job: the decoded query plus the channel the
/// dispatcher answers on.
struct Job {
    query: Query,
    trace_id: u64,
    reply: mpsc::Sender<Result<Json, ApiError>>,
}

/// Campaign lifecycle, keyed by name in [`Daemon::campaigns`].
enum Campaign {
    /// A thread is executing (or resuming) this campaign. The canonical
    /// request body detects conflicting re-submissions early.
    Running { request: String },
    /// The campaign finished; `report` is the exact response body.
    Done { request: String, report: String },
}

/// Shared state of one `tesa serve` process.
struct Daemon {
    session: Session,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    queue_depth: usize,
    batch_max: usize,
    grid_cells: usize,
    campaign_dir: PathBuf,
    campaigns: Mutex<HashMap<String, Campaign>>,
    campaigns_cv: Condvar,
    started: Instant,
    next_trace_id: AtomicU64,
}

/// `tesa serve [--port N] [--queue-depth N] [--batch-max N]
/// [--grid-cells N] [--campaign-dir PATH]` — run the evaluation daemon.
///
/// Prints one `listening on http://…` line (flushed, so harnesses can
/// read the ephemeral port) and then serves until killed.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let port: u16 = args.get_or("port", 0u16)?;
    let queue_depth: usize = args.get_or("queue-depth", 64usize)?;
    let batch_max: usize = args.get_or("batch-max", 16usize)?;
    let grid_cells: usize = args.get_or("grid-cells", EvalOptions::default().grid_cells)?;
    let campaign_dir =
        PathBuf::from(args.get("campaign-dir").unwrap_or("tesa-campaigns"));
    if queue_depth == 0 || batch_max == 0 {
        return Err(CliError { message: "--queue-depth and --batch-max must be >= 1".into() });
    }
    std::fs::create_dir_all(&campaign_dir)?;
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;

    // The shared exact evaluator behind /evaluate and /screen. Campaigns
    // build their own lazy evaluator per request, exactly as the one-shot
    // `tesa optimize` does, so campaign checkpoints and reports stay
    // interchangeable with the CLI's.
    let evaluator = Evaluator::new(
        arvr_suite(),
        EvalOptions { grid_cells, ..EvalOptions::default() },
    );
    let daemon = Arc::new(Daemon {
        session: Session::new(evaluator),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        queue_depth,
        batch_max,
        grid_cells,
        campaign_dir,
        campaigns: Mutex::new(HashMap::new()),
        campaigns_cv: Condvar::new(),
        started: Instant::now(),
        next_trace_id: AtomicU64::new(0),
    });

    // Register every daemon metric up front so the very first `/metrics`
    // scrape already shows each family at zero.
    for ep in ENDPOINTS {
        ep.requests.register();
        ep.duration_us.register();
    }
    QUEUE_DEPTH.register();
    BATCH_SIZE.register();
    BATCHES.register();
    BATCHED_JOBS.register();
    REJECTED_BUSY.register();

    let resumed = recover_campaigns(&daemon)?;
    if resumed > 0 {
        eprintln!("tesa serve: resuming {resumed} unfinished campaign(s)");
    }
    {
        let daemon = Arc::clone(&daemon);
        std::thread::Builder::new()
            .name("serve-dispatch".into())
            .spawn(move || dispatcher(&daemon))?;
    }

    println!(
        "tesa serve: listening on http://{addr} (queue {queue_depth}, batch {batch_max}, grid {grid_cells})"
    );
    std::io::stdout().flush()?;

    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                // A failed spawn (thread exhaustion) costs this connection,
                // which closes when the unstarted closure drops, and never
                // the daemon.
                let spawned = if faultpoint::fire("serve.conn.spawn") {
                    Err(std::io::Error::other("injected fault at serve.conn.spawn"))
                } else {
                    let daemon = Arc::clone(&daemon);
                    std::thread::Builder::new()
                        .name("serve-conn".into())
                        .spawn(move || handle_connection(&daemon, stream))
                        .map(drop)
                };
                if let Err(e) = spawned {
                    eprintln!("tesa serve: dropped a connection, thread spawn failed: {e}");
                }
            }
            Err(e) => eprintln!("tesa serve: accept failed: {e}"),
        }
    }
    Ok(String::new())
}

/// Drains micro-batches off the admission queue and fans them out across
/// the worker pool. A batch is whatever has accumulated when the
/// dispatcher comes back around, capped at `--batch-max` — under load,
/// concurrent requests ride the same pool broadcast.
fn dispatcher(daemon: &Arc<Daemon>) {
    loop {
        let batch: Vec<Job> = {
            let mut queue = daemon.queue.lock().expect("queue lock poisoned");
            while queue.is_empty() {
                queue = daemon.queue_cv.wait(queue).expect("queue lock poisoned");
            }
            let n = queue.len().min(daemon.batch_max);
            let batch: Vec<Job> = queue.drain(..n).collect();
            QUEUE_DEPTH.set(queue.len() as f64);
            batch
        };
        BATCHES.inc();
        BATCHED_JOBS.add(batch.len() as u64);
        BATCH_SIZE.record(batch.len() as u64);
        trace::event("serve.batch", || {
            vec![
                ("size", Json::u64(batch.len() as u64)),
                ("ids", Json::arr(batch.iter().map(|job| Json::u64(job.trace_id)))),
            ]
        });
        let queries: Vec<Query> = batch.iter().map(|job| job.query.clone()).collect();
        let results = daemon.session.run_batch(&queries);
        for (job, result) in batch.into_iter().zip(results) {
            // A closed receiver means the client hung up; drop the result.
            let _ = job.reply.send(result);
        }
    }
}

/// Serves one connection: parse, route, respond, close.
fn handle_connection(daemon: &Arc<Daemon>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let request = match Request::read_from(&mut reader) {
        Ok(request) => request,
        Err(e) => {
            let body = Json::obj([("error", Json::str(format!("bad request: {e}")))]);
            let _ = Response::json(400, &body).write_to(&mut writer);
            return;
        }
    };
    let trace_id = daemon.next_trace_id.fetch_add(1, Ordering::Relaxed) + 1;
    let started = Instant::now();
    // Count at entry, before routing: a `/metrics` scrape therefore
    // observes itself in `tesa_serve_requests_total{endpoint="metrics"}`.
    let ep = endpoint_of(request.method.as_str(), request.target.as_str());
    ep.requests.inc();
    let mut span = trace::span("serve.request");
    span.field("id", Json::u64(trace_id));
    span.field("method", Json::str(request.method.as_str()));
    span.field("target", Json::str(request.target.as_str()));
    let response = route(daemon, &request, trace_id);
    span.field("status", Json::u64(response.status));
    if let Err(e) = response.write_to(&mut writer) {
        eprintln!("tesa serve: request {trace_id}: write failed: {e}");
    }
    ep.duration_us.record_elapsed_us(started);
}

/// Maps one request to its endpoint handler.
fn route(daemon: &Arc<Daemon>, request: &Request, trace_id: u64) -> Response {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => Response::json(200, &Json::obj([("ok", Json::Bool(true))])),
        ("GET", "/stats") => Response::json(200, &stats_json(daemon)),
        ("GET", "/metrics") => Response::raw(
            200,
            metrics::render_prometheus().into_bytes(),
            PROMETHEUS_CONTENT_TYPE,
        ),
        ("GET", "/campaigns") => Response::json(200, &campaigns_json(daemon)),
        ("GET", target) if campaign_progress_target(target).is_some() => {
            let name = campaign_progress_target(target).expect("guard checked");
            campaign_progress_response(daemon, name)
        }
        ("POST", "/evaluate") => enqueue(daemon, request, trace_id, Query::evaluate),
        ("POST", "/screen") => enqueue(daemon, request, trace_id, Query::screen),
        ("POST", "/optimize") => run_campaign(daemon, request),
        ("GET" | "POST", _) => {
            let body = Json::obj([(
                "error",
                Json::str(format!("no such endpoint {} {}", request.method, request.target)),
            )]);
            Response::json(404, &body)
        }
        _ => {
            let body =
                Json::obj([("error", Json::str(format!("method {} not allowed", request.method)))]);
            Response::json(405, &body)
        }
    }
}

/// The `GET /stats` body: daemon-level queue/batch counters plus the
/// session's request and cache counters. Since PR 9 the batch and
/// rejection counts are plain JSON views over the metrics registry — the
/// same atomics `GET /metrics` renders.
fn stats_json(daemon: &Arc<Daemon>) -> Json {
    let queue_len = daemon.queue.lock().expect("queue lock poisoned").len();
    let campaigns = daemon.campaigns.lock().expect("campaign lock poisoned");
    let (running, done) = campaigns.values().fold((0u64, 0u64), |(r, d), c| match c {
        Campaign::Running { .. } => (r + 1, d),
        Campaign::Done { .. } => (r, d + 1),
    });
    drop(campaigns);
    Json::obj([
        ("uptime_s", Json::f64(daemon.started.elapsed().as_secs_f64())),
        ("queue_len", Json::u64(queue_len as u64)),
        ("queue_depth", Json::u64(daemon.queue_depth as u64)),
        ("batch_max", Json::u64(daemon.batch_max as u64)),
        ("batches", Json::u64(BATCHES.get())),
        ("batched_jobs", Json::u64(BATCHED_JOBS.get())),
        ("rejected_busy", Json::u64(REJECTED_BUSY.get())),
        ("campaigns_running", Json::u64(running)),
        ("campaigns_done", Json::u64(done)),
        ("session", daemon.session.stats_json()),
    ])
}

/// The `GET /campaigns` body: every campaign this daemon knows about —
/// running or finished, including those recovered from `--campaign-dir`
/// on startup — sorted by name.
fn campaigns_json(daemon: &Arc<Daemon>) -> Json {
    let campaigns = daemon.campaigns.lock().expect("campaign lock poisoned");
    let mut rows: Vec<(String, &'static str)> = campaigns
        .iter()
        .map(|(name, c)| {
            let state = match c {
                Campaign::Running { .. } => "running",
                Campaign::Done { .. } => "done",
            };
            (name.clone(), state)
        })
        .collect();
    drop(campaigns);
    rows.sort();
    Json::obj([(
        "campaigns",
        Json::arr(rows.into_iter().map(|(name, state)| {
            Json::obj([("name", Json::str(name)), ("state", Json::str(state))])
        })),
    )])
}

/// The `GET /campaigns/<name>/progress` body. A live campaign answers
/// with the annealer's published snapshot (temperature, acceptance rate,
/// best cost, checkpoints, ETA); a finished one reports `"done"`; an
/// unknown name is a 404.
fn campaign_progress_response(daemon: &Arc<Daemon>, name: &str) -> Response {
    if let Some(p) = tesa::progress::get(name) {
        return Response::json(200, &p.snapshot_json());
    }
    let campaigns = daemon.campaigns.lock().expect("campaign lock poisoned");
    match campaigns.get(name) {
        // The window between map insertion and the optimizer registering
        // its progress handle (or after it dropped the handle but before
        // the report landed) still reads as running, just without detail.
        Some(Campaign::Running { .. }) => Response::json(
            200,
            &Json::obj([("name", Json::str(name)), ("state", Json::str("running"))]),
        ),
        Some(Campaign::Done { .. }) => Response::json(
            200,
            &Json::obj([("name", Json::str(name)), ("state", Json::str("done"))]),
        ),
        None => Response::json(
            404,
            &Json::obj([("error", Json::str(format!("no campaign named '{name}'")))]),
        ),
    }
}

/// Admits one evaluate/screen request into the bounded queue and waits
/// for the dispatcher's answer. A full queue is answered immediately with
/// `429` + `Retry-After` — the daemon sheds load instead of buffering
/// unboundedly.
fn enqueue(
    daemon: &Arc<Daemon>,
    request: &Request,
    trace_id: u64,
    make_query: fn(Json) -> Query,
) -> Response {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let (reply, answer) = mpsc::channel();
    {
        let mut queue = daemon.queue.lock().expect("queue lock poisoned");
        if queue.len() >= daemon.queue_depth {
            REJECTED_BUSY.inc();
            trace::counter("serve.rejected_busy", 1.0);
            let body = Json::obj([(
                "error",
                Json::str(format!("admission queue full ({} jobs)", daemon.queue_depth)),
            )]);
            return Response::json(429, &body).with_header("Retry-After", "1");
        }
        queue.push_back(Job { query: make_query(body), trace_id, reply });
        QUEUE_DEPTH.set(queue.len() as f64);
        daemon.queue_cv.notify_one();
    }
    match answer.recv() {
        Ok(Ok(body)) => Response::json(200, &body),
        Ok(Err(e)) => Response::json(e.status, &e.to_json()),
        Err(_) => {
            let body = Json::obj([("error", Json::str("dispatcher went away"))]);
            Response::json(500, &body)
        }
    }
}

/// Parses a request body as JSON, or produces the 400 response.
fn parse_body(request: &Request) -> Result<Json, Response> {
    let text = request
        .body_str()
        .map_err(|e| bad_request(format!("body is not utf-8: {e}")))?;
    json::parse(text).map_err(|e| bad_request(format!("body is not valid json: {e}")))
}

fn bad_request(message: String) -> Response {
    Response::json(400, &Json::obj([("error", Json::str(message))]))
}

// --- /optimize campaigns -------------------------------------------------

/// Handles `POST /optimize`: dedupe by campaign name, then execute (or
/// await) the named campaign. Identical re-submissions are idempotent —
/// they wait for / return the stored report; a same-name submission with
/// a different body is a `409`.
fn run_campaign(daemon: &Arc<Daemon>, request: &Request) -> Response {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let name = match campaign_name(&body) {
        Ok(name) => name,
        Err(e) => return Response::json(e.status, &e.to_json()),
    };
    // Canonical form: the parsed body re-emitted, so whitespace-only
    // differences between submissions don't read as conflicts.
    let canon = body.to_string();

    let mut campaigns = daemon.campaigns.lock().expect("campaign lock poisoned");
    loop {
        match campaigns.get(&name) {
            None => {
                campaigns
                    .insert(name.clone(), Campaign::Running { request: canon.clone() });
                break;
            }
            Some(Campaign::Running { request }) => {
                if *request != canon {
                    return conflict(&name);
                }
                campaigns =
                    daemon.campaigns_cv.wait(campaigns).expect("campaign lock poisoned");
            }
            Some(Campaign::Done { request, report }) => {
                return if *request == canon {
                    campaign_report_response(report)
                } else {
                    conflict(&name)
                };
            }
        }
    }
    drop(campaigns);

    if let Err(e) = write_atomic(
        &daemon.campaign_dir.join(format!("{name}.request.json")),
        format!("{canon}\n").as_bytes(),
    ) {
        finish_campaign(daemon, &name, None);
        let e = ApiError { status: 500, message: format!("cannot persist campaign request: {e}") };
        return Response::json(e.status, &e.to_json());
    }
    let result = execute_campaign(daemon, &name, &body);
    match result {
        Ok(report) => {
            finish_campaign(daemon, &name, Some((canon, report.clone())));
            campaign_report_response(&report)
        }
        Err(e) => {
            finish_campaign(daemon, &name, None);
            Response::json(e.status, &e.to_json())
        }
    }
}

fn conflict(name: &str) -> Response {
    let body = Json::obj([(
        "error",
        Json::str(format!("campaign '{name}' already exists with a different request body")),
    )]);
    Response::json(409, &body)
}

/// A finished campaign's stored report, replayed verbatim.
fn campaign_report_response(report: &str) -> Response {
    Response::raw(200, report.as_bytes().to_vec(), "application/json")
}

/// Publishes a campaign's terminal state (or clears a failed one so it
/// can be retried) and wakes every waiter.
fn finish_campaign(daemon: &Arc<Daemon>, name: &str, done: Option<(String, String)>) {
    let mut campaigns = daemon.campaigns.lock().expect("campaign lock poisoned");
    match done {
        Some((request, report)) => {
            campaigns.insert(name.to_owned(), Campaign::Done { request, report });
        }
        None => {
            campaigns.remove(name);
        }
    }
    daemon.campaigns_cv.notify_all();
}

/// Extracts and validates the campaign name (also used as the checkpoint
/// file stem, hence the restricted alphabet).
fn campaign_name(body: &Json) -> Result<String, ApiError> {
    let name = body
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("missing required string 'name'"))?;
    let ok = !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        && !name.starts_with('.');
    if !ok {
        return Err(ApiError::bad_request(
            "campaign 'name' must be 1-64 chars of [A-Za-z0-9._-], not starting with '.'",
        ));
    }
    Ok(name.to_owned())
}

/// Runs one campaign to completion under checkpointing, mirroring
/// `tesa optimize` exactly (same evaluator construction, same design
/// space, same report object) so the response body byte-matches the
/// one-shot CLI's `--format json` output for the same parameters.
fn execute_campaign(daemon: &Arc<Daemon>, name: &str, body: &Json) -> Result<String, ApiError> {
    let constraints = session::constraints_from_json(body)?;
    let integ = session::integration_from_json(body, "campaign")?;
    let freq = session::optional_u64(body, "campaign", "freq_mhz")?.unwrap_or(400) as u32;
    let mut msa = MsaConfig::default();
    msa.seed = session::optional_u64(body, "campaign", "seed")?.unwrap_or(msa.seed);
    msa.screening =
        session::optional_bool(body, "campaign", "screening")?.unwrap_or(msa.screening);
    msa.speculation = session::optional_u64(body, "campaign", "speculation")?
        .unwrap_or(msa.speculation as u64) as usize;
    msa.t_init = session::optional_f64(body, "campaign", "t_init")?.unwrap_or(msa.t_init);
    msa.t_final = session::optional_f64(body, "campaign", "t_final")?.unwrap_or(msa.t_final);
    msa.moves_per_temp = session::optional_u64(body, "campaign", "moves_per_temp")?
        .unwrap_or(msa.moves_per_temp as u64) as u32;
    msa.init_attempts = session::optional_u64(body, "campaign", "init_attempts")?
        .unwrap_or(msa.init_attempts as u64) as u32;
    if let Some(deltas) = body.get("deltas") {
        let list = deltas
            .as_array()
            .ok_or_else(|| ApiError::bad_request("field 'deltas' must be an array of numbers"))?;
        msa.deltas = list
            .iter()
            .map(|d| {
                d.as_f64().ok_or_else(|| {
                    ApiError::bad_request("field 'deltas' must be an array of numbers")
                })
            })
            .collect::<Result<_, _>>()?;
        if msa.deltas.is_empty() {
            return Err(ApiError::bad_request("field 'deltas' needs at least one value"));
        }
    }
    let grid_cells = session::optional_u64(body, "campaign", "grid_cells")?
        .unwrap_or(daemon.grid_cells as u64) as usize;
    let every =
        session::optional_u64(body, "campaign", "checkpoint_every")?.unwrap_or(1).max(1) as u32;

    let evaluator = Evaluator::new(
        arvr_suite(),
        EvalOptions { lazy: true, grid_cells, ..EvalOptions::default() },
    );
    let ckpt = daemon.campaign_dir.join(format!("{name}.ckpt"));
    let policy = CheckpointPolicy { path: ckpt.clone(), every };
    let space = DesignSpace::tesa_default();
    let mut span = trace::span("serve.campaign");
    span.field("name", Json::str(name));
    let outcome = optimize_checkpointed(
        &evaluator,
        &space,
        integ,
        freq,
        &constraints,
        &Objective::balanced(),
        &msa,
        Some(&policy),
        Some(&ckpt),
        Some(name),
    )
    .map_err(|e| ApiError { status: 500, message: format!("checkpoint: {e}") })?;
    if outcome.checkpoint_write_failures > 0 {
        eprintln!(
            "tesa serve: campaign '{name}': {} checkpoint write(s) failed",
            outcome.checkpoint_write_failures
        );
    }
    let report = format!("{}\n", tesa::report::optimize_report_json(&outcome, space.len()));
    write_atomic(
        &daemon.campaign_dir.join(format!("{name}.report.json")),
        report.as_bytes(),
    )
    .map_err(|e| ApiError { status: 500, message: format!("cannot persist campaign report: {e}") })?;
    Ok(report)
}

/// Scans `--campaign-dir` on startup: finished campaigns are loaded so
/// re-submissions stay idempotent across restarts, and campaigns with a
/// request but no report — the daemon died mid-run — are resumed on
/// background threads from their checkpoints. Returns how many resumed.
fn recover_campaigns(daemon: &Arc<Daemon>) -> Result<usize, CliError> {
    let mut resumed = 0usize;
    for entry in std::fs::read_dir(&daemon.campaign_dir)? {
        let path = entry?.path();
        let Some(file) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let Some(name) = file.strip_suffix(".request.json") else { continue };
        let request = std::fs::read_to_string(&path)?.trim_end().to_owned();
        let report_path = daemon.campaign_dir.join(format!("{name}.report.json"));
        let mut campaigns = daemon.campaigns.lock().expect("campaign lock poisoned");
        if report_path.exists() {
            let report = std::fs::read_to_string(&report_path)?;
            campaigns.insert(name.to_owned(), Campaign::Done { request, report });
            continue;
        }
        let Ok(body) = json::parse(&request) else {
            eprintln!("tesa serve: ignoring unreadable campaign request {}", path.display());
            continue;
        };
        campaigns.insert(name.to_owned(), Campaign::Running { request });
        drop(campaigns);
        resumed += 1;
        let daemon = Arc::clone(daemon);
        let name = name.to_owned();
        std::thread::Builder::new().name(format!("campaign-{name}")).spawn(move || {
            let canon = body.to_string();
            match execute_campaign(&daemon, &name, &body) {
                Ok(report) => finish_campaign(&daemon, &name, Some((canon, report))),
                Err(e) => {
                    eprintln!("tesa serve: resumed campaign '{name}' failed: {e}");
                    finish_campaign(&daemon, &name, None);
                }
            }
        })?;
    }
    Ok(resumed)
}

/// Writes `bytes` to `path` via a same-directory temp file + rename, so a
/// crash never leaves a half-written request or report behind.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

// --- tesa client ---------------------------------------------------------

/// `tesa client <healthz|stats|evaluate|screen|optimize> --addr HOST:PORT
/// [flags…]` — build the request body from the familiar CLI flags, POST
/// it to a running daemon, and print the response body verbatim.
///
/// Printing verbatim is the point: for the same inputs, `tesa client
/// evaluate` output is byte-identical to `tesa evaluate --format json`,
/// which the smoke suite asserts.
pub fn cmd_client(args: &Args) -> Result<String, CliError> {
    let usage = "usage: tesa client <healthz|stats|evaluate|screen|optimize> --addr HOST:PORT";
    let action = args.positional(0).ok_or_else(|| CliError { message: usage.into() })?;
    let addr = args
        .get("addr")
        .ok_or_else(|| CliError { message: format!("tesa client needs --addr HOST:PORT\n{usage}") })?;
    let timeout = Duration::from_secs_f64(args.get_or("timeout-s", 600.0)?);
    let response = match action {
        "healthz" => http::get(addr, "/healthz", timeout),
        "stats" => http::get(addr, "/stats", timeout),
        "evaluate" => http::post(addr, "/evaluate", &query_body(args)?.to_string(), timeout),
        "screen" => http::post(addr, "/screen", &query_body(args)?.to_string(), timeout),
        "optimize" => http::post(addr, "/optimize", &campaign_body(args)?.to_string(), timeout),
        other => {
            return Err(CliError { message: format!("unknown client action '{other}'\n{usage}") });
        }
    }
    .map_err(|e| CliError { message: format!("client: {e}") })?;
    let body = response
        .body_str()
        .map_err(|e| CliError { message: format!("client: {e}") })?
        .to_owned();
    if response.status == 200 {
        Ok(body)
    } else {
        let retry = response
            .header("Retry-After")
            .map(|s| format!(" (Retry-After: {s}s)"))
            .unwrap_or_default();
        Err(CliError {
            message: format!(
                "server answered {} {}{retry}: {}",
                response.status,
                http::reason(response.status),
                body.trim_end()
            ),
        })
    }
}

/// The `/evaluate` / `/screen` body for the CLI's design + constraint
/// flags, with every default resolved client-side so identical flag sets
/// produce identical bodies.
fn query_body(args: &Args) -> Result<Json, CliError> {
    let design = crate::commands::design_from(args)?;
    let c = crate::commands::constraints(args)?;
    Ok(Json::obj([
        (
            "design",
            Json::obj([
                ("array_dim", Json::u64(design.chiplet.array_dim)),
                ("sram_kib_per_bank", Json::u64(design.chiplet.sram_kib_per_bank)),
                ("integration", Json::str(design.chiplet.integration.to_string())),
                ("ics_um", Json::u64(design.ics_um)),
                ("freq_mhz", Json::u64(design.freq_mhz)),
            ]),
        ),
        ("constraints", constraints_body(&c)),
    ]))
}

/// The `/optimize` body for the CLI's optimizer flags (same names and
/// defaults as `tesa optimize`, plus the required `--name`).
fn campaign_body(args: &Args) -> Result<Json, CliError> {
    let name = args.require::<String>("name").map_err(|_| CliError {
        message: "tesa client optimize needs --name <campaign-name>".into(),
    })?;
    let mut msa = MsaConfig::default();
    msa.seed = args.get_or("seed", msa.seed)?;
    msa.screening = args.get_or("screening", msa.screening)?;
    msa.speculation = args.get_or("speculation", msa.speculation)?;
    msa.t_init = args.get_or("t-init", msa.t_init)?;
    msa.t_final = args.get_or("t-final", msa.t_final)?;
    msa.moves_per_temp = args.get_or("moves-per-temp", msa.moves_per_temp)?;
    msa.init_attempts = args.get_or("init-attempts", msa.init_attempts)?;
    if let Some(list) = args.get("deltas") {
        msa.deltas = list
            .split(',')
            .map(|tok| {
                tok.trim().parse::<f64>().map_err(|_| CliError {
                    message: format!("bad cooling factor '{tok}' in --deltas"),
                })
            })
            .collect::<Result<_, _>>()?;
    }
    let integ = match args.get("integration").unwrap_or("2d") {
        "2d" | "2D" => "2D",
        "3d" | "3D" => "3D",
        other => {
            return Err(CliError {
                message: format!("unknown integration '{other}' (use 2d or 3d)"),
            });
        }
    };
    let c = crate::commands::constraints(args)?;
    Ok(Json::obj([
        ("name", Json::str(name)),
        ("integration", Json::str(integ)),
        ("freq_mhz", Json::u64(args.get_or("freq", 400u32)?)),
        ("seed", Json::u64(msa.seed)),
        ("screening", Json::Bool(msa.screening)),
        ("speculation", Json::u64(msa.speculation as u64)),
        ("t_init", Json::f64(msa.t_init)),
        ("t_final", Json::f64(msa.t_final)),
        ("moves_per_temp", Json::u64(msa.moves_per_temp)),
        ("init_attempts", Json::u64(msa.init_attempts)),
        ("deltas", Json::arr(msa.deltas.iter().map(|&d| Json::f64(d)))),
        (
            "grid_cells",
            Json::u64(args.get_or("grid-cells", EvalOptions::default().grid_cells as u64)?),
        ),
        ("checkpoint_every", Json::u64(args.get_or("checkpoint-every", 1u64)?)),
        ("constraints", constraints_body(&c)),
    ]))
}

fn constraints_body(c: &tesa::Constraints) -> Json {
    Json::obj([
        ("fps", Json::f64(c.min_fps)),
        ("temp_c", Json::f64(c.temp_budget_c)),
        ("power_w", Json::f64(c.power_budget_w)),
        ("max_ics_um", Json::u64(c.max_ics_um)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| (*s).to_owned())).expect("parses")
    }

    #[test]
    fn campaign_names_are_validated() {
        for good in ["a", "camp-1", "run_2.ckpt", "X"] {
            let body = Json::obj([("name", Json::str(good))]);
            assert_eq!(campaign_name(&body).unwrap(), good);
        }
        let long = "x".repeat(65);
        for bad in ["", "../etc", "a/b", ".hidden", "a b", long.as_str()] {
            let body = Json::obj([("name", Json::str(bad))]);
            assert!(campaign_name(&body).is_err(), "{bad:?} must be rejected");
        }
        assert!(campaign_name(&Json::obj([("x", Json::u64(1u64))])).is_err());
    }

    #[test]
    fn client_query_body_resolves_cli_defaults() {
        let a = args(&["client", "evaluate", "--array", "64", "--sram-kib", "128"]);
        let body = query_body(&a).unwrap();
        let design = body.get("design").unwrap();
        assert_eq!(design.get("ics_um").and_then(Json::as_u64), Some(500));
        assert_eq!(design.get("freq_mhz").and_then(Json::as_u64), Some(400));
        let c = body.get("constraints").unwrap();
        assert_eq!(c.get("fps").and_then(Json::as_f64), Some(30.0));
        assert_eq!(c.get("max_ics_um").and_then(Json::as_u64), Some(1000));
    }

    #[test]
    fn client_campaign_body_matches_msa_defaults() {
        let a = args(&["client", "optimize", "--name", "c1"]);
        let body = campaign_body(&a).unwrap();
        let defaults = MsaConfig::default();
        assert_eq!(body.get("seed").and_then(Json::as_u64), Some(defaults.seed));
        assert_eq!(
            body.get("deltas").and_then(Json::as_array).map(<[Json]>::len),
            Some(defaults.deltas.len())
        );
        assert_eq!(body.get("checkpoint_every").and_then(Json::as_u64), Some(1));
        // Round-trips through the daemon-side decoders.
        let c = session::constraints_from_json(&body).unwrap();
        assert_eq!(c.min_fps, 30.0);
    }

    #[test]
    fn client_campaign_body_requires_name() {
        let a = args(&["client", "optimize"]);
        let err = campaign_body(&a).unwrap_err();
        assert!(err.message.contains("--name"), "{err}");
    }

    #[test]
    fn identical_flag_sets_produce_identical_bodies() {
        let flags = ["client", "optimize", "--name", "c1", "--t-init", "4", "--seed", "7"];
        let one = campaign_body(&args(&flags)).unwrap().to_string();
        let two = campaign_body(&args(&flags)).unwrap().to_string();
        assert_eq!(one, two);
    }
}
