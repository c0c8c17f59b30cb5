//! Subprocess smoke suite for the `tesa serve` daemon.
//!
//! Each test boots a real daemon on an ephemeral port (parsed from its
//! startup line), drives it with `tesa client` or raw
//! `tesa_util::http`, and holds it to the daemon's two core promises:
//! responses are **byte-identical** to the one-shot CLI's `--format json`
//! output for the same inputs, and a daemon killed mid-`/optimize`
//! resumes the campaign after restart to a **bit-identical** report.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;
use tesa_util::http;

/// A fast `/optimize` campaign, mirrored from the crash_resume matrix:
/// 2 starts x (5 + 4) temperature steps, coarse thermal grid.
const CAMPAIGN_FLAGS: &[&str] = &[
    "--deltas",
    "0.7,0.6",
    "--t-init",
    "4",
    "--t-final",
    "0.8",
    "--moves-per-temp",
    "2",
    "--init-attempts",
    "20",
    "--grid-cells",
    "32",
    "--fps",
    "15",
    "--temp-c",
    "85",
];

/// Locates the `tesa` CLI binary next to the test executable
/// (`target/<profile>/tesa`), building it if this test runs on its own.
/// `TESA_BIN` overrides the discovery for packaged environments.
fn tesa_bin() -> PathBuf {
    if let Ok(p) = std::env::var("TESA_BIN") {
        return PathBuf::from(p);
    }
    let exe = std::env::current_exe().expect("test executable path");
    let profile_dir = exe.parent().and_then(Path::parent).expect("target profile directory");
    let bin = profile_dir.join(format!("tesa{}", std::env::consts::EXE_SUFFIX));
    if bin.exists() {
        return bin;
    }
    let mut args = vec!["build", "-p", "tesa-cli", "--offline"];
    if profile_dir.file_name().is_some_and(|n| n == "release") {
        args.push("--release");
    }
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(&args)
        .status()
        .expect("cargo build -p tesa-cli");
    assert!(status.success(), "building the tesa CLI failed");
    assert!(bin.exists(), "built CLI not found at {}", bin.display());
    bin
}

/// A running daemon subprocess; killed (and reaped) on drop so a failing
/// assertion never leaks a listener.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `tesa serve --port 0 --campaign-dir <dir> <extra…>` and
    /// reads the bound address off the flushed startup line.
    fn start(bin: &Path, campaign_dir: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(bin)
            .args(["serve", "--port", "0", "--campaign-dir"])
            .arg(campaign_dir)
            .args(extra)
            .env_remove("TESA_FAULTPOINTS")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning tesa serve");
        let stdout = child.stdout.take().expect("daemon stdout piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("daemon startup line");
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in startup line {line:?}"))
            .to_owned();
        Daemon { child, addr }
    }

    /// Waits for the daemon process to exit on its own (fault-injected
    /// abort scenarios) and returns whether it reported success.
    fn wait(mut self) -> bool {
        let status = self.child.wait().expect("waiting for daemon");
        // Neutralize the drop-kill: the process is already gone.
        self.child = Command::new("true").spawn().expect("spawn placeholder");
        status.success()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `tesa <args…>` with a scrubbed fault-injection environment.
fn run_tesa(bin: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("TESA_FAULTPOINTS")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawning tesa")
}

/// Runs `tesa client <action> --addr <addr> <extra…>`.
fn run_client(bin: &Path, addr: &str, action: &str, extra: &[&str]) -> Output {
    let mut args = vec!["client", action, "--addr", addr];
    args.extend_from_slice(extra);
    run_tesa(bin, &args)
}

fn stdout_of(out: &Output, what: &str) -> Vec<u8> {
    assert!(out.status.success(), "{what} failed: {}", String::from_utf8_lossy(&out.stderr));
    out.stdout.clone()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tesa-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("campaign dir");
    dir
}

#[test]
fn healthz_stats_and_unknown_routes_respond() {
    let bin = tesa_bin();
    let dir = temp_dir("health");
    let daemon = Daemon::start(&bin, &dir, &[]);

    let health = stdout_of(&run_client(&bin, &daemon.addr, "healthz", &[]), "healthz");
    assert_eq!(health, b"{\"ok\":true}\n");

    let stats = stdout_of(&run_client(&bin, &daemon.addr, "stats", &[]), "stats");
    let stats = tesa_util::json::parse(std::str::from_utf8(&stats).unwrap()).expect("stats json");
    for key in ["uptime_s", "queue_depth", "batches", "rejected_busy", "session"] {
        assert!(stats.get(key).is_some(), "stats missing {key}");
    }

    let timeout = Duration::from_secs(30);
    let missing = http::get(&daemon.addr, "/nope", timeout).expect("404 roundtrip");
    assert_eq!(missing.status, 404);
    let not_allowed = http::post(&daemon.addr, "/healthz", "{}", timeout).expect("404 roundtrip");
    assert_eq!(not_allowed.status, 404);
    let garbage = http::post(&daemon.addr, "/evaluate", "not json", timeout).expect("400");
    assert_eq!(garbage.status, 400);
    assert!(garbage.body_str().unwrap().contains("error"));

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed connection-thread spawn costs only that connection: with the
/// first spawn forced to fail (`serve.conn.spawn=nth:1`), the first request
/// gets no answer and the daemon keeps accepting.
#[test]
fn failed_connection_spawn_drops_only_that_connection() {
    let bin = tesa_bin();
    let dir = temp_dir("spawn");
    let daemon = Daemon::start(&bin, &dir, &["--faultpoints", "serve.conn.spawn=nth:1"]);
    let timeout = Duration::from_secs(30);

    let lost = http::get(&daemon.addr, "/healthz", timeout);
    assert!(
        lost.is_err(),
        "the first connection must be dropped, got {:?}",
        lost.map(|r| r.status)
    );
    let health = http::get(&daemon.addr, "/healthz", timeout).expect("the daemon keeps serving");
    assert_eq!(health.status, 200);
    assert!(health.body_str().unwrap().contains("\"ok\":true"));

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evaluate_and_screen_byte_match_the_one_shot_cli() {
    let bin = tesa_bin();
    let dir = temp_dir("eval");
    let daemon = Daemon::start(&bin, &dir, &[]);
    let design: &[&str] = &["--array", "64", "--sram-kib", "128", "--fps", "1"];

    let mut cli_args = vec!["evaluate"];
    cli_args.extend_from_slice(design);
    cli_args.extend_from_slice(&["--format", "json"]);
    let reference = stdout_of(&run_tesa(&bin, &cli_args), "one-shot evaluate");

    let served = stdout_of(&run_client(&bin, &daemon.addr, "evaluate", design), "served evaluate");
    assert_eq!(
        served,
        reference,
        "daemon /evaluate differs from `tesa evaluate --format json`:\n--- daemon\n{}\n--- cli\n{}",
        String::from_utf8_lossy(&served),
        String::from_utf8_lossy(&reference)
    );

    // The same design again must be answered from the eval memo: the
    // hit counter moves, the miss counter does not.
    let served_again =
        stdout_of(&run_client(&bin, &daemon.addr, "evaluate", design), "repeat evaluate");
    assert_eq!(served_again, reference);
    let stats = stdout_of(&run_client(&bin, &daemon.addr, "stats", &[]), "stats");
    let stats = tesa_util::json::parse(std::str::from_utf8(&stats).unwrap()).expect("stats json");
    let cache = stats.get("session").and_then(|s| s.get("eval_cache")).expect("eval_cache");
    assert_eq!(cache.get("hits").and_then(tesa_util::Json::as_u64), Some(1), "{stats}");
    assert_eq!(cache.get("misses").and_then(tesa_util::Json::as_u64), Some(1), "{stats}");

    let screened = stdout_of(&run_client(&bin, &daemon.addr, "screen", design), "served screen");
    let screened =
        tesa_util::json::parse(std::str::from_utf8(&screened).unwrap()).expect("screen json");
    let verdict = screened.get("verdict").and_then(tesa_util::Json::as_str).expect("verdict");
    assert!(
        ["clearly_infeasible", "clearly_feasible", "ambiguous"].contains(&verdict),
        "unexpected verdict {verdict}"
    );

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn optimize_campaign_byte_matches_the_cli_and_is_idempotent() {
    let bin = tesa_bin();
    let dir = temp_dir("opt");
    let daemon = Daemon::start(&bin, &dir, &[]);

    let mut cli_args = vec!["optimize"];
    cli_args.extend_from_slice(CAMPAIGN_FLAGS);
    cli_args.extend_from_slice(&["--format", "json"]);
    let reference = stdout_of(&run_tesa(&bin, &cli_args), "one-shot optimize");

    let mut client_args = vec!["--name", "smoke"];
    client_args.extend_from_slice(CAMPAIGN_FLAGS);
    let served =
        stdout_of(&run_client(&bin, &daemon.addr, "optimize", &client_args), "served optimize");
    assert_eq!(
        served,
        reference,
        "daemon /optimize differs from `tesa optimize --format json`:\n--- daemon\n{}\n--- cli\n{}",
        String::from_utf8_lossy(&served),
        String::from_utf8_lossy(&reference)
    );

    // Same name + same body: idempotent replay of the stored report.
    let replay =
        stdout_of(&run_client(&bin, &daemon.addr, "optimize", &client_args), "replayed optimize");
    assert_eq!(replay, reference);

    // Same name + different body: a conflict, not a silent overwrite.
    let mut conflicting = vec!["--name", "smoke", "--seed", "999"];
    conflicting.extend_from_slice(CAMPAIGN_FLAGS);
    let conflict = run_client(&bin, &daemon.addr, "optimize", &conflicting);
    assert!(!conflict.status.success(), "conflicting campaign body must be rejected");
    assert!(
        String::from_utf8_lossy(&conflict.stderr).contains("409"),
        "expected a 409: {}",
        String::from_utf8_lossy(&conflict.stderr)
    );

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline robustness claim: a daemon killed mid-campaign (the
/// `ckpt.abort` faultpoint aborts the whole process right after the 2nd
/// checkpoint commit) is restarted over the same campaign directory,
/// resumes the campaign from its checkpoint on startup, and serves a
/// report byte-identical to an uninterrupted one-shot run.
#[test]
fn killed_daemon_resumes_campaign_to_identical_report() {
    let bin = tesa_bin();
    let dir = temp_dir("resume");

    let mut cli_args = vec!["optimize"];
    cli_args.extend_from_slice(CAMPAIGN_FLAGS);
    cli_args.extend_from_slice(&["--format", "json"]);
    let reference = stdout_of(&run_tesa(&bin, &cli_args), "one-shot optimize");

    let doomed = Daemon::start(&bin, &dir, &["--faultpoints", "ckpt.abort=nth:2"]);
    let mut client_args = vec!["--name", "lazarus"];
    client_args.extend_from_slice(CAMPAIGN_FLAGS);
    let addr = doomed.addr.clone();
    let interrupted = run_client(&bin, &addr, "optimize", &client_args);
    assert!(
        !interrupted.status.success(),
        "the campaign request must fail when the daemon aborts mid-run"
    );
    assert!(!doomed.wait(), "the fault-injected daemon must die by abort");
    assert!(
        dir.join("lazarus.request.json").exists(),
        "the campaign request must be persisted before execution"
    );
    assert!(
        !dir.join("lazarus.report.json").exists(),
        "no report may exist for the interrupted campaign"
    );

    let revived = Daemon::start(&bin, &dir, &[]);
    let resumed =
        stdout_of(&run_client(&bin, &revived.addr, "optimize", &client_args), "resumed optimize");
    assert_eq!(
        resumed,
        reference,
        "resumed campaign differs from the uninterrupted run:\n--- resumed\n{}\n--- reference\n{}",
        String::from_utf8_lossy(&resumed),
        String::from_utf8_lossy(&reference)
    );

    drop(revived);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parses Prometheus text exposition 0.0.4 into series → value,
/// validating the line grammar (comments are HELP/TYPE only, samples are
/// `name{labels} value`) and rejecting duplicate series on the way.
fn parse_exposition(text: &str) -> std::collections::HashMap<String, f64> {
    let mut series = std::collections::HashMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                "bad comment line {line:?}"
            );
            continue;
        }
        let (key, value) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("bad sample line {line:?}"));
        let v = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse::<f64>().unwrap_or_else(|_| panic!("bad value in {line:?}")),
        };
        assert!(series.insert(key.to_owned(), v).is_none(), "duplicate series {key}");
    }
    series
}

/// The tentpole reconciliation check: a scripted request sequence against
/// a fresh daemon must be mirrored *exactly* by the `/metrics` exposition
/// — request counters, histogram counts, and the `/stats` JSON view all
/// reading the same registry.
#[test]
fn metrics_exposition_reconciles_with_issued_requests() {
    let bin = tesa_bin();
    let dir = temp_dir("metrics");
    let daemon = Daemon::start(&bin, &dir, &[]);
    let timeout = Duration::from_secs(600);

    for _ in 0..3 {
        let r = http::get(&daemon.addr, "/healthz", timeout).expect("healthz");
        assert_eq!(r.status, 200);
    }
    // Two distinct designs: two admissions, two exact evaluations.
    for dim in [60u64, 64] {
        let body = format!(
            r#"{{"design":{{"array_dim":{dim},"sram_kib_per_bank":128}},"constraints":{{"fps":1.0}}}}"#
        );
        let r = http::post(&daemon.addr, "/evaluate", &body, timeout).expect("evaluate");
        assert_eq!(r.status, 200);
    }

    // Request counters bump before routing, so they are visible by the
    // time each response lands; latency histograms record after the
    // response is written, so allow the final connection thread a moment.
    let mut text = String::new();
    let mut scrapes = 0u64;
    for _ in 0..100 {
        scrapes += 1;
        let scrape = http::get(&daemon.addr, "/metrics", timeout).expect("metrics");
        assert_eq!(scrape.status, 200);
        assert_eq!(scrape.header("Content-Type"), Some("text/plain; version=0.0.4"));
        text = scrape.body_str().expect("metrics body is utf-8").to_owned();
        if text.contains(r#"tesa_serve_request_duration_us_count{endpoint="evaluate"} 2"#) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let series = parse_exposition(&text);
    let get = |k: &str| {
        *series.get(k).unwrap_or_else(|| panic!("missing series {k} in exposition:\n{text}"))
    };

    assert_eq!(get(r#"tesa_serve_requests_total{endpoint="healthz"}"#), 3.0);
    assert_eq!(get(r#"tesa_serve_requests_total{endpoint="evaluate"}"#), 2.0);
    // The scrape counts itself: the counter bumps at route entry, before
    // the exposition renders.
    assert_eq!(get(r#"tesa_serve_requests_total{endpoint="metrics"}"#), scrapes as f64);
    assert_eq!(get(r#"tesa_serve_request_duration_us_count{endpoint="healthz"}"#), 3.0);
    assert_eq!(get(r#"tesa_serve_request_duration_us_count{endpoint="evaluate"}"#), 2.0);
    assert_eq!(
        get(r#"tesa_serve_request_duration_us_bucket{endpoint="healthz",le="+Inf"}"#),
        3.0
    );
    // Two admitted jobs flowed through the dispatcher and the session.
    assert_eq!(get("tesa_serve_batched_jobs_total"), 2.0);
    assert_eq!(get("tesa_session_evaluated_total"), 2.0);
    assert_eq!(get("tesa_eval_cache_misses_total"), 2.0);
    assert_eq!(get("tesa_eval_cache_hits_total"), 0.0);
    assert_eq!(get("tesa_serve_rejected_busy_total"), 0.0);
    // The evaluations exercised the thermal solver's histograms.
    assert!(get("tesa_thermal_cg_iterations_count") >= 1.0, "no CG solves recorded:\n{text}");
    assert!(get("tesa_serve_batch_size_sum") >= 2.0);

    // `/stats` is a JSON view over the exact same atomics.
    let stats = http::get(&daemon.addr, "/stats", timeout).expect("stats");
    let stats =
        tesa_util::json::parse(stats.body_str().unwrap()).expect("stats json");
    let stat = |k: &str| stats.get(k).and_then(tesa_util::Json::as_u64).expect(k);
    assert_eq!(stat("batched_jobs"), get("tesa_serve_batched_jobs_total") as u64);
    assert_eq!(stat("batches"), get("tesa_serve_batches_total") as u64);
    assert_eq!(stat("rejected_busy"), 0);
    let session = stats.get("session").expect("session stats");
    assert_eq!(session.get("evaluated").and_then(tesa_util::Json::as_u64), Some(2));

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /campaigns/<name>/progress` must stream live optimizer state
/// while a campaign runs — polled concurrently with the `/optimize`
/// request — then settle to `"done"`, and `GET /campaigns` must list the
/// finished campaign.
#[test]
fn campaign_progress_reports_running_then_done() {
    let bin = tesa_bin();
    let dir = temp_dir("progress");
    let daemon = Daemon::start(&bin, &dir, &[]);
    let timeout = Duration::from_secs(600);

    let missing =
        http::get(&daemon.addr, "/campaigns/nope/progress", timeout).expect("missing campaign");
    assert_eq!(missing.status, 404);

    // The smoke campaign as a raw /optimize body (name `live`).
    let body = r#"{"name":"live","deltas":[0.7,0.6],"t_init":4.0,"t_final":0.8,"moves_per_temp":2,"init_attempts":20,"grid_cells":32,"constraints":{"fps":15.0,"temp_c":85.0}}"#;
    let post = {
        let addr = daemon.addr.clone();
        std::thread::spawn(move || http::post(&addr, "/optimize", body, timeout))
    };

    let mut saw_running = false;
    let mut saw_live_detail = false;
    while !post.is_finished() {
        let r = http::get(&daemon.addr, "/campaigns/live/progress", timeout).expect("progress");
        if r.status == 200 {
            let snap = tesa_util::json::parse(r.body_str().unwrap()).expect("progress json");
            if snap.get("state").and_then(tesa_util::Json::as_str) == Some("running") {
                saw_running = true;
                // The annealer's live snapshot carries the schedule view.
                if let Some(f) = snap.get("fraction_done").and_then(tesa_util::Json::as_f64) {
                    saw_live_detail = true;
                    assert!((0.0..=1.0).contains(&f), "fraction_done out of range: {snap}");
                    for key in ["name", "elapsed_s", "checkpoints", "starts"] {
                        assert!(snap.get(key).is_some(), "progress missing {key}: {snap}");
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let response = post.join().expect("optimize thread").expect("optimize roundtrip");
    assert_eq!(response.status, 200);
    assert!(saw_running, "never observed the campaign running");
    assert!(saw_live_detail, "never observed a live annealer snapshot");

    let done = http::get(&daemon.addr, "/campaigns/live/progress", timeout).expect("done");
    assert_eq!(done.status, 200);
    let done = tesa_util::json::parse(done.body_str().unwrap()).expect("done json");
    assert_eq!(done.get("state").and_then(tesa_util::Json::as_str), Some("done"), "{done}");

    let list = http::get(&daemon.addr, "/campaigns", timeout).expect("campaigns");
    assert_eq!(list.status, 200);
    let list = tesa_util::json::parse(list.body_str().unwrap()).expect("campaigns json");
    let rows = list.get("campaigns").and_then(tesa_util::Json::as_array).expect("array");
    assert!(
        rows.iter().any(|r| {
            r.get("name").and_then(tesa_util::Json::as_str) == Some("live")
                && r.get("state").and_then(tesa_util::Json::as_str) == Some("done")
        }),
        "campaign list must show live as done: {list}"
    );

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_admission_queue_sheds_load_with_429_and_retry_after() {
    let bin = tesa_bin();
    let dir = temp_dir("busy");
    let daemon = Daemon::start(&bin, &dir, &["--queue-depth", "1", "--batch-max", "1"]);
    let timeout = Duration::from_secs(600);

    // Distinct designs defeat the eval memo, so each admitted request
    // holds the single dispatcher lane long enough for later arrivals to
    // find the one-deep queue full.
    let addr = daemon.addr.clone();
    let responses: Vec<http::Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let addr = &addr;
                scope.spawn(move || {
                    let body = format!(
                        r#"{{"design":{{"array_dim":{},"sram_kib_per_bank":128}},"constraints":{{"fps":1.0}}}}"#,
                        60 + 2 * i
                    );
                    http::post(addr, "/evaluate", &body, timeout).expect("evaluate roundtrip")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let ok = responses.iter().filter(|r| r.status == 200).count();
    let busy: Vec<_> = responses.iter().filter(|r| r.status == 429).collect();
    assert_eq!(ok + busy.len(), responses.len(), "only 200s and 429s expected");
    assert!(ok >= 1, "at least the first request must be served");
    assert!(!busy.is_empty(), "a one-deep queue under a 6-way burst must shed load");
    for r in &busy {
        assert_eq!(r.header("Retry-After"), Some("1"), "429 must carry Retry-After");
        assert!(r.body_str().unwrap().contains("queue full"));
    }

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
