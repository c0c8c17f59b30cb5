//! Thread-count invariance suite: the persistent worker pool must be a
//! pure wall-clock optimization. Every user-visible artifact — exact
//! thermal fields, MSA campaign reports, and crash/resume checkpoints —
//! is produced in a subprocess under `TESA_THREADS=1`, `2`, and `8` and
//! asserted **byte-identical** across the three. The fixed-chunk
//! reduction scheme (see `DESIGN.md`) is what makes this hold; a chunk
//! sizing derived from the lane count would fail here immediately.
//!
//! Subprocesses are required because the pool is a process-wide
//! singleton: `TESA_THREADS` is read once, on first use.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// The lane counts under test: serial fallback, the smallest real pool,
/// and more lanes than this runner has cores (oversubscription must not
/// change results either).
const THREADS: [&str; 3] = ["1", "2", "8"];

/// A short screened campaign. Screening is ON here because its adaptive
/// gate branches on surrogate verdicts while the parallel starts share
/// one memo: the report must not depend on how those starts interleave.
const CAMPAIGN: &[&str] = &[
    "optimize",
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
    "--screening",
    "true",
    "--format",
    "json",
];

/// Locates the `tesa` CLI binary next to the test executable
/// (`target/<profile>/tesa`), building it if this test runs on its own.
/// `TESA_BIN` overrides the discovery for packaged environments.
fn tesa_bin() -> PathBuf {
    if let Ok(p) = std::env::var("TESA_BIN") {
        return PathBuf::from(p);
    }
    let exe = std::env::current_exe().expect("test executable path");
    let profile_dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("target profile directory");
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

/// Runs `tesa` with an explicit `TESA_THREADS`. `TESA_FAULTPOINTS` is
/// scrubbed so only the explicit `--faultpoints` flag injects faults.
fn run_with_threads(bin: &Path, threads: &str, argv: &[&str]) -> Output {
    Command::new(bin)
        .args(argv)
        .env("TESA_THREADS", threads)
        .env_remove("TESA_FAULTPOINTS")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawning tesa")
}

fn stdout_ok(out: &Output, scenario: &str) -> Vec<u8> {
    assert!(
        out.status.success(),
        "[{scenario}] run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "[{scenario}] produced no output");
    out.stdout.clone()
}

fn assert_identical(reference: &[u8], got: &[u8], scenario: &str) {
    assert_eq!(
        got,
        reference,
        "[{scenario}] output differs from the TESA_THREADS={} reference:\n--- got\n{}\n--- reference\n{}",
        THREADS[0],
        String::from_utf8_lossy(got),
        String::from_utf8_lossy(reference)
    );
}

fn ckpt_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tesa-threads-{tag}-{}.ckpt", std::process::id()))
}

/// Golden thermal fields: the full-precision (`--exact`) device-tier heat
/// map at the production grid size must be byte-identical for any lane
/// count. Shortest-form float output round-trips to the exact bit
/// pattern, so this byte-compare is a bit-compare of the solved field.
/// Covers both stacks: 2D (4 layers) and 3D (6 layers, z-line smoother).
#[test]
fn exact_thermal_fields_are_thread_invariant() {
    let bin = tesa_bin();
    let designs: [&[&str]; 2] = [
        &["thermal-map", "--array", "160", "--sram-kib", "512", "--ics-um", "1000", "--exact", "true"],
        &[
            "thermal-map",
            "--array",
            "128",
            "--sram-kib",
            "512",
            "--integration",
            "3d",
            "--exact",
            "true",
        ],
    ];
    for argv in designs {
        let reference = stdout_ok(
            &run_with_threads(&bin, THREADS[0], argv),
            &format!("{argv:?} @ {}", THREADS[0]),
        );
        for threads in &THREADS[1..] {
            let scenario = format!("{argv:?} @ {threads} threads");
            let got = stdout_ok(&run_with_threads(&bin, threads, argv), &scenario);
            assert_identical(&reference, &got, &scenario);
        }
    }
}

/// MSA determinism across lane counts: a screened campaign reports
/// identical bytes (trajectory, evaluation count, best design) on 1, 2
/// and 8 lanes.
#[test]
fn optimizer_reports_are_thread_invariant() {
    let bin = tesa_bin();
    for seed in ["41", "42"] {
        let mut argv: Vec<&str> = CAMPAIGN.to_vec();
        argv.extend_from_slice(&["--seed", seed]);
        let reference = stdout_ok(
            &run_with_threads(&bin, THREADS[0], &argv),
            &format!("seed {seed} @ {}", THREADS[0]),
        );
        for threads in &THREADS[1..] {
            let scenario = format!("seed {seed} @ {threads} threads");
            let got = stdout_ok(&run_with_threads(&bin, threads, &argv), &scenario);
            assert_identical(&reference, &got, &scenario);
        }
    }
}

/// Checkpoint/resume round-trip across lane counts. Two invariants:
///
/// 1. A campaign crashed mid-run (`ckpt.abort=nth:2`) and resumed under a
///    *different* lane count reproduces the uninterrupted reference
///    report exactly. (The crashed file itself is not compared: parallel
///    starts commit whole-campaign snapshots as they reach temperature
///    boundaries, so which start owns commit #2 is wall-clock racy —
///    only the *resumed result* is promised, and it must not depend on
///    how many lanes wrote or read the checkpoint.)
/// 2. The **final** checkpoint of a completed campaign is byte-identical
///    for any `TESA_THREADS`: every slot is `Done` and each slot's
///    snapshot (RNG state, screening-gate counters, visited set) is a
///    pure function of its own serial trajectory.
#[test]
fn checkpoint_round_trip_is_thread_invariant() {
    let bin = tesa_bin();
    let seed = "43";
    let mut plain: Vec<&str> = CAMPAIGN.to_vec();
    plain.extend_from_slice(&["--seed", seed]);
    let reference =
        stdout_ok(&run_with_threads(&bin, "2", &plain), "uninterrupted reference @ 2 threads");

    for threads in THREADS {
        let path = ckpt_path(&format!("abort-{threads}"));
        let _ = std::fs::remove_file(&path);
        let path_s = path.display().to_string();
        let mut argv: Vec<&str> = plain.clone();
        argv.extend_from_slice(&[
            "--checkpoint",
            &path_s,
            "--faultpoints",
            "ckpt.abort=nth:2",
        ]);
        let crashed = run_with_threads(&bin, threads, &argv);
        assert!(
            !crashed.status.success(),
            "[crash @ {threads} threads] the injected abort must crash the run"
        );
        assert!(
            path.exists(),
            "[crash @ {threads} threads] ckpt.abort fires only after a successful commit"
        );

        // Resume under a different lane count than the one that crashed.
        let resume_threads = if threads == "1" { "8" } else { "1" };
        let mut resume_argv: Vec<&str> = plain.clone();
        resume_argv.extend_from_slice(&["--resume", &path_s]);
        let scenario = format!("crash @ {threads}, resume @ {resume_threads} threads");
        let resumed = stdout_ok(&run_with_threads(&bin, resume_threads, &resume_argv), &scenario);
        assert_identical(&reference, &resumed, &scenario);
        let _ = std::fs::remove_file(&path);
    }

    let mut final_ckpts: Vec<(String, Vec<u8>)> = Vec::new();
    for threads in THREADS {
        let path = ckpt_path(&format!("full-{threads}"));
        let _ = std::fs::remove_file(&path);
        let path_s = path.display().to_string();
        let mut argv: Vec<&str> = plain.clone();
        argv.extend_from_slice(&["--checkpoint", &path_s]);
        let scenario = format!("full checkpointed run @ {threads} threads");
        let report = stdout_ok(&run_with_threads(&bin, threads, &argv), &scenario);
        assert_identical(&reference, &report, &scenario);
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("[{scenario}] no checkpoint: {e}"));
        final_ckpts.push((threads.to_owned(), bytes));
        let _ = std::fs::remove_file(&path);
    }
    let (ref_threads, ref_bytes) = &final_ckpts[0];
    for (threads, bytes) in &final_ckpts[1..] {
        assert_eq!(
            bytes, ref_bytes,
            "final checkpoint under TESA_THREADS={threads} differs from TESA_THREADS={ref_threads}"
        );
    }
}
