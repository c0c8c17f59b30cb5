//! The `tesa` CLI subcommands.

use crate::args::{Args, ParseArgsError};
use std::path::PathBuf;
use tesa::anneal::{optimize_checkpointed, CheckpointPolicy, MsaConfig};
use tesa::design::{ChipletConfig, DesignSpace, Integration, McmDesign};
use tesa::eval::{EvalOptions, Evaluator};
use tesa::exhaustive::sweep;
use tesa::{Constraints, Objective};
use tesa_workloads::arvr_suite;

/// A CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<ParseArgsError> for CliError {
    fn from(e: ParseArgsError) -> Self {
        CliError { message: e.to_string() }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError { message: e.to_string() }
    }
}

/// Output format of the reporting subcommands: `--format text|json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
}

fn output_format(args: &Args) -> Result<OutputFormat, CliError> {
    match args.get("format").unwrap_or("text") {
        "text" => Ok(OutputFormat::Text),
        "json" => Ok(OutputFormat::Json),
        other => {
            Err(CliError { message: format!("unknown format '{other}' (use text or json)") })
        }
    }
}

fn integration(args: &Args) -> Result<Integration, CliError> {
    match args.get("integration").unwrap_or("2d") {
        "2d" | "2D" => Ok(Integration::TwoD),
        "3d" | "3D" => Ok(Integration::ThreeD),
        other => Err(CliError { message: format!("unknown integration '{other}' (use 2d or 3d)") }),
    }
}

pub(crate) fn constraints(args: &Args) -> Result<Constraints, CliError> {
    let fps = args.get_or("fps", 30.0)?;
    let temp = args.get_or("temp-c", 75.0)?;
    let mut c = Constraints::edge_device(fps, temp);
    c.power_budget_w = args.get_or("power-w", c.power_budget_w)?;
    c.max_ics_um = args.get_or("max-ics-um", c.max_ics_um)?;
    Ok(c)
}

pub(crate) fn design_from(args: &Args) -> Result<McmDesign, CliError> {
    Ok(McmDesign {
        chiplet: ChipletConfig {
            array_dim: args.require("array")?,
            sram_kib_per_bank: args.require("sram-kib")?,
            integration: integration(args)?,
        },
        ics_um: args.get_or("ics-um", 500)?,
        freq_mhz: args.get_or("freq", 400)?,
    })
}

fn evaluator(lazy: bool) -> Evaluator {
    Evaluator::new(arvr_suite(), EvalOptions { lazy, ..EvalOptions::default() })
}

/// `tesa workload` — describe the AR/VR workload.
pub fn cmd_workload(_args: &Args) -> Result<String, CliError> {
    let w = arvr_suite();
    let mut out = String::from("the paper's six-DNN AR/VR workload:\n");
    for (i, dnn) in w.iter().enumerate() {
        out.push_str(&format!(
            "  [{i}] {dnn}; weights {:.1} MB\n",
            dnn.total_filter_bytes() as f64 / 1e6
        ));
    }
    out.push_str(&format!("total: {:.1} GMACs per frame\n", w.total_macs() as f64 / 1e9));
    Ok(out)
}

/// `tesa evaluate --array N --sram-kib K [...]` — full evaluation of one
/// design point.
pub fn cmd_evaluate(args: &Args) -> Result<String, CliError> {
    let format = output_format(args)?;
    let design = design_from(args)?;
    let c = constraints(args)?;
    let eval = evaluator(false).evaluate(&design, &c);
    if format == OutputFormat::Json {
        return Ok(format!("{}\n", tesa::report::evaluation_json(&eval)));
    }
    let mut out = format!("design: {design}\n");
    match eval.mesh {
        Some(mesh) => out.push_str(&format!("mesh: {mesh} ({} chiplets)\n", mesh.count())),
        None => out.push_str("mesh: does not fit the interposer\n"),
    }
    out.push_str(&format!(
        "latency: {:.2} ms ({:.1} fps)\npeak temperature: {}\n",
        eval.latency_s * 1e3,
        eval.achieved_fps,
        if eval.thermal_runaway {
            "THERMAL RUNAWAY".into()
        } else if eval.peak_temp_c.is_nan() {
            "unknown (thermal solver failed)".into()
        } else {
            format!("{:.2} C", eval.peak_temp_c)
        },
    ));
    if eval.degraded {
        out.push_str("note: thermal solver ran degraded (cold-start Jacobi fallback)\n");
    }
    out.push_str(&format!(
        "power: chip {:.2} W + DRAM {:.2} W ({} channels) = {:.2} W\n",
        eval.chip_power_w, eval.dram_power_w, eval.dram_channels, eval.total_power_w
    ));
    out.push_str(&format!(
        "MCM cost: ${:.2}\nthroughput: {:.2} TOPS\n",
        eval.mcm_cost_usd,
        eval.ops / 1e12
    ));
    if eval.is_feasible() {
        out.push_str("verdict: FEASIBLE\n");
    } else {
        out.push_str("verdict: INFEASIBLE\n");
        for v in &eval.violations {
            out.push_str(&format!("  - {v}\n"));
        }
    }
    Ok(out)
}

/// `tesa optimize [...]` — run the MSA optimizer over the Table II space,
/// optionally with crash-safe checkpointing (`--checkpoint`,
/// `--checkpoint-every`) and resume (`--resume`).
pub fn cmd_optimize(args: &Args) -> Result<String, CliError> {
    let format = output_format(args)?;
    let integ = integration(args)?;
    let freq: u32 = args.get_or("freq", 400)?;
    let c = constraints(args)?;
    let mut msa = MsaConfig::default();
    msa.seed = args.get_or("seed", msa.seed)?;
    msa.screening = args.get_or("screening", msa.screening)?;
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
        if msa.deltas.is_empty() {
            return Err(CliError { message: "--deltas needs at least one value".into() });
        }
    }
    let grid_cells: usize = args.get_or("grid-cells", EvalOptions::default().grid_cells)?;
    let ev = Evaluator::new(
        arvr_suite(),
        EvalOptions { lazy: true, grid_cells, ..EvalOptions::default() },
    );

    // `--resume PATH` alone keeps checkpointing to the same file, so a
    // kill/resume loop can pass one path for both roles; a missing resume
    // file simply starts fresh.
    let resume: Option<PathBuf> = args.get("resume").map(PathBuf::from);
    let ckpt_path: Option<PathBuf> = args.get("checkpoint").map(PathBuf::from).or_else(|| resume.clone());
    let every: u32 = args.get_or("checkpoint-every", 1u32)?;
    let policy = ckpt_path.map(|path| CheckpointPolicy { path, every: every.max(1) });

    let space = DesignSpace::tesa_default();
    let outcome = optimize_checkpointed(
        &ev,
        &space,
        integ,
        freq,
        &c,
        &Objective::balanced(),
        &msa,
        policy.as_ref(),
        resume.as_deref(),
        None,
    )
    .map_err(|e| CliError { message: format!("checkpoint: {e}") })?;
    if outcome.checkpoint_write_failures > 0 {
        eprintln!(
            "warning: {} checkpoint write(s) failed; the on-disk checkpoint may be stale",
            outcome.checkpoint_write_failures
        );
    }
    if format == OutputFormat::Json {
        // Shared with the daemon's `POST /optimize` responder, so the two
        // outputs stay byte-identical for identical campaigns.
        let report = tesa::report::optimize_report_json(&outcome, space.len());
        return Ok(format!("{report}\n"));
    }
    let mut out = format!(
        "explored {} unique designs ({:.1}% of {}), {} evaluations\n",
        outcome.unique_designs,
        100.0 * outcome.explored_fraction(space.len()),
        space.len(),
        outcome.evaluations
    );
    match outcome.best {
        Some(best) => {
            out.push_str(&format!(
                "best: {} | mesh {} | ICS {} um | peak {:.2} C | ${:.2} | DRAM {:.2} W\n",
                best.design.chiplet,
                best.mesh.expect("feasible"),
                best.design.ics_um,
                best.peak_temp_c,
                best.mcm_cost_usd,
                best.dram_power_w
            ));
        }
        None => out.push_str(
            "no feasible MCM exists under these constraints — consider reducing frequency\n",
        ),
    }
    Ok(out)
}

/// `tesa sweep [...]` — exhaustive evaluation of the validation space,
/// CSV to stdout or `--out`.
pub fn cmd_sweep(args: &Args) -> Result<String, CliError> {
    let integ = integration(args)?;
    let freq: u32 = args.get_or("freq", 400)?;
    let c = constraints(args)?;
    let space = DesignSpace::validation();
    let result = sweep(
        &evaluator(true),
        &space,
        integ,
        freq,
        &c,
        &Objective::balanced(),
        2,
    );
    let mut csv =
        String::from("array,sram_total_kib,ics_um,chiplets,feasible,peak_c,cost_usd,dram_w,objective\n");
    for p in &result.points {
        csv.push_str(&format!(
            "{},{},{},{},{},{:.2},{:.3},{:.3},{:.4}\n",
            p.design.chiplet.array_dim,
            p.design.chiplet.sram_total_kib(),
            p.design.ics_um,
            p.chiplets,
            p.feasible,
            p.peak_temp_c,
            p.mcm_cost_usd,
            p.dram_power_w,
            p.objective
        ));
    }
    if let Some(path) = args.get("out") {
        std::fs::write(path, &csv)?;
        Ok(format!(
            "swept {} designs ({} feasible) -> {path}\n",
            result.total(),
            result.feasible_count
        ))
    } else {
        Ok(csv)
    }
}

/// `tesa thermal-map --array N --sram-kib K [...]` — device-tier CSV map.
pub fn cmd_thermal_map(args: &Args) -> Result<String, CliError> {
    let design = design_from(args)?;
    let c = constraints(args)?;
    let e = evaluator(false);
    let field = e.thermal_map(&design, &c).ok_or_else(|| CliError {
        message: "design does not fit the interposer".into(),
    })?;
    let tier = match design.chiplet.integration {
        Integration::TwoD => 1,
        Integration::ThreeD => 3,
    };
    let exact: bool = args.get_or("exact", false)?;
    let csv = if exact { field.to_csv_exact(tier) } else { field.to_csv(tier) };
    if let Some(path) = args.get("out") {
        std::fs::write(path, &csv)?;
        Ok(format!("thermal map ({}x{} cells) -> {path}\n", field.nx(), field.ny()))
    } else {
        Ok(csv)
    }
}

/// `tesa transient --array N --sram-kib K [...]` — peak-temperature trace
/// over a few frames of the schedule.
pub fn cmd_transient(args: &Args) -> Result<String, CliError> {
    let design = design_from(args)?;
    let c = constraints(args)?;
    let dt_ms: f64 = args.get_or("dt-ms", 1.0)?;
    let frames: usize = args.get_or("frames", 3)?;
    let e = evaluator(false);
    let trace = e
        .transient_trace(&design, &c, dt_ms * 1e-3, frames)
        .ok_or_else(|| CliError { message: "design does not fit the interposer".into() })?;
    let steady = e.evaluate(&design, &c);
    let mut csv = String::from("time_s,peak_c\n");
    for (t, p) in trace.times_s.iter().zip(&trace.peaks_c) {
        csv.push_str(&format!("{t:.6},{p:.3}\n"));
    }
    let summary = format!(
        "transient max {:.2} C over {} steps vs steady-state {:.2} C\n",
        trace.max_peak_c(),
        trace.peaks_c.len(),
        steady.peak_temp_c
    );
    if let Some(path) = args.get("out") {
        std::fs::write(path, &csv)?;
        Ok(format!("{summary}trace -> {path}\n"))
    } else {
        Ok(format!("{csv}{summary}"))
    }
}

/// `tesa trace summarize <path.jsonl> [--format text|json]` — aggregate a
/// `--trace` capture into per-phase wall times, the MSA acceptance curve,
/// the evaluator cache hit ratio, and CG solver statistics — and
/// `tesa trace export <path.jsonl> --format chrome|collapsed [--out P]` —
/// re-emit it for Perfetto / `chrome://tracing` or flamegraph tooling.
pub fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let usage = "usage: tesa trace summarize <path.jsonl> [--format text|json]\n       \
                 tesa trace export <path.jsonl> --format chrome|collapsed [--out PATH]";
    match args.positional(0) {
        Some("summarize") => {
            let path = args
                .positional(1)
                .ok_or_else(|| CliError { message: usage.into() })?;
            // Streamed line by line: campaign traces can be larger than
            // memory, and the aggregates never need the whole file.
            let file = std::fs::File::open(path)?;
            let summary =
                crate::summarize::Summary::from_reader(std::io::BufReader::new(file))
                    .map_err(|e| CliError { message: format!("{path}: {e}") })?;
            match args.get("format").unwrap_or("text") {
                "text" => Ok(summary.render()),
                "json" => Ok(format!("{}\n", summary.to_json())),
                other => Err(CliError {
                    message: format!("unknown summarize format '{other}' (use text or json)"),
                }),
            }
        }
        Some("export") => {
            let path = args
                .positional(1)
                .ok_or_else(|| CliError { message: usage.into() })?;
            let text = std::fs::read_to_string(path)?;
            let exported = match args.get("format") {
                Some("chrome") => crate::export::to_chrome(&text),
                Some("collapsed") => crate::export::to_collapsed(&text),
                Some(other) => {
                    return Err(CliError {
                        message: format!(
                            "unknown export format '{other}' (use chrome or collapsed)"
                        ),
                    });
                }
                None => {
                    return Err(CliError {
                        message: format!("tesa trace export needs --format\n{usage}"),
                    });
                }
            }
            .map_err(|e| CliError { message: format!("{path}: {e}") })?;
            if let Some(out) = args.get("out") {
                std::fs::write(out, &exported)?;
                Ok(format!("trace -> {out}\n"))
            } else {
                Ok(exported)
            }
        }
        Some(other) => Err(CliError {
            message: format!("unknown trace action '{other}'\n{usage}"),
        }),
        None => Err(CliError { message: usage.into() }),
    }
}

/// `tesa placement --chiplets 4 --side-mm 1.8 --powers 3.0,0.5,0.5,0.5` —
/// free-form thermally-aware placement vs the uniform mesh.
pub fn cmd_placement(args: &Args) -> Result<String, CliError> {
    let side_mm: f64 = args.get_or("side-mm", 1.8)?;
    let spacing: f64 = args.get_or("min-spacing-mm", 0.25)?;
    let powers: Vec<f64> = match args.get("powers") {
        Some(list) => list
            .split(',')
            .map(|tok| {
                tok.trim().parse::<f64>().map_err(|_| CliError {
                    message: format!("bad power value '{tok}' in --powers"),
                })
            })
            .collect::<Result<_, _>>()?,
        None => vec![1.5; args.get_or("chiplets", 4usize)?],
    };
    let iterations: usize = args.get_or("iterations", 150)?;
    let problem = tesa::placement::PlacementProblem {
        interposer_w_mm: 8.0,
        interposer_h_mm: 8.0,
        chiplet_side_mm: side_mm,
        chiplet_power_w: powers,
        min_spacing_mm: spacing,
    };
    let tech = tesa::TechParams::default();
    let mesh = tesa::placement::mesh_reference(&problem, &tech, 32)
        .ok_or_else(|| CliError { message: "chiplets do not fit the interposer".into() })?;
    let sa = tesa::placement::optimize_placement(&problem, &tech, 32, iterations, 42);
    let mut out = format!(
        "uniform mesh peak: {:.2} C
SA placement peak: {:.2} C ({:+.2} K, {} solves)
",
        mesh.peak_c,
        sa.peak_c,
        sa.peak_c - mesh.peak_c,
        sa.evaluations
    );
    for (i, (x, y)) in sa.positions_mm.iter().enumerate() {
        out.push_str(&format!(
            "  chiplet {i}: ({x:.2}, {y:.2}) mm, {:.2} W
",
            problem.chiplet_power_w[i]
        ));
    }
    Ok(out)
}

/// The CLI help text.
pub fn help() -> String {
    "tesa — temperature-aware MCM accelerator sizing (TESA, DATE 2023 reproduction)

USAGE:
    tesa <COMMAND> [--flag value ...]

COMMANDS:
    workload      describe the six-DNN AR/VR workload
    evaluate      evaluate one MCM design point end to end
    optimize      run the multi-start annealer over the Table II space
    sweep         exhaustively evaluate the validation space (CSV)
    thermal-map   export the steady-state device-tier heat map (CSV)
    transient     simulate the schedule's transient temperature trace
    placement     free-form SA placement vs the uniform mesh (extension)
    serve         run the resident evaluation daemon (HTTP; see docs/API.md)
    client        drive a running daemon: client <action> --addr HOST:PORT
    trace         inspect a --trace capture:
                    trace summarize <path.jsonl> [--format text|json]
                    trace export <path.jsonl> --format chrome|collapsed [--out P]
    help          print this text

COMMON FLAGS:
    --trace PATH      capture structured JSONL trace events to PATH
                      (any command; inspect with: tesa trace summarize PATH)
    --array N         systolic array dimension (evaluate/thermal-map/transient)
    --sram-kib K      per-bank SRAM capacity in KiB (paper total = 3x this)
    --integration X   2d | 3d                      [default: 2d]
    --ics-um N        inter-chiplet spacing, um    [default: 500]
    --freq MHZ        400 | 500 (or any MHz)       [default: 400]
    --fps F           latency constraint           [default: 30]
    --temp-c T        thermal budget, C            [default: 75]
    --power-w P       power budget, W              [default: 15]
    --format F        text | json (evaluate/optimize) [default: text]
    --out PATH        write CSV output to a file
    --seed N          optimizer RNG seed (optimize)
    --screening B     surrogate-screen moves, true|false (optimize) [default: false]
    --deltas A,B,..   per-start cooling factors (optimize)
    --t-init T        initial annealing temperature (optimize)
    --t-final T       final annealing temperature (optimize)
    --moves-per-temp N  moves per temperature step (optimize)
    --init-attempts N   random-init attempts per start (optimize)
    --grid-cells N    thermal grid resolution per axis [default: 64]
    --checkpoint PATH   write crash-safe campaign checkpoints to PATH (optimize)
    --checkpoint-every N  checkpoint every N temperature steps [default: 1]
    --resume PATH     resume a campaign from PATH (missing file = fresh start;
                      keeps checkpointing to the same file)
    --faultpoints S   deterministic fault injection spec (any command; also
                      via TESA_FAULTPOINTS), e.g. 'ckpt.write=nth:3;seed=1'
    --exact B         full-precision cells, true|false (thermal-map; the
                      export byte-compared by the invariance suite) [default: false]
    --dt-ms X         transient step, ms (transient) [default: 1]
    --frames N        frames to simulate (transient) [default: 3]

SERVE / CLIENT FLAGS:
    --port N          daemon listen port; 0 picks an ephemeral one (serve) [default: 0]
    --queue-depth N   admission queue bound; overflow answers 429 (serve) [default: 64]
    --batch-max N     max requests fanned out per micro-batch (serve) [default: 16]
    --campaign-dir P  checkpoint/report directory; restarts resume unfinished
                      campaigns found here (serve) [default: tesa-campaigns]
    --addr HOST:PORT  daemon address (client, required)
    --name S          campaign name (client optimize, required)
    --timeout-s X     client socket timeout, seconds [default: 600]

EXAMPLES:
    tesa evaluate --array 200 --sram-kib 1024 --freq 400
    tesa optimize --integration 3d --freq 500 --temp-c 85
    tesa thermal-map --array 200 --sram-kib 1024 --out map.csv
    tesa optimize --trace run.jsonl && tesa trace summarize run.jsonl
    tesa trace export run.jsonl --format chrome --out run.trace.json
    tesa optimize --checkpoint run.ckpt && tesa optimize --resume run.ckpt
    tesa serve --port 8080 --campaign-dir campaigns
    tesa client evaluate --addr 127.0.0.1:8080 --array 200 --sram-kib 1024
"
    .to_owned()
}

/// Dispatches a parsed command line.
pub fn run(args: &Args) -> Result<String, CliError> {
    match args.command.as_deref() {
        Some("workload") => cmd_workload(args),
        Some("evaluate") => cmd_evaluate(args),
        Some("optimize") => cmd_optimize(args),
        Some("sweep") => cmd_sweep(args),
        Some("thermal-map") => cmd_thermal_map(args),
        Some("transient") => cmd_transient(args),
        Some("placement") => cmd_placement(args),
        Some("serve") => crate::serve::cmd_serve(args),
        Some("client") => crate::serve::cmd_client(args),
        Some("trace") => cmd_trace(args),
        Some("help") | None => Ok(help()),
        Some(other) => Err(CliError { message: format!("unknown command '{other}'\n\n{}", help()) }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| (*s).to_owned())).expect("parses")
    }

    #[test]
    fn help_lists_all_commands() {
        let h = help();
        for cmd in
            ["workload", "evaluate", "optimize", "sweep", "thermal-map", "transient", "placement"]
        {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn placement_rejects_bad_power_list() {
        let a = args(&["placement", "--powers", "1.0,oops"]);
        let err = cmd_placement(&a).expect_err("bad list");
        assert!(err.to_string().contains("oops"));
    }

    #[test]
    fn workload_command_reports_six_dnns() {
        let out = cmd_workload(&args(&["workload"])).expect("runs");
        assert!(out.contains("U-Net") && out.contains("[5]"));
    }

    #[test]
    fn evaluate_requires_architecture_flags() {
        let err = cmd_evaluate(&args(&["evaluate"])).expect_err("missing flags");
        assert!(err.to_string().contains("array"));
    }

    #[test]
    fn unknown_command_mentions_help() {
        let err = run(&args(&["frobnicate"])).expect_err("unknown");
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn unknown_integration_is_rejected() {
        let a = args(&["evaluate", "--array", "64", "--sram-kib", "64", "--integration", "4d"]);
        let err = cmd_evaluate(&a).expect_err("bad integration");
        assert!(err.to_string().contains("4d"));
    }

    #[test]
    fn evaluate_emits_json_when_asked() {
        let a = args(&[
            "evaluate", "--array", "64", "--sram-kib", "128", "--freq", "400", "--fps", "1",
            "--format", "json",
        ]);
        let out = cmd_evaluate(&a).expect("runs");
        assert!(out.starts_with('{') && out.trim_end().ends_with('}'));
        for key in ["\"design\"", "\"peak_temp_c\"", "\"feasible\"", "\"violations\""] {
            assert!(out.contains(key), "JSON report missing {key}");
        }
    }

    #[test]
    fn unknown_format_is_rejected() {
        let a = args(&["evaluate", "--array", "64", "--sram-kib", "128", "--format", "xml"]);
        let err = cmd_evaluate(&a).expect_err("bad format");
        assert!(err.to_string().contains("xml"));
    }

    #[test]
    fn evaluate_small_design_runs() {
        let a = args(&[
            "evaluate", "--array", "64", "--sram-kib", "128", "--freq", "400", "--fps", "1",
        ]);
        let out = cmd_evaluate(&a).expect("runs");
        assert!(out.contains("mesh:"));
        assert!(out.contains("verdict:"));
    }
}
