//! The multi-start simulated-annealing (MSA) optimizer (paper Sec. III-D,
//! Fig. 4).
//!
//! Each annealer starts from a random *feasible* MCM and perturbs one knob
//! at a time — the array dimension, the SRAM capacity, or the ICS — one
//! design-space step per move. Infeasible candidates are rejected outright;
//! better candidates are always accepted; worse ones are accepted with the
//! Metropolis probability `exp(-dObj / T)`. The annealing temperature
//! decays geometrically (`T <- delta * T`) every `N` perturbations, and the
//! annealer stops when `T` falls below the final temperature. Multiple
//! starts run in parallel with different decay rates to increase the chance
//! of reaching the global optimum.

use crate::checkpoint::{CampaignState, CheckpointError, StartSnapshot, StartState};
use crate::constraints::Constraints;
use crate::design::{DesignSpace, Integration, McmDesign};
use crate::eval::{Evaluator, McmEvaluation, ScreenVerdict};
use crate::objective::Objective;
use crate::progress::CampaignProgress;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tesa_util::{faultpoint, metrics, trace, Json, Rng};

// Always-on aggregate telemetry (exported by `tesa serve` on
// `GET /metrics`). Updated once per temperature step or checkpoint write
// — never per move — so the annealer hot path stays unchanged.
static MSA_TEMPERATURE: metrics::Gauge = metrics::Gauge::new(
    "tesa_msa_temperature",
    "Most recently published annealing temperature (last writer across starts).",
);
static MSA_TEMP_STEPS: metrics::Counter = metrics::Counter::new(
    "tesa_msa_temp_steps_total",
    "Completed annealing temperature steps across all campaigns.",
);
static MSA_MOVES: metrics::Counter = metrics::Counter::new(
    "tesa_msa_moves_total",
    "Attempted annealer moves across all campaigns.",
);
static MSA_ACCEPTED: metrics::Counter = metrics::Counter::new(
    "tesa_msa_accepted_moves_total",
    "Accepted annealer moves across all campaigns.",
);
static MSA_STARTS: metrics::Counter = metrics::Counter::new(
    "tesa_msa_starts_total",
    "Annealing starts launched (one per delta per campaign).",
);
static MSA_CKPT_WRITES: metrics::Counter = metrics::Counter::new(
    "tesa_msa_checkpoint_writes_total",
    "Campaign checkpoint files written successfully.",
);
static MSA_CKPT_FAILURES: metrics::Counter = metrics::Counter::new(
    "tesa_msa_checkpoint_write_failures_total",
    "Campaign checkpoint writes that failed (campaigns continue past them).",
);

/// MSA configuration. The defaults reproduce the paper's validation setup:
/// three starts with decay rates 0.89 / 0.87 / 0.85, `T` from 19 down to
/// 0.5, and `N = 10` perturbations per temperature step.
#[derive(Debug, Clone, PartialEq)]
pub struct MsaConfig {
    /// Decay rate (`delta`) of each parallel start.
    pub deltas: Vec<f64>,
    /// Initial annealing temperature (`T_a` start).
    pub t_init: f64,
    /// Final annealing temperature (the annealer converges when `T_a`
    /// drops below this).
    pub t_final: f64,
    /// Perturbations per temperature step (`N`).
    pub moves_per_temp: u32,
    /// Attempts at drawing a random feasible initial MCM per start.
    pub init_attempts: u32,
    /// RNG seed; start `i` uses `seed + i`.
    pub seed: u64,
    /// Surrogate screening: skip the full evaluation of candidates the
    /// cheap screen proves infeasible
    /// ([`ScreenVerdict::ClearlyInfeasible`]). Every design the annealer
    /// accepts or reports is still evaluated exactly, and the
    /// accept/reject trajectory is bit-identical to the unscreened run;
    /// only [`AnnealOutcome::evaluations`] shrinks.
    pub screening: bool,
    /// Ignored. This was the depth of a speculative lookahead that
    /// pre-evaluated predicted moves on the worker pool; it never beat
    /// the plain serial chain and was removed. Set it through
    /// `..MsaConfig::default()`, or not at all.
    #[deprecated(note = "speculation was removed; the annealer ignores this field")]
    pub speculation: usize,
}

impl Default for MsaConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        Self {
            deltas: vec![0.89, 0.87, 0.85],
            t_init: 19.0,
            t_final: 0.5,
            moves_per_temp: 10,
            init_attempts: 400,
            seed: 0x7E5A_2023,
            screening: false,
            speculation: 0,
        }
    }
}

/// Result of an MSA run.
#[derive(Debug, Clone)]
pub struct AnnealOutcome {
    /// The best feasible design found, if any start could be initialized.
    pub best: Option<McmEvaluation>,
    /// Total number of full evaluations performed (across all starts).
    pub evaluations: usize,
    /// Unique design points visited.
    pub unique_designs: usize,
    /// Accepted moves across all starts.
    pub accepted_moves: usize,
    /// Checkpoint writes that failed (the campaign continues past them;
    /// always 0 when checkpointing is off).
    pub checkpoint_write_failures: u64,
}

impl AnnealOutcome {
    /// Fraction of `space_size` explored — the paper reports the optimizer
    /// touching <15 % of the validation space before convergence.
    pub fn explored_fraction(&self, space_size: usize) -> f64 {
        self.unique_designs as f64 / space_size.max(1) as f64
    }
}

/// One step along a design-space axis: returns the neighboring design, or
/// `None` when the move falls off the space (the caller retries).
fn neighbor(
    design: &McmDesign,
    space: &DesignSpace,
    rng: &mut Rng,
) -> Option<McmDesign> {
    let knob = rng.gen_range(0..3u8);
    let dir: i64 = if rng.gen_bool(0.5) { 1 } else { -1 };
    let mut next = *design;
    match knob {
        0 => {
            let i = space.array_dims.iter().position(|&d| d == design.chiplet.array_dim)?;
            let j = i as i64 + dir;
            next.chiplet.array_dim = *space.array_dims.get(usize::try_from(j).ok()?)?;
        }
        1 => {
            let i = space
                .sram_kib_options
                .iter()
                .position(|&s| s == design.chiplet.sram_kib_per_bank)?;
            let j = i as i64 + dir;
            next.chiplet.sram_kib_per_bank =
                *space.sram_kib_options.get(usize::try_from(j).ok()?)?;
        }
        _ => {
            let i = space.ics_um_options.iter().position(|&s| s == design.ics_um)?;
            let j = i as i64 + dir;
            next.ics_um = *space.ics_um_options.get(usize::try_from(j).ok()?)?;
        }
    }
    Some(next)
}

fn random_design(
    space: &DesignSpace,
    integration: Integration,
    freq_mhz: u32,
    rng: &mut Rng,
) -> McmDesign {
    McmDesign {
        chiplet: crate::design::ChipletConfig {
            array_dim: space.array_dims[rng.gen_range(0..space.array_dims.len())],
            sram_kib_per_bank: space.sram_kib_options
                [rng.gen_range(0..space.sram_kib_options.len())],
            integration,
        },
        ics_um: space.ics_um_options[rng.gen_range(0..space.ics_um_options.len())],
        freq_mhz,
    }
}

struct StartOutcome {
    best: Option<(f64, McmEvaluation)>,
    evaluations: usize,
    visited: Vec<McmDesign>,
    accepted: usize,
}

/// Where and how often [`optimize_checkpointed`] persists campaign state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (written atomically; see
    /// [`CampaignState::save`]).
    pub path: PathBuf,
    /// Write after every `every` recorded temperature steps (across all
    /// starts); completion of a start always writes. `0` behaves as `1`.
    pub every: u32,
}

/// Shared collector of per-start snapshots; serializes state updates and
/// file writes behind one mutex (starts run on parallel threads).
struct CheckpointSink {
    path: PathBuf,
    every: u64,
    inner: Mutex<SinkInner>,
    /// Live-progress handle of the owning campaign (checkpoint counts
    /// feed `GET /campaigns/<name>/progress`).
    progress: Option<Arc<CampaignProgress>>,
}

struct SinkInner {
    state: CampaignState,
    updates: u64,
    failures: u64,
}

impl CheckpointSink {
    fn new(
        policy: &CheckpointPolicy,
        state: CampaignState,
        progress: Option<Arc<CampaignProgress>>,
    ) -> Self {
        Self {
            path: policy.path.clone(),
            every: u64::from(policy.every.max(1)),
            inner: Mutex::new(SinkInner { state, updates: 0, failures: 0 }),
            progress,
        }
    }

    /// Installs the slot for one start and persists on cadence (or always
    /// when the slot is `Done`). A failed write is counted and traced; the
    /// campaign itself continues.
    fn record(&self, idx: usize, slot: StartState) {
        let done = matches!(slot, StartState::Done(_));
        let mut g = self.inner.lock().expect("checkpoint sink poisoned");
        g.state.starts[idx] = slot;
        g.updates += 1;
        if !done && !g.updates.is_multiple_of(self.every) {
            return;
        }
        match g.state.save(&self.path) {
            Ok(()) => {
                MSA_CKPT_WRITES.inc();
                if let Some(p) = &self.progress {
                    p.record_checkpoint();
                }
                // Kill-matrix hook: simulate a hard crash at the worst
                // possible honest moment — right after a checkpoint commit.
                if faultpoint::fire("ckpt.abort") {
                    std::process::abort();
                }
            }
            Err(e) => {
                g.failures += 1;
                MSA_CKPT_FAILURES.inc();
                trace::counter("msa.ckpt.write_failed", 1.0);
                let msg = e.to_string();
                trace::event("msa.ckpt.error", || vec![("error", Json::str(msg))]);
            }
        }
    }

    fn failures(&self) -> u64 {
        self.inner.lock().expect("checkpoint sink poisoned").failures
    }
}

/// Hash of everything that shapes a campaign's trajectory and counters.
/// Two campaigns with equal fingerprints and seeds produce bit-identical
/// results, so a checkpoint may only be resumed by a campaign with the
/// same fingerprint.
fn campaign_fingerprint(
    evaluator: &Evaluator,
    space: &DesignSpace,
    integration: Integration,
    freq_mhz: u32,
    constraints: &Constraints,
    objective: &Objective,
    config: &MsaConfig,
) -> u64 {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(512);
    let _ = write!(s, "tesa-campaign-v1|deltas:");
    for d in &config.deltas {
        let _ = write!(s, "{:016x},", d.to_bits());
    }
    let _ = write!(
        s,
        "|t:{:016x}:{:016x}|moves:{}|attempts:{}|seed:{:016x}|screening:{}",
        config.t_init.to_bits(),
        config.t_final.to_bits(),
        config.moves_per_temp,
        config.init_attempts,
        config.seed,
        config.screening,
    );
    let _ = write!(s, "|space:");
    for d in &space.array_dims {
        let _ = write!(s, "{d},");
    }
    let _ = write!(s, ";");
    for k in &space.sram_kib_options {
        let _ = write!(s, "{k},");
    }
    let _ = write!(s, ";");
    for i in &space.ics_um_options {
        let _ = write!(s, "{i},");
    }
    let _ = write!(s, "|integration:{integration:?}|freq:{freq_mhz}");
    let _ = write!(
        s,
        "|constraints:{:016x}:{:016x}:{:016x}:{:016x}:{:016x}:{}",
        constraints.min_fps.to_bits(),
        constraints.power_budget_w.to_bits(),
        constraints.interposer_w_mm.to_bits(),
        constraints.interposer_h_mm.to_bits(),
        constraints.temp_budget_c.to_bits(),
        constraints.max_ics_um,
    );
    let _ = write!(
        s,
        "|objective:{:016x}:{:016x}:{:016x}:{:016x}",
        objective.alpha.to_bits(),
        objective.beta.to_bits(),
        objective.cost_ref_usd.to_bits(),
        objective.dram_ref_w.to_bits(),
    );
    let o = evaluator.options();
    let _ = write!(
        s,
        "|eval:{:?}:{:?}:{:?}:thermal={}:grid={}:lazy={}",
        o.dataflow, o.leakage, o.scheduler, o.thermal_enabled, o.grid_cells, o.lazy,
    );
    tesa_util::hash::fnv1a64(s.as_bytes())
}

/// Rebuilds a start's outcome from a snapshot. The best evaluation is
/// re-materialized through the (deterministic, pure) evaluator — this
/// draws no RNG and is not a counted evaluation, so resumed counters match
/// the uninterrupted run exactly.
fn restore_outcome(
    out: &mut StartOutcome,
    snap: StartSnapshot,
    evaluator: &Evaluator,
    constraints: &Constraints,
) {
    out.evaluations = snap.evaluations as usize;
    out.accepted = snap.accepted as usize;
    out.visited = snap.visited;
    out.best = snap
        .best
        .map(|(s, d)| (s, (*evaluator.evaluate_cached(&d, constraints)).clone()));
}

/// Consecutive surrogate-stage screens that failed to reject, after which
/// the adaptive gate turns screening off for the rest of the start. Each
/// such screen spends coarse-grid solves; once that many candidates in a
/// row survive them, the chain has clearly settled into territory where
/// the surrogate rejects nothing and only adds latency. (Screens settled
/// by the cheap exact pipeline are free either way and never counted.)
const SCREEN_MISS_LIMIT: u32 = 8;

/// Adaptive screening gate for one annealing start.
///
/// The pre-screen pays for itself only while its *surrogate thermal
/// stage* keeps rejecting candidates: a surrogate reject saves the
/// fine-grid leakage co-iteration, but a reject by the screen's cheap
/// exact pipeline saves nothing a lazy evaluator would not reject just
/// as cheaply, and an ambiguous surrogate verdict is coarse solves spent
/// for nothing. Random initialization draws land in infeasible territory
/// often; neighborhood moves around a feasible design rarely do. The
/// gate therefore watches the serial chain's own surrogate-stage
/// outcomes and shuts screening off for the remainder of the start when
/// it stops earning — after initialization if no draw was rejected
/// there, or mid-chain after [`SCREEN_MISS_LIMIT`] consecutive misses.
///
/// Two properties make this safe:
///
/// * **Trajectory-neutral.** The screen only ever skips full evaluations
///   of candidates the evaluator would reject as infeasible anyway, so
///   the accepted chain is identical with screening on, off, or switched
///   off midway. Only the evaluation count moves.
/// * **Deterministic.** Infeasible-only verdicts, and the stage that
///   settled them, are a pure function of the design. The same seed
///   therefore disables the gate at the same move on any machine and any
///   `TESA_THREADS`. The gate's state is checkpointed with each snapshot
///   so a resumed run continues the count instead of restarting it.
struct ScreenGate {
    enabled: bool,
    misses: u32,
    /// Serial screens seen during initialization (while `in_init` holds;
    /// [`ScreenGate::end_init`] consumes these).
    init_screens: u32,
    init_rejects: u32,
    in_init: bool,
}

impl ScreenGate {
    fn new(screening: bool) -> Self {
        Self { enabled: screening, misses: 0, init_screens: 0, init_rejects: 0, in_init: true }
    }

    /// Restores the gate mid-chain from a checkpoint snapshot.
    fn resume(screen_on: bool, screen_misses: u32) -> Self {
        Self { misses: screen_misses, in_init: false, ..Self::new(screen_on) }
    }

    /// Screens `design` on the serial chain. Returns `true` when the
    /// candidate is proven infeasible and the caller should skip its full
    /// evaluation; updates the gate's bookkeeping either way. Only
    /// surrogate-stage outcomes move the counters — cheap-stage verdicts
    /// cost (and save) nothing worth tracking.
    fn rejects(
        &mut self,
        evaluator: &Evaluator,
        design: &McmDesign,
        constraints: &Constraints,
    ) -> bool {
        if !self.enabled {
            return false;
        }
        let (verdict, surrogate) = evaluator.screen_mode(design, constraints, false);
        let rejected = verdict == ScreenVerdict::ClearlyInfeasible;
        if !surrogate {
            return rejected;
        }
        if self.in_init {
            self.init_screens += 1;
            self.init_rejects += u32::from(rejected);
            return rejected;
        }
        if rejected {
            self.misses = 0;
        } else {
            self.misses += 1;
            if self.misses >= SCREEN_MISS_LIMIT {
                self.enabled = false;
                trace::counter("msa.screen.disabled", 1.0);
            }
        }
        rejected
    }

    /// Marks the end of the initialization phase. If the surrogate stage
    /// ran during init without rejecting a single draw, the space (as
    /// sampled) has no thermally-infeasible region the surrogate can
    /// carve off cheaply — and the chain explores an even friendlier
    /// neighborhood — so turn screening off before it costs anything
    /// more.
    fn end_init(&mut self) {
        self.in_init = false;
        if self.enabled && self.init_screens > 0 && self.init_rejects == 0 {
            self.enabled = false;
            trace::counter("msa.screen.disabled", 1.0);
        }
    }

    /// `(enabled, misses)` for checkpointing.
    fn state(&self) -> (bool, u32) {
        (self.enabled, self.misses)
    }
}

/// Initialization phase of one start: draws random designs until one is
/// feasible (or attempts run out), updating `out`'s counters and visited
/// list. Returns the chain's first `(design, score)`.
#[allow(clippy::too_many_arguments)]
fn init_start<S>(
    evaluator: &Evaluator,
    space: &DesignSpace,
    integration: Integration,
    freq_mhz: u32,
    constraints: &Constraints,
    score: &S,
    config: &MsaConfig,
    delta: f64,
    rng: &mut Rng,
    out: &mut StartOutcome,
    gate: &mut ScreenGate,
) -> Option<(McmDesign, f64)>
where
    S: Fn(&McmEvaluation) -> f64 + Sync,
{
    let mut current: Option<(McmDesign, f64)> = None;
    let mut init_attempts_used = 0u32;
    for _ in 0..config.init_attempts {
        let d = random_design(space, integration, freq_mhz, rng);
        init_attempts_used += 1;
        if gate.rejects(evaluator, &d, constraints) {
            // The screen is sound in this direction: the full evaluation
            // would be rejected as infeasible, so only the evaluation
            // count changes, never the chain.
            out.visited.push(d);
            continue;
        }
        let eval = evaluator.evaluate_cached(&d, constraints);
        out.evaluations += 1;
        out.visited.push(d);
        if eval.is_feasible() {
            let s = score(&eval);
            out.best = Some((s, (*eval).clone()));
            current = Some((d, s));
            break;
        }
    }
    trace::event("msa.init", || {
        vec![
            ("delta", Json::F64(delta)),
            ("attempts", Json::U64(u64::from(init_attempts_used))),
            ("feasible", Json::Bool(current.is_some())),
            ("init_cost", current.map_or(Json::Null, |(_, s)| Json::F64(s))),
        ]
    });
    current
}

#[allow(clippy::too_many_arguments)]
fn run_start<S>(
    evaluator: &Evaluator,
    space: &DesignSpace,
    integration: Integration,
    freq_mhz: u32,
    constraints: &Constraints,
    score: &S,
    config: &MsaConfig,
    delta: f64,
    seed: u64,
    resume: Option<StartState>,
    ckpt: Option<&CheckpointSink>,
    progress: Option<&CampaignProgress>,
    idx: usize,
) -> StartOutcome
where
    S: Fn(&McmEvaluation) -> f64 + Sync,
{
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = StartOutcome { best: None, evaluations: 0, visited: Vec::new(), accepted: 0 };
    MSA_STARTS.inc();
    let mut start_span = trace::span("msa.start");
    start_span.field("delta", Json::F64(delta));
    start_span.field("seed", Json::U64(seed));

    // Resume path, stage one: a `Done` snapshot short-circuits the whole
    // start; a `Running` snapshot restores the chain mid-schedule (RNG
    // stream, temperature, current/best, counters, screening gate);
    // anything else runs the initialization phase below.
    let mut gate = ScreenGate::new(config.screening);
    let mut resumed: Option<(McmDesign, f64, f64)> = None;
    match resume {
        Some(StartState::Done(snap)) => {
            start_span.field("resumed", Json::str("done"));
            start_span.field("feasible", Json::Bool(snap.current.is_some()));
            restore_outcome(&mut out, snap, evaluator, constraints);
            if let Some(p) = progress {
                p.start(idx).finish();
            }
            return out;
        }
        Some(StartState::Running(mut snap)) => {
            rng = Rng::from_state(snap.rng);
            gate = ScreenGate::resume(snap.screen_on, snap.screen_misses);
            let t = snap.t;
            let (d, s) = snap
                .current
                .take()
                .expect("validated at load: a running snapshot has a current design");
            restore_outcome(&mut out, snap, evaluator, constraints);
            start_span.field("resumed", Json::str("running"));
            trace::event("msa.resume", || {
                vec![
                    ("delta", Json::F64(delta)),
                    ("t", Json::F64(t)),
                    ("evaluations", Json::U64(out.evaluations as u64)),
                ]
            });
            if let Some(p) = progress {
                p.start(idx).sync_to_temperature(t);
            }
            resumed = Some((d, s, t));
        }
        Some(StartState::Pending) | None => {}
    }
    // Stage two: a fresh (or still-pending) start runs initialization.
    let (mut cur_design, mut cur_score, mut t) = match resumed {
        Some(state) => state,
        None => {
            let Some((d, s)) = init_start(
                evaluator,
                space,
                integration,
                freq_mhz,
                constraints,
                score,
                config,
                delta,
                &mut rng,
                &mut out,
                &mut gate,
            ) else {
                // Initialization exhausted its attempts without a feasible
                // design; snapshot that as Done so a resume skips it.
                gate.end_init();
                if let Some(sink) = ckpt {
                    let (screen_on, screen_misses) = gate.state();
                    sink.record(
                        idx,
                        StartState::Done(StartSnapshot {
                            rng: rng.state(),
                            t: config.t_init,
                            current: None,
                            best: None,
                            evaluations: out.evaluations as u64,
                            accepted: 0,
                            screen_on,
                            screen_misses,
                            visited: out.visited.clone(),
                        }),
                    );
                }
                start_span.field("feasible", Json::Bool(false));
                if let Some(p) = progress {
                    p.start(idx).finish();
                }
                return out;
            };
            gate.end_init();
            (d, s, config.t_init)
        }
    };
    while t > config.t_final {
        // Per-temperature-step tallies: aggregate (rather than per-move)
        // events keep the trace size proportional to the schedule length.
        let (mut accepted, mut rej_infeasible, mut rej_offspace, mut rej_metropolis) =
            (0u32, 0u32, 0u32, 0u32);
        for _ in 0..config.moves_per_temp {
            let Some(candidate) = neighbor(&cur_design, space, &mut rng) else {
                rej_offspace += 1;
                continue;
            };
            if gate.rejects(evaluator, &candidate, constraints) {
                out.visited.push(candidate);
                rej_infeasible += 1;
                continue;
            }
            let eval = evaluator.evaluate_cached(&candidate, constraints);
            out.evaluations += 1;
            out.visited.push(candidate);
            if !eval.is_feasible() {
                rej_infeasible += 1;
                continue;
            }
            let s = score(&eval);
            let accept = if s < cur_score {
                true
            } else {
                let p = (-(s - cur_score) / t).exp();
                rng.next_f64() < p
            };
            if accept {
                accepted += 1;
                out.accepted += 1;
                cur_design = candidate;
                cur_score = s;
                if out.best.as_ref().is_none_or(|(bs, _)| s < *bs) {
                    out.best = Some((s, (*eval).clone()));
                }
            } else {
                rej_metropolis += 1;
            }
        }
        trace::event("msa.temp", || {
            vec![
                ("delta", Json::F64(delta)),
                ("t", Json::F64(t)),
                ("moves", Json::U64(u64::from(config.moves_per_temp))),
                ("accepted", Json::U64(u64::from(accepted))),
                ("rej_infeasible", Json::U64(u64::from(rej_infeasible))),
                ("rej_offspace", Json::U64(u64::from(rej_offspace))),
                ("rej_metropolis", Json::U64(u64::from(rej_metropolis))),
                ("cur_cost", Json::F64(cur_score)),
                ("best_cost", out.best.as_ref().map_or(Json::Null, |(s, _)| Json::F64(*s))),
            ]
        });
        t *= delta;
        // Aggregate telemetry at temperature-step cadence: a handful of
        // relaxed atomic ops amortized over `moves_per_temp` evaluations.
        MSA_TEMPERATURE.set(t);
        MSA_TEMP_STEPS.inc();
        MSA_MOVES.add(u64::from(config.moves_per_temp));
        MSA_ACCEPTED.add(u64::from(accepted));
        if let Some(p) = progress {
            p.start(idx).record_step(
                t,
                config.moves_per_temp,
                accepted,
                out.best.as_ref().map(|(s, _)| *s),
                out.evaluations as u64,
            );
        }
        if let Some(sink) = ckpt {
            // Snapshot at the temperature-step boundary: the RNG stream is
            // exactly here, so a resume replays the remaining steps
            // bit-identically. The final step's snapshot is `Done`.
            let (screen_on, screen_misses) = gate.state();
            let snap = StartSnapshot {
                rng: rng.state(),
                t,
                current: Some((cur_design, cur_score)),
                best: out.best.as_ref().map(|(s, e)| (*s, e.design)),
                evaluations: out.evaluations as u64,
                accepted: out.accepted as u64,
                screen_on,
                screen_misses,
                visited: out.visited.clone(),
            };
            let slot = if t > config.t_final {
                StartState::Running(snap)
            } else {
                StartState::Done(snap)
            };
            sink.record(idx, slot);
        }
    }
    if let Some(p) = progress {
        p.start(idx).finish();
    }
    if trace::enabled() {
        start_span.field("feasible", Json::Bool(true));
        start_span.field("evaluations", Json::U64(out.evaluations as u64));
        start_span.field("accepted", Json::U64(out.accepted as u64));
        if let Some((s, _)) = &out.best {
            start_span.field("best_cost", Json::F64(*s));
        }
    }
    out
}

/// Runs the multi-start annealer, minimizing `score` over feasible designs
/// in `space` (at the given integration and frequency). Starts run in
/// parallel; the result is deterministic for a fixed seed.
///
/// The `score` closure makes the annealer reusable by the prior-work
/// baselines (W1 minimizes temperature, W2 a weighted multi-objective);
/// TESA itself uses [`optimize`] with Eq. (6).
pub fn optimize_with<S>(
    evaluator: &Evaluator,
    space: &DesignSpace,
    integration: Integration,
    freq_mhz: u32,
    constraints: &Constraints,
    score: S,
    config: &MsaConfig,
) -> AnnealOutcome
where
    S: Fn(&McmEvaluation) -> f64 + Sync,
{
    let slots = vec![None; config.deltas.len()];
    optimize_inner(
        evaluator,
        space,
        integration,
        freq_mhz,
        constraints,
        &score,
        config,
        None,
        None,
        slots,
    )
}

#[allow(clippy::too_many_arguments)]
fn optimize_inner<S>(
    evaluator: &Evaluator,
    space: &DesignSpace,
    integration: Integration,
    freq_mhz: u32,
    constraints: &Constraints,
    score: &S,
    config: &MsaConfig,
    sink: Option<&CheckpointSink>,
    progress: Option<&CampaignProgress>,
    mut resume_slots: Vec<Option<StartState>>,
) -> AnnealOutcome
where
    S: Fn(&McmEvaluation) -> f64 + Sync,
{
    let mut opt_span = trace::span("msa.optimize");
    opt_span.field("starts", Json::U64(config.deltas.len() as u64));
    let starts: Vec<StartOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = config
            .deltas
            .iter()
            .enumerate()
            .map(|(i, &delta)| {
                let resume = resume_slots.get_mut(i).and_then(Option::take);
                scope.spawn(move || {
                    run_start(
                        evaluator,
                        space,
                        integration,
                        freq_mhz,
                        constraints,
                        score,
                        config,
                        delta,
                        config.seed.wrapping_add(i as u64),
                        resume,
                        sink,
                        progress,
                        i,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("annealer start panicked")).collect()
    });

    let mut best: Option<(f64, McmEvaluation)> = None;
    let mut evaluations = 0;
    let mut accepted = 0;
    let mut visited: std::collections::HashSet<McmDesign> = std::collections::HashSet::new();
    for s in starts {
        evaluations += s.evaluations;
        accepted += s.accepted;
        visited.extend(s.visited);
        if let Some((score, eval)) = s.best {
            if best.as_ref().is_none_or(|(b, _)| score < *b) {
                best = Some((score, eval));
            }
        }
    }
    if trace::enabled() {
        opt_span.field("evaluations", Json::U64(evaluations as u64));
        opt_span.field("unique_designs", Json::U64(visited.len() as u64));
        opt_span.field("accepted", Json::U64(accepted as u64));
        opt_span.field("found_feasible", Json::Bool(best.is_some()));
    }
    AnnealOutcome {
        best: best.map(|(_, e)| e),
        evaluations,
        unique_designs: visited.len(),
        accepted_moves: accepted,
        checkpoint_write_failures: sink.map_or(0, CheckpointSink::failures),
    }
}

/// TESA's optimizer: minimizes the Eq. (6) objective.
pub fn optimize(
    evaluator: &Evaluator,
    space: &DesignSpace,
    integration: Integration,
    freq_mhz: u32,
    constraints: &Constraints,
    objective: &crate::objective::Objective,
    config: &MsaConfig,
) -> AnnealOutcome {
    optimize_with(
        evaluator,
        space,
        integration,
        freq_mhz,
        constraints,
        |e| e.objective(objective),
        config,
    )
}

/// [`optimize`] with crash-safe checkpointing and resume.
///
/// With a [`CheckpointPolicy`], campaign state is persisted atomically at
/// temperature-step boundaries (see [`crate::checkpoint`]); with
/// `resume_from`, a previously written checkpoint restores every start's
/// RNG stream, schedule position and counters, and the campaign replays to
/// a **bit-identical** final outcome — same best design and evaluation,
/// same evaluation/acceptance counts — as the uninterrupted run. A missing
/// `resume_from` file starts fresh, so kill/resume loops can pass it
/// unconditionally. Checkpoints carry a campaign fingerprint; resuming
/// under a different config, space, constraints, objective or evaluator
/// setup is rejected rather than silently mixing trajectories.
///
/// With a `progress` name, the campaign registers itself in
/// [`crate::progress`] for its lifetime and publishes live state —
/// temperature, sliding-window acceptance rate, best cost, checkpoint
/// count, schedule position — once per temperature step. Publishing
/// draws no RNG and never touches the trajectory, so the outcome stays
/// bit-identical with or without it.
///
/// # Errors
///
/// [`CheckpointError`] when the resume file exists but is corrupt,
/// version-incompatible, or from a different campaign. Checkpoint *write*
/// failures do not abort the run; they are counted in
/// [`AnnealOutcome::checkpoint_write_failures`].
#[allow(clippy::too_many_arguments)]
pub fn optimize_checkpointed(
    evaluator: &Evaluator,
    space: &DesignSpace,
    integration: Integration,
    freq_mhz: u32,
    constraints: &Constraints,
    objective: &Objective,
    config: &MsaConfig,
    policy: Option<&CheckpointPolicy>,
    resume_from: Option<&Path>,
    progress: Option<&str>,
) -> Result<AnnealOutcome, CheckpointError> {
    let fingerprint = campaign_fingerprint(
        evaluator,
        space,
        integration,
        freq_mhz,
        constraints,
        objective,
        config,
    );
    let resume_state = match resume_from {
        Some(p) if p.exists() => {
            let st = CampaignState::load(p)?;
            if st.fingerprint != fingerprint {
                return Err(CheckpointError::ConfigMismatch {
                    expected: fingerprint,
                    found: st.fingerprint,
                });
            }
            if st.starts.len() != config.deltas.len() {
                return Err(CheckpointError::Malformed(format!(
                    "checkpoint has {} starts, campaign has {}",
                    st.starts.len(),
                    config.deltas.len()
                )));
            }
            if st
                .starts
                .iter()
                .any(|s| matches!(s, StartState::Running(snap) if snap.current.is_none()))
            {
                return Err(CheckpointError::Malformed(
                    "running start without a current design".into(),
                ));
            }
            Some(st)
        }
        _ => None,
    };
    let slots: Vec<Option<StartState>> = match &resume_state {
        Some(st) => st.starts.iter().cloned().map(Some).collect(),
        None => vec![None; config.deltas.len()],
    };
    let guard = progress.map(|name| crate::progress::begin(name, config));
    let sink = policy.map(|p| {
        let state = resume_state.unwrap_or_else(|| CampaignState {
            fingerprint,
            starts: vec![StartState::Pending; config.deltas.len()],
        });
        CheckpointSink::new(p, state, guard.as_ref().map(|g| g.handle()))
    });
    Ok(optimize_inner(
        evaluator,
        space,
        integration,
        freq_mhz,
        constraints,
        &|e: &McmEvaluation| e.objective(objective),
        config,
        sink.as_ref(),
        guard.as_ref().map(|g| g.campaign()),
        slots,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalOptions;
    use tesa_workloads::arvr_suite;

    fn small_space() -> DesignSpace {
        DesignSpace {
            array_dims: (96..=160).step_by(16).collect(),
            sram_kib_options: vec![256, 512, 1024],
            ics_um_options: vec![0, 500, 1000],
        }
    }

    fn config() -> MsaConfig {
        MsaConfig {
            deltas: vec![0.7, 0.6],
            t_init: 4.0,
            t_final: 1.0,
            moves_per_temp: 4,
            init_attempts: 40,
            seed: 7,
            screening: false,
            ..MsaConfig::default()
        }
    }

    #[test]
    fn neighbor_moves_one_step() {
        let space = small_space();
        let mut rng = Rng::seed_from_u64(1);
        let d = McmDesign {
            chiplet: crate::design::ChipletConfig {
                array_dim: 128,
                sram_kib_per_bank: 512,
                integration: Integration::TwoD,
            },
            ics_um: 500,
            freq_mhz: 400,
        };
        for _ in 0..50 {
            if let Some(n) = neighbor(&d, &space, &mut rng) {
                let changed = [
                    n.chiplet.array_dim != d.chiplet.array_dim,
                    n.chiplet.sram_kib_per_bank != d.chiplet.sram_kib_per_bank,
                    n.ics_um != d.ics_um,
                ];
                assert_eq!(changed.iter().filter(|&&c| c).count(), 1, "exactly one knob moves");
            }
        }
    }

    #[test]
    fn finds_a_feasible_design_in_a_small_space() {
        let evaluator = Evaluator::new(
            arvr_suite(),
            EvalOptions { grid_cells: 32, ..Default::default() },
        );
        let constraints = Constraints::edge_device(15.0, 85.0);
        let out = optimize(
            &evaluator,
            &small_space(),
            Integration::TwoD,
            400,
            &constraints,
            &crate::objective::Objective::balanced(),
            &config(),
        );
        let best = out.best.expect("a feasible design exists in this space");
        assert!(best.is_feasible());
        assert!(out.evaluations > 0);
        assert!(out.unique_designs > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let evaluator = Evaluator::new(
            arvr_suite(),
            EvalOptions { grid_cells: 32, ..Default::default() },
        );
        let constraints = Constraints::edge_device(15.0, 85.0);
        let run = || {
            optimize(
                &evaluator,
                &small_space(),
                Integration::TwoD,
                400,
                &constraints,
                &crate::objective::Objective::balanced(),
                &config(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.best.as_ref().map(|e| e.design),
            b.best.as_ref().map(|e| e.design)
        );
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn screening_preserves_the_trajectory() {
        // A tight thermal budget so the space holds clearly infeasible
        // designs: the screen must skip their evaluation without changing
        // which designs are visited, accepted, or reported.
        let constraints = Constraints::edge_device(15.0, 76.0);
        let run = |screening: bool| {
            let evaluator = Evaluator::new(
                arvr_suite(),
                EvalOptions { grid_cells: 32, ..Default::default() },
            );
            optimize(
                &evaluator,
                &small_space(),
                Integration::TwoD,
                400,
                &constraints,
                &crate::objective::Objective::balanced(),
                &MsaConfig { screening, ..config() },
            )
        };
        let base = run(false);
        let fast = run(true);
        assert_eq!(
            base.best.as_ref().map(|e| e.design),
            fast.best.as_ref().map(|e| e.design),
            "screening must not change the best design"
        );
        if let (Some(b), Some(f)) = (&base.best, &fast.best) {
            assert_eq!(b.peak_temp_c, f.peak_temp_c, "reported fields stay exact");
            assert_eq!(b.mcm_cost_usd, f.mcm_cost_usd);
        }
        assert_eq!(base.accepted_moves, fast.accepted_moves);
        assert_eq!(base.unique_designs, fast.unique_designs);
        assert!(
            fast.evaluations <= base.evaluations,
            "screening can only remove full evaluations ({} vs {})",
            fast.evaluations,
            base.evaluations
        );
    }

    fn temp_ckpt_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tesa-anneal-{tag}-{}.ckpt", std::process::id()))
    }

    fn assert_same_outcome(a: &AnnealOutcome, b: &AnnealOutcome) {
        assert_eq!(a.best.as_ref().map(|e| e.design), b.best.as_ref().map(|e| e.design));
        if let (Some(x), Some(y)) = (&a.best, &b.best) {
            assert_eq!(x.peak_temp_c, y.peak_temp_c, "reported fields stay bit-exact");
            assert_eq!(x.mcm_cost_usd, y.mcm_cost_usd);
            assert_eq!(x.dram_power_w, y.dram_power_w);
        }
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.accepted_moves, b.accepted_moves);
        assert_eq!(a.unique_designs, b.unique_designs);
    }

    #[test]
    fn checkpointing_and_resume_reproduce_the_uninterrupted_run() {
        let _l = crate::checkpoint::FAULT_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let constraints = Constraints::edge_device(15.0, 85.0);
        let objective = crate::objective::Objective::balanced();
        let run = |policy: Option<&CheckpointPolicy>, resume: Option<&std::path::Path>| {
            let evaluator = Evaluator::new(
                arvr_suite(),
                EvalOptions { grid_cells: 32, ..Default::default() },
            );
            optimize_checkpointed(
                &evaluator,
                &small_space(),
                Integration::TwoD,
                400,
                &constraints,
                &objective,
                &config(),
                policy,
                resume,
                None,
            )
            .expect("checkpoint path is healthy in this test")
        };
        let reference = run(None, None);

        let path = temp_ckpt_path("full");
        let _ = std::fs::remove_file(&path);
        let policy = CheckpointPolicy { path: path.clone(), every: 1 };
        let checkpointed = run(Some(&policy), None);
        assert_same_outcome(&reference, &checkpointed);
        assert_eq!(checkpointed.checkpoint_write_failures, 0);

        // The final checkpoint marks every start Done; resuming from it
        // restores the outcome without re-running any schedule.
        let state = CampaignState::load(&path).expect("final checkpoint loads");
        assert!(state.starts.iter().all(|s| matches!(s, StartState::Done(_))));
        let resumed = run(None, Some(&path));
        assert_same_outcome(&reference, &resumed);

        // A missing resume file starts fresh rather than erroring, so
        // kill/resume loops can pass --resume unconditionally.
        let _ = std::fs::remove_file(&path);
        let fresh = run(None, Some(&path));
        assert_same_outcome(&reference, &fresh);
    }

    #[test]
    fn resume_from_a_mid_run_checkpoint_replays_bit_identically() {
        let _l = crate::checkpoint::FAULT_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let constraints = Constraints::edge_device(15.0, 85.0);
        let objective = crate::objective::Objective::balanced();
        let run = |policy: Option<&CheckpointPolicy>, resume: Option<&std::path::Path>| {
            let evaluator = Evaluator::new(
                arvr_suite(),
                EvalOptions { grid_cells: 32, ..Default::default() },
            );
            optimize_checkpointed(
                &evaluator,
                &small_space(),
                Integration::TwoD,
                400,
                &constraints,
                &objective,
                &config(),
                policy,
                resume,
                None,
            )
            .expect("checkpoint path is healthy in this test")
        };
        let reference = run(None, None);

        // Freeze the checkpoint file partway: the first two writes land,
        // every later one (including the final Done states) is injected to
        // fail, so the file keeps a genuine mid-run snapshot while the
        // in-process run completes normally.
        let path = temp_ckpt_path("midrun");
        let _ = std::fs::remove_file(&path);
        let policy = CheckpointPolicy { path: path.clone(), every: 1 };
        let interrupted = {
            let plan = tesa_util::faultpoint::FaultPlan::new()
                .site("ckpt.write", tesa_util::faultpoint::Trigger::From(3));
            let _scope = faultpoint::activate(&plan);
            run(Some(&policy), None)
        };
        assert_same_outcome(&reference, &interrupted);
        assert!(
            interrupted.checkpoint_write_failures > 0,
            "the injected write faults are counted, not fatal"
        );
        let state = CampaignState::load(&path).expect("the frozen mid-run checkpoint loads");
        assert!(
            state.starts.iter().any(|s| !matches!(s, StartState::Done(_))),
            "the frozen state is genuinely mid-run: {state:?}"
        );

        // Resuming from the mid-run snapshot replays the remaining schedule
        // to the same final outcome, bit for bit.
        let resumed = run(None, Some(&path));
        assert_same_outcome(&reference, &resumed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_checkpoint_from_a_different_campaign() {
        let _l = crate::checkpoint::FAULT_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let constraints = Constraints::edge_device(15.0, 85.0);
        let objective = crate::objective::Objective::balanced();
        let path = temp_ckpt_path("mismatch");
        let _ = std::fs::remove_file(&path);
        let evaluator = Evaluator::new(
            arvr_suite(),
            EvalOptions { grid_cells: 32, ..Default::default() },
        );
        let policy = CheckpointPolicy { path: path.clone(), every: 1 };
        optimize_checkpointed(
            &evaluator,
            &small_space(),
            Integration::TwoD,
            400,
            &constraints,
            &objective,
            &config(),
            Some(&policy),
            None,
            None,
        )
        .expect("writing the checkpoint succeeds");
        // Same file, different campaign seed: the fingerprint must not match.
        let err = optimize_checkpointed(
            &evaluator,
            &small_space(),
            Integration::TwoD,
            400,
            &constraints,
            &objective,
            &MsaConfig { seed: 8, ..config() },
            None,
            Some(&path),
            None,
        )
        .expect_err("a foreign checkpoint is rejected");
        assert!(
            matches!(err, CheckpointError::ConfigMismatch { .. }),
            "got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn impossible_constraints_yield_no_best() {
        let evaluator = Evaluator::new(
            arvr_suite(),
            EvalOptions { grid_cells: 32, ..Default::default() },
        );
        // 1000 fps is beyond any design in the space.
        let constraints = Constraints::edge_device(1000.0, 85.0);
        let out = optimize(
            &evaluator,
            &small_space(),
            Integration::TwoD,
            400,
            &constraints,
            &crate::objective::Objective::balanced(),
            &config(),
        );
        assert!(out.best.is_none());
    }
}

/// Extension of the paper's flow (its stated remedial decision and future
/// work): searches over several operating frequencies and returns the best
/// feasible design across all of them, annotated with the frequency it
/// came from. When the preferred (highest) frequency yields no feasible
/// MCM — the paper's Table III outcome — this is the automated
/// "reduce frequency" fallback.
pub fn optimize_over_frequencies(
    evaluator: &Evaluator,
    space: &DesignSpace,
    integration: Integration,
    freqs_mhz: &[u32],
    constraints: &Constraints,
    objective: &crate::objective::Objective,
    config: &MsaConfig,
) -> Option<(u32, AnnealOutcome)> {
    let mut best: Option<(u32, AnnealOutcome, f64)> = None;
    for &freq in freqs_mhz {
        let outcome = optimize(evaluator, space, integration, freq, constraints, objective, config);
        if let Some(eval) = &outcome.best {
            let score = eval.objective(objective);
            let better = best.as_ref().is_none_or(|(_, _, s)| score < *s);
            if better {
                best = Some((freq, outcome, score));
            }
        }
    }
    best.map(|(f, o, _)| (f, o))
}

#[cfg(test)]
mod frequency_tests {
    use super::*;
    use crate::eval::EvalOptions;
    use tesa_workloads::arvr_suite;

    #[test]
    fn frequency_fallback_finds_a_slower_feasible_design() {
        let evaluator = Evaluator::new(
            arvr_suite(),
            EvalOptions { grid_cells: 32, lazy: true, ..Default::default() },
        );
        let space = DesignSpace {
            array_dims: (160..=224).step_by(32).collect(),
            sram_kib_options: vec![512, 1024],
            ics_um_options: vec![500, 1000],
        };
        let config = MsaConfig {
            deltas: vec![0.7],
            t_init: 4.0,
            t_final: 1.0,
            moves_per_temp: 4,
            init_attempts: 24,
            seed: 5,
            screening: false,
            ..MsaConfig::default()
        };
        // A thermal budget tight enough that high frequencies struggle.
        let constraints = Constraints::edge_device(15.0, 76.0);
        let result = optimize_over_frequencies(
            &evaluator,
            &space,
            Integration::TwoD,
            &[500, 400],
            &constraints,
            &crate::objective::Objective::balanced(),
            &config,
        );
        if let Some((freq, outcome)) = result {
            assert!(freq == 400 || freq == 500);
            assert!(outcome.best.expect("best exists").is_feasible());
        }
    }
}
