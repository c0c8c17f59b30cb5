//! The TESA evaluation pipeline (Fig. 2b): performance → power → floorplan
//! → schedule → steady-state thermal with leakage co-iteration → DRAM
//! power, MCM cost, latency, OPS — plus constraint checking.

use crate::constraints::{Constraints, Violation};
use crate::cost::CostModel;
use crate::design::{ChipletConfig, ChipletGeometry, Integration, McmDesign};
use crate::floorplan::{estimate_mesh, McmLayout, Mesh};
use crate::power::{
    array_leakage_w, dynamic_power, sram_leakage_w, DynamicPower, LeakageModel,
};
use crate::sched::{schedule, schedule_naive, Schedule, SchedulerPolicy};
use crate::tech::TechParams;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use tesa_memsim::{DramPowerModel, DramUsage};
use tesa_util::{faultpoint, metrics, pool, trace, Json};

// Always-on evaluation/memo counters, exported by `tesa serve` on
// `GET /metrics`. Process-wide (summed over all evaluators); the
// per-evaluator hit/miss pair behind `eval_cache_stats` is unchanged.
static EVAL_CACHE_HITS: metrics::Counter = metrics::Counter::new(
    "tesa_eval_cache_hits_total",
    "Full-evaluation memo hits across all evaluators.",
);
static EVAL_CACHE_MISSES: metrics::Counter = metrics::Counter::new(
    "tesa_eval_cache_misses_total",
    "Full-evaluation memo misses (each one ran the exact pipeline).",
);
static SCREENS_DECISIVE: metrics::Counter = metrics::Counter::with_labels(
    "tesa_eval_screens_total",
    "Surrogate feasibility screens by verdict.",
    &[("verdict", "decisive")],
);
static SCREENS_AMBIGUOUS: metrics::Counter = metrics::Counter::with_labels(
    "tesa_eval_screens_total",
    "Surrogate feasibility screens by verdict.",
    &[("verdict", "ambiguous")],
);
use tesa_scalesim::{ArrayConfig, Dataflow, DnnReport, Simulator};
use tesa_thermal::{
    BatchSolveRequest, PowerMap, Rect, SolveError, SolveQuality, StackBuilder, Surrogate,
    ThermalModel,
};
use tesa_workloads::{DnnId, MultiDnnWorkload};

/// Temperature above which the leakage–temperature iteration is declared a
/// thermal runaway (silicon would long have throttled or failed).
const RUNAWAY_TEMP_C: f64 = 150.0;
/// Leakage-loop convergence threshold, Kelvin.
const LEAK_CONVERGENCE_K: f64 = 0.1;
/// Leakage-loop iteration cap.
const LEAK_MAX_ITERS: usize = 25;
/// Headroom multiplier on sustained DRAM bandwidth demand (double
/// buffering smooths per-layer bursts; 25% covers prefetch overlap).
const DRAM_BURST_MARGIN: f64 = 1.25;

/// Configuration of the evaluator: models, dataflow, and switches the
/// baselines use to *disable* parts of the pipeline.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Systolic-array dataflow.
    pub dataflow: Dataflow,
    /// Technology constants.
    pub tech: TechParams,
    /// Cost-model constants.
    pub cost: CostModel,
    /// Leakage model (TESA: exponential; W2: linear; W1/SC: disabled).
    pub leakage: LeakageModel,
    /// Whether to run the thermal solver at all (SC baselines disable it).
    pub thermal_enabled: bool,
    /// Thermal grid resolution per axis (64 ⇒ 125 µm cells on 8 mm — the
    /// paper's HotSpot grid).
    pub grid_cells: usize,
    /// DNN-to-chiplet scheduling policy (the ablation harness swaps in the
    /// naive baseline).
    pub scheduler: SchedulerPolicy,
    /// Lazy mode for design-space search: skip the steady-state thermal
    /// solve when a design is already infeasible (ICS/area/latency, or a
    /// dynamic-power lower bound over budget). The optimizer rejects such
    /// designs regardless, so the skipped solve cannot change any search
    /// decision; reported temperatures of *feasible* designs are identical.
    pub lazy: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            dataflow: Dataflow::WeightStationary,
            tech: TechParams::default(),
            cost: CostModel::default(),
            leakage: LeakageModel::Exponential,
            thermal_enabled: true,
            grid_cells: 64,
            scheduler: SchedulerPolicy::default(),
            lazy: false,
        }
    }
}

impl EvalOptions {
    /// Temperature-unaware options: no thermal solve, no leakage — the
    /// configuration of the SC1/SC2 baselines.
    pub fn temperature_unaware() -> Self {
        Self { leakage: LeakageModel::Disabled, thermal_enabled: false, ..Self::default() }
    }
}

/// A transient temperature trace from [`Evaluator::transient_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransientTrace {
    /// Simulation time stamps, seconds.
    pub times_s: Vec<f64>,
    /// Peak device-tier temperature at each stamp, °C.
    pub peaks_c: Vec<f64>,
}

impl TransientTrace {
    /// Highest peak over the whole trace, °C.
    pub fn max_peak_c(&self) -> f64 {
        self.peaks_c.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The complete evaluation of one MCM design point.
///
/// Fields that cannot be computed for a hard-infeasible design (e.g. the
/// chiplet does not fit the interposer) are set to `f64::INFINITY`
/// and the corresponding structures to `None`; check
/// [`McmEvaluation::is_feasible`] / [`McmEvaluation::violations`].
#[derive(Debug, Clone)]
pub struct McmEvaluation {
    /// The evaluated design point.
    pub design: McmDesign,
    /// Derived mesh (rows x cols), if the chiplet fits.
    pub mesh: Option<Mesh>,
    /// Chiplet placement, if the chiplet fits.
    pub layout: Option<McmLayout>,
    /// DNN-to-chiplet schedule, if the chiplet fits.
    pub schedule: Option<Schedule>,
    /// Workload makespan (all DNNs complete), seconds.
    pub latency_s: f64,
    /// Achieved frame rate, Hz.
    pub achieved_fps: f64,
    /// Peak junction temperature across all schedule phases, °C
    /// (ambient when the thermal solver is disabled, NaN when the solver
    /// failed on every fallback rung — see [`Violation::SolverFailure`]).
    pub peak_temp_c: f64,
    /// Whether the leakage–temperature iteration diverged.
    pub thermal_runaway: bool,
    /// Whether any thermal solve fell back to the degraded (cold-start
    /// Jacobi) ladder rung after the primary solve failed to converge. The
    /// reported temperatures still meet the solver tolerance; the flag
    /// marks the result as obtained under degraded solver conditions.
    pub degraded: bool,
    /// Worst-phase chiplet power (dynamic + leakage per options), watts.
    pub chip_power_w: f64,
    /// Average DRAM power over the frame window, watts.
    pub dram_power_w: f64,
    /// `chip_power_w + dram_power_w`.
    pub total_power_w: f64,
    /// Total DRAM channels allocated across chiplets.
    pub dram_channels: u32,
    /// MCM fabrication cost, USD.
    pub mcm_cost_usd: f64,
    /// Throughput in operations per second (2 ops per MAC, one frame of
    /// the full workload per makespan).
    pub ops: f64,
    /// Constraint violations (empty = feasible).
    pub violations: Vec<Violation>,
}

impl McmEvaluation {
    /// Whether every user constraint is satisfied.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }

    /// Eq. (6) value of this design under `objective`.
    pub fn objective(&self, objective: &crate::objective::Objective) -> f64 {
        objective.value(self.mcm_cost_usd, self.dram_power_w)
    }
}

/// Verdict of the cheap screening pass ([`Evaluator::screen`]).
///
/// Screening combines the *exact* pre-thermal pipeline (ICS, area,
/// latency, DRAM, dynamic-power lower bound) with coarse-grid surrogate
/// thermal solves whose error is covered by a calibrated bound. Both
/// decisive verdicts are one-sided monotone arguments:
///
/// * [`ScreenVerdict::ClearlyInfeasible`] — an exact violation, or the
///   surrogate's *lower-bound* solve (leakage frozen at ambient — true
///   leakage can only be higher) already exceeds the temperature budget
///   by more than the surrogate error bound.
/// * [`ScreenVerdict::ClearlyFeasible`] — the *upper-bound* solve
///   (leakage frozen at the temperature budget) stays below the budget by
///   more than the error bound and is self-consistent, so the true
///   leakage fixed point sits below it.
/// * [`ScreenVerdict::Ambiguous`] — the surrogate interval straddles a
///   limit; only the exact pipeline can decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreenVerdict {
    /// The design provably violates a constraint; a full evaluation would
    /// report it infeasible.
    ClearlyInfeasible,
    /// Every constraint provably holds; a full evaluation would report it
    /// feasible.
    ClearlyFeasible,
    /// The screen cannot decide; run [`Evaluator::evaluate_cached`].
    Ambiguous,
}

/// Result of the per-phase steady-state thermal analysis with leakage
/// co-iteration (`Evaluator::thermal_analysis_group`).
struct ThermalAnalysis {
    /// Peak junction temperature, °C (NaN when `solver_failed`).
    peak_c: f64,
    /// The leakage–temperature iteration diverged.
    runaway: bool,
    /// Worst-phase chiplet power, watts.
    worst_power_w: f64,
    /// Converged field of the hottest phase.
    hottest_field: Option<tesa_thermal::ThermalField>,
    /// At least one solve completed on the degraded (cold-start Jacobi)
    /// fallback rung.
    degraded: bool,
    /// A solve failed on every rung; `peak_c` is meaningless.
    solver_failed: bool,
}

/// Everything the pre-thermal pipeline (`Evaluator::evaluate_prelude`)
/// produces for one design: the inputs of the thermal stage plus the
/// fields `Evaluator::evaluate_epilogue` folds into the final
/// [`McmEvaluation`]. Splitting `evaluate` around this struct lets the
/// batched paths run many designs' thermal stages through one multi-RHS
/// lockstep solve while each design's arithmetic stays that of a group of
/// one.
struct ThermalPending {
    design: McmDesign,
    geometry: ChipletGeometry,
    layout: McmLayout,
    sched: Schedule,
    /// Cycles per frame of each DNN.
    dnn_cycles: Vec<u64>,
    dnn_power: Vec<DynamicPower>,
    dnn_power_total: Vec<f64>,
    /// Pre-thermal violations (ICS, latency) in pipeline order.
    violations: Vec<Violation>,
    latency_s: f64,
    achieved_fps: f64,
    dram_power_w: f64,
    dram_channels: u32,
    total_macs: u64,
}

/// Outcome of the pre-thermal pipeline: either the evaluation is already
/// decided (the chiplet does not fit, or the lazy gate rejected it), or
/// the thermal stage still has to run.
enum EvalPrelude {
    /// Decided without a thermal solve. `lazy_skip` distinguishes the
    /// lazy-mode rejection from hard area infeasibility for trace
    /// annotation.
    Done { eval: Box<McmEvaluation>, lazy_skip: bool },
    /// Pipeline output up to the thermal stage, ready for the solver.
    Thermal(Box<ThermalPending>),
}

/// One lockstep lane of `Evaluator::thermal_analysis_group`: the loop
/// variables of one design's per-phase leakage co-iteration, lifted into a
/// struct so k same-model designs advance their co-iterations together
/// and share each step's batched solve.
struct GroupRun<'a> {
    pending: &'a ThermalPending,
    phases: Vec<Vec<(usize, DnnId)>>,
    array_tier: usize,
    sram_tier: usize,
    n_chiplets: usize,
    ranges: Vec<(usize, usize, usize, usize)>,
    phase_idx: usize,
    dyn_by_chip: Vec<Option<DynamicPower>>,
    temps: Vec<f64>,
    leak_iters: usize,
    phase_power: f64,
    guess: Option<Vec<f64>>,
    pmap: PowerMap,
    last_field: Option<tesa_thermal::ThermalField>,
    peak: f64,
    worst_power: f64,
    hottest_field: Option<tesa_thermal::ThermalField>,
    degraded: bool,
    /// The `eval.thermal.fail` faultpoint fired for this run this step.
    failed_now: bool,
    /// Set once the run retires; `None` means it still solves each step.
    done: Option<ThermalAnalysis>,
}

impl GroupRun<'_> {
    /// Loads phase `phase_idx` (fresh ambient temperatures, per-chip
    /// dynamic power) or, past the last phase, retires the run with its
    /// summary.
    fn enter_phase_or_finish(&mut self, ambient_c: f64) {
        if self.phase_idx >= self.phases.len() {
            self.done = Some(ThermalAnalysis {
                peak_c: self.peak,
                runaway: false,
                worst_power_w: self.worst_power,
                hottest_field: self.hottest_field.take(),
                degraded: self.degraded,
                solver_failed: false,
            });
            return;
        }
        self.dyn_by_chip.clear();
        self.dyn_by_chip.resize(self.n_chiplets, None);
        for &(chip, dnn) in &self.phases[self.phase_idx] {
            self.dyn_by_chip[chip] = Some(self.pending.dnn_power[dnn.0]);
        }
        self.temps.clear();
        self.temps.resize(self.n_chiplets, ambient_c);
        self.leak_iters = 0;
        self.phase_power = 0.0;
        self.last_field = None;
    }

    /// Emits the `eval.phase` event of the finished phase.
    fn emit_phase_event(&self, ambient_c: f64, runaway: bool) {
        trace::event("eval.phase", || {
            let phase_peak = self.last_field.as_ref().map_or(ambient_c, |f| {
                f.layer_peak_c(self.array_tier).max(f.layer_peak_c(self.sram_tier))
            });
            vec![
                ("leak_iters", Json::U64(self.leak_iters as u64)),
                ("power_w", Json::F64(self.phase_power)),
                ("peak_c", Json::F64(phase_peak)),
                ("runaway", Json::Bool(runaway)),
            ]
        });
    }
}

/// Grid-layer indices of the (array, SRAM) device tiers in the stack
/// built by `Evaluator::thermal_model`.
fn device_tiers(integration: Integration) -> (usize, usize) {
    match integration {
        Integration::TwoD => (1, 1),
        Integration::ThreeD => (3, 1),
    }
}

/// Fine-grid cell ranges per chiplet for mean-temperature queries.
fn chip_cell_ranges(
    layout: &McmLayout,
    model: &ThermalModel,
) -> Vec<(usize, usize, usize, usize)> {
    let (nx, ny) = model.grid_dims();
    let (w_m, h_m) = model.footprint_m();
    layout
        .positions_m
        .iter()
        .map(|r| {
            let ix0 = ((r.x / w_m * nx as f64).floor() as usize).min(nx - 1);
            let ix1 = ((r.x2() / w_m * nx as f64).ceil() as usize).clamp(ix0 + 1, nx);
            let iy0 = ((r.y / h_m * ny as f64).floor() as usize).min(ny - 1);
            let iy1 = ((r.y2() / h_m * ny as f64).ceil() as usize).clamp(iy0 + 1, ny);
            (ix0, ix1, iy0, iy1)
        })
        .collect()
}

type PerfKey = (u32, u64);
type ThermalKey = (u64, u32, u32, u32, bool);
/// A design plus the bit patterns of the constraint fields.
type EvalKey = (McmDesign, [u64; 6]);

fn constraints_key(c: &Constraints) -> [u64; 6] {
    [
        c.min_fps.to_bits(),
        c.power_budget_w.to_bits(),
        c.interposer_w_mm.to_bits(),
        c.interposer_h_mm.to_bits(),
        c.temp_budget_c.to_bits(),
        u64::from(c.max_ics_um),
    ]
}

/// Capacity of the evaluation memo: a full TESA design-space sweep is a
/// few thousand distinct points, so this keeps every sweep resident while
/// bounding memory for open-ended callers (long annealing runs over huge
/// spaces, servers evaluating many workloads through one `Evaluator`).
const EVAL_CACHE_CAP: usize = 65_536;
/// Screening-verdict memo capacity (verdicts are tiny; match the memo).
const SCREEN_CACHE_CAP: usize = 65_536;
/// Performance-report memo capacity. Entries are per `(array, SRAM)` pair
/// — a handful per design space — but each holds full per-DNN reports, so
/// open-ended callers need a bound too.
const PERF_CACHE_CAP: usize = 1_024;
/// Thermal-model (and surrogate) memo capacity. Models are the heaviest
/// cached objects (conductance network + multigrid hierarchy, megabytes on
/// production grids); one entry serves every design sharing a layout.
const THERMAL_CACHE_CAP: usize = 256;

/// Size-capped memo: a `HashMap` plus a FIFO of insertion order. When
/// full, the oldest entry is evicted — revisit patterns in annealing and
/// sweeps are dominated by *recent* neighbors, so FIFO keeps the useful
/// window without LRU bookkeeping on the read path (reads stay under the
/// `RwLock` read lock, shared across threads). Used for evaluations,
/// performance reports, thermal models, surrogates, and screen verdicts.
struct CappedCache<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: std::hash::Hash + Eq + Copy, V> CappedCache<K, V> {
    fn with_cap(cap: usize) -> Self {
        Self { map: HashMap::new(), order: VecDeque::new(), cap }
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key, value).is_some() {
            return; // Re-insert of a racing miss; order entry already queued.
        }
        self.order.push_back(key);
        while self.map.len() > self.cap {
            let Some(oldest) = self.order.pop_front() else { break };
            self.map.remove(&oldest);
        }
    }
}

/// Evaluates MCM design points for one workload.
///
/// Performance simulations are memoized per (array, SRAM) pair — ICS and
/// frequency do not affect cycle counts — and thermal models per layout,
/// so design-space sweeps amortize the expensive parts. The evaluator is
/// `Sync`: sweeps may evaluate from multiple threads.
pub struct Evaluator {
    workload: MultiDnnWorkload,
    opts: EvalOptions,
    perf_cache: RwLock<CappedCache<PerfKey, Arc<Vec<DnnReport>>>>,
    thermal_cache: RwLock<CappedCache<ThermalKey, Arc<ThermalModel>>>,
    surrogate_cache: RwLock<CappedCache<ThermalKey, Arc<Surrogate>>>,
    // The first `bool` records whether the verdict came from a full
    // screen (upper-bound solves included): an `Ambiguous` from the
    // infeasible-only mode must not answer a full-screen query, which
    // might classify the same design `ClearlyFeasible`. The second
    // records whether the verdict was settled at the surrogate thermal
    // stage (coarse solves ran) rather than by the cheap exact pipeline —
    // cached so the answer is identical on a cache hit, keeping callers
    // that branch on it deterministic.
    screen_cache: RwLock<CappedCache<EvalKey, (ScreenVerdict, bool, bool)>>,
    eval_cache: RwLock<CappedCache<EvalKey, Arc<McmEvaluation>>>,
    eval_hits: AtomicU64,
    eval_misses: AtomicU64,
    dram: DramPowerModel,
}

impl Evaluator {
    /// Creates an evaluator for `workload` under the given options.
    pub fn new(workload: MultiDnnWorkload, opts: EvalOptions) -> Self {
        // Eager registration: a `/metrics` scrape shows the memo and
        // screen families at zero before any query touches them.
        EVAL_CACHE_HITS.register();
        EVAL_CACHE_MISSES.register();
        SCREENS_DECISIVE.register();
        SCREENS_AMBIGUOUS.register();
        let dram = DramPowerModel::new(opts.tech.dram_channel);
        Self {
            workload,
            opts,
            perf_cache: RwLock::new(CappedCache::with_cap(PERF_CACHE_CAP)),
            thermal_cache: RwLock::new(CappedCache::with_cap(THERMAL_CACHE_CAP)),
            surrogate_cache: RwLock::new(CappedCache::with_cap(THERMAL_CACHE_CAP)),
            screen_cache: RwLock::new(CappedCache::with_cap(SCREEN_CACHE_CAP)),
            eval_cache: RwLock::new(CappedCache::with_cap(EVAL_CACHE_CAP)),
            eval_hits: AtomicU64::new(0),
            eval_misses: AtomicU64::new(0),
            dram,
        }
    }

    /// [`Evaluator::evaluate`] with memoization on `(design, constraints)`.
    /// Design-space searches revisit neighbors constantly; this makes the
    /// revisit free. Evaluation is deterministic, so caching is exact.
    pub fn evaluate_cached(
        &self,
        design: &McmDesign,
        constraints: &Constraints,
    ) -> Arc<McmEvaluation> {
        let key: EvalKey = (*design, constraints_key(constraints));
        if let Some(hit) = self.eval_cache.read().expect("cache lock poisoned").get(&key) {
            self.record_lookup(true);
            return Arc::clone(hit);
        }
        self.record_lookup(false);
        let eval = Arc::new(self.evaluate(design, constraints));
        self.eval_cache.write().expect("cache lock poisoned").insert(key, Arc::clone(&eval));
        eval
    }

    /// Counts one memo lookup in the per-evaluator pair behind
    /// [`Evaluator::eval_cache_stats`], the process-wide registry and the
    /// trace.
    fn record_lookup(&self, hit: bool) {
        if hit {
            self.eval_hits.fetch_add(1, Ordering::Relaxed);
            EVAL_CACHE_HITS.inc();
            trace::counter("eval.cache.hit", 1.0);
        } else {
            self.eval_misses.fetch_add(1, Ordering::Relaxed);
            EVAL_CACHE_MISSES.inc();
            trace::counter("eval.cache.miss", 1.0);
        }
    }

    /// `(hits, misses)` counts of [`Evaluator::evaluate_cached`] and
    /// [`Evaluator::evaluate_cached_batch`] since construction. A
    /// design-space search should see hits dominate once it starts
    /// revisiting neighbors; a near-zero hit rate means the search is
    /// exploring an unbounded space and the memo (capped at
    /// `EVAL_CACHE_CAP` entries, FIFO eviction) is doing little.
    pub fn eval_cache_stats(&self) -> (u64, u64) {
        (self.eval_hits.load(Ordering::Relaxed), self.eval_misses.load(Ordering::Relaxed))
    }

    /// Drops the evaluation and screen result memos, keeping the model
    /// memos (performance, thermal, surrogate) warm. Long-lived hosts use
    /// this to re-evaluate after out-of-band state changes (a recalibrated
    /// technology file, say) without paying model reconstruction again;
    /// benchmarks use it to measure real evaluation work on a warmed
    /// evaluator instead of memo probes. Hit/miss counters are untouched.
    pub fn clear_result_memos(&self) {
        self.eval_cache.write().expect("cache lock poisoned").clear();
        self.screen_cache.write().expect("cache lock poisoned").clear();
    }

    /// Cheap feasibility screen for `design` (memoized on
    /// `(design, constraints)` like [`Evaluator::evaluate_cached`]).
    ///
    /// Runs the exact pre-thermal pipeline (ICS, area, performance,
    /// schedule, latency, DRAM, a power lower bound) and then two
    /// coarse-grid surrogate thermal solves per schedule phase — orders of
    /// magnitude cheaper than the fine-grid leakage co-iteration. Each
    /// decisive verdict is sound in the direction it claims (see
    /// [`ScreenVerdict`]), so a search loop may discard
    /// [`ScreenVerdict::ClearlyInfeasible`] candidates without ever
    /// running [`Evaluator::evaluate`]; the multi-start annealer does
    /// exactly that when screening is enabled, and still evaluates every
    /// design it accepts or reports, so emitted artifacts never contain
    /// surrogate numbers.
    ///
    /// Emits one `eval.surrogate.screened` (decisive) or
    /// `eval.surrogate.ambiguous` trace counter per call.
    pub fn screen(&self, design: &McmDesign, constraints: &Constraints) -> ScreenVerdict {
        self.screen_mode(design, constraints, true).0
    }

    /// [`Evaluator::screen`] (with `classify_feasible`), or the
    /// infeasible-only mode the annealer's screening gate uses (without):
    /// per phase that mode runs only the lower-bound surrogate solve, so
    /// its [`ScreenVerdict::Ambiguous`] means just "not clearly
    /// infeasible". The annealer needs the exact objective score to
    /// accept a move, so a clearly-feasible verdict would save it
    /// nothing, and skipping the upper-bound solves roughly halves the
    /// screening cost of every candidate that survives.
    ///
    /// The `bool` returned with the verdict says whether it was settled
    /// at the surrogate thermal stage (coarse-grid solves ran) rather
    /// than by the cheap exact pipeline. The gate needs the distinction:
    /// with a lazy evaluator, a cheap-stage reject saves nothing the full
    /// evaluation would not reject just as cheaply, so only
    /// surrogate-stage outcomes count as the screen earning (reject) or
    /// wasting (ambiguous) its keep. The stage bit is memoized with the
    /// verdict, so it is a pure function of the design.
    pub(crate) fn screen_mode(
        &self,
        design: &McmDesign,
        constraints: &Constraints,
        classify_feasible: bool,
    ) -> (ScreenVerdict, bool) {
        let key: EvalKey = (*design, constraints_key(constraints));
        if classify_feasible {
            // The exact answer may already be known — no surrogate
            // involved, so no screening counters. The infeasible-only
            // mode must NOT take this shortcut: the annealer's chains
            // drive their screening gates (and evaluation counts) off
            // these verdicts, and the three starts share one memo, so
            // what it holds at any moment depends on how the parallel
            // starts interleave. Surrogate verdicts are a pure function
            // of the design, so each chain stays bit-identical run to
            // run and for any `TESA_THREADS`.
            if let Some(hit) = self.eval_cache.read().expect("cache lock poisoned").get(&key) {
                let v = if hit.is_feasible() {
                    ScreenVerdict::ClearlyFeasible
                } else {
                    ScreenVerdict::ClearlyInfeasible
                };
                return (v, false);
            }
        }
        if let Some(&(v, full, surrogate)) =
            self.screen_cache.read().expect("cache lock poisoned").get(&key)
        {
            // A full-screen verdict answers either mode; an
            // infeasible-only verdict answers only infeasible-only
            // queries (its `Ambiguous` may hide a `ClearlyFeasible`).
            if full || !classify_feasible {
                Self::count_screen(v);
                return (v, surrogate);
            }
        }
        let (v, surrogate) = self.screen_uncached(design, constraints, classify_feasible);
        self.screen_cache
            .write()
            .expect("cache lock poisoned")
            .insert(key, (v, classify_feasible, surrogate));
        Self::count_screen(v);
        (v, surrogate)
    }

    fn count_screen(v: ScreenVerdict) {
        match v {
            ScreenVerdict::Ambiguous => {
                SCREENS_AMBIGUOUS.inc();
                trace::counter("eval.surrogate.ambiguous", 1.0);
            }
            _ => {
                SCREENS_DECISIVE.inc();
                trace::counter("eval.surrogate.screened", 1.0);
            }
        }
    }

    /// Returns the verdict plus whether it was settled at the surrogate
    /// thermal stage (`true` once the coarse solves have run).
    fn screen_uncached(
        &self,
        design: &McmDesign,
        constraints: &Constraints,
        classify_feasible: bool,
    ) -> (ScreenVerdict, bool) {
        let chiplet = design.chiplet;
        let tech = &self.opts.tech;
        let geometry = chiplet.geometry(tech);

        // Exact cheap pipeline — the same maths as `evaluate` steps 1–4.
        if design.ics_um > constraints.max_ics_um {
            return (ScreenVerdict::ClearlyInfeasible, false);
        }
        let Some(layout) = estimate_mesh(
            geometry.side_mm(),
            design.ics_mm(),
            constraints.interposer_w_mm,
            constraints.interposer_h_mm,
            self.workload.len() as u32,
        ) else {
            return (ScreenVerdict::ClearlyInfeasible, false);
        };
        let reports = self.perf(&chiplet);
        let freq_hz = design.freq_hz();
        let dnn_cycles: Vec<u64> = reports.iter().map(|r| r.total_cycles).collect();
        let dnn_power: Vec<DynamicPower> =
            reports.iter().map(|r| dynamic_power(r, &chiplet, tech, freq_hz)).collect();
        let dnn_power_total: Vec<f64> = dnn_power.iter().map(DynamicPower::total_w).collect();
        let sched = self.schedule_for(&layout, &dnn_cycles, &dnn_power_total);
        let latency_s = sched.makespan_cycles() as f64 / freq_hz;
        let achieved_fps = 1.0 / latency_s;
        if achieved_fps + 1e-9 < constraints.min_fps {
            return (ScreenVerdict::ClearlyInfeasible, false);
        }
        let mut dram_channels = 0u32;
        let mut dram_bytes = 0.0f64;
        for q in &sched.assignments {
            if q.is_empty() {
                continue;
            }
            let demand = q
                .iter()
                .map(|d| reports[d.0].avg_dram_bytes_per_cycle() * freq_hz * DRAM_BURST_MARGIN)
                .fold(0.0, f64::max);
            dram_channels += self.dram.channels_for_peak_bandwidth(demand);
            dram_bytes += q.iter().map(|d| reports[d.0].dram_traffic.total() as f64).sum::<f64>();
        }
        let dram_power_w = self
            .dram
            .power(DramUsage {
                bytes_transferred: dram_bytes,
                window_s: constraints.frame_window_s(),
                channels: dram_channels,
            })
            .total_w();

        let n_chiplets = layout.mesh.count() as usize;
        let leak_chip_ambient = array_leakage_w(&chiplet, tech, tech.ambient_c, self.opts.leakage)
            + sram_leakage_w(&chiplet, tech, tech.ambient_c, self.opts.leakage);
        let dyn_worst_phase_w = sched
            .phases()
            .iter()
            .map(|phase| phase.iter().map(|&(_, d)| dnn_power_total[d.0]).sum::<f64>())
            .fold(0.0, f64::max);

        if !self.opts.thermal_enabled {
            // No solver in the full pipeline either — the remaining Power
            // check is exact, so the screen always decides. The repeated
            // sum mirrors `evaluate` term for term so the comparison is
            // bit-identical.
            let mut worst = 0.0f64;
            for phase in sched.phases() {
                let dyn_w: f64 = phase.iter().map(|&(_, d)| dnn_power_total[d.0]).sum();
                let leak: f64 = (0..layout.mesh.count()).map(|_| leak_chip_ambient).sum();
                worst = worst.max(dyn_w + leak);
            }
            let v = if worst + dram_power_w > constraints.power_budget_w {
                ScreenVerdict::ClearlyInfeasible
            } else {
                ScreenVerdict::ClearlyFeasible
            };
            return (v, false);
        }

        // Power lower bound: leakage frozen at ambient only grows with
        // temperature (all leakage models are monotone), so exceeding the
        // budget here is decisive.
        let leak_all_ambient: f64 = (0..layout.mesh.count()).map(|_| leak_chip_ambient).sum();
        if dyn_worst_phase_w + leak_all_ambient + dram_power_w > constraints.power_budget_w {
            return (ScreenVerdict::ClearlyInfeasible, false);
        }

        // Surrogate thermal screen: one lower-bound and one upper-bound
        // coarse solve per phase.
        let model = self.thermal_model(&layout, &geometry, chiplet.integration);
        let sur = self.surrogate_of(&model, &layout, chiplet.integration);
        let (array_tier, sram_tier) = device_tiers(chiplet.integration);
        let ranges = chip_cell_ranges(&layout, &model);
        let mut pmap = model.zero_power();
        // Separate buffer for the upper-bound injection: the full screen
        // solves a phase's two bounds as one k=2 lockstep batch
        // (`Surrogate::solve_pair`), so both maps must exist before the
        // solve. The paired solutions are bit-identical to two serial
        // solves, so every verdict is unchanged; a phase the lower bound
        // already rejects wastes its upper half — the accepted price of
        // the fused pass, and the rejecting phase is the last one solved.
        let mut pmap_hi = model.zero_power();
        let budget_c = constraints.temp_budget_c;
        let mut all_clearly_feasible = classify_feasible;
        for phase in sched.phases() {
            let mut dyn_by_chip: Vec<Option<DynamicPower>> = vec![None; n_chiplets];
            for &(chip, dnn) in &phase {
                dyn_by_chip[chip] = Some(dnn_power[dnn.0]);
            }

            // Lower bound: ambient leakage is a floor on the co-iterated
            // power map, and the SPD network responds monotonically to
            // power, so the true fine-grid peak is at least `est − bound`.
            pmap.clear();
            self.inject_phase_power(
                &mut pmap,
                &layout,
                &geometry,
                &chiplet,
                &dyn_by_chip,
                &vec![tech.ambient_c; n_chiplets],
                array_tier,
                sram_tier,
            );
            let (low, upper) = if classify_feasible {
                pmap_hi.clear();
                let p_high = self.inject_phase_power(
                    &mut pmap_hi,
                    &layout,
                    &geometry,
                    &chiplet,
                    &dyn_by_chip,
                    &vec![budget_c; n_chiplets],
                    array_tier,
                    sram_tier,
                );
                let (low, high) = sur.solve_pair(&pmap, &pmap_hi);
                (low, Some((high, p_high)))
            } else {
                (sur.solve(&pmap), None)
            };
            let low_peak = low.layer_peak_c(array_tier).max(low.layer_peak_c(sram_tier));
            if low_peak - low.bound_c() > budget_c {
                return (ScreenVerdict::ClearlyInfeasible, true);
            }
            let Some((high, p_high)) = upper else {
                continue;
            };

            // Upper bound: freeze leakage at the temperature budget. If
            // the resulting field stays below the budget at every chip
            // region mean (the temperatures the leakage loop feeds on) and
            // at the peak, the co-iteration from ambient is a monotone
            // sequence bounded by the budget — the true fixed point sits
            // below it, so the phase can neither breach the budget nor run
            // away (the budget itself is below the runaway threshold).
            let high_peak = high.layer_peak_c(array_tier).max(high.layer_peak_c(sram_tier));
            let regions_below_budget = ranges.iter().all(|r| {
                high.region_mean_c(array_tier, r.0, r.1, r.2, r.3) + high.bound_c() <= budget_c
            });
            let phase_clear = high_peak + high.bound_c() < budget_c
                && regions_below_budget
                && p_high + dram_power_w <= constraints.power_budget_w
                && budget_c < RUNAWAY_TEMP_C;
            all_clearly_feasible &= phase_clear;
        }
        let v = if all_clearly_feasible {
            ScreenVerdict::ClearlyFeasible
        } else {
            ScreenVerdict::Ambiguous
        };
        (v, true)
    }

    /// The workload being targeted.
    pub fn workload(&self) -> &MultiDnnWorkload {
        &self.workload
    }

    /// The evaluator's options.
    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// Per-DNN performance reports for a chiplet configuration (memoized).
    pub fn perf(&self, chiplet: &ChipletConfig) -> Arc<Vec<DnnReport>> {
        let key: PerfKey = (chiplet.array_dim, chiplet.sram_kib_per_bank);
        if let Some(hit) = self.perf_cache.read().expect("cache lock poisoned").get(&key) {
            return Arc::clone(hit);
        }
        let mut perf_span = trace::span("eval.perf");
        perf_span.field("array", Json::U64(u64::from(chiplet.array_dim)));
        perf_span.field("sram_kib", Json::U64(chiplet.sram_kib_per_bank));
        let sim = Simulator::new(
            ArrayConfig::square(chiplet.array_dim),
            chiplet.sram_capacities(),
            self.opts.dataflow,
        );
        let reports: Vec<DnnReport> = self.workload.iter().map(|d| sim.simulate_dnn(d)).collect();
        let arc = Arc::new(reports);
        self.perf_cache.write().expect("cache lock poisoned").insert(key, Arc::clone(&arc));
        arc
    }

    /// Cache key of the thermal model (and surrogate) shared by every
    /// design with this layout. Quantizes the side to nanometers for a
    /// stable key.
    fn thermal_key(layout: &McmLayout, integration: Integration) -> ThermalKey {
        (
            (layout.chiplet_side_mm * 1e6).round() as u64,
            (layout.ics_mm * 1e3).round() as u32,
            layout.mesh.rows,
            layout.mesh.cols,
            matches!(integration, Integration::ThreeD),
        )
    }

    /// The coarse-grid thermal surrogate for `model`, memoized per layout.
    /// Built lazily on first screening of a layout; shares the model's
    /// multigrid hierarchy, so construction is cheap after the model
    /// itself exists.
    fn surrogate_of(
        &self,
        model: &ThermalModel,
        layout: &McmLayout,
        integration: Integration,
    ) -> Arc<Surrogate> {
        let key = Self::thermal_key(layout, integration);
        if let Some(hit) = self.surrogate_cache.read().expect("cache lock poisoned").get(&key) {
            return Arc::clone(hit);
        }
        let sur = Arc::new(model.surrogate());
        self.surrogate_cache.write().expect("cache lock poisoned").insert(key, Arc::clone(&sur));
        sur
    }

    fn thermal_model(
        &self,
        layout: &McmLayout,
        geometry: &ChipletGeometry,
        integration: Integration,
    ) -> Arc<ThermalModel> {
        let key = Self::thermal_key(layout, integration);
        if let Some(hit) = self.thermal_cache.read().expect("cache lock poisoned").get(&key) {
            return Arc::clone(hit);
        }
        let t = &self.opts.tech;
        let n = self.opts.grid_cells;
        let w = layout.interposer_w_mm * 1e-3;
        let h = layout.interposer_h_mm * 1e-3;
        let silicon: Vec<(Rect, f64)> =
            layout.positions_m.iter().map(|r| (*r, t.k_silicon)).collect();
        let builder = StackBuilder::new(w, h, n, n)
            .layer("interposer", t.t_interposer_m, t.k_silicon);
        let builder = match integration {
            Integration::TwoD => builder.layer_with_patches(
                "device",
                t.t_tier_m,
                t.k_underfill,
                silicon.clone(),
            ),
            Integration::ThreeD => {
                // SRAM tier with TSV copper fill, bond layer, array tier.
                let f = geometry.tsv_fill_fraction();
                let k_sram_tier = t.k_silicon * (1.0 - f) + t.k_copper * f;
                let sram_patches: Vec<(Rect, f64)> =
                    layout.positions_m.iter().map(|r| (*r, k_sram_tier)).collect();
                builder
                    .layer_with_patches("sram_tier", t.t_tier_m, t.k_underfill, sram_patches)
                    .layer("bond", t.t_bond_m, t.k_bond)
                    .layer_with_patches("array_tier", t.t_tier_m, t.k_underfill, silicon.clone())
            }
        };
        let model = Arc::new(
            builder
                .layer("tim", t.t_tim_m, t.k_tim)
                .layer("lid", t.t_lid_m, t.k_lid)
                .convection(t.convection_k_per_w, t.ambient_c)
                .build(),
        );
        self.thermal_cache.write().expect("cache lock poisoned").insert(key, Arc::clone(&model));
        model
    }

    /// Evaluates one design under the given constraints.
    pub fn evaluate(&self, design: &McmDesign, constraints: &Constraints) -> McmEvaluation {
        let mut eval_span = trace::span("eval.design");
        if trace::enabled() {
            eval_span.field("array", Json::U64(u64::from(design.chiplet.array_dim)));
            eval_span.field("sram_kib", Json::U64(design.chiplet.sram_kib_per_bank));
            eval_span.field("ics_um", Json::U64(u64::from(design.ics_um)));
            eval_span.field("freq_mhz", Json::U64(u64::from(design.freq_mhz)));
        }
        match self.evaluate_prelude(design, constraints) {
            EvalPrelude::Done { eval, lazy_skip } => {
                eval_span.field("feasible", Json::Bool(false));
                if lazy_skip {
                    eval_span.field("lazy_skip", Json::Bool(true));
                }
                *eval
            }
            EvalPrelude::Thermal(pending) => {
                let ta = if self.opts.thermal_enabled {
                    self.thermal_analysis_group(&[&pending]).remove(0)
                } else {
                    self.disabled_thermal(&pending)
                };
                let eval = self.evaluate_epilogue(*pending, ta, constraints);
                if trace::enabled() {
                    eval_span.field("feasible", Json::Bool(eval.violations.is_empty()));
                    eval_span.field("peak_c", Json::F64(eval.peak_temp_c));
                    eval_span.field("cost_usd", Json::F64(eval.mcm_cost_usd));
                }
                eval
            }
        }
    }

    /// The schedule of the evaluator's [`SchedulerPolicy`] for one layout.
    fn schedule_for(
        &self,
        layout: &McmLayout,
        dnn_cycles: &[u64],
        dnn_power_total: &[f64],
    ) -> Schedule {
        let order = layout.corner_first_order();
        match self.opts.scheduler {
            SchedulerPolicy::CornerFirstPowerAware => schedule(&order, dnn_cycles, dnn_power_total),
            SchedulerPolicy::NaiveRoundRobin => {
                schedule_naive(order.len(), dnn_cycles, dnn_power_total)
            }
        }
    }

    /// The exact pre-thermal pipeline of [`Evaluator::evaluate`] — steps
    /// 1–4 (mesh, performance, schedule, DRAM) plus the lazy gate — with
    /// the thermal stage left pending. `evaluate` and the batched paths
    /// both build on this, so their arithmetic is identical term for term.
    fn evaluate_prelude(&self, design: &McmDesign, constraints: &Constraints) -> EvalPrelude {
        let p = match self.pipeline(design, constraints) {
            Ok(p) => p,
            Err(eval) => return EvalPrelude::Done { eval, lazy_skip: false },
        };

        // Lazy search mode: a dynamic-power lower bound (leakage is
        // non-negative) and prior violations let us skip the expensive
        // steady-state solve for designs the optimizer must reject anyway.
        if self.opts.lazy && self.opts.thermal_enabled {
            let dyn_worst_phase_w = p
                .sched
                .phases()
                .iter()
                .map(|phase| phase.iter().map(|&(_, d)| p.dnn_power_total[d.0]).sum::<f64>())
                .fold(0.0, f64::max);
            let mut lazy_violations = p.violations.clone();
            if dyn_worst_phase_w + p.dram_power_w > constraints.power_budget_w {
                lazy_violations.push(Violation::Power {
                    total_w: dyn_worst_phase_w + p.dram_power_w,
                });
            }
            if !lazy_violations.is_empty() {
                return EvalPrelude::Done {
                    eval: Box::new(McmEvaluation {
                        design: *design,
                        mesh: Some(p.layout.mesh),
                        mcm_cost_usd: self.opts.cost.mcm_cost_usd(
                            p.layout.mesh.count(),
                            &p.geometry,
                            design.chiplet.integration,
                            constraints.interposer_area_mm2(),
                        ),
                        schedule: Some(p.sched),
                        layout: Some(p.layout),
                        latency_s: p.latency_s,
                        achieved_fps: p.achieved_fps,
                        peak_temp_c: f64::NAN,
                        thermal_runaway: false,
                        degraded: false,
                        chip_power_w: dyn_worst_phase_w,
                        dram_power_w: p.dram_power_w,
                        total_power_w: dyn_worst_phase_w + p.dram_power_w,
                        dram_channels: p.dram_channels,
                        ops: 2.0 * p.total_macs as f64 / p.latency_s,
                        violations: lazy_violations,
                    }),
                    lazy_skip: true,
                };
            }
        }
        EvalPrelude::Thermal(Box::new(p))
    }

    /// Steps 1–4 of [`Evaluator::evaluate`] (mesh, performance, schedule,
    /// DRAM) without the lazy gate: the inputs of the thermal stage, or
    /// the finished evaluation of a chiplet that does not fit the
    /// interposer.
    fn pipeline(
        &self,
        design: &McmDesign,
        constraints: &Constraints,
    ) -> Result<ThermalPending, Box<McmEvaluation>> {
        let chiplet = design.chiplet;
        let tech = &self.opts.tech;
        let geometry = chiplet.geometry(tech);
        let mut violations = Vec::new();

        if design.ics_um > constraints.max_ics_um {
            violations.push(Violation::Ics { ics_um: design.ics_um });
        }

        // 1. Mesh estimation (area feasibility).
        let Some(layout) = estimate_mesh(
            geometry.side_mm(),
            design.ics_mm(),
            constraints.interposer_w_mm,
            constraints.interposer_h_mm,
            self.workload.len() as u32,
        ) else {
            violations.push(Violation::Area { chiplet_side_mm: geometry.side_mm() });
            return Err(Box::new(McmEvaluation {
                design: *design,
                mesh: None,
                layout: None,
                schedule: None,
                latency_s: f64::INFINITY,
                achieved_fps: 0.0,
                peak_temp_c: f64::INFINITY,
                thermal_runaway: false,
                degraded: false,
                chip_power_w: f64::INFINITY,
                dram_power_w: f64::INFINITY,
                total_power_w: f64::INFINITY,
                dram_channels: 0,
                mcm_cost_usd: f64::INFINITY,
                ops: 0.0,
                violations,
            }));
        };

        // 2. Performance and per-DNN dynamic power.
        let reports = self.perf(&chiplet);
        let freq_hz = design.freq_hz();
        let dnn_cycles: Vec<u64> = reports.iter().map(|r| r.total_cycles).collect();
        let dnn_power: Vec<DynamicPower> =
            reports.iter().map(|r| dynamic_power(r, &chiplet, tech, freq_hz)).collect();
        let dnn_power_total: Vec<f64> = dnn_power.iter().map(DynamicPower::total_w).collect();

        // 3. Schedule (corner-first, power-density- and latency-aware by
        //    default; the naive policy exists for ablation).
        let sched = self.schedule_for(&layout, &dnn_cycles, &dnn_power_total);
        let latency_s = sched.makespan_cycles() as f64 / freq_hz;
        let achieved_fps = 1.0 / latency_s;
        if achieved_fps + 1e-9 < constraints.min_fps {
            violations.push(Violation::Latency { achieved_fps });
        }

        // 4. DRAM: channels per chiplet from its most demanding DNN's
        //    *sustained* bandwidth (double buffering smooths per-layer
        //    bursts; a 25% margin covers prefetch overlap), traffic over
        //    the frame window. A chiplet running several DNNs sequentially
        //    gets the maximum channel count across them (Sec. III-B).
        let window_s = constraints.frame_window_s();
        let mut dram_channels = 0u32;
        let mut dram_bytes = 0.0f64;
        for q in &sched.assignments {
            if q.is_empty() {
                continue;
            }
            let demand = q
                .iter()
                .map(|d| reports[d.0].avg_dram_bytes_per_cycle() * freq_hz * DRAM_BURST_MARGIN)
                .fold(0.0, f64::max);
            dram_channels += self.dram.channels_for_peak_bandwidth(demand);
            dram_bytes += q.iter().map(|d| reports[d.0].dram_traffic.total() as f64).sum::<f64>();
        }
        let dram_power = self.dram.power(DramUsage {
            bytes_transferred: dram_bytes,
            window_s,
            channels: dram_channels,
        });

        Ok(ThermalPending {
            design: *design,
            geometry,
            layout,
            sched,
            dnn_cycles,
            dnn_power,
            dnn_power_total,
            violations,
            latency_s,
            achieved_fps,
            dram_power_w: dram_power.total_w(),
            dram_channels,
            total_macs: reports.iter().map(|r| r.total_macs()).sum(),
        })
    }

    /// The temperature-unaware stand-in for the thermal stage: worst-phase
    /// dynamic power plus (optionally) reference-temperature leakage,
    /// summed term for term as `evaluate` always has, with the peak pinned
    /// at ambient.
    fn disabled_thermal(&self, p: &ThermalPending) -> ThermalAnalysis {
        let chiplet = p.design.chiplet;
        let tech = &self.opts.tech;
        let mut worst = 0.0f64;
        for phase in p.sched.phases() {
            let dyn_w: f64 = phase.iter().map(|&(_, d)| p.dnn_power_total[d.0]).sum();
            let leak: f64 = (0..p.layout.mesh.count())
                .map(|_| {
                    array_leakage_w(&chiplet, tech, tech.ambient_c, self.opts.leakage)
                        + sram_leakage_w(&chiplet, tech, tech.ambient_c, self.opts.leakage)
                })
                .sum();
            worst = worst.max(dyn_w + leak);
        }
        ThermalAnalysis {
            peak_c: tech.ambient_c,
            runaway: false,
            worst_power_w: worst,
            hottest_field: None,
            degraded: false,
            solver_failed: false,
        }
    }

    /// Folds a thermal analysis into the prelude's pipeline products —
    /// steps 5b–6 of `evaluate` (thermal/power violations, cost, OPS).
    fn evaluate_epilogue(
        &self,
        p: ThermalPending,
        ta: ThermalAnalysis,
        constraints: &Constraints,
    ) -> McmEvaluation {
        let mut violations = p.violations;
        let (peak_temp_c, thermal_runaway, chip_power_w) =
            (ta.peak_c, ta.runaway, ta.worst_power_w);
        if ta.solver_failed {
            // No trustworthy temperature: reject the design instead of
            // accepting it on an unknown thermal profile.
            violations.push(Violation::SolverFailure);
        } else if thermal_runaway {
            violations.push(Violation::ThermalRunaway);
        } else if self.opts.thermal_enabled && peak_temp_c > constraints.temp_budget_c {
            violations.push(Violation::Thermal { peak_c: peak_temp_c });
        }

        let total_power_w = chip_power_w + p.dram_power_w;
        if total_power_w > constraints.power_budget_w {
            violations.push(Violation::Power { total_w: total_power_w });
        }

        // 6. Cost and throughput.
        let mcm_cost_usd = self.opts.cost.mcm_cost_usd(
            p.layout.mesh.count(),
            &p.geometry,
            p.design.chiplet.integration,
            constraints.interposer_area_mm2(),
        );
        let ops = 2.0 * p.total_macs as f64 / p.latency_s;

        McmEvaluation {
            design: p.design,
            mesh: Some(p.layout.mesh),
            schedule: Some(p.sched),
            layout: Some(p.layout),
            latency_s: p.latency_s,
            achieved_fps: p.achieved_fps,
            peak_temp_c,
            thermal_runaway,
            degraded: ta.degraded,
            chip_power_w,
            dram_power_w: p.dram_power_w,
            total_power_w,
            dram_channels: p.dram_channels,
            mcm_cost_usd,
            ops,
            violations,
        }
    }

    /// Steady-state analysis of every schedule phase with
    /// leakage–temperature co-iteration, for k designs sharing one thermal
    /// model (same layout and integration): the co-iterations advance in
    /// lockstep, and each step's live solves go through
    /// `ThermalModel::solve_batch_recoverable` — one fused multi-RHS batch.
    /// Each lane retires (converges, diverges, fails, or exhausts its
    /// phases) independently, exactly when it would alone, and warm starts
    /// stay per design, so every returned analysis is bit-identical to a
    /// group of one. `evaluate` runs a group of one.
    ///
    /// One `eval.thermal` span covers the group; the `eval.thermal.fail`
    /// faultpoint fires once per *live lane per lockstep step* (lane
    /// order), and trace events interleave across lanes. `eval.phase`
    /// events carry identical fields per design. A group of one tags the
    /// span with its outcome (`peak_c` and `worst_power_w`, or
    /// `solver_failed`, or `runaway`); a larger group tags it with its
    /// `batch` size.
    fn thermal_analysis_group(&self, items: &[&ThermalPending]) -> Vec<ThermalAnalysis> {
        let tech = &self.opts.tech;
        let mut thermal_span = trace::span("eval.thermal");
        if trace::enabled() {
            if items.len() > 1 {
                thermal_span.field("batch", Json::U64(items.len() as u64));
            }
            thermal_span.field(
                "phases",
                Json::U64(items.iter().map(|p| p.sched.phases().len() as u64).sum()),
            );
        }
        let first = items[0];
        let model =
            self.thermal_model(&first.layout, &first.geometry, first.design.chiplet.integration);
        let model = model.as_ref();

        let mut runs: Vec<GroupRun> = items
            .iter()
            .map(|p| {
                let (array_tier, sram_tier) = device_tiers(p.design.chiplet.integration);
                let mut run = GroupRun {
                    pending: p,
                    phases: p.sched.phases(),
                    array_tier,
                    sram_tier,
                    n_chiplets: p.layout.mesh.count() as usize,
                    ranges: chip_cell_ranges(&p.layout, model),
                    phase_idx: 0,
                    dyn_by_chip: Vec::new(),
                    temps: Vec::new(),
                    leak_iters: 0,
                    phase_power: 0.0,
                    guess: None,
                    pmap: model.zero_power(),
                    last_field: None,
                    peak: tech.ambient_c,
                    worst_power: 0.0,
                    hottest_field: None,
                    degraded: false,
                    failed_now: false,
                    done: None,
                };
                // Phase-less schedules retire immediately at ambient.
                run.enter_phase_or_finish(tech.ambient_c);
                run
            })
            .collect();

        loop {
            let live: Vec<usize> = (0..runs.len()).filter(|&i| runs[i].done.is_none()).collect();
            if live.is_empty() {
                break;
            }
            // Advance each live lane's co-iteration: rebuild its power map
            // from the current temperatures and fire the failure-injection
            // site once per lane, in lane order.
            for &i in &live {
                let run = &mut runs[i];
                run.leak_iters += 1;
                run.pmap.clear();
                run.phase_power = self.inject_phase_power(
                    &mut run.pmap,
                    &run.pending.layout,
                    &run.pending.geometry,
                    &run.pending.design.chiplet,
                    &run.dyn_by_chip,
                    &run.temps,
                    run.array_tier,
                    run.sram_tier,
                );
                run.failed_now = faultpoint::fire("eval.thermal.fail");
            }
            // One batched solve over the lanes that did not fault.
            let solving: Vec<usize> =
                live.iter().copied().filter(|&i| !runs[i].failed_now).collect();
            let requests: Vec<BatchSolveRequest<'_>> = solving
                .iter()
                .map(|&i| BatchSolveRequest {
                    power: &runs[i].pmap,
                    guess: runs[i].guess.as_deref(),
                })
                .collect();
            let solved = model.solve_batch_recoverable(&requests);
            drop(requests);
            // Fold results back in lane order: converge, diverge or fail
            // per lane, then advance the lanes whose phase is done.
            let mut solved = solved.into_iter();
            for &i in &live {
                let run = &mut runs[i];
                let outcome = if run.failed_now {
                    Err(SolveError { residual: f64::INFINITY })
                } else {
                    solved.next().expect("one result per solve request")
                };
                let field = match outcome {
                    Ok((field, SolveQuality::Full)) => field,
                    Ok((field, SolveQuality::DegradedJacobi)) => {
                        run.degraded = true;
                        field
                    }
                    Err(err) => {
                        trace::counter("eval.thermal.solver_failed", 1.0);
                        trace::event("eval.thermal.error", || {
                            vec![("residual", Json::F64(err.residual))]
                        });
                        run.done = Some(ThermalAnalysis {
                            peak_c: f64::NAN,
                            runaway: false,
                            worst_power_w: run.worst_power.max(run.phase_power),
                            hottest_field: None,
                            degraded: run.degraded,
                            solver_failed: true,
                        });
                        continue;
                    }
                };
                let mut max_delta = 0.0f64;
                for (c, range) in run.ranges.iter().enumerate() {
                    let t = field.region_mean_c(run.array_tier, range.0, range.1, range.2, range.3);
                    max_delta = max_delta.max((t - run.temps[c]).abs());
                    run.temps[c] = t;
                }
                match run.guess.as_mut() {
                    Some(g) => g.copy_from_slice(field.as_slice()),
                    None => run.guess = Some(field.as_slice().to_vec()),
                }
                let converged = max_delta < LEAK_CONVERGENCE_K;
                let diverged = run.temps.iter().any(|&t| t > RUNAWAY_TEMP_C);
                run.last_field = Some(field);
                if diverged {
                    run.emit_phase_event(tech.ambient_c, true);
                    run.done = Some(ThermalAnalysis {
                        peak_c: RUNAWAY_TEMP_C,
                        runaway: true,
                        worst_power_w: run.phase_power.max(run.worst_power),
                        hottest_field: run.last_field.take(),
                        degraded: run.degraded,
                        solver_failed: false,
                    });
                    continue;
                }
                if converged || run.leak_iters >= LEAK_MAX_ITERS {
                    run.emit_phase_event(tech.ambient_c, false);
                    if let Some(field) = run.last_field.take() {
                        let phase_peak = field
                            .layer_peak_c(run.array_tier)
                            .max(field.layer_peak_c(run.sram_tier));
                        if phase_peak >= run.peak || run.hottest_field.is_none() {
                            run.hottest_field = Some(field);
                        }
                        run.peak = run.peak.max(phase_peak);
                    }
                    run.worst_power = run.worst_power.max(run.phase_power);
                    run.phase_idx += 1;
                    run.enter_phase_or_finish(tech.ambient_c);
                }
            }
        }
        let analyses: Vec<ThermalAnalysis> =
            runs.into_iter().map(|r| r.done.expect("every lane retired")).collect();
        if let [ta] = analyses.as_slice() {
            if ta.solver_failed {
                thermal_span.field("solver_failed", Json::Bool(true));
            } else if ta.runaway {
                thermal_span.field("runaway", Json::Bool(true));
            } else if trace::enabled() {
                thermal_span.field("peak_c", Json::F64(ta.peak_c));
                thermal_span.field("worst_power_w", Json::F64(ta.worst_power_w));
            }
        }
        analyses
    }

    /// Evaluates many `(design, constraints)` pairs through the memo at
    /// once, grouping cache misses that share a thermal model (same
    /// layout and integration — the key of the model memo) so their
    /// per-phase solves run as lockstep multi-RHS batches instead of one
    /// serial solve per design.
    ///
    /// Results are identical, field for field and bit for bit, to calling
    /// [`Evaluator::evaluate_cached`] on each pair in order — the batched
    /// engine performs each design's exact single-design arithmetic
    /// sequence (see `tesa_thermal::ThermalModel::solve_batch_recoverable`).
    /// The
    /// pre-thermal pipeline of the misses fans out across `threads` pool
    /// lanes; the memo is probed first, so work distribution and chunk
    /// granularity reflect only the designs that actually need computing.
    pub fn evaluate_cached_batch(
        &self,
        queries: &[(&McmDesign, &Constraints)],
        threads: usize,
    ) -> Vec<Arc<McmEvaluation>> {
        let mut out: Vec<Option<Arc<McmEvaluation>>> = vec![None; queries.len()];
        let mut misses: Vec<usize> = Vec::new();
        let mut first_at: HashMap<EvalKey, usize> = HashMap::new();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        {
            let cache = self.eval_cache.read().expect("cache lock poisoned");
            for (i, &(design, constraints)) in queries.iter().enumerate() {
                let key: EvalKey = (*design, constraints_key(constraints));
                if let Some(hit) = cache.get(&key) {
                    self.record_lookup(true);
                    out[i] = Some(Arc::clone(hit));
                } else if let Some(&first) = first_at.get(&key) {
                    // A serial loop would compute the first occurrence and
                    // hit the memo here; keep the stats equivalent.
                    self.record_lookup(true);
                    dups.push((i, first));
                } else {
                    self.record_lookup(false);
                    first_at.insert(key, i);
                    misses.push(i);
                }
            }
        }

        if !misses.is_empty() {
            // Pre-thermal pipeline of every miss, fanned out over the pool.
            let preludes: Vec<EvalPrelude> = pool::map_dynamic(threads, misses.len(), |j| {
                let (design, constraints) = queries[misses[j]];
                self.evaluate_prelude(design, constraints)
            });

            // Already-decided designs finish now; the rest group by
            // thermal-model key, in first-appearance order.
            let mut pendings: Vec<Option<Box<ThermalPending>>> = Vec::with_capacity(misses.len());
            let mut groups: Vec<(ThermalKey, Vec<usize>)> = Vec::new();
            for (j, prelude) in preludes.into_iter().enumerate() {
                match prelude {
                    EvalPrelude::Done { eval, .. } => {
                        pendings.push(None);
                        self.finish_batched(misses[j], *eval, queries, &mut out);
                    }
                    EvalPrelude::Thermal(pending) => {
                        if self.opts.thermal_enabled {
                            let key = Self::thermal_key(
                                &pending.layout,
                                pending.design.chiplet.integration,
                            );
                            match groups.iter_mut().find(|(k, _)| *k == key) {
                                Some((_, members)) => members.push(j),
                                None => groups.push((key, vec![j])),
                            }
                            pendings.push(Some(pending));
                        } else {
                            let ta = self.disabled_thermal(&pending);
                            let eval =
                                self.evaluate_epilogue(*pending, ta, queries[misses[j]].1);
                            pendings.push(None);
                            self.finish_batched(misses[j], eval, queries, &mut out);
                        }
                    }
                }
            }

            for (_, members) in &groups {
                let items: Vec<&ThermalPending> = members
                    .iter()
                    .map(|&j| pendings[j].as_deref().expect("grouped pending present"))
                    .collect();
                let analyses = self.thermal_analysis_group(&items);
                drop(items);
                for (&j, ta) in members.iter().zip(analyses) {
                    let pending = pendings[j].take().expect("grouped pending present");
                    let eval = self.evaluate_epilogue(*pending, ta, queries[misses[j]].1);
                    self.finish_batched(misses[j], eval, queries, &mut out);
                }
            }
        }

        for (i, first) in dups {
            out[i] = Some(Arc::clone(out[first].as_ref().expect("canonical query resolved")));
        }
        out.into_iter().map(|e| e.expect("every query resolved")).collect()
    }

    /// Memoizes and publishes one batched-path evaluation, emitting an
    /// `eval.design` *event* carrying the fields `evaluate` puts on its
    /// per-design span (the batched paths have no per-design span —
    /// their designs interleave across one lockstep group).
    fn finish_batched(
        &self,
        i: usize,
        eval: McmEvaluation,
        queries: &[(&McmDesign, &Constraints)],
        out: &mut [Option<Arc<McmEvaluation>>],
    ) {
        trace::event("eval.design", || {
            vec![
                ("array", Json::U64(u64::from(eval.design.chiplet.array_dim))),
                ("sram_kib", Json::U64(eval.design.chiplet.sram_kib_per_bank)),
                ("ics_um", Json::U64(u64::from(eval.design.ics_um))),
                ("freq_mhz", Json::U64(u64::from(eval.design.freq_mhz))),
                ("feasible", Json::Bool(eval.violations.is_empty())),
                ("peak_c", Json::F64(eval.peak_temp_c)),
                ("cost_usd", Json::F64(eval.mcm_cost_usd)),
            ]
        });
        let key: EvalKey = (*queries[i].0, constraints_key(queries[i].1));
        let arc = Arc::new(eval);
        self.eval_cache.write().expect("cache lock poisoned").insert(key, Arc::clone(&arc));
        out[i] = Some(arc);
    }

    /// The converged temperature field of the hottest schedule phase of
    /// `design` — the data behind the paper's Fig. 6 thermal maps. Returns
    /// `None` when the chiplet does not fit the interposer or the thermal
    /// solver is disabled. For a design in thermal runaway, the last
    /// (diverging) field is returned.
    pub fn thermal_map(
        &self,
        design: &McmDesign,
        constraints: &Constraints,
    ) -> Option<tesa_thermal::ThermalField> {
        if !self.opts.thermal_enabled {
            return None;
        }
        let pending = self.pipeline(design, constraints).ok()?;
        self.thermal_analysis_group(&[&pending]).remove(0).hottest_field
    }

    /// Transient thermal simulation of the actual schedule timeline — an
    /// extension over the paper's steady-state-per-phase analysis.
    ///
    /// The frame's phases execute back to back (each for the duration of
    /// its longest DNN), repeated for `frames` frames, with leakage
    /// re-evaluated from the evolving per-chiplet temperatures at every
    /// step. Returns `None` when the design does not fit the interposer or
    /// the thermal solver is disabled.
    ///
    /// The per-step peak trace quantifies how conservative the paper's
    /// steady-state analysis is: short frames never reach the steady-state
    /// temperature the optimizer guards against.
    pub fn transient_trace(
        &self,
        design: &McmDesign,
        constraints: &Constraints,
        dt_s: f64,
        frames: usize,
    ) -> Option<TransientTrace> {
        if !self.opts.thermal_enabled {
            return None;
        }
        let chiplet = design.chiplet;
        let ThermalPending { geometry, layout, sched, dnn_cycles, dnn_power, .. } =
            self.pipeline(design, constraints).ok()?;
        let freq_hz = design.freq_hz();

        let model = self.thermal_model(&layout, &geometry, chiplet.integration);
        let (array_tier, sram_tier) = device_tiers(chiplet.integration);
        let n_chiplets = layout.mesh.count() as usize;
        let ranges = chip_cell_ranges(&layout, &model);

        let mut field = model.ambient_field();
        let mut times = Vec::new();
        let mut peaks = Vec::new();
        let mut t = 0.0f64;
        let mut pmap = model.zero_power();
        for _ in 0..frames {
            for phase in sched.phases() {
                let duration = phase
                    .iter()
                    .map(|&(_, d)| dnn_cycles[d.0] as f64 / freq_hz)
                    .fold(0.0, f64::max);
                let steps = (duration / dt_s).ceil().max(1.0) as usize;
                let mut dyn_by_chip: Vec<Option<DynamicPower>> = vec![None; n_chiplets];
                for &(chip, dnn) in &phase {
                    dyn_by_chip[chip] = Some(dnn_power[dnn.0]);
                }
                for _ in 0..steps {
                    // Leakage from the current per-chiplet temperatures.
                    let temps: Vec<f64> = ranges
                        .iter()
                        .map(|r| field.region_mean_c(array_tier, r.0, r.1, r.2, r.3))
                        .collect();
                    pmap.clear();
                    self.inject_phase_power(
                        &mut pmap,
                        &layout,
                        &geometry,
                        &chiplet,
                        &dyn_by_chip,
                        &temps,
                        array_tier,
                        sram_tier,
                    );
                    field = model.transient_step(&pmap, &field, dt_s);
                    t += dt_s;
                    times.push(t);
                    peaks.push(
                        field.layer_peak_c(array_tier).max(field.layer_peak_c(sram_tier)),
                    );
                }
            }
        }
        Some(TransientTrace { times_s: times, peaks_c: peaks })
    }

    /// Rasterizes one phase's power into `pmap`; returns the total watts.
    #[allow(clippy::too_many_arguments)]
    fn inject_phase_power(
        &self,
        pmap: &mut PowerMap,
        layout: &McmLayout,
        geometry: &ChipletGeometry,
        chiplet: &ChipletConfig,
        dyn_by_chip: &[Option<DynamicPower>],
        temps: &[f64],
        array_tier: usize,
        sram_tier: usize,
    ) -> f64 {
        let tech = &self.opts.tech;
        let mut total = 0.0;
        for (c, rect) in layout.positions_m.iter().enumerate() {
            let leak_array = array_leakage_w(chiplet, tech, temps[c], self.opts.leakage);
            let leak_sram = sram_leakage_w(chiplet, tech, temps[c], self.opts.leakage);
            let dynp = dyn_by_chip[c].unwrap_or_default();
            match chiplet.integration {
                Integration::TwoD => {
                    let array_r = layout.array_region_2d(c, geometry);
                    let sram_r = layout.sram_region_2d(c, geometry);
                    pmap.add_uniform_rect(array_tier, array_r, dynp.array_w + leak_array);
                    pmap.add_uniform_rect(sram_tier, sram_r, dynp.sram_w + leak_sram);
                }
                Integration::ThreeD => {
                    pmap.add_uniform_rect(array_tier, *rect, dynp.array_w + leak_array);
                    pmap.add_uniform_rect(
                        sram_tier,
                        *rect,
                        dynp.sram_w + dynp.tsv_w + leak_sram,
                    );
                }
            }
            total += dynp.total_w() + leak_array + leak_sram;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesa_workloads::arvr_suite;

    fn design(dim: u32, kib: u64, integration: Integration, ics: u32, mhz: u32) -> McmDesign {
        McmDesign {
            chiplet: ChipletConfig { array_dim: dim, sram_kib_per_bank: kib, integration },
            ics_um: ics,
            freq_mhz: mhz,
        }
    }

    fn evaluator() -> Evaluator {
        // A coarser grid keeps unit tests quick; integration tests use 64.
        Evaluator::new(arvr_suite(), EvalOptions { grid_cells: 32, ..Default::default() })
    }

    #[test]
    fn oversized_chiplet_reports_area_violation() {
        // Even the largest Table II chiplet (256x256, 12 MiB SRAM) fits an
        // 8x8 mm interposer alone; a truly oversized one must not.
        let e = evaluator();
        let d = design(1024, 4096, Integration::TwoD, 0, 400);
        let eval = e.evaluate(&d, &Constraints::default());
        assert!(eval
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Area { .. })));
        assert!(!eval.is_feasible());
    }

    #[test]
    fn tiny_chiplet_misses_latency() {
        let e = evaluator();
        let d = design(16, 8, Integration::TwoD, 500, 400);
        let eval = e.evaluate(&d, &Constraints::edge_device(30.0, 85.0));
        assert!(eval
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Latency { .. })), "{:?}", eval.violations);
    }

    #[test]
    fn excessive_ics_flagged() {
        let e = evaluator();
        let d = design(64, 128, Integration::TwoD, 1500, 400);
        let eval = e.evaluate(&d, &Constraints::default());
        assert!(eval.violations.iter().any(|v| matches!(v, Violation::Ics { .. })));
    }

    #[test]
    fn midsize_2d_design_evaluates_fully() {
        let e = evaluator();
        let d = design(128, 512, Integration::TwoD, 500, 400);
        let eval = e.evaluate(&d, &Constraints::edge_device(15.0, 85.0));
        assert!(eval.mesh.is_some());
        assert!(eval.latency_s.is_finite() && eval.latency_s > 0.0);
        assert!(eval.peak_temp_c > 45.0, "powered silicon must warm up");
        assert!(eval.mcm_cost_usd > 0.0 && eval.mcm_cost_usd.is_finite());
        assert!(eval.dram_power_w > 0.0);
        assert!(eval.ops > 0.0);
        assert!(eval.dram_channels >= eval.schedule.as_ref().unwrap().active_chiplets() as u32);
    }

    #[test]
    fn perf_cache_hits_across_ics() {
        let e = evaluator();
        let d1 = design(96, 256, Integration::TwoD, 0, 400);
        let d2 = design(96, 256, Integration::TwoD, 1000, 400);
        let _ = e.evaluate(&d1, &Constraints::default());
        let before = Arc::strong_count(&e.perf(&d1.chiplet));
        let _ = e.evaluate(&d2, &Constraints::default());
        // Same (array, SRAM) key: the cache entry is reused, not rebuilt.
        assert!(Arc::strong_count(&e.perf(&d2.chiplet)) >= before);
    }

    #[test]
    fn higher_frequency_is_faster_but_hotter() {
        let e = evaluator();
        let d400 = design(128, 512, Integration::TwoD, 500, 400);
        let d500 = design(128, 512, Integration::TwoD, 500, 500);
        let c = Constraints::edge_device(15.0, 85.0);
        let e400 = e.evaluate(&d400, &c);
        let e500 = e.evaluate(&d500, &c);
        assert!(e500.latency_s < e400.latency_s);
        assert!(e500.peak_temp_c > e400.peak_temp_c);
    }

    #[test]
    fn three_d_same_architecture_is_hotter_than_2d() {
        // Stacking halves the footprint (higher power density) and buries
        // the SRAM tier — 3D must run hotter at iso-architecture.
        let e = evaluator();
        let c = Constraints::edge_device(15.0, 85.0);
        let e2 = e.evaluate(&design(128, 512, Integration::TwoD, 500, 400), &c);
        let e3 = e.evaluate(&design(128, 512, Integration::ThreeD, 500, 400), &c);
        assert!(e3.peak_temp_c > e2.peak_temp_c, "3D {} vs 2D {}", e3.peak_temp_c, e2.peak_temp_c);
    }

    #[test]
    fn temperature_unaware_mode_skips_thermal() {
        let e = Evaluator::new(
            arvr_suite(),
            EvalOptions { grid_cells: 32, ..EvalOptions::temperature_unaware() },
        );
        let eval = e.evaluate(&design(128, 512, Integration::TwoD, 500, 400), &Constraints::default());
        assert_eq!(eval.peak_temp_c, e.options().tech.ambient_c);
        assert!(!eval.violations.iter().any(|v| matches!(v, Violation::Thermal { .. })));
    }

    #[test]
    fn eval_cache_counts_hits_and_misses() {
        let e = evaluator();
        let d = design(96, 256, Integration::TwoD, 500, 400);
        let c = Constraints::default();
        assert_eq!(e.eval_cache_stats(), (0, 0));
        let first = e.evaluate_cached(&d, &c);
        assert_eq!(e.eval_cache_stats(), (0, 1));
        let second = e.evaluate_cached(&d, &c);
        let _ = e.evaluate_cached(&d, &c);
        assert_eq!(e.eval_cache_stats(), (2, 1));
        assert!(Arc::ptr_eq(&first, &second), "hit returns the cached value");
    }

    #[test]
    fn eval_cache_evicts_oldest_beyond_capacity() {
        let e = evaluator();
        let d = design(96, 256, Integration::TwoD, 500, 400);
        let c = Constraints::default();
        let eval = e.evaluate_cached(&d, &c);
        {
            // Flood the memo with synthetic keys; the real entry is the
            // oldest and must be the one evicted.
            let mut cache = e.eval_cache.write().unwrap();
            for f in 0..EVAL_CACHE_CAP as u32 {
                let mut k: EvalKey = (d, constraints_key(&c));
                k.0.freq_mhz = 100_000 + f;
                cache.insert(k, Arc::clone(&eval));
            }
            assert_eq!(cache.map.len(), EVAL_CACHE_CAP);
            assert_eq!(cache.order.len(), EVAL_CACHE_CAP);
            assert!(cache.get(&(d, constraints_key(&c))).is_none());
        }
        // A re-request recomputes (a miss), it does not fail.
        let again = e.evaluate_cached(&d, &c);
        assert_eq!(again.peak_temp_c, eval.peak_temp_c);
        assert_eq!(e.eval_cache_stats().0, 0, "no hit: the entry was evicted");
    }

    #[test]
    fn perf_and_thermal_caches_evict_beyond_capacity() {
        let e = evaluator();
        let d = design(96, 256, Integration::TwoD, 500, 400);
        let _ = e.evaluate(&d, &Constraints::default());
        {
            // Flood with synthetic keys: both memos must stay bounded and
            // evict their oldest (the real) entry first.
            let report = Arc::clone(e.perf_cache.read().unwrap().get(&(96, 256)).unwrap());
            let mut perf = e.perf_cache.write().unwrap();
            for f in 0..PERF_CACHE_CAP as u32 {
                perf.insert((100_000 + f, 256), Arc::clone(&report));
            }
            assert_eq!(perf.map.len(), PERF_CACHE_CAP);
            assert_eq!(perf.order.len(), PERF_CACHE_CAP);
            assert!(perf.get(&(96, 256)).is_none(), "oldest perf entry evicted");
        }
        {
            let mut thermal = e.thermal_cache.write().unwrap();
            let (&key, model) = thermal.map.iter().next().unwrap();
            let model = Arc::clone(model);
            for f in 0..THERMAL_CACHE_CAP as u32 {
                thermal.insert((u64::from(f), key.1, key.2, key.3, key.4), Arc::clone(&model));
            }
            assert_eq!(thermal.map.len(), THERMAL_CACHE_CAP);
            assert_eq!(thermal.order.len(), THERMAL_CACHE_CAP);
            assert!(thermal.get(&key).is_none(), "oldest thermal entry evicted");
        }
        // The evaluator recomputes what was evicted; nothing breaks.
        let again = e.evaluate(&d, &Constraints::default());
        assert!(again.latency_s.is_finite());
    }

    #[test]
    fn screen_never_contradicts_exact_evaluation() {
        let e = evaluator();
        // Tight thermal budget so the space spans both verdict directions.
        let c = Constraints { temp_budget_c: 70.0, ..Constraints::edge_device(15.0, 70.0) };
        for dim in [64, 128, 192, 256] {
            for integration in [Integration::TwoD, Integration::ThreeD] {
                let d = design(dim, 512, integration, 500, 400);
                let verdict = e.screen(&d, &c);
                let exact = e.evaluate(&d, &c);
                match verdict {
                    ScreenVerdict::ClearlyInfeasible => assert!(
                        !exact.is_feasible(),
                        "screen claimed infeasible but exact is feasible: {d:?}"
                    ),
                    ScreenVerdict::ClearlyFeasible => assert!(
                        exact.is_feasible(),
                        "screen claimed feasible but exact found {:?}: {d:?}",
                        exact.violations
                    ),
                    ScreenVerdict::Ambiguous => {}
                }
            }
        }
    }

    #[test]
    fn screen_is_decisive_without_thermal_solver() {
        let e = Evaluator::new(
            arvr_suite(),
            EvalOptions { grid_cells: 32, ..EvalOptions::temperature_unaware() },
        );
        let c = Constraints::default();
        for dim in [32, 128, 256] {
            let d = design(dim, 256, Integration::TwoD, 500, 400);
            let verdict = e.screen(&d, &c);
            assert_ne!(
                verdict,
                ScreenVerdict::Ambiguous,
                "no thermal solve means the screen is exact: {d:?}"
            );
            assert_eq!(
                verdict == ScreenVerdict::ClearlyFeasible,
                e.evaluate(&d, &c).is_feasible(),
            );
        }
    }

    #[test]
    fn fast_screen_agrees_with_the_full_screen_and_never_poisons_its_memo() {
        let c = Constraints { temp_budget_c: 70.0, ..Constraints::edge_device(15.0, 70.0) };
        for dim in [64, 128, 192, 256] {
            for integration in [Integration::TwoD, Integration::ThreeD] {
                let d = design(dim, 512, integration, 500, 400);
                // Fresh evaluators: both screens must run from scratch.
                let fast = evaluator().screen_mode(&d, &c, false).0;
                let full = evaluator().screen(&d, &c);
                // The infeasible side is identical (same lower-bound
                // solves); the fast path only collapses the feasible side
                // into Ambiguous.
                assert_eq!(fast == ScreenVerdict::ClearlyInfeasible,
                           full == ScreenVerdict::ClearlyInfeasible,
                           "{d:?}");

                // A fast screen followed by a full screen on one evaluator
                // must still reach the full verdict: an infeasible-only
                // Ambiguous is not cacheable.
                let e = evaluator();
                let first = e.screen_mode(&d, &c, false).0;
                assert_eq!(first == ScreenVerdict::ClearlyInfeasible,
                           full == ScreenVerdict::ClearlyInfeasible);
                assert_eq!(e.screen(&d, &c), full, "{d:?}");
            }
        }
    }

    #[test]
    fn screen_reuses_cached_exact_answer() {
        let e = evaluator();
        let d = design(128, 512, Integration::TwoD, 500, 400);
        let c = Constraints::edge_device(15.0, 85.0);
        let exact = e.evaluate_cached(&d, &c);
        let verdict = e.screen(&d, &c);
        assert_eq!(verdict == ScreenVerdict::ClearlyFeasible, exact.is_feasible());
        assert!(e.screen_cache.read().unwrap().map.is_empty(), "no surrogate work needed");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let e = evaluator();
        let d = design(128, 512, Integration::TwoD, 500, 400);
        let c = Constraints::default();
        let a = e.evaluate(&d, &c);
        let b = e.evaluate(&d, &c);
        assert_eq!(a.peak_temp_c, b.peak_temp_c);
        assert_eq!(a.mcm_cost_usd, b.mcm_cost_usd);
        assert_eq!(a.latency_s, b.latency_s);
    }

    /// The transient simulates the schedule `evaluate` reports, whatever
    /// the scheduler policy: one step per `dt` of each phase's longest DNN.
    #[test]
    fn transient_trace_follows_the_scheduler_policy() {
        let e = Evaluator::new(
            arvr_suite(),
            EvalOptions {
                grid_cells: 32,
                scheduler: SchedulerPolicy::NaiveRoundRobin,
                ..Default::default()
            },
        );
        let d = design(200, 1024, Integration::TwoD, 500, 400);
        let c = Constraints::edge_device(30.0, 75.0);
        let sched = e.evaluate(&d, &c).schedule.expect("the design fits");
        let reports = e.perf(&d.chiplet);
        let dt_s = 1e-3;
        let steps: usize = sched
            .phases()
            .iter()
            .map(|phase| {
                let duration = phase
                    .iter()
                    .map(|&(_, dnn)| reports[dnn.0].total_cycles as f64 / d.freq_hz())
                    .fold(0.0, f64::max);
                (duration / dt_s).ceil().max(1.0) as usize
            })
            .sum();
        let trace = e.transient_trace(&d, &c, dt_s, 1).expect("the design fits");
        assert_eq!(trace.times_s.len(), steps, "{} phases", sched.phases().len());
    }
}
