//! Replays designs through each pipeline layer's public functions, one
//! span per call, to split a workload's time by layer from outside the
//! program.
//!
//! The thermal stage is a replica of `Evaluator::evaluate` built from the
//! same public pieces (stack builder, power injection, recoverable solve,
//! region means) with the evaluator's constants. It is checked against the
//! program: every replayed design's peak temperature is compared with the
//! evaluator's, and a traced run with a mismatch fails (a later change to
//! the evaluator's internals shows up there, not as a wrong ledger).

use crate::ledger::Ledger;
use crate::sys::rss_mib;
use std::collections::{HashMap, HashSet};
use tesa::constraints::Constraints;
use tesa::design::{ChipletConfig, ChipletGeometry, Integration, McmDesign};
use tesa::eval::{EvalOptions, Evaluator};
use tesa::floorplan::{estimate_mesh, McmLayout};
use tesa::power::{array_leakage_w, dynamic_power, sram_leakage_w, DynamicPower};
use tesa::sched::{schedule, Schedule};
use tesa_memsim::{DramPowerModel, DramUsage};
use tesa_thermal::{
    BatchSolveRequest, PowerMap, Rect, SolveQuality, StackBuilder, ThermalField, ThermalModel,
};
use tesa_workloads::{arvr_suite, DnnId};

// The evaluator's private constants (crates/core/src/eval.rs).
const RUNAWAY_TEMP_C: f64 = 150.0;
const LEAK_CONVERGENCE_K: f64 = 0.1;
const LEAK_MAX_ITERS: usize = 25;
const DRAM_BURST_MARGIN: f64 = 1.25;

/// What the pre-thermal pipeline decided for one design.
pub enum Stage {
    /// Not even one chiplet fits the interposer.
    Area,
    /// The lazy gate rejected the design before the thermal solve.
    Lazy,
    /// The design goes on to the thermal stage.
    Thermal(Box<Pending>),
}

/// Inputs of the thermal stage for one design.
pub struct Pending {
    design: McmDesign,
    geometry: ChipletGeometry,
    layout: McmLayout,
    sched: Schedule,
    dnn_power: Vec<DynamicPower>,
}

/// Steps 1–4 of `Evaluator::evaluate` (mesh, performance, power,
/// schedule, DRAM, cost) plus the lazy gate. `ev` supplies the memoized
/// performance reports and the options.
pub fn prelude(ev: &Evaluator, design: &McmDesign, c: &Constraints) -> Stage {
    let opts = ev.options();
    let chiplet = design.chiplet;
    let tech = &opts.tech;
    let geometry = chiplet.geometry(tech);
    let mut violated = design.ics_um > c.max_ics_um;
    let Some(layout) = estimate_mesh(
        geometry.side_mm(),
        design.ics_mm(),
        c.interposer_w_mm,
        c.interposer_h_mm,
        ev.workload().len() as u32,
    ) else {
        return Stage::Area;
    };
    let reports = ev.perf(&chiplet);
    let freq_hz = design.freq_hz();
    let cycles: Vec<u64> = reports.iter().map(|r| r.total_cycles).collect();
    let dnn_power: Vec<DynamicPower> = reports
        .iter()
        .map(|r| dynamic_power(r, &chiplet, tech, freq_hz))
        .collect();
    let totals: Vec<f64> = dnn_power.iter().map(DynamicPower::total_w).collect();
    let sched = schedule(&layout.corner_first_order(), &cycles, &totals);
    let latency_s = sched.makespan_cycles() as f64 / freq_hz;
    violated |= 1.0 / latency_s + 1e-9 < c.min_fps;

    let dram = DramPowerModel::new(tech.dram_channel);
    let (mut channels, mut bytes) = (0u32, 0.0f64);
    for q in sched.assignments.iter().filter(|q| !q.is_empty()) {
        let demand = q
            .iter()
            .map(|d| reports[d.0].avg_dram_bytes_per_cycle() * freq_hz * DRAM_BURST_MARGIN)
            .fold(0.0, f64::max);
        channels += dram.channels_for_peak_bandwidth(demand);
        bytes += q
            .iter()
            .map(|d| reports[d.0].dram_traffic.total() as f64)
            .sum::<f64>();
    }
    let dram_w = dram
        .power(DramUsage {
            bytes_transferred: bytes,
            window_s: c.frame_window_s(),
            channels,
        })
        .total_w();
    std::hint::black_box(opts.cost.mcm_cost_usd(
        layout.mesh.count(),
        &geometry,
        chiplet.integration,
        c.interposer_area_mm2(),
    ));

    let dyn_worst_w = sched
        .phases()
        .iter()
        .map(|phase| phase.iter().map(|&(_, d)| totals[d.0]).sum::<f64>())
        .fold(0.0, f64::max);
    if opts.lazy && opts.thermal_enabled && (violated || dyn_worst_w + dram_w > c.power_budget_w) {
        return Stage::Lazy;
    }
    Stage::Thermal(Box::new(Pending {
        design: *design,
        geometry,
        layout,
        sched,
        dnn_power,
    }))
}

/// The package stack `Evaluator` builds for a layout (same layers, same
/// constants, same grid).
pub fn build_model(opts: &EvalOptions, p: &Pending) -> ThermalModel {
    let t = &opts.tech;
    let n = opts.grid_cells;
    let layout = &p.layout;
    let silicon: Vec<(Rect, f64)> = layout
        .positions_m
        .iter()
        .map(|r| (*r, t.k_silicon))
        .collect();
    let builder = StackBuilder::new(
        layout.interposer_w_mm * 1e-3,
        layout.interposer_h_mm * 1e-3,
        n,
        n,
    )
    .layer("interposer", t.t_interposer_m, t.k_silicon);
    let builder = match p.design.chiplet.integration {
        Integration::TwoD => {
            builder.layer_with_patches("device", t.t_tier_m, t.k_underfill, silicon)
        }
        Integration::ThreeD => {
            let f = p.geometry.tsv_fill_fraction();
            let k_sram = t.k_silicon * (1.0 - f) + t.k_copper * f;
            let sram: Vec<(Rect, f64)> = layout.positions_m.iter().map(|r| (*r, k_sram)).collect();
            builder
                .layer_with_patches("sram_tier", t.t_tier_m, t.k_underfill, sram)
                .layer("bond", t.t_bond_m, t.k_bond)
                .layer_with_patches("array_tier", t.t_tier_m, t.k_underfill, silicon)
        }
    };
    builder
        .layer("tim", t.t_tim_m, t.k_tim)
        .layer("lid", t.t_lid_m, t.k_lid)
        .convection(t.convection_k_per_w, t.ambient_c)
        .build()
}

/// Outcome of one replayed thermal stage.
#[derive(Default)]
pub struct Analysis {
    /// Peak junction temperature, °C (the evaluator's convention: 150 on
    /// runaway, NaN on solver failure).
    pub peak_c: f64,
    /// Steady solves run.
    pub solves: u64,
    /// Schedule phases analysed.
    pub phases: u64,
    /// Solves that fell back to the degraded rung.
    pub degraded: u64,
}

/// One design's leakage co-iteration state (the loop variables of the
/// evaluator's per-phase loop).
struct Lane<'a> {
    p: &'a Pending,
    phases: Vec<Vec<(usize, DnnId)>>,
    phase: usize,
    dyn_by_chip: Vec<Option<DynamicPower>>,
    temps: Vec<f64>,
    iters: usize,
    guess: Option<Vec<f64>>,
    pmap: PowerMap,
    last: Option<ThermalField>,
    out: Analysis,
    done: bool,
}

impl Lane<'_> {
    /// Loads the next phase, or retires the lane after the last one.
    fn enter_phase(&mut self, ambient_c: f64) {
        let Some(phase) = self.phases.get(self.phase) else {
            self.done = true;
            return;
        };
        self.out.phases += 1;
        self.dyn_by_chip = vec![None; self.p.layout.mesh.count() as usize];
        for &(chip, dnn) in phase {
            self.dyn_by_chip[chip] = Some(self.p.dnn_power[dnn.0]);
        }
        self.temps = vec![ambient_c; self.dyn_by_chip.len()];
        self.iters = 0;
        self.last = None;
    }
}

/// The per-phase leakage co-iteration of `Evaluator::evaluate` for designs
/// sharing `model`, advanced in lockstep with one batched solve per step
/// as `Evaluator::evaluate_cached_batch` does (a group of one is the
/// serial path). One `eval` span covers the group, with one
/// `thermal.solve` span per batched solve.
pub fn co_iterate(
    opts: &EvalOptions,
    model: &ThermalModel,
    group: &[&Pending],
    ledger: &mut Ledger,
) -> Vec<Analysis> {
    let span = ledger.open("eval");
    let ambient = opts.tech.ambient_c;
    let mut lanes: Vec<Lane> = group
        .iter()
        .map(|p| {
            let mut lane = Lane {
                p,
                phases: p.sched.phases(),
                phase: 0,
                dyn_by_chip: Vec::new(),
                temps: Vec::new(),
                iters: 0,
                guess: None,
                pmap: model.zero_power(),
                last: None,
                out: Analysis {
                    peak_c: ambient,
                    ..Analysis::default()
                },
                done: false,
            };
            lane.enter_phase(ambient);
            lane
        })
        .collect();
    let ranges: Vec<_> = group
        .iter()
        .map(|p| cell_ranges(&p.layout, model))
        .collect();
    loop {
        let live: Vec<usize> = (0..lanes.len()).filter(|&i| !lanes[i].done).collect();
        if live.is_empty() {
            break;
        }
        for &i in &live {
            let lane = &mut lanes[i];
            lane.iters += 1;
            lane.out.solves += 1;
            lane.pmap.clear();
            inject(opts, lane.p, &mut lane.pmap, &lane.dyn_by_chip, &lane.temps);
        }
        let requests: Vec<BatchSolveRequest> = live
            .iter()
            .map(|&i| BatchSolveRequest {
                power: &lanes[i].pmap,
                guess: lanes[i].guess.as_deref(),
            })
            .collect();
        let solved = ledger.time_calls("thermal.solve", live.len() as u64, || {
            model.solve_batch_recoverable(&requests)
        });
        drop(requests);
        for (&i, result) in live.iter().zip(solved) {
            let lane = &mut lanes[i];
            let (array_tier, sram_tier) = tiers(lane.p.design.chiplet.integration);
            let field = match result {
                Ok((field, quality)) => {
                    lane.out.degraded += u64::from(quality == SolveQuality::DegradedJacobi);
                    field
                }
                Err(_) => {
                    lane.out.peak_c = f64::NAN;
                    lane.done = true;
                    continue;
                }
            };
            let mut max_delta = 0.0f64;
            for (c, r) in ranges[i].iter().enumerate() {
                let t = field.region_mean_c(array_tier, r.0, r.1, r.2, r.3);
                max_delta = max_delta.max((t - lane.temps[c]).abs());
                lane.temps[c] = t;
            }
            match lane.guess.as_mut() {
                Some(g) => g.copy_from_slice(field.as_slice()),
                None => lane.guess = Some(field.as_slice().to_vec()),
            }
            if lane.temps.iter().any(|&t| t > RUNAWAY_TEMP_C) {
                lane.out.peak_c = RUNAWAY_TEMP_C;
                lane.done = true;
                continue;
            }
            lane.last = Some(field);
            if max_delta < LEAK_CONVERGENCE_K || lane.iters >= LEAK_MAX_ITERS {
                if let Some(f) = lane.last.take() {
                    let phase_peak = f.layer_peak_c(array_tier).max(f.layer_peak_c(sram_tier));
                    lane.out.peak_c = lane.out.peak_c.max(phase_peak);
                }
                lane.phase += 1;
                lane.enter_phase(ambient);
            }
        }
    }
    ledger.close(span);
    lanes.into_iter().map(|l| l.out).collect()
}

/// Grid-layer indices of the (array, SRAM) device tiers.
fn tiers(integration: Integration) -> (usize, usize) {
    match integration {
        Integration::TwoD => (1, 1),
        Integration::ThreeD => (3, 1),
    }
}

/// `Evaluator::inject_phase_power`: rasterizes one phase's dynamic plus
/// temperature-dependent leakage power.
fn inject(
    opts: &EvalOptions,
    p: &Pending,
    pmap: &mut PowerMap,
    dyn_by_chip: &[Option<DynamicPower>],
    temps: &[f64],
) {
    let (array_tier, sram_tier) = tiers(p.design.chiplet.integration);
    let tech = &opts.tech;
    let chiplet = &p.design.chiplet;
    for (c, rect) in p.layout.positions_m.iter().enumerate() {
        let leak_array = array_leakage_w(chiplet, tech, temps[c], opts.leakage);
        let leak_sram = sram_leakage_w(chiplet, tech, temps[c], opts.leakage);
        let d = dyn_by_chip[c].unwrap_or_default();
        match chiplet.integration {
            Integration::TwoD => {
                pmap.add_uniform_rect(
                    array_tier,
                    p.layout.array_region_2d(c, &p.geometry),
                    d.array_w + leak_array,
                );
                pmap.add_uniform_rect(
                    sram_tier,
                    p.layout.sram_region_2d(c, &p.geometry),
                    d.sram_w + leak_sram,
                );
            }
            Integration::ThreeD => {
                pmap.add_uniform_rect(array_tier, *rect, d.array_w + leak_array);
                pmap.add_uniform_rect(sram_tier, *rect, d.sram_w + d.tsv_w + leak_sram);
            }
        }
    }
}

/// Fine-grid cell ranges per chiplet (`Evaluator`'s `chip_cell_ranges`).
fn cell_ranges(layout: &McmLayout, model: &ThermalModel) -> Vec<(usize, usize, usize, usize)> {
    let (nx, ny) = model.grid_dims();
    let (w, h) = model.footprint_m();
    layout
        .positions_m
        .iter()
        .map(|r| {
            let ix0 = ((r.x / w * nx as f64).floor() as usize).min(nx - 1);
            let ix1 = ((r.x2() / w * nx as f64).ceil() as usize).clamp(ix0 + 1, nx);
            let iy0 = ((r.y / h * ny as f64).floor() as usize).min(ny - 1);
            let iy1 = ((r.y2() / h * ny as f64).ceil() as usize).clamp(iy0 + 1, ny);
            (ix0, ix1, iy0, iy1)
        })
        .collect()
}

/// Counts of one replay.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Distinct `(array, SRAM)` pairs simulated.
    pub pairs: u64,
    /// Designs through the pre-thermal pipeline.
    pub designs: u64,
    /// Designs the lazy gate stopped before the thermal stage.
    pub lazy: u64,
    /// Designs that ran the thermal stage (exact evaluations).
    pub exact: u64,
    /// Thermal models built.
    pub builds: u64,
    /// Steady solves.
    pub solves: u64,
    /// Schedule phases analysed.
    pub phases: u64,
    /// Degraded solves.
    pub degraded: u64,
    /// Resident-memory growth per retained model, MiB.
    pub model_mib: f64,
    /// `(design, replayed peak °C)` of every exact evaluation.
    pub peaks: Vec<(McmDesign, f64)>,
}

/// Key of the evaluator's thermal-model memo: designs with equal keys
/// share one model (and, on the batched path, one lockstep group).
type ModelKey = (u64, u32, u32, u32, bool);

fn model_key(p: &Pending) -> ModelKey {
    let l = &p.layout;
    (
        (l.chiplet_side_mm * 1e6).round() as u64,
        (l.ics_mm * 1e3).round() as u32,
        l.mesh.rows,
        l.mesh.cols,
        p.design.chiplet.integration == Integration::ThreeD,
    )
}

/// Thermal-stage inputs grouped by model key, in first-appearance order.
fn groups(stages: &[Stage]) -> Vec<Vec<&Pending>> {
    let mut index: HashMap<ModelKey, usize> = HashMap::new();
    let mut out: Vec<Vec<&Pending>> = Vec::new();
    for stage in stages {
        if let Stage::Thermal(p) = stage {
            let slot = *index.entry(model_key(p)).or_insert_with(|| {
                out.push(Vec::new());
                out.len() - 1
            });
            out[slot].push(p);
        }
    }
    out
}

/// Replays `designs` (distinct, in order) on a fresh evaluator with
/// `opts`, recording `scalesim`, `prelude`, `thermal.model`, `eval` and
/// `thermal.solve` spans. One model is built per model key and kept alive
/// to the end, as the evaluator's memo keeps it. `batched` runs designs
/// sharing a model in lockstep (the `evaluate_cached_batch` path of
/// sweeps and daemon batches); otherwise each design solves alone (the
/// `evaluate_cached` path of the annealer).
pub fn replay(
    opts: &EvalOptions,
    designs: &[McmDesign],
    c: &Constraints,
    batched: bool,
    ledger: &mut Ledger,
) -> Replayed {
    let ev = Evaluator::new(arvr_suite(), opts.clone());
    let mut out = Replayed {
        designs: designs.len() as u64,
        ..Replayed::default()
    };

    // Performance reports on a cold memo, one span per (array, SRAM) pair
    // of every design that fits the interposer.
    let mut seen: HashSet<(u32, u64)> = HashSet::new();
    for d in designs {
        let side = d.chiplet.geometry(&opts.tech).side_mm();
        let fits =
            estimate_mesh(side, d.ics_mm(), c.interposer_w_mm, c.interposer_h_mm, 1).is_some();
        if fits && seen.insert((d.chiplet.array_dim, d.chiplet.sram_kib_per_bank)) {
            let chiplet: ChipletConfig = d.chiplet;
            ledger.time("scalesim", || ev.perf(&chiplet));
        }
    }
    out.pairs = seen.len() as u64;

    // The pre-thermal pipeline is microseconds per design: one span over
    // the loop.
    let stages: Vec<Stage> = ledger.time_calls("prelude", out.designs, || {
        designs.iter().map(|d| prelude(&ev, d, c)).collect()
    });
    out.lazy = stages.iter().filter(|s| matches!(s, Stage::Lazy)).count() as u64;

    let rss0 = rss_mib();
    let mut models = Vec::new();
    for group in groups(&stages) {
        let model = ledger.time("thermal.model", || build_model(opts, group[0]));
        let chunks: Vec<&[&Pending]> = if batched {
            vec![&group[..]]
        } else {
            group.chunks(1).collect()
        };
        for chunk in chunks {
            for (p, a) in chunk.iter().zip(co_iterate(opts, &model, chunk, ledger)) {
                out.exact += 1;
                out.solves += a.solves;
                out.phases += a.phases;
                out.degraded += a.degraded;
                out.peaks.push((p.design, a.peak_c));
            }
        }
        models.push(model);
    }
    out.builds = models.len() as u64;
    out.model_mib = if models.is_empty() {
        0.0
    } else {
        (rss_mib() - rss0) / models.len() as f64
    };
    out
}

/// Distinct designs in first-seen order.
pub fn distinct(designs: &[McmDesign]) -> Vec<McmDesign> {
    let mut seen = HashSet::new();
    designs
        .iter()
        .copied()
        .filter(|d| seen.insert(*d))
        .collect()
}

/// Whether every replayed peak equals `Evaluator::evaluate`'s bit for bit,
/// i.e. the replica still computes what the program computes. Prints the
/// match count.
pub fn matches_program(peaks: &[(McmDesign, f64)], ev: &Evaluator, c: &Constraints) -> bool {
    let mismatches = peaks
        .iter()
        .filter(|(d, peak)| ev.evaluate_cached(d, c).peak_temp_c.to_bits() != peak.to_bits())
        .count();
    println!(
        "replica: {} of {} exact evaluations reproduce the evaluator's peak bit for bit",
        peaks.len() - mismatches,
        peaks.len()
    );
    mismatches == 0
}
