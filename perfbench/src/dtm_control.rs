//! `dtm_control`: seeded closed-loop DTM runs of
//! `dtm_transient_configured` on the transient grid.
//!
//! The seed draws (application, requested GHz); each operation runs the
//! draw twice, with fixed and then adaptive stepping, reading the die
//! through the default sensor array and checkpointing into the run's own
//! directory. Runs are 50 control steps, shorter than `dtm_longrun`'s
//! 200-step checkpoint cadence, so each run checkpoints once, at its end.
//! Set-up builds one `XylemSystem` at 16² with no disk cache.

use std::time::Instant;

use xylem::dtm::{
    dtm_transient_configured, dvfs_power_maps, CheckpointConfig, DtmPolicy, DtmRunConfig,
};
use xylem::sensor::SensorModel;
use xylem::system::{SystemConfig, XylemSystem};
use xylem_obs::metrics::{counter, Counter};
use xylem_stack::XylemScheme;
use xylem_thermal::grid::GridSpec;
use xylem_thermal::AdaptiveOptions;
use xylem_workloads::Benchmark;

use crate::common::{self, median, timed, Report, Rng, Tracer, WorkDir};
use crate::layers;
use crate::reference::{self, Reference, Section, GHZ_TOL, TEMP_TOL_C};
use crate::Args;

/// Requested frequencies a seed can draw, GHz.
const GHZ: [f64; 4] = [2.8, 3.0, 3.2, 3.5];
const SETUP_REPS: usize = 5;
const SCHEME: XylemScheme = XylemScheme::Base;

struct Sizes {
    grid: usize,
    system_grid: usize,
    duration_s: f64,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            grid: 8,
            system_grid: 8,
            duration_s: 0.03,
        }
    } else {
        Sizes {
            grid: 24,
            system_grid: 16,
            duration_s: 0.05,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Op {
    app: Benchmark,
    ghz: f64,
    adaptive: bool,
}

impl Op {
    fn key(&self, grid: usize) -> String {
        let mode = if self.adaptive { "adaptive" } else { "fixed" };
        format!("g{grid}|{}|{}|{mode}", self.app.name(), self.ghz)
    }

    fn config(&self, grid: usize, checkpoint: Option<CheckpointConfig>) -> DtmRunConfig {
        let mut policy = DtmPolicy::paper_default();
        if self.adaptive {
            policy = policy.with_adaptive(AdaptiveOptions::default());
        }
        DtmRunConfig {
            sensors: Some(SensorModel::default_array(grid, grid, 1)),
            checkpoint,
            ..DtmRunConfig::new(policy)
        }
    }
}

fn build_system(s: &Sizes) -> Result<XylemSystem, String> {
    let mut config = SystemConfig::paper_default(SCHEME);
    config.grid = GridSpec::new(s.system_grid, s.system_grid);
    config.cache_dir = None;
    XylemSystem::new(config).map_err(|e| e.to_string())
}

/// Outcome of one DTM run, as checked against the reference.
struct Outcome {
    steps: usize,
    values: [f64; 2],
    throttle_events: usize,
    adaptive_solves: u64,
    adaptive_rejects: u64,
}

fn run_op(
    system: &XylemSystem,
    op: Op,
    s: &Sizes,
    checkpoint: Option<CheckpointConfig>,
) -> Result<Outcome, String> {
    let r = dtm_transient_configured(
        system,
        op.app,
        op.ghz,
        s.duration_s,
        &op.config(s.grid, checkpoint),
        GridSpec::new(s.grid, s.grid),
    )
    .map_err(|e| e.to_string())?;
    let (adaptive_solves, adaptive_rejects) = r
        .adaptive
        .as_ref()
        .map_or((0, 0), |a| (a.be_solves, a.rejected));
    Ok(Outcome {
        steps: r.samples.len(),
        values: [r.mean_f_ghz(), r.peak_hotspot().get()],
        throttle_events: r.throttle_events,
        adaptive_solves,
        adaptive_rejects,
    })
}

fn expected_steps(s: &Sizes) -> usize {
    (s.duration_s / DtmPolicy::paper_default().control_period_s).round() as usize
}

/// The transient steps of a fixed-step run of `app` at `ghz`, taken
/// directly on a fresh model; total ms and CG iterations. No run
/// throttles, so every step uses the requested operating point's power
/// map.
fn replay_fixed(
    system: &XylemSystem,
    app: Benchmark,
    ghz: f64,
    s: &Sizes,
) -> Result<(f64, u64), String> {
    let model = system
        .built()
        .stack()
        .discretize(GridSpec::new(s.grid, s.grid))
        .map_err(|e| e.to_string())?;
    let (_, maps) = dvfs_power_maps(system, app, ghz, &model).map_err(|e| e.to_string())?;
    let power = maps.last().ok_or("no power map")?;
    let (times, iters) = layers::step_times(&model, power, expected_steps(s))?;
    Ok((times.iter().sum(), iters))
}

/// Checks one run: step count, checkpoint, and the reference summary.
fn check_run(
    res: &Result<Outcome, String>,
    op: Op,
    s: &Sizes,
    checkpoint: &std::path::Path,
    reference: &Reference,
    report: &mut Report,
) -> bool {
    let o = match res {
        Ok(o) => o,
        Err(e) => {
            report.mismatch(format!("dtm_control: {} failed: {e}", op.key(s.grid)));
            return false;
        }
    };
    let steps = expected_steps(s);
    let mut ok = o.steps == steps;
    if !ok {
        report.mismatch(format!("dtm_control: {} steps, expected {steps}", o.steps));
    }
    if !checkpoint.exists() {
        report.mismatch("dtm_control: no checkpoint written".into());
        ok = false;
    }
    let diffs = reference::compare(
        reference,
        "dtm_control",
        &op.key(s.grid),
        &o.values,
        &[GHZ_TOL, TEMP_TOL_C],
    );
    ok &= diffs.is_empty();
    for d in diffs {
        report.mismatch(d);
    }
    ok
}

/// Seeded cases: applications in seeded passes over all of them, so
/// every run covers the same mix, each with a seeded requested GHz.
struct Cases {
    rng: Rng,
    apps: Vec<Benchmark>,
}

impl Cases {
    fn new(seed: u64) -> Self {
        Cases {
            rng: Rng::new(seed, 2),
            apps: Vec::new(),
        }
    }

    fn next(&mut self) -> (Benchmark, f64) {
        if self.apps.is_empty() {
            self.apps = Benchmark::ALL.to_vec();
            self.rng.shuffle(&mut self.apps);
        }
        let app = self.apps.pop().unwrap_or(Benchmark::ALL[0]);
        (app, *self.rng.pick(&GHZ))
    }
}

pub fn run(
    args: &Args,
    started: Instant,
    reference: &Reference,
    report: &mut Report,
) -> Result<(), String> {
    let s = sizes(args.tiny);
    let mut setup_s = Vec::new();
    let mut system = None;
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        let built = build_system(&s)?;
        let mut elapsed = t.elapsed().as_secs_f64();
        if i == 0 {
            elapsed += (t - started).as_secs_f64();
            system = Some(built);
        }
        setup_s.push(elapsed);
    }
    let system = system.ok_or("no system")?;
    let dir = WorkDir::new("dtm_control").map_err(|e| e.to_string())?;
    report.context("work_dir_fs", common::filesystem_of(dir.path()));
    let mut cases = Cases::new(args.seed);

    let mut tracer = args.trace.then(Tracer::default);
    let mut latencies = Vec::new();
    let mut fixed_ms = Vec::new();
    let mut sim_s = 0.0;
    let window = Instant::now();
    let mut i = 0usize;
    while i == 0 || window.elapsed().as_secs_f64() < args.seconds {
        // One operation is one case: the drawn (application, GHz) run
        // with fixed stepping, then with adaptive stepping. An adaptive
        // run costs about three fixed ones, so a median over single runs
        // would sit in the gap between the two modes.
        let (app, ghz) = cases.next();
        let case = Instant::now();
        let mut ok = true;
        for adaptive in [false, true] {
            let op = Op { app, ghz, adaptive };
            let path = dir.sub(&format!("run-{i}-{adaptive}.ckpt"));
            let (res, elapsed) = timed(|| run_op(&system, op, &s, Some(checkpoint(&path, &s))));
            if let Some(tr) = tracer.as_mut() {
                tr.record("dtm.run", elapsed);
            }
            if !adaptive {
                fixed_ms.push(elapsed);
            }
            ok &= check_run(&res, op, &s, &path, reference, report);
            sim_s += s.duration_s;
            let _ = std::fs::remove_file(&path);
        }
        latencies.push(common::ms(case.elapsed()));
        report.op(ok);
        i += 1;
    }
    let window_s = window.elapsed().as_secs_f64();

    let n = latencies.len();
    if let Some(mut tr) = tracer {
        let window_spans = tr.count();
        let first = Cases::new(args.seed).next();
        let case = case_layers(&system, first, &s, &dir, reference, report)?;
        report.metric("solve.calls", case.solve_calls, "count");
        report.metric("solve.cg_iters", case.cg_iters, "count");
        report.metric(
            "solve.iters_per_solve",
            case.cg_iters / case.solve_calls.max(1.0),
            "count",
        );
        report.metric("solve.ms_per_iter", case.replay_ms_per_iter, "ms");
        report.metric("trace.span_coverage", case.coverage, "ratio");
        layers::transient_layers(args.tiny, &system, report)?;
        layers::common_layers(args.tiny, &mut tr, report)?;
        layers::trace_overhead(window_spans, window_s, report);
        // The layers this workload does not drive: the response, evaluate
        // and sweep layers from one seeded design_sweep operation, and the
        // serve and scenario layers from a short serve_mixed window.
        crate::design_sweep::foreign_layers(args, reference, &mut tr, report)?;
        crate::serve_mixed::serve_layers(args, reference, report)?;
    } else {
        report.stat("setup_s", median(&setup_s), "s", setup_s.len());
        report.context("setup_s_samples", format!("{setup_s:.3?}"));
        report.stat("ops_per_s", n as f64 / window_s, "1/s", n);
        report.stat("latency_p50_ms", median(&latencies), "ms", n);
        report.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
        report.context("sim_s_per_host_s", sim_s / window_s);
        report.context("fixed_runs_p50_ms", median(&fixed_ms));
    }
    Ok(())
}

fn checkpoint(path: &std::path::Path, s: &Sizes) -> CheckpointConfig {
    CheckpointConfig {
        path: path.to_path_buf(),
        every_steps: expected_steps(s),
        resume: false,
    }
}

/// What [`case_layers`] measured that its callers report themselves.
struct CaseLayers {
    solve_calls: f64,
    cg_iters: f64,
    replay_ms_per_iter: f64,
    /// Share of the fixed run's wall time spent in its replayed steps.
    coverage: f64,
}

/// The dtm layer on one case, outside any timed window: the fixed run,
/// a direct replay of its steps right after it on a fresh model (the run
/// builds one too), so the run's wall time beyond them is the control
/// loop's own; then the adaptive run. Counts, read around the two runs
/// only, are exact. The case counts as one more checked operation.
fn case_layers(
    system: &XylemSystem,
    (app, ghz): (Benchmark, f64),
    s: &Sizes,
    dir: &WorkDir,
    reference: &Reference,
    report: &mut Report,
) -> Result<CaseLayers, String> {
    let mut counts = [0u64; COUNTERS.len()];
    let mut ok = true;
    let mut fixed_ms = 0.0;
    let mut replay = (0.0, 0);
    let (mut throttles, mut solves, mut rejects) = (0, 0, 0);
    for adaptive in [false, true] {
        let op = Op { app, ghz, adaptive };
        let path = dir.sub(&format!("layers-{adaptive}.ckpt"));
        let c0 = COUNTERS.map(counter);
        let (res, elapsed) = timed(|| run_op(system, op, s, Some(checkpoint(&path, s))));
        for (slot, (c, before)) in counts.iter_mut().zip(COUNTERS.iter().zip(c0)) {
            *slot += counter(*c) - before;
        }
        ok &= check_run(&res, op, s, &path, reference, report);
        let _ = std::fs::remove_file(&path);
        let o = res?;
        throttles += o.throttle_events as u64;
        solves += o.adaptive_solves;
        rejects += o.adaptive_rejects;
        if !adaptive {
            fixed_ms = elapsed;
            replay = replay_fixed(system, app, ghz, s)?;
        }
    }
    report.op(ok);
    let [steps_run, checkpoints, calls, iters, hits, misses] = counts.map(|v| v as f64);
    let steps = expected_steps(s) as f64;
    let (replay_ms, replay_iters) = replay;
    report.metric("dtm.steps", steps_run, "count");
    report.metric("dtm.throttle_events", throttles as f64, "count");
    report.metric("dtm.checkpoints", checkpoints, "count");
    report.metric("adaptive.solves", solves as f64, "count");
    report.metric("adaptive.rejects", rejects as f64, "count");
    report.metric(
        "transient.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    report.metric(
        "dtm.overhead_ms_per_step",
        (fixed_ms - replay_ms) / steps,
        "ms",
    );
    Ok(CaseLayers {
        solve_calls: calls,
        cg_iters: iters,
        replay_ms_per_iter: replay_ms / replay_iters.max(1) as f64,
        coverage: replay_ms / fixed_ms,
    })
}

/// The dtm and transient layers for a workload that does not drive
/// them: the seed's first case on its own `dtm_control` system.
pub fn foreign_layers(
    args: &Args,
    reference: &Reference,
    report: &mut Report,
) -> Result<(), String> {
    let s = sizes(args.tiny);
    let system = build_system(&s)?;
    let dir = WorkDir::new("dtm_layers").map_err(|e| e.to_string())?;
    case_layers(
        &system,
        Cases::new(args.seed).next(),
        &s,
        &dir,
        reference,
        report,
    )?;
    layers::transient_layers(args.tiny, &system, report)
}

/// Counters read around the window, in this order.
const COUNTERS: [Counter; 6] = [
    Counter::DtmSteps,
    Counter::CheckpointsWritten,
    Counter::SolveCalls,
    Counter::CgIterations,
    Counter::TransientCacheHits,
    Counter::TransientCacheMisses,
];

/// Runs every (application, GHz, stepping) triple once.
pub fn generate_reference(tiny: bool) -> Result<(String, Section), String> {
    let s = sizes(tiny);
    let system = build_system(&s)?;
    let mut section = Section::default();
    for app in Benchmark::ALL {
        for ghz in GHZ {
            for adaptive in [false, true] {
                let op = Op { app, ghz, adaptive };
                let (o, t) = timed(|| run_op(&system, op, &s, None));
                section.put(op.key(s.grid), &o?.values);
                eprintln!("reference: {} {t:.1} ms", op.key(s.grid));
            }
        }
    }
    Ok(("dtm_control".to_string(), section))
}
