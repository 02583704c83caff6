//! `design_sweep`: a cold design-space sweep on the paper's grid.
//!
//! Each operation is one `run_sweep` call with one shard over one stack
//! configuration (scheme × DRAM die thickness × pillar footprint) that
//! is new to this run, covering every application at a few DVFS points.
//! Its response cache and journal live in a fresh directory, so the 91
//! unit solves and the cache write are paid as a user pays them.

use std::time::Instant;

use xylem::response::ThermalResponse;
use xylem::system::{SystemConfig, XylemSystem};
use xylem_obs::metrics::{counter, Counter};
use xylem_stack::XylemScheme;
use xylem_sweep::{run_sweep, SweepOptions, SweepReport, SweepSpec, TaskSpec};
use xylem_thermal::grid::GridSpec;
use xylem_workloads::Benchmark;

use crate::common::{self, median, percentile, timed, Report, Rng, Tracer, WorkDir};
use crate::layers;
use crate::reference::{self, Reference, Section, POWER_TOL_W, TEMP_TOL_C};
use crate::Args;

const THICKNESS_UM: [f64; 2] = [50.0, 100.0];
const PILLAR_UM: [f64; 2] = [300.0, 450.0];
const SETUP_REPS: usize = 5;
/// Operations take 10-20 s each, so a run always completes at least three:
/// the median of three ignores one slow configuration.
const MIN_OPS: usize = 3;

/// A stack configuration: scheme, DRAM die thickness (µm), pillar
/// footprint (µm).
type Config = (XylemScheme, f64, f64);

struct Sizes {
    grid: usize,
    apps: Vec<Benchmark>,
    freqs: Vec<f64>,
    warmup_grid: usize,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            grid: 12,
            apps: Benchmark::ALL[..2].to_vec(),
            freqs: vec![3.0],
            warmup_grid: 8,
        }
    } else {
        Sizes {
            grid: 64,
            apps: Benchmark::ALL.to_vec(),
            freqs: vec![2.4, 3.0, 3.5],
            warmup_grid: 16,
        }
    }
}

/// Every stack configuration a seed can draw.
fn configs() -> Vec<Config> {
    let mut out = Vec::new();
    for scheme in XylemScheme::ALL {
        for t in THICKNESS_UM {
            for p in PILLAR_UM {
                out.push((scheme, t, p));
            }
        }
    }
    out
}

/// The seeded configuration order: passes over the schemes in a seeded
/// order, each scheme taking its next seeded (thickness, pillar) pair.
/// Every configuration is new to the run, and the first operations cover
/// distinct schemes, so one slow scheme cannot dominate a run's median.
fn draw_order(seed: u64) -> Vec<Config> {
    let mut rng = Rng::new(seed, 1);
    let mut geometry: Vec<Vec<(f64, f64)>> = XylemScheme::ALL
        .iter()
        .map(|_| {
            let mut g: Vec<(f64, f64)> = THICKNESS_UM
                .iter()
                .flat_map(|&t| PILLAR_UM.iter().map(move |&p| (t, p)))
                .collect();
            rng.shuffle(&mut g);
            g
        })
        .collect();
    let mut order = Vec::new();
    for _ in 0..THICKNESS_UM.len() * PILLAR_UM.len() {
        let mut schemes: Vec<usize> = (0..XylemScheme::ALL.len()).collect();
        rng.shuffle(&mut schemes);
        for i in schemes {
            if let Some((t, p)) = geometry[i].pop() {
                order.push((XylemScheme::ALL[i], t, p));
            }
        }
    }
    order
}

fn spec(cfg: Config, s: &Sizes) -> SweepSpec {
    SweepSpec {
        schemes: vec![cfg.0],
        benchmarks: s.apps.clone(),
        f_ghz: s.freqs.clone(),
        die_thickness_um: vec![cfg.1],
        pillar_footprint_um: vec![cfg.2],
        grid: s.grid,
        ..SweepSpec::default()
    }
}

fn options(dir: &WorkDir, k: usize) -> SweepOptions {
    SweepOptions {
        shards: 1,
        journal_path: Some(dir.sub(&format!("journal-{k}.jsonl"))),
        cache_dir: Some(dir.sub(&format!("cache-{k}"))),
        ..SweepOptions::default()
    }
}

fn task_key(grid: usize, key: &str) -> String {
    format!("g{grid}|{key}")
}

fn nodes_key(grid: usize, cfg: Config) -> String {
    format!("g{grid}|nodes|{}|die{}|pf{}", cfg.0.name(), cfg.1, cfg.2)
}

fn model_nodes(task: &TaskSpec, grid: usize) -> Result<usize, String> {
    let built = task
        .system_config(grid, None)
        .stack
        .build()
        .map_err(|e| e.to_string())?;
    let model = built
        .stack()
        .discretize(GridSpec::new(grid, grid))
        .map_err(|e| e.to_string())?;
    Ok(model.node_count())
}

/// Checks one sweep's report: every task ran and matches the reference.
fn check(
    res: &Result<SweepReport, xylem::XylemError>,
    expected_tasks: usize,
    grid: usize,
    reference: &Reference,
    report: &mut Report,
) -> bool {
    let r = match res {
        Ok(r) => r,
        Err(e) => {
            report.mismatch(format!("design_sweep: run_sweep failed: {e}"));
            return false;
        }
    };
    let mut ok = true;
    if r.total != expected_tasks || r.ok != expected_tasks || r.records.len() != expected_tasks {
        report.mismatch(format!(
            "design_sweep: {} tasks, {} ok, {} records; expected {expected_tasks}",
            r.total,
            r.ok,
            r.records.len()
        ));
        ok = false;
    }
    for rec in &r.records {
        let Some(t) = &rec.result else {
            report.mismatch(format!("design_sweep: task {} has no result", rec.key));
            ok = false;
            continue;
        };
        let got = [t.proc_hotspot_c, t.dram_hotspot_c, t.total_power_w];
        let tol = [TEMP_TOL_C, TEMP_TOL_C, POWER_TOL_W];
        let diffs = reference::compare(
            reference,
            "design_sweep",
            &task_key(grid, &rec.key),
            &got,
            &tol,
        );
        ok &= diffs.is_empty();
        for d in diffs {
            report.mismatch(d);
        }
    }
    ok
}

/// One setup: a fresh work directory, the seeded configuration order,
/// and a small warm-up sweep so lazy set-up (thread pool, page faults)
/// is paid before timing.
fn setup(args: &Args, s: &Sizes) -> Result<(WorkDir, Vec<Config>), String> {
    let dir = WorkDir::new("design_sweep").map_err(|e| e.to_string())?;
    let order = draw_order(args.seed);
    let warm = SweepSpec {
        schemes: vec![XylemScheme::BankEnhanced],
        benchmarks: vec![Benchmark::Cholesky],
        f_ghz: vec![2.4],
        grid: s.warmup_grid,
        ..SweepSpec::default()
    };
    run_sweep(&warm, &options(&dir, 0))
        .and_then(|r| r.require_complete())
        .map_err(|e| format!("warm-up sweep failed: {e}"))?;
    Ok((dir, order))
}

pub fn run(
    args: &Args,
    started: Instant,
    reference: &Reference,
    report: &mut Report,
) -> Result<(), String> {
    let s = sizes(args.tiny);
    // Set up several times; keep the first, report the median.
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    let t0 = Instant::now();
    let (dir, order) = setup(args, &s)?;
    setup_s[0] += t0.elapsed().as_secs_f64();
    for _ in 1..SETUP_REPS {
        let (r, t) = timed(|| setup(args, &s));
        drop(r?);
        setup_s.push(t / 1e3);
    }
    report.context("work_dir_fs", common::filesystem_of(dir.path()));

    let expected_tasks = s.apps.len() * s.freqs.len();
    let mut tracer = args.trace.then(Tracer::default);
    let mut latencies = Vec::new();
    // Exact counts of the first operation (the same on every run of a
    // seed): solver calls, CG iterations, sweep tasks, journal bytes.
    let mut first_op = [0u64; 4];
    let window = Instant::now();
    let mut k = 0;
    while k < order.len() && (k < MIN_OPS || window.elapsed().as_secs_f64() < args.seconds) {
        let sp = spec(order[k], &s);
        let opts = options(&dir, k + 1);
        let c0 = [counter(Counter::SolveCalls), counter(Counter::CgIterations)];
        let (res, elapsed) = timed(|| run_sweep(&sp, &opts));
        if let Some(tr) = tracer.as_mut() {
            tr.record("sweep.run", elapsed);
        }
        latencies.push(elapsed);
        if k == 0 {
            first_op = [
                counter(Counter::SolveCalls) - c0[0],
                counter(Counter::CgIterations) - c0[1],
                res.as_ref().map_or(0, |r| r.total as u64),
                opts.journal_path
                    .as_deref()
                    .map_or(0, |p| std::fs::metadata(p).map_or(0, |m| m.len())),
            ];
        }
        let ok = check(&res, expected_tasks, s.grid, reference, report);
        report.op(ok);
        k += 1;
    }
    let window_s = window.elapsed().as_secs_f64();

    // Exact check outside the window, counted as one more operation: the
    // node count of the first configuration's model.
    let first = spec(order[0], &s).tasks();
    let diffs = match model_nodes(&first[0], s.grid) {
        Ok(n) => reference::compare(
            reference,
            "design_sweep",
            &nodes_key(s.grid, order[0]),
            &[n as f64],
            &[0.0],
        ),
        Err(e) => vec![format!("design_sweep: node count: {e}")],
    };
    report.op(diffs.is_empty());
    for d in diffs {
        report.mismatch(d);
    }

    let n = latencies.len();
    if let Some(mut tr) = tracer {
        let window_spans = tr.count();
        let replay = trace_layers(args, &s, &dir, order[0], latencies[0], &mut tr, report)?;
        report.metric("solve.ms_per_iter", replay.ms_per_iter, "ms");
        report.metric("trace.span_coverage", replay.coverage, "ratio");
        let [calls, iters, tasks, journal] = first_op;
        report.metric("solve.calls", calls as f64, "count");
        report.metric("solve.cg_iters", iters as f64, "count");
        report.metric(
            "solve.iters_per_solve",
            iters as f64 / calls.max(1) as f64,
            "count",
        );
        report.metric("sweep.tasks", tasks as f64, "count");
        report.metric("sweep.journal_bytes", journal as f64, "B");
        layers::common_layers(args.tiny, &mut tr, report)?;
        layers::trace_overhead(window_spans, window_s, report);
        // The layers this workload does not drive: the dtm and transient
        // layers from the seed's first dtm_control case, and the serve
        // and scenario layers from a short serve_mixed window.
        crate::dtm_control::foreign_layers(args, reference, report)?;
        crate::serve_mixed::serve_layers(args, reference, report)?;
    } else {
        report.stat("setup_s", median(&setup_s), "s", setup_s.len());
        report.context("setup_s_samples", format!("{setup_s:.3?}"));
        report.stat("ops_per_s", n as f64 / window_s, "1/s", n);
        report.stat("latency_p50_ms", median(&latencies), "ms", n);
        report.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
        report.context("latency_max_ms", percentile(&latencies, 1.0));
        let ops: Vec<String> = order
            .iter()
            .zip(&latencies)
            .map(|(c, ms)| format!("{}/die{}/pf{}={ms:.0}", c.0.name(), c.1, c.2))
            .collect();
        report.context("op_latencies_ms", ops.join(" "));
    }
    Ok(())
}

/// The response, evaluate and sweep layers for a workload that does not
/// drive them: the seed's first configuration swept once, outside any
/// timed window, in its own directory. The sweep counts as one more
/// checked operation.
pub fn foreign_layers(
    args: &Args,
    reference: &Reference,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let s = sizes(args.tiny);
    let dir = WorkDir::new("sweep_layers").map_err(|e| e.to_string())?;
    let cfg = draw_order(args.seed)[0];
    let (res, op_ms) = timed(|| run_sweep(&spec(cfg, &s), &options(&dir, 1)));
    let ok = check(
        &res,
        s.apps.len() * s.freqs.len(),
        s.grid,
        reference,
        report,
    );
    report.op(ok);
    let r = res.map_err(|e| e.to_string())?;
    report.metric("sweep.tasks", r.total as f64, "count");
    report.metric(
        "sweep.journal_bytes",
        std::fs::metadata(dir.sub("journal-1.jsonl")).map_or(0, |m| m.len()) as f64,
        "B",
    );
    trace_layers(args, &s, &dir, cfg, op_ms, tr, report)?;
    Ok(())
}

/// What [`trace_layers`] measured that its callers report themselves.
struct Replay {
    ms_per_iter: f64,
    /// Share of the operation's wall time its replayed calls cover.
    coverage: f64,
}

/// Per-layer numbers for `design_sweep`: a direct-call replay of the
/// first operation's tasks (stack build, response build, evaluate) under
/// spans, the response cache paths, and the thread-count speedup.
fn trace_layers(
    args: &Args,
    s: &Sizes,
    dir: &WorkDir,
    cfg: Config,
    op_ms: f64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<Replay, String> {
    let tasks = spec(cfg, s).tasks();
    let config: SystemConfig = tasks[0].system_config(s.grid, None);
    let grid = GridSpec::new(s.grid, s.grid);
    let built = tr
        .span("replay.stack", || config.stack.build())
        .map_err(|e| e.to_string())?;
    let iters0 = counter(Counter::CgIterations);
    let response = tr
        .span("response.build", || ThermalResponse::compute(&built, grid))
        .map_err(|e| e.to_string())?;
    let iters = counter(Counter::CgIterations) - iters0;
    let build_ms = tr.samples("response.build")[0];

    // The response cache. The first operation stored this table in its
    // cache directory; load it warm through `load_or_compute`, and time
    // the store as the program performs it (serialize, then write).
    let cache = dir.sub("cache-1");
    let cache_bytes = common::dir_bytes(&cache);
    let mut loads = Vec::new();
    for _ in 0..3 {
        let (r, t) = timed(|| ThermalResponse::load_or_compute(&cache, &built, grid));
        r.map_err(|e| e.to_string())?;
        loads.push(t);
    }
    let scratch = dir.sub("store-probe.json");
    let (stored, store_ms) = timed(|| {
        serde_json::to_vec(&response)
            .map_err(|e| e.to_string())
            .and_then(|b| std::fs::write(&scratch, b).map_err(|e| e.to_string()))
    });
    stored?;

    // Evaluate every task on a system that loads the warm cache.
    let mut system = XylemSystem::new(SystemConfig {
        cache_dir: Some(cache.clone()),
        ..config
    })
    .map_err(|e| e.to_string())?;
    for t in &tasks {
        tr.span("evaluate", || system.evaluate_uniform(t.benchmark, t.f_ghz))
            .map_err(|e| e.to_string())?;
    }
    let eval = tr.samples("evaluate");
    let stack_ms = tr.samples("replay.stack")[0];
    let covered = stack_ms + build_ms + eval.iter().sum::<f64>();
    drop(response);

    report.stat("response.build_ms", build_ms, "ms", 1);
    report.stat("response.cache_store_ms", store_ms, "ms", 1);
    report.stat("response.cache_load_ms", median(&loads), "ms", loads.len());
    report.metric("response.cache_bytes", cache_bytes as f64, "B");
    report.stat("evaluate.us", median(&eval) * 1e3, "us", eval.len());
    report.metric("sweep.engine_overhead_ms", op_ms - covered, "ms");
    report.metric(
        "solve.parallel_speedup",
        layers::parallel_speedup(if args.tiny { 8 } else { 32 })?,
        "ratio",
    );
    Ok(Replay {
        ms_per_iter: build_ms / iters.max(1) as f64,
        coverage: covered / op_ms,
    })
}

/// Runs every configuration once and records its outputs.
pub fn generate_reference(tiny: bool) -> Result<(String, Section), String> {
    let s = sizes(tiny);
    let mut section = Section::default();
    for cfg in configs() {
        let sp = spec(cfg, &s);
        let opts = SweepOptions {
            shards: 1,
            ..SweepOptions::default()
        };
        let (r, t) = timed(|| run_sweep(&sp, &opts));
        let r = r.map_err(|e| e.to_string())?;
        r.require_complete().map_err(|e| e.to_string())?;
        for rec in &r.records {
            let t = rec.result.as_ref().ok_or("missing result")?;
            section.put(
                task_key(s.grid, &rec.key),
                &[t.proc_hotspot_c, t.dram_hotspot_c, t.total_power_w],
            );
        }
        let n = model_nodes(&sp.tasks()[0], s.grid)?;
        section.put(nodes_key(s.grid, cfg), &[n as f64]);
        eprintln!("reference: {} {t:.1} ms", nodes_key(s.grid, cfg));
    }
    Ok(("design_sweep".to_string(), section))
}
