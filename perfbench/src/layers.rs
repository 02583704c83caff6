//! Per-layer measurements shared by the traced runs: stack and model
//! build, preconditioner setup, kernels, transient stepping, and the
//! child-process probes (thread-count speedup, model memory).

use std::process::Command;

use xylem::dtm::dvfs_power_maps;
use xylem::response::ThermalResponse;
use xylem::system::XylemSystem;
use xylem_obs::metrics::{counter, Counter};
use xylem_stack::{StackConfig, XylemScheme};
use xylem_thermal::grid::GridSpec;
use xylem_thermal::solve::Preconditioner;
use xylem_thermal::{
    PowerMap, PreconditionerKind, SolverWorkspace, TemperatureField, ThermalModel,
};
use xylem_workloads::Benchmark;

use crate::common::{self, median, timed, Report, Tracer};

/// Grids the model layer is measured at: the DTM transient grid, the
/// paper scenario's grid, and the paper's steady grid.
const MODEL_GRIDS: [usize; 3] = [24, 32, 64];
/// The paper's transient control period, s.
const DT_S: f64 = 1e-3;
pub const PAPER_STK: &str = "scenarios/valid/xylem-paper.stk";

fn paper_model(grid: usize) -> Result<ThermalModel, String> {
    let built = StackConfig::paper_default(XylemScheme::BankEnhanced)
        .build()
        .map_err(|e| e.to_string())?;
    built
        .stack()
        .discretize(GridSpec::new(grid, grid))
        .map_err(|e| e.to_string())
}

fn build_preconditioner(model: &ThermalModel) -> Preconditioner {
    let g = model.grid();
    let layers = 3 + model.n_user_layers();
    match model.solver_options().preconditioner {
        PreconditionerKind::Gmg => Preconditioner::build_gmg(model.csr(), g.nx(), g.ny(), layers)
            .unwrap_or_else(|| Preconditioner::build(model.csr(), PreconditionerKind::Amg)),
        kind => Preconditioner::build(model.csr(), kind),
    }
}

/// Stack, model and kernel layers, measured the same way in every
/// traced run.
pub fn common_layers(tiny: bool, tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let reps = if tiny { 1 } else { 2 };
    for _ in 0..reps {
        for scheme in XylemScheme::ALL {
            tr.span("stack.build", || StackConfig::paper_default(scheme).build())
                .map_err(|e| e.to_string())?;
        }
    }
    let stack = tr.samples("stack.build");
    report.stat("stack.build_ms", median(&stack), "ms", stack.len());

    let builds = if tiny { 1 } else { 3 };
    for grid in MODEL_GRIDS {
        let mut build = Vec::new();
        let mut setup = Vec::new();
        let mut model = None;
        for _ in 0..builds {
            let (m, t) = timed(|| paper_model(grid));
            build.push(t);
            let m = m?;
            let (_, t) = timed(|| build_preconditioner(&m));
            setup.push(t);
            model = Some(m);
        }
        let model = model.ok_or("no model")?;
        report.stat(
            format!("model.build_ms.g{grid}"),
            median(&build),
            "ms",
            build.len(),
        );
        report.stat(
            format!("model.precond_setup_ms.g{grid}"),
            median(&setup),
            "ms",
            setup.len(),
        );
        report.metric(
            format!("model.nodes.g{grid}"),
            model.node_count() as f64,
            "count",
        );
        report.metric(
            format!("model.nnz.g{grid}"),
            model.csr().nnz() as f64,
            "count",
        );
    }
    report.metric(
        "model.rss_delta_mb",
        child_probe("model-rss", 64, &[])?,
        "MB",
    );
    kernel_layers(tiny, report)
}

/// Matvec and V-cycle kernels at the paper grid.
fn kernel_layers(tiny: bool, report: &mut Report) -> Result<(), String> {
    let model = paper_model(64)?;
    let a = model.csr();
    let n = a.n();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect();
    let mut y = vec![0.0; n];
    let reps = if tiny { 5 } else { 40 };
    let stencil = model.stencil().ok_or("the 64x64 model has no stencil")?;
    let stencil_ms: Vec<f64> = (0..reps)
        .map(|_| timed(|| stencil.matvec(std::hint::black_box(&x), &mut y)).1)
        .collect();
    let csr_ms: Vec<f64> = (0..reps)
        .map(|_| timed(|| a.matvec(std::hint::black_box(&x), &mut y)).1)
        .collect();
    let prec = build_preconditioner(&model);
    let mut z = vec![0.0; n];
    let vcycle_ms: Vec<f64> = (0..reps / 2)
        .map(|_| timed(|| prec.apply_timed(a, std::hint::black_box(&x), &mut z)).1)
        .collect();
    std::hint::black_box((&y, &z));

    // Bytes computed from array sizes (seven coefficient planes, x and
    // y), not measured traffic: cache reuse of x is ignored.
    let matvec_ms = median(&stencil_ms);
    let bytes = (9 * 8 * stencil.n()) as f64;
    report.stat("kernel.matvec_ms", matvec_ms, "ms", stencil_ms.len());
    report.stat("kernel.csr_matvec_ms", median(&csr_ms), "ms", csr_ms.len());
    report.stat(
        "kernel.vcycle_ms",
        median(&vcycle_ms),
        "ms",
        vcycle_ms.len(),
    );
    report.metric("kernel.matvec_bytes_computed", bytes, "B");
    report.metric("kernel.matvec_gbps", bytes / (matvec_ms * 1e6), "GB/s");
    Ok(())
}

/// Steps `steps` backward-Euler steps on `model`, returning the
/// per-step times and the CG iterations they took.
pub fn step_times(
    model: &ThermalModel,
    power: &PowerMap,
    steps: usize,
) -> Result<(Vec<f64>, u64), String> {
    let mut ws = SolverWorkspace::new();
    let mut field = TemperatureField::uniform(model, model.ambient());
    let iters0 = counter(Counter::CgIterations);
    let mut times = Vec::with_capacity(steps);
    for _ in 0..steps {
        let (next, t) = timed(|| model.transient_with(power, &field, DT_S, 1, None, &mut ws));
        field = next.map_err(|e| e.to_string())?;
        times.push(t);
    }
    Ok((times, counter(Counter::CgIterations) - iters0))
}

/// The paper scenario's model and power map (what serve sessions of
/// `xylem-paper.stk` share).
pub fn paper_scenario() -> Result<(ThermalModel, PowerMap), String> {
    let source = std::fs::read_to_string(PAPER_STK).map_err(|e| format!("{PAPER_STK}: {e}"))?;
    let lowered = xylem_scenario::compile(&source).map_err(|e| e.to_string())?;
    xylem_scenario::discretize_with_power(&lowered).map_err(|e| e.to_string())
}

/// Transient layer: step cost at 24² (AMG) and on the 32² paper
/// scenario (GMG), the operator build, and shared-model scaling.
pub fn transient_layers(
    tiny: bool,
    system: &XylemSystem,
    report: &mut Report,
) -> Result<(), String> {
    let steps = if tiny { 5 } else { 60 };
    let model = system
        .built()
        .stack()
        .discretize(GridSpec::new(24, 24))
        .map_err(|e| e.to_string())?;
    let (_, maps) =
        dvfs_power_maps(system, Benchmark::ALL[0], 3.5, &model).map_err(|e| e.to_string())?;
    let power = maps.last().ok_or("no power map")?;
    // The first step on a fresh model builds the cached operator.
    let (first, rest) = step_times(&model, power, steps + 1)?
        .0
        .split_first()
        .map(|(f, r)| (*f, r.to_vec()))
        .ok_or("no steps")?;
    let (_, iters24) = step_times(&model, power, steps)?;
    report.stat("transient.op_build_ms", first, "ms", 1);
    report.stat("transient.step_ms.g24", median(&rest), "ms", rest.len());
    report.metric(
        "transient.iters_per_step.g24",
        iters24 as f64 / steps as f64,
        "count",
    );

    let (paper, paper_power) = paper_scenario()?;
    step_times(&paper, &paper_power, 1)?;
    let (t32, iters32) = step_times(&paper, &paper_power, steps)?;
    report.stat("transient.step_ms.g32", median(&t32), "ms", t32.len());
    report.metric(
        "transient.iters_per_step.g32",
        iters32 as f64 / steps as f64,
        "count",
    );
    shared_scaling(tiny, &paper, &paper_power, report)
}

/// Step throughput of two threads stepping on one shared model, over
/// that of one thread.
pub fn shared_scaling(
    tiny: bool,
    model: &ThermalModel,
    power: &PowerMap,
    report: &mut Report,
) -> Result<(), String> {
    let steps = if tiny { 5 } else { 40 };
    step_times(model, power, 1)?;
    let (one, t1) = timed(|| step_times(model, power, steps));
    one?;
    let (two, t2) = timed(|| {
        std::thread::scope(|s| {
            let a = s.spawn(|| step_times(model, power, steps));
            let b = s.spawn(|| step_times(model, power, steps));
            [a.join(), b.join()]
        })
    });
    for r in two {
        r.map_err(|_| "stepping thread panicked")??;
    }
    report.metric("transient.shared_scaling", (2.0 * t1) / t2, "ratio");
    Ok(())
}

/// Runs this binary as a child process with `--probe name --grid g` and
/// the extra environment, and returns the number it prints last.
fn child_probe(name: &str, grid: usize, env: &[(&str, &str)]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--probe", name, "--grid", &grid.to_string()]);
    cmd.env_remove("RAYON_NUM_THREADS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().map_err(|e| format!("probe {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "probe {name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| format!("probe {name} printed no number"))
}

/// Response-build time with one rayon thread over that with the default
/// pool, each in its own process.
pub fn parallel_speedup(grid: usize) -> Result<f64, String> {
    let serial = child_probe("response-build", grid, &[("RAYON_NUM_THREADS", "1")])?;
    let default = child_probe("response-build", grid, &[])?;
    Ok(serial / default)
}

/// Child-process entry points (`--probe`), each printing one number.
pub fn probe(name: &str, grid: usize) -> Result<(), String> {
    match name {
        "response-build" => {
            let built = StackConfig::paper_default(XylemScheme::BankEnhanced)
                .build()
                .map_err(|e| e.to_string())?;
            let (r, t) = timed(|| ThermalResponse::compute(&built, GridSpec::new(grid, grid)));
            r.map_err(|e| e.to_string())?;
            println!("{t}");
        }
        "model-rss" => {
            let before = common::rss_mb();
            let model = paper_model(grid)?;
            let after = common::rss_mb();
            std::hint::black_box(&model);
            println!("{}", after - before);
        }
        other => return Err(format!("unknown probe '{other}'")),
    }
    Ok(())
}

/// Tracing overhead: the spans recorded in the timed window times the
/// measured cost of one span, as a share of the window.
pub fn trace_overhead(window_spans: usize, window_s: f64, report: &mut Report) {
    let cost_ms = Tracer::per_span_cost_ms();
    report.metric(
        "obs.trace_overhead_pct",
        100.0 * window_spans as f64 * cost_ms / (window_s * 1e3),
        "%",
    );
}
