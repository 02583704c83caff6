//! `serve_mixed`: an in-process `Server` (default config: 2 workers,
//! fsync on) fed open-loop by one generator thread.
//!
//! Sessions arrive at seeded uniform-order-statistic times (a Poisson
//! process conditioned on its count) from a few tenants: about half run
//! the paper scenario (one shared 32² model, GMG), the rest the other
//! valid corpus files (small distinct models, AMG, a model build each),
//! and a small share are invalid sources that admission must reject.
//! The generator drains every live session's output after each tick.
//! Latency runs from each arrival's due time.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xylem_obs::json::{self, Value};
use xylem_obs::metrics::{counter, Counter};
use xylem_serve::{Server, ServerConfig, Submission, SubmitParams};
use xylem_thermal::{SolverWorkspace, TemperatureField};

use crate::common::{self, median, percentile, Report, Rng, Tracer, WorkDir};
use crate::layers;
use crate::reference::{self, Reference};
use crate::Args;

/// Arrival rate, sessions per second: about 30% of the 19.5 sessions/s
/// the default server sustained on this mix, saturated, at the commit
/// that defined the benchmark (2-core host). Low enough that a slower
/// host does not tip the queue into overload.
pub const RATE_PER_S: f64 = 6.0;
/// Conductance digest of `xylem-paper.stk`, locked by the scenario
/// conformance suite.
const PAPER_DIGEST: u64 = 0x080f_3f62_a37f_105c;
const TENANTS: usize = 4;
const STEPS: [u32; 4] = [4, 8, 12, 16];
const FRAME_EVERY: u32 = 4;
const POWER_SCALES: [f64; 5] = [0.8, 0.9, 1.0, 1.1, 1.2];
const DT_S: f64 = 1e-3;
const INVALID_SHARE: f64 = 0.05;
const PAPER_SHARE: f64 = 0.5;
const SETUP_REPS: usize = 3;

/// One arrival of the open-loop schedule.
#[derive(Debug, Clone)]
struct Arrival {
    due_s: f64,
    tenant: String,
    /// Index into the source list; invalid sources come after valid ones.
    source: usize,
    steps: u32,
    scale: usize,
}

struct Sources {
    /// Valid sources first (index 0 is the paper scenario), then invalid.
    texts: Vec<String>,
    names: Vec<String>,
    n_valid: usize,
}

fn read_dir_sorted(dir: &str) -> Result<Vec<PathBuf>, String> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "stk"))
        .collect();
    out.sort();
    Ok(out)
}

fn load_sources() -> Result<Sources, String> {
    let mut valid = read_dir_sorted("scenarios/valid")?;
    let paper = valid
        .iter()
        .position(|p| p == Path::new(layers::PAPER_STK))
        .ok_or("the paper scenario is missing")?;
    let paper = valid.remove(paper);
    valid.insert(0, paper);
    let n_valid = valid.len();
    let invalid = read_dir_sorted("scenarios/invalid")?;
    let mut texts = Vec::new();
    let mut names = Vec::new();
    for p in valid.iter().chain(&invalid) {
        texts.push(std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?);
        names.push(p.display().to_string());
    }
    if n_valid < 2 || invalid.is_empty() {
        return Err("the scenario corpus is incomplete".into());
    }
    Ok(Sources {
        texts,
        names,
        n_valid,
    })
}

/// The open-loop schedule: `round(rate × seconds)` arrival times drawn
/// uniformly over the window (a Poisson process conditioned on its
/// count). The mix is dealt, not drawn: exact shares of invalid, paper
/// and other sources (each corpus file in turn), of step counts and of
/// power scales, handed to the arrivals in a seeded order, so every seed
/// runs the same mix at different times.
fn schedule(seed: u64, seconds: f64, rate: f64, src: &Sources) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 3);
    let n = ((rate * seconds).round() as usize).max(1);
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let n_invalid = (n as f64 * INVALID_SHARE).round() as usize;
    let n_paper = ((n - n_invalid) as f64 * PAPER_SHARE).round() as usize;
    let n_other_files = src.n_valid - 1;
    let n_invalid_files = src.texts.len() - src.n_valid;
    let mut sources: Vec<usize> = (0..n)
        .map(|i| {
            if i < n_invalid {
                src.n_valid + i % n_invalid_files
            } else if i < n_invalid + n_paper {
                0
            } else {
                1 + (i - n_invalid - n_paper) % n_other_files
            }
        })
        .collect();
    let mut steps: Vec<u32> = (0..n).map(|i| STEPS[i % STEPS.len()]).collect();
    let mut scales: Vec<usize> = (0..n).map(|i| i % POWER_SCALES.len()).collect();
    rng.shuffle(&mut sources);
    rng.shuffle(&mut steps);
    rng.shuffle(&mut scales);
    times
        .into_iter()
        .enumerate()
        .map(|(i, due_s)| Arrival {
            due_s,
            tenant: format!("t{}", rng.below(TENANTS)),
            source: sources[i],
            steps: steps[i],
            scale: scales[i],
        })
        .collect()
}

fn params(a: &Arrival) -> SubmitParams {
    SubmitParams {
        steps: a.steps,
        dt_s: DT_S,
        frame_every: FRAME_EVERY,
        power_scale: POWER_SCALES[a.scale],
        ..SubmitParams::default()
    }
}

/// The generator's view of one admitted session.
#[derive(Debug)]
struct Live {
    arrival: usize,
    first_frame_s: Option<f64>,
    last_hot_c: Option<f64>,
    frames: u32,
}

/// Checks the paper scenario still compiles to the locked operator and
/// node count; returns the mismatches. Fails only when the scenario
/// cannot be read or built at all.
fn check_paper_digest(reference: &Reference) -> Result<Vec<String>, String> {
    let (model, _) = layers::paper_scenario()?;
    let digest = xylem_scenario::digest::conductance_digest(&model);
    let mut diffs = reference::compare(
        reference,
        "serve_mixed",
        "paper_stk_nodes",
        &[model.node_count() as f64],
        &[0.0],
    );
    if digest != PAPER_DIGEST {
        diffs.push(format!(
            "{} conductance digest {digest:016x}, expected {PAPER_DIGEST:016x}",
            layers::PAPER_STK
        ));
    }
    Ok(diffs)
}

fn open_server(dir: &WorkDir, k: usize) -> Result<Server, String> {
    let (server, _) = Server::open(ServerConfig::new(dir.sub(&format!("spool-{k}"))))
        .map_err(|e| e.to_string())?;
    Ok(server)
}

pub fn run(
    args: &Args,
    started: Instant,
    reference: &Reference,
    report: &mut Report,
) -> Result<(), String> {
    run_window(args, started, reference, report, false)
}

/// The serve and scenario layers alone, from a traced window a third as
/// long as the run's (at least one second), for another workload's
/// traced run.
pub fn serve_layers(args: &Args, reference: &Reference, report: &mut Report) -> Result<(), String> {
    let short = Args {
        seconds: (args.seconds / 3.0).max(1.0),
        trace: true,
        ..args.clone()
    };
    run_window(&short, Instant::now(), reference, report, true)
}

/// One `serve_mixed` run; `embedded` leaves out what the enclosing traced
/// run reports itself (coverage, shared stepping, the common layers and
/// the tracing overhead).
fn run_window(
    args: &Args,
    started: Instant,
    reference: &Reference,
    report: &mut Report,
    embedded: bool,
) -> Result<(), String> {
    let rate = if args.tiny { 20.0 } else { RATE_PER_S };
    let mut setup_s = Vec::new();
    let mut first = None;
    for k in 0..SETUP_REPS {
        let t = Instant::now();
        let dir = WorkDir::new(&format!("serve_mixed-{k}")).map_err(|e| e.to_string())?;
        let server = open_server(&dir, k)?;
        let sources = load_sources()?;
        let arrivals = schedule(args.seed, args.seconds, rate, &sources);
        let paper_diffs = check_paper_digest(reference)?;
        let mut elapsed = t.elapsed().as_secs_f64();
        if k == 0 {
            elapsed += (t - started).as_secs_f64();
            first = Some((dir, server, sources, arrivals, paper_diffs));
        } else {
            server.shutdown();
        }
        setup_s.push(elapsed);
    }
    let (dir, mut server, sources, arrivals, paper_diffs) = first.ok_or("no setup")?;
    // The exact checks on the paper scenario count as one operation.
    report.op(paper_diffs.is_empty());
    for d in paper_diffs {
        report.mismatch(d);
    }
    report.context("arrival_rate_per_s", rate);
    report.context("spool_fs", common::filesystem_of(dir.path()));

    let mut tracer = args.trace.then(Tracer::default);
    let c0: Vec<u64> = SERVE_COUNTERS.iter().map(|&c| counter(c)).collect();
    let mut live: BTreeMap<u64, Live> = BTreeMap::new();
    let mut done: Vec<(u64, Live, f64)> = Vec::new();
    let mut lag_ms = Vec::new();
    let mut shared_at_submit = 0usize;
    let mut admitted_valid = 0usize;
    let (mut rejected_invalid, mut rejected_valid) = (0usize, 0usize);
    let mut slices = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds * 3.0 + 30.0);
    let start = Instant::now();
    let mut next = 0usize;
    loop {
        let now = start.elapsed().as_secs_f64();
        while next < arrivals.len() && arrivals[next].due_s <= now {
            let a = &arrivals[next];
            lag_ms.push((start.elapsed().as_secs_f64() - a.due_s) * 1e3);
            let shared = live
                .values()
                .any(|l| arrivals[l.arrival].source == a.source);
            let text = &sources.texts[a.source];
            let res = match tracer.as_mut() {
                Some(tr) => tr.span("serve.submit", || {
                    server.submit(&a.tenant, text, &params(a))
                }),
                None => server.submit(&a.tenant, text, &params(a)),
            };
            let valid = a.source < sources.n_valid;
            match (res, valid) {
                (Ok(Submission::Admitted(id)), true) => {
                    admitted_valid += 1;
                    shared_at_submit += usize::from(shared);
                    live.insert(
                        id,
                        Live {
                            arrival: next,
                            first_frame_s: None,
                            last_hot_c: None,
                            frames: 0,
                        },
                    );
                }
                (Ok(Submission::Rejected(r)), false) if !r.is_transient() => {
                    rejected_invalid += 1;
                    report.op(true);
                }
                (Ok(Submission::Rejected(r)), true) => {
                    rejected_valid += 1;
                    report.mismatch(format!("{}: refused: {r:?}", sources.names[a.source]));
                    report.op(false);
                }
                (other, _) => {
                    report.mismatch(format!(
                        "{}: unexpected admission {other:?}",
                        sources.names[a.source]
                    ));
                    report.op(false);
                }
            }
            next += 1;
        }
        if live.is_empty() {
            if next >= arrivals.len() {
                break;
            }
            let wait = arrivals[next].due_s - start.elapsed().as_secs_f64();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            continue;
        }
        if start.elapsed() > budget {
            break;
        }
        let applied = match tracer.as_mut() {
            Some(tr) => tr.span("serve.tick", || server.tick()),
            None => server.tick(),
        }
        .map_err(|e| format!("tick failed: {e}"))?;
        slices.push(applied as f64);
        // Drain every live session, like a well-behaved client.
        let now = start.elapsed().as_secs_f64();
        let ids: Vec<u64> = live.keys().copied().collect();
        for id in ids {
            let mut finished = None;
            for line in server.drain_output(id) {
                let Ok(v) = json::parse(&line) else {
                    report.mismatch(format!("session {id}: unparsable line {line}"));
                    continue;
                };
                let Some(l) = live.get_mut(&id) else { break };
                match v.get("record").and_then(Value::as_str) {
                    Some("frame") => {
                        l.first_frame_s.get_or_insert(now);
                        l.last_hot_c = v.get("hot_c").and_then(Value::as_f64);
                        l.frames += 1;
                    }
                    Some("event") => match v.get("kind").and_then(Value::as_str) {
                        Some("done") => finished = Some(true),
                        Some("quarantined") => finished = Some(false),
                        _ => {}
                    },
                    _ => {}
                }
            }
            match finished {
                Some(true) => {
                    if let Some(l) = live.remove(&id) {
                        done.push((id, l, now));
                    }
                }
                Some(false) => {
                    live.remove(&id);
                    report.mismatch(format!("session {id} quarantined"));
                    report.op(false);
                }
                None => {}
            }
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    for (id, l) in &live {
        report.mismatch(format!(
            "session {id} ({}) unfinished",
            sources.names[arrivals[l.arrival].source]
        ));
        report.op(false);
    }
    let c1: Vec<u64> = SERVE_COUNTERS
        .iter()
        .zip(&c0)
        .map(|(&c, &b)| counter(c) - b)
        .collect();
    let spool_bytes = common::dir_bytes(server.spool_dir());
    server.shutdown();
    // Before the replay, which builds models of its own.
    let peak_rss = common::peak_rss_mb();

    // Outside the window: replay every completed session directly, one
    // trajectory per (source, power scale).
    let mut replays: BTreeMap<(usize, usize), Result<Vec<f64>, String>> = BTreeMap::new();
    let mut latency = Vec::new();
    let mut first_frame = Vec::new();
    let mut sim_s = 0.0;
    for (id, l, done_s) in &done {
        let a = &arrivals[l.arrival];
        latency.push((done_s - a.due_s) * 1e3);
        first_frame.push((l.first_frame_s.unwrap_or(*done_s) - a.due_s) * 1e3);
        sim_s += f64::from(a.steps) * DT_S;
        let want = replays
            .entry((a.source, a.scale))
            .or_insert_with(|| replay(&sources, a.source, a.scale))
            .as_ref()
            .ok()
            .and_then(|t| t.get((a.steps / FRAME_EVERY) as usize - 1).copied());
        let ok = match (want, l.last_hot_c) {
            (Some(want), Some(got)) if (want - got).abs() <= 1e-9 * want.abs().max(1.0) => {
                l.frames == a.steps / FRAME_EVERY
            }
            (want, got) => {
                report.mismatch(format!(
                    "session {id} ({}): last hot_c {got:?}, replay {want:?}",
                    sources.names[a.source]
                ));
                false
            }
        };
        report.op(ok);
    }

    let n = latency.len();
    if let Some(mut tr) = tracer {
        let window_spans = tr.count();
        let submit = tr.samples("serve.submit");
        let tick = tr.samples("serve.tick");
        let drained: f64 = submit.iter().chain(&tick).sum();
        report.stat("serve.submit_ms.p50", median(&submit), "ms", submit.len());
        report.stat(
            "serve.submit_ms.p99",
            percentile(&submit, 0.99),
            "ms",
            submit.len(),
        );
        report.stat("serve.tick_ms.p50", median(&tick), "ms", tick.len());
        report.stat(
            "serve.tick_ms.p99",
            percentile(&tick, 0.99),
            "ms",
            tick.len(),
        );
        report.stat(
            "serve.slices_per_tick",
            median(&slices),
            "count",
            slices.len(),
        );
        report.metric(
            "serve.model_share",
            shared_at_submit as f64 / admitted_valid.max(1) as f64,
            "ratio",
        );
        report.metric("serve.admitted", c1[0] as f64, "count");
        report.metric("serve.rejected_invalid", rejected_invalid as f64, "count");
        report.metric(
            "serve.rejected_backpressure",
            rejected_valid as f64,
            "count",
        );
        report.metric("serve.completed", c1[1] as f64, "count");
        report.metric("serve.quarantined", c1[2] as f64, "count");
        report.metric("serve.frames", c1[3] as f64, "count");
        report.metric("serve.sheds", c1[4] as f64, "count");
        report.metric("serve.spool_bytes", spool_bytes as f64, "B");
        report.stat(
            "loadgen.lag_p99_ms",
            percentile(&lag_ms, 0.99),
            "ms",
            lag_ms.len(),
        );
        scenario_layers(&sources, args.tiny, &mut tr, report)?;
        if !embedded {
            report.metric("trace.span_coverage", drained / (window_s * 1e3), "ratio");
            let (model, power) = layers::paper_scenario()?;
            layers::shared_scaling(args.tiny, &model, &power, report)?;
            layers::common_layers(args.tiny, &mut tr, report)?;
            layers::trace_overhead(window_spans, window_s, report);
        }
    } else {
        report.stat("setup_s", median(&setup_s), "s", setup_s.len());
        report.stat("ops_per_s", n as f64 / window_s, "1/s", n);
        report.stat("latency_p50_ms", median(&latency), "ms", n);
        // At 6 sessions/s a 30 s run has about 170 sessions: p90 leaves
        // 17 beyond it, p95 fewer than ten.
        report.stat("latency_p90_ms", percentile(&latency, 0.90), "ms", n);
        report.stat(
            "first_frame_p90_ms",
            percentile(&first_frame, 0.90),
            "ms",
            n,
        );
        report.metric("sim_s_per_host_s", sim_s / window_s, "s/s");
        report.metric("peak_rss_mb", peak_rss, "MB");
        report.context("loadgen_lag_p99_ms", percentile(&lag_ms, 0.99));
    }
    Ok(())
}

/// Counters read around the window, in this order.
const SERVE_COUNTERS: [Counter; 5] = [
    Counter::ServeAdmitted,
    Counter::ServeSessionsCompleted,
    Counter::ServeSessionsQuarantined,
    Counter::ServeFramesEmitted,
    Counter::ServeSlowClientSheds,
];

/// Scenario layer: compile time of each valid source and rejection time
/// of each invalid one.
fn scenario_layers(
    sources: &Sources,
    tiny: bool,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let reps = if tiny { 1 } else { 5 };
    for _ in 0..reps {
        for (i, text) in sources.texts.iter().enumerate() {
            let valid = i < sources.n_valid;
            let name = if valid {
                "scenario.compile"
            } else {
                "scenario.reject"
            };
            let ok = tr.span(name, || xylem_scenario::compile(text)).is_ok();
            if ok != valid {
                return Err(format!("{}: compile verdict changed", sources.names[i]));
            }
        }
    }
    let compile = tr.samples("scenario.compile");
    let reject = tr.samples("scenario.reject");
    report.stat("scenario.compile_ms", median(&compile), "ms", compile.len());
    report.stat("scenario.reject_ms", median(&reject), "ms", reject.len());
    Ok(())
}

/// A direct `transient_with` replay of `source` at power scale `scale`,
/// sliced as the server slices: the hotspot after each slice of the
/// longest session length.
fn replay(sources: &Sources, source: usize, scale: usize) -> Result<Vec<f64>, String> {
    let lowered = xylem_scenario::compile(&sources.texts[source]).map_err(|e| e.to_string())?;
    let (model, mut power) =
        xylem_scenario::discretize_with_power(&lowered).map_err(|e| e.to_string())?;
    power.scale(POWER_SCALES[scale]);
    let mut field = TemperatureField::uniform(&model, model.ambient());
    let mut hot = Vec::new();
    let max_steps = STEPS.iter().copied().max().unwrap_or(0);
    for _ in 0..max_steps / FRAME_EVERY {
        let mut ws = SolverWorkspace::new();
        field = model
            .transient_with(&power, &field, DT_S, FRAME_EVERY as usize, None, &mut ws)
            .map_err(|e| e.to_string())?;
        hot.push(field.global_hotspot().2.get());
    }
    Ok(hot)
}

/// The paper scenario's node count, for the exact check.
pub fn generate_reference() -> Result<(String, reference::Section), String> {
    let (model, _) = layers::paper_scenario()?;
    let mut section = reference::Section::default();
    section.put("paper_stk_nodes".into(), &[model.node_count() as f64]);
    Ok(("serve_mixed".to_string(), section))
}
