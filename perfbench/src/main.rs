//! End-to-end and per-layer benchmark of the Xylem workspace.
//!
//! ```text
//! perfbench --workload design_sweep|dtm_control|serve_mixed
//!           --seed N --seconds S --trace 0|1 [--tiny] [--reference FILE]
//! perfbench --write-reference [--tiny] [--workload NAME]   # regenerate reference.json
//! ```
//!
//! Each workload generates its inputs from the seed, drives the program
//! only through its public functions, checks every output and prints one
//! line per metric followed by the result object as the last line of
//! standard output. `--trace 1` adds spans around the calls into each
//! layer and prints the per-layer metrics instead of the end-to-end ones.
//! `--tiny` shrinks every size so the whole run takes seconds (tests).

mod common;
mod design_sweep;
mod dtm_control;
mod layers;
mod reference;
mod serve_mixed;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use common::Report;
use reference::Reference;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub reference: PathBuf,
    pub write_reference: bool,
    pub probe: Option<String>,
    pub grid: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        reference: PathBuf::from("perfbench/reference.json"),
        write_reference: false,
        probe: None,
        grid: 32,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--reference" => args.reference = PathBuf::from(value()?),
            "--probe" => args.probe = Some(value()?),
            "--grid" => args.grid = value()?.parse().map_err(|e| format!("--grid: {e}"))?,
            "--tiny" => args.tiny = true,
            "--write-reference" => args.write_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn command_output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Machine and input facts every result is stamped with.
fn stamp(report: &mut Report, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    report.context("nproc", nproc);
    report.context(
        "git_rev",
        command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
    );
    report.context(
        "rustc",
        command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
    );
    report.context(
        "RAYON_NUM_THREADS",
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    report.context("workload", &args.workload);
    report.context("seed", args.seed);
    report.context("seconds", args.seconds);
    report.context("trace", u8::from(args.trace));
    report.context("tiny", args.tiny);
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    if let Some(probe) = &args.probe {
        return layers::probe(probe, args.grid);
    }
    if args.write_reference {
        // One workload's section, or all of them.
        let w = args.workload.as_str();
        let mut sections = Vec::new();
        if w.is_empty() || w == "dtm_control" {
            sections.push(dtm_control::generate_reference(args.tiny)?);
        }
        if w.is_empty() || w == "serve_mixed" {
            sections.push(serve_mixed::generate_reference()?);
        }
        if w.is_empty() || w == "design_sweep" {
            sections.push(design_sweep::generate_reference(args.tiny)?);
        }
        return reference::write_sections(&args.reference, sections);
    }
    let reference = Reference::load(&args.reference)?;
    let mut report = Report::default();
    stamp(&mut report, args);
    match args.workload.as_str() {
        "design_sweep" => design_sweep::run(args, started, &reference, &mut report)?,
        "dtm_control" => dtm_control::run(args, started, &reference, &mut report)?,
        "serve_mixed" => serve_mixed::run(args, started, &reference, &mut report)?,
        other => return Err(format!("unknown workload '{other}'")),
    }
    report.print();
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let result = parse_args().and_then(|args| run(&args, started));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
