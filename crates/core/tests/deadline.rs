//! Wall-clock deadlines on the DTM engine (`DtmRunConfig::deadline_ms`,
//! surfaced on the CLI as `--deadline-ms`).
//!
//! The contract mirrors the sweep engine's: an expired deadline aborts
//! the in-flight CG solve with a clean `DeadlineExceeded` error — never
//! a hang, never a partial panic — and a generous deadline changes
//! nothing about the result.

use xylem::dtm::{dtm_transient, dtm_transient_configured, DtmPolicy, DtmRunConfig};
use xylem::response::ThermalResponse;
use xylem::system::{SystemConfig, XylemSystem};
use xylem::XylemError;
use xylem_stack::{StackConfig, XylemScheme};
use xylem_thermal::grid::GridSpec;
use xylem_thermal::units::Celsius;
use xylem_thermal::{DeadlineGuard, ThermalError};
use xylem_workloads::Benchmark;

const GRID: usize = 12;

fn system() -> XylemSystem {
    let mut cfg = SystemConfig::fast(XylemScheme::BankEnhanced);
    cfg.cache_dir = Some(std::env::temp_dir().join("xylem-system-test-cache"));
    XylemSystem::new(cfg).unwrap()
}

fn policy() -> DtmPolicy {
    DtmPolicy {
        trip: Celsius::new(100.0),
        release: Celsius::new(98.0),
        control_period_s: 20e-3,
        ..DtmPolicy::paper_default()
    }
}

#[test]
fn expired_deadline_fails_cleanly_not_hangs() {
    let sys = system();
    let run = DtmRunConfig {
        deadline_ms: Some(0),
        ..DtmRunConfig::new(policy())
    };
    let err = dtm_transient_configured(
        &sys,
        Benchmark::Fft,
        3.4,
        0.4,
        &run,
        GridSpec::new(GRID, GRID),
    )
    .expect_err("a deadline already in the past must abort the run");
    match err {
        XylemError::Thermal(ThermalError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
}

#[test]
fn generous_deadline_matches_unbounded_run() {
    let sys = system();
    let duration = 0.2;
    let unbounded = dtm_transient(
        &sys,
        Benchmark::Fft,
        3.4,
        duration,
        &policy(),
        GridSpec::new(GRID, GRID),
    )
    .unwrap();
    let run = DtmRunConfig {
        deadline_ms: Some(600_000),
        ..DtmRunConfig::new(policy())
    };
    let bounded = dtm_transient_configured(
        &sys,
        Benchmark::Fft,
        3.4,
        duration,
        &run,
        GridSpec::new(GRID, GRID),
    )
    .unwrap();
    assert_eq!(unbounded.samples.len(), bounded.samples.len());
    for (a, b) in unbounded.samples.iter().zip(&bounded.samples) {
        assert_eq!(a.hotspot.get().to_bits(), b.hotspot.get().to_bits());
        assert_eq!(a.f_ghz.to_bits(), b.f_ghz.to_bits());
    }
    assert_eq!(unbounded.final_f_ghz, bounded.final_f_ghz);
}

#[test]
fn expired_guard_aborts_the_response_build() {
    // The unit solves run as chain tasks on pool threads; each must
    // inherit the caller's thread-local deadline, or the build would
    // ignore it and run to completion.
    let built = StackConfig::paper_default(XylemScheme::Base)
        .build()
        .unwrap();
    let _deadline = DeadlineGuard::install(std::time::Instant::now());
    let err = ThermalResponse::compute(&built, GridSpec::new(GRID, GRID))
        .expect_err("a deadline already in the past must abort the build");
    match err {
        XylemError::Thermal(ThermalError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
}

#[test]
fn generous_guard_leaves_the_response_build_unchanged() {
    // The chain tasks re-install the caller's deadline on the pool
    // threads; a deadline that never expires must change no bit.
    let built = StackConfig::paper_default(XylemScheme::Base)
        .build()
        .unwrap();
    let grid = GridSpec::new(GRID, GRID);
    let unbounded = ThermalResponse::compute(&built, grid).unwrap();
    let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
    let _deadline = DeadlineGuard::install(far);
    let bounded = ThermalResponse::compute(&built, grid).unwrap();
    // Every source contributes, so every row of both tables is read.
    let procs: Vec<f64> = (0..83).map(|i| 0.1 + 0.01 * i as f64).collect();
    let drams: Vec<f64> = (0..8).map(|i| 0.2 + 0.05 * i as f64).collect();
    let (pa, da) = unbounded.temperatures(&procs, &drams).unwrap();
    let (pb, db) = bounded.temperatures(&procs, &drams).unwrap();
    assert!(pa.iter().zip(&pb).all(|(a, b)| a.to_bits() == b.to_bits()));
    assert!(da.iter().zip(&db).all(|(a, b)| a.to_bits() == b.to_bits()));
}
