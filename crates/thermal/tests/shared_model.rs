//! Concurrent solves on one shared `&ThermalModel`.
//!
//! A built model is read-only during a solve: the preconditioner
//! hierarchies keep no scratch of their own (the V-cycle vectors live in
//! each caller's `SolverWorkspace`), so threads solving on one model
//! neither serialize on a lock nor see each other's state. These tests
//! pin that down: four threads solving at once finish bit-identical to
//! the same solves run one after another, for steady GMG at 32x32 and
//! transient AMG at 24x24; and a preconditioner apply that panics
//! mid-cycle leaves the preconditioner usable for the next solve.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

use xylem_thermal::grid::GridSpec;
use xylem_thermal::layer::Layer;
use xylem_thermal::material::{D2D_AVERAGE, SILICON};
use xylem_thermal::package::Package;
use xylem_thermal::power::PowerMap;
use xylem_thermal::solve::{solve_cg, Preconditioner};
use xylem_thermal::stack::Stack;
use xylem_thermal::units::Watts;
use xylem_thermal::ThermalModel;
use xylem_thermal::{PreconditionerKind, SolverOptions, SolverWorkspace, TemperatureField};

const DIE: f64 = 8e-3;
const THREADS: usize = 4;
/// Solves per thread, each warm-started from the one before.
const SOLVES: usize = 3;

fn model(n: usize, kind: PreconditionerKind) -> ThermalModel {
    let stack = Stack::builder(DIE, DIE)
        .package(Package::default_for_die(DIE, DIE))
        .layer(Layer::uniform("dram0", 100e-6, SILICON.clone()))
        .layer(Layer::uniform("d2d0", 20e-6, D2D_AVERAGE.clone()))
        .layer(Layer::uniform("dram1", 100e-6, SILICON.clone()))
        .layer(Layer::uniform("d2d1", 20e-6, D2D_AVERAGE.clone()))
        .layer(Layer::uniform("proc", 100e-6, SILICON.clone()))
        .build()
        .unwrap();
    let mut m = stack.discretize(GridSpec::new(n, n)).unwrap();
    m.set_solver_options(SolverOptions {
        preconditioner: kind,
        ..SolverOptions::default()
    });
    m
}

/// A hotspot power map that differs per `(thread, solve)`.
fn power(model: &ThermalModel, thread: usize, solve: usize) -> PowerMap {
    let n = model.grid().nx();
    let mut p = PowerMap::zeros(model);
    p.add_uniform_layer_power(4, Watts::new(2.0));
    p.add_cell_power(
        4,
        (3 + 5 * thread) % n,
        (2 + 7 * solve) % n,
        Watts::new(1.5),
    );
    p.add_cell_power(
        0,
        (n / 2 + thread) % n,
        n / 3,
        Watts::new(0.25 * (solve + 1) as f64),
    );
    p
}

fn bits(field: &TemperatureField) -> Vec<u64> {
    field.raw().iter().map(|v| v.to_bits()).collect()
}

/// Thread `t`'s steady chain: `SOLVES` warm-started solves, one
/// workspace.
fn steady_chain(model: &ThermalModel, t: usize) -> Vec<Vec<u64>> {
    let mut ws = SolverWorkspace::new();
    let mut prev: Option<TemperatureField> = None;
    (0..SOLVES)
        .map(|k| {
            let field = model
                .steady_state_from(&power(model, t, k), prev.as_ref(), &mut ws)
                .unwrap();
            let out = bits(&field);
            prev = Some(field);
            out
        })
        .collect()
}

/// Thread `t`'s transient run: `SOLVES` calls of a few backward-Euler
/// steps each, chained through the evolving field.
fn transient_chain(model: &ThermalModel, t: usize) -> Vec<Vec<u64>> {
    let mut ws = SolverWorkspace::new();
    let mut field = TemperatureField::uniform(model, model.ambient());
    (0..SOLVES)
        .map(|k| {
            field = model
                .transient_with(&power(model, t, k), &field, 2e-3, 4, None, &mut ws)
                .unwrap();
            bits(&field)
        })
        .collect()
}

/// Runs `chain` for every thread index serially, then on `THREADS`
/// threads at once over the same `&model`, and asserts identical bits.
fn assert_shared_matches_serial(
    model: &ThermalModel,
    chain: fn(&ThermalModel, usize) -> Vec<Vec<u64>>,
) {
    let serial: Vec<_> = (0..THREADS).map(|t| chain(model, t)).collect();
    let barrier = Barrier::new(THREADS);
    let concurrent: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    chain(model, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("solver thread panicked"))
            .collect()
    });
    for (t, (got, want)) in concurrent.iter().zip(&serial).enumerate() {
        assert!(got == want, "thread {t} diverged from its serial run");
    }
}

#[test]
fn concurrent_steady_gmg_solves_match_serial_bits() {
    let m = model(32, PreconditionerKind::Gmg);
    assert_shared_matches_serial(&m, steady_chain);
}

#[test]
fn concurrent_transient_amg_solves_match_serial_bits() {
    let m = model(24, PreconditionerKind::Amg);
    assert_shared_matches_serial(&m, transient_chain);
}

#[test]
fn panicking_gmg_apply_leaves_the_preconditioner_usable() {
    let m = model(32, PreconditionerKind::Gmg);
    let a = m.csr();
    let n = a.n();
    let prec = Preconditioner::build_gmg(a, 32, 32, m.n_user_layers() + 3)
        .expect("structured model builds a GMG hierarchy");
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect();
    let options = SolverOptions {
        preconditioner: PreconditionerKind::Gmg,
        fallback: false,
        ..SolverOptions::default()
    };
    let solve = |prec: &Preconditioner| {
        let mut x = vec![0.0; n];
        let stats = solve_cg(a, prec, &b, &mut x, &mut SolverWorkspace::new(), &options)
            .expect("GMG-CG converges");
        let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        (stats.iterations, bits)
    };
    let before = solve(&prec);
    let mut z_before = vec![0.0; n];
    prec.apply_timed(a, &b, &mut z_before);

    // An output slice too short for the hierarchy panics inside the
    // cycle, after the scratch was sized.
    let mut short = vec![0.0; n / 2];
    let panicked = catch_unwind(AssertUnwindSafe(|| prec.apply_timed(a, &b, &mut short)));
    assert!(panicked.is_err(), "a short output slice must panic");

    let after = solve(&prec);
    assert_eq!(before, after, "the panic changed a later solve");
    let mut z_after = vec![0.0; n];
    prec.apply_timed(a, &b, &mut z_after);
    assert!(
        z_before
            .iter()
            .zip(&z_after)
            .all(|(p, q)| p.to_bits() == q.to_bits()),
        "the panic changed a later apply"
    );
}
