//! The in-place steady solve and the presized workspace.
//!
//! `ThermalModel::steady_state_in_place` is the allocation-free core of
//! `ThermalModel::steady_state_from`, and `ThermalModel::workspace`
//! presizes every solver buffer (V-cycle scratch included) for the
//! model's preconditioner. Neither may change a result: for every
//! preconditioner kind, an in-place solve (cold or warm-started) and a
//! solve through a presized workspace must reproduce the allocating
//! path bit for bit, and a workspace carried from one model to another
//! must solve the second exactly as a fresh one would.

use xylem_thermal::error::ThermalError;
use xylem_thermal::grid::GridSpec;
use xylem_thermal::layer::Layer;
use xylem_thermal::material::{D2D_AVERAGE, SILICON};
use xylem_thermal::package::Package;
use xylem_thermal::power::PowerMap;
use xylem_thermal::stack::Stack;
use xylem_thermal::units::{Celsius, Watts};
use xylem_thermal::ThermalModel;
use xylem_thermal::{PreconditionerKind, SolverOptions, SolverWorkspace, TemperatureField};

const DIE: f64 = 8e-3;

fn model(n: usize, kind: PreconditionerKind) -> ThermalModel {
    let stack = Stack::builder(DIE, DIE)
        .package(Package::default_for_die(DIE, DIE))
        .layer(Layer::uniform("dram", 100e-6, SILICON.clone()))
        .layer(Layer::uniform("d2d", 20e-6, D2D_AVERAGE.clone()))
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

/// A hotspot on the processor layer over background power on both dies;
/// `k` moves the hotspot.
fn power(model: &ThermalModel, k: usize) -> PowerMap {
    let n = model.grid().nx();
    let mut p = PowerMap::zeros(model);
    p.add_uniform_layer_power(2, Watts::new(3.0));
    p.add_uniform_layer_power(0, Watts::new(0.5));
    p.add_cell_power(2, (2 + 3 * k) % n, (5 + k) % n, Watts::new(1.25));
    p
}

fn bits(field: &TemperatureField) -> Vec<u64> {
    field.raw().iter().map(|v| v.to_bits()).collect()
}

/// A cold in-place solve, then one warm-started from it, against
/// `steady_state_from` with no guess and with the first field as guess.
fn check_in_place(kind: PreconditionerKind) {
    let m = model(16, kind);
    let mut ws = SolverWorkspace::new();
    let cold = m.steady_state_from(&power(&m, 0), None, &mut ws).unwrap();
    let warm = m
        .steady_state_from(&power(&m, 1), Some(&cold), &mut ws)
        .unwrap();

    let mut ws = SolverWorkspace::new();
    let mut field = TemperatureField::uniform(&m, m.ambient());
    m.steady_state_in_place(&power(&m, 0), &mut field, &mut ws)
        .unwrap();
    assert_eq!(bits(&field), bits(&cold), "{kind:?}: cold start differs");
    assert_eq!(field.stats(), cold.stats(), "{kind:?}: cold stats differ");
    m.steady_state_in_place(&power(&m, 1), &mut field, &mut ws)
        .unwrap();
    assert_eq!(bits(&field), bits(&warm), "{kind:?}: warm start differs");
    assert_eq!(field.stats(), warm.stats(), "{kind:?}: warm stats differ");
}

/// A chain of solves through `ThermalModel::workspace` against the same
/// chain through a workspace that grows on first use.
fn check_presized(kind: PreconditionerKind) {
    let m = model(16, kind);
    let chain = |mut ws: SolverWorkspace| {
        let mut field = TemperatureField::uniform(&m, m.ambient());
        (0..3)
            .map(|k| {
                m.steady_state_in_place(&power(&m, k), &mut field, &mut ws)
                    .unwrap();
                (bits(&field), field.stats())
            })
            .collect::<Vec<_>>()
    };
    assert!(
        chain(m.workspace()) == chain(SolverWorkspace::new()),
        "{kind:?}: presized workspace changed a solve"
    );
}

macro_rules! per_kind {
    ($($module:ident => $kind:ident),* $(,)?) => {$(
        mod $module {
            use super::*;

            #[test]
            fn in_place_matches_steady_state_from() {
                check_in_place(PreconditionerKind::$kind);
            }

            #[test]
            fn presized_workspace_matches_a_growing_one() {
                check_presized(PreconditionerKind::$kind);
            }
        }
    )*};
}

per_kind!(jacobi => Jacobi, ssor => Ssor, ic0 => Ic0, amg => Amg, gmg => Gmg);

#[test]
fn in_place_solve_rejects_a_field_of_another_model() {
    let small = model(8, PreconditionerKind::Amg);
    let large = model(16, PreconditionerKind::Amg);
    let mut field = TemperatureField::uniform(&small, small.ambient());
    let err = large
        .steady_state_in_place(&power(&large, 0), &mut field, &mut large.workspace())
        .expect_err("a field sized for another model must be rejected");
    assert!(
        matches!(err, ThermalError::PowerMapMismatch { .. }),
        "unexpected error {err:?}"
    );
}

#[test]
fn filled_field_restarts_cold() {
    // `fill` turns a solved field back into the ambient cold start, so
    // a chain can reuse one field without any trace of the last solve.
    let m = model(16, PreconditionerKind::Gmg);
    let mut ws = m.workspace();
    let mut fresh = TemperatureField::uniform(&m, m.ambient());
    m.steady_state_in_place(&power(&m, 2), &mut fresh, &mut ws)
        .unwrap();

    let mut reused = TemperatureField::uniform(&m, Celsius::new(80.0));
    m.steady_state_in_place(&power(&m, 5), &mut reused, &mut ws)
        .unwrap();
    reused.fill(m.ambient());
    assert_eq!(reused.stats().iterations, 0);
    m.steady_state_in_place(&power(&m, 2), &mut reused, &mut ws)
        .unwrap();
    assert_eq!(bits(&reused), bits(&fresh));
    assert_eq!(reused.stats(), fresh.stats());
}

#[test]
fn workspace_carried_between_models_solves_like_a_fresh_one() {
    // The V-cycle scratch refits itself to whichever hierarchy applies
    // it: a workspace that last served a larger GMG model, then an AMG
    // model, must leave no trace in the next solve.
    let gmg_large = model(24, PreconditionerKind::Gmg);
    let amg_small = model(12, PreconditionerKind::Amg);
    let gmg_small = model(16, PreconditionerKind::Gmg);

    let mut carried = gmg_large.workspace();
    gmg_large
        .steady_state_from(&power(&gmg_large, 0), None, &mut carried)
        .unwrap();
    let amg_carried = amg_small
        .steady_state_from(&power(&amg_small, 1), None, &mut carried)
        .unwrap();
    let gmg_carried = gmg_small
        .steady_state_from(&power(&gmg_small, 2), None, &mut carried)
        .unwrap();

    let amg_fresh = amg_small
        .steady_state_from(&power(&amg_small, 1), None, &mut SolverWorkspace::new())
        .unwrap();
    let gmg_fresh = gmg_small
        .steady_state_from(&power(&gmg_small, 2), None, &mut SolverWorkspace::new())
        .unwrap();
    assert_eq!(bits(&amg_carried), bits(&amg_fresh));
    assert_eq!(bits(&gmg_carried), bits(&gmg_fresh));
}

#[test]
fn in_place_solve_records_its_statistics_in_the_field() {
    let m = model(16, PreconditionerKind::Amg);
    let mut field = TemperatureField::uniform(&m, m.ambient());
    m.steady_state_in_place(&power(&m, 0), &mut field, &mut m.workspace())
        .unwrap();
    let stats = field.stats();
    assert!(stats.iterations > 0, "a cold start needs CG iterations");
    assert!(stats.residual <= m.solver_options().tolerance);
    assert!(field.recovery().is_empty());
    // Injected power raises every node above ambient.
    let ambient = m.ambient().get();
    assert!(field.raw().iter().all(|&t| t > ambient));
}
