//! Property-based tests for the thermal solver's physical invariants.

use proptest::prelude::*;

use xylem_thermal::floorplan::{Floorplan, Rect};
use xylem_thermal::grid::GridSpec;
use xylem_thermal::layer::Layer;
use xylem_thermal::material::{D2D_AVERAGE, SILICON};
use xylem_thermal::package::Package;
use xylem_thermal::power::PowerMap;
use xylem_thermal::stack::Stack;
use xylem_thermal::units::Watts;
use xylem_thermal::{SolverWorkspace, ThermalModel};

const DIE: f64 = 8e-3;

fn small_model() -> ThermalModel {
    let stack = Stack::builder(DIE, DIE)
        .package(Package::default_for_die(DIE, DIE))
        .layer(Layer::uniform("dram", 100e-6, SILICON.clone()))
        .layer(Layer::uniform("d2d", 20e-6, D2D_AVERAGE.clone()))
        .layer(Layer::uniform("proc", 100e-6, SILICON.clone()))
        .build()
        .unwrap();
    stack.discretize(GridSpec::new(6, 6)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Steady state conserves energy: convected+board outflow equals the
    /// injected power, for arbitrary point injections.
    #[test]
    fn conservation_holds_for_random_injections(
        cells in proptest::collection::vec((0usize..3, 0usize..6, 0usize..6, 0.1f64..5.0), 1..6)
    ) {
        let m = small_model();
        let mut p = PowerMap::zeros(&m);
        for &(l, ix, iy, w) in &cells {
            p.add_cell_power(l, ix, iy, Watts::new(w));
        }
        let t = m.steady_state(&p).unwrap();
        let outflow = m.ambient_outflow(&t);
        let total = p.total();
        prop_assert!((outflow - total).abs() < 1e-3 * total.get().max(1.0),
            "outflow {outflow} vs injected {total}");
    }

    /// Every node is at or above ambient when all power is non-negative
    /// (discrete maximum principle).
    #[test]
    fn no_node_below_ambient(
        layer in 0usize..3,
        ix in 0usize..6,
        iy in 0usize..6,
        watts in 0.0f64..20.0,
    ) {
        let m = small_model();
        let mut p = PowerMap::zeros(&m);
        p.add_cell_power(layer, ix, iy, Watts::new(watts));
        let t = m.steady_state(&p).unwrap();
        let min = t.raw().iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(min >= m.ambient().get() - 1e-6, "min {min} < ambient");
    }

    /// Scaling the power map scales the temperature rise (linearity).
    #[test]
    fn temperature_rise_is_linear_in_power(
        layer in 0usize..3,
        ix in 0usize..6,
        iy in 0usize..6,
        watts in 0.5f64..5.0,
        k in 1.5f64..4.0,
    ) {
        let m = small_model();
        let mut p1 = PowerMap::zeros(&m);
        p1.add_cell_power(layer, ix, iy, Watts::new(watts));
        let mut p2 = p1.clone();
        p2.scale(k);
        let t1 = m.steady_state(&p1).unwrap();
        let t2 = m.steady_state(&p2).unwrap();
        let amb = m.ambient();
        let rise1 = t1.hotspot_of_layer(layer).1 - amb;
        let rise2 = t2.hotspot_of_layer(layer).1 - amb;
        prop_assert!((rise2 - k * rise1).abs() < 1e-6 * rise2.abs().max(1.0),
            "rise {rise2} vs {k} * {rise1}");
    }

    /// Adding power anywhere never cools any node (monotonicity).
    #[test]
    fn extra_power_never_cools(
        l1 in 0usize..3, x1 in 0usize..6, y1 in 0usize..6,
        l2 in 0usize..3, x2 in 0usize..6, y2 in 0usize..6,
    ) {
        let m = small_model();
        let mut pa = PowerMap::zeros(&m);
        pa.add_cell_power(l1, x1, y1, Watts::new(3.0));
        let mut pb = pa.clone();
        pb.add_cell_power(l2, x2, y2, Watts::new(2.0));
        let ta = m.steady_state(&pa).unwrap();
        let tb = m.steady_state(&pb).unwrap();
        for (a, b) in ta.raw().iter().zip(tb.raw()) {
            prop_assert!(b + 1e-7 >= *a, "{b} < {a}");
        }
    }

    /// Block rasterization weights always sum to 1 for blocks inside the
    /// outline, regardless of alignment with the grid.
    #[test]
    fn rasterization_weights_sum_to_one(
        x in 0.0f64..0.7,
        y in 0.0f64..0.7,
        w in 0.05f64..0.3,
        h in 0.05f64..0.3,
        n in 3usize..12,
    ) {
        let mut fp = Floorplan::new(DIE, DIE);
        fp.add_block("b", Rect::new(x * DIE, y * DIE, w * DIE, h * DIE)).unwrap();
        let stack = Stack::builder(DIE, DIE)
            .layer(Layer::uniform("si", 100e-6, SILICON.clone()).with_floorplan(fp))
            .build()
            .unwrap();
        let m = stack.discretize(GridSpec::new(n, n)).unwrap();
        let sum: f64 = m.block_weights(0, "b").unwrap().iter().map(|&(_, w)| w).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "{sum}");
    }

    /// The flat CSR matvec agrees with the adjacency-list reference
    /// lowering on arbitrary stacks and grids.
    #[test]
    fn csr_matvec_matches_adjacency(
        layers in 1usize..5,
        nx in 3usize..10,
        ny in 3usize..10,
        thickness_um in 40.0f64..200.0,
        seed in 0u64..1000,
    ) {
        let mut b = Stack::builder(DIE, DIE).package(Package::default_for_die(DIE, DIE));
        for l in 0..layers {
            let mat = if l % 2 == 0 { SILICON.clone() } else { D2D_AVERAGE.clone() };
            b = b.layer(Layer::uniform(format!("l{l}"), thickness_um * 1e-6, mat));
        }
        let m = b.build().unwrap().discretize(GridSpec::new(nx, ny)).unwrap();
        let n = m.node_count();
        // Deterministic pseudo-random input vector from the seed.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let x: Vec<f64> = (0..n).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }).collect();
        let mut y_adj = vec![0.0; n];
        let mut y_csr = vec![0.0; n];
        m.matvec_adjacency(&x, &mut y_adj);
        m.csr().matvec_serial(&x, &mut y_csr);
        for (a, c) in y_adj.iter().zip(&y_csr) {
            prop_assert!((a - c).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {c}");
        }
        // The auto-dispatching matvec is bit-identical to the serial one.
        let mut y_auto = vec![0.0; n];
        m.csr().matvec(&x, &mut y_auto);
        for (c, au) in y_csr.iter().zip(&y_auto) {
            prop_assert!(c.to_bits() == au.to_bits());
        }
    }

    /// A warm-started CG solve lands on the same solution as a cold
    /// start, for arbitrary injections and an arbitrary (wrong) guess
    /// scale.
    #[test]
    fn warm_start_matches_cold_start_solution(
        cells in proptest::collection::vec((0usize..3, 0usize..6, 0usize..6, 0.1f64..5.0), 1..6),
        guess_cells in proptest::collection::vec((0usize..3, 0usize..6, 0usize..6, 0.1f64..8.0), 1..4),
    ) {
        let m = small_model();
        let mut p = PowerMap::zeros(&m);
        for &(l, ix, iy, w) in &cells {
            p.add_cell_power(l, ix, iy, Watts::new(w));
        }
        let mut ws = SolverWorkspace::new();
        let cold = m.steady_state_from(&p, None, &mut ws).unwrap();
        // Guess: the solution of an unrelated power map.
        let mut pg = PowerMap::zeros(&m);
        for &(l, ix, iy, w) in &guess_cells {
            pg.add_cell_power(l, ix, iy, Watts::new(w));
        }
        let guess = m.steady_state_from(&pg, None, &mut ws).unwrap();
        let warm = m.steady_state_from(&p, Some(&guess), &mut ws).unwrap();
        for (c, w) in cold.raw().iter().zip(warm.raw()) {
            prop_assert!((c - w).abs() < 1e-5, "{c} vs {w}");
        }
    }

    /// A power map built from block power conserves the block total.
    #[test]
    fn block_power_total_preserved(
        x in 0.0f64..0.6,
        y in 0.0f64..0.6,
        w in 0.1f64..0.4,
        h in 0.1f64..0.4,
        watts in 0.1f64..30.0,
    ) {
        let mut fp = Floorplan::new(DIE, DIE);
        fp.add_block("b", Rect::new(x * DIE, y * DIE, w * DIE, h * DIE)).unwrap();
        let stack = Stack::builder(DIE, DIE)
            .layer(Layer::uniform("si", 100e-6, SILICON.clone()).with_floorplan(fp))
            .build()
            .unwrap();
        let m = stack.discretize(GridSpec::new(9, 9)).unwrap();
        let mut p = PowerMap::zeros(&m);
        p.add_block_power(&m, 0, "b", Watts::new(watts)).unwrap();
        prop_assert!((p.total().get() - watts).abs() < 1e-9 * watts);
    }
}

/// Every property above. The vendored `proptest!` adds no `#[test]` of
/// its own, so a property written without one would silently never run.
const PROPERTIES: &[&str] = &[
    "conservation_holds_for_random_injections",
    "no_node_below_ambient",
    "temperature_rise_is_linear_in_power",
    "extra_power_never_cools",
    "rasterization_weights_sum_to_one",
    "csr_matvec_matches_adjacency",
    "warm_start_matches_cold_start_solution",
    "block_power_total_preserved",
];

#[test]
fn every_property_is_registered_exactly_once() {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .arg("--list")
        .output()
        .unwrap();
    assert!(out.status.success(), "listing this test binary failed");
    let listing = String::from_utf8(out.stdout).unwrap();
    let mut names: Vec<&str> = listing
        .lines()
        .filter_map(|l| l.strip_suffix(": test"))
        .collect();
    for property in PROPERTIES {
        let n = names.iter().filter(|&&name| name == *property).count();
        assert_eq!(n, 1, "{property} is registered {n} times");
    }
    let listed = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), listed, "a test name is registered twice");
}
