//! Property-based tests for the power model.

use proptest::prelude::*;

use xylem_power::units::{Celsius, Watts};
use xylem_power::{CoreActivity, ProcessorPowerModel, UncoreActivity};

fn cores(activity: f64, mi: f64, f: f64, m: &ProcessorPowerModel) -> Vec<CoreActivity> {
    let p = m.dvfs().point_at(f);
    vec![
        CoreActivity {
            activity,
            memory_intensity: mi,
            point: p,
        };
        8
    ]
}

fn uncore(u: f64, f: f64, m: &ProcessorPowerModel) -> UncoreActivity {
    UncoreActivity {
        llc: u,
        mc: [u; 4],
        noc: u,
        point: m.dvfs().point_at(f),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All block powers are non-negative and sum to the reported total.
    #[test]
    fn blocks_nonnegative_and_sum(
        activity in 0.0f64..1.0,
        mi in 0.0f64..1.0,
        u in 0.0f64..1.0,
        f in 2.4f64..3.5,
        t in 40.0f64..110.0,
    ) {
        let m = ProcessorPowerModel::paper_default();
        let blocks = m.block_powers(&cores(activity, mi, f, &m), &uncore(u, f, &m), Celsius::new(t));
        let mut sum = Watts::ZERO;
        for (name, w) in &blocks {
            prop_assert!(*w >= 0.0, "{name} = {w}");
            sum = sum + *w;
        }
        let total = m.total_power(&cores(activity, mi, f, &m), &uncore(u, f, &m), Celsius::new(t));
        prop_assert!((sum - total).abs() < 1e-9);
    }

    /// Power is monotone in activity, frequency, and temperature.
    #[test]
    fn monotone_in_inputs(
        a1 in 0.0f64..0.9,
        da in 0.01f64..0.1,
        f in 2.4f64..3.4,
        t in 40.0f64..100.0,
    ) {
        let m = ProcessorPowerModel::paper_default();
        let base = m.total_power(&cores(a1, 0.3, f, &m), &uncore(0.3, f, &m), Celsius::new(t));
        let more_active = m.total_power(&cores(a1 + da, 0.3, f, &m), &uncore(0.3, f, &m), Celsius::new(t));
        prop_assert!(more_active > base);
        let faster = m.total_power(&cores(a1, 0.3, f + 0.1, &m), &uncore(0.3, f + 0.1, &m), Celsius::new(t));
        prop_assert!(faster > base);
        let hotter = m.total_power(&cores(a1, 0.3, f, &m), &uncore(0.3, f, &m), Celsius::new(t + 5.0));
        prop_assert!(hotter > base);
    }

    /// Memory intensity redistributes but does not create power: total
    /// core dynamic power is independent of the blend.
    #[test]
    fn memory_intensity_preserves_core_total(
        mi1 in 0.0f64..1.0,
        mi2 in 0.0f64..1.0,
        activity in 0.1f64..1.0,
    ) {
        let m = ProcessorPowerModel::paper_default();
        let sum_cores = |mi: f64| -> f64 {
            m.block_powers(&cores(activity, mi, 2.4, &m), &uncore(0.0, 2.4, &m), Celsius::new(70.0))
                .iter()
                .filter(|(n, _)| n.starts_with("core"))
                .map(|(_, w)| w.get())
                .sum()
        };
        prop_assert!((sum_cores(mi1) - sum_cores(mi2)).abs() < 1e-9);
    }

    /// Idle cores consume only leakage: activity 0 at any frequency is
    /// cheaper than any active configuration.
    #[test]
    fn idle_floor(f in 2.4f64..3.5, a in 0.05f64..1.0) {
        let m = ProcessorPowerModel::paper_default();
        let idle = m.total_power(&cores(0.0, 0.0, f, &m), &uncore(0.0, f, &m), Celsius::new(70.0));
        let busy = m.total_power(&cores(a, 0.5, f, &m), &uncore(0.2, f, &m), Celsius::new(70.0));
        prop_assert!(idle < busy);
        prop_assert!(idle > 0.0); // leakage never disappears
    }
}

/// Every property above. The vendored `proptest!` adds no `#[test]` of
/// its own, so a property written without one would silently never run.
const PROPERTIES: &[&str] = &[
    "blocks_nonnegative_and_sum",
    "monotone_in_inputs",
    "memory_intensity_preserves_core_total",
    "idle_floor",
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
