//! The benchmark's own tests: every workload's tiny mode prints every
//! metric `BENCHMARK.json` names, with its unit, and the output checker
//! can fail.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use xylem_obs::json::{self, Value};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn perfbench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("perfbench runs")
}

fn result_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {stdout}"))
}

fn run_tiny(workload: &str, trace: &str, extra: &[&str]) -> Value {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--tiny",
    ];
    args.extend_from_slice(extra);
    let out = perfbench(&repo_root(), &args);
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    result_line(&out)
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        _ => panic!("BENCHMARK.json has no list {key}"),
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect("string field")
}

/// Runs every workload tiny with `trace` and checks that each prints
/// exactly the metrics listed under `section`, each once with the listed
/// unit, and that every output was correct.
fn check_section(trace: &str, section: &str) {
    let bench = benchmark_json();
    let listed: Vec<(String, String)> = list(&bench, section)
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect();
    for w in list(&bench, "workloads") {
        let workload = str_of(w, "name");
        let result = run_tiny(workload, trace, &[]);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        let Some(Value::Object(metrics)) = result.get("metrics") else {
            panic!("{workload}: no metrics");
        };
        let mut printed = std::collections::BTreeSet::new();
        for (name, m) in metrics {
            let (_, unit) = listed
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{workload} prints {name}, not in {section}"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} value"
            );
            assert!(
                printed.insert(name.clone()),
                "{workload} prints {name} twice"
            );
        }
        for (name, _) in &listed {
            assert!(printed.contains(name), "{workload} does not print {name}");
        }
    }
}

#[test]
fn tiny_runs_print_every_end_to_end_metric() {
    check_section("0", "end_to_end");
}

#[test]
fn tiny_traced_runs_print_every_per_layer_metric() {
    check_section("1", "per_layer");
}

/// Shifts every reference number by one unit.
fn perturb(v: &Value) -> Value {
    match v {
        Value::F64(x) => Value::F64(x + 1.0),
        Value::U64(x) => Value::F64(*x as f64 + 1.0),
        Value::Array(items) => Value::Array(items.iter().map(perturb).collect()),
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), perturb(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

#[test]
fn a_wrong_reference_is_reported_as_failure() {
    let text = std::fs::read_to_string(repo_root().join("perfbench/reference.json"))
        .expect("reference.json");
    let wrong = perturb(&json::parse(&text).expect("reference parses"));
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrong_reference.json");
    std::fs::write(&path, wrong.to_string()).expect("write wrong reference");
    let reference = path.to_str().expect("utf-8 path");
    for workload in ["design_sweep", "dtm_control"] {
        let result = run_tiny(workload, "0", &["--reference", reference]);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(false)),
            "{workload}"
        );
        assert!(result.get("failed").and_then(Value::as_u64).unwrap_or(0) > 0);
    }
}

#[test]
fn without_the_repository_it_fails_without_a_result() {
    let empty = Path::new(env!("CARGO_TARGET_TMPDIR")).join("empty-checkout");
    std::fs::create_dir_all(&empty).expect("create dir");
    for workload in ["design_sweep", "dtm_control", "serve_mixed"] {
        let out = perfbench(
            &empty,
            &["--workload", workload, "--seed", "1", "--trace", "0"],
        );
        assert!(!out.status.success(), "{workload} succeeded without inputs");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
