//! Reference outputs generated at the commit that defined the benchmark
//! (`perfbench --write-reference`), stored beside the benchmark in
//! `reference.json`, and the tolerances outputs are checked against.
//!
//! Layout: one object per workload, keyed by a string naming the input
//! (grid, configuration, application, ...); values are arrays of numbers.

use std::path::Path;

use xylem_obs::json::{self, Value};

/// Temperatures: loose enough for any converged solver (they agree to
/// ~1e-6 K), tight enough to catch a wrong field or power map.
pub const TEMP_TOL_C: f64 = 0.05;
/// Watts, for the leakage-coupled total power.
pub const POWER_TOL_W: f64 = 0.01;
/// Effective (time-averaged) DTM frequency, GHz.
pub const GHZ_TOL: f64 = 0.01;

#[derive(Debug)]
pub struct Reference(Value);

impl Reference {
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
        json::parse(&text)
            .map(Reference)
            .map_err(|e| format!("bad reference {}: {e}", path.display()))
    }

    /// The numbers stored for `key` under `section`.
    pub fn get(&self, section: &str, key: &str) -> Option<Vec<f64>> {
        match self.0.get(section)?.get(key)? {
            Value::Array(items) => items.iter().map(Value::as_f64).collect(),
            _ => None,
        }
    }
}

/// Compares `got` against the reference entry, element by element,
/// within `tol`; every difference is a message.
pub fn compare(
    reference: &Reference,
    section: &str,
    key: &str,
    got: &[f64],
    tol: &[f64],
) -> Vec<String> {
    let Some(want) = reference.get(section, key) else {
        return vec![format!("{section}: no reference for {key}")];
    };
    if want.len() != got.len() {
        return vec![format!(
            "{section} {key}: {} values, reference has {}",
            got.len(),
            want.len()
        )];
    }
    let mut out = Vec::new();
    for (i, ((&g, &w), &t)) in got.iter().zip(&want).zip(tol).enumerate() {
        // Written so that a NaN on either side is a mismatch.
        let close = (g - w).abs() <= t;
        if !close {
            out.push(format!(
                "{section} {key}[{i}]: got {g}, reference {w} (tol {t})"
            ));
        }
    }
    out
}

/// Entries being generated for one section.
#[derive(Debug, Default)]
pub struct Section(Vec<(String, Value)>);

impl Section {
    pub fn put(&mut self, key: String, values: &[f64]) {
        self.0.push((
            key,
            Value::Array(values.iter().map(|&v| Value::F64(v)).collect()),
        ));
    }
}

/// Merges `sections` into the reference file at `path`.
pub fn write_sections(path: &Path, sections: Vec<(String, Section)>) -> Result<(), String> {
    let mut top: Vec<(String, Value)> = match std::fs::read_to_string(path) {
        Ok(text) => match json::parse(&text) {
            Ok(Value::Object(fields)) => fields,
            _ => return Err(format!("{} is not a JSON object", path.display())),
        },
        Err(_) => Vec::new(),
    };
    for (name, Section(entries)) in sections {
        // Merge: new entries replace same-keyed old ones.
        let mut merged = match top.iter().position(|(k, _)| *k == name) {
            Some(i) => match top.remove(i).1 {
                Value::Object(old) => old,
                _ => Vec::new(),
            },
            None => Vec::new(),
        };
        merged.retain(|(k, _)| !entries.iter().any(|(n, _)| n == k));
        merged.extend(entries);
        top.push((name, Value::Object(merged)));
    }
    let mut text = String::from("{\n");
    for (i, (k, v)) in top.iter().enumerate() {
        let sep = if i + 1 == top.len() { "" } else { "," };
        text.push_str(&format!("  {}: {v}{sep}\n", Value::Str(k.clone())));
    }
    text.push_str("}\n");
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
