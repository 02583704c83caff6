//! Shared plumbing: seeded inputs, raw-sample statistics, per-run work
//! directories, process memory, layer spans and the result line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Counter-based generator (splitmix64): the same seed gives the same
/// inputs on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Percentile `q` in `[0, 1]` of raw samples, linearly interpolated
/// between order statistics (no histogram buckets).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f`, returning its result and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

/// A fresh directory for one run's on-disk state (response cache,
/// journal, checkpoints, spool), inside the working directory and
/// removed when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir =
            PathBuf::from(".bench_work").join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh subdirectory path (not created).
    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn status_kib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").unwrap_or(f64::NAN) / 1024.0
}

/// Current resident set (VmRSS), MB.
pub fn rss_mb() -> f64 {
    status_kib("VmRSS:").unwrap_or(f64::NAN) / 1024.0
}

/// Filesystem type holding `path`, from the longest matching mount point.
pub fn filesystem_of(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    let mut best = ("unknown".to_string(), 0usize);
    for line in mounts.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() >= 3 && abs.starts_with(f[1]) && f[1].len() >= best.1 {
            best = (f[2].to_string(), f[1].len());
        }
    }
    best.0
}

/// Span recorder for the traced run: one entry per call the benchmark
/// makes into a layer, kept in memory and summarised at the end.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<(&'static str, f64)>,
}

impl Tracer {
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, elapsed) = timed(f);
        self.spans.push((name, elapsed));
        out
    }

    pub fn record(&mut self, name: &'static str, elapsed_ms: f64) {
        self.spans.push((name, elapsed_ms));
    }

    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect()
    }

    pub fn count(&self) -> usize {
        self.spans.len()
    }

    /// Cost of recording one span, ms, measured on this machine.
    pub fn per_span_cost_ms() -> f64 {
        let mut t = Tracer::default();
        let n = 20_000;
        let (_, total) = timed(|| {
            for i in 0..n {
                t.span("calibrate", || std::hint::black_box(i));
            }
        });
        total / f64::from(n)
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Raw samples behind the value, when it is a statistic.
    pub samples: Option<usize>,
}

/// Collects a run's metrics, counts and context, and prints the result.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub context: Vec<(String, String)>,
    mismatches: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn stat(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(n),
        });
    }

    pub fn context(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Records one attempted operation and whether it was correct.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Notes a failed check (printed to stderr, first few only).
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            eprintln!("mismatch: {what}");
        }
        self.mismatches.push(what);
    }

    /// Prints the context and every metric with its sample count, then
    /// the result object as the last line of standard output.
    pub fn print(&self) {
        for (k, v) in &self.context {
            println!("# {k}: {v}");
        }
        let error_rate = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "# error_rate: {error_rate} ratio ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for m in &self.metrics {
            match m.samples {
                Some(n) => println!("# {} = {} {} (n={n})", m.name, m.value, m.unit),
                None => println!("# {} = {} {}", m.name, m.value, m.unit),
            }
        }
        let mut line = String::new();
        let correct = self.failed == 0 && self.mismatches.is_empty() && self.attempted > 0;
        let _ = write!(
            line,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}
