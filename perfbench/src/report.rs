//! Statistics over timing samples, the result record, and its JSON.
//!
//! The vendored `serde` is a stub, so JSON is written by hand here. Every
//! number is printed with Rust's shortest round-trip formatting, i.e.
//! with all the digits it was measured with.

use std::fmt::Write as _;
use std::process::Command;

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it, as `(percentile, value, samples_beyond)`.
/// With fewer than 20 samples there is no such percentile and the maximum
/// is reported with the samples it has.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let n = values.len();
    if n < 20 {
        return (100.0, quantile(values, 1.0), 0);
    }
    let q = 1.0 - 10.0 / n as f64;
    (q * 100.0, quantile(values, q), 10)
}

/// One metric as the final JSON line carries it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Attempted / succeeded / failed counts for one phase of a run.
pub struct Phase {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one run reports.
pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub phases: Vec<Phase>,
    /// Human-readable facts printed beside the metrics (tail percentile,
    /// sample counts, `error_rate`, modeled latency...).
    pub notes: Vec<(String, String)>,
    /// Correctness failures; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
}

impl RunResult {
    pub fn new() -> RunResult {
        RunResult {
            metrics: Vec::new(),
            phases: Vec::new(),
            notes: Vec::new(),
            mismatches: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    pub fn phase(&mut self, name: &'static str, attempted: u64, failed: u64) {
        self.phases.push(Phase {
            name,
            attempted,
            failed,
        });
    }

    /// Record a correctness failure (kept short: the first few are printed).
    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.mismatches.push(what.into());
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Failed, refused and oracle-mismatched operations over all phases.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed() == 0 && self.attempted() > 0
    }
}

/// Machine and build facts recorded with every result.
pub struct Provenance {
    pub git_sha: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
}

impl Provenance {
    pub fn collect() -> Provenance {
        let run = |prog: &str, args: &[&str]| {
            Command::new(prog)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            git_sha: run("git", &["rev-parse", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc: run("rustc", &["--version"]),
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one-line summary the benchmark prints last.
pub fn summary_line(result: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct(),
        result.attempted(),
        result.failed(),
        metrics_json(&result.metrics)
    )
}

/// The full result record: provenance, phases, notes and metrics.
pub fn record_json(
    result: &RunResult,
    prov: &Provenance,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> String {
    let phases: Vec<String> = result
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"phase\": {}, \"attempted\": {}, \"succeeded\": {}, \"failed\": {}}}",
                json_str(p.name),
                p.attempted,
                p.attempted - p.failed.min(p.attempted),
                p.failed
            )
        })
        .collect();
    let notes: Vec<String> = result
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let mismatches: Vec<String> = result.mismatches.iter().map(|m| json_str(m)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"trace\": {trace},\n  \
         \"git_sha\": {},\n  \"nproc\": {},\n  \"cpu_model\": {},\n  \"rustc\": {},\n  \
         \"correct\": {},\n  \"phases\": [{}],\n  \"notes\": {{{}}},\n  \"mismatches\": [{}],\n  \"metrics\": {}\n}}\n",
        json_str(workload),
        json_str(&prov.git_sha),
        prov.nproc,
        json_str(&prov.cpu_model),
        json_str(&prov.rustc),
        result.correct(),
        phases.join(", "),
        notes.join(", "),
        mismatches.join(", "),
        metrics_json(&result.metrics)
    )
}
