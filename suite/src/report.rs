//! Metric values, the machine record, and what a run prints and writes.

use std::path::Path;
use std::process::Command;

use accordion_common::json::Json;

use crate::env::{Settings, DOP, PAGE_ROWS, WORKER_THREADS};

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Median; the mean of the middle pair for an even count. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100). Sorts in place.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The result of one run, as the benchmark contract wants it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Exactly the metrics `BENCHMARK.json` names for this trace mode.
    pub metrics: Vec<Metric>,
    /// Everything else worth reading: per-statement numbers, settings the
    /// run derived (deadlines, round counts), failure messages.
    pub detail: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// `{name: {"value", "unit"}}` for every metric.
    pub fn metrics_json(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics.set(
                m.name.clone(),
                Json::obj()
                    .with("value", Json::f64(m.value))
                    .with("unit", Json::str(m.unit)),
            );
        }
        metrics
    }

    /// The single JSON object a run prints as its last line of stdout.
    pub fn contract_line(&self) -> String {
        Json::obj()
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::u64(self.attempted))
            .with("failed", Json::u64(self.failed))
            .with("metrics", self.metrics_json())
            .to_string_compact()
    }

    /// Aligned `name value unit` lines for people. A value that could not
    /// be measured (no `/proc` off Linux) reads `unavailable`, never 0.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        self.metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:.4}", m.value)
                } else {
                    "unavailable".to_string()
                };
                format!("  {:<width$}  {value:>16}  {}\n", m.name, m.unit)
            })
            .collect()
    }
}

/// `git rev-parse HEAD` of the working directory, or `unknown` outside a
/// repository (the driver's checkouts are not one).
fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what a run happened — carried by every report, because a
/// number that depends on threads means nothing without the core count.
pub fn machine_record(settings: &Settings) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .with("available_parallelism", Json::u64(cores as u64))
        .with("sf", Json::f64(settings.sf))
        .with("seed", Json::u64(settings.seed))
        .with("page_rows", Json::u64(PAGE_ROWS as u64))
        .with("worker_threads", Json::u64(WORKER_THREADS as u64))
        .with("dop", Json::u64(DOP as u64))
        .with(
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        )
        .with("git_head", Json::str(git_head()))
}

/// Writes `value` as pretty JSON to `dir/name`, creating `dir`.
pub fn write_json(dir: &Path, name: &str, value: &Json) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, value.to_string_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 90.0), 9.0);
        assert_eq!(percentile(&mut v, 100.0), 10.0);
        assert_eq!(percentile(&mut [5.0], 90.0), 5.0);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_full_precision() {
        let result = RunResult {
            attempted: 12,
            failed: 0,
            metrics: vec![Metric::new("round_ms_nominal", 812.345678912, "ms")],
            detail: Json::obj(),
        };
        let parsed = Json::parse(&result.contract_line()).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").unwrap().as_bool(), Some(true));
        let m = parsed
            .get("metrics")
            .unwrap()
            .get("round_ms_nominal")
            .unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(812.345678912));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn a_failure_or_a_non_finite_metric_is_not_correct() {
        let ok = RunResult {
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::new("x", 1.0, "s")],
            detail: Json::obj(),
        };
        assert!(ok.correct());
        assert!(!RunResult {
            failed: 1,
            ..ok.clone()
        }
        .correct());
        assert!(!RunResult {
            metrics: vec![Metric::new("x", f64::NAN, "s")],
            ..ok
        }
        .correct());
    }
}
