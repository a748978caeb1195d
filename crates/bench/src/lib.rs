//! # smoke-bench
//!
//! Reproduces the figures of the Smoke evaluation (§6 and Appendix G): Smoke
//! against the Logic-*/Phys-* baselines. Each experiment is a plain function
//! that returns rows of `(experiment, configuration, technique, metric,
//! value)`; the `experiments` binary prints them. Whether a commit regressed
//! is a different question, answered by the standalone `benchmark/` package.
//!
//! Dataset sizes default to laptop-scale so the full suite completes in
//! minutes; the binary accepts a `--scale` multiplier to approach the paper's
//! sizes.

#![warn(missing_docs)]

pub mod apps_exp;
pub mod micro;
pub mod query_exp;
pub mod tpch_exp;

use std::time::{Duration, Instant};

/// One reported measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpRow {
    /// Experiment id (e.g. "fig5").
    pub experiment: String,
    /// Workload configuration (e.g. "n=100000,g=100").
    pub config: String,
    /// Technique name (e.g. "Smoke-I").
    pub technique: String,
    /// Metric name (e.g. "capture_ms", "overhead_x").
    pub metric: String,
    /// Metric value.
    pub value: f64,
}

impl ExpRow {
    /// Creates a row.
    pub fn new(
        experiment: &str,
        config: impl Into<String>,
        technique: impl Into<String>,
        metric: &str,
        value: f64,
    ) -> Self {
        ExpRow {
            experiment: experiment.to_string(),
            config: config.into(),
            technique: technique.into(),
            metric: metric.to_string(),
            value,
        }
    }
}

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn time<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Times a closure over `runs` executions and returns the mean duration of
/// the last `runs - warmup` runs (the paper averages 15 runs after 3
/// warm-ups; the harness default is smaller to keep the suite fast).
pub fn time_avg<T>(runs: usize, warmup: usize, mut f: impl FnMut() -> T) -> Duration {
    let runs = runs.max(1);
    // Clamp so at least one run is always counted (e.g. `--runs 1`).
    let warmup = warmup.min(runs - 1);
    let mut total = Duration::ZERO;
    let mut counted = 0u32;
    for i in 0..runs {
        let (_, d) = time(&mut f);
        if i >= warmup {
            total += d;
            counted += 1;
        }
    }
    total / counted
}

/// Rows surfacing a [`smoke_lineage::CaptureStats`] record (rid resizes,
/// edges written, lineage bytes) so a figure's table shows capture overhead
/// alongside latency, per the paper's overhead breakdowns.
pub fn capture_stat_rows(
    experiment: &str,
    config: &str,
    technique: &str,
    stats: &smoke_lineage::CaptureStats,
) -> Vec<ExpRow> {
    vec![
        ExpRow::new(
            experiment,
            config,
            technique,
            "rid_resizes",
            stats.rid_resizes as f64,
        ),
        ExpRow::new(experiment, config, technique, "edges", stats.edges as f64),
        ExpRow::new(
            experiment,
            config,
            technique,
            "lineage_bytes",
            stats.lineage_bytes as f64,
        ),
    ]
}

/// Relative overhead of `instrumented` versus `baseline` (e.g. `0.7` means
/// 1.7× the baseline latency).
pub fn overhead(instrumented: Duration, baseline: Duration) -> f64 {
    if baseline.is_zero() {
        return f64::INFINITY;
    }
    (instrumented.as_secs_f64() - baseline.as_secs_f64()) / baseline.as_secs_f64()
}

/// Duration in fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Renders rows as an aligned text table.
pub fn render_table(rows: &[ExpRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:<34} {:<22} {:<16} {:>12}\n",
        "exp", "config", "technique", "metric", "value"
    ));
    out.push_str(&"-".repeat(96));
    out.push('\n');
    for row in rows {
        out.push_str(&format!(
            "{:<8} {:<34} {:<22} {:<16} {:>12.3}\n",
            row.experiment, row.config, row.technique, row.metric, row.value
        ));
    }
    out
}

/// Scaling knobs shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Multiplier applied to every default dataset size.
    pub factor: f64,
    /// Timed runs per measurement.
    pub runs: usize,
    /// Warm-up runs excluded from the mean.
    pub warmup: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            factor: 1.0,
            runs: 3,
            warmup: 1,
        }
    }
}

impl Scale {
    /// A scale suitable for unit tests and CI smoke runs.
    pub fn tiny() -> Self {
        Scale {
            factor: 0.05,
            runs: 1,
            warmup: 0,
        }
    }

    /// Scales a default size by the factor (never below `min`).
    pub fn size(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.factor) as usize).max(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_relative() {
        assert!(
            (overhead(Duration::from_millis(170), Duration::from_millis(100)) - 0.7).abs() < 1e-9
        );
        assert!(overhead(Duration::from_millis(1), Duration::ZERO).is_infinite());
    }

    #[test]
    fn time_avg_excludes_warmup() {
        let d = time_avg(3, 1, || std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
    }

    #[test]
    fn table_rendering_contains_all_rows() {
        let rows = vec![
            ExpRow::new("fig5", "n=10", "Smoke-I", "capture_ms", 1.5),
            ExpRow::new("fig5", "n=10", "Baseline", "capture_ms", 1.0),
        ];
        let table = render_table(&rows);
        assert!(table.contains("Smoke-I"));
        assert!(table.contains("Baseline"));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn scale_respects_minimum() {
        let s = Scale {
            factor: 0.001,
            ..Default::default()
        };
        assert_eq!(s.size(1000, 50), 50);
        let s = Scale::default();
        assert_eq!(s.size(1000, 50), 1000);
    }
}
