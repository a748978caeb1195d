//! The metric registry (what `BENCHMARK.json` declares) and the run report.
//!
//! The last line a run prints is the four-key object the driver reads; the
//! full report — `env` block, every metric with its unit, per-replicate raw
//! values, operation counts — goes to `out/<workload>.report.json` and, in
//! brief, to standard error.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Better;

/// A JSON value with its own writer: the benchmark's output must not depend
/// on the encoder it measures (`smoke_planner::json`).
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> J {
        J::Arr(values.iter().map(|&v| J::Num(v)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // Rust prints the shortest decimal that round-trips: every digit
            // that was measured, none that was not.
            J::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            J::Num(_) => out.push_str("null"),
            J::Str(s) => {
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
            }
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    J::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The eight end-to-end metrics, reported on every workload by the untraced
/// run. Bounds live in `BENCHMARK.json` (they come from `AA.md`).
pub const END_TO_END: [MetricDef; 8] = [
    lo("setup_s", "s"),
    hi("capture_mrows_per_s", "Mrows/s"),
    lo("trace_p50_ms", "ms"),
    lo("trace_p95_ms", "ms"),
    hi("trace_qps", "1/s"),
    hi("trace_slo_frac", "fraction"),
    lo("lineage_bytes_per_edge", "bytes"),
    lo("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, reported by the traced run. A workload that never
/// reaches a layer reports 0 for it: that zero is the "bypasses" half of the
/// exercise/bypass pairing, not a measurement.
pub const PER_LAYER: [MetricDef; 80] = [
    hi("core.groupby_base_mrows_per_s", "Mrows/s"),
    hi("core.groupby_inject_mrows_per_s", "Mrows/s"),
    hi("core.groupby_defer_mrows_per_s", "Mrows/s"),
    hi("core.select_base_mrows_per_s", "Mrows/s"),
    hi("core.select_inject_mrows_per_s", "Mrows/s"),
    hi("core.join_base_mrows_per_s", "Mrows/s"),
    hi("core.join_inject_mrows_per_s", "Mrows/s"),
    hi("core.plan_base_mrows_per_s", "Mrows/s"),
    hi("core.plan_inject_mrows_per_s", "Mrows/s"),
    lo("core.capture_overhead_x", "x"),
    hi("core.capture_med_mrows_per_s", "Mrows/s"),
    hi("core.groupby_workload_mrows_per_s", "Mrows/s"),
    hi("core.par_groupby_dop2_mrows_per_s", "Mrows/s"),
    hi("core.par_select_dop2_mrows_per_s", "Mrows/s"),
    hi("core.paged_groupby_mrows_per_s", "Mrows/s"),
    hi("core.paged_join_mrows_per_s", "Mrows/s"),
    lo("core.grace_partitions", "count"),
    hi("core.filter_rids_mrids_per_s", "Mrids/s"),
    hi("core.consume_agg_mrows_per_s", "Mrows/s"),
    lo("core.lazy_backward_ms", "ms"),
    hi("lineage.finalize_medges_per_s", "Medges/s"),
    lo("lineage.rid_resizes_per_mrow", "count"),
    lo("lineage.csr_bytes_per_edge", "bytes"),
    hi("lineage.backward_medges_per_s", "Medges/s"),
    lo("lineage.forward_lookup_ns", "ns"),
    hi("lineage.compose_medges_per_s", "Medges/s"),
    lo("lineage.edges_per_query", "count"),
    hi("lineage.compressed_spill_medges_per_s", "Medges/s"),
    hi("lineage.compressed_lookup_medges_per_s", "Medges/s"),
    lo("lineage.compressed_ratio", "fraction"),
    hi("storage.kernel_cmp_mrows_per_s", "Mrows/s"),
    hi("storage.spill_mrows_per_s", "Mrows/s"),
    hi("storage.chunk_mrows_per_s", "Mrows/s"),
    lo("storage.gather_warm_ns_per_rid", "ns"),
    lo("storage.gather_cold_ns_per_rid", "ns"),
    lo("storage.pages_touched_per_query", "count"),
    lo("pager.pin_hit_ns", "ns"),
    lo("pager.pin_miss_us", "us"),
    hi("pager.capture_hit_frac", "fraction"),
    hi("pager.trace_hit_frac", "fraction"),
    lo("pager.disk_reads_per_query", "count"),
    lo("pager.evictions_per_query", "count"),
    hi("pager.prefetch_hit_frac", "fraction"),
    lo("pager.prefetch_wasted_per_query", "count"),
    lo("pager.prefetch_on_p50_ms", "ms"),
    lo("planner.plan_us", "us"),
    lo("planner.exec_eager_ms", "ms"),
    lo("planner.exec_pruned_ms", "ms"),
    lo("planner.exec_cube_ms", "ms"),
    lo("planner.exec_lazy_ms", "ms"),
    hi("planner.chosen_eager_frac", "fraction"),
    hi("planner.chosen_pruned_frac", "fraction"),
    hi("planner.chosen_cube_frac", "fraction"),
    hi("planner.chosen_lazy_frac", "fraction"),
    lo("planner.rids_per_result", "count"),
    lo("planner.est_pages_over_touched", "x"),
    lo("planner.spec_decode_us", "us"),
    lo("planner.cache_key_us", "us"),
    hi("planner.result_encode_mib_per_s", "MiB/s"),
    hi("planner.result_decode_mib_per_s", "MiB/s"),
    lo("server.stats_rtt_us", "us"),
    lo("server.explain_rtt_us", "us"),
    lo("server.hit_rtt_us", "us"),
    lo("server.miss_rtt_us", "us"),
    hi("server.cache_hit_frac", "fraction"),
    lo("server.cache_evictions_per_kquery", "count"),
    lo("server.shed_frac", "fraction"),
    lo("server.error_frac", "fraction"),
    lo("server.reply_kib_per_query", "KiB"),
    lo("server.cache_get_us", "us"),
    lo("server.cache_insert_us", "us"),
    lo("server.build_snapshot_ms", "ms"),
    lo("server.unexplained_us", "us"),
    lo("bench.trace_overhead_frac", "fraction"),
    hi("bench.p50_class_purity", "fraction"),
    hi("bench.p95_class_purity", "fraction"),
    lo("bench.replicate_spread_frac", "fraction"),
    lo("bench.trace_p50_med_ms", "ms"),
    lo("bench.trace_p95_med_ms", "ms"),
    hi("bench.trace_qps_med", "1/s"),
];

/// Everything one run found out.
#[derive(Debug, Default)]
pub struct Report {
    pub env: Vec<(String, J)>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Per-replicate raw values, so the spread stays visible.
    pub replicates: Vec<(String, Vec<f64>)>,
    /// Anything else worth a line: setup segments, estimator, class table.
    pub notes: Vec<(String, J)>,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches and class-purity failures: the run is not correct.
    pub problems: Vec<String>,
    /// Set when `--rows-scale` is not 1: the class plateaus are a property of
    /// the full-size data, so purity is reported but not enforced.
    pub scaled_down: bool,
}

fn registered(defs: &[MetricDef], name: &str) -> &'static str {
    defs.iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"))
        .name
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.end_to_end.insert(registered(&END_TO_END, name), value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.insert(registered(&PER_LAYER, name), value);
    }

    pub fn replicate_values(&mut self, name: impl Into<String>, values: &[f64]) {
        self.replicates.push((name.into(), values.to_vec()));
    }

    pub fn note(&mut self, name: impl Into<String>, value: J) {
        self.notes.push((name.into(), value));
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn metric_obj(defs: &[MetricDef], values: &BTreeMap<&'static str, f64>, fill: bool) -> J {
        J::Obj(
            defs.iter()
                .filter_map(|d| {
                    let value = match values.get(d.name) {
                        Some(&v) => v,
                        None if fill => 0.0,
                        None => return None,
                    };
                    Some((
                        d.name.to_string(),
                        J::obj([("value", J::Num(value)), ("unit", J::str(d.unit))]),
                    ))
                })
                .collect(),
        )
    }

    /// The metrics object of the driver line: every end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one.
    pub fn driver_metrics(&self, traced: bool) -> J {
        if traced {
            Report::metric_obj(&PER_LAYER, &self.per_layer, true)
        } else {
            Report::metric_obj(&END_TO_END, &self.end_to_end, false)
        }
    }

    /// The one line the driver parses.
    pub fn driver_line(&self, traced: bool) -> String {
        J::obj([
            ("correct", J::Bool(self.correct())),
            ("attempted", J::Int(self.attempted.max(1) as i64)),
            ("failed", J::Int(self.failed as i64)),
            ("metrics", self.driver_metrics(traced)),
        ])
        .render()
    }

    /// The full report document.
    pub fn to_json(&self, traced: bool) -> J {
        J::obj([
            ("env", J::Obj(self.env.clone())),
            ("traced", J::Bool(traced)),
            ("correct", J::Bool(self.correct())),
            ("attempted", J::Int(self.attempted as i64)),
            ("failed", J::Int(self.failed as i64)),
            (
                "problems",
                J::Arr(self.problems.iter().map(J::str).collect()),
            ),
            (
                "end_to_end",
                Report::metric_obj(&END_TO_END, &self.end_to_end, false),
            ),
            (
                "per_layer",
                Report::metric_obj(&PER_LAYER, &self.per_layer, traced),
            ),
            (
                "replicates",
                J::Obj(
                    self.replicates
                        .iter()
                        .map(|(k, v)| (k.clone(), J::nums(v)))
                        .collect(),
                ),
            ),
            ("notes", J::Obj(self.notes.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_compactly_and_escapes() {
        let j = J::obj([
            ("a", J::Int(-3)),
            ("b", J::Num(1.25)),
            ("c", J::str("x\"y\n")),
            ("d", J::Arr(vec![J::Null, J::Bool(true)])),
            ("e", J::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a":-3,"b":1.25,"c":"x\"y\n","d":[null,true],"e":null}"#
        );
        // Small values keep every digit and never switch to exponents.
        assert_eq!(J::Num(0.000_012_345).render(), "0.000012345");
    }

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn driver_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        for d in &END_TO_END {
            r.e2e(d.name, 1.5);
        }
        r.attempted = 10;
        let line = r.driver_line(false);
        assert!(line.starts_with(r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}"#));
        let traced = r.driver_line(true);
        assert!(traced.contains(r#""pager.pin_miss_us":{"value":0,"unit":"us"}"#));
        assert!(!traced.contains("setup_s"));
    }
}
