//! Every workload end to end at 1 % of its rows: seconds, not minutes.

use std::path::Path;
use std::sync::Once;

use smoke_benchmark::harness::Args;
use smoke_benchmark::report::{END_TO_END, PER_LAYER};
use smoke_benchmark::workloads::WORKLOADS;
use smoke_benchmark::{confine_temp_files, parse_args, run, DEFAULT_SECONDS};
use smoke_planner::json::{parse, Json};

fn tiny(workload: &str, trace: bool) -> Args {
    static TMP: Once = Once::new();
    TMP.call_once(|| {
        confine_temp_files(&Path::new(env!("CARGO_MANIFEST_DIR")).join("out")).expect("out/tmp");
    });
    Args {
        workload: workload.to_string(),
        seed: 14,
        seconds: 0.2,
        trace,
        rows_scale: 0.01,
    }
}

#[test]
fn every_workload_reports_all_eight_end_to_end_metrics_and_matches_the_oracle() {
    for (name, _) in WORKLOADS {
        let (report, _) = run(&tiny(name, false)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.correct(), "{name}: {:?}", report.problems);
        assert_eq!(report.failed, 0, "{name}");
        assert!(report.attempted > 0, "{name}");
        for def in &END_TO_END {
            let value = report
                .end_to_end
                .get(def.name)
                .unwrap_or_else(|| panic!("{name} lacks {}", def.name));
            assert!(
                value.is_finite() && *value > 0.0,
                "{name} {} = {value}",
                def.name
            );
        }
        assert_eq!(report.end_to_end["trace_slo_frac"], 1.0, "{name}");
        let line = report.driver_line(false);
        for def in &END_TO_END {
            assert!(
                line.contains(&format!("\"{}\":{{\"value\":", def.name)),
                "{name}: {line}"
            );
        }
    }
}

#[test]
fn a_traced_run_reports_every_layer_metric_and_layer_self_times() {
    for (name, touched, bypassed) in [
        (
            "capture_ops",
            "lineage.backward_medges_per_s",
            "pager.pin_miss_us",
        ),
        ("plan_inproc", "planner.plan_us", "server.hit_rtt_us"),
        ("serve_mix", "server.hit_rtt_us", "pager.pin_miss_us"),
        ("paged_budget25", "pager.pin_miss_us", "server.hit_rtt_us"),
    ] {
        let (report, tracer) = run(&tiny(name, true)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.correct(), "{name}: {:?}", report.problems);
        let line = parse(&report.driver_line(true)).expect("driver line is JSON");
        let metrics = line.get("metrics").expect("metrics");
        for def in &PER_LAYER {
            let m = metrics
                .get(def.name)
                .unwrap_or_else(|| panic!("{name} lacks {}", def.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
        }
        assert!(
            report.per_layer[touched] > 0.0,
            "{name} exercises {touched}"
        );
        assert!(
            !report.per_layer.contains_key(bypassed),
            "{name} bypasses {bypassed}"
        );
        let spans = parse(&tracer.to_json(name).render()).expect("spans.json is JSON");
        assert!(
            spans
                .get("spans_recorded")
                .and_then(Json::as_i64)
                .unwrap_or(0)
                > 0
        );
        assert!(!spans
            .get("layer_self_time")
            .and_then(Json::as_arr)
            .expect("layers")
            .is_empty());
    }
}

#[test]
fn plan_inproc_sees_every_strategy_the_cost_model_can_choose() {
    let (report, _) = run(&tiny("plan_inproc", true)).expect("plan_inproc");
    for chosen in [
        "planner.chosen_eager_frac",
        "planner.chosen_pruned_frac",
        "planner.chosen_cube_frac",
    ] {
        assert!(report.per_layer[chosen] > 0.0, "{chosen}");
    }
    assert!(report.per_layer["planner.exec_lazy_ms"] > 0.0);
}

#[test]
fn benchmark_json_declares_what_the_registry_holds() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key}"))
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                )
            })
            .collect()
    };
    let registry = |defs: &[smoke_benchmark::report::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), registry(&END_TO_END));
    assert_eq!(names("per_layer"), registry(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS.map(|w| w.0.to_string()));
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
}

#[test]
fn the_driver_command_line_parses() {
    let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    let args = parse_args(&argv(
        "--workload serve_mix --seed 15 --seconds 20 --trace 0",
    ))
    .expect("driver form");
    assert_eq!(
        (args.workload.as_str(), args.seed, args.seconds, args.trace),
        ("serve_mix", 15, 20.0, false)
    );
    assert!(
        parse_args(&argv("--workload serve_mix --trace 1"))
            .expect("traced")
            .trace
    );
    assert!(
        parse_args(&argv("--workload serve_mix --trace"))
            .expect("bare flag")
            .trace
    );
    assert!(parse_args(&argv("--workload nope")).is_err());
    assert!(parse_args(&argv("--workload serve_mix --frobnicate")).is_err());
}
