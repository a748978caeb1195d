//! The four workloads. Each stresses different layers, so that for every
//! optimisation one workload exercises its mechanism and another bypasses it.

use std::time::{Duration, Instant};

use smoke_lineage::{InputLineage, OperatorLineage};
use smoke_storage::{Column, DataType, Field, Relation, Schema};

use crate::gen::{Fact, Fnv64};
use crate::harness::{repeat_until, Args, Window};
use crate::report::{Report, J};
use crate::stats;
use crate::trace::Tracer;

pub mod capture_ops;
pub mod paged_budget25;
pub mod plan_inproc;
pub mod serve_mix;
pub mod views;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// `(name, why)` of every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "capture_ops",
        "one thread, resident: core operators and lineage index writes/reads do all the work; planner, server and pager are bypassed",
    ),
    (
        "plan_inproc",
        "one thread, Snapshot::execute in-process: planning, strategy choice and kernels dominate narrow queries; no socket, no JSON, no cache",
    ),
    (
        "serve_mix",
        "two closed-loop TCP clients: frame I/O, JSON, result cache and queue hand-off dominate; the only workload with concurrency and cache hits",
    ),
    (
        "paged_budget25",
        "base table 4x an 8 MiB in-memory-backed pool, one thread: pager, paged storage and compressed lineage do the work; every other workload is resident and bypasses them",
    ),
];

pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Seconds of the fastest of `reps` calls of `f`: how the traced run times a
/// layer probe that is not part of a timed phase.
pub fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| timed(&mut f).1.as_secs_f64())
        .fold(f64::INFINITY, f64::min)
}

/// The part of `--seconds` a phase may spend.
pub fn budget(args: &Args, share: f64) -> Duration {
    Duration::from_secs_f64(args.seconds * share)
}

/// Moves the lineage of one operator input out of its result.
pub fn take_lineage(lineage: &mut OperatorLineage, input: usize) -> InputLineage {
    std::mem::take(lineage.input_mut(input))
}

/// Copies of the first `head` generated fact rows as storage columns
/// (the copy is the benchmark's cost; loading them is the program's).
pub fn fact_columns(fact: &Fact, head: usize) -> Vec<Column> {
    vec![
        Column::Int(fact.id[..head].to_vec()),
        Column::Int(fact.z[..head].to_vec()),
        Column::Float(fact.v[..head].to_vec()),
        Column::Int(fact.v_bin[..head].to_vec()),
    ]
}

pub fn fact_relation(name: &str, columns: Vec<Column>) -> Res<Relation> {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("z", DataType::Int),
        Field::new("v", DataType::Float),
        Field::new("v_bin", DataType::Int),
    ])?;
    Ok(Relation::from_columns(name, schema, columns)?)
}

/// Maps each value of an integer key column of `output` to its output rid.
pub fn out_rids(output: &Relation, column: &str, domain: usize) -> Res<Vec<u32>> {
    let mut out = vec![u32::MAX; domain];
    for (rid, &key) in output.column_by_name(column)?.as_int().iter().enumerate() {
        out[key as usize] = rid as u32;
    }
    Ok(out)
}

/// Records what the inputs were: their fingerprint and their size.
pub fn describe_inputs(report: &mut Report, print: Fnv64, rows: usize, groups: usize) {
    let print = format!("{:016x}", print.finish());
    report.env.push(("inputs_fnv64".into(), J::str(print)));
    report.env.push(("rows".into(), J::Int(rows as i64)));
    report.env.push(("groups".into(), J::Int(groups as i64)));
}

/// The trace phase: replays `window` until `budget` is spent. A traced run
/// records spans on every other window, so the same process yields the
/// untraced windows (returned first; the end-to-end metrics come from them)
/// and the rate of the traced ones.
pub fn trace_phase(
    budget: Duration,
    tracer: &mut Tracer,
    mut window: impl FnMut(&mut Tracer) -> Window,
) -> (Vec<Window>, Vec<f64>) {
    let traced = tracer.enabled();
    let mut windows = Vec::new();
    let mut traced_qps = Vec::new();
    let _: Result<(), std::convert::Infallible> = repeat_until(budget, |rep| {
        tracer.set_enabled(traced && rep % 2 == 1);
        let w = window(tracer);
        if tracer.enabled() {
            traced_qps.push(w.qps);
        } else {
            windows.push(w);
        }
        Ok(())
    });
    tracer.set_enabled(traced);
    (windows, traced_qps)
}

/// `bench.trace_overhead_frac`: the traced run alternates untraced and traced
/// windows of the same script; the overhead is the rate they lose.
pub fn trace_overhead(report: &mut Report, untraced: &[Window], traced_qps: &[f64]) {
    let plain: Vec<f64> = untraced.iter().map(|w| w.qps).collect();
    if plain.is_empty() || traced_qps.is_empty() {
        return;
    }
    report.layer(
        "bench.trace_overhead_frac",
        1.0 - stats::median(traced_qps) / stats::median(&plain),
    );
}
