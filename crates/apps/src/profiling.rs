//! Data profiling over lineage (paper §6.5.2).
//!
//! Task: given a functional dependency `A → B` over a table `T`, find the
//! distinct values of `A` that violate the FD and build a bipartite graph
//! connecting each violation `a` with the tuples `{t ∈ T | t.A = a}`.
//!
//! * `Smoke-CD` — run `SELECT A FROM T GROUP BY A HAVING COUNT(DISTINCT B) >
//!   1` with Inject capture; the backward index of the violating groups *is*
//!   the bipartite graph.
//! * `Smoke-UG` — UGuide's algorithm expressed in lineage terms: compute
//!   `SELECT DISTINCT A` and `SELECT DISTINCT B` with capture, backward-trace
//!   each distinct `A` value to `T` and forward-trace the resulting tuples to
//!   the distinct-`B` view; more than one distinct `B` output means a
//!   violation.
//! * `Metanome-UG` — the same UG algorithm, but with the overheads the paper
//!   attributes to the Metanome/UGuide implementation: lineage edges are
//!   emitted through virtual calls, and every attribute is modeled as a
//!   string (so uniqueness checks pay string-handling costs even for integer
//!   columns such as NPI).

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use smoke_core::baselines::physical::{LineageSink, PhysMemSink};
use smoke_core::ops::groupby::{group_by, GroupByOptions};
use smoke_core::{AggExpr, Result};
use smoke_datagen::physician::FunctionalDependency;
use smoke_lineage::InputLineage;
use smoke_planner::{LineagePlanner, LineageQuery};
use smoke_storage::{Column, DataType, Field, Relation, Rid, Schema};

/// The data-profiling techniques compared in the paper's Figure 15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfilingTechnique {
    /// `Smoke-CD`: group-by A having COUNT(DISTINCT B) > 1.
    SmokeCd,
    /// `Smoke-UG`: per-attribute distinct views plus backward/forward traces.
    SmokeUg,
    /// `Metanome-UG`: UG with virtual-call capture and all-string values.
    MetanomeUg,
}

/// The violations of one FD plus the bipartite graph connecting them to the
/// tuples responsible.
#[derive(Debug, Clone)]
pub struct FdViolationReport {
    /// The checked functional dependency.
    pub fd: FunctionalDependency,
    /// The violating left-hand-side values (rendered as group keys), sorted.
    pub violations: Vec<String>,
    /// For every violating value, the rids of the tuples with that value.
    pub bipartite: HashMap<String, Vec<Rid>>,
    /// Wall-clock time to evaluate the FD and build the graph.
    pub elapsed: Duration,
}

impl FdViolationReport {
    /// Number of violating left-hand-side values.
    pub fn violation_count(&self) -> usize {
        self.violations.len()
    }

    /// Total number of edges in the bipartite graph.
    pub fn edge_count(&self) -> usize {
        self.bipartite.values().map(Vec::len).sum()
    }
}

/// Checks a functional dependency with the chosen technique.
pub fn check_fd(
    table: &Relation,
    fd: &FunctionalDependency,
    technique: ProfilingTechnique,
) -> Result<FdViolationReport> {
    let start = Instant::now();
    let mut report = match technique {
        ProfilingTechnique::SmokeCd => check_cd(table, fd)?,
        ProfilingTechnique::SmokeUg => check_ug(table, fd, false)?,
        ProfilingTechnique::MetanomeUg => check_ug(table, fd, true)?,
    };
    report.elapsed = start.elapsed();
    Ok(report)
}

/// `Smoke-CD`: one instrumented group-by on the determinant column; the
/// violating groups' backward traces (the bipartite graph edges) are served
/// as one planner batch, which fans the per-violation rid sets out over
/// `std::thread` workers.
fn check_cd(table: &Relation, fd: &FunctionalDependency) -> Result<FdViolationReport> {
    let result = group_by(
        table,
        std::slice::from_ref(&fd.lhs),
        &[AggExpr::count_distinct(&fd.rhs, "distinct_rhs")],
        &GroupByOptions::inject(),
    )?;
    let distinct_col = result.output.column_by_name("distinct_rhs")?.as_int();

    let mut violations = Vec::new();
    let mut violating_sets: Vec<Vec<Rid>> = Vec::new();
    for (gid, &distinct) in distinct_col.iter().enumerate() {
        if distinct > 1 {
            violations.push(result.output.value(gid, 0).group_key());
            violating_sets.push(vec![gid as Rid]);
        }
    }
    let planner = LineagePlanner::new(table, &result.output)
        .backward_index(result.lineage.input(0).backward());
    let traced = planner.execute_batch(&LineageQuery::backward(), &violating_sets)?;
    let bipartite: HashMap<String, Vec<Rid>> = violations.iter().cloned().zip(traced).collect();
    violations.sort();
    Ok(FdViolationReport {
        fd: fd.clone(),
        violations,
        bipartite,
        elapsed: Duration::ZERO,
    })
}

/// `Smoke-UG` / `Metanome-UG`: distinct views per attribute plus traces.
fn check_ug(
    table: &Relation,
    fd: &FunctionalDependency,
    metanome: bool,
) -> Result<FdViolationReport> {
    // Q_{ug,A} and Q_{ug,B}: SELECT DISTINCT attr FROM T, with lineage.
    let lhs_view = distinct_with_lineage(table, &fd.lhs, metanome)?;
    let rhs_view = distinct_with_lineage(table, &fd.rhs, metanome)?;

    // Backward trace every distinct A value to its base tuples in one
    // planner batch (parallel across distinct values).
    let planner =
        LineagePlanner::new(table, &lhs_view.output).backward_index(lhs_view.lineage.backward());
    let sets: Vec<Vec<Rid>> = (0..lhs_view.len() as Rid).map(|a| vec![a]).collect();
    let all_tuples = planner.execute_batch(&LineageQuery::backward(), &sets)?;

    let mut violations = Vec::new();
    let mut bipartite = HashMap::new();
    for (a, tuples) in all_tuples.into_iter().enumerate() {
        // ...then forward trace each tuple to the distinct-B view and count
        // distinct B outputs.
        let mut distinct_b: BTreeSet<Rid> = BTreeSet::new();
        for &rid in &tuples {
            if let Some(b) = rhs_view.forward(rid) {
                distinct_b.insert(b);
            }
            if distinct_b.len() > 1 && !metanome {
                // Smoke-UG can stop as soon as a second distinct value shows
                // up; the Metanome-style implementation materializes the full
                // set (string-keyed) before checking.
                break;
            }
        }
        if metanome {
            // Model Metanome's all-strings data model: uniqueness is checked
            // over stringified values rather than rid-encoded outputs.
            let string_values: BTreeSet<String> = tuples
                .iter()
                .map(|&rid| table.value(rid as usize, rhs_view.column_index).group_key())
                .collect();
            if string_values.len() <= 1 {
                continue;
            }
        } else if distinct_b.len() <= 1 {
            continue;
        }
        let key = lhs_view.key(a);
        bipartite.insert(key.clone(), tuples);
        violations.push(key);
    }
    violations.sort();
    Ok(FdViolationReport {
        fd: fd.clone(),
        violations,
        bipartite,
        elapsed: Duration::ZERO,
    })
}

/// A `SELECT DISTINCT attr` view plus lineage, optionally captured through
/// the virtual-call sink (Metanome simulation).
///
/// The distinct values live only in the output relation's first column; keys
/// are rendered on demand instead of being duplicated in a parallel vector.
struct DistinctView {
    /// The distinct view's output relation (one row per distinct value).
    output: Relation,
    column_index: usize,
    /// Both directions, moved out of the capture.
    lineage: InputLineage,
}

impl DistinctView {
    /// Number of distinct values.
    fn len(&self) -> usize {
        self.output.len()
    }

    /// The group key of the `a`-th distinct value.
    fn key(&self, a: usize) -> String {
        self.output.value(a, 0).group_key()
    }

    fn forward(&self, rid: Rid) -> Option<Rid> {
        self.lineage.forward().lookup(rid).first().copied()
    }
}

fn distinct_with_lineage(table: &Relation, attr: &str, metanome: bool) -> Result<DistinctView> {
    let column_index = table.column_index(attr)?;
    if metanome {
        // Build the distinct view while emitting every lineage edge through a
        // dyn sink, as the physical baselines do; group keys are strings.
        let mut sink = PhysMemSink::new();
        let mut key_to_gid: HashMap<String, Rid> = HashMap::new();
        let mut output_keys: Vec<String> = Vec::new();
        for rid in 0..table.len() {
            let key = table.value(rid, column_index).group_key();
            let gid = match key_to_gid.get(&key) {
                Some(&g) => g,
                None => {
                    let g = output_keys.len() as Rid;
                    key_to_gid.insert(key.clone(), g);
                    output_keys.push(key);
                    g
                }
            };
            let sink_dyn: &mut dyn LineageSink = &mut sink;
            sink_dyn.emit_backward(gid, rid as Rid);
            sink_dyn.emit_forward(rid as Rid, gid);
        }
        let lineage = sink.into_lineage("table").remove("table");
        // Metanome models every attribute as a string; the collected keys
        // move into the relation's column without re-allocation.
        let schema = Schema::new(vec![Field::new(attr.to_string(), DataType::Str)])?;
        let output = Relation::from_columns(
            format!("distinct({attr})"),
            schema,
            vec![Column::Str(output_keys)],
        )?;
        Ok(DistinctView {
            output,
            column_index,
            lineage: lineage.expect("registered above"),
        })
    } else {
        let mut result = group_by(table, &[attr.to_string()], &[], &GroupByOptions::inject())?;
        Ok(DistinctView {
            lineage: std::mem::take(result.lineage.input_mut(0)),
            output: result.output,
            column_index,
        })
    }
}

/// Checks all FDs of the paper with one technique, returning the per-FD
/// reports in order (the two-level bipartite graph of the paper's task).
pub fn check_all_fds(
    table: &Relation,
    fds: &[FunctionalDependency],
    technique: ProfilingTechnique,
) -> Result<Vec<FdViolationReport>> {
    fds.iter()
        .map(|fd| check_fd(table, fd, technique))
        .collect()
}

/// Utility: ground-truth violating LHS values computed with plain hash maps
/// (used by tests to validate every technique).
pub fn reference_violations(table: &Relation, fd: &FunctionalDependency) -> Vec<String> {
    let lhs = table.column_by_name(&fd.lhs).expect("lhs exists");
    let rhs = table.column_by_name(&fd.rhs).expect("rhs exists");
    let mut map: HashMap<String, BTreeSet<String>> = HashMap::new();
    for rid in 0..table.len() {
        map.entry(lhs.value(rid).group_key())
            .or_default()
            .insert(rhs.value(rid).group_key());
    }
    let mut out: Vec<String> = map
        .into_iter()
        .filter(|(_, v)| v.len() > 1)
        .map(|(k, _)| k)
        .collect();
    out.sort();
    out
}

/// Convenience check used by examples: whether a tuple participates in any
/// violation of the given report.
pub fn tuple_is_suspect(report: &FdViolationReport, rid: Rid) -> bool {
    report.bipartite.values().any(|rids| rids.contains(&rid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_datagen::physician::{paper_fds, PhysicianSpec};
    use smoke_storage::{DataType, Value};

    fn table() -> Relation {
        PhysicianSpec {
            rows: 8_000,
            practices: 400,
            violation_rate: 0.05,
            seed: 3,
        }
        .generate()
    }

    #[test]
    fn all_techniques_find_the_same_violations() {
        let t = table();
        for fd in paper_fds() {
            let expected = reference_violations(&t, &fd);
            for technique in [
                ProfilingTechnique::SmokeCd,
                ProfilingTechnique::SmokeUg,
                ProfilingTechnique::MetanomeUg,
            ] {
                let report = check_fd(&t, &fd, technique).unwrap();
                assert_eq!(report.violations, expected, "{fd:?} with {technique:?}");
            }
        }
    }

    #[test]
    fn bipartite_graph_connects_violations_to_their_tuples() {
        let t = table();
        let fd = FunctionalDependency::new("zip", "state");
        let report = check_fd(&t, &fd, ProfilingTechnique::SmokeCd).unwrap();
        let zip_col = t.column_by_name("zip").unwrap();
        for violation in &report.violations {
            let rids = &report.bipartite[violation];
            assert!(!rids.is_empty());
            for &rid in rids {
                assert_eq!(&zip_col.value(rid as usize).group_key(), violation);
            }
            // Every tuple with this zip is in the graph.
            let expected: usize = (0..t.len())
                .filter(|&rid| &zip_col.value(rid).group_key() == violation)
                .count();
            assert_eq!(rids.len(), expected);
        }
        assert_eq!(
            report.edge_count(),
            report.bipartite.values().map(Vec::len).sum()
        );
    }

    #[test]
    fn clean_table_has_no_violations() {
        let t = PhysicianSpec {
            rows: 2_000,
            practices: 100,
            violation_rate: 0.0,
            seed: 9,
        }
        .generate();
        for technique in [
            ProfilingTechnique::SmokeCd,
            ProfilingTechnique::SmokeUg,
            ProfilingTechnique::MetanomeUg,
        ] {
            let report =
                check_fd(&t, &FunctionalDependency::new("zip", "state"), technique).unwrap();
            assert_eq!(report.violation_count(), 0);
        }
    }

    #[test]
    fn check_all_fds_reports_in_order() {
        let t = table();
        let reports = check_all_fds(&t, &paper_fds(), ProfilingTechnique::SmokeUg).unwrap();
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].fd.lhs, "npi");
        assert_eq!(reports[3].fd.lhs, "lbn");
    }

    #[test]
    fn tuple_suspect_helper() {
        let mut b = Relation::builder("t")
            .column("a", DataType::Str)
            .column("b", DataType::Str);
        for (a, v) in [("x", "1"), ("x", "2"), ("y", "3")] {
            b = b.row(vec![Value::Str(a.into()), Value::Str(v.into())]);
        }
        let t = b.build().unwrap();
        let report = check_fd(
            &t,
            &FunctionalDependency::new("a", "b"),
            ProfilingTechnique::SmokeCd,
        )
        .unwrap();
        assert_eq!(report.violations, vec!["x".to_string()]);
        assert!(tuple_is_suspect(&report, 0));
        assert!(tuple_is_suspect(&report, 1));
        assert!(!tuple_is_suspect(&report, 2));
    }
}
