//! # smoke-core
//!
//! The Smoke query engine (Psallidas & Wu, VLDB 2018): an in-memory
//! relational engine whose physical operators tightly integrate fine-grained
//! lineage capture, plus the baseline capture techniques and workload-aware
//! optimizations the paper evaluates against. Operators run row-at-a-time
//! over typed columns (the paper's reference form) with every predicate
//! evaluated by compiled column [`kernels`]; group-by also runs
//! morsel-parallel with per-thread capture ([`parallel`]).
//!
//! The crate is organised around the paper's structure:
//!
//! * [`ops`] — the instrumented physical algebra (§3.2);
//! * [`plan`] / [`exec`] — logical plans and multi-operator execution with
//!   end-to-end lineage propagation (§3.3);
//! * [`instrument`] / [`workload`] — capture modes, pruning, and the
//!   push-down / data-skipping optimizations (§4);
//! * [`query`] / [`lazy`] — lineage and lineage-consuming query evaluation
//!   over indexes vs. lazy rewrites (§2.1, §6.3, §6.4);
//! * [`baselines`] — the logical (Perm-style) and physical (virtual-call /
//!   external-store) capture baselines (§5, Table 1, Appendix B).
//!
//! ```
//! use smoke_core::{AggExpr, CaptureMode, Executor, PlanBuilder};
//! use smoke_storage::{Database, DataType, Relation, Value};
//!
//! let mut db = Database::new();
//! db.register(
//!     Relation::builder("zipf")
//!         .column("z", DataType::Int)
//!         .column("v", DataType::Float)
//!         .row(vec![Value::Int(1), Value::Float(2.0)])
//!         .row(vec![Value::Int(1), Value::Float(3.0)])
//!         .row(vec![Value::Int(2), Value::Float(4.0)])
//!         .build()
//!         .unwrap(),
//! )
//! .unwrap();
//!
//! let plan = PlanBuilder::scan("zipf")
//!     .group_by(&["z"], vec![AggExpr::sum("v", "total")])
//!     .build();
//! let out = Executor::new(CaptureMode::Inject).execute(&plan, &db).unwrap();
//! assert_eq!(out.lineage.backward(&[0], "zipf"), vec![0, 1]);
//! assert_eq!(out.lineage.forward(&[2], "zipf"), vec![1]);
//! ```

#![warn(missing_docs)]

pub mod agg;
pub mod baselines;
mod error;
pub mod exec;
pub mod expr;
pub mod failpoint;
mod hash;
pub mod instrument;
pub mod kernels;
pub mod key;
pub mod lazy;
pub mod ops;
pub mod paged;
pub mod parallel;
pub mod plan;
pub mod query;
pub mod workload;

pub use agg::{microbenchmark_aggs, AggExpr, AggFunc, AggState};
pub use error::{EngineError, Result};
pub use exec::{check_lineage_round_trip, execute_baseline, Executor, QueryOutput};
pub use expr::{ArithOp, CmpOp, Expr};
pub use instrument::{
    AggPushdown, CaptureConfig, CaptureMode, CardinalityHints, DirectionFilter, WorkloadOptions,
};
pub use kernels::KernelPlan;
pub use key::{HashKey, KeyExtractor};
pub use paged::{paged_group_by, paged_hash_join, paged_select};
pub use parallel::{par_group_by, par_select, ParallelOptions};
pub use plan::{LogicalPlan, PlanBuilder};
pub use workload::{LineageCube, WorkloadArtifacts};
