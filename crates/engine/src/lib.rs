//! `pace-engine` — the in-memory SPJ query engine underneath the attack.
//!
//! Three responsibilities:
//!
//! * **Exact counting** ([`Executor`]): the attacker's `COUNT(*)` oracle and
//!   the source of training labels. Acyclic join graphs let a weighted
//!   semi-join aggregation produce exact join cardinalities in `O(rows)`.
//! * **Optimization** ([`optimize`]): left-deep DP join ordering under the
//!   `C_out` cost model, parameterized by any [`CardEstimator`] — learned or
//!   oracle.
//! * **Cost-simulated execution** ([`run_query`], [`total_latency`]): charges
//!   a chosen plan its *true* intermediate cardinalities, reproducing how
//!   cardinality misestimates degrade end-to-end latency (paper Table 5).
//! * **Traditional estimators** ([`HistogramEstimator`],
//!   [`SamplingEstimator`]): the pre-learned-CE baselines the paper motivates
//!   against — and, because they never train on queries, the natural control
//!   group for poisoning experiments.
//!
//! # Example
//!
//! ```
//! use pace_data::{build, DatasetKind, Scale};
//! use pace_engine::{Executor, OracleEstimator, run_query, CostModel};
//! use pace_workload::Query;
//!
//! let ds = build(DatasetKind::Tpch, Scale::tiny(), 1);
//! let exec = Executor::new(&ds);
//! let q = Query::new(vec![ds.schema.table("orders"), ds.schema.table("lineitem")], vec![]);
//! let truth = exec.count(&q);
//! let est = OracleEstimator::new(Executor::new(&ds));
//! let report = run_query(&q, &exec, &est, &CostModel::default());
//! assert!(report.true_work >= truth as f64);
//! ```

#![warn(missing_docs)]

mod count;
mod estimator;
mod exec;
mod optimizer;
mod traditional;

pub use count::{ln_max_cardinality, naive_count, Executor, COUNT_BATCH_GRAIN};
pub use estimator::{CardEstimator, OracleEstimator, ScaledEstimator};
pub use exec::{run_plan, run_query, total_latency, CostModel, ExecutionReport};
pub use optimizer::{optimize, JoinOp, Plan, INDEX_LOOKUP_COST};
pub use traditional::{HistogramEstimator, SamplingEstimator};
