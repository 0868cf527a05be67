//! # sa-exec — the lineage-carrying columnar executor
//!
//! One executor runs every query:
//!
//! * [`open_stream`] compiles a [`sa_plan::LogicalPlan`] — sampling
//!   operators included — into a chunked, pull-based stream of columnar
//!   result tuples, carrying per-base-relation lineage through scans,
//!   samples, filters, joins and projections (Section 6.2 of the paper: the
//!   SBox needs only lineage ids and aggregate values).
//!   [`open_stream_partitioned`] splits the same stream into N disjoint,
//!   deterministic worker slices and [`open_shared_stream`] rides a shared
//!   circular scan. Online aggregation pulls it chunk by chunk; the
//!   one-shot batch estimator (`sa-online`'s `QueryBuilder::batch`) drains
//!   it, so one `(plan, seed)` gives one sample in every mode.
//! * [`layout_dims`] and [`BatchDimEval`] turn the `SELECT` list into the
//!   SBox's per-row `f` columns, and [`agg_results_from_report`] turns an
//!   estimate report into per-aggregate results with confidence intervals.
//! * [`exact_query`] and [`exact_group_query`] drain the sampling-free plan
//!   for ground truth.
//!
//! # Examples
//!
//! Stream a 50% Bernoulli sample chunk by chunk, then compare its scaled-up
//! SUM with the exact answer:
//!
//! ```
//! use sa_exec::{exact_query, open_stream, ExecOptions};
//! use sa_plan::{AggSpec, LogicalPlan};
//! use sa_sampling::SamplingMethod;
//! use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
//!
//! let mut catalog = Catalog::new();
//! let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
//! let mut b = TableBuilder::new("t", schema);
//! for _ in 0..1000 { b.push_row(&[Value::Float(2.0)]).unwrap(); }
//! catalog.register(b.finish().unwrap()).unwrap();
//!
//! // The aggregate's *input*, pulled in chunks with lineage.
//! let sampled = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
//! let mut stream = open_stream(&sampled, &catalog, &ExecOptions { seed: 7, ..Default::default() }).unwrap();
//! let mut rows = 0;
//! loop {
//!     let chunk = stream.next_batch(64).unwrap();
//!     if chunk.is_empty() { break; }
//!     assert_eq!(chunk.lineage.len(), 1); // one lineage column per relation
//!     rows += chunk.rows();
//! }
//! // Horvitz–Thompson: each kept row stands for 1/p rows.
//! let estimate = 2.0 * rows as f64 / 0.5;
//! let plan = sampled.aggregate(vec![AggSpec::sum(sa_expr::col("v"), "s")]);
//! let exact = exact_query(&plan, &catalog).unwrap();
//! assert_eq!(exact, vec![2000.0]);
//! assert!((estimate - exact[0]).abs() < 400.0);
//! ```

#![warn(missing_docs)]

pub mod approx;
pub mod columnar;
pub mod error;
pub mod options;
pub mod shared;
pub mod stream;

pub use approx::{
    agg_results_from_report, exact_group_query, exact_query, f_vector, layout_dims, AggResult,
    ApproxResult, BatchDimEval, DimLayout, GroupEstimate, GroupedApproxResult,
};
pub use columnar::{ColumnarChunk, Row};
pub use error::ExecError;
pub use options::{ExecOptions, ScanObs};
pub use shared::{SharedScanCursor, SharedScanStats, SharedTableScan};
pub use stream::{
    open_shared_stream, open_stream, open_stream_partitioned, shared_scan_ids, shared_scan_needs,
    shared_scan_table, ChunkStream, ProgressTree,
};

/// Crate-wide result alias.
pub type Result<T, E = ExecError> = std::result::Result<T, E>;
