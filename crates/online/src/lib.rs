//! # sa-online — online aggregation: engine, sessions, stopping rules
//!
//! The paper's estimator was built to power *online aggregation*: Section
//! 6.2's lineage-carrying plans exist precisely so the SBox can be fed
//! incrementally, with unbiased estimates and confidence intervals that
//! tighten as sample tuples arrive. This crate closes that loop behind one
//! serving-shaped API:
//!
//! * an **[`Engine`]** owns the catalog and the serving policy (default
//!   [`QueryOptions`], stable per-session seeds, admission control, shared
//!   scan hubs) and hands out [`Session`]s;
//! * `session.query(sql).within(eps, gamma).seed(s)` builds a query with
//!   one fluent surface ([`QueryBuilder`]); `GROUP BY` decides scalar vs.
//!   grouped — the result is a [`Snapshot`] variant, not a separate entry
//!   point;
//! * `.run()` / `.run_with(cb)` execute synchronously; `.online()` returns
//!   a [`QueryHandle`] with a snapshot iterator, cancellation
//!   ([`StopReason::Cancelled`]) and a final [`QueryResult`]; `.batch()`
//!   runs the paper's one-shot estimator by draining the same stream, so
//!   one `(plan, seed)` is one sample across all three;
//! * **stopping rules** ([`sa_plan::StoppingRule`], re-exported): relative
//!   CI half-width ≤ ε at confidence 1−δ (the SQL `WITHIN ε PERCENT
//!   CONFIDENCE γ` clause), a row budget, a wall-clock budget, or
//!   run-to-exhaustion — first one to fire wins, judged per group for
//!   grouped queries;
//! * **shared scans**: engines built with `shared_scans(true)` attach
//!   concurrent sequential queries over one table to a single circular
//!   columnar scan — N queries cost ~1 scan, and a query attaching
//!   mid-scan is just a scan-prefix *origin shift* in the Proposition-8
//!   scaling (its exhaustion readout still equals the batch estimator);
//! * **shard parallelism** ([`QueryOptions::parallelism`], `--jobs N` in
//!   the CLI): both loops can fan the sampled plan out over N worker
//!   threads via `sa_exec::open_stream_partitioned`.
//!
//! For any fixed prefix of consumed tuples the incremental estimate and
//! variance equal the batch estimator's output on that prefix (up to float
//! associativity): same moments, same Theorem 1 machinery.
//!
//! ## Quick start
//!
//! ```
//! use sa_online::Engine;
//! use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
//!
//! let mut catalog = Catalog::new();
//! let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
//! let mut b = TableBuilder::new("t", schema);
//! for i in 0..20_000 { b.push_row(&[Value::Float(1.0 + (i % 5) as f64)]).unwrap(); }
//! catalog.register(b.finish().unwrap()).unwrap();
//!
//! let engine = Engine::new(catalog);
//! let result = engine
//!     .session()
//!     .query("SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT) \
//!             WITHIN 5 PERCENT CONFIDENCE 95")
//!     .seed(7)
//!     .chunk_rows(512)
//!     .run_with(|snap| eprintln!("rows={} half-width={:?}", snap.rows(), snap.rel_half_width()))
//!     .unwrap();
//! assert!(result.snapshot.rel_half_width().unwrap() <= 0.05);
//! ```

#![warn(missing_docs)]

pub mod api;
pub(crate) mod batch;
pub mod driver;
pub mod engine;
pub mod error;
pub mod grouped;
pub(crate) mod parallel;

pub use api::{BatchOutput, QueryOptions, QueryResult, Snapshot};
pub use driver::{OnlineResult, ProgressSnapshot};
pub use engine::{Engine, EngineBuilder, QueryBuilder, QueryHandle, Session};
pub use error::Error;
pub use grouped::{group_snapshot, GroupProgress, GroupedOnlineResult, GroupedProgressSnapshot};
// The vocabulary types callers need alongside the driver.
pub use sa_obs::{Event, EventKind, HistogramSnapshot, MetricsSnapshot, Registry};
pub use sa_plan::{CiTarget, StopReason, StoppingRule};

/// Crate-wide result alias.
pub type Result<T, E = Error> = std::result::Result<T, E>;
