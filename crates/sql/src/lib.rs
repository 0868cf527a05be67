//! # sa-sql — the SQL front-end
//!
//! A lexer, recursive-descent parser and binder for the exact dialect the
//! paper's interface needs: aggregate `SELECT` lists (`SUM`/`COUNT`/`AVG`
//! and `QUANTILE(agg, q)` bounds), `FROM` lists with SQL-standard
//! `TABLESAMPLE` clauses (`PERCENT`, `ROWS`, `SYSTEM`) that may be unioned
//! (`TABLESAMPLE (40 PERCENT) UNION TABLESAMPLE (40 PERCENT)` draws
//! independent samples of the same table and combines them per
//! Proposition 7), conjunctive `WHERE` predicates, and the paper's
//! `CREATE VIEW APPROX (lo, hi) AS …` syntax.
//!
//! [`plan_sql`] goes from SQL text to a validated [`sa_plan::LogicalPlan`]
//! ready for `sa_online`'s `Session::query_plan`; [`plan_grouped_sql`] also
//! returns the `GROUP BY` keys, and [`plan_online_grouped_sql`]
//! additionally lowers a `WITHIN ε PERCENT CONFIDENCE γ` accuracy clause
//! into an `sa_plan::StoppingRule` for the online drivers.
//!
//! # Examples
//!
//! ```
//! use sa_sql::{plan_online_grouped_sql, plan_sql};
//! use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
//!
//! let mut catalog = Catalog::new();
//! let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
//! let mut b = TableBuilder::new("t", schema);
//! b.push_row(&[Value::Float(1.0)]).unwrap();
//! catalog.register(b.finish().unwrap()).unwrap();
//!
//! // SQL → validated logical plan (TABLESAMPLE becomes a Sample node).
//! let plan = plan_sql("SELECT SUM(v) AS s FROM t TABLESAMPLE (25 PERCENT)", &catalog).unwrap();
//! assert!(matches!(plan, sa_plan::LogicalPlan::Aggregate { .. }));
//!
//! // The online form also lowers the accuracy clause into a stopping rule.
//! let (_, keys, rule) = plan_online_grouped_sql(
//!     "SELECT SUM(v) AS s FROM t TABLESAMPLE (25 PERCENT) WITHIN 5 PERCENT CONFIDENCE 95",
//!     &catalog,
//! ).unwrap();
//! assert!(keys.is_empty());
//! let target = rule.unwrap().ci_target.unwrap();
//! assert!((target.epsilon - 0.05).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod binder;
pub mod error;
pub mod parser;
pub mod token;

pub use ast::{AccuracyClause, AggCall, AggItem, Query, SampleSpec, TableRef, ViewHeader};
pub use binder::{bind_query, plan_grouped_sql, plan_online_grouped_sql, plan_sql};
pub use error::SqlError;
pub use parser::parse;

/// Crate-wide result alias.
pub type Result<T, E = SqlError> = std::result::Result<T, E>;
