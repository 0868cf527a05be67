//! The unified public error type for the engine, sessions and drivers.
//!
//! Every layer below the serving API — planning, SQL, execution,
//! estimation — has its own error enum; [`Error`] wraps them all behind one
//! public `Result` shape so a [`crate::QueryHandle`] surfaces a single
//! error type. `From` impls exist for each wrapped error, including the
//! storage and expression errors that previously had to be routed through
//! `ExecError` by hand.

use std::fmt;

/// Errors from the engine, sessions, and the progressive estimation loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Propagated execution error (streaming, estimation).
    Exec(sa_exec::ExecError),
    /// Propagated estimator error.
    Core(sa_core::CoreError),
    /// Propagated plan error (rewriting).
    Plan(sa_plan::PlanError),
    /// Propagated SQL front-end error.
    Sql(sa_sql::SqlError),
    /// A plan or option combination the online driver cannot handle.
    Unsupported(String),
    /// An option value that is outright invalid (e.g. `chunk_rows == 0`).
    InvalidOptions(String),
    /// The engine's admission controller refused the query: `active`
    /// queries were already running against a limit of `max`.
    Busy {
        /// Queries in flight when admission was attempted.
        active: usize,
        /// The engine's `max_concurrent` limit.
        max: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Exec(e) => write!(f, "{e}"),
            Error::Core(e) => write!(f, "{e}"),
            Error::Plan(e) => write!(f, "{e}"),
            Error::Sql(e) => write!(f, "{e}"),
            Error::Unsupported(msg) => write!(f, "unsupported online query: {msg}"),
            Error::InvalidOptions(msg) => write!(f, "invalid online options: {msg}"),
            Error::Busy { active, max } => write!(
                f,
                "engine busy: {active} queries active (limit {max}); retry later"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Exec(e) => Some(e),
            Error::Core(e) => Some(e),
            Error::Plan(e) => Some(e),
            Error::Sql(e) => Some(e),
            Error::Unsupported(_) | Error::InvalidOptions(_) | Error::Busy { .. } => None,
        }
    }
}

impl From<sa_exec::ExecError> for Error {
    fn from(e: sa_exec::ExecError) -> Self {
        Error::Exec(e)
    }
}
impl From<sa_core::CoreError> for Error {
    fn from(e: sa_core::CoreError) -> Self {
        Error::Core(e)
    }
}
impl From<sa_plan::PlanError> for Error {
    fn from(e: sa_plan::PlanError) -> Self {
        Error::Plan(e)
    }
}
impl From<sa_sql::SqlError> for Error {
    fn from(e: sa_sql::SqlError) -> Self {
        Error::Sql(e)
    }
}
impl From<sa_storage::StorageError> for Error {
    fn from(e: sa_storage::StorageError) -> Self {
        Error::Exec(sa_exec::ExecError::Storage(e))
    }
}
impl From<sa_expr::ExprError> for Error {
    fn from(e: sa_expr::ExprError) -> Self {
        Error::Exec(sa_exec::ExecError::Expr(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_chain() {
        let e: Error = sa_core::CoreError::Degenerate("x".into()).into();
        assert!(e.to_string().contains('x'));
        assert!(std::error::Error::source(&e).is_some());
        let u = Error::Unsupported("why".into());
        assert!(u.to_string().contains("why"));
        assert!(std::error::Error::source(&u).is_none());
        let i = Error::InvalidOptions("chunk_rows".into());
        assert!(i.to_string().contains("chunk_rows"));
        assert!(std::error::Error::source(&i).is_none());
    }

    #[test]
    fn storage_and_expr_errors_route_through_exec() {
        let e: Error = sa_storage::StorageError::UnknownTable {
            name: "nope".into(),
        }
        .into();
        assert!(matches!(e, Error::Exec(sa_exec::ExecError::Storage(_))));
        assert!(e.to_string().contains("nope"));
        let e: Error = sa_expr::ExprError::DivisionByZero.into();
        assert!(matches!(e, Error::Exec(sa_exec::ExecError::Expr(_))));
    }

    #[test]
    fn busy_reports_both_counts() {
        let b = Error::Busy { active: 8, max: 8 };
        assert!(b.to_string().contains("8 queries active"));
        assert!(b.to_string().contains("limit 8"));
        assert!(std::error::Error::source(&b).is_none());
    }
}
