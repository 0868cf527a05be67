//! Stopping rules for progressive (online) estimation.
//!
//! An online aggregation loop consumes the sampled plan's result in chunks
//! and reads the estimate/CI after each one. A [`StoppingRule`] decides when
//! that loop may stop early: when the confidence interval is tight enough
//! (the `WITHIN ε PERCENT CONFIDENCE γ` clause), when a row budget is
//! exhausted, or when a wall-clock budget runs out. Rules compose by
//! union — the loop stops at the *first* criterion that fires — and the
//! stream draining is always a stop ([`StopReason::Exhausted`]).
//!
//! The rule type lives in `sa-plan` (not in the online driver) because the
//! SQL front-end lowers the accuracy clause of a query directly into it,
//! exactly like `TABLESAMPLE` lowers into a plan's sampling operators.

use std::fmt;
use std::time::Duration;

/// A relative-accuracy target: stop when the half-width of the
/// `confidence`-level interval is at most `epsilon · |estimate|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiTarget {
    /// Maximum relative CI half-width ε (e.g. `0.05` for "within 5%").
    pub epsilon: f64,
    /// Confidence level `1 − δ` of the interval the target is judged on
    /// (e.g. `0.95`).
    pub confidence: f64,
}

/// When a progressive estimation loop is allowed to stop.
///
/// All criteria are optional; an all-`None` rule runs the stream to
/// exhaustion (every loop stops then regardless).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoppingRule {
    /// Stop once every aggregate's relative CI half-width is ≤ ε at the
    /// target confidence.
    pub ci_target: Option<CiTarget>,
    /// Stop after consuming at least this many result tuples.
    pub row_budget: Option<u64>,
    /// Stop after this much wall-clock time.
    pub time_budget: Option<Duration>,
}

/// Why a progressive loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The relative CI half-width target was met.
    CiConverged,
    /// The row budget was exhausted.
    RowBudget,
    /// The time budget was exhausted.
    TimeBudget,
    /// The sampled result stream drained — the estimate is now the batch
    /// estimate over the full sample.
    Exhausted,
    /// The caller cancelled the query (e.g. via a `QueryHandle`); the last
    /// snapshot is still a valid mid-stream estimate.
    Cancelled,
    /// A hard wall-clock deadline expired and the loop cancelled itself,
    /// reporting the last valid snapshot. Distinct from [`TimeBudget`]
    /// (a soft stop *rule* the caller opted into): a deadline is an upper
    /// bound imposed on the whole query, checked even when the rule never
    /// fires. The snapshot is still an unbiased scan-prefix estimate.
    ///
    /// [`TimeBudget`]: StopReason::TimeBudget
    Deadline,
    /// A fault was contained mid-run (e.g. a panicked worker shard whose
    /// pending, never-absorbed deltas were discarded) and the loop stopped
    /// with what it had. The reported snapshot covers exactly the absorbed
    /// sample prefix, so it remains a valid — merely smaller — unbiased
    /// estimate; "degraded" describes the sample size, not the statistics.
    Degraded,
}

impl StopReason {
    /// The reason's display form, as a static string (metric labels and
    /// journal events store no allocations).
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::CiConverged => "ci-converged",
            StopReason::RowBudget => "row-budget",
            StopReason::TimeBudget => "time-budget",
            StopReason::Exhausted => "exhausted",
            StopReason::Cancelled => "cancelled",
            StopReason::Deadline => "deadline",
            StopReason::Degraded => "degraded",
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl StoppingRule {
    /// Run until the stream drains (no early stop).
    pub fn exhaustive() -> StoppingRule {
        StoppingRule::default()
    }

    /// Stop when the relative CI half-width is ≤ `epsilon` at `confidence`
    /// (the `WITHIN ε·100 PERCENT CONFIDENCE confidence` clause).
    pub fn ci(epsilon: f64, confidence: f64) -> StoppingRule {
        StoppingRule {
            ci_target: Some(CiTarget {
                epsilon,
                confidence,
            }),
            ..Default::default()
        }
    }

    /// Stop after `rows` consumed result tuples.
    pub fn rows(rows: u64) -> StoppingRule {
        StoppingRule {
            row_budget: Some(rows),
            ..Default::default()
        }
    }

    /// Stop after `budget` of wall-clock time.
    pub fn time(budget: Duration) -> StoppingRule {
        StoppingRule {
            time_budget: Some(budget),
            ..Default::default()
        }
    }

    /// Add a row budget to this rule.
    pub fn with_row_budget(mut self, rows: u64) -> StoppingRule {
        self.row_budget = Some(rows);
        self
    }

    /// Add a time budget to this rule.
    pub fn with_time_budget(mut self, budget: Duration) -> StoppingRule {
        self.time_budget = Some(budget);
        self
    }

    /// Add a CI target to this rule.
    pub fn with_ci_target(mut self, epsilon: f64, confidence: f64) -> StoppingRule {
        self.ci_target = Some(CiTarget {
            epsilon,
            confidence,
        });
        self
    }

    /// The confidence level snapshots should be judged at: the CI target's
    /// level if one is set, `default` otherwise.
    pub fn confidence_or(&self, default: f64) -> f64 {
        self.ci_target.map(|t| t.confidence).unwrap_or(default)
    }

    /// Decide whether to stop, given the loop's progress after a chunk.
    ///
    /// `rel_half_width` is the worst (largest) relative CI half-width across
    /// the query's aggregates at the target confidence, or `None` while the
    /// variance is not yet estimable — a CI target never fires on an
    /// inestimable interval.
    pub fn should_stop(
        &self,
        rel_half_width: Option<f64>,
        rows: u64,
        elapsed: Duration,
    ) -> Option<StopReason> {
        if let (Some(target), Some(w)) = (self.ci_target, rel_half_width) {
            if w.is_finite() && w <= target.epsilon {
                return Some(StopReason::CiConverged);
            }
        }
        if let Some(budget) = self.row_budget {
            if rows >= budget {
                return Some(StopReason::RowBudget);
            }
        }
        if let Some(budget) = self.time_budget {
            if elapsed >= budget {
                return Some(StopReason::TimeBudget);
            }
        }
        None
    }
}

impl fmt::Display for StoppingRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if let Some(t) = self.ci_target {
            parts.push(format!(
                "within {:.4}% at {:.0}% confidence",
                t.epsilon * 100.0,
                t.confidence * 100.0
            ));
        }
        if let Some(r) = self.row_budget {
            parts.push(format!("≤ {r} rows"));
        }
        if let Some(t) = self.time_budget {
            parts.push(format!("≤ {} ms", t.as_millis()));
        }
        if parts.is_empty() {
            parts.push("until exhausted".into());
        }
        f.write_str(&parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_rule_never_stops_early() {
        let r = StoppingRule::exhaustive();
        assert_eq!(
            r.should_stop(Some(0.0), u64::MAX, Duration::from_secs(3600)),
            None
        );
    }

    #[test]
    fn ci_target_fires_only_on_estimable_tight_intervals() {
        let r = StoppingRule::ci(0.05, 0.95);
        assert_eq!(r.should_stop(None, 10, Duration::ZERO), None);
        assert_eq!(r.should_stop(Some(0.2), 10, Duration::ZERO), None);
        assert_eq!(r.should_stop(Some(f64::INFINITY), 10, Duration::ZERO), None);
        assert_eq!(
            r.should_stop(Some(0.04), 10, Duration::ZERO),
            Some(StopReason::CiConverged)
        );
    }

    #[test]
    fn budgets_fire_independently() {
        let r = StoppingRule::rows(100).with_time_budget(Duration::from_millis(50));
        assert_eq!(r.should_stop(None, 99, Duration::ZERO), None);
        assert_eq!(
            r.should_stop(None, 100, Duration::ZERO),
            Some(StopReason::RowBudget)
        );
        assert_eq!(
            r.should_stop(None, 0, Duration::from_millis(50)),
            Some(StopReason::TimeBudget)
        );
    }

    #[test]
    fn ci_takes_priority_over_budgets() {
        let r = StoppingRule::ci(0.1, 0.9).with_row_budget(10);
        assert_eq!(
            r.should_stop(Some(0.05), 10, Duration::ZERO),
            Some(StopReason::CiConverged)
        );
    }

    #[test]
    fn display_renders_every_part() {
        let r = StoppingRule::ci(0.05, 0.95)
            .with_row_budget(1000)
            .with_time_budget(Duration::from_millis(250));
        let s = r.to_string();
        assert!(s.contains("5.0000%"), "{s}");
        assert!(s.contains("1000 rows"), "{s}");
        assert!(s.contains("250 ms"), "{s}");
        assert_eq!(StoppingRule::exhaustive().to_string(), "until exhausted");
    }

    #[test]
    fn confidence_or_prefers_target_level() {
        assert_eq!(StoppingRule::ci(0.1, 0.99).confidence_or(0.95), 0.99);
        assert_eq!(StoppingRule::rows(5).confidence_or(0.95), 0.95);
    }
}
