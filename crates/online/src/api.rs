//! The options and result surface of the Engine/Session API.
//!
//! [`QueryOptions`] is one flat option set for every terminal — scalar vs.
//! grouped is decided by the query (its `GROUP BY` list), not by an options
//! type — and [`Snapshot`] / [`QueryResult`] / [`BatchOutput`] make the
//! result shape a variant rather than a separate entry point.

use std::time::Duration;

use sa_core::GusParams;
use sa_exec::{ApproxResult, GroupedApproxResult};
use sa_plan::{SoaAnalysis, StopReason, StoppingRule};

use crate::driver::{OnlineResult, ProgressSnapshot};
use crate::grouped::{GroupedOnlineResult, GroupedProgressSnapshot};

/// Options for one query run through the [`crate::Engine`] (the grouped
/// `ci_top_k` policy is a flat field that scalar runs simply ignore).
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Seed for the plan's sampling operators (the streamed sample
    /// realization is fully determined by `(plan, seed)`; sessions assign a
    /// stable per-session seed so estimates stay comparable across runs).
    pub seed: u64,
    /// Target rows per pulled chunk (operators may over/under-fill).
    pub chunk_rows: usize,
    /// Confidence level for reported intervals when the stopping rule has
    /// no CI target of its own.
    pub confidence: f64,
    /// When to stop early. [`StoppingRule::exhaustive`] runs the whole
    /// sample. For grouped queries the rule's CI target is judged per
    /// group.
    pub rule: StoppingRule,
    /// Scale mid-stream estimates to the full population by compacting a
    /// per-relation WOR(scanned, total) factor onto the plan GUS (the
    /// random-scan-order assumption of online aggregation). Default `true`;
    /// with `false`, snapshots read the raw prefix estimate under the plan
    /// GUS.
    pub scale_to_population: bool,
    /// Number of worker threads driving the sampled plan. `1` (the
    /// default) runs the classic single-threaded loop — byte-identical
    /// snapshots for a fixed seed, and the only mode that can attach to an
    /// engine's shared scan. `0` is rejected.
    pub parallelism: usize,
    /// Grow the pull hint as the estimate stabilizes (see the driver
    /// module docs). Default `false`.
    pub adaptive_chunks: bool,
    /// Visit the base table's blocks in a seeded random permutation
    /// instead of physical order (`--shuffle-scan` in the CLI). The
    /// scan-progress scaling assumes the scanned prefix is a uniform random
    /// subset of the sampling units; on physically ordered (e.g.
    /// value-sorted) tables that assumption fails and mid-stream intervals
    /// undercover. Shuffling restores it at the block level. The
    /// permutation is fully determined by `(seed, parallelism, worker)`, so
    /// runs stay byte-reproducible; shuffled queries always open a private
    /// scan (they cannot attach to a shared hub, whose gather order is
    /// shared state). Default `false` — physical scan order, which keeps
    /// columnar gathers perfectly sequential.
    pub shuffle_scan: bool,
    /// Grouped queries only: judge the CI stopping target on the `K`
    /// groups with the largest absolute (first-aggregate) estimates — the
    /// long-tail policy. Tail groups are still estimated and reported;
    /// they just cannot postpone termination. Ignored by scalar queries.
    /// `None` (default): every discovered group must meet the target.
    pub ci_top_k: Option<usize>,
    /// Disable projection/predicate pushdown into the streaming scans (see
    /// [`sa_exec::ExecOptions::disable_pushdown`]). The realized sample
    /// and every estimate are identical either way; this exists for
    /// benchmark baselines and equivalence tests. Default `false`.
    pub disable_pushdown: bool,
    /// Hard wall-clock deadline for the whole query. When it expires the
    /// loop cancels itself and reports the last valid snapshot with
    /// [`StopReason::Deadline`] — still an unbiased scan-prefix estimate.
    /// Unlike [`StoppingRule::with_time_budget`] (a soft stop criterion the
    /// rule *wants*), the deadline is an upper bound the serving layer
    /// *imposes*; both can be set and the deadline always wins. `None`
    /// (default): no deadline.
    pub deadline: Option<Duration>,
    /// Scalar [`crate::QueryBuilder::batch`] runs only: estimate the `Ŷ_S`
    /// variance terms from a lineage-hash sub-sample of roughly this many
    /// result tuples (the paper's Section 7); the point estimate still
    /// uses the full sample. `None` (default): every tuple.
    pub subsample_target: Option<u64>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            seed: 0,
            chunk_rows: 1024,
            confidence: 0.95,
            rule: StoppingRule::exhaustive(),
            scale_to_population: true,
            parallelism: 1,
            adaptive_chunks: false,
            shuffle_scan: false,
            ci_top_k: None,
            disable_pushdown: false,
            deadline: None,
            subsample_target: None,
        }
    }
}

/// One progressive snapshot, scalar or grouped — the unified shape a
/// [`crate::QueryHandle`] streams and a [`QueryResult`] finishes with.
#[derive(Debug, Clone)]
pub enum Snapshot {
    /// A scalar query's snapshot (no `GROUP BY`).
    Scalar(ProgressSnapshot),
    /// A grouped query's snapshot (one entry per discovered group).
    Grouped(GroupedProgressSnapshot),
}

impl Snapshot {
    /// Cumulative sampled result tuples consumed.
    pub fn rows(&self) -> u64 {
        match self {
            Snapshot::Scalar(s) => s.rows,
            Snapshot::Grouped(s) => s.rows,
        }
    }

    /// 1-based snapshot index.
    pub fn chunk(&self) -> u64 {
        match self {
            Snapshot::Scalar(s) => s.chunk,
            Snapshot::Grouped(s) => s.chunk,
        }
    }

    /// Worst (largest) relative CI half-width the stopping rule is judged
    /// on (tracked groups only, for grouped snapshots).
    pub fn rel_half_width(&self) -> Option<f64> {
        match self {
            Snapshot::Scalar(s) => s.rel_half_width,
            Snapshot::Grouped(s) => s.rel_half_width,
        }
    }

    /// Confidence level the snapshot's intervals were computed at.
    pub fn confidence(&self) -> f64 {
        match self {
            Snapshot::Scalar(s) => s.confidence,
            Snapshot::Grouped(s) => s.confidence,
        }
    }

    /// Per-relation `(consumed, available)` scan coverage.
    pub fn progress(&self) -> &[(u64, u64)] {
        match self {
            Snapshot::Scalar(s) => &s.progress,
            Snapshot::Grouped(s) => &s.progress,
        }
    }

    /// The GUS the snapshot was read under.
    pub fn gus(&self) -> &GusParams {
        match self {
            Snapshot::Scalar(s) => &s.gus,
            Snapshot::Grouped(s) => &s.gus,
        }
    }

    /// Wall time since the loop started.
    pub fn elapsed(&self) -> Duration {
        match self {
            Snapshot::Scalar(s) => s.elapsed,
            Snapshot::Grouped(s) => s.elapsed,
        }
    }

    /// The scalar snapshot, if this is one.
    pub fn as_scalar(&self) -> Option<&ProgressSnapshot> {
        match self {
            Snapshot::Scalar(s) => Some(s),
            Snapshot::Grouped(_) => None,
        }
    }

    /// The grouped snapshot, if this is one.
    pub fn as_grouped(&self) -> Option<&GroupedProgressSnapshot> {
        match self {
            Snapshot::Scalar(_) => None,
            Snapshot::Grouped(s) => Some(s),
        }
    }
}

/// The outcome of a progressive run through the Engine/Session API:
/// scalar vs. grouped is a variant of [`QueryResult::snapshot`], not a
/// separate entry point.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Why the loop stopped.
    pub reason: StopReason,
    /// The last emitted snapshot (the final estimates).
    pub snapshot: Snapshot,
    /// Number of snapshots emitted.
    pub chunks: u64,
    /// The SOA analysis (top GUS, lineage schema, rewrite trace).
    pub analysis: SoaAnalysis,
}

impl From<OnlineResult> for QueryResult {
    fn from(r: OnlineResult) -> Self {
        QueryResult {
            reason: r.reason,
            snapshot: Snapshot::Scalar(r.snapshot),
            chunks: r.chunks,
            analysis: r.analysis,
        }
    }
}

impl From<GroupedOnlineResult> for QueryResult {
    fn from(r: GroupedOnlineResult) -> Self {
        QueryResult {
            reason: r.reason,
            snapshot: Snapshot::Grouped(r.snapshot),
            chunks: r.chunks,
            analysis: r.analysis,
        }
    }
}

/// The outcome of a one-shot batch run ([`crate::QueryBuilder::batch`]):
/// the whole sample is consumed in one pass, no snapshots are streamed.
#[derive(Debug, Clone)]
pub enum BatchOutput {
    /// A scalar query's estimates.
    Scalar(ApproxResult),
    /// A grouped query's per-group estimates.
    Grouped(GroupedApproxResult),
}

impl BatchOutput {
    /// The scalar result, if this is one.
    pub fn as_scalar(&self) -> Option<&ApproxResult> {
        match self {
            BatchOutput::Scalar(r) => Some(r),
            BatchOutput::Grouped(_) => None,
        }
    }

    /// The grouped result, if this is one.
    pub fn as_grouped(&self) -> Option<&GroupedApproxResult> {
        match self {
            BatchOutput::Scalar(_) => None,
            BatchOutput::Grouped(r) => Some(r),
        }
    }
}
