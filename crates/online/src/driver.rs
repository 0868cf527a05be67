//! The progressive query loop: stream chunks, update moments, snapshot,
//! stop when the rule fires.
//!
//! `drive` is the one loop behind the [`crate::Engine`]'s `run` and
//! `online` terminals, for scalar and grouped queries alike. `run` rewrites
//! the plan once (the SOA analysis — and hence the top GUS — does not
//! depend on how much of the sample has been consumed) and opens the
//! chunked stream(s) over the aggregate's input; `drive` hands them to the
//! worker pool (`crate::parallel`), which for each tick
//!
//! 1. pulls the next chunk(s) of sampled result tuples,
//! 2. pushes their `(lineage, f)` columns into an incremental accumulator
//!    (so estimate/variance are O(1)-in-rows to read out — nothing is ever
//!    recomputed from scratch),
//! 3. reads a [`Snapshot`] out under the scan-scaled GUS and passes it to
//!    the caller's callback,
//! 4. stops when `stop_reason` says so: a contained worker fault, the end
//!    of the stream, cancellation, the hard deadline or the
//!    [`sa_plan::StoppingRule`], in that order.
//!
//! What differs between scalar and grouped queries is only the
//! accumulator and the readout, behind the `Readout` trait: the scalar
//! one is implemented by `Aggregates` over a
//! [`sa_core::MomentAccumulator`], the grouped one by
//! `crate::grouped::GroupedReadout` over a
//! [`sa_core::GroupedMomentAccumulator`] (a group is one more selection,
//! Proposition 5). One stream or N is the pool's concern; the one-shot
//! [`crate::QueryBuilder::batch`] runs the same pool under the exhaustive
//! rule and reads out once (`crate::batch`).
//!
//! ## Scan-progress scaling
//!
//! A prefix of the sampled stream only gives the *scanned part* of each base
//! relation a chance to appear, so the raw prefix estimate covers the
//! scanned prefix, not the full population. The classical online-aggregation
//! fix (Hellerstein et al.) assumes tuples are scanned in random order, so
//! the scanned prefix of `k` of `N` sampling units is itself a uniform
//! WOR(`k`, `N`) sample — which is a GUS, and **compacts onto the plan's top
//! GUS by Proposition 8**. The driver therefore reads each snapshot under
//! `gus_plan ⊙ Π_r WOR(k_r, N_r)` using [`ChunkStream::progress`]'s
//! per-relation coverage: mid-stream estimates target the full answer, their
//! intervals account for both the not-yet-scanned data *and* the plan's own
//! sampling, and at exhaustion every factor degenerates to the identity, so
//! the final readout **equals the batch estimator's output** on the consumed
//! sample. Set [`QueryOptions::scale_to_population`]` = false` to read raw
//! prefix estimates under the plan GUS instead.
//!
//! `UnionSamples` plans need more care than one plan-wide compaction:
//! compaction does not distribute over Proposition 7 unions, and the
//! streamed union drains branch 1 completely before branch 2 starts, so a
//! *flat* per-relation coverage would misstate which branch's sample is
//! partial. The scaling walk (`scale_gus_tree`) therefore walks the plan's
//! [`sa_plan::GusTree`] against the stream's [`ProgressTree`]: each
//! union-free region gets its own WOR prefix factors, and the scaled branch
//! designs are re-unioned — `union(G₁ ⊙ WOR(k₁, N), G₂ ⊙ WOR(k₂, N))`,
//! with the second branch excluded entirely until its first tuple can
//! arrive.
//!
//! Online mode is meaningful when the plan actually samples: the interval
//! then tightens as the sample streams in. An unsampled plan still gets the
//! scan-progress factor (estimating the full scan from the prefix), but no
//! sampling variance of its own.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sa_core::{EstimateReport, GusParams, MomentAccumulator};
use sa_exec::ProgressTree;
use sa_exec::{agg_results_from_report, layout_dims, open_stream_partitioned, AggResult};
use sa_exec::{open_shared_stream, SharedTableScan};
use sa_exec::{BatchDimEval, ChunkStream, ColumnarChunk, DimLayout, ExecError, ExecOptions};
use sa_plan::{rewrite, AggSpec, GusTree, LogicalPlan, SoaAnalysis, StopReason};
use sa_storage::Catalog;

use crate::api::{QueryOptions, QueryResult, Snapshot};
use crate::error::Error;
use crate::grouped::GroupedReadout;
use crate::parallel::{run_worker_pool, Feed, PoolObs};
use crate::Result;

/// How a progressive run is wired into its surroundings: an optional
/// cancellation flag (set by [`crate::QueryHandle::cancel`]) and an
/// optional shared scan hub the stream should attach to instead of opening
/// a private scan. The default is no cancellation and private scans; the
/// [`crate::Engine`] fills both in.
#[derive(Default, Clone)]
pub(crate) struct RunCtx {
    /// Checked once per snapshot tick; when set, the loop stops with
    /// [`StopReason::Cancelled`] after emitting the tick's snapshot.
    pub(crate) cancel: Option<Arc<AtomicBool>>,
    /// Attach the (sequential) stream to this shared circular scan; the
    /// attach origin becomes a scan-prefix origin shift in the Prop-8
    /// scaling. Ignored for `parallelism > 1`.
    pub(crate) shared: Option<Arc<SharedTableScan>>,
    /// Worker-pool observability handles (disabled by default — an
    /// uninstrumented engine records nothing).
    pub(crate) pool: PoolObs,
    /// Streaming-scan observability handles threaded into
    /// [`sa_exec::ExecOptions`] (disabled by default).
    pub(crate) scan_obs: sa_exec::ScanObs,
}

impl RunCtx {
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel
            .as_deref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

/// The state of the estimate after one chunk of the progressive loop.
#[derive(Debug, Clone)]
pub struct ProgressSnapshot {
    /// 1-based snapshot index. In the sequential loop (`parallelism = 1`)
    /// this equals the number of pulled chunks; with workers it counts
    /// coordinator ticks, each of which may absorb several worker chunks.
    pub chunk: u64,
    /// Cumulative sampled result tuples consumed.
    pub rows: u64,
    /// Per-aggregate estimates with intervals, in `SELECT`-list order,
    /// judged at the stopping rule's confidence level.
    pub aggs: Vec<AggResult>,
    /// Worst (largest) relative CI half-width across the aggregates at the
    /// rule's confidence, `None` while some variance is not yet estimable.
    pub rel_half_width: Option<f64>,
    /// Confidence level the snapshot's intervals were computed at.
    pub confidence: f64,
    /// Per-relation `(consumed, available)` scan coverage, aligned with the
    /// plan's lineage schema (see [`ChunkStream::progress`]).
    pub progress: Vec<(u64, u64)>,
    /// The GUS the snapshot was read under: the plan GUS compacted with the
    /// scan-progress factors (or the plan GUS itself when scaling is off /
    /// the stream is exhausted).
    pub gus: GusParams,
    /// Wall time since the loop started.
    pub elapsed: Duration,
}

/// What a tick is read at: its index, the scan coverage, the wall time
/// since the loop started, and the previous snapshot (for what changed).
pub(crate) struct Tick<'a> {
    pub(crate) chunk: u64,
    pub(crate) progress: Vec<(u64, u64)>,
    pub(crate) elapsed: Duration,
    pub(crate) prev: Option<&'a Snapshot>,
}

/// A query's result shape: the worker side ([`Feed`]: make an accumulator,
/// push one chunk) plus reading a snapshot out of the accumulator under a
/// given GUS.
pub(crate) trait Readout: Feed {
    /// Read the snapshot of one tick.
    fn read(&self, acc: &Self::Acc, gus: GusParams, tick: Tick<'_>) -> Result<Snapshot>;
}

/// The aggregates of a query laid onto SBox dimensions, with their batch
/// `f` evaluator and the confidence intervals are read at. On its own this
/// is the scalar readout over a [`MomentAccumulator`].
pub(crate) struct Aggregates<'p> {
    specs: &'p [AggSpec],
    pub(crate) layout: DimLayout,
    pub(crate) dim_eval: BatchDimEval,
    pub(crate) relations: usize,
    pub(crate) confidence: f64,
}

impl Aggregates<'_> {
    /// Per-aggregate results of an estimate report (delta-method AVG
    /// ratios resolved), at the readout confidence.
    pub(crate) fn results(&self, report: &EstimateReport) -> Vec<AggResult> {
        agg_results_from_report(self.specs, &self.layout, report, self.confidence)
    }
}

impl Feed for Aggregates<'_> {
    type Acc = MomentAccumulator;

    fn new_acc(&self) -> MomentAccumulator {
        MomentAccumulator::new(self.relations, self.layout.dims())
    }

    /// Evaluate every SBox dimension's `f` column at once and land in the
    /// amortized [`MomentAccumulator::push_batch`] path.
    fn push(&self, acc: &mut MomentAccumulator, chunk: &ColumnarChunk) -> Result<()> {
        let f_cols = self.dim_eval.eval(&chunk.batch)?;
        let lineage: Vec<&[u64]> = chunk.lineage.iter().map(|l| l.as_slice()).collect();
        let f: Vec<&[f64]> = f_cols.iter().map(|c| c.as_slice()).collect();
        acc.push_batch(&lineage, &f).map_err(Error::Core)
    }

    fn absorb(&self, acc: &mut MomentAccumulator, delta: &MomentAccumulator) -> Result<()> {
        Ok(acc.merge(delta)?)
    }

    fn rows(&self, acc: &MomentAccumulator) -> u64 {
        acc.count()
    }
}

impl Readout for Aggregates<'_> {
    fn read(&self, acc: &MomentAccumulator, gus: GusParams, tick: Tick<'_>) -> Result<Snapshot> {
        let aggs = self.results(&acc.report(&gus)?);
        Ok(Snapshot::Scalar(ProgressSnapshot {
            chunk: tick.chunk,
            rows: acc.count(),
            rel_half_width: worst_rel_half_width(&aggs),
            aggs,
            confidence: self.confidence,
            progress: tick.progress,
            gus,
            elapsed: tick.elapsed,
        }))
    }
}

/// Run `plan` progressively — grouped when `group_by` is non-empty —
/// calling `on_snapshot` after every tick. The builder API's `run` and
/// `online` terminals funnel into this.
pub(crate) fn run(
    plan: &LogicalPlan,
    group_by: &[sa_expr::Expr],
    catalog: &Catalog,
    opts: &QueryOptions,
    ctx: &RunCtx,
    on_snapshot: impl FnMut(&Snapshot),
) -> Result<QueryResult> {
    let opened = open_aggregate(plan, catalog, opts, ctx, group_by, "a query")?;
    let (analysis, streams) = (opened.analysis, opened.streams);
    if group_by.is_empty() {
        return drive(&opened.aggs, analysis, streams, opts, ctx, on_snapshot);
    }
    let readout = GroupedReadout::new(opened.aggs, group_by, streams[0].schema(), opts)?;
    drive(&readout, analysis, streams, opts, ctx, on_snapshot)
}

/// The progressive loop: run the worker pool over `streams`, read a
/// snapshot out after every tick, pass it to `on_snapshot`, and stop on
/// [`stop_reason`]. The final snapshot is the result's. With
/// [`QueryOptions::adaptive_chunks`] the inline worker's pull hint grows.
pub(crate) fn drive<R: Readout>(
    readout: &R,
    analysis: SoaAnalysis,
    streams: Vec<ChunkStream>,
    opts: &QueryOptions,
    ctx: &RunCtx,
    mut on_snapshot: impl FnMut(&Snapshot),
) -> Result<QueryResult> {
    let start = Instant::now();
    let cap = opts.chunk_rows.saturating_mul(64);
    let mut hint = opts.chunk_rows;
    let mut prev_rel: Option<f64> = None;
    let mut chunks = 0u64;
    let mut last: Option<Snapshot> = None;
    let (_, reason) = run_worker_pool(
        streams,
        opts.chunk_rows,
        &ctx.pool,
        readout,
        |acc, progress, tree, exhausted, degraded| {
            chunks += 1;
            let tick = Tick {
                chunk: chunks,
                progress,
                elapsed: start.elapsed(),
                prev: last.as_ref(),
            };
            let gus = tick_gus(&analysis, opts, &tree)?;
            let snapshot = readout.read(acc, gus, tick)?;
            let rel = snapshot.rel_half_width();
            let reason = stop_reason(
                opts,
                exhausted,
                ctx.cancelled(),
                degraded,
                rel,
                snapshot.rows(),
                snapshot.elapsed(),
            );
            on_snapshot(&snapshot);
            last = Some(snapshot);
            if opts.adaptive_chunks {
                // Double the hint, up to the cap, when the half-width
                // improved by less than 10% on the previous snapshot.
                if let (Some(p), Some(r)) = (prev_rel, rel) {
                    if p.is_finite() && r.is_finite() && r > 0.9 * p {
                        hint = hint.saturating_mul(2).min(cap);
                    }
                }
                prev_rel = rel;
            }
            Ok(match reason {
                Some(reason) => ControlFlow::Break(reason),
                None => ControlFlow::Continue(hint),
            })
        },
    )?;
    Ok(QueryResult {
        reason,
        snapshot: last.expect("the pool judges at least one tick"),
        chunks,
        analysis,
    })
}

/// Why the loop stops after a tick, if it does — the one place the stop
/// precedence lives. A contained worker fault wins: the absorbed prefix is
/// still a valid, merely smaller, sample, but not the full one, so
/// degradation outranks even exhaustion. Then exhaustion, then
/// cancellation (the cancelled tick's snapshot is still a valid mid-stream
/// estimate), then the hard deadline — before the rule, so a simultaneous
/// soft time-budget stop reports the imposed bound — and last the rule,
/// judged on the snapshot's worst relative half-width, rows and wall time.
pub(crate) fn stop_reason(
    opts: &QueryOptions,
    exhausted: bool,
    cancelled: bool,
    degraded: bool,
    rel_half_width: Option<f64>,
    rows: u64,
    elapsed: Duration,
) -> Option<StopReason> {
    if degraded {
        Some(StopReason::Degraded)
    } else if exhausted {
        Some(StopReason::Exhausted)
    } else if cancelled {
        Some(StopReason::Cancelled)
    } else if opts.deadline.is_some_and(|d| elapsed >= d) {
        Some(StopReason::Deadline)
    } else {
        opts.rule.should_stop(rel_half_width, rows, elapsed)
    }
}

/// The GUS a tick reads under: the plan GUS scaled to the scanned
/// population (`scale_gus_tree`), or the plan GUS itself when
/// [`QueryOptions::scale_to_population`] is off.
pub(crate) fn tick_gus(
    analysis: &SoaAnalysis,
    opts: &QueryOptions,
    coverage: &ProgressTree,
) -> Result<GusParams> {
    if opts.scale_to_population {
        scale_gus_tree(&analysis.gus_tree, coverage)
    } else {
        Ok(analysis.gus.clone())
    }
}

/// The validated, opened state every query starts from. For
/// `parallelism = 1` there is exactly one stream (the inline worker); for
/// `N > 1`, `streams` holds one disjoint slice per worker.
pub(crate) struct OpenedAggregate<'p> {
    pub(crate) analysis: SoaAnalysis,
    pub(crate) streams: Vec<ChunkStream>,
    pub(crate) aggs: Aggregates<'p>,
}

/// Validate the options and plan shape, run the one-time SOA rewrite, open
/// the chunked stream(s) over the aggregate's input, and lay the aggregates
/// onto SBox dimensions — the preamble shared by the progressive loop and
/// the one-shot batch estimator. `caller` names the entry point in errors.
pub(crate) fn open_aggregate<'p>(
    plan: &'p LogicalPlan,
    catalog: &Catalog,
    opts: &QueryOptions,
    ctx: &RunCtx,
    observed: &[sa_expr::Expr],
    caller: &str,
) -> Result<OpenedAggregate<'p>> {
    if opts.chunk_rows == 0 {
        // A zero hint would degenerate the pull loop into one-row chunks
        // (with a snapshot after every row); reject it loudly instead.
        return Err(Error::InvalidOptions(
            "chunk_rows must be at least 1".into(),
        ));
    }
    if opts.parallelism == 0 {
        // Zero workers cannot make progress; mirror the chunk_rows check
        // rather than silently rounding up to 1.
        return Err(Error::InvalidOptions(
            "parallelism must be at least 1".into(),
        ));
    }
    let analysis = rewrite(plan, catalog).map_err(ExecError::Plan)?;
    let LogicalPlan::Aggregate { aggs, input } = plan else {
        return Err(Error::Unsupported(format!(
            "{caller} requires an aggregate at the plan root"
        )));
    };
    let exec_opts = ExecOptions {
        seed: opts.seed,
        shuffle_scan: opts.shuffle_scan,
        disable_pushdown: opts.disable_pushdown,
        scan_obs: ctx.scan_obs.clone(),
        // The stream carries the aggregate's INPUT; analyze the full plan
        // (plus the caller's GROUP BY keys) so the scans prune down to what
        // the estimator actually reads, not the input's whole schema.
        scan_cols: Some(sa_plan::ScanColumnMap::analyze_with(plan, observed)),
    };
    let streams = match (&ctx.shared, opts.parallelism) {
        // Attach the sequential loop to the engine's shared circular scan:
        // same sample realization semantics (one Bernoulli coin per consumed
        // row), but the scan origin is wherever the hub's head currently is
        // — a scan-prefix origin shift the Prop-8 scaling is invariant to.
        // A shuffled scan cannot ride the hub (its gather order is shared
        // state), so it always opens a private stream.
        (Some(hub), 1) if !opts.shuffle_scan => {
            vec![open_shared_stream(input, catalog, &exec_opts, hub)?]
        }
        _ => open_stream_partitioned(input, catalog, &exec_opts, opts.parallelism)?,
    };
    let schema = streams[0].schema();
    let layout = layout_dims(aggs, schema)?;
    let aggs = Aggregates {
        specs: aggs,
        dim_eval: layout.compile_batch(schema)?,
        layout,
        relations: analysis.schema.n(),
        confidence: opts.rule.confidence_or(opts.confidence),
    };
    Ok(OpenedAggregate {
        analysis,
        streams,
        aggs,
    })
}

/// A union-free region's GUS compacted with one WOR(consumed, available)
/// factor per partially scanned relation — the random-scan-order prefix
/// model (Proposition 8). Fully covered relations contribute the identity;
/// relations with nothing consumed yet are skipped too (the estimate is 0
/// there and a 0-draw WOR would be the degenerate null sampler). `progress`
/// may be a single stream's report or the element-wise sum over partitioned
/// workers — slice-relative coverage sums to the true per-relation prefix.
pub(crate) fn scan_scaled_gus(
    region_gus: &GusParams,
    relations: &[String],
    progress: &[(u64, u64)],
) -> Result<GusParams> {
    let mut gus = region_gus.clone();
    for (name, &(consumed, available)) in relations.iter().zip(progress) {
        if consumed == 0 || consumed >= available {
            continue;
        }
        let prefix = GusParams::wor(name, consumed, available)
            .and_then(|g| g.embed_by_name(region_gus.schema().clone()))
            .and_then(|g| gus.compact(&g))
            .map_err(ExecError::Core)?;
        gus = prefix;
    }
    Ok(gus)
}

/// The internal invariant error for [`scale_gus_tree`]: the stream's
/// progress report and the plan's GUS structure disagree. The executor is
/// built from the same plan the analysis walked, so any mismatch is a
/// driver bug, not a user error.
fn progress_shape_mismatch(tree: &GusTree, prog: &ProgressTree) -> Error {
    Error::Unsupported(format!(
        "internal: the stream's scan-progress shape does not match the plan's GUS \
         structure (plan node: {}, progress node: {}); please report this as a bug",
        match tree {
            GusTree::Leaf { rels, .. } => format!("union-free region over {rels:?}"),
            GusTree::Union { .. } => "union".into(),
            GusTree::Join { .. } => "join".into(),
        },
        match prog {
            ProgressTree::Leaf(cov) => format!("flat coverage of {} relations", cov.len()),
            ProgressTree::Union { .. } => "union".into(),
            ProgressTree::Concat(..) => "join".into(),
        }
    ))
}

/// Scale the plan's GUS to the scanned population by walking its union/join
/// structure ([`GusTree`]) against the stream's per-branch coverage
/// ([`ProgressTree`]) — per-branch prefix composition:
///
/// * a union-free region gets its own Prop-8 WOR factors
///   ([`scan_scaled_gus`]);
/// * a union whose second branch has not started is read as the **first
///   branch alone** (no tuple unique to branch 2 can have arrived, so the
///   consumed prefix *is* a branch-1 sample — unioning an untouched G₂
///   would claim coverage the stream does not have);
/// * once branch 2 starts, branch 1 is complete (the streamed union drains
///   it fully first) and the snapshot reads
///   `union(G₁, G₂ ⊙ WOR(k₂, N))` — Prop 7 over the re-scaled branch
///   designs;
/// * joins compact their scaled sides (Prop 6/8). A flat coverage report
///   under a union/join node means the executor materialized that region
///   (e.g. a join build side): every unit is consumed, so the same flat
///   report recurses into both sides.
///
/// The executor's progress tree can only *lose* structure relative to the
/// plan's (materialization flattens); any other pairing is an internal
/// invariant violation.
pub(crate) fn scale_gus_tree(tree: &GusTree, prog: &ProgressTree) -> Result<GusParams> {
    match (tree, prog) {
        (GusTree::Leaf { gus, rels }, ProgressTree::Leaf(cov)) => {
            if cov.len() != rels.len() {
                return Err(progress_shape_mismatch(tree, prog));
            }
            scan_scaled_gus(gus, rels, cov)
        }
        (
            GusTree::Union { left, right },
            ProgressTree::Union {
                left: pl,
                right: pr,
                second_started,
            },
        ) => {
            let l = scale_gus_tree(left, pl)?;
            if !*second_started {
                return Ok(l);
            }
            let r = scale_gus_tree(right, pr)?;
            l.union(&r).map_err(|e| Error::Exec(ExecError::Core(e)))
        }
        (GusTree::Union { left, right }, ProgressTree::Leaf(_)) => {
            // Materialized union: one flat, fully-consumed report stands
            // for both branches.
            let l = scale_gus_tree(left, prog)?;
            let r = scale_gus_tree(right, prog)?;
            l.union(&r).map_err(|e| Error::Exec(ExecError::Core(e)))
        }
        (GusTree::Join { left, right }, ProgressTree::Concat(pl, pr)) => {
            let l = scale_gus_tree(left, pl)?;
            let r = scale_gus_tree(right, pr)?;
            l.compact(&r).map_err(|e| Error::Exec(ExecError::Core(e)))
        }
        (GusTree::Join { left, right }, ProgressTree::Leaf(cov)) => {
            // Flattened join report: the probe side's relations come first
            // (scan order), the build side's after.
            let k = left.n_rels();
            if cov.len() != tree.n_rels() {
                return Err(progress_shape_mismatch(tree, prog));
            }
            let l = scale_gus_tree(left, &ProgressTree::Leaf(cov[..k].to_vec()))?;
            let r = scale_gus_tree(right, &ProgressTree::Leaf(cov[k..].to_vec()))?;
            l.compact(&r).map_err(|e| Error::Exec(ExecError::Core(e)))
        }
        (t, p) => Err(progress_shape_mismatch(t, p)),
    }
}

/// The largest relative CI half-width across the aggregates, `None` when
/// any variance is not yet estimable (so a CI target cannot fire early on
/// partial information).
pub(crate) fn worst_rel_half_width(aggs: &[AggResult]) -> Option<f64> {
    aggs.iter().try_fold(0.0f64, |worst, a| {
        Some(worst.max(a.ci_normal.as_ref()?.relative_half_width()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use sa_exec::{f_vector, open_stream};
    use sa_expr::col;
    use sa_plan::{AggSpec, StoppingRule};
    use sa_sampling::SamplingMethod;
    use sa_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn catalog(rows: i64) -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..rows {
            b.push_row(&[Value::Int(i % 10), Value::Float(1.0 + (i % 7) as f64)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    fn sum_plan(p: f64) -> LogicalPlan {
        LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p })
            .aggregate(vec![AggSpec::sum(col("v"), "s")])
    }

    /// A scalar run's result with its snapshot unwrapped.
    #[derive(Debug)]
    struct ScalarRun {
        reason: StopReason,
        snapshot: ProgressSnapshot,
        chunks: u64,
        analysis: SoaAnalysis,
    }

    fn drive(
        plan: &LogicalPlan,
        catalog: &Catalog,
        opts: &QueryOptions,
        mut on_snapshot: impl FnMut(&ProgressSnapshot),
    ) -> Result<ScalarRun> {
        let scalar = |s: &Snapshot| s.as_scalar().expect("scalar plan").clone();
        let r = run(plan, &[], catalog, opts, &RunCtx::default(), |s| {
            on_snapshot(&scalar(s))
        })?;
        Ok(ScalarRun {
            reason: r.reason,
            snapshot: scalar(&r.snapshot),
            chunks: r.chunks,
            analysis: r.analysis,
        })
    }

    #[test]
    fn snapshots_are_emitted_per_chunk_and_monotone() {
        let c = catalog(5000);
        let opts = QueryOptions {
            seed: 3,
            chunk_rows: 256,
            ..Default::default()
        };
        let mut rows_seen = Vec::new();
        let r = drive(&sum_plan(0.5), &c, &opts, |s| rows_seen.push(s.rows)).unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        assert_eq!(r.chunks as usize, rows_seen.len());
        assert!(rows_seen.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*rows_seen.last().unwrap(), r.snapshot.rows);
        assert!(r.snapshot.rows > 1000, "50% of 5000 ≈ 2500");
    }

    #[test]
    fn exhausted_run_matches_batch_estimate() {
        let c = catalog(4000);
        let plan = sum_plan(0.3);
        let opts = QueryOptions {
            seed: 9,
            chunk_rows: 128,
            ..Default::default()
        };
        let online = drive(&plan, &c, &opts, |_| {}).unwrap();
        // Batch over the SAME sample realization: collect the stream.
        let LogicalPlan::Aggregate { aggs, input } = &plan else {
            unreachable!()
        };
        let mut stream = open_stream(
            input,
            &c,
            &ExecOptions {
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        let layout = layout_dims(aggs, stream.schema()).unwrap();
        let mut batch = sa_core::GroupedMoments::new(1, layout.dims());
        loop {
            let chunk = stream.next_chunk(4096).unwrap();
            if chunk.is_empty() {
                break;
            }
            for row in &chunk {
                batch
                    .push(&row.lineage, &f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
        let report =
            sa_core::estimate_from_sample_moments(&online.analysis.gus, &batch.finish()).unwrap();
        let est = online.snapshot.aggs[0].estimate;
        assert!((est - report.estimate[0]).abs() < 1e-9 * (1.0 + est.abs()));
        let (vo, vb) = (
            online.snapshot.aggs[0].variance.unwrap(),
            report.variance(0).unwrap(),
        );
        assert!((vo - vb).abs() < 1e-9 * (1.0 + vb.abs()), "{vo} vs {vb}");
    }

    #[test]
    fn scan_scaling_targets_the_full_population() {
        // 20k rows of mean 4.0 → truth 80k. Stop after ~1/10 of the sample:
        // the scaled estimate must be near the full answer, the raw prefix
        // estimate near a tenth of it.
        let c = catalog(20_000);
        let truth = 80_000.0; // v cycles 1..=7 (mean 4.0) over 20k rows
        let opts = |scale| QueryOptions {
            seed: 2,
            chunk_rows: 200,
            rule: StoppingRule::rows(1800),
            scale_to_population: scale,
            ..Default::default()
        };
        let scaled = drive(&sum_plan(0.9), &c, &opts(true), |_| {}).unwrap();
        let raw = drive(&sum_plan(0.9), &c, &opts(false), |_| {}).unwrap();
        let (es, er) = (
            scaled.snapshot.aggs[0].estimate,
            raw.snapshot.aggs[0].estimate,
        );
        assert!(
            (es - truth).abs() < 0.1 * truth,
            "scaled {es} should be near {truth}"
        );
        assert!(
            er < 0.25 * truth,
            "raw prefix estimate {er} should cover only ~1/10 of {truth}"
        );
        // Scaled intervals are wider: they also carry the unscanned-data
        // uncertainty.
        assert!(scaled.snapshot.aggs[0].variance.unwrap() > raw.snapshot.aggs[0].variance.unwrap());
    }

    #[test]
    fn row_budget_stops_early() {
        let c = catalog(20_000);
        let opts = QueryOptions {
            seed: 1,
            chunk_rows: 100,
            rule: StoppingRule::rows(500),
            ..Default::default()
        };
        let r = drive(&sum_plan(0.9), &c, &opts, |_| {}).unwrap();
        assert_eq!(r.reason, StopReason::RowBudget);
        assert!(r.snapshot.rows >= 500);
        assert!(
            r.snapshot.rows < 2000,
            "stopped long before the ~18k sample drained: {}",
            r.snapshot.rows
        );
    }

    #[test]
    fn time_budget_stops() {
        let c = catalog(2000);
        let opts = QueryOptions {
            seed: 1,
            chunk_rows: 10,
            rule: StoppingRule::time(Duration::ZERO),
            ..Default::default()
        };
        let r = drive(&sum_plan(0.9), &c, &opts, |_| {}).unwrap();
        assert_eq!(r.reason, StopReason::TimeBudget);
        assert_eq!(r.chunks, 1);
    }

    #[test]
    fn ci_rule_converges_on_big_sample() {
        let c = catalog(50_000);
        let opts = QueryOptions {
            seed: 4,
            chunk_rows: 512,
            rule: StoppingRule::ci(0.05, 0.95),
            ..Default::default()
        };
        let r = drive(&sum_plan(0.5), &c, &opts, |_| {}).unwrap();
        assert_eq!(r.reason, StopReason::CiConverged);
        assert!(r.snapshot.rel_half_width.unwrap() <= 0.05);
        // It genuinely stopped early.
        assert!(r.snapshot.rows < 20_000, "rows = {}", r.snapshot.rows);
    }

    #[test]
    fn sql_within_clause_drives_the_rule() {
        let engine = Engine::new(catalog(50_000));
        let mut snaps = 0u64;
        let r = engine
            .session()
            .query(
                "SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT) \
                 WITHIN 5 PERCENT CONFIDENCE 95",
            )
            .seed(4)
            .chunk_rows(512)
            .run_with(|_| snaps += 1)
            .unwrap();
        assert_eq!(r.reason, StopReason::CiConverged);
        assert_eq!(snaps, r.chunks);
        assert!((r.snapshot.confidence() - 0.95).abs() < 1e-12);
    }

    fn union_plan(p: f64) -> LogicalPlan {
        LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p })
            .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p }))
            .aggregate(vec![AggSpec::sum(col("v"), "s")])
    }

    #[test]
    fn union_scaling_runs_online_and_matches_batch_at_exhaustion() {
        // Per-branch prefix composition: the union plan now scales to the
        // population mid-stream, and at exhaustion every WOR factor is the
        // identity, so the readout equals the batch union estimator on the
        // same realized sample.
        let c = catalog(2000);
        let plan = union_plan(0.4);
        let opts = QueryOptions {
            seed: 6,
            chunk_rows: 128,
            ..Default::default()
        };
        let online = drive(&plan, &c, &opts, |_| {}).unwrap();
        assert_eq!(online.reason, StopReason::Exhausted);
        assert!(online.snapshot.rows > 0);
        let LogicalPlan::Aggregate { aggs, input } = &plan else {
            unreachable!()
        };
        let exec_opts = ExecOptions {
            seed: 6,
            ..Default::default()
        };
        let mut stream = open_stream(input, &c, &exec_opts).unwrap();
        let layout = layout_dims(aggs, stream.schema()).unwrap();
        let mut batch = sa_core::GroupedMoments::new(online.analysis.schema.n(), layout.dims());
        loop {
            let chunk = stream.next_chunk(4096).unwrap();
            if chunk.is_empty() {
                break;
            }
            for row in &chunk {
                batch
                    .push(&row.lineage, &f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
        let report =
            sa_core::estimate_from_sample_moments(&online.analysis.gus, &batch.finish()).unwrap();
        let est = online.snapshot.aggs[0].estimate;
        assert!(
            (est - report.estimate[0]).abs() < 1e-9 * (1.0 + est.abs()),
            "{est} vs {}",
            report.estimate[0]
        );
        let (vo, vb) = (
            online.snapshot.aggs[0].variance.unwrap(),
            report.variance(0).unwrap(),
        );
        assert!((vo - vb).abs() < 1e-9 * (1.0 + vb.abs()), "{vo} vs {vb}");
    }

    #[test]
    fn union_mid_scan_scaling_targets_the_population() {
        // Stop the union run early (inside branch 1): the scaled estimate
        // must target the full answer, not the scanned prefix of it.
        let c = catalog(20_000);
        let truth = 80_000.0; // v cycles 1..=7 (mean 4.0) over 20k rows
        let opts = QueryOptions {
            seed: 11,
            chunk_rows: 200,
            rule: StoppingRule::rows(1500),
            ..Default::default()
        };
        let r = drive(&union_plan(0.5), &c, &opts, |_| {}).unwrap();
        assert_eq!(r.reason, StopReason::RowBudget);
        let (consumed, available) = r.snapshot.progress[0];
        assert!(consumed < available, "stopped mid-scan");
        let est = r.snapshot.aggs[0].estimate;
        assert!(
            (est - truth).abs() < 0.15 * truth,
            "scaled union estimate {est} should be near {truth}"
        );
    }

    #[test]
    fn union_plans_still_refuse_partitioned_workers() {
        // The parallel path does not partition union plans; the refusal
        // names the workaround precisely.
        let c = catalog(2000);
        let opts = QueryOptions {
            parallelism: 2,
            ..Default::default()
        };
        let err = drive(&union_plan(0.4), &c, &opts, |_| {}).unwrap_err();
        assert!(
            err.to_string().contains("parallelism = 1"),
            "the refusal must name the single-stream workaround: {err}"
        );
    }

    #[test]
    fn zero_chunk_rows_rejected() {
        // chunk_rows = 0 would degenerate next_chunk's hint into 1-row
        // pulls (a snapshot per row); the driver refuses it up front.
        let c = catalog(100);
        let opts = QueryOptions {
            chunk_rows: 0,
            ..Default::default()
        };
        let err = drive(&sum_plan(0.5), &c, &opts, |_| {}).unwrap_err();
        assert!(matches!(err, Error::InvalidOptions(_)), "{err}");
        assert!(err.to_string().contains("chunk_rows"), "{err}");
    }

    #[test]
    fn non_aggregate_root_rejected() {
        let c = catalog(10);
        let err = drive(
            &LogicalPlan::scan("t"),
            &c,
            &QueryOptions::default(),
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn empty_sample_still_produces_a_final_snapshot() {
        // Empty table → empty stream on the very first pull; the loop must
        // still emit one snapshot and stop as Exhausted. (A `p = 0` sampler,
        // by contrast, is a degenerate GUS with a = 0 and errors, exactly
        // like the batch driver.)
        let c = catalog(0);
        let r = drive(&sum_plan(0.5), &c, &QueryOptions::default(), |_| {}).unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        assert_eq!(r.chunks, 1);
        assert_eq!(r.snapshot.rows, 0);
        assert_eq!(r.snapshot.aggs[0].estimate, 0.0);
        let degenerate = drive(&sum_plan(0.0), &c, &QueryOptions::default(), |_| {});
        assert!(matches!(degenerate, Err(Error::Core(_))));
    }
}
