//! The one-shot batch estimator behind [`crate::QueryBuilder::batch`].
//!
//! A batch query opens exactly the stream(s) a progressive run opens —
//! through [`open_aggregate`], so it shares the option validation, the
//! shared scan hub, the shuffle, the worker partitioning and the scan
//! metrics — and runs them on the same worker pool under the exhaustive
//! rule, reading the estimate out once, at the final tick, under the GUS
//! that tick reads under. One `(plan, seed)` is therefore one sample: with
//! one stream the batch answer equals `run()` to exhaustion bit for bit
//! (same chunks, same accumulator, same readout); with `parallelism = N`
//! it runs N worker threads and agrees up to the merge order's float
//! associativity. A contained worker panic fails a batch query: it has no
//! stop reason to report a smaller sample with.
//!
//! [`QueryOptions::subsample_target`] turns on the paper's Section 7
//! optimization for scalar queries: the point estimate uses every tuple,
//! while the `Ŷ_S` variance terms come from a deterministic lineage-hash
//! sub-sample of about that many tuples. The sub-sampling rate depends on
//! the final sample size, so that run keeps its rows ([`KeptRows`]) and
//! estimates in a post-pass.

use std::ops::ControlFlow;
use std::time::Duration;

use sa_core::{covariance_from_y, estimate_from_sample_moments, unbiased_y_hats};
use sa_core::{EstimateReport, GroupedMoments, GusParams, LineageBernoulli};
use sa_exec::{ApproxResult, ColumnarChunk, GroupEstimate, GroupedApproxResult};
use sa_expr::Expr;
use sa_plan::{LogicalPlan, SoaAnalysis, StopReason, StoppingRule};
use sa_storage::Catalog;

use crate::api::{BatchOutput, QueryOptions};
use crate::driver::{open_aggregate, stop_reason, tick_gus, Aggregates, OpenedAggregate, RunCtx};
use crate::error::Error;
use crate::grouped::GroupedReadout;
use crate::parallel::{run_worker_pool, Feed};
use crate::Result;

/// Run `plan` (grouped when `group_by` is non-empty) to the end of its
/// sample and estimate once. Returns the output and the sample rows
/// consumed.
pub(crate) fn batch(
    plan: &LogicalPlan,
    group_by: &[Expr],
    catalog: &Catalog,
    opts: &QueryOptions,
    ctx: &RunCtx,
) -> Result<(BatchOutput, u64)> {
    let OpenedAggregate {
        analysis,
        streams,
        aggs,
    } = open_aggregate(plan, catalog, opts, ctx, group_by, "batch")?;
    if !group_by.is_empty() {
        let readout = GroupedReadout::new(aggs, group_by, streams[0].schema(), opts)?;
        let (acc, gus) = exhaust(&readout, &analysis, streams, opts, ctx)?;
        let groups = readout
            .groups(&acc, &gus)?
            .0
            .into_iter()
            .map(|g| GroupEstimate {
                key: g.key,
                aggs: g.aggs,
                sample_rows: g.sample_rows,
            })
            .collect();
        let result = GroupedApproxResult {
            group_exprs: readout.group_exprs.clone(),
            groups,
            analysis,
            result_rows: acc.count(),
        };
        return Ok((BatchOutput::Grouped(result), acc.count()));
    }
    let (report, result_rows) = match opts.subsample_target {
        None => {
            let (acc, gus) = exhaust(&aggs, &analysis, streams, opts, ctx)?;
            (acc.report(&gus)?, acc.count())
        }
        Some(target) => {
            let (rows, _) = exhaust(&KeptRows(&aggs), &analysis, streams, opts, ctx)?;
            let m = rows.len() as u64;
            let report = subsampled_report(&analysis, aggs.layout.dims(), rows, target, opts.seed)?;
            (report, m)
        }
    };
    let result = ApproxResult {
        aggs: aggs.results(&report),
        result_rows,
        variance_rows: report.m,
        analysis,
        report,
    };
    Ok((BatchOutput::Scalar(result), result_rows))
}

/// Run `feed` over every stream on the worker pool under the exhaustive
/// rule, returning the final accumulator and the GUS of the final tick. A
/// contained worker panic becomes an error.
fn exhaust<F: Feed>(
    feed: &F,
    analysis: &SoaAnalysis,
    streams: Vec<sa_exec::ChunkStream>,
    opts: &QueryOptions,
    ctx: &RunCtx,
) -> Result<(F::Acc, GusParams)> {
    let opts = QueryOptions {
        rule: StoppingRule::exhaustive(),
        deadline: None,
        ..opts.clone()
    };
    let mut gus = None;
    let (acc, _) = run_worker_pool(
        streams,
        opts.chunk_rows,
        &ctx.pool,
        feed,
        |acc, _, tree, exhausted, degraded| {
            let rows = feed.rows(acc);
            match stop_reason(
                &opts,
                exhausted,
                false,
                degraded,
                None,
                rows,
                Duration::ZERO,
            ) {
                None => Ok(ControlFlow::Continue(opts.chunk_rows)),
                Some(StopReason::Degraded) => Err(Error::Unsupported(
                    "a worker panicked, so the batch sample is incomplete; \
                     run() reports such a prefix as degraded"
                        .into(),
                )),
                Some(reason) => {
                    gus = Some(tick_gus(analysis, &opts, &tree)?);
                    Ok(ControlFlow::Break(reason))
                }
            }
        },
    )?;
    Ok((acc, gus.expect("the final tick reads the GUS")))
}

/// Every sampled `(lineage, f)` row, kept for the Section 7 post-pass.
struct KeptRows<'a>(&'a Aggregates<'a>);

impl Feed for KeptRows<'_> {
    type Acc = Vec<(Vec<u64>, Vec<f64>)>;

    fn new_acc(&self) -> Self::Acc {
        Vec::new()
    }

    fn push(&self, acc: &mut Self::Acc, chunk: &ColumnarChunk) -> Result<()> {
        let cols = self.0.dim_eval.eval(&chunk.batch)?;
        acc.extend((0..chunk.rows()).map(|row| {
            let lineage = chunk.lineage.iter().map(|ids| ids[row]).collect();
            (lineage, cols.iter().map(|col| col[row]).collect())
        }));
        Ok(())
    }

    fn absorb(&self, acc: &mut Self::Acc, delta: &Self::Acc) -> Result<()> {
        acc.extend_from_slice(delta);
        Ok(())
    }

    fn rows(&self, acc: &Self::Acc) -> u64 {
        acc.len() as u64
    }
}

/// Section 7: choose per-relation keep probabilities so the expected
/// surviving tuple count is near `target`, then take the point estimate
/// from every row under the plan GUS and the `Ŷ_S`/covariance from the
/// lineage-hash sub-sample under the plan GUS compacted with the
/// sub-sampler's multi-dimensional Bernoulli (Figure 5's pipeline). A
/// sample already at most `target` rows is estimated in full.
fn subsampled_report(
    analysis: &SoaAnalysis,
    dims: usize,
    rows: Vec<(Vec<u64>, Vec<f64>)>,
    target: u64,
    seed: u64,
) -> Result<EstimateReport> {
    let gus = &analysis.gus;
    let n = analysis.schema.n();
    let m = rows.len() as u64;
    let mut acc = GroupedMoments::new(n, dims);
    if m <= target || n == 0 {
        for (lineage, f) in &rows {
            acc.push(lineage, f)?;
        }
        return Ok(estimate_from_sample_moments(gus, &acc.finish())?);
    }
    let keep = (target as f64 / m as f64).powf(1.0 / n as f64);
    let filter = LineageBernoulli::uniform(
        analysis.schema.clone(),
        keep,
        seed ^ 0x5u64.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    )?;
    let compacted = gus.compact(&filter.gus())?;
    let mut totals = vec![0.0; dims];
    for (lineage, f) in &rows {
        for (t, v) in totals.iter_mut().zip(f) {
            *t += v;
        }
        if filter.keeps(lineage) {
            acc.push(lineage, f)?;
        }
    }
    let sub_moments = acc.finish();
    let estimate: Vec<f64> = totals.iter().map(|t| t / gus.a()).collect();
    let (covariance, y_hat) = match unbiased_y_hats(&compacted, &sub_moments) {
        Ok(yh) => (Some(covariance_from_y(gus, &yh, dims)), Some(yh)),
        Err(_) => (None, None),
    };
    Ok(EstimateReport::from_parts(
        gus.clone(),
        estimate,
        covariance,
        y_hat,
        dims,
        sub_moments.count,
    ))
}
