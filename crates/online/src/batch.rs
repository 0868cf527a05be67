//! The one-shot batch estimator behind [`crate::QueryBuilder::batch`].
//!
//! A batch query opens exactly the stream(s) a progressive run opens —
//! through [`open_aggregate`], so it shares the option validation, the
//! shared scan hub, the shuffle, the worker partitioning and the scan
//! metrics — drains them to the end, pushes every sampled tuple into the
//! batch moments ([`GroupedMoments`], one per group for `GROUP BY`), and
//! reads the estimate out once under the plan GUS. One `(plan, seed)` is
//! therefore one sample: the batch answer equals `run()` to exhaustion up
//! to float associativity. With `parallelism = N` the N partitioned
//! streams are drained in worker order on the calling thread; their union
//! is the same sample the worker pool consumes.
//!
//! [`QueryOptions::subsample_target`] turns on the paper's Section 7
//! optimization for scalar queries: the point estimate uses every tuple,
//! while the `Ŷ_S` variance terms come from a deterministic lineage-hash
//! sub-sample of about that many tuples.

use sa_core::hash::FpMap;
use sa_core::{
    covariance_from_y, estimate_from_sample_moments, unbiased_y_hats, EstimateReport,
    GroupedMoments, LineageBernoulli,
};
use sa_exec::{agg_results_from_report, ApproxResult, GroupEstimate, GroupedApproxResult};
use sa_exec::{BatchDimEval, ChunkStream, ColumnarChunk, ExecError};
use sa_expr::{compile, Expr};
use sa_plan::{LogicalPlan, SoaAnalysis};
use sa_storage::{Catalog, Value};

use crate::api::{BatchOutput, QueryOptions};
use crate::driver::{open_aggregate, OpenedAggregate, RunCtx};
use crate::Result;

/// Run `plan` (grouped when `group_by` is non-empty) to the end of its
/// sample and estimate once. Returns the output and the sample rows
/// consumed.
pub(crate) fn drive_batch(
    plan: &LogicalPlan,
    group_by: &[Expr],
    catalog: &Catalog,
    opts: &QueryOptions,
    ctx: &RunCtx,
) -> Result<(BatchOutput, u64)> {
    let OpenedAggregate {
        analysis,
        aggs,
        streams,
        layout,
    } = open_aggregate(plan, catalog, opts, ctx, group_by, "batch")?;
    let dim_eval = layout.compile_batch(streams[0].schema())?;
    let keys = group_by
        .iter()
        .map(|e| compile(e, streams[0].schema()))
        .collect::<sa_expr::Result<Vec<_>>>()
        .map_err(ExecError::Expr)?;
    let (n, dims) = (analysis.schema.n(), layout.dims());
    let confidence = opts.rule.confidence_or(opts.confidence);
    let mut lineage = vec![0u64; n];
    let mut f = vec![0.0; dims];

    if keys.is_empty() {
        // With a Section 7 target the rows are kept until the sample size
        // (and hence the sub-sampling rate) is known.
        let mut acc = GroupedMoments::new(n, dims);
        let mut kept: Option<Vec<(Vec<u64>, Vec<f64>)>> = opts.subsample_target.map(|_| Vec::new());
        drain(streams, opts.chunk_rows, &dim_eval, |chunk, cols| {
            for row in 0..chunk.rows() {
                read_row(chunk, cols, row, &mut lineage, &mut f);
                match &mut kept {
                    Some(rows) => rows.push((lineage.clone(), f.clone())),
                    None => acc.push(&lineage, &f)?,
                }
            }
            Ok(())
        })?;
        let (report, result_rows) = match (kept, opts.subsample_target) {
            (Some(rows), Some(target)) => {
                let m = rows.len() as u64;
                (
                    subsampled_report(&analysis, dims, rows, target, opts.seed)?,
                    m,
                )
            }
            _ => {
                let m = acc.count();
                (
                    estimate_from_sample_moments(&analysis.gus, &acc.finish())?,
                    m,
                )
            }
        };
        let result = ApproxResult {
            aggs: agg_results_from_report(aggs, &layout, &report, confidence),
            result_rows,
            variance_rows: report.m,
            analysis,
            report,
        };
        return Ok((BatchOutput::Scalar(result), result_rows));
    }

    let mut groups: FpMap<Vec<Value>, GroupedMoments> = FpMap::new();
    let mut result_rows = 0u64;
    drain(streams, opts.chunk_rows, &dim_eval, |chunk, cols| {
        let key_cols = keys
            .iter()
            .map(|k| k.eval_column(&chunk.batch))
            .collect::<sa_expr::Result<Vec<_>>>()
            .map_err(ExecError::Expr)?;
        for row in 0..chunk.rows() {
            read_row(chunk, cols, row, &mut lineage, &mut f);
            let key = key_cols.iter().map(|c| c.value(row)).collect();
            groups
                .get_or_insert_with(key, || GroupedMoments::new(n, dims))
                .push(&lineage, &f)?;
        }
        result_rows += chunk.rows() as u64;
        Ok(())
    })?;
    let groups = groups
        .into_sorted()
        .into_iter()
        .map(|(key, acc)| {
            let sample_rows = acc.count();
            let report = estimate_from_sample_moments(&analysis.gus, &acc.finish())?;
            Ok(GroupEstimate {
                key,
                aggs: agg_results_from_report(aggs, &layout, &report, confidence),
                sample_rows,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let result = GroupedApproxResult {
        group_exprs: group_by.iter().map(|e| e.to_string()).collect(),
        groups,
        analysis,
        result_rows,
    };
    Ok((BatchOutput::Grouped(result), result_rows))
}

/// Drain every stream in worker order, handing each non-empty chunk and
/// its per-dimension `f` columns to `sink`.
fn drain(
    streams: Vec<ChunkStream>,
    hint: usize,
    dim_eval: &BatchDimEval,
    mut sink: impl FnMut(&ColumnarChunk, &[Vec<f64>]) -> Result<()>,
) -> Result<()> {
    for mut stream in streams {
        loop {
            let chunk = stream.next_batch(hint)?;
            if chunk.is_empty() {
                break;
            }
            let cols = dim_eval.eval(&chunk.batch)?;
            sink(&chunk, &cols)?;
        }
    }
    Ok(())
}

/// Copy row `row`'s lineage ids and `f` values out of a chunk.
fn read_row(
    chunk: &ColumnarChunk,
    cols: &[Vec<f64>],
    row: usize,
    lineage: &mut [u64],
    f: &mut [f64],
) {
    for (l, ids) in lineage.iter_mut().zip(&chunk.lineage) {
        *l = ids[row];
    }
    for (v, col) in f.iter_mut().zip(cols) {
        *v = col[row];
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
