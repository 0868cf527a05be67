//! Estimate results, the aggregate-to-SBox dimension layout, and exact
//! answers.
//!
//! [`layout_dims`] maps the `SELECT` list onto SBox dimensions and
//! [`BatchDimEval`] computes every dimension's `f` column for a whole
//! columnar chunk; the online loops and the one-shot batch estimator
//! (`sa-online`'s `QueryBuilder::batch`) push those columns into their
//! moment accumulators and turn the readout into per-aggregate
//! [`AggResult`]s with [`agg_results_from_report`]. [`exact_query`] and
//! [`exact_group_query`] drain the stream of the sampling-free plan for
//! ground truth.

use std::collections::BTreeMap;

use sa_core::hash::FpMap;
use sa_core::{ratio, ConfidenceInterval, EstimateReport};
use sa_expr::{bind, compile, eval_f64, Expr};
use sa_plan::{rewrite, AggFunc, AggSpec, LogicalPlan, ScanColumnMap, SoaAnalysis};
use sa_storage::{Catalog, Value};

use crate::columnar::Row;
use crate::error::ExecError;
use crate::options::ExecOptions;
use crate::stream::open_stream;
use crate::Result;

/// The report for one aggregate in the `SELECT` list.
#[derive(Debug, Clone)]
pub struct AggResult {
    /// Output name.
    pub name: String,
    /// The aggregate function.
    pub func: AggFunc,
    /// Unbiased point estimate (for `QUANTILE` specs this is still the point
    /// estimate; the bound is in [`AggResult::quantile_bound`]).
    pub estimate: f64,
    /// Estimated variance, when estimable.
    pub variance: Option<f64>,
    /// Normal confidence interval at the requested level.
    pub ci_normal: Option<ConfidenceInterval>,
    /// Chebyshev confidence interval at the requested level.
    pub ci_chebyshev: Option<ConfidenceInterval>,
    /// The requested `QUANTILE(agg, q)` bound, if the spec asked for one.
    pub quantile_bound: Option<f64>,
}

/// The one-shot batch estimate of a scalar query.
#[derive(Debug, Clone)]
pub struct ApproxResult {
    /// One entry per aggregate in the `SELECT` list, in order.
    pub aggs: Vec<AggResult>,
    /// Number of result tuples the sampled plan produced.
    pub result_rows: u64,
    /// Number of tuples used for variance estimation (differs from
    /// `result_rows` under Section 7 sub-sampling).
    pub variance_rows: u64,
    /// The SOA analysis (top GUS, lineage schema, rewrite trace).
    pub analysis: SoaAnalysis,
    /// The underlying multi-dimensional estimate report (exposed for
    /// variance prediction and delta-method post-processing).
    pub report: EstimateReport,
}

/// Layout of aggregate specs onto SBox dimensions (shared by the scalar,
/// grouped and online drivers).
#[derive(Debug)]
pub struct DimLayout {
    /// For each agg: (dimension of the numerator, optional denominator dim).
    per_agg: Vec<(usize, Option<usize>)>,
    /// Bound argument expression per dimension (`None` = constant 1).
    dim_exprs: Vec<Option<Expr>>,
    /// For COUNT(expr) dims: count non-null rather than sum.
    dim_is_count: Vec<bool>,
}

impl DimLayout {
    /// Number of SBox dimensions.
    pub fn dims(&self) -> usize {
        self.dim_exprs.len()
    }

    /// Per-aggregate (numerator dim, optional denominator dim).
    pub fn per_agg(&self) -> &[(usize, Option<usize>)] {
        &self.per_agg
    }
}

/// Map aggregate specs onto SBox dimensions, binding their argument
/// expressions against the sampled result's `schema`. `AVG` takes two
/// dimensions (numerator and denominator of the delta-method ratio).
pub fn layout_dims(aggs: &[AggSpec], schema: &sa_storage::Schema) -> Result<DimLayout> {
    let mut per_agg = Vec::with_capacity(aggs.len());
    let mut dim_exprs = Vec::new();
    let mut dim_is_count = Vec::new();
    for a in aggs {
        match a.func {
            AggFunc::Sum => {
                let e = a.expr.as_ref().ok_or_else(|| {
                    ExecError::Unsupported("SUM requires an argument expression".into())
                })?;
                dim_exprs.push(Some(bind(e, schema)?));
                dim_is_count.push(false);
                per_agg.push((dim_exprs.len() - 1, None));
            }
            AggFunc::Count => {
                dim_exprs.push(a.expr.as_ref().map(|e| bind(e, schema)).transpose()?);
                dim_is_count.push(true);
                per_agg.push((dim_exprs.len() - 1, None));
            }
            AggFunc::Avg => {
                let e = a.expr.as_ref().ok_or_else(|| {
                    ExecError::Unsupported("AVG requires an argument expression".into())
                })?;
                dim_exprs.push(Some(bind(e, schema)?));
                dim_is_count.push(false);
                let num = dim_exprs.len() - 1;
                dim_exprs.push(None);
                dim_is_count.push(true);
                per_agg.push((num, Some(dim_exprs.len() - 1)));
            }
        }
    }
    Ok(DimLayout {
        per_agg,
        dim_exprs,
        dim_is_count,
    })
}

/// The per-row aggregate vector `f(t)` of a result row under `layout`,
/// evaluated by the `sa_expr` interpreter — the row-level reference the
/// test suites check [`BatchDimEval`] against.
pub fn f_vector(layout: &DimLayout, row: &Row) -> Result<Vec<f64>> {
    let mut f = Vec::with_capacity(layout.dim_exprs.len());
    for (e, is_count) in layout.dim_exprs.iter().zip(&layout.dim_is_count) {
        let v = match e {
            None => 1.0, // COUNT(*) / AVG denominator
            Some(e) => {
                let val = eval_f64(e, &row.values)?;
                if *is_count {
                    if val.is_some() {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    val.unwrap_or(0.0) // SUM skips NULLs
                }
            }
        };
        f.push(v);
    }
    Ok(f)
}

/// Compiled batch evaluator of a [`DimLayout`]: computes every SBox
/// dimension's `f` column for a whole [`sa_storage::ColumnarBatch`] at once
/// (type-resolved once, no per-row expression dispatch). The online drivers
/// use this with [`crate::ChunkStream::next_batch`] +
/// `MomentAccumulator::push_batch`.
#[derive(Debug)]
pub struct BatchDimEval {
    kernels: Vec<Option<sa_expr::CompiledExpr>>,
    is_count: Vec<bool>,
}

impl DimLayout {
    /// Compile this layout's dimension expressions for batch evaluation
    /// against `schema` (the stream's output schema — the same one the
    /// layout was bound against).
    pub fn compile_batch(&self, schema: &sa_storage::Schema) -> Result<BatchDimEval> {
        let kernels = self
            .dim_exprs
            .iter()
            .map(|e| {
                e.as_ref()
                    .map(|e| sa_expr::compile(e, schema))
                    .transpose()
                    .map_err(ExecError::Expr)
            })
            .collect::<Result<_>>()?;
        Ok(BatchDimEval {
            kernels,
            is_count: self.dim_is_count.clone(),
        })
    }
}

impl BatchDimEval {
    /// Number of SBox dimensions.
    pub fn dims(&self) -> usize {
        self.kernels.len()
    }

    /// The per-dimension `f` columns of a batch (`dims × rows`), with the
    /// exact [`f_vector`] semantics: `COUNT(*)`/AVG-denominator dims are 1,
    /// `COUNT(expr)` dims are the non-null indicator, SUM dims treat NULL
    /// as 0.
    pub fn eval(&self, batch: &sa_storage::ColumnarBatch) -> Result<Vec<Vec<f64>>> {
        let rows = batch.rows();
        let mut out = Vec::with_capacity(self.kernels.len());
        for (k, is_count) in self.kernels.iter().zip(&self.is_count) {
            let col = match k {
                None => vec![1.0; rows], // COUNT(*) / AVG denominator
                Some(k) => {
                    let (mut vals, validity) = k.eval_f64(batch).map_err(ExecError::Expr)?;
                    if *is_count {
                        match validity {
                            None => vals.iter_mut().for_each(|v| *v = 1.0),
                            Some(validity) => {
                                for (v, ok) in vals.iter_mut().zip(validity) {
                                    *v = if ok { 1.0 } else { 0.0 };
                                }
                            }
                        }
                    } else if let Some(validity) = validity {
                        for (v, ok) in vals.iter_mut().zip(validity) {
                            if !ok {
                                *v = 0.0; // SUM skips NULLs
                            }
                        }
                    }
                    vals
                }
            };
            out.push(col);
        }
        Ok(out)
    }
}

/// Turn a (possibly mid-stream) [`EstimateReport`] into per-aggregate
/// results — point estimate, variance, both CI flavours and the `QUANTILE`
/// bound — resolving delta-method `AVG` ratios. Shared by the batch driver
/// and the online loop's progress snapshots.
pub fn agg_results_from_report(
    aggs: &[AggSpec],
    layout: &DimLayout,
    report: &EstimateReport,
    confidence: f64,
) -> Vec<AggResult> {
    aggs.iter()
        .zip(&layout.per_agg)
        .map(|(spec, (num, den))| {
            let (estimate, variance) = match den {
                None => (report.estimate[*num], report.variance(*num).ok()),
                Some(den) => match ratio(report, *num, *den) {
                    Ok(d) => (d.value, Some(d.variance)),
                    Err(_) => (f64::NAN, None),
                },
            };
            let ci_normal = variance.and_then(|v| sa_core::normal_ci(estimate, v, confidence).ok());
            let ci_chebyshev =
                variance.and_then(|v| sa_core::chebyshev_ci(estimate, v, confidence).ok());
            let quantile_bound = spec
                .quantile
                .and_then(|q| variance.and_then(|v| sa_core::quantile_bound(estimate, v, q).ok()));
            AggResult {
                name: spec.alias.clone(),
                func: spec.func,
                estimate,
                variance,
                ci_normal,
                ci_chebyshev,
                quantile_bound,
            }
        })
        .collect()
}

/// Estimates for one observed group.
#[derive(Debug, Clone)]
pub struct GroupEstimate {
    /// The group key values, in `group_by` order.
    pub key: Vec<Value>,
    /// One result per aggregate in the `SELECT` list.
    pub aggs: Vec<AggResult>,
    /// Number of sampled result tuples in this group.
    pub sample_rows: u64,
}

/// The one-shot batch estimate of a grouped query. Groups with no sampled
/// tuple are absent (their estimate would be 0 with an honest but useless
/// interval) — standard behaviour for sampling-based group-by estimation.
#[derive(Debug, Clone)]
pub struct GroupedApproxResult {
    /// Renderings of the group-by expressions.
    pub group_exprs: Vec<String>,
    /// One entry per group observed in the sample, ordered by key.
    pub groups: Vec<GroupEstimate>,
    /// The SOA analysis shared by every group.
    pub analysis: SoaAnalysis,
    /// Total sampled result tuples.
    pub result_rows: u64,
}

/// Run the sampling-free version of `plan` (samples stripped) for ground
/// truth. Returns the exact aggregate values, in `SELECT`-list order.
pub fn exact_query(plan: &LogicalPlan, catalog: &Catalog) -> Result<Vec<f64>> {
    let (layout, mut sums) = exact_sums(plan, &[], catalog)?;
    let dims = sums
        .remove(&Vec::new())
        .unwrap_or_else(|| vec![0.0; layout.dims()]);
    Ok(layout.collapse(&dims))
}

/// Ground truth per group: drain the sampling-free plan and compute exact
/// per-group aggregates (values in `SELECT`-list order, keyed by group).
pub fn exact_group_query(
    plan: &LogicalPlan,
    group_by: &[Expr],
    catalog: &Catalog,
) -> Result<BTreeMap<Vec<Value>, Vec<f64>>> {
    let (layout, sums) = exact_sums(plan, group_by, catalog)?;
    Ok(sums
        .into_iter()
        .map(|(key, dims)| (key, layout.collapse(&dims)))
        .collect())
}

/// Per-group sums of every SBox dimension, keyed by `GROUP BY` values.
type GroupSums = BTreeMap<Vec<Value>, Vec<f64>>;

/// Drain the stream of `plan`'s sampling-free core and sum every SBox
/// dimension per `group_by` key (one empty key for a scalar query), in
/// stream order.
fn exact_sums(
    plan: &LogicalPlan,
    group_by: &[Expr],
    catalog: &Catalog,
) -> Result<(DimLayout, GroupSums)> {
    let core = rewrite(plan, catalog)?.core;
    let LogicalPlan::Aggregate { aggs, input } = &core else {
        return Err(ExecError::Unsupported("aggregate plan required".into()));
    };
    let opts = ExecOptions {
        scan_cols: Some(ScanColumnMap::analyze_with(&core, group_by)),
        ..Default::default()
    };
    let mut stream = open_stream(input, catalog, &opts)?;
    let layout = layout_dims(aggs, stream.schema())?;
    let dim_eval = layout.compile_batch(stream.schema())?;
    let keys = group_by
        .iter()
        .map(|e| compile(e, stream.schema()))
        .collect::<sa_expr::Result<Vec<_>>>()?;
    let mut sums: FpMap<Vec<Value>, Vec<f64>> = FpMap::new();
    loop {
        let chunk = stream.next_batch(EXACT_CHUNK_ROWS)?;
        if chunk.is_empty() {
            break;
        }
        let f = dim_eval.eval(&chunk.batch)?;
        let key_cols = keys
            .iter()
            .map(|k| k.eval_column(&chunk.batch))
            .collect::<sa_expr::Result<Vec<_>>>()?;
        for row in 0..chunk.rows() {
            let key = key_cols.iter().map(|c| c.value(row)).collect();
            let entry = sums.get_or_insert_with(key, || vec![0.0; f.len()]);
            for (s, col) in entry.iter_mut().zip(&f) {
                *s += col[row];
            }
        }
    }
    Ok((layout, sums.into_sorted().into_iter().collect()))
}

/// Rows per pull when [`exact_query`] drains a stream.
const EXACT_CHUNK_ROWS: usize = 1 << 14;

impl DimLayout {
    /// Collapse summed dimensions into per-aggregate values (the ratio for
    /// `AVG`; `NaN` over no rows).
    fn collapse(&self, dims: &[f64]) -> Vec<f64> {
        self.per_agg
            .iter()
            .map(|(num, den)| match den {
                None => dims[*num],
                Some(den) => dims[*num] / dims[*den],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_expr::col;
    use sa_sampling::SamplingMethod;
    use sa_storage::{DataType, Field, Schema, TableBuilder};

    /// One table `t`: groups A (1000 × 1.0), B (500 × 2.0), C (100 × 5.0).
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for (g, n, v) in [("A", 1000, 1.0), ("B", 500, 2.0), ("C", 100, 5.0)] {
            for _ in 0..n {
                b.push_row(&[Value::str(g), Value::Float(v)]).unwrap();
            }
        }
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    fn plan() -> LogicalPlan {
        LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.1 })
            .aggregate(vec![
                AggSpec::sum(col("v"), "s"),
                AggSpec::count_star("n"),
                AggSpec::avg(col("v"), "a"),
            ])
    }

    #[test]
    fn exact_query_strips_samples() {
        let exact = exact_query(&plan(), &catalog()).unwrap();
        assert_eq!(exact, vec![2500.0, 1600.0, 2500.0 / 1600.0]);
    }

    #[test]
    fn exact_group_query_truth() {
        let exact = exact_group_query(&plan(), &[col("g")], &catalog()).unwrap();
        assert_eq!(exact[&vec![Value::str("A")]], vec![1000.0, 1000.0, 1.0]);
        assert_eq!(exact[&vec![Value::str("B")]], vec![1000.0, 500.0, 2.0]);
        assert_eq!(exact[&vec![Value::str("C")]], vec![500.0, 100.0, 5.0]);
    }

    #[test]
    fn exact_query_over_no_rows() {
        let empty = LogicalPlan::scan("t")
            .filter(col("v").gt(sa_expr::lit(10.0)))
            .aggregate(vec![
                AggSpec::sum(col("v"), "s"),
                AggSpec::avg(col("v"), "a"),
            ]);
        let exact = exact_query(&empty, &catalog()).unwrap();
        assert_eq!(exact[0], 0.0);
        assert!(exact[1].is_nan());
        assert!(exact_group_query(&empty, &[col("g")], &catalog())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn batch_dim_eval_matches_the_row_reference() {
        let c = catalog();
        let LogicalPlan::Aggregate { aggs, input } = plan() else {
            unreachable!()
        };
        let mut stream = open_stream(&input, &c, &ExecOptions::default()).unwrap();
        let layout = layout_dims(&aggs, stream.schema()).unwrap();
        let dim_eval = layout.compile_batch(stream.schema()).unwrap();
        let chunk = stream.next_batch(300).unwrap();
        let cols = dim_eval.eval(&chunk.batch).unwrap();
        for (i, row) in chunk.to_rows().iter().enumerate() {
            let f = f_vector(&layout, row).unwrap();
            let batch: Vec<f64> = cols.iter().map(|c| c[i]).collect();
            assert_eq!(f, batch);
        }
    }
}
