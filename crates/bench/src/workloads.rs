//! Shared workload builders for experiments and criterion benches.

use sa_exec::{open_stream, ApproxResult, ExecOptions};
use sa_online::Engine;
use sa_plan::LogicalPlan;
use sa_sql::plan_sql;
use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use sa_tpch::{generate, TpchConfig};

/// TPC-H at the default experiment scale (orders ≈ 7.5k, lineitem ≈ 30k).
pub fn tpch_small(seed: u64) -> Catalog {
    generate(&TpchConfig::scale(0.005).with_seed(seed))
}

/// TPC-H at an arbitrary scale factor (throughput reports pick their own).
pub fn tpch_at(scale: f64, seed: u64) -> Catalog {
    generate(&TpchConfig::scale(scale).with_seed(seed))
}

/// TPC-H with the paper's Example 1 orders cardinality (150 000), for
/// coefficient reproduction.
pub fn tpch_paper(seed: u64) -> Catalog {
    generate(&TpchConfig::scale(0.1).with_seed(seed))
}

/// The introduction's Query 1 at a given Bernoulli rate and WOR size.
pub fn query1(catalog: &Catalog, percent: f64, rows: u64) -> LogicalPlan {
    plan_sql(
        &format!(
            "SELECT SUM(l_discount*(1.0-l_tax)) \
             FROM lineitem TABLESAMPLE ({percent} PERCENT), orders TABLESAMPLE ({rows} ROWS) \
             WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0"
        ),
        catalog,
    )
    .expect("query1 binds")
}

/// Single-table SUM at a Bernoulli rate.
pub fn single_table(catalog: &Catalog, percent: f64) -> LogicalPlan {
    plan_sql(
        &format!("SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE ({percent} PERCENT)"),
        catalog,
    )
    .expect("single-table binds")
}

/// Single-table SUM with WOR.
pub fn single_table_wor(catalog: &Catalog, rows: u64) -> LogicalPlan {
    plan_sql(
        &format!("SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE ({rows} ROWS)"),
        catalog,
    )
    .expect("single-table WOR binds")
}

/// Two-table sampled join (both sides Bernoulli).
pub fn two_table(catalog: &Catalog, percent: f64) -> LogicalPlan {
    plan_sql(
        &format!(
            "SELECT SUM(l_quantity) \
             FROM lineitem TABLESAMPLE ({percent} PERCENT), \
                  orders TABLESAMPLE ({percent} PERCENT) \
             WHERE l_orderkey = o_orderkey"
        ),
        catalog,
    )
    .expect("two-table binds")
}

/// Three-table sampled join.
pub fn three_table(catalog: &Catalog, percent: f64) -> LogicalPlan {
    plan_sql(
        &format!(
            "SELECT SUM(l_quantity) \
             FROM lineitem TABLESAMPLE ({percent} PERCENT), \
                  orders TABLESAMPLE ({percent} PERCENT), \
                  customer TABLESAMPLE ({percent} PERCENT) \
             WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey"
        ),
        catalog,
    )
    .expect("three-table binds")
}

/// The PR-5 columnar throughput workloads, shared by `bench_online`'s
/// `online_tpch` group and the `bench_report` binary (which writes
/// `BENCH_PR5.json`) — one definition, so the criterion bench and the
/// committed numbers cannot drift apart.
pub mod columnar {
    use sa_expr::{col, lit};
    use sa_plan::{AggSpec, LogicalPlan};
    use sa_sampling::SamplingMethod;

    /// Scan: a sampled single-table SUM, no filter — pure stream +
    /// accumulate cost.
    pub fn scan_plan() -> LogicalPlan {
        LogicalPlan::scan("lineitem")
            .sample(SamplingMethod::Bernoulli { p: 0.9 })
            .aggregate(vec![AggSpec::sum(col("l_quantity"), "s")])
    }

    /// Scan+filter (the acceptance query): selection plus a projected
    /// arithmetic expression.
    pub fn filter_project_plan() -> LogicalPlan {
        LogicalPlan::scan("lineitem")
            .sample(SamplingMethod::Bernoulli { p: 0.9 })
            .filter(
                col("l_extendedprice")
                    .gt(lit(1000.0))
                    .and(col("l_discount").lt(lit(0.08))),
            )
            .project(vec![(
                col("l_extendedprice").mul(lit(1.0).sub(col("l_discount"))),
                "disc_price".into(),
            )])
            .aggregate(vec![AggSpec::sum(col("disc_price"), "s")])
    }

    /// Grouped: per-group SUM over the return flag (run it with
    /// `.group_by(vec![col("l_returnflag")])`).
    pub fn grouped_plan() -> LogicalPlan {
        scan_plan()
    }

    /// Join: sampled lineitem ⋈ sampled orders.
    pub fn join_plan() -> LogicalPlan {
        LogicalPlan::scan("lineitem")
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .join_on(
                LogicalPlan::scan("orders").sample(SamplingMethod::Bernoulli { p: 0.5 }),
                col("l_orderkey").eq(col("o_orderkey")),
            )
            .aggregate(vec![AggSpec::sum(col("l_quantity"), "s")])
    }
}

/// A wide synthetic table for the pushdown benchmarks: `wide` has 16 Int
/// columns over `rows` rows. `c3` is the block ordinal modulo 32 (constant
/// within a block, so an equality predicate keeps 1/32 of the rows in whole
/// blocks — pages skip), `c11` carries the aggregated payload, the other
/// fourteen columns are dead weight a pruned scan never touches.
pub fn wide_catalog(rows: u64) -> Catalog {
    const BLOCK: u64 = 256;
    let mut catalog = Catalog::new();
    let schema = Schema::new(
        (0..16)
            .map(|i| Field::new(format!("c{i}"), DataType::Int))
            .collect(),
    )
    .unwrap();
    let mut b = TableBuilder::new("wide", schema);
    b.reserve(rows as usize);
    for i in 0..rows {
        let row: Vec<Value> = (0..16i64)
            .map(|col| match col {
                3 => Value::Int(((i / BLOCK) % 32) as i64),
                11 => Value::Int(i as i64),
                _ => Value::Int(col * 1000 + (i % 7) as i64),
            })
            .collect();
        b.push_row(&row).unwrap();
    }
    catalog.register(b.finish().unwrap()).unwrap();
    catalog
}

/// The wide-table filter workload: a selective predicate directly on the
/// scan (fuses into the gather when pushdown is on) feeding a SUM over one
/// other column — 2 of 16 segments needed, ~3% of rows survive.
pub fn wide_filter_plan() -> LogicalPlan {
    use sa_expr::{col, lit};
    use sa_plan::AggSpec;
    LogicalPlan::scan("wide")
        .filter(col("c3").eq(lit(0i64)))
        .aggregate(vec![AggSpec::sum(col("c11"), "s")])
}

/// A synthetic catalog of `n` relations with `rows` rows each, for rewriter
/// scaling experiments.
pub fn synthetic_relations(n: usize, rows: u64) -> Catalog {
    let mut catalog = Catalog::new();
    let schema = Schema::new(vec![Field::new("k", DataType::Int)]).unwrap();
    for i in 0..n {
        let mut b = TableBuilder::new(format!("r{i}"), schema.clone());
        b.reserve(rows as usize);
        for j in 0..rows {
            b.push_row(&[Value::Int(j as i64)]).unwrap();
        }
        catalog.register(b.finish().unwrap()).unwrap();
    }
    catalog
}

/// A left-deep all-Bernoulli join plan over `n` synthetic relations.
pub fn synthetic_plan(n: usize, p: f64) -> LogicalPlan {
    use sa_expr::lit;
    use sa_plan::AggSpec;
    use sa_sampling::SamplingMethod;
    let mut plan = LogicalPlan::scan("r0").sample(SamplingMethod::Bernoulli { p });
    for i in 1..n {
        plan = plan.join_on(
            LogicalPlan::scan(format!("r{i}")).sample(SamplingMethod::Bernoulli { p }),
            lit(true),
        );
    }
    plan.aggregate(vec![AggSpec::count_star("c")])
}

/// Materialized (lineage, f) rows of a sampled join, for estimator-only
/// benchmarks.
pub fn materialized_result(
    catalog: &Catalog,
    plan: &LogicalPlan,
    seed: u64,
) -> (usize, Vec<(Vec<u64>, f64)>) {
    let LogicalPlan::Aggregate { input, aggs } = plan else {
        panic!("aggregate plan required")
    };
    let opts = ExecOptions {
        seed,
        ..Default::default()
    };
    let mut stream = open_stream(input, catalog, &opts).expect("opens");
    let expr = aggs[0].expr.as_ref().expect("sum agg");
    let kernel = sa_expr::compile(expr, stream.schema()).expect("compiles");
    let n = stream.relations().len();
    let mut rows = Vec::new();
    loop {
        let chunk = stream.next_batch(1 << 14).expect("streams");
        if chunk.is_empty() {
            return (n, rows);
        }
        let (f, validity) = kernel.eval_f64(&chunk.batch).expect("evaluates");
        for (i, v) in f.into_iter().enumerate() {
            let valid = validity.as_ref().is_none_or(|ok| ok[i]);
            let lineage = chunk.lineage.iter().map(|l| l[i]).collect();
            rows.push((lineage, if valid { v } else { 0.0 }));
        }
    }
}

/// The one-shot batch estimate of the scalar `plan` with `seed` (an engine
/// over `catalog`'s shared tables), optionally with Section 7 variance
/// sub-sampling from about `subsample` tuples.
pub fn batch_estimate(
    catalog: &Catalog,
    plan: &LogicalPlan,
    seed: u64,
    subsample: Option<u64>,
) -> ApproxResult {
    let mut query = Engine::new(catalog.clone())
        .session()
        .query_plan(plan)
        .seed(seed);
    if let Some(rows) = subsample {
        query = query.subsample(rows);
    }
    let out = query.batch().expect("batch query runs");
    out.as_scalar().expect("scalar plan").clone()
}
