//! Acceptance tests for the online loop on a TPC-H-style workload: the
//! ε/δ stopping rule fires, and the final progressive estimate equals the
//! batch estimator evaluated on exactly the consumed prefix.

use sa_core::{estimate_from_sample_moments, GroupedMoments};
use sa_exec::{f_vector, layout_dims, open_stream, ExecOptions};
use sa_online::{Engine, StopReason};
use sa_plan::LogicalPlan;
use sa_sql::plan_online_grouped_sql;
use sa_tpch::{generate, TpchConfig};

const SQL: &str = "SELECT SUM(l_quantity) AS q, COUNT(*) AS n \
                   FROM lineitem TABLESAMPLE (60 PERCENT) \
                   WITHIN 5 PERCENT CONFIDENCE 95";
const CHUNK: usize = 400;
const SEED: u64 = 7;

#[test]
fn online_loop_converges_and_matches_batch_on_the_consumed_prefix() {
    let engine = Engine::new(generate(&TpchConfig::scale(0.002).with_seed(42)));
    let catalog = engine.catalog();

    // Progressive run: must stop because the CI target was met, with the
    // worst relative half-width at or below ε, after genuinely consuming
    // only part of the sample.
    let mut widths = Vec::new();
    let result = engine
        .session()
        .query(SQL)
        .seed(SEED)
        .chunk_rows(CHUNK)
        .run_with(|s| widths.push(s.rel_half_width()))
        .unwrap();
    assert_eq!(result.reason, StopReason::CiConverged);
    let online = result.snapshot.as_scalar().unwrap();
    let final_width = online.rel_half_width.unwrap();
    assert!(final_width <= 0.05, "rel half-width {final_width}");
    assert!(result.chunks >= 2, "should take more than one chunk");
    // Only the last snapshot may satisfy the target (the loop stops at the
    // first hit), and widths shrink to it.
    for w in &widths[..widths.len() - 1] {
        assert!(w.is_none_or(|w| w > 0.05));
    }

    // Replay the same (plan, seed, chunk schedule): the prefix is
    // deterministic. Feed those rows to the BATCH accumulator and compare.
    let (plan, _, _) = plan_online_grouped_sql(SQL, catalog).unwrap();
    let LogicalPlan::Aggregate { aggs, input } = &plan else {
        panic!("aggregate root expected")
    };
    let mut stream = open_stream(
        input,
        catalog,
        &ExecOptions {
            seed: SEED,
            ..Default::default()
        },
    )
    .unwrap();
    let layout = layout_dims(aggs, stream.schema()).unwrap();
    let n = result.analysis.schema.n();
    let mut batch = GroupedMoments::new(n, layout.dims());
    for _ in 0..result.chunks {
        for row in stream.next_chunk(CHUNK).unwrap() {
            batch
                .push(&row.lineage, &f_vector(&layout, &row).unwrap())
                .unwrap();
        }
    }
    assert_eq!(batch.count(), online.rows, "prefix mismatch");
    // Batch estimator on the prefix, under the same (scan-scaled) GUS the
    // online loop read its final snapshot with.
    let report = estimate_from_sample_moments(&online.gus, &batch.finish()).unwrap();

    // SUM(l_quantity) is dimension 0, COUNT(*) dimension 1.
    for (dim, agg) in online.aggs.iter().enumerate() {
        let (eo, eb) = (agg.estimate, report.estimate[dim]);
        assert!(
            (eo - eb).abs() <= 1e-9 * (1.0 + eb.abs()),
            "estimate[{dim}]: online {eo} vs batch {eb}"
        );
        let (vo, vb) = (agg.variance.unwrap(), report.variance(dim).unwrap());
        assert!(
            (vo - vb).abs() <= 1e-9 * (1.0 + vb.abs()),
            "variance[{dim}]: online {vo} vs batch {vb}"
        );
    }

    // Sanity: the converged estimate is close to the exact answer (the CI
    // was built to contain it with 95% probability; allow 3 half-widths).
    let exact = sa_exec::exact_query(&plan, catalog).unwrap();
    let half = online.aggs[0].ci_normal.unwrap().width() / 2.0;
    assert!(
        (online.aggs[0].estimate - exact[0]).abs() < 3.0 * half.max(1.0),
        "estimate {} vs exact {}",
        online.aggs[0].estimate,
        exact[0]
    );
}

#[test]
fn budgets_compose_with_the_sql_ci_target() {
    let engine = Engine::new(generate(&TpchConfig::scale(0.001).with_seed(42)));
    // A 1-row budget always beats the (much later) CI convergence.
    let r = engine
        .session()
        .query(SQL)
        .seed(3)
        .chunk_rows(50)
        .rows(1)
        .run()
        .unwrap();
    assert_eq!(r.reason, StopReason::RowBudget);
    assert!(r.snapshot.rows() <= 200, "rows = {}", r.snapshot.rows());
}

#[test]
fn join_query_streams_and_converges() {
    let engine = Engine::new(generate(&TpchConfig::scale(0.002).with_seed(42)));
    let sql = "SELECT SUM(l_quantity) AS q \
               FROM lineitem TABLESAMPLE (40 PERCENT), orders \
               WHERE l_orderkey = o_orderkey \
               WITHIN 10 PERCENT CONFIDENCE 90";
    let r = engine
        .session()
        .query(sql)
        .seed(11)
        .chunk_rows(300)
        .run()
        .unwrap();
    assert_eq!(r.reason, StopReason::CiConverged);
    assert!(r.snapshot.rel_half_width().unwrap() <= 0.10);
    assert_eq!(r.analysis.schema.n(), 2, "two base relations in lineage");
}
