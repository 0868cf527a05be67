//! Grouped online aggregation end to end: statistical coverage of the
//! per-group confidence intervals under skew, and the acceptance pin for
//! `GROUP BY … WITHIN ε PERCENT CONFIDENCE γ` — early stopping once every
//! group meets the target, batch-equality at forced exhaustion.

use sampling_algebra::expr::{bind, eval};
use sampling_algebra::prelude::*;
use sampling_algebra::sql::plan_online_grouped_sql;
use sampling_algebra::tpch::Zipf;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A Zipf-skewed grouped table: 4000 rows, 6 groups drawn Zipf(θ = 1.5)
/// (group 0 holds roughly half the rows, group 5 a few percent), values
/// cycling 1..=7 within every group. Returns the catalog and the true
/// per-group SUM of `v`.
fn zipf_catalog() -> (Catalog, Vec<f64>) {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("g", DataType::Int),
        Field::new("v", DataType::Float),
    ])
    .unwrap();
    let zipf = Zipf::new(6, 1.5);
    let mut rng = StdRng::seed_from_u64(20_130_826); // fixed data realization
    let mut truth = vec![0.0f64; 6];
    let mut b = TableBuilder::new("t", schema);
    for i in 0..4000 {
        let g = zipf.sample(&mut rng);
        let v = 1.0 + (i % 7) as f64;
        truth[g] += v;
        b.push_row(&[Value::Int(g as i64), Value::Float(v)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    (c, truth)
}

/// Satellite: 100 seeded trials over the Zipf-skewed table under Bernoulli
/// sampling; at least 96% of the per-group 99%-Chebyshev intervals must
/// cover the true group SUMs (the same bar the scalar estimator meets in
/// `tests/estimator_statistics.rs`).
#[test]
fn per_group_chebyshev_coverage_under_zipf_skew() {
    let (catalog, truth) = zipf_catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.4 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let trials = 100u64;
    let mut intervals = 0u64;
    let mut covered = 0u64;
    for seed in 0..trials {
        let opts = QueryOptions {
            seed,
            chunk_rows: 1024,
            confidence: 0.99,
            ..Default::default()
        };
        let r = run_grouped(&plan, &[col("g")], &catalog, &opts, |_| {}).unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        for g in &r.snapshot.groups {
            let id = g.key[0].as_i64().unwrap() as usize;
            let ci = g.aggs[0].ci_chebyshev.as_ref().unwrap();
            intervals += 1;
            if ci.contains(truth[id]) {
                covered += 1;
            }
        }
    }
    // 6 groups × 100 trials, minus the occasional unseen rare group.
    assert!(
        intervals >= 550,
        "only {intervals} group intervals observed"
    );
    let rate = covered as f64 / intervals as f64;
    assert!(
        rate >= 0.96,
        "99% Chebyshev per-group coverage {rate:.3} ({covered}/{intervals})"
    );
}

/// Acceptance: the issue's TPC-H query runs online, stops before exhaustion
/// once every group meets the 5%/95% target.
#[test]
fn acceptance_query_stops_early_once_every_group_converges() {
    let catalog = generate(&TpchConfig::scale(0.02).with_seed(42));
    let opts = QueryOptions {
        seed: 42,
        chunk_rows: 2000,
        ..Default::default()
    };
    let mut snapshots = 0u64;
    let engine = Engine::new(catalog.clone());
    let r = engine
        .session()
        .query(
            "SELECT l_returnflag, SUM(l_extendedprice) AS s \
             FROM lineitem TABLESAMPLE (10 PERCENT) \
             GROUP BY l_returnflag \
             WITHIN 5 PERCENT CONFIDENCE 95",
        )
        .options(opts)
        .run_with(|_| snapshots += 1)
        .unwrap();
    let r = GroupedOnlineResult {
        reason: r.reason,
        snapshot: r.snapshot.as_grouped().unwrap().clone(),
        chunks: r.chunks,
        analysis: r.analysis,
    };
    assert_eq!(r.reason, StopReason::CiConverged);
    assert_eq!(snapshots, r.chunks);
    assert_eq!(r.snapshot.groups.len(), 3, "A, N, R");
    for g in &r.snapshot.groups {
        assert!(g.converged, "{:?} had not converged", g.key);
        assert!(g.rel_half_width.unwrap() <= 0.05, "{:?}", g.key);
    }
    let (consumed, available) = r.snapshot.progress[0];
    assert!(
        consumed < available,
        "stopped before exhaustion: {consumed}/{available}"
    );
    // Sanity: each flag's true SUM is inside the final 95% interval ~always
    // at this sample size; assert the looser Chebyshev interval to keep the
    // test deterministic-robust.
    let (plan, group_by, _) = plan_online_grouped_sql(
        "SELECT l_returnflag, SUM(l_extendedprice) AS s FROM lineitem \
         GROUP BY l_returnflag",
        &catalog,
    )
    .unwrap();
    let exact = sampling_algebra::exec::exact_group_query(&plan, &group_by, &catalog).unwrap();
    for g in &r.snapshot.groups {
        let truth = exact[&g.key][0];
        let ci = g.aggs[0].ci_chebyshev.as_ref().unwrap();
        assert!(ci.contains(truth), "{:?}: {ci} misses {truth}", g.key);
    }
}

/// Acceptance: at forced exhaustion each group's online estimate equals the
/// batch grouped estimator on the same realized sample within 1e-9.
#[test]
fn acceptance_query_matches_batch_grouped_estimator_at_exhaustion() {
    let catalog = generate(&TpchConfig::scale(0.02).with_seed(42));
    let (plan, group_by, _) = plan_online_grouped_sql(
        "SELECT l_returnflag, SUM(l_extendedprice) AS s \
         FROM lineitem TABLESAMPLE (10 PERCENT) \
         GROUP BY l_returnflag \
         WITHIN 5 PERCENT CONFIDENCE 95",
        &catalog,
    )
    .unwrap();
    // Force exhaustion: ignore the SQL rule, run the plan-level driver dry.
    let opts = QueryOptions {
        seed: 9,
        chunk_rows: 1500,
        rule: StoppingRule::exhaustive(),
        ..Default::default()
    };
    let online = run_grouped(&plan, &group_by, &catalog, &opts, |_| {}).unwrap();
    assert_eq!(online.reason, StopReason::Exhausted);

    // Batch grouped estimation over the SAME sample realization: collect
    // the stream and run per-group batch moments under the plan GUS.
    let LogicalPlan::Aggregate { aggs, input } = &plan else {
        unreachable!()
    };
    let mut stream = sampling_algebra::exec::open_stream(
        input,
        &catalog,
        &sampling_algebra::exec::ExecOptions {
            seed: 9,
            ..Default::default()
        },
    )
    .unwrap();
    let layout = sampling_algebra::exec::layout_dims(aggs, stream.schema()).unwrap();
    let keys: Vec<Expr> = group_by
        .iter()
        .map(|e| bind(e, stream.schema()).unwrap())
        .collect();
    let mut batch: std::collections::BTreeMap<Vec<Value>, sampling_algebra::core::GroupedMoments> =
        Default::default();
    loop {
        let chunk = stream.next_chunk(8192).unwrap();
        if chunk.is_empty() {
            break;
        }
        for row in &chunk {
            let key: Vec<Value> = keys.iter().map(|e| eval(e, &row.values).unwrap()).collect();
            batch
                .entry(key)
                .or_insert_with(|| sampling_algebra::core::GroupedMoments::new(1, layout.dims()))
                .push(
                    &row.lineage,
                    &sampling_algebra::exec::f_vector(&layout, row).unwrap(),
                )
                .unwrap();
        }
    }
    assert_eq!(batch.len(), online.snapshot.groups.len());
    for g in &online.snapshot.groups {
        let moments = batch.remove(&g.key).expect("group in both").finish();
        let report =
            sampling_algebra::core::estimate_from_sample_moments(&online.analysis.gus, &moments)
                .unwrap();
        let (eo, eb) = (g.aggs[0].estimate, report.estimate[0]);
        assert!(
            (eo - eb).abs() <= 1e-9 * (1.0 + eb.abs()),
            "{:?}: online {eo} vs batch {eb}",
            g.key
        );
        let (vo, vb) = (g.aggs[0].variance.unwrap(), report.variance(0).unwrap());
        assert!(
            (vo - vb).abs() <= 1e-9 * (1.0 + vb.abs()),
            "{:?}: online var {vo} vs batch var {vb}",
            g.key
        );
        assert_eq!(g.sample_rows, moments.count);
    }
}

/// A progressive run of `plan` grouped by `group_by`.
fn run_grouped(
    plan: &LogicalPlan,
    group_by: &[Expr],
    catalog: &Catalog,
    opts: &QueryOptions,
    mut on_snapshot: impl FnMut(&GroupedProgressSnapshot),
) -> Result<GroupedOnlineResult, sampling_algebra::online::Error> {
    let query = Engine::new(catalog.clone()).session().query_plan(plan);
    let r = query
        .options(opts.clone())
        .group_by(group_by.to_vec())
        .run_with(|s| on_snapshot(s.as_grouped().expect("grouped plan")))?;
    Ok(GroupedOnlineResult {
        reason: r.reason,
        snapshot: r.snapshot.as_grouped().expect("grouped plan").clone(),
        chunks: r.chunks,
        analysis: r.analysis,
    })
}
