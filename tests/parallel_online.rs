//! Shard-parallel online aggregation end to end: option validation, exact
//! agreement with the batch estimator at forced exhaustion, graceful
//! oversubscription, cross-parallelism agreement on shared-realization
//! plans, statistical coverage at `parallelism = 4`, and early stopping.

use sampling_algebra::core::{estimate_from_sample_moments, GroupedMoments};
use sampling_algebra::exec::{f_vector, layout_dims, open_stream_partitioned, ExecOptions};
use sampling_algebra::online::Error;
use sampling_algebra::prelude::*;
use sampling_algebra::tpch::Zipf;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// `t(k, v)`: `rows` rows, v cycling 1..=7 (mean 4.0), k cycling 0..10.
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

fn opts(seed: u64, chunk_rows: usize, parallelism: usize) -> QueryOptions {
    QueryOptions {
        seed,
        chunk_rows,
        parallelism,
        ..Default::default()
    }
}

#[test]
fn parallelism_zero_rejected_by_both_drivers() {
    let c = catalog(100);
    let bad = opts(0, 64, 0);
    let err = run(&sum_plan(0.5), &c, &bad, |_| {}).unwrap_err();
    assert!(matches!(err, Error::InvalidOptions(_)), "{err}");
    assert!(err.to_string().contains("parallelism"), "{err}");
    let err = run_grouped(&sum_plan(0.5), &[col("k")], &c, &bad, |_| {}).unwrap_err();
    assert!(matches!(err, Error::InvalidOptions(_)), "{err}");
}

/// At forced exhaustion, the N-worker estimate must equal the batch
/// estimator fed the same realized union sample, to 1e-9.
#[test]
fn parallel_exhaustion_equals_batch_estimator() {
    let c = catalog(4000);
    let plan = sum_plan(0.3);
    let online = run(&plan, &c, &opts(9, 128, 4), |_| {}).unwrap();
    assert_eq!(online.reason, StopReason::Exhausted);
    // Batch moments over the SAME partitioned realization.
    let LogicalPlan::Aggregate { aggs, input } = &plan else {
        unreachable!()
    };
    let streams = open_stream_partitioned(
        input,
        &c,
        &ExecOptions {
            seed: 9,
            ..Default::default()
        },
        4,
    )
    .unwrap();
    let layout = layout_dims(aggs, streams[0].schema()).unwrap();
    let mut batch = GroupedMoments::new(online.analysis.schema.n(), layout.dims());
    for mut s in streams {
        loop {
            let chunk = s.next_chunk(4096).unwrap();
            if chunk.is_empty() {
                break;
            }
            for row in &chunk {
                batch
                    .push(&row.lineage, &f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
    }
    let report = estimate_from_sample_moments(&online.analysis.gus, &batch.finish()).unwrap();
    let est = online.snapshot.aggs[0].estimate;
    assert!(est > 0.0);
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

/// The grouped variant of the exhaustion pin: every group's N-worker
/// readout equals the batch grouped estimator to 1e-9.
#[test]
fn parallel_grouped_exhaustion_equals_batch_estimator() {
    let c = catalog(4800);
    let plan = sum_plan(0.4);
    let r = run_grouped(&plan, &[col("k")], &c, &opts(7, 256, 4), |_| {}).unwrap();
    assert_eq!(r.reason, StopReason::Exhausted);
    assert_eq!(r.snapshot.groups.len(), 10);
    // Batch per-group moments over the SAME partitioned realization.
    let LogicalPlan::Aggregate { aggs, input } = &plan else {
        unreachable!()
    };
    let streams = open_stream_partitioned(
        input,
        &c,
        &ExecOptions {
            seed: 7,
            ..Default::default()
        },
        4,
    )
    .unwrap();
    let layout = layout_dims(aggs, streams[0].schema()).unwrap();
    let key_expr = sampling_algebra::expr::bind(&col("k"), streams[0].schema()).unwrap();
    let mut batch: std::collections::BTreeMap<Vec<Value>, GroupedMoments> = Default::default();
    let n = r.analysis.schema.n();
    for mut s in streams {
        loop {
            let chunk = s.next_chunk(4096).unwrap();
            if chunk.is_empty() {
                break;
            }
            for row in &chunk {
                let key = vec![sampling_algebra::expr::eval(&key_expr, &row.values).unwrap()];
                batch
                    .entry(key)
                    .or_insert_with(|| GroupedMoments::new(n, layout.dims()))
                    .push(&row.lineage, &f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
    }
    assert_eq!(batch.len(), r.snapshot.groups.len());
    for g in &r.snapshot.groups {
        let moments = batch.remove(&g.key).expect("group in both").finish();
        let report = estimate_from_sample_moments(&r.analysis.gus, &moments).unwrap();
        let (eo, eb) = (g.aggs[0].estimate, report.estimate[0]);
        assert!((eo - eb).abs() < 1e-9 * (1.0 + eb.abs()), "{eo} vs {eb}");
        let (vo, vb) = (g.aggs[0].variance.unwrap(), report.variance(0).unwrap());
        assert!((vo - vb).abs() < 1e-9 * (1.0 + vb.abs()), "{vo} vs {vb}");
    }
}

/// More workers than chunks (even than blocks): extra workers drain empty
/// slices immediately, nothing is lost or double-counted.
#[test]
fn oversubscribed_parallelism_degrades_gracefully() {
    let c = catalog(100);
    // Unsampled plan: at exhaustion the estimate is exact, so any lost or
    // duplicated slice row would show up as a wrong SUM.
    let plan = LogicalPlan::scan("t").aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let truth: f64 = (0..100).map(|i| 1.0 + (i % 7) as f64).sum();
    for parallelism in [7, 64] {
        let r = run(&plan, &c, &opts(3, 16, parallelism), |_| {}).unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        assert_eq!(r.snapshot.rows, 100);
        let est = r.snapshot.aggs[0].estimate;
        assert!(
            (est - truth).abs() < 1e-9 * truth,
            "parallelism={parallelism}: {est} vs {truth}"
        );
    }
}

/// Plans whose stochastic operators are all shared across workers (SYSTEM
/// keeps, WOR draws — no spine Bernoulli) realize the SAME sample at any
/// parallelism, so the exhaustion estimates agree across worker counts.
#[test]
fn shared_realization_plans_agree_across_parallelism() {
    let c = catalog(2000);
    for plan in [
        LogicalPlan::scan("t")
            .sample(SamplingMethod::System { p: 0.7 })
            .aggregate(vec![AggSpec::sum(col("v"), "s")]),
        LogicalPlan::scan("t")
            .sample(SamplingMethod::Wor { size: 800 })
            .aggregate(vec![AggSpec::sum(col("v"), "s")]),
    ] {
        let sequential = run(&plan, &c, &opts(5, 128, 1), |_| {}).unwrap();
        let parallel = run(&plan, &c, &opts(5, 128, 4), |_| {}).unwrap();
        assert_eq!(parallel.snapshot.rows, sequential.snapshot.rows);
        let (es, ep) = (
            sequential.snapshot.aggs[0].estimate,
            parallel.snapshot.aggs[0].estimate,
        );
        assert!((es - ep).abs() < 1e-9 * (1.0 + es.abs()), "{es} vs {ep}");
    }
}

/// 100 seeded trials at `parallelism = 4` over a Zipf-skewed table: the
/// per-worker Bernoulli streams must still produce unbiased estimates
/// whose 99% Chebyshev intervals keep ≥ 96% coverage of the true SUM.
#[test]
fn parallel_coverage_trial() {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
    let zipf = Zipf::new(40, 1.3);
    let mut rng = StdRng::seed_from_u64(20_130_826);
    let mut truth = 0.0f64;
    let mut b = TableBuilder::new("t", schema);
    for _ in 0..4000 {
        let v = 1.0 + zipf.sample(&mut rng) as f64;
        truth += v;
        b.push_row(&[Value::Float(v)]).unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.4 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let mut covered = 0u32;
    for seed in 0..100 {
        let r = run(
            &plan,
            &c,
            &QueryOptions {
                seed,
                chunk_rows: 256,
                confidence: 0.99,
                parallelism: 4,
                ..Default::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        let ci = r.snapshot.aggs[0].ci_chebyshev.as_ref().unwrap();
        if ci.contains(truth) {
            covered += 1;
        }
    }
    assert!(
        covered >= 96,
        "99% Chebyshev coverage at parallelism 4: {covered}/100"
    );
}

/// A CI stopping rule fires on the merged shard state well before the
/// 4-worker pipeline drains the sample.
#[test]
fn parallel_ci_rule_stops_early() {
    let c = catalog(50_000);
    let r = run(
        &sum_plan(0.5),
        &c,
        &QueryOptions {
            seed: 4,
            chunk_rows: 512,
            rule: StoppingRule::ci(0.05, 0.95),
            parallelism: 4,
            ..Default::default()
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(r.reason, StopReason::CiConverged);
    assert!(r.snapshot.rel_half_width.unwrap() <= 0.05);
    // Early even with the bounded worker run-ahead (≤ 2 chunks per shard).
    assert!(r.snapshot.rows < 20_000, "rows = {}", r.snapshot.rows);
}

/// UNION-of-samples plans cannot be partitioned (global dedup state): the
/// driver must refuse `parallelism > 1` with a clear error, and still run
/// them sequentially.
#[test]
fn union_plans_refuse_parallel_streaming() {
    let c = catalog(2000);
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.4 })
        .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.4 }))
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let parallel = QueryOptions {
        scale_to_population: false,
        parallelism: 4,
        ..opts(6, 128, 4)
    };
    let err = run(&plan, &c, &parallel, |_| {}).unwrap_err();
    assert!(err.to_string().contains("UNION"), "{err}");
    let sequential = QueryOptions {
        parallelism: 1,
        ..parallel
    };
    let r = run(&plan, &c, &sequential, |_| {}).unwrap();
    assert_eq!(r.reason, StopReason::Exhausted);
}

/// One replayed snapshot: `(chunk, rows, rendered estimate/variance,
/// per-relation progress)`.
type SnapshotKey = (u64, u64, String, Vec<(u64, u64)>);

/// `parallelism = 1` leaves every snapshot byte-identical to a replay with
/// the same seed — the sequential path is untouched by the parallel code.
#[test]
fn single_worker_replays_byte_identically() {
    let c = catalog(5000);
    let collect = || {
        let mut snaps: Vec<SnapshotKey> = Vec::new();
        let r = run(&sum_plan(0.5), &c, &opts(3, 256, 1), |s| {
            snaps.push((
                s.chunk,
                s.rows,
                format!("{:.17e} {:?}", s.aggs[0].estimate, s.aggs[0].variance),
                s.progress.clone(),
            ))
        })
        .unwrap();
        (snaps, r.snapshot.rows, format!("{:?}", r.reason))
    };
    assert_eq!(collect(), collect());
}

/// A progressive run of the scalar `plan` (`QueryBuilder::run_with`).
fn run(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &QueryOptions,
    mut on_snapshot: impl FnMut(&ProgressSnapshot),
) -> Result<OnlineResult, sampling_algebra::online::Error> {
    let query = Engine::new(catalog.clone()).session().query_plan(plan);
    let r = query
        .options(opts.clone())
        .run_with(|s| on_snapshot(s.as_scalar().expect("scalar plan")))?;
    Ok(OnlineResult {
        reason: r.reason,
        snapshot: r.snapshot.as_scalar().expect("scalar plan").clone(),
        chunks: r.chunks,
        analysis: r.analysis,
    })
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
