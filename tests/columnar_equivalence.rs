//! Row-vs-columnar equivalence: the columnar batch engine must be
//! observationally identical to row-at-a-time execution.
//!
//! * a differential proptest draws a random plan (sampler × filter ×
//!   projection × optional join), a random seed and two independent chunk
//!   splits, and checks that the columnar stream
//!   ([`ChunkStream::next_batch`]) yields exactly the row adapter's tuples
//!   and that the batch-accumulated online estimate equals a per-row
//!   reference accumulation to 1e-12 (relative);
//! * adaptive chunk sizing ([`QueryOptions::adaptive_chunks`]) must change
//!   snapshot cadence only — the realized sample, and hence the exhaustion
//!   estimate, is pinned equal to the fixed-chunk run;
//! * one `(plan, seed)` is one sample across terminals: the one-shot
//!   `batch()` equals `run()` to exhaustion, estimate and variance to 1e-9,
//!   for scalar, grouped, fixed-size WOR, join and union plans at 1 and 4
//!   workers.

use proptest::prelude::*;

use sa_core::MomentAccumulator;
use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder};
use sampling_algebra::exec::{f_vector, layout_dims, open_stream, AggResult, ExecOptions};
use sampling_algebra::expr::col;
use sampling_algebra::prelude::*;

/// `t`: 600 rows of (k Int, v Float-with-NULLs, s Str-with-NULLs), block
/// size 16 (so SYSTEM sampling has 38 blocks); `d`: a 12-row dimension
/// table for the join case.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
        Field::new("s", DataType::Str),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema).with_block_rows(16);
    for i in 0..600i64 {
        let v = if i % 13 == 0 {
            Value::Null
        } else {
            Value::Float((i % 97) as f64 + 0.25)
        };
        let s = match i % 7 {
            0 => Value::Null,
            1 | 2 => Value::str("a"),
            3 => Value::str("bb"),
            _ => Value::str("ccc"),
        };
        b.push_row(&[Value::Int(i % 12), v, s]).unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    let schema = Schema::new(vec![
        Field::new("dk", DataType::Int),
        Field::new("w", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("d", schema);
    for i in 0..12i64 {
        b.push_row(&[Value::Int(i), Value::Float(10.0 * i as f64)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

/// A random (non-aggregate) plan over `t` (possibly ⋈ `d`) plus the column
/// the SUM reference aggregates.
fn build_plan(
    sampler: u8,
    p: f64,
    wor: u64,
    pred: u8,
    proj: u8,
    join: bool,
) -> (LogicalPlan, Expr) {
    let mut plan = LogicalPlan::scan("t");
    plan = match sampler % 4 {
        0 => plan,
        1 => plan.sample(SamplingMethod::Bernoulli { p }),
        2 => plan.sample(SamplingMethod::Wor { size: wor }),
        _ => plan.sample(SamplingMethod::System { p }),
    };
    if join {
        plan = plan.join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
    }
    plan = match pred % 4 {
        0 => plan,
        1 => plan.filter(col("v").gt_eq(lit(25.0))),
        2 => plan.filter(col("k").lt(lit(6i64)).and(col("v").lt(lit(80.0)))),
        _ => plan.filter(col("s").eq(lit("a")).or(col("v").gt(lit(90.0)))),
    };
    match proj % 3 {
        0 => (plan, col("v")),
        1 => (
            plan.project(vec![(col("v").mul(lit(2.0)).sub(col("k")), "x".into())]),
            col("x"),
        ),
        _ => (
            plan.project(vec![
                (col("k").add(lit(1i64)), "kk".into()),
                (col("v"), "x".into()),
            ]),
            col("x"),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn columnar_stream_equals_row_stream_and_estimates_match(
        sampler in 0u8..4,
        p in 0.1f64..1.0,
        wor in 1u64..500,
        pred in 0u8..4,
        proj in 0u8..3,
        join in any::<bool>(),
        seed in 0u64..1000,
        hint_a in 1usize..300,
        hint_b in 1usize..300,
    ) {
        let c = catalog();
        let (input, agg_col) = build_plan(sampler, p, wor, pred, proj, join);
        let opts = ExecOptions { seed, ..Default::default() };

        // 1. Tuple equality: columnar batches vs the row adapter, under
        //    independent chunk splits (realization is chunk-independent).
        let mut via_batch = open_stream(&input, &c, &opts).unwrap();
        let mut batch_rows = Vec::new();
        loop {
            let chunk = via_batch.next_batch(hint_a).unwrap();
            if chunk.is_empty() {
                break;
            }
            batch_rows.extend(chunk.to_rows());
        }
        let row_rows = open_stream(&input, &c, &opts)
            .unwrap()
            .collect_rows(hint_b)
            .unwrap();
        prop_assert_eq!(&batch_rows, &row_rows);

        // 2. Estimate equality: the online driver's batch accumulation vs a
        //    per-row reference over the same realized rows.
        let plan = input.clone().aggregate(vec![AggSpec::sum(agg_col, "s")]);
        let online = run(
            &plan,
            &c,
            &QueryOptions {
                seed,
                chunk_rows: hint_a,
                ..Default::default()
            },
            |_| {},
        )
        .unwrap();
        let stream = open_stream(&input, &c, &opts).unwrap();
        let layout = layout_dims(
            match &plan {
                LogicalPlan::Aggregate { aggs, .. } => aggs,
                _ => unreachable!(),
            },
            stream.schema(),
        )
        .unwrap();
        let mut reference = MomentAccumulator::new(online.analysis.schema.n(), layout.dims());
        for row in &row_rows {
            reference
                .push(&row.lineage, &f_vector(&layout, row).unwrap())
                .unwrap();
        }
        let report = reference.report(&online.analysis.gus).unwrap();
        let (eo, er) = (online.snapshot.aggs[0].estimate, report.estimate[0]);
        prop_assert!(
            (eo - er).abs() <= 1e-12 * (1.0 + er.abs()),
            "estimate {eo} vs reference {er}"
        );
        match (online.snapshot.aggs[0].variance, report.variance(0).ok()) {
            (Some(vo), Some(vr)) => prop_assert!(
                (vo - vr).abs() <= 1e-12 * (1.0 + vr.abs()),
                "variance {vo} vs reference {vr}"
            ),
            (vo, vr) => prop_assert_eq!(vo.is_some(), vr.is_some()),
        }
    }
}

#[test]
fn adaptive_chunks_change_cadence_not_estimates() {
    let c = catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.8 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let run = |adaptive: bool| {
        run(
            &plan,
            &c,
            &QueryOptions {
                seed: 5,
                chunk_rows: 8,
                adaptive_chunks: adaptive,
                ..Default::default()
            },
            |_| {},
        )
        .unwrap()
    };
    let fixed = run(false);
    let adaptive = run(true);
    // The realized sample is chunk-size independent, so the exhaustion
    // estimates agree …
    assert_eq!(fixed.snapshot.rows, adaptive.snapshot.rows);
    let (ef, ea) = (
        fixed.snapshot.aggs[0].estimate,
        adaptive.snapshot.aggs[0].estimate,
    );
    assert!((ef - ea).abs() <= 1e-9 * (1.0 + ef.abs()), "{ef} vs {ea}");
    let (vf, va) = (
        fixed.snapshot.aggs[0].variance.unwrap(),
        adaptive.snapshot.aggs[0].variance.unwrap(),
    );
    assert!((vf - va).abs() <= 1e-9 * (1.0 + vf.abs()), "{vf} vs {va}");
    // … while the adaptive run needs far fewer snapshots once the relative
    // CI width plateaus (8-row chunks over ~480 sampled rows: ~60 fixed
    // snapshots vs a doubling schedule).
    assert!(
        adaptive.chunks * 2 < fixed.chunks,
        "adaptive {} vs fixed {} snapshots",
        adaptive.chunks,
        fixed.chunks
    );
}

#[test]
fn adaptive_chunks_respect_the_cap_and_ci_rule() {
    // A CI-target run with adaptive chunks must still stop on the rule and
    // report a tight interval — growth only coarsens snapshot cadence.
    let mut c = Catalog::new();
    let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
    let mut b = TableBuilder::new("big", schema);
    for i in 0..60_000i64 {
        b.push_row(&[Value::Float(1.0 + (i % 7) as f64)]).unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    let plan = LogicalPlan::scan("big")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let r = run(
        &plan,
        &c,
        &QueryOptions {
            seed: 4,
            chunk_rows: 64,
            rule: StoppingRule::ci(0.05, 0.95),
            adaptive_chunks: true,
            ..Default::default()
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(r.reason, StopReason::CiConverged);
    assert!(r.snapshot.rel_half_width.unwrap() <= 0.05);
    assert!(
        r.snapshot.rows < 30_000,
        "stopped early: {}",
        r.snapshot.rows
    );
}

/// `|a - b| ≤ 1e-9 · (1 + |b|)` on estimates and variances, aggregate by
/// aggregate.
fn assert_same_estimates(what: &str, batch: &[AggResult], run: &[AggResult]) {
    assert_eq!(batch.len(), run.len(), "{what}");
    for (b, r) in batch.iter().zip(run) {
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * (1.0 + y.abs());
        assert!(
            close(b.estimate, r.estimate),
            "{what} {}: batch {} vs run {}",
            b.name,
            b.estimate,
            r.estimate
        );
        let (bv, rv) = (b.variance.unwrap(), r.variance.unwrap());
        assert!(
            close(bv, rv),
            "{what} {}: batch var {bv} vs run {rv}",
            b.name
        );
    }
}

/// The one-shot batch estimator drains the stream `run()` opens, so for a
/// fixed seed it reads the very sample a run to exhaustion reads.
#[test]
fn batch_equals_run_to_exhaustion() {
    let engine = Engine::new(catalog());
    let aggs = || {
        vec![
            AggSpec::sum(col("v"), "s"),
            AggSpec::count_star("n"),
            AggSpec::avg(col("v"), "a"),
        ]
    };
    let bernoulli = |p| SamplingMethod::Bernoulli { p };
    let scalar = LogicalPlan::scan("t")
        .sample(bernoulli(0.3))
        .aggregate(aggs());
    let wor = LogicalPlan::scan("t")
        .sample(SamplingMethod::Wor { size: 100 })
        .aggregate(aggs());
    let join = LogicalPlan::scan("t")
        .sample(bernoulli(0.5))
        .join_on(
            LogicalPlan::scan("d").sample(bernoulli(0.5)),
            col("k").eq(col("dk")),
        )
        .aggregate(vec![AggSpec::sum(col("w"), "s"), AggSpec::count_star("n")]);
    let union = LogicalPlan::scan("t")
        .sample(bernoulli(0.4))
        .union_samples(LogicalPlan::scan("t").sample(bernoulli(0.4)))
        .aggregate(aggs());
    let grouped = (scalar.clone(), vec![col("s")]);
    let cases = [
        ("scalar", (scalar, vec![])),
        ("grouped", grouped),
        ("wor100", (wor, vec![])),
        ("join", (join, vec![])),
        ("union", (union, vec![])),
    ];
    for (name, (plan, keys)) in cases {
        for jobs in [1usize, 4] {
            let query = || {
                engine
                    .session()
                    .query_plan(&plan)
                    .group_by(keys.clone())
                    .seed(9)
                    .chunk_rows(64)
                    .jobs(jobs)
            };
            let (batch, run) = (query().batch(), query().run());
            if name == "union" && jobs > 1 {
                // A union's lineage dedup cannot be partitioned: both
                // terminals refuse it alike.
                let (b, r) = (batch.unwrap_err(), run.unwrap_err());
                assert_eq!(b.to_string(), r.to_string());
                continue;
            }
            let (batch, run) = (batch.unwrap(), run.unwrap());
            assert_eq!(run.reason, StopReason::Exhausted);
            let what = format!("{name} at jobs={jobs}");
            match (&batch, &run.snapshot) {
                (BatchOutput::Scalar(b), Snapshot::Scalar(r)) => {
                    assert_eq!(b.result_rows, r.rows, "{what}");
                    assert_same_estimates(&what, &b.aggs, &r.aggs);
                }
                (BatchOutput::Grouped(b), Snapshot::Grouped(r)) => {
                    assert_eq!(b.result_rows, r.rows, "{what}");
                    assert_eq!(b.groups.len(), r.groups.len(), "{what}");
                    for (bg, rg) in b.groups.iter().zip(&r.groups) {
                        assert_eq!(bg.key, rg.key, "{what}");
                        assert_eq!(bg.sample_rows, rg.sample_rows, "{what}");
                        assert_same_estimates(&what, &bg.aggs, &rg.aggs);
                    }
                }
                _ => panic!("{what}: batch and run disagree on the result shape"),
            }
        }
    }
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
