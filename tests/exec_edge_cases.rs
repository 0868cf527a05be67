//! Executor and estimator edge cases: empty inputs, extreme values,
//! operator interleavings, and plan shapes at the boundaries of what the
//! engine supports.

use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use sampling_algebra::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema.clone());
    for i in 0..100 {
        b.push_row(&[Value::Int(i % 10), Value::Float(i as f64)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    let b = TableBuilder::new("empty", schema);
    c.register(b.finish().unwrap()).unwrap();
    c
}

#[test]
fn empty_table_through_whole_pipeline() {
    let cat = catalog();
    let plan = LogicalPlan::scan("empty")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .aggregate(vec![AggSpec::sum(col("v"), "s"), AggSpec::count_star("n")]);
    let r = batch(&plan, &cat, &QueryOptions::default()).unwrap();
    assert_eq!(r.aggs[0].estimate, 0.0);
    assert_eq!(r.aggs[1].estimate, 0.0);
    assert_eq!(r.result_rows, 0);
    assert_eq!(exact_query(&plan, &cat).unwrap(), vec![0.0, 0.0]);
}

#[test]
fn join_with_empty_side_yields_zero() {
    let cat = catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .join_on(
            LogicalPlan::scan_as("empty", "e"),
            col("t.k").eq(col("e.k")),
        )
        .aggregate(vec![AggSpec::count_star("n")]);
    let r = batch(&plan, &cat, &QueryOptions::default()).unwrap();
    assert_eq!(r.aggs[0].estimate, 0.0);
}

#[test]
fn projection_between_sample_and_aggregate() {
    // Lineage must survive a projection that renames and transforms.
    let cat = catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.6 })
        .project(vec![(col("v").mul(lit(2.0)), "vv".into())])
        .aggregate(vec![AggSpec::sum(col("vv"), "s")]);
    let exact = exact_query(&plan, &cat).unwrap()[0];
    assert_eq!(exact, 2.0 * (0..100).sum::<i64>() as f64);
    let trials = 120u64;
    let mean: f64 = (0..trials)
        .map(|seed| {
            batch(
                &plan,
                &cat,
                &QueryOptions {
                    seed,
                    confidence: 0.95,
                    subsample_target: None,
                    ..Default::default()
                },
            )
            .unwrap()
            .aggs[0]
                .estimate
        })
        .sum::<f64>()
        / trials as f64;
    assert!(
        (mean - exact).abs() < 0.05 * exact,
        "mean {mean} vs {exact}"
    );
}

#[test]
fn filter_between_sample_and_join() {
    // σ between the sampler and the join must not disturb the analysis
    // (Prop 5); the GUS stays Bernoulli(0.5).
    let cat = catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .filter(col("v").gt_eq(lit(10.0)))
        .join_on(LogicalPlan::scan_as("t", "u"), lit(true))
        .aggregate(vec![AggSpec::count_star("n")]);
    // Wait: "t" scanned twice needs distinct aliases — the second scan uses
    // alias "u", so lineage schemas stay disjoint.
    let analysis = rewrite(&plan, &cat).unwrap();
    assert_eq!(analysis.schema.n(), 2);
    assert!((analysis.gus.a() - 0.5).abs() < 1e-12);
}

#[test]
fn huge_values_do_not_overflow() {
    let gus = GusParams::bernoulli("r", 0.5).unwrap();
    let mut sbox = SBox::new(gus);
    for i in 0..100u64 {
        sbox.push_scalar(&[i], 1e150).unwrap();
    }
    let rep = sbox.finish().unwrap();
    assert!(rep.estimate[0].is_finite());
    // Variance involves squares of 1e150 sums → saturates to +inf; the
    // estimate itself must stay finite and correct.
    assert!((rep.estimate[0] - 100.0 * 1e150 / 0.5).abs() < 1e140);
}

#[test]
fn negative_and_cancelling_values() {
    // f values cancelling to ~zero: estimate near zero, variance positive.
    let cat = {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
        let mut b = TableBuilder::new("pm", schema);
        for i in 0..200 {
            b.push_row(&[Value::Float(if i % 2 == 0 { 1.0 } else { -1.0 })])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        c
    };
    let plan = LogicalPlan::scan("pm")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let r = batch(
        &plan,
        &cat,
        &QueryOptions {
            seed: 3,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(r.aggs[0].estimate.abs() < 60.0);
    assert!(r.aggs[0].variance.unwrap() > 0.0);
    // Exact answer 0 should be inside the Chebyshev interval.
    assert!(r.aggs[0].ci_chebyshev.as_ref().unwrap().contains(0.0));
}

#[test]
fn aliased_same_table_join_is_analyzable() {
    // Self-join *with aliases* is allowed by the engine (distinct lineage
    // names); the paper's ban is on shared lineage, which aliasing avoids
    // at the cost of treating the two scans as independent relations.
    let cat = catalog();
    let plan = LogicalPlan::scan_as("t", "a")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .join_on(
            LogicalPlan::scan_as("t", "b").sample(SamplingMethod::Bernoulli { p: 0.5 }),
            col("a.k").eq(col("b.k")),
        )
        .aggregate(vec![AggSpec::count_star("n")]);
    let analysis = rewrite(&plan, &cat).unwrap();
    assert_eq!(analysis.schema.n(), 2);
    assert!((analysis.gus.a() - 0.25).abs() < 1e-12);
    // Executes fine too.
    let r = batch(&plan, &cat, &QueryOptions::default()).unwrap();
    assert!(r.aggs[0].estimate >= 0.0);
}

#[test]
fn wor_of_entire_table_is_exact() {
    let cat = catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Wor { size: 100 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let r = batch(&plan, &cat, &QueryOptions::default()).unwrap();
    let exact = exact_query(&plan, &cat).unwrap()[0];
    assert!((r.aggs[0].estimate - exact).abs() < 1e-9);
    assert!(r.aggs[0].variance.unwrap() < 1e-6);
}

#[test]
fn quantile_on_count_and_avg() {
    let cat = catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .aggregate(vec![
            AggSpec::count_star("n").with_quantile(0.9),
            AggSpec::avg(col("v"), "a").with_quantile(0.9),
        ]);
    let r = batch(&plan, &cat, &QueryOptions::default()).unwrap();
    for a in &r.aggs {
        let q = a.quantile_bound.unwrap();
        assert!(q >= a.estimate, "0.9-quantile below the point estimate");
    }
}

#[test]
fn zero_probability_sampler_estimate_degenerate() {
    let cat = catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.0 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    // a = 0: nothing can be estimated; surfaced as an error, not a panic.
    assert!(batch(&plan, &cat, &QueryOptions::default()).is_err());
}

/// The one-shot batch estimate of the scalar `plan` (`QueryBuilder::batch`).
fn batch(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &QueryOptions,
) -> Result<ApproxResult, sampling_algebra::online::Error> {
    let query = Engine::new(catalog.clone()).session().query_plan(plan);
    let out = query.options(opts.clone()).batch()?;
    Ok(out.as_scalar().expect("scalar plan").clone())
}
