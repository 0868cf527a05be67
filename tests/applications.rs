//! The Section 8 applications of the paper, as integration tests:
//!
//! 1. **Database as a sample** — robustness analysis by viewing the stored
//!    data as a 99% Bernoulli sample of a hypothetical complete database.
//! 2. **Choosing sampling parameters** — predict the variance of *other*
//!    sampling designs from one sampling instance's `Ŷ_S`.
//! 3. **Estimating the size of intermediate relations** — COUNT estimation
//!    with precision, for optimizer-style cardinality estimates.

use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use sampling_algebra::prelude::*;

fn catalog_with(values: &[f64]) -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema);
    for (i, v) in values.iter().enumerate() {
        b.push_row(&[Value::Int(i as i64 % 20), Value::Float(*v)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

#[test]
fn database_as_a_sample_flags_fragile_queries() {
    // Uniform data: losing 1% of tuples barely moves the SUM.
    let uniform: Vec<f64> = (0..1000).map(|_| 1.0).collect();
    // Fragile data: one tuple carries half the total.
    let mut fragile: Vec<f64> = (0..1000).map(|_| 1.0).collect();
    fragile[0] = 1000.0;

    let robustness = |values: &[f64]| -> f64 {
        // View the database as a 99% Bernoulli sample (Section 8): compute
        // the estimator's relative standard error under G(0.99).
        let gus = GusParams::bernoulli("t", 0.99).unwrap();
        let mut sbox = SBox::new(gus);
        for (i, v) in values.iter().enumerate() {
            sbox.push_scalar(&[i as u64], *v).unwrap();
        }
        let rep = sbox.finish().unwrap();
        rep.std_error(0).unwrap() / rep.estimate[0]
    };

    let uniform_rse = robustness(&uniform);
    let fragile_rse = robustness(&fragile);
    assert!(
        fragile_rse > 10.0 * uniform_rse,
        "fragile {fragile_rse} vs uniform {uniform_rse}: robustness signal missing"
    );
}

#[test]
fn choosing_sampling_parameters_predicts_other_designs() {
    // From ONE Bernoulli(0.3) sampling instance, predict the estimator
    // variance of Bernoulli(p') for other p' and compare against the true
    // Theorem-1 variance of those designs.
    let values: Vec<f64> = (0..2000).map(|i| 1.0 + (i % 13) as f64).collect();
    let cat = catalog_with(&values);

    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.3 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let run = batch(
        &plan,
        &cat,
        &QueryOptions {
            seed: 4,
            confidence: 0.95,
            subsample_target: None,
            ..Default::default()
        },
    )
    .unwrap();

    for p_alt in [0.05, 0.1, 0.5, 0.8] {
        let alt = GusParams::bernoulli("t", p_alt).unwrap();
        let predicted = run.report.predict_variance(&alt, 0).unwrap();
        // True variance of the alternative design over the population.
        let alt_plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: p_alt })
            .aggregate(vec![AggSpec::sum(col("v"), "s")]);
        let truth = oracle_variance(&alt_plan, &cat).unwrap();
        assert!(
            (predicted - truth).abs() < 0.25 * truth,
            "p'={p_alt}: predicted {predicted} vs true {truth}"
        );
    }
}

#[test]
fn predicted_variance_ranks_designs_correctly() {
    // Even when absolute prediction is noisy, the ranking of designs (more
    // sampling → less variance) must hold — that is what a user needs to
    // choose parameters.
    let values: Vec<f64> = (0..1500).map(|i| (i % 7) as f64).collect();
    let cat = catalog_with(&values);
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.4 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let run = batch(
        &plan,
        &cat,
        &QueryOptions {
            seed: 9,
            confidence: 0.95,
            subsample_target: None,
            ..Default::default()
        },
    )
    .unwrap();
    let predict = |p: f64| {
        run.report
            .predict_variance(&GusParams::bernoulli("t", p).unwrap(), 0)
            .unwrap()
    };
    let v05 = predict(0.05);
    let v2 = predict(0.2);
    let v8 = predict(0.8);
    assert!(v05 > v2 && v2 > v8, "ranking broken: {v05} {v2} {v8}");
}

#[test]
fn intermediate_result_size_estimation() {
    // COUNT of a selective join — the optimizer application. The estimate
    // must be unbiased and come with a usable precision statement.
    let cat = generate(&TpchConfig::scale(0.002).with_seed(2));
    let plan = plan_sql(
        "SELECT COUNT(*) \
         FROM lineitem TABLESAMPLE (15 PERCENT), orders TABLESAMPLE (30 PERCENT) \
         WHERE l_orderkey = o_orderkey AND l_quantity > 25",
        &cat,
    )
    .unwrap();
    let exact = exact_query(&plan, &cat).unwrap()[0];
    let trials = 100;
    let mut mean = 0.0;
    let mut covered = 0;
    for seed in 0..trials {
        let r = batch(
            &plan,
            &cat,
            &QueryOptions {
                seed,
                confidence: 0.95,
                subsample_target: None,
                ..Default::default()
            },
        )
        .unwrap();
        mean += r.aggs[0].estimate;
        if r.aggs[0].ci_chebyshev.as_ref().unwrap().contains(exact) {
            covered += 1;
        }
    }
    mean /= trials as f64;
    assert!((mean - exact).abs() < 0.1 * exact, "mean {mean} vs {exact}");
    assert!(covered >= 97, "size-estimate coverage {covered}/{trials}");
}

#[test]
fn load_shedding_rate_analysis() {
    // Section 8's streaming/load-shedding note: for a target precision,
    // compare candidate shedding rates on a two-relation join by predicted
    // relative error — all from one instrumented run.
    let cat = generate(&TpchConfig::scale(0.002).with_seed(6));
    let plan = plan_sql(
        "SELECT SUM(l_quantity) \
         FROM lineitem TABLESAMPLE (50 PERCENT), orders TABLESAMPLE (50 PERCENT) \
         WHERE l_orderkey = o_orderkey",
        &cat,
    )
    .unwrap();
    let run = batch(
        &plan,
        &cat,
        &QueryOptions {
            seed: 1,
            confidence: 0.95,
            subsample_target: None,
            ..Default::default()
        },
    )
    .unwrap();
    let estimate = run.aggs[0].estimate;
    // Predict the relative error at various joint shedding rates.
    let mut last_rel_err = f64::INFINITY;
    for keep in [0.05, 0.1, 0.2, 0.4] {
        let design = GusParams::bernoulli("lineitem", keep)
            .unwrap()
            .join(&GusParams::bernoulli("orders", keep).unwrap())
            .unwrap();
        let var = run.report.predict_variance(&design, 0).unwrap();
        let rel_err = var.sqrt() / estimate;
        assert!(
            rel_err < last_rel_err,
            "error should shrink as keep-rate grows"
        );
        last_rel_err = rel_err;
    }
    // At a 40% keep rate the predicted relative error should be small.
    assert!(last_rel_err < 0.2, "rel err {last_rel_err}");
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
