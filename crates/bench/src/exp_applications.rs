//! Experiment E8: the Section 8 applications, as reportable tables.

use sa_core::{GusParams, SBox};
use sa_exec::exact_query;
use sa_sql::plan_sql;

use crate::workloads;

/// E8(i): database-as-a-sample robustness analysis.
pub fn robustness() -> String {
    let catalog = workloads::tpch_small(41);
    let li = catalog.get("lineitem").unwrap();
    let qty: Vec<f64> = {
        let c = li.column_by_name("l_quantity").unwrap();
        (0..li.row_count() as usize)
            .map(|r| c.f64_at(r).unwrap())
            .collect()
    };
    let mut spiky = qty.clone();
    let total: f64 = qty.iter().sum();
    for v in spiky.iter_mut().take(3) {
        *v = total / 4.0;
    }
    let rse = |values: &[f64], keep: f64| {
        let mut sbox = SBox::new(GusParams::bernoulli("db", keep).unwrap());
        for (i, v) in values.iter().enumerate() {
            sbox.push_scalar(&[i as u64], *v).unwrap();
        }
        let rep = sbox.finish().unwrap();
        rep.std_error(0).unwrap() / rep.estimate[0].abs()
    };
    let mut out = String::from(
        "### E8(i) — Database as a sample: robustness to 1% tuple loss\n\n\
         | aggregate | rel. std err (99% view) | verdict |\n|---|---|---|\n",
    );
    for (name, data) in [("SUM(l_quantity)", &qty), ("spiky variant", &spiky)] {
        let r = rse(data, 0.99);
        out.push_str(&format!(
            "| {name} | {:.4}% | {} |\n",
            r * 100.0,
            if r < 0.005 { "robust" } else { "fragile" }
        ));
    }
    out
}

/// E8(ii): choosing sampling parameters — predicted vs true design variance.
pub fn design_prediction() -> String {
    let catalog = workloads::tpch_small(43);
    let plan = workloads::single_table(&catalog, 30.0);
    let pilot = workloads::batch_estimate(&catalog, &plan, 4, None);
    let mut out = String::from(
        "### E8(ii) — Choosing sampling parameters from one pilot run (B(0.3))\n\n\
         | candidate design | predicted variance | true (oracle) variance | ratio |\n\
         |---|---|---|---|\n",
    );
    for p in [0.05, 0.1, 0.2, 0.5, 0.8] {
        let alt = GusParams::bernoulli("lineitem", p).unwrap();
        let predicted = pilot.report.predict_variance(&alt, 0).unwrap();
        let alt_plan = workloads::single_table(&catalog, p * 100.0);
        let truth = sa_baselines::oracle_variance(&alt_plan, &catalog).unwrap();
        out.push_str(&format!(
            "| Bernoulli({p}) | {predicted:.3e} | {truth:.3e} | {:.2} |\n",
            predicted / truth
        ));
    }
    out.push_str("\nExpected shape: ratios ≈ 1 — one sampled run prices every design.\n");
    out
}

/// E8(iii): intermediate result-size (COUNT) estimation.
pub fn size_estimation() -> String {
    let catalog = workloads::tpch_small(47);
    let plan = plan_sql(
        "SELECT COUNT(*) \
         FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (20 PERCENT) \
         WHERE l_orderkey = o_orderkey AND l_quantity > 25",
        &catalog,
    )
    .unwrap();
    let exact = exact_query(&plan, &catalog).unwrap()[0];
    let mut out = format!(
        "### E8(iii) — Intermediate-result size estimation (join selectivity)\n\n\
         True join size: {exact:.0} tuples.\n\n\
         | seed | estimated size | 95% normal CI | true inside? |\n|---|---|---|---|\n"
    );
    for seed in 0..8u64 {
        let r = workloads::batch_estimate(&catalog, &plan, seed, None);
        let ci = r.aggs[0].ci_normal.unwrap();
        out.push_str(&format!(
            "| {seed} | {:.0} | [{:.0}, {:.0}] | {} |\n",
            r.aggs[0].estimate,
            ci.lo,
            ci.hi,
            if ci.contains(exact) { "yes" } else { "no" }
        ));
    }
    out
}

/// All Section 8 applications.
pub fn applications() -> String {
    let mut out = String::from("## E8 — Applications (Section 8)\n\n");
    out.push_str(&robustness());
    out.push('\n');
    out.push_str(&design_prediction());
    out.push('\n');
    out.push_str(&size_estimation());
    out
}
