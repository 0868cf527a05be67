//! Experiment E6: runtime analysis.
//!
//! (i) SOA rewriter latency vs number of relations (the paper claims "a few
//! milliseconds even for plans involving 10 relations");
//! (ii) SBox estimation cost vs result size `m` and vs relation count `n`
//! (the `2ⁿ` group-by terms);
//! (iii) the Section 7 sub-sampled variance estimator: wall-time and
//! accuracy against the full-sample estimator.

use std::time::Instant;

use sa_core::{estimate_from_sample_moments, GroupedMoments, SBox};
use sa_plan::rewrite;

use crate::workloads;

/// (i) Rewriter latency vs relation count.
pub fn rewriter_latency() -> String {
    let mut out = String::from(
        "### E6(i) — SOA rewriter latency vs number of relations\n\n\
         | relations | rewrite time (µs, median of 50) |\n|---|---|\n",
    );
    for n in [2usize, 4, 6, 8, 10, 12] {
        let catalog = workloads::synthetic_relations(n, 10);
        let plan = workloads::synthetic_plan(n, 0.5);
        let mut times: Vec<u128> = (0..50)
            .map(|_| {
                let t0 = Instant::now();
                let a = rewrite(&plan, &catalog).unwrap();
                std::hint::black_box(a.gus.a());
                t0.elapsed().as_micros()
            })
            .collect();
        times.sort_unstable();
        out.push_str(&format!("| {n} | {} |\n", times[times.len() / 2]));
    }
    out.push_str(
        "\nExpected shape: a few milliseconds at 10 relations, matching the paper's \
         claim; growth beyond that is dominated by the dense 2ⁿ b̄ table.\n",
    );
    out
}

/// (ii) SBox cost vs result size and vs relation count.
pub fn sbox_cost() -> String {
    let mut out = String::from(
        "### E6(ii) — SBox estimation cost\n\n\
         Cost vs result-set size m (2 relations):\n\n\
         | m (tuples) | estimate+variance time (ms) | ns/tuple |\n|---|---|---|\n",
    );
    // Synthetic (lineage, f) streams, 2 relations.
    let gus2 = sa_core::GusParams::bernoulli("x", 0.1)
        .unwrap()
        .join(&sa_core::GusParams::bernoulli("y", 0.1).unwrap())
        .unwrap();
    for m in [1_000u64, 10_000, 100_000, 1_000_000] {
        let t0 = Instant::now();
        let mut sbox = SBox::new(gus2.clone());
        for i in 0..m {
            sbox.push_scalar(&[i % 1000, i % 337], (i % 97) as f64)
                .unwrap();
        }
        let rep = sbox.finish().unwrap();
        std::hint::black_box(rep.estimate[0]);
        let el = t0.elapsed();
        out.push_str(&format!(
            "| {m} | {:.2} | {:.0} |\n",
            el.as_secs_f64() * 1e3,
            el.as_nanos() as f64 / m as f64
        ));
    }

    out.push_str(
        "\nCost vs relation count n (m = 50 000 tuples; the 2ⁿ grouping terms):\n\n\
         | n (relations) | time (ms, best of 3) | vs n=1 |\n|---|---|---|\n",
    );
    let m = 50_000u64;
    let mut base = 0.0;
    for n in [1usize, 2, 3, 4, 5, 6] {
        let mut gus = sa_core::GusParams::bernoulli("r0", 0.5).unwrap();
        for i in 1..n {
            gus = gus
                .join(&sa_core::GusParams::bernoulli(format!("r{i}"), 0.5).unwrap())
                .unwrap();
        }
        let run_once = || {
            let t0 = Instant::now();
            let mut acc = GroupedMoments::new(n, 1);
            let mut lineage = vec![0u64; n];
            for i in 0..m {
                for (j, l) in lineage.iter_mut().enumerate() {
                    *l = (i * (j as u64 + 1)) % 977;
                }
                acc.push_scalar(&lineage, (i % 31) as f64).unwrap();
            }
            let rep = estimate_from_sample_moments(&gus, &acc.finish()).unwrap();
            std::hint::black_box(rep.estimate[0]);
            t0.elapsed().as_secs_f64() * 1e3
        };
        run_once(); // warm up (allocator, page faults)
        let ms = (0..3).map(|_| run_once()).fold(f64::INFINITY, f64::min);
        if n == 1 {
            base = ms;
        }
        out.push_str(&format!("| {n} | {ms:.2} | {:.1}× |\n", ms / base));
    }
    out.push_str("\nExpected shape: linear in m; ≈2× per extra relation (the 2ⁿ terms).\n");
    out
}

/// (iii) Section 7 sub-sampling: estimator wall time and variance agreement.
pub fn subsample() -> String {
    // Larger scale so the full result comfortably exceeds the 10k target.
    let catalog = sa_tpch::generate(&sa_tpch::TpchConfig::scale(0.02).with_seed(31));
    let plan = workloads::two_table(&catalog, 60.0);
    let mut out = String::from(
        "### E6(iii) — Section 7 sub-sampled variance estimation (2-table join, 60% Bernoulli)\n\n\
         | variance source | tuples used | std-error estimate | total time (ms) |\n|---|---|---|---|\n",
    );
    let t0 = Instant::now();
    let full = workloads::batch_estimate(&catalog, &plan, 2, None);
    let t_full = t0.elapsed();
    out.push_str(&format!(
        "| full sample | {} | {:.1} | {:.1} |\n",
        full.variance_rows,
        full.aggs[0].variance.unwrap().sqrt(),
        t_full.as_secs_f64() * 1e3
    ));
    for target in [10_000u64, 2_000, 500] {
        let t0 = Instant::now();
        let sub = workloads::batch_estimate(&catalog, &plan, 2, Some(target));
        let t_sub = t0.elapsed();
        out.push_str(&format!(
            "| sub-sample ≈{target} | {} | {:.1} | {:.1} |\n",
            sub.variance_rows,
            sub.aggs[0].variance.unwrap().sqrt(),
            t_sub.as_secs_f64() * 1e3
        ));
    }
    out.push_str(
        "\nExpected shape (paper): ~10k tuples suffice — the std-error estimate stays \
         within a small factor while the variance pass shrinks by orders of magnitude \
         (point estimates are identical by construction).\n",
    );
    out
}

/// All three runtime sub-experiments.
pub fn runtime() -> String {
    let mut out = String::from("## E6 — Runtime analysis\n\n");
    out.push_str(&rewriter_latency());
    out.push('\n');
    out.push_str(&sbox_cost());
    out.push('\n');
    out.push_str(&subsample());
    out
}
