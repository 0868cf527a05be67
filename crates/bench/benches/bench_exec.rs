//! Criterion bench: sampled-plan execution — the engine-side cost of the
//! pipeline (scan + sample + hash join + lineage bookkeeping), and the full
//! one-shot batch estimate (`QueryBuilder::batch`) including estimation.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sa_bench::workloads;
use sa_exec::{open_stream, ExecOptions};
use sa_online::Engine;
use sa_plan::LogicalPlan;

fn bench_sampled_join_execution(c: &mut Criterion) {
    let catalog = workloads::tpch_small(3);
    let mut group = c.benchmark_group("sampled_join_exec");
    for pct in [5.0f64, 20.0, 50.0] {
        let plan = workloads::two_table(&catalog, pct);
        let LogicalPlan::Aggregate { input, .. } = plan.clone() else {
            unreachable!()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{pct}pct")),
            &input,
            |b, input| {
                b.iter(|| {
                    let opts = ExecOptions {
                        seed: 1,
                        ..Default::default()
                    };
                    let mut stream = open_stream(black_box(input), &catalog, &opts).unwrap();
                    let mut rows = 0;
                    loop {
                        let chunk = stream.next_batch(4096).unwrap();
                        if chunk.is_empty() {
                            break;
                        }
                        rows += chunk.rows();
                    }
                    black_box(rows)
                })
            },
        );
    }
    group.finish();
}

fn bench_full_approx_pipeline(c: &mut Criterion) {
    let engine = Engine::new(workloads::tpch_small(3));
    let catalog = engine.catalog();
    let mut group = c.benchmark_group("approx_pipeline");
    for (name, plan) in [
        ("1table", workloads::single_table(catalog, 10.0)),
        ("2table", workloads::two_table(catalog, 10.0)),
        ("3table", workloads::three_table(catalog, 20.0)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &plan, |b, plan| {
            b.iter(|| {
                let out = engine
                    .session()
                    .query_plan(black_box(plan))
                    .seed(1)
                    .batch()
                    .unwrap();
                black_box(out.as_scalar().unwrap().aggs[0].estimate)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sampled_join_execution,
    bench_full_approx_pipeline
);
criterion_main!(benches);
