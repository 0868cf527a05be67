//! Criterion bench for the online aggregation subsystem: incremental
//! accumulation vs batch, the O(1)-in-rows snapshot readout, shard merge,
//! and the columnar stream vs its row adapter.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sa_bench::workloads;
use sa_core::{GroupedMoments, GusParams, MomentAccumulator};
use sa_exec::{open_stream, ExecOptions};
use sa_online::{Engine, QueryOptions, StoppingRule};
use sa_plan::{AggSpec, LogicalPlan};
use sa_sampling::SamplingMethod;
use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};

const M: u64 = 50_000;

fn push_all_incremental(m: u64) -> MomentAccumulator {
    let mut acc = MomentAccumulator::new(2, 1);
    for i in 0..m {
        acc.push_scalar(black_box(&[i % 997, i % 337]), (i % 97) as f64)
            .unwrap();
    }
    acc
}

/// The per-push cost of maintaining `y_S` incrementally, against the batch
/// accumulator that defers the squaring to `finish()`.
fn bench_accumulate(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_accumulate");
    group.throughput(Throughput::Elements(M));
    group.bench_function("incremental", |b| {
        b.iter(|| black_box(push_all_incremental(M).snapshot().total[0]))
    });
    group.bench_function("batch", |b| {
        b.iter(|| {
            let mut acc = GroupedMoments::new(2, 1);
            for i in 0..M {
                acc.push_scalar(black_box(&[i % 997, i % 337]), (i % 97) as f64)
                    .unwrap();
            }
            black_box(acc.finish().total[0])
        })
    });
    group.finish();
}

/// The whole point of the incremental accumulator: a full estimate readout
/// (snapshot + Ŷ recursion + CI inputs) costs the same no matter how many
/// rows were consumed.
fn bench_snapshot_readout(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_readout");
    let gus = GusParams::bernoulli("x", 0.5)
        .unwrap()
        .join(&GusParams::bernoulli("y", 0.5).unwrap())
        .unwrap();
    for m in [1_000u64, 10_000, 100_000] {
        let acc = push_all_incremental(m);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| black_box(acc.report(&gus).unwrap().estimate[0]))
        });
    }
    group.finish();
}

/// Absorbing a shard-local accumulator (the building block for parallel
/// chunk processing).
fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_merge");
    let left = push_all_incremental(M);
    let right = push_all_incremental(M);
    group.bench_function("merge_50k_into_50k", |b| {
        b.iter(|| {
            let mut l = left.clone();
            l.merge(black_box(&right)).unwrap();
            black_box(l.count())
        })
    });
    group.finish();
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema);
    for i in 0..100_000i64 {
        b.push_row(&[Value::Int(i % 100), Value::Float((i % 13) as f64)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

/// The row adapter (`next_chunk`) vs the columnar chunks it wraps
/// (`next_batch`), over the same sampled stream.
fn bench_stream_vs_materialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_stream");
    let cat = catalog();
    let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("chunked_stream", |b| {
        b.iter(|| {
            let mut s = open_stream(
                &plan,
                &cat,
                &ExecOptions {
                    seed: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut rows = 0u64;
            loop {
                let chunk = s.next_chunk(4096).unwrap();
                if chunk.is_empty() {
                    break;
                }
                rows += chunk.len() as u64;
            }
            black_box(rows)
        })
    });
    group.bench_function("columnar_stream", |b| {
        b.iter(|| {
            let opts = ExecOptions {
                seed: 1,
                ..Default::default()
            };
            let mut s = open_stream(&plan, &cat, &opts).unwrap();
            let mut rows = 0u64;
            loop {
                let chunk = s.next_batch(4096).unwrap();
                if chunk.is_empty() {
                    break;
                }
                rows += chunk.rows() as u64;
            }
            black_box(rows)
        })
    });
    group.finish();
}

/// End-to-end progressive loop: exhaustive vs an early-stopping CI rule —
/// the wall-clock win online aggregation buys.
fn bench_progressive_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_loop");
    let engine = Engine::new(catalog());
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .aggregate(vec![AggSpec::sum(sa_expr::col("v"), "s")]);
    let base = QueryOptions {
        seed: 3,
        chunk_rows: 4096,
        ..Default::default()
    };
    let early = QueryOptions {
        rule: StoppingRule::ci(0.05, 0.95),
        ..base.clone()
    };
    for (name, opts) in [("run_to_exhaustion", &base), ("stop_at_5pct_ci", &early)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let query = engine.session().query_plan(&plan).options(opts.clone());
                black_box(query.run().unwrap().snapshot.rows())
            })
        });
    }
    group.finish();
}

/// The TPC-H scan+filter workload (the PR-5 acceptance query): exhaustion
/// throughput of the columnar online loop over a sampled lineitem scan
/// with a selection and a projected arithmetic expression. The plans come
/// from `workloads::columnar` — the same definitions `bench_report`
/// measures into `BENCH_PR5.json`.
fn bench_tpch_scan_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_tpch");
    let engine = Engine::new(workloads::tpch_small(7));
    let rows = engine.catalog().get("lineitem").unwrap().row_count();
    group.throughput(Throughput::Elements(rows));
    let scan = workloads::columnar::scan_plan();
    let scan_filter = workloads::columnar::filter_project_plan();
    for (name, plan) in [("scan", &scan), ("scan_filter", &scan_filter)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let query = engine
                    .session()
                    .query_plan(black_box(plan))
                    .seed(1)
                    .chunk_rows(4096);
                black_box(query.run().unwrap().snapshot.rows())
            })
        });
    }
    group.finish();
}

/// The observability hot-path contract: an exhaustion run through the
/// engine with metrics on must sit within noise of the same run with
/// metrics off. Instrumentation is per-chunk and lock-free, never per-row;
/// `bench_report --check-overhead` turns this comparison into a CI gate.
fn bench_metrics_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_metrics");
    group.throughput(Throughput::Elements(100_000));
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .aggregate(vec![AggSpec::sum(sa_expr::col("v"), "s")]);
    for (name, metrics) in [("metrics_off", false), ("metrics_on", true)] {
        let engine = Engine::builder(catalog()).metrics(metrics).build();
        group.bench_function(name, |b| {
            b.iter(|| {
                let r = engine
                    .session()
                    .query_plan(black_box(&plan))
                    .seed(3)
                    .chunk_rows(4096)
                    .run()
                    .unwrap();
                black_box(r.snapshot.rows())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_accumulate,
    bench_snapshot_readout,
    bench_merge,
    bench_stream_vs_materialize,
    bench_progressive_loop,
    bench_tpch_scan_filter,
    bench_metrics_overhead
);
criterion_main!(benches);
