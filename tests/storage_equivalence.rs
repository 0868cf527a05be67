//! InRam vs memory-mapped backend equivalence — the differential layer the
//! out-of-core storage hangs on.
//!
//! A proptest draws a random plan (sampler × filter × projection × optional
//! join), a random seed, independent chunk splits and a worker count, then
//! runs it against the same data twice: once over the in-RAM catalog the
//! rows were built in, once over `.sac` files persisted to disk and
//! reopened memory-mapped. The realized tuples (values AND lineage ids)
//! must be byte-identical, and the online estimates must agree to 1e-12
//! relative — with projection/predicate pushdown on or off, sequentially
//! and at `parallelism = 4`. A separate test pins that two independent
//! mapped reopens replay the same realization (no hidden per-mapping
//! state).

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use sampling_algebra::exec::{open_stream, ExecOptions, Row};
use sampling_algebra::prelude::*;
use sampling_algebra::storage::{open_catalog_dir, persist_catalog};

/// `t`: 600 rows of (k Int, v Float-with-NULLs, s Str-with-NULLs), block
/// size 16 — nulls exercise the validity bitmaps, strings the dictionary
/// pages; `d`: a 12-row dimension table for the join case.
fn build_catalog() -> Catalog {
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

/// The on-disk `.sac` image of [`build_catalog`], written once per process.
fn sac_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("sa-storage-eq-{}", std::process::id()));
        persist_catalog(&build_catalog(), &dir).unwrap();
        dir
    })
}

/// A fresh memory-mapped reopen of the persisted catalog (its own mmap —
/// nothing shared with any previous open).
fn mapped_catalog() -> Catalog {
    open_catalog_dir(sac_dir()).unwrap()
}

/// A random (non-aggregate) plan over `t` (possibly ⋈ `d`) plus the column
/// the SUM aggregates.
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

fn collect(input: &LogicalPlan, c: &Catalog, opts: &ExecOptions, hint: usize) -> Vec<Row> {
    open_stream(input, c, opts)
        .unwrap()
        .collect_rows(hint)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mapped_backend_is_byte_identical_to_in_ram(
        sampler in 0u8..4,
        p in 0.1f64..1.0,
        wor in 1u64..500,
        pred in 0u8..4,
        proj in 0u8..3,
        join in any::<bool>(),
        seed in 0u64..1000,
        hint_a in 1usize..300,
        hint_b in 1usize..300,
        jobs in prop::sample::select(vec![1usize, 4]),
    ) {
        let ram = build_catalog();
        let mapped = mapped_catalog();
        let (input, agg_col) = build_plan(sampler, p, wor, pred, proj, join);
        let opts = ExecOptions { seed, ..Default::default() };

        // 1. Realized tuples: values and lineage ids byte-identical across
        //    backends, under independent chunk splits.
        let ram_rows = collect(&input, &ram, &opts, hint_a);
        let map_rows = collect(&input, &mapped, &opts, hint_b);
        prop_assert_eq!(&ram_rows, &map_rows);

        // 2. Pushdown off changes nothing but the gather work: same rows,
        //    same lineage, on the mapped backend too.
        let off = ExecOptions { seed, disable_pushdown: true, ..Default::default() };
        prop_assert_eq!(&map_rows, &collect(&input, &mapped, &off, hint_a));

        // 3. Online estimates agree to 1e-12 relative — sequentially and
        //    shard-parallel (the drawn `jobs`), backends compared at the
        //    same worker count.
        let plan = input.aggregate(vec![AggSpec::sum(agg_col, "s")]);
        let online = |c: &Catalog| {
            run(
                &plan,
                c,
                &QueryOptions {
                    seed,
                    chunk_rows: hint_a,
                    parallelism: jobs,
                    ..Default::default()
                },
                |_| {},
            )
            .unwrap()
        };
        let a = online(&ram);
        let b = online(&mapped);
        prop_assert_eq!(a.snapshot.rows, b.snapshot.rows);
        let (ea, eb) = (a.snapshot.aggs[0].estimate, b.snapshot.aggs[0].estimate);
        prop_assert!(
            (ea - eb).abs() <= 1e-12 * (1.0 + ea.abs()),
            "estimate {ea} (ram) vs {eb} (mapped)"
        );
        match (a.snapshot.aggs[0].variance, b.snapshot.aggs[0].variance) {
            (Some(va), Some(vb)) => prop_assert!(
                (va - vb).abs() <= 1e-12 * (1.0 + va.abs()),
                "variance {va} (ram) vs {vb} (mapped)"
            ),
            (va, vb) => prop_assert_eq!(va.is_some(), vb.is_some()),
        }
    }
}

/// Two independent mapped reopens of the same `.sac` directory replay the
/// same seeded realization byte for byte — the mapping carries no hidden
/// per-open state.
#[test]
fn mapped_reopen_replays_byte_identical() {
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.37 })
        .filter(col("v").gt(lit(30.0)));
    let opts = ExecOptions {
        seed: 99,
        ..Default::default()
    };
    let first = collect(&plan, &mapped_catalog(), &opts, 64);
    let second = collect(&plan, &mapped_catalog(), &opts, 17);
    assert!(!first.is_empty());
    assert_eq!(first, second);
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
