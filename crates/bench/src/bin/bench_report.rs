//! Machine-readable throughput report for the online execution engine.
//!
//! Runs the four canonical TPC-H online workloads — scan, filter+project,
//! grouped, join — to exhaustion at 1 and 4 worker threads, and reports
//! result-tuple throughput (rows/s). A second block measures the out-of-core
//! backend and the scan pushdown: the TPC-H scan over a persisted,
//! memory-mapped catalog with pushdown off/on (`scan_mapped`,
//! `scan_mapped_pushdown`), and a 16-column synthetic filter workload where
//! the fused predicate prunes columns, rows, and whole pages
//! (`wide_filter*`). Unlike the criterion benches this tool emits a stable
//! JSON summary, so perf trajectories can be committed next to the code that
//! changed them (see `BENCH_PR5.json`, `BENCH_PR9.json`).
//!
//! ```sh
//! cargo run --release -p sa-bench --bin bench_report -- --json out.json
//! cargo run --release -p sa-bench --bin bench_report -- --scale 0.02 --reps 5
//! cargo run --release -p sa-bench --bin bench_report -- --check-overhead 5
//! ```
//!
//! `--check-overhead PCT` compares the `metrics_on` / `metrics_off`
//! workload pair and exits non-zero when instrumentation costs more than
//! PCT percent of exhaustion throughput — the observability layer's
//! hot-path contract, enforceable in CI.

use std::time::Instant;

use sa_bench::workloads::{self, columnar};
use sa_expr::col;
use sa_online::{Engine, QueryOptions, StoppingRule};
use sa_plan::LogicalPlan;
use sa_storage::{open_catalog_dir, persist_catalog, Catalog};

/// One measured cell of the report.
struct Cell {
    workload: &'static str,
    jobs: usize,
    rows: u64,
    secs: f64,
}

impl Cell {
    fn rows_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.rows as f64 / self.secs
        } else {
            f64::INFINITY
        }
    }
}

fn online_opts(jobs: usize) -> QueryOptions {
    QueryOptions {
        seed: 1,
        chunk_rows: 4096,
        rule: StoppingRule::exhaustive(),
        parallelism: jobs,
        ..Default::default()
    }
}

/// Best-of-`reps` exhaustion run of a scalar workload.
fn measure_scalar(
    workload: &'static str,
    plan: &LogicalPlan,
    catalog: &Catalog,
    jobs: usize,
    reps: usize,
) -> Cell {
    let engine = Engine::new(catalog.clone());
    let mut best = f64::INFINITY;
    let mut rows = 0;
    for _ in 0..reps {
        let query = engine.session().query_plan(plan).options(online_opts(jobs));
        let t = Instant::now();
        let r = query.run().expect("workload runs");
        let secs = t.elapsed().as_secs_f64();
        rows = r.snapshot.rows();
        best = best.min(secs);
    }
    Cell {
        workload,
        jobs,
        rows,
        secs: best,
    }
}

/// Best-of-`reps` exhaustion run of the grouped workload.
fn measure_grouped(catalog: &Catalog, jobs: usize, reps: usize) -> Cell {
    let engine = Engine::new(catalog.clone());
    let plan = columnar::grouped_plan();
    let mut best = f64::INFINITY;
    let mut rows = 0;
    for _ in 0..reps {
        let query = engine
            .session()
            .query_plan(&plan)
            .options(online_opts(jobs))
            .group_by(vec![col("l_returnflag")]);
        let t = Instant::now();
        let r = query.run().expect("grouped workload runs");
        let secs = t.elapsed().as_secs_f64();
        rows = r.snapshot.rows();
        best = best.min(secs);
    }
    Cell {
        workload: "grouped",
        jobs,
        rows,
        secs: best,
    }
}

/// Best-of-`reps` run of N concurrent sessions over one table attached to
/// the engine's shared scan cursor. `rows` reports the storage rows
/// *scanned per query* — the serving win to watch: with sharing, N queries
/// cost ~1 table scan, so the per-query cost falls roughly as 1/N.
fn measure_shared(engine: &Engine, clients: usize, reps: usize) -> Cell {
    let plan = columnar::scan_plan();
    let mut best = f64::INFINITY;
    let mut per_query = 0;
    for _ in 0..reps {
        let before = engine
            .scan_stats("lineitem")
            .map(|s| s.rows_gathered)
            .unwrap_or(0);
        let t = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|i| {
                    let engine = engine.clone();
                    let plan = plan.clone();
                    scope.spawn(move || {
                        engine
                            .session()
                            .query_plan(&plan)
                            .seed(i as u64 + 1)
                            .chunk_rows(4096)
                            .run()
                            .expect("shared workload runs")
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("client thread");
            }
        });
        let secs = t.elapsed().as_secs_f64();
        let after = engine.scan_stats("lineitem").expect("hub exists");
        per_query = (after.rows_gathered - before) / clients as u64;
        best = best.min(secs);
    }
    Cell {
        workload: "shared_scan",
        jobs: clients,
        rows: per_query,
        secs: best,
    }
}

/// Best-of-`reps` exhaustion runs of the scan workload through two engines
/// that differ only in the metrics toggle. Reps interleave off/on so slow
/// drift (thermal, page cache) hits both modes alike.
fn measure_metrics_pair(catalog: &Catalog, reps: usize) -> [Cell; 2] {
    let plan = columnar::scan_plan();
    let engines = [
        Engine::builder(catalog.clone()).build(),
        Engine::builder(catalog.clone()).metrics(true).build(),
    ];
    let mut best = [f64::INFINITY; 2];
    let mut rows = [0u64; 2];
    for _ in 0..reps {
        for (i, engine) in engines.iter().enumerate() {
            let t = Instant::now();
            let r = engine
                .session()
                .query_plan(&plan)
                .seed(1)
                .chunk_rows(4096)
                .run()
                .expect("metrics workload runs");
            let secs = t.elapsed().as_secs_f64();
            rows[i] = r.snapshot.rows();
            best[i] = best[i].min(secs);
        }
    }
    let cell = |workload, i: usize| Cell {
        workload,
        jobs: 1,
        rows: rows[i],
        secs: best[i],
    };
    [cell("metrics_off", 0), cell("metrics_on", 1)]
}

/// Best-of-`reps` exhaustion run through an [`Engine`] session with the
/// scan pushdown toggled — the only surface that exposes the toggle.
/// Shared scans are off so the toggle governs the real per-query scan
/// (attached cursors never fuse predicates).
fn measure_pushdown(
    workload: &'static str,
    plan: &LogicalPlan,
    catalog: &Catalog,
    pushdown: bool,
    reps: usize,
) -> Cell {
    let engine = Engine::builder(catalog.clone()).shared_scans(false).build();
    let mut best = f64::INFINITY;
    let mut rows = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let r = engine
            .session()
            .query_plan(plan)
            .seed(1)
            .chunk_rows(4096)
            .pushdown(pushdown)
            .run()
            .expect("pushdown workload runs");
        let secs = t.elapsed().as_secs_f64();
        rows = r.snapshot.rows();
        best = best.min(secs);
    }
    Cell {
        workload,
        jobs: 1,
        rows,
        secs: best,
    }
}

/// Persist `catalog` as `.sac` files under a per-process temp dir and
/// reopen it memory-mapped.
fn mapped_copy(catalog: &Catalog, tag: &str) -> Catalog {
    let dir = std::env::temp_dir().join(format!("sa-bench-{tag}-{}", std::process::id()));
    persist_catalog(catalog, &dir).expect("persist catalog");
    open_catalog_dir(&dir).expect("reopen mapped catalog")
}

/// The hot-path gate: metrics on may cost at most `pct` percent over off.
fn check_overhead(cells: &[Cell], pct: f64) {
    let secs = |name: &str| {
        cells
            .iter()
            .find(|c| c.workload == name)
            .expect("metrics workload measured")
            .secs
    };
    let (off, on) = (secs("metrics_off"), secs("metrics_on"));
    let overhead = (on - off) / off * 100.0;
    eprintln!(
        "metrics overhead: off {:.1} ms, on {:.1} ms → {overhead:+.2}% (budget {pct}%)",
        off * 1e3,
        on * 1e3
    );
    if overhead > pct {
        eprintln!("metrics overhead exceeds the {pct}% budget");
        std::process::exit(1);
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(path: &str, scale: f64, reps: usize, cells: &[Cell]) {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"meta\": {{ \"tpch_scale\": {scale}, \"reps\": {reps}, \"seed\": 1, \
         \"chunk_rows\": 4096, \"metric\": \"exhaustion result-tuple throughput, best of reps\" }},\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"workload\": \"{}\", \"jobs\": {}, \"rows\": {}, \"secs\": {:.6}, \
             \"rows_per_sec\": {:.1} }}{}\n",
            json_escape(c.workload),
            c.jobs,
            c.rows,
            c.secs,
            c.rows_per_sec(),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write json report");
    eprintln!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut scale = 0.02f64;
    let mut reps = 3usize;
    let mut overhead_budget: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_path = Some(it.next().expect("--json needs a path").clone()),
            "--scale" => scale = it.next().expect("--scale needs a value").parse().unwrap(),
            "--reps" => reps = it.next().expect("--reps needs a value").parse().unwrap(),
            "--check-overhead" => {
                overhead_budget = Some(
                    it.next()
                        .expect("--check-overhead needs a percentage")
                        .parse()
                        .unwrap(),
                );
            }
            other => {
                eprintln!(
                    "usage: bench_report [--json PATH] [--scale S] [--reps N] \
                     [--check-overhead PCT] (got {other})"
                );
                std::process::exit(2);
            }
        }
    }
    eprintln!("generating TPC-H at scale {scale}…");
    let catalog = workloads::tpch_at(scale, 7);
    let mut cells = Vec::new();
    for jobs in [1usize, 4] {
        cells.push(measure_scalar(
            "scan",
            &columnar::scan_plan(),
            &catalog,
            jobs,
            reps,
        ));
        cells.push(measure_scalar(
            "filter_project",
            &columnar::filter_project_plan(),
            &catalog,
            jobs,
            reps,
        ));
        cells.push(measure_grouped(&catalog, jobs, reps));
        cells.push(measure_scalar(
            "join",
            &columnar::join_plan(),
            &catalog,
            jobs,
            reps,
        ));
        for c in cells.iter().rev().take(4) {
            eprintln!(
                "{:>16} jobs={} rows={:>8} {:>8.1} ms {:>12.0} rows/s",
                c.workload,
                c.jobs,
                c.rows,
                c.secs * 1e3,
                c.rows_per_sec()
            );
        }
    }
    // Shared-scan serving workload: N concurrent queries over lineitem via
    // one circular scan; `rows` is the storage scan cost *per query*.
    let engine = Engine::builder(catalog.clone()).shared_scans(true).build();
    for clients in [1usize, 4, 16] {
        let c = measure_shared(&engine, clients, reps);
        eprintln!(
            "{:>16} jobs={} rows/query={:>8} {:>8.1} ms",
            c.workload,
            c.jobs,
            c.rows,
            c.secs * 1e3,
        );
        cells.push(c);
    }
    // Metrics overhead pair: the same exhaustion scan with and without the
    // observability layer recording.
    for c in measure_metrics_pair(&catalog, reps) {
        eprintln!(
            "{:>16} jobs={} rows={:>8} {:>8.1} ms {:>12.0} rows/s",
            c.workload,
            c.jobs,
            c.rows,
            c.secs * 1e3,
            c.rows_per_sec()
        );
        cells.push(c);
    }
    // Out-of-core backend + pushdown cells: the TPC-H scan over the
    // persisted, memory-mapped catalog (pushdown off gathers all sixteen
    // lineitem segments; on gathers one), then the wide-table filter
    // workload where the fused predicate also prunes rows and pages —
    // in-RAM and mapped. The `scan` cells above are the in-RAM baseline.
    let mapped_tpch = mapped_copy(&catalog, "tpch");
    let wide = workloads::wide_catalog(400_000);
    let mapped_wide = mapped_copy(&wide, "wide");
    let scan = columnar::scan_plan();
    let wf = workloads::wide_filter_plan();
    let pushdown_cells: [(&'static str, &LogicalPlan, &Catalog, bool); 6] = [
        ("scan_mapped", &scan, &mapped_tpch, false),
        ("scan_mapped_pushdown", &scan, &mapped_tpch, true),
        ("wide_filter", &wf, &wide, false),
        ("wide_filter_pushdown", &wf, &wide, true),
        ("wide_filter_mapped", &wf, &mapped_wide, false),
        ("wide_filter_mapped_pushdown", &wf, &mapped_wide, true),
    ];
    for (workload, plan, cat, on) in pushdown_cells {
        let c = measure_pushdown(workload, plan, cat, on, reps);
        eprintln!(
            "{:>28} jobs={} rows={:>8} {:>8.1} ms {:>12.0} rows/s",
            c.workload,
            c.jobs,
            c.rows,
            c.secs * 1e3,
            c.rows_per_sec()
        );
        cells.push(c);
    }
    let secs_of = |name: &str| cells.iter().find(|c| c.workload == name).unwrap().secs;
    eprintln!(
        "wide-table pushdown speedup: {:.2}x in-RAM, {:.2}x mapped",
        secs_of("wide_filter") / secs_of("wide_filter_pushdown"),
        secs_of("wide_filter_mapped") / secs_of("wide_filter_mapped_pushdown"),
    );
    println!("workload,jobs,rows,secs,rows_per_sec");
    for c in &cells {
        println!(
            "{},{},{},{:.6},{:.1}",
            c.workload,
            c.jobs,
            c.rows,
            c.secs,
            c.rows_per_sec()
        );
    }
    if let Some(path) = json_path {
        write_json(&path, scale, reps, &cells);
    }
    if let Some(pct) = overhead_budget {
        check_overhead(&cells, pct);
    }
}
