//! Observability end to end: the metrics a seeded run must pin exactly,
//! the Prometheus series a scrape must expose, and the invariant the whole
//! layer hangs on — instrumentation never perturbs the realized sample.

use sampling_algebra::online::{EventKind, Registry};
use sampling_algebra::prelude::*;

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

const SQL: &str = "SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT)";

/// A seeded single-session exhaustion run pins the whole counter surface
/// deterministically: rows are consumed once, every chunk snapshots, the
/// stop fires at 100% scan, and the journal tells the story in order.
#[test]
fn seeded_run_pins_the_metrics_surface() {
    let rows = 4096u64;
    let engine = Engine::builder(catalog(rows as i64)).metrics(true).build();
    let r = engine
        .session()
        .query(SQL)
        .seed(11)
        .chunk_rows(512)
        .run()
        .unwrap();
    assert_eq!(r.reason, StopReason::Exhausted);

    let m = engine.metrics();
    assert_eq!(m.counter("sa_sessions_opened_total"), Some(1));
    assert_eq!(m.counter("sa_queries_started_total"), Some(1));
    assert_eq!(
        m.counter("sa_queries_finished_total{reason=\"exhausted\"}"),
        Some(1)
    );
    assert_eq!(m.counter("sa_queries_rejected_total"), Some(0));
    assert_eq!(m.counter("sa_query_errors_total"), Some(0));
    // 4096 rows in 512-row chunks: 8 full chunks plus the empty read that
    // detects exhaustion — 9 snapshots. Consumed rows are *sample* rows
    // (tuples that survived the 50% TABLESAMPLE), each counted once.
    assert_eq!(m.counter("sa_snapshots_emitted_total"), Some(r.chunks));
    assert_eq!(r.chunks, 9);
    let sample_rows = r.snapshot.rows();
    assert!(sample_rows > 0 && sample_rows < rows);
    assert_eq!(m.counter("sa_rows_consumed_total"), Some(sample_rows));
    assert_eq!(m.gauge("sa_active_queries"), Some(0));
    let dur = m.histogram("sa_query_duration_us").unwrap();
    assert_eq!(dur.count, 1);
    let ttfs = m.histogram("sa_time_to_first_snapshot_us").unwrap();
    assert_eq!(ttfs.count, 1);
    assert!(ttfs.max <= dur.max);
    // Exhaustion stops at exactly 100% of the scan.
    let permille = m.histogram("sa_stop_scan_permille").unwrap();
    assert_eq!((permille.count, permille.max), (1, 1000));

    // The journal: started, 9 snapshots (cumulative sample rows), then the
    // rule that stopped the query.
    let (events, dropped) = engine.registry().events();
    assert_eq!(dropped, 0);
    assert_eq!(events.len(), 11);
    assert!(matches!(events[0].kind, EventKind::QueryStarted { .. }));
    let mut prev = 0;
    for (i, e) in events[1..10].iter().enumerate() {
        let EventKind::SnapshotEmitted { rows, .. } = e.kind else {
            panic!("event {i} should be a snapshot: {:?}", e.kind)
        };
        assert!(rows >= prev, "sample rows grow monotonically");
        prev = rows;
    }
    assert_eq!(prev, sample_rows);
    let EventKind::RuleFired {
        reason,
        scan_permille,
        ..
    } = events[10].kind
    else {
        panic!("last event should be the rule: {:?}", events[10].kind)
    };
    assert_eq!((reason, scan_permille), ("exhausted", 1000));
}

/// Shared-scan accounting through `engine.scan_stats()`: one query over the
/// hub gathers each row once and serves each gathered row once.
#[test]
fn scan_stats_report_gathered_and_served_rows() {
    let rows = 3000u64;
    let engine = Engine::builder(catalog(rows as i64))
        .shared_scans(true)
        // A bus size that divides the table keeps the head on revolution
        // boundaries, so gathered/served counts are exact.
        .scan_window(250, 1 << 17)
        .metrics(true)
        .build();
    let r = engine
        .session()
        .query(SQL)
        .seed(5)
        .chunk_rows(256)
        .run()
        .unwrap();
    assert_eq!(r.reason, StopReason::Exhausted);

    let stats = engine.scan_stats("t").unwrap();
    assert_eq!(stats.rows_gathered, rows);
    assert_eq!(stats.rows_served, rows);
    assert_eq!(stats.attached, 0, "cursor detached at query end");
    let m = engine.metrics();
    assert_eq!(m.counter("sa_shared_scan_rows_gathered_total"), Some(rows));
    assert_eq!(m.counter("sa_shared_scan_rows_served_total"), Some(rows));
    assert_eq!(m.counter("sa_shared_scan_attach_total"), Some(1));
    assert_eq!(m.counter("sa_shared_scan_detach_total"), Some(1));
}

/// The Prometheus dump carries every series the scrape contract names,
/// with `# TYPE` lines and quantile samples.
#[test]
fn prometheus_dump_exposes_the_contract_series() {
    let engine = Engine::builder(catalog(2000))
        .shared_scans(true)
        .scan_window(250, 1 << 17)
        .metrics(true)
        .build();
    engine.session().query(SQL).seed(3).run().unwrap();

    let dump = engine.render_prometheus();
    for series in [
        "# TYPE sa_queries_started_total counter",
        "# TYPE sa_queries_finished_total counter",
        "sa_queries_finished_total{reason=\"exhausted\"} 1",
        "sa_queries_finished_total{reason=\"cancelled\"} 0",
        "sa_queries_rejected_total 0",
        "# TYPE sa_active_queries gauge",
        "# TYPE sa_query_duration_us summary",
        "sa_query_duration_us{quantile=\"0.5\"}",
        "sa_query_duration_us{quantile=\"0.99\"}",
        "sa_query_duration_us_count 1",
        "sa_time_to_first_snapshot_us{quantile=\"0.95\"}",
        "sa_stop_scan_permille_count 1",
        "sa_shared_scan_rows_gathered_total 2000",
        "sa_shared_scan_rows_served_total 2000",
        // SUM(v) reads only column 1 of t(k, v): the engine serves it from
        // a column-pruned hub, labeled with its column set.
        "sa_shared_scan_attached{table=\"t\",cols=\"1\"} 0",
        "sa_shared_scan_head{table=\"t\",cols=\"1\"} 2000",
    ] {
        assert!(dump.contains(series), "missing `{series}` in:\n{dump}");
    }
}

/// The layer's load-bearing invariant: metrics on vs. off, same (plan,
/// seed) — byte-identical realized samples, estimates, and snapshot
/// cadence. Instrumentation observes the run; it never joins it.
#[test]
fn instrumentation_never_perturbs_the_realized_sample() {
    let run = |metrics: bool| {
        let engine = Engine::builder(catalog(5000))
            .shared_scans(true)
            .metrics(metrics)
            .build();
        let r = engine
            .session()
            .query("SELECT SUM(v) AS s, AVG(v) AS a FROM t TABLESAMPLE (40 PERCENT)")
            .seed(77)
            .chunk_rows(300)
            .run()
            .unwrap();
        let snap = r.snapshot.as_scalar().unwrap().clone();
        (r.reason, r.chunks, snap)
    };
    let (reason_on, chunks_on, snap_on) = run(true);
    let (reason_off, chunks_off, snap_off) = run(false);
    assert_eq!(reason_on, reason_off);
    assert_eq!(chunks_on, chunks_off);
    assert_eq!(snap_on.rows, snap_off.rows);
    assert_eq!(snap_on.progress, snap_off.progress);
    for (on, off) in snap_on.aggs.iter().zip(&snap_off.aggs) {
        assert_eq!(
            on.estimate.to_bits(),
            off.estimate.to_bits(),
            "estimate {} drifted under instrumentation",
            on.name
        );
        assert_eq!(
            on.variance.map(f64::to_bits),
            off.variance.map(f64::to_bits),
            "variance {} drifted under instrumentation",
            on.name
        );
    }
}

/// A one-shot batch query drains the same instrumented stream a run does:
/// its sample rows land in `sa_rows_consumed_total`, its scan in the
/// `sa_scan_*` series, and a rejected option set counts as a query error
/// exactly as it does for `run()`.
#[test]
fn batch_query_reports_consumed_and_scanned_rows() {
    let rows = 4096u64;
    let engine = Engine::builder(catalog(rows as i64)).metrics(true).build();
    let out = engine.session().query(SQL).seed(11).batch().unwrap();
    let sample_rows = out.as_scalar().unwrap().result_rows;
    assert!(sample_rows > 0 && sample_rows < rows);
    let m = engine.metrics();
    assert_eq!(m.counter("sa_batch_queries_total"), Some(1));
    assert_eq!(m.counter("sa_rows_consumed_total"), Some(sample_rows));
    assert_eq!(m.counter("sa_scan_rows_scanned_total"), Some(rows));

    let err = engine.session().query(SQL).jobs(0).batch().unwrap_err();
    assert!(
        matches!(err, sampling_algebra::online::Error::InvalidOptions(_)),
        "{err}"
    );
    let m = engine.metrics();
    assert_eq!(m.counter("sa_batch_queries_total"), Some(2));
    assert_eq!(m.counter("sa_query_errors_total"), Some(1));
    assert_eq!(m.counter("sa_rows_consumed_total"), Some(sample_rows));
}

/// Disabled registries stay invisible: no counters, no events, an empty
/// dump — and the handles still work as no-ops.
#[test]
fn metrics_off_is_a_clean_no_op() {
    let engine = Engine::new(catalog(1000));
    engine.session().query(SQL).seed(1).run().unwrap();
    let m = engine.metrics();
    assert!(m.counters.is_empty() && m.gauges.is_empty() && m.histograms.is_empty());
    assert_eq!(engine.registry().events().0.len(), 0);
    assert_eq!(engine.render_prometheus(), "");

    let reg = Registry::disabled();
    let c = reg.counter("nope");
    c.inc();
    assert_eq!(c.get(), 0);
}
