//! The traced run: per-layer metrics measured from outside the program.
//!
//! Three phases over the workload's catalog and query list:
//!
//! 1. **Loopback**: `sa-server` serves the workload's traffic for a share of
//!    the run; the client counts bytes and `SNAP` lines per answer and reads
//!    the server's `STATS` counters afterwards.
//! 2. **Online**: the same queries, with the same seeds, run in-process
//!    through `QueryBuilder::online()` on an engine configured like the
//!    server's; each query's snapshots are drained and encoded with the
//!    server's own `protocol` functions.
//! 3. **Layer replay**: each query is replayed through the public functions
//!    of every crate below `sa-online` — plan, rewrite, open, compile, the
//!    chunk loop, push_batch and readout — for exactly as many chunks as its
//!    online run pulled, with a span around every call. These stages
//!    partition the query's time; what they leave uncovered of the online
//!    run's time is `online.unattributed_frac`. The sampler draws an open
//!    materializes are replayed as children of `exec.open`. The scan's
//!    kernels (page gather, predicate mask, argument kernels) are replayed
//!    on their own over the rows the stream consumed: they measure each
//!    kernel's cost, not a share of the partition.
//!
//! Spans live in memory. At the end they are written, summed per query and
//! span name, to `<work-dir>/spans-<workload>-<seed>.tsv`.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sa_core::{GroupedMomentAccumulator, GusParams, MomentAccumulator};
use sa_exec::{layout_dims, open_stream, ExecOptions, ScanObs};
use sa_expr::{compile, Expr};
use sa_online::{Engine, Snapshot};
use sa_plan::{LogicalPlan, ScanColumnMap};
use sa_sampling::SamplingMethod;
use sa_server::protocol::{final_lines, snap_line};
use sa_storage::{Catalog, Schema, Value};

use crate::proto::ServerProc;
use crate::util::{median, metric};
use crate::workload::{Data, Query, Workload};
use crate::{drive, ms, prepare, query_count, warm_up, Args, Outcome};

/// The server throttles `SNAP` lines to every 8th snapshot.
const SNAP_EVERY: u64 = 8;
/// The engine's default chunk hint (`QueryOptions::default().chunk_rows`).
const CHUNK_ROWS: usize = 1024;
const CONFIDENCE: f64 = 0.95;

/// One recorded span. `parent` names the span that does this work inside
/// the program; children replayed outside it are not nested in time.
struct Span {
    query: usize,
    name: &'static str,
    parent: &'static str,
    start: Duration,
    dur: Duration,
}

struct Tracer {
    epoch: Instant,
    query: usize,
    spans: Vec<Span>,
}

impl Tracer {
    fn span<T>(&mut self, name: &'static str, parent: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.spans.push(Span {
            query: self.query,
            name,
            parent,
            start: t - self.epoch,
            dur: t.elapsed(),
        });
        out
    }

    fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .sum()
    }

    fn children(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent == name)
            .map(|s| s.dur)
            .sum()
    }
}

/// Stages of the replayed pipeline that partition a query's time, in
/// pipeline order; the child replayed inside `exec.open`; the kernel
/// replays outside the partition.
const STAGES: [&str; 11] = [
    "sql.plan",
    "plan.rewrite",
    "exec.open",
    "expr.compile",
    "exec.next_batch",
    "exec.dim_eval",
    "online.route",
    "core.push_batch",
    "core.scale_gus",
    "core.readout",
    "core.grouped_readout",
];
const CHILDREN: [&str; 1] = ["sampling.draw"];
const KERNELS: [&str; 3] = ["storage.gather", "expr.mask", "expr.f64"];
const TOP: &str = "online.query";
const KERNEL: &str = "kernel.replay";

/// Per-query facts of the online phase.
struct OnlineRun {
    query: Duration,
    first: Duration,
    snapshots: u64,
    chunks: u64,
    rows: u64,
    encode: Duration,
}

/// Counts of the layer replay.
#[derive(Default)]
struct Counts {
    rows_out: u64,
    gathered_rows: u64,
    /// Accumulator readouts: one per scalar snapshot, one per group of a
    /// grouped snapshot.
    readouts: u64,
    rows_scanned: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn run(w: &Workload, args: &Args) -> Result<Outcome, String> {
    println!(
        "# perfbench trace workload={} seed={} seconds={}",
        w.name, args.seed, args.seconds
    );
    let p = prepare(w, args)?;
    let catalog = match (&w.data, &p.sac_dir) {
        (Data::Mapped, Some(dir)) => sa_storage::open_catalog_dir(dir).map_err(err)?,
        _ => p.catalog.clone(),
    };
    let cold = cold_gather(w, &catalog)?;

    // Phase 1: loopback.
    let server = ServerProc::spawn(&args.server_bin, &p.server_args)?;
    let warm = warm_up(w, &p, &server, args.seed)?;
    let loop_secs = args.seconds * 0.4;
    let queries = w.queries(args.seed, query_count(w, loop_secs, args.seed));
    let run = drive::run(
        &server.addr,
        w.traffic,
        &queries,
        &p.exact,
        loop_secs,
        args.seed,
    )?;
    let stats = server.stats()?;
    drop(server);
    let served: Vec<&drive::Record> = warm.iter().chain(run.records.iter()).collect();
    let violations: Vec<&String> = served.iter().filter_map(|r| r.violation.as_ref()).collect();
    for v in violations.iter().take(5) {
        println!("# gate violation: {v}");
    }
    let answered: Vec<&drive::Record> = run
        .records
        .iter()
        .filter(|r| r.violation.is_none())
        .collect();
    let n_ans = answered.len().max(1) as f64;
    let loop_final: Vec<f64> = answered
        .iter()
        .filter_map(|r| r.ans.fin_at.map(ms))
        .collect();
    let stat = |k: &str| stats.get(k).copied().unwrap_or(0.0);

    // Phases 2 and 3: online, then the layer replay, query by query.
    let engine = Engine::builder(catalog.clone())
        .shared_scans(true)
        .metrics(true)
        .build();
    let session = engine.session();
    let registry = sa_obs::Registry::new();
    let scan_obs = ScanObs::new(&registry);
    let mut tr = Tracer {
        epoch: Instant::now(),
        query: 0,
        spans: Vec::new(),
    };
    let mut counts = Counts::default();
    let mut online = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds * 0.4);
    let started = Instant::now();
    let replay = w.queries(args.seed, query_count(w, args.seconds, args.seed));
    for (i, q) in replay.iter().enumerate() {
        if i >= w.templates.len() && started.elapsed() >= budget {
            break;
        }
        tr.query = i;
        let o = online_query(&session, q)?;
        replay_layers(&mut tr, &mut counts, &catalog, q, o.chunks, &scan_obs)?;
        online.push(o);
    }
    let nq = online.len() as f64;
    for (t, tpl) in w.templates.iter().enumerate() {
        let on: Vec<f64> = online
            .iter()
            .zip(&replay)
            .filter(|(_, q)| q.template == t)
            .map(|(o, _)| ms(o.query))
            .collect();
        let lb: Vec<f64> = answered
            .iter()
            .filter(|r| r.template == t)
            .filter_map(|r| r.ans.fin_at.map(ms))
            .collect();
        println!(
            "# template {:<24} online_p50_ms={:<9.2} loopback_final_p50_ms={:.2}",
            tpl.name,
            median(&on),
            median(&lb)
        );
    }
    let engine_stats = engine.metrics();
    let engine_counter = |k: &str| engine_stats.counter(k).unwrap_or(0) as f64;
    write_spans(&tr, w, args);

    let query_ms: Vec<f64> = online.iter().map(|o| ms(o.query)).collect();
    let online_total: Duration = online.iter().map(|o| o.query).sum();
    let covered: Duration = STAGES.iter().map(|s| tr.total(s)).sum();
    let per_q = |name: &str| ms(tr.total(name)) / nq;
    let gather_s = tr.total("storage.gather").as_secs_f64();
    let readouts = counts.readouts.max(1) as f64;
    let readout_time = tr.total("core.readout") + tr.total("core.grouped_readout");
    let metrics = vec![
        metric(
            "server.loopback_gap_ms",
            median(&loop_final) - median(&query_ms),
            "ms",
        ),
        metric(
            "server.encode_us_per_query",
            online.iter().map(|o| o.encode.as_secs_f64()).sum::<f64>() * 1e6 / nq,
            "us",
        ),
        metric(
            "server.bytes_per_query",
            answered.iter().map(|r| r.ans.bytes as f64).sum::<f64>() / n_ans,
            "bytes",
        ),
        metric(
            "server.snap_lines_per_query",
            answered.iter().map(|r| r.ans.snaps as f64).sum::<f64>() / n_ans,
            "count",
        ),
        metric("online.query_ms", median(&query_ms), "ms"),
        metric(
            "online.ttfs_ms",
            median(&online.iter().map(|o| ms(o.first)).collect::<Vec<_>>()),
            "ms",
        ),
        metric(
            "online.snapshots_per_query",
            online.iter().map(|o| o.snapshots as f64).sum::<f64>() / nq,
            "count",
        ),
        metric(
            "online.unattributed_frac",
            1.0 - covered.as_secs_f64() / online_total.as_secs_f64().max(1e-12),
            "fraction",
        ),
        metric(
            "online.rejected",
            stat("sa_queries_rejected_total"),
            "count",
        ),
        metric("sql.plan_us", per_q("sql.plan") * 1e3, "us"),
        metric("plan.rewrite_us", per_q("plan.rewrite") * 1e3, "us"),
        metric("expr.compile_us", per_q("expr.compile") * 1e3, "us"),
        metric("expr.mask_ms", per_q("expr.mask"), "ms"),
        metric("expr.f64_ms", per_q("expr.f64"), "ms"),
        metric("exec.open_ms", per_q("exec.open"), "ms"),
        metric("exec.next_batch_ms", per_q("exec.next_batch"), "ms"),
        metric("exec.rows_out", counts.rows_out as f64 / nq, "rows"),
        metric(
            "exec.shared_gather_per_served",
            stat("sa_shared_scan_rows_gathered_total")
                / stat("sa_shared_scan_rows_served_total").max(1.0),
            "ratio",
        ),
        metric("storage.gather_ms", per_q("storage.gather"), "ms"),
        metric(
            "storage.gather_rows_per_s",
            counts.gathered_rows as f64 / gather_s.max(1e-12),
            "rows/s",
        ),
        metric("storage.cold_gather_ms", ms(cold), "ms"),
        metric(
            "storage.pages_skipped",
            stat("sa_scan_pages_skipped_total"),
            "count",
        ),
        metric("sampling.draw_ms", per_q("sampling.draw"), "ms"),
        metric("core.push_batch_ms", per_q("core.push_batch"), "ms"),
        metric(
            "core.readout_us_per_snapshot",
            readout_time.as_secs_f64() * 1e6 / readouts,
            "us",
        ),
        metric(
            "core.grouped_readout_ms_per_query",
            per_q("core.grouped_readout"),
            "ms",
        ),
        metric("tpch.generate_s", p.generate.as_secs_f64(), "s"),
    ];

    // Stage-share table: each stage's self time as a share of the online
    // queries' time.
    println!(
        "# stage shares over {} in-process queries ({:.1} ms online in total)",
        online.len(),
        ms(online_total)
    );
    println!(
        "# {:<22} {:>10} {:>10} {:>8}",
        "stage", "total_ms", "self_ms", "share"
    );
    let total_ms = ms(online_total).max(1e-9);
    for s in STAGES.iter().chain(CHILDREN.iter()) {
        let t = ms(tr.total(s));
        let own = t - ms(tr.children(s));
        println!(
            "# {:<22} {:>10.3} {:>10.3} {:>7.2}%{}",
            s,
            t,
            own,
            100.0 * own / total_ms,
            if CHILDREN.contains(s) {
                "  (inside exec.open)"
            } else {
                ""
            }
        );
    }
    println!(
        "# {:<22} {:>10.3} {:>10} {:>7.2}%",
        "unattributed",
        ms(online_total.saturating_sub(covered)),
        "",
        100.0 * ms(online_total.saturating_sub(covered)) / total_ms
    );
    for s in KERNELS {
        println!(
            "# {:<22} {:>10.3}  (kernel replay over the consumed rows)",
            s,
            ms(tr.total(s))
        );
    }

    // Cross-checks of traced counts against the programs' own counters.
    let rows_answered: f64 = served.iter().map(|r| r.ans.rows as f64).sum();
    let snap_lines: f64 = served.iter().map(|r| r.ans.snaps as f64).sum();
    let emitted = stat("sa_snapshots_emitted_total");
    let nserved = served.len() as f64;
    let online_rows: f64 = online.iter().map(|o| o.rows as f64).sum();
    let online_snaps: f64 = online.iter().map(|o| o.snapshots as f64).sum();
    let checks = [
        (
            "server rows: FINAL rows= vs sa_rows_consumed_total",
            rows_answered == stat("sa_rows_consumed_total"),
            format!("{rows_answered} vs {}", stat("sa_rows_consumed_total")),
        ),
        (
            "server snapshots: 8·SNAP lines ≤ sa_snapshots_emitted_total ≤ 8·SNAP + 7·queries",
            SNAP_EVERY as f64 * snap_lines <= emitted
                && emitted <= SNAP_EVERY as f64 * snap_lines + (SNAP_EVERY - 1) as f64 * nserved,
            format!("{snap_lines} lines, {emitted} emitted, {nserved} queries"),
        ),
        (
            "engine rows: online FINAL rows vs sa_rows_consumed_total",
            online_rows == engine_counter("sa_rows_consumed_total"),
            format!(
                "{online_rows} vs {}",
                engine_counter("sa_rows_consumed_total")
            ),
        ),
        (
            "engine snapshots: drained snapshots vs sa_snapshots_emitted_total",
            online_snaps == engine_counter("sa_snapshots_emitted_total"),
            format!(
                "{online_snaps} vs {}",
                engine_counter("sa_snapshots_emitted_total")
            ),
        ),
    ];
    let mut checks_ok = true;
    for (what, ok, detail) in &checks {
        checks_ok &= ok;
        println!(
            "# cross-check {}: {what} ({detail})",
            if *ok { "ok" } else { "MISMATCH" }
        );
    }
    println!(
        "# info: replayed rows scanned {} (private streams) vs engine sa_scan_rows_scanned_total {} \
         + shared-hub rows served {}",
        counts.rows_scanned,
        engine_counter("sa_scan_rows_scanned_total"),
        engine_counter("sa_shared_scan_rows_served_total"),
    );
    for m in &metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        correct: violations.is_empty() && checks_ok && !online.is_empty(),
        attempted: (served.len() + online.len()) as u64,
        failed: violations.len() as u64,
        metrics,
    })
}

/// The first gather of the first template's table after the catalog was
/// generated or opened: on the mapped backend it faults the pages in and
/// verifies their checksums.
fn cold_gather(w: &Workload, catalog: &Catalog) -> Result<Duration, String> {
    let sql = (w.templates[0].sql)(0.5, 0.5);
    let (plan, _, _) = sa_sql::plan_online_grouped_sql(&sql, catalog).map_err(err)?;
    let mut table = None;
    walk(&plan, &mut |n| {
        if let (None, LogicalPlan::Scan { table: t, .. }) = (&table, n) {
            table = Some(t.clone());
        }
    });
    let t = catalog
        .get(table.as_deref().unwrap_or_default())
        .map_err(err)?;
    let cols: Vec<usize> = (0..t.schema().fields().len()).collect();
    let start = Instant::now();
    let b = t
        .batch_range_cols(0, (CHUNK_ROWS as u64).min(t.row_count()), &cols)
        .map_err(err)?;
    let d = start.elapsed();
    std::hint::black_box(b);
    Ok(d)
}

fn online_query(session: &sa_online::Session, q: &Query) -> Result<OnlineRun, String> {
    let t0 = Instant::now();
    let handle = session
        .query(&q.sql)
        .seed(q.seed)
        .shuffle_scan(q.shuffle)
        .online()
        .map_err(err)?;
    let mut first = None;
    let mut snaps: Vec<Snapshot> = Vec::new();
    for s in handle.snapshots() {
        first.get_or_insert(t0.elapsed());
        snaps.push(s);
    }
    let r = handle.wait().map_err(err)?;
    let query = t0.elapsed();
    let e0 = Instant::now();
    let mut bytes = 0;
    for s in snaps.iter().filter(|s| s.chunk() % SNAP_EVERY == 0) {
        bytes += snap_line(s).len();
    }
    for l in final_lines(&r) {
        bytes += l.len();
    }
    std::hint::black_box(bytes);
    Ok(OnlineRun {
        query,
        first: first.unwrap_or(query),
        snapshots: snaps.len() as u64,
        chunks: r.chunks,
        rows: r.snapshot.rows(),
        encode: e0.elapsed(),
    })
}

fn walk<'a>(p: &'a LogicalPlan, f: &mut impl FnMut(&'a LogicalPlan)) {
    f(p);
    match p {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::Sample { input, .. }
        | LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. } => walk(input, f),
        LogicalPlan::Join { left, right, .. } | LogicalPlan::UnionSamples { left, right } => {
            walk(left, f);
            walk(right, f);
        }
    }
}

/// The plan GUS compacted with one WOR(consumed, available) factor per
/// partially scanned relation — the engine's scan-prefix scaling for
/// union-free plans, through `sa-core`'s public algebra.
fn scaled_gus(
    gus: &GusParams,
    relations: &[String],
    progress: &[(u64, u64)],
) -> Result<GusParams, String> {
    let mut g = gus.clone();
    for (name, &(consumed, available)) in relations.iter().zip(progress) {
        if consumed == 0 || consumed >= available {
            continue;
        }
        let prefix = GusParams::wor(name, consumed, available)
            .and_then(|w| w.embed_by_name(gus.schema().clone()))
            .map_err(err)?;
        g = g.compact(&prefix).map_err(err)?;
    }
    Ok(g)
}

/// Replay one query through the layers for `chunks` chunk pulls.
fn replay_layers(
    tr: &mut Tracer,
    counts: &mut Counts,
    catalog: &Catalog,
    q: &Query,
    chunks: u64,
    scan_obs: &ScanObs,
) -> Result<(), String> {
    let (plan, group_by, _) = tr
        .span("sql.plan", TOP, || {
            sa_sql::plan_online_grouped_sql(&q.sql, catalog)
        })
        .map_err(err)?;
    let analysis = tr
        .span("plan.rewrite", TOP, || sa_plan::rewrite(&plan, catalog))
        .map_err(err)?;
    let LogicalPlan::Aggregate { aggs, input } = &plan else {
        return Err(format!("{}: no aggregate at the plan root", q.sql));
    };
    let opts = ExecOptions {
        seed: q.seed,
        shuffle_scan: q.shuffle,
        disable_pushdown: false,
        scan_obs: scan_obs.clone(),
        scan_cols: Some(ScanColumnMap::analyze_with(&plan, &group_by)),
    };
    let scanned0 = scan_obs.rows_scanned.get();
    let mut stream = tr
        .span("exec.open", TOP, || open_stream(input, catalog, &opts))
        .map_err(err)?;
    // The fixed-size and block samplers the open just materialized.
    let mut draws = Vec::new();
    walk(input, &mut |n| {
        if let LogicalPlan::Sample {
            method: m @ (SamplingMethod::Wor { .. } | SamplingMethod::System { .. }),
            input,
        } = n
        {
            if let LogicalPlan::Scan { table, .. } = input.as_ref() {
                draws.push((m.clone(), table.clone()));
            }
        }
    });
    for (m, table) in draws {
        let t = catalog.get(&table).map_err(err)?;
        let ids = tr
            .span("sampling.draw", "exec.open", || m.sample_seeded(&t, q.seed))
            .map_err(err)?;
        std::hint::black_box(ids);
    }
    let schema = stream.schema().clone();
    let (layout, dim_eval, keys) = tr.span("expr.compile", TOP, || -> Result<_, String> {
        let layout = layout_dims(aggs, &schema).map_err(err)?;
        let dim_eval = layout.compile_batch(&schema).map_err(err)?;
        let keys = group_by
            .iter()
            .map(|e| compile(e, &schema))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        Ok((layout, dim_eval, keys))
    })?;
    let n = analysis.schema.n();
    let mut acc = MomentAccumulator::new(n, layout.dims());
    let mut gacc: GroupedMomentAccumulator<Vec<Value>> =
        GroupedMomentAccumulator::new(n, layout.dims());
    for _ in 0..chunks {
        let chunk = tr
            .span("exec.next_batch", TOP, || stream.next_batch(CHUNK_ROWS))
            .map_err(err)?;
        counts.rows_out += chunk.rows() as u64;
        if !chunk.is_empty() {
            let f = tr
                .span("exec.dim_eval", TOP, || dim_eval.eval(&chunk.batch))
                .map_err(err)?;
            let lineage: Vec<&[u64]> = chunk.lineage.iter().map(|l| l.as_slice()).collect();
            if keys.is_empty() {
                let f: Vec<&[f64]> = f.iter().map(|c| c.as_slice()).collect();
                tr.span("core.push_batch", TOP, || acc.push_batch(&lineage, &f))
                    .map_err(err)?;
            } else {
                let key_cols = tr
                    .span("online.route", TOP, || {
                        keys.iter()
                            .map(|k| k.eval_column(&chunk.batch))
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .map_err(err)?;
                let parts = tr.span("online.route", TOP, || {
                    let mut parts: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                    for i in 0..chunk.rows() {
                        let key: Vec<Value> = key_cols.iter().map(|c| c.value(i)).collect();
                        parts.entry(key).or_default().push(i);
                    }
                    parts
                        .into_iter()
                        .map(|(k, idx)| {
                            let lin: Vec<Vec<u64>> = lineage
                                .iter()
                                .map(|l| idx.iter().map(|&i| l[i]).collect())
                                .collect();
                            let fs: Vec<Vec<f64>> = f
                                .iter()
                                .map(|c| idx.iter().map(|&i| c[i]).collect())
                                .collect();
                            (k, lin, fs)
                        })
                        .collect::<Vec<_>>()
                });
                for (k, lin, fs) in parts {
                    let lin: Vec<&[u64]> = lin.iter().map(|l| l.as_slice()).collect();
                    let fs: Vec<&[f64]> = fs.iter().map(|c| c.as_slice()).collect();
                    tr.span("core.push_batch", TOP, || gacc.push_batch(k, &lin, &fs))
                        .map_err(err)?;
                }
            }
        }
        let (relations, progress) = (stream.relations().to_vec(), stream.progress());
        let gus = tr.span("core.scale_gus", TOP, || {
            scaled_gus(&analysis.gus, &relations, &progress)
        })?;
        if keys.is_empty() {
            tr.span("core.readout", TOP, || readout(&acc, &gus, layout.dims()))?;
            counts.readouts += 1;
        } else {
            tr.span("core.grouped_readout", TOP, || -> Result<(), String> {
                let keys: Vec<&Vec<Value>> = gacc.keys().collect();
                for k in keys {
                    let r = gacc
                        .report_group(k, &gus)
                        .expect("listed key")
                        .map_err(err)?;
                    for d in 0..layout.dims() {
                        std::hint::black_box(r.ci_normal(d, CONFIDENCE).ok());
                    }
                }
                Ok(())
            })?;
            counts.readouts += gacc.group_count() as u64;
        }
    }
    counts.rows_scanned += scan_obs.rows_scanned.get() - scanned0;
    gather_and_mask(tr, counts, catalog, &plan, &group_by, &stream)
}

fn readout(acc: &MomentAccumulator, gus: &GusParams, dims: usize) -> Result<(), String> {
    let r = acc.report(gus).map_err(err)?;
    for d in 0..dims {
        std::hint::black_box(r.ci_normal(d, CONFIDENCE).ok());
    }
    Ok(())
}

fn bare(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

/// Replay the scan's inner work for every base table of the query over
/// the rows the stream consumed: gather the needed columns page by page
/// (`storage.gather`), evaluate the predicates on that table's columns
/// (`expr.mask`) and the aggregate arguments (`expr.f64`).
fn gather_and_mask(
    tr: &mut Tracer,
    counts: &mut Counts,
    catalog: &Catalog,
    plan: &LogicalPlan,
    group_by: &[Expr],
    stream: &sa_exec::ChunkStream,
) -> Result<(), String> {
    let mut scans = Vec::new();
    let mut preds: Vec<&Expr> = Vec::new();
    let mut args: Vec<&Expr> = Vec::new();
    walk(plan, &mut |n| match n {
        LogicalPlan::Scan { table, alias } => scans.push((table.clone(), alias.clone())),
        LogicalPlan::Filter { predicate, .. } => preds.extend(predicate.split_conjuncts()),
        LogicalPlan::Join {
            condition: Some(c), ..
        } => preds.extend(c.split_conjuncts()),
        LogicalPlan::Aggregate { aggs, .. } => {
            args.extend(aggs.iter().filter_map(|a| a.expr.as_ref()))
        }
        _ => {}
    });
    let progress: BTreeMap<&str, (u64, u64)> = stream
        .relations()
        .iter()
        .map(|r| r.as_str())
        .zip(stream.progress())
        .collect();
    for (table, alias) in scans {
        let t = catalog.get(&table).map_err(err)?;
        let fields = t.schema().fields();
        let own = |e: &Expr| {
            let used = e.columns_used();
            !used.is_empty()
                && used
                    .iter()
                    .all(|c| fields.iter().any(|f| &*f.name == bare(c)))
        };
        let mine_preds: Vec<&Expr> = preds.iter().copied().filter(|e| own(e)).collect();
        let mine_args: Vec<&Expr> = args.iter().copied().filter(|e| own(e)).collect();
        let mine_keys = group_by.iter().filter(|e| own(e));
        let mut cols: Vec<usize> = Vec::new();
        for e in mine_preds
            .iter()
            .copied()
            .chain(mine_args.iter().copied())
            .chain(mine_keys)
        {
            for c in e.columns_used() {
                if let Some(i) = fields.iter().position(|f| &*f.name == bare(c)) {
                    if !cols.contains(&i) {
                        cols.push(i);
                    }
                }
            }
        }
        if cols.is_empty() {
            continue;
        }
        cols.sort_unstable();
        let schema = Schema::new(cols.iter().map(|&i| fields[i].clone()).collect()).map_err(err)?;
        let pred = mine_preds
            .iter()
            .map(|e| compile(e, &schema))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let kernels = mine_args
            .iter()
            .map(|e| compile(e, &schema))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let (consumed, available) = progress.get(alias.as_str()).copied().unwrap_or((1, 1));
        let rows = (t.row_count() as f64 * consumed as f64 / available.max(1) as f64) as u64;
        let mut at = 0;
        while at < rows {
            let end = (at + CHUNK_ROWS as u64).min(rows);
            let batch = tr
                .span("storage.gather", KERNEL, || {
                    t.batch_range_cols(at, end, &cols)
                })
                .map_err(err)?;
            counts.gathered_rows += end - at;
            for k in &pred {
                let m = tr
                    .span("expr.mask", KERNEL, || k.eval_mask(&batch))
                    .map_err(err)?;
                std::hint::black_box(m);
            }
            for k in &kernels {
                let v = tr
                    .span("expr.f64", KERNEL, || k.eval_f64(&batch))
                    .map_err(err)?;
                std::hint::black_box(v);
            }
            at = end;
        }
    }
    Ok(())
}

fn write_spans(tr: &Tracer, w: &Workload, args: &Args) {
    // (query, name) → (parent, first start, count, total duration)
    let mut rolled: BTreeMap<(usize, &str), (&str, Duration, u64, Duration)> = BTreeMap::new();
    for s in &tr.spans {
        let e = rolled
            .entry((s.query, s.name))
            .or_insert((s.parent, s.start, 0, Duration::ZERO));
        e.2 += 1;
        e.3 += s.dur;
    }
    let mut out = String::from("query\tname\tparent\tfirst_start_us\tcount\ttotal_us\n");
    for ((query, name), (parent, start, count, total)) in rolled {
        let _ = writeln!(
            out,
            "{query}\t{name}\t{parent}\t{}\t{count}\t{}",
            start.as_micros(),
            total.as_micros()
        );
    }
    let path = args
        .work_dir
        .join(format!("spans-{}-{}.tsv", w.name, args.seed));
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
