//! `sa` — an interactive approximate-query shell over TPC-H-style data.
//!
//! The tool the paper envisions: type a `TABLESAMPLE` aggregate query, get an
//! unbiased estimate with confidence intervals (and, with `GROUP BY`,
//! per-group intervals). Commands:
//!
//! ```text
//! sa --tpch 0.01 [--seed 42]            # start with generated data
//! sa --tpch 1.0 --persist ./tpch1       # generate once, write .sac files
//! sa --data ./tpch1 --query "SELECT …"  # reopen memory-mapped (out of core)
//! sa --tpch 0.01 --query "SELECT …"     # one-shot, non-interactive
//! sa --online --query "SELECT … WITHIN 5 PERCENT CONFIDENCE 95"
//!                                       # one-shot online aggregation
//! sa --connect HOST:PORT --query "…"    # run against a remote sa-server
//! sa --connect HOST:PORT --stats        # dump a remote server's metrics
//! sa --tpch 0.01 --online --query "…" --stats-json out.json
//!                                       # write engine metrics as JSON on exit
//! ```
//!
//! `--seed` seeds both the data generator and the sampling operators, so a
//! given invocation is fully reproducible. `--chunk N` sets the online
//! chunk size; `--jobs N` drives the online loop with N shard-parallel
//! worker threads (merged per snapshot; `--jobs 1`, the default, is the
//! classic deterministic single-threaded loop).
//!
//! `--connect ADDR` turns the binary into a thin client for `sa-server`:
//! the query is sent over the line protocol, progress (`SNAP`/`GROUP`) and
//! final (`FINAL`) lines are relayed to stdout, and the process exits 0 on
//! `DONE` and 1 on `ERR`.
//!
//! Inside the shell:
//!
//! ```text
//! SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (10 PERCENT);
//! \online SELECT …      progressive estimation with live snapshots
//!                       (add WITHIN ε PERCENT CONFIDENCE γ to stop early)
//! \exact SELECT …       run without sampling (ground truth)
//! \trace SELECT …       show the SOA rewrite trace and top GUS table
//! \tables               list tables
//! \seed N               set the sampling seed
//! \chunk N              set the online chunk size (rows)
//! \jobs N               set the online worker count (1 = sequential)
//! \adaptive on|off      grow online chunks as the estimate stabilizes
//! \shuffle on|off       visit blocks in a seeded random order (restores
//!                       the random-scan-order assumption on sorted data)
//! \subsample N          estimate variance from ~N tuples (§7); 0 = off
//! \stats                dump engine metrics (Prometheus text format)
//! \quit
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use sampling_algebra::exec::{exact_group_query, GroupedApproxResult};
use sampling_algebra::prelude::*;
use sampling_algebra::sql::plan_grouped_sql;

/// Shell state: the engine plus the knobs the `\…` commands adjust.
struct Shell {
    engine: Engine,
    seed: u64,
    subsample: Option<u64>,
    confidence: f64,
    chunk_rows: usize,
    jobs: usize,
    adaptive_chunks: bool,
    shuffle_scan: bool,
    deadline: Option<std::time::Duration>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.005f64;
    let mut seed = 42u64;
    let mut chunk_rows = 1024usize;
    let mut jobs = 1usize;
    let mut adaptive_chunks = false;
    let mut shuffle_scan = false;
    let mut online = false;
    let mut one_shot: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut persist_dir: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut stats = false;
    let mut stats_json: Option<String> = None;
    let mut deadline: Option<std::time::Duration> = None;
    let mut fault_spec: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tpch" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--tpch needs a scale factor"));
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--chunk" => {
                chunk_rows = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| die("--chunk needs a positive row count"));
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| die("--jobs needs a positive worker count"));
            }
            "--adaptive-chunks" => adaptive_chunks = true,
            "--shuffle-scan" => shuffle_scan = true,
            "--online" => online = true,
            "--query" => {
                one_shot = Some(
                    it.next()
                        .unwrap_or_else(|| die("--query needs SQL"))
                        .clone(),
                );
            }
            "--connect" => {
                connect = Some(
                    it.next()
                        .unwrap_or_else(|| die("--connect needs HOST:PORT"))
                        .clone(),
                );
            }
            "--persist" => {
                persist_dir = Some(
                    it.next()
                        .unwrap_or_else(|| die("--persist needs a directory"))
                        .clone(),
                );
            }
            "--data" => {
                data_dir = Some(
                    it.next()
                        .unwrap_or_else(|| die("--data needs a directory"))
                        .clone(),
                );
            }
            "--deadline" => {
                deadline = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .map(std::time::Duration::from_millis)
                        .unwrap_or_else(|| die("--deadline needs milliseconds")),
                );
            }
            "--fault" => {
                fault_spec = Some(
                    it.next()
                        .unwrap_or_else(|| die("--fault needs `site=spec,…`"))
                        .clone(),
                );
            }
            "--stats" => stats = true,
            "--stats-json" => {
                stats_json = Some(
                    it.next()
                        .unwrap_or_else(|| die("--stats-json needs a file path"))
                        .clone(),
                );
            }
            "-h" | "--help" => {
                eprintln!(
                    "usage: sa [--tpch SCALE | --data DIR] [--persist DIR] [--seed N] \
                     [--chunk N] [--jobs N] [--adaptive-chunks] [--shuffle-scan] [--online] \
                     [--deadline MS] [--fault SPEC] [--connect HOST:PORT] [--query SQL] \
                     [--stats] [--stats-json PATH]"
                );
                return;
            }
            other => die(&format!("unknown flag `{other}`")),
        }
    }

    if let Some(spec) = &fault_spec {
        sampling_algebra::fault::install(spec, seed)
            .unwrap_or_else(|e| die(&format!("bad --fault: {e}")));
        eprintln!("fault injection armed: {spec} (seed {seed})");
    }

    if let Some(addr) = connect {
        if stats {
            run_stats_client(&addr);
        }
        let sql = one_shot.unwrap_or_else(|| die("--connect needs --query SQL"));
        run_client(&addr, seed, shuffle_scan, deadline, &sql);
    }

    let catalog = match &data_dir {
        Some(dir) => {
            eprintln!("opening mapped catalog from {dir} …");
            sampling_algebra::storage::open_catalog_dir(std::path::Path::new(dir))
                .unwrap_or_else(|e| die(&format!("cannot open --data {dir}: {e}")))
        }
        None => {
            eprintln!("generating TPC-H data at scale {scale} (seed {seed}) …");
            generate(&TpchConfig::scale(scale).with_seed(seed))
        }
    };
    if let Some(dir) = &persist_dir {
        let written =
            sampling_algebra::storage::persist_catalog(&catalog, std::path::Path::new(dir))
                .unwrap_or_else(|e| die(&format!("cannot persist to {dir}: {e}")));
        for (name, bytes) in &written {
            eprintln!("wrote {dir}/{name}.sac ({bytes} bytes)");
        }
        if one_shot.is_none() {
            // Persist-only invocation: the data is on disk, nothing to run.
            return;
        }
    }
    // The same seed drives the sampling operators: one `--seed` makes the
    // whole run — data, samples, online loop — reproducible. Metrics are
    // always on in the shell so `\stats` / `--stats-json` have data.
    let mut shell = Shell {
        engine: Engine::builder(catalog).metrics(true).build(),
        seed,
        subsample: None,
        confidence: 0.95,
        chunk_rows,
        jobs,
        adaptive_chunks,
        shuffle_scan,
        deadline,
    };

    if let Some(sql) = one_shot {
        if online {
            online_mode(&mut shell, &sql);
        } else {
            run_line(&mut shell, &sql);
        }
        write_stats_json(&shell, stats_json.as_deref());
        return;
    }
    if online {
        die("--online needs --query SQL (or use \\online inside the shell)");
    }

    eprintln!("sa — sampling-algebra shell. \\quit to exit, \\tables for tables.");
    let stdin = std::io::stdin();
    loop {
        eprint!("sa> ");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "\\quit" || line == "\\q" {
            break;
        }
        run_line(&mut shell, line);
    }
    write_stats_json(&shell, stats_json.as_deref());
}

/// Dump the engine's metrics snapshot as JSON to `path` (no-op without one).
fn write_stats_json(shell: &Shell, path: Option<&str>) {
    let Some(path) = path else { return };
    match std::fs::write(path, shell.engine.metrics().to_json()) {
        Ok(()) => eprintln!("wrote engine metrics to {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Thin client for `sa-server`: send `SEED` (plus `SHUFFLE on` /
/// `DEADLINE` when asked) then `QUERY`, relay response lines to stdout
/// until the terminator, exit 0 on `DONE` / 1 on `ERR`.
fn run_client(
    addr: &str,
    seed: u64,
    shuffle: bool,
    deadline: Option<std::time::Duration>,
    sql: &str,
) -> ! {
    let stream =
        TcpStream::connect(addr).unwrap_or_else(|e| die(&format!("cannot connect {addr}: {e}")));
    let mut tx = stream
        .try_clone()
        .unwrap_or_else(|e| die(&format!("cannot clone socket: {e}")));
    let sql = sql.replace('\n', " ");
    writeln!(tx, "SEED {seed}")
        .and_then(|_| {
            if shuffle {
                writeln!(tx, "SHUFFLE on")
            } else {
                Ok(())
            }
        })
        .and_then(|_| match deadline {
            Some(d) => writeln!(tx, "DEADLINE {}", d.as_millis()),
            None => Ok(()),
        })
        .and_then(|_| writeln!(tx, "QUERY {sql}"))
        .unwrap_or_else(|e| {
            die(&format!("cannot send query: {e}"));
        });
    let _ = tx.flush();
    let mut failed = false;
    for line in BufReader::new(stream).lines() {
        let line = line.unwrap_or_else(|e| die(&format!("connection lost: {e}")));
        match line.as_str() {
            "OK" => continue, // SEED acknowledgement
            "DONE" => std::process::exit(if failed { 1 } else { 0 }),
            other => {
                println!("{other}");
                if other.starts_with("ERR ") {
                    failed = true;
                }
            }
        }
    }
    die("server closed the connection before DONE");
}

/// Thin client for the `STATS` request: relay the Prometheus dump to stdout.
fn run_stats_client(addr: &str) -> ! {
    let stream =
        TcpStream::connect(addr).unwrap_or_else(|e| die(&format!("cannot connect {addr}: {e}")));
    let mut tx = stream
        .try_clone()
        .unwrap_or_else(|e| die(&format!("cannot clone socket: {e}")));
    writeln!(tx, "STATS").unwrap_or_else(|e| die(&format!("cannot send request: {e}")));
    let _ = tx.flush();
    for line in BufReader::new(stream).lines() {
        let line = line.unwrap_or_else(|e| die(&format!("connection lost: {e}")));
        if line == "DONE" {
            std::process::exit(0);
        }
        if let Some(msg) = line.strip_prefix("ERR ") {
            // A server without STATS support replies ERR with no DONE.
            die(&format!("server rejected STATS: {msg}"));
        }
        println!("{line}");
    }
    die("server closed the connection before DONE");
}

fn run_line(shell: &mut Shell, line: &str) {
    if let Some(rest) = line.strip_prefix('\\') {
        let (cmd, arg) = rest.split_once(' ').unwrap_or((rest, ""));
        match cmd {
            "tables" => {
                for (name, table) in shell.engine.catalog().iter() {
                    println!(
                        "{name:<12} {:>10} rows   {}",
                        table.row_count(),
                        table.schema()
                    );
                }
            }
            "seed" => match arg.trim().parse() {
                Ok(s) => {
                    shell.seed = s;
                    println!("seed = {s}");
                }
                Err(_) => println!("\\seed needs a number"),
            },
            "subsample" => match arg.trim().parse::<u64>() {
                Ok(0) => {
                    shell.subsample = None;
                    println!("sub-sampling off");
                }
                Ok(n) => {
                    shell.subsample = Some(n);
                    println!("variance from ~{n} tuples (§7)");
                }
                Err(_) => println!("\\subsample needs a number (0 = off)"),
            },
            "chunk" => match arg.trim().parse::<usize>() {
                Ok(n) if n > 0 => {
                    shell.chunk_rows = n;
                    println!("chunk = {n} rows");
                }
                _ => println!("\\chunk needs a positive row count"),
            },
            "jobs" => match arg.trim().parse::<usize>() {
                Ok(n) if n > 0 => {
                    shell.jobs = n;
                    println!("jobs = {n} worker{}", if n == 1 { "" } else { "s" });
                }
                _ => println!("\\jobs needs a positive worker count"),
            },
            "adaptive" => match arg.trim() {
                "on" => {
                    shell.adaptive_chunks = true;
                    println!("adaptive chunks on (grow up to 64× once the CI stalls)");
                }
                "off" => {
                    shell.adaptive_chunks = false;
                    println!("adaptive chunks off");
                }
                _ => println!("\\adaptive needs `on` or `off`"),
            },
            "shuffle" => match arg.trim() {
                "on" => {
                    shell.shuffle_scan = true;
                    println!("shuffled scan on (seeded random block order)");
                }
                "off" => {
                    shell.shuffle_scan = false;
                    println!("shuffled scan off (physical block order)");
                }
                _ => println!("\\shuffle needs `on` or `off`"),
            },
            "online" => online_mode(shell, arg),
            "exact" => run_exact(shell, arg),
            "trace" => run_trace(shell, arg),
            "stats" => print!("{}", shell.engine.render_prometheus()),
            _ => println!("unknown command \\{cmd}"),
        }
        return;
    }
    run_estimate(shell, line);
}

/// One-shot batch estimation through the engine: it drains the stream an
/// `\online` run would open (same seed, jobs and scan order) and reads the
/// estimate out once. A `WITHIN` clause is ignored here.
fn run_estimate(shell: &mut Shell, sql: &str) {
    let (plan, group_by) = match plan_grouped_sql(sql, shell.engine.catalog()) {
        Ok(p) => p,
        Err(e) => {
            println!("error: {e}");
            return;
        }
    };
    let mut builder = shell
        .engine
        .session()
        .query_plan(&plan)
        .group_by(group_by)
        .seed(shell.seed)
        .confidence(shell.confidence)
        .chunk_rows(shell.chunk_rows)
        .jobs(shell.jobs)
        .shuffle_scan(shell.shuffle_scan);
    if let Some(n) = shell.subsample {
        builder = builder.subsample(n);
    }
    match builder.batch() {
        Ok(BatchOutput::Scalar(r)) => print_scalar(&r),
        Ok(BatchOutput::Grouped(r)) => print_grouped(&r),
        Err(e) => println!("error: {e}"),
    }
    shell.seed = shell.seed.wrapping_add(1); // fresh sample next time
}

fn print_scalar(r: &ApproxResult) {
    println!(
        "{:<16} {:>16} {:>14} {:>34}",
        "aggregate", "estimate", "std err", "95% normal CI"
    );
    for a in &r.aggs {
        let (se, ci) = match (&a.variance, &a.ci_normal) {
            (Some(v), Some(ci)) => (format!("{:.4}", v.sqrt()), format!("{ci}")),
            _ => ("—".into(), "(not estimable)".into()),
        };
        let mut row = format!("{:<16} {:>16.4} {:>14} {:>34}", a.name, a.estimate, se, ci);
        if let Some(q) = a.quantile_bound {
            row.push_str(&format!("   quantile bound: {q:.4}"));
        }
        println!("{row}");
    }
    println!(
        "({} result tuples; variance from {}; top GUS a = {:.4e})",
        r.result_rows,
        r.variance_rows,
        r.analysis.gus.a()
    );
}

fn print_grouped(r: &GroupedApproxResult) {
    println!(
        "{:<24} {:<12} {:>16} {:>34} {:>8}",
        r.group_exprs.join(", "),
        "aggregate",
        "estimate",
        "95% normal CI",
        "tuples"
    );
    for g in &r.groups {
        let key: Vec<String> = g.key.iter().map(|v| v.to_string()).collect();
        for a in &g.aggs {
            let ci = a
                .ci_normal
                .as_ref()
                .map(|ci| format!("{ci}"))
                .unwrap_or_else(|| "(not estimable)".into());
            println!(
                "{:<24} {:<12} {:>16.4} {:>34} {:>8}",
                key.join(","),
                a.name,
                a.estimate,
                ci,
                g.sample_rows
            );
        }
    }
    println!(
        "({} observed groups, {} result tuples)",
        r.groups.len(),
        r.result_rows
    );
}

/// Progressive estimation through the engine: print one line (scalar) or one
/// table (grouped) per snapshot, then the final estimates and why the query
/// stopped. A `WITHIN … CONFIDENCE …` clause in the SQL sets the stopping
/// rule; scalar vs. grouped is decided by `GROUP BY`.
fn online_mode(shell: &mut Shell, sql: &str) {
    let mut builder = shell
        .engine
        .session()
        .query(sql)
        .seed(shell.seed)
        .chunk_rows(shell.chunk_rows)
        .confidence(shell.confidence)
        .jobs(shell.jobs)
        .adaptive_chunks(shell.adaptive_chunks)
        .shuffle_scan(shell.shuffle_scan);
    if let Some(d) = shell.deadline {
        builder = builder.deadline(d);
    }
    let result = builder.run_with({
        let mut header = false;
        move |snap| match &snap {
            Snapshot::Scalar(s) => {
                if !header {
                    header = true;
                    println!(
                        "{:>10} {:>9} {:>16} {:>14} {:>8} {:>9}",
                        "rows", "scanned", "estimate", "±half-width", "rel", "elapsed"
                    );
                }
                print_snapshot_line(s);
            }
            Snapshot::Grouped(s) => print_grouped_snapshot(s),
        }
    });
    match result {
        Ok(r) => print_online_summary(&r),
        Err(e) => println!("error: {e}"),
    }
    shell.seed = shell.seed.wrapping_add(1); // fresh sample next time
}

/// Smallest per-relation scan fraction — the pessimistic "scanned" column.
fn min_scan_fraction(progress: &[(u64, u64)]) -> f64 {
    progress
        .iter()
        .map(|(c, n)| if *n == 0 { 1.0 } else { *c as f64 / *n as f64 })
        .fold(1.0f64, f64::min)
}

fn print_snapshot_line(s: &ProgressSnapshot) {
    // Lead aggregate drives the live line; the summary prints all of them.
    let a = &s.aggs[0];
    let (half, rel) = match &a.ci_normal {
        Some(ci) => (
            format!("{:.2}", ci.width() / 2.0),
            format!("{:.2}%", ci.relative_half_width() * 100.0),
        ),
        None => ("—".into(), "—".into()),
    };
    println!(
        "{:>10} {:>8.1}% {:>16.4} {:>14} {:>8} {:>7}ms",
        s.rows,
        min_scan_fraction(&s.progress) * 100.0,
        a.estimate,
        half,
        rel,
        s.elapsed.as_millis()
    );
}

/// One compact table per grouped snapshot: a chunk header line, then one
/// line per (group, aggregate). Deterministic for a fixed seed — no wall
/// times — so seeded runs are byte-reproducible.
fn print_grouped_snapshot(s: &GroupedProgressSnapshot) {
    let worst = s
        .rel_half_width
        .map(|r| format!("{:.2}%", r * 100.0))
        .unwrap_or_else(|| "—".into());
    println!(
        "[chunk {:>4}] {:>9} rows {:>6.1}% scanned {:>3} groups (+{} new) worst rel {}",
        s.chunk,
        s.rows,
        min_scan_fraction(&s.progress) * 100.0,
        s.groups.len(),
        s.new_groups,
        worst
    );
    for g in &s.groups {
        let key: Vec<String> = g.key.iter().map(|v| v.to_string()).collect();
        for a in &g.aggs {
            let (half, rel) = match &a.ci_normal {
                Some(ci) => (
                    format!("{:.2}", ci.width() / 2.0),
                    format!("{:.2}%", ci.relative_half_width() * 100.0),
                ),
                None => ("—".into(), "—".into()),
            };
            let mark = if g.converged {
                "  ok"
            } else if !g.tracked {
                "  (untracked)"
            } else {
                ""
            };
            println!(
                "    {:<20} {:<12} {:>16.4} {:>14} {:>8}{}",
                key.join(","),
                a.name,
                a.estimate,
                half,
                rel,
                mark
            );
        }
    }
}

/// The final estimates, rendered per result shape.
fn print_online_summary(r: &QueryResult) {
    match &r.snapshot {
        Snapshot::Scalar(s) => {
            println!(
                "stopped: {} after {} rows in {} chunks ({} ms)",
                r.reason,
                s.rows,
                r.chunks,
                s.elapsed.as_millis()
            );
            println!(
                "{:<16} {:>16} {:>14} {:>34}",
                "aggregate", "estimate", "std err", "final normal CI"
            );
            for a in &s.aggs {
                let (se, ci) = match (&a.variance, &a.ci_normal) {
                    (Some(v), Some(ci)) => (format!("{:.4}", v.sqrt()), format!("{ci}")),
                    _ => ("—".into(), "(not estimable)".into()),
                };
                println!("{:<16} {:>16.4} {:>14} {:>34}", a.name, a.estimate, se, ci);
            }
        }
        Snapshot::Grouped(s) => {
            println!(
                "stopped: {} after {} rows in {} chunks ({} ms)",
                r.reason,
                s.rows,
                r.chunks,
                s.elapsed.as_millis()
            );
            println!(
                "{:<20} {:<12} {:>16} {:>14} {:>34} {:>8}",
                s.group_exprs.join(", "),
                "aggregate",
                "estimate",
                "std err",
                "final normal CI",
                "tuples"
            );
            for g in &s.groups {
                let key: Vec<String> = g.key.iter().map(|v| v.to_string()).collect();
                for a in &g.aggs {
                    let (se, ci) = match (&a.variance, &a.ci_normal) {
                        (Some(v), Some(ci)) => (format!("{:.4}", v.sqrt()), format!("{ci}")),
                        _ => ("—".into(), "(not estimable)".into()),
                    };
                    println!(
                        "{:<20} {:<12} {:>16.4} {:>14} {:>34} {:>8}",
                        key.join(","),
                        a.name,
                        a.estimate,
                        se,
                        ci,
                        g.sample_rows
                    );
                }
            }
            println!("({} observed groups)", s.groups.len());
        }
    }
}

fn run_exact(shell: &Shell, sql: &str) {
    let (plan, group_by) = match plan_grouped_sql(sql, shell.engine.catalog()) {
        Ok(p) => p,
        Err(e) => {
            println!("error: {e}");
            return;
        }
    };
    if group_by.is_empty() {
        match exact_query(&plan, shell.engine.catalog()) {
            Ok(vals) => println!("exact: {vals:?}"),
            Err(e) => println!("error: {e}"),
        }
    } else {
        match exact_group_query(&plan, &group_by, shell.engine.catalog()) {
            Ok(groups) => {
                for (key, vals) in groups {
                    let key: Vec<String> = key.iter().map(|v| v.to_string()).collect();
                    println!("{:<24} {vals:?}", key.join(","));
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
}

fn run_trace(shell: &Shell, sql: &str) {
    let (plan, _) = match plan_grouped_sql(sql, shell.engine.catalog()) {
        Ok(p) => p,
        Err(e) => {
            println!("error: {e}");
            return;
        }
    };
    println!("plan:\n{}", plan.display_tree());
    match rewrite(&plan, shell.engine.catalog()) {
        Ok(analysis) => {
            println!("rewrite steps:\n{}", analysis.trace.render());
            println!("top GUS:\n{}", analysis.gus_table());
        }
        Err(e) => println!("error: {e}"),
    }
}
