//! Loopback serving benchmark for `sa-server`.
//!
//! ```text
//! perfbench --workload <eps_interactive|exhaustive_mapped|grouped_open|all>
//!           --seed N --seconds S --trace 0|1 --server-bin PATH
//!           [--work-dir DIR] [--fault SPEC]
//! ```
//!
//! `--trace 0` starts `sa-server`, drives it over loopback from this one
//! process and reports the end-to-end metrics. `--trace 1` reports the
//! per-layer metrics: it replays the same query list in-process through
//! each crate's public functions with spans around the calls (see
//! `trace.rs`). The last line of standard output is the JSON result; the
//! exit code is 1 when any answer fails the correctness gate.
//! `perfbench/README.md` documents the workloads and metrics.

mod drive;
mod proto;
mod trace;
mod util;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sa_storage::Catalog;
use sa_tpch::TpchConfig;

use drive::Record;
use proto::ServerProc;
use util::{
    median, metric, percentile, result_json, span_percentile, tail_percentile, Metric, TAIL_SPANS,
};
use workload::{Data, Exact, Traffic, Workload, SCALE, WORKLOADS};

/// Server spawns per run, `setup_s` being their median: at least
/// `MIN_SETUPS`, more while their total stays under `SETUP_BUDGET`.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
    fault: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: PathBuf::new(),
        work_dir: PathBuf::from(".bench_build/perfbench"),
        fault: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|_| "--seed needs a number")?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|_| "--seconds needs a number")?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--server-bin" => a.server_bin = PathBuf::from(val()?),
            "--work-dir" => a.work_dir = PathBuf::from(val()?),
            "--fault" => a.fault = Some(val()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && workload::workload(&a.workload).is_none() {
        return Err(format!(
            "--workload needs one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !a.server_bin.is_file() {
        return Err("--server-bin needs the sa-server executable".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("# fingerprint {}", util::fingerprint(&args.server_bin));
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut combined = Vec::new();
    for name in &names {
        let w = workload::workload(name).expect("validated workload name");
        let out = if args.trace {
            trace::run(&w, &args)
        } else {
            end_to_end(&w, &args)
        };
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                std::process::exit(1);
            }
        };
        all_ok &= out.correct;
        attempted += out.attempted;
        failed += out.failed;
        if names.len() > 1 {
            println!(
                "# {name} {}",
                result_json(out.correct, out.attempted, out.failed, &out.metrics)
            );
        }
        combined.extend(out.metrics.into_iter().map(|m| Metric {
            name: if names.len() > 1 {
                format!("{name}.{}", m.name)
            } else {
                m.name
            },
            ..m
        }));
    }
    println!("{}", result_json(all_ok, attempted, failed, &combined));
    std::process::exit(if all_ok { 0 } else { 1 });
}

/// A workload's result.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The workload's catalog and exact answers, built in-process from the seed
/// exactly as `sa-server --tpch` builds it.
pub struct Prepared {
    pub catalog: Catalog,
    pub generate: Duration,
    pub exact: Vec<Exact>,
    /// Arguments that make `sa-server` serve the same data.
    pub server_args: Vec<String>,
    /// The `.sac` directory of a mapped workload (removed on drop).
    pub sac_dir: Option<PathBuf>,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(d) = &self.sac_dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

pub fn prepare(w: &Workload, args: &Args) -> Result<Prepared, String> {
    let t = Instant::now();
    let catalog = sa_tpch::generate(&TpchConfig::scale(SCALE).with_seed(args.seed));
    let generate = t.elapsed();
    let exact = w.exact_answers(&catalog)?;
    let mut p = Prepared {
        catalog,
        generate,
        exact,
        server_args: Vec::new(),
        sac_dir: None,
    };
    match w.data {
        Data::InRam => {
            p.server_args = vec![
                "--tpch".into(),
                SCALE.to_string(),
                "--seed".into(),
                args.seed.to_string(),
            ];
        }
        Data::Mapped => {
            let dir = args
                .work_dir
                .join(format!("sac-{}-{}", std::process::id(), args.seed));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            p.sac_dir = Some(dir.clone());
            // Flush the files before the server maps them, so no writeback
            // runs during the timed phase.
            for (name, _) in
                sa_storage::persist_catalog(&p.catalog, &dir).map_err(|e| e.to_string())?
            {
                std::fs::File::open(dir.join(format!("{name}.sac")))
                    .and_then(|f| f.sync_all())
                    .map_err(|e| format!("sync {name}.sac: {e}"))?;
            }
            p.server_args = vec![
                "--data".into(),
                dir.to_string_lossy().into_owned(),
                "--seed".into(),
                args.seed.to_string(),
            ];
        }
    }
    if let Some(f) = &args.fault {
        p.server_args.extend(["--fault".into(), f.clone()]);
    }
    Ok(p)
}

/// The number of queries a run can use: the whole schedule of an open
/// loop, and more than a closed loop can finish.
pub fn query_count(w: &Workload, secs: f64, seed: u64) -> usize {
    match w.traffic {
        Traffic::Open { rate, .. } => drive::schedule(seed, rate, secs).len(),
        Traffic::Closed { .. } => (secs * 400.0) as usize + 1000,
    }
}

/// Run one query of every template on one connection, outside the timed
/// phase, so lazy set-up and first-touch page checks are not timed.
pub fn warm_up(
    w: &Workload,
    p: &Prepared,
    server: &ServerProc,
    seed: u64,
) -> Result<Vec<Record>, String> {
    let queries = w.queries(seed ^ 0x3a7e_u64, w.templates.len());
    drive::run(
        &server.addr,
        Traffic::Closed { conns: 1 },
        &queries,
        &p.exact,
        1e9,
        seed,
    )
    .map(|r| r.records)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn end_to_end(w: &Workload, args: &Args) -> Result<Outcome, String> {
    println!(
        "# perfbench workload={} seed={} seconds={} traffic={:?} data={:?}",
        w.name, args.seed, args.seconds, w.traffic, w.data
    );
    let p = prepare(w, args)?;
    // Spawn the server several times and keep the last: set-up time is
    // their median.
    let mut setups = Vec::new();
    let mut server = None;
    let spawning = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && spawning.elapsed() < SETUP_BUDGET)
    {
        drop(server.take());
        let s = ServerProc::spawn(&args.server_bin, &p.server_args)?;
        setups.push(s.setup.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one spawn");
    let warm = warm_up(w, &p, &server, args.seed)?;
    let queries = w.queries(args.seed, query_count(w, args.seconds, args.seed));
    let cpu0 = server.cpu();
    let host0 = util::host_cpu_ticks();
    let run = drive::run(
        &server.addr,
        w.traffic,
        &queries,
        &p.exact,
        args.seconds,
        args.seed,
    )?;
    let cpu = server.cpu().saturating_sub(cpu0);
    if let (Some((s0, t0)), Some((s1, t1))) = (host0, util::host_cpu_ticks()) {
        // Steal is CPU time the host gave to other guests: when it is high,
        // every CPU-bound metric of this run reads slow.
        println!(
            "# host steal during the timed phase {:.1}% of CPU time",
            100.0 * s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
        );
    }
    let rss = server.peak_rss_mb();
    let stats = server.stats().unwrap_or_default();
    drop(server);

    let recs = &run.records;
    let attempted = recs.len() as u64;
    let ok: Vec<&Record> = recs.iter().filter(|r| r.violation.is_none()).collect();
    let failed = attempted - ok.len() as u64;
    let violations: Vec<&String> = warm
        .iter()
        .chain(recs.iter())
        .filter_map(|r| r.violation.as_ref())
        .collect();
    for v in violations.iter().take(5) {
        println!("# gate violation: {v}");
    }
    let ttfs: Vec<f64> = ok.iter().filter_map(|r| r.ans.first.map(ms)).collect();
    let fin: Vec<f64> = ok.iter().filter_map(|r| r.ans.fin_at.map(ms)).collect();
    let tail = tail_percentile(fin.len(), w.tail_pct);
    let wall = run.wall.as_secs_f64();
    let timed = |at: fn(&Record) -> Option<Duration>| -> Vec<(f64, f64)> {
        ok.iter()
            .filter_map(|r| at(r).map(|d| (r.done.as_secs_f64(), ms(d))))
            .collect()
    };
    let ttfs_tail = span_percentile(&timed(|r| r.ans.first), wall, tail);
    let fin_tail = span_percentile(&timed(|r| r.ans.fin_at), wall, tail);
    let rows: u64 = ok.iter().map(|r| r.ans.rows).sum();
    let covered: u64 = ok.iter().map(|r| r.covered).sum();
    let intervals: u64 = ok.iter().map(|r| r.intervals).sum();
    let completed = ok.len().max(1) as f64;
    let metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("ttfs_p50_ms", median(&ttfs), "ms"),
        metric("ttfs_tail_ms", ttfs_tail, "ms"),
        metric("final_p50_ms", median(&fin), "ms"),
        metric("final_tail_ms", fin_tail, "ms"),
        metric("qps", ok.len() as f64 / wall, "1/s"),
        metric("rows_per_s", rows as f64 / wall, "rows/s"),
        metric(
            "ci_cover_frac",
            covered as f64 / intervals.max(1) as f64,
            "fraction",
        ),
        metric("server_cpu_ms_per_query", ms(cpu) / completed, "ms"),
        metric("server_rss_mb", rss, "MB"),
    ];
    println!(
        "# setup_s samples {:?}; tail percentile p{tail} over {} answers; \
         median of {TAIL_SPANS} spans; fail_frac {} ({failed}/{attempted}); \
         intervals {covered}/{intervals} cover; whole-run p{tail} final {:.2} ms",
        setups,
        fin.len(),
        failed as f64 / attempted.max(1) as f64,
        percentile(&fin, tail),
    );
    let deciles = |v: &[f64]| -> Vec<String> {
        (1..10)
            .map(|d| format!("{:.0}", percentile(v, d as f64 * 10.0)))
            .collect()
    };
    println!("# ttfs deciles ms  {}", deciles(&ttfs).join(" "));
    let windows = 8;
    let win = run.wall.as_secs_f64() / windows as f64;
    let per_win: Vec<String> = (0..windows)
        .map(|k| {
            let rows: u64 = ok
                .iter()
                .filter(|r| (r.done.as_secs_f64() / win) as usize == k)
                .map(|r| r.ans.rows)
                .sum();
            format!("{:.0}", rows as f64 / win)
        })
        .collect();
    println!("# rows/s per eighth of the run {}", per_win.join(" "));
    println!("# final deciles ms {}", deciles(&fin).join(" "));
    if let Traffic::Open { rate, .. } = w.traffic {
        let late: Vec<f64> = recs.iter().map(|r| ms(r.late)).collect();
        println!(
            "# open loop at {rate}/s: generator late p50 {:.2} ms, max {:.2} ms",
            median(&late),
            percentile(&late, 100.0)
        );
    }
    for (t, tpl) in w.templates.iter().enumerate() {
        let f: Vec<f64> = ok
            .iter()
            .filter(|r| r.template == t)
            .filter_map(|r| r.ans.fin_at.map(ms))
            .collect();
        let of_t: Vec<&&Record> = ok.iter().filter(|r| r.template == t).collect();
        let mean = |g: fn(&Record) -> f64| {
            of_t.iter().map(|r| g(r)).sum::<f64>() / of_t.len().max(1) as f64
        };
        println!(
            "# template {:<24} n={:<5} final_p50_ms={:<9.2} rows={:<9.0} snaps={:.1}",
            tpl.name,
            f.len(),
            median(&f),
            mean(|r| r.ans.rows as f64),
            mean(|r| r.ans.snaps as f64),
        );
    }
    println!(
        "# server STATS: rejected={} shared gathered/served={}/{}",
        stats
            .get("sa_queries_rejected_total")
            .copied()
            .unwrap_or(0.0),
        stats
            .get("sa_shared_scan_rows_gathered_total")
            .copied()
            .unwrap_or(0.0),
        stats
            .get("sa_shared_scan_rows_served_total")
            .copied()
            .unwrap_or(0.0),
    );
    for m in &metrics {
        println!("{:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        correct: violations.is_empty() && attempted > 0,
        attempted,
        failed,
        metrics,
    })
}
