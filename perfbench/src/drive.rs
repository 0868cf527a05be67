//! Traffic generation over loopback, and the correctness gate every answer
//! passes through.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::proto::{Answer, Conn, Final};
use crate::workload::{Exact, Query, Rng, Traffic};

/// One query's outcome.
#[derive(Debug, Clone)]
pub struct Record {
    pub template: usize,
    pub ans: Answer,
    /// `None` when the answer passed the gate.
    pub violation: Option<String>,
    /// Intervals that contain the exact answer, and intervals checked.
    pub covered: u64,
    pub intervals: u64,
    /// How late the generator sent the query (open loop only).
    pub late: Duration,
    /// When the answer completed, from the start of the phase.
    pub done: Duration,
}

/// The outcome of one timed phase.
pub struct Run {
    pub records: Vec<Record>,
    /// From the phase's start to its last answer.
    pub wall: Duration,
}

/// Every query must answer a well-formed `FINAL` before `DONE`, every
/// scalar estimate must lie inside its own interval, and every group's
/// half-width must be a non-negative number. Returns (covered, checked)
/// intervals against the exact answer.
pub fn check(ans: &Answer, exact: &Exact) -> Result<(u64, u64), String> {
    if let Some(e) = &ans.error {
        return Err(e.clone());
    }
    let fin = ans.fin.as_ref().ok_or("no FINAL before DONE")?;
    if !matches!(ans.reason.as_str(), "ci-converged" | "exhausted") {
        return Err(format!("stopped for {}", ans.reason));
    }
    if ans.rows == 0 {
        return Err("FINAL over zero rows".into());
    }
    // A relative slack for float formatting of degenerate intervals.
    let inside = |lo: f64, x: f64, hi: f64| {
        let slack = 1e-9 * x.abs().max(1.0);
        lo - slack <= x && x <= hi + slack
    };
    match (fin, exact) {
        (Final::Scalar { estimate, ci }, Exact::Scalar(truth)) => {
            let (lo, hi) = ci.ok_or("FINAL without an interval")?;
            if !estimate.is_finite() || !inside(lo, *estimate, hi) {
                return Err(format!(
                    "estimate {estimate} outside its interval {lo}..{hi}"
                ));
            }
            Ok((inside(lo, *truth, hi) as u64, 1))
        }
        (Final::Grouped { groups }, Exact::Grouped(truth)) => {
            if *groups as usize != ans.groups.len() || ans.groups.is_empty() {
                return Err(format!(
                    "FINAL groups={groups} but {} GROUP lines",
                    ans.groups.len()
                ));
            }
            let mut covered = 0;
            let mut checked = 0;
            for (key, est, rel) in &ans.groups {
                let t = truth
                    .get(key)
                    .ok_or_else(|| format!("GROUP key={key} has no exact group"))?;
                let Some(rel) = rel else { continue };
                if !est.is_finite() || rel.is_nan() || *rel < 0.0 {
                    return Err(format!("GROUP key={key} estimate={est} rel={rel}"));
                }
                let half = rel * est.abs();
                covered += inside(est - half, *t, est + half) as u64;
                checked += 1;
            }
            Ok((covered, checked))
        }
        _ => Err("answer shape does not match the query".into()),
    }
}

fn record(q: &Query, ans: Answer, exact: &[Exact], late: Duration, done: Duration) -> Record {
    let (violation, covered, intervals) = match check(&ans, &exact[q.template]) {
        Ok((c, n)) => (None, c, n),
        Err(e) => (Some(format!("{}: {e}", q.sql)), 0, 0),
    };
    Record {
        template: q.template,
        ans,
        violation,
        covered,
        intervals,
        late,
        done,
    }
}

/// Run `queries` against `addr` with the workload's traffic shape for
/// `secs` seconds. A closed loop stops issuing at the deadline and lets the
/// queries in flight finish; an open loop sends the `rate·secs` queries of
/// its schedule and waits for all of them.
pub fn run(
    addr: &str,
    traffic: Traffic,
    queries: &[Query],
    exact: &[Exact],
    secs: f64,
    seed: u64,
) -> Result<Run, String> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let (conns, due) = match traffic {
        Traffic::Closed { conns } => (conns, None),
        Traffic::Open { conns, rate } => (conns, Some(schedule(seed, rate, secs))),
    };
    let limit = due
        .as_ref()
        .map_or(queries.len(), |d| d.len().min(queries.len()));
    let deadline = t0 + Duration::from_secs_f64(secs);
    let err = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let mut conn = match Conn::open(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        *err.lock().expect("error slot") = Some(e);
                        return;
                    }
                };
                loop {
                    if due.is_none() && Instant::now() >= deadline {
                        return;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= limit {
                        return;
                    }
                    let q = &queries[i];
                    let start = match &due {
                        Some(d) => {
                            let at = t0 + d[i];
                            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            at
                        }
                        None => Instant::now(),
                    };
                    let late = start.elapsed();
                    let ans = conn.query(q.seed, q.shuffle, &q.sql, start);
                    let broken = ans.error.is_some() && ans.fin.is_none();
                    out.lock()
                        .expect("record list")
                        .push((i, record(q, ans, exact, late, t0.elapsed())));
                    if broken {
                        // A dropped connection: reconnect for the next query.
                        match Conn::open(addr) {
                            Ok(c) => conn = c,
                            Err(e) => {
                                *err.lock().expect("error slot") = Some(e);
                                return;
                            }
                        }
                    }
                }
            });
        }
    });
    let wall = t0.elapsed();
    if let Some(e) = err.into_inner().expect("error slot") {
        return Err(e);
    }
    let mut records = out.into_inner().expect("record list");
    records.sort_by_key(|(i, _)| *i);
    Ok(Run {
        records: records.into_iter().map(|(_, r)| r).collect(),
        wall,
    })
}

/// Due times of an open loop: `round(rate·secs)` arrivals placed uniformly
/// at random over the run, sorted — a Poisson process conditioned on its
/// count, so every run of a given length offers the same load.
pub fn schedule(seed: u64, rate: f64, secs: f64) -> Vec<Duration> {
    let mut rng = Rng::new(seed ^ 0xa11_1e5);
    let n = (rate * secs).round().max(1.0) as usize;
    let mut at: Vec<f64> = (0..n).map(|_| rng.unit() * secs).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}
