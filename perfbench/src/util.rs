//! Order statistics, the run fingerprint and JSON rendering.

use std::path::Path;
use std::process::Command;

/// Linear-interpolated percentile `q` (0–100) of `v`; 0 when empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (q / 100.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The highest percentile of the grid, at most `cap`, that leaves at least
/// ten of `n` samples beyond it.
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    [99.0, 98.0, 95.0, 90.0, 80.0, 75.0]
        .into_iter()
        .find(|&q| q <= cap && n as f64 * (1.0 - q / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Equal spans a run is cut into, by completion time, for its tail.
pub const TAIL_SPANS: usize = 8;

/// Percentile `q` of the `(at, value)` samples of each of `TAIL_SPANS`
/// equal spans of a `wall`-second run, by the time `at` each completed, and
/// the median of those per-span percentiles. A burst of contention from the
/// host's other tenants moves the one or two spans it falls in, not the
/// result, which a single percentile over the whole run would follow.
pub fn span_percentile(samples: &[(f64, f64)], wall: f64, q: f64) -> f64 {
    let mut spans = vec![Vec::new(); TAIL_SPANS];
    for &(at, v) in samples {
        let k = (at / wall * TAIL_SPANS as f64) as usize;
        spans[k.min(TAIL_SPANS - 1)].push(v);
    }
    let per: Vec<f64> = spans
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, q))
        .collect();
    median(&per)
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_file(path: &Path) -> String {
    let mut h = FNV_OFFSET;
    match std::fs::read(path) {
        Ok(bytes) => {
            fnv1a(&mut h, &bytes);
            format!("{h:016x}")
        }
        Err(_) => "unreadable".into(),
    }
}

/// A hash over every file under `crates/` plus `Cargo.lock`, in path order:
/// identifies the measured source where no git metadata is present.
fn hash_sources(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = FNV_OFFSET;
    for f in &files {
        fnv1a(
            &mut h,
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        fnv1a(&mut h, &std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host's CPU time counters from `/proc/stat` in clock ticks: time
/// stolen by the hypervisor for other guests, and all time (the first eight
/// fields; the guest fields are already inside user time). `None` where
/// `/proc/stat` is missing.
pub fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Where and what was measured, so results from different machines or
/// builds are never compared by mistake.
pub fn fingerprint(server_bin: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \
         \"source_fnv\": \"{}\", \"server_bin_fnv\": \"{}\"}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&commit),
        hash_sources(Path::new(".")),
        hash_file(server_bin),
    )
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One named metric of a result.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
