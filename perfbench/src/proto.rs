//! The loopback side: the `sa-server` process and a line-protocol client
//! that sends `SEED`+`QUERY` the way `sa --connect` does.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `sa-server`; killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spawn to `READY`.
    pub setup: Duration,
}

impl ServerProc {
    /// Spawn `bin` with `args` plus a loopback address and wait for its
    /// `READY <addr>` line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<ServerProc, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let ready = stdout.read_line(&mut line);
        let setup = t0.elapsed();
        let addr = match (ready, line.trim().strip_prefix("READY ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("sa-server did not print READY (got {line:?})"));
            }
        };
        Ok(ServerProc {
            child,
            _stdout: stdout,
            addr,
            setup,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// utime + stime of the server so far.
    pub fn cpu(&self) -> Duration {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of proc(5), i.e. 11 and 12 here.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<u64> = rest
            .split_whitespace()
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
        Duration::from_secs_f64(ticks as f64 / clock_ticks())
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// The server's `STATS` dump as `name → value` (labelled samples keep
    /// their labels in the name).
    pub fn stats(&self) -> Result<BTreeMap<String, f64>, String> {
        let mut conn = Conn::open(&self.addr)?;
        conn.send("STATS\n")?;
        let mut out = BTreeMap::new();
        loop {
            let line = conn.line()?;
            if line == "DONE" {
                return Ok(out);
            }
            if line.starts_with('#') {
                continue;
            }
            if let Some((k, v)) = line.rsplit_once(' ') {
                if let Ok(v) = v.parse() {
                    out.insert(k.to_string(), v);
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn clock_ticks() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer and reads no memory of ours.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    shuffle: bool,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(s),
            writer,
            shuffle: false,
        })
    }

    fn send(&mut self, text: &str) -> Result<(), String> {
        self.writer
            .write_all(text.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line.trim_end_matches(['\n', '\r']).to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Send `SEED` (and `SHUFFLE` when this connection's setting changes)
    /// pipelined with `QUERY` in one write, then read the answer up to
    /// `DONE`. Times are measured from `start`.
    pub fn query(&mut self, seed: u64, shuffle: bool, sql: &str, start: Instant) -> Answer {
        let mut req = format!("SEED {seed}\n");
        let mut oks = 1;
        if shuffle != self.shuffle {
            req.push_str(if shuffle {
                "SHUFFLE on\n"
            } else {
                "SHUFFLE off\n"
            });
            self.shuffle = shuffle;
            oks += 1;
        }
        req.push_str("QUERY ");
        req.push_str(sql);
        req.push('\n');
        let mut a = Answer::default();
        if let Err(e) = self.send(&req) {
            a.error = Some(e);
            return a;
        }
        loop {
            let line = match self.line() {
                Ok(l) => l,
                Err(e) => {
                    a.error = Some(e);
                    return a;
                }
            };
            if oks > 0 && line == "OK" {
                oks -= 1;
                continue;
            }
            a.bytes += line.len() as u64 + 1;
            if line == "DONE" {
                return a;
            }
            if let Err(e) = a.absorb(&line, start.elapsed()) {
                a.error.get_or_insert(e);
            }
        }
    }
}

/// The final line of a query.
#[derive(Debug, Clone)]
pub enum Final {
    Scalar {
        estimate: f64,
        ci: Option<(f64, f64)>,
    },
    Grouped {
        groups: u64,
    },
}

/// Everything one query answered.
#[derive(Debug, Default, Clone)]
pub struct Answer {
    /// First `SNAP` or `GROUP` line.
    pub first: Option<Duration>,
    /// The `FINAL` line.
    pub fin_at: Option<Duration>,
    pub fin: Option<Final>,
    pub reason: String,
    pub rows: u64,
    pub snaps: u64,
    pub bytes: u64,
    /// `GROUP` lines: key, estimate, relative half-width.
    pub groups: Vec<(String, f64, Option<f64>)>,
    /// `ERR`, a dropped connection or a malformed line.
    pub error: Option<String>,
}

fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    line.split(' ')
        .find_map(|kv| kv.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
        .ok_or_else(|| format!("no {key}= in {line:?}"))
}

fn num<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String> {
    field(line, key)?
        .parse()
        .map_err(|_| format!("bad {key}= in {line:?}"))
}

fn rel(line: &str) -> Result<Option<f64>, String> {
    match field(line, "rel")? {
        "na" => Ok(None),
        r => r
            .parse()
            .map(Some)
            .map_err(|_| format!("bad rel= in {line:?}")),
    }
}

impl Answer {
    fn absorb(&mut self, line: &str, at: Duration) -> Result<(), String> {
        if self.fin.is_some() {
            return Err(format!("line after FINAL: {line:?}"));
        }
        let (verb, _) = line.split_once(' ').unwrap_or((line, ""));
        match verb {
            "SNAP" => {
                num::<u64>(line, "rows")?;
                num::<u64>(line, "chunk")?;
                rel(line)?;
                self.snaps += 1;
                self.first.get_or_insert(at);
            }
            "GROUP" => {
                // Keys may hold spaces; estimate= and rel= are the last two
                // fields.
                let body = &line["GROUP key=".len().min(line.len())..];
                let (rest, rel_s) = body
                    .rsplit_once(" rel=")
                    .ok_or_else(|| format!("malformed {line:?}"))?;
                let (key, est) = rest
                    .rsplit_once(" estimate=")
                    .ok_or_else(|| format!("malformed {line:?}"))?;
                let est: f64 = est
                    .parse()
                    .map_err(|_| format!("bad estimate in {line:?}"))?;
                let rel = match rel_s {
                    "na" => None,
                    r => Some(r.parse().map_err(|_| format!("bad rel in {line:?}"))?),
                };
                self.groups.push((key.to_string(), est, rel));
                self.first.get_or_insert(at);
            }
            "FINAL" => {
                self.reason = field(line, "reason")?.to_string();
                self.rows = num(line, "rows")?;
                self.fin_at = Some(at);
                self.first.get_or_insert(at);
                self.fin = Some(if line.contains(" groups=") {
                    Final::Grouped {
                        groups: num(line, "groups")?,
                    }
                } else {
                    let ci = match field(line, "ci")? {
                        "na" => None,
                        c => {
                            let (lo, hi) = c
                                .split_once("..")
                                .ok_or_else(|| format!("bad ci= in {line:?}"))?;
                            Some((
                                lo.parse().map_err(|_| format!("bad ci= in {line:?}"))?,
                                hi.parse().map_err(|_| format!("bad ci= in {line:?}"))?,
                            ))
                        }
                    };
                    Final::Scalar {
                        estimate: num(line, "estimate")?,
                        ci,
                    }
                });
            }
            "ERR" => return Err(line.to_string()),
            _ => return Err(format!("unexpected line {line:?}")),
        }
        Ok(())
    }
}
