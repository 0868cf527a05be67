//! The three workloads: their query mixes, their traffic shape and the
//! exact answers the correctness gate and `ci_cover_frac` compare against.

use std::collections::BTreeMap;

use sa_storage::Catalog;

/// TPC-H scale of every workload: lineitem has about 600k rows and the
/// `.sac` catalog is about 48 MB.
pub const SCALE: f64 = 0.1;

/// How requests reach the server.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Each connection sends its next query once the previous answer's
    /// `DONE` arrived.
    Closed { conns: usize },
    /// Queries are due on a seeded schedule at `rate` per second whatever
    /// the server does; at most `conns` are in flight.
    Open { conns: usize, rate: f64 },
}

/// Where the served catalog lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Data {
    /// Generated in the server's RAM at start-up.
    InRam,
    /// Persisted as `.sac` files and memory-mapped by the server.
    Mapped,
}

/// One workload of the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub traffic: Traffic,
    pub data: Data,
    /// Tail percentile reported as `*_tail_ms`: the highest grid percentile
    /// that keeps at least ten answers beyond it at the 40-second run length
    /// of `BENCHMARK.json` (lowered automatically for shorter runs), fixed
    /// so that every run of the workload reports the same percentile. It is
    /// taken in each span of the run and reported as their median (see
    /// `util::span_percentile`).
    pub tail_pct: f64,
    pub templates: Vec<Template>,
}

/// A query shape; `sql` renders one instance from two uniform draws in
/// [0, 1) (sampling rate, accuracy target).
pub struct Template {
    pub name: &'static str,
    pub sql: fn(f64, f64) -> String,
}

/// One query instance of a run.
#[derive(Debug, Clone)]
pub struct Query {
    pub template: usize,
    pub sql: String,
    pub seed: u64,
    pub shuffle: bool,
}

/// The exact (unsampled) answer of a template.
#[derive(Debug, Clone)]
pub enum Exact {
    Scalar(f64),
    /// First aggregate per group, keyed like the server's `GROUP key=`.
    Grouped(BTreeMap<String, f64>),
}

fn pct(lo: f64, hi: f64, u: f64) -> u64 {
    (lo + (hi - lo) * u).round() as u64
}

pub fn workload(name: &str) -> Option<Workload> {
    let w = match name {
        // Early-stopping ε-queries: the socket, snapshot readout, per-query
        // planning and the shared-cursor attach do the work.
        "eps_interactive" => Workload {
            name: "eps_interactive",
            traffic: Traffic::Closed { conns: 2 },
            data: Data::InRam,
            tail_pct: 99.0,
            templates: vec![
                Template {
                    name: "li_sum",
                    sql: |u, v| {
                        format!(
                            "SELECT SUM(l_quantity) AS s FROM lineitem TABLESAMPLE ({} PERCENT) \
                             WITHIN {} PERCENT CONFIDENCE 95",
                            pct(3.0, 10.0, u),
                            pct(1.0, 4.0, v)
                        )
                    },
                },
                Template {
                    name: "li_count_filtered",
                    sql: |u, v| {
                        format!(
                            "SELECT COUNT(*) AS n FROM lineitem TABLESAMPLE ({} PERCENT) \
                             WHERE l_discount >= 0.05 WITHIN {} PERCENT CONFIDENCE 95",
                            pct(3.0, 10.0, u),
                            pct(2.0, 5.0, v)
                        )
                    },
                },
                Template {
                    name: "li_revenue_filtered",
                    sql: |u, v| {
                        format!(
                            "SELECT SUM(l_extendedprice * (1 - l_discount)) AS rev FROM lineitem \
                             TABLESAMPLE ({} PERCENT) WHERE l_quantity < 30 \
                             WITHIN {} PERCENT CONFIDENCE 95",
                            pct(3.0, 10.0, u),
                            pct(1.0, 4.0, v)
                        )
                    },
                },
                Template {
                    name: "ord_sum",
                    sql: |u, v| {
                        format!(
                            "SELECT SUM(o_totalprice) AS s FROM orders TABLESAMPLE ({} PERCENT) \
                             WITHIN {} PERCENT CONFIDENCE 95",
                            pct(5.0, 20.0, u),
                            pct(1.0, 4.0, v)
                        )
                    },
                },
                Template {
                    name: "ord_count_filtered",
                    sql: |u, v| {
                        format!(
                            "SELECT COUNT(*) AS n FROM orders TABLESAMPLE ({} PERCENT) \
                             WHERE o_orderstatus = 'F' WITHIN {} PERCENT CONFIDENCE 95",
                            pct(10.0, 30.0, u),
                            pct(3.0, 5.0, v)
                        )
                    },
                },
                Template {
                    name: "ord_sum_wor_filtered",
                    sql: |u, v| {
                        format!(
                            "SELECT SUM(o_totalprice) AS s FROM orders TABLESAMPLE ({} ROWS) \
                             WHERE o_orderpriority = '1-URGENT' WITHIN {} PERCENT CONFIDENCE 95",
                            pct(10.0, 30.0, u) * 1000,
                            pct(3.0, 5.0, v)
                        )
                    },
                },
                Template {
                    name: "ord_count_by_status",
                    sql: |u, v| {
                        format!(
                            "SELECT o_orderstatus, COUNT(*) AS n FROM orders \
                             TABLESAMPLE ({} PERCENT) GROUP BY o_orderstatus \
                             WITHIN {} PERCENT CONFIDENCE 95",
                            pct(10.0, 30.0, u),
                            pct(3.0, 5.0, v)
                        )
                    },
                },
            ],
        },
        // Full scans of the mapped catalog: storage gather, expression
        // kernels, stream sampling, join build and probe and push_batch do
        // nearly all the work; one connection never shares a hub. Rates are
        // fixed because a full scan's work scales with its rate, and
        // `final_p50_ms` falls on the middle template by time. The plain SUM
        // runs at 10% so that the middle one is the filter+project, whose
        // time moved least with the host's load (the 50% SUM moved most).
        "exhaustive_mapped" => Workload {
            name: "exhaustive_mapped",
            traffic: Traffic::Closed { conns: 1 },
            data: Data::Mapped,
            tail_pct: 95.0,
            templates: vec![
                Template {
                    name: "li_sum",
                    sql: |_, _| {
                        "SELECT SUM(l_extendedprice) AS s FROM lineitem \
                             TABLESAMPLE (10 PERCENT)"
                            .into()
                    },
                },
                Template {
                    name: "li_filter_project",
                    sql: |_, _| {
                        "SELECT SUM(l_extendedprice * (1 - l_discount)) AS rev FROM lineitem \
                             TABLESAMPLE (50 PERCENT) WHERE l_quantity < 24 AND l_discount >= 0.05"
                            .into()
                    },
                },
                Template {
                    name: "li_group_returnflag",
                    sql: |_, _| {
                        "SELECT l_returnflag, SUM(l_quantity) AS q FROM lineitem \
                             TABLESAMPLE (50 PERCENT) GROUP BY l_returnflag"
                            .into()
                    },
                },
                Template {
                    name: "li_join_orders",
                    sql: |_, _| {
                        "SELECT SUM(l_extendedprice) AS s FROM lineitem \
                             TABLESAMPLE (50 PERCENT), orders \
                             WHERE l_orderkey = o_orderkey AND o_orderpriority = '1-URGENT'"
                            .into()
                    },
                },
                Template {
                    name: "li_system_count",
                    sql: |_, _| {
                        "SELECT COUNT(*) AS n FROM lineitem TABLESAMPLE SYSTEM (50 PERCENT) \
                             WHERE l_tax > 0.04"
                            .into()
                    },
                },
            ],
        },
        // Independent users at a fixed rate: grouped readout on every
        // snapshot dominates, GROUP lines dominate the bytes, and shuffled
        // scans bypass the shared hub.
        "grouped_open" => Workload {
            name: "grouped_open",
            traffic: Traffic::Open {
                conns: 2,
                rate: 5.5,
            },
            data: Data::InRam,
            tail_pct: 95.0,
            templates: vec![
                Template {
                    name: "ps_group_suppkey",
                    sql: |u, _| {
                        format!(
                            "SELECT ps_suppkey, SUM(ps_supplycost) AS c FROM partsupp \
                             TABLESAMPLE ({} PERCENT) GROUP BY ps_suppkey",
                            pct(40.0, 60.0, u)
                        )
                    },
                },
                Template {
                    name: "ps_group_suppkey_wor",
                    sql: |u, _| {
                        format!(
                            "SELECT ps_suppkey, SUM(ps_availqty) AS q FROM partsupp \
                             TABLESAMPLE ({} ROWS) GROUP BY ps_suppkey",
                            pct(30.0, 50.0, u) * 1000
                        )
                    },
                },
                Template {
                    name: "ps_count_suppkey_filtered",
                    sql: |u, _| {
                        format!(
                            "SELECT ps_suppkey, COUNT(*) AS n FROM partsupp \
                             TABLESAMPLE ({} PERCENT) WHERE ps_availqty > 2500 \
                             GROUP BY ps_suppkey",
                            pct(40.0, 60.0, u)
                        )
                    },
                },
                Template {
                    name: "ord_group_priority",
                    sql: |u, v| {
                        format!(
                            "SELECT o_orderpriority, SUM(o_totalprice) AS s FROM orders \
                             TABLESAMPLE ({} PERCENT) GROUP BY o_orderpriority \
                             WITHIN {} PERCENT CONFIDENCE 95",
                            pct(30.0, 60.0, u),
                            pct(2.0, 4.0, v)
                        )
                    },
                },
                Template {
                    name: "cust_group_nation",
                    sql: |u, _| {
                        format!(
                            "SELECT c_nationkey, SUM(c_acctbal) AS b FROM customer \
                             TABLESAMPLE ({} PERCENT) WHERE c_acctbal > 0 GROUP BY c_nationkey",
                            pct(40.0, 60.0, u)
                        )
                    },
                },
                Template {
                    name: "ord_group_status",
                    sql: |u, _| {
                        format!(
                            "SELECT o_orderstatus, COUNT(*) AS n FROM orders \
                             TABLESAMPLE ({} PERCENT) GROUP BY o_orderstatus",
                            pct(20.0, 40.0, u)
                        )
                    },
                },
                Template {
                    name: "li_group_returnflag",
                    sql: |u, _| {
                        format!(
                            "SELECT l_returnflag, SUM(l_extendedprice) AS s FROM lineitem \
                             TABLESAMPLE ({} PERCENT) GROUP BY l_returnflag",
                            pct(20.0, 30.0, u)
                        )
                    },
                },
                Template {
                    name: "li_group_linenumber",
                    sql: |u, v| {
                        format!(
                            "SELECT l_linenumber, COUNT(*) AS n FROM lineitem \
                             TABLESAMPLE ({} PERCENT) GROUP BY l_linenumber \
                             WITHIN {} PERCENT CONFIDENCE 95",
                            pct(10.0, 20.0, u),
                            pct(2.0, 4.0, v)
                        )
                    },
                },
                Template {
                    name: "li_join_group_priority",
                    sql: |u, v| {
                        format!(
                            "SELECT o_orderpriority, SUM(l_quantity) AS q FROM lineitem \
                             TABLESAMPLE ({} PERCENT), orders WHERE l_orderkey = o_orderkey \
                             GROUP BY o_orderpriority WITHIN {} PERCENT CONFIDENCE 95",
                            pct(10.0, 20.0, u),
                            pct(3.0, 5.0, v)
                        )
                    },
                },
            ],
        },
        _ => return None,
    };
    Some(w)
}

pub const WORKLOADS: [&str; 3] = ["eps_interactive", "exhaustive_mapped", "grouped_open"];

/// splitmix64: the benchmark's only randomness, so a seed fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be4c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

impl Workload {
    /// The run's query list: rounds that each hold every template once, in
    /// a seeded order, so every prefix of the list has nearly the same mix.
    /// In an open loop a quarter of the queries scan shuffled: each template
    /// in exactly one of every four rounds.
    pub fn queries(&self, seed: u64, count: usize) -> Vec<Query> {
        let mut rng = Rng::new(seed);
        let mut out = Vec::with_capacity(count);
        let mut order: Vec<usize> = (0..self.templates.len()).collect();
        let mut round = 0;
        while out.len() < count {
            rng.shuffle(&mut order);
            round += 1;
            for &t in &order {
                if out.len() == count {
                    break;
                }
                let (u, v) = (rng.unit(), rng.unit());
                let shuffle = matches!(self.traffic, Traffic::Open { .. }) && (t + round) % 4 == 0;
                out.push(Query {
                    template: t,
                    sql: (self.templates[t].sql)(u, v),
                    seed: rng.next_u64() >> 1,
                    shuffle,
                });
            }
        }
        out
    }

    /// Exact answers per template, from unsampled in-process queries.
    pub fn exact_answers(&self, catalog: &Catalog) -> Result<Vec<Exact>, String> {
        self.templates
            .iter()
            .map(|t| exact_answer(&(t.sql)(0.5, 0.5), catalog))
            .collect()
    }
}

fn exact_answer(sql: &str, catalog: &Catalog) -> Result<Exact, String> {
    let (plan, group_by, _) =
        sa_sql::plan_online_grouped_sql(sql, catalog).map_err(|e| format!("{sql}: {e}"))?;
    if group_by.is_empty() {
        let v = sa_exec::exact_query(&plan, catalog).map_err(|e| format!("{sql}: {e}"))?;
        Ok(Exact::Scalar(v[0]))
    } else {
        let groups = sa_exec::exact_group_query(&plan, &group_by, catalog)
            .map_err(|e| format!("{sql}: {e}"))?;
        Ok(Exact::Grouped(
            groups
                .into_iter()
                .map(|(k, v)| (group_key(&k), v[0]))
                .collect(),
        ))
    }
}

/// A group key as the server renders it in `GROUP key=`.
pub fn group_key(key: &[sa_storage::Value]) -> String {
    key.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}
