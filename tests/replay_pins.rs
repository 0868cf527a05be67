//! Bit-exact replay pins for the sequential progressive loop.
//!
//! With one stream the loop runs its worker inline on the calling thread
//! and pushes every chunk straight into the global accumulator, so a fixed
//! `(plan, seed, chunk_rows)` must replay the very same snapshot sequence,
//! down to the bits of every estimate and variance. These golden sequences
//! pin that, for a scalar and a grouped query, each run to exhaustion and
//! stopped early by a CI target. A change to the loop, the accumulator's
//! arithmetic order or the scan-prefix scaling shows up here as a diff.

use sampling_algebra::prelude::*;

/// `t(g, v)`: 4000 rows; `g` cycles through "A", "B", "C" unevenly and `v`
/// is a quarter-step value in 1..26.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("g", DataType::Str),
        Field::new("v", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema);
    for i in 0..4000i64 {
        let g = match i % 6 {
            0..=2 => "A",
            3 | 4 => "B",
            _ => "C",
        };
        let v = 1.0 + ((i * 37) % 101) as f64 * 0.25;
        b.push_row(&[Value::str(g), Value::Float(v)]).unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

/// One `(rows, estimate bits, variance bits)` triple per snapshot; for a
/// grouped query one triple per group (key order) per snapshot, with the
/// group's own sample rows.
type Trace = Vec<Vec<(u64, u64, u64)>>;

fn trace(sql: &str) -> (Trace, StopReason) {
    let engine = Engine::new(catalog());
    let triple = |rows: u64, a: &sampling_algebra::exec::AggResult| {
        (rows, a.estimate.to_bits(), a.variance.unwrap().to_bits())
    };
    let mut out = Vec::new();
    let r = engine
        .session()
        .query(sql)
        .seed(7)
        .chunk_rows(256)
        .run_with(|s| {
            out.push(match &s {
                Snapshot::Scalar(s) => vec![triple(s.rows, &s.aggs[0])],
                Snapshot::Grouped(s) => s
                    .groups
                    .iter()
                    .map(|g| triple(g.sample_rows, &g.aggs[0]))
                    .collect(),
            })
        })
        .unwrap();
    (out, r.reason)
}

fn assert_replays(sql: &str, reason: StopReason, golden: &[&[(u64, u64, u64)]]) {
    let (got, got_reason) = trace(sql);
    assert_eq!(got_reason, reason, "{sql}");
    let want: Trace = golden.iter().map(|s| s.to_vec()).collect();
    assert_eq!(got, want, "{sql}: got {got:#x?}");
}

#[test]
fn scalar_sequential_snapshots_replay_bit_for_bit() {
    assert_replays(
        "SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT)",
        StopReason::Exhausted,
        SCALAR_EXHAUSTED,
    );
    assert_replays(
        "SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT) WITHIN 8 PERCENT CONFIDENCE 95",
        StopReason::CiConverged,
        SCALAR_CI,
    );
}

#[test]
fn grouped_sequential_snapshots_replay_bit_for_bit() {
    assert_replays(
        "SELECT g, SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT) GROUP BY g",
        StopReason::Exhausted,
        GROUPED_EXHAUSTED,
    );
    assert_replays(
        "SELECT g, SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT) GROUP BY g \
         WITHIN 15 PERCENT CONFIDENCE 95",
        StopReason::CiConverged,
        GROUPED_CI,
    );
}

// Golden sequences, seed 7, chunk 256.
const SCALAR_EXHAUSTED: &[&[(u64, u64, u64)]] = &[
    &[(133, 0x40eb6f7000000000, 0x4171441fd461e200)],
    &[(274, 0x40ec7a8700000000, 0x41616b2c80da4900)],
    &[(399, 0x40eba62000000000, 0x4156b40f445fae00)],
    &[(536, 0x40ebec3180000000, 0x4151021462e40000)],
    &[(644, 0x40ea60bc00000000, 0x4149e282b8fa3000)],
    &[(768, 0x40ea71b1aaaaaaab, 0x41457096f2e80c00)],
    &[(899, 0x40ea8ed400000000, 0x414236dad01c0c00)],
    &[(1031, 0x40eab77a40000000, 0x413fb86c8a2ff000)],
    &[(1149, 0x40ea734471c71c72, 0x413b9e9ea767e800)],
    &[(1278, 0x40ea4ff000000000, 0x41383fbd4a330000)],
    &[(1399, 0x40ea4e6000000000, 0x4135d1fc6fe29800)],
    &[(1513, 0x40ea2f882aaaaaab, 0x4133b19469097000)],
    &[(1637, 0x40ea3aeb3b13b13b, 0x4131f4e8be2df000)],
    &[(1784, 0x40ea8afddb6db6db, 0x4130aa6cd1cad000)],
    &[(1896, 0x40ea537400000000, 0x412e6d2ba1b32000)],
    &[(1977, 0x40ea696000000000, 0x412d118d80000000)],
    &[(1977, 0x40ea696000000000, 0x412d118d80000000)],
];
const SCALAR_CI: &[&[(u64, u64, u64)]] = &[
    &[(133, 0x40eb6f7000000000, 0x4171441fd461e200)],
    &[(274, 0x40ec7a8700000000, 0x41616b2c80da4900)],
    &[(399, 0x40eba62000000000, 0x4156b40f445fae00)],
    &[(536, 0x40ebec3180000000, 0x4151021462e40000)],
];
const GROUPED_EXHAUSTED: &[&[(u64, u64, u64)]] = &[
    &[
        (60, 0x40d99e9800000000, 0x4165950d5a61e200),
        (54, 0x40d4e1b400000000, 0x41619d01fa54b4c0),
        (19, 0x40c0bd2800000000, 0x4151cfacc0e5a5a0),
    ],
    &[
        (129, 0x40da776400000000, 0x4155016244699480),
        (103, 0x40d4cf2600000000, 0x4151bc164d62a940),
        (42, 0x40c35d0800000000, 0x4143ba797a1dcee0),
    ],
    &[
        (189, 0x40da899eaaaaaaab, 0x414c1edef83bd700),
        (148, 0x40d3ad1c00000000, 0x41458f7b3462da00),
        (62, 0x40c22b0aaaaaaaab, 0x413734a075484780),
    ],
    &[
        (258, 0x40daaa2c00000000, 0x41445dd7fc3a2f00),
        (194, 0x40d3cf4a00000000, 0x4140087f03f17480),
        (84, 0x40c2bdda00000000, 0x4131a954cd32e900),
    ],
    &[
        (308, 0x40d950dc00000000, 0x413e715eb1f8fe00),
        (232, 0x40d2562400000000, 0x4136ead001b42400),
        (104, 0x40c234f000000000, 0x412a22ce554c4280),
    ],
    &[
        (366, 0x40d94c9000000000, 0x4138cb25300d5600),
        (279, 0x40d26b2b55555555, 0x41327cf199abf000),
        (123, 0x40c2575000000000, 0x412575edd1351700),
    ],
    &[
        (443, 0x40da04fe49249249, 0x4135111fa3801000),
        (314, 0x40d22322db6db6db, 0x412eb384c6533400),
        (142, 0x40c1eb0db6db6db7, 0x4121226167f2e800),
    ],
    &[
        (508, 0x40da372e80000000, 0x41320d5bad921e00),
        (359, 0x40d2240b00000000, 0x412a11eed1310200),
        (164, 0x40c2277600000000, 0x411d54b50503d800),
    ],
    &[
        (558, 0x40d95a3c00000001, 0x412e0e482ab69c00),
        (404, 0x40d2575000000000, 0x4126ba8306bc9c00),
        (187, 0x40c269f9c71c71c8, 0x4119590956f1e400),
    ],
    &[
        (621, 0x40d9762a00000000, 0x412a4bbb1627c400),
        (449, 0x40d21bf000000000, 0x41233ba6b2583c00),
        (208, 0x40c21b8c00000000, 0x41155830a8fd9900),
    ],
    &[
        (676, 0x40d941e8ba2e8ba3, 0x4126fdf16e5f6400),
        (495, 0x40d244505d1745d2, 0x412112ef2f167600),
        (228, 0x40c22d0dd1745d18, 0x4112aecad5a93800),
    ],
    &[
        (736, 0x40d97c16aaaaaaab, 0x4124b5065069c800),
        (533, 0x40d210d655555555, 0x411dc56882769400),
        (244, 0x40c1a446aaaaaaab, 0x410f830f8fa54800),
    ],
    &[
        (795, 0x40d97afc9d89d89e, 0x41226f29b9f2fc00),
        (575, 0x40d2043ac4ec4ec5, 0x411a565b60b96400),
        (267, 0x40c1ed3e27627628, 0x410c3754b001f600),
    ],
    &[
        (875, 0x40d9ebbe00000000, 0x4120cb18def7d800),
        (623, 0x40d23d5d24924924, 0x4117e29dd9ed2000),
        (286, 0x40c1d9c124924924, 0x4108d2e6f889e800),
    ],
    &[
        (935, 0x40d9ee0555555556, 0x411e308f8c005800),
        (655, 0x40d1e6d000000000, 0x4114faf2256bc000),
        (306, 0x40c1a42555555556, 0x4105a2a293d22800),
    ],
    &[
        (974, 0x40d9ee2000000000, 0x411c449080000000),
        (685, 0x40d217e000000000, 0x4113dfb680000000),
        (318, 0x40c1998000000000, 0x4103fda800000000),
    ],
    &[
        (974, 0x40d9ee2000000000, 0x411c449080000000),
        (685, 0x40d217e000000000, 0x4113dfb680000000),
        (318, 0x40c1998000000000, 0x4103fda800000000),
    ],
];
const GROUPED_CI: &[&[(u64, u64, u64)]] = &[
    &[
        (60, 0x40d99e9800000000, 0x4165950d5a61e200),
        (54, 0x40d4e1b400000000, 0x41619d01fa54b4c0),
        (19, 0x40c0bd2800000000, 0x4151cfacc0e5a5a0),
    ],
    &[
        (129, 0x40da776400000000, 0x4155016244699480),
        (103, 0x40d4cf2600000000, 0x4151bc164d62a940),
        (42, 0x40c35d0800000000, 0x4143ba797a1dcee0),
    ],
    &[
        (189, 0x40da899eaaaaaaab, 0x414c1edef83bd700),
        (148, 0x40d3ad1c00000000, 0x41458f7b3462da00),
        (62, 0x40c22b0aaaaaaaab, 0x413734a075484780),
    ],
    &[
        (258, 0x40daaa2c00000000, 0x41445dd7fc3a2f00),
        (194, 0x40d3cf4a00000000, 0x4140087f03f17480),
        (84, 0x40c2bdda00000000, 0x4131a954cd32e900),
    ],
    &[
        (308, 0x40d950dc00000000, 0x413e715eb1f8fe00),
        (232, 0x40d2562400000000, 0x4136ead001b42400),
        (104, 0x40c234f000000000, 0x412a22ce554c4280),
    ],
    &[
        (366, 0x40d94c9000000000, 0x4138cb25300d5600),
        (279, 0x40d26b2b55555555, 0x41327cf199abf000),
        (123, 0x40c2575000000000, 0x412575edd1351700),
    ],
    &[
        (443, 0x40da04fe49249249, 0x4135111fa3801000),
        (314, 0x40d22322db6db6db, 0x412eb384c6533400),
        (142, 0x40c1eb0db6db6db7, 0x4121226167f2e800),
    ],
    &[
        (508, 0x40da372e80000000, 0x41320d5bad921e00),
        (359, 0x40d2240b00000000, 0x412a11eed1310200),
        (164, 0x40c2277600000000, 0x411d54b50503d800),
    ],
];
