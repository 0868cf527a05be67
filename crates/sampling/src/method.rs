//! Sampling operators and their GUS translations.
//!
//! Each [`SamplingMethod`] can (a) draw a sample of row ids from a table and
//! (b) describe itself as a single-relation [`GusParams`] (the Figure 1
//! table of the paper), which is the entry point of the SOA rewriter.
//!
//! The `SYSTEM` method (block-level Bernoulli, mirroring the SQL standard's
//! implementation-defined `TABLESAMPLE SYSTEM`) is the reason lineage
//! granularity is configurable: tuples in one block live or die together, so
//! pair-inclusion probabilities depend on block co-residency — not
//! expressible over row lineage, but *exactly* Bernoulli over **block**
//! lineage. [`SamplingMethod::lineage_unit`] tells the executor which id to
//! report for tuples of that relation.
//!
//! `WITH REPLACEMENT` sampling is provided for baseline comparisons but is
//! **not** a GUS method (it produces duplicates; the paper's Section 9
//! discusses this limitation): asking for its GUS parameters is an error.

use std::collections::HashSet;
use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sa_core::GusParams;
use sa_storage::{RowId, Table};

use crate::error::SamplingError;
use crate::Result;

/// Which identifier the executor must report as lineage for a sampled
/// relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineageUnit {
    /// Per-row lineage (the default).
    Row,
    /// Per-block lineage (block-level sampling: the block is the sampling
    /// unit, so it is also the lineage unit).
    Block,
}

/// A uniform sampling operator over one base relation.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplingMethod {
    /// Tuple-level Bernoulli sampling with inclusion probability `p`
    /// (`TABLESAMPLE (p·100 PERCENT)`).
    Bernoulli {
        /// Inclusion probability.
        p: f64,
    },
    /// Fixed-size uniform sampling without replacement
    /// (`TABLESAMPLE (size ROWS)`).
    Wor {
        /// Number of rows to draw.
        size: u64,
    },
    /// Block-level Bernoulli sampling (`TABLESAMPLE SYSTEM (p·100 PERCENT)`):
    /// each block is kept with probability `p`, tuples ride along with their
    /// block.
    System {
        /// Block inclusion probability.
        p: f64,
    },
    /// Fixed-size uniform sampling **with** replacement. Provided for the
    /// ripple-join/online-aggregation baseline; *not* a GUS method.
    WithReplacement {
        /// Number of draws.
        size: u64,
    },
}

impl SamplingMethod {
    /// Validate the specification (probability ranges; sizes are checked
    /// against the table at sampling time).
    pub fn validate(&self) -> Result<()> {
        match self {
            SamplingMethod::Bernoulli { p } | SamplingMethod::System { p } => {
                if !(0.0..=1.0).contains(p) || !p.is_finite() {
                    return Err(SamplingError::InvalidSpec(format!(
                        "probability {p} not in [0,1]"
                    )));
                }
            }
            SamplingMethod::Wor { .. } | SamplingMethod::WithReplacement { .. } => {}
        }
        Ok(())
    }

    /// True if the method is analyzable as GUS.
    pub fn is_gus(&self) -> bool {
        !matches!(self, SamplingMethod::WithReplacement { .. })
    }

    /// The lineage granularity the executor must use for this relation.
    pub fn lineage_unit(&self) -> LineageUnit {
        match self {
            SamplingMethod::System { .. } => LineageUnit::Block,
            _ => LineageUnit::Row,
        }
    }

    /// The single-relation GUS parameters of this method applied to `table`,
    /// registered under relation name `relation` (Figure 1 of the paper,
    /// plus the block-lineage translation of `SYSTEM`).
    pub fn gus(&self, relation: &str, table: &Table) -> Result<GusParams> {
        self.validate()?;
        match self {
            SamplingMethod::Bernoulli { p } => Ok(GusParams::bernoulli(relation, *p)?),
            // Block-level Bernoulli is row-level Bernoulli over block ids.
            SamplingMethod::System { p } => Ok(GusParams::bernoulli(relation, *p)?),
            SamplingMethod::Wor { size } => {
                let population = table.row_count();
                if *size > population {
                    return Err(SamplingError::InvalidSpec(format!(
                        "WOR size {size} exceeds population {population} of `{relation}`"
                    )));
                }
                Ok(GusParams::wor(relation, *size, population)?)
            }
            SamplingMethod::WithReplacement { .. } => Err(SamplingError::NotGus {
                method: self.to_string(),
            }),
        }
    }

    /// Draw a sample of row ids from `table` with the supplied RNG. The
    /// result may contain duplicates only for `WithReplacement`; it is in
    /// ascending order for the other methods.
    pub fn sample(&self, table: &Table, rng: &mut StdRng) -> Result<Vec<RowId>> {
        match self {
            SamplingMethod::System { p } => {
                self.validate()?;
                let mut out = Vec::new();
                for block in 0..table.block_count() {
                    if rng.random::<f64>() < *p {
                        let (start, end) = table.block_range(block);
                        out.extend(start..end);
                    }
                }
                Ok(out)
            }
            _ => self.sample_positions(table.row_count(), rng),
        }
    }

    /// Draw the positions `0..n` of an input sequence this tuple-level
    /// method keeps, with the supplied RNG: one coin per position for
    /// Bernoulli, Floyd's algorithm for WOR (ascending), and `size` uniform
    /// draws in draw order for with-replacement. The streaming executor
    /// materializes a blocking sampler's input and keeps exactly these
    /// positions, so a table sample and a materialized-input sample are the
    /// same draw. `SYSTEM` needs block structure and is rejected.
    pub fn sample_positions(&self, n: u64, rng: &mut StdRng) -> Result<Vec<u64>> {
        self.validate()?;
        Ok(match self {
            SamplingMethod::Bernoulli { p } => {
                (0..n).filter(|_| rng.random::<f64>() < *p).collect()
            }
            SamplingMethod::Wor { size } => {
                if *size > n {
                    return Err(SamplingError::InvalidSpec(format!(
                        "WOR size {size} exceeds population {n}"
                    )));
                }
                let mut ids = floyd_sample(n, *size, rng);
                ids.sort_unstable();
                ids
            }
            SamplingMethod::WithReplacement { size } => {
                if n == 0 {
                    return Err(SamplingError::InvalidSpec(
                        "cannot draw with replacement from an empty input".into(),
                    ));
                }
                (0..*size).map(|_| rng.random_range(0..n)).collect()
            }
            SamplingMethod::System { .. } => {
                return Err(SamplingError::InvalidSpec(
                    "SYSTEM sampling draws blocks, not positions".into(),
                ))
            }
        })
    }

    /// Deterministic variant: draw with a seed.
    pub fn sample_seeded(&self, table: &Table, seed: u64) -> Result<Vec<RowId>> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.sample(table, &mut rng)
    }
}

impl fmt::Display for SamplingMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingMethod::Bernoulli { p } => write!(f, "B{p}"),
            SamplingMethod::Wor { size } => write!(f, "WOR{size}"),
            SamplingMethod::System { p } => write!(f, "SYSTEM{p}"),
            SamplingMethod::WithReplacement { size } => write!(f, "WR{size}"),
        }
    }
}

/// Robert Floyd's algorithm: `k` distinct uniform draws from `0..n` in
/// `O(k)` expected time and `O(k)` space.
fn floyd_sample(n: u64, k: u64, rng: &mut StdRng) -> Vec<RowId> {
    let mut chosen: HashSet<u64> = HashSet::with_capacity(k as usize);
    for j in n - k..n {
        let t = rng.random_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn table(rows: u64, block_rows: usize) -> Table {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        let mut b = TableBuilder::new("t", schema).with_block_rows(block_rows);
        for i in 0..rows {
            b.push_row(&[Value::Int(i as i64)]).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn bernoulli_rate() {
        let t = table(20_000, 256);
        let ids = SamplingMethod::Bernoulli { p: 0.25 }
            .sample_seeded(&t, 1)
            .unwrap();
        let rate = ids.len() as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate = {rate}");
        // Distinct and in order.
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn wor_exact_size_distinct() {
        let t = table(1000, 256);
        let ids = SamplingMethod::Wor { size: 137 }
            .sample_seeded(&t, 2)
            .unwrap();
        assert_eq!(ids.len(), 137);
        assert!(ids.windows(2).all(|w| w[0] < w[1])); // distinct + sorted
        assert!(ids.iter().all(|&i| i < 1000));
    }

    #[test]
    fn wor_full_population() {
        let t = table(50, 256);
        let ids = SamplingMethod::Wor { size: 50 }
            .sample_seeded(&t, 3)
            .unwrap();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn wor_oversize_rejected() {
        let t = table(10, 256);
        assert!(SamplingMethod::Wor { size: 11 }
            .sample_seeded(&t, 0)
            .is_err());
        assert!(SamplingMethod::Wor { size: 11 }.gus("t", &t).is_err());
    }

    #[test]
    fn wor_is_uniform_over_rows() {
        // Each row should appear in roughly trials·k/n samples.
        let t = table(20, 256);
        let mut counts = [0u32; 20];
        for seed in 0..2000 {
            for id in (SamplingMethod::Wor { size: 5 })
                .sample_seeded(&t, seed)
                .unwrap()
            {
                counts[id as usize] += 1;
            }
        }
        // Expected 500 each; allow ±20%.
        for (i, &c) in counts.iter().enumerate() {
            assert!((400..600).contains(&c), "row {i} drawn {c} times");
        }
    }

    #[test]
    fn system_keeps_whole_blocks() {
        let t = table(1000, 100); // 10 blocks
        let ids = SamplingMethod::System { p: 0.5 }
            .sample_seeded(&t, 4)
            .unwrap();
        // Every kept block must be complete.
        let mut blocks: Vec<u64> = ids.iter().map(|&i| i / 100).collect();
        blocks.dedup();
        for b in &blocks {
            let members = ids.iter().filter(|&&i| i / 100 == *b).count();
            assert_eq!(members, 100, "block {b} incomplete");
        }
    }

    #[test]
    fn system_lineage_unit_is_block() {
        assert_eq!(
            SamplingMethod::System { p: 0.1 }.lineage_unit(),
            LineageUnit::Block
        );
        assert_eq!(
            SamplingMethod::Bernoulli { p: 0.1 }.lineage_unit(),
            LineageUnit::Row
        );
    }

    #[test]
    fn with_replacement_draws_exactly_size_with_duplicates_possible() {
        let t = table(10, 256);
        let ids = SamplingMethod::WithReplacement { size: 100 }
            .sample_seeded(&t, 5)
            .unwrap();
        assert_eq!(ids.len(), 100);
        assert!(ids.iter().all(|&i| i < 10));
        // With 100 draws from 10 rows duplicates are certain.
        let distinct: HashSet<_> = ids.iter().collect();
        assert!(distinct.len() < 100);
    }

    #[test]
    fn with_replacement_is_not_gus() {
        let t = table(10, 256);
        assert!(!SamplingMethod::WithReplacement { size: 5 }.is_gus());
        assert!(matches!(
            SamplingMethod::WithReplacement { size: 5 }.gus("t", &t),
            Err(SamplingError::NotGus { .. })
        ));
    }

    #[test]
    fn gus_translations_match_figure1() {
        let t = table(150, 256);
        let g = SamplingMethod::Bernoulli { p: 0.1 }.gus("l", &t).unwrap();
        assert!((g.a() - 0.1).abs() < 1e-12);
        assert!((g.b_named::<&str>(&[]).unwrap() - 0.01).abs() < 1e-12);

        let g = SamplingMethod::Wor { size: 15 }.gus("o", &t).unwrap();
        assert!((g.a() - 0.1).abs() < 1e-12);
        let expect = 15.0 * 14.0 / (150.0 * 149.0);
        assert!((g.b_named::<&str>(&[]).unwrap() - expect).abs() < 1e-12);

        // SYSTEM is Bernoulli over blocks.
        let g = SamplingMethod::System { p: 0.2 }.gus("s", &t).unwrap();
        assert!((g.a() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn invalid_probabilities_rejected() {
        let t = table(10, 256);
        for m in [
            SamplingMethod::Bernoulli { p: -0.1 },
            SamplingMethod::Bernoulli { p: 1.1 },
            SamplingMethod::System { p: f64::NAN },
        ] {
            assert!(m.validate().is_err());
            assert!(m.sample_seeded(&t, 0).is_err());
        }
    }

    #[test]
    fn empty_table_edge_cases() {
        let t = table(0, 256);
        assert!(SamplingMethod::Bernoulli { p: 0.5 }
            .sample_seeded(&t, 0)
            .unwrap()
            .is_empty());
        assert!(SamplingMethod::Wor { size: 0 }
            .sample_seeded(&t, 0)
            .unwrap()
            .is_empty());
        assert!(SamplingMethod::WithReplacement { size: 1 }
            .sample_seeded(&t, 0)
            .is_err());
    }

    #[test]
    fn display_renderings() {
        assert_eq!(SamplingMethod::Bernoulli { p: 0.1 }.to_string(), "B0.1");
        assert_eq!(SamplingMethod::Wor { size: 1000 }.to_string(), "WOR1000");
        assert_eq!(SamplingMethod::System { p: 0.5 }.to_string(), "SYSTEM0.5");
        assert_eq!(
            SamplingMethod::WithReplacement { size: 7 }.to_string(),
            "WR7"
        );
    }

    #[test]
    fn seeded_sampling_is_reproducible() {
        let t = table(500, 64);
        for m in [
            SamplingMethod::Bernoulli { p: 0.3 },
            SamplingMethod::Wor { size: 77 },
            SamplingMethod::System { p: 0.4 },
        ] {
            assert_eq!(
                m.sample_seeded(&t, 99).unwrap(),
                m.sample_seeded(&t, 99).unwrap()
            );
        }
    }
}
