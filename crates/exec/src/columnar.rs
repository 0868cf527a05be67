//! The columnar chunk: a batch of result tuples plus per-relation lineage.
//!
//! [`ColumnarChunk`] is what the streaming executor's operators exchange: a
//! [`ColumnarBatch`] of typed column vectors (see [`sa_storage::chunk`])
//! paired with one lineage column (`Vec<u64>`) per base relation of the
//! producing subtree. Operators filter/gather whole chunks; per-row
//! [`Row`]s are materialized only at the row-level API boundary
//! ([`ColumnarChunk::to_rows`], which backs [`crate::ChunkStream::next_chunk`]),
//! which the test suites use as their reference view of a stream.

use sa_storage::{ColumnarBatch, Value};

/// One result row: its column values and its lineage (one id per base
/// relation of the subtree that produced it, in scan order).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Column values, aligned with the producing node's schema.
    pub values: Vec<Value>,
    /// Lineage ids, aligned with the subtree's base relations.
    pub lineage: Vec<u64>,
}

/// A chunk of streamed result tuples in columnar form: the value batch and
/// one lineage id column per base relation (in scan order).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarChunk {
    /// Column values, aligned with the producing node's schema.
    pub batch: ColumnarBatch,
    /// Lineage id columns, one per base relation, each of `rows()` length.
    pub lineage: Vec<Vec<u64>>,
}

impl ColumnarChunk {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.batch.rows()
    }

    /// True when the chunk carries no rows (the stream-exhausted signal).
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Keep the rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> ColumnarChunk {
        ColumnarChunk {
            batch: self.batch.filter(mask),
            lineage: self
                .lineage
                .iter()
                .map(|l| {
                    l.iter()
                        .zip(mask)
                        .filter(|(_, &m)| m)
                        .map(|(&x, _)| x)
                        .collect()
                })
                .collect(),
        }
    }

    /// Gather rows by index (repetition allowed).
    pub fn take(&self, indices: &[u32]) -> ColumnarChunk {
        ColumnarChunk {
            batch: self.batch.take(indices),
            lineage: self
                .lineage
                .iter()
                .map(|l| indices.iter().map(|&i| l[i as usize]).collect())
                .collect(),
        }
    }

    /// The contiguous sub-chunk `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> ColumnarChunk {
        ColumnarChunk {
            batch: self.batch.slice(start, len),
            lineage: self
                .lineage
                .iter()
                .map(|l| l[start..start + len].to_vec())
                .collect(),
        }
    }

    /// Materialize the row-level view (the [`crate::ChunkStream::next_chunk`]
    /// adapter).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.rows())
            .map(|i| Row {
                values: self.batch.row_values(i),
                lineage: self.lineage.iter().map(|l| l[i]).collect(),
            })
            .collect()
    }

    /// Vertical concatenation of chunks from one stream, in order (a
    /// materialized join build side or blocking-sampler input). `parts`
    /// must not be empty.
    pub fn concat(mut parts: Vec<ColumnarChunk>) -> ColumnarChunk {
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        let batches: Vec<&ColumnarBatch> = parts.iter().map(|p| &p.batch).collect();
        let lineage = (0..parts[0].lineage.len())
            .map(|rel| {
                parts
                    .iter()
                    .flat_map(|p| p.lineage[rel].iter().copied())
                    .collect()
            })
            .collect();
        ColumnarChunk {
            batch: ColumnarBatch::concat(&batches),
            lineage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_storage::{ColumnData, ColumnVec};

    fn chunk() -> ColumnarChunk {
        let k = ColumnVec::new(ColumnData::Int((0..5).collect()));
        let v = ColumnVec::new(ColumnData::Float((0..5).map(|i| i as f64 * 0.5).collect()));
        ColumnarChunk {
            batch: ColumnarBatch::new(vec![k, v], 5),
            lineage: vec![(0..5).collect(), (100..105).collect()],
        }
    }

    #[test]
    fn row_view() {
        let rows = chunk().to_rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[3].values, vec![Value::Int(3), Value::Float(1.5)]);
        assert_eq!(rows[3].lineage, vec![3, 103]);
    }

    #[test]
    fn filter_take_slice_carry_lineage() {
        let c = chunk();
        let f = c.filter(&[true, false, false, true, true]);
        assert_eq!(f.rows(), 3);
        assert_eq!(f.lineage[0], vec![0, 3, 4]);
        assert_eq!(f.lineage[1], vec![100, 103, 104]);
        let t = c.take(&[4, 0]);
        assert_eq!(t.lineage[0], vec![4, 0]);
        let s = c.slice(1, 2);
        assert_eq!(s.lineage[0], vec![1, 2]);
        assert_eq!(s.to_rows()[0].values[0], Value::Int(1));
    }

    #[test]
    fn concat_restores_the_sliced_chunk() {
        let c = chunk();
        let parts = vec![c.slice(0, 2), c.slice(2, 0), c.slice(2, 3)];
        assert_eq!(ColumnarChunk::concat(parts), c);
    }
}
