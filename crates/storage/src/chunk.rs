//! Columnar batches: the unit of vectorized execution.
//!
//! A [`ColumnarBatch`] is a horizontal slice of a result set stored as
//! typed column vectors — `i64`/`f64`/`bool` values and dictionary-coded
//! strings — with an optional validity (non-null) bitmap per column. The
//! streaming executor gathers batches straight from [`crate::Table`]
//! columns and every operator (sample, filter, project, join) transforms
//! whole batches, so no per-row `Vec<Value>` is ever allocated on the hot
//! path; [`crate::Value`]s are materialized only at row-level API
//! boundaries ([`ColumnarBatch::row_values`]).
//!
//! String columns stay dictionary-coded end to end: a batch shares its
//! source column's dictionary behind an `Arc` and carries only the `u32`
//! codes, so gathering, filtering and joining strings moves 4-byte codes,
//! not refcounted pointers.

use std::sync::Arc;

use crate::column::Column;
use crate::schema::DataType;
use crate::value::Value;

/// A shared string dictionary: code → interned string.
pub type StrDict = Arc<Vec<Arc<str>>>;

/// The typed values of one batch column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Booleans.
    Bool(Vec<bool>),
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Dictionary-coded strings: `dict[codes[row]]`.
    Str {
        /// The shared dictionary (typically the source column's).
        dict: StrDict,
        /// Per-row dictionary codes.
        codes: Vec<u32>,
    },
}

/// One column of a [`ColumnarBatch`]: typed data plus an optional validity
/// vector (`None` = no nulls; `Some(v)` with `v[row] = true` = present).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnVec {
    /// The typed values (arbitrary where invalid).
    pub data: ColumnData,
    /// Validity bitmap; `None` means every row is valid.
    pub validity: Option<Vec<bool>>,
}

impl ColumnVec {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's [`DataType`].
    pub fn data_type(&self) -> DataType {
        match &self.data {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str { .. } => DataType::Str,
        }
    }

    /// Is the value at `row` non-null?
    #[inline]
    pub fn is_valid(&self, row: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v[row])
    }

    /// Materialize the [`Value`] at `row`.
    pub fn value(&self, row: usize) -> Value {
        if !self.is_valid(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Bool(v) => Value::Bool(v[row]),
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Str { dict, codes } => Value::Str(dict[codes[row] as usize].clone()),
        }
    }

    /// An all-valid column built from a whole data vector.
    pub fn new(data: ColumnData) -> ColumnVec {
        ColumnVec {
            data,
            validity: None,
        }
    }

    /// Gather the half-open row range `[start, end)` of a storage column.
    /// Strings share the source dictionary; only codes are copied.
    pub fn from_column_range(col: &Column, start: usize, end: usize) -> ColumnVec {
        let validity = col.validity_range(start, end);
        let data = match col {
            Column::Bool { data, .. } => ColumnData::Bool(data[start..end].to_vec()),
            Column::Int { data, .. } => ColumnData::Int(data[start..end].to_vec()),
            Column::Float { data, .. } => ColumnData::Float(data[start..end].to_vec()),
            Column::Str { dict, codes, .. } => ColumnData::Str {
                dict: dict.clone(),
                codes: codes[start..end].to_vec(),
            },
        };
        ColumnVec { data, validity }
    }

    /// Gather selected `rows` (ascending, in bounds) of a storage column.
    /// Validity is `None` when every selected row is valid, matching
    /// [`ColumnVec::from_column_range`]'s all-valid normalization — the
    /// mapped backend's row gather mirrors this exactly.
    pub fn from_column_rows(col: &Column, rows: &[usize]) -> ColumnVec {
        let validity = col.validity_rows(rows);
        let data = match col {
            Column::Bool { data, .. } => ColumnData::Bool(rows.iter().map(|&i| data[i]).collect()),
            Column::Int { data, .. } => ColumnData::Int(rows.iter().map(|&i| data[i]).collect()),
            Column::Float { data, .. } => {
                ColumnData::Float(rows.iter().map(|&i| data[i]).collect())
            }
            Column::Str { dict, codes, .. } => ColumnData::Str {
                dict: dict.clone(),
                codes: rows.iter().map(|&i| codes[i]).collect(),
            },
        };
        ColumnVec { data, validity }
    }

    /// Keep the rows where `mask` is true (`mask.len() == self.len()`).
    pub fn filter(&self, mask: &[bool]) -> ColumnVec {
        debug_assert_eq!(mask.len(), self.len());
        let keep = mask.iter().filter(|&&m| m).count();
        let validity = self.validity.as_ref().map(|v| {
            let mut out = Vec::with_capacity(keep);
            out.extend(v.iter().zip(mask).filter(|(_, &m)| m).map(|(&b, _)| b));
            out
        });
        let data = match &self.data {
            ColumnData::Bool(v) => ColumnData::Bool(filter_vec(v, mask, keep)),
            ColumnData::Int(v) => ColumnData::Int(filter_vec(v, mask, keep)),
            ColumnData::Float(v) => ColumnData::Float(filter_vec(v, mask, keep)),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: dict.clone(),
                codes: filter_vec(codes, mask, keep),
            },
        };
        ColumnVec { data, validity }
    }

    /// Gather rows by index, with repetition allowed (join output assembly).
    pub fn take(&self, indices: &[u32]) -> ColumnVec {
        let validity = self
            .validity
            .as_ref()
            .map(|v| indices.iter().map(|&i| v[i as usize]).collect());
        let data = match &self.data {
            ColumnData::Bool(v) => ColumnData::Bool(take_vec(v, indices)),
            ColumnData::Int(v) => ColumnData::Int(take_vec(v, indices)),
            ColumnData::Float(v) => ColumnData::Float(take_vec(v, indices)),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: dict.clone(),
                codes: take_vec(codes, indices),
            },
        };
        ColumnVec { data, validity }
    }

    /// The contiguous sub-column `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> ColumnVec {
        let end = start + len;
        let validity = self.validity.as_ref().map(|v| v[start..end].to_vec());
        let data = match &self.data {
            ColumnData::Bool(v) => ColumnData::Bool(v[start..end].to_vec()),
            ColumnData::Int(v) => ColumnData::Int(v[start..end].to_vec()),
            ColumnData::Float(v) => ColumnData::Float(v[start..end].to_vec()),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: dict.clone(),
                codes: codes[start..end].to_vec(),
            },
        };
        ColumnVec { data, validity }
    }

    /// Vertical concatenation of same-typed columns (the chunks of one
    /// stream), in order. String parts sharing the first part's dictionary
    /// keep their codes; a part with another dictionary has its entries
    /// appended and its codes offset.
    pub fn concat(parts: &[&ColumnVec]) -> ColumnVec {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let validity = parts.iter().any(|p| p.validity.is_some()).then(|| {
            let mut v = Vec::with_capacity(len);
            for p in parts {
                match &p.validity {
                    Some(pv) => v.extend_from_slice(pv),
                    None => v.resize(v.len() + p.len(), true),
                }
            }
            v
        });
        let data = match &parts[0].data {
            ColumnData::Bool(_) => ColumnData::Bool(concat_vecs(parts, |d| match d {
                ColumnData::Bool(v) => v,
                _ => unreachable!("same-typed parts"),
            })),
            ColumnData::Int(_) => ColumnData::Int(concat_vecs(parts, |d| match d {
                ColumnData::Int(v) => v,
                _ => unreachable!("same-typed parts"),
            })),
            ColumnData::Float(_) => ColumnData::Float(concat_vecs(parts, |d| match d {
                ColumnData::Float(v) => v,
                _ => unreachable!("same-typed parts"),
            })),
            ColumnData::Str { dict: first, .. } => {
                let mut merged: Option<Vec<Arc<str>>> = None;
                let mut codes = Vec::with_capacity(len);
                for p in parts {
                    let ColumnData::Str { dict, codes: pc } = &p.data else {
                        unreachable!("same-typed parts");
                    };
                    if Arc::ptr_eq(dict, first) {
                        codes.extend_from_slice(pc);
                    } else {
                        let m = merged.get_or_insert_with(|| first.as_ref().clone());
                        let offset = m.len() as u32;
                        m.extend(dict.iter().cloned());
                        codes.extend(pc.iter().map(|c| c + offset));
                    }
                }
                ColumnData::Str {
                    dict: merged.map_or_else(|| first.clone(), Arc::new),
                    codes,
                }
            }
        };
        ColumnVec { data, validity }
    }

    /// Value equality between a cell of this column and a cell of `other`,
    /// under the engine's [`Value::total_cmp`] semantics (numeric values
    /// compare across `Int`/`Float`; `NaN` equals itself, as in `Value`'s
    /// total order; `NULL` equals nothing, not even itself, matching SQL
    /// join-key behaviour).
    pub fn cell_eq(&self, row: usize, other: &ColumnVec, other_row: usize) -> bool {
        // Total-order float equality: NaN == NaN (IEEE `==` would break
        // agreement with Value::eq and with hash_cell, which hashes every
        // NaN identically).
        fn f64_eq(a: f64, b: f64) -> bool {
            a == b || (a.is_nan() && b.is_nan())
        }
        if !self.is_valid(row) || !other.is_valid(other_row) {
            return false;
        }
        match (&self.data, &other.data) {
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[row] == b[other_row],
            (ColumnData::Int(a), ColumnData::Int(b)) => a[row] == b[other_row],
            (ColumnData::Float(a), ColumnData::Float(b)) => f64_eq(a[row], b[other_row]),
            (ColumnData::Int(a), ColumnData::Float(b)) => a[row] as f64 == b[other_row],
            (ColumnData::Float(a), ColumnData::Int(b)) => a[row] == b[other_row] as f64,
            (
                ColumnData::Str {
                    dict: da,
                    codes: ca,
                },
                ColumnData::Str {
                    dict: db,
                    codes: cb,
                },
            ) => {
                // Same dictionary: codes decide. Different dictionaries:
                // compare the interned strings.
                if Arc::ptr_eq(da, db) {
                    ca[row] == cb[other_row]
                } else {
                    da[ca[row] as usize] == db[cb[other_row] as usize]
                }
            }
            _ => false,
        }
    }

    /// Feed the cell at `row` into `hasher` exactly as [`Value`]'s `Hash`
    /// implementation would, without materializing the `Value` — numeric
    /// values that compare equal across `Int`/`Float` hash identically, so
    /// these hashes are safe as join/group fingerprints.
    pub fn hash_cell<H: std::hash::Hasher>(&self, row: usize, state: &mut H) {
        use std::hash::Hash;
        if !self.is_valid(row) {
            state.write_u8(0);
            return;
        }
        match &self.data {
            ColumnData::Bool(v) => {
                state.write_u8(1);
                v[row].hash(state);
            }
            ColumnData::Int(v) => {
                let i = v[row];
                let f = i as f64;
                if f as i64 == i {
                    state.write_u8(2);
                    state.write_u64(crate::value::norm_f64_bits(f));
                } else {
                    state.write_u8(3);
                    state.write_i64(i);
                }
            }
            ColumnData::Float(v) => {
                let f = v[row];
                if f.is_nan() {
                    state.write_u8(4);
                } else {
                    state.write_u8(2);
                    state.write_u64(crate::value::norm_f64_bits(f));
                }
            }
            ColumnData::Str { dict, codes } => {
                state.write_u8(5);
                dict[codes[row] as usize].hash(state);
            }
        }
    }
}

fn filter_vec<T: Copy>(v: &[T], mask: &[bool], keep: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(keep);
    out.extend(v.iter().zip(mask).filter(|(_, &m)| m).map(|(&x, _)| x));
    out
}

fn take_vec<T: Copy>(v: &[T], indices: &[u32]) -> Vec<T> {
    indices.iter().map(|&i| v[i as usize]).collect()
}

fn concat_vecs<T: Copy>(parts: &[&ColumnVec], data: impl Fn(&ColumnData) -> &Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for p in parts {
        out.extend_from_slice(data(&p.data));
    }
    out
}

/// A batch of rows in columnar form: equal-length [`ColumnVec`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBatch {
    columns: Vec<ColumnVec>,
    rows: usize,
}

impl ColumnarBatch {
    /// A batch from equal-length columns. `rows` disambiguates the zero-
    /// column case (an aggregate-only projection still has a row count).
    pub fn new(columns: Vec<ColumnVec>, rows: usize) -> ColumnarBatch {
        for c in &columns {
            assert_eq!(c.len(), rows, "ragged batch column");
            if let Some(v) = &c.validity {
                assert_eq!(v.len(), rows, "ragged validity");
            }
        }
        ColumnarBatch { columns, rows }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The columns.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.columns
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> &ColumnVec {
        &self.columns[idx]
    }

    /// Materialize one row as values (the row-level API bridge).
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Keep the rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> ColumnarBatch {
        let rows = mask.iter().filter(|&&m| m).count();
        ColumnarBatch {
            columns: self.columns.iter().map(|c| c.filter(mask)).collect(),
            rows,
        }
    }

    /// Gather rows by index (repetition allowed).
    pub fn take(&self, indices: &[u32]) -> ColumnarBatch {
        ColumnarBatch {
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            rows: indices.len(),
        }
    }

    /// The contiguous sub-batch `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> ColumnarBatch {
        ColumnarBatch {
            columns: self.columns.iter().map(|c| c.slice(start, len)).collect(),
            rows: len,
        }
    }

    /// The batch restricted to the columns at `positions`, in that order
    /// (row count unchanged; a shared-scan cursor uses this to carve its
    /// pruned column set out of a hub's wider bus chunks).
    pub fn select_columns(&self, positions: &[usize]) -> ColumnarBatch {
        ColumnarBatch {
            columns: positions.iter().map(|&p| self.columns[p].clone()).collect(),
            rows: self.rows,
        }
    }

    /// Vertical concatenation of batches with the same column layout, in
    /// order (see [`ColumnVec::concat`]). `parts` must not be empty.
    pub fn concat(parts: &[&ColumnarBatch]) -> ColumnarBatch {
        let rows = parts.iter().map(|p| p.rows).sum();
        let columns = (0..parts[0].columns.len())
            .map(|c| {
                let col: Vec<&ColumnVec> = parts.iter().map(|p| &p.columns[c]).collect();
                ColumnVec::concat(&col)
            })
            .collect();
        ColumnarBatch::new(columns, rows)
    }

    /// Horizontal concatenation (join output: probe columns ++ build
    /// columns). Both batches must have the same row count.
    pub fn concat_columns(mut self, right: ColumnarBatch) -> ColumnarBatch {
        assert_eq!(self.rows, right.rows, "horizontal concat of ragged batches");
        self.columns.extend(right.columns);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;

    fn str_column(vals: &[Option<&str>]) -> Column {
        let mut b = ColumnBuilder::new("s", DataType::Str);
        for v in vals {
            match v {
                Some(s) => b.push_str(s).unwrap(),
                None => b.push(Value::Null).unwrap(),
            }
        }
        b.finish()
    }

    #[test]
    fn concat_merges_validity_and_dictionaries() {
        let a = ColumnVec::from_column_range(&str_column(&[Some("x"), None]), 0, 2);
        let b = ColumnVec::from_column_range(&str_column(&[Some("y"), Some("x")]), 0, 2);
        let ints = |v: Vec<i64>| ColumnVec::new(ColumnData::Int(v));
        let cat = ColumnVec::concat(&[&a, &b, &a.slice(0, 1)]);
        let got: Vec<Value> = (0..cat.len()).map(|i| cat.value(i)).collect();
        let want = ["x", "", "y", "x", "x"].map(|s| {
            if s.is_empty() {
                Value::Null
            } else {
                Value::str(s)
            }
        });
        assert_eq!(got, want);
        let cat = ColumnVec::concat(&[&ints(vec![1, 2]), &ints(vec![3])]);
        assert_eq!((cat.len(), cat.validity), (3, None));
    }

    #[test]
    fn dictionary_round_trip_through_batches() {
        // Storage dict-codes repeated strings; a gathered batch shares the
        // dictionary and every transformation (filter, take, slice)
        // round-trips back to the original values.
        let col = str_column(&[Some("ny"), Some("sf"), None, Some("ny"), Some("ny")]);
        let Column::Str { dict, codes, .. } = &col else {
            panic!("expected dict-coded str column");
        };
        assert!(dict.len() <= 3, "repeats must share codes: {dict:?}");
        assert_eq!(codes.len(), 5);
        assert_eq!(codes[0], codes[3]);
        let cv = ColumnVec::from_column_range(&col, 0, 5);
        if let ColumnData::Str { dict: d2, .. } = &cv.data {
            assert!(Arc::ptr_eq(dict, d2), "batch must share the dictionary");
        }
        let expect = [
            Value::str("ny"),
            Value::str("sf"),
            Value::Null,
            Value::str("ny"),
            Value::str("ny"),
        ];
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(cv.value(i), *e);
        }
        let filtered = cv.filter(&[true, false, true, false, true]);
        assert_eq!(filtered.value(0), Value::str("ny"));
        assert_eq!(filtered.value(1), Value::Null);
        assert_eq!(filtered.value(2), Value::str("ny"));
        let taken = cv.take(&[4, 4, 1]);
        assert_eq!(taken.value(0), Value::str("ny"));
        assert_eq!(taken.value(2), Value::str("sf"));
        let sliced = cv.slice(1, 2);
        assert_eq!(sliced.value(0), Value::str("sf"));
        assert_eq!(sliced.value(1), Value::Null);
    }

    #[test]
    fn cell_eq_and_hash_cross_type_numeric() {
        use std::collections::hash_map::DefaultHasher;
        let a = ColumnVec::new(ColumnData::Int(vec![3, 1 << 60]));
        let b = ColumnVec::new(ColumnData::Float(vec![3.0, 7.5]));
        assert!(a.cell_eq(0, &b, 0));
        assert!(!a.cell_eq(1, &b, 1));
        let hash_of = |c: &ColumnVec, row: usize| {
            let mut h = DefaultHasher::new();
            c.hash_cell(row, &mut h);
            std::hash::Hasher::finish(&h)
        };
        // Int 3 and Float 3.0 are equal, so their cell hashes must agree
        // with each other and with Value's own Hash.
        assert_eq!(hash_of(&a, 0), hash_of(&b, 0));
        let value_hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            std::hash::Hash::hash(v, &mut h);
            std::hash::Hasher::finish(&h)
        };
        assert_eq!(hash_of(&a, 0), value_hash(&Value::Int(3)));
        assert_eq!(hash_of(&b, 1), value_hash(&Value::Float(7.5)));
        assert_eq!(hash_of(&a, 1), value_hash(&Value::Int(1 << 60)));
    }

    #[test]
    fn nan_cells_equal_like_value_does() {
        // Value::total_cmp says NaN == NaN (and hash_cell hashes every NaN
        // identically), so cell_eq must agree — a NaN join key matches a
        // NaN build key exactly as the row executor's Value-keyed map does.
        let a = ColumnVec::new(ColumnData::Float(vec![f64::NAN, 0.0, 1.0]));
        assert!(a.cell_eq(0, &a, 0));
        assert!(!a.cell_eq(0, &a, 2));
        // -0.0 == 0.0 under total_cmp too.
        let b = ColumnVec::new(ColumnData::Float(vec![-0.0]));
        assert!(a.cell_eq(1, &b, 0));
        // Int never equals NaN.
        let i = ColumnVec::new(ColumnData::Int(vec![0]));
        assert!(!i.cell_eq(0, &a, 0));
    }

    #[test]
    fn null_cells_never_equal() {
        let a = ColumnVec {
            data: ColumnData::Int(vec![0]),
            validity: Some(vec![false]),
        };
        assert!(!a.cell_eq(0, &a, 0), "NULL join keys must not match");
    }

    #[test]
    fn batch_ops() {
        let b = ColumnarBatch::new(
            vec![
                ColumnVec::new(ColumnData::Int(vec![1, 2, 3])),
                ColumnVec::new(ColumnData::Float(vec![0.1, 0.2, 0.3])),
            ],
            3,
        );
        assert_eq!(b.rows(), 3);
        assert_eq!(b.row_values(1), vec![Value::Int(2), Value::Float(0.2)]);
        let f = b.filter(&[true, false, true]);
        assert_eq!(f.rows(), 2);
        assert_eq!(f.row_values(1), vec![Value::Int(3), Value::Float(0.3)]);
        let t = b.take(&[2, 0, 2]);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.row_values(0)[0], Value::Int(3));
        let s = b.slice(1, 2);
        assert_eq!(s.row_values(0)[0], Value::Int(2));
        let wide = b.clone().concat_columns(b.clone());
        assert_eq!(wide.columns().len(), 4);
        assert_eq!(wide.rows(), 3);
    }
}
