//! Chunked, pull-based plan execution — the one executor.
//!
//! [`open_stream`] compiles a (non-aggregate) plan into a small
//! Volcano-style operator tree that yields result tuples a chunk at a time,
//! with full per-base-relation lineage (Section 6.2 of the paper: the SBox
//! needs only lineage ids and aggregate values). Online aggregation pulls
//! it chunk by chunk and may stop early; the one-shot batch estimator and
//! the exact answers ([`crate::exact_query`]) drain the same stream to the
//! end.
//!
//! ## Columnar batches
//!
//! Operators exchange [`ColumnarChunk`]s — typed column vectors gathered
//! straight from `sa-storage` columns plus per-relation lineage columns —
//! and evaluate filters/projections through `sa-expr`'s *compiled*
//! expressions ([`sa_expr::compile()`]): type dispatch happens once at open,
//! per-chunk work is tight loops over `i64`/`f64`/`bool`/dictionary-code
//! slices, and no per-row `Vec<Value>` is allocated on the hot path. A
//! `Filter` directly under a `Project` fuses into one operator that gathers
//! only the columns the projection reads. Joins key their hash tables by a
//! 64-bit fingerprint of the equi-key cells (with a stored-key equality
//! check on probe, so a fingerprint collision can never produce a wrong
//! join). [`ChunkStream::next_batch`] exposes the columnar chunks;
//! [`ChunkStream::next_chunk`] is a thin adapter that materializes
//! [`Row`]s for row-at-a-time consumers.
//!
//! Streaming vs blocking operators:
//!
//! * scans, Bernoulli/`SYSTEM` samples, filters and projections stream;
//! * a join materializes its **build** (right) side at open and streams the
//!   probe side through it — the classic streaming hash join;
//! * fixed-size samplers (`WOR`, with-replacement) are blocking by nature
//!   (they must see their whole input's cardinality), so their input is
//!   materialized at open, the kept positions are drawn by
//!   [`SamplingMethod::sample_positions`], and the sample is drained in
//!   chunks.
//!
//! A materialized side is itself a drained one-part sub-stream: the same
//! operators, pushdown and compiled expressions, in physical scan order.
//!
//! Randomness: every stochastic operator draws its own RNG seed from a
//! master RNG seeded with [`crate::ExecOptions::seed`] during `open`, in
//! plan traversal order — and per-row samplers draw **one coin per input
//! row in row order** — so a given `(plan, seed)` pair always streams the
//! *same* sample realization, chunk-size independent. A materialized side
//! takes one master draw and seeds its sub-stream (and, for a blocking
//! sampler, the position draw after it) from that one value.

use std::collections::HashSet;
use std::hash::Hasher;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sa_core::hash::{FxHashMap, FxHasher};
use sa_expr::{bind, compile, BinOp, CompiledExpr, Expr};
use sa_plan::{LogicalPlan, ScanColumnMap};
use sa_sampling::SamplingMethod;
use sa_storage::{Catalog, ColumnVec, ColumnarBatch, Schema, SchemaRef, Table};

use crate::columnar::{ColumnarChunk, Row};
use crate::error::ExecError;
use crate::options::{ExecOptions, ScanObs};
use crate::shared::{SharedScanCursor, SharedTableScan};
use crate::Result;

/// Rows per pull when a join build side or a blocking sampler's input is
/// drained into one chunk at open.
const MATERIALIZE_ROWS: usize = 1 << 16;

/// A chunked executor over a (non-aggregate) plan. Obtained from
/// [`open_stream`]; columnar chunks come out of [`ChunkStream::next_batch`]
/// (and materialized rows out of the [`ChunkStream::next_chunk`] adapter).
#[derive(Debug)]
pub struct ChunkStream {
    schema: SchemaRef,
    relations: Vec<String>,
    root: Node,
    rows_out: u64,
}

impl ChunkStream {
    /// Output schema of the streamed rows.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Base-relation aliases aligned with each row's lineage.
    pub fn relations(&self) -> &[String] {
        &self.relations
    }

    /// Total rows yielded so far.
    pub fn rows_yielded(&self) -> u64 {
        self.rows_out
    }

    /// Pull the next columnar chunk of roughly `hint` rows (operators may
    /// over- or under-fill; a join chunk, e.g., carries every match of its
    /// probe rows). An **empty chunk means the stream is exhausted** —
    /// operators keep pulling internally until they can either emit a row
    /// or prove there are none left.
    pub fn next_batch(&mut self, hint: usize) -> Result<ColumnarChunk> {
        let hint = hint.max(1);
        let chunk = self.root.next_batch(hint)?;
        self.rows_out += chunk.rows() as u64;
        Ok(chunk)
    }

    /// Row-at-a-time adapter over [`ChunkStream::next_batch`]: the same
    /// tuples, materialized as [`Row`]s.
    pub fn next_chunk(&mut self, hint: usize) -> Result<Vec<Row>> {
        Ok(self.next_batch(hint)?.to_rows())
    }

    /// Per-relation **coverage** of the stream so far, aligned with
    /// [`ChunkStream::relations`]: `(consumed, available)` sampling units of
    /// each base relation whose tuples have had the chance to reach the
    /// output yet. A scan that has emitted its first `k` of `N` rows reports
    /// `(k, N)`; a fully materialized side (a join's build side, a drained
    /// blocking sampler) reports complete coverage; `SYSTEM`-sampled
    /// relations count blocks (their sampling/lineage unit).
    ///
    /// Online aggregation uses this to scale mid-stream estimates to the
    /// full population: under a random scan order, the consumed prefix is a
    /// WOR(`consumed`, `available`) sample of the relation, which compacts
    /// onto the plan's GUS (Proposition 8).
    pub fn progress(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.relations.len());
        self.root.progress(&mut out);
        debug_assert_eq!(out.len(), self.relations.len());
        out
    }

    /// The stream's coverage with its union structure intact (see
    /// [`ProgressTree`]). Where [`ChunkStream::progress`] flattens a union
    /// to the per-relation minimum across branches, this reports each
    /// branch's coverage separately plus whether the second branch has
    /// started — exactly what per-branch Prop-8 prefix composition needs.
    /// Union-free plans yield a single [`ProgressTree::Leaf`] equal to
    /// [`ChunkStream::progress`].
    pub fn progress_tree(&self) -> ProgressTree {
        self.root.progress_tree()
    }

    /// Drain the stream into one vector (testing / fallback convenience).
    pub fn collect_rows(mut self, hint: usize) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        loop {
            let chunk = self.next_chunk(hint)?;
            if chunk.is_empty() {
                return Ok(out);
            }
            out.extend(chunk);
        }
    }
}

/// Compile `plan` into a pull-based [`ChunkStream`]. The plan must not
/// contain an `Aggregate` node — the online driver aggregates incrementally
/// on top of the stream (pass the aggregate's *input* subtree).
pub fn open_stream(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> Result<ChunkStream> {
    let mut streams = open_stream_partitioned(plan, catalog, opts, 1)?;
    Ok(streams.pop().expect("one partition yields one stream"))
}

/// Compile `plan` into `parts` [`ChunkStream`]s over **disjoint,
/// deterministic slices** of the sampled data, for shard-parallel online
/// aggregation (`sa-online` drives one worker thread per stream).
///
/// Partitioning semantics, chosen so the union of the worker streams is a
/// single coherent sample of the plan and summed per-worker
/// [`ChunkStream::progress`] is a true per-relation `(consumed, available)`
/// coverage (the Prop-8 prefix compaction keeps working):
///
/// * the streaming **scan spine** is split into `parts` contiguous,
///   block-aligned row slices (block alignment keeps `SYSTEM` block
///   coverage and keep-decisions whole per worker);
/// * **Bernoulli** samplers on the spine draw from per-worker RNG streams
///   (seeds derived deterministically from the operator seed and the worker
///   index), so per-row keep decisions stay independent across rows;
/// * **`SYSTEM`** keep decisions, **blocking samplers** (WOR /
///   with-replacement, materialized once and sliced contiguously) and
///   **join build sides** (materialized once, shared behind `Arc`) are
///   drawn exactly once from the same master-RNG positions the sequential
///   [`open_stream`] uses — so those realizations are *identical* to the
///   single-stream run and every worker probes the same build side;
/// * `UnionSamples` cannot be partitioned (its lineage dedup is global
///   state across both branches) and is rejected for `parts > 1` — run
///   union plans at `parallelism = 1`, where they stream, report
///   per-branch coverage through [`ChunkStream::progress_tree`], and
///   support mid-stream population scaling.
///
/// With [`ExecOptions::shuffle_scan`] set, each worker visits its own
/// block slice in a seeded random order (slices stay disjoint, coverage
/// still sums); the permutation is fixed by `(seed, parts, worker)`.
///
/// `parts == 1` IS the sequential stream ([`open_stream`] delegates here),
/// so the two paths cannot drift: one full-range slice, base seeds used
/// directly, `UnionSamples` supported.
/// For `parts > 1`, a plan whose only stochastic operators are shared
/// (scans, `SYSTEM`, WOR, build sides) streams the *same* rows as the
/// sequential run, in the same order when worker outputs are concatenated
/// by index; only spine Bernoulli draws differ (each worker has its own
/// stream), and the union remains a valid Bernoulli sample.
pub fn open_stream_partitioned(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    parts: usize,
) -> Result<Vec<ChunkStream>> {
    if parts == 0 {
        return Err(ExecError::Unsupported(
            "open_stream_partitioned needs at least one partition".into(),
        ));
    }
    plan.validate(catalog)?;
    let mut master = StdRng::seed_from_u64(opts.seed);
    let ctx = BuildCtx::new(plan, catalog, opts, parts, true);
    let (roots, schema, relations) = build_partitioned(plan, &ctx, &mut master)?;
    Ok(roots
        .into_iter()
        .map(|root| ChunkStream {
            schema: schema.clone(),
            relations: relations.clone(),
            root,
            rows_out: 0,
        })
        .collect())
}

/// The catalog table name of a plan that can ride a shared scan cursor, or
/// `None` when it cannot. Eligible shapes are a single-table streaming
/// chain — `Scan`, optionally through tuple-level `Bernoulli` sampling,
/// `Filter`s and `Project`s. Everything else (joins, unions, `SYSTEM` — a
/// block-coverage design whose keep decisions are tied to a scan-prefix
/// origin — and blocking samplers, which materialize privately anyway)
/// falls back to a private stream.
pub fn shared_scan_table(plan: &LogicalPlan) -> Option<&str> {
    shared_scan_ids(plan).map(|(table, _)| table)
}

/// Like [`shared_scan_table`] but also returns the scan's lineage alias
/// (the key needed-column analysis is indexed by).
pub fn shared_scan_ids(plan: &LogicalPlan) -> Option<(&str, &str)> {
    match plan {
        LogicalPlan::Scan { table, alias } => Some((table, alias)),
        LogicalPlan::Sample {
            method: SamplingMethod::Bernoulli { .. },
            input,
        } => shared_scan_ids(input),
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            shared_scan_ids(input)
        }
        _ => None,
    }
}

/// The table-schema column indices the shared-eligible scan in `plan` must
/// gather under `map`'s analysis (`None` = every column) — what a hub
/// manager needs to pick or create a covering [`SharedTableScan`] before
/// [`open_shared_stream`] attaches a cursor to it. Mirrors the pruning the
/// stream build performs, so the attach can never be rejected for missing
/// columns.
pub fn shared_scan_needs(
    plan: &LogicalPlan,
    catalog: &Catalog,
    map: &ScanColumnMap,
) -> Result<Option<Vec<usize>>> {
    let Some((table, alias)) = shared_scan_ids(plan) else {
        return Err(ExecError::Unsupported(
            "plan is not shared-scan eligible".into(),
        ));
    };
    let (_, schema) = scan_schema(catalog, table, alias)?;
    Ok(map.project_indices(alias, &schema))
}

/// Compile `plan` into a [`ChunkStream`] whose leaf is a cursor on `scan`
/// instead of a private table scan: the stream attaches at the hub's
/// current position and drains after one full revolution, sharing the
/// gather work with every other cursor (see [`SharedTableScan`]).
///
/// The plan must be shared-scan eligible ([`shared_scan_table`]) over the
/// hub's table. Everything else is identical to [`open_stream`] — the same
/// master-RNG seed derivation (a Bernoulli sampler's coins depend only on
/// `opts.seed` and the attach origin, one coin per consumed row in
/// consumption order), the same compiled expressions, the same fused
/// operators.
pub fn open_shared_stream(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    scan: &Arc<SharedTableScan>,
) -> Result<ChunkStream> {
    let Some(table) = shared_scan_table(plan) else {
        return Err(ExecError::Unsupported(
            "plan is not shared-scan eligible: only a single-table chain of \
             Scan/Bernoulli/Filter/Project can ride a shared cursor"
                .into(),
        ));
    };
    if table != scan.table().name() {
        return Err(ExecError::Unsupported(format!(
            "shared scan hub is over table '{}' but the plan scans '{table}'",
            scan.table().name()
        )));
    }
    if opts.shuffle_scan {
        // A hub's circular gather order is shared by every cursor; one
        // query cannot permute it. Callers (sa-online) bypass the hub for
        // shuffled queries instead of hitting this.
        return Err(ExecError::Unsupported(
            "shuffle_scan cannot ride a shared scan cursor: the hub's gather order is \
             shared state — open a private stream for shuffled queries"
                .into(),
        ));
    }
    plan.validate(catalog)?;
    let mut master = StdRng::seed_from_u64(opts.seed);
    // Predicate fusion stays off on the shared path: the scan leaf is about
    // to be swapped for a hub cursor, which serves pre-gathered bus chunks —
    // a fused predicate would be lost in the swap. Projection pruning still
    // applies (the cursor selects its columns from the hub's set).
    let ctx = BuildCtx::new(plan, catalog, opts, 1, false);
    let (mut roots, schema, relations) = build_partitioned(plan, &ctx, &mut master)?;
    let mut root = roots.pop().expect("one partition yields one stream");
    let swapped = swap_in_shared_cursor(&mut root, scan)?;
    debug_assert!(swapped, "eligible plan must bottom out in a scan");
    Ok(ChunkStream {
        schema,
        relations,
        root,
        rows_out: 0,
    })
}

/// Replace the scan leaf of an eligible operator tree with a cursor
/// attached to `scan`; returns whether a leaf was swapped. The cursor
/// selects the leaf's (possibly pruned) column set out of the hub's bus
/// chunks, so the stream's schema is unchanged by the swap; a hub that
/// does not gather every needed column is rejected.
fn swap_in_shared_cursor(node: &mut Node, scan: &Arc<SharedTableScan>) -> Result<bool> {
    match node {
        Node::Scan { gather, .. } => {
            debug_assert!(
                gather.predicate.is_none(),
                "shared builds never fuse predicates into the scan leaf"
            );
            let cursor = scan.attach_columns(gather.cols.as_ref().map(|c| c.as_slice()))?;
            *node = Node::Shared { cursor };
            Ok(true)
        }
        Node::Bernoulli { input, .. }
        | Node::Filter { input, .. }
        | Node::Project { input, .. }
        | Node::FilterProject { input, .. } => swap_in_shared_cursor(input, scan),
        _ => Ok(false),
    }
}

/// Derive worker `w`'s RNG seed from a spine operator's base seed —
/// splitmix64-style finalization, so per-worker streams are decorrelated
/// but fully determined by `(plan, seed, parts)`.
fn worker_seed(base: u64, worker: u64) -> u64 {
    let mut z = base ^ worker.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stream's scan coverage with the plan's union structure preserved.
///
/// [`ChunkStream::progress`] flattens a `UnionSamples` to the per-relation
/// minimum across branches — safe for display, but useless for mid-stream
/// population scaling, where each branch needs its *own* WOR prefix factor
/// (the branches cover the relations independently and the executor drains
/// the first branch fully before the second starts). This tree mirrors
/// `sa_plan::GusTree`: maximal union-free regions collapse into flat
/// leaves; unions — and joins above unions — stay structural.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressTree {
    /// A union-free subtree's per-relation `(consumed, available)`
    /// coverage, in scan order (the [`ChunkStream::progress`] semantics).
    Leaf(Vec<(u64, u64)>),
    /// A Proposition-7 union. Both branches cover the same relations.
    /// `second_started` is the executor's drain state: `false` means the
    /// first branch is still streaming and no tuple of the second has had
    /// a chance to appear; `true` means the first branch is complete.
    Union {
        /// Coverage of the first (drained-first) branch.
        left: Box<ProgressTree>,
        /// Coverage of the second branch.
        right: Box<ProgressTree>,
        /// Has the second branch started streaming (⇒ first is complete)?
        second_started: bool,
    },
    /// A join above a union: the operands' coverages, concatenated in scan
    /// order (left then right).
    Concat(Box<ProgressTree>, Box<ProgressTree>),
}

impl ProgressTree {
    /// Concatenate two subtree coverages, collapsing `Leaf ++ Leaf` into
    /// one leaf so union-free regions stay flat (mirrors the plan side,
    /// where compaction is associative).
    fn concat(left: ProgressTree, right: ProgressTree) -> ProgressTree {
        match (left, right) {
            (ProgressTree::Leaf(mut a), ProgressTree::Leaf(b)) => {
                a.extend(b);
                ProgressTree::Leaf(a)
            }
            (l, r) => ProgressTree::Concat(Box::new(l), Box::new(r)),
        }
    }
}

/// Build-time context threaded through [`build_partitioned`]: the catalog,
/// the partitioning shape, and the pushdown configuration derived from
/// [`ExecOptions`] and the plan's needed-column analysis.
#[derive(Clone)]
struct BuildCtx<'a> {
    catalog: &'a Catalog,
    parts: usize,
    shuffle: bool,
    /// Fuse a `Filter`'s compiled predicate into a directly-underlying scan
    /// node. Off under [`ExecOptions::disable_pushdown`] and on the shared
    /// path (see [`open_shared_stream`]). Structure guarantees RNG safety:
    /// plan validation only admits samplers over `Sample*/Scan` chains, so
    /// a `Filter` sitting directly on a scan never has a sampler's
    /// per-row coin stream between them.
    fuse_predicates: bool,
    /// Per-alias needed-column sets (empty — prune nothing — when pushdown
    /// is disabled).
    cols: ScanColumnMap,
    obs: ScanObs,
}

impl<'a> BuildCtx<'a> {
    fn new(
        plan: &LogicalPlan,
        catalog: &'a Catalog,
        opts: &ExecOptions,
        parts: usize,
        fuse_predicates: bool,
    ) -> BuildCtx<'a> {
        let pushdown = !opts.disable_pushdown;
        BuildCtx {
            catalog,
            parts,
            shuffle: opts.shuffle_scan,
            fuse_predicates: pushdown && fuse_predicates,
            cols: if pushdown {
                match &opts.scan_cols {
                    Some(map) => map.clone(),
                    None => ScanColumnMap::analyze(plan),
                }
            } else {
                ScanColumnMap::default()
            },
            obs: opts.scan_obs.clone(),
        }
    }
}

/// What a streaming scan node gathers per chunk: the (possibly pruned)
/// output column set, an optional scan-level predicate, and the scan
/// observability handles. Shared by [`Node::Scan`] and
/// [`Node::ShuffledScan`]; built in [`build_partitioned`]'s scan arm and
/// extended with a predicate by its `Filter` arm.
#[derive(Debug)]
struct ScanGather {
    /// Output columns as ascending indices into the table schema; `None`
    /// gathers every column (the scan's output schema is pruned to match,
    /// so downstream compiled expressions see consistent positions).
    cols: Option<Arc<Vec<usize>>>,
    /// A predicate pushed into the scan (a `Filter` that sat directly on
    /// it): rows it drops never materialize into a batch.
    predicate: Option<ScanPredicate>,
    obs: ScanObs,
}

/// A scan-level predicate: the compiled mask expression remapped onto the
/// gather order of its own columns.
#[derive(Debug)]
struct ScanPredicate {
    /// Compiled mask; its column indices point into `table_cols` positions
    /// (the predicate columns are gathered first, alone).
    expr: CompiledExpr,
    /// The predicate's columns as ascending table-schema indices.
    table_cols: Vec<usize>,
    /// For each scan output position, where to find the column after the
    /// mask: `PredCol(i)` reuses already-gathered `table_cols[i]`,
    /// `LateCol(j)` is the j-th late-gathered remaining column.
    out_map: Vec<OutCol>,
    /// The late-gathered columns (output columns not read by the
    /// predicate), ascending table-schema indices.
    late_cols: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
enum OutCol {
    /// Position within [`ScanPredicate::table_cols`].
    PredCol(usize),
    /// Position within [`ScanPredicate::late_cols`].
    LateCol(usize),
}

impl ScanGather {
    /// The scan's output columns as table-schema indices.
    fn out_cols(&self, table: &Table) -> Vec<usize> {
        match &self.cols {
            Some(c) => c.as_ref().clone(),
            None => (0..table.column_count()).collect(),
        }
    }

    /// This gather extended with `compiled`, a predicate over the scan's
    /// output schema: map its columns back to table indices, remap the
    /// expression onto their gather positions, and precompute where each
    /// output column comes from after masking.
    fn with_predicate(&self, compiled: &CompiledExpr, table: &Table) -> ScanGather {
        let out = self.out_cols(table);
        let mut used = compiled.columns_used();
        used.sort_unstable();
        used.dedup();
        let table_cols: Vec<usize> = used.iter().map(|&i| out[i]).collect();
        let mut expr = compiled.clone();
        expr.remap_columns(&|old| {
            used.binary_search(&old)
                .expect("columns_used covers every referenced column")
        });
        let late_cols: Vec<usize> = out
            .iter()
            .copied()
            .filter(|c| !table_cols.contains(c))
            .collect();
        let out_map = out
            .iter()
            .map(|c| match table_cols.iter().position(|t| t == c) {
                Some(i) => OutCol::PredCol(i),
                None => {
                    OutCol::LateCol(late_cols.iter().position(|l| l == c).expect("late column"))
                }
            })
            .collect();
        ScanGather {
            cols: self.cols.clone(),
            predicate: Some(ScanPredicate {
                expr,
                table_cols,
                out_map,
                late_cols,
            }),
            obs: self.obs.clone(),
        }
    }

    /// Gather rows `[from, upto)` of `table` into a chunk with physical
    /// row-id lineage. Without a predicate this is a straight (possibly
    /// column-pruned) range gather. With one, the predicate's columns are
    /// gathered alone, the mask is evaluated, and only surviving rows of
    /// the remaining columns are materialized — a chunk may come back
    /// empty without meaning exhaustion (callers loop).
    fn gather(&self, table: &Table, from: u64, upto: u64) -> Result<ColumnarChunk> {
        let n = upto.saturating_sub(from);
        self.obs.rows_scanned.add(n);
        let Some(pred) = &self.predicate else {
            let batch = match &self.cols {
                None => table.batch_range(from, upto),
                Some(cols) => table.batch_range_cols(from, upto, cols),
            }
            .map_err(ExecError::Storage)?;
            self.obs.rows_gathered.add(n);
            return Ok(ColumnarChunk {
                batch,
                lineage: vec![(from..upto).collect()],
            });
        };
        let pred_batch = table
            .batch_range_cols(from, upto, &pred.table_cols)
            .map_err(ExecError::Storage)?;
        let mask = pred.expr.eval_mask(&pred_batch)?;
        let selected: Vec<u32> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i as u32)
            .collect();
        let ids: Vec<u64> = selected.iter().map(|&i| from + i as u64).collect();
        // Page accounting: blocks of the range whose every row the mask
        // dropped never have their non-predicate columns touched.
        if n > 0 {
            let br = table.block_rows() as u64;
            let blocks_total = (upto - 1) / br - from / br + 1;
            let mut covered = 0u64;
            let mut prev = u64::MAX;
            for &id in &ids {
                let b = id / br;
                if b != prev {
                    covered += 1;
                    prev = b;
                }
            }
            self.obs.pages_skipped.add(blocks_total - covered);
        }
        self.obs.rows_gathered.add(ids.len() as u64);
        let pred_taken = pred_batch.take(&selected);
        let late_batch = table
            .gather_rows_cols(&ids, &pred.late_cols)
            .map_err(ExecError::Storage)?;
        let columns = pred
            .out_map
            .iter()
            .map(|&m| match m {
                OutCol::PredCol(i) => pred_taken.column(i).clone(),
                OutCol::LateCol(j) => late_batch.column(j).clone(),
            })
            .collect();
        Ok(ColumnarChunk {
            batch: ColumnarBatch::new(columns, ids.len()),
            lineage: vec![ids],
        })
    }
}

/// One operator of the streaming pipeline. Every operator transforms whole
/// [`ColumnarChunk`]s.
#[derive(Debug)]
enum Node {
    /// Base-table scan over the row range `[start, end)`: gathers column
    /// slices straight from storage plus a lineage column of row ids. A
    /// full scan has `start = 0`, `end = row_count`; a partitioned worker
    /// scans a block-aligned slice. What gets gathered — the pruned column
    /// set and an optional pushed-down predicate — lives in [`ScanGather`].
    Scan {
        table: Arc<Table>,
        start: u64,
        next: u64,
        end: u64,
        gather: ScanGather,
    },
    /// A seeded block-permuted scan ([`ExecOptions::shuffle_scan`]): the
    /// slice's blocks are visited in a seeded random order, rows inside a
    /// block in physical order — so columnar gathers stay batched while the
    /// consumed prefix becomes a uniform random set of blocks, making the
    /// online driver's random-scan-order assumption true by construction.
    /// Lineage stays physical row ids; downstream per-row samplers draw
    /// their coins in emission (visit) order.
    ShuffledScan {
        table: Arc<Table>,
        /// Block row-ranges `[start, end)` in visit order.
        order: Vec<(u64, u64)>,
        /// Index into `order` of the block currently draining.
        block: usize,
        /// Row offset within the current block.
        offset: u64,
        /// Rows emitted so far.
        emitted: u64,
        /// Total rows in the slice.
        total: u64,
        gather: ScanGather,
    },
    /// A cursor on a [`SharedTableScan`] hub in place of a private scan:
    /// the same chunks-with-row-id-lineage contract, but the rows arrive in
    /// circular order from the cursor's attach origin and the gathering
    /// work is shared with every other cursor on the hub.
    Shared { cursor: SharedScanCursor },
    /// Tuple-level Bernoulli sampling with its own RNG stream (one coin per
    /// input row, in row order).
    Bernoulli {
        p: f64,
        rng: StdRng,
        input: Box<Node>,
    },
    /// Block-level Bernoulli: the keep decisions are drawn at open (one coin
    /// per block), rows ride along with their block and have their lineage
    /// rewritten to the block id.
    System {
        keep: Vec<bool>,
        base: Arc<Table>,
        /// True when the input chain is a streaming scan prefix, so its
        /// consumed-row count is a base-table row-id prefix that converts to
        /// block coverage. False over a materialized sampler (WOR below
        /// SYSTEM), whose consumed count indexes *sample* rows — block
        /// coverage is then unknowable and reported as complete.
        row_prefix: bool,
        input: Box<Node>,
    },
    /// A blocking subtree (WOR / with-replacement sample), materialized at
    /// open as one columnar chunk and drained in slices.
    Materialized { chunk: ColumnarChunk, next: usize },
    /// Relational selection (compiled predicate → mask → compact).
    Filter {
        predicate: CompiledExpr,
        input: Box<Node>,
    },
    /// Projection (compiled kernels evaluated per chunk).
    Project {
        exprs: Vec<CompiledExpr>,
        input: Box<Node>,
    },
    /// Fused selection + projection: one pass computes the selection mask,
    /// gathers only the columns the projection reads, and evaluates the
    /// projection kernels over the compacted batch — no intermediate
    /// filtered chunk of untouched columns.
    FilterProject {
        predicate: CompiledExpr,
        /// Projection kernels, column-remapped onto `used`.
        exprs: Vec<CompiledExpr>,
        /// Input column indices the projection reads, ascending.
        used: Vec<usize>,
        input: Box<Node>,
    },
    /// Streaming hash join: build side materialized and fingerprint-keyed,
    /// probe side streamed. The build sits behind `Arc` so partitioned
    /// worker streams share one materialization instead of re-drawing (and
    /// re-sampling!) the build side per worker.
    HashJoin {
        probe: Box<Node>,
        build: Arc<JoinBuild>,
        residual: Option<CompiledExpr>,
    },
    /// Nested-loop join (cross product / arbitrary θ): right side
    /// materialized (shared across partitioned workers), left side streamed.
    NestedLoop {
        left: Box<Node>,
        build: Arc<JoinBuild>,
        residual: Option<CompiledExpr>,
    },
    /// Union of two independent samplings of one expression, deduplicated
    /// by lineage (Proposition 7): left drained first, then right.
    Dedup {
        first: Box<Node>,
        second: Box<Node>,
        on_second: bool,
        seen: HashSet<Vec<u64>>,
    },
}

/// Build one operator tree per worker over disjoint slices; returns
/// `(nodes, schema, relations)` with `nodes.len() == parts`. This is THE
/// builder — the sequential stream is simply `parts == 1` (one full-range
/// slice, base seeds used directly), so the traversal, the master-RNG draw
/// order and the compiled expressions cannot drift between the sequential
/// and partitioned paths. Shared stochastic operators (SYSTEM keeps,
/// blocking samplers, join build sides) are drawn once at the same master
/// positions regardless of `parts`; only spine Bernoulli samplers derive
/// per-worker seeds when `parts > 1`.
fn build_partitioned(
    plan: &LogicalPlan,
    ctx: &BuildCtx<'_>,
    master: &mut StdRng,
) -> Result<(Vec<Node>, SchemaRef, Vec<String>)> {
    let parts = ctx.parts;
    match plan {
        LogicalPlan::Scan { table, alias } => {
            let (t, schema) = scan_schema(ctx.catalog, table, alias)?;
            // Projection pushdown: prune the scan to the columns the rest
            // of the plan can observe. The scan's output schema shrinks to
            // match (same field order), so downstream name-based binding
            // and compiled column positions stay consistent; lineage row
            // ids ride beside the batch and need no column at all.
            let (schema, cols) = match ctx.cols.project_indices(alias, &schema) {
                None => (schema, None),
                Some(idx) => {
                    let fields: Vec<_> = idx.iter().map(|&i| schema.fields()[i].clone()).collect();
                    let pruned = Arc::new(Schema::new(fields).map_err(ExecError::Storage)?);
                    (pruned, Some(Arc::new(idx)))
                }
            };
            ctx.obs
                .cols_gathered
                .add(cols.as_ref().map_or(t.column_count(), |c| c.len()) as u64);
            let block_rows = t.block_rows() as u64;
            let rows = t.row_count();
            let blocks = t.block_count();
            // One base seed per scan, drawn ONLY in shuffle mode so the
            // master-RNG draw order — and therefore every realization every
            // pinned test depends on — is untouched when the flag is off.
            let shuffle_base = if ctx.shuffle {
                Some(master.random::<u64>())
            } else {
                None
            };
            // Contiguous block-aligned slices: worker w owns blocks
            // [blocks·w/parts, blocks·(w+1)/parts). Some slices are empty
            // when there are fewer blocks than workers — they just drain
            // immediately (oversubscription degrades gracefully).
            let nodes = (0..parts as u64)
                .map(|w| {
                    let gather = ScanGather {
                        cols: cols.clone(),
                        predicate: None,
                        obs: ctx.obs.clone(),
                    };
                    let lo = blocks * w / parts as u64;
                    let hi = blocks * (w + 1) / parts as u64;
                    let start = (lo * block_rows).min(rows);
                    let end = (hi * block_rows).min(rows);
                    let Some(base) = shuffle_base else {
                        return Node::Scan {
                            table: t.clone(),
                            start,
                            next: start,
                            end,
                            gather,
                        };
                    };
                    // Seeded Fisher–Yates over the worker's own block
                    // slice: slices stay disjoint, progress still sums,
                    // and the permutation is fixed by (seed, parts, w).
                    let mut order: Vec<(u64, u64)> = (lo..hi)
                        .map(|b| ((b * block_rows).min(rows), ((b + 1) * block_rows).min(rows)))
                        .filter(|(s, e)| s < e)
                        .collect();
                    let seed = if parts == 1 {
                        base
                    } else {
                        worker_seed(base, w)
                    };
                    let mut rng = StdRng::seed_from_u64(seed);
                    for i in (1..order.len()).rev() {
                        let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
                        order.swap(i, j);
                    }
                    Node::ShuffledScan {
                        table: t.clone(),
                        order,
                        block: 0,
                        offset: 0,
                        emitted: 0,
                        total: end - start,
                        gather,
                    }
                })
                .collect();
            Ok((nodes, schema, vec![alias.clone()]))
        }
        LogicalPlan::Sample { method, input } => {
            method.validate().map_err(ExecError::Sampling)?;
            match method {
                SamplingMethod::Bernoulli { p } => {
                    let base = master.random::<u64>();
                    let (inputs, schema, relations) = build_partitioned(input, ctx, master)?;
                    let nodes = inputs
                        .into_iter()
                        .enumerate()
                        .map(|(w, node)| {
                            // A single stream uses the base seed directly
                            // (the historical sequential realization);
                            // workers get derived, decorrelated streams.
                            let seed = if parts == 1 {
                                base
                            } else {
                                worker_seed(base, w as u64)
                            };
                            Node::Bernoulli {
                                p: *p,
                                rng: StdRng::seed_from_u64(seed),
                                input: Box::new(node),
                            }
                        })
                        .collect();
                    Ok((nodes, schema, relations))
                }
                SamplingMethod::System { p } => {
                    let base = base_table(input, ctx.catalog)?;
                    let mut rng = StdRng::seed_from_u64(master.random::<u64>());
                    // ONE keep vector for all workers: slices are
                    // block-aligned, so each block's keep decision is used
                    // by exactly one worker and the union is a single
                    // coherent SYSTEM sample (identical to the sequential
                    // realization for the same seed).
                    let keep: Vec<bool> = (0..base.block_count())
                        .map(|_| rng.random::<f64>() < *p)
                        .collect();
                    let (inputs, schema, relations) = build_partitioned(input, ctx, master)?;
                    let nodes = inputs
                        .into_iter()
                        .map(|node| {
                            let row_prefix = node.is_scan_prefix();
                            Node::System {
                                keep: keep.clone(),
                                base: base.clone(),
                                row_prefix,
                                input: Box::new(node),
                            }
                        })
                        .collect();
                    Ok((nodes, schema, relations))
                }
                SamplingMethod::Wor { .. } | SamplingMethod::WithReplacement { .. } => {
                    // Blocking samplers need their input's full cardinality
                    // up front: the input is materialized once (the same
                    // draw at any `parts`) and the kept positions drawn
                    // from the same RNG; sample rows are sliced
                    // contiguously across workers.
                    let mut rng = StdRng::seed_from_u64(master.random::<u64>());
                    let (input, schema, relations) = materialize(input, ctx, &mut rng)?;
                    let positions: Vec<u32> = method
                        .sample_positions(input.rows() as u64, &mut rng)?
                        .into_iter()
                        .map(|p| p as u32)
                        .collect();
                    let chunk = input.take(&positions);
                    let len = chunk.rows();
                    let nodes = if parts == 1 {
                        vec![Node::Materialized { chunk, next: 0 }]
                    } else {
                        (0..parts)
                            .map(|w| {
                                let start = len * w / parts;
                                let end = len * (w + 1) / parts;
                                Node::Materialized {
                                    chunk: chunk.slice(start, end - start),
                                    next: 0,
                                }
                            })
                            .collect()
                    };
                    Ok((nodes, schema, relations))
                }
            }
        }
        LogicalPlan::Filter { predicate, input } => {
            let (inputs, schema, relations) = build_partitioned(input, ctx, master)?;
            let compiled = compile(predicate, &schema)?;
            // Predicate pushdown: a Filter sitting directly on a scan node
            // fuses into the scan's gather — its dropped rows never
            // materialize. Plan validation keeps samplers on Sample*/Scan
            // chains only, so no per-row coin stream can sit between this
            // Filter and the scan; the realized sample is unchanged. A scan
            // already carrying a predicate keeps the second Filter as an
            // operator (compiled masks don't compose).
            let nodes = inputs
                .into_iter()
                .map(|node| match node {
                    Node::Scan {
                        table,
                        start,
                        next,
                        end,
                        gather,
                    } if ctx.fuse_predicates && gather.predicate.is_none() => {
                        let gather = gather.with_predicate(&compiled, &table);
                        Node::Scan {
                            table,
                            start,
                            next,
                            end,
                            gather,
                        }
                    }
                    Node::ShuffledScan {
                        table,
                        order,
                        block,
                        offset,
                        emitted,
                        total,
                        gather,
                    } if ctx.fuse_predicates && gather.predicate.is_none() => {
                        let gather = gather.with_predicate(&compiled, &table);
                        Node::ShuffledScan {
                            table,
                            order,
                            block,
                            offset,
                            emitted,
                            total,
                            gather,
                        }
                    }
                    node => Node::Filter {
                        predicate: compiled.clone(),
                        input: Box::new(node),
                    },
                })
                .collect();
            Ok((nodes, schema, relations))
        }
        LogicalPlan::Project { exprs, input } => {
            let (inputs, in_schema, relations) = build_partitioned(input, ctx, master)?;
            let mut compiled = Vec::with_capacity(exprs.len());
            let mut fields = Vec::with_capacity(exprs.len());
            for (e, name) in exprs {
                let be = bind(e, &in_schema)?;
                let dt =
                    sa_expr::data_type(&be, &in_schema)?.unwrap_or(sa_storage::DataType::Float);
                fields.push(sa_storage::Field::new(name, dt));
                compiled.push(compile(&be, &in_schema)?);
            }
            let schema = Arc::new(Schema::new(fields).map_err(ExecError::Storage)?);
            // Fuse a directly-underlying Filter: gather only the columns the
            // projection reads, once, after masking.
            let mut used: Vec<usize> = Vec::new();
            for c in &compiled {
                for i in c.columns_used() {
                    if !used.contains(&i) {
                        used.push(i);
                    }
                }
            }
            used.sort_unstable();
            let remapped: Vec<CompiledExpr> = compiled
                .iter()
                .map(|c| {
                    let mut c = c.clone();
                    let used = &used;
                    c.remap_columns(&|old| {
                        used.binary_search(&old).expect("used covers every column")
                    });
                    c
                })
                .collect();
            let nodes = inputs
                .into_iter()
                .map(|node| match node {
                    Node::Filter { predicate, input } => Node::FilterProject {
                        predicate,
                        exprs: remapped.clone(),
                        used: used.clone(),
                        input,
                    },
                    node => Node::Project {
                        exprs: compiled.clone(),
                        input: Box::new(node),
                    },
                })
                .collect();
            Ok((nodes, schema, relations))
        }
        LogicalPlan::Join {
            condition,
            left,
            right,
        } => {
            let (probes, l_schema, l_rels) = build_partitioned(left, ctx, master)?;
            // Build side: materialized ONCE (same master position as the
            // sequential build) and shared behind Arc by every worker —
            // re-drawing it per worker would join each probe slice against
            // a different sample of the right input.
            let mut rng = StdRng::seed_from_u64(master.random::<u64>());
            let (build_chunk, r_schema, r_rels) = materialize(right, ctx, &mut rng)?;
            let schema = Arc::new(l_schema.join(&r_schema)?);
            let mut relations = l_rels;
            relations.extend(r_rels.iter().cloned());
            let (keys, residual) = match condition {
                None => (vec![], None),
                Some(c) => split_join_condition(c, &l_schema, &r_schema)?,
            };
            let residual = residual.map(|e| compile(&e, &schema)).transpose()?;
            let build = Arc::new(JoinBuild::new(build_chunk, r_rels.len(), keys));
            let nodes = probes
                .into_iter()
                .map(|probe| build.clone().node(probe, residual.clone()))
                .collect();
            Ok((nodes, schema, relations))
        }
        LogicalPlan::UnionSamples { left, right } => {
            // The union's lineage dedup is global state across both
            // branches, so it only streams on a single stream.
            if parts > 1 {
                return Err(ExecError::Unsupported(
                    "a UNION of samples cannot be partitioned: its lineage dedup is global \
                     state across both branches — run it on a single stream (parallelism = 1)"
                        .into(),
                ));
            }
            let (mut l, schema, relations) = build_partitioned(left, ctx, master)?;
            let (mut r, _, _) = build_partitioned(right, ctx, master)?;
            Ok((
                vec![Node::Dedup {
                    first: Box::new(l.pop().expect("one part")),
                    second: Box::new(r.pop().expect("one part")),
                    on_second: false,
                    seen: HashSet::new(),
                }],
                schema,
                relations,
            ))
        }
        LogicalPlan::Aggregate { .. } => Err(ExecError::Unsupported(
            "open_stream streams the aggregate's input; strip the Aggregate root and \
             accumulate incrementally (see sa-online)"
                .into(),
        )),
    }
}

/// Drain `plan` into one columnar chunk at open — a join's build side or a
/// blocking sampler's input. The sub-stream is a single unshuffled part in
/// physical scan order (a fixed-size sampler keeps positions of this
/// order); its stochastic operators draw their seeds from `rng`, the one
/// master draw the blocking operator made, so the materialization is the
/// same at any `parts`.
fn materialize(
    plan: &LogicalPlan,
    ctx: &BuildCtx<'_>,
    rng: &mut StdRng,
) -> Result<(ColumnarChunk, SchemaRef, Vec<String>)> {
    let sub = BuildCtx {
        parts: 1,
        shuffle: false,
        ..ctx.clone()
    };
    let (mut roots, schema, relations) = build_partitioned(plan, &sub, rng)?;
    let mut root = roots.pop().expect("one partition yields one stream");
    // The first pull is kept even when empty: it carries the column layout.
    let mut chunks = vec![root.next_batch(MATERIALIZE_ROWS)?];
    while !chunks[chunks.len() - 1].is_empty() {
        let chunk = root.next_batch(MATERIALIZE_ROWS)?;
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    Ok((ColumnarChunk::concat(chunks), schema, relations))
}

/// A scan's table and its output schema, qualified by `alias` when the
/// alias differs from the table name.
fn scan_schema(catalog: &Catalog, table: &str, alias: &str) -> Result<(Arc<Table>, SchemaRef)> {
    let t = catalog.get(table)?;
    let schema = if alias == table {
        t.schema().clone()
    } else {
        Arc::new(t.schema().qualify_all(alias))
    };
    Ok((t, schema))
}

/// The base table under a Sample*/Scan chain (`SYSTEM` sampling needs its
/// block structure).
fn base_table(mut node: &LogicalPlan, catalog: &Catalog) -> Result<Arc<Table>> {
    loop {
        match node {
            LogicalPlan::Scan { table, .. } => return Ok(catalog.get(table)?),
            LogicalPlan::Sample { input, .. } => node = input,
            other => {
                return Err(ExecError::Unsupported(format!(
                    "sample over non-base relation {}",
                    other.node_label()
                )))
            }
        }
    }
}

/// Equi-key column index pairs of a hash join: `(left index, right index)`.
type EquiKeys = Vec<(usize, usize)>;

/// Extract `(left index, right index)` equi-key pairs from a conjunctive
/// join condition; everything else becomes the residual predicate.
fn split_join_condition(
    condition: &Expr,
    left: &Schema,
    right: &Schema,
) -> Result<(EquiKeys, Option<Expr>)> {
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for conjunct in condition.split_conjuncts() {
        if let Expr::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = conjunct
        {
            if let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) {
                if let (Ok(li), Ok(ri)) = (left.index_of(ca), right.index_of(cb)) {
                    keys.push((li, ri));
                    continue;
                }
                if let (Ok(li), Ok(ri)) = (left.index_of(cb), right.index_of(ca)) {
                    keys.push((li, ri));
                    continue;
                }
            }
        }
        // Literal TRUE residuals are dropped.
        if *conjunct != sa_expr::lit(true) {
            residual.push(conjunct.clone());
        }
    }
    let residual = (!residual.is_empty()).then(|| Expr::conjoin(residual));
    Ok((keys, residual))
}

impl Node {
    /// Pull roughly `hint` rows as one columnar chunk. Invariant: an empty
    /// return means this operator is exhausted — filtering operators keep
    /// pulling until they can emit at least one row or their input drains.
    fn next_batch(&mut self, hint: usize) -> Result<ColumnarChunk> {
        match self {
            Node::Scan {
                table,
                next,
                end,
                gather,
                ..
            } => loop {
                // A pushed-down predicate can empty a whole range; an empty
                // chunk is the exhaustion signal upstream, so keep scanning
                // until a row survives or the slice truly drains.
                let upto = (*next + hint as u64).min(*end);
                let chunk = gather.gather(table, *next, upto)?;
                *next = upto;
                if !chunk.is_empty() || *next >= *end {
                    return Ok(chunk);
                }
            },
            Node::ShuffledScan {
                table,
                order,
                block,
                offset,
                emitted,
                gather,
                ..
            } => {
                while *block < order.len() {
                    let (s, e) = order[*block];
                    let from = s + *offset;
                    if from >= e {
                        *block += 1;
                        *offset = 0;
                        continue;
                    }
                    let upto = (from + hint as u64).min(e);
                    let chunk = gather.gather(table, from, upto)?;
                    // `emitted` counts *consumed* rows — every row of the
                    // visited range had its chance, whatever a pushed
                    // predicate dropped — so Prop-8 coverage is unchanged.
                    *offset += upto - from;
                    *emitted += upto - from;
                    if chunk.is_empty() {
                        continue;
                    }
                    return Ok(chunk);
                }
                // Exhausted: an empty chunk with the scan's column shape.
                gather.gather(table, 0, 0)
            }
            Node::Shared { cursor } => cursor.next_batch(hint),
            Node::Materialized { chunk, next } => {
                let end = (*next + hint).min(chunk.rows());
                let out = chunk.slice(*next, end - *next);
                *next = end;
                Ok(out)
            }
            Node::Bernoulli { p, rng, input } => loop {
                let chunk = input.next_batch(hint)?;
                if chunk.is_empty() {
                    return Ok(chunk);
                }
                // One coin per input row, in row order — the same RNG
                // consumption as a per-row filter, so the realization is
                // chunk-size independent.
                let mask: Vec<bool> = (0..chunk.rows())
                    .map(|_| rng.random::<f64>() < *p)
                    .collect();
                if mask.iter().any(|&m| m) {
                    return Ok(chunk.filter(&mask));
                }
            },
            Node::System {
                keep, base, input, ..
            } => loop {
                let chunk = input.next_batch(hint)?;
                if chunk.is_empty() {
                    return Ok(chunk);
                }
                let rids = chunk.lineage.last().expect("scan lineage");
                let mask: Vec<bool> = rids
                    .iter()
                    .map(|&rid| keep[base.block_of(rid) as usize])
                    .collect();
                if !mask.iter().any(|&m| m) {
                    continue;
                }
                let mut out = chunk.filter(&mask);
                // This relation's sampling — and hence lineage — unit is
                // the block: rewrite the kept rows' ids.
                let blocks = out.lineage.last_mut().expect("scan lineage");
                for rid in blocks.iter_mut() {
                    *rid = base.block_of(*rid);
                }
                return Ok(out);
            },
            Node::Filter { predicate, input } => loop {
                let chunk = input.next_batch(hint)?;
                if chunk.is_empty() {
                    return Ok(chunk);
                }
                let mask = predicate.eval_mask(&chunk.batch)?;
                if mask.iter().any(|&m| m) {
                    return Ok(chunk.filter(&mask));
                }
            },
            Node::Project { exprs, input } => {
                let chunk = input.next_batch(hint)?;
                let rows = chunk.rows();
                let columns = exprs
                    .iter()
                    .map(|e| e.eval_column(&chunk.batch))
                    .collect::<sa_expr::Result<Vec<_>>>()?;
                Ok(ColumnarChunk {
                    batch: ColumnarBatch::new(columns, rows),
                    lineage: chunk.lineage,
                })
            }
            Node::FilterProject {
                predicate,
                exprs,
                used,
                input,
            } => loop {
                let chunk = input.next_batch(hint)?;
                let indices: Vec<u32> = if chunk.is_empty() {
                    // An exhausted input still flows through the gather +
                    // eval below (with no rows), so the chunk keeps the
                    // projected column count — consumers above may evaluate
                    // expressions against it.
                    Vec::new()
                } else {
                    let mask = predicate.eval_mask(&chunk.batch)?;
                    let selected: Vec<u32> = mask
                        .iter()
                        .enumerate()
                        .filter(|(_, &m)| m)
                        .map(|(i, _)| i as u32)
                        .collect();
                    if selected.is_empty() {
                        continue;
                    }
                    selected
                };
                // Gather only the columns the projection reads, compacted
                // to the selected rows, then evaluate densely. (The
                // projection kernels are remapped onto `used`, so they must
                // never see the full-width input batch — not even empty.)
                let gathered = ColumnarBatch::new(
                    used.iter()
                        .map(|&c| chunk.batch.column(c).take(&indices))
                        .collect(),
                    indices.len(),
                );
                let columns = exprs
                    .iter()
                    .map(|e| e.eval_column(&gathered))
                    .collect::<sa_expr::Result<Vec<_>>>()?;
                let lineage = chunk
                    .lineage
                    .iter()
                    .map(|l| indices.iter().map(|&i| l[i as usize]).collect())
                    .collect();
                return Ok(ColumnarChunk {
                    batch: ColumnarBatch::new(columns, indices.len()),
                    lineage,
                });
            },
            Node::HashJoin {
                probe,
                build,
                residual,
            } => loop {
                let chunk = probe.next_batch(hint)?;
                if chunk.is_empty() {
                    return join_output(&chunk, &[], build, &[], residual.as_ref());
                }
                let probe_cols: Vec<&ColumnVec> = build
                    .keys
                    .iter()
                    .map(|(li, _)| chunk.batch.column(*li))
                    .collect();
                let mut probe_idx: Vec<u32> = Vec::new();
                let mut build_idx: Vec<u32> = Vec::new();
                for i in 0..chunk.rows() {
                    let Some(fp) = key_fingerprint(&probe_cols, i) else {
                        continue; // NULL keys never match
                    };
                    let Some(candidates) = build.table.get(&fp) else {
                        continue;
                    };
                    for &j in candidates {
                        // Stored-key equality check: a fingerprint
                        // collision (or cross-type coercion subtlety) can
                        // never fabricate a match.
                        if build.key_matches(&probe_cols, i, j) {
                            probe_idx.push(i as u32);
                            build_idx.push(j);
                        }
                    }
                }
                let out = join_output(&chunk, &probe_idx, build, &build_idx, residual.as_ref())?;
                if !out.is_empty() {
                    return Ok(out);
                }
            },
            Node::NestedLoop {
                left,
                build,
                residual,
            } => loop {
                let chunk = left.next_batch(hint)?;
                if chunk.is_empty() {
                    return join_output(&chunk, &[], build, &[], residual.as_ref());
                }
                let n = build.chunk.rows() as u32;
                let mut probe_idx = Vec::with_capacity(chunk.rows() * n as usize);
                let mut build_idx = Vec::with_capacity(chunk.rows() * n as usize);
                for i in 0..chunk.rows() as u32 {
                    for j in 0..n {
                        probe_idx.push(i);
                        build_idx.push(j);
                    }
                }
                let out = join_output(&chunk, &probe_idx, build, &build_idx, residual.as_ref())?;
                if !out.is_empty() {
                    return Ok(out);
                }
            },
            Node::Dedup {
                first,
                second,
                on_second,
                seen,
            } => loop {
                let active: &mut Node = if *on_second { second } else { first };
                let chunk = active.next_batch(hint)?;
                if chunk.is_empty() {
                    if *on_second {
                        return Ok(chunk);
                    }
                    *on_second = true;
                    continue;
                }
                let mask: Vec<bool> = (0..chunk.rows())
                    .map(|i| {
                        let lin: Vec<u64> = chunk.lineage.iter().map(|l| l[i]).collect();
                        seen.insert(lin)
                    })
                    .collect();
                if mask.iter().any(|&m| m) {
                    return Ok(chunk.filter(&mask));
                }
            },
        }
    }
}

/// The 64-bit fingerprint of a row's equi-key cells, or `None` when any
/// cell is NULL (NULL join keys never match). Hashing goes through
/// [`ColumnVec::hash_cell`], which writes exactly what `Value::hash` would —
/// so numerically equal `Int`/`Float` keys collide on purpose and the
/// stored-key check resolves them. The Fx state is finalized with
/// splitmix64: numeric cells hash by their f64 bit pattern, whose entropy
/// sits in the HIGH bits, and Fx's multiply-only mixing never propagates
/// high bits downward — without full avalanche, every small-integer key
/// would share its low bits and the hash table would degenerate into one
/// giant probe chain.
fn key_fingerprint(cols: &[&ColumnVec], row: usize) -> Option<u64> {
    let mut h = FxHasher::default();
    for c in cols {
        if !c.is_valid(row) {
            return None;
        }
        c.hash_cell(row, &mut h);
    }
    Some(sa_core::hash::splitmix64(h.finish()))
}

/// Assemble a join's output chunk from matched (probe, build) index pairs:
/// gather both sides, concatenate columns and lineage, apply the residual.
fn join_output(
    probe: &ColumnarChunk,
    probe_idx: &[u32],
    build: &JoinBuild,
    build_idx: &[u32],
    residual: Option<&CompiledExpr>,
) -> Result<ColumnarChunk> {
    let left = probe.take(probe_idx);
    let right = build.chunk.take(build_idx);
    let mut lineage = left.lineage;
    lineage.extend(right.lineage);
    let combined = ColumnarChunk {
        batch: left.batch.concat_columns(right.batch),
        lineage,
    };
    match residual {
        None => Ok(combined),
        Some(pred) => {
            let mask = pred.eval_mask(&combined.batch)?;
            Ok(combined.filter(&mask))
        }
    }
}

impl Node {
    /// Append this subtree's per-relation `(consumed, available)` coverage
    /// to `out`, in scan order (see [`ChunkStream::progress`]).
    fn progress(&self, out: &mut Vec<(u64, u64)>) {
        match self {
            // Coverage is relative to this node's slice, so a partitioned
            // set of workers sums to the whole relation's `(consumed,
            // available)` — a full scan reports `(next, row_count)` as ever.
            Node::Scan {
                start, next, end, ..
            } => out.push((*next - *start, *end - *start)),
            // A shuffled scan's consumed rows are a seeded-random set of
            // blocks (plus at most one partial block) — a WOR(consumed,
            // available) draw of the slice by construction, which is
            // exactly the coverage contract.
            Node::ShuffledScan { emitted, total, .. } => out.push((*emitted, *total)),
            // A shared cursor's consumed prefix is a circularly-shifted row
            // range — still WOR(consumed, N) coverage (the design is
            // invariant under a fixed rotation of the relation), so it
            // reports exactly like a private scan.
            Node::Shared { cursor } => out.push(cursor.progress()),
            // A materialized blocking sampler: coverage over the *drawn
            // sample* — it stacks onto the plan's own WOR factor exactly
            // like a scan prefix stacks onto a Bernoulli.
            Node::Materialized { chunk, next } => out.push((*next as u64, chunk.rows() as u64)),
            Node::Bernoulli { input, .. } | Node::Filter { input, .. } => input.progress(out),
            Node::Project { input, .. } | Node::FilterProject { input, .. } => input.progress(out),
            Node::System {
                base,
                row_prefix,
                input,
                ..
            } => {
                if !*row_prefix {
                    // The input's consumed count is not a base-row prefix
                    // (a materialized sampler sits below): block coverage is
                    // unknowable, so report complete — conservative for
                    // scaling (no inflation; converges at exhaustion).
                    out.push((base.block_count(), base.block_count()));
                    return;
                }
                // Convert the row-level coverage of the underlying chain to
                // this relation's sampling unit: blocks. A partially scanned
                // block counts as covered (its tuples had their chance as a
                // group; the boundary error is at most one block). Slices
                // are block-aligned, so per-worker block ranges are disjoint
                // and sum to the full block count.
                let (start, next, end) =
                    input.scan_span().expect("row_prefix chains end in a scan");
                let blocks_seen = if next == start {
                    0
                } else {
                    base.block_of(next - 1) - base.block_of(start) + 1
                };
                let blocks_avail = if end == start {
                    0
                } else {
                    base.block_of(end - 1) - base.block_of(start) + 1
                };
                out.push((blocks_seen, blocks_avail));
            }
            Node::HashJoin { probe, build, .. } => {
                probe.progress(out);
                // Build side is fully materialized: complete coverage.
                out.extend(std::iter::repeat_n((1, 1), build.n_rels));
            }
            Node::NestedLoop { left, build, .. } => {
                left.progress(out);
                out.extend(std::iter::repeat_n((1, 1), build.n_rels));
            }
            Node::Dedup { first, second, .. } => {
                // Both branches sample the same relations, but the union's
                // true coverage is NOT a simple function of the two scan
                // prefixes (while the second branch streams, tuples unique
                // to it are still arriving even though the first branch
                // covered every position). This flat view reports the
                // *minimum* — complete only once both branches drained —
                // which is honest for display; the online driver's union
                // scaling reads [`Node::progress_tree`] instead, where each
                // branch's coverage stays separate for per-branch Prop-8
                // prefix composition.
                let mut a = Vec::new();
                let mut b = Vec::new();
                first.progress(&mut a);
                second.progress(&mut b);
                for ((ca, na), (cb, _)) in a.into_iter().zip(b) {
                    out.push((ca.min(cb), na));
                }
            }
        }
    }

    /// This subtree's coverage with union structure intact (see
    /// [`ProgressTree`] and [`ChunkStream::progress_tree`]).
    fn progress_tree(&self) -> ProgressTree {
        match self {
            // Pass-through operators: coverage lives below.
            Node::Bernoulli { input, .. }
            | Node::Filter { input, .. }
            | Node::Project { input, .. }
            | Node::FilterProject { input, .. } => input.progress_tree(),
            Node::HashJoin { probe, build, .. } => ProgressTree::concat(
                probe.progress_tree(),
                ProgressTree::Leaf(vec![(1, 1); build.n_rels]),
            ),
            Node::NestedLoop { left, build, .. } => ProgressTree::concat(
                left.progress_tree(),
                ProgressTree::Leaf(vec![(1, 1); build.n_rels]),
            ),
            Node::Dedup {
                first,
                second,
                on_second,
                ..
            } => ProgressTree::Union {
                left: Box::new(first.progress_tree()),
                right: Box::new(second.progress_tree()),
                second_started: *on_second,
            },
            // Leaves (scans, cursors, materialized samplers) and SYSTEM —
            // whose unit conversion `progress` already performs — have no
            // union structure below them.
            Node::Scan { .. }
            | Node::ShuffledScan { .. }
            | Node::Shared { .. }
            | Node::Materialized { .. }
            | Node::System { .. } => {
                let mut out = Vec::new();
                self.progress(&mut out);
                ProgressTree::Leaf(out)
            }
        }
    }

    /// True when this chain's consumed-row count is a prefix of base-table
    /// row ids (a scan, possibly through streaming per-row samplers) —
    /// false as soon as a materialized sampler or a block-unit rewrite sits
    /// below, because their counts index different units.
    fn is_scan_prefix(&self) -> bool {
        match self {
            Node::Scan { .. } => true,
            Node::Bernoulli { input, .. } => input.is_scan_prefix(),
            _ => false,
        }
    }

    /// The `(start, next, end)` row span of the scan at the bottom of a
    /// scan-prefix chain (`None` when [`Node::is_scan_prefix`] is false).
    fn scan_span(&self) -> Option<(u64, u64, u64)> {
        match self {
            Node::Scan {
                start, next, end, ..
            } => Some((*start, *next, *end)),
            Node::Bernoulli { input, .. } => input.scan_span(),
            _ => None,
        }
    }
}

/// A join's materialized build side: the columnar build rows, shared (via
/// `Arc`) by every worker stream that probes them, plus the
/// fingerprint-keyed hash table. The table maps the 64-bit key fingerprint
/// to the build row indices carrying it (in build order); probes verify
/// actual key equality against the stored rows, so fingerprint collisions
/// cost a comparison, never correctness.
#[derive(Debug)]
struct JoinBuild {
    chunk: ColumnarChunk,
    n_rels: usize,
    keys: EquiKeys,
    table: FxHashMap<u64, Vec<u32>>,
}

impl JoinBuild {
    fn new(chunk: ColumnarChunk, n_rels: usize, keys: EquiKeys) -> Self {
        let mut table: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        if !keys.is_empty() {
            let key_cols: Vec<&ColumnVec> =
                keys.iter().map(|(_, ri)| chunk.batch.column(*ri)).collect();
            for i in 0..chunk.rows() {
                if let Some(fp) = key_fingerprint(&key_cols, i) {
                    table.entry(fp).or_default().push(i as u32);
                }
            }
        }
        JoinBuild {
            chunk,
            n_rels,
            keys,
            table,
        }
    }

    /// Does build row `j`'s key equal probe row `i`'s (cell-by-cell, with
    /// the engine's cross-type numeric equality)?
    fn key_matches(&self, probe_cols: &[&ColumnVec], i: usize, j: u32) -> bool {
        self.keys
            .iter()
            .zip(probe_cols)
            .all(|((_, ri), pc)| pc.cell_eq(i, self.chunk.batch.column(*ri), j as usize))
    }

    /// The join operator over one probe node (hash join when equi-keys
    /// exist, nested loop otherwise).
    fn node(self: Arc<Self>, probe: Node, residual: Option<CompiledExpr>) -> Node {
        if self.keys.is_empty() {
            Node::NestedLoop {
                left: Box::new(probe),
                build: self,
                residual,
            }
        } else {
            Node::HashJoin {
                probe: Box::new(probe),
                build: self,
                residual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_expr::{col, eval, eval_predicate, lit};
    use sa_storage::{DataType, Field, TableBuilder, Value};

    /// The test-only reference executor the stream is checked against:
    /// unsampled scan, filter, project and nested-loop join, one row at a
    /// time over [`Table::row`] and the [`sa_expr::eval`] interpreter.
    /// Returns the output schema, lineage relations and rows, in the
    /// stream's order (probe rows in scan order, each with its matching
    /// build rows in build order).
    fn reference(plan: &LogicalPlan, catalog: &Catalog) -> (SchemaRef, Vec<String>, Vec<Row>) {
        match plan {
            LogicalPlan::Scan { table, alias } => {
                let (t, schema) = scan_schema(catalog, table, alias).unwrap();
                let rows = (0..t.row_count())
                    .map(|rid| Row {
                        values: t.row(rid).unwrap(),
                        lineage: vec![rid],
                    })
                    .collect();
                (schema, vec![alias.clone()], rows)
            }
            LogicalPlan::Filter { predicate, input } => {
                let (schema, rels, rows) = reference(input, catalog);
                let p = bind(predicate, &schema).unwrap();
                let rows = rows
                    .into_iter()
                    .filter(|r| eval_predicate(&p, &r.values).unwrap())
                    .collect();
                (schema, rels, rows)
            }
            LogicalPlan::Project { exprs, input } => {
                let (schema, rels, rows) = reference(input, catalog);
                let bound: Vec<Expr> = exprs
                    .iter()
                    .map(|(e, _)| bind(e, &schema).unwrap())
                    .collect();
                let fields = exprs
                    .iter()
                    .zip(&bound)
                    .map(|((_, name), e)| {
                        let dt = sa_expr::data_type(e, &schema).unwrap();
                        Field::new(name, dt.unwrap_or(DataType::Float))
                    })
                    .collect();
                let rows = rows
                    .into_iter()
                    .map(|r| Row {
                        values: bound.iter().map(|e| eval(e, &r.values).unwrap()).collect(),
                        lineage: r.lineage,
                    })
                    .collect();
                (Arc::new(Schema::new(fields).unwrap()), rels, rows)
            }
            LogicalPlan::Join {
                condition,
                left,
                right,
            } => {
                let (ls, mut rels, lrows) = reference(left, catalog);
                let (rs, rrels, rrows) = reference(right, catalog);
                let schema = Arc::new(ls.join(&rs).unwrap());
                rels.extend(rrels);
                let cond = condition.as_ref().map(|c| bind(c, &schema).unwrap());
                let mut rows = Vec::new();
                for l in &lrows {
                    for r in &rrows {
                        let mut values = l.values.clone();
                        values.extend(r.values.iter().cloned());
                        if cond
                            .as_ref()
                            .is_some_and(|c| !eval_predicate(c, &values).unwrap())
                        {
                            continue;
                        }
                        let mut lineage = l.lineage.clone();
                        lineage.extend(&r.lineage);
                        rows.push(Row { values, lineage });
                    }
                }
                (schema, rels, rows)
            }
            other => panic!("the reference executor runs no {}", other.node_label()),
        }
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema).with_block_rows(16);
        for i in 0..200 {
            b.push_row(&[Value::Int(i % 10), Value::Float(i as f64)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let schema2 = Schema::new(vec![
            Field::new("dk", DataType::Int),
            Field::new("w", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("d", schema2);
        for i in 0..10 {
            b.push_row(&[Value::Int(i), Value::Float(10.0 * i as f64)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    /// The streamed rows of an unsampled plan must equal the reference
    /// executor's, in order, for any chunk hint.
    fn assert_stream_matches_batch(plan: &LogicalPlan, hint: usize) {
        let c = catalog();
        let (schema, relations, rows) = reference(plan, &c);
        let stream = open_stream(plan, &c, &ExecOptions::default()).unwrap();
        assert_eq!(stream.schema().as_ref(), schema.as_ref());
        assert_eq!(stream.relations(), &relations[..]);
        let streamed = stream.collect_rows(hint).unwrap();
        assert_eq!(streamed, rows, "hint={hint}");
    }

    #[test]
    fn scan_filter_project_match_batch_for_many_hints() {
        let plan = LogicalPlan::scan("t")
            .filter(col("v").gt_eq(lit(25.0)))
            .project(vec![(col("v").mul(lit(2.0)), "vv".into())]);
        for hint in [1, 3, 64, 1000] {
            assert_stream_matches_batch(&plan, hint);
        }
    }

    #[test]
    fn hash_join_matches_batch() {
        let plan = LogicalPlan::scan("t").join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
        for hint in [1, 7, 512] {
            assert_stream_matches_batch(&plan, hint);
        }
    }

    #[test]
    fn theta_and_cross_joins_match_batch() {
        // v > w is not an equi-condition → nested loop with residual.
        let theta = LogicalPlan::scan("t").join_on(LogicalPlan::scan("d"), col("v").gt(col("w")));
        let cross = LogicalPlan::scan("t").cross(LogicalPlan::scan("d"));
        for hint in [1, 4, 300] {
            assert_stream_matches_batch(&theta, hint);
            assert_stream_matches_batch(&cross, hint);
        }
    }

    #[test]
    fn chunk_sizes_do_not_change_the_sample() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.3 });
        let c = catalog();
        let collect = |hint: usize| {
            open_stream(
                &plan,
                &c,
                &ExecOptions {
                    seed: 11,
                    ..Default::default()
                },
            )
            .unwrap()
            .collect_rows(hint)
            .unwrap()
        };
        let small = collect(2);
        let big = collect(500);
        assert_eq!(small, big, "sample realization must be chunk-independent");
        assert!(!small.is_empty() && small.len() < 200);
    }

    #[test]
    fn different_seeds_stream_different_samples() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
        let c = catalog();
        let sizes: HashSet<usize> = (0..20)
            .map(|s| {
                open_stream(
                    &plan,
                    &c,
                    &ExecOptions {
                        seed: s,
                        ..Default::default()
                    },
                )
                .unwrap()
                .collect_rows(64)
                .unwrap()
                .len()
            })
            .collect();
        assert!(sizes.len() > 1, "seed ignored");
    }

    #[test]
    fn system_sampling_rewrites_lineage_to_blocks() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::System { p: 1.0 });
        let c = catalog();
        let rows = open_stream(&plan, &c, &ExecOptions::default())
            .unwrap()
            .collect_rows(13)
            .unwrap();
        assert_eq!(rows.len(), 200);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.lineage, vec![(i as u64) / 16]);
        }
    }

    #[test]
    fn wor_sample_streams_exact_count() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Wor { size: 40 });
        let c = catalog();
        let rows = open_stream(
            &plan,
            &c,
            &ExecOptions {
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap()
        .collect_rows(7)
        .unwrap();
        assert_eq!(rows.len(), 40);
        let distinct: HashSet<u64> = rows.iter().map(|r| r.lineage[0]).collect();
        assert_eq!(distinct.len(), 40);
    }

    #[test]
    fn with_replacement_sample_repeats_input_rows() {
        // 300 draws from the 10-row table must repeat rows, and every
        // drawn row is an input row with its own lineage.
        let plan = LogicalPlan::scan("d").sample(SamplingMethod::WithReplacement { size: 300 });
        let c = catalog();
        let opts = ExecOptions {
            seed: 1,
            ..Default::default()
        };
        let rows = open_stream(&plan, &c, &opts)
            .unwrap()
            .collect_rows(64)
            .unwrap();
        assert_eq!(rows.len(), 300);
        let (_, _, input) = reference(&LogicalPlan::scan("d"), &c);
        for row in &rows {
            assert_eq!(row, &input[row.lineage[0] as usize]);
        }
        let distinct: HashSet<u64> = rows.iter().map(|r| r.lineage[0]).collect();
        assert!(distinct.len() <= 10);
        let empty = LogicalPlan::scan("d")
            .filter(col("w").lt(lit(0.0)))
            .sample(SamplingMethod::WithReplacement { size: 3 });
        assert!(open_stream(&empty, &c, &opts).is_err());
    }

    #[test]
    fn union_samples_dedups_by_lineage() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.4 })
            .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.4 }));
        let c = catalog();
        let rows = open_stream(
            &plan,
            &c,
            &ExecOptions {
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .collect_rows(16)
        .unwrap();
        let distinct: HashSet<&Vec<u64>> = rows.iter().map(|r| &r.lineage).collect();
        assert_eq!(distinct.len(), rows.len(), "duplicate lineage survived");
    }

    #[test]
    fn progress_tracks_scan_coverage() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
        let c = catalog();
        let mut s = open_stream(
            &plan,
            &c,
            &ExecOptions {
                seed: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // Probe side untouched, build side already complete.
        assert_eq!(s.progress(), vec![(0, 200), (1, 1)]);
        let mut last = 0;
        while !s.next_chunk(32).unwrap().is_empty() {
            let p = s.progress();
            assert!(p[0].0 > last && p[0].0 <= 200, "monotone scan coverage");
            last = p[0].0;
            assert_eq!(p[0].1, 200);
            assert_eq!(p[1], (1, 1));
        }
        assert_eq!(s.progress()[0], (200, 200), "drained scan is complete");
    }

    #[test]
    fn progress_counts_blocks_for_system_sampling() {
        // t has block_rows = 16 → 13 blocks (200 rows).
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::System { p: 1.0 });
        let c = catalog();
        let mut s = open_stream(&plan, &c, &ExecOptions::default()).unwrap();
        assert_eq!(s.progress(), vec![(0, 13)]);
        s.next_chunk(20).unwrap(); // 20 rows scanned → 2 blocks covered
        assert_eq!(s.progress(), vec![(2, 13)]);
        while !s.next_chunk(64).unwrap().is_empty() {}
        assert_eq!(s.progress(), vec![(13, 13)]);
    }

    #[test]
    fn progress_over_materialized_wor_counts_sample_rows() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Wor { size: 40 });
        let c = catalog();
        let mut s = open_stream(
            &plan,
            &c,
            &ExecOptions {
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(s.progress(), vec![(0, 40)]);
        s.next_chunk(15).unwrap();
        assert_eq!(s.progress(), vec![(15, 40)]);
        while !s.next_chunk(64).unwrap().is_empty() {}
        assert_eq!(s.progress(), vec![(40, 40)]);
    }

    #[test]
    fn union_progress_is_not_complete_until_both_branches_drain() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.4 })
            .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.4 }));
        let c = catalog();
        let mut s = open_stream(
            &plan,
            &c,
            &ExecOptions {
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let mut complete_since = None;
        let mut chunks = 0;
        loop {
            let chunk = s.next_chunk(16).unwrap();
            let (consumed, total) = s.progress()[0];
            if chunk.is_empty() {
                assert_eq!((consumed, total), (200, 200));
                break;
            }
            chunks += 1;
            // Once coverage claims completion, no further rows may arrive —
            // the old max-of-branches report declared completion when the
            // first branch drained, while tuples unique to the second were
            // still streaming in.
            assert!(
                complete_since.is_none(),
                "rows arrived after completion was claimed at chunk {complete_since:?}"
            );
            if consumed >= total {
                complete_since = Some(chunks);
            }
        }
    }

    #[test]
    fn system_over_wor_progress_reports_complete_not_inflated() {
        // The WOR sample's consumed count indexes *sample* rows, not base
        // row ids; block coverage is unknowable, so it must be reported
        // complete rather than converted (which would claim ~1 of 13 blocks
        // and inflate scaled estimates ~13x).
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Wor { size: 40 })
            .sample(SamplingMethod::System { p: 1.0 });
        let c = catalog();
        let mut s = open_stream(
            &plan,
            &c,
            &ExecOptions {
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        s.next_chunk(15).unwrap();
        assert_eq!(s.progress(), vec![(13, 13)]);
    }

    /// Drain a stream into rows with the given chunk hint.
    fn drain(mut s: ChunkStream, hint: usize) -> Vec<Row> {
        let mut out = Vec::new();
        loop {
            let chunk = s.next_chunk(hint).unwrap();
            if chunk.is_empty() {
                return out;
            }
            out.extend(chunk);
        }
    }

    /// Element-wise sum of per-worker progress reports.
    fn summed_progress(streams: &[ChunkStream]) -> Vec<(u64, u64)> {
        let mut total = vec![(0u64, 0u64); streams[0].relations().len()];
        for s in streams {
            for (t, (c, n)) in total.iter_mut().zip(s.progress()) {
                t.0 += c;
                t.1 += n;
            }
        }
        total
    }

    #[test]
    fn partitioned_streams_are_sendable() {
        fn assert_send<T: Send>() {}
        assert_send::<ChunkStream>();
    }

    #[test]
    fn one_partition_is_the_sequential_stream() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.4 })
            .filter(col("v").gt_eq(lit(10.0)));
        let c = catalog();
        let opts = ExecOptions {
            seed: 11,
            ..Default::default()
        };
        let seq = open_stream(&plan, &c, &opts)
            .unwrap()
            .collect_rows(64)
            .unwrap();
        let mut parts = open_stream_partitioned(&plan, &c, &opts, 1).unwrap();
        assert_eq!(parts.len(), 1);
        let rows = parts.pop().unwrap().collect_rows(64).unwrap();
        assert_eq!(rows, seq, "parts = 1 must be byte-identical to open_stream");
    }

    #[test]
    fn partitioned_scan_concatenates_to_the_sequential_rows() {
        // No per-tuple Bernoulli on the spine → the union of the worker
        // slices IS the sequential realization, in worker-index order.
        let c = catalog();
        for plan in [
            LogicalPlan::scan("t"),
            LogicalPlan::scan("t")
                .filter(col("v").gt_eq(lit(25.0)))
                .project(vec![(col("v").mul(lit(2.0)), "vv".into())]),
            LogicalPlan::scan("t").sample(SamplingMethod::Wor { size: 40 }),
            LogicalPlan::scan("t").sample(SamplingMethod::System { p: 0.6 }),
            LogicalPlan::scan("t").join_on(LogicalPlan::scan("d"), col("k").eq(col("dk"))),
        ] {
            let opts = ExecOptions {
                seed: 5,
                ..Default::default()
            };
            let seq = open_stream(&plan, &c, &opts)
                .unwrap()
                .collect_rows(32)
                .unwrap();
            for parts in [2usize, 3, 5] {
                let streams = open_stream_partitioned(&plan, &c, &opts, parts).unwrap();
                assert_eq!(streams.len(), parts);
                let rows: Vec<Row> = streams.into_iter().flat_map(|s| drain(s, 17)).collect();
                assert_eq!(rows, seq, "parts={parts} plan={plan:?}");
            }
        }
    }

    #[test]
    fn partitioned_bernoulli_slices_are_disjoint_and_deterministic() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
        let c = catalog();
        let opts = ExecOptions {
            seed: 9,
            ..Default::default()
        };
        let collect = || -> Vec<Vec<Row>> {
            open_stream_partitioned(&plan, &c, &opts, 4)
                .unwrap()
                .into_iter()
                .map(|s| drain(s, 16))
                .collect()
        };
        let a = collect();
        assert_eq!(a, collect(), "same (plan, seed, parts) must replay exactly");
        let all: Vec<u64> = a.iter().flatten().map(|r| r.lineage[0]).collect();
        let distinct: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "worker slices must be disjoint");
        assert!(all.len() > 50 && all.len() < 150, "p=0.5 of 200 rows");
        // Worker slices are contiguous and ordered: every row of worker w
        // precedes every row of worker w+1.
        for w in 1..a.len() {
            let prev_max = a[w - 1].iter().map(|r| r.lineage[0]).max();
            let cur_min = a[w].iter().map(|r| r.lineage[0]).min();
            if let (Some(p), Some(c)) = (prev_max, cur_min) {
                assert!(p < c, "slice {w} overlaps slice {}", w - 1);
            }
        }
    }

    #[test]
    fn partitioned_progress_sums_to_full_relation_coverage() {
        // t: 200 rows; d joins as a fully-materialized build side.
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
        let c = catalog();
        let mut streams = open_stream_partitioned(
            &plan,
            &c,
            &ExecOptions {
                seed: 1,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        assert_eq!(summed_progress(&streams), vec![(0, 200), (3, 3)]);
        let mut last = 0u64;
        loop {
            let mut any = false;
            for s in streams.iter_mut() {
                any |= !s.next_chunk(16).unwrap().is_empty();
            }
            let p = summed_progress(&streams);
            assert!(p[0].0 >= last && p[0].1 == 200, "monotone summed coverage");
            last = p[0].0;
            if !any {
                break;
            }
        }
        assert_eq!(summed_progress(&streams)[0], (200, 200));
    }

    #[test]
    fn partitioned_system_blocks_sum_to_block_count() {
        // 200 rows, block_rows 16 → 13 blocks split over 4 workers.
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::System { p: 1.0 });
        let c = catalog();
        let mut streams = open_stream_partitioned(&plan, &c, &ExecOptions::default(), 4).unwrap();
        assert_eq!(summed_progress(&streams)[0], (0, 13));
        for s in streams.iter_mut() {
            while !s.next_chunk(64).unwrap().is_empty() {}
        }
        assert_eq!(summed_progress(&streams)[0], (13, 13));
    }

    #[test]
    fn oversubscribed_partitioning_degrades_gracefully() {
        // d has 10 rows (one block): far more workers than blocks — extra
        // workers get empty slices and drain immediately.
        let plan = LogicalPlan::scan("d");
        let c = catalog();
        let streams = open_stream_partitioned(&plan, &c, &ExecOptions::default(), 64).unwrap();
        assert_eq!(streams.len(), 64);
        let rows: Vec<Row> = streams.into_iter().flat_map(|s| drain(s, 4)).collect();
        assert_eq!(rows.len(), 10, "every row exactly once");
    }

    #[test]
    fn partitioned_union_and_aggregate_and_zero_parts_rejected() {
        let c = catalog();
        let union = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.4 })
            .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.4 }));
        let err = open_stream_partitioned(&union, &c, &ExecOptions::default(), 2).unwrap_err();
        assert!(err.to_string().contains("UNION"), "{err}");
        let agg = LogicalPlan::scan("t").aggregate(vec![sa_plan::AggSpec::count_star("c")]);
        assert!(open_stream_partitioned(&agg, &c, &ExecOptions::default(), 2).is_err());
        let scan = LogicalPlan::scan("t");
        assert!(open_stream_partitioned(&scan, &c, &ExecOptions::default(), 0).is_err());
    }

    #[test]
    fn aggregate_root_rejected() {
        let plan = LogicalPlan::scan("t").aggregate(vec![sa_plan::AggSpec::count_star("c")]);
        assert!(open_stream(&plan, &catalog(), &ExecOptions::default()).is_err());
    }

    #[test]
    fn exhausted_stream_keeps_returning_empty() {
        let plan = LogicalPlan::scan("d");
        let mut s = open_stream(&plan, &catalog(), &ExecOptions::default()).unwrap();
        let mut total = 0;
        loop {
            let chunk = s.next_chunk(4).unwrap();
            if chunk.is_empty() {
                break;
            }
            total += chunk.len();
        }
        assert_eq!(total, 10);
        assert_eq!(s.rows_yielded(), 10);
        assert!(s.next_chunk(4).unwrap().is_empty());
    }

    #[test]
    fn filter_under_project_fuses_and_matches_unfused() {
        // With pushdown on, a Filter directly on a Scan is eaten by the
        // scan itself (masked before materialization); with pushdown off,
        // Project(Filter(x)) falls back to the fused FilterProject
        // operator. Both shapes must produce identical rows.
        let fused = LogicalPlan::scan("t")
            .filter(col("v").gt_eq(lit(25.0)).and(col("k").lt(lit(8i64))))
            .project(vec![
                (col("v").mul(lit(2.0)), "vv".into()),
                (col("k"), "k".into()),
            ]);
        let c = catalog();
        let streams = open_stream_partitioned(&fused, &c, &ExecOptions::default(), 1).unwrap();
        match &streams[0].root {
            Node::Project { input, .. } => assert!(
                matches!(&**input, Node::Scan { gather, .. } if gather.predicate.is_some()),
                "filter directly on a scan must push into the scan"
            ),
            other => panic!("expected Project over predicated Scan, got {other:?}"),
        }
        let off = ExecOptions {
            disable_pushdown: true,
            ..Default::default()
        };
        let streams = open_stream_partitioned(&fused, &c, &off, 1).unwrap();
        assert!(
            matches!(streams[0].root, Node::FilterProject { .. }),
            "with pushdown off, filter under project must fuse into FilterProject"
        );
        for hint in [1, 9, 100] {
            assert_stream_matches_batch(&fused, hint);
        }
    }

    #[test]
    fn fused_filter_project_drains_cleanly_under_another_project() {
        // Regression: the fused operator's exhaustion chunk must carry the
        // PROJECTED column layout (kernels are remapped onto `used`), or an
        // expression-evaluating consumer above — here an outer Project —
        // errors on the final empty pull instead of draining.
        let plan = LogicalPlan::scan("t")
            .filter(col("v").gt_eq(lit(10.0)))
            .project(vec![(col("v").mul(lit(2.0)), "x".into())])
            .project(vec![(col("x").add(lit(1.0)), "y".into())]);
        for hint in [1, 7, 1000] {
            assert_stream_matches_batch(&plan, hint);
        }
        // Exhaustion also stays clean when the fused operator feeds a
        // join's probe side (join_output evaluates over the empty chunk).
        let joined = LogicalPlan::scan("t")
            .filter(col("v").gt_eq(lit(10.0)))
            .project(vec![(col("k"), "k".into())])
            .join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
        assert_stream_matches_batch(&joined, 64);
    }

    #[test]
    fn columnar_batches_match_row_adapter() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.6 })
            .filter(col("v").gt_eq(lit(10.0)));
        let c = catalog();
        let opts = ExecOptions {
            seed: 4,
            ..Default::default()
        };
        let mut via_batch = open_stream(&plan, &c, &opts).unwrap();
        let mut via_rows = open_stream(&plan, &c, &opts).unwrap();
        loop {
            let batch = via_batch.next_batch(33).unwrap();
            let rows = via_rows.next_chunk(33).unwrap();
            assert_eq!(batch.to_rows(), rows);
            if rows.is_empty() {
                break;
            }
        }
    }

    #[test]
    fn nan_join_keys_match_like_the_reference_executor() {
        // Value::total_cmp says NaN == NaN, and the interpreter's join
        // predicate honours that — the fingerprint join must
        // too (hash_cell already hashes every NaN identically; cell_eq
        // must agree).
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Float),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("l", schema);
        for v in [f64::NAN, 1.0, 2.0, f64::NAN] {
            b.push_row(&[Value::Float(v), Value::Float(10.0)]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let schema = Schema::new(vec![
            Field::new("rk", DataType::Float),
            Field::new("w", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("r", schema);
        for v in [f64::NAN, 2.0] {
            b.push_row(&[Value::Float(v), Value::Float(20.0)]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let plan = LogicalPlan::scan("l").join_on(LogicalPlan::scan("r"), col("k").eq(col("rk")));
        let (_, _, batch) = reference(&plan, &c);
        let rows = open_stream(&plan, &c, &ExecOptions::default())
            .unwrap()
            .collect_rows(8)
            .unwrap();
        assert_eq!(rows.len(), 3, "two NaN matches + the 2.0 match");
        assert_eq!(rows, batch);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut c = catalog();
        let schema = Schema::new(vec![Field::new("k3", DataType::Int)]).unwrap();
        let mut b = TableBuilder::new("n", schema);
        for v in [Value::Null, Value::Int(1), Value::Null] {
            b.push_row(&[v]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let plan = LogicalPlan::scan("n").join_on(LogicalPlan::scan("d"), col("k3").eq(col("dk")));
        let (_, _, batch) = reference(&plan, &c);
        let rows = open_stream(&plan, &c, &ExecOptions::default())
            .unwrap()
            .collect_rows(2)
            .unwrap();
        assert_eq!(rows.len(), 1, "only k3 = 1 matches");
        assert_eq!(rows, batch);
    }

    #[test]
    fn shared_stream_at_origin_zero_matches_private_stream() {
        // A fresh hub's first cursor starts at physical row 0, and the
        // Bernoulli seed derivation is identical to the private path — so
        // the realization must be byte-identical to open_stream.
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.4 })
            .filter(col("v").gt_eq(lit(10.0)))
            .project(vec![(col("v").mul(lit(2.0)), "vv".into())]);
        let c = catalog();
        let opts = ExecOptions {
            seed: 11,
            ..Default::default()
        };
        let private = open_stream(&plan, &c, &opts)
            .unwrap()
            .collect_rows(64)
            .unwrap();
        let hub = Arc::new(SharedTableScan::new(c.get("t").unwrap(), 32));
        let shared = open_shared_stream(&plan, &c, &opts, &hub)
            .unwrap()
            .collect_rows(17)
            .unwrap();
        assert_eq!(shared, private);
        assert_eq!(hub.rows_gathered(), 200);
    }

    #[test]
    fn shared_stream_progress_covers_the_whole_relation() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
        let c = catalog();
        let hub = Arc::new(SharedTableScan::new(c.get("t").unwrap(), 64));
        // Advance the hub so the stream attaches mid-scan.
        let mut warm = hub.attach();
        warm.next_batch(64).unwrap();
        drop(warm);
        let mut s = open_shared_stream(
            &plan,
            &c,
            &ExecOptions {
                seed: 3,
                ..Default::default()
            },
            &hub,
        )
        .unwrap();
        assert_eq!(s.progress(), vec![(0, 200)]);
        let mut last = 0;
        while !s.next_chunk(32).unwrap().is_empty() {
            let (consumed, total) = s.progress()[0];
            assert!(consumed > last && total == 200);
            last = consumed;
        }
        assert_eq!(s.progress(), vec![(200, 200)], "full circular coverage");
    }

    #[test]
    fn ineligible_plans_are_rejected_for_shared_scans() {
        let c = catalog();
        let hub = Arc::new(SharedTableScan::new(c.get("t").unwrap(), 64));
        let join = LogicalPlan::scan("t").join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
        let system = LogicalPlan::scan("t").sample(SamplingMethod::System { p: 0.5 });
        let wor = LogicalPlan::scan("t").sample(SamplingMethod::Wor { size: 10 });
        let other = LogicalPlan::scan("d");
        for plan in [&join, &system, &wor] {
            assert!(shared_scan_table(plan).is_none());
            assert!(open_shared_stream(plan, &c, &ExecOptions::default(), &hub).is_err());
        }
        // Eligible shape, wrong table for this hub.
        assert_eq!(shared_scan_table(&other), Some("d"));
        let err = open_shared_stream(&other, &c, &ExecOptions::default(), &hub).unwrap_err();
        assert!(err.to_string().contains("'t'"), "{err}");
    }

    #[test]
    fn join_fingerprint_table_checks_stored_keys() {
        // Cross-type keys: t.k is Int, join against a Float-typed key
        // column — numeric equality must hold and the fingerprint bucket's
        // stored-key verification must reject non-equal keys that share a
        // bucket.
        let mut c = catalog();
        let schema = Schema::new(vec![
            Field::new("fk", DataType::Float),
            Field::new("u", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("f", schema);
        for i in 0..10 {
            b.push_row(&[Value::Float(i as f64), Value::Float(100.0 + i as f64)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let plan = LogicalPlan::scan("t").join_on(LogicalPlan::scan("f"), col("k").eq(col("fk")));
        let (_, _, batch) = reference(&plan, &c);
        let rows = open_stream(&plan, &c, &ExecOptions::default())
            .unwrap()
            .collect_rows(64)
            .unwrap();
        assert_eq!(rows, batch);
        assert_eq!(rows.len(), 200, "every t row matches exactly one f row");
    }

    fn shuffled(seed: u64) -> ExecOptions {
        ExecOptions {
            seed,
            shuffle_scan: true,
            ..Default::default()
        }
    }

    #[test]
    fn shuffled_scan_permutes_blocks_and_covers_every_row() {
        // An unsampled shuffled scan emits every row exactly once, in a
        // non-physical order (13 blocks of 16 rows — the identity
        // permutation would be astronomically unlucky across seeds).
        let c = catalog();
        let plan = LogicalPlan::scan("t");
        let mut permuted = false;
        for seed in 0..4 {
            let rows = open_stream(&plan, &c, &shuffled(seed))
                .unwrap()
                .collect_rows(64)
                .unwrap();
            assert_eq!(rows.len(), 200);
            let mut ids: Vec<u64> = rows.iter().map(|r| r.lineage[0]).collect();
            if ids.windows(2).any(|w| w[0] > w[1]) {
                permuted = true;
            }
            ids.sort_unstable();
            assert_eq!(ids, (0..200).collect::<Vec<u64>>(), "seed={seed}");
        }
        assert!(permuted, "no seed permuted the block order");
    }

    #[test]
    fn shuffled_scan_is_byte_reproducible_and_chunk_independent() {
        let c = catalog();
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.4 });
        let collect = |hint: usize| {
            open_stream(&plan, &c, &shuffled(9))
                .unwrap()
                .collect_rows(hint)
                .unwrap()
        };
        let a = collect(3);
        let b = collect(512);
        assert_eq!(a, b, "same seed, same realization, any chunk hint");
        let other = open_stream(&plan, &c, &shuffled(10))
            .unwrap()
            .collect_rows(64)
            .unwrap();
        assert_ne!(a, other, "the shuffle seed must matter");
    }

    #[test]
    fn shuffled_scan_keeps_physical_lineage_and_progress() {
        // Lineage ids stay physical row positions (the estimator keys on
        // them); progress counts emitted rows against the full table.
        let c = catalog();
        let plan = LogicalPlan::scan("t");
        let mut stream = open_stream(&plan, &c, &shuffled(5)).unwrap();
        // A shuffled scan under-fills the hint at block boundaries (one
        // permuted block per gather keeps the columnar copy contiguous).
        let chunk = stream.next_batch(48).unwrap();
        assert_eq!(chunk.rows(), 16, "one 16-row block per gather");
        for ids in &chunk.lineage {
            assert!(ids.iter().all(|&i| i < 200));
        }
        assert_eq!(stream.progress(), vec![(16, 200)]);
    }

    #[test]
    fn shuffled_scan_partitions_stay_disjoint_and_exhaustive() {
        let c = catalog();
        let plan = LogicalPlan::scan("t");
        let streams = open_stream_partitioned(&plan, &c, &shuffled(21), 3).unwrap();
        let mut all: Vec<u64> = Vec::new();
        for s in streams {
            let rows = s.collect_rows(32).unwrap();
            all.extend(rows.iter().map(|r| r.lineage[0]));
        }
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn shuffle_off_keeps_the_physical_scan_order() {
        // The shuffle seed is drawn from the master RNG only when the flag
        // is on, so off-mode streams are untouched: physical order, same
        // realization as before the flag existed.
        let c = catalog();
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
        let off = ExecOptions {
            seed: 3,
            shuffle_scan: false,
            ..Default::default()
        };
        let rows = open_stream(&plan, &c, &off)
            .unwrap()
            .collect_rows(64)
            .unwrap();
        let ids: Vec<u64> = rows.iter().map(|r| r.lineage[0]).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "off-mode lineage must stay monotone (physical scan order)"
        );
    }

    #[test]
    fn shuffled_scan_refuses_shared_hubs() {
        let c = catalog();
        let hub = Arc::new(SharedTableScan::new(c.get("t").unwrap(), 64));
        let err = open_shared_stream(&LogicalPlan::scan("t"), &c, &shuffled(1), &hub).unwrap_err();
        assert!(err.to_string().contains("shared"), "{err}");
    }

    #[test]
    fn progress_tree_tracks_union_branches() {
        // Branch 1 drains fully before branch 2 starts; the tree exposes
        // per-branch coverage plus the second_started flip the online
        // driver's per-branch scaling keys on.
        let c = catalog();
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 }));
        let mut stream = open_stream(&plan, &c, &ExecOptions::default()).unwrap();
        let mut saw_first_only = false;
        let mut saw_second = false;
        loop {
            let chunk = stream.next_batch(16).unwrap();
            match stream.progress_tree() {
                ProgressTree::Union {
                    left,
                    right,
                    second_started,
                } => {
                    let (ProgressTree::Leaf(l), ProgressTree::Leaf(r)) = (*left, *right) else {
                        panic!("union branches over one scan each must be leaves");
                    };
                    assert_eq!(l.len(), 1);
                    assert_eq!(r.len(), 1);
                    if second_started {
                        saw_second = true;
                        assert_eq!(l[0], (200, 200), "branch 1 drains before branch 2");
                    } else {
                        saw_first_only = true;
                        assert_eq!(r[0].0, 0, "branch 2 untouched while branch 1 streams");
                    }
                }
                other => panic!("union plan must report a union progress tree, got {other:?}"),
            }
            if chunk.is_empty() {
                break;
            }
        }
        assert!(saw_first_only && saw_second);
        // Flat progress still reports the conservative min view.
        assert_eq!(stream.progress(), vec![(200, 200)]);
    }

    #[test]
    fn progress_tree_flattens_union_free_joins() {
        let c = catalog();
        let plan = LogicalPlan::scan("t").join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
        let mut stream = open_stream(&plan, &c, &ExecOptions::default()).unwrap();
        stream.next_batch(32).unwrap();
        let ProgressTree::Leaf(cov) = stream.progress_tree() else {
            panic!("a union-free join must flatten to one leaf");
        };
        assert_eq!(cov.len(), 2, "probe relation first, build relation after");
        assert_eq!(cov[1], (1, 1), "materialized build side is fully covered");
    }
}
