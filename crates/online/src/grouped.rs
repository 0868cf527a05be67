//! Grouped online aggregation: per-group accumulators, per-group stopping.
//!
//! `GroupedReadout` is the `GROUP BY` result shape of the one
//! progressive loop (`crate::driver::drive`; the [`crate::Engine`] picks
//! it when a query has a `GROUP BY` list). The GUS algebra needs nothing
//! new for it: a group's SUM is the SUM-like aggregate of
//! `f_g(t) = f(t)·1{key(t) = g}` — the group indicator is just another
//! selection (Proposition 5) — so the *same* top GUS from the one-time SOA
//! rewrite analyzes every group, and each group gets its own unbiased
//! estimate and variance. Each chunk is partitioned by group key into the
//! incremental [`sa_core::GroupedMomentAccumulator`], the loop applies the
//! scan-progress GUS scaling (Proposition 8) once per snapshot, and every
//! discovered group is read out in O(1)-in-rows.
//!
//! ## Per-group stopping
//!
//! Accuracy is judged **per group**: a `WITHIN ε PERCENT CONFIDENCE γ`
//! target fires only when *every discovered group's* worst relative CI
//! half-width is ≤ ε — one straggler group keeps the loop running. For
//! long-tailed group counts that is often too strict (a group seen twice
//! may never tighten), so [`QueryOptions::ci_top_k`] restricts the
//! *stopping decision* to the K groups with the largest absolute estimates;
//! tail groups are still estimated and reported honestly, they just don't
//! hold up termination. Row and time budgets stay **global**, exactly as for
//! scalar queries.
//!
//! Groups with no sampled tuple yet are absent from snapshots (the honest
//! classical caveat of sampling-based GROUP BY); each
//! [`GroupedProgressSnapshot`] reports how many groups the latest tick
//! discovered, so a caller can tell when discovery has plateaued.
//!
//! At exhaustion every scan-progress factor degenerates to the identity and
//! each group's readout **equals the batch grouped estimator's output** on
//! the consumed sample — pinned to 1e-9 by `tests/online_grouped.rs`.

use std::hash::Hasher;

use sa_core::hash::{FxHashMap, FxHasher};
use sa_core::{GroupedMomentAccumulator, GusParams};
use sa_exec::{AggResult, ColumnarChunk, ExecError};
use sa_expr::{compile, CompiledExpr, Expr};
use sa_plan::StoppingRule;
use sa_storage::{ColumnVec, Schema, Value};

use crate::api::{QueryOptions, Snapshot};
use crate::driver::{worst_rel_half_width, Aggregates, ProgressSnapshot, Readout, Tick};
use crate::error::Error;
use crate::parallel::Feed;
use crate::Result;

/// One group's state within a [`GroupedProgressSnapshot`].
#[derive(Debug, Clone)]
pub struct GroupProgress {
    /// The group key values, in `group_by` order.
    pub key: Vec<Value>,
    /// One result per aggregate in the `SELECT` list, judged at the
    /// snapshot's confidence level.
    pub aggs: Vec<AggResult>,
    /// Sampled result tuples routed to this group so far.
    pub sample_rows: u64,
    /// Worst (largest) relative CI half-width across this group's
    /// aggregates; `None` while some variance is not yet estimable.
    pub rel_half_width: Option<f64>,
    /// True when this group meets the stopping rule's CI target at this
    /// snapshot (always false without a CI target).
    pub converged: bool,
    /// True when this group counts toward the stopping decision (always
    /// true unless a [`QueryOptions::ci_top_k`] policy demoted it).
    pub tracked: bool,
}

/// The state of all per-group estimates after one chunk of the progressive
/// loop.
#[derive(Debug, Clone)]
pub struct GroupedProgressSnapshot {
    /// 1-based snapshot index. In the sequential loop (`parallelism = 1`)
    /// this equals the number of pulled chunks; with workers it counts
    /// coordinator ticks, each of which may absorb several worker chunks.
    pub chunk: u64,
    /// Cumulative sampled result tuples consumed (all groups).
    pub rows: u64,
    /// Renderings of the `GROUP BY` expressions.
    pub group_exprs: Vec<String>,
    /// Every group observed so far, ordered by key (deterministic).
    pub groups: Vec<GroupProgress>,
    /// Groups first discovered by the chunk this snapshot follows.
    pub new_groups: u64,
    /// Worst relative CI half-width across the **tracked** groups — the
    /// quantity the CI stopping target is judged on. `None` while no group
    /// has been discovered or some tracked group is not yet estimable.
    pub rel_half_width: Option<f64>,
    /// Confidence level the snapshot's intervals were computed at.
    pub confidence: f64,
    /// Per-relation `(consumed, available)` scan coverage (see
    /// [`sa_exec::ChunkStream::progress`]).
    pub progress: Vec<(u64, u64)>,
    /// The GUS every group was read under: the plan GUS compacted with the
    /// scan-progress factors (shared by all groups — one compaction per
    /// snapshot, not per group).
    pub gus: sa_core::GusParams,
    /// Wall time since the loop started.
    pub elapsed: std::time::Duration,
}

/// The grouped result shape: the query's [`Aggregates`] per group key.
pub(crate) struct GroupedReadout<'p> {
    aggs: Aggregates<'p>,
    keys: Vec<CompiledExpr>,
    pub(crate) group_exprs: Vec<String>,
    rule: StoppingRule,
    ci_top_k: Option<usize>,
}

impl<'p> GroupedReadout<'p> {
    /// Compile the `group_by` keys against the stream `schema`.
    pub(crate) fn new(
        aggs: Aggregates<'p>,
        group_by: &[Expr],
        schema: &Schema,
        opts: &QueryOptions,
    ) -> Result<Self> {
        let keys = group_by
            .iter()
            .map(|e| compile(e, schema))
            .collect::<std::result::Result<_, _>>()
            .map_err(ExecError::Expr)?;
        Ok(GroupedReadout {
            aggs,
            keys,
            group_exprs: group_by.iter().map(|e| e.to_string()).collect(),
            rule: opts.rule.clone(),
            ci_top_k: opts.ci_top_k,
        })
    }

    /// Read every discovered group out of `acc` under `gus`, in
    /// deterministic key order, apply the top-K tracking policy, and return
    /// the table plus the tracked worst relative half-width.
    pub(crate) fn groups(
        &self,
        acc: &GroupedMomentAccumulator<Vec<Value>>,
        gus: &GusParams,
    ) -> Result<(Vec<GroupProgress>, Option<f64>)> {
        let mut keys: Vec<Vec<Value>> = acc.keys().cloned().collect();
        keys.sort();
        let mut groups = Vec::with_capacity(keys.len());
        for key in keys {
            let slot = acc.group(&key).expect("key just listed");
            let agg_results = self.aggs.results(&slot.report(gus)?);
            let rel = worst_rel_half_width(&agg_results);
            let converged = match (self.rule.ci_target, rel) {
                (Some(t), Some(r)) => r.is_finite() && r <= t.epsilon,
                _ => false,
            };
            groups.push(GroupProgress {
                key,
                aggs: agg_results,
                sample_rows: slot.count(),
                rel_half_width: rel,
                converged,
                tracked: true,
            });
        }
        apply_top_k_policy(&mut groups, self.ci_top_k);
        let rel_half_width = tracked_rel_half_width(&groups);
        Ok((groups, rel_half_width))
    }
}

impl Feed for GroupedReadout<'_> {
    type Acc = GroupedMomentAccumulator<Vec<Value>>;

    fn new_acc(&self) -> Self::Acc {
        GroupedMomentAccumulator::new(self.aggs.relations, self.aggs.layout.dims())
    }

    /// Route one chunk into the grouped accumulator: evaluate the key
    /// kernels and the aggregate dimensions once per chunk, partition the
    /// rows by a 64-bit key fingerprint, and feed each partition through the
    /// amortized [`GroupedMomentAccumulator::push_batch`] path — the group
    /// key tuple is materialized once per (chunk × group), not once per row.
    /// Rows whose key collides with a different key's fingerprint
    /// (astronomically rare; detected by comparing against the partition's
    /// representative row) fall back to individual pushes with their own
    /// key.
    fn push(&self, acc: &mut Self::Acc, chunk: &ColumnarChunk) -> Result<()> {
        let key_cols: Vec<ColumnVec> = self
            .keys
            .iter()
            .map(|k| k.eval_column(&chunk.batch))
            .collect::<std::result::Result<_, _>>()
            .map_err(|e| Error::Exec(ExecError::Expr(e)))?;
        let f_cols = self.aggs.dim_eval.eval(&chunk.batch)?;
        let rows = chunk.rows();
        // Partition row indices by key fingerprint, in first-seen order (the
        // accumulation order is deterministic for a fixed seed and chunking).
        let mut parts: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        let mut order: Vec<u64> = Vec::new();
        for i in 0..rows {
            let mut h = FxHasher::default();
            for c in &key_cols {
                c.hash_cell(i, &mut h);
            }
            // splitmix64 finalization: cell hashes carry their entropy in the
            // high bits (f64 bit patterns), which Fx's multiply-only mixing
            // never propagates down into the map's bucket-index bits.
            let fp = sa_core::hash::splitmix64(h.finish());
            parts
                .entry(fp)
                .or_insert_with(|| {
                    order.push(fp);
                    Vec::new()
                })
                .push(i as u32);
        }
        let materialize_key =
            |row: usize| -> Vec<Value> { key_cols.iter().map(|c| c.value(row)).collect() };
        let mut lin_scratch: Vec<Vec<u64>> = vec![Vec::new(); chunk.lineage.len()];
        let mut f_scratch: Vec<Vec<f64>> = vec![Vec::new(); f_cols.len()];
        for fp in order {
            let idxs = &parts[&fp];
            let rep = idxs[0] as usize;
            for s in lin_scratch.iter_mut() {
                s.clear();
            }
            for s in f_scratch.iter_mut() {
                s.clear();
            }
            let mut stragglers: Vec<u32> = Vec::new();
            for &i in idxs {
                let i = i as usize;
                // Stored-key collision check against the representative row.
                if i != rep && !key_cols.iter().all(|c| group_cell_eq(c, i, rep)) {
                    stragglers.push(i as u32);
                    continue;
                }
                for (s, l) in lin_scratch.iter_mut().zip(&chunk.lineage) {
                    s.push(l[i]);
                }
                for (s, f) in f_scratch.iter_mut().zip(&f_cols) {
                    s.push(f[i]);
                }
            }
            let lineage: Vec<&[u64]> = lin_scratch.iter().map(|s| s.as_slice()).collect();
            let f: Vec<&[f64]> = f_scratch.iter().map(|s| s.as_slice()).collect();
            acc.push_batch(materialize_key(rep), &lineage, &f)?;
            for i in stragglers {
                let i = i as usize;
                let lin: Vec<u64> = chunk.lineage.iter().map(|l| l[i]).collect();
                let fv: Vec<f64> = f_cols.iter().map(|f| f[i]).collect();
                acc.push(materialize_key(i), &lin, &fv)?;
            }
        }
        Ok(())
    }

    fn absorb(&self, acc: &mut Self::Acc, delta: &Self::Acc) -> Result<()> {
        Ok(acc.merge(delta)?)
    }

    fn rows(&self, acc: &Self::Acc) -> u64 {
        acc.count()
    }
}

/// Group-identity equality of two cells of one evaluated key column: like
/// SQL `GROUP BY` (and unlike join keys), `NULL` groups with `NULL`.
fn group_cell_eq(col: &ColumnVec, i: usize, j: usize) -> bool {
    match (col.is_valid(i), col.is_valid(j)) {
        (false, false) => true,
        (true, true) => col.cell_eq(i, col, j),
        _ => false,
    }
}

impl Readout for GroupedReadout<'_> {
    fn read(&self, acc: &Self::Acc, gus: GusParams, tick: Tick<'_>) -> Result<Snapshot> {
        let (groups, rel_half_width) = self.groups(acc, &gus)?;
        // Discovery is judged on the merged view: a group two workers found
        // independently still counts as one discovery.
        let known = tick
            .prev
            .and_then(Snapshot::as_grouped)
            .map_or(0, |p| p.groups.len());
        Ok(Snapshot::Grouped(GroupedProgressSnapshot {
            chunk: tick.chunk,
            rows: acc.count(),
            group_exprs: self.group_exprs.clone(),
            new_groups: groups.len().saturating_sub(known) as u64,
            groups,
            rel_half_width,
            confidence: self.aggs.confidence,
            progress: tick.progress,
            gus,
            elapsed: tick.elapsed,
        }))
    }
}

/// Demote all but the `k` groups with the largest absolute first-aggregate
/// estimates to untracked. Ties (and NaN estimates, ranked below every
/// finite magnitude — an inestimable group must not hold up the stop that
/// `ci_top_k` exists to unblock) break by key order, so the tracked set is
/// deterministic.
fn apply_top_k_policy(groups: &mut [GroupProgress], ci_top_k: Option<usize>) {
    let Some(k) = ci_top_k else { return };
    if groups.len() <= k {
        return;
    }
    let magnitude = |g: &GroupProgress| {
        g.aggs
            .first()
            .map(|a| a.estimate.abs())
            .filter(|m| m.is_finite())
            .unwrap_or(f64::NEG_INFINITY)
    };
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by(|&a, &b| {
        magnitude(&groups[b])
            .total_cmp(&magnitude(&groups[a]))
            .then(a.cmp(&b))
    });
    for &i in &order[k..] {
        groups[i].tracked = false;
    }
}

/// Worst relative CI half-width across the tracked groups: the quantity
/// the per-group CI stopping target is judged on. `None` while no group
/// exists or any tracked group is not yet estimable — a CI target never
/// fires on partial information.
fn tracked_rel_half_width(groups: &[GroupProgress]) -> Option<f64> {
    let mut tracked = groups.iter().filter(|g| g.tracked).peekable();
    tracked.peek()?;
    tracked.try_fold(0.0f64, |worst, g| Some(worst.max(g.rel_half_width?)))
}

/// Collapse a grouped snapshot's tracked view into the scalar snapshot
/// shape, keyed on one group — a convenience for callers that watch a
/// single group through scalar-snapshot tooling.
pub fn group_snapshot(
    snapshot: &GroupedProgressSnapshot,
    key: &[Value],
) -> Option<ProgressSnapshot> {
    let g = snapshot.groups.iter().find(|g| g.key == key)?;
    Some(ProgressSnapshot {
        chunk: snapshot.chunk,
        rows: snapshot.rows,
        aggs: g.aggs.clone(),
        rel_half_width: g.rel_half_width,
        confidence: snapshot.confidence,
        progress: snapshot.progress.clone(),
        gus: snapshot.gus.clone(),
        elapsed: snapshot.elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run, RunCtx};
    use crate::Engine;
    use sa_exec::{f_vector, layout_dims, open_stream, ExecOptions};
    use sa_expr::col;
    use sa_expr::{bind, eval};
    use sa_plan::{AggSpec, LogicalPlan, SoaAnalysis, StopReason, StoppingRule};
    use sa_sampling::SamplingMethod;
    use sa_storage::{Catalog, DataType, Field, TableBuilder};
    use std::time::Duration;

    /// `t(g, v)`: group "A" = 3000 rows of v=1, "B" = 1500 rows of v=2,
    /// "C" = 300 rows of v=5 — true SUMs 3000, 3000, 1500.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..4800 {
            let (g, v) = match i % 16 {
                0..=9 => ("A", 1.0),
                10..=14 => ("B", 2.0),
                _ => ("C", 5.0),
            };
            b.push_row(&[Value::str(g), Value::Float(v)]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    fn sum_plan(p: f64) -> LogicalPlan {
        LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p })
            .aggregate(vec![AggSpec::sum(col("v"), "s")])
    }

    fn opts(seed: u64, chunk_rows: usize, rule: StoppingRule) -> QueryOptions {
        QueryOptions {
            seed,
            chunk_rows,
            rule,
            ..Default::default()
        }
    }

    /// A grouped run's result with its snapshot unwrapped.
    #[derive(Debug)]
    struct GroupedRun {
        reason: StopReason,
        snapshot: GroupedProgressSnapshot,
        chunks: u64,
        analysis: SoaAnalysis,
    }

    fn drive(
        plan: &LogicalPlan,
        group_by: &[Expr],
        catalog: &Catalog,
        opts: &QueryOptions,
        mut on_snapshot: impl FnMut(&GroupedProgressSnapshot),
    ) -> Result<GroupedRun> {
        let grouped = |s: &Snapshot| s.as_grouped().expect("grouped plan").clone();
        let r = run(plan, group_by, catalog, opts, &RunCtx::default(), |s| {
            on_snapshot(&grouped(s))
        })?;
        Ok(GroupedRun {
            reason: r.reason,
            snapshot: grouped(&r.snapshot),
            chunks: r.chunks,
            analysis: r.analysis,
        })
    }

    #[test]
    fn snapshots_list_groups_in_key_order_and_count_discoveries() {
        let c = catalog();
        let mut discovered = 0u64;
        let r = drive(
            &sum_plan(0.5),
            &[col("g")],
            &c,
            &opts(3, 256, StoppingRule::exhaustive()),
            |s| {
                discovered += s.new_groups;
                let keys: Vec<&Vec<Value>> = s.groups.iter().map(|g| &g.key).collect();
                let mut sorted = keys.clone();
                sorted.sort();
                assert_eq!(keys, sorted, "groups must be key-ordered");
            },
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        assert_eq!(r.snapshot.groups.len(), 3);
        assert_eq!(discovered, 3, "every group discovered exactly once");
        assert_eq!(
            r.snapshot.rows,
            r.snapshot.groups.iter().map(|g| g.sample_rows).sum::<u64>()
        );
        assert_eq!(r.snapshot.group_exprs, vec!["g".to_string()]);
    }

    #[test]
    fn exhausted_run_matches_batch_grouped_estimator() {
        let c = catalog();
        let plan = sum_plan(0.4);
        let r = drive(
            &plan,
            &[col("g")],
            &c,
            &opts(9, 128, StoppingRule::exhaustive()),
            |_| {},
        )
        .unwrap();
        // Batch per-group moments over the SAME realized sample: collect the
        // stream and partition by key.
        let LogicalPlan::Aggregate { aggs, input } = &plan else {
            unreachable!()
        };
        let mut stream = open_stream(
            input,
            &c,
            &ExecOptions {
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        let layout = layout_dims(aggs, stream.schema()).unwrap();
        let key_expr = bind(&col("g"), stream.schema()).unwrap();
        let mut batch: std::collections::BTreeMap<Vec<Value>, sa_core::GroupedMoments> =
            Default::default();
        loop {
            let chunk = stream.next_chunk(4096).unwrap();
            if chunk.is_empty() {
                break;
            }
            for row in &chunk {
                let key = vec![eval(&key_expr, &row.values).unwrap()];
                batch
                    .entry(key)
                    .or_insert_with(|| sa_core::GroupedMoments::new(1, layout.dims()))
                    .push(&row.lineage, &f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
        assert_eq!(batch.len(), r.snapshot.groups.len());
        for g in &r.snapshot.groups {
            let moments = batch.remove(&g.key).expect("group in both").finish();
            let report = sa_core::estimate_from_sample_moments(&r.analysis.gus, &moments).unwrap();
            let (eo, eb) = (g.aggs[0].estimate, report.estimate[0]);
            assert!((eo - eb).abs() < 1e-9 * (1.0 + eb.abs()), "{eo} vs {eb}");
            let (vo, vb) = (g.aggs[0].variance.unwrap(), report.variance(0).unwrap());
            assert!((vo - vb).abs() < 1e-9 * (1.0 + vb.abs()), "{vo} vs {vb}");
        }
    }

    #[test]
    fn ci_rule_waits_for_every_group() {
        // The rare group C converges last: when the loop stops, ALL groups
        // must meet the target, and the stop must still beat exhaustion.
        let c = catalog();
        let r = drive(
            &sum_plan(0.9),
            &[col("g")],
            &c,
            &opts(4, 64, StoppingRule::ci(0.2, 0.95)),
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::CiConverged);
        assert!(r.snapshot.rel_half_width.unwrap() <= 0.2);
        for g in &r.snapshot.groups {
            assert!(g.converged, "group {:?} had not converged", g.key);
            assert!(g.tracked);
        }
        let (consumed, available) = r.snapshot.progress[0];
        assert!(consumed < available, "stopped before exhaustion");
    }

    #[test]
    fn top_k_policy_stops_on_heavy_groups_only() {
        // With a tight-ish target the tiny group C is the straggler; track
        // only the top-2 estimates (A and B) and the loop stops earlier.
        let c = catalog();
        let all = drive(
            &sum_plan(0.9),
            &[col("g")],
            &c,
            &opts(4, 64, StoppingRule::ci(0.12, 0.95)),
            |_| {},
        )
        .unwrap();
        let top2 = drive(
            &sum_plan(0.9),
            &[col("g")],
            &c,
            &QueryOptions {
                ci_top_k: Some(2),
                ..opts(4, 64, StoppingRule::ci(0.12, 0.95))
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(top2.reason, StopReason::CiConverged);
        assert!(
            top2.snapshot.rows < all.snapshot.rows,
            "top-2 stop ({}) should beat all-groups stop ({})",
            top2.snapshot.rows,
            all.snapshot.rows
        );
        // The tail group is still reported, just untracked.
        let c_group = top2
            .snapshot
            .groups
            .iter()
            .find(|g| g.key == vec![Value::str("C")])
            .expect("tail group still reported");
        assert!(!c_group.tracked);
        assert!(c_group.aggs[0].estimate > 0.0);
        let tracked = top2.snapshot.groups.iter().filter(|g| g.tracked).count();
        assert_eq!(tracked, 2);
    }

    #[test]
    fn top_k_ranks_inestimable_groups_last() {
        // A NaN estimate (e.g. an AVG whose delta-method ratio failed) must
        // rank BELOW every finite magnitude: an inestimable group would pin
        // rel_half_width to None forever and block the very stop ci_top_k
        // exists to unblock.
        let mk = |key: &str, estimate: f64| GroupProgress {
            key: vec![Value::str(key)],
            aggs: vec![AggResult {
                name: "s".into(),
                func: sa_plan::AggFunc::Sum,
                estimate,
                variance: None,
                ci_normal: None,
                ci_chebyshev: None,
                quantile_bound: None,
            }],
            sample_rows: 1,
            rel_half_width: None,
            converged: false,
            tracked: true,
        };
        let mut groups = vec![mk("a", f64::NAN), mk("b", 10.0), mk("c", -20.0)];
        apply_top_k_policy(&mut groups, Some(2));
        assert!(!groups[0].tracked, "NaN group must be demoted");
        assert!(groups[1].tracked && groups[2].tracked);
    }

    #[test]
    fn global_budgets_still_fire() {
        let c = catalog();
        let r = drive(
            &sum_plan(0.9),
            &[col("g")],
            &c,
            &opts(1, 100, StoppingRule::rows(500)),
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::RowBudget);
        assert!(r.snapshot.rows >= 500 && r.snapshot.rows < 2000);
        let r = drive(
            &sum_plan(0.9),
            &[col("g")],
            &c,
            &opts(1, 10, StoppingRule::time(Duration::ZERO)),
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::TimeBudget);
        assert_eq!(r.chunks, 1);
    }

    #[test]
    fn grouped_sql_lowers_the_rule_per_group() {
        let engine = Engine::new(catalog());
        let mut snaps = 0u64;
        let r = engine
            .session()
            .query(
                "SELECT g, SUM(v) AS s FROM t TABLESAMPLE (90 PERCENT) GROUP BY g \
                 WITHIN 20 PERCENT CONFIDENCE 95",
            )
            .seed(4)
            .chunk_rows(128)
            .run_with(|_| snaps += 1)
            .unwrap();
        assert_eq!(r.reason, StopReason::CiConverged);
        assert_eq!(snaps, r.chunks);
        assert!((r.snapshot.confidence() - 0.95).abs() < 1e-12);
        assert_eq!(r.snapshot.as_grouped().unwrap().groups.len(), 3);
    }

    #[test]
    fn zero_chunk_rows_rejected() {
        let c = catalog();
        let bad = QueryOptions {
            chunk_rows: 0,
            ..Default::default()
        };
        let err = drive(&sum_plan(0.5), &[col("g")], &c, &bad, |_| {}).unwrap_err();
        assert!(matches!(err, Error::InvalidOptions(_)), "{err}");
        assert!(err.to_string().contains("chunk_rows"), "{err}");
    }

    #[test]
    fn non_aggregate_root_rejected() {
        let c = catalog();
        let err = drive(
            &LogicalPlan::scan("t"),
            &[col("g")],
            &c,
            &QueryOptions::default(),
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn grouped_union_scaling_matches_batch_at_exhaustion() {
        // Per-branch prefix composition works per group too: the union plan
        // runs with population scaling on, and at exhaustion every group's
        // readout equals the batch grouped estimator on the same realized
        // union sample.
        let c = catalog();
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.4 })
            .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.4 }))
            .aggregate(vec![AggSpec::sum(col("v"), "s")]);
        let r = drive(
            &plan,
            &[col("g")],
            &c,
            &opts(9, 128, StoppingRule::exhaustive()),
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        let LogicalPlan::Aggregate { aggs, input } = &plan else {
            unreachable!()
        };
        let exec_opts = ExecOptions {
            seed: 9,
            ..Default::default()
        };
        let mut stream = open_stream(input, &c, &exec_opts).unwrap();
        let layout = layout_dims(aggs, stream.schema()).unwrap();
        let key_expr = bind(&col("g"), stream.schema()).unwrap();
        let mut batch: std::collections::BTreeMap<Vec<Value>, sa_core::GroupedMoments> =
            Default::default();
        loop {
            let chunk = stream.next_chunk(4096).unwrap();
            if chunk.is_empty() {
                break;
            }
            for row in &chunk {
                let key = vec![eval(&key_expr, &row.values).unwrap()];
                batch
                    .entry(key)
                    .or_insert_with(|| sa_core::GroupedMoments::new(1, layout.dims()))
                    .push(&row.lineage, &f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
        assert_eq!(batch.len(), r.snapshot.groups.len());
        for g in &r.snapshot.groups {
            let moments = batch.remove(&g.key).expect("group in both").finish();
            let report = sa_core::estimate_from_sample_moments(&r.analysis.gus, &moments).unwrap();
            let (eo, eb) = (g.aggs[0].estimate, report.estimate[0]);
            assert!((eo - eb).abs() < 1e-9 * (1.0 + eb.abs()), "{eo} vs {eb}");
            let (vo, vb) = (g.aggs[0].variance.unwrap(), report.variance(0).unwrap());
            assert!((vo - vb).abs() < 1e-9 * (1.0 + vb.abs()), "{vo} vs {vb}");
        }
    }

    #[test]
    fn empty_table_emits_one_groupless_snapshot() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        c.register(TableBuilder::new("t", schema).finish().unwrap())
            .unwrap();
        let r = drive(
            &sum_plan(0.5),
            &[col("g")],
            &c,
            &QueryOptions::default(),
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        assert_eq!(r.chunks, 1);
        assert!(r.snapshot.groups.is_empty());
        assert_eq!(r.snapshot.rel_half_width, None);
        // A CI rule over an empty stream must run to exhaustion, not fire.
        let r = drive(
            &sum_plan(0.5),
            &[col("g")],
            &c,
            &opts(0, 64, StoppingRule::ci(0.05, 0.95)),
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
    }

    #[test]
    fn group_snapshot_projects_one_group() {
        let c = catalog();
        let r = drive(
            &sum_plan(0.5),
            &[col("g")],
            &c,
            &opts(3, 512, StoppingRule::exhaustive()),
            |_| {},
        )
        .unwrap();
        let a = group_snapshot(&r.snapshot, &[Value::str("A")]).unwrap();
        assert_eq!(a.chunk, r.snapshot.chunk);
        assert!((a.aggs[0].estimate - 3000.0).abs() < 500.0);
        assert!(group_snapshot(&r.snapshot, &[Value::str("nope")]).is_none());
    }

    #[test]
    fn multiple_aggregates_and_multi_key_groups() {
        let c = catalog();
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.6 })
            .aggregate(vec![
                AggSpec::sum(col("v"), "s"),
                AggSpec::count_star("n"),
                AggSpec::avg(col("v"), "a"),
            ]);
        let r = drive(
            &plan,
            &[col("g"), col("v")],
            &c,
            &opts(7, 256, StoppingRule::exhaustive()),
            |_| {},
        )
        .unwrap();
        // (g, v) is functionally g here, so still 3 groups, 2-part keys.
        assert_eq!(r.snapshot.groups.len(), 3);
        for g in &r.snapshot.groups {
            assert_eq!(g.key.len(), 2);
            assert_eq!(g.aggs.len(), 3);
            // AVG of the constant v within a group is exact.
            let v = g.key[1].as_f64().unwrap();
            assert!((g.aggs[2].estimate - v).abs() < 1e-9);
        }
    }
}
