//! Binding: parsed [`Query`] → [`LogicalPlan`].
//!
//! The binder resolves column references against the catalog, classifies
//! `WHERE` conjuncts (per-table filters vs join conditions vs residual
//! cross-table predicates), builds a left-deep join tree in `FROM` order,
//! and translates `TABLESAMPLE` clauses into [`SamplingMethod`] operators on
//! the base relations — producing exactly the plan shape the SOA rewriter
//! analyzes.

use sa_expr::Expr;
use sa_plan::{AggSpec, LogicalPlan};
use sa_sampling::SamplingMethod;
use sa_storage::{Catalog, Schema};

use crate::ast::{AggCall, Query, SampleSpec};
use crate::error::SqlError;
use crate::Result;

/// Bind a parsed query against `catalog`.
pub fn bind_query(query: &Query, catalog: &Catalog) -> Result<LogicalPlan> {
    if query.from.is_empty() {
        return Err(SqlError::Bind("FROM list is empty".into()));
    }
    // Resolve each FROM item's schema (qualified by its binding name).
    let mut schemas: Vec<Schema> = Vec::with_capacity(query.from.len());
    for t in &query.from {
        let table = catalog
            .get(&t.table)
            .map_err(|e| SqlError::Bind(e.to_string()))?;
        schemas.push(table.schema().qualify_all(t.binding_name()));
    }
    // Duplicate binding names are self-joins: rejected with a helpful error.
    for (i, t) in query.from.iter().enumerate() {
        for u in &query.from[..i] {
            if t.binding_name() == u.binding_name() {
                return Err(SqlError::Bind(format!(
                    "`{}` appears twice in FROM; alias one occurrence (self-joins are not \
                     analyzable — see the paper's Section 9)",
                    t.binding_name()
                )));
            }
        }
    }

    // Classify WHERE conjuncts by the set of FROM items they reference.
    let mut table_filters: Vec<Vec<Expr>> = vec![Vec::new(); query.from.len()];
    // (highest table index, conjunct) — attached at the join that first
    // covers all referenced tables.
    let mut join_conjuncts: Vec<(usize, Expr)> = Vec::new();
    if let Some(pred) = &query.predicate {
        for conjunct in pred.split_conjuncts() {
            let tables = tables_of(conjunct, &schemas)?;
            match tables.len() {
                0 => join_conjuncts.push((query.from.len() - 1, conjunct.clone())),
                1 => table_filters[tables[0]].push(conjunct.clone()),
                _ => {
                    let hi = *tables.iter().max().expect("non-empty");
                    join_conjuncts.push((hi, conjunct.clone()));
                }
            }
        }
    }

    // Build per-table subplans: scan → sample → filters.
    let mut subplans: Vec<LogicalPlan> = Vec::with_capacity(query.from.len());
    for (i, t) in query.from.iter().enumerate() {
        let scan = || {
            if t.binding_name() == t.table {
                LogicalPlan::scan(&t.table)
            } else {
                LogicalPlan::scan_as(&t.table, t.binding_name())
            }
        };
        let mut plan = scan();
        if let Some(spec) = &t.sample {
            plan = plan.sample(sample_method(spec)?);
            // `TABLESAMPLE s1 UNION TABLESAMPLE s2 …`: independent draws of
            // the same scan, combined by Proposition 7's union-of-samples
            // (dedup by lineage). Filters go *above* the union so every
            // branch stays a sample of the identical expression.
            for spec in &t.union_samples {
                plan = plan.union_samples(scan().sample(sample_method(spec)?));
            }
        }
        if !table_filters[i].is_empty() {
            plan = plan.filter(Expr::conjoin(table_filters[i].clone()));
        }
        subplans.push(plan);
    }

    // Left-deep join tree in FROM order; conjuncts attach at the first join
    // that covers them.
    let mut iter = subplans.into_iter();
    let mut plan = iter.next().expect("FROM non-empty");
    for (i, right) in iter.enumerate() {
        let right_index = i + 1;
        let here: Vec<Expr> = join_conjuncts
            .iter()
            .filter(|(hi, _)| *hi == right_index)
            .map(|(_, e)| e.clone())
            .collect();
        plan = if here.is_empty() {
            plan.cross(right)
        } else {
            plan.join_on(right, Expr::conjoin(here))
        };
    }
    // Conjuncts landing on table 0 alone already went to filters; any
    // zero-table conjuncts attached at the last index are handled above.
    if query.from.len() == 1 {
        let trailing: Vec<Expr> = join_conjuncts.into_iter().map(|(_, e)| e).collect();
        if !trailing.is_empty() {
            plan = plan.filter(Expr::conjoin(trailing));
        }
    }

    // Aggregates.
    let mut aggs = Vec::with_capacity(query.select.len());
    for (i, item) in query.select.iter().enumerate() {
        let default_name = format!("col{i}");
        let alias = item.alias.clone().unwrap_or(default_name);
        let mut spec = match &item.func {
            AggCall::Sum(e) => AggSpec::sum(e.clone(), alias),
            AggCall::Avg(e) => AggSpec::avg(e.clone(), alias),
            AggCall::CountStar => AggSpec::count_star(alias),
            AggCall::Count(e) => AggSpec {
                func: sa_plan::AggFunc::Count,
                expr: Some(e.clone()),
                quantile: None,
                alias,
            },
        };
        if let Some(q) = item.quantile {
            spec = spec.with_quantile(q);
        }
        aggs.push(spec);
    }
    let plan = plan.aggregate(aggs);
    plan.validate(catalog)?;
    Ok(plan)
}

/// Which FROM items (by index) an expression references. Errors on unknown
/// or ambiguous columns.
fn tables_of(expr: &Expr, schemas: &[Schema]) -> Result<Vec<usize>> {
    let mut out: Vec<usize> = Vec::new();
    for name in expr.columns_used() {
        let mut matches: Vec<usize> = Vec::new();
        for (i, s) in schemas.iter().enumerate() {
            if s.index_of(name).is_ok() {
                matches.push(i);
            }
        }
        match matches.len() {
            0 => {
                return Err(SqlError::Bind(format!(
                    "column `{name}` not found in any FROM table"
                )))
            }
            1 => {
                if !out.contains(&matches[0]) {
                    out.push(matches[0]);
                }
            }
            _ => {
                return Err(SqlError::Bind(format!(
                    "column `{name}` is ambiguous across the FROM list; qualify it"
                )))
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

fn sample_method(spec: &SampleSpec) -> Result<SamplingMethod> {
    Ok(match spec {
        SampleSpec::Percent(p) => SamplingMethod::Bernoulli { p: p / 100.0 },
        SampleSpec::Rows(n) => SamplingMethod::Wor { size: *n },
        SampleSpec::SystemPercent(p) => SamplingMethod::System { p: p / 100.0 },
    })
}

/// Parse and bind a scalar aggregate query in one call. Rejects `GROUP BY`
/// (use [`plan_grouped_sql`] for grouped estimation).
pub fn plan_sql(sql: &str, catalog: &Catalog) -> Result<LogicalPlan> {
    let q = crate::parser::parse(sql)?;
    if !q.group_by.is_empty() {
        return Err(SqlError::Bind(
            "query has GROUP BY; plan it with plan_grouped_sql and run it as a grouped \
             query (Session::query_plan(..).group_by(keys))"
                .into(),
        ));
    }
    bind_query(&q, catalog)
}

/// Parse and bind a (possibly grouped) aggregate query: returns the
/// aggregate plan plus the `GROUP BY` expressions (empty for a scalar
/// query), ready for `sa_online`'s `Session::query_plan(..).group_by(keys)`.
///
/// A `WITHIN … PERCENT CONFIDENCE …` clause, if present, is accepted and
/// ignored here — batch estimation has no stopping loop. Use
/// [`plan_online_grouped_sql`] to obtain the lowered stopping rule.
pub fn plan_grouped_sql(sql: &str, catalog: &Catalog) -> Result<(LogicalPlan, Vec<Expr>)> {
    let q = crate::parser::parse(sql)?;
    let plan = bind_query(&q, catalog)?;
    Ok((plan, q.group_by))
}

/// Parse and bind a (possibly grouped) aggregate query for **online**
/// (progressive) estimation: returns the plan, the `GROUP BY` expressions
/// (empty for a scalar query), and the stopping rule lowered from the
/// query's `WITHIN ε PERCENT CONFIDENCE γ` clause (`None` when the query
/// has no accuracy clause — the caller supplies its own rule or runs to
/// exhaustion). This is what `sa_online`'s `Session::query` runs.
pub fn plan_online_grouped_sql(
    sql: &str,
    catalog: &Catalog,
) -> Result<(LogicalPlan, Vec<Expr>, Option<sa_plan::StoppingRule>)> {
    let q = crate::parser::parse(sql)?;
    let plan = bind_query(&q, catalog)?;
    Ok((plan, q.group_by, q.accuracy.map(|a| a.stopping_rule())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_storage::{DataType, Field, TableBuilder, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let li = Schema::new(vec![
            Field::new("l_orderkey", DataType::Int),
            Field::new("l_extendedprice", DataType::Float),
            Field::new("l_discount", DataType::Float),
            Field::new("l_tax", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("lineitem", li);
        for i in 0..20 {
            b.push_row(&[
                Value::Int(i % 5),
                Value::Float(100.0 + i as f64),
                Value::Float(0.05),
                Value::Float(0.02),
            ])
            .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let o = Schema::new(vec![
            Field::new("o_orderkey", DataType::Int),
            Field::new("o_totalprice", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("orders", o);
        for i in 0..5 {
            b.push_row(&[Value::Int(i), Value::Float(1000.0)]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    #[test]
    fn binds_paper_query1() {
        let plan = plan_sql(
            "SELECT SUM(l_discount*(1.0-l_tax)) \
             FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (5 ROWS) \
             WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0",
            &catalog(),
        )
        .unwrap();
        // Shape: Aggregate(Join(Filter(Sample(lineitem)), Sample(orders))).
        let LogicalPlan::Aggregate { input, .. } = &plan else {
            panic!("no aggregate root")
        };
        let LogicalPlan::Join {
            condition,
            left,
            right,
            ..
        } = input.as_ref()
        else {
            panic!("no join: {input}")
        };
        assert!(condition.is_some());
        assert!(matches!(left.as_ref(), LogicalPlan::Filter { .. }));
        assert!(matches!(right.as_ref(), LogicalPlan::Sample { .. }));
        assert_eq!(plan.base_relations(), vec!["lineitem", "orders"]);
    }

    #[test]
    fn binds_union_of_samples_with_filter_above() {
        let plan = plan_sql(
            "SELECT SUM(l_extendedprice) AS s FROM lineitem \
             TABLESAMPLE (40 PERCENT) UNION TABLESAMPLE (25 PERCENT) \
             WHERE l_extendedprice > 100.0",
            &catalog(),
        )
        .unwrap();
        // Shape: Aggregate(Filter(Union(Sample, Sample))) — the filter sits
        // above the union so both branches sample the identical expression.
        let LogicalPlan::Aggregate { input, .. } = &plan else {
            panic!("no aggregate root")
        };
        let LogicalPlan::Filter { input, .. } = input.as_ref() else {
            panic!("filter must sit above the union: {input}")
        };
        let LogicalPlan::UnionSamples { left, right } = input.as_ref() else {
            panic!("no union: {input}")
        };
        assert!(matches!(left.as_ref(), LogicalPlan::Sample { .. }));
        assert!(matches!(right.as_ref(), LogicalPlan::Sample { .. }));
        // Mixed SYSTEM/BERNOULLI branches parse but fail validation.
        assert!(plan_sql(
            "SELECT COUNT(*) FROM lineitem \
             TABLESAMPLE (40 PERCENT) UNION TABLESAMPLE SYSTEM (25)",
            &catalog(),
        )
        .is_err());
    }

    #[test]
    fn single_table_filter_attaches_to_scan() {
        let plan = plan_sql(
            "SELECT COUNT(*) FROM lineitem TABLESAMPLE (50 PERCENT) WHERE l_extendedprice > 110",
            &catalog(),
        )
        .unwrap();
        let LogicalPlan::Aggregate { input, .. } = &plan else {
            panic!()
        };
        assert!(matches!(input.as_ref(), LogicalPlan::Filter { .. }));
    }

    #[test]
    fn aliases_bind_and_self_join_rejected() {
        let plan = plan_sql(
            "SELECT COUNT(*) FROM lineitem AS a, lineitem AS b WHERE a.l_orderkey = b.l_orderkey",
            &catalog(),
        );
        // Aliased self-join parses and binds (distinct lineage aliases).
        assert!(plan.is_ok());
        let err = plan_sql(
            "SELECT COUNT(*) FROM lineitem, lineitem WHERE l_extendedprice > 0",
            &catalog(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("twice"));
    }

    #[test]
    fn unknown_column_and_table() {
        assert!(plan_sql("SELECT SUM(nope) FROM lineitem", &catalog()).is_err());
        assert!(plan_sql("SELECT COUNT(*) FROM nonexistent", &catalog()).is_err());
    }

    #[test]
    fn ambiguous_column_rejected() {
        // Both lineitem aliases have l_orderkey; unqualified is ambiguous.
        let err = plan_sql(
            "SELECT COUNT(*) FROM lineitem AS a, lineitem AS b WHERE l_orderkey = 1",
            &catalog(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn cross_join_without_condition() {
        let plan = plan_sql("SELECT COUNT(*) FROM lineitem, orders", &catalog()).unwrap();
        let LogicalPlan::Aggregate { input, .. } = &plan else {
            panic!()
        };
        assert!(matches!(
            input.as_ref(),
            LogicalPlan::Join {
                condition: None,
                ..
            }
        ));
    }

    #[test]
    fn system_sampling_binds() {
        let plan = plan_sql(
            "SELECT COUNT(*) FROM lineitem TABLESAMPLE SYSTEM (10)",
            &catalog(),
        )
        .unwrap();
        let LogicalPlan::Aggregate { input, .. } = &plan else {
            panic!()
        };
        assert!(matches!(
            input.as_ref(),
            LogicalPlan::Sample {
                method: SamplingMethod::System { .. },
                ..
            }
        ));
    }

    #[test]
    fn quantile_becomes_spec() {
        let plan = plan_sql(
            "CREATE VIEW APPROX (lo, hi) AS \
             SELECT QUANTILE(SUM(l_discount), 0.05), QUANTILE(SUM(l_discount), 0.95) \
             FROM lineitem TABLESAMPLE (10 PERCENT)",
            &catalog(),
        )
        .unwrap();
        let LogicalPlan::Aggregate { aggs, .. } = &plan else {
            panic!()
        };
        assert_eq!(aggs[0].quantile, Some(0.05));
        assert_eq!(aggs[0].alias, "lo");
        assert_eq!(aggs[1].quantile, Some(0.95));
    }

    #[test]
    fn default_aliases_generated() {
        let plan = plan_sql("SELECT COUNT(*), SUM(l_tax) FROM lineitem", &catalog()).unwrap();
        let LogicalPlan::Aggregate { aggs, .. } = &plan else {
            panic!()
        };
        assert_eq!(aggs[0].alias, "col0");
        assert_eq!(aggs[1].alias, "col1");
    }

    #[test]
    fn online_grouped_lowering_carries_keys_and_rule() {
        let (plan, group_by, rule) = plan_online_grouped_sql(
            "SELECT l_orderkey, SUM(l_extendedprice) AS s \
             FROM lineitem TABLESAMPLE (10 PERCENT) \
             GROUP BY l_orderkey WITHIN 5 PERCENT CONFIDENCE 95",
            &catalog(),
        )
        .unwrap();
        assert!(matches!(plan, LogicalPlan::Aggregate { .. }));
        assert_eq!(group_by.len(), 1);
        let target = rule.unwrap().ci_target.unwrap();
        assert!((target.epsilon - 0.05).abs() < 1e-12);
        assert!((target.confidence - 0.95).abs() < 1e-12);
        // A scalar query comes back with no keys.
        let (_, group_by, rule) = plan_online_grouped_sql(
            "SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (10 PERCENT)",
            &catalog(),
        )
        .unwrap();
        assert!(group_by.is_empty());
        assert!(rule.is_none());
    }

    #[test]
    fn literal_only_predicate() {
        let plan = plan_sql("SELECT COUNT(*) FROM lineitem WHERE 1 < 2", &catalog()).unwrap();
        plan.validate(&catalog()).unwrap();
    }
}
